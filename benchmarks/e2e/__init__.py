"""End-to-end benchmark of what users run: reproduction, campaigns, checker.

``PYTHONPATH=src python -m benchmarks.e2e`` -- see README.md.
"""
