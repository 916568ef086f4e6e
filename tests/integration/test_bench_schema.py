"""Every committed BENCH_*.json blob satisfies the unified schema.

The bench suites each emit a before/after comparison blob through the
shared ``write_bench_blob`` fixture, which validates at write time --
but a blob committed by an older tree (or edited by hand) only gets
caught here.  The same validator backs
``python -m repro.experiments bench-report``.
"""

import json

from repro.experiments.bench_report import (
    BENCH_GLOB,
    BENCH_REQUIRED_KEYS,
    load_bench_files,
    render_report,
    repo_root,
    validate_bench,
)

EXPECTED_BENCHES = {
    "BENCH_checker.json",
    "BENCH_compile.json",
    "BENCH_explore.json",
    "BENCH_kernel.json",
    "BENCH_pipeline.json",
    "BENCH_runtime.json",
}


def committed_blobs():
    paths = sorted(repo_root().glob(BENCH_GLOB))
    assert paths, f"no {BENCH_GLOB} files at the repo root"
    return {
        path.name: json.loads(path.read_text(encoding="utf-8"))
        for path in paths
    }


def test_all_known_bench_files_are_committed():
    assert EXPECTED_BENCHES <= set(committed_blobs())


def test_every_committed_blob_passes_the_validator():
    for name, blob in committed_blobs().items():
        errors = validate_bench(blob)
        assert not errors, f"{name}: " + "; ".join(errors)


def test_required_keys_present_in_every_blob():
    for name, blob in committed_blobs().items():
        missing = [key for key in BENCH_REQUIRED_KEYS if key not in blob]
        assert not missing, f"{name} is missing {missing}"


def test_report_renders_one_row_per_blob():
    entries = load_bench_files()
    report = render_report(entries)
    lines = [line for line in report.splitlines() if line.strip()]
    # header + separator + one row per blob, nothing marked INVALID
    assert len(lines) == 2 + len(entries)
    assert "INVALID" not in report
    for _, blob in entries:
        assert str(blob["bench"]) in report


def test_validator_rejects_malformed_blobs():
    good = {
        "bench": "x",
        "baseline_commit": "abc1234",
        "before_s": 1.0,
        "after_s": {"w_s": 0.5},
        "speedup_x": 2.0,
    }
    assert validate_bench(good) == []
    assert validate_bench({}) != []
    assert validate_bench({**good, "speedup_x": "2.0"}) != []
    assert validate_bench({**good, "before_s": -1.0}) != []
    assert validate_bench({**good, "after_s": {}}) != []
    assert validate_bench({**good, "after_s": {"w_s": True}}) != []
    assert validate_bench({**good, "bench": ""}) != []
    # an honest slowdown (< 1.0) is schema-legal
    assert validate_bench({**good, "speedup_x": 0.9}) == []
