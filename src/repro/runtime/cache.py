"""On-disk result cache for experiment tasks.

Each completed task is stored as one JSON file under the cache
directory (default ``.repro-cache/``), keyed by a content hash of

* the task's identity: experiment, shard, canonical parameters, kind,
  ``fast`` flag and seed;
* the *code version*: a digest over every ``*.py`` source file of the
  installed :mod:`repro` package.

The code version makes staleness structural rather than advisory: any
edit anywhere in the library changes the key, so a warm cache can never
serve results computed by different code.  Corrupt or unreadable
entries degrade to cache misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from typing import Any, Dict, Optional

from repro.runtime.task import TaskSpec

# Bump to invalidate every existing cache entry on format changes.  Any
# change to the library itself already changes the key through
# code_version(), so no further generation salt is needed.
CACHE_FORMAT = "repro-cache/1"

DEFAULT_CACHE_DIR = ".repro-cache"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of the repro package's Python sources (memoized).

    Hashes every ``*.py`` under the package root in sorted relative
    path order, so the digest is stable across machines and working
    directories but changes whenever any library code does.
    """
    global _code_version
    if _code_version is None:
        import repro

        root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _code_version = digest.hexdigest()
    return _code_version


def default_cache_dir() -> str:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


class ResultCache:
    """A directory of JSON task results, content-addressed.

    Usage::

        cache = ResultCache(".repro-cache")
        entry = cache.get(spec)          # None on miss
        cache.put(spec, payload, wall_time=1.23)
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = pathlib.Path(directory or default_cache_dir())

    def key(self, spec: TaskSpec) -> str:
        """Content hash addressing one task's result."""
        material = "\x1f".join(
            [
                CACHE_FORMAT,
                code_version(),
                spec.experiment,
                spec.shard,
                spec.kind,
                "fast" if spec.fast else "full",
                str(spec.seed),
                spec.canonical_params(),
            ]
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def path(self, spec: TaskSpec) -> pathlib.Path:
        """File backing one task's cache entry."""
        return self.directory / f"{self.key(spec)}.json"

    def get(self, spec: TaskSpec) -> Optional[Dict[str, Any]]:
        """Return the stored entry for ``spec``, or ``None`` on miss.

        The entry is the dict given to :meth:`put` plus bookkeeping
        (``payload``, ``wall_time``, ``spec``, ``created``).  Unreadable
        or malformed files are treated as misses.
        """
        path = self.path(spec)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            return None
        return entry

    def put(
        self,
        spec: TaskSpec,
        payload: Dict[str, Any],
        wall_time: float = 0.0,
    ) -> pathlib.Path:
        """Store one task result atomically; returns the file path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "code_version": code_version(),
            "spec": spec.to_dict(),
            "payload": payload,
            "wall_time": wall_time,
            "created": time.time(),
        }
        path = self.path(spec)
        # Write-then-rename so a crashed writer never leaves a torn
        # entry for a later reader to trip over.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # No sort_keys: payload dict order is meaningful (e.g.
                # an ExperimentResult's check order) and must survive
                # the round trip exactly.
                json.dump(entry, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
