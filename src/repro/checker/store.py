"""Disk-backed visited set and level logs for the checker.

A completed search only ever *queries* its visited set -- membership
tests against an append-only population -- so the set does not have to
live in RAM.  :class:`DiskVisitedStore` keeps a small in-RAM buffer and
spills it, sorted, into immutable **run files** of fixed-width records;
membership is a binary search per run (the classic sorted-string-table
layout, without compaction: runs stay small enough that a handful of
binary searches beat maintaining a merge).

Records are the shard-local **packed configuration integers** (six
24-bit fields, see :mod:`repro.ioa.exploration`), stored as fixed-width
big-endian byte strings.  Packed configurations are exact identities --
two distinct abstract configurations never pack to the same int within
a shard -- so disk-backed membership is bit-identical to the RAM
``set`` it replaces: same dedup decisions, same verdicts, same
counterexamples.  (The per-shard files are "sorted-digest membership
shards" in the sharded-BFS sense: each shard persists only the
partition of the space its content digest routes to it.)

:class:`LevelLog` is the append-only level-file side: one file per BFS
level recording the configurations adopted into the frontier at that
level, written at the same level barriers the checkpoint machinery
uses.  It is an audit/debug artifact -- re-readable after the run --
not a queue: the in-flight frontier itself stays in RAM (one BFS level,
the working set a level-synchronous search cannot avoid touching
anyway).

Both live under ``.repro-cache/checker/store/<key>/shard-<i>/`` and are
wiped on construction: a store directory is a scratch materialisation
of one search, not a cache.
"""

from __future__ import annotations

import os
import shutil
from bisect import bisect_left
from typing import Iterable, Iterator, List, Set

__all__ = ["DiskVisitedStore", "LevelLog", "RECORD_BYTES"]

#: Fixed record width.  Six 24-bit fields = 144 bits; 19 bytes would
#: do, but 24 keeps the width a round multiple of 8 and leaves slack
#: for future fields.
RECORD_BYTES = 24

_RECORD_CAP = 1 << (8 * RECORD_BYTES)


class _SortedRun(object):
    """One immutable sorted run file, searched via binary search.

    The file's bytes are loaded lazily and kept as one ``bytes`` blob;
    a run of the default spill size is ~1.5 MiB.  Lookups slice one
    record per probe -- no parsing, no deserialisation.
    """

    __slots__ = ("path", "count", "_blob")

    def __init__(self, path: str, count: int) -> None:
        self.path = path
        self.count = count
        self._blob: bytes = b""
        self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            self._blob = handle.read()
        if len(self._blob) != self.count * RECORD_BYTES:
            raise IOError(
                f"run file {self.path} holds {len(self._blob)} bytes, "
                f"expected {self.count * RECORD_BYTES}"
            )

    def __contains__(self, record: bytes) -> bool:
        blob = self._blob
        lo, hi = 0, self.count
        while lo < hi:
            mid = (lo + hi) // 2
            start = mid * RECORD_BYTES
            probe = blob[start:start + RECORD_BYTES]
            if probe < record:
                lo = mid + 1
            elif probe > record:
                hi = mid
            else:
                return True
        return False

    def __iter__(self) -> Iterator[bytes]:
        blob = self._blob
        for start in range(0, len(blob), RECORD_BYTES):
            yield blob[start:start + RECORD_BYTES]


class DiskVisitedStore(object):
    """A set of packed configuration ints with bounded RAM residency.

    Drop-in for the shard's ``seen: Set[int]`` (supports ``in``,
    ``add``, ``len``, iteration).  Additions land in a RAM buffer;
    when the buffer reaches ``spill_threshold`` entries it is sorted
    and appended to the directory as an immutable run file.  Lookup
    order: buffer first (recent configurations are the likeliest
    repeats), then runs newest-to-oldest.

    Args:
        directory: per-shard scratch directory; **wiped** and recreated
            by the constructor.
        spill_threshold: buffer size, in configurations, that triggers
            a spill to disk.
    """

    def __init__(self, directory: str,
                 spill_threshold: int = 65_536) -> None:
        if spill_threshold < 1:
            raise ValueError("spill_threshold must be >= 1")
        self.directory = directory
        self.spill_threshold = spill_threshold
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory, exist_ok=True)
        self._buffer: Set[int] = set()
        self._runs: List[_SortedRun] = []
        self._count = 0

    # -- set protocol --------------------------------------------------
    def __contains__(self, cfg: int) -> bool:
        if cfg in self._buffer:
            return True
        if not self._runs:
            return False
        record = cfg.to_bytes(RECORD_BYTES, "big")
        for run in reversed(self._runs):
            if record in run:
                return True
        return False

    def add(self, cfg: int) -> None:
        """Insert ``cfg``; the caller guarantees it is not present
        (the shard kernels always test membership first)."""
        if cfg >= _RECORD_CAP:
            raise ValueError(
                f"configuration {cfg:#x} exceeds the {RECORD_BYTES}-byte "
                "record width"
            )
        self._buffer.add(cfg)
        self._count += 1
        if len(self._buffer) >= self.spill_threshold:
            self._spill()

    def update(self, cfgs: Iterable[int]) -> None:
        for cfg in cfgs:
            if cfg not in self:
                self.add(cfg)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        for run in self._runs:
            for record in run:
                yield int.from_bytes(record, "big")
        yield from self._buffer

    # -- spilling ------------------------------------------------------
    def _spill(self) -> None:
        if not self._buffer:
            return
        # Sort the ints, then convert: big-endian fixed-width encoding
        # of non-negative ints is order-preserving, and C-level int
        # comparisons beat comparing freshly allocated byte strings.
        count = len(self._buffer)
        blob = b"".join(
            cfg.to_bytes(RECORD_BYTES, "big")
            for cfg in sorted(self._buffer)
        )
        path = os.path.join(
            self.directory, f"run-{len(self._runs):06d}.bin"
        )
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
        self._runs.append(_SortedRun(path, count))
        self._buffer = set()

    def flush(self) -> None:
        """Force the RAM buffer onto disk (used before stats snapshots
        that want an accurate residency picture; never required for
        correctness)."""
        self._spill()

    def stats(self) -> dict:
        return {
            "backend": "disk",
            "directory": self.directory,
            "configurations": self._count,
            "runs": len(self._runs),
            "buffered": len(self._buffer),
            "spill_threshold": self.spill_threshold,
            "bytes_on_disk": sum(
                run.count * RECORD_BYTES for run in self._runs
            ),
        }


class LevelLog(object):
    """Append-only per-level record of adopted frontiers.

    ``append(level, cfgs)`` stages the level's fixed-width records
    (same layout as the visited store) in RAM; every ``flush_every``
    staged levels -- and on :meth:`flush` -- the batch lands in one
    self-describing **segment file** ``seg-<n>.bin`` of
    ``[level:8][count:8][records...]`` entries.  Deep searches log
    thousands of tiny levels; batching them trades one file creation
    per level for one per segment, which is where the disk-store
    overhead used to live.

    The log stays append-only across checkpoint resume: re-adopting a
    restored frontier re-appends that level into a newer segment, and
    ``read(level)`` returns the newest occurrence -- identical bytes,
    since frontiers are deterministic.
    """

    def __init__(self, directory: str, flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.directory = directory
        self.flush_every = flush_every
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory, exist_ok=True)
        self.levels_written = 0
        self._pending: "dict[int, bytes]" = {}
        # level -> (segment path, byte offset of the records, count).
        self._index: "dict[int, tuple]" = {}
        self._segments = 0

    def append(self, level: int, cfgs: Iterable[int]) -> None:
        self._pending[level] = b"".join(
            cfg.to_bytes(RECORD_BYTES, "big") for cfg in cfgs
        )
        self.levels_written += 1
        if len(self._pending) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write all staged levels as one segment file."""
        if not self._pending:
            return
        path = os.path.join(
            self.directory, f"seg-{self._segments:06d}.bin"
        )
        tmp_path = path + ".tmp"
        parts = []
        entries = []
        offset = 0
        for level in sorted(self._pending):
            blob = self._pending[level]
            count = len(blob) // RECORD_BYTES
            parts.append(level.to_bytes(8, "big"))
            parts.append(count.to_bytes(8, "big"))
            parts.append(blob)
            entries.append((level, offset + 16, count))
            offset += 16 + len(blob)
        with open(tmp_path, "wb") as handle:
            handle.write(b"".join(parts))
        os.replace(tmp_path, path)
        for level, start, count in entries:
            self._index[level] = (path, start, count)
        self._segments += 1
        self._pending = {}

    def read(self, level: int) -> List[int]:
        blob = self._pending.get(level)
        if blob is None:
            entry = self._index.get(level)
            if entry is None:
                raise FileNotFoundError(
                    f"level {level} is not in the log under "
                    f"{self.directory}"
                )
            path, start, count = entry
            with open(path, "rb") as handle:
                handle.seek(start)
                blob = handle.read(count * RECORD_BYTES)
        return [
            int.from_bytes(blob[start:start + RECORD_BYTES], "big")
            for start in range(0, len(blob), RECORD_BYTES)
        ]

    def levels(self) -> List[int]:
        return sorted(set(self._index) | set(self._pending))
