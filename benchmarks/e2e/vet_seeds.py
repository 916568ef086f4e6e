"""Find program seeds on which every seeded workload passes its checks.

::

    python3 -m benchmarks.e2e.vet_seeds $(seq 0 39)

Some of the reproduction's shape checks compare two random runs, so a
few seeds fail them: on seed 1153076014, E6's uniform trickle sends
114 packets against 107 with no trickle, and ``all --fast`` exits 1.
The benchmark therefore never hands its ``--seed`` to the program
directly; it maps it onto ``SEEDS`` in ``workloads.py``, which were
picked from this script's output.  For each seed given it takes one
cold+warm sample of every workload whose commands take a seed, with the
benchmark's own correctness gate, and prints one line per seed: ``ok``
or the failures, and each workload's cold wall time.  The last line
lists the seeds that passed.  Rerun it when a change alters what the
commands compute.
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import tempfile
from typing import List, Optional, Tuple

from benchmarks.e2e.bench import ROOT, SCRATCH, WorkloadRun
from benchmarks.e2e.workloads import WORKLOADS

SEEDED = [w for w in WORKLOADS.values()
          if any("{seed}" in arg for c in w.commands for arg in c.argv)]


def vet(seed: int, scratch: pathlib.Path) -> Tuple[List[str], List[str]]:
    """One sample of each seeded workload at program seed ``seed``:
    ``(failures, cold wall times)``."""
    fields, errors = [], []
    for workload in SEEDED:
        run = WorkloadRun(workload, seed, scratch)
        sample = run.sample()
        fields.append(f"{workload.name}={sum(p.wall for p in sample['cold']):.2f}s")
        errors += run.errors
    return errors, fields


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python3 -m benchmarks.e2e.vet_seeds SEED...", file=sys.stderr)
        return 2
    base = ROOT / SCRATCH
    base.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="vet-", dir=base))
    passed = []
    try:
        for seed in map(int, args):
            errors, fields = vet(seed, scratch)
            print(seed, "ok" if not errors else "FAIL", *fields, flush=True)
            for error in errors:
                print("   ", error, flush=True)
            if not errors:
                passed.append(seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print("passed:", ", ".join(map(str, passed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
