#!/usr/bin/env python
"""Replay fig3 and the tournament at every recorded seed; compare digests.

    python tools/check_digests.py

``perfbench/digests.json`` holds the output digest of every piece of the
``fig3`` and ``tournament`` workloads at program seeds 0-15.  The
benchmark's own runs check the seeds they happen to run; this script runs
all of them, one after the other in this process, and prints one line per
workload and seed.  It imports perfbench's workload classes and reads the
digest file, and writes neither.  Exit code 1 when any digest differs.

About a minute on a 2-vCPU host (each tournament seed is 66 cells).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from bootstrap import import_program  # noqa: E402
from workloads import DIGEST_SEEDS, Fig3, Tournament  # noqa: E402


def main() -> int:
    import_program()
    with open(PERFBENCH / "digests.json") as fh:
        recorded = json.load(fh)
    failures = 0
    for cls in (Fig3, Tournament):
        for seed in range(DIGEST_SEEDS):
            expected = recorded[cls.name][str(seed)]
            wl = cls(seed)
            bad = [p for p in wl.pieces if wl.digest(wl.run(p)) != expected.get(p)]
            failures += len(bad)
            status = "ok" if not bad else "MISMATCH " + " ".join(bad)
            print(f"{cls.name} seed {seed}: {status}", flush=True)
    print(f"{failures} piece(s) differ" if failures else "every digest matches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
