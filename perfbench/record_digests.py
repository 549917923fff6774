"""Record the output digest of every piece of fig3 and the tournament, per program seed.

    python3 perfbench/record_digests.py

Rewrites ``perfbench/digests.json``.  Run it only when a change to the
program is *meant* to change these outputs; the benchmark's correctness
gate compares every run against this file.
"""

from __future__ import annotations

import json

from bootstrap import import_program
from run import DIGESTS
from workloads import DIGEST_SEEDS, Fig3, Tournament


def main() -> None:
    import_program()
    doc = {}
    for cls in (Fig3, Tournament):
        doc[cls.name] = {}
        for seed in range(DIGEST_SEEDS):
            wl = cls(seed)
            doc[cls.name][str(seed)] = {piece: wl.digest(wl.run(piece)) for piece in wl.pieces}
            print(cls.name, seed, doc[cls.name][str(seed)], flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
