"""Put the checkout's own ``src`` first on the import path.

The benchmark must measure the source tree it sits in, never a copy of
``repro`` installed elsewhere, so a ``repro`` from any other place is an
error.  Without ``src`` (a directory holding only the benchmark) the
import fails and the run exits non-zero before printing a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")
