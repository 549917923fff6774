"""One set-up sample: import, build the workload, say ``ready``, tear down.

``run.py`` starts this in a fresh interpreter and times from process
start to the ``ready`` line, so ``setup_s`` covers interpreter start,
imports, configuration and (gateway) server start plus client build.

    python3 perfbench/probe.py <workload> <program-seed>
"""

from __future__ import annotations

import asyncio
import sys

from bootstrap import import_program
from workloads import WORKLOADS


def main(name: str, seed: int) -> None:
    import_program()
    workload = WORKLOADS[name](seed)
    if name == "gateway":

        async def serve() -> None:
            await workload.start()
            print("ready", flush=True)
            await workload.stop()

        asyncio.run(serve())
    else:
        print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
