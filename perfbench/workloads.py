"""The benchmark's three workloads, each built from one seed.

Each workload reaches the program only through its public functions
(``run_fig3``, ``run_tournament``, ``InferenceGateway``,
``ResilientSocketRemote``).  Constructing a workload object is its
set-up: imports, configuration and, for the gateway, start-up; the
benchmark times exactly that in fresh interpreters (``probe.py``).

Why these three (see README.md for the full mapping):

* ``fig3`` — the paper's own experiment: few, long DES runs on one
  lossy link, where the kernel and the link serializer do the work;
* ``tournament`` — many short DES runs with faults, fleets, background
  load and controller construction, where runtime assembly matters;
* ``gateway`` — the wall-clock serving path, which never touches the DES.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
from array import array
from time import perf_counter
from typing import Any, List, Optional

#: program seeds with a recorded digest; ``--seed n`` runs seed n % 16
DIGEST_SEEDS = 16


def program_seed(seed: int) -> int:
    return seed % DIGEST_SEEDS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Fig3:
    """``run_fig3(seed, total_frames=4000)``: 4 controllers under Table V."""

    name = "fig3"
    total_frames = 4000
    #: the run is one piece of work
    pieces = ("all",)

    def __init__(self, seed: int) -> None:
        from repro.experiments.fig3 import run_fig3

        self._run_fig3 = run_fig3
        self.seed = seed

    def run(self, piece: str) -> Any:
        return self._run_fig3(self.seed, total_frames=self.total_frames)

    @staticmethod
    def frames(result: Any) -> int:
        """Simulated camera frames the run captured."""
        return sum(run.qos.total_frames for run in result.runs.values())

    @staticmethod
    def digest(result: Any) -> str:
        """Hash of the per-controller QoS and the phase summary."""
        doc = {
            "qos": {name: dataclasses.asdict(run.qos) for name, run in result.runs.items()},
            "phases": [dataclasses.asdict(phase) for phase in result.phases],
        }
        return _sha256(json.dumps(doc, sort_keys=True))


class Tournament:
    """``run_tournament`` over the 6 built-in scenarios, in one process.

    Each scenario is run as a tournament of its own (one piece of work,
    ~1 s): its 11 cells are exactly the cells the full tournament runs
    for it, and the shorter pieces keep a run from overshooting its
    measuring time by a whole 66-cell tournament.
    """

    name = "tournament"

    def __init__(self, seed: int) -> None:
        from repro.experiments import tournament

        self._tournament = tournament
        # workers=1: the library default forks one worker per CPU
        self.configs = {
            scenario: tournament.TournamentConfig(seed=seed, workers=1, scenarios=(scenario,))
            for scenario in sorted(tournament.TournamentConfig(seed=seed).matrix())
        }
        self.pieces = tuple(self.configs)

    def run(self, piece: str) -> Any:
        return self._tournament.run_tournament(self.configs[piece])

    @staticmethod
    def frames(result: Any) -> int:
        """Simulated camera frames over every cell, oracle runs included."""
        return sum(cell.qos["total_frames"] for cell in result.cells) + sum(
            qos["total_frames"] for qos in result.oracle_qos.values()
        )

    def digest(self, result: Any) -> str:
        """Hash of the canonical report bytes."""
        t = self._tournament
        return _sha256(t.dumps_report(t.report_document(result)))


class Gateway:
    """An in-process gateway driven in a closed loop by 2 resilient clients.

    The GPU costs nothing (``base_latency=0, per_item=0``), so a run
    measures the serving code itself: protocol, admission, queue, batch
    loop and the client's resilience stack.  Each client keeps one frame
    in flight on its one connection.  Admission is on, at a tenant rate
    no client can reach, so it is exercised but never denies.
    """

    name = "gateway"
    clients = 2
    #: per-frame budget; the hedge fires at half of it, far above any
    #: loopback round trip or host stall, so no third connection opens
    deadline = 5.0
    tenant_rate = 1e7

    def __init__(self, seed: int) -> None:
        from repro.device.config import DeviceConfig
        from repro.realtime.client import FrameOutcome, ResilientSocketRemote
        from repro.realtime.gateway import GatewayConfig, InferenceGateway

        self._completed = FrameOutcome.COMPLETED
        self._remote_cls = ResilientSocketRemote
        self.gateway = InferenceGateway(
            GatewayConfig(base_latency=0.0, per_item=0.0, tenant_rate=self.tenant_rate)
        )
        self.frame_bytes = DeviceConfig().frame_spec.bytes_on_wire
        self.tenants = [f"dev{seed}-{i}" for i in range(self.clients)]
        self.remotes: List[Any] = []

    async def start(self) -> None:
        await self.gateway.start()
        self.remotes = [
            self._remote_cls(
                self.gateway.address,
                deadline=self.deadline,
                tenant=tenant,
                frame_bytes=self.frame_bytes,
            )
            for tenant in self.tenants
        ]

    async def burst(self, frames_per_client: int, rtts: Optional[array] = None) -> int:
        """Every client submits ``frames_per_client`` frames back to back.

        Returns the number that completed OK; appends each round trip
        (seconds) to ``rtts`` when given.
        """
        completed = self._completed

        async def one_client(remote: Any) -> int:
            ok = 0
            for _ in range(frames_per_client):
                t0 = perf_counter()
                outcome = await remote.submit_frame()
                if rtts is not None:
                    rtts.append(perf_counter() - t0)
                ok += outcome is completed
            return ok

        return sum(await asyncio.gather(*(one_client(r) for r in self.remotes)))

    async def stop(self) -> List[str]:
        """Shut down and return every accounting check that failed."""
        for remote in self.remotes:
            await remote.close()
        await self.gateway.stop()
        stats = self.gateway.stats
        problems = []
        if not all(remote.accounting_closed for remote in self.remotes):
            problems.append("client accounting not closed")
        if not stats.accounting_closed:
            problems.append("gateway accounting not closed")
        if stats.connections != self.clients:
            problems.append(f"gateway saw {stats.connections} connections, not {self.clients}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Fig3, Tournament, Gateway)}
