"""Controller conformance battery (ISSUE 10 tentpole).

Every member of the controller zoo registry
(:func:`repro.control.zoo.zoo_entries`) must pass the same contract,
so the zoo stays honest as it grows:

* **registry** — the zoo name resolves in
  :func:`repro.experiments.standard.extended_controllers` and the
  factory builds a :class:`~repro.control.base.Controller`;
* **determinism** — two runs of the conformance scenario at the same
  seed serialize to byte-identical QoS;
* **cross-kernel byte-identity** — the conformance scenario replays
  byte-identically on the kernel's fast timer path and on its slow,
  accounted one (EnvStats on);
* **degraded-input tolerance** — fed through a
  :class:`~repro.control.validity.MeasurementGuard`, a hostile stream
  (NaN / ±inf / negative timeout rates, duplicates, reordering, long
  silences) never crashes the controller or drives its target out of
  ``[0, F_s]``;
* **warm-restore round-trip** — ``snapshot_state`` survives a JSON
  round-trip and a restored fresh instance continues byte-identically
  (controllers returning None must honour the cold-restart contract);
* **bounded targets** — ``initial_target`` and every ``update`` stay
  finite and within ``[0, F_s]`` on a scripted stress sequence;
* **both clocks** — driven by the asyncio device loop against a healthy
  fake remote, each controller is given the same populated
  ``Measurement`` fields as in the simulated conformance run, and an
  asyncio breaker trips and re-closes through its trial.
"""

import json
import math

import pytest

from repro.control.base import Controller, Measurement
from repro.control.validity import MeasurementGuard
from repro.control.zoo import zoo_entries
from repro.device.config import DeviceConfig
from repro.experiments.standard import extended_controllers
from repro.experiments.tournament import builtin_scenarios
from repro.search.runner import qos_summary, run_spec
from repro.sim import core as sim_core

FS = 30.0
CONFIG = DeviceConfig(total_frames=300)

ZOO = {entry.name: entry for entry in zoo_entries()}

#: the conformance scenario: short, lossy in every phase
CONFORMANCE_SPEC = builtin_scenarios(frames=300, seed=7)["lossy_link"]


def build(name: str) -> Controller:
    controller = ZOO[name].factory(CONFIG)
    assert isinstance(controller, Controller)
    return controller


def run_qos(name: str) -> str:
    result = run_spec(CONFORMANCE_SPEC, controller=name)
    return json.dumps(qos_summary(result.run.qos), sort_keys=True)


def drive(controller: Controller, rows, t0: float = 0.0):
    """Feed (timeout_rate, offload_rate) rows; return the target trace."""
    target = controller.initial_target(FS)
    out = [target]
    for i, (t_rate, o_rate) in enumerate(rows):
        m = Measurement(
            time=t0 + float(i + 1),
            frame_rate=FS,
            offload_target=target,
            offload_rate=o_rate,
            offload_success_rate=max(0.0, o_rate - max(t_rate, 0.0))
            if math.isfinite(t_rate) else 0.0,
            timeout_rate=t_rate,
            timeout_rate_last=t_rate,
            local_rate=13.0,
            throughput=13.0,
        )
        target = controller.update(m)
        out.append(target)
    return out


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_zoo_names_resolve_in_extended_registry():
    registry = extended_controllers()
    missing = [name for name in ZOO if name not in registry]
    assert not missing, f"zoo members missing from extended_controllers: {missing}"


def test_zoo_entries_carry_report_metadata():
    for entry in ZOO.values():
        for field in ("policy", "state", "citation"):
            value = getattr(entry, field)
            assert isinstance(value, str) and value.strip(), (
                f"{entry.name}: empty {field!r} (docs/controllers.md "
                "renders this table)"
            )


@pytest.mark.parametrize("name", sorted(ZOO))
def test_factory_builds_fresh_instances(name):
    a, b = build(name), build(name)
    assert a is not b
    assert 0.0 <= a.initial_target(FS) <= FS


# ----------------------------------------------------------------------
# determinism and cross-kernel byte-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ZOO))
def test_equal_seed_runs_are_byte_identical(name):
    assert run_qos(name) == run_qos(name)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_cross_kernel_byte_identity(name, monkeypatch):
    fast = run_qos(name)

    # every Environment gets EnvStats: timers take the accounted path
    monkeypatch.setattr(sim_core, "_stats_sink", [])
    slow = run_qos(name)

    assert fast == slow, f"{name}: fast vs accounted timer path diverge"


# ----------------------------------------------------------------------
# degraded-input tolerance (through the guard, plus what it repairs)
# ----------------------------------------------------------------------
NASTY_ROWS = [
    (float("nan"), 12.0),
    (float("inf"), 12.0),
    (float("-inf"), 0.0),
    (-5.0, 12.0),
    (1e308, 30.0),
    (7.0, 0.0),
    (0.0, 30.0),
]


@pytest.mark.parametrize("name", sorted(ZOO))
def test_guarded_degraded_stream_keeps_targets_bounded(name):
    controller = build(name)
    guard = MeasurementGuard(frame_rate=FS)
    target = controller.initial_target(FS)
    # duplicate + out-of-order timestamps interleaved with long silences
    times = [1.0, 1.0, 0.5, 2.0, 9.0, 9.5, 30.0]
    for t, (t_rate, o_rate) in zip(times, NASTY_ROWS):
        decision = guard.admit(
            Measurement(
                time=t,
                frame_rate=FS,
                offload_target=target,
                offload_rate=o_rate,
                offload_success_rate=0.0,
                timeout_rate=t_rate,
                timeout_rate_last=t_rate,
                local_rate=13.0,
                throughput=13.0,
            )
        )
        if not decision.admitted:
            continue
        target = controller.update(decision.measurement)
        assert math.isfinite(target), f"{name}: non-finite target"
        assert 0.0 <= target <= FS + 1e-9, f"{name}: target {target} out of range"


@pytest.mark.parametrize("name", sorted(ZOO))
def test_unguarded_nasty_values_keep_targets_bounded(name):
    """Even without the guard, raw NaN/inf input must not crash."""
    for target in drive(build(name), NASTY_ROWS):
        assert math.isfinite(target)
        assert 0.0 <= target <= FS + 1e-9


# ----------------------------------------------------------------------
# warm-restore round-trip (supervision checkpoint contract)
# ----------------------------------------------------------------------
WARMUP_ROWS = [(0.0, 12.0), (2.0, 12.0), (5.0, 8.0), (0.0, 10.0)]
CONTINUE_ROWS = [(1.0, 11.0), (0.0, 14.0), (3.0, 9.0), (0.0, 12.0)]


@pytest.mark.parametrize("name", sorted(ZOO))
def test_warm_restore_round_trip(name):
    original = build(name)
    drive(original, WARMUP_ROWS)
    state = original.snapshot_state()

    if state is None:
        # cold-restart contract: restore_state must refuse, reset works
        with pytest.raises(NotImplementedError):
            build(name).restore_state({})
        original.reset()
        return

    # the checkpoint store writes JSON; state must survive the trip
    revived = json.loads(json.dumps(state))
    assert revived == state

    restored = build(name)
    restored.reset()
    restored.restore_state(revived)
    assert restored.snapshot_state() == state

    t0 = float(len(WARMUP_ROWS))
    a = drive(original, CONTINUE_ROWS, t0=t0)[1:]
    b = drive(restored, CONTINUE_ROWS, t0=t0)[1:]
    assert a == b, f"{name}: restored instance diverges after warm restart"


@pytest.mark.parametrize("name", sorted(ZOO))
def test_reset_restores_initial_decisions(name):
    controller = build(name)
    first = drive(controller, WARMUP_ROWS)
    controller.reset()
    second = drive(controller, WARMUP_ROWS)
    assert first == second


# ----------------------------------------------------------------------
# bounded-target invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ZOO))
def test_targets_stay_bounded_under_stress(name):
    controller = build(name)
    rows = [
        (0.0, 0.0), (30.0, 30.0), (0.0, 30.0), (30.0, 0.0),
        (15.0, 15.0), (0.0, 0.0), (29.9, 0.1), (0.1, 29.9),
    ] * 4
    for target in drive(controller, rows):
        assert math.isfinite(target)
        assert 0.0 <= target <= FS + 1e-9


# ----------------------------------------------------------------------
# the same measurements on asyncio (the wall-clock driver of the core)
# ----------------------------------------------------------------------
class MeasurementLog:
    """Forwards to a controller, keeping every measurement it is given."""

    def __init__(self, inner: Controller) -> None:
        self.inner = inner
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def update(self, measurement: Measurement) -> float:
        self.seen.append(measurement)
        return self.inner.update(measurement)


def populated(measurements) -> set:
    """Names of the fields that are not None in at least one of them."""
    return {
        name for m in measurements for name, value in m.items() if value is not None
    }


def test_zoo_on_asyncio_gets_the_des_measurement_fields():
    import asyncio
    import dataclasses

    from repro.realtime.aio import AsyncFakeRemote, AsyncRealTimeLoop, RemoteConditions

    def healthy_remote():
        remote = AsyncFakeRemote(seed=0)
        remote.conditions = RemoteConditions(latency=0.02, jitter=0.0)
        return remote

    logs = {name: MeasurementLog(build(name)) for name in sorted(ZOO)}
    loops = [
        AsyncRealTimeLoop(log, healthy_remote(), measure_period=0.1, local_latency=0.02)
        for log in logs.values()
    ]

    async def run_all():
        return await asyncio.gather(*(loop.run(duration=0.6) for loop in loops))

    traces = dict(zip(logs, asyncio.run(run_all())))
    assert traces["AllOrNothing"].offload_target.values[-1] == FS
    assert any(m.rtt_p95 is not None for m in logs["Headroom"].seen)
    for name, log in logs.items():
        des = run_spec(CONFORMANCE_SPEC, controller=name).transcript["steps"]
        expected = populated(step["measurement"] for step in des)
        got = populated(dataclasses.asdict(m) for m in log.seen)
        assert got == expected, f"{name}: asyncio populates {sorted(got ^ expected)} differently"


def test_asyncio_breaker_trips_then_recloses_through_its_trial():
    """The core routes every frame local while the breaker is open; the
    trial the remote sends after its backoff must still go out."""
    _breaker_recloses_on_asyncio(close_after=1)


def test_asyncio_breaker_keeps_trialling_while_half_open():
    """With ``close_after=2`` the first good trial leaves the breaker
    half-open, and the loop must hand the remote the second one."""
    _breaker_recloses_on_asyncio(close_after=2)


def _breaker_recloses_on_asyncio(close_after):
    import asyncio

    from repro.metrics.taxonomy import FailureKind
    from repro.realtime.aio import AsyncRealTimeLoop
    from repro.realtime.client import FrameOutcome, ResilientSocketRemote
    from repro.resilience.config import ResilienceConfig

    class ScriptedRemote(ResilientSocketRemote):
        """A real resilience layer; every copy times out until ``heal_at``."""

        heal_at = 0.0

        async def _attempt(self, loop, now, probe=False):
            await asyncio.sleep(0.01)
            now = loop.time()
            if now < self.heal_at:
                return FrameOutcome.TIMEOUT, FailureKind.SILENT_TIMEOUT, None, now
            return FrameOutcome.COMPLETED, None, None, now

    config = ResilienceConfig(
        trip_threshold=2, close_after=close_after, backoff_initial=0.05, backoff_max=0.1
    )

    async def scenario():
        remote = ScriptedRemote(("127.0.0.1", 9), deadline=0.05, config=config)
        remote.heal_at = asyncio.get_running_loop().time() + 0.3
        loop = AsyncRealTimeLoop(build("AlwaysOffload"), remote, measure_period=0.1)
        traces = await loop.run(duration=0.8)
        await remote.close()
        return remote, traces

    remote, traces = asyncio.run(scenario())
    breaker = remote.breaker
    assert breaker.opened_count == 1
    assert len(breaker.probe_times) >= close_after, "too few trials went out"
    assert breaker.is_closed
    states = traces.breaker_state.values
    assert states.max() > 0.0 and states[-1] == 0.0
    # parked at the standing probe while open, back at F_s once closed
    assert traces.offload_target.values.min() == pytest.approx(
        config.open_target_frac * FS
    )
    assert traces.offload_target.values[-1] == FS
    assert traces.offload_success.values[-1] > 0
    assert remote.accounting_closed
