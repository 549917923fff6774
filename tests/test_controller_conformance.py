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
  byte-identically on the fast path and under ``REPRO_SIM_SLOWPATH=1``;
* **degraded-input tolerance** — fed through a
  :class:`~repro.control.validity.MeasurementGuard`, a hostile stream
  (NaN / ±inf / negative timeout rates, duplicates, reordering, long
  silences) never crashes the controller or drives its target out of
  ``[0, F_s]``;
* **warm-restore round-trip** — ``snapshot_state`` survives a JSON
  round-trip and a restored fresh instance continues byte-identically
  (controllers returning None must honour the cold-restart contract);
* **bounded targets** — ``initial_target`` and every ``update`` stay
  finite and within ``[0, F_s]`` on a scripted stress sequence.
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
def test_equal_seed_runs_are_byte_identical(name, monkeypatch):
    monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    assert run_qos(name) == run_qos(name)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_cross_kernel_byte_identity(name, monkeypatch):
    monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
    fast = run_qos(name)

    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    slow = run_qos(name)

    assert fast == slow, f"{name}: fast vs REPRO_SIM_SLOWPATH=1 diverge"


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
