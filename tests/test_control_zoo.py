"""The rate-limited MDP's offline solve: exact tables and a safe memo.

:class:`~repro.control.zoo.RateLimitedMDPController` plans by value
iteration in :func:`repro.control.zoo._solve_policy`, which precomputes
the transition table once and is memoized per parameter set.  These
tests pin that the policy table is *bit-identical* (values, signs of
zero and element types) to the straightforward solver below, which
re-derives every transition on every sweep, and that the memo can never
hand one caller's table to another with different parameters or types.
"""

import math

import pytest

from repro.control.zoo import RateLimitedMDPController, _solve_policy


# ----------------------------------------------------------------------
# reference: the original, uncached per-instance solver
# ----------------------------------------------------------------------
def reference_policy(ctrl):
    """Value-iterate ``ctrl``'s model the original way; list of lists."""

    def level(tokens):
        frac = min(max(tokens / ctrl.burst, 0.0), 1.0)
        return int(round(frac * (ctrl.bucket_levels - 1)))

    def p_ok_of(staleness):
        frac = staleness / (ctrl.staleness_levels - 1)
        return 1.0 - (1.0 - ctrl.p_floor) * frac

    def step_model(tokens, staleness, rate):
        dt = ctrl.period
        available = tokens + ctrl.fill_rate * dt
        paid = min(rate * dt, available)
        overdraft = max(rate * dt - available, 0.0)
        stale_frac = staleness / (ctrl.staleness_levels - 1)
        p_ok = p_ok_of(staleness)
        reward = (
            paid * (p_ok - ctrl.fail_cost * (1.0 - p_ok))
            - ctrl.overdraft_penalty * overdraft
            - ctrl.staleness_cost * ctrl.fill_rate * dt * stale_frac
        )
        next_tokens = min(max(available - paid, 0.0), ctrl.burst)
        staler = min(staleness + 1, ctrl.staleness_levels - 1)
        if paid >= ctrl.stale_reset_rate * dt:
            branches = [(p_ok, 0), (1.0 - p_ok, staler)]
        else:
            branches = [(1.0, staler)]
        return reward, next_tokens, branches

    nb, ns = ctrl.bucket_levels, ctrl.staleness_levels
    levels = [ctrl.burst * i / (nb - 1) for i in range(nb)]
    actions = [f * ctrl.fill_rate for f in ctrl.action_fracs]
    table = [
        [[step_model(levels[i], j, a) for a in actions] for j in range(ns)]
        for i in range(nb)
    ]

    def q_value(entry, value):
        reward, nt, branches = entry
        ni = level(nt)
        future = sum(p * value[ni][nj] for p, nj in branches if p > 0.0)
        return reward + ctrl.discount * future

    value = [[0.0] * ns for _ in range(nb)]
    for _ in range(500):
        delta = 0.0
        for i in range(nb):
            for j in range(ns):
                best = max(q_value(entry, value) for entry in table[i][j])
                delta = max(delta, abs(best - value[i][j]))
                value[i][j] = best
        if delta < 1e-10:
            break

    policy = [[0.0] * ns for _ in range(nb)]
    for i in range(nb):
        for j in range(ns):
            best_q, best_a = -math.inf, 0.0
            for k, entry in enumerate(table[i][j]):
                q = q_value(entry, value)
                if q > best_q + 1e-12:
                    best_q, best_a = q, actions[k]
            policy[i][j] = best_a
    return policy


def exact(table):
    """``repr`` pins values, signs of zero and ``int`` vs ``float``."""
    return repr([list(row) for row in table])


# ----------------------------------------------------------------------
# bit-identical tables over a parameter grid
# ----------------------------------------------------------------------
#: a smaller model for the parameter variations (the level counts get
#: their own rows), so the reference solver stays cheap
SMALL = {"bucket_levels": 5, "staleness_levels": 4}

GRID = [
    (10.0, {}),
    (15.0, {}),
    (25.0, {}),
    (30.0, {}),
    (60.0, {}),
    (30.0, {"bucket_levels": 2, "staleness_levels": 2}),
    (30.0, {"bucket_levels": 3, "staleness_levels": 7}),
    (30.0, {"bucket_levels": 12, "staleness_levels": 3}),
    (30.0, {**SMALL, "action_fracs": (0.0, 1.0)}),
    (30.0, {**SMALL, "action_fracs": (0.1, 0.3, 0.7, 1.1, 2.5, 3.0, 4.0)}),
    (30.0, {**SMALL, "action_fracs": (2.0, 1.0, 0.0)}),
    # near-ties: the 1e-12 rule keeps the first of two almost-equal Qs
    (30.0, {**SMALL, "action_fracs": (0.0, 0.5, 0.5 + 1e-14, 1.0, 1.0 + 1e-14)}),
    (30.0, {**SMALL, "discount": 0.5}),
    (30.0, {**SMALL, "discount": 0.97}),
    (30.0, {**SMALL, "p_floor": 1.0}),
    (30.0, {**SMALL, "p_floor": 0.05}),
    (30.0, {**SMALL, "stale_reset_rate": 0.0}),
    (30.0, {**SMALL, "stale_reset_rate": 9.0}),
    (30.0, {**SMALL, "overdraft_penalty": math.inf}),
    # every Q is -inf or NaN: no action wins, the rate falls back to 0.0
    (30.0, {**SMALL, "staleness_cost": math.inf, "action_fracs": (0.5, 1.0)}),
]


@pytest.mark.parametrize(
    "frame_rate,params", GRID, ids=[f"{fr}-{sorted(p.items())}" for fr, p in GRID]
)
def test_policy_table_matches_reference_exactly(frame_rate, params):
    ctrl = RateLimitedMDPController(frame_rate, **params)
    assert exact(ctrl._policy) == exact(reference_policy(ctrl))


def test_default_policy_spends_fresh_and_probes_stale():
    policy = RateLimitedMDPController(30.0)._policy
    full, fresh, stalest = len(policy) - 1, 0, len(policy[0]) - 1
    assert policy[full][fresh] > policy[full][stalest] > 0.0


# ----------------------------------------------------------------------
# the memo is safe to share
# ----------------------------------------------------------------------
def test_equal_parameters_solve_once():
    before = _solve_policy.cache_info()
    first = RateLimitedMDPController(17.25, discount=0.875)
    middle = _solve_policy.cache_info()
    second = RateLimitedMDPController(17.25, discount=0.875)
    after = _solve_policy.cache_info()
    assert middle.misses == before.misses + 1
    assert (after.misses, after.hits) == (middle.misses, middle.hits + 1)
    assert first._policy == second._policy


def test_tables_are_immutable_tuples():
    a = RateLimitedMDPController(30.0)
    b = RateLimitedMDPController(30.0)
    assert isinstance(a._policy, tuple)
    assert all(isinstance(row, tuple) for row in a._policy)
    with pytest.raises(TypeError):
        a._policy[0][0] = 99.0
    with pytest.raises(TypeError):
        a._policy[0] = (99.0,)
    assert a._policy == b._policy == RateLimitedMDPController(30.0)._policy


def test_shared_solve_is_immutable():
    ctrl = RateLimitedMDPController(30.0)
    args = (
        ctrl.fill_rate, ctrl.burst, ctrl.bucket_levels, ctrl.staleness_levels,
        ctrl.action_fracs, ctrl.overdraft_penalty, ctrl.staleness_cost,
        ctrl.fail_cost, ctrl.p_floor, ctrl.stale_reset_rate, ctrl.discount,
        ctrl.period,
    )
    shared = _solve_policy(*args)
    assert shared is _solve_policy(*args)
    assert isinstance(shared, tuple)
    assert all(isinstance(row, tuple) for row in shared)


INVALID = [
    (0.0, {}),
    (-30.0, {}),
    (30.0, {"fill_rate": 0.0}),
    (30.0, {"burst": -1.0}),
    (30.0, {"bucket_levels": 1}),
    (30.0, {"staleness_levels": 1}),
    (30.0, {"action_fracs": ()}),
    (30.0, {"action_fracs": (0.0, -0.5)}),
    (30.0, {"discount": 1.0}),
    (30.0, {"discount": 0.0}),
    (30.0, {"period": 0.0}),
    (30.0, {"p_floor": 0.0}),
    (30.0, {"p_floor": 1.5}),
]


@pytest.mark.parametrize("frame_rate,params", INVALID)
def test_invalid_parameters_raise_on_every_call(frame_rate, params):
    before = _solve_policy.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError):
            RateLimitedMDPController(frame_rate, **params)
    # validation runs before the lookup: nothing was solved or cached
    assert _solve_policy.cache_info() == before


#: pairs whose parameters compare equal but whose types differ
TYPE_TWINS = [
    ((30, {}), (30.0, {})),
    ((30.0, {**SMALL, "fill_rate": 12}), (30.0, {**SMALL, "fill_rate": 12.0})),
    (
        (24.0, {**SMALL, "fill_rate": 12, "burst": 30, "action_fracs": (0, 1, 2)}),
        (24.0, {**SMALL, "fill_rate": 12.0, "burst": 30.0,
                "action_fracs": (0.0, 1.0, 2.0)}),
    ),
    (
        (30.0, {**SMALL, "action_fracs": (0, 1, 2)}),
        (30.0, {**SMALL, "action_fracs": (0.0, 1.0, 2.0)}),
    ),
    (
        (30.0, {**SMALL, "action_fracs": (-0.0, 0.5, 1.0)}),
        (30.0, {**SMALL, "action_fracs": (0.0, 0.5, 1.0)}),
    ),
]


@pytest.mark.parametrize("first,second", TYPE_TWINS)
@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
def test_equal_but_differently_typed_calls_never_share_a_table(first, second, swap):
    if swap:
        first, second = second, first
    _solve_policy.cache_clear()
    for frame_rate, params in (first, second):
        ctrl = RateLimitedMDPController(frame_rate, **params)
        assert exact(ctrl._policy) == exact(reference_policy(ctrl))
