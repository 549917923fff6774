"""Canary: numpy's ``Generator`` streams are still the ones we pinned.

Every committed golden, perfbench digest and cost-ledger count depends
on the exact values numpy's ``Generator`` methods return, and NEP 19
does not promise those streams stay the same across numpy versions.
This file pins a few values of one seeded :class:`RngRegistry` stream
for each method ``src/`` calls, in the scalar and block forms it calls
them in.  A numpy that changes a stream fails here, naming the method
and the numpy version, before it fails thirty goldens at once.
Values were recorded with numpy 2.4.6.
"""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry

#: method -> (its draws from a fresh stream, the values they must return)
PINNED = {
    "random": (
        lambda g: [g.random(), g.random(), *g.random(3)],
        [0.6087769372642919, 0.19375623165937927, 0.4466432879225496,
         0.2804477380132979, 0.9173358217724986],
    ),
    "normal": (
        lambda g: [g.normal(), g.normal(0.0, 0.5), *g.normal(0.0, 0.01, 3)],
        [0.5500390560309381, -0.3175386786822773, 0.00279376707297782,
         0.0034453717424828036, -0.0031420310238861344],
    ),
    "lognormal": (
        lambda g: [g.lognormal(mean=-0.5 * 0.06 * 0.06, sigma=0.06),
                   *g.lognormal(-0.5 * 0.25 * 0.25, 0.25, 3)],
        [1.0316942392484805, 0.8269431412532078, 1.039348606300228,
         1.0564183731966412],
    ),
    "standard_exponential": (
        lambda g: [g.standard_exponential(), *g.standard_exponential(4)],
        [1.0321901390696575, 0.43708185137134686, 0.028519140387302404,
         0.5997587284675102, 0.8279726078302022],
    ),
    "uniform": (
        lambda g: [g.uniform(2.0, 10.0), g.uniform(0.01, 0.3),
                   *g.uniform(2.0, 58.0, size=3)],
        [6.8702154981143355, 0.06618930718121999, 27.012024123662776,
         17.70507332874468, 53.37080601925992],
    ),
    "integers": (
        lambda g: [g.integers(0, 4), g.integers(0, 2**16), *g.integers(2, 6, size=3)],
        [0, 39896, 3, 2, 4],
    ),
    "choice": (
        lambda g: [g.choice((0.0, 3.0, 7.0)), g.choice((0.0, 0.0, 3.0, 7.0, 10.0)),
                   *g.choice(5, size=3)],
        [0.0, 7.0, 1, 0, 3],
    ),
}


@pytest.mark.parametrize("method", sorted(PINNED))
def test_generator_stream_is_pinned(method):
    draw, pinned = PINNED[method]
    values = [float(v) for v in draw(RngRegistry(seed=7).stream("canary"))]
    assert values == pinned, (
        f"numpy {np.__version__} changed the Generator.{method} stream: "
        f"got {values}, pinned {pinned}; every golden, perfbench digest "
        "and BENCH_counts.json draw count that uses it will move too"
    )
