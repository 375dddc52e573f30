"""The three workloads: which ops each runs, and how many.

A plan lists (count, builder) slots for a run of REFERENCE_SECONDS; a run
of another length scales every count.  The counts are fixed, so a run's
op mix and op count depend only on its length, and the seed only picks
the data inside each op.  Counts were chosen so that the median and the
tail percentile fall inside a block of ops of one shape, not on the edge
between two shapes of very different cost, which keeps both steady from
seed to seed.
"""

from __future__ import annotations

import random
from functools import partial as p

from . import gen

REFERENCE_SECONDS = 25

FLOW = [
    # below the median block
    (8, p(gen.flow_op, shape="z2sq", samples=1)),
    (8, p(gen.flow_op, shape="z2sq", samples=2)),
    (6, p(gen.flow_op, shape="z2sq", samples=3)),
    (6, p(gen.flow_op, shape="z2sq", samples=4)),
    # the median block
    (16, p(gen.flow_op, shape="z3sq", samples=1)),
    (5, p(gen.flow_op, shape="z3sq", samples=2)),
    (4, p(gen.flow_op, shape="z3sq", samples=4)),
    # the tail block, then one |H| = 25 flow above it
    (8, p(gen.flow_op, shape="z4sq", samples=1)),
    (8, p(gen.flow_op, shape="z2p4", samples=1)),
    (1, p(gen.flow_op, shape="z5sq", samples=1)),
]

SEARCH = [
    # below the median block
    (1, p(gen.conj_no_group, n=3, r=2)),
    (1, p(gen.conj_no_group, n=4, r=2)),
    (1, p(gen.conj_no_group, n=5, r=2)),
    (4, p(gen.conj_yes, n=2, r=2, twist=True)),
    (4, p(gen.conj_no_kernel, n=2, r=2)),
    (4, p(gen.conj_yes, n=3, r=2, twist=False)),
    (4, p(gen.conj_yes, n=3, r=2, twist=True)),
    (4, p(gen.conj_no_chi, n=3, r=2)),
    (4, p(gen.conj_no_kernel, n=3, r=2)),
    (2, p(gen.conj_lattice, bound=2, yes=True)),
    (3, p(gen.conj_lattice, bound=2, yes=False)),
    (4, p(gen.conj_yes, n=4, r=2, twist=False)),
    (4, p(gen.conj_yes, n=4, r=2, twist=True)),
    (2, p(gen.conj_lattice, bound=3, yes=True)),
    # the median block: (Z/4)^2 NO pairs run the full isomorphism search
    (10, p(gen.conj_no_chi, n=4, r=2)),
    (10, p(gen.conj_no_kernel, n=4, r=2)),
    # above it
    (5, p(gen.conj_lattice, bound=3, yes=False)),
    (5, p(gen.conj_yes, n=2, r=3, twist=True)),
    (5, p(gen.conj_no_kernel, n=2, r=3)),
    (5, p(gen.conj_yes, n=5, r=2, twist=True)),
    (2, p(gen.conj_yes, n=6, r=2, twist=True)),
    # the tail block: (Z/5)^2 and (Z/6)^2 NO pairs, then one (Z/7)^2 NO
    (8, p(gen.conj_no_chi, n=5, r=2)),
    (8, p(gen.conj_no_kernel, n=5, r=2)),
    (1, p(gen.conj_no_chi, n=6, r=2)),
    (1, p(gen.conj_no_kernel, n=6, r=2)),
    (1, p(gen.conj_no_kernel, n=7, r=2)),
]


def _api(builder):
    """API builders take no triplet list: their data travels in op.args."""
    return lambda rng, trips: builder(rng)


SHIFT = [
    # the median falls among these cheap queries
    (78, p(gen.validate_op, valid=True)),
    (18, p(gen.validate_op, valid=False)),
    (105, gen.factor_op),
    (105, gen.bicharacter_op),
    (12, p(gen.centralizer_finite, n=3)),
    (12, p(gen.centralizer_finite, n=4)),
    (12, p(gen.centralizer_finite, n=5)),
    (12, p(gen.centralizer_finite, n=6)),
    (12, p(gen.centralizer_finite, n=7)),
    (9, p(gen.centralizer_product, p=2, q=3)),
    (9, p(gen.centralizer_product, p=3, q=5)),
    (6, p(gen.centralizer_product, p=2, q=5)),
    (9, p(gen.centralizer_bounded, tors=(), bound=2)),
    (6, p(gen.centralizer_bounded, tors=(2,), bound=1)),
    (6, lambda rng, trips: gen.selftest_op("actions")),
    (9, lambda rng, trips: gen.selftest_op("cocycles")),
    (9, lambda rng, trips: gen.selftest_op("detgcd")),
    (9, lambda rng, trips: gen.selftest_op("weakmixing")),
    (8, _api(p(gen.pi_op, n=3, pairs=8))),
    (12, _api(p(gen.motion_op, n=3, samples=10))),
    (6, _api(p(gen.cohom_op, orders=(5, 5), same=True))),
    (9, _api(p(gen.cohom_op, orders=(3, 3), same=False))),
    (9, _api(p(gen.cohom_op, orders=(2, 2, 2), same=True))),
    (12, _api(p(gen.mixing_op, n=3, count=3))),
    # the tail block: the intertwiner suite has a fixed cost
    (14, lambda rng, trips: gen.selftest_op("intertwiner")),
]

WORKLOADS = {"flow": FLOW, "search": SEARCH, "shift": SHIFT}


def build(workload: str, seed: int, seconds: int) -> tuple:
    """(ops, trips): the op list of one run and the triplets its files hold."""
    rng = random.Random(f"{workload}:{seed}")
    scale = seconds / REFERENCE_SECONDS
    slots = []
    for count, builder in WORKLOADS[workload]:
        slots.extend([builder] * max(1, round(count * scale)))
    rng.shuffle(slots)
    trips = []
    ops = [builder(rng, trips) for builder in slots]
    return ops, trips
