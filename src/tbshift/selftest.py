"""Deterministic property suites behind the `selftest` CLI command.

Each suite re-derives one pillar of the library from scratch on randomized
but seeded data and reports counts; the CLI turns the reports into JSON.
Byte-identical output across runs is part of the contract.  The
malleability suite runs `algebra.check_malleability` on a mod-q triplet,
the checks the `malleability` command runs on a triplet file, which flow
only at t = 1/2 and t = 1.
"""

from __future__ import annotations

import random
from math import gcd, lcm
from typing import Callable, Dict, List, Optional

from .abelian import AbGroup, AbHom, Character, dual_character
from .algebra import AlgebraElement, check_malleability, flow_order, malleability_unitary
from .classify import PiPhi, build_pi, verify_pi
from .cocycle import (
    BilinearCocycle,
    TableCocycle,
    coboundary_witness,
    cohomologous,
    trivial_cocycle,
)
from .configs import Config, dipole
from .dynamics import (
    Motion,
    Triplet,
    mod_q_group,
    mod_q_triplet,
    motion_mul,
    verify_motion_relations,
    weak_mixing_witness,
)
from .lattice import (
    IDENTITY_MAT,
    AffineSL2,
    LatticePoint,
    det2,
    gcd2,
    mat_apply,
    mat_mul,
)
from .scalars import Cyclotomic, Phase

SEED = 74207281


def random_sl2(rng: random.Random, length: int = 5):
    s = ((0, -1), (1, 0))
    t = ((1, 1), (0, 1))
    t_inv = ((1, -1), (0, 1))
    m = IDENTITY_MAT
    for _ in range(rng.randrange(1, length + 1)):
        m = mat_mul(m, rng.choice((s, t, t_inv)))
    return m


def random_point(rng: random.Random, radius: int = 4) -> LatticePoint:
    return LatticePoint(rng.randint(-radius, radius), rng.randint(-radius, radius))


def random_zero_sum_config(rng: random.Random, group: AbGroup, radius: int = 2) -> Config:
    """One to three distinct random points, each but the last with random
    int coordinates; the last gets minus their sum, so the raw coordinates
    sum to zero.  `Config.from_items` reduces them and drops zero values."""
    points = []
    while len(points) < rng.randrange(1, 4):
        p = random_point(rng, radius)
        if p not in points:
            points.append(p)
    items = []
    last = [0] * group.rank
    for p in points[:-1]:
        coords = [rng.randint(-2, 2) for _ in range(group.free_rank)]
        coords += [rng.randrange(n) for n in group.torsion]
        items.append((p, coords))
        last = [s - c for s, c in zip(last, coords)]
    items.append((points[-1], last))
    return Config.from_items(group, items)


def random_algebra_element(
    rng: random.Random, cocycle, terms: int = 2, radius: int = 2
) -> AlgebraElement:
    """A sum of `terms` random zero-sum configurations, each with the
    coefficient m zeta_12^k (k < 12, 1 <= m <= 3 drawn in that order) as
    one rotation of 1 scaled by an int; a repeated configuration adds up."""
    out: dict = {}
    for _ in range(terms):
        cfg = random_zero_sum_config(rng, cocycle.group, radius)
        coeff = Cyclotomic.ONE.rotated(rng.randrange(12), 12) * rng.randint(1, 3)
        out[cfg] = out[cfg] + coeff if cfg in out else coeff
    return AlgebraElement(cocycle, out)


def suite_detgcd(rng: random.Random) -> dict:
    """SL(2,Z)-invariance of det and gcd, and the mod-2 identity."""
    failures = 0
    for _ in range(200):
        gamma = random_sl2(rng)
        k, k0 = random_point(rng, 8), random_point(rng, 8)
        gk, gk0 = mat_apply(gamma, k), mat_apply(gamma, k0)
        if det2(k, k0) != det2(gk, gk0) or gcd2(k) != gcd2(gk):
            failures += 1
    # gcd2 once per point: each window point k = (q, r) carries gcd2(k) and
    # the index of k in the 25 x 25 table of gcd2 over [-12, 12]^2, which
    # holds every sum k + k0 at the index sum less that of the origin; the
    # pair loop reads det2(k, k0) = q r0 - r q0 on the plain ints
    def index(q, r):
        return (q + 12) * 25 + r + 12

    gcds = [gcd2(LatticePoint(q, r)) for q in range(-12, 13) for r in range(-12, 13)]
    window = [(q, r, gcds[index(q, r)], index(q, r)) for q in range(-6, 7) for r in range(-6, 7)]
    origin = index(0, 0)
    window_failures = 0
    for q, r, gk, ik in window:
        for q0, r0, gk0, ik0 in window:
            if (q * r0 - r * q0 - gk - gk0 + gcds[ik + ik0 - origin]) % 2:
                window_failures += 1
    pairs = len(window) ** 2
    return {
        "ok": failures == 0 and window_failures == 0,
        "invariance_failures": failures,
        "window_pairs": pairs,
        "window_failures": window_failures,
    }


def witness_catalog(rng: random.Random, count: int) -> list:
    """Pairs of cocycles over groups of order <= 16, mixing cohomologous
    (explicit coboundary shifts) and non-cohomologous (distinct bilinear
    classes) cases, in table form.

    The left side is a random bilinear cocycle's `exponent_table`; the
    right one another's (or the same, or the trivial one) plus the
    coboundary b(g) + b(h) - b(g + h) of a random b with values in
    (1/8)Z/Z, b(0) = 0, as ints over m = lcm(8, den) added through the
    group's `addition_table`.
    """
    shapes = [(2, 2), (4,), (3,), (3, 3), (2, 4), (5,), (2, 2, 2), (13,)]
    pairs = []
    while len(pairs) < count:
        group = AbGroup(0, rng.choice(shapes))
        base = _random_bilinear(rng, group)
        pick = rng.randrange(3)
        if pick == 0:
            other = base
        elif pick == 1:
            other = _random_bilinear(rng, group)
        else:
            other = trivial_cocycle(group)
        m = lcm(8, other.den)
        s, c = m // other.den, m // 8
        b = [0] + [c * rng.randrange(8) for _ in range(group.order() - 1)]
        lifted = [[s * t + b_g + b_h - b[gh] for t, b_h, gh in zip(row, b, add_g)]
                  for row, b_g, add_g in zip(other.exponent_table(), b, group.addition_table())]
        pairs.append((_table(group, base.exponent_table(), base.den), _table(group, lifted, m)))
    return pairs


def _table(group: AbGroup, rows: list, den: int) -> TableCocycle:
    """The TableCocycle of the int table rows over den, by the numbers of `coordinates()`."""
    elems = list(group.coordinates())
    return TableCocycle(group, {(g, h): Phase(v, den)
                                for g, row in zip(elems, rows) for h, v in zip(elems, row)})


def _random_bilinear(rng: random.Random, group: AbGroup) -> BilinearCocycle:
    # entry (i, j) is a/g for g = gcd(n_i, n_j) > 1, as a D/g over D = lcm(torsion)
    d, orders = lcm(*group.torsion), group.orders
    rows = []
    for m in orders:
        row = []
        for n in orders:
            g = gcd(m, n)
            row.append(rng.randrange(g) * (d // g) if g > 1 else 0)
        rows.append(tuple(row))
    return BilinearCocycle(group, tuple(rows), d)


def suite_cocycles(rng: random.Random) -> dict:
    """The star-form criterion against the path-recursion coboundary witness."""
    agreements = 0
    checked = 0
    for mu1, mu2 in witness_catalog(rng, 12):
        checked += 1
        fast = cohomologous(mu1, mu2)
        witness = coboundary_witness(mu1, mu2)
        if fast == (witness is not None):
            agreements += 1
    return {"ok": agreements == checked, "pairs": checked, "agreements": agreements}


def suite_actions(rng: random.Random) -> dict:
    """Motion-group associativity and the two composition laws of the action."""
    t = mod_q_triplet(3)
    chars = [dual_character(t.group, i) for i in range(t.group.order())]
    assoc_failures = 0
    for _ in range(100):
        a, b, c = (
            Motion(rng.choice(chars), AffineSL2(random_point(rng), random_sl2(rng)))
            for _ in range(3)
        )
        if motion_mul(t, motion_mul(t, a, b), c) != motion_mul(t, a, motion_mul(t, b, c)):
            assoc_failures += 1
    # one sample in five is a unit at one site with a nonzero value: rho(c)
    # multiplies by c of the total content, which is 0 on the others
    nonzero = list(t.group.coordinates())[1:]
    samples = []
    for i in range(50):
        if i % 5 == 4:
            site = (random_point(rng, 2), rng.choice(nonzero))
            x = AlgebraElement.unit(t.cocycle, Config(t.group, (site,)))
        else:
            x = random_algebra_element(rng, t.cocycle)
        samples.append((random_point(rng), random_point(rng), random_sl2(rng), x))
    relation = verify_motion_relations(t, samples)
    return {
        "ok": assoc_failures == 0 and relation.ok,
        "associativity_failures": assoc_failures,
        "relation_failures": len(relation.failures),
    }


def suite_intertwiner(rng: random.Random) -> dict:
    """The explicit intertwiner passes its checks; corrupting the gcd weight breaks it."""
    t = mod_q_triplet(3)
    phi = AbHom(t.group, t.group, ((1, 0), (1, 1)))
    pi = build_pi(t, t, phi)
    pairs = [
        (random_algebra_element(rng, t.cocycle), random_algebra_element(rng, t.cocycle))
        for _ in range(25)
    ]
    good = verify_pi(pi, pairs)

    # weight sensitivity needs a character mismatch of order two, which a
    # group of odd exponent cannot carry; use the lattice with a half shift
    lat = AbGroup(2)
    ta = Triplet(lat, trivial_cocycle(lat), Character.trivial(lat))
    tb = Triplet(lat, trivial_cocycle(lat), Character(lat, (1, 0), 2))
    pi2 = build_pi(ta, tb, AbHom.identity(lat))
    mutated = PiPhi(pi2.ta, pi2.tb, pi2.phi, weight=lambda k: 1)
    probes = [
        (AlgebraElement.unit(ta.cocycle, dipole(lat, (1, 0))),
         AlgebraElement.unit(ta.cocycle, dipole(lat, (0, 1)))),
        (random_algebra_element(rng, ta.cocycle), random_algebra_element(rng, ta.cocycle)),
    ]
    clean = verify_pi(pi2, probes)
    broken = verify_pi(mutated, probes)
    return {
        "ok": good.ok and clean.ok and not broken.ok,
        "verify_failures": len(good.failures),
        "mutation_detected": not broken.ok,
    }


def suite_malleability(rng: random.Random, q: int) -> dict:
    """The swap unitary and the flow at t = 1/2 and t = 1 on the tensor square."""
    checks = check_malleability(malleability_unitary(mod_q_triplet(q).cocycle), rng, 5)
    return {"ok": all(checks.values()), **checks}


def suite_weakmixing(rng: random.Random) -> dict:
    """Exact trace factorization under a large enough shift."""
    t = mod_q_triplet(3)
    found = 0
    for _ in range(8):
        elems = [random_algebra_element(rng, t.cocycle) for _ in range(rng.randrange(1, 4))]
        k = weak_mixing_witness(t, elems)
        if k is not None:
            found += 1
    return {"ok": found == 8, "witnesses": found}


SUITES: Dict[str, Callable] = {
    "detgcd": suite_detgcd,
    "cocycles": suite_cocycles,
    "actions": suite_actions,
    "intertwiner": suite_intertwiner,
    "malleability": suite_malleability,
    "weakmixing": suite_weakmixing,
}


def run_suites(names: Optional[List[str]], q: int) -> dict:
    chosen = names or sorted(SUITES)
    if "malleability" in chosen:
        # refused before any suite runs: a q such as 1 or 0 names no
        # group, and the flow refuses |H| = q^2 above its bound
        flow_order(mod_q_group(q))
    report = {}
    for name in chosen:
        rng = random.Random(SEED + sum(ord(c) for c in name))
        if name == "malleability":
            report[name] = SUITES[name](rng, q)
        else:
            report[name] = SUITES[name](rng)
    report_ok = all(entry["ok"] for entry in report.values())
    return {"ok": report_ok, "suites": report}
