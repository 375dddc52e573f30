"""Seeded benchmark inputs whose answers are known by construction.

Nothing here imports ``tbshift``.  Every triplet is built from integer
data (generator orders, exponent matrices, character phases), and every
expected answer follows from how the pair or triplet was built:

* a pullback through an integer matrix that is invertible mod n is
  conjugate to its source, with that matrix as a witness;
* adding a symmetric matrix to the cocycle, or an order-2 character to
  the character, changes neither the star form nor chi^2;
* a pair that differs in an isomorphism invariant (the group, the order
  of chi^2, the size of the star kernel) is not conjugate;
* a coboundary shift of a table cocycle is cohomologous to it.

Where an expected answer is a count (centralizer orders, kernel sizes),
``oracle`` computes it by brute force with its own integer arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import oracle


def phase_str(x: Fraction) -> str:
    x = Fraction(x) % 1
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Trip:
    """A triplet as plain data: free rank, torsion orders, B and chi mod 1."""

    free: int
    tors: tuple
    B: tuple  # rank x rank Fractions in [0, 1)
    chi: tuple  # rank Fractions in [0, 1)

    @property
    def rank(self) -> int:
        return self.free + len(self.tors)

    @property
    def orders(self) -> tuple:
        """Order of each generator, 0 for a free one."""
        return (0,) * self.free + tuple(self.tors)

    def to_json(self) -> dict:
        return {
            "group": {"free_rank": self.free, "torsion": list(self.tors)},
            "cocycle": {
                "kind": "bichar",
                "matrix": [[phase_str(x) for x in row] for row in self.B],
            },
            "character": {"phases": [phase_str(x) for x in self.chi]},
        }


def _mod1_matrix(rows) -> tuple:
    return tuple(tuple(Fraction(x) % 1 for x in row) for row in rows)


def entry_modulus(orders: tuple, i: int, j: int, free_den: int) -> int:
    """Denominator that keeps B_ij killed by both generator orders."""
    a, b = orders[i], orders[j]
    if a and b:
        return gcd(a, b)
    return a or b or free_den


def random_matrix(rng: random.Random, orders: tuple, free_den: int = 16) -> tuple:
    r = len(orders)
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            m = entry_modulus(orders, i, j, free_den)
            row.append(Fraction(rng.randrange(m), m))
        rows.append(row)
    return _mod1_matrix(rows)


def random_symmetric(rng: random.Random, orders: tuple, free_den: int = 16) -> tuple:
    r = len(orders)
    rows = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            m = entry_modulus(orders, i, j, free_den)
            rows[i][j] = rows[j][i] = Fraction(rng.randrange(m), m)
    return _mod1_matrix(rows)


def random_character(rng: random.Random, orders: tuple, free_den: int = 12) -> tuple:
    return tuple(Fraction(rng.randrange(n or free_den), n or free_den) for n in orders)


def order_two_character(rng: random.Random, orders: tuple) -> tuple:
    """A character with chi^2 trivial: phases 0 or 1/2 where the order allows."""
    return tuple(
        Fraction(rng.randrange(2), 2) if (n == 0 or n % 2 == 0) else Fraction(0)
        for n in orders
    )


def add_matrices(a: tuple, b: tuple) -> tuple:
    return _mod1_matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def random_invertible(rng: random.Random, n: int, r: int) -> tuple:
    """An r x r integer matrix with entries in [0, n) and unit determinant mod n."""
    while True:
        m = tuple(tuple(rng.randrange(n) for _ in range(r)) for _ in range(r))
        if gcd(oracle.int_det(m), n) == 1:
            return m


def random_gl2z(rng: random.Random, bound: int) -> tuple:
    """A matrix of determinant +-1 with entries in [-bound, bound]."""
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(2)) for _ in range(2))
        if abs(oracle.int_det(m)) == 1:
            return m


def pullback(t: Trip, m: tuple) -> Trip:
    """The triplet phi^*(t) on the same group, for phi given by m (columns = images).

    B' = m^T B m and chi' = chi m, so phi is a witness that the two triplets
    are conjugate whenever m is invertible on the group.
    """
    r = t.rank
    bm = [[sum(t.B[i][k] * m[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    b2 = [[sum(m[k][i] * bm[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    chi2 = [sum(t.chi[k] * m[k][j] for k in range(r)) for j in range(r)]
    return Trip(t.free, t.tors, _mod1_matrix(b2), tuple(Fraction(x) % 1 for x in chi2))


def homocyclic(rng: random.Random, n: int, r: int) -> Trip:
    orders = (n,) * r
    return Trip(0, orders, random_matrix(rng, orders), random_character(rng, orders))


def nondegenerate_square(rng: random.Random, n: int, k: int, symmetric: bool = True) -> Trip:
    """H = A x A with A = (Z/n)^k and a cocycle whose star form is nondegenerate.

    B = [[S1, U], [0, S2]] with S1, S2 symmetric and U invertible mod n has
    star form [[0, U], [-U^T, 0]], a perfect pairing; a random basis change
    keeps it so.  With symmetric=False, S1 = S2 = 0: a basis change only
    permutes the values of B over H x H, so ops that sweep all of H cost
    about the same for every seed.
    """
    r = 2 * k
    orders = (n,) * r
    u = random_invertible(rng, n, k)
    rows = [[Fraction(0)] * r for _ in range(r)]
    for i in range(k):
        for j in range(k):
            rows[i][k + j] = Fraction(u[i][j], n)
    base = _mod1_matrix(rows)
    if symmetric:
        base = add_matrices(base, random_symmetric(rng, orders))
    t = Trip(0, orders, base, random_character(rng, orders))
    return pullback(t, random_invertible(rng, n, r))


def det_form(rng: random.Random, den: int) -> Trip:
    """Z^2 with B = [[s1, a], [b, s2]]: star value a - b of exact denominator den."""
    while True:
        v = Fraction(rng.randrange(1, den), den)
        if v.denominator == den:
            break
    a = Fraction(rng.randrange(2 * den), 2 * den)
    s1 = Fraction(rng.randrange(den), den)
    s2 = Fraction(rng.randrange(den), den)
    B = _mod1_matrix([[s1, a], [a - v, s2]])
    return Trip(2, (), B, random_character(rng, (0, 0)))


# --------------------------------------------------------------------------
# ops

@dataclass
class Op:
    """One benchmark operation: a CLI call on triplet files, or an API call.

    kind  -- "cli" or "api"
    name  -- subcommand or API entry point
    args  -- CLI arguments after the subcommand, with triplet references as
             {"trip": index}, or keyword data for an API call
    expect -- the answer known by construction (see check.py)
    shape  -- label of the op's kind and size, for the per-shape table
    """

    kind: str
    name: str
    args: list
    expect: dict
    shape: str


def _triplet_ref(trips: list, t: Trip) -> dict:
    trips.append(t)
    return {"trip": len(trips) - 1}


FLOW_SHAPES = {
    # label: (n, k) for H = ((Z/n)^k)^2
    "z2sq": (2, 1),
    "z3sq": (3, 1),
    "z4sq": (4, 1),
    "z2p4": (2, 2),
    "z5sq": (5, 1),
}


def flow_op(rng: random.Random, trips: list, shape: str, samples: int) -> Op:
    n, k = FLOW_SHAPES[shape]
    t = nondegenerate_square(rng, n, k, symmetric=False)
    return Op("cli", "malleability", [_triplet_ref(trips, t), "--samples", str(samples)],
              {"exit": 0, "ok": True}, f"{shape}/s{samples}")


def conj_yes(rng: random.Random, trips: list, n: int, r: int, twist: bool) -> Op:
    tb = homocyclic(rng, n, r)
    m = random_invertible(rng, n, r)
    ta = pullback(tb, m)
    if twist:
        orders = ta.orders
        ta = Trip(ta.free, ta.tors, add_matrices(ta.B, random_symmetric(rng, orders)),
                  tuple((x + y) % 1 for x, y in zip(ta.chi, order_two_character(rng, orders))))
    return Op("cli", "conjugate", [_triplet_ref(trips, ta), _triplet_ref(trips, tb)],
              {"exit": 0, "verdict": "YES"}, f"yes/z{n}^{r}")


def conj_no_chi(rng: random.Random, trips: list, n: int, r: int) -> Op:
    """Same star class, chi^2 of different order."""
    tb = homocyclic(rng, n, r)
    ta = pullback(tb, random_invertible(rng, n, r))
    want = oracle.chi2_order(ta)
    while True:
        chi = random_character(rng, ta.orders)
        if oracle.chi2_order(Trip(0, ta.tors, ta.B, chi)) != want:
            break
    ta = Trip(0, ta.tors, ta.B, chi)
    return Op("cli", "conjugate", [_triplet_ref(trips, ta), _triplet_ref(trips, tb)],
              {"exit": 1, "verdict": "NO"}, f"no-chi/z{n}^{r}")


def conj_no_kernel(rng: random.Random, trips: list, n: int, r: int) -> Op:
    """Star kernels of different size."""
    ta = homocyclic(rng, n, r)
    want = oracle.star_kernel_size(ta)
    while True:
        tb = homocyclic(rng, n, r)
        if oracle.star_kernel_size(tb) != want:
            break
    return Op("cli", "conjugate", [_triplet_ref(trips, ta), _triplet_ref(trips, tb)],
              {"exit": 1, "verdict": "NO"}, f"no-kernel/z{n}^{r}")


NONISO_PARTNERS = {
    # (n, r) of (Z/n)^r -> torsion of a group of the same order, not isomorphic
    (3, 2): (9,),
    (4, 2): (2, 8),
    (5, 2): (25,),
}


def conj_no_group(rng: random.Random, trips: list, n: int, r: int) -> Op:
    ta = homocyclic(rng, n, r)
    tors = NONISO_PARTNERS[(n, r)]
    tb = Trip(0, tors, random_matrix(rng, tors), random_character(rng, tors))
    return Op("cli", "conjugate", [_triplet_ref(trips, ta), _triplet_ref(trips, tb)],
              {"exit": 1, "verdict": "NO"}, f"no-group/z{n}^{r}")


def conj_lattice(rng: random.Random, trips: list, bound: int, yes: bool) -> Op:
    """Z^2 pairs.  YES: a pullback through a GL(2,Z) matrix inside the search
    box.  Otherwise the chi^2 orders differ, so no witness exists at any
    bound: the truth is NO, and UNKNOWN is the sound answer of a bounded
    search."""
    tb = det_form(rng, rng.choice((4, 6, 8, 12, 16)))
    ta = pullback(tb, random_gl2z(rng, bound))
    if not yes:
        want = oracle.chi2_order(ta)
        while True:
            chi = random_character(rng, (0, 0))
            if oracle.chi2_order(Trip(2, (), ta.B, chi)) != want:
                break
        ta = Trip(2, (), ta.B, chi)
    if yes:
        expect = {"exit": 0, "verdict": "YES"}
    else:
        expect = {"exit": 1, "verdict": "NO", "may_be_unknown": True}
    return Op("cli", "conjugate",
              [_triplet_ref(trips, ta), _triplet_ref(trips, tb), "--bound", str(bound)],
              expect, f"lattice-{'yes' if yes else 'no'}/b{bound}")


def block_sum(parts: list) -> Trip:
    """Direct sum of finite triplets: block-diagonal B, concatenated chi."""
    tors = tuple(n for t in parts for n in t.tors)
    r = len(tors)
    rows = [[Fraction(0)] * r for _ in range(r)]
    off = 0
    for t in parts:
        for i in range(t.rank):
            for j in range(t.rank):
                rows[off + i][off + j] = t.B[i][j]
        off += t.rank
    return Trip(0, tors, _mod1_matrix(rows), tuple(x for t in parts for x in t.chi))


def with_full_chi2(rng: random.Random, t: Trip) -> Trip:
    """t with a new character whose square has the largest order the group
    allows.  With a nondegenerate star form this fixes the centralizer's
    size (a vector stabilizer in SL(2, Z/n)), so its cost does not swing
    with the seed."""
    n = max(t.tors)
    want = n // gcd(n, 2)
    while True:
        chi = random_character(rng, t.orders)
        if oracle.chi2_order(Trip(t.free, t.tors, t.B, chi)) == want:
            return Trip(t.free, t.tors, t.B, chi)


def centralizer_finite(rng: random.Random, trips: list, n: int) -> Op:
    t = with_full_chi2(rng, nondegenerate_square(rng, n, 1))
    return Op("cli", "centralizer", [_triplet_ref(trips, t)],
              {"exit": 0, "verdict": "OK", "parts": [t]}, f"centralizer/z{n}^2")


def centralizer_product(rng: random.Random, trips: list, p: int, q: int) -> Op:
    """(Z/p)^2 x (Z/q)^2 with p, q coprime: the centralizer is the product
    of the two factors' centralizers (both conditions split by CRT)."""
    parts = [with_full_chi2(rng, nondegenerate_square(rng, n, 1)) for n in (p, q)]
    t = block_sum(parts)
    return Op("cli", "centralizer", [_triplet_ref(trips, t)],
              {"exit": 0, "verdict": "OK", "parts": parts}, f"centralizer/z{p}^2xz{q}^2")


def centralizer_bounded(rng: random.Random, trips: list, tors: tuple, bound: int) -> Op:
    """Z^2 (+ torsion) with a det-form cocycle.  The centralizer contains every
    matrix congruent to 1 modulo the denominators involved, so it is
    infinite; a bounded search must list exactly the solutions in its box."""
    base = det_form(rng, rng.choice((4, 6, 8)))
    if tors:
        orders = (0, 0) + tuple(tors)
        extra = random_matrix(rng, orders)
        rows = [list(row) for row in extra]
        for i in range(2):
            for j in range(2):
                rows[i][j] = base.B[i][j]
        chi = base.chi + random_character(rng, tuple(tors))
        t = Trip(2, tuple(tors), _mod1_matrix(rows), chi)
    else:
        t = base
    label = "x".join(["z^2"] + [f"z{n}" for n in tors])
    return Op("cli", "centralizer", [_triplet_ref(trips, t), "--bound", str(bound)],
              {"exit": 0, "verdict": "OK", "bound": bound, "infinite": True},
              f"centralizer/{label}/b{bound}")


def random_triplet(rng: random.Random) -> Trip:
    """A valid triplet: finite homocyclic, a mixed group, or Z^2."""
    kind = rng.randrange(3)
    if kind == 0:
        return homocyclic(rng, rng.choice((2, 3, 4, 5, 6)), rng.choice((1, 2, 3)))
    if kind == 1:
        orders = (0,) + tuple(rng.choice((2, 3, 4)) for _ in range(rng.randrange(1, 3)))
        return Trip(1, orders[1:], random_matrix(rng, orders), random_character(rng, orders))
    return det_form(rng, rng.choice((2, 3, 4, 6, 8, 16)))


def validate_op(rng: random.Random, trips: list, valid: bool) -> Op:
    t = random_triplet(rng)
    if valid:
        return Op("cli", "validate", [_triplet_ref(trips, t)], {"exit": 0, "ok": True},
                  "validate/ok")
    # an entry touching a Z/n generator that n does not kill: 1/(2n)
    tors = (rng.choice((2, 3, 5)),) * 2
    B = [[Fraction(0)] * 2 for _ in range(2)]
    B[rng.randrange(2)][rng.randrange(2)] = Fraction(1, 2 * tors[0])
    bad = Trip(0, tors, tuple(tuple(row) for row in B), (Fraction(0),) * 2)
    return Op("cli", "validate", [_triplet_ref(trips, bad)], {"exit": 2, "ok": False},
              "validate/bad")


def factor_op(rng: random.Random, trips: list) -> Op:
    kind = rng.randrange(4)
    if kind < 2:
        t = homocyclic(rng, rng.choice((2, 3, 4, 5, 6, 7)), 2) if kind == 0 else \
            nondegenerate_square(rng, rng.choice((2, 3, 4, 5)), 1)
        nondeg = oracle.star_kernel_size(t) == 1
    elif kind == 2:
        t = det_form(rng, rng.choice((3, 4, 6, 8, 16)))
        nondeg = True
    else:
        t = Trip(2, (), random_symmetric(rng, (0, 0)), random_character(rng, (0, 0)))
        nondeg = False
    return Op("cli", "factor", [_triplet_ref(trips, t)],
              {"exit": 0 if nondeg else 1, "nondegenerate": nondeg, "trip": t}, "factor")


def bicharacter_op(rng: random.Random, trips: list) -> Op:
    t = random_triplet(rng)
    matrix = [[phase_str(x) for x in row] for row in oracle.star_matrix(t)]
    return Op("cli", "bicharacter", [_triplet_ref(trips, t)],
              {"exit": 0, "antisymmetric": True, "matrix": matrix}, "bicharacter")


def selftest_op(suite: str) -> Op:
    return Op("cli", "selftest", ["--suite", suite], {"exit": 0, "ok": True}, f"selftest/{suite}")


# API ops: the args hold plain data that run.py turns into tbshift objects.

def random_config(rng: random.Random, orders: tuple, radius: int = 2) -> dict:
    """A nonzero zero-sum configuration {(q, r): coords} on 2 or 3 sites."""
    while True:
        sites = rng.sample([(q, r) for q in range(-radius, radius + 1)
                            for r in range(-radius, radius + 1)], rng.randrange(2, 4))
        values = [tuple(rng.randrange(n) for n in orders) for _ in sites[:-1]]
        last = tuple((-sum(v[i] for v in values)) % n for i, n in enumerate(orders))
        values.append(last)
        config = {s: v for s, v in zip(sites, values) if any(v)}
        if config:
            return config


def random_element(rng: random.Random, orders: tuple, terms: int) -> list:
    """[(config, (k, c))]: coefficient c * zeta_12^k on each configuration."""
    out, seen = [], set()
    while len(out) < terms:
        cfg = random_config(rng, orders)
        key = tuple(sorted(cfg.items()))
        if key not in seen:
            seen.add(key)
            out.append((cfg, (rng.randrange(12), rng.randint(1, 3))))
    return out


def pi_op(rng: random.Random, n: int, pairs: int) -> Op:
    tb = homocyclic(rng, n, 2)
    m = random_invertible(rng, n, 2)
    ta = pullback(tb, m)
    elems = [(random_element(rng, ta.orders, 2), random_element(rng, ta.orders, 2))
             for _ in range(pairs)]
    return Op("api", "pi", {"ta": ta, "tb": tb, "phi": m, "pairs": elems},
              {"ok": True}, f"pi/z{n}^2")


def motion_op(rng: random.Random, n: int, samples: int) -> Op:
    t = homocyclic(rng, n, 2)
    data = []
    for _ in range(samples):
        k = (rng.randint(-4, 4), rng.randint(-4, 4))
        l = (rng.randint(-4, 4), rng.randint(-4, 4))
        data.append((k, l, random_sl2z(rng), random_element(rng, t.orders, 2)))
    return Op("api", "motion", {"t": t, "samples": data}, {"ok": True}, f"motion/z{n}^2")


def random_sl2z(rng: random.Random) -> tuple:
    s, t_, ti = ((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1))
    m = ((1, 0), (0, 1))
    for _ in range(rng.randrange(1, 6)):
        g = rng.choice((s, t_, ti))
        m = tuple(tuple(sum(m[i][k] * g[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    return m


def bilinear_table(t: Trip) -> dict:
    s = t.B
    return {
        (g, h): sum((gi * s[i][j] * hj for i, gi in enumerate(g) for j, hj in enumerate(h)),
                    Fraction(0)) % 1
        for g in oracle.elements(t.orders) for h in oracle.elements(t.orders)
    }


def cohom_op(rng: random.Random, orders: tuple, same: bool) -> Op:
    """Table cocycles mu1 = B1 and mu2 = B2 + d(b).  Cohomologous exactly when
    B1 and B2 have equal star forms; B2 = B1 + symmetric keeps it equal."""
    b1 = random_matrix(rng, orders)
    if same:
        b2 = add_matrices(b1, random_symmetric(rng, orders))
    else:
        while True:
            b2 = random_matrix(rng, orders)
            t1, t2 = Trip(0, orders, b1, ()), Trip(0, orders, b2, ())
            if oracle.star_matrix(t1) != oracle.star_matrix(t2):
                break
    zero = (0,) * len(orders)
    shift = {g: (Fraction(rng.randrange(8), 8) if g != zero else Fraction(0))
             for g in oracle.elements(orders)}
    mu1 = bilinear_table(Trip(0, orders, b1, ()))
    mu2 = bilinear_table(Trip(0, orders, b2, ()))
    for (g, h) in mu2:
        gh = oracle.reduce(orders, [x + y for x, y in zip(g, h)])
        mu2[(g, h)] = (mu2[(g, h)] + shift[g] + shift[h] - shift[gh]) % 1
    label = "x".join(f"z{n}" for n in orders)
    return Op("api", "cohom", {"orders": orders, "mu1": mu1, "mu2": mu2},
              {"cohomologous": same}, f"cohom-{'yes' if same else 'no'}/{label}")


def mixing_op(rng: random.Random, n: int, count: int) -> Op:
    t = homocyclic(rng, n, 2)
    elems = []
    configs = []
    for _ in range(count):
        cfg = random_config(rng, t.orders, radius=3)
        configs.append(cfg)
        elems.append([({}, (rng.randrange(12), rng.randint(1, 3))),
                      (cfg, (rng.randrange(12), rng.randint(1, 3)))])
    k = oracle.first_mixing_shift(configs, t.orders)
    return Op("api", "mixing", {"t": t, "elems": elems}, {"shift": k}, f"mixing/z{n}^2")
