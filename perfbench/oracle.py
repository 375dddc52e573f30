"""Independent integer arithmetic for checking benchmark answers.

Nothing here imports ``tbshift``.  Triplets are ``gen.Trip`` values: a
generator-order tuple (0 = free), an exponent matrix B and character
phases, all Fractions mod 1.  Homomorphisms are integer matrices whose
column j is the image of generator j.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


def int_det(m) -> int:
    m = [list(row) for row in m]
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * int_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(n)
    )


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def star_matrix(t) -> list:
    r = t.rank
    return [[(t.B[i][j] - t.B[j][i]) % 1 for j in range(r)] for i in range(r)]


def pair(s: list, g, h) -> Fraction:
    return sum(
        (gi * s[i][j] * hj for i, gi in enumerate(g) if gi for j, hj in enumerate(h) if hj),
        Fraction(0),
    ) % 1


def chi2(t, g) -> Fraction:
    return sum((2 * c * x for c, x in zip(t.chi, g)), Fraction(0)) % 1


def chi2_order(t) -> int:
    out = 1
    for c in t.chi:
        out = lcm(out, ((2 * c) % 1).denominator)
    return out


def reduce(orders, g) -> tuple:
    return tuple((x % n) if n else x for n, x in zip(orders, g))


def elements(orders) -> list:
    return [tuple(g) for g in itertools.product(*(range(n) for n in orders))]


def star_kernel_size(t) -> int:
    """Number of elements pairing trivially with every generator (finite groups)."""
    s = star_matrix(t)
    r = t.rank
    gens = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    return sum(1 for g in elements(t.orders) if all(pair(s, g, e) == 0 for e in gens))


def image(m, orders, g) -> tuple:
    r = len(orders)
    return reduce(orders, [sum(m[i][j] * g[j] for j in range(len(g))) for i in range(r)])


def is_hom(m, orders) -> bool:
    """Column j must be killed by the order of generator j."""
    for j, n in enumerate(orders):
        if n:
            col = [row[j] * n for row in m]
            if reduce(orders, col) != (0,) * len(orders):
                return False
    return True


def is_bijective(m, orders) -> bool:
    """For a hom of Z^f + T (free generators first) to itself.

    The torsion generators cannot reach the free part, so m is bijective
    exactly when its free block is unimodular and its torsion block is a
    bijection of T, checked by counting images.
    """
    f = sum(1 for n in orders if n == 0)
    if f and abs(int_det([row[:f] for row in m[:f]])) != 1:
        return False
    tors = orders[f:]
    block = [row[f:] for row in m[f:]]
    return len({image(block, tors, g) for g in elements(tors)}) == len(elements(tors))


def conditions(ta, tb, m) -> bool:
    """phi = m carries the star form and chi^2 of tb back to those of ta."""
    sa, sb = star_matrix(ta), star_matrix(tb)
    r = ta.rank
    gens = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    imgs = [image(m, tb.orders, g) for g in gens]
    for i in range(r):
        for j in range(r):
            if pair(sa, gens[i], gens[j]) != pair(sb, imgs[i], imgs[j]):
                return False
    return all(chi2(ta, g) == chi2(tb, f) for g, f in zip(gens, imgs))


def is_witness(ta, tb, m) -> bool:
    return (ta.orders == tb.orders and is_hom(m, tb.orders) and is_bijective(m, tb.orders)
            and conditions(ta, tb, m))


def _box(orders, bound):
    """Candidate images of one generator: free coordinates in [-bound, bound]."""
    ranges = [range(n) if n else range(-bound, bound + 1) for n in orders]
    return [tuple(c) for c in itertools.product(*ranges)]


def centralizer_set(t, bound=None) -> set:
    """Every automorphism preserving star and chi^2, by brute force.

    Finite groups: exhaustive.  With free generators: the automorphisms
    whose free coordinates lie in [-bound, bound] (the documented box of a
    bounded search).  Returned as frozen column tuples.
    """
    orders = t.orders
    r = len(orders)
    s = star_matrix(t)
    gens = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    pools = []
    for j, n in enumerate(orders):
        pool = []
        for x in _box(orders, bound or 0):
            if n and reduce(orders, [c * n for c in x]) != (0,) * r:
                continue
            if chi2(t, x) != chi2(t, gens[j]):
                continue
            pool.append(x)
        pools.append(pool)
    found = set()
    chosen = []

    def extend(j):
        if j == r:
            m = tuple(tuple(chosen[c][i] for c in range(r)) for i in range(r))
            if is_bijective(m, orders):
                found.add(tuple(chosen))
            return
        for x in pools[j]:
            if all(pair(s, chosen[i], x) == pair(s, gens[i], gens[j]) for i in range(j)):
                chosen.append(x)
                extend(j + 1)
                chosen.pop()

    extend(0)
    return found


def centralizer_product_count(parts) -> int:
    """Centralizer order of a direct sum of triplets of coprime orders."""
    out = 1
    for t in parts:
        out *= len(centralizer_set(t))
    return out


def spiral_points():
    """Z^2 ring by ring, counterclockwise, each ring starting at (R, 1-R)."""
    yield (0, 0)
    ring = 1
    while True:
        for r in range(1 - ring, ring + 1):
            yield (ring, r)
        for q in range(ring - 1, -ring - 1, -1):
            yield (q, ring)
        for r in range(ring - 1, -ring - 1, -1):
            yield (-ring, r)
        for q in range(1 - ring, ring + 1):
            yield (q, -ring)
        ring += 1


def first_mixing_shift(configs, orders) -> tuple:
    """First spiral point k at which no configuration cancels a shifted one.

    configs: the nonzero configuration of each element, as {(q, r): coords}.
    An element u(lam) with lam != 0 has trace 0, so tr(a_i beta_k(a_j))
    factorizes exactly when lam_i + (lam_j moved by k) != 0 for all i, j.
    """
    for k in spiral_points():
        clash = False
        for a in configs:
            for b in configs:
                moved = {(p[0] + k[0], p[1] + k[1]): v for p, v in b.items()}
                if moved.keys() == a.keys() and all(
                    reduce(orders, [x + y for x, y in zip(a[p], moved[p])]) == (0,) * len(orders)
                    for p in a
                ):
                    clash = True
                    break
            if clash:
                break
        if not clash:
            return k
