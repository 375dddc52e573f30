"""Exact integer and rational linear algebra used by the group machinery.

Small hand-rolled routines: Smith normal form with transform matrices,
linear congruence solving, and rational kernels.  Matrix sizes here are
tiny (at most a few thousand rows), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional


def identity_matrix(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(mat: list, vec: list) -> list:
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


def smith_normal_form(a: list) -> tuple:
    """Return (d, u, v) with u*a*v = d, u and v unimodular, d diagonal.

    d's diagonal entries are nonnegative and each divides the next.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def diagonalize(start: int) -> None:
        t = start
        while t < min(m, n):
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if d[i][j] != 0 and (
                        best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])
                    ):
                        best = (i, j)
            if best is None:
                break
            swap_rows(t, best[0])
            swap_cols(t, best[1])
            while True:
                dirty = False
                for i in range(t + 1, m):
                    if d[i][t] != 0:
                        add_row(t, i, -(d[i][t] // d[t][t]))
                        if d[i][t] != 0:
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, n):
                    if d[t][j] != 0:
                        add_col(t, j, -(d[t][j] // d[t][t]))
                        if d[t][j] != 0:
                            swap_cols(t, j)
                            dirty = True
                if not dirty:
                    break
            if d[t][t] < 0:
                negate_row(t)
            t += 1

    diagonalize(0)
    # enforce the divisibility chain d[i][i] | d[i+1][i+1]: couple an
    # offending pair via a column addition and re-diagonalize from there
    while True:
        bad = None
        for i in range(min(m, n) - 1):
            x, y = d[i][i], d[i + 1][i + 1]
            if x != 0 and y % x != 0:
                bad = i
                break
        if bad is None:
            break
        add_col(bad + 1, bad, 1)
        diagonalize(bad)
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
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return [x // g for x in ints]
