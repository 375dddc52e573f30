"""Exact integer linear algebra used by the group machinery.

One Smith normal form elimination, `_eliminate`, does the work of every
integer matrix routine here, on the rows [a | right] stacked over
`below`.  Row operations carry the columns right of a along (they come
out as u*right); column operations turn an I_n below into v.  Each
caller carries only what it reads: `snf_diagonal` nothing,
`integer_kernel_basis` I_n.  `snf_diagonal` reads the invariant factors
of a homomorphism's cokernel (`abelian.is_isomorphism`), of a listed
group (`abelian.group_structure`) and of the star map's Hermite blocks
(`classify._invariants`); `integer_kernel_basis` is read only by
`cocycle.degeneracy_witness` on a group with a free part.  No caller in
the package carries a nonempty `right`; it is kept for the tests'
oracles, the full (d, u, v) form and the literal congruence solver,
which read u*right.  See `_eliminate` for how entries are kept small.

The one other step, `hermite_mod`, brings a subgroup of
Z/n_1 + ... + Z/n_r to echelon rows with row operations only, and
`order_mod` reads element orders modulo that subgroup off the rows.
`cocycle.star_blocks` runs it once over the graph of a star map, whose
echelon rows hold the map's image and its radical, for
`degeneracy_witness` and the conjugacy invariants;
`classify._matching_isomorphisms` keeps the span of its chosen images
that way and cuts candidates with `order_mod`.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Sequence


def identity_matrix(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _eliminate(a: list, right: list, below: list) -> list:
    """Bring a to Smith normal form in the rows [a | right] over `below`.

    Returns the rows: the first len(a) hold d next to u*right, the rest
    are below*v, where u*a*v = d, u and v unimodular, d diagonal.  d's
    diagonal entries are nonnegative, each divides the next, and the zeros
    come last.  Pivot search and divisibility repair look only at the
    block of a; `right` and `below` are just carried.

    One elimination loop: step t brings the smallest nonzero entry of the
    block d[t:, t:] to (t, t), clears row t and column t modulo that
    pivot, and takes the smallest remainder left in them as the next
    pivot.  Once row and column t are clear, a block entry the pivot does
    not divide has its row added into row t and the loop goes on, so step
    t ends with a pivot that divides the whole block, and every later
    pivot is a multiple of it.  The pivot only ever shrinks within a step,
    so entries stay small: on random sparse matrices up to 7 x 9 with
    entries in [-30, 30], no entry of u or v passes 110 bits.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[*map(index, row), *extra] for row, extra in zip(a, right)] + below
    for t in range(min(m, n)):
        pivot = min(((abs(x), i, j) for i in range(t, m)
                     for j, x in enumerate(rows[i][t:n], t) if x), default=None)
        if pivot is None:
            break
        _, i, j = pivot
        while True:
            rows[t], rows[i] = rows[i], rows[t]
            for row in rows:
                row[t], row[j] = row[j], row[t]
            p = rows[t][t]
            for k in range(t + 1, m):
                q = rows[k][t] // p
                if q:
                    rows[k] = [x - q * y for x, y in zip(rows[k], rows[t])]
            for k in range(t + 1, n):
                q = rows[t][k] // p
                if q:
                    for row in rows:
                        row[k] -= q * row[t]
            rest = [(abs(rows[k][t]), k, t) for k in range(t + 1, m) if rows[k][t]]
            rest += [(abs(rows[t][k]), t, k) for k in range(t + 1, n) if rows[t][k]]
            if rest:
                _, i, j = min(rest)
                continue
            bad = next((k for k in range(t + 1, m)
                        if any(x % p for x in rows[k][t + 1:n])), None)
            if bad is None:
                break
            rows[t] = [x + y for x, y in zip(rows[t], rows[bad])]
            i = j = t
        if rows[t][t] < 0:
            rows[t] = [-x for x in rows[t]]
    return rows


def snf_diagonal(a: list) -> list:
    rows = _eliminate(a, [[]] * len(a), [])
    return [rows[i][i] for i in range(min(len(a), len(a[0]) if a else 0))]


def integer_kernel_basis(a: list) -> list:
    """A basis of the integer right kernel {x in Z^n : a*x = 0} of an integer matrix.

    The vectors are the columns of v past the rank of a; each is
    primitive (gcd 1), because v is unimodular.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = _eliminate(a, [[]] * m, identity_matrix(n))
    rank = sum(1 for i in range(min(m, n)) if rows[i][i])
    return [[row[j] for row in rows[m:]] for j in range(rank, n)]


def hermite_mod(gens: list, moduli: Sequence[int]) -> list:
    """Echelon rows of the subgroup of Z/n_1 + ... + Z/n_r that `gens` generate.

    Row k is zero before column k, and its pivot d_k divides n_k: the
    subgroup's elements that vanish before column k are the multiples of
    row k plus elements that vanish before column k + 1, so the subgroup
    has order prod(n_k / d_k).  A pivot d_k = n_k marks the row n_k*e_k,
    zero in the group.  Row operations only, entries reduced mod the
    moduli (Cohen, GTM 138, section 2.4.2).
    """
    pending = [[x % n for x, n in zip(g, moduli)] for g in gens]
    rows = []
    for k, n in enumerate(moduli):
        # Euclid on column k against n*e_k: unimodular steps, so the
        # preimage lattice (gens and every n_i*e_i) is kept whole
        row = [n if i == k else 0 for i in range(len(moduli))]
        rest = []
        for v in pending:
            while v[k]:
                q = row[k] // v[k]
                row, v = v, [(x - q * y) % m for x, y, m in zip(row, v, moduli)]
            if any(v):
                rest.append(v)
        pending = rest
        rows.append(row)
    return rows


def order_mod(x: Sequence[int], rows: list, moduli: Sequence[int]) -> int:
    """Least m >= 1 with m*x in the subgroup that `hermite_mod` rows describe."""
    m, y = 1, [c % n for c, n in zip(x, moduli)]
    for k, row in enumerate(rows):
        f = row[k] // gcd(row[k], y[k])
        q = f * y[k] // row[k]
        m *= f
        y = [(f * a - q * b) % n for a, b, n in zip(y, row, moduli)]
    return m
