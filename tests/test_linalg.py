"""The exact linear algebra against sympy and brute-force oracles."""

import itertools
import math
import random
from functools import lru_cache

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import deadline
from oracles import smith_normal_form, solve_congruence
from tbshift.abelian import AbGroup, AbHom, is_isomorphism
from tbshift.linalg import (
    hermite_mod,
    integer_kernel_basis,
    order_mod,
    snf_diagonal,
)

SEEDS = (1, 2, 3, 4)


@lru_cache(maxsize=None)
def random_sample(seed: int, count: int = 1500) -> tuple:
    """Sparse matrices up to 7 x 9: each entry 0 with probability 2/3, else in [-30, 30]."""
    rng = random.Random(seed)
    sample = []
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 9)
        sample.append([[0 if rng.random() < 2 / 3 else rng.randint(-30, 30) for _ in range(n)]
                       for _ in range(m)])
    return tuple(sample)


def matmul(x: list, y: list, cols: int) -> list:
    return [[sum(row[k] * y[k][j] for k in range(len(y))) for j in range(cols)] for row in x]


def determinant(mat: list) -> int:
    """Bareiss fraction-free elimination: exact in ints."""
    a = [list(row) for row in mat]
    sign, previous = 1, 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if a else 1


def check_snf(a: list) -> list:
    """Check the (d, u, v) contract of smith_normal_form(a) and return the diagonal."""
    m = len(a)
    n = len(a[0]) if m else 0
    d, u, v = smith_normal_form(a)
    assert matmul(matmul(u, a, n), v, n) == d
    assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = snf_diagonal(a)
    assert diag == [d[i][i] for i in range(min(m, n))]
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    if m and n:
        reference = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
        assert diag == [abs(reference[i, i]) for i in range(min(m, n))]
    return diag


@pytest.mark.parametrize("seed", SEEDS)
def test_snf_matches_sympy_on_random_sample(seed):
    for a in random_sample(seed):
        check_snf(a)


@pytest.mark.parametrize(
    "a, diag",
    [
        ([[3, -6, 9, 0]], [3]),
        ([[4], [-6], [0]], [2]),
        ([[0, 0, 0], [0, 0, 0]], [0, 0]),
        ([[0]], [0]),
        ([[-5]], [5]),
        ([[2, 0], [0, 3]], [1, 6]),
        ([[]], []),
        ([], []),
    ],
    ids=["row", "column", "zero", "zero_1x1", "negative_1x1", "coprime_pair", "1x0", "empty"],
)
def test_snf_edge_shapes(a, diag):
    assert check_snf(a) == diag


def test_snf_refuses_non_integer_entries():
    with pytest.raises(TypeError):
        snf_diagonal([[1.5, 0], [0, 2]])


# Inputs on which naive integer elimination grows entries to thousands of
# digits and gives no answer within minutes.  Each must finish well inside
# the deadline.

def test_snf_without_entry_blowup():
    a = [
        [0, 15, -3, -26, -13, 9, 0],
        [0, 0, 0, 0, 0, -27, -25],
        [0, 0, 0, -22, 0, 0, 0],
        [18, 0, -29, 0, 0, 0, 0],
        [0, -27, 0, 0, 0, 0, 24],
    ]
    with deadline(5):
        assert snf_diagonal(a) == [1, 1, 1, 1, 594]


def test_is_isomorphism_rank_six_finishes():
    g = AbGroup(0, (9, 6, 30, 8, 8, 30))
    f = AbHom(g, g, (
        (7, 6, 3, 0, 0, 6),
        (0, 4, 3, 0, 3, 5),
        (20, 15, 11, 15, 15, 14),
        (0, 4, 0, 4, 1, 0),
        (0, 4, 4, 3, 7, 4),
        (10, 0, 29, 0, 0, 9),
    ))
    with deadline(5):
        assert not is_isomorphism(f)


@pytest.mark.parametrize("seed", SEEDS)
def test_snf_transforms_stay_small(seed):
    sample = random_sample(seed)
    with deadline(5):
        widest = max(
            abs(x).bit_length()
            for a in sample
            for transform in smith_normal_form(a)[1:]
            for row in transform
            for x in row
        )
    assert widest < 256


@pytest.mark.parametrize("modulus", range(1, 13))
def test_solve_congruence_matches_brute_force(modulus):
    rng = random.Random(modulus)
    for n in (1, 2, 3):
        points = list(itertools.product(range(modulus), repeat=n))
        for _ in range(15):
            m = rng.randint(1, 4)
            a = [[0 if rng.random() < 1 / 3 else rng.randint(-modulus, 2 * modulus)
                  for _ in range(n)] for _ in range(m)]
            image = {tuple(sum(c * x for c, x in zip(row, p)) % modulus for row in a)
                     for p in points}
            if rng.random() < 0.5:
                target = rng.choice(sorted(image))
            else:
                target = [rng.randrange(modulus) for _ in range(m)]
            rhs = [b + modulus * rng.randint(-2, 2) for b in target]
            x = solve_congruence(a, rhs, modulus)
            assert (x is not None) == (tuple(target) in image)
            if x is not None:
                assert len(x) == n
                assert all((sum(c * xi for c, xi in zip(row, x)) - b) % modulus == 0
                           for row, b in zip(a, rhs))


def low_rank_matrix(rng: random.Random, m: int, n: int, rank: int) -> list:
    """An m x n integer matrix of rank at most `rank`, as a product of two factors."""
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(m)]
    right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rank)]
    return matmul(left, right, n)


def test_integer_kernel_matches_sympy_nullspace():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = low_rank_matrix(rng, m, n, rng.randint(0, min(m, n)))
        kernel = integer_kernel_basis(a)
        assert all(len(vec) == n and math.gcd(*vec) == 1 for vec in kernel)
        assert all(matmul(a, [[x] for x in vec], 1) == [[0]] * m for vec in kernel)
        ours = [sympy.Matrix(vec) for vec in kernel]
        theirs = sympy.Matrix(a).nullspace()
        assert len(ours) == len(theirs)
        if ours:
            assert sympy.Matrix.hstack(*ours).rank() == len(ours)
            assert sympy.Matrix.hstack(*ours, *theirs).rank() == len(ours)
    assert integer_kernel_basis([]) == []
    assert integer_kernel_basis([[0, 0]]) == [[1, 0], [0, 1]]


def subgroup_closure(gens: list, moduli: tuple) -> set:
    """Brute oracle: every element of the subgroup the generators span."""
    span = {(0,) * len(moduli)}
    frontier = list(span)
    while frontier:
        frontier = [t for t in {tuple((a + b) % n for a, b, n in zip(s, g, moduli))
                                for s in frontier for g in gens} if t not in span]
        span.update(frontier)
    return span


@pytest.mark.parametrize("seed", SEEDS)
def test_hermite_mod_and_order_mod_match_subgroup_closure(seed):
    rng = random.Random(seed)
    for _ in range(300):
        moduli = tuple(rng.choice((2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(1, 4)))
        gens = [[rng.randint(-20, 20) for _ in moduli] for _ in range(rng.randint(0, 3))]
        rows = hermite_mod(gens, moduli)
        span = subgroup_closure(gens, moduli)
        assert math.prod(n // row[k] for k, (row, n) in enumerate(zip(rows, moduli))) == len(span)
        for k, (row, n) in enumerate(zip(rows, moduli)):
            assert not any(row[:k]) and n % row[k] == 0
            assert tuple(x % m for x, m in zip(row, moduli)) in span
        for _ in range(5):
            x = [rng.randint(-20, 20) for _ in moduli]
            least = next(m for m in itertools.count(1)
                         if tuple(m * c % n for c, n in zip(x, moduli)) in span)
            assert order_mod(x, rows, moduli) == least
