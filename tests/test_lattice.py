import itertools

import pytest

from oracles import act, inverse, spiral_walk
from tbshift.lattice import (
    DELTA,
    E1,
    E2,
    ETA,
    IDENTITY,
    ORIGIN,
    XI,
    AffineSL2,
    LatticePoint,
    det2,
    gcd2,
    mat_apply,
    mat_mul,
    spiral_index,
    spiral_points,
)
from tbshift.selftest import random_point, random_sl2


def test_det2_examples():
    assert det2(LatticePoint(1, 0), LatticePoint(0, 1)) == 1
    assert det2(LatticePoint(2, 3), LatticePoint(2, 3)) == 0
    assert det2(LatticePoint(1, 0), LatticePoint(0, 0)) == 0


@pytest.mark.parametrize("translation, matrix",
                         [((0.5, 0), IDENTITY.matrix), ((0, 0), ((1.0, 0), (0, 1)))],
                         ids=["translation", "matrix"])
def test_affine_sl2_refuses_non_integers(translation, matrix):
    with pytest.raises(TypeError):
        AffineSL2(translation, matrix)


def test_gcd2_examples():
    assert gcd2(LatticePoint(0, 0)) == 0
    assert gcd2(LatticePoint(2, 4)) == 2
    assert gcd2(LatticePoint(-3, 0)) == 3


def test_named_constants():
    assert DELTA.matrix == ((1, 1), (0, 1))
    assert ETA.matrix == ((-1, 0), (0, -1))
    assert XI == AffineSL2(E1, ((-1, -1), (1, 0)))


def test_three_cycle_and_orders():
    assert act(XI, ORIGIN) == E1
    assert act(XI, E1) == E2
    assert act(XI, E2) == ORIGIN
    assert XI * XI == AffineSL2(E2, ((0, 1), (-1, -1)))
    assert XI * XI * XI == IDENTITY


def test_eta_and_delta_actions():
    assert act(ETA, E1) == LatticePoint(-1, 0)
    assert act(ETA, ORIGIN) == ORIGIN
    for n in range(-5, 6):
        assert act(DELTA, LatticePoint(n, 0)) == LatticePoint(n, 0)


def test_affine_group_laws(rng):
    for _ in range(50):
        a = AffineSL2(LatticePoint(rng.randint(-3, 3), rng.randint(-3, 3)), random_sl2(rng))
        b = AffineSL2(LatticePoint(rng.randint(-3, 3), rng.randint(-3, 3)), random_sl2(rng))
        k = LatticePoint(rng.randint(-5, 5), rng.randint(-5, 5))
        assert act(a * b, k) == act(a, act(b, k))
        assert a * inverse(a) == IDENTITY
        assert inverse(a) * a == IDENTITY


def test_affine_products_equal_the_checked_construction(rng):
    # a product sets its slots without the constructor's checks: over random
    # SL(2,Z) words it equals, and hashes as, the element the constructor
    # builds from the composed entries, and holds plain int tuples
    for _ in range(100):
        product = checked = IDENTITY
        for _ in range(rng.randrange(1, 8)):
            move = AffineSL2(random_point(rng, 6), random_sl2(rng, 8))
            product = product * move
            checked = AffineSL2(checked.translation + mat_apply(checked.matrix, move.translation),
                                mat_mul(checked.matrix, move.matrix))
        assert product == checked and hash(product) == hash(checked)
        assert type(product.translation) is LatticePoint and type(product.matrix) is tuple
        entries = (*product.translation, *product.matrix[0], *product.matrix[1])
        assert all(type(row) is tuple for row in product.matrix)
        assert all(type(c) is int for c in entries)


def test_affine_rejects_bad_determinant():
    with pytest.raises(ValueError):
        AffineSL2(ORIGIN, ((1, 0), (0, -1)))


def test_sl2_invariance_of_det_and_gcd(rng):
    for _ in range(200):
        gamma = random_sl2(rng)
        k = LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        k0 = LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
        assert det2(k, k0) == det2(mat_apply(gamma, k), mat_apply(gamma, k0))
        assert gcd2(k) == gcd2(mat_apply(gamma, k))


def test_mod2_identity_exhaustive_window():
    for q1, r1, q2, r2 in itertools.product(range(-6, 7), repeat=4):
        k, k0 = LatticePoint(q1, r1), LatticePoint(q2, r2)
        assert (det2(k, k0) - gcd2(k) - gcd2(k0) + gcd2(k + k0)) % 2 == 0


def test_off_axis_orbit_of_shear_is_unbounded():
    delta_inv = inverse(DELTA)
    for start in [LatticePoint(0, 1), LatticePoint(2, -1), LatticePoint(-1, 3)]:
        seen = set()
        point = start
        for _ in range(20):
            seen.add(point)
            point = act(delta_inv, point)
        assert len(seen) == 20  # never repeats: the orbit is infinite


def test_spiral_enumeration_prefix():
    expected = [
        (0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
        (1, -1), (2, -1),
    ]
    points = list(itertools.islice(spiral_points(), len(expected)))
    assert [(p.q, p.r) for p in points] == expected


def test_spiral_index_matches_enumeration():
    for i, p in enumerate(itertools.islice(spiral_points(), 200)):
        assert spiral_index(p) == i


def test_spiral_points_and_index_match_the_edge_walk():
    # rings 0 to 12, the walk reading no spiral_index
    walk = list(itertools.islice(spiral_walk(), 25 ** 2))
    assert max(max(abs(q), abs(r)) for q, r in walk) == 12
    assert list(itertools.islice(spiral_points(), len(walk))) == walk
    assert [spiral_index(p) for p in walk] == list(range(len(walk)))


def test_identity_is_neutral():
    assert IDENTITY * XI == XI
    assert XI * IDENTITY == XI
