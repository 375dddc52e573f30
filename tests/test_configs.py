import pytest

import oracles
from oracles import (
    act,
    coboundary_cocycle,
    config_items,
    element_sum,
    moved_by,
    mu_hat,
    row_major_key,
    table_from_function,
    to_table,
)
from tbshift.abelian import AbGroup
from tbshift.cocycle import trivial_cocycle
from tbshift.configs import Config, dipole, mu_tilde, telescoped
from tbshift.dynamics import mod_q_cocycle, mod_q_group
from tbshift.lattice import E1, E2, ORIGIN, XI, DELTA, AffineSL2, LatticePoint, spiral_index
from tbshift.scalars import Phase
from tbshift.selftest import random_zero_sum_config


def test_addition_and_negation():
    g = mod_q_group(3)
    lam = dipole(g, (1, 0))
    assert lam + (-lam) == Config(g, ())
    # supports coinciding at {0, e1} add pointwise
    other = dipole(g, (0, 1))
    merged = lam + other
    assert merged == dipole(g, (1, 1))
    # disjoint supports concatenate
    far = Config.from_items(g, [(LatticePoint(5, 5), (1, 2))])
    combined = lam + far
    assert len(combined.support) == 3


def test_zero_values_are_pruned_and_order_canonical():
    g = mod_q_group(3)
    cfg = Config.from_items(
        g,
        [
            (LatticePoint(2, 1), (1, 0)),
            (LatticePoint(-1, 0), (0, 2)),
            (LatticePoint(0, 0), (0, 0)),
        ],
    )
    assert [p for p, _ in cfg.support] == [LatticePoint(-1, 0), LatticePoint(2, 1)]


def test_from_items_refuses_a_non_integer_value():
    with pytest.raises(TypeError):
        Config.from_items(AbGroup(0, (5,)), [((0, 0), (2.7,))])


@pytest.mark.parametrize("site", [(0.5, 0), ("1", 0)], ids=str)
def test_from_items_refuses_a_non_integer_site(site):
    with pytest.raises(TypeError):
        Config.from_items(AbGroup(0, (5,)), [(site, (1,))])


def test_from_items_refuses_a_value_of_another_rank():
    # a value is a coordinate sequence, reduced in the configuration's group
    with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
        Config.from_items(AbGroup(0, (3,)), [(ORIGIN, (1, 2))])
    assert Config.from_items(AbGroup(0, (3,)), [(ORIGIN, (4,))]).support == ((ORIGIN, (1,)),)


def test_dipole_shape():
    g = mod_q_group(3)
    lam = dipole(g, (1, 0))
    assert dict(lam.support) == {E1: (1, 0), ORIGIN: (2, 0)}
    assert lam.is_zero_sum
    assert dipole(g, (0, 0)) == Config(g, ())
    # the coordinates are reduced, on the free part too
    assert dipole(g, (4, -1)) == dipole(g, (1, 2))
    assert dict(dipole(AbGroup(1, (3,)), (-2, 4)).support) == {E1: (-2, 1), ORIGIN: (2, 2)}


def test_affine_action_on_configs():
    g = mod_q_group(3)
    lam = dipole(g, (1, 0))
    assert moved_by(lam, AffineSL2()) == lam
    moved = moved_by(lam, XI)
    assert dict(moved.support) == {E1: (2, 0), E2: (1, 0)}
    assert moved.is_zero_sum
    assert moved_by(lam, DELTA) == lam  # supported on the fixed axis


def test_action_preserves_zero_sum_and_size(rng):
    g = mod_q_group(3)
    from tbshift.selftest import random_sl2

    for _ in range(50):
        lam = random_zero_sum_config(rng, g)
        move = AffineSL2(LatticePoint(rng.randint(-3, 3), rng.randint(-3, 3)), random_sl2(rng))
        moved = moved_by(lam, move)
        assert moved.is_zero_sum
        assert len(moved.support) == len(lam.support)


def _tilde_phase(mu, c1, c2):
    """`configs.mu_tilde`, an int over `mu.den`, as a Phase."""
    return Phase(mu_tilde(mu, c1, c2), mu.den)


def test_mu_tilde_examples():
    mu = mod_q_cocycle(3)
    g = mu.group
    lam = dipole(g, (1, 2))
    assert _tilde_phase(mu, lam, Config(g, ())) == Phase.ZERO
    triv = trivial_cocycle(g)
    assert _tilde_phase(triv, lam, lam) == Phase.ZERO
    l1, l2 = dipole(g, (1, 0)), dipole(g, (0, 1))
    # two sites contribute: mu((1,0),(0,1)) at e1 and mu((2,0),(0,2)) at 0
    assert _tilde_phase(mu, l1, l2) == Phase(2, 3)


def test_mu_tilde_is_a_cocycle(rng):
    mu = mod_q_cocycle(3)
    g = mu.group
    for _ in range(500):
        a = random_zero_sum_config(rng, g)
        b = random_zero_sum_config(rng, g)
        c = random_zero_sum_config(rng, g)
        lhs = _tilde_phase(mu, a, b) + _tilde_phase(mu, a + b, c)
        rhs = _tilde_phase(mu, b, c) + _tilde_phase(mu, a, b + c)
        assert lhs == rhs
    zero = Config(g, ())
    assert _tilde_phase(mu, zero, zero) == Phase.ZERO


def _telescoped_phase(mu, lam, order_key=spiral_index):
    """`configs.telescoped` over lam's values in order_key order, as a Phase."""
    ordered = sorted(lam.support, key=lambda item: order_key(item[0]))
    return Phase(telescoped(mu, [coords for _, coords in ordered]), mu.den)


def test_mu_hat_examples():
    mu = mod_q_cocycle(3)
    g = mu.group
    assert mu_hat(mu, Config(g, ())) == Phase.ZERO
    triv = trivial_cocycle(g)
    lam = dipole(g, (1, 1))
    assert mu_hat(triv, lam) == Phase.ZERO
    # dipole of h: spiral order puts the origin first, so the single factor
    # is mu(-h, h)
    h, minus_h = (1, 1), (2, 2)
    assert mu_hat(mu, dipole(g, h)) == mu(minus_h, h)
    assert _telescoped_phase(mu, dipole(g, h)) == mu(minus_h, h)
    assert telescoped(mu, []) == 0
    with pytest.raises(ValueError):
        mu_hat(mu, Config.from_items(g, [(E1, h)]))


def test_mu_hat_telescoping_matches_unitary_product(rng):
    # multiply the basis unitaries of the single-site algebra left to right
    # and compare the accumulated scalar with mu_hat
    mu = to_table(mod_q_cocycle(3))
    g = mu.group
    for _ in range(100):
        lam = random_zero_sum_config(rng, g)
        ordered = sorted(config_items(lam), key=lambda kv: spiral_index(kv[0]))
        acc_phase = Phase.ZERO
        acc_elem = oracles.group_zero(g)
        for _, value in ordered:
            acc_phase = acc_phase + mu(acc_elem.coords, value.coords)
            acc_elem = element_sum(acc_elem, value)
        assert not any(acc_elem.coords)
        assert mu_hat(mu, lam) == acc_phase
        assert _telescoped_phase(mu, lam) == acc_phase


def test_mu_hat_order_independent_for_symmetric_cocycles(rng):
    g = mod_q_group(3)
    b = {
        x: Phase(rng.randrange(8), 8) if any(x) else Phase.ZERO
        for x in g.coordinates()
    }
    shift = coboundary_cocycle(g, b)
    for _ in range(50):
        lam = random_zero_sum_config(rng, g)
        assert mu_hat(shift, lam) == mu_hat(shift, lam, order_key=row_major_key)
        assert _telescoped_phase(shift, lam) == _telescoped_phase(shift, lam, row_major_key)


def test_cocycle_correction_identity_for_cohomologous_pairs(rng):
    # mu~(l1,l2) - mu^(l1) - mu^(l2) + mu^(l1+l2) is a coboundary invariant:
    # equal for any two cohomologous cocycles
    g = mod_q_group(3)
    base = mod_q_cocycle(3)
    for _ in range(4):
        b = {
            x: Phase(rng.randrange(8), 8) if any(x) else Phase.ZERO
            for x in g.coordinates()
        }
        shifted_entries = {
            key: to_table(base).entries[key] + coboundary_cocycle(g, b).entries[key]
            for key in to_table(base).entries
        }
        from tbshift.cocycle import TableCocycle, cohomologous

        other = TableCocycle(g, shifted_entries)
        assert cohomologous(base, other)
        for _ in range(50):
            l1 = random_zero_sum_config(rng, g)
            l2 = random_zero_sum_config(rng, g)

            def invariant(mu, hat=mu_hat):
                return _tilde_phase(mu, l1, l2) - hat(mu, l1) - hat(mu, l2) + hat(mu, l1 + l2)

            assert invariant(base) == invariant(other)
            assert invariant(base, _telescoped_phase) == invariant(other, _telescoped_phase)


def _random_config(rng, g, zero_sum):
    if zero_sum:
        return random_zero_sum_config(rng, g, radius=3)
    items = []
    for _ in range(rng.randrange(0, 5)):
        point = LatticePoint(rng.randint(-3, 3), rng.randint(-3, 3))
        coords = [rng.randint(-5, 5) for _ in range(g.free_rank)]
        coords += [rng.randrange(n) for n in g.torsion]
        items.append((point, coords))
    return Config.from_items(g, items)


def test_total_and_zero_sum_match_a_fold_of_additions(rng):
    # the raw int sums tested mod the orders against one AbElem addition per site
    groups = [AbGroup(2), AbGroup(1, (2,)), AbGroup(2, (2,)), AbGroup(0, (3, 3)),
              AbGroup(1, (4, 6))]
    for g in groups:
        for i in range(200):
            lam = _random_config(rng, g, zero_sum=i % 2 == 0)
            assert lam.is_zero_sum != any(oracles.config_total(lam).coords)
    assert Config(AbGroup(1, (4,)), ()).is_zero_sum


def test_moved_by_matches_a_relocation_through_from_items(rng):
    from tbshift.selftest import random_sl2

    for g in (AbGroup(0, (3, 3)), AbGroup(2, (2,))):
        for _ in range(100):
            lam = _random_config(rng, g, zero_sum=False)
            move = AffineSL2(LatticePoint(rng.randint(-3, 3), rng.randint(-3, 3)),
                             random_sl2(rng))
            relocated = Config.from_items(g, ((act(move, p), v) for p, v in lam.support))
            assert moved_by(lam, move) == relocated


def _twist_cases():
    """(group, cocycle) pairs: bilinear forms with mixed denominators on
    groups with and without a free part, and tables, one of them shifted
    by a coboundary so that it is not bilinear."""
    z = Phase.ZERO
    free = AbGroup(2, (2,))
    mixed = AbGroup(0, (4, 6))
    square = mod_q_group(3)
    shift = coboundary_cocycle(square, {x: Phase(sum(x) % 5, 5) for x in square.coordinates()})
    return [
        oracles.phase_bilinear(free, ((Phase(1, 7), Phase(2, 5), z), (z, z, Phase(1, 2)),
                               (Phase(1, 2), z, Phase(1, 2)))),
        oracles.phase_bilinear(mixed, ((Phase(1, 4), Phase(1, 2)), (z, Phase(5, 6)))),
        mod_q_cocycle(3),
        to_table(oracles.phase_bilinear(mixed, ((Phase(3, 4), z), (Phase(1, 2), Phase(1, 3))))),
        table_from_function(square, lambda g, h: mod_q_cocycle(3)(g, h) + shift(g, h)),
    ]


def test_int_twists_match_their_phase_sums(rng):
    # mu_tilde and telescoped, summed as ints over den by the cocycle's
    # `exponent`, against the Phase sums of the oracles, on raw and reduced
    # values alike
    for mu in _twist_cases():
        g = mu.group
        for i in range(60):
            a, b = _random_config(rng, g, i % 2 == 0), _random_config(rng, g, i % 3 == 0)
            assert _tilde_phase(mu, a, b) == oracles.mu_tilde(mu, a, b)
            assert _tilde_phase(mu, a, a) == oracles.mu_tilde(mu, a, a)
            lam = random_zero_sum_config(rng, g, radius=3)
            for key in (spiral_index, row_major_key):
                assert _telescoped_phase(mu, lam, key) == mu_hat(mu, lam, key)
        for _ in range(30):
            raw = [tuple(rng.randint(-9, 9) for _ in range(g.rank)) for _ in range(2)]
            value = Phase(mu.exponent(*raw), mu.den)
            assert value == mu(g.reduce(raw[0]), g.reduce(raw[1]))


def test_merged_sums_match_the_from_items_fold(rng):
    # the merge of two sorted supports against the old path, which sends
    # every site back through from_items and AbGroup.reduce; on groups with
    # free and torsion parts, with sites that coincide, cancel or not
    for g in (AbGroup(2, (2,)), AbGroup(0, (3, 3)), AbGroup(0, (4, 6))):
        for i in range(300):
            a, b = _random_config(rng, g, i % 2 == 0), _random_config(rng, g, i % 3 == 0)
            for got, want in [
                (a + b, oracles.folded_sum(a, b)),
                (b + a, oracles.folded_sum(b, a)),
                (-a, oracles.folded_negation(a)),
                (a + (-b), oracles.folded_sum(a, oracles.folded_negation(b))),
                (a + (-a), Config(g, ())),
                (a + Config(g, ()), a),
            ]:
                assert got.support == want.support
                assert got == want and hash(got) == hash(want)
                assert got.is_zero_sum != any(oracles.config_total(want).coords)
    with pytest.raises(ValueError, match="different groups"):
        Config(AbGroup(0, (3, 3)), ()) + Config(AbGroup(0, (4, 6)), ())

