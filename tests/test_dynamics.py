import itertools

import pytest

from conftest import deadline
from oracles import (
    act,
    config_items,
    dual_characters,
    element,
    element_neg,
    element_sum,
    group_zero,
    inverse,
    is_dual_fixed,
    moved_by,
    phase_character,
    phase_character_value,
    phase_motion_mul,
    trivial_triplet,
)
from tbshift.abelian import AbGroup, Character
from tbshift.algebra import AlgebraElement
from tbshift.cocycle import trivial_cocycle
from tbshift.configs import Config, dipole
from tbshift.dynamics import (
    Motion,
    Triplet,
    VerifyReport,
    beta,
    mod_q_cocycle,
    mod_q_triplet,
    motion_mul,
    rho,
    verify_motion_relations,
    weak_mixing_witness,
)
from tbshift.lattice import (
    DELTA,
    E1,
    E2,
    ORIGIN,
    XI,
    AffineSL2,
    LatticePoint,
    det2,
    spiral_index,
    spiral_points,
)
from tbshift.scalars import Cyclotomic, Phase
from tbshift.selftest import random_algebra_element, random_point, random_sl2


@pytest.fixture
def trip():
    return mod_q_triplet(3)


def test_triplet_validation():
    trip = mod_q_triplet(3)
    trip.validate()
    with pytest.raises(ValueError, match="nontrivial"):
        Triplet(AbGroup(0), None, None).validate()
    other = mod_q_triplet(5)
    with pytest.raises(ValueError):
        Triplet(trip.group, other.cocycle, trip.character).validate()


def test_motion_identity_is_neutral(trip, rng):
    e = Motion(Character.trivial(trip.group))
    chars = dual_characters(trip.group)
    for _ in range(20):
        a = Motion(rng.choice(chars), AffineSL2(random_point(rng), random_sl2(rng)))
        assert motion_mul(trip, e, a) == a
        assert motion_mul(trip, a, e) == a


def test_motion_translation_twist(trip):
    triv = Character.trivial(trip.group)
    a = Motion(triv, AffineSL2(E1))
    b = Motion(triv, AffineSL2(E2))
    product = motion_mul(trip, a, b)
    assert product.move.translation == LatticePoint(1, 1)
    # det(e1, e2) = 1, so the twist is chi itself
    assert product.char == trip.character


def test_motion_associativity(trip, rng):
    chars = dual_characters(trip.group)
    for _ in range(100):
        a, b, c = (
            Motion(rng.choice(chars), AffineSL2(random_point(rng), random_sl2(rng)))
            for _ in range(3)
        )
        assert motion_mul(trip, motion_mul(trip, a, b), c) == motion_mul(
            trip, a, motion_mul(trip, b, c)
        )


def test_motion_mul_matches_phase_characters(rng):
    # the int rows over the lcm of three denominators against Phase sums,
    # on groups with free and torsion parts and characters of mixed orders
    for g in (AbGroup(1, (4, 6)), AbGroup(2), AbGroup(0, (3, 3))):
        def char():
            return phase_character(g, (
                Phase(rng.randrange(n), n) if n else Phase(rng.randint(-9, 9), rng.randint(1, 12))
                for n in g.orders))

        for _ in range(60):
            t = Triplet(g, trivial_cocycle(g), char())
            a, b = (Motion(char(), AffineSL2(random_point(rng), random_sl2(rng))) for _ in range(2))
            got, want = motion_mul(t, a, b), phase_motion_mul(t, a, b)
            assert got == want
            assert (got.char.ints, got.char.den) == (want.char.ints, want.char.den)
    other = Motion(Character.trivial(AbGroup(0, (3,))))
    with pytest.raises(ValueError, match="different groups"):
        motion_mul(mod_q_triplet(3), Motion(Character.trivial(mod_q_triplet(3).group)), other)


def test_rho_identity(trip, rng):
    e = Motion(Character.trivial(trip.group))
    for _ in range(10):
        x = random_algebra_element(rng, trip.cocycle)
        assert rho(trip, e, x) == x


def test_rho_translation_example(trip):
    # shift a dipole by e2: phase is -chi(h), support moves to {e2, e1+e2}
    g = trip.group
    h = element(g, (1, 0))
    x = AlgebraElement.unit(trip.cocycle, dipole(g, h.coords))
    moved = rho(trip, Motion(Character.trivial(g), AffineSL2(E2)), x)
    (key, coeff), = moved.terms.items()
    assert key == Config.from_items(g, [(E2, element_neg(h).coords), (LatticePoint(1, 1), h.coords)])
    assert coeff == Cyclotomic.from_phase(-phase_character_value(trip.character, h))


def test_rho_matrix_part_has_no_phase(trip, rng):
    for _ in range(20):
        x = random_algebra_element(rng, trip.cocycle)
        gamma = random_sl2(rng)
        moved = rho(trip, Motion(Character.trivial(trip.group), AffineSL2(ORIGIN, gamma)), x)
        move = AffineSL2(ORIGIN, gamma)
        expected = AlgebraElement(
            trip.cocycle, {moved_by(k, move): v for k, v in x.terms.items()}
        )
        assert moved == expected


def test_rho_is_star_homomorphism(trip, rng):
    chars = dual_characters(trip.group)
    for _ in range(25):
        g = Motion(rng.choice(chars), AffineSL2(random_point(rng), random_sl2(rng)))
        a = random_algebra_element(rng, trip.cocycle)
        b = random_algebra_element(rng, trip.cocycle)
        assert rho(trip, g, a * b) == rho(trip, g, a) * rho(trip, g, b)
        assert rho(trip, g, a.star()) == rho(trip, g, a).star()
        assert rho(trip, g, a).trace() == a.trace()


def test_character_part_commutes_with_the_rest(trip, rng):
    chars = dual_characters(trip.group)
    for _ in range(25):
        c = Motion(rng.choice(chars))
        m = Motion(Character.trivial(trip.group), AffineSL2(random_point(rng), random_sl2(rng)))
        x = random_algebra_element(rng, trip.cocycle)
        assert rho(trip, c, rho(trip, m, x)) == rho(trip, m, rho(trip, c, x))


def test_motion_relations(trip, rng):
    samples = []
    for _ in range(50):
        samples.append(
            (
                random_point(rng),
                random_point(rng),
                random_sl2(rng),
                random_algebra_element(rng, trip.cocycle),
            )
        )
    report = verify_motion_relations(trip, samples)
    assert report.ok, report.failures


def test_motion_relations_see_the_character_on_terms_that_are_not_zero_sum(
        trip, rng, monkeypatch):
    # rho(c) multiplies by c of the total content, 0 on a zero-sum
    # configuration, so only terms of other totals show chi^det(k, l)
    samples = [(random_point(rng), random_point(rng), random_sl2(rng),
                _random_element(rng, trip.cocycle)) for _ in range(30)]
    assert verify_motion_relations(trip, samples).ok
    # the right side built from the trivial character instead of chi^det(k, l)
    monkeypatch.setattr(Character, "power", lambda self, n: Character.trivial(self.group))
    report = verify_motion_relations(trip, samples)
    assert not report.ok
    assert {kind for kind, *_ in report.failures} == {"translation"}


def test_verify_report_is_ok_iff_it_lists_no_failure():
    assert VerifyReport([]).ok
    assert not VerifyReport([("trace", 1)]).ok


def test_relations_collapse_for_trivial_character(rng):
    g = AbGroup(0, (3, 3))
    trip = Triplet(g, mod_q_cocycle(3), Character.trivial(g))
    x = random_algebra_element(rng, trip.cocycle)
    k, l = LatticePoint(2, -1), LatticePoint(0, 3)
    triv = Character.trivial(g)
    lhs = rho(trip, Motion(triv, AffineSL2(k)), rho(trip, Motion(triv, AffineSL2(l)), x))
    rhs = rho(trip, Motion(triv, AffineSL2(k + l)), x)
    assert lhs == rhs  # plain shift commutation


def test_beta_requires_zero_sum(trip):
    g = trip.group
    bad = AlgebraElement.unit(
        trip.cocycle, Config.from_items(g, [(E1, (1, 0))])
    )
    with pytest.raises(ValueError, match="zero-sum"):
        beta(trip, DELTA, bad)


def test_beta_examples(trip, rng):
    g = trip.group
    h = (2, 1)
    x = AlgebraElement.unit(trip.cocycle, dipole(g, h))
    assert beta(trip, AffineSL2(), x) == x
    assert beta(trip, DELTA, x) == x  # the dipole lives on the fixed axis
    # beta(xi) relocates the dipole with the expanded phase: xi moves the
    # support {0, e1} to {e1, e2}, and only the value at e1 picks up a twist
    moved = beta(trip, XI, x)
    (key, coeff), = moved.terms.items()
    assert key == moved_by(dipole(g, h), XI)
    assert beta(trip, inverse(XI), moved) == x


def test_beta_preserves_zero_sum_and_trace(trip, rng):
    for _ in range(30):
        x = random_algebra_element(rng, trip.cocycle)
        move = AffineSL2(random_point(rng), random_sl2(rng))
        y = beta(trip, move, x)
        assert y.is_zero_sum_supported
        assert y.trace() == x.trace()


def test_beta_is_an_action(trip, rng):
    for _ in range(20):
        x = random_algebra_element(rng, trip.cocycle)
        a = AffineSL2(random_point(rng), random_sl2(rng))
        b = AffineSL2(random_point(rng), random_sl2(rng))
        assert beta(trip, a, beta(trip, b, x)) == beta(trip, a * b, x)


def test_fixed_point_characterization_finite(trip, rng):
    g = trip.group
    for _ in range(20):
        x = random_algebra_element(rng, trip.cocycle)
        assert is_dual_fixed(trip, x) == x.is_zero_sum_supported
    bad = AlgebraElement.unit(
        trip.cocycle, Config.from_items(g, [(E1, (1, 0))])
    )
    assert not is_dual_fixed(trip, bad)
    assert not bad.is_zero_sum_supported


def test_fixed_point_characterization_infinite():
    lat = AbGroup(2)
    trip = trivial_triplet(lat)
    good = AlgebraElement.unit(trip.cocycle, dipole(lat, (9, -4)))
    bad = AlgebraElement.unit(
        trip.cocycle, Config.from_items(lat, [(E1, (9, -4))])
    )
    assert is_dual_fixed(trip, good)
    assert not is_dual_fixed(trip, bad)


def test_weak_mixing_witness_trivial_case(trip):
    elems = [AlgebraElement.unit(trip.cocycle, Config(trip.group, ()))]
    assert weak_mixing_witness(trip, elems) == ORIGIN


def test_weak_mixing_witness_single_unitary(trip):
    g = trip.group
    x = AlgebraElement.unit(trip.cocycle, dipole(g, (1, 0)))
    k = weak_mixing_witness(trip, [x])
    move = AffineSL2(k)
    shifted = beta(trip, move, x)
    assert (x * shifted).trace() == x.trace() * x.trace()


def test_weak_mixing_witness_random_lists(trip, rng):
    for _ in range(10):
        elems = [
            random_algebra_element(rng, trip.cocycle)
            for _ in range(rng.randrange(1, 4))
        ]
        k = weak_mixing_witness(trip, elems)
        move = AffineSL2(k)
        for a in elems:
            for b in elems:
                assert (a * beta(trip, move, b)).trace() == a.trace() * b.trace()


def _factorises(trip, elems, k):
    move = AffineSL2(k)
    return all(
        (a * beta(trip, move, b)).trace() == a.trace() * b.trace() for a in elems for b in elems
    )


def test_weak_mixing_witness_away_from_the_origin(trip):
    # tr(u(lam) u(lam')) is nonzero only when lam + lam' = 0, so the pair
    # (x, beta(k)(x*)) fails exactly at k = 0 and (x, beta(k)(beta(s)(x*)))
    # exactly at k = -s
    g = trip.group
    x = AlgebraElement.unit(trip.cocycle, dipole(g, (1, 0)))
    wide = AlgebraElement.unit(
        trip.cocycle, Config.from_items(g, [(LatticePoint(3, -2), (1, 2)), (ORIGIN, (2, 1))])
    )
    ring_1 = list(itertools.islice(spiral_points(), 9))
    cases = [
        ([x, x.star()], LatticePoint(1, 0)),
        ([wide, wide.star()], LatticePoint(1, 0)),
        ([x] + [beta(trip, AffineSL2(s), x.star()) for s in ring_1], LatticePoint(2, -1)),
    ]
    for elems, expected in cases:
        k = weak_mixing_witness(trip, elems)
        assert k == expected and k != ORIGIN
        assert _factorises(trip, elems, k)
        for earlier in itertools.islice(spiral_points(), spiral_index(k)):
            assert not _factorises(trip, elems, earlier)


def test_weak_mixing_witness_is_the_first_of_a_brute_scan_to_ring_r_plus_one(trip, rng):
    # R, the largest Chebyshev distance between two sites of the elements,
    # bounds the first witness by ring R + 1; each (a, a*) pair fails at
    # the origin, so the witness lies off it
    for _ in range(6):
        elems = [random_algebra_element(rng, trip.cocycle) for _ in range(rng.randrange(1, 3))]
        elems += [a.star() for a in elems]
        sites = [p for a in elems for cfg in a.terms for p, _ in cfg.support]
        reach = max(max(abs(p.q - s.q), abs(p.r - s.r)) for p in sites for s in sites)
        box = [LatticePoint(q, r) for q in range(-reach - 1, reach + 2)
               for r in range(-reach - 1, reach + 2)]
        first = next(k for k in sorted(box, key=spiral_index) if _factorises(trip, elems, k))
        assert weak_mixing_witness(trip, elems) == first != ORIGIN


def test_weak_mixing_witness_is_none_past_the_bound(trip, monkeypatch):
    # with a trace that is off by one the unit never factorizes, tr(1 1) + 1
    # = 2 against 2 * 2: the search ends after ring 1 instead of running on
    trace = AlgebraElement.trace
    monkeypatch.setattr(AlgebraElement, "trace", lambda self: trace(self) + Cyclotomic.ONE)
    x = AlgebraElement.unit(trip.cocycle, Config(trip.group, ()))
    with deadline(5):
        assert weak_mixing_witness(trip, [x]) is None


def _rho_oracle(t, g, x):
    """rho as it reads: rotate, sum chi(value)^det(k, m) site by site, add
    c of the total, translate; relocations go through from_items and the
    total is a fold of AbElem additions."""

    def relocate(cfg, move):
        return Config.from_items(cfg.group, ((act(move, p), v) for p, v in cfg.support))

    rotate = AffineSL2(ORIGIN, g.move.matrix)
    translate = AffineSL2(g.move.translation)
    out = {}
    for cfg, coeff in x.terms.items():
        rotated = relocate(cfg, rotate)
        phase = Phase.ZERO
        total = group_zero(t.group)
        for point, value in config_items(rotated):
            phase = phase + phase_character_value(t.character, value) * det2(g.move.translation, point)
            total = element_sum(total, value)
        phase = phase + phase_character_value(g.char, total)
        key = relocate(rotated, translate)
        term = coeff * Cyclotomic.from_phase(phase)
        out[key] = out[key] + term if key in out else term
    return AlgebraElement(x.cocycle, out)


def _nontrivial_character(rng, group, free_den=12):
    while True:
        c = phase_character(group, (
            Phase(rng.randrange(n), n) if n else Phase(rng.randrange(free_den), free_den)
            for n in group.orders
        ))
        if any(c.ints):
            return c


def _random_element(rng, cocycle):
    # terms of any total content, so the c(total) part of rho is exercised
    g = cocycle.group
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        items = []
        for _ in range(rng.randrange(1, 4)):
            coords = [rng.randint(-3, 3) for _ in range(g.free_rank)]
            coords += [rng.randrange(n) for n in g.torsion]
            items.append((random_point(rng, 3), coords))
        terms[Config.from_items(g, items)] = Cyclotomic.from_phase(Phase(rng.randrange(12), 12))
    return AlgebraElement(cocycle, terms)


def test_rho_matches_the_relocate_and_sum_oracle(rng):
    # chi and c over equal and over different denominators: rho sums both
    # over their lcm
    dens = set()
    for group, chi_den, c_den in ((AbGroup(0, (3, 3)), 12, 12), (AbGroup(2), 12, 12),
                                  (AbGroup(2, (2,)), 12, 12), (AbGroup(2), 4, 9),
                                  (AbGroup(1, (2,)), 5, 3), (AbGroup(0, (4, 6)), 12, 12)):
        for _ in range(10):
            chi = _nontrivial_character(rng, group, chi_den)
            t = Triplet(group, trivial_triplet(group).cocycle, chi)
            for _ in range(5):
                c = _nontrivial_character(rng, group, c_den)
                dens.add(chi.den == c.den)
                g = Motion(c, AffineSL2(random_point(rng), random_sl2(rng)))
                x = _random_element(rng, t.cocycle)
                assert rho(t, g, x) == _rho_oracle(t, g, x)
    assert dens == {True, False}


def test_translated_keys_are_the_canonical_configs(rng):
    # a translation keeps the support's lexicographic order, so rho and
    # beta build its keys without sorting: each key must equal from_items
    # of the moved sites, with the same support tuple
    for group in (AbGroup(0, (3, 3)), AbGroup(2), AbGroup(1, (2,))):
        t = Triplet(group, trivial_triplet(group).cocycle, _nontrivial_character(rng, group))
        for _ in range(20):
            k = random_point(rng, 5)
            x, z = _random_element(rng, t.cocycle), random_algebra_element(rng, t.cocycle)
            c = _nontrivial_character(rng, group)
            for image, source in ((rho(t, Motion(c, AffineSL2(k)), x), x),
                                  (beta(t, AffineSL2(k), z), z)):
                expected = [Config.from_items(group, [(p + k, v) for p, v in cfg.support])
                            for cfg in source.terms]
                assert list(image.terms) == expected
                assert [key.support for key in image.terms] == [e.support for e in expected]


def test_rho_refuses_a_matrix_outside_sl2(trip, rng):
    # the refusal comes where the motion's AffineSL2 is built
    x = random_algebra_element(rng, trip.cocycle)
    with pytest.raises(ValueError, match="determinant"):
        rho(trip, Motion(Character.trivial(trip.group), AffineSL2(E1, ((2, 0), (0, 1)))), x)


def test_rho_refuses_a_character_of_another_group(trip, rng):
    x = random_algebra_element(rng, trip.cocycle)
    with pytest.raises(ValueError, match="character's group"):
        rho(trip, Motion(Character.trivial(AbGroup(0, (3,)))), x)
