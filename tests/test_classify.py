import copy
import itertools
import json
import pickle
import random
from collections import Counter
from math import gcd, lcm, prod
from pathlib import Path

import pytest

import oracles
from conftest import deadline
from oracles import (
    det_form_cocycle,
    dual_characters,
    element,
    elements,
    enumerate_automorphisms,
    enumerate_isomorphisms,
    generators,
    lattice_det_triplet,
    mapped,
    phase_conditions,
    phase_pi,
    product_triplet,
    row_major_key,
    trivial_triplet,
)
from tbshift import classify, cocycle, selftest
from tbshift.abelian import (
    AbElem,
    AbGroup,
    AbHom,
    Character,
    dual_character,
    group_structure,
    is_isomorphism,
    lazy_product,
)
from tbshift.algebra import AlgebraElement, TensorElement, malleability_unitary
from tbshift.classify import (
    CANONICAL_MOVES,
    PiPhi,
    VerifyReport,
    build_pi,
    centralizer,
    check_conditions,
    decide_conjugacy,
    verify_pi,
)
from tbshift.cocycle import BilinearCocycle, degeneracy_witness, star_bicharacter, trivial_cocycle
from tbshift.configs import Config, dipole
from tbshift.dynamics import Motion, Triplet, beta, mod_q_triplet, motion_mul, rho
from tbshift.lattice import AffineSL2, LatticePoint, spiral_index
from tbshift.scalars import Cyclotomic, Phase
from tbshift.serialize import triplet_from_json
from tbshift.selftest import (
    _random_bilinear,
    _table,
    random_algebra_element,
    random_point,
    random_sl2,
    random_zero_sum_config,
)


@pytest.fixture
def trip3():
    return mod_q_triplet(3)


def random_rational_phase(rng, max_den=40):
    den = rng.randrange(1, max_den + 1)
    return Phase(rng.randrange(den), den)


def test_check_conditions_identity(trip3):
    assert check_conditions(trip3, trip3, AbHom.identity(trip3.group)) == (True, True)


def test_check_conditions_unipotent(trip3):
    phi = AbHom(trip3.group, trip3.group, ((1, 0), (1, 1)))
    assert check_conditions(trip3, trip3, phi) == (True, True)


def test_check_conditions_reflection_flips_the_form():
    # on the lattice, a determinant -1 map negates the star value, so the
    # cocycle condition needs theta_b = -theta_a
    ta = lattice_det_triplet(Phase(1, 16))
    phi = AbHom(ta.group, ta.group, ((1, 0), (0, -1)))
    cocycle_ok, character_ok = check_conditions(ta, ta, phi)
    assert not cocycle_ok and character_ok
    tb = lattice_det_triplet(Phase(15, 16))
    assert check_conditions(ta, tb, phi) == (True, True)


def test_check_conditions_rejects_non_isomorphism(trip3):
    bad = AbHom(trip3.group, trip3.group, ((1, 0), (0, 0)))
    with pytest.raises(ValueError, match="isomorphism"):
        check_conditions(trip3, trip3, bad)


@pytest.mark.parametrize("wrong", ["source", "target"])
def test_a_hom_off_one_triplet_group_is_refused(trip3, wrong):
    # phi is (Z/9)^2 -> (Z/3)^2 or (Z/3)^2 -> (Z/9)^2: one side alone is
    # off the triplets' group, so each guard must test both sides
    g99 = AbGroup(0, (9, 9))
    if wrong == "source":
        phi = AbHom(g99, trip3.group, ((1, 0), (0, 1)))
    else:
        phi = AbHom(trip3.group, g99, ((3, 0), (0, 3)))
    message = "phi does not map between the triplets' groups"
    with pytest.raises(ValueError, match=message):
        check_conditions(trip3, trip3, phi)
    with pytest.raises(ValueError, match=message):
        PiPhi(trip3, trip3, phi)


def test_decide_identical_triplets(trip3):
    report = decide_conjugacy(trip3, trip3)
    assert report.verdict == "YES" and report.complete
    assert report.witness == AbHom.identity(trip3.group)


def test_decide_group_mismatch():
    report = decide_conjugacy(mod_q_triplet(3), mod_q_triplet(5))
    assert report.verdict == "NO" and report.complete
    assert report.decided_by == "groups"


def test_decide_character_square_separation(trip3):
    # same group and cocycle, character replaced by its square: for q = 3
    # squaring permutes the characters, so a witness still exists
    squared = Triplet(trip3.group, trip3.cocycle, trip3.character.power(2))
    report = decide_conjugacy(trip3, squared)
    assert report.complete
    assert report.verdict == "YES"
    assert check_conditions(trip3, squared, report.witness) == (True, True)


def test_decide_finite_negative_case():
    # mod-3 data against the trivial cocycle on the same group: no witness
    ta = mod_q_triplet(3)
    tb = trivial_triplet(ta.group)
    report = decide_conjugacy(ta, tb)
    assert report.verdict == "NO" and report.complete
    assert not report.checks["cocycle"]


def test_lattice_closed_form_separation():
    ta = lattice_det_triplet(Phase(1, 16))
    tb = lattice_det_triplet(Phase(3, 16))
    report = decide_conjugacy(ta, tb)
    assert report.verdict == "NO" and report.complete
    tc = lattice_det_triplet(Phase(15, 16))
    report2 = decide_conjugacy(ta, tc)
    assert report2.verdict == "YES" and report2.complete
    assert report.decided_by == report2.decided_by == "lattice"
    report3 = decide_conjugacy(ta, ta)
    assert report3.verdict == "YES" and report3.witness == AbHom.identity(ta.group)
    # characters that differ by one of order 2 have equal chi^2, though
    # 2 * 3/4 runs past a full turn: the identity, by the closed form
    g = ta.group
    td = lattice_det_triplet(Phase(1, 16), oracles.phase_character(g, (Phase(1, 4), Phase(1, 3))))
    te = lattice_det_triplet(Phase(1, 16), oracles.phase_character(g, (Phase(3, 4), Phase(1, 3))))
    report4 = decide_conjugacy(td, te)
    assert report4.verdict == "YES" and report4.decided_by == "lattice" and report4.complete
    assert report4.witness == AbHom.identity(g)


def _assert_lattice_closed_form_sound(ta, tb, isos):
    """decide_conjugacy on a Z^2 pair against check_conditions and a bound-3 brute search."""
    report = decide_conjugacy(ta, tb)
    if report.verdict == "YES":
        assert report.decided_by == "lattice" and report.complete
        assert check_conditions(ta, tb, report.witness) == (True, True)
    elif report.verdict == "NO":
        assert report.decided_by == "lattice" and report.complete
        assert _brute_conjugacy(ta, tb, isos, False)[0] != "YES"
    else:
        assert report.verdict == "UNKNOWN" and not report.complete
        assert report.decided_by == "bounded-search"
    return report


def test_lattice_closed_form_vs_bounded_enumeration(rng):
    # det forms with trivial characters: the closed form decides every pair
    g = AbGroup(2)
    isos, _ = enumerate_isomorphisms(g, g, 3)
    for i in range(50):
        theta_a = random_rational_phase(rng)
        pick = i % 3
        if pick == 0:
            theta_b = theta_a
        elif pick == 1:
            theta_b = -theta_a
        else:
            theta_b = random_rational_phase(rng)
        ta = lattice_det_triplet(theta_a)
        tb = lattice_det_triplet(theta_b)
        report = _assert_lattice_closed_form_sound(ta, tb, isos)
        assert report.verdict != "UNKNOWN", (theta_a, theta_b)
    # any 2x2 bilinear cocycle, with characters whose squares are often
    # zero (denominators 1 and 2): the second side shares the first's
    # cocycle, transposes it (negating v) or draws its own
    seen = set()
    for i in range(60):
        chi_a = oracles.phase_character(g, tuple(random_rational_phase(rng, 4) for _ in range(2)))
        ta = Triplet(g, _random_form(rng, g), chi_a)
        cocycle = (ta.cocycle, BilinearCocycle(g, tuple(zip(*ta.cocycle.ints)), ta.cocycle.den),
                   _random_form(rng, g))[i % 3]
        chi_b = chi_a if i % 2 else oracles.phase_character(g, tuple(random_rational_phase(rng, 4)
                                                       for _ in range(2)))
        report = _assert_lattice_closed_form_sound(ta, Triplet(g, cocycle, chi_b), isos)
        seen.add((report.verdict, report.witness))
    reflection = AbHom(g, g, ((1, 0), (0, -1)))
    assert seen >= {("YES", AbHom.identity(g)), ("YES", reflection), ("NO", None),
                    ("UNKNOWN", None)}


def test_lattice_unknown_without_bound():
    # equal star values but different characters: the closed form cannot
    # settle it and no bound was given
    g = AbGroup(2)
    chi = oracles.phase_character(g, (Phase(1, 5), Phase.ZERO))
    ta = Triplet(g, det_form_cocycle(Phase(1, 16), g), chi)
    tb = Triplet(g, det_form_cocycle(Phase(1, 16), g), oracles.phase_character(g, (Phase.ZERO, Phase(1, 5))))
    report = decide_conjugacy(ta, tb)
    assert report.verdict == "UNKNOWN" and not report.complete
    # with a bound the swap matrix is found
    report2 = decide_conjugacy(ta, tb, bound=1)
    assert report2.verdict == "YES"
    assert report.decided_by == report2.decided_by == "bounded-search"
    assert check_conditions(ta, tb, report2.witness) == (True, True)


def test_build_pi_identity_fixes_units(trip3, rng):
    pi = build_pi(trip3, trip3, AbHom.identity(trip3.group))
    for _ in range(10):
        lam = dipole(trip3.group, (rng.randrange(3), rng.randrange(3)))
        x = AlgebraElement.unit(trip3.cocycle, lam)
        assert pi(x) == x


def test_build_pi_rejects_failing_conditions():
    ta = lattice_det_triplet(Phase(1, 16))
    phi = AbHom(ta.group, ta.group, ((1, 0), (0, -1)))
    with pytest.raises(ValueError, match="conditions"):
        build_pi(ta, ta, phi)


def test_pi_maps_units_to_single_unimodular_terms(trip3, rng):
    phi = AbHom(trip3.group, trip3.group, ((1, 0), (1, 1)))
    pi = build_pi(trip3, trip3, phi)
    from tbshift.selftest import random_zero_sum_config

    for _ in range(20):
        lam = random_zero_sum_config(rng, trip3.group)
        image = pi(AlgebraElement.unit(trip3.cocycle, lam))
        (key, coeff), = image.terms.items()
        assert key == mapped(lam, phi)
        assert coeff * coeff.conjugate() == type(coeff).ONE
    a = random_algebra_element(rng, trip3.cocycle)
    assert pi(a).trace() == a.trace()


def test_verify_pi_passes_for_valid_witness(trip3, rng, monkeypatch):
    phi = AbHom(trip3.group, trip3.group, ((1, 0), (1, 1)))
    pi = build_pi(trip3, trip3, phi)
    pairs = [
        (random_algebra_element(rng, trip3.cocycle), random_algebra_element(rng, trip3.cocycle))
        for _ in range(25)
    ]
    extra_moves = [AffineSL2(random_point(rng), random_sl2(rng)) for _ in range(5)]
    monkeypatch.setattr(classify, "CANONICAL_MOVES", CANONICAL_MOVES + tuple(extra_moves))
    report = verify_pi(pi, pairs)
    assert report.ok, report.failures[:3]


def test_pi_phase_is_enumeration_independent(trip3, rng, monkeypatch):
    phi = AbHom(trip3.group, trip3.group, ((1, 0), (1, 1)))
    pi = build_pi(trip3, trip3, phi)
    xs = [random_algebra_element(rng, trip3.cocycle) for _ in range(20)]
    spiral = [pi(x) for x in xs]
    monkeypatch.setattr(classify, "spiral_index", row_major_key)
    for x, image in zip(xs, spiral):
        assert image == pi(x)


def _half_shift_pair():
    lat = AbGroup(2)
    ta = Triplet(lat, trivial_cocycle(lat), Character.trivial(lat))
    tb = Triplet(lat, trivial_cocycle(lat), oracles.phase_character(lat, (Phase(1, 2), Phase.ZERO)))
    return ta, tb


def test_corrupted_weight_breaks_equivariance(rng):
    ta, tb = _half_shift_pair()
    pi = build_pi(ta, tb, AbHom.identity(ta.group))
    probes = [
        (
            AlgebraElement.unit(ta.cocycle, dipole(ta.group, (1, 0))),
            AlgebraElement.unit(ta.cocycle, dipole(ta.group, (0, 1))),
        ),
        (random_algebra_element(rng, ta.cocycle), random_algebra_element(rng, ta.cocycle)),
    ]
    assert verify_pi(pi, probes).ok
    mutated = PiPhi(pi.ta, pi.tb, pi.phi, weight=lambda k: 1)
    report = verify_pi(mutated, probes)
    assert not report.ok
    assert any(kind == "equivariance" for kind, *_ in report.failures)


def _pi_cases():
    """PiPhi cases, conditions or not: the half shift on Z^2 (mismatch of
    order two); Z^2 x Z/2 under a shear, bilinear forms whose denominators
    10 and 14 differ from the mismatch's 12; Z/4 x Z/6 under a shear with
    denominators 4, 3 and 6; (Z/3)^2 in table form, one table shifted by a
    coboundary (denominators 15, 24 and 3); a table against a bilinear form."""
    z = Phase.ZERO
    half_a, half_b = _half_shift_pair()
    free = AbGroup(2, (2,))
    free_a = Triplet(free, oracles.phase_bilinear(free, ((z, Phase(1, 5), z), (z, z, z), (z, z, Phase(1, 2)))),
                     oracles.phase_character(free, (Phase(1, 3), Phase(5, 12), Phase(1, 2))))
    free_b = Triplet(free, oracles.phase_bilinear(free, ((Phase(1, 7), z, z), (z, z, Phase(1, 2)), (z, z, z))),
                     oracles.phase_character(free, (Phase(1, 4), Phase(2, 3), Phase(1, 2))))
    mixed = AbGroup(0, (4, 6))
    mixed_a = Triplet(mixed, oracles.phase_bilinear(mixed, ((Phase(1, 4), z), (z, z))),
                      oracles.phase_character(mixed, (z, Phase(1, 6))))
    mixed_b = Triplet(mixed, oracles.phase_bilinear(mixed, ((z, z), (z, Phase(1, 3)))),
                      Character.trivial(mixed))
    t3 = mod_q_triplet(3)
    g3 = t3.group
    shift = oracles.coboundary_cocycle(g3, {x: Phase(x[0] * x[1] % 5, 5) for x in g3.coordinates()})
    table_a = Triplet(g3, oracles.table_from_function(
        g3, lambda g, h: t3.cocycle(g, h) + Phase(h[0] * g[1], 3) + shift(g, h)),
        t3.character)
    eighths = oracles.coboundary_cocycle(g3, {x: Phase(x[0], 8) for x in g3.coordinates()})
    table_b = Triplet(g3, oracles.table_from_function(
        g3, lambda g, h: t3.cocycle(h, g) + eighths(g, h)), oracles.phase_character(g3, (Phase(2, 3), Phase(1, 3))))
    table_a.validate()
    table_b.validate()
    shear3 = AbHom(g3, g3, ((1, 0), (1, 1)))
    return [
        PiPhi(half_a, half_b, AbHom.identity(half_a.group)),
        PiPhi(free_a, free_b, AbHom(free, free, ((1, 1, 0), (0, 1, 0), (0, 1, 1)))),
        PiPhi(mixed_a, mixed_b, AbHom(mixed, mixed, ((1, 0), (3, 1)))),
        PiPhi(table_a, table_b, shear3),
        PiPhi(table_a, Triplet(g3, t3.cocycle, oracles.phase_character(g3, (z, Phase(1, 3)))), shear3),
        PiPhi(t3, Triplet(g3, t3.cocycle, oracles.phase_character(g3, (Phase(2, 3), Phase(1, 3)))), shear3),
    ]


def test_mismatch_and_corrector_match_the_sitewise_formula(rng, monkeypatch):
    # the precomputed character against chi_a(h) - chi_b(phi h), and each
    # integer term of pi (mapped values, both telescoping sums and the
    # gcd-weighted corrector over one denominator) against the oracle that
    # sums them Phase by Phase, the corrector site by site
    cases = _pi_cases()
    dens = [(pi.ta.cocycle.den, pi.tb.cocycle.den, pi.mismatch.den) for pi in cases]
    assert (10, 14, 12) in dens and (4, 3, 6) in dens and (15, 24, 3) in dens
    assert any(not pi.ta.group.is_finite for pi in cases)
    assert any(isinstance(pi.tb.cocycle, cocycle.TableCocycle) for pi in cases)
    for pi in cases:
        ga = pi.ta.group
        assert any(pi.mismatch.ints)
        for _ in range(100):
            coords = [rng.randint(-6, 6) for _ in range(ga.free_rank)]
            h = element(ga, coords + [rng.randrange(n) for n in ga.torsion])
            value = oracles.phase_character_value
            assert value(pi.mismatch, h) == (
                value(pi.ta.character, h) - value(pi.tb.character, oracles.apply_hom(pi.phi, h)))
        for variant, key in ((pi, spiral_index),
                             (PiPhi(pi.ta, pi.tb, pi.phi, weight=lambda k: 1), spiral_index),
                             (pi, row_major_key)):
            monkeypatch.setattr(classify, "spiral_index", key)
            for _ in range(30):
                lam = random_zero_sum_config(rng, ga, radius=3)
                unit = AlgebraElement.unit(pi.ta.cocycle, lam)
                assert variant(unit) == phase_pi(variant, unit, key)
            for _ in range(10):
                x = random_algebra_element(rng, pi.ta.cocycle, terms=4, radius=1)
                assert variant(x) == phase_pi(variant, x, key)


def test_mismatch_scales_a_character_whose_denominator_divides_the_other():
    # chi_a = 1/3 and chi_b = 5/6 on Z/6: chi_a's row is scaled to the
    # common denominator 6 before chi_b's is subtracted, 2/6 - 5/6 = 1/2;
    # dividing it instead gives 0/6 - 5/6 = 1/6, and pi then fails
    g = AbGroup(0, (6,))
    mu = trivial_cocycle(g)
    pi = PiPhi(Triplet(g, mu, Character(g, (1,), 3)), Triplet(g, mu, Character(g, (5,), 6)),
               AbHom.identity(g))
    assert (pi.mismatch.ints, pi.mismatch.den) == ((1,), 2)
    rng = random.Random(1)
    pairs = [(random_algebra_element(rng, mu), random_algebra_element(rng, mu)) for _ in range(20)]
    assert verify_pi(pi, pairs).ok


def test_mismatch_matches_the_phase_values_on_mixed_denominators():
    # chi_b o phi = chi_a - c for a random c of order at most two, so pi
    # intertwines, with denominators that differ and so are scaled to
    # their lcm: the mismatch is c, chi_a(e_j) - chi_b(phi e_j) read as
    # Phases, and pi passes its checks on seeded random pairs
    rng = random.Random(19)
    groups = [AbGroup(0, (6,)), AbGroup(0, (12,)), AbGroup(0, (2, 6)), AbGroup(0, (4, 6))]
    seen = 0
    while seen < 24:
        g = rng.choice(groups)
        chi_a, c = (dual_character(g, rng.randrange(g.order())) for _ in range(2))
        sign = rng.choice((1, -1))  # phi is the identity or the negation
        d = lcm(chi_a.den, c.den)
        chi_b = Character(g, tuple(sign * (a * (d // chi_a.den) - x * (d // c.den))
                                   for a, x in zip(chi_a.ints, c.ints)), d)
        if c.den > 2 or chi_a.den == chi_b.den:
            continue
        seen += 1
        mu = trivial_cocycle(g)
        phi = AbHom(g, g, tuple(tuple(sign * x for x in row) for row in AbHom.identity(g).matrix))
        pi = PiPhi(Triplet(g, mu, chi_a), Triplet(g, mu, chi_b), phi)
        assert pi.mismatch == c
        value = oracles.phase_character_value
        for e in generators(g):
            assert value(pi.mismatch, e) == value(chi_a, e) - value(chi_b, oracles.apply_hom(phi, e))
        pairs = [(random_algebra_element(rng, mu), random_algebra_element(rng, mu)) for _ in range(4)]
        assert verify_pi(pi, pairs).ok


def test_pi_on_a_non_injective_hom_merges_and_cancels_terms(rng):
    # x2 on Z/4 + Z/2 sends many configurations to one image, so terms
    # merge; built directly (no conditions), with and without a mismatch
    g = AbGroup(0, (4, 2))
    double = AbHom(g, g, ((2, 0), (0, 2)))
    mu_a, mu_b = BilinearCocycle(g, ((1, 0), (0, 2)), 4), BilinearCocycle(g, ((0, 2), (0, 0)), 4)
    ta = Triplet(g, mu_a, Character(g, (1, 2), 4))
    for tb in (Triplet(g, mu_b, Character(g, (2, 0), 4)), Triplet(g, mu_b, Character.trivial(g))):
        pi = PiPhi(ta, tb, double)
        units = [AlgebraElement.unit(mu_a, dipole(g, h)) for h in ((1, 0), (3, 1))]
        (k1, a1), = pi(units[0]).terms.items()
        (k2, a2), = pi(units[1]).terms.items()
        assert k1 == k2
        # the second unit scaled so that its image cancels the first's
        x = oracles.combination((1, units[0]), (-(a1 * a2.conjugate()), units[1]))
        assert len(x.terms) == 2 and pi(x).terms == {} and phase_pi(pi, x).terms == {}
        merged = 0
        for _ in range(40):
            x = random_algebra_element(rng, mu_a, terms=4, radius=1)
            image = pi(x)
            assert image == phase_pi(pi, x)
            assert all(any(c.ints) for c in image.terms.values())
            merged += len(image.terms) < len(x.terms)
        assert merged


def test_pi_reads_its_weight_on_every_call():
    # the constants built with the intertwiner leave the weight out: two
    # intertwiners that differ only in it still differ on their next calls
    ta, tb = _half_shift_pair()
    x = AlgebraElement.unit(ta.cocycle, dipole(ta.group, (1, 0)))
    by_gcd = PiPhi(ta, tb, AbHom.identity(ta.group))
    flat = PiPhi(ta, tb, AbHom.identity(ta.group), weight=lambda k: 1)
    first = by_gcd(x), flat(x)
    assert first[0] != first[1]
    assert (by_gcd(x), flat(x)) == first == (phase_pi(by_gcd, x), phase_pi(flat, x))


def _random_bilinear_pairs(rng, count):
    """PiPhis between random bilinear triplets on Z^2, Z + Z/3, Z/4 + Z/6 and
    from Z + Z/3 into Z^2, each phi a random hom (a zero column or a
    non-invertible matrix is common), the cocycles' denominators drawn apart."""
    shapes = [(AbGroup(2), AbGroup(2)), (AbGroup(1, (3,)), AbGroup(1, (3,))),
              (AbGroup(0, (4, 6)), AbGroup(0, (4, 6))), (AbGroup(1, (3,)), AbGroup(2))]
    out = []
    while len(out) < count:
        ga, gb = shapes[len(out) % len(shapes)]
        cols = [rng.choice(list(itertools.product(*ranges)))
                for ranges in classify._pool_ranges(ga, gb, 2)]
        phi = AbHom(ga, gb, tuple(zip(*cols)))
        ta = Triplet(ga, _random_form(rng, ga), _random_character(rng, ga))
        tb = Triplet(gb, _random_form(rng, gb), _random_character(rng, gb))
        out.append(PiPhi(ta, tb, phi))
    return out


def test_the_pulled_back_form_matches_the_phase_oracle(monkeypatch):
    # for two bilinear cocycles pi sums one telescoping form, the pullback
    # s_a A - s_b Phi^T B Phi, over the source values; the oracle maps each
    # term through phi and sums both sides Phase by Phase, in the same order
    rng = random.Random(49)
    cases = _random_bilinear_pairs(rng, 16)
    assert any(pi.ta.cocycle.den != pi.tb.cocycle.den for pi in cases)
    assert any(not is_isomorphism(pi.phi) for pi in cases)
    assert any(any(row) for pi in cases for row in pi.phi.matrix)
    for key in (spiral_index, row_major_key):
        monkeypatch.setattr(classify, "spiral_index", key)
        for pi in cases:
            assert isinstance(pi._pullback[0], BilinearCocycle)
            for _ in range(8):
                x = random_algebra_element(rng, pi.ta.cocycle, terms=3, radius=2)
                assert pi(x) == phase_pi(pi, x, key)


def test_a_bilinear_pair_and_its_table_form_give_the_same_images(rng):
    # the table branch (two telescoping sums, one per side) and the pulled-back
    # form agree term by term, and so does the mixed pair
    t = mod_q_triplet(3)
    g = t.group
    tb = Triplet(g, BilinearCocycle(g, ((1, 2), (0, 1)), 3), Character(g, (2, 1), 3))
    table = {tr: Triplet(g, _table(g, tr.cocycle.exponent_table(), tr.cocycle.den), tr.character)
             for tr in (t, tb)}
    shear = AbHom(g, g, ((1, 0), (1, 1)))
    bilinear = PiPhi(t, tb, shear)
    variants = [PiPhi(a, b, shear) for a, b in ((table[t], table[tb]), (t, table[tb]),
                                                 (table[t], tb))]
    assert [pi._pullback for pi in variants] == [(), (), ()]
    for _ in range(30):
        x = random_algebra_element(rng, t.cocycle, terms=3)
        image = bilinear(x)
        for pi in variants:
            twin = pi(AlgebraElement(pi.ta.cocycle, x.terms))
            assert twin.terms == image.terms and twin.cocycle == pi.tb.cocycle


def _ordered_values(lam: Config, order_key=spiral_index) -> tuple:
    """lam's values with its sites in order_key order: the key of pi's `_phases`."""
    return tuple(v for _, v in sorted(lam.support, key=lambda site: order_key(site[0])))


def test_a_bilinear_term_is_one_telescoping_sum(rng, monkeypatch):
    # one `telescoped` call per distinct ordered value tuple a pi meets, the
    # empty one too: a tuple met again, in this call or an earlier one, is
    # read from `_phases`; a table side keeps one call per side
    calls = []
    real = classify.telescoped

    def counting(mu, values):
        calls.append(mu)
        return real(mu, values)

    monkeypatch.setattr(classify, "telescoped", counting)
    t = mod_q_triplet(3)
    shear = AbHom(t.group, t.group, ((1, 0), (1, 1)))
    table = Triplet(t.group, oracles.to_table(t.cocycle), t.character)
    for pi, per_tuple in ((PiPhi(t, t, shear), 1), (PiPhi(t, table, shear), 2)):
        empty = AlgebraElement.unit(pi.ta.cocycle, Config(t.group, ()))
        xs = [empty] + [random_algebra_element(rng, pi.ta.cocycle, terms=3) for _ in range(20)]
        xs += [a * b for a, b in zip(xs[1::2], xs[2::2])]
        met, terms = set(), 0
        for x in xs + xs[:3]:
            del calls[:]
            pi(x)
            new = {_ordered_values(lam) for lam in x.terms} - met
            met |= new
            terms += len(x.terms)
            assert len(calls) == per_tuple * len(new)
            assert len(pi._phases) == len(met)
        assert len(met) < terms  # the memo was read, not only filled


def _not_zero_sum(group, value):
    """The unit at one site with the given value: never zero-sum."""
    return Config.from_items(group, [(LatticePoint(0, 1), value)])


def test_pi_and_beta_refuse_a_term_that_is_not_zero_sum(trip3, rng):
    # the refusal runs in the pass over the terms: the first, the last or
    # the only term may be the one, and the message is the same
    g, mu = trip3.group, trip3.cocycle
    pi = build_pi(trip3, trip3, AbHom(g, g, ((1, 0), (1, 1))))
    good = [random_zero_sum_config(rng, g) for _ in range(6)]
    good = list(dict.fromkeys(k for k in good if k.support))[:2]
    assert len(good) == 2
    bad = _not_zero_sum(g, (1, 2))
    for keys in ([bad], [bad, *good], [*good, bad]):
        x = AlgebraElement(mu, dict.fromkeys(keys, Cyclotomic.ONE))
        assert list(x.terms) == keys
        with pytest.raises(ValueError, match="^the intertwiner acts on zero-sum-supported elements$"):
            pi(x)
        with pytest.raises(ValueError, match="^beta acts on zero-sum-supported elements only$"):
            beta(trip3, CANONICAL_MOVES[2], x)
        assert rho(trip3, Motion(trip3.character), x).terms  # rho takes any element
    # a free coordinate that sums to 1 while the torsion ones vanish, and
    # the other way round, are both refused; raw sums 0 and 3 are not
    mixed = AbGroup(1, (3,))
    tm = Triplet(mixed, trivial_cocycle(mixed), Character.trivial(mixed))
    pim = PiPhi(tm, tm, AbHom.identity(mixed))
    for values, ok in ((((1, 1), (0, 2)), False), (((1, 1), (-1, 1)), False),
                       (((1, 1), (-1, 2)), True), (((2, 0), (-2, 0)), True)):
        cfg = Config.from_items(mixed, zip((LatticePoint(0, 0), LatticePoint(1, 0)), values))
        x = AlgebraElement.unit(tm.cocycle, cfg)
        if ok:
            assert pim(x) == phase_pi(pim, x) and beta(tm, CANONICAL_MOVES[3], x).terms
        else:
            with pytest.raises(ValueError, match="zero-sum"):
                pim(x)
            with pytest.raises(ValueError, match="zero-sum"):
                beta(tm, CANONICAL_MOVES[3], x)


def test_two_refusals_at_once_keep_the_first_message(trip3):
    # beta refuses the zero-sum fault before the group's; pi the cocycle's
    # before the zero-sum fault
    other = mod_q_triplet(5)
    lone = AlgebraElement.unit(other.cocycle, _not_zero_sum(other.group, (1, 0)))
    with pytest.raises(ValueError, match="^beta acts on zero-sum-supported elements only$"):
        beta(trip3, CANONICAL_MOVES[0], lone)
    dipole5 = AlgebraElement.unit(other.cocycle, dipole(other.group, (1, 0)))
    with pytest.raises(ValueError, match="^element is not over the triplet's group$"):
        beta(trip3, CANONICAL_MOVES[0], dipole5)
    pi = build_pi(trip3, trip3, AbHom.identity(trip3.group))
    for x in (lone, dipole5):
        with pytest.raises(ValueError, match="^element is not over the source triplet$"):
            pi(x)


def test_the_intertwiner_suite_never_reads_is_zero_sum(monkeypatch):
    # the zero-sum guards of pi and beta run in their own passes over each
    # support: with the property refusing, the suite's own pairs (its seed,
    # its Random draws) give the report they give with it
    name = "intertwiner"
    seed = selftest.SEED + sum(map(ord, name))
    before = selftest.suite_intertwiner(random.Random(seed))

    def refuse(self):
        raise AssertionError("Config.is_zero_sum was read")

    monkeypatch.setattr(Config, "is_zero_sum", property(refuse))
    assert selftest.suite_intertwiner(random.Random(seed)) == before
    assert before["ok"] and before["verify_failures"] == 0
    t = mod_q_triplet(3)
    with pytest.raises(AssertionError, match="was read"):
        AlgebraElement.unit(t.cocycle, dipole(t.group, (1, 0))).is_zero_sum_supported


def test_warm_memos_leave_the_images_and_the_value_as_they_are(rng, monkeypatch):
    # the memos of mapped values, rotated coefficients, spiral indices and
    # term phases fill as pi maps terms: another call order, another order
    # function, a copy, a deep copy and a pickle round trip of a warm pi
    # give the same images, equality, hash and repr as a fresh pi, and
    # every private slot holds its memo, never None
    t = mod_q_triplet(3)
    shear = AbHom(t.group, t.group, ((1, 0), (1, 1)))
    tb = Triplet(t.group, BilinearCocycle(t.group, ((1, 2), (0, 1)), 3), Character(t.group, (2, 1), 3))
    xs = [random_algebra_element(rng, t.cocycle, terms=3) for _ in range(20)]
    xs += [a * b for a, b in zip(xs[::2], xs[1::2])]
    for ta, tb_ in ((t, t), (t, tb), (t, Triplet(t.group, oracles.to_table(tb.cocycle), tb.character))):
        forward = PiPhi(ta, tb_, shear)
        images = [forward(x) for x in xs]
        backward = PiPhi(ta, tb_, shear)
        assert [backward(x) for x in reversed(xs)] == images[::-1]
        assert forward._images and forward._rotated and forward._indices and forward._phases
        assert backward._phases == forward._phases
        fresh = PiPhi(ta, tb_, shear)
        if tb_.cocycle.__hash__ is not None:  # a table, and so its pi, is not hashed
            assert hash(forward) == hash(fresh)
        for twin in (copy.copy(forward), copy.deepcopy(forward), pickle.loads(pickle.dumps(forward))):
            assert twin == forward == fresh and repr(twin) == repr(fresh)
            assert [name for name in PiPhi.__slots__ if getattr(twin, name, None) is None] == []
            assert twin._phases == forward._phases
            assert [twin(x) for x in xs] == images
        assert [fresh(x) for x in xs] == images
        # phases met in spiral order serve the row-major order only where
        # the two orders give the same value tuple; from t to itself the
        # pulled-back form is symmetric (the shear has det 1), so there the
        # order moves no phase
        with monkeypatch.context() as patch:
            patch.setattr(classify, "spiral_index", row_major_key)
            by_rows = [PiPhi(ta, tb_, shear)(x) for x in xs]
            assert [forward(x) for x in xs] == by_rows
            assert [phase_pi(forward, x, row_major_key) for x in xs] == by_rows
            assert (by_rows != images) == (tb_ is not t)
        assert [forward(x) for x in xs] == images


def _checked(x, *inputs):
    """x after asserting it is what the checked constructor makes of a copy
    of its terms (each key over the cocycle's group, zeros pruned), holds no
    zero and shares no terms dict with an input."""
    twin = type(x)(x.cocycle, dict(x.terms))
    assert type(twin) is type(x) and twin == x and x.terms == twin.terms
    assert all(any(c.ints) for c in x.terms.values())
    assert all(k.group == x.cocycle.group for k in x.terms)
    assert all(x.terms is not y.terms for y in inputs)
    return x


def _cancelling(pi, lam1, lam2, coeff):
    """coeff u(lam1) + b u(lam2), lam1 and lam2 sent by pi's phi to one key,
    with b = -coeff z1 / z2 for the roots z1, z2 that pi gives the two
    units, so that the two images cancel (1 / z2 is z2's conjugate)."""
    mu = pi.ta.cocycle
    (z1,), (z2,) = (pi(AlgebraElement.unit(mu, lam)).terms.values() for lam in (lam1, lam2))
    return AlgebraElement(mu, {lam1: coeff, lam2: -(coeff * z1 * z2.conjugate())})


def test_built_elements_are_their_checked_rebuild(rng):
    # the product, the adjoint, rho, beta and pi keep the dict they build
    # (`AlgebraElement.adopt`, no copy and no check): on seeded random
    # elements each output is the checked constructor's element of its own
    # terms, also where terms merge onto one key and where merged terms cancel
    t = mod_q_triplet(3)
    mu, g = t.cocycle, t.group
    xs = [random_algebra_element(rng, mu, terms=rng.randrange(1, 5)) for _ in range(16)]
    merges = cancels = 0
    for a, b in zip(xs, xs[1:] + xs[:1]):
        for x in (a * b, a * a.star(), a.star(), _checked(a.star()).star()):
            _checked(x, a, b)
        merges += len((a * a.star()).terms) < len(a.terms) ** 2  # onto the empty key
    # (1 + u)(1 - u) = 1 - u u: the two cross terms cancel at lam
    for _ in range(10):
        lam = Config(g, ())
        while not lam.support:
            lam = random_zero_sum_config(rng, g)
        z = Cyclotomic.ONE.rotated(rng.randrange(12), 12)
        plus, minus = (AlgebraElement(mu, {Config(g, ()): z, lam: s * z}) for s in (1, -1))
        prod = _checked(plus * minus, plus, minus)
        twist = Cyclotomic.from_phase(oracles.mu_tilde(mu, lam, lam))
        assert prod == AlgebraElement(mu, {Config(g, ()): z * z, lam + lam: -(z * z * twist)})
        cancels += 1
    # V V* = |H|: every term but the unit's cancels, and the product stays a TensorElement
    v = malleability_unitary(mu)
    square = _checked(v * _checked(v.star(), v), v)
    assert type(square) is TensorElement and list(square.terms.values()) == [Cyclotomic.ONE * 9]
    for x in xs:
        for _ in range(3):
            move = AffineSL2(random_point(rng), random_sl2(rng))
            char = dual_character(g, rng.randrange(9))
            _checked(rho(t, Motion(char, move), x), x)
            _checked(beta(t, move, x), x)
    # pi through an injective shear, a projection (two values onto one) and
    # the zero hom (every term onto the empty key)
    for matrix in (((1, 0), (1, 1)), ((1, 0), (0, 0)), ((0, 0), (0, 0))):
        pi = PiPhi(t, t, AbHom(g, g, matrix))
        for x in xs:
            assert _checked(pi(x), x) == phase_pi(pi, x)
        if matrix[0] == (1, 0):
            continue
        for _ in range(10):
            lam1 = random_zero_sum_config(rng, g)
            lam2 = lam1 + dipole(g, (0, rng.randrange(1, 3)))  # the same image
            z = Cyclotomic.ONE.rotated(rng.randrange(12), 12)
            x = _cancelling(pi, lam1, lam2, z)
            y = AlgebraElement(mu, {**x.terms, **rng.choice(xs).terms})
            assert _checked(pi(x), x).terms == {} and pi(x) == phase_pi(pi, x)
            assert _checked(pi(y), y) == phase_pi(pi, y)
            cancels += 1
    assert merges and cancels >= 20


def test_pi_refuses_an_image_off_the_target_cocycles_group(trip3):
    # phi's target is the target character's group; a target cocycle over
    # another group takes no nonzero image, with the constructor's message,
    # and the empty element maps to the empty element over that cocycle
    g = trip3.group
    on_z2 = BilinearCocycle(AbGroup(2), ((0, 1), (0, 0)), 3)  # pulled back to (Z/3)^2
    for other in (on_z2, oracles.to_table(mod_q_triplet(5).cocycle)):
        pi = PiPhi(trip3, Triplet(g, other, trip3.character), AbHom.identity(g))
        for x in (AlgebraElement.unit(trip3.cocycle, dipole(g, (1, 0))),
                  AlgebraElement.unit(trip3.cocycle, Config(g, ()))):
            with pytest.raises(ValueError, match="^configuration over another group than the cocycle's$"):
                pi(x)
        empty = pi(AlgebraElement(trip3.cocycle, {}))
        assert empty.cocycle == other and empty.terms == {}


def test_pi_evaluates_no_cocycle_value(monkeypatch, rng):
    # the intertwiner, the twists of its products and rho run on the
    # cocycles' integer `exponent`: with both __call__s refusing, they still
    # give what they gave before
    cases = [pi for pi in _pi_cases() if pi.ta.group.rank > 1]
    runs = []
    for pi in cases:
        a = random_algebra_element(rng, pi.ta.cocycle)
        b = random_algebra_element(rng, pi.ta.cocycle)
        move = Motion(pi.ta.character, AffineSL2(random_point(rng), random_sl2(rng)))
        runs.append((pi, a, b, move, (pi(a), a * b, rho(pi.ta, move, a))))

    def refuse(self, g, h):
        raise AssertionError("a cocycle value was evaluated")

    monkeypatch.setattr(cocycle.BilinearCocycle, "__call__", refuse)
    monkeypatch.setattr(cocycle.TableCocycle, "__call__", refuse)
    for pi, a, b, move, before in runs:
        assert (pi(a), a * b, rho(pi.ta, move, a)) == before
        with pytest.raises(AssertionError, match="evaluated"):
            zero = oracles.group_zero(pi.ta.group).coords
            pi.ta.cocycle(zero, zero)


def test_verify_pi_builds_no_group_element(monkeypatch):
    # the term loop reads canonical coordinates: config sums and negations
    # merge the sorted supports, the zero-sum test sums raw coordinates and
    # pi reduces each mapped site inline.  With AbGroup.reduce and
    # AbElem.__init__ refusing, verify_pi on the same prebuilt mod-3 pairs
    # (a fresh copy) gives the same report
    t = mod_q_triplet(3)
    phis = [AbHom(t.group, t.group, m) for m in (((1, 0), (1, 1)), ((2, 0), (0, 2)))]

    def pairs():
        rng = random.Random(28)
        return [(random_algebra_element(rng, t.cocycle, terms=3),
                 random_algebra_element(rng, t.cocycle, terms=3)) for _ in range(12)]

    before = [verify_pi(PiPhi(t, t, phi), pairs()) for phi in phis]
    fresh = pairs()

    def refuse(self, *args):
        raise AssertionError("a group element was built")

    monkeypatch.setattr(AbGroup, "reduce", refuse)
    monkeypatch.setattr(AbElem, "__init__", refuse)
    after = [verify_pi(PiPhi(t, t, phi), fresh) for phi in phis]
    assert [(r.ok, r.failures) for r in after] == [(r.ok, r.failures) for r in before]
    assert [r.ok for r in after] == [True, False]
    with pytest.raises(AssertionError, match="built"):
        element(t.group, (1, 0))


def test_integer_form_builders_make_no_phase_and_homs_no_group_element(monkeypatch):
    # characters and cocycles are built from int rows: mod_q_triplet, the
    # dual, power, motion_mul and PiPhi.mismatch give what they gave
    # before with Phase.__init__ refusing, and AbHom checks its
    # columns on the integer matrix with AbElem.__init__ refusing
    shear = ((1, 0), (1, 1))

    def characters():
        t = mod_q_triplet(3)
        chars = dual_characters(t.group)
        a = Motion(chars[4].power(5), AffineSL2(LatticePoint(1, 2), ((1, 1), (0, 1))))
        b = Motion(chars[7], AffineSL2(LatticePoint(-2, 1), ((0, -1), (1, 0))))
        other = Triplet(t.group, t.cocycle, chars[5])
        return t, chars, motion_mul(t, a, b), PiPhi(t, other, AbHom(t.group, t.group, shear)).mismatch

    homs = [(AbGroup(0, (3, 3)), AbGroup(0, (3, 3)), shear),
            (AbGroup(1, (4, 6)), AbGroup(2, (2, 12)), ((3, 0, 0), (-1, 0, 0), (5, 1, 3), (7, 3, 2))),
            (AbGroup(0, (2,)), AbGroup(1, (4,)), ((0,), (6,)))]

    def matrices():
        return [AbHom(s, t, m).matrix for s, t, m in homs] + [AbHom.identity(homs[1][0]).matrix]

    before, canonical = characters(), matrices()

    def refuse(self, *args):
        raise AssertionError("a Phase or a group element was built")

    monkeypatch.setattr(Phase, "__init__", refuse)
    monkeypatch.setattr(AbElem, "__init__", refuse)
    assert characters() == before
    assert matrices() == canonical
    assert canonical[1] == ((3, 0, 0), (-1, 0, 0), (1, 1, 1), (7, 3, 2))
    with pytest.raises(ValueError, match="generator 0 of order 2 maps to an incompatible"):
        AbHom(AbGroup(0, (2,)), AbGroup(1, (4,)), ((0,), (1,)))
    with pytest.raises(AssertionError, match="built"):
        Phase(1, 3)


def _verify_pi_one_check_at_a_time(pi, pairs, moves=CANONICAL_MOVES):
    """verify_pi with every check computing its own pi(a) and pi(b)."""
    failures = []
    for a, b in pairs:
        if pi(a * b) != pi(a) * pi(b):
            failures.append(("product", a, b))
        if pi(a.star()) != pi(a).star():
            failures.append(("star", a))
        if pi(a).trace() != a.trace():
            failures.append(("trace", a))
        for move in moves:
            if pi(beta(pi.ta, move, a)) != beta(pi.tb, move, pi(a)):
                failures.append(("equivariance", move, a))
    return VerifyReport(failures)


def test_verify_pi_reports_what_one_check_at_a_time_reports(rng, monkeypatch):
    t3 = mod_q_triplet(3)
    good = build_pi(t3, t3, AbHom(t3.group, t3.group, ((1, 0), (1, 1))))
    ta, tb = _half_shift_pair()
    half = build_pi(ta, tb, AbHom.identity(ta.group))
    weightless = PiPhi(half.ta, half.tb, half.phi, weight=lambda k: 1)
    # the phase is enumeration-independent while phi keeps the star form,
    # so a wrong order key shows only on a phi that does not: (1, 0; 0, 2)
    # doubles the mod-3 form
    unkept = PiPhi(good.ta, good.tb, AbHom(t3.group, t3.group, ((1, 0), (0, 2))))

    def reversed_key(k):
        return -spiral_index(k)

    t3_pairs = [
        (random_algebra_element(rng, t3.cocycle), random_algebra_element(rng, t3.cocycle))
        for _ in range(6)
    ]
    half_pairs = [
        (
            AlgebraElement.unit(ta.cocycle, dipole(ta.group, (1, 0))),
            AlgebraElement.unit(ta.cocycle, dipole(ta.group, (0, 1))),
        ),
        (random_algebra_element(rng, ta.cocycle), random_algebra_element(rng, ta.cocycle)),
    ]
    cases = [
        (good, spiral_index, t3_pairs, True),
        (good, row_major_key, t3_pairs, True),
        (weightless, spiral_index, half_pairs, False),
        (unkept, spiral_index, t3_pairs, False),
        (unkept, reversed_key, t3_pairs, False),
    ]
    kinds, failures = set(), []
    for pi, key, pairs, ok in cases:
        monkeypatch.setattr(classify, "spiral_index", key)
        report = verify_pi(pi, pairs)
        oracle = _verify_pi_one_check_at_a_time(pi, pairs)
        assert report.ok == oracle.ok == ok
        assert report.failures == oracle.failures
        kinds.update(kind for kind, *_ in report.failures)
        failures.append(report.failures)
    # unkept in spiral order against unkept in reversed order
    assert failures[3] != failures[4]
    assert kinds == {"product", "star", "equivariance"}


def test_conjugacy_yes_witnesses_verify(rng):
    # soundness: every YES witness actually intertwines the actions
    cases = [
        (mod_q_triplet(3), mod_q_triplet(3)),
        (lattice_det_triplet(Phase(1, 16)), lattice_det_triplet(Phase(15, 16))),
    ]
    for ta, tb in cases:
        report = decide_conjugacy(ta, tb)
        assert report.verdict == "YES"
        pi = build_pi(ta, tb, report.witness)
        pairs = [
            (random_algebra_element(rng, ta.cocycle), random_algebra_element(rng, ta.cocycle))
            for _ in range(10)
        ]
        assert verify_pi(pi, pairs).ok


def test_centralizer_mod_q():
    for q in (3, 5, 7):
        rep = centralizer(mod_q_triplet(q))
        assert rep.verdict == "OK" and rep.complete
        assert len(rep.elements) == q
        assert rep.structure.invariant_factors == (q,)
        for phi in rep.elements:
            assert phi.matrix[0] == (1, 0) and phi.matrix[1][1] == 1


def test_centralizer_conditions_hold(trip3):
    rep = centralizer(trip3)
    for phi in rep.elements:
        assert check_conditions(trip3, trip3, phi) == (True, True)


def test_centralizer_is_closed(trip3):
    rep = centralizer(trip3)
    pool = set(rep.elements)
    ident = AbHom.identity(trip3.group)
    assert ident in pool
    for f in pool:
        for g in pool:
            assert oracles.compose(f, g) in pool
        assert any(oracles.compose(f, g) == ident for g in pool)


def test_centralizer_orbit_consistency(trip3):
    # precomposing by a centralizer element does not change the conditions
    rep = centralizer(trip3)
    outside = [
        phi
        for phi in enumerate_automorphisms(trip3.group)
        if phi not in set(rep.elements)
    ]
    for phi in outside[:10]:
        base = check_conditions(trip3, trip3, phi)
        for c in rep.elements:
            assert check_conditions(trip3, trip3, oracles.compose(phi, c)) == base


def test_centralizer_trivial_data():
    rep = centralizer(trivial_triplet(AbGroup(0, (3,))))
    assert len(rep.elements) == 2
    assert rep.structure.invariant_factors == (2,)


def test_centralizer_product():
    trip = product_triplet(mod_q_triplet(3), mod_q_triplet(5))
    rep = centralizer(trip)
    assert len(rep.elements) == 15
    assert rep.structure.invariant_factors == (15,)
    assert rep.structure.description == "Z/15"


def _symplectic_order(n, p):
    """|Sp(2n, p)| = p^(n^2) * prod_{i=1..n} (p^(2i) - 1)."""
    order = p ** (n * n)
    for i in range(1, n + 1):
        order *= p ** (2 * i) - 1
    return order


def _standard_symplectic_triplet(n, p, chi_first):
    """(Z/p)^(2n) with mu(s, t) = sum_i s_(2i-1) t_(2i) / p and chi = (chi_first, 0, ...)."""
    group = AbGroup(0, (p,) * (2 * n))
    rows = [[Phase.ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = Phase(1, p)
    phases = (chi_first,) + (Phase.ZERO,) * (2 * n - 1)
    cocycle = oracles.phase_bilinear(group, tuple(tuple(row) for row in rows))
    return Triplet(group, cocycle, oracles.phase_character(group, phases))


@pytest.mark.parametrize(
    "n, p, chi_first, order",
    [(1, p, Phase.ZERO, p * (p * p - 1)) for p in (3, 5, 7)]
    + [(1, p, Phase(1, p), p) for p in (3, 5, 7)]
    + [(2, 2, Phase.ZERO, 720), (2, 3, Phase(1, 3), 648)],
)
def test_centralizer_order_matches_symplectic_closed_form(n, p, chi_first, order):
    # the star form is the standard symplectic form, so the centralizer is
    # Sp(2n, p) when chi^2 is trivial and the stabilizer of the nonzero
    # vector chi^2 otherwise (Wall 1963; Kleppner 1965)
    expected = _symplectic_order(n, p)
    if chi_first * 2 != Phase.ZERO:
        expected //= p ** (2 * n) - 1
    assert expected == order
    rep = centralizer(_standard_symplectic_triplet(n, p, chi_first))
    assert rep.verdict == "OK" and rep.complete
    assert len(rep.elements) == rep.structure.order == order


def _hom_order(f):
    ident = AbHom.identity(f.source)
    k, power = 1, f
    while power != ident:
        power, k = oracles.compose(power, f), k + 1
    return k


def _structure_cases():
    for path in sorted((Path(__file__).resolve().parent.parent / "triplets").glob("*.json")):
        t = triplet_from_json(json.loads(path.read_text("utf-8")))
        if t.group.is_finite:
            yield t
    rng = random.Random(6)
    for torsion in [(2, 2), (3, 3), (2, 4), (4, 4), (2, 6), (2, 2, 2), (5, 5), (2, 2, 4)]:
        for _ in range(3):
            group = AbGroup(0, torsion)
            yield Triplet(group, _random_bilinear(rng, group), _random_character(rng, group))


def test_centralizer_structure_against_element_orders():
    kinds = set()
    for t in _structure_cases():
        rep = centralizer(t)
        structure = rep.structure
        assert structure.order == len(rep.elements)
        kinds.add(structure.abelian)
        if structure.abelian:
            model = AbGroup(0, structure.invariant_factors)
            assert Counter(map(_hom_order, rep.elements)) == Counter(
                oracles.element_order(x) for x in elements(model)
            )
        else:
            x, y = structure.noncommuting
            assert x in rep.elements and y in rep.elements
            assert oracles.compose(x, y) != oracles.compose(y, x)
    assert kinds == {True, False}


@pytest.mark.parametrize("t", [mod_q_triplet(3), trivial_triplet(AbGroup(0, (4, 4)))],
                         ids=["mod3", "Z4xZ4-trivial"])
def test_centralizer_builds_one_hom_per_listed_element(t, monkeypatch):
    # the structure composes inside the listing, so the search's hits are
    # the only AbHoms built (|C| = 3, and 96 with a nonabelian C)
    built = []
    real = AbHom.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(AbHom, "__init__", counted)
    rep = centralizer(t)
    assert len(built) == len(rep.elements) == rep.structure.order


def test_centralizer_structure_matches_the_oracle_composition():
    # random finite bilinear triplets of order <= 64: the structure read
    # by composing inside the listing is the one oracles.compose gives
    rng = random.Random(47)
    kinds = set()
    with deadline(20):
        for _ in range(40):
            torsion = tuple(rng.choice((2, 3, 4, 5, 6, 8)) for _ in range(rng.randint(1, 3)))
            if prod(torsion) > 64:
                continue
            group = AbGroup(0, torsion)
            rep = centralizer(Triplet(group, _random_bilinear(rng, group),
                                      _random_character(rng, group)))
            assert rep.structure == group_structure(rep.elements, oracles.compose)
            kinds.add(rep.structure.abelian)
    assert kinds == {True, False}


def test_centralizer_lattice_cases():
    # trivial squared character: the whole matrix group commutes
    rep = centralizer(lattice_det_triplet(Phase(1, 16)))
    assert rep.verdict == "INFINITE" and "SL(2,Z)" in rep.note
    rep2 = centralizer(trivial_triplet(AbGroup(2)))
    assert rep2.verdict == "INFINITE" and "GL(2,Z)" in rep2.note
    # star value 2 * 1/4 = 1/2 of order 2: det -1 keeps it too
    rep5 = centralizer(lattice_det_triplet(Phase(1, 4)))
    assert rep5.verdict == "INFINITE" and "GL(2,Z)" in rep5.note
    # a character of order 2 squares to zero
    half = oracles.phase_character(AbGroup(2), (Phase(1, 2), Phase(1, 2)))
    rep6 = centralizer(lattice_det_triplet(Phase(1, 16), half))
    assert rep6.verdict == "INFINITE" and "SL(2,Z)" in rep6.note
    # nontrivial character: no closed form, bounded search only
    g = AbGroup(2)
    trip = Triplet(g, det_form_cocycle(Phase(1, 16), g), oracles.phase_character(g, (Phase(1, 5), Phase.ZERO)))
    rep3 = centralizer(trip)
    assert rep3.verdict == "UNKNOWN" and not rep3.complete
    rep4 = centralizer(trip, bound=1)
    assert rep4.verdict == "OK" and not rep4.complete
    assert AbHom.identity(g) in rep4.elements


def test_bounded_lattice_pair_lifts_each_star_form_once(monkeypatch):
    # equal star values, chi^2 of orders 5 and 3: the closed form leaves
    # the pair open and the bound-2 search ends UNKNOWN.  One
    # `_integer_forms` lifts each side's star form once for the whole call,
    # and a centralizer lifts its one cocycle once.
    calls = []

    def counted(mu):
        calls.append(mu)
        return star_bicharacter(mu)

    monkeypatch.setattr(cocycle, "star_bicharacter", counted)
    monkeypatch.setattr(classify, "star_bicharacter", counted)
    g = AbGroup(2)
    ta, tb = (lattice_det_triplet(Phase(1, 16), oracles.phase_character(g, (phase, Phase.ZERO)))
              for phase in (Phase(1, 5), Phase(1, 3)))
    report = decide_conjugacy(ta, tb, bound=2)
    assert report.verdict == "UNKNOWN" and report.decided_by == "bounded-search"
    assert len(calls) == 2
    calls.clear()
    assert centralizer(ta, bound=2).verdict == "OK"
    assert len(calls) == 1


def _brute_conjugacy(ta, tb, isos, complete):
    """(verdict, witness, checks) from phase_conditions on every isomorphism."""
    seen = {"cocycle": False, "character": False}
    for phi in isos:
        c_ok, x_ok = phase_conditions(ta, tb, phi)
        if c_ok and x_ok:
            return "YES", phi, {"cocycle": True, "character": True}
        seen["cocycle"] = seen["cocycle"] or c_ok
        seen["character"] = seen["character"] or x_ok
    return ("NO" if complete else "UNKNOWN"), None, seen


def _random_form(rng, group):
    """Random bilinear cocycle; free-free entries get denominators 4 to 16."""
    if group.is_finite:
        return _random_bilinear(rng, group)
    rows = []
    for i in range(group.rank):
        row = []
        for j in range(group.rank):
            n = gcd(group.orders[i], group.orders[j]) or rng.choice((4, 8, 16))
            row.append(Phase(rng.randrange(n), n))
        rows.append(tuple(row))
    return oracles.phase_bilinear(group, tuple(rows))


def _random_character(rng, group):
    # free generators get a phase of order 5, so chi^2 is nontrivial there
    return oracles.phase_character(group, tuple(
        Phase(rng.randrange(n), n) if n else Phase(rng.randrange(1, 5), 5)
        for n in group.orders
    ))


def _pushforward(t, psi):
    """The triplet that psi^-1 maps t to: data pulled back through psi."""
    g = psi.source
    images = [oracles.apply_hom(psi, e) for e in generators(g)]
    matrix = tuple(tuple(t.cocycle(x.coords, y.coords) for y in images) for x in images)
    chi = oracles.phase_character(g, tuple(oracles.phase_character_value(t.character, x)
                                           for x in images))
    return Triplet(g, oracles.phase_bilinear(g, matrix), chi)


def _oracle_pair(rng, group, isos, pick):
    """A YES pair built by pullback (pick 0), or partly shared random data."""
    ta = Triplet(group, _random_form(rng, group), _random_character(rng, group))
    if pick == 0:
        return ta, _pushforward(ta, rng.choice(isos))
    cocycle = ta.cocycle if pick == 1 else _random_form(rng, group)
    character = ta.character if pick == 2 else _random_character(rng, group)
    return ta, Triplet(group, cocycle, character)


def _assert_search_matches_brute(ta, tb, isos, bound):
    report = decide_conjugacy(ta, tb, bound=bound)
    assert report.complete == (bound is None)
    verdict, witness, checks = _brute_conjugacy(ta, tb, isos, report.complete)
    assert (report.verdict, report.witness, report.checks) == (verdict, witness, checks)
    return verdict


FINITE_ORACLE_GROUPS = [(n, n) for n in range(2, 7)] + [(2, 4), (2, 6), (2, 2, 2)]


def test_search_matches_brute_oracle_finite():
    # per group: a pullback YES pair and one pair with partly shared data,
    # whose first triplet also gets its centralizer compared
    rng = random.Random(4)
    verdicts = []
    for index, torsion in enumerate(FINITE_ORACLE_GROUPS):
        group = AbGroup(0, torsion)
        isos, complete = enumerate_isomorphisms(group, group)
        assert complete
        for pick in (0, 1 + index % 3):
            ta, tb = _oracle_pair(rng, group, isos, pick)
            verdicts.append(_assert_search_matches_brute(ta, tb, isos, None))
        expected = tuple(phi for phi in isos if all(phase_conditions(ta, ta, phi)))
        assert centralizer(ta).elements == expected
    assert verdicts[::2] == ["YES"] * len(FINITE_ORACLE_GROUPS)
    assert "NO" in verdicts


def _assert_invariants_sound(ta, tb, isos):
    """decide_conjugacy against the brute oracle and the invariants; returns its report."""
    report = decide_conjugacy(ta, tb)
    verdict, witness, checks = _brute_conjugacy(ta, tb, isos, True)
    assert (report.verdict, report.witness, report.checks) == (verdict, witness, checks)
    d, (star_a, chi_a), (star_b, chi_b) = classify._integer_forms(ta, tb)
    inv_a = classify._invariants(ta.group, star_a, chi_a, d)
    inv_b = classify._invariants(tb.group, star_b, chi_b, d)
    for key, a, b in zip(("cocycle", "character"), inv_a, inv_b):
        if a != b:
            assert not checks[key]
    assert report.decided_by == ("search" if inv_a == inv_b else "invariants")
    return report


def test_invariant_nos_match_brute_oracle():
    # independent random data on each side: where the invariants of a
    # condition differ, no isomorphism meets it, and a NO they decide has
    # the verdict, witness and checks of the plain search
    rng = random.Random(16)
    branches = Counter()
    for torsion in FINITE_ORACLE_GROUPS + [(2, 2, 4)]:
        group = AbGroup(0, torsion)
        isos, _ = enumerate_isomorphisms(group, group)
        for _ in range(4):
            ta, tb = (Triplet(group, _random_bilinear(rng, group), _random_character(rng, group))
                      for _ in range(2))
            branches[_assert_invariants_sound(ta, tb, isos).decided_by] += 1
    assert branches["invariants"] >= 3 and branches["search"] >= 3
    # chi^2 = (1/2, 0) and (0, 1/2) on Z/4 x Z/8 have the same order but
    # lie in different automorphism orbits (the first is twice a character
    # and no more, the second four times one), so only the search finds
    # this NO
    group = AbGroup(0, (4, 8))
    ta, tb = (Triplet(group, trivial_cocycle(group), oracles.phase_character(group, phases))
              for phases in ((Phase(1, 4), Phase.ZERO), (Phase.ZERO, Phase(1, 4))))
    isos, _ = enumerate_isomorphisms(group, group)
    report = _assert_invariants_sound(ta, tb, isos)
    assert report.decided_by == "search"
    assert report.checks == {"cocycle": True, "character": False}


def test_invariants_match_the_smith_cokernel_route():
    # the image and radical blocks of one Hermite pass give the invariants
    # of the Smith forms of the 2r x r cokernel and of the integer-kernel
    # radical, on random finite groups with composite orders
    rng = random.Random(44)
    decided = Counter()
    for _ in range(1500):
        group = AbGroup(0, tuple(rng.choice((2, 3, 4, 6, 8, 9, 12)) for _ in range(rng.randint(1, 4))))
        t = Triplet(group, _random_bilinear(rng, group), _random_character(rng, group))
        d, (star, chi), _ = classify._integer_forms(t, t)
        invariants = classify._invariants(group, star, chi, d)
        assert invariants == oracles.cokernel_invariants(group, star, chi, d)
        decided[bool(invariants[0][0]), bool(invariants[0][1])] += 1
    assert len(decided) >= 3
    # Z/2 x Z/6 against Z/2 x Z/2 x Z/3: a pullback keeps every invariant
    # across the two presentations
    ga, gb = AbGroup(0, (2, 2, 3)), AbGroup(0, (2, 6))
    isos = enumerate_isomorphisms(gb, ga)[0]
    for _ in range(20):
        ta = Triplet(ga, _random_bilinear(rng, ga), _random_character(rng, ga))
        tb = _pushforward(ta, rng.choice(isos))
        d, (star_a, chi_a), (star_b, chi_b) = classify._integer_forms(ta, tb)
        inv_a = classify._invariants(ga, star_a, chi_a, d)
        assert inv_a == classify._invariants(gb, star_b, chi_b, d)
        assert inv_a == oracles.cokernel_invariants(ga, star_a, chi_a, d)
        assert inv_a == oracles.cokernel_invariants(gb, star_b, chi_b, d)


def test_rank_forty_invariants_witness_and_conjugate_keep_their_deadlines():
    # (Z/2)^40 with a random star form: the one Hermite pass runs over 80
    # columns, and the search that follows is refused as too large
    rng = random.Random(40)
    group = AbGroup(0, (2,) * 40)
    t = Triplet(group, _random_bilinear(rng, group), _random_character(rng, group))
    d, (star, chi), _ = classify._integer_forms(t, t)
    with deadline(1):
        invariants = classify._invariants(group, star, chi, d)
    with deadline(1):
        witness = degeneracy_witness(t.cocycle)
    with deadline(2):
        report = decide_conjugacy(t, t)
    assert report.verdict == "UNKNOWN" and report.decided_by == "search"
    assert invariants == oracles.cokernel_invariants(group, star, chi, d)
    assert witness == oracles.kernel_degeneracy_witness(t.cocycle)


def test_integer_search_matches_phase_checks_on_mixed_denominators():
    # star entries and chi^2 over different denominators share one D in
    # the search; the table fixture takes the TableCocycle path
    rng = random.Random(9)
    pairs = []
    for torsion, phases in (
        ((2, 6), (Phase(1, 2), Phase(1, 6))),
        ((2, 6), (Phase(1, 2), Phase(1, 3))),
        ((4, 4), (Phase(1, 4), Phase(1, 2))),
        ((4, 4), (Phase(3, 4), Phase(1, 4))),
    ):
        group = AbGroup(0, torsion)
        isos, _ = enumerate_isomorphisms(group, group)
        ta = Triplet(group, _random_bilinear(rng, group), oracles.phase_character(group, phases))
        pairs.append((ta, _pushforward(ta, rng.choice(isos))))
    # the same group presented with three and with two generators
    ga, gb = AbGroup(0, (2, 2, 3)), AbGroup(0, (2, 6))
    chi = oracles.phase_character(ga, (Phase(1, 2), Phase.ZERO, Phase(1, 3)))
    ta = Triplet(ga, _random_bilinear(rng, ga), chi)
    pairs.append((ta, _pushforward(ta, rng.choice(enumerate_isomorphisms(gb, ga)[0]))))
    root = Path(__file__).resolve().parent.parent / "triplets"
    table, standard = (triplet_from_json(json.loads((root / name).read_text("utf-8")))
                       for name in ("mod3_table.json", "mod3_standard.json"))
    pairs += [(table, standard), (standard, table)]
    for ta, tb in pairs:
        isos, _ = enumerate_isomorphisms(ta.group, tb.group)
        expected = [phi for phi in isos if all(phase_conditions(ta, tb, phi))]
        assert expected
        forms = classify._integer_forms(ta, tb)
        assert list(classify._matching_isomorphisms(ta.group, tb.group, forms)) == expected


def test_check_conditions_matches_the_phase_oracle():
    # the integer check against mu(x, y) - mu(y, x) and 2 chi on every
    # isomorphism: random finite triplets with mixed denominators, the
    # table fixture and bounded Z^2 pairs
    rng = random.Random(12)
    cases = []
    for torsion, bound in (((2, 6), None), ((4, 4), None), ((2, 2, 3), None), ((3, 3), None),
                           ((), 2), ((), 2), ((2,), 1)):
        group = AbGroup(2 if bound else 0, torsion)
        isos, _ = enumerate_isomorphisms(group, group, bound)
        cases += [(*_oracle_pair(rng, group, isos, pick), isos) for pick in range(4)]
    root = Path(__file__).resolve().parent.parent / "triplets"
    table, standard = (triplet_from_json(json.loads((root / name).read_text("utf-8")))
                       for name in ("mod3_table.json", "mod3_standard.json"))
    isos, _ = enumerate_isomorphisms(table.group, table.group)
    cases += [(table, standard, isos), (standard, table, isos), (table, table, isos)]
    seen = Counter()
    for ta, tb, isos in cases:
        for phi in isos:
            got = check_conditions(ta, tb, phi)
            assert got == phase_conditions(ta, tb, phi)
            seen[got] += 1
    assert len(seen) == 4


def test_product_walk_keeps_the_itertools_order():
    rng = random.Random(7)
    for _ in range(300):
        ranges = [range(rng.randint(-4, 3), rng.randint(-3, 6), rng.randint(1, 3))
                  for _ in range(rng.randint(0, 4))]
        assert list(lazy_product(ranges)) == list(itertools.product(*ranges))


def test_search_matches_brute_oracle_bounded():
    # chi^2 is nontrivial, so the Z^2 closed forms leave these to the search
    # as long as the star values agree up to sign (pullback or shared
    # cocycle) and the squared characters differ
    rng = random.Random(5)
    verdicts = set()
    for group, picks in ((AbGroup(2), (0, 1) * 4), (AbGroup(2, (2,)), (0, 1, 2, 3) * 2)):
        isos, complete = enumerate_isomorphisms(group, group, 1)
        assert not complete
        for pick in picks:
            ta, tb = _oracle_pair(rng, group, isos, pick)
            if not group.torsion and ta.character.power(2) == tb.character.power(2):
                continue
            verdicts.add(_assert_search_matches_brute(ta, tb, isos, 1))
            expected = tuple(phi for phi in isos if all(phase_conditions(ta, ta, phi)))
            rep = centralizer(ta, bound=1)
            assert rep.verdict == "OK" and rep.elements == expected
    assert verdicts == {"YES", "UNKNOWN"}


def test_finite_search_reaches_leaves_only_with_isomorphisms():
    # the degenerate form (star kernel Z/2 x Z/2) and the nondegenerate one
    # have star kernels of different size: a NO whose character-only search
    # (both cocycles trivial) and whose centralizer meet many non-injective
    # tuples.  The finite search yields its leaves unchecked, so only the
    # span cut keeps them out; every hit is checked here, outside it.
    group = AbGroup(0, (4, 4))
    degenerate = Triplet(group, oracles.phase_bilinear(group, (
        (Phase.ZERO, Phase(1, 2)), (Phase.ZERO, Phase.ZERO))), Character.trivial(group))
    standard = Triplet(group, oracles.phase_bilinear(group, (
        (Phase.ZERO, Phase(1, 4)), (Phase.ZERO, Phase.ZERO))), Character.trivial(group))
    report = decide_conjugacy(degenerate, standard)
    assert report.verdict == "NO" and report.checks == {"cocycle": False, "character": True}
    plain = [Triplet(group, trivial_cocycle(group), t.character) for t in (degenerate, standard)]
    search = classify._matching_isomorphisms
    assert list(search(group, group, classify._integer_forms(degenerate, standard))) == []
    assert list(search(group, group, classify._integer_forms(*plain))) == enumerate_automorphisms(group)
    hits = centralizer(degenerate).elements
    assert hits and all(is_isomorphism(f) for f in hits)
