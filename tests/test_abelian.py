import itertools
import math
from math import gcd
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    apply_hom,
    dual_characters,
    element_order,
    elements,
    elementwise_hom_matrix,
    enumerate_automorphisms,
    enumerate_isomorphisms,
    generators,
    group_zero,
    phase_character,
    phase_character_value,
    separating_characters,
)
from tbshift.abelian import (
    AbGroup,
    AbHom,
    Character,
    abstractly_isomorphic,
    dual_character,
    group_structure,
    is_isomorphism,
)
from tbshift.classify import _pool_ranges
from tbshift.scalars import Phase


def test_element_arithmetic_examples():
    g33 = AbGroup(0, (3, 3))
    assert (g33.element((2, 1)) + g33.element((2, 2))).coords == (1, 0)
    z = AbGroup(1)
    assert (z.element((5,)) + (-z.element((5,)))).coords == (0,)
    assert (-g33.element((1, 0))).coords == (2, 0)


@pytest.mark.parametrize("torsion", [(2,), (3, 4), (2, 2, 2), (4, 6)], ids=str)
def test_addition_table_numbers_the_elements_in_their_order(torsion):
    # the one numbering of H that the table cocycle's checks, the witness
    # and the swap kernel read: add[i][j] is the number of g_i + g_j, and
    # e_k is number prod(torsion[k+1:])
    group = AbGroup(0, torsion)
    elems, add = elements(group), group.addition_table()
    assert len(add) == len(elems) and all(len(row) == len(elems) for row in add)
    for g, row in zip(elems, add):
        for h, s in zip(elems, row):
            assert elems[s] == g + h
    for k, e in enumerate(generators(group)):
        assert elems[math.prod(torsion[k + 1:])] == e
    with pytest.raises(ValueError):
        AbGroup(1, torsion).addition_table()


def test_group_invariants():
    g = AbGroup(1, (2, 6))
    assert g.rank == 3
    assert not g.is_finite
    assert AbGroup(0, (4, 6)).order() == 24
    with pytest.raises(ValueError):
        AbGroup(0, (1,))
    with pytest.raises(ValueError):
        AbGroup(-1)


def test_hom_apply_examples():
    g33 = AbGroup(0, (3, 3))
    ident = AbHom.identity(g33)
    assert apply_hom(ident, g33.element((1, 2))).coords == (1, 2)
    shear = AbHom(g33, g33, ((1, 0), (1, 1)))
    assert apply_hom(shear, g33.element((1, 0))).coords == (1, 1)
    twice = shear.compose(shear)
    assert twice == AbHom(g33, g33, ((1, 0), (2, 1)))


def test_compose_is_applying_one_hom_after_the_other(rng):
    # the matrix product, with torsion rows of the inner map taken as
    # representatives, against applying the two maps in turn
    groups = [
        AbGroup(0, (2, 4)), AbGroup(1, (6,)), AbGroup(2), AbGroup(0, (3, 9)), AbGroup(1, (2, 2)),
    ]

    def random_hom(source, target):
        cols = [rng.choice(list(itertools.product(*ranges)))
                for ranges in _pool_ranges(source, target, 3)]
        return AbHom(source, target, tuple(zip(*cols)))

    for a, b, c in itertools.product(groups, repeat=3):
        inner, outer = random_hom(a, b), random_hom(b, c)
        both = outer.compose(inner)
        for _ in range(4):
            x = a.element([rng.randint(-5, 5) for _ in range(a.rank)])
            assert apply_hom(both, x) == apply_hom(outer, apply_hom(inner, x))


def test_hom_rejects_incompatible_orders():
    # Z/2 -> Z: the image of an order-2 generator must be killed by 2
    with pytest.raises(ValueError):
        AbHom(AbGroup(0, (2,)), AbGroup(1), ((1,),))
    # fine into Z/4 only if the image has order dividing 2
    with pytest.raises(ValueError):
        AbHom(AbGroup(0, (2,)), AbGroup(0, (4,)), ((1,),))
    AbHom(AbGroup(0, (2,)), AbGroup(0, (4,)), ((2,),))


def test_is_isomorphism_examples():
    g33 = AbGroup(0, (3, 3))
    assert is_isomorphism(AbHom.identity(g33))
    g9 = AbGroup(0, (9,))
    assert not is_isomorphism(AbHom(g9, g9, ((3,),)))
    z2 = AbGroup(2)
    assert is_isomorphism(AbHom(z2, z2, ((1, 1), (0, 1))))
    assert not is_isomorphism(AbHom(z2, z2, ((2, 0), (0, 1))))
    # surjectivity onto a finite group from Z
    z = AbGroup(1)
    g3 = AbGroup(0, (3,))
    assert not is_isomorphism(AbHom(z, g3, ((1,),)))  # not abstractly isomorphic


def _brute_closure(images):
    """Every element generated by the images, by closing under addition."""
    zero = group_zero(images[0].group)
    seen, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in images:
                y = x + g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_image_count_matches_isomorphism(rng):
    verdicts = set()
    for torsion in [(2, 4), (2, 2, 2), (3, 9)]:
        g = AbGroup(0, torsion)
        elems = elements(g)
        for _ in range(60):
            images = [rng.choice(elems) for _ in range(g.rank)]
            try:
                f = AbHom(g, g, tuple(zip(*(x.coords for x in images))))
            except ValueError:
                continue
            got = is_isomorphism(f)
            columns = [g.element([row[j] for row in f.matrix]) for j in range(g.rank)]
            brute = len(_brute_closure(columns)) == g.order()
            assert got == brute
            verdicts.add((torsion, got))
    assert len(verdicts) == 6  # each shape gives both verdicts


def test_automorphism_counts():
    assert len(enumerate_automorphisms(AbGroup(0, (3,)))) == 2
    # |GL(2, F_q)| = (q^2 - 1)(q^2 - q)
    assert len(enumerate_automorphisms(AbGroup(0, (3, 3)))) == (9 - 1) * (9 - 3)
    assert len(enumerate_automorphisms(AbGroup(0, (2, 4)))) == 8


def test_automorphisms_of_z2_z4_brute_force_oracle():
    # independent oracle: try every pair of generator images, keep the maps
    # that are well defined homomorphisms and bijective as functions
    g = AbGroup(0, (2, 4))
    elems = elements(g)

    def times(x, n):
        return g.element([n * c for c in x.coords])

    count = 0
    for img0, img1 in itertools.product(elems, repeat=2):
        if any(times(img0, 2).coords) or any(times(img1, 4).coords):
            continue
        mapping = {}
        for a in range(2):
            for b in range(4):
                mapping[(a, b)] = (times(img0, a) + times(img1, b)).coords
        if len(set(mapping.values())) == g.order():
            count += 1
    assert count == len(enumerate_automorphisms(g)) == 8


def test_automorphism_group_closure():
    for torsion in [(3,), (2, 2), (2, 4), (3, 3), (5,), (8,)]:
        g = AbGroup(0, torsion)
        autos = enumerate_automorphisms(g)
        assert len(set(autos)) == len(autos)
        assert AbHom.identity(g) in autos
        pool = set(autos)
        for f in autos:
            assert any(f.compose(h) == AbHom.identity(g) for h in autos)
            for h in autos:
                assert f.compose(h) in pool


def test_enumerate_isomorphisms_examples():
    empty, complete = enumerate_isomorphisms(AbGroup(0, (3, 3)), AbGroup(0, (5, 5)))
    assert empty == [] and complete
    two, complete = enumerate_isomorphisms(AbGroup(0, (3,)), AbGroup(0, (3,)))
    assert len(two) == 2 and complete
    z2 = AbGroup(2)
    bounded, complete = enumerate_isomorphisms(z2, z2, bound=1)
    assert not complete
    signed_perms = {
        AbHom(z2, z2, ((a, 0), (0, d))) for a in (1, -1) for d in (1, -1)
    } | {
        AbHom(z2, z2, ((0, b), (c, 0))) for b in (1, -1) for c in (1, -1)
    }
    assert signed_perms <= set(bounded)
    assert len(signed_perms) == 8
    with pytest.raises(ValueError):
        enumerate_isomorphisms(z2, z2)


def test_equivalent_presentations_are_isomorphic():
    # Z/2 + Z/3 is Z/6 in disguise
    a, b = AbGroup(0, (2, 3)), AbGroup(0, (6,))
    assert abstractly_isomorphic(a, b)
    isos, complete = enumerate_isomorphisms(a, b)
    assert complete and len(isos) > 0
    assert all(is_isomorphism(f) for f in isos)


def _value(chi, g) -> Phase:
    """chi(g) as the package reads it: the int row against g's coordinates, over den."""
    return Phase(sum(map(mul, chi.ints, g.coords)), chi.den)


def test_character_examples():
    g33 = AbGroup(0, (3, 3))
    chi = phase_character(g33, (Phase(1, 3), Phase.ZERO))
    assert (chi.ints, chi.den) == ((1, 0), 3)
    assert _value(chi, g33.element((1, 0))) == Phase(1, 3)
    assert _value(chi, group_zero(g33)) == Phase.ZERO
    assert _value(chi, g33.element((0, 2))) == Phase.ZERO


@st.composite
def characters_and_elements(draw):
    """A character on a group with free and torsion parts, and an element.

    Torsion generators of order n take phases k/d with d | n, free ones
    any rational phase; free coordinates may be negative.
    """
    torsion = draw(st.lists(st.integers(2, 12), max_size=3))
    group = AbGroup(draw(st.integers(0, 2)), tuple(torsion))
    phases = []
    for j in range(group.rank):
        n = group.orders[j]
        dens = [d for d in range(1, n + 1) if n % d == 0] if n else range(1, 31)
        phases.append(Phase(draw(st.integers(-60, 60)), draw(st.sampled_from(dens))))
    coords = draw(st.lists(st.integers(-100, 100), min_size=group.rank, max_size=group.rank))
    return phase_character(group, phases), group.element(coords)


@given(characters_and_elements())
def test_character_value_matches_phase_sum(pair):
    chi, g = pair
    assert _value(chi, g) == phase_character_value(chi, g)
    # the canonical (ints, den) rebuilds an equal character with an equal hash
    twin = Character(chi.group, chi.ints, chi.den)
    assert twin == chi and hash(twin) == hash(chi)


def test_character_validation():
    g = AbGroup(0, (3,))
    with pytest.raises(ValueError):
        Character(g, (1,), 4)
    Character(g, (2,), 3)
    z = AbGroup(1)
    Character(z, (1,), 4)  # free generators take any rational phase


def test_character_is_homomorphism(rng):
    g = AbGroup(1, (4, 6))
    chi = phase_character(g, (Phase(3, 7), Phase(1, 4), Phase(5, 6)))
    for _ in range(50):
        a = g.element([rng.randint(-9, 9) for _ in range(g.rank)])
        b = g.element([rng.randint(-9, 9) for _ in range(g.rank)])
        assert _value(chi, a + b) == _value(chi, a) + _value(chi, b)


MIXED_GROUPS = [AbGroup(2), AbGroup(1, (4, 6)), AbGroup(0, (3, 3)), AbGroup(2, (2,)),
                AbGroup(0, (12,)), AbGroup(1, (2, 2, 3))]


def _entry(rng, n, den):
    """A numerator over den, unreduced and often negative: for a torsion
    order n mostly one that n kills, sometimes one off it."""
    if not n:
        return rng.randint(-3 * den, 3 * den)
    c = rng.randint(-9, 9) * (den // gcd(den, n))
    return c + 1 if rng.random() < 0.15 else c


def _same_refusal(build, oracle):
    """build() and oracle() both refuse with the same type and message, or
    both return; the second element is what each returned."""
    try:
        want = oracle()
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            build()
        assert str(err.value) == str(exc)
        return None
    return build(), want


def test_character_int_form_matches_the_phase_lift(rng):
    # unreduced, negative and common-factor rows over free and torsion
    # generators: the int constructor against the Phase lift it replaced,
    # as equal objects with equal hashes and (ints, den), or with the same
    # refusal and message; a row of the wrong length is refused by both
    built = refused = 0
    for group in MIXED_GROUPS:
        for _ in range(150):
            den = rng.randint(1, 12) * rng.choice((1, 2, 6))
            ints = [_entry(rng, n, den) for n in group.orders]
            if rng.random() < 0.05:
                ints.append(0)
            k = rng.choice((1, 1, 3, 4))  # a common factor of the row and den
            ints, den = tuple(c * k for c in ints), den * k
            pair = _same_refusal(lambda: Character(group, ints, den),
                                 lambda: phase_character(group, (Phase(c, den) for c in ints)))
            if pair is None:
                refused += 1
                continue
            got, want = pair
            assert got == want and hash(got) == hash(want)
            assert (got.ints, got.den) == (want.ints, want.den)
            assert all(0 <= c < got.den for c in got.ints) and gcd(got.den, *got.ints) == 1
            built += 1
    assert built > 300 and refused > 100
    for den in (0, -3):
        with pytest.raises(ValueError, match="denominator must be positive"):
            Character(AbGroup(1), (1,), den)


def _hom_entry(rng, n, m):
    """An entry of row order m (0 if free) in a column of order n: any int
    for a free column, else mostly one that n kills mod m (0 on a free
    row), sometimes one off it."""
    if not n:
        return rng.randint(-20, 20)
    c = rng.randint(-9, 9) * (m // gcd(n, m)) if m else 0
    return c + 1 if rng.random() < 0.1 else c


def test_hom_integer_check_matches_the_elementwise_check(rng):
    # random matrices between groups with free and torsion parts, entries
    # unreduced and negative: AbHom's column test on ints against the old
    # test on group elements, the same canonical matrix or the same refusal
    built = refused = 0
    for source in MIXED_GROUPS:
        for target in MIXED_GROUPS:
            for _ in range(12):
                matrix = [[_hom_entry(rng, n, m) for n in source.orders] for m in target.orders]
                if rng.random() < 0.05:
                    matrix = matrix[1:]
                pair = _same_refusal(lambda: AbHom(source, target, matrix),
                                     lambda: elementwise_hom_matrix(source, target, matrix))
                if pair is None:
                    refused += 1
                    continue
                got, want = pair
                assert got.matrix == want
                assert got == AbHom(source, target, want) and hash(got) == hash(
                    AbHom(source, target, want))
                built += 1
    assert built > 200 and refused > 60


def test_dual_characters_count_and_separation():
    g = AbGroup(0, (2, 4))
    chars = dual_characters(g)
    assert len(chars) == 8
    for x in elements(g):
        if any(x.coords):
            assert any(_value(c, x) != Phase.ZERO for c in chars)


def test_dual_character_decodes_the_product_order():
    # the index-th character against the index-th tuple of itertools.product
    for torsion in [(2,), (5,), (2, 4), (3, 3), (2, 3, 4)]:
        g = AbGroup(0, torsion)
        listed = [phase_character(g, (Phase(a, n) for a, n in zip(t, torsion)))
                  for t in itertools.product(*(range(n) for n in torsion))]
        assert [dual_character(g, i) for i in range(g.order())] == listed
        assert len(set(listed)) == g.order()
    with pytest.raises(ValueError, match="finite"):
        AbGroup(1, (2,)).order()


def test_separating_characters_infinite_group():
    g = AbGroup(2, (3,))
    values = [g.element((5, -2, 1)), g.element((0, 3, 0))]
    family = separating_characters(g, values)
    for v in values:
        if any(v.coords):
            assert any(_value(c, v) != Phase.ZERO for c in family)


def test_group_structure_examples():
    g33 = AbGroup(0, (3, 3))
    unipotents = [AbHom(g33, g33, ((1, 0), (t, 1))) for t in range(3)]
    rep = group_structure(unipotents, lambda a, b: a.compose(b))
    assert rep.order == 3 and rep.abelian and rep.invariant_factors == (3,)
    assert rep.description == "Z/3"

    only_id = group_structure([AbHom.identity(g33)], lambda a, b: a.compose(b))
    assert only_id.order == 1 and only_id.invariant_factors == ()
    assert only_id.description == "1"

    autos = enumerate_automorphisms(g33)
    rep48 = group_structure(autos, lambda a, b: a.compose(b))
    assert rep48.order == 48 and not rep48.abelian
    x, y = rep48.noncommuting
    assert x.compose(y) != y.compose(x)


def test_group_structure_rejects_non_closed():
    g33 = AbGroup(0, (3, 3))
    shear = AbHom(g33, g33, ((1, 0), (1, 1)))
    with pytest.raises(ValueError, match="closed"):
        group_structure([AbHom.identity(g33), shear], lambda a, b: a.compose(b))


@pytest.mark.parametrize(
    "elements, compose, message",
    [
        ([1, 2], lambda a, b: (a + b) % 3, "no identity element present"),
        ([1, 2], lambda a, b: 1, "not an identity for 2"),
        ([0, 1, 2], max, "not closed under inverses: 1"),
    ],
)
def test_group_structure_rejects_non_groups(elements, compose, message):
    with pytest.raises(ValueError, match=message):
        group_structure(elements, compose)


def test_group_structure_invariant_factors_against_order_statistics(rng):
    # Z/2 x Z/4 modelled as translations acting on itself
    g = AbGroup(0, (2, 4))
    elems = elements(g)
    rep = group_structure(elems, lambda a, b: a + b)
    assert rep.invariant_factors == (2, 4)
    # order statistics oracle: counts of element orders must match Z/2 x Z/4
    from collections import Counter

    counts = Counter(element_order(e) for e in elems)
    assert counts == Counter({1: 1, 2: 3, 4: 4})
    # listed as 0, 2, 1, 3, Z/4 is picked as <2> then 1 with 1 + 1 = 2 in
    # the span: the relation rows must carry that word, not just the orders
    z4 = AbGroup(0, (4,))
    listed = [z4.element((c,)) for c in (0, 2, 1, 3)]
    assert group_structure(listed, lambda a, b: a + b).invariant_factors == (4,)
    for torsion in [(2, 4), (4, 6), (3, 9), (2, 2, 8)]:
        shuffled = elements(AbGroup(0, torsion))
        rng.shuffle(shuffled)
        rep = group_structure(shuffled, lambda a, b: a + b)
        model = AbGroup(0, rep.invariant_factors)
        assert Counter(element_order(x) for x in elements(model)) == Counter(
            element_order(x) for x in shuffled
        )


def test_elements_hash_by_coordinates_and_agree_with_equality():
    g, same = AbGroup(1, (2, 6)), AbGroup(1, (2, 6))
    assert g is not same and g == same and g.rank == same.rank == 3
    assert repr(g) == "AbGroup(free_rank=1, torsion=(2, 6))"
    x, y = g.element((4, 3, 7)), same.element((4, 1, 1))
    assert x == y and hash(x) == hash(y) == hash((4, 1, 1))
    assert (x + y).coords == (8, 0, 2)
    assert {x: 1}[y] == 1
    # same coordinates in another group: one hash, not equal, not addable
    other = AbGroup(1, (2, 3)).element((4, 1, 1))
    assert hash(other) == hash(x) and other != x
    with pytest.raises(ValueError, match="different groups"):
        x + other
