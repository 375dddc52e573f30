import ast
import itertools
import random
from collections import Counter
from math import gcd, isqrt, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline
from oracles import (
    coboundary_cocycle,
    cocycle_identity_failure,
    det_form_cocycle,
    elements,
    generators,
    group_zero,
    kernel_degeneracy_witness,
    kernel_radical_rows,
    literal_coboundary_witness,
    phase_bilinear,
    phase_bilinear_value,
    phase_matrix,
    phase_coboundary_witness,
    phase_star_form,
    phase_validate,
    phase_witness_catalog,
    table_from_function,
    tensor_key,
    to_table,
)
from tbshift.abelian import AbGroup
from tbshift.algebra import malleability_unitary
from tbshift.cocycle import (
    BilinearCocycle,
    CocycleError,
    TableCocycle,
    coboundary_witness,
    cohomologous,
    degeneracy_witness,
    star_bicharacter,
    star_blocks,
    trivial_cocycle,
)
from tbshift.dynamics import mod_q_cocycle
from tbshift.scalars import Cyclotomic, Phase
from tbshift.selftest import _random_bilinear, witness_catalog


def random_phase_map(rng, group, den=8):
    out = {group_zero(group): Phase.ZERO}
    for g in elements(group):
        if any(g.coords):
            out[g] = Phase(rng.randrange(den), den)
    return out


def test_evaluation_examples():
    mu3 = mod_q_cocycle(3)
    g = mu3.group
    assert mu3(g.element((1, 0)), g.element((0, 1))) == Phase(1, 3)
    assert mu3(g.element((2, 1)), group_zero(g)) == Phase.ZERO
    theta = Phase(1, 16)
    muc = det_form_cocycle(theta)
    z2 = muc.group
    assert muc(z2.element((0, 1)), z2.element((1, 0))) == Phase(15, 16)


def test_bilinear_torsion_validation():
    g = AbGroup(0, (3,))
    with pytest.raises(CocycleError):
        BilinearCocycle(g, ((1,),), 4)
    BilinearCocycle(g, ((1,),), 3)


def test_bilinear_int_form_matches_the_phase_lift(rng):
    # unreduced, negative and common-factor matrices over free and torsion
    # generators: the int constructor against the Phase lift it replaced,
    # as equal objects with equal hashes and (ints, den), or with the same
    # CocycleError; a matrix of the wrong shape is refused by both
    groups = [AbGroup(2), AbGroup(1, (4, 6)), AbGroup(0, (3, 3)), AbGroup(2, (2,)),
              AbGroup(0, (2, 4)), AbGroup(1, (2, 3))]
    built = refused = 0
    for group in groups:
        orders = group.orders
        for _ in range(120):
            den = rng.randint(1, 12) * rng.choice((1, 2, 6))
            step = [den // gcd(den, n) if n else 1 for n in orders]
            ints = [[rng.randint(-9, 9) * lcm(a, b) + (rng.random() < 0.04) for b in step]
                    for a in step]
            if rng.random() < 0.05:
                ints[-1] = ints[-1][1:]
            k = rng.choice((1, 1, 3, 4))  # a common factor of the matrix and den
            ints, den = [[x * k for x in row] for row in ints], den * k
            try:
                want = phase_bilinear(group, [[Phase(x, den) for x in row] for row in ints])
            except CocycleError as exc:
                with pytest.raises(CocycleError) as err:
                    BilinearCocycle(group, ints, den)
                assert (err.value.violation, str(err.value)) == (exc.violation, str(exc))
                refused += 1
                continue
            got = BilinearCocycle(group, ints, den)
            assert got == want and hash(got) == hash(want)
            assert (got.ints, got.den) == (want.ints, want.den)
            assert all(0 <= x < got.den for row in got.ints for x in row)
            assert gcd(got.den, *(x for row in got.ints for x in row)) == 1
            built += 1
    assert built > 300 and refused > 100
    with pytest.raises(CocycleError, match="denominator"):
        BilinearCocycle(AbGroup(1), ((1,),), 0)


def test_table_validation_catches_violations():
    g = AbGroup(0, (4,))
    good = to_table(trivial_cocycle(g))
    good.validate()
    bad = dict(good.entries)
    bad[((1,), (0,))] = Phase(1, 2)
    with pytest.raises(CocycleError, match="normalization"):
        TableCocycle(g, bad).validate()
    broken = dict(good.entries)
    broken[((1,), (1,))] = Phase(1, 3)
    # normalization still fine, but the 2-cocycle identity now fails,
    # e.g. at (1, 1, 2): mu(1,1) + mu(2,2) != mu(1,2) + mu(1,3)
    with pytest.raises(CocycleError, match="cocycle-identity"):
        TableCocycle(g, broken).validate()


SMALL_GROUPS = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 3), (2, 4), (4, 2),
                (2, 2, 2)]


@given(st.sampled_from(SMALL_GROUPS), st.integers(0, 2**32), st.integers(1, 11),
       st.integers(2, 12))
@settings(max_examples=80, deadline=None)
def test_validate_on_generator_triples_matches_the_full_scan(torsion, seed, num, den):
    # one perturbed entry off the normalization row and column may or may
    # not break the identity (on Z/2 any mu(1, 1) is a cocycle), so the
    # scan of all |H|^3 triples decides what validate must say
    rng = random.Random(seed)
    group = AbGroup(0, torsion)
    mu = _random_bilinear(rng, group)
    shift = coboundary_cocycle(group, random_phase_map(rng, group, 6))
    entries = dict(table_from_function(group, lambda g, h: mu(g, h) + shift(g, h)).entries)
    nonzero = [g.coords for g in elements(group) if any(g.coords)]
    key = (rng.choice(nonzero), rng.choice(nonzero))
    entries[key] = entries[key] + Phase(num, den)
    table = TableCocycle(group, entries)
    if cocycle_identity_failure(table) is None:
        table.validate()
        return
    with pytest.raises(CocycleError, match="cocycle-identity") as caught:
        table.validate()
    # the reported triple fails, and its third entry is a generator
    g, h, k = (group.element(c) for c in ast.literal_eval(str(caught.value).split("fails at ")[1]))
    assert k in generators(group)
    assert table(g, h) + table(g + h, k) != table(h, k) + table(g, h + k)


def _outcome(check, *args):
    """The message of the CocycleError that check(*args) raises, or None."""
    try:
        check(*args)
    except CocycleError as error:
        return str(error)
    return None


@given(st.sampled_from(SMALL_GROUPS), st.integers(0, 2**32),
       st.sampled_from(["missing", "normalization", "perturbed"]), st.integers(1, 11),
       st.integers(2, 12))
@settings(max_examples=150, deadline=None)
def test_validate_matches_the_phase_scans(torsion, seed, mutation, num, den):
    # one entry missing, moved off the normalization row or column, or
    # perturbed anywhere: the integer scans say what the Phase scans say,
    # with the same message, so the first failure printed stays the same
    rng = random.Random(seed)
    group = AbGroup(0, torsion)
    mu = _random_bilinear(rng, group)
    shift = coboundary_cocycle(group, random_phase_map(rng, group, 8))
    entries = dict(table_from_function(group, lambda g, h: mu(g, h) + shift(g, h)).entries)
    g, zero = rng.choice(elements(group)).coords, (0,) * group.rank
    key = rng.choice([(g, zero), (zero, g)]) if mutation == "normalization" else rng.choice(list(entries))
    if mutation == "missing":
        del entries[key]
    else:
        entries[key] = entries[key] + Phase(num, den)
    table = TableCocycle(group, entries)
    assert _outcome(table.validate) == _outcome(phase_validate, table)


def test_validate_runs_in_time_quadratic_in_the_group(rng):
    # (Z/4)^3 and (Z/4)^4: the scan of all triples takes seconds, the
    # |H|^2 * rank generator triples on the integer table a fraction of one
    for torsion in ((4, 4, 4), (4, 4, 4, 4)):
        table = to_table(_random_bilinear(rng, AbGroup(0, torsion)))
        with deadline(1.5):
            table.validate()


def test_cocycle_identity_for_bilinear_samples(rng):
    mu = mod_q_cocycle(5)
    g = mu.group
    for _ in range(1000):
        a = g.element((rng.randrange(5), rng.randrange(5)))
        b = g.element((rng.randrange(5), rng.randrange(5)))
        c = g.element((rng.randrange(5), rng.randrange(5)))
        assert mu(a, b) + mu(a + b, c) == mu(b, c) + mu(a, b + c)


def test_star_bicharacter_examples():
    assert all(
        p == Phase.ZERO
        for row in star_bicharacter(trivial_cocycle(AbGroup(0, (4,)))).matrix
        for p in row
    )
    mu3 = mod_q_cocycle(3)
    g = mu3.group
    star = star_bicharacter(mu3)
    assert star.value(g.element((1, 0)), g.element((0, 1))) == Phase(1, 3)
    assert star.value(g.element((0, 1)), g.element((1, 0))) == Phase(2, 3)
    theta = Phase(1, 16)
    star_c = star_bicharacter(det_form_cocycle(theta))
    doubled = det_form_cocycle(theta + theta)
    assert star_c.matrix == phase_matrix(doubled)
    # a den-24 table, mu3 plus a coboundary of den 8, keeps mu3's (A, 3)
    shifted = _den_24_table(random.Random(24))
    assert shifted.den == 24
    assert (star_bicharacter(shifted).ints, star_bicharacter(shifted).den) == (star.ints, 3)


def _den_24_table(rng):
    """mod_q_cocycle(3) plus the coboundary of a den-8 phase map, as a table."""
    mu = mod_q_cocycle(3)
    shift = coboundary_cocycle(mu.group, random_phase_map(rng, mu.group, 8))
    return table_from_function(mu.group, lambda g, h: mu(g, h) + shift(g, h))


def test_star_bicharacter_antisymmetric_bilinear(rng):
    mu = mod_q_cocycle(7)
    g = mu.group
    star = star_bicharacter(mu)
    for _ in range(100):
        a = g.element((rng.randrange(7), rng.randrange(7)))
        b = g.element((rng.randrange(7), rng.randrange(7)))
        c = g.element((rng.randrange(7), rng.randrange(7)))
        assert star.value(a, b) == -star.value(b, a)
        assert star.value(a + c, b) == star.value(a, b) + star.value(c, b)
        # agrees with the definition, not just the generator matrix
        assert star.value(a, b) == mu(a, b) - mu(b, a)
    # table cocycles, free generators and an entry of 1/2: A is
    # antisymmetric, and matrix[i][j] is mu(e_i, e_j) - mu(e_j, e_i)
    z, half = Phase.ZERO, Phase(1, 2)
    forms = [mu, to_table(mod_q_cocycle(3)), to_table(_random_bilinear(rng, AbGroup(0, (2, 6)))),
             phase_bilinear(AbGroup(1, (2,)), ((Phase(1, 3), half), (z, half))),
             phase_bilinear(AbGroup(2), ((z, half), (z, z)))]
    forms += [random_mixed_cocycle(rng) for _ in range(40)]
    for form in forms:
        star, gens = star_bicharacter(form), generators(form.group)
        assert star.ints == tuple(tuple(-a for a in col) for col in zip(*star.ints))
        assert star.matrix == tuple(tuple(form(x, y) - form(y, x) for y in gens) for x in gens)
        for _ in range(10):
            a, b = (form.group.element([rng.randint(-9, 9) for _ in gens]) for _ in range(2))
            assert star.value(a, b) == phase_bilinear_value(star, a, b) == form(a, b) - form(b, a)


def test_bilinear_evaluation_matches_the_phase_oracle():
    # mixed denominators, free and negative coordinates
    rng = random.Random(21)
    for _ in range(300):
        mu = random_mixed_cocycle(rng)
        for _ in range(5):
            g, h = (mu.group.element([rng.randint(-30, 30) for _ in range(mu.group.rank)])
                    for _ in range(2))
            assert mu(g, h) == phase_bilinear_value(mu, g, h)


def test_cohomologous_examples(rng):
    mu3 = mod_q_cocycle(3)
    assert cohomologous(mu3, mu3)
    g = mu3.group
    shift = coboundary_cocycle(g, random_phase_map(rng, g))
    assert cohomologous(trivial_cocycle(g), shift)
    assert not cohomologous(mu3, trivial_cocycle(g))


def test_coboundary_witness_examples(rng):
    g = AbGroup(0, (2, 2))
    triv = to_table(trivial_cocycle(g))
    self_witness = coboundary_witness(triv, triv)
    assert self_witness is not None
    assert all(p == Phase.ZERO for p in self_witness.values())

    b0 = random_phase_map(rng, g)
    shifted = coboundary_cocycle(g, b0)
    witness = coboundary_witness(triv, shifted)
    assert witness is not None
    # the witness satisfies the identity pointwise (it need not equal b0)
    for x in elements(g):
        for y in elements(g):
            nu = triv(x, y) - shifted(x, y)
            assert witness[x] + witness[y] - witness[x + y] == nu

    mu3 = mod_q_cocycle(3)
    assert coboundary_witness(to_table(mu3), to_table(trivial_cocycle(mu3.group))) is None


def test_witness_scale_guard():
    g = AbGroup(0, (9, 9))  # order 81 > 64
    with pytest.raises(CocycleError, match="scale"):
        coboundary_witness(trivial_cocycle(g), trivial_cocycle(g))


def test_witness_oracle_agrees_with_star_criterion(rng):
    pairs = witness_catalog(rng, 50)
    for mu1, mu2 in pairs:
        fast = cohomologous(mu1, mu2)
        assert fast == (coboundary_witness(mu1, mu2) is not None)


def test_witness_catalog_matches_its_phase_built_form():
    # the integer tables against tables evaluated from mu with Phase sums of
    # the coboundary: from the same seed, the same entries in the same order
    # pair for pair, and the same number of draws
    for seed in range(10):
        rng, phase_rng = random.Random(seed), random.Random(seed)
        pairs, phase = witness_catalog(rng, 40), phase_witness_catalog(phase_rng, 40)
        assert len(pairs) == len(phase) == 40
        for got, want in zip(pairs, phase):
            for table, reference in zip(got, want):
                assert table.group == reference.group
                assert list(table.entries.items()) == list(reference.entries.items())
        assert rng.random() == phase_rng.random()


def test_coboundary_witness_matches_the_phase_walk(rng):
    # the same b, value for value and in the same order, as the cohom API
    # prints it; the catalog shifts by den-8 coboundaries, den-3 forms too
    pairs = witness_catalog(rng, 80)
    found = Counter()
    for mu1, mu2 in pairs:
        witness, phase = coboundary_witness(mu1, mu2), phase_coboundary_witness(mu1, mu2)
        assert witness == phase
        assert witness is None or list(witness) == list(phase)
        found[witness is not None, mu1.den == 3 and mu2.den == 24] += 1
    assert all(found[yes, den_24] for yes in (True, False) for den_24 in (True, False))


ORDER_64_SHAPES = [(8, 8), (4, 4, 4), (2, 4, 8), (2,) * 6]


def _shape_id(shape):
    return "x".join(map(str, shape))


def _solves(b, mu1, mu2):
    """b(g) + b(h) - b(g+h) = mu1(g, h) - mu2(g, h) for every pair."""
    elems = elements(mu1.group)
    return all(b[g] + b[h] - b[g + h] == mu1(g, h) - mu2(g, h) for g in elems for h in elems)


def test_coboundary_witness_matches_the_literal_solver(rng):
    # the catalog's pairs, a YES and a likely NO on each order-64 shape, and
    # a symmetric table on Z/3 that is no cocycle: nu(1, 1) = 1/2, else 0,
    # so the precheck passes and only the check of the equations says None
    pairs = witness_catalog(rng, 24)
    for shape in ORDER_64_SHAPES:
        group = AbGroup(0, shape)
        base = to_table(_random_bilinear(rng, group))
        shift = coboundary_cocycle(group, random_phase_map(rng, group))
        lifted = TableCocycle(group, {k: v + shift.entries[k] for k, v in base.entries.items()})
        pairs += [(base, lifted), (base, to_table(_random_bilinear(rng, group)))]
    z3 = AbGroup(0, (3,))
    trivial = to_table(trivial_cocycle(z3))
    odd = TableCocycle(z3, {**trivial.entries, ((1,), (1,)): Phase(1, 2)})
    pairs.append((odd, trivial))
    found = Counter()
    for mu1, mu2 in pairs:
        witness = coboundary_witness(mu1, mu2)
        assert (witness is None) == (literal_coboundary_witness(mu1, mu2) is None)
        assert witness is None or _solves(witness, mu1, mu2)
        found[witness is not None, mu1.group.order() == 64] += 1
    assert all(found[yes, big] for yes in (True, False) for big in (True, False))
    assert coboundary_witness(odd, trivial) is None


def test_nondegeneracy_examples():
    for q in (3, 5, 7):
        assert degeneracy_witness(mod_q_cocycle(q)) is None
    assert degeneracy_witness(det_form_cocycle(Phase(1, 16))) is None
    witness = degeneracy_witness(trivial_cocycle(AbGroup(0, (3,))))
    assert witness is not None and any(witness.coords)


def test_degeneracy_witness_vanishes_against_generators():
    mu = trivial_cocycle(AbGroup(0, (2, 4)))
    w = degeneracy_witness(mu)
    star = star_bicharacter(mu)
    assert w is not None
    for e in generators(mu.group):
        assert star.value(w, e) == Phase.ZERO


def test_finite_degeneracy_witness_is_first_in_element_order(rng):
    # brute oracle: the first nonzero g, in elements() order, whose star
    # pairing vanishes against every h (not only the generators)
    shapes = [(2, 4), (2, 2, 2), (3, 3), (4, 4), (2, 6), (3,)]
    cocycles = [trivial_cocycle(AbGroup(0, t)) for t in shapes]
    cocycles += [_random_bilinear(rng, AbGroup(0, t)) for t in shapes for _ in range(4)]
    found = 0
    for mu in cocycles:
        star = star_bicharacter(mu)
        elems = elements(mu.group)
        brute = next(
            (g for g in elems if any(g.coords) and all(star.value(g, h) == Phase.ZERO for h in elems)),
            None,
        )
        assert degeneracy_witness(mu) == brute
        found += brute is not None
    assert 0 < found < len(cocycles)


def torsion_loop_witness(mu):
    """The exhaustive oracle: the first nonzero torsion element, in
    elements() order, whose star pairing vanishes against every generator."""
    group, star = mu.group, star_bicharacter(mu)
    torsion = (group.element((0,) * group.free_rank + t)
               for t in itertools.product(*(range(n) for n in group.torsion)))
    return next((g for g in torsion if any(g.coords)
                 and all(star.value(g, e) == Phase.ZERO for e in generators(group))), None)


def test_echelon_witness_matches_the_torsion_loop():
    rng = random.Random(5)
    found = 0
    for _ in range(1000):
        group = AbGroup(0, tuple(rng.choice((2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(1, 4))))
        mu = _random_bilinear(rng, group)
        brute = torsion_loop_witness(mu)
        assert degeneracy_witness(mu) == brute
        found += brute is not None
    assert 0 < found < 1000


def test_nondegenerate_forms_live_on_square_orders():
    # a finite group with a nondegenerate alternating form is K x K (Wall,
    # 1963), so |H| is a square; the exact flow's 1/sqrt|H| rests on this
    rng = random.Random(1)
    orders = (2, 3, 4, 5, 6, 8, 9)
    groups = [AbGroup(0, tuple(rng.choice(orders) for _ in range(rng.randint(1, 4))))
              for _ in range(3000)]
    cocycles = [_random_bilinear(rng, group) for group in groups]
    cocycles += [to_table(mu) for mu in cocycles[:300] if mu.group.order() <= 36]
    nondegenerate = [mu for mu in cocycles if degeneracy_witness(mu) is None]
    assert len(nondegenerate) > 50
    assert any(isinstance(mu, TableCocycle) for mu in nondegenerate)
    for mu in nondegenerate:
        assert isqrt(mu.group.order()) ** 2 == mu.group.order()


def test_degenerate_free_direction_is_found():
    # a rank-one form on Z^2 pairs (0,1) trivially with everything
    z = Phase.ZERO
    mu = phase_bilinear(AbGroup(2), ((z, z), (z, Phase(1, 3))))
    w = degeneracy_witness(mu)
    assert w is not None
    star = star_bicharacter(mu)
    for e in generators(mu.group):
        assert star.value(w, e) == Phase.ZERO


def test_torsion_degeneracy_on_mixed_group():
    # free part pairs nondegenerately, torsion part carries nothing
    z = Phase.ZERO
    mu = phase_bilinear(
        AbGroup(2, (3,)),
        (
            (z, Phase(1, 5), z),
            (-Phase(1, 5), z, z),
            (z, z, z),
        ),
    )
    w = degeneracy_witness(mu)
    assert w is not None
    assert w.coords[:2] == (0, 0) and w.coords[2] != 0


def random_mixed_cocycle(rng):
    """A sparse bilinear cocycle on Z^r x (up to two of Z/2, Z/3, Z/4, Z/6), r in 1..4."""
    group = AbGroup(rng.randint(1, 4), tuple(rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(0, 2))))
    orders = group.orders

    def entry(a, b):
        n = gcd(a, b) or 12
        return Phase.ZERO if rng.random() < 0.5 else Phase(rng.randrange(n), n)

    return phase_bilinear(group, tuple(tuple(entry(a, b) for b in orders) for a in orders))


def test_mixed_degeneracy_witness_is_nonzero_and_degenerate():
    # oracle for the free part: sympy's rational nullspace of the transposed
    # antisymmetric lift of the star matrix (stored phases above the
    # diagonal, their negatives below), read as rational tags
    rng = random.Random(11)
    free_found = 0
    for _ in range(1000):
        mu = random_mixed_cocycle(rng)
        group, star = mu.group, star_bicharacter(mu)

        def lift(i, j):
            p = star.matrix[min(i, j)][max(i, j)]
            return sympy.sign(j - i) * sympy.Rational(p.num, p.den)

        transposed = sympy.Matrix(group.rank, group.rank, lambda i, j: lift(j, i))
        free_direction = any(any(vec[:group.free_rank]) for vec in transposed.nullspace())
        w = degeneracy_witness(mu)
        if w is None or not any(w.coords[:group.free_rank]):
            assert w == torsion_loop_witness(mu)
        if w is None:
            assert not free_direction
            continue
        assert any(w.coords)
        assert all(star.value(w, e) == Phase.ZERO for e in generators(group))
        assert any(w.coords[:group.free_rank]) == free_direction
        free_found += free_direction
    assert free_found


def random_composite_cocycle(rng):
    """A bilinear cocycle on Z^f x (up to four cyclic factors of orders up
    to 12, composite ones among them), f in 0..2, rank at least 1, with
    rational tags on the free pairs; finite ones of order <= 24 as tables."""
    group = AbGroup(0)
    while not group.rank:
        group = AbGroup(rng.randint(0, 2),
                        tuple(rng.choice((2, 3, 4, 6, 8, 9, 12)) for _ in range(rng.randint(0, 4))))
    orders = group.orders

    def entry(a, b):
        n = gcd(a, b) or 12
        return Phase.ZERO if rng.random() < 0.4 else Phase(rng.randrange(n), n)

    mu = phase_bilinear(group, tuple(tuple(entry(a, b) for b in orders) for a in orders))
    if group.is_finite and group.order() <= 24 and rng.random() < 0.3:
        return to_table(mu)
    return mu


def test_star_blocks_radical_matches_the_integer_kernel_route():
    # the radical of one Hermite pass over the graph of the star map has
    # the pivots of the integer-kernel radical, and the witness read off it
    # is the old route's, free parts included
    rng = random.Random(44)
    free_ranks, kinds, found = Counter(), Counter(), 0
    for _ in range(1500):
        mu = random_composite_cocycle(rng)
        group, star = mu.group, star_bicharacter(mu)
        _, radical = star_blocks(star.ints, star.den, group)
        old = kernel_radical_rows(star.ints, star.den, group)
        assert [row[k] for k, row in enumerate(radical)] == [row[k] for k, row in enumerate(old)]
        witness = degeneracy_witness(mu)
        assert witness == kernel_degeneracy_witness(mu)
        free_ranks[group.free_rank] += 1
        kinds[type(mu).__name__] += 1
        found += witness is not None
    assert set(free_ranks) == {0, 1, 2} and set(kinds) == {"BilinearCocycle", "TableCocycle"}
    assert 0 < found < 1500


@pytest.mark.parametrize("shape", ORDER_64_SHAPES, ids=_shape_id)
def test_coboundary_witness_on_order_64_is_fast(rng, shape):
    g = AbGroup(0, shape)
    shifted = to_table(coboundary_cocycle(g, random_phase_map(rng, g)))
    triv = trivial_cocycle(g)
    with deadline(5):
        witness = coboundary_witness(triv, shifted)
    assert witness is not None and _solves(witness, triv, shifted)


def test_table_roundtrip_preserves_values():
    mu = mod_q_cocycle(3)
    table = to_table(mu)
    table.validate()
    for g in elements(mu.group):
        for h in elements(mu.group):
            assert table(g, h) == mu(g, h)



@pytest.mark.parametrize("torsion", [(3,), (2, 4), (2, 2, 3), (4, 6), (5, 5)], ids=str)
def test_exponent_table_matches_the_values(rng, torsion):
    # both storage forms state mu(g, h) * den in [0, den), in elements() order
    group = AbGroup(0, torsion)
    bilinear = _random_bilinear(rng, group)
    table = to_table(coboundary_cocycle(group, random_phase_map(rng, group)))
    elems = elements(group)
    for mu in (bilinear, table, to_table(bilinear)):
        exps = mu.exponent_table()
        assert len(exps) == len(elems) and all(len(row) == len(elems) for row in exps)
        for g, row in zip(elems, exps):
            for h, e in zip(elems, row):
                assert 0 <= e < mu.den and Phase(e, mu.den) == mu(g, h)


def test_cocycle_consumers_evaluate_no_cocycle_value(rng, monkeypatch):
    # every consumer reads the integer forms: its answers, taken from the
    # Phase definitions first, hold with both __call__ methods raising
    z, half = Phase.ZERO, Phase(1, 2)
    symplectic = [[z] * 4 for _ in range(4)]
    symplectic[0][1] = symplectic[2][3] = half
    cocycles = [mod_q_cocycle(3), _den_24_table(rng),
                to_table(phase_bilinear(AbGroup(0, (2, 4)), ((z, half), (z, Phase(1, 4))))),
                trivial_cocycle(AbGroup(0, (2, 4))), phase_bilinear(AbGroup(0, (2,) * 4), symplectic),
                phase_bilinear(AbGroup(1, (2,)), ((Phase(1, 3), half), (z, half))),
                det_form_cocycle(Phase(1, 16))]
    finite = [mu for mu in cocycles if mu.group.is_finite]
    stars = [phase_star_form(mu) for mu in cocycles]
    pairs = [(finite[0], finite[1]), (finite[1], finite[0]), (finite[2], finite[3]),
             (finite[0], to_table(trivial_cocycle(finite[0].group)))]
    same = [phase_star_form(a) == phase_star_form(b) for a, b in pairs]
    witnesses = [phase_coboundary_witness(a, b) for a, b in pairs]
    degenerate = [
        next((g for g in elements(mu.group) if any(g.coords)
              and all(mu(g, h) - mu(h, g) == Phase.ZERO for h in elements(mu.group))), None)
        for mu in finite
    ]
    unitaries = [None if w else {tensor_key(h, -h): Cyclotomic.from_phase(-mu(h, -h))
                                 for h in elements(mu.group)}
                 for mu, w in zip(finite, degenerate)]
    good = _den_24_table(rng)
    tables = [good, TableCocycle(good.group, {**good.entries, ((1, 2), (0, 0)): Phase(1, 5)}),
              TableCocycle(good.group, {**good.entries, ((1, 2), (2, 1)): Phase(1, 5)}),
              TableCocycle(good.group, {k: v for k, v in good.entries.items() if k != ((2, 0), (0, 1))})]
    messages = [_outcome(phase_validate, table) for table in tables]
    assert messages[0] is None and all(messages[1:])
    assert sum(w is None for w in witnesses) == 2 and sum(u is None for u in unitaries) == 2

    def never(mu, g, h):
        raise AssertionError("a consumer evaluated the cocycle")

    monkeypatch.setattr(BilinearCocycle, "__call__", never)
    monkeypatch.setattr(TableCocycle, "__call__", never)
    assert [(s.ints, s.den) for s in map(star_bicharacter, cocycles)] == stars
    assert [cohomologous(a, b) for a, b in pairs] == same
    assert [coboundary_witness(a, b) for a, b in pairs] == witnesses
    assert [degeneracy_witness(mu) for mu in finite] == degenerate
    for mu, terms in zip(finite, unitaries):
        if terms is None:
            with pytest.raises(ValueError, match="degenerate"):
                malleability_unitary(mu)
        else:
            assert malleability_unitary(mu).terms == terms
    assert [_outcome(table.validate) for table in tables] == messages
