import random
from fractions import Fraction
from math import lcm

import pytest

import oracles
from conftest import deadline
from oracles import (
    apply_diagonal_character,
    coboundary_cocycle,
    combination,
    config_total,
    dual_characters,
    element,
    element_neg,
    element_sum,
    elements,
    flip,
    flow_unitary,
    group_zero,
    malleability_flow,
    phase_bilinear,
    phase_character,
    phase_character_value,
    product_triplet,
    table_from_function,
    tensor_check_malleability,
    tensor_element,
    tensor_key,
    tensor_one,
    tensor_trace,
    to_table,
)
from tbshift import algebra, selftest
from tbshift.abelian import AbElem, AbGroup, Character, dual_character
from tbshift.algebra import (
    MAX_FLOW_ORDER,
    AlgebraElement,
    TensorElement,
    _SwapKernel,
    malleability_unitary,
)
from tbshift.cocycle import BilinearCocycle, TableCocycle, degeneracy_witness, trivial_cocycle
from tbshift.configs import Config, dipole, mu_tilde
from tbshift.dynamics import Motion, Triplet, mod_q_cocycle, mod_q_triplet, rho
from tbshift.lattice import E1, ORIGIN, LatticePoint
from tbshift.scalars import Cyclotomic, Immutable, Phase
from tbshift.selftest import random_algebra_element, random_zero_sum_config


@pytest.fixture
def mu3():
    return mod_q_cocycle(3)


def _one(mu) -> AlgebraElement:
    return AlgebraElement.unit(mu, Config(mu.group, ()))


def _unit(mu, g, h, coeff=Cyclotomic.ONE) -> TensorElement:
    return TensorElement(mu, {tensor_key(g, h): coeff})


def test_unit_laws(mu3, rng):
    one = _one(mu3)
    for _ in range(10):
        x = random_algebra_element(rng, mu3)
        assert x * one == x
        assert one * x == x


def test_single_pair_product(mu3):
    g = mu3.group
    lam = dipole(g, (1, 2))
    u = AlgebraElement.unit(mu3, lam)
    v = AlgebraElement.unit(mu3, -lam)
    prod = u * v
    assert prod == AlgebraElement(mu3, {
        Config(g, ()): Cyclotomic.from_phase(Phase(mu_tilde(mu3, lam, -lam), mu3.den))})


def test_a_merge_is_summed_when_the_pair_products_are_one_object(mu3, monkeypatch):
    # with a fast path that returns the unit itself for ONE * ONE, both cross
    # pairs of (1 + u)(1 + u) store the same object at lam; the product still
    # sums them, as it reads a merge from the dict's size, not from identity
    g = mu3.group
    lam = dipole(g, (1, 2))
    mul = Cyclotomic.__mul__
    monkeypatch.setattr(Cyclotomic, "__mul__",
                        lambda a, b: a if b is Cyclotomic.ONE else mul(a, b))
    assert Cyclotomic.ONE * Cyclotomic.ONE is Cyclotomic.ONE
    x = AlgebraElement(mu3, {Config(g, ()): Cyclotomic.ONE, lam: Cyclotomic.ONE})
    twist = Cyclotomic.from_phase(Phase(mu_tilde(mu3, lam, lam), mu3.den))
    assert (x * x).terms == {Config(g, ()): Cyclotomic.ONE, lam: Cyclotomic.from_rational(2),
                             lam + lam: twist}


def test_distributivity(mu3, rng):
    for _ in range(20):
        a = random_algebra_element(rng, mu3)
        b = random_algebra_element(rng, mu3)
        c = random_algebra_element(rng, mu3)
        a_b = combination((1, a), (1, b))
        assert a_b * c == combination((1, a * c), (1, b * c))
        assert c * a_b == combination((1, c * a), (1, c * b))


def test_associativity(mu3, rng):
    for _ in range(200):
        a = random_algebra_element(rng, mu3)
        b = random_algebra_element(rng, mu3)
        c = random_algebra_element(rng, mu3)
        assert (a * b) * c == a * (b * c)


def test_star_examples(mu3, rng):
    assert _one(mu3).star() == _one(mu3)
    for _ in range(30):
        a = random_algebra_element(rng, mu3)
        assert a.star().star() == a
    g = mu3.group
    lam = dipole(g, (2, 1))
    coeff = Cyclotomic.from_phase(Phase(1, 12))
    starred = AlgebraElement(mu3, {lam: coeff}).star()
    twist = Phase(mu_tilde(mu3, lam, -lam), mu3.den)
    expected = AlgebraElement(mu3, {-lam: coeff.conjugate() * Cyclotomic.from_phase(-twist)})
    assert starred == expected


def test_star_antimultiplicative(mu3, rng):
    for _ in range(50):
        a = random_algebra_element(rng, mu3)
        b = random_algebra_element(rng, mu3)
        assert (a * b).star() == b.star() * a.star()


def test_trace_examples(mu3, rng):
    assert _one(mu3).trace() == Cyclotomic.ONE
    lam = dipole(mu3.group, (1, 0))
    assert AlgebraElement.unit(mu3, lam).trace() == 0
    for _ in range(50):
        a = random_algebra_element(rng, mu3)
        b = random_algebra_element(rng, mu3)
        assert (a * b).trace() == (b * a).trace()


def test_trace_is_faithful(mu3, rng):
    for _ in range(30):
        a = random_algebra_element(rng, mu3)
        if not a.terms:
            continue
        value = (a.star() * a).trace()
        assert value != 0


def test_tensor_basics(mu3, rng):
    g = mu3.group
    a, b = element(g, (1, 0)), element(g, (0, 2))
    left = _unit(mu3, a, group_zero(g))
    right = _unit(mu3, group_zero(g), b)
    assert left * right == _unit(mu3, a, b)
    one = tensor_one(mu3)
    x = _unit(mu3, a, b, Cyclotomic.from_phase(Phase(1, 7)))
    assert x * one == x and one * x == x
    assert x.star().star() == x


def test_tensor_star_componentwise(mu3):
    g = mu3.group
    a = element(g, (1, 2))
    minus_a = element_neg(a)
    x = _unit(mu3, a, minus_a, Cyclotomic.from_phase(-mu3(a.coords, minus_a.coords)))
    # star of u_a (x) u_a^* is u_a^* (x) u_a
    expected = _unit(mu3, minus_a, a, Cyclotomic.from_phase(-mu3(a.coords, minus_a.coords)))
    assert x.star() == expected


def test_two_site_product_and_star_keep_the_tensor_twist(rng):
    # (u_a (x) u_b)(u_c (x) u_d) = zeta^(mu(a, c) + mu(b, d)) u_(a+c) (x) u_(b+d)
    # and (x u_a (x) u_b)* = conj(x) zeta^-(mu(a, -a) + mu(b, -b)) u_-a (x) u_-b,
    # mu read as Phases: the twist mu (+) mu of the tensor square, which the
    # two-site configurations must give through mu~
    for mu in (mod_q_cocycle(3), mod_q_cocycle(4), to_table(mod_q_cocycle(2))):
        elems = elements(mu.group)
        for _ in range(20):
            a, b, c, d = (rng.choice(elems) for _ in range(4))
            x = Cyclotomic.from_phase(Phase(rng.randrange(1, 12), 12))
            product = _unit(mu, a, b) * _unit(mu, c, d)
            assert product == _unit(mu, element_sum(a, c), element_sum(b, d),
                                    Cyclotomic.from_phase(mu(a.coords, c.coords) + mu(b.coords, d.coords)))
            minus_a, minus_b = element_neg(a), element_neg(b)
            twist = Cyclotomic.from_phase(-(mu(a.coords, minus_a.coords) + mu(b.coords, minus_b.coords)))
            assert _unit(mu, a, b, x).star() == _unit(mu, minus_a, minus_b, x.conjugate() * twist)


def test_tensor_and_algebra_elements_never_compare_equal(mu3):
    # one product for both, but equality stays within one class
    g = mu3.group
    terms = {tensor_key(element(g, (1, 0)), element(g, (0, 2))): Cyclotomic.ONE}
    tensor, algebra_element = TensorElement(mu3, terms), AlgebraElement(mu3, terms)
    assert tensor.terms == algebra_element.terms
    assert tensor != algebra_element and algebra_element != tensor
    assert type(tensor * tensor) is TensorElement and type(tensor.star()) is TensorElement
    assert tensor * tensor != algebra_element * algebra_element


def test_element_equality_compares_base_keys_and_coefficient_values(mu3):
    g = mu3.group
    a, b, c = (dipole(g, h) for h in ((1, 0), (0, 2), (1, 1)))
    third = Cyclotomic.from_phase(Phase(1, 3))
    x = AlgebraElement(mu3, {a: Cyclotomic.ONE, b: third})
    # a coefficient is a number, whatever order of root of unity it is written over
    assert Cyclotomic.ONE.rebase(4).ints != Cyclotomic.ONE.ints
    assert x == AlgebraElement(mu3, {a: Cyclotomic.ONE.rebase(4), b: third})
    # the same terms over another base
    assert x != AlgebraElement(trivial_cocycle(g), {a: Cyclotomic.ONE, b: third})
    # a strict subset of the keys, and as many keys but not the same ones
    for other in ({a: Cyclotomic.ONE}, {a: Cyclotomic.ONE, c: third}):
        assert x != AlgebraElement(mu3, other) and AlgebraElement(mu3, other) != x
    # one coefficient differs
    assert x != AlgebraElement(mu3, {a: Cyclotomic.ONE, b: third * third})


def test_products_across_the_two_classes_are_refused(mu3, rng):
    # over one base, a product of a TensorElement and an AlgebraElement is
    # refused both ways, as a TypeError, as their equality is
    tensor, element = _random_tensor_element(rng, mu3), random_algebra_element(rng, mu3)
    for a, b in ((tensor, element), (element, tensor)):
        with pytest.raises(TypeError):
            a * b


def test_an_element_refuses_a_key_over_another_group():
    # a Z/5 configuration under the (Z/3)^2 twist: its square would read
    # the twist on Z/5 coordinates, so the element is not built
    key = Config.from_items(AbGroup(0, (5,)), [(ORIGIN, (1,))])
    for cls in (AlgebraElement, TensorElement):
        with pytest.raises(ValueError, match="another group"):
            cls(mod_q_cocycle(3), {key: Cyclotomic.ONE})
        with pytest.raises(ValueError, match="another group"):
            cls(mod_q_cocycle(3), {key: Cyclotomic.ZERO})
    # an equal group built apart is the cocycle's group
    same = Config.from_items(AbGroup(0, (3, 3)), [(ORIGIN, (1, 0))])
    assert AlgebraElement(mod_q_cocycle(3), {same: Cyclotomic.ONE}).terms == {same: Cyclotomic.ONE}


def test_tensor_element_is_the_algebra_class_under_its_own_name():
    # the tracer replaces TensorElement.__mul__ and star in the class's own
    # __dict__, so they are bound there, as AlgebraElement's own functions,
    # and nothing else is (Python 3.13 adds two more bookkeeping names, and
    # copyreg caches `__slotnames__` on the class at its first copy or pickle)
    bookkeeping = {"__module__", "__qualname__", "__doc__", "__slots__",
                   "__firstlineno__", "__static_attributes__", "__slotnames__"}
    assert set(vars(TensorElement)) - bookkeeping == {"__mul__", "star"}
    assert TensorElement.__bases__ == (AlgebraElement,) and TensorElement.__slots__ == ()
    assert vars(TensorElement)["__mul__"] is vars(AlgebraElement)["__mul__"]
    assert vars(TensorElement)["star"] is vars(AlgebraElement)["star"]
    assert AlgebraElement.__bases__ == (Immutable,)
    assert not hasattr(algebra, "_TwistedGroupAlgebra")


def test_malleability_unitary_properties():
    for q in (3, 5):
        mu = mod_q_cocycle(q)
        v = malleability_unitary(mu)
        n = q * q
        assert len(v.terms) == n
        for coeff in v.terms.values():
            assert coeff * coeff.conjugate() == Cyclotomic.ONE
        assert v.star() == v
        assert v * v == combination((n, tensor_one(mu)))


def test_malleability_rejects_degenerate():
    mu = trivial_cocycle(AbGroup(0, (3,)))
    with pytest.raises(ValueError, match="degenerate"):
        malleability_unitary(mu)


def test_flow_time_zero_and_one(mu3, rng):
    g = mu3.group
    for _ in range(10):
        gg = element(g, (rng.randrange(3), rng.randrange(3)))
        hh = element(g, (rng.randrange(3), rng.randrange(3)))
        x = _unit(mu3, gg, hh, Cyclotomic.from_phase(Phase(1, 5)))
        assert malleability_flow(mu3, Fraction(0), x) == x
    for gg in elements(g):
        x = _unit(mu3, gg, group_zero(g))
        assert malleability_flow(mu3, Fraction(1), x) == _unit(
            mu3, group_zero(g), gg
        )


def test_flow_composition_and_automorphism(mu3, rng):
    g = mu3.group
    half = Fraction(1, 2)
    for _ in range(5):
        gg = element(g, (rng.randrange(3), rng.randrange(3)))
        hh = element(g, (rng.randrange(3), rng.randrange(3)))
        x = _unit(mu3, gg, hh)
        y = _unit(
            mu3,
            element(g, (rng.randrange(3), rng.randrange(3))),
            element(g, (rng.randrange(3), rng.randrange(3))),
        )
        once = malleability_flow(mu3, half, x)
        assert malleability_flow(mu3, half, once) == malleability_flow(mu3, Fraction(1), x)
        assert malleability_flow(mu3, half, x * y) == once * malleability_flow(mu3, half, y)
        assert tensor_trace(once) == tensor_trace(x)


def test_flow_unitary_composition(mu3):
    s, t = Fraction(1, 3), Fraction(1, 2)
    ws, wt = flow_unitary(mu3, s), flow_unitary(mu3, t)
    assert ws * wt == flow_unitary(mu3, s + t)
    w = flow_unitary(mu3, Fraction(2, 5))
    assert w * w.star() == tensor_one(mu3)


def test_flow_needs_square_order():
    # order 6 is not a square, so no cocycle on it is nondegenerate
    mu = trivial_cocycle(AbGroup(0, (2, 3)))
    with pytest.raises(ValueError, match="degenerate"):
        flow_unitary(mu, Fraction(1, 2))


def test_diagonal_character_action(mu3, rng):
    # on the shift algebra a diagonal character acts as rho of (c, identity)
    g, t = mu3.group, mod_q_triplet(3)
    triv = Character.trivial(g)
    chars = dual_characters(g)
    v = malleability_unitary(mu3)
    for c in chars:
        assert apply_diagonal_character(c, v) == v  # every term has content h + (-h)
    for _ in range(10):
        x = random_algebra_element(rng, mu3)
        assert rho(t, Motion(triv), x) == x
        for c in rng.sample(chars, 3):
            assert rho(t, Motion(c), x) == x  # zero-sum keys are fixed
    moved = _unit(mu3, element(g, (1, 0)), group_zero(g))
    c = phase_character(g, (Phase(1, 3), Phase.ZERO))
    scaled = apply_diagonal_character(c, moved)
    assert scaled == combination((Cyclotomic.from_phase(Phase(1, 3)), moved))


def test_diagonal_character_of_order_four_matches_its_phase_values(rng):
    # c = (1/4, 0) on (Z/4)^2 takes the value 2/4, which c(total) reduces
    # to 1/2: every term against v * from_phase(c(total)), on tensor keys
    # by apply_diagonal_character and on configurations that are not
    # zero-sum by rho of (c, identity), so a rotation that paired a reduced
    # numerator with c.den = 4 would fail here
    mu = mod_q_cocycle(4)
    g, t = mu.group, mod_q_triplet(4)
    c = phase_character(g, (Phase(1, 4), Phase.ZERO))
    elems = elements(g)
    tensor = TensorElement(mu, {
        tensor_key(a, b):
            Cyclotomic.from_phase(Phase(rng.randrange(12), 12)) * Fraction(rng.randint(1, 3))
        for a in elems for b in elems
    })
    configs = AlgebraElement(mu, {
        Config.from_items(g, [(LatticePoint(i, 1), h.coords), (ORIGIN, elems[i // 4].coords)]):
            Cyclotomic.from_phase(Phase(rng.randrange(5), 5))
        for i, h in enumerate(elems)
    })
    for x, act in ((tensor, apply_diagonal_character),
                   (configs, lambda c, x: rho(t, Motion(c), x))):
        totals = {phase_character_value(c, config_total(k)) for k in x.terms}
        assert Phase(1, 2) in totals and len(totals) == 4
        out = act(c, x)
        assert out.terms.keys() == x.terms.keys()
        for k, v in x.terms.items():
            want = v * Cyclotomic.from_phase(phase_character_value(c, config_total(k)))
            got = out.terms[k]
            assert (got.order, got.ints, got.den) == (want.order, want.ints, want.den)


def test_flow_commutes_with_diagonal_characters(mu3, rng):
    g = mu3.group
    half = Fraction(1, 2)
    chars = dual_characters(g)
    for _ in range(5):
        x = _unit(
            mu3,
            element(g, (rng.randrange(3), rng.randrange(3))),
            element(g, (rng.randrange(3), rng.randrange(3))),
        )
        for c in rng.sample(chars, 4):
            assert apply_diagonal_character(c, malleability_flow(mu3, half, x)) == (
                malleability_flow(mu3, half, apply_diagonal_character(c, x))
            )


def test_flow_on_product_group():
    # |H| = 225 is a perfect square, so the flow stays exact
    trip = product_triplet(mod_q_triplet(3), mod_q_triplet(5))
    mu = trip.cocycle
    g = trip.group
    x = _unit(mu, element(g, (1, 0, 2, 0)), group_zero(g))
    assert malleability_flow(mu, Fraction(1), x) == _unit(
        mu, group_zero(g), element(g, (1, 0, 2, 0))
    )
    # t = 1 only sees the flip; t = 1/2 against the brute product also
    # checks the two cross terms
    half = Fraction(1, 2)
    w = flow_unitary(mu, half)
    x = _unit(mu, element(g, (1, 0, 2, 0)), element(g, (0, 1, 0, 3)))
    assert malleability_flow(mu, half, x) == w * x * w.star()


def _random_tensor_element(rng, mu, terms=3):
    g = mu.group
    out = {}
    while len(out) < terms:
        key = tensor_key(*(element(g, [rng.randrange(m) for m in g.torsion]) for _ in range(2)))
        out[key] = Cyclotomic.from_phase(Phase(rng.randrange(4), 4)) * Fraction(
            rng.randrange(1, 5), rng.randrange(1, 4)
        )
    return TensorElement(mu, out)


def _symplectic_z2p4():
    half, z = Phase(1, 2), Phase.ZERO
    matrix = [[z] * 4 for _ in range(4)]
    matrix[0][1] = matrix[2][3] = half
    return phase_bilinear(AbGroup(0, (2, 2, 2, 2)), matrix)


def _shifted_table_cocycle(rng):
    mu = mod_q_cocycle(3)
    g = mu.group
    b = {h: Phase(rng.randrange(6), 6) for h in g.coordinates()}
    shift = coboundary_cocycle(g, b)
    return table_from_function(g, lambda h, k: mu(h, k) + shift(h, k))


def test_flow_matches_brute_conjugation(rng):
    # the closed form against the product W_t x W_t^* it stands for
    bases = [
        mod_q_cocycle(2),
        mod_q_cocycle(3),
        mod_q_cocycle(4),
        _symplectic_z2p4(),
        _shifted_table_cocycle(rng),
    ]
    times = [Fraction(0), Fraction(1), Fraction(1, 2)]
    for mu in bases:
        for t in times:
            w = flow_unitary(mu, t)
            x = _random_tensor_element(rng, mu)
            assert malleability_flow(mu, t, x) == w * x * w.star()
    # coefficients in Q(zeta_5) and Q(zeta_8) over the mod-3 cocycle, so
    # the kernel's order L is a proper multiple of its conductor N = 3
    mu = mod_q_cocycle(3)
    roots = [Cyclotomic.from_phase(Phase(1, 5)) * Fraction(2, 3),
             Cyclotomic.from_phase(Phase(3, 8)) - Cyclotomic.from_phase(Phase(2, 5))]
    w = flow_unitary(mu, Fraction(1, 2))
    x = _random_tensor_element(rng, mu, terms=4)
    x = TensorElement(mu, {k: c * rng.choice(roots) for k, c in x.terms.items()})
    assert malleability_flow(mu, Fraction(1, 2), x) == w * x * w.star()
    # two flows on one kernel
    for mu in (mod_q_cocycle(2), _shifted_table_cocycle(rng)):
        kernel, w = _SwapKernel(mu), flow_unitary(mu, Fraction(1, 2))
        for _ in range(2):
            x = _random_tensor_element(rng, mu, terms=2)
            assert _kernel_half(kernel, x) == w * x * w.star()
    # a two-term x on the 225-element group
    mu = product_triplet(mod_q_triplet(3), mod_q_triplet(5)).cocycle
    g = mu.group
    w = flow_unitary(mu, Fraction(1, 2))
    x = TensorElement(mu, {
        tensor_key(element(g, (1, 0, 2, 0)), element(g, (0, 1, 0, 3))):
            Cyclotomic.from_phase(Phase(1, 3)),
        tensor_key(element(g, (2, 2, 0, 4)), group_zero(g)): Cyclotomic.from_rational(Fraction(-3, 2)),
    })
    assert malleability_flow(mu, Fraction(1, 2), x) == w * x * w.star()


def test_half_flows_forward_not_backward(rng):
    # alpha_{-1/2} also squares to the flip and commutes with diagonal
    # characters, so the malleability checks cannot tell it from
    # alpha_{1/2}; the brute products can: on u(g, h) with g != h the two
    # differ by i (x - flip(x)) S, which is not zero
    for mu in (mod_q_cocycle(3), _symplectic_z2p4()):
        kernel, elems = _SwapKernel(mu), elements(mu.group)
        forward, backward = flow_unitary(mu, Fraction(1, 2)), flow_unitary(mu, Fraction(-1, 2))
        for _ in range(6):
            x = _unit(mu, *rng.sample(elems, 2))
            flowed = _kernel_half(kernel, x)
            assert flowed == forward * x * forward.star()
            assert flowed != backward * x * backward.star()


@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 5)])
def test_flow_oracle_refuses_a_time_the_kernel_has_no_flow_at(mu3, t):
    # only flow_unitary is built at these times, so a comparison there
    # would hold the brute product against itself
    with pytest.raises(ValueError, match="only computed at integer times and at 1/2"):
        malleability_flow(mu3, t, tensor_one(mu3))


def test_check_malleability_draws_what_the_listed_dual_drew(monkeypatch):
    # each sample's character is dual_character at rng.choice(range(|H|)),
    # the draw rng.choice makes on the listed dual: the characters, the
    # checks and the rng state afterwards are those of the list; each
    # sample is the basis element u(g, h) of the g and h drawn before it,
    # the first input of its three flows at t = 1/2, in both runs
    real_half = _SwapKernel.half
    for q, samples in ((2, 3), (3, 5), (4, 6), (5, 4)):
        mu = to_table(mod_q_cocycle(q)) if q == 2 else mod_q_cocycle(q)
        group, v = mu.group, malleability_unitary(mu)
        listed, numbers = dual_characters(group), list(group.coordinates())
        drawn, halved = [], []
        monkeypatch.setattr(algebra, "dual_character",
                            lambda g, i: drawn.append(dual_character(g, i)) or drawn[-1])
        monkeypatch.setattr(_SwapKernel, "half", lambda self, x: halved.append(x) or real_half(self, x))
        rng = random.Random(q)
        checks = algebra.check_malleability(v, rng, samples)
        monkeypatch.setattr(algebra, "dual_character", lambda g, i: listed[i])
        from_list = random.Random(q)
        assert algebra.check_malleability(v, from_list, samples) == checks
        monkeypatch.undo()
        assert rng.getstate() == from_list.getstate()
        replay, expected, sampled = random.Random(q), [], []
        for _ in range(samples):
            g, h = (tuple([replay.randrange(m) for m in group.torsion]) for _ in range(2))
            sampled.append({numbers.index(g) * len(numbers) + numbers.index(h): Cyclotomic.ONE})
            expected.append(replay.choice(listed))
        assert drawn == expected and halved[::3] == sampled * 2 and len(halved) == 6 * samples
        assert rng.getstate() == replay.getstate()
        assert all(checks.values())


def _nondegenerate_bilinear(rng, torsion):
    group = AbGroup(0, torsion)
    while True:
        mu = selftest._random_bilinear(rng, group)
        if degeneracy_witness(mu) is None:
            return mu


def test_check_malleability_matches_its_tensor_element_route(rng):
    # the index form against the TensorElement route it replaced: generic
    # star and product, drawn group elements, oracle flows and characters;
    # the same checks and the same Random state afterwards
    bases = [_nondegenerate_bilinear(rng, torsion)
             for torsion in ((2, 2), (3, 3), (4, 4), (2, 2, 2, 2), (2, 4, 2, 4), (6, 6))]
    bases += [to_table(_nondegenerate_bilinear(rng, (4, 4))), _shifted_table_cocycle(rng),
              to_table(_symplectic_z2p4())]
    cases = [(mu, samples) for mu in bases for samples in range(1, 6)]
    cases.append((product_triplet(mod_q_triplet(3), mod_q_triplet(5)).cocycle, 5))
    for mu, samples in cases:
        v = malleability_unitary(mu)
        seed = rng.randrange(10**6)
        new, old = random.Random(seed), random.Random(seed)
        checks = algebra.check_malleability(v, new, samples)
        assert checks == tensor_check_malleability(v, old, samples)
        assert list(checks) == ["self_adjoint", "square", "full_swap", "half_composition",
                                "character_commutation"]
        assert all(checks.values())
        assert new.getstate() == old.getstate()


def test_check_malleability_fails_on_a_mutated_unitary(rng):
    # one coefficient of v rotated, or one coefficient at a key off V's
    # support u_h (x) u_-h: self_adjoint or square turns false, while the
    # flow checks, which run on the kernel's own V, still pass
    for mu in (mod_q_cocycle(2), mod_q_cocycle(3), _symplectic_z2p4(), _shifted_table_cocycle(rng)):
        v, g = malleability_unitary(mu), mu.group
        elems = elements(g)
        mutants = [TensorElement(mu, {**v.terms, key: c.rotated(1, 3)})
                   for key, c in v.terms.items()]
        for _ in range(4):
            a, b = rng.choice(elems), rng.choice(elems)
            if element_sum(a, b) != group_zero(g):
                mutants.append(TensorElement(mu, {**v.terms, tensor_key(a, b): Cyclotomic.ONE}))
        assert len(mutants) > len(v.terms)
        for w in mutants:
            checks = algebra.check_malleability(w, random.Random(1), 1)
            assert not (checks["self_adjoint"] and checks["square"])
            assert checks["full_swap"] and checks["half_composition"]
            assert checks["character_commutation"]


def test_check_malleability_builds_no_group_element_or_tensor_element(monkeypatch):
    # once malleability_unitary has built v, the check runs on the
    # kernel's index form alone
    def refuse(self, *args):
        raise AssertionError("a group element or a TensorElement was built")

    for mu in (mod_q_cocycle(3), _symplectic_z2p4()):
        v = malleability_unitary(mu)
        with monkeypatch.context() as patch:
            patch.setattr(AbElem, "__init__", refuse)
            patch.setattr(TensorElement, "__init__", refuse)
            checks = algebra.check_malleability(v, random.Random(3), 3)
            with pytest.raises(AssertionError, match="built"):
                group_zero(mu.group)
        assert len(checks) == 5 and all(checks.values())


def test_kernel_star_and_diagonal_match_the_tensor_element_forms(rng):
    # the index-form adjoint against the generic star, and a character's
    # int turns against apply_diagonal_character
    for mu in (mod_q_cocycle(4), _symplectic_z2p4(), _shifted_table_cocycle(rng)):
        kernel, group = _SwapKernel(mu), mu.group
        chars = dual_characters(group)
        for _ in range(10):
            x = _mixed_tensor_element(rng, mu, rng.randint(1, 5))
            index = kernel.index_form(x)
            assert tensor_element(mu, index) == x
            assert tensor_element(mu, kernel.star(index)) == x.star()
            assert tensor_element(mu, kernel.flip(index)) == flip(x)
            c = rng.choice(chars)
            assert tensor_element(mu, kernel.diagonal(c, index)) == apply_diagonal_character(c, x)
        with pytest.raises(ValueError, match="base"):
            kernel.index_form(tensor_one(mod_q_cocycle(5)))


def test_kernel_diagonal_is_rho_of_the_character_and_the_identity(rng):
    # with configuration keys the same element is in both algebras: the
    # kernel's diagonal character and rho of (c, identity) give the same
    # TensorElement
    table = to_table(mod_q_cocycle(2))
    triplets = [mod_q_triplet(3), mod_q_triplet(4),
                Triplet(table.group, table, Character.trivial(table.group))]
    for t in triplets:
        mu = t.cocycle
        kernel, chars = _SwapKernel(mu), dual_characters(t.group)
        for _ in range(20):
            x, c = _mixed_tensor_element(rng, mu, rng.randint(1, 5)), rng.choice(chars)
            diagonal = tensor_element(mu, kernel.diagonal(c, kernel.index_form(x)))
            assert diagonal == rho(t, Motion(c), x)


def test_index_form_refuses_a_site_off_the_two_sites(mu3):
    g = mu3.group
    kernel, h = _SwapKernel(mu3), (1, 2)
    for items in ([(LatticePoint(0, 1), h)], [(ORIGIN, h), (LatticePoint(2, 0), h)],
                  [(ORIGIN, h), (E1, h), (LatticePoint(-1, 0), h)]):
        x = TensorElement(mu3, {Config.from_items(g, items): Cyclotomic.ONE})
        with pytest.raises(ValueError, match="off the origin and e1"):
            kernel.index_form(x)
    n, h = g.order(), element(g, h)  # h = (1, 2) is element number 5
    assert kernel.index_form(_unit(mu3, h, group_zero(g))) == {5 * n: Cyclotomic.ONE}
    assert kernel.index_form(_unit(mu3, group_zero(g), h)) == {5: Cyclotomic.ONE}


# at integer t the flow builds no kernel but keeps its checks and their order
@pytest.mark.parametrize(
    "t", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(2), 3]
)
def test_flow_errors_at_every_time(t):
    cases = [
        (trivial_cocycle(AbGroup(0, (2, 2))), "degenerate"),
        (trivial_cocycle(AbGroup(0, (2, 3))), "degenerate"),
        (trivial_cocycle(AbGroup(2)), "finite groups"),
    ]
    for mu, message in cases:
        with pytest.raises(ValueError, match=message):
            malleability_flow(mu, t, tensor_one(mu))
    with pytest.raises(ValueError, match="base"):
        malleability_flow(mod_q_cocycle(3), t, tensor_one(mod_q_cocycle(5)))


# coefficients of orders 1, 3, 5, 12 and 60, some with a denominator
MIXED = [
    Cyclotomic.from_phase(Phase(1, 12)) * Fraction(3, 2),
    Cyclotomic.from_phase(Phase(1, 5)),
    Cyclotomic.from_phase(Phase(2, 3)) * Fraction(-1, 4),
    Cyclotomic.from_phase(Phase(7, 12)) + Cyclotomic.from_phase(Phase(3, 5)),
    Cyclotomic.from_rational(Fraction(5, 3)),
]


def _mixed_tensor_element(rng, mu, terms):
    g = mu.group
    out = {}
    for _ in range(terms):
        key = tensor_key(*(element(g, [rng.randrange(m) for m in g.torsion]) for _ in range(2)))
        out[key] = rng.choice(MIXED)
    return TensorElement(mu, out)


def _kernel_half(kernel, x):
    return tensor_element(kernel.mu, kernel.half(kernel.index_form(x)))


def _times_v(kernel, y):
    return tensor_element(kernel.mu, kernel.times_v(kernel.index_form(y)))


def test_kernel_product_matches_generic_product(rng):
    product_3_5 = product_triplet(mod_q_triplet(3), mod_q_triplet(5)).cocycle
    bases = [
        (mod_q_cocycle(2), 40),
        (mod_q_cocycle(3), 40),
        (mod_q_cocycle(4), 40),
        (_symplectic_z2p4(), 40),
        (_shifted_table_cocycle(rng), 40),
        (product_3_5, 8),
    ]
    for mu, rounds in bases:
        kernel = _SwapKernel(mu)
        elems = list(mu.group.coordinates())
        # the conductor mu.den is the lcm of all the values' denominators,
        # and each twist exponent over it is the value itself
        assert kernel.mu.den == lcm(*(mu(g, h).den for g in elems for h in elems))
        for i, g in enumerate(elems):
            for j, h in enumerate(elems):
                assert Phase(kernel.twist[i][j], kernel.mu.den) == mu(g, h)
        v = malleability_unitary(mu)
        assert kernel.times_v({}) == {}
        for _ in range(rounds):
            x = _mixed_tensor_element(rng, mu, rng.randint(1, 4))
            assert _times_v(kernel, x) == x * v
            # S x = flip(x) S, which the flow's single product rests on
            assert v * x == flip(x) * v


def test_kernel_build_evaluates_no_cocycle_value(rng, monkeypatch):
    # the twist is each storage form's own integer table, not mu(g, h)
    bases = [mod_q_cocycle(3), _symplectic_z2p4(), _shifted_table_cocycle(rng),
             product_triplet(mod_q_triplet(3), mod_q_triplet(5)).cocycle]
    tables = [[[mu(g, h) for h in mu.group.coordinates()] for g in mu.group.coordinates()]
              for mu in bases]

    def never(mu, g, h):
        raise AssertionError("the swap kernel evaluated the cocycle")

    monkeypatch.setattr(BilinearCocycle, "__call__", never)
    monkeypatch.setattr(TableCocycle, "__call__", never)
    for mu, values in zip(bases, tables):
        kernel = _SwapKernel(mu)
        assert [[Phase(e, kernel.mu.den) for e in row] for row in kernel.twist] == values


def test_kernel_on_the_largest_group_builds_within_its_deadline(rng):
    # (Z/32)^2 at MAX_FLOW_ORDER: a table of 2^20 running sums
    mu = mod_q_cocycle(32)
    assert mu.group.order() == MAX_FLOW_ORDER
    with deadline(2):
        kernel = _SwapKernel(mu)
    elems = list(mu.group.coordinates())
    for _ in range(200):
        i, j = rng.randrange(MAX_FLOW_ORDER), rng.randrange(MAX_FLOW_ORDER)
        assert Phase(kernel.twist[i][j], kernel.mu.den) == mu(elems[i], elems[j])


def test_kernel_product_cancels_to_zero():
    # V V = |H|: every key of the product but the zero key cancels
    for mu in (mod_q_cocycle(2), mod_q_cocycle(3), _symplectic_z2p4()):
        v = malleability_unitary(mu)
        assert _times_v(_SwapKernel(mu), v) == combination((mu.group.order(), tensor_one(mu)))
    # one key cancels, the others stay: a u(p1, p2) + b u(q1, q2) with
    # p1 + p2 = q1 + q2 hits the key (p1 + k, p2 - k) of u(p1, p2) V at
    # u(q1, q2) u(l, -l), l = p1 + k - q1; b makes the two terms there cancel
    mu = mod_q_cocycle(3)
    g = mu.group
    p1, p2, q1, q2 = (element(g, c) for c in ((1, 0), (0, 1), (2, 2), (2, 2)))
    k = element(g, (1, 2))
    l = element_sum(element_sum(p1, k), element_neg(q1))

    def phase(h1, h2, m):
        # u(h1, h2) u(m, -m) with V's coefficient at (m, -m)
        minus_m = element_neg(m).coords
        return mu(h1.coords, m.coords) + mu(h2.coords, minus_m) - mu(m.coords, minus_m)

    a = MIXED[0]
    b = -(a * Cyclotomic.from_phase(phase(p1, p2, k) - phase(q1, q2, l)))
    y = TensorElement(mu, {tensor_key(p1, p2): a, tensor_key(q1, q2): b})
    product = y * malleability_unitary(mu)
    assert tensor_key(element_sum(p1, k), element_sum(p2, element_neg(k))) not in product.terms
    assert product.terms
    assert _times_v(_SwapKernel(mu), y) == product


def test_flow_refuses_groups_above_the_bound(monkeypatch):
    def never(mu):
        raise AssertionError("the bound is checked before the degeneracy witness")

    monkeypatch.setattr(algebra, "degeneracy_witness", never)
    mu = mod_q_cocycle(64)
    assert mu.group.order() == 4096 > MAX_FLOW_ORDER
    for build in (
        lambda: malleability_unitary(mu),
        lambda: flow_unitary(mu, Fraction(1, 2)),
        lambda: malleability_flow(mu, Fraction(1, 2), tensor_one(mu)),
        lambda: malleability_flow(mu, Fraction(1), tensor_one(mu)),
    ):
        with pytest.raises(ValueError, match="only run for"):
            build()


def test_integer_time_flow_matches_the_kernel(rng, monkeypatch):
    # flip(x) at odd t, without the kernel, against the kernel's flip;
    # both relabel, and neither runs the kernel's pair loop
    def never(*args):
        raise AssertionError("integer times are flowed by relabelling")

    monkeypatch.setattr(_SwapKernel, "_accumulate", never)
    bases = [mod_q_cocycle(2), mod_q_cocycle(3), _symplectic_z2p4(), _shifted_table_cocycle(rng)]
    for mu in bases:
        kernel = _SwapKernel(mu)
        for t in (-1, 1, 3):
            x = _random_tensor_element(rng, mu)
            flipped = tensor_element(mu, kernel.flip(kernel.index_form(x)))
            assert malleability_flow(mu, Fraction(t), x) == flipped
            assert malleability_flow(mu, t, x) == flipped


def test_integer_time_flow_builds_no_table_on_the_product_group(monkeypatch):
    # the 225-element group: building its swap kernel would fail the flow
    def no_kernel(mu):
        raise AssertionError("an integer-time flow built the swap kernel")

    monkeypatch.setattr(oracles, "_SwapKernel", no_kernel)
    mu = product_triplet(mod_q_triplet(3), mod_q_triplet(5)).cocycle
    g = mu.group
    x = _unit(mu, element(g, (1, 0, 2, 0)), element(g, (0, 1, 0, 3)))
    for t in (-1, 0, 1, 2, 3):
        expected = flip(x) if t % 2 else x
        assert malleability_flow(mu, Fraction(t), x) == expected


@pytest.mark.parametrize("group", [AbGroup(0, (3, 3)), AbGroup(2), AbGroup(1, (2,))], ids=repr)
def test_random_generators_match_their_abelem_and_phase_forms(group):
    # the int generators give the same keys, in the same order, and the same
    # coefficients field by field, and leave the Random in the same state
    mu = trivial_cocycle(group)
    for seed in range(60):
        new, old = random.Random(seed), random.Random(seed)
        assert random_zero_sum_config(new, group) == oracles.abelem_zero_sum_config(old, group)
        assert new.getstate() == old.getstate()
        x = random_algebra_element(new, mu, terms=4, radius=1)
        y = oracles.phase_algebra_element(old, mu, terms=4, radius=1)
        assert new.getstate() == old.getstate()
        assert list(x.terms) == list(y.terms)
        assert [(c.order, c.ints, c.den) for c in x.terms.values()] == [
            (c.order, c.ints, c.den) for c in y.terms.values()]
