import copy
import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tbshift import scalars
from tbshift.abelian import AbGroup
from tbshift.cocycle import _bilinear_value
from tbshift.scalars import Cyclotomic, Phase, cyclotomic_polynomial

phases = st.builds(Phase, st.integers(-60, 60), st.integers(1, 24))


def _coeffs(x):
    """x's coefficients over the power basis of Q(zeta_order), as Fractions."""
    return tuple(Fraction(c, x.den) for c in x.ints)


def test_phase_add_examples():
    assert Phase(1, 3) + Phase(2, 3) == Phase.ZERO
    assert Phase(1, 2) + Phase(1, 3) == Phase(5, 6)
    assert Phase.ZERO + Phase(7, 9) == Phase(7, 9)


def test_phase_scale_examples():
    assert Phase(1, 3) * 3 == Phase.ZERO
    assert Phase(1, 4) * -1 == Phase(3, 4)
    assert Phase(1, 6) * 4 == Phase(2, 3)


def test_phase_normalization():
    assert Phase(5, 3) == Phase(2, 3)
    assert Phase(-1, 4) == Phase(3, 4)
    assert Phase(2, 4) == Phase(1, 2)
    assert str(Phase(0, 7)) == "0/1"


def test_phase_parse_roundtrip():
    for text in ["0/1", "1/2", "7/9", "15/16"]:
        assert str(Phase.parse(text)) == text


@given(phases, phases, phases)
def test_phase_group_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + Phase.ZERO == a
    assert a + (-a) == Phase.ZERO


@given(phases, st.integers(-10, 10))
def test_phase_scaling_is_repeated_addition(a, n):
    total = Phase.ZERO
    for _ in range(abs(n)):
        total = total + a
    if n < 0:
        total = -total
    assert a * n == total


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    x = sympy.Symbol("x")
    for n in range(1, 151):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(map(int, expected)), n


def test_root_of_unity_examples():
    one = Cyclotomic.from_phase(Phase.ZERO)
    assert one.order == 1 and _coeffs(one) == (Fraction(1),)
    minus = Cyclotomic.from_phase(Phase(1, 2))
    assert minus.order == 2 and _coeffs(minus) == (Fraction(-1),)
    # zeta_3^2 reduces to -1 - zeta_3 modulo x^2 + x + 1
    z32 = Cyclotomic.from_phase(Phase(2, 3))
    assert _coeffs(z32) == (Fraction(-1), Fraction(-1))


def test_cyclotomic_ring_examples():
    z3 = Cyclotomic.from_phase(Phase(1, 3))
    z32 = Cyclotomic.from_phase(Phase(2, 3))
    assert z3 * z32 == Cyclotomic.ONE
    assert Cyclotomic.ONE + z3 + z32 == 0
    z5 = Cyclotomic.from_phase(Phase(1, 5))
    assert z5.conjugate() == Cyclotomic.from_phase(Phase(4, 5))


def test_rebase_examples():
    z2 = Cyclotomic.from_phase(Phase(1, 2))
    assert z2.rebase(4) == Cyclotomic.from_phase(Phase(2, 4))
    assert Cyclotomic.ONE.rebase(12) == Cyclotomic.ONE
    z3 = Cyclotomic.from_phase(Phase(1, 3))
    assert z3.rebase(6) == Cyclotomic.from_phase(Phase(2, 6))
    with pytest.raises(ValueError):
        z3.rebase(4)


def test_phase_embedding_is_homomorphism_exhaustive():
    # image of phase addition is multiplication, for all denominators <= 24
    for den_a in range(1, 25):
        for num_a in range(den_a):
            a = Phase(num_a, den_a)
            b = Phase(den_a - num_a if num_a else 0, den_a)
            assert Cyclotomic.from_phase(a + b) == Cyclotomic.from_phase(
                a
            ) * Cyclotomic.from_phase(b)
    for den_a, den_b in [(3, 4), (6, 8), (5, 7), (12, 18), (16, 24)]:
        for num_a in range(den_a):
            for num_b in range(den_b):
                a, b = Phase(num_a, den_a), Phase(num_b, den_b)
                lhs = Cyclotomic.from_phase(a + b)
                rhs = Cyclotomic.from_phase(a) * Cyclotomic.from_phase(b)
                assert lhs == rhs


@given(phases)
def test_conjugate_times_self_is_real(a):
    x = Cyclotomic.from_phase(a) + Cyclotomic.from_rational(Fraction(1, 2))
    y = x.conjugate() * x
    assert y.conjugate() == y


@given(phases, phases)
@settings(max_examples=50)
def test_canonical_equality_is_stable(a, b):
    x = Cyclotomic.from_phase(a) * Fraction(3, 7)
    y = Cyclotomic.from_phase(b) * Fraction(-2, 5)
    assert (x + y) - y == x


def test_scalar_multiplication():
    z4 = Cyclotomic.from_phase(Phase(1, 4))
    assert z4 * 2 == z4 + z4
    assert z4 * Fraction(1, 2) + z4 * Fraction(1, 2) == z4
    assert z4 * 0 == 0


def test_product_and_equality_by_the_other_operand():
    # * and == test for a Cyclotomic first, then an int and a Fraction;
    # anything else, a Phase or a float, is declined with NotImplemented
    z3, i = Cyclotomic.ONE.rotated(1, 3), Cyclotomic.ONE.rotated(1, 4)
    for scaled, want in ((z3 * 2, Cyclotomic(3, (0, 2, 0), 1)), (2 * z3, Cyclotomic(3, (0, 2, 0), 1)),
                         (z3 * True, z3), (z3 * -3, Cyclotomic(3, (0, -3, 0), 1)),
                         (z3 * Fraction(-3, 4), Cyclotomic(3, (0, -3, 0), 4)),
                         (Fraction(1, 2) * z3, Cyclotomic(3, (0, 1, 0), 2))):
        assert scaled.order == 3 and (scaled.ints, scaled.den) == (want.ints, want.den)
    assert z3 * 0 == 0 and (z3 * 0).ints == (0, 0) and z3 * Fraction(0) == Cyclotomic.ZERO
    for a, b, want in ((z3, i, Cyclotomic.ONE.rotated(7, 12)), (i, i, Cyclotomic.ONE.rotated(1, 2)),
                       (z3, Cyclotomic.ONE.rotated(1, 6), Cyclotomic.ONE.rotated(1, 2)),
                       (z3.rebase(6), z3.rebase(12), Cyclotomic.ONE.rotated(2, 3))):
        assert a * b == b * a == want and (a * b).order == lcm(a.order, b.order)
    assert z3 == z3.rebase(6) == z3.rebase(12) and z3 != i and z3.rebase(12) != i.rebase(12)
    assert Cyclotomic.ONE.rebase(4) == 1 == Cyclotomic.ONE and Cyclotomic.ONE != 2
    assert (Cyclotomic.ONE * Fraction(1, 2)).rebase(6) == Fraction(1, 2) != Fraction(1, 3)
    assert Cyclotomic.ZERO.rebase(5) == 0 == Fraction(0) and z3 != 1 and z3 != Fraction(1, 3)
    for other in (Phase(1, 3), 0.5, "1", None):
        assert Cyclotomic.__mul__(z3, other) is NotImplemented
        assert Cyclotomic.__eq__(z3, other) is NotImplemented
        assert z3 != other and not z3 == other
    with pytest.raises(TypeError):
        z3 * Phase(1, 3)
    with pytest.raises(TypeError):
        Phase(1, 3) * z3


def test_sums_with_a_number_are_refused_as_a_type_error():
    # == compares with numbers and * scales by them, but no sum lifts one:
    # the sum declines, and Python raises TypeError for the operator
    z4 = Cyclotomic.from_phase(Phase(1, 4))
    for number in (1, 0, Fraction(1, 2)):
        for add in (lambda: z4 + number, lambda: z4 - number, lambda: number + z4,
                    lambda: Cyclotomic.ONE + number, lambda: Cyclotomic.ONE - number):
            with pytest.raises(TypeError, match="unsupported operand"):
                add()
    assert Cyclotomic.ONE.__add__(1) is NotImplemented
    assert "__add__" in vars(Cyclotomic)


# -- the int kernel against sympy: an independent reduction mod Phi_N over QQ --

ORDERS = list(range(1, 25)) + [60]
MIXED = [(1, 7), (2, 3), (3, 4), (4, 6), (5, 12), (8, 12), (9, 6), (15, 20), (24, 60), (7, 60)]
X = sympy.Symbol("x")


def _reduced(coeffs, n):
    """sum_i coeffs[i] x^i modulo Phi_n over QQ, low degree first, padded to phi(n)."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      X, domain="QQ")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.rem(poly, phi).all_coeffs())]
    return tuple(out + [Fraction(0)] * (phi.degree() - len(out)))


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _lifted(coeffs, n, m):
    """The same number in Q(zeta_m): substitute x -> x^(m/n), then reduce."""
    step = m // n
    out = [Fraction(0)] * (len(coeffs) * step)
    out[::step] = coeffs
    return _reduced(out, m)


def _conjugated(coeffs, n):
    out = [Fraction(0)] * n
    for i, c in enumerate(coeffs):
        out[-i % n] += c
    return _reduced(out, n)


def _random_raw(rng, n):
    """Unreduced rational coefficients of degree up to 2n."""
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 2 * n + 1))]


def _degree(n):
    """phi(n), the length of the power basis of Q(zeta_n)."""
    return len(cyclotomic_polynomial(n)) - 1


def _assert_canonical(x):
    assert x.den > 0
    assert len(x.ints) == _degree(x.order)
    assert gcd(x.den, *x.ints) == 1
    if not any(x.ints):
        assert x.den == 1


def _cyc(n, coeffs):
    """The Cyclotomic sum_i coeffs[i] zeta_n^i of at most n rational coefficients."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    return Cyclotomic(n, ints + [0] * (n - len(ints)), den)


def _from_roots(raw, n):
    """The kernel's own route: sum_i raw[i] * zeta_n^i."""
    total = Cyclotomic.ZERO
    for i, c in enumerate(raw):
        total = total + Cyclotomic.from_phase(Phase(i, n)) * c
    return total


@pytest.mark.parametrize("n", ORDERS)
def test_kernel_matches_sympy_in_one_field(n, rng):
    for _ in range(3):
        raw_a, raw_b = _random_raw(rng, n), _random_raw(rng, n)
        ra, rb = _reduced(raw_a, n), _reduced(raw_b, n)
        a, b = _cyc(n, ra), _cyc(n, rb)
        assert _coeffs(a) == ra
        assert _from_roots(raw_a, n) == a
        for got, want in [
            (a + b, _reduced([x + y for x, y in zip(ra, rb)], n)),
            (a - b, _reduced([x - y for x, y in zip(ra, rb)], n)),
            (a * b, _reduced(_times(ra, rb), n)),
            (a * 3, tuple(c * 3 for c in ra)),
            (a * Fraction(-2, 7), tuple(c * Fraction(-2, 7) for c in ra)),
            (a.conjugate(), _conjugated(ra, n)),
            (a.rebase(2 * n), _lifted(ra, n, 2 * n)),
            (a.rebase(3 * n), _lifted(ra, n, 3 * n)),
            (a - a, tuple([Fraction(0)] * _degree(n))),
        ]:
            _assert_canonical(got)
            assert _coeffs(got) == want
        assert (a == b) == (ra == rb)
        assert a == _cyc(n, ra) and a.rebase(2 * n) == a and a == a.rebase(3 * n)
        assert a * b == b * a


# (k, n) pairs with k negative, zero and unreduced, and n not dividing each order
ROTATIONS = [(0, 1), (0, 12), (1, 3), (-1, 3), (4, 12), (-4, 12), (7, 12), (2, 5), (-13, 60),
             (25, 20), (3, 8), (-9, 6)]


@pytest.mark.parametrize("order", [1, 3, 5, 12, 60])
def test_rotated_is_the_product_with_a_root_of_unity(order, rng):
    # rotated(k, n) against x * from_phase(Phase(k, n)): the same value with
    # the same order, numerators and denominator, so k/n is reduced before
    # the order is chosen; and against sympy, x lifted to Q(zeta_m) times
    # x^(k m/n) reduced mod Phi_m
    for _ in range(3):
        x = _cyc(order, _reduced(_random_raw(rng, order), order))
        for k, n in ROTATIONS:
            got, want = x.rotated(k, n), x * Cyclotomic.from_phase(Phase(k, n))
            _assert_canonical(got)
            assert got == want
            assert (got.order, got.ints, got.den) == (want.order, want.ints, want.den)
            m = lcm(order, n // gcd(k, n))
            shifted = [Fraction(0)] * (k * m // n % m) + list(_lifted(_coeffs(x), order, m))
            assert _coeffs(got) == _reduced(shifted, m)
    assert Cyclotomic.ONE.rotated(4, 12).order == 3
    assert Cyclotomic.ZERO.rotated(1, 4) == 0


@pytest.mark.parametrize("n, m", MIXED)
def test_kernel_matches_sympy_across_orders(n, m, rng):
    big = lcm(n, m)
    for _ in range(3):
        ra, rb = _reduced(_random_raw(rng, n), n), _reduced(_random_raw(rng, m), m)
        a, b = _cyc(n, ra), _cyc(m, rb)
        la, lb = _lifted(ra, n, big), _lifted(rb, m, big)
        for got, want in [
            (a + b, _reduced([x + y for x, y in zip(la, lb)], big)),
            (b - a, _reduced([y - x for x, y in zip(la, lb)], big)),
            (a * b, _reduced(_times(la, lb), big)),
            (b * a, _reduced(_times(la, lb), big)),
        ]:
            _assert_canonical(got)
            assert got.order == big and _coeffs(got) == want
        assert (a == b) == (la == lb)
        assert a == _cyc(big, la) and _cyc(big, lb) == b
    # equal numbers written in different fields
    assert Cyclotomic.from_phase(Phase(1, n)) == Cyclotomic.from_phase(Phase(big // n, big))
    assert Cyclotomic.from_rational(Fraction(3, 4)) == _cyc(m, _lifted((Fraction(3, 4),), 1, m))


def test_zero_is_canonical():
    z12 = Cyclotomic.from_phase(Phase(1, 12))
    # 1 + z^4 + z^8 is zero in Q(zeta_12), as Phi_3(z^4)
    unreduced = Cyclotomic(12, (7, 0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0), 5)
    for zero in [z12 - z12, z12 * 0, Cyclotomic(12, [0] * 12, 1), unreduced, Cyclotomic.ZERO]:
        _assert_canonical(zero)
        assert zero == 0 and not zero
    assert Cyclotomic(4, (2, 4, 0, 0), 6).den == 3


def test_short_coefficient_list_is_refused_without_factoring(monkeypatch):
    # the length is held against the order before Phi_N is built, which
    # for a 14-digit prime order would not finish
    def no_factoring(n):
        raise AssertionError("cyclotomic_polynomial called")

    monkeypatch.setattr(scalars, "cyclotomic_polynomial", no_factoring)
    with pytest.raises(ValueError, match="takes 99999999999973 coefficients, got 1"):
        Cyclotomic(99999999999973, (1,), 1)


@pytest.mark.parametrize("n", ORDERS)
def test_constructor_reduces_unreduced_int_vectors(n, rng):
    # Cyclotomic(n, ints, den) against sympy's reduction of the same
    # length-n vector mod Phi_n over QQ, and against the sum of its roots
    for _ in range(4):
        ints = [rng.randint(-9, 9) for _ in range(n)]
        den = rng.randint(1, 12)
        raw = [Fraction(c, den) for c in ints]
        x = Cyclotomic(n, ints, den)
        _assert_canonical(x)
        assert x.order == n and _coeffs(x) == _reduced(raw, n)
        assert x == _from_roots(raw, n)
        assert ints == [int(c * den) for c in raw]  # the input is left as it was
        assert Cyclotomic(n, tuple(ints), den) == x


def test_constructor_refuses_what_is_not_its_int_form():
    with pytest.raises(ValueError, match="takes 4 coefficients, got 2"):
        Cyclotomic(4, (1, 0), 1)
    with pytest.raises(ValueError, match="order must be positive"):
        Cyclotomic(0, (), 1)
    for den in (0, -3):
        with pytest.raises(ValueError, match="denominator must be positive"):
            Cyclotomic(3, (1, 0, 0), den)
    for ints in ((Fraction(1, 2), 0), (0.5, 0), ("1", "0")):
        with pytest.raises(TypeError):
            Cyclotomic(2, ints, 1)


def test_cyclotomic_is_immutable():
    x = Cyclotomic.from_phase(Phase(1, 5))
    with pytest.raises(AttributeError):
        x.order = 10
    with pytest.raises(AttributeError):
        x.ints = (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        del x.den


def test_cyclotomic_copies_and_pickles_keep_its_stored_form():
    # __new__ takes N numerators, so a copy or pickle cannot rebuild a value
    # by calling the class with no arguments
    values = (Cyclotomic.ZERO, Cyclotomic.ONE, Cyclotomic.ONE.rotated(1, 3),
              Cyclotomic(12, range(12), 7))
    for x in values:
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is Cyclotomic and twin == x
            assert (twin.order, twin.ints, twin.den) == (x.order, x.ints, x.den)


def test_phase_normalization_matches_fraction():
    for den in [d for d in range(-12, 13) if d]:
        for num in range(-30, 31):
            p, f = Phase(num, den), Fraction(num, den) % 1
            assert (p.num, p.den) == (f.numerator, f.denominator)
    with pytest.raises(ZeroDivisionError):
        Phase(1, 0)


def test_bilinear_value_matches_fraction_sum(rng):
    group = AbGroup(3)
    for _ in range(40):
        matrix = [[Phase(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(3)]
                  for _ in range(3)]
        mu = oracles.phase_bilinear(group, matrix)
        g = tuple(rng.randint(-9, 9) for _ in range(3))
        h = tuple(rng.randint(-9, 9) for _ in range(3))
        total = sum(
            (Fraction(gi * p.num * hj, p.den)
             for gi, row in zip(g, oracles.phase_matrix(mu)) for hj, p in zip(h, row)),
            Fraction(0),
        )
        assert _bilinear_value(mu, g, h) == Phase.from_fraction(total)


@pytest.mark.parametrize("n, m", MIXED + [(4, 12), (12, 4), (1, 12), (5, 5)])
def test_spread_product_matches_rebase_then_multiply(n, m, rng):
    # one convolution of the spread power bases, reduced once, against both
    # factors rebased to Q(zeta_lcm) first: the same canonical form
    for _ in range(5):
        a = _cyc(n, _reduced(_random_raw(rng, n), n))
        b = _cyc(m, _reduced(_random_raw(rng, m), m))
        for got, want in [(a * b, oracles.rebased_product(a, b)),
                          (b * a, oracles.rebased_product(b, a))]:
            _assert_canonical(got)
            assert (got.order, got.ints, got.den) == (want.order, want.ints, want.den)


@pytest.mark.parametrize("order", [1, 3, 4, 12, 60])
def test_rotation_by_a_trivial_root_is_the_identity(order, rng):
    # n | k: the result is the operand itself, with the order, numerators
    # and denominator a fresh spread gives; any other root matches the
    # spread too
    for _ in range(3):
        x = _cyc(order, _reduced(_random_raw(rng, order), order))
        for k, n in [(0, 1), (0, 12), (12, 12), (-24, 12), (5, 1), (-7, 7)]:
            want = oracles.spread_rotation(x, k, n)
            assert x.rotated(k, n) is x
            assert (x.order, x.ints, x.den) == (want.order, want.ints, want.den)
        for k, n in ROTATIONS:
            got, want = x.rotated(k, n), oracles.spread_rotation(x, k, n)
            assert (got.order, got.ints, got.den) == (want.order, want.ints, want.den)
