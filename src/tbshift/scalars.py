"""Exact scalar arithmetic: circle-group phases and cyclotomic numbers.

A unimodular scalar is stored either as a :class:`Phase` (the exponent p/q
of e^{2*pi*i*p/q}, an element of Q/Z) or, when scalars have to be added,
as a :class:`Cyclotomic` (an exact element of Q(zeta_N)).  No floating
point is used anywhere; equality is always decidable.

Both run on plain ints.  A Phase is a reduced pair of ints.  A Cyclotomic
is a vector of int numerators over one common positive int denominator,
the form GAP uses for cyclotomics (Breuer, "Integral bases for subfields
of cyclotomic fields", AAECC 8, 1997); Phi_N is monic, so reducing a
product modulo Phi_N never leaves the integers.  That int form is also
the one public way in: Cyclotomic(N, ints, den) takes N int numerators
of the powers of zeta_N over one denominator and reduces them once.
Fraction appears only at the edges: parsing, a rational value or scale
(from_rational, a product with a Fraction) and the repr.

`Immutable` is the one base of the package's value and report types,
these two among them.  Each is a plain class that lists its slots in
`__slots__` and writes its own `__init__`, which sets every slot, so a
value is complete when built; equality, identity first, the hash and the
repr are derived once per class from its field list, so importing the
package loads no class-generating machinery and runs no generated code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter
from typing import ClassVar


class Immutable:
    """Base of the package's value and report types: frozen, with equality,
    hash and repr over `_fields`, the public names of the class's own
    `__slots__` unless it names its own list to leave out derived views.
    The key, an `attrgetter` of the fields, is made once per class; a value is
    equal to itself first, then to one of its class with equal keys; `!=`
    is False for itself, else the negation of the class's own `__eq__`; the hash
    is the key's, the repr Name(field=value, ...).  `__init__` sets every slot
    once, by `object.__setattr__(self, name, value)`, as `__setstate__` does
    for copies and pickles; assignment and deletion raise AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields") or tuple(
            name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_"))
        if fields:
            cls._fields, cls._key = fields, attrgetter(*fields)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __ne__(self, other: object) -> bool:
        if other is self:
            return False
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots of a new instance here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Phase(Immutable):
    """Element of Q/Z written p/q: the exponent of e^{2*pi*i*p/q}.

    Always stored reduced with 0 <= num < den (zero is 0/1).  Addition of
    phases corresponds to multiplication of the unimodular scalars they
    denote.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("phase denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num % den)
        object.__setattr__(self, "den", den)

    @staticmethod
    def from_fraction(f: Fraction) -> "Phase":
        return Phase(f.numerator, f.denominator)

    @staticmethod
    def parse(text: str) -> "Phase":
        return Phase.from_fraction(Fraction(text.strip()))

    ZERO: ClassVar["Phase"]

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "Phase") -> "Phase":
        return Phase(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Phase":
        return Phase(-self.num, self.den)

    def __sub__(self, other: "Phase") -> "Phase":
        return self + (-other)

    def __mul__(self, n: int) -> "Phase":
        if not isinstance(n, int):
            return NotImplemented
        return Phase(self.num * n, self.den)

    __rmul__ = __mul__

    def conjugate(self) -> "Phase":
        return -self

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


Phase.ZERO = Phase(0, 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, low degree first.

    Divides x^n - 1 exactly by Phi_d for each proper divisor d of n, by
    synthetic division: Phi_d is monic, so after the pass over work the
    top entries hold the quotient and the low deg Phi_d ones the remainder.
    """
    work = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = cyclotomic_polynomial(d)
            deg = len(phi) - 1
            for i in range(len(work) - 1, deg - 1, -1):
                c = work[i]
                if c:
                    for j, y in enumerate(phi[:deg]):
                        work[i - deg + j] -= c * y
            if any(work[:deg]):
                raise ArithmeticError(f"Phi_{n} division left a remainder")
            del work[:deg]
    return tuple(work)


@lru_cache(maxsize=None)
def _reduction_terms(n: int) -> tuple:
    """deg Phi_n and its nonzero lower terms (j, c_j), j < deg."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((j, y) for j, y in enumerate(phi[:deg]) if y)


def _reduce(work: list, n: int) -> list:
    """Reduce integer coefficients (low degree first) modulo Phi_n, in place.

    Phi_n is monic, so the remainder stays integral.  Pads to phi(n).
    """
    deg, low = _reduction_terms(n)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            base = i - deg
            for j, y in low:
                work[base + j] -= c * y
    del work[deg:]
    work.extend([0] * (deg - len(work)))
    return work


def _make(order: int, num, den: int) -> "Cyclotomic":
    """The Cyclotomic num/den (den > 0) of the given order, in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    x = object.__new__(Cyclotomic)
    object.__setattr__(x, "order", order)
    object.__setattr__(x, "ints", tuple(num))
    object.__setattr__(x, "den", den)
    return x


class Cyclotomic(Immutable):
    """Exact element of Q(zeta_N) in canonical reduced form.

    Cyclotomic(N, ints, den) is sum_k ints[k] z^k / den, z = zeta_N =
    e^{2*pi*i/N}, for exactly N int numerators and an int den > 0.  It is
    reduced once modulo Phi_N and stored over the basis 1, z, ...,
    z^{phi(N)-1} of Q(zeta_N): the read-only `ints`, phi(N) numerators,
    over `den`, with the gcd of all of them 1 (zero is (0, ...)/1).  That
    form is unique, so elements of one order are equal iff their (den,
    ints) agree; elements of different orders are compared after rebasing
    to the lcm of the orders.  Products and sums run on ints; reduction
    modulo the monic Phi_N stays integral.  The repr shows the
    coefficients as Fractions.  Instances are immutable; copies and
    pickles rebuild the stored form by `_make`, with no reduction.
    """

    __slots__ = ("order", "ints", "den")

    def __new__(cls, order: int, ints, den: int) -> "Cyclotomic":
        # checked before Phi_N is built, which takes long for a large N
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        if len(ints) != order:
            raise ValueError(f"order {order} takes {order} coefficients, got {len(ints)}")
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        return _make(order, _reduce(list(ints), order), den)

    def __repr__(self) -> str:
        coeffs = tuple(Fraction(c, self.den) for c in self.ints)
        return f"Cyclotomic(order={self.order}, coeffs={coeffs!r})"

    def __reduce__(self):
        # __new__ takes the N numerators, the stored form only phi(N)
        return _make, (self.order, self.ints, self.den)

    @staticmethod
    def from_rational(value) -> "Cyclotomic":
        f = Fraction(value)
        return Cyclotomic(1, (f.numerator,), f.denominator)

    @staticmethod
    def from_phase(p: Phase) -> "Cyclotomic":
        """The root of unity zeta_den^num with order = den."""
        return Cyclotomic.ONE.rotated(p.num, p.den)

    ZERO: ClassVar["Cyclotomic"]
    ONE: ClassVar["Cyclotomic"]

    def __bool__(self) -> bool:
        return any(self.ints)

    def rebase(self, m: int) -> "Cyclotomic":
        """The same number expressed in Q(zeta_m); m must be a multiple of order."""
        if m % self.order != 0:
            raise ValueError(f"cannot rebase order {self.order} into Q(zeta_{m})")
        return self if m == self.order else self._spread(m, 0)

    def rotated(self, k: int, n: int) -> "Cyclotomic":
        """self * zeta_n^k, exactly as self * from_phase(Phase(k, n)): k/n is
        reduced first, as an unreduced n would widen every later product.
        A trivial root (n | k) returns self, which is immutable and already
        in canonical form."""
        if k % n == 0:
            return self
        g = gcd(k, n)
        m = lcm(self.order, n // g)
        return self._spread(m, k // g * (m // (n // g)) % m)

    def _spread(self, m: int, shift: int) -> "Cyclotomic":
        """self in Q(zeta_m) times zeta_m^shift: one shift of the power
        basis, reduced once mod Phi_m."""
        step = m // self.order
        out = [0] * ((len(self.ints) - 1) * step + shift + 1)
        out[shift::step] = self.ints
        return _make(m, _reduce(out, m), self.den)

    def _common(self, other: "Cyclotomic") -> tuple:
        if self.order == other.order:
            return self, other, self.order
        m = lcm(self.order, other.order)
        return self.rebase(m), other.rebase(m), m

    def __eq__(self, other: object) -> bool:
        # a Cyclotomic first, so that it never reaches Fraction's ABC check
        if not isinstance(other, Cyclotomic):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyclotomic.from_rational(other)
        a, b, _ = self._common(other)
        return a.den == b.den and a.ints == b.ints

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b, m = self._common(other)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return _make(m, [x * fa + y * fb for x, y in zip(a.ints, b.ints)], den)

    def __neg__(self) -> "Cyclotomic":
        return _make(self.order, [-c for c in self.ints], self.den)

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other):
        """The product with an int, a Fraction or a Cyclotomic.  Two
        Cyclotomics of different orders are not rebased first: both power
        bases are spread into Q(zeta_m), m the lcm of the orders, inside the
        one convolution (z_a^i z_b^j is z_m^(i sa + j sb)), and the product
        is reduced once mod Phi_m.  A Cyclotomic is tested for first, as in
        `__eq__`."""
        if not isinstance(other, Cyclotomic):
            if isinstance(other, int):
                return _make(self.order, [c * other for c in self.ints], self.den)
            if isinstance(other, Fraction):
                k = other.numerator
                return _make(self.order, [c * k for c in self.ints], self.den * other.denominator)
            return NotImplemented
        oa, ob = self.order, other.order
        m = oa if oa == ob else lcm(oa, ob)
        sa, sb = m // oa, m // ob
        bn = other.ints
        if sb != 1:
            spread = [0] * ((len(bn) - 1) * sb + 1)
            spread[::sb] = bn
            bn = spread
        prod = [0] * ((len(self.ints) - 1) * sa + len(bn))
        for i, x in enumerate(self.ints):
            if x:
                for j, y in enumerate(bn, i * sa):
                    if y:
                        prod[j] += x * y
        return _make(m, _reduce(prod, m), self.den * other.den)

    __rmul__ = __mul__

    def conjugate(self, k: int = 0, n: int = 1) -> "Cyclotomic":
        """Complex conjugation, zeta_N -> zeta_N^{N-1} (z^i -> z^{-i}), then
        times zeta_n^k as by `rotated`, in one pass: the reversed power basis
        is spread into Q(zeta_m), m the lcm of N and n over gcd(k, n), and
        reduced once mod Phi_m."""
        g = gcd(k, n)
        m = lcm(self.order, n // g)
        if m == 1:
            return self
        step, shift = m // self.order, k // g * (m // (n // g)) % m
        out = [0] * m
        for i, c in enumerate(self.ints):
            out[(shift - i * step) % m] += c
        return _make(m, _reduce(out, m), self.den)


Cyclotomic.ZERO = Cyclotomic.from_rational(0)
Cyclotomic.ONE = Cyclotomic.from_rational(1)
