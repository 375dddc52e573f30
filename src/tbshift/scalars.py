"""Exact scalar arithmetic: circle-group phases and cyclotomic numbers.

A unimodular scalar is stored either as a :class:`Phase` (the exponent p/q
of e^{2*pi*i*p/q}, an element of Q/Z) or, when scalars have to be added,
as a :class:`Cyclotomic` (an exact element of Q(zeta_N)).  No floating
point is used anywhere; equality is always decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import ClassVar


@dataclass(frozen=True)
class Phase:
    """Element of Q/Z written p/q: the exponent of e^{2*pi*i*p/q}.

    Always stored reduced with 0 <= num < den (zero is 0/1).  Addition of
    phases corresponds to multiplication of the unimodular scalars they
    denote.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.den == 0:
            raise ZeroDivisionError("phase denominator must be nonzero")
        f = Fraction(self.num, self.den)
        n, d = f.numerator % f.denominator, f.denominator
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @staticmethod
    def from_fraction(f: Fraction) -> "Phase":
        return Phase(f.numerator, f.denominator)

    @staticmethod
    def parse(text: str) -> "Phase":
        return Phase.from_fraction(Fraction(text.strip()))

    ZERO: ClassVar["Phase"]

    @property
    def is_zero(self) -> bool:
        return self.num == 0

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
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_divmod(num: tuple, den: tuple) -> tuple:
    """Exact division of integer polynomials (used only when den is monic)."""
    num_l = list(num)
    dd = len(den) - 1
    while len(den) > 1 and den[-1] == 0:
        raise ValueError("denominator not normalized")
    q = [0] * max(1, len(num_l) - dd)
    for i in range(len(num_l) - 1, dd - 1, -1):
        c = num_l[i]
        if c == 0:
            continue
        q[i - dd] = c
        for j, y in enumerate(den):
            num_l[i - dd + j] -= c * y
    while len(num_l) > 1 and num_l[-1] == 0:
        num_l.pop()
    return tuple(q), tuple(num_l)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, low degree first.

    Computed by dividing x^n - 1 by Phi_d over all proper divisors d of n.
    """
    if n == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (n - 1) + [1])
    den: tuple = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod(num, den)
    if any(r):
        raise ArithmeticError(f"Phi_{n} division left a remainder")
    return q


def _reduce_mod_cyclotomic(coeffs: list, n: int) -> tuple:
    """Reduce a coefficient list (Fractions) modulo Phi_n, pad to phi(n)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, y in enumerate(phi):
                work[i - deg + j] -= c * y
    work = work[:deg]
    work.extend([Fraction(0)] * (deg - len(work)))
    return tuple(Fraction(c) for c in work)


@dataclass(frozen=True, eq=False)
class Cyclotomic:
    """Exact element of Q(zeta_N) in canonical reduced form.

    coeffs holds the residue modulo Phi_N on the basis 1, z, ..., z^{phi(N)-1}
    where z = zeta_N = e^{2*pi*i/N}.  Two elements are equal iff they agree
    after rebasing to the lcm of their orders, which is decidable exactly.
    """

    order: int
    coeffs: tuple

    def __post_init__(self) -> None:
        want = euler_phi(self.order)
        if len(self.coeffs) != want:
            raise ValueError(f"order {self.order} needs {want} coefficients")

    @staticmethod
    def from_rational(value) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(value),))

    @staticmethod
    def from_phase(p: Phase) -> "Cyclotomic":
        """The root of unity zeta_den^num with order = den."""
        coeffs = [Fraction(0)] * max(p.num + 1, 1)
        coeffs[p.num] = Fraction(1)
        return Cyclotomic(p.den, _reduce_mod_cyclotomic(coeffs, p.den))

    ZERO: ClassVar["Cyclotomic"]
    ONE: ClassVar["Cyclotomic"]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def rebase(self, m: int) -> "Cyclotomic":
        """The same number expressed in Q(zeta_m); m must be a multiple of order."""
        if m % self.order != 0:
            raise ValueError(f"cannot rebase order {self.order} into Q(zeta_{m})")
        if m == self.order:
            return self
        step = m // self.order
        out = [Fraction(0)] * (len(self.coeffs) * step)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return Cyclotomic(m, _reduce_mod_cyclotomic(out, m))

    def _common(self, other: "Cyclotomic") -> tuple:
        m = self.order * other.order // gcd(self.order, other.order)
        return self.rebase(m), other.rebase(m), m

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        a, b, m = self._common(other)
        return Cyclotomic(m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyclotomic(self.order, tuple(c * f for c in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b, m = self._common(other)
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic(m, _reduce_mod_cyclotomic(prod, m))

    __rmul__ = __mul__

    def _substitute_power(self, k: int) -> "Cyclotomic":
        """Image under zeta -> zeta^k (k coprime to order): a field automorphism."""
        n = self.order
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[(i * k) % n] += c
        return Cyclotomic(n, _reduce_mod_cyclotomic(out, n))

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta_N -> zeta_N^{N-1}."""
        if self.order == 1:
            return self
        return self._substitute_power(self.order - 1)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z{self.order}")
            else:
                parts.append(f"{c}*z{self.order}^{i}")
        return " + ".join(parts)


Cyclotomic.ZERO = Cyclotomic(1, (Fraction(0),))
Cyclotomic.ONE = Cyclotomic(1, (Fraction(1),))
