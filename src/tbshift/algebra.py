"""Exact twisted group-algebra arithmetic.

A twisted group algebra over a group of keys K has basis unitaries u(k)
with u(k1) u(k2) = e^{2 pi i twist(k1, k2)} u(k1 + k2), where the twist is
a normalized 2-cocycle on K.  One private base class holds the arithmetic
(sums, the product loop, adjoint, trace) for any key group; its two
subclasses state only the keys and the twist:

* AlgebraElement: K is the group of configurations, twisted by the
  sitewise pairing mu~ (the shift algebra);
* TensorElement: K is H x H, twisted by mu (+) mu (the tensor square
  carrying the malleability flow).

Elements are finite formal sums with Cyclotomic coefficients.  Zero
coefficients are pruned eagerly so equality is structural.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt
from typing import Dict, Tuple

from .abelian import AbElem, Character
from .cocycle import degeneracy_witness
from .configs import Config, mu_tilde
from .scalars import Cyclotomic, Phase


def _zeta(p: Phase) -> Cyclotomic:
    return Cyclotomic.from_phase(p)


class _TwistedGroupAlgebra:
    """Finite formal sum sum_k c(k) u(k) over a twisted group algebra.

    A subclass states the key group and the twist as static hooks:
    _zero_key(group), _add_keys(k1, k2), _neg_key(k), _twist(mu, k1, k2)
    (the phase of u(k1) u(k2) against u(k1 + k2)) and _total(k) (the sum
    in H of the group values the key places).
    """

    __slots__ = ("cocycle", "terms")

    def __init__(self, cocycle, terms: Dict[object, Cyclotomic]):
        self.cocycle = cocycle
        self.terms = {k: v for k, v in terms.items() if not v.is_zero}

    @property
    def group(self):
        return self.cocycle.group

    @classmethod
    def zero(cls, cocycle):
        return cls(cocycle, {})

    @classmethod
    def one(cls, cocycle):
        return cls(cocycle, {cls._zero_key(cocycle.group): Cyclotomic.ONE})

    def _check(self, other) -> None:
        if self.cocycle != other.cocycle:
            raise ValueError("elements over different bases")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.cocycle != other.cocycle or self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[k] == v for k, v in self.terms.items())

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return type(self)(self.cocycle, out)

    def __neg__(self):
        return type(self)(self.cocycle, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        if isinstance(c, (int, Fraction)):
            c = Cyclotomic.from_rational(c)
        return type(self)(self.cocycle, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scaled(other)
        self._check(other)
        mu, add, twist = self.cocycle, self._add_keys, self._twist
        out: Dict[object, Cyclotomic] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                # u(k1) u(k2) = twist(k1, k2) u(k1 + k2)
                key = add(k1, k2)
                coeff = v1 * v2 * _zeta(twist(mu, k1, k2))
                out[key] = out[key] + coeff if key in out else coeff
        return type(self)(self.cocycle, out)

    __rmul__ = scaled

    def star(self):
        """Adjoint: u(k)* = conj(twist(k, -k)) u(-k), coefficients conjugated."""
        mu, neg, twist = self.cocycle, self._neg_key, self._twist
        out: Dict[object, Cyclotomic] = {}
        for k, v in self.terms.items():
            nk = neg(k)
            coeff = v.conjugate() * _zeta(-twist(mu, k, nk))
            out[nk] = out[nk] + coeff if nk in out else coeff
        return type(self)(self.cocycle, out)

    def trace(self) -> Cyclotomic:
        """Coefficient at the zero key."""
        return self.terms.get(self._zero_key(self.group), Cyclotomic.ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.terms)} terms)"


class AlgebraElement(_TwistedGroupAlgebra):
    """Finite formal sum sum_lambda c(lambda) u(lambda) over a cocycle base."""

    __slots__ = ()
    _zero_key = staticmethod(Config.zero)
    _add_keys = staticmethod(operator.add)
    _neg_key = staticmethod(operator.neg)
    _total = staticmethod(Config.total)

    @staticmethod
    def _twist(mu, k1: Config, k2: Config) -> Phase:
        # mu_tilde is looked up per call, so a rebinding of the module name
        # (as instrumentation does) reaches the product loop
        return mu_tilde(mu, k1, k2)

    @staticmethod
    def unit(cocycle, config: Config, coeff=Cyclotomic.ONE) -> "AlgebraElement":
        return AlgebraElement(cocycle, {config: coeff})

    # bound again so that each class's own __dict__ holds them and
    # per-class instrumentation can replace them
    __mul__ = _TwistedGroupAlgebra.__mul__
    star = _TwistedGroupAlgebra.star

    def restrict_zero_sum(self) -> "AlgebraElement":
        """Conditional expectation: drop every non-zero-sum term."""
        return AlgebraElement(
            self.cocycle, {k: v for k, v in self.terms.items() if k.is_zero_sum}
        )

    @property
    def is_zero_sum_supported(self) -> bool:
        return all(k.is_zero_sum for k in self.terms)


class TensorElement(_TwistedGroupAlgebra):
    """Finite formal sum over pairs (g, g') of u_g (x) u_g' with one cocycle."""

    __slots__ = ()

    @staticmethod
    def _zero_key(group):
        return (group.zero(), group.zero())

    @staticmethod
    def _add_keys(k1, k2):
        return (k1[0] + k2[0], k1[1] + k2[1])

    @staticmethod
    def _neg_key(k):
        return (-k[0], -k[1])

    @staticmethod
    def _twist(mu, k1, k2) -> Phase:
        return mu(k1[0], k2[0]) + mu(k1[1], k2[1])

    @staticmethod
    def _total(k) -> AbElem:
        return k[0] + k[1]

    @staticmethod
    def unit(cocycle, g: AbElem, h: AbElem, coeff=Cyclotomic.ONE) -> "TensorElement":
        return TensorElement(cocycle, {(g, h): coeff})

    # bound again, as in AlgebraElement
    __mul__ = _TwistedGroupAlgebra.__mul__
    star = _TwistedGroupAlgebra.star


def malleability_unitary(mu) -> TensorElement:
    """The scaled symmetric unitary V = sum_h u_h (x) u_h^*.

    V equals |H|^(1/2) times the unit-normalized element; keeping the
    integer scaling avoids the square root in the scalar field.  Requires
    a finite base group and a nondegenerate cocycle.
    """
    group = mu.group
    if not group.is_finite:
        raise ValueError("the malleability unitary needs a finite group")
    witness = degeneracy_witness(mu)
    if witness is not None:
        raise ValueError(
            f"cocycle is degenerate: {witness.coords} pairs trivially with everything"
        )
    terms: Dict[Tuple[AbElem, AbElem], Cyclotomic] = {}
    for h in group.elements():
        terms[(h, -h)] = _zeta(-mu(h, -h))
    return TensorElement(mu, terms)


def _flow_parts(mu, t: Fraction):
    """(a, b, S) with W_t = a + b S: a = (1 + e)/2, b = (1 - e)/2 for
    e = e^{i pi t}, and S = V/sqrt|H|, the self-adjoint unitary that
    implements the flip of the two legs.

    Exact only when |H| is a perfect square (then 1/sqrt|H| is rational);
    every square base group (Z/q x Z/q and their products) qualifies.
    Raises for an infinite group, then for a non-square order, then for a
    degenerate cocycle.
    """
    n = mu.group.order()
    s = isqrt(n)
    if s * s != n:
        raise ValueError("exact flow needs |H| to be a perfect square")
    e = _zeta(Phase.from_fraction(Fraction(t) / 2))
    a = (Cyclotomic.ONE + e) * Fraction(1, 2)
    b = (Cyclotomic.ONE - e) * Fraction(1, 2)
    return a, b, malleability_unitary(mu).scaled(Fraction(1, s))


def flow_unitary(mu, t: Fraction) -> TensorElement:
    """W_t = P_1 + e^{i pi t} P_{-1} with P_{+-1} = (1 +- V/sqrt|H|)/2."""
    a, b, s = _flow_parts(mu, t)
    return TensorElement.one(mu).scaled(a) + s.scaled(b)


def malleability_flow(mu, t: Fraction, x: TensorElement) -> TensorElement:
    """Conjugation Ad W_t(x) = W_t x W_t^* by the flow unitary at rational time t.

    With W_t = a + b S and S u_g (x) u_h S = u_h (x) u_g,

        Ad W_t(x) = |a|^2 x + |b|^2 flip(x) + a conj(b) x S + b conj(a) S x,

    where flip(x) swaps the two legs of each key and keeps its coefficient.
    That is O(|x| |H|) term pairs against O(|x| |H|^2) for the product
    W_t x W_t^*, which the tests keep as the oracle.  At integer t one of
    a, b is zero and the flow is x or flip(x).
    """
    if x.cocycle != mu:
        raise ValueError("element is not over the given base")
    a, b, s = _flow_parts(mu, t)
    ac, bc = a.conjugate(), b.conjugate()
    flip = TensorElement(mu, {(k[1], k[0]): v for k, v in x.terms.items()})
    out = x.scaled(a * ac) + flip.scaled(b * bc)
    if a.is_zero or b.is_zero:
        return out
    return out + x * s.scaled(a * bc) + s.scaled(b * ac) * x


def apply_diagonal_character(c: Character, x):
    """Scale each term by c evaluated on the total group content of its key."""
    if not isinstance(x, _TwistedGroupAlgebra):
        raise TypeError("expected an AlgebraElement or TensorElement")
    return type(x)(x.cocycle, {k: v * _zeta(c(x._total(k))) for k, v in x.terms.items()})
