"""The twisted Bernoulli shift action and its ambient motion group.

A Triplet (H, mu, chi) fixes the whole setup: the group of motions is the
product of the dual of H, the lattice translations and SL(2,Z), with a
chi-twisted multiplication law.  The mod-q square family is the standard
example: H = (Z/q)^2, mu((s1,t1),(s2,t2)) = s1 t2 / q and chi(s, t) = s / q
(`mod_q_triplet` and its parts).  A Motion holds a character and an
`AffineSL2`; products compose the moves and the characters' int rows.
rho is its action on formal sums over lattice configurations; beta is the
restriction to translations and matrices acting on zero-sum sums.  Both
relocate each support in one pass; a pure translation keeps its order.
"""

from __future__ import annotations

from itertools import islice
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .abelian import AbGroup, Character
from .algebra import AlgebraElement
from .cocycle import BilinearCocycle
from .configs import Config, sums_to_zero
from .lattice import (
    IDENTITY,
    IDENTITY_MAT,
    ORIGIN,
    AffineSL2,
    LatticePoint,
    det2,
    mat_apply,
    spiral_points,
)
from .scalars import Immutable


class Triplet(Immutable):
    """(H, mu, chi): a group, a normalized 2-cocycle and a character on it."""

    __slots__ = ("group", "cocycle", "character")

    def __init__(self, group: AbGroup, cocycle: object, character: Character) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "cocycle", cocycle)
        object.__setattr__(self, "character", character)

    def validate(self) -> None:
        if not self.group.rank:
            raise ValueError("the base group must be nontrivial")
        if self.cocycle.group != self.group:
            raise ValueError("cocycle is not over the base group")
        if self.character.group != self.group:
            raise ValueError("character is not over the base group")
        self.cocycle.validate()


def mod_q_group(q: int) -> AbGroup:
    return AbGroup(0, (q, q))


def mod_q_cocycle(q: int) -> BilinearCocycle:
    """mu((s1,t1),(s2,t2)) = s1*t2 / q on (Z/q)^2."""
    return BilinearCocycle(mod_q_group(q), ((0, 1), (0, 0)), q)


def mod_q_character(q: int) -> Character:
    """chi((s1,t1)) = s1 / q."""
    return Character(mod_q_group(q), (1, 0), q)


def mod_q_triplet(q: int) -> Triplet:
    return Triplet(mod_q_group(q), mod_q_cocycle(q), mod_q_character(q))


class Motion(Immutable):
    """Element (c, k, gamma) of the extended motion group over a triplet: the
    character c and the move (k, gamma), an `AffineSL2` (built in SL(2,Z) only)."""

    __slots__ = ("char", "move")

    def __init__(self, char: Character, move: AffineSL2 = IDENTITY) -> None:
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "move", move)


def motion_mul(t: Triplet, a: Motion, b: Motion) -> Motion:
    """(c1, k, g1)(c2, l, g2) = (c1 c2 chi^det(k, g1 l), k + g1 l, g1 g2).

    The moves compose as `AffineSL2`s, and det(k, k + g1 l) = det(k, g1 l).
    The characters compose on their int rows, c1 + c2 + det * chi over D,
    the lcm of the three `den`s.
    """
    c1, c2, chi = a.char, b.char, t.character
    if not c1.group == c2.group == chi.group:
        raise ValueError("characters live on different groups")
    move = a.move * b.move
    e = det2(a.move.translation, move.translation)
    d = lcm(c1.den, c2.den, chi.den)
    s1, s2, s3 = d // c1.den, d // c2.den, e * (d // chi.den)
    char = Character(c1.group, tuple(x * s1 + y * s2 + z * s3
                                     for x, y, z in zip(c1.ints, c2.ints, chi.ints)), d)
    return Motion(char, move)


def rho(t: Triplet, g: Motion, x: AlgebraElement) -> AlgebraElement:
    """Apply rho(c) o rho(k) o rho(gamma) termwise, with exact phases.

    rho(gamma) relocates supports by the matrix; rho(k) shifts supports and
    multiplies by chi(value at m)^det(k, m) over the support; rho(c)
    multiplies by c of the total content.
    """
    group, char = t.group, g.char
    if x.cocycle.group != group:
        raise ValueError("element is not over the triplet's group")
    if char.group != group:
        raise ValueError("element is not in the character's group")
    return _moved(t, char.ints, char.den, g.move, x)


def beta(t: Triplet, move: AffineSL2, x: AlgebraElement) -> AlgebraElement:
    """The twisted Bernoulli shift: rho with the trivial character twist.

    Defined on the zero-sum-supported subalgebra, which it preserves.  An
    element that is not zero-sum is refused first, then one over another
    group; over the triplet's group `_moved` checks each term's sum in its
    relocation pass.
    """
    refusal = "beta acts on zero-sum-supported elements only"
    group = t.group
    if x.cocycle.group != group:
        raise ValueError(refusal if not x.is_zero_sum_supported
                         else "element is not over the triplet's group")
    return _moved(t, (0,) * group.rank, 1, move, x, refusal)


def _moved(t: Triplet, row: tuple, den: int, move: AffineSL2, x,
           refusal: str = "") -> AlgebraElement:
    """rho of (c, move), c the int row over den, in one pass per configuration
    that builds the key Config once.  A term's phase is one int over
    D = lcm(chi.den, den): det(k, gamma p) chi.ints . v summed over the sites
    v at p, plus row . (the sum of the v), both characters being
    homomorphisms; one rotation pays it.  A site with det(k, gamma p) = 0
    reads no chi, and a zero row no sum.  With a refusal, a term whose values
    fail `sums_to_zero` raises ValueError(refusal) in the same pass.
    A translation keeps the support's lexicographic order, so only a move
    with a matrix sorts the relocated sites.  The move is a bijection of
    Z^2, so distinct configurations stay apart: no two terms merge, none
    cancels, and the fresh dict is the element's own (`adopt`)."""
    chi, group = t.character, t.group
    (kq, kr), ((g11, g12), (g21, g22)) = move.translation, move.matrix
    turned = move.matrix != IDENTITY_MAT
    d = lcm(chi.den, den)
    chi_row = [c * (d // chi.den) for c in chi.ints]
    char_row = [c * (d // den) for c in row] if any(row) else []
    out: dict = {}
    for cfg, coeff in x.terms.items():
        num = 0
        support = []
        for (q, r), v in cfg.support:
            mq, mr = g11 * q + g12 * r, g21 * q + g22 * r
            e = kq * mr - kr * mq
            if e:
                num += e * sum(map(mul, chi_row, v))
            support.append((LatticePoint(kq + mq, kr + mr), v))
        if refusal or char_row:
            values = [v for _, v in cfg.support]
            if refusal and not sums_to_zero(group, values):
                raise ValueError(refusal)
            num += sum(map(mul, char_row, map(sum, zip(*values))))
        out[Config(group, tuple(sorted(support) if turned else support))] = coeff.rotated(num, d)
    return type(x).adopt(x.cocycle, out)


class VerifyReport(Immutable):
    """What a check found: its failures in the order it met them; ok if none."""

    __slots__ = ("ok", "failures")

    def __init__(self, failures: list) -> None:
        object.__setattr__(self, "ok", not failures)
        object.__setattr__(self, "failures", failures)


def verify_motion_relations(t: Triplet, samples: Sequence) -> VerifyReport:
    """Check the two composition identities of the lattice part of rho.

    samples: iterable of (k, l, gamma, x) with k, l lattice points, gamma an
    SL(2,Z) matrix and x an AlgebraElement over the triplet.
    """
    failures = []
    triv = Character.trivial(t.group)
    for k, l, gamma, x in samples:
        shift = Motion(triv, AffineSL2(k))
        lhs = rho(t, shift, rho(t, Motion(triv, AffineSL2(l)), x))
        rhs = rho(t, Motion(t.character.power(det2(k, l)), AffineSL2(k + l)), x)
        if lhs != rhs:
            failures.append(("translation", k, l))
        turn = Motion(triv, AffineSL2(ORIGIN, gamma))
        lhs2 = rho(t, Motion(triv, AffineSL2(mat_apply(gamma, k))), rho(t, turn, x))
        rhs2 = rho(t, turn, rho(t, shift, x))
        if lhs2 != rhs2:
            failures.append(("rotation", k, gamma))
    return VerifyReport(failures)


def weak_mixing_witness(t: Triplet, elems: Sequence[AlgebraElement]) -> Optional[LatticePoint]:
    """First lattice point k (spiral order) with tr(a_i beta(k)(a_j)) =
    tr(a_i) tr(a_j) holding exactly for all pairs, or None if none lies in
    rings 0 to R + 1.

    R is the Chebyshev diameter of the union of the elements' supports (0
    if it is empty).  A shift beyond ring R moves every support of every
    a_j off every support of every a_i, so only the zero terms meet there:
    the first witness lies in ring R + 1 or below, the first (2R + 3)^2
    points of the spiral.
    """
    for elem in elems:
        if not elem.is_zero_sum_supported:
            raise ValueError("weak mixing witness applies to zero-sum-supported elements")
    traces = [a.trace() for a in elems]
    sites = [p for a in elems for cfg in a.terms for p, _ in cfg.support]
    reach = max((max(axis) - min(axis) for axis in zip(*sites)), default=0)
    for k in islice(spiral_points(), (2 * reach + 3) ** 2):
        move = AffineSL2(k)
        shifted = [beta(t, move, b) for b in elems]
        if all((a * b).trace() == ta * tb
               for a, ta in zip(elems, traces) for b, tb in zip(shifted, traces)):
            return k
    return None
