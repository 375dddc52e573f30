"""The lattice Z^2, the functions det and gcd on it, and Z^2 x| SL(2,Z).

All integers are Python ints (arbitrary precision): words in SL(2,Z) grow
entries exponentially and must never overflow.
"""

from __future__ import annotations

import itertools
import math
from operator import index
from typing import Iterator, NamedTuple

from .scalars import Immutable


class LatticePoint(NamedTuple):
    q: int
    r: int

    def __add__(self, other: "LatticePoint") -> "LatticePoint":  # type: ignore[override]
        return LatticePoint(self.q + other.q, self.r + other.r)


ORIGIN = LatticePoint(0, 0)
E1 = LatticePoint(1, 0)
E2 = LatticePoint(0, 1)

Mat2 = tuple  # ((x, y), (z, w)) rows


def det2(k: LatticePoint, k0: LatticePoint) -> int:
    """det((q,r),(q0,r0)) = q*r0 - r*q0."""
    return k.q * k0.r - k.r * k0.q


def gcd2(k: LatticePoint) -> int:
    """gcd of the two entries, with gcd2((0,0)) = 0."""
    return math.gcd(abs(k.q), abs(k.r))


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_det(a: Mat2) -> int:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def mat_apply(a: Mat2, k: LatticePoint) -> LatticePoint:
    return LatticePoint(a[0][0] * k.q + a[0][1] * k.r, a[1][0] * k.q + a[1][1] * k.r)


IDENTITY_MAT: Mat2 = ((1, 0), (0, 1))


class AffineSL2(Immutable):
    """Element (k, gamma) of Z^2 x| SL(2,Z), acting as k + gamma * point."""

    __slots__ = ("translation", "matrix")

    def __init__(self, translation: LatticePoint = ORIGIN, matrix: Mat2 = IDENTITY_MAT) -> None:
        if mat_det(matrix) != 1:
            raise ValueError(f"matrix {matrix} has determinant != 1")
        object.__setattr__(self, "translation", LatticePoint(*map(index, translation)))
        object.__setattr__(self, "matrix", tuple([tuple(map(index, row)) for row in matrix]))

    def __mul__(self, other: "AffineSL2") -> "AffineSL2":
        # (k1, g1)(k2, g2) = (k1 + g1*k2, g1*g2), set through the slots: the
        # product of two int SL(2,Z) matrices is one, so it skips the checks
        (a, b), (c, d) = self.matrix
        q, r = other.translation
        product = object.__new__(AffineSL2)
        object.__setattr__(product, "translation",
                           LatticePoint(self.translation.q + a * q + b * r,
                                        self.translation.r + c * q + d * r))
        object.__setattr__(product, "matrix", mat_mul(self.matrix, other.matrix))
        return product


IDENTITY = AffineSL2()

# The three-cycle on {0, e1, e2} and the two named matrices used throughout:
# xi sends 0 -> e1 -> e2 -> 0, eta is central inversion, delta is the
# horizontal shear fixing the axis D = {(n, 0)}.
XI = AffineSL2(E1, ((-1, -1), (1, 0)))
ETA = AffineSL2(ORIGIN, ((-1, 0), (0, -1)))
DELTA = AffineSL2(ORIGIN, ((1, 1), (0, 1)))


def spiral_index(k: LatticePoint) -> int:
    """Position of k in the fixed enumeration of Z^2.

    Ring by ring (Chebyshev norm), counterclockwise; ring R starts just
    above the south-east corner, at (R, 1-R).  The enumeration begins
    (0,0), (1,0), (1,1), (0,1), (-1,1), (-1,0), (-1,-1), (0,-1), (1,-1),
    (2,-1), ...
    """
    q, r = k
    ring = max(abs(q), abs(r))
    if ring == 0:
        return 0
    start = 1 + 4 * ring * (ring - 1)
    if q == ring and r != -ring:
        offset = r - (1 - ring)
    elif r == ring:
        offset = 2 * ring + (ring - 1 - q)
    elif q == -ring:
        offset = 4 * ring + (ring - 1 - r)
    else:  # r == -ring
        offset = 6 * ring + (q - (1 - ring))
    return start + offset


def spiral_points() -> Iterator[LatticePoint]:
    """The enumeration of Z^2 in spiral_index order: rings 0, 1, 2, ...,
    each ring's points sorted by their index."""
    for ring in itertools.count():
        span = range(-ring, ring + 1)
        yield from sorted((LatticePoint(q, r) for q in span for r in span
                           if max(abs(q), abs(r)) == ring), key=spiral_index)
