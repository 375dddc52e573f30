"""Finitely supported H-valued configurations on the lattice Z^2.

A Config is an element of the direct sum of copies of H indexed by Z^2;
the zero-sum ones form the subgroup on which the restricted shift algebra
lives.  Supports are stored sparsely in lexicographic (q, r) order, with
reduced coordinate tuples and no zero values, so that equality, hashing
and serialization are canonical; `from_items` reduces the coordinate
sequences it is given.  The group operations read that canonical form
directly: a sum merges the two sorted supports, adding coordinates mod
the torsion orders only where sites coincide, and the zero-sum test sums
the raw coordinates.  A Config's hash is computed when it is built and
kept in a slot, as configurations are the keys of every shift algebra
element.
"""

from __future__ import annotations

from operator import add, index
from typing import Iterable, Sequence

from .abelian import AbGroup
from .lattice import E1, ORIGIN, LatticePoint
from .scalars import Immutable


class Config(Immutable):
    # support: ((LatticePoint, coords), ...) lexicographic, no zero values
    __slots__ = ("group", "support", "_hash")

    def __init__(self, group: AbGroup, support: tuple) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_hash", hash(support))

    @staticmethod
    def from_items(group: AbGroup, items: Iterable[tuple]) -> "Config":
        acc: dict = {}
        for point, value in items:
            point = LatticePoint(*map(index, point))
            coords = group.reduce(value)
            if point in acc:
                coords = group.reduce([a + b for a, b in zip(acc[point], coords)])
            acc[point] = coords
        support = tuple(
            (p, acc[p]) for p in sorted(acc) if any(acc[p])
        )
        return Config(group, support)

    def __hash__(self) -> int:
        return self._hash  # the support's: equal configs have equal supports

    @property
    def is_zero_sum(self) -> bool:
        """The raw coordinate sums, zero on the free part and mod each
        torsion order; computed on each read."""
        values = [coords for _, coords in self.support]
        return not any([s % n if n else s
                        for s, n in zip(map(sum, zip(*values)), self.group.orders)])

    def __add__(self, other: "Config") -> "Config":
        """Merge the two sorted supports; where sites coincide the values
        are added, mod the torsion orders, and a zero sum drops the site."""
        group = self.group
        if group != other.group:
            raise ValueError("configs over different groups")
        a, b, orders = self.support, other.support, group.orders
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (p, u), (q, v) = a[i], b[j]
            if p < q:
                out.append(a[i])
                i += 1
            elif q < p:
                out.append(b[j])
                j += 1
            else:
                s = tuple([c % n if n else c for c, n in zip(map(add, u, v), orders)])
                if any(s):
                    out.append((p, s))
                i += 1
                j += 1
        out += a[i:]
        out += b[j:]
        return Config(group, tuple(out))

    def __neg__(self) -> "Config":
        orders = self.group.orders
        return Config(self.group, tuple(
            (p, tuple([-c % n if n else -c for c, n in zip(coords, orders)]))
            for p, coords in self.support))


def dipole(group: AbGroup, coords: Sequence[int]) -> Config:
    """The elementary zero-sum configuration: h at e1 and -h at the origin,
    h the element of group with the given coordinates."""
    return Config.from_items(group, [(E1, coords), (ORIGIN, [-c for c in coords])])


def mu_tilde(mu, c1: Config, c2: Config) -> int:
    """Sitewise cocycle pairing: sum over k of mu(c1(k), c2(k)), as an int
    over D = `mu.den`, as `telescoped` gives its sum.

    This is itself a normalized 2-cocycle on the configuration group.  The
    shared sites are summed by the cocycle's `exponent`.
    """
    if c1.group != c2.group:
        raise ValueError("configs over different groups")
    value, d2 = mu.exponent, dict(c2.support)
    return sum(value(v1, d2[p]) for p, v1 in c1.support if p in d2)


def telescoped(mu, values: list) -> int:
    """The telescoping sum of mu along the values, as an int over D = `mu.den`.

    That is mu(v_1 + ... + v_(i-1), v_i) * D summed over i, each term by
    the cocycle's `exponent` on the int prefix.  Over the values of a
    zero-sum configuration in the spiral order it is the phase mu^ that
    relates the left-to-right product of their twisted unitaries to the
    identity; the intertwiner sums it on both sides of each term.
    """
    if not values:
        return 0
    value, prefix, total = mu.exponent, values[0], 0  # the first term is mu(0, v_1) = 0
    for coords in values[1:]:
        total += value(prefix, coords)
        prefix = tuple(map(add, prefix, coords))
    return total
