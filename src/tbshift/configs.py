"""Finitely supported H-valued configurations on the lattice Z^2.

A Config is an element of the direct sum of copies of H indexed by Z^2;
the zero-sum ones form the subgroup on which the restricted shift algebra
lives.  Supports are stored sparsely in lexicographic (q, r) order so that
equality, hashing and serialization are canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .abelian import AbElem, AbGroup
from .lattice import E1, ORIGIN, LatticePoint, spiral_index
from .scalars import Phase


@dataclass(frozen=True)
class Config:
    group: AbGroup
    support: tuple  # ((LatticePoint, coords), ...) lexicographic, no zero values

    @staticmethod
    def from_items(group: AbGroup, items: Iterable[tuple]) -> "Config":
        acc: dict = {}
        for point, value in items:
            point = LatticePoint(*point)
            coords = value.coords if isinstance(value, AbElem) else group.reduce(value)
            if point in acc:
                coords = group.reduce([a + b for a, b in zip(acc[point], coords)])
            acc[point] = coords
        support = tuple(
            (p, acc[p]) for p in sorted(acc) if any(acc[p])
        )
        return Config(group, support)

    @staticmethod
    def zero(group: AbGroup) -> "Config":
        return Config(group, ())

    def items(self) -> Iterator[tuple]:
        for point, coords in self.support:
            yield point, AbElem(self.group, coords)

    @property
    def is_zero(self) -> bool:
        return not self.support

    def total(self) -> AbElem:
        """The sum in H of the values: coordinates summed as ints, reduced once."""
        support = self.support
        return self.group.element(
            [sum(coords[i] for _, coords in support) for i in range(self.group.rank)]
        )

    @cached_property
    def is_zero_sum(self) -> bool:
        """Computed once per Config (the intertwiner, beta and mu_hat all ask)."""
        return self.total().is_zero

    def __add__(self, other: "Config") -> "Config":
        if self.group != other.group:
            raise ValueError("configs over different groups")
        return Config.from_items(self.group, list(self.support) + list(other.support))

    def __neg__(self) -> "Config":
        return Config(
            self.group,
            tuple((p, (-AbElem(self.group, c)).coords) for p, c in self.support),
        )

    def __sub__(self, other: "Config") -> "Config":
        return self + (-other)

    def mapped(self, f) -> "Config":
        """Apply a group hom to every value (the support does not move)."""
        return Config.from_items(
            f.target, ((p, f(AbElem(self.group, c))) for p, c in self.support)
        )


def dipole(h: AbElem) -> Config:
    """The elementary zero-sum configuration: h at e1 and -h at the origin."""
    return Config.from_items(h.group, [(E1, h), (ORIGIN, -h)])


def mu_tilde(mu, c1: Config, c2: Config) -> Phase:
    """Sitewise cocycle pairing: sum over k of mu(c1(k), c2(k)).

    This is itself a normalized 2-cocycle on the configuration group.
    """
    if c1.group != c2.group:
        raise ValueError("configs over different groups")
    total = Phase.ZERO
    d2 = dict(c2.support)
    for p, v1 in c1.items():
        if p in d2:
            total = total + mu(v1, AbElem(c2.group, d2[p]))
    return total


def mu_hat(mu, lam: Config, order_key: Callable[[LatticePoint], int] = spiral_index) -> Phase:
    """Ordered telescoping phase of a zero-sum configuration.

    Equals the scalar relating the left-to-right product of the twisted
    group-algebra unitaries of the values (taken in the fixed enumeration
    of Z^2) to the identity.  The value depends on the enumeration unless
    the cocycle is symmetric; the spiral order is the library-wide default.
    """
    if not lam.is_zero_sum:
        raise ValueError("telescoping phase needs a zero-sum configuration")
    group = lam.group
    ordered = sorted(lam.support, key=lambda item: order_key(item[0]))
    total = Phase.ZERO
    prefix = [0] * group.rank  # the values so far, summed as ints
    for _, coords in ordered:
        total = total + mu(group.element(prefix), AbElem(group, coords))
        prefix = [a + b for a, b in zip(prefix, coords)]
    return total
