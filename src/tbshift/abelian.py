"""Finitely generated abelian groups Z^d + Z/n1 + ... and maps between them.

Groups are kept in the presentation they were given (free generators first,
then torsion generators); isomorphism tests cope with equivalent
presentations.  An element is its reduced coordinate tuple, the torsion
coordinates in [0, n_i); a group's `orders` (n_i per torsion generator, 0
per free one) are what every reduction reads.  `AbElem`, a group with
such a tuple, only keys the map `cocycle.coboundary_witness` returns.
A finite group numbers its elements in `coordinates()` order; `addition_table`
adds by those numbers, and `values` lists a linear form on them by
mixed-radix running sums: the one numbering that the twist tables, table
cocycles and the swap kernel read.  A presentation's invariant factors
come from a gcd/lcm pass over its torsion orders; Smith normal form gives
those of the finite groups that `group_structure` identifies and decides
whether a homomorphism is bijective; subgroups of finite groups are kept
as `linalg.hermite_mod` echelon rows by their callers.  The candidate
images of the isomorphism search are coordinate ranges of its own,
`classify._pool_ranges`.  A character is one integer row over one
denominator, in lowest terms, so a value is a dot product and equality is
structural; a homomorphism checks its torsion columns on its integer
matrix.  Neither builds a Phase.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd, lcm, prod
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .linalg import identity_matrix, snf_diagonal
from .scalars import Immutable, Phase


def lazy_product(ranges: Sequence[range]) -> Iterator[tuple]:
    """itertools.product(*ranges), in its order, walking the ranges without copying them."""
    if not ranges:
        return iter([()])
    return (prefix + (c,) for prefix in lazy_product(ranges[:-1]) for c in ranges[-1])


class AbGroup(Immutable):
    """Z^free_rank + Z/torsion[0] + ...; `rank` and `orders` (per generator,
    0 if free) are derived, and left out of equality, hashing and repr."""

    __slots__ = ("free_rank", "torsion", "rank", "orders")
    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple = ()) -> None:
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        tors = tuple(map(operator.index, torsion))
        if any(n < 2 for n in tors):
            raise ValueError("torsion orders must be >= 2")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tors)
        object.__setattr__(self, "rank", free_rank + len(tors))
        object.__setattr__(self, "orders", (0,) * free_rank + tors)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group has no order")
        return prod(self.torsion)

    def reduce(self, coords: Sequence[int]) -> tuple:
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return tuple([c % n if n else c for c, n in zip(map(operator.index, coords), self.orders)])

    def coordinates(self) -> Iterator[tuple]:
        """A finite group's elements as coordinate tuples, in itertools.product
        order (the last coordinate fastest), with no range copied, so a
        huge group's first ones come at once."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        return lazy_product([range(n) for n in self.torsion])

    def values(self, row: Sequence[int], d: int) -> list:
        """row . g mod d for each g, in `coordinates()` order: the mixed-radix
        running sums, each digit's steps made once mod d, the last one fastest."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        if len(row) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(row)}")
        out = [0]
        for n, a in zip(self.torsion, row):
            steps = [c * a % d for c in range(n)]
            out = [(p + s) % d for p in out for s in steps]
        return out

    def addition_table(self) -> list:
        """add[i][j] is the number of g_i + g_j, g_i the i-th of `coordinates()`:
        (c_1, ..., c_r) is number (...(c_1 n_2 + c_2) n_3 + ...) + c_r, so
        generator e_k is number prod(torsion[k+1:])."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        add = [[0]]
        for m in self.torsion:
            add = [[p * m + (c1 + c2) % m for p in row for c2 in range(m)]
                   for row in add for c1 in range(m)]
        return add

    def invariant_factors(self) -> tuple:
        """Invariant factors of the torsion part (each divides the next).

        (a_i, a_j) <- (gcd, lcm) for i < j: on each prime's exponents that
        is a compare-exchange, keeping the multiset, so the pass sorts every
        prime's exponents at once and leaves a divisibility chain whose
        product is the order, the Smith form of diag(torsion), ones dropped.
        """
        a = list(self.torsion)
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                a[i], a[j] = gcd(a[i], a[j]), lcm(a[i], a[j])
        return tuple(x for x in a if x != 1)


def abstractly_isomorphic(a: AbGroup, b: AbGroup) -> bool:
    return a.free_rank == b.free_rank and a.invariant_factors() == b.invariant_factors()


class AbElem(Immutable):
    __slots__ = ("group", "coords")

    def __init__(self, group: AbGroup, coords: tuple) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)

    def __hash__(self) -> int:
        # elements are keyed by their coordinates; equal elements have
        # equal coordinates, so this agrees with the derived equality
        return hash(self.coords)


class AbHom(Immutable):
    """Homomorphism given by an integer matrix: column j = image of source
    generator j, written in target coordinates (rows)."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: AbGroup, target: AbGroup, matrix: tuple) -> None:
        rows = tuple(tuple(map(operator.index, row)) for row in matrix)
        if len(rows) != target.rank or any(
            len(row) != source.rank for row in rows
        ):
            raise ValueError("matrix shape does not match the groups")
        # canonical form: reduce rows that land on torsion target coordinates
        orders = target.orders
        rows = tuple(tuple(x % m for x in row) if m else row for row, m in zip(rows, orders))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", rows)
        # column j must be killed by n: n * x = 0 mod m on a torsion row, x = 0 on a free one
        for j, n in enumerate(source.orders):
            if n and any(n * row[j] % m if m else row[j] for row, m in zip(rows, orders)):
                raise ValueError(
                    f"generator {j} of order {n} maps to an incompatible element"
                )

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other: the product of the matrices."""
        if other.target != self.source:
            raise ValueError("homs do not compose")
        rows = tuple(
            tuple(sum(a * col[j] for a, col in zip(row, other.matrix))
                  for j in range(other.source.rank))
            for row in self.matrix
        )
        return AbHom(other.source, self.target, rows)

    @staticmethod
    def identity(group: AbGroup) -> "AbHom":
        return AbHom(group, group, identity_matrix(group.rank))


def is_isomorphism(f: AbHom) -> bool:
    """True iff f is bijective.

    The presentations must be abstractly isomorphic, and f surjective:
    the Smith normal form of the matrix augmented with the target
    relations must be all ones.  Between isomorphic finitely generated
    groups surjectivity forces injectivity, finite or not.
    """
    if not abstractly_isomorphic(f.source, f.target):
        return False
    orders = f.target.orders
    mat = [[*row, *(n if k == i else 0 for k, n in enumerate(orders) if n)]
           for i, row in enumerate(f.matrix)]
    diag = snf_diagonal(mat)
    return len([d for d in diag if d != 0]) == len(orders) and all(d in (0, 1) for d in diag)


class Character(Immutable):
    """Character chi(g) = c . g / D: the integer row c (`ints`) over D
    (`den`), put in lowest terms (entries in [0, D), their gcd with D 1), so
    equality and hashing are structural.  A torsion generator's order must
    kill its entry, so a value does not depend on reducing coordinates.
    """

    __slots__ = ("group", "ints", "den")

    def __init__(self, group: AbGroup, ints: tuple, den: int) -> None:
        if len(ints) != group.rank:
            raise ValueError("one phase per generator is required")
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        ints = [c % den for c in ints]
        g = gcd(den, *ints)
        ints, den = tuple(c // g for c in ints), den // g
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)
        for c, n in zip(ints, group.orders):
            if n and n * c % den:
                raise ValueError(f"phase {Phase(c, den)} is not killed by the generator order {n}")

    @staticmethod
    def trivial(group: AbGroup) -> "Character":
        return Character(group, (0,) * group.rank, 1)

    def power(self, d: int) -> "Character":
        return Character(self.group, tuple(c * d for c in self.ints), self.den)


def dual_character(group: AbGroup, index: int) -> Character:
    """The character with phase a_j / n_j on generator j, (a_j) the index-th
    tuple of itertools.product(range(n_1), ..., range(n_r)): its digits in
    the mixed radix of the torsion orders, the last one fastest.  The row
    is a_j D / n_j over D, the lcm of the orders, for 0 <= index < |H|."""
    if not 0 <= index < group.order():
        raise ValueError(f"character index {index} is outside range({group.order()})")
    d = lcm(*group.torsion)
    ints = []
    for n in reversed(group.torsion):
        index, a = divmod(index, n)
        ints.append(a * (d // n))
    return Character(group, tuple(reversed(ints)), d)


T = TypeVar("T")


class StructureReport(Immutable):
    __slots__ = ("order", "abelian", "invariant_factors", "noncommuting")

    def __init__(self, order: int, invariant_factors: Optional[tuple],
                 noncommuting: Optional[tuple]) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "abelian", noncommuting is None)
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "noncommuting", noncommuting)

    @property
    def description(self) -> str:
        if not self.abelian:
            return f"nonabelian of order {self.order}"
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{n}" for n in self.invariant_factors)


def group_structure(elements: Sequence[T], compose: Callable[[T, T], T]) -> StructureReport:
    """Identify the abstract group formed by the given elements.

    Generators are picked greedily: g_j is the first element outside the
    span so far, and m_j the least m >= 1 with g_j^m in that span.  The
    span is closed breadth first under all generators, keeping an exponent
    word per element, so closure is checked with about n*k compositions
    for k generators and no Cayley table.  The identity is the idempotent,
    checked on both sides of each generator.  The group is abelian iff its
    generators commute, else a noncommuting pair is the witness.  When
    abelian, the rows m_j e_j - word(g_j^m_j) generate every relation
    (their determinant prod m_j is the order), so the invariant factors
    are their Smith normal form.
    """
    elems = list(dict.fromkeys(elements))
    universe = set(elems)
    n = len(elems)

    def product(x: T, y: T) -> T:
        z = compose(x, y)
        if z not in universe:
            raise ValueError(f"not closed under composition: {(x, y)}")
        return z

    identity = next((e for e in elems if compose(e, e) == e), None)
    if identity is None:
        raise ValueError("no identity element present")
    words = {identity: ()}  # element -> exponents of the generators so far
    gens, relations = [], []
    for g in elems:
        if g in words:
            continue
        if compose(identity, g) != g or compose(g, identity) != g:
            raise ValueError(f"{identity} is not an identity for {g}")
        power, m = g, 1
        while power not in words:
            if m == n:
                raise ValueError(f"not closed under inverses: {g}")
            power, m = product(power, g), m + 1
        gens.append(g)
        relations.append((m, words[power]))
        frontier = list(words)
        while frontier:
            nxt = []
            for x in frontier:
                word = words[x] + (0,) * (len(gens) - len(words[x]))
                for i, h in enumerate(gens):
                    y = product(x, h)
                    if y not in words:
                        words[y] = word[:i] + (word[i] + 1,) + word[i + 1 :]
                        nxt.append(y)
            frontier = nxt
    for x, y in itertools.combinations(gens, 2):
        if compose(x, y) != compose(y, x):
            return StructureReport(n, None, (x, y))
    k = len(gens)
    rows = [
        [-c for c in word] + [0] * (j - len(word)) + [m] + [0] * (k - j - 1)
        for j, (m, word) in enumerate(relations)
    ]
    return StructureReport(n, tuple(d for d in snf_diagonal(rows) if d != 1), None)
