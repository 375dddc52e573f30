"""Finitely generated abelian groups Z^d + Z/n1 + ... and maps between them.

Groups are kept in the presentation they were given (free generators first,
then torsion generators); isomorphism tests cope with equivalent
presentations.  Elements are integer coordinate vectors with torsion
coordinates reduced into [0, n_i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .linalg import snf_diagonal
from .scalars import Phase


@dataclass(frozen=True)
class AbGroup:
    free_rank: int
    torsion: tuple = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        tors = tuple(int(n) for n in self.torsion)
        if any(n < 2 for n in tors):
            raise ValueError("torsion orders must be >= 2")
        object.__setattr__(self, "torsion", tors)

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group has no order")
        result = 1
        for n in self.torsion:
            result *= n
        return result

    def exponent(self) -> int:
        result = 1
        for n in self.torsion:
            result = result * n // gcd(result, n)
        return result

    def reduce(self, coords: Sequence[int]) -> tuple:
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        free = tuple(int(c) for c in coords[: self.free_rank])
        tors = tuple(
            int(c) % n for c, n in zip(coords[self.free_rank :], self.torsion)
        )
        return free + tors

    def element(self, coords: Sequence[int]) -> "AbElem":
        return AbElem(self, self.reduce(coords))

    def zero(self) -> "AbElem":
        return AbElem(self, (0,) * self.rank)

    def generators(self) -> list:
        return [
            AbElem(self, tuple(1 if i == j else 0 for i in range(self.rank)))
            for j in range(self.rank)
        ]

    def generator_order(self, j: int) -> int:
        """Order of the j-th generator (0 for a free generator)."""
        if j < self.free_rank:
            return 0
        return self.torsion[j - self.free_rank]

    def elements(self) -> Iterator["AbElem"]:
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(n) for n in self.torsion)):
            yield AbElem(self, coords)

    def invariant_factors(self) -> tuple:
        """Invariant factors of the torsion part (each divides the next)."""
        if not self.torsion:
            return ()
        k = len(self.torsion)
        diag = [[self.torsion[i] if i == j else 0 for j in range(k)] for i in range(k)]
        return tuple(d for d in snf_diagonal(diag) if d != 1)

    def direct_sum(self, other: "AbGroup") -> "AbGroup":
        if self.free_rank or other.free_rank:
            raise ValueError("direct_sum supports finite groups only")
        return AbGroup(0, self.torsion + other.torsion)


def abstractly_isomorphic(a: AbGroup, b: AbGroup) -> bool:
    return a.free_rank == b.free_rank and a.invariant_factors() == b.invariant_factors()


@dataclass(frozen=True)
class AbElem:
    group: AbGroup
    coords: tuple

    def _check(self, other: "AbElem") -> None:
        if self.group != other.group:
            raise ValueError("elements live in different groups")

    def __add__(self, other: "AbElem") -> "AbElem":
        self._check(other)
        return self.group.element([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "AbElem":
        return self.group.element([-a for a in self.coords])

    def __sub__(self, other: "AbElem") -> "AbElem":
        return self + (-other)

    def scaled(self, n: int) -> "AbElem":
        return self.group.element([n * a for a in self.coords])

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        """Order of the element; 0 means infinite."""
        g = self.group
        if any(self.coords[: g.free_rank]):
            return 0
        result = 1
        for c, n in zip(self.coords[g.free_rank :], g.torsion):
            o = n // gcd(n, c) if c else 1
            result = result * o // gcd(result, o)
        return result


def subgroup_generated(images: Sequence[AbElem]) -> set:
    """All elements generated by the given ones (finite closures only)."""
    if not images:
        return set()
    zero = images[0].group.zero()
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in images:
                y = x + g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class AbHom:
    """Homomorphism given by an integer matrix: column j = image of source
    generator j, written in target coordinates (rows)."""

    source: AbGroup
    target: AbGroup
    matrix: tuple

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        if len(rows) != self.target.rank or any(
            len(row) != self.source.rank for row in rows
        ):
            raise ValueError("matrix shape does not match the groups")
        # canonical form: reduce rows that land on torsion target coordinates
        fixed = []
        for i, row in enumerate(rows):
            n = self.target.generator_order(i)
            fixed.append(tuple(x % n for x in row) if n else row)
        object.__setattr__(self, "matrix", tuple(fixed))
        for j in range(self.source.rank):
            n = self.source.generator_order(j)
            if n and not self.column(j).scaled(n).is_zero:
                raise ValueError(
                    f"generator {j} of order {n} maps to an incompatible element"
                )

    def column(self, j: int) -> AbElem:
        return self.target.element([row[j] for row in self.matrix])

    def __call__(self, g: AbElem) -> AbElem:
        if g.group != self.source:
            raise ValueError("element is not in the source group")
        return self.target.element(
            [sum(row[j] * g.coords[j] for j in range(len(row))) for row in self.matrix]
        )

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other."""
        if other.target != self.source:
            raise ValueError("homs do not compose")
        cols = [self(other.column(j)).coords for j in range(other.source.rank)]
        rows = tuple(
            tuple(cols[j][i] for j in range(other.source.rank))
            for i in range(self.target.rank)
        )
        return AbHom(other.source, self.target, rows)

    @staticmethod
    def identity(group: AbGroup) -> "AbHom":
        r = group.rank
        return AbHom(
            group, group, tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
        )

    @staticmethod
    def from_images(source: AbGroup, target: AbGroup, images: Sequence[AbElem]) -> "AbHom":
        rows = tuple(
            tuple(images[j].coords[i] for j in range(source.rank))
            for i in range(target.rank)
        )
        return AbHom(source, target, rows)


def is_isomorphism(f: AbHom) -> bool:
    """True iff f is bijective.

    Finite groups: image-size count.  Groups with a free part: abstract
    isomorphism of the presentations plus surjectivity, read off the Smith
    normal form of the matrix augmented with the target relations;
    surjectivity between isomorphic finitely generated groups forces
    injectivity.
    """
    if not abstractly_isomorphic(f.source, f.target):
        return False
    if f.source.is_finite and f.target.is_finite:
        images = [f.column(j) for j in range(f.source.rank)]
        return len(subgroup_generated(images)) == f.target.order()
    rb = f.target.rank
    cols = [[f.matrix[i][j] for i in range(rb)] for j in range(f.source.rank)]
    for i in range(rb):
        n = f.target.generator_order(i)
        if n:
            cols.append([n if k == i else 0 for k in range(rb)])
    mat = [[col[i] for col in cols] for i in range(rb)]
    diag = snf_diagonal(mat)
    return len([d for d in diag if d != 0]) == rb and all(d in (0, 1) for d in diag)


def _image_candidates(target: AbGroup, order: int, bound: Optional[int]) -> Iterator[AbElem]:
    """Target elements x with order*x = 0 (order 0 = free source generator)."""
    if order == 0:
        if not target.is_finite and bound is None:
            raise ValueError("a bound is required when free parts are present")
        free_range = range(-bound, bound + 1) if bound is not None else range(1)
        ranges = [free_range] * target.free_rank + [range(n) for n in target.torsion]
        for coords in itertools.product(*ranges):
            yield target.element(coords)
    else:
        # free target coordinates must vanish; torsion coordinate c needs
        # n | order*c, i.e. c a multiple of n/gcd(order, n)
        steps = [n // gcd(order, n) for n in target.torsion]
        ranges = [range(0, n, s) for n, s in zip(target.torsion, steps)]
        for tors in itertools.product(*ranges):
            yield target.element((0,) * target.free_rank + tors)


def enumerate_isomorphisms(
    source: AbGroup, target: AbGroup, bound: Optional[int] = None
) -> tuple:
    """All isomorphisms source -> target, with a completeness flag.

    Complete when both groups are finite.  With free parts a bound on the
    matrix entries is required and the listing is explicitly incomplete.
    """
    complete = source.is_finite and target.is_finite
    if not abstractly_isomorphic(source, target):
        return [], True
    if not complete and bound is None:
        raise ValueError("free parts present: pass an entry bound")
    found = []
    orders = [source.generator_order(j) for j in range(source.rank)]
    pools = [list(_image_candidates(target, o, bound)) for o in orders]
    for images in itertools.product(*pools):
        f = AbHom.from_images(source, target, list(images))
        if is_isomorphism(f):
            found.append(f)
    return found, complete


def enumerate_automorphisms(group: AbGroup) -> list:
    """The full automorphism list of a finite group, in enumeration order."""
    if not group.is_finite:
        raise ValueError("automorphism enumeration needs a finite group")
    autos, complete = enumerate_isomorphisms(group, group)
    assert complete
    return autos


@dataclass(frozen=True)
class Character:
    """Character of H given by its Phase value on each generator."""

    group: AbGroup
    phases: tuple

    def __post_init__(self) -> None:
        if len(self.phases) != self.group.rank:
            raise ValueError("one phase per generator is required")
        for j, p in enumerate(self.phases):
            n = self.group.generator_order(j)
            if n and not (p * n).is_zero:
                raise ValueError(
                    f"phase {p} is not killed by the generator order {n}"
                )

    @staticmethod
    def trivial(group: AbGroup) -> "Character":
        return Character(group, (Phase.ZERO,) * group.rank)

    @property
    def is_trivial(self) -> bool:
        return all(p.is_zero for p in self.phases)

    def __call__(self, g: AbElem) -> Phase:
        if g.group != self.group:
            raise ValueError("element is not in the character's group")
        total = Phase.ZERO
        for c, p in zip(g.coords, self.phases):
            total = total + p * c
        return total

    def __mul__(self, other: "Character") -> "Character":
        if self.group != other.group:
            raise ValueError("characters live on different groups")
        return Character(self.group, tuple(a + b for a, b in zip(self.phases, other.phases)))

    def power(self, d: int) -> "Character":
        return Character(self.group, tuple(p * d for p in self.phases))

    def pullback(self, f: AbHom) -> "Character":
        """The character g -> self(f(g)) on f's source."""
        if f.target != self.group:
            raise ValueError("hom does not land in the character's group")
        return Character(
            f.source,
            tuple(self(f.column(j)) for j in range(f.source.rank)),
        )


def dual_characters(group: AbGroup) -> Iterator[Character]:
    """All |H| characters of a finite group."""
    if not group.is_finite:
        raise ValueError("the full dual is only enumerable for finite groups")
    pools = [[Phase(a, n) for a in range(n)] for n in group.torsion]
    for phases in itertools.product(*pools):
        yield Character(group, tuple(phases))


def separating_characters(group: AbGroup, values: Iterable[AbElem]) -> list:
    """A finite character family that separates the given elements from 0.

    For finite groups this is the full dual.  Otherwise one character per
    generator, with order exceeding twice the largest coordinate magnitude
    that occurs, so that no occurring nonzero value can be missed.
    """
    if group.is_finite:
        return list(dual_characters(group))
    biggest = 1
    for v in values:
        for c in v.coords[: group.free_rank]:
            biggest = max(biggest, abs(c))
    modulus = 2 * biggest + 1
    family = []
    for j in range(group.rank):
        n = group.generator_order(j) or modulus
        phases = [Phase.ZERO] * group.rank
        phases[j] = Phase(1, n)
        family.append(Character(group, tuple(phases)))
    return family


T = TypeVar("T")


@dataclass(frozen=True)
class StructureReport:
    order: int
    abelian: bool
    invariant_factors: Optional[tuple]
    noncommuting: Optional[tuple]

    @property
    def description(self) -> str:
        if not self.abelian:
            return f"nonabelian of order {self.order}"
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{n}" for n in self.invariant_factors)


def group_structure(elements: Sequence[T], compose: Callable[[T, T], T]) -> StructureReport:
    """Identify the abstract group formed by the given elements.

    The list must be closed under composition and inverses (verified; a
    counterexample pair is reported otherwise).  Abelian groups are
    decomposed into invariant factors by peeling off a cyclic subgroup of
    maximal order; nonabelian groups are reported with a witness pair.
    """
    elems = list(dict.fromkeys(elements))
    universe = set(elems)
    table = {}
    for x in elems:
        for y in elems:
            z = compose(x, y)
            if z not in universe:
                raise ValueError(f"not closed under composition: {(x, y)}")
            table[(x, y)] = z
    identity = None
    for e in elems:
        if all(table[(e, x)] == x and table[(x, e)] == x for x in elems):
            identity = e
            break
    if identity is None:
        raise ValueError("no identity element present")
    for x in elems:
        if not any(table[(x, y)] == identity for y in elems):
            raise ValueError(f"not closed under inverses: {x}")
    for x in elems:
        for y in elems:
            if table[(x, y)] != table[(y, x)]:
                return StructureReport(len(elems), False, None, (x, y))

    def peel(members: list, mul: Callable[[T, T], T], ident: T) -> list:
        if len(members) == 1:
            return []
        orders = {x: 1 for x in members}
        for x in members:
            k, acc = 1, x
            while acc != ident:
                acc = mul(acc, x)
                k += 1
            orders[x] = k
        g = max(members, key=lambda x: orders[x])
        m = orders[g]
        cyclic = [ident]
        acc = g
        while acc != ident:
            cyclic.append(acc)
            acc = mul(acc, g)
        cyclic_set = set(cyclic)
        coset_of = {}
        for x in members:
            if x in coset_of:
                continue
            coset = frozenset(mul(x, c) for c in cyclic_set)
            for y in coset:
                coset_of[y] = coset
        quotient = list(dict.fromkeys(coset_of[x] for x in members))
        reps = {c: next(iter(c)) for c in quotient}

        def qmul(a: frozenset, b: frozenset) -> frozenset:
            return coset_of[mul(reps[a], reps[b])]

        return [m] + peel(quotient, qmul, coset_of[ident])

    factors = peel(elems, lambda a, b: table[(a, b)], identity)
    factors.sort()
    total = 1
    for n in factors:
        total *= n
    assert total == len(elems)
    return StructureReport(len(elems), True, tuple(factors), None)
