"""Normalized scalar 2-cocycles on abelian groups and their invariants.

Two storage forms are supported.  A TableCocycle stores every value on a
finite group; a BilinearCocycle stores an integer matrix B over one
denominator D, in lowest terms, and evaluates mu(g, h) = g^T B h / D,
which covers infinite groups and every bilinear family used in practice.
Both state `den`, the lcm of their denominators, one value over it on
coordinate tuples (`exponent`), and on a finite group their whole table
over it (`exponent_table`), indexed by the numbers of
`AbGroup.coordinates()`, whose sums `addition_table` gives.  Every consumer
reads mu in these ints, never as a Phase: the star form and the
configuration twists by `exponent`, table validation, the coboundary
witness, the swap kernel and the selftest's catalog of pairs by the two
tables; only the tests' reference tables read the Phase `__call__`.  The
star bicharacter mu(g, h) - mu(h, g), one integer matrix over one
denominator (`Bicharacter`), classifies a cocycle up to coboundary; that
fact is cross-checked at test scale rather than assumed:
`coboundary_witness` builds a candidate b with
mu1 - mu2 = b(g) + b(h) - b(g+h) by recursion along paths of generator
steps, and the check of every equation decides.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul
from typing import Optional

from .abelian import AbElem, AbGroup
from .linalg import hermite_mod, identity_matrix, integer_kernel_basis
from .scalars import Immutable, Phase


class CocycleError(ValueError):
    def __init__(self, violation: str, detail: str = ""):
        self.violation = violation
        super().__init__(f"{violation}: {detail}" if detail else violation)


def _bilinear_exponent(form, g: tuple, h: tuple) -> int:
    """g^T M h over the integer M of a cocycle or star form, on coordinate tuples."""
    num = 0
    for gi, row in zip(g, form.ints):
        if gi:
            num += gi * sum(map(mul, row, h))
    return num


def _bilinear_value(form, g: AbElem, h: AbElem) -> Phase:
    """g^T M h / D over the integer (M, D) of a cocycle or star form."""
    return Phase(_bilinear_exponent(form, g.coords, h.coords), form.den)


class BilinearCocycle(Immutable):
    """Cocycle mu(g, h) = g^T B h / D: the integer matrix B (`ints`) over D
    (`den`), in lowest terms as `Character` puts its row.  Any bilinear
    exponent form is a normalized 2-cocycle; entries touching a torsion
    generator must be killed by its order, so values are well defined on
    reduced coordinates.
    """

    __slots__ = ("group", "ints", "den")  # ints: rank x rank

    def __init__(self, group: AbGroup, ints: tuple, den: int) -> None:
        r = group.rank
        rows = tuple(tuple(row) for row in ints)
        if len(rows) != r or any(len(row) != r for row in rows):
            raise CocycleError("shape", f"matrix must be {r}x{r}")
        if den < 1:
            raise CocycleError("denominator", f"must be positive, got {den}")
        rows = [[x % den for x in row] for row in rows]
        g = gcd(den, *(x for row in rows for x in row))
        ints, den = tuple(tuple(x // g for x in row) for row in rows), den // g
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)
        orders = group.orders
        for i, row in enumerate(ints):
            for j, x in enumerate(row):
                for n in (orders[i], orders[j]):
                    if n and n * x % den:
                        raise CocycleError(
                            "torsion", f"entry ({i},{j}) not killed by order {n}"
                        )

    __call__ = _bilinear_value
    # mu(g, h) * D on raw coordinates: reducing them mod torsion moves it by
    # a multiple of D, as construction checks the torsion entries
    exponent = _bilinear_exponent

    def exponent_table(self) -> list:
        """mu(g, h) * D in [0, D) for g, h of the finite group in `coordinates()` order.

        Row g is the linear form h -> (g B) . h, so `AbGroup.values` lists
        it in H's own numbering.
        """
        d, group, cols = self.den, self.group, list(zip(*self.ints))
        return [group.values([sum(map(mul, g, col)) for col in cols], d)
                for g in group.coordinates()]

    def validate(self) -> None:
        """Construction already enforces everything; Triplet.validate calls this."""


class TableCocycle(Immutable):
    """Complete value table on a finite group.  `den`, the lcm of the
    entries' denominators, is computed when built and is not a field."""

    # entries: (coords, coords) -> Phase
    __slots__ = ("group", "entries", "den")
    _fields = ("group", "entries")

    def __init__(self, group: AbGroup, entries: dict) -> None:
        if not group.is_finite:
            raise CocycleError("table", "table form needs a finite group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "den", lcm(*(p.den for p in entries.values())))

    # the entries are a dict, so a table is not hashed
    __hash__ = None

    def __call__(self, g: AbElem, h: AbElem) -> Phase:
        return self.entries[(g.coords, h.coords)]

    def exponent(self, g: tuple, h: tuple) -> int:
        """mu(g, h) * D for coordinate tuples, read at their reductions."""
        reduce = self.group.reduce
        p = self.entries[reduce(g), reduce(h)]
        return p.num * (self.den // p.den)

    def exponent_table(self) -> list:
        """mu(g, h) * D in [0, D) for g, h in `coordinates()` order, read off the entries."""
        d, entries = self.den, self.entries
        elems = list(self.group.coordinates())
        return [[p.num * (d // p.den) for p in [entries[g, h] for h in elems]] for g in elems]

    def validate(self) -> None:
        """Complete, normalized, and a 2-cocycle, checked on the |H|^2 * rank
        triples (g, h, e_i).  These say u_g u_h = mu(g, h) u_{g+h} is
        associative when the third factor is a generator.  Induction on the
        third factor c, each step by that case or the hypothesis, gives it
        everywhere, as u_0 is the unit and the generators span H as a monoid:
        (xy)(c e_i) = ((xy)c)e_i = (x(yc))e_i = x((yc)e_i) = x(y(c e_i)).
        The scans read the integer table by the numbers of H, and the first
        failing (g, h, e_i) in loop order is reported.  The pairs are walked
        lazily, so a missing one turns up within len(entries) + 1 pairs
        however large H is; once all are found, |H|^2 is at most that."""
        coordinates, entries = self.group.coordinates, self.entries
        for g in coordinates():
            for h in coordinates():
                if (g, h) not in entries:
                    raise CocycleError("table", f"missing entry ({g}, {h})")
        elems = list(coordinates())
        mu, add, d = self.exponent_table(), self.group.addition_table(), self.den
        for g, mu_g, mu_0g in zip(elems, mu, mu[0]):
            if mu_g[0] or mu_0g:
                raise CocycleError("normalization", f"value at ({g}, 0) is not 1")
        gens = [prod(self.group.torsion[k + 1:]) for k in range(self.group.rank)]  # e_k's numbers
        for g, mu_g, add_g in zip(elems, mu, add):
            for h, (gh, s) in enumerate(zip(mu_g, add_g)):
                mu_s, mu_h, add_h = mu[s], mu[h], add[h]
                for k in gens:
                    if (gh + mu_s[k] - mu_h[k] - mu_g[add_h[k]]) % d:
                        raise CocycleError("cocycle-identity",
                                           f"fails at {(g, elems[h], elems[k])}")


def trivial_cocycle(group: AbGroup) -> BilinearCocycle:
    return BilinearCocycle(group, ((0,) * group.rank,) * group.rank, 1)


class Bicharacter(Immutable):
    """The star form (g, h) -> g^T A h / D on raw coordinates.

    A (`ints`) is an antisymmetric integer matrix, and D (`den`) is the lcm
    of the denominators of the phases A_ij / D, so equal forms have equal
    (A, D).  `matrix` renders those phases, for printing.
    """

    __slots__ = ("group", "ints", "den")  # ints: rank x rank, antisymmetric

    def __init__(self, group: AbGroup, ints: tuple, den: int) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)

    value = _bilinear_value

    @property
    def matrix(self) -> tuple:
        return tuple(tuple(Phase(a, self.den) for a in row) for row in self.ints)


def star_bicharacter(mu) -> Bicharacter:
    """The star form (g, h) -> mu(g, h) - mu(h, g) of either storage form.

    An alternating bicharacter is fixed by its values on the generator
    pairs i < j, so mu is read only there, by `mu.exponent` over mu.den.
    D = mu.den / g, g the gcd of it and those values, is the lcm of their
    denominators; A_ij is the value in [0, 1) times D, and A_ji = -A_ij.
    """
    gens, d = identity_matrix(mu.group.rank), mu.den
    up = [[(mu.exponent(x, y) - mu.exponent(y, x)) % d if i < j else 0
           for j, y in enumerate(gens)] for i, x in enumerate(gens)]
    g = gcd(d, *(a for row in up for a in row))
    ints = tuple(tuple((x - y) // g for x, y in zip(row, col)) for row, col in zip(up, zip(*up)))
    return Bicharacter(mu.group, ints, d // g)


def cohomologous(mu1, mu2) -> bool:
    """True iff the two cocycles differ by a coboundary (equal star forms)."""
    if mu1.group != mu2.group:
        raise CocycleError("group", "cocycles live on different groups")
    return star_bicharacter(mu1) == star_bicharacter(mu2)


MAX_WITNESS_ORDER = 64


def coboundary_witness(mu1, mu2) -> Optional[dict]:
    """A map b with mu1(g,h) - mu2(g,h) = b(g) + b(h) - b(g+h), or None.

    Independent of the star-form criterion: b is built by path recursion,
    then checked against all |H|^2 defining equations, and that check
    decides the answer.  With nu = mu1 - mu2, the equation at (y, e_i)
    reads b(y + e_i) = b(y) + b(e_i) - nu(y, e_i).  So b(0) = 0, and each
    x != 0 takes its value from y = x - e_i, i the last nonzero coordinate
    of x; y comes earlier in sorted-coords order.  Walking e_i n_i times
    round to 0 gives n_i*b(e_i) = S_i, S_i = sum_{k<n_i} nu(k*e_i, e_i).
    b(e_i) = S_i/n_i is one of the n_i solutions, and any one will do:
    two solutions of the whole system differ by a character.  nu and b
    are ints over m = lcm(mu1.den, mu2.den) * lcm(torsion), indexed by the
    numbers of `coordinates()`; an asymmetric nu fails the check.  For
    test-scale finite groups only.
    """
    group = mu1.group
    if group != mu2.group:
        raise CocycleError("group", "cocycles live on different groups")
    if not group.is_finite or group.order() > MAX_WITNESS_ORDER:
        raise CocycleError("scale", f"witness solver is limited to order <= {MAX_WITNESS_ORDER}")
    m = lcm(mu1.den, mu2.den) * lcm(*group.torsion)
    s1, s2 = m // mu1.den, m // mu2.den
    nu = [[x * s1 - y * s2 for x, y in zip(row1, row2)]
          for row1, row2 in zip(mu1.exponent_table(), mu2.exponent_table())]
    elems = list(group.coordinates())
    gens = [prod(group.torsion[k + 1:]) for k in range(group.rank)]
    step = [sum(nu[c * e][e] for c in range(n)) % m // n for e, n in zip(gens, group.torsion)]
    b = [0] * len(elems)
    for x, g in enumerate(elems[1:], 1):
        i = max(k for k, c in enumerate(g) if c)
        y = x - gens[i]
        b[x] = (b[y] + step[i] - nu[y][gens[i]]) % m
    for b_g, nu_g, add_g in zip(b, nu, group.addition_table()):
        for b_h, v, s in zip(b, nu_g, add_g):
            if (b_g + b_h - b[s] - v) % m:
                return None
    return {AbElem(group, g): Phase(v, m) for g, v in zip(elems, b)}


def star_blocks(ints: list, den: int, group: AbGroup) -> tuple:
    """(I, R): `hermite_mod` rows of the image I of the star map
    g -> s(g, -) on the torsion subgroup, and of its kernel R there.

    (A, D) = (`ints`, `den`) is a star form well defined on H.  Column j
    of s(g, -) is read mod m_j = n_j, or mod D for a free generator, so
    s(e_i, e_j) = A_ij / D is the integer A_ij * m_j / D there.  One
    `hermite_mod` runs over the graph {(s(g, -), g)} of the map in
    Z/m + torsion, with no integer kernel: torsion generator i gives its
    star row so scaled, followed by e_i.  The first rank echelon rows, cut
    to the first rank columns, are I (the graph's projection); the rows
    past them, cut to the last columns, are the graph's elements (0, g),
    that is R.  A pivot m_k (n_k) marks a zero row, as in `hermite_mod`.
    """
    r, torsion = group.rank, group.torsion
    moduli = [n or den for n in group.orders]
    graph = [[a * m // den for a, m in zip(row, moduli)] + e
             for row, e in zip(ints[group.free_rank:], identity_matrix(len(torsion)))]
    rows = hermite_mod(graph, moduli + list(torsion))
    return [row[:r] for row in rows[:r]], [row[r:] for row in rows[r:]]


def degeneracy_witness(mu) -> Optional[AbElem]:
    """A nonzero g whose star pairing against every h vanishes, or None.

    It reads the integer star form (A, D) of `star_bicharacter`.  With a
    free part, A holds rational tags for a dense parameter family, and the
    first integer kernel vector of A^T with a nonzero free part is the
    witness; that is the one integer kernel taken.  Else the witness lies
    in the torsion radical R of `star_blocks`.  Row k of R is the one
    element of R that vanishes before coordinate k and has the pivot
    there, so the row of the last k with pivot below n_k is the first
    nonzero element of R in `coordinates()` order (every later row is
    zero); with no such k, R is trivial.
    """
    group = mu.group
    star = star_bicharacter(mu)
    f = group.free_rank
    if f:
        for vec in integer_kernel_basis([list(col) for col in zip(*star.ints)]):
            if any(vec[:f]):
                return group.element(vec)
    _, radical = star_blocks(star.ints, star.den, group)
    for k in reversed(range(group.rank - f)):
        if radical[k][k] < group.torsion[k]:
            return group.element([0] * f + radical[k])
    return None
