"""Slow reference implementations, and the tools the tests share.

Nothing in `tbshift` calls these.  The oracles solve each problem the
literal way, so the tests can hold a fast path against them: the
coboundary witness against `literal_coboundary_witness` and against its
Phase walk `phase_coboundary_witness`, the pruned isomorphism search and
`check_conditions` against `enumerate_isomorphisms` with
`phase_conditions`, the integer evaluation of bilinear cocycles against
`phase_bilinear_value` and of characters against `phase_character_value`,
the star form against `phase_star_form`, `TableCocycle.validate`'s
integer scans against their Phase form `phase_validate` and its generator
triples against the scan of all triples in `cocycle_identity_failure`,
the swap kernel's flow at t = 1/2 (`half`, read through `malleability_flow`)
against the product W_t x W_t^* with `flow_unitary`,
`check_malleability` on the kernel's index form against its TensorElement
route `tensor_check_malleability` (generic star and product, characters
by `apply_diagonal_character`, the index form read back by
`tensor_element`), and the intertwiner's int terms and the int twists `configs.mu_tilde` and
`configs.telescoped` against their Phase sums `phase_pi`, `mu_tilde` and
`mu_hat`, and `spiral_points` and `spiral_index` against the
edge-by-edge walk `spiral_walk`.  The star map's one Hermite pass
(`cocycle.star_blocks`) is held against the routes it replaced: the
radical from an integer kernel (`kernel_radical_rows`, read by
`kernel_degeneracy_witness`) and the conjugacy invariants from the
Smith form of the 2r x r cokernel (`cokernel_invariants`); the gcd pass
of `invariant_factors` against the Smith form of diag(torsion)
(`snf_invariant_factors`), and the plain phase reader against the
`Fraction` route of every text (`fraction_phase_from_json`).  Tables evaluated from mu (`to_table`,
`table_from_function`, `coboundary_cocycle`, each on coordinate tuples, as
the cocycles' own `__call__` is) are the reference for the integer tables, as
`phase_witness_catalog` is for `selftest.witness_catalog`.  The term-level
operations that read canonical forms keep their old paths here: config
sums and negations through `from_items` and AbElem arithmetic
(`folded_sum`, `folded_negation`), Cyclotomic products through a rebase of
both factors (`rebased_product`) and rotations as a fresh spread
(`spread_rotation`), and `motion_mul` with Phase characters
(`phase_motion_mul`), and the selftest's random elements their AbElem
sums and Phase coefficients (`abelem_zero_sum_config`,
`phase_algebra_element`).  The integer constructors keep the lifts they
replaced: a character and a bilinear cocycle from Phases
(`phase_character`, `phase_bilinear`) and `AbHom`'s column test on group
elements (`elementwise_hom_matrix`); `config_total` folds a
configuration's values by AbElem additions.  The arithmetic the value
types no longer carry, since nothing in `tbshift` uses it, lives here:
the AbElem of a coordinate sequence (`element`), the sum and the negative
of AbElems (`element_sum`, `element_neg`), a finite group's AbElems in
`coordinates()` order (`elements`), the
generators (`generators`), the full dual in `dual_character` order
(`dual_characters`), a group's zero (`group_zero`), a homomorphism
applied to an element (`apply_hom`), an element's order (`element_order`), the unit and the
trace of the tensor square (`tensor_one`, `tensor_trace`) and sums and scalings of algebra elements
(`combination`); a character's value is `phase_character_value`.  A key
of the tensor square is the two-site configuration with g at ORIGIN and
h at E1, built by `tensor_key` from AbElems and read back by `legs`.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Optional

from tbshift.abelian import (
    AbElem,
    AbGroup,
    AbHom,
    Character,
    abstractly_isomorphic,
    dual_character,
    is_isomorphism,
)
from tbshift.algebra import AlgebraElement, TensorElement, _SwapKernel, malleability_unitary
from tbshift.classify import _pool_ranges
from tbshift.cocycle import BilinearCocycle, CocycleError, TableCocycle, star_bicharacter, trivial_cocycle
from tbshift.configs import Config
from tbshift.dynamics import Motion, Triplet, rho
from tbshift.lattice import E1, ORIGIN, AffineSL2, LatticePoint, det2, mat_apply, mat_mul, spiral_index
from tbshift.linalg import _eliminate, hermite_mod, identity_matrix, integer_kernel_basis, snf_diagonal
from tbshift.scalars import Cyclotomic, Phase
from tbshift.serialize import MAX_PHASE_EXPONENT, SchemaError
from tbshift.selftest import _random_bilinear, random_point

# -- the arithmetic the value types no longer carry -----------------------------


def elements(group: AbGroup) -> list:
    """The elements of a finite group as AbElems, in `coordinates()` order."""
    return [AbElem(group, g) for g in group.coordinates()]


def generators(group: AbGroup) -> list:
    """The generators e_j as AbElems: the rows of the identity matrix."""
    return [AbElem(group, tuple(row)) for row in identity_matrix(group.rank)]


def dual_characters(group: AbGroup) -> list:
    """All |H| characters of a finite group, in `dual_character` order."""
    return [dual_character(group, i) for i in range(group.order())]


def group_zero(group: AbGroup) -> AbElem:
    """The zero of the group."""
    return AbElem(group, (0,) * group.rank)


def element(group: AbGroup, coords) -> AbElem:
    """The element of group with the given coordinates, reduced."""
    return AbElem(group, group.reduce(coords))


def element_sum(g: AbElem, h: AbElem) -> AbElem:
    """g + h, for elements of one group."""
    if g.group != h.group:
        raise ValueError("elements live in different groups")
    return element(g.group, [a + b for a, b in zip(g.coords, h.coords)])


def element_neg(g: AbElem) -> AbElem:
    """-g."""
    return element(g.group, [-a for a in g.coords])


def apply_hom(f: AbHom, g: AbElem) -> AbElem:
    """f(g): f's matrix times g's coordinates, reduced in the target."""
    if g.group != f.source:
        raise ValueError("element is not in the source group")
    return element(f.target, [sum(map(mul, row, g.coords)) for row in f.matrix])


def element_order(g: AbElem) -> int:
    """Order of g; 0 means infinite."""
    group = g.group
    if any(g.coords[: group.free_rank]):
        return 0
    return lcm(*(n // gcd(n, c) for c, n in zip(g.coords[group.free_rank :], group.torsion)))


def tensor_key(g: AbElem, h: AbElem) -> Config:
    """The key of u_g (x) u_h: the configuration with g at ORIGIN and h at E1."""
    return Config.from_items(g.group, [(ORIGIN, g.coords), (E1, h.coords)])


def legs(key: Config) -> tuple:
    """(g, h) of the tensor key of u_g (x) u_h, zero for an empty site."""
    values = dict(config_items(key))
    if not values.keys() <= {ORIGIN, E1}:
        raise ValueError("not a tensor key: a site off the origin and e1")
    zero = group_zero(key.group)
    return values.get(ORIGIN, zero), values.get(E1, zero)


def tensor_one(mu) -> TensorElement:
    """The unit u_0 (x) u_0 of the tensor square."""
    zero = group_zero(mu.group)
    return TensorElement(mu, {tensor_key(zero, zero): Cyclotomic.ONE})


def tensor_trace(x: TensorElement) -> Cyclotomic:
    """The trace of an element of the tensor square: its coefficient at (0, 0)."""
    zero = group_zero(x.cocycle.group)
    return x.terms.get(tensor_key(zero, zero), Cyclotomic.ZERO)


def combination(*terms):
    """The formal sum of c x over the (c, x) pairs, elements of one class
    over one base and c an int, a Fraction or a Cyclotomic."""
    first = terms[0][1]
    out = {}
    for c, x in terms:
        if type(x) is not type(first) or x.cocycle != first.cocycle:
            raise ValueError("elements over different bases")
        for k, v in x.terms.items():
            v = v * c
            out[k] = out[k] + v if k in out else v
    return type(first)(first.cocycle, out)


# -- the elimination's full contract ------------------------------------------


def smith_normal_form(a: list) -> tuple:
    """Return (d, u, v) with u*a*v = d, u and v unimodular, d diagonal.

    d is in Smith normal form, as described in `linalg._eliminate`.
    Nothing in `tbshift` needs u: the tests read the full (d, u, v) to
    check the u*a*v = d contract of the one elimination.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = _eliminate(a, identity_matrix(m), identity_matrix(n))
    return [row[:n] for row in rows[:m]], [row[n:] for row in rows[:m]], rows[m:]


# -- the integer-kernel and Smith routes of the star map -----------------------


def kernel_radical_rows(lift: list, scale: int, group: AbGroup) -> list:
    """`hermite_mod` rows of the torsion radical {g : g^T A = 0 mod D} of (A, D).

    Its preimage is the g-part of the integer kernel of [A_t^T | D*I]
    (A_t: the torsion rows of A); `cocycle.star_blocks` reads it off one
    Hermite pass over the graph of the star map instead.
    """
    f, r = group.free_rank, group.rank
    system = [list(col[f:]) + [scale if i == j else 0 for i in range(r)]
              for j, col in enumerate(zip(*lift))]
    return hermite_mod([vec[:r - f] for vec in integer_kernel_basis(system)], group.torsion)


def kernel_degeneracy_witness(mu) -> Optional[tuple]:
    """`degeneracy_witness` with its torsion radical from `kernel_radical_rows`."""
    group, star, f = mu.group, star_bicharacter(mu), mu.group.free_rank
    if f:
        for vec in integer_kernel_basis([list(col) for col in zip(*star.ints)]):
            if any(vec[:f]):
                return group.reduce(vec)
    rows = kernel_radical_rows(star.ints, star.den, group)
    for k in reversed(range(group.rank - f)):
        if rows[k][k] < group.torsion[k]:
            return group.reduce([0] * f + rows[k])
    return None


def cokernel_invariants(group: AbGroup, star: list, chi: list, d: int) -> tuple:
    """`classify._invariants` by Smith forms: the 2r x r presentation of the
    cokernel of g -> s(g, -) into dual(H) (the scaled star rows over the
    n_k e_k), and H over the `kernel_radical_rows`."""
    moduli = group.torsion
    rows = kernel_radical_rows(star, d, group)
    cokernel = [[a * n // d for a, n in zip(row, moduli)] for row in star]
    cokernel += [[n if i == j else 0 for j in range(len(moduli))] for i, n in enumerate(moduli)]
    cocycle = tuple(tuple(x for x in snf_diagonal(m) if x != 1) for m in (cokernel, rows))
    on_radical = d // gcd(d, *(sum(map(mul, chi, row)) for row in rows))
    return cocycle, d // gcd(d, *chi), on_radical


def snf_invariant_factors(group: AbGroup) -> tuple:
    """`AbGroup.invariant_factors` as the Smith form of diag(torsion), ones dropped."""
    k = len(group.torsion)
    diag = [[group.torsion[i] if i == j else 0 for j in range(k)] for i in range(k)]
    return tuple(d for d in snf_diagonal(diag) if d != 1)


# -- the phase reader's Fraction route ------------------------------------------


def fraction_phase_from_json(text: str, path: str = "$") -> Phase:
    """`serialize.phase_from_json` on a string with every text read by
    `Fraction`, after the same exponent guard."""
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    try:
        if exponent and abs(int(exponent[1])) > MAX_PHASE_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_PHASE_EXPONENT}")
        return Phase.from_fraction(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad phase {text!r}: {exc}") from None


# -- the literal coboundary-witness solver ------------------------------------


def solve_congruence(a: list, rhs: list, modulus: int) -> Optional[list]:
    """One solution x of a*x == rhs (mod modulus), or None.

    One elimination of [a | rhs] over I_n gives u*a*v = d and u*rhs; the
    diagonal system d*z == u*rhs is solved entry by entry, and x = v*z.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = _eliminate(a, [[b] for b in rhs], identity_matrix(n))
    z = [0] * n
    for i in range(m):
        di = rows[i][i] if i < n else 0
        si = rows[i][n] % modulus
        if di == 0:
            if si != 0:
                return None
            continue
        g = gcd(di, modulus)
        if si % g != 0:
            return None
        red = modulus // g
        z[i] = (si // g) * pow(di // g, -1, red) % red if red > 1 else 0
    return [sum(x * y for x, y in zip(row, z)) % modulus for row in rows[m:]]


def literal_coboundary_witness(mu1, mu2) -> Optional[dict]:
    """`coboundary_witness` by solving its defining equations literally.

    The |H|(|H|-1)/2 x (|H|-1) system b(g) + b(h) - b(g+h) = nu(g, h) over
    the nonzero g <= h is solved over Z/M, for a modulus M large enough to
    carry any solution (the lcm of the value denominators times the group
    exponent).
    """
    group = mu1.group
    elems = elements(group)
    nonzero = elems[1:]
    index = {e: i for i, e in enumerate(nonzero)}

    def nu(g: AbElem, h: AbElem) -> Phase:
        return mu1(g.coords, h.coords) - mu2(g.coords, h.coords)

    for g, h in itertools.combinations(nonzero, 2):
        if nu(g, h) != nu(h, g):
            return None
    rows = []
    rhs_phases = []
    for a, g in enumerate(nonzero):
        for h in nonzero[a:]:
            row = [0] * len(nonzero)
            row[index[g]] += 1
            row[index[h]] += 1
            s = element_sum(g, h)
            if any(s.coords):
                row[index[s]] -= 1
            rows.append(row)
            rhs_phases.append(nu(g, h))
    modulus = lcm(*(p.den for p in rhs_phases)) * lcm(*group.torsion)
    rhs = [p.num * (modulus // p.den) for p in rhs_phases]
    solution = solve_congruence(rows, rhs, modulus)
    if solution is None:
        return None
    witness = {group_zero(group): Phase.ZERO}
    for e, i in index.items():
        witness[e] = Phase(solution[i], modulus)
    for g in elems:
        for h in elems:
            if witness[g] + witness[h] - witness[element_sum(g, h)] != nu(g, h):
                return None
    return witness


def phase_coboundary_witness(mu1, mu2) -> Optional[dict]:
    """`coboundary_witness`'s path recursion, walked and checked in Phases.

    nu = mu1 - mu2 is read value by value.  An asymmetric nu is refused
    before the walk; b(e_i) is S_i/n_i, S_i = sum_{k<n_i} nu(k*e_i, e_i)
    read in [0, 1); each other x takes b(x - e_i) + b(e_i) - nu(x - e_i,
    e_i), i the last nonzero coordinate of x; and the |H|^2 equations
    decide.
    """
    group = mu1.group
    elems = elements(group)

    def nu(g: AbElem, h: AbElem) -> Phase:
        return mu1(g.coords, h.coords) - mu2(g.coords, h.coords)

    for g, h in itertools.combinations(elems[1:], 2):
        if nu(g, h) != nu(h, g):
            return None
    gens = generators(group)
    step = []
    for e, n in zip(gens, group.torsion):
        s, x = Phase.ZERO, group_zero(group)
        for _ in range(n):
            s, x = s + nu(x, e), element_sum(x, e)
        step.append(Phase(s.num, s.den * n))
    witness = {elems[0]: Phase.ZERO}
    for x in elems[1:]:
        i = max(k for k, c in enumerate(x.coords) if c)
        y = element_sum(x, element_neg(gens[i]))
        witness[x] = witness[y] + step[i] - nu(y, gens[i])
    for g in elems:
        for h in elems:
            if witness[g] + witness[h] - witness[element_sum(g, h)] != nu(g, h):
                return None
    return witness


# -- cocycle tables by evaluation ---------------------------------------------


def table_from_function(group: AbGroup, fn) -> TableCocycle:
    """The table of fn on every pair of coordinate tuples."""
    elems = list(group.coordinates())
    return TableCocycle(group, {(g, h): fn(g, h) for g in elems for h in elems})


def to_table(mu) -> TableCocycle:
    return table_from_function(mu.group, mu)


def coboundary_cocycle(group: AbGroup, b: dict) -> TableCocycle:
    """The coboundary (g, h) -> b(g) + b(h) - b(g+h) of a phase map b on
    G's coordinate tuples."""

    def value(g: tuple, h: tuple) -> Phase:
        return b[g] + b[h] - b[group.reduce([x + y for x, y in zip(g, h)])]

    zero = (0,) * group.rank
    if b.get(zero) != Phase.ZERO:
        b = dict(b)
        b[zero] = Phase.ZERO
    return table_from_function(group, value)


def phase_witness_catalog(rng, count: int) -> list:
    """`selftest.witness_catalog` with the same draws, each table evaluated
    from mu and each coboundary entry added as a Phase."""
    shapes = [(2, 2), (4,), (3,), (3, 3), (2, 4), (5,), (2, 2, 2), (13,)]
    pairs = []
    while len(pairs) < count:
        group = AbGroup(0, rng.choice(shapes))
        base = _random_bilinear(rng, group)
        pick = rng.randrange(3)
        if pick == 0:
            other = base
        elif pick == 1:
            other = _random_bilinear(rng, group)
        else:
            other = trivial_cocycle(group)
        b = {g: Phase(rng.randrange(8), 8) if any(g) else Phase.ZERO
             for g in group.coordinates()}
        shifted, right = coboundary_cocycle(group, b), to_table(other)
        lifted = {key: right.entries[key] + shifted.entries[key] for key in right.entries}
        pairs.append((to_table(base), TableCocycle(group, lifted)))
    return pairs


# -- Phase validation of a table ------------------------------------------------


def phase_validate(table) -> None:
    """`TableCocycle.validate` read value by value: the missing-entry,
    normalization and generator-triple scans, in its loop order and with
    its messages, adding the Phases of the table's own `__call__`."""
    g_all = elements(table.group)
    for g in g_all:
        for h in g_all:
            if (g.coords, h.coords) not in table.entries:
                raise CocycleError("table", f"missing entry ({g.coords}, {h.coords})")
    zero = group_zero(table.group)
    for g in (x.coords for x in g_all):
        if table(g, zero.coords) != Phase.ZERO or table(zero.coords, g) != Phase.ZERO:
            raise CocycleError("normalization", f"value at ({g}, 0) is not 1")
    gens = generators(table.group)
    for g in g_all:
        for h in g_all:
            gh = table(g.coords, h.coords)
            for k in gens:
                if (gh + table(element_sum(g, h).coords, k.coords)
                        != table(h.coords, k.coords) + table(g.coords, element_sum(h, k).coords)):
                    raise CocycleError("cocycle-identity",
                                       f"fails at {(g.coords, h.coords, k.coords)}")


# -- the Phase lifts of the integer forms --------------------------------------


def phase_character(group: AbGroup, phases: Iterable[Phase]) -> Character:
    """The character with the given Phase on each generator, by the lift
    `Character` once made itself: one phase per generator, the row over D,
    the lcm of the denominators, and each torsion phase checked against its
    generator order (the message names the Phase) before
    `Character(group, ints, D)` is built."""
    phases = tuple(phases)
    if len(phases) != group.rank:
        raise ValueError("one phase per generator is required")
    den = lcm(*(p.den for p in phases))
    ints = tuple(p.num * (den // p.den) for p in phases)
    for j, (p, c) in enumerate(zip(phases, ints)):
        n = group.orders[j]
        if n and n * c % den:
            raise ValueError(f"phase {p} is not killed by the generator order {n}")
    return Character(group, ints, den)


def character_phases(chi: Character) -> tuple:
    """chi's Phase on each generator."""
    return tuple(Phase(c, chi.den) for c in chi.ints)


def phase_matrix(form) -> tuple:
    """The Phase matrix of a cocycle or star form: each int over its `den`."""
    return tuple(tuple(Phase(a, form.den) for a in row) for row in form.ints)


def phase_bilinear(group: AbGroup, matrix) -> BilinearCocycle:
    """The bilinear cocycle of a rank x rank Phase matrix, by the lift
    `BilinearCocycle` once made itself: the shape, the matrix over D, the
    lcm of the denominators, and each entry touching a torsion generator
    checked against its order, before `BilinearCocycle(group, ints, D)`."""
    r = group.rank
    rows = tuple(tuple(row) for row in matrix)
    if len(rows) != r or any(len(row) != r for row in rows):
        raise CocycleError("shape", f"matrix must be {r}x{r}")
    den = lcm(*(p.den for row in rows for p in row))
    ints = tuple(tuple(p.num * (den // p.den) for p in row) for row in rows)
    for i in range(r):
        for j in range(r):
            for n in (group.orders[i], group.orders[j]):
                if n and n * ints[i][j] % den:
                    raise CocycleError("torsion", f"entry ({i},{j}) not killed by order {n}")
    return BilinearCocycle(group, ints, den)


def elementwise_hom_matrix(source: AbGroup, target: AbGroup, matrix) -> tuple:
    """`AbHom`'s canonical matrix by the check it once made on group
    elements: the shape, the rows on torsion target coordinates reduced,
    and each torsion column, times its generator order, built as an AbElem
    and tested for zero, with `AbHom`'s messages."""
    rows = tuple(tuple(int(x) for x in row) for row in matrix)
    if len(rows) != target.rank or any(len(row) != source.rank for row in rows):
        raise ValueError("matrix shape does not match the groups")
    fixed = []
    for i, row in enumerate(rows):
        n = target.orders[i]
        fixed.append(tuple(x % n for x in row) if n else row)
    for j in range(source.rank):
        n = source.orders[j]
        if n and any(element(target, [n * row[j] for row in fixed]).coords):
            raise ValueError(f"generator {j} of order {n} maps to an incompatible element")
    return tuple(fixed)


# -- Phase evaluation of the forms -------------------------------------------


def phase_bilinear_value(form, g: tuple, h: tuple) -> Phase:
    """sum_ij g_i M_ij h_j over the Phase matrix M of a cocycle or star form
    (each entry its int over its `den`), widening one running denominator
    entry by entry."""
    num, den = 0, 1
    for i, gi in enumerate(g):
        if gi:
            row = phase_matrix(form)[i]
            for j, hj in enumerate(h):
                if hj:
                    p = row[j]
                    q = p.den
                    if den % q:  # widen den to lcm(den, q)
                        step = q // gcd(den, q)
                        num *= step
                        den *= step
                    num += gi * p.num * hj * (den // q)
    return Phase(num, den)


def phase_star_form(mu) -> tuple:
    """The star form (A, D) from the Phases mu(e_i, e_j) - mu(e_j, e_i),
    i < j: D is the lcm of their denominators, A_ij the phase times D and
    A_ji = -A_ij."""
    gens = generators(mu.group)
    star = [[mu(x.coords, y.coords) - mu(y.coords, x.coords) if i < j else Phase.ZERO
             for j, y in enumerate(gens)]
            for i, x in enumerate(gens)]
    den = lcm(*(p.den for row in star for p in row))
    up = [[p.num * (den // p.den) for p in row] for row in star]
    return tuple(tuple(x - y for x, y in zip(row, col)) for row, col in zip(up, zip(*up))), den


def phase_character_value(chi: Character, g: AbElem) -> Phase:
    """chi(g) as the Phase sum of g_j * chi(e_j), the generator values."""
    total = Phase.ZERO
    for c, p in zip(g.coords, character_phases(chi)):
        total = total + p * c
    return total


def cocycle_identity_failure(mu) -> Optional[tuple]:
    """The first (g, h, k), as coords, of all |H|^3 triples in elements()
    order at which mu(g, h) + mu(g + h, k) != mu(h, k) + mu(g, h + k), or
    None if mu is a 2-cocycle."""
    elems = elements(mu.group)
    for g, h, k in itertools.product(elems, repeat=3):
        gh, hk = element_sum(g, h), element_sum(h, k)
        if (mu(g.coords, h.coords) + mu(gh.coords, k.coords)
                != mu(h.coords, k.coords) + mu(g.coords, hk.coords)):
            return g.coords, h.coords, k.coords
    return None


def phase_conditions(ta: Triplet, tb: Triplet, phi: AbHom) -> tuple:
    """`check_conditions` read off the cocycles and characters themselves:
    mu(x, y) - mu(y, x) and 2 chi on the generators and their images."""
    gens = generators(ta.group)
    images = [apply_hom(phi, g) for g in gens]

    def star(mu, x, y):
        return mu(x.coords, y.coords) - mu(y.coords, x.coords)

    cocycle_ok = all(star(ta.cocycle, gi, gj) == star(tb.cocycle, fi, fj)
                     for gi, fi in zip(gens, images) for gj, fj in zip(gens, images))
    character_ok = all(2 * phase_character_value(ta.character, g)
                       == 2 * phase_character_value(tb.character, f) for g, f in zip(gens, images))
    return cocycle_ok, character_ok


# -- isomorphisms by enumeration ----------------------------------------------


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
    pools = [list(itertools.product(*ranges)) for ranges in _pool_ranges(source, target, bound)]
    for images in itertools.product(*pools):
        f = AbHom(source, target, tuple(zip(*images)))
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


# -- the flow -------------------------------------------------------------------


def flow_unitary(mu, t: Fraction) -> TensorElement:
    """W_t = P_1 + e^{i pi t} P_{-1} with P_{+-1} = (1 +- V/sqrt|H|)/2.

    So W_t = a + b V/sqrt|H| with a = (1 + e)/2 and b = (1 - e)/2, each
    built here by Cyclotomic sums from e = e^{i pi t}, independently of
    the kernel's closed form.
    """
    v = malleability_unitary(mu)
    e = Cyclotomic.from_phase(Phase.from_fraction(Fraction(t) / 2))
    a, b = (Cyclotomic.ONE + e) * Fraction(1, 2), (Cyclotomic.ONE - e) * Fraction(1, 2)
    return combination((a, tensor_one(mu)), (b * Fraction(1, isqrt(mu.group.order())), v))


def flip(x: TensorElement) -> TensorElement:
    """Swap the two legs of each key, keeping its coefficient."""
    return TensorElement(x.cocycle, {tensor_key(*legs(k)[::-1]): v for k, v in x.terms.items()})


def tensor_element(mu, terms: dict) -> TensorElement:
    """The TensorElement of the swap kernel's index form {i*n + j: c}."""
    elems = elements(mu.group)
    n = len(elems)
    return TensorElement(mu, {tensor_key(elems[k // n], elems[k % n]): c for k, c in terms.items()})


def apply_diagonal_character(c: Character, x: TensorElement) -> TensorElement:
    """Rotate each term u_g (x) u_h by c(g + h): c's int row against the raw
    coordinates of g and h, over c.den.  c kills the torsion orders, so the
    sum needs no reduction.  On the shift algebra the same action is
    `dynamics.rho` of the motion (c, identity)."""
    if not isinstance(x, TensorElement):
        raise TypeError("expected a TensorElement")
    row, den = c.ints, c.den
    out = {}
    for key, v in x.terms.items():
        g, h = legs(key)
        out[key] = v.rotated(sum(map(mul, row, g.coords)) + sum(map(mul, row, h.coords)), den)
    return TensorElement(x.cocycle, out)


def malleability_flow(mu, t: Fraction, x: TensorElement) -> TensorElement:
    """Ad W_t(x) at an integer t or at t = 1/2, the times the checks use.

    Any other t is refused with ValueError: the kernel has no flow there,
    and only `flow_unitary` would be left to compare with itself.  Then
    raises for an element over another base, and as `malleability_unitary`
    does, so at every time.  At t = 1/2 this is the swap kernel's `half`,
    which `algebra.check_malleability` runs; building the kernel costs
    |H|^2 table entries, so integer times are answered by relabelling
    here: x at even t, flip(x) at odd t.
    """
    t = Fraction(t)
    if t.denominator != 1 and t != Fraction(1, 2):
        raise ValueError(f"the flow is only computed at integer times and at 1/2, got {t}")
    if x.cocycle != mu:
        raise ValueError("element is not over the given base")
    malleability_unitary(mu)
    if t.denominator == 1:
        return flip(x) if t % 2 else x
    kernel = _SwapKernel(mu)
    return tensor_element(mu, kernel.half(kernel.index_form(x)))


def tensor_check_malleability(v: TensorElement, rng, samples: int) -> dict:
    """`algebra.check_malleability` on TensorElements: the generic star and
    product, units u_g (x) u_h of drawn group elements, the flows through
    `malleability_flow` and the characters through
    `apply_diagonal_character`, with the same draws from rng in the same
    order."""
    mu, group = v.cocycle, v.cocycle.group
    zero, half, one = group_zero(group), Fraction(1, 2), Cyclotomic.ONE
    checks = {
        "self_adjoint": v.star() == v,
        "square": v * v == combination((group.order(), tensor_one(mu))),
        "full_swap": all(
            malleability_flow(mu, 1, TensorElement(mu, {tensor_key(g, zero): one}))
            == TensorElement(mu, {tensor_key(zero, g): one})
            for g in elements(group)
        ),
    }
    ok_half, ok_char = True, True
    for _ in range(samples):
        g = element(group, [rng.randrange(m) for m in group.torsion])
        h = element(group, [rng.randrange(m) for m in group.torsion])
        x = TensorElement(mu, {tensor_key(g, h): one})
        once = malleability_flow(mu, half, x)
        if malleability_flow(mu, half, once) != malleability_flow(mu, 1, x):
            ok_half = False
        c = dual_character(group, rng.choice(range(group.order())))
        if apply_diagonal_character(c, once) != malleability_flow(
            mu, half, apply_diagonal_character(c, x)
        ):
            ok_char = False
    checks["half_composition"] = ok_half
    checks["character_commutation"] = ok_char
    return checks


# -- configurations and the intertwiner, Phase by Phase --------------------------


def config_items(cfg: Config) -> Iterator[tuple]:
    """(point, value) for each site of cfg, the value an AbElem."""
    return ((point, AbElem(cfg.group, coords)) for point, coords in cfg.support)


def config_total(cfg: Config) -> AbElem:
    """The sum in H of cfg's values, a fold of AbElem additions."""
    total = group_zero(cfg.group)
    for _, value in config_items(cfg):
        total = element_sum(total, value)
    return total


def folded_sum(c1: Config, c2: Config) -> Config:
    """c1 + c2 through `Config.from_items`: every site of both supports
    reduced again by `AbGroup.reduce`, coinciding sites added and reduced,
    zero sites dropped and the rest sorted."""
    return Config.from_items(c1.group, list(c1.support) + list(c2.support))


def folded_negation(cfg: Config) -> Config:
    """-cfg, each value negated as an AbElem."""
    return Config(cfg.group, tuple((p, element_neg(AbElem(cfg.group, c)).coords)
                                   for p, c in cfg.support))


def mapped(cfg: Config, f: AbHom) -> Config:
    """Apply a group hom to every value (the support does not move)."""
    return Config.from_items(f.target, ((p, apply_hom(f, v).coords) for p, v in config_items(cfg)))


def mu_tilde(mu, c1: Config, c2: Config) -> Phase:
    """`configs.mu_tilde` as a Phase sum of mu(c1(k), c2(k)) over the shared sites."""
    total = Phase.ZERO
    d2 = dict(c2.support)
    for p, v1 in config_items(c1):
        if p in d2:
            total = total + mu(v1.coords, d2[p])
    return total


def mu_hat(mu, lam: Config, order_key=spiral_index) -> Phase:
    """The ordered telescoping phase of a zero-sum configuration, Phase by
    Phase: mu(prefix, v) over its values in order_key order, the prefix
    their AbElem sum so far.  `configs.telescoped` is its int form."""
    if not lam.is_zero_sum:
        raise ValueError("telescoping phase needs a zero-sum configuration")
    total, prefix = Phase.ZERO, group_zero(lam.group)
    for _, value in sorted(config_items(lam), key=lambda item: order_key(item[0])):
        total = total + mu(prefix.coords, value.coords)
        prefix = element_sum(prefix, value)
    return total


def term_phase(pi, lam: Config, image: Config, order_key=spiral_index) -> Phase:
    """The phase of lam's term under pi, image being lam mapped through phi:
    mu^_a(lam) + the corrector - mu^_b(image), both telescoped in order_key
    order, the corrector summed site by site as weight(k) (chi_a(v) -
    chi_b(phi v))."""
    corrector = Phase.ZERO
    for point, value in config_items(lam):
        mismatch = (phase_character_value(pi.ta.character, value)
                    - phase_character_value(pi.tb.character, apply_hom(pi.phi, value)))
        corrector = corrector + mismatch * pi.weight(point)
    return (mu_hat(pi.ta.cocycle, lam, order_key) + corrector
            - mu_hat(pi.tb.cocycle, image, order_key))


def abelem_zero_sum_config(rng, group: AbGroup, radius: int = 2) -> Config:
    """`selftest.random_zero_sum_config` on group elements: the same draws,
    the last value minus the AbElem sum of the others."""
    points = []
    while len(points) < rng.randrange(1, 4):
        p = random_point(rng, radius)
        if p not in points:
            points.append(p)
    items = []
    total = group_zero(group)
    for p in points[:-1]:
        coords = [rng.randint(-2, 2) for _ in range(group.free_rank)]
        coords += [rng.randrange(n) for n in group.torsion]
        value = element(group, coords)
        items.append((p, value.coords))
        total = element_sum(total, value)
    items.append((points[-1], element_neg(total).coords))
    return Config.from_items(group, items)


def phase_algebra_element(rng, cocycle, terms: int = 2, radius: int = 2) -> AlgebraElement:
    """`selftest.random_algebra_element` with each coefficient the root of
    a Phase times a Fraction, added to ZERO, over `abelem_zero_sum_config`."""
    out: dict = {}
    for _ in range(terms):
        cfg = abelem_zero_sum_config(rng, cocycle.group, radius)
        coeff = Cyclotomic.from_phase(Phase(rng.randrange(12), 12)) * Fraction(rng.randint(1, 3))
        out[cfg] = out.get(cfg, Cyclotomic.ZERO) + coeff
    return AlgebraElement(cocycle, out)


def phase_pi(pi, x: AlgebraElement, order_key=spiral_index) -> AlgebraElement:
    """`PiPhi.__call__` Phase by Phase, with the sites in order_key order:
    each term's configuration `mapped` through phi, its phase by `term_phase`."""
    out: dict = {}
    for lam, coeff in x.terms.items():
        key = mapped(lam, pi.phi)
        term = coeff * Cyclotomic.from_phase(term_phase(pi, lam, key, order_key))
        out[key] = out[key] + term if key in out else term
    return AlgebraElement(pi.tb.cocycle, out)


# -- the dual action ----------------------------------------------------------


def separating_characters(group: AbGroup, values: Iterable[AbElem]) -> list:
    """A finite character family that separates the given elements from 0.

    One character per generator (`rank` of them, not |H|): phase 1/n_j on
    a torsion generator of order n_j, and on a free generator a phase of
    order exceeding twice the largest coordinate magnitude that occurs,
    so no occurring nonzero value can be missed.
    """
    biggest = 1
    for v in values:
        for c in v.coords[: group.free_rank]:
            biggest = max(biggest, abs(c))
    modulus = 2 * biggest + 1
    family = []
    for j in range(group.rank):
        n = group.orders[j] or modulus
        phases = [Phase.ZERO] * group.rank
        phases[j] = Phase(1, n)
        family.append(phase_character(group, phases))
    return family


def is_dual_fixed(t: Triplet, x: AlgebraElement) -> bool:
    """True iff x is fixed by the whole diagonal dual action, each
    character c acting as `rho` of the motion (c, identity).

    A finite separating family suffices, because only finitely many
    values appear in a finite sum.
    """
    values = [value for cfg in x.terms for _, value in config_items(cfg)]
    for c in separating_characters(t.group, values):
        if rho(t, Motion(c), x) != x:
            return False
    return True


# -- triplets -------------------------------------------------------------------


def det_form_cocycle(theta: Phase, group: AbGroup | None = None) -> BilinearCocycle:
    """mu(g, h) = theta * det(g, h) on a rank-2 group (Z^2 by default)."""
    group = group or AbGroup(2)
    if group.rank != 2:
        raise ValueError("the det form needs a rank-2 group")
    z = Phase.ZERO
    return phase_bilinear(group, ((z, theta), (-theta, z)))


def lattice_det_triplet(theta: Phase, character: Character | None = None) -> Triplet:
    group = AbGroup(2)
    return Triplet(group, det_form_cocycle(theta, group), character or Character.trivial(group))


def product_triplet(*parts: Triplet) -> Triplet:
    """Direct sum of base groups with block cocycle and concatenated character."""
    if not parts:
        raise ValueError("need at least one factor")
    if not all(isinstance(t.cocycle, BilinearCocycle) for t in parts):
        raise ValueError("block products are built from bilinear cocycles")
    if not all(t.group.is_finite for t in parts):
        raise ValueError("block products are built from finite groups")
    group = AbGroup(0, sum((t.group.torsion for t in parts), ()))
    z = Phase.ZERO
    rank = group.rank
    matrix = [[z] * rank for _ in range(rank)]
    phases = []
    offset = 0
    for t in parts:
        r = t.group.rank
        gens = generators(t.group)
        for i in range(r):
            for j in range(r):
                matrix[offset + i][offset + j] = t.cocycle(gens[i].coords, gens[j].coords)
        phases.extend(character_phases(t.character))
        offset += r
    return Triplet(group, phase_bilinear(group, matrix), phase_character(group, phases))


def trivial_triplet(group: AbGroup) -> Triplet:
    return Triplet(group, trivial_cocycle(group), Character.trivial(group))


# -- Cyclotomic products and rotations through a rebase ------------------------


def _wrapped(order: int, coeffs: Iterable[tuple], den: int) -> Cyclotomic:
    """sum c z^k / den over the (k, c), z = zeta_order, each power taken
    mod order (z^order = 1) and the sum built by the public constructor."""
    out = [0] * order
    for k, c in coeffs:
        out[k % order] += c
    return Cyclotomic(order, out, den)


def rebased_product(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    """a * b with both factors rebased to Q(zeta_m), m the lcm of the
    orders, before one convolution of their phi(m) coefficients."""
    m = lcm(a.order, b.order)
    ra, rb = a.rebase(m), b.rebase(m)
    return _wrapped(m, ((i + j, x * y) for i, x in enumerate(ra.ints)
                        for j, y in enumerate(rb.ints)), ra.den * rb.den)


def spread_rotation(x: Cyclotomic, k: int, n: int) -> Cyclotomic:
    """x * zeta_n^k with k/n reduced: x spread into Q(zeta_m), m =
    lcm(order, n'), and shifted by k' m / n', a new Cyclotomic even when
    the root is 1."""
    g = gcd(k, n)
    k, n = k // g, n // g
    m = lcm(x.order, n)
    step, shift = m // x.order, k * (m // n)
    return _wrapped(m, ((i * step + shift, c) for i, c in enumerate(x.ints)), x.den)


# -- motions, character by character --------------------------------------------


def phase_motion_mul(t: Triplet, a: Motion, b: Motion) -> Motion:
    """`dynamics.motion_mul` with the characters composed Phase by Phase,
    c1 + c2 + det(k, g1 l) chi on each generator, and the moves by their
    translations and matrices."""
    (k, g1), (l, g2) = (a.move.translation, a.move.matrix), (b.move.translation, b.move.matrix)
    moved = mat_apply(g1, l)
    e = det2(k, moved)
    char = phase_character(a.char.group, tuple(p + q + r * e for p, q, r in zip(
        character_phases(a.char), character_phases(b.char), character_phases(t.character))))
    return Motion(char, AffineSL2(k + moved, mat_mul(g1, g2)))


# -- lattice moves --------------------------------------------------------------


def act(move: AffineSL2, k: LatticePoint) -> LatticePoint:
    """The image translation + matrix*k of a lattice point."""
    return move.translation + mat_apply(move.matrix, k)


def inverse(move: AffineSL2) -> AffineSL2:
    (x, y), (z, w) = move.matrix
    inv = ((w, -y), (-z, x))
    q, r = mat_apply(inv, move.translation)
    return AffineSL2(LatticePoint(-q, -r), inv)


def moved_by(cfg: Config, move: AffineSL2) -> Config:
    """Relocate the support: the value at k moves to move(k).

    move is a bijection of Z^2, so distinct points stay distinct and the
    values need no reduction or merging, only a re-sort of the support.
    """
    return Config(cfg.group, tuple(sorted((act(move, p), c) for p, c in cfg.support)))


def row_major_key(point: LatticePoint) -> tuple:
    """Enumeration by row, then column: an order_key other than the spiral."""
    return (point.r, point.q)


def spiral_walk() -> Iterator[LatticePoint]:
    """The spiral enumeration of Z^2 walked edge by edge: ring R goes up the
    east edge from (R, 1-R), then west along the north edge, down the west
    edge and east along the south edge, with no `spiral_index` read."""
    yield ORIGIN
    for ring in itertools.count(1):
        for r in range(1 - ring, ring + 1):
            yield LatticePoint(ring, r)
        for q in range(ring - 1, -ring - 1, -1):
            yield LatticePoint(q, ring)
        for r in range(ring - 1, -ring - 1, -1):
            yield LatticePoint(-ring, r)
        for q in range(1 - ring, ring + 1):
            yield LatticePoint(q, -ring)
