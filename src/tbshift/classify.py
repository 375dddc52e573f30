"""Conjugacy decisions, the explicit intertwiner, and centralizers.

Whether two triplets (H, mu, chi) give conjugate shift actions reduces to
group data: an isomorphism phi with (i) equal star bicharacters after
pullback and (ii) equal squared characters after pullback.  Given such a
phi, an explicit basis-to-basis intertwiner is built and can be verified
directly (multiplicativity, star, equivariance); it maps each term on
integer rows, its phase one int over one denominator.  The centralizer of
one action is the automorphism group cut out by the same two conditions.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterator, List, Optional, Sequence

from .abelian import (
    AbGroup,
    AbHom,
    Character,
    StructureReport,
    abstractly_isomorphic,
    group_structure,
    is_isomorphism,
    lazy_product,
)
from .algebra import AlgebraElement
from .cocycle import star_bicharacter, star_blocks
from .configs import Config, telescoped
from .dynamics import Triplet, VerifyReport, beta
from .lattice import (
    DELTA,
    E1,
    E2,
    ETA,
    IDENTITY_MAT,
    XI,
    AffineSL2,
    LatticePoint,
    gcd2,
    spiral_index,
)
from .linalg import hermite_mod, order_mod, snf_diagonal
from .scalars import Immutable


def check_conditions(ta: Triplet, tb: Triplet, phi: AbHom) -> tuple:
    """(cocycle condition, character condition) for a candidate isomorphism.

    Reads the `_integer_forms` as the search does, on the columns x_j of
    phi (the images of the generators): the cocycle condition is
    x_i^T A_b x_j = A_a[i][j] mod D for every generator pair (enough, by
    bilinearity), the character condition c_b . x_j = c_a[j] mod D.
    """
    if phi.source != ta.group or phi.target != tb.group:
        raise ValueError("phi does not map between the triplets' groups")
    if not is_isomorphism(phi):
        raise ValueError("phi is not an isomorphism")
    d, (star_a, chi_a), (star_b, chi_b) = _integer_forms(ta, tb)
    images = list(zip(*phi.matrix))
    pairings = [[sum(map(mul, x, col)) for col in zip(*star_b)] for x in images]
    cocycle_ok = all((sum(map(mul, u, y)) - a) % d == 0
                     for u, row in zip(pairings, star_a) for y, a in zip(images, row))
    character_ok = all((sum(map(mul, chi_b, x)) - c) % d == 0 for x, c in zip(images, chi_a))
    return cocycle_ok, character_ok


class PiPhi(Immutable):
    """The basis intertwiner induced by phi.

    Sends the normalized basis unitary of a zero-sum configuration lam to
    the corrector times the normalized unitary of phi o lam, where the
    corrector is the +-1 character mismatch c(h) = chi_a(h) - chi_b(phi h)
    accumulated over the support with gcd(k) exponents.  The mismatch is
    one character, built with pi from its values on the generators (chi_b's
    int row against each column of phi).  A term's values are mapped
    through phi's matrix and reduced once, inline, by the target's
    `orders`; the points stay, so the image is already sorted and builds
    the key Config directly.  The term's phase, mu^_a(lam) plus the
    corrector minus mu^_b(phi lam), is one int over D = lcm(mu_a.den,
    mu_b.den, c.den): each site's `spiral_index` is computed once, the
    decorated sites are sorted once for both `telescoped` sums, and the
    corrector is c's int row against the weighted raw values (0, and no
    weight read, for a trivial c).  The term pays it by one rotation.

    `__init__` builds `mismatch` and keeps in `_constants` what every
    call reads: D, the three scales to it, c's int row (empty for a
    trivial c) and the (row, order) pairs of phi's matrix and the target;
    `weight` and the module's `spiral_index` are read on each call.
    Neither `mismatch` nor `_constants` is a field.
    """

    __slots__ = ("ta", "tb", "phi", "weight", "mismatch", "_constants")
    _fields = ("ta", "tb", "phi", "weight")

    def __init__(self, ta: Triplet, tb: Triplet, phi: AbHom,
                 weight: Callable[[LatticePoint], int] = gcd2) -> None:
        object.__setattr__(self, "ta", ta)
        object.__setattr__(self, "tb", tb)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "weight", weight)
        chi_a, chi_b = ta.character, tb.character
        if phi.source != chi_a.group or phi.target != chi_b.group:
            raise ValueError("phi does not map between the triplets' groups")
        d = lcm(chi_a.den, chi_b.den)
        sa, sb = d // chi_a.den, d // chi_b.den
        c = Character(chi_a.group, tuple(a * sa - sum(map(mul, chi_b.ints, x)) * sb
                                         for a, x in zip(chi_a.ints, zip(*phi.matrix))), d)
        object.__setattr__(self, "mismatch", c)
        d = lcm(ta.cocycle.den, tb.cocycle.den, c.den)
        # in lowest terms a trivial c has den 1 and ints all 0
        object.__setattr__(self, "_constants", (
            d, d // ta.cocycle.den, d // tb.cocycle.den, d // c.den, c.ints if c.den > 1 else (),
            tuple(zip(phi.matrix, phi.target.orders))))

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        mu_a, mu_b = self.ta.cocycle, self.tb.cocycle
        if x.cocycle != mu_a:
            raise ValueError("element is not over the source triplet")
        if not x.is_zero_sum_supported:
            raise ValueError("the intertwiner acts on zero-sum-supported elements")
        d, scale_a, scale_b, scale_c, row, rows = self._constants
        weight, target = self.weight, self.phi.target
        out: dict = {}
        for lam, coeff in x.terms.items():
            image = []
            sites = []
            for p, v in lam.support:
                w = tuple([sum(map(mul, r, v)) % n if n else sum(map(mul, r, v))
                           for r, n in rows])
                if any(w):
                    image.append((p, w))
                sites.append((spiral_index(p), v, w))
            sites.sort()
            num = (scale_a * telescoped(mu_a, [site[1] for site in sites])
                   - scale_b * telescoped(mu_b, [site[2] for site in sites]))
            if row:
                num += scale_c * sum([weight(p) * sum(map(mul, row, v)) for p, v in lam.support])
            key = Config(target, tuple(image))
            term = coeff.rotated(num, d)
            out[key] = out[key] + term if key in out else term
        return AlgebraElement(mu_b, out)


def build_pi(ta: Triplet, tb: Triplet, phi: AbHom) -> PiPhi:
    cocycle_ok, character_ok = check_conditions(ta, tb, phi)
    if not (cocycle_ok and character_ok):
        raise ValueError(
            f"conditions fail for phi: cocycle={cocycle_ok} character={character_ok}"
        )
    return PiPhi(ta, tb, phi)


CANONICAL_MOVES = (
    AffineSL2(E1, IDENTITY_MAT),
    AffineSL2(E2, IDENTITY_MAT),
    DELTA,
    XI,
    ETA,
)


def verify_pi(pi: PiPhi, pairs: Sequence[tuple]) -> VerifyReport:
    """Exact checks that pi intertwines: products, star, trace, and
    equivariance under each of `CANONICAL_MOVES`, read at call time.

    pi(a) and pi(b) are computed once per pair and shared by every check;
    the checks and the order of the failures are those of one check at a
    time.
    """
    failures = []
    for a, b in pairs:
        product = pi(a * b)
        pa = pi(a)
        if product != pa * pi(b):
            failures.append(("product", a, b))
        if pi(a.star()) != pa.star():
            failures.append(("star", a))
        if pa.trace() != a.trace():
            failures.append(("trace", a))
        for move in CANONICAL_MOVES:
            if pi(beta(pi.ta, move, a)) != beta(pi.tb, move, pa):
                failures.append(("equivariance", move, a))
    return VerifyReport(failures)


class ConjugacyReport(Immutable):
    # verdict: YES | NO | UNKNOWN;
    # decided_by: groups | invariants | search | lattice | bounded-search
    __slots__ = ("verdict", "witness", "checks", "complete", "note", "decided_by")

    def __init__(self, verdict: str, witness: Optional[AbHom], checks: dict, complete: bool,
                 note: str = "", decided_by: str = "") -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "decided_by", decided_by)


def _integer_forms(ta: Triplet, tb: Triplet) -> tuple:
    """(D, (A_a, c_a), (A_b, c_b)): both star forms and both chi^2 over one D.

    On raw coordinates, s(x, y) = x^T A y / D and chi^2(x) = c . x / D, D
    the lcm of the forms' and characters' `den` and c = 2 `ints` in [0, D),
    so equal chi^2 give equal c; the rest reads mod D or scale-invariants.
    A cocycle shared by both sides, as in a centralizer, is read once.
    """
    sa = star_bicharacter(ta.cocycle)
    sb = sa if tb.cocycle is ta.cocycle else star_bicharacter(tb.cocycle)
    ca, cb = ta.character, tb.character
    d = lcm(sa.den, sb.den, ca.den, cb.den)

    def lift(star, chi: Character) -> tuple:
        scale, twice = d // star.den, 2 * d // chi.den
        return [[a * scale for a in row] for row in star.ints], [twice * c % d for c in chi.ints]

    return d, lift(sa, ca), lift(sb, cb)


def _invariants(group: AbGroup, star: list, chi: list, d: int) -> tuple:
    """(cocycle, character, joint) isomorphism invariants of one finite side.

    An isomorphism meeting the cocycle condition maps the image I of
    g -> s(g, -) in dual(H) onto image and the radical R onto radical, so
    it keeps the invariant factors of dual(H)/I (the map's cokernel, dual
    to R as I is R's annihilator) and of H/R.  Each is `snf_diagonal` of
    an r x r block of `star_blocks`: its rows span the preimage of I (of
    R) in Z^r, every n_k e_k among it, so Z^r over them is dual(H)/I
    (H/R).  One meeting the character condition keeps the order of
    chi^2; one meeting both, that of chi^2 on R.
    """
    image, radical = star_blocks(star, d, group)
    cocycle = tuple(tuple(x for x in snf_diagonal(rows) if x != 1) for rows in (image, radical))
    on_radical = d // gcd(d, *(sum(map(mul, chi, row)) for row in radical))
    return cocycle, d // gcd(d, *chi), on_radical


MAX_CANDIDATES = 2**26
"""Most candidate images one walk of each of the search's pools may draw,
counted from the `_pool_ranges` before the search runs; larger searches
are UNKNOWN.  Memory is not bounded by it: the ranges are walked without
being copied, but the pools of depth >= 1 keep every candidate that
passes the chi^2 test."""


def _pool_ranges(ga: AbGroup, gb: AbGroup, bound: Optional[int]) -> list:
    """For each generator g_j of H_a, the coordinate ranges whose product
    is its pool: the x in H_b with ord(g_j)*x = 0 (order 0 for a free g_j).

    A torsion coordinate of order n needs n | ord(g_j)*c, so c runs over
    the gcd(ord(g_j), n) multiples of n/gcd(ord(g_j), n); a free one runs
    over [-bound, bound] for a free g_j, which needs a bound, and is 0
    otherwise.
    """
    out = []
    for j in range(ga.rank):
        order = ga.orders[j]
        free = range(-bound, bound + 1) if order == 0 else range(1)
        out.append([free] * gb.free_rank + [range(0, n, n // gcd(order, n)) for n in gb.torsion])
    return out


def _unsearchable(ga: AbGroup, gb: AbGroup, bound: Optional[int]) -> str:
    """Why the isomorphism search H_a -> H_b cannot run, or '' if it can:
    free parts and no bound, or pools of over MAX_CANDIDATES candidates in
    all, counted from the `_pool_ranges` without walking them."""
    if not ga.is_finite and bound is None:
        return "free parts present and no search bound given"
    size = sum(prod((r.stop - r.start) // r.step for r in ranges)
               for ranges in _pool_ranges(ga, gb, bound))
    if size <= MAX_CANDIDATES:
        return ""
    return (f"the isomorphism search would build {size} candidate images, "
            f"more than its limit of {MAX_CANDIDATES}")


def _matching_isomorphisms(
    ga: AbGroup, gb: AbGroup, forms: tuple, bound: Optional[int] = None
) -> Iterator[AbHom]:
    """Every isomorphism ga -> gb meeting both conditions of `forms`, lazily.

    forms is (D, (A_a, c_a), (A_b, c_b)), as `_integer_forms` lifts two
    triplets: the search reads nothing else of them.  It backtracks over
    generator images as raw coordinates, comparing their dot products
    with those integer rows mod D; no Phase is built before a hit.  The
    pool of generator g_j holds the x in the product of its
    `_pool_ranges` with chi_b^2(x) = chi_a^2(g_j).  It is drawn lazily:
    the first node at depth j keeps each candidate as it draws it, and
    later nodes re-read what is kept before drawing more, so a YES at the
    first candidates draws no whole pool.  Depth 0 is walked once and
    keeps nothing.  A candidate x_j must first meet sb(x_i, x_j) =
    sa(g_i, g_j) for every earlier i; the star forms are alternating, so
    these pairs settle all of them.  These dot products are cheaper than
    the span cut, which runs last: between finite groups x_j must add a
    direct summand of order ord(g_j) to the span of the earlier images,
    held as `hermite_mod` rows, `order_mod(x_j, span)` = ord(g_j), as on
    each prefix of an injective map.  The span cut is exact: a full tuple
    spans a subgroup of order |H_a| = |H_b| (callers check the groups are
    isomorphic), so only the bounded free-part search checks its tuples
    with `is_isomorphism`.  The tests commute and each pool is walked in
    product order, so the hits come out in the lexicographic order of the
    product of the pools.  `bound` limits the free matrix entries and is
    required when free parts are present.
    """
    d, (star_a, chi_a), (star_b, chi_b) = forms
    cols_b = list(zip(*star_b))
    ranges = _pool_ranges(ga, gb, bound)
    finite = ga.is_finite and gb.is_finite
    moduli = gb.torsion
    chosen: List[tuple] = []
    pairings: List[list] = []  # x_i^T A_b for each chosen x_i
    kept: List[list] = [[] for _ in range(ga.rank)]
    sources: list = [None] * ga.rank

    def pool(j: int) -> Iterator[tuple]:
        yield from kept[j]
        if sources[j] is None:
            sources[j] = (x for x in lazy_product(ranges[j])
                          if (sum(map(mul, chi_b, x)) - chi_a[j]) % d == 0)
        for x in sources[j]:
            if j:
                kept[j].append(x)
            yield x

    def extend(j: int, span: list) -> Iterator[AbHom]:
        if j == ga.rank:
            f = AbHom(ga, gb, tuple(zip(*chosen)))
            if finite or is_isomorphism(f):
                yield f
            return
        order = ga.orders[j]
        wanted = [star_a[i][j] for i in range(j)]
        for x in pool(j):
            if not all((sum(map(mul, u, x)) - w) % d == 0 for u, w in zip(pairings, wanted)):
                continue
            if finite and order_mod(x, span, moduli) != order:
                continue
            chosen.append(x)
            pairings.append([sum(map(mul, x, col)) for col in cols_b])
            if finite and j + 1 < ga.rank:
                yield from extend(j + 1, hermite_mod(span + [x], moduli))
            else:
                yield from extend(j + 1, span)
            chosen.pop()
            pairings.pop()

    return extend(0, hermite_mod([], moduli) if finite else [])


def decide_conjugacy(ta: Triplet, tb: Triplet, bound: Optional[int] = None) -> ConjugacyReport:
    """Decide conjugacy of the two shift actions at the triplet level.

    Both sides' star forms and chi^2 are lifted once, by `_integer_forms`.
    On H = Z^2 the star form of any 2-cocycle is v * det, v = A[0][1]
    mod D, and pullback through phi scales it by det(phi) = +-1.  So the
    answer is NO when v_b is not +-v_a, and YES by the identity (equal v
    and chi^2) or by diag(1, -1) (v_b = -v_a, both chi^2 zero).  Finite
    groups are decided completely.  The `_invariants` of the two sides
    come first: the invariant factors of the star radical R and of H/R
    for the cocycle condition, the order of chi^2 for the character
    condition, and for both together also the order of chi^2 on R.  Any
    isomorphism meeting a condition keeps its invariants, so where they
    differ the condition fails and no search runs for it.  Otherwise the
    pruned isomorphism search runs on the integer forms: the witness is
    its first hit, and a NO reports whether each condition alone can be
    met (the same search with the other datum zero on both sides).  Any
    other group with a free part, and a Z^2 pair the closed form leaves
    open, falls back to the same search over matrices with free entries
    bounded by `bound`.  A search `_unsearchable` refuses does not run:
    the answer is UNKNOWN, or a NO by invariants whose open checks are None.
    """
    ga, gb = ta.group, tb.group
    if not abstractly_isomorphic(ga, gb):
        return ConjugacyReport("NO", None, {"cocycle": False, "character": False}, True,
                               "groups are not isomorphic", "groups")
    forms = d, (star_a, chi_a), (star_b, chi_b) = _integer_forms(ta, tb)
    if ga == AbGroup(2):
        va, vb = star_a[0][1] % d, star_b[0][1] % d
        if va != vb and (va + vb) % d:
            return ConjugacyReport(
                "NO", None, {"cocycle": False, "character": False}, True,
                "star values differ by more than a sign", "lattice",
            )
        if va == vb and chi_a == chi_b:
            return ConjugacyReport("YES", AbHom.identity(ga), {"cocycle": True, "character": True},
                                   True, decided_by="lattice")
        if (va + vb) % d == 0 and not any(chi_a) and not any(chi_b):
            return ConjugacyReport("YES", AbHom(ga, gb, ((1, 0), (0, -1))),
                                   {"cocycle": True, "character": True}, True,
                                   decided_by="lattice")

    finite = ga.is_finite
    inv_a = inv_b = (None,) * 3
    if finite:
        inv_a, inv_b = _invariants(ga, star_a, chi_a, d), _invariants(gb, star_b, chi_b, d)
    how = "invariants" if inv_a != inv_b else "search" if finite else "bounded-search"
    refusal = _unsearchable(ga, gb, bound)
    if refusal and how != "invariants":
        return ConjugacyReport("UNKNOWN", None, {"cocycle": False, "character": False}, False,
                               refusal, how)
    if how != "invariants":
        phi = next(_matching_isomorphisms(ga, gb, forms, bound), None)
        if phi is not None:
            return ConjugacyReport("YES", phi, {"cocycle": True, "character": True}, finite,
                                   decided_by=how)

    def found(a: tuple, b: tuple) -> Optional[bool]:
        if refusal:
            return None
        return next(_matching_isomorphisms(ga, gb, (d, a, b), bound), None) is not None

    none_a, none_b = [0] * ga.rank, [0] * gb.rank
    checks = {
        "cocycle": inv_a[0] == inv_b[0] and found((star_a, none_a), (star_b, none_b)),
        "character": inv_a[1] == inv_b[1] and found(([none_a] * ga.rank, chi_a),
                                                    ([none_b] * gb.rank, chi_b)),
    }
    if finite:
        return ConjugacyReport("NO", None, checks, True, refusal, how)
    return ConjugacyReport("UNKNOWN", None, checks, False,
                           f"no witness with entries bounded by {bound}", how)


class CentralizerReport(Immutable):
    # verdict: OK | UNKNOWN | INFINITE
    __slots__ = ("verdict", "elements", "structure", "complete", "note")

    def __init__(self, verdict: str, elements: tuple, structure: Optional[StructureReport],
                 complete: bool, note: str = "") -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "note", note)


def centralizer(t: Triplet, bound: Optional[int] = None) -> CentralizerReport:
    """Automorphisms of H preserving the star bicharacter and squared character.

    The star form and chi^2 are lifted once, by `_integer_forms`, and every
    search below runs on that lift.  On H = Z^2 with chi^2 zero the
    centralizer is provably infinite: the star form of any 2-cocycle there
    is v * det, so all of SL(2,Z) keeps it, and all of GL(2,Z) when 2v = 0
    (det -1 negates v).  Else a search `_unsearchable` refuses is UNKNOWN.
    Finite groups: every hit of the pruned isomorphism search from H to
    itself, which is complete.  Otherwise the same search with free
    entries bounded by `bound`, explicitly incomplete.
    """
    group = t.group
    forms = d, (star, chi), _ = _integer_forms(t, t)
    if group == AbGroup(2) and not any(chi):
        family = "GL(2,Z)" if 2 * star[0][1] % d == 0 else "SL(2,Z)"
        return CentralizerReport(
            "INFINITE", (), None, True,
            f"every automorphism in {family} preserves the data",
        )
    refusal = _unsearchable(group, group, bound)
    if refusal:
        return CentralizerReport("UNKNOWN", (), None, False, refusal)
    found = tuple(_matching_isomorphisms(group, group, forms, bound))
    if group.is_finite:
        structure = group_structure(found, AbHom.compose)
        return CentralizerReport("OK", found, structure, True)
    return CentralizerReport(
        "OK", found, None, False, f"bounded search with entries up to {bound}"
    )
