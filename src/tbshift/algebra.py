"""Exact twisted group-algebra arithmetic.

The shift algebra has basis unitaries u(k), k a configuration, with
u(k1) u(k2) = e^{2 pi i mu~(k1, k2)} u(k1 + k2), mu~ the sitewise pairing
`configs.mu_tilde`.  As mu~ is sitewise, the tensor square C_mu[H] (x)
C_mu[H] that carries the malleability flow is the subalgebra on the two
sites ORIGIN and E1: u_g (x) u_h is u of the configuration with g at
ORIGIN and h at E1.  AlgebraElement holds the one product loop, adjoint
and trace; TensorElement is that class under its own name, never equal
to an AlgebraElement, so instrumentation can tell the two products apart.
An element, a frozen `scalars.Immutable`, holds its terms {k: c(k)} with
zero coefficients pruned, so the base's equality over (cocycle, terms) is
structural; repr, copies and pickles are the base's, and the hash refuses
the terms dict.  No path adds or scales elements.  A twist (a diagonal
character's value on a key, `dynamics.rho`) is one int over one den, paid
by one `Cyclotomic.rotated`, the coefficient itself at a whole turn.

The malleability flow on the tensor square needs one product per flow,
y V with the swap unitary V on the right.  A private swap kernel
(_SwapKernel), built once per check from the cocycle, runs the check on
its integer index form {i*n + j: c}, the terms c u(g_i, g_j) numbered as
`group.coordinates()` is, n = |H|: V is converted once, and no group element
or TensorElement is built after that.  The checks run the flow at two
times only: at t = 1 it relabels the legs, and at t = 1/2 it is one
integer accumulation, Ad W's coefficients 1/2 and +-i/2 folded into the
pair loop over the group's addition table and the cocycle's own integer
twist table (`exponent_table`), with int rotations in place of Cyclotomic
products; each output coefficient is made once by `Cyclotomic(order,
ints, den)`.  `flow_order` bounds the flow to a finite H with |H| <=
MAX_FLOW_ORDER before anything of size |H| is built, and raises
FlowRefused otherwise.  `check_malleability` runs the kernel's checks for
the `malleability` command and the selftest.
"""

from __future__ import annotations

import random
from math import isqrt, lcm
from typing import Dict

from .abelian import Character, dual_character
from .cocycle import degeneracy_witness
from .configs import Config, mu_tilde
from .lattice import E1, ORIGIN
from .scalars import Cyclotomic, Immutable


class AlgebraElement(Immutable):
    """The frozen value sum_k c(k) u(k) of the shift algebra over a cocycle base.

    `__init__` checks each key's group and prunes zeros, for any caller.
    The four builders of the package, the product, the adjoint,
    `dynamics._moved` (rho and beta) and `classify.PiPhi.__call__`, make
    their keys over the cocycle's group and prune only where terms merged,
    so they hand their fresh dict to `adopt`, never another element's."""

    __slots__ = ("cocycle", "terms")

    def __init__(self, cocycle, terms: Dict[Config, Cyclotomic]):
        """Keeps the nonzero terms, after refusing (ValueError) a key over
        another group than the cocycle's, in one loop over the terms."""
        group = cocycle.group
        kept = {}
        for k, v in terms.items():
            if k.group != group:
                raise ValueError("configuration over another group than the cocycle's")
            if any(v.ints):
                kept[k] = v
        object.__setattr__(self, "cocycle", cocycle)
        object.__setattr__(self, "terms", kept)

    @staticmethod
    def unit(cocycle, config: Config) -> "AlgebraElement":
        return AlgebraElement(cocycle, {config: Cyclotomic.ONE})

    def _check(self, other) -> None:
        if self.cocycle != other.cocycle:
            raise ValueError("elements over different bases")

    @classmethod
    def adopt(cls, cocycle, terms: Dict[Config, Cyclotomic]) -> "AlgebraElement":
        """The element holding `terms` itself, with no check and no copy:
        trusted, for the four builders only, each on the dict it has just
        made, keys over `cocycle.group` and coefficients nonzero."""
        x = object.__new__(cls)
        object.__setattr__(x, "cocycle", cocycle)
        object.__setattr__(x, "terms", terms)
        return x

    def __mul__(self, other):
        """Each term pair stores its product once; only when two pairs merge
        onto one key can a sum cancel, so only then are zeros dropped."""
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        mu = self.cocycle
        out: Dict[Config, Cyclotomic] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                # u(k1) u(k2) = mu~(k1, k2) u(k1 + k2); mu_tilde is read per
                # call, so instrumentation's rebinding of it reaches this loop
                key = k1 + k2
                coeff = (v1 * v2).rotated(mu_tilde(mu, k1, k2), mu.den)
                # a merge shows in the size, whatever objects the products are
                size = len(out)
                prev = out.setdefault(key, coeff)
                if len(out) == size:
                    out[key] = prev + coeff
        if len(out) < len(self.terms) * len(other.terms):
            out = {k: v for k, v in out.items() if any(v.ints)}
        return type(self).adopt(mu, out)

    def star(self):
        """Adjoint: u(k)* = conj(mu~(k, -k)) u(-k), coefficients conjugated;
        negation is a bijection, so keys stay apart."""
        mu = self.cocycle
        out: Dict[Config, Cyclotomic] = {}
        for k, v in self.terms.items():
            nk = -k
            out[nk] = v.conjugate(-mu_tilde(mu, k, nk), mu.den)
        return type(self).adopt(mu, out)

    @property
    def is_zero_sum_supported(self) -> bool:
        return all(k.is_zero_sum for k in self.terms)

    def trace(self) -> Cyclotomic:
        """Coefficient at the empty configuration."""
        return self.terms.get(Config(self.cocycle.group, ()), Cyclotomic.ZERO)


class TensorElement(AlgebraElement):
    """Finite formal sum of c(g, h) u_g (x) u_h, each key the configuration
    with g at ORIGIN and h at E1 (an empty site is zero)."""

    __slots__ = ()
    # bound again so that this class's own __dict__ holds them and
    # per-class instrumentation can replace them
    __mul__ = AlgebraElement.__mul__
    star = AlgebraElement.star


MAX_FLOW_ORDER = 1024
"""Largest |H| the flow is run on: (Z/32)^2.  The swap unitary has |H|
terms and the kernel's tables |H|^2 entries, so larger groups are refused
before any of them is built."""


class FlowRefused(ValueError):
    """The flow is not run on this group: it is infinite, or above MAX_FLOW_ORDER."""


def flow_order(group) -> int:
    """|H|, after refusing an infinite group, then one above MAX_FLOW_ORDER."""
    if not group.is_finite:
        raise FlowRefused("the flow is only constructed for finite groups")
    n = group.order()
    if n > MAX_FLOW_ORDER:
        raise FlowRefused(f"the flow is only run for |H| <= {MAX_FLOW_ORDER}, got {n}")
    return n


def malleability_unitary(mu) -> TensorElement:
    """The scaled symmetric unitary V = sum_h u_h (x) u_h^*.

    u_h^* is zeta_N^(-mu(h, -h)) u_{-h}, N = `mu.den`: V's key at h has h
    at ORIGIN and -h at E1, both read on coordinates.  This V is built
    without the swap kernel's tables, so `check_malleability` squares it
    against them.  V is |H|^(1/2) times the unit-normalized element, an
    integer scaling that avoids the square root in the scalar field.
    Raises FlowRefused for an infinite group, then for |H| >
    MAX_FLOW_ORDER, then a plain ValueError for a degenerate cocycle.  A
    finite H with a nondegenerate alternating (star) form is K x K (Wall,
    1963), so |H| is then a square and the flow exact.
    """
    group = mu.group
    flow_order(group)
    witness = degeneracy_witness(mu)
    if witness is not None:
        raise ValueError(
            f"cocycle is degenerate: {witness} pairs trivially with everything"
        )
    torsion, one, den = group.torsion, Cyclotomic.ONE, mu.den
    v = {}
    for h in group.coordinates():
        nh = tuple([-c % m for c, m in zip(h, torsion)])
        key = Config(group, ((ORIGIN, h), (E1, nh)) if any(h) else ())
        v[key] = one.rotated(-mu.exponent(h, nh), den)
    return TensorElement(mu, v)


def _lift(c: Cyclotomic, order: int, den: int) -> list:
    """The nonzero terms of c as (exponent of zeta_order, numerator over den)."""
    sc, sd = order // c.order, den // c.den
    return [(k * sc, a * sd) for k, a in enumerate(c.ints) if a]


class _SwapKernel:
    """Right multiplication by the swap unitary V, the flow at t = 1/2 and
    t = 1, the adjoint and a diagonal character, on the index form.

    Built once per cocycle and shared by every flow of one check.  An
    element is the dict {i*n + j: c} of its terms c u(g_i, g_j), g_i the
    i-th of group.coordinates() and n = |H|; `index_form` converts a
    TensorElement.  It reads H and N = `mu.den` off `mu`, keeping no copy, and
    their tables by those numbers: the number of g + h (`addition_table()`)
    and mu(g, h) as an exponent of zeta_N (`exponent_table()`).
    V's coefficient at u_h (x) u_{-h} is zeta_N^(-mu(h, -h)).
    Coefficients are int vectors in the power basis of Q(zeta_L) over one
    denominator, L a multiple of N and of every coefficient order, and a
    term pair costs lookups and one rotation.  `times_v` and `half` share
    the one pair loop `_accumulate`, which reduces each output coefficient
    mod Phi_L once.  mu must pass the checks of `malleability_unitary`,
    which make sqrt|H| an int.
    """

    def __init__(self, mu):
        group = mu.group
        self.mu = mu
        n = self.n = flow_order(group)
        self.scale = isqrt(n)
        self.index = {coords: i for i, coords in enumerate(group.coordinates())}
        add = self.add = group.addition_table()
        twist = self.twist = mu.exponent_table()
        # -h read off the zero in row h of the addition table
        neg = self.neg = [row.index(0) for row in add]
        # V = sum_h zeta_N^(-mu(h, -h)) u_h (x) u_-h as (h, -h, exponent)
        self.v = [(h, nh, -twist[h][nh]) for h, nh in enumerate(neg)]

    def index_form(self, x: TensorElement) -> dict:
        """{i*n + j: c} for each term c u(g_i, g_j) of x, g_i read at ORIGIN
        and g_j at E1 (zero for an empty site); any other site is refused."""
        if x.cocycle != self.mu:
            raise ValueError("element is not over the kernel's base")
        index, n, zero = self.index, self.n, (0,) * self.mu.group.rank
        out = {}
        for key, c in x.terms.items():
            g = h = zero
            for point, coords in key.support:
                if point == ORIGIN:
                    g = coords
                elif point == E1:
                    h = coords
                else:
                    raise ValueError(f"{key} has a site off the origin and e1")
            out[index[g] * n + index[h]] = c
        return out

    def star(self, x: dict) -> dict:
        """Adjoint: u(i, j)* = zeta_N^-(mu(i, -i) + mu(j, -j)) u(-i, -j),
        coefficients conjugated; negation is a bijection, so keys stay apart."""
        n, neg, twist, den = self.n, self.neg, self.twist, self.mu.den
        out = {}
        for key, c in x.items():
            i, j = divmod(key, n)
            ni, nj = neg[i], neg[j]
            out[ni * n + nj] = c.conjugate(-twist[i][ni] - twist[j][nj], den)
        return out

    def diagonal(self, c: Character, x: dict) -> dict:
        """Rotate each term u(g_i, g_j) by c(g_i + g_j), c(g_i) being one int
        over c.den per number i (`AbGroup.values`).  On the shift algebra
        the same action is `dynamics.rho` of the motion (c, identity)."""
        turns = self.mu.group.values(c.ints, c.den)
        n, den = self.n, c.den
        return {key: v.rotated(turns[key // n] + turns[key % n], den) for key, v in x.items()}

    def _accumulate(self, jobs: list, order: int, den: int) -> dict:
        """The sum over jobs (i, j, cs, w) of (sum_{(p, a) in cs} a zeta^p) u(i, j) w.

        w is V as (k, -k, exponent) triples, or the unit u(0, 0) as the
        one triple (0, 0, 0): u(i, j) u(0, 0) = u(i, j), mu being
        normalized, so a plain term is rotated by 0.  The numerators of cs
        are over den and its exponents of zeta_order.  Each output key
        gets one int vector mod x^order - 1, which the Cyclotomic
        constructor reduces mod Phi_order once; zeros are dropped.
        """
        n = self.n
        add, twist, step = self.add, self.twist, order // self.mu.den
        acc: Dict[int, list] = {}
        for i, j, cs, w in jobs:
            add_i, add_j, tw_i, tw_j = add[i], add[j], twist[i], twist[j]
            for k, nk, ev in w:
                # u(i, j) u(k, -k) = zeta^(mu(i, k) + mu(j, -k)) u(i + k, j - k)
                key = add_i[k] * n + add_j[nk]
                vec = acc.get(key)
                if vec is None:
                    vec = acc[key] = [0] * order
                e = (tw_i[k] + tw_j[nk] + ev) * step
                for p, a in cs:
                    vec[(p + e) % order] += a
        out = {}
        for key, vec in acc.items():
            c = Cyclotomic(order, vec, den)
            if any(c.ints):
                out[key] = c
        return out

    def times_v(self, y: dict) -> dict:
        """y V, equal to the generic TensorElement product."""
        order = lcm(self.mu.den, *{c.order for c in y.values()})
        den = lcm(*{c.den for c in y.values()})
        n, v = self.n, self.v
        return self._accumulate(
            [(*divmod(key, n), _lift(c, order, den), v) for key, c in y.items()], order, den)

    def flip(self, x: dict) -> dict:
        """The flow at t = 1: each term c u(i, j) moved to (j, i)."""
        n = self.n
        return {key % n * n + key // n: c for key, c in x.items()}

    def half(self, x: dict) -> dict:
        """Ad W(x) = (x + flip(x))/2 + i (x - flip(x)) S/2, the flow at t = 1/2.

        W = (1 + i)/2 + (1 - i)/2 S, S = V/sqrt|H| the self-adjoint unitary
        with S x = flip(x) S, so both cross terms share one product with S on
        the right: O(|x| |H|) term pairs against O(|x| |H|^2) for the oracle
        W x W^*.  Over 2 sqrt|H| times x's denominator, a term c u(i, j) puts
        c sqrt|H| at (i, j) and at (j, i), and sends i c through V from (i, j)
        and -i c from (j, i).
        """
        order = lcm(self.mu.den, 4, *{c.order for c in x.values()})
        xden = lcm(*{c.den for c in x.values()})
        n, s, quarter, one, v = self.n, self.scale, order // 4, [(0, 0, 0)], self.v
        jobs = []
        for key, c in x.items():
            i, j = divmod(key, n)
            cs = _lift(c, order, xden)
            plain, turned = [(p, a * s) for p, a in cs], [(p + quarter, a) for p, a in cs]
            jobs += [(i, j, plain, one), (j, i, plain, one), (i, j, turned, v),
                     (j, i, [(p, -a) for p, a in turned], v)]
        return self._accumulate(jobs, order, 2 * s * xden)


def check_malleability(v: TensorElement, rng: random.Random, samples: int) -> dict:
    """Checks of the swap unitary v and of the flow on its tensor square.

    v is self-adjoint with v^2 = |H|, the flow at t = 1 is the flip, and on
    `samples` basis elements drawn from rng the flows at t = 1/2 compose to
    t = 1 and commute with a random diagonal character (g's coordinates drawn,
    then h's, keyed by their numbers; the character's number in the listed dual).
    One swap kernel built from v's cocycle runs it all on its index form,
    into which v is converted once; the square is v times the kernel's own
    table-built V.  The flow at t = 1 is the relabelling `flip`; the tests
    hold `half` against W x W^* and y V against the generic product.
    """
    group = v.cocycle.group
    kernel = _SwapKernel(v.cocycle)
    n, index, torsion, one = kernel.n, kernel.index, group.torsion, Cyclotomic.ONE
    w = kernel.index_form(v)
    checks = {
        "self_adjoint": kernel.star(w) == w,
        "square": kernel.times_v(w) == {0: Cyclotomic(1, (n,), 1)},
        "full_swap": all(kernel.flip({g * n: one}) == {g: one} for g in range(n)),
    }
    ok_half, ok_char = True, True
    for _ in range(samples):
        g, h = (tuple([rng.randrange(m) for m in torsion]) for _ in range(2))
        x = {index[g] * n + index[h]: one}
        once = kernel.half(x)
        if kernel.half(once) != kernel.flip(x):
            ok_half = False
        c = dual_character(group, rng.randrange(n))
        if kernel.diagonal(c, once) != kernel.half(kernel.diagonal(c, x)):
            ok_char = False
    checks["half_composition"] = ok_half
    checks["character_commutation"] = ok_char
    return checks
