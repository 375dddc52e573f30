"""Ready-made triplets: the mod-q square family."""

from __future__ import annotations

from .abelian import AbGroup, Character
from .cocycle import BilinearCocycle
from .dynamics import Triplet


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
