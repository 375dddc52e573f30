"""Exact algebra for twisted Bernoulli shift data.

Triplets (H, mu, chi) -- a countable abelian group, a normalized scalar
2-cocycle and a character -- determine a lattice shift action on a twisted
group algebra.  This package does every computation about them exactly:
cocycle cohomology, conjugacy of the actions, centralizers, factoriality
of the base algebra, and the malleability flow on the tensor square at
the two times its checks use, t = 1/2 and t = 1.
"""

from .abelian import (
    AbElem,
    AbGroup,
    AbHom,
    Character,
    StructureReport,
    abstractly_isomorphic,
    dual_character,
    group_structure,
    is_isomorphism,
)
from .algebra import (
    AlgebraElement,
    TensorElement,
    malleability_unitary,
)
from .classify import (
    CentralizerReport,
    ConjugacyReport,
    PiPhi,
    build_pi,
    centralizer,
    check_conditions,
    decide_conjugacy,
    verify_pi,
)
from .cocycle import (
    Bicharacter,
    BilinearCocycle,
    CocycleError,
    TableCocycle,
    coboundary_witness,
    cohomologous,
    degeneracy_witness,
    star_bicharacter,
    trivial_cocycle,
)
from .configs import Config, dipole, mu_tilde, telescoped
from .dynamics import (
    Motion,
    Triplet,
    VerifyReport,
    beta,
    mod_q_character,
    mod_q_cocycle,
    mod_q_group,
    mod_q_triplet,
    motion_mul,
    rho,
    verify_motion_relations,
    weak_mixing_witness,
)
from .lattice import (
    DELTA,
    E1,
    E2,
    ETA,
    ORIGIN,
    XI,
    AffineSL2,
    LatticePoint,
    det2,
    gcd2,
    spiral_index,
    spiral_points,
)
from .scalars import Cyclotomic, Phase

__version__ = "0.1.0"
