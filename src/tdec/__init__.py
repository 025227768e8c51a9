"""Rank-one decomposition of partially symmetric tensors.

Build the truncated moment functional of a multi-graded tensor, complete it
to a finite-rank form by quasi-Hankel flat extension, and read the
decomposition off joint eigenvectors of the multiplication operators.
"""

from .algebra import (
    Monomial,
    MomentFunctional,
    Point,
    Polynomial,
    Shape,
)
from .decompose import (
    DecomposeOptions,
    Decomposition,
    DecompositionError,
    RankBounds,
    decompose,
    expected_rank,
    hosvd_reduce,
    kruskal_bound,
    map_back,
    multilinear_rank,
    rank_bounds,
    rank_lower_bound,
    rank_upper_bound,
    reconstruct,
    verify,
)
from .eigen import (
    RootSet,
    joint_eigenvectors,
    read_coordinates,
    recover_missing_coordinates,
    solve_weights,
)
from .extension import (
    ExtensionResult,
    commutator_residual,
    flat_extension_check,
    propagate_commutation,
)
from .moment import (
    MonomialBasis,
    build_moment_functional,
    enumerate_monomials,
    hankel,
    select_bases_candidates,
)

__version__ = "0.1.0"
