"""Exact computational homological algebra over k[x]/(x^m).

Modules over the truncated polynomial algebra form a finite abelian
category in which every object has an injective resolution by free
modules.  This package computes right derived functors of Hom(A, -)
there with exact rational arithmetic, constructs the comparison and
dimension-shifting isomorphisms H^n(F J) ~ R^n F(M), and verifies as
literal matrix identities that the two differ by the triangular sign
(-1)^((n^2 + n) / 2).
"""

from .linalg import (
    NoSolution,
    Rat,
    RationalMatrix,
    Subspace,
    QuotientPresentation,
    VerificationFailure,
    induced_map,
    inverse,
    kernel_basis,
    quotient,
    rank,
    solve_matrix,
)
from .modules import (
    FunctorSpec,
    HomBasis,
    LambdaModule,
    ModuleMap,
    SesModules,
    TruncatedAlgebra,
    apply_F_map,
    apply_F_object,
    canonical_form,
    check_left_exactness,
    cokernel_module,
    compose,
    cyclic_module,
    direct_sum,
    embed_into_injective,
    extend_along_mono,
    free_module,
    hom_basis,
    identity_map,
    image_factorization,
    is_injective,
    kernel_module,
    simple_module,
)
from .complexes import (
    ChainMap,
    CohomologyPresentation,
    ModuleComplex,
    NotHomotopic,
    SesOfComplexes,
    VectorComplex,
    apply_F_chain_map,
    apply_F_complex,
    apply_F_ses,
    cohomology,
    find_homotopy,
    homotopy_defect,
    induced_on_cohomology,
    snake_delta_matrix,
)
from .resolutions import (
    Resolution,
    ResolutionRegistry,
    ResolutionSplitting,
    TwistedSum,
    cylinder_resolution,
    horseshoe,
    injective_resolution,
    is_F_acyclic,
    lift_resolution_map,
    split_resolution,
)
from .derived import (
    ConnectingSquareReport,
    DegreeZeroConnecting,
    DerivedFunctorValue,
    SignReport,
    StepSignReport,
    chase_connecting,
    comparison_iso,
    derived_connecting,
    derived_connecting_deg0,
    derived_functor,
    dimension_shift_iso,
    sign_factor,
    verify_connecting_square,
    verify_shift_step_sign,
    verify_sign_identity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
