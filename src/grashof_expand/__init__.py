"""Steady states of the rescaled 2D periodic Navier-Stokes equations over
Grashof sweeps, and intrinsic asymptotic expansions of the solution sequence
in nested fractional Sobolev spaces."""

from .expansion import (
    ExpansionResult,
    ExpansionTerm,
    NestedScale,
    NotConvergentError,
    SequenceData,
    constant_scale,
    default_scale_2dp,
    extract_strict,
    load_expansion,
    refine_unitary,
    remainder_ratios,
    restructure,
    save_expansion,
    uniqueness_check,
    verify_expansion,
)
from .fixtures import (
    Example45Config,
    FixtureIntegrityError,
    example314,
    example314_degenerate_expansion,
    example314_unitary_expansion,
    example314_window,
    example45,
    example45_window,
)
from .orders import (
    ClassificationBlockedError,
    ClassificationReport,
    InconsistentRelationsError,
    OrderRelation,
    PositiveSequence,
    build_S,
    chi_trichotomy,
    classify,
    compare,
    total_comparability,
)
from .spectral import (
    MalformedFieldError,
    SpectralField,
    apply_fractional,
    bilinear_b,
    bilinear_bs,
    eigen_rows,
    eigenfunction,
    eigenfunctions,
    eigenvalue,
    inner_ds,
    inner_h,
    leray_project,
    lin_comb,
    norm_ds,
    project_trunc,
    random_divfree,
    zero_field,
)
from .steady import (
    ContinuationError,
    SolveReport,
    SteadyProblem,
    manufactured_force,
    residual,
    solve_steady,
    sweep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
