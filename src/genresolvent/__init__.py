"""Generalized inverses and explicit generalized resolvents of matrix pencils.

The library constructs generalized inverses of complex matrices (Moore-
Penrose or determined by a choice of complements), builds the explicit
resolvent family G(lam) = tplus (I - lam s tplus)^-1 of a pencil
lam -> t - lam*s, verifies the resolvent axioms, and decides existence via
transversality, direct sums, fixed complements, continuity, and rank
constancy. The ``genresolvent`` CLI exposes the same analyses on JSON
matrix files.
"""

__version__ = "0.1.0"

from .criteria import (
    InvertibilityReport,
    MPResolventReport,
    RankConstancyReport,
    SpectrumScan,
    finite_rank_criterion,
    generalized_spectrum_scan,
    invertibility_corollary,
    mp_resolvent_characterization,
    rectangular_region,
)
from .errors import (
    FactorizationError,
    GenResolventError,
    InvalidComplementError,
    InvalidFamilyError,
    InvalidInverseError,
    MatrixFileError,
    OutOfRadiusError,
    PerturbationTooLargeError,
    ShapeMismatchError,
    SingularSystemError,
)
from .geninv import (
    ComplementPair,
    GenInverse,
    InverseKind,
    InverseVerdict,
    MPAxiomReport,
    complements_of,
    geninv_from_complements,
    mp_inverse,
    pinv_matrix,
    user_supplied,
    verify_gen_inverse,
    verify_mp_axioms,
)
from .linalg import (
    DEFAULT_TOL,
    Factor,
    SubspaceBasis,
    TolerancePolicy,
    as_matrix,
    factor,
    full_subspace,
    numerical_rank,
    op_norm2,
    rank_and_marginal,
    relative_residual,
    solve,
    solve_right,
    svd,
    zero_subspace,
)
from .matio import load_matrix, matrix_payload, save_matrix, scan_csv
from .perturbation import (
    EquivalenceReport,
    PerturbationResult,
    equivalence_check,
    perturbed_inverse,
    smallness_of,
    transversal,
)
from .resolvent import (
    RADIUS_CAP,
    ContinuityReport,
    DirectSumReport,
    DiskGrid,
    ExistenceCertificate,
    Pencil,
    ProjectorPair,
    RankProfile,
    ResolventAxiomReport,
    ResolventFamily,
    build_family,
    check_resolvent_axioms,
    continuity_check,
    default_grid,
    direct_sum_criteria,
    evaluate,
    existence_check,
    fixed_complements_check,
    projector_family,
)
