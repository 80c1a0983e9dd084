"""Perturbation analysis of unit spherical Euclidean distance matrices.

Given a matrix of squared interpoint distances realizable on a unit
sphere and an off-diagonal position (k, l), the package computes how far
that single entry can move while the matrix stays a distance matrix, the
subrange keeping the circumradius at most one, the perturbations keeping
it exactly one, and the closed-form radius function, each cross-checked
against independent eigenvalue and bisection oracles.
"""

from .errors import (
    DegenerateDenominator,
    EdmpError,
    Infeasible,
    InfeasibleSpec,
    NotAnEdm,
    NotUnitSpherical,
    NumericalFailure,
    OutsideTleq,
    ParseError,
    PoleAt,
    PreconditionViolated,
)
from .linalg import (
    DEFAULT_TOL,
    EigDecomp,
    TolerancePolicy,
    nullspace_basis,
    pinv,
    rank_of,
    sym_eig,
)
from .model import (
    DistanceMatrix,
    EdmProfile,
    bdag_identity,
    bprime_dag_identity,
    cm_dag_block,
    is_edm,
    profile,
)
from .yielding import (
    EntryIndex,
    Interval,
    ParallelKind,
    ParallelRelation,
    YieldingReport,
    parallel_relation,
    theta_bounds,
    theta_c,
    yielding_report,
)
from .perturbation import (
    CaseTag,
    PerturbationReport,
    RadiusCoefficients,
    TeqKind,
    TeqSet,
    TleqSet,
    classify,
    radius_squared,
)
from .cayley import (
    CayleyMengerView,
    cm_build,
    cm_embedding_dim,
    cm_gale,
    cm_is_edm,
    cm_radius_sq,
    cm_w_inner,
)
from .oracle import (
    InstanceSpec,
    Structure,
    SweepRecord,
    edm_from_points,
    gen_nonspherical,
    gen_unit_spherical,
    membership_scan,
    radius_sq_direct,
    sdp_min_radius_sq,
)
from .verify import run_verification

__version__ = "0.1.0"
