"""Numerical toolkit for double-phase Musielak-Orlicz analysis.

Areas: generalized Phi-functions over exponent fields (``phi_core``), grid
modulars and Luxemburg norms (``modular``), the Sobolev conjugate with
inequality verification (``conjugate``), dilation scaling experiments
(``embedding_lab``), level-set truncation iteration (``degiorgi``), a
desk-scale double-phase solver (``solver``) and a file-driven command line
(``cli``).
"""

from .errors import (
    ContractError,
    ConvergenceError,
    DomainError,
    GridMismatchError,
    HypothesisError,
    SingularityError,
    ToolkitError,
)
from .phi_core import (
    CriticalExponents,
    ExponentField,
    PhiSpec,
    ValidationReport,
    critical_exponents,
    eval_phi,
    phi_inverse,
    validate_hypotheses,
)
from .modular import (
    GridDomain,
    GridFunction,
    NormResult,
    boundary_modular,
    boundary_norm,
    luxemburg_norm,
    modular_rho,
    modular_sobolev,
    sobolev_norm,
)
from .conjugate import (
    BoundReport,
    ConjugateTable,
    build_conjugate_table,
    conjugate,
    conjugate_batch,
    conjugate_inverse,
    conjugate_inverse_batch,
    tabulate_bounds,
    verify_conjugate_bounds,
    verify_trace_bound,
)
from .embedding_lab import (
    EmbeddingSides,
    OptimalityResult,
    ScalingExperiment,
    SlopeFit,
    bump_function,
    embedding_sides,
    exponent_scan,
    optimality_check,
    run_scaling_experiment,
    scale_function,
)
from .degiorgi import (
    BoundConstants,
    IterationEnergy,
    IterationReport,
    LevelSet,
    RecursionParams,
    RecursionTrace,
    bound_estimate,
    empirical_iteration,
    entry_condition,
    iterate_recursion,
    kappa_sequence,
    kappa_star_admissible,
    kappa_star_dirichlet,
    level_set,
    recursion_thresholds,
    truncation_energy,
    two_sided_bound,
)
from .solver import (
    ConvergenceReport,
    ProblemSpec,
    energy,
    energy_gradient,
    solve,
    weak_residual,
)

__version__ = "0.1.0"
