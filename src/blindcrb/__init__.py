"""Cramer-Rao bounds and subspace estimation for blind channel
identification in redundant block transmission systems.

The package splits into the system model (model), generic complex-parameter
CRB machinery (crb_core), the blind-estimation bound with its direct and
fast routes (crb_blind), a noise-subspace channel estimator (estimator),
and a reproducible Monte Carlo harness with CSV output (harness). The cli
module provides the command-line front end.
"""

from .errors import (
    ExclusionBudgetExceeded,
    IllConditioned,
    InsufficientData,
    NumericalError,
    RankDeficient,
    SolverDegenerate,
    ZeroAnchorTap,
)
from .model import (
    Channel,
    Precoder,
    SymbolFrame,
    SystemConfig,
    build_inner_precoder,
    build_K,
    build_redundancy,
    generate_symbols,
    loglik_gradients,
    make_precoder,
    synthesize_observation,
)
from .crb_core import (
    crb_constrained,
    crb_unconstrained,
    fix_column_phases,
    orthonormal_nullspace,
    schur_cov_bound,
)
from .crb_blind import (
    CrbResult,
    FimBlocks,
    crb_direct,
    crb_fast,
    crb_zp_per_block,
    default_anchor,
    fim_blocks,
)
from .estimator import (
    EstimatorSettings,
    resolve_ambiguity,
    subspace_estimate,
)
from .harness import (
    CSV_HEADER,
    ExperimentPlan,
    ResultRecord,
    draw_channel,
    format_csv,
    run_experiment,
    sigma2_from_snr_db,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "Channel",
    "CrbResult",
    "EstimatorSettings",
    "ExclusionBudgetExceeded",
    "ExperimentPlan",
    "FimBlocks",
    "IllConditioned",
    "InsufficientData",
    "NumericalError",
    "Precoder",
    "RankDeficient",
    "ResultRecord",
    "SolverDegenerate",
    "SymbolFrame",
    "SystemConfig",
    "ZeroAnchorTap",
    "build_K",
    "build_inner_precoder",
    "build_redundancy",
    "crb_constrained",
    "crb_direct",
    "crb_fast",
    "crb_unconstrained",
    "crb_zp_per_block",
    "default_anchor",
    "draw_channel",
    "fim_blocks",
    "fix_column_phases",
    "format_csv",
    "generate_symbols",
    "loglik_gradients",
    "make_precoder",
    "orthonormal_nullspace",
    "resolve_ambiguity",
    "run_experiment",
    "schur_cov_bound",
    "sigma2_from_snr_db",
    "subspace_estimate",
    "synthesize_observation",
    "write_csv",
]
