"""Spectral-gap bounds and Wasserstein contraction rates for the Gibbs
samplers of three Bayesian random-effects models."""

from .model_core import (
    DataSummary,
    Hyperparams,
    Shrinkage,
    ThetaStats,
    summarize,
)
from .simple_gibbs import (
    AuxSample,
    MuA,
    SimpleModelTraceChain,
    draw_muA_given_theta,
    draw_theta_full,
    draw_theta_stats,
    draw_trace_sample,
    gibbs_step,
    log_weight,
)
from .spectral_estimator import (
    Ar1TraceChain,
    GapEstimate,
    Status,
    ar1_oracle_exact,
    estimate,
    u_from_s,
)
from .replicate_chains import (
    ContractionReport,
    beta_map,
    contraction_check,
    estimate_cx,
    eta_map,
    gamma_flat,
    gamma_shrink,
    wasserstein_bound,
)
from .data_io import (
    ResultRecord,
    SimConfig,
    read_dataset,
    simulate,
    synthetic_summary,
    write_results,
)

__version__ = "0.1.0"
