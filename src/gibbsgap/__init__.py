"""Spectral-gap bounds and Wasserstein contraction rates for the Gibbs
samplers of three Bayesian random-effects models."""

# Defined before the submodules load: data_io records it in every sidecar.
__version__ = "0.1.0"

from .model_core import (
    DataSummary,
    Hyperparams,
    Shrinkage,
    summarize,
)
from .simple_gibbs import SimpleModelTraceChain
from .spectral_estimator import (
    Ar1TraceChain,
    GapEstimate,
    Status,
    ar1_oracle_exact,
    estimate,
    estimate_scan,
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
