"""Joint uncertainty quantification for cross-validated model comparison.

Tools to compare many fitted models on equal footing: V-fold
cross-validated risks, plug-in covariance estimates across models,
Gaussian max-statistic quantiles, simultaneous confidence bands, and
two flavours of model confidence sets.  A stability laboratory probes
replace-one-sample sensitivity of learners, and a small experiment
harness drives seeded synthetic campaigns from config files.
"""

__version__ = "0.1.0"

from .datamodel import (
    Dataset,
    FoldPlan,
    LossMatrix,
    LearnerSpec,
    FittedModel,
    make_folds,
    save_dataset_csv,
)
from .cv_engine import FoldFits, RiskVector, fit_all_folds, loss_matrix, cv_risk
from .covariance import CovEstimate, aggregate_covariance, standardized_correlation
from .gaussian_mc import max_quantiles
from .inference import (
    BandSet,
    CriticalValues,
    ModelConfidenceSet,
    critical_values,
    simultaneous_band,
    pointwise_band,
    naive_set,
    cvc_set,
    check_coverage,
)
from .simgen import SparseLinearGen, gen_sparse_linear, derive_substream
from .det_variance import (
    HoldoutSet,
    PhiEstimate,
    phi_pair,
    phi_perturb,
    default_holdout_size,
)
from .stability_lab import (
    StabilityReport,
    param_first_diff,
    param_second_diff,
    sgd_campaigns,
)
from .cli_harness import ExperimentConfig, load_config

__all__ = [
    "Dataset",
    "FoldPlan",
    "LossMatrix",
    "LearnerSpec",
    "FittedModel",
    "make_folds",
    "save_dataset_csv",
    "FoldFits",
    "RiskVector",
    "fit_all_folds",
    "loss_matrix",
    "cv_risk",
    "CovEstimate",
    "aggregate_covariance",
    "standardized_correlation",
    "max_quantiles",
    "BandSet",
    "CriticalValues",
    "ModelConfidenceSet",
    "critical_values",
    "simultaneous_band",
    "pointwise_band",
    "naive_set",
    "cvc_set",
    "check_coverage",
    "SparseLinearGen",
    "gen_sparse_linear",
    "derive_substream",
    "HoldoutSet",
    "PhiEstimate",
    "phi_pair",
    "phi_perturb",
    "default_holdout_size",
    "StabilityReport",
    "param_first_diff",
    "param_second_diff",
    "sgd_campaigns",
    "ExperimentConfig",
    "load_config",
]
