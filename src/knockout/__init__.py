"""Training-time knockout augmentation for missing-input robustness.

One model learns both the full conditional and every marginal it may be
asked for: during training, randomly selected features are replaced by
fixed placeholder values, and at inference the same placeholders stand
in for whatever is missing.
"""

__version__ = "0.1.0"

from .augment import apply_knockout, merge_observed
from .discrete import (
    DiscreteJoint,
    UnreachableEvidenceError,
    induced_conditional_discrete,
    insupport_deviation,
    marginal_discrete,
)
from .missingness import (
    IID,
    calibrate_rate,
    enumerate_patterns,
    inject_mcar,
    inject_mnar_self_censor,
    sample_mask,
    sample_masks,
)
from .nn import NetworkSpec, Parameters, TrainConfig, forward, predict, train
from .schema import (
    Categorical,
    ContinuousUnbounded,
    FeatureSchema,
    NormalizationStats,
    PlaceholderPolicy,
    apply_normalization,
    derive_placeholders,
    fit_normalization,
    invert_normalization,
)
from .worlds import (
    GaussianWorld,
    MixedClassWorld,
    bayes_conditional_mean,
    draw_dataset,
    empirical_conditional,
    generate_mixed_classification,
    sample_gaussian_world,
)
from .evaluate import jsd, mse, mse_vs_bayes, run_pattern_sweep
from .baselines import dropout_augment, fit_imputer, impute

__all__ = [
    "__version__",
    "apply_knockout",
    "merge_observed",
    "DiscreteJoint",
    "UnreachableEvidenceError",
    "induced_conditional_discrete",
    "insupport_deviation",
    "marginal_discrete",
    "IID",
    "calibrate_rate",
    "enumerate_patterns",
    "inject_mcar",
    "inject_mnar_self_censor",
    "sample_mask",
    "sample_masks",
    "NetworkSpec",
    "Parameters",
    "TrainConfig",
    "forward",
    "predict",
    "train",
    "Categorical",
    "ContinuousUnbounded",
    "FeatureSchema",
    "NormalizationStats",
    "PlaceholderPolicy",
    "apply_normalization",
    "derive_placeholders",
    "fit_normalization",
    "invert_normalization",
    "GaussianWorld",
    "MixedClassWorld",
    "bayes_conditional_mean",
    "draw_dataset",
    "empirical_conditional",
    "generate_mixed_classification",
    "sample_gaussian_world",
    "jsd",
    "mse",
    "mse_vs_bayes",
    "run_pattern_sweep",
    "dropout_augment",
    "fit_imputer",
    "impute",
]
