"""Feature and feature-group importance for small Bayesian neural networks.

Train a network whose output layer carries a mean-field Gaussian posterior,
project the implied logit posterior onto the input features via sample
covariances, and rank features (or named groups of features) by closed-form
relative-centrality and mutual-information scores.
"""

from ratekit.core import gram
from ratekit.bnn import (
    LogitPosterior,
    Network,
    NetworkConfig,
    TrainConfig,
    build_network,
    elbo_loss,
    kl_q_prior,
    logit_posterior,
    network_from_json,
    network_to_json,
    penultimate_activations,
    predict_proba,
    train,
)
from ratekit.esa import (
    EffectSizePosterior,
    covariance_esa,
    ols_effect_size,
)
from ratekit.rate import (
    GroupMap,
    ImportanceReport,
    PrecisionModel,
    build_precision,
    group_rate,
    kld_group,
    kld_variable_fast,
    kld_variable_naive,
    mutual_info,
    precision_from_covariance,
    rate_scores,
)
from ratekit.simgen import Dataset, SynthSpec, collinear_regression, synth_classification
from ratekit.evaluate import (
    DegradationCurve,
    RocCurve,
    marginal_correlation,
    roc_auc,
    shuffle_degradation,
    ttest_stats,
)

__version__ = "0.1.0"
