"""Differentially private boosted decision trees with a tunable proper loss."""

from .dataset import (
    AttributeDomain,
    DataError,
    Dataset,
    DomainSpec,
    SplitCandidate,
    candidate_splits,
    load_csv,
    make_blocks_dataset,
    parse_domain_spec,
    stratified_kfold,
)
from .ensemble import (
    BoostedEnsemble,
    RandomForest,
    boost_fit,
    edge,
    empirical_risk,
    leveraging_coefficient,
    predict,
    rf_fit,
    update_weights,
)
from .losses import (
    LossSpec,
    bayes_risk,
    canonical_link,
    inverse_link,
    perspective_at,
    sensitivity_bound,
    surrogate,
)
from .privacy import (
    BudgetAccountant,
    BudgetExceededError,
    RandomSource,
    brute_force_sensitivity,
    derive_seed,
    exponential_mechanism,
    exponential_mechanism_probabilities,
    laplace_mechanism,
    replacement_neighbors,
)
from .tree import (
    DecisionTree,
    TreeConfig,
    TreePrivacy,
    induce_tree,
    objective_calibration_alpha,
    split_budget,
)

__version__ = "0.1.0"
