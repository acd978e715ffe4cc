"""Boosting with and without a privacy budget.

Trains three ensembles on the same separable synthetic dataset:

 1. noise-free boosting with the Matsushita risk,
 2. noise-free boosting with objective calibration (the loss parameter
    follows training error down from 1),
 3. a private run at epsilon = 1: splits picked by the exponential
    mechanism on a per-depth budget schedule, leaf values released through
    the Laplace mechanism.

Watch three things: the surrogate trace (certificate of progress), the
objective-calibration alpha traces inside each tree, and the budget ledger
of the private run, which spends its epsilon to the last drop.
"""

import math

import numpy as np

from dpboost import (
    BudgetAccountant,
    RandomSource,
    TreeConfig,
    TreePrivacy,
    boost_fit,
    empirical_risk,
    make_blocks_dataset,
)

dataset = make_blocks_dataset(m=400, n=4, seed=7)
holdout = make_blocks_dataset(m=2000, n=4, seed=8)
print(f"dataset: {dataset.n_examples} examples, {dataset.n_attributes} attributes, "
      f"{float(np.mean(dataset.y == 1)):.1%} positive")

print()
print("=" * 72)
print("1. Noise-free, fixed alpha = 1 (Matsushita), T = 10, depth 2")
print("=" * 72)
fixed = boost_fit(dataset, 10, TreeConfig(depth=2, alpha=1.0), output_bound=10.0)
print("train error per round:", fixed.traces.train_error)
print("surrogate per round:  ", [round(s, 4) for s in fixed.traces.surrogate])
print("holdout error:        ", empirical_risk(fixed, holdout))

print()
print("=" * 72)
print("2. Noise-free, objective calibration")
print("=" * 72)
oc = boost_fit(dataset, 10, TreeConfig(depth=2, alpha="oc"), output_bound=10.0)
print("first tree's alpha trace:", [round(a, 3) for a in oc.trees[0].alpha_trace])
print("train error per round:   ", oc.traces.train_error)
print("Each tree starts at alpha = 1 (fast boosting at the root split) and")
print("slides toward 0 as the tree's own training error falls.")

print()
print("=" * 72)
print("3. Private run: epsilon = 1, T = 10, depth 2, beta_tree = 0.5, M = 10")
print("=" * 72)
epsilon = 1.0
privacy = TreePrivacy(epsilon=epsilon, beta_tree=0.5, output_bound=10.0, ensemble_size=10)
accountant = BudgetAccountant(epsilon)
private = boost_fit(
    dataset, 10, TreeConfig(depth=2, alpha="oc", privacy=privacy),
    accountant=accountant, rng=RandomSource(2024),
)
print("train error:  ", empirical_risk(private, dataset), "(exact: a non-private diagnostic)")
print("holdout error:", empirical_risk(private, holdout))
print(f"budget spent: {accountant.total_spent} of {epsilon} "
      f"(residual {abs(accountant.total_spent - epsilon):.2e})")
split_spend = math.fsum(e for label, e in accountant.spends if label.startswith("split"))
leaf_spend = math.fsum(e for label, e in accountant.spends if label == "leaf")
print(f"  split selection: {split_spend}  (= beta_tree * epsilon)")
print(f"  leaf releases:   {leaf_spend}  (= (1 - beta_tree) * epsilon)")
print(f"  ledger entries:  {len(accountant.spends)} "
      f"(per tree: 3 splits + 4 leaves at depth 2)")

print()
print("The private model is worse than the noise-free ones, and better than")
print("its per-leaf noise scale alone would suggest. Part of that is unpaid:")
print("each leveraging coefficient is computed from the exact training labels")
print("and weights, is written to the model and drives the next weight update,")
print("and has no ledger entry. The budget spent above therefore does not bound")
print("the privacy loss of this model (see README, Privacy accounting).")
