"""Boosted linear combinations of trees and DP random-forest baselines.

Boosting follows the mirror scheme of the tunable loss: unnormalized
example weights start at 1/2, each tree is grown against the current
weights, leveraged by ``beta_t = (a / m) * sum_i w_i y_i h_t(x_i)``, and
weights are pushed through the inverse link of the leveraging-level loss.
Tree outputs are clamped to the output bound everywhere they are consumed.

The random forests pick split features and thresholds purely at random, so
their structure costs no privacy budget; only the per-leaf class counts are
protected, through either the Laplace or the exponential mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, candidate_splits
from .losses import LossSpec, canonical_link, inverse_link, surrogate
from .privacy import (
    BudgetAccountant,
    RandomSource,
    exponential_mechanism,
    laplace_sample,
)
from .tree import DecisionTree, Node, TreeConfig, induce_tree, noisify_leaves

__all__ = [
    "WEIGHT_CLAMP",
    "BoostTraces",
    "BoostedEnsemble",
    "RandomForest",
    "edge",
    "leveraging_coefficient",
    "update_weights",
    "boost_fit",
    "rf_fit",
    "predict",
    "empirical_risk",
]

# Numerical-precision floor keeping boosting weights strictly inside (0, 1).
WEIGHT_CLAMP = 1e-12


@dataclass
class BoostTraces:
    """Per-iteration diagnostics of a boosting run."""

    mean_weight: list[float] = field(default_factory=list)
    edges: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    surrogate: list[float] = field(default_factory=list)
    train_error: list[float] = field(default_factory=list)


@dataclass
class BoostedEnsemble:
    """Sequence of (tree, leveraging coefficient) pairs."""

    trees: list[DecisionTree]
    betas: list[float]
    output_bound: float
    lc_alpha: float = 1.0
    traces: BoostTraces = field(default_factory=BoostTraces)

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        total = np.zeros(X.shape[0])
        for tree, beta in zip(self.trees, self.betas):
            clipped = np.clip(tree.predict_bins(X), -self.output_bound, self.output_bound)
            total += beta * clipped
        return total

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.margins(X) > 0.0, 1, -1)

    @property
    def n_leaves(self) -> int:
        return sum(len(t.leaves()) for t in self.trees)

    @property
    def mean_leaf_depth(self) -> float:
        depths = [leaf.depth for t in self.trees for leaf in t.leaves()]
        return float(np.mean(depths)) if depths else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": "boost",
            "output_bound": self.output_bound,
            "lc_alpha": self.lc_alpha,
            "betas": list(self.betas),
            "trees": [t.to_dict() for t in self.trees],
        }

    @staticmethod
    def from_dict(data: dict) -> "BoostedEnsemble":
        return BoostedEnsemble(
            trees=[DecisionTree.from_dict(t) for t in data["trees"]],
            betas=[float(b) for b in data["betas"]],
            output_bound=float(data["output_bound"]),
            lc_alpha=float(data["lc_alpha"]),
        )


def predict(model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(margin, label) for each row; a zero margin maps to label -1."""
    if isinstance(model, BoostedEnsemble):
        margins = model.margins(X)
    else:
        margins = model.vote_margins(X)
    return margins, np.where(margins > 0.0, 1, -1)


def empirical_risk(model, dataset: Dataset) -> float:
    """Unweighted fraction of sign-mispredicted examples."""
    labels = model.predict_labels(dataset.X)
    return float(np.mean(labels != dataset.y))


def edge(normalized_weights: np.ndarray, labels: np.ndarray, predictions: np.ndarray) -> float:
    """Weighted correlation ``sum_i w_i y_i h(x_i)`` for a distribution w."""
    w = np.asarray(normalized_weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("normalized_weights must sum to 1")
    return float(np.sum(w * labels * predictions))


def leveraging_coefficient(
    a: float, weights: np.ndarray, labels: np.ndarray, predictions: np.ndarray
) -> float:
    """Coefficient of the new tree: ``(a / m) * sum_i w_i y_i h(x_i)``."""
    w = np.asarray(weights, dtype=float)
    return a / w.size * float(np.sum(w * labels * predictions))


def update_weights(
    lc_alpha: float, weights: np.ndarray, beta: float, labels: np.ndarray, predictions: np.ndarray
) -> np.ndarray:
    """Mirror update: push each weight through link space by -beta y h.

    Monotone in the margin (a larger ``y h`` can only shrink the weight)
    and a fixed point at weight 1/2 when the margin is 0.  Results are
    clamped to stay strictly inside (0, 1).
    """
    spec = LossSpec.malpha(lc_alpha)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        raise ValueError("weights must lie strictly inside (0, 1)")
    z = -beta * labels * predictions + np.asarray(canonical_link(spec, w))
    new = np.asarray(inverse_link(spec, z))
    return np.clip(new, WEIGHT_CLAMP, 1.0 - WEIGHT_CLAMP)


def boost_fit(
    dataset: Dataset,
    T: int,
    tree_config: TreeConfig,
    lc_alpha: float = 1.0,
    a: float | None = None,
    pi: float = 0.0,
    output_bound: float | None = None,
    accountant: BudgetAccountant | None = None,
    rng: RandomSource | None = None,
) -> BoostedEnsemble:
    """Boost ``T`` trees against the mirror-updated weight vector.

    With privacy configured, each tree is induced privately and its leaves
    are noisified before anything downstream (leveraging coefficient,
    weight update, predictions) sees it; one run spends exactly the
    configured budget.  ``a`` defaults to the center of the admissible
    interval, ``lc_alpha / output_bound^2``.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    private = tree_config.privacy is not None
    if private:
        if tree_config.privacy.ensemble_size != T:
            raise ValueError("tree_config.privacy.ensemble_size must equal T")
        if accountant is None or rng is None:
            raise ValueError("private boosting needs an accountant and a random source")
        M = tree_config.privacy.output_bound
    else:
        M = output_bound if output_bound is not None else 10.0
    if not (0.0 <= pi < 1.0):
        raise ValueError("pi must lie in [0, 1)")
    if a is None:
        a = lc_alpha / M**2
    else:
        lo, hi = lc_alpha / M**2 * (1.0 - pi), lc_alpha / M**2 * (1.0 + pi)
        if not (lo - 1e-12 <= a <= hi + 1e-12):
            raise ValueError("a must lie in (lc_alpha / M^2) * [1 - pi, 1 + pi]")

    m = dataset.n_examples
    y = dataset.y
    weights = np.full(m, 0.5)
    ensemble = BoostedEnsemble(trees=[], betas=[], output_bound=M, lc_alpha=lc_alpha)
    margins_total = np.zeros(m)
    lc_spec = LossSpec.malpha(lc_alpha)

    for t in range(T):
        tree_rng = rng.spawn("tree", t) if rng is not None else None
        leaves: list = []  # (leaf, its training rows), filled by induction
        tree = induce_tree(dataset, weights, tree_config, accountant, tree_rng, _leaf_rows=leaves)
        if private:
            tree = noisify_leaves(
                tree,
                tree_config.privacy.beta_pred,
                tree_config.privacy.epsilon,
                T,
                M,
                accountant,
                tree_rng,
            )
        h = np.zeros(m)  # training outputs, read after any noising
        while leaves:  # popping frees each leaf's rows once used
            leaf, rows = leaves.pop()
            h[rows] = leaf.prediction
        h = np.clip(h, -M, M)
        beta = leveraging_coefficient(a, weights, y, h)
        mean_w = float(np.mean(weights))
        ensemble.traces.mean_weight.append(mean_w)
        ensemble.traces.edges.append(edge(weights / weights.sum(), y, h))
        ensemble.traces.betas.append(beta)
        weights = update_weights(lc_alpha, weights, beta, y, h)
        ensemble.trees.append(tree)
        ensemble.betas.append(beta)
        margins_total += beta * h
        ensemble.traces.surrogate.append(float(np.mean(surrogate(lc_spec, y * margins_total))))
        ensemble.traces.train_error.append(float(np.mean(np.where(margins_total > 0.0, 1, -1) != y)))
    return ensemble


# --- random forest baselines ---------------------------------------------


@dataclass
class RandomForest:
    """Ensemble of structure-random trees with privately released leaf labels."""

    trees: list[Node]
    depth: int
    leaf_mechanism: str

    def _tree_labels(self, root: Node, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        stack = [(root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.prediction
            else:
                mask = X[:, node.split.attribute][idx] <= node.split.threshold_bin
                stack.append((node.left, idx[mask]))
                stack.append((node.right, idx[~mask]))
        return out

    def vote_margins(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        votes = np.zeros(X.shape[0])
        for root in self.trees:
            votes += self._tree_labels(root, X)
        return votes

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.vote_margins(X) > 0.0, 1, -1)

    @property
    def n_leaves(self) -> int:
        return len(self.trees) * 2**self.depth

    @property
    def mean_leaf_depth(self) -> float:
        return float(self.depth)

    def to_dict(self) -> dict:
        from .tree import _node_to_dict

        return {
            "kind": "forest",
            "depth": self.depth,
            "leaf_mechanism": self.leaf_mechanism,
            "trees": [_node_to_dict(root) for root in self.trees],
        }

    @staticmethod
    def from_dict(data: dict) -> "RandomForest":
        from .tree import _node_from_dict

        return RandomForest(
            trees=[_node_from_dict(t, depth=0) for t in data["trees"]],
            depth=int(data["depth"]),
            leaf_mechanism=str(data["leaf_mechanism"]),
        )


def _random_structure(depth: int, candidates, rng: RandomSource) -> Node:
    node = Node(depth=0, w=0.0, w1=0.0, n_pos=0, n_neg=0)
    stack = [(node, 0)]
    while stack:
        current, level = stack.pop()
        if level >= depth:
            continue
        current.split = candidates[rng.randint(len(candidates))]
        current.left = Node(depth=level + 1, w=0.0, w1=0.0, n_pos=0, n_neg=0)
        current.right = Node(depth=level + 1, w=0.0, w1=0.0, n_pos=0, n_neg=0)
        stack.append((current.right, level + 1))
        stack.append((current.left, level + 1))
    return node


def _leaf_index_map(root: Node, X: np.ndarray) -> list[tuple[Node, np.ndarray]]:
    out = []
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out.append((node, idx))
        else:
            mask = X[:, node.split.attribute][idx] <= node.split.threshold_bin
            stack.append((node.right, idx[~mask]))
            stack.append((node.left, idx[mask]))
    # restore left-to-right order (stack pops right first)
    out.reverse()
    return out


def rf_fit(
    dataset: Dataset,
    T: int,
    depth: int,
    epsilon: float,
    leaf_mechanism: str,
    accountant: BudgetAccountant,
    rng: RandomSource,
) -> RandomForest:
    """Fit a DP random forest of ``T`` structure-random depth-``depth`` trees.

    Structure is data independent, so the whole budget goes to the leaves:
    epsilon / (T * 2^depth) each.  The Laplace variant noises the pair of
    per-leaf class counts (L1 sensitivity 2 under replacement) and takes
    the argmax; the exponential variant selects the label with the counts
    as utilities (sensitivity 1).  An odd ``T`` avoids voting ties.
    """
    if leaf_mechanism not in ("laplace", "exponential"):
        raise ValueError("leaf_mechanism must be 'laplace' or 'exponential'")
    if not (epsilon > 0.0) or math.isinf(epsilon):
        raise ValueError("epsilon must be finite and positive")
    candidates = candidate_splits(dataset)
    eps_leaf = epsilon / (T * 2**depth)
    trees = []
    for t in range(T):
        tree_rng = rng.spawn("rf-tree", t)
        root = _random_structure(depth, candidates, tree_rng)
        for leaf, idx in _leaf_index_map(root, dataset.X):
            n_pos = int(np.count_nonzero(dataset.y[idx] == 1))
            n_neg = int(idx.size) - n_pos
            leaf.n_pos, leaf.n_neg = n_pos, n_neg
            leaf.w, leaf.w1 = float(idx.size), float(n_pos)
            if leaf_mechanism == "laplace":
                accountant.spend("rf-leaf", eps_leaf)
                noisy_pos = n_pos + laplace_sample(tree_rng, 2.0 / eps_leaf)
                noisy_neg = n_neg + laplace_sample(tree_rng, 2.0 / eps_leaf)
                leaf.prediction = 1.0 if noisy_pos > noisy_neg else -1.0
            else:
                choice = exponential_mechanism(
                    [float(n_neg), float(n_pos)], 1.0, eps_leaf, accountant, tree_rng, label="rf-leaf"
                )
                leaf.prediction = 1.0 if choice == 1 else -1.0
        trees.append(root)
    return RandomForest(trees=trees, depth=depth, leaf_mechanism=leaf_mechanism)
