"""Boosted linear combinations of trees and DP random-forest baselines.

Boosting follows the mirror scheme of the tunable loss: unnormalized
example weights start at 1/2, each tree is grown against the current
weights, leveraged by ``beta_t = (a / m) * sum_i w_i y_i h_t(x_i)``, and
weights are pushed through the inverse link of the leveraging-level loss.
Tree outputs are clamped to the output bound everywhere they are consumed.
A private tree comes from ``induce_tree`` already released (split draws and
Laplace leaves), so each ensemble releases a tree where it grows it.

The random forests pick split features and thresholds purely at random, so
their structure costs no privacy budget; only the per-leaf class counts are
protected, through either the Laplace or the exponential mechanism.  Their
trees are complete and of one depth, so a forest stacks their node tables,
and it is fitted and voted in whole-forest array passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, candidate_splits
from .losses import LossSpec, canonical_link, inverse_link, surrogate
from .privacy import BudgetAccountant, RandomSource, exponential_mechanism, laplace_mechanism
from .tree import (
    LEAF_BIN,
    DecisionTree,
    TreeConfig,
    _complete_child,
    induce_tree,
    margin_labels,
    tables_from_nodes,
    tables_to_nodes,
    walk,
)

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

    def to_dict(self) -> dict:
        return {
            "kind": "boost",
            "output_bound": self.output_bound,
            "lc_alpha": self.lc_alpha,
            "betas": list(self.betas),
            "trees": [tables_to_nodes(t.child, t.attribute, t.threshold_bin, t.value)
                      for t in self.trees],
        }

    @staticmethod
    def from_dict(data: dict) -> "BoostedEnsemble":
        if not data["trees"]:
            raise ValueError("a boosted model needs at least one tree")
        if len(data["betas"]) != len(data["trees"]):
            raise ValueError(f"{len(data['betas'])} betas for {len(data['trees'])} trees")
        betas = [float(b) for b in data["betas"]]
        if not all(map(math.isfinite, betas)):
            raise ValueError(f"non-finite beta in {betas}")
        output_bound = float(data["output_bound"])
        if not 0.0 < output_bound < math.inf:
            raise ValueError(f"output_bound {output_bound} is not positive and finite")
        lc_alpha = float(data["lc_alpha"])
        if not 0.0 <= lc_alpha <= 1.0:
            raise ValueError(f"lc_alpha {lc_alpha} outside [0, 1]")
        return BoostedEnsemble(
            trees=[DecisionTree(*tables_from_nodes(t)) for t in data["trees"]],
            betas=betas,
            output_bound=output_bound,
            lc_alpha=lc_alpha,
        )


def predict(model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(margin, label) for each row of either ensemble; a zero margin maps to label -1."""
    margins = model.margins(X)
    return margins, margin_labels(margins)


def empirical_risk(model, dataset: Dataset) -> float:
    """Unweighted fraction of sign-mispredicted examples."""
    return float(np.mean(predict(model, dataset.X)[1] != dataset.y))


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
    if not np.all((w > 0.0) & (w < 1.0)):
        raise ValueError("weights must lie strictly inside (0, 1)")
    z = -beta * labels * predictions + np.asarray(canonical_link(spec, w))
    new = np.asarray(inverse_link(spec, z))
    return np.clip(new, WEIGHT_CLAMP, 1.0 - WEIGHT_CLAMP)


def boost_fit(
    dataset: Dataset,
    T: int,
    tree_config: TreeConfig,
    lc_alpha: float = 1.0,
    output_bound: float | None = None,
    accountant: BudgetAccountant | None = None,
    rng: RandomSource | None = None,
) -> BoostedEnsemble:
    """Boost ``T`` trees against the mirror-updated weight vector.

    With privacy configured, each tree comes from a private ``induce_tree``,
    which releases it whole (splits and noised leaves) before anything
    downstream (leveraging coefficient, weight update, predictions) sees it; one
    run spends exactly the configured budget, and ``output_bound``, if given, must
    be the privacy's.  Without privacy ``output_bound`` (default 10) must be
    positive and finite.  Leveraging uses ``a = lc_alpha / output_bound^2``.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    privacy = tree_config.privacy
    if privacy is not None:
        if privacy.ensemble_size != T:
            raise ValueError("tree_config.privacy.ensemble_size must equal T")
        if accountant is None or rng is None:
            raise ValueError("private boosting needs an accountant and a random source")
        M = privacy.output_bound
        if output_bound is not None and output_bound != M:
            raise ValueError(f"output_bound {output_bound} differs from the privacy's {M}")
    else:
        M = output_bound if output_bound is not None else 10.0
        if not 0.0 < M < math.inf:
            raise ValueError("output_bound must be positive and finite")
    a = lc_alpha / M**2

    m = dataset.n_examples
    y = dataset.y
    weights = np.full(m, 0.5)
    ensemble = BoostedEnsemble(trees=[], betas=[], output_bound=M, lc_alpha=lc_alpha)
    margins_total = np.zeros(m)
    lc_spec = LossSpec.malpha(lc_alpha)

    for t in range(T):
        tree_rng = rng.spawn("tree", t) if rng is not None else None
        leaf = np.empty(m, dtype=np.intp)  # each training row's leaf id, filled by induction
        tree = induce_tree(dataset, weights, tree_config, accountant, tree_rng, _leaf_rows=leaf)
        h = np.clip(tree.value[leaf], -M, M)  # training outputs, of the released tree
        beta = leveraging_coefficient(a, weights, y, h)
        mean_w = float(np.mean(weights))
        ensemble.traces.mean_weight.append(mean_w)
        ensemble.traces.edges.append(edge(weights / weights.sum(), y, h))
        weights = update_weights(lc_alpha, weights, beta, y, h)
        ensemble.trees.append(tree)
        ensemble.betas.append(beta)
        margins_total += beta * h
        ensemble.traces.surrogate.append(float(np.mean(surrogate(lc_spec, y * margins_total))))
        ensemble.traces.train_error.append(float(np.mean(margin_labels(margins_total) != y)))
    return ensemble


# --- random forest baselines ---------------------------------------------

LEAF_MECHANISMS = ("laplace", "exponential")


@dataclass
class RandomForest:
    """Complete structure-random trees of one depth with privately released leaf votes.

    The trees' node tables (see ``DecisionTree``) are stacked, shape ``(T, 2^(d+1) - 1)``:
    numbered breadth-first, a complete tree's node ``k`` has children ``2k + 1`` and
    ``2k + 2``, and its leaves are its last ``2^d`` nodes, left to right.  ``value`` holds
    the leaves' votes, each +1.0 or -1.0.
    """

    child: np.ndarray
    attribute: np.ndarray
    threshold_bin: np.ndarray
    value: np.ndarray
    leaf_mechanism: str

    @property
    def depth(self) -> int:
        return self.child.shape[1].bit_length() - 1

    def margins(self, X: np.ndarray) -> np.ndarray:
        leaf = walk(self, X, self.depth)
        # small integers: the sum over the trees is exact in any order
        return np.take_along_axis(self.value, leaf, axis=1).sum(axis=0)

    def to_dict(self) -> dict:
        return {
            "kind": "forest",
            "leaf_mechanism": self.leaf_mechanism,
            "trees": [tables_to_nodes(*tables) for tables in
                      zip(self.child, self.attribute, self.threshold_bin, self.value)],
        }

    @staticmethod
    def from_dict(data: dict) -> "RandomForest":
        """Inverse of ``to_dict``."""
        if data["leaf_mechanism"] not in LEAF_MECHANISMS:
            raise ValueError(f"unknown forest leaf_mechanism {data['leaf_mechanism']!r}")
        trees = [tables_from_nodes(tree) for tree in data["trees"]]
        if not trees or len(trees[0][0]) < 3:
            raise ValueError("a forest needs at least one tree of depth >= 1")
        for child, *_ in trees:  # a complete tree of depth d has 2^(d+1) - 1 nodes
            if not np.array_equal(child, _complete_child((len(child) + 1).bit_length() - 2)):
                raise ValueError("forest tree is not complete")
        if len({len(child) for child, *_ in trees}) > 1:
            raise ValueError("forest trees differ in depth")
        return RandomForest(*(np.array(table) for table in zip(*trees)), data["leaf_mechanism"])


def _preorder(k: int, depth: int) -> list[int]:
    """The ids of the inner nodes of a complete ``depth``-deep subtree at node ``k``,
    depth-first, left subtree first."""
    return [k, *_preorder(2 * k + 1, depth - 1), *_preorder(2 * k + 2, depth - 1)] if depth else []


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
    if leaf_mechanism not in LEAF_MECHANISMS:
        raise ValueError("leaf_mechanism must be 'laplace' or 'exponential'")
    if not (epsilon > 0.0) or math.isinf(epsilon):
        raise ValueError("epsilon must be finite and positive")
    if T < 1 or depth < 1:
        raise ValueError("T and depth must be >= 1")
    candidates = candidate_splits(dataset)
    n_leaves = 2**depth
    eps_leaf = epsilon / (T * n_leaves)
    tree_rngs = [rng.spawn("rf-tree", t) for t in range(T)]
    # each tree's candidate per inner node, drawn depth-first, left subtree first
    n_inner = n_leaves - 1
    picks = np.empty((T, n_inner), dtype=np.intp)
    picks[:, _preorder(0, depth)] = [
        [r.randint(len(candidates)) for _ in range(n_inner)] for r in tree_rngs
    ]
    table = np.array([(c.attribute, c.threshold_bin) for c in candidates], dtype=np.intp)
    attribute = np.zeros((T, n_inner + n_leaves), dtype=np.intp)
    threshold_bin = np.full_like(attribute, LEAF_BIN)
    attribute[:, :n_inner], threshold_bin[:, :n_inner] = table[picks].transpose(2, 0, 1)
    child = np.tile(_complete_child(depth), (T, 1))
    forest = RandomForest(child, attribute, threshold_bin, np.zeros(child.shape), leaf_mechanism)

    # each training row's (tree, leaf) key, in every tree; the leaves are the last nodes
    keys = np.arange(T)[:, None] * n_leaves + walk(forest, dataset.X, depth) - n_inner
    n_rows, n_pos = (
        np.bincount(k.ravel(), minlength=T * n_leaves).reshape(T, n_leaves)
        for k in (keys, keys[:, dataset.y == 1])
    )
    n_neg = n_rows - n_pos

    # each tree draws its leaves' uniforms right to left (Laplace: n_pos's, then n_neg's)
    per_leaf = 2 if leaf_mechanism == "laplace" else 1
    u = np.array([r.uniforms(n_leaves * per_leaf) for r in tree_rngs])
    u = u.reshape(T, n_leaves, per_leaf)[:, ::-1]
    if leaf_mechanism == "laplace":
        noisy = laplace_mechanism(np.stack([n_pos, n_neg], axis=-1), 2.0, eps_leaf, accountant,
                                  u, "rf-leaf")
        positive = noisy[..., 0] > noisy[..., 1]
    else:
        utilities = np.stack([n_neg, n_pos], axis=-1)
        positive = exponential_mechanism(utilities, 1.0, eps_leaf, accountant, u[..., 0],
                                         "rf-leaf") == 1
    forest.value[:, n_inner:] = np.where(positive, 1.0, -1.0)
    return forest
