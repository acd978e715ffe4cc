"""Top-down decision tree induction minimizing a Bayes risk.

Trees are grown breadth-first over a public, data-independent candidate
grid.  Without privacy, every impure leaf above the depth cap is split at
the risk-minimizing candidate.  With privacy, every leaf is split to the
exact target depth, candidates are drawn through the exponential mechanism
with a per-depth budget schedule, and leaf predictions are released through
the Laplace mechanism after clamping to the output bound.

Objective calibration ties the loss parameter to training progress: each
split uses ``alpha = err(current tree) / err(root)``, so induction starts
at the Matsushita risk and drifts toward the 0/1 risk as the tree fits.

A split is scored from level-wise histograms (one ``bincount`` per
attribute over (frontier leaf, bin) keys covers the whole level) and one
vectorized Bayes-risk pass over the live leaves at the split's alpha.
Every sum is formed in the order a per-leaf evaluation would use, so the
released numbers carry the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DataError, Dataset, SplitCandidate, candidate_splits
from .losses import LossSpec, bayes_risk, canonical_link, sensitivity_bound
from .privacy import (
    BudgetAccountant,
    RandomSource,
    exponential_mechanism,
    exponential_mechanism_probabilities,
    laplace_mechanism,
)

__all__ = [
    "Q_CLAMP",
    "TreePrivacy",
    "TreeConfig",
    "Node",
    "SplitRecord",
    "DecisionTree",
    "unnormalized_risk",
    "split_budget",
    "objective_calibration_alpha",
    "root_split_probabilities",
    "induce_tree",
    "noisify_leaves",
    "tree_efficiency",
]

# Leaf class proportions are clamped away from {0, 1} before they go
# through the link, which diverges there.
Q_CLAMP = 1e-4

OBJECTIVE_CALIBRATION = "oc"


@dataclass(frozen=True)
class TreePrivacy:
    """Privacy settings for one tree of a T-tree combination.

    ``epsilon`` is the whole run's budget; each tree draws epsilon / T,
    split between node selection (``beta_tree``) and leaf releases.
    """

    epsilon: float
    beta_tree: float
    output_bound: float
    ensemble_size: int = 1

    def __post_init__(self):
        if not (self.epsilon > 0.0) or math.isinf(self.epsilon):
            raise ValueError("epsilon must be finite and positive")
        if not (0.0 < self.beta_tree < 1.0):
            raise ValueError("beta_tree must lie in (0, 1)")
        if not (self.output_bound > 0.0):
            raise ValueError("output_bound must be positive")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")

    @property
    def beta_pred(self) -> float:
        return 1.0 - self.beta_tree


@dataclass(frozen=True)
class TreeConfig:
    """Depth cap, loss parameter strategy and optional privacy settings.

    ``alpha`` is either a fixed value in [0, 1] or the string ``"oc"`` for
    objective calibration.
    """

    depth: int
    alpha: float | str = 1.0
    privacy: TreePrivacy | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if isinstance(self.alpha, str):
            if self.alpha != OBJECTIVE_CALIBRATION:
                raise ValueError(f"unknown alpha strategy {self.alpha!r}")
        elif not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def objective_calibration(self) -> bool:
        return self.alpha == OBJECTIVE_CALIBRATION


@dataclass
class Node:
    """Tree node; a leaf until ``split`` is assigned.

    Leaves carry the training statistics that determine their prediction:
    total weight ``w``, positive weight ``w1`` and raw example counts.
    """

    depth: int
    w: float
    w1: float
    n_pos: int
    n_neg: int
    prediction: float = 0.0
    split: SplitCandidate | None = None
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def q(self) -> float:
        """Positive-class proportion, clamped for the link."""
        if self.w <= 0.0:
            return 0.5
        return min(max(self.w1 / self.w, Q_CLAMP), 1.0 - Q_CLAMP)

    @property
    def majority_label(self) -> int:
        # Weighted majority; the exact tie goes negative like a 0 margin.
        return 1 if self.w1 > self.w - self.w1 else -1

    @property
    def error_count(self) -> int:
        return self.n_neg if self.majority_label == 1 else self.n_pos


@dataclass(frozen=True)
class SplitRecord:
    """Diagnostics for one split, recorded at selection time."""

    depth: int
    alpha: float
    epsilon: float | None
    risk_before: float
    risk_after: float
    utility: float
    attribute: int
    threshold_bin: int


@dataclass
class DecisionTree:
    root: Node
    records: list[SplitRecord] = field(default_factory=list)
    prediction_alpha: float = 1.0
    noised: bool = False

    @property
    def alpha_trace(self) -> list[float]:
        return [r.alpha for r in self.records]

    @property
    def budget_trace(self) -> list[float]:
        return [r.epsilon for r in self.records if r.epsilon is not None]

    def leaves(self) -> list[Node]:
        """All leaves, depth-first left to right (stable order)."""
        out: list[Node] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out

    def nodes(self) -> list[Node]:
        out: list[Node] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        return out

    def predict_bins(self, X: np.ndarray) -> np.ndarray:
        """Leaf predictions for quantized rows ``X``."""
        X = np.asarray(X)
        out = np.zeros(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
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

    def to_dict(self) -> dict:
        return {
            "prediction_alpha": self.prediction_alpha,
            "noised": self.noised,
            "root": _node_to_dict(self.root),
        }

    @staticmethod
    def from_dict(data: dict) -> "DecisionTree":
        return DecisionTree(
            root=_node_from_dict(data["root"], depth=0),
            prediction_alpha=float(data["prediction_alpha"]),
            noised=bool(data["noised"]),
        )


def _node_to_dict(node: Node) -> dict:
    stats = {"w": node.w, "w1": node.w1, "n_pos": node.n_pos, "n_neg": node.n_neg}
    if node.is_leaf:
        return {"leaf": {"prediction": node.prediction, **stats}}
    return {
        "split": {"attribute": node.split.attribute, "threshold_bin": node.split.threshold_bin},
        "stats": stats,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(data: dict, depth: int) -> Node:
    if "leaf" in data:
        leaf = data["leaf"]
        return Node(
            depth=depth,
            w=float(leaf["w"]),
            w1=float(leaf["w1"]),
            n_pos=int(leaf["n_pos"]),
            n_neg=int(leaf["n_neg"]),
            prediction=float(leaf["prediction"]),
        )
    stats = data["stats"]
    node = Node(
        depth=depth,
        w=float(stats["w"]),
        w1=float(stats["w1"]),
        n_pos=int(stats["n_pos"]),
        n_neg=int(stats["n_neg"]),
        split=SplitCandidate(int(data["split"]["attribute"]), int(data["split"]["threshold_bin"])),
    )
    node.left = _node_from_dict(data["left"], depth + 1)
    node.right = _node_from_dict(data["right"], depth + 1)
    return node


def _leaf_risks(w: np.ndarray, w1: np.ndarray, alpha: float) -> np.ndarray:
    """Unnormalized risk ``w * bayes_risk(w1 / w)`` of each leaf; 0 when empty.

    One vectorized ``bayes_risk`` call.  Its operations are element-wise
    and correctly rounded, so each entry has the bits of a scalar call.
    """
    nonempty = w > 0.0
    q = np.clip(w1 / np.where(nonempty, w, 1.0), 0.0, 1.0)
    return np.where(nonempty, w * bayes_risk(LossSpec.malpha(alpha), q), 0.0)


def unnormalized_risk(tree: DecisionTree, dataset: Dataset, weights: np.ndarray, alpha: float) -> float:
    """Sum over leaves of ``w(leaf) * bayes_risk(w1(leaf) / w(leaf))``.

    Empty leaves contribute nothing.  Recomputed from the data, not from
    stored statistics, so it also validates them.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0.0):
        raise ValueError("weights must be strictly positive")
    pos = dataset.y == 1
    rows = [idx for _, idx in _leaf_membership(tree, dataset.X) if idx.size]
    w = np.array([weights[idx].sum() for idx in rows])
    w1 = np.array([weights[idx[pos[idx]]].sum() for idx in rows])
    return math.fsum(_leaf_risks(w, w1, alpha).tolist())


def _leaf_membership(tree: DecisionTree, X: np.ndarray) -> list[tuple[Node, np.ndarray]]:
    out = []
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out.append((node, idx))
        else:
            mask = X[:, node.split.attribute][idx] <= node.split.threshold_bin
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


def split_budget(depth_of_leaf: int, d: int, T: int, beta_tree: float, epsilon: float) -> float:
    """Budget for splitting one leaf: beta_tree * epsilon / (T d 2^depth).

    Summed over the full binary expansion (2^k splits at depth k, all
    depths below d) this spends exactly beta_tree * epsilon / T per tree.
    """
    if not 0 <= depth_of_leaf < d:
        raise ValueError("depth_of_leaf must lie in [0, d)")
    return beta_tree * epsilon / (T * d * 2.0**depth_of_leaf)


def objective_calibration_alpha(err_current: float, err_root: float) -> float:
    """Loss parameter for the next split: err(current) / err(root), in [0, 1]."""
    if not err_root > 0.0:
        raise ValueError("err_root must be positive")
    return min(1.0, max(0.0, err_current / err_root))


def _frontier_histograms(
    X: np.ndarray,
    weights: np.ndarray,
    pos_weights: np.ndarray,
    leaf_rows: list[np.ndarray],
    domains,
) -> tuple[np.ndarray, np.ndarray]:
    """Left-child (weight, positive weight) of every candidate at every leaf.

    Row ``s`` of each result belongs to the leaf whose rows are
    ``leaf_rows[s]`` (ascending, disjoint); columns are the candidates in
    (attribute, threshold) order, and a left child collects the bins up to
    and including the threshold.  Each attribute takes one ``bincount`` over
    (leaf, bin) keys, so a bucket adds its rows in ascending order, exactly
    as a per-leaf ``bincount`` would.  Rows of no leaf fall into a spare
    slot that is dropped.
    """
    n_slots = len(leaf_rows)
    slot = np.full(X.shape[0], n_slots, dtype=np.int64)
    for s, idx in enumerate(leaf_rows):
        slot[idx] = s
    w_parts, w1_parts = [], []
    for j, dom in enumerate(domains):
        nv = dom.nvpriv
        key = slot * nv + X[:, j]
        for parts, wts in ((w_parts, weights), (w1_parts, pos_weights)):
            hist = np.bincount(key, weights=wts, minlength=(n_slots + 1) * nv)
            cum = np.cumsum(hist.reshape(n_slots + 1, nv)[:n_slots], axis=1)
            parts.append(cum[:, : nv - 1])
    return np.concatenate(w_parts, axis=1), np.concatenate(w1_parts, axis=1)


def _split_utilities(
    w_left: np.ndarray,
    w1_left: np.ndarray,
    w_leaf: float,
    w1_leaf: float,
    alpha: float,
    risk_rest: float,
) -> np.ndarray:
    """Utility of every candidate: negative total risk of the grown tree."""
    k = w_left.size
    child_risk = _leaf_risks(
        np.concatenate([w_left, w_leaf - w_left]),
        np.concatenate([w1_left, w1_leaf - w1_left]),
        alpha,
    )
    return -(risk_rest + (child_risk[:k] + child_risk[k:]))


def root_split_probabilities(
    dataset: Dataset, weights: np.ndarray, alpha: float, epsilon_node: float
) -> np.ndarray:
    """Exact candidate-selection probabilities for splitting a root leaf.

    This is the distribution the private induction samples from at the
    root; exposed so privacy-ratio tests can compare neighbor datasets
    without sampling.
    """
    weights = np.asarray(weights, dtype=float)
    pos = dataset.y == 1
    w_left, w1_left = _frontier_histograms(
        dataset.X, weights, weights * pos, [np.arange(dataset.n_examples)], dataset.domains
    )
    utilities = _split_utilities(
        w_left[0], w1_left[0], float(weights.sum()), float(weights[pos].sum()), alpha, 0.0
    )
    delta = sensitivity_bound(LossSpec.malpha(alpha), dataset.n_examples)
    return exponential_mechanism_probabilities(utilities, delta, epsilon_node)


def induce_tree(
    dataset: Dataset,
    weights: np.ndarray,
    config: TreeConfig,
    accountant: BudgetAccountant | None = None,
    rng: RandomSource | None = None,
    *,
    _leaf_rows: list | None = None,
) -> DecisionTree:
    """Grow one tree, breadth-first.

    Without privacy, each impure leaf above the depth cap is split at the
    candidate minimizing the unnormalized Bayes risk of the grown tree
    (ties go to the lowest (attribute, threshold)).  With privacy, every
    leaf is carried to the exact target depth and candidates are sampled
    by the exponential mechanism with the per-depth budget schedule.

    Leaf predictions apply the canonical link to the clamped class
    proportion; empty leaves predict 0.

    ``_leaf_rows`` is private to boosting: when given, it receives one
    ``(leaf, training rows)`` pair per leaf, so the training outputs need
    no second pass over ``X``.  The rows are never stored on the tree.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dataset.n_examples,):
        raise ValueError("weights must have one entry per example")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be strictly positive")
    candidates = candidate_splits(dataset)
    if not candidates:
        raise DataError("no non-trivial split candidates")
    private = config.privacy is not None
    if private and (accountant is None or rng is None):
        raise ValueError("private induction needs an accountant and a random source")

    X, y = dataset.X, dataset.y
    m = dataset.n_examples
    pos_mask = y == 1
    pos_weights = weights * pos_mask

    def make_node(depth: int, idx: np.ndarray) -> Node:
        w = float(weights[idx].sum()) if idx.size else 0.0
        w1 = float(weights[idx[pos_mask[idx]]].sum()) if idx.size else 0.0
        n_pos = int(np.count_nonzero(pos_mask[idx]))
        return Node(depth=depth, w=w, w1=w1, n_pos=n_pos, n_neg=int(idx.size) - n_pos)

    root = make_node(0, np.arange(m))
    tree = DecisionTree(root=root)
    # (w, w1) of the live leaves in their first n_live slots; a split puts
    # its left child in the leaf's slot and its right child in a new one
    live_w, live_w1, n_live = np.array([root.w]), np.array([root.w1]), 1
    error_count = root.error_count
    err_root = error_count / m

    oc = config.objective_calibration
    stop_all = oc and err_root == 0.0  # already pure: loss ratio undefined

    # (leaf, its rows in ascending order, its live slot)
    frontier: list[tuple[Node, np.ndarray, int]] = [(root, np.arange(m), 0)]
    final: list[tuple[Node, np.ndarray]] = []  # leaves that stopped early
    for level in range(0 if stop_all else config.depth):
        if not private:  # pure leaves stay leaves
            pure = [
                leaf.w1 <= 0.0 or leaf.w1 >= leaf.w or idx.size == 0 for leaf, idx, _ in frontier
            ]
            final += [(leaf, idx) for (leaf, idx, _), p in zip(frontier, pure) if p]
            frontier = [f for f, p in zip(frontier, pure) if not p]
        if not frontier:
            break
        w_left, w1_left = _frontier_histograms(
            X, weights, pos_weights, [idx for _, idx, _ in frontier], dataset.domains
        )
        # every frontier leaf splits once, adding one live slot
        live_w = np.concatenate([live_w, np.empty(len(frontier))])
        live_w1 = np.concatenate([live_w1, np.empty(len(frontier))])
        next_frontier: list[tuple[Node, np.ndarray, int]] = []
        for k, (leaf, idx, slot) in enumerate(frontier):
            if oc:
                alpha_l = objective_calibration_alpha(error_count / m, err_root)
            else:
                alpha_l = float(config.alpha)

            live_risk = _leaf_risks(live_w[:n_live], live_w1[:n_live], alpha_l).tolist()
            risk_before = math.fsum(live_risk)
            risk_rest = risk_before - live_risk[slot]
            utilities = _split_utilities(
                w_left[k], w1_left[k], leaf.w, leaf.w1, alpha_l, risk_rest
            )

            if private:
                eps_node = split_budget(
                    level,
                    config.depth,
                    config.privacy.ensemble_size,
                    config.privacy.beta_tree,
                    config.privacy.epsilon,
                )
                delta = sensitivity_bound(LossSpec.malpha(alpha_l), m)
                choice = exponential_mechanism(
                    utilities, delta, eps_node, accountant, rng, label=f"split@{level}"
                )
            else:
                eps_node = None
                choice = int(np.argmax(utilities))

            cand = candidates[choice]
            mask = X[:, cand.attribute][idx] <= cand.threshold_bin
            left_idx, right_idx = idx[mask], idx[~mask]
            left = make_node(level + 1, left_idx)
            right = make_node(level + 1, right_idx)
            leaf.split = cand
            leaf.left, leaf.right = left, right
            live_w[slot], live_w1[slot] = left.w, left.w1
            live_w[n_live], live_w1[n_live] = right.w, right.w1
            next_frontier.append((left, left_idx, slot))
            next_frontier.append((right, right_idx, n_live))
            n_live += 1
            error_count += left.error_count + right.error_count - leaf.error_count
            tree.records.append(
                SplitRecord(
                    depth=level,
                    alpha=alpha_l,
                    epsilon=eps_node,
                    risk_before=risk_before,
                    risk_after=-float(utilities[choice]),
                    utility=float(utilities[choice]),
                    attribute=cand.attribute,
                    threshold_bin=cand.threshold_bin,
                )
            )
        frontier = next_frontier
    if _leaf_rows is not None:
        _leaf_rows += final + [(leaf, idx) for leaf, idx, _ in frontier]

    if oc:
        tree.prediction_alpha = tree.records[-1].alpha if tree.records else 1.0
    else:
        tree.prediction_alpha = float(config.alpha)
    link_spec = LossSpec.malpha(tree.prediction_alpha)
    for leaf in tree.leaves():
        leaf.prediction = (
            0.0 if leaf.w <= 0.0 else float(canonical_link(link_spec, leaf.q))
        )
    return tree


def noisify_leaves(
    tree: DecisionTree,
    beta_pred: float,
    epsilon: float,
    T: int,
    output_bound: float,
    accountant: BudgetAccountant,
    rng: RandomSource,
) -> DecisionTree:
    """Release leaf predictions through the Laplace mechanism, in place.

    Each prediction is first clamped to [-output_bound, output_bound] (the
    value diameter, hence sensitivity 2 * output_bound), then noised with
    budget beta_pred * epsilon / (T * L) where L is the leaf count.  The
    noisy value is the released value and is not re-clamped here; consumers
    clamp at prediction time.
    """
    leaves = tree.leaves()
    eps_leaf = beta_pred * epsilon / (T * len(leaves))
    for leaf in leaves:
        clamped = min(max(leaf.prediction, -output_bound), output_bound)
        leaf.prediction = laplace_mechanism(
            clamped, 2.0 * output_bound, eps_leaf, accountant, rng, label="leaf"
        )
    tree.noised = True
    return tree


def tree_efficiency(node: Node, tree: DecisionTree, dataset: Dataset, weights: np.ndarray) -> float:
    """Diagnostic ``8 w(node) err(tree)^2 / 2^depth(node)``.

    ``w(node)`` is the normalized weight of examples reaching the node and
    ``err`` the unweighted 0/1 training error of the tree's sign
    predictions.  Strictly decreasing along any root-to-node path whenever
    positive.
    """
    weights = np.asarray(weights, dtype=float)
    total_w = float(weights.sum())
    node_w = _weight_reaching(tree.root, node, dataset.X, weights, np.arange(dataset.n_examples))
    if node_w is None:
        raise ValueError("node does not belong to the tree")
    margins = tree.predict_bins(dataset.X)
    labels = np.where(margins > 0.0, 1, -1)
    err = float(np.mean(labels != dataset.y))
    return 8.0 * (node_w / total_w) * err**2 / 2.0**node.depth


def _weight_reaching(current: Node, target: Node, X, weights, idx) -> float | None:
    if current is target:
        return float(weights[idx].sum()) if idx.size else 0.0
    if current.is_leaf:
        return None
    mask = X[:, current.split.attribute][idx] <= current.split.threshold_bin
    found = _weight_reaching(current.left, target, X, weights, idx[mask])
    if found is not None:
        return found
    return _weight_reaching(current.right, target, X, weights, idx[~mask])
