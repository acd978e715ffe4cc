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

A split is scored from level-wise histograms (one complex scatter-add per
attribute over (frontier leaf, bin) keys covers the whole level, summing a
row's weight and positive weight at once: a complex add is two independent
float adds, so the sums are those of one ``bincount`` per statistic) and from
alpha-free parts of each leaf's risk (``w``, ``sqrt(u (1 - u))`` and
``min(u, 1 - u)`` at ``u = w1 / w``): those of every candidate's children
are computed once per level, a live leaf's once when it is made.  The live
leaves' risks are kept for the alpha they were mixed at and mixed again
only when a split's alpha differs.  Every value is formed by the operations
a per-leaf ``bayes_risk`` evaluation would use, in its order, so the
released numbers carry the same bits.

A tied leaf (no training rows, or one class) is not scored: its candidates'
children all have risk 0, so a private split of it draws through
``exponential_mechanism_uniform``, the mechanism over equal utilities, bit for bit.
Its subtree is tied throughout and grows from the draws alone: its leaves carry
no rows, no statistics and no live slot of their own, only the slot of the tied
leaf it grew from, whose risk is +0.0 at every alpha, so the exact ``math.fsum``
of the live risks stands until an untied split or a new alpha.  The rows of
every tied subtree are routed to their leaves by one ``walk`` at the end, and a
reached tied leaf predicts the clamped link of its rows' one class.

A tree is a node table numbered breadth-first (``DecisionTree``); ``walk`` routes
rows through it, ``tables_to_dict`` and ``tables_from_dict`` write and read it, and a
forest stacks the same tables.  The tables hold only what a model releases.  A leaf's
training statistics (``w``, ``w1``, the errors of its majority label) live in
induction's frontier only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DataError, Dataset, candidate_splits
from .losses import LossSpec, canonical_link, malpha_combine, malpha_parts, sensitivity_bound
from .privacy import (
    BudgetAccountant,
    RandomSource,
    exponential_mechanism,
    exponential_mechanism_probabilities,
    exponential_mechanism_uniform,
    laplace_mechanism,
)

__all__ = [
    "Q_CLAMP",
    "LEAF_BIN",
    "TreePrivacy",
    "TreeConfig",
    "SplitRecord",
    "DecisionTree",
    "leaf_mask",
    "node_depths",
    "walk",
    "tables_to_dict",
    "tables_from_dict",
    "split_budget",
    "objective_calibration_alpha",
    "root_split_probabilities",
    "induce_tree",
    "noisify_leaves",
]

# Leaf class proportions are clamped away from {0, 1} before they go
# through the link, which diverges there.
Q_CLAMP = 1e-4

# The threshold of a leaf: no bin exceeds it, so a row that reaches a leaf stays there.
LEAF_BIN = np.iinfo(np.intp).max

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


def margin_labels(margins: np.ndarray) -> np.ndarray:
    """The label of each margin: +1 when positive, -1 otherwise (a zero margin is -1)."""
    return np.where(margins > 0.0, 1, -1)


def leaf_mask(child: np.ndarray) -> np.ndarray:
    """Which nodes of a ``child`` table (1-D, or stacked on leading axes) are leaves."""
    return child == np.arange(child.shape[-1])


def _level_ends(child: np.ndarray) -> list[int]:
    """The first node after each level of a breadth-first ``child`` table.

    A level's nodes are numbered together and the ``i``-th split's children are
    ``2i + 1`` and ``2i + 2``, so the level after one that ends before node ``e``
    ends before node ``1 + 2 * (splits before e)``.
    """
    splits, ends = np.flatnonzero(~leaf_mask(child)).tolist(), [1]
    while ends[-1] < len(child):
        ends.append(1 + 2 * bisect.bisect_left(splits, ends[-1]))
        if ends[-1] == ends[-2]:  # a level without splits, yet nodes after it
            raise ValueError("not a breadth-first child table")
    return ends


def node_depths(child: np.ndarray) -> np.ndarray:
    """The depth of each node of a breadth-first ``child`` table."""
    return np.searchsorted(_level_ends(child), np.arange(len(child)), side="right")


def walk(tree, X: np.ndarray, steps: int) -> np.ndarray:
    """The node each row of ``X`` is at after ``steps`` steps down each tree of ``tree``.

    ``tree`` holds node tables (``child``, ``attribute``, ``threshold_bin``), 1-D for one
    tree or stacked ``(T, N)`` for ``T``; the result is ``(m,)`` or ``(T, m)``.  A step takes
    a row at node ``k`` to ``child[k]``, plus 1 when its bin of ``attribute[k]`` exceeds
    ``threshold_bin[k]``; a leaf is its own child with a threshold no bin exceeds, so
    ``depth`` steps leave every row at its leaf.
    """
    X = np.asarray(X)
    m, child = X.shape[0], tree.child
    # flat tables: attribute j's bins start at j * m, tree t's nodes at t * N
    start = np.arange(0, child.size, child.shape[-1]).reshape(child.shape[:-1] + (1,))
    to, first = (child + start).ravel(), (tree.attribute * m).ravel()
    split_bin, bins = tree.threshold_bin.ravel(), np.asarray(X.T, order="C").ravel()
    rows, node = np.arange(m), start.repeat(m, axis=-1)
    for _ in range(steps):
        node = to.take(node) + (bins.take(first.take(node) + rows) > split_bin.take(node))
    return node - start


def tables_to_dict(child, attribute, threshold_bin, value) -> dict:
    """One tree's tables as nested nodes: ``{"leaf": {"prediction": v}}`` for a leaf, else
    ``{"split": {"attribute": j, "threshold_bin": b}, "left": ..., "right": ...}``."""
    child, attribute, threshold_bin, value = (
        a.tolist() for a in (child, attribute, threshold_bin, value)
    )
    nodes = [None] * len(child)
    for k in reversed(range(len(child))):  # children come after their parent
        c = child[k]
        nodes[k] = {"leaf": {"prediction": value[k]}} if c == k else {
            "split": {"attribute": attribute[k], "threshold_bin": threshold_bin[k]},
            "left": nodes[c],
            "right": nodes[c + 1],
        }
    return nodes[0]


def _split_int(split: dict, key: str) -> int:
    value = split[key]
    if type(value) is not int:  # a float or a boolean is not a split a fit makes
        raise ValueError(f"split {key} {value!r} is not a JSON integer")
    return value


def tables_from_dict(root: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ``tables_to_dict``, numbering the nodes breadth-first without recursion;
    a version-1 node's training statistics are not read."""
    nodes, rows = [root], []
    for k, node in enumerate(nodes):  # the children join the queue as their parent is read
        split = node.get("split")
        if split is None:
            prediction = node["leaf"]["prediction"]
            if type(prediction) not in (int, float):
                raise ValueError(f"leaf prediction {prediction!r} is not a JSON number")
            rows.append((k, 0, LEAF_BIN, float(prediction)))
        else:
            j, b = _split_int(split, "attribute"), _split_int(split, "threshold_bin")
            rows.append((len(nodes), j, b, 0.0))
            nodes += (node["left"], node["right"])
    return tuple(np.array(table) for table in zip(*rows))  # intp, intp, intp, float


@dataclass(frozen=True, slots=True)
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
    """One tree as a breadth-first node table (see ``walk``).

    Node ``k`` of a split sends a row to ``child[k]`` when its bin of ``attribute[k]`` is
    at most ``threshold_bin[k]``, else to ``child[k] + 1``.  A leaf is its own child, with
    threshold ``LEAF_BIN``, and ``value[k]`` is its released prediction (0 at a split).
    """

    child: np.ndarray
    attribute: np.ndarray
    threshold_bin: np.ndarray
    value: np.ndarray
    records: list[SplitRecord] = field(default_factory=list)
    prediction_alpha: float = 1.0
    noised: bool = False

    @property
    def alpha_trace(self) -> list[float]:
        return [r.alpha for r in self.records]

    @property
    def budget_trace(self) -> list[float]:
        return [r.epsilon for r in self.records if r.epsilon is not None]

    @property
    def depth(self) -> int:
        return len(_level_ends(self.child)) - 1

    def predict_bins(self, X: np.ndarray) -> np.ndarray:
        """Leaf predictions for quantized rows ``X``."""
        return self.value[walk(self, X, self.depth)]

    def to_dict(self) -> dict:
        return {
            "prediction_alpha": self.prediction_alpha,
            "noised": self.noised,
            "root": tables_to_dict(self.child, self.attribute, self.threshold_bin, self.value),
        }

    @staticmethod
    def from_dict(data: dict) -> "DecisionTree":
        prediction_alpha = float(data["prediction_alpha"])
        if not 0.0 <= prediction_alpha <= 1.0:
            raise ValueError(f"prediction_alpha {prediction_alpha} outside [0, 1]")
        if not isinstance(data["noised"], bool):
            raise ValueError(f"noised {data['noised']!r} is not a JSON boolean")
        tables = tables_from_dict(data["root"])
        return DecisionTree(*tables, prediction_alpha=prediction_alpha, noised=data["noised"])


def _leaf_parts(w: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Alpha-free parts ``(w, *malpha_parts(clip(w1 / w, 0, 1)))`` of each leaf's risk,
    stacked on a new first axis; all three are 0 for an empty leaf (``w <= 0``)."""
    nonempty = w > 0.0
    s, mn = malpha_parts(np.clip(w1 / np.where(nonempty, w, 1.0), 0.0, 1.0))
    return np.where(nonempty, np.stack([w, s, mn]), 0.0)


def _node_parts(w: float, w1: float) -> tuple[float, float, float]:
    """``_leaf_parts`` of one leaf's (w, w1), on python floats: the same
    correctly rounded operations without the per-call cost of small arrays."""
    if not w > 0.0:
        return 0.0, 0.0, 0.0
    if w1 == 0.0 or w1 == w:  # u is 0 or 1: zero parts, signed like w1 as malpha_parts signs them
        return w, 0.0 * w1, 0.0 * w1
    s, mn = malpha_parts(min(max(w1 / w, 0.0), 1.0))
    return w, float(s), float(mn)


def _risks(parts, alpha: float):
    """Unnormalized risk ``w * bayes_risk(w1 / w)`` of each leaf at ``alpha`` from its
    parts, with the bits of a scalar ``bayes_risk`` call (element-wise operations)."""
    w, s, mn = parts
    return w * malpha_combine(alpha, s, mn)


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
    and including the threshold.  Each row's (weight, positive weight) is one
    complex value, and each attribute takes one ``np.add.at`` of them into a
    (leaf, bin) table padded to the widest domain.  A complex add is two
    independent float adds and ``np.add.at`` visits the rows in ascending
    order, so every bucket, and every prefix sum over a leaf's bins, is the
    float a per-leaf ``bincount`` of each statistic would give.  Rows of no
    leaf fall into a spare slot that is dropped.
    """
    n_slots, nvs = len(leaf_rows), [dom.nvpriv for dom in domains]
    width = max(nvs)
    base = np.full(X.shape[0], n_slots * width, dtype=np.intp)  # the slot's first bucket
    for s, idx in enumerate(leaf_rows):
        base[idx] = s * width
    both = np.empty(X.shape[0], dtype=np.complex128)
    both.real, both.imag = weights, pos_weights
    hist = np.zeros((len(nvs), (n_slots + 1) * width), dtype=np.complex128)
    for j, table in enumerate(hist):
        np.add.at(table, base + X[:, j], both)
    hist = hist.reshape(len(nvs), n_slots + 1, width)[:, :n_slots]
    return tuple(
        np.concatenate([cum[j, :, : nv - 1] for j, nv in enumerate(nvs)], axis=1)
        for cum in (np.cumsum(hist.real, axis=2), np.cumsum(hist.imag, axis=2))
    )


def _candidate_parts(w_left, w1_left, w_leaf, w1_leaf) -> np.ndarray:
    """``_leaf_parts`` of both children of every candidate at every frontier leaf, from
    ``_frontier_histograms``' results and the leaves' own (w, w1): entry ``[:, s]``
    holds leaf ``s``'s left children, then its right ones."""
    return _leaf_parts(
        np.concatenate([w_left, w_leaf[:, None] - w_left], axis=1),
        np.concatenate([w1_left, w1_leaf[:, None] - w1_left], axis=1),
    )


def _candidate_utilities(parts: np.ndarray, alpha: float, risk_rest: float) -> np.ndarray:
    """Utility of every candidate of one leaf, from its ``_candidate_parts`` entry:
    the negative total risk of the grown tree."""
    child_risk = _risks(parts, alpha)
    k = child_risk.size // 2
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
    parts = _candidate_parts(
        w_left, w1_left, np.array([weights.sum()]), np.array([weights[pos].sum()])
    )
    utilities = _candidate_utilities(parts[:, 0], alpha, 0.0)
    delta = sensitivity_bound(LossSpec.malpha(alpha), dataset.n_examples)
    return exponential_mechanism_probabilities(utilities, delta, epsilon_node)


def induce_tree(
    dataset: Dataset,
    weights: np.ndarray,
    config: TreeConfig,
    accountant: BudgetAccountant | None = None,
    rng: RandomSource | None = None,
    *,
    _leaf_rows: np.ndarray | None = None,
) -> DecisionTree:
    """Grow one tree, breadth-first.

    Without privacy, each impure leaf above the depth cap is split at the
    candidate minimizing the unnormalized Bayes risk of the grown tree
    (ties go to the lowest (attribute, threshold)).  With privacy, every
    leaf is carried to the exact target depth and candidates are sampled
    by the exponential mechanism with the per-depth budget schedule.

    Leaf predictions apply the canonical link to the clamped class
    proportion; empty leaves predict 0.

    ``_leaf_rows`` is private to boosting: when given (one entry per training
    row), it receives each row's leaf id, so the training outputs need no
    second pass over ``X``; only the rows of tied subtrees are walked, once.
    The ids are never stored on the tree.
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

    def leaf_stats(idx: np.ndarray) -> tuple[float, float, int, bool]:
        # (w, w1, errors of the weighted majority label, tied); a weight tie goes negative
        # like a 0 margin.  Tied (no rows or one class) is by count: w1 == w can be rounding.
        if idx.size == 0:
            return 0.0, 0.0, 0, True
        wi, pm = weights[idx], pos_mask[idx]
        w, w1, n_pos = float(wi.sum()), float(wi[pm].sum()), int(np.count_nonzero(pm))
        return w, w1, (int(idx.size) - n_pos if w1 > w - w1 else n_pos), n_pos in (0, idx.size)

    # the leaf_stats of a leaf in a tied subtree: no rows, no errors, no weight of its own
    in_tied = (0.0, 0.0, 0, True)
    # (child, attribute, threshold_bin) of each node, numbered breadth-first as
    # induction grows them; a new node is a leaf
    nodes, records = [(0, 0, LEAF_BIN)], []
    root_stats = leaf_stats(np.arange(m))
    # _node_parts of the live leaves as three lists (w, s, mn) by slot; an untied split
    # puts its left child in the leaf's slot and its right child in a new one
    live = [[part] for part in _node_parts(*root_stats[:2])]
    live_risk, risk_alpha, risk_before = [], None, None  # risks at risk_alpha; their fsum or None
    error_count = root_stats[2]
    err_root = error_count / m

    oc = config.objective_calibration

    # (leaf id, its rows in ascending order or None in a tied subtree, its live slot,
    # its leaf_stats)
    frontier: list[tuple[int, np.ndarray | None, int, tuple]] = [(0, np.arange(m), 0, root_stats)]
    final: list[tuple[int, np.ndarray, int, tuple]] = []  # leaves that stopped early
    tied_rows = []  # the rows of each tied subtree, routed to its leaves after the last level
    for level in range(config.depth):
        if not private:  # pure leaves stay leaves
            pure = [w1 <= 0.0 or w1 >= w or idx.size == 0 for _, idx, _, (w, w1, *_) in frontier]
            final += [f for f, p in zip(frontier, pure) if p]
            frontier = [f for f, p in zip(frontier, pure) if not p]
        if not frontier:
            break
        # only untied leaves are scored, each taking the next candidate parts in
        # frontier order (without privacy the tied ones stopped above)
        scored = [(idx, stats) for _, idx, _, stats in frontier if not stats[3]]
        if scored:
            w_left, w1_left = _frontier_histograms(
                X, weights, pos_weights, [idx for idx, _ in scored], dataset.domains
            )
            leaf_w = np.array([stats[:2] for _, stats in scored]).T
            cand_parts = iter(_candidate_parts(w_left, w1_left, *leaf_w).swapaxes(0, 1))
        pv, label = config.privacy, f"split@{level}"  # eps is None without privacy
        eps = pv and split_budget(level, config.depth, pv.ensemble_size, pv.beta_tree, pv.epsilon)
        # every leaf of a private level is split, each by its own draw, in frontier order
        draws = rng.uniforms(len(frontier)).tolist() if private else [None] * len(frontier)
        next_frontier: list[tuple[int, np.ndarray | None, int, tuple]] = []
        for (k, idx, slot, stats), draw in zip(frontier, draws):
            if not oc:
                alpha_l = float(config.alpha)
            elif err_root > 0.0:
                alpha_l = objective_calibration_alpha(error_count / m, err_root)
            else:  # a pure root leaves the ratio undefined: the public start value
                alpha_l = 1.0

            if alpha_l != risk_alpha:
                live_risk = _risks(np.array(live), alpha_l).tolist()
                risk_alpha, risk_before = alpha_l, None
            if risk_before is None:
                risk_before = math.fsum(live_risk)
            risk_rest = risk_before - live_risk[slot]

            if stats[3]:  # tied
                # Every candidate of a tied leaf scores -(risk_rest + 0.0): on its rows
                # pos_weights is weights or 0, so each child's w1 is its w or 0 bit for
                # bit (w_leaf - w_left too), u is 0 or 1, and s, mn and the risks are 0.
                utility = -(risk_rest + 0.0)
                n = len(candidates)
                choice = exponential_mechanism_uniform(n, eps, accountant, draw, label)
            else:
                utilities = _candidate_utilities(next(cand_parts), alpha_l, risk_rest)
                if private:
                    delta = sensitivity_bound(LossSpec.malpha(alpha_l), m)
                    choice = exponential_mechanism(utilities, delta, eps, accountant, draw, label)
                else:
                    choice = int(np.argmax(utilities))
                utility = float(utilities[choice])

            cand = candidates[choice]
            left = len(nodes)
            nodes[k] = (left, cand.attribute, cand.threshold_bin)
            nodes += [(left, 0, LEAF_BIN), (left + 1, 0, LEAF_BIN)]
            records.append(SplitRecord(
                level, alpha_l, eps, risk_before, -utility, utility, cand.attribute,
                cand.threshold_bin,
            ))
            if stats[3]:  # the children share the slot, risk +0.0, and no errors
                if idx is not None and idx.size:
                    tied_rows.append(idx)
                next_frontier += [(left, None, slot, in_tied), (left + 1, None, slot, in_tied)]
                continue
            mask = X[:, cand.attribute][idx] <= cand.threshold_bin
            left_idx, right_idx = idx[mask], idx[~mask]
            left_stats, right_stats = leaf_stats(left_idx), leaf_stats(right_idx)
            next_frontier.append((left, left_idx, slot, left_stats))
            next_frontier.append((left + 1, right_idx, len(live[0]), right_stats))
            left_parts, right_parts = _node_parts(*left_stats[:2]), _node_parts(*right_stats[:2])
            for parts, left_part, right_part in zip(live, left_parts, right_parts):
                parts[slot] = left_part
                parts.append(right_part)
            live_risk[slot] = _risks(left_parts, alpha_l)
            live_risk.append(_risks(right_parts, alpha_l))
            error_count += left_stats[2] + right_stats[2] - stats[2]
            risk_before = None
        frontier = next_frontier

    if oc:
        prediction_alpha = records[-1].alpha if records else 1.0
    else:
        prediction_alpha = float(config.alpha)
    tree = DecisionTree(*np.array(nodes).T.copy(), np.zeros(len(nodes)), records, prediction_alpha)
    leaves = final + frontier
    held = [(k, w1 / w) for k, _, _, (w, w1, *_) in leaves if w > 0.0]  # (leaf, u = w1 / w)
    if tied_rows:  # one walk takes the rows of every tied subtree to its leaves
        rows = np.concatenate(tied_rows)
        reached = walk(tree, X[rows], config.depth)
        ids, first = np.unique(reached, return_index=True)
        held += zip(ids.tolist(), (y[rows[first]] == 1).astype(float).tolist())  # one class each
        if _leaf_rows is not None:
            _leaf_rows[rows] = reached
    if _leaf_rows is not None:
        for k, idx, _, _ in leaves:
            if idx is not None:
                _leaf_rows[idx] = k
    # one link call; its ufuncs round each leaf as a scalar call does; empty leaves keep 0
    q = np.clip([u for _, u in held], Q_CLAMP, 1.0 - Q_CLAMP)
    tree.value[[k for k, _ in held]] = canonical_link(LossSpec.malpha(prediction_alpha), q)
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
    clamp at prediction time.  Each leaf is its own release with its own
    ledger entry, and the leaves' uniforms come from one ``rng.uniforms``
    call, leaf after leaf.
    """
    leaves = np.flatnonzero(leaf_mask(tree.child))  # a complete tree's leaf ids run left to right
    clamped = np.clip(tree.value[leaves], -output_bound, output_bound)[:, None]
    eps_leaf = beta_pred * epsilon / (T * len(leaves))
    noisy = laplace_mechanism(clamped, 2.0 * output_bound, eps_leaf, accountant,
                              rng.uniforms(len(leaves))[:, None], "leaf")
    tree.value[leaves] = noisy[:, 0]
    tree.noised = True
    return tree

