"""Top-down decision tree induction minimizing a Bayes risk.

Trees are grown breadth-first over a public, data-independent candidate
grid.  Without privacy, every impure leaf above the depth cap is split at
the risk-minimizing candidate.  With privacy, every leaf is split to the
exact target depth, candidates are drawn through the exponential mechanism
with a per-depth budget schedule, and leaf predictions are released through
the Laplace mechanism after clamping to the output bound: a private
``induce_tree`` spends its tree's whole share, epsilon / T, and returns what
a model releases.

Objective calibration ties the loss parameter to training progress: each
split uses ``alpha = err(current tree) / err(root)``, so induction starts
at the Matsushita risk and drifts toward the 0/1 risk as the tree fits.

A split is scored from level-wise histograms and from alpha-free parts of each
child's risk (``w``, ``sqrt(u (1 - u))`` and ``min(u, 1 - u)`` at ``u = w1 / w``),
computed once per level.  A candidate's utility is the negative risk of its two
children: the rest of the tree adds the same risk to every candidate of a leaf,
and neither the argmax nor the exponential mechanism changes when every utility
moves by one constant.  The histograms follow the sibling rule (as in LightGBM):
of two children the next level scores, the one with fewer rows (the left on a
tie) is binned from its rows, a row's weight and positive weight summed at once
as one complex value (two independent float adds, so the bins are those of one
``bincount`` per statistic), and the other's bins are its parent's minus its
sibling's.  A derived left sum is within ``(n + nv + 1) 2**-52 w`` of a
``bincount``'s, for ``nv`` bins and a parent of ``n`` rows and weight ``w`` binned
from its rows (a derived parent's bound adds).  So a utility can differ from a
direct evaluation's only through sums rounded within that bound, and a split choice
only between candidates tied within it; every other value is formed by the
operations of a per-leaf ``bayes_risk`` evaluation, in its order.

A tied leaf (no training rows, or one class) is not scored: its candidates'
children all have risk 0, so their utilities are equal.  With privacy its subtree,
marked in a mask over the complete heap, grows from the draws alone, and one ``walk``
at the end routes its rows to their leaves, where a reached tied leaf predicts the
clamped link of its rows' one class.  A private level pays for its draws in one
ledger call and draws its scored leaves in runs of equal alpha, its tied nodes at once.

A tree is a node table numbered breadth-first (``DecisionTree``); ``walk`` routes
rows through it, ``tables_to_nodes`` and ``tables_from_nodes`` write and read it as one
list of its nodes in that order, and a forest stacks the same tables.  The tables hold
only what a model releases.  A leaf's training statistics (``w``, ``w1``, the errors of
its majority label) live in induction's frontier only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DataError, Dataset, candidate_splits
from .losses import LossSpec, canonical_link, malpha_combine, malpha_parts, sensitivity_bound
from .privacy import BudgetAccountant, RandomSource, _select, laplace_mechanism

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
    "tables_to_nodes",
    "tables_from_nodes",
    "nodes_from_nested",
    "split_budget",
    "objective_calibration_alpha",
    "induce_tree",
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

    ``epsilon`` is the whole run's budget; each tree draws epsilon / T
    (``T = ensemble_size``), a share ``beta_tree`` for node selection and the
    rest for leaf releases.
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
        if not 0.0 < self.output_bound < math.inf:
            raise ValueError("output_bound must be positive and finite")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")


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


def _child_table(split: np.ndarray) -> np.ndarray:
    """The ``child`` table of a tree whose nodes split where ``split`` (see ``_level_ends``)."""
    return np.where(split, 2 * np.cumsum(split) - 1, np.arange(split.size))


def _complete_child(depth: int) -> np.ndarray:
    """The ``child`` table of a complete depth-``depth`` tree: the heap."""
    return _child_table(np.arange(2 ** (depth + 1) - 1) < 2**depth - 1)


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


def tables_to_nodes(child, attribute, threshold_bin, value) -> list:
    """One tree's tables as its nodes, breadth-first: ``[attribute, threshold_bin]`` at a
    split, the released value at a leaf."""
    return [[j, b] if c != k else v for k, (c, j, b, v) in enumerate(zip(
        child.tolist(), attribute.tolist(), threshold_bin.tolist(), value.tolist()))]


def tables_from_nodes(nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ``tables_to_nodes``.  A split is two JSON integers and a leaf a JSON
    number (a boolean is neither), and ``2 s + 1`` nodes of ``s`` splits whose levels
    ``_level_ends`` walks are a tree: each node is reached once, after its parent."""
    if type(nodes) is not list:
        raise ValueError(f"a tree is a list of nodes, not a {type(nodes).__name__}")
    for node in nodes:
        if type(node) is list:
            if len(node) != 2 or any(type(v) is not int for v in node):
                raise ValueError(f"split {node!r} is not two JSON integers")
        elif type(node) not in (int, float):
            raise ValueError(f"leaf prediction {node!r} is not a JSON number")
    split = [type(node) is list for node in nodes]
    if len(nodes) != 2 * sum(split) + 1:
        raise ValueError(f"{len(nodes)} nodes for {sum(split)} splits")
    child = _child_table(np.array(split))
    _level_ends(child)
    pairs = np.array([node if s else (0, LEAF_BIN) for s, node in zip(split, nodes)],
                     dtype=np.intp)
    value = np.array([0.0 if s else float(node) for s, node in zip(split, nodes)])
    return child, pairs[:, 0], pairs[:, 1], value


def nodes_from_nested(root: dict) -> list:
    """The nodes of a version-1 or version-2 tree, ``{"leaf": {"prediction": v}}`` at a
    leaf, else ``{"split": {"attribute": j, "threshold_bin": b}, "left": ..., "right":
    ...}``, breadth-first without recursion; a version-1 node's statistics are not read."""
    queue, nodes = [root], []
    for node in queue:  # the children join the queue as their parent is read
        split = node.get("split")
        if split is None:
            nodes.append(node["leaf"]["prediction"])
        else:
            nodes.append([split["attribute"], split["threshold_bin"]])
            queue += (node["left"], node["right"])
    return nodes


@dataclass(frozen=True, slots=True)
class SplitRecord:
    """Diagnostics for one split, recorded at selection time."""

    depth: int
    alpha: float
    epsilon: float | None
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

    @property
    def alpha_trace(self) -> list[float]:
        return [r.alpha for r in self.records]

    @property
    def depth(self) -> int:
        return len(_level_ends(self.child)) - 1

    def predict_bins(self, X: np.ndarray) -> np.ndarray:
        """Leaf predictions for quantized rows ``X``."""
        return self.value[walk(self, X, self.depth)]


def _leaf_parts(w: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Alpha-free parts ``(w, *malpha_parts(clip(w1 / w, 0, 1)))`` of each leaf's risk,
    stacked on a new first axis; all three are 0 for an empty leaf (``w <= 0``)."""
    nonempty = w > 0.0
    s, mn = malpha_parts(np.clip(w1 / np.where(nonempty, w, 1.0), 0.0, 1.0))
    return np.where(nonempty, np.stack([w, s, mn]), 0.0)


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


def _level_bins(X, both, direct, derived, parents, width) -> np.ndarray:
    """Complex (weight, positive weight) bins ``(slot, attribute, bin)`` of a level's
    scored leaves, each domain's bins padded to ``width``.  ``direct`` holds ``(slot,
    rows)`` of the leaves binned from their rows (ascending), by one ``np.add.at`` per
    attribute over those rows alone, which visits them in order.  ``derived`` holds
    ``(slot, parent, sibling)``: that leaf's bins are slot ``parent`` of the previous
    level's ``parents`` minus slot ``sibling``, a direct one, in one subtraction.  All
    the rows (the root) read the columns in place: each bin still adds its rows in order."""
    slots, rows = zip(*direct)
    bins = np.zeros((len(direct) + len(derived), X.shape[1], width), dtype=np.complex128)
    keys = (np.array(slots) * bins[0].size).repeat([idx.size for idx in rows])
    rows, flat = np.concatenate(rows), bins.reshape(-1)
    if rows.size == len(both):  # each row's key, in row order
        keys[rows], values, columns = keys.copy(), both, X.T
    else:
        values, columns = both[rows], (column.take(rows) for column in X.T)
    for j, column in enumerate(columns):  # attribute j's bins start at j * width of a slot
        np.add.at(flat[j * width :], keys + column, values)
    if derived:
        slot, parent, sibling = np.array(derived).T
        bins[slot] = parents[parent] - bins[sibling]
    return bins


def _left_sums(bins: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left-child (weight, positive weight) of every candidate at every slot of
    ``_level_bins``' bins, candidate ``c`` at column ``attribute * width + threshold_bin``
    of ``columns``: a left child collects the bins up to and including the threshold."""
    left = bins.cumsum(axis=2).reshape(len(bins), -1)[:, columns]  # one cumsum per statistic
    return left.real, left.imag


def _candidate_parts(w_left, w1_left, w_leaf, w1_leaf) -> np.ndarray:
    """``_leaf_parts`` of both children of every candidate at every frontier leaf, from
    ``_left_sums`` and the leaves' own (w, w1): entry ``[:, s]``
    holds leaf ``s``'s left children, then its right ones."""
    return _leaf_parts(
        np.concatenate([w_left, w_leaf[:, None] - w_left], axis=1),
        np.concatenate([w1_left, w1_leaf[:, None] - w1_left], axis=1),
    )


def _candidate_utilities(parts: np.ndarray, alpha: float) -> np.ndarray:
    """Utility of every candidate of the leaves of ``_candidate_parts`` entries (``[:, s]``
    of one leaf, ``[:, a:b]`` of several): the negative risk of its two children."""
    child_risk = _risks(parts, alpha)
    k = child_risk.shape[-1] // 2
    return -(child_risk[..., :k] + child_risk[..., k:])


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
    candidate minimizing the unnormalized Bayes risk of its two children,
    which ranks candidates as the risk of the grown tree does (ties go to the
    lowest (attribute, threshold)).  With privacy, every leaf is carried to
    the exact target depth and candidates are sampled by the exponential
    mechanism with the per-depth budget schedule: the draws of one
    ``exponential_mechanism`` call per node, but spent and drawn in batches per level.

    Leaf predictions apply the canonical link to the clamped class
    proportion; empty leaves predict 0.  A private tree is released whole: after
    the split draws, each leaf is clamped to [-M, M] for ``M = output_bound``
    (sensitivity 2M) and goes through one ``laplace_mechanism`` call with budget
    (1 - beta_tree) * epsilon / (ensemble_size * L) for L leaves, each with its own
    ledger entry and the uniform of its heap position.  The noisy value is not
    re-clamped; consumers clamp at prediction time.

    ``_leaf_rows`` is private to boosting: when given (one entry per training
    row), it receives each row's leaf id, so the training outputs need no
    second pass over ``X``; only the rows of tied subtrees are walked, once.
    The ids are never stored on the tree.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dataset.n_examples,):
        raise ValueError("weights must have one entry per example")
    if not np.all((weights > 0.0) & np.isfinite(weights)):
        raise ValueError("weights must be finite and strictly positive")
    candidates = candidate_splits(dataset)
    if not candidates:
        raise DataError("no non-trivial split candidates")
    pv = config.privacy
    private = pv is not None
    if private and (accountant is None or rng is None):
        raise ValueError("private induction needs an accountant and a random source")

    X, y = dataset.X, dataset.y
    m = dataset.n_examples
    pos_mask = y == 1
    both = np.empty(m, dtype=np.complex128)  # each row's (weight, positive weight)
    both.real, both.imag = weights, weights * pos_mask
    width = max(dom.nvpriv for dom in dataset.domains)  # of a slot's bins per attribute
    table = np.array([(c.attribute, c.threshold_bin) for c in candidates])
    columns = table[:, 0] * width + table[:, 1]

    def leaf_stats(idx: np.ndarray) -> tuple[float, float, int, bool]:
        # (w, w1, errors of the weighted majority label, tied); a weight tie goes negative
        # like a 0 margin.  Tied (no rows or one class) is by count: w1 == w can be rounding.
        if idx.size == 0:
            return 0.0, 0.0, 0, True
        wi, pm = weights[idx], pos_mask[idx]
        w, w1, n_pos = float(wi.sum()), float(wi[pm].sum()), int(np.count_nonzero(pm))
        return w, w1, (int(idx.size) - n_pos if w1 > w - w1 else n_pos), n_pos in (0, idx.size)

    def stops(stats) -> bool:  # a leaf its level does not score: tied, or pure without privacy
        return stats[3] or (not private and stats[1] >= stats[0])

    # a private tree is the complete heap: node k draws with draws[k]; tied[k] marks a tied subtree
    n_heap = 2 ** (config.depth + 1) - 1 if private else 0
    draws, tied = private and rng.uniforms(n_heap), np.zeros(n_heap, dtype=bool)
    pick = np.full(1, -1)  # the candidate of each node, breadth-first; -1 at a leaf
    records, final, tied_rows = [], [], []  # final: leaves that stopped early, no privacy
    root_stats = leaf_stats(np.arange(m))
    error_count = root_stats[2]
    err_root = error_count / m
    oc = config.objective_calibration

    def calibrated() -> tuple[float, float | None]:
        # the next split's alpha (under OC a pure root leaves the ratio undefined: the
        # public start value) and, with privacy, the sensitivity of its utilities
        alpha = float(config.alpha) if not oc else (
            objective_calibration_alpha(error_count / m, err_root) if err_root > 0.0 else 1.0)
        return alpha, pv and sensitivity_bound(LossSpec.malpha(alpha), m)

    alpha_l, delta = calibrated()  # recomputed only when a split changes error_count
    # (leaf id, its rows in ascending order, its leaf_stats)
    frontier: list[tuple[int, np.ndarray, tuple]] = [(0, np.arange(m), root_stats)]
    # how the next level's scored leaves get their _level_bins: the root from its rows
    direct, derived, bins = [(0, np.arange(m))], [], None
    lo, n_nodes = 0, 1  # the level's nodes are lo, ..., n_nodes - 1
    for level in range(config.depth):
        stopped = [f for f in frontier if stops(f[2])]
        frontier = [f for f in frontier if not stops(f[2])]  # scored, slot after slot
        if private:  # a tied leaf marks its subtree, whose rows one walk routes at the end
            tied[[k for k, _, _ in stopped]] = True
            tied_rows += [idx for _, idx, _ in stopped if idx.size]
        else:
            final += stopped
        level_tied = lo + np.flatnonzero(tied[lo:n_nodes])
        if not frontier and not level_tied.size:
            break
        if frontier:
            bins = _level_bins(X, both, direct, derived, bins, width)
            leaf_w = np.array([stats[:2] for _, _, stats in frontier]).T
            cand_parts = _candidate_parts(*_left_sums(bins, columns), *leaf_w)
        ids = np.array([k for k, _, _ in frontier], dtype=np.intp)
        direct, derived, slot, next_frontier = [], [], 0, []
        eps = pv and split_budget(level, config.depth, pv.ensemble_size, pv.beta_tree, pv.epsilon)
        n_splits = n_nodes - lo if private else len(frontier)
        if private:  # each node is split by one draw, paid for first
            accountant.spend(f"split@{level}", eps, n_splits)
        level_records = [None] * (n_nodes - lo)
        while slot < len(frontier):
            # a run: the rest of the level drawn in one batch at the current alpha (greedy: one
            # leaf's argmax), taken in frontier order until a split changes the error count
            end = len(frontier) if private else slot + 1
            utilities = _candidate_utilities(cand_parts[:, slot:end], alpha_l)
            choices = (_select(utilities, delta, eps, draws[ids[slot:end]]) if private
                       else np.argmax(utilities, axis=-1)).tolist()
            for row, choice in zip(utilities, choices):
                (k, idx, stats), cand = frontier[slot], candidates[choice]
                utility, pick[k] = float(row[choice]), choice
                level_records[k - lo] = SplitRecord(level, alpha_l, eps, utility, cand.attribute,
                                                    cand.threshold_bin)
                mask = X[:, cand.attribute][idx] <= cand.threshold_bin
                left_idx, right_idx = idx[mask], idx[~mask]
                left_stats, right_stats = leaf_stats(left_idx), leaf_stats(right_idx)
                left = n_nodes + 2 * (k - lo if private else slot)  # split i: n_nodes + 2i
                next_frontier += [(left, left_idx, left_stats), (left + 1, right_idx, right_stats)]
                # of two children the next level scores, the one with fewer rows (the left
                # on a tie) is binned from its rows and the other derived from this slot
                first = len(direct) + len(derived)  # the next level's slot of its first child
                scores_left, scores_right = not stops(left_stats), not stops(right_stats)
                if scores_left and scores_right:
                    small = int(right_idx.size < left_idx.size)
                    direct.append((first + small, right_idx if small else left_idx))
                    derived.append((first + 1 - small, slot, first + small))
                elif scores_left or scores_right:
                    direct.append((first, left_idx if scores_left else right_idx))
                slot += 1
                if oc and (change := left_stats[2] + right_stats[2] - stats[2]):
                    error_count += change
                    alpha_l, delta = calibrated()
                    break
        if level_tied.size:
            # every candidate of a tied node scores -(0.0 + 0.0) (its children's w1 is their w
            # or 0), and equal utilities give each 1 / n under any sensitivity bound
            choices = _select(np.zeros((level_tied.size, len(candidates))),
                              sensitivity_bound(LossSpec.malpha(1.0), m), eps, draws[level_tied])
            pick[level_tied], tied[2 * level_tied + 1], tied[2 * level_tied + 2] = choices, 1, 1
            in_force = [level_records[k - lo].alpha for k in ids] + [alpha_l]  # at each slot
            alphas = np.take(in_force, np.searchsorted(ids, level_tied)).tolist()
            for k, a, (j, b) in zip((level_tied - lo).tolist(), alphas, table[choices].tolist()):
                level_records[k] = SplitRecord(level, a, eps, -0.0, j, b)
        records += [record for record in level_records if record is not None]
        pick = np.concatenate([pick, np.full(2 * n_splits, -1)])
        lo, n_nodes, frontier = n_nodes, n_nodes + 2 * n_splits, next_frontier

    prediction_alpha = (records[-1].alpha if records else 1.0) if oc else float(config.alpha)
    split = pick >= 0
    attribute, threshold_bin = np.where(split, table[pick].T, [[0], [LEAF_BIN]])
    tree = DecisionTree(_child_table(split), attribute, threshold_bin, np.zeros(split.size),
                        records)
    leaves = final + frontier
    held = [(k, w1 / w) for k, _, (w, w1, *_) in leaves if w > 0.0]  # (leaf, u = w1 / w)
    if tied_rows:  # one walk takes the rows of every tied subtree to its leaves
        rows = np.concatenate(tied_rows)
        reached = walk(tree, X[rows], config.depth)
        ids, first = np.unique(reached, return_index=True)
        held += zip(ids.tolist(), (y[rows[first]] == 1).astype(float).tolist())  # one class each
        if _leaf_rows is not None:
            _leaf_rows[rows] = reached
    if _leaf_rows is not None:
        for k, idx, _ in leaves:
            _leaf_rows[idx] = k
    # one link call; its ufuncs round each leaf as a scalar call does; empty leaves keep 0
    q = np.clip([u for _, u in held], Q_CLAMP, 1.0 - Q_CLAMP)
    tree.value[[k for k, _ in held]] = canonical_link(LossSpec.malpha(prediction_alpha), q)
    if private:  # a complete tree's leaf ids run left to right, after the splits
        M, leaves = pv.output_bound, np.flatnonzero(leaf_mask(tree.child))
        eps_leaf = (1.0 - pv.beta_tree) * pv.epsilon / (pv.ensemble_size * len(leaves))
        tree.value[leaves] = laplace_mechanism(
            np.clip(tree.value[leaves], -M, M)[:, None], 2.0 * M, eps_leaf, accountant,
            draws[leaves][:, None], "leaf",
        )[:, 0]
    return tree
