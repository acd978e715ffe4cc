"""Tree induction: greedy and private splits, budgets, links at leaves.

The greedy examples are cross-checked by exhaustive enumeration of all
depth-limited trees over the candidate grid, built independently of the
induction code.
"""

import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpboost.tree as tree_module
from dpboost.dataset import AttributeDomain, Dataset, candidate_splits, make_blocks_dataset
from dpboost.ensemble import boost_fit, predict, rf_fit
from dpboost.losses import LossSpec, bayes_risk, canonical_link, sensitivity_bound
from dpboost.privacy import (
    BudgetAccountant,
    RandomSource,
    exponential_mechanism_probabilities,
    laplace_mechanism,
)
from dpboost.tree import (
    DecisionTree,
    Q_CLAMP,
    TreeConfig,
    TreePrivacy,
    induce_tree,
    leaf_mask,
    node_depths,
    noisify_leaves,
    objective_calibration_alpha,
    root_split_probabilities,
    margin_labels,
    split_budget,
    walk,
)


def unnormalized_risk(tree, dataset, weights, alpha) -> float:
    """Sum over leaves of ``w(leaf) * bayes_risk(w1(leaf) / w(leaf))``, with each leaf's
    sums taken over the training rows that reach it and induction's risk arithmetic.
    Empty leaves contribute nothing."""
    weights = np.asarray(weights, dtype=float)
    pos = dataset.y == 1
    leaf = walk(tree, dataset.X, tree.depth)
    reaches = [leaf == k for k in np.unique(leaf)]
    w = np.array([weights[rows].sum() for rows in reaches])
    w1 = np.array([weights[rows & pos].sum() for rows in reaches])
    return math.fsum(tree_module._risks(tree_module._leaf_parts(w, w1), alpha).tolist())


def tree_efficiency(node, tree, dataset, weights) -> float:
    """Diagnostic ``8 w(node) err(tree)^2 / 2^depth(node)`` of node id ``node``.

    ``w(node)`` is the normalized weight of examples reaching the node and
    ``err`` the unweighted 0/1 training error of the tree's sign
    predictions.  Strictly decreasing along any root-to-node path whenever
    positive.
    """
    weights = np.asarray(weights, dtype=float)
    if not 0 <= node < len(tree.child):
        raise ValueError("node does not belong to the tree")
    depth = int(node_depths(tree.child)[node])
    node_w = float(weights[walk(tree, dataset.X, depth) == node].sum())
    err = float(np.mean(margin_labels(tree.predict_bins(dataset.X)) != dataset.y))
    return 8.0 * (node_w / float(weights.sum())) * err**2 / 2.0**depth


def _xor_dataset():
    doms = [AttributeDomain("a", 0.0, 1.0, 2), AttributeDomain("b", 0.0, 1.0, 2)]
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    y = np.array([-1, 1, 1, -1])
    return Dataset(X, y, doms)


def _risk_of_partition(parts, alpha):
    # parts: list of (weights, labels) per leaf
    spec = LossSpec.malpha(alpha)
    total = 0.0
    for w, y in parts:
        wsum = float(np.sum(w))
        if wsum <= 0:
            continue
        w1 = float(np.sum(w[y == 1]))
        total += wsum * float(bayes_risk(spec, w1 / wsum))
    return total


def _enumerate_depth2_zero_error(ds):
    # Independent oracle: try every (root, left, right) candidate triple and
    # report whether some depth-2 tree classifies the data perfectly by
    # majority leaf votes.
    cands = candidate_splits(ds)
    for root, lc, rc in itertools.product(cands, cands, cands):
        go_right = ds.X[:, root.attribute] > root.threshold_bin
        wrong = 0
        for side, sub in ((False, lc), (True, rc)):
            idx = np.flatnonzero(go_right == side)
            sub_right = ds.X[idx, sub.attribute] > sub.threshold_bin
            for leaf_side in (False, True):
                leaf = idx[sub_right == leaf_side]
                if leaf.size:
                    labels = ds.y[leaf]
                    wrong += min(np.sum(labels == 1), np.sum(labels == -1))
        if wrong == 0:
            return True
    return False


class TestSplitBudget:
    def test_values(self):
        assert split_budget(0, 4, 10, 0.5, 1.0) == pytest.approx(0.0125, abs=1e-15)
        assert split_budget(3, 4, 1, 0.9, 2.0) == pytest.approx(0.05625, abs=1e-15)

    @pytest.mark.parametrize("d,T,beta,eps", [(4, 10, 0.5, 1.0), (3, 7, 0.2, 5.0), (1, 1, 0.9, 0.01)])
    def test_geometric_sum_is_per_tree_share(self, d, T, beta, eps):
        total = math.fsum(2**k * split_budget(k, d, T, beta, eps) for k in range(d))
        assert total == pytest.approx(beta * eps / T, abs=1e-15)

    def test_depth_range(self):
        with pytest.raises(ValueError):
            split_budget(4, 4, 1, 0.5, 1.0)
        with pytest.raises(ValueError):
            split_budget(-1, 4, 1, 0.5, 1.0)


class TestObjectiveCalibrationAlpha:
    def test_values(self):
        assert objective_calibration_alpha(0.4, 0.4) == 1.0
        assert objective_calibration_alpha(0.1, 0.4) == pytest.approx(0.25)
        assert objective_calibration_alpha(0.0, 0.4) == 0.0
        assert objective_calibration_alpha(0.5, 0.4) == 1.0  # clamped

    def test_requires_positive_root_error(self):
        with pytest.raises(ValueError):
            objective_calibration_alpha(0.1, 0.0)


class TestUnnormalizedRisk:
    def test_single_leaf_values(self):
        doms = [AttributeDomain("x", 0.0, 1.0, 2)]
        X = np.zeros((4, 1), dtype=int)
        ds = Dataset(X, np.array([1, 1, -1, -1]), doms)
        tree = induce_tree(ds, np.ones(4), TreeConfig(depth=1, alpha=1.0))
        # the balanced 4-example root has risk 4 * risk(1/2) = 4 before any
        # split; a no-gain split keeps it
        assert unnormalized_risk(tree, ds, np.ones(4), 1.0) == pytest.approx(4.0)

    def test_three_examples_one_positive(self):
        doms = [AttributeDomain("x", 0.0, 1.0, 2)]
        ds = Dataset(np.zeros((3, 1), dtype=int), np.array([1, -1, -1]), doms)
        cfg = TreeConfig(depth=1, alpha=1.0)
        tree = induce_tree(ds, np.ones(3), cfg)
        # all examples share a feature vector: one child holds everything
        assert unnormalized_risk(tree, ds, np.ones(3), 1.0) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12
        )

    def test_pure_leaf_zero(self):
        doms = [AttributeDomain("x", 0.0, 1.0, 2)]
        ds = Dataset(np.zeros((3, 1), dtype=int), np.array([1, 1, 1]), doms)
        tree = induce_tree(ds, np.ones(3), TreeConfig(depth=2, alpha=1.0))
        assert unnormalized_risk(tree, ds, np.ones(3), 1.0) == 0.0
        assert tree.child.tolist() == [0]  # pure root is never split


def _assert_leaves_use_clamped_link(tree, ds):
    # every leaf predicts the link of its unit-weight class proportion, clamped
    spec = LossSpec.malpha(tree.prediction_alpha)
    reached = walk(tree, ds.X, tree.depth)
    for k in np.flatnonzero(leaf_mask(tree.child)):
        if not np.any(reached == k):  # no training row: no weight
            assert tree.value[k] == 0.0
        else:
            q = min(max(np.mean(ds.y[reached == k] == 1), Q_CLAMP), 1 - Q_CLAMP)
            assert tree.value[k] == pytest.approx(float(canonical_link(spec, q)))


class TestGreedyInduction:
    def test_xor_reaches_zero_error(self):
        ds = _xor_dataset()
        assert _enumerate_depth2_zero_error(ds)  # oracle: a perfect tree exists
        tree = induce_tree(ds, np.ones(4), TreeConfig(depth=2, alpha=1.0))
        preds = tree.predict_bins(ds.X)
        assert np.all(np.sign(preds) == ds.y)
        risks = [r.risk_after for r in tree.records]
        assert risks[-1] == pytest.approx(0.0, abs=1e-12)
        # the risk trace never increases (root split of xor is a tie)
        for rec in tree.records:
            assert rec.risk_after <= rec.risk_before + 1e-12

    def test_separable_root_split(self):
        # labels depend only on attribute 0 at a known threshold
        rng = RandomSource(17)
        doms = [AttributeDomain("a", 0.0, 9.0, 10), AttributeDomain("b", 0.0, 9.0, 10)]
        X = np.array([[rng.randint(10), rng.randint(10)] for _ in range(60)])
        y = np.where(X[:, 0] <= 3, -1, 1)
        ds = Dataset(X, y, doms)
        tree = induce_tree(ds, np.ones(60), TreeConfig(depth=1, alpha=1.0))
        assert tree.attribute[0] == 0
        assert tree.threshold_bin[0] == 3
        # exhaustive check: no candidate does better
        best = min(
            _risk_of_partition(
                [
                    (np.ones(np.sum(X[:, c.attribute] <= c.threshold_bin)),
                     y[X[:, c.attribute] <= c.threshold_bin]),
                    (np.ones(np.sum(X[:, c.attribute] > c.threshold_bin)),
                     y[X[:, c.attribute] > c.threshold_bin]),
                ],
                1.0,
            )
            for c in candidate_splits(ds)
        )
        assert tree.records[0].risk_after == pytest.approx(best, abs=1e-9)

    def test_risk_never_increases_along_records(self):
        ds = make_blocks_dataset(200, 4, seed=3)
        for alpha in (0.3, 1.0, "oc"):
            tree = induce_tree(ds, np.full(200, 0.5), TreeConfig(depth=4, alpha=alpha))
            for rec in tree.records:
                assert rec.risk_after <= rec.risk_before + 1e-9

    def test_consecutive_risks_chain_at_fixed_alpha(self):
        ds = make_blocks_dataset(150, 3, seed=8)
        tree = induce_tree(ds, np.ones(150), TreeConfig(depth=3, alpha=1.0))
        for prev, nxt in zip(tree.records, tree.records[1:]):
            assert nxt.risk_before == pytest.approx(prev.risk_after, abs=1e-9)

    def test_no_pure_leaf_has_children(self):
        ds = make_blocks_dataset(200, 4, seed=3)
        tree = induce_tree(ds, np.ones(200), TreeConfig(depth=6, alpha=1.0))
        depths = node_depths(tree.child)
        for k in np.flatnonzero(~leaf_mask(tree.child)):
            # the training rows that reach a split hold both classes
            idx = np.flatnonzero(walk(tree, ds.X, depths[k]) == k)
            assert set(ds.y[idx]) == {-1, 1}

    def test_leaf_predictions_use_clamped_link(self):
        ds = make_blocks_dataset(200, 4, seed=3)
        tree = induce_tree(ds, np.ones(200), TreeConfig(depth=2, alpha=1.0))
        _assert_leaves_use_clamped_link(tree, ds)

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        q=st.lists(
            st.one_of(st.sampled_from([Q_CLAMP, 0.5, 1.0 - Q_CLAMP]),
                      st.floats(Q_CLAMP, 1.0 - Q_CLAMP)),
            max_size=40,
        ),
    )
    def test_one_link_call_equals_a_call_per_leaf(self, alpha, q):
        # induction links every leaf of a tree in one call
        spec = LossSpec.malpha(alpha)
        batched = canonical_link(spec, np.array(q, dtype=float))
        per_leaf = [canonical_link(spec, float(u)) for u in q]
        assert batched.tobytes() == np.array(per_leaf, dtype=float).tobytes()

    def test_objective_calibration_trace_non_increasing(self):
        ds = make_blocks_dataset(300, 4, seed=5)
        tree = induce_tree(ds, np.ones(300), TreeConfig(depth=4, alpha="oc"))
        trace = tree.alpha_trace
        assert trace[0] == 1.0  # root split at the Matsushita end
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


class TestPrivateInduction:
    def _private_config(self, depth, T, eps, beta=0.5, alpha=1.0, M=10.0):
        return TreeConfig(
            depth=depth,
            alpha=alpha,
            privacy=TreePrivacy(epsilon=eps, beta_tree=beta, output_bound=M, ensemble_size=T),
        )

    def test_all_leaves_at_exact_depth(self):
        ds = make_blocks_dataset(100, 3, seed=2)
        cfg = self._private_config(3, 1, 1.0)
        tree = induce_tree(ds, np.ones(100), cfg, BudgetAccountant(1.0), RandomSource(0))
        leaves = leaf_mask(tree.child)
        assert set(node_depths(tree.child)[leaves].tolist()) == {3}
        assert np.count_nonzero(leaves) == 8

    def test_budget_trace_sums_to_tree_share(self):
        ds = make_blocks_dataset(100, 3, seed=2)
        cfg = self._private_config(2, 1, 1.0, beta=0.5)
        acc = BudgetAccountant(1.0)
        tree = induce_tree(ds, np.ones(100), cfg, acc, RandomSource(0))
        assert math.fsum(tree.budget_trace) == pytest.approx(0.5, abs=1e-12)
        assert [r.epsilon for r in tree.records] == [
            split_budget(r.depth, 2, 1, 0.5, 1.0) for r in tree.records
        ]

    def test_leaf_predictions_use_clamped_link(self):
        # this fit splits empty leaves and one-class leaves of both classes down to depth 6
        ds = make_blocks_dataset(200, 4, seed=3)
        cfg = self._private_config(depth=6, T=1, eps=1.0, alpha="oc")
        tree = induce_tree(ds, np.ones(200), cfg, BudgetAccountant(1.0), RandomSource(0))
        _assert_leaves_use_clamped_link(tree, ds)

    def test_requires_accountant_and_rng(self):
        ds = make_blocks_dataset(50, 2, seed=1)
        cfg = self._private_config(2, 1, 1.0)
        with pytest.raises(ValueError):
            induce_tree(ds, np.ones(50), cfg)

    def test_recorded_utility_matches_materialized_split(self):
        # no stale statistics: the recorded utility must equal the negated
        # risk of the tree right after that split, recomputed from scratch
        ds = make_blocks_dataset(120, 3, seed=4)
        cfg = self._private_config(3, 2, 2.0, alpha=0.7)
        acc = BudgetAccountant(2.0)
        tree = induce_tree(ds, np.ones(120), cfg, acc, RandomSource(9))
        for rec in tree.records:
            assert rec.risk_after == pytest.approx(-rec.utility, abs=1e-12)
        # replay the splits on a fresh tree and compare the final risk
        final_alpha = tree.records[-1].alpha
        assert unnormalized_risk(tree, ds, np.ones(120), final_alpha) == pytest.approx(
            tree.records[-1].risk_after, abs=1e-9
        )

    def test_deterministic(self):
        ds = make_blocks_dataset(100, 3, seed=2)
        cfg = self._private_config(3, 1, 1.0)

        def run():
            acc = BudgetAccountant(1.0)
            tree = induce_tree(ds, np.ones(100), cfg, acc, RandomSource(77))
            return json.dumps(tree.to_dict(), sort_keys=True)

        assert run() == run()

    def test_empty_leaf_splits_draw_uniformly(self):
        doms = [AttributeDomain("a", 0.0, 2.0, 3)]
        ds = Dataset(np.array([[0], [0], [2]]), np.array([1, -1, 1]), doms)
        # candidates tie on an empty leaf, so the selection is uniform
        probs = root_split_probabilities(
            Dataset(np.array([[0], [0], [0]]), np.array([1, 1, 1]), doms),
            np.zeros(3) + 1e-300,  # no weight reaches the hypothetical leaf
            1.0,
            0.5,
        )
        assert np.allclose(probs, 0.5)
        # and private induction still carries empty leaves to full depth
        cfg = self._private_config(2, 1, 1.0)
        tree = induce_tree(ds, np.ones(3), cfg, BudgetAccountant(1.0), RandomSource(5))
        assert set(node_depths(tree.child)[leaf_mask(tree.child)].tolist()) == {2}


class TestTiedSubtrees:
    """A tied subtree (below a leaf with no rows or one class) grows from its draws
    alone; one walk at the end takes its rows to their leaves."""

    @staticmethod
    def _fit(ds, depth, seed):
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        config = TreeConfig(depth=depth, alpha="oc", privacy=privacy)
        accountant, leaf = BudgetAccountant(1.0), np.full(ds.n_examples, -1)
        tree = induce_tree(ds, np.full(ds.n_examples, 0.5), config, accountant,
                           RandomSource(seed), _leaf_rows=leaf)
        # one ledger entry and one record per split of the complete tree, level by level
        assert len(accountant.spends) == len(tree.records) == 2**depth - 1
        assert [label for label, _ in accountant.spends] == [
            f"split@{r.depth}" for r in tree.records
        ]
        assert [r.depth for r in tree.records] == [
            d for d in range(depth) for _ in range(2**d)
        ]
        # induction's leaf of each row is the walk's
        reached = walk(tree, ds.X, tree.depth)
        assert tree.depth == depth and np.array_equal(leaf, reached)
        # a one-class leaf holds the link of the clamped class, bit for bit; an
        # unreached one 0
        spec = LossSpec.malpha(tree.prediction_alpha)
        one_class = canonical_link(spec, np.array([Q_CLAMP, 1.0 - Q_CLAMP]))
        for k in np.flatnonzero(leaf_mask(tree.child)):
            labels = ds.y[reached == k]
            if labels.size == 0:
                assert tree.value[k] == 0.0
            elif np.all(labels == labels[0]):
                assert tree.value[k] == one_class[int(labels[0] == 1)]
        return tree, reached

    @pytest.mark.parametrize("label", [-1, 1])
    def test_one_class_root(self, label):
        ds = make_blocks_dataset(60, 3, seed=1)
        ds = Dataset(ds.X, np.full(60, label), ds.domains)
        tree, reached = self._fit(ds, 4, seed=2)
        # the root is tied: every split scores the empty risk sum
        assert all(r.risk_before == 0.0 and r.utility == 0.0 for r in tree.records)
        assert tree.prediction_alpha == 1.0
        assert np.unique(reached).size > 1
        assert np.all(tree.value[reached] == tree.value[reached[0]])

    def test_blocks_with_empty_and_row_holding_tied_subtrees(self):
        ds = make_blocks_dataset(400, 4, seed=3)
        tree, reached = self._fit(ds, 8, seed=11)
        leaves = np.flatnonzero(leaf_mask(tree.child))
        assert np.unique(reached).size < leaves.size  # empty leaves
        # some split above the last level holds rows of one class: a tied subtree
        # whose rows only the final walk routes
        tied_with_rows = False
        for level in range(tree.depth - 1):
            at = walk(tree, ds.X, level)
            for k in np.unique(at):
                labels = ds.y[at == k]
                tied_with_rows |= bool(np.all(labels == labels[0]))
        assert tied_with_rows


def _per_leaf_histogram(X, weights, pos, idx, domains):
    # reference: one bincount + cumsum per leaf and attribute over the
    # leaf's own rows
    w_parts, w1_parts = [], []
    for j, dom in enumerate(domains):
        w_bin = np.bincount(X[idx, j], weights=weights[idx], minlength=dom.nvpriv)
        w1_bin = np.bincount(X[idx, j], weights=weights[idx] * pos[idx], minlength=dom.nvpriv)
        w_parts.append(np.cumsum(w_bin)[: dom.nvpriv - 1])
        w1_parts.append(np.cumsum(w1_bin)[: dom.nvpriv - 1])
    return np.concatenate(w_parts), np.concatenate(w1_parts)


def _leaf_of(tree, row):
    # reference: walk one row from the root until it stands on a leaf; (leaf, its depth)
    k = depth = 0
    while tree.child[k] != k:
        goes_left = row[tree.attribute[k]] <= tree.threshold_bin[k]
        k, depth = (tree.child[k] if goes_left else tree.child[k] + 1), depth + 1
    return k, depth


@functools.cache
def _deep_private_tree():
    # depth 8 on 400 rows: most of the 256 leaves are unreached
    ds = make_blocks_dataset(400, 4, seed=3)
    privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
    config = TreeConfig(depth=8, alpha="oc", privacy=privacy)
    return induce_tree(ds, np.full(400, 0.5), config, BudgetAccountant(1.0), RandomSource(11)), ds


class TestWalk:
    @staticmethod
    def _check_against_walk(tree, X):
        reached = walk(tree, X, tree.depth)
        assert reached.shape == (X.shape[0],)
        # every row reaches exactly the leaf a walk of that row alone reaches
        leaves, depths = zip(*[_leaf_of(tree, row) for row in X]) if len(X) else ((), ())
        assert reached.tolist() == list(leaves)
        assert node_depths(tree.child)[reached].tolist() == list(depths)
        assert tree.depth == node_depths(tree.child).max()
        assert np.array_equal(tree.predict_bins(X), tree.value[reached])
        return reached

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_forest_trees_match_a_per_row_walk(self, data):
        sizes = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
        rows = st.tuples(*[st.integers(0, n - 1) for n in sizes])
        X = np.array(data.draw(st.lists(rows, min_size=2, max_size=40)), dtype=np.int64)
        y = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(X),
                                        max_size=len(X))))
        domains = [AttributeDomain(f"a{j}", 0.0, 1.0, n) for j, n in enumerate(sizes)]
        ds = Dataset(X, y, domains)
        depth = data.draw(st.integers(1, 5))
        seed = data.draw(st.integers(0, 2**16))
        forest = rf_fit(ds, 3, depth, 1.0, "laplace", BudgetAccountant(1.0), RandomSource(seed))
        query = X[data.draw(st.lists(st.integers(0, len(X) - 1), max_size=30))]
        for Q in (ds.X, query):
            leaves = walk(forest, Q, forest.depth)
            assert leaves.shape == (3, Q.shape[0])
            for t in range(3):
                for r, row in enumerate(Q):
                    k = 0  # one row at a time down the complete tree
                    while k < 2**depth - 1:
                        goes_right = row[forest.attribute[t, k]] > forest.threshold_bin[t, k]
                        k = 2 * k + 2 if goes_right else 2 * k + 1
                    assert leaves[t, r] == k
            votes = [[forest.value[t, leaves[t, r]] for t in range(3)] for r in range(Q.shape[0])]
            assert forest.margins(Q).tolist() == [float(sum(v)) for v in votes]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 399), max_size=200))
    def test_deep_private_tree_matches_a_per_row_walk(self, picks):
        tree, ds = _deep_private_tree()
        reached = self._check_against_walk(tree, ds.X)
        assert np.unique(reached).size < np.count_nonzero(leaf_mask(tree.child))
        self._check_against_walk(tree, ds.X[picks])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 79), max_size=80))
    def test_mixed_depth_tree_matches_a_per_row_walk(self, picks):
        ds, weights = _noisy_threshold_dataset()
        tree = induce_tree(ds, weights, TreeConfig(depth=5, alpha=0.3))
        assert len(set(node_depths(tree.child)[leaf_mask(tree.child)].tolist())) > 1
        self._check_against_walk(tree, ds.X)
        self._check_against_walk(tree, ds.X[picks])


class TestFrontierHistograms:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_per_leaf_reference_bit_for_bit(self, data):
        sizes = data.draw(st.lists(st.integers(2, 7), min_size=1, max_size=4))
        m = data.draw(st.integers(1, 60))
        n_leaves = data.draw(st.integers(1, 6))
        rows = st.tuples(*[st.integers(0, n - 1) for n in sizes])
        # Dataset.X is column-major; a row-major X must give the same bits
        order = data.draw(st.sampled_from("CF"))
        X = np.array(data.draw(st.lists(rows, min_size=m, max_size=m)), dtype=np.int64, order=order)
        weights = np.array(
            data.draw(st.lists(st.floats(1e-6, 1.0), min_size=m, max_size=m))
        )
        pos = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        # slot n_leaves: the row belongs to no frontier leaf; some leaves
        # may get no rows at all
        slot = np.array(data.draw(st.lists(st.integers(0, n_leaves), min_size=m, max_size=m)))
        leaf_rows = [np.flatnonzero(slot == s) for s in range(n_leaves)]
        domains = [AttributeDomain(f"a{j}", 0.0, 1.0, n) for j, n in enumerate(sizes)]

        w_left, w1_left = tree_module._frontier_histograms(
            X, weights, weights * pos, leaf_rows, domains
        )
        assert w_left.shape == w1_left.shape == (n_leaves, sum(sizes) - len(sizes))
        for s, idx in enumerate(leaf_rows):
            ref_w, ref_w1 = _per_leaf_histogram(X, weights, pos, idx, domains)
            assert np.array_equal(w_left[s], ref_w)
            assert np.array_equal(w1_left[s], ref_w1)

    def test_unequal_domains_match_per_leaf_bincounts_bit_for_bit(self):
        # domains padded to the widest (12 bins), a leaf with no rows, rows of no
        # leaf, and enough rows per bucket that the order of summation shows
        sizes, m = (3, 7, 12, 5), 3000
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.integers(0, n, size=m) for n in sizes])
        weights = rng.uniform(1e-3, 1.0, size=m)
        pos = rng.random(m) < 0.4
        slot = rng.choice([0, 1, 3, 4], size=m)  # leaf 2 gets no rows; slot 4 is no leaf's
        leaf_rows = [np.flatnonzero(slot == s) for s in range(4)]
        domains = [AttributeDomain(f"a{j}", 0.0, 1.0, n) for j, n in enumerate(sizes)]

        w_left, w1_left = tree_module._frontier_histograms(
            X, weights, weights * pos, leaf_rows, domains
        )
        assert w_left.shape == w1_left.shape == (4, sum(sizes) - len(sizes))
        for s, idx in enumerate(leaf_rows):
            ref_w, ref_w1 = _per_leaf_histogram(X, weights, pos, idx, domains)
            assert w_left[s].tobytes() == ref_w.tobytes()
            assert w1_left[s].tobytes() == ref_w1.tobytes()
        assert not w_left[2].any() and not w1_left[2].any()

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_root_probabilities_are_what_induction_samples(self, monkeypatch, alpha):
        ds = make_blocks_dataset(90, 3, seed=8)
        rng = RandomSource(21)
        weights = np.array([0.05 + 0.95 * rng.uniform() for _ in range(90)])
        seen = []
        sampler = tree_module.exponential_mechanism

        def spy(utilities, *args, **kwargs):
            seen.append(np.array(utilities, copy=True))
            return sampler(utilities, *args, **kwargs)

        monkeypatch.setattr(tree_module, "exponential_mechanism", spy)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        induce_tree(
            ds, weights, TreeConfig(depth=1, alpha=alpha, privacy=privacy),
            BudgetAccountant(1.0), RandomSource(3),
        )
        eps_node = split_budget(0, 1, 1, 0.5, 1.0)
        delta = sensitivity_bound(LossSpec.malpha(alpha), 90)
        assert np.array_equal(
            root_split_probabilities(ds, weights, alpha, eps_node),
            exponential_mechanism_probabilities(seen[0], delta, eps_node),
        )


def _reference_risk(w, w1, spec):
    # reference: w * bayes_risk(w1 / w) per leaf, 0 when empty
    w, w1 = np.asarray(w, dtype=float), np.asarray(w1, dtype=float)
    nonempty = w > 0.0
    q = np.clip(w1 / np.where(nonempty, w, 1.0), 0.0, 1.0)
    return np.where(nonempty, w * bayes_risk(spec, q), 0.0)


def _reference_split_scores(tree, ds, weights, config):
    """(alpha, risk_before, utilities) of every split of ``tree``, in induction
    order, recomputed from scratch: every live leaf's risk from the (w, w1) of
    its training rows at the split's alpha, and every candidate from per-leaf
    histograms."""
    pos = ds.y == 1
    m = ds.n_examples

    def stats(idx):
        # (w, w1, errors of the weighted majority label); the sums run over
        # the rows in ascending order, as induction sums them
        w, w1 = float(weights[idx].sum()), float(weights[idx[pos[idx]]].sum())
        return w, w1, int(np.count_nonzero(ds.y[idx] != (1 if w1 > w - w1 else -1)))

    live = {0: stats(np.arange(m))}
    err_root = live[0][2] / m
    frontier, out = [(0, np.arange(m))], []
    for _ in range(config.depth):
        next_frontier = []
        for node, idx in frontier:
            if tree.child[node] == node:  # a leaf that stopped early stays live
                continue
            if not config.objective_calibration:
                alpha = config.alpha
            elif err_root > 0.0:
                errors = sum(e for _, _, e in live.values())
                alpha = objective_calibration_alpha(errors / m, err_root)
            else:
                alpha = 1.0
            spec = LossSpec.malpha(alpha)
            risks = {key: float(_reference_risk(w, w1, spec)) for key, (w, w1, _) in live.items()}
            risk_before = math.fsum(risks.values())
            w_left, w1_left = _per_leaf_histogram(ds.X, weights, pos, idx, ds.domains)
            left = _reference_risk(w_left, w1_left, spec)
            w, w1, _ = live.pop(node)
            right = _reference_risk(w - w_left, w1 - w1_left, spec)
            out.append((alpha, risk_before, -((risk_before - risks[node]) + (left + right))))
            mask = ds.X[idx, tree.attribute[node]] <= tree.threshold_bin[node]
            first = int(tree.child[node])
            live[first], live[first + 1] = stats(idx[mask]), stats(idx[~mask])
            next_frontier += [(first, idx[mask]), (first + 1, idx[~mask])]
        frontier = next_frontier
    return out


def _noisy_threshold_dataset():
    # 80 rows with 20% label noise: greedy depth-5 trees stop some leaves
    # early as pure and grow others to the cap
    rng = np.random.default_rng(1)
    X = rng.integers(0, 5, size=(80, 3))
    y = np.where((X[:, 0] > 2) ^ (rng.random(80) < 0.2), 1, -1)
    ds = Dataset(X, y, [AttributeDomain(f"a{j}", 0.0, 1.0, 5) for j in range(3)])
    return ds, rng.uniform(0.05, 1.0, 80)


class TestRiskBookkeeping:
    def test_every_split_scores_as_a_fresh_evaluation(self, monkeypatch):
        # each split's scored utilities, or the candidate count of a tied
        # leaf's uniform draw
        seen = []
        sampler, argmax = tree_module.exponential_mechanism, np.argmax
        uniform = tree_module.exponential_mechanism_uniform

        def spy_sampler(utilities, *args, **kwargs):
            seen.append(np.array(utilities, copy=True))
            return sampler(utilities, *args, **kwargs)

        def spy_uniform(n, *args, **kwargs):
            seen.append(n)
            return uniform(n, *args, **kwargs)

        def spy_argmax(utilities, *args, **kwargs):
            seen.append(np.array(utilities, copy=True))
            return argmax(utilities, *args, **kwargs)

        monkeypatch.setattr(tree_module, "exponential_mechanism", spy_sampler)
        monkeypatch.setattr(tree_module, "exponential_mechanism_uniform", spy_uniform)
        monkeypatch.setattr(np, "argmax", spy_argmax)

        ds = make_blocks_dataset(120, 3, seed=5)
        rng = RandomSource(5)
        weights = np.array([0.05 + 0.95 * rng.uniform() for _ in range(120)])
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        private = TreeConfig(depth=5, alpha="oc", privacy=privacy)
        noisy, noisy_weights = _noisy_threshold_dataset()
        greedy = TreeConfig(depth=5, alpha=0.3)
        private_tree = induce_tree(ds, weights, private, BudgetAccountant(1.0), RandomSource(6))
        greedy_tree = induce_tree(noisy, noisy_weights, greedy)
        # the cases under test occur: alpha changes within a level, empty
        # leaves, and leaves that stopped early
        assert any(len({r.alpha for r in private_tree.records if r.depth == d}) > 1
                   for d in range(5))
        reached = walk(private_tree, ds.X, private_tree.depth)
        assert np.unique(reached).size < np.count_nonzero(leaf_mask(private_tree.child))
        assert np.any(node_depths(greedy_tree.child)[leaf_mask(greedy_tree.child)] < 5)

        scores = []
        fits = [(ds, weights, private, private_tree), (noisy, noisy_weights, greedy, greedy_tree)]
        for data, w, config, tree in fits:
            reference = _reference_split_scores(tree, data, w, config)
            assert len(reference) == len(tree.records)
            scores += zip(tree.records, reference)
        assert len(seen) == len(scores)
        # the private fit takes both samplers
        n_private = len(private_tree.records)
        assert {isinstance(s, int) for s in seen[:n_private]} == {True, False}
        for utilities, (record, (alpha, risk_before, expected)) in zip(seen, scores):
            assert record.alpha == alpha
            assert record.risk_before == risk_before
            if isinstance(utilities, int):  # a tied leaf: every candidate scores alike
                assert utilities == len(expected)
                assert np.all(expected == record.utility)
            else:
                assert np.array_equal(utilities, expected)

    @settings(max_examples=300, deadline=None)
    @given(
        w=st.one_of(st.just(0.0), st.floats(-1e-9, 0.0), st.floats(1e-300, 1e6)),
        u=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-1e-3, 1.001)),
        alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_parts_then_mix_equal_bayes_risk_bit_for_bit(self, w, u, alpha):
        w1 = u * abs(w)
        expected = np.float64(_reference_risk(w, w1, LossSpec.malpha(alpha))).tobytes()
        vector = tree_module._risks(tree_module._leaf_parts(np.array([w]), np.array([w1])), alpha)
        node = tree_module._risks(tree_module._node_parts(w, w1), alpha)
        assert vector[0].tobytes() == expected
        assert np.float64(node).tobytes() == expected


class TestNoisifyLeaves:
    def _fitted_private_tree(self, depth=2, T=1, eps=1.0, beta=0.5, M=10.0, seed=0):
        ds = make_blocks_dataset(80, 3, seed=6)
        cfg = TreeConfig(
            depth=depth,
            alpha=1.0,
            privacy=TreePrivacy(epsilon=eps, beta_tree=beta, output_bound=M, ensemble_size=T),
        )
        acc = BudgetAccountant(eps)
        tree = induce_tree(ds, np.ones(80), cfg, acc, RandomSource(seed))
        return tree, acc

    def test_clamp_before_noise(self):
        tree, acc = self._fitted_private_tree(M=10.0)
        leaves = np.flatnonzero(leaf_mask(tree.child))
        raw = tree.value[leaves].tolist()
        # fabricate an extreme raw prediction to exercise the clamp
        tree.value[leaves[0]] = 37.2
        rng = RandomSource(1)
        mirror = RandomSource(1)
        noisify_leaves(tree, 0.5, 1.0, 1, 10.0, acc, rng)
        eps_leaf = 0.5 * 1.0 / (1 * 4)
        expected_first = laplace_mechanism(10.0, 20.0, eps_leaf, BudgetAccountant(1.0),
                                           mirror.uniform())
        assert tree.value[leaves[0]] == pytest.approx(expected_first, abs=1e-12)
        assert tree.noised
        assert raw  # silence unused warning

    def test_leaf_budget_share(self):
        tree, acc = self._fitted_private_tree(depth=2, T=1, eps=1.0, beta=0.5)
        before = acc.total_spent
        noisify_leaves(tree, 0.5, 1.0, 1, 10.0, acc, RandomSource(2))
        leaf_spend = acc.total_spent - before
        assert leaf_spend == pytest.approx(0.5, abs=1e-12)
        # eps_leaf = beta_pred * eps / (T * L) = 0.125 -> scale 160 for M=10
        assert 0.5 * 1.0 / (1 * 4) == pytest.approx(0.125)
        assert 2 * 10.0 / 0.125 == pytest.approx(160.0)

    def test_noise_distribution_moments(self):
        # fixed leaf budget: noise is Laplace with scale 2M/eps_leaf
        rng = RandomSource(123)
        eps_leaf = 0.125
        M = 10.0
        draws = laplace_mechanism(np.zeros(100000), 2 * M, eps_leaf, BudgetAccountant(eps_leaf),
                                  rng.uniforms(100000))
        scale = 2 * M / eps_leaf
        assert abs(np.abs(draws).mean() - scale) / scale < 0.03
        assert abs(draws.var() - 2 * scale**2) / (2 * scale**2) < 0.03

    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_a_private_tree_takes_one_draw_per_split_and_per_leaf(self, depth):
        # the mechanisms draw nothing: induction takes one uniform per split, level by
        # level, and noisify_leaves one per leaf
        ds = make_blocks_dataset(80, 3, seed=6)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        config = TreeConfig(depth=depth, alpha="oc", privacy=privacy)
        rng, mirror, acc = RandomSource(9), RandomSource(9), BudgetAccountant(1.0)
        tree = induce_tree(ds, np.full(80, 0.5), config, acc, rng)
        noisify_leaves(tree, privacy.beta_pred, 1.0, 1, 10.0, acc, rng)
        mirror.uniforms(2**depth - 1 + 2**depth)
        assert rng.next_uint64() == mirror.next_uint64()
        assert len(acc.spends) == 2**depth - 1 + 2**depth


class TestTreeEfficiency:
    def test_root_value(self):
        # force a tree with known error: depth-1 stump on noisy labels
        ds = make_blocks_dataset(200, 3, seed=11)
        tree = induce_tree(ds, np.ones(200), TreeConfig(depth=1, alpha=1.0))
        margins = tree.predict_bins(ds.X)
        err = float(np.mean(np.where(margins > 0, 1, -1) != ds.y))
        expected = 8.0 * 1.0 * err**2
        assert tree_efficiency(0, tree, ds, np.ones(200)) == pytest.approx(expected)

    def test_zero_error_tree_gives_zero(self):
        ds = make_blocks_dataset(200, 4, seed=3)
        tree = induce_tree(ds, np.ones(200), TreeConfig(depth=2, alpha=1.0))
        assert np.all(np.sign(tree.predict_bins(ds.X)) == ds.y)
        for node in range(len(tree.child)):
            assert tree_efficiency(node, tree, ds, np.ones(200)) == 0.0

    def test_strictly_decreasing_root_to_node(self):
        clean = make_blocks_dataset(300, 4, seed=11)
        rng = RandomSource(13)
        noisy_y = clean.y.copy()
        flip = np.array([rng.uniform() < 0.2 for _ in range(300)])
        noisy_y[flip] *= -1
        ds = Dataset(clean.X, noisy_y, clean.domains)
        tree = induce_tree(ds, np.ones(300), TreeConfig(depth=3, alpha=1.0))
        margins = tree.predict_bins(ds.X)
        assert np.any(np.sign(margins) != ds.y)  # label noise keeps error positive

        def descend(node, parent_j):
            j = tree_efficiency(node, tree, ds, np.ones(300))
            if parent_j is not None and parent_j > 0:
                assert j < parent_j
            if tree.child[node] != node:
                descend(tree.child[node], j)
                descend(tree.child[node] + 1, j)

        descend(0, None)

    def test_foreign_node_rejected(self):
        ds = make_blocks_dataset(50, 2, seed=1)
        tree = induce_tree(ds, np.ones(50), TreeConfig(depth=1, alpha=1.0))
        other = induce_tree(ds, np.ones(50), TreeConfig(depth=2, alpha=1.0))
        assert len(other.child) > len(tree.child)
        for node in (-1, len(other.child) - 1):  # no node of the tree has these ids
            with pytest.raises(ValueError):
                tree_efficiency(node, tree, ds, np.ones(50))


class TestSerialization:
    def test_round_trip(self):
        ds = make_blocks_dataset(120, 3, seed=4)
        tree = induce_tree(ds, np.ones(120), TreeConfig(depth=3, alpha=0.5))
        clone = DecisionTree.from_dict(tree.to_dict())
        assert np.array_equal(clone.predict_bins(ds.X), tree.predict_bins(ds.X))
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            tree.to_dict(), sort_keys=True
        )

    def test_golden_stump(self):
        doms = [AttributeDomain("a", 0.0, 1.0, 2)]
        ds = Dataset(np.array([[0], [0], [1], [1]]), np.array([-1, -1, 1, 1]), doms)
        tree = induce_tree(ds, np.ones(4), TreeConfig(depth=1, alpha=1.0))
        golden = (
            '{"noised": false, "prediction_alpha": 1.0, "root": {"left": {"leaf": '
            '{"prediction": -99.98499937495625}}, "right": {"leaf": {"prediction": '
            '99.98499937496176}}, "split": {"attribute": 0, "threshold_bin": 0}}}'
        )
        assert json.dumps(tree.to_dict(), sort_keys=True) == golden
        # the same stump as version 1 wrote it, training statistics included
        version1 = (
            '{"noised": false, "prediction_alpha": 1.0, "root": {"left": {"leaf": '
            '{"n_neg": 2, "n_pos": 0, "prediction": -99.98499937495625, "w": 2.0, '
            '"w1": 0.0}}, "right": {"leaf": {"n_neg": 0, "n_pos": 2, "prediction": '
            '99.98499937496176, "w": 2.0, "w1": 2.0}}, "split": {"attribute": 0, '
            '"threshold_bin": 0}, "stats": {"n_neg": 2, "n_pos": 2, "w": 4.0, "w1": 2.0}}}'
        )
        clone = DecisionTree.from_dict(json.loads(version1))
        assert np.array_equal(clone.predict_bins(ds.X), tree.predict_bins(ds.X))
        assert json.dumps(clone.to_dict(), sort_keys=True) == golden


class TestCompactBins:
    """Bins stored in ``Dataset``'s narrow type give exactly what the same bins give as
    int64, at the top of ``uint8`` (256 bins, top bin 255) and just above it (257 bins,
    ``uint16``): every key, node id and sum is formed in a wide type."""

    @staticmethod
    def _pair(nvpriv):
        rng = np.random.default_rng(nvpriv)
        X = rng.integers(0, nvpriv, size=(300, 2))
        X[:40] = nvpriv - 1  # many rows on the top bin
        y = np.where((X[:, 0] > nvpriv // 3) ^ (rng.random(300) < 0.2), 1, -1)
        doms = [AttributeDomain(f"x{j}", 0.0, 1.0, nvpriv) for j in range(2)]
        compact = Dataset(X, y, doms)
        wide = Dataset(X, y, doms)
        wide.X = np.asfortranarray(X, dtype=np.int64)
        assert compact.X.dtype == (np.uint8 if nvpriv <= 256 else np.uint16)
        return compact, wide

    @staticmethod
    def _tree_bytes(tree):
        return [a.tobytes() for a in (tree.child, tree.attribute, tree.threshold_bin, tree.value)]

    @pytest.mark.parametrize("nvpriv", [256, 257])
    def test_frontier_histograms(self, nvpriv):
        compact, wide = self._pair(nvpriv)
        weights = np.random.default_rng(1).uniform(0.1, 1.0, 300)
        pos = weights * (compact.y == 1)
        leaf_rows = [np.arange(0, 300, 3), np.arange(1, 300, 3)]
        a = tree_module._frontier_histograms(compact.X, weights, pos, leaf_rows, compact.domains)
        b = tree_module._frontier_histograms(wide.X, weights, pos, leaf_rows, wide.domains)
        assert [h.tobytes() for h in a] == [h.tobytes() for h in b]

    @pytest.mark.parametrize("nvpriv", [256, 257])
    @pytest.mark.parametrize("private", [False, True])
    def test_induce_tree_and_walk(self, nvpriv, private):
        compact, wide = self._pair(nvpriv)
        weights = np.full(300, 0.5)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0) if private else None
        config = TreeConfig(depth=4, alpha="oc", privacy=privacy)
        trees, spends = [], []
        for ds in (compact, wide):
            accountant = BudgetAccountant(1.0)
            trees.append(induce_tree(ds, weights, config, accountant, RandomSource(3)))
            spends.append(accountant.spends)
        assert self._tree_bytes(trees[0]) == self._tree_bytes(trees[1])
        assert trees[0].records == trees[1].records and spends[0] == spends[1]
        reached = [walk(trees[0], ds.X, 4) for ds in (compact, wide)]
        assert reached[0].tobytes() == reached[1].tobytes()

    @pytest.mark.parametrize("nvpriv", [256, 257])
    def test_predict(self, nvpriv):
        compact, wide = self._pair(nvpriv)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0, ensemble_size=3)
        models = [
            boost_fit(compact, 3, TreeConfig(depth=3, alpha="oc"), output_bound=10.0),
            boost_fit(compact, 3, TreeConfig(depth=3, alpha="oc", privacy=privacy),
                      output_bound=10.0, accountant=BudgetAccountant(1.0), rng=RandomSource(4)),
            rf_fit(compact, 5, 3, 1.0, "laplace", BudgetAccountant(1.0), RandomSource(5)),
        ]
        for model in models:
            a, b = predict(model, compact.X), predict(model, wide.X)
            assert [v.tobytes() for v in a] == [v.tobytes() for v in b]
