"""Tree induction: greedy and private splits, budgets, links at leaves.

The greedy examples are cross-checked by exhaustive enumeration of all
depth-limited trees over the candidate grid, built independently of the
induction code.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpboost.tree as tree_module
from dpboost.dataset import AttributeDomain, Dataset, candidate_splits, make_blocks_dataset
from dpboost.losses import LossSpec, bayes_risk, canonical_link, sensitivity_bound
from dpboost.privacy import (
    BudgetAccountant,
    RandomSource,
    exponential_mechanism_probabilities,
    replacement_neighbors,
)
from dpboost.tree import (
    DecisionTree,
    Q_CLAMP,
    TreeConfig,
    TreePrivacy,
    induce_tree,
    noisify_leaves,
    objective_calibration_alpha,
    root_split_probabilities,
    split_budget,
    tree_efficiency,
    unnormalized_risk,
)


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
        assert tree.root.is_leaf  # pure root is never split


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
        assert tree.root.split.attribute == 0
        assert tree.root.split.threshold_bin == 3
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
        for node in tree.nodes():
            if not node.is_leaf:
                assert 0.0 < node.w1 < node.w

    def test_leaf_predictions_use_clamped_link(self):
        ds = make_blocks_dataset(200, 4, seed=3)
        tree = induce_tree(ds, np.ones(200), TreeConfig(depth=2, alpha=1.0))
        spec = LossSpec.malpha(tree.prediction_alpha)
        for leaf in tree.leaves():
            if leaf.w == 0:
                assert leaf.prediction == 0.0
            else:
                q = min(max(leaf.w1 / leaf.w, Q_CLAMP), 1 - Q_CLAMP)
                assert leaf.prediction == pytest.approx(float(canonical_link(spec, q)))

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
        assert {leaf.depth for leaf in tree.leaves()} == {3}
        assert len(tree.leaves()) == 8

    def test_budget_trace_sums_to_tree_share(self):
        ds = make_blocks_dataset(100, 3, seed=2)
        cfg = self._private_config(2, 1, 1.0, beta=0.5)
        acc = BudgetAccountant(1.0)
        tree = induce_tree(ds, np.ones(100), cfg, acc, RandomSource(0))
        assert math.fsum(tree.budget_trace) == pytest.approx(0.5, abs=1e-12)
        assert [r.epsilon for r in tree.records] == [
            split_budget(r.depth, 2, 1, 0.5, 1.0) for r in tree.records
        ]

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
        assert {leaf.depth for leaf in tree.leaves()} == {2}


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


class TestDifferentialPrivacyRatio:
    def test_split_selection_ratio_bounded(self):
        doms = [AttributeDomain("a", 0.0, 2.0, 3), AttributeDomain("b", 0.0, 2.0, 3)]
        rng = RandomSource(99)
        weight_grid = (0.25, 0.5, 1.0)
        bases = []
        for _ in range(4):
            X = np.array([[rng.randint(3), rng.randint(3)] for _ in range(3)])
            y = np.array([1 if rng.uniform() < 0.5 else -1 for _ in range(3)])
            w = np.array([weight_grid[rng.randint(3)] for _ in range(3)])
            bases.append(Dataset(X, y, doms, w))
        for alpha in (0.0, 0.3, 1.0):
            for eps in (0.01, 0.1, 1.0):
                for base in bases:
                    p = root_split_probabilities(base, base.weights, alpha, eps)
                    for neighbor in replacement_neighbors(base, weight_grid=weight_grid):
                        q = root_split_probabilities(neighbor, neighbor.weights, alpha, eps)
                        ratio = max(float(np.max(p / q)), float(np.max(q / p)))
                        assert ratio <= math.exp(eps) * (1.0 + 1e-9)


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
        raw = [leaf.prediction for leaf in tree.leaves()]
        # fabricate an extreme raw prediction to exercise the clamp
        tree.leaves()[0].prediction = 37.2
        rng = RandomSource(1)
        mirror = RandomSource(1)
        noisify_leaves(tree, 0.5, 1.0, 1, 10.0, acc, rng)
        eps_leaf = 0.5 * 1.0 / (1 * 4)
        from dpboost.privacy import laplace_sample

        expected_first = 10.0 + laplace_sample(mirror, 20.0 / eps_leaf)
        assert tree.leaves()[0].prediction == pytest.approx(expected_first, abs=1e-12)
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
        from dpboost.privacy import laplace_sample

        draws = np.array([laplace_sample(rng, 2 * M / eps_leaf) for _ in range(100000)])
        scale = 2 * M / eps_leaf
        assert abs(np.abs(draws).mean() - scale) / scale < 0.03
        assert abs(draws.var() - 2 * scale**2) / (2 * scale**2) < 0.03


class TestTreeEfficiency:
    def test_root_value(self):
        # force a tree with known error: depth-1 stump on noisy labels
        ds = make_blocks_dataset(200, 3, seed=11)
        tree = induce_tree(ds, np.ones(200), TreeConfig(depth=1, alpha=1.0))
        margins = tree.predict_bins(ds.X)
        err = float(np.mean(np.where(margins > 0, 1, -1) != ds.y))
        expected = 8.0 * 1.0 * err**2
        assert tree_efficiency(tree.root, tree, ds, np.ones(200)) == pytest.approx(expected)

    def test_zero_error_tree_gives_zero(self):
        ds = make_blocks_dataset(200, 4, seed=3)
        tree = induce_tree(ds, np.ones(200), TreeConfig(depth=2, alpha=1.0))
        assert np.all(np.sign(tree.predict_bins(ds.X)) == ds.y)
        for node in tree.nodes():
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
            if not node.is_leaf:
                descend(node.left, j)
                descend(node.right, j)

        descend(tree.root, None)

    def test_foreign_node_rejected(self):
        ds = make_blocks_dataset(50, 2, seed=1)
        tree = induce_tree(ds, np.ones(50), TreeConfig(depth=1, alpha=1.0))
        other = induce_tree(ds, np.ones(50), TreeConfig(depth=2, alpha=1.0))
        with pytest.raises(ValueError):
            tree_efficiency(other.root.left, tree, ds, np.ones(50))


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
            '{"n_neg": 2, "n_pos": 0, "prediction": -99.98499937495625, "w": 2.0, '
            '"w1": 0.0}}, "right": {"leaf": {"n_neg": 0, "n_pos": 2, "prediction": '
            '99.98499937496176, "w": 2.0, "w1": 2.0}}, "split": {"attribute": 0, '
            '"threshold_bin": 0}, "stats": {"n_neg": 2, "n_pos": 2, "w": 4.0, "w1": 2.0}}}'
        )
        assert json.dumps(tree.to_dict(), sort_keys=True) == golden
