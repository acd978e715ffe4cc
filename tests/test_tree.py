"""Tree induction: greedy and private splits, budgets, links at leaves.

The greedy examples are cross-checked by exhaustive enumeration of all
depth-limited trees over the candidate grid, built independently of the
induction code.
"""

import functools
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpboost.tree as tree_module
from dpboost.dataset import AttributeDomain, Dataset, candidate_splits, make_blocks_dataset
from dpboost.ensemble import boost_fit, predict, rf_fit
from dpboost.losses import LossSpec, bayes_risk, canonical_link, sensitivity_bound
from dpboost.privacy import (
    BudgetAccountant,
    RandomSource,
    exponential_mechanism,
    exponential_mechanism_probabilities,
    laplace_mechanism,
)
from dpboost.tree import (
    DecisionTree,
    Q_CLAMP,
    SplitRecord,
    TreeConfig,
    TreePrivacy,
    induce_tree,
    leaf_mask,
    node_depths,
    objective_calibration_alpha,
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


def level_left_sums(X, weights, pos, leaf_rows, domains):
    """``_left_sums`` of a level whose leaves (rows ``leaf_rows``) are all binned from
    their rows, as induction bins its root."""
    width = max(dom.nvpriv for dom in domains)
    bins = tree_module._level_bins(X, _both(weights, pos), list(enumerate(leaf_rows)), [],
                                   None, width)
    return tree_module._left_sums(bins, _columns(domains))


def _both(weights, pos):
    both = np.empty(len(weights), dtype=np.complex128)
    both.real, both.imag = weights, weights * pos
    return both


def _columns(domains):
    # the candidates' columns of _left_sums, in (attribute, threshold) order
    width = max(dom.nvpriv for dom in domains)
    return np.array([j * width + b for j, dom in enumerate(domains) for b in range(dom.nvpriv - 1)])


def root_split_probabilities(dataset, weights, alpha, epsilon_node) -> np.ndarray:
    """Exact probabilities of private induction's candidate draw at a root leaf, so
    privacy-ratio tests can compare neighbor datasets without sampling."""
    weights, pos = np.asarray(weights, dtype=float), dataset.y == 1
    w_left, w1_left = level_left_sums(
        dataset.X, weights, pos, [np.arange(dataset.n_examples)], dataset.domains
    )
    leaf_w = np.array([weights.sum()]), np.array([weights[pos].sum()])
    utilities = tree_module._candidate_utilities(
        tree_module._candidate_parts(w_left, w1_left, *leaf_w)[:, 0], alpha
    )
    delta = sensitivity_bound(LossSpec.malpha(alpha), dataset.n_examples)
    return exponential_mechanism_probabilities(utilities, delta, epsilon_node)


def split_risks(tree, dataset, weights) -> list[tuple[float, float]]:
    """(risk of the leaf, risk of its two children) of every split of ``tree`` at its
    record's alpha, in record order, from the training rows that reach them."""
    weights, pos = np.asarray(weights, dtype=float), dataset.y == 1
    depths, out = node_depths(tree.child), []
    for k, record in zip(np.flatnonzero(~leaf_mask(tree.child)), tree.records):
        assert (tree.attribute[k], tree.threshold_bin[k]) == (record.attribute,
                                                             record.threshold_bin)
        below = walk(tree, dataset.X, depths[k] + 1)
        groups = [walk(tree, dataset.X, depths[k]) == k, below == tree.child[k],
                  below == tree.child[k] + 1]
        w = np.array([weights[g].sum() for g in groups])
        w1 = np.array([weights[g & pos].sum() for g in groups])
        leaf, left, right = tree_module._risks(tree_module._leaf_parts(w, w1), record.alpha)
        out.append((float(leaf), float(left + right)))
    return out


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


def _assert_leaves_use_clamped_link(tree, ds, output_bound=math.inf):
    # every leaf predicts the link of its unit-weight class proportion, clamped, then
    # clamped to the output bound
    spec = LossSpec.malpha(tree.prediction_alpha)
    reached = walk(tree, ds.X, tree.depth)
    for k in np.flatnonzero(leaf_mask(tree.child)):
        if not np.any(reached == k):  # no training row: no weight
            assert tree.value[k] == 0.0
        else:
            q = min(max(np.mean(ds.y[reached == k] == 1), Q_CLAMP), 1 - Q_CLAMP)
            link = float(np.clip(canonical_link(spec, q), -output_bound, output_bound))
            assert tree.value[k] == pytest.approx(link)


def _spy_on_leaf_release(monkeypatch) -> list:
    """Record the ``values`` that each ``laplace_mechanism`` call of induction releases:
    a private tree's clamped leaf predictions, before the noise."""
    released, release = [], tree_module.laplace_mechanism

    def spy(values, *args, **kwargs):
        released.append(np.array(values, copy=True))
        return release(values, *args, **kwargs)

    monkeypatch.setattr(tree_module, "laplace_mechanism", spy)
    return released


def _before_release(tree, released) -> DecisionTree:
    """``tree`` with the leaf predictions its one leaf release took in, in place of
    the noised ones."""
    (values,) = released
    value = tree.value.copy()
    value[leaf_mask(tree.child)] = values[:, 0]
    return DecisionTree(tree.child, tree.attribute, tree.threshold_bin, value, tree.records,
                        tree.prediction_alpha)


class TestGreedyInduction:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("private", [False, True])
    def test_rejects_weights_that_are_not_finite_and_positive(self, bad, private):
        ds = make_blocks_dataset(50, 2, seed=1)
        weights = np.ones(50)
        weights[7] = bad
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0) if private else None
        accountant = BudgetAccountant(1.0)
        with pytest.raises(ValueError, match="finite and strictly positive"):
            induce_tree(ds, weights, TreeConfig(depth=2, privacy=privacy), accountant,
                        RandomSource(0))
        assert accountant.spends == []

    def test_xor_reaches_zero_error(self):
        ds = _xor_dataset()
        assert _enumerate_depth2_zero_error(ds)  # oracle: a perfect tree exists
        tree = induce_tree(ds, np.ones(4), TreeConfig(depth=2, alpha=1.0))
        preds = tree.predict_bins(ds.X)
        assert np.all(np.sign(preds) == ds.y)
        assert unnormalized_risk(tree, ds, np.ones(4), tree.records[-1].alpha) == 0.0
        # no split raises its leaf's risk (the root split of xor is a tie)
        for leaf, children in split_risks(tree, ds, np.ones(4)):
            assert children <= leaf + 1e-12

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
        assert -tree.records[0].utility == pytest.approx(best, abs=1e-9)

    def test_risk_never_increases_along_records(self):
        ds = make_blocks_dataset(200, 4, seed=3)
        for alpha in (0.3, 1.0, "oc"):
            tree = induce_tree(ds, np.full(200, 0.5), TreeConfig(depth=4, alpha=alpha))
            for leaf, children in split_risks(tree, ds, np.full(200, 0.5)):
                assert children <= leaf + 1e-9

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
        # the ledger's split entries are the records' budgets and spend the tree's share
        ds = make_blocks_dataset(100, 3, seed=2)
        cfg = self._private_config(2, 1, 1.0, beta=0.5)
        acc = BudgetAccountant(1.0)
        tree = induce_tree(ds, np.ones(100), cfg, acc, RandomSource(0))
        splits = [eps for label, eps in acc.spends if label.startswith("split@")]
        assert math.fsum(splits) == pytest.approx(0.5, abs=1e-12)
        assert splits == [r.epsilon for r in tree.records] == [
            split_budget(r.depth, 2, 1, 0.5, 1.0) for r in tree.records
        ]

    def test_leaf_predictions_use_clamped_link(self, monkeypatch):
        # this fit splits empty leaves and one-class leaves of both classes down to depth 6;
        # the leaf release takes in each leaf's link clamped to M = 10
        released = _spy_on_leaf_release(monkeypatch)
        ds = make_blocks_dataset(200, 4, seed=3)
        cfg = self._private_config(depth=6, T=1, eps=1.0, alpha="oc")
        tree = induce_tree(ds, np.ones(200), cfg, BudgetAccountant(1.0), RandomSource(0))
        _assert_leaves_use_clamped_link(_before_release(tree, released), ds, output_bound=10.0)

    def test_requires_accountant_and_rng(self):
        ds = make_blocks_dataset(50, 2, seed=1)
        cfg = self._private_config(2, 1, 1.0)
        with pytest.raises(ValueError):
            induce_tree(ds, np.ones(50), cfg)

    def test_recorded_utility_matches_materialized_split(self):
        # no stale statistics: the recorded utility must equal the negated
        # risk of the split's two children, recomputed from scratch
        ds = make_blocks_dataset(120, 3, seed=4)
        cfg = self._private_config(3, 2, 2.0, alpha=0.7)
        acc = BudgetAccountant(2.0)
        tree = induce_tree(ds, np.ones(120), cfg, acc, RandomSource(9))
        for rec, (_, children) in zip(tree.records, split_risks(tree, ds, np.ones(120))):
            assert -rec.utility == pytest.approx(children, abs=1e-12)

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

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 80),
        n=st.integers(2, 3),
        data_seed=st.integers(0, 50),
        depth=st.integers(1, 5),
        alpha=st.one_of(st.just("oc"), st.sampled_from([0.0, 0.35, 1.0])),
        one_class=st.sampled_from([None, None, -1, 1]),
        seed=st.integers(0, 2**32),
    )
    @example(m=60, n=2, data_seed=1, depth=4, alpha=0.35, one_class=None, seed=3)
    @example(m=120, n=3, data_seed=5, depth=5, alpha="oc", one_class=None, seed=6)
    @example(m=40, n=2, data_seed=2, depth=3, alpha="oc", one_class=1, seed=1)
    def test_equals_a_one_node_at_a_time_reference(self, m, n, data_seed, depth, alpha,
                                                   one_class, seed):
        # The examples: a fixed alpha, alpha changing within levels (OC), a tied root.
        # Levels spend in one call and draw in batches; the reference spends and draws
        # node by node.
        ds = make_blocks_dataset(m, n, seed=data_seed)
        if one_class is not None:
            ds = Dataset(ds.X, np.full(m, one_class), ds.domains)
        rng = RandomSource(data_seed)
        weights = np.array([0.05 + 0.95 * rng.uniform() for _ in range(m)])
        config = self._private_config(depth, 3, 1.0, alpha=alpha)
        accountant, random = BudgetAccountant(1.0), RandomSource(seed)
        tree = induce_tree(ds, weights, config, accountant, random)
        reference, ref_accountant, ref_random = _reference_private_tree(ds, weights, config, seed)
        for table in ("child", "attribute", "threshold_bin", "value"):
            assert getattr(tree, table).tobytes() == getattr(reference, table).tobytes()
        assert [repr(r) for r in tree.records] == [repr(r) for r in reference.records]
        assert tree.prediction_alpha == reference.prediction_alpha and tree.noised
        assert accountant.spends == ref_accountant.spends
        assert random.next_uint64() == ref_random.next_uint64()


class TestTiedSubtrees:
    """A tied subtree (below a leaf with no rows or one class) grows from its draws
    alone; one walk at the end takes its rows to their leaves."""

    @staticmethod
    def _fit(monkeypatch, ds, depth, seed):
        """The private fit, its leaf of each row, and the tree as its leaf release took it
        in.  The output bound 100 exceeds every clamped link (at most about 99.99), so
        the release takes in the links themselves."""
        released = _spy_on_leaf_release(monkeypatch)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=100.0)
        config = TreeConfig(depth=depth, alpha="oc", privacy=privacy)
        accountant, leaf = BudgetAccountant(1.0), np.full(ds.n_examples, -1)
        tree = induce_tree(ds, np.full(ds.n_examples, 0.5), config, accountant,
                           RandomSource(seed), _leaf_rows=leaf)
        # one ledger entry and one record per split of the complete tree, level by level,
        # then one ledger entry per leaf
        assert len(tree.records) == 2**depth - 1
        assert [label for label, _ in accountant.spends] == [
            f"split@{r.depth}" for r in tree.records
        ] + ["leaf"] * 2**depth
        assert [r.depth for r in tree.records] == [
            d for d in range(depth) for _ in range(2**d)
        ]
        # induction's leaf of each row is the walk's
        reached = walk(tree, ds.X, tree.depth)
        assert tree.depth == depth and np.array_equal(leaf, reached)
        # a one-class leaf holds the link of the clamped class, bit for bit; an
        # unreached one 0
        before = _before_release(tree, released)
        spec = LossSpec.malpha(tree.prediction_alpha)
        one_class = canonical_link(spec, np.array([Q_CLAMP, 1.0 - Q_CLAMP]))
        for k in np.flatnonzero(leaf_mask(tree.child)):
            labels = ds.y[reached == k]
            if labels.size == 0:
                assert before.value[k] == 0.0
            elif np.all(labels == labels[0]):
                assert before.value[k] == one_class[int(labels[0] == 1)]
        return before, reached

    @pytest.mark.parametrize("label", [-1, 1])
    def test_one_class_root(self, monkeypatch, label):
        ds = make_blocks_dataset(60, 3, seed=1)
        ds = Dataset(ds.X, np.full(60, label), ds.domains)
        tree, reached = self._fit(monkeypatch, ds, 4, seed=2)
        # the root is tied: every split's children have risk 0
        assert all(r.utility == 0.0 for r in tree.records)
        assert tree.prediction_alpha == 1.0
        assert np.unique(reached).size > 1
        assert np.all(tree.value[reached] == tree.value[reached[0]])

    def test_blocks_with_empty_and_row_holding_tied_subtrees(self, monkeypatch):
        ds = make_blocks_dataset(400, 4, seed=3)
        tree, reached = self._fit(monkeypatch, ds, 8, seed=11)
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

    def test_each_level_draws_its_tied_leaves_in_one_batch(self, monkeypatch):
        calls = []  # ("spend", label, epsilon, count) or ("draw", epsilon, utilities, uniforms)
        select, spend = tree_module._select, BudgetAccountant.spend

        def spy_select(utilities, sensitivity, epsilon, u):
            calls.append(("draw", epsilon, np.array(utilities, copy=True), np.array(u, copy=True)))
            return select(utilities, sensitivity, epsilon, u)

        def spy_spend(accountant, label, epsilon, count=1):
            calls.append(("spend", label, epsilon, count))
            return spend(accountant, label, epsilon, count)

        monkeypatch.setattr(tree_module, "_select", spy_select)
        monkeypatch.setattr(BudgetAccountant, "spend", spy_spend)
        ds = make_blocks_dataset(400, 4, seed=3)
        tree, _ = self._fit(monkeypatch, ds, 8, seed=11)
        # Node k of the complete tree draws with the k-th uniform of the stream, and the
        # leaves take the ones after the splits.  A level pays for its 2^d draws in one
        # ledger call, then draws its scored leaves (rows of both classes) in runs: a run
        # holds the rest of the level at the current alpha and ends after the first split
        # that changes the error count (OC).  Its tied leaves (no rows or one class) then
        # draw in one batch over zero utilities.
        u, depths = RandomSource(11).uniforms(2**9 - 1), node_depths(tree.child)
        n_candidates, expected = len(candidate_splits(ds)), []

        def errors(rows):  # of the majority label; the weights are equal, a tie goes negative
            n_pos = np.count_nonzero(ds.y[rows] == 1)
            return rows.size - n_pos if n_pos > rows.size - n_pos else n_pos

        for d in range(tree.depth):
            at, below = walk(tree, ds.X, d), walk(tree, ds.X, d + 1)
            level = np.flatnonzero(depths == d)
            tied = [k for k in level if np.unique(ds.y[at == k]).size <= 1]
            scored = [k for k in level if k not in tied]
            changes = [errors(np.flatnonzero(below == tree.child[k])) + errors(
                np.flatnonzero(below == tree.child[k] + 1)) != errors(np.flatnonzero(at == k))
                for k in scored]
            eps = tree.records[2**d - 1].epsilon
            expected.append(("spend", f"split@{d}", eps, 2**d))
            start = 0
            while start < len(scored):
                expected.append(("draw", eps, (len(scored) - start, n_candidates),
                                 u[scored[start:]]))
                start += changes[start:].index(True) + 1 if True in changes[start:] else len(scored)
            if tied:
                expected.append(("draw", eps, (len(tied), n_candidates), u[tied]))
        leaf_eps = 0.5 / 256
        expected.append(("spend", "leaf", leaf_eps, 256))
        assert [c[:2] for c in calls] == [e[:2] for e in expected]
        for call, want in zip(calls, expected):
            if call[0] == "spend":
                assert call == want
            else:
                _, eps, utilities, draws = call
                assert (eps, utilities.shape) == want[1:3] and draws.tobytes() == want[3].tobytes()
        # several levels hold tied leaves, and the runs are fewer than the scored splits
        batches = [c[2] for c in calls if c[0] == "draw" and not c[2].any()]
        assert len(batches) > 1
        runs = [c[2] for c in calls if c[0] == "draw" and c[2].any()]
        assert len(runs) < len(tree.records) - sum(len(b) for b in batches)


def _per_leaf_bins(X, weights, pos, idx, domains):
    # reference: one weighted bincount per attribute and statistic over the leaf's own
    # rows; each attribute's (weight, positive weight) bins stacked
    return [np.stack([np.bincount(X[idx, j], weights=weights[idx], minlength=dom.nvpriv),
                      np.bincount(X[idx, j], weights=weights[idx] * pos[idx], minlength=dom.nvpriv)])
            for j, dom in enumerate(domains)]


def _sibling_bins(parent_bins, sibling_bins):
    # reference: the sibling rule, a leaf's bins are its parent's minus its sibling's
    return [p - s for p, s in zip(parent_bins, sibling_bins)]


def _left_of(bins):
    # reference: each attribute's cumulative sums up to every threshold, attribute after
    # attribute; (weight, positive weight)
    left = np.concatenate([np.cumsum(b, axis=1)[:, :-1] for b in bins], axis=1)
    return left[0], left[1]


def _per_leaf_histogram(X, weights, pos, idx, domains):
    # reference: the left sums of a leaf binned from its own rows
    return _left_of(_per_leaf_bins(X, weights, pos, idx, domains))


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


def _two_levels(X, weights, pos, leaf_rows, goes_left, domains):
    """Left sums of a level binned from its rows (``leaf_rows``), then of the level of
    their children (a row goes left where ``goes_left``) under the sibling rule: of two
    children, the one with fewer rows (the left on a tie) binned from its rows, the
    other derived.  Returns both levels' (w_left, w1_left), each child's rows in slot
    order and which slots were derived."""
    width, columns, both = max(d.nvpriv for d in domains), _columns(domains), _both(weights, pos)
    parents = tree_module._level_bins(X, both, list(enumerate(leaf_rows)), [], None, width)
    direct, derived, children = [], [], []
    for s, idx in enumerate(leaf_rows):
        kids = idx[goes_left[idx]], idx[~goes_left[idx]]
        small = int(kids[1].size < kids[0].size)
        direct.append((2 * s + small, kids[small]))
        derived.append((2 * s + 1 - small, s, 2 * s + small))
        children += kids
    level = tree_module._level_bins(X, both, direct, derived, parents, width)
    return (tree_module._left_sums(parents, columns), tree_module._left_sums(level, columns),
            children, {slot for slot, _, _ in derived})


def _check_two_levels(X, weights, pos, leaf_rows, goes_left, domains):
    """``_two_levels`` against per-leaf bincounts bit for bit: a binned leaf's left sums
    are its own bincounts', a derived one's those of its parent's bincounts minus its
    sibling's."""
    (p_w, p_w1), (w_left, w1_left), children, derived = _two_levels(
        X, weights, pos, leaf_rows, goes_left, domains)
    n_cand = sum(d.nvpriv - 1 for d in domains)
    assert p_w.shape == p_w1.shape == (len(leaf_rows), n_cand)
    assert w_left.shape == w1_left.shape == (2 * len(leaf_rows), n_cand)
    for s, idx in enumerate(leaf_rows):
        ref_w, ref_w1 = _per_leaf_histogram(X, weights, pos, idx, domains)
        assert p_w[s].tobytes() == ref_w.tobytes() and p_w1[s].tobytes() == ref_w1.tobytes()
        parent = _per_leaf_bins(X, weights, pos, idx, domains)
        for slot in (2 * s, 2 * s + 1):
            sibling = children[slot ^ 1]
            if slot in derived:
                ref = _left_of(_sibling_bins(parent, _per_leaf_bins(X, weights, pos, sibling,
                                                                      domains)))
            else:
                ref = _per_leaf_histogram(X, weights, pos, children[slot], domains)
            assert w_left[slot].tobytes() == ref[0].tobytes()
            assert w1_left[slot].tobytes() == ref[1].tobytes()
    return w_left, w1_left


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
        # may get no rows at all, and some children none or as many as their sibling
        slot = np.array(data.draw(st.lists(st.integers(0, n_leaves), min_size=m, max_size=m)))
        goes_left = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        leaf_rows = [np.flatnonzero(slot == s) for s in range(n_leaves)]
        domains = [AttributeDomain(f"a{j}", 0.0, 1.0, n) for j, n in enumerate(sizes)]
        _check_two_levels(X, weights, pos, leaf_rows, goes_left, domains)

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
        # the left child is the smaller at leaf 0 and the larger elsewhere
        goes_left = np.where(slot == 0, rng.random(m) < 0.3, rng.random(m) < 0.7)
        w_left, w1_left = _check_two_levels(X, weights, pos, leaf_rows, goes_left, domains)
        assert not w_left[4:6].any() and not w1_left[4:6].any()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_the_larger_child_is_derived_within_the_bound(self, data):
        # Induction derives the larger of two scored children (the right on a tie) from
        # its parent and sibling.  A derived left sum is within (n + nv + 1) 2**-52 w of
        # the direct bincount's, for a parent of n rows and weight w and nv bins per
        # attribute; a derived parent's own bound adds.
        m, nv = data.draw(st.integers(8, 80)), data.draw(st.integers(2, 9))
        X = np.array(data.draw(st.lists(st.lists(st.integers(0, nv - 1), min_size=2, max_size=2),
                                        min_size=m, max_size=m)))
        # weights over many orders of magnitude, so that the sums round
        weights = np.array(data.draw(st.lists(st.floats(1e-9, 1.0), min_size=m, max_size=m)))
        y = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m)))
        private = data.draw(st.booleans())
        ds = Dataset(X, y, [AttributeDomain(f"a{j}", 0.0, 1.0, nv) for j in range(2)])
        calls, level_bins = [], tree_module._level_bins

        def spy(X, both, direct, derived, parents, width):
            bins = level_bins(X, both, direct, derived, parents, width)
            calls.append((direct, derived, bins))
            return bins

        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0) if private else None
        config = TreeConfig(depth=4, alpha="oc", privacy=privacy)
        with mock.patch.object(tree_module, "_level_bins", spy):
            tree = induce_tree(ds, weights, config, BudgetAccountant(1.0), RandomSource(1))

        pos, columns = y == 1, _columns(ds.domains)
        depths, parent_of = node_depths(tree.child), {}
        for k in np.flatnonzero(~leaf_mask(tree.child)):
            parent_of[int(tree.child[k])] = parent_of[int(tree.child[k]) + 1] = int(k)
        rows_of = {int(k): np.flatnonzero(walk(tree, X, depths[k]) == k)
                   for k in range(len(tree.child))}
        # each level's scored leaves, slot after slot: split, with rows of both classes
        scored = [[k for k, d in enumerate(depths) if d == level and tree.child[k] != k
                   and np.unique(y[rows_of[k]]).size == 2] for level in range(config.depth)]
        bound = {}
        for level, (direct, derived, bins) in enumerate(calls):
            leaves = scored[level]
            assert len(direct) + len(derived) == len(leaves) == len(bins)
            for slot, idx in direct:
                assert np.array_equal(idx, rows_of[leaves[slot]])
            # a split whose two children are both scored derives one of them
            pairs = {parent_of[k] for k in leaves if k and 2 * tree.child[parent_of[k]] + 1 - k
                     in leaves}
            assert len(derived) == len(pairs)
            w_left, w1_left = tree_module._left_sums(bins, columns)
            for slot, parent, sibling in derived:
                k, sib = leaves[slot], leaves[sibling]
                assert parent_of[k] == parent_of[sib] == scored[level - 1][parent]
                n, n_sib = rows_of[k].size, rows_of[sib].size
                assert n > n_sib or (n == n_sib and k == tree.child[parent_of[k]] + 1)
                p_rows = rows_of[parent_of[k]]
                bound[k] = bound.get(parent_of[k], 0.0) + (
                    (p_rows.size + nv + 1) * 2.0**-52 * weights[p_rows].sum())
                ref_w, ref_w1 = _per_leaf_histogram(X, weights, pos, rows_of[k], ds.domains)
                assert np.all(np.abs(w_left[slot] - ref_w) <= bound[k])
                assert np.all(np.abs(w1_left[slot] - ref_w1) <= bound[k])

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_root_probabilities_are_what_induction_samples(self, monkeypatch, alpha):
        ds = make_blocks_dataset(90, 3, seed=8)
        rng = RandomSource(21)
        weights = np.array([0.05 + 0.95 * rng.uniform() for _ in range(90)])
        seen = []  # (utilities, sensitivity, epsilon) of each draw
        select = tree_module._select

        def spy(utilities, sensitivity, epsilon, u):
            seen.append((np.array(utilities, copy=True), sensitivity, epsilon))
            return select(utilities, sensitivity, epsilon, u)

        monkeypatch.setattr(tree_module, "_select", spy)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        induce_tree(
            ds, weights, TreeConfig(depth=1, alpha=alpha, privacy=privacy),
            BudgetAccountant(1.0), RandomSource(3),
        )
        # the root is the one row of the one draw, at the sensitivity and budget of alpha
        eps_node = split_budget(0, 1, 1, 0.5, 1.0)
        delta = sensitivity_bound(LossSpec.malpha(alpha), 90)
        ((utilities, sensitivity, epsilon),) = seen
        assert utilities.shape == (1, len(candidate_splits(ds)))
        assert (sensitivity, epsilon) == (delta, eps_node)
        assert np.array_equal(
            root_split_probabilities(ds, weights, alpha, eps_node),
            exponential_mechanism_probabilities(utilities[0], delta, eps_node),
        )


def _reference_risk(w, w1, spec):
    # reference: w * bayes_risk(w1 / w) per leaf, 0 when empty
    w, w1 = np.asarray(w, dtype=float), np.asarray(w1, dtype=float)
    nonempty = w > 0.0
    q = np.clip(w1 / np.where(nonempty, w, 1.0), 0.0, 1.0)
    return np.where(nonempty, w * bayes_risk(spec, q), 0.0)


def _reference_split_scores(child, ds, weights, config, choose):
    """(alpha, utilities, tied, changes) of every split of a tree of table ``child``, in
    induction order, recomputed from scratch: every candidate's children from per-leaf
    bincounts under the sibling rule (of two children that both score, the one with more
    rows, or the right on a tie, has its parent's bins minus its sibling's), alpha from
    the errors of the live leaves, whether the leaf has no rows or one class, and whether
    its split changes the error count.  ``choose(node, level, alpha, utilities)`` gives
    the split's (attribute, threshold_bin).  Also returns the live leaves' (w, w1,
    errors), by node."""
    pos = ds.y == 1
    m = ds.n_examples

    def stats(idx):
        # (w, w1, errors of the weighted majority label); the sums run over
        # the rows in ascending order, as induction sums them
        w, w1 = float(weights[idx].sum()), float(weights[idx[pos[idx]]].sum())
        return w, w1, int(np.count_nonzero(ds.y[idx] != (1 if w1 > w - w1 else -1)))

    def scores(node, idx):  # split, with rows of both classes
        return child[node] != node and np.unique(ds.y[idx]).size == 2

    live = {0: stats(np.arange(m))}
    err_root = live[0][2] / m
    # (node, its rows, its parent, its sibling's rows); bins of every scored node
    frontier, out, bins = [(0, np.arange(m), None, None)], [], {}
    for level in range(config.depth):
        next_frontier = []
        for node, idx, parent, sibling in frontier:
            if child[node] == node:  # a leaf that stopped early stays live
                continue
            if not config.objective_calibration:
                alpha = config.alpha
            elif err_root > 0.0:
                errors = sum(e for _, _, e in live.values())
                alpha = objective_calibration_alpha(errors / m, err_root)
            else:
                alpha = 1.0
            spec = LossSpec.malpha(alpha)
            tied = not scores(node, idx)
            own = _per_leaf_bins(ds.X, weights, pos, idx, ds.domains)
            if node and not tied:
                on_right, left_child = node == child[parent] + 1, child[parent]
                if scores(2 * left_child + 1 - node, sibling) and (
                        idx.size > sibling.size or (idx.size == sibling.size and on_right)):
                    own = _sibling_bins(
                        bins[parent], _per_leaf_bins(ds.X, weights, pos, sibling, ds.domains))
            bins[node] = own
            w_left, w1_left = _left_of(own)
            left = _reference_risk(w_left, w1_left, spec)
            w, w1, errors = live.pop(node)
            right = _reference_risk(w - w_left, w1 - w1_left, spec)
            attribute, threshold_bin = choose(node, level, alpha, -(left + right))
            mask = ds.X[idx, attribute] <= threshold_bin
            first = int(child[node])
            live[first], live[first + 1] = stats(idx[mask]), stats(idx[~mask])
            out.append((alpha, -(left + right), tied,
                        live[first][2] + live[first + 1][2] != errors))
            next_frontier += [(first, idx[mask], node, idx[~mask]),
                              (first + 1, idx[~mask], node, idx[mask])]
        frontier = next_frontier
    return out, live


def _reference_private_tree(ds, weights, config, seed):
    """Private induction one node at a time: breadth-first, each node of the complete
    tree, tied or not, draws its split through its own ``exponential_mechanism`` call
    over ``_reference_split_scores``' utilities, with the next uniform of the stream,
    and then each leaf's clamped link is released through its own ``laplace_mechanism``
    call, with the next uniform.  Returns the tree, its accountant and its random
    source."""
    pv, m, candidates = config.privacy, ds.n_examples, candidate_splits(ds)
    accountant, rng, records = BudgetAccountant(pv.epsilon), RandomSource(seed), []

    def draw(node, level, alpha, utilities):
        eps = split_budget(level, config.depth, pv.ensemble_size, pv.beta_tree, pv.epsilon)
        choice = exponential_mechanism(utilities, sensitivity_bound(LossSpec.malpha(alpha), m),
                                       eps, accountant, rng.uniform(), f"split@{level}")
        c = candidates[choice]
        records.append(SplitRecord(level, alpha, eps, float(utilities[choice]), c.attribute,
                                   c.threshold_bin))
        return c.attribute, c.threshold_bin

    child = tree_module._complete_child(config.depth)
    _, live = _reference_split_scores(child, ds, weights, config, draw)
    alpha = records[-1].alpha if config.objective_calibration else config.alpha
    n_splits, M = len(records), pv.output_bound
    eps_leaf = (1.0 - pv.beta_tree) * pv.epsilon / (pv.ensemble_size * (n_splits + 1))
    value = [0.0] * n_splits
    for k in range(n_splits, len(child)):
        w, w1, _ = live[k]
        q = min(max(w1 / w, Q_CLAMP), 1.0 - Q_CLAMP) if w > 0.0 else None
        link = 0.0 if q is None else float(canonical_link(LossSpec.malpha(alpha), q))
        value.append(float(laplace_mechanism(min(max(link, -M), M), 2.0 * M, eps_leaf,
                                             accountant, rng.uniform(), "leaf")))
    tree = DecisionTree(child, np.array([r.attribute for r in records] + [0] * (n_splits + 1)),
                        np.array([r.threshold_bin for r in records] + [tree_module.LEAF_BIN]
                                 * (n_splits + 1)), np.array(value), records, alpha, True)
    return tree, accountant, rng


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
        # the utilities of every draw, then of every greedy argmax
        seen = []
        sampler, argmax = tree_module._select, np.argmax

        def spy_sampler(utilities, *args, **kwargs):
            seen.append(np.array(utilities, copy=True))
            return sampler(utilities, *args, **kwargs)

        def spy_argmax(utilities, *args, **kwargs):
            seen.append(np.array(utilities, copy=True))
            return argmax(utilities, *args, **kwargs)

        monkeypatch.setattr(tree_module, "_select", spy_sampler)
        ds = make_blocks_dataset(120, 3, seed=5)
        rng = RandomSource(5)
        weights = np.array([0.05 + 0.95 * rng.uniform() for _ in range(120)])
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        private = TreeConfig(depth=5, alpha="oc", privacy=privacy)
        private_tree = induce_tree(ds, weights, private, BudgetAccountant(1.0), RandomSource(6))
        # the mechanism's batched sampler may take np.argmax too: spy on the greedy fit alone
        monkeypatch.setattr(np, "argmax", spy_argmax)
        noisy, noisy_weights = _noisy_threshold_dataset()
        greedy = TreeConfig(depth=5, alpha=0.3)
        greedy_tree = induce_tree(noisy, noisy_weights, greedy)
        # the cases under test occur: alpha changes within a level, empty
        # leaves, and leaves that stopped early
        assert any(len({r.alpha for r in private_tree.records if r.depth == d}) > 1
                   for d in range(5))
        reached = walk(private_tree, ds.X, private_tree.depth)
        assert np.unique(reached).size < np.count_nonzero(leaf_mask(private_tree.child))
        assert np.any(node_depths(greedy_tree.child)[leaf_mask(greedy_tree.child)] < 5)

        calls, kinds = iter(seen), []
        fits = [(ds, weights, private, private_tree), (noisy, noisy_weights, greedy, greedy_tree)]
        for data, w, config, tree in fits:
            reference, _ = _reference_split_scores(
                tree.child, data, w, config,
                lambda node, *_: (tree.attribute[node], tree.threshold_bin[node]))
            assert len(reference) == len(tree.records)
            kinds.append({s[2] for s in reference})
            n_candidates = len(candidate_splits(data))
            for d in range(config.depth):
                level = [(r, s) for r, s in zip(tree.records, reference) if r.depth == d]
                scored, tied = [x for x in level if not x[1][2]], [x for x in level if x[1][2]]
                # A level's scored leaves draw in runs, in frontier order: a run holds the
                # rest of them at the current alpha (a greedy run holds one leaf) and takes
                # rows up to the first split that changes the error count.  Each taken row
                # comes from its leaf's rows and, for a derived leaf, its parent's and
                # sibling's, whatever the rest of the tree holds.
                while scored:
                    batch = next(calls)
                    assert batch.shape == (len(scored) if config.privacy else 1, n_candidates)
                    changes = [s[3] and config.objective_calibration for _, s in scored]
                    taken = min(len(batch), changes.index(True) + 1 if True in changes else
                                len(scored))
                    for row, (record, (alpha, expected, _, _)) in zip(batch, scored[:taken]):
                        assert record.alpha == alpha and np.array_equal(row, expected)
                    scored = scored[taken:]
                # then its tied leaves draw as the rows of one batch: every candidate
                # scores alike
                if tied:
                    batch = next(calls)
                    assert batch.shape == (len(tied), n_candidates)
                    for row, (record, (alpha, expected, _, _)) in zip(batch, tied):
                        assert record.alpha == alpha and np.array_equal(row, expected)
                        assert expected.tobytes() == np.full(row.size, record.utility).tobytes()
        assert next(calls, None) is None
        # the private fit has tied and scored splits; the greedy one stops tied leaves
        assert kinds == [{True, False}, {False}]

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
        assert vector[0].tobytes() == expected


class TestNoisifyLeaves:
    """A private ``induce_tree`` releases its leaves itself: after the split draws, one
    Laplace release of every leaf clamped to [-M, M], each with its own ledger entry."""

    @staticmethod
    def _stump(M):
        # one candidate, so the one split is known: it leaves two pure leaves, whose
        # clamped links at alpha = 1 are about -99.98 and 99.98
        doms = [AttributeDomain("a", 0.0, 1.0, 2)]
        ds = Dataset(np.array([[0], [0], [1], [1]]), np.array([-1, -1, 1, 1]), doms)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=M)
        return ds, TreeConfig(depth=1, alpha=1.0, privacy=privacy)

    def test_clamp_before_noise(self, monkeypatch):
        released = _spy_on_leaf_release(monkeypatch)
        ds, config = self._stump(M=10.0)
        tree = induce_tree(ds, np.ones(4), config, BudgetAccountant(1.0), RandomSource(1))
        links = canonical_link(LossSpec.malpha(1.0), np.array([Q_CLAMP, 1.0 - Q_CLAMP]))
        assert links[0] < -99.98 and links[1] > 99.98
        assert released[0].tolist() == [[-10.0], [10.0]]  # the links, clamped to M
        # each leaf is its own release of sensitivity 2M at (1 - 0.5) * 1 / (1 * 2), with
        # the uniforms after the split's one
        mirror = RandomSource(1)
        mirror.uniform()
        expected = [laplace_mechanism(v, 20.0, 0.25, BudgetAccountant(1.0), mirror.uniform())
                    for v in (-10.0, 10.0)]
        assert tree.value[[1, 2]].tolist() == expected
        assert tree.noised

    def test_leaf_budget_share(self):
        # each of the L = 4 leaves spends (1 - beta_tree) * epsilon / (T * L) of a T-tree run
        ds = make_blocks_dataset(80, 3, seed=6)
        for T in (1, 3):
            privacy = TreePrivacy(epsilon=1.0, beta_tree=0.3, output_bound=10.0, ensemble_size=T)
            acc = BudgetAccountant(1.0)
            induce_tree(ds, np.ones(80), TreeConfig(depth=2, alpha=1.0, privacy=privacy), acc,
                        RandomSource(2))
            leaf_spends = [eps for label, eps in acc.spends if label == "leaf"]
            assert leaf_spends == [(1.0 - 0.3) * 1.0 / (T * 4)] * 4
            assert math.fsum(leaf_spends) == pytest.approx(0.7 / T, abs=1e-12)
            assert acc.total_spent == pytest.approx(1.0 / T, abs=1e-12)

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
        # level, then one per leaf
        ds = make_blocks_dataset(80, 3, seed=6)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        config = TreeConfig(depth=depth, alpha="oc", privacy=privacy)
        rng, mirror, acc = RandomSource(9), RandomSource(9), BudgetAccountant(1.0)
        induce_tree(ds, np.full(80, 0.5), config, acc, rng)
        mirror.uniforms(2**depth - 1 + 2**depth)
        assert rng.next_uint64() == mirror.next_uint64()
        assert len(acc.spends) == 2**depth - 1 + 2**depth

    @pytest.mark.parametrize("depth", [1, 4])
    def test_a_private_tree_is_released_whole(self, depth):
        # induction alone spends the tree's share: a split entry per split, level by
        # level, then a leaf entry per leaf, and the tree it returns is the released one
        ds = make_blocks_dataset(80, 3, seed=6)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        acc = BudgetAccountant(1.0)
        tree = induce_tree(ds, np.full(80, 0.5), TreeConfig(depth=depth, privacy=privacy), acc,
                           RandomSource(4))
        assert tree.noised and tree.to_dict()["noised"] is True
        assert [label for label, _ in acc.spends] == [
            f"split@{d}" for d in range(depth) for _ in range(2**d)
        ] + ["leaf"] * 2**depth
        assert acc.total_spent == pytest.approx(1.0, abs=1e-12)


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
        rng = np.random.default_rng(1)
        weights, pos = rng.uniform(0.1, 1.0, 300), compact.y == 1
        leaf_rows = [np.arange(0, 300, 3), np.arange(1, 300, 3)]
        # leaf 0's left child has the more rows, leaf 1's right one: both sides derived
        goes_left = rng.random(300) < np.where(np.arange(300) % 3 == 0, 0.6, 0.4)
        a = _check_two_levels(compact.X, weights, pos, leaf_rows, goes_left, compact.domains)
        b = _check_two_levels(wide.X, weights, pos, leaf_rows, goes_left, wide.domains)
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
