"""Boosting: leveraging, mirror weight updates, convergence, DP forests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpboost.dataset import AttributeDomain, Dataset, candidate_splits, make_blocks_dataset
from dpboost.ensemble import (
    BoostedEnsemble,
    RandomForest,
    WEIGHT_CLAMP,
    boost_fit,
    edge,
    empirical_risk,
    leveraging_coefficient,
    predict,
    rf_fit,
    update_weights,
)
from dpboost.losses import LossSpec, inverse_link
from dpboost.privacy import BudgetAccountant, RandomSource
from dpboost.tree import (
    DecisionTree,
    TreeConfig,
    TreePrivacy,
    induce_tree,
    leaf_mask,
    tables_from_nodes,
    walk,
)


def _leaf_tree(prediction: float) -> DecisionTree:
    # a tree that is one leaf
    return DecisionTree(*tables_from_nodes([prediction]))


class TestEdge:
    def test_perfect_and_silent(self):
        y = np.array([1, -1, 1, -1])
        w = np.full(4, 0.25)
        assert edge(w, y, y * 5.0) == pytest.approx(5.0)
        assert edge(w, y, np.zeros(4)) == 0.0

    def test_arithmetic(self):
        w = np.array([0.5, 0.5])
        y = np.array([1, -1])
        h = np.array([2.0, 1.0])
        assert edge(w, y, h) == pytest.approx(0.5)

    def test_requires_distribution(self):
        with pytest.raises(ValueError):
            edge(np.array([0.5, 0.6]), np.array([1, -1]), np.array([1.0, 1.0]))


class TestLeveragingCoefficient:
    def test_arithmetic(self):
        w = np.array([0.5, 0.5])
        yh = np.array([2.0, -1.0])
        assert leveraging_coefficient(0.01, w, np.ones(2), yh) == pytest.approx(0.0025)

    def test_sign_agreement(self):
        w = np.array([0.3, 0.7, 0.5])
        y = np.array([1, 1, -1])
        h = y * np.array([2.0, 1.0, 3.0])  # all correct
        assert leveraging_coefficient(0.1, w, y, h) > 0.0
        assert leveraging_coefficient(0.1, w, y, np.zeros(3)) == 0.0

    def test_equals_a_wtilde_eta(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 0.9, size=20)
        y = np.where(rng.uniform(size=20) < 0.5, 1, -1)
        h = rng.normal(size=20)
        a = 0.01
        beta = leveraging_coefficient(a, w, y, h)
        w_tilde = w.mean()
        eta = edge(w / w.sum(), y, h)
        assert beta == pytest.approx(a * w_tilde * eta, rel=1e-12)


class TestUpdateWeights:
    def test_fixed_point_at_half(self):
        w = np.full(3, 0.5)
        out = update_weights(1.0, w, 0.0, np.array([1, -1, 1]), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, 0.5)

    def test_known_value(self):
        w = np.array([0.5])
        out = update_weights(1.0, w, 2.0, np.array([1]), np.array([1.0]))
        assert out[0] == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(2.0)), abs=1e-12)
        assert out[0] == pytest.approx(float(inverse_link(LossSpec.malpha(1.0), -2.0)))

    def test_monotone_in_margin(self):
        w = np.array([0.4, 0.4])
        y = np.array([1, 1])
        h = np.array([3.0, 1.0])  # first margin larger
        out = update_weights(1.0, w, 0.5, y, h)
        assert out[0] <= out[1]

    def test_clamped_into_open_interval(self):
        w = np.array([0.5])
        out = update_weights(1.0, w, 1.0, np.array([1]), np.array([1e9]))
        assert out[0] == WEIGHT_CLAMP
        out = update_weights(1.0, w, 1.0, np.array([-1]), np.array([1e9]))
        assert out[0] == 1.0 - WEIGHT_CLAMP

    def test_rejects_boundary_weights(self):
        for bad in (0.0, 1.0, np.nan):
            with pytest.raises(ValueError, match="strictly inside"):
                update_weights(1.0, np.array([0.5, bad]), 0.1, np.array([1, -1]),
                               np.array([1.0, 1.0]))


@settings(max_examples=100, deadline=None)
@given(
    w=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    beta=st.floats(min_value=0.0, max_value=2.0),
    m1=st.floats(min_value=-5.0, max_value=5.0),
    m2=st.floats(min_value=-5.0, max_value=5.0),
)
def test_prop_update_monotone(w, beta, m1, m2):
    lo, hi = sorted((m1, m2))
    out = update_weights(
        1.0, np.array([w, w]), beta, np.array([1, 1]), np.array([hi, lo])
    )
    assert out[0] <= out[1] + 1e-12


class TestBoostFit:
    def test_single_tree_reduces_to_induction(self):
        ds = make_blocks_dataset(150, 3, seed=2)
        cfg = TreeConfig(depth=2, alpha=1.0)
        ens = boost_fit(ds, 1, cfg, output_bound=10.0)
        solo = induce_tree(ds, np.full(150, 0.5), cfg)
        assert np.array_equal(
            ens.trees[0].predict_bins(ds.X), solo.predict_bins(ds.X)
        )
        assert len(ens.trees) == 1

    def test_convergence_on_separable_data(self):
        ds = make_blocks_dataset(400, 4, seed=7)
        ens = boost_fit(ds, 20, TreeConfig(depth=2, alpha=1.0), output_bound=10.0)
        assert ens.traces.train_error[-1] == 0.0
        assert all(e == 0.0 for e in ens.traces.train_error)  # stays at zero
        diffs = np.diff(ens.traces.surrogate)
        assert np.all(diffs <= 1e-9)

    def test_surrogate_bound_from_measured_edges(self):
        # the risk certificate from the measured run: err <= 1 - c * sum(w~^2 eta^2) / M^2
        ds = make_blocks_dataset(400, 4, seed=7)
        M, alpha, pi = 10.0, 1.0, 0.0
        ens = boost_fit(ds, 10, TreeConfig(depth=2, alpha=alpha), output_bound=M)
        acc = sum(
            (wt * et) ** 2 for wt, et in zip(ens.traces.mean_weight, ens.traces.edges)
        )
        xi = 1.0 - (1.0 - pi**2) * alpha / (2.0 * M**2) * acc
        assert ens.traces.surrogate[-1] <= xi + 1e-9
        assert empirical_risk(ens, ds) <= max(xi, 0.0) + 1e-9
        # the weaker gamma form: with gamma = min measured edge / M, the risk
        # is below any xi whose weight budget the run has covered
        gamma = min(abs(e) for e in ens.traces.edges) / M
        assert gamma > 0.0
        weight_budget = sum(wt**2 for wt in ens.traces.mean_weight)
        xi_gamma = 1.0 - (1.0 - pi**2) * gamma**2 * alpha * weight_budget / 2.0
        assert weight_budget >= 2.0 * (1.0 - xi_gamma) / ((1.0 - pi**2) * gamma**2 * alpha)
        assert empirical_risk(ens, ds) <= max(xi_gamma, 0.0) + 1e-9

    def test_private_run_spends_exactly_epsilon(self):
        ds = make_blocks_dataset(200, 3, seed=4)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0, ensemble_size=5)
        cfg = TreeConfig(depth=2, alpha="oc", privacy=privacy)
        acc = BudgetAccountant(1.0)
        boost_fit(ds, 5, cfg, accountant=acc, rng=RandomSource(3))
        assert acc.total_spent == pytest.approx(1.0, abs=1e-12)

    def test_private_oc_pure_labels_release_the_neighbors_shape(self):
        # all labels +1 against one label flipped: a private fit must grow and
        # spend the same on both, or the released shape tells them apart
        ds = make_blocks_dataset(40, 4, seed=0)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0, ensemble_size=2)
        cfg = TreeConfig(depth=3, alpha="oc", privacy=privacy)
        released = []
        for y in (np.ones(40, dtype=int), np.r_[-1, np.ones(39, dtype=int)]):
            acc = BudgetAccountant(1.0)
            model = boost_fit(Dataset(ds.X, y, ds.domains), 2, cfg, accountant=acc,
                              rng=RandomSource(0))
            released.append((sum(int(leaf_mask(t.child).sum()) for t in model.trees), acc.spends))
        assert released[0] == released[1]
        assert released[0][0] == 2 * 2**3

    def test_private_requires_matching_T(self):
        ds = make_blocks_dataset(50, 2, seed=1)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0, ensemble_size=3)
        cfg = TreeConfig(depth=2, alpha=1.0, privacy=privacy)
        with pytest.raises(ValueError):
            boost_fit(ds, 5, cfg, accountant=BudgetAccountant(1.0), rng=RandomSource(0))

    @pytest.mark.parametrize("bound", [0.0, -5.0, float("nan"), float("inf")])
    def test_non_positive_output_bound_rejected(self, bound):
        # an infinite bound would fit betas of 0 and write a model load_model rejects
        ds = make_blocks_dataset(50, 2, seed=1)
        with pytest.raises(ValueError, match="output_bound"):
            boost_fit(ds, 1, TreeConfig(depth=1, alpha=1.0), output_bound=bound)

    def test_private_output_bound_must_be_the_privacy_one(self):
        # the privacy's bound clamps the leaves a private tree releases; another one
        # passed beside it would be ignored, so it is rejected before any spend
        ds = make_blocks_dataset(50, 2, seed=1)
        privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0)
        config = TreeConfig(depth=2, alpha=1.0, privacy=privacy)
        accountant = BudgetAccountant(1.0)
        with pytest.raises(ValueError, match="output_bound 5.0 differs"):
            boost_fit(ds, 1, config, output_bound=5.0, accountant=accountant,
                      rng=RandomSource(0))
        assert accountant.spends == []
        model = boost_fit(ds, 1, config, output_bound=10.0, accountant=accountant,
                          rng=RandomSource(0))
        assert model.output_bound == 10.0

    def test_infinite_private_output_bound_rejected_before_any_spend(self):
        # it would fail only at the leaf release, after the splits spent
        ds = make_blocks_dataset(50, 2, seed=1)
        accountant = BudgetAccountant(1.0)
        with pytest.raises(ValueError, match="output_bound must be positive and finite"):
            privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=math.inf)
            boost_fit(ds, 1, TreeConfig(depth=2, alpha=1.0, privacy=privacy),
                      accountant=accountant, rng=RandomSource(0))
        assert accountant.spends == []

    def test_deterministic_private_run(self):
        ds = make_blocks_dataset(100, 3, seed=4)

        def run():
            privacy = TreePrivacy(epsilon=0.5, beta_tree=0.5, output_bound=10.0, ensemble_size=3)
            cfg = TreeConfig(depth=2, alpha=1.0, privacy=privacy)
            acc = BudgetAccountant(0.5)
            ens = boost_fit(ds, 3, cfg, accountant=acc, rng=RandomSource(11))
            return json.dumps(ens.to_dict(), sort_keys=True), list(ens.betas)

        assert run() == run()


class TestPredict:
    def test_empty_ensemble_margin_zero_label_negative(self):
        ens = BoostedEnsemble(trees=[], betas=[], output_bound=10.0)
        margins, labels = predict(ens, np.zeros((3, 2), dtype=int))
        assert np.all(margins == 0.0)
        assert np.all(labels == -1)

    def test_single_leaf_tree_scaled(self):
        ens = BoostedEnsemble(trees=[_leaf_tree(3.0)], betas=[2.0], output_bound=10.0)
        margins, labels = predict(ens, np.zeros((2, 1), dtype=int))
        assert np.all(margins == 6.0)
        assert np.all(labels == 1)

    def test_opposite_trees_cancel_to_negative_label(self):
        ens = BoostedEnsemble(trees=[_leaf_tree(4.0), _leaf_tree(-4.0)], betas=[1.0, 1.0],
                              output_bound=10.0)
        margins, labels = predict(ens, np.zeros((1, 1), dtype=int))
        assert margins[0] == 0.0 and labels[0] == -1

    def test_outputs_clamped_at_prediction_time(self):
        ens = BoostedEnsemble(trees=[_leaf_tree(1e6)], betas=[1.0], output_bound=10.0)
        margins, _ = predict(ens, np.zeros((1, 1), dtype=int))
        assert margins[0] == 10.0


class TestEmpiricalRisk:
    def test_counting(self):
        doms = [AttributeDomain("x", 0.0, 1.0, 2)]
        ds = Dataset(np.zeros((10, 1), dtype=int), np.array([1] * 10), doms)
        always_down = BoostedEnsemble(
            trees=[_leaf_tree(-1.0)],
            betas=[1.0],
            output_bound=10.0,
        )
        assert empirical_risk(always_down, ds) == 1.0
        mixed = Dataset(np.zeros((10, 1), dtype=int), np.array([-1] * 7 + [1] * 3), doms)
        assert empirical_risk(always_down, mixed) == pytest.approx(0.3)


class TestRandomForest:
    def test_odd_vote_never_ties(self):
        ds = make_blocks_dataset(100, 3, seed=2)
        acc = BudgetAccountant(1.0)
        rf = rf_fit(ds, 21, 2, 1.0, "laplace", acc, RandomSource(0))
        votes = rf.margins(ds.X)
        assert np.all(votes != 0)

    def test_total_spend_exact(self):
        ds = make_blocks_dataset(100, 3, seed=2)
        for mech in ("laplace", "exponential"):
            acc = BudgetAccountant(0.25)
            rf_fit(ds, 21, 3, 0.25, mech, acc, RandomSource(1))
            assert acc.total_spent == pytest.approx(0.25, abs=1e-12)
            assert len(acc.spends) == 21 * 8

    def test_high_budget_matches_noise_free_majority(self):
        ds = make_blocks_dataset(60, 2, seed=5)
        acc = BudgetAccountant(1e6)
        rf = rf_fit(ds, 21, 2, 1e6, "laplace", acc, RandomSource(2))
        agreements = 0
        leaves = 0
        reached = walk(rf, ds.X, rf.depth)
        for (t, k), vote in np.ndenumerate(rf.value):
            if rf.child[t, k] != k:
                continue  # a split releases nothing
            idx = np.flatnonzero(reached[t] == k)
            n_pos = int(np.count_nonzero(ds.y[idx] == 1))
            if 2 * n_pos == idx.size:
                continue  # tied: majority undefined, as for an unreached leaf
            leaves += 1
            majority = 1.0 if 2 * n_pos > idx.size else -1.0
            agreements += vote == majority
        assert leaves > 20
        assert agreements / leaves >= 0.999

    def test_structure_is_data_independent(self):
        # same seed, different labels: identical structure
        ds1 = make_blocks_dataset(80, 3, seed=6)
        flipped = Dataset(ds1.X, -ds1.y, ds1.domains)
        rf1 = rf_fit(ds1, 5, 2, 1.0, "exponential", BudgetAccountant(1.0), RandomSource(9))
        rf2 = rf_fit(flipped, 5, 2, 1.0, "exponential", BudgetAccountant(1.0), RandomSource(9))
        assert np.array_equal(rf1.child, rf2.child)
        assert np.array_equal(rf1.attribute, rf2.attribute)
        assert np.array_equal(rf1.threshold_bin, rf2.threshold_bin)

    @pytest.mark.parametrize("mechanism, per_leaf", [("laplace", 2), ("exponential", 1)])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_each_tree_stream_takes_its_structure_then_its_leaf_draws(
        self, mechanism, per_leaf, depth
    ):
        # a forest tree's stream takes one randint per inner node, then per_leaf
        # uniforms per leaf; the mechanisms draw nothing
        ds = make_blocks_dataset(60, 3, seed=2)
        children = []

        class Recording(RandomSource):
            def spawn(self, *labels):
                children.append(super().spawn(*labels))
                return children[-1]

        rng = Recording(7)
        rf_fit(ds, 3, depth, 1.0, mechanism, BudgetAccountant(1.0), rng)
        n_candidates = len(candidate_splits(ds))
        assert len(children) == 3
        for t, child in enumerate(children):
            mirror = RandomSource(7).spawn("rf-tree", t)
            for _ in range(2**depth - 1):
                mirror.randint(n_candidates)
            mirror.uniforms(per_leaf * 2**depth)
            assert child.next_uint64() == mirror.next_uint64()

    def test_invalid_mechanism(self):
        ds = make_blocks_dataset(20, 2, seed=1)
        with pytest.raises(ValueError):
            rf_fit(ds, 3, 1, 1.0, "gaussian", BudgetAccountant(1.0), RandomSource(0))

    @pytest.mark.parametrize("T, depth", [(0, 2), (-1, 2), (3, 0), (3, -1)])
    def test_rejects_an_empty_forest_or_leaf_trees_before_any_spend(self, T, depth):
        ds = make_blocks_dataset(20, 2, seed=1)
        acc, rng = BudgetAccountant(1.0), RandomSource(0)
        with pytest.raises(ValueError, match="T and depth must be >= 1"):
            rf_fit(ds, T, depth, 1.0, "laplace", acc, rng)
        assert acc.spends == [] and rng.next_uint64() == RandomSource(0).next_uint64()

    def test_from_dict_rejects_what_no_fit_makes(self):
        ds = make_blocks_dataset(60, 2, seed=5)
        data = rf_fit(ds, 3, 2, 1.0, "laplace", BudgetAccountant(1.0), RandomSource(4)).to_dict()
        damages = {  # each tree is 7 nodes, the last 4 its leaves
            "not complete": lambda d: d["trees"][1].__setitem__(slice(2, None), [1.0] * 3),
            "differ in depth": lambda d: d["trees"][2].__setitem__(slice(1, None), [1.0] * 2),
            "at least one tree": lambda d: d.update(trees=[]),
            "at least one tree of depth >= 1": lambda d: d.update(trees=[[1.0], [1.0]]),
        }
        for message, damage in damages.items():
            broken = json.loads(json.dumps(data))
            damage(broken)
            with pytest.raises(ValueError, match=message):
                RandomForest.from_dict(broken)

    def test_serialization_round_trip(self):
        ds = make_blocks_dataset(60, 2, seed=5)
        rf = rf_fit(ds, 5, 2, 1.0, "laplace", BudgetAccountant(1.0), RandomSource(4))
        clone = RandomForest.from_dict(rf.to_dict())
        assert np.array_equal(predict(clone, ds.X)[1], predict(rf, ds.X)[1])
