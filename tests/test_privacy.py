"""Mechanisms, accounting, determinism, and the brute-force sensitivity oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dpboost.dataset import AttributeDomain, Dataset
from dpboost.losses import LossSpec, bayes_risk, sensitivity_bound
from dpboost.privacy import (
    BudgetAccountant,
    BudgetExceededError,
    RandomSource,
    brute_force_sensitivity,
    derive_seed,
    exponential_mechanism,
    exponential_mechanism_probabilities,
    laplace_from_uniform,
    laplace_mechanism,
    replacement_neighbors,
)
from dpboost.privacy import _splitmix64

_MASK64 = (1 << 64) - 1


def _reference_derive_seed(master_seed, *labels):
    # every label's bytes folded afresh, as derive_seed did before it cached its folds
    state = int(master_seed) & _MASK64
    for label in labels:
        data = label.encode("utf-8") if isinstance(label, str) else int(label).to_bytes(8, "little")
        for byte in data:
            state, out = _splitmix64(state ^ byte)
            state ^= out
    return _splitmix64(state)[1]


class TestRandomSource:
    def test_determinism(self):
        a = RandomSource(123)
        b = RandomSource(123)
        assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]

    def test_uniform_open_interval(self):
        rng = RandomSource(0)
        draws = np.array([rng.uniform() for _ in range(10000)])
        assert np.all((draws > 0.0) & (draws < 1.0))
        assert abs(draws.mean() - 0.5) < 0.02

    def test_spawn_independent_of_draw_history(self):
        a = RandomSource(7)
        b = RandomSource(7)
        b.uniform()  # consume
        assert a.spawn("x").next_uint64() == b.spawn("x").next_uint64()
        assert a.spawn("x").next_uint64() != a.spawn("y").next_uint64()

    @pytest.mark.parametrize("seed", [0, 123, 2**64 - 1, 2**64 - 2, 2**64 - 0x9E3779B97F4A7C15])
    @pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 257])
    def test_uniforms_equal_uniform_calls(self, seed, n):
        # near 2**64 - 1 the state wraps on the first step; 15 and 16 flank the array path
        batch, single = RandomSource(seed), RandomSource(seed)
        draws = batch.uniforms(n)
        expected = np.array([single.uniform() for _ in range(n)], dtype=float)
        assert draws.dtype == np.float64 and draws.tobytes() == expected.tobytes()
        assert batch.next_uint64() == single.next_uint64()  # the same state after

    def test_uniforms_continue_a_stream(self):
        batch, single = RandomSource(5), RandomSource(5)
        batch.uniform(), single.uniform()
        assert batch.uniforms(3).tolist() == [single.uniform() for _ in range(3)]
        with pytest.raises(ValueError):
            batch.uniforms(-1)

    def test_randint_bounds(self):
        rng = RandomSource(3)
        draws = [rng.randint(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_shuffle_is_permutation(self):
        rng = RandomSource(11)
        items = list(range(30))
        shuffled = items.copy()
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items and shuffled != items

    def test_derive_seed_stable_and_label_sensitive(self):
        assert derive_seed(5, "cell", 3) == derive_seed(5, "cell", 3)
        assert derive_seed(5, "cell", 3) != derive_seed(5, "cell", 4)
        assert derive_seed(5, "cell") != derive_seed(6, "cell")

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        labels=st.lists(st.one_of(st.text(max_size=30), st.integers(0, 2**64 - 1),
                                  st.sampled_from(["spawn", "rf-tree", "é∑🙂", 0, 2**64 - 1])),
                        max_size=5),
    )
    def test_derive_seed_equals_the_uncached_fold(self, seed, labels):
        # twice: the second derivation reads every fold from the cache
        expected = _reference_derive_seed(seed, *labels)
        assert derive_seed(seed, *labels) == expected
        assert derive_seed(seed, *labels) == expected
        assert RandomSource(seed).spawn(*labels).seed == _reference_derive_seed(
            seed, "spawn", *labels)


class TestLaplace:
    def test_inverse_cdf_exact_point(self):
        # U = 0.25 lands at scale * ln 2
        assert laplace_from_uniform(0.25, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert laplace_from_uniform(0.25, 2.5) == pytest.approx(2.5 * math.log(2.0), abs=1e-14)
        assert laplace_from_uniform(-0.25, 1.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_moments(self):
        # one release of a zero vector: its entries are Laplace draws of scale sens / eps
        n = 100000
        draws = laplace_mechanism(np.zeros(n), 1.0, 1.0, BudgetAccountant(1.0),
                                  RandomSource(2024).uniforms(n))
        assert abs(draws.mean()) < 0.02
        assert abs(np.abs(draws).mean() - 1.0) < 0.02
        draws = laplace_mechanism(np.zeros(n), 0.5, 1.0, BudgetAccountant(1.0),
                                  RandomSource(2025).uniforms(n))
        assert abs(draws.var() - 0.5) < 0.015

    def test_scale_validation(self):
        # a bad sensitivity, or a scale sens / eps that overflows or underflows
        acc = BudgetAccountant(1e300)
        for sensitivity, epsilon in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                                     (1e300, 1e-300), (1e-300, 1e300)):
            with pytest.raises(ValueError):
                laplace_mechanism(0.0, sensitivity, epsilon, acc, 0.5)
        assert acc.spends == []

    def test_mechanism_epsilon_validation(self):
        acc = BudgetAccountant(10.0)
        with pytest.raises(ValueError):
            laplace_mechanism(3.0, 2.0, math.inf, acc, 0.5)
        with pytest.raises(ValueError):
            laplace_mechanism(3.0, 2.0, 0.0, acc, 0.5)
        assert acc.total_spent == 0.0

    def test_mechanism_centers_on_value(self):
        acc = BudgetAccountant(1e9)
        u = RandomSource(99).uniforms(50000)
        outs = laplace_mechanism(np.zeros((50000, 1)), 1.0, 1.0, acc, u[:, None])
        assert len(acc.spends) == 50000
        assert abs(outs.mean()) < 0.03  # Lap(1) around 0
        assert abs(np.abs(outs).mean() - 1.0) < 0.03

    def test_deterministic_given_seed(self):
        def run():
            acc = BudgetAccountant(10.0)
            rng = RandomSource(4)
            return [laplace_mechanism(1.0, 1.0, 1.0, acc, rng.uniform()) for _ in range(10)]

        assert run() == run()

    def test_one_uniform_per_value(self):
        acc = BudgetAccountant(10.0)
        for values, u in ((0.0, [0.5]), ([0.0, 1.0], 0.5), (np.zeros((2, 3)), np.full(3, 0.5))):
            with pytest.raises(ValueError):
                laplace_mechanism(values, 1.0, 1.0, acc, u)
        assert acc.spends == []

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 30),
        k=st.integers(1, 3),
        epsilon=st.floats(1e-4, 10.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_each_row_of_a_batch_is_the_1d_call_bit_for_bit(self, n, k, epsilon, seed):
        rng = RandomSource(seed)
        values = np.array([[rng.randint(400) for _ in range(k)] for _ in range(n)], dtype=float)
        u = rng.uniforms(n * k).reshape(n, k)
        acc = BudgetAccountant(n * epsilon * 1.01)
        batch = laplace_mechanism(values, 2.0, epsilon, acc, u, "rf-leaf")
        assert batch.shape == (n, k)
        assert acc.spends == [("rf-leaf", epsilon)] * n
        for row, draws, noisy in zip(values, u, batch):
            alone = laplace_mechanism(list(row), 2.0, epsilon, BudgetAccountant(epsilon), draws)
            assert noisy.tobytes() == alone.tobytes()
            assert noisy.tolist() == [
                v + laplace_from_uniform(x - 0.5, 2.0 / epsilon) for v, x in zip(row, draws)
            ]

    def test_noise_is_the_scalar_log1p_formula_bit_for_bit(self):
        # The noise keeps Python's scalar math.log1p: np.log1p can differ from it in the
        # last bit on some CPUs, which would make the released bits depend on the CPU.
        u = RandomSource(7).uniforms(20_000)
        noisy = laplace_mechanism(np.full((20_000, 1), 0.25), 2.0, 0.5, BudgetAccountant(1e4),
                                  u[:, None])
        expected = [0.25 + -4.0 * math.copysign(1.0, x - 0.5) * math.log1p(-2.0 * abs(x - 0.5))
                    for x in u.tolist()]
        assert noisy[:, 0].tobytes() == np.array(expected).tobytes()


class TestExponentialMechanism:
    def test_equal_utilities_exact_half(self):
        p = exponential_mechanism_probabilities([5.0, 5.0], 1.0, 3.0)
        assert p[0] == 0.5 and p[1] == 0.5

    def test_exact_ratio(self):
        p = exponential_mechanism_probabilities([1.0, 0.0], 1.0, 2.0)
        assert p[0] / p[1] == pytest.approx(math.e, rel=1e-12)

    def test_vanishing_epsilon_uniform(self):
        p = exponential_mechanism_probabilities([3.0, -1.0, 7.0], 1.0, 1e-12)
        assert np.max(np.abs(p - 1.0 / 3.0)) < 1e-10

    def test_extreme_scores_stable(self):
        p = exponential_mechanism_probabilities([1e6, 0.0, -1e6], 1.0, 10.0)
        assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)

    def test_empty_and_invalid(self):
        with pytest.raises(ValueError):
            exponential_mechanism_probabilities([], 1.0, 1.0)
        with pytest.raises(ValueError):
            exponential_mechanism_probabilities([1.0, math.nan], 1.0, 1.0)

    def test_overflowing_scores_are_rejected(self):
        # finite utilities whose scores eps u / (2 sens) overflow would normalize to NaN
        with pytest.raises(ValueError, match="scores must be finite"):
            exponential_mechanism_probabilities([-100.0, -50.0, -10.0], 3.0, 1e308)
        acc = BudgetAccountant(1e308)
        with pytest.raises(ValueError, match="scores must be finite"):
            exponential_mechanism([-100.0, -50.0, -10.0], 3.0, 1e308, acc, 0.5)
        assert acc.spends == []

    def test_every_row_of_a_batch_is_checked(self):
        for bad in ([[1.0, 2.0], [1.0, math.nan]], [[1.0], [math.inf]], np.zeros((3, 0)), 4.0):
            with pytest.raises(ValueError):
                exponential_mechanism_probabilities(bad, 1.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=1,
                        max_size=40),
        epsilon=st.floats(1e-4, 10.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_each_row_of_a_batch_is_the_1d_call_bit_for_bit(self, counts, epsilon, seed):
        utilities = np.array(counts, dtype=float).reshape(len(counts), 1, 2)
        batch = exponential_mechanism_probabilities(utilities, 1.0, epsilon)
        assert batch.shape == utilities.shape
        rng = RandomSource(seed)
        draws = np.array([rng.uniform() for _ in counts]).reshape(len(counts), 1)
        acc = BudgetAccountant(len(counts) * epsilon * 1.01)
        picks = exponential_mechanism(utilities, 1.0, epsilon, acc, draws, "rf-leaf")
        assert picks.shape == draws.shape
        assert acc.spends == [("rf-leaf", epsilon)] * len(counts)
        for row, u, pick, probs in zip(counts, draws[:, 0], picks[:, 0], batch[:, 0]):
            alone = exponential_mechanism_probabilities(list(row), 1.0, epsilon)
            assert probs.tobytes() == alone.tobytes()
            assert pick == exponential_mechanism(list(row), 1.0, epsilon,
                                                 BudgetAccountant(epsilon), u)
            scalar = int(np.searchsorted(np.cumsum(alone), u, side="right"))
            assert pick == (scalar if scalar < 2 else int(np.flatnonzero(alone)[-1]))

    def test_one_uniform_per_release(self):
        acc = BudgetAccountant(10.0)
        for utilities, u in (([0.0, 1.0], [0.5]), ([[0.0, 1.0]] * 2, 0.5),
                             ([[0.0, 1.0]] * 2, [0.5] * 3)):
            with pytest.raises(ValueError):
                exponential_mechanism(utilities, 1.0, 1.0, acc, u)
        assert acc.spends == []

    def test_sampler_records_spend_and_is_deterministic(self):
        def run():
            acc = BudgetAccountant(5.0)
            rng = RandomSource(8)
            picks = [
                exponential_mechanism([0.0, 1.0, 2.0], 1.0, 0.5, acc, rng.uniform())
                for _ in range(10)
            ]
            return picks, acc.total_spent

        picks, spent = run()
        assert run() == (picks, spent)
        assert spent == pytest.approx(5.0)
        assert all(p in (0, 1, 2) for p in picks)

    def test_sampling_matches_probabilities(self):
        acc = BudgetAccountant(1e9)
        rng = RandomSource(77)
        utilities = [0.0, 1.0, 3.0]
        p = exponential_mechanism_probabilities(utilities, 1.0, 2.0)
        counts = np.zeros(3)
        n = 20000
        for _ in range(n):
            counts[exponential_mechanism(utilities, 1.0, 2.0, acc, rng.uniform())] += 1
        assert np.max(np.abs(counts / n - p)) < 0.02

    def test_largest_uniform_stays_in_range(self):
        # the largest draw RandomSource.uniform can return lies above the
        # rounded cdf[-1] here; it must select the last index that has
        # positive probability, never len(utilities)
        largest = 1.0 - 2.0**-53
        utilities = [0.0, 0.75, 0.25]
        probs = exponential_mechanism_probabilities(utilities, 1.0, 1.0)
        assert np.cumsum(probs)[-1] < largest
        acc = BudgetAccountant(31.0)
        assert exponential_mechanism(utilities, 1.0, 1.0, acc, largest) == 2
        # an underflowed tail is skipped over to the last positive entry
        tail = [0.0, 0.75, 0.0, -1e6]
        probs = exponential_mechanism_probabilities(tail, 1.0, 10.0)
        assert probs[-1] == 0.0 and np.cumsum(probs)[-1] < largest
        assert exponential_mechanism(tail, 1.0, 10.0, acc, largest) == 2
        # a batch takes the same rule row by row
        picks = exponential_mechanism([tail, [0.0] * 4], 1.0, 10.0, acc, np.array([largest, 0.3]))
        assert picks.tolist() == [2, 1]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 300),
        rows=st.integers(1, 8),
        c=st.floats(allow_nan=False, allow_infinity=False),
        sensitivity=st.floats(1e-300, 1e300),
        epsilon=st.floats(1e-300, 1e300),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_uniform_draw_is_the_mechanism_over_equal_utilities(
        self, n, rows, c, sensitivity, epsilon, seed
    ):
        # the mechanism's scores, as it forms them, must be finite
        assume(math.isfinite(epsilon * c / (2.0 * sensitivity)))
        # equal utilities give every candidate exactly 1.0 / n, at any sensitivity
        equal = np.full((rows, n), c)
        probs = exponential_mechanism_probabilities(equal, sensitivity, epsilon)
        assert probs.tobytes() == np.full((rows, n), 1.0 / n).tobytes()
        # and a batch of them draws, and spends, row by row as 1-D calls do
        u = RandomSource(seed).uniforms(rows)
        batch, one_by_one = BudgetAccountant(1e308), BudgetAccountant(1e308)
        picks = exponential_mechanism(equal, sensitivity, epsilon, batch, u, "split@3")
        assert picks.tolist() == [
            exponential_mechanism(row, sensitivity, epsilon, one_by_one, x, "split@3")
            for row, x in zip(equal, u.tolist())
        ]
        assert batch.spends == one_by_one.spends == [("split@3", epsilon)] * rows

    def test_uniform_draw_at_every_cdf_step_and_past_the_last(self):
        # A draw equal to cdf[i] opens interval i + 1; one at or past cdf[-1]
        # falls back to the last index.  cdf[-1] rounds below 1 at n = 6, 7
        # and 300 (at n = 6 it is the largest draw), above it at n = 9 and 11.
        # 1-D calls and the rows of one batch agree on every case.
        past_last = 0
        for n in (1, 2, 6, 7, 9, 11, 300):
            cdf = np.cumsum(np.full(n, 1.0 / n))
            past = {np.nextafter(cdf[-1], 1.0), 1.0 - 2.0**-53}
            cases = [(u, min(i + 1, n - 1)) for i, u in enumerate(cdf)]
            cases += [(u, n - 1) for u in sorted(past) if cdf[-1] < u < 1.0]
            draws, expected = (np.array(column) for column in zip(*cases))
            for u, pick in cases:
                acc = BudgetAccountant(1.0)
                assert exponential_mechanism(np.zeros(n), 1.0, 1.0, acc, u) == pick
            acc = BudgetAccountant(float(len(cases)))
            picks = exponential_mechanism(np.zeros((len(cases), n)), 1.0, 1.0, acc, draws)
            assert np.array_equal(picks, expected)
            past_last += len(cases) - n
        assert past_last == 3

    def test_uniform_draw_rejects_what_the_mechanism_rejects(self):
        # a batch of equal utilities rejects what a 1-D call rejects, before any spend
        acc = BudgetAccountant(1.0)
        cases = [((0,), 1.0), ((2, 0), 1.0), ((0, 3), 1.0)]
        for eps in (0.0, -1.0, math.inf, math.nan):
            cases += [((3,), eps), ((2, 3), eps)]
        for shape, eps in cases:
            with pytest.raises(ValueError):
                exponential_mechanism(np.zeros(shape), 1.0, eps, acc, np.full(shape[:-1], 0.5))
        with pytest.raises(BudgetExceededError):
            exponential_mechanism(np.zeros((2, 3)), 1.0, 2.0, acc, np.full(2, 0.5))
        assert acc.spends == []


class TestBudgetAccountant:
    def test_composition_total(self):
        acc = BudgetAccountant(1.0)
        for i in range(10):
            acc.spend(f"step{i}", 0.1)
        assert acc.total_spent == pytest.approx(1.0, abs=1e-15)
        assert acc.total_spent == math.fsum(e for _, e in acc.spends)

    def test_overspend_is_hard_error(self):
        acc = BudgetAccountant(0.5)
        with pytest.raises(BudgetExceededError):
            acc.spend("too-much", 0.6)
        assert acc.spends == []
        acc.spend("ok", 0.5)
        with pytest.raises(BudgetExceededError):
            acc.spend("over", 1e-6)

    def test_invalid_spends(self):
        acc = BudgetAccountant(1.0)
        for bad in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                acc.spend("bad", bad)

    def test_mechanism_budget_gate(self):
        acc = BudgetAccountant(0.5)
        with pytest.raises(BudgetExceededError):
            laplace_mechanism(0.0, 1.0, 0.6, acc, 0.5)

    def test_a_batch_of_none_appends_nothing(self):
        acc = BudgetAccountant(1.0)
        acc.spend("split@3", 0.25, 0)
        assert acc.spends == [] and acc.remaining == 1.0
        acc.spend("split@3", 1.0, 1)
        acc.spend("split@3", 0.25, 0)  # nothing to spend: no overspend either
        assert acc.spends == [("split@3", 1.0)]

    def test_a_negative_count_is_a_value_error(self):
        acc = BudgetAccountant(1.0)
        with pytest.raises(ValueError):
            acc.spend("split@3", 0.25, -1)
        assert acc.spends == []

    @settings(max_examples=200, deadline=None)
    @given(
        budget=st.floats(0.0, 2.0),
        before=st.lists(st.floats(1e-6, 0.5), max_size=4),
        epsilon=st.floats(1e-6, 0.5),
        count=st.integers(0, 40),
    )
    @example(budget=1.0, before=[], epsilon=0.1, count=12)  # overspends at the 11th
    @example(budget=0.3, before=[0.1], epsilon=0.1, count=3)  # 0.1 + 0.1 + 0.1 > 0.3
    def test_a_batch_is_its_single_calls_bit_for_bit(self, budget, before, epsilon, count):
        # the same entries and running sum as ``count`` single calls, which stop at the
        # first overspend, and then the same error
        batch, single = BudgetAccountant(budget), BudgetAccountant(budget)
        for acc in (batch, single):
            for eps in before:
                try:
                    acc.spend("before", eps)
                except BudgetExceededError:
                    pass
        done = 0
        try:
            for _ in range(count):
                single.spend("split@2", epsilon)
                done += 1
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                batch.spend("split@2", epsilon, count)
        else:
            batch.spend("split@2", epsilon, count)
        assert batch.spends == single.spends
        assert [label for label, _ in batch.spends].count("split@2") == done
        assert (batch._running.hex(), batch._carry.hex()) == (single._running.hex(),
                                                             single._carry.hex())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=0.3), min_size=1, max_size=12))
def test_prop_accountant_never_exceeds(spends):
    acc = BudgetAccountant(1.0)
    for eps in spends:
        try:
            acc.spend("s", eps)
        except BudgetExceededError:
            pass
    assert acc.total_spent <= 1.0 + 1e-12


# --- brute-force sensitivity oracle -----------------------------------------


def _leaf_criterion(alpha, threshold_bin=None):
    spec = LossSpec.malpha(alpha)

    def criterion(ds):
        if threshold_bin is None:
            member = np.ones(ds.n_examples, dtype=bool)
        else:
            member = ds.X[:, 0] <= threshold_bin
        w = float(ds.weights[member].sum())
        if w <= 0.0:
            return 0.0
        w1 = float(ds.weights[member & (ds.y == 1)].sum())
        return w * float(bayes_risk(spec, w1 / w))

    return criterion


def _domains(nv=4):
    return [AttributeDomain("x0", 0.0, float(nv - 1), nv)]


class TestBruteForceSensitivity:
    def test_constant_criterion_is_zero(self):
        base = Dataset(np.zeros((3, 1), dtype=int), np.array([1, -1, 1]), _domains())
        assert brute_force_sensitivity(lambda ds: 42.0, base) == 0.0

    def test_one_positive_flip_value(self):
        # All unit-weight examples in the leaf, one positive; flipping it
        # moves the criterion by exactly m * risk(1 / m).
        for m, alpha in ((4, 1.0), (5, 0.3), (6, 0.0)):
            X = np.zeros((m, 1), dtype=int)
            y = np.full(m, -1)
            y[0] = 1
            base = Dataset(X, y, _domains())
            flipped = Dataset(X, np.full(m, -1), _domains())
            crit = _leaf_criterion(alpha)
            delta = abs(crit(flipped) - crit(base))
            expected = m * float(bayes_risk(LossSpec.malpha(alpha), 1.0 / m))
            assert delta == pytest.approx(expected, abs=1e-9)
            # the exhaustive maximum cannot be below this achieved value
            assert brute_force_sensitivity(crit, base) >= delta - 1e-12

    def test_oracle_within_closed_bound(self):
        rng = RandomSource(31)
        weight_grid = (0.25, 0.5, 1.0)
        for trial in range(25):
            m = 2 + rng.randint(7)
            alpha = (0.0, 0.3, 1.0)[rng.randint(3)]
            X = np.array([[rng.randint(4)] for _ in range(m)])
            y = np.array([1 if rng.uniform() < 0.5 else -1 for _ in range(m)])
            w = np.array([weight_grid[rng.randint(3)] for _ in range(m)])
            base = Dataset(X, y, _domains(), w)
            crit = _leaf_criterion(alpha, threshold_bin=rng.randint(3))
            delta = brute_force_sensitivity(
                crit, base, replacement_neighbors(base, weight_grid=weight_grid)
            )
            assert delta <= sensitivity_bound(LossSpec.malpha(alpha), m) + 1e-9

    def test_neighbor_count_and_shape(self):
        base = Dataset(np.zeros((2, 1), dtype=int), np.array([1, -1]), _domains())
        neighbors = list(replacement_neighbors(base))
        # 2 examples x 4 bins x 2 labels x 3 weights
        assert len(neighbors) == 2 * 4 * 2 * 3
        assert all(n.n_examples == 2 for n in neighbors)

    def test_enumeration_size_gate(self):
        big = Dataset(
            np.zeros((9, 1), dtype=int), np.array([1, -1] * 4 + [1]), _domains()
        )
        with pytest.raises(ValueError):
            list(replacement_neighbors(big))
