"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance and runtime cap is pinned here; nothing is deferred
to later calibration.
"""

import csv
import math
import time

import numpy as np
import pytest

from dpboost.dataset import (
    AttributeDomain,
    Dataset,
    make_blocks_dataset,
)
from dpboost.ensemble import boost_fit, rf_fit
from dpboost.harness import (
    ExperimentConfig,
    RESULT_COLUMNS,
    compare,
    read_results,
    run_experiment,
    sensitivity_audit,
    tight_case_delta,
)
from dpboost.losses import (
    LossSpec,
    bayes_risk,
    canonical_link,
    inverse_link,
    perspective_at,
    surrogate,
)
from dpboost.privacy import BudgetAccountant, RandomSource, replacement_neighbors
from dpboost.tree import TreeConfig, TreePrivacy
from test_tree import root_split_probabilities


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _write_blocks_files(directory, m=400, n=4, seed=7):
    ds = make_blocks_dataset(m, n, seed=seed)
    data = directory / "blocks.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(n)] + ["y"])
        for i in range(m):
            writer.writerow([float(v) for v in ds.X[i]] + [int(ds.y[i])])
    domains = directory / "blocks.domains"
    lines = ["label_column = y", "label_map = -1:-1, 1:+1"]
    lines += [f"attribute = x{j} 0.0 9.0 10" for j in range(n)]
    domains.write_text("\n".join(lines) + "\n")
    return str(data), str(domains)


def test_criterion_1_loss_identities():
    start = time.perf_counter()
    us = np.linspace(0.0, 1.0, 1000)
    mat = np.asarray(bayes_risk(LossSpec.malpha(1.0), us))
    zo = np.asarray(bayes_risk(LossSpec.malpha(0.0), us))
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 1000):
        mix = np.asarray(bayes_risk(LossSpec.malpha(a), us))
        worst = max(worst, float(np.max(np.abs(mix - (a * mat + (1.0 - a) * zo)))))
    assert worst <= 1e-12
    kinds = [LossSpec.malpha(a) for a in (0.0, 0.3, 0.7, 1.0)]
    kinds += [LossSpec("log"), LossSpec("square")]
    for spec in kinds:
        assert abs(bayes_risk(spec, 0.5) - 1.0) <= 1e-12
        assert abs(bayes_risk(spec, 0.0)) <= 1e-12
        assert abs(bayes_risk(spec, 1.0)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1", f"max identity gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_link_calculus():
    start = time.perf_counter()
    for alpha in (0.1, 0.5, 1.0):
        spec = LossSpec.malpha(alpha)
        band = 2.0 * (1.0 - alpha)
        us = [u for u in np.linspace(0.001, 0.999, 199) if abs(u - 0.5) > 1e-9]
        for u in us:
            assert abs(inverse_link(spec, canonical_link(spec, u)) - u) <= 1e-9
        zs = [z for z in np.linspace(-25.0, 25.0, 251) if abs(z) > band + 1e-9]
        for z in zs:
            u = inverse_link(spec, z)
            assert abs(canonical_link(spec, u) - z) <= 1e-9 * max(1.0, abs(z))
        h = 1e-5
        for z in np.linspace(-9.0, 9.0, 181):
            if abs(abs(z) - band) < 1e-3:
                continue  # stated exclusion around the band endpoints
            numeric = (surrogate(spec, z + h) - surrogate(spec, z - h)) / (2.0 * h)
            assert abs(numeric - (-inverse_link(spec, -z))) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 2", f"round trips at 1e-9, derivative at 1e-6, {elapsed:.2f}s")


def test_criterion_3_sensitivity_bounds():
    start = time.perf_counter()
    # 210 random datasets: m in 2..8, alpha in {0, 0.3, 1}, 10 trials each
    rows = sensitivity_audit(
        m_values=(2, 3, 4, 5, 6, 7, 8), alphas=(0.0, 0.3, 1.0), trials=10, seed=0
    )
    assert len(rows) >= 200
    for row in rows:
        m, alpha = row["m"], row["alpha"]
        closed_bound = max(
            3.0, 1.0 + perspective_at(LossSpec.malpha(alpha), 1.0, m + 1.0)
        )
        assert row["empirical_delta"] <= closed_bound + 1e-9
        assert abs(row["bound"] - closed_bound) <= 1e-12
        flip = m * float(bayes_risk(LossSpec.malpha(alpha), 1.0 / m))
        assert abs(row["tight_case_delta"] - flip) <= 1e-9
        assert abs(tight_case_delta(m, alpha) - flip) <= 1e-9
    # closed forms against the perspective, per kind
    for m in range(1, 30):
        v = m + 1.0
        assert abs(
            perspective_at(LossSpec.malpha(1.0), 1.0, v) - 2.0 * math.sqrt(m)
        ) <= 1e-12
        assert abs(
            perspective_at(LossSpec("square"), 1.0, v) - 4.0 * m / (m + 1.0)
        ) <= 1e-12
        assert abs(perspective_at(LossSpec.malpha(0.0), 1.0, v) - 2.0) <= 1e-12
        # log: the perspective equals log2(m+1) + m log2((m+1)/m) exactly and
        # is upper-bounded by the (1 + ln(m+1)) / ln 2 closed form
        log_exact = (math.log(v) + m * math.log(v / m)) / math.log(2.0)
        log_persp = perspective_at(LossSpec("log"), 1.0, v)
        assert abs(log_persp - log_exact) <= 1e-12
        assert log_persp <= (1.0 + math.log(v)) / math.log(2.0) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 3", f"{len(rows)} datasets within bound, {elapsed:.1f}s")


def test_criterion_4_dp_ratio():
    start = time.perf_counter()
    doms = [AttributeDomain("a", 0.0, 2.0, 3), AttributeDomain("b", 0.0, 2.0, 3)]
    rng = RandomSource(99)
    weight_grid = (0.25, 0.5, 1.0)
    bases = []
    for _ in range(4):
        X = np.array([[rng.randint(3), rng.randint(3)] for _ in range(3)])
        y = np.array([1 if rng.uniform() < 0.5 else -1 for _ in range(3)])
        w = np.array([weight_grid[rng.randint(3)] for _ in range(3)])
        bases.append(Dataset(X, y, doms, w))
    worst = 0.0
    for eps_node in (0.01, 0.1, 1.0):
        for alpha in (0.0, 0.3, 1.0):
            for base in bases:
                p = root_split_probabilities(base, base.weights, alpha, eps_node)
                for neighbor in replacement_neighbors(base, weight_grid=weight_grid):
                    q = root_split_probabilities(neighbor, neighbor.weights, alpha, eps_node)
                    ratio = max(float(np.max(p / q)), float(np.max(q / p)))
                    assert ratio <= math.exp(eps_node) * (1.0 + 1e-9)
                    worst = max(worst, ratio / math.exp(eps_node))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 4", f"worst ratio/e^eps {worst:.4f}, {elapsed:.1f}s")


def test_criterion_5_budget_conservation():
    start = time.perf_counter()
    ds = make_blocks_dataset(120, 3, seed=4)
    for T, depth, beta, eps in [(1, 2, 0.5, 1.0), (5, 3, 0.1, 0.7), (4, 1, 0.9, 25.0)]:
        privacy = TreePrivacy(epsilon=eps, beta_tree=beta, output_bound=10.0, ensemble_size=T)
        cfg = TreeConfig(depth=depth, alpha="oc", privacy=privacy)
        acc = BudgetAccountant(eps)
        boost_fit(ds, T, cfg, accountant=acc, rng=RandomSource(1))
        assert abs(acc.total_spent - eps) <= 1e-12 * max(1.0, eps)
        # ledger reconciliation per tree: the spends arrive in T blocks of
        # (2^depth - 1) splits followed by 2^depth leaf releases
        splits_per_tree = 2**depth - 1
        leaves_per_tree = 2**depth
        block = splits_per_tree + leaves_per_tree
        assert len(acc.spends) == T * block
        for t in range(T):
            tree_spends = acc.spends[t * block : (t + 1) * block]
            split_sum = math.fsum(e for label, e in tree_spends if label.startswith("split"))
            leaf_sum = math.fsum(e for label, e in tree_spends if label == "leaf")
            assert abs(split_sum - beta * eps / T) <= 1e-12 * max(1.0, eps)
            assert abs(leaf_sum - (1.0 - beta) * eps / T) <= 1e-12 * max(1.0, eps)
    for mech in ("laplace", "exponential"):
        acc = BudgetAccountant(0.3)
        rf_fit(ds, 7, 2, 0.3, mech, acc, RandomSource(2))
        assert abs(acc.total_spent - 0.3) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 5", f"boost and forest ledgers reconcile to 1e-12, {elapsed:.1f}s")


def _criterion_6_run():
    ds = make_blocks_dataset(400, 4, seed=7)
    fixed = boost_fit(ds, 20, TreeConfig(depth=2, alpha=1.0), output_bound=10.0)
    oc = boost_fit(ds, 20, TreeConfig(depth=2, alpha="oc"), output_bound=10.0)
    return ds, fixed, oc


def test_criterion_6_boosting_convergence():
    start = time.perf_counter()
    ds, fixed, oc = _criterion_6_run()
    assert fixed.traces.train_error[-1] == 0.0
    assert min(fixed.traces.train_error) == 0.0 == max(fixed.traces.train_error)
    surro = fixed.traces.surrogate
    assert all(b <= a + 1e-9 for a, b in zip(surro, surro[1:]))
    for tree in oc.trees:
        trace = tree.alpha_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report(
        "criterion 6",
        f"train error 0, surrogate monotone, oc alpha traces monotone, {elapsed:.1f}s",
    )


def _run_grid(tmp_path, name, **config_lines):
    data, domains = _write_blocks_files(tmp_path)
    grid = tmp_path / f"{name}.config"
    base = {"data": data, "domains": domains, "k_folds": "10",
            "seeds": ",".join(str(s) for s in range(20))}
    base.update(config_lines)
    grid.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    out = str(tmp_path / f"{name}.csv")
    run_experiment(ExperimentConfig.from_file(str(grid)), out)
    return out


def _c7_results(tmp_path):
    return _run_grid(
        tmp_path, "c7", algorithm="boost", T="10", depth="4", alpha="oc",
        epsilon="1.0", beta_tree="0.5", M="10",
    )


def _c8_results(tmp_path):
    boost = _run_grid(
        tmp_path, "c8_boost", algorithm="boost", T="20", depth="2", alpha="oc",
        epsilon="0.01", beta_tree="0.5", M="10",
    )
    rf_lap = _run_grid(
        tmp_path, "c8_rf_lap", algorithm="rf_laplace", T="21", depth="2", epsilon="0.01"
    )
    rf_exp = _run_grid(
        tmp_path, "c8_rf_exp", algorithm="rf_exponential", T="21", depth="2", epsilon="0.01"
    )
    return boost, rf_lap, rf_exp


def _timed(run, directory):
    start = time.perf_counter()
    return run(directory), time.perf_counter() - start


# Criteria 7 and 8 check these grids and criterion 9 compares a fresh rerun
# against them, so each runs once per session; its wall time still counts
# against the runtime cap of the criterion it belongs to.
@pytest.fixture(scope="session")
def c7_grid(tmp_path_factory):
    return _timed(_c7_results, tmp_path_factory.mktemp("c7"))


@pytest.fixture(scope="session")
def c8_grids(tmp_path_factory):
    return _timed(_c8_results, tmp_path_factory.mktemp("c8"))


def test_criterion_7_private_oc_beats_default(c7_grid):
    start = time.perf_counter()
    results, grid_s = c7_grid
    rows = read_results(results)
    assert all(r["error"] == "" for r in rows)
    by_fold: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        by_fold.setdefault(row["fold"], []).append(
            (float(row["test_error"]), float(row["default_error"]))
        )
    folds_beaten = 0
    for fold, pairs in by_fold.items():
        assert len(pairs) == 20  # one per seed
        median_err = float(np.median([e for e, _ in pairs]))
        median_default = float(np.median([d for _, d in pairs]))
        folds_beaten += median_err < median_default
    assert folds_beaten >= math.ceil(2.0 / 3.0 * len(by_fold))
    elapsed = grid_s + time.perf_counter() - start
    assert elapsed < 180.0
    _report("criterion 7", f"{folds_beaten}/{len(by_fold)} folds beaten, {elapsed:.1f}s")


def test_criterion_8_boost_beats_forests(c8_grids):
    start = time.perf_counter()
    (boost, rf_lap, rf_exp), grid_s = c8_grids
    boost_rows = read_results(boost)
    for name, rf_path in (("rf_laplace", rf_lap), ("rf_exponential", rf_exp)):
        result = compare(
            boost_rows, read_results(rf_path), p_threshold=0.01,
            cell_columns=("epsilon", "depth", "seed"),
        )
        assert result.cells_significant > 0
        assert result.a_win_percent > 50.0
        _report(
            "criterion 8",
            f"vs {name}: wins {result.a_wins}/{result.cells_significant} "
            f"significant cells ({result.a_win_percent:.0f}%)",
        )
    elapsed = grid_s + time.perf_counter() - start
    assert elapsed < 300.0


def test_criterion_9_determinism(tmp_path, c7_grid, c8_grids):
    start = time.perf_counter()
    # criterion 6 artifacts: identical traces on a re-run
    _, fixed_a, oc_a = _criterion_6_run()
    _, fixed_b, oc_b = _criterion_6_run()
    assert fixed_a.betas == fixed_b.betas
    assert fixed_a.traces.surrogate == fixed_b.traces.surrogate
    assert [t.alpha_trace for t in oc_a.trees] == [t.alpha_trace for t in oc_b.trees]

    # criteria 7 and 8 result CSVs: byte-identical numeric columns
    def stripped_bytes(path):
        keep = [c for c in RESULT_COLUMNS if c != "wall_time_s"]
        out = []
        with open(path, "r", newline="") as fh:
            for row in csv.DictReader(fh):
                out.append(",".join(row[c] for c in keep))
        return "\n".join(out).encode()

    # run "a" is the session's criterion 7 and 8 grids; run "b" is fresh
    (c7_a, _), (c8_a, _) = c7_grid, c8_grids
    assert stripped_bytes(c7_a) == stripped_bytes(_c7_results(tmp_path))
    for pa, pb in zip(c8_a, _c8_results(tmp_path)):
        assert stripped_bytes(pa) == stripped_bytes(pb)
    elapsed = time.perf_counter() - start
    _report("criterion 9", f"reruns byte-identical outside wall_time, {elapsed:.1f}s")
