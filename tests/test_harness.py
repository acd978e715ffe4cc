"""Experiment engine: configs, grid runs, curves, significance tests, audit.

The in-repo incomplete beta and t test are cross-checked against scipy,
which serves as the independent oracle and never appears in the package
itself.
"""

import csv
import json
import math
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats

import dpboost.harness as harness
from dpboost.dataset import make_blocks_dataset
from dpboost.harness import (
    AUDIT_COLUMNS,
    CompareResult,
    ConfigError,
    ExperimentConfig,
    RESULT_COLUMNS,
    compare,
    load_model,
    read_results,
    regularized_incomplete_beta,
    run_experiment,
    save_model,
    sensitivity_audit,
    students_t_test,
    summarize_cumulative,
    tight_case_delta,
    write_csv,
)
from dpboost.losses import LossSpec, bayes_risk
from dpboost.dataset import load_csv, parse_domain_spec
from dpboost.ensemble import boost_fit, rf_fit
from dpboost.privacy import BudgetAccountant, RandomSource
from dpboost.tree import TreeConfig, TreePrivacy


def _write_blocks_csv(tmp_path, m=60, n=3, seed=2):
    ds = make_blocks_dataset(m, n, seed=seed)
    data = tmp_path / "blocks.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(n)] + ["y"])
        for i in range(m):
            writer.writerow([float(v) for v in ds.X[i]] + [int(ds.y[i])])
    domains = tmp_path / "blocks.domains"
    lines = ["label_column = y", "label_map = -1:-1, 1:+1"]
    lines += [f"attribute = x{j} 0.0 9.0 10" for j in range(n)]
    domains.write_text("\n".join(lines) + "\n")
    return str(data), str(domains)


@pytest.fixture
def blocks_files(tmp_path):
    return _write_blocks_csv(tmp_path)


def _config_file(tmp_path, data, domains, /, **overrides):
    lines = {
        "data": data,
        "domains": domains,
        "algorithm": "boost",
        "T": "2",
        "depth": "1",
        "alpha": "1.0",
        "epsilon": "off",
        "k_folds": "3",
        "seeds": "0",
    }
    lines.update(overrides)  # a value of None drops the key
    path = tmp_path / "grid.config"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items() if v is not None))
    return str(path)


class TestConfig:
    def test_parse_and_grid(self, tmp_path, blocks_files):
        data, domains = blocks_files
        path = _config_file(
            tmp_path, data, domains,
            algorithm="boost,rf_laplace", T="2,5", epsilon="off,0.5", alpha="0.1,oc",
        )
        cfg = ExperimentConfig.from_file(path)
        cells = cfg.cells()
        # boost: 2T x 2eps x 2alpha = 8; rf: 2T x 1eps (off dropped) = 2
        assert len([c for c in cells if c["algorithm"] == "boost"]) == 8
        assert len([c for c in cells if c["algorithm"] == "rf_laplace"]) == 2

    def test_unknown_key(self, tmp_path, blocks_files):
        data, domains = blocks_files
        path = _config_file(tmp_path, data, domains, bogus="1")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_missing_required(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text("T = 5\ndomains = d\n")
        with pytest.raises(ConfigError, match="data"):
            ExperimentConfig.from_file(path)

    def test_invalid_values(self, tmp_path, blocks_files):
        data, domains = blocks_files
        for overrides in ({"alpha": "2.0"}, {"epsilon": "-1"}, {"beta_tree": "1.5"},
                          {"algorithm": "svm"}, {"k_folds": "1"}):
            path = _config_file(tmp_path, data, domains, **overrides)
            with pytest.raises(ConfigError):
                ExperimentConfig.from_file(path)

    INT_X = "invalid literal for int() with base 10: 'x'"
    FLOAT_X = "could not convert string to float: 'x'"

    @pytest.mark.parametrize("key, value, message", [
        ("algorithm", "svm", "unknown algorithm 'svm'"),
        ("T", "x", INT_X),
        ("T", "0", "T and depth must be >= 1"),
        ("depth", "x", INT_X),
        ("depth", "0", "T and depth must be >= 1"),
        ("alpha", "x", "bad alpha 'x'"),
        ("alpha", "2.0", "alpha 2.0 outside [0, 1]"),
        ("epsilon", "x", "bad epsilon 'x'"),
        ("epsilon", "-1", "epsilon -1.0 must be positive"),
        ("beta_tree", "x", FLOAT_X),
        ("beta_tree", "1.5", "beta_tree must lie in (0, 1)"),
        ("nvpriv", "x", INT_X),
        ("nvpriv", "1", "nvpriv must be >= 2"),
        ("M", "x", FLOAT_X),
        ("M", "0", "M must be positive and finite"),
        ("k_folds", "x", INT_X),
        ("k_folds", "1", "k_folds must be >= 2"),
        ("lc_alpha", "x", FLOAT_X),
        ("lc_alpha", "1.5", "lc_alpha must lie in [0, 1]"),
        ("seeds", "x", INT_X),
        ("depth", ",", "empty list value ','"),
        ("bogus", "1", "unknown keys ['bogus']"),
        ("data", None, "missing key 'data'"),
    ])
    def test_error_messages(self, tmp_path, blocks_files, key, value, message):
        data, domains = blocks_files
        path = _config_file(tmp_path, data, domains, **{key: value})
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_file(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("M", ["0", "-5", "10, 0", "inf", "nan"])
    def test_output_bound_must_be_positive_and_finite(self, tmp_path, blocks_files, M):
        data, domains = blocks_files
        path = _config_file(tmp_path, data, domains, M=M)
        with pytest.raises(ConfigError, match="M must be positive and finite"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("lc_alpha, ok", [("0", True), ("1", True), ("0.5", True),
                                              ("-0.1", False), ("1.5", False), ("nan", False)])
    def test_lc_alpha_within_unit_interval(self, tmp_path, blocks_files, lc_alpha, ok):
        data, domains = blocks_files
        path = _config_file(tmp_path, data, domains, lc_alpha=lc_alpha)
        if ok:
            assert ExperimentConfig.from_file(path).lc_alpha == float(lc_alpha)
        else:
            with pytest.raises(ConfigError, match="lc_alpha must lie in"):
                ExperimentConfig.from_file(path)


class TestRunExperiment:
    def test_record_count_and_schema(self, tmp_path, blocks_files):
        data, domains = blocks_files
        cfg = ExperimentConfig.from_file(_config_file(tmp_path, data, domains, k_folds="2"))
        out = str(tmp_path / "results.csv")
        written = run_experiment(cfg, out)
        assert written == 2  # one cell x one seed x two folds
        rows = read_results(out)
        assert len(rows) == 2
        assert tuple(rows[0].keys()) == RESULT_COLUMNS
        for row in rows:
            assert row["error"] == ""
            assert 0.0 <= float(row["test_error"]) <= 1.0
            assert row["spent_epsilon"] == "0.0"

    def test_private_cells_record_spend(self, tmp_path, blocks_files):
        data, domains = blocks_files
        cfg = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, epsilon="0.5", algorithm="boost,rf_exponential")
        )
        out = str(tmp_path / "results.csv")
        run_experiment(cfg, out)
        for row in read_results(out):
            assert float(row["spent_epsilon"]) == pytest.approx(0.5, abs=1e-12)

    def test_only_non_private_cells_carry_a_train_error(self, tmp_path, blocks_files):
        # an exact training error is not a private release
        data, domains = blocks_files
        cfg = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, epsilon="off,0.5", algorithm="boost,rf_laplace")
        )
        out = str(tmp_path / "results.csv")
        run_experiment(cfg, out)
        rows = read_results(out)
        assert {(r["algorithm"], r["epsilon"]) for r in rows} == {
            ("boost", "off"), ("boost", "0.5"), ("rf_laplace", "0.5")
        }
        for row in rows:
            assert row["error"] == "" and row["leaves"] != "" and row["mean_depth"] != ""
            assert (row["train_error"] == "") == (row["epsilon"] != "off")
            if row["epsilon"] == "off":
                assert 0.0 <= float(row["train_error"]) <= 1.0

    def test_deterministic_and_resumable(self, tmp_path, blocks_files):
        data, domains = blocks_files
        cfg = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, epsilon="0.5", seeds="0,1")
        )
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        run_experiment(cfg, out_a)
        run_experiment(cfg, out_b)

        def numeric_columns(path):
            rows = read_results(path)
            skip = {"wall_time_s"}  # wall time is the one legitimately noisy column
            return [[row[c] for c in RESULT_COLUMNS if c not in skip] for row in rows]

        assert numeric_columns(out_a) == numeric_columns(out_b)
        # rerun over an existing file adds nothing
        assert run_experiment(cfg, out_a) == 0
        assert numeric_columns(out_a) == numeric_columns(out_b)

    def test_adding_cells_preserves_existing_randomness(self, tmp_path, blocks_files):
        data, domains = blocks_files
        small = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, epsilon="0.5")
        )
        big = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, epsilon="0.5,1.0", T="2,3")
        )
        out_small = str(tmp_path / "small.csv")
        out_big = str(tmp_path / "big.csv")
        run_experiment(small, out_small)
        run_experiment(big, out_big)
        key_cols = ("algorithm", "T", "depth", "alpha", "epsilon", "fold")
        small_rows = {
            tuple(r[c] for c in key_cols): r["test_error"] for r in read_results(out_small)
        }
        big_rows = {
            tuple(r[c] for c in key_cols): r["test_error"] for r in read_results(out_big)
        }
        for key, value in small_rows.items():
            assert big_rows[key] == value

    def test_interrupted_run_resumes(self, tmp_path, blocks_files, monkeypatch):
        data, domains = blocks_files
        cfg = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, T="2,3", epsilon="0.5")
        )
        full = str(tmp_path / "full.csv")
        assert run_experiment(cfg, full) == 6
        interrupted_at = 4  # the fit of the 4th record is interrupted
        fits = []
        fit_cell = harness.fit_cell

        def interrupting(*args, **kwargs):
            fits.append(args)
            if len(fits) == interrupted_at:
                raise KeyboardInterrupt
            return fit_cell(*args, **kwargs)

        monkeypatch.setattr(harness, "fit_cell", interrupting)
        out = str(tmp_path / "resumed.csv")
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, out)
        assert len(read_results(out)) == interrupted_at - 1  # flushed before the interrupt
        monkeypatch.undo()
        assert run_experiment(cfg, out) == 6 - (interrupted_at - 1)
        strip = lambda rows: [
            [r[c] for c in RESULT_COLUMNS if c != "wall_time_s"] for r in rows
        ]
        assert strip(read_results(out)) == strip(read_results(full))

    def test_torn_last_record_is_rewritten(self, tmp_path, blocks_files):
        data, domains = blocks_files
        cfg = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, k_folds="2", seeds="0,1")
        )
        out = tmp_path / "res.csv"
        assert run_experiment(cfg, str(out)) == 4
        full = read_results(str(out))
        # an interrupted write: the last line ends inside its mean_depth field
        raw = out.read_bytes()
        start = raw.rstrip(b"\r\n").rindex(b"\n") + 1
        before = raw[start:].split(b",")[: RESULT_COLUMNS.index("mean_depth")]
        out.write_bytes(raw[: start + len(b",".join(before)) + 2])  # one character of it
        assert read_results(str(out)) == full[:3]  # neither done nor valid
        assert run_experiment(cfg, str(out)) == 1
        with open(out, newline="", encoding="utf-8") as fh:
            lengths = [len(r) for r in csv.reader(fh)]
        # the torn line stays; the rewritten record starts a line of its own
        assert len(lengths) == 6 and lengths[-2] < len(RESULT_COLUMNS) == lengths[-1]
        rows = read_results(str(out))
        assert all(None not in r.values() and r["error"] == "" for r in rows)
        strip = lambda rows: [[r[c] for c in RESULT_COLUMNS if c != "wall_time_s"] for r in rows]
        assert strip(rows) == strip(full)

    def test_folds_built_once_per_seed(self, tmp_path, blocks_files, monkeypatch):
        data, domains = blocks_files
        cfg = ExperimentConfig.from_file(_config_file(
            tmp_path, data, domains, algorithm="boost,rf_laplace", epsilon="off,0.5",
            nvpriv="5,10", seeds="0,1,2",
        ))
        full = str(tmp_path / "full.csv")
        calls = []
        kfold = harness.stratified_kfold

        def counting(dataset, k, rng):
            calls.append(rng.seed)
            return kfold(dataset, k, rng)

        monkeypatch.setattr(harness, "stratified_kfold", counting)
        assert run_experiment(cfg, full) == 6 * 3 * 3  # 6 cells, 3 seeds, 3 folds
        assert len(calls) == 3 and len(set(calls)) == 3

        # a run that stopped in the 2nd cell, after seed 0, resumes
        partial = tmp_path / "partial.csv"
        with open(full) as fh:
            partial.write_text("".join(fh.readlines()[:1 + 9 + 3]))
        calls.clear()
        assert run_experiment(cfg, str(partial)) == 54 - 12
        assert len(calls) == 3  # every seed has records left in the later cells
        strip = lambda rows: [
            [r[c] for c in RESULT_COLUMNS if c != "wall_time_s"] for r in rows
        ]
        assert strip(read_results(str(partial))) == strip(read_results(full))
        calls.clear()
        assert run_experiment(cfg, full) == 0 and calls == []

    def test_per_cell_error_recorded_run_continues(self, tmp_path, blocks_files):
        data, domains = blocks_files
        # k_folds = 25 exceeds the smaller class in 2 of 3 folds' training data
        cfg = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, k_folds="40")
        )
        out = str(tmp_path / "res.csv")
        run_experiment(cfg, out)
        rows = read_results(out)
        assert len(rows) == 40
        assert all("class" in r["error"] for r in rows)

    def test_failed_records_retried_on_rerun(self, tmp_path, blocks_files):
        data, domains = blocks_files
        later = tmp_path / "later.domains"
        cfg = ExperimentConfig.from_file(_config_file(tmp_path, data, str(later)))
        out = str(tmp_path / "res.csv")
        assert run_experiment(cfg, out) == 3
        assert all("cannot open" in r["error"] for r in read_results(out))
        with open(domains) as fh:
            later.write_text(fh.read())
        assert run_experiment(cfg, out) == 3
        rows = read_results(out)
        assert len(rows) == 6 and all(r["error"] == "" for r in rows[3:])
        fresh = str(tmp_path / "fresh.csv")
        run_experiment(cfg, fresh)
        strip = lambda rows: [
            [r[c] for c in RESULT_COLUMNS if c != "wall_time_s"] for r in rows
        ]
        assert strip(rows[3:]) == strip(read_results(fresh))
        assert run_experiment(cfg, out) == 0

    def test_header_drift_breaks_loudly(self, tmp_path):
        bad = tmp_path / "drift.csv"
        bad.write_text("algorithm,T\nboost,2\n")
        with pytest.raises(ConfigError):
            read_results(str(bad))

    def test_nvpriv_grid_requantizes(self, tmp_path, blocks_files):
        data, domains = blocks_files
        cfg = ExperimentConfig.from_file(
            _config_file(tmp_path, data, domains, nvpriv="5,10", k_folds="2")
        )
        out = str(tmp_path / "res.csv")
        run_experiment(cfg, out)
        rows = read_results(out)
        assert sorted({r["nvpriv"] for r in rows}) == ["10", "5"]
        assert all(r["error"] == "" for r in rows)


class TestSummarize:
    def _rows(self, errors, default=0.5):
        return [
            {
                "algorithm": "boost", "alpha": "oc", "epsilon": "off",
                "test_error": repr(e), "default_error": repr(default), "error": "",
            }
            for e in errors
        ]

    def test_counting_example(self):
        rows = self._rows([0.1, 0.1, 0.2, 0.4])
        curve = summarize_cumulative(rows, ("algorithm",))
        points = [(r["test_error"], r["cumulative_pct"]) for r in curve]
        assert points == [(0.1, 50.0), (0.2, 75.0), (0.4, 100.0)]

    def test_single_run(self):
        curve = summarize_cumulative(self._rows([0.25]), ("algorithm",))
        assert [(r["test_error"], r["cumulative_pct"]) for r in curve] == [(0.25, 100.0)]

    def test_default_class_reference(self):
        curve = summarize_cumulative(self._rows([0.1, 0.3], default=0.4), ("algorithm",))
        assert all(r["default_error_mean"] == pytest.approx(0.4) for r in curve)

    def test_empty_input_errors(self):
        with pytest.raises(ConfigError):
            summarize_cumulative([], ("algorithm",))

    def test_all_failed_rows_warns(self):
        rows = self._rows([0.1])
        rows[0]["error"] = "boom"
        with pytest.warns(UserWarning):
            assert summarize_cumulative(rows, ("algorithm",)) == []


class TestStudentsT:
    def test_spot_value(self):
        t, p = students_t_test([0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        assert t == pytest.approx(-3.674, abs=1e-3)
        assert p == pytest.approx(0.0214, abs=5e-4)

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.normal(size=rng.integers(2, 12))
            b = rng.normal(loc=rng.normal(), size=rng.integers(2, 12))
            t, p = students_t_test(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=True)
            assert t == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-8)

    def test_beta_matches_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = float(rng.uniform(0.1, 20.0))
            b = float(rng.uniform(0.1, 20.0))
            x = float(rng.uniform(0.0, 1.0))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(scipy.special.betainc(a, b, x)), abs=1e-12, rel=1e-10
            )

    def test_degenerate_zero_variance(self):
        t, p = students_t_test([0.0, 0.0], [0.5, 0.5])
        assert math.isinf(t) and p == 0.0
        t, p = students_t_test([0.5, 0.5], [0.5, 0.5])
        assert t == 0.0 and p == 1.0


class TestCompare:
    def _rows(self, errors_by_cell, extra=()):
        rows = []
        for (eps, depth, seed), errors in errors_by_cell.items():
            for fold, e in enumerate(errors):
                rows.append({
                    "epsilon": eps, "depth": depth, "seed": seed, "fold": str(fold),
                    "test_error": repr(e), "default_error": "0.5", "error": "",
                })
        return rows

    def test_identical_sets_no_significance(self):
        cells = {("1.0", "2", "0"): [0.1, 0.2, 0.3, 0.25, 0.15]}
        result = compare(self._rows(cells), self._rows(cells))
        assert isinstance(result, CompareResult)
        assert result.cells_significant == 0
        assert result.a_win_percent == 0.0

    def test_degenerate_separation(self):
        a = {("1.0", "2", "0"): [0.0 + 1e-6 * i for i in range(10)]}
        b = {("1.0", "2", "0"): [0.5 + 1e-6 * i for i in range(10)]}
        result = compare(self._rows(a), self._rows(b))
        assert result.cells_significant == 1
        assert result.a_wins == 1
        assert result.a_win_percent == 100.0

    def test_unmatched_grid_errors(self):
        a = {("1.0", "2", "0"): [0.1, 0.2, 0.3]}
        b = {("2.0", "2", "0"): [0.1, 0.2, 0.3]}
        with pytest.raises(ConfigError, match="do not match"):
            compare(self._rows(a), self._rows(b))


class TestSensitivityAudit:
    def test_rows_and_pass_criteria(self):
        rows = sensitivity_audit(m_values=(2, 4, 6), alphas=(0.0, 1.0), trials=3, seed=1)
        assert len(rows) == 3 * 2 * 3
        for row in rows:
            assert row["empirical_delta"] <= row["bound"] + 1e-9
            m, alpha = row["m"], row["alpha"]
            expected_tight = m * float(bayes_risk(LossSpec.malpha(alpha), 1.0 / m))
            assert row["tight_case_delta"] == pytest.approx(expected_tight, abs=1e-9)

    def test_alpha_zero_bound_is_three(self):
        rows = sensitivity_audit(m_values=(3, 7), alphas=(0.0,), trials=2, seed=0)
        assert all(row["bound"] == 3.0 for row in rows)

    def test_tight_case_value(self):
        assert tight_case_delta(4, 1.0) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)

    def test_csv_write(self, tmp_path):
        rows = sensitivity_audit(m_values=(2,), alphas=(1.0,), trials=1, seed=0)
        out = tmp_path / "audit.csv"
        write_csv(str(out), rows, AUDIT_COLUMNS)
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert tuple(header) == AUDIT_COLUMNS


# every key a model file may hold; the entries of "domains" and "label_map"
# are the public domain spec
RELEASE_KEYS = {
    "format", "version", "model", "domains", "label_map", "label_column", "kind",
    "output_bound", "lc_alpha", "betas", "trees", "leaf_mechanism",
}


def _keys(value):
    """Every key of a JSON value, outside the public domain spec."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            if key not in ("domains", "label_map"):
                yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def _private_oc_boost(depth):
    privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0, ensemble_size=2)
    config = TreeConfig(depth=depth, alpha="oc", privacy=privacy)
    return lambda ds: boost_fit(ds, 2, config, accountant=BudgetAccountant(1.0),
                                rng=RandomSource(0))


def _forest(mechanism, depth):
    return lambda ds: rf_fit(ds, 3, depth, 1.0, mechanism, BudgetAccountant(1.0), RandomSource(0))


# models of make_blocks_dataset(60, 3, seed=2) as the version-1 writer wrote
# them: a private OC boost (T=2, depth 1, epsilon 1, seed 0) and a laplace
# forest (T=3, depth 1, epsilon 1, seed 0)
V1_BOOST = (
    '{"betas": [0.005, -0.02004165365193367], "kind": "boost", "lc_alpha": 1.0, '
    '"output_bound": 10.0, "trees": [{"noised": true, "prediction_alpha": 1.0, "root": '
    '{"left": {"leaf": {"n_neg": 24, "n_pos": 18, "prediction": -89.76981834257879, "w": '
    '21.0, "w1": 9.0}}, "right": {"leaf": {"n_neg": 9, "n_pos": 9, "prediction": '
    '233.59620175074917, "w": 9.0, "w1": 4.5}}, "split": {"attribute": 2, '
    '"threshold_bin": 5}, "stats": {"n_neg": 33, "n_pos": 27, "w": 30.0, "w1": 13.5}}}, '
    '{"noised": true, "prediction_alpha": 1.0, "root": {"left": {"leaf": {"n_neg": 19, '
    '"n_pos": 4, "prediction": 120.20130847548283, "w": 11.362542948618886, "w1": 2.0}}, '
    '"right": {"leaf": {"n_neg": 14, "n_pos": 23, "prediction": -27.504927946024026, '
    '"w": 18.562480477900507, "w1": 11.612464860220914}}, "split": {"attribute": 0, '
    '"threshold_bin": 3}, "stats": {"n_neg": 33, "n_pos": 27, "w": 29.925023426519388, '
    '"w1": 13.612464860220914}}}]}'
)
V1_FOREST = (
    '{"depth": 1, "kind": "forest", "leaf_mechanism": "laplace", "trees": [{"left": '
    '{"leaf": {"n_neg": 26, "n_pos": 3, "prediction": -1.0, "w": 29.0, "w1": 3.0}}, '
    '"right": {"leaf": {"n_neg": 7, "n_pos": 24, "prediction": 1.0, "w": 31.0, "w1": '
    '24.0}}, "split": {"attribute": 1, "threshold_bin": 4}, "stats": {"n_neg": 0, '
    '"n_pos": 0, "w": 0.0, "w1": 0.0}}, {"left": {"leaf": {"n_neg": 28, "n_pos": 22, '
    '"prediction": -1.0, "w": 50.0, "w1": 22.0}}, "right": {"leaf": {"n_neg": 5, '
    '"n_pos": 5, "prediction": -1.0, "w": 10.0, "w1": 5.0}}, "split": {"attribute": 2, '
    '"threshold_bin": 7}, "stats": {"n_neg": 0, "n_pos": 0, "w": 0.0, "w1": 0.0}}, '
    '{"left": {"leaf": {"n_neg": 23, "n_pos": 13, "prediction": -1.0, "w": 36.0, "w1": '
    '13.0}}, "right": {"leaf": {"n_neg": 10, "n_pos": 14, "prediction": 1.0, "w": 24.0, '
    '"w1": 14.0}}, "split": {"attribute": 0, "threshold_bin": 5}, "stats": {"n_neg": 0, '
    '"n_pos": 0, "w": 0.0, "w1": 0.0}}]}'
)


V1_FITS = {"boost": (V1_BOOST, _private_oc_boost(1)), "forest": (V1_FOREST, _forest("laplace", 1))}


def _version_2(value):
    """A version-1 model as version 2 wrote it: without node statistics or forest depth."""
    if isinstance(value, dict):
        return {key: _version_2(item) for key, item in value.items()
                if key not in ("stats", "w", "w1", "n_pos", "n_neg", "depth")}
    return [_version_2(item) for item in value] if isinstance(value, list) else value


class TestModelIO:
    def test_round_trip_boost(self, tmp_path, blocks_files):
        # and of private OC boosting and both forests
        spec = parse_domain_spec(blocks_files[1])
        ds = load_csv(blocks_files[0], spec.label_column, spec)
        path = str(tmp_path / "model.json")
        for fit in (lambda ds: boost_fit(ds, 3, TreeConfig(depth=2, alpha=1.0), output_bound=10.0),
                    _private_oc_boost(3), _forest("laplace", 2), _forest("exponential", 3)):
            model = fit(ds)
            save_model(path, model, spec)
            assert json.loads(open(path).read())["version"] == 3
            loaded, loaded_spec = load_model(path)
            assert loaded_spec == spec
            assert loaded.margins(ds.X).tobytes() == model.margins(ds.X).tobytes()

    @pytest.mark.parametrize("fit", [_private_oc_boost(2), _forest("laplace", 2),
                                     _forest("exponential", 2)],
                             ids=["private-oc-boost", "laplace-forest", "exponential-forest"])
    def test_files_hold_only_the_release_record(self, tmp_path, blocks_files, fit):
        spec = parse_domain_spec(blocks_files[1])
        path = tmp_path / "model.json"
        save_model(str(path), fit(load_csv(blocks_files[0], spec.label_column, spec)), spec)
        payload = json.loads(path.read_text())
        assert set(_keys(payload)) <= RELEASE_KEYS
        assert payload["domains"] == [
            {"name": d.name, "lo": d.lo, "hi": d.hi, "nvpriv": d.nvpriv} for d in spec.attributes
        ]
        assert payload["label_map"] == spec.label_map

    @pytest.mark.parametrize("kind", sorted(V1_FITS))
    def test_version_1_files_load_to_the_same_margins(self, tmp_path, kind):
        # and the same models as version 2 wrote them
        ds = make_blocks_dataset(60, 3, seed=2)
        written, fit = V1_FITS[kind]
        fresh = fit(ds)
        payload = {
            "format": "dpboost-model", "version": 1, "model": json.loads(written),
            "domains": [{"name": f"x{j}", "lo": 0.0, "hi": 9.0, "nvpriv": 10} for j in range(3)],
            "label_map": {"-1": -1, "1": 1}, "label_column": "y",
        }
        path = tmp_path / "model.json"
        for version in (1, 2):
            nested = payload["model"] if version == 1 else _version_2(payload["model"])
            path.write_text(json.dumps({**payload, "version": version, "model": nested}))
            model, _ = load_model(str(path))
            assert model.margins(ds.X).tobytes() == fresh.margins(ds.X).tobytes()
            assert model.to_dict() == fresh.to_dict()  # the statistics are not read
        for version in (0, 4, "3", None, True):
            path.write_text(json.dumps({**payload, "version": version}))
            with pytest.raises(ConfigError, match="not a version-1, 2 or 3"):
                load_model(str(path))

    def test_a_node_neither_split_nor_leaf_is_config_error(self, tmp_path, blocks_files):
        spec = parse_domain_spec(blocks_files[1])
        model = _forest("laplace", 1)(load_csv(blocks_files[0], spec.label_column, spec))
        path = tmp_path / "model.json"
        save_model(str(path), model, spec)
        payload = json.loads(path.read_text())
        for node in ("true", '"0.5"', "null", "[0, 1.0]", "[0, 1, 2]"):
            payload["model"]["trees"][0][1] = json.loads(node)
            path.write_text(json.dumps(payload))
            with pytest.raises(ConfigError, match=re.escape(f"{path}: bad value: ") + ".* is not"):
                load_model(str(path))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigError):
            load_model(str(path))
