"""Command-line round trips and exit codes."""

import csv
import errno
import json
import math
import os

import pytest

import dpboost.cli as cli
import dpboost.harness as harness
from dpboost.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from dpboost.dataset import load_csv, make_blocks_dataset
from dpboost.ensemble import empirical_risk, predict
from dpboost.harness import load_model, read_results
from test_tree import V2_STUMP


@pytest.fixture
def blocks_files(tmp_path):
    ds = make_blocks_dataset(60, 3, seed=2)
    data = tmp_path / "blocks.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "x2", "y"])
        for i in range(60):
            writer.writerow([float(v) for v in ds.X[i]] + [int(ds.y[i])])
    domains = tmp_path / "blocks.domains"
    domains.write_text(
        "label_column = y\nlabel_map = -1:-1, 1:+1\n"
        "attribute = x0 0.0 9.0 10\nattribute = x1 0.0 9.0 10\nattribute = x2 0.0 9.0 10\n"
    )
    return str(data), str(domains)


def _first_leaf(payload) -> int:
    """The index of the first leaf of the model's first tree, in its node list."""
    return next(k for k, node in enumerate(payload["model"]["trees"][0])
                if not isinstance(node, list))


def _fit_config(tmp_path, **kv):
    defaults = {"algorithm": "boost", "T": "3", "depth": "2", "alpha": "1.0", "epsilon": "off"}
    defaults.update(kv)
    path = tmp_path / "fit.config"
    path.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()))
    return str(path)


class TestFitEval:
    def test_round_trip(self, tmp_path, blocks_files, capsys):
        data, domains = blocks_files
        model_path = str(tmp_path / "model.json")
        rc = main([
            "fit", "--config", _fit_config(tmp_path), "--data", data,
            "--domains", domains, "--out", model_path, "--seed", "3",
        ])
        assert rc == EXIT_OK
        assert json.load(open(model_path))["format"] == "dpboost-model"
        scores = str(tmp_path / "scores.csv")
        rc = main(["eval", "--model", model_path, "--data", data, "--out", scores])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "test_error=0.0" in out  # separable training data, fit on all of it
        with open(scores) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60 and set(rows[0]) == {"margin", "label"}

    def test_private_fit(self, tmp_path, blocks_files, capsys):
        data, domains = blocks_files
        cfg = _fit_config(tmp_path, epsilon="1.0", alpha="oc", beta_tree="0.4", M="5",
                          lc_alpha="0.5")
        model_path = str(tmp_path / "model.json")
        rc = main(["fit", "--config", cfg, "--data", data, "--domains", domains,
                   "--out", model_path])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "spent_epsilon=" in out
        assert "train_error" not in out  # exact training error is not a private release

    @pytest.mark.parametrize("algorithm", ["boost", "rf_laplace", "rf_exponential"])
    def test_train_error_printed_only_without_privacy(self, tmp_path, blocks_files, capsys,
                                                      algorithm):
        data, domains = blocks_files
        epsilon = "off" if algorithm == "boost" else "1.0"
        cfg = _fit_config(tmp_path, algorithm=algorithm, epsilon=epsilon)
        rc = main(["fit", "--config", cfg, "--data", data, "--domains", domains,
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_OK
        assert ("train_error=" in capsys.readouterr().out) == (epsilon == "off")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("beta_tree = 0.3,0.5\n", "take one value"),
            ("depth = 3\n", "duplicate key"),
            ("data = other.csv\n", "do not apply to a fit"),
            ("domains = other.domains\n", "do not apply to a fit"),
            ("k_folds = 3\n", "do not apply to a fit"),
            ("seeds = 0\n", "do not apply to a fit"),
            ("nvpriv = 5\n", "do not apply to a fit"),
            ("no_such_key = 1\n", "unknown keys"),
            ("M = 0\n", "M must be positive and finite"),
            ("M = -5\n", "M must be positive and finite"),
            ("lc_alpha = 1.5\n", "lc_alpha must lie in [0, 1]"),
        ],
    )
    def test_grid_keys_lists_and_repeats_are_config_errors(self, tmp_path, blocks_files, capsys,
                                                           extra, message):
        data, domains = blocks_files
        cfg = _fit_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write(extra)
        rc = main(["fit", "--config", cfg, "--data", data, "--domains", domains,
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_forest_without_epsilon_is_config_error(self, tmp_path, blocks_files):
        data, domains = blocks_files
        cfg = _fit_config(tmp_path, algorithm="rf_laplace", epsilon="off")
        rc = main(["fit", "--config", cfg, "--data", data, "--domains", domains,
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_CONFIG

    def test_missing_data_is_data_error(self, tmp_path, blocks_files):
        _, domains = blocks_files
        rc = main(["fit", "--config", _fit_config(tmp_path), "--data",
                   str(tmp_path / "nope.csv"), "--domains", domains,
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_DATA

    def test_nan_value_is_data_error(self, tmp_path, blocks_files, capsys):
        data, domains = blocks_files
        with open(data) as fh:
            header, first, *rest = fh.read().splitlines()
        nan_data = tmp_path / "nan.csv"
        nan_data.write_text("\n".join([header, "nan," + first.split(",", 1)[1], *rest]) + "\n")
        rc = main(["fit", "--config", _fit_config(tmp_path), "--data", str(nan_data),
                   "--domains", domains, "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_DATA == 3
        assert f"data error: {nan_data}: row 2: NaN value" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_long_field_in_first_row_is_data_error(self, tmp_path, blocks_files, capsys):
        data, domains = blocks_files
        with open(data) as fh:
            header, first, *rest = fh.read().splitlines()
        long_data = tmp_path / "long.csv"
        long_data.write_text("\n".join(
            [header + ",note", first + "," + "x" * 200_000, *(row + ",a" for row in rest)]
        ) + "\n")
        rc = main(["fit", "--config", _fit_config(tmp_path), "--data", str(long_data),
                   "--domains", domains, "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command, missing, code", [
        ("fit", "config", EXIT_CONFIG),
        ("fit", "domains", EXIT_DATA),
        ("experiment", "config", EXIT_CONFIG),
    ])
    def test_missing_file_exits_with_its_code(self, tmp_path, blocks_files, capsys,
                                              command, missing, code):
        data, domains = blocks_files
        nope = str(tmp_path / "nope")
        config = nope if missing == "config" else _fit_config(tmp_path)
        argv = {
            "fit": ["fit", "--config", config, "--data", data, "--domains",
                    nope if missing == "domains" else domains],
            "experiment": ["experiment", "--config", config],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        assert f"cannot open {nope}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_printed_train_error_is_the_model_training_error(self, tmp_path, blocks_files,
                                                             capsys):
        data, domains = blocks_files
        model_path = str(tmp_path / "m.json")
        # the training error of stumps on this data falls only at the 7th
        rc = main(["fit", "--config", _fit_config(tmp_path, T="8", depth="1"), "--data", data,
                   "--domains", domains, "--out", model_path])
        assert rc == EXIT_OK
        shown = capsys.readouterr().out
        model, spec = load_model(model_path)
        expected = empirical_risk(model, load_csv(data, spec.label_column, spec))
        assert f"train_error={expected}," in shown

    @pytest.mark.parametrize("damage, key", [
        (lambda p: p["model"].update(kind="tree"), "'tree'"),
        (lambda p: p["model"].pop("trees"), "'trees'"),
        (lambda p: p.pop("domains"), "'domains'"),
        (lambda p: p["model"]["trees"][0].pop(), "nodes for"),
        (lambda p: p["model"].update(betas=p["model"]["betas"][:1]), "1 betas for 3 trees"),
        (lambda p: p["model"]["trees"][0][0].__setitem__(0, 7), "attribute 7"),
        (lambda p: p["model"]["trees"][0][0].__setitem__(0, -1), "attribute -1"),
        (lambda p: p["model"]["trees"][0][0].__setitem__(1, -5), "bin -5"),
        (lambda p: p["model"]["trees"][0][0].__setitem__(1, 9), "bin 9"),
        (lambda p: p["model"]["trees"][0].__setitem__(_first_leaf(p), math.nan),
         "boost leaf prediction nan"),
        (lambda p: p["model"]["betas"].__setitem__(1, math.inf), "non-finite beta"),
        (lambda p: p["model"].update(output_bound=math.nan), "output_bound nan"),
        (lambda p: p["model"].update(output_bound=-1), "output_bound -1.0"),
        (lambda p: p["model"]["trees"][0].__setitem__(1, 1e300),
         "forest leaf prediction 1e+300"),
        (lambda p: p["model"].update(lc_alpha=math.nan), "lc_alpha nan"),
        (lambda p: p["model"].update(leaf_mechanism="gaussian"),
         "forest leaf_mechanism 'gaussian'"),
        # a stump whose left leaf is another stump: every leaf at depth 1 or 2
        (lambda p: p["model"]["trees"].__setitem__(
            0, p["model"]["trees"][0][:1] + p["model"]["trees"][1][:1] + [1.0] * 3),
         "forest tree is not complete"),
        (lambda p: p["model"]["trees"].__setitem__(1, p["model"]["trees"][1][1:2]),
         "forest trees differ in depth"),
        (lambda p: p["model"].update(trees=[], betas=[]), "at least one tree"),
        (lambda p: p["model"]["trees"][0].__setitem__(_first_leaf(p), "0.5"),
         "leaf prediction '0.5' is not a JSON number"),
        (lambda p: p["label_map"].update({"1": 2}), "label_map targets must be -1 or +1"),
        (lambda p: p["label_map"].update({"-1": -1.5}), "label_map targets must be -1 or +1"),
        (lambda p: p["model"]["trees"][0].__setitem__(_first_leaf(p), 10**400),
         "int too large to convert to float"),
    ], ids=["unknown-kind", "boost-without-trees", "no-domains", "leaf-without-prediction",
            "betas-cut-to-one", "attribute-past-domains", "negative-attribute",
            "negative-threshold", "threshold-past-last-gap", "nan-leaf", "infinite-beta",
            "nan-output-bound", "negative-output-bound", "forest-vote-past-one",
            "nan-lc-alpha", "unknown-leaf-mechanism", "incomplete-forest-tree",
            "forest-depths-differ", "boost-with-empty-trees", "prediction-as-string",
            "label-map-past-one", "label-map-fraction", "leaf-past-every-float"])
    def test_malformed_model_is_config_error(self, tmp_path, blocks_files, capsys, damage, key):
        data, domains = blocks_files
        model_path = tmp_path / "m.json"
        # a forest of stumps for the forest row, else the boosted default
        forest = {"algorithm": "rf_laplace", "epsilon": "1.0", "depth": "1"}
        config = _fit_config(tmp_path, **(forest if "forest" in key else {}))
        rc = main(["fit", "--config", config, "--data", data,
                   "--domains", domains, "--out", str(model_path)])
        assert rc == EXIT_OK
        payload = json.loads(model_path.read_text())
        damage(payload)
        model_path.write_text(json.dumps(payload))
        rc = main(["eval", "--model", str(model_path), "--data", data,
                   "--out", str(tmp_path / "scores.csv")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(model_path) in err and key in err
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("algorithm", ["boost", "rf_laplace"])
    @pytest.mark.parametrize("index, value", [(0, 0.7), (0, 1.0), (1, True)],
                             ids=["fractional-attribute", "float-attribute", "boolean-threshold"])
    def test_split_that_is_not_an_integer_is_config_error(self, tmp_path, blocks_files, capsys,
                                                          algorithm, index, value):
        # int() would truncate these to a split of the domains
        data, domains = blocks_files
        model_path = tmp_path / "m.json"
        config = _fit_config(tmp_path, algorithm=algorithm, epsilon="1.0", depth="1")
        assert main(["fit", "--config", config, "--data", data,
                     "--domains", domains, "--out", str(model_path)]) == EXIT_OK
        payload = json.loads(model_path.read_text())
        split = payload["model"]["trees"][0][0]  # [attribute, threshold_bin]
        split[index] = value
        model_path.write_text(json.dumps(payload))
        assert main(["eval", "--model", str(model_path), "--data", data,
                     "--out", str(tmp_path / "scores.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(model_path) in err
        assert f"split {split!r} is not two JSON integers" in err
        assert not (tmp_path / "scores.csv").exists()

    LEAF = '{"leaf": {"prediction": -2.0}}'
    BAD_SPLIT = (f'{{"split": {{"attribute": 0, "threshold_bin": 0.5}}, '
                 f'"left": {LEAF}, "right": {LEAF}}}')

    @pytest.mark.parametrize("depth, bottom, code, shown", [
        # a depth-800 fit on rows that no candidate separates grows such a chain
        (800, LEAF, EXIT_OK, "eval: wrote"),
        (800, BAD_SPLIT, EXIT_CONFIG, "split [0, 0.5] is not two JSON integers"),
        (800, '{"leaf": {"prediction": "-2.0"}}', EXIT_CONFIG,
         "leaf prediction '-2.0' is not a JSON number"),
        (5000, LEAF, EXIT_CONFIG, "cannot read model"),
    ], ids=["fit-800-deep", "bad-split-800-deep", "bad-leaf-800-deep", "5000-deep"])
    def test_deeply_nested_model(self, tmp_path, blocks_files, capsys, depth, bottom, code,
                                 shown):
        # version 2 nested each tree: the golden stump of test_tree is one such tree
        data, domains = blocks_files
        model_path = tmp_path / "m.json"
        assert main(["fit", "--config", _fit_config(tmp_path), "--data", data,
                     "--domains", domains, "--out", str(model_path)]) == EXIT_OK
        payload = json.loads(model_path.read_text())
        stump = json.loads(V2_STUMP)
        stump["root"] = "ROOT"
        payload["version"] = 2
        payload["model"].update(trees=[stump], betas=payload["model"]["betas"][:1])
        # each split sends the rows of bin 0 of x0 on down the chain, the rest to a leaf
        split = '{"split": {"attribute": 0, "threshold_bin": 0}, "right": '
        split += '{"leaf": {"prediction": 1.0}}, "left": '
        chain = split * depth + bottom + "}" * depth
        model_path.write_text(json.dumps(payload).replace('"ROOT"', chain))
        scores = tmp_path / "scores.csv"
        assert main(["eval", "--model", str(model_path), "--data", data,
                     "--out", str(scores)]) == code
        captured = capsys.readouterr()
        assert shown in (captured.out if code == EXIT_OK else captured.err)
        assert scores.exists() == (code == EXIT_OK)
        if code == EXIT_OK:
            model, spec = load_model(str(model_path))
            assert model.trees[0].depth == depth
            x = load_csv(data, spec.label_column, spec).X
            with open(scores, newline="") as fh:
                margins = [float(row["margin"]) for row in csv.DictReader(fh)]
            assert margins == predict(model, x)[0].tolist()

    def test_model_1200_deep_is_written_and_scored(self, tmp_path, capsys, monkeypatch):
        # identical rows with mixed labels: every split leaves one child empty and the
        # other impure, so a non-private fit grows a chain as deep as its cap
        data, domains = tmp_path / "same.csv", tmp_path / "same.domains"
        data.write_text("x0,y\n" + "0.0,-1\n0.0,1\n" * 20)
        domains.write_text("label_column = y\nlabel_map = -1:-1, 1:+1\n"
                           "attribute = x0 0.0 1.0 4\n")
        model_path, scores = tmp_path / "m.json", tmp_path / "scores.csv"
        fitted, save = [], cli.save_model
        monkeypatch.setattr(cli, "save_model", lambda path, model, spec: (
            fitted.append(model), save(path, model, spec)))
        assert main(["fit", "--config", _fit_config(tmp_path, T="1", depth="1200"),
                     "--data", str(data), "--domains", str(domains),
                     "--out", str(model_path)]) == EXIT_OK
        (model,) = fitted
        assert model.trees[0].depth == 1200
        assert main(["eval", "--model", str(model_path), "--data", str(data),
                     "--out", str(scores)]) == EXIT_OK
        with open(scores, newline="") as fh:
            margins = [float(row["margin"]) for row in csv.DictReader(fh)]
        x = load_csv(str(data), "y", load_model(str(model_path))[1]).X
        assert margins == model.margins(x).tolist()

    @pytest.mark.parametrize("command", [
        "fit-to-missing-dir", "fit-to-directory", "fit-over-model-write-fails", "eval",
        "experiment", "summarize", "compare", "sensitivity-audit",
    ])
    def test_path_that_cannot_be_opened_is_config_error(self, tmp_path, blocks_files, capsys,
                                                        monkeypatch, command):
        data, domains = blocks_files
        missing = str(tmp_path / "missing_dir" / "out.csv")
        model_path = tmp_path / "m.json"
        fit = ["fit", "--config", _fit_config(tmp_path), "--data", data, "--domains", domains]
        assert main(fit + ["--out", str(model_path)]) == EXIT_OK
        grid = tmp_path / "grid.config"
        grid.write_text(f"data = {data}\ndomains = {domains}\nalgorithm = boost\nT = 1\n"
                        "depth = 1\nalpha = 1.0\nepsilon = off\nk_folds = 2\nseeds = 0\n")
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        if command == "fit-over-model-write-fails":
            def replace(src, dst):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src)
            monkeypatch.setattr(harness.os, "replace", replace)
        argv, named = {
            "fit-to-missing-dir": (fit + ["--out", missing], missing),
            "fit-to-directory": (fit + ["--out", str(a_dir)], str(a_dir)),
            "fit-over-model-write-fails": (fit + ["--out", str(model_path)], str(model_path)),
            "eval": (["eval", "--model", str(model_path), "--data", data, "--out", missing],
                     missing),
            "experiment": (["experiment", "--config", str(grid), "--out", missing], missing),
            "summarize": (["summarize", "--results", missing, "--out", "s.csv"], missing),
            "compare": (["compare", "--a", missing, "--b", missing, "--out", "c.csv"], missing),
            "sensitivity-audit": (["sensitivity-audit", "--trials", "1", "--out", missing],
                                  missing),
        }[command]
        earlier = model_path.read_bytes()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        # a failed write leaves the earlier model as it was, and no temporary file
        assert model_path.read_bytes() == earlier
        assert not list(tmp_path.rglob("*.part")) and not (tmp_path / "missing_dir").exists()
        assert not list(a_dir.iterdir())

    def test_bad_config_is_config_error(self, tmp_path, blocks_files):
        data, domains = blocks_files
        cfg = _fit_config(tmp_path, alpha="5")
        rc = main(["fit", "--config", cfg, "--data", data, "--domains", domains,
                   "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_CONFIG

    def test_missing_flag_is_config_error(self):
        assert main(["fit", "--data", "x.csv"]) == EXIT_CONFIG


class TestExperimentPipeline:
    def test_experiment_summarize_compare(self, tmp_path, blocks_files):
        data, domains = blocks_files
        grid = tmp_path / "grid.config"
        grid.write_text(
            f"data = {data}\ndomains = {domains}\n"
            "algorithm = boost\nT = 2\ndepth = 1\nalpha = 1.0\n"
            "epsilon = 0.5\nk_folds = 3\nseeds = 0,1\n"
        )
        results = str(tmp_path / "results.csv")
        assert main(["experiment", "--config", str(grid), "--out", results]) == EXIT_OK

        curves = str(tmp_path / "curves.csv")
        assert main(["summarize", "--results", results, "--out", curves,
                     "--by", "algorithm,epsilon"]) == EXIT_OK
        with open(curves) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["algorithm", "epsilon", "test_error", "cumulative_pct",
                          "default_error_mean"]

        table = str(tmp_path / "cmp.csv")
        assert main(["compare", "--a", results, "--b", results, "--out", table]) == EXIT_OK

    @pytest.mark.parametrize("failing, code", [
        ({"boost", "rf_laplace"}, EXIT_DATA),
        ({"rf_laplace"}, EXIT_OK),
    ], ids=["all-failed", "partly-failed"])
    def test_data_error_only_when_every_record_failed(self, tmp_path, blocks_files, capsys,
                                                      monkeypatch, failing, code):
        data, domains = blocks_files
        grid = tmp_path / "grid.config"
        grid.write_text(
            f"data = {data}\ndomains = {domains}\nalgorithm = boost,rf_laplace\n"
            "T = 3\ndepth = 1\nalpha = 1.0\nepsilon = 0.5\nk_folds = 3\n"
        )
        fit_cell = harness.fit_cell

        def failing_fit(cell, *args):
            if cell["algorithm"] in failing:
                raise ValueError(f"{cell['algorithm']} broke")
            return fit_cell(cell, *args)

        monkeypatch.setattr(harness, "fit_cell", failing_fit)
        results = str(tmp_path / "results.csv")
        assert main(["experiment", "--config", str(grid), "--out", results]) == code
        captured = capsys.readouterr()
        failed = 3 * len(failing)
        assert f"wrote 6 records to {results} ({failed} failed)" in captured.out
        assert ("boost broke" in captured.err) == (code == EXIT_DATA)
        assert sum(bool(r["error"]) for r in read_results(results)) == failed
        # a rerun retries only the failed records, and they fail again
        assert main(["experiment", "--config", str(grid), "--out", results]) == EXIT_DATA
        assert f"wrote {failed} records" in capsys.readouterr().out

    @pytest.mark.parametrize("nvpriv", ["1", "0", "5, 1"])
    def test_out_of_range_nvpriv_is_config_error(self, tmp_path, blocks_files, capsys, nvpriv):
        data, domains = blocks_files
        grid = tmp_path / "grid.config"
        grid.write_text(
            f"data = {data}\ndomains = {domains}\nT = 2\ndepth = 1\n"
            f"alpha = 1.0\nk_folds = 3\nnvpriv = {nvpriv}\n"
        )
        results = tmp_path / "results.csv"
        assert main(["experiment", "--config", str(grid), "--out", str(results)]) == EXIT_CONFIG
        assert "nvpriv must be >= 2" in capsys.readouterr().err
        assert not results.exists()

    @pytest.mark.parametrize("command", ["summarize", "compare"])
    def test_unknown_group_column_is_one_config_error(self, tmp_path, blocks_files, capsys,
                                                      command):
        data, domains = blocks_files
        grid = tmp_path / "grid.config"
        grid.write_text(f"data = {data}\ndomains = {domains}\nT = 2\ndepth = 1\nk_folds = 3\n")
        results = str(tmp_path / "results.csv")
        assert main(["experiment", "--config", str(grid), "--out", results]) == EXIT_OK
        inputs = ["--results", results] if command == "summarize" else ["--a", results,
                                                                         "--b", results]
        out = tmp_path / "table.csv"
        assert main([command, *inputs, "--out", str(out), "--by", "epsilon,nosuch"]) == EXIT_CONFIG
        assert "config error: unknown group-by columns ['nosuch']" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_cells_are_plain_numbers(self, tmp_path, blocks_files):
        data, domains = blocks_files
        paths = {}
        for alpha in ("0.0", "1.0"):
            grid = tmp_path / f"grid{alpha}.config"
            grid.write_text(f"data = {data}\ndomains = {domains}\nT = 3\ndepth = 2\n"
                            f"alpha = {alpha}\nk_folds = 3\nseeds = 0,1\n")
            paths[alpha] = str(tmp_path / f"results{alpha}.csv")
            assert main(["experiment", "--config", str(grid), "--out", paths[alpha]]) == EXIT_OK
        table = tmp_path / "cmp.csv"
        assert main(["compare", "--a", paths["0.0"], "--b", paths["1.0"],
                     "--out", str(table)]) == EXIT_OK
        errors = {
            alpha: {
                seed: [float(r["test_error"]) for r in read_results(path) if r["seed"] == seed]
                for seed in ("0", "1")
            }
            for alpha, path in paths.items()
        }
        with open(table, newline="") as fh:
            cells = list(csv.DictReader(fh))
        assert [c["seed"] for c in cells] == ["0", "1"]
        for cell in cells:
            t, p = harness.students_t_test(errors["0.0"][cell["seed"]], errors["1.0"][cell["seed"]])
            assert (float(cell["t"]), float(cell["p"])) == (t, p)

    @pytest.mark.parametrize("p", ["0", "1", "1.5", "-1", "nan"])
    def test_p_threshold_outside_unit_interval_is_config_error(self, tmp_path, capsys, p):
        paths = []
        for side, errors in (("a", (0.1, 0.2, 0.15)), ("b", (0.4, 0.5, 0.45))):
            rows = [{"epsilon": 1.0, "depth": 2, "seed": 0, "fold": fold, "test_error": e}
                    for fold, e in enumerate(errors)]
            paths.append(str(tmp_path / f"{side}.csv"))
            harness.write_csv(paths[-1], rows, harness.RESULT_COLUMNS)
        out = tmp_path / "cmp.csv"
        args = ["compare", "--a", paths[0], "--b", paths[1], "--out", str(out), "--p", p]
        assert main(args) == EXIT_CONFIG
        assert "p threshold must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()


class TestSensitivityAuditCommand:
    def test_writes_csv(self, tmp_path):
        out = str(tmp_path / "audit.csv")
        rc = main(["sensitivity-audit", "--out", out, "--trials", "1", "--seed", "0"])
        assert rc == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 * 3  # m in 2..8, three alphas, one trial
        assert all(float(r["empirical_delta"]) <= float(r["bound"]) + 1e-9 for r in rows)

    def test_a_bound_violation_exits_2_after_writing_every_row(self, tmp_path, capsys,
                                                                monkeypatch):
        rows = [
            {"m": 4, "alpha": 0.3, "trial": 0, "empirical_delta": 0.5, "bound": 0.5,
             "tight_case_delta": 0.25},
            {"m": 4, "alpha": 0.3, "trial": 1, "empirical_delta": 0.6, "bound": 0.5,
             "tight_case_delta": 0.25},
        ]
        monkeypatch.setattr(cli, "sensitivity_audit", lambda trials, seed: rows)
        out = tmp_path / "audit.csv"
        assert main(["sensitivity-audit", "--out", str(out), "--trials", "2"]) == EXIT_CONFIG
        assert "1 bound violations" in capsys.readouterr().out
        with open(out) as fh:
            assert [float(r["empirical_delta"]) for r in csv.DictReader(fh)] == [0.5, 0.6]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_config_error(self, tmp_path, capsys, trials):
        out = tmp_path / "audit.csv"
        assert main(["sensitivity-audit", "--out", str(out), "--trials", trials]) == EXIT_CONFIG
        assert "trials must be >= 1" in capsys.readouterr().err
        assert not out.exists()
