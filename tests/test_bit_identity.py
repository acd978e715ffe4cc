"""Golden bit-identity of tree induction, boosting and forests under fixed seeds.

Every released number of three fits is hashed and compared with digests
pinned from the per-leaf induction that preceded the level-wise one.  A
speed-up of ``induce_tree`` must keep all of them: split records, leaf
predictions, leveraging coefficients and training margins.  The boosting
traces are pinned from the code that still recomputed training outputs with
``predict_bins``.  The forest fits, ``unnormalized_risk`` and
``tree_efficiency`` are pinned from the code that still routed rows through
a tree in five separate loops.  An experiment grid's result columns and
``stratified_kfold``'s folds are pinned from the loop that rebuilt the folds
for every record.  The serialized models are pinned from the version-3
writer, which lists each tree's nodes breadth-first and nothing else.  Leaves and nodes are listed
depth-first, left to right, the order the node graphs that preceded the node
tables listed them in.  The splits, leaf predictions, models and
``tree_efficiency`` of the two non-private fits are pinned from the induction
that first scored a split by its two children alone: node 22 of some trees
there cut the same rows with its children swapped, a tie the risk of the rest
of the tree had rounded away.  The split utilities of every fit are pinned from
the induction that first derived the larger of two scored siblings' histograms
from its parent's and its sibling's, which moves some utilities by rounding and
no split.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import dpboost.ensemble as ensemble_module
from dpboost.dataset import AttributeDomain, Dataset, make_blocks_dataset, stratified_kfold
from dpboost.ensemble import BoostedEnsemble, BoostTraces, boost_fit, empirical_risk, rf_fit
from dpboost.harness import RESULT_COLUMNS, ExperimentConfig, read_results, run_experiment
from dpboost.privacy import BudgetAccountant, RandomSource, derive_seed
from dpboost.tree import (
    DecisionTree,
    SplitRecord,
    TreeConfig,
    TreePrivacy,
    leaf_mask,
    node_depths,
    walk,
)
from test_tree import _prediction_alpha, tree_efficiency, unnormalized_risk


def _sha(values) -> str:
    # repr of a python float round-trips exactly, so equal digests mean
    # equal bits
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()[:16]


def _preorder(tree) -> list[int]:
    # node ids depth-first, each before its children, left to right
    out, stack = [], [0]
    while stack:
        k = stack.pop()
        out.append(k)
        if tree.child[k] != k:
            stack += [tree.child[k] + 1, tree.child[k]]
    return out


def _fingerprint(model, dataset) -> dict[str, str]:
    records = [r for tree in model.trees for r in tree.records]
    out = {
        f"record.{f.name}": _sha([getattr(r, f.name) for r in records])
        for f in dataclasses.fields(SplitRecord)
    }
    out["leaf.prediction"] = _sha([
        float(tree.value[k]) for tree in model.trees for k in _preorder(tree) if tree.child[k] == k
    ])
    out["betas"] = _sha([float(b) for b in model.betas])
    out["margins"] = _sha(model.margins(dataset.X).tolist())
    for f in dataclasses.fields(BoostTraces):
        out[f"traces.{f.name}"] = _sha(getattr(model.traces, f.name))
    out["model.to_dict"] = _sha(json.dumps(model.to_dict(), sort_keys=True))
    return out


def _unequal_domains_dataset(m: int = 300, seed: int = 5) -> Dataset:
    # attributes of 3, 7, 12 and 5 bins; a noisy threshold rule on two of them
    sizes = (3, 7, 12, 5)
    rng = RandomSource(seed)
    X = np.array([[rng.randint(n) for n in sizes] for _ in range(m)])
    flip = np.array([rng.uniform() < 0.15 for _ in range(m)])
    clean = np.where(2 * X[:, 1] + X[:, 2] > 12, 1, -1)
    y = np.where(flip, -clean, clean)
    domains = [AttributeDomain(f"a{j}", 0.0, 1.0, n) for j, n in enumerate(sizes)]
    return Dataset(X, y, domains)


def _private_deep_fit():
    ds = make_blocks_dataset(400, 4, seed=3)
    privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=10.0, ensemble_size=3)
    config = TreeConfig(depth=8, alpha="oc", privacy=privacy)
    model = boost_fit(ds, 3, config, accountant=BudgetAccountant(1.0), rng=RandomSource(11))
    return model, ds


def _non_private_fit(alpha):
    ds = _unequal_domains_dataset()
    return boost_fit(ds, 4, TreeConfig(depth=5, alpha=alpha), output_bound=10.0), ds


GOLDEN = {
    "private_oc_depth8": {
        "betas": "3a5beaddfb05da6a",
        "leaf.prediction": "97bdcd956d5d0013",
        "margins": "90f7e07b966c1b2d",
        "record.alpha": "dd796d43a38256fd",
        "record.attribute": "480daddebfc9e427",
        "record.depth": "6ec8cba3eba5977e",
        "record.epsilon": "eb6cce2ffa7d07c7",
        "record.threshold_bin": "75b00dc2f9265d98",
        "record.utility": "3bd77e210130a7b6",
        "model.to_dict": "05bd935d4eece9c2",
        "traces.edges": "b140baf43cd993a8",
        "traces.mean_weight": "4b5b03a8d3d6bdad",
        "traces.surrogate": "d54bc4c221a0adf0",
        "traces.train_error": "e8b544f6ad164176",
    },
    "fixed_alpha_depth5": {
        "betas": "9c041ac1e1aeefc9",
        "leaf.prediction": "f802d5695e99ca8b",
        "margins": "cad416e3b3355bc6",
        "record.alpha": "00f65c44d1872843",
        "record.attribute": "ee426266e9d66407",
        "record.depth": "f88e1383864b270e",
        "record.epsilon": "20b99096e9887f3f",
        "record.threshold_bin": "aeefbebf006cb3d9",
        "record.utility": "b4d119a76fd6079d",
        "model.to_dict": "75c1218e2b8e23fd",
        "traces.edges": "50e652a72fe71d28",
        "traces.mean_weight": "3db347ea08eb5c6d",
        "traces.surrogate": "731b842a247d4b5a",
        "traces.train_error": "e393a86cbcbb698c",
    },
    "oc_depth5": {
        "betas": "f0b0970f084e188f",
        "leaf.prediction": "8bde55eb53697629",
        "margins": "20274018b636a784",
        "record.alpha": "ffdc161fc9287ae8",
        "record.attribute": "293df66d59ec00ed",
        "record.depth": "f88e1383864b270e",
        "record.epsilon": "20b99096e9887f3f",
        "record.threshold_bin": "a14e54885e3dd7bf",
        "record.utility": "c1028ea11a7ae4a9",
        "model.to_dict": "8b356749c7ad95ea",
        "traces.edges": "c68c46c8409812cf",
        "traces.mean_weight": "8ad487a0d3ac5f7a",
        "traces.surrogate": "292edfb1175d13cf",
        "traces.train_error": "48aee7cab3bb2931",
    },
}

FITS = {
    "private_oc_depth8": _private_deep_fit,
    "fixed_alpha_depth5": lambda: _non_private_fit(0.6),
    "oc_depth5": lambda: _non_private_fit("oc"),
}
FIT_ALPHAS = {"private_oc_depth8": "oc", "fixed_alpha_depth5": 0.6, "oc_depth5": "oc"}


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_matches_golden_digests(name):
    model, ds = FITS[name]()
    assert _fingerprint(model, ds) == GOLDEN[name]
    # the training rows of each leaf are not kept on the model: a tree holds
    # only its tables and records
    assert set(vars(model)) == _field_names(BoostedEnsemble)
    tables = {"child", "attribute", "threshold_bin", "value"}
    assert _field_names(DecisionTree) == tables | {"records"}
    for tree in model.trees:
        assert set(vars(tree)) == _field_names(DecisionTree)
        assert {getattr(tree, name).shape for name in tables} == {tree.child.shape}


def _pure_root_fit():
    # one class only: objective calibration stops at the root
    ds = Dataset(np.array([[0, 1], [1, 0], [1, 1]]), np.ones(3, dtype=int),
                 [AttributeDomain(f"a{j}", 0.0, 1.0, 2) for j in range(2)])
    return boost_fit(ds, 2, TreeConfig(depth=3, alpha="oc"), output_bound=10.0), ds


@pytest.mark.parametrize(
    "fit, check",
    [
        (lambda: _non_private_fit(0.6),
         lambda tree, ds: np.any(node_depths(tree.child)[leaf_mask(tree.child)] < 5)),
        # a leaf that no training row reaches
        (_private_deep_fit, lambda tree, ds: np.unique(walk(tree, ds.X, tree.depth)).size
         < np.count_nonzero(leaf_mask(tree.child))),
        (_pure_root_fit, lambda tree, ds: np.count_nonzero(leaf_mask(tree.child)) == 1),
    ],
    ids=["early_pure_leaves", "private_empty_leaves", "pure_root"],
)
def test_training_outputs_are_the_tree_predictions(monkeypatch, fit, check):
    seen = []
    leveraging = ensemble_module.leveraging_coefficient

    def spy(a, weights, labels, predictions):
        seen.append(np.array(predictions, copy=True))
        return leveraging(a, weights, labels, predictions)

    monkeypatch.setattr(ensemble_module, "leveraging_coefficient", spy)
    model, ds = fit()
    assert len(seen) == len(model.trees)
    M = model.output_bound
    for h, tree in zip(seen, model.trees):
        assert check(tree, ds)
        assert np.array_equal(h, np.clip(tree.predict_bins(ds.X), -M, M))


# (leaf mechanism, T, depth, epsilon, seed) on 120 blocks rows: the laplace
# fit leaves 49 of its 144 leaves without training rows, the exponential 7 of 84
FOREST_FITS = {
    "laplace": ("laplace", 9, 4, 1.0, 21),
    "exponential": ("exponential", 21, 2, 0.5, 22),
}

FOREST_GOLDEN = {
    "laplace": {
        "leaf.prediction": "d221e05aad26aa43",
        "margins": "bfef536775f31179",
        "model.to_dict": "dbd4849ebee4ef5e",
    },
    "exponential": {
        "leaf.prediction": "491d725de035d049",
        "margins": "e48871f20d316ce7",
        "model.to_dict": "7e0d0532423146b2",
    },
}


@pytest.mark.parametrize("name", sorted(FOREST_FITS))
def test_forest_matches_golden_digests(name):
    mechanism, T, depth, epsilon, seed = FOREST_FITS[name]
    ds = make_blocks_dataset(120, 4, seed=5)
    forest = rf_fit(ds, T, depth, epsilon, mechanism, BudgetAccountant(epsilon), RandomSource(seed))
    assert forest.value.shape == (T, 2 ** (depth + 1) - 1)
    assert {
        # each tree's leaves left to right, the order the node trees listed them
        "leaf.prediction": _sha(forest.value[leaf_mask(forest.child)].tolist()),
        "margins": _sha(forest.margins(ds.X).tolist()),
        "model.to_dict": _sha(json.dumps(forest.to_dict(), sort_keys=True)),
    } == FOREST_GOLDEN[name]


# unnormalized_risk of each tree at the alpha of its leaves and tree_efficiency
# of each node, depth-first, under weights linspace(0.05, 1, m)
DIAGNOSTICS_GOLDEN = {
    "fixed_alpha_depth5": {
        "unnormalized_risk": "bd684c02528e8eeb",
        "tree_efficiency": "d4a9da3774b6cf94",
    },
    "oc_depth5": {
        "unnormalized_risk": "475433e68c961334",
        "tree_efficiency": "616b30fc311bbc6f",
    },
    "private_oc_depth8": {
        "unnormalized_risk": "12ee57c5ccfeb04d",
        "tree_efficiency": "93be2f1b34882f9a",
    },
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_tree_diagnostics_match_golden_digests(name):
    model, ds = FITS[name]()
    weights = np.linspace(0.05, 1.0, ds.n_examples)
    risks = [unnormalized_risk(t, ds, weights, _prediction_alpha(t, FIT_ALPHAS[name]))
             for t in model.trees]
    efficiencies = [tree_efficiency(k, t, ds, weights) for t in model.trees for k in _preorder(t)]
    assert {
        "unnormalized_risk": _sha(risks),
        "tree_efficiency": _sha(efficiencies),
    } == DIAGNOSTICS_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(FITS))
def test_train_error_trace_is_the_empirical_risk(name):
    # the experiment's train_error column and `dpboost fit` read the trace
    model, ds = FITS[name]()
    assert model.traces.train_error[-1] == empirical_risk(model, ds)


def _one_class_dataset() -> Dataset:
    return Dataset(np.zeros((23, 1), dtype=np.int64), np.ones(23, dtype=np.int64),
                   [AttributeDomain("a0", 0.0, 1.0, 2)])


# (dataset, k, seed) of stratified_kfold, its random source seeded as the
# experiment seeds it; pinned from the code that dealt each class into
# per-fold lists
KFOLD_CASES = {
    "blocks60_k3_seed0": (lambda: make_blocks_dataset(60, 3, seed=2), 3, 0),
    "blocks121_k10_seed7": (lambda: make_blocks_dataset(121, 2, seed=7), 10, 7),
    "blocks400_k10_seed1": (lambda: make_blocks_dataset(400, 4, seed=3), 10, 1),
    "one_class_k4_seed3": (_one_class_dataset, 4, 3),
}

KFOLD_GOLDEN = {
    "blocks60_k3_seed0": "002a4ea954a83625",
    "blocks121_k10_seed7": "0bfabce1fc29e929",
    "blocks400_k10_seed1": "e4e15a59b462d445",
    "one_class_k4_seed3": "d3b79eac5b3a7f0f",
}


@pytest.mark.parametrize("name", sorted(KFOLD_CASES))
def test_stratified_kfold_matches_golden_digest(name):
    make, k, seed = KFOLD_CASES[name]
    rng = RandomSource(derive_seed(seed, "folds", k))
    folds = stratified_kfold(make(), k, rng)
    assert all(a.dtype == np.int64 and b.dtype == np.int64 for a, b in folds)
    assert _sha([(a.tolist(), b.tolist()) for a, b in folds]) == KFOLD_GOLDEN[name]


# every result column but wall_time_s of a grid over both boosting modes and
# both forests at two quantizations, two seeds and three folds; pinned from
# the loop that rebuilt the folds for every record, with the private cells'
# train_error blanked: an exact training error is not a private release
GRID_CONFIG = (
    "algorithm = boost, rf_laplace, rf_exponential\nT = 3\ndepth = 2\n"
    "alpha = 0.5, oc\nepsilon = off, 1.0\nnvpriv = 5, 10\nk_folds = 3\nseeds = 0, 1\n"
)
GRID_GOLDEN = "35eb0fa873ba8bcd"


def test_experiment_grid_matches_golden_digest(tmp_path):
    ds = make_blocks_dataset(60, 3, seed=2)
    data = tmp_path / "blocks.csv"
    lines = ["x0,x1,x2,y"] + [
        ",".join([*(repr(float(v)) for v in ds.X[i]), str(ds.y[i])]) for i in range(60)
    ]
    data.write_text("\n".join(lines) + "\n")
    domains = tmp_path / "blocks.domains"
    domains.write_text("label_column = y\n" + "".join(
        f"attribute = x{j} 0.0 9.0 10\n" for j in range(3)
    ))
    config = tmp_path / "grid.config"
    config.write_text(f"data = {data}\ndomains = {domains}\n" + GRID_CONFIG)
    out = str(tmp_path / "results.csv")
    assert run_experiment(ExperimentConfig.from_file(str(config)), out) == 72
    rows = read_results(out)
    assert all(row["error"] == "" for row in rows)
    columns = [c for c in RESULT_COLUMNS if c != "wall_time_s"]
    assert _sha([[row[c] for c in columns] for row in rows]) == GRID_GOLDEN
