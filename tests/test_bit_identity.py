"""Golden bit-identity of tree induction and boosting under fixed seeds.

Every released number of three fits is hashed and compared with digests
pinned from the per-leaf induction that preceded the level-wise one.  A
speed-up of ``induce_tree`` must keep all of them: split records, leaf
statistics and predictions, leveraging coefficients and training margins.
The boosting traces and the serialized model are pinned from the code that
still recomputed training outputs with ``predict_bins``.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import dpboost.ensemble as ensemble_module
from dpboost.dataset import AttributeDomain, Dataset, make_blocks_dataset
from dpboost.ensemble import BoostedEnsemble, BoostTraces, boost_fit
from dpboost.privacy import BudgetAccountant, RandomSource
from dpboost.tree import DecisionTree, Node, SplitRecord, TreeConfig, TreePrivacy


def _sha(values) -> str:
    # repr of a python float round-trips exactly, so equal digests mean
    # equal bits
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()[:16]


def _fingerprint(model, dataset) -> dict[str, str]:
    records = [r for tree in model.trees for r in tree.records]
    out = {
        f"record.{f.name}": _sha([getattr(r, f.name) for r in records])
        for f in dataclasses.fields(SplitRecord)
    }
    leaves = [leaf for tree in model.trees for leaf in tree.leaves()]
    out["leaf.prediction"] = _sha([leaf.prediction for leaf in leaves])
    out["leaf.stats"] = _sha([(leaf.w, leaf.w1, leaf.n_pos, leaf.n_neg) for leaf in leaves])
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
        "leaf.stats": "5f1ea333276354c5",
        "margins": "90f7e07b966c1b2d",
        "record.alpha": "dd796d43a38256fd",
        "record.attribute": "480daddebfc9e427",
        "record.depth": "6ec8cba3eba5977e",
        "record.epsilon": "eb6cce2ffa7d07c7",
        "record.risk_after": "eec573708d77e2d9",
        "record.risk_before": "183a03c889b32b88",
        "record.threshold_bin": "75b00dc2f9265d98",
        "record.utility": "511f2ce1b9aa2792",
        "model.to_dict": "8572d569905b15b4",
        "traces.betas": "3a5beaddfb05da6a",
        "traces.edges": "b140baf43cd993a8",
        "traces.mean_weight": "4b5b03a8d3d6bdad",
        "traces.surrogate": "d54bc4c221a0adf0",
        "traces.train_error": "e8b544f6ad164176",
    },
    "fixed_alpha_depth5": {
        "betas": "9c041ac1e1aeefc9",
        "leaf.prediction": "e067d1b401bd365d",
        "leaf.stats": "9a2606ee711d2096",
        "margins": "cad416e3b3355bc6",
        "record.alpha": "00f65c44d1872843",
        "record.attribute": "77f4ee621a12963c",
        "record.depth": "f88e1383864b270e",
        "record.epsilon": "20b99096e9887f3f",
        "record.risk_after": "bce67390139b9d69",
        "record.risk_before": "a668ff28a9ce0721",
        "record.threshold_bin": "565e843b97ec90f9",
        "record.utility": "14b9dff3399afd03",
        "model.to_dict": "4aed65308a881eee",
        "traces.betas": "9c041ac1e1aeefc9",
        "traces.edges": "50e652a72fe71d28",
        "traces.mean_weight": "3db347ea08eb5c6d",
        "traces.surrogate": "731b842a247d4b5a",
        "traces.train_error": "e393a86cbcbb698c",
    },
    "oc_depth5": {
        "betas": "f0b0970f084e188f",
        "leaf.prediction": "6fc58e0e4ec4cc02",
        "leaf.stats": "4223575c357f96c0",
        "margins": "20274018b636a784",
        "record.alpha": "ffdc161fc9287ae8",
        "record.attribute": "d3aa484231161023",
        "record.depth": "f88e1383864b270e",
        "record.epsilon": "20b99096e9887f3f",
        "record.risk_after": "d5a50fbbfe5c27b8",
        "record.risk_before": "2e974b3983dc22fb",
        "record.threshold_bin": "7ea598958e8af283",
        "record.utility": "1fd3ca603b242e21",
        "model.to_dict": "11b1d126f57882a3",
        "traces.betas": "f0b0970f084e188f",
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


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_matches_golden_digests(name):
    model, ds = FITS[name]()
    assert _fingerprint(model, ds) == GOLDEN[name]
    # the training rows of each leaf are not kept on the model
    assert set(vars(model)) == _field_names(BoostedEnsemble)
    for tree in model.trees:
        assert set(vars(tree)) == _field_names(DecisionTree)
        assert all(set(vars(node)) == _field_names(Node) for node in tree.nodes())


def _pure_root_fit():
    # one class only: objective calibration stops at the root
    ds = Dataset(np.array([[0, 1], [1, 0], [1, 1]]), np.ones(3, dtype=int),
                 [AttributeDomain(f"a{j}", 0.0, 1.0, 2) for j in range(2)])
    return boost_fit(ds, 2, TreeConfig(depth=3, alpha="oc"), output_bound=10.0), ds


@pytest.mark.parametrize(
    "fit, check",
    [
        (lambda: _non_private_fit(0.6), lambda leaves: any(leaf.depth < 5 for leaf in leaves)),
        (_private_deep_fit, lambda leaves: any(leaf.w == 0.0 for leaf in leaves)),
        (_pure_root_fit, lambda leaves: len(leaves) == 1),
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
        assert check(tree.leaves())
        assert np.array_equal(h, np.clip(tree.predict_bins(ds.X), -M, M))
