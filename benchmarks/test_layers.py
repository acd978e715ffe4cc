"""Layer benchmarks for the large fit (m=100k, 20 attributes, nvpriv=32).

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only --benchmark-json BENCH_<n>.json

This directory is outside ``testpaths``, so the test suite does not run it.
Inputs are built from fixed seeds through ``Dataset``, so each commit is
timed on the feature layout its own ``Dataset`` stores.
"""

import inspect

import numpy as np
import pytest

import dpboost.tree as tree_module
from dpboost.dataset import AttributeDomain, Dataset
from dpboost.ensemble import boost_fit
from dpboost.tree import TreeConfig, induce_tree

M_ROWS, N_ATTRS, NVPRIV, DEPTH, OUTPUT_BOUND = 100_000, 20, 32, 6, 10.0


@pytest.fixture(scope="module")
def wide():
    rng = np.random.default_rng(0)
    X = rng.integers(0, NVPRIV, size=(M_ROWS, N_ATTRS))
    clean = ((X[:, 0] > 9) & (X[:, 1] < 22)) | (X[:, 2] + X[:, 3] > 43)
    y = np.where(clean ^ (rng.random(M_ROWS) < 0.1), 1, -1)
    domains = [AttributeDomain(f"x{j}", 0.0, 1.0, NVPRIV) for j in range(N_ATTRS)]
    return Dataset(X, y, domains), np.full(M_ROWS, 0.5)


def _reports_leaf_rows() -> bool:
    # earlier commits have no such output; there the case that needs it is skipped
    return "_leaf_rows" in inspect.signature(induce_tree).parameters


@pytest.fixture(scope="module")
def fitted(wide):
    """A depth-6 tree on the wide data, with the rows induction routed to each leaf."""
    dataset, weights = wide
    leaf_rows = []
    kwargs = {"_leaf_rows": leaf_rows} if _reports_leaf_rows() else {}
    tree = induce_tree(dataset, weights, TreeConfig(depth=DEPTH, alpha="oc"), **kwargs)
    return tree, leaf_rows


def test_histogram_level(benchmark, wide):
    """Candidate histograms of one level: a 32-leaf frontier over every row."""
    dataset, weights = wide
    slot = np.random.default_rng(1).integers(0, 32, size=M_ROWS)
    leaf_rows = [np.flatnonzero(slot == s) for s in range(32)]
    pos_weights = weights * (dataset.y == 1)
    benchmark(
        tree_module._frontier_histograms,
        dataset.X, weights, pos_weights, leaf_rows, dataset.domains,
    )


def test_boost_iteration(benchmark, wide):
    """One non-private ``boost_fit`` iteration: induction plus training outputs."""
    dataset, _ = wide
    config = TreeConfig(depth=DEPTH, alpha="oc")
    benchmark.pedantic(
        boost_fit, args=(dataset, 1, config), kwargs={"output_bound": OUTPUT_BOUND},
        rounds=5, iterations=1,
    )


def test_training_outputs_by_traversal(benchmark, wide, fitted):
    """Training outputs of one iteration by routing every row through the tree."""
    dataset, _ = wide
    tree, _ = fitted
    benchmark(lambda: np.clip(tree.predict_bins(dataset.X), -OUTPUT_BOUND, OUTPUT_BOUND))


@pytest.mark.skipif(not _reports_leaf_rows(), reason="induction does not report leaf rows")
def test_training_outputs_from_induction(benchmark, wide, fitted):
    """Training outputs of one iteration from the leaf rows induction reported."""
    dataset, _ = wide
    tree, leaf_rows = fitted

    def outputs():
        h = np.zeros(dataset.n_examples)
        for leaf, rows in leaf_rows:
            h[rows] = leaf.prediction
        return np.clip(h, -OUTPUT_BOUND, OUTPUT_BOUND)

    assert np.array_equal(
        outputs(), np.clip(tree.predict_bins(dataset.X), -OUTPUT_BOUND, OUTPUT_BOUND)
    )
    benchmark(outputs)
