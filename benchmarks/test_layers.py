"""Layer benchmarks: CSV load, the large fit (m=100k, 20 attributes, nvpriv=32),
its level histograms (every leaf binned, or sibling pairs) and its memory peak, the
weight update, deep and grid-sized private induction, deep-tree
prediction, exponential-mechanism sampling (scored leaves one by one, tied leaves in
one batch per level), the leaf release,
the forest baseline, k-fold construction and one experiment grid.

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only --benchmark-json BENCH_<n>.json

This directory is outside ``testpaths``, so the test suite does not run it.
Inputs are built from fixed seeds through ``Dataset``, so each commit is
timed on the feature layout its own ``Dataset`` stores.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import dpboost.tree as tree_module
from dpboost.dataset import (
    AttributeDomain,
    Dataset,
    load_csv,
    make_blocks_dataset,
    parse_domain_spec,
    stratified_kfold,
)
from dpboost.ensemble import boost_fit, predict, rf_fit, update_weights
from dpboost.harness import ExperimentConfig, run_experiment
from dpboost.privacy import (
    BudgetAccountant,
    RandomSource,
    derive_seed,
    exponential_mechanism,
    laplace_mechanism,
)
from dpboost.tree import TreeConfig, TreePrivacy, induce_tree, leaf_mask, node_depths, walk

M_ROWS, N_ATTRS, NVPRIV, DEPTH, OUTPUT_BOUND = 100_000, 20, 32, 6, 10.0


@pytest.fixture(scope="module")
def wide():
    rng = np.random.default_rng(0)
    X = rng.integers(0, NVPRIV, size=(M_ROWS, N_ATTRS))
    clean = ((X[:, 0] > 9) & (X[:, 1] < 22)) | (X[:, 2] + X[:, 3] > 43)
    y = np.where(clean ^ (rng.random(M_ROWS) < 0.1), 1, -1)
    domains = [AttributeDomain(f"x{j}", 0.0, 1.0, NVPRIV) for j in range(N_ATTRS)]
    return Dataset(X, y, domains), np.full(M_ROWS, 0.5)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """A 100k x 20 CSV of six-decimal values in [0, 1] with 0/1 labels, and its domains."""
    directory = tmp_path_factory.mktemp("csv")
    rng = np.random.default_rng(0)
    data = directory / "wide.csv"
    header = ",".join([f"x{j}" for j in range(N_ATTRS)] + ["y"])
    np.savetxt(data, np.column_stack([rng.random((M_ROWS, N_ATTRS)), rng.random(M_ROWS) < 0.5]),
               fmt=["%.6f"] * N_ATTRS + ["%d"], delimiter=",", header=header, comments="")
    domains = directory / "wide.domains"
    domains.write_text("label_column = y\nlabel_map = 0:-1, 1:+1\n" + "".join(
        f"attribute = x{j} 0.0 1.0 {NVPRIV}\n" for j in range(N_ATTRS)
    ))
    return str(data), parse_domain_spec(str(domains))


def test_load_csv(benchmark, wide_csv):
    """``load_csv`` of the 100k x 20 file: parsing, label mapping and quantizing.
    ``extra_info`` holds the tracemalloc peak of one more, untimed load and what the
    loaded dataset holds after it returns (bins, labels and weights), in MB."""
    data, spec = wide_csv
    tracemalloc.start()
    try:
        loaded = load_csv(data, None, spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del loaded
    benchmark.extra_info["tracemalloc_peak_mb"] = peak / 2**20
    benchmark.extra_info["held_mb"] = held / 2**20
    benchmark.pedantic(load_csv, args=(data, None, spec), rounds=5, iterations=1)


@pytest.fixture(scope="module")
def fitted(wide):
    """A depth-6 tree on the wide data, with the leaf id induction routed each row to."""
    dataset, weights = wide
    leaf = np.empty(dataset.n_examples, dtype=np.intp)
    tree = induce_tree(dataset, weights, TreeConfig(depth=DEPTH, alpha="oc"), _leaf_rows=leaf)
    return tree, leaf


def _level_inputs(dataset, weights):
    """Each row's complex (weight, positive weight), the padded width of a slot's bins
    per attribute and the candidates' columns of ``_left_sums``."""
    both = np.empty(M_ROWS, dtype=np.complex128)
    both.real, both.imag = weights, weights * (dataset.y == 1)
    width = max(dom.nvpriv for dom in dataset.domains)
    columns = np.array([j * width + b for j, dom in enumerate(dataset.domains)
                        for b in range(dom.nvpriv - 1)])
    return both, width, columns


def test_histogram_level(benchmark, wide):
    """Candidate histograms of one level: a 32-leaf frontier over every row, each leaf
    binned from its rows."""
    dataset, weights = wide
    both, width, columns = _level_inputs(dataset, weights)
    slot = np.random.default_rng(1).integers(0, 32, size=M_ROWS)
    direct = [(s, np.flatnonzero(slot == s)) for s in range(32)]

    def level():
        bins = tree_module._level_bins(dataset.X, both, direct, [], None, width)
        return tree_module._left_sums(bins, columns)

    benchmark(level)


def test_histogram_level_siblings(benchmark, wide):
    """Candidate histograms of a level of 16 sibling pairs over every row: of each pair,
    the child with fewer rows (about 40% of its parent's) is binned from its rows and
    the other is its parent's bins minus its sibling's.  The parents' bins are built
    outside the timed call."""
    dataset, weights = wide
    both, width, columns = _level_inputs(dataset, weights)
    rng = np.random.default_rng(1)
    parent, goes_left = rng.integers(0, 16, size=M_ROWS), rng.random(M_ROWS) < 0.4
    parents = tree_module._level_bins(
        dataset.X, both, [(s, np.flatnonzero(parent == s)) for s in range(16)], [], None, width
    )
    direct = [(2 * s, np.flatnonzero((parent == s) & goes_left)) for s in range(16)]
    derived = [(2 * s + 1, s, 2 * s) for s in range(16)]
    assert all(idx.size < np.count_nonzero(parent == s) - idx.size for s, (_, idx) in
               enumerate(direct))

    def level():
        bins = tree_module._level_bins(dataset.X, both, direct, derived, parents, width)
        return tree_module._left_sums(bins, columns)

    benchmark(level)


def test_boost_iteration(benchmark, wide):
    """One non-private ``boost_fit`` iteration: induction plus training outputs."""
    dataset, _ = wide
    config = TreeConfig(depth=DEPTH, alpha="oc")
    benchmark.pedantic(
        boost_fit, args=(dataset, 1, config), kwargs={"output_bound": OUTPUT_BOUND},
        rounds=5, iterations=1,
    )


def test_induce_tree_wide(benchmark, wide):
    """One non-private OC ``induce_tree`` of depth 6 on the wide data.  ``extra_info``
    holds the tracemalloc peak of one more, untimed fit: what the fit allocates
    above its inputs (level histograms, candidate risk parts, leaf rows), in MB."""
    dataset, weights = wide
    config = TreeConfig(depth=DEPTH, alpha="oc")
    tracemalloc.start()
    try:
        induce_tree(dataset, weights, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mb"] = peak / 2**20
    benchmark.pedantic(induce_tree, args=(dataset, weights, config), rounds=5, iterations=1)


def test_training_outputs_by_traversal(benchmark, wide, fitted):
    """Training outputs of one iteration by routing every row through the tree."""
    dataset, _ = wide
    tree, _ = fitted
    benchmark(lambda: np.clip(tree.predict_bins(dataset.X), -OUTPUT_BOUND, OUTPUT_BOUND))


def test_training_outputs_from_induction(benchmark, wide, fitted):
    """Training outputs of one iteration from the leaf ids induction reported."""
    dataset, _ = wide
    tree, leaf = fitted

    def outputs():
        return np.clip(tree.value[leaf], -OUTPUT_BOUND, OUTPUT_BOUND)

    assert np.array_equal(
        outputs(), np.clip(tree.predict_bins(dataset.X), -OUTPUT_BOUND, OUTPUT_BOUND)
    )
    benchmark(outputs)


def test_update_weights(benchmark, wide):
    """One mirror weight update of the 100k weights against bounded predictions."""
    dataset, weights = wide
    predictions = np.random.default_rng(2).uniform(-OUTPUT_BOUND, OUTPUT_BOUND, M_ROWS)
    benchmark(update_weights, 1.0, weights, 0.05, dataset.y, predictions)


@pytest.fixture(scope="module")
def blocks():
    """Blocks data as in the private workloads: 400 training and 2,000 held-out rows."""
    return make_blocks_dataset(400, 4, seed=3), make_blocks_dataset(2000, 4, seed=4)


def test_induce_tree_deep_private(benchmark, blocks):
    """One private OC ``induce_tree`` of depth 8 on the 400 training rows: 255 splits,
    each scored from the leaves' risk parts and drawn by the exponential mechanism."""
    train, _ = blocks
    privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=OUTPUT_BOUND, ensemble_size=1)
    config = TreeConfig(depth=8, alpha="oc", privacy=privacy)
    weights = np.full(400, 0.5)
    benchmark(lambda: induce_tree(train, weights, config, BudgetAccountant(1.0), RandomSource(0)))


def test_induce_tree_cv_private(benchmark):
    """One private OC ``induce_tree`` of depth 4 on 360 blocks rows, the first tree of
    a boosting record of the experiment grid (T=10, epsilon 1): 15 splits, some of them tied."""
    train = make_blocks_dataset(360, 4, seed=3)
    privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=OUTPUT_BOUND, ensemble_size=10)
    config = TreeConfig(depth=4, alpha="oc", privacy=privacy)
    weights = np.full(360, 0.5)
    benchmark(lambda: induce_tree(train, weights, config, BudgetAccountant(1.0), RandomSource(0)))


@pytest.fixture(scope="module")
def deep_model(blocks):
    """A private OC depth-8 model (T=10) of the training rows."""
    train, _ = blocks
    privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=OUTPUT_BOUND, ensemble_size=10)
    config = TreeConfig(depth=8, alpha="oc", privacy=privacy)
    return boost_fit(train, 10, config, accountant=BudgetAccountant(1.0), rng=RandomSource(0))


def test_predict_deep_private(benchmark, blocks, deep_model):
    """``predict`` of a private depth-8 model (T=10): most subtrees are reached by no row."""
    _, held_out = blocks
    benchmark(predict, deep_model, held_out.X)


def test_exponential_mechanism(benchmark):
    """The 255 split draws of a private depth-8 tree over 36 candidates (4 attributes
    x 9 thresholds, as on blocks data), each with its ledger entry."""
    utilities = np.random.default_rng(3).normal(-50.0, 5.0, size=(255, 36))

    def draws():
        accountant, rng = BudgetAccountant(1.0), RandomSource(0)
        return [exponential_mechanism(u, 3.0, 1e-3, accountant, rng.uniform())
                for u in utilities]

    benchmark(draws)


def test_exponential_mechanism_tied_levels(benchmark, blocks, deep_model):
    """The split draws of the tied leaves (no rows or one class) of a private depth-8
    model (T=10) over 36 candidates: one batched release over equal utilities per level
    that holds tied leaves, with a ledger entry per leaf.  The batch sizes are the
    model's own, 61 batches of 1 to 118 rows, 2,094 in all."""
    train, _ = blocks
    sizes = []
    for tree in deep_model.trees:
        depths = node_depths(tree.child)
        for d in range(tree.depth):
            at = walk(tree, train.X, d)
            tied = sum(np.unique(train.y[at == k]).size <= 1 for k in np.flatnonzero(depths == d))
            if tied:
                sizes.append(tied)
    assert (len(sizes), min(sizes), max(sizes), sum(sizes)) == (61, 1, 118, 2094)

    def draws():
        accountant, rng = BudgetAccountant(1.0), RandomSource(0)
        return [exponential_mechanism(np.zeros((n, 36)), 3.0, 1e-4, accountant, rng.uniforms(n))
                for n in sizes]

    benchmark(draws)


def test_leaf_release_deep_private(benchmark, blocks):
    """The leaf release of a private depth-8 tree: the one ``laplace_mechanism`` call
    of induction, over the tree's 256 leaves clamped to the output bound, with their
    uniforms and a ledger entry each; every round releases the same leaves again."""
    train, _ = blocks
    privacy = TreePrivacy(epsilon=1.0, beta_tree=0.5, output_bound=OUTPUT_BOUND, ensemble_size=1)
    tree = induce_tree(train, np.full(400, 0.5), TreeConfig(depth=8, alpha="oc", privacy=privacy),
                       BudgetAccountant(1.0), RandomSource(0))
    leaves = np.clip(tree.value[leaf_mask(tree.child)], -OUTPUT_BOUND, OUTPUT_BOUND)[:, None]
    assert leaves.shape == (256, 1)
    eps_leaf = (1.0 - 0.5) * 1.0 / (1 * 256)
    benchmark(lambda: laplace_mechanism(leaves, 2.0 * OUTPUT_BOUND, eps_leaf, BudgetAccountant(0.5),
                                        RandomSource(1).uniforms(256)[:, None], "leaf"))


@pytest.mark.parametrize("mechanism", ["laplace", "exponential"])
def test_forest_fit_and_vote(benchmark, blocks, mechanism):
    """``rf_fit`` of 21 depth-2 trees on the training rows, then its votes on them."""
    train, _ = blocks

    def fit_and_vote():
        forest = rf_fit(train, 21, 2, 1.0, mechanism, BudgetAccountant(1.0), RandomSource(0))
        return forest.margins(train.X)

    benchmark(fit_and_vote)


def test_stratified_kfold(benchmark, blocks):
    """Ten stratified folds of the 400 training rows, seeded as the experiment seeds them."""
    train, _ = blocks
    benchmark(lambda: stratified_kfold(train, 10, RandomSource(derive_seed(0, "folds", 10))))


@pytest.fixture(scope="module")
def forest_grid(tmp_path_factory):
    """A one-cell grid (rf_laplace, T=21, depth 2, epsilon 1) over 400 blocks rows,
    one seed and 10 folds, written as the CSV, domains and config files it reads."""
    directory = tmp_path_factory.mktemp("grid")
    ds = make_blocks_dataset(400, 4, seed=3)
    data = directory / "blocks.csv"
    rows = [",".join([*(str(float(v)) for v in ds.X[i]), str(ds.y[i])]) for i in range(400)]
    data.write_text("\n".join(["x0,x1,x2,x3,y", *rows]) + "\n")
    domains = directory / "blocks.domains"
    domains.write_text("label_column = y\n" + "".join(
        f"attribute = x{j} 0.0 9.0 10\n" for j in range(4)
    ))
    config = directory / "grid.config"
    config.write_text(
        f"data = {data}\ndomains = {domains}\nalgorithm = rf_laplace\nT = 21\n"
        "depth = 2\nepsilon = 1.0\nk_folds = 10\nseeds = 0\n"
    )
    return ExperimentConfig.from_file(str(config)), directory


def test_experiment_forest_cell(benchmark, forest_grid):
    """``run_experiment`` of the one-cell forest grid into a new results file: 10 records."""
    config, directory = forest_grid
    runs = itertools.count()

    def fresh_output():
        return (config, str(directory / f"results{next(runs)}.csv")), {}

    benchmark.pedantic(run_experiment, setup=fresh_output, rounds=30, iterations=1)
