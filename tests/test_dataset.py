"""CSV loading, quantization rules, split candidates and stratified folds."""

import tracemalloc

import numpy as np
import pytest

from dpboost.dataset import (
    AttributeDomain,
    DataError,
    Dataset,
    candidate_splits,
    load_csv,
    make_blocks_dataset,
    parse_domain_spec,
    stratified_kfold,
)
from dpboost.privacy import RandomSource, replacement_neighbors


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "toy.domains"
    path.write_text(
        "# toy domains\n"
        "label_column = y\n"
        "label_map = 0:-1, 1:+1\n"
        "attribute = f1 0.0 1.0 10\n"
        "attribute = f2 -2.0 2.0 5\n"
    )
    return str(path)


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "f1,f2,y\n"
        "0.0,-2.0,0\n"
        "0.5,0.0,1\n"
        "1.0,2.0,1\n"
        "0.25,1.0,0\n"
    )
    return str(path)


class TestDomainSpec:
    def test_parse(self, spec_file):
        spec = parse_domain_spec(spec_file)
        assert spec.label_column == "y"
        assert spec.label_map == {"0": -1, "1": 1}
        assert [d.name for d in spec.attributes] == ["f1", "f2"]
        assert spec.attributes[1].nvpriv == 5

    def test_bad_lines(self, tmp_path):
        bad = tmp_path / "bad.domains"
        bad.write_text("attribute = onlyname\n")
        with pytest.raises(DataError):
            parse_domain_spec(str(bad))
        bad.write_text("no equals sign\n")
        with pytest.raises(DataError):
            parse_domain_spec(str(bad))
        bad.write_text("label_map = a:b\n")
        with pytest.raises(DataError):
            parse_domain_spec(str(bad))

    def test_domain_validation(self):
        with pytest.raises(DataError):
            AttributeDomain("x", 1.0, 0.0, 10)
        with pytest.raises(DataError):
            AttributeDomain("x", 0.0, 1.0, 1)


class TestQuantization:
    def test_grid_includes_endpoints(self):
        dom = AttributeDomain("x", 0.0, 1.0, 5)
        assert np.allclose(dom.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_nearest_with_ties_to_lower(self):
        dom = AttributeDomain("x", 0.0, 1.0, 5)
        bins, clamped = dom.quantize(np.array([0.1, 0.125, 0.13, 0.99, 0.375]))
        # 0.125 and 0.375 are exact midpoints: lower bin wins
        assert bins.tolist() == [0, 0, 1, 4, 1]
        assert clamped == 0

    def test_clamping_counts(self):
        dom = AttributeDomain("x", 0.0, 1.0, 5)
        bins, clamped = dom.quantize(np.array([-0.5, 1.7, 0.5]))
        assert bins.tolist() == [0, 4, 2]
        assert clamped == 2

    def test_idempotence(self):
        dom = AttributeDomain("x", -3.0, 7.0, 13)
        grid = dom.grid()
        bins, clamped = dom.quantize(grid)
        assert bins.tolist() == list(range(13))
        assert clamped == 0


class TestLoadCsv:
    def test_happy_path(self, csv_file, spec_file):
        spec = parse_domain_spec(spec_file)
        ds = load_csv(csv_file, "y", spec)
        assert ds.n_examples == 4
        assert ds.y.tolist() == [-1, 1, 1, -1]
        assert np.all(ds.weights == 1.0)
        assert ds.clamp_warnings == 0
        # 0.5 on a 10-point grid of [0,1]: nearest of {0.444..., 0.555...} tie-free
        assert ds.X[1, 0] in (4, 5)

    def test_out_of_domain_clamps_with_warning_count(self, tmp_path, spec_file):
        spec = parse_domain_spec(spec_file)
        path = tmp_path / "clamp.csv"
        path.write_text("f1,f2,y\n-5.0,0.0,1\n0.5,9.0,0\n")
        ds = load_csv(str(path), "y", spec)
        assert ds.clamp_warnings == 2
        assert ds.X[0, 0] == 0
        assert ds.X[1, 1] == 4

    def test_parse_error_reports_row(self, tmp_path, spec_file):
        spec = parse_domain_spec(spec_file)
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,y\n0.1,0.0,1\nnot-a-number,0.0,1\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(str(path), "y", spec)

    def test_unknown_label(self, tmp_path, spec_file):
        spec = parse_domain_spec(spec_file)
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,y\n0.1,0.0,maybe\n")
        with pytest.raises(DataError, match="unknown label"):
            load_csv(str(path), "y", spec)

    def test_missing_column(self, tmp_path, spec_file):
        spec = parse_domain_spec(spec_file)
        path = tmp_path / "bad.csv"
        path.write_text("f1,y\n0.1,1\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(str(path), "y", spec)


class TestDatasetInvariants:
    def test_weight_validation(self):
        doms = [AttributeDomain("x", 0.0, 1.0, 2)]
        X = np.zeros((2, 1), dtype=int)
        y = np.array([1, -1])
        with pytest.raises(DataError):
            Dataset(X, y, doms, np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            Dataset(X, y, doms, np.array([1.5, 1.0]))

    def test_label_validation(self):
        doms = [AttributeDomain("x", 0.0, 1.0, 2)]
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1), dtype=int), np.array([0, 1]), doms)

    def test_bin_range_validation(self):
        doms = [AttributeDomain("x", 0.0, 1.0, 2)]
        with pytest.raises(DataError):
            Dataset(np.array([[2]]), np.array([1]), doms)


class TestCandidateSplits:
    def test_counts(self):
        def ds_with(nvs):
            doms = [AttributeDomain(f"x{i}", 0.0, 1.0, nv) for i, nv in enumerate(nvs)]
            return Dataset(np.zeros((1, len(nvs)), dtype=int), np.array([1]), doms)

        assert len(candidate_splits(ds_with([2]))) == 1
        assert len(candidate_splits(ds_with([10] * 4))) == 36
        assert len(candidate_splits(ds_with([50] * 11))) == 539

    def test_deterministic_order(self):
        ds = make_blocks_dataset(20, 3, seed=1)
        a = candidate_splits(ds)
        b = candidate_splits(ds)
        assert a == b
        assert a == sorted(a, key=lambda c: (c.attribute, c.threshold_bin))

    def test_threshold_range(self):
        ds = make_blocks_dataset(20, 2, seed=1, nvpriv=7)
        for cand in candidate_splits(ds):
            assert 0 <= cand.threshold_bin < 6


class TestStratifiedKFold:
    def _balanced(self, n_pos, n_neg):
        doms = [AttributeDomain("x", 0.0, 1.0, 2)]
        m = n_pos + n_neg
        y = np.array([1] * n_pos + [-1] * n_neg)
        return Dataset(np.zeros((m, 1), dtype=int), y, doms)

    def test_exact_stratification(self):
        ds = self._balanced(10, 10)
        folds = stratified_kfold(ds, 10, RandomSource(0))
        for _, test in folds:
            assert np.sum(ds.y[test] == 1) == 1
            assert np.sum(ds.y[test] == -1) == 1

    def test_partition(self):
        ds = make_blocks_dataset(103, 3, seed=5)
        folds = stratified_kfold(ds, 7, RandomSource(3))
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen.tolist()) == list(range(103))
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            assert len(train) + len(test) == 103

    def test_proportions_within_one_example(self):
        ds = self._balanced(33, 70)
        k = 10
        folds = stratified_kfold(ds, k, RandomSource(1))
        for _, test in folds:
            n_pos = int(np.sum(ds.y[test] == 1))
            assert abs(n_pos - 33 / k) <= 1.0

    def test_deterministic(self):
        ds = make_blocks_dataset(60, 2, seed=9)
        a = stratified_kfold(ds, 5, RandomSource(42))
        b = stratified_kfold(ds, 5, RandomSource(42))
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_class_too_small(self):
        ds = self._balanced(3, 40)
        with pytest.raises(DataError):
            stratified_kfold(ds, 5, RandomSource(0))


class TestBlocksDataset:
    def test_depth_two_realizable_and_near_balanced(self):
        ds = make_blocks_dataset(400, 4, seed=7)
        rule = np.where((ds.X[:, 0] >= 2) & (ds.X[:, 1] >= 4), 1, -1)
        assert np.array_equal(rule, ds.y)
        balance = float(np.mean(ds.y == 1))
        assert 0.4 < balance < 0.6

    def test_deterministic(self):
        a = make_blocks_dataset(50, 3, seed=2)
        b = make_blocks_dataset(50, 3, seed=2)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def _column_major(X) -> bool:
    return X.flags.f_contiguous and X.dtype == np.int64


class TestColumnMajorX:
    DOMS = [AttributeDomain("a", 0.0, 1.0, 3), AttributeDomain("b", 0.0, 1.0, 4)]
    ROWS = [[0, 3], [2, 1], [1, 0], [2, 2]]
    Y = [1, -1, -1, 1]

    @pytest.mark.parametrize(
        "X",
        [ROWS, np.array(ROWS, dtype=np.int32), np.array(ROWS, dtype=np.int64),
         np.asfortranarray(ROWS, dtype=np.int64)],
        ids=["list", "int32", "c_order", "f_order"],
    )
    def test_constructor(self, X):
        ds = Dataset(X, np.array(self.Y), self.DOMS)
        assert _column_major(ds.X)
        assert np.array_equal(ds.X, np.array(self.ROWS))

    def test_constructor_keeps_a_column_major_int64_array(self):
        X = np.asfortranarray(self.ROWS, dtype=np.int64)
        assert Dataset(X, np.array(self.Y), self.DOMS).X is X

    @pytest.mark.parametrize(
        "indices", [[3, 0, 2], np.array([1, 3]), np.array([True, False, True, True])]
    )
    def test_subset(self, indices):
        ds = Dataset(self.ROWS, np.array(self.Y), self.DOMS, np.array([0.1, 0.2, 0.3, 0.4]))
        sub = ds.subset(indices)
        assert _column_major(sub.X)
        assert np.array_equal(sub.X, np.array(self.ROWS)[indices])
        assert np.array_equal(sub.y, np.array(self.Y)[indices])
        assert np.array_equal(sub.weights, ds.weights[indices])

    def test_subset_copies_X_once(self):
        m, n = 20_000, 20
        ds = Dataset(np.zeros((m, n), dtype=int), np.ones(m, dtype=int),
                     [AttributeDomain(f"x{j}", 0.0, 1.0, 2) for j in range(n)])
        tracemalloc.start()
        try:
            ds.subset(np.arange(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one copy of X plus index and label arrays; a second copy would double it
        assert peak < 1.5 * ds.X.nbytes

    def test_load_csv(self, csv_file, spec_file):
        assert _column_major(load_csv(csv_file, None, parse_domain_spec(spec_file)).X)

    def test_blocks_dataset(self):
        assert _column_major(make_blocks_dataset(50, 3, seed=1).X)

    def test_replacement_neighbors(self):
        base = Dataset(self.ROWS[:2], np.array(self.Y[:2]), self.DOMS)
        neighbors = list(replacement_neighbors(base, weight_grid=(1.0,)))
        assert neighbors and all(_column_major(n.X) for n in neighbors)
