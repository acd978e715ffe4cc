"""CSV loading, quantization rules, split candidates and stratified folds."""

import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpboost.dataset as dataset_module
from dpboost.dataset import (
    AttributeDomain,
    DataError,
    Dataset,
    DomainSpec,
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("f1,f2,y\n0.1,0.0,1\nnot-a-number,0.0,1\n",
             "row 3: could not convert string to float: 'not-a-number'"),
            ("f1,f2,y\n0.1,0.0,1\n\n0.2\n",
             "row 4: float() argument must be a string or a real number, not 'NoneType'"),
            ("f1,f2,y\n0.1,0.0,1\n0.2,0.0, maybe \n", "row 3: unknown label 'maybe'"),
            ("f1,f2,y\n0.1,0.0,1\n\n\r\nnot-a-number,0.0,1\n",
             "row 5: could not convert string to float: 'not-a-number'"),
            ("f1,f2,y\r\n\r\n0.1,0.0,1\r\n\r\n0.2,0.0,maybe\r\n", "row 5: unknown label 'maybe'"),
            ("f1,f2,y\n\n0.1,0.0,\"two\nlines\"\n", "row 4: unknown label 'two\\nlines'"),
            ("f1,y\n0.1,1\n", "columns not found: ['f2']"),
            ("f1,f2,label\n0.1,0.0,1\n", "label column 'y' not found"),
            ("", "missing header row"),
            ("f1,f2,y\n", "no data rows"),
            ("f1,f2,y\n\n\r\n", "no data rows"),
            ("f1,f2,note,y\n0.1,0.0," + "x" * 200_000 + ",1\n",
             f"row 2: field larger than field limit ({csv.field_size_limit()})"),
            ("f1,f2," + "n" * 200_000 + ",y\n0.1,0.0,a,1\n",
             f"header row: field larger than field limit ({csv.field_size_limit()})"),
        ],
        ids=["non-numeric", "short-row", "unknown-label", "non-numeric-after-blank-lines",
             "unknown-label-after-blank-lines", "label-over-two-lines", "missing-attribute",
             "missing-label-column", "missing-header", "header-only", "blank-lines-only",
             "long-field-row-1", "long-header-field"],
    )
    def test_error_messages(self, tmp_path, spec_file, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataError) as info:
            load_csv(str(path), "y", parse_domain_spec(spec_file))
        assert str(info.value) == f"{path}: {message}"

    def test_long_field_after_the_first_row_loads(self, tmp_path, spec_file):
        # numpy's parser has no field limit; csv reads only the header and row 1 here
        path = tmp_path / "long.csv"
        path.write_text("f1,f2,note,y\n0.1,0.0,a,1\n0.9,2.0," + "x" * 200_000 + ",0\n")
        ds = load_csv(str(path), "y", parse_domain_spec(spec_file))
        assert ds.X.tolist() == [[1, 2], [8, 4]] and ds.y.tolist() == [1, -1]

    def test_unopenable_path_message(self, tmp_path, spec_file):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError) as info:
            load_csv(str(path), "y", parse_domain_spec(spec_file))
        assert str(info.value) == (
            f"cannot open {path}: [Errno 2] No such file or directory: '{path}'"
        )


def _row_loop(path, label_column, spec):
    """The per-row reader and quantizer as they stood before numpy's parser."""
    raw_features, labels = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            raw_features.append([float(row[d.name]) for d in spec.attributes])
            raw_label = (row[label_column] or "").strip()
            if raw_label in spec.label_map:
                labels.append(spec.label_map[raw_label])
            elif raw_label in ("-1", "+1", "1"):
                labels.append(1 if raw_label in ("+1", "1") else -1)
            else:
                raise ValueError(f"unknown label {raw_label!r}")
    values = np.asarray(raw_features, dtype=float)
    quantized = [dom.quantize(values[:, j]) for j, dom in enumerate(spec.attributes)]
    X = np.column_stack([bins for bins, _ in quantized])
    return X, np.asarray(labels), sum(count for _, count in quantized)


# label keys with a '#' and a '"' in them (the CSV writes it as '""'), and "1" mapped
# against its default
SPEC = DomainSpec(
    (AttributeDomain("a0", 0.0, 1.0, 5), AttributeDomain("a1", -2.0, 2.0, 9)),
    {"neg": -1, 'say "yes"': 1, "#pos": 1, "1": -1},
    "y",
)


def _field(text, quoted):
    if quoted or any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_texts(draw):
    """CSV files numpy's parser accepts: every label form, clamped values, quoting,
    CRLF, blank lines, a '#' in a field, a repeated name, a header over two lines
    and any column order."""
    note_name = draw(st.sampled_from(["note", "two-line\nnote"]))
    columns = draw(st.permutations(["a0", "a1", "y", note_name, *draw(st.sampled_from([[], ["a0"]]))]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(_field(c, False) for c in columns)]
    value = st.floats(-3.0, 3.0).map(repr)  # outside both domains at times: clamped
    pad = st.sampled_from(["", " ", "\t"])
    label = st.tuples(pad, st.sampled_from([*SPEC.label_map, "-1", "+1", "1"]), pad).map("".join)
    note = st.text(alphabet='ab #,"\n', max_size=6)
    for _ in range(draw(st.integers(1, 12))):
        cells = {"a0": value, "a1": st.tuples(pad, value, pad).map("".join), "y": label, note_name: note}
        lines.append(",".join(_field(draw(cells[c]), draw(st.booleans())) for c in columns))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestLoadCsvMatchesRowLoop:
    @settings(max_examples=200, deadline=None)
    @given(csv_texts(), st.integers(1, 3))
    def test_numpy_parser_gives_the_row_loop_result(self, tmp_path_factory, text, chunk_lines):
        # chunks of 1-3 lines end on blank lines, in the two-line header's wake and
        # where a quoted field goes on to the next line
        path = tmp_path_factory.getbasetemp() / "equivalence.csv"
        path.write_bytes(text.encode("utf-8"))
        X, y, clamped = _row_loop(path, "y", SPEC)
        with mock.patch.object(dataset_module, "_read_rows", side_effect=AssertionError), \
                mock.patch.object(dataset_module, "_CHUNK_LINES", chunk_lines):
            ds = load_csv(str(path), None, SPEC)  # the per-row loop would raise
        assert np.array_equal(ds.X, X) and ds.X.flags.f_contiguous
        assert ds.X.dtype == dataset_module.bin_dtype(SPEC.attributes)
        assert np.array_equal(ds.y, y) and ds.y.dtype == np.int64
        assert ds.clamp_warnings == clamped

    def test_a_value_only_float_reads_takes_the_row_loop(self, tmp_path):
        path = tmp_path / "underscore.csv"
        path.write_text("y,a0,a1,note\n1,0.5,1_0,x\nneg,0.25,-1,y\n")
        with mock.patch.object(dataset_module, "_read_rows",
                               wraps=dataset_module._read_rows) as row_loop:
            ds = load_csv(str(path), None, SPEC)
        assert row_loop.called
        X, y, clamped = _row_loop(path, "y", SPEC)
        assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)
        assert ds.clamp_warnings == clamped == 1

    def test_a_bad_value_in_a_later_chunk_takes_the_row_loop(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text("a0,a1,y\n" + "0.5,0.5,1\n" * 5 + '0.5,"1\n0",neg\n0.5,0.5,1\n')
        with mock.patch.object(dataset_module, "_CHUNK_LINES", 2), \
                mock.patch.object(dataset_module, "_read_rows",
                                  wraps=dataset_module._read_rows) as row_loop:
            with pytest.raises(DataError) as info:
                load_csv(str(path), None, SPEC)
        assert row_loop.called
        # the row over lines 7 and 8 is named by the line it ends on
        assert str(info.value) == f"{path}: row 8: could not convert string to float: '1\\n0'"

    @pytest.mark.parametrize("text", ['a0,a1,y,note\n0.5,0.5,1,a"b\n0.5,0.5,1,"c\n0.5,0.5,1,d"\n',
                                      'a0,a1,y,note\n0.5,0.5,1,"a"b\n0.5,0.5,1,x\n'],
                             ids=["stray-quote-then-quoted-lines", "text-after-closing-quote"])
    def test_a_quote_outside_a_quoted_field_takes_the_row_loop(self, tmp_path, text):
        # in the first file, the stray quote evens the count of quotes in the first two
        # lines, so a chunk of two would end inside the quoted field the second opens
        path = tmp_path / "stray.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(dataset_module, "_CHUNK_LINES", 2), \
                mock.patch.object(dataset_module, "_read_rows",
                                  wraps=dataset_module._read_rows) as row_loop:
            ds = load_csv(str(path), None, SPEC)
        assert row_loop.called
        X, y, clamped = _row_loop(path, "y", SPEC)
        assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)

    def test_a_load_holds_one_chunk_at_a_time(self, tmp_path):
        # beyond what the dataset keeps, a load's peak is one chunk's parse, whatever
        # the row count; parsing this whole file at once would peak about 10 MiB higher
        rows, n = 50_000, 20
        path = tmp_path / "wide.csv"
        rng = np.random.default_rng(0)
        np.savetxt(path, np.column_stack([rng.random((rows, n)), rng.random(rows) < 0.5]),
                   fmt=["%.6f"] * n + ["%d"], delimiter=",", comments="",
                   header=",".join([f"x{j}" for j in range(n)] + ["y"]))
        spec = DomainSpec(tuple(AttributeDomain(f"x{j}", 0.0, 1.0, 32) for j in range(n)),
                          {"0": -1, "1": 1}, "y")
        tracemalloc.start()
        try:
            ds = load_csv(str(path), None, spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_examples == rows
        assert peak - held < 4 * 2**20

    @pytest.mark.parametrize("cell", ["\x1c0.5", "0.5\x1f"], ids=["leading-x1c", "trailing-x1f"])
    def test_separators_numpy_alone_strips_are_row_errors(self, tmp_path, cell):
        path = tmp_path / "separator.csv"
        path.write_text(f"a0,a1,y\n0.5,0.5,1\n0.5,{cell},neg\n")
        with pytest.raises(DataError) as info:
            load_csv(str(path), None, SPEC)
        assert str(info.value) == f"{path}: row 3: could not convert string to float: {cell!r}"


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

    @pytest.mark.parametrize("bin_index", [-1, 256, 2**64])
    def test_bins_the_narrow_type_would_wrap_raise(self, bin_index):
        doms = [AttributeDomain("x", 0.0, 1.0, 256)]  # uint8 bins: -1 and 256 would wrap
        with pytest.raises(DataError):
            Dataset([[bin_index]], [1], doms)

    @pytest.mark.parametrize("bins", [[[1.7], [2.2]], [[1.0], [np.nan]], [[np.inf], [1.0]],
                                      [["1.5"], ["2"]], [[None], [1]]])
    def test_bins_that_are_not_finite_integers_raise(self, bins):
        doms = [AttributeDomain("x", 0.0, 1.0, 4)]
        with pytest.raises(DataError, match="bin indices"):
            Dataset(bins, [1, 1], doms)

    @pytest.mark.parametrize("labels", [[1.5, 1], [1, np.nan], [-np.inf, 1], [None, 1]])
    def test_labels_that_are_not_finite_integers_raise(self, labels):
        doms = [AttributeDomain("x", 0.0, 1.0, 4)]
        with pytest.raises(DataError, match="labels"):
            Dataset([[1], [2]], labels, doms)

    def test_integral_floats_load(self):
        doms = [AttributeDomain("x", 0.0, 1.0, 4)]
        ds = Dataset([[1.0], [2.0], [3.0]], [1.0, -1.0, 1.0], doms)
        assert ds.X.tolist() == [[1], [2], [3]] and ds.y.tolist() == [1, -1, 1]
        assert ds.y.dtype == np.int64


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


def _column_major(ds) -> bool:
    return ds.X.flags.f_contiguous and ds.X.dtype == dataset_module.bin_dtype(ds.domains)


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
        assert _column_major(ds)
        assert np.array_equal(ds.X, np.array(self.ROWS))

    def test_constructor_keeps_a_column_major_array_of_the_bin_type(self):
        X = np.asfortranarray(self.ROWS, dtype=dataset_module.bin_dtype(self.DOMS))
        assert Dataset(X, np.array(self.Y), self.DOMS).X is X

    @pytest.mark.parametrize(
        "indices", [[3, 0, 2], np.array([1, 3]), np.array([True, False, True, True])]
    )
    def test_subset(self, indices):
        ds = Dataset(self.ROWS, np.array(self.Y), self.DOMS, np.array([0.1, 0.2, 0.3, 0.4]))
        sub = ds.subset(indices)
        assert _column_major(sub)
        assert np.array_equal(sub.X, np.array(self.ROWS)[indices])
        assert np.array_equal(sub.y, np.array(self.Y)[indices])
        assert np.array_equal(sub.weights, ds.weights[indices])

    def test_subset_copies_X_once(self):
        # enough attributes that X, one byte a bin, outweighs the per-row index,
        # label and weight arrays
        m, n = 20_000, 200
        ds = Dataset(np.zeros((m, n), dtype=np.uint8), np.ones(m, dtype=int),
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
        assert _column_major(load_csv(csv_file, None, parse_domain_spec(spec_file)))

    def test_blocks_dataset(self):
        assert _column_major(make_blocks_dataset(50, 3, seed=1))

    def test_replacement_neighbors(self):
        base = Dataset(self.ROWS[:2], np.array(self.Y[:2]), self.DOMS)
        neighbors = list(replacement_neighbors(base, weight_grid=(1.0,)))
        assert neighbors and all(_column_major(n) for n in neighbors)


class TestBinType:
    @pytest.mark.parametrize("nvpriv, dtype", [
        (2, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
    ])
    def test_narrowest_unsigned_type_of_the_widest_domain(self, nvpriv, dtype):
        doms = [AttributeDomain("a", 0.0, 1.0, 2), AttributeDomain("b", 0.0, 1.0, nvpriv)]
        assert dataset_module.bin_dtype(doms) == dtype

    @staticmethod
    def _top_rows(nvpriv):
        """Bins at both ends of one attribute's grid, and labels: what the CSV of
        ``test_load_csv_keeps_the_top_bin`` loads to."""
        return [[0], [1], [nvpriv - 2], [nvpriv - 1], [nvpriv - 1]], [1, -1, 1, -1, 1]

    @pytest.mark.parametrize("nvpriv", [256, 257])
    def test_load_csv_keeps_the_top_bin(self, tmp_path, nvpriv):
        path = tmp_path / "top.csv"
        # the grid is 0, 1, ..., nvpriv - 1; 1e9 is clamped onto the top bin
        path.write_text(f"x,y\n0,1\n1,-1\n{nvpriv - 2},1\n{nvpriv - 1},-1\n1e9,1\n")
        spec = DomainSpec((AttributeDomain("x", 0.0, float(nvpriv - 1), nvpriv),), {}, "y")
        ds = load_csv(str(path), None, spec)
        rows, labels = self._top_rows(nvpriv)
        assert ds.X.dtype == (np.uint8 if nvpriv <= 256 else np.uint16)
        assert ds.X.tolist() == rows and ds.y.tolist() == labels and ds.clamp_warnings == 1

    @pytest.mark.parametrize("nvpriv", [256, 257])
    def test_subset_keeps_the_top_bin(self, nvpriv):
        rows, labels = self._top_rows(nvpriv)
        ds = Dataset(rows, labels, [AttributeDomain("x", 0.0, 1.0, nvpriv)])
        assert ds.subset([4, 3, 0]).X.tolist() == [[nvpriv - 1], [nvpriv - 1], [0]]

    @pytest.mark.parametrize("nvpriv", [256, 257])
    def test_replacement_neighbors_keep_the_top_bin(self, nvpriv):
        base = Dataset([[nvpriv - 1], [0]], [1, -1], [AttributeDomain("x", 0.0, 1.0, nvpriv)])
        neighbors = list(replacement_neighbors(base, weight_grid=(1.0,)))
        first, second = neighbors[: 2 * nvpriv], neighbors[2 * nvpriv:]  # two labels a bin
        assert [int(n.X[0, 0]) for n in first[::2]] == list(range(nvpriv))
        assert all(n.X[1, 0] == 0 for n in first)
        assert [int(n.X[1, 0]) for n in second[::2]] == list(range(nvpriv))
        assert all(n.X[0, 0] == nvpriv - 1 for n in second)
