"""Data ingestion, public-grid quantization, split candidates and CV folds.

Attribute domains (range and quantization level count) are public
knowledge: continuous values are snapped to a regular grid of ``nvpriv``
points spanning ``[lo, hi]`` (endpoints included), and the candidate-split
set is the data-independent collection of gaps between consecutive grid
points.  Labels are mapped to {-1, +1} at load time.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .privacy import RandomSource

__all__ = [
    "DataError",
    "AttributeDomain",
    "DomainSpec",
    "Dataset",
    "SplitCandidate",
    "parse_domain_spec",
    "load_csv",
    "candidate_splits",
    "stratified_kfold",
    "make_blocks_dataset",
]


class DataError(ValueError):
    """Malformed input data or domain specification."""


@dataclass(frozen=True)
class AttributeDomain:
    """Public description of one ordered attribute."""

    name: str
    lo: float
    hi: float
    nvpriv: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DataError(f"attribute {self.name!r}: lo must be < hi")
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise DataError(f"attribute {self.name!r}: lo and hi must be finite")
        if self.nvpriv < 2:
            raise DataError(f"attribute {self.name!r}: nvpriv must be >= 2")

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Snap values to nearest grid index, ties to the lower index; out-of-range
        values (infinities too) are clamped to the grid's ends, and NaN is a DataError."""
        v = np.clip(np.asarray(values, dtype=float), self.lo, self.hi)
        if np.isnan(v).any():
            raise DataError(f"attribute {self.name!r}: NaN value")
        step = (self.hi - self.lo) / (self.nvpriv - 1)
        lower = np.floor((v - self.lo) / step).astype(np.int64)
        lower = np.clip(lower, 0, self.nvpriv - 2)
        grid_lo = self.lo + lower * step
        grid_hi = self.lo + (lower + 1) * step
        take_upper = (grid_hi - v) < (v - grid_lo)
        return lower + take_upper.astype(np.int64)


@dataclass(frozen=True)
class DomainSpec:
    """Parsed domain-spec file: attribute domains plus the label mapping."""

    attributes: tuple[AttributeDomain, ...]
    label_map: dict[str, int]
    label_column: str | None = None


@dataclass(frozen=True)
class SplitCandidate:
    """Test "bin index <= threshold_bin" on one attribute."""

    attribute: int
    threshold_bin: int


def bin_dtype(domains) -> np.dtype:
    """The narrowest unsigned integer type that holds every bin of ``domains``:
    ``uint8`` up to 256 bins per attribute, ``uint16`` up to 65,536.  The one place a
    bin type is chosen; internal (not in ``__all__``)."""
    return np.min_scalar_type(max((dom.nvpriv for dom in domains), default=1) - 1)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an array of integers (integral floats pass); DataError if one is
    not a finite integer."""
    a = np.asarray(values)
    if a.dtype.kind in "biu":
        return a
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what} must be integers") from exc
    if not np.all(np.isfinite(a) & (a == np.floor(a))):
        raise DataError(f"{what} must be finite integers")
    return a


@dataclass
class Dataset:
    """Quantized feature matrix with +-1 labels and per-example weights.

    ``X`` is stored column-major (Fortran order) in ``bin_dtype(domains)``, one byte
    per bin for up to 256 bins: tree induction reads it one attribute at a time, and
    each column is then contiguous.  Code that reads it only compares bins or adds
    them to ``int64`` keys, so no arithmetic runs in the narrow type.
    """

    X: np.ndarray  # (m, n) bin indices, column-major
    y: np.ndarray  # (m,) labels in {-1, +1}
    domains: list[AttributeDomain]
    weights: np.ndarray | None = None

    def __post_init__(self):
        X = _integers(self.X, "bin indices")
        y = _integers(self.y, "labels")
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError("dataset needs at least one example")
        if X.shape[1] != len(self.domains):
            raise DataError("feature count does not match declared domains")
        if not np.all(np.isin(y, (-1, 1))):
            raise DataError("labels must be -1 or +1")
        for j, dom in enumerate(self.domains):
            col = X[:, j]
            if col.min() < 0 or col.max() >= dom.nvpriv:
                raise DataError(f"attribute {dom.name!r}: bin index out of range")
        # only after the range check: a cast wraps bins the type cannot hold
        self.X = np.asarray(X, dtype=bin_dtype(self.domains), order="F")
        self.y = np.asarray(y, dtype=np.int64)
        if self.weights is None:
            self.weights = np.ones(self.X.shape[0])
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (self.X.shape[0],):
                raise DataError("weights must have one entry per example")
            if not np.all((self.weights > 0.0) & (self.weights <= 1.0)):
                raise DataError("weights must lie in (0, 1]")

    @property
    def n_examples(self) -> int:
        return self.X.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        rows = np.arange(self.n_examples)[np.asarray(indices)]
        # taking columns of X.T keeps the result column-major in one copy
        X = np.take(self.X.T, rows, axis=1).T
        return Dataset(X, self.y[rows], self.domains, self.weights[rows])


def _parse_kv_lines(path: str) -> list[tuple[int, str, str]]:
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    entries = []
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            entries.append((lineno, key.strip(), value.strip()))
    return entries


def parse_domain_spec(path: str) -> DomainSpec:
    """Read a key-value domain file.

    Recognized keys::

        label_column = y
        label_map    = 0:-1, 1:+1
        attribute    = x0 0.0 1.0 10      # name lo hi nvpriv

    ``attribute`` may repeat, one line per attribute, in feature order.
    """
    attributes: list[AttributeDomain] = []
    label_map: dict[str, int] = {}
    label_column = None
    for lineno, key, value in _parse_kv_lines(path):
        if key == "label_column":
            label_column = value
        elif key == "label_map":
            for pair in value.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                try:
                    raw, mapped = pair.split(":")
                    label_map[raw.strip()] = int(mapped)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad label_map entry {pair!r}") from exc
        elif key == "attribute":
            parts = value.split()
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: attribute needs 'name lo hi nvpriv'")
            try:
                attributes.append(
                    AttributeDomain(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))
                )
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
        else:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
    if not attributes:
        raise DataError(f"{path}: no attributes declared")
    if any(v not in (-1, 1) for v in label_map.values()):
        raise DataError(f"{path}: label_map targets must be -1 or +1")
    return DomainSpec(tuple(attributes), label_map, label_column)


def load_csv(path: str, label_column: str | None, spec: DomainSpec) -> Dataset:
    """Load a header-ed CSV and quantize it against the declared domains.

    Every declared attribute must be a column; labels are translated through
    the spec's label map (raw values already equal to -1/+1 pass through
    when no map is declared).  Out-of-domain values are clamped to the grid; a NaN
    value is a DataError that names its row.

    numpy's C parser reads the data rows a chunk of lines at a time, and each
    chunk is quantized into its bins as it is read.  If a chunk fails (a bad row
    or label, a value only ``float`` reads such as ``1_0``, a quote outside a
    quoted field) or there are no data rows, the file is read again row by row,
    which names the bad row; where the C parser succeeds, it returns exactly what
    the row loop would, except that it has no limit on field length; ``csv``'s
    limit raises a ``DataError``.
    """
    label_column = label_column or spec.label_column
    if label_column is None:
        raise DataError("no label column declared")
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DataError(f"{path}: header row: {exc}") from exc
        if header is None:
            raise DataError(f"{path}: missing header row")
        missing = [d.name for d in spec.attributes if d.name not in header]
        if missing:
            raise DataError(f"{path}: columns not found: {missing}")
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found")
        column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        usecols = [column[d.name] for d in spec.attributes] + [column[label_column]]
        labels_of = {"-1": -1, "+1": 1, "1": 1, **spec.label_map}
        try:
            bins, labels = _read_columns(fh, reader, usecols, labels_of, spec.attributes)
        except (ValueError, csv.Error):  # csv.Error: the peek at the first data row
            fh.seek(0)
            bins, labels = _read_rows(path, fh, label_column, spec.attributes, labels_of)
    return Dataset(bins, labels, list(spec.attributes))


def _quantize(values, domains):
    """``values`` (rows x attributes) as column-major bins of ``bin_dtype(domains)``."""
    bins = np.empty(values.shape, dtype=bin_dtype(domains), order="F")
    for j, dom in enumerate(domains):
        bins[:, j] = dom.quantize(values[:, j])
    return bins


_CHUNK_LINES = 8192  # data lines per C-parser call: a load holds one chunk's values at a time

# a quoted field that starts and ends a field, as both parsers read one
_QUOTED_FIELD = re.compile(r'"(?<![^,\r\n]")(?:[^"]|"")*"(?![^,\r\n])')


def _read_columns(fh, reader, usecols, labels_of, domains):
    """Bins and labels of the rows after ``reader``'s header, by numpy's C
    parser a chunk of lines at a time (``usecols``: attributes, then the label);
    ValueError where ``_read_rows`` may differ."""
    skiprows = reader.line_num
    if not any(reader):  # no data rows; a csv error in the first goes to the row loop too
        raise ValueError("no data rows")
    fh.seek(0)
    lines = itertools.islice(fh, skiprows, None)
    # labels as objects, because loadtxt reads a str column in chunks that warn on blank lines
    dtype = [("x", float, (len(usecols) - 1,)), ("y", object)]
    parts = []  # (bins, labels) of each chunk
    while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
        text = "".join(chunk)
        if '"' in text and text.count('"') % 2:  # it ends in a quoted field: take lines to its end
            for line in lines:
                chunk.append(line)
                if line.count('"') % 2:
                    break
            text = "".join(chunk)
        # NUL, which a str array drops from the end of a label, and \x1c-\x1f, which
        # numpy's float parser strips as space where float() fails
        if any(c in text for c in "\x00\x1c\x1d\x1e\x1f"):
            raise ValueError("characters the two parsers read differently")
        # a quote inside an unquoted field, which throws the count of quotes off
        if '"' in text and '"' in _QUOTED_FIELD.sub("", text):
            raise ValueError("a quote outside a quoted field")
        del text
        if not any(line.strip("\r\n") for line in chunk):
            continue  # blank lines only, on which numpy warns
        rows = np.loadtxt(chunk, dtype, delimiter=",", quotechar='"', comments=None,
                          usecols=usecols, ndmin=1)
        del chunk  # as rows below: gone before the next chunk is read
        raw, codes = np.unique(rows["y"].astype(str), return_inverse=True)
        mapped = [labels_of.get(r.strip()) for r in raw.tolist()]
        if None in mapped:
            raise ValueError("unknown label")
        parts.append((_quantize(rows["x"], domains), np.asarray(mapped)[codes]))
        del rows
    bins, labels = zip(*parts)
    # the transposes are row-major, so joining them gives column-major bins in one copy
    return np.concatenate([b.T for b in bins], axis=1).T, np.concatenate(labels)


def _read_rows(path, fh, label_column, attributes, labels_of):
    """Bins and labels row by row: the only source of row-numbered
    errors, which name the file line a row ends on."""
    raw_features: list[list[float]] = []
    labels: list[int] = []
    rows = csv.DictReader(fh)
    try:
        for row in rows:
            try:
                raw_features.append([float(row[d.name]) for d in attributes])
                if any(v != v for v in raw_features[-1]):  # NaN, which quantize rejects
                    raise ValueError("NaN value")
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: row {rows.reader.line_num}: {exc}") from exc
            raw_label = (row[label_column] or "").strip()
            if raw_label not in labels_of:
                raise DataError(f"{path}: row {rows.reader.line_num}: unknown label {raw_label!r}")
            labels.append(labels_of[raw_label])
    except csv.Error as exc:
        raise DataError(f"{path}: row {rows.reader.line_num}: {exc}") from exc
    if not labels:
        raise DataError(f"{path}: no data rows")
    return _quantize(np.asarray(raw_features, dtype=float), attributes), np.asarray(labels)


def candidate_splits(dataset: Dataset) -> list[SplitCandidate]:
    """All public split candidates, in (attribute, threshold) order.

    Exactly ``nvpriv - 1`` thresholds per attribute: one per gap between
    consecutive grid points.
    """
    return [
        SplitCandidate(j, t)
        for j, dom in enumerate(dataset.domains)
        for t in range(dom.nvpriv - 1)
    ]


def stratified_kfold(
    dataset: Dataset, k: int, rng: RandomSource
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified folds: (train_indices, test_indices) pairs.

    Each class is shuffled once and dealt into ``k`` nearly equal chunks, so
    per-fold class counts differ from the global proportion by at most one
    example.  Fails if any class has fewer than ``k`` members.
    """
    if k < 2:
        raise DataError("k must be at least 2")
    fold_of = np.empty(dataset.n_examples, dtype=np.int64)
    for cls in (-1, 1):
        idx = list(np.flatnonzero(dataset.y == cls))
        if 0 < len(idx) < k:
            raise DataError(f"class {cls} has fewer than {k} examples")
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % k  # dealt round robin
    return [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(k)]


def make_blocks_dataset(
    m: int = 400, n: int = 4, seed: int = 0, nvpriv: int = 10
) -> Dataset:
    """Separable synthetic dataset realizable by a depth-2 tree.

    Features are uniform over the public grid; the label is +1 exactly when
    attribute 0 falls in its upper eight bins and attribute 1 in its upper
    six (an axis-aligned conjunction, close to class-balanced).  Remaining
    attributes are uninformative.
    """
    rng = RandomSource(seed)
    X = np.empty((m, n), dtype=np.int64, order="F")
    for i in range(m):
        for j in range(n):
            X[i, j] = rng.randint(nvpriv)
    y = np.where((X[:, 0] >= 2) & (X[:, 1] >= 4), 1, -1)
    domains = [AttributeDomain(f"x{j}", 0.0, float(nvpriv - 1), nvpriv) for j in range(n)]
    return Dataset(X, y, domains)
