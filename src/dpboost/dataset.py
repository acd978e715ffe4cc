"""Data ingestion, public-grid quantization, split candidates and CV folds.

Attribute domains (range and quantization level count) are public
knowledge: continuous values are snapped to a regular grid of ``nvpriv``
points spanning ``[lo, hi]`` (endpoints included), and the candidate-split
set is the data-independent collection of gaps between consecutive grid
points.  Labels are mapped to {-1, +1} at load time.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace

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

    def __post_init__(self):
        names = set()
        for dom in self.attributes:
            if dom.name in names:
                raise DataError(f"attribute {dom.name!r} is declared twice")
            names.add(dom.name)
        if self.label_column in names:
            raise DataError(f"label column {self.label_column!r} is also an attribute")
        if any(type(v) is not int or v not in (-1, 1) for v in self.label_map.values()):
            raise DataError(f"label_map targets must be -1 or +1: {self.label_map}")


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
    try:
        return DomainSpec(tuple(attributes), label_map, label_column)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_csv(path: str, label_column: str | None, spec: DomainSpec) -> Dataset:
    """Load a header-ed CSV and quantize it against the declared domains.

    Every declared attribute must be a column; labels are translated through
    the spec's label map (raw values already equal to -1/+1 pass through
    when no map is declared).  Out-of-domain values are clamped to the grid; a NaN
    value is a DataError that names its row.

    The file's lines form records: a record takes lines while its count of ``"`` is
    odd, and a blank line outside a quoted field is dropped.  The first record is the
    header.  numpy's C parser reads the data records a chunk at a time, and each chunk
    is quantized as it is read; if a chunk fails, its records are parsed one at a time
    and the first bad one is a DataError that names the file line it ends on.
    """
    spec = replace(spec, label_column=label_column or spec.label_column)  # DomainSpec checks it
    if spec.label_column is None:
        raise DataError("no label column declared")
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        number, header = next(_records(enumerate(fh, start=1)), (0, None))
        if header is None:
            raise DataError(f"{path}: missing header row")
        try:
            header = np.loadtxt([header], object, **_CSV).tolist()
        except ValueError as exc:
            raise DataError(f"{path}: header row: {exc}") from exc
        missing = [d.name for d in spec.attributes if d.name not in header]
        if missing:
            raise DataError(f"{path}: columns not found: {missing}")
        if spec.label_column not in header:
            raise DataError(f"{path}: label column {spec.label_column!r} not found")
        column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        usecols = [column[d.name] for d in spec.attributes] + [column[spec.label_column]]
        labels_of = {"-1": -1, "+1": 1, "1": 1, **spec.label_map}
        bins, labels = _read_data(path, fh, number, usecols, labels_of, spec.attributes)
    return Dataset(bins, labels, list(spec.attributes))


def _read_data(path, fh, number, usecols, labels_of, domains):
    """Bins and labels of the records after line ``number`` of ``fh``, a chunk at a
    time, by ``_parse``; a failing chunk's first bad record is a row-numbered DataError."""
    parts = []  # (bins, labels) of each chunk
    while chunk := list(itertools.islice(fh, _CHUNK_LINES)):
        text = "".join(chunk)
        if '"' in text and text.count('"') % 2:  # it ends in a quoted field: take its lines
            for line in fh:
                chunk.append(line)
                if line.count('"') % 2:
                    break
        del text  # _parse joins the lines again: one chunk's text is held at a time
        first, number = number + 1, number + len(chunk)
        if not any(line.strip("\r\n") for line in chunk):
            continue  # blank lines only, on which numpy warns
        try:
            parts.append(_parse(chunk, usecols, labels_of, domains))
        except ValueError:
            for end, record in _records(enumerate(chunk, start=first)):
                try:
                    _parse([record], usecols, labels_of, domains)
                except ValueError as exc:
                    reason = re.sub(r" at row \d+", "", str(exc))  # numpy's row in the record
                    raise DataError(f"{path}: row {end}: {reason}") from exc
            raise
        del chunk  # as the chunk's values: gone before the next chunk is read
    if not parts:
        raise DataError(f"{path}: no data rows")
    bins, labels = zip(*parts)
    # the transposes are row-major, so joining them gives column-major bins in one copy
    return np.concatenate([b.T for b in bins], axis=1).T, np.concatenate(labels)


_CHUNK_LINES = 8192  # data lines per C-parser call: a load holds one chunk's values at a time
_CSV = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 1}  # np.loadtxt's CSV

# a quoted field that starts and ends a field
_QUOTED_FIELD = re.compile(r'"(?<![^,\r\n]")(?:[^"]|"")*"(?![^,\r\n])')


def _records(lines):
    """(file line it ends on, text) of each record of ``lines``, (number, line) pairs:
    a record takes lines while its count of ``"`` is odd, and a blank line outside a
    quoted field is dropped."""
    record, quotes = "", 0
    for number, line in lines:
        record += line
        quotes += line.count('"')
        if quotes % 2 == 0:
            if record.strip("\r\n"):
                yield number, record
            record, quotes = "", 0
    if record:  # a quoted field the file leaves open
        yield number, record


def _parse(lines, usecols, labels_of, domains):
    """Bins and labels of ``lines``, whole records, by numpy's C parser (``usecols``:
    attributes, then the label); a ValueError that gives the reason if one is bad."""
    text = "".join(lines)
    if bad := [c for c in "\x1c\x1d\x1e\x1f" if c in text]:  # numpy's float parser strips them
        raise ValueError(f"a separator character {bad[0]!r}")
    if '"' in text and '"' in _QUOTED_FIELD.sub("", text):  # numpy reads it its own way
        raise ValueError("a quote outside a quoted field")
    del text
    rows = np.loadtxt(lines, [("x", float, (len(domains),)), ("y", object)], **_CSV,
                      usecols=usecols)
    bins = np.empty(rows.shape + (len(domains),), dtype=bin_dtype(domains), order="F")
    for j, dom in enumerate(domains):
        bins[:, j] = dom.quantize(rows["x"][:, j])
    raw = rows["y"].tolist()
    del rows
    mapped = {r: labels_of.get(r.strip()) for r in set(raw)}
    unknown = [r.strip() for r, label in mapped.items() if label is None]
    if unknown:
        raise ValueError(f"unknown label {unknown[0]!r}")
    return bins, np.fromiter(map(mapped.__getitem__, raw), np.int64, len(raw))


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
