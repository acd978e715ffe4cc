"""Data ingestion, public-grid quantization, split candidates and CV folds.

Attribute domains (range and quantization level count) are public
knowledge: continuous values are snapped to a regular grid of ``nvpriv``
points spanning ``[lo, hi]`` (endpoints included), and the candidate-split
set is the data-independent collection of gaps between consecutive grid
points.  Labels are mapped to {-1, +1} at load time.
"""

from __future__ import annotations

import csv
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
        if self.nvpriv < 2:
            raise DataError(f"attribute {self.name!r}: nvpriv must be >= 2")

    def grid(self) -> np.ndarray:
        return self.lo + np.arange(self.nvpriv) * (self.hi - self.lo) / (self.nvpriv - 1)

    def quantize(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Snap values to nearest grid index, ties to the lower index.

        Out-of-range values are clamped; the count of clamped entries is
        returned alongside the bin indices.
        """
        v = np.asarray(values, dtype=float)
        clamped_count = int(np.sum((v < self.lo) | (v > self.hi)))
        v = np.clip(v, self.lo, self.hi)
        step = (self.hi - self.lo) / (self.nvpriv - 1)
        lower = np.floor((v - self.lo) / step).astype(np.int64)
        lower = np.clip(lower, 0, self.nvpriv - 2)
        grid_lo = self.lo + lower * step
        grid_hi = self.lo + (lower + 1) * step
        take_upper = (grid_hi - v) < (v - grid_lo)
        return lower + take_upper.astype(np.int64), clamped_count


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


@dataclass
class Dataset:
    """Quantized feature matrix with +-1 labels and per-example weights.

    ``X`` is stored column-major (Fortran order, int64): tree induction
    reads it one attribute at a time, and each column is then contiguous.
    """

    X: np.ndarray  # (m, n) int bin indices, column-major
    y: np.ndarray  # (m,) labels in {-1, +1}
    domains: list[AttributeDomain]
    weights: np.ndarray | None = None
    clamp_warnings: int = 0

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.int64, order="F")
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] == 0:
            raise DataError("dataset needs at least one example")
        if self.X.shape[1] != len(self.domains):
            raise DataError("feature count does not match declared domains")
        if not np.all(np.isin(self.y, (-1, 1))):
            raise DataError("labels must be -1 or +1")
        for j, dom in enumerate(self.domains):
            col = self.X[:, j]
            if col.min() < 0 or col.max() >= dom.nvpriv:
                raise DataError(f"attribute {dom.name!r}: bin index out of range")
        if self.weights is None:
            self.weights = np.ones(self.X.shape[0])
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (self.X.shape[0],):
                raise DataError("weights must have one entry per example")
            if np.any(self.weights <= 0.0) or np.any(self.weights > 1.0):
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
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
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
    when no map is declared).  Out-of-domain values are clamped to the grid
    and counted in ``clamp_warnings``.
    """
    label_column = label_column or spec.label_column
    if label_column is None:
        raise DataError("no label column declared")
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: missing header row")
        missing = [d.name for d in spec.attributes if d.name not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: columns not found: {missing}")
        if label_column not in reader.fieldnames:
            raise DataError(f"{path}: label column {label_column!r} not found")
        raw_features: list[list[float]] = []
        labels: list[int] = []
        for rownum, row in enumerate(reader, start=2):
            try:
                raw_features.append([float(row[d.name]) for d in spec.attributes])
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: row {rownum}: {exc}") from exc
            raw_label = (row[label_column] or "").strip()
            if raw_label in spec.label_map:
                labels.append(spec.label_map[raw_label])
            elif raw_label in ("-1", "+1", "1"):
                labels.append(1 if raw_label in ("+1", "1") else -1)
            else:
                raise DataError(f"{path}: row {rownum}: unknown label {raw_label!r}")
    if not labels:
        raise DataError(f"{path}: no data rows")
    values = np.asarray(raw_features, dtype=float)
    bins = np.empty(values.shape, dtype=np.int64, order="F")
    clamped = 0
    for j, dom in enumerate(spec.attributes):
        bins[:, j], count = dom.quantize(values[:, j])
        clamped += count
    return Dataset(bins, np.asarray(labels), list(spec.attributes), clamp_warnings=clamped)


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
    per_class: list[list[int]] = []
    for cls in (-1, 1):
        idx = list(np.flatnonzero(dataset.y == cls))
        if 0 < len(idx) < k:
            raise DataError(f"class {cls} has fewer than {k} examples")
        rng.shuffle(idx)
        per_class.append(idx)
    test_sets: list[list[int]] = [[] for _ in range(k)]
    for idx in per_class:
        for pos, example in enumerate(idx):
            test_sets[pos % k].append(example)
    folds = []
    all_idx = np.arange(dataset.n_examples)
    for test in test_sets:
        test_arr = np.sort(np.asarray(test, dtype=np.int64))
        mask = np.ones(dataset.n_examples, dtype=bool)
        mask[test_arr] = False
        folds.append((all_idx[mask], test_arr))
    return folds


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
