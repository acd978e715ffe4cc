"""Experiment engine: grids, CV runs, summaries, comparisons, audits.

Configuration files are flat ``key = value`` text with comma-separated
lists for grid axes.  Results stream into a CSV with a fixed header; the
writer flushes per record and a rerun skips records already present, so
interrupted grids resume.  Randomness for each (cell, seed, fold) is
derived from the cell's coordinate string, never its position, so adding
grid cells leaves existing cells' draws untouched.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import (
    AttributeDomain,
    DataError,
    Dataset,
    DomainSpec,
    _parse_kv_lines,
    load_csv,
    parse_domain_spec,
    stratified_kfold,
)
from .ensemble import BoostedEnsemble, RandomForest, boost_fit, empirical_risk, rf_fit
from .losses import LossSpec, perspective_at, sensitivity_bound
from .privacy import (
    BudgetAccountant,
    RandomSource,
    brute_force_sensitivity,
    derive_seed,
    replacement_neighbors,
)
from .tree import TreeConfig, TreePrivacy, leaf_mask, node_depths, nodes_from_nested

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "read_fit_config",
    "fit_cell",
    "RESULT_COLUMNS",
    "AUDIT_COLUMNS",
    "run_experiment",
    "read_results",
    "summarize_cumulative",
    "CompareResult",
    "compare",
    "sensitivity_audit",
    "regularized_incomplete_beta",
    "students_t_test",
    "save_model",
    "load_model",
]


class ConfigError(ValueError):
    """Invalid experiment or model configuration."""


ALGORITHMS = ("boost", "rf_laplace", "rf_exponential")


def _checked(convert, ok, message: str, word: str | None = None):
    """A parser of one value: ``word`` stands for itself; any other token is
    converted and must be ``ok``, else ConfigError(message.format(value))."""
    def parse(token: str):
        if token == word:
            return word
        value = convert(token)
        if not ok(value):
            raise ConfigError(message.format(value))
        return value
    return parse


def _float_named(key: str):
    def convert(token: str) -> float:
        try:
            return float(token)
        except ValueError as exc:
            raise ConfigError(f"bad {key} {token!r}") from exc
    return convert


# The grid's axes in result-column order: key -> (parser of one value, default).
# A blank nvpriv keeps the domains file's grid.
GRID_KEYS = {
    "algorithm": (_checked(str, lambda a: a in ALGORITHMS, "unknown algorithm {!r}"), "boost"),
    "T": (_checked(int, lambda t: t >= 1, "T and depth must be >= 1"), 10),
    "depth": (_checked(int, lambda d: d >= 1, "T and depth must be >= 1"), 2),
    "alpha": (_checked(_float_named("alpha"), lambda a: 0.0 <= a <= 1.0,
                       "alpha {} outside [0, 1]", word="oc"), "oc"),
    "epsilon": (_checked(_float_named("epsilon"), lambda e: e > 0.0,
                         "epsilon {} must be positive", word="off"), "off"),
    "beta_tree": (_checked(float, lambda b: 0.0 < b < 1.0, "beta_tree must lie in (0, 1)"), 0.5),
    "nvpriv": (_checked(int, lambda nv: nv >= 2, "nvpriv must be >= 2"), ""),
    "M": (_checked(float, lambda M: 0.0 < M < math.inf, "M must be positive and finite"), 10.0),
}
BOOSTING_ONLY = ("alpha", "beta_tree", "M")  # blank in a forest's cells
# Keys with one value for the whole grid, parsed the same way.
SCALAR_KEYS = {
    "k_folds": (_checked(int, lambda k: k >= 2, "k_folds must be >= 2"), 10),
    "lc_alpha": (_checked(float, lambda a: 0.0 <= a <= 1.0, "lc_alpha must lie in [0, 1]"), 1.0),
}

RESULT_COLUMNS = (
    *GRID_KEYS,
    "seed",
    "fold",
    "train_error",
    "test_error",
    "default_error",
    "leaves",
    "mean_depth",
    "spent_epsilon",
    "wall_time_s",
    "error",
)

AUDIT_COLUMNS = ("m", "alpha", "trial", "empirical_delta", "bound", "tight_case_delta")


def _parse_list(value: str, convert) -> tuple:
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"empty list value {value!r}")
    return tuple(convert(v) for v in items)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated grid over algorithms and their parameters; ``grid`` maps each
    of ``GRID_KEYS`` to its values.  Build one with ``from_mapping``."""

    data: str
    domains: str
    grid: dict
    seeds: tuple
    k_folds: int
    lc_alpha: float

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        return ExperimentConfig.from_mapping(_read_config(path), origin=path)

    @staticmethod
    def from_mapping(values: dict[str, str], origin: str = "<config>") -> "ExperimentConfig":
        unknown = set(values) - {"data", "domains", "seeds", *GRID_KEYS, *SCALAR_KEYS}
        if unknown:
            raise ConfigError(f"{origin}: unknown keys {sorted(unknown)}")
        for required in ("data", "domains"):
            if required not in values:
                raise ConfigError(f"{origin}: missing key {required!r}")
        try:
            return ExperimentConfig(
                data=values["data"],
                domains=values["domains"],
                grid={
                    key: _parse_list(values[key], parse) if key in values else (default,)
                    for key, (parse, default) in GRID_KEYS.items()
                },
                seeds=_parse_list(values.get("seeds", "0"), int),
                **{
                    key: parse(values[key]) if key in values else default
                    for key, (parse, default) in SCALAR_KEYS.items()
                },
            )
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{origin}: {exc}") from exc

    def cells(self) -> list[dict]:
        """The deduplicated grid: one dict of coordinates per cell.

        The boosting-only parameters (alpha, beta_tree and M) are blanked
        for forests, and the resulting duplicates dropped.
        """
        seen = set()
        out = []
        for values in itertools.product(*(self.grid[key] for key in GRID_KEYS)):
            cell = dict(zip(GRID_KEYS, values))
            if cell["algorithm"] != "boost":
                if cell["epsilon"] == "off":
                    continue  # the forest baselines are DP-only
                cell.update(dict.fromkeys(BOOSTING_ONLY, ""))
            key = cell_key(cell)
            if key not in seen:
                seen.add(key)
                out.append(cell)
        return out


def _read_config(path: str) -> dict[str, str]:
    try:
        entries = _parse_kv_lines(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    values: dict[str, str] = {}
    for lineno, key, value in entries:
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def read_fit_config(path: str) -> tuple[dict, float]:
    """The one grid cell a ``dpboost fit`` config names, and its ``lc_alpha``.

    A fit config takes the grid keys with one value each; the keys that
    place a grid on data (data, domains, nvpriv, k_folds, seeds) are
    rejected.
    """
    values = _read_config(path)
    grid_only = sorted(set(values) & {"data", "domains", "nvpriv", "k_folds", "seeds"})
    if grid_only:
        raise ConfigError(f"{path}: keys {grid_only} do not apply to a fit")
    lists = sorted(key for key, value in values.items() if "," in value)
    if lists:
        raise ConfigError(f"{path}: keys {lists} take one value in a fit")
    # data and domains come from the command line, not from the config
    config = ExperimentConfig.from_mapping({**values, "data": "", "domains": ""}, origin=path)
    cells = config.cells()
    if not cells:
        raise ConfigError(f"{path}: forest baselines require a finite epsilon")
    return cells[0], config.lc_alpha


def cell_key(cell: dict) -> str:
    return "|".join(f"{k}={cell[k]}" for k in sorted(cell))


def _load_for_nvpriv(config: ExperimentConfig, nvpriv) -> Dataset:
    spec = parse_domain_spec(config.domains)
    if nvpriv != "":  # re-quantize every attribute to nvpriv levels
        attributes = tuple(replace(dom, nvpriv=nvpriv) for dom in spec.attributes)
        spec = replace(spec, attributes=attributes)
    return load_csv(config.data, spec.label_column, spec)


def fit_cell(cell: dict, train: Dataset, lc_alpha: float, run_seed: int):
    """Train one model; returns (model, spent_epsilon)."""
    rng = RandomSource(run_seed)
    eps = cell["epsilon"]
    accountant = BudgetAccountant(0.0 if eps == "off" else float(eps))
    if cell["algorithm"] == "boost":
        privacy = None if eps == "off" else TreePrivacy(
            epsilon=float(eps),
            beta_tree=float(cell["beta_tree"]),
            output_bound=float(cell["M"]),
            ensemble_size=cell["T"],
        )
        tree_config = TreeConfig(depth=cell["depth"], alpha=cell["alpha"], privacy=privacy)
        model = boost_fit(
            train, cell["T"], tree_config, lc_alpha=lc_alpha, output_bound=float(cell["M"]),
            accountant=accountant, rng=rng,
        )
    else:
        mechanism = "laplace" if cell["algorithm"] == "rf_laplace" else "exponential"
        model = rf_fit(train, cell["T"], cell["depth"], float(eps), mechanism, accountant, rng)
    return model, accountant.total_spent


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_key(row: dict) -> tuple:
    return tuple(_format(row[k]) for k in (*GRID_KEYS, "seed", "fold"))


def run_experiment(config: ExperimentConfig, out_path: str) -> int:
    """Run every (cell, seed, fold) and append records to ``out_path``.

    Deterministic given the config's seeds; records stored without an
    ``error`` are skipped on rerun.  Per-record failures land in the
    ``error`` column and the run continues; a rerun retries them and
    appends a new record, leaving the failed one in place.  Returns the
    number of records written.

    Each nvpriv's dataset is loaded once, and each seed's folds are built
    once and kept for the whole call: k x m int64 indices per seed.
    """
    write_header = not os.path.exists(out_path) or os.path.getsize(out_path) == 0
    done = set() if write_header else {
        _record_key(row) for row in read_results(out_path) if not row["error"]
    }
    datasets: dict = {}  # nvpriv -> Dataset
    folds: dict = {}  # seed -> [(train_idx, test_idx)] * k_folds
    written = 0
    with open(out_path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(RESULT_COLUMNS)
            fh.flush()
        elif not Path(out_path).read_bytes().endswith(b"\n"):  # a torn last record
            fh.write("\r\n")
        for cell, seed, fold in itertools.product(
            config.cells(), config.seeds, range(config.k_folds)
        ):
            record = dict.fromkeys(RESULT_COLUMNS, "")
            record.update(cell, seed=seed, fold=fold)
            if _record_key(record) in done:
                continue
            start = time.perf_counter()
            try:
                if cell["nvpriv"] not in datasets:
                    datasets[cell["nvpriv"]] = _load_for_nvpriv(config, cell["nvpriv"])
                dataset = datasets[cell["nvpriv"]]
                if seed not in folds:  # the folds depend on the labels only
                    fold_rng = RandomSource(derive_seed(seed, "folds", config.k_folds))
                    folds[seed] = stratified_kfold(dataset, config.k_folds, fold_rng)
                train_idx, test_idx = folds[seed][fold]
                train, test = dataset.subset(train_idx), dataset.subset(test_idx)
                model, spent = fit_cell(
                    cell, train, config.lc_alpha, derive_seed(seed, cell_key(cell), fold)
                )
                pos_frac = float(np.mean(test.y == 1))
                if isinstance(model, BoostedEnsemble):
                    depths = np.concatenate(
                        [node_depths(t.child)[leaf_mask(t.child)] for t in model.trees]
                    )
                    leaves, mean_depth = depths.size, float(np.mean(depths))
                else:  # complete trees of one depth
                    leaves = int(np.count_nonzero(leaf_mask(model.child)))
                    mean_depth = float(model.depth)
                # an exact training error is no private release; boosting traced its own
                if cell["epsilon"] == "off":
                    record["train_error"] = model.traces.train_error[-1]
                record.update(
                    test_error=empirical_risk(model, test),
                    default_error=min(pos_frac, 1.0 - pos_frac),
                    leaves=leaves,
                    mean_depth=mean_depth,
                    spent_epsilon=spent,
                )
            except Exception as exc:  # recorded, run continues
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["wall_time_s"] = time.perf_counter() - start
            writer.writerow([_format(record[c]) for c in RESULT_COLUMNS])
            fh.flush()
            written += 1
    return written


def read_results(path: str) -> list[dict]:
    """Load a results CSV, failing loudly on header drift; a row that lacks a
    column, torn by an interrupted write, is left out, so a rerun rewrites it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != RESULT_COLUMNS:
            raise ConfigError(f"{path}: unexpected results header {reader.fieldnames}")
        return [row for row in reader if None not in row.values()]


def _valid_groups(rows: list[dict], columns: tuple[str, ...]) -> dict[tuple, list[dict]]:
    """Rows without an error and with a test error, grouped by result ``columns``."""
    unknown = [c for c in columns if c not in RESULT_COLUMNS]
    if unknown:
        raise ConfigError(f"unknown group-by columns {unknown}")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if not row.get("error") and row.get("test_error") not in ("", None):
            groups.setdefault(tuple(row[k] for k in columns), []).append(row)
    return groups


def summarize_cumulative(rows: list[dict], group_by: tuple[str, ...]) -> list[dict]:
    """Cumulative test-error curves per group.

    For each group: the sorted distinct test errors with the percentage of
    the group's runs at or below each, plus the group's mean default-class
    error as a reference.
    """
    if not rows:
        raise ConfigError("no results to summarize")
    groups = _valid_groups(rows, group_by)
    if not groups:
        warnings.warn("all rows carry errors; nothing to summarize")
        return []
    out = []
    for key in sorted(groups):
        members = groups[key]
        errors = sorted(float(r["test_error"]) for r in members)
        default_mean = float(np.mean([float(r["default_error"]) for r in members]))
        n = len(errors)
        for value in sorted(set(errors)):
            below = sum(1 for e in errors if e <= value)
            record = dict(zip(group_by, key))
            record.update(
                test_error=value,
                cumulative_pct=100.0 * below / n,
                default_error_mean=default_mean,
            )
            out.append(record)
    return out


# --- Student's t machinery (no stats dependency) --------------------------


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (Lentz's method).
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def students_t_test(sample_a, sample_b) -> tuple[float, float]:
    """Two-sided unpaired pooled-variance t test: (statistic, p value)."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two observations")
    na, nb = a.size, b.size
    df = na + nb - 2
    pooled = ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / df
    se = math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    diff = float(a.mean() - b.mean())
    if se == 0.0:
        return (0.0, 1.0) if diff == 0.0 else (math.copysign(math.inf, diff), 0.0)
    t = diff / se
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return t, p


@dataclass
class CompareResult:
    cells_total: int
    cells_significant: int
    a_wins: int
    b_wins: int
    a_win_percent: float
    per_cell: list[dict] = field(default_factory=list)


def compare(
    rows_a: list[dict],
    rows_b: list[dict],
    p_threshold: float = 0.01,
    cell_columns: tuple[str, ...] = ("epsilon", "depth", "seed"),
) -> CompareResult:
    """Cell-wise significance comparison of two result sets.

    Rows are grouped by ``cell_columns`` (which must yield the same cell
    set on both sides); within a cell the fold test errors feed a
    two-sided pooled t test.  Wins are counted among significant cells
    only, by lower mean error; ``p_threshold`` must lie in (0, 1).
    """
    if not 0.0 < p_threshold < 1.0:  # NaN fails too
        raise ConfigError(f"p threshold must lie in (0, 1), got {p_threshold}")
    groups_a, groups_b = _valid_groups(rows_a, cell_columns), _valid_groups(rows_b, cell_columns)
    if not groups_a or set(groups_a) != set(groups_b):
        only_a = sorted(set(groups_a) - set(groups_b))
        only_b = sorted(set(groups_b) - set(groups_a))
        raise ConfigError(
            f"result grids do not match on {cell_columns}: "
            f"only in a: {only_a[:5]}, only in b: {only_b[:5]}"
        )
    significant = a_wins = b_wins = 0
    per_cell = []
    for key in sorted(groups_a):
        a, b = ([float(r["test_error"]) for r in groups[key]] for groups in (groups_a, groups_b))
        t, p = students_t_test(a, b)
        is_significant = p < p_threshold
        winner = ""
        if is_significant:
            significant += 1
            if float(np.mean(a)) < float(np.mean(b)):
                a_wins += 1
                winner = "a"
            else:
                b_wins += 1
                winner = "b"
        per_cell.append(dict(zip(cell_columns, key), t=t, p=p, winner=winner))
    pct = 100.0 * a_wins / significant if significant else 0.0
    return CompareResult(len(groups_a), significant, a_wins, b_wins, pct, per_cell)


# --- sensitivity audit -----------------------------------------------------


def _leaf_criterion(alpha: float, threshold_bin: int):
    """Per-leaf risk f(S) = perspective_at(w1, w) = w * bayes_risk(w1 / w) on a public leaf.

    The leaf is the region "attribute 0 bin <= threshold_bin", so a
    replacement can move an example in or out of it.
    """
    spec = LossSpec.malpha(alpha)

    def criterion(dataset: Dataset) -> float:
        member = dataset.X[:, 0] <= threshold_bin
        w = float(dataset.weights[member].sum())
        w1 = float(dataset.weights[member & (dataset.y == 1)].sum())
        return perspective_at(spec, w1, w)

    return criterion


def tight_case_delta(m: int, alpha: float) -> float:
    """Criterion change for the lone-positive label flip on unit weights.

    All ``m`` examples sit in the audited leaf; exactly one is positive and
    the neighbor flips it.  Evaluated from the two datasets, not from a
    formula.
    """
    domains = [AttributeDomain("x0", 0.0, 3.0, 4)]
    X = np.zeros((m, 1), dtype=int)
    y = np.full(m, -1)
    y[0] = 1
    base = Dataset(X, y, domains)
    flipped = Dataset(X, np.full(m, -1), domains)
    criterion = _leaf_criterion(alpha, threshold_bin=2)
    return abs(criterion(flipped) - criterion(base))


def sensitivity_audit(
    m_values=(2, 3, 4, 5, 6, 7, 8),
    alphas=(0.0, 0.3, 1.0),
    trials: int = 10,
    seed: int = 0,
    nvpriv: int = 4,
) -> list[dict]:
    """Brute-force the leaf-criterion sensitivity against its closed bound.

    One row per (m, alpha, trial): the exact maximum over all replacement
    neighbors of a random dataset, the closed-form bound, and the
    lone-positive-flip value for that (m, alpha).
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    weight_grid = (0.25, 0.5, 1.0)
    rows = []
    for m in m_values:
        for alpha in alphas:
            tight = tight_case_delta(m, alpha)
            bound = sensitivity_bound(LossSpec.malpha(alpha), m)
            for trial in range(trials):
                rng = RandomSource(derive_seed(seed, "audit", m, repr(alpha), trial))
                domains = [AttributeDomain("x0", 0.0, float(nvpriv - 1), nvpriv)]
                X = [[rng.randint(nvpriv)] for _ in range(m)]
                y = np.array([1 if rng.uniform() < 0.5 else -1 for _ in range(m)])
                w = np.array([weight_grid[rng.randint(len(weight_grid))] for _ in range(m)])
                base = Dataset(X, y, domains, w)
                criterion = _leaf_criterion(alpha, threshold_bin=rng.randint(nvpriv - 1))
                delta = brute_force_sensitivity(
                    criterion, base, replacement_neighbors(base, weight_grid=weight_grid)
                )
                rows.append(
                    {
                        "m": m,
                        "alpha": alpha,
                        "trial": trial,
                        "empirical_delta": delta,
                        "bound": bound,
                        "tight_case_delta": tight,
                    }
                )
    return rows


def write_csv(path: str, rows: list[dict], columns: tuple[str, ...]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format(row.get(c, "")) for c in columns])


# --- model persistence -----------------------------------------------------

MODEL_FORMAT = "dpboost-model"
MODEL_VERSION = 3  # load_model still reads versions 1 and 2, which nested each tree's nodes
MODEL_CLASSES = {"boost": BoostedEnsemble, "forest": RandomForest}


def save_model(path: str, model, spec: DomainSpec) -> None:
    """Serialize a fitted model plus the public domains it expects.

    The file appears whole or not at all: it is written next to ``path`` and moved
    into place.
    """
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "model": model.to_dict(),
        "domains": [
            {"name": d.name, "lo": d.lo, "hi": d.hi, "nvpriv": d.nvpriv}
            for d in spec.attributes
        ],
        "label_map": spec.label_map,
        "label_column": spec.label_column,
    }
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    part = f"{path}.{os.getpid()}.part"
    fh = open(part, "x", encoding="utf-8")  # a new file, never another one's
    try:
        with fh:
            fh.write(text)
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


def load_model(path: str):
    """Inverse of :func:`save_model` for version 1, 2 and 3 files; returns (model, DomainSpec).

    A released value that no fit can produce is a ``ConfigError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read model {path}: {exc}") from exc
    try:
        version = payload.get("version")
        if payload.get("format") != MODEL_FORMAT or type(version) is not int or not (
                1 <= version <= MODEL_VERSION):
            raise ConfigError(f"{path}: not a version-1, 2 or 3 {MODEL_FORMAT} file")
        spec = DomainSpec(
            tuple(
                AttributeDomain(d["name"], float(d["lo"]), float(d["hi"]), int(d["nvpriv"]))
                for d in payload["domains"]
            ),
            dict(payload["label_map"]),
            payload.get("label_column"),
        )
        if any(type(v) is not int or v not in (-1, 1) for v in spec.label_map.values()):
            raise ConfigError(f"{path}: label_map targets must be -1 or +1: {spec.label_map}")
        data = payload["model"]
        if data["kind"] not in MODEL_CLASSES:
            raise ConfigError(f"{path}: unknown model kind {data['kind']!r}")
        if version < MODEL_VERSION:  # nested trees, a boosted one's under "root"
            boost = data["kind"] == "boost"
            data = {**data, "trees": [nodes_from_nested(tree["root"] if boost else tree)
                                      for tree in data["trees"]]}
        model = MODEL_CLASSES[data["kind"]].from_dict(data)
        forest = isinstance(model, RandomForest)
        # a forest leaf releases a vote, a boosted leaf any finite value
        leaf_ok = (lambda v: v in (-1.0, 1.0)) if forest else math.isfinite
        for tree in [model] if forest else model.trees:
            leaf = leaf_mask(tree.child)
            for v in tree.value[leaf].tolist():
                if not leaf_ok(v):
                    raise ConfigError(f"{path}: {data['kind']} leaf prediction {v}")
            for j, b in zip(tree.attribute[~leaf].tolist(), tree.threshold_bin[~leaf].tolist()):
                if not (0 <= j < len(spec.attributes) and 0 <= b < spec.attributes[j].nvpriv - 1):
                    raise ConfigError(
                        f"{path}: split on attribute {j} at bin {b} outside the domains"
                    )
        return model, spec
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad value: {exc}") from exc
