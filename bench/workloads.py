"""The benchmark's three workloads, each driven through dpboost's public API.

A workload writes its inputs from the seed (untimed), loads them through
dpboost (timed as set-up), and then runs a fixed pass of steps that the
runner repeats until the measuring time is used.  Every step checks what
the program released and hashes it, so repeated steps and the traced run
can be compared bit for bit.

Why these three: ``cv_grid`` is the paper's workflow (cross-validated
private boosting against DP forests), where per-record harness, dataset
and privacy work dominates; ``deep_private`` is a deep private fit, where
per-split Bayes-risk bookkeeping and the mechanisms dominate; ``wide_fit``
is a large non-private fit, where histogram construction, tree
application and CSV load dominate and the privacy layer is idle.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BUDGET_TOL = 1e-12  # the accountant's own overspend tolerance


@dataclass
class Step:
    """Outcome of one step of a workload's pass."""

    record_s: list[float]
    attempted: int
    failed: int
    digest: str
    test_error: float
    extra: dict = field(default_factory=dict)  # printed figures: name -> (value, unit)


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _ledger_ok(accountant, epsilon: float, entries: int) -> bool:
    """The run spent exactly its budget, in exactly the scheduled entries."""
    return (
        abs(accountant.total_spent - epsilon) <= BUDGET_TOL
        and len(accountant.spends) == entries
    )


def _boost_entries(T: int, depth: int) -> int:
    # T (2^d - 1) split selections plus T 2^d leaf releases.
    return T * (2**depth - 1) + T * 2**depth


def _write_blocks_csv(path: Path, rng: np.random.Generator, m: int, n: int, nvpriv: int) -> None:
    """Blocks data: +1 exactly when x0 is in its upper eight bins and x1 in its upper six."""
    X = rng.integers(0, nvpriv, size=(m, n))
    y = (X[:, 0] >= 2) & (X[:, 1] >= 4)
    header = ",".join([f"x{j}" for j in range(n)] + ["y"])
    np.savetxt(path, np.column_stack([X, y]), fmt="%d", delimiter=",", header=header, comments="")


def _write_domains(path: Path, n: int, lo: float, hi: float, nvpriv: int) -> None:
    lines = ["label_column = y", "label_map = 0:-1, 1:+1"]
    lines += [f"attribute = x{j} {lo!r} {hi!r} {nvpriv}" for j in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Workload:
    """Interface the runner drives; subclasses override the hooks they need."""

    name = ""
    setup_reps = 9  # set-ups per run; the median is reported

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def generate(self) -> None:
        """Write this run's inputs from the seed (not timed)."""

    def load(self, dp) -> None:
        """Parse domains and load data through dpboost (timed as set-up)."""
        raise NotImplementedError

    def pass_length(self) -> int:
        """Number of steps in one pass of the fixed work."""
        return 1

    def step(self, dp, index: int) -> Step:
        raise NotImplementedError

    def verify(self, dp) -> tuple[int, int]:
        """Checks run once after timing: (attempted, failed)."""
        return 0, 0


class CvGrid(Workload):
    """run_experiment over a boosting cell and six DP-forest cells, 10 folds x seeds."""

    name = "cv_grid"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.m = 100 if tiny else 400
        self.n, self.nvpriv, self.k_folds = 4, 10, 10
        self.boost = dict(T=2, depth=2) if tiny else dict(T=10, depth=4)
        self.boost_epsilon = 1.0
        self.forest = dict(T=3, depth=1) if tiny else dict(T=21, depth=2)
        self.forest_epsilons = (0.1, 1.0) if tiny else (0.01, 0.1, 1.0)
        n_seeds = 1 if tiny else 5
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31, size=n_seeds)]
        self.data = workdir / "blocks.csv"
        self.domains = workdir / "blocks.domains"
        self.results = workdir / "results.csv"
        self.configs = (workdir / "boost.config", workdir / "forests.config")

    @property
    def expected_records(self) -> int:
        cells = 1 + 2 * len(self.forest_epsilons)
        return cells * len(self.seeds) * self.k_folds

    def generate(self) -> None:
        _write_blocks_csv(self.data, self.rng, self.m, self.n, self.nvpriv)
        _write_domains(self.domains, self.n, 0.0, float(self.nvpriv - 1), self.nvpriv)
        common = [
            f"data = {self.data}",
            f"domains = {self.domains}",
            f"k_folds = {self.k_folds}",
            "seeds = " + ", ".join(map(str, self.seeds)),
        ]
        boost = common + [
            "algorithm = boost",
            f"T = {self.boost['T']}",
            f"depth = {self.boost['depth']}",
            "alpha = oc",
            f"epsilon = {self.boost_epsilon!r}",
            "beta_tree = 0.5",
            "M = 10",
        ]
        forests = common + [
            "algorithm = rf_laplace, rf_exponential",
            f"T = {self.forest['T']}",
            f"depth = {self.forest['depth']}",
            "epsilon = " + ", ".join(repr(e) for e in self.forest_epsilons),
        ]
        for path, lines in zip(self.configs, (boost, forests)):
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def load(self, dp) -> None:
        spec = dp.parse_domain_spec(str(self.domains))
        self.dataset = dp.load_csv(str(self.data), None, spec)

    def step(self, dp, index: int) -> Step:
        harness = dp.harness
        self.results.unlink(missing_ok=True)
        for path in self.configs:
            harness.run_experiment(harness.ExperimentConfig.from_file(str(path)), str(self.results))
        rows = harness.read_results(str(self.results))
        harness.summarize_cumulative(rows, ("algorithm", "epsilon"))
        boost = [r for r in rows if r["algorithm"] == "boost"]
        for algorithm in ("rf_laplace", "rf_exponential"):
            rivals = [
                r for r in rows
                if r["algorithm"] == algorithm and float(r["epsilon"]) == self.boost_epsilon
            ]
            harness.compare(boost, rivals, cell_columns=("epsilon", "seed"))

        failed = max(0, self.expected_records - len(rows))
        errors = []
        for row in rows:
            ok = row["error"] == "" and row["test_error"] != ""
            if ok:
                test_error = float(row["test_error"])
                ok = (
                    0.0 <= test_error <= 1.0
                    and abs(float(row["spent_epsilon"]) - float(row["epsilon"])) <= BUDGET_TOL
                )
                errors.append(test_error)
            failed += not ok
        released = [c for c in harness.RESULT_COLUMNS if c != "wall_time_s"]
        text = "\n".join("|".join(row[c] for c in released) for row in rows)
        return Step(
            record_s=[float(r["wall_time_s"]) for r in rows],
            attempted=max(self.expected_records, len(rows)),
            failed=failed,
            digest=_sha256(text.encode("utf-8")),
            test_error=float(np.mean(errors)) if errors else math.nan,
        )

    def verify(self, dp) -> tuple[int, int]:
        """Ledger schedule of one fit per cell, on the loaded data."""
        failed = 0
        T, depth = self.boost["T"], self.boost["depth"]
        privacy = dp.TreePrivacy(self.boost_epsilon, 0.5, 10.0, T)
        accountant = dp.BudgetAccountant(self.boost_epsilon)
        dp.boost_fit(
            self.dataset, T, dp.TreeConfig(depth=depth, alpha="oc", privacy=privacy),
            accountant=accountant, rng=dp.RandomSource(self.seed),
        )
        failed += not _ledger_ok(accountant, self.boost_epsilon, _boost_entries(T, depth))
        T, depth = self.forest["T"], self.forest["depth"]
        for mechanism in ("laplace", "exponential"):
            for epsilon in self.forest_epsilons:
                accountant = dp.BudgetAccountant(epsilon)
                dp.rf_fit(self.dataset, T, depth, epsilon, mechanism, accountant,
                          dp.RandomSource(self.seed))
                failed += not _ledger_ok(accountant, epsilon, T * 2**depth)
        return 1 + 2 * len(self.forest_epsilons), failed


class DeepPrivate(Workload):
    """Private objective-calibrated boosting of deep trees on blocks data."""

    name = "deep_private"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.m, self.m_test = (100, 200) if tiny else (400, 2000)
        self.T, self.depth = (2, 3) if tiny else (10, 8)
        self.epsilon = 1.0
        n_fits = 2 if tiny else 6
        self.fit_seeds = [int(s) for s in self.rng.integers(0, 2**31, size=n_fits)]
        self.data_seeds = [int(s) for s in self.rng.integers(0, 2**31, size=2)]

    def load(self, dp) -> None:
        train_seed, test_seed = self.data_seeds
        self.train = dp.make_blocks_dataset(m=self.m, n=4, seed=train_seed)
        self.test = dp.make_blocks_dataset(m=self.m_test, n=4, seed=test_seed)

    def pass_length(self) -> int:
        return len(self.fit_seeds)

    def step(self, dp, index: int) -> Step:
        privacy = dp.TreePrivacy(self.epsilon, 0.5, 10.0, self.T)
        config = dp.TreeConfig(depth=self.depth, alpha="oc", privacy=privacy)
        accountant = dp.BudgetAccountant(self.epsilon)
        t0 = time.perf_counter()
        model = dp.boost_fit(
            self.train, self.T, config, accountant=accountant,
            rng=dp.RandomSource(self.fit_seeds[index]),
        )
        t1 = time.perf_counter()
        margins, labels = dp.predict(model, self.test.X)
        t2 = time.perf_counter()
        ok = _ledger_ok(accountant, self.epsilon, _boost_entries(self.T, self.depth))
        ok = ok and bool(np.all(np.isfinite(margins)))
        return Step(
            record_s=[t2 - t0],
            attempted=1,
            failed=int(not ok),
            digest=_sha256(np.asarray(model.betas, dtype=float).tobytes(), margins.tobytes()),
            test_error=float(np.mean(labels != self.test.y)),
            extra={"fit_s_p50": (t1 - t0, "s"),
                   "predict_rows_per_s": (margins.size / (t2 - t1), "rows/s")},
        )


class WideFit(Workload):
    """Non-private boosting on a large quantized CSV, then held-out prediction."""

    name = "wide_fit"
    setup_reps = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.m = 2_000 if tiny else 100_000
        self.n = 20
        self.nvpriv = 8 if tiny else 32
        self.T, self.depth = (3, 3) if tiny else (20, 6)
        self.paths = (workdir / "wide_train.csv", workdir / "wide_test.csv")
        self.domains = workdir / "wide.domains"

    def generate(self) -> None:
        # Two informative blocks, 10% label noise, 16 uninformative columns.
        header = ",".join([f"x{j}" for j in range(self.n)] + ["y"])
        for path in self.paths:
            X = self.rng.random((self.m, self.n))
            clean = ((X[:, 0] > 0.3) & (X[:, 1] < 0.7)) | (X[:, 2] + X[:, 3] > 1.4)
            y = clean ^ (self.rng.random(self.m) < 0.1)
            np.savetxt(path, np.column_stack([X, y]), fmt=["%.6f"] * self.n + ["%d"],
                       delimiter=",", header=header, comments="")
        _write_domains(self.domains, self.n, 0.0, 1.0, self.nvpriv)

    def load(self, dp) -> None:
        spec = dp.parse_domain_spec(str(self.domains))
        self.train, self.test = (dp.load_csv(str(p), None, spec) for p in self.paths)

    def step(self, dp, index: int) -> Step:
        t0 = time.perf_counter()
        model = dp.boost_fit(self.train, self.T, dp.TreeConfig(depth=self.depth, alpha="oc"))
        t1 = time.perf_counter()
        margins, labels = dp.predict(model, self.test.X)
        t2 = time.perf_counter()
        return Step(
            record_s=[t2 - t0],
            attempted=1,
            failed=int(not np.all(np.isfinite(margins))),
            digest=_sha256(np.asarray(model.betas, dtype=float).tobytes(), margins.tobytes()),
            test_error=float(np.mean(labels != self.test.y)),
            extra={"fit_s_p50": (t1 - t0, "s"),
                   "predict_rows_per_s": (margins.size / (t2 - t1), "rows/s")},
        )


WORKLOADS = {w.name: w for w in (CvGrid, DeepPrivate, WideFit)}
