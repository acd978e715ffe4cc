"""Differential privacy primitives.

Laplace and exponential mechanisms over a deterministic, platform-stable
random source, an additive privacy-budget accountant, and a brute-force
global-sensitivity oracle that enumerates all replacement neighbors of a
small dataset.

The random source is a splitmix64 stream: identical seeds produce bit
identical draws on every platform, and child streams can be forked from a
string or integer label so that adding work items never perturbs the
randomness of existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "BudgetExceededError",
    "BudgetAccountant",
    "RandomSource",
    "derive_seed",
    "laplace_from_uniform",
    "laplace_sample",
    "laplace_mechanism",
    "exponential_mechanism_probabilities",
    "exponential_mechanism",
    "replacement_neighbors",
    "brute_force_sensitivity",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_BUDGET_TOL = 1e-12


class BudgetExceededError(RuntimeError):
    """Raised when a mechanism would spend more budget than remains."""


def _splitmix64(state: int) -> tuple[int, int]:
    # One splitmix64 step: returns (new_state, output).
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(master_seed: int, *labels: int | str) -> int:
    """Fold labels into a master seed, splitmix-style.

    The derivation depends only on the label values, so extending a grid of
    work items leaves previously derived seeds untouched.
    """
    state = int(master_seed) & _MASK64
    for label in labels:
        data = label.encode("utf-8") if isinstance(label, str) else int(label).to_bytes(8, "little", signed=False)
        for byte in data:
            state, out = _splitmix64(state ^ byte)
            state ^= out
    _, out = _splitmix64(state)
    return out


@dataclass
class RandomSource:
    """Deterministic seeded stream of uniforms (splitmix64 core).

    Single-owner: do not share one instance across concurrent tasks; fork
    with :meth:`spawn` instead.
    """

    seed: int
    _state: int = field(init=False, repr=False)

    def __post_init__(self):
        self._state = int(self.seed) & _MASK64

    def next_uint64(self) -> int:
        self._state, out = _splitmix64(self._state)
        return out

    def uniform(self) -> float:
        """Uniform draw on the open interval (0, 1)."""
        return (self.next_uint64() >> 11 | 1) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)])

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            x = self.next_uint64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def spawn(self, *labels: int | str) -> "RandomSource":
        """Independent child stream addressed by the labels.

        Derived from the seed only, so it does not depend on how many
        draws were taken; equal labels give equal children.
        """
        return RandomSource(derive_seed(self.seed, "spawn", *labels))


@dataclass
class BudgetAccountant:
    """Ledger of epsilon spends under sequential composition.

    Every mechanism call records its spend; the running total may never
    exceed the configured budget (a hard error, not a clamp).
    """

    total_budget: float
    spends: list[tuple[str, float]] = field(default_factory=list)
    # Kahan running sum for the O(1) overspend gate; total_spent stays exact.
    _running: float = field(init=False, default=0.0, repr=False)
    _carry: float = field(init=False, default=0.0, repr=False)

    def __post_init__(self):
        if not (self.total_budget >= 0.0) or math.isinf(self.total_budget):
            raise ValueError("total_budget must be finite and non-negative")
        for _, eps in self.spends:
            self._accumulate(eps)

    def _accumulate(self, eps: float) -> None:
        y = eps - self._carry
        t = self._running + y
        self._carry = (t - self._running) - y
        self._running = t

    @property
    def total_spent(self) -> float:
        return math.fsum(eps for _, eps in self.spends)

    @property
    def remaining(self) -> float:
        return self.total_budget - self.total_spent

    def spend(self, label: str, epsilon: float) -> None:
        if not (epsilon > 0.0) or math.isinf(epsilon):
            raise ValueError("epsilon must be finite and positive")
        if self._running + epsilon > self.total_budget + _BUDGET_TOL:
            raise BudgetExceededError(
                f"spend {epsilon!r} for {label!r} exceeds remaining budget "
                f"{self.remaining!r} of {self.total_budget!r}"
            )
        self.spends.append((label, epsilon))
        self._accumulate(epsilon)


def laplace_from_uniform(u: float, scale: float) -> float:
    """Inverse-CDF transform: ``u`` uniform on (-1/2, 1/2) to Laplace(scale)."""
    return -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


def laplace_sample(rng: RandomSource, scale: float) -> float:
    """One draw from the Laplace distribution with the given scale."""
    if not (scale > 0.0) or math.isinf(scale):
        raise ValueError("scale must be finite and positive")
    return laplace_from_uniform(rng.uniform() - 0.5, scale)


def laplace_mechanism(
    value: float,
    sensitivity: float,
    epsilon: float,
    accountant: BudgetAccountant,
    rng: RandomSource,
    label: str = "laplace",
) -> float:
    """Release ``value`` with Laplace noise of scale sensitivity/epsilon."""
    if not (sensitivity > 0.0) or math.isinf(sensitivity):
        raise ValueError("sensitivity must be finite and positive")
    if not (epsilon > 0.0) or math.isinf(epsilon):
        raise ValueError("epsilon must be finite and positive")
    accountant.spend(label, epsilon)
    return value + laplace_sample(rng, sensitivity / epsilon)


def exponential_mechanism_probabilities(
    utilities: Sequence[float], sensitivity: float, epsilon: float
) -> np.ndarray:
    """Exact selection probabilities, proportional to exp(eps u / (2 sens)).

    Computed in log space with max subtraction so extreme scores stay
    finite.  Exposed separately from the sampler so privacy-ratio tests can
    inspect the exact vector.
    """
    u = np.asarray(utilities, dtype=float)
    if u.size == 0:
        raise ValueError("utilities must be non-empty")
    if not np.all(np.isfinite(u)):
        raise ValueError("utilities must be finite")
    if not (sensitivity > 0.0) or math.isinf(sensitivity):
        raise ValueError("sensitivity must be finite and positive")
    if not (epsilon > 0.0) or math.isinf(epsilon):
        raise ValueError("epsilon must be finite and positive")
    scores = epsilon * u / (2.0 * sensitivity)
    scores -= scores.max()
    w = np.exp(scores)
    return w / w.sum()


def exponential_mechanism(
    utilities: Sequence[float],
    sensitivity: float,
    epsilon: float,
    accountant: BudgetAccountant,
    rng: RandomSource,
    label: str = "exponential",
) -> int:
    """Sample an index with probability exp(eps u_i / (2 sens)) / Z.

    Rounding can leave ``cdf[-1]`` below a draw close to 1; such a draw
    selects the last index of positive probability.
    """
    probs = exponential_mechanism_probabilities(utilities, sensitivity, epsilon)
    accountant.spend(label, epsilon)
    u = rng.uniform()
    cdf = np.cumsum(probs)
    choice = int(np.searchsorted(cdf, u, side="right"))
    if choice == probs.size:
        choice = int(np.flatnonzero(probs)[-1])
    return choice


# --- brute-force sensitivity oracle -------------------------------------

MAX_ORACLE_EXAMPLES = 8

DEFAULT_WEIGHT_GRID = (0.25, 0.5, 1.0)
DEFAULT_LABELS = (-1, 1)


def replacement_neighbors(
    base,
    feature_grid: Sequence[Sequence[int]] | None = None,
    labels: Sequence[int] = DEFAULT_LABELS,
    weight_grid: Sequence[float] = DEFAULT_WEIGHT_GRID,
) -> Iterable:
    """Every dataset obtained by replacing one example of ``base``.

    The replacement ranges over a finite grid: each attribute's declared
    bins, both labels, and the weight grid, matching the bounded "differ by
    one example" neighbor relation.  Enumeration is exact, so ``base`` must
    be small (at most ``MAX_ORACLE_EXAMPLES`` examples).
    """
    import itertools

    from .dataset import Dataset

    if base.n_examples > MAX_ORACLE_EXAMPLES:
        raise ValueError(
            f"neighbor enumeration is limited to {MAX_ORACLE_EXAMPLES} examples"
        )
    if feature_grid is None:
        feature_grid = [range(dom.nvpriv) for dom in base.domains]
    for i in range(base.n_examples):
        for bins in itertools.product(*feature_grid):
            for y in labels:
                for w in weight_grid:
                    X = base.X.copy(order="F")
                    yy = base.y.copy()
                    ww = base.weights.copy()
                    X[i] = bins
                    yy[i] = y
                    ww[i] = w
                    yield Dataset(X, yy, base.domains, ww)


def brute_force_sensitivity(
    criterion: Callable[[object], float],
    base,
    neighbor_gen: Iterable | None = None,
) -> float:
    """Exact global sensitivity of ``criterion`` at ``base``.

    Maximizes ``|criterion(S') - criterion(S)|`` over every enumerated
    replacement neighbor ``S'``.  Independent of any closed-form bound; used
    to audit them.
    """
    if neighbor_gen is None:
        neighbor_gen = replacement_neighbors(base)
    ref = criterion(base)
    worst = 0.0
    for neighbor in neighbor_gen:
        delta = abs(criterion(neighbor) - ref)
        if delta > worst:
            worst = delta
    return worst
