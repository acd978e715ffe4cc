"""Differential privacy primitives.

Laplace and exponential mechanisms, a deterministic, platform-stable random
source, an additive privacy-budget accountant, and a brute-force
global-sensitivity oracle that enumerates all replacement neighbors of a
small dataset.  Every budgeted release goes through a mechanism, which spends
for it and turns the uniforms its caller drew into the output.

The random source is a splitmix64 stream: identical seeds produce bit
identical draws on every platform, and child streams can be forked from a
string or integer label so that adding work items never perturbs the
randomness of existing ones.
"""

from __future__ import annotations

import functools
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
        state = _fold(state, label)
    _, out = _splitmix64(state)
    return out


@functools.lru_cache(maxsize=1024)
def _fold(state: int, label: int | str) -> int:
    """The state after folding one label's bytes into ``state``.  Cached: a seed's shared
    prefix (a spawn's ``"spawn"`` and its name, a grid cell's key) is folded once."""
    data = label.encode("utf-8") if isinstance(label, str) else int(label).to_bytes(8, "little", signed=False)
    for byte in data:
        state, out = _splitmix64(state ^ byte)
        state ^= out
    return state


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
        """``n`` calls of :meth:`uniform` at once, bit for bit, leaving the same state:
        splitmix64's ``k``-th state is the seed plus ``k`` golden increments, so the
        steps run side by side in wrapping ``uint64`` arithmetic.  Fewer than 16 draws
        are made one by one, which is faster there than a dozen small array steps."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n < 16:
            return np.array([self.uniform() for _ in range(n)])
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return ((z >> np.uint64(11)) | np.uint64(1)) * 2.0**-53

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


def laplace_mechanism(
    values,
    sensitivity: float,
    epsilon: float,
    accountant: BudgetAccountant,
    u,
    label: str = "laplace",
):
    """Release ``values`` with Laplace noise of scale sensitivity / epsilon.

    ``u`` holds one uniform draw on (0, 1) per value.  The last axis is one release of
    L1 sensitivity ``sensitivity``, and each release along the leading axes gets its own
    ledger entry; a scalar is one release.
    """
    values, u = np.asarray(values, dtype=float), np.asarray(u, dtype=float)
    if u.shape != values.shape:
        raise ValueError("u must hold one uniform per value")
    if not (epsilon > 0.0) or math.isinf(epsilon):
        raise ValueError("epsilon must be finite and positive")
    scale = sensitivity / epsilon
    if not (sensitivity > 0.0 and scale > 0.0) or math.isinf(scale):
        raise ValueError("sensitivity and sensitivity / epsilon must be finite and positive")
    for _ in range(math.prod(values.shape[:-1])):
        accountant.spend(label, epsilon)
    noise = [laplace_from_uniform(x - 0.5, scale) for x in u.ravel().tolist()]
    return values + np.reshape(noise, u.shape)


def exponential_mechanism_probabilities(
    utilities: Sequence[float] | np.ndarray, sensitivity: float, epsilon: float
) -> np.ndarray:
    """Exact selection probabilities, proportional to exp(eps u / (2 sens)).

    The last axis holds the candidates; leading axes are a batch, and each
    row is normalized on its own with the operations of a 1-D call, so every
    row equals that call bit for bit.  Every row must be non-empty, with finite
    scores ``eps u / (2 sens)``.  Computed in log space with max subtraction so
    extreme scores stay finite.  Exposed separately from the sampler so
    privacy-ratio tests can inspect the exact vector.
    """
    u = np.asarray(utilities, dtype=float)
    if u.ndim == 0 or u.size == 0:
        raise ValueError("utilities must be non-empty")
    if not (sensitivity > 0.0) or math.isinf(sensitivity):
        raise ValueError("sensitivity must be finite and positive")
    if not (epsilon > 0.0) or math.isinf(epsilon):
        raise ValueError("epsilon must be finite and positive")
    scores = epsilon * u / (2.0 * sensitivity)
    if not np.isfinite(scores).all():
        raise ValueError("utilities and their scores must be finite")
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    return w / w.sum(axis=-1, keepdims=True)


def exponential_mechanism(
    utilities: Sequence[float] | np.ndarray,
    sensitivity: float,
    epsilon: float,
    accountant: BudgetAccountant,
    u,
    label: str = "exponential",
):
    """Select an index with probability exp(eps u_i / (2 sens)) / Z, by the uniform ``u``.

    The last axis of ``utilities`` holds a release's candidates, and ``u`` one uniform on
    (0, 1) per release; each release gets a ledger entry, and 1-D utilities give an ``int``.
    """
    probs = exponential_mechanism_probabilities(utilities, sensitivity, epsilon)
    if np.shape(u) != probs.shape[:-1]:
        raise ValueError("u must hold one uniform per release")
    for _ in range(math.prod(probs.shape[:-1])):
        accountant.spend(label, epsilon)
    return _sample_index(probs, u)


def _sample_index(probs: np.ndarray, u):
    """The index whose cdf interval holds the uniform draw ``u``, per row of ``probs``
    (its last axis; ``u`` has the shape of the other axes).  Rounding can leave
    ``cdf[-1]`` below a draw close to 1, which selects the row's last positive entry."""
    cdf = np.cumsum(probs, axis=-1)
    if probs.ndim == 1:  # one row: a binary search, with no array bookkeeping
        choice = int(np.searchsorted(cdf, u, side="right"))
        return choice if choice < probs.size else int(np.flatnonzero(probs)[-1])
    choice = (cdf <= u[..., None]).sum(axis=-1)  # each row's searchsorted, side="right"
    past = choice == probs.shape[-1]
    if past.any():
        choice[past] = probs.shape[-1] - 1 - np.argmax(probs[past][:, ::-1] > 0.0, axis=-1)
    return choice


# --- brute-force sensitivity oracle -------------------------------------

MAX_ORACLE_EXAMPLES = 8

DEFAULT_WEIGHT_GRID = (0.25, 0.5, 1.0)


def replacement_neighbors(
    base, weight_grid: Sequence[float] = DEFAULT_WEIGHT_GRID
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
    for i in range(base.n_examples):
        for bins in itertools.product(*(range(dom.nvpriv) for dom in base.domains)):
            for y in (-1, 1):
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
