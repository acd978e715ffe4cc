"""Pointwise loss machinery for proper symmetric losses.

Implements the Bayes risk family used to grow trees and leverage ensembles:
the tunable ``malpha`` family (convex combination of the Matsushita and 0/1
Bayes risks, parameter ``alpha`` in [0, 1]) plus the classical log, square
and 0/1 losses.  All Bayes risks are normalized so that ``bayes_risk(spec,
0.5) == 1`` and the losses are fair (``bayes_risk`` vanishes at 0 and 1).

Everything here is a pure function of immutable inputs and is safe to call
concurrently.  Scalar and numpy-array arguments are both accepted; arrays
come back as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossSpec",
    "bayes_risk",
    "canonical_link",
    "inverse_link",
    "surrogate",
    "perspective_at",
    "sensitivity_bound",
    "curvature",
]

_KINDS = ("malpha", "log", "square", "zero_one")

_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class LossSpec:
    """Selects a Bayes risk family.

    ``kind`` is one of ``"malpha"``, ``"log"``, ``"square"``, ``"zero_one"``.
    ``alpha`` is only meaningful for ``malpha``: 0 gives the 0/1 Bayes risk,
    1 gives Matsushita.
    """

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "malpha" and not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    @staticmethod
    def malpha(alpha: float) -> "LossSpec":
        return LossSpec("malpha", float(alpha))

    @staticmethod
    def matsushita() -> "LossSpec":
        return LossSpec("malpha", 1.0)

    @staticmethod
    def log() -> "LossSpec":
        return LossSpec("log")

    @staticmethod
    def square() -> "LossSpec":
        return LossSpec("square")

    @staticmethod
    def zero_one() -> "LossSpec":
        return LossSpec("zero_one")


def _as_float(x, like) -> float | np.ndarray:
    # Collapse 0-d arrays back to python floats for scalar callers.
    if np.isscalar(like) or (isinstance(like, np.ndarray) and like.ndim == 0):
        return float(x)
    return x


def _check_unit_interval(q, name: str):
    q = np.asarray(q, dtype=float)
    # min/max decide unless a NaN (which alone passes) made them NaN
    if q.size and not (q.min() >= -_DOMAIN_TOL and q.max() <= 1.0 + _DOMAIN_TOL):
        if np.any(q < -_DOMAIN_TOL) or np.any(q > 1.0 + _DOMAIN_TOL):
            raise ValueError(f"{name} must lie in [0, 1]")
    return np.clip(q, 0.0, 1.0)


def bayes_risk(spec: LossSpec, q) -> float | np.ndarray:
    """Pointwise Bayes risk at class probability ``q``.

    Concave in ``q``, symmetric about 1/2, normalized to 1 at 1/2 and fair
    (zero at the endpoints).  Raises if ``q`` leaves [0, 1] by more than
    1e-12.
    """
    u = _check_unit_interval(q, "q")
    if spec.kind == "malpha":
        a = spec.alpha
        val = 2.0 * (a * np.sqrt(u * (1.0 - u)) + (1.0 - a) * np.minimum(u, 1.0 - u))
    elif spec.kind == "square":
        val = 4.0 * u * (1.0 - u)
    elif spec.kind == "zero_one":
        val = 2.0 * np.minimum(u, 1.0 - u)
    else:  # log, normalized so the value at 1/2 is 1
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = -np.where(u > 0.0, u * np.log(u), 0.0) - np.where(
                u < 1.0, (1.0 - u) * np.log(1.0 - u), 0.0
            )
        val = ent / math.log(2.0)
    return _as_float(val, q)


def canonical_link(spec: LossSpec, u) -> float | np.ndarray:
    """Canonical link: negative derivative of the Bayes risk.

    Maps a class probability to a real-valued prediction.  The link is
    set-valued at ``u == 1/2`` for kinds with a kink there; the midpoint
    selection 0 is returned, which keeps the link antisymmetric
    (``link(1 - u) == -link(u)``).  Diverging endpoints are out of domain.
    """
    v = np.asarray(u, dtype=float)
    if np.any(v <= 0.0) or np.any(v >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    if spec.kind == "malpha":
        a = spec.alpha
        val = a * (2.0 * v - 1.0) / np.sqrt(v * (1.0 - v)) + 2.0 * (1.0 - a) * np.sign(
            2.0 * v - 1.0
        )
    elif spec.kind == "square":
        val = 8.0 * v - 4.0
    elif spec.kind == "zero_one":
        val = 2.0 * np.sign(2.0 * v - 1.0)
    else:  # log
        val = (np.log(v) - np.log(1.0 - v)) / math.log(2.0)
    return _as_float(val, u)


def _require_malpha(spec: LossSpec, what: str):
    if spec.kind != "malpha":
        raise ValueError(f"{what} is only defined for the malpha family")


def inverse_link(spec: LossSpec, z) -> float | np.ndarray:
    """Inverse of the canonical link for the malpha family.

    Total on the reals.  Equals 1/2 on the flat band
    ``|z| <= 2 (1 - alpha)`` and satisfies
    ``inverse_link(-z) == 1 - inverse_link(z)``.
    """
    _require_malpha(spec, "inverse_link")
    a = spec.alpha
    zz = np.asarray(z, dtype=float)
    t = np.abs(zz) / 2.0 - (1.0 - a)
    outside = t > 0.0
    if a > 0.0:
        ratio = np.where(outside, t, 0.0) / np.hypot(a, np.where(outside, t, 0.0))
    else:
        # alpha = 0: hard step once |z| leaves the band
        ratio = np.where(outside, 1.0, 0.0)
    val = 0.5 * (1.0 + np.sign(zz) * ratio)
    return _as_float(val, z)


def surrogate(spec: LossSpec, z) -> float | np.ndarray:
    """Convex margin surrogate of the malpha family.

    Convex, non-increasing, equals 1 at 0.  Its derivative is
    ``-inverse_link(-z)`` and for ``alpha == 1`` it reduces to the
    Matsushita surrogate ``sqrt(1 + z^2/4) - z/2``.
    """
    _require_malpha(spec, "surrogate")
    a = spec.alpha
    zz = np.asarray(z, dtype=float)
    t = np.abs(zz) / 2.0 - (1.0 - a)
    extra = np.where(t > 0.0, np.hypot(a, np.maximum(t, 0.0)) - a, 0.0)
    val = 1.0 - zz / 2.0 + extra
    return _as_float(val, z)


def perspective_at(spec: LossSpec, u: float, v: float) -> float:
    """Perspective transform ``v * bayes_risk(u / v)`` of the Bayes risk.

    Only the wedge ``0 <= u <= v`` is ever queried by callers; the value at
    ``v == 0`` is defined as 0 by convention (the recession direction is
    never evaluated here).
    """
    u = float(u)
    v = float(v)
    if u < 0.0 or v < 0.0:
        raise ValueError("perspective arguments must be non-negative")
    if u > v + _DOMAIN_TOL:
        raise ValueError("perspective requires u <= v")
    if v == 0.0:
        return 0.0
    return v * float(bayes_risk(spec, min(u / v, 1.0)))


def sensitivity_bound(spec: LossSpec, m: int) -> float:
    """Worst-case change of the per-leaf criterion over replacement neighbors.

    For the malpha family this is ``3 + 2 alpha (sqrt(m) - 1)``, which equals
    ``max(3, 1 + perspective_at(1, m + 1))``.  The classical kinds use their
    closed-form perspective values (the log form is an upper bound on the
    perspective).  Non-decreasing in ``m`` and, for malpha, in ``alpha``.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if spec.kind == "malpha":
        return 3.0 + 2.0 * spec.alpha * (math.sqrt(m) - 1.0)
    if spec.kind == "square":
        star = 4.0 * m / (m + 1.0)
    elif spec.kind == "zero_one":
        star = 2.0
    else:  # log
        star = (1.0 + math.log(m + 1.0)) / math.log(2.0)
    return max(3.0, 1.0 + star)


def curvature(spec: LossSpec, u) -> float | np.ndarray:
    """Weight function of the loss: ``-bayes_risk''(u)`` where it exists.

    The 0/1 risk is piecewise linear, so its curvature is 0 away from the
    kink; for malpha only the Matsushita part contributes.  Endpoints are
    out of domain.
    """
    v = np.asarray(u, dtype=float)
    if np.any(v <= 0.0) or np.any(v >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    if spec.kind == "malpha":
        val = spec.alpha * 0.5 * (v * (1.0 - v)) ** (-1.5)
    elif spec.kind == "square":
        val = np.full_like(v, 8.0)
    elif spec.kind == "zero_one":
        val = np.zeros_like(v)
    else:  # log
        val = 1.0 / (v * (1.0 - v)) / math.log(2.0)
    return _as_float(val, u)
