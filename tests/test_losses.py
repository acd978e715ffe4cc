"""Loss family: closed forms, link calculus, perspectives, sensitivity bounds.

Derived expectations are recomputed here through independent routes
(separately coded Matsushita/0-1 risks, bisection inversion of the link,
finite differences) before being asserted against the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpboost.losses import (
    LossSpec,
    bayes_risk,
    canonical_link,
    curvature,
    inverse_link,
    perspective_at,
    sensitivity_bound,
    surrogate,
)

ALL_KINDS = [
    LossSpec.malpha(0.0),
    LossSpec.malpha(0.3),
    LossSpec.malpha(0.7),
    LossSpec.malpha(1.0),
    LossSpec.log(),
    LossSpec.square(),
    LossSpec.zero_one(),
]


# Independent oracle implementations of the two extreme risks.
def _matsushita(u):
    return 2.0 * math.sqrt(u * (1.0 - u))


def _zero_one(u):
    return 2.0 * min(u, 1.0 - u)


class TestBayesRisk:
    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_normalization_and_fairness(self, spec):
        assert bayes_risk(spec, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert bayes_risk(spec, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert bayes_risk(spec, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_malpha_examples(self):
        assert bayes_risk(LossSpec.malpha(0.7), 0.5) == 1.0
        assert bayes_risk(LossSpec.malpha(0.3), 0.0) == 0.0
        # alpha=0.5 at q=0.25; oracle: mix of the two extreme risks
        expected = 0.5 * _matsushita(0.25) + 0.5 * _zero_one(0.25)
        assert expected == pytest.approx(0.68301270189, abs=1e-10)
        assert bayes_risk(LossSpec.malpha(0.5), 0.25) == pytest.approx(expected, abs=1e-12)

    def test_convex_combination_identity_grid(self):
        alphas = np.linspace(0.0, 1.0, 1000)
        us = np.linspace(0.0, 1.0, 1000)
        mat = np.asarray(bayes_risk(LossSpec.malpha(1.0), us))
        zo = np.asarray(bayes_risk(LossSpec.malpha(0.0), us))
        for a in alphas:
            lhs = np.asarray(bayes_risk(LossSpec.malpha(a), us))
            assert np.max(np.abs(lhs - (a * mat + (1.0 - a) * zo))) <= 1e-12

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_symmetry(self, spec):
        us = np.linspace(0.0, 1.0, 257)
        v = np.asarray(bayes_risk(spec, us))
        assert np.allclose(v, v[::-1], atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_concavity_second_differences(self, spec):
        us = np.linspace(0.001, 0.999, 2001)
        v = np.asarray(bayes_risk(spec, us))
        second = v[:-2] - 2.0 * v[1:-1] + v[2:]
        assert np.max(second) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bayes_risk(LossSpec.matsushita(), 1.0 + 1e-9)
        # within tolerance it clips
        assert bayes_risk(LossSpec.matsushita(), 1.0 + 1e-13) == 0.0

    def test_domain_boundaries(self):
        spec = LossSpec.malpha(0.5)
        for q in (1.0 + 1e-12, -1e-12):
            assert bayes_risk(spec, q) == 0.0
            assert np.array_equal(bayes_risk(spec, np.array([0.5, q])), [1.0, 0.0])
        for q in (1.0 + 1e-11, -1e-11):
            with pytest.raises(ValueError):
                bayes_risk(spec, q)
            with pytest.raises(ValueError):
                bayes_risk(spec, np.array([0.5, q]))
        assert bayes_risk(spec, np.array([])).shape == (0,)

    def test_nan_passes_the_domain_check(self):
        # pinned as it is: a NaN is not out of range, and it propagates;
        # a real value out of range still raises next to it
        spec = LossSpec.malpha(0.5)
        assert math.isnan(bayes_risk(spec, math.nan))
        out = bayes_risk(spec, np.array([math.nan, 0.5]))
        assert math.isnan(out[0]) and out[1] == 1.0
        for bad in (2.0, -1.0):
            with pytest.raises(ValueError):
                bayes_risk(spec, np.array([math.nan, bad]))


class TestCanonicalLink:
    def test_examples(self):
        assert canonical_link(LossSpec.malpha(1.0), 0.5) == 0.0
        assert canonical_link(LossSpec.malpha(1.0), 0.8) == pytest.approx(1.5, abs=1e-12)
        assert canonical_link(LossSpec.malpha(0.0), 0.3) == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_antisymmetry_and_monotone(self, spec):
        us = np.linspace(0.01, 0.99, 99)
        vals = np.asarray(canonical_link(spec, us))
        assert np.allclose(vals, -vals[::-1], atol=1e-9)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_midpoint_selection(self):
        for alpha in (0.0, 0.4, 1.0):
            assert canonical_link(LossSpec.malpha(alpha), 0.5) == 0.0

    def test_endpoints_rejected(self):
        with pytest.raises(ValueError):
            canonical_link(LossSpec.matsushita(), 0.0)
        with pytest.raises(ValueError):
            canonical_link(LossSpec.matsushita(), 1.0)


def _invert_link_bisect(alpha, z, tol=1e-13):
    # Independent oracle: bisection on the monotone link.
    spec = LossSpec.malpha(alpha)
    lo, hi = 1e-15, 1.0 - 1e-15
    if z <= canonical_link(spec, lo):
        return 0.0
    if z >= canonical_link(spec, hi):
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if canonical_link(spec, mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInverseLink:
    def test_examples(self):
        assert inverse_link(LossSpec.malpha(0.4), 0.0) == 0.5
        assert inverse_link(LossSpec.malpha(1.0), 2.0) == pytest.approx(
            0.5 * (1.0 + 1.0 / math.sqrt(2.0)), abs=1e-12
        )
        assert inverse_link(LossSpec.malpha(0.5), 1.0) == 0.5  # on the plateau

    def test_total_and_monotone(self):
        zs = np.linspace(-50.0, 50.0, 2001)
        for alpha in (0.0, 0.1, 0.5, 1.0):
            vals = np.asarray(inverse_link(LossSpec.malpha(alpha), zs))
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.all(np.diff(vals) >= -1e-12)

    def test_reflection(self):
        zs = np.linspace(-20.0, 20.0, 801)
        for alpha in (0.0, 0.3, 1.0):
            spec = LossSpec.malpha(alpha)
            lhs = np.asarray(inverse_link(spec, -zs))
            rhs = 1.0 - np.asarray(inverse_link(spec, zs))
            assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_round_trip_from_u(self, alpha):
        spec = LossSpec.malpha(alpha)
        us = np.concatenate([np.linspace(0.001, 0.49, 120), np.linspace(0.51, 0.999, 120)])
        for u in us:
            z = canonical_link(spec, u)
            assert inverse_link(spec, z) == pytest.approx(u, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_round_trip_from_z(self, alpha):
        spec = LossSpec.malpha(alpha)
        band = 2.0 * (1.0 - alpha)
        zs = [z for z in np.linspace(-30.0, 30.0, 301) if abs(z) > band + 1e-6]
        for z in zs:
            u = inverse_link(spec, z)
            assert canonical_link(spec, u) == pytest.approx(z, abs=1e-9 * max(1.0, abs(z)))

    @pytest.mark.parametrize("alpha", [0.2, 0.7, 1.0])
    def test_against_bisection_oracle(self, alpha):
        spec = LossSpec.malpha(alpha)
        for z in (-7.3, -2.5, 2.0 * (1.0 - alpha) + 0.25, 4.0, 11.0):
            assert inverse_link(spec, z) == pytest.approx(
                _invert_link_bisect(alpha, z), abs=1e-8
            )


class TestSurrogate:
    def test_examples(self):
        assert surrogate(LossSpec.malpha(0.2), 0.0) == 1.0
        assert surrogate(LossSpec.malpha(1.0), 2.0) == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-12
        )
        assert surrogate(LossSpec.malpha(0.0), 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_matsushita_closed_form(self):
        spec = LossSpec.malpha(1.0)
        for z in np.linspace(-9.0, 9.0, 181):
            assert surrogate(spec, z) == pytest.approx(
                math.sqrt(1.0 + z * z / 4.0) - z / 2.0, abs=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_non_increasing_and_convex(self, alpha):
        spec = LossSpec.malpha(alpha)
        zs = np.linspace(-12.0, 12.0, 4001)
        v = np.asarray(surrogate(spec, zs))
        assert np.all(np.diff(v) <= 1e-12)
        second = v[:-2] - 2.0 * v[1:-1] + v[2:]
        assert np.min(second) >= -1e-10

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_derivative_matches_inverse_link(self, alpha):
        spec = LossSpec.malpha(alpha)
        band = 2.0 * (1.0 - alpha)
        h = 1e-5
        for z in np.linspace(-9.0, 9.0, 361):
            if abs(abs(z) - band) < 1e-3:
                continue  # kink of the second derivative
            numeric = (surrogate(spec, z + h) - surrogate(spec, z - h)) / (2.0 * h)
            assert numeric == pytest.approx(-inverse_link(spec, -z), abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_second_derivative_sup(self, alpha):
        spec = LossSpec.malpha(alpha)
        zs = np.linspace(-8.0, 8.0, 16001)
        v = np.asarray(surrogate(spec, zs))
        h = zs[1] - zs[0]
        second = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
        assert np.max(second) <= 1.0 / (2.0 * alpha) + 1e-9

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            surrogate(LossSpec.log(), 0.0)
        with pytest.raises(ValueError):
            inverse_link(LossSpec.square(), 0.0)


class TestPerspective:
    def test_values(self):
        # Matsushita at (1, 4): also the m=3 closed form 2 sqrt(m)
        assert perspective_at(LossSpec.malpha(1.0), 1.0, 4.0) == pytest.approx(
            2.0 * math.sqrt(3.0), abs=1e-12
        )
        m = 5
        assert perspective_at(LossSpec.square(), 1.0, m + 1.0) == pytest.approx(
            4.0 * m / (m + 1.0), abs=1e-12
        )
        assert perspective_at(LossSpec.zero_one(), 1.0, 100.0) == pytest.approx(2.0, abs=1e-12)

    def test_edge_conventions(self):
        assert perspective_at(LossSpec.matsushita(), 0.0, 0.0) == 0.0
        assert perspective_at(LossSpec.matsushita(), 0.0, 5.0) == 0.0
        with pytest.raises(ValueError):
            perspective_at(LossSpec.matsushita(), 2.0, 1.0)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_non_decreasing_in_v(self, spec):
        vals = [perspective_at(spec, 1.0, v) for v in np.linspace(1.0, 40.0, 80)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSensitivityBound:
    def test_values(self):
        assert sensitivity_bound(LossSpec.malpha(0.0), 1000) == 3.0
        assert sensitivity_bound(LossSpec.malpha(1.0), 100) == pytest.approx(21.0, abs=1e-12)
        assert sensitivity_bound(LossSpec.log(), 7) == pytest.approx(
            1.0 + (1.0 + math.log(8.0)) / math.log(2.0), abs=1e-12
        )

    def test_malpha_equals_perspective_form(self):
        # closed form == max(3, 1 + perspective(1, m + 1))
        for alpha in (0.0, 0.25, 0.6, 1.0):
            spec = LossSpec.malpha(alpha)
            for m in range(1, 40):
                via_persp = max(3.0, 1.0 + perspective_at(spec, 1.0, m + 1.0))
                assert sensitivity_bound(spec, m) == pytest.approx(via_persp, abs=1e-12)

    def test_monotone(self):
        for spec in ALL_KINDS:
            vals = [sensitivity_bound(spec, m) for m in range(1, 60)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for m in (2, 10, 50):
            by_alpha = [sensitivity_bound(LossSpec.malpha(a), m) for a in np.linspace(0, 1, 11)]
            assert all(b >= a - 1e-12 for a, b in zip(by_alpha, by_alpha[1:]))


class TestCurvature:
    def test_values(self):
        assert curvature(LossSpec.square(), 0.3) == pytest.approx(8.0, abs=1e-12)
        assert curvature(LossSpec.malpha(1.0), 0.5) == pytest.approx(4.0, abs=1e-12)
        assert curvature(LossSpec.zero_one(), 0.3) == 0.0

    @pytest.mark.parametrize(
        "spec", [LossSpec.matsushita(), LossSpec.square(), LossSpec.log(), LossSpec.malpha(0.6)]
    )
    def test_matches_finite_differences(self, spec):
        h = 1e-5
        for u in (0.2, 0.37, 0.5, 0.73):
            if spec.kind == "malpha" and spec.alpha < 1.0 and u == 0.5:
                continue  # kink of the 0/1 part
            numeric = -(
                bayes_risk(spec, u + h) - 2.0 * bayes_risk(spec, u) + bayes_risk(spec, u - h)
            ) / h**2
            assert curvature(spec, u) == pytest.approx(numeric, rel=1e-4)

    @pytest.mark.parametrize("spec", [LossSpec.matsushita(), LossSpec.square()])
    @pytest.mark.parametrize("m", [1, 3, 8, 20])
    def test_perspective_derivative_bracket(self, spec, m):
        # The v-derivative of the perspective at (1, m+1) lies between the
        # extremes of curvature(a) / (2 (m+1)^2) over a in (0, 1/(m+1)].
        v = m + 1.0
        h = 1e-6
        deriv = (
            perspective_at(spec, 1.0, v + h) - perspective_at(spec, 1.0, v - h)
        ) / (2.0 * h)
        grid = np.linspace(1e-9, 1.0 / v, 20001)
        scaled = np.asarray(curvature(spec, grid)) / (2.0 * v * v)
        assert scaled.min() - 1e-6 <= deriv <= scaled.max() + 1e-6


# --- property tests --------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(min_value=0.01, max_value=1.0),
    u=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
)
def test_prop_link_round_trip(alpha, u):
    if abs(u - 0.5) < 1e-6:
        return
    spec = LossSpec.malpha(alpha)
    assert inverse_link(spec, canonical_link(spec, u)) == pytest.approx(u, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    u=st.floats(min_value=0.0, max_value=0.5),
    v=st.floats(min_value=0.0, max_value=0.5),
    lam=st.floats(min_value=0.0, max_value=1.0),
)
def test_prop_concavity(alpha, u, v, lam):
    spec = LossSpec.malpha(alpha)
    mix = lam * u + (1.0 - lam) * v
    lhs = bayes_risk(spec, mix)
    rhs = lam * bayes_risk(spec, u) + (1.0 - lam) * bayes_risk(spec, v)
    assert lhs >= rhs - 1e-12


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    z=st.floats(min_value=-100.0, max_value=100.0),
)
def test_prop_inverse_link_reflection(alpha, z):
    spec = LossSpec.malpha(alpha)
    assert inverse_link(spec, -z) == pytest.approx(1.0 - inverse_link(spec, z), abs=1e-12)
