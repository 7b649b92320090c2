"""Property-based checks on the numeric kernels (hypothesis)."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2vchan.compare import SegmentLabels, error_series, error_stats
from v2vchan.metrics import Apdp, MetricSeries, rms_delay_spread
from v2vchan.raytracer import fresnel_coefficients
from v2vchan.scene import Material


@st.composite
def materials(draw):
    eps = draw(st.floats(1.0, 80.0))
    sigma = draw(st.floats(0.0, 10.0))
    return Material("m", eps, sigma, False, 0.0)


class TestFresnelProperties:
    @given(materials(), st.floats(0.0, math.pi / 2 - 1e-6),
           st.floats(1e8, 1e11))
    @settings(max_examples=300, deadline=None)
    def test_matches_direct_formula(self, mat, theta, f):
        eps0 = 8.8541878128e-12
        eps = mat.relative_permittivity - 1j * mat.conductivity / (2 * math.pi * f * eps0)
        root = cmath.sqrt(eps - cmath.sin(theta) ** 2)
        exp_perp = (cmath.cos(theta) - root) / (cmath.cos(theta) + root)
        exp_par = (eps * cmath.cos(theta) - root) / (eps * cmath.cos(theta) + root)
        g_perp, g_par = fresnel_coefficients(mat, theta, f)
        assert abs(g_perp - exp_perp) <= 1e-12 * max(1.0, abs(exp_perp))
        assert abs(g_par - exp_par) <= 1e-12 * max(1.0, abs(exp_par))

    @given(materials(), st.floats(0.0, math.pi / 2 - 1e-6))
    @settings(max_examples=300, deadline=None)
    def test_passive_magnitudes(self, mat, theta):
        g_perp, g_par = fresnel_coefficients(mat, theta, 5.9e9)
        assert abs(g_perp) <= 1.0 + 1e-12
        assert abs(g_par) <= 1.0 + 1e-12


class TestSpreadProperties:
    @given(st.integers(2, 24), st.integers(0, 2 ** 31 - 1))
    @example(n=2, seed=1569241520)   # the uncentred m2 - m1**2 cancels to rel 1.8e-7 here
    @settings(max_examples=300, deadline=None)
    def test_matches_moment_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.01, 1.0, size=n)
        tau = np.sort(rng.uniform(0.0, 1e-6, size=n))
        apdp = Apdp(values=p[None, :], times=np.zeros(1), bins=tau, n_avg=1, stride=1)
        s = rms_delay_spread(apdp).values[0]
        m1 = float((p * tau).sum() / p.sum())
        var = float((p * (tau - m1) ** 2).sum() / p.sum())     # centred: no cancellation
        oracle = math.sqrt(var)
        assert s == pytest.approx(oracle, rel=1e-9, abs=1e-18)

    @given(st.integers(2, 24), st.integers(0, 2 ** 31 - 1),
           st.floats(-1e-5, 1e-5))
    @settings(max_examples=300, deadline=None)
    def test_translation_invariance(self, n, seed, shift):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.01, 1.0, size=n)
        tau = np.sort(rng.uniform(0.0, 1e-6, size=n))
        a = Apdp(values=p[None, :], times=np.zeros(1), bins=tau, n_avg=1, stride=1)
        b = Apdp(values=p[None, :], times=np.zeros(1), bins=tau + shift, n_avg=1, stride=1)
        sa = rms_delay_spread(a).values[0]
        sb = rms_delay_spread(b).values[0]
        assert sa == pytest.approx(sb, rel=1e-6, abs=1e-15)


class TestErrorStatProperties:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_permutation_invariance(self, vals, seed):
        rng = np.random.default_rng(seed)
        arr = np.asarray(vals, dtype=float)
        perm = rng.permutation(len(arr))
        lab = SegmentLabels(times=np.arange(len(arr), dtype=float),
                            is_los=np.ones(len(arr), dtype=bool))
        a = error_stats(MetricSeries("gain", lab.times, arr, "dB"), lab).cells["LOS"]
        b = error_stats(MetricSeries("gain", lab.times, arr[perm], "dB"), lab).cells["LOS"]
        assert a[0] == pytest.approx(b[0], rel=1e-12, abs=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_antisymmetry(self, vals):
        arr = np.asarray(vals, dtype=float)
        t = np.arange(len(arr), dtype=float)
        a = MetricSeries("gain", t, arr, "dB")
        b = MetricSeries("gain", t, arr[::-1].copy(), "dB")
        ab = error_series(a, b).values
        ba = error_series(b, a).values
        assert np.allclose(ab, -ba, atol=1e-12)
