import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bblab import (
    GridFunction,
    MeanParams,
    check_holder_derivative,
    check_pq_switch,
    exponent_map,
    p_concave_hull,
    p_mean,
    p_mean_arr,
    sup_convolution,
)
from conftest import random_blob_2d


def mean_reference(lam: float, p: float, x: float, y: float) -> float:
    """M_{lam,p}(x, y) of positive x, y in 80-digit decimal arithmetic.

    ln M = ln(lam e^(pa) + (1-lam) e^(pb)) / p with a = ln x, b = ln y; for
    |p| < 1e-25 its expansion lam a + (1-lam) b + p lam (1-lam) (a-b)^2 / 2,
    whose next term is below 1e-40.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        w, a, b, P = Decimal(lam), Decimal(x).ln(), Decimal(y).ln(), Decimal(p)
        if abs(p) < 1e-25:
            ln_m = w * a + (1 - w) * b + P * w * (1 - w) * (a - b) ** 2 / 2
        else:
            ln_m = (w * (P * a).exp() + (1 - w) * (P * b).exp()).ln() / P
        return float(ln_m.exp())


def test_param_validation():
    with pytest.raises(ValueError):
        MeanParams(0.0, 0.5)
    with pytest.raises(ValueError):
        MeanParams(0.7, 0.5)
    with pytest.raises(ValueError):
        MeanParams(0.5, -1.0, n=1)
    with pytest.raises(ValueError):
        MeanParams(0.5, -0.5, n=2)
    MeanParams(0.5, -0.49, n=2)  # fine


class TestPMean:
    def test_arithmetic(self):
        assert p_mean(MeanParams(0.5, 1.0), 2.0, 4.0) == pytest.approx(3.0, abs=1e-15)

    def test_zero_argument(self):
        assert p_mean(MeanParams(0.3, -0.2, n=2), 5.0, 0.0) == 0.0
        assert p_mean(MeanParams(0.3, -0.2, n=2), 0.0, 5.0) == 0.0

    def test_geometric(self):
        assert p_mean(MeanParams(0.5, 0.0), 1.0, 4.0) == pytest.approx(2.0, abs=1e-15)

    def test_harmonic(self):
        # p = -1 sits outside the BBL regime; the raw (lam, p) form covers it
        assert p_mean((0.5, -1.0), 1.0, 1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_idempotent_exact(self, rng):
        for _ in range(200):
            x = float(rng.uniform(1e-6, 1e6))
            p = float(rng.uniform(-0.9, 3.0))
            lam = float(rng.uniform(0.01, 0.5))
            assert p_mean((lam, p), x, x) == x

    def test_monotone_in_p(self, rng):
        for _ in range(1000):
            x, y = rng.uniform(0.01, 10.0, size=2)
            lam = float(rng.uniform(0.01, 0.5))
            ps = np.sort(rng.uniform(-0.9, 3.0, size=2))
            lo = p_mean((lam, float(ps[0])), x, y)
            hi = p_mean((lam, float(ps[1])), x, y)
            assert lo <= hi + 1e-12 * max(1.0, hi)

    def test_homogeneous(self, rng):
        for _ in range(300):
            x, y = rng.uniform(0.01, 10.0, size=2)
            t = float(rng.uniform(0.01, 100.0))
            lam = float(rng.uniform(0.01, 0.5))
            p = float(rng.uniform(-0.9, 2.0))
            a = p_mean((lam, p), t * x, t * y)
            b = t * p_mean((lam, p), x, y)
            assert a == pytest.approx(b, rel=1e-12)

    def test_continuity_at_zero(self, rng):
        for _ in range(200):
            x, y = rng.uniform(0.01, 10.0, size=2)
            lam = float(rng.uniform(0.01, 0.5))
            g = p_mean((lam, 0.0), x, y)
            for p in (1e-8, -1e-8):
                assert abs(p_mean((lam, p), x, y) - g) <= 1e-6 * max(x, y)

    def test_ratio_beyond_float_range(self):
        """Means whose ratio y/x or (y/x)^p overflows a float."""
        assert p_mean_arr(0.5, 1.0, 1e-300, 1e300) == 5e299
        assert p_mean((0.5, 1.0), 1e-300, 1e300) == 5e299
        assert p_mean_arr(0.5, 2.0, 1e-160, 1.0) == pytest.approx(0.7071067811865476, rel=1e-15)
        # 1e-300 scales below the float range here, and still counts
        assert p_mean_arr(0.5, 3.0, 1e-300, 1e300) == pytest.approx(1e300 * 0.5 ** (1 / 3))
        # the geometric mean of values 2^1993 apart
        assert p_mean((0.5, 0.0), 1e-300, 1e300) == pytest.approx(1.0)
        # the smaller value decides a mean at p < 0, so it sets the scale
        assert p_mean((0.5, -3.0), 1e-200, 1e200) == pytest.approx(1e-200 * 2.0 ** (1 / 3))

    def test_array_matches_scalar(self, rng):
        xs = rng.uniform(0.0, 5.0, size=50)
        ys = rng.uniform(0.0, 5.0, size=50)
        xs[::7] = 0.0
        for p in (-0.4, 0.0, 0.5, 2.0, 1e-8):
            arr = p_mean_arr(0.3, p, xs, ys)
            for i in range(50):
                assert arr[i] == pytest.approx(p_mean((0.3, p), xs[i], ys[i]), abs=1e-14)


class TestExponentMap:
    def test_zero_fixed_point(self):
        assert exponent_map(0.0, 5) == 0.0

    def test_direct_values(self):
        assert exponent_map(1.0, 1) == pytest.approx(0.5, abs=1e-15)
        assert exponent_map(-0.25, 2) == pytest.approx(-0.5, abs=1e-15)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            exponent_map(-0.5, 2)
        with pytest.raises(ValueError):
            exponent_map(-1.0, 1)


class TestHolderDerivative:
    def test_identity_transport(self):
        mp = MeanParams(0.5, -0.5)
        assert check_holder_derivative(mp, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_example_point(self):
        mp = MeanParams(0.5, -0.5)
        assert check_holder_derivative(mp, 1.0, 2.0, 2.0) >= 0.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            check_holder_derivative(MeanParams(0.5, 0.5), 1.0, 1.0, 1.0)

    def test_property_sweep(self, rng):
        for _ in range(1000):
            lam = float(rng.uniform(0.01, 0.5))
            p = float(rng.uniform(-0.99, -0.01))
            t, tt, d = rng.uniform(0.05, 20.0, size=3)
            mp = MeanParams(lam, p)
            assert check_holder_derivative(mp, t, tt, d) >= -1e-12


class TestPqSwitch:
    def test_scale_invariance_equality(self):
        for lam, p, n in [(0.5, -0.2, 1), (0.3, -0.1, 2), (0.25, -0.05, 3)]:
            m = check_pq_switch(lam, p, n, 1.0, 1.0, 1.0, 2.0, 2.0)
            assert m == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        m = check_pq_switch(0.5, -0.5, 1, a=1.0, b=5.0, c=9.0, u=1.0, v=1.0)
        assert m == pytest.approx(3.2, abs=1e-12)

    def test_rejects_precondition_violation(self):
        with pytest.raises(ValueError):
            check_pq_switch(0.5, -0.2, 1, a=4.0, b=1.0, c=4.0, u=1.0, v=1.0)

    def test_property_sweep(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            lam = float(rng.uniform(0.01, 0.5))
            p = float(rng.uniform(-0.99 / n, -0.01))
            a, c, u, v = rng.uniform(0.1, 10.0, size=4)
            b = (lam * a ** (1.0 / n) + (1 - lam) * c ** (1.0 / n)) ** n
            b *= float(rng.uniform(1.0, 2.0))
            assert check_pq_switch(lam, p, n, a, b, c, u, v) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(1e-3, 1e3),
    y=st.floats(1e-3, 1e3),
    lam=st.floats(0.01, 0.5),
    p=st.floats(-0.9, 3.0),
    q_shift=st.floats(1e-6, 2.0),
)
def test_hypothesis_monotone_and_bounds(x, y, lam, p, q_shift):
    mid = p_mean((lam, p), x, y)
    assert min(x, y) - 1e-12 * max(x, y) <= mid <= max(x, y) * (1 + 1e-12)
    hi = p_mean((lam, p + q_shift), x, y)
    assert mid <= hi + 1e-11 * max(1.0, hi)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(1e-300, 1e300),
    y=st.floats(1e-300, 1e300),
    lam=st.floats(0.01, 0.5),
    p=st.floats(-0.9, 3.0),
)
def test_hypothesis_matches_decimal_reference(x, y, lam, p):
    ref = mean_reference(lam, p, x, y)
    assert p_mean_arr(lam, p, x, y) == pytest.approx(ref, rel=1e-11)
    assert p_mean((lam, p), x, y) == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("p", [5e-324, -5e-324, 1e-320, 1e-300])
def test_tiny_p_matches_geometric(p, rng):
    """At |p| so small that p log x underflows, the means, the
    sup-convolution and the hull are those of p = 0."""
    xs, ys = 10.0 ** rng.uniform(-5, 5, size=(2, 200))
    assert p_mean_arr(0.3, p, xs, ys) == pytest.approx(p_mean_arr(0.3, 0.0, xs, ys), rel=1e-12)
    f1 = GridFunction(1, (0.0,), 1.0, np.array([0.5, 1.0, 0.25, 0.8]))
    for f in (f1, random_blob_2d(rng, n=8)):
        got, ref = (sup_convolution(f, f, MeanParams(Fraction(1, 2), q)).values for q in (p, 0.0))
        assert got == pytest.approx(ref, rel=1e-12)
        got, ref = (p_concave_hull(f, q).hull.values for q in (p, 0.0))
        assert got == pytest.approx(ref, rel=1e-12)
