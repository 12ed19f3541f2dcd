"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are pinned here and nowhere else."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bblab import (
    GridFunction,
    MeanParams,
    certify_linear,
    certify_main,
    certify_symmetric_difference,
    check_holder_derivative,
    check_pq_switch,
    cone_equipartition_2d,
    Cone2D,
    deficit,
    fit_loglog_slope,
    gen_dented,
    gen_sharpness_pair,
    gen_two_bump,
    height_transport,
    integral,
    is_p_concave,
    layer_cake_integral,
    level_diagnostics,
    normalize,
    p_concave_hull,
    p_mean,
    pushforward_check,
    shave,
    spatial_transport,
    sup_convolution,
    sweep,
)
from conftest import hat, indicator, pconcave_bump, random_staircase
from test_hull import hull_oracle_1d


def _report(num, desc, t0, budget):
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:>2}: PASS  ({dt:6.1f}s / budget {budget}s)  {desc}")
    assert dt <= budget, f"criterion {num} exceeded its runtime budget: {dt:.1f}s"


@pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
def test_criterion_1_sharpness_slope(p):
    """Fitted log-log slope of symdiff vs delta lies in [0.45, 0.55]."""
    t0 = time.perf_counter()
    params = MeanParams(Fraction(1, 2), p)
    grid = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    rows = sweep("sharpness", grid, params, spacing=1e-4, certificates="symdiff")
    slope, se = fit_loglog_slope([r.delta for r in rows], [r.symdiff_distance for r in rows])
    assert 0.45 <= slope <= 0.55, (slope, se)
    _report(1, f"sharpness slope p={p}: {slope:.4f} +- {se:.4f}", t0, 120)


def test_criterion_2_sharpness_deficit_value():
    """gen_sharpness_pair(0.01) reproduces delta = (1.1 + 1/1.1)/2 - 1."""
    t0 = time.perf_counter()
    spacing = 1e-4
    f, g, h = gen_sharpness_pair(0.01, spacing=spacing)
    rep = deficit(f, g, h, MeanParams(Fraction(1, 2), 0.0))
    expected = (1.1 + 1.0 / 1.1) / 2.0 - 1.0
    assert rep.delta == pytest.approx(expected, abs=2 * spacing)
    _report(2, f"sharpness deficit {rep.delta:.7f} vs {expected:.7f}", t0, 1)


def test_criterion_3_linear_regime_dented():
    """Dented indicators: linear_gap = w +- 2h, ratio_linear <= 10."""
    t0 = time.perf_counter()
    spacing = 0.002
    params = MeanParams(Fraction(1, 2), 0.0)
    worst_ratio = 0.0
    for w in (0.01, 0.02, 0.05, 0.1, 0.15, 0.2):
        base = indicator(0.0, 1.0, spacing)
        f = gen_dented(base, [((1.0 - w) / 2.0, w, 1.0)])
        rep = certify_linear(f, params, c=0.75)
        assert rep.linear_gap == pytest.approx(w, abs=2 * spacing), w
        assert rep.ratio_linear <= 10.0, (w, rep.ratio_linear)
        worst_ratio = max(worst_ratio, rep.ratio_linear)
    _report(3, f"dented family worst ratio_linear {worst_ratio:.3f}", t0, 60)


def test_criterion_4_equality_collapse():
    """p-concave shapes: delta <= 4h and main_distance <= 8h * mass."""
    t0 = time.perf_counter()
    for p in (-0.25, 0.0, 1.0):
        params = MeanParams(Fraction(1, 2), p)
        shapes = [
            indicator(0.0, 1.0, 0.005),
            hat(width=2.0, height=1.0, spacing=0.01),
            pconcave_bump(p, width=2.0, height=1.0, spacing=0.01),
        ]
        for f in shapes:
            h = sup_convolution(f, f, params)
            rep = certify_main(f, f, h, params)
            assert rep.delta <= 4 * f.spacing, (p, rep.delta)
            assert rep.main_distance <= 8 * f.spacing * integral(f), (p, rep.main_distance)
    _report(4, "equality collapse on 3 shapes x 3 exponents", t0, 30)


def test_criterion_5_two_bump_regression():
    """Shaving removes exactly the far bump; the naive hull alone fails."""
    t0 = time.perf_counter()
    eps, v = 1e-6, 50.0
    params = MeanParams(Fraction(1, 2), 0.0)
    f = gen_two_bump(eps, v, spacing=0.05)
    _, removed, _ = shave(f, params)
    assert removed == pytest.approx(eps, abs=1e-12)
    rep = certify_linear(f, params)
    assert rep.ratio_linear <= 10.0
    naive_gap = p_concave_hull(f, 0.0).gap_mass
    assert naive_gap > 10 * eps * v
    _report(5, f"two-bump removed={removed:.3e}, naive hull gap {naive_gap:.2f}", t0, 10)


def test_criterion_6_inequality_lemma_suites():
    """10^3 random tuples per lemma margin >= -1e-12; mean monotone in p."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(1000):
        lam = float(rng.uniform(0.01, 0.5))
        p = float(rng.uniform(-0.99, -0.01))
        t, tt, d = rng.uniform(0.05, 20.0, size=3)
        assert check_holder_derivative(MeanParams(lam, p), t, tt, d) >= -1e-12
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.01, 0.5))
        p = float(rng.uniform(-0.99 / n, -0.01))
        a, c, u, v = rng.uniform(0.1, 10.0, size=4)
        b = (lam * a ** (1.0 / n) + (1 - lam) * c ** (1.0 / n)) ** n * float(
            rng.uniform(1.0, 2.0)
        )
        assert check_pq_switch(lam, p, n, a, b, c, u, v) >= -1e-12
    for _ in range(1000):
        x, y = rng.uniform(0.01, 10.0, size=2)
        lam = float(rng.uniform(0.01, 0.5))
        p1, p2 = np.sort(rng.uniform(-0.9, 3.0, size=2))
        lo = p_mean((lam, float(p1)), x, y)
        hi = p_mean((lam, float(p2)), x, y)
        assert lo <= hi + 1e-12 * max(1.0, hi)
    _report(6, "Hoelder-derivative, pq-switch, p-monotonicity sweeps", t0, 5)


def test_criterion_7_hull_oracle_equivalence():
    """200 staircases x 3 exponents match the supporting-line oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for k in range(200):
        f = random_staircase(rng, n_min=4, n_max=16, zero_frac=0.3)
        for p in (-0.25, 0.0, 1.0):
            res = p_concave_hull(f, p)
            ref = hull_oracle_1d(f, p)
            assert np.max(np.abs(res.hull.values - ref)) <= 1e-9
            assert np.all(res.hull.values >= f.values - 1e-12)
            again = p_concave_hull(res.hull, p)
            assert again.gap_mass <= 1e-12 * max(1.0, integral(f))
    _report(7, "hull == exhaustive p-plane oracle on 200 staircases", t0, 30)


def test_criterion_8_transport_conservation():
    """200 random pairs: pushforward mismatch <= 1e-12 both ways."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(200):
        f = normalize(random_staircase(rng))
        g = normalize(random_staircase(rng, origin=float(rng.integers(-2, 3)) * 0.1))
        Ts = spatial_transport(f, g)
        assert pushforward_check(Ts, f, g) <= 1e-12
        Th = height_transport(f, g)
        assert pushforward_check(Th, f, g) <= 1e-12
    _report(8, "cumulative conservation on 200 random pairs", t0, 5)


def test_criterion_9_diagnostics_consistency():
    """Equality family: all five bad masses <= 4h * mass and halve with h."""
    t0 = time.perf_counter()
    params = MeanParams(Fraction(1, 2), 1.0)
    masses = {}
    for spacing in (0.02, 0.01):
        f = hat(width=1.0, height=1.0, spacing=spacing)
        h = sup_convolution(f, f, params)
        rep = level_diagnostics(f, f, h, params, alpha=0.1)
        tol = 4 * spacing * integral(f)
        for m in rep.masses:
            assert m <= tol, (spacing, rep.masses)
        masses[spacing] = rep.masses
    for coarse, fine in zip(masses[0.02], masses[0.01]):
        assert fine <= coarse / 2 + 1e-12
    _report(9, f"diagnostics masses at h=0.02: {tuple(round(m, 6) for m in masses[0.02])}", t0, 60)


def test_criterion_10_equipartition():
    """Gaussian bump recovers its center; 20 random blobs verified."""
    t0 = time.perf_counter()
    n = 41
    x = (np.arange(n) - n // 2) * 0.1
    vals = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2))
    f = GridFunction(2, (-2.05, -2.05), 0.1, vals)
    res = cone_equipartition_2d(f)
    assert res.converged
    assert abs(res.apex[0]) <= f.spacing and abs(res.apex[1]) <= f.spacing
    rng = np.random.default_rng(10)
    for _ in range(20):
        blob = rng.uniform(0, 1, size=(20, 20))
        blob[blob < 0.45] = 0.0
        blob[10, 10] += 1.0
        g = GridFunction(2, (0.0, 0.0), 0.1, blob)
        res = cone_equipartition_2d(g)
        total = integral(g)
        verified = Cone2D.simplex(res.apex).sector_masses(g)
        for m in verified:
            assert abs(m - total / 3.0) <= 1e-6 * total
    _report(10, "cone equipartition center + 20 verified blobs", t0, 30)


def test_criterion_11_layer_cake_exact():
    """Exact staircase quadrature reproduces the integral to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(100):
        f = random_staircase(rng, n_min=4, n_max=40)
        a = layer_cake_integral(f)
        b = integral(f)
        assert abs(a - b) <= 1e-12 * max(1.0, b)
    _report(11, "layer cake exact on 100 staircases", t0, 5)
