from fractions import Fraction

import numpy as np
import pytest

from bblab import (
    GeometryMismatchError,
    GridFunction,
    MassMismatchError,
    MeanParams,
    deficit,
    gen_dented,
    height_transport,
    integral,
    level_diagnostics,
    normalize,
    pushforward_check,
    spatial_transport,
    sup_convolution,
    translate,
)
from bblab import transport
from bblab.means import _mean
from bblab.transport import _height_cdf, _mean_knots
from conftest import hat, indicator, logconcave_bump, random_staircase

HALF0 = MeanParams(Fraction(1, 2), 0.0)


def height_cdf_oracle(f: GridFunction):
    """Reference height CDF: one count of the values above each knot
    midpoint, in a loop over the knots."""
    vals = f.values[f.values > 0]
    uniq = np.unique(vals)
    knots = np.concatenate(([0.0], uniq))
    cv = f.cell_volume
    counts = np.array([(f.values > 0.5 * (a + b)).sum() for a, b in zip(knots[:-1], knots[1:])])
    seg = counts * cv * np.diff(knots)
    cums = np.concatenate(([0.0], np.cumsum(seg)))
    cums /= cums[-1]
    return knots, cums


def mean_knots_oracle(lam, p, T, t_max, u):
    """Reference knots: one 80-step bisection per value of u, each step one
    scalar _mean and one T call."""
    out = []
    for target in u:
        lo, hi = 1e-300, t_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _mean(lam, p, mid, float(T(mid))) < target:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def bump_pair(cells):
    """Two log-concave bumps of equal mass, the second sharper."""
    f = logconcave_bump(width=2.0, spacing=2.0 / cells, sharp=3.0)
    g = logconcave_bump(width=2.0, spacing=2.0 / cells, sharp=8.0)
    return f, g.with_values(g.values * (integral(f) / integral(g)))


class TestSpatialTransport:
    def test_identity(self, rng):
        f = random_staircase(rng, zero_frac=0.0)
        T = spatial_transport(f, f)
        xs = f.axis_centers()
        assert np.allclose(T(xs), xs, atol=1e-12)

    def test_halving_map(self):
        f = indicator(0.0, 1.0, 0.01)
        g = indicator(0.0, 0.5, 0.01, height=2.0)
        T = spatial_transport(f, g)
        for x in (0.1, 0.33, 0.5, 0.9):
            assert T(x) == pytest.approx(x / 2, abs=1e-12)

    def test_pushforward_random(self, rng):
        for _ in range(40):
            f = normalize(random_staircase(rng))
            g = normalize(random_staircase(rng, origin=0.3))
            T = spatial_transport(f, g)
            assert pushforward_check(T, f, g) <= 1e-12

    def test_mass_mismatch(self, rng):
        f = random_staircase(rng)
        g = f.with_values(f.values * 1.1)
        with pytest.raises(MassMismatchError):
            spatial_transport(f, g)

    def test_composition_inverse(self, rng):
        f = normalize(random_staircase(rng, zero_frac=0.0))
        g = normalize(random_staircase(rng, zero_frac=0.0))
        T = spatial_transport(f, g)
        S = spatial_transport(g, f)
        xs = np.linspace(f.origin[0] + 0.01, f.origin[0] + 0.05, 7)
        assert np.allclose(S(T(xs)), xs, atol=1e-9)


class TestHeightTransport:
    def test_height_cdf_matches_oracle(self, rng):
        fs = [logconcave_bump(width=2.0, spacing=1e-4)]  # 2e4 cells
        for _ in range(30):
            f = random_staircase(rng, n_max=60, zero_frac=0.3)
            tied = np.ceil(f.values * 4) / 4  # few levels, many ties
            fs.append(f.with_values(tied))
        # adjacent floats: the knot midpoint rounds onto a knot
        fs.append(indicator(0.0, 1.0, 0.1).with_values(
            np.array([1.0, np.nextafter(1.0, 2.0)] * 5)))
        for f in fs:
            knots, cums = _height_cdf(f)
            ref_knots, ref_cums = height_cdf_oracle(f)
            assert np.array_equal(knots, ref_knots)
            assert np.array_equal(cums, ref_cums)

    def test_identity(self, rng):
        f = random_staircase(rng)
        T = height_transport(f, f)
        ts = np.linspace(0, f.max(), 9)
        assert np.allclose(T(ts), ts, atol=1e-12)

    def test_doubling_heights(self):
        f = indicator(0.0, 1.0, 0.01)
        g = indicator(0.0, 0.5, 0.01, height=2.0)
        T = height_transport(f, g)
        for t in (0.2, 0.5, 0.8):
            assert T(t) == pytest.approx(2 * t, abs=1e-12)

    def test_pushforward_random(self, rng):
        for _ in range(40):
            f = normalize(random_staircase(rng))
            g = normalize(random_staircase(rng))
            T = height_transport(f, g)
            assert pushforward_check(T, f, g) <= 1e-12

    def test_composition_inverse(self, rng):
        f = normalize(random_staircase(rng, zero_frac=0.0))
        g = normalize(random_staircase(rng, zero_frac=0.0))
        T = height_transport(f, g)
        S = height_transport(g, f)
        ts = np.linspace(0.1 * f.max(), 0.9 * f.max(), 7) / integral(f)
        assert np.allclose(S(T(ts)), ts, atol=1e-9)

    def test_monotone(self, rng):
        f = normalize(random_staircase(rng))
        g = normalize(random_staircase(rng))
        T = height_transport(f, g)
        assert np.all(np.diff(T.values) >= -1e-12)


class TestDiagnostics:
    def test_equality_family_all_small(self):
        f = hat(width=1.0, height=1.0, spacing=0.02)
        params = MeanParams(Fraction(1, 2), 1.0)
        h = sup_convolution(f, f, params)
        rep = level_diagnostics(f, f, h, params, alpha=0.1)
        tol = 4 * f.spacing * integral(f)
        for m in rep.masses:
            assert m <= tol
        assert rep.h_convention == "user"

    def test_equality_family_scaling(self):
        params = MeanParams(Fraction(1, 2), 1.0)
        masses = []
        for spacing in (0.02, 0.01):
            f = hat(width=1.0, height=1.0, spacing=spacing)
            h = sup_convolution(f, f, params)
            rep = level_diagnostics(f, f, h, params, alpha=0.1)
            masses.append(rep.masses)
        for coarse, fine in zip(*masses):
            assert fine <= coarse / 2 + 1e-12

    def test_dented_indicator_i2(self):
        base = indicator(0.0, 1.0, 0.01)
        f = gen_dented(base, [(0.45, 0.1, 1.0)])
        params = HALF0
        h = sup_convolution(f, f, params)
        rep = level_diagnostics(f, f, h, params, alpha=0.1)
        hole = 0.1
        # every level is dented by the hole, so I2 carries the whole mass,
        # which is bounded below by hole measure x height range of the hole
        assert rep.masses[1] >= hole * 1.0 - 1e-9

    def test_minkowski_criterion_uses_both_measures(self):
        """F_t = [0, 1] u [2, 3] and G_s = [0, 4] at every height: the
        Minkowski half-sum has measure 3.5 against M_{1/2,1}(2, 4) = 3, so
        criterion 3 holds its whole mass at alpha = 0.1 (and none if the
        mean were taken of |G_s| twice: 3.5 < 1.1 * 4)."""
        vals = np.ones(30)
        vals[10:20] = 0.0
        f = GridFunction(1, (0.0,), 0.1, vals)
        g = GridFunction(1, (0.0,), 0.1, np.full(40, 0.5))
        rep = level_diagnostics(f, g, None, HALF0, alpha=0.1)
        assert rep.masses[2] == pytest.approx(1.0, rel=1e-12)

    def test_translate_criteria_insensitive(self):
        base = indicator(0.0, 1.0, 0.01)
        f = gen_dented(base, [(0.45, 0.1, 1.0)])
        g = translate(f, [17])
        h = sup_convolution(f, g, HALF0)
        rep = level_diagnostics(f, g, h, HALF0, alpha=0.2)
        # translates exist making F_t match G_T(t) and the h-level sets
        assert rep.masses[3] <= 4 * f.spacing * integral(f)
        assert rep.masses[4] <= 4 * f.spacing * integral(f)

    def test_canonical_h(self):
        f = hat(width=1.0, height=1.0, spacing=0.05)
        rep = level_diagnostics(f, f, None, MeanParams(Fraction(1, 2), 1.0), alpha=0.1)
        assert rep.h_convention == "canonical"

    def test_h_off_lattice_rejected(self):
        # an h half a cell off f's lattice is rejected here as in deficit
        f = hat(width=1.0, height=1.0, spacing=0.02)
        params = MeanParams(Fraction(1, 2), 1.0)
        h = sup_convolution(f, f, params)
        h_off = GridFunction(1, (h.origin[0] + 0.5 * h.spacing,), h.spacing, h.values)
        with pytest.raises(GeometryMismatchError):
            deficit(f, f, h_off, params)
        with pytest.raises(GeometryMismatchError):
            level_diagnostics(f, f, h_off, params, alpha=0.1)

    def test_alpha_validation(self):
        f = hat(spacing=0.1)
        with pytest.raises(ValueError):
            level_diagnostics(f, f, None, HALF0, alpha=1.5)

    @pytest.mark.parametrize("p", [-0.25, 0.0, 0.5, 1.0])
    def test_mean_knots_match_scalar_bisection(self, p):
        """The vectorized bisection evaluates M with p_mean_arr, the scalar
        one with _mean, its scalar wrapper: the knots are identical."""
        f, g = bump_pair(500)
        params = MeanParams(Fraction(1, 2), p)
        fn, gn = normalize(f), normalize(g)
        T = height_transport(fn, gn)
        hvals = np.unique(sup_convolution(fn, gn, params).values)
        top = _mean(0.5, p, fn.max(), float(T(fn.max())))
        u = hvals[(hvals > 0) & (hvals < top)]
        assert len(u) > 400
        got = _mean_knots(0.5, p, T, fn.max(), u)
        ref = mean_knots_oracle(0.5, p, T, fn.max(), u)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_masses_match_scalar_bisection(self, p, monkeypatch):
        f, g = bump_pair(200)
        params = MeanParams(Fraction(1, 2), p)
        reports = []
        for knots in (_mean_knots, mean_knots_oracle):
            monkeypatch.setattr(transport, "_mean_knots", knots)
            reports.append([level_diagnostics(f, g, h, params, alpha=0.1)
                            for h in (None, sup_convolution(f, g, params))])
        for got, ref in zip(*reports):
            assert got.masses == pytest.approx(ref.masses, rel=1e-9, abs=1e-12)
            assert got.hull_gap_integral == pytest.approx(ref.hull_gap_integral, rel=1e-9,
                                                          abs=1e-12)

    def test_i2_linear_in_delta_family(self):
        # paper bound shape: I2 mass <= C * delta * mass on dented indicators
        params = HALF0
        alpha = 0.1
        ratios = []
        for w in (0.12, 0.16, 0.2):
            base = indicator(0.0, 1.0, 0.01)
            f = gen_dented(base, [((1 - w) / 2, w, 1.0)])
            h = sup_convolution(f, f, params)
            rep = level_diagnostics(f, f, h, params, alpha=alpha)
            delta = integral(h) / integral(f) - 1.0
            ratios.append(rep.masses[1] / (delta * integral(f)))
        C = max(ratios)
        assert C <= 2.0 / alpha
