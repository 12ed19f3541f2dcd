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
from bblab.transport import _height_cdf
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
