from fractions import Fraction

import numpy as np
import pytest

from bblab import (
    GridFunction,
    MeanParams,
    fit_loglog_slope,
    gen_dented,
    gen_sharpness_pair,
    gen_two_bump,
    integral,
    level_set,
    minkowski_combination,
    p_concave_hull,
    shave,
    sweep,
)
from bblab.lab import write_csv
from conftest import indicator

HALF0 = MeanParams(Fraction(1, 2), 0.0)


class TestSharpnessPair:
    def test_masses_near_one(self):
        f, g, h = gen_sharpness_pair(0.01, spacing=1e-3)
        assert abs(integral(f) - 1.0) <= 2e-3
        assert abs(integral(g) - 1.0) <= 2e-3
        assert abs(integral(f) - integral(g)) <= 2 * 1e-3

    def test_h_interval_length(self):
        f, g, h = gen_sharpness_pair(0.01, spacing=1e-4)
        assert integral(h) == pytest.approx((1.1 + 1 / 1.1) / 2, abs=2e-4)

    def test_family_degenerates_continuously(self):
        f, g, h = gen_sharpness_pair(1e-6, spacing=1e-4)
        assert integral(h) == pytest.approx(1.0, abs=5e-3)
        assert abs(integral(f) - integral(g)) <= 2e-4

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            gen_sharpness_pair(0.01, spacing=0.2)

    @pytest.mark.parametrize("delta0", [0.0, float("nan"), float("inf")])
    def test_delta0_not_positive_finite_rejected(self, delta0):
        with pytest.raises(ValueError, match="delta0 must be positive and finite"):
            gen_sharpness_pair(delta0, 1e-3)

    def test_overflowing_cell_count_rejected(self):
        with pytest.raises(ValueError, match="not a finite cell count"):
            gen_sharpness_pair(0.01, 1e-320)

    @pytest.mark.parametrize("delta0", [1e-6, 1e-3, 0.01, 0.3])
    @pytest.mark.parametrize("spacing", [1e-2, 3e-3, 1e-3])
    def test_h_on_the_midpoint_combination(self, delta0, spacing):
        """h = 1 on the midpoint combination of the supports, its last cell
        1/2 when nf + ng is odd."""
        f, g, h = gen_sharpness_pair(delta0, spacing)
        combo = minkowski_combination(level_set(f, 0.0), level_set(g, 0.0), Fraction(1, 2))
        assert h.origin == combo.origin and np.array_equal(h.values > 0, combo.mask)
        last = 0.5 if (f.shape[0] + g.shape[0]) % 2 else 1.0
        assert np.array_equal(h.values, np.r_[np.ones(h.shape[0] - 1), last])


class TestGenDented:
    def test_no_holes_identity(self):
        base = indicator(0.0, 1.0, 0.01)
        assert np.array_equal(gen_dented(base, []).values, base.values)

    def test_full_depth_hole_hull_gap(self):
        base = indicator(0.0, 1.0, 0.01)
        f = gen_dented(base, [(0.4, 0.1, 1.0)])
        gap = p_concave_hull(f, 0.0).gap_mass
        assert gap == pytest.approx(0.1, abs=0.011)

    def test_random_dents_sum(self, rng):
        base = indicator(0.0, 1.0, 0.01)
        holes = [(0.1, 0.05, 0.5), (0.3, 0.08, 1.0), (0.7, 0.04, 0.25)]
        f = gen_dented(base, holes)
        removed = integral(base) - integral(f)
        expected = sum(w * min(d, 1.0) for _, w, d in holes)
        assert removed == pytest.approx(expected, abs=1e-9)

    def test_overlap_rejected(self):
        base = indicator(0.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            gen_dented(base, [(0.4, 0.1, 1.0), (0.45, 0.1, 1.0)])

    def test_outside_support_rejected(self):
        base = indicator(0.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            gen_dented(base, [(0.95, 0.2, 1.0)])

    @pytest.mark.parametrize("width", [0.0, -0.05, 0.004])
    def test_hole_covering_no_cell_rejected(self, width):
        """A hole under half a cell wide would change nothing."""
        with pytest.raises(ValueError, match="covers no cell"):
            gen_dented(indicator(0.0, 1.0, 0.01), [(0.4, width, 1.0)])

    @pytest.mark.parametrize("depth", [0.0, -0.5, np.nan, np.inf])
    def test_depth_not_positive_finite_rejected(self, depth):
        """A negative depth would add mass instead of removing it."""
        with pytest.raises(ValueError, match="depth must be positive and finite"):
            gen_dented(indicator(0.0, 1.0, 0.01), [(0.4, 0.1, depth)])


class TestTwoBump:
    def test_eps_zero_is_block(self):
        f = gen_two_bump(0.0, 50.0, spacing=0.05)
        assert integral(f) == pytest.approx(1.0, rel=1e-12)
        assert f.shape[0] == 20

    def test_hull_gap_grows_with_v(self):
        g1 = p_concave_hull(gen_two_bump(1e-6, 10.0, spacing=0.05), 0.0).gap_mass
        g2 = p_concave_hull(gen_two_bump(1e-6, 20.0, spacing=0.05), 0.0).gap_mass
        assert g2 > 1.5 * g1

    def test_shave_removes_far_bump(self):
        eps = 1e-6
        f = gen_two_bump(eps, 50.0, spacing=0.05)
        _, removed, _ = shave(f, HALF0)
        assert removed == pytest.approx(eps, abs=1e-12)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-6])
    def test_eps_not_finite_nonnegative_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be nonnegative and finite"):
            gen_two_bump(eps, 3.0)

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), 2.0])
    def test_v_outside_range_rejected(self, v):
        with pytest.raises(ValueError, match="need 2 < v < inf"):
            gen_two_bump(1e-6, v)


class TestSlopeFit:
    def test_exact_half_power(self):
        x = np.geomspace(1e-4, 1e-1, 8)
        slope, se = fit_loglog_slope(x, x ** 0.5)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_linear(self):
        x = np.geomspace(1e-3, 1.0, 6)
        slope, _ = fit_loglog_slope(x, 3.0 * x)
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 1.0, 1.0, 1.0], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
        x = [1e-3, 3e-3, 1e-2, 3e-2]
        for bad in (0.0, -0.0023, np.nan, np.inf):
            with pytest.raises(ValueError):
                fit_loglog_slope(x, [0.1, 0.2, bad, 0.4])
            with pytest.raises(ValueError):
                fit_loglog_slope([bad, 3e-3, 1e-2, 3e-2], [0.1, 0.2, 0.3, 0.4])


class TestSweep:
    def test_sharpness_rows_and_determinism(self, tmp_path):
        rows = sweep("sharpness", [1e-3, 3e-3, 1e-2], HALF0, spacing=1e-3)
        assert all(r.delta > 0 for r in rows)
        assert [r.delta0 for r in rows] == sorted(r.delta0 for r in rows)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ok1 = write_csv(rows, p1)
        rows2 = sweep("sharpness", [1e-3, 3e-3, 1e-2], HALF0, spacing=1e-3)
        write_csv(rows2, p2)
        a = p1.read_text().splitlines()
        b = p2.read_text().splitlines()
        # deterministic numbers; only runtime column may differ
        strip = lambda line: ",".join(line.split(",")[:-1])
        assert [strip(x) for x in a] == [strip(y) for y in b]
        assert ok1 == all(r.hypothesis_valid for r in rows)

    def test_dented_family(self):
        rows = sweep("dented", [0.05, 0.1], HALF0, spacing=0.002, c=0.75)
        for r in rows:
            assert r.linear_gap == pytest.approx(r.delta0, abs=2 * 0.002)
            assert r.ratio_linear <= 10.0

    @pytest.mark.parametrize("family", ["sharpness", "dented"])
    def test_rejects_empty_grid(self, family):
        """No rows would make "every row passes" hold vacuously."""
        with pytest.raises(ValueError, match="delta0 grid is empty"):
            sweep(family, [], HALF0)

    @pytest.mark.parametrize("family", ["sharpness", "dented"])
    @pytest.mark.parametrize("spacing", [0.0, -1e-3, np.nan, np.inf])
    def test_rejects_bad_spacing(self, family, spacing):
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            sweep(family, [0.1], HALF0, spacing=spacing)

    def test_rejects_negative_dent_width(self):
        """A negative width would give an undented row with delta = 0."""
        with pytest.raises(ValueError, match="covers no cell"):
            sweep("dented", [-0.1], HALF0, spacing=0.01)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sweep("nope", [0.1], HALF0)

    @pytest.mark.parametrize("family, certificates", [
        ("sharpness", "linear"), ("sharpness", "bogus"),
        ("dented", "symdiff"), ("dented", "main"), ("dented", "bogus")])
    def test_rejects_certificates_not_run(self, family, certificates):
        """A certificate the family does not run raises instead of returning
        rows with nan where that certificate's numbers belong."""
        with pytest.raises(ValueError, match="runs certificates"):
            sweep(family, [0.1], HALF0, spacing=0.01, certificates=certificates)
