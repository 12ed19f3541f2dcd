import numpy as np
import pytest

from bblab import (
    GeometryMismatchError,
    GridFunction,
    LevelSet,
    ZeroMassError,
    cap,
    dump_gfn,
    integral,
    l1_distance,
    layer_cake_integral,
    level_set,
    load_gfn,
    normalize,
    restrict,
    translate,
)
from conftest import indicator, random_staircase


class TestConstruction:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            GridFunction(1, (0.0,), 0.1, np.array([1.0, -0.1]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            GridFunction(1, (0.0,), 0.1, np.array([1.0, np.nan]))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            GridFunction(1, (0.0,), 0.0, np.ones(3))

    def test_values_immutable(self):
        f = GridFunction(1, (0.0,), 0.1, np.ones(3))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestIntegral:
    def test_unit_indicator(self):
        assert integral(indicator(0.0, 1.0, 0.1)) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self):
        f = GridFunction(1, (0.0,), 0.1, np.zeros(5))
        assert integral(f) == 0.0

    def test_matches_bruteforce(self, rng):
        for _ in range(30):
            f = random_staircase(rng)
            brute = sum(float(v) for v in f.values) * f.spacing
            assert integral(f) == pytest.approx(brute, rel=1e-14)

    def test_2d(self):
        f = GridFunction(2, (0.0, 0.0), 0.5, np.ones((2, 2)))
        assert integral(f) == pytest.approx(1.0)


class TestL1:
    def test_identical(self, rng):
        f = random_staircase(rng)
        assert l1_distance(f, f) == 0.0

    def test_indicator_vs_zero(self):
        f = indicator(0.0, 1.0, 0.01)
        z = GridFunction(1, (0.0,), 0.01, np.zeros(100))
        assert l1_distance(f, z) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(25):
            f, g, h = (random_staircase(rng, n_min=8, n_max=8) for _ in range(3))
            assert l1_distance(f, h) <= l1_distance(f, g) + l1_distance(g, h) + 1e-12

    def test_geometry_mismatch(self):
        f = indicator(0.0, 1.0, 0.1)
        g = indicator(0.0, 1.0, 0.2)
        with pytest.raises(GeometryMismatchError):
            l1_distance(f, g)
        g2 = GridFunction(1, (0.05,), 0.1, np.ones(10))
        with pytest.raises(GeometryMismatchError):
            l1_distance(f, g2)


class TestLevelSet:
    def test_above_max_empty(self, rng):
        f = random_staircase(rng)
        assert level_set(f, f.max()).cell_count == 0

    def test_zero_gives_support(self, rng):
        f = random_staircase(rng)
        assert level_set(f, 0.0).cell_count == int((f.values > 0).sum())

    def test_strictness_on_staircase(self):
        f = GridFunction(1, (0.0,), 1.0, np.array([0.2, 0.5, 0.9]))
        ls = level_set(f, 0.5)
        assert ls.intervals() == [(2, 3)]

    def test_nesting(self, rng):
        for _ in range(20):
            f = random_staircase(rng)
            t1, t2 = sorted(rng.uniform(0, f.max(), size=2))
            hi = level_set(f, t2).mask
            lo = level_set(f, t1).mask
            assert not (hi & ~lo).any()


class TestLayerCake:
    def test_indicator_exact_any_n(self):
        f = indicator(0.0, 1.0, 0.05, height=0.7)
        for n in (1, 3, 10, 100):
            assert layer_cake_integral(f, n) == pytest.approx(integral(f), rel=1e-12)

    def test_hat_quadrature_bound(self):
        from conftest import hat

        f = hat(width=1.0, height=1.0, spacing=0.01)
        n = 10 ** 4
        supp = (f.values > 0).sum() * f.spacing
        err = abs(layer_cake_integral(f, n) - integral(f))
        assert err <= f.max() * supp / n

    def test_zero(self):
        f = GridFunction(1, (0.0,), 0.1, np.zeros(4))
        assert layer_cake_integral(f, 10) == 0.0

    def test_exact_mode_on_staircases(self, rng):
        for _ in range(50):
            f = random_staircase(rng)
            assert layer_cake_integral(f) == pytest.approx(integral(f), rel=1e-12)


class TestTranslateCapNormalizeRestrict:
    def test_translate_identity(self, rng):
        f = random_staircase(rng)
        g = translate(f, [0])
        assert g.origin == f.origin
        assert np.array_equal(g.values, f.values)

    def test_translate_roundtrip(self, rng):
        f = random_staircase(rng)
        g = translate(translate(f, [3]), [-3])
        assert g.origin == pytest.approx(f.origin)
        assert np.array_equal(g.values, f.values)

    def test_translate_preserves_integral_and_l1(self, rng):
        f = random_staircase(rng, origin=0.0)
        g = random_staircase(rng, origin=0.0)
        d0 = l1_distance(f, g)
        assert integral(translate(f, [5])) == integral(f)
        assert l1_distance(translate(f, [5]), translate(g, [5])) == pytest.approx(d0, abs=1e-15)

    def test_translate_rejects_fractional(self, rng):
        with pytest.raises(ValueError):
            translate(random_staircase(rng), [0.5])

    def test_cap(self, rng):
        f = random_staircase(rng)
        assert np.array_equal(cap(f, f.max() + 1).values, f.values)
        assert not cap(f, 0.0).values.any()
        a, b = sorted(rng.uniform(0.1, 1.5, size=2))
        lhs = cap(cap(f, b), a).values
        rhs = cap(f, min(a, b)).values
        assert np.array_equal(lhs, rhs)

    def test_cap_lipschitz_in_level(self, rng):
        for _ in range(20):
            f = random_staircase(rng)
            a, b = rng.uniform(0.0, f.max(), size=2)
            supp = (f.values > 0).sum() * f.spacing
            assert l1_distance(cap(f, a), cap(f, b)) <= abs(a - b) * supp + 1e-12

    def test_normalize(self, rng):
        f = random_staircase(rng)
        assert integral(normalize(f)) == pytest.approx(1.0, rel=1e-12)
        two = f.with_values(2 * f.values)
        assert np.allclose(normalize(two).values, normalize(f).values, rtol=1e-14)
        with pytest.raises(ZeroMassError):
            normalize(f.with_values(np.zeros_like(f.values)))

    def test_restrict(self, rng):
        f = random_staircase(rng)
        full = level_set(f, 0.0)
        assert np.array_equal(restrict(f, full).values, f.values)
        empty = level_set(f, f.max())
        assert not restrict(f, empty).values.any()
        t = float(rng.uniform(0, f.max()))
        s = level_set(f, t)
        a = integral(restrict(f, s))
        b = integral(restrict(f, ~s.mask))
        assert a + b == pytest.approx(integral(f), rel=1e-12)

    def test_restrict_rejects_other_grids(self, rng):
        """A level set one cell off the grid, or of another shape, raises."""
        f = random_staircase(rng, n_min=8)
        s = level_set(f, 0.0)
        off = LevelSet(1, 0.0, s.mask, (f.origin[0] + f.spacing,), f.spacing)
        short = LevelSet(1, 0.0, s.mask[:-1], f.origin, f.spacing)
        for bad in (off, short):
            with pytest.raises(GeometryMismatchError):
                restrict(f, bad)


class TestGfnFormat:
    def test_roundtrip_1d(self, tmp_path, rng):
        f = random_staircase(rng, origin=-0.35)
        path = tmp_path / "f.gfn"
        dump_gfn(f, path)
        g = load_gfn(path)
        assert g.dim == f.dim and g.spacing == f.spacing
        assert g.origin == pytest.approx(f.origin)
        assert np.array_equal(g.values, f.values)

    def test_roundtrip_2d(self, tmp_path):
        f = GridFunction(2, (0.5, -1.0), 0.25, np.arange(12, dtype=float).reshape(3, 4))
        path = tmp_path / "f2.gfn"
        dump_gfn(f, path)
        g = load_gfn(path)
        assert np.array_equal(g.values, f.values)
        assert g.origin == pytest.approx(f.origin)

    def test_rejects_negative_values(self, tmp_path):
        path = tmp_path / "bad.gfn"
        path.write_text("gfn 1 0.1 0.0 3\n1.0 -2.0 0.5\n")
        with pytest.raises(ValueError):
            load_gfn(path)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "bad2.gfn"
        path.write_text("nope 1 0.1 0.0 3\n1 2 3\n")
        with pytest.raises(ValueError):
            load_gfn(path)
