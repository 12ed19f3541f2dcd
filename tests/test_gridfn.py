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
from conftest import indicator, logconcave_bump, random_staircase


# --- reference GFN value I/O: one numpy scalar per value; dump_gfn and
#     load_gfn must give the same bytes and the same floats

def dump_values_oracle(f: GridFunction) -> str:
    return "".join(" ".join(repr(float(x)) for x in row) + "\n"
                   for row in f.values.reshape(-1, f.shape[-1]))


def load_values_oracle(text: str) -> np.ndarray:
    flat = []
    for line in text.splitlines()[1:]:
        flat.extend(float(t) for t in line.split())
    return np.asarray(flat, dtype=float)


def layer_cake_oracle(f: GridFunction, n_heights=None) -> float:
    """The layer cake with one mask per height: a loop over the distinct
    values, or an (n_heights, cells) comparison for the midpoint rule."""
    m = f.max()
    if m == 0.0:
        return 0.0
    cv = f.cell_volume
    vals = f.values.ravel()
    if n_heights is None:
        knots = np.unique(np.concatenate(([0.0], vals[vals > 0])))
        total = 0.0
        for lo, hi in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (lo + hi)
            total += (hi - lo) * (vals > mid).sum() * cv
        return float(total)
    ts = (np.arange(n_heights) + 0.5) * (m / n_heights)
    meas = (vals[None, :] > ts[:, None]).sum(axis=1) * cv
    return float(meas.sum() * (m / n_heights))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_origin_and_spacing(self, bad):
        with pytest.raises(ValueError, match="origin must be finite"):
            GridFunction(2, (0.0, bad), 0.1, np.ones((2, 3)))
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            GridFunction(1, (0.0,), bad, np.ones(3))

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
    @pytest.mark.parametrize("args, message", [
        ((0, np.ones(5, bool), (0.0,), 0.1), "dim must be 1, 2 or 3"),
        ((4, np.ones((1, 1, 1, 1), bool), (0.0,) * 4, 0.1), "dim must be 1, 2 or 3"),
        ((2, np.ones(5, bool), (0.0, 0.0), 0.1), "mask must be a 2-d array"),
        ((1, np.ones((5, 1), bool), (0.0,), 0.1), "mask must be a 1-d array"),
        ((1, np.ones(5, bool), (0.0, 0.0), 0.1), "origin length must equal dim"),
        ((2, np.ones((2, 2), bool), (0.0,), 0.1), "origin length must equal dim"),
        ((1, np.ones(5, bool), (np.nan,), 0.1), "origin must be finite"),
        ((2, np.ones((2, 2), bool), (0.0, np.inf), 0.1), "origin must be finite"),
        ((1, np.ones(5, bool), (0.0,), -1.0), "spacing must be positive and finite"),
        ((1, np.ones(5, bool), (0.0,), 0.0), "spacing must be positive and finite"),
        ((1, np.ones(5, bool), (0.0,), np.inf), "spacing must be positive and finite"),
        ((1, np.ones(5, bool), (0.0,), np.nan), "spacing must be positive and finite"),
    ])
    def test_rejects_inconsistent_grid(self, args, message):
        """The grid checks of GridFunction, with its messages: unchecked, a
        negative spacing gives a negative measure, and a 1-D mask with dim 2
        an IndexError deep in the convex hull."""
        with pytest.raises(ValueError, match=message):
            LevelSet(*args)

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

    def test_rejects_no_heights(self):
        """n_heights < 1 raises on a zero function as on any other."""
        zero = GridFunction(1, (0.0,), 0.1, np.zeros(4))
        for f in (zero, indicator(0.0, 1.0, 0.1)):
            for n in (0, -1):
                with pytest.raises(ValueError):
                    layer_cake_integral(f, n)

    def test_exact_mode_on_staircases(self, rng):
        for _ in range(50):
            f = random_staircase(rng)
            assert layer_cake_integral(f) == pytest.approx(integral(f), rel=1e-12)

    def test_matches_mask_oracle(self, rng):
        """Random, tied, 10^+-100 and all-zero values in 1-D and 2-D: the
        same floats as one mask per height."""
        for k in range(100):
            shape = ((int(rng.integers(1, 40)),) if k // 4 % 2
                     else tuple(int(n) for n in rng.integers(1, 9, size=2)))
            vals = [rng.uniform(0.0, 2.0, shape), rng.choice([0.0, 0.5, 1.0, 1.5], size=shape),
                    10.0 ** rng.uniform(-100.0, 100.0, shape) * (rng.random(shape) < 0.8),
                    np.zeros(shape)][k % 4]
            f = GridFunction(len(shape), (0.3,) * len(shape), 0.07, vals)
            for n in (None, 1, 7, 100):
                assert layer_cake_integral(f, n) == layer_cake_oracle(f, n)

    def test_many_heights(self):
        """10^6 heights on 10^4 cells: one mask per height would take 10^10
        bytes."""
        f = logconcave_bump(width=2.0, spacing=2e-4)
        n = 10 ** 6
        supp = (f.values > 0).sum() * f.spacing
        assert abs(layer_cake_integral(f, n) - integral(f)) <= f.max() * supp / n


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
        off = LevelSet(1, s.mask, (f.origin[0] + f.spacing,), f.spacing)
        short = LevelSet(1, s.mask[:-1], f.origin, f.spacing)
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

    @pytest.mark.parametrize("header, field", [
        ("gfn 1 0.1 nan 3", "origin"), ("gfn 1 0.1 inf 3", "origin"),
        ("gfn 2 0.1 0.0 -inf 1 3", "origin"),
        ("gfn 1 inf 0.0 3", "spacing"), ("gfn 1 nan 0.0 3", "spacing")])
    def test_rejects_non_finite_header(self, header, field, tmp_path):
        path = tmp_path / "bad.gfn"
        path.write_text(header + "\n1.0 2.0 0.5\n")
        with pytest.raises(ValueError, match=field):
            load_gfn(path)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "bad2.gfn"
        path.write_text("nope 1 0.1 0.0 3\n1 2 3\n")
        with pytest.raises(ValueError):
            load_gfn(path)

    @pytest.mark.parametrize("shape", [(1,), (37,), (1, 1), (5, 8), (3, 1, 4), (2, 5, 6)])
    def test_values_match_oracle(self, shape, tmp_path, rng):
        """Random, subnormal, 1e+-300 and integer-valued grids in dims 1 to
        3: the same bytes as a per-value repr, the same floats as a
        per-value parse."""
        n = int(np.prod(shape))
        cases = [rng.uniform(0.0, 2.0, n),
                 rng.integers(1, 2 ** 40, n) * 5e-324,
                 10.0 ** rng.uniform(-300.0, 300.0, n) * (rng.random(n) < 0.8),
                 rng.integers(0, 1000, n).astype(float),
                 rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-320, 300, n)]
        for k, vals in enumerate(cases):
            f = GridFunction(len(shape), (-0.35,) * len(shape), 0.1, vals.reshape(shape))
            path = tmp_path / f"v{k}.gfn"
            dump_gfn(f, path)
            text = path.read_text()
            assert text.split("\n", 1)[1] == dump_values_oracle(f)
            g = load_gfn(path)
            assert g.values.shape == f.shape
            assert np.array_equal(g.values.reshape(-1), load_values_oracle(text))
            assert np.array_equal(g.values, f.values)
