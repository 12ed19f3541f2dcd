import math
from fractions import Fraction

import numpy as np
import pytest

from bblab import (
    GridFunction,
    MeanParams,
    deficit,
    gen_sharpness_pair,
    integral,
    level_set,
    minkowski_combination,
    p_mean_arr,
    sup_convolution,
    translate,
    verify_bbl_hypothesis,
)
from bblab.gridfn import _offset_cells
from bblab.supconv import _snap
from conftest import hat, indicator, random_staircase

HALF = MeanParams(Fraction(1, 2), 0.0)
# a binary spacing: whole-cell offsets and lam-combinations of centers are
# exact rationals, so boundary ties snap the same way in the oracle
SP = 0.125


# --- independent oracle: pure-Python pair loop with exact rational snapping

def supconv_oracle(f, g, lam: Fraction, p: float):
    """Map output cell index (on f's lattice; a tuple in 2-D) -> sup of means.

    Brute force over all pairs, with means from p_mean_arr.  The
    combination point z = lam*x + (1-lam)*y is computed as an exact rational
    position and assigned, per axis, to the half-open cell [k*h, (k+1)*h)."""
    h = Fraction(f.spacing)
    of = [Fraction(o) for o in f.origin]
    og = [Fraction(o) for o in g.origin]
    out = {}
    for i in np.argwhere(f.values > 0):
        x = [o + (Fraction(int(a)) + Fraction(1, 2)) * h for o, a in zip(of, i)]
        for j in np.argwhere(g.values > 0):
            y = [o + (Fraction(int(a)) + Fraction(1, 2)) * h for o, a in zip(og, j)]
            z = [lam * xd + (1 - lam) * yd for xd, yd in zip(x, y)]
            k = tuple(math.floor((zd - o) / h) for zd, o in zip(z, of))
            k = k[0] if f.dim == 1 else k
            m = float(p_mean_arr(float(lam), p, f.values[tuple(i)], g.values[tuple(j)]))
            out[k] = max(out.get(k, 0.0), m)
    return out


def assert_matches_supconv_oracle(f, g, lam, p, n=1):
    """sup_convolution equals the oracle at rel 1e-12, support included."""
    out = sup_convolution(f, g, MeanParams(lam, p, n=n))
    ref = supconv_oracle(f, g, lam, p)
    k0 = np.round((np.array(out.origin) - np.array(f.origin)) / f.spacing).astype(int)
    for k, v in ref.items():
        assert out.values[tuple(np.atleast_1d(k) - k0)] == pytest.approx(v, rel=1e-12)
    got = {tuple(int(x) for x in c + k0) for c in np.argwhere(out.values > 0)}
    assert got == {tuple(np.atleast_1d(k).tolist()) for k in ref}


def spread_values(rng, shape, zero_frac=0.25):
    """Positive values spread over 10^-40 .. 10^40, with some zero cells."""
    vals = 10.0 ** rng.uniform(-40, 40, size=shape)
    vals[rng.random(shape) < zero_frac] = 0.0
    vals.flat[0] = 1.0
    return vals


def _pair_cells(f, g, h, params):
    """Every pair of positive cells of f and g: (f cells, g cells, means,
    cells of h's lattice that z = lam*x + (1-lam)*y snaps to, in h's grid)."""
    frac = params.lam_fraction
    a, b = frac.numerator, frac.denominator
    off_g = np.array(_offset_cells(f, g))
    off_h = np.array(_offset_cells(f, h))
    idx_f = np.argwhere(f.values > 0)
    idx_g = np.argwhere(g.values > 0)
    m = p_mean_arr(params.lam_float, params.p,
                   f.values[tuple(idx_f.T)][:, None], g.values[tuple(idx_g.T)][None, :])
    s = a * idx_f[:, None, :] + (b - a) * (idx_g + off_g)[None, :, :]
    k = _snap(s, b) - off_h
    inside = np.all((k >= 0) & (k < np.array(h.shape)), axis=-1)
    return idx_f, idx_g, m, k, inside


def violation_scan_oracle(f, g, h, params, tol):
    """Reference hypothesis check: every pair of positive cells of f and g.

    Counts (and lists, in (f index, g index) order) the pairs with
    M(f(x), g(y)) > h(z) + tol, where z = lam*x + (1-lam)*y is snapped onto
    h's lattice with the integer rule of sup_convolution; h is zero off its
    grid."""
    if not (f.values > 0).any() or not (g.values > 0).any():
        return 0, []
    idx_f, idx_g, m, k, inside = _pair_cells(f, g, h, params)
    hvals = np.zeros(m.shape)
    hvals[inside] = h.values[tuple(k[inside].T)]
    bad = m > hvals + tol

    def position(grid, idx):
        pos = tuple(grid.origin[d] + (idx[d] + 0.5) * grid.spacing for d in range(grid.dim))
        return pos[0] if grid.dim == 1 else pos

    found = [
        (position(f, idx_f[i]), position(g, idx_g[j]), float(m[i, j] - hvals[i, j]))
        for i, j in np.argwhere(bad)
    ]
    return int(bad.sum()), found


def near_tie_h(f, g, h, params):
    """h on h's grid plus one more cell per axis, so that every cell that
    receives a pair holds the largest float t with fl(t + tol) < the cell's
    largest pair mean.  The extra corner cell receives no pair and holds 4x
    the largest mean, which fixes max(h) and so tol = 1e-9 * max(h)."""
    h = h.with_values(np.pad(h.values, [(0, 1)] * h.dim))
    _, _, m, k, inside = _pair_cells(f, g, h, params)
    top = np.zeros(h.shape)
    np.maximum.at(top, tuple(k[inside].T), m[inside])
    sentinel = 4.0 * top.max()
    tol = 1e-9 * sentinel
    t = np.where(top > 0, top - tol, 0.0)
    while True:
        down = (top > 0) & (t + tol >= top)
        up = (top > 0) & (np.nextafter(t, np.inf) + tol < top)
        if not (down.any() or up.any()):
            break
        t = np.where(down, np.nextafter(t, -np.inf), np.where(up, np.nextafter(t, np.inf), t))
    t[(-1,) * h.dim] = sentinel
    return h.with_values(t)


def minkowski_oracle(A, B, lam: Fraction):
    h = Fraction(A.spacing)
    oa = Fraction(A.origin[0])
    ob = Fraction(B.origin[0])
    cells = set()
    for i in np.flatnonzero(A.mask):
        x = oa + (Fraction(int(i)) + Fraction(1, 2)) * h
        for j in np.flatnonzero(B.mask):
            y = ob + (Fraction(int(j)) + Fraction(1, 2)) * h
            z = lam * x + (1 - lam) * y
            cells.add(math.floor((z - oa) / h))
    return cells


class TestSupConvolution:
    def test_indicator_same(self):
        f = indicator(0.0, 1.0, 0.1)
        out = sup_convolution(f, f, HALF)
        assert integral(out) == pytest.approx(1.0, rel=1e-12)
        assert out.shape == f.shape
        assert np.allclose(out.values, 1.0)

    def test_indicator_disjoint(self):
        f = indicator(0.0, 1.0, 0.1)
        g = indicator(2.0, 3.0, 0.1)
        out = sup_convolution(f, g, HALF)
        assert out.origin[0] == pytest.approx(1.0)
        assert out.shape[0] == 10
        assert np.allclose(out.values, 1.0)

    def test_sharpness_pair_below_h(self):
        f, g, h = gen_sharpness_pair(0.01, spacing=1e-3)
        out = sup_convolution(f, g, HALF)
        # the geometric mean of the two heights is exactly 1, the value of h
        # on its interval; only h's half-mass boundary cell may sit below
        assert (out.values <= 1.0 + 1e-9).all()
        vf, vh, _, sp = __import__("bblab").gridfn.common_grid(out, h)
        assert (vf[vh == 1.0] <= 1.0 + 1e-9).all()

    @pytest.mark.parametrize("p", [-0.4, -0.25, -1e-7, 0.0, 1e-9, 1e-4, 1.0, 2.0])
    def test_matches_oracle(self, p, rng):
        for trial in range(15):
            f = random_staircase(rng, n_max=12, spacing=SP)
            g = random_staircase(rng, n_max=12, origin=float(rng.integers(-3, 4)) * SP, spacing=SP)
            if trial >= 10:  # values spread over 10^+-40
                f = f.with_values(spread_values(rng, f.shape))
                g = g.with_values(spread_values(rng, g.shape))
            assert_matches_supconv_oracle(f, g, Fraction(1, 2), p)
        if p == 2.0:  # cells at 1e200: an unscaled lift overflows
            f = random_staircase(rng, n_max=12, spacing=SP)
            g = random_staircase(rng, n_max=12, spacing=SP)
            assert_matches_supconv_oracle(f.with_values(f.values * 1e200),
                                          g.with_values(g.values * 1e200), Fraction(1, 2), p)

    def test_matches_oracle_third(self, rng):
        for lam in (Fraction(1, 3), Fraction(2, 5), Fraction(3, 8)):
            for p in (-0.4, -1e-7, 1e-9, 1e-4, 0.5, 2.0):
                for trial in range(4):
                    f = random_staircase(rng, n_max=10, spacing=SP)
                    g = random_staircase(rng, n_max=10, origin=float(rng.integers(-3, 4)) * SP,
                                         spacing=SP)
                    if trial == 3:
                        f = f.with_values(spread_values(rng, f.shape))
                        g = g.with_values(spread_values(rng, g.shape))
                    assert_matches_supconv_oracle(f, g, lam, p)

    def test_matches_oracle_2d(self, rng):
        for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 8)):
            for p in (-0.4, -1e-7, 0.0, 1e-9, 1e-4, 2.0):
                for trial in range(3):
                    vals = rng.uniform(0, 1, size=(5, 4))
                    vals[vals < 0.4] = 0.0
                    vals[2, 2] = 0.7
                    if trial == 2:
                        vals = spread_values(rng, (4, 5))
                    f = GridFunction(2, (0.0, 0.0), SP, vals)
                    g = f if trial == 0 else GridFunction(
                        2, tuple(SP * rng.integers(-3, 4, size=2)), SP,
                        rng.uniform(0.1, 1, size=(3, 4)) * (1e200 if p == 2.0 else 1.0))
                    if g is not f and p == 2.0:
                        f = f.with_values(f.values * 1e200)
                    assert_matches_supconv_oracle(f, g, lam, p, n=2)

    def test_pointwise_domination(self, rng):
        for p in (-0.25, 0.0, 1.0):
            f = random_staircase(rng)
            out = sup_convolution(f, f, MeanParams(Fraction(1, 2), p))
            k0 = round((out.origin[0] - f.origin[0]) / f.spacing)
            for i, v in enumerate(f.values):
                j = i - k0
                if 0 <= j < out.shape[0]:
                    assert out.values[j] >= v - 1e-12
                else:
                    assert v == 0.0  # outside the combined support hull

    def test_monotone_in_inputs(self, rng):
        f = random_staircase(rng)
        g = random_staircase(rng)
        f2 = f.with_values(f.values * 1.3)
        g2 = g.with_values(g.values + 0.2 * (g.values > 0))
        a = sup_convolution(f, g, HALF)
        b = sup_convolution(f2, g2, HALF)
        assert np.all(a.values <= b.values + 1e-12)

    def test_monotone_in_p(self, rng):
        f = random_staircase(rng)
        g = random_staircase(rng)
        prev = None
        for p in (-0.4, 0.0, 0.7, 2.0):
            cur = sup_convolution(f, g, MeanParams(Fraction(1, 2), p))
            if prev is not None:
                assert np.all(prev.values <= cur.values + 1e-12)
            prev = cur

    def test_translation_covariance(self, rng):
        f = random_staircase(rng)
        g = random_staircase(rng)
        base = sup_convolution(f, g, HALF)
        shifted = sup_convolution(translate(f, [4]), translate(g, [2]), HALF)
        expect = translate(base, [3])  # (4 + 2) / 2
        assert shifted.origin == pytest.approx(expect.origin)
        assert np.array_equal(shifted.values, expect.values)

    def test_incommensurate_lambda_rejected(self):
        f = indicator(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            sup_convolution(f, f, MeanParams(1 / math.pi, 0.0))


class TestMinkowski:
    def test_same_interval(self):
        A = level_set(indicator(0.0, 1.0, 0.1), 0.0)
        C = minkowski_combination(A, A, Fraction(1, 2))
        assert C.measure == pytest.approx(A.measure)

    def test_disjoint_intervals(self):
        A = level_set(indicator(0.0, 1.0, 0.1), 0.0)
        B = level_set(indicator(2.0, 3.0, 0.1), 0.0)
        C = minkowski_combination(A, B, Fraction(1, 2))
        assert C.origin[0] == pytest.approx(1.0)
        assert C.measure == pytest.approx(1.0)

    def test_measure_lower_bound_and_oracle(self, rng):
        for _ in range(40):
            f = random_staircase(rng, n_max=14, zero_frac=0.5)
            g = random_staircase(rng, n_max=14, zero_frac=0.5)
            A = level_set(f, 0.0)
            B = level_set(g, 0.0)
            C = minkowski_combination(A, B, Fraction(1, 2))
            ref = minkowski_oracle(A, B, Fraction(1, 2))
            k0 = round((C.origin[0] - A.origin[0]) / A.spacing)
            got = {k0 + int(i) for i in np.flatnonzero(C.mask)}
            assert got == ref
            assert C.measure >= min(A.measure, B.measure) - 1e-12

    def test_indicator_law(self, rng):
        for _ in range(20):
            f = random_staircase(rng, zero_frac=0.5)
            g = random_staircase(rng, zero_frac=0.5)
            fi = f.with_values((f.values > 0).astype(float))
            gi = g.with_values((g.values > 0).astype(float))
            sc = sup_convolution(fi, gi, HALF)
            mk = minkowski_combination(level_set(fi, 0.0), level_set(gi, 0.0), Fraction(1, 2))
            k0 = round((sc.origin[0] - mk.origin[0]) / f.spacing)
            sc_cells = {k0 + int(i) for i in np.flatnonzero(sc.values > 0.5)}
            mk_cells = set(np.flatnonzero(mk.mask).tolist())
            assert sc_cells == mk_cells
            assert set(np.unique(sc.values)) <= {0.0, 1.0}


class TestDeficit:
    def test_equality_case_hat(self):
        f = hat(width=1.0, height=1.0, spacing=0.02)
        params = MeanParams(Fraction(1, 2), 1.0)
        h = sup_convolution(f, f, params)
        rep = deficit(f, f, h, params)
        supp = (f.values > 0).sum() * f.spacing
        assert 0.0 <= rep.delta <= 2 * f.spacing / supp
        assert rep.pointwise_violations == 0

    def test_sharpness_value(self):
        f, g, h = gen_sharpness_pair(0.01, spacing=1e-3)
        rep = deficit(f, g, h, HALF, verify=False)
        assert rep.delta == pytest.approx((1.1 + 1 / 1.1) / 2 - 1, abs=2e-3)

    def test_scaled(self, rng):
        f = random_staircase(rng)
        h = f.with_values(1.05 * f.values)
        rep = deficit(f, f, h, MeanParams(Fraction(1, 2), 1.0), verify=False)
        assert rep.delta == pytest.approx(0.05, rel=1e-12)

    def test_zero_mass_rejected(self):
        z = GridFunction(1, (0.0,), 0.1, np.zeros(3))
        f = indicator(0.0, 1.0, 0.1)
        with pytest.raises(Exception):
            deficit(z, f, f, HALF)

    def test_discrete_bbl_direction(self, rng):
        # for the canonical h and equal masses the deficit is nonnegative
        from bblab import normalize

        for p in (-0.25, 0.0, 1.0):
            params = MeanParams(Fraction(1, 2), p)
            for _ in range(10):
                f = normalize(random_staircase(rng))
                g = normalize(random_staircase(rng))
                h = sup_convolution(f, g, params)
                rep = deficit(f, g, h, params)
                assert rep.pointwise_violations == 0
                assert rep.delta >= -1e-12

    def test_2d_exact_verification(self, rng):
        vals = rng.uniform(0.1, 1.0, size=(6, 6))
        f = GridFunction(2, (0.0, 0.0), 0.1, vals)
        g = GridFunction(2, (0.2, -0.1), 0.1, rng.uniform(0.1, 1.0, size=(5, 6)))
        params = MeanParams(Fraction(1, 2), 0.0, n=2)
        h = sup_convolution(f, f, params)
        assert deficit(f, f, h, params).pointwise_violations == 0
        # dent the peak of the canonical h: the pairs feeding it violate
        h = sup_convolution(f, g, params)
        node = np.unravel_index(int(np.argmax(h.values)), h.shape)
        dented = h.values.copy()
        dented[node] -= 1e-3
        h2 = h.with_values(dented)
        rep = deficit(f, g, h2, params)
        bad = verify_bbl_hypothesis(f, g, h2, params)
        count, ref = violation_scan_oracle(f, g, h2, params, rep.tol)
        assert bad and bad == ref
        assert rep.pointwise_violations == count == len(bad)
        for x, y, gap in bad:
            z = [Fraction(xi) / 2 + Fraction(yi) / 2 for xi, yi in zip(x, y)]
            k = tuple(math.floor((zd - Fraction(od)) / Fraction(h.spacing))
                      for zd, od in zip(z, h.origin))
            assert k == node
            assert gap > 0

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [-0.25, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                                     Fraction(3, 8)])
    def test_matches_pair_scan_oracle(self, lam, p, dim, rng, monkeypatch):
        """Counts and witness lists equal the exhaustive pair scan, for h
        canonical, jittered, a near-tie below canonical, zero, or (near_tie_h)
        just below every cell's largest pair mean, by less than the
        sup-convolution's rounding, with g and h on grids offset by whole
        cells (h may also be cropped).  The last five trials split the pair
        enumeration into batches of a few pairs."""
        import bblab.supconv as sc

        params = MeanParams(lam, p, n=dim)
        sp = 0.1
        for trial in range(10):
            monkeypatch.setattr(sc, "_PAIRS_PER_BATCH", 3 if trial >= 5 else 1 << 20)
            shape_f = tuple(int(n) for n in rng.integers(1, 9 if dim == 1 else 5, size=dim))
            shape_g = tuple(int(n) for n in rng.integers(1, 9 if dim == 1 else 5, size=dim))
            vf = rng.uniform(0.1, 2.0, size=shape_f) * (rng.random(shape_f) > 0.25)
            vg = rng.uniform(0.1, 2.0, size=shape_g) * (rng.random(shape_g) > 0.25)
            vf.flat[0] = vg.flat[-1] = 1.0  # nonempty supports
            f = GridFunction(dim, (0.0,) * dim, sp, vf)
            g = GridFunction(dim, tuple(sp * rng.integers(-4, 5, size=dim)), sp, vg)
            h = sup_convolution(f, g, params)
            mode = trial % 5
            if mode == 1:
                hv = h.values * rng.uniform(0.9, 1.1, size=h.shape)
            elif mode == 2:
                hv = h.values * (1.0 - 1e-12)
            elif mode == 3:
                hv = np.zeros(h.shape)
            else:
                hv = h.values
            # re-embed h: zero cells in front (origin moves back by whole
            # cells) and possibly one cell cropped at the back
            pad = rng.integers(0, 3, size=dim)
            hv = np.pad(hv, [(int(q), 0) for q in pad])
            crop = tuple(slice(0, n - int(rng.integers(0, 2)) if n > 1 else n) for n in hv.shape)
            origin = tuple(o - int(q) * sp for o, q in zip(h.origin, pad))
            h = GridFunction(dim, origin, sp, hv[crop])
            if mode == 4:
                h = near_tie_h(f, g, h, params)
            rep = deficit(f, g, h, params)
            count, ref = violation_scan_oracle(f, g, h, params, rep.tol)
            assert rep.pointwise_violations == count
            assert verify_bbl_hypothesis(f, g, h, params) == ref


class TestVerifyHypothesis:
    def test_canonical_clean(self, rng):
        for p in (-0.25, 0.0, 1.0):
            params = MeanParams(Fraction(1, 2), p)
            f = random_staircase(rng)
            g = random_staircase(rng)
            h = sup_convolution(f, g, params)
            assert verify_bbl_hypothesis(f, g, h, params) == []

    def test_zero_h_all_pairs(self, rng):
        f = indicator(0.0, 0.3, 0.1)
        g = indicator(0.0, 0.3, 0.1)
        h = GridFunction(1, (0.0,), 0.1, np.zeros(3))
        bad = verify_bbl_hypothesis(f, g, h, HALF)
        assert len(bad) == 9
        # at p = 100 the lifts of 1e-4 and 2e-4 underflow to 0 and their
        # cell gets M* = 0; the values span too much for the filter's
        # margin, so every cell is checked pair by pair
        f = GridFunction(1, (0.0,), 0.1, np.array([1e-4, 0.0, 0.0, 0.0, 1.0]))
        g = GridFunction(1, (0.0,), 0.1, np.array([2e-4]))
        bad = verify_bbl_hypothesis(f, g, h, MeanParams(Fraction(1, 2), 100.0))
        assert len(bad) == 2

    def test_dent_flags_feeding_pairs(self, rng):
        f = random_staircase(rng, n_min=6, n_max=10, zero_frac=0.0)
        g = random_staircase(rng, n_min=6, n_max=10, zero_frac=0.0)
        params = MeanParams(Fraction(1, 2), 0.0)
        h = sup_convolution(f, g, params)
        node = int(np.argmax(h.values))
        dented = h.values.copy()
        dented[node] -= 1e-3
        h2 = h.with_values(dented)
        bad = verify_bbl_hypothesis(f, g, h2, params)
        assert bad, "a dented canonical h must violate"
        ref = supconv_oracle(f, g, Fraction(1, 2), 0.0)
        k0 = round((h.origin[0] - f.origin[0]) / f.spacing)
        # every reported pair must feed exactly the dented node
        hfrac = Fraction(f.spacing)
        for x, y, gap in bad:
            z = Fraction(x) / 2 + Fraction(y) / 2
            k = math.floor((z - Fraction(f.origin[0])) / hfrac)
            assert k == node + k0
            assert gap > 0
