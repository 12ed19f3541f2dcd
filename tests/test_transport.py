from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bblab import (
    DiagnosticsReport,
    GeometryMismatchError,
    GridFunction,
    LevelSet,
    MassMismatchError,
    MeanParams,
    convex_hull_set,
    deficit,
    gen_dented,
    gen_two_bump,
    height_transport,
    hull_deficit,
    integral,
    level_diagnostics,
    level_set,
    minkowski_combination,
    normalize,
    p_mean_arr,
    pushforward_check,
    spatial_transport,
    sup_convolution,
    translate,
)
from bblab import transport
from bblab.means import _mean
from bblab.supconv import _reach
from bblab.transport import (_check_masses, _height_cdf, _mean_knots, _min_shift_symdiff,
                             _pl_inverse)
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


def level_diagnostics_oracle(f, g, h, params, alpha):
    """Reference diagnostics: per height interval, one LevelSet mask of each
    of f, g and h and one call of each mask kernel, the bad masses and the
    hull gap added in knot order from 0.0."""
    _check_masses(f, g)
    fn, gn = normalize(f), normalize(g)
    if h is None:
        hn, h_convention = sup_convolution(fn, gn, params), "canonical"
    else:
        hn, h_convention = h.with_values(h.values / integral(f)), "user"
    T = height_transport(fn, gn)
    kf, cf = _height_cdf(fn)
    kg, cg = _height_cdf(gn)
    lam, p, n = params.lam_float, params.p, fn.dim
    knots = set(kf.tolist())
    knots.update(np.asarray(_pl_inverse(kf, cf, cg)).tolist())
    maxf = fn.max()
    hvals = np.unique(hn.values[hn.values > 0])
    top = p_mean_arr(lam, p, maxf, T(maxf))
    knots.update(_mean_knots(lam, p, T, maxf, hvals[hvals < top]).tolist())
    knots = np.array(sorted(k for k in knots if 0.0 <= k <= maxf))
    tms = 0.5 * (knots[:-1] + knots[1:])
    ss = T(tms)
    us = p_mean_arr(lam, p, tms, ss)
    sf, sg = np.sort(fn.values, axis=None), np.sort(gn.values, axis=None)
    mFs = (sf.size - np.searchsorted(sf, tms, side="right")) * fn.cell_volume
    mGs = (sg.size - np.searchsorted(sg, ss, side="right")) * gn.cell_volume
    means3 = p_mean_arr(lam, 1.0 / n, mFs, mGs)
    masses = np.zeros(5)
    gap_integral = 0.0
    for dt, tm, s, u, mF, mG, m3 in zip(np.diff(knots), tms, ss, us, mFs, mGs, means3):
        if mF == 0:
            continue
        F, G, H = level_set(fn, tm), level_set(gn, s), level_set(hn, u)
        hdF = hull_deficit(F)
        hdG = hull_deficit(G) if G.cell_count else 0.0
        bad = [
            not (mG > 0 and 1.0 - alpha <= mF / mG <= 1.0 + alpha),
            hdF >= alpha or hdG >= alpha,
            not G.cell_count
            or minkowski_combination(F, G, params.lam_fraction).measure >= (1.0 + alpha) * m3,
            not H.cell_count or _min_shift_symdiff(F, H) >= alpha * mF,
            not G.cell_count
            or _min_shift_symdiff(convex_hull_set(F), convex_hull_set(G)) >= alpha * mF,
        ]
        for k in np.flatnonzero(bad):
            masses[k] += mF * dt
        if not any(bad):
            gap_integral += (hdF * mF + hdG * mG) * dt
    return DiagnosticsReport(alpha, tuple(masses.tolist()), gap_integral, h_convention)


def assert_same_report(got, ref):
    assert got == ref
    assert repr(got) == repr(ref)


def with_mass_of(g, f):
    return g.with_values(g.values * (integral(f) / integral(g)))


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

    def test_pushforward_zero_masses(self):
        """Two zero-mass functions check trivially, whatever the map."""
        f = indicator(0.0, 1.0, 0.1)
        z = f.with_values(np.zeros(f.shape))
        for T in (height_transport(f, f), spatial_transport(f, f)):
            assert pushforward_check(T, z, z) == 0.0

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

    def test_g_off_lattice_rejected(self):
        # with h given, no sup-convolution of f and g meets the two grids
        f = hat(width=1.0, height=1.0, spacing=0.02)
        g_off = GridFunction(1, (f.origin[0] + 0.5 * f.spacing,), f.spacing, f.values)
        for h in (None, sup_convolution(f, f, HALF0)):
            with pytest.raises(GeometryMismatchError):
                level_diagnostics(f, g_off, h, HALF0, alpha=0.1)

    def test_g_of_other_dimension_rejected(self):
        f = hat(width=1.0, height=1.0, spacing=0.1)
        g = with_mass_of(GridFunction(2, (0.0, 0.0), 0.1, np.ones((3, 4))), f)
        assert integral(g) == pytest.approx(integral(f), rel=1e-12)
        for h in (None, sup_convolution(f, f, HALF0)):
            with pytest.raises(GeometryMismatchError):
                level_diagnostics(f, g, h, HALF0, alpha=0.1)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_translated_g_same_report(self, dim, p):
        """Moving g by the cell vector (2, -4) (2 and -4 in 1-D) moves its
        level sets and canonical h, never a measure: equal reports."""
        x = (np.arange(12) + 0.5) * 0.2 - 1.2
        r2 = x[:, None] ** 2 + x[None, :] ** 2 if dim == 2 else x ** 2
        f = GridFunction(dim, (-1.2,) * dim, 0.2, np.exp(-r2 / (2 * 0.4 ** 2)))
        g = with_mass_of(f.with_values(np.exp(-r2 / (2 * 0.5 ** 2))), f)
        params = MeanParams(Fraction(1, 2), p)
        ref = level_diagnostics(f, g, None, params, alpha=0.1)
        for v in ([(2, -4)] if dim == 2 else [(2,), (-4,)]):
            assert_same_report(level_diagnostics(f, translate(g, v), None, params, alpha=0.1), ref)


LAMS = [Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
# a 1-D cell interval: (first cell, length), placed in a mask with margins
intervals = st.tuples(st.integers(0, 10), st.integers(1, 30))


def interval_set(first, length, origin):
    cells = np.arange(first + length + 3)
    return LevelSet(1, (first <= cells) & (cells < first + length), (origin,), 0.1)


class TestRunLists:
    """The 1-D closed forms on single runs against the mask kernels, and
    level_diagnostics against the mask loop (level_diagnostics_oracle)."""

    @settings(max_examples=300, deadline=None)
    @given(ia=intervals, ib=intervals, off=st.integers(-30, 30), lam=st.sampled_from(LAMS))
    def test_minkowski_interval_count_matches_masks(self, ia, ib, off, lam):
        A = interval_set(*ia, 0.3)
        B = interval_set(*ib, 0.3 + off * 0.1)
        ref = int(minkowski_combination(A, B, lam).mask.sum())
        (la, na), (lb, nb) = ia, ib
        lb += off  # B's cells on A's lattice
        a, b = lam.numerator, lam.denominator
        count = _reach(a * la + (b - a) * lb, na, nb, a, b)[2]
        assert count == ref

    @settings(max_examples=300, deadline=None)
    @given(ia=intervals, ib=intervals, off=st.integers(-30, 30))
    def test_interval_overlap_is_shorter_length(self, ia, ib, off):
        A = interval_set(*ia, 0.3)
        B = interval_set(*ib, 0.3 + off * 0.1)
        na, nb = ia[1], ib[1]
        assert (na + nb - 2.0 * min(na, nb)) * A.spacing == _min_shift_symdiff(A, B)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["staircase", "dented", "dented_bump", "two_bump"]),
           seed=st.integers(0, 2 ** 32 - 1),
           lam=st.sampled_from([Fraction(1, 2), Fraction(1, 3)]),
           p=st.sampled_from([-0.25, 0.0, 1.0]),
           h_given=st.booleans())
    def test_reports_match_mask_loop(self, kind, seed, lam, p, h_given):
        f, g, h, params = diagnostics_case(kind, seed, lam, p, h_given)
        got = level_diagnostics(f, g, h, params, alpha=0.1)
        assert_same_report(got, level_diagnostics_oracle(f, g, h, params, alpha=0.1))

    def test_bench_pair_matches_mask_loop(self):
        f, g = bump_pair(500)
        for h in (None, sup_convolution(f, g, HALF0)):
            got = level_diagnostics(f, g, h, HALF0, alpha=0.1)
            assert_same_report(got, level_diagnostics_oracle(f, g, h, HALF0, alpha=0.1))


def diagnostics_case(kind, seed, lam, p, h_given):
    """A 1-D pair (f, g) of equal mass, g on a grid shifted by whole cells,
    and h: None or M*(f, g) on a shifted grid with each cell scaled by a
    factor in [0.8, 1.2].  Staircases with zero cells, dented indicators and
    two-bumps have level sets of several runs; dented bumps have one or two,
    and some of their heights pass all five criteria."""
    rng = np.random.default_rng(seed)
    shift = int(rng.integers(-7, 8))
    if kind == "staircase":
        f, g = (random_staircase(rng, n_min=8, n_max=40, zero_frac=0.3, origin=o)
                for o in (0.0, 0.1 * shift))
        if rng.random() < 0.5:  # few levels, many ties
            f, g = (x.with_values(np.ceil(x.values * 4) / 4) for x in (f, g))
    elif kind == "dented":
        def dented(origin):
            base = indicator(origin, origin + 1.0, 0.05)
            i0 = int(rng.integers(1, 9))
            holes = [(origin + 0.05 * i0, 0.05 * int(rng.integers(1, 4)), 1.0),
                     (origin + 0.05 * (i0 + 6), 0.05 * int(rng.integers(1, 5)),
                      float(rng.choice([0.5, 1.0])))]
            return gen_dented(base, holes)
        f, g = dented(0.0), dented(0.05 * shift)
    elif kind == "dented_bump":  # a shallow one-cell dent: some heights pass all five
        def dented_bump(origin):
            base = logconcave_bump(width=2.0, spacing=0.05, origin=origin, sharp=2.0)
            pos = origin + 0.05 * int(rng.integers(8, 32))
            return gen_dented(base, [(pos, 0.05, float(rng.uniform(0.05, 0.4)))])
        f, g = dented_bump(0.0), dented_bump(0.05 * shift)
    else:
        f = gen_two_bump(float(rng.uniform(0.0, 0.5)), float(rng.uniform(2.1, 3.0)), 0.05)
        g = translate(gen_two_bump(float(rng.uniform(0.05, 0.5)), float(rng.uniform(2.1, 3.0)),
                                   0.05), [shift])
    g = with_mass_of(g, f)
    params = MeanParams(lam, p)
    h = None
    if h_given:
        m = sup_convolution(f, g, params)
        h = translate(m.with_values(m.values * rng.uniform(0.8, 1.2, m.values.shape)),
                      [int(rng.integers(-5, 6))])
    return f, g, h, params
