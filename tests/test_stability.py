import math
from fractions import Fraction

import numpy as np
import pytest

from bblab import (
    Cone2D,
    GridFunction,
    MeanParams,
    certify_linear,
    certify_main,
    certify_symmetric_difference,
    cone_equipartition_2d,
    fiber_project,
    fiber_reduction_check,
    gen_dented,
    gen_two_bump,
    integral,
    is_p_concave,
    l1_distance,
    p_concave_hull,
    shave,
    sup_convolution,
    translate,
)
from bblab.means import _lift
from bblab.stability import _shave_candidates_1d
from conftest import hat, indicator, logconcave_bump, random_blob_2d, random_staircase

HALF0 = MeanParams(Fraction(1, 2), 0.0)
HALF1 = MeanParams(Fraction(1, 2), 1.0)


def shave_candidates_1d_oracle(f: GridFunction, p: float) -> list:
    """Reference 1-D shaving dictionary: the pair loop over support cells.

    Level caps (descending), half-line cutoffs (keep-left then keep-right,
    by position), then the p-planes through each pair of lifted support
    points, in pair order, keeping the first of equal (slope, offset) keys.
    """
    vals = f.values
    sup = np.flatnonzero(vals > 0)
    cands: list[tuple] = []
    for t in np.unique(vals[sup])[:-1][::-1]:
        cands.append(("cap", float(t)))
    for k in sup:
        cands.append(("cutL", int(k)))
    for k in sup:
        cands.append(("cutR", int(k)))
    w = _lift(vals, p)
    seen = set()
    for ai in range(len(sup)):
        for bi in range(ai + 1, len(sup)):
            i, j = int(sup[ai]), int(sup[bi])
            m = (w[j] - w[i]) / (j - i)
            q = w[i] - m * i
            key = (m, q)
            if key not in seen:
                seen.add(key)
                cands.append(("plane", m, q))
    return cands


class TestCertifySymdiff:
    def test_equal_inputs(self):
        f = hat(width=1.0, height=1.0, spacing=0.02)
        h = sup_convolution(f, f, HALF1)
        rep = certify_symmetric_difference(f, f, h, HALF1)
        assert rep.best_shift == (0,)
        assert rep.symdiff_distance == pytest.approx(0.0, abs=1e-12)
        assert rep.hypothesis_valid

    def test_pure_translation(self):
        f = hat(width=1.0, height=1.0, spacing=0.02)
        g = translate(f, [3])
        h = sup_convolution(f, g, HALF1)
        rep = certify_symmetric_difference(f, g, h, HALF1)
        assert rep.best_shift == (-3,)
        # shifting g back by the reported vector recovers f
        assert l1_distance(f, translate(g, rep.best_shift)) == pytest.approx(0.0, abs=1e-12)
        assert rep.symdiff_distance == pytest.approx(0.0, abs=1e-12)

    def test_argmin_exhaustive(self, rng):
        f = random_staircase(rng, zero_frac=0.0)
        g = random_staircase(rng, zero_frac=0.0)
        g = g.with_values(g.values * (integral(f) / integral(g)))
        h = sup_convolution(f, g, HALF0)
        rep = certify_symmetric_difference(f, g, h, HALF0)
        # no other shift in a generous window may beat the reported one
        from bblab.gridfn import normalize

        fn, gn = normalize(f), normalize(g)
        best = l1_distance(fn, translate(gn, rep.best_shift))
        for v in range(-60, 61):
            assert best <= l1_distance(fn, translate(gn, [v])) + 1e-12

    def test_translation_equivariance(self, rng):
        f = random_staircase(rng, zero_frac=0.0)
        g = random_staircase(rng, zero_frac=0.0)
        g = g.with_values(g.values * (integral(f) / integral(g)))
        h = sup_convolution(f, g, HALF0)
        rep = certify_symmetric_difference(f, g, h, HALF0)
        k = 7
        rep2 = certify_symmetric_difference(
            translate(f, [k]), translate(g, [k]), translate(h, [k]), HALF0
        )
        assert rep2.delta == pytest.approx(rep.delta, rel=1e-12)
        assert rep2.symdiff_distance == pytest.approx(rep.symdiff_distance, rel=1e-9)
        assert rep2.best_shift == rep.best_shift

    def test_violations_flagged_not_fatal(self):
        f = indicator(0.0, 1.0, 0.02)
        h = f.with_values(f.values * 0.98)  # undershoots the hypothesis
        rep = certify_symmetric_difference(f, f, h, HALF0)
        assert not rep.hypothesis_valid
        assert rep.violations > 0


class TestShave:
    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_p_concave_fixed(self, p):
        params = MeanParams(Fraction(1, 2), p)
        f = hat(width=2.0, height=1.0, spacing=0.05)
        fp, removed, obj = shave(f, params)
        # on a p-concave input only the discretization overshoot can pay,
        # and the shaving-safety bound caps the total at delta * mass / c
        over = integral(sup_convolution(f, f, params)) - integral(f)
        assert removed <= over / (0.1 * 0.5) + 1e-12
        assert l1_distance(fp, f) == pytest.approx(removed, abs=1e-12)

    def test_indicator_exactly_fixed(self):
        f = indicator(0.0, 1.0, 0.02)
        fp, removed, obj = shave(f, HALF0)
        assert removed == 0.0
        assert np.array_equal(fp.values, f.values)

    def test_two_bump_removes_far_bump(self):
        eps = 1e-6
        f = gen_two_bump(eps, 50.0, spacing=0.05)
        fp, removed, obj = shave(f, HALF0)
        assert removed == pytest.approx(eps, abs=1e-12)
        assert not fp.values[-1] > 0  # the far bump is gone
        assert fp.values[:20].min() > 0  # the unit block stays

    def test_hole_never_pays_at_large_c(self):
        # exhaustive scenario on 16 cells: with c above the removal exchange
        # rate, the dictionary leaves a dented indicator untouched
        vals = np.ones(16)
        vals[7:9] = 0.0
        f = GridFunction(1, (0.0,), 0.0625, vals)
        fp, removed, obj = shave(f, HALF0, c=0.75)
        assert removed == 0.0
        assert np.array_equal(fp.values, f.values)

    def test_removed_bounded_by_delta_over_c(self, rng):
        # 1-D at lam = 1/2 and 1/3, and a 2-D blob of at most 48 cells
        cases = [(random_staircase(rng), HALF0) for _ in range(10)]
        cases += [(random_staircase(rng), MeanParams(Fraction(1, 3), 0.0)) for _ in range(4)]
        cases.append((random_blob_2d(rng, n=6), MeanParams(Fraction(1, 2), 0.0, n=2)))
        assert (cases[-1][0].values > 0).sum() <= 48
        for f, params in cases:
            h = sup_convolution(f, f, params)
            delta = integral(h) / integral(f) - 1.0
            for c in (0.05, 0.3, 0.75):
                fp, removed, obj = shave(f, params, c=c)
                assert removed <= delta * integral(f) / c + 1e-12

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_candidates_1d_match_oracle(self, p, rng):
        """The vectorized dictionary equals the pair loop, order included, on
        staircases with exact ties (many equal planes) and random values."""
        inputs = [indicator(0.0, 1.0, 0.05), hat(width=1.0, spacing=0.05)]
        for k in range(40):
            f = random_staircase(rng, n_max=40, zero_frac=0.3)
            if k % 2:
                levels = rng.choice([0.5, 1.0, 1.5, 2.0], f.shape)
                f = f.with_values(np.where(f.values > 0, levels, 0.0))
            inputs.append(f)
        for f in inputs:
            assert _shave_candidates_1d(f, p) == shave_candidates_1d_oracle(f, p)

    def test_rejects_bad_c(self):
        f = indicator(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            shave(f, HALF0, c=1.5)


class TestCertifyLinear:
    def test_p_concave_input(self):
        f = hat(width=2.0, height=1.0, spacing=0.01)
        rep = certify_linear(f, HALF1)
        assert rep.linear_gap <= 8 * f.spacing * integral(f)
        assert bool(is_p_concave(rep.witness, 1.0, 1e-9))

    def test_dented_indicator(self):
        h = 0.002
        base = indicator(0.0, 1.0, h)
        f = gen_dented(base, [(0.475, 0.05, 1.0)])
        rep = certify_linear(f, HALF0, c=0.75)
        assert rep.linear_gap == pytest.approx(0.05, abs=h + 1e-12)
        assert rep.ratio_linear <= 10.0
        assert rep.shave_removed == 0.0

    def test_two_bump_family(self):
        eps = 1e-6
        f = gen_two_bump(eps, 50.0, spacing=0.05)
        rep = certify_linear(f, HALF0)
        assert rep.ratio_linear <= 10.0
        assert rep.linear_gap == pytest.approx(eps, rel=0.2)
        # without shaving, the naive hull gap is enormous
        naive = p_concave_hull(f, 0.0).gap_mass
        assert naive > 10 * eps * 50.0

    def test_witness_is_p_concave(self, rng):
        for p in (-0.25, 0.0, 1.0):
            f = random_staircase(rng, n_min=8, n_max=14)
            rep = certify_linear(f, MeanParams(Fraction(1, 2), p))
            assert bool(is_p_concave(rep.witness, p, 1e-9))


class TestCertifyMain:
    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_equality_collapse(self, p):
        # the bump must be p-concave for the p under test (a log-concave bump
        # is an equality case only for p <= 0)
        from conftest import pconcave_bump

        params = MeanParams(Fraction(1, 2), p)
        for f in (
            indicator(0.0, 1.0, 0.005),
            hat(width=2.0, height=1.0, spacing=0.01),
            pconcave_bump(p, width=2.0, height=1.0, spacing=0.01),
        ):
            h = sup_convolution(f, f, params)
            rep = certify_main(f, f, h, params, verify=False)
            assert rep.delta <= 4 * f.spacing
            assert rep.main_distance <= 8 * f.spacing * integral(f)

    def test_two_blocks_family(self, rng):
        # perturbed p-concave pair keeps a bounded sqrt-ratio
        f = hat(width=2.0, height=1.0, spacing=0.02)
        vals = f.values.copy()
        vals[10:15] *= 0.7
        g = f.with_values(vals * (integral(f) / (vals.sum() * f.spacing)))
        h = sup_convolution(f, g, HALF1)
        rep = certify_main(f, g, h, HALF1, verify=False)
        assert rep.main_distance < math.inf
        assert rep.ratio_main < 60.0

    def test_sharpness_main_slope(self):
        # the combined distance inherits the square-root rate on the
        # extremal family (deltas away from the cell-quantization floor)
        from bblab import fit_loglog_slope, sweep

        rows = sweep(
            "sharpness",
            [1e-3, 2e-3, 4e-3, 1e-2],
            HALF0,
            spacing=1e-4,
            certificates="main",
            verify=False,
        )
        slope, se = fit_loglog_slope(
            [r.delta for r in rows], [r.main_distance for r in rows]
        )
        assert 0.45 <= slope <= 0.55, (slope, se)


class TestEquipartition:
    def test_radial_bump_center(self):
        n = 41
        x = (np.arange(n) - n // 2) * 0.1
        vals = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2))
        f = GridFunction(2, (-2.05, -2.05), 0.1, vals)
        res = cone_equipartition_2d(f)
        assert res.converged
        assert abs(res.apex[0]) <= f.spacing
        assert abs(res.apex[1]) <= f.spacing
        for m in res.masses:
            assert m == pytest.approx(integral(f) / 3, rel=1e-5)

    def test_random_blobs_verified(self, rng):
        for _ in range(5):
            vals = rng.uniform(0, 1, size=(20, 20))
            vals[vals < 0.5] = 0.0
            if not vals.any():
                vals[10, 10] = 1.0
            f = GridFunction(2, (0.0, 0.0), 0.1, vals)
            res = cone_equipartition_2d(f)
            total = integral(f)
            assert res.converged, res
            m = Cone2D.simplex(res.apex).sector_masses(f)
            for mi in m:
                assert abs(mi - total / 3) <= 1e-6 * total

    def test_uniform_square_verified(self):
        # for a uniform square the equipartition apex exists but is NOT the
        # center: the three 120-degree window integrals of the square's
        # radial profile are unequal at the center for every orientation
        f = GridFunction(2, (0.0, 0.0), 0.1, np.ones((30, 30)))
        res = cone_equipartition_2d(f)
        assert res.converged
        total = integral(f)
        for m in Cone2D.simplex(res.apex).sector_masses(f):
            assert abs(m - total / 3) <= 1e-6 * total

    def test_sectors_tile_plane(self, rng):
        cone = Cone2D.simplex((0.3, -0.2))
        pts = rng.uniform(-3, 3, size=(200, 2))
        for q in pts:
            hits = 0
            for hp0, hp1 in cone.sector_halfplanes():
                in0 = hp0[0] * q[0] + hp0[1] * q[1] >= hp0[2] - 1e-12
                in1 = hp1[0] * q[0] + hp1[1] * q[1] >= hp1[2] - 1e-12
                hits += in0 and in1
            assert hits >= 1

    def test_fiber_partition_matches_setdef(self, rng):
        cone = Cone2D.fiber_partition((0.0, 0.0))
        hps = cone.sector_halfplanes()

        def in_sector(i, q):
            (a, b, c), (d, e, g) = hps[i]
            return a * q[0] + b * q[1] >= c - 1e-12 and d * q[0] + e * q[1] >= g - 1e-12

        for q in rng.uniform(-2, 2, size=(300, 2)):
            x, y = q
            k2 = y >= max(0.0, -x)  # K2 from the set definition
            k3 = y <= min(0.0, x)
            k1 = x < 0 and abs(y) <= abs(x)
            if in_sector(1, q):
                assert k1 or math.isclose(abs(y), abs(x), abs_tol=1e-9) or abs(y) < 1e-9
            if k2:
                assert in_sector(0, q)
            if k3:
                assert in_sector(2, q)


class TestFiberProjection:
    def _cone_grid(self, n=20, spacing=0.1):
        """3-D wedge: fibers along axis 2 with length growing linearly in z."""
        vals = np.zeros((n, 5, n))
        for z in range(n):
            width = z + 1
            vals[z, :, :width] = 1.0
        return GridFunction(3, (0.0, 0.0, 0.0), spacing, vals)

    def test_integral_preserved(self):
        f = self._cone_grid()
        F = fiber_project(f, axis=2)
        assert F.dim == 2
        assert integral(F) == pytest.approx(integral(f), rel=1e-12)

    def test_fiber_values(self):
        f = self._cone_grid(n=10, spacing=0.5)
        F = fiber_project(f, axis=2)
        assert F.values[3, 0] == pytest.approx(4 * 0.5)  # 4 cells of length 0.5

    def test_oscillation_rejected(self):
        vals = np.zeros((3, 3, 3))
        vals[1, 1, 0] = 1.0
        vals[1, 1, 1] = 2.0
        f = GridFunction(3, (0.0, 0.0, 0.0), 0.1, vals)
        with pytest.raises(ValueError):
            fiber_project(f, axis=2)

    def test_zero_projects_to_zero(self):
        f = GridFunction(3, (0.0, 0.0, 0.0), 0.1, np.zeros((3, 3, 3)))
        F = fiber_project(f)
        assert not F.values.any()

    @pytest.mark.parametrize("p", [-0.2, 0.0, 0.5])
    def test_projected_hypothesis(self, p):
        # product structure: f, g constant on fibers; h the per-fiber
        # sup-convolution majorant; after projection the q-mean hypothesis
        # must hold with q = p / (1 + p)
        params = MeanParams(Fraction(1, 2), p, n=3)
        f3 = self._cone_grid(n=12, spacing=0.25)
        g3 = f3.with_values(f3.values * 0.8)
        F = fiber_project(f3, axis=2)
        G = fiber_project(g3, axis=2)
        from bblab import exponent_map

        q = exponent_map(p, 1)
        H = sup_convolution(F, G, MeanParams(Fraction(1, 2), q, n=2))
        assert fiber_reduction_check(F, G, H, params) == []
