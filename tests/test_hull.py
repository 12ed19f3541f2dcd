import math
from fractions import Fraction

import numpy as np
import pytest

from bblab import (
    GridFunction,
    PPlane,
    convex_hull_set,
    hull_deficit,
    integral,
    is_p_concave,
    level_set,
    p_concave_hull,
    p_plane_eval,
    tail_lower_bound,
    tail_ratio,
)
from bblab import hull
from bblab.gridfn import _cell_centers
from bblab.hull import (
    PConcavityReport,
    _collinear_envelope_2d,
    _convex_hull_2d,
    _cross2,
    _orient_above,
    _plane_through,
    _upper_chain,
    _upper_envelope_2d,
)
from bblab.means import _lift, _scale_exp, p_mean_arr
from bblab.supconv import _margin_covers
from conftest import hat, indicator, logconcave_bump, pconcave_bump, random_staircase


# --- independent 1-D oracle: exhaustive search over supporting lines through
#     pairs of lifted points (dominating lines for p >= 0, supported for p < 0)

def _transform(v, p):
    return math.log(v) if p == 0.0 else v ** p


def _untransform(w, p):
    return math.exp(w) if p == 0.0 else w ** (1.0 / p)


def hull_oracle_1d(f: GridFunction, p: float) -> np.ndarray:
    idx = np.flatnonzero(f.values > 0)
    w = {int(i): _transform(float(f.values[i]), p) for i in idx}
    lo, hi = int(idx.min()), int(idx.max())
    out = np.zeros_like(f.values)
    if lo == hi:
        out[lo] = f.values[lo]
        return out
    sign = 1.0 if p >= 0 else -1.0  # work with the concave side
    pts = [(i, sign * wi) for i, wi in w.items()]
    lines = []
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            (x1, y1), (x2, y2) = pts[a], pts[b]
            m = (y2 - y1) / (x2 - x1)
            q = y1 - m * x1
            if all(m * x + q >= y - 1e-12 * max(1.0, abs(y)) for x, y in pts):
                lines.append((m, q))
    assert lines, "at least one dominating line must exist"
    for k in range(lo, hi + 1):
        env = min(m * k + q for m, q in lines)
        out[k] = _untransform(sign * env, p)
    return out


# --- reference 2-D envelope: the gift wrap with every predicate in Fraction
#     arithmetic, one Python loop per point; _upper_envelope_2d must return
#     the same planes in the same order

def upper_envelope_2d_oracle(pts):
    hull_xy = _convex_hull_2d(np.array([(p[0], p[1]) for p in pts]))
    if len(hull_xy) <= 2:
        return _collinear_envelope_2d(pts)

    best = {}
    for p in pts:
        key = (p[0], p[1])
        if key not in best or p[2] > best[key][2]:
            best[key] = p
    pts = list(best.values())

    planes = []
    seen = set()
    queue = []

    def seed_edge(U, V):
        """1-D envelope of points on segment U->V; push its pieces."""
        ux, uy = V[0] - U[0], V[1] - U[1]
        on = [
            p
            for p in pts
            if (p[0] - U[0]) * uy == (p[1] - U[1]) * ux
            and min(U[0], V[0]) <= p[0] <= max(U[0], V[0])
            and min(U[1], V[1]) <= p[1] <= max(U[1], V[1])
        ]
        t = np.array([(p[0] - U[0]) * ux + (p[1] - U[1]) * uy for p in on])
        order = np.argsort(t)
        chain_pts = [on[i] for i in order]
        chain = _upper_chain(t[order], [p[2] for p in chain_pts])
        keep = {int(c[0]) for c in chain}
        verts = [p for i, p in zip(t[order].tolist(), chain_pts) if i in keep]
        for A, B in zip(verts[:-1], verts[1:]):
            queue.append((A, B))

    for U, V in zip(hull_xy, hull_xy[1:] + hull_xy[:1]):
        seed_edge(U, V)

    guard = 0
    while queue:
        guard += 1
        if guard > 8 * len(pts) ** 2:
            raise RuntimeError("hull wrap failed to terminate")
        P, Q = queue.pop()
        key = (P[:2], Q[:2])
        if key in seen:
            continue
        seen.add(key)
        cand = [D for D in pts if _cross2(P, Q, D) > 0]
        if not cand:
            continue
        C = cand[0]
        for D in cand[1:]:
            if _orient_above(P, Q, C, D) > 0:
                C = D
        for D in pts:
            if _orient_above(P, Q, C, D) > 0:
                raise RuntimeError("hull wrap produced a non-supporting facet")
        planes.append(_plane_through(P, Q, C))
        for E in ((P, Q), (Q, C), (C, P)):
            seen.add((E[0][:2], E[1][:2]))
        for E in ((C, Q), (P, C)):
            if (E[0][:2], E[1][:2]) not in seen:
                queue.append(E)
    if not planes:
        # all lifted points coplanar along every wrapped edge (flat cloud)
        anchor = pts[0]
        planes.append((Fraction(0), Fraction(0), anchor[2]))
        for p in pts:
            if p[2] > anchor[2]:
                planes[-1] = (Fraction(0), Fraction(0), p[2])
    return planes


def assert_envelope_matches_oracle(idx, w):
    pts = [(int(a), int(b), Fraction(v)) for (a, b), v in zip(idx.tolist(), w.tolist())]
    assert _upper_envelope_2d(idx, w) == upper_envelope_2d_oracle(pts)


# --- reference midpoint test: every pair of positive cells, in chunks of
#     rows; is_p_concave must give the same report

def is_p_concave_oracle(f: GridFunction, p: float, tol: float = 1e-9) -> PConcavityReport:
    if f.dim == 1:
        idx = np.flatnonzero(f.values > 0)
    else:
        idx = np.argwhere(f.values > 0)
    if len(idx) == 0:
        return PConcavityReport(True, 0.0, None)
    vals = f.values[idx] if f.dim == 1 else f.values[tuple(idx.T)]
    idx2 = idx.reshape(len(idx), -1)
    worst = 0.0
    witness = None
    chunk = max(1, 2 * 10 ** 6 // max(len(idx), 1))
    for lo in range(0, len(idx2), chunk):
        hiS = slice(lo, lo + chunk)
        s = idx2[hiS][:, None, :] + idx2[None, :, :]
        even = np.all(s % 2 == 0, axis=-1)
        if not even.any():
            continue
        m = p_mean_arr(0.5, p, vals[hiS][:, None], vals[None, :])
        mid = (s // 2)[even]
        fm = f.values[tuple(mid.T)] if f.dim == 2 else f.values[mid[:, 0]]
        gaps = m[even] - fm
        k = int(np.argmax(gaps))
        if gaps[k] > worst:
            worst = float(gaps[k])
            loc = np.argwhere(even)[k]
            i_idx = idx2[lo + loc[0]]
            j_idx = idx2[loc[1]]
            witness = tuple(_cell_centers(f, np.stack([i_idx, j_idx, (i_idx + j_idx) // 2])))
    return PConcavityReport(worst <= tol, worst, witness)


def concavity_corpus(rng, dim, p):
    """Inputs for the midpoint test at exponent p: random values with holes,
    staircases on tied levels, indicators, p-concave bumps (with and without
    holes), p-concave hulls (exact up to rounding, so near-ties everywhere)
    and values spanning more than _MARGIN's proof covers."""
    fs = []
    for k in range(150 if dim == 1 else 60):
        shape = ((int(rng.integers(1, 31)),) if dim == 1
                 else tuple(int(n) for n in rng.integers(1, 9, size=2)))
        kind = k % 6
        if kind == 0:
            vals = rng.uniform(0.1, 2.0, size=shape)
        elif kind == 1:
            vals = rng.choice([0.5, 1.0, 2.0], size=shape)
        elif kind == 2:
            vals = np.full(shape, float(rng.choice([1.0, 3.0, 0.25])))
        elif kind == 3:
            if dim == 1:
                vals = pconcave_bump(p, width=2.0, spacing=2.0 / (shape[0] + 2)).values
            else:
                vals = gaussian_2d(max(shape)).values
        elif kind == 4:
            vals = 2.0 ** rng.uniform(-700, 700, size=shape)
        else:
            g = GridFunction(dim, (0.0,) * dim, 0.1, rng.uniform(0.1, 2.0, size=shape))
            vals = p_concave_hull(g, max(p, -0.45)).hull.values
        if kind != 4 and rng.random() < 0.5:
            vals = np.where(rng.random(vals.shape) < 0.2, 0.0, vals)
        fs.append(GridFunction(dim, (0.3,) * dim, 0.1, vals))
        if kind < 2 and (vals > 0).any():
            fs.append(p_concave_hull(fs[-1], max(p, -0.45)).hull)
    return fs


def gaussian_2d(n, spacing=0.2, sigma=0.5):
    """exp(-r^2 / (2 sigma^2)) on an n x n grid centred at 0: mirror-symmetric,
    so its lifted cloud has exactly coplanar quads."""
    x = (np.arange(n) + 0.5) * spacing - n * spacing / 2.0
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    return GridFunction(2, (-n * spacing / 2.0,) * 2, spacing, np.exp(-r2 / (2.0 * sigma * sigma)))


class TestPPlaneEval:
    def test_constant(self):
        assert p_plane_eval(PPlane(1.0, (0.0,), 2.0), 3.7) == pytest.approx(2.0)

    def test_infinite_branch(self):
        assert p_plane_eval(PPlane(-0.5, (1.0,), 0.0), 0.0) == math.inf
        assert p_plane_eval(PPlane(-0.5, (1.0,), -1.0), 0.5) == math.inf

    def test_zero_branch(self):
        assert p_plane_eval(PPlane(0.5, (1.0,), -1.0), 0.5) == 0.0

    def test_exp_branch(self):
        assert p_plane_eval(PPlane(0.0, (0.0,), 0.0), 123.0) == pytest.approx(1.0)

    def test_power_branch_2d(self):
        pl = PPlane(0.5, (1.0, 1.0), 0.0)
        assert p_plane_eval(pl, (2.0, 2.0)) == pytest.approx(16.0)


class TestHull1D:
    def test_hat_is_fixed_point(self):
        f = hat(width=1.0, height=1.0, spacing=0.05)
        res = p_concave_hull(f, 1.0)
        assert res.gap_mass == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.hull.values, f.values)

    def test_two_spikes_log(self):
        vals = np.zeros(11)
        vals[0] = vals[10] = 1.0
        f = GridFunction(1, (0.0,), 0.1, vals)
        res = p_concave_hull(f, 0.0)
        assert np.allclose(res.hull.values, 1.0)
        assert res.gap_mass == pytest.approx(9 * 0.1, rel=1e-12)

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_oracle_equivalence(self, p, rng):
        for _ in range(50):
            f = random_staircase(rng, n_min=4, n_max=16, zero_frac=0.3)
            got = p_concave_hull(f, p).hull.values
            ref = hull_oracle_1d(f, p)
            assert np.max(np.abs(got - ref)) <= 1e-9

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_extensivity_idempotence(self, p, rng):
        for _ in range(20):
            f = random_staircase(rng)
            res = p_concave_hull(f, p)
            assert np.all(res.hull.values >= f.values - 1e-12)
            res2 = p_concave_hull(res.hull, p)
            supp = (f.values > 0).sum() * f.spacing
            assert res2.gap_mass <= 1e-12 * max(1.0, supp)
            assert bool(is_p_concave(res.hull, p, tol=1e-9))

    def test_monotone(self, rng):
        for p in (-0.25, 0.0, 1.0):
            f = random_staircase(rng, zero_frac=0.0)
            g = f.with_values(f.values * rng.uniform(0.3, 1.0, f.shape))
            hf = p_concave_hull(f, p).hull.values
            hg = p_concave_hull(g, p).hull.values
            assert np.all(hg <= hf + 1e-12)

    def test_p_ordering(self, rng):
        for _ in range(10):
            f = random_staircase(rng, zero_frac=0.0)
            prev = None
            for p in (-0.25, 0.0, 1.0):
                cur = p_concave_hull(f, p).hull.values
                if prev is not None:
                    assert np.all(prev <= cur + 1e-9)
                prev = cur

    def test_fixed_point_iff_concave(self, rng):
        for _ in range(20):
            f = random_staircase(rng)
            p = float(rng.choice([-0.25, 0.0, 1.0]))
            gap = p_concave_hull(f, p).gap_mass
            supp = (f.values > 0).sum() * f.spacing
            assert bool(is_p_concave(f, p, 1e-9)) == (gap <= 1e-9 * supp)

    def test_facets_support_hull(self, rng):
        for p in (-0.25, 0.0, 1.0):
            f = random_staircase(rng, zero_frac=0.0)
            res = p_concave_hull(f, p)
            xs = f.axis_centers()
            sup = np.flatnonzero(f.values > 0)
            for plane in res.facets:
                vals = np.array([p_plane_eval(plane, x) for x in xs[sup]])
                assert np.all(vals >= f.values[sup] - 1e-9)
            # hull equals the lower envelope of its facets on the support hull
            env = np.full(len(xs), np.inf)
            for plane in res.facets:
                env = np.minimum(env, [p_plane_eval(plane, x) for x in xs])
            lo, hi = sup.min(), sup.max()
            assert np.allclose(env[lo : hi + 1], res.hull.values[lo : hi + 1], atol=1e-9)

    def test_rejects_degenerate(self):
        f = indicator(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            p_concave_hull(f, -1.0)
        z = f.with_values(np.zeros_like(f.values))
        with pytest.raises(Exception):
            p_concave_hull(z, 0.0)

    def test_lift_beyond_float_range(self):
        """1e200 at p = 2: f^p overflows, f / sigma does not.  The middle
        cell of [1, 0, 1e200] takes ((1 + 1e400) / 2)^(1/2)."""
        f = GridFunction(1, (0.0,), 1.0, np.array([1.0, 0.0, 1e200]))
        hull = p_concave_hull(f, 2.0).hull.values
        assert hull == pytest.approx([1.0, 1e200 * math.sqrt(0.5), 1e200], rel=1e-12)


class TestHull2D:
    def _lp_oracle(self, f, p):
        """Independent 2-D check: envelope at each cell by linear programming
        over convex combinations of the lifted support points."""
        from scipy.optimize import linprog

        sign = 1.0 if p >= 0 else -1.0
        idx = np.argwhere(f.values > 0)
        w = sign * np.array([_transform(float(f.values[tuple(i)]), p) for i in idx])
        out = np.zeros_like(f.values)
        mask = convex_hull_set(level_set(f, 0.0)).mask
        for cell in np.argwhere(mask):
            A_eq = np.vstack([idx[:, 0], idx[:, 1], np.ones(len(idx))])
            b_eq = np.array([cell[0], cell[1], 1.0])
            res = linprog(-w, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * len(idx),
                          method="highs")
            assert res.success
            out[tuple(cell)] = _untransform(sign * (-res.fun), p)
        return out, mask

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_against_lp(self, p, rng):
        inputs = []
        for _ in range(6):
            vals = rng.uniform(0.2, 2.0, size=(5, 5))
            vals[rng.random((5, 5)) < 0.4] = 0.0
            if (vals > 0).sum() < 3:
                vals[0, 0] = vals[2, 3] = vals[4, 1] = 1.0
            inputs.append(GridFunction(2, (0.0, 0.0), 0.5, vals))
        inputs.append(gaussian_2d(12))
        for f in inputs:
            got = p_concave_hull(f, p).hull.values
            ref, mask = self._lp_oracle(f, p)
            assert np.max(np.abs(got[mask] - ref[mask])) <= 1e-7

    @pytest.mark.parametrize("p", [-0.25, 0.0, 0.5, 1.0])
    def test_envelope_matches_oracle(self, p, rng):
        fields = []
        for k in range(60):
            shape = tuple(int(n) for n in rng.integers(2, 9, size=2))
            if k % 2:  # staircase: exact ties between lifts
                vals = rng.choice([0.5, 1.0, 1.5, 2.0], size=shape)
            else:
                vals = rng.uniform(0.1, 2.0, size=shape)
            vals[rng.random(shape) < 0.3] = 0.0
            if not vals.any():
                vals[0, 0] = 1.0
            fields.append(vals)
        # collinear, single-point and flat supports
        for cells in ([(2, j) for j in range(6)], [(i, 4) for i in range(5)],
                      [(i, i) for i in range(6)], [(i, 2 * i + 1) for i in range(3)],
                      [(3, 3)], [(1, 0), (0, 5)]):
            vals = np.zeros((6, 7))
            vals[tuple(np.array(cells).T)] = rng.uniform(0.1, 2.0, size=len(cells))
            fields.append(vals)
        fields.append(np.full((5, 6), 1.7))
        fields.append(np.where(rng.random((7, 7)) < 0.5, 1.7, 0.0))
        # mirror ties
        fields += [gaussian_2d(n).values for n in (6, 9, 12)]
        for vals in fields:
            idx = np.argwhere(vals > 0)
            assert_envelope_matches_oracle(idx, _lift(vals[tuple(idx.T)], p))

    def test_envelope_matches_oracle_near_coplanar(self, rng):
        """Lifts 1 ulp off a plane or a paraboloid, whose grid quads are
        exactly coplanar: the float filter leaves these signs to the exact
        predicate."""
        for k in range(45):
            shape = tuple(int(n) for n in rng.integers(3, 8, size=2))
            idx = np.argwhere(rng.random(shape) < 0.8)
            x, y = idx.T.astype(float)
            w = [3.0 * x - 2.0 * y + 5.0, -(x * x + y * y), x * x + y * y - 7.0][k % 3]
            step = rng.integers(-1, 2, size=len(w))
            w = np.where(step == 0, w, np.nextafter(w, np.where(step > 0, np.inf, -np.inf)))
            order = rng.permutation(len(w))
            assert_envelope_matches_oracle(idx[order], w[order])

    def test_plateau_needs_few_exact_predicates(self, monkeypatch):
        """A Gaussian capped to a plateau of 32 cells: every plateau cell is
        flat against the plateau facets (float orient exactly 0), which the
        filter decides, so fewer exact predicates run than there are facets
        (6994 before it did); the facets are still the oracle's."""
        g = gaussian_2d(10, sigma=0.6)
        f = g.with_values(np.minimum(g.values, 0.6))
        assert (f.values == 0.6).sum() == 32
        calls = []
        monkeypatch.setattr(hull, "_orient_above", lambda *a: calls.append(1) or _orient_above(*a))
        res = p_concave_hull(f, -0.25)
        assert 0 < len(calls) < len(res.facets)
        idx = np.argwhere(f.values > 0)
        e = int(_scale_exp(f.max(), f.values[f.values > 0].min(), -0.25))
        assert_envelope_matches_oracle(idx, _lift(f.values[tuple(idx.T)], -0.25, e))

    def test_pyramid_fixed_point(self):
        x = np.arange(7)
        vals = np.minimum.outer(np.minimum(x, 6 - x), np.minimum(x, 6 - x)) + 0.0
        f = GridFunction(2, (0.0, 0.0), 1.0, vals)
        res = p_concave_hull(f, 1.0)
        assert res.gap_mass <= 1e-12
        assert bool(is_p_concave(res.hull, 1.0, 1e-9))

    def test_extensivity_and_concavity(self, rng):
        for p in (-0.25, 0.0, 1.0):
            vals = rng.uniform(0.0, 1.0, size=(6, 6))
            vals[vals < 0.35] = 0.0
            if not vals.any():
                vals[3, 3] = 1.0
            f = GridFunction(2, (0.0, 0.0), 0.25, vals)
            res = p_concave_hull(f, p)
            assert np.all(res.hull.values >= f.values - 1e-12)
            assert bool(is_p_concave(res.hull, p, 1e-9))

    def test_lift_beyond_float_range(self):
        """1e200 at p = 2 on one corner of a 3x3 square, 1 on the others:
        the centre lies on the diagonal from the 1e200 corner, so it takes
        ((1e400 + 1) / 2)^(1/2), though 1e200^2 overflows."""
        vals = np.zeros((3, 3))
        vals[::2, ::2] = 1.0
        vals[0, 0] = 1e200
        res = p_concave_hull(GridFunction(2, (0.0, 0.0), 1.0, vals), 2.0)
        assert res.hull.values[1, 1] == pytest.approx(1e200 * math.sqrt(0.5), rel=1e-12)
        assert np.all(np.isfinite(res.hull.values)) and np.all(res.hull.values >= vals)


class TestIsPConcave:
    def test_indicator_any_p(self):
        f = indicator(0.0, 1.0, 0.1)
        for p in (-0.4, 0.0, 1.0, 3.0):
            assert bool(is_p_concave(f, p))

    def test_two_spikes_false_with_witness(self):
        vals = np.zeros(9)
        vals[0] = vals[8] = 1.0
        f = GridFunction(1, (0.0,), 0.1, vals)
        rep = is_p_concave(f, 0.0)
        assert not rep.ok
        assert rep.worst_gap == pytest.approx(1.0)
        x, y, mid = rep.witness
        assert mid == pytest.approx((x + y) / 2)

    def test_2d_mask(self):
        vals = np.zeros((5, 5))
        vals[0, 0] = vals[4, 4] = 1.0
        f = GridFunction(2, (0.0, 0.0), 1.0, vals)
        assert not is_p_concave(f, 0.0).ok

    @pytest.mark.parametrize("p", [-0.4, -0.25, -1e-4, 0.0, 1e-4, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_scan_oracle(self, dim, p, rng):
        cases = [(f, p) for f in concavity_corpus(rng, dim, p)]
        # p <= -1 is outside the kernel's parameters: every cell is suspect
        cases += [(f, -1.5) for f in concavity_corpus(rng, dim, 0.0)[:6]]
        if dim == 1 and p == 1.0:
            # y/x overflows, the mean does not
            cases.append((GridFunction(1, (0.0,), 1.0, np.array([1e-300, 1.0, 1e300])), p))
        wide = 0
        for f, q in cases:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                got = is_p_concave(f, q)
                ref = is_p_concave_oracle(f, q)
            assert (got.ok, got.worst_gap, got.witness) == (ref.ok, ref.worst_gap, ref.witness)
            wide += not _margin_covers(f.values[f.values > 0], q)
        assert wide >= 3
        if dim == 1 and p == 1.0:
            assert got.worst_gap == 5e299 and got.witness == (0.5, 2.5, 1.5)

    def test_tie_takes_first_pair(self, monkeypatch, rng):
        f = GridFunction(1, (0.0,), 1.0, np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
        rep = is_p_concave(f, 0.0)
        assert rep.worst_gap == 1.0 and rep.witness == (0.5, 2.5, 1.5)
        # ties between batches of the enumeration
        monkeypatch.setattr("bblab.supconv._PAIRS_PER_BATCH", 3)
        for k in range(40):
            shape = (int(rng.integers(3, 25)),) if k % 2 else (int(rng.integers(2, 7)),) * 2
            vals = rng.choice([0.0, 0.5, 1.0], size=shape)
            g = GridFunction(len(shape), (0.0,) * len(shape), 1.0, vals)
            got, ref = is_p_concave(g, 0.0), is_p_concave_oracle(g, 0.0)
            assert (got.ok, got.worst_gap, got.witness) == (ref.ok, ref.worst_gap, ref.witness)

    def test_filter_clears_concave_inputs(self, monkeypatch):
        """Strictly log-concave inputs have every cell cleared by the
        filter: no pair reaches p_mean_arr."""
        calls = []

        def spy(*args):
            calls.append(args)
            return p_mean_arr(*args)

        monkeypatch.setattr("bblab.hull.p_mean_arr", spy)
        bump = logconcave_bump(width=2.0, spacing=1e-3)
        assert bump.shape == (2000,)
        for f in (bump, gaussian_2d(20)):
            assert is_p_concave(f, 0.0) == PConcavityReport(True, 0.0, None)
        assert calls == []
        two = GridFunction(1, (0.0,), 1.0, np.array([1.0, 0.0, 1.0]))
        assert not is_p_concave(two, 0.0).ok
        assert calls

    def test_rejects_other_dims(self):
        f = GridFunction(3, (0.0,) * 3, 1.0, np.ones((3, 3, 3)))
        with pytest.raises(ValueError, match="dim 1 and 2"):
            is_p_concave(f, 0.0)


class TestConvexHullSet:
    def test_interval(self):
        A = level_set(indicator(0.0, 1.0, 0.1), 0.0)
        assert hull_deficit(A) == pytest.approx(0.0)

    def test_two_intervals(self):
        vals = np.concatenate([np.ones(10), np.zeros(10), np.ones(10)])
        f = GridFunction(1, (0.0,), 0.1, vals)
        A = level_set(f, 0.0)
        co = convex_hull_set(A)
        assert co.measure == pytest.approx(3.0)
        assert hull_deficit(A) == pytest.approx(0.5)  # (3-2)/2

    def test_2d_vs_bruteforce(self, rng):
        def point_in_hull_brute(q, pts):
            """q inside co(pts) iff no strict separating line through pairs."""
            from itertools import combinations

            if len(pts) == 1:
                return np.array_equal(q, pts[0])
            for a, b in combinations(range(len(pts)), 2):
                ux, uy = pts[b] - pts[a]
                side_q = ux * (q[1] - pts[a][1]) - uy * (q[0] - pts[a][0])
                sides = ux * (pts[:, 1] - pts[a][1]) - uy * (pts[:, 0] - pts[a][0])
                if (sides <= 0).all() and side_q > 0:
                    return False
                if (sides >= 0).all() and side_q < 0:
                    return False
            return True

        for _ in range(8):
            vals = (rng.random((7, 7)) < 0.3).astype(float)
            if not vals.any():
                vals[3, 3] = 1.0
            f = GridFunction(2, (0.0, 0.0), 1.0, vals)
            A = level_set(f, 0.0)
            co = convex_hull_set(A)
            pts = np.argwhere(A.mask)
            for cell in np.ndindex(*A.mask.shape):
                expected = point_in_hull_brute(np.array(cell), pts)
                assert co.mask[cell] == expected, (cell, pts)


class TestTail:
    def test_indicator(self):
        f = indicator(0.0, 1.0, 0.01)
        assert tail_ratio(f, 0.0) == pytest.approx(1.0)

    def test_hat_p1_closed_form(self):
        f = hat(width=2.0, height=1.0, spacing=0.001)
        r = tail_ratio(f, 1.0)
        assert r == pytest.approx(0.75, abs=5e-3)
        assert r >= tail_lower_bound(1.0, 1)

    def test_truncated_exponential(self):
        n = 300
        x = (np.arange(n) + 0.5) * 0.01
        f = GridFunction(1, (0.0,), 0.01, np.exp(-x))
        r = tail_ratio(f, 0.0)
        assert r >= tail_lower_bound(0.0, 1)

    def test_flags_nonconcave(self):
        vals = np.zeros(9)
        vals[0] = vals[8] = 1.0
        f = GridFunction(1, (0.0,), 0.1, vals)
        with pytest.warns(UserWarning):
            tail_ratio(f, 0.0)

    def test_bound_families(self, rng):
        # p-concave samples stay above the constructive constant
        for p in (-0.3, -0.1, 0.0, 0.5, 1.0):
            bound = tail_lower_bound(p, 1)
            assert 0.0 < bound <= 1.0
            f = hat(width=2.0, height=1.0, spacing=0.01)
            hull = p_concave_hull(f, p).hull
            assert tail_ratio(hull, p, check=False) >= bound - 1e-9

    def test_2d_bound(self):
        assert 0.0 < tail_lower_bound(-0.3, 2) < 1.0
        assert 0.0 < tail_lower_bound(0.0, 2) < 1.0
        vals = np.ones((10, 10))
        f = GridFunction(2, (0.0, 0.0), 0.1, vals)
        assert tail_ratio(f, 0.0, check=False) == pytest.approx(1.0)
        assert 1.0 >= tail_lower_bound(1.0, 2) > 0.0
