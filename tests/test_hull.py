import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bblab import hull, supconv
from bblab.gridfn import _cell_centers
from bblab.hull import (
    HullResult,
    PConcavityReport,
    _above,
    _convex_hull_2d,
    _dyadic_ints,
    _integer_envelope_2d,
    _upper_chain,
    _upper_envelope_2d,
)
from bblab.means import _SMALL_P, _lift, _scale_exp, _unlift, p_mean_arr
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


# --- reference 2-D envelope: the gift wrap with every predicate and plane in
#     Fraction arithmetic, one Python loop per point; _integer_envelope_2d
#     must return the same planes, read as Fractions, in the same order

def read_plane(plane, K=0):
    """(alpha, beta, gamma) Fractions of an integer plane of the lifts times
    2^K, n3 w 2^K = -n1 x - n2 y + gamma."""
    n1, n2, n3, gamma = plane
    d = Fraction(n3) * (1 << K)
    return -n1 / d, -n2 / d, gamma / d


def plane_through_oracle(P, Q, C):
    """(alpha, beta, gamma) Fractions with w = alpha*x + beta*y + gamma."""
    d1 = (Q[0] - P[0], Q[1] - P[1], Q[2] - P[2])
    d2 = (C[0] - P[0], C[1] - P[1], C[2] - P[2])
    n1 = d1[1] * d2[2] - d1[2] * d2[1]
    n2 = d1[2] * d2[0] - d1[0] * d2[2]
    n3 = d1[0] * d2[1] - d1[1] * d2[0]
    alpha = Fraction(-n1, 1) / n3
    beta = Fraction(-n2, 1) / n3
    gamma = P[2] + (n1 * Fraction(P[0]) + n2 * Fraction(P[1])) / n3
    return alpha, beta, gamma


def cross2_oracle(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d_oracle(points):
    """Andrew's monotone chain; CCW vertex list of integer points."""
    pts = sorted({(int(p[0]), int(p[1])) for p in points})
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross2_oracle(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross2_oracle(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def orient_above_oracle(P, Q, C, D):
    """det[[Q-P],[C-P],[D-P]], exact on integers or Fractions; positive = D
    above plane(P,Q,C) when (P,Q,C) is CCW in the xy projection."""
    a1, a2, a3 = Q[0] - P[0], Q[1] - P[1], Q[2] - P[2]
    b1, b2, b3 = C[0] - P[0], C[1] - P[1], C[2] - P[2]
    c1, c2, c3 = D[0] - P[0], D[1] - P[1], D[2] - P[2]
    return (
        a1 * (b2 * c3 - b3 * c2)
        - a2 * (b1 * c3 - b3 * c1)
        + a3 * (b1 * c2 - b2 * c1)
    )


def collinear_envelope_2d_oracle(pts):
    """(alpha, beta, gamma) Fractions of the upper envelope of lifted points
    on one xy line, along the line's primitive direction."""
    p_lo = min(pts, key=lambda p: (p[0], p[1]))
    p_hi = max(pts, key=lambda p: (p[0], p[1]))
    ux, uy = p_hi[0] - p_lo[0], p_hi[1] - p_lo[1]
    if ux == 0 and uy == 0:
        return [(Fraction(0), Fraction(0), max(p[2] for p in pts))]
    g = math.gcd(abs(ux), abs(uy))
    dirv = (ux // g, uy // g)
    # with t = <dirv, (x, y)> integer, the chain's segment (t1, w1)-(t2, w2) is the
    # plane dt w = dw (d0 x + d1 y) + w1 dt - dw t1; evaluation happens on the line
    t = np.array([dirv[0] * p[0] + dirv[1] * p[1] for p in pts])
    order = np.argsort(t)
    chain = _upper_chain(t[order], [pts[i][2] for i in order])
    planes = []
    for (t1, w1), (t2, w2) in zip(chain[:-1], chain[1:]):
        dt, dw = int(t2) - int(t1), w2 - w1
        planes.append(read_plane((-dw * dirv[0], -dw * dirv[1], dt, w1 * dt - dw * int(t1))))
    return planes or [(Fraction(0), Fraction(0), chain[0][1])]


def upper_envelope_2d_oracle(pts):
    hull_xy = convex_hull_2d_oracle(np.array([(p[0], p[1]) for p in pts]))
    if len(hull_xy) <= 2:
        return collinear_envelope_2d_oracle(pts)

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
        cand = [D for D in pts if cross2_oracle(P, Q, D) > 0]
        if not cand:
            continue
        C = cand[0]
        for D in cand[1:]:
            if orient_above_oracle(P, Q, C, D) > 0:
                C = D
        for D in pts:
            if orient_above_oracle(P, Q, C, D) > 0:
                raise RuntimeError("hull wrap produced a non-supporting facet")
        planes.append(plane_through_oracle(P, Q, C))
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
    planes, K = _integer_envelope_2d(idx, w)
    assert all(plane[2] > 0 for plane in planes)  # n3 w 2^K = ..., so n3 > 0
    assert [read_plane(plane, K) for plane in planes] == upper_envelope_2d_oracle(pts)


# --- reference p_concave_hull: the 1-D chain's values as Fractions, converted
#     to floats one by one, and one _pplane call per facet in both dims;
#     p_concave_hull must give the same hull values, gap_mass and facets

def pplane_oracle(f: GridFunction, p: float, e: int, coef, const) -> PPlane:
    y = [float(a) for a in coef]
    d = float(const)
    for a, o in zip(y, f.origin):
        d -= a * (o / f.spacing + 0.5)
    return PPlane(p, e, tuple(a / f.spacing for a in y), d)


def p_concave_hull_1d_oracle(f: GridFunction, p: float) -> HullResult:
    e = int(_scale_exp(f.max(), f.values[f.values > 0].min(), p))
    idx = np.flatnonzero(f.values > 0)
    ints, K = _dyadic_ints(_lift(f.values[idx], p, e))
    chain = [(x, Fraction(w, 1 << K)) for x, w in _upper_chain(idx, ints)]
    domain = np.arange(idx.min(), idx.max() + 1)
    xs = [float(x) for x, _ in chain]
    ws = [float(v) for _, v in chain]
    hull_vals = np.zeros(f.shape)
    hull_vals[domain] = _unlift(np.interp(domain.astype(float), xs, ws), p, e)
    facets = []
    for (x1, w1), (x2, w2) in zip(chain[:-1], chain[1:]):
        m = float((w2 - w1) / Fraction(x2 - x1))
        facets.append(pplane_oracle(f, p, e, (m,), float(w1) - m * x1))
    if not facets:  # one support cell: a constant, slope +0.0 for every p
        facets.append(PPlane(p, e, (0.0,), pplane_oracle(f, p, e, (), chain[0][1]).d))
    hull = f.with_values(np.maximum(hull_vals, f.values))
    return HullResult(hull, integral(hull) - integral(f), facets)


def p_concave_hull_2d_oracle(f: GridFunction, p: float) -> HullResult:
    e = int(_scale_exp(f.max(), f.values[f.values > 0].min(), p))
    idx = np.argwhere(f.values > 0)
    planes = _upper_envelope_2d(idx, _lift(f.values[tuple(idx.T)], p, e))
    cells = convex_hull_set(level_set(f, 0.0)).indices()
    env = np.full(len(cells), np.inf)
    for alpha, beta, gamma in planes:
        vals_p = float(alpha) * cells[:, 0] + float(beta) * cells[:, 1] + float(gamma)
        np.minimum(env, vals_p, out=env)
    hull_vals = np.zeros(f.shape)
    hull_vals[tuple(cells.T)] = _unlift(env, p, e)
    facets = [pplane_oracle(f, p, e, (alpha, beta), gamma) for alpha, beta, gamma in planes]
    hull = f.with_values(np.maximum(hull_vals, f.values))
    return HullResult(hull, integral(hull) - integral(f), facets)


def assert_hull_matches_oracle(f: GridFunction, p: float):
    """Bit for bit: hull values, gap_mass and facets, each compared by repr."""
    got = p_concave_hull(f, p)
    ref = (p_concave_hull_1d_oracle if f.dim == 1 else p_concave_hull_2d_oracle)(f, p)
    assert np.array_equal(got.hull.values, ref.hull.values)
    assert repr(got.gap_mass) == repr(ref.gap_mass)
    assert [repr(pl) for pl in got.facets] == [repr(pl) for pl in ref.facets]


def assert_facets_span_hull(f: GridFunction, res: HullResult):
    """Every facet is finite, and their lower envelope (p_plane_eval) is the
    hull within 1e-12 relative wherever the hull exceeds f, and exceeds the
    hull on no cell of its support."""
    for plane in res.facets:
        assert np.isfinite(plane.y).all() and math.isfinite(plane.d)
    cells = np.argwhere(res.hull.values > 0)
    hull = res.hull.values[tuple(cells.T)]
    env = np.array([min(p_plane_eval(plane, x) for plane in res.facets)
                    for x in _cell_centers(f, cells)])
    above = hull > f.values[tuple(cells.T)]
    assert above.any()
    assert env[above] == pytest.approx(hull[above], rel=1e-12)
    assert np.all(env <= hull)


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
    """2^e L^-1(<x, y> + d) with the lift L of means._lift."""

    def test_constant(self):
        assert p_plane_eval(PPlane(1.0, 0, (0.0,), 2.0), 3.7) == pytest.approx(2.0)
        assert p_plane_eval(PPlane(1.0, 3, (0.0,), 2.0), 3.7) == pytest.approx(16.0)

    def test_infinite_branch(self):
        """At p < 0, L = -z^p is negative: a lift >= 0 unlifts to inf, and
        the lift 0.5 - 1 = -0.5 at p = -1/2 to 0.5^-2 = 4."""
        assert p_plane_eval(PPlane(-0.5, 0, (1.0,), 0.0), 0.0) == math.inf
        assert p_plane_eval(PPlane(-0.5, 0, (1.0,), -1.0), 0.5) == pytest.approx(4.0)

    def test_zero_branch(self):
        assert p_plane_eval(PPlane(0.5, 0, (1.0,), -1.0), 0.5) == 0.0

    def test_exp_branch(self):
        assert p_plane_eval(PPlane(0.0, 0, (0.0,), 0.0), 123.0) == pytest.approx(1.0)
        assert p_plane_eval(PPlane(0.0, -1, (0.0,), 1.0), 123.0) == pytest.approx(math.e / 2)

    def test_power_branch_2d(self):
        pl = PPlane(0.5, 0, (1.0, 1.0), 0.0)
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
        cell of [1, 0, 1e200] takes ((1 + 1e400) / 2)^(1/2), and so do the
        facets, which live on the same lift scale."""
        f = GridFunction(1, (0.0,), 1.0, np.array([1.0, 0.0, 1e200]))
        res = p_concave_hull(f, 2.0)
        hull = res.hull.values
        assert hull == pytest.approx([1.0, 1e200 * math.sqrt(0.5), 1e200], rel=1e-12)
        assert_facets_span_hull(f, res)


    @pytest.mark.parametrize("p", [-0.4, -0.25, -1e-3, -1e-7, 0.0, 1e-9, 1e-4, 0.5, 1.0, 2.0])
    def test_matches_fraction_oracle(self, p, rng):
        """Random, holed, tied, bump (p-concave: every cell a vertex),
        indicator and spread values, on 1 to 300 cells and two grids, plus
        one and two support cells, against the Fraction chain."""
        rows = [np.array([0.0, 0.0, 3.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0, 2.0]),
                np.array([1.0, 0.0, 1e200])]
        for n in (1, 2, 3, 5, 10, 50, 300):
            holed = rng.uniform(0.1, 2.0, n) * (rng.random(n) < 0.7)
            holed[int(rng.integers(0, n))] = 1.0
            bump = (pconcave_bump(p, spacing=2.0 / n) if abs(p) >= _SMALL_P
                    else logconcave_bump(spacing=2.0 / n))
            rows += [rng.uniform(0.1, 2.0, n), holed,
                     rng.choice([0.5, 1.0, 1.5, 2.0], size=n),
                     bump.values, np.ones(n),
                     10.0 ** rng.uniform(-150.0, 150.0, n)]
        for vals in rows:
            for origin, spacing in (((0.0,), 0.1), ((-3.7,), 0.013)):
                assert_hull_matches_oracle(GridFunction(1, origin, spacing, vals), p)


def two_bump(n):
    """Two log-concave bumps of n/2 cells each, side by side (a zero gap):
    each pruning pass drops about one point a side of the valley."""
    return np.concatenate([logconcave_bump(spacing=4.0 / n).values] * 2)


def chain_row(kind, rng):
    """(values, p) for the pruned 1-D chain."""
    n = int(rng.integers(3, 300))
    p = float(rng.choice([-0.4, 0.0, 1e-9, 0.5, 1.0, 2.0]))
    if kind == "bump":  # p-concave (log-concave near p = 0): few or no drops
        bump = (pconcave_bump(p, spacing=2.0 / n) if abs(p) >= _SMALL_P
                else logconcave_bump(spacing=2.0 / n))
        return bump.values, p
    if kind == "two-bump":
        return two_bump(2 * (n // 2) + 2), p
    if kind == "plateau":  # runs of equal values
        runs = n // 4 + 1
        return np.repeat(rng.choice([0.5, 1.0, 2.0], size=runs), rng.integers(1, 9, size=runs)), p
    if kind == "convex":  # every middle point below its chord: the ends are left
        x = np.linspace(-1.0, 1.0, n)
        return np.exp(rng.uniform(0.5, 5.0) * x ** 2 + rng.uniform(-1, 1) * x), 0.0
    if kind == "collinear":  # lifts on a line, give or take an ulp: the exact test decides
        vals = 1.0 + rng.uniform(0.1, 3.0) * np.arange(n)
        return vals * (1.0 + rng.integers(-2, 3, size=n) * 2.0 ** -52), 1.0
    if kind == "spread":
        return 10.0 ** rng.uniform(-150.0, 150.0, n), p
    k = 1 if kind == "one" else 2  # support cells
    vals = np.zeros(n)
    vals[rng.choice(n, size=k, replace=False)] = rng.uniform(0.1, 2.0, k)
    return vals, p


class TestChain1D:
    """The pruned chain (_chain_1d) and the slope rule (_chain_slopes)
    against _upper_chain and integer quotients over all points."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["bump", "two-bump", "plateau", "convex", "collinear", "spread",
                                 "one", "two"]))
    def test_matches_upper_chain(self, seed, kind):
        """Vertex positions, slope bits and facet reprs."""
        vals, p = chain_row(kind, np.random.default_rng(seed))
        idx = np.flatnonzero(vals > 0)
        e = int(_scale_exp(vals.max(), vals[idx].min(), p))
        w = _lift(vals[idx], p, e)
        ints, K = _dyadic_ints(w)
        chain = _upper_chain(idx, ints)
        v = hull._chain_1d(idx, w)
        assert idx[v].tolist() == [x for x, _ in chain]
        if len(chain) > 1:
            ref = np.array([(b - a) / ((x2 - x1) << K)
                            for (x1, a), (x2, b) in zip(chain[:-1], chain[1:])])
            assert np.array_equal(hull._chain_slopes(idx[v], w[v]).view(np.int64), ref.view(np.int64))
        assert_hull_matches_oracle(GridFunction(1, (-3.7,), 0.013, vals), p)

    def test_collinear_takes_exact_test(self, monkeypatch):
        """Lifts exactly on a line leave every float orientation in doubt."""
        calls = []
        monkeypatch.setattr(hull, "_dyadic_ints", lambda w: calls.append(len(w)) or _dyadic_ints(w))
        p_concave_hull(GridFunction(1, (0.0,), 0.1, 1.0 + np.arange(50.0)), 1.0)
        assert calls and calls[0] == 50

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_finisher_runs_only_when_pruning_stalls(self, p, monkeypatch):
        """A 5000-cell two-bump row loses a few points a pass, so its
        survivors go to _upper_chain; a bump loses none in its first pass
        and never gets there."""
        calls = []
        monkeypatch.setattr(hull, "_upper_chain", lambda x, w: calls.append(len(x)) or _upper_chain(x, w))
        for vals, runs in ((two_bump(5000), True), (pconcave_bump(p, spacing=2.0 / 5000).values, False)):
            calls.clear()
            f = GridFunction(1, (0.0,), 0.1, vals)
            res = p_concave_hull(f, p)
            assert bool(calls) == runs and (not runs or 0 < calls[0] < 5000)
            ref = p_concave_hull_1d_oracle(f, p)
            assert [repr(pl) for pl in res.facets] == [repr(pl) for pl in ref.facets]

    def test_slopes_round_once_near_underflow(self):
        """Lifts near the bottom of the normal range, gaps up to 2^40, half
        of them powers of two: every slope is the Fraction quotient rounded
        once, also where fl(w2 - w1) / dx would round twice (a subnormal
        quotient of an inexact difference)."""
        rng = np.random.default_rng(0)
        n = 2000
        # the last pair: fl(5 2^-1015 + 2^-1100) / 2^60 is a tie, 2.5 2^-1074,
        # which rounds to even; the exact quotient rounds up to 3 2^-1074
        w = np.append(np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1000, -940, n)),
                      [-2.0 ** -1100, 5 * 2.0 ** -1015])
        dx = np.append(np.where(rng.random(n) < 0.5, 2 ** rng.integers(0, 40, n),
                                rng.integers(1, 2 ** 40, n)), 2 ** 60)
        x = np.concatenate([[0], np.cumsum(dx)])
        ref = np.array([float((Fraction(b) - Fraction(a)) / d)
                        for a, b, d in zip(w[:-1].tolist(), w[1:].tolist(), dx.tolist())])
        assert np.array_equal(hull._chain_slopes(x, w).view(np.int64), ref.view(np.int64))
        pow2 = dx & (dx - 1) == 0
        assert np.any(pow2 & ((w[1:] - w[:-1]) / dx != ref))

    @pytest.mark.parametrize("p, vals", [
        (0.0, np.exp([-40.3, -15.1, -1.2, -5.7, -40.9])),  # lifts log z
        (-0.4, np.array([0.9, 0.3, 0.01, 0.1, 0.8]) ** -2.5)])  # lifts -z^-0.4
    def test_slopes_fall_back_to_integers(self, p, vals, rng, monkeypatch):
        """Vertex gaps of 3, 5, 6 and 7 cells with inexact float differences
        (neighbouring lifts more than a factor 2 apart, jittered mantissas):
        each slope is an integer quotient, and the facets are the Fraction
        oracle's.  Gaps of 1, 2 and 4 cells take no integer."""
        calls = []
        monkeypatch.setattr(hull, "_dyadic_ints", lambda w: calls.append(len(w)) or _dyadic_ints(w))
        for gaps, fallback in (((3, 5, 6, 7), True), ((1, 2, 4, 4), False)):
            cells = np.concatenate([[0], np.cumsum(gaps)])
            row = np.zeros(cells[-1] + 1)
            row[cells] = vals * (1.0 + 1e-3 * rng.random(len(vals)))
            e = int(_scale_exp(row.max(), row[cells].min(), p))
            w = _lift(row[cells], p, e)
            assert hull._chain_1d(cells, w).tolist() == list(range(len(cells)))
            if fallback:
                assert np.all(supconv._two_diff(w[1:], w[:-1])[1] != 0.0)
            calls.clear()
            assert_hull_matches_oracle(GridFunction(1, (0.0,), 0.1, row), p)
            assert calls[:1] == ([len(cells)] if fallback else [])


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

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1e-4, 0.5, 1.0, 2.0])
    def test_matches_fraction_oracle(self, p, rng):
        """test_envelope_matches_oracle's fields, on two grids, against the
        Fraction planes converted one coefficient at a time."""
        fields = []
        for k in range(60):
            shape = tuple(int(n) for n in rng.integers(2, 9, size=2))
            if k % 2:
                vals = rng.choice([0.5, 1.0, 1.5, 2.0], size=shape)
            else:
                vals = rng.uniform(0.1, 2.0, size=shape)
            vals[rng.random(shape) < 0.3] = 0.0
            if not vals.any():
                vals[0, 0] = 1.0
            fields.append(vals)
        for cells in ([(2, j) for j in range(6)], [(i, 4) for i in range(5)],
                      [(i, i) for i in range(6)], [(i, 2 * i + 1) for i in range(3)],
                      [(3, 3)], [(1, 0), (0, 5)]):
            vals = np.zeros((6, 7))
            vals[tuple(np.array(cells).T)] = rng.uniform(0.1, 2.0, size=len(cells))
            fields.append(vals)
        fields.append(np.full((5, 6), 1.7))
        fields.append(np.where(rng.random((7, 7)) < 0.5, 1.7, 0.0))
        fields += [gaussian_2d(n).values for n in (6, 9, 12)]
        for k, vals in enumerate(fields):
            origin, spacing = ((0.0, 0.0), 0.1) if k % 2 else ((-3.7, 1.1), 0.013)
            assert_hull_matches_oracle(GridFunction(2, origin, spacing, vals), p)

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
        monkeypatch.setattr(hull, "_above", lambda *a: calls.append(1) or _above(*a))
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
        f = GridFunction(2, (0.0, 0.0), 1.0, vals)
        res = p_concave_hull(f, 2.0)
        assert res.hull.values[1, 1] == pytest.approx(1e200 * math.sqrt(0.5), rel=1e-12)
        assert np.all(np.isfinite(res.hull.values)) and np.all(res.hull.values >= vals)
        assert_facets_span_hull(f, res)


class TestIsPConcave:
    def test_zero_function_is_ok(self):
        for shape in ((7,), (4, 5)):
            z = GridFunction(len(shape), (0.0,) * len(shape), 0.1, np.zeros(shape))
            assert is_p_concave(z, 0.0) == PConcavityReport(True, 0.0, None)

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

    @settings(max_examples=300, deadline=None)
    @given(free=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), max_size=12),
           runs=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16),
                                   st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -1), (2, 1),
                                                    (0, 3)]),
                                   st.integers(1, 8)), max_size=3),
           repeat=st.integers(0, 6))
    def test_2d_chain_matches_andrew(self, free, runs, repeat):
        """_convex_hull_2d gives Andrew's vertex list on lattice sets with
        repeated points, collinear runs and vertical columns."""
        pts = free + [(x + t * dx, y + t * dy) for x, y, (dx, dy), n in runs for t in range(n)]
        pts += pts[:repeat]
        if not pts:
            pts = [(3, 4)]
        assert _convex_hull_2d(np.array(pts)) == convex_hull_2d_oracle(pts)

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
            assert tail_ratio(hull, p) >= bound - 1e-9

    def test_2d_bound(self):
        assert 0.0 < tail_lower_bound(-0.3, 2) < 1.0
        assert 0.0 < tail_lower_bound(0.0, 2) < 1.0
        vals = np.ones((10, 10))
        f = GridFunction(2, (0.0, 0.0), 0.1, vals)
        assert tail_ratio(f, 0.0) == pytest.approx(1.0)
        assert 1.0 >= tail_lower_bound(1.0, 2) > 0.0
