"""p-concave hulls, convex hulls of cell sets, p-planes, and the tail bound.

The p-concave hull co_p(f) is computed by lifting positive samples into
transform space (f^p for p != 0, log f for p = 0), taking the concave
majorant (p >= 0) or convex minorant (p < 0) of the lifted cloud, and
mapping back.  Hull combinatorics run in exact arithmetic: cell indices are
integers and lifted values are converted to exact rationals, so orientation
predicates never suffer floating-point ambiguity.  Zero cells never enter
the lift (for p < 0 they would sit at +infinity); the envelope is then
evaluated on every cell of the convex hull of the support, which is exactly
the domain where co_p is defined here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from .gridfn import GridFunction, LevelSet, ZeroMassError, integral, level_set
from .means import _mean, p_mean_arr

__all__ = [
    "PPlane",
    "p_plane_eval",
    "HullResult",
    "p_concave_hull",
    "PConcavityReport",
    "is_p_concave",
    "convex_hull_set",
    "hull_deficit",
    "tail_ratio",
    "tail_lower_bound",
]


@dataclass(frozen=True)
class PPlane:
    """The p-concave analogue of an affine function: (<x,y> + d)^(1/p) with a
    0-branch for p > 0, an infinity-branch for p < 0, and exp(<x,y> + d) at
    p = 0."""

    p: float
    y: tuple
    d: float


def p_plane_eval(plane: PPlane, x) -> float:
    s = float(np.dot(plane.y, np.atleast_1d(np.asarray(x, dtype=float)))) + plane.d
    if plane.p == 0.0:
        return math.exp(s)
    if s <= 0.0:
        return 0.0 if plane.p > 0 else math.inf
    return s ** (1.0 / plane.p)


def _p_plane_values(plane: PPlane, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at points xs of shape (k, dim)."""
    s = xs @ np.asarray(plane.y, dtype=float) + plane.d
    if plane.p == 0.0:
        return np.exp(s)
    out = np.where(s > 0, np.maximum(s, 0.0) ** (1.0 / plane.p), 0.0 if plane.p > 0 else np.inf)
    return out


def _lift(values: np.ndarray, p: float) -> np.ndarray:
    if p == 0.0:
        return np.log(values)
    return values ** p


def _unlift(w: np.ndarray, p: float) -> np.ndarray:
    if p == 0.0:
        return np.exp(w)
    return np.maximum(w, 0.0) ** (1.0 / p) if p > 0 else np.maximum(w, 1e-300) ** (1.0 / p)


# --------------------------------------------------------------------------
# exact 1-D upper concave chain on (integer index, rational value) points

def _upper_chain(idx: np.ndarray, w_exact: list) -> list:
    """Vertices of the upper concave envelope of {(idx_i, w_i)}, idx sorted."""
    pts = list(zip(idx.tolist(), w_exact))
    if len(pts) <= 2:
        return pts
    out = []
    for pt in pts:
        while len(out) >= 2:
            (x1, y1), (x2, y2) = out[-2], out[-1]
            # drop the middle point when it lies on or below the chord
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                out.pop()
            else:
                break
        out.append(pt)
    return out


# --------------------------------------------------------------------------
# exact 2-D upper envelope (gift wrap over the lifted cloud)

def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull_2d(points: np.ndarray) -> list:
    """Andrew monotone chain; CCW vertex list of integer points."""
    pts = sorted({(int(p[0]), int(p[1])) for p in points})
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _orient_above(P, Q, C, D) -> Fraction:
    """det[[Q-P],[C-P],[D-P]]; positive = D above plane(P,Q,C) when (P,Q,C)
    is CCW in the xy projection."""
    a1, a2, a3 = Q[0] - P[0], Q[1] - P[1], Q[2] - P[2]
    b1, b2, b3 = C[0] - P[0], C[1] - P[1], C[2] - P[2]
    c1, c2, c3 = D[0] - P[0], D[1] - P[1], D[2] - P[2]
    return (
        a1 * (b2 * c3 - b3 * c2)
        - a2 * (b1 * c3 - b3 * c1)
        + a3 * (b1 * c2 - b2 * c1)
    )


def _plane_through(P, Q, C):
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


def _collinear_envelope_2d(pts):
    """Upper envelope of lifted points whose xy all lie on one line."""
    p_lo = min(pts, key=lambda p: (p[0], p[1]))
    p_hi = max(pts, key=lambda p: (p[0], p[1]))
    ux, uy = p_hi[0] - p_lo[0], p_hi[1] - p_lo[1]
    if ux == 0 and uy == 0:
        w = max(p[2] for p in pts)
        return [(Fraction(0), Fraction(0), w)]
    g = math.gcd(abs(ux), abs(uy))
    dirv = (ux // g, uy // g)
    # with t = <dirv, (x, y)> integer, a segment w = m*t + q of the chain is
    # realized by the plane (m*d0, m*d1, q); evaluation happens on the line
    t = np.array([dirv[0] * p[0] + dirv[1] * p[1] for p in pts])
    order = np.argsort(t)
    chain = _upper_chain(t[order], [pts[i][2] for i in order])
    planes = []
    for (t1, w1), (t2, w2) in zip(chain[:-1], chain[1:]):
        m = (w2 - w1) / Fraction(int(t2) - int(t1))
        planes.append((m * dirv[0], m * dirv[1], w1 - m * t1))
    if not planes:
        _, w1 = chain[0]
        planes.append((Fraction(0), Fraction(0), Fraction(w1)))
    return planes


def _upper_envelope_2d(pts):
    """Facet planes of the upper concave envelope of lifted points.

    pts: list of (ix, iy, w) with integer ix, iy and Fraction w.  Returns a
    list of (alpha, beta, gamma) Fractions; the envelope is their pointwise
    minimum over the xy convex hull.  Every returned plane dominates all
    points (verified exactly), so the minimum never undercuts the envelope.
    """
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


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HullResult:
    hull: GridFunction
    gap_mass: float
    facets: list


def p_concave_hull(f: GridFunction, p: float) -> HullResult:
    """Minimal p-concave majorant of f, sampled on f's grid.

    Support of the hull is exactly the convex hull of supp(f) (cells whose
    centers lie in it, boundary included).  Facets are reported as PPlanes
    in position space.
    """
    if f.dim not in (1, 2):
        raise ValueError("p_concave_hull supports dim 1 and 2")
    if not p > -1.0 / f.dim:
        raise ValueError(f"need p > -1/dim = {-1.0/f.dim}, got {p}")
    if integral(f) <= 0:
        raise ZeroMassError("p_concave_hull needs positive mass")

    sign = 1.0 if p >= 0 else -1.0  # chain always builds an upper envelope
    h = f.spacing

    if f.dim == 1:
        idx = np.flatnonzero(f.values > 0)
        vals = f.values[idx]
        w = [Fraction(x) for x in (sign * _lift(vals, p)).tolist()]
        chain = _upper_chain(idx, w)
        domain = np.arange(idx.min(), idx.max() + 1)
        xs = [float(x) for x, _ in chain]
        ws = [float(v) for _, v in chain]
        env = sign * np.interp(domain.astype(float), xs, ws)
        hull_vals = np.zeros(f.shape)
        hull_vals[domain] = _unlift(env, p)
        hull_vals = np.maximum(hull_vals, f.values)
        hull = f.with_values(hull_vals)
        facets = []
        for (x1, w1), (x2, w2) in zip(chain[:-1], chain[1:]):
            m = sign * float((w2 - w1) / Fraction(x2 - x1))
            q = sign * float(w1) - m * x1
            # index -> position: i = (x - origin)/h - 1/2
            y = m / h
            d = q - m * (f.origin[0] / h + 0.5)
            facets.append(PPlane(p, (y,), d))
        if not facets:
            x1, w1 = chain[0]
            facets.append(PPlane(p, (0.0,), sign * float(w1)))
        gap = integral(hull) - integral(f)
        return HullResult(hull, gap, facets)

    idx = np.argwhere(f.values > 0)
    vals = f.values[tuple(idx.T)]
    lifted = (sign * _lift(vals, p)).tolist()
    pts = [(int(a), int(b), Fraction(wv)) for (a, b), wv in zip(idx.tolist(), lifted)]
    planes = _upper_envelope_2d(pts)
    cells = convex_hull_set(level_set(f, 0.0)).indices()
    env = np.full(len(cells), np.inf)
    for alpha, beta, gamma in planes:
        vals_p = float(alpha) * cells[:, 0] + float(beta) * cells[:, 1] + float(gamma)
        np.minimum(env, vals_p, out=env)
    hull_vals = np.zeros(f.shape)
    hull_vals[tuple(cells.T)] = _unlift(sign * env, p)
    hull_vals = np.maximum(hull_vals, f.values)
    hull = f.with_values(hull_vals)
    facets = []
    for alpha, beta, gamma in planes:
        a_, b_, g_ = sign * float(alpha), sign * float(beta), sign * float(gamma)
        y = (a_ / h, b_ / h)
        d = g_ - a_ * (f.origin[0] / h + 0.5) - b_ * (f.origin[1] / h + 0.5)
        facets.append(PPlane(p, y, d))
    gap = integral(hull) - integral(f)
    return HullResult(hull, gap, facets)


@dataclass(frozen=True)
class PConcavityReport:
    ok: bool
    worst_gap: float
    witness: tuple | None  # (x, y, midpoint) positions of the worst pair

    def __bool__(self) -> bool:
        return self.ok


def is_p_concave(f: GridFunction, p: float, tol: float = 1e-9) -> PConcavityReport:
    """Midpoint test f((x+y)/2) >= M_{1/2,p}(f(x), f(y)) - tol over all grid
    pairs whose midpoint is a grid node; reports the worst violating triple."""
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
            def pos(iv):
                ps = tuple(f.origin[d] + (iv[d] + 0.5) * f.spacing for d in range(f.dim))
                return ps[0] if f.dim == 1 else ps
            witness = (pos(i_idx), pos(j_idx), pos((i_idx + j_idx) // 2))
    return PConcavityReport(worst <= tol, worst, witness)


def convex_hull_set(A: LevelSet) -> LevelSet:
    """Grid convex hull: cells whose centers lie in co(centers of A)."""
    if A.cell_count == 0:
        raise ValueError("convex hull of an empty set")
    if A.dim == 1:
        idx = np.flatnonzero(A.mask)
        mask = np.zeros(A.mask.shape, dtype=bool)
        mask[idx.min() : idx.max() + 1] = True
        return LevelSet(1, A.threshold, mask, A.origin, A.spacing)
    idx = np.argwhere(A.mask)
    verts = _convex_hull_2d(2 * idx + 1)  # doubled coords: centers are odd ints
    if len(verts) == 1:
        return LevelSet(2, A.threshold, A.mask, A.origin, A.spacing)
    ii, jj = np.mgrid[0 : A.mask.shape[0], 0 : A.mask.shape[1]]
    px, py = 2 * ii + 1, 2 * jj + 1
    if len(verts) == 2:
        a, b = verts
        ux, uy = b[0] - a[0], b[1] - a[1]
        mask = (px - a[0]) * uy == (py - a[1]) * ux
        mask &= ((px - a[0]) * ux + (py - a[1]) * uy) >= 0
        mask &= ((px - b[0]) * ux + (py - b[1]) * uy) <= 0
    else:
        mask = np.ones(A.mask.shape, dtype=bool)
        for a, b in zip(verts, verts[1:] + verts[:1]):
            mask &= (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0]) >= 0
    return LevelSet(2, A.threshold, mask, A.origin, A.spacing)


def hull_deficit(A: LevelSet) -> float:
    """(|co(A)| - |A|) / |A|."""
    if A.cell_count == 0:
        raise ValueError("hull deficit of an empty set")
    co = convex_hull_set(A)
    return (co.measure - A.measure) / A.measure


def tail_ratio(g: GridFunction, p: float, check: bool = True) -> float:
    """Mass fraction carried by S = {g >= max(g)/2}.

    For p-concave g the ratio is bounded below by tail_lower_bound(p, dim);
    non-p-concave inputs are flagged with a warning and the ratio is still
    returned.
    """
    m = g.max()
    if m <= 0:
        raise ZeroMassError("tail_ratio needs max g > 0")
    if check and not is_p_concave(g, p, tol=1e-9 * m):
        warnings.warn("tail_ratio input is not p-concave on the grid", stacklevel=2)
    mask = g.values >= m / 2.0
    return float(g.values[mask].sum() / g.values.sum())


def tail_lower_bound(p: float, n: int) -> float:
    """Constructive lower bound for tail_ratio of a p-concave function.

    Radial decay outside S: the value on the boundary of lam*S (lam >= 1) is
    at most (1 + (2^-p - 1) lam)^(1/p) for p < 0, 2^-lam for p = 0, and the
    support stops at lam = 1/(1 - 2^-p) for p > 0; integrating over shells
    n lam^(n-1) |S| d lam and using mass(S) >= |S|/2 gives the bound.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p > 0:
        kappa = 1.0 / (1.0 - 2.0 ** (-p))
        return kappa ** (-n)
    if not p > -1.0 / n:
        raise ValueError(f"need p > -1/n = {-1.0/n}")
    if p == 0.0:
        J = quad(lambda lam: n * lam ** (n - 1) * 2.0 ** (-lam), 1, np.inf)[0]
    else:
        c = 2.0 ** (-p) - 1.0
        J = quad(lambda lam: n * lam ** (n - 1) * (1.0 + c * lam) ** (1.0 / p), 1, np.inf)[0]
    return 1.0 / (1.0 + 2.0 * J)
