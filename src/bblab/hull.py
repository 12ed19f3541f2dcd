"""p-concave hulls, convex hulls of cell sets, p-planes, and the tail bound.

The p-concave hull co_p(f) is computed by lifting positive samples with the
increasing lift of means._lift (log f at p = 0, sign(p) f^p, or its
Box-Cox form for small |p|), under which p-concavity is concavity, taking
the upper concave envelope of the lifted cloud, and mapping back.  The
lift is of f / 2^e (means._scale_exp), so it cannot overflow.  Hull
combinatorics are exact: cell indices are integers, and the exact
predicates run on the float lifts times one power of two 2^K, as Python
integers (_dyadic_ints); the signs do not change, and planes are divided
by 2^K at the end.  In 2-D the gift wrap evaluates its orientation
predicates in float, for all points at once, with a rigorous error bound
(a filter in the manner of Shewchuk's adaptive predicates), and falls back
to the exact predicate only for the signs the bound leaves in doubt; its
facets are those of an all-Fraction wrap, in the same order.  Zero cells
never enter the envelope (their lift is -inf); the envelope is then
evaluated on every cell of the convex hull of the support, which is
exactly the domain where co_p is defined here.

The midpoint test is_p_concave (dims 1 and 2) gives the report of a scan
of every pair of positive cells, but scans only where a filter cannot
clear a midpoint cell k: one max-plus pass of sup_convolution's kernel
bounds M_{1/2,p} over the distinct pairs with midpoint k, the proof at
supconv._MARGIN turns that bound into "every gap at k is negative", and the
pairs of the remaining cells are enumerated and compared with p_mean_arr.
Ties go to the first pair in row-major order.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from .gridfn import GridFunction, LevelSet, ZeroMassError, _cell_centers, integral, level_set
from .means import _SMALL_P, MeanParams, _lift, _scale_exp, _unlift, p_mean_arr
from .supconv import _MARGIN, _crop, _lattice_sums, _margin_covers, _progression_pairs

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


def _pplane(f: GridFunction, p: float, e: int, coef, const) -> PPlane:
    """The facet w = <coef, index> + const on the lift scale L of z = f / 2^e
    as a PPlane in position space, on the x^p scale (2^(ep) times sign(p) L,
    or 1 + p L for Box-Cox; L + e log 2 at p = 0; inf or nan past floats)."""
    box_cox = 0.0 < abs(p) < _SMALL_P
    g = 2.0 ** (e * p) if e * p < 1024 else math.inf
    scale = g * (p if box_cox else (-1.0 if p < 0 else 1.0))
    y = [scale * float(a) for a in coef]
    d = scale * float(const) + (g if box_cox else e * math.log(2.0) if p == 0.0 else 0.0)
    # index -> position: i = (x - origin)/h - 1/2
    for a, o in zip(y, f.origin):
        d -= a * (o / f.spacing + 0.5)
    return PPlane(p, tuple(a / f.spacing for a in y), d)


def _dyadic_ints(w: np.ndarray):
    """(ints, K): every float of w times 2^K as a Python integer, for the
    least K >= 0 that makes them all integers.  The chain and orientation
    tests below are homogeneous in the lifts, so they give the same signs
    on these integers as on the floats, without a Fraction."""
    ratios = [x.as_integer_ratio() for x in np.asarray(w, dtype=float).tolist()]
    K = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return [m << (K - d.bit_length() + 1) for m, d in ratios], K


def _unscale(planes: list, K: int) -> list:
    """Planes of the lifts times 2^K as Fraction planes of the lifts."""
    return [tuple(Fraction(c) / (1 << K) for c in plane) for plane in planes]


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


def _orient_above(P, Q, C, D):
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


# smallest positive subnormal: covers the absolute rounding error of a
# product or quotient that lands among the subnormals
_TINY = math.ulp(0.0)


def _orient_filter(X, Y, W, P, Q, C, cross):
    """Float orient(P, Q, C, D) for every point D, with a bound on its error.

    cross[D] must be cross(P, Q, D).  Returns (o, e, flat) such that,
    wherever e is finite, |o - orient| < e; so o < -e proves orient < 0.
    (e is inf or nan where the evaluation overflowed.)  flat marks the
    points where m = 0 below, at which orient = o = 0 exactly: D lies on
    plane(P, Q, C).

    Proof.  Expanding the determinant along the lift column gives
        orient = k_ab*(w_D - w_P) - k_ac*(w_C - w_P) + k_bc*(w_Q - w_P),
    where the k are 2-D cross products of integer cells, exact in int64 and
    as floats (|k| < 2^53), and k_ac = cross(P, Q, D).  In float each term
    T_i takes one rounding in its lift difference and one in its product,
    and the sum (T_1 - T_2) + T_3 two more, so with u = 2^-53 and
    g = 4u/(1 - 4u), |o - orient| <= g*M for M = sum |T_i| (Higham, Lemma
    3.1).  Underflow adds nothing: a sum that lands among the subnormals is
    exact, and since an integer k != 0 never shrinks a difference, a
    product is either exact or within relative u.  The bound m = (|T_1| + |T_2|) + |T_3|,
    summed in float from the rounded terms, has m >= (1 - g)*M, and m >= |o|
    because rounding is monotone.  So the error is at most 4.01u*m, and it
    is 0 if m = 0, while e = 2^-50*m + _TINY is at least 8u*m and at least
    _TINY (2^-50*m is exact unless it underflows, and then adding _TINY is
    exact and makes up for its rounding).
    """
    ax, ay, a3 = X[Q] - X[P], Y[Q] - Y[P], W[Q] - W[P]
    bx, by, b3 = X[C] - X[P], Y[C] - Y[P], W[C] - W[P]
    k_ab = ax * by - ay * bx
    k_bc = bx * (Y - Y[P]) - by * (X - X[P])
    t1, t2, t3 = k_ab * (W - W[P]), cross * b3, k_bc * a3
    o = t1 - t2 + t3
    m = np.abs(t1) + np.abs(t2) + np.abs(t3)
    return o, m * 2.0 ** -50 + _TINY, m == 0.0


def _upper_envelope_2d(idx: np.ndarray, w: np.ndarray) -> list:
    """Facet planes of the upper concave envelope of lifted points.

    idx: (n, 2) distinct integer cells; w: their n float lifts.  Returns a
    list of (alpha, beta, gamma) Fractions with w = alpha*x + beta*y + gamma;
    the envelope is their pointwise minimum over the xy convex hull.  Every
    returned plane dominates all points (verified exactly), so the minimum
    never undercuts the envelope.

    Gift wrap: the 1-D envelopes along the xy-hull edges seed a LIFO queue of
    directed edges (P, Q), and each new edge gets the facet (P, Q, C) with C
    left of PQ and no point above plane(P, Q, C).  For the first candidate
    C0, let s(D) = orient(P, Q, C0, D) / cross(P, Q, D): D lies above
    plane(P, Q, C) iff s(D) > s(C).  Tie rule: C is the first candidate, in
    point order, that maximizes s, which is where a scan ends that moves C
    to each later candidate strictly above plane(P, Q, C).

    Filter: every predicate is first evaluated in float for all points at
    once, with the bound e of _orient_filter, and the exact predicate, on
    the integers of _dyadic_ints, runs only where the float sign is in doubt.
    - Choosing C: s is computed as o/k (k = cross(P, Q, D) >= 1), with
      e_s = e/k + _TINY.  The quotient adds u*|o|/k <= u*m/k, or _TINY/2
      if it underflows, to the 4.01u*m/k error of o/k.  e_s covers that:
      it is at least (1 - u)*8u*m/k, and exceeds e/k by _TINY/2 when e/k
      underflows (when it does not, 2.99u*m/k alone exceeds _TINY).  So
      s - e_s <= s_exact <= s + e_s, and monotone rounding keeps
      s + e_s >= max(s - e_s) true in float for every exact maximizer.  The
      candidates that pass this test are scanned in order: D replaces C
      when it lies above plane(P, Q, C), by the filter of that plane where
      it decides (o > e, or o < -e, or a flat point, which lies on the
      plane: a capped plateau makes many) and by the exact predicate
      elsewhere.  Usually one candidate passes.
    - Checking the facet: the exact predicate runs on every point with
      o >= -e (or an overflowed o) except P, Q, C and the flat points, which
      lie on the plane, and any point above the plane raises.
    """
    X = idx[:, 0].astype(np.int64)
    Y = idx[:, 1].astype(np.int64)
    W = np.asarray(w, dtype=float)
    n = len(W)
    ints, K = _dyadic_ints(W)
    pts = list(zip(X.tolist(), Y.tolist(), ints))

    hull_xy = _convex_hull_2d(idx)
    if len(hull_xy) <= 2:
        return _unscale(_collinear_envelope_2d(pts), K)

    planes = []
    seen = set()
    queue = []
    for U, V in zip(hull_xy, hull_xy[1:] + hull_xy[:1]):
        # 1-D envelope of the points on segment U->V; push its pieces
        ux, uy = V[0] - U[0], V[1] - U[1]
        t = (X - U[0]) * ux + (Y - U[1]) * uy
        on_line = (X - U[0]) * uy == (Y - U[1]) * ux
        on = np.flatnonzero(on_line & (t >= 0) & (t <= ux * ux + uy * uy))
        on = on[np.argsort(t[on])]
        chain = _upper_chain(t[on], [pts[k][2] for k in on])
        keep = {int(c[0]) for c in chain}
        verts = [int(k) for k in on if t[k] in keep]
        queue.extend(zip(verts[:-1], verts[1:]))

    guard = 0
    while queue:
        guard += 1
        if guard > 8 * n ** 2:
            raise RuntimeError("hull wrap failed to terminate")
        P, Q = queue.pop()
        if (P, Q) in seen:
            continue
        seen.add((P, Q))
        cross = (X[Q] - X[P]) * (Y - Y[P]) - (Y[Q] - Y[P]) * (X - X[P])
        cand = np.flatnonzero(cross > 0)
        if len(cand) == 0:
            continue
        o, e, _ = _orient_filter(X, Y, W, P, Q, cand[0], cross)
        k = cross[cand]
        s, e_s = o[cand] / k, e[cand] / k + _TINY
        unsure = ~np.isfinite(e_s)
        hi = np.where(unsure, np.inf, s + e_s)
        lo = np.where(unsure, -np.inf, s - e_s)
        top = cand[hi >= lo.max()]
        C = int(top[0])
        o, e, flat = _orient_filter(X, Y, W, P, Q, C, cross)
        for D in top[1:]:
            if o[D] > e[D] or not (o[D] < -e[D] or flat[D]) and (
                    _orient_above(pts[P], pts[Q], pts[C], pts[D]) > 0):
                C = int(D)
                o, e, flat = _orient_filter(X, Y, W, P, Q, C, cross)
        doubt = ~((o < -e) | flat)
        doubt[[P, Q, C]] = False
        for D in np.flatnonzero(doubt):
            if _orient_above(pts[P], pts[Q], pts[C], pts[D]) > 0:
                raise RuntimeError("hull wrap produced a non-supporting facet")
        planes.append(_plane_through(pts[P], pts[Q], pts[C]))
        seen.update(((P, Q), (Q, C), (C, P)))
        for E in ((C, Q), (P, C)):
            if E not in seen:
                queue.append(E)
    return _unscale(planes, K)


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

    e = int(_scale_exp(f.max(), f.values[f.values > 0].min(), p))
    if f.dim == 1:
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
            facets.append(_pplane(f, p, e, (m,), float(w1) - m * x1))
        if not facets:  # one support cell: a constant, slope +0.0 for every p
            facets.append(PPlane(p, (0.0,), _pplane(f, p, e, (), chain[0][1]).d))
    else:
        idx = np.argwhere(f.values > 0)
        planes = _upper_envelope_2d(idx, _lift(f.values[tuple(idx.T)], p, e))
        cells = convex_hull_set(level_set(f, 0.0)).indices()
        env = np.full(len(cells), np.inf)
        for alpha, beta, gamma in planes:
            vals_p = float(alpha) * cells[:, 0] + float(beta) * cells[:, 1] + float(gamma)
            np.minimum(env, vals_p, out=env)
        hull_vals = np.zeros(f.shape)
        hull_vals[tuple(cells.T)] = _unlift(env, p, e)
        facets = [_pplane(f, p, e, (alpha, beta), gamma) for alpha, beta, gamma in planes]
    hull = f.with_values(np.maximum(hull_vals, f.values))
    return HullResult(hull, integral(hull) - integral(f), facets)


@dataclass(frozen=True)
class PConcavityReport:
    ok: bool
    worst_gap: float
    witness: tuple | None  # (x, y, midpoint) positions of the worst pair

    def __bool__(self) -> bool:
        return self.ok


def _midpoint_means(fv: np.ndarray, p: float) -> np.ndarray:
    """V(k), the largest M_{1/2,p}(fv[i], fv[j]) over the pairs i != j with
    i + j = 2k, as the kernel of sup_convolution rounds it (0 where there
    is none).

    i + j is even exactly when i and j have the same parity c on every
    axis, and then i = 2i' + c, j = 2j' + c and k = i' + j' + c.  So the
    2^dim parity classes of fv go through _lattice_sums as one batch, sym
    and distinct, and class c's lattice sum i' + j' lands on k: the odd
    sums are never formed.
    """
    classes = list(itertools.product((0, 1), repeat=fv.ndim))
    half = tuple((n + 1) // 2 for n in fv.shape)
    sub = np.zeros((len(classes),) + half)
    for r, c in enumerate(classes):
        part = fv[tuple(slice(a, None, 2) for a in c)]
        sub[(r,) + tuple(slice(0, n) for n in part.shape)] = part
    W, e = _lattice_sums(sub, sub, MeanParams(Fraction(1, 2), p), (0,) * fv.ndim, half,
                         sym=True, distinct=True)
    top = np.full(fv.shape, -np.inf)
    for r, c in enumerate(classes):
        at = top[tuple(slice(a, None) for a in c)]
        np.maximum(at, W[(r,) + tuple(slice(0, n - a) for n, a in zip(fv.shape, c))], out=at)
    return _unlift(top, p, e)


def is_p_concave(f: GridFunction, p: float, tol: float = 1e-9) -> PConcavityReport:
    """Midpoint test f((x+y)/2) >= M_{1/2,p}(f(x), f(y)) - tol over all grid
    pairs of positive cells whose midpoint is a grid node, in dims 1 and 2.

    worst_gap is the largest gap M_{1/2,p}(f(x), f(y)) - f(k), k the
    midpoint cell, or 0.0 when no gap is positive; the witness (x, y, k) in
    positions is the first of the worst pairs in row-major order of x, then
    of y, or None.  The report is that of a scan of every pair, computed
    as follows.
    - Filter: one pass of the max-plus kernel of sup_convolution at
      lam = 1/2 over the distinct pairs with an even lattice sum
      (_midpoint_means; the pair (x, x) has gap exactly 0) gives V(k), the
      largest mean at each midpoint cell k as the kernel rounds it.  By the
      proof at supconv._MARGIN, every pair of a cell with
      V(k)(1 + _MARGIN) <= f(k) has a gap < 0 in float, so only the other
      cells stay suspect.  Every cell stays suspect where that proof does
      not reach: p <= -1, or positive values whose ratio max/min exceeds
      2^(999/max(|p|, 1) - 1).
    - Enumeration: on the suspect cells, the ordered pairs with midpoint k
      are compared with p_mean_arr one by one, as the scan does.
    Flat and p-affine stretches (indicators, the hull's facets) leave
    V(k) = f(k) up to rounding, so their cells stay suspect and cost what a
    scan of their pairs costs.
    """
    if f.dim not in (1, 2):
        raise ValueError("is_p_concave supports dim 1 and 2")
    cropped = _crop(f.values)
    if cropped is None:
        return PConcavityReport(True, 0.0, None)
    fv, lo = cropped
    # MeanParams takes p in (-1, inf) at n = 1
    if -1.0 < p < math.inf and _margin_covers(fv[fv > 0], p):
        suspect = np.argwhere(_midpoint_means(fv, p) * (1.0 + _MARGIN) > fv)
    else:
        suspect = np.argwhere(np.ones(fv.shape, dtype=bool))
    n = np.array(fv.shape)
    worst, first = 0.0, None
    for cell, i, j in _progression_pairs(2 * suspect, 1, 1, n, n):
        gaps = p_mean_arr(0.5, p, fv[i], fv[j]) - fv[tuple(suspect[cell].T)]
        top = gaps.max()
        if not (top > worst or top == worst and first is not None):
            continue
        at = np.flatnonzero(gaps == top)
        ri, rj = (np.ravel_multi_index(tuple(x[at] for x in ij), fv.shape) for ij in (i, j))
        k = np.lexsort((rj, ri))[0]
        key = (int(ri[k]), int(rj[k]))
        if top > worst or key < first:
            worst, first = float(top), key
    witness = None
    if first is not None:
        ij = np.array([np.unravel_index(r, fv.shape) for r in first]) + lo
        witness = tuple(_cell_centers(f, np.vstack([ij, ij.sum(axis=0) // 2])))
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
