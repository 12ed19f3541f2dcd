"""p-concave hulls, convex hulls of cell sets, p-planes, and the tail bound.

The p-concave hull co_p(f) is computed by lifting positive samples with the
increasing lift of means._lift (log f at p = 0, sign(p) f^p, or its
Box-Cox form for small |p|), under which p-concavity is concavity, taking
the upper concave envelope of the lifted cloud, and mapping back.  The
lift is of f / 2^e (means._scale_exp), so it cannot overflow; the facets
(PPlane) are planes on that lift scale, unlifted by means._unlift.  Hull
combinatorics are exact: cell indices are integers, and the exact
predicates run on the float lifts times one power of two 2^K, as Python
integers (_dyadic_ints), with the floats' signs.  Exact values stay dyadic
integers until a single rounding: a 2-D plane coefficient is one integer
quotient, and so is a 1-D slope, except where fl(w2 - w1)/dx is already
that rounding (_chain_slopes: an exact float difference, or dx a power of
two).  One monotone chain, _upper_chain, serves the 1-D hull, both chains
of the xy convex hull (_convex_hull_2d) and, by _segment_chain, the 1-D
envelopes on xy segments that seed the 2-D gift wrap and make up a
collinear support's planes.  In 1-D, pruning passes over all points at
once come first (_chain_1d): each drops the points on or below the chord
of their neighbours, by a float orientation filter with the exact test
where its sign is in doubt, and the chain runs only on the survivors of a
pass that stalls.  The wrap evaluates its
orientation predicates in float, for all points at once, with a rigorous
error bound (a filter in the manner of Shewchuk's adaptive predicates), and
falls back to the exact test only for the signs the bound leaves in doubt:
n . D > gamma on the candidate facet's integer plane (_plane_through,
_above), the same determinant.  Its facets are those of an all-Fraction
wrap, in the same order.
Zero cells never enter the envelope (their lift is -inf); the envelope is
then evaluated on every cell of the convex hull of the support, which is
exactly the domain where co_p is defined here.

The midpoint test is_p_concave (dims 1 and 2) gives the report of a scan
of every pair of positive cells, but scans only where a filter cannot
clear a midpoint cell k: one max-plus pass (the slope merge in 1-D, the
kernel in 2-D) bounds M_{1/2,p} over the distinct pairs at k, the proof at
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
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .gridfn import GridFunction, LevelSet, ZeroMassError, _cell_centers, integral, level_set
from .means import MeanParams, _check_p, _lift, _scale_exp, _unlift, p_mean_arr
from .supconv import (_MARGIN, _crop, _lattice_sums, _margin_covers, _progression_pairs,
                      _two_diff)

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


class PPlane(NamedTuple):
    """The p-concave analogue of an affine function: 2^e L^-1(<x, y> + d) at
    a position x, with L the lift of means._lift and e the hull's scale
    exponent (f / 2^e is lifted), so <x, y> + d is the facet's lift; below
    the lift's range it unlifts to 0.  For p < 0 outside L's Box-Cox range
    near 0, L = -z^p < 0, so the value is 2^e (-(<x, y> + d))^(1/p), and
    inf where <x, y> + d >= 0."""

    p: float
    e: int
    y: tuple
    d: float


def p_plane_eval(plane: PPlane, x) -> float:
    s = np.dot(plane.y, np.atleast_1d(np.asarray(x, dtype=float))) + plane.d
    return float(_unlift(s, plane.p, plane.e))


def _pplanes(f: GridFunction, p: float, e: int, coef: np.ndarray, const: np.ndarray) -> list:
    """The facets w = <coef[k], index> + const[k] on the lift scale of
    f / 2^e as PPlanes in position space.  coef is (facets, dim); with no
    columns, a constant, every slope is +0.0."""
    d = const.astype(float)
    # index -> position: i = (x - origin)/h - 1/2
    for a, o in zip(coef.T, f.origin):
        d -= a * (o / f.spacing + 0.5)
    slopes = (coef / f.spacing).tolist() if coef.shape[1] else [[0.0] * f.dim] * len(d)
    return list(map(PPlane._make, zip(itertools.repeat(p), itertools.repeat(e),
                                      map(tuple, slopes), d.tolist())))


def _dyadic_ints(w: np.ndarray):
    """(ints, K): every float of w times 2^K as a Python integer, for the
    least K >= 0 that makes them all integers.  The chain and orientation
    tests below are homogeneous in the lifts, so they give the same signs
    on these integers as on the floats, without a Fraction."""
    ratios = [x.as_integer_ratio() for x in np.asarray(w, dtype=float).tolist()]
    K = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return [m << (K - d.bit_length() + 1) for m, d in ratios], K


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


# a pruning pass that drops fewer than this share of the points it examines
# hands the survivors to _upper_chain
_PRUNE_SHARE = 1 / 8


def _prune_pass(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Which middle points of (x, w), x increasing integers, lie on or below
    the chord of their neighbours: o = (w2 - w1)(x3 - x1) - (w3 - w1)(x2 - x1)
    <= 0, the test of _upper_chain, for every triple at once.

    Float filter: o < -e proves o < 0, with e = 2^-50 m + _TINY for
    m = |t1| + |t2| the float sum of the two products, by _orient_filter's
    proof with two terms in place of three (the x differences are exact).
    m = 0 means w1 = w2 = w3, so o = 0 exactly; o > e proves o > 0.  The
    exact test runs on the triple's _dyadic_ints elsewhere: where |o| <= e,
    or where the evaluation overflowed."""
    x1, x2, x3 = x[:-2], x[1:-1], x[2:]
    w1 = w[:-2]
    with np.errstate(invalid="ignore", over="ignore"):
        t1 = (w[1:-1] - w1) * (x3 - x1)
        t2 = (w[2:] - w1) * (x2 - x1)
        o = t1 - t2
        m = np.abs(t1) + np.abs(t2)
        e = m * 2.0 ** -50 + _TINY
        drop = (o < -e) | (m == 0.0)
    doubt = np.flatnonzero(~(drop | (o > e)))
    if len(doubt):
        tri = doubt[:, None] + np.arange(3)
        at, pos = np.unique(tri, return_inverse=True)
        ints, _ = _dyadic_ints(w[at])
        drop[doubt] = [(ints[b] - ints[a]) * (u3 - u1) <= (ints[c] - ints[a]) * (u2 - u1)
                       for (a, b, c), (u1, u2, u3) in zip(pos.reshape(-1, 3).tolist(),
                                                          x[tri].tolist())]
    return drop


def _chain_1d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Positions in x of the vertices of the upper concave chain of the
    points (x, w), x increasing integers and w finite floats: those of
    _upper_chain(x, _dyadic_ints(w)[0]).

    Pruning passes (_prune_pass) drop every middle point that lies on or
    below the chord of its current neighbours.  Such a point is no strict
    vertex of the survivors' chain, so dropping it, or all of them at once,
    leaves the chain as it was.  A pass that drops nothing leaves a strictly
    concave sequence, which is its own chain.  Passes repeat while each
    drops at least _PRUNE_SHARE of its points; then the survivors go to
    _upper_chain, so a row that loses a few points a pass (a valley between
    two bumps erodes by about one point a side) costs one pass more than
    the chain alone."""
    keep = np.arange(len(x))
    while len(keep) > 2:
        drop = _prune_pass(x[keep], w[keep])
        dropped = int(drop.sum())
        if dropped == 0:
            return keep
        keep = keep[np.concatenate(([True], ~drop, [True]))]
        if dropped < _PRUNE_SHARE * len(drop):
            ints, _ = _dyadic_ints(w[keep])
            chain = _upper_chain(x[keep], ints)
            return keep[np.searchsorted(x[keep], [a for a, _ in chain])]
    return keep


def _chain_slopes(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(w[i+1] - w[i]) / (x[i+1] - x[i]) for increasing integers x, each
    rounded once from the exact quotient.

    Where the float difference is exact (supconv._two_diff's low part is 0)
    or dx is a power of two, fl(w2 - w1)/dx is that rounding when it is
    normal (or 0, for w1 = w2): the division of exact operands, or a scaling
    by 2^-k that is exact and commutes with the one rounding.  Everywhere
    else the slope is a quotient of the _dyadic_ints of the two lifts."""
    dx = np.diff(x)
    with np.errstate(invalid="ignore", over="ignore"):
        hi, lo = _two_diff(w[1:], w[:-1])
        m = hi / dx
        ok = (lo == 0.0) | (dx & (dx - 1) == 0)
        ok &= (hi == 0.0) | np.isfinite(m) & (np.abs(m) >= np.finfo(float).tiny)
    rest = np.flatnonzero(~ok)
    if len(rest):
        at, pos = np.unique(np.concatenate([rest, rest + 1]), return_inverse=True)
        ints, K = _dyadic_ints(w[at])
        a, b = pos[:len(rest)].tolist(), pos[len(rest):].tolist()
        m[rest] = [(ints[j] - ints[i]) / (d << K) for i, j, d in zip(a, b, dx[rest].tolist())]
    return m


# --------------------------------------------------------------------------
# exact 2-D upper envelope (gift wrap over the lifted cloud)

def _convex_hull_2d(points: np.ndarray) -> list:
    """CCW vertex list of integer points, from the lexicographically least:
    two monotone chains, the lower chain being the upper chain of (x, -y)."""
    pts = sorted({(int(p[0]), int(p[1])) for p in points})
    if len(pts) <= 2:
        return pts
    x = np.array([p[0] for p in pts])
    lower = _upper_chain(x, [-p[1] for p in pts])
    upper = _upper_chain(x, [p[1] for p in pts])
    return [(a, -b) for a, b in lower[:-1]] + upper[:0:-1]


def _segment_chain(X, Y, ints, U, V) -> list:
    """Indices of the vertices of the upper chain of the lifted points
    (X, Y, ints) on the xy segment U -> V, in order from U."""
    ux, uy = V[0] - U[0], V[1] - U[1]
    t = (X - U[0]) * ux + (Y - U[1]) * uy
    on = np.flatnonzero(((X - U[0]) * uy == (Y - U[1]) * ux) & (t >= 0) & (t <= ux * ux + uy * uy))
    on = on[np.argsort(t[on])]
    keep = {x for x, _ in _upper_chain(t[on], [ints[k] for k in on])}
    return [int(k) for k in on if t[k] in keep]


def _plane_through(P, Q, C):
    """The integer plane (n1, n2, n3, gamma), n3 w = -n1 x - n2 y + gamma,
    through three integer points; n3 = cross(P, Q, C) > 0 when CCW."""
    d1 = (Q[0] - P[0], Q[1] - P[1], Q[2] - P[2])
    d2 = (C[0] - P[0], C[1] - P[1], C[2] - P[2])
    n1 = d1[1] * d2[2] - d1[2] * d2[1]
    n2 = d1[2] * d2[0] - d1[0] * d2[2]
    n3 = d1[0] * d2[1] - d1[1] * d2[0]
    return n1, n2, n3, P[2] * n3 + n1 * P[0] + n2 * P[1]


def _above(plane, D) -> bool:
    """Whether the integer point D lies strictly above the integer plane:
    n . D - gamma > 0, which for _plane_through(P, Q, C) is the orientation
    determinant det[[Q-P],[C-P],[D-P]]."""
    n1, n2, n3, gamma = plane
    return n1 * D[0] + n2 * D[1] + n3 * D[2] > gamma


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
    """Facet planes (alpha, beta, gamma) of the upper concave envelope of
    lifted points, w = alpha*x + beta*y + gamma: the integer planes of
    _integer_envelope_2d with each coefficient one integer quotient,
    -n1/(n3 2^K), -n2/(n3 2^K) and gamma/(n3 2^K), rounded once."""
    planes, K = _integer_envelope_2d(idx, w)
    return [(-n1 / (n3 << K), -n2 / (n3 << K), g / (n3 << K)) for n1, n2, n3, g in planes]


def _integer_envelope_2d(idx: np.ndarray, w: np.ndarray):
    """(planes, K): the facet planes of the upper concave envelope of lifted
    points, on the lifts times 2^K (_dyadic_ints).

    idx: (n, 2) distinct integer cells; w: their n float lifts.  Each plane
    is _plane_through's (n1, n2, n3, gamma), n3 w 2^K = -n1 x - n2 y + gamma;
    the envelope is their pointwise minimum over the xy convex hull.  Every
    returned plane dominates all points (verified exactly), so the minimum
    never undercuts the envelope.  On collinear cells the planes are those
    through consecutive vertices P, Q of the chain on the line, level across
    it: (-dw dx, -dw dy, dx^2 + dy^2, ...) for (dx, dy, dw) = Q - P.

    Gift wrap: the 1-D envelopes along the xy-hull edges (_segment_chain)
    seed a LIFO queue of directed edges (P, Q), and each new edge gets the
    facet (P, Q, C) with C left of PQ and no point above plane(P, Q, C).
    For the first candidate C0, let s(D) = orient(P, Q, C0, D) /
    cross(P, Q, D): D lies above plane(P, Q, C) iff s(D) > s(C).  Tie rule:
    C is the first candidate, in point order, that maximizes s, which is
    where a scan ends that moves C to each later candidate strictly above
    plane(P, Q, C).

    Filter: every predicate is first evaluated in float for all points at
    once, with the bound e of _orient_filter, and the exact test runs only
    where the float sign is in doubt.  It is _above on the integers of
    _dyadic_ints: n . D > gamma for C's integer plane, computed once per
    candidate C, and n . D - gamma is orient(P, Q, C, D).
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
    if len(hull_xy) <= 2:  # collinear cells
        verts = _segment_chain(X, Y, ints, hull_xy[0], hull_xy[-1])
        planes = []
        for P, Q in zip(verts[:-1], verts[1:]):
            # through P, Q and P + (Q - P) turned left in xy at P's lift:
            # (-dw dx, -dw dy, dx^2 + dy^2), level across the line
            (x, y, z), (x2, y2, _) = pts[P], pts[Q]
            planes.append(_plane_through(pts[P], pts[Q], (x + y - y2, y + x2 - x, z)))
        return planes or [(0, 0, 1, ints[verts[0]])], K

    planes = []
    seen = set()
    queue = []
    for U, V in zip(hull_xy, hull_xy[1:] + hull_xy[:1]):
        verts = _segment_chain(X, Y, ints, U, V)
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
        plane = _plane_through(pts[P], pts[Q], pts[C])
        o, e, flat = _orient_filter(X, Y, W, P, Q, C, cross)
        for D in top[1:]:
            if o[D] > e[D] or not (o[D] < -e[D] or flat[D]) and _above(plane, pts[D]):
                C = int(D)
                plane = _plane_through(pts[P], pts[Q], pts[C])
                o, e, flat = _orient_filter(X, Y, W, P, Q, C, cross)
        doubt = ~((o < -e) | flat)
        doubt[[P, Q, C]] = False
        for D in np.flatnonzero(doubt):
            if _above(plane, pts[D]):
                raise RuntimeError("hull wrap produced a non-supporting facet")
        planes.append(plane)
        seen.update(((P, Q), (Q, C), (C, P)))
        for E in ((C, Q), (P, C)):
            if E not in seen:
                queue.append(E)
    return planes, K


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
    in position space, on the lift scale the hull is computed on.
    """
    if f.dim not in (1, 2):
        raise ValueError("p_concave_hull supports dim 1 and 2")
    if not p > -1.0 / f.dim:
        raise ValueError(f"need p > -1/dim = {-1.0/f.dim}, got {p}")
    _check_p(p)
    if integral(f) <= 0:
        raise ZeroMassError("p_concave_hull needs positive mass")

    e = int(_scale_exp(f.max(), f.values[f.values > 0].min(), p))
    if f.dim == 1:
        idx = np.flatnonzero(f.values > 0)
        w = _lift(f.values[idx], p, e)
        v = _chain_1d(idx, w)
        x, wv = idx[v], w[v]
        domain = np.arange(idx.min(), idx.max() + 1)
        hull_vals = np.zeros(f.shape)
        hull_vals[domain] = _unlift(np.interp(domain.astype(float), x.astype(float), wv), p, e)
        if len(v) == 1:  # one support cell: a constant
            facets = _pplanes(f, p, e, np.empty((1, 0)), wv)
        else:
            m = _chain_slopes(x, wv)
            facets = _pplanes(f, p, e, m[:, None], wv[:-1] - m * x[:-1])
    else:
        idx = np.argwhere(f.values > 0)
        planes = np.array(_upper_envelope_2d(idx, _lift(f.values[tuple(idx.T)], p, e)),
                          dtype=float)
        cells = convex_hull_set(level_set(f, 0.0)).indices()
        env = np.full(len(cells), np.inf)
        for alpha, beta, gamma in planes:
            np.minimum(env, alpha * cells[:, 0] + beta * cells[:, 1] + gamma, out=env)
        hull_vals = np.zeros(f.shape)
        hull_vals[tuple(cells.T)] = _unlift(env, p, e)
        facets = _pplanes(f, p, e, planes[:, :2], planes[:, 2])
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
    2^dim parity classes of fv go through _lattice_sums as one batch with
    g = f (the symmetric pass) and distinct, and class c's lattice sum
    i' + j' lands on k: the odd sums are never formed.
    """
    classes = list(itertools.product((0, 1), repeat=fv.ndim))
    half = tuple((n + 1) // 2 for n in fv.shape)
    sub = np.zeros((len(classes),) + half)
    for r, c in enumerate(classes):
        part = fv[tuple(slice(a, None, 2) for a in c)]
        sub[(r,) + tuple(slice(0, n) for n in part.shape)] = part
    W, e = _lattice_sums(sub, sub, MeanParams(Fraction(1, 2), p), (0,) * fv.ndim, half,
                         distinct=True)
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
    - Filter: one max-plus pass of sup_convolution (_lattice_sums) at
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
    _check_p(p)
    cropped = _crop(f.values)
    if cropped is None:
        return PConcavityReport(True, 0.0, None)
    fv, lo = cropped
    # MeanParams takes p > -1 at n = 1
    if p > -1.0 and _margin_covers(fv[fv > 0], p):
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
        return LevelSet(1, mask, A.origin, A.spacing)
    idx = np.argwhere(A.mask)
    verts = _convex_hull_2d(2 * idx + 1)  # doubled coords: centers are odd ints
    if len(verts) == 1:
        return LevelSet(2, A.mask, A.origin, A.spacing)
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
    return LevelSet(2, mask, A.origin, A.spacing)


def hull_deficit(A: LevelSet) -> float:
    """(|co(A)| - |A|) / |A|."""
    if A.cell_count == 0:
        raise ValueError("hull deficit of an empty set")
    co = convex_hull_set(A)
    return (co.measure - A.measure) / A.measure


def tail_ratio(g: GridFunction, p: float) -> float:
    """Mass fraction carried by S = {g >= max(g)/2}.

    For p-concave g the ratio is bounded below by tail_lower_bound(p, dim);
    non-p-concave inputs are flagged with a warning and the ratio is still
    returned.
    """
    m = g.max()
    if m <= 0:
        raise ZeroMassError("tail_ratio needs max g > 0")
    if not is_p_concave(g, p, tol=1e-9 * m):
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
