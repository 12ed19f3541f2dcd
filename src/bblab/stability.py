"""Deficit-to-structure certifiers, the shaving optimizer, the 2-D cone
equipartition, and the fiber-projection reduction.

The three certifiers mirror the three stability statements: symmetric
difference after an optimal translation scales like sqrt(delta), the
distance to a p-concave witness scales like delta for f = g, and the
combined certificate chains the two through k = min(f, translated g).

Shaving maximizes
    integral(M*(f,f) - M*(f',f')) - (1 + c) * integral(f - f')
over f' = min(f, ell) by greedy ascent on a finite dictionary of p-concave
caps: level caps, half-space cutoffs, and p-planes through pairs (1-D) or
triples (2-D) of lifted support points of f.  A move is accepted only if it
strictly increases the objective, so the invariant
    removed <= delta * mass / c
is inherited from objective(f) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .gridfn import (
    GridFunction,
    ZeroMassError,
    common_grid,
    integral,
    l1_distance,
    normalize,
    translate,
)
from .hull import PPlane, p_concave_hull
from .means import MeanParams, _lift, _unlift, exponent_map, p_mean_arr
from .supconv import _bounding_box, _lam_ab, _sup_cells, deficit, sup_convolution

__all__ = [
    "StabilityReport",
    "certify_symmetric_difference",
    "shave",
    "certify_linear",
    "certify_main",
    "Cone2D",
    "EquipartitionResult",
    "cone_equipartition_2d",
    "fiber_project",
    "fiber_reduction_check",
]


@dataclass(frozen=True)
class StabilityReport:
    delta: float
    best_shift: tuple | None = None
    symdiff_distance: float = math.nan
    linear_gap: float = math.nan
    main_distance: float = math.nan
    ratio_sqrt: float = math.nan
    ratio_linear: float = math.nan
    ratio_main: float = math.nan
    witness: GridFunction | None = field(default=None, repr=False)
    shave_removed: float = math.nan
    hypothesis_valid: bool = True
    violations: int = 0


def _ratio(dist: float, scale: float) -> float:
    if scale > 0:
        return dist / scale
    return 0.0 if dist <= 1e-15 else math.inf


def _best_shift(f: GridFunction, g: GridFunction):
    """Exhaustive integer-shift search minimizing int |f - g(. - v h)|.

    Window: per-axis sum of the two support diameters (larger shifts cannot
    beat full separation).  Ties break by smaller |v|, then lexicographic.
    """
    vf, vg, _, h = common_grid(f, g)
    cv = h ** f.dim
    bf = _bounding_box(vf)
    bg = _bounding_box(vg)
    if bf is None or bg is None:
        return tuple([0] * f.dim), float(np.abs(vf - vg).sum()) * cv
    widths = (bf[1] - bf[0]) + (bg[1] - bg[0]) + 1

    if f.dim == 1:
        n = vf.shape[0]
        W = int(widths[0])
        pad = np.zeros(n + 2 * W)
        pad[W : W + n] = vf
        vf_mass = float(vf.sum())
        shifts = np.arange(-W, W + 1)
        dists = np.empty(len(shifts))
        # seg[y] = vf[y + v], so within the window the objective equals
        # int |f - g(. - v h)|; f-mass sliding out of the window faces zero
        for k, v in enumerate(shifts):
            seg = pad[W + v : W + v + n]
            dists[k] = (float(np.abs(seg - vg).sum()) + vf_mass - float(seg.sum())) * cv
        # distances equal up to summation noise are ties: smaller |v| wins
        tie = dists.min() + 1e-11 * (1.0 + vf_mass * cv)
        cand = [int(v) for v in shifts[dists <= tie]]
        v = min(cand, key=lambda s: (s * s, s))
        return (v,), float(dists[v + W])

    n0, n1 = vf.shape
    W0, W1 = int(widths[0]), int(widths[1])
    pad = np.zeros((n0 + 2 * W0, n1 + 2 * W1))
    pad[W0 : W0 + n0, W1 : W1 + n1] = vf
    vf_mass = float(vf.sum())
    dists = {}
    for v0 in range(-W0, W0 + 1):
        for v1 in range(-W1, W1 + 1):
            seg = pad[W0 + v0 : W0 + v0 + n0, W1 + v1 : W1 + v1 + n1]
            dists[(v0, v1)] = (
                float(np.abs(seg - vg).sum()) + vf_mass - float(seg.sum())
            ) * cv
    tie = min(dists.values()) + 1e-11 * (1.0 + vf_mass * cv)
    cand = [v for v, d in dists.items() if d <= tie]
    v = min(cand, key=lambda s: (s[0] * s[0] + s[1] * s[1], s))
    return v, dists[v]


def certify_symmetric_difference(
    f: GridFunction, g: GridFunction, h: GridFunction, params: MeanParams,
    verify: bool = True,
) -> StabilityReport:
    """Deficit plus the best-translation L1 distance between f and g.

    Hypothesis violations in a user-supplied h are counted and flagged but
    do not abort: diagnosing near-miss triples is a primary use case.
    Distances are reported on the input scale; ratios are scale-free.
    """
    mf = integral(f)
    mg = integral(g)
    if mf <= 0 or mg <= 0:
        raise ZeroMassError("certify needs positive masses")
    # the hypothesis is a property of the raw triple; distances are taken
    # between the mass-normalized functions
    rep = deficit(f, g, h, params, verify=verify)
    fn = normalize(f)
    gn = normalize(g)
    shift, dist = _best_shift(fn, gn)
    delta = rep.delta
    return StabilityReport(
        delta=delta,
        best_shift=shift,
        symdiff_distance=dist * mf,
        ratio_sqrt=_ratio(dist, math.sqrt(max(delta, 0.0))),
        hypothesis_valid=rep.pointwise_violations == 0,
        violations=rep.pointwise_violations,
    )


# ---------------------------------------------------------------------------
# shaving


def _self_sup_integral_rows_fast(rows: np.ndarray, params: MeanParams, cv: float):
    """Exact integral of M*(g,g) for rows that are grid-p-concave, lam = 1/2.

    For a concave lift with contiguous support, the pair maximizing the mean
    at every output cell is the balanced one: the cell itself for exact
    combinations and the adjacent pair for boundary combinations, so
    M*(g,g)(z) = max(g_z, M(g_{z-1}, g_z)).  Returns (integrals, valid).
    """
    lam, p = params.lam_float, params.p
    B, n = rows.shape
    pos = rows > 0
    cnt = pos.sum(axis=1)
    first = np.argmax(pos, axis=1)
    last = n - 1 - np.argmax(pos[:, ::-1], axis=1)
    contiguous = (cnt > 0) & (cnt == last - first + 1)

    W = _lift(rows, p)
    with np.errstate(invalid="ignore"):
        d2 = W[:, :-2] - 2.0 * W[:, 1:-1] + W[:, 2:]
    interior = pos[:, :-2] & pos[:, 1:-1] & pos[:, 2:]
    finiteW = np.where(np.isfinite(W), np.abs(W), 0.0)
    slack = 1e-9 * np.maximum(finiteW.max(axis=1), 1.0)
    concave_ok = np.ones(B, dtype=bool)
    if interior.any():
        bad = interior & (d2 > slack[:, None])
        concave_ok = ~bad.any(axis=1)
    valid = contiguous & concave_ok

    madj = p_mean_arr(lam, p, rows[:, :-1], rows[:, 1:])
    extra = np.clip(madj - rows[:, 1:], 0.0, None).sum(axis=1)
    ints = (rows.sum(axis=1) + extra) * cv
    return ints, valid


def _shave_candidates_1d(f: GridFunction, p: float) -> list:
    """Dictionary descriptors in a fixed order: level caps (descending),
    half-line cutoffs (keep-left then keep-right, by position), p-planes
    through pairs of lifted support points (deduplicated by slope/offset)."""
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
    for ai, i in enumerate(sup[:-1].tolist()):
        # row ai: the planes through (i, w[i]) and each later support point,
        # in order.  Within a row q is a function of m, so the first
        # occurrence of each m gives the row's distinct keys; "+ 0.0" keeps
        # -0.0 and 0.0 one key, as they are in the set
        j = sup[ai + 1 :]
        m = (w[j] - w[i]) / (j - i) + 0.0
        first = np.sort(np.unique(m, return_index=True)[1])
        m = m[first]
        q = w[i] - m * i + 0.0
        for key in zip(m.tolist(), q.tolist()):
            if key not in seen:
                seen.add(key)
                cands.append(("plane",) + key)
    return cands


def _shave_candidates_2d(f: GridFunction, p: float) -> list:
    vals = f.values
    sup = np.argwhere(vals > 0)
    cands: list[tuple] = []
    for t in np.unique(vals[vals > 0])[:-1][::-1]:
        cands.append(("cap", float(t)))
    for a in range(len(sup)):
        for b in range(a + 1, len(sup)):
            A, B = sup[a], sup[b]
            d0, d1 = int(B[0] - A[0]), int(B[1] - A[1])
            cands.append(("halfplane", (int(A[0]), int(A[1])), (d0, d1), 1))
            cands.append(("halfplane", (int(A[0]), int(A[1])), (d0, d1), -1))
    w = _lift(vals, p)[tuple(sup.T)]
    seen = set()
    # exhaustive triples at desk scale; beyond that restrict to the lifted
    # hull facets, which contain every supporting plane the ascent can use
    if len(sup) <= 48:
        triples = [
            (a, b, cc)
            for a in range(len(sup))
            for b in range(a + 1, len(sup))
            for cc in range(b + 1, len(sup))
        ]
    else:
        hull = p_concave_hull(f, p)
        triples = []
        cands.extend(("pplane", fac) for fac in hull.facets)
    for a, b, cc in triples:
        A, B, C = sup[a], sup[b], sup[cc]
        det = (B[0] - A[0]) * (C[1] - A[1]) - (B[1] - A[1]) * (C[0] - A[0])
        if det == 0:
            continue
        mread = np.array(
            [[B[0] - A[0], B[1] - A[1]], [C[0] - A[0], C[1] - A[1]]], dtype=float
        )
        coef = np.linalg.solve(mread, np.array([w[b] - w[a], w[cc] - w[a]]))
        q = w[a] - coef[0] * A[0] - coef[1] * A[1]
        key = (coef[0], coef[1], q)
        if key not in seen:
            seen.add(key)
            cands.append(("plane", float(coef[0]), float(coef[1]), float(q)))
    return cands


def _materialize(cands: list, shape: tuple, p: float) -> np.ndarray:
    """The caps ell of dictionary descriptors on f's grid (f' = min(f, ell)),
    one row per descriptor; the p-planes are unlifted in one call."""
    idx = np.indices(shape)
    out = np.empty((len(cands),) + shape)
    planes = [k for k, cand in enumerate(cands) if cand[0] == "plane"]
    if planes:
        # ("plane", slope per axis..., offset) on the lift scale
        coef = np.array([cands[k][1:] for k in planes])[(...,) + (None,) * len(shape)]
        w = coef[:, 0] * idx[0]
        for d in range(1, len(shape)):
            w = w + coef[:, d] * idx[d]
        out[planes] = _unlift(w + coef[:, -1], p)
    for k, cand in enumerate(cands):
        kind = cand[0]
        if kind == "cap":
            out[k] = cand[1]
        elif kind == "pplane":
            # facet planes are stored in position space; unused at desk scale
            raise NotImplementedError("hull-facet candidates need position eval")
        elif kind == "halfplane":
            _, (a0, a1), (d0, d1), side = cand
            out[k] = np.where(side * ((idx[0] - a0) * d1 - (idx[1] - a1) * d0) >= 0, np.inf, 0.0)
        elif kind == "cutL":  # keep the cells left of cand[1], inclusive
            out[k] = np.where(idx[0] <= cand[1], np.inf, 0.0)
        elif kind == "cutR":
            out[k] = np.where(idx[0] >= cand[1], np.inf, 0.0)
    return out


def shave(f: GridFunction, params: MeanParams, c: float | None = None):
    """Greedy ascent over the shaving dictionary.

    Returns (f', removed, objective) where objective is the final value of
    integral(M*(f,f) - M*(f',f')) - (1+c) integral(f - f').  Moves are
    accepted only on strict improvement; after a full sweep the best move is
    applied and the search rides the candidate order locally while gains
    continue, so monotone families (cap cascades, end cuts) cost one sweep.
    """
    if c is None:
        c = 0.1 * params.lam_float
    if not 0.0 < c < 1.0:
        raise ValueError("c must be in (0, 1)")
    m0 = integral(f)
    if m0 <= 0:
        raise ZeroMassError("shave needs positive mass")
    if f.dim not in (1, 2):
        raise ValueError("shave supports dim 1 and 2")

    cv = f.cell_volume
    p = params.p
    lam_is_half = params.lam_fraction == Fraction(1, 2)
    n = f.values.size
    # on a common box, with s = a*i + (b-a)*j, cell k collects s in
    # [b*k - b//2, b*k - b//2 + b)
    denom = _lam_ab(params)[1]  # b in lam = a/b
    base = (denom // 2,) * f.dim

    def sup_integrals(states: np.ndarray) -> np.ndarray:
        """integral(M*(s, s)) for each state s in the batch."""
        out = np.empty(len(states))
        rest = np.arange(len(states))
        if f.dim == 1 and lam_is_half:
            # concave rows cost O(n)
            ints, valid = _self_sup_integral_rows_fast(states, params, cv)
            out[valid] = ints[valid]
            rest = np.flatnonzero(~valid)
        if len(rest) == 0:
            return out
        sub = states[rest]
        box = _bounding_box(sub.max(axis=0))
        if box is None:
            out[rest] = 0.0
            return out
        sub = sub[(slice(None),) + tuple(slice(l, h + 1) for l, h in zip(*box))]
        cells = _sup_cells(sub, sub, params, base, sub.shape[1:], sym=lam_is_half)
        out[rest] = cells.reshape(len(rest), -1).sum(axis=1) * cv
        return out

    cands = _shave_candidates_1d(f, p) if f.dim == 1 else _shave_candidates_2d(f, p)

    cur = f.values.copy()
    cur_int = float(cur.sum()) * cv
    cur_sup = float(sup_integrals(cur[None])[0])
    base_sup = cur_sup
    tol_gain = 1e-10 * max(1.0, base_sup)

    def eval_indices(indices):
        """(states, gains) of applying each listed candidate to cur."""
        states = np.minimum(cur, _materialize([cands[i] for i in indices], f.shape, p))
        removed = cur_int - states.reshape(len(indices), -1).sum(axis=1) * cv
        gains = np.full(len(indices), -np.inf)
        changed = removed > 1e-300
        if changed.any():
            sups = sup_integrals(states[changed])
            gains[changed] = (cur_sup - sups) - (1.0 + c) * removed[changed]
        return states, gains

    def apply_state(state):
        nonlocal cur, cur_int, cur_sup
        cur = state
        cur_int = float(cur.sum()) * cv
        cur_sup = float(sup_integrals(cur[None])[0])

    n_cand = len(cands)
    # the kernel's work array holds b^dim lattice sums per cell of a state
    chunk = max(16, 4 * 10 ** 6 // (n * denom ** f.dim))
    accepts = 0
    while True:
        best_gain, best_idx, best_state = tol_gain, None, None
        for lo in range(0, n_cand, chunk):
            idxs = range(lo, min(lo + chunk, n_cand))
            states, gains = eval_indices(list(idxs))
            b = int(np.argmax(gains)) if len(gains) else 0
            if len(gains) and gains[b] > best_gain:
                best_gain, best_idx, best_state = float(gains[b]), lo + b, states[b]
        if best_idx is None:
            break
        apply_state(best_state)
        accepts += 1
        pos = best_idx
        while True:  # ride the candidate order near the last accept
            window = [i for i in range(pos - 8, pos + 9) if 0 <= i < n_cand]
            states, gains = eval_indices(window)
            b = int(np.argmax(gains))
            if gains[b] <= tol_gain:
                break
            apply_state(states[b])
            accepts += 1
            pos = window[b]
        if accepts > 10000:
            raise RuntimeError("shave failed to reach a fixpoint")

    removed_total = m0 - cur_int
    objective = (base_sup - cur_sup) - (1.0 + c) * removed_total
    f_prime = f.with_values(cur.reshape(f.shape))
    return f_prime, float(removed_total), float(objective)


def certify_linear(
    f: GridFunction, params: MeanParams, h: GridFunction | None = None,
    c: float | None = None, verify: bool = False,
) -> StabilityReport:
    """Shave, hull, and measure: the witness is ell = co_p(shaved f).

    h defaults to the canonical M*(f, f), for which the hypothesis holds by
    construction and delta is the self-deficit.
    """
    mf = integral(f)
    if mf <= 0:
        raise ZeroMassError("certify_linear needs positive mass")
    if h is None:
        h = sup_convolution(f, f, params)
        rep = deficit(f, f, h, params, verify=False)
        valid, nviol = True, 0
    else:
        rep = deficit(f, f, h, params, verify=verify)
        valid, nviol = rep.pointwise_violations == 0, rep.pointwise_violations
    delta = rep.delta
    f_prime, removed, _ = shave(f, params, c)
    if integral(f_prime) <= 0:
        raise ZeroMassError("shaving removed all mass; deficit too large for c")
    ell = p_concave_hull(f_prime, params.p).hull
    gap = l1_distance(f, ell)
    return StabilityReport(
        delta=delta,
        linear_gap=gap,
        ratio_linear=_ratio(gap, delta * mf),
        witness=ell,
        shave_removed=removed,
        hypothesis_valid=valid,
        violations=nviol,
    )


def certify_main(
    f: GridFunction, g: GridFunction, h: GridFunction, params: MeanParams,
    c: float | None = None, verify: bool = True,
) -> StabilityReport:
    """Chain: best translation, k = min(f, g shifted), linear certificate on k.

    main_distance = int |f - ell| + int |g(shifted) - ell|, reported against
    sqrt(delta) * mass(f).
    """
    sym = certify_symmetric_difference(f, g, h, params, verify=verify)
    g_shift = translate(g, sym.best_shift)
    vf, vg, origin, spacing = common_grid(f, g_shift)
    k = GridFunction(f.dim, origin, spacing, np.minimum(vf, vg))
    if integral(k) <= 0:
        raise ZeroMassError("min(f, shifted g) has no mass; inputs too far apart")
    lin = certify_linear(k, params, h=None, c=c)
    ell = lin.witness
    main = l1_distance(f, ell) + l1_distance(g_shift, ell)
    mf = integral(f)
    return StabilityReport(
        delta=sym.delta,
        best_shift=sym.best_shift,
        symdiff_distance=sym.symdiff_distance,
        linear_gap=lin.linear_gap,
        main_distance=main,
        ratio_sqrt=sym.ratio_sqrt,
        ratio_linear=lin.ratio_linear,
        ratio_main=_ratio(main, math.sqrt(max(sym.delta, 0.0)) * mf),
        witness=ell,
        shave_removed=lin.shave_removed,
        hypothesis_valid=sym.hypothesis_valid,
        violations=sym.violations,
    )


# ---------------------------------------------------------------------------
# 2-D cone equipartition


@dataclass(frozen=True)
class Cone2D:
    """Apex plus three boundary rays (angles, radians, ascending) splitting
    the plane into three sectors, each the intersection of two half-planes."""

    apex: tuple
    rays: tuple

    @classmethod
    def simplex(cls, apex=(0.0, 0.0)) -> "Cone2D":
        """Three 120-degree sectors (cones over the faces of a regular
        triangle): boundaries at 30, 150, 270 degrees."""
        return cls(tuple(apex), (math.pi / 6, 5 * math.pi / 6, 3 * math.pi / 2))

    @classmethod
    def fiber_partition(cls, apex=(0.0, 0.0)) -> "Cone2D":
        """The 90/135/135 partition used by the fiber reduction:
        K1 = {x < 0, |y| <= |x|}, K2 = {y >= max(0, -x)}, K3 = {y <= min(0, x)}."""
        return cls(tuple(apex), (0.0, 3 * math.pi / 4, 5 * math.pi / 4))

    def sector_halfplanes(self):
        """Per sector, two (nx, ny, offset) constraints n.x >= offset."""
        ax, ay = self.apex
        out = []
        for i in range(3):
            t0 = self.rays[i]
            t1 = self.rays[(i + 1) % 3]
            r0 = (math.cos(t0), math.sin(t0))
            r1 = (math.cos(t1), math.sin(t1))
            n0 = (-r0[1], r0[0])  # cross(r0, P - a) >= 0
            n1 = (r1[1], -r1[0])  # cross(P - a, r1) >= 0
            out.append(
                (
                    (n0[0], n0[1], n0[0] * ax + n0[1] * ay),
                    (n1[0], n1[1], n1[0] * ax + n1[1] * ay),
                )
            )
        return out

    def sector_masses(self, f: GridFunction) -> tuple:
        return _sector_masses(f, self)


def _clip_halfplane(px, py, cnt, nx, ny, off):
    """Vectorized Sutherland-Hodgman: clip N polygons to n.x >= off."""
    N, V = px.shape
    ox = np.zeros((N, V + 1))
    oy = np.zeros((N, V + 1))
    oc = np.zeros(N, dtype=np.int64)
    d = nx * px + ny * py - off
    rows = np.arange(N)
    for i in range(V):
        valid = i < cnt
        nxt = np.where(i + 1 < cnt, i + 1, 0)
        di = d[rows, i]
        dj = d[rows, nxt]
        xi, yi = px[rows, i], py[rows, i]
        xj, yj = px[rows, nxt], py[rows, nxt]
        keep = valid & (di >= 0.0)
        r = np.flatnonzero(keep)
        ox[r, oc[r]] = xi[r]
        oy[r, oc[r]] = yi[r]
        oc[r] += 1
        crossing = valid & ((di >= 0.0) != (dj >= 0.0))
        r = np.flatnonzero(crossing)
        if len(r):
            t = di[r] / (di[r] - dj[r])
            ox[r, oc[r]] = xi[r] + t * (xj[r] - xi[r])
            oy[r, oc[r]] = yi[r] + t * (yj[r] - yi[r])
            oc[r] += 1
    return ox, oy, oc


def _poly_areas(px, py, cnt):
    N, V = px.shape
    area = np.zeros(N)
    rows = np.arange(N)
    for i in range(V):
        valid = i < cnt
        nxt = np.where(i + 1 < cnt, i + 1, 0)
        term = px[rows, i] * py[rows, nxt] - px[rows, nxt] * py[rows, i]
        area += np.where(valid, term, 0.0)
    return 0.5 * np.abs(area)


def _sector_masses(f: GridFunction, cone: Cone2D) -> tuple:
    """Integrals of f over the three sectors, with cells treated as squares
    clipped exactly against the sector boundaries (continuous in the apex)."""
    if f.dim != 2:
        raise ValueError("sector masses need a 2-D function")
    h = f.spacing
    idx = np.argwhere(f.values > 0)
    if len(idx) == 0:
        return (0.0, 0.0, 0.0)
    vals = f.values[tuple(idx.T)]
    x0 = f.origin[0] + idx[:, 0] * h
    y0 = f.origin[1] + idx[:, 1] * h
    N = len(idx)
    px = np.stack([x0, x0 + h, x0 + h, x0], axis=1)
    py = np.stack([y0, y0, y0 + h, y0 + h], axis=1)
    cnt0 = np.full(N, 4, dtype=np.int64)
    masses = []
    for (hp0, hp1) in cone.sector_halfplanes():
        cx, cy, cc = _clip_halfplane(px, py, cnt0, *hp0)
        cx, cy, cc = _clip_halfplane(cx, cy, cc, *hp1)
        areas = _poly_areas(cx, cy, cc)
        masses.append(float((vals * areas).sum()))
    return tuple(masses)


@dataclass(frozen=True)
class EquipartitionResult:
    apex: tuple
    masses: tuple
    residual: float
    converged: bool


def cone_equipartition_2d(f: GridFunction, tol_rel: float = 1e-6,
                          max_expand: int = 60) -> EquipartitionResult:
    """Apex a with int_{a + C_i} f = mass/3 for the three 120-degree cones.

    Nested continuity root-finding: for fixed apex_y, the difference of the
    two lower sector masses is monotone in apex_x (inner root); the upper
    sector mass then crosses mass/3 along apex_y (outer root).
    """
    if f.dim != 2:
        raise ValueError("cone_equipartition_2d needs dim 2")
    total = integral(f)
    if total <= 0:
        raise ZeroMassError("equipartition needs positive mass")
    target = total / 3.0

    idx = np.argwhere(f.values > 0)
    h = f.spacing
    xlo = f.origin[0] + idx[:, 0].min() * h
    xhi = f.origin[0] + (idx[:, 0].max() + 1) * h
    ylo = f.origin[1] + idx[:, 1].min() * h
    yhi = f.origin[1] + (idx[:, 1].max() + 1) * h
    span = max(xhi - xlo, yhi - ylo)

    def masses(ax, ay):
        return _sector_masses(f, Cone2D.simplex((ax, ay)))

    def inner(ay):
        def gdiff(ax):
            m = masses(ax, ay)
            return m[1] - m[2]

        lo, hi = xlo - span, xhi + span
        for _ in range(max_expand):
            if gdiff(lo) != 0 and np.sign(gdiff(lo)) != np.sign(gdiff(hi)):
                break
            lo -= span
            hi += span
        ax = brentq(gdiff, lo, hi, xtol=1e-11 * max(span, 1.0))
        return ax

    def outer(ay):
        ax = inner(ay)
        return masses(ax, ay)[0] - target, ax

    lo, hi = ylo - span, yhi + span
    flo = outer(lo)[0]
    fhi = outer(hi)[0]
    expand = 0
    while np.sign(flo) == np.sign(fhi) and expand < max_expand:
        lo -= span
        hi += span
        flo = outer(lo)[0]
        fhi = outer(hi)[0]
        expand += 1
    ay = brentq(lambda y: outer(y)[0], lo, hi, xtol=1e-11 * max(span, 1.0))
    ax = inner(ay)
    m = masses(ax, ay)
    residual = max(abs(mi - target) for mi in m)
    return EquipartitionResult((ax, ay), m, residual, residual <= tol_rel * total)


# ---------------------------------------------------------------------------
# fiber projection (dim 3 -> dim 2)


def fiber_project(f: GridFunction, axis: int = 2, tol: float | None = None) -> GridFunction:
    """Collapse the 1-D fibers along `axis`: F(z, w) = fiber value x fiber
    measure.  Requires f constant on each fiber's positive cells (max
    oscillation <= tol); preserves the integral exactly."""
    if f.dim != 3:
        raise ValueError("fiber_project needs a dim-3 input")
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    if tol is None:
        tol = 1e-12 * max(f.max(), 1.0)
    vals = np.moveaxis(f.values, axis, -1)
    pos = vals > 0
    counts = pos.sum(axis=-1)
    vmax = vals.max(axis=-1)
    vmin = np.where(pos, vals, np.inf).min(axis=-1)
    occupied = counts > 0
    osc = np.where(occupied, vmax - np.where(np.isfinite(vmin), vmin, 0.0), 0.0)
    if (osc > tol).any():
        worst = float(osc.max())
        raise ValueError(f"fiber oscillation {worst} exceeds tol {tol}")
    F = np.where(occupied, vmax * counts * f.spacing, 0.0)
    keep = [d for d in range(3) if d != axis]
    origin = (f.origin[keep[0]], f.origin[keep[1]])
    return GridFunction(2, origin, f.spacing, F)


def fiber_reduction_check(F: GridFunction, G: GridFunction, H: GridFunction,
                          params: MeanParams):
    """Hypothesis check for projected triples: H >= M_{lam,q}(F, G) with the
    fiber-degraded exponent q = p / (1 + p) (1-D fibers)."""
    q = exponent_map(params.p, 1)
    from .supconv import verify_bbl_hypothesis

    return verify_bbl_hypothesis(F, G, H, MeanParams(params.lam, q, n=2))
