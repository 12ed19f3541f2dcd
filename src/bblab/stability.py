"""Deficit-to-structure certifiers, the shaving optimizer, the 2-D cone
equipartition, and the fiber-projection reduction.

The three certifiers mirror the three stability statements: symmetric
difference after an optimal translation scales like sqrt(delta), the
distance to a p-concave witness scales like delta for f = g, and the
combined certificate chains the two through k = min(f, translated g).

Shaving maximizes
    integral(M*(f,f) - M*(f',f')) - (1 + c) * integral(f - f')
over f' = min(f, ell) by greedy ascent on a finite dictionary of p-concave
caps, held as three blocks of arrays: levels, integer half-space forms,
and lifted p-plane forms through pairs of support points (1-D) or unit
lattice triangles of them (2-D, O(N) caps for N support cells).  A move is
accepted only on strict gain, so the invariant
    removed <= delta * mass / c
is inherited from objective(f) = 0.  integral(M*(f', f')) is
supconv._self_sup_integrals times the cell volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .hull import _convex_hull_2d, p_concave_hull
from .means import MeanParams, _lift, _scale_exp, _unlift, exponent_map
from .supconv import (_crop, _fft_ns, _overlap_counts, _self_sup_integrals, deficit,
                      sup_convolution, verify_bbl_hypothesis)

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


def _direct_scan(fbox: np.ndarray, gbox: np.ndarray) -> np.ndarray:
    """sum |f - g(. - v)| for every shift of the support boxes that overlaps
    them, at its full-correlation index (_overlap_counts), one numpy pass
    over the g box per shift."""
    m = gbox.shape
    pad = np.zeros(tuple(n + 2 * (k - 1) for n, k in zip(fbox.shape, m)))
    pad[tuple(slice(k - 1, k - 1 + n) for n, k in zip(fbox.shape, m))] = fbox
    f_mass = float(fbox.sum())
    dists = np.empty(tuple(n + k - 1 for n, k in zip(fbox.shape, m)))
    # seg[y] = f at y shifted by the index's offset; f-mass off the g box
    # faces zero
    for t in np.ndindex(dists.shape):
        seg = pad[tuple(slice(i, i + k) for i, k in zip(t, m))]
        dists[t] = float(np.abs(seg - gbox).sum()) + f_mass - float(seg.sum())
    return dists


def _layer_scan(fbox: np.ndarray, gbox: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The same sums by the layer cake, exact in its counts.

    With 0 = t_0 < t_1 < ... < t_K the distinct positive values of f and g,
    |x - y| = sum_k (t_k - t_{k-1}) |1{x > t_{k-1}} - 1{y > t_{k-1}}|, so
        sum |f - g(. - v)| = sum_k dt_k (|A_k| + |B_k| - 2 c_k(v)),
    A_k = {f > t_{k-1}}, B_k = {g > t_{k-1}} and c_k(v) = |A_k & (B_k + v)|
    from one _overlap_counts call per level on the support boxes.  The
    bracket is an integer, so f = g gives exactly 0 at v = 0.
    """
    dists = np.zeros(tuple(n + k - 1 for n, k in zip(fbox.shape, gbox.shape)))
    for t, dt in zip(np.concatenate(([0.0], levels[:-1])), np.diff(levels, prepend=0.0)):
        a, b = fbox > t, gbox > t
        bracket = np.full(dists.shape, int(a.sum()) + int(b.sum()), dtype=np.int64)
        if a.any() and b.any():
            bracket -= 2 * _overlap_counts(a, b)
        dists += dt * bracket
    return dists


def _layers_cheaper(k: int, shape: tuple, cells: int) -> bool:
    """The cost rule between the scans, for k levels, shifts of this shape
    (the full correlation of the support boxes) and a g box of this many
    cells.  _layer_scan costs per level one FFT correlation
    (supconv._fft_ns), 20 us of mask set-up and 2 ns per shift;
    _direct_scan costs per shift 10 us plus 1 ns per g box cell (measured
    like supconv._fft_ns, in 1-D and 2-D, boxes of 3 to 2000 cells per
    axis).  Either scan gives the same shift, so the rule moves time only."""
    shifts = math.prod(shape)
    return k * (_fft_ns(shape) + 2e4 + 2.0 * shifts) < shifts * (1e4 + cells)


def _best_shift(f: GridFunction, g: GridFunction):
    """Exhaustive integer-shift search minimizing int |f - g(. - v h)|.

    Range: per axis, the v in [lo_f - hi_g, hi_f - lo_g] at which the
    support boxes overlap ([lo, hi] the box's index bounds on the common
    grid).  Every other shift leaves the supports disjoint, at the
    separation distance mass(f) + mass(g), which no shift that overlaps
    two positive cells reaches.  Distances equal up to summation noise
    (1e-11 relative to 1 + mass) are ties, which break by smaller |v|^2,
    then lexicographic v; a minimum that ties with separation (an overlap
    worth less than the noise) keeps the in-range shift the rule picks.
    Every distance in the range comes from one of two scans, chosen by the
    cost rule _layers_cheaper: _direct_scan, O(|g box|) per shift, or
    _layer_scan, by the layer cake
        int |f - g_v| = int_0^inf |{f > t} symdiff ({g > t} + v)| dt,
    one exact mask correlation for each of the K distinct values of f and
    g.  The sharpness pair has K = 2; smooth inputs have K near the cell
    count and take the direct scan.  The range and the tie rule are the
    same on both.
    """
    vf, vg, _, h = common_grid(f, g)
    cv = h ** f.dim
    cf, cg = _crop(vf), _crop(vg)
    if cf is None or cg is None:
        return tuple([0] * f.dim), float(np.abs(vf - vg).sum()) * cv
    (fbox, flo), (gbox, glo) = cf, cg
    # the scans index v by its full-correlation index v - lo_f + hi_g
    v_lo = flo - (glo + np.array(gbox.shape) - 1)
    levels = np.unique(np.concatenate([fbox[fbox > 0], gbox[gbox > 0]]))
    shape = tuple(n + k - 1 for n, k in zip(fbox.shape, gbox.shape))
    if _layers_cheaper(len(levels), shape, gbox.size):
        dists = _layer_scan(fbox, gbox, levels) * cv
    else:
        dists = _direct_scan(fbox, gbox) * cv
    tie = dists.min() + 1e-11 * (1.0 + float(vf.sum()) * cv)
    cand = np.argwhere(dists <= tie) + v_lo
    best = np.lexsort(np.vstack([cand.T[::-1], (cand ** 2).sum(axis=1)]))[0]
    v = tuple(int(x) for x in cand[best])
    return v, float(dists[tuple(np.array(v) - v_lo)])


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


def _first_rows(forms: np.ndarray) -> np.ndarray:
    """The distinct rows of forms, each at its first occurrence, in order."""
    return forms[np.sort(np.unique(forms, axis=0, return_index=True)[1])]


def _shave_candidates_1d(f: GridFunction, p: float):
    """The dictionary (caps, halfspaces, planes), each block in a fixed
    order: level caps (descending); the half-lines (-1, k), keeping the
    cells i <= k, then (1, -k), keeping i >= k, for each support cell k by
    position; the p-planes (m, q), w = m i + q, through pairs of lifted
    support points w, in pair order, the first of equal forms."""
    vals = f.values
    sup = np.flatnonzero(vals > 0)
    ones = np.ones_like(sup)
    halfspaces = np.vstack([np.column_stack([-ones, sup]), np.column_stack([ones, -sup])])
    w = _lift(vals, p)
    rows = [np.empty((0, 2))]
    for ai, i in enumerate(sup[:-1].tolist()):
        # row ai: the planes through (i, w[i]) and each later support point,
        # in order.  Within a row q is a function of m, so the first
        # occurrence of each m gives the row's distinct forms; "+ 0.0" keeps
        # -0.0 and 0.0 one form
        j = sup[ai + 1 :]
        m = (w[j] - w[i]) / (j - i) + 0.0
        m = m[np.sort(np.unique(m, return_index=True)[1])]
        rows.append(np.column_stack([m, w[i] - m * i + 0.0]))
    return np.unique(vals[sup])[:-1][::-1], halfspaces, _first_rows(np.vstack(rows))


def _shave_candidates_2d(f: GridFunction, p: float):
    """The dictionary (caps, halfspaces, planes), O(N) candidates for N
    support cells, each block in a fixed order: level caps (descending);
    half-planes (n0, n1, c), keeping n0*i + n1*j + c >= 0, on both sides of
    each distinct line through a support cell along (1, 0), (0, 1), (1, 1),
    (1, -1) and the edges of the support's convex hull, by direction, then
    offset; and p-planes (alpha, beta, gamma) through the lifts w of each
    unit lattice triangle of positive cells, two per unit square, the first
    of equal forms.  No hull facet is a candidate: its plane dominates every
    lifted point, so min(cur, ell) = cur."""
    vals = f.values
    pos = vals > 0
    sup = np.argwhere(pos)
    dirs = {(1, 0): None, (0, 1): None, (1, 1): None, (1, -1): None}
    hull_xy = _convex_hull_2d(sup)
    for (a0, a1), (b0, b1) in zip(hull_xy, hull_xy[1:] + hull_xy[:1]):
        g = math.gcd(b0 - a0, b1 - a1) * (1 if (b0, b1) > (a0, a1) else -1)
        if g:  # primitive, first nonzero component positive
            dirs[(b0 - a0) // g, (b1 - a1) // g] = None
    halfspaces = []
    for d0, d1 in dirs:
        c = np.unique(sup @ (d1, -d0))
        side = np.column_stack([np.full_like(c, d1), np.full_like(c, -d0), -c])
        halfspaces.append(np.stack([side, -side], axis=1).reshape(-1, 3))
    # the triangle with corner (i + t, j + t) and legs s = 1 - 2t along
    # each axis, t = 0 and 1, so that its plane has slopes
    # alpha = s (w(i + t + s, j + t) - w(i + t, j + t)), beta likewise
    w = _lift(vals, p)
    tri = np.stack([pos[:-1, :-1] & pos[1:, :-1] & pos[:-1, 1:],
                    pos[1:, 1:] & pos[:-1, 1:] & pos[1:, :-1]], axis=-1)
    i, j, t = np.nonzero(tri)
    i, j, s = i + t, j + t, 1 - 2 * t
    alpha = s * (w[i + s, j] - w[i, j]) + 0.0  # + 0.0: -0.0 and 0.0 are one form
    beta = s * (w[i, j + s] - w[i, j]) + 0.0
    gamma = w[i, j] - alpha * i - beta * j + 0.0
    return (np.unique(vals[pos])[:-1][::-1], np.vstack(halfspaces),
            _first_rows(np.column_stack([alpha, beta, gamma])))


def _materialize(cands: tuple, lo: int, hi: int, shape: tuple, p: float) -> np.ndarray:
    """The caps ell (f' = min(f, ell)) of candidates lo .. hi - 1 of the
    dictionary cands = (caps, halfspaces, planes), numbered through the
    three blocks in order, on f's grid, one row per candidate: a cap is its
    level, a half-space inf where its integer form is >= 0 and 0 elsewhere,
    a p-plane its unlifted form.  Each block's slice is evaluated in one
    pass."""
    idx = np.indices(shape)
    out = np.empty((hi - lo,) + shape)
    at = 0  # the block's first index in the dictionary
    for kind, block in enumerate(cands):
        part = block[max(lo - at, 0) : max(hi - at, 0)]
        rows = out[max(at - lo, 0) :][: len(part)]
        at += len(block)
        if len(part) == 0:
            continue
        coef = part[(...,) + (None,) * len(shape)]
        if kind == 0:
            rows[...] = coef
            continue
        form = coef[:, 0] * idx[0]
        for d in range(1, len(shape)):
            form = form + coef[:, d] * idx[d]
        form = form + coef[:, -1]
        rows[...] = np.where(form >= 0, np.inf, 0.0) if kind == 1 else _unlift(form, p)
    return out


def shave(f: GridFunction, params: MeanParams, c: float | None = None):
    """Greedy ascent over the shaving dictionary.

    Returns (f', removed, objective) where objective is the final value of
    integral(M*(f,f) - M*(f',f')) - (1+c) integral(f - f').  Moves are
    accepted only on strict improvement, above 1e-10 of integral(M*(f,f)).
    Each step takes the first candidate of greatest gain in a range of the
    dictionary, evaluated in chunks: a full sweep, then, after an accept,
    the 17 candidates around it, so that monotone families (cap cascades,
    end cuts) ride the candidate order, and a full sweep again when the
    ride ends.  integral(M*(s, s)) is supconv._self_sup_integrals times the
    cell volume.  f is shaved as f / 2^e, e from means._scale_exp as in the
    hull and the kernel, and the results are scaled back, so that f' and
    the ratios do not depend on units.  The dictionary
    (_shave_candidates_1d, _shave_candidates_2d) decides the quality of f'
    only: any dictionary keeps removed <= delta * mass / c.
    """
    if c is None:
        c = 0.1 * params.lam_float
    if not 0.0 < c < 1.0:
        raise ValueError("c must be in (0, 1)")
    if integral(f) <= 0:
        raise ZeroMassError("shave needs positive mass")
    if f.dim not in (1, 2):
        raise ValueError("shave supports dim 1 and 2")

    cv = f.cell_volume
    p = params.p
    pos = f.values[f.values > 0]
    e = int(_scale_exp(pos.max(), pos.min(), p))
    fs = f.with_values(np.ldexp(f.values, -e))
    cands = _shave_candidates_1d(fs, p) if f.dim == 1 else _shave_candidates_2d(fs, p)
    n_cand = sum(len(block) for block in cands)
    # the kernel's work array holds b^dim lattice sums per cell of a state
    chunk = max(16, 4 * 10 ** 6 // (f.values.size * params.lam_fraction.denominator ** f.dim))

    def best(lo: int, hi: int):
        """(state, index) of the first candidate in [lo, hi) whose gain is
        the greatest and above tol_gain, or (None, None)."""
        best_gain, best_idx, best_state = tol_gain, None, None
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            states = np.minimum(cur, _materialize(cands, a, b, f.shape, p))
            removed = cur_int - states.reshape(b - a, -1).sum(axis=1) * cv
            gains = np.full(b - a, -np.inf)
            changed = removed > 0
            if changed.any():
                sups = _self_sup_integrals(states[changed], params) * cv
                gains[changed] = (cur_sup - sups) - (1.0 + c) * removed[changed]
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain, best_idx, best_state = float(gains[k]), a + k, states[k]
        return best_state, best_idx

    cur = fs.values.copy()
    m0 = cur_int = float(cur.sum()) * cv
    base_sup = cur_sup = float(_self_sup_integrals(cur[None], params)[0]) * cv
    tol_gain = 1e-10 * base_sup
    accepts, full, lo, hi = 0, True, 0, n_cand
    while True:
        state, at = best(lo, hi)
        if state is not None:
            cur = state
            cur_int = float(cur.sum()) * cv
            cur_sup = float(_self_sup_integrals(cur[None], params)[0]) * cv
            accepts += 1
            full, lo, hi = False, max(at - 8, 0), min(at + 9, n_cand)
        elif full:
            break
        elif accepts > 10000:
            raise RuntimeError("shave failed to reach a fixpoint")
        else:
            full, lo, hi = True, 0, n_cand

    objective = (base_sup - cur_sup) - (1.0 + c) * (m0 - cur_int)
    return (f.with_values(np.ldexp(cur, e)), math.ldexp(m0 - cur_int, e),
            math.ldexp(objective, e))


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
        return _sector_masses(_cone_cells(f), self)


def _clip_halfplane(px, py, cnt, nx, ny, off):
    """Vectorized Sutherland-Hodgman (Sutherland and Hodgman 1974): clip
    polygon r, the first cnt[r] vertices of row r, to the half-plane
    nx[r] x + ny[r] y >= off[r].

    Each row carries its own half-plane, so one call clips the cells of all
    three sectors; a row's output does not depend on the other rows.  A
    polygon with every vertex at d >= 0 comes back unchanged, vertices in
    order, and one with every vertex at d < 0 comes back empty."""
    N, V = px.shape
    ox = np.zeros((N, V + 1))
    oy = np.zeros((N, V + 1))
    oc = np.zeros(N, dtype=np.int64)
    d = nx[:, None] * px + ny[:, None] * py - off[:, None]
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


def _cone_cells(f: GridFunction) -> tuple:
    """The positive cells of a 2-D f as squares, built once per solve:
    values (N,) in row-major order, corner coordinates X, Y (4, N)
    counter-clockwise, the shoelace area of each uncut square (N,) and the
    reach max |x| + max |y| over the corners."""
    if f.dim != 2:
        raise ValueError("sector masses need a 2-D function")
    h = f.spacing
    idx = np.argwhere(f.values > 0)
    vals = f.values[tuple(idx.T)]
    x0 = f.origin[0] + idx[:, 0] * h
    y0 = f.origin[1] + idx[:, 1] * h
    X = np.stack([x0, x0 + h, x0 + h, x0])
    Y = np.stack([y0, y0, y0 + h, y0 + h])
    full = _poly_areas(X.T, Y.T, np.full(len(idx), 4))
    reach = float(np.abs(X).max() + np.abs(Y).max()) if len(idx) else 0.0
    return vals, X, Y, full, reach


def _sector_masses(cells: tuple, cone: Cone2D) -> tuple:
    """Integrals of f over the three sectors, with cells treated as squares
    clipped exactly against the sector boundaries (continuous in the apex).

    Each mass is the float that clipping every cell against both half-planes
    of its sector (Sutherland-Hodgman, then the shoelace area) gives, but
    only the cells a sector boundary crosses are clipped.  With
    d = nx x + ny y - off at the corners, by the clip's own expression, a
    cell is
      - inside when d >= 0 at every corner for both half-planes: both clips
        return its 4 corners in order, so its area is `full`, the shoelace
        of the uncut square, the same float;
      - outside when d < 0 at every corner for the first half-plane (the
        first clip empties it), or for the second when the first keeps it
        whole.  Otherwise the first clip cuts new vertices on the cell's
        edges, and rounding can carry one past a corner by an ulp or two of
        the coordinates, so the second half-plane needs d < -tol at every
        corner, tol = 1e-13 (reach + |apex|_1), far above that rounding.
        Its area is 0;
      - mixed otherwise.  The mixed cells of all three sectors are clipped
        as one batch with per-row half-planes: two clip calls and one area
        call per apex.
    Each mass sums vals * areas over all N cells in row-major order, as
    the all-cells clip did, so the masses are bit-identical to it.
    """
    vals, X, Y, full, reach = cells
    N = len(vals)
    if N == 0:
        return (0.0, 0.0, 0.0)
    H = np.array(cone.sector_halfplanes()).reshape(6, 3)  # (nx, ny, off), two per sector
    d = H[:, 0, None, None] * X + H[:, 1, None, None] * Y - H[:, 2, None, None]
    lo = d.min(axis=1).reshape(3, 2, N)
    hi = d.max(axis=1).reshape(3, 2, N)
    tol = 1e-13 * (reach + abs(cone.apex[0]) + abs(cone.apex[1]))
    whole0 = lo[:, 0] >= 0.0
    inside = whole0 & (lo[:, 1] >= 0.0)
    outside = (hi[:, 0] < 0.0) | (hi[:, 1] < np.where(whole0, 0.0, -tol))
    areas = np.where(inside, full, 0.0)
    s, c = np.nonzero(~(inside | outside))
    if len(c):
        P = H.reshape(3, 6)[s]
        cx, cy, cc = _clip_halfplane(X[:, c].T, Y[:, c].T, np.full(len(c), 4),
                                     P[:, 0], P[:, 1], P[:, 2])
        cx, cy, cc = _clip_halfplane(cx, cy, cc, P[:, 3], P[:, 4], P[:, 5])
        areas[s, c] = _poly_areas(cx, cy, cc)
    return tuple(float((vals * a).sum()) for a in areas)


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

    The positive cells are built once per call, and each apex clips only
    the cells a ray crosses (see `_sector_masses`).  The masses go through
    a memo keyed by the apex floats, local to the call: the bracket checks,
    brentq's first evaluations at the bracket ends and the final inner
    solve revisit apexes already evaluated, and the masses are a
    deterministic function of the apex, so each distinct apex is evaluated
    once and the result is the same.
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

    cells = _cone_cells(f)
    memo = {}

    def masses(ax, ay):
        m = memo.get((ax, ay))
        if m is None:
            m = memo[ax, ay] = _sector_masses(cells, Cone2D.simplex((ax, ay)))
        return m

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
    return verify_bbl_hypothesis(F, G, H, MeanParams(params.lam, q, n=2))
