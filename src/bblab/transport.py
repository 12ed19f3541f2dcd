"""1-D cumulative-mass transports and the five level-set diagnostics.

Two monotone rearrangements are built by matching piecewise-linear
cumulatives: the spatial transport matches position CDFs, the height
transport matches cumulative level-set measures.  In both cases the map is
returned as a piecewise-linear monotone function whose breakpoints carry
exact conservation (up to floating-point rounding of the shared cumsum
arrays, in practice <= 1e-15 on unit mass).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gridfn import (GridFunction, ZeroMassError, _count_above, _offset_cells, integral,
                     level_set, normalize)
from .hull import convex_hull_set, hull_deficit
from .means import MeanParams, p_mean_arr
from .supconv import _crop, _overlap_counts, _reach, minkowski_combination, sup_convolution

__all__ = [
    "MassMismatchError",
    "TransportMap1D",
    "spatial_transport",
    "height_transport",
    "pushforward_check",
    "DiagnosticsReport",
    "level_diagnostics",
]


class MassMismatchError(ValueError):
    """Masses must agree to relative 1e-9 before transporting."""


@dataclass(frozen=True)
class TransportMap1D:
    """Piecewise-linear monotone map given by cumulative matching."""

    domain_breaks: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    source_mass: float
    target_mass: float
    kind: str  # "spatial" or "height"

    def __post_init__(self):
        db = np.asarray(self.domain_breaks, dtype=float)
        vv = np.asarray(self.values, dtype=float)
        if db.shape != vv.shape or db.ndim != 1:
            raise ValueError("breaks and values must be 1-D arrays of equal length")
        if np.any(np.diff(db) < 0) or np.any(np.diff(vv) < -1e-12):
            raise ValueError("transport map must be monotone nondecreasing")
        db.setflags(write=False)
        vv.setflags(write=False)
        object.__setattr__(self, "domain_breaks", db)
        object.__setattr__(self, "values", vv)

    def __call__(self, x):
        return np.interp(x, self.domain_breaks, self.values)


def _check_masses(f: GridFunction, g: GridFunction):
    mf, mg = integral(f), integral(g)
    if mf <= 0 or mg <= 0:
        raise ZeroMassError("transport needs positive masses")
    if abs(mf - mg) > 1e-9 * mf:
        raise MassMismatchError(f"masses differ: {mf} vs {mg}")
    return mf, mg


def _pl_inverse(knots: np.ndarray, cums: np.ndarray, m):
    """Invert a nondecreasing piecewise-linear cumulative at masses m.

    Flat stretches (zero density) are crossed by mapping onto their left
    endpoint, which keeps the inverse monotone.
    """
    m = np.clip(np.asarray(m, dtype=float), cums[0], cums[-1])
    idx = np.clip(np.searchsorted(cums, m, side="left"), 1, len(cums) - 1)
    c0, c1 = cums[idx - 1], cums[idx]
    y0, y1 = knots[idx - 1], knots[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(c1 > c0, (m - c0) / np.maximum(c1 - c0, 1e-300), 1.0)
    return y0 + t * (y1 - y0)


def _spatial_cdf(f: GridFunction):
    """Cell-boundary knots and the CDF of the normalized function there."""
    idx = np.flatnonzero(f.values > 0)
    if idx.size == 0:
        raise ZeroMassError("empty support")
    lo, hi = int(idx.min()), int(idx.max())
    vals = f.values[lo : hi + 1]
    knots = f.origin[0] + (np.arange(lo, hi + 2)) * f.spacing
    cums = np.concatenate(([0.0], np.cumsum(vals) * f.spacing))
    cums /= cums[-1]
    return knots, cums


def _height_cdf(f: GridFunction):
    """Height knots (0 and the distinct values) and Phi(t) = int_0^t |F_s| ds
    of the normalized function.

    Between adjacent knots |F_t| is the count of values above the midpoint.
    """
    vals = f.values[f.values > 0]
    knots = np.concatenate(([0.0], np.unique(vals)))
    mids = 0.5 * (knots[:-1] + knots[1:])
    counts = _count_above(vals, mids)
    seg = counts * f.cell_volume * np.diff(knots)
    cums = np.concatenate(([0.0], np.cumsum(seg)))
    cums /= cums[-1]
    return knots, cums


def _match(knots_f, cums_f, knots_g, cums_g, kind, mf, mg) -> TransportMap1D:
    extra = _pl_inverse(knots_f, cums_f, cums_g)
    breaks = np.unique(np.concatenate([knots_f, extra]))
    masses = np.interp(breaks, knots_f, cums_f)
    images = _pl_inverse(knots_g, cums_g, masses)
    images = np.maximum.accumulate(images)
    return TransportMap1D(breaks, images, mf, mg, kind)


def spatial_transport(f: GridFunction, g: GridFunction) -> TransportMap1D:
    """Monotone T with int_{-inf}^x f = int_{-inf}^{T(x)} g (after
    normalization); derivative f(x)/g(T(x)) wherever both are positive."""
    if f.dim != 1 or g.dim != 1:
        raise ValueError("spatial_transport is 1-D")
    mf, mg = _check_masses(f, g)
    kf, cf = _spatial_cdf(f)
    kg, cg = _spatial_cdf(g)
    return _match(kf, cf, kg, cg, "spatial", mf, mg)


def height_transport(f: GridFunction, g: GridFunction) -> TransportMap1D:
    """Monotone map on heights matching cumulative level-set measures:
    int_0^t |F_s| ds = int_0^{T(t)} |G_s| ds."""
    mf, mg = _check_masses(f, g)
    kf, cf = _height_cdf(f)
    kg, cg = _height_cdf(g)
    return _match(kf, cf, kg, cg, "height", mf, mg)


def pushforward_check(T: TransportMap1D, f: GridFunction, g: GridFunction) -> float:
    """Max cumulative mismatch |F(x) - G(T(x))| over the map's breakpoints
    (normalized masses); zero-mass pairs check trivially."""
    if integral(f) == 0.0 and integral(g) == 0.0:
        return 0.0
    if T.kind == "spatial":
        kf, cf = _spatial_cdf(f)
        kg, cg = _spatial_cdf(g)
    else:
        kf, cf = _height_cdf(f)
        kg, cg = _height_cdf(g)
    left = np.interp(T.domain_breaks, kf, cf)
    right = np.interp(T.values, kg, cg)
    return float(np.abs(left - right).max())


# ---------------------------------------------------------------------------
# level-set diagnostics


@dataclass(frozen=True)
class DiagnosticsReport:
    alpha: float
    masses: tuple  # bad-mass integrals for the five criteria
    hull_gap_integral: float
    h_convention: str  # "canonical" (h = M*(f,g)) or "user"

    @property
    def total_bad_mass(self) -> float:
        return float(sum(self.masses))


def _min_shift_symdiff(A, B) -> float:
    """min over integer cell shifts v of |(v + A) symdiff B| (measure), for
    nonempty A and B.

    |(v + A) symdiff B| = |A| + |B| - 2 |(v + A) & B|, so the minimum is at
    the largest overlap.  _overlap_counts gives the overlap at every shift
    where the masks' bounding boxes meet; every other shift has overlap 0.
    Overlaps do not depend on where the masks sit, so each is cropped to
    its bounding box.
    """
    _offset_cells(A, B)  # one lattice, or raise
    best_overlap = int(_overlap_counts(_crop(A.mask)[0], _crop(B.mask)[0]).max())
    return (A.cell_count + B.cell_count - 2.0 * best_overlap) * A.spacing ** A.dim


def _mean_knots(lam: float, p: float, T: TransportMap1D, t_max: float, u: np.ndarray):
    """For each value of u in (0, M(t_max, T(t_max))), the height t where
    M_{lam,p}(t, T(t)), increasing in t, crosses it: 80 bisection steps on
    [1e-300, t_max], run on all of u at once."""
    lo = np.full(len(u), 1e-300)
    hi = np.full(len(u), t_max)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = p_mean_arr(lam, p, mid, T(mid)) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _run_bounds(v: np.ndarray, t: np.ndarray, count: np.ndarray):
    """Run count, first and last cell of {v > t} for each threshold in t, on
    a 1-D array v, given count = #{v > t}, with no mask per threshold.

    Each pair of adjacent cells both in the set joins them into one run, so
    #runs = #{v > t} - #{min(v_i, v_i+1) > t}.  The first (last)
    cell is the first cell where the prefix (suffix) maximum exceeds t.
    """
    runs = count - _count_above(np.minimum(v[:-1], v[1:]), t)
    first = np.searchsorted(np.maximum.accumulate(v), t, side="right")
    last = v.size - 1 - np.searchsorted(np.maximum.accumulate(v[::-1]), t, side="right")
    return runs, first, last


def _mask_measures(fn, gn, hn, lam, levels, counts) -> np.ndarray:
    """Per interval, from one LevelSet mask of each of f, g and h: the hull
    deficits of F_t and G_s, |lam F_t + (1-lam) G_s|, the least symmetric
    difference of translates of F_t and H_u, and that of co(F_t) and
    co(G_s).  Rows of a (5, K) array; 0 where F_t, or the other set a
    measure needs, is empty.  Any dimension; level_diagnostics uses it in
    2-D.
    """
    (t, s, u), (nF, nG, nH) = levels, counts
    out = np.zeros((5, len(t)))
    for i in np.flatnonzero(nF > 0):
        F = level_set(fn, t[i])
        out[0, i] = hull_deficit(F)
        if nG[i]:
            G = level_set(gn, s[i])
            out[1, i] = hull_deficit(G)
            out[2, i] = minkowski_combination(F, G, lam).measure
            out[4, i] = _min_shift_symdiff(convex_hull_set(F), convex_hull_set(G))
        if nH[i]:
            out[3, i] = _min_shift_symdiff(F, level_set(hn, u[i]))
    return out


def _run_measures(fn, gn, hn, lam, levels, counts) -> np.ndarray:
    """The rows of _mask_measures in 1-D, in the same floating-point
    operations, wherever the sets a measure needs are nonempty.

    A level set on f's lattice is a list of runs of cells.  co(A) is
    [first cell, last cell], the Minkowski combination of two runs is one
    run, every cell that _reach gives, and two runs overlap best in the
    shorter length, so the hull deficits and criterion 5 everywhere, and
    criteria 3 and 4 where each set is one run, are closed forms over all
    intervals at once.  Intervals where a set has several runs go to
    _mask_measures.
    """
    (t, s, u), (nF, nG, nH) = levels, counts
    rF, loF, hiF = _run_bounds(fn.values, t, nF)
    rG, loG, hiG = _run_bounds(gn.values, s, nG)
    rH = _run_bounds(hn.values, u, nH)[0]
    off = _offset_cells(fn, gn)[0]  # g's cells on f's lattice
    loG, hiG = loG + off, hiG + off
    coF, coG = hiF - loF + 1, hiG - loG + 1
    live, hasG, hasH = nF > 0, (nF > 0) & (nG > 0), (nF > 0) & (nH > 0)
    hf, hg = fn.spacing, gn.spacing
    out = np.zeros((5, len(t)))
    # measures as LevelSet.measure gives them: cells * spacing ** 1
    np.divide(coF * hf - nF * hf, nF * hf, out=out[0], where=live)
    np.divide(coG * hg - nG * hg, nG * hg, out=out[1], where=hasG)
    a, b = lam.numerator, lam.denominator
    out[2] = _reach(a * loF + (b - a) * loG, coF, coG, a, b)[2] * hf
    out[3] = (nF + nH - 2.0 * np.minimum(nF, nH)) * hf
    out[4] = (coF + coG - 2.0 * np.minimum(coF, coG)) * hf
    several = (hasG & ((rF > 1) | (rG > 1))) | (hasH & ((rF > 1) | (rH > 1)))
    if several.any():
        out[:, several] = _mask_measures(fn, gn, hn, lam, [x[several] for x in levels],
                                         [x[several] for x in counts])
    return out


def level_diagnostics(
    f: GridFunction,
    g: GridFunction,
    h: GridFunction | None,
    params: MeanParams,
    alpha: float,
) -> DiagnosticsReport:
    """Integrate |F_t| over the five bad height sets.

    The five criteria at height t (with s = T(t) from the height transport):
      1. dT/dt = |F_t| / |G_s| outside [1 - alpha, 1 + alpha];
      2. hull deficit of F_t or of G_s at least alpha;
      3. |lam F_t + (1-lam) G_s| >= (1 + alpha) M_{lam,1/n}(|F_t|, |G_s|);
      4. no translate of F_t within alpha |F_t| of H_{M(t, s)};
      5. no translate of co(F_t) within alpha |F_t| of co(G_s).
    Heights are sampled at the midpoints of a knot set on which every
    level-set measure is constant, so the integrals are exact for staircase
    inputs.  h=None uses the canonical h = M*(f, g).  g and h must lie on
    f's lattice.

    In 1-D a level set is its runs of cells (_run_measures): integer closed
    forms, evaluated for all heights at once where F_t, G_s and H_u are each
    one run; heights with several runs, and every height in 2-D, take cell
    masks (_mask_measures).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    _check_masses(f, g)
    _offset_cells(f, g)  # one lattice and dimension, or raise
    if h is not None:
        _offset_cells(f, h)
    fn = normalize(f)
    gn = normalize(g)
    if h is None:
        hn = sup_convolution(fn, gn, params)
        h_convention = "canonical"
    else:
        hn = h.with_values(h.values / integral(f))
        h_convention = "user"

    kf, cf = _height_cdf(fn)
    kg, cg = _height_cdf(gn)
    T = _match(kf, cf, kg, cg, "height", integral(fn), integral(gn))  # height_transport(fn, gn)
    lam, p, n = params.lam_float, params.p, fn.dim

    # knots where any of |F_t|, |G_T(t)|, |H_M(t,T(t))| can change
    knots = set(kf.tolist())
    knots.update(np.asarray(_pl_inverse(kf, cf, cg)).tolist())
    maxf = fn.max()
    hvals = np.unique(hn.values[hn.values > 0])
    top = p_mean_arr(lam, p, maxf, T(maxf))
    knots.update(_mean_knots(lam, p, T, maxf, hvals[hvals < top]).tolist())
    knots = np.array(sorted(k for k in knots if 0.0 <= k <= maxf))  # kf[0] = 0

    # per interval: midpoint t, s = T(t), M(t, s), the cell counts of F_t,
    # G_s and H_M(t, s), and criterion 3's mean
    tms = 0.5 * (knots[:-1] + knots[1:])
    ss = T(tms)
    us = p_mean_arr(lam, p, tms, ss)
    counts = nF, nG, nH = [_count_above(x.values, y) for x, y in ((fn, tms), (gn, ss), (hn, us))]
    mFs, mGs = nF * fn.cell_volume, nG * gn.cell_volume
    means3 = p_mean_arr(lam, 1.0 / n, mFs, mGs)
    measures = _run_measures if n == 1 else _mask_measures
    hdF, hdG, mink, symH, symCo = measures(fn, gn, hn, params.lam_fraction, (tms, ss, us),
                                           counts)

    live = nF > 0  # knots are distinct, but a midpoint can round onto max(fn)
    hasG, hasH = nG > 0, nH > 0
    ratio = np.divide(mFs, mGs, out=np.zeros_like(mFs), where=hasG)
    # an empty G or H fails the criteria that need it
    bad = live[:, None] & np.stack([
        ~(hasG & (1.0 - alpha <= ratio) & (ratio <= 1.0 + alpha)),
        (hdF >= alpha) | (hdG >= alpha),
        ~hasG | (mink >= (1.0 + alpha) * means3),
        ~hasH | (symH >= alpha * mFs),
        ~hasG | (symCo >= alpha * mFs),
    ], axis=1)
    good = live & ~bad.any(axis=1)

    # sums in knot order, from 0.0 (add.accumulate adds left to right)
    dt = np.diff(knots)
    masses = tuple(float(np.add.accumulate(np.where(b, mFs * dt, 0.0))[-1]) for b in bad.T)
    gap_integral = 0.0
    if good.any():
        gaps = (hdF * mFs + hdG * mGs) * dt
        gap_integral = np.add.accumulate(np.where(good, gaps, 0.0))[-1]
    return DiagnosticsReport(alpha, masses, gap_integral, h_convention)
