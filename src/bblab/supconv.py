"""Grid sup-convolution M*_{lam,p}(f, g), Minkowski combinations, deficits.

Combination geometry.  With lam = a/b in lowest terms and all grids sharing
one lattice of spacing h, the combination z = lam*x + (1-lam)*y of two cell
centers sits at lattice coordinate (s + b/2)/b where s = a*i + (b-a)*j is an
integer.  z is a cell center exactly when b divides s; otherwise it falls on
a cell boundary or interior point, and we assign it to the cell containing
it, resolving boundary ties upward: k = (2s + b) // (2b).  All index math is
integer, so tie handling is exact.  This floor-snap convention makes the
indicator law M*(1_A, 1_B) = 1_{lam A + (1-lam) B} hold cell-for-cell and
gives the discrete Minkowski combination measure >= min(|A|, |B|).

Lifted kernel.  M_{lam,p}(x, y) = L^-1(lam L(x) + (1-lam) L(y)) for the
increasing lift L of means._lift, so M* is a max-plus convolution of
lam L(f) and (1-lam) L(g) on the lattice sums s, a block max onto cells and
one unlift per cell.  _sup_cells does this for a batch of rows in dims 1 and
2; sup_convolution and the shaving objective both call it.  Its values
differ from the pair means p_mean_arr computes by rounding (at most 2^-35
relative, proven at _MARGIN), so the hypothesis check uses them only as a
filter: a cell is cleared when M*(1 + 2^-32) <= h + tol, and the pairs of
every other cell are compared one by one with p_mean_arr.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gridfn import (GridFunction, LevelSet, ZeroMassError, _cell_centers, _offset_cells,
                     common_grid, integral)
from .means import MeanParams, _lift, _unlift, p_mean_arr

__all__ = [
    "DeficitReport",
    "sup_convolution",
    "minkowski_combination",
    "deficit",
    "verify_bbl_hypothesis",
]

# pairs enumerated at once by the hypothesis check; bounds its memory only
_PAIRS_PER_BATCH = 1 << 20

# Relative margin of the cell filter in _violations.  Claim: every pair
# (x, y) feeding cell k has m = p_mean_arr(x, y) < fl(v_k * (1 + _MARGIN)),
# v_k the value _sup_cells gives cell k; so a cell that passes the filter
# has no violating pair, and the count equals that of a scan of all pairs.
#
# Proof.  Let u = 2^-53, and take each log, exp, expm1, log1p and power
# call to be within 4 ulps (relative error 8u).  _violations checks every
# cell unless the positive values of f and g span at most 2^R with
# R * max(|p|, 1) <= 999 (so 2^R >= sigma/min, sigma < 2 max being the
# kernel's scale).  Then each scaled value z lies in [2^-999, 1], |ln z| <=
# 693, and z^p, the weighted lifts and p_mean_arr's r^p lie in
# [2^-1005, 2^999]: all normal, so each operation has relative error <= u
# (8u for the calls above).  With weights w + c = 1 (exact), the mean is
# M = sigma U(T), T = w L(z_x) + c L(z_y); the kernel sums some t <= W_k,
# W_k its cell maximum, and v_k = fl(sigma U(W_k)); U is increasing.
# - p = 0: |t - T| <= 10u * 693 (log, weight, sum) and exp adds 8u, so
#   M <= sigma exp(W_k + 6930u) <= v_k (1 + 7000u).
# - |p| >= _SMALL_P: L = +-z^p, and terms of one sign keep t = T(1 + d),
#   |d| <= 10u; U = |.|^(1/p) turns d into d/|p| <= 10^4 u, and power adds
#   8u: M <= v_k (1 + 11000u).
# - 0 < |p| < _SMALL_P: 1 + pL = z^p lies in [1/2, 2], so |L| <= 1400, and
#   U(W) = exp(log1p(pW)/p) has d ln U/dW = 1/(1 + pW) <= 2.  Rounding pW
#   (or p ln z) moves it by u|pW|, which log1p (expm1) turns into at most
#   2u|pW| and the division by p back into 2u|W|; the calls' own errors
#   give 16u|W| and 8u|L|.  So |t - T| <= 30000u and the exponent of v_k is
#   off by at most 28000u: M <= v_k (1 + 90000u).
# p_mean_arr's own formulas (the same three forms on unscaled values, |ln|
# <= 745, weights lam and c = 1 - lam, |lam - w| <= u) are within
# 90000u of M by the same count.  So m <= v_k (1 + 2^-35), below
# v_k (1 + 2^-32)(1 - u) <= fl(v_k (1 + 2^-32)).
_MARGIN = 2.0 ** -32


@dataclass(frozen=True)
class DeficitReport:
    """Masses, delta = mass(h)/mass(f) - 1 and the hypothesis check.

    pointwise_violations is the number of grid pairs (x, y) with
    M(f(x), g(y)) > h(lam x + (1-lam) y) + tol; verified says whether the
    (exact) check ran, and the count is 0 when it did not.
    """

    mass_f: float
    mass_g: float
    mass_h: float
    delta: float
    pointwise_violations: int
    tol: float
    verified: bool

    @property
    def hypothesis_ok(self) -> bool:
        return self.verified and self.pointwise_violations == 0


def _lam_ab(params: MeanParams) -> tuple[int, int]:
    frac: Fraction = params.lam_fraction
    return frac.numerator, frac.denominator


def _snap(s, b: int):
    """Cell index receiving lattice coordinate (s + b/2)/b (ties go up)."""
    return (2 * s + b) // (2 * b)


def _bounding_box(values: np.ndarray):
    """(lo, hi) inclusive index bounds of the positive cells, or None."""
    pos = np.argwhere(values > 0)
    if pos.size == 0:
        return None
    return pos.min(axis=0), pos.max(axis=0)


def _sup_cells(fv, gv, params: MeanParams, base, shape, sym: bool) -> np.ndarray:
    """M*_{lam,p} on output cells for a batch of pairs of grid functions.

    fv (B, *nf) and gv (B, *ng) hold row r's f and g on boxes of one
    lattice; returns (B, *shape).  Pair (i, j) lands on the lattice sum
    s = a*i + (b-a)*j + base (per axis, 0 <= base < b), and output cell k
    collects s in [b*k, b*k + b).  Each pair costs one add and one max of
    lifted values; each cell one unlift.  f and g are divided by a power of
    two sigma >= max(f, g) first and the result is multiplied back; M is
    1-homogeneous, so this is exact, and the lifts cannot overflow for
    p > 0.  sym (fv is gv and lam = 1/2) visits only pairs with j >= i on
    axis 0: the mirror pair lands on the same s with the same float sum.
    """
    a, b = _lam_ab(params)
    step = b - a
    dim = fv.ndim - 1
    # smallest power of two >= the maximum, so that a maximum that is a
    # power of two (an indicator) scales to exactly 1
    e = math.frexp(math.nextafter(max(fv.max(), gv.max()), 0.0))[1]
    # weights that sum to exactly 1 in real arithmetic (1 - c is exact for
    # c >= 1/2): only then does the -1/p of the Box-Cox lift cancel
    c = 1.0 - params.lam_float
    lf = (1.0 - c) * _lift(np.ldexp(fv, -e), params.p)
    lg = lf if sym else c * _lift(np.ldexp(gv, -e), params.p)
    B = len(fv)
    W = np.full((B,) + tuple(b * n for n in shape), -np.inf)
    buf = np.empty(lg.shape)
    ng = gv.shape[1:]
    live = np.isfinite(lf).reshape(B, -1).any(axis=0)
    for flat in np.flatnonzero(live):
        i = np.unravel_index(flat, fv.shape[1:])
        j0 = (int(i[0]) if sym else 0,) + (0,) * (dim - 1)
        rows = (slice(None),) + tuple(slice(j, None) for j in j0)
        t = buf[rows]
        np.add(lf[(slice(None),) + i].reshape((B,) + (1,) * dim), lg[rows], out=t)
        seg = W[(slice(None),) + tuple(
            slice(a * i[d] + step * j0[d] + base[d], a * i[d] + step * n + base[d], step)
            for d, n in enumerate(ng))]
        np.maximum(seg, t, out=seg)
    blocks = sum(((n, b) for n in shape), ())
    W = W.reshape((B,) + blocks).max(axis=tuple(range(2, 2 + 2 * dim, 2)))
    return np.ldexp(_unlift(W, params.p), e)


def sup_convolution(f: GridFunction, g: GridFunction, params: MeanParams) -> GridFunction:
    """Pointwise sup over splittings z = lam*x + (1-lam)*y of M_{lam,p}(f(x), g(y)).

    The output lives on the same lattice as f (cells of spacing h); its
    support is the floor-snap of lam*supp(f) + (1-lam)*supp(g).
    """
    if f.dim not in (1, 2):
        raise ValueError("sup_convolution supports dim 1 and 2")
    a, b = _lam_ab(params)
    off_g = _offset_cells(f, g)

    box_f = _bounding_box(f.values)
    box_g = _bounding_box(g.values)
    if box_f is None or box_g is None:
        return GridFunction(f.dim, f.origin, f.spacing, np.zeros((1,) * f.dim))

    (flo, fhi), (glo, ghi) = box_f, box_g
    s_lo = a * flo + (b - a) * (glo + off_g)
    k_lo = _snap(s_lo, b)
    k_hi = _snap(a * fhi + (b - a) * (ghi + off_g), b)
    fv = f.values[tuple(slice(l, h + 1) for l, h in zip(flo, fhi))]
    gv = g.values[tuple(slice(l, h + 1) for l, h in zip(glo, ghi))]
    # cell k collects s in [b*k - b//2, b*k - b//2 + b)
    out = _sup_cells(fv[None], gv[None], params, s_lo - (b * k_lo - b // 2),
                     tuple(int(n) for n in k_hi - k_lo + 1), sym=f is g and 2 * a == b)[0]
    origin = tuple(o + int(k) * f.spacing for o, k in zip(f.origin, k_lo))
    return GridFunction(f.dim, origin, f.spacing, out)


def minkowski_combination(A: LevelSet, B: LevelSet, lam) -> LevelSet:
    """Cell set {lam*x + (1-lam)*y : x in A, y in B} under the floor-snap rule."""
    frac = lam if isinstance(lam, Fraction) else Fraction(lam).limit_denominator(64)
    if abs(float(frac) - float(lam)) > 1e-12:
        raise ValueError(f"lambda {lam} is not a small-denominator rational")
    a, b = frac.numerator, frac.denominator
    off = _offset_cells(A, B)

    ia = A.indices().astype(np.int64)
    ib = B.indices().astype(np.int64) + off
    if len(ia) == 0 or len(ib) == 0:
        empty = np.zeros((1,) * A.dim, dtype=bool)
        return LevelSet(A.dim, 0.0, empty, A.origin, A.spacing)
    step = b - a
    s = a * ia[:, None, :] + step * ib[None, :, :]
    k = _snap(s, b).reshape(-1, A.dim)
    k_lo = k.min(axis=0)
    k_hi = k.max(axis=0)
    mask = np.zeros(tuple(int(h - l + 1) for l, h in zip(k_lo, k_hi)), dtype=bool)
    rel = k - k_lo
    mask[tuple(rel.T)] = True
    origin = tuple(o + int(l) * A.spacing for o, l in zip(A.origin, k_lo))
    return LevelSet(A.dim, 0.0, mask, origin, A.spacing)


def _violations(f, g, h, params, tol, collect):
    """Count (and optionally collect) pairs with M(f(x), g(y)) > h(z) + tol.

    z = lam*x + (1-lam)*y snaps to the same cell k as in sup_convolution,
    whose value at k is the max of M over exactly those pairs; h is zero off
    its grid.  So violating pairs sit only on the cells where
    M*(f, g)(1 + _MARGIN) > h + tol (the margin covers the kernel's
    rounding), and only their pairs are enumerated and compared, with
    p_mean_arr, exactly as a scan of every pair would.  Witnesses are
    (x, y, M - h(z)) in (f index, g index) order.
    """
    lam, p = params.lam_float, params.p
    vm, vh, origin, spacing = common_grid(sup_convolution(f, g, params), h)
    suspect = vm * (1.0 + _MARGIN) > vh + tol
    pos = np.concatenate([f.values[f.values > 0], g.values[g.values > 0]])
    if len(pos) and max(abs(p), 1.0) * (math.log2(pos.max()) - math.log2(pos.min()) + 1) > 999:
        suspect[...] = True  # outside the range _MARGIN is proven for
    bad = LevelSet(f.dim, 0.0, suspect, origin, spacing)
    if bad.cell_count == 0:
        return 0, []
    a, b = _lam_ab(params)
    step = b - a
    cells = bad.indices()
    h_at = vh[tuple(cells.T)]
    limit = h_at + tol
    n_f, n_g = np.array(f.shape), np.array(g.shape)
    # cell k collects s = a*i + step*(j + off_g) in [b*k - b//2, b*k - b//2 + b)
    s_lo = b * (cells + _offset_cells(f, bad)) - b // 2 - step * np.array(_offset_cells(f, g))
    inv_a = pow(a, -1, step)
    count = 0
    hits = []
    for phase in itertools.product(range(b), repeat=f.dim):
        # per cell and axis, the solutions of a*i + step*j = s form one
        # progression (i, j) = (i0 + step*r, j0 - a*r), r = 0 .. n - 1,
        # clipped to 0 <= i < n_f and 0 <= j < n_g
        s = s_lo + phase
        i_lo = np.maximum(0, -((step * (n_g - 1) - s) // a))
        i0 = i_lo + (s * inv_a - i_lo) % step
        j0 = (s - a * i0) // step
        n_axis = np.maximum(0, (np.minimum(n_f - 1, s // a) - i0) // step + 1)
        n_cell = n_axis.prod(axis=1)
        some = np.flatnonzero(n_cell)
        if len(some) == 0:
            continue
        cum = np.cumsum(n_cell[some])
        cuts = np.searchsorted(cum, np.arange(_PAIRS_PER_BATCH, cum[-1], _PAIRS_PER_BATCH))
        for part in np.split(some, cuts):
            if len(part) == 0:
                continue
            # r per axis: the pair's index within its cell in mixed radix,
            # last axis fastest
            n_part = n_cell[part]
            cell = np.repeat(part, n_part)
            q = np.arange(len(cell)) - np.repeat(np.cumsum(n_part) - n_part, n_part)
            r = [None] * f.dim
            for d in range(f.dim - 1, 0, -1):
                q, r[d] = np.divmod(q, n_axis[cell, d])
            r[0] = q
            fi = tuple(i0[cell, d] + step * r[d] for d in range(f.dim))
            gj = tuple(j0[cell, d] - a * r[d] for d in range(f.dim))
            m = p_mean_arr(lam, p, f.values[fi], g.values[gj])
            viol = m > limit[cell]
            count += int(viol.sum())
            if collect and viol.any():
                hits.append((
                    np.ravel_multi_index(tuple(x[viol] for x in fi), f.shape),
                    np.ravel_multi_index(tuple(x[viol] for x in gj), g.shape),
                    m[viol] - h_at[cell[viol]],
                ))
    if not hits:
        return count, []
    fl, gl, gaps = (np.concatenate(x) for x in zip(*hits))
    order = np.lexsort((gl, fl))
    fx = _cell_centers(f, np.column_stack(np.unravel_index(fl[order], f.shape)))
    gy = _cell_centers(g, np.column_stack(np.unravel_index(gl[order], g.shape)))
    found = list(zip(fx, gy, gaps[order].tolist()))
    return count, found


def deficit(f: GridFunction, g: GridFunction, h: GridFunction, params: MeanParams,
            verify: bool = True) -> DeficitReport:
    """Deficit delta = mass(h)/mass(f) - 1, plus an exact hypothesis check.

    With verify=True, pointwise_violations counts the grid pairs (x, y) with
    M(f(x), g(y)) > h(lam x + (1-lam) y) + tol, tol = 1e-9 * max(h), in 1-D
    and 2-D alike.  The check compares h with M*(f, g) cell by cell and
    enumerates pairs only on the cells where M*(f, g) exceeds h + tol.  Pass
    verify=False to skip it (delta only), e.g. in timing-sensitive sweeps
    where only the mass ratio is needed.
    """
    mf, mg, mh = integral(f), integral(g), integral(h)
    if mf <= 0:
        raise ZeroMassError("deficit needs mass(f) > 0")
    tol = 1e-9 * max(h.max(), 1e-300)
    count = _violations(f, g, h, params, tol, collect=False)[0] if verify else 0
    return DeficitReport(
        mass_f=mf,
        mass_g=mg,
        mass_h=mh,
        delta=mh / mf - 1.0,
        pointwise_violations=count,
        tol=tol,
        verified=verify,
    )


def verify_bbl_hypothesis(f: GridFunction, g: GridFunction, h: GridFunction,
                          params: MeanParams):
    """All grid pairs (x, y) with h(lam x + (1-lam) y) < M(f(x), g(y)) - tol.

    Returns a list of (x, y, shortfall) records, ordered by the row-major
    cell index of x and then of y; empty means the hypothesis holds on the
    grid.  Exact in 1-D and 2-D: h is compared with M*(f, g) cell by cell,
    and pairs are enumerated only on the cells where the comparison fails.
    """
    tol = 1e-9 * max(h.max(), 1e-300)
    return _violations(f, g, h, params, tol, collect=True)[1]
