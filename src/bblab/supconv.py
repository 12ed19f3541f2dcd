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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gridfn import (GridFunction, LevelSet, ZeroMassError, _cell_centers, _offset_cells,
                     common_grid, integral)
from .means import MeanParams, p_mean_arr

__all__ = [
    "DeficitReport",
    "sup_convolution",
    "minkowski_combination",
    "deficit",
    "verify_bbl_hypothesis",
]

# pairs enumerated at once by the hypothesis check; bounds its memory only
_PAIRS_PER_BATCH = 1 << 20


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


def sup_convolution(f: GridFunction, g: GridFunction, params: MeanParams) -> GridFunction:
    """Pointwise sup over splittings z = lam*x + (1-lam)*y of M_{lam,p}(f(x), g(y)).

    The output lives on the same lattice as f (cells of spacing h); its
    support is the floor-snap of lam*supp(f) + (1-lam)*supp(g).
    """
    if f.dim not in (1, 2):
        raise ValueError("sup_convolution supports dim 1 and 2")
    a, b = _lam_ab(params)
    off_g = _offset_cells(f, g)
    lam, p = params.lam_float, params.p

    box_f = _bounding_box(f.values)
    box_g = _bounding_box(g.values)
    if box_f is None or box_g is None:
        return GridFunction(f.dim, f.origin, f.spacing, np.zeros((1,) * f.dim))

    flo, fhi = box_f
    glo, ghi = box_g
    glo_lat = glo + off_g
    ghi_lat = ghi + off_g
    step = b - a
    s_lo = a * flo + step * glo_lat
    s_hi = a * fhi + step * ghi_lat
    k_lo = _snap(s_lo, b)
    k_hi = _snap(s_hi, b)

    # W[s] = max over pairs with a*i + (b-a)*j = s; then block-reduce s -> k.
    blk_lo = b * k_lo - b // 2
    blk_hi = b * k_hi - b // 2 + b - 1
    if f.dim == 1:
        W = np.zeros(int(blk_hi[0] - blk_lo[0] + 1))
        gv = g.values[glo[0] : ghi[0] + 1]
        j_base = int(step * glo_lat[0] - blk_lo[0])
        for i in range(int(flo[0]), int(fhi[0]) + 1):
            fv = f.values[i]
            if fv <= 0.0:
                continue
            row = p_mean_arr(lam, p, fv, gv)
            start = a * i + j_base
            seg = W[start : start + step * len(gv) : step]
            np.maximum(seg, row, out=seg)
        out = W.reshape(-1, b).max(axis=1)
        origin = (f.origin[0] + int(k_lo[0]) * f.spacing,)
        return GridFunction(1, origin, f.spacing, out)

    shape_w = tuple(int(h - l + 1) for l, h in zip(blk_lo, blk_hi))
    W = np.zeros(shape_w)
    gv = g.values[glo[0] : ghi[0] + 1, glo[1] : ghi[1] + 1]
    base = step * glo_lat - blk_lo
    n0, n1 = gv.shape
    for i0 in range(int(flo[0]), int(fhi[0]) + 1):
        rowvals = f.values[i0]
        s0 = int(a * i0 + base[0])
        for i1 in range(int(flo[1]), int(fhi[1]) + 1):
            fv = rowvals[i1]
            if fv <= 0.0:
                continue
            m = p_mean_arr(lam, p, fv, gv)
            s1 = int(a * i1 + base[1])
            seg = W[s0 : s0 + step * n0 : step, s1 : s1 + step * n1 : step]
            np.maximum(seg, m, out=seg)
    out = W.reshape(shape_w[0] // b, b, shape_w[1] // b, b).max(axis=(1, 3))
    origin = tuple(o + int(k) * f.spacing for o, k in zip(f.origin, k_lo))
    return GridFunction(2, origin, f.spacing, out)


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
    M*(f, g) > h + tol, and only their pairs are enumerated.  Witnesses are
    (x, y, M - h(z)) in (f index, g index) order.
    """
    vm, vh, origin, spacing = common_grid(sup_convolution(f, g, params), h)
    bad = LevelSet(f.dim, 0.0, vm > vh + tol, origin, spacing)
    if bad.cell_count == 0:
        return 0, []
    a, b = _lam_ab(params)
    step = b - a
    lam, p = params.lam_float, params.p
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
