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
2; sup_convolution and the shaving objective (_self_sup_integrals) both
call it, and hull.is_p_concave calls its max-plus half, _lattice_sums.  In
1-D at lam = 1/2 the shaving objective takes a state's concave pieces
instead where that is cheaper: O(n) for one piece and a slope merge for
each pair of pieces.

p_mean_arr evaluates the same formula per pair, at the pair's own scale, so
the two differ by rounding (at most 2^-35 relative, proven at _MARGIN); the
hypothesis check uses the kernel's values as a filter: a cell is cleared
when M*(1 + 2^-32) <= h + tol, and the pairs of every other cell are
compared one by one with p_mean_arr (_progression_pairs enumerates them).
The midpoint test filters the same way.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gridfn import (GridFunction, LevelSet, ZeroMassError, _cell_centers, _offset_cells,
                     common_grid, integral)
from .means import MeanParams, _lift, _scale_exp, _unlift, p_mean_arr

__all__ = [
    "DeficitReport",
    "sup_convolution",
    "minkowski_combination",
    "deficit",
    "verify_bbl_hypothesis",
]

# pairs enumerated at once by the hypothesis check; bounds its memory only
_PAIRS_PER_BATCH = 1 << 20

# Relative margin of the cell filters in _violations and hull.is_p_concave.
# Claim: every pair (x, y) feeding cell k has
# m = p_mean_arr(x, y) < fl(v_k * (1 + _MARGIN)), v_k the value _sup_cells
# gives cell k; so a cell that passes the filter has no violating pair, and
# the count equals that of a scan of all pairs.  The claim holds as well
# when W_k below is the maximum over any set of pairs that contains (x, y)
# (hull.is_p_concave leaves out the pairs (i, i)).
#
# Proof.  m and v_k evaluate one formula, M = sigma U(T) with
# T = w L(z_x) + c L(z_y), z = x/sigma, w + c = 1 exactly; only sigma
# differs (means._scale_exp of the pair, or of all of f and g).  Let
# u = 2^-53, and take each log, exp, expm1, log1p and power call to be
# within 4 ulps (relative error 8u).  The callers check every cell unless
# the positive values of f and g span at most 2^R with
# R * max(|p|, 1) <= 999 (_margin_covers).  Then each sigma is the smallest
# power of two >= the larger value (p >= 0) or the smaller (p < 0), each z
# is exact and in [2^-R, 2^R], |ln z| <= 693, and z^p is in [2^-999, 2^999]:
# all normal, so each operation has relative error <= u.  Each regime below
# bounds U(T)/U(t), t the computed sum, and U(s)/U^(s), U^ the computed
# unlift, by 1 + D_a and 1 + D_b both ways, D = D_a + D_b.  U is increasing
# and the kernel's t for (x, y) is at most W_k, its cell maximum, so
# M <= v_k (1 + D) and m <= M (1 + D).
# - p = 0: |t - T| <= 10u * 693 (log, weight, sum), exp adds 8u: D <= 7000u.
# - |p| >= _SMALL_P: L = +-z^p, and terms of one sign keep t = T(1 + d),
#   |d| <= 10u; U = |.|^(1/p) turns d into d/|p| <= 10^4 u, and power adds
#   8u: D <= 11000u.
# - 0 < |p| < _SMALL_P: 1 + pL = z^p lies in [1/2, 2], so |L| <= 2|ln z|
#   <= 1386.  Rounding p ln z moves expm1 (slope <= 2) by 18u|p ln z| and
#   expm1 errs by 8u|pL|, so after the division by p, the weights and the
#   sum, |t - T| <= 30000u (the first-order form, for |p ln z| < _SMALL_U,
#   drops terms below 0.2u|ln z| and errs less).  ln U(s) = log1p(ps)/p has
#   slope 1/(1 + ps) <= 2: D_a <= 60000u; U^ adds 2u|s| + 9u * 693 to the
#   exponent and 8u in exp: D <= 70000u.
# So m <= v_k (1 + 70000u)^2 < v_k (1 + 2^-35) <= fl(v_k (1 + 2^-32)),
# with a factor 8 to spare for the 4-ulp assumption on libm.
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


def _crop(a: np.ndarray, of: np.ndarray | None = None):
    """(a on the bounding box of the positive cells of `of`, a itself by
    default, over its trailing axes; the box's low corner), or None."""
    box = _bounding_box(a if of is None else of)
    if box is None:
        return None
    return a[(...,) + tuple(slice(lo, hi + 1) for lo, hi in zip(*box))], box[0]


# Padded FFT sizes up to this many points are proven exact in _overlap_counts;
# larger inputs take its direct method.
_FFT_MAX = 1 << 22


def _fft_ns(shape) -> float:
    """Estimated time (ns) of _overlap_counts' FFT method for a full
    correlation of this shape: 40 us of calls plus 3 ns per N log2 N for the
    padded size N (fitted on a 2-vCPU VM, numpy 2.4, sizes 64 to 2^16)."""
    n = math.prod(1 << (int(s) - 1).bit_length() for s in shape)
    return 4e4 + 3.0 * n * math.log2(max(n, 2))


def _overlap_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact overlap counts of two boolean masks (dims 1 and 2) at every shift.

    Returns the full correlation as int64, of shape a.shape + b.shape - 1:
    per axis, out[t] = #{y : b[y] and a[y + t - (m - 1)]} with m = b.shape,
    so out[m - 1 + v] counts the cells where a meets b shifted by v.  (The
    pair counts of a convolution are the correlation with b flipped.)  Two
    exact methods; the one with the smaller estimated cost runs, so the
    choice moves time only, never a count.

    Direct: one np.correlate per pair of nonempty rows (a 1-D mask is one
    row) of the masks as 0.0/1.0 floats, about 2 us plus 0.2 ns per product
    (same VM as _fft_ns).  Every partial sum is an integer below 2^53, so
    each count is exact.

    FFT: rfftn of a and of flipped b, zero-padded to powers of two per axis
    (N points in all), their product, irfftn, rounded to the nearest
    integer.  The rounding is exact while the error is below 1/2.  Percival
    (Math. Comp. 72 (2003) 387-395, Theorem 5.1) bounds the error of every
    output of a radix-2 FFT product of length N = 2^k by
        |x| |y| ((1 + u)^3k (1 + sqrt(5) u)^(3k+1) (1 + beta)^3k - 1),
    |.| the Euclidean norm, u = 2^-53, beta the error of the twiddle
    factors.  A 2-D transform applies the same butterflies along each axis,
    k = log2 N levels in all.  For 0/1 masks |x| |y| = sqrt(|A| |B|) <= N.
    With N <= _FFT_MAX = 2^22 (k <= 22) and beta <= 2u the factor is below
    (66 + 150 + 132) u < 4e-14, so the error is below 2^22 * 4e-14 < 2e-7.
    numpy's pocketfft groups the butterflies into radix-4 and real-input
    passes; the bound leaves a factor of 10^6 for their constants.  Larger
    inputs use the direct method.
    """
    shape = tuple(n + m - 1 for n, m in zip(a.shape, b.shape))
    ra = np.flatnonzero(a.reshape(-1, a.shape[-1]).any(axis=1))
    rb = np.flatnonzero(b.reshape(-1, b.shape[-1]).any(axis=1))
    direct_ns = len(ra) * len(rb) * (2e3 + 0.2 * a.shape[-1] * b.shape[-1])
    pad = tuple(1 << (n - 1).bit_length() for n in shape)
    if direct_ns > _fft_ns(shape) and math.prod(pad) <= _FFT_MAX:
        axes = tuple(range(a.ndim))
        spec = np.fft.rfftn(a, pad, axes) * np.fft.rfftn(np.flip(b), pad, axes)
        full = np.fft.irfftn(spec, pad, axes)[tuple(slice(0, n) for n in shape)]
        return np.rint(full).astype(np.int64)
    a2 = a.reshape(-1, a.shape[-1]).astype(float)
    b2 = b.reshape(-1, b.shape[-1]).astype(float)
    out = np.zeros((a2.shape[0] + b2.shape[0] - 1, shape[-1]))
    for i in ra:
        for j in rb:
            out[i - j + b2.shape[0] - 1] += np.correlate(a2[i], b2[j], "full")
    return out.reshape(shape).astype(np.int64)


def _scaled_lifts(fv, gv, params: MeanParams, sym: bool):
    """(lam L(f / sigma), (1 - lam) L(g / sigma), e), sigma = 2^e from
    means._scale_exp on the largest and smallest positive values of f and g,
    as p_mean_arr scales each pair.  sym: g is f and lam = 1/2."""
    lo = min(fv.min(where=fv > 0, initial=np.inf), gv.min(where=gv > 0, initial=np.inf))
    e = int(_scale_exp(max(fv.max(), gv.max()), lo, params.p))
    # weights that sum to exactly 1 in real arithmetic (1 - c is exact for
    # c >= 1/2): only then does the -1/p of the Box-Cox lift cancel
    c = 1.0 - params.lam_float
    lf = (1.0 - c) * _lift(fv, params.p, e)
    lg = lf if sym else c * _lift(gv, params.p, e)
    return lf, lg, e


def _unlift_cells(W: np.ndarray, b: int, p: float, e: int) -> np.ndarray:
    """Cells from the lifted lattice sums W (B, b*n_1, ...): the max over
    each cell's block of b^dim sums, one unlift, times 2^e.  The max runs
    over strided slices, one axis at a time (numpy reduces a short inner
    axis about 20 times slower)."""
    for d in range(1, W.ndim):
        at = (slice(None),) * d
        W = functools.reduce(np.maximum, (W[at + (slice(k, None, b),)] for k in range(b)))
    return _unlift(W, p, e)


def _lattice_sums(fv, gv, params: MeanParams, base, shape, sym: bool,
                  distinct: bool = False):
    """The max-plus half of _sup_cells: (W, e), W (B, *(b*n for n in shape))
    the largest lifted pair sum at each lattice sum (-inf where no pair
    lands) and 2^e the scale.  distinct (with sym) leaves out the pair
    (i, i)."""
    a, b = _lam_ab(params)
    step = b - a
    dim = fv.ndim - 1
    lf, lg, e = _scaled_lifts(fv, gv, params, sym)
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
        if distinct:
            t[(slice(None), 0) + i[1:]] = -np.inf
        seg = W[(slice(None),) + tuple(
            slice(a * i[d] + step * j0[d] + base[d], a * i[d] + step * n + base[d], step)
            for d, n in enumerate(ng))]
        np.maximum(seg, t, out=seg)
    return W, e


def _sup_cells(fv, gv, params: MeanParams, base, shape, sym: bool) -> np.ndarray:
    """M*_{lam,p} on output cells for a batch of pairs of grid functions.

    fv (B, *nf) and gv (B, *ng) hold row r's f and g on boxes of one
    lattice; returns (B, *shape).  Pair (i, j) lands on the lattice sum
    s = a*i + (b-a)*j + base (per axis, 0 <= base < b), and output cell k
    collects s in [b*k, b*k + b).  Each pair costs one add and one max of
    lifted values (_lattice_sums); each cell one unlift.  f and g are
    divided by the power of two sigma of _scaled_lifts first and the result
    is multiplied back; M is 1-homogeneous, so this is exact, and the lifts
    cannot overflow.  sym (fv is gv and lam = 1/2) visits only
    pairs with j >= i on axis 0: the mirror pair lands on the same s with
    the same float sum.
    """
    W, e = _lattice_sums(fv, gv, params, base, shape, sym)
    return _unlift_cells(W, _lam_ab(params)[1], params.p, e)


def sup_convolution(f: GridFunction, g: GridFunction, params: MeanParams) -> GridFunction:
    """Pointwise sup over splittings z = lam*x + (1-lam)*y of M_{lam,p}(f(x), g(y)).

    The output lives on the same lattice as f (cells of spacing h); its
    support is the floor-snap of lam*supp(f) + (1-lam)*supp(g).
    """
    if f.dim not in (1, 2):
        raise ValueError("sup_convolution supports dim 1 and 2")
    a, b = _lam_ab(params)
    off_g = _offset_cells(f, g)

    cf, cg = _crop(f.values), _crop(g.values)
    if cf is None or cg is None:
        return GridFunction(f.dim, f.origin, f.spacing, np.zeros((1,) * f.dim))

    (fv, flo), (gv, glo) = cf, cg
    s_lo = a * flo + (b - a) * (glo + off_g)
    k_lo = _snap(s_lo, b)
    k_hi = _snap(s_lo + a * (np.array(fv.shape) - 1) + (b - a) * (np.array(gv.shape) - 1), b)
    # cell k collects s in [b*k - b//2, b*k - b//2 + b)
    out = _sup_cells(fv[None], gv[None], params, s_lo - (b * k_lo - b // 2),
                     tuple(int(n) for n in k_hi - k_lo + 1), sym=f is g and 2 * a == b)[0]
    origin = tuple(o + int(k) * f.spacing for o, k in zip(f.origin, k_lo))
    return GridFunction(f.dim, origin, f.spacing, out)


def _self_sup_integrals(states: np.ndarray, params: MeanParams) -> np.ndarray:
    """sum M*(s, s) over the cells of each state s of the batch (B, *shape),
    dims 1 and 2: in 1-D at lam = 1/2 by concave pieces where the cost rule
    of _self_sup_integrals_1d finds that cheaper, else by _sup_cells on the
    batch's common support box."""
    out = np.empty(len(states))
    rest = np.arange(len(states))
    a, b = _lam_ab(params)
    if states.ndim == 2 and 2 * a == b:
        sums, done = _self_sup_integrals_1d(states, params)
        out[done] = sums[done]
        rest = np.flatnonzero(~done)
    if len(rest) == 0:
        return out
    sub = states[rest]
    cropped = _crop(sub, sub.max(axis=0))
    if cropped is None:
        out[rest] = 0.0
        return out
    sub = cropped[0]
    # on a common box, with s = a*i + (b-a)*j, cell k collects s in
    # [b*k - b//2, b*k - b//2 + b)
    cells = _sup_cells(sub, sub, params, (b // 2,) * (sub.ndim - 1), sub.shape[1:],
                       sym=2 * a == b)
    out[rest] = cells.reshape(len(rest), -1).sum(axis=1)
    return out


def _pieces_cheaper(r: np.ndarray, live: np.ndarray, box: np.ndarray, n: int) -> np.ndarray:
    """The cost rule between the piece path and _sup_cells, per row of n
    cells with r concave pieces, this many positive cells and a support box
    of this many cells.  The piece path costs about 60 ns per merged slope,
    (r - 1) * live in all over the r(r - 1)/2 cross pairs, plus 60 ns per
    cell of the row; _sup_cells costs about 4 ns per pair, about
    live * box / 2 pairs (fitted on a 2-vCPU VM, numpy 2.4, rows of 50 to
    800 cells, 2 to 16 pieces).  Either path gives M*(g, g) up to rounding,
    so the rule moves time only."""
    return 60.0 * ((r - 1) * live + n) < 2.0 * live * box


def _self_sup_integrals_1d(rows: np.ndarray, params: MeanParams):
    """sum M*(g, g) over the cells of 1-D rows g at lam = 1/2, by concave
    pieces.

    Each row's positive cells split into maximal runs on which the lift is
    concave (second differences at most 1e-9 max|L|).  A run breaks at a
    zero cell and at a kink, and the kink cell belongs to both runs, so
    every pair of positive cells lies in some pair of pieces P <= Q.  The
    pair maximizing the mean at a lattice sum within P + P is the balanced
    one: the cell itself, or the adjacent pair.  On one piece this gives
    M*(g,g)(z) = max(g_z, M(g_{z-1}, g_z)), summed by one O(n) formula.
    Within P + Q (P < Q), the max-plus convolution of two concave sequences
    is a slope merge (Bussieck, Hassler, Woeginger and Zimmermann 1994):
    the pair at sum p0 + q0 + t takes, of the t largest slopes of P and Q
    together, those of P as steps in P and the rest in Q.  One stable
    argsort per piece-pair slot, over the rows with that many pieces in
    blocks, gives the pairs; each is then evaluated with _sup_cells'
    arithmetic, so pieces whose lifts are exactly concave give _sup_cells'
    cells.  This costs O(r n) per row of r pieces against about n^2 / 2
    pairs in the kernel.  Returns (sums, done); the rows that the cost
    rule _pieces_cheaper leaves (many pieces) are for _sup_cells.
    """
    B, n = rows.shape
    starts, ends = _concave_pieces(rows, params.p)
    r = starts.sum(axis=1)
    sums = np.zeros(B)
    one = r <= 1
    if one.any():
        g = rows[one]
        madj = p_mean_arr(params.lam_float, params.p, g[:, :-1], g[:, 1:])
        extra = np.clip(madj - g[:, 1:], 0.0, None).sum(axis=1)
        sums[one] = g.sum(axis=1) + extra
        del g, madj  # before the piece path allocates its own
    pos = rows > 0
    first = np.argmax(pos, axis=1)
    last = n - 1 - np.argmax(pos[:, ::-1], axis=1)
    many = (r > 1) & _pieces_cheaper(r, pos.sum(axis=1), last - first + 1, n)
    if many.any():
        sums[many] = _piece_cells(rows[many], starts[many], ends[many], params).sum(axis=1)
    return sums, one | many


def _concave_pieces(rows: np.ndarray, p: float):
    """(starts, ends): boolean masks of the first and the last cell of each
    concave piece of each row; a kink cell is both."""
    pos = rows > 0
    L = _lift(rows, p)
    with np.errstate(invalid="ignore"):
        d2 = L[:, :-2] - 2.0 * L[:, 1:-1] + L[:, 2:]
    slack = 1e-9 * np.maximum(np.where(np.isfinite(L), np.abs(L), 0.0).max(axis=1), 1.0)
    kink = np.zeros_like(pos)
    kink[:, 1:-1] = pos[:, :-2] & pos[:, 1:-1] & pos[:, 2:] & (d2 > slack[:, None])
    edge = np.zeros((len(rows), 1), dtype=bool)
    starts = pos & ~np.hstack([edge, pos[:, :-1]]) | kink
    ends = pos & ~np.hstack([pos[:, 1:], edge]) | kink
    return starts, ends


def _piece_cells(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 params: MeanParams) -> np.ndarray:
    """M*(g, g) on the cells of 1-D rows g (lam = 1/2) whose concave pieces
    run from each set cell of starts to the matching set cell of ends."""
    B, n = rows.shape
    lf, _, e = _scaled_lifts(rows, rows, params, sym=True)
    # pair (i, j) lands on the lattice sum s = i + j + 1, and cell k
    # collects s in {2k, 2k + 1}; within a piece the balanced pairs
    # (k, k) and (k, k + 1) are the best, and adjacent positive cells
    # always share a piece
    W = np.empty((B, 2 * n))
    W[:, 0] = -np.inf
    W[:, 1::2] = lf + lf
    W[:, 2::2] = lf[:, :-1] + lf[:, 1:]
    prow, ps = np.nonzero(starts)
    pe = np.nonzero(ends)[1]
    r = np.bincount(prow, minlength=B)
    off = np.cumsum(r) - r
    flat_lf, flat_W = lf.reshape(-1), W.reshape(-1)
    for a, b in itertools.combinations(range(r.max()), 2):
        rows_ab = np.flatnonzero(r > b)
        span = (pe - ps)[off[rows_ab] + a] + (pe - ps)[off[rows_ab] + b] + 1
        # rows per block, so that each temporary holds about 2^18 entries
        step = max(1, (1 << 18) // int(span.max()))
        for R in np.split(rows_ab, np.arange(step, len(rows_ab), step)):
            (p0, p1), (q0, q1) = ((ps[off[R] + k], pe[off[R] + k]) for k in (a, b))
            keys = []
            for lo, m in ((p0, p1 - p0), (q0, q1 - q0)):
                k = np.arange(m.max())
                at = R[:, None] * n + np.minimum(lo[:, None] + k, n - 2)
                with np.errstate(invalid="ignore"):  # -inf - -inf off the piece
                    step_down = flat_lf[at] - flat_lf[at + 1]
                keys.append(np.where(k < m[:, None], step_down, np.inf))
            # stable: ties take P first; the +inf padding sorts last
            order = np.argsort(np.hstack(keys), axis=1, kind="stable")
            in_p = np.zeros((len(R), order.shape[1] + 1), dtype=np.intp)
            np.cumsum(order < keys[0].shape[1], axis=1, out=in_p[:, 1:])
            t = np.arange(in_p.shape[1])
            # past the last real slope the clipped pair is still in P x Q
            i = np.minimum(p0[:, None] + in_p, p1[:, None])
            j = np.minimum(q0[:, None] + t - in_p, q1[:, None])
            v = flat_lf[R[:, None] * n + i] + flat_lf[R[:, None] * n + j]
            at = R[:, None] * (2 * n) + i + j + 1
            flat_W[at] = np.maximum(flat_W[at], v)
    return _unlift_cells(W, 2, params.p, e)


def _dilate(mask: np.ndarray, factor: int) -> np.ndarray:
    """The mask with cell i moved to factor * i (factor >= 0)."""
    out = np.zeros(tuple(factor * (n - 1) + 1 for n in mask.shape), dtype=bool)
    out[tuple(factor * np.argwhere(mask).T)] = True
    return out


def minkowski_combination(A: LevelSet, B: LevelSet, lam) -> LevelSet:
    """Cell set {lam*x + (1-lam)*y : x in A, y in B} under the floor-snap rule.

    lam = a/b in [0, 1].  Pair (i, j) lands on the lattice sum
    s = a*i + (b-a)*j, so the sums that some pair reaches are the support of
    the convolution of A dilated by a with B dilated by b - a: one exact
    _overlap_counts call (with B flipped), then the floor snap of each
    reached s to its cell.
    """
    frac = lam if isinstance(lam, Fraction) else Fraction(lam).limit_denominator(64)
    if abs(float(frac) - float(lam)) > 1e-12:
        raise ValueError(f"lambda {lam} is not a small-denominator rational")
    if not 0 <= frac <= 1:
        raise ValueError(f"lambda {lam} is outside [0, 1]")
    a, b = frac.numerator, frac.denominator
    off = _offset_cells(A, B)

    ca, cb = _crop(A.mask), _crop(B.mask)
    if ca is None or cb is None:
        empty = np.zeros((1,) * A.dim, dtype=bool)
        return LevelSet(A.dim, 0.0, empty, A.origin, A.spacing)
    step = b - a
    counts = _overlap_counts(_dilate(ca[0], a), np.flip(_dilate(cb[0], step)))
    s = np.argwhere(counts > 0) + a * ca[1] + step * (cb[1] + off)
    k = _snap(s, b)
    k_lo = k.min(axis=0)
    k_hi = k.max(axis=0)
    mask = np.zeros(tuple(int(h - l + 1) for l, h in zip(k_lo, k_hi)), dtype=bool)
    rel = k - k_lo
    mask[tuple(rel.T)] = True
    origin = tuple(o + int(l) * A.spacing for o, l in zip(A.origin, k_lo))
    return LevelSet(A.dim, 0.0, mask, origin, A.spacing)


def _margin_covers(pos: np.ndarray, p: float) -> bool:
    """Whether _MARGIN's proof covers the positive values pos at exponent p:
    they span at most 2^R with R * max(|p|, 1) <= 999."""
    if len(pos) == 0:
        return True
    return max(abs(p), 1.0) * (math.log2(pos.max()) - math.log2(pos.min()) + 1) <= 999


def _progression_pairs(s: np.ndarray, a: int, step: int, n_f, n_g):
    """The pairs (i, j) with a*i + step*j = s on every axis, 0 <= i < n_f
    and 0 <= j < n_g, for each row of s (cells, dim), in batches of about
    _PAIRS_PER_BATCH pairs (a cell is never split).

    Yields (cell, i, j): the row of s of each pair and its i and j as index
    tuples per axis.  Within a cell the pairs come in row-major order of i.
    """
    dim = s.shape[1]
    # per cell and axis, the solutions form one progression
    # (i, j) = (i0 + step*r, j0 - a*r), r = 0 .. n - 1, clipped to
    # 0 <= i < n_f and 0 <= j < n_g
    inv_a = pow(a, -1, step)
    i_lo = np.maximum(0, -((step * (n_g - 1) - s) // a))
    i0 = i_lo + (s * inv_a - i_lo) % step
    j0 = (s - a * i0) // step
    n_axis = np.maximum(0, (np.minimum(n_f - 1, s // a) - i0) // step + 1)
    n_cell = n_axis.prod(axis=1)
    some = np.flatnonzero(n_cell)
    if len(some) == 0:
        return
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
        r = [None] * dim
        for d in range(dim - 1, 0, -1):
            q, r[d] = np.divmod(q, n_axis[cell, d])
        r[0] = q
        yield (cell, tuple(i0[cell, d] + step * r[d] for d in range(dim)),
               tuple(j0[cell, d] - a * r[d] for d in range(dim)))


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
    if not _margin_covers(np.concatenate([f.values[f.values > 0], g.values[g.values > 0]]), p):
        suspect[...] = True
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
    count = 0
    hits = []
    for phase in itertools.product(range(b), repeat=f.dim):
        for cell, fi, gj in _progression_pairs(s_lo + phase, a, step, n_f, n_g):
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
