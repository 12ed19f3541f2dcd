"""Grid sup-convolution M*_{lam,p}(f, g), Minkowski combinations, deficits.

Combination geometry.  With lam = a/b in lowest terms and all grids sharing
one lattice of spacing h, the combination z = lam*x + (1-lam)*y of two cell
centers sits at lattice coordinate (s + b/2)/b where s = a*i + (b-a)*j is an
integer.  z is a cell center exactly when b divides s; otherwise it falls on
a cell boundary or interior point, and we assign it to the cell containing
it, resolving boundary ties upward: k = (2s + b) // (2b).  All index math is
integer, so tie handling is exact.  This floor-snap convention makes the
indicator law M*(1_A, 1_B) = 1_{lam A + (1-lam) B} hold cell-for-cell and
gives the discrete Minkowski combination measure >= min(|A|, |B|).  _reach
places the pairs of two boxes on their cells.

Lifted kernel.  M_{lam,p}(x, y) = L^-1(lam L(x) + (1-lam) L(y)) for the
increasing lift L of means._lift, so M* is a max-plus convolution of
lam L(f) and (1-lam) L(g) on the lattice sums s, a block max onto cells and
one unlift per cell.  _sup_cells does this for a batch of rows in dims 1 and
2; sup_convolution (and so the hypothesis check) and the shaving objective
(_self_sup_integrals) call it, and hull.is_p_concave calls its max-plus
half, _lattice_sums.  The shave's full 1-D sweeps take the half-line states
from _half_line_sup_integrals instead: one kernel pass grown in blocks
of cells, whose sums are the kernel path's bit for bit.  _lattice_sums has two
paths: the O(n_f n_g) kernel _max_plus, and in 1-D at lam = 1/2 the slope
merge _merge_pieces over concave pieces, O(r_g n_f + r_f n_g) for r
pieces; a cost rule picks one per row.  The kernel takes f's cells in
blocks along its last axis, a few numpy calls a block, and forms each pair
by the float add of a per-cell loop, so its W is that loop's bit for bit.
One piece finder, _exact_pieces, splits the rows at a tolerance the
caller picks.  At 0 (sup_convolution, the hypothesis check, the midpoint
test), the float lifts are concave in real arithmetic on each piece, and
both paths give the same lattice sums bit for bit.  The shaving objective
passes _SHAVE_SLACK, 2^-46 of a row's largest lift, so that rounding kinks
do not split its states; its merge misses M* by about that much, far below
the shave's acceptance threshold.
The kernel alone serves 2-D (the 2-D midpoint test included) and
lam != 1/2.  lg is lf (_scaled_lifts: lam = 1/2 and g = f by value) marks
the symmetric pass, which skips the mirror pairs, on every path.

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

import numpy as np

from .gridfn import (GridFunction, LevelSet, ZeroMassError, _cell_centers, _offset_cells,
                     common_grid, integral)
from .means import MeanParams, _lift, _rational, _scale_exp, _unlift, p_mean_arr

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
# (hull.is_p_concave leaves out the pairs (i, i)).  _lattice_sums' slope
# merge on exact pieces, which sup_convolution and the 1-D midpoint test
# use, gives the kernel's W bit for bit, distinct pairs included
# (_merge_pieces), so the claim covers both of its paths.
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
    M(f(x), g(y)) > h(lam x + (1-lam) y) + tol, 0 for the canonical h =
    M*(f, g), which holds by construction; the hypothesis holds iff it is 0.
    """

    mass_f: float
    mass_g: float
    mass_h: float
    delta: float
    pointwise_violations: int
    tol: float

    @property
    def hypothesis_ok(self) -> bool:
        return self.pointwise_violations == 0


def _lam_ab(params: MeanParams) -> tuple[int, int]:
    frac = params.lam_fraction
    return frac.numerator, frac.denominator


def _snap(s, b: int):
    """Cell index receiving lattice coordinate (s + b/2)/b (ties go up)."""
    return (2 * s + b) // (2 * b)


def _reach(s0, nf, ng, a: int, b: int):
    """(k0, base, n): the cells that the pairs (i, j) of boxes of nf and ng
    cells feed at lam = a/b, per axis and elementwise over arrays.

    Pair (i, j) lands on the lattice sum s0 + a*i + (b-a)*j, and cell k
    collects s in [b*k - b//2, b*k - b//2 + b) (_snap).  The pairs reach
    the cells k0 .. k0 + n - 1, and base, in [0, b), is the offset of s0 in
    their lattice array of b*n sums.  Boxes that are intervals reach every
    one of those cells: the chain from (0, 0) to (nf - 1, ng - 1) that
    raises i or j by one at a time moves s by a or by b - a, at most b, so
    the snap moves by 0 or 1 cell at each step, and the snap, nondecreasing
    in s, sends no sum outside them.
    """
    k0 = _snap(s0, b)
    n = _snap(s0 + a * (nf - 1) + (b - a) * (ng - 1), b) - k0 + 1
    return k0, s0 - (b * k0 - b // 2), n


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
    if direct_ns > _fft_ns(shape) and (full := _fft_correlation(a, b)) is not None:
        return np.rint(full).astype(np.int64)
    a2 = a.reshape(-1, a.shape[-1]).astype(float)
    b2 = b.reshape(-1, b.shape[-1]).astype(float)
    out = np.zeros((a2.shape[0] + b2.shape[0] - 1, shape[-1]))
    for i in ra:
        for j in rb:
            out[i - j + b2.shape[0] - 1] += np.correlate(a2[i], b2[j], "full")
    return out.reshape(shape).astype(np.int64)


def _fft_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """_overlap_counts' FFT method on real arrays before the rounding: their
    full correlation in float, or None where the padding exceeds _FFT_MAX."""
    shape = tuple(n + m - 1 for n, m in zip(a.shape, b.shape))
    pad = tuple(1 << (n - 1).bit_length() for n in shape)
    if math.prod(pad) > _FFT_MAX:
        return None
    axes = tuple(range(a.ndim))
    spec = np.fft.rfftn(a, pad, axes) * np.fft.rfftn(np.flip(b), pad, axes)
    return np.fft.irfftn(spec, pad, axes)[tuple(slice(0, n) for n in shape)]


def _scaled_lifts(fv, gv, params: MeanParams):
    """(lam L(f / sigma), (1 - lam) L(g / sigma), e), sigma = 2^e from
    means._scale_exp on the largest and smallest positive values of f and g,
    as p_mean_arr scales each pair.  The second is the first, one array,
    exactly when lam = 1/2 and g has f's values (gv is fv, or the same shape
    and values): the mirror pair (j, i) then has the sum of (i, j)."""
    lo = min(fv.min(where=fv > 0, initial=np.inf), gv.min(where=gv > 0, initial=np.inf))
    e = int(_scale_exp(max(fv.max(), gv.max()), lo, params.p))
    # weights that sum to exactly 1 in real arithmetic (1 - c is exact for
    # c >= 1/2): only then does the -1/p of the Box-Cox lift cancel
    c = 1.0 - params.lam_float
    lf = (1.0 - c) * _lift(fv, params.p, e)
    same = 2 * params.lam_fraction == 1 and (
        gv is fv or gv.shape == fv.shape and np.array_equal(fv, gv))
    lg = lf if same else c * _lift(gv, params.p, e)
    return lf, lg, e


def _lattice_sums(fv, gv, params: MeanParams, base, shape, distinct: bool = False,
                  slack: float = 0.0):
    """The max-plus half of _sup_cells: (W, e), W (B, *(b*n for n in shape))
    the largest lifted pair sum at each lattice sum (-inf where no pair
    lands) and 2^e the scale, pair (i, j) at a*i + (b-a)*j + base.  Both
    paths take the symmetric pass when lg is lf (_scaled_lifts), and then
    distinct leaves out the pair (i, i).

    The kernel (_max_plus) forms every pair.  In 1-D at lam = 1/2,
    _merge_pieces merges the slopes of each pair of pieces of f and g that
    _exact_pieces(lifts, slack) finds; _pieces_cheaper picks the path per
    row.  At slack 0 (the default) the pieces are exactly concave and both
    paths give the same W bit for bit; at the shave's _SHAVE_SLACK the
    merge's W is below the kernel's by at most about that slack times the
    row's largest lift.  distinct without the symmetric pass raises
    ValueError: (i, i) is a pair of f with itself."""
    a, b = _lam_ab(params)
    lf, lg, e = _scaled_lifts(fv, gv, params)
    if distinct and lg is not lf:
        raise ValueError("distinct pairs need the symmetric pass: lam = 1/2 and g = f")
    W = np.empty((len(fv),) + tuple(b * n for n in shape))
    rest = np.arange(len(fv))
    if fv.ndim == 2 and 2 * a == b:
        live_f, sf, ef = _exact_pieces(lf, slack)
        live_g, sg, eg = (live_f, sf, ef) if lg is lf else _exact_pieces(lg, slack)
        r_f, r_g = sf.sum(axis=1), sg.sum(axis=1)
        merge = _pieces_cheaper(r_f, live_f.sum(axis=1), r_g, *_live_box(live_g), lg is lf)
        if merge.any():
            _merge_pieces(lf, lg, (sf, ef, r_f), (sg, eg, r_g), int(base[0]), W, merge, distinct)
        rest = np.flatnonzero(~merge)
    if len(rest) == len(fv):
        W.fill(-np.inf)
        _max_plus(lf, lg, W, a, b, base, distinct)
    elif len(rest):
        sub = np.full((len(rest),) + W.shape[1:], -np.inf)
        lf_rest = lf[rest]  # one array for both, so that lg is lf still holds
        _max_plus(lf_rest, lf_rest if lg is lf else lg[rest], sub, a, b, base, distinct)
        W[rest] = sub
    return W, e


# A _max_plus block's array M, in doubles (1 MB), and its most cells.  On the
# 40x40 Gaussian pair, a 4000-cell row at lam = 1/3 and the 2-D shave's 7x7
# batches, 2^16 to 2^18 doubles ran about alike, and 2^15 up to twice and
# 2^13 up to three times as slow (2-vCPU VM, numpy 2.4).
_BLOCK_DOUBLES = 1 << 17
_BLOCK_CELLS = 64


def _max_plus_blocks(live, step: int, size: int):
    """(line, c, q0, n): _max_plus's blocks over live (lines, n), the live
    cells of f per line.  A block is the cells c + step*q, q0 <= q < q0 + n,
    of one residue c mod step on one line, up to size of them, within one
    run of the class's live cells that no dead stretch longer than size
    splits."""
    for c in range(step):
        lines, q = np.nonzero(live[:, c::step])
        if len(q) == 0:
            continue
        cut = np.flatnonzero((np.diff(lines) != 0) | (np.diff(q) > size)) + 1
        first, last = np.append(0, cut), np.append(cut, len(q)) - 1
        for line, q0, q1 in zip(lines[first].tolist(), q[first].tolist(), q[last].tolist()):
            for s in range(q0, q1 + 1, size):
                yield line, c, s, min(size, q1 + 1 - s)


def _max_plus(lf, lg, W, a: int, b: int, base, distinct: bool):
    """The O(n_f n_g) kernel of _lattice_sums, into W in place: the largest
    lf[i] + lg[j] at each lattice sum a*i + (b-a)*j + base, over all rows.
    When lg is lf, 2-D keeps the pairs with j >= i on axis 0 and 1-D those
    with j from the first cell of i's block; distinct leaves out j = i.

    A line of f is its cells at one index on every axis but the last, and
    g's rows are its lines likewise (one of each in 1-D).  The blocks of
    _max_plus_blocks take a line's cells i = c + (b-a) q, q0 <= q < q0 + n,
    at a time.  Pair (i, j) lands on the last axis at a c + (b-a)(a q + j)
    + base, so the pairs of the block's q-th cell with a row of g start
    a q columns (of stride b - a) after its first cell's: one add through a
    view of a flat buffer at pitch S + a, S the size of a (B, rows of g, L)
    slab, writes all of a block's pairs into the (K, B, rows of g, L) array
    M, slab q's skewed by a q.  One max down M's axis 0 folds the block and
    one strided max puts it into W.  The buffer is filled with -inf once;
    every slot that no pair fills stays -inf.  In 2-D g's rows are padded
    with -inf to L columns, so that the add runs over all of a batch row's
    rows of g at once, and the padding falls on those slots.  In 1-D the
    add writes the pairs alone, and the symmetric pass's rows, shorter by
    the block's first cell, leave columns that are reset to -inf.

    W is the per-cell kernel's bit for bit (max_plus_oracle in the tests):
    each pair's sum is the same float add, max is exact and indifferent to
    order, and the pairs a 1-D symmetric block adds, (i, j) with j < i in
    one block, are mirrors (j, i) of kept pairs at the same lattice sum,
    with the same float sum since lg is lf."""
    step = b - a
    sym = lg is lf
    B, nfl, dim = len(lf), lf.shape[-1], lf.ndim - 1
    lines = lf.reshape(B, -1, nfl)
    G, ngl = lg.reshape(B, -1, lg.shape[-1]).shape[1:]
    W3 = W.reshape(B, -1, W.shape[-1])
    base0 = int(base[0]) if dim == 2 else 0
    live = np.isfinite(lines).any(axis=0)
    # K cells a block, and M within _BLOCK_DOUBLES
    K = min(_BLOCK_CELLS, -(-nfl // step))
    K = max(1, min(K, _BLOCK_DOUBLES // (B * G) // (a * (K - 1) + ngl)))
    L = a * (K - 1) + ngl
    S = B * G * L
    buf = np.full(K * (S + a), -np.inf)
    M = buf[:K * S].reshape(K, B, G, L)
    skew = buf.reshape(K, S + a)[:, :S].reshape(K, B, G, L)
    if dim == 2:
        rows = np.full((B, G, L), -np.inf)
        rows[..., :ngl] = lg
    else:
        rows = lg[:, None]
    wide = ngl  # slab rows hold -inf from column `wide` on
    for line, c, q0, n in _max_plus_blocks(live, step, K):
        i = c + step * q0
        r0 = line if sym and dim == 2 else 0
        j0 = i if sym and dim == 1 else 0
        src = rows[None, :, r0:, j0:]
        w = src.shape[-1]
        if w < wide:
            skew[..., w:wide] = -np.inf
        wide = w
        lf_q = lines[:, line, i:i + step * n:step].T[:, :, None, None]
        np.add(lf_q, src, out=skew[:n, :, r0:, :w])
        if distinct:  # slab q's (i + q, i + q): g's row `line`, column i + q - j0
            q = np.arange(n)
            skew[q, :, line if dim == 2 else 0, i + q - j0] = -np.inf
        span = a * (n - 1) + ngl - j0
        top = M[:n, :, r0:, :span].max(axis=0)
        at = a * i + step * j0 + base[-1]
        seg = W3[:, a * line + step * r0 + base0::step, at:at + step * span:step][:, :G - r0]
        np.maximum(seg, top, out=seg)


def _sup_cells(fv, gv, params: MeanParams, s0, slack: float = 0.0):
    """M*_{lam,p} on output cells for a batch of pairs of grid functions:
    (cells, k0), cells (B, *n) on the cells k0 .. k0 + n - 1 per axis.

    fv (B, *nf) and gv (B, *ng) hold row r's f and g on boxes of one
    lattice, and pair (0, 0) lands on the lattice sum s0 (per axis);
    _reach places the pairs on cells.  _lattice_sums takes the largest
    lifted pair sum at each lattice sum, by the kernel or a slope merge, in
    the symmetric pass when g has f's values at lam = 1/2 (_scaled_lifts);
    each cell costs one unlift.  f and g are divided by the power of two
    sigma of _scaled_lifts first and the result is multiplied back; M is
    1-homogeneous, so this is exact, and the lifts cannot overflow.  slack:
    the slope merge's concavity tolerance (_lattice_sums).
    """
    a, b = _lam_ab(params)
    k0, base, n = _reach(np.full(fv.ndim - 1, s0), np.array(fv.shape[1:]),
                         np.array(gv.shape[1:]), a, b)
    W, e = _lattice_sums(fv, gv, params, base, tuple(int(x) for x in n), slack=slack)
    # the max over each cell's block of b^dim sums, over strided slices one
    # axis at a time (numpy reduces a short inner axis about 20 times
    # slower); rebinding W frees the lattice sums before the unlift
    for d in range(1, W.ndim):
        at = (slice(None),) * d
        W = functools.reduce(np.maximum, (W[at + (slice(k, None, b),)] for k in range(b)))
    return _unlift(W, params.p, e), k0


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
    out, k0 = _sup_cells(fv[None], gv[None], params, a * flo + (b - a) * (glo + off_g))
    origin = tuple(o + int(k) * f.spacing for o, k in zip(f.origin, k0))
    return GridFunction(f.dim, origin, f.spacing, out[0])


# The slope merge's concavity tolerance for the shave's objective, relative
# to a row's largest lift (_exact_pieces).  Re-lifting a plane cut
# min(f, unlift(m i + q)) rounds each lift by an ulp or so, so the second
# differences carry noise of a few times 2^-52 of the largest lift, of
# either sign; exact pieces would split at every such rounding kink (the
# shave of a 1000-cell log-concave bump at p = 0 takes 14 s at slack 0 and
# 0.6 s at 2^-46, 2-vCPU VM).  2^-46 sits above that noise and four orders
# below the shave's acceptance threshold of 1e-10, so the merge misses M*
# by about 2^-46 of the largest lift, and the cost rule moves the shave's
# sums at that level only.  (A run of n cells convex by just under the
# tolerance at each could drift by n^2/8 times it; rounding noise does not.)
_SHAVE_SLACK = 2.0 ** -46


def _self_sup_integrals(states: np.ndarray, params: MeanParams) -> np.ndarray:
    """sum M*(s, s) over the cells of each state s of the batch (B, *shape),
    dims 1 and 2: one _sup_cells call on the batch's common support box,
    with the slope merge's pieces concave up to _SHAVE_SLACK."""
    cropped = _crop(states, states.max(axis=0))
    if cropped is None:
        return np.zeros(len(states))
    sub = cropped[0]
    cells = _sup_cells(sub, sub, params, 0, _SHAVE_SLACK)[0]
    return cells.reshape(len(sub), -1).sum(axis=1)


def _half_line_sup_integrals(cur: np.ndarray, ks: np.ndarray, params: MeanParams):
    """(prefix, suffix): sum M*(s, s) over the cells of the 1-D states
    s = cur on i <= k and s = cur on i >= k, for each k of ks (ascending).

    One kernel pass grows the states along cur's support box, from the
    left for the prefixes and from the right for the suffixes, in blocks
    of up to _GROW_BLOCK cells (_grown_sums).  The lifts and e are
    _scaled_lifts' on cur, and each state's cells on cur's box take the
    pairwise sum along axis 1 of _self_sup_integrals, so each sum equals,
    bit for bit, _self_sup_integrals' on the kernel path for a batch of
    such states whose maximum is cur.  The pass forms O(n^2) pairs in all
    for n cells in the box, where the kernel forms O(n^2) pairs per state,
    with a few dozen numpy calls per block, and keeps O(_GROW_BLOCK b n)
    memory at lam = a/b."""
    out = np.zeros((2, len(ks)))
    cropped = _crop(cur)
    if cropped is None:
        return out
    sub, (lo,) = cropped
    m = len(sub)
    rows, lg_rows, e = _scaled_lifts(sub[None], sub[None], params)
    lf = rows[0]
    lg = lf if lg_rows is rows else lg_rows[0]  # row 0, keeping lg is lf
    at = np.asarray(ks) - int(lo)
    # cells of the box each state keeps: its first ones, or its last ones
    out[0] = _grown_sums(lf, lg, np.clip(at + 1, 0, m), params, e, False)
    out[1, ::-1] = _grown_sums(lf, lg, np.clip(m - at, 0, m)[::-1], params, e, True)
    return out


# Cells per block of _grown_sums, and the longest dead stretch that a
# block's band spans.  A pass's arrays (a block's rows of lattice sums, the
# cell maxima of its changed cells, its states) peak at about 1.3 (B + 1) b n
# doubles for n cells in the box at lam = a/b with b = 2, and 2.1 at b = 3
# (test_memory_linear_in_row): 64 keeps that near 1.4 MB for 1000 cells at
# b = 2, and spreads a block's few dozen numpy calls over its cells (32 and
# 128 are slower on the bench rows).
_GROW_BLOCK = 64


def _grown_sums(lf, lg, counts, params: MeanParams, e: int, backward: bool) -> np.ndarray:
    """sum M*(s, s) over the box's cells of the states s made of the first
    counts[r] cells of the box (the last ones when backward), counts
    nondecreasing, from the lifts lf and lg of _scaled_lifts.

    Adding cell t adds the pairs (t, j) over the kept cells j, t included,
    and their mirrors (j, t), which have the same float sums when lg is lf
    and are then left out; a dead cell adds nothing.  The live cells form
    runs that only a dead stretch longer than _GROW_BLOCK splits, and the
    pass takes up to _GROW_BLOCK cells of a run at a time.  A block's band
    is the cells that its pairs reach, one interval per kept run and kind of
    pair, so a sparse row costs in proportion to its live cells.  Row 0 of
    the block's array is the lattice sums W on the band, row r the pairs of
    the block's r-th cell: per kept run and kind one add through a strided
    view, since row r's pairs start u*r columns on (u the coefficient of t
    in the lattice sum; back when backward), less the pairs with cells the
    state does not keep yet.  The max down the rows is W after the block, and only the cells
    where it beats row 0 can change: their cell maxima per row, by one
    strided max per offset, a running max down the rows and one unlift, are
    those of the kernel's W of each state.  A state asked for is the cells
    before the block with those written in, and the states are summed along
    axis 1, the same pairwise sum as _self_sup_integrals' reduction, so each
    sum is the kernel's bit for bit."""
    a, b = _lam_ab(params)
    m = len(lf)
    step, base = b - a, int(_reach(0, m, m, a, b)[1])
    live = np.flatnonzero(lf > -np.inf)
    runs = [(int(r[0]), int(r[-1]))
            for r in np.split(live, np.flatnonzero(np.diff(live) > _GROW_BLOCK) + 1)]
    # the blocks, (first cell's place in grown order, cells), up to the last state
    grown = [(m - 1 - q1, m - 1 - q0) for q0, q1 in runs[::-1]] if backward else runs
    last = counts[-1] if len(counts) else 0
    blocks = [(g, min(_GROW_BLOCK, g1 + 1 - g)) for g0, g1 in grown
              for g in range(g0, min(g1 + 1, last), _GROW_BLOCK)]
    W = np.full(b * m, -np.inf)
    cells = np.zeros(m)
    sums = np.zeros(len(counts))
    # the blocks' rows, and a row to spare for the strided views; the
    # states, in chunks of about 2^16 doubles, which stay in cache
    rows_buf = np.empty((_GROW_BLOCK + 2) * b * m + _GROW_BLOCK * b)
    chunk = max(1, (1 << 16) // m)
    states_buf = np.empty(min(chunk, _GROW_BLOCK + 1) * m)
    r1 = np.searchsorted(counts, 1)  # the states before any cell sum to 0
    for g0, n in blocks:
        lo, hi = (m - g0 - n, m - 1 - g0) if backward else (g0, g0 + n - 1)
        ts = np.arange(hi, lo - 1, -1) if backward else np.arange(lo, hi + 1)
        if backward:
            kept = [(max(q0, lo), q1) for q0, q1 in runs if q1 >= lo]
        else:
            kept = [(q0, min(q1, hi)) for q0, q1 in runs if q0 <= hi]
        # (u, v, q0, q1, mirror): the pairs of t with the kept run q0..q1
        # sit at u*t + v*j + base for j in the run
        segs = [(a, step, q0, q1, False) for q0, q1 in kept]
        if lg is not lf:
            segs += [(step, a, q0, q1, True) for q0, q1 in kept]
        # the band's cells, and its lattice sums: column i of the rows holds lat[i]
        in_band = np.zeros(m, dtype=bool)
        for u, v, q0, q1, _ in segs:
            in_band[(u * lo + v * q0 + base) // b:(u * hi + v * q1 + base) // b + 1] = True
        band = np.flatnonzero(in_band)
        lat = (b * band[:, None] + np.arange(b)).reshape(-1)
        L = len(lat)
        M = rows_buf[:(n + 1) * L].reshape(n + 1, L)
        M[0] = W[lat]
        M[1:] = -np.inf
        # the pairs with the block's own cells that come later in grown order
        later = np.triu(np.ones((n, n), dtype=bool), 1)[:, ::-1 if backward else 1]
        for u, v, q0, q1, mirror in segs:
            # the column of the row's first pair: x + u*r in row r, so in
            # rows of L + u entries (L - u backward) all start at x
            x = int(np.searchsorted(lat, u * int(ts[0]) + v * q0 + base))
            width = L - u if backward else L + u
            view = rows_buf[L + x:L + x + n * width].reshape(n, width)[:, :v * (q1 - q0) + 1:v]
            if mirror:  # after every (t, j), which it may meet
                pairs = lf[q0:q1 + 1] + lg[ts][:, None]
            else:  # no two pairs (t, j) share a lattice sum
                pairs = np.add(lf[ts][:, None], lg[q0:q1 + 1], out=view)
            if (q0 if backward else q1) == ts[-1]:
                (pairs[:, :n] if backward else pairs[:, -n:])[later] = -np.inf
            if mirror:
                np.maximum(view, pairs, out=view)
        # the band's W after the block, and the cells where it rose
        top = M[1:].max(axis=0)
        hot = np.flatnonzero((top > M[0]).reshape(-1, b).any(axis=1))
        H = M[:, (b * hot[:, None] + np.arange(b)).reshape(-1)]
        H = functools.reduce(np.maximum, (H[:, k::b] for k in range(b)))
        np.maximum.accumulate(H, axis=0, out=H)
        # the states asked for since the last block (those in a dead
        # stretch before this one are its row 0), and its last one
        r0, r1 = r1, np.searchsorted(counts, g0 + n + 1)
        asked = np.maximum(counts[r0:r1] - g0, 0)
        rows = np.flatnonzero(np.bincount(np.append(asked, n)))
        U = _unlift(H[rows], params.p, e)
        cols = band[hot]
        row_sums = np.empty(len(rows))
        for i in range(0, len(rows), chunk):
            S = states_buf[:len(U[i:i + chunk]) * m].reshape(-1, m)
            S[:] = cells
            S[:, cols] = U[i:i + chunk]
            row_sums[i:i + chunk] = S.sum(axis=1)
        W[lat] = np.maximum(M[0], top)
        cells[cols] = U[-1]
        sums[r0:r1] = row_sums[np.searchsorted(rows, asked)]
    sums[r1:] = cells.sum()  # in the dead stretch after the last block
    return sums


# The cost rule's times (ns): per merged slope and per piece-pair slot of
# _merge_pieces, per pair and per live cell of f of the per-cell kernel that
# _max_plus replaced (fitted on a 2-vCPU VM, numpy 2.4, rows of 50 to 4000
# cells with 1 to 12 pieces in batches of 1 to 512 rows)
_MERGE_NS, _SLOT_NS = 30.0, 9e4
_PAIR_NS, _CELL_NS = 2.0, 1e4


def _pieces_cheaper(r_f, live_f, r_g, live_g, box_g, sym: bool) -> np.ndarray:
    """The cost rule between _merge_pieces and _max_plus for each row of a
    batch: f with r_f pieces on live_f live cells, g likewise and with a
    support box of box_g cells.  The merge takes r_g * live_f + r_f * live_g
    slopes over r_f * r_g slots, the kernel live_f * box_g pairs over live_f
    cells of f, each half of that when sym.  The rows of a batch share each
    slot's and each cell's numpy calls, so a row pays 1/B of their cost.
    On exact pieces both paths give the same W, so the rule moves time
    only; on the shave's pieces, concave up to _SHAVE_SLACK, it moves the
    shave's sums by at most about 2^-46 of a row's largest lift as well.
    So the kernel's constants stay the per-cell kernel's, though the
    blocked _max_plus is faster: a re-fit would move which rows the shave
    merges, and so its sums at the slack's level."""
    B = len(r_f)
    half = 0.5 if sym else 1.0
    merge = half * (_MERGE_NS * (r_g * live_f + r_f * live_g) + _SLOT_NS * r_f * r_g / B)
    kernel = half * _PAIR_NS * live_f * box_g + _CELL_NS * live_f / B
    return merge < kernel


def _two_diff(x, y):
    """(hi, lo) with hi = fl(x - y) and hi + lo = x - y exactly (Knuth's
    TwoSum), for finite x and y whose difference does not overflow."""
    hi = x - y
    v = hi - x
    lo = hi - v
    np.subtract(x, lo, out=lo)
    v += y
    lo -= v
    return hi, lo


def _piece_bounds(live: np.ndarray, kink: np.ndarray):
    """(starts, ends) of the maximal runs of live cells, broken at each kink
    cell, which ends one run and starts the next."""
    edge = np.zeros((len(live), 1), dtype=bool)
    starts = live & ~np.hstack([edge, live[:, :-1]]) | kink
    ends = live & ~np.hstack([live[:, 1:], edge]) | kink
    return starts, ends


def _exact_pieces(lv: np.ndarray, slack: float = 0.0):
    """(live, starts, ends): the finite cells of rows of lifted values lv
    (B, n) and the first and the last cell of each piece on which lv is
    concave up to slack: runs of finite cells, broken at each cell k whose
    step down lv[k-1] - lv[k] exceeds the next one, lv[k] - lv[k+1], by
    more than slack * max(max|lv|, 1) of the row.  The steps are TwoDiff
    pairs (hi, lo), and a cell is a kink when fl(hi0 - hi1) exceeds the
    tolerance, or equals it with lo0 > lo1.  At slack 0 the pieces are
    concave read as real numbers: fl(hi0 - hi1) has the sign of hi0 - hi1,
    hi = fl(hi + lo) and rounding is monotone, so hi0 > hi1 implies
    hi0 + lo0 > hi1 + lo1, and equal hi leave lo."""
    live = np.isfinite(lv)
    # the -inf lifts of zero cells are masked, so that no step is invalid
    z = np.where(live, lv, 0.0)
    tol = slack * np.abs(z).max(axis=1, initial=1.0)[:, None]  # max(max|lv|, 1)
    hi, lo = _two_diff(z[:, :-1], z[:, 1:])
    del z
    rise = hi[:, :-1] - hi[:, 1:]
    rise = (rise > tol) | (rise == tol) & (lo[:, :-1] > lo[:, 1:])
    kink = np.zeros_like(live)
    kink[:, 1:-1] = live[:, :-2] & live[:, 1:-1] & live[:, 2:] & rise
    return (live,) + _piece_bounds(live, kink)


def _live_box(live: np.ndarray):
    """(live cells, cells of the box from the first to the last) per row."""
    count = live.sum(axis=1)
    first = np.argmax(live, axis=1)
    last = live.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    return count, np.where(count > 0, last - first + 1, 0)


def _merge_pieces(lf, lg, pf, pg, base: int, W, rows, distinct: bool):
    """Lattice sums of 1-D rows at lam = 1/2 from their pieces, into W
    (B, m) on the rows of the mask rows: pf = (starts, ends, counts) of the
    pieces of f (a kink cell is both) and pg of g; W[r, s] is the largest
    lf[r, i] + lg[r, j] with i + j + base = s over the pairs (i, j) in one
    piece of f and one piece of g (-inf if none).

    Every pair of live cells lies in some pair of pieces P x Q, since a
    kink cell belongs to both its pieces.  If lf is concave on P and lg on
    Q, the max-plus convolution of the two is a slope merge (Bussieck,
    Hassler, Woeginger and Zimmermann 1994; Lucet 1997): the pair at
    i + j = p0 + q0 + t takes, of the t largest slopes of P and Q together,
    those of P as steps in P and the rest in Q.  One stable lexsort of the
    exact steps down (hi, lo) per piece-pair slot, over the rows that have
    the slot in blocks, gives the pairs, P's first on ties.  On pieces that
    are exactly concave in real arithmetic (_exact_pieces at slack 0) the
    chosen pair has the largest real sum at its lattice sum, float addition is
    monotone, and tied steps give equal real sums, so W is _max_plus's W
    bit for bit.  The symmetric pass, when lg is lf (and pg is pf): a piece
    with itself takes the balanced pairs (k, k) and (k, k + 1), which fill W
    from base to base + 2 nf - 2, adjacent live cells share a piece, and
    only the slots P < Q are merged, so rows of one piece need no slot.
    distinct (in that pass) leaves out the pairs (i, i): the balanced pair
    at base + 2k is then (k - 1, k + 1), by concavity a piece's largest
    distinct pair there (-inf at the row's ends); and no slot P < Q picks a
    pair (k, k), for P and Q share at most the kink cell k, where P's last
    step down exceeds Q's first (_exact_pieces), so the merge takes Q's
    first step before P's last and reaches i = k only with j > k.  Costs
    O(r_g n_f + r_f n_g) per row of r pieces, against about n_f n_g pairs
    in the kernel.
    """
    B, nf = lf.shape
    ng = lg.shape[1]
    m = W.shape[1]
    if lg is lf:
        d = int(distinct)
        W[rows, :base + d] = -np.inf
        W[rows, base + 2 * nf - 1 - d:] = -np.inf
        np.add(lf[:, :nf - 2 * d], lf[:, 2 * d:],
               out=W[:, base + 2 * d:base + 2 * nf - 1 - 2 * d:2], where=rows[:, None])
        np.add(lf[:, :-1], lf[:, 1:], out=W[:, base + 1:base + 2 * nf - 2:2],
               where=rows[:, None])
    else:
        W[rows] = -np.inf
    rf, rg = pf[2] * rows, pg[2] * rows
    if lg is lf:
        slots = list(itertools.combinations(range(rf.max(initial=0)), 2))
    else:
        slots = list(itertools.product(range(rf.max(initial=0)), range(rg.max(initial=0))))
    if not slots:
        return
    # per side: the first and the last cell of every piece, and each row's
    # offset into them
    sides = [(np.nonzero(starts)[1], np.nonzero(ends)[1], np.cumsum(r) - r)
             for starts, ends, r in ((pf,) if lg is lf else (pf, pg))]
    (sf, ef, of), (sg, eg, og) = sides[0], sides[-1]
    flat_W = W.reshape(-1)
    for u, w in slots:
        rows_uw = np.flatnonzero((rf > u) & (rg > w))
        if len(rows_uw) == 0:
            continue
        span = (ef - sf)[of[rows_uw] + u] + (eg - sg)[og[rows_uw] + w] + 1
        # rows per block, so that each temporary holds about 2^17 entries
        step = max(1, (1 << 17) // int(span.max()))
        for R in np.split(rows_uw, np.arange(step, len(rows_uw), step)):
            p0, p1 = sf[of[R] + u], ef[of[R] + u]
            q0, q1 = sg[og[R] + w], eg[og[R] + w]
            his, los = [], []
            for first, cnt, lv, n in ((p0, p1 - p0, lf, nf), (q0, q1 - q0, lg, ng)):
                k = np.arange(cnt.max())
                at = R[:, None] * n + np.minimum(first[:, None] + k, n - 2)
                with np.errstate(invalid="ignore"):  # the padding may read -inf lifts
                    hi, lo = _two_diff(lv.reshape(-1)[at], lv.reshape(-1)[at + 1])
                his.append(np.where(k < cnt[:, None], hi, np.inf))
                los.append(lo)
            # stable: ties take P first; the +inf padding sorts last
            order = np.lexsort((np.hstack(los), np.hstack(his)))
            in_p = np.zeros((len(R), order.shape[1] + 1), dtype=np.intp)
            np.cumsum(order < his[0].shape[1], axis=1, out=in_p[:, 1:])
            t = np.arange(in_p.shape[1])
            # past the last real slope the clipped pair is still in P x Q
            i = np.minimum(p0[:, None] + in_p, p1[:, None])
            j = np.minimum(q0[:, None] + t - in_p, q1[:, None])
            v = lf.reshape(-1)[R[:, None] * nf + i] + lg.reshape(-1)[R[:, None] * ng + j]
            at = R[:, None] * m + i + j + base
            flat_W[at] = np.maximum(flat_W[at], v)


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
    reached s to its cell.  The crops are bounding boxes, so the corner
    pairs are reached, and the cells span _reach's box.
    """
    frac = _rational(lam)
    if not 0 <= frac <= 1:
        raise ValueError(f"lambda {lam} is outside [0, 1]")
    a, b = frac.numerator, frac.denominator
    off = _offset_cells(A, B)

    ca, cb = _crop(A.mask), _crop(B.mask)
    if ca is None or cb is None:
        empty = np.zeros((1,) * A.dim, dtype=bool)
        return LevelSet(A.dim, empty, A.origin, A.spacing)
    s0 = a * ca[1] + (b - a) * (cb[1] + off)
    k0, _, n = _reach(s0, np.array(ca[0].shape), np.array(cb[0].shape), a, b)
    counts = _overlap_counts(_dilate(ca[0], a), np.flip(_dilate(cb[0], b - a)))
    mask = np.zeros(tuple(int(x) for x in n), dtype=bool)
    mask[tuple((_snap(np.argwhere(counts > 0) + s0, b) - k0).T)] = True
    origin = tuple(o + int(l) * A.spacing for o, l in zip(A.origin, k0))
    return LevelSet(A.dim, mask, origin, A.spacing)


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
    bad = LevelSet(f.dim, suspect, origin, spacing)
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


def deficit(f: GridFunction, g: GridFunction, h: GridFunction | None,
            params: MeanParams) -> DeficitReport:
    """Deficit delta = mass(h)/mass(f) - 1, plus an exact hypothesis check.

    h=None is the canonical h = M*(f, g), which satisfies the hypothesis by
    construction: no check runs and the count is 0.  A given h is always
    checked: pointwise_violations counts the grid pairs (x, y) with
    M(f(x), g(y)) > h(lam x + (1-lam) y) + tol, tol = 1e-9 * max(h), in 1-D
    and 2-D alike.  The check compares h with M*(f, g) cell by cell and
    enumerates pairs only on the cells where M*(f, g) exceeds h + tol.
    """
    mf, mg = integral(f), integral(g)
    if mf <= 0:
        raise ZeroMassError("deficit needs mass(f) > 0")
    hh = sup_convolution(f, g, params) if h is None else h
    mh, tol = integral(hh), 1e-9 * max(hh.max(), 1e-300)
    count = 0 if h is None else _violations(f, g, h, params, tol, collect=False)[0]
    return DeficitReport(
        mass_f=mf,
        mass_g=mg,
        mass_h=mh,
        delta=mh / mf - 1.0,
        pointwise_violations=count,
        tol=tol,
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
