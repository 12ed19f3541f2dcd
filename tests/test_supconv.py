import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bblab import (
    GridFunction,
    MeanParams,
    deficit,
    gen_sharpness_pair,
    integral,
    is_p_concave,
    level_set,
    minkowski_combination,
    normalize,
    p_mean_arr,
    sup_convolution,
    translate,
    verify_bbl_hypothesis,
)
from bblab import hull, supconv
from bblab.gridfn import _offset_cells
from bblab.supconv import _exact_pieces, _lattice_sums, _margin_covers, _overlap_counts, _snap
from conftest import hat, indicator, logconcave_bump, random_blob_2d, random_staircase

HALF = MeanParams(Fraction(1, 2), 0.0)
# a binary spacing: whole-cell offsets and lam-combinations of centers are
# exact rationals, so boundary ties snap the same way in the oracle
SP = 0.125


# --- independent oracle: pure-Python pair loop with exact rational snapping

def supconv_oracle(f, g, lam: Fraction, p: float):
    """Map output cell index (on f's lattice; a tuple in 2-D) -> sup of means.

    Brute force over all pairs, with means from p_mean_arr.  The
    combination point z = lam*x + (1-lam)*y is computed as an exact rational
    position and assigned, per axis, to the half-open cell [k*h, (k+1)*h)."""
    h = Fraction(f.spacing)
    of = [Fraction(o) for o in f.origin]
    og = [Fraction(o) for o in g.origin]
    out = {}
    for i in np.argwhere(f.values > 0):
        x = [o + (Fraction(int(a)) + Fraction(1, 2)) * h for o, a in zip(of, i)]
        for j in np.argwhere(g.values > 0):
            y = [o + (Fraction(int(a)) + Fraction(1, 2)) * h for o, a in zip(og, j)]
            z = [lam * xd + (1 - lam) * yd for xd, yd in zip(x, y)]
            k = tuple(math.floor((zd - o) / h) for zd, o in zip(z, of))
            k = k[0] if f.dim == 1 else k
            m = float(p_mean_arr(float(lam), p, f.values[tuple(i)], g.values[tuple(j)]))
            out[k] = max(out.get(k, 0.0), m)
    return out


def assert_matches_supconv_oracle(f, g, lam, p, n=1):
    """sup_convolution equals the oracle at rel 1e-12, support included."""
    out = sup_convolution(f, g, MeanParams(lam, p, n=n))
    ref = supconv_oracle(f, g, lam, p)
    k0 = np.round((np.array(out.origin) - np.array(f.origin)) / f.spacing).astype(int)
    for k, v in ref.items():
        assert out.values[tuple(np.atleast_1d(k) - k0)] == pytest.approx(v, rel=1e-12)
    got = {tuple(int(x) for x in c + k0) for c in np.argwhere(out.values > 0)}
    assert got == {tuple(np.atleast_1d(k).tolist()) for k in ref}


def spread_values(rng, shape, zero_frac=0.25):
    """Positive values spread over 10^-40 .. 10^40, with some zero cells."""
    vals = 10.0 ** rng.uniform(-40, 40, size=shape)
    vals[rng.random(shape) < zero_frac] = 0.0
    vals.flat[0] = 1.0
    return vals


def _pair_cells(f, g, h, params):
    """Every pair of positive cells of f and g: (f cells, g cells, means,
    cells of h's lattice that z = lam*x + (1-lam)*y snaps to, in h's grid)."""
    frac = params.lam_fraction
    a, b = frac.numerator, frac.denominator
    off_g = np.array(_offset_cells(f, g))
    off_h = np.array(_offset_cells(f, h))
    idx_f = np.argwhere(f.values > 0)
    idx_g = np.argwhere(g.values > 0)
    m = p_mean_arr(params.lam_float, params.p,
                   f.values[tuple(idx_f.T)][:, None], g.values[tuple(idx_g.T)][None, :])
    s = a * idx_f[:, None, :] + (b - a) * (idx_g + off_g)[None, :, :]
    k = _snap(s, b) - off_h
    inside = np.all((k >= 0) & (k < np.array(h.shape)), axis=-1)
    return idx_f, idx_g, m, k, inside


def violation_scan_oracle(f, g, h, params, tol):
    """Reference hypothesis check: every pair of positive cells of f and g.

    Counts (and lists, in (f index, g index) order) the pairs with
    M(f(x), g(y)) > h(z) + tol, where z = lam*x + (1-lam)*y is snapped onto
    h's lattice with the integer rule of sup_convolution; h is zero off its
    grid."""
    if not (f.values > 0).any() or not (g.values > 0).any():
        return 0, []
    idx_f, idx_g, m, k, inside = _pair_cells(f, g, h, params)
    hvals = np.zeros(m.shape)
    hvals[inside] = h.values[tuple(k[inside].T)]
    bad = m > hvals + tol

    def position(grid, idx):
        pos = tuple(grid.origin[d] + (idx[d] + 0.5) * grid.spacing for d in range(grid.dim))
        return pos[0] if grid.dim == 1 else pos

    found = [
        (position(f, idx_f[i]), position(g, idx_g[j]), float(m[i, j] - hvals[i, j]))
        for i, j in np.argwhere(bad)
    ]
    return int(bad.sum()), found


def near_tie_h(f, g, h, params):
    """h on h's grid plus one more cell per axis, so that every cell that
    receives a pair holds the largest float t with fl(t + tol) < the cell's
    largest pair mean.  The extra corner cell receives no pair and holds 4x
    the largest mean, which fixes max(h) and so tol = 1e-9 * max(h)."""
    h = h.with_values(np.pad(h.values, [(0, 1)] * h.dim))
    _, _, m, k, inside = _pair_cells(f, g, h, params)
    top = np.zeros(h.shape)
    np.maximum.at(top, tuple(k[inside].T), m[inside])
    sentinel = 4.0 * top.max()
    tol = 1e-9 * sentinel
    t = np.where(top > 0, top - tol, 0.0)
    while True:
        down = (top > 0) & (t + tol >= top)
        up = (top > 0) & (np.nextafter(t, np.inf) + tol < top)
        if not (down.any() or up.any()):
            break
        t = np.where(down, np.nextafter(t, -np.inf), np.where(up, np.nextafter(t, np.inf), t))
    t[(-1,) * h.dim] = sentinel
    return h.with_values(t)


def minkowski_oracle(A, B, lam: Fraction):
    """Cells of {lam*x + (1-lam)*y : x in A, y in B}, as index tuples on A's
    lattice: a pure-Python pair loop with exact rational positions, each
    assigned per axis to the half-open cell [k*h, (k+1)*h)."""
    h = Fraction(A.spacing)
    oa = [Fraction(o) for o in A.origin]
    ob = [Fraction(o) for o in B.origin]
    cells = set()
    for i in A.indices():
        x = [o + (Fraction(int(c)) + Fraction(1, 2)) * h for o, c in zip(oa, i)]
        for j in B.indices():
            y = [o + (Fraction(int(c)) + Fraction(1, 2)) * h for o, c in zip(ob, j)]
            cells.add(tuple(math.floor((lam * xd + (1 - lam) * yd - o) / h)
                            for xd, yd, o in zip(x, y, oa)))
    return cells


def minkowski_pair_oracle(A, B, lam: Fraction):
    """(mask, origin) of the combination from the |A| |B| array of lattice
    sums s = a*i + (b-a)*j, each snapped to its cell."""
    a, b = lam.numerator, lam.denominator
    ia = A.indices().astype(np.int64)
    ib = B.indices().astype(np.int64) + _offset_cells(A, B)
    k = _snap(a * ia[:, None, :] + (b - a) * ib[None, :, :], b).reshape(-1, A.dim)
    k_lo = k.min(axis=0)
    mask = np.zeros(tuple(k.max(axis=0) - k_lo + 1), dtype=bool)
    mask[tuple((k - k_lo).T)] = True
    return mask, tuple(o + int(l) * A.spacing for o, l in zip(A.origin, k_lo))


def overlap_counts_oracle(a, b):
    """out[m - 1 + v] = #{x : a[x] and b[x - v]} per axis (m = b.shape), by
    a loop over the shifts v."""
    shape = tuple(n + m - 1 for n, m in zip(a.shape, b.shape))
    out = np.zeros(shape, dtype=np.int64)
    for t in np.ndindex(shape):
        v = np.array(t) - np.array(b.shape) + 1
        lo = np.maximum(0, v)
        hi = np.minimum(a.shape, np.array(b.shape) + v)
        out[t] = (a[tuple(slice(l, u) for l, u in zip(lo, hi))]
                  & b[tuple(slice(l - w, u - w) for l, u, w in zip(lo, hi, v))]).sum()
    return out


class TestSupConvolution:
    def test_zero_input_gives_one_zero_cell(self, rng):
        """An all-zero f or g has no pairs: M* is one zero cell at f's origin."""
        for f in (random_staircase(rng, zero_frac=0.0), random_blob_2d(rng, n=6)):
            zero = f.with_values(np.zeros(f.shape))
            for a, b in ((zero, f), (f, zero), (zero, zero)):
                out = sup_convolution(a, b, HALF)
                assert out.shape == (1,) * f.dim and out.values.max() == 0.0
                assert out.origin == a.origin

    def test_indicator_same(self):
        f = indicator(0.0, 1.0, 0.1)
        out = sup_convolution(f, f, HALF)
        assert integral(out) == pytest.approx(1.0, rel=1e-12)
        assert out.shape == f.shape
        assert np.allclose(out.values, 1.0)

    def test_indicator_disjoint(self):
        f = indicator(0.0, 1.0, 0.1)
        g = indicator(2.0, 3.0, 0.1)
        out = sup_convolution(f, g, HALF)
        assert out.origin[0] == pytest.approx(1.0)
        assert out.shape[0] == 10
        assert np.allclose(out.values, 1.0)

    def test_sharpness_pair_below_h(self):
        f, g, h = gen_sharpness_pair(0.01, spacing=1e-3)
        out = sup_convolution(f, g, HALF)
        # the geometric mean of the two heights is exactly 1, the value of h
        # on its interval; only h's half-mass boundary cell may sit below
        assert (out.values <= 1.0 + 1e-9).all()
        vf, vh, _, sp = __import__("bblab").gridfn.common_grid(out, h)
        assert (vf[vh == 1.0] <= 1.0 + 1e-9).all()

    @pytest.mark.parametrize("p", [-0.4, -0.25, -1e-7, 0.0, 1e-9, 1e-4, 1.0, 2.0])
    def test_matches_oracle(self, p, rng):
        for trial in range(15):
            f = random_staircase(rng, n_max=12, spacing=SP)
            g = random_staircase(rng, n_max=12, origin=float(rng.integers(-3, 4)) * SP, spacing=SP)
            if trial >= 10:  # values spread over 10^+-40
                f = f.with_values(spread_values(rng, f.shape))
                g = g.with_values(spread_values(rng, g.shape))
            assert_matches_supconv_oracle(f, g, Fraction(1, 2), p)
        if p == 2.0:  # cells at 1e200: an unscaled lift overflows
            f = random_staircase(rng, n_max=12, spacing=SP)
            g = random_staircase(rng, n_max=12, spacing=SP)
            assert_matches_supconv_oracle(f.with_values(f.values * 1e200),
                                          g.with_values(g.values * 1e200), Fraction(1, 2), p)

    def test_matches_oracle_third(self, rng):
        for lam in (Fraction(1, 3), Fraction(2, 5), Fraction(3, 8)):
            for p in (-0.4, -1e-7, 1e-9, 1e-4, 0.5, 2.0):
                for trial in range(4):
                    f = random_staircase(rng, n_max=10, spacing=SP)
                    g = random_staircase(rng, n_max=10, origin=float(rng.integers(-3, 4)) * SP,
                                         spacing=SP)
                    if trial == 3:
                        f = f.with_values(spread_values(rng, f.shape))
                        g = g.with_values(spread_values(rng, g.shape))
                    assert_matches_supconv_oracle(f, g, lam, p)

    def test_matches_oracle_2d(self, rng):
        for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 8)):
            for p in (-0.4, -1e-7, 0.0, 1e-9, 1e-4, 2.0):
                for trial in range(3):
                    vals = rng.uniform(0, 1, size=(5, 4))
                    vals[vals < 0.4] = 0.0
                    vals[2, 2] = 0.7
                    if trial == 2:
                        vals = spread_values(rng, (4, 5))
                    f = GridFunction(2, (0.0, 0.0), SP, vals)
                    g = f if trial == 0 else GridFunction(
                        2, tuple(SP * rng.integers(-3, 4, size=2)), SP,
                        rng.uniform(0.1, 1, size=(3, 4)) * (1e200 if p == 2.0 else 1.0))
                    if g is not f and p == 2.0:
                        f = f.with_values(f.values * 1e200)
                    assert_matches_supconv_oracle(f, g, lam, p, n=2)

    def test_pointwise_domination(self, rng):
        for p in (-0.25, 0.0, 1.0):
            f = random_staircase(rng)
            out = sup_convolution(f, f, MeanParams(Fraction(1, 2), p))
            k0 = round((out.origin[0] - f.origin[0]) / f.spacing)
            for i, v in enumerate(f.values):
                j = i - k0
                if 0 <= j < out.shape[0]:
                    assert out.values[j] >= v - 1e-12
                else:
                    assert v == 0.0  # outside the combined support hull

    def test_monotone_in_inputs(self, rng):
        f = random_staircase(rng)
        g = random_staircase(rng)
        f2 = f.with_values(f.values * 1.3)
        g2 = g.with_values(g.values + 0.2 * (g.values > 0))
        a = sup_convolution(f, g, HALF)
        b = sup_convolution(f2, g2, HALF)
        assert np.all(a.values <= b.values + 1e-12)

    def test_monotone_in_p(self, rng):
        f = random_staircase(rng)
        g = random_staircase(rng)
        prev = None
        for p in (-0.4, 0.0, 0.7, 2.0):
            cur = sup_convolution(f, g, MeanParams(Fraction(1, 2), p))
            if prev is not None:
                assert np.all(prev.values <= cur.values + 1e-12)
            prev = cur

    def test_translation_covariance(self, rng):
        f = random_staircase(rng)
        g = random_staircase(rng)
        base = sup_convolution(f, g, HALF)
        shifted = sup_convolution(translate(f, [4]), translate(g, [2]), HALF)
        expect = translate(base, [3])  # (4 + 2) / 2
        assert shifted.origin == pytest.approx(expect.origin)
        assert np.array_equal(shifted.values, expect.values)

    def test_incommensurate_lambda_rejected(self):
        f = indicator(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            sup_convolution(f, f, MeanParams(1 / math.pi, 0.0))

    def test_incommensurate_lambda_rejected_by_minkowski(self):
        """minkowski_combination parses lambda as MeanParams does: 1/pi is
        rejected, and a float close to 1/3 is read as 1/3."""
        A = level_set(indicator(0.0, 1.0, 0.1), 0.0)
        with pytest.raises(ValueError, match="not commensurate"):
            minkowski_combination(A, A, 1 / math.pi)
        C, ref = minkowski_combination(A, A, 1 / 3), minkowski_combination(A, A, Fraction(1, 3))
        assert C.origin == ref.origin and np.array_equal(C.mask, ref.mask)
        with pytest.raises(ValueError, match="outside"):
            minkowski_combination(A, A, 1.5)


# exponents of the piece-path tests: 5e-324 is the smallest subnormal, on
# the Box-Cox branch of the lift
PIECE_PS = [-0.5, -0.25, 0.0, 5e-324, 0.5, 1.0, 2.0]


def piece_values(kind, p, n, rng):
    """n positive-or-zero values of a few concave pieces of the lift at p.

    bump: a p-concave bump (the lift is a concave parabola);
    flat: an indicator of a random height;
    hat: the min of two or three affine ramps (kinks in the values);
    dented: a bump or an indicator with one to three runs of zero cells.
    """
    u = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    height = float(rng.uniform(0.2, 3.0))
    if kind == "flat" or (kind == "dented" and rng.random() < 0.5):
        vals = np.full(n, height)
    elif kind == "hat":
        ramps = [1.0 + rng.uniform(-4, 4) * (u - rng.uniform(-1, 1))
                 for _ in range(rng.integers(2, 4))]
        vals = np.clip(np.min(ramps, axis=0), 0.0, None) * height
    elif p >= 1e-3:
        vals = height * (1.0 - 0.9 * u ** 2) ** (1.0 / p)
    elif p < 0:
        vals = height * (1.0 + 3.0 * u ** 2) ** (1.0 / p)
    else:
        vals = height * np.exp(-rng.uniform(0.5, 5.0) * u ** 2)
    if kind == "dented":
        for _ in range(rng.integers(1, 4)):
            at = int(rng.integers(0, n))
            vals[at:at + int(rng.integers(1, 4))] = 0.0
    if not (vals > 0).any():
        vals[n // 2] = height
    return vals


def both_paths(fn):
    """fn() with _lattice_sums on the slope merge, then on the kernel."""
    out = []
    with pytest.MonkeyPatch.context() as m:
        for merge in (True, False):
            m.setattr(supconv, "_pieces_cheaper",
                      lambda r, *_, merge=merge: np.full(len(r), merge))
            out.append(fn())
    return out


class TestPiecePath:
    """In 1-D at lam = 1/2 the slope merge of exactly concave pieces gives
    the kernel's lattice sums W bit for bit, so every M* does."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from(PIECE_PS),
           kinds=st.tuples(*[st.sampled_from(["bump", "flat", "hat", "dented"])] * 2),
           same=st.booleans())
    def test_matches_kernel(self, seed, p, kinds, same):
        rng = np.random.default_rng(seed)
        params = MeanParams(Fraction(1, 2), p)
        nf, ng = (int(n) for n in rng.integers(1, 40, size=2))
        f = GridFunction(1, (0.0,), SP, piece_values(kinds[0], p, nf, rng))
        g = f if same else GridFunction(1, (SP * int(rng.integers(-6, 7)),), SP,
                                        piece_values(kinds[1], p, ng, rng))
        fv, gv = f.values[None], g.values[None]
        shape = ((fv.shape[1] + gv.shape[1]) // 2 + 1,)
        (W1, e1), (W2, e2) = both_paths(lambda: _lattice_sums(fv, gv, params, (1,), shape))
        assert e1 == e2 and np.array_equal(W1, W2)
        h1, h2 = both_paths(lambda: sup_convolution(f, g, params))
        assert h1.origin == h2.origin and np.array_equal(h1.values, h2.values)

    def test_batch_of_rows(self, rng):
        """A batch mixing one-piece, dented and kinked rows, as the shave
        sends to _sup_cells."""
        for p in PIECE_PS:
            rows = np.array([piece_values(kind, p, 30, rng)
                             for kind in ("bump", "flat", "hat", "dented") * 4])
            params = MeanParams(Fraction(1, 2), p)
            (W1, _), (W2, _) = both_paths(
                lambda: _lattice_sums(rows, rows, params, (1,), (30,)))
            assert np.array_equal(W1, W2)

    def test_float_slope_tie(self):
        """Rows whose float steps tie while the real steps differ, at p = 1,
        where the lift is x / 2 exactly.  (2^-60, 1, 2) lifts to
        (2^-62, 1/4, 1/2): both float steps are 1/4, but the real first step
        is smaller, so the row is convex at its middle cell and splits
        there.  f = (2^-55, 1/2) and g = (2^-54, 1/2 + 2^-53) step by
        1/4 - 2^-56 and 1/4 + 2^-55, both 1/4 in float; the merge must step
        in g first, since the pair (1, 0) rounds to 1/4 and the pair (0, 1),
        the kernel's value at s = 1, to 1/4 + 2^-54."""
        params = MeanParams(Fraction(1, 2), 1.0)
        row = np.array([[2.0 ** -60, 1.0, 2.0]])
        lf = supconv._scaled_lifts(row, row, params)[0]
        assert lf[0, 1] - lf[0, 0] == lf[0, 2] - lf[0, 1] == 0.25
        assert _exact_pieces(lf)[1].sum() == 2
        f, g = np.array([[2.0 ** -55, 0.5]]), np.array([[2.0 ** -54, 0.5 + 2.0 ** -53]])
        lf, lg, _ = supconv._scaled_lifts(f, g, params)
        assert lf[0, 1] - lf[0, 0] == lg[0, 1] - lg[0, 0] == 0.25
        (W1, _), (W2, _) = both_paths(lambda: _lattice_sums(f, g, params, (0,), (2,)))
        assert np.array_equal(W1, W2) and W1[0, 1] == 0.25 + 2.0 ** -54
        for g in (row, np.array([[1.0, 2.0]]), np.array([[2.0 ** -60, 1.0]])):
            (W1, _), (W2, _) = both_paths(lambda: _lattice_sums(row, g, params, (1,), (4,)))
            assert np.array_equal(W1, W2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_symmetric_by_value(self, dim, rng, monkeypatch):
        """g with f's values takes the symmetric pass (half the pairs) as
        g = f does, with the same output bit for bit."""
        shape = (40,) if dim == 1 else (9, 7)
        f = GridFunction(dim, (0.0,) * dim, SP, rng.uniform(0.1, 2.0, size=shape))
        copy = GridFunction(dim, (0.0,) * dim, SP, f.values.copy())
        seen = []
        scaled_lifts = supconv._scaled_lifts

        def record(*a):
            lf, lg, e = scaled_lifts(*a)
            seen.append(lg is lf)
            return lf, lg, e
        monkeypatch.setattr(supconv, "_scaled_lifts", record)
        for p in (-0.25, 0.0, 1.0):
            params = MeanParams(Fraction(1, 2), p, n=dim)
            ref, got = sup_convolution(f, f, params), sup_convolution(f, copy, params)
            assert got.origin == ref.origin and np.array_equal(got.values, ref.values)
        assert seen == [True] * 6
        other = GridFunction(dim, (SP,) * dim, SP, f.values.copy())  # moved: still sym
        sup_convolution(f, other, MeanParams(Fraction(1, 2), 0.0, n=dim))
        sup_convolution(f, f, MeanParams(Fraction(1, 3), 0.0, n=dim))
        changed = f.values.copy()
        changed.flat[3] *= 1.5
        assert_matches_supconv_oracle(f, copy.with_values(changed), Fraction(1, 2), 0.0, n=dim)
        assert seen[6:] == [True, False, False]

    def test_callers_reach_kernels_symmetric(self, rng, monkeypatch):
        """At lam = 1/2 with g = f, every M* caller hands each kernel it runs
        one array for both lifts (lg is lf, the symmetric pass over half the
        pairs); at lam = 1/3 none does.  Losing the pass would double the
        kernels' work and change no output, so only this test sees it."""
        seen = []
        for name in ("_max_plus", "_merge_pieces", "_grown_sums"):
            fn = getattr(supconv, name)
            monkeypatch.setattr(supconv, name, lambda lf, lg, *a, fn=fn, name=name: (
                seen.append((name, lg is lf)) or fn(lf, lg, *a)))
        # one row for the slope merge and one for the kernel, in one batch
        rows = np.ones((2, 300))
        rows[0, 140:160] = 0.0
        rows[1] = rng.uniform(0.1, 2.0, 300)
        line = GridFunction(1, (0.0,), SP, rows[1])
        blob = random_blob_2d(rng, n=9)
        # per caller: its call, and the kernels it runs at lam = 1/2 and 1/3
        callers = [
            (lambda params: supconv._self_sup_integrals(rows, params),
             {"_merge_pieces", "_max_plus"}, {"_max_plus"}),
            (lambda params: supconv._half_line_sup_integrals(rows[1], np.arange(0, 300, 7), params),
             {"_grown_sums"}, {"_grown_sums"}),
            (lambda params: [sup_convolution(f, f, params) for f in (line, blob)],
             {"_max_plus"}, {"_max_plus"}),
            (lambda params: [hull._midpoint_means(v, params.p) for v in (rows[0], blob.values)],
             {"_merge_pieces", "_max_plus"}, None),  # lam = 1/2 only
        ]
        for run, *kernels in callers:
            for lam, names in zip((Fraction(1, 2), Fraction(1, 3)), kernels):
                if names is None:
                    continue
                seen.clear()
                run(MeanParams(lam, 0.0))
                assert {name for name, _ in seen} == names
                assert {same for _, same in seen} == {lam == Fraction(1, 2)}


def distinct_row(kind, n, rng):
    """n values for the distinct-pair test, with zero and isolated cells."""
    u = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    if kind == "random":
        vals = rng.uniform(0.1, 2.0, n)
    elif kind == "bump":
        vals = np.exp(-rng.uniform(0.5, 8.0) * (u - rng.uniform(-0.3, 0.3)) ** 2)
    elif kind == "stairs":
        vals = rng.choice([0.5, 1.0, 1.5], n)
    else:  # two bumps
        vals = (np.exp(-20.0 * (u - 0.45) ** 2)
                + rng.uniform(0.3, 2.0) * np.exp(-20.0 * (u + 0.4) ** 2))
    return vals * (rng.random(n) > 0.2)


class TestDistinctPieces:
    """sym and distinct (the 1-D midpoint test) on the slope merge gives the
    kernel's W bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([-0.25, 0.0, 0.5, 1.0]),
           kind=st.sampled_from(["random", "bump", "stairs", "two-bump"]),
           rows=st.integers(1, 3))
    def test_matches_kernel(self, seed, p, kind, rows):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        fv = np.array([distinct_row(kind, n, rng) for _ in range(rows)])
        params = MeanParams(Fraction(1, 2), p)
        (W1, e1), (W2, e2) = both_paths(
            lambda: _lattice_sums(fv, fv, params, (0,), (n,), distinct=True))
        assert e1 == e2 and np.array_equal(W1, W2)

    def test_midpoint_test_takes_merge(self, monkeypatch):
        """is_p_concave on a 5000-cell log-concave bump forms no kernel pair."""
        f = logconcave_bump(spacing=2.0 / 5000)
        monkeypatch.setattr(supconv, "_max_plus", None)  # must not run
        assert is_p_concave(f, 0.0).ok


def max_plus_oracle(lf, lg, W, a, b, base, distinct):
    """The per-cell max-plus kernel, into W in place: for each live cell i
    of f, one add of lf[i] to every lg[j] and one max into
    W[a*i + (b-a)*j + base] for all rows.  When lg is lf only j >= i on
    axis 0 is visited; distinct leaves out j = i."""
    step = b - a
    B, dim = len(lf), lf.ndim - 1
    buf = np.empty(lg.shape)
    ng = lg.shape[1:]
    live = np.isfinite(lf).reshape(B, -1).any(axis=0)
    for flat in np.flatnonzero(live):
        i = np.unravel_index(flat, lf.shape[1:])
        j0 = (int(i[0]) if lg is lf else 0,) + (0,) * (dim - 1)
        rows = (slice(None),) + tuple(slice(j, None) for j in j0)
        t = buf[rows]
        np.add(lf[(slice(None),) + i].reshape((B,) + (1,) * dim), lg[rows], out=t)
        if distinct:
            t[(slice(None), 0) + i[1:]] = -np.inf
        seg = W[(slice(None),) + tuple(
            slice(a * i[d] + step * j0[d] + base[d], a * i[d] + step * n + base[d], step)
            for d, n in enumerate(ng))]
        np.maximum(seg, t, out=seg)


def holey_lifts(rng, B, shape, hole_frac, dead_lines, gap):
    """Random lifts (B, *shape) with -inf holes, dead lines (2-D) and, in
    1-D, a dead stretch of gap cells."""
    lv = rng.normal(size=(B,) + shape)
    lv[rng.random(lv.shape) < hole_frac] = -np.inf
    if len(shape) == 2:
        lv[:, rng.random(shape[0]) < dead_lines] = -np.inf
    elif gap:
        at = int(rng.integers(0, max(1, shape[0] - gap)))
        lv[:, at:at + gap] = -np.inf
    return lv


class TestBlockedKernel:
    """_max_plus takes a line of f's cells in blocks and gives the per-cell
    kernel's W bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           lam=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]),
           B=st.sampled_from([1, 3, 60]), sym=st.booleans(), distinct=st.booleans(),
           cells=st.sampled_from([3, 64]))
    def test_matches_oracle(self, seed, dim, lam, B, sym, distinct, cells):
        rng = np.random.default_rng(seed)
        a, b = lam.numerator, lam.denominator
        sym = sym and 2 * a == b
        n_max = 10 if dim == 2 else 250
        nf = tuple(int(n) for n in rng.integers(1, n_max, size=dim))
        ng = nf if sym else tuple(int(n) for n in rng.integers(1, n_max, size=dim))
        gap = int(rng.integers(cells + 1, 2 * cells + 2)) if rng.random() < 0.5 else 0
        lf = holey_lifts(rng, B, nf, rng.uniform(0.0, 0.9), 0.3, gap)
        lg = lf if sym else holey_lifts(rng, B, ng, rng.uniform(0.0, 0.5), 0.2, 0)
        base = tuple(int(x) for x in rng.integers(0, b, size=dim))
        W = np.full((B,) + tuple(b * (f + g) for f, g in zip(nf, ng)), -np.inf)
        W[rng.random(W.shape) < 0.1] = 0.0  # the kernel maxes into W
        ref = W.copy()
        distinct = distinct and sym
        max_plus_oracle(lf, lg, ref, a, b, base, distinct)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(supconv, "_BLOCK_CELLS", cells)
            supconv._max_plus(lf, lg, W, a, b, base, distinct)
        assert np.array_equal(W, ref)

    def test_blocks_skip_dead_stretches(self, rng):
        """The blocks cover every live cell once, up to a block's cells at a
        time, and no cell of a dead stretch longer than a block: a 10^4-cell
        row with two 20-cell clusters 8000 cells apart takes two blocks."""
        row = np.zeros((1, 10 ** 4), dtype=bool)
        row[0, 1000:1020] = row[0, 9000:9020] = True
        got = list(supconv._max_plus_blocks(row, 1, 64))
        assert got == [(0, 0, 1000, 20), (0, 0, 9000, 20)]
        for step, size in ((1, 4), (2, 5), (3, 8), (1, 64)):
            live = rng.random((3, 300)) < rng.uniform(0.01, 0.2, size=(3, 1))
            live[:, 100:100 + 2 * size * step] = False
            covered = np.zeros_like(live, dtype=int)
            for line, c, q0, n in supconv._max_plus_blocks(live, step, size):
                assert 1 <= n <= size
                covered[line, c + step * q0:c + step * (q0 + n):step] += 1
            assert (covered[live] == 1).all() and covered.max(initial=0) <= 1
            for line in range(3):
                for c in range(step):
                    q = np.flatnonzero(live[line, c::step])
                    for q0, q1 in zip(q[:-1], q[1:]):
                        if q1 - q0 > size:  # a dead stretch longer than a block
                            assert not covered[line, c::step][q0 + 1:q1].any()

    @pytest.mark.parametrize("case", ["row-third", "pair40"])
    def test_memory_near_buffer(self, case):
        """The kernel's peak is its buffer of _BLOCK_DOUBLES doubles plus
        W-sized temporaries (a block's fold, g's padded rows in 2-D) and
        numpy's ufunc buffers (three operands of np.getbufsize() doubles),
        on a 10^4-cell row at lam = 1/3 and on the 40x40 pair at lam = 1/2."""
        if case == "row-third":
            (a, b), shape = (1, 3), (10 ** 4,)
            lf = np.log(1.0 + np.arange(10 ** 4))[None] / 3.0
            lg = lf * 2.0
        else:
            (a, b), shape = (1, 2), (40, 40)
            x = np.linspace(-1.0, 1.0, 40)
            lf = -(x[:, None] ** 2 + x[None, :] ** 2)[None]
            lg = lf - 0.1
        W = np.full((1,) + tuple(2 * b * n for n in shape), -np.inf)
        tracemalloc.start()
        try:
            supconv._max_plus(lf, lg, W, a, b, (0,) * len(shape), False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = 8 * (supconv._BLOCK_DOUBLES + supconv._BLOCK_CELLS * a)
        assert peak <= buffer + W.nbytes + 3 * 8 * np.getbufsize(), (peak, buffer, W.nbytes)

    def test_distinct_needs_symmetric_pass(self, rng):
        """distinct leaves out the pairs (i, i), which only the symmetric
        pass (lam = 1/2, g = f) defines; any other call raises."""
        f = rng.uniform(0.1, 2.0, size=(1, 12))
        g = f * 1.5
        with pytest.raises(ValueError, match="symmetric pass"):
            _lattice_sums(f, g, HALF, (0,), (12,), distinct=True)
        with pytest.raises(ValueError, match="symmetric pass"):
            _lattice_sums(f, f, MeanParams(Fraction(1, 3), 0.0), (0,), (12,), distinct=True)
        W, _ = _lattice_sums(f, f.copy(), HALF, (0,), (12,), distinct=True)
        assert np.isfinite(W).any()


class TestMinkowski:
    def test_empty_set_gives_empty(self, rng):
        for f in (indicator(0.0, 1.0, 0.1), random_blob_2d(rng, n=6)):
            A = level_set(f, 0.0)
            E = level_set(f, f.max())
            for X, Y in ((A, E), (E, A), (E, E)):
                assert minkowski_combination(X, Y, Fraction(1, 3)).cell_count == 0

    def test_same_interval(self):
        A = level_set(indicator(0.0, 1.0, 0.1), 0.0)
        C = minkowski_combination(A, A, Fraction(1, 2))
        assert C.measure == pytest.approx(A.measure)

    def test_disjoint_intervals(self):
        A = level_set(indicator(0.0, 1.0, 0.1), 0.0)
        B = level_set(indicator(2.0, 3.0, 0.1), 0.0)
        C = minkowski_combination(A, B, Fraction(1, 2))
        assert C.origin[0] == pytest.approx(1.0)
        assert C.measure == pytest.approx(1.0)

    def test_measure_lower_bound_and_oracle(self, rng):
        pairs = [(level_set(random_staircase(rng, n_max=14, zero_frac=0.5, spacing=SP), 0.0),
                  level_set(random_staircase(rng, n_max=14, zero_frac=0.5, spacing=SP,
                                             origin=SP * int(rng.integers(-5, 6))), 0.0))
                 for _ in range(40)]
        for _ in range(4):
            blob = random_blob_2d(rng, n=int(rng.integers(3, 7)), spacing=SP)
            other = random_blob_2d(rng, n=int(rng.integers(3, 7)), spacing=SP)
            pairs.append((level_set(blob, 0.5),
                          level_set(translate(other, rng.integers(-4, 5, size=2)), 0.5)))
        for lam in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 8)):
            for A, B in pairs:
                C = minkowski_combination(A, B, lam)
                ref = minkowski_oracle(A, B, lam)
                lo = np.min(list(ref), axis=0)
                assert C.origin == tuple(o + int(k) * A.spacing for o, k in zip(A.origin, lo))
                assert {tuple(lo + k) for k in C.indices()} == ref
                assert C.measure >= min(A.measure, B.measure) - 1e-12

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2, 5), Fraction(3, 4)])
    def test_matches_pair_path(self, lam):
        f = normalize(logconcave_bump(width=2.0, spacing=0.004, sharp=3.0))
        g = normalize(logconcave_bump(width=1.6, spacing=0.004, sharp=8.0, origin=0.3))
        x = (np.arange(40) + 0.5) / 20.0 - 1.0
        r2 = x[:, None] ** 2 + (x[None, :] - 0.2) ** 2
        wobble = (1.0 + 0.2 * np.sin(9 * x))[:, None]
        F = GridFunction(2, (0.0, 0.0), 0.1, np.exp(-3.0 * r2) * wobble)
        G = translate(F.with_values(np.exp(-5.0 * r2)), [3, -2])
        for u, v in [(f, g), (F, G)]:
            for t in (0.0, 0.3, 0.7):
                A, B = level_set(u, t * u.max()), level_set(v, t * v.max())
                C = minkowski_combination(A, B, lam)
                mask, origin = minkowski_pair_oracle(A, B, lam)
                assert np.array_equal(C.mask, mask)
                assert C.origin == origin

    def test_rejects_lambda_outside_unit_interval(self):
        A = level_set(indicator(0.0, 1.0, 0.1), 0.0)
        with pytest.raises(ValueError):
            minkowski_combination(A, A, Fraction(-1, 2))

    def test_indicator_law(self, rng):
        for _ in range(20):
            f = random_staircase(rng, zero_frac=0.5)
            g = random_staircase(rng, zero_frac=0.5)
            fi = f.with_values((f.values > 0).astype(float))
            gi = g.with_values((g.values > 0).astype(float))
            sc = sup_convolution(fi, gi, HALF)
            mk = minkowski_combination(level_set(fi, 0.0), level_set(gi, 0.0), Fraction(1, 2))
            k0 = round((sc.origin[0] - mk.origin[0]) / f.spacing)
            sc_cells = {k0 + int(i) for i in np.flatnonzero(sc.values > 0.5)}
            mk_cells = set(np.flatnonzero(mk.mask).tolist())
            assert sc_cells == mk_cells
            assert set(np.unique(sc.values)) <= {0.0, 1.0}


class TestOverlapCounts:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_brute_force(self, dim, rng, monkeypatch):
        ffts = []
        irfftn = np.fft.irfftn
        monkeypatch.setattr(np.fft, "irfftn", lambda *a: ffts.append(1) or irfftn(*a))
        for _ in range(20):  # small: the direct method
            a = rng.random(tuple(rng.integers(1, 5, size=dim))) < 0.5
            b = rng.random(tuple(rng.integers(1, 5, size=dim))) < 0.5
            assert np.array_equal(_overlap_counts(a, b), overlap_counts_oracle(a, b))
        assert not ffts
        # large enough for the FFT method
        shape_a, shape_b = ((1500,), (900,)) if dim == 1 else ((40, 36), (30, 33))
        a, b = rng.random(shape_a) < 0.6, rng.random(shape_b) < 0.4
        ref = overlap_counts_oracle(a, b)
        assert np.array_equal(_overlap_counts(a, b), ref)
        assert ffts
        # above the proven FFT size the direct method runs
        monkeypatch.setattr(supconv, "_FFT_MAX", 0)
        ffts.clear()
        assert np.array_equal(_overlap_counts(a, b), ref)
        assert not ffts


class TestDeficit:
    def test_equality_case_hat(self):
        f = hat(width=1.0, height=1.0, spacing=0.02)
        params = MeanParams(Fraction(1, 2), 1.0)
        h = sup_convolution(f, f, params)
        rep = deficit(f, f, h, params)
        supp = (f.values > 0).sum() * f.spacing
        assert 0.0 <= rep.delta <= 2 * f.spacing / supp
        assert rep.pointwise_violations == 0

    def test_sharpness_value(self):
        f, g, h = gen_sharpness_pair(0.01, spacing=1e-3)
        rep = deficit(f, g, h, HALF)
        assert rep.delta == pytest.approx((1.1 + 1 / 1.1) / 2 - 1, abs=2e-3)

    def test_scaled(self, rng):
        f = random_staircase(rng)
        h = f.with_values(1.05 * f.values)
        rep = deficit(f, f, h, MeanParams(Fraction(1, 2), 1.0))
        assert rep.delta == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_canonical_h_is_none(self, rng, monkeypatch, dim):
        """h=None is M*(f, g): the same delta and tol bit for bit, and a
        count of 0 from no check at all."""
        pairs = []
        for p in (-0.25, 0.0, 1.0):
            params = MeanParams(Fraction(1, 2), p, n=dim)
            for _ in range(3):
                if dim == 1:
                    f, g = random_staircase(rng), random_staircase(rng)
                else:
                    f, g = random_blob_2d(rng), random_blob_2d(rng)
                pairs.append((f, g, params, sup_convolution(f, g, params)))

        def boom(*args, **kwargs):
            raise AssertionError("the canonical h was checked")

        checked = [deficit(f, g, h, params) for f, g, params, h in pairs]
        monkeypatch.setattr(supconv, "_violations", boom)
        for (f, g, params, h), ref in zip(pairs, checked):
            rep = deficit(f, g, None, params)
            assert (rep.delta, rep.tol, rep.mass_h) == (ref.delta, ref.tol, ref.mass_h)
            assert rep.pointwise_violations == 0 and rep.hypothesis_ok
        with pytest.raises(AssertionError, match="was checked"):
            deficit(f, g, h, params)

    def test_zero_mass_rejected(self):
        z = GridFunction(1, (0.0,), 0.1, np.zeros(3))
        f = indicator(0.0, 1.0, 0.1)
        with pytest.raises(Exception):
            deficit(z, f, f, HALF)

    def test_discrete_bbl_direction(self, rng):
        # for the canonical h and equal masses the deficit is nonnegative
        from bblab import normalize

        for p in (-0.25, 0.0, 1.0):
            params = MeanParams(Fraction(1, 2), p)
            for _ in range(10):
                f = normalize(random_staircase(rng))
                g = normalize(random_staircase(rng))
                h = sup_convolution(f, g, params)
                rep = deficit(f, g, h, params)
                assert rep.pointwise_violations == 0
                assert rep.delta >= -1e-12

    def test_2d_exact_verification(self, rng):
        vals = rng.uniform(0.1, 1.0, size=(6, 6))
        f = GridFunction(2, (0.0, 0.0), 0.1, vals)
        g = GridFunction(2, (0.2, -0.1), 0.1, rng.uniform(0.1, 1.0, size=(5, 6)))
        params = MeanParams(Fraction(1, 2), 0.0, n=2)
        h = sup_convolution(f, f, params)
        assert deficit(f, f, h, params).pointwise_violations == 0
        # dent the peak of the canonical h: the pairs feeding it violate
        h = sup_convolution(f, g, params)
        node = np.unravel_index(int(np.argmax(h.values)), h.shape)
        dented = h.values.copy()
        dented[node] -= 1e-3
        h2 = h.with_values(dented)
        rep = deficit(f, g, h2, params)
        bad = verify_bbl_hypothesis(f, g, h2, params)
        count, ref = violation_scan_oracle(f, g, h2, params, rep.tol)
        assert bad and bad == ref
        assert rep.pointwise_violations == count == len(bad)
        for x, y, gap in bad:
            z = [Fraction(xi) / 2 + Fraction(yi) / 2 for xi, yi in zip(x, y)]
            k = tuple(math.floor((zd - Fraction(od)) / Fraction(h.spacing))
                      for zd, od in zip(z, h.origin))
            assert k == node
            assert gap > 0

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [-0.25, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                                     Fraction(3, 8)])
    def test_matches_pair_scan_oracle(self, lam, p, dim, rng, monkeypatch):
        """Counts and witness lists equal the exhaustive pair scan, for h
        canonical, jittered, a near-tie below canonical, zero, or (near_tie_h)
        just below every cell's largest pair mean, by less than the
        sup-convolution's rounding, with g and h on grids offset by whole
        cells (h may also be cropped).  The last five trials split the pair
        enumeration into batches of a few pairs."""
        import bblab.supconv as sc

        params = MeanParams(lam, p, n=dim)
        sp = 0.1
        for trial in range(10):
            monkeypatch.setattr(sc, "_PAIRS_PER_BATCH", 3 if trial >= 5 else 1 << 20)
            shape_f = tuple(int(n) for n in rng.integers(1, 9 if dim == 1 else 5, size=dim))
            shape_g = tuple(int(n) for n in rng.integers(1, 9 if dim == 1 else 5, size=dim))
            vf = rng.uniform(0.1, 2.0, size=shape_f) * (rng.random(shape_f) > 0.25)
            vg = rng.uniform(0.1, 2.0, size=shape_g) * (rng.random(shape_g) > 0.25)
            vf.flat[0] = vg.flat[-1] = 1.0  # nonempty supports
            f = GridFunction(dim, (0.0,) * dim, sp, vf)
            g = GridFunction(dim, tuple(sp * rng.integers(-4, 5, size=dim)), sp, vg)
            h = sup_convolution(f, g, params)
            mode = trial % 5
            if mode == 1:
                hv = h.values * rng.uniform(0.9, 1.1, size=h.shape)
            elif mode == 2:
                hv = h.values * (1.0 - 1e-12)
            elif mode == 3:
                hv = np.zeros(h.shape)
            else:
                hv = h.values
            # re-embed h: zero cells in front (origin moves back by whole
            # cells) and possibly one cell cropped at the back
            pad = rng.integers(0, 3, size=dim)
            hv = np.pad(hv, [(int(q), 0) for q in pad])
            crop = tuple(slice(0, n - int(rng.integers(0, 2)) if n > 1 else n) for n in hv.shape)
            origin = tuple(o - int(q) * sp for o, q in zip(h.origin, pad))
            h = GridFunction(dim, origin, sp, hv[crop])
            if mode == 4:
                h = near_tie_h(f, g, h, params)
            rep = deficit(f, g, h, params)
            count, ref = violation_scan_oracle(f, g, h, params, rep.tol)
            assert rep.pointwise_violations == count
            assert verify_bbl_hypothesis(f, g, h, params) == ref

    @pytest.mark.parametrize("case", ["sharpness-0.25", "sharpness0", "dented_bumps", "wide_span"])
    def test_piece_path_matches_pair_scan_oracle(self, case, monkeypatch):
        """1-D lam = 1/2 inputs whose M*(f, g) takes the slope merge: counts
        and witness lists equal the exhaustive pair scan.  Sharpness triples
        with nf + ng odd have the one corner violation; the bump pair's h is
        M*(f, g) dented on a few cells; the wide pair's values span more
        than the _MARGIN proof covers, so every cell is enumerated."""
        merges = []
        merge = supconv._merge_pieces
        monkeypatch.setattr(supconv, "_merge_pieces", lambda *a: merges.append(1) or merge(*a))
        triples = []
        if case.startswith("sharpness"):
            params = MeanParams(Fraction(1, 2), float(case[len("sharpness"):]))
            for d0 in np.geomspace(1e-3, 1e-1, 12):
                f, g, h = gen_sharpness_pair(float(d0), spacing=0.01)
                if (f.shape[0] + g.shape[0]) % 2:
                    triples.append((f, g, h, 1))
            assert len(triples) >= 3
        else:
            params = HALF
            sharp = 715.0 if case == "wide_span" else 3.0
            f = logconcave_bump(width=2.0, spacing=0.02, sharp=sharp)
            g = logconcave_bump(width=1.4, spacing=0.02, sharp=1.5 * sharp, origin=0.3)
            if case == "wide_span":
                assert not _margin_covers(np.concatenate([f.values, g.values]), 0.0)
            h = sup_convolution(f, g, params)
            dented = h.values.copy()
            dented[[5, 40, len(dented) // 2]] *= 1.0 - 1e-3
            triples.append((f, g, h.with_values(dented), None))
        for f, g, h, expect in triples:
            merges.clear()
            rep = deficit(f, g, h, params)
            count, ref = violation_scan_oracle(f, g, h, params, rep.tol)
            assert merges, "the hypothesis check took the kernel"
            assert rep.pointwise_violations == count == len(ref) > 0
            assert expect is None or count == expect
            assert verify_bbl_hypothesis(f, g, h, params) == ref


class TestVerifyHypothesis:
    def test_canonical_clean(self, rng):
        for p in (-0.25, 0.0, 1.0):
            params = MeanParams(Fraction(1, 2), p)
            f = random_staircase(rng)
            g = random_staircase(rng)
            h = sup_convolution(f, g, params)
            assert verify_bbl_hypothesis(f, g, h, params) == []

    def test_zero_h_all_pairs(self, rng):
        f = indicator(0.0, 0.3, 0.1)
        g = indicator(0.0, 0.3, 0.1)
        h = GridFunction(1, (0.0,), 0.1, np.zeros(3))
        bad = verify_bbl_hypothesis(f, g, h, HALF)
        assert len(bad) == 9
        # at p = 100 the lifts of 1e-4 and 2e-4 underflow to 0 and their
        # cell gets M* = 0; the values span too much for the filter's
        # margin, so every cell is checked pair by pair
        f = GridFunction(1, (0.0,), 0.1, np.array([1e-4, 0.0, 0.0, 0.0, 1.0]))
        g = GridFunction(1, (0.0,), 0.1, np.array([2e-4]))
        bad = verify_bbl_hypothesis(f, g, h, MeanParams(Fraction(1, 2), 100.0))
        assert len(bad) == 2

    def test_dent_flags_feeding_pairs(self, rng):
        f = random_staircase(rng, n_min=6, n_max=10, zero_frac=0.0)
        g = random_staircase(rng, n_min=6, n_max=10, zero_frac=0.0)
        params = MeanParams(Fraction(1, 2), 0.0)
        h = sup_convolution(f, g, params)
        node = int(np.argmax(h.values))
        dented = h.values.copy()
        dented[node] -= 1e-3
        h2 = h.with_values(dented)
        bad = verify_bbl_hypothesis(f, g, h2, params)
        assert bad, "a dented canonical h must violate"
        ref = supconv_oracle(f, g, Fraction(1, 2), 0.0)
        k0 = round((h.origin[0] - f.origin[0]) / f.spacing)
        # every reported pair must feed exactly the dented node
        hfrac = Fraction(f.spacing)
        for x, y, gap in bad:
            z = Fraction(x) / 2 + Fraction(y) / 2
            k = math.floor((z - Fraction(f.origin[0])) / hfrac)
            assert k == node + k0
            assert gap > 0
