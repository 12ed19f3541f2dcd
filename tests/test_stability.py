import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bblab import (
    Cone2D,
    GridFunction,
    MeanParams,
    StabilityReport,
    certify_linear,
    certify_main,
    certify_symmetric_difference,
    cone_equipartition_2d,
    fiber_project,
    fiber_reduction_check,
    gen_dented,
    gen_sharpness_pair,
    gen_two_bump,
    integral,
    is_p_concave,
    l1_distance,
    p_concave_hull,
    shave,
    sup_convolution,
    translate,
)
from bblab import stability, supconv
from bblab.gridfn import common_grid, normalize
from bblab.means import _lift, _unlift
from bblab.stability import _best_shift, _shave_candidates_1d
from bblab.supconv import _SHAVE_SLACK, _bounding_box, _exact_pieces, _self_sup_integrals
from conftest import hat, indicator, logconcave_bump, random_blob_2d, random_staircase

HALF0 = MeanParams(Fraction(1, 2), 0.0)
HALF1 = MeanParams(Fraction(1, 2), 1.0)


def _dictionary(caps, halfspaces, planes, dim):
    """The shaving dictionary's form (caps, halfspaces, planes) of lists:
    a float array of levels, an (H, dim + 1) integer array and a
    (P, dim + 1) float array of linear forms."""
    return (np.array(caps, dtype=float), np.array(halfspaces, dtype=np.int64).reshape(-1, dim + 1),
            np.array(planes, dtype=float).reshape(-1, dim + 1))


def assert_same_dictionary(got, ref):
    assert len(got) == 3
    for block, ref_block in zip(got, ref):
        assert block.dtype.kind == ref_block.dtype.kind
        assert np.array_equal(block, ref_block)


def shave_candidates_1d_oracle(f: GridFunction, p: float, keep=lambda ai, bi: True):
    """Reference 1-D shaving dictionary: the pair loop over support cells.

    Level caps (descending), half-lines keeping i <= k, then i >= k (by
    position k), then the p-planes through each pair of lifted support
    points (the pairs (ai, bi) of support positions that keep admits, all
    of them by default), in pair order, keeping the first of equal
    (slope, offset) keys.
    """
    vals = f.values
    sup = np.flatnonzero(vals > 0)
    caps = [float(t) for t in np.unique(vals[sup])[:-1][::-1]]
    halfspaces = [(-1, int(k)) for k in sup] + [(1, -int(k)) for k in sup]
    w = _lift(vals, p)
    planes = []
    seen = set()
    for ai in range(len(sup)):
        for bi in range(ai + 1, len(sup)):
            if not keep(ai, bi):
                continue
            i, j = int(sup[ai]), int(sup[bi])
            m = (w[j] - w[i]) / (j - i)
            q = w[i] - m * i
            key = (m, q)
            if key not in seen:
                seen.add(key)
                planes.append(key)
    return _dictionary(caps, halfspaces, planes, 1)


def piece_ends_oracle(w_sup) -> set:
    """The support positions that start or end a piece on which the lifts
    w_sup, in support order, are concave in rational arithmetic: the first,
    the last, and each k whose step down w[k-1] - w[k] exceeds the next."""
    x = [Fraction(float(v)) for v in w_sup]
    n = len(x)
    return {0, n - 1} | {k for k in range(1, n - 1) if x[k - 1] - x[k] > x[k] - x[k + 1]}


def shave_candidates_1d_pairs_oracle(f: GridFunction, p: float):
    """The pair loop over the pairs of adjacent support cells and the pairs
    with a piece end (piece_ends_oracle)."""
    ends = piece_ends_oracle(_lift(f.values, p)[f.values > 0])
    return shave_candidates_1d_oracle(f, p, lambda ai, bi: bi == ai + 1 or {ai, bi} & ends)


def shave_candidates_2d_oracle(f: GridFunction, p: float):
    """Reference 2-D shaving dictionary, exhaustive and meant for at most
    48 support cells: level caps (descending), both half-planes of the line
    through each pair of support cells, then the p-plane through each
    triple of lifted support points that is not collinear, in triple
    order, keeping the first of equal coefficients."""
    vals = f.values
    sup = np.argwhere(vals > 0)
    caps = [float(t) for t in np.unique(vals[vals > 0])[:-1][::-1]]
    halfspaces = []
    for a in range(len(sup)):
        for b in range(a + 1, len(sup)):
            (a0, a1), (b0, b1) = sup[a].tolist(), sup[b].tolist()
            n0, n1 = b1 - a1, a0 - b0
            for s in (1, -1):
                halfspaces.append((s * n0, s * n1, -s * (n0 * a0 + n1 * a1)))
    w = _lift(vals, p)[tuple(sup.T)]
    planes = []
    seen = set()
    for a, b, c in itertools.combinations(range(len(sup)), 3):
        A, B, C = sup[a], sup[b], sup[c]
        if (B[0] - A[0]) * (C[1] - A[1]) == (B[1] - A[1]) * (C[0] - A[0]):
            continue
        coef = np.linalg.solve(np.array([B - A, C - A], dtype=float),
                               np.array([w[b] - w[a], w[c] - w[a]]))
        key = (float(coef[0]), float(coef[1]), float(w[a] - coef[0] * A[0] - coef[1] * A[1]))
        if key not in seen:
            seen.add(key)
            planes.append(key)
    return _dictionary(caps, halfspaces, planes, 2)


def dented_indicator(width, spacing):
    """The bench's dented indicators: [0, 1] with a centred hole."""
    return gen_dented(indicator(0.0, 1.0, spacing), [((1.0 - width) / 2.0, width, 1.0)])


def sharpness_k():
    """k = min(f, shifted g) of the sharpness pair (delta0 1e-3, spacing
    1e-3), as certify_main shaves it."""
    f, g, _ = gen_sharpness_pair(1e-3, 1e-3)
    vf, vg, origin, spacing = common_grid(f, translate(g, _best_shift(normalize(f), normalize(g))[0]))
    return GridFunction(1, origin, spacing, np.minimum(vf, vg))


def best_shift_oracle(f: GridFunction, g: GridFunction):
    """Reference best shift: the direct scan over the range, one numpy pass
    per shift, with a loop per dimension.

    Range: per axis, [lo_f - hi_g, hi_f - lo_g], the shifts at which the
    support boxes overlap.  Distances within 1e-11 (1 + mass) of the
    minimum tie, and ties break by smaller |v|^2, then lexicographic v.
    """
    vf, vg, _, h = common_grid(f, g)
    cv = h ** f.dim
    bf = _bounding_box(vf)
    bg = _bounding_box(vg)
    if bf is None or bg is None:
        return tuple([0] * f.dim), float(np.abs(vf - vg).sum()) * cv
    lo, hi = bf[0] - bg[1], bf[1] - bg[0]
    W = np.maximum(np.abs(lo), np.abs(hi))

    if f.dim == 1:
        n = vf.shape[0]
        W = int(W[0])
        pad = np.zeros(n + 2 * W)
        pad[W : W + n] = vf
        vf_mass = float(vf.sum())
        shifts = np.arange(lo[0], hi[0] + 1)
        dists = np.empty(len(shifts))
        for k, v in enumerate(shifts):
            seg = pad[W + v : W + v + n]
            dists[k] = (float(np.abs(seg - vg).sum()) + vf_mass - float(seg.sum())) * cv
        tie = dists.min() + 1e-11 * (1.0 + vf_mass * cv)
        cand = [int(v) for v in shifts[dists <= tie]]
        v = min(cand, key=lambda s: (s * s, s))
        return (v,), float(dists[v - lo[0]])

    n0, n1 = vf.shape
    W0, W1 = int(W[0]), int(W[1])
    pad = np.zeros((n0 + 2 * W0, n1 + 2 * W1))
    pad[W0 : W0 + n0, W1 : W1 + n1] = vf
    vf_mass = float(vf.sum())
    dists = {}
    for v0 in range(lo[0], hi[0] + 1):
        for v1 in range(lo[1], hi[1] + 1):
            seg = pad[W0 + v0 : W0 + v0 + n0, W1 + v1 : W1 + v1 + n1]
            dists[(v0, v1)] = (
                float(np.abs(seg - vg).sum()) + vf_mass - float(seg.sum())
            ) * cv
    tie = min(dists.values()) + 1e-11 * (1.0 + vf_mass * cv)
    cand = [v for v, d in dists.items() if d <= tie]
    v = min(cand, key=lambda s: (s[0] * s[0] + s[1] * s[1], s))
    return v, dists[v]


def direct_scan_oracle(fbox, gbox, *_):
    """Reference direct scan: sum |f - g(. - v)| at every shift of the
    support boxes that overlaps them, one numpy pass over the g box per
    shift; _direct_scan must give the same floats wherever it sums."""
    m = gbox.shape
    pad = np.zeros(tuple(n + 2 * (k - 1) for n, k in zip(fbox.shape, m)))
    pad[tuple(slice(k - 1, k - 1 + n) for n, k in zip(fbox.shape, m))] = fbox
    f_mass = float(fbox.sum())
    dists = np.empty(tuple(n + k - 1 for n, k in zip(fbox.shape, m)))
    for t in np.ndindex(dists.shape):
        seg = pad[tuple(slice(i, i + k) for i, k in zip(t, m))]
        dists[t] = float(np.abs(seg - gbox).sum()) + f_mass - float(seg.sum())
    return dists


def _staircase(rng, dim, levels=(0.0, 0.5, 1.0, 1.5)):
    """Random staircase on few tied levels, zero cells included."""
    shape = tuple(rng.integers(3, 9 if dim == 2 else 25, size=dim))
    vals = rng.choice(levels, size=shape)
    vals.flat[0] = 1.0  # support nonempty
    return GridFunction(dim, (0.0,) * dim, 0.1, vals)


def _box(shape, dim):
    """Indicator of a box, of unit mass."""
    return normalize(GridFunction(dim, (0.0,) * dim, 0.1, np.ones(shape)))


def _bump(dim, n, sharp, center=0.13):
    """Smooth bump off the grid's symmetry, so its values are distinct."""
    u = (np.arange(n) + 0.5) / n * 2.0 - 1.0 - center
    r2 = sum(x ** 2 for x in np.meshgrid(*[u * (1.0 + 0.3 * d) for d in range(dim)],
                                          indexing="ij"))
    return GridFunction(dim, (0.0,) * dim, 0.1, np.exp(-sharp * r2))


def best_shift_corpus(kind, dim, rng):
    """(f, g) pairs of unit mass for the best-shift oracle test."""
    if kind == "staircases":
        return [(normalize(_staircase(rng, dim)), normalize(_staircase(rng, dim)))
                for _ in range(12)]
    if kind == "indicators":  # unequal lengths: plateau ties, as in the sharpness pair
        sizes = [(30, 25), (7, 12), (40, 41)] if dim == 1 else [((3, 4), (5, 2)), ((6, 6), (4, 7))]
        return [(_box(np.atleast_1d(a), dim), _box(np.atleast_1d(b), dim)) for a, b in sizes]
    if kind == "equal":
        fs = [normalize(_staircase(rng, dim)) for _ in range(4)] + [normalize(_bump(dim, 9, 3.0))]
        return [(f, f) for f in fs]
    if kind == "translated":
        out = []
        for _ in range(4):
            f = normalize(_staircase(rng, dim))
            out.append((f, translate(f, rng.integers(-4, 5, size=dim))))
        return out
    if kind == "far":  # supports far apart on their common grid
        out = []
        for _ in range(3):
            f = normalize(_staircase(rng, dim))
            v = rng.integers(20, 60, size=dim) * rng.choice([-1, 1], size=dim)
            out.append((f, translate(f, v)))
            out.append((f, translate(normalize(_staircase(rng, dim)), v)))
        return out
    # smooth bumps: K near the cell count, so the rule takes the direct scan
    return [(normalize(_bump(dim, 40 if dim == 1 else 10, 3.0)),
             normalize(_bump(dim, 40 if dim == 1 else 10, 8.0, center=-0.21)))]


class TestBestShift:
    @pytest.mark.parametrize("path", ["rule", "layers", "direct"])
    @pytest.mark.parametrize("kind", ["staircases", "indicators", "equal", "translated", "far",
                                      "bumps"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_oracle(self, dim, kind, path, rng, monkeypatch):
        if path != "rule":
            monkeypatch.setattr(stability, "_layers_cheaper", lambda *_: path == "layers")
        for f, g in best_shift_corpus(kind, dim, rng):
            shift, dist = _best_shift(f, g)
            ref_shift, ref_dist = best_shift_oracle(f, g)
            assert shift == ref_shift
            # the oracle's zero distances carry summation noise (-1.4e-16 on
            # a 2-D translated copy), so the bound has a floor at 1e-15
            assert dist == pytest.approx(ref_dist, rel=1e-12, abs=1e-15)
            if kind == "equal":
                assert shift == (0,) * dim and dist == 0.0

    @pytest.mark.parametrize("path", ["layers", "direct"])
    def test_finds_far_translates(self, path, monkeypatch):
        # the range follows the supports, so copies far away on the common
        # grid are found at distance 0
        monkeypatch.setattr(stability, "_layers_cheaper", lambda *_: path == "layers")
        f = GridFunction(1, (0.0,), 0.1, np.array([1.0, 2.0, 1.0]))
        assert _best_shift(f, translate(f, [100])) == ((-100,), 0.0)
        block = GridFunction(2, (0.0, 0.0), 0.1, np.arange(1.0, 7.0).reshape(3, 2))
        assert _best_shift(block, translate(block, [40, -7])) == ((-40, 7), 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rule_takes_both_scans(self, dim, rng, monkeypatch):
        taken = []
        scans = {name: getattr(stability, name) for name in ("_layer_scan", "_direct_scan")}
        for name, scan in scans.items():
            monkeypatch.setattr(stability, name,
                                lambda *a, name=name, scan=scan: taken.append(name) or scan(*a))
        for kind in ("indicators", "bumps"):
            taken.clear()
            for f, g in best_shift_corpus(kind, dim, rng):
                _best_shift(f, g)
            assert set(taken) == {"_layer_scan" if kind == "indicators" else "_direct_scan"}

    def test_scans_agree_within_rounding(self, monkeypatch):
        """On mass-normalized sharpness pairs the two scans give the same v
        and dists that differ by summation order only (up to 5.5e-15
        relative measured): one sum per shift against one per level."""
        for delta0 in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2):
            for spacing in (1e-3, 3e-4, 1e-4):
                f, g, _ = gen_sharpness_pair(delta0, spacing)
                fn, gn = normalize(f), normalize(g)
                got = []
                for layers in (True, False):
                    monkeypatch.setattr(stability, "_layers_cheaper", lambda *_: layers)
                    got.append(_best_shift(fn, gn))
                (v_layers, d_layers), (v_direct, d_direct) = got
                assert v_layers == v_direct
                assert d_layers == pytest.approx(d_direct, rel=1e-13, abs=0.0)

    def test_sharpness_pair_takes_layers(self, monkeypatch):
        f, g, _ = gen_sharpness_pair(1e-3, 2.5e-4)
        fn, gn = normalize(f), normalize(g)
        monkeypatch.setattr(stability, "_direct_scan", None)  # must not run
        shift, dist = _best_shift(fn, gn)
        ref_shift, ref_dist = best_shift_oracle(fn, gn)
        assert shift == ref_shift
        assert dist == pytest.approx(ref_dist, rel=1e-12)


def bound_corpus_pair(kind, dim, rng):
    """One (f, g) pair of the direct scan's bound test."""
    if kind == "stairs":  # exact ties between shifts
        return normalize(_staircase(rng, dim)), normalize(_staircase(rng, dim))
    if kind == "one-cell":
        shape = tuple(rng.integers(1, 6, size=dim))
        f, g = np.zeros(shape), np.zeros(shape)
        f[tuple(rng.integers(0, n) for n in shape)] = rng.uniform(0.1, 2.0)
        g[tuple(rng.integers(0, n) for n in shape)] = rng.uniform(0.1, 2.0)
        return (GridFunction(dim, (0.0,) * dim, 0.1, f), GridFunction(dim, (0.0,) * dim, 0.1, g))
    if kind == "disjoint":  # interleaved supports: every even shift overlaps nothing
        vals = _staircase(rng, dim, levels=(0.5, 1.0)).values
        parity = np.indices(vals.shape).sum(axis=0) % 2
        f, g = vals * (parity == 0), vals * (parity == 1)
        f.flat[0] = g.flat[1] = 1.0
        return (normalize(GridFunction(dim, (0.0,) * dim, 0.1, f)),
                normalize(GridFunction(dim, (0.0,) * dim, 0.1, g)))
    if kind == "masks":  # 0/1 values: the bound equals the sum up to rounding
        return tuple(normalize(_staircase(rng, dim, levels=(0.0, 1.0))) for _ in range(2))
    if kind == "bumps":
        n = int(rng.integers(5, 40 if dim == 1 else 14))
        return (normalize(_bump(dim, n, rng.uniform(1.0, 10.0), rng.uniform(-0.5, 0.5))),
                normalize(_bump(dim, n, rng.uniform(1.0, 10.0), rng.uniform(-0.5, 0.5))))
    f = normalize(_staircase(rng, dim))
    if kind == "equal":
        return f, f
    if kind == "translated":
        return f, translate(f, rng.integers(-4, 5, size=dim))
    # far: supports far apart on their common grid
    v = rng.integers(20, 60, size=dim) * rng.choice([-1, 1], size=dim)
    return f, translate(normalize(_staircase(rng, dim)), v)


class TestDirectScanBound:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]),
           kind=st.sampled_from(["stairs", "masks", "equal", "translated", "far", "one-cell",
                                 "disjoint", "bumps"]))
    def test_matches_oracle(self, seed, dim, kind):
        """The pruned scan gives the full scan's shift and distance bit for
        bit, and its sums wherever it sums."""
        f, g = bound_corpus_pair(kind, dim, np.random.default_rng(seed))
        scan, scans = stability._direct_scan, []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(stability, "_layers_cheaper", lambda *_: False)
            m.setattr(stability, "_direct_scan",
                      lambda *a: scans.append((a, scan(*a))) or scans[-1][1])
            got = _best_shift(f, g)
            m.setattr(stability, "_direct_scan", direct_scan_oracle)
            ref = _best_shift(f, g)
        assert got[0] == ref[0] and got[1] == ref[1]
        if kind == "equal":
            assert got == ((0,) * dim, 0.0)
        for (fbox, gbox, _), dists in scans:
            full = direct_scan_oracle(fbox, gbox)
            seen = np.isfinite(dists)
            assert seen.any() and np.array_equal(dists[seen], full[seen])

    def test_gaussian_100_sums_few_shifts(self, monkeypatch):
        """A 100x100 Gaussian pair (sigma 0.6, spacing 0.04, centres 0.3 and
        0.1 apart) sums fewer than 1 % of its 39 601 shifts."""
        x = (np.arange(100) + 0.5) * 0.04 - 2.0
        pair = [normalize(GridFunction(2, (-2.0, -2.0), 0.04, np.exp(
            -((x[:, None] - cx) ** 2 + (x[None, :] - cy) ** 2) / 0.72)))
            for cx, cy in ((0.0, 0.0), (0.3, 0.1))]
        scan, dists = stability._direct_scan, []
        monkeypatch.setattr(stability, "_direct_scan",
                            lambda *a: dists.append(scan(*a)) or dists[-1])
        _best_shift(*pair)
        assert dists[0].size == 39601
        assert np.isfinite(dists[0]).sum() < 396


class TestCertifySymdiff:
    def test_equal_inputs(self):
        f = hat(width=1.0, height=1.0, spacing=0.02)
        h = sup_convolution(f, f, HALF1)
        rep = certify_symmetric_difference(f, f, h, HALF1)
        assert rep.best_shift == (0,)
        assert rep.symdiff_distance == pytest.approx(0.0, abs=1e-12)
        assert rep.hypothesis_valid

    def test_pure_translation(self):
        f = hat(width=1.0, height=1.0, spacing=0.02)
        g = translate(f, [3])
        h = sup_convolution(f, g, HALF1)
        rep = certify_symmetric_difference(f, g, h, HALF1)
        assert rep.best_shift == (-3,)
        # shifting g back by the reported vector recovers f
        assert l1_distance(f, translate(g, rep.best_shift)) == pytest.approx(0.0, abs=1e-12)
        assert rep.symdiff_distance == pytest.approx(0.0, abs=1e-12)

    def test_argmin_exhaustive(self, rng):
        f = random_staircase(rng, zero_frac=0.0)
        g = random_staircase(rng, zero_frac=0.0)
        g = g.with_values(g.values * (integral(f) / integral(g)))
        h = sup_convolution(f, g, HALF0)
        rep = certify_symmetric_difference(f, g, h, HALF0)
        # no other shift in a generous window may beat the reported one
        from bblab.gridfn import normalize

        fn, gn = normalize(f), normalize(g)
        best = l1_distance(fn, translate(gn, rep.best_shift))
        for v in range(-60, 61):
            assert best <= l1_distance(fn, translate(gn, [v])) + 1e-12

    def test_translation_equivariance(self, rng):
        f = random_staircase(rng, zero_frac=0.0)
        g = random_staircase(rng, zero_frac=0.0)
        g = g.with_values(g.values * (integral(f) / integral(g)))
        h = sup_convolution(f, g, HALF0)
        rep = certify_symmetric_difference(f, g, h, HALF0)
        k = 7
        rep2 = certify_symmetric_difference(
            translate(f, [k]), translate(g, [k]), translate(h, [k]), HALF0
        )
        assert rep2.delta == pytest.approx(rep.delta, rel=1e-12)
        assert rep2.symdiff_distance == pytest.approx(rep.symdiff_distance, rel=1e-9)
        assert rep2.best_shift == rep.best_shift

    def test_violations_flagged_not_fatal(self):
        f = indicator(0.0, 1.0, 0.02)
        h = f.with_values(f.values * 0.98)  # undershoots the hypothesis
        rep = certify_symmetric_difference(f, f, h, HALF0)
        assert not rep.hypothesis_valid
        assert rep.violations > 0

    def test_validity_is_the_count(self):
        """hypothesis_valid is read off violations; it cannot be set apart."""
        assert not StabilityReport(delta=0.0, violations=3).hypothesis_valid
        assert StabilityReport(delta=0.0).hypothesis_valid
        with pytest.raises(TypeError):
            StabilityReport(delta=0.0, violations=3, hypothesis_valid=True)


class TestShave:
    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_p_concave_fixed(self, p):
        params = MeanParams(Fraction(1, 2), p)
        f = hat(width=2.0, height=1.0, spacing=0.05)
        fp, removed, obj = shave(f, params)
        # on a p-concave input only the discretization overshoot can pay,
        # and the shaving-safety bound caps the total at delta * mass / c
        over = integral(sup_convolution(f, f, params)) - integral(f)
        assert removed <= over / (0.1 * 0.5) + 1e-12
        assert l1_distance(fp, f) == pytest.approx(removed, abs=1e-12)

    def test_indicator_exactly_fixed(self):
        f = indicator(0.0, 1.0, 0.02)
        fp, removed, obj = shave(f, HALF0)
        assert removed == 0.0
        assert np.array_equal(fp.values, f.values)

    def test_two_bump_removes_far_bump(self):
        eps = 1e-6
        f = gen_two_bump(eps, 50.0, spacing=0.05)
        fp, removed, obj = shave(f, HALF0)
        assert removed == pytest.approx(eps, abs=1e-12)
        assert not fp.values[-1] > 0  # the far bump is gone
        assert fp.values[:20].min() > 0  # the unit block stays

    def test_steepest_ascent_on_p1_bump(self):
        """Every step sweeps the whole dictionary, so on the 40-cell
        log-concave bump at p = 1 the ascent ends above 0.0512."""
        f = logconcave_bump(spacing=0.05)
        params = MeanParams(Fraction(1, 2), 1.0)
        fp, removed, obj = shave(f, params)
        assert obj >= 0.0512
        delta = integral(sup_convolution(f, f, params)) / integral(f) - 1.0
        assert removed <= delta * integral(f) / (0.1 * 0.5) + 1e-12

    def test_hole_never_pays_at_large_c(self):
        # exhaustive scenario on 16 cells: with c above the removal exchange
        # rate, the dictionary leaves a dented indicator untouched
        vals = np.ones(16)
        vals[7:9] = 0.0
        f = GridFunction(1, (0.0,), 0.0625, vals)
        fp, removed, obj = shave(f, HALF0, c=0.75)
        assert removed == 0.0
        assert np.array_equal(fp.values, f.values)

    def test_removed_bounded_by_delta_over_c(self, rng):
        # 1-D at lam = 1/2 and 1/3, and 2-D blobs of 6 x 6 and 12 x 12 cells
        cases = [(random_staircase(rng), HALF0) for _ in range(10)]
        cases += [(random_staircase(rng), MeanParams(Fraction(1, 3), 0.0)) for _ in range(4)]
        cases += [(random_blob_2d(rng, n=n), MeanParams(Fraction(1, 2), 0.0, n=2)) for n in (6, 12)]
        for f, params in cases:
            h = sup_convolution(f, f, params)
            delta = integral(h) / integral(f) - 1.0
            for c in (0.05, 0.3, 0.75):
                fp, removed, obj = shave(f, params, c=c)
                assert removed <= delta * integral(f) / c + 1e-12

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_candidates_1d_match_oracle(self, p, rng):
        """The vectorized dictionary equals the pair loop over adjacent and
        piece-end pairs, order included, on staircases with exact ties (many
        equal planes) and random values."""
        inputs = [indicator(0.0, 1.0, 0.05), hat(width=1.0, spacing=0.05)]
        for k in range(40):
            f = random_staircase(rng, n_max=40, zero_frac=0.3)
            if k % 2:
                levels = rng.choice([0.5, 1.0, 1.5, 2.0], f.shape)
                f = f.with_values(np.where(f.values > 0, levels, 0.0))
            inputs.append(f)
        for f in inputs:
            assert_same_dictionary(_shave_candidates_1d(f, p),
                                   shave_candidates_1d_pairs_oracle(f, p))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([-0.25, 0.0, 0.5, 1.0]),
           kind=st.sampled_from(["random", "dented", "stairs", "bumps", "kinked"]))
    def test_candidates_1d_within_exhaustive(self, seed, p, kind):
        """Every plane of the dictionary is a plane of the exhaustive one,
        and it holds the plane of every adjacent pair and of every pair with
        a piece end, on random rows with zero gaps and on piece_rows' tied,
        holed and bump rows."""
        rng = np.random.default_rng(seed)
        if kind == "random":
            vals = rng.uniform(0.1, 2.0, 40) * (rng.random(40) > 0.2)
        else:
            vals = piece_rows(kind, p, rng, n=40, count=1)[0]
        f = GridFunction(1, (0.0,), 0.1, vals)
        planes = {tuple(r) for r in _shave_candidates_1d(f, p)[2]}
        assert planes <= {tuple(r) for r in shave_candidates_1d_oracle(f, p)[2]}
        assert {tuple(r) for r in shave_candidates_1d_pairs_oracle(f, p)[2]} <= planes

    def test_quality_against_oracle(self, rng):
        """The O(n r) dictionary against the exhaustive one: the same states
        on the bench's dented indicators, the two-bump, the sharpness k, a
        log-concave bump and a hat, and at least 0.99 of the oracle's
        objective on dented bumps and random staircases.  Planes through
        adjacent support points alone fall below 0.99 on these dented
        bumps."""
        same = [(dented_indicator(w, 0.002), HALF0, 0.75) for w in (0.01, 0.05, 0.1, 0.2)]
        same += [(dented_indicator(0.1, 0.001), HALF0, 0.75)]
        same += [(gen_two_bump(1e-6, 50.0, spacing=0.05), HALF0, None), (sharpness_k(), HALF0, None)]
        bumps = [gen_dented(logconcave_bump(spacing=0.04), [dent])
                 for dent in ((0.5, 0.3, 0.4), (1.4, 0.2, 0.3), (1.18, 0.26, 0.8))]
        other = []
        for lam in (Fraction(1, 2), Fraction(1, 3)):
            for p in (-0.25, 0.0, 1.0):
                params = MeanParams(lam, p)
                same += [(logconcave_bump(spacing=0.04), params, None),
                         (hat(width=1.0, spacing=0.02), params, None)]
                other += [(f, params, None) for f in bumps]
                other += [(random_staircase(rng, n_max=40), params, None) for _ in range(3)]
        for k, (f, params, c) in enumerate(same + other):
            fp, _, obj = shave(f, params, c)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(stability, "_shave_candidates_1d", shave_candidates_1d_oracle)
                ref_fp, _, ref_obj = shave(f, params, c)
            if k < len(same):
                assert np.array_equal(fp.values, ref_fp.values), (k, params)
            else:
                assert obj >= 0.99 * ref_obj, (k, params, obj, ref_obj)

    def test_candidates_1d_scale(self):
        """A 1000-cell log-concave bump, one concave piece: at most 3n
        planes, and certify_linear returns a finite ratio and a p-concave
        witness."""
        f = logconcave_bump(spacing=0.002)
        assert f.values.size == 1000
        assert len(_shave_candidates_1d(f, 0.0)[2]) <= 3 * 1000
        rep = certify_linear(f, HALF0)
        assert math.isfinite(rep.ratio_linear)
        assert bool(is_p_concave(rep.witness, 0.0, 1e-9))

    def test_piece_path_changes_nothing(self, rng, monkeypatch):
        """shave with the piece path equals shave with the objective on the
        kernel alone: same states, same removed mass and objective up to
        rounding."""
        def dented(width, spacing):
            base = indicator(0.0, 1.0, spacing)
            return gen_dented(base, [((1.0 - width) / 2.0, width, 1.0)])

        cases = [(dented(w, 0.002), 0.75) for w in (0.01, 0.05, 0.1, 0.2)]
        cases += [(dented(0.1, 0.001), 0.75), (dented(0.05, 0.002), None)]
        cases.append((gen_two_bump(1e-6, 50.0, spacing=0.05), None))
        cases += [(random_staircase(rng, n_max=40), None) for _ in range(20)]
        f, g, _ = gen_sharpness_pair(1e-3, 1e-3)
        fn, gn = normalize(f), normalize(g)
        vf, vg, origin, spacing = common_grid(f, translate(g, _best_shift(fn, gn)[0]))
        cases.append((GridFunction(1, origin, spacing, np.minimum(vf, vg)), None))
        for f, c in cases:
            fp, removed, obj = shave(f, HALF0, c)
            with monkeypatch.context() as m:
                m.setattr(supconv, "_pieces_cheaper", rule(False))
                ref_fp, ref_removed, ref_obj = shave(f, HALF0, c)
            assert np.array_equal(fp.values, ref_fp.values)
            assert removed == pytest.approx(ref_removed, rel=1e-14, abs=0.0)
            assert obj == pytest.approx(ref_obj, rel=1e-14, abs=0.0)

    def test_rejects_bad_c(self):
        f = indicator(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            shave(f, HALF0, c=1.5)


def _two_bump_2d():
    """A 3 x 3 unit block and, far from it, a 1 x 2 bump of height 1e-6."""
    vals = np.zeros((3, 12))
    vals[:, :3] = 1.0
    vals[1, 10:] = 1e-6
    return GridFunction(2, (0.0, 0.0), 0.1, vals)


class TestShave2D:
    def test_quality_against_oracle(self, rng):
        """The near-linear dictionary against the exhaustive one on inputs
        of at most 48 support cells: the same states on Gaussians and the
        two-bump, and at least 0.98 of the oracle's objective elsewhere."""
        same = [_gaussian_2d(n, 0.2, sigma=0.5) for n in (4, 5, 6)] + [_two_bump_2d()]
        other = [_gaussian_2d(4, 0.2, sigma=0.6)]
        other += [random_blob_2d(rng, n=n) for n in (5, 6)]
        other += [GridFunction(2, (0.0, 0.0), 0.1, rng.choice([0.0, 0.5, 1.0, 1.5], size=(5, 6)))
                  for _ in range(2)]
        for p in (-0.25, 0.0, 1.0):
            params = MeanParams(Fraction(1, 2), p, n=2)
            for k, f in enumerate(same + other):
                assert 0 < (f.values > 0).sum() <= 48
                fp, _, obj = shave(f, params)
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(stability, "_shave_candidates_2d", shave_candidates_2d_oracle)
                    ref_fp, _, ref_obj = shave(f, params)
                if k < len(same):
                    assert np.array_equal(fp.values, ref_fp.values), (p, k)
                else:
                    assert obj >= 0.98 * ref_obj, (p, k, obj, ref_obj)

    @pytest.mark.parametrize("n", [7, 12])
    def test_certify_main_above_48_cells(self, n):
        """The bench's 49-cell pair and a 144-cell pair, against h = M*."""
        params = MeanParams(Fraction(1, 2), 0.0, n=2)
        if n == 7:
            f, g = _gaussian_2d(7, 0.2, sigma=0.4), _gaussian_2d(7, 0.2, sigma=0.5)
        else:
            f, g = _gaussian_2d(12, 0.2, sigma=0.5), _gaussian_2d(12, 0.2, 0.7, (0.1, -0.2))
        rep = certify_main(f, g, sup_convolution(f, g, params), params)
        assert math.isfinite(rep.ratio_main)
        # the shave ran on k = min(f, shifted g) with the default c = lam / 10
        vf, vg, origin, spacing = common_grid(f, translate(g, rep.best_shift))
        k = GridFunction(2, origin, spacing, np.minimum(vf, vg))
        delta_k = integral(sup_convolution(k, k, params)) / integral(k) - 1.0
        assert rep.shave_removed <= delta_k * integral(k) / 0.05 + 1e-12
        assert bool(is_p_concave(rep.witness, 0.0, 1e-9))

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_two_bump_loses_far_bump(self, p):
        f = _two_bump_2d()
        fp, removed, _ = shave(f, MeanParams(Fraction(1, 2), p, n=2))
        kept = f.values.copy()
        kept[1, 10:] = 0.0
        assert np.array_equal(fp.values, kept)
        assert removed == pytest.approx(2e-6 * 0.01, abs=1e-15)

    @pytest.mark.parametrize("shape, p", [("gauss", -0.25), ("gauss", 0.0), ("bump", 0.5)])
    def test_equality_collapse(self, shape, p):
        """Criterion 4's bounds on 20 x 20 p-concave inputs at h = 0.15,
        against their own M*: delta <= 4h, main_distance <= 8h * mass.  c is
        0.75: at the default lam / 10 the shave strips most of the mass
        (delta is about 0.6 h, above c)."""
        n, h = 20, 0.15
        if shape == "gauss":
            f = _gaussian_2d(n, h)
        else:  # (1 - r^2)^2 on the inscribed disc, 1/2-concave
            x = (np.arange(n) + 0.5) * h - n * h / 2.0
            r2 = (x[:, None] ** 2 + x[None, :] ** 2) / (n * h / 2.0) ** 2
            f = GridFunction(2, (-n * h / 2.0,) * 2, h, np.maximum(1.0 - r2, 0.0) ** 2)
        params = MeanParams(Fraction(1, 2), p, n=2)
        rep = certify_main(f, f, sup_convolution(f, f, params), params, c=0.75)
        assert rep.delta <= 4 * h
        assert rep.main_distance <= 8 * h * integral(f)

    def test_dictionary_grows_near_linearly(self):
        """On a 20 x 20 Gaussian: two half-planes per line through a cell
        along (1, 0), (0, 1), (1, 1) and (1, -1) (the square's hull edges
        add no direction), and at most two p-planes per unit square, against
        2 C(400, 2) = 159600 half-planes in the pair dictionary."""
        caps, halfspaces, planes = stability._shave_candidates_2d(_gaussian_2d(20, 0.1), 0.0)
        assert len(caps) > 0 and len(planes) > 0
        assert halfspaces.shape == (2 * (20 + 20 + 39 + 39), 3)
        assert len(planes) <= 2 * 19 * 19


def _pconcave_profile(p, m):
    """Positive p-concave values on m cells: the lift is a concave parabola."""
    u = (np.arange(m) + 0.5) / m * 2.0 - 1.0
    if p > 0:
        return (1.0 - 0.9 * u ** 2) ** (1.0 / p)
    if p == 0:
        return np.exp(-3.0 * u ** 2)
    return (1.0 + 3.0 * u ** 2) ** (1.0 / p)


def piece_rows(kind, p, rng, n=48, count=25):
    """Rows of a few concave pieces (mostly 1 to 4) for the shave-objective
    oracle test.

    dented: unit indicators with 0 to 3 holes (constant lifts);
    stairs: 1 to 4 blocks on tied levels, zero cells between some;
    bumps: p-concave profiles separated by gaps of 1 to 3 zero cells;
    kinked: the max of 1 to 4 tents with dyadic heights and integer slopes,
    whose lifts are concave on each tent and kink where two tents cross.
    """
    rows = np.zeros((count, n))
    for row in rows:
        parts = int(rng.integers(1, 5))
        if kind == "dented":
            row[2:-2] = 1.0
            for c in rng.choice(np.arange(5, n - 8), size=parts - 1, replace=False):
                row[c:c + int(rng.integers(1, 4))] = 0.0
        elif kind == "stairs":
            cuts = np.sort(rng.choice(np.arange(3, n - 3), size=parts - 1, replace=False))
            for lo, hi in zip(np.r_[1, cuts], np.r_[cuts, n - 1]):
                row[lo:hi] = rng.choice([0.5, 1.0, 1.5])
                if rng.random() < 0.3:
                    row[lo] = 0.0
        elif kind == "bumps":
            at = 1
            for _ in range(parts):
                m = int(rng.integers(4, n // 4))
                row[at:at + m] = _pconcave_profile(p, m)[: n - at]
                at += m + int(rng.integers(1, 4))
                if at >= n - 4:
                    break
        else:
            k = np.arange(n)
            centers = np.sort(rng.choice(np.arange(4, n - 4), size=parts, replace=False))
            tents = [int(rng.integers(8, 32)) - int(rng.integers(1, 4)) * np.abs(k - c)
                     for c in centers]
            row[:] = np.maximum(np.max(tents, axis=0), 0) / 16.0
    return rows


def _piece_counts(rows, p):
    """Concave pieces per row, as _self_sup_integrals splits them."""
    lifts = supconv._scaled_lifts(rows, rows, MeanParams(Fraction(1, 2), p))[0]
    return _exact_pieces(lifts, _SHAVE_SLACK)[1].sum(axis=1)


def self_sup_max_plus(rows, params):
    """sum M*(g, g) over the cells of 1-D rows g at lam = 1/2, by _max_plus
    alone."""
    lf, _, e = supconv._scaled_lifts(rows, rows, params)
    W = np.full((len(rows), 2 * rows.shape[1]), -np.inf)
    supconv._max_plus(lf, lf, W, 1, 2, (1,), False)
    return _unlift(np.maximum(W[:, 0::2], W[:, 1::2]), params.p, e).sum(axis=1)


def rule(merge: bool):
    """A _pieces_cheaper that sends every row to the slope merge (True) or
    to the kernel (False)."""
    return lambda r, *_: np.full(len(r), merge)


def wiggled_rows(rng, p, count=10, n_max=60):
    """1-D rows whose lifts are affine or tent-shaped, raised at every k-th
    cell by r times the largest lift, r in [1e-12, 3e-10]: kinks far above
    rounding and below a slack of 1e-9, where a merge that took each row as
    one concave piece would miss M* by up to r."""
    rows = []
    for t in range(count):
        n = int(rng.integers(30, n_max + 1))
        u = np.linspace(-1.0, 1.0, n)
        shape = 0.5 * u if t % 2 else -np.abs(u - rng.uniform(-0.5, 0.5))
        lift = {0.0: shape, 1.0: 1.5 + 0.5 * shape}.get(p, -2.0 + 0.5 * shape)
        k = int(rng.integers(3, 9))
        lift[int(rng.integers(0, k))::k] += 10.0 ** rng.uniform(-12.0, -9.5) * np.abs(lift).max()
        rows.append(_unlift(lift, p))
    return rows


class TestShaveObjective:
    @pytest.mark.parametrize("kind", ["dented", "stairs", "bumps", "kinked"])
    @pytest.mark.parametrize("p", [-0.25, 0.0, 0.5, 1.0])
    def test_matches_kernel(self, p, kind, rng, monkeypatch):
        """Rows of one and of several pieces, on the slope merge, against
        the objective on the kernel."""
        params = MeanParams(Fraction(1, 2), p)
        rows = piece_rows(kind, p, rng)
        r = _piece_counts(rows, p)
        assert r.min() >= 1 and (r >= 2).sum() >= 5 and (r == 1).any()
        with monkeypatch.context() as m:
            m.setattr(supconv, "_pieces_cheaper", rule(True))
            ints = _self_sup_integrals(rows, params)
        monkeypatch.setattr(supconv, "_pieces_cheaper", rule(False))
        ref = _self_sup_integrals(rows, params)
        # constant lifts (indicators) and dyadic tents at p = 1 sum exactly
        if kind == "dented" or (kind == "kinked" and p == 1.0):
            assert np.array_equal(ints, ref)
        else:
            np.testing.assert_allclose(ints, ref, rtol=1e-13, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([-0.25, 0.0, 0.5, 1.0]),
           kind=st.sampled_from(["dented", "stairs", "bumps", "kinked", "random"]),
           cuts=st.integers(0, 3))
    def test_random_rows_match_max_plus(self, seed, p, kind, cuts):
        """Random rows, some cut by p-planes min(row, unlift(m i + q)) as
        the shave's dictionary cuts them (states that split into many exact
        pieces), on the slope merge against _max_plus."""
        rng = np.random.default_rng(seed)
        params = MeanParams(Fraction(1, 2), p)
        if kind == "random":
            rows = rng.uniform(0.1, 2.0, size=(8, 40)) * (rng.random((8, 40)) > 0.2)
        else:
            rows = piece_rows(kind, p, rng, n=40, count=8)
        k = np.arange(rows.shape[1])
        for _ in range(cuts):
            lifts = _lift(rows, p)
            for row, lift in zip(rows, lifts):
                sup = np.flatnonzero(row > 0)
                if len(sup) >= 2:
                    i, j = np.sort(rng.choice(sup, 2, replace=False))
                    m = (lift[j] - lift[i]) / (j - i)
                    row[:] = np.minimum(row, _unlift(m * (k - i) + lift[i], p))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(supconv, "_pieces_cheaper", rule(True))
            ints = _self_sup_integrals(rows, params)
        np.testing.assert_allclose(ints, self_sup_max_plus(rows, params), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_merge_misses_rounding_only(self, p, rng, monkeypatch):
        """On wiggled rows the merge's sums are the kernel's to 1e-12
        relative: the shave's pieces split at the wiggles."""
        params = MeanParams(Fraction(1, 2), p)
        for row in wiggled_rows(rng, p):
            with monkeypatch.context() as m:
                m.setattr(supconv, "_pieces_cheaper", rule(True))
                merged = _self_sup_integrals(row[None], params)[0]
            with monkeypatch.context() as m:
                m.setattr(supconv, "_pieces_cheaper", rule(False))
                ref = _self_sup_integrals(row[None], params)[0]
            assert merged == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_rule_moves_rounding_only(self, p, rng, monkeypatch):
        """Shaves of wiggled rows with the cost rule forced each way agree
        on removed and on the objective within 1e-11 of the mass.  (The
        accepted moves here gain about 1e-10 of the mass, at the threshold,
        so rounding alone can move removed by 1e-5 of itself.)"""
        params = MeanParams(Fraction(1, 2), p)
        for row in wiggled_rows(rng, p):
            f = GridFunction(1, (0.0,), 0.01, row)
            out = []
            for merge in (True, False):
                with monkeypatch.context() as m:
                    m.setattr(supconv, "_pieces_cheaper", rule(merge))
                    out.append(shave(f, params, 0.05)[1:])
            (removed, obj), (ref_removed, ref_obj) = out
            mass = integral(f)
            assert abs(removed - ref_removed) <= 1e-11 * mass
            assert abs(obj - ref_obj) <= 1e-11 * mass

    def test_rule_takes_both_paths(self, rng, monkeypatch):
        """With the shave's slack pieces, the cost rule sends a dented
        indicator of 1000 cells to the slope merge and a random 24-cell row
        of many pieces to the kernel."""
        calls = []
        for name in ("_merge_pieces", "_max_plus"):
            fn = getattr(supconv, name)
            monkeypatch.setattr(supconv, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        dented = np.ones((1, 1000))
        dented[0, 450:550] = 0.0
        ragged = rng.uniform(0.1, 2.0, size=(1, 24))
        for rows, path in ((dented, "_merge_pieces"), (ragged, "_max_plus")):
            assert _piece_counts(rows, 0.0)[0] >= 2
            calls.clear()
            n = rows.shape[1]
            supconv._lattice_sums(rows, rows, HALF0, (1,), (n,), slack=_SHAVE_SLACK)
            assert calls == [path]


def half_line_sup_integrals_oracle(cur, ks, params):
    """The full-row path: the half-line states, cur on i <= k for each k of
    ks, then cur on i >= k, materialized over the row, and their sums by
    _self_sup_integrals in one batch with cur, whose box and scale are
    cur's."""
    i = np.arange(len(cur))
    states = [np.where(i <= ks[:, None], cur, 0.0), np.where(i >= ks[:, None], cur, 0.0)]
    return _self_sup_integrals(np.vstack(states + [cur[None]]), params)[:-1].reshape(2, -1)


def half_line_row(rng, n):
    """A random row of n cells with zero gaps and leading zeros, on levels
    that tie (a staircase) or spread."""
    if rng.random() < 0.5:
        row = rng.choice([0.5, 1.0, 1.5], n)
    else:
        row = rng.uniform(0.1, 2.0, n)
    row[rng.random(n) < 0.3] = 0.0
    row[: int(rng.integers(0, 4))] = 0.0
    if not row.any():
        row[-1] = 1.0
    return row


class TestHalfLinePass:
    """supconv._half_line_sup_integrals, the one kernel pass over the 1-D
    half-lines of a full shave sweep."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([-0.25, 0.0, 0.5, 1.0]),
           lam=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]))
    def test_matches_kernel(self, seed, p, lam):
        """Bit for bit the kernel path on the materialized prefix and suffix
        states at cur's scale and box, with k also outside cur's box; and
        the masses they remove are cumulative sums of cur, 0 where a state
        keeps the support, within rounding of the materialized states'."""
        rng = np.random.default_rng(seed)
        params = MeanParams(lam, p)
        n = int(rng.integers(1, 48))
        cur = half_line_row(rng, n)
        ks = np.sort(rng.choice(np.arange(-3, n + 3), size=min(n + 6, 12), replace=False))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(supconv, "_pieces_cheaper", rule(False))
            ref = half_line_sup_integrals_oracle(cur, ks, params)
        assert np.array_equal(supconv._half_line_sup_integrals(cur, ks, params), ref)
        ones = np.ones_like(ks)
        halfspaces = np.vstack([np.column_stack([-ones, ks]), np.column_stack([ones, -ks])])
        dictionary = (np.empty(0), halfspaces, np.empty((0, 2)))
        states = np.minimum(cur, stability._materialize(dictionary, 0, 2 * len(ks), (n,), p))
        removed = stability._half_line_masses(cur, ks)
        kk = np.clip(ks, -1, n)
        oracle = np.stack([[cur[k + 1:][::-1].cumsum()[-1] if k + 1 < n else 0.0 for k in kk],
                           [cur[:k].cumsum()[-1] if k > 0 else 0.0 for k in kk]])
        assert np.array_equal(removed, oracle)
        sup = np.flatnonzero(cur > 0)
        assert np.all(removed[0, ks >= sup[-1]] == 0.0) and np.all(removed[1, ks <= sup[0]] == 0.0)
        total = cur.sum()
        assert np.allclose(removed.reshape(-1), total - states.sum(axis=1),
                           rtol=0.0, atol=n * 2.0 ** -52 * total)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3)])
    def test_one_support_cell(self, lam):
        """No half-line changes a one-cell state: shave returns it, and both
        half-lines at the cell keep all of M*(f, f)."""
        params = MeanParams(lam, 0.0)
        f = GridFunction(1, (0.0,), 0.1, np.array([0.0, 0.0, 0.7, 0.0]))
        fp, removed, obj = shave(f, params)
        assert np.array_equal(fp.values, f.values) and removed == 0.0 and obj == 0.0
        sums = supconv._half_line_sup_integrals(f.values, np.array([2]), params)
        assert np.array_equal(sums, np.full((2, 1), _self_sup_integrals(f.values[None], params)[0]))

    def test_support_shrank(self, monkeypatch):
        """After an accept, the dictionary's k lie outside cur's box: the two
        bump loses its far bump to a half-line, and the next full sweep
        passes k on both sides of what is left."""
        f = gen_two_bump(1e-6, 50.0, spacing=0.05)
        cur = shave(f, HALF0)[0].values
        sup = np.flatnonzero(cur > 0)
        ks = np.flatnonzero(f.values > 0)
        assert ks[-1] > sup[-1] and ks[0] == sup[0]
        sums = supconv._half_line_sup_integrals(cur, ks, HALF0)
        monkeypatch.setattr(supconv, "_pieces_cheaper", rule(False))
        whole = _self_sup_integrals(cur[None], HALF0)[0]
        assert np.all(sums[0, ks >= sup[-1]] == whole) and np.all(sums[1, ks > sup[-1]] == 0.0)
        assert np.array_equal(sums, half_line_sup_integrals_oracle(cur, ks, HALF0))

    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_dented(self, p, monkeypatch):
        """Zero cells inside the support: the prefixes that end in the hole
        are one state, and every sum is the kernel's."""
        cur = np.ones(60)
        cur[25:31] = 0.0
        params = MeanParams(Fraction(1, 2), p)
        ks = np.arange(60)
        sums = supconv._half_line_sup_integrals(cur, ks, params)
        assert np.all(sums[0, 24:31] == sums[0, 24]) and np.all(sums[1, 25:32] == sums[1, 31])
        monkeypatch.setattr(supconv, "_pieces_cheaper", rule(False))
        assert np.array_equal(sums, half_line_sup_integrals_oracle(cur, ks, params))

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_matches_kernel_across_blocks(self, lam, p, rng, monkeypatch):
        """Rows that span several blocks of B = _GROW_BLOCK cells: B - 1, B,
        B + 1 and 3B + 5 live cells among a few dead ones, and two-bump
        rows whose dead stretches are longer than a block (so that the pass
        splits its runs there) or exactly one block long (so that it does
        not).  Every k is a state, so some states end a block, and then
        the k up to the middle of the row, so that on the two-bump rows the
        last prefix ends in a dead stretch.  Bit for bit the kernel path on
        the materialized states."""
        B = supconv._GROW_BLOCK
        params = MeanParams(lam, p)

        def spread(live):
            """live positive cells, tied or spread, among live // 8 dead ones."""
            n = live + live // 8
            row = np.zeros(n)
            if rng.random() < 0.5:
                values = rng.choice([0.5, 1.0, 1.5], live)
            else:
                values = rng.uniform(0.1, 2.0, live)
            row[np.sort(rng.choice(n, live, replace=False))] = values
            return row

        def bumps(*parts):
            """Blocks of equal values (width, height), a dead stretch after each."""
            return np.concatenate([np.r_[np.full(w, h), np.zeros(gap)] for w, h, gap in parts])

        rows = [spread(live) for live in (B - 1, B, B + 1, 3 * B + 5)]
        rows += [bumps((B + 3, 1.0, B + 1), (B // 2, 1e-6, 0)),
                 bumps((10, 1.0, 2 * B + 5), (12, 0.5, B), (3, 1.0, B + 1), (B, 2.0, 0))]
        monkeypatch.setattr(supconv, "_pieces_cheaper", rule(False))
        for cur in rows:
            for ks in (np.arange(-1, len(cur) + 1), np.arange(-1, len(cur) // 2)):
                assert np.array_equal(supconv._half_line_sup_integrals(cur, ks, params),
                                      half_line_sup_integrals_oracle(cur, ks, params))

    def test_memory_linear_in_row(self):
        """On a 5000-cell row the pass's peak allocation stays within
        2 (B + 1) b n doubles, B = _GROW_BLOCK and lam = a/b (about 1.3 of
        them are used): linear in the row and far below one dense n x n
        block of doubles, so no quadratic temporary comes back unseen."""
        n, b = 5000, 2
        cur = np.exp(-np.linspace(-2.0, 2.0, n) ** 2)
        tracemalloc.start()
        try:
            supconv._half_line_sup_integrals(cur, np.arange(n), HALF0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 * (supconv._GROW_BLOCK + 1) * b * n * 8
        assert peak <= bound < n * n * 8 / 10

    def test_full_row_path_changes_nothing(self, rng, monkeypatch):
        """shave with the pass equals shave with the full-row path as its
        oracle: the same states, removed mass and objective, on the corpus
        of test_piece_path_changes_nothing (every linear-1d bench input)
        and on staircases at lam = 1/3; removed stays below delta mass / c."""
        def dented(width, spacing):
            base = indicator(0.0, 1.0, spacing)
            return gen_dented(base, [((1.0 - width) / 2.0, width, 1.0)])

        cases = [(dented(w, 0.002), 0.75, HALF0) for w in (0.01, 0.05, 0.1, 0.2)]
        cases += [(dented(0.1, 0.001), 0.75, HALF0), (dented(0.05, 0.002), None, HALF0)]
        cases.append((gen_two_bump(1e-6, 50.0, spacing=0.05), None, HALF0))
        cases += [(random_staircase(rng, n_max=40), None, HALF0) for _ in range(20)]
        f, g, _ = gen_sharpness_pair(1e-3, 1e-3)
        fn, gn = normalize(f), normalize(g)
        vf, vg, origin, spacing = common_grid(f, translate(g, _best_shift(fn, gn)[0]))
        cases.append((GridFunction(1, origin, spacing, np.minimum(vf, vg)), None, HALF0))
        third = MeanParams(Fraction(1, 3), 0.0)
        cases += [(random_staircase(rng, n_max=40), c, third) for c in (None, 0.75) * 5]
        for f, c, params in cases:
            fp, removed, obj = shave(f, params, c)
            with monkeypatch.context() as m:
                m.setattr(stability, "_half_line_sup_integrals", half_line_sup_integrals_oracle)
                ref_fp, ref_removed, ref_obj = shave(f, params, c)
            assert np.array_equal(fp.values, ref_fp.values)
            assert (removed, obj) == (ref_removed, ref_obj)
            delta = integral(sup_convolution(f, f, params)) / integral(f) - 1.0
            assert removed <= delta * integral(f) / (c or 0.1 * params.lam_float) + 1e-12


class TestUnits:
    """shave works on f / 2^e, so scaling the values or the spacing by a
    power of two scales its outputs exactly, and any other scale moves them
    by rounding only."""

    VALS = np.array([0.2, 0.5, 1.0, 0.3, 0.9, 1.0, 0.7, 0.1])

    @pytest.mark.parametrize("p", [2.0, 0.0, -0.25])
    def test_certify_linear(self, p):
        params = MeanParams(Fraction(1, 2), p)
        ref = certify_linear(GridFunction(1, (0.0,), 0.1, self.VALS), params)
        assert ref.shave_removed > 0 and ref.ratio_linear > 2.5
        for s, h in ((2.0 ** 40, 0.1), (2.0 ** -40, 0.1), (1.0, 0.1 * 2.0 ** -40)):
            rep = certify_linear(GridFunction(1, (0.0,), h, self.VALS * s), params)
            assert rep.ratio_linear == ref.ratio_linear
            assert rep.shave_removed == ref.shave_removed * s * (h / 0.1)
            assert np.array_equal(rep.witness.values, ref.witness.values * s)
        for s in (1e200, 1e-200, 1e-12):
            rep = certify_linear(GridFunction(1, (0.0,), 0.1, self.VALS * s), params)
            assert rep.ratio_linear == pytest.approx(ref.ratio_linear, rel=1e-9)
            assert rep.shave_removed == pytest.approx(ref.shave_removed * s, rel=1e-9)

    @pytest.mark.parametrize("p", [2.0, 0.0, -0.25])
    def test_shave_2d(self, p, rng):
        params = MeanParams(Fraction(1, 2), p, n=2)
        f = random_blob_2d(rng, n=6)
        ref_fp, ref_removed, ref_obj = shave(f, params)
        assert ref_removed > 0.5 * integral(f)
        for s, h in ((2.0 ** 40, 0.1), (2.0 ** -40, 0.1), (1.0, 0.1 * 2.0 ** -40)):
            fp, removed, obj = shave(GridFunction(2, (0.0, 0.0), h, f.values * s), params)
            unit = s * (h / 0.1) ** 2
            assert np.array_equal(fp.values, ref_fp.values * s)
            assert (removed, obj) == (ref_removed * unit, ref_obj * unit)
        for s in (1e200, 1e-200, 1e-12):
            fp, removed, obj = shave(f.with_values(f.values * s), params)
            np.testing.assert_allclose(fp.values / s, ref_fp.values, rtol=1e-9, atol=0.0)
            assert removed == pytest.approx(ref_removed * s, rel=1e-9)
            assert obj == pytest.approx(ref_obj * s, rel=1e-9)


class TestCertifyLinear:
    def test_p_concave_input(self):
        f = hat(width=2.0, height=1.0, spacing=0.01)
        rep = certify_linear(f, HALF1)
        assert rep.linear_gap <= 8 * f.spacing * integral(f)
        assert bool(is_p_concave(rep.witness, 1.0, 1e-9))

    def test_dented_indicator(self):
        h = 0.002
        base = indicator(0.0, 1.0, h)
        f = gen_dented(base, [(0.475, 0.05, 1.0)])
        rep = certify_linear(f, HALF0, c=0.75)
        assert rep.linear_gap == pytest.approx(0.05, abs=h + 1e-12)
        assert rep.ratio_linear <= 10.0
        assert rep.shave_removed == 0.0

    def test_two_bump_family(self):
        eps = 1e-6
        f = gen_two_bump(eps, 50.0, spacing=0.05)
        rep = certify_linear(f, HALF0)
        assert rep.ratio_linear <= 10.0
        assert rep.linear_gap == pytest.approx(eps, rel=0.2)
        # without shaving, the naive hull gap is enormous
        naive = p_concave_hull(f, 0.0).gap_mass
        assert naive > 10 * eps * 50.0

    def test_user_h_always_checked(self):
        """h = 1/2 on f's 20 cells falls short of M(1, 1) = 1 at every pair:
        certify_linear and certify_main both check it and flag all 400."""
        f = GridFunction(1, (0.0,), 0.05, np.ones(20))
        h = f.with_values(np.full(20, 0.5))
        for rep in (certify_linear(f, HALF0, h=h), certify_main(f, f, h, HALF0)):
            assert not rep.hypothesis_valid
            assert rep.violations == 400
        canonical = certify_linear(f, HALF0)
        assert canonical.hypothesis_valid and canonical.violations == 0

    def test_witness_is_p_concave(self, rng):
        for p in (-0.25, 0.0, 1.0):
            f = random_staircase(rng, n_min=8, n_max=14)
            rep = certify_linear(f, MeanParams(Fraction(1, 2), p))
            assert bool(is_p_concave(rep.witness, p, 1e-9))


class TestCertifyMain:
    @pytest.mark.parametrize("p", [-0.25, 0.0, 1.0])
    def test_equality_collapse(self, p):
        # the bump must be p-concave for the p under test (a log-concave bump
        # is an equality case only for p <= 0)
        from conftest import pconcave_bump

        params = MeanParams(Fraction(1, 2), p)
        for f in (
            indicator(0.0, 1.0, 0.005),
            hat(width=2.0, height=1.0, spacing=0.01),
            pconcave_bump(p, width=2.0, height=1.0, spacing=0.01),
        ):
            h = sup_convolution(f, f, params)
            rep = certify_main(f, f, h, params)
            assert rep.delta <= 4 * f.spacing
            assert rep.main_distance <= 8 * f.spacing * integral(f)

    def test_two_blocks_family(self, rng):
        # perturbed p-concave pair keeps a bounded sqrt-ratio
        f = hat(width=2.0, height=1.0, spacing=0.02)
        vals = f.values.copy()
        vals[10:15] *= 0.7
        g = f.with_values(vals * (integral(f) / (vals.sum() * f.spacing)))
        h = sup_convolution(f, g, HALF1)
        rep = certify_main(f, g, h, HALF1)
        assert rep.main_distance < math.inf
        assert rep.ratio_main < 60.0

    def test_sharpness_main_slope(self):
        # the combined distance inherits the square-root rate on the
        # extremal family (deltas away from the cell-quantization floor)
        from bblab import fit_loglog_slope, sweep

        rows = sweep(
            "sharpness",
            [1e-3, 2e-3, 4e-3, 1e-2],
            HALF0,
            spacing=1e-4,
            certificates="main",
        )
        slope, se = fit_loglog_slope(
            [r.delta for r in rows], [r.main_distance for r in rows]
        )
        assert 0.45 <= slope <= 0.55, (slope, se)


def clip_halfplane_oracle(px, py, cnt, nx, ny, off):
    """Sutherland-Hodgman with one scalar half-plane n.x >= off for all rows
    (the all-cells clip of `sector_masses_oracle`)."""
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


def poly_areas_oracle(px, py, cnt):
    """The shoelace one vertex at a time (the loop `_poly_areas` replaces)."""
    N, V = px.shape
    area = np.zeros(N)
    rows = np.arange(N)
    for i in range(V):
        valid = i < cnt
        nxt = np.where(i + 1 < cnt, i + 1, 0)
        term = px[rows, i] * py[rows, nxt] - px[rows, nxt] * py[rows, i]
        area += np.where(valid, term, 0.0)
    return 0.5 * np.abs(area)


def sector_masses_oracle(f: GridFunction, cone: Cone2D) -> tuple:
    """Sector masses by clipping every positive cell against both
    half-planes of each sector (the path `_sector_masses` replaces)."""
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
        cx, cy, cc = clip_halfplane_oracle(px, py, cnt0, *hp0)
        cx, cy, cc = clip_halfplane_oracle(cx, cy, cc, *hp1)
        areas = poly_areas_oracle(cx, cy, cc)
        masses.append(float((vals * areas).sum()))
    return tuple(masses)


def convex_polygons(rng, rows):
    """Convex 3- to 8-gons, counter-clockwise, padded to 8 columns with
    values the clip must ignore, and per row a half-plane (nx, ny, off):
    random, through a vertex (d = 0 there, as the clip computes d) or
    along an edge; a quarter of the rows are axis-aligned squares, cut
    through a corner as the cone's rays cut cells."""
    cnt = rng.integers(3, 9, size=rows)
    px, py = rng.normal(size=(2, rows, 8)) * 1e3
    normal = rng.normal(size=(rows, 2))
    nx, ny, off = normal[:, 0], normal[:, 1], rng.normal(size=rows)
    for r in range(rows):
        n = cnt[r]
        if r % 4 == 0:
            n = cnt[r] = 4
            x0, y0, h = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.01, 1)
            px[r, :4], py[r, :4] = [x0, x0 + h, x0 + h, x0], [y0, y0, y0 + h, y0 + h]
        else:
            t = np.sort(rng.uniform(0, 2 * math.pi, n))
            c, rad = rng.normal(size=2) * 10.0 ** rng.integers(-3, 4), 10.0 ** rng.uniform(-3, 3)
            px[r, :n], py[r, :n] = c[0] + rad * np.cos(t), c[1] + rad * np.sin(t)
        k, how = int(rng.integers(n)), r % 3
        if how == 2:  # along the edge k -> k + 1: its inward normal
            j = (k + 1) % n
            nx[r], ny[r] = py[r, k] - py[r, j], px[r, j] - px[r, k]
        if how:
            off[r] = nx[r] * px[r, k] + ny[r] * py[r, k]
        else:
            off[r] = nx[r] * px[r, :n].mean() + ny[r] * py[r, :n].mean() + off[r]
    return px, py, cnt, nx, ny, off


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestClip:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 24))
    def test_matches_oracle(self, seed, rows):
        """_clip_halfplane gives the vertex-by-vertex clip's output bit for
        bit, padding included, once and twice over, and _poly_areas the
        per-vertex shoelace's areas."""
        px, py, cnt, nx, ny, off = convex_polygons(np.random.default_rng(seed), rows)
        got = stability._clip_halfplane(px, py, cnt, nx, ny, off)
        again = stability._clip_halfplane(*got, ny, -nx, off)
        for r in range(rows):
            ref = clip_halfplane_oracle(px[r:r + 1], py[r:r + 1], cnt[r:r + 1], nx[r], ny[r], off[r])
            twice = clip_halfplane_oracle(*ref, ny[r], -nx[r], off[r])
            for out, oracle in ((got, ref), (again, twice)):
                assert all(np.array_equal(_bits(a[r:r + 1]), _bits(b)) for a, b in zip(out, oracle))
        for out in (got, again):
            assert np.array_equal(_bits(stability._poly_areas(*out)), _bits(poly_areas_oracle(*out)))
        assert np.array_equal(_bits(stability._poly_areas(px, py, cnt)),
                              _bits(poly_areas_oracle(px, py, cnt)))


def _gaussian_2d(n, spacing, sigma=0.6, center=(0.0, 0.0)):
    half = n * spacing / 2.0
    x = (np.arange(n) + 0.5) * spacing - half
    r2 = (x[:, None] - center[0]) ** 2 + (x[None, :] - center[1]) ** 2
    return GridFunction(2, (-half, -half), spacing, np.exp(-r2 / (2.0 * sigma * sigma)))


def equipartition_corpus(rng):
    """2-D inputs for the sector-mass oracle: Gaussians, random blobs with
    holes, single cells, one-row and one-column supports."""
    fs = [_gaussian_2d(40, 0.1), _gaussian_2d(15, 0.25, center=(0.3, -0.2)),
          GridFunction(2, (-2.05, -2.05), 0.1, _gaussian_2d(41, 0.1).values)]
    for n in (8, 12, 20):
        blob = random_blob_2d(rng, n=n)
        fs.append(blob.with_values(blob.values * (rng.random((n, n)) > 0.2)))
    fs.append(GridFunction(2, (0.0, 0.0), 0.1, np.ones((1, 1))))
    fs.append(GridFunction(2, (-0.35, 1.7), 0.05, np.full((1, 1), 2.5)))
    fs.append(GridFunction(2, (-1.0, 0.3), 0.1, rng.uniform(0.5, 1.5, size=(1, 17))))
    fs.append(GridFunction(2, (0.3, -1.0), 0.1, rng.uniform(0.5, 1.5, size=(17, 1))))
    row = np.zeros((9, 9))
    row[4, 2:7] = 1.0
    fs.append(GridFunction(2, (0.0, 0.0), 1.0 / 3.0, row))
    return fs


def equipartition_apexes(f: GridFunction, rng, count=12):
    """Apexes at grid nodes, a few ulps off them, at cell centres and on
    cell edges (where corners land on the sector boundaries), at random,
    and far outside the support."""
    h = f.spacing
    shape = np.array(f.values.shape)
    out = []
    for kind in ("node", "ulp", "centre", "edge", "random"):
        for _ in range(count):
            i, j = rng.integers(-2, shape + 3)
            a = [f.origin[0] + i * h, f.origin[1] + j * h]
            if kind == "centre":
                a = [a[0] + h / 2, a[1] + h / 2]
            elif kind == "ulp":
                a = [v + int(rng.integers(-3, 4)) * np.spacing(v) for v in a]
            elif kind == "edge":
                a[int(rng.integers(2))] += float(rng.uniform(0, h))
            elif kind == "random":
                a = [f.origin[k] + rng.uniform(-2, shape[k] + 2) * h for k in range(2)]
            out.append((float(a[0]), float(a[1])))
    span = float(shape.max()) * h
    for t in np.linspace(0.0, 2 * math.pi, 9)[:-1]:
        for r in (3.0, 1e3):
            out.append((f.origin[0] + r * span * math.cos(t), f.origin[1] + r * span * math.sin(t)))
    return out


class TestEquipartition:
    def test_zero_function_has_zero_sector_masses(self):
        z = GridFunction(2, (-1.0, -1.0), 0.25, np.zeros((8, 8)))
        assert Cone2D.simplex((0.1, -0.2)).sector_masses(z) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("cone", ["simplex", "fiber_partition"])
    def test_sector_masses_match_oracle(self, cone, rng):
        make = getattr(Cone2D, cone)
        for f in equipartition_corpus(rng):
            for apex in equipartition_apexes(f, rng):
                c = make(apex)
                assert c.sector_masses(f) == sector_masses_oracle(f, c), (f.values.shape, apex)

    def test_cut_vertex_rounding_past_corner(self):
        # apex two ulps off a grid node: a vertex cut by the first clip
        # rounds past the node, so the all-cells clip leaves a sliver of
        # about 3.5e-18 in the third sector, though every corner of that
        # cell lies outside the sector's second half-plane
        f = GridFunction(2, (-0.34672742624407343, -0.09527844139877213), 0.7, np.ones((2, 2)))
        cone = Cone2D.fiber_partition((0.3532725737559265, -0.09527844139877215))
        m = cone.sector_masses(f)
        assert m == sector_masses_oracle(f, cone) and 0.0 < m[2] < 1e-17

    def test_equipartition_matches_oracle(self, monkeypatch):
        # criterion 10's blob recipe, solved with either mass function
        rng = np.random.default_rng(10)
        blobs = []
        for _ in range(20):
            blob = rng.uniform(0, 1, size=(20, 20))
            blob[blob < 0.45] = 0.0
            blob[10, 10] += 1.0
            blobs.append(GridFunction(2, (0.0, 0.0), 0.1, blob))
        fast = [cone_equipartition_2d(g) for g in blobs]
        for g, res in zip(blobs, fast):
            monkeypatch.setattr(stability, "_sector_masses",
                                lambda cells, cone, g=g: sector_masses_oracle(g, cone))
            assert cone_equipartition_2d(g) == res

    def test_clips_only_boundary_cells(self, monkeypatch):
        # at the apex, only cells a ray crosses are clipped: each of the 3
        # rays bounds 2 sectors and crosses at most about 41 of the 40x40
        # cells; clipping every cell would take 3 * 1600 rows
        f = _gaussian_2d(40, 0.1)
        apex = cone_equipartition_2d(f).apex
        rows = []
        clip = stability._clip_halfplane

        def spy(px, *args):
            rows.append(len(px))
            return clip(px, *args)

        monkeypatch.setattr(stability, "_clip_halfplane", spy)
        Cone2D.simplex(apex).sector_masses(f)
        assert len(rows) == 2 and rows[0] == rows[1]
        assert 0 < rows[0] <= 3 * 2 * 41, rows

    def test_each_apex_evaluated_once(self, monkeypatch):
        apexes = []
        masses = stability._sector_masses

        def spy(cells, cone):
            apexes.append(cone.apex)
            return masses(cells, cone)

        monkeypatch.setattr(stability, "_sector_masses", spy)
        cone_equipartition_2d(_gaussian_2d(40, 0.1))
        assert len(apexes) == len(set(apexes))

    def test_radial_bump_center(self):
        n = 41
        x = (np.arange(n) - n // 2) * 0.1
        vals = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2))
        f = GridFunction(2, (-2.05, -2.05), 0.1, vals)
        res = cone_equipartition_2d(f)
        assert res.converged
        assert abs(res.apex[0]) <= f.spacing
        assert abs(res.apex[1]) <= f.spacing
        for m in res.masses:
            assert m == pytest.approx(integral(f) / 3, rel=1e-5)

    def test_random_blobs_verified(self, rng):
        for _ in range(5):
            vals = rng.uniform(0, 1, size=(20, 20))
            vals[vals < 0.5] = 0.0
            if not vals.any():
                vals[10, 10] = 1.0
            f = GridFunction(2, (0.0, 0.0), 0.1, vals)
            res = cone_equipartition_2d(f)
            total = integral(f)
            assert res.converged, res
            m = Cone2D.simplex(res.apex).sector_masses(f)
            for mi in m:
                assert abs(mi - total / 3) <= 1e-6 * total

    def test_one_row_widens_inner_bracket(self):
        """One row of cells, x = 0.45: at the outer bracket's low end,
        apex (-0.5, -0.9), both lower sectors are empty, so the inner
        bracket widens before it brackets a root, and the solve converges."""
        vals = np.zeros((9, 9))
        vals[4, :] = 1.0
        f = GridFunction(2, (0.0, 0.0), 0.1, vals)
        res = cone_equipartition_2d(f)
        assert res.converged
        for m in res.masses:
            assert abs(m - integral(f) / 3) <= 1e-12

    def test_far_from_origin(self):
        """A 3x3 grid of ones at origin (1e12, 1e12), where the clip's
        absolute coordinates swamp a cell's area, is solved moved by whole
        cells to origin (-2, -2): masses 3 each, and that solve's apex moved
        back."""
        ones = np.ones((3, 3))
        res = cone_equipartition_2d(GridFunction(2, (1e12, 1e12), 1.0, ones))
        near = cone_equipartition_2d(GridFunction(2, (-2.0, -2.0), 1.0, ones))
        assert res.converged and res.masses == near.masses == (3.0, 3.0, 3.0)
        assert res.apex == tuple(x + (10 ** 12 + 2) for x in near.apex)

    def test_uniform_square_verified(self):
        # for a uniform square the equipartition apex exists but is NOT the
        # center: the three 120-degree window integrals of the square's
        # radial profile are unequal at the center for every orientation
        f = GridFunction(2, (0.0, 0.0), 0.1, np.ones((30, 30)))
        res = cone_equipartition_2d(f)
        assert res.converged
        total = integral(f)
        for m in Cone2D.simplex(res.apex).sector_masses(f):
            assert abs(m - total / 3) <= 1e-6 * total

    def test_sectors_tile_plane(self, rng):
        cone = Cone2D.simplex((0.3, -0.2))
        pts = rng.uniform(-3, 3, size=(200, 2))
        for q in pts:
            hits = 0
            for hp0, hp1 in cone.sector_halfplanes():
                in0 = hp0[0] * q[0] + hp0[1] * q[1] >= hp0[2] - 1e-12
                in1 = hp1[0] * q[0] + hp1[1] * q[1] >= hp1[2] - 1e-12
                hits += in0 and in1
            assert hits >= 1

    def test_fiber_partition_matches_setdef(self, rng):
        cone = Cone2D.fiber_partition((0.0, 0.0))
        hps = cone.sector_halfplanes()

        def in_sector(i, q):
            (a, b, c), (d, e, g) = hps[i]
            return a * q[0] + b * q[1] >= c - 1e-12 and d * q[0] + e * q[1] >= g - 1e-12

        for q in rng.uniform(-2, 2, size=(300, 2)):
            x, y = q
            k2 = y >= max(0.0, -x)  # K2 from the set definition
            k3 = y <= min(0.0, x)
            k1 = x < 0 and abs(y) <= abs(x)
            if in_sector(1, q):
                assert k1 or math.isclose(abs(y), abs(x), abs_tol=1e-9) or abs(y) < 1e-9
            if k2:
                assert in_sector(0, q)
            if k3:
                assert in_sector(2, q)


class TestFiberProjection:
    def _cone_grid(self, n=20, spacing=0.1):
        """3-D wedge: fibers along axis 2 with length growing linearly in z."""
        vals = np.zeros((n, 5, n))
        for z in range(n):
            width = z + 1
            vals[z, :, :width] = 1.0
        return GridFunction(3, (0.0, 0.0, 0.0), spacing, vals)

    def test_integral_preserved(self):
        f = self._cone_grid()
        F = fiber_project(f, axis=2)
        assert F.dim == 2
        assert integral(F) == pytest.approx(integral(f), rel=1e-12)

    def test_fiber_values(self):
        f = self._cone_grid(n=10, spacing=0.5)
        F = fiber_project(f, axis=2)
        assert F.values[3, 0] == pytest.approx(4 * 0.5)  # 4 cells of length 0.5

    def test_oscillation_rejected(self):
        vals = np.zeros((3, 3, 3))
        vals[1, 1, 0] = 1.0
        vals[1, 1, 1] = 2.0
        f = GridFunction(3, (0.0, 0.0, 0.0), 0.1, vals)
        with pytest.raises(ValueError):
            fiber_project(f, axis=2)

    def test_zero_projects_to_zero(self):
        f = GridFunction(3, (0.0, 0.0, 0.0), 0.1, np.zeros((3, 3, 3)))
        F = fiber_project(f)
        assert not F.values.any()

    @pytest.mark.parametrize("p", [-0.2, 0.0, 0.5])
    def test_projected_hypothesis(self, p):
        # product structure: f, g constant on fibers; h the per-fiber
        # sup-convolution majorant; after projection the q-mean hypothesis
        # must hold with q = p / (1 + p)
        params = MeanParams(Fraction(1, 2), p, n=3)
        f3 = self._cone_grid(n=12, spacing=0.25)
        g3 = f3.with_values(f3.values * 0.8)
        F = fiber_project(f3, axis=2)
        G = fiber_project(g3, axis=2)
        from bblab import exponent_map

        q = exponent_map(p, 1)
        H = sup_convolution(F, G, MeanParams(Fraction(1, 2), q, n=2))
        assert fiber_reduction_check(F, G, H, params) == []
