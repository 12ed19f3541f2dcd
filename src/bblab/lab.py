"""Scenario generators, parameter sweeps, and log-log slope fits.

Generators snap interval endpoints to whole cells and then recompute
heights so the stated masses hold exactly on the grid; slope fits are
sensitive to mass mismatch at small deficits, so nothing is left to
rounding.  All generators are deterministic given their arguments.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .gridfn import GridFunction, integral
from .means import MeanParams
from .stability import certify_linear, certify_main, certify_symmetric_difference
from .supconv import _reach

__all__ = [
    "gen_sharpness_pair",
    "gen_dented",
    "gen_two_bump",
    "SweepRow",
    "sweep",
    "fit_loglog_slope",
]


def _cells(length: float, spacing: float) -> int:
    if not 0 < spacing < math.inf:
        raise ValueError("spacing must be positive and finite")
    if not math.isfinite(length / spacing):
        raise ValueError(f"length {length} at spacing {spacing} is not a finite cell count")
    return int(round(length / spacing))


def gen_sharpness_pair(delta0: float, spacing: float = 1e-4):
    """The extremal triple showing the sqrt(delta) rate is attained.

    With s = sqrt(delta0): f is the indicator of height 1/(1+s) on [0, 1+s],
    g of height 1+s on [0, 1/(1+s)], h the indicator of the midpoint
    combination of their supports.  Lengths snap to whole cells while the
    heights stay at their exact values, so M_{1/2,0}(f, g) = 1 holds with no
    slack and the masses agree with 1 (and each other) to within 2*spacing.
    h carries the exact mid-mass (Lf + Lg)/2 of the snapped supports: when
    nf + ng is odd its last cell holds 1/2, leaving a single extreme corner
    pair half a cell above h (reported by the verifier); the deficit would
    otherwise be quantized in whole cells, which at small delta0 distorts
    the scaling exponent the family exists to exhibit.
    """
    if not 0 < delta0 < math.inf:
        raise ValueError("delta0 must be positive and finite")
    s = math.sqrt(delta0)
    nf = _cells(1.0 + s, spacing)
    ng = _cells(1.0 / (1.0 + s), spacing)
    if min(nf, ng) < 10:
        raise ValueError("spacing too coarse: fewer than 10 cells in an interval")
    hf = 1.0 / (1.0 + s)
    hg = 1.0 + s
    f = GridFunction(1, (0.0,), spacing, np.full(nf, hf))
    g = GridFunction(1, (0.0,), spacing, np.full(ng, hg))
    # the cells of the midpoint combination of the supports
    hv = np.ones(_reach(0, nf, ng, 1, 2)[2])
    if (nf + ng) % 2:
        hv[-1] = 0.5
    h = GridFunction(1, (0.0,), spacing, hv)
    return f, g, h


def gen_dented(base: GridFunction, holes) -> GridFunction:
    """Remove dents from a p-concave base: holes are (position, width, depth)
    triples in position units; depth, positive and finite, is subtracted
    (floored at 0).  A hole must cover at least one cell."""
    if base.dim != 1:
        raise ValueError("gen_dented is 1-D")
    vals = base.values.copy()
    h = base.spacing
    used = []
    sup = np.flatnonzero(vals > 0)
    for pos, width, depth in holes:
        i0 = int(round((pos - base.origin[0]) / h))
        i1 = i0 + _cells(width, h)
        if i1 <= i0:
            raise ValueError(f"hole width {width} covers no cell")
        if not 0 < depth < math.inf:
            raise ValueError("hole depth must be positive and finite")
        if i0 < sup.min() or i1 > sup.max() + 1:
            raise ValueError(f"hole [{pos}, {pos + width}] leaves the support")
        for a, b in used:
            if i0 < b and a < i1:
                raise ValueError("holes overlap")
        used.append((i0, i1))
        vals[i0:i1] = np.maximum(vals[i0:i1] - depth, 0.0)
    return base.with_values(vals)


def gen_two_bump(eps: float, v: float, spacing: float = 0.01) -> GridFunction:
    """Indicator block on [0,1] plus a far bump of height eps on [v, v+1]."""
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be nonnegative and finite")
    if not 2 < v < math.inf:
        raise ValueError("need 2 < v < inf")
    n1 = _cells(1.0, spacing)
    i0 = _cells(v, spacing)
    n = i0 + n1
    vals = np.zeros(n)
    vals[:n1] = 1.0
    if eps > 0:
        vals[i0:] = eps
    else:
        vals = vals[:n1]
    return GridFunction(1, (0.0,), spacing, vals)


@dataclass(frozen=True)
class SweepRow:
    scenario: str
    delta0: float
    delta: float
    symdiff_distance: float
    linear_gap: float
    main_distance: float
    ratio_sqrt: float
    ratio_linear: float
    ratio_main: float
    hypothesis_valid: bool
    seed: int
    runtime_ms: float

    CSV_HEADER = (
        "scenario,delta0,delta,symdiff_distance,linear_gap,main_distance,"
        "ratio_sqrt,ratio_linear,ratio_main,hypothesis_valid,seed,runtime_ms"
    )

    def csv(self) -> str:
        fields = [
            self.scenario,
            repr(self.delta0),
            repr(self.delta),
            repr(self.symdiff_distance),
            repr(self.linear_gap),
            repr(self.main_distance),
            repr(self.ratio_sqrt),
            repr(self.ratio_linear),
            repr(self.ratio_main),
            "1" if self.hypothesis_valid else "0",
            str(self.seed),
            f"{self.runtime_ms:.3f}",
        ]
        return ",".join(fields)


def _dented_scenario(w: float, spacing: float):
    n = _cells(1.0, spacing)
    base = GridFunction(1, (0.0,), spacing, np.ones(n))
    return gen_dented(base, [((1.0 - w) / 2.0, w, 1.0)])


def sweep(
    family: str,
    delta0_grid,
    params: MeanParams,
    spacing: float = 1e-4,
    certificates: str | None = None,
    c: float | None = None,
    seed: int = 0,
) -> list[SweepRow]:
    """Run a scenario family over a deficit grid; rows sorted by delta0.

    families: "sharpness" (delta0 = target deficit of the extremal pair,
    certificates "symdiff", the default, or "main") and "dented" (delta0 =
    hole width of a dented unit indicator, certificates "linear", the
    default).  Any other family or certificate, or an empty grid, raises
    ValueError.
    """
    runs = {"sharpness": ("symdiff", "main"), "dented": ("linear",)}
    if family not in runs:
        raise ValueError(f"unknown family {family!r}")
    if certificates not in (None,) + runs[family]:
        raise ValueError(f"family {family!r} runs certificates {runs[family]}, "
                         f"not {certificates!r}")
    grid = sorted(delta0_grid)
    if not grid:
        raise ValueError("the delta0 grid is empty")
    rows = []
    for d0 in grid:
        t0 = time.perf_counter()
        if family == "sharpness":
            f, g, h = gen_sharpness_pair(d0, spacing)
            if certificates == "main":
                rep = certify_main(f, g, h, params, c=c)
            else:
                rep = certify_symmetric_difference(f, g, h, params)
        else:
            f = _dented_scenario(d0, spacing)
            rep = certify_linear(f, params, c=c)
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            SweepRow(
                scenario=family,
                delta0=d0,
                delta=rep.delta,
                symdiff_distance=rep.symdiff_distance,
                linear_gap=rep.linear_gap,
                main_distance=rep.main_distance,
                ratio_sqrt=rep.ratio_sqrt,
                ratio_linear=rep.ratio_linear,
                ratio_main=rep.ratio_main,
                hypothesis_valid=rep.hypothesis_valid,
                seed=seed,
                runtime_ms=ms,
            )
        )
    return rows


def fit_loglog_slope(xs, ys):
    """OLS slope of log y against log x; returns (slope, stderr)."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not all(((v > 0) & (v < np.inf)).all() for v in (x, y)):
        raise ValueError("x and y must be positive and finite")
    x, y = np.log(x), np.log(y)
    if len(x) < 4:
        raise ValueError("need at least 4 points")
    if np.ptp(x) <= 0:
        raise ValueError("degenerate x-range")
    xm = x - x.mean()
    slope = float((xm * y).sum() / (xm * xm).sum())
    inter = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + inter)
    dof = max(len(x) - 2, 1)
    se = float(math.sqrt((resid ** 2).sum() / dof / (xm * xm).sum()))
    return slope, se


def write_csv(rows: list[SweepRow], path) -> bool:
    """Write sorted rows; returns True iff all validity flags pass."""
    rows = sorted(rows, key=lambda r: (r.scenario, r.delta0))
    with open(path, "w") as fh:
        fh.write(SweepRow.CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.csv() + "\n")
    return all(r.hypothesis_valid for r in rows)
