"""The bblab workloads: inputs made at set-up and the jobs of one pass.

Jobs come in four parts (sharpness-1d, linear-1d, geometry-2d, smooth-1d),
each stressing different layers; a workload runs two parts.  Every job but
one is a ``bblab.cli.main(argv)`` call on GFN files written at set-up;
``is_p_concave`` has no subcommand and is called through the public API.
Argument strings name files as ``{w}/<name>``, which the runner fills with
the set-up directory.  README.md in this directory gives the reason for each
workload and part and the layers each stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# The seeded blob in geometry-2d is one of this many variants, picked by
# seed mod BLOB_VARIANTS, so that every variant has a reference recorded at
# the seed commit.
BLOB_VARIANTS = 64


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple = ()                 # CLI arguments; empty for an API job
    outputs: tuple = ()              # files the job writes, checked after it
    inputs: tuple = ()               # GFN files it reads, for the run record
    api: Callable | None = None      # api(bblab, inputs) -> printed summary
    validate: Callable | None = None  # validate(files) -> error text or None
    part: str = ""


@dataclass(frozen=True)
class Part:
    make_inputs: Callable  # make_inputs(bblab, seed) -> {name: GridFunction}; *.gfn are written
    jobs: Callable         # jobs(seed) -> list[Job]


def _gaussian_2d(bb, n, spacing, center=(0.0, 0.0), sigma=0.5):
    half = n * spacing / 2.0
    x = (np.arange(n) + 0.5) * spacing - half
    r2 = (x[:, None] - center[0]) ** 2 + (x[None, :] - center[1]) ** 2
    return bb.GridFunction(2, (-half, -half), spacing, np.exp(-r2 / (2.0 * sigma * sigma)))


def _bump_1d(bb, n, sharp=3.0, width=2.0):
    """Log-concave bump exp(-sharp u^2) on n cells of [0, width], u in [-1, 1]."""
    spacing = width / n
    u = ((np.arange(n) + 0.5) * spacing - width / 2.0) * (2.0 / width)
    return bb.GridFunction(1, (0.0,), spacing, np.exp(-sharp * u * u))


def _dented(bb, width, spacing):
    """Unit indicator on [0, 1] with a centred full-depth hole of the given width."""
    base = bb.GridFunction(1, (0.0,), spacing, np.ones(int(round(1.0 / spacing))))
    return bb.gen_dented(base, [((1.0 - width) / 2.0, width, 1.0)])


# ---------------------------------------------------------------------------
# sharpness-1d: the paper's headline sqrt(delta) experiment

SHARPNESS_SPACING = "2.5e-4"
SHARPNESS_P = ("0", "-0.25")
SLOPE_BAND = (0.45, 0.55)  # acceptance criterion 1


def _sharpness_slope(files):
    """Fitted log-log slope of symdiff_distance against delta in a sweep CSV."""
    (text,) = files.values()
    lines = text.strip().splitlines()
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    x = np.log([float(r["delta"]) for r in rows])
    y = np.log([float(r["symdiff_distance"]) for r in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
        return f"fitted slope {slope:.4f} outside {SLOPE_BAND}"
    return None


def _sharpness_jobs(seed):
    jobs = []
    for p in SHARPNESS_P:
        out = f"sweep_p{p}.csv"
        jobs.append(Job(
            name=f"sweep-p{p}",
            argv=("sweep", "--family", "sharpness", "--lambda", "1/2", "--p", p,
                  "--delta0", "1e-3:1e-2:log4", "--spacing", SHARPNESS_SPACING,
                  "--out", "{w}/" + out),
            outputs=(out,),
            validate=_sharpness_slope,
        ))
    return jobs


def _sharpness_inputs(bb, seed):
    return {}


# ---------------------------------------------------------------------------
# linear-1d: shaving on flat, sparse and staircase supports

DENTED = (("0.002", (0.01, 0.05, 0.1, 0.2)), ("0.001", (0.1,)))


def _linear_inputs(bb, seed):
    inputs = {}
    for spacing, widths in DENTED:
        for w in widths:
            inputs[f"dented_{spacing}_{w}.gfn"] = _dented(bb, w, float(spacing))
    inputs["two_bump.gfn"] = bb.gen_two_bump(1e-6, 50, 0.05)
    f, g, h = bb.gen_sharpness_pair(1e-3, 1e-3)
    inputs.update({"sharp_f.gfn": f, "sharp_g.gfn": g, "sharp_h.gfn": h})
    return inputs


def _linear_jobs(seed):
    jobs = []
    for spacing, widths in DENTED:
        for w in widths:
            name = f"dented_{spacing}_{w}.gfn"
            jobs.append(Job(
                name=f"certify-linear-{name[:-4]}",
                argv=("certify-linear", "--f", "{w}/" + name, "--lambda", "1/2",
                      "--p", "0", "--c", "0.75"),
                inputs=(name,),
            ))
    jobs.append(Job(
        name="certify-linear-two-bump",
        argv=("certify-linear", "--f", "{w}/two_bump.gfn", "--lambda", "1/2", "--p", "0"),
        inputs=("two_bump.gfn",),
    ))
    jobs.append(Job(
        name="certify-main-sharpness",
        argv=("certify-main", "--f", "{w}/sharp_f.gfn", "--g", "{w}/sharp_g.gfn",
              "--h", "{w}/sharp_h.gfn", "--lambda", "1/2", "--p", "0"),
        inputs=("sharp_f.gfn", "sharp_g.gfn", "sharp_h.gfn"),
    ))
    return jobs


# ---------------------------------------------------------------------------
# geometry-2d: exact 2-D hull, 2-D best shift, 2-D sup-convolution


def _blob(bb, seed):
    rng = np.random.default_rng(seed % BLOB_VARIANTS)
    g = _gaussian_2d(bb, 20, 0.1, sigma=0.6)
    return g.with_values(g.values * rng.uniform(0.5, 1.5, size=(20, 20)))


def _geometry_inputs(bb, seed):
    return {
        "gauss12.gfn": _gaussian_2d(bb, 12, 0.2),
        "gauss16.gfn": _gaussian_2d(bb, 16, 0.2),
        "gauss40_f.gfn": _gaussian_2d(bb, 40, 0.1, sigma=0.6),
        "gauss40_g.gfn": _gaussian_2d(bb, 40, 0.1, center=(0.3, 0.1), sigma=0.6),
        "blob20.gfn": _blob(bb, seed),
        "gauss7_f.gfn": _gaussian_2d(bb, 7, 0.2, sigma=0.4),
        "gauss7_g.gfn": _gaussian_2d(bb, 7, 0.2, sigma=0.5),
    }


def _pair_jobs(tag, cmd, *extra, outputs=()):
    """``supconv`` of <tag>_f and <tag>_g into <tag>_h, then ``cmd`` on all three."""
    f, g, h = f"{{w}}/{tag}_f.gfn", f"{{w}}/{tag}_g.gfn", f"{{w}}/{tag}_h.gfn"
    ins = (f"{tag}_f.gfn", f"{tag}_g.gfn")
    common = ("--lambda", "1/2", "--p", "0")
    return [
        Job(name=f"supconv-{tag}", argv=("supconv", "--f", f, "--g", g, *common, "--out", h),
            outputs=(f"{tag}_h.gfn",), inputs=ins),
        Job(name=f"{cmd}-{tag}", argv=(cmd, "--f", f, "--g", g, "--h", h, *common, *extra),
            outputs=outputs, inputs=ins + (f"{tag}_h.gfn",)),
    ]


def _geometry_jobs(seed):
    jobs = [
        Job(name=f"hull-gauss{n}",
            argv=("hull", "--f", f"{{w}}/gauss{n}.gfn", "--p", "0",
                  "--out", f"{{w}}/hull{n}.gfn"),
            outputs=(f"hull{n}.gfn",), inputs=(f"gauss{n}.gfn",))
        for n in (12, 16)
    ]
    jobs += _pair_jobs("gauss40", "certify-symdiff")
    jobs.append(Job(name="equipartition-gauss40",
                    argv=("equipartition", "--f", "{w}/gauss40_f.gfn"),
                    inputs=("gauss40_f.gfn",)))
    jobs.append(Job(name=f"equipartition-blob-v{seed % BLOB_VARIANTS}",
                    argv=("equipartition", "--f", "{w}/blob20.gfn"),
                    inputs=("blob20.gfn",)))
    # 49 support cells: certify-main raises NotImplementedError at the seed
    # commit (2-D shaving above 48 cells) and counts as a failed job
    jobs += _pair_jobs("gauss7", "certify-main")
    return jobs


# ---------------------------------------------------------------------------
# smooth-1d: general sup-convolution, 1-D hull, transport, midpoint test


def _smooth_inputs(bb, seed):
    f = _bump_1d(bb, 500, sharp=3.0)
    g = _bump_1d(bb, 500, sharp=8.0)  # sharper, rescaled: transport needs equal masses
    g = g.with_values(g.values * (bb.integral(f) / bb.integral(g)))
    return {
        "bump10k.gfn": _bump_1d(bb, 10_000),
        "pair_f.gfn": f,
        "pair_g.gfn": g,
        "bump5k": _bump_1d(bb, 5_000),
    }


def _is_p_concave(bb, inputs):
    return repr(bb.is_p_concave(inputs["bump5k"], 0.0))


def _smooth_jobs(seed):
    common = ("--lambda", "1/2", "--p", "0")
    return [
        Job(name="supconv-bump10k",
            argv=("supconv", "--f", "{w}/bump10k.gfn", "--g", "{w}/bump10k.gfn", *common,
                  "--out", "{w}/bump10k_sup.gfn"),
            outputs=("bump10k_sup.gfn",), inputs=("bump10k.gfn",)),
        Job(name="hull-bump10k",
            argv=("hull", "--f", "{w}/bump10k.gfn", "--p", "0", "--out", "{w}/bump10k_hull.gfn",
                  "--report", "{w}/bump10k_gaps.csv"),
            outputs=("bump10k_hull.gfn", "bump10k_gaps.csv"), inputs=("bump10k.gfn",)),
        *_pair_jobs("pair", "diagnose", "--alpha", "0.1", "--out", "{w}/pair_diag.csv",
                    outputs=("pair_diag.csv",)),
        Job(name="is_p_concave-bump5k", api=_is_p_concave, inputs=("bump5k",)),
    ]


PARTS = {
    "sharpness-1d": Part(_sharpness_inputs, _sharpness_jobs),
    "linear-1d": Part(_linear_inputs, _linear_jobs),
    "geometry-2d": Part(_geometry_inputs, _geometry_jobs),
    "smooth-1d": Part(_smooth_inputs, _smooth_jobs),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple

    def make_inputs(self, bb, seed):
        inputs = {}
        for part in self.parts:
            inputs.update(PARTS[part].make_inputs(bb, seed))
        return inputs

    def jobs(self, seed):
        return [replace(job, part=part) for part in self.parts for job in PARTS[part].jobs(seed)]


# Two workloads of two parts each rather than one per part: all runs of all
# workloads share one time budget, and only with two workloads do runs last
# long enough to average out the minute-scale speed drift measured on a
# small shared VM (README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-1d",
            "1-D certificates: the paper's sqrt(delta) sweeps (deficit pair scan) and "
            "certify-linear/main on flat, sparse and staircase supports (shaving)",
            ("linear-1d", "sharpness-1d"),
        ),
        Workload(
            "geometry-smooth",
            "2-D hull, best shift, sup-convolution, equipartition and a known shave failure; "
            "smooth 1-D sup-convolution, hull, transport, midpoint test",
            ("geometry-2d", "smooth-1d"),
        ),
    )
}


def describe(f) -> dict:
    """Size of one input for the run record."""
    return {"shape": list(f.shape), "support_cells": int(np.count_nonzero(f.values > 0)),
            "spacing": f.spacing}

