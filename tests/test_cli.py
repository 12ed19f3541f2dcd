import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bblab import GridFunction, dump_gfn, integral, load_gfn, sup_convolution, MeanParams
from bblab.cli import main
from conftest import hat, indicator


@pytest.fixture
def files(tmp_path):
    f = hat(width=1.0, height=1.0, spacing=0.02)
    g = hat(width=1.0, height=1.0, spacing=0.02)
    h = sup_convolution(f, g, MeanParams(0.5, 0.0))
    pf, pg, ph = tmp_path / "f.gfn", tmp_path / "g.gfn", tmp_path / "h.gfn"
    dump_gfn(f, pf)
    dump_gfn(g, pg)
    dump_gfn(h, ph)
    return tmp_path, pf, pg, ph


def test_supconv_roundtrip(files):
    tmp, pf, pg, ph = files
    out = tmp / "H.gfn"
    rc = main(["supconv", "--f", str(pf), "--g", str(pg), "--lambda", "1/2",
               "--p", "-0.25", "--out", str(out)])
    assert rc == 0
    H = load_gfn(out)
    assert integral(H) > 0


def test_hull_with_report(files, tmp_path):
    tmp, pf, _, _ = files
    out, rep = tmp / "hull.gfn", tmp / "gaps.csv"
    rc = main(["hull", "--f", str(pf), "--p", "0", "--out", str(out),
               "--report", str(rep)])
    assert rc == 0
    assert rep.read_text().startswith("cell,x,f,hull,gap")


def test_diagnose(files):
    tmp, pf, pg, ph = files
    out = tmp / "diag.csv"
    rc = main(["diagnose", "--f", str(pf), "--g", str(pg), "--h", str(ph),
               "--lambda", "1/2", "--p", "0", "--alpha", "0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("alpha,I1")


def test_certify_symdiff(files):
    tmp, pf, pg, ph = files
    out = tmp / "cert.csv"
    rc = main(["certify-symdiff", "--f", str(pf), "--g", str(pg), "--h", str(ph),
               "--lambda", "1/2", "--p", "0", "--report", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0].startswith("delta,shift")


def test_certify_linear_default_h(files):
    tmp, pf, _, _ = files
    rc = main(["certify-linear", "--f", str(pf), "--lambda", "1/2", "--p", "0"])
    assert rc == 0


def test_certify_main(files):
    tmp, pf, pg, ph = files
    rc = main(["certify-main", "--f", str(pf), "--g", str(pg), "--h", str(ph),
               "--lambda", "1/2", "--p", "0"])
    assert rc == 0


def test_certify_main_2d_above_48_cells(tmp_path):
    """The bench's 49-cell pair of 7 x 7 Gaussians against h = M*."""
    x = (np.arange(7) + 0.5) * 0.2 - 0.7
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    f, g = (GridFunction(2, (-0.7, -0.7), 0.2, np.exp(-r2 / (2.0 * s * s))) for s in (0.4, 0.5))
    h = sup_convolution(f, g, MeanParams(0.5, 0.0, n=2))
    paths = [tmp_path / name for name in ("f.gfn", "g.gfn", "h.gfn")]
    for fn, path in zip((f, g, h), paths):
        dump_gfn(fn, path)
    out = tmp_path / "main.csv"
    rc = main(["certify-main", "--f", str(paths[0]), "--g", str(paths[1]), "--h", str(paths[2]),
               "--lambda", "1/2", "--p", "0", "--report", str(out)])
    assert rc == 0
    header, line = out.read_text().splitlines()
    assert np.isfinite(float(dict(zip(header.split(","), line.split(",")))["ratio_main"]))


def test_certify_flags_invalid_h(files):
    tmp, pf, pg, _ = files
    f = load_gfn(pf)
    bad = f.with_values(f.values * 0.5)
    pb = tmp / "bad.gfn"
    dump_gfn(bad, pb)
    rc = main(["certify-symdiff", "--f", str(pf), "--g", str(pg), "--h", str(pb),
               "--lambda", "1/2", "--p", "0"])
    assert rc == 1


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    # dented rows use the canonical h, so every validity flag passes
    rc = main(["sweep", "--family", "dented", "--p", "0", "--lambda", "1/2",
               "--delta0", "0.05,0.1", "--spacing", "0.005", "--c", "0.75",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("scenario,delta0")


def test_sweep_sharpness_csv(tmp_path):
    out = tmp_path / "sweep2.csv"
    rc = main(["sweep", "--family", "sharpness", "--p", "0", "--lambda", "1/2",
               "--delta0", "1e-3:1e-2:log4", "--spacing", "1e-3", "--out", str(out)])
    assert rc in (0, 1)  # exit mirrors the validity flags
    lines = out.read_text().splitlines()
    assert len(lines) == 5


def test_equipartition(tmp_path):
    n = 21
    x = (np.arange(n) - n // 2) * 0.1
    vals = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2))
    f = GridFunction(2, (-1.05, -1.05), 0.1, vals)
    pf = tmp_path / "blob.gfn"
    dump_gfn(f, pf)
    rc = main(["equipartition", "--f", str(pf)])
    assert rc == 0


def test_import_leaves_scipy_signal_out():
    """import bblab must not load scipy.signal: it adds about 22 MB of RSS
    and 178 modules to every process that imports the package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bblab; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
