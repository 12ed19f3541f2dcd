import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bblab import GridFunction, dump_gfn, integral, load_gfn, sup_convolution, MeanParams
from bblab import cli
from bblab.cli import main
from bblab.gridfn import _cell_centers
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


def hull_report_oracle(f, hull) -> str:
    """Reference hull report: one numpy scalar per value."""
    lines = ["cell,x,f,hull,gap\n"]
    cells = np.argwhere(hull.values > 0)
    for cell, x in zip(cells, _cell_centers(f, cells)):
        idx = tuple(int(v) for v in cell)
        x = x if f.dim > 1 else (x,)
        fv, hv = float(f.values[idx]), float(hull.values[idx])
        lines.append(f"{';'.join(str(i) for i in idx)},{';'.join(repr(v) for v in x)},"
                     f"{fv!r},{hv!r},{hv - fv!r}\n")
    return "".join(lines)


def test_hull_report_matches_oracle(tmp_path, rng):
    """Holed and random values in 1-D and 2-D: the report's bytes equal a
    per-cell formatting of numpy scalars."""
    holed = np.where(rng.random((6, 5)) < 0.6, 1.5, 0.0)
    holed[0, 0] = 1.0
    fields = [GridFunction(1, (-0.35,), 0.013, rng.uniform(0.1, 2.0, 60) * (rng.random(60) < 0.8)),
              GridFunction(2, (0.5, -1.1), 0.1, rng.uniform(0.1, 2.0, (7, 9))),
              GridFunction(2, (0.0, 0.0), 0.25, holed)]
    for k, f in enumerate(fields):
        pf, out, rep = tmp_path / f"f{k}.gfn", tmp_path / f"h{k}.gfn", tmp_path / f"r{k}.csv"
        dump_gfn(f, pf)
        assert main(["hull", "--f", str(pf), "--p", "0", "--out", str(out),
                     "--report", str(rep)]) == 0
        assert rep.read_text() == hull_report_oracle(load_gfn(pf), load_gfn(out))


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


@pytest.mark.parametrize("grid", ["1e-3:1e-2:0", "1e-3:1e-2:log0"])
def test_sweep_rejects_empty_grid(tmp_path, capsys, grid):
    """A zero-point grid exits 2 and writes no CSV: a sweep of no rows would
    pass vacuously."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--family", "sharpness", "--delta0", grid, "--out", str(out)]) == 2
    assert "bblab: error: the delta0 grid is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["1e-3:1e-2", "1e-3,,2e-3", "1e-3:1e-2:logx", "a:b:4"])
def test_sweep_rejects_malformed_delta0(tmp_path, capsys, grid):
    """A --delta0 in none of the accepted forms exits 2 with a message that
    names them, as argparse's own errors do."""
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "sharpness", "--delta0", grid, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --delta0: expected a:b:logN, a:b:N or a comma list of numbers, got {grid!r}" in err
    assert not out.exists()


def test_parser_built_once_without_leaks(monkeypatch):
    """Back-to-back main calls share one parser, and an option one call gives
    is back at its default in the next."""
    seen = []
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(vars(args)) or 0)
    main(["hull", "--f", "a.gfn", "--p", "2", "--out", "o.gfn", "--report", "r.csv"])
    main(["hull", "--f", "b.gfn", "--out", "o.gfn"])
    main(["sweep", "--family", "dented", "--lambda", "1/3", "--p", "1", "--delta0", "0.1,0.2",
          "--spacing", "0.01", "--certificates", "main", "--c", "0.5", "--seed", "3", "--out", "a.csv"])
    main(["sweep", "--family", "sharpness", "--delta0", "1e-3:1e-2:log2", "--out", "b.csv"])
    assert seen[0] == {"cmd": "hull", "f": "a.gfn", "p": 2.0, "out": "o.gfn", "report": "r.csv"}
    assert seen[1] == {"cmd": "hull", "f": "b.gfn", "p": 0.0, "out": "o.gfn", "report": None}
    assert seen[2]["delta0"] == [0.1, 0.2] and seen[2]["c"] == 0.5
    assert seen[3] == {"cmd": "sweep", "family": "sharpness", "lam": "1/2", "p": 0.0,
                       "delta0": np.geomspace(1e-3, 1e-2, 2).tolist(), "spacing": 1e-4,
                       "certificates": None, "c": None, "seed": 0, "out": "b.csv"}
    assert cli._parser() is cli._parser()


def test_lambda_denominator_limit(tmp_path, capsys):
    """--lambda 0.3333 is 3333/10000, past the denominator limit of 64."""
    pf = tmp_path / "f.gfn"
    dump_gfn(indicator(0.0, 0.5, 0.1), pf)
    argv = ["supconv", "--f", str(pf), "--g", str(pf), "--p", "0", "--out", str(tmp_path / "h.gfn")]
    assert main(argv + ["--lambda", "1/3"]) == 0
    assert main(argv + ["--lambda", "0.3333"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bblab: error: ") and "not commensurate" in err


@pytest.mark.parametrize("cmd", ["supconv", "certify-linear"])
def test_p_checked_against_input_dim(tmp_path, capsys, cmd):
    """p = -0.75 exceeds -1/n only for n = 1: a 2-D input fails the
    parameter check before any work, and a 1-D input runs."""
    one = indicator(0.0, 1.0, 0.1)
    two = GridFunction(2, (0.0, 0.0), 0.1, np.ones((4, 5)))
    for f, ok in ((one, True), (two, False)):
        pf = tmp_path / f"f{f.dim}.gfn"
        dump_gfn(f, pf)
        argv = [cmd, "--f", str(pf), "--lambda", "1/2", "--p", "-0.75"]
        argv += ["--g", str(pf), "--out", str(tmp_path / "h.gfn")] if cmd == "supconv" else []
        if ok:
            assert main(argv) == 0
        else:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("bblab: error: ") and "p must exceed" in err


def test_unreadable_or_unwritable_file_exits_2(files, capsys):
    """A missing input, an output in a missing directory and a GFN header of
    'gfn' alone are refused with exit 2 and a message, not a traceback."""
    tmp, pf, pg, _ = files
    headless = tmp / "headless.gfn"
    headless.write_text("gfn\n1.0\n")
    cases = [("missing.gfn", str(tmp / "H.gfn"), "missing.gfn"),
             (str(pf), str(tmp / "no-such-dir" / "H.gfn"), "no-such-dir"),
             (str(headless), str(tmp / "H.gfn"), "malformed GFN1 header")]
    for f, out, said in cases:
        argv = ["supconv", "--f", f, "--g", str(pg), "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("bblab: error: ") and said in err
    assert not (tmp / "H.gfn").exists()


def test_sweep_rejects_tiny_spacing(tmp_path, capsys):
    """--spacing 1e-320 makes the cell count overflow: refused with exit 2."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", "sharpness", "--delta0", "1e-3", "--spacing", "1e-320",
            "--out", str(out)]
    assert main(argv) == 2
    assert "bblab: error: " in capsys.readouterr().err
    assert not out.exists()


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
