"""Command-line front end: one `bblab` entry point with subcommands.

    bblab supconv        --f A.gfn --g B.gfn --lambda 1/2 --p -0.25 --out H.gfn
    bblab hull           --f A.gfn --p 0 --out H.gfn --report gaps.csv
    bblab diagnose       --f A.gfn --g B.gfn --h H.gfn --lambda 1/2 --p 0 --alpha 0.1 --out diag.csv
    bblab certify-symdiff --f A.gfn --g B.gfn --h H.gfn --lambda 1/2 --p 0 --report out.csv
    bblab certify-linear  --f A.gfn [--h H.gfn] --lambda 1/2 --p 0 --c 0.05 --report out.csv
    bblab certify-main    --f A.gfn --g B.gfn --h H.gfn --lambda 1/2 --p 0 --report out.csv
    bblab sweep          --family sharpness --p 0 --lambda 1/2 --delta0 1e-4:1e-2:log8 --spacing 1e-4 --out sweep.csv
    bblab equipartition  --f A.gfn

Exit code 0 iff every validity flag passes (and the equipartition converges),
1 if one fails, and 2 on an input the library refuses or a file it cannot
read or write.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

import numpy as np

from . import lab
from .gridfn import _cell_centers, dump_gfn, load_gfn
from .hull import p_concave_hull
from .means import MeanParams
from .stability import (
    certify_linear,
    certify_main,
    certify_symmetric_difference,
    cone_equipartition_2d,
)
from .supconv import sup_convolution
from .transport import level_diagnostics


def _parse_delta0(text: str) -> list:
    """--delta0's type: 'a:b:logN' -> N log-spaced values; 'a:b:N' linear;
    or a comma list.  Any other text is refused with a message that names
    these forms."""
    try:
        if ":" in text:
            a, b, n = text.split(":")
            lo, hi = float(a), float(b)
            if n.startswith("log"):
                return np.geomspace(lo, hi, int(n[3:])).tolist()
            return np.linspace(lo, hi, int(n)).tolist()
        return [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a:b:logN, a:b:N or a comma list of numbers, got {text!r} ({exc})") from None


def _params(args, n: int) -> MeanParams:
    """The mean's parameters for inputs of dimension n."""
    return MeanParams(Fraction(args.lam), args.p, n)


def _add_common(sp, g=False, h=False, h_optional=False):
    sp.add_argument("--f", required=True, help="GFN1 input for f")
    if g:
        sp.add_argument("--g", required=True, help="GFN1 input for g")
    if h:
        sp.add_argument("--h", required=not h_optional, help="GFN1 input for h")
    sp.add_argument("--lambda", dest="lam", default="1/2", help="rational weight, e.g. 1/2")
    sp.add_argument("--p", type=float, default=0.0, help="mean exponent")


def _emit(header: str, line: str, path) -> None:
    """Print a CSV header and one line, and write them to path if given."""
    if path:
        with open(path, "w") as fh:
            fh.write(header + "\n" + line + "\n")
    print(header)
    print(line)


def _report_certificate(rep, path):
    header = (
        "delta,shift,symdiff_distance,linear_gap,main_distance,"
        "ratio_sqrt,ratio_linear,ratio_main,valid"
    )
    shift = "" if rep.best_shift is None else ";".join(str(v) for v in rep.best_shift)
    line = ",".join(
        [
            repr(rep.delta),
            shift,
            repr(rep.symdiff_distance),
            repr(rep.linear_gap),
            repr(rep.main_distance),
            repr(rep.ratio_sqrt),
            repr(rep.ratio_linear),
            repr(rep.ratio_main),
            "1" if rep.hypothesis_valid else "0",
        ]
    )
    _emit(header, line, path)
    return rep.hypothesis_valid


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later main call in the process: parse_args leaves it unchanged and
    starts each call from a fresh namespace."""
    ap = argparse.ArgumentParser(prog="bblab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("supconv", help="sup-convolution of two grid functions")
    _add_common(sp, g=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("hull", help="p-concave hull")
    sp.add_argument("--f", required=True)
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", default=None, help="per-cell gap CSV")

    sp = sub.add_parser("diagnose", help="level-set diagnostics")
    _add_common(sp, g=True, h=True)
    sp.add_argument("--alpha", type=float, default=0.1)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("certify-symdiff", help="symmetric-difference certificate")
    _add_common(sp, g=True, h=True)
    sp.add_argument("--report", default=None)

    sp = sub.add_parser("certify-linear", help="linear certificate (f = g)")
    _add_common(sp, h=True, h_optional=True)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--report", default=None)

    sp = sub.add_parser("certify-main", help="combined certificate")
    _add_common(sp, g=True, h=True)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--report", default=None)

    sp = sub.add_parser("sweep", help="scenario sweep to CSV")
    sp.add_argument("--family", required=True, choices=["sharpness", "dented"])
    sp.add_argument("--lambda", dest="lam", default="1/2")
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--delta0", required=True, type=_parse_delta0,
                    help="a:b:logN, a:b:N, or comma list")
    sp.add_argument("--spacing", type=float, default=1e-4)
    sp.add_argument("--certificates", default=None, choices=["symdiff", "linear", "main"],
                    help="the family's own by default: symdiff (sharpness), linear (dented)")
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("equipartition", help="2-D cone equipartition apex")
    sp.add_argument("--f", required=True)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:  # exits 2, as argparse's own errors do
        print(f"bblab: error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.cmd == "supconv":
        f, g = load_gfn(args.f), load_gfn(args.g)
        dump_gfn(sup_convolution(f, g, _params(args, f.dim)), args.out)
        return 0

    if args.cmd == "hull":
        f = load_gfn(args.f)
        res = p_concave_hull(f, args.p)
        dump_gfn(res.hull, args.out)
        if args.report:
            with open(args.report, "w") as fh:
                fh.write("cell,x,f,hull,gap\n")
                cells = np.argwhere(res.hull.values > 0)
                at = tuple(cells.T)
                for cell, x, fv, hv in zip(cells.tolist(), _cell_centers(f, cells),
                                           f.values[at].tolist(), res.hull.values[at].tolist()):
                    x = x if f.dim > 1 else (x,)
                    fh.write(f"{';'.join(map(str, cell))},{';'.join(map(repr, x))},"
                             f"{fv!r},{hv!r},{hv - fv!r}\n")
        print(f"gap_mass={res.gap_mass!r} facets={len(res.facets)}")
        return 0

    if args.cmd == "diagnose":
        f, g, h = load_gfn(args.f), load_gfn(args.g), load_gfn(args.h)
        rep = level_diagnostics(f, g, h, _params(args, f.dim), args.alpha)
        header = "alpha,I1,I2,I3,I4,I5,hull_gap_integral,h_convention"
        line = ",".join(
            [repr(rep.alpha)]
            + [repr(m) for m in rep.masses]
            + [repr(rep.hull_gap_integral), rep.h_convention]
        )
        _emit(header, line, args.out)
        return 0

    if args.cmd == "certify-symdiff":
        f, g, h = load_gfn(args.f), load_gfn(args.g), load_gfn(args.h)
        rep = certify_symmetric_difference(f, g, h, _params(args, f.dim))
        return 0 if _report_certificate(rep, args.report) else 1

    if args.cmd == "certify-linear":
        f = load_gfn(args.f)
        h = load_gfn(args.h) if args.h else None
        rep = certify_linear(f, _params(args, f.dim), h=h, c=args.c)
        return 0 if _report_certificate(rep, args.report) else 1

    if args.cmd == "certify-main":
        f, g, h = load_gfn(args.f), load_gfn(args.g), load_gfn(args.h)
        rep = certify_main(f, g, h, _params(args, f.dim), c=args.c)
        return 0 if _report_certificate(rep, args.report) else 1

    if args.cmd == "sweep":
        rows = lab.sweep(
            args.family,
            args.delta0,
            _params(args, 1),  # the families are 1-D
            spacing=args.spacing,
            certificates=args.certificates,
            c=args.c,
            seed=args.seed,
        )
        ok = lab.write_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
        return 0 if ok else 1

    if args.cmd == "equipartition":
        f = load_gfn(args.f)
        res = cone_equipartition_2d(f)
        print(f"apex={res.apex!r} masses={res.masses!r} residual={res.residual!r}")
        return 0 if res.converged else 1


if __name__ == "__main__":
    sys.exit(main())
