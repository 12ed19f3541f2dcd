"""bblab benchmark: one workload, closed loop, outputs checked against the seed.

    python3 bench/run.py --workload certify-1d --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client runs the workload's jobs one at a time, each job starting when the
previous one ends, in a single process with BLAS threads pinned to 1.  The
run repeats passes over the job list until ``--seconds`` have passed, at
least MIN_PASSES times; the median pass hides a first pass that pays for
cold caches.  Set-up (import bblab afresh, make the inputs, write the GFN
files) runs SETUPS_FIRST times before the first pass and once after each
pass, so that, like the passes, it is sampled across the run; the median is
reported.  Every job's outcome is compared with the reference recorded at
the seed commit (reference/<part>.json).

--trace 0 prints the end-to-end metrics, timed with tracing off.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics
(tracer.py).  The last stdout line is the result JSON; the lines before it
are a run record and per-job times.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Pinned before numpy is first imported (by the modules below).
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import check  # noqa: E402
import tracer  # noqa: E402
from workloads import PARTS, WORKLOADS, describe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK = ROOT / ".bench_work"
SETUPS_FIRST = 2  # the first also pays for importing numpy and scipy
MIN_PASSES = 3
TRACE_MIN_PASSES = 2  # of each kind in a traced run

END_TO_END_METRICS = {"pass_s": "s", "ok_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics printed by --trace 1, in BENCHMARK.json order.  Each
# rate is listed next to the base count and time it is derived from.
LAYER_METRICS = {
    "supconv.deficit.calls": "count",
    "supconv.deficit.s": "s",
    "supconv.deficit.self_s": "s",
    "supconv.deficit.pairs": "count",
    "supconv.deficit.pairs_per_s": "1/s",
    "supconv.deficit.violations": "count",
    "stability.certify_symmetric_difference.self_s": "s",
    "stability.best_shift.window": "count",
    "stability.shave.calls": "count",
    "stability.shave.s": "s",
    "stability.shave.self_s": "s",
    "stability.shave.dictionary_bound": "count",
    "stability.shave.removed": "mass",
    "stability.shave.errors": "count",
    "stability.certify_linear.self_s": "s",
    "stability.certify_main.self_s": "s",
    "stability.certify_main.errors": "count",
    "supconv.sup_convolution.calls": "count",
    "supconv.sup_convolution.s": "s",
    "supconv.sup_convolution.self_s": "s",
    "supconv.sup_convolution.pairs": "count",
    "supconv.sup_convolution.pairs_per_s": "1/s",
    "means.p_mean_arr.calls": "count",
    "means.p_mean_arr.self_s": "s",
    "means.p_mean_arr.elems": "count",
    "means.p_mean_arr.elems_per_s": "1/s",
    "hull.p_concave_hull.s": "s",
    "hull.p_concave_hull.self_s": "s",
    "hull.p_concave_hull.facets": "count",
    "hull.p_concave_hull.support_cells": "count",
    "hull.is_p_concave.s": "s",
    "hull.is_p_concave.pairs": "count",
    "hull.is_p_concave.pairs_per_s": "1/s",
    "supconv.minkowski_combination.s": "s",
    "supconv.minkowski_combination.pairs": "count",
    "supconv.minkowski_combination.pairs_per_s": "1/s",
    "hull.convex_hull_set.s": "s",
    "transport.level_diagnostics.self_s": "s",
    "transport.level_diagnostics.intervals": "count",
    "transport.height_transport.s": "s",
    "gridfn.load_gfn.s": "s",
    "gridfn.load_gfn.bytes": "B",
    "gridfn.dump_gfn.s": "s",
    "gridfn.dump_gfn.bytes": "B",
    "cli.main.self_s": "s",
    "lab.sweep.self_s": "s",
    "lab.gen_sharpness_pair.s": "s",
    "stability.cone_equipartition_2d.s": "s",
    **{f"part.{part}.pass_s": "s" for part in PARTS},
    "jobs.failed_frac": "frac",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_frac": "frac",
    "trace.self_coverage": "frac",
    "trace.spans": "count",
    "trace.passes": "count",
}


def bblab_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == "bblab" or m.startswith("bblab.")}


def import_bblab():
    """Import bblab and bblab.cli from src/ afresh (set-up cost included)."""
    for name in bblab_modules():
        del sys.modules[name]
    bb = importlib.import_module("bblab")
    importlib.import_module("bblab.cli")
    if Path(bb.__file__).resolve().parent != SRC / "bblab":
        raise RuntimeError(f"imported bblab from {bb.__file__}, not from {SRC}")
    return bb


def set_up(make_inputs, seed, workdir):
    """Import bblab, make the inputs and write the GFN files into workdir."""
    bb = import_bblab()
    workdir.mkdir(parents=True)
    inputs = make_inputs(bb, seed)
    for name, f in inputs.items():
        if name.endswith(".gfn"):  # the rest are API-call inputs, kept in memory
            bb.dump_gfn(f, workdir / name)
    return bb, inputs


def timed_set_up(make_inputs, seed, workdir):
    t0 = time.perf_counter()
    bb, inputs = set_up(make_inputs, seed, workdir)
    return time.perf_counter() - t0, bb, inputs


def extra_set_up(make_inputs, seed, workdir):
    """Time one more set-up, then put back the bblab modules the passes use."""
    running = bblab_modules()
    dt, _, _ = timed_set_up(make_inputs, seed, workdir)
    for name in bblab_modules():
        del sys.modules[name]
    sys.modules.update(running)
    shutil.rmtree(workdir)
    return dt


def run_job(bb, job, workdir, inputs):
    """Run one job; return (seconds, outcome, output texts).  Only the call
    is timed; fingerprinting the outputs is not."""
    for name in job.outputs:  # so that a file the job failed to write is not read
        (workdir / name).unlink(missing_ok=True)
    out = io.StringIO()
    raised = None
    rc = None
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            if job.api is not None:
                print(job.api(bb, inputs))
            else:
                rc = sys.modules["bblab.cli"].main([a.format(w=workdir) for a in job.argv])
        except (Exception, SystemExit) as exc:  # a raising job is an outcome
            raised = type(exc).__name__
        dt = time.perf_counter() - t0
    text = out.getvalue().replace(str(workdir), "<work>")
    files = {}
    if raised is None:
        paths = {name: workdir / name for name in job.outputs}
        files = {name: p.read_text() if p.exists() else None for name, p in paths.items()}
    outcome = {
        "exit": rc,
        "raises": raised,
        "stdout": check.fingerprint(text),
        "files": {name: {"missing": True} if t is None else check.fingerprint(t)
                  for name, t in files.items()},
    }
    return dt, outcome, files


def judge(job, outcome, files, ref):
    """'ok', 'known_failure' (raises as at the seed), 'fixed' (raised at the
    seed, returns now; no reference to check) or 'departed', with reasons."""
    if ref is None:
        return "departed", ["no reference recorded for this job"]
    if ref["raises"] is not None:
        if outcome["raises"] == ref["raises"]:
            return "known_failure", []
        if outcome["raises"] is None:
            return "fixed", []
        return "departed", [f"raised {outcome['raises']}, reference raised {ref['raises']}"]
    if outcome["raises"] is not None:
        return "departed", [f"raised {outcome['raises']}"]
    diffs = check.differences(ref, outcome)
    if not diffs and job.validate is not None:
        err = job.validate(files)
        diffs = [err] if err else []
    return ("departed" if diffs else "ok"), diffs


class Runner:
    def __init__(self, bb, jobs, workdir, inputs, reference):
        self.bb, self.jobs = bb, jobs
        self.workdir, self.inputs, self.reference = workdir, inputs, reference
        self.tally = {"ok": 0, "known_failure": 0, "fixed": 0, "departed": 0}
        self.job_times = {job.name: [] for job in jobs}
        self.part_times = {job.part: [] for job in jobs}  # untraced passes only
        self.problems = []

    def run_pass(self, tr=None, label=None):
        """One pass over the jobs; returns its seconds and records each part's."""
        parts = dict.fromkeys(self.part_times, 0.0)
        for job in self.jobs:
            if tr is not None:
                tr.job = (label, job.name)
            dt, outcome, files = run_job(self.bb, job, self.workdir, self.inputs)
            verdict, why = judge(job, outcome, files, self.reference.get(job.name))
            if verdict == "departed":
                self.problems.append((job.name, why))
            self.tally[verdict] += 1
            self.job_times[job.name].append(dt)
            parts[job.part] += dt
        if tr is None:
            for part, dt in parts.items():
                self.part_times[part].append(dt)
        return sum(parts.values())

    def passes(self, seconds, after_pass):
        """Untraced passes until ``seconds`` have elapsed and MIN_PASSES are
        done, calling ``after_pass()`` after each."""
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_PASSES or time.perf_counter() < deadline:
            times.append(self.run_pass())
            after_pass()
        return times

    def traced_passes(self, seconds, tr):
        """Alternate untraced and traced passes, so that both see the same
        machine, until ``seconds`` have elapsed and each kind has
        TRACE_MIN_PASSES.  Traced pass k's spans carry job ids ("traced<k>", job)."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < TRACE_MIN_PASSES or time.perf_counter() < deadline:
            untraced.append(self.run_pass())
            tr.install()
            try:
                traced.append(self.run_pass(tr, f"traced{len(traced)}"))
            finally:
                tr.uninstall()
        return untraced, traced


def git_sha():
    """Commit of the checkout from .git, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, bb, jobs, inputs, setups):
    import numpy
    import scipy

    sizes = {job.name: {n: describe(inputs[n]) for n in job.inputs if n in inputs}
             for job in jobs}
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bblab": bb.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups": setups,
        "job_inputs": sizes,
    }


def layer_metrics(tr, jobs, traced, untraced, tally, part_times):
    """Per-layer metrics: the median over traced passes of each per-pass value."""
    per_pass = [tracer.summarize(tr.spans, tr.counts, {(f"traced{k}", j.name) for j in jobs})
                for k in range(len(traced))]
    keys = set(LAYER_METRICS).union(*per_pass)
    stats = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in keys}
    t_pass, u_pass = statistics.median(traced), statistics.median(untraced)
    stats["trace.pass_s"] = t_pass
    stats["trace.untraced_pass_s"] = u_pass
    stats["trace.overhead_frac"] = t_pass / u_pass - 1.0
    stats["trace.self_coverage"] = stats["trace.self_s"] / t_pass
    stats["trace.passes"] = len(traced)
    stats["jobs.failed_frac"] = (tally["known_failure"] + tally["departed"]) / sum(tally.values())
    for part, ts in part_times.items():
        stats[f"part.{part}.pass_s"] = statistics.median(ts)
    return stats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bblab" / "__init__.py").is_file():
        print(f"error: no bblab package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = {}
    for part in workload.parts:
        ref_path = REFERENCE / f"{part}.json"
        if not ref_path.is_file():
            print(f"error: no reference outputs at {ref_path}", file=sys.stderr)
            return 2
        reference.update(json.loads(ref_path.read_text())["jobs"])
    sys.path.insert(0, str(SRC))

    jobs = workload.jobs(args.seed)
    base = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for k in range(SETUPS_FIRST):
            workdir = base / f"setup{k}"
            dt, bb, inputs = timed_set_up(workload.make_inputs, args.seed, workdir)
            setup_times.append(dt)
            if k:
                shutil.rmtree(base / f"setup{k - 1}")

        runner = Runner(bb, jobs, workdir, inputs, reference)
        if args.trace:
            tr = tracer.Tracer()
            untraced, traced = runner.traced_passes(args.seconds, tr)
            metrics = layer_metrics(tr, jobs, traced, untraced, runner.tally, runner.part_times)
            units = LAYER_METRICS
            print("trace_table " + json.dumps(dict(sorted(metrics.items()))))
            for part in workload.parts:
                ids = {(f"traced{k}", j.name) for k in range(len(traced))
                       for j in jobs if j.part == part}
                own = tracer.summarize(tr.spans, tr.counts, ids)
                secs, name = max((v, k) for k, v in own.items()
                                 if k.endswith(".self_s") and not k.startswith("trace."))
                print(f"part {part} largest self time: {name} {secs / len(traced):.4f} s per pass")
            pass_lines = {"untraced": untraced, "traced": traced}
        else:
            times = runner.passes(args.seconds, lambda: setup_times.append(
                extra_set_up(workload.make_inputs, args.seed, base / "extra")))
            good = runner.tally["ok"] + runner.tally["fixed"]
            metrics = {
                "pass_s": statistics.median(times),
                "ok_frac": good / sum(runner.tally.values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setup_times),
            }
            units = END_TO_END_METRICS
            pass_lines = {"untraced": times}

        print("run_record " + json.dumps(run_record(args, bb, jobs, inputs, len(setup_times))))
        for name, ts in runner.job_times.items():
            print(f"job {name} median_s={statistics.median(ts):.4f} n={len(ts)}")
        for part, ts in runner.part_times.items():
            print(f"part {part} median_s={statistics.median(ts):.4f} n={len(ts)}")
        for kind, ts in pass_lines.items():
            print(f"passes {kind} n={len(ts)} pass_s=" + ",".join(f"{t:.4f}" for t in ts))
        print("setup_s=" + ",".join(f"{t:.4f}" for t in setup_times))
        print("outcomes " + json.dumps(runner.tally))
        for name, why in runner.problems[:10]:
            print(f"DEPARTED {name}: {'; '.join(why)}", file=sys.stderr)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = sum(runner.tally.values())
    result = {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": runner.tally["departed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
