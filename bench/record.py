"""Record the reference outcome of every job, at the seed commit.

    python3 bench/record.py [part ...]

Writes reference/<part>.json: per job, the exit code or the exception
raised, and the fingerprints of its printed summary and output files.  For
geometry-2d, every seeded blob variant gets its own reference.  Run it only
on the commit the references describe; run.py compares every later run with
these files.
"""

import json
import shutil
import sys

import run
from workloads import BLOB_VARIANTS, PARTS


def record(name):
    part = PARTS[name]
    seeds = range(BLOB_VARIANTS) if name == "geometry-2d" else [0]
    jobs_ref = {}
    for seed in seeds:
        workdir = run.WORK / f"record-{name}-{seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            bb, inputs = run.set_up(part.make_inputs, seed, workdir)
            for job in part.jobs(seed):
                if job.name in jobs_ref:
                    continue
                dt, outcome, files = run.run_job(bb, job, workdir, inputs)
                if job.validate is not None and outcome["raises"] is None:
                    err = job.validate(files)
                    if err:
                        raise SystemExit(f"{name}/{job.name}: {err}")
                jobs_ref[job.name] = outcome
                print(f"{name}/{job.name}: {dt:.2f}s exit={outcome['exit']} "
                      f"raises={outcome['raises']}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.mkdir(exist_ok=True)
    path = run.REFERENCE / f"{name}.json"
    path.write_text(json.dumps({"commit": run.git_sha(), "jobs": jobs_ref}, indent=1) + "\n")


def main():
    sys.path.insert(0, str(run.SRC))
    for name in sys.argv[1:] or sorted(PARTS):
        record(name)
    run.WORK.rmdir()


if __name__ == "__main__":
    main()
