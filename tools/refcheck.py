"""Check every benchmark job on seeds 0-31 against the recorded reference.

    python3 tools/refcheck.py [WORKLOAD ...]

Runs every job of the named workloads of ``perfbench/workloads.py``
(default: all of them) once, in this process, on each of the seeds 0-31
that ``perfbench/reference.json`` records, against the package in ``src``,
with BLAS pinned to one thread as in the benchmark's workers.  Each job's
exit code and JSON record go through ``perfbench/run.py``'s own
``check_job`` with the reference values ``load_reference`` gives for that
workload and seed, so a job passes here exactly when the benchmark's output
checks would pass it on that seed.  Prints each failing job with its failed
checks and one count per workload; exits 1 if any job fails, else 0.
"""

from __future__ import annotations

import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(32)


def main(names: list[str]) -> int:
    # one BLAS thread, as the benchmark workers run; set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from run import check_job, load_record, load_reference
    from workloads import WORKLOADS, output_path, write_inputs
    from uotlab import cli

    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 1
    failed_total = 0
    for workload in names or sorted(WORKLOADS):
        jobs, failed = WORKLOADS[workload], 0
        for seed in SEEDS:
            reference = load_reference(workload, seed) or {}
            with tempfile.TemporaryDirectory() as workdir:
                write_inputs(workload, seed, workdir)
                for job in jobs:
                    outcome = {"exit_code": None, "error": None}
                    try:
                        outcome["exit_code"] = cli.run(job.argv(workdir, seed))
                    except Exception:  # a raising job is a failed job; keep going
                        outcome["error"] = traceback.format_exc()
                    checks = check_job(job, outcome, load_record(output_path(workdir, job)),
                                       reference.get(job.name))
                    if job.name not in reference:
                        checks.append(("reference recorded", False, "no reference values"))
                    bad = [(name, detail) for name, passed, detail in checks if not passed]
                    if bad:
                        failed += 1
                        print(f"FAIL {workload}/{seed}/{job.name}")
                        for name, detail in bad:
                            print(f"  {name} ({detail})")
        print(f"{workload}: {failed} of {len(jobs) * len(SEEDS)} jobs fail")
        failed_total += failed
    return 1 if failed_total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
