"""Check every benchmark job on seeds 0-31 against the recorded reference.

    python3 tools/refcheck.py [WORKLOAD | WORKLOAD/JOB ...]

Runs every job of the named workloads of ``perfbench/workloads.py``
(default: all of them), and each job named as WORKLOAD/JOB, such as
``lp-lifts/second-order``, once, in this process, on each of the seeds 0-31
that ``perfbench/reference.json`` records, against the package in ``src``,
with BLAS pinned to one thread as in the benchmark's workers.  Each job's
exit code and JSON record go through ``perfbench/run.py``'s own
``check_job`` with the reference values ``load_reference`` gives for that
workload and seed, so a job passes here exactly when the benchmark's output
checks would pass it on that seed.  Prints each failing job with its failed
checks and, per workload, the count of failing jobs and the largest relative
difference |value - reference| / max(|value|, |reference|) of any
reference-checked value (the measure the 1e-6 bound of ``check_job``
applies to), with the value it was read from; exits 1 if any job fails,
else 0.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(32)


def largest_difference(values: dict, reference: dict, where: str) -> tuple[float, str]:
    """(largest relative difference, its place) over the reference values
    that the record holds; (0.0, "no value") when it holds none."""
    worst = (0.0, "no value")
    for key, ref in sorted(reference.items()):
        value = values.get(key)
        if value is None:
            continue
        scale = max(abs(value), abs(ref))
        diff = math.inf if math.isnan(value) else abs(value - ref) / scale if scale else 0.0
        worst = max(worst, (diff, f"{where} {key}"))
    return worst


def main(names: list[str]) -> int:
    # one BLAS thread, as the benchmark workers run; set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from run import check_job, load_record, load_reference, reference_values
    from workloads import WORKLOADS, output_path, write_inputs
    from uotlab import cli

    chosen, unknown = {}, []
    for name in names or sorted(WORKLOADS):
        workload, _, job_name = name.partition("/")
        picked = {job for job in WORKLOADS.get(workload, ())
                  if job.name == job_name or not job_name}
        if picked:
            chosen[workload] = chosen.get(workload, set()) | picked
        else:
            unknown.append(name)
    if unknown:
        print(f"unknown workload(s) or job(s): {', '.join(unknown)}; choose from "
              f"{', '.join(sorted(WORKLOADS))}, each alone or as WORKLOAD/JOB", file=sys.stderr)
        return 1
    failed_total = 0
    for workload, picked in chosen.items():
        jobs = [job for job in WORKLOADS[workload] if job in picked]
        failed, worst = 0, (0.0, "no value")
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
                    record, ref = load_record(output_path(workdir, job)), reference.get(job.name)
                    checks = check_job(job, outcome, record, ref)
                    if ref is None:
                        checks.append(("reference recorded", False, "no reference values"))
                    elif record is not None and all(name != "record format"
                                                    for name, _, _ in checks):
                        worst = max(worst, largest_difference(reference_values(job, record), ref,
                                                              f"{seed}/{job.name}"))
                    bad = [(name, detail) for name, passed, detail in checks if not passed]
                    if bad:
                        failed += 1
                        print(f"FAIL {workload}/{seed}/{job.name}")
                        for name, detail in bad:
                            print(f"  {name} ({detail})")
        print(f"{workload}: {failed} of {len(jobs) * len(SEEDS)} jobs fail; largest relative "
              f"difference from the reference {worst[0]:.3g} ({worst[1]})")
        failed_total += failed
    return 1 if failed_total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
