"""Record the reference values that run.py checks every output against.

    python3 perfbench/record_reference.py --seeds 0-31 [--workload lp-lifts ...]

Runs each workload once per seed, untraced, with the inputs and worker
process run.py uses, and stores the primal-type values of every job's record
(see ``run.reference_values``) in reference.json, next to the seeds already
there.  A job whose record fails any other output check is not recorded and
the script exits 1.  Re-record only in a change that means to alter results,
and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
from workloads import WORKLOADS, output_path, write_inputs


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,2,5-9")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    try:
        with open(run.REFERENCE_FILE, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    status = 0
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    try:
        for workload in args.workload or sorted(WORKLOADS):
            jobs = WORKLOADS[workload]
            for seed in parse_seeds(args.seeds):
                write_inputs(workload, seed, workdir)
                result = run.run_worker(workdir, f"{workload}-{seed}",
                                        run.job_specs(jobs, workdir, seed),
                                        time.perf_counter() + run.DEADLINE_S)
                entry = {}
                for job, outcome in zip(jobs, result["jobs"]):
                    record = run.load_record(output_path(workdir, job))
                    failed = [c for c in run.check_job(job, outcome, record, None) if not c[1]]
                    if failed:
                        print(f"{workload} seed {seed} {job.name}: not recorded, {failed}")
                        status = 1
                        continue
                    entry[job.name] = run.reference_values(job, record)
                table.setdefault(workload, {})[str(seed)] = entry
                print(f"{workload} seed {seed}: {len(entry)}/{len(jobs)} jobs recorded",
                      flush=True)
    finally:
        run.remove_workdir(workdir)
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
