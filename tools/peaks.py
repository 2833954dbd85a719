"""Print the peak resident memory of every seed-1 benchmark job, each job
run alone in a fresh benchmark worker process, and of each workload's jobs
run in sequence in one.

    python3 tools/peaks.py [WORKLOAD ...]

For each job of the named workloads of ``perfbench/workloads.py`` (default:
all of them), one ``perfbench/worker.py`` process runs that job alone on
seed 1, with BLAS pinned to one thread as in the benchmark's repetitions,
and reports its ``ru_maxrss``.  A worker that runs no job gives the
import-only baseline (``uotlab.cli`` and numpy), printed next to every job.
A workload's ``peak_rss_mb`` is at least the peak of its largest job, so
this names the job that sets it.  The last line of each workload is the
peak of one worker that runs all of its seed-1 jobs in benchmark order:
the number whose median ``peak_rss_mb`` reports.  It can exceed every
job's peak alone, because what an earlier job allocated shapes the heap of
a later one.  MB are 10^6 bytes, as the benchmark reports them.  Exits 1
if a job exits non-zero or raises, else 0.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from run import DEADLINE_S, job_specs, run_worker  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEED = 1


def _peak_mb(workdir: str, tag: str, jobs: list[dict]) -> tuple[float, dict]:
    result = run_worker(workdir, tag, jobs, time.perf_counter() + DEADLINE_S)
    return result["ru_maxrss_kb"] * 1024 / 1e6, result


def main(workloads: list[str]) -> int:
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        baseline, _ = _peak_mb(workdir, "import", [])
        for workload in workloads:
            write_inputs(workload, SEED, workdir)
            specs = job_specs(WORKLOADS[workload], workdir, SEED)
            runs = [(spec["name"], [spec]) for spec in specs] + [("in-sequence", specs)]
            for name, jobs in runs:
                peak, result = _peak_mb(workdir, f"{workload}-{name}", jobs)
                broken = [job for job in result["jobs"] if job["exit_code"] != 0]
                failed += len(broken)
                status = "".join(f"  {job['name']} failed (exit code {job['exit_code']})"
                                 for job in broken)
                print(f"{workload + '/' + name:<30} {peak:6.1f} MB"
                      f"  (import only {baseline:.1f} MB){status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(WORKLOADS)))
