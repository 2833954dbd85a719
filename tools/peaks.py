"""Print the peak memory of every seed-1 benchmark job: its peak resident
memory, run alone in a fresh benchmark worker process, and its traced
allocation peak, run in this process; then the resident peak of each
workload's jobs run in sequence in one worker.

    python3 tools/peaks.py [WORKLOAD ...]

For each job of the named workloads of ``perfbench/workloads.py`` (default:
all of them), one ``perfbench/worker.py`` process runs that job alone on
seed 1, with BLAS pinned to one thread as in the benchmark's repetitions,
and reports its ``ru_maxrss``.  A worker that runs no job gives the
import-only baseline (``uotlab.cli`` and numpy), printed next to every job.
A workload's ``peak_rss_mb`` is at least the peak of its largest job, so
this names the job that sets it.  Once every worker has run (a worker
started from a process that has run jobs would inherit that process's
resident peak), each job runs once more, in this process under
``tracemalloc``, against the same ``src``: the peak of the Python and numpy
allocations made while it runs.  ``ru_maxrss`` depends on
how the allocator lays out the heap and can land on one of two values from
run to run; the traced peak counts only the allocations, so it repeats
exactly and shows what a change to the program's arrays does.  The last
line of each workload is the peak of one worker that runs all of its seed-1
jobs in benchmark order: the number whose median ``peak_rss_mb`` reports.
It can exceed every job's peak alone, because what an earlier job allocated
shapes the heap of a later one.  MB are 10^6 bytes, as the benchmark
reports them.  Exits 1 if a job exits non-zero or raises, else 0.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
import tracemalloc
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one BLAS thread in this process too, as the benchmark workers run; set
# before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from run import DEADLINE_S, job_specs, run_worker  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEED = 1


def _peak_mb(workdir: str, tag: str, jobs: list[dict]) -> tuple[float, dict]:
    result = run_worker(workdir, tag, jobs, time.perf_counter() + DEADLINE_S)
    return result["ru_maxrss_kb"] * 1024 / 1e6, result


def _traced_mb(argv: list[str]) -> tuple[float, object]:
    """The traced allocation peak of one in-process ``cli.run`` and its exit
    code, or the last line of its traceback when it raises."""
    from uotlab import cli

    tracemalloc.start()
    try:
        code = cli.run(argv)
    except Exception:  # a raising job is a failed job; keep going
        code = traceback.format_exc().splitlines()[-1]
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6, code


def main(workloads: list[str]) -> int:
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        baseline, _ = _peak_mb(workdir, "import", [])
        runs = []
        for workload in workloads:
            write_inputs(workload, SEED, workdir)
            specs = job_specs(WORKLOADS[workload], workdir, SEED)
            runs += [(workload, spec["name"], [spec]) for spec in specs]
            runs.append((workload, "in-sequence", specs))
        # every worker runs before any job runs in this process
        peaks = [_peak_mb(workdir, f"{workload}-{name}", jobs) for workload, name, jobs in runs]
        for (workload, name, jobs), (peak, result) in zip(runs, peaks):
            broken = [(job["name"], job["exit_code"]) for job in result["jobs"]
                      if job["exit_code"] != 0]
            traced = ""
            if len(jobs) == 1:
                traced_peak, code = _traced_mb(jobs[0]["argv"])
                traced = f"  traced {traced_peak:6.2f} MB"
                if code != 0:
                    broken.append((f"{name} in this process", code))
            failed += len(broken)
            status = "".join(f"  {job} failed (exit code {code})" for job, code in broken)
            print(f"{workload + '/' + name:<30} {peak:6.1f} MB{traced}"
                  f"  (import only {baseline:.1f} MB){status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(WORKLOADS)))
