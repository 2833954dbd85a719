"""Print the work of every LP that benchmark jobs solve.

    python3 tools/lpcounts.py [WORKLOAD | WORKLOAD/JOB ...] --seed N

Runs the named jobs of ``perfbench/workloads.py`` (default: every job of
lp-lifts), such as ``lp-lifts/second-order``, once, in this process, on
seed N (default 1), against the package in ``src``, with BLAS pinned to one
thread as in the benchmark's workers.  For each ``simplex.solve_lp`` call a
job makes, in call order, it prints the LP's columns (the atom tensor's
size), whether a start basis replaced phase 1 and, for each phase run, its
pivots, full pricing passes and candidate-list refills, all read from the
result's ``phases``.  It ends with the totals over every LP and over the
LPs wider than 100,000 columns.  Exits 1 when a job exits non-zero or
raises, else 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIDE = 100_000  # columns above which an LP counts as wide in the totals


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Per-LP simplex counts of benchmark jobs.")
    parser.add_argument("names", nargs="*", default=["lp-lifts"],
                        help="WORKLOAD or WORKLOAD/JOB (default: lp-lifts)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    # one BLAS thread, as the benchmark workers run; set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from uotlab import cli, simplex
    from workloads import WORKLOADS, write_inputs

    chosen = []
    for name in args.names:
        workload, _, job_name = name.partition("/")
        jobs = [job for job in WORKLOADS.get(workload, ()) if job.name == job_name or not job_name]
        if not jobs:
            parser.error(f"unknown workload or job {name!r}; choose from "
                         f"{', '.join(sorted(WORKLOADS))}, each alone or as WORKLOAD/JOB")
        chosen += [(workload, job) for job in jobs if (workload, job) not in chosen]

    results = []
    solve = simplex.solve_lp

    def counted(c, *rest, **kwargs):
        res = solve(c, *rest, **kwargs)
        results.append((len(c), res))
        return res

    simplex.solve_lp = counted
    failed = 0
    totals = {"all": [0, 0, 0, 0], "wide": [0, 0, 0, 0]}  # LPs, pivots, full passes, refills
    for workload, job in chosen:
        results.clear()
        with tempfile.TemporaryDirectory() as workdir:
            write_inputs(workload, args.seed, workdir)
            try:
                code = cli.run(job.argv(workdir, args.seed))
            except Exception:  # a raising job is a failed job; keep going
                code = traceback.format_exc().splitlines()[-1]
        if code != 0:
            failed += 1
        print(f"{workload}/{args.seed}/{job.name}: {len(results)} LPs, exit {code}")
        for columns, res in results:
            phases = "; ".join(f"phase {ph.phase}: {ph.pivots} pivots, {ph.full_passes} full "
                               f"passes, {ph.refills} refills" + (", Bland" if ph.bland else "")
                               for ph in res.phases)
            print(f"  {columns:>9,} columns  {res.status:<10} "
                  f"{'started' if res.started else 'cold   '}  {phases}")
            work = [1, sum(ph.pivots for ph in res.phases),
                    sum(ph.full_passes for ph in res.phases),
                    sum(ph.refills for ph in res.phases)]
            for key in ("all", "wide") if columns > WIDE else ("all",):
                totals[key] = [t + w for t, w in zip(totals[key], work)]
    for key, label in (("all", "every LP"), ("wide", f"LPs above {WIDE:,} columns")):
        lps, pivots, passes, refills = totals[key]
        print(f"{label}: {lps} LPs, {pivots} pivots, {passes} full passes, {refills} refills")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
