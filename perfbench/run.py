"""uotlab benchmark: one workload, run through ``uotlab.cli.run`` in fresh
processes, with every output checked.

    python3 perfbench/run.py --workload x-sinkhorn --seed 1 --seconds 30 --trace 0

Run from the repository root.  The seed generates the measure files (see
workloads.py).  Each repetition of the workload runs in its own worker
process with BLAS pinned to one thread; repetitions continue while the next
one still fits in ``--seconds`` (at least two, so exact counts can be
compared).  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of traced repetitions.
Everything above that line is the human-readable report: environment,
every output check, timings with sample counts and per-layer self times.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Job, output_path, write_inputs  # noqa: E402

BLAS_THREADS = 1
SETUP_PROCESSES_PER_REP = 6
MIN_REPS = 2
# every worker must end by this many seconds after the run starts
DEADLINE_S = 170
REFERENCE_FILE = os.path.join(HERE, "reference.json")
REFERENCE_REL_TOL = 1e-6
# keys of a CLI record that hold clock readings, not results
TIMING_KEYS = ("wallClockSeconds", "seconds")
SUBCOMMANDS = ("solve-x", "solve-y", "sweep-eps", "identities", "lift-check")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("UOTLAB_LOG", None)
    # cache bytecode (under src/, git-ignored) as an installed CLI would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def job_specs(jobs, workdir: str, seed: int) -> list[dict]:
    """What a worker needs to run each job: its name, subcommand and argv."""
    return [{"name": job.name, "subcommand": job.subcommand,
             "argv": job.argv(workdir, seed)} for job in jobs]


def run_worker(workdir: str, tag: str, jobs: list[dict], deadline: float,
               trace: bool = False, setup_only: bool = False) -> dict:
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    spec = {"src": SRC, "jobs": jobs, "trace": trace, "setup_only": setup_only,
            "result": result_path}
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              cwd=ROOT, env=worker_env(), stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {tag} did not finish before the run's "
                             f"{DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {tag} exited with code {proc.returncode}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:  # another run still works there
        pass


def load_record(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Output checks: computed from the records, not from the solvers' verdicts
# ---------------------------------------------------------------------------

def reference_values(job: Job, record: dict) -> dict:
    """The primal-type values of a record that the reference pins."""
    if job.subcommand in ("solve-x", "solve-y"):
        return {"primal": record["report"]["primal"]}
    if job.subcommand == "sweep-eps":
        return {f"value@eps={row['eps']}": row["value"] for row in record["rows"]}
    return {k: v for k, v in record["values"].items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
            and "residual" not in k}


def _check_record(job: Job, record: dict) -> list[tuple[str, bool, str]]:
    checks = []

    def at_most(name, value, limit):
        checks.append((f"{name} <= {limit:.3g}", value <= limit, f"{value:.3g}"))

    if job.subcommand == "solve-x":
        report, tol = record["report"], record["config"]["tol"]
        at_most("gap", report["gap"], tol * (1.0 + abs(report["primal"])))
        at_most("max first-order residual", max(report["marginal_residuals"]),
                max(tol, 1e-9))
    elif job.subcommand == "solve-y":
        report, tol = record["report"], record["config"]["tol"]
        at_most("marginal residual 0", report["marginal_residuals"][0], tol)
        at_most("marginal residual 1", report["marginal_residuals"][1], tol)
    elif job.subcommand == "sweep-eps":
        rows = record["rows"]
        ok = len(rows) > 0 and all(row["converged"] for row in rows)
        checks.append(("every row converged", ok,
                       f"{sum(row['converged'] for row in rows)}/{len(rows)}"))
    elif job.subcommand == "lift-check":
        limits = {"extended_vs_sinkhorn": 1e-3, "second_order_vs_y": 1e-9,
                  "lifted_vs_classical": 1e-9}
        key = {"x-extended": "extended_vs_sinkhorn", "second-order": "second_order_vs_y",
               "balanced": "lifted_vs_classical"}[record["config"]["which"]]
        at_most(key, record["residuals"][key], limits[key])
    elif job.subcommand == "identities":
        at_most("residual_w2", record["values"]["residual_w2"], 1e-9)
        at_most("residual_w3", record["values"]["residual_w3"], 1e-9)
    return checks


def check_job(job: Job, outcome: dict, record, reference) -> list[tuple[str, bool, str]]:
    """(check, passed, detail) for one job of one repetition."""
    code, error = outcome["exit_code"], outcome["error"]
    detail = f"raised {error.strip().splitlines()[-1]}" if error else f"exit {code}"
    checks = [("exit code 0", code == 0 and error is None, detail)]
    if record is None:
        return checks + [("record written", False, "no JSON record")]
    try:
        checks += _check_record(job, record)
        if reference is not None:
            values = reference_values(job, record)
            for key, ref in sorted(reference.items()):
                value = values.get(key)
                ok = value is not None and math.isclose(value, ref, rel_tol=REFERENCE_REL_TOL,
                                                        abs_tol=1e-15)
                checks.append((f"{key} within {REFERENCE_REL_TOL:g} rel of reference", ok,
                               f"{value!r} vs {ref!r}"))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        checks.append(("record format", False, f"{type(exc).__name__}: {exc}"))
    return checks


def load_reference(workload: str, seed: int):
    """{job: {key: value}} recorded for this workload and seed, or None."""
    try:
        with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------

def exclusive_times(spans: list) -> dict:
    """Self time of every span: the part of its interval during which none
    of its children is open.  Where spans on several threads are innermost
    at once, each gets an equal share of that interval, so the self times
    of all spans sum to the time covered by spans (never more than wall)."""
    parent = {s[0]: s[5] for s in spans}
    events = []
    for s in spans:
        events.append((s[3], 1, s[0]))    # starts: parents (lower id) first
        events.append((s[4], 0, -s[0]))   # ends come first; children first
    events.sort()
    open_ids, leaves = set(), set()
    open_children = defaultdict(int)
    excl = defaultdict(float)
    last = None
    for t, kind, key in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for sid in leaves:
                excl[sid] += share
        last = t
        sid = key if kind == 1 else -key
        p = parent[sid]
        if kind == 1:
            open_ids.add(sid)
            leaves.add(sid)
            if p in open_ids:
                open_children[p] += 1
                leaves.discard(p)
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if p in open_ids:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return excl


def layer_metrics(spans: list, records: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, and the self time of
    every layer."""
    by_id = {s[0]: s for s in spans}

    def ancestors(s):
        p = s[5]
        while p is not None:
            yield by_id[p]
            p = by_id[p][5]

    def outermost(names):
        """Spans of these functions not enclosed in another one of them."""
        return [s for s in spans if s[1] in names
                and all(a[1] not in names for a in ancestors(s))]

    def total(names):
        return sum(s[4] - s[3] for s in outermost(names))

    def count(names, key):
        return sum(s[6].get(key, 0) for s in spans if s[1] in names)

    def ratio(a, b):
        return a / b if b else 0.0

    excl = exclusive_times(spans)
    self_by_layer = defaultdict(float)
    for s in spans:
        self_by_layer[s[2]] += excl.get(s[0], 0.0)

    m = {}
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_s"] = total({f"cli.run:{sub}"})
    m["cli.self_s"] = self_by_layer["cli"]
    sweep_rows_s = sum(row["seconds"] for rec in records.values()
                       if rec and "rows" in rec for row in rec["rows"])
    m["cli.sweep_overlap"] = ratio(sweep_rows_s, m["cli.sweep-eps_s"])
    m["measures.load_s"] = total({"load_measure"})
    m["measures.plan_dict_s"] = total({"plan_to_dict"})
    m["costs.build_s"] = total({"sqeuclidean_matrix", "hk_matrix"})

    m["solver_x.solve_s"] = total({"solve_x_eps"})
    m["solver_x.iterations"] = count({"solve_x_eps"}, "iterations")
    m["solver_x.s_per_iter"] = ratio(m["solver_x.solve_s"], m["solver_x.iterations"])
    m["solver_x.eval_s"] = sum(
        s[4] - s[3] for s in spans if s[1] in ("eval_primal_eps", "eval_dual_eps")
        and any(a[1] == "solve_x_eps" for a in ancestors(s)))
    m["solver_x.eval_share"] = ratio(m["solver_x.eval_s"], m["solver_x.solve_s"])

    m["identities.sinkhorn_s"] = total({"balanced_sinkhorn"})
    m["identities.sinkhorn_iters"] = count({"balanced_sinkhorn"}, "iterations")
    m["identities.s_per_iter"] = ratio(m["identities.sinkhorn_s"],
                                       m["identities.sinkhorn_iters"])

    m["solver_y.solve_s"] = total({"solve_y_eps"})
    m["solver_y.iterations"] = count({"solve_y_eps"}, "iterations")
    m["solver_y.s_per_iter"] = ratio(m["solver_y.solve_s"], m["solver_y.iterations"])

    m["simplex.lp_s"] = total({"solve_lp"})
    m["simplex.lp_calls"] = sum(1 for s in spans if s[1] == "solve_lp")
    m["simplex.pivots"] = count({"solve_lp"}, "iterations")
    m["simplex.s_per_pivot"] = ratio(m["simplex.lp_s"], m["simplex.pivots"])
    m["simplex.matrix_mb"] = max((s[6]["matrix_bytes"] for s in spans if s[1] == "solve_lp"),
                                 default=0) / 1e6
    m["simplex.transport_s"] = total({"transport_lp"})

    m["lifting.solve_s"] = total({s[1] for s in spans if s[2] == "lifting"})
    m["lifting.self_s"] = self_by_layer["lifting"]
    return m, dict(self_by_layer)


def exact_counts(spans: list) -> dict:
    """Counts that must repeat exactly from one repetition to the next."""
    out = defaultdict(list)
    for s in spans:
        if "iterations" in s[6]:
            out[s[1]].append(s[6]["iterations"])
    # sorted: the sweep's threads may start their solves in either order
    return {name: sorted(values) for name, values in out.items()}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def describe(name: str, unit: str, samples: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    line = f"{name}: median {statistics.median(samples):.6g} {unit}"
    top = math.floor(100 * (1 - 10 / n)) if n >= 11 else None
    if top is None:
        line += " (no percentile has ten samples beyond it)"
    else:
        k = max(0, math.ceil(top / 100 * n) - 1)
        line += f", p{top} {sorted(samples)[k]:.6g} {unit}"
    return line + f", n={n}"


def environment(worker_result: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = 0
    pkg = os.path.join(SRC, "uotlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "r", encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": worker_result["python"],
        "numpy": worker_result["numpy"],
        "git_commit": commit,
        "src_uotlab_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "uotlab", "cli.py")):
        print(f"error: no uotlab sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _run(args, workdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_workdir(workdir)


def _run(args, workdir: str) -> int:
    jobs = WORKLOADS[args.workload]
    write_inputs(args.workload, args.seed, workdir)
    specs = job_specs(jobs, workdir, args.seed)
    reference = load_reference(args.workload, args.seed)

    deadline = time.perf_counter() + DEADLINE_S
    setup_samples = []

    # untraced and traced repetitions; a traced run alternates them
    plan = (lambda i: i % 2 == 0) if args.trace else (lambda i: False)
    min_traced = MIN_REPS if args.trace else 0
    reps = []
    start = time.perf_counter()
    while True:
        traced = plan(len(reps))
        for job in jobs:  # a job that writes nothing must not pass on a stale record
            for suffix in (".json", ".csv"):
                if os.path.exists(output_path(workdir, job, suffix)):
                    os.remove(output_path(workdir, job, suffix))
        setup_samples += [run_worker(workdir, f"setup{len(setup_samples)}", [], deadline,
                                     setup_only=True)["setup_s"]
                          for _ in range(SETUP_PROCESSES_PER_REP)]
        result = run_worker(workdir, f"rep{len(reps)}", specs, deadline, trace=traced)
        records = {job.name: load_record(output_path(workdir, job)) for job in jobs}
        reps.append((traced, result, records))
        setup_samples.append(result["setup_s"])
        n_traced = sum(1 for t, _, _ in reps if t)
        n_plain = len(reps) - n_traced
        elapsed = time.perf_counter() - start
        enough = (len(reps) >= MIN_REPS and n_traced >= min_traced
                  and (n_plain >= 1 or not args.trace))
        if enough and elapsed + result["wall_s"] > args.seconds:
            break

    env = environment(reps[0][1])
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetitions "
          f"({sum(1 for t, _, _ in reps if t)} traced), reference "
          + ("recorded for this seed" if reference else "not recorded for this seed: "
             "reference checks not applied"))

    # output checks on every job of every repetition
    attempted = failed = 0
    correct = True
    for i, (traced, result, records) in enumerate(reps):
        for job, outcome in zip(jobs, result["jobs"]):
            checks = check_job(job, outcome, records[job.name],
                               reference.get(job.name) if reference else None)
            attempted += 1
            ok = all(passed for _, passed, _ in checks)
            failed += not ok
            if i == 0 or not ok:
                for name, passed, detail in checks:
                    print(f"  rep {i} {job.name}: {'ok  ' if passed else 'FAIL'} {name} ({detail})")
    print(f"fail_rate: {failed}/{attempted} = {failed / attempted:.6g}")
    correct &= failed == 0

    # steadiness: identical records across repetitions, traced or not
    base = {name: strip_timing(rec) for name, rec in reps[0][2].items()}
    for i, (_, _, records) in enumerate(reps[1:], start=1):
        for name, rec in records.items():
            if strip_timing(rec) != base[name]:
                print(f"  NOT STEADY: record of {name} in rep {i} differs from rep 0")
                correct = False
    traced_reps = [(result, records) for t, result, records in reps if t]
    plain_reps = [result for t, result, _ in reps if not t]
    if traced_reps:
        counts = [exact_counts(result["spans"]) for result, _ in traced_reps]
        if any(c != counts[0] for c in counts[1:]):
            print("  NOT STEADY: traced iteration or pivot counts differ between repetitions")
            correct = False
        print("exact counts: " + json.dumps(counts[0], sort_keys=True))

    walls = [r["wall_s"] for r in plain_reps]
    job_times = defaultdict(list)
    for r in plain_reps:
        for outcome in r["jobs"]:
            job_times[outcome["name"]].append(outcome["seconds"])
    print(describe("wall_s", "s", walls) if walls else "wall_s: no untraced repetition")
    print(describe("setup_s", "s", setup_samples))
    for name, samples in job_times.items():
        print("  " + describe(f"job {name}", "s", samples))

    if args.trace:
        not_traced = traced_reps[0][0]["not_traced"]
        if not_traced:
            print("not measured, no longer in the program (their metrics read 0): "
                  + ", ".join(not_traced))
        per_rep = []
        for i, (result, records) in enumerate(traced_reps):
            m, selfs = layer_metrics(result["spans"], records)
            per_rep.append(m)
            total_self = sum(selfs.values())
            print(f"self time by layer, traced rep {i}: "
                  + json.dumps({k: round(v, 6) for k, v in sorted(selfs.items())})
                  + f", sum {total_self:.6f} s, traced wall_s {result['wall_s']:.6f} s")
            if total_self > result["wall_s"] * (1 + 1e-9):
                print("  self times sum beyond traced wall_s")
                correct = False
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        traced_wall = statistics.median(r["wall_s"] for r, _ in traced_reps)
        metrics["trace.overhead"] = traced_wall / statistics.median(walls) - 1.0
        units = {"iterations": "count", "sinkhorn_iters": "count", "lp_calls": "count",
                 "pivots": "count", "matrix_mb": "MB", "sweep_overlap": "ratio",
                 "eval_share": "ratio", "overhead": "ratio"}
        out = {name: {"value": value, "unit": units.get(name.split(".", 1)[1], "s")}
               for name, value in metrics.items()}
    else:
        cpus = [r["cpu_s"] for r in plain_reps]
        rss_mb = [r["ru_maxrss_kb"] * 1024 / 1e6 for r in plain_reps]
        print(describe("cpu_s", "s", cpus))
        print(describe("peak_rss_mb", "MB", rss_mb))
        out = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss_mb), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
