"""One workload repetition in a fresh process.

    python3 worker.py SPEC.json

SPEC names the source directory, the jobs (``cli.run`` argv lists) and
whether to trace.  The worker times the import of ``uotlab.cli`` (numpy
included), runs every job in order, and writes a JSON result with the
import time, the wall and CPU time of the jobs, per-job exit codes and
times, ``ru_maxrss`` and, when traced, the spans.  Only the standard library is imported before the timed import.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import sys
import threading
import time
import traceback

# (module, function, layer) for every public function whose calls are
# timed in a traced run.  entropy is leaf math inside the solvers, so its
# time stays with its callers.
TRACED = (
    ("measures", "load_measure", "measures"),
    ("measures", "plan_to_dict", "measures"),
    ("costs", "sqeuclidean_matrix", "costs"),
    ("costs", "hk_matrix", "costs"),
    ("solver_x", "solve_x_eps", "solver_x"),
    ("solver_x", "eval_primal_eps", "solver_x"),
    ("solver_x", "eval_dual_eps", "solver_x"),
    ("solver_y", "solve_y_eps", "solver_y"),
    ("solver_y", "solve_y_unreg", "solver_y"),
    ("simplex", "solve_lp", "simplex"),
    ("simplex", "transport_lp", "simplex"),
    ("lifting", "solve_lifted_balanced", "lifting"),
    ("lifting", "solve_lifted_balanced_eps", "lifting"),
    ("lifting", "solve_x_extended", "lifting"),
    ("lifting", "solve_x_extended_refined", "lifting"),
    ("lifting", "solve_second_order_lift", "lifting"),
    ("identities", "balanced_sinkhorn", "identities"),
    ("identities", "verify_identities", "identities"),
)


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts read off a traced call's arguments and result; empty
    when the call no longer has the shape these readers expect."""
    try:
        if name == "solve_x_eps":
            return {"iterations": result[2].iterations}
        if name == "solve_y_eps":
            return {"iterations": result[1].iterations}
        if name == "balanced_sinkhorn":
            return {"iterations": result[1]}
        if name == "solve_lp":
            rows, cols = (args[1] if len(args) > 1 else kwargs["A"]).shape
            return {"iterations": result.iterations, "matrix_bytes": rows * cols * 8}
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        pass
    return {}


class Tracer:
    """Spans kept in memory: [id, name, layer, start, end, parent, counts].

    Parents are tracked per thread.  A span opened on a thread with no open
    span (a sweep worker thread) takes the current job's span as parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.root = None
        self._root_name = ""
        self._root_start = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, fn, args: tuple, kwargs: dict):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self.spans.append([span_id, name, layer, start, end, parent,
                           _counts(name, args, kwargs, result)])
        return result

    def open_root(self, name: str) -> None:
        self.root = next(self._ids)
        self._root_name = name
        self._root_start = time.perf_counter()
        self._stack().append(self.root)

    def close_root(self) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append([self.root, self._root_name, "cli", self._root_start, end, None, {}])
        self.root = None

    def install(self) -> list[str]:
        """Rebind every module-global name through which a traced function
        is reached (``from .x import f`` copies the binding) to a wrapper.
        Returns the traced functions that no longer exist."""
        import importlib

        modules = [m for name, m in sys.modules.items()
                   if name == "uotlab" or name.startswith("uotlab.")]
        missing = []
        for mod_name, fn_name, layer in TRACED:
            original = getattr(importlib.import_module(f"uotlab.{mod_name}"), fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, fn_name, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        return missing

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs)
        return wrapper


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import uotlab.cli as cli
    setup_s = time.perf_counter() - t0
    import numpy

    result = {"setup_s": setup_s, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if spec.get("setup_only"):
        _dump(spec["result"], result)
        return 0

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        result["not_traced"] = tracer.install()
    jobs = []
    first, first_cpu = time.perf_counter(), time.process_time()
    for job in spec["jobs"]:
        start = time.perf_counter()
        if tracer is not None:
            tracer.open_root(f"cli.run:{job['subcommand']}")
        code, error = None, None
        try:
            code = cli.run(job["argv"])
        except Exception:  # a raising job is a failed job, not a failed run
            error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.close_root()
        jobs.append({"name": job["name"], "exit_code": code, "error": error,
                     "seconds": time.perf_counter() - start})
    result["wall_s"] = time.perf_counter() - first
    result["cpu_s"] = time.process_time() - first_cpu
    result["jobs"] = jobs
    result["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.spans
    _dump(spec["result"], result)
    return 0


def _dump(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
