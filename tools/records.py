"""Print the CLI records of every benchmark job as one sorted JSON document,
or compare those of two checkouts.

    python3 tools/records.py [ROOT]
    python3 tools/records.py ROOT_A ROOT_B

Runs every job of the three workloads in ``ROOT/perfbench/workloads.py``
once, in this process, on seeds 1 and 2, against the package in
``ROOT/src`` (ROOT defaults to this repository).  Each job's exit code and
JSON record are printed under "<workload>/<seed>/<job>", one job per line,
with clock fields removed and paths given relative to the temporary input
directory, so two checkouts that compute the same results print the same
document.  Exits 1 when any job exits non-zero or raises.

With two roots, each checkout's document is made in its own process by
this script, the jobs whose records differ (or that only one side has) are
named, each with the largest relative difference among its float fields,
its largest float difference divided by 1 + the largest |value| among
those fields (so that a rounding change in a certificate, a small
difference of O(1) numbers, reads near 1e-16 and not as a large relative
difference), each integer field that differs as its old and new values
(``report.iterations 500 → 50``), and the paths of the other fields that
differ (status, a field only one side has).  The exit code is 1 when any
job differs or either document could not be made, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import traceback

SEEDS = (1, 2)
# keys of a CLI record that hold clock readings, not results
CLOCK_KEYS = ("wallClockSeconds", "seconds")


def _clean(value, workdir: str):
    if isinstance(value, dict):
        return {k: _clean(v, workdir) for k, v in value.items() if k not in CLOCK_KEYS}
    if isinstance(value, list):
        return [_clean(v, workdir) for v in value]
    if isinstance(value, str) and value.startswith(workdir + os.sep):
        return os.path.relpath(value, workdir)
    return value


def main(root: str) -> int:
    # one BLAS thread, as the benchmark workers run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from uotlab import cli
    from workloads import WORKLOADS, output_path, write_inputs

    records, failed = {}, 0
    for workload, jobs in sorted(WORKLOADS.items()):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                write_inputs(workload, seed, workdir)
                for job in jobs:
                    entry = {}
                    try:
                        entry["exit_code"] = cli.run(job.argv(workdir, seed))
                        with open(output_path(workdir, job), encoding="utf-8") as fh:
                            entry["record"] = _clean(json.load(fh), workdir)
                    except Exception:  # a raising job is a failed job; keep going
                        entry["error"] = traceback.format_exc().splitlines()[-1]
                    if entry.get("exit_code") != 0:
                        failed += 1
                        print(f"failed: {workload}/{seed}/{job.name}", file=sys.stderr)
                    records[f"{workload}/{seed}/{job.name}"] = entry
    # one job per line, so a diff names the jobs that differ
    print("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(records[name], sort_keys=True)}"
                              for name in sorted(records)) + "\n}")
    return 1 if failed else 0


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _differences(a, b, path: str, floats: list, integers: dict, others: set) -> None:
    """Collect (a value, b value, path) of the float fields of a and b in
    ``floats``, the distinct "a → b" changes of their integer fields in
    ``integers`` (path → list of changes) and the paths of the other fields
    that differ in ``others`` (list indices written as [], so a plan counts
    once)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                _differences(a[key], b[key], sub, floats, integers, others)
            else:
                others.add(sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _differences(x, y, path + "[]", floats, integers, others)
    elif isinstance(a, float) and isinstance(b, float):
        floats.append((a, b, path))
    elif _integer(a) and _integer(b):
        if a != b and f"{a} → {b}" not in integers.get(path, []):
            integers.setdefault(path, []).append(f"{a} → {b}")
    elif json.dumps(a) != json.dumps(b):
        others.add(path)


def compare(root_a: str, root_b: str) -> int:
    docs = []
    for root in (root_a, root_b):
        run = subprocess.run([sys.executable, os.path.abspath(__file__), root],
                             stdout=subprocess.PIPE, text=True)
        try:
            docs.append(json.loads(run.stdout))
        except json.JSONDecodeError:
            print(f"no records from {root} (exit {run.returncode})", file=sys.stderr)
            return 1
    names = sorted(docs[0].keys() | docs[1].keys())
    # compared as printed, so -0.0 and 0.0 or 1 and 1.0 differ
    differ = [name for name in names
              if len({json.dumps(doc.get(name), sort_keys=True) for doc in docs}) > 1]
    for name in differ:
        floats, integers, others = [], {}, set()
        _differences(docs[0].get(name), docs[1].get(name), "", floats, integers, others)
        line = f"differs: {name}"
        if floats:
            worst, where = max((0.0 if a == b else abs(a - b) / max(abs(a), abs(b)), path)
                               for a, b, path in floats)
            scale = 1.0 + max(max(abs(a), abs(b)) for a, b, _ in floats)
            spread = max(abs(a - b) for a, b, _ in floats) / scale
            line += (f": largest relative float difference {worst:.2g} ({where}); largest "
                     f"float difference / (1 + largest |value|) {spread:.2g}")
        line += "".join(f"; {path or 'the whole entry'} {', '.join(changes)}"
                        for path, changes in sorted(integers.items()))
        print(line + "".join(f"; {path or 'the whole entry'} differs" for path in sorted(others)))
    print(f"{len(differ)} of {len(names)} job records differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else
                  os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
