"""Command-line front end: measure ingestion, solver dispatch, sweeps,
cross-formulation comparisons, and the grid-measure identity checks.

Structured results go to JSON: one line with sorted keys from the C
encoder, so a re-read record re-serialises byte-identically.  Records are
strict JSON: a non-finite value is written as the string "inf", "-inf" or
"nan".  Eps sweeps also emit a CSV (formulation, eps, value, gap,
iterations, seconds).  Exit codes: 0 on success with converged solves, 2
when a solver failed to converge or raised RuntimeError (with ``error: ...``
on stderr and no record), a lift-check LP ended neither optimal nor
infeasible or a lift-check residual missed its bound, 1 on input errors.
UOTLAB_LOG selects the log level (error, info, debug).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from . import __version__
from .costs import CostMatrix, hk_matrix, sqeuclidean_matrix
from .identities import SINKHORN_TOL, balanced_sinkhorn, grid_measure, verify_identities
from .lifting import (
    solve_lifted_balanced,
    solve_lifted_balanced_eps,
    solve_second_order_lift,
    solve_x_extended_refined,
)
from .measures import (
    DiscreteMeasure,
    load_measure,
    plan_to_dict,
    plan_weights_from_dict,
    Plan,
)
from .simplex import balanced_masses, transport_lp
from .solver_x import SolveReport, SolverConfig, default_nu_x, solve_x_eps
from .solver_y import (InfeasibleProblemError, RadialGrid, default_grids, mass_cap, solve_y_eps,
                       solve_y_unreg)

log = logging.getLogger("uotlab")


def _setup_logging() -> None:
    level = os.environ.get("UOTLAB_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def _read_file(kind: str, path: str, read):
    """``read(path)``, with a missing file, or content that ``read`` rejects
    (bad JSON, a missing field, a wrong type or shape), a ValueError."""
    try:
        return read(path)
    except FileNotFoundError as exc:
        raise ValueError(f"{kind} file not found: {path}") from exc
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"malformed {kind} file {path}: {exc}") from exc


def _json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cost_file(path: str) -> CostMatrix:
    """The cost of a JSON file: a plan object or a bare nested list."""
    data = _json(path)
    return CostMatrix(plan_weights_from_dict(data) if isinstance(data, dict) else data)


def _cost_matrix(spec: str, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> CostMatrix:
    if spec == "sqeuclidean":
        return sqeuclidean_matrix(mu0.ground, mu1.ground)
    if spec == "hk":
        return hk_matrix(mu0.ground, mu1.ground)
    if spec.startswith("file:"):
        return _read_file("cost", spec[5:], _cost_file)
    raise ValueError(f"unknown cost spec {spec!r}; use sqeuclidean, hk or file:<path>")


def _load_nu(path: str, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> Plan:
    return _read_file("reference", path,
                      lambda p: Plan(mu0.ground, mu1.ground, plan_weights_from_dict(_json(p))))


def _instance(args) -> tuple[float, DiscreteMeasure, DiscreteMeasure, CostMatrix]:
    """The clock start, both measures and the cost of a subcommand's instance."""
    t0 = time.perf_counter()
    mu0 = _read_file("measure", args.mu0, load_measure)
    mu1 = _read_file("measure", args.mu1, load_measure)
    return t0, mu0, mu1, _cost_matrix(args.cost, mu0, mu1)


def _balanced(mu0: DiscreteMeasure, mu1: DiscreteMeasure, cost: CostMatrix, eps: float,
              nu: Plan, **limits) -> tuple[np.ndarray, int, float, tuple[float, float]]:
    """``balanced_sinkhorn`` against the reference ``nu``, its value in the KL
    convention (c, g) + eps * (sum g log(g / nu) - g(X) + nu(X)) of the
    other solves: the returned value plus eps * (nu(X) - mu0(X))."""
    gamma, iters, value, residuals = balanced_sinkhorn(
        mu0.weights, mu1.weights, cost.values, eps, nu.weights, **limits)
    return gamma, iters, value + eps * (nu.total_mass - mu0.total_mass), residuals


def _strict(value):
    """``value`` with every non-finite float written as the string "inf",
    "-inf" or "nan", which strict JSON can hold."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_record(path: str, args, subcommand: str, t0: float, **fields) -> None:
    """Write a subcommand's record: the echoed arguments, the version,
    ``fields`` and the wall-clock seconds since ``t0``, as strict JSON."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    record = {"config": {**config, "subcommand": subcommand}, "version": __version__,
              "wallClockSeconds": time.perf_counter() - t0, **fields}
    try:
        line = json.dumps(record, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float somewhere: the rare slow path
        line = json.dumps(_strict(record), sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line + "\n")


def emit_convergence_csv(rows: list[dict], path: str) -> None:
    """Write sweep rows with the stable column order
    (formulation, eps, value, gap, iterations, seconds)."""
    columns = ["formulation", "eps", "value", "gap", "iterations", "seconds"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve_x(args) -> int:
    t0, mu0, mu1, cost = _instance(args)
    nu = _load_nu(args.nu, mu0, mu1) if args.nu else None  # None: solve_x_eps's default
    config = SolverConfig(eps=args.eps, max_iters=args.max_iters, tolerance=args.tol)
    if args.entropy == "balanced":
        # sharp marginals: plain balanced scaling against the reference
        if not balanced_masses(mu0.total_mass, mu1.total_mass):
            raise ValueError("balanced marginal entropies need equal masses")
        if nu is None:
            nu = default_nu_x(mu0, mu1)
        gamma, iters, value, residuals = _balanced(
            mu0, mu1, cost, config.eps, nu, tol=config.tolerance, max_iters=config.max_iters)
        report = SolveReport(value, value, 0.0, iters, residuals,
                             max(residuals) <= config.tolerance)
        plan = Plan(mu0.ground, mu1.ground, gamma)
    else:
        plan, phi, report = solve_x_eps(mu0, mu1, cost, nu, config)
    extra = {"plan": plan_to_dict(plan)} if args.emit_plan else {}
    _write_record(args.out, args, "solve-x", t0, report=asdict(report), **extra)
    return 0 if report.converged else 2


def _cmd_solve_y(args) -> int:
    t0, mu0, mu1, cost = _instance(args)
    grids = default_grids(mu0, mu1, args.p, n_nodes=args.radial_nodes,
                          smin_frac=args.smin_frac)
    config = SolverConfig(eps=args.eps, max_iters=args.max_iters, tolerance=args.tol)
    alpha, report = solve_y_eps(mu0, mu1, cost, args.p, grids, None, config)
    _write_record(args.out, args, "solve-y", t0, report=asdict(report))
    return 0 if report.converged else 2


def _cmd_sweep_eps(args) -> int:
    t0, mu0, mu1, cost = _instance(args)
    try:
        eps_list = [float(tok) for tok in args.eps_list.split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"bad eps list {args.eps_list!r}") from exc
    distinct = []
    for eps in eps_list:
        if eps in distinct:
            log.warning("duplicate eps %s in sweep; dropping", eps)
        else:
            distinct.append(eps)
    eps_list = sorted(distinct, reverse=True)
    if len(eps_list) < 2:
        raise ValueError("a sweep needs at least two distinct eps values")

    def solve_one(eps: float) -> dict:
        start = time.perf_counter()
        config = SolverConfig(eps=eps, max_iters=args.max_iters, tolerance=args.tol)
        if args.formulation == "x":
            _, _, report = solve_x_eps(mu0, mu1, cost, None, config)
        else:
            grids = default_grids(mu0, mu1, args.p, n_nodes=args.radial_nodes,
                                  smin_frac=args.smin_frac)
            _, report = solve_y_eps(mu0, mu1, cost, args.p, grids, None, config)
        return {
            "formulation": args.formulation,
            "eps": eps,
            "value": report.primal,
            "gap": report.gap,
            "iterations": report.iterations,
            "seconds": time.perf_counter() - start,
            "converged": report.converged,
        }

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(solve_one, eps_list))
    else:
        rows = [solve_one(eps) for eps in eps_list]
    emit_convergence_csv(rows, args.out)
    if args.report:
        _write_record(args.report, args, "sweep-eps", t0, rows=rows)
    return 0 if all(r["converged"] for r in rows) else 2


def _cmd_compare(args) -> int:
    t0, mu0, mu1, cost = _instance(args)
    nu = default_nu_x(mu0, mu1)
    config = SolverConfig(eps=args.eps, max_iters=args.max_iters, tolerance=args.tol)
    grids = default_grids(mu0, mu1, args.p, n_nodes=args.radial_nodes,
                          smin_frac=args.smin_frac)

    _, _, report_x = solve_x_eps(mu0, mu1, cost, nu, config)
    _, value_ext = solve_x_extended_refined(mu0, mu1, cost, nu, args.eps, args.p)
    _, report_y = solve_y_eps(mu0, mu1, cost, args.p, grids, None, config)

    values = {
        "solve_x_eps": report_x.primal,
        "solve_x_extended": value_ext,
        "solve_y_eps": report_y.primal,
    }
    names = sorted(values)
    residuals = {
        f"{a}_vs_{b}": abs(values[a] - values[b])
        for i, a in enumerate(names) for b in names[i + 1:]
    }
    _write_record(args.out, args, "compare", t0, values=values, residuals=residuals,
                  reports={"x": asdict(report_x), "y": asdict(report_y)})
    return 0 if (report_x.converged and report_y.converged) else 2


def _cmd_lift_check(args) -> int:
    t0, mu0, mu1, cost = _instance(args)
    grid = RadialGrid.geometric(max(mass_cap(mu0, mu1, args.p), 1e-9),
                                n_nodes=args.radial_nodes, smin_frac=args.smin_frac)
    values: dict = {}
    residuals: dict = {}
    converged = True

    if args.which == "balanced":
        result = solve_lifted_balanced(mu0, mu1, cost, args.p, grid)
        values["lifted_balanced"] = result.value
        values["status"] = result.status
        ot = transport_lp(mu0.weights, mu1.weights, cost.values)
        values["classical_ot"] = ot.value
        converged = {result.status, ot.status} <= {"optimal", "infeasible"}
        if result.optimal and ot.optimal:
            residuals["lifted_vs_classical"] = abs(result.value - ot.value)
    elif args.which == "balanced-eps":
        nu = default_nu_x(mu0, mu1)
        s_grid = RadialGrid(np.array([0.0, 1.0]), 1.0)
        result = solve_lifted_balanced_eps(mu0, mu1, cost, nu, args.p, (s_grid, grid), args.eps)
        values["lifted_balanced_eps"] = result.value
        values["status"] = result.status
        converged = result.status in ("optimal", "infeasible")
        if result.optimal:
            ref = _balanced(mu0, mu1, cost, args.eps, nu)[2]
            values["balanced_entropic"] = ref
            residuals["lifted_eps_vs_entropic"] = abs(result.value - ref)
    elif args.which == "x-extended":
        config = SolverConfig(eps=args.eps, max_iters=args.max_iters, tolerance=args.tol)
        nu = default_nu_x(mu0, mu1)
        _, value = solve_x_extended_refined(mu0, mu1, cost, nu, config.eps, args.p)
        _, _, report = solve_x_eps(mu0, mu1, cost, nu, config)
        values["solve_x_extended"] = value
        values["solve_x_eps"] = report.primal
        residuals["extended_vs_sinkhorn"] = abs(value - report.primal)
        converged = report.converged
    elif args.which == "second-order":
        w_grid = RadialGrid.geometric(2.0, n_nodes=6, smin_frac=0.1)
        value = solve_second_order_lift(mu0, mu1, cost, args.p, (grid, grid, w_grid)).value
        _, y_value = solve_y_unreg(mu0, mu1, cost, args.p, (grid, grid))
        values["second_order"] = value
        values["solve_y_unreg"] = y_value
        residuals["second_order_vs_y"] = abs(value - y_value)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown lift check {args.which!r}")

    _write_record(args.out, args, "lift-check", t0, values=values, residuals=residuals)
    bounds = {"extended_vs_sinkhorn": 1e-3, "second_order_vs_y": 1e-9, "lifted_vs_classical": 1e-9}
    converged = converged and all(residuals[k] <= b for k, b in bounds.items() if k in residuals)
    return 0 if converged else 2


def _cmd_identities(args) -> int:
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    mu = grid_measure(args.grid, args.dim, rng=rng)
    nu = grid_measure(args.grid, args.dim, rng=rng)
    report = verify_identities(mu, nu, args.eps)
    _write_record(args.out, args, "identities", t0, values=report)
    return 0 if report["sinkhorn_residual"] <= SINKHORN_TOL else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``run``, as its
    arguments take milliseconds to set up; parse_args leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="uotlab",
        description="Entropic regularisation of unbalanced optimal transport",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweeps (solves stay deterministic)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_instance_args(p, eps_required=True):
        p.add_argument("--mu0", required=True)
        p.add_argument("--mu1", required=True)
        p.add_argument("--cost", required=True,
                       help="sqeuclidean | hk | file:<path>")
        if eps_required:
            p.add_argument("--eps", type=float, required=True)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--max-iters", type=int, default=10_000)
        p.add_argument("--out", required=True)

    p = sub.add_parser("solve-x", help="original-space regularised solve")
    add_instance_args(p)
    p.add_argument("--nu", default=None, help="reference plan JSON (default: normalized product)")
    p.add_argument("--entropy", choices=("kl", "balanced"), default="kl",
                   help="marginal entropy kind")
    p.add_argument("--emit-plan", action="store_true")
    p.set_defaults(func=_cmd_solve_x)

    p = sub.add_parser("solve-y", help="extended-space regularised solve")
    add_instance_args(p)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--radial-nodes", type=int, default=64)
    p.add_argument("--smin-frac", type=float, default=1e-4)
    p.set_defaults(func=_cmd_solve_y)

    p = sub.add_parser("sweep-eps", help="value/gap/iterations across an eps list")
    add_instance_args(p, eps_required=False)
    p.add_argument("--eps-list", required=True)
    p.add_argument("--formulation", choices=("x", "y"), default="x")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--radial-nodes", type=int, default=32)
    p.add_argument("--smin-frac", type=float, default=1e-2)
    p.add_argument("--report", default=None, help="optional JSON record path")
    p.set_defaults(func=_cmd_sweep_eps)

    p = sub.add_parser("compare", help="cross-formulation value comparison")
    add_instance_args(p)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--radial-nodes", type=int, default=32)
    p.add_argument("--smin-frac", type=float, default=1e-2)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("lift-check", help="verify one lifted formulation")
    add_instance_args(p, eps_required=False)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--which", required=True,
                   choices=("balanced", "balanced-eps", "x-extended", "second-order"))
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--radial-nodes", type=int, default=24)
    p.add_argument("--smin-frac", type=float, default=1e-2)
    p.set_defaults(func=_cmd_lift_check)

    p = sub.add_parser("identities", help="grid-measure identity checks")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_identities)
    return parser


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; map usage problems to input errors
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (OSError, ValueError, InfeasibleProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a solve that failed: an LP status, a tilt Newton step cap
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover - thin console wrapper
    raise SystemExit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
