import csv
import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from uotlab import cli, identities, lifting, simplex, solver_y
from uotlab.cli import run
from uotlab.simplex import transport_lp

from oracles import balanced_entropic_value


@pytest.fixture
def fixtures(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    mu0 = write("mu0.json", {"points": [[0.0, 0.0], [0.7, 0.3]], "weights": [0.8, 0.5]})
    mu1 = write("mu1.json", {"points": [[0.1, 0.0], [0.6, 0.5]], "weights": [0.6, 0.9]})
    dirac = write("dirac.json", {"points": [[0.25, 0.25]], "weights": [1.0]})
    return tmp_path, mu0, mu1, dirac


def test_solve_x_on_coincident_diracs(fixtures):
    tmp, mu0, mu1, dirac = fixtures
    out = tmp / "report.json"
    code = run(["solve-x", "--mu0", dirac, "--mu1", dirac, "--cost", "sqeuclidean",
                "--eps", "0.5", "--emit-plan", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert abs(record["report"]["primal"]) < 1e-9
    assert record["report"]["converged"] is True
    assert record["plan"]["rows"] == 1
    assert record["version"]


def test_solve_y_subcommand(fixtures):
    tmp, mu0, mu1, _ = fixtures
    out = tmp / "ry.json"
    code = run(["solve-y", "--mu0", mu0, "--mu1", mu1, "--cost", "hk",
                "--eps", "0.4", "--radial-nodes", "12", "--smin-frac", "0.02",
                "--tol", "1e-8", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["report"]["converged"] is True


def test_sweep_eps_monotone_and_csv_shape(fixtures):
    tmp, mu0, mu1, _ = fixtures
    out = tmp / "sweep.csv"
    code = run(["sweep-eps", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--eps-list", "1,0.5,0.2,0.1", "--formulation", "x", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["eps"] for r in rows] == ["1.0", "0.5", "0.2", "0.1"]
    values = [float(r["value"]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    assert list(rows[0]) == ["formulation", "eps", "value", "gap", "iterations", "seconds"]


def test_sweep_eps_rejects_single_value(fixtures):
    tmp, mu0, mu1, _ = fixtures
    code = run(["sweep-eps", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--eps-list", "0.5", "--out", str(tmp / "s.csv")])
    assert code == 1


def test_sweep_eps_solves_each_distinct_eps_once(fixtures):
    tmp, mu0, mu1, _ = fixtures
    out, report = tmp / "dup.csv", tmp / "dup.json"
    code = run(["sweep-eps", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--eps-list", "0.5,0.5,0.3", "--out", str(out), "--report", str(report)])
    assert code == 0
    with open(out, newline="") as fh:
        assert [float(row["eps"]) for row in csv.DictReader(fh)] == [0.5, 0.3]
    assert [row["eps"] for row in json.loads(report.read_text())["rows"]] == [0.5, 0.3]
    code = run(["sweep-eps", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--eps-list", "0.5,0.5", "--out", str(out)])
    assert code == 1


def test_compare_subcommand(fixtures):
    tmp, mu0, mu1, _ = fixtures
    out = tmp / "cmp.json"
    code = run(["compare", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--eps", "0.6", "--radial-nodes", "14", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert set(record["values"]) == {"solve_x_eps", "solve_x_extended", "solve_y_eps"}
    assert record["residuals"]["solve_x_eps_vs_solve_x_extended"] < 1e-2


def run_balanced_lift_check(tmp):
    """``lift-check --which balanced`` on two 2-point measures: (code, record)."""
    mu0 = tmp / "m0.json"
    mu0.write_text(json.dumps({"points": [[0.0, 0.0], [1.0, 0.0]], "weights": [0.5, 0.5]}))
    mu1 = tmp / "m1.json"
    mu1.write_text(json.dumps({"points": [[0.0, 1.0], [1.0, 1.0]], "weights": [0.4, 0.6]}))
    out = tmp / "lift.json"
    code = run(["lift-check", "--mu0", str(mu0), "--mu1", str(mu1),
                "--cost", "sqeuclidean", "--which", "balanced",
                "--radial-nodes", "8", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_lift_check_balanced(tmp_path):
    code, record = run_balanced_lift_check(tmp_path)
    assert code == 0
    assert record["residuals"]["lifted_vs_classical"] < 1e-9


def test_lift_check_exits_two_past_residual_bound(tmp_path, monkeypatch):
    def shifted_transport_lp(*args):
        res = transport_lp(*args)
        return dataclasses.replace(res, value=res.value + 1e-6)

    monkeypatch.setattr(cli, "transport_lp", shifted_transport_lp)
    code, record = run_balanced_lift_check(tmp_path)
    assert code == 2
    assert record["residuals"]["lifted_vs_classical"] > 1e-9


@pytest.mark.parametrize("status", ["iteration_limit", "unbounded"])
def test_lift_check_records_a_failed_lp_and_exits_two(tmp_path, monkeypatch, status):
    solved = lifting.atom_lp

    def failing_atom_lp(*args, **kwargs):
        return dataclasses.replace(solved(*args, **kwargs), status=status, x=None,
                                   value=math.nan)

    monkeypatch.setattr(lifting, "atom_lp", failing_atom_lp)
    code, record = run_balanced_lift_check(tmp_path)
    assert code == 2
    assert record["values"]["status"] == status
    assert "lifted_vs_classical" not in record["residuals"]


@pytest.mark.parametrize("which", ["second-order", "x-extended"])
def test_lift_check_lp_that_fails_exits_two(fixtures, capsys, monkeypatch, which):
    # both lifts' multiscale LPs end at a pivot cap, so the solve raises
    # RuntimeError: exit 2 with the error on stderr and no record
    solved = simplex.atom_lp

    def capped_atom_lp(*args, **kwargs):
        return dataclasses.replace(solved(*args, **kwargs), status="iteration_limit", x=None,
                                   value=math.nan)

    monkeypatch.setattr(simplex, "atom_lp", capped_atom_lp)
    tmp, mu0, mu1, _ = fixtures
    out = tmp / "lift.json"
    code = run(["lift-check", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--which", which, "--radial-nodes", "8", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "LP failed with status iteration_limit" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve-y", "--eps", "0.5"],
    ["--threads", "2", "sweep-eps", "--eps-list", "0.5,0.2", "--formulation", "y"],
], ids=["solve-y", "sweep-eps-y-threads"])
def test_tilt_newton_that_fails_exits_two(fixtures, capsys, monkeypatch, argv):
    monkeypatch.setattr(solver_y, "_TILT_MAX_STEPS", 1)
    tmp, mu0, mu1, _ = fixtures
    out = tmp / ("out.csv" if "sweep-eps" in argv else "out.json")
    code = run(argv + ["--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: tilt Newton for support point")
    assert not out.exists()


def test_lift_check_record_is_strict_json(fixtures):
    # unequal masses: both balanced LPs are infeasible and their values +inf
    tmp, mu0, mu1, _ = fixtures
    out = tmp / "lift.json"
    code = run(["lift-check", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--which", "balanced", "--radial-nodes", "8", "--out", str(out)])

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    record = json.loads(out.read_text(), parse_constant=reject)
    assert code == 0
    assert record["values"]["status"] == "infeasible"
    assert record["values"]["lifted_balanced"] == "inf"
    assert record["values"]["classical_ot"] == "inf"


def test_identities_subcommand(tmp_path):
    out = tmp_path / "id.json"
    code = run(["identities", "--grid", "4", "--dim", "1", "--eps", "0.2",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["values"]["residual_w2"] < 1e-9
    assert record["values"]["residual_w3"] < 1e-9
    assert record["values"]["sinkhorn_residual"] <= 1e-13


def test_record_roundtrip_byte_identical(fixtures):
    tmp, mu0, mu1, dirac = fixtures
    out = tmp / "report.json"
    run(["solve-x", "--mu0", dirac, "--mu1", dirac, "--cost", "sqeuclidean",
         "--eps", "0.5", "--out", str(out)])
    raw = out.read_text()
    rebuilt = json.dumps(json.loads(raw), sort_keys=True) + "\n"
    assert rebuilt == raw


def test_determinism_modulo_wall_clock(fixtures):
    tmp, mu0, mu1, _ = fixtures
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp / name
        run(["solve-x", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
             "--eps", "0.3", "--out", str(out)])
        record = json.loads(out.read_text())
        record.pop("wallClockSeconds")
        record["config"].pop("out")
        outs.append(json.dumps(record, sort_keys=True))
    assert outs[0] == outs[1]


def _without_clocks(value):
    if isinstance(value, dict):
        return {k: _without_clocks(v) for k, v in value.items()
                if k not in ("wallClockSeconds", "seconds", "out")}
    if isinstance(value, list):
        return [_without_clocks(v) for v in value]
    return value


def test_one_parser_serves_every_run(fixtures, capsys):
    tmp, mu0, mu1, dirac = fixtures
    jobs = [["solve-x", "--mu0", dirac, "--mu1", dirac, "--cost", "sqeuclidean",
             "--eps", "0.5", "--emit-plan"],
            ["solve-y", "--mu0", mu0, "--mu1", mu1, "--cost", "hk", "--eps", "0.4",
             "--radial-nodes", "12", "--smin-frac", "0.02", "--tol", "1e-8"],
            ["solve-x", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean", "--eps", "0.3",
             "--no-such-flag"],
            ["solve-x", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean", "--eps", "0.3"]]

    def run_all(fresh):
        seen = []
        for k, argv in enumerate(jobs):
            if fresh:
                cli._build_parser.cache_clear()
            out = tmp / f"run-{fresh}-{k}.json"
            code = run(argv + ["--out", str(out)])
            seen.append((code, _without_clocks(json.loads(out.read_text()))
                         if out.exists() else None))
        return seen

    cli._build_parser.cache_clear()
    shared = run_all(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _ in shared] == [0, 0, 1, 0]
    assert shared[0][1]["plan"]["rows"] == 1
    assert shared[1][1]["report"]["converged"] is True
    # each run with a parser of its own writes the same records
    assert run_all(fresh=True) == shared


def test_malformed_inputs_exit_one(fixtures, capsys):
    tmp, mu0, mu1, _ = fixtures
    bad = tmp / "bad.json"
    bad.write_text("{not json")
    code = run(["solve-x", "--mu0", str(bad), "--mu1", mu1, "--cost", "sqeuclidean",
                "--eps", "0.5", "--out", str(tmp / "x.json")])
    assert code == 1
    assert "bad.json" in capsys.readouterr().err

    code = run(["solve-x", "--mu0", str(tmp / "missing.json"), "--mu1", mu1,
                "--cost", "sqeuclidean", "--eps", "0.5", "--out", str(tmp / "x.json")])
    assert code == 1

    code = run(["solve-x", "--mu0", mu0, "--mu1", mu1, "--cost", "nope",
                "--eps", "0.5", "--out", str(tmp / "x.json")])
    assert code == 1

    # JSON of the wrong shape: a list for a measure, a dict for its weights,
    # a null row count for a cost
    def malformed(kind, path, argv):
        code = run(["solve-x", *argv, "--eps", "0.5", "--out", str(tmp / "x.json")])
        assert code == 1
        assert f"malformed {kind} file {path}: " in capsys.readouterr().err
        assert not (tmp / "x.json").exists()

    for content in ([1, 2], {"points": [[0.0, 0.0], [0.7, 0.3]], "weights": {"a": 1}}):
        bad.write_text(json.dumps(content))
        malformed("measure", bad, ["--mu0", str(bad), "--mu1", mu1, "--cost", "sqeuclidean"])
    cost = tmp / "cost.json"
    cost.write_text(json.dumps({"rows": None, "cols": 2, "weights": [[0.0, 1.0], [1.0, 0.0]]}))
    malformed("cost", cost, ["--mu0", mu0, "--mu1", mu1, "--cost", f"file:{cost}"])

    # unknown flags are usage errors
    code = run(["solve-x", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--eps", "0.5", "--out", str(tmp / "x.json"), "--bogus", "1"])
    assert code == 1


def test_non_finite_point_is_a_malformed_measure_file(fixtures, capsys):
    # hk would map the NaN distance to an infinite cost and converge
    tmp, _, mu1, _ = fixtures
    bad = tmp / "nan.json"
    bad.write_text(json.dumps({"points": [[0.0, 0.0], [math.nan, 0.3]], "weights": [0.8, 0.5]}))
    code = run(["solve-x", "--mu0", str(bad), "--mu1", mu1, "--cost", "hk",
                "--eps", "0.5", "--out", str(tmp / "x.json")])
    assert code == 1
    assert f"malformed measure file {bad}" in capsys.readouterr().err
    assert not (tmp / "x.json").exists()


@pytest.mark.parametrize("content", [
    {"rows": 2, "cols": 2, "weights": [[0.3, math.nan], [0.2, 0.4]]},
    {"rows": 1, "cols": 3, "weights": [[0.3, 0.1, 0.2]]},
    [1, 2],
    {"rows": None, "cols": 2, "weights": [[0.3, 0.1], [0.2, 0.4]]},
], ids=["nan-weight", "wrong-shape", "list", "null-rows"])
def test_malformed_reference_file_names_the_file(fixtures, capsys, content):
    tmp, mu0, mu1, _ = fixtures
    bad = tmp / "nu.json"
    bad.write_text(json.dumps(content))
    code = run(["solve-x", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--nu", str(bad), "--eps", "0.5", "--out", str(tmp / "x.json")])
    assert code == 1
    assert f"malformed reference file {bad}: " in capsys.readouterr().err
    assert not (tmp / "x.json").exists()


@pytest.mark.parametrize("cost", ["sqeuclidean", "hk"])
@pytest.mark.parametrize("dims", [(2, 3), (3, 2)], ids=["2d-3d", "3d-2d"])
def test_measures_of_different_dimensions_exit_one(fixtures, capsys, cost, dims):
    tmp, mu0, _, _ = fixtures
    mu3 = tmp / "mu3.json"
    mu3.write_text(json.dumps({"points": [[0.1, 0.0, 0.2], [0.6, 0.5, 0.1]],
                               "weights": [0.6, 0.9]}))
    first, second = (mu0, str(mu3)) if dims == (2, 3) else (str(mu3), mu0)
    code = run(["solve-x", "--mu0", first, "--mu1", second, "--cost", cost,
                "--eps", "0.5", "--out", str(tmp / "x.json")])
    assert code == 1
    assert f"dimension {dims[0]} and {dims[1]}" in capsys.readouterr().err
    assert not (tmp / "x.json").exists()


def test_solve_y_rejects_zero_max_iters(fixtures, capsys):
    tmp, mu0, mu1, _ = fixtures
    code = run(["solve-y", "--mu0", mu0, "--mu1", mu1, "--cost", "hk", "--eps", "0.4",
                "--radial-nodes", "12", "--max-iters", "0", "--out", str(tmp / "ry.json")])
    assert code == 1
    assert "max_iters" in capsys.readouterr().err
    assert not (tmp / "ry.json").exists()


def test_nonconvergence_exits_two(fixtures):
    tmp, mu0, mu1, _ = fixtures
    code = run(["solve-x", "--mu0", mu0, "--mu1", mu1, "--cost", "sqeuclidean",
                "--eps", "0.01", "--max-iters", "2", "--tol", "1e-12",
                "--out", str(tmp / "x.json")])
    assert code == 2


def test_cost_file_spec(fixtures):
    tmp, mu0, mu1, _ = fixtures
    cost = tmp / "cost.json"
    cost.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
    out = tmp / "r.json"
    code = run(["solve-x", "--mu0", mu0, "--mu1", mu1, "--cost", f"file:{cost}",
                "--eps", "0.5", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["report"]["converged"]


def test_solve_x_gap_alone_is_not_convergence(tmp_path):
    # the gap is within tolerance after 40 iterations, the residual is not
    rng = np.random.default_rng(0)
    pts0, pts1 = rng.uniform(0, 1, size=(200, 2)), rng.uniform(0, 1, size=(200, 2))
    w0, w1 = rng.uniform(0.5, 1.5, 200), rng.uniform(0.5, 1.5, 200)
    files = []
    for name, pts, w in (("a.json", pts0, w0 / w0.sum()), ("b.json", pts1, 1.3 * w1 / w1.sum())):
        (tmp_path / name).write_text(json.dumps({"points": pts.tolist(), "weights": w.tolist()}))
        files.append(str(tmp_path / name))
    out = tmp_path / "x.json"
    code = run(["solve-x", "--mu0", files[0], "--mu1", files[1], "--cost", "sqeuclidean",
                "--eps", "0.01", "--max-iters", "40", "--out", str(out)])
    report = json.loads(out.read_text())["report"]
    assert code == 2
    assert report["converged"] is False
    assert max(report["marginal_residuals"]) > 1e-6


def test_solve_x_balanced_records_each_side_and_the_plan_value(tmp_path):
    rng = np.random.default_rng(33)
    w0, w1 = rng.uniform(0.5, 1.5, 6), rng.uniform(0.5, 1.5, 6)
    w0, w1 = w0 / w0.sum(), w1 / w1.sum()
    pts0, pts1 = rng.uniform(0.0, 1.0, (6, 2)), rng.uniform(0.0, 1.0, (6, 2))
    files = []
    for side, (pts, w) in enumerate(((pts0, w0), (pts1, w1))):
        (tmp_path / f"mu{side}.json").write_text(
            json.dumps({"points": pts.tolist(), "weights": w.tolist()}))
        files.append(str(tmp_path / f"mu{side}.json"))
    out = tmp_path / "balanced.json"
    code = run(["solve-x", "--mu0", files[0], "--mu1", files[1], "--cost", "sqeuclidean",
                "--eps", "0.1", "--entropy", "balanced", "--emit-plan", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    gamma = np.array(record["plan"]["weights"])
    residuals = record["report"]["marginal_residuals"]
    for got, plan_marginal, w in zip(residuals, (gamma.sum(1), gamma.sum(0)), (w0, w1)):
        assert got == pytest.approx(np.max(np.abs(plan_marginal - w)), abs=1e-15)
    assert residuals[0] != residuals[1]
    cost = np.sum((pts0[:, None, :] - pts1[None, :, :]) ** 2, axis=-1)
    nu = np.outer(w0, w1) / (w0.sum() * w1.sum())  # the default reference
    want = balanced_entropic_value(gamma, w0, cost, 0.1, nu)
    assert record["report"]["primal"] == pytest.approx(want, rel=1e-12)
    assert record["report"]["gap"] == 0.0


def test_identities_nonconverged_solve_exits_two(tmp_path, monkeypatch):
    capped = functools.partial(identities.balanced_sinkhorn, max_iters=3)
    monkeypatch.setattr(identities, "balanced_sinkhorn", capped)
    out = tmp_path / "id.json"
    code = run(["identities", "--grid", "4", "--dim", "1", "--eps", "0.2",
                "--seed", "3", "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["values"]["sinkhorn_residual"] > 1e-13


@pytest.mark.parametrize("argv", [
    ["solve-x", "--entropy", "balanced", "--eps", "-1"],
    ["solve-x", "--entropy", "balanced", "--eps", "0.5", "--tol", "-1"],
    ["lift-check", "--which", "balanced-eps", "--eps", "0"],
    ["solve-y", "--eps", "0.5", "--p", "0"],
    ["solve-y", "--eps", "0.5", "--p", "1e-3"],
    ["solve-y", "--eps", "0.5", "--p", "inf"],
    ["lift-check", "--which", "balanced", "--p", "0"],
    ["compare", "--eps", "0.5", "--p", "0"],
    ["identities", "--grid", "0", "--dim", "1", "--eps", "0.2"],
    ["identities", "--grid", "4", "--dim", "1", "--eps", "0"],
], ids=["balanced-eps", "balanced-tol", "lift-check-eps", "solve-y-p", "solve-y-p-overflow",
        "solve-y-p-inf", "lift-check-p", "compare-p", "identities-grid", "identities-eps"])
def test_invalid_numeric_input_exits_one(fixtures, capsys, argv):
    tmp, mu0, _, _ = fixtures
    if argv[0] != "identities":
        argv = argv + ["--mu0", mu0, "--mu1", mu0, "--cost", "sqeuclidean"]
    assert run(argv + ["--out", str(tmp / "out.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["solve-y", "--eps", "0.5"],
    ["sweep-eps", "--eps-list", "0.5,0.2", "--formulation", "y"],
    ["--threads", "2", "sweep-eps", "--eps-list", "0.5,0.2", "--formulation", "y"],
], ids=["solve-y", "sweep-eps-y", "sweep-eps-y-threads"])
def test_massless_measure_without_reachable_atoms_exits_one(fixtures, capsys, argv):
    # mu0 carries no mass, so the tilt steps empty every atom that could carry
    # mu1's: an input error, not an uncaught exception
    tmp, _, mu1, _ = fixtures
    empty = tmp / "empty.json"
    empty.write_text(json.dumps({"points": [[0.0, 0.0], [0.7, 0.3]], "weights": [0.0, 0.0]}))
    out = tmp / ("out.csv" if "sweep-eps" in argv else "out.json")
    code = run(argv + ["--mu0", str(empty), "--mu1", mu1, "--cost", "sqeuclidean",
                       "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: a support point carries mass")
    assert not out.exists()
