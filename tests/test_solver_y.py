import math
import tracemalloc

import numpy as np
import pytest

from uotlab.costs import CostMatrix, hk_cost, hk_matrix, sqeuclidean_matrix
from uotlab.entropy import F_ZERO, divergence_arrays
from uotlab.measures import DiscreteMeasure, GroundMismatchError, GroundSet
from uotlab.solver_x import ScalingStep, SolverConfig, scaling_kernel, solve_x_unreg
from uotlab import solver_x, solver_y
from uotlab.solver_y import (
    AtomPlan,
    InfeasibleProblemError,
    RadialGrid,
    default_grids,
    default_nu_y,
    extended_ot_value,
    hp_tensor,
    solve_y_eps,
    solve_y_unreg,
    _tilt_step,
)

from oracles import (
    homogeneous_marginal_matrix,
    kkt_newton,
    project_family_loop,
    relaxed_lp_value,
)


def dirac_instance(m0, m1, d):
    g0 = GroundSet([[0.0]])
    g1 = GroundSet([[float(d)]])
    mu0 = DiscreteMeasure(g0, [m0])
    mu1 = DiscreteMeasure(g1, [m1])
    return mu0, mu1, CostMatrix(np.array([[hk_cost(d)]]))


def single_atom_plan(grid0, grid1, k0, k1, weight, p=1.0):
    g0 = GroundSet([[0.0]])
    g1 = GroundSet([[1.0]])
    w = np.zeros((1, grid0.size, 1, grid1.size))
    w[0, k0, 0, k1] = weight
    return AtomPlan(g0, g1, (grid0, grid1), p, w)


# ---------------------------------------------------------------------------
# Grids and homogeneous marginals
# ---------------------------------------------------------------------------

def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(np.array([0.1, 0.5]), 1.0)  # missing 0
    with pytest.raises(ValueError):
        RadialGrid(np.array([0.0, 0.5, 0.5]), 1.0)  # not strictly increasing
    with pytest.raises(ValueError):
        RadialGrid(np.array([0.0, 2.0]), 1.0)  # exceeds cap
    grid = RadialGrid.geometric(2.0, n_nodes=16, smin_frac=1e-3)
    assert grid.nodes[0] == 0.0
    assert grid.size == 16
    assert grid.nodes[-1] == 2.0


def test_atom_types_reject_non_finite_values():
    grid = RadialGrid(np.array([0.0, 1.0]), 1.0)
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            single_atom_plan(grid, grid, 1, 1, 1.0, p)


@pytest.mark.parametrize("nodes, cap", [
    ([0.0, math.nan, 1.0], 1.0),
    ([0.0, 0.5, 1.0], math.nan),
    ([0.0, 0.5, 1.0], math.inf),
])
def test_radial_grid_rejects_non_finite(nodes, cap):
    with pytest.raises(ValueError):
        RadialGrid(np.array(nodes), cap)


def test_homogeneous_marginal_examples():
    grid = RadialGrid(np.array([0.0, 1.0, 3.0]), 3.0)
    alpha = single_atom_plan(grid, grid, 1, 1, 1.0, p=1.0)
    assert alpha.homogeneous_marginal(0).weights[0] == pytest.approx(1.0)
    assert alpha.homogeneous_marginal(1).weights[0] == pytest.approx(1.0)

    zero_s0 = single_atom_plan(grid, grid, 0, 1, 2.0, p=1.0)
    assert zero_s0.homogeneous_marginal(0).total_mass == 0.0

    heavy = single_atom_plan(grid, grid, 2, 1, 2.0, p=2.0)
    assert heavy.homogeneous_marginal(0).weights[0] == pytest.approx(18.0)


# ---------------------------------------------------------------------------
# Unregularised LP
# ---------------------------------------------------------------------------

def test_unreg_coincident_unit_diracs():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    grids = default_grids(mu, mu, 1.0, n_nodes=16, smin_frac=1e-2)
    alpha, value = solve_y_unreg(mu, mu, cost, 1.0, grids)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(alpha.homogeneous_marginal(0).weights, [1.0])


def test_unreg_dirac_hk_formula_and_grid_refinement():
    m0, m1, d = 1.4, 0.55, 0.9
    mu0, mu1, cost = dirac_instance(m0, m1, d)
    exact = m0 + m1 - 2.0 * math.sqrt(m0 * m1) * math.cos(d)
    cap = mu0.total_mass + mu1.total_mass
    fine = np.geomspace(1e-3 * cap, cap, 61)
    errors = []
    for stride in (4, 2, 1):  # nested geometric ladders, coarse to fine
        grid = RadialGrid(np.concatenate([[0.0], fine[::stride]]), cap)
        _, value = solve_y_unreg(mu0, mu1, cost, 1.0, (grid, grid))
        errors.append(value - exact)
    assert all(e >= -1e-12 for e in errors)  # grid restriction can only overshoot
    assert errors[2] <= errors[1] + 1e-15 and errors[1] <= errors[0] + 1e-15
    assert errors[2] < 1e-3


def test_unreg_matches_original_space_solver():
    rng = np.random.default_rng(60)
    for _ in range(3):
        g0 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
        g1 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
        mu0 = DiscreteMeasure(g0, rng.uniform(0.4, 1.2, 2))
        mu1 = DiscreteMeasure(g1, rng.uniform(0.4, 1.2, 2))
        cost = sqeuclidean_matrix(g0, g1)
        _, rep = solve_x_unreg(mu0, mu1, cost)
        grids = default_grids(mu0, mu1, 1.0, n_nodes=96, smin_frac=1e-3)
        _, value = solve_y_unreg(mu0, mu1, cost, 1.0, grids)
        assert value == pytest.approx(rep.primal, abs=1e-3)
        assert value >= rep.primal - 1e-9


def test_unreg_p_invariance_on_matched_grids():
    rng = np.random.default_rng(61)
    g0 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.4, 1.2, 2))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.4, 1.2, 2))
    cost = sqeuclidean_matrix(g0, g1)
    grids1 = default_grids(mu0, mu1, 1.0, n_nodes=24, smin_frac=1e-2)
    _, v1 = solve_y_unreg(mu0, mu1, cost, 1.0, grids1)
    # same effective radial values s^p for p = 2
    cap2 = (mu0.total_mass + mu1.total_mass) ** 0.5
    nodes2 = np.sqrt(grids1[0].nodes)
    grid2 = RadialGrid(nodes2, cap2)
    _, v2 = solve_y_unreg(mu0, mu1, cost, 2.0, (grid2, grid2))
    assert v2 == pytest.approx(v1, abs=1e-10)


def test_unreg_inequality_mode_not_above_equality():
    # every marginal defect is carried by an s = 0 atom at its price F(0),
    # so relaxing the sharp LP to <= with F(0)-priced slacks gains nothing
    rng = np.random.default_rng(62)
    g0 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.4, 1.2, 2))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.4, 1.2, 2))
    cost = hk_matrix(g0, g1)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=24, smin_frac=1e-2)
    _, value = solve_y_unreg(mu0, mu1, cost, 1.0, grids)
    i0, s0p, i1, s1p = np.ix_(np.arange(2), grids[0].nodes, np.arange(2), grids[1].nodes)
    families = [(i0, s0p, mu0.weights), (i1, s1p, mu1.weights)]
    relaxed = relaxed_lp_value(hp_tensor(cost, *grids, 1.0), families, (F_ZERO, F_ZERO))
    assert value == pytest.approx(relaxed, abs=1e-9)


def test_unreg_infeasible_grid():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    zero_grid = RadialGrid(np.array([0.0]), 1.0)
    with pytest.raises(InfeasibleProblemError):
        solve_y_unreg(mu, mu, cost, 1.0, (zero_grid, zero_grid))


# ---------------------------------------------------------------------------
# Entropic solve (alternating KL projections)
# ---------------------------------------------------------------------------

def test_eps_values_decrease_with_eps():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    grids = default_grids(mu, mu, 1.0, n_nodes=12, smin_frac=1e-2)
    vals = []
    for eps in (0.5, 0.1):
        _, rep = solve_y_eps(mu, mu, cost, 1.0, grids, None,
                             SolverConfig(eps=eps, tolerance=1e-10))
        vals.append(rep.primal)
        assert rep.primal >= 0.0
        assert rep.converged
    assert vals[1] <= vals[0] + 1e-9


def test_eps_sweep_monotone_toward_unreg():
    rng = np.random.default_rng(63)
    g0 = GroundSet(rng.uniform(0, 0.5, size=(3, 2)))
    g1 = GroundSet(rng.uniform(0, 0.5, size=(3, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.3, 0.8, 3))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.3, 0.8, 3))
    cost = hk_matrix(g0, g1)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=10, smin_frac=0.05)
    _, unreg = solve_y_unreg(mu0, mu1, cost, 1.0, grids)
    vals = []
    for eps in (1.0, 0.5, 0.2, 0.1, 0.05):
        _, rep = solve_y_eps(mu0, mu1, cost, 1.0, grids, None,
                             SolverConfig(eps=eps, tolerance=1e-10, max_iters=30_000))
        vals.append(rep.primal)
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    assert all(v >= unreg - 1e-9 for v in vals)


def tilted(log_base, sps, lams):
    """log_base plus the tilts lambda_i s_k^p of both sides."""
    return (log_base + (lams[0][:, None] * sps[0])[:, :, None, None]
            + (lams[1][:, None] * sps[1])[None, None, :, :])


def kernel_reduction(log_base, sps, mus, lams, side):
    """The m that ``scaling_kernel`` hands the y step of ``side``: one kernel
    iteration from zero potentials whose steps keep the tilts, so side 1 sees
    lambda0; side 0 is side 1 of the transposed problem, and sees lambda1."""
    if side == 0:
        return kernel_reduction(log_base.transpose(2, 3, 0, 1), sps[::-1], mus[::-1],
                                lams[::-1], 1)
    got = {}

    def record(s, m, old):
        got[s] = m
        return (lams[s][:, None] * sps[s]).ravel()

    masses = [np.repeat(mu, sp.size) for mu, sp in zip(mus, sps)]
    scaling_kernel(log_base.reshape(masses[0].size, -1), *masses,
                   ScalingStep(record, None), 1, 1, lambda *args: (True, None))
    return got[1]


def test_projection_subroutine_hits_marginal_exactly():
    rng = np.random.default_rng(64)
    g0 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.3, 1.0, 2))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.3, 1.0, 2))
    cost = sqeuclidean_matrix(g0, g1)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=10, smin_frac=1e-2)
    nu = default_nu_y(mu0, mu1, grids, 1.0)
    sps = (grids[0].nodes, grids[1].nodes)
    mus = (mu0.weights, mu1.weights)
    h = hp_tensor(cost, grids[0], grids[1], 1.0)
    log_base = np.where(nu.weights > 0, np.log(np.maximum(nu.weights, 1e-300)), -np.inf)
    log_base = log_base - h / 0.5
    lams = (np.zeros(2), np.zeros(2))
    _tilt_step(sps, mus, lams, 1.0).update(0, kernel_reduction(log_base, sps, mus, lams, 0), None)
    alpha = np.exp(tilted(log_base, sps, lams))
    h0 = np.einsum("ikjl,k->i", alpha, sps[0])
    assert np.max(np.abs(h0 - mu0.weights)) < 1e-12


def massless_instance(rng, cost_kind, p):
    """A 4 x 5 instance with a massless point on each side, on 12-node grids."""
    g0 = GroundSet(rng.uniform(0, 2, size=(4, 2)))
    g1 = GroundSet(rng.uniform(0, 2, size=(5, 2)))
    mu0 = DiscreteMeasure(g0, np.array([0.7, 0.0, 1.1, 0.4]))
    w1 = rng.uniform(0.3, 1.2, 5)
    w1[3] = 0.0
    mu1 = DiscreteMeasure(g1, w1)
    if cost_kind == "hk":
        cost = hk_matrix(g0, g1)
        assert np.any(np.isinf(cost.values))
    else:
        cost = sqeuclidean_matrix(g0, g1)
    return mu0, mu1, cost, default_grids(mu0, mu1, p, n_nodes=12, smin_frac=1e-3)


def projection_instance(seed, cost_kind, p, eps):
    """Log-weights and tilts of a seeded ``massless_instance``."""
    rng = np.random.default_rng(seed)
    mu0, mu1, cost, grids = massless_instance(rng, cost_kind, p)
    nu = default_nu_y(mu0, mu1, grids, p)
    s0p = grids[0].nodes ** p
    s1p = grids[1].nodes ** p
    with np.errstate(divide="ignore"):
        log_base = np.log(nu.weights) - hp_tensor(cost, grids[0], grids[1], p) / eps
    lam0 = rng.normal(0.0, 0.5, 4)
    lam1 = rng.normal(0.0, 0.5, 5)
    # parked: every atom of a massless point underflows
    lam0[1] = -2980.0 / s0p[1]
    lam1[3] = -2980.0 / s1p[1]
    return log_base, (s0p, s1p), (mu0.weights, mu1.weights), (lam0, lam1)


# start shifts of the massive points' tilts put delta = 0 far right (+) or far
# left (-) of the root; the unshifted cases keep their plain axis_point ids
START_SHIFTS = [(axis_point, shift) for shift in (0, 8, -8, 40, -40) for axis_point in (0, 2)]


@pytest.mark.parametrize("axis_point, shift", START_SHIFTS,
                         ids=[f"{a}" + (f"-shift{s:+d}" if s else "") for a, s in START_SHIFTS])
@pytest.mark.parametrize("cost_kind", ["sqeuclidean", "hk"])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_projection_matches_loop_oracle(axis_point, shift, cost_kind, p, eps):
    log_base, sps, mus, lams = projection_instance(70, cost_kind, p, eps)
    side = axis_point // 2
    lams[side][mus[side] > 0] += shift
    m = kernel_reduction(log_base, sps, mus, lams, side)
    lam_vec = [lam.copy() for lam in lams]
    lam_loop = lams[side].copy()
    _tilt_step(sps, mus, lam_vec, 1.0).update(side, m, None)
    project_family_loop(tilted(log_base, sps, lams), sps[side], mus[side], axis_point, lam_loop)
    assert np.all(np.abs(lam_vec[side] - lam_loop) <= 1e-12 * (1.0 + np.abs(lam_loop)))
    assert not np.array_equal(lam_loop, lams[side])


def test_projection_unreachable_point_raises_in_both():
    log_base, sps, mus, lams = projection_instance(71, "sqeuclidean", 1.0, 0.5)
    log_base[2, 1:, :, :] = -np.inf  # the third point carries mass
    m = kernel_reduction(log_base, sps, mus, lams, 0)
    with pytest.raises(InfeasibleProblemError):
        _tilt_step(sps, mus, [lam.copy() for lam in lams], 1.0).update(0, m, None)
    with pytest.raises(InfeasibleProblemError):
        project_family_loop(tilted(log_base, sps, lams), sps[0], mus[0], 0, lams[0].copy())


def test_tilt_newton_step_cap_raises(monkeypatch):
    log_base, sps, mus, lams = projection_instance(72, "sqeuclidean", 1.0, 0.5)
    m = kernel_reduction(log_base, sps, mus, lams, 0)
    monkeypatch.setattr(solver_y, "_TILT_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="support point .* did not converge") as info:
        _tilt_step(sps, mus, [lam.copy() for lam in lams], 1.0).update(0, m, None)
    assert not isinstance(info.value, InfeasibleProblemError)


def solve_y_with_plain_steps(mu0, mu1, cost, grids, config):
    """``solve_y_eps`` with its tilt steps taken plain (omega 1)."""
    tilt_step = solver_y._tilt_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_y, "_tilt_step",
                   lambda sps, mus, lams, omega: tilt_step(sps, mus, lams, 1.0))
        return solve_y_eps(mu0, mu1, cost, 1.0, grids, None, config)


@pytest.mark.parametrize("max_iters", [1, 2, 5])
def test_eps_budget_bounds_the_solve(max_iters):
    mu0, mu1, cost, grids = massless_instance(np.random.default_rng(73), "sqeuclidean", 1.0)
    config = SolverConfig(eps=0.05, max_iters=max_iters)
    alpha, rep = solve_y_eps(mu0, mu1, cost, 1.0, grids, None, config)
    assert 1 <= rep.iterations <= max_iters
    assert not rep.converged
    scale = max(1.0, float(np.max(mu0.weights)), float(np.max(mu1.weights)))
    for side, mu in enumerate((mu0, mu1)):
        res = np.max(np.abs(alpha.homogeneous_marginal(side).weights - mu.weights)) / scale
        assert rep.marginal_residuals[side] == pytest.approx(res, rel=1e-9, abs=1e-14)
    assert rep.marginal_residuals[0] > 1e-6
    # a plain last half-step is a family-1 projection, so that family is met exactly
    _, plain = solve_y_with_plain_steps(mu0, mu1, cost, grids, config)
    assert plain.iterations == max_iters and plain.marginal_residuals[1] <= 1e-12


def test_eps_dual_never_falls_as_the_budget_grows():
    # each relaxed half-step keeps or raises the dual, so a larger budget,
    # solved from scratch, reports a dual at least as high
    mu0, mu1, cost, grids = massless_instance(np.random.default_rng(73), "sqeuclidean", 1.0)
    duals = [solve_y_eps(mu0, mu1, cost, 1.0, grids, None,
                         SolverConfig(eps=0.05, max_iters=budget))[1].dual
             for budget in range(1, 9)]
    assert all(b >= a for a, b in zip(duals, duals[1:]))


def test_eps_zero_radial_atoms_stay_free_at_massless_points():
    # s0 = 0 atoms carry no homogeneous mass, so h0 = mu0 does not empty them
    # even at a massless point: every point's s0 = 0 slice of alpha is
    # nu_Y exp(-H_p/eps) times the same factor exp(lambda1_j s1_l^p)
    mu0, mu1, cost, grids = massless_instance(np.random.default_rng(75), "sqeuclidean", 1.0)
    nu = AtomPlan(mu0.ground, mu1.ground, grids, 1.0, np.full((4, 12, 5, 12), 1.0 / 2880))
    eps = 0.5
    alpha, rep = solve_y_eps(mu0, mu1, cost, 1.0, grids, nu,
                             SolverConfig(eps=eps, tolerance=1e-10))
    assert rep.converged
    h = hp_tensor(cost, grids[0], grids[1], 1.0)
    factor = alpha.weights[:, 0] / (nu.weights[:, 0] * np.exp(-h[:, 0] / eps))
    assert mu0.weights[1] == 0.0 and np.all(factor[1, mu1.weights > 0] > 0.0)
    assert np.allclose(factor, factor[0], rtol=1e-12, atol=0.0)
    # the report's primal, read off the marginal defects, is the full-tensor value
    want = float(np.sum(h * alpha.weights)) + eps * divergence_arrays(alpha.weights, nu.weights)
    assert abs(rep.primal - want) <= 1e-12 * abs(want)


def absorption_runs():
    """sqeuclidean and HK massless instances at eps 0.5 and 0.05, as thunks."""
    runs = []
    for cost_kind in ("sqeuclidean", "hk"):
        mu0, mu1, cost, grids = massless_instance(np.random.default_rng(74), cost_kind, 1.0)
        for eps in (0.5, 0.05):
            config = SolverConfig(eps=eps, tolerance=1e-10)
            runs.append(lambda mu0=mu0, mu1=mu1, cost=cost, grids=grids, eps=eps, config=config:
                        solve_y_eps(mu0, mu1, cost, 1.0, grids, None, config)[1])
    return runs


@pytest.fixture(scope="module")
def default_absorption_reports():
    return [run() for run in absorption_runs()]


@pytest.mark.parametrize("absorb", [0.0, math.inf])
def test_eps_solver_absorption_extremes(monkeypatch, default_absorption_reports, absorb):
    # 0 absorbs the tilts into the kernel after every iteration, inf never does
    monkeypatch.setattr(solver_x, "_ABSORB", absorb)
    for want, run in zip(default_absorption_reports, absorption_runs()):
        got = run()
        assert want.converged and got.converged
        assert got.iterations == want.iterations
        assert abs(got.primal - want.primal) <= 1e-12 * abs(want.primal)


@pytest.mark.parametrize("cost_kind", ["sqeuclidean", "hk"])
def test_relaxed_tilt_steps_at_least_halve_the_iterations(cost_kind):
    # mass ratios 1 and 3, two seeds, eps 0.2 and 0.05 on 32-node grids: each
    # relaxed solve converges in at most half the plain iterations, to the
    # plain primal
    n, box = (16, 2.0) if cost_kind == "hk" else (10, 1.0)
    for ratio in (1.0, 3.0):
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            g0 = GroundSet(rng.uniform(0, box, size=(n, 2)))
            g1 = GroundSet(rng.uniform(0, box, size=(n, 2)))
            w0, w1 = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
            mu0 = DiscreteMeasure(g0, w0 / w0.sum())
            mu1 = DiscreteMeasure(g1, w1 * (ratio / w1.sum()))
            cost = (hk_matrix if cost_kind == "hk" else sqeuclidean_matrix)(g0, g1)
            grids = default_grids(mu0, mu1, 1.0, n_nodes=32)
            for eps in (0.2, 0.05):
                config = SolverConfig(eps=eps, tolerance=1e-9)
                _, relaxed = solve_y_eps(mu0, mu1, cost, 1.0, grids, None, config)
                _, plain = solve_y_with_plain_steps(mu0, mu1, cost, grids, config)
                assert relaxed.converged and plain.converged
                assert 2 * relaxed.iterations <= plain.iterations
                assert relaxed.primal == pytest.approx(plain.primal, rel=1e-7)


@pytest.mark.parametrize("cost_kind", ["sqeuclidean", "hk"])
def test_relaxed_tilt_steps_on_a_single_point_side(cost_kind):
    # a single-point side is where relaxation can cost iterations (the 1 x 1
    # HK pair takes 21 against 18 plain at eps 0.5): it still converges to
    # the plain primal, here within 1.5 times the plain iterations
    box = 2.0 if cost_kind == "hk" else 1.0
    for n1 in (1, 6):
        rng = np.random.default_rng(5)
        g0 = GroundSet(rng.uniform(0, box, size=(1, 2)))
        g1 = GroundSet(rng.uniform(0, box, size=(n1, 2)))
        mu0 = DiscreteMeasure(g0, [1.0])
        mu1 = DiscreteMeasure(g1, rng.uniform(0.5, 1.5, n1))
        cost = (hk_matrix if cost_kind == "hk" else sqeuclidean_matrix)(g0, g1)
        grids = default_grids(mu0, mu1, 1.0, n_nodes=16)
        for eps in (1.0, 0.5, 0.2):
            config = SolverConfig(eps=eps, tolerance=1e-9)
            _, relaxed = solve_y_eps(mu0, mu1, cost, 1.0, grids, None, config)
            _, plain = solve_y_with_plain_steps(mu0, mu1, cost, grids, config)
            assert relaxed.converged and plain.converged
            assert 2 * relaxed.iterations <= 3 * plain.iterations
            assert relaxed.primal == pytest.approx(plain.primal, rel=1e-7)


def test_eps_solver_matches_constrained_oracle():
    rng = np.random.default_rng(65)
    g0 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(2, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.4, 1.0, 2))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.4, 1.0, 2))
    cost = sqeuclidean_matrix(g0, g1)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=6, smin_frac=0.05)
    nu = default_nu_y(mu0, mu1, grids, 1.0)
    eps = 0.3
    alpha, rep = solve_y_eps(mu0, mu1, cost, 1.0, grids, nu,
                             SolverConfig(eps=eps, tolerance=1e-12, max_iters=30_000))

    h = hp_tensor(cost, grids[0], grids[1], 1.0).ravel()
    a_mat = homogeneous_marginal_matrix(2, 2, grids[0].nodes, grids[1].nodes)
    b = np.concatenate([mu0.weights, mu1.weights])
    _, _, oracle_val = kkt_newton(h, nu.weights.ravel(), a_mat, b, eps)
    assert rep.primal == pytest.approx(oracle_val, rel=1e-6)


def test_eps_solver_validates_reference():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    grids = default_grids(mu, mu, 1.0, n_nodes=8, smin_frac=1e-2)
    bad = default_nu_y(mu, mu, grids, 1.0)
    bad = AtomPlan(bad.row_ground, bad.col_ground, bad.grids, 1.0, bad.weights * 2.0)
    with pytest.raises(ValueError):
        solve_y_eps(mu, mu, cost, 1.0, grids, bad, SolverConfig(eps=0.5))


def test_eps_gap_is_a_nonnegative_bound_on_primal_minus_dual():
    # primal - dual is a signed residual here: about -2e-12 on this instance
    rng = np.random.default_rng(0)
    g0 = GroundSet(rng.uniform(0, 1, size=(6, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(7, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.5, 1.5, 6))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.5, 1.5, 7))
    cost = sqeuclidean_matrix(g0, g1)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=16)
    _, rep = solve_y_eps(mu0, mu1, cost, 1.0, grids, None,
                         SolverConfig(eps=0.1, tolerance=1e-10))
    assert rep.converged
    assert rep.gap >= 0.0
    assert rep.gap >= abs(rep.primal - rep.dual)


def test_eps_solver_infeasible_when_support_unreachable():
    g0 = GroundSet([[0.0], [5.0]])
    g1 = GroundSet([[0.1]])
    mu0 = DiscreteMeasure(g0, [0.5, 0.5])
    mu1 = DiscreteMeasure(g1, [1.0])
    cost = CostMatrix(np.array([[0.0], [1.0]]))
    grids = default_grids(mu0, mu1, 1.0, n_nodes=8, smin_frac=1e-2)
    nu = default_nu_y(mu0, mu1, grids, 1.0)
    # zero out every positive-radial atom reachable from the second point
    w = np.array(nu.weights)
    w[1, 1:, :, :] = 0.0
    w /= w.sum()
    nu_bad = AtomPlan(nu.row_ground, nu.col_ground, nu.grids, 1.0, w)
    with pytest.raises(InfeasibleProblemError):
        solve_y_eps(mu0, mu1, cost, 1.0, grids, nu_bad, SolverConfig(eps=0.5))


@pytest.mark.parametrize("side", [0, 1])
def test_eps_solver_infeasible_on_a_zero_grid(side):
    # a side with mass whose radial grid is {0}: an explicit uniform nu_Y,
    # since the default one needs a positive node on each side
    g0 = GroundSet([[0.0], [0.5]])
    g1 = GroundSet([[0.2]])
    mu0 = DiscreteMeasure(g0, [0.5, 0.5])
    mu1 = DiscreteMeasure(g1, [1.0])
    cost = CostMatrix(np.array([[0.04], [0.09]]))
    grids = list(default_grids(mu0, mu1, 1.0, n_nodes=8, smin_frac=1e-2))
    grids[side] = RadialGrid(np.array([0.0]), 1.0)
    w = np.ones((2, grids[0].size, 1, grids[1].size))
    nu = AtomPlan(g0, g1, tuple(grids), 1.0, w / w.sum())
    with pytest.raises(InfeasibleProblemError):
        solve_y_eps(mu0, mu1, cost, 1.0, tuple(grids), nu, SolverConfig(eps=0.5))


def test_eps_solver_rejects_cost_of_wrong_shape():
    rng = np.random.default_rng(1)
    g0 = GroundSet(rng.uniform(0, 1, size=(3, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(4, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.5, 1.5, 3))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.5, 1.5, 4))
    cost = CostMatrix(rng.uniform(0, 1, size=(3, 5)))
    grids = default_grids(mu0, mu1, 1.0, n_nodes=8)
    with pytest.raises(GroundMismatchError):
        solve_y_eps(mu0, mu1, cost, 1.0, grids, None, SolverConfig(eps=0.5))


def test_eps_solve_holds_two_atom_tensors():
    # the log-kernel and the kernel: the default nu_Y and H_p are gone before
    # the sweep, and the plan shares the kernel's storage
    rng = np.random.default_rng(3)
    n, k = 16, 32
    mu0, mu1 = (DiscreteMeasure(GroundSet(rng.uniform(0, 2, size=(n, 2))),
                                rng.uniform(0.5, 1.5, n)) for _ in range(2))
    cost = hk_matrix(mu0.ground, mu1.ground)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=k)
    tracemalloc.start()
    try:
        alpha, _ = solve_y_eps(mu0, mu1, cost, 1.0, grids, None, SolverConfig(eps=0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * alpha.weights.nbytes
    assert alpha.weights.nbytes == n * k * n * k * 8


def test_objective_rejects_cost_of_wrong_shape():
    g0, g1 = GroundSet([[0.0], [1.0]]), GroundSet([[0.5]])
    grid = RadialGrid(np.array([0.0, 0.8]), 1.0)
    alpha = AtomPlan(g0, g1, (grid, grid), 1.0, np.full((2, 2, 1, 2), 0.125))
    cost = CostMatrix(np.zeros((3, 3)))
    for plan in (alpha, alpha.atoms()):
        with pytest.raises(GroundMismatchError):
            plan.objective(cost)


def test_eps_solver_rejects_reference_on_other_grounds():
    rng = np.random.default_rng(2)
    g0 = GroundSet(rng.uniform(0, 1, size=(3, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(4, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.5, 1.5, 3))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.5, 1.5, 4))
    cost = sqeuclidean_matrix(g0, g1)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=8)
    same_sizes = [DiscreteMeasure(GroundSet(mu.ground.points.copy()), mu.weights)
                  for mu in (mu0, mu1)]
    other_sizes = [DiscreteMeasure(GroundSet(rng.uniform(0, 1, size=(n, 2))), np.ones(n))
                   for n in (5, 2)]
    for other in (same_sizes, other_sizes):
        nu = default_nu_y(*other, grids, 1.0)
        with pytest.raises(GroundMismatchError):
            solve_y_eps(mu0, mu1, cost, 1.0, grids, nu, SolverConfig(eps=0.5))


def test_eps_verdict_is_the_stop_test_at_the_boundary(monkeypatch):
    # a tolerance equal to the last check's residual stops the loop at that
    # check, and the report must say converged
    rng = np.random.default_rng(0)
    g0 = GroundSet(rng.uniform(0, 1, size=(6, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(7, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.5, 1.5, 6))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.5, 1.5, 7))
    cost = sqeuclidean_matrix(g0, g1)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=16)
    sps = [grid.nodes for grid in grids]
    scale = max(1.0, float(np.max(mu0.weights)), float(np.max(mu1.weights)))
    kernel, seen = solver_y.scaling_kernel, []

    def spy(*args):
        *head, check = args

        def wrapped(f, g, *margs):
            seen[:] = [float(np.max(np.abs(m.reshape(mu.size, -1) @ sp - mu))) / scale
                       for m, sp, mu in zip(margs, sps, (mu0.weights, mu1.weights))]
            return check(f, g, *margs)
        return kernel(*head, wrapped)

    monkeypatch.setattr(solver_y, "scaling_kernel", spy)
    _, rep = solve_y_eps(mu0, mu1, cost, 1.0, grids, None, SolverConfig(eps=0.3, max_iters=40))
    assert rep.iterations == 40 and not rep.converged
    _, rep = solve_y_eps(mu0, mu1, cost, 1.0, grids, None,
                         SolverConfig(eps=0.3, tolerance=max(seen)))
    assert rep.iterations == 40
    assert rep.converged


# ---------------------------------------------------------------------------
# Rescaling and the transport decomposition
# ---------------------------------------------------------------------------

def test_rescale_unit_when_theta_one():
    # atoms already on the sphere s0 + s1 = total homogeneous mass (p = 1)
    grid = RadialGrid(np.array([0.0, 0.4, 0.6]), 1.0)
    alpha = single_atom_plan(grid, grid, 1, 2, 1.0)  # s0 + s1 = 1 = mass sum
    cloud = alpha.rescale()
    assert cloud.total_mass == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(cloud.s0, [0.4])
    assert np.allclose(cloud.s1, [0.6])
    assert np.allclose(cloud.weights, [1.0])


def test_rescale_drops_doubly_null_atoms():
    grid = RadialGrid(np.array([0.0, 1.0]), 2.0)
    alpha = single_atom_plan(grid, grid, 0, 0, 0.7)
    cloud = alpha.rescale()
    assert cloud.weights.size == 0


def test_rescale_invariants_random():
    rng = np.random.default_rng(66)
    for _ in range(20):
        n0, n1 = rng.integers(1, 4, 2)
        g0 = GroundSet(rng.uniform(0, 1, size=(n0, 2)))
        g1 = GroundSet(rng.uniform(0, 1, size=(n1, 2)))
        k0, k1 = rng.integers(3, 7, 2)
        cap = float(rng.uniform(1.0, 4.0))
        grid0 = RadialGrid(np.concatenate([[0.0], np.sort(rng.uniform(0.01, cap, k0))]), cap)
        grid1 = RadialGrid(np.concatenate([[0.0], np.sort(rng.uniform(0.01, cap, k1))]), cap)
        p = float(rng.uniform(0.5, 2.5))
        w = rng.uniform(size=(n0, grid0.size, n1, grid1.size)) * (rng.uniform(size=(n0, grid0.size, n1, grid1.size)) < 0.5)
        if w.sum() == 0:
            continue
        alpha = AtomPlan(g0, g1, (grid0, grid1), p, w)
        cost = sqeuclidean_matrix(g0, g1)
        cloud = alpha.rescale()
        m0 = alpha.homogeneous_marginal(0)
        m1 = alpha.homogeneous_marginal(1)
        s_star = (m0.total_mass + m1.total_mass) ** (1.0 / p)
        assert cloud.total_mass == pytest.approx(1.0, abs=1e-12)
        assert abs(cloud.objective(cost) - alpha.objective(cost)) <= 1e-10 * (
            1.0 + abs(alpha.objective(cost)))
        assert np.max(np.abs(cloud.homogeneous_marginal(0).weights - m0.weights)) < 1e-12
        assert np.max(np.abs(cloud.homogeneous_marginal(1).weights - m1.weights)) < 1e-12
        assert np.all(cloud.s0 <= s_star * (1 + 1e-12))
        assert np.all(cloud.s1 <= s_star * (1 + 1e-12))


def test_extended_ot_value_at_and_away_from_the_optimum():
    # balanced transport between the plan's two marginals on X x R+ under
    # H_p equals (H_p, alpha) at an optimal plan, and falls strictly below
    # it at a plan that is not optimal; hk on a box of 2.5 has +inf cells
    for seed, kind in ((0, "sqeuclidean"), (1, "sqeuclidean"), (2, "hk"), (3, "hk")):
        rng = np.random.default_rng(67 + seed)
        box = 2.5 if kind == "hk" else 1.0
        g0 = GroundSet(rng.uniform(0, box, size=(3, 2)))
        g1 = GroundSet(rng.uniform(0, box, size=(4, 2)))
        mu0 = DiscreteMeasure(g0, rng.uniform(0.4, 1.2, 3))
        mu1 = DiscreteMeasure(g1, rng.uniform(0.4, 1.2, 4))
        cost = (hk_matrix if kind == "hk" else sqeuclidean_matrix)(g0, g1)
        assert np.isinf(cost.values).any() == (kind == "hk")
        grids = default_grids(mu0, mu1, 1.0, n_nodes=12, smin_frac=1e-2)
        alpha, value = solve_y_unreg(mu0, mu1, cost, 1.0, grids)
        assert alpha.objective(cost) == pytest.approx(value, rel=1e-12)
        assert abs(extended_ot_value(alpha, cost) - value) <= 1e-12 * (1.0 + abs(value))

        nu = default_nu_y(mu0, mu1, grids)
        assert extended_ot_value(nu, cost) < nu.objective(cost) - 0.1


def test_uot_as_ot_single_atom():
    grid = RadialGrid(np.array([0.0, 0.8]), 1.0)
    alpha = single_atom_plan(grid, grid, 1, 1, 0.9)
    cost = CostMatrix(np.array([[0.25]]))
    want = 0.9 * (0.8 + 0.8 - 2 * 0.8 * math.exp(-0.125))
    assert alpha.objective(cost) == pytest.approx(want, rel=1e-12)
    assert extended_ot_value(alpha, cost) == pytest.approx(want, rel=1e-9)
    with pytest.raises(GroundMismatchError):
        extended_ot_value(alpha, CostMatrix(np.zeros((1, 2))))
    with_s = AtomPlan(alpha.row_ground, alpha.col_ground, (grid, grid, grid), 1.0,
                      np.ones((1, 2, 1, 2, 2)))
    with pytest.raises(ValueError, match="S grid"):
        extended_ot_value(with_s, cost)
