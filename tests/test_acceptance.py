"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from uotlab.costs import CostMatrix, hk_cost, hk_matrix, perspective_H_eps, sqeuclidean_matrix
from uotlab.entropy import divergence_arrays
from uotlab.identities import grid_measure, verify_identities
from uotlab.lifting import (
    solve_lifted_balanced,
    solve_second_order_lift,
    solve_x_extended_refined,
)
from uotlab.measures import DiscreteMeasure, GroundSet, Plan
from uotlab.simplex import transport_lp
from uotlab.solver_x import (
    DualPotentials,
    SolverConfig,
    check_remark_identities,
    default_nu_x,
    eval_dual_eps,
    eval_homogeneous_eps,
    eval_reverse_eps,
    solve_x_eps,
    solve_x_unreg,
)
from uotlab.solver_y import (
    AtomPlan,
    RadialGrid,
    default_grids,
    default_nu_y,
    hp_tensor,
    solve_y_eps,
    solve_y_unreg,
)

from oracles import constrained_minimize, h_eps_by_minimization, projected_gradient


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_instance(rng, n0, n1, box=1.0, lo=0.3, hi=1.5):
    g0 = GroundSet(rng.uniform(0, box, size=(n0, 2)))
    g1 = GroundSet(rng.uniform(0, box, size=(n1, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(lo, hi, n0))
    mu1 = DiscreteMeasure(g1, rng.uniform(lo, hi, n1))
    return mu0, mu1, sqeuclidean_matrix(g0, g1)


def test_criterion_1_regularised_cost_closed_form():
    """Closed form of the regularised shared-scale cost vs 1-d minimisation."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        s0, s1, ss = rng.uniform(0.1, 5.0, 3)
        c = rng.uniform(0.0, 5.0)
        eps = rng.uniform(0.01, 2.0)
        closed = perspective_H_eps(s0, s1, ss, c, eps)
        direct = h_eps_by_minimization(s0, s1, ss, c, eps)
        worst = max(worst, abs(closed - direct))
    elapsed = time.perf_counter() - t0
    report_line(1, worst <= 1e-7 and elapsed < 5.0,
                f"500 tuples, max |closed - minimised| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_hk_dirac_benchmark():
    """Dirac pairs under the cone cost against the closed form."""
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst_x = worst_y = 0.0
    for _ in range(50):
        m0, m1 = rng.uniform(0.2, 2.0, 2)
        d = rng.uniform(0.05, math.pi / 2 - 0.05)
        exact = m0 + m1 - 2.0 * math.sqrt(m0 * m1) * math.cos(d)
        g0 = GroundSet([[0.0]])
        g1 = GroundSet([[d]])
        mu0 = DiscreteMeasure(g0, [m0])
        mu1 = DiscreteMeasure(g1, [m1])
        cost = CostMatrix(np.array([[hk_cost(d)]]))
        _, rep = solve_x_unreg(mu0, mu1, cost)
        worst_x = max(worst_x, abs(rep.primal - exact))
        grids = default_grids(mu0, mu1, 1.0, n_nodes=256)
        _, value = solve_y_unreg(mu0, mu1, cost, 1.0, grids)
        worst_y = max(worst_y, abs(value - exact))
    elapsed = time.perf_counter() - t0
    report_line(2, worst_x <= 1e-6 and worst_y <= 1e-3 and elapsed < 30.0,
                f"50 dirac pairs, original-space err {worst_x:.2e}, "
                f"extended-space err {worst_y:.2e}, {elapsed:.1f}s")


def test_criterion_3_sandwich_inequality():
    """Dual <= homogeneous <= reverse on random feasible pairs."""
    rng = np.random.default_rng(1003)
    worst = -math.inf
    for _ in range(100):
        mu0, mu1, cost = random_instance(rng, 3, 3)
        nu = default_nu_x(mu0, mu1)
        eps = rng.uniform(0.1, 1.0)
        # feasible: plan charges exactly the supports of nu_X and the mu_i
        gamma = Plan(mu0.ground, mu1.ground, rng.uniform(0.05, 1.2, size=(3, 3)))
        phi = DualPotentials(rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3))
        d = eval_dual_eps(phi, mu0, mu1, cost, nu, eps)
        h = eval_homogeneous_eps(gamma, mu0, mu1, cost, nu, eps)
        r = eval_reverse_eps(gamma, mu0, mu1, cost, nu, eps)
        worst = max(worst, d - h, h - r)
    report_line(3, worst <= 1e-9,
                f"100 instances, max sandwich violation = {worst:.2e}")


def test_criterion_4_duality_gap():
    """Relative duality gap of the generalized scaling solver."""
    rng = np.random.default_rng(1004)
    worst_gap = 0.0
    worst_iters = 0
    ok = True
    for _ in range(100):
        mu0, mu1, cost = random_instance(rng, 5, 5)
        nu = default_nu_x(mu0, mu1)
        for eps in (0.05, 0.2, 1.0):
            config = SolverConfig(eps=eps, max_iters=10_000, tolerance=1e-6)
            _, _, rep = solve_x_eps(mu0, mu1, cost, nu, config)
            rel_gap = rep.gap / (1.0 + abs(rep.primal))
            worst_gap = max(worst_gap, rel_gap)
            worst_iters = max(worst_iters, rep.iterations)
            ok = ok and rep.converged and rep.iterations <= 10_000
    report_line(4, ok and worst_gap <= 1e-6,
                f"300 solves, worst relative gap {worst_gap:.2e}, "
                f"worst iterations {worst_iters}")


def _monotone_fixture(seed):
    rng = np.random.default_rng(seed)
    pts0 = rng.uniform(0.0, 0.12, size=(3, 2))
    pts1 = pts0 + rng.uniform(-0.03, 0.03, size=(3, 2))
    g0, g1 = GroundSet(pts0), GroundSet(pts1)
    w0 = rng.uniform(0.3, 0.6, 3)
    w1 = w0 * rng.uniform(0.9, 1.1, 3)
    mu0 = DiscreteMeasure(g0, w0)
    mu1 = DiscreteMeasure(g1, w1)
    return mu0, mu1, hk_matrix(g0, g1)


def _adapted_nu_y(mu0, mu1, grids, cost, tau=0.05, band=0.8):
    """Probability reference concentrated where transport rays live: a Gibbs
    profile of the atom cost restricted to a band of radial log-ratios."""
    grid0, grid1 = grids
    h = hp_tensor(cost, grid0, grid1, 1.0)
    w = np.exp(-h / tau)
    w[:, grid0.nodes == 0, :, :] = 0.0
    w[:, :, :, grid1.nodes == 0] = 0.0
    with np.errstate(divide="ignore"):
        log0 = np.log(np.where(grid0.nodes > 0, grid0.nodes, 1.0))
        log1 = np.log(np.where(grid1.nodes > 0, grid1.nodes, 1.0))
    in_band = np.abs(log0[:, None] - log1[None, :]) <= band
    w *= in_band[None, :, None, :]
    return AtomPlan(mu0.ground, mu1.ground, (grid0, grid1), 1.0, w / w.sum())


def test_criterion_5_monotone_convergence():
    """Extended-space values decrease in eps and land near the LP value."""
    eps_list = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02)
    worst_step = -math.inf
    worst_tail = 0.0
    for seed in range(5):
        mu0, mu1, cost = _monotone_fixture(2000 + seed)
        grids = default_grids(mu0, mu1, 1.0, n_nodes=10, smin_frac=0.2)
        _, unreg = solve_y_unreg(mu0, mu1, cost, 1.0, grids)
        nu = _adapted_nu_y(mu0, mu1, grids, cost)
        values = []
        for eps in eps_list:
            config = SolverConfig(eps=eps, tolerance=1e-11, max_iters=40_000)
            _, rep = solve_y_eps(mu0, mu1, cost, 1.0, grids, nu, config)
            values.append(rep.primal)
        steps = [b - a for a, b in zip(values, values[1:])]
        worst_step = max(worst_step, max(steps))
        worst_tail = max(worst_tail, values[-1] - unreg)
    report_line(5, worst_step <= 1e-9 and worst_tail <= 2e-2,
                f"5 instances, worst increase {worst_step:.2e}, "
                f"worst gap to the unregularised value {worst_tail:.2e}")


def test_criterion_6_rescaling_invariance():
    """Unit-mass pushforward preserves objective, marginals and support."""
    rng = np.random.default_rng(1006)
    ok = True
    worst_obj = worst_marg = worst_mass = 0.0
    for trial in range(50):
        n0, n1 = rng.integers(1, 4, 2)
        g0 = GroundSet(rng.uniform(0, 1, size=(n0, 2)))
        g1 = GroundSet(rng.uniform(0, 1, size=(n1, 2)))
        cost = sqeuclidean_matrix(g0, g1)
        cap = float(rng.uniform(1.0, 4.0))
        p = float(rng.uniform(0.5, 2.5))

        def rand_grid(k):
            return RadialGrid(np.concatenate([[0.0], np.sort(rng.uniform(0.02, cap, k))]), cap)

        if trial % 2 == 0:
            grid0, grid1 = rand_grid(5), rand_grid(5)
            w = rng.uniform(size=(n0, 6, n1, 6))
            w *= rng.uniform(size=w.shape) < 0.5
            if w.sum() == 0:
                continue
            alpha = AtomPlan(g0, g1, (grid0, grid1), p, w)
            cloud = alpha.rescale()
            base = alpha.objective(cost)
            new = cloud.objective(cost)
            marg = max(
                float(np.max(np.abs(cloud.homogeneous_marginal(i).weights
                                    - alpha.homogeneous_marginal(i).weights)))
                for i in (0, 1))
            m0 = alpha.homogeneous_marginal(0).total_mass
            m1 = alpha.homogeneous_marginal(1).total_mass
            s_star = (m0 + m1) ** (1.0 / p)
            support_ok = bool(np.all(cloud.s0 <= s_star * (1 + 1e-12))
                              and np.all(cloud.s1 <= s_star * (1 + 1e-12)))
        else:
            grid0, grid1, grid_s = rand_grid(4), rand_grid(4), rand_grid(3)
            w = rng.uniform(size=(n0, 5, n1, 5, 4))
            w *= rng.uniform(size=w.shape) < 0.4
            if w.sum() == 0:
                continue
            eps = float(rng.uniform(0.2, 1.0))
            eta = AtomPlan(g0, g1, (grid0, grid1, grid_s), p, w)
            cloud = eta.rescale()
            h = perspective_H_eps(
                (grid0.nodes ** p)[None, :, None, None, None],
                (grid1.nodes ** p)[None, None, None, :, None],
                (grid_s.nodes ** p)[None, None, None, None, :],
                cost.values[:, None, :, None, None], eps)
            base = float(np.sum(h * eta.weights))
            new = cloud.objective(cost, eps)
            marg = max(
                float(np.max(np.abs(cloud.homogeneous_marginal(i).weights
                                    - eta.homogeneous_marginal(i).weights)))
                for i in (0, 1))
            marg = max(marg, float(np.max(np.abs(cloud.pair_marginal().weights
                                                 - eta.pair_marginal().weights))))
            total = (eta.homogeneous_marginal(0).total_mass
                     + eta.homogeneous_marginal(1).total_mass
                     + eta.pair_marginal().total_mass)
            s_star = total ** (1.0 / p)
            support_ok = bool(np.all(cloud.s0 <= s_star * (1 + 1e-12))
                              and np.all(cloud.s1 <= s_star * (1 + 1e-12))
                              and np.all(cloud.S <= s_star * (1 + 1e-12)))
        worst_obj = max(worst_obj, abs(new - base) / (1.0 + abs(base)))
        worst_mass = max(worst_mass, abs(cloud.total_mass - 1.0))
        worst_marg = max(worst_marg, marg)
        ok = ok and support_ok
    report_line(6, ok and worst_obj <= 1e-10 and worst_mass <= 1e-12 and worst_marg <= 1e-12,
                f"50 plans, objective drift {worst_obj:.2e}, mass drift {worst_mass:.2e}, "
                f"marginal drift {worst_marg:.2e}")


def test_criterion_7_cross_formulation_agreement():
    """All lifted formulations agree with their baselines on 2-point data."""
    rng = np.random.default_rng(1007)
    worst_ext = worst_second = worst_bal = 0.0
    for _ in range(10):
        mu0, mu1, cost = random_instance(rng, 2, 2, box=0.5, lo=0.5, hi=1.4)
        nu = default_nu_x(mu0, mu1)
        eps = 0.6
        _, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, tolerance=1e-12))
        _, ext_value = solve_x_extended_refined(mu0, mu1, cost, nu, eps, 1.0)
        worst_ext = max(worst_ext, abs(ext_value - rep.primal))

        grids = default_grids(mu0, mu1, 1.0, n_nodes=12, smin_frac=1e-2)
        _, y_value = solve_y_unreg(mu0, mu1, cost, 1.0, grids)
        w_grid = RadialGrid.geometric(2.0, n_nodes=5, smin_frac=0.1)
        second = solve_second_order_lift(mu0, mu1, cost, 1.0,
                                         (grids[0], grids[1], w_grid)).value
        worst_second = max(worst_second, abs(second - y_value))

        balanced_mu1 = DiscreteMeasure(
            mu1.ground, mu1.weights * (mu0.total_mass / mu1.total_mass))
        grid = RadialGrid.geometric(mu0.total_mass + balanced_mu1.total_mass,
                                    n_nodes=7, smin_frac=0.05)
        lift = solve_lifted_balanced(mu0, balanced_mu1, cost, 1.0, grid)
        ot_value = transport_lp(mu0.weights, balanced_mu1.weights, cost.values).value
        worst_bal = max(worst_bal, abs(lift.value - ot_value))
    report_line(7, worst_ext <= 1e-3 and worst_second <= 1e-3 and worst_bal <= 1e-9,
                f"10 instances, extended {worst_ext:.2e}, second-order {worst_second:.2e}, "
                f"balanced {worst_bal:.2e}")


def test_criterion_8_convention_identities():
    """Affine relations between the regularisation conventions."""
    rng = np.random.default_rng(1008)
    worst = 0.0
    for k in range(20):
        mu0, mu1, cost = random_instance(rng, 3, 3)
        nu = default_nu_x(mu0, mu1)
        eps = rng.uniform(0.2, 0.8)
        report = check_remark_identities(mu0, mu1, cost, nu, eps, seed=k)
        worst = max(worst, report["residual_tilde"], report["residual_bar"],
                    report["residual_g_forms"])
    report_line(8, worst <= 1e-9, f"20 instances, worst residual {worst:.2e}")


def test_criterion_9_grid_measure_identities():
    """Static relations between the three balanced entropic conventions."""
    rng = np.random.default_rng(1009)
    worst_val = worst_plan = 0.0
    for dim, n in ((1, 8), (2, 4)):
        for eps in (0.2, 1.0):
            mu = grid_measure(n, dim, rng=rng)
            nu = grid_measure(n, dim, rng=rng)
            rep = verify_identities(mu, nu, eps)
            worst_val = max(worst_val, rep["residual_w2"], rep["residual_w3"])
            worst_plan = max(worst_plan, rep["plan_residual_w2"], rep["plan_residual_w3"])
    report_line(9, worst_val <= 1e-9 and worst_plan <= 1e-9,
                f"value residual {worst_val:.2e}, plan residual {worst_plan:.2e}")


def test_criterion_10_generic_minimizer_equivalence():
    """Both entropic solvers against generic projected-gradient oracles."""
    rng = np.random.default_rng(1010)
    worst_x = worst_y = 0.0
    for _ in range(3):
        mu0, mu1, cost = random_instance(rng, 2, 2, box=0.8, lo=0.4, hi=1.2)
        nu = default_nu_x(mu0, mu1)
        eps = 0.4
        _, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, tolerance=1e-12))
        c = cost.values
        nuw = nu.weights

        def value_x(x):
            g = x.reshape(2, 2)
            return (divergence_arrays(g.sum(1), mu0.weights)
                    + divergence_arrays(g.sum(0), mu1.weights)
                    + float(np.sum(c * g)) + eps * divergence_arrays(g, nuw))

        def grad_x(x):
            g = np.maximum(x.reshape(2, 2), 1e-300)
            return (np.log(g.sum(1) / mu0.weights)[:, None]
                    + np.log(g.sum(0) / mu1.weights)[None, :]
                    + c + eps * np.log(g / nuw)).ravel()

        _, oracle_val = projected_gradient(value_x, grad_x,
                                           np.outer(mu0.weights, mu1.weights).ravel(),
                                           iters=60_000)
        worst_x = max(worst_x, abs(rep.primal - oracle_val) / abs(oracle_val))

        grids = default_grids(mu0, mu1, 1.0, n_nodes=6, smin_frac=0.05)
        nu_y = default_nu_y(mu0, mu1, grids, 1.0)
        alpha, rep_y = solve_y_eps(mu0, mu1, cost, 1.0, grids, nu_y,
                                   SolverConfig(eps=eps, tolerance=1e-12, max_iters=30_000))
        h = hp_tensor(cost, grids[0], grids[1], 1.0).ravel()
        nu_flat = nu_y.weights.ravel()
        k0, k1 = grids[0].size, grids[1].size
        nvars = h.size
        idx = np.arange(nvars)
        a_mat = np.zeros((4, nvars))
        a_mat[idx // (k0 * 2 * k1), idx] = grids[0].nodes[(idx // (2 * k1)) % k0]
        a_mat[2 + (idx // k1) % 2, idx] += grids[1].nodes[idx % k1]
        b = np.concatenate([mu0.weights, mu1.weights])

        def value_y(x):
            return float(h @ x) + eps * divergence_arrays(x, nu_flat)

        def grad_y(x):
            safe = np.maximum(x, 1e-300)
            return h + eps * np.where(nu_flat > 0,
                                      np.log(safe / np.maximum(nu_flat, 1e-300)), 200.0)

        x0 = np.where(nu_flat > 0, nu_flat, 0.0)
        _, oracle_y = constrained_minimize(value_y, grad_y, a_mat, b, x0)
        worst_y = max(worst_y, abs(rep_y.primal - oracle_y) / abs(oracle_y))
    report_line(10, worst_x <= 1e-6 and worst_y <= 1e-6,
                f"3 instances each, original-space rel err {worst_x:.2e}, "
                f"extended-space rel err {worst_y:.2e}")
