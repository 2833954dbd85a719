import math

import numpy as np
import pytest

from uotlab import lifting, solver_y
from uotlab.costs import CostMatrix, hk_cost, hk_matrix, perspective_H_eps, sqeuclidean_matrix
from uotlab.entropy import F_ZERO, R
from uotlab.identities import balanced_sinkhorn
from uotlab.lifting import (
    solve_lifted_balanced,
    solve_lifted_balanced_eps,
    solve_second_order_lift,
    solve_x_extended,
    solve_x_extended_refined,
)
from uotlab.measures import DiscreteMeasure, GroundMismatchError, GroundSet, Plan, product
from uotlab.simplex import transport_lp
from uotlab.solver_x import SolverConfig, default_nu_x, solve_x_eps
from uotlab.solver_y import AtomPlan, RadialGrid, default_grids, solve_y_unreg

from oracles import relaxed_lp_value, solve_second_order_full_w


def random_pair(rng, n0=2, n1=2, box=1.0, lo=0.4, hi=1.2):
    g0 = GroundSet(rng.uniform(0, box, size=(n0, 2)))
    g1 = GroundSet(rng.uniform(0, box, size=(n1, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(lo, hi, n0))
    mu1 = DiscreteMeasure(g1, rng.uniform(lo, hi, n1))
    return mu0, mu1, sqeuclidean_matrix(g0, g1)


def triple_plan_single_atom(s_val, weight, p=1.0, s_node_extra=(0.5,)):
    g0 = GroundSet([[0.0]])
    g1 = GroundSet([[1.0]])
    nodes = np.unique(np.concatenate([[0.0, s_val], s_node_extra]))
    grid = RadialGrid(nodes, float(nodes[-1]))
    k = int(np.flatnonzero(grid.nodes == s_val)[0])
    w = np.zeros((1, grid.size, 1, grid.size, grid.size))
    w[0, k, 0, k, k] = weight
    return AtomPlan(g0, g1, (grid, grid, grid), p, w), grid, k


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_H_marginal_examples():
    eta, grid, k = triple_plan_single_atom(1.0, 1.0)
    assert eta.pair_marginal().weights[0, 0] == pytest.approx(1.0)

    w = np.zeros((1, grid.size, 1, grid.size, grid.size))
    w[0, k, 0, k, 0] = 5.0  # all mass at S = 0
    eta0 = AtomPlan(eta.row_ground, eta.col_ground, (grid, grid, grid), 1.0, w)
    assert eta0.pair_marginal().total_mass == 0.0

    eta2, grid2, k2 = triple_plan_single_atom(2.0, 3.0)
    assert eta2.pair_marginal().weights[0, 0] == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# Balanced lifting
# ---------------------------------------------------------------------------

def test_balanced_coincident_diracs():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    grid = RadialGrid.geometric(2.0, n_nodes=6, smin_frac=0.1)
    result = solve_lifted_balanced(mu, mu, cost, 1.0, grid)
    assert result.optimal and result.value == pytest.approx(0.0, abs=1e-12)


def test_balanced_matches_classical_ot():
    rng = np.random.default_rng(70)
    for _ in range(5):
        mu0, mu1, cost = random_pair(rng, 2, 2)
        scaled = DiscreteMeasure(mu1.ground, mu1.weights * (mu0.total_mass / mu1.total_mass))
        grid = RadialGrid.geometric(mu0.total_mass + scaled.total_mass, n_nodes=7,
                                    smin_frac=0.05)
        result = solve_lifted_balanced(mu0, scaled, cost, 1.0, grid)
        ot = transport_lp(mu0.weights, scaled.weights, cost.values)
        ot_value, status = ot.value, ot.status
        assert status == "optimal" and result.optimal
        assert result.value == pytest.approx(ot_value, abs=1e-9)


def test_balanced_mass_mismatch_infeasible():
    rng = np.random.default_rng(71)
    mu0, mu1, cost = random_pair(rng)
    bumped = DiscreteMeasure(mu1.ground, mu1.weights * 1.5)
    result = solve_lifted_balanced(mu0, bumped, cost, 1.0,
                                   RadialGrid.geometric(4.0, n_nodes=6, smin_frac=0.1))
    assert not result.optimal
    assert result.value == math.inf


def test_balanced_near_balanced_masses_match_classical_ot():
    # within balanced_masses' tolerance, so both LPs must solve
    rng = np.random.default_rng(72)
    mu0, mu1, cost = random_pair(rng, 40, 40, lo=0.5, hi=1.5)
    w1 = mu1.weights * (mu0.total_mass / mu1.total_mass)
    w1[0] += 5e-8
    mu1 = DiscreteMeasure(mu1.ground, w1)
    lifted = solve_lifted_balanced(mu0, mu1, cost, 1.0,
                                   RadialGrid.geometric(4.0, n_nodes=6, smin_frac=0.1))
    classical = transport_lp(mu0.weights, mu1.weights, cost.values)
    assert lifted.optimal and classical.optimal
    assert lifted.value == pytest.approx(classical.value, abs=1e-9)


# ---------------------------------------------------------------------------
# Entropic balanced lifting
# ---------------------------------------------------------------------------

def test_balanced_eps_matches_balanced_entropic_transport():
    rng = np.random.default_rng(72)
    for _ in range(2):
        mu0, mu1, cost = random_pair(rng, box=0.4, lo=0.5, hi=1.2)
        mu1 = DiscreteMeasure(mu1.ground, mu1.weights * (mu0.total_mass / mu1.total_mass))
        nu = default_nu_x(mu0, mu1)
        eps = 0.8
        gamma, _, _, _ = balanced_sinkhorn(mu0.weights, mu1.weights, cost.values, eps,
                                           nu.weights, tol=1e-14)
        m = mu0.total_mass
        want = (float(np.sum(cost.values * gamma))
                + eps * (float(np.sum(gamma * np.log(gamma / nu.weights)))
                         - m + nu.total_mass))
        ratio = nu.weights / gamma
        s_grid = RadialGrid(np.array([0.0, 1.0]), 1.0)
        hi = float(ratio.max()) * 2.0
        S_grid = RadialGrid(
            np.concatenate([[0.0], np.geomspace(float(ratio.min()) / 2.0, hi, 500)]), hi)
        result = solve_lifted_balanced_eps(mu0, mu1, cost, nu, 1.0, (s_grid, S_grid), eps)
        assert result.optimal
        assert result.value == pytest.approx(want, abs=1e-5)


def test_balanced_eps_approaches_balanced_as_eps_vanishes():
    rng = np.random.default_rng(73)
    mu0, mu1, cost = random_pair(rng, box=0.4)
    mu1 = DiscreteMeasure(mu1.ground, mu1.weights * (mu0.total_mass / mu1.total_mass))
    nu = default_nu_x(mu0, mu1)
    grid = RadialGrid.geometric(mu0.total_mass + mu1.total_mass, n_nodes=7, smin_frac=0.05)
    base = solve_lifted_balanced(mu0, mu1, cost, 1.0, grid)
    s_grid = RadialGrid(np.array([0.0, 1.0]), 1.0)
    S_grid = RadialGrid(np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 300)]), 50.0)
    gaps = []
    for eps in (0.5, 0.1, 0.02):
        result = solve_lifted_balanced_eps(mu0, mu1, cost, nu, 1.0, (s_grid, S_grid), eps)
        gaps.append(abs(result.value - base.value))
    assert gaps[-1] < 0.05
    assert gaps[2] <= gaps[0] + 1e-12


def test_balanced_eps_diagonal_atoms_cost_nothing():
    # s = S atoms with zero ground cost contribute eps * s * R(1) = 0, so a
    # coincident-dirac instance whose reference equals the coupling is free
    assert R(1.0) == 0.0
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    nu = Plan(g, g, [[1.0]])
    s_grid = RadialGrid(np.array([0.0, 0.5, 1.0]), 1.0)
    result = solve_lifted_balanced_eps(mu, mu, cost, nu, 1.0, (s_grid, s_grid), 0.7)
    assert result.optimal
    assert result.value == pytest.approx(0.0, abs=1e-12)


def test_balanced_eps_mass_mismatch():
    rng = np.random.default_rng(74)
    mu0, mu1, cost = random_pair(rng)
    bumped = DiscreteMeasure(mu1.ground, mu1.weights * 2.0)
    nu = default_nu_x(mu0, bumped)
    s_grid = RadialGrid(np.array([0.0, 1.0]), 1.0)
    S_grid = RadialGrid(np.array([0.0, 0.5, 1.0, 2.0]), 2.0)
    result = solve_lifted_balanced_eps(mu0, bumped, cost, nu, 1.0, (s_grid, S_grid), 0.5)
    assert not result.optimal


# ---------------------------------------------------------------------------
# Extended form of the original-space regularisation
# ---------------------------------------------------------------------------

def test_x_extended_matches_sinkhorn():
    rng = np.random.default_rng(75)
    for _ in range(3):
        mu0, mu1, cost = random_pair(rng, box=0.5, lo=0.5, hi=1.4)
        nu = default_nu_x(mu0, mu1)
        eps = 0.6
        _, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, tolerance=1e-12))
        _, value = solve_x_extended_refined(mu0, mu1, cost, nu, eps, 1.0)
        assert value == pytest.approx(rep.primal, abs=1e-3)
        assert value >= rep.primal - 1e-9


def test_x_extended_refined_prices_its_coarse_lp_in_full(monkeypatch):
    # the fine grids follow the coarse LP's vertex, so that LP keeps
    # Dantzig's rule; the fine LP may use the candidate list
    from uotlab import lifting
    flags = []
    solve = lifting.atom_lp

    def recorded(*args, **kwargs):
        flags.append(kwargs.get("full_pricing", False))
        return solve(*args, **kwargs)

    monkeypatch.setattr(lifting, "atom_lp", recorded)
    mu0, mu1, cost = random_pair(np.random.default_rng(75), box=0.5, lo=0.5, hi=1.4)
    solve_x_extended_refined(mu0, mu1, cost, default_nu_x(mu0, mu1), 0.6, 1.0)
    assert flags == [True, False]


def test_x_extended_coincident_dirac_zero():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    nu = Plan(g, g, [[1.0]])
    grid = RadialGrid(np.array([0.0, 0.5, 1.0, 2.0]), 2.0)
    eta, value = solve_x_extended(mu, mu, cost, nu, 0.5, 1.0, (grid, grid, grid))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_x_extended_rejects_reference_on_other_grounds():
    rng = np.random.default_rng(78)
    mu0, mu1, cost = random_pair(rng)
    copies = [DiscreteMeasure(GroundSet(mu.ground.points), mu.weights) for mu in (mu0, mu1)]
    nu = default_nu_x(*copies)
    grid = RadialGrid(np.array([0.0, 0.5, 1.0]), 1.0)
    with pytest.raises(GroundMismatchError):
        solve_x_extended(mu0, mu1, cost, nu, 0.5, 1.0, (grid, grid, grid))


def test_x_extended_product_reference_relation():
    # pair projection of a feasible plan relates to the point projections
    # through the product reference masses
    rng = np.random.default_rng(76)
    mu0, mu1, cost = random_pair(rng, box=0.5)
    nu = product(mu0, mu1)  # unnormalised product reference
    eta, _ = solve_x_extended_refined(mu0, mu1, cost, nu, 0.7, 1.0)
    pair = eta.pair_marginal()
    for i in (0, 1):
        lhs = pair.weights.sum(axis=1 - i)
        other_mass = (mu1 if i == 0 else mu0).total_mass
        rhs = other_mass * eta.homogeneous_marginal(i).weights
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_x_extended_inequality_mode():
    # the s = 0 atoms carry every marginal defect at its price, so the
    # sharp LP needs no slack: its value equals the relaxed LP with point
    # defects priced F(0) and pair defects priced eps F(0)
    mu0, mu1, cost = random_pair(np.random.default_rng(74), box=2.0)
    nu = product(mu0, mu1)
    grid = RadialGrid.geometric(10.0, n_nodes=14, smin_frac=1e-3)
    i0, s0p, i1, s1p, ssp = np.ix_(np.arange(2), grid.nodes, np.arange(2), grid.nodes,
                                   grid.nodes)
    families = [(i0, s0p, mu0.weights), (i1, s1p, mu1.weights), (i0 * 2 + i1, ssp, nu.weights)]
    for eps in (0.5, 1.5):
        _, value = solve_x_extended(mu0, mu1, cost, nu, eps, 1.0, (grid, grid, grid))
        h = perspective_H_eps(s0p, s1p, ssp, cost.values[i0, i1], eps)
        relaxed = relaxed_lp_value(h, families, (F_ZERO, F_ZERO, eps * F_ZERO))
        assert value == pytest.approx(relaxed, abs=1e-9)
        if eps > 1.0:  # pricing the pair defect at F(0) undercuts the LP
            assert relaxed_lp_value(h, families, (F_ZERO,) * 3) < value - 1e-3


# ---------------------------------------------------------------------------
# Second-order lift
# ---------------------------------------------------------------------------

def test_second_order_matches_extended_space_lp():
    rng = np.random.default_rng(78)
    for p in (1.0, 2.0):
        mu0, mu1, cost = random_pair(rng)
        grids = default_grids(mu0, mu1, p, n_nodes=12, smin_frac=1e-2)
        _, y_value = solve_y_unreg(mu0, mu1, cost, p, grids)
        w_grid = RadialGrid.geometric(2.0, n_nodes=5, smin_frac=0.1)
        res = solve_second_order_lift(mu0, mu1, cost, p, (grids[0], grids[1], w_grid))
        value, plan = res.value, res.x
        assert value == pytest.approx(y_value, abs=1e-3)
        assert plan.shape == (2, 2, grids[0].size, grids[1].size, w_grid.size)


def test_second_order_coincident_diracs():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    grid = RadialGrid(np.array([0.0, 0.5, 1.0, 2.0]), 2.0)
    w_grid = RadialGrid(np.array([0.0, 1.0]), 1.0)
    value = solve_second_order_lift(mu, mu, cost, 1.0, (grid, grid, w_grid)).value
    assert value == pytest.approx(0.0, abs=1e-12)


def test_second_order_dirac_hk_close():
    m0, m1, d = 1.1, 0.8, 0.8
    g0 = GroundSet([[0.0]])
    g1 = GroundSet([[d]])
    mu0 = DiscreteMeasure(g0, [m0])
    mu1 = DiscreteMeasure(g1, [m1])
    cost = CostMatrix(np.array([[hk_cost(d)]]))
    grids = default_grids(mu0, mu1, 1.0, n_nodes=96, smin_frac=1e-3)
    w_grid = RadialGrid.geometric(2.0, n_nodes=4, smin_frac=0.5)
    value = solve_second_order_lift(mu0, mu1, cost, 1.0, (grids[0], grids[1], w_grid)).value
    exact = m0 + m1 - 2.0 * math.sqrt(m0 * m1) * math.cos(d)
    assert value == pytest.approx(exact, abs=1e-3)


def test_second_order_full_density_grid_gate():
    # +inf on mismatched densities makes the full (w0, w1) grid collapse onto
    # the shared-density reduction; values must coincide on a 1-point instance
    g0 = GroundSet([[0.0, 0.0]])
    g1 = GroundSet([[0.3, 0.4]])
    mu0 = DiscreteMeasure(g0, [0.9])
    mu1 = DiscreteMeasure(g1, [0.6])
    cost = sqeuclidean_matrix(g0, g1)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=8, smin_frac=0.05)
    w_grid = RadialGrid.geometric(2.0, n_nodes=4, smin_frac=0.2)
    v_red = solve_second_order_lift(mu0, mu1, cost, 1.0, (grids[0], grids[1], w_grid)).value
    v_full = solve_second_order_full_w(mu0, mu1, cost, 1.0, (grids[0], grids[1], w_grid))
    assert v_full == pytest.approx(v_red, abs=1e-12)


# ---------------------------------------------------------------------------
# Rescaling of triple plans
# ---------------------------------------------------------------------------

def test_rescale_triple_identity_on_sphere():
    # single atom with s0 + s1 + S equal to the total projected mass
    eta, grid, k = triple_plan_single_atom(0.5, 2.0, s_node_extra=(0.25,))
    cloud = eta.rescale()
    assert cloud.total_mass == pytest.approx(1.0, abs=1e-14)
    # theta = (0.5 + 0.5 + 0.5) / (0.5*2 + 0.5*2 + 0.5*2)... mass-derived cap
    assert np.allclose(cloud.s0, cloud.s1)


def test_rescale_triple_invariants_random():
    rng = np.random.default_rng(79)
    for _ in range(15):
        n0, n1 = rng.integers(1, 3, 2)
        g0 = GroundSet(rng.uniform(0, 1, size=(n0, 2)))
        g1 = GroundSet(rng.uniform(0, 1, size=(n1, 2)))
        cap = float(rng.uniform(1.0, 3.0))
        nodes = lambda k: RadialGrid(
            np.concatenate([[0.0], np.sort(rng.uniform(0.02, cap, k))]), cap)
        grid0, grid1, grid_s = nodes(4), nodes(4), nodes(3)
        p = float(rng.uniform(0.5, 2.0))
        w = rng.uniform(size=(n0, grid0.size, n1, grid1.size, grid_s.size))
        w *= rng.uniform(size=w.shape) < 0.4
        if w.sum() == 0:
            continue
        eta = AtomPlan(g0, g1, (grid0, grid1, grid_s), p, w)
        cost = sqeuclidean_matrix(g0, g1)
        eps = float(rng.uniform(0.2, 1.0))
        cloud = eta.rescale()

        from uotlab.costs import perspective_H_eps
        h = perspective_H_eps(
            (grid0.nodes ** p)[None, :, None, None, None],
            (grid1.nodes ** p)[None, None, None, :, None],
            (grid_s.nodes ** p)[None, None, None, None, :],
            cost.values[:, None, :, None, None], eps)
        base_obj = float(np.sum(h * eta.weights))
        assert cloud.total_mass == pytest.approx(1.0, abs=1e-12)
        assert abs(cloud.objective(cost, eps) - base_obj) <= 1e-10 * (1.0 + abs(base_obj))
        for i in (0, 1):
            assert np.max(np.abs(cloud.homogeneous_marginal(i).weights
                                 - eta.homogeneous_marginal(i).weights)) < 1e-12
        assert np.max(np.abs(cloud.pair_marginal().weights - eta.pair_marginal().weights)) < 1e-12
        s_star_p = (eta.homogeneous_marginal(0).total_mass
                    + eta.homogeneous_marginal(1).total_mass
                    + eta.pair_marginal().total_mass)
        s_star = s_star_p ** (1.0 / p)
        for arr in (cloud.s0, cloud.s1, cloud.S):
            assert np.all(arr <= s_star * (1 + 1e-12))


def test_rescale_triple_drops_fully_null_atoms():
    eta, grid, k = triple_plan_single_atom(0.5, 2.0)
    w = np.zeros_like(eta.weights)
    w[0, 0, 0, 0, 0] = 3.0  # s0 = s1 = S = 0
    eta0 = AtomPlan(eta.row_ground, eta.col_ground, eta.grids, 1.0, w)
    assert eta0.rescale().weights.size == 0


def test_homogeneity_of_regularised_cost_under_common_scaling():
    # basis of the triple rescaling: H_eps(s0^p, s1^p, S^p) is 1-homogeneous
    # under a common scaling of the p-th powers
    from uotlab.costs import perspective_H_eps
    rng = np.random.default_rng(80)
    for _ in range(100):
        s0, s1, ss = rng.uniform(0.05, 3.0, 3)
        c = rng.uniform(0.0, 3.0)
        eps = rng.uniform(0.05, 1.5)
        theta = rng.uniform(0.2, 5.0)
        lhs = perspective_H_eps(s0 / theta, s1 / theta, ss / theta, c, eps)
        rhs = perspective_H_eps(s0, s1, ss, c, eps) / theta
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("seed, kind", [(0, "sqeuclidean"), (1, "sqeuclidean"), (2, "hk"),
                                        (3, "hk")])
def test_restricted_first_lifts_equal_their_cold_solves(monkeypatch, seed, kind):
    # hk on a box of 2.5 puts +inf costs on the far pairs
    rng = np.random.default_rng(90 + seed)
    mu0, mu1, cost = random_pair(rng, 3, 4, box=2.5 if kind == "hk" else 1.0)
    if kind == "hk":
        cost = hk_matrix(mu0.ground, mu1.ground)
    grids = default_grids(mu0, mu1, 1.0, n_nodes=8)
    w_grid = RadialGrid.geometric(2.0, n_nodes=4, smin_frac=0.1)
    balanced = DiscreteMeasure(mu1.ground, mu1.weights * mu0.total_mass / mu1.total_mass)

    def solve_all():
        return (solve_lifted_balanced(mu0, balanced, cost, 1.0, grids[0]),
                solve_second_order_lift(mu0, mu1, cost, 1.0, (grids[0], grids[1], w_grid)),
                solve_y_unreg(mu0, mu1, cost, 1.0, grids)[1])

    lifted, second, y_value = solve_all()
    # the full LP starts from the slice's optimal basis and only proves it
    assert second.iterations == 1
    assert lifted.iterations == 1 or lifted.status == "infeasible"
    monkeypatch.setattr(lifting, "_restricted_first",
                        lambda cost, families, crash: lifting.atom_lp(cost, families))
    monkeypatch.setattr(solver_y, "_singleton_crash", lambda cost, families: None)
    cold_lifted, cold_second, cold_y = solve_all()
    assert cold_lifted.status == lifted.status and cold_second.iterations > 1
    for warm, cold in ((lifted.value, cold_lifted.value), (second.value, cold_second.value),
                       (y_value, cold_y)):
        assert warm == cold or abs(warm - cold) <= 1e-12 * (1.0 + abs(cold))

