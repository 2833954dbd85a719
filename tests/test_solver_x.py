import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from uotlab import simplex, solver_x
from uotlab.costs import CostMatrix, hk_cost, hk_matrix, sqeuclidean_matrix
from uotlab.entropy import divergence_arrays
from uotlab.identities import balanced_sinkhorn
from uotlab.measures import DiscreteMeasure, GroundSet, Plan, product
from uotlab.solver_x import (
    DualPotentials,
    SolverConfig,
    check_remark_identities,
    default_nu_x,
    eval_dual_eps,
    eval_homogeneous_eps,
    eval_primal_eps,
    eval_primal_unreg,
    eval_reverse_eps,
    solve_x_eps,
    solve_x_unreg,
)

from oracles import (
    balanced_entropic_value,
    bisect,
    log_domain_sinkhorn,
    projected_gradient,
    solve_x_log_domain,
)


def dirac_pair(m0=1.0, m1=1.0, c=0.0):
    g0 = GroundSet([[0.0]])
    g1 = GroundSet([[1.0]])
    mu0 = DiscreteMeasure(g0, [m0])
    mu1 = DiscreteMeasure(g1, [m1])
    return mu0, mu1, CostMatrix(np.array([[float(c)]]))


def random_instance(rng, n0, n1, lo=0.3, hi=1.5, box=1.0):
    g0 = GroundSet(rng.uniform(0, box, size=(n0, 2)))
    g1 = GroundSet(rng.uniform(0, box, size=(n1, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(lo, hi, n0))
    mu1 = DiscreteMeasure(g1, rng.uniform(lo, hi, n1))
    return mu0, mu1, sqeuclidean_matrix(g0, g1)


# ---------------------------------------------------------------------------
# Functional evaluators
# ---------------------------------------------------------------------------

def test_primal_trivial_zero():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    plan = Plan(g, g, [[1.0]])
    cost = CostMatrix(np.array([[0.0]]))
    assert eval_primal_eps(plan, mu, mu, cost, plan, 0.7) == 0.0


def test_primal_at_zero_plan():
    rng = np.random.default_rng(40)
    mu0, mu1, cost = random_instance(rng, 3, 2)
    nu = default_nu_x(mu0, mu1)
    zero = Plan(mu0.ground, mu1.ground, np.zeros((3, 2)))
    eps = 0.4
    want = mu0.total_mass + mu1.total_mass + eps * nu.total_mass
    assert eval_primal_eps(zero, mu0, mu1, cost, nu, eps) == pytest.approx(want, rel=1e-13)


def test_primal_off_reference_support_is_infinite():
    mu0, mu1, cost = dirac_pair()
    nu = Plan(mu0.ground, mu1.ground, [[0.0]])
    plan = Plan(mu0.ground, mu1.ground, [[0.5]])
    assert eval_primal_eps(plan, mu0, mu1, cost, nu, 0.3) == math.inf


def test_dual_at_zero_potentials():
    mu0, mu1, cost = dirac_pair(c=0.0)
    nu = product(mu0, mu1)
    phi = DualPotentials(np.zeros(1), np.zeros(1))
    assert eval_dual_eps(phi, mu0, mu1, cost, nu, 0.5) == 0.0

    rng = np.random.default_rng(41)
    mu0, mu1, cost = random_instance(rng, 3, 3)
    nu = default_nu_x(mu0, mu1)
    eps = 0.3
    phi = DualPotentials(np.zeros(3), np.zeros(3))
    want = eps * float(np.sum(nu.weights * (1.0 - np.exp(-cost.values / eps))))
    assert eval_dual_eps(phi, mu0, mu1, cost, nu, eps) == pytest.approx(want, rel=1e-13)


def test_weak_duality_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(30):
        mu0, mu1, cost = random_instance(rng, 3, 3)
        nu = default_nu_x(mu0, mu1)
        eps = rng.uniform(0.1, 1.0)
        gamma = Plan(mu0.ground, mu1.ground, rng.uniform(0.05, 1.0, size=(3, 3)))
        phi = DualPotentials(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        dual = eval_dual_eps(phi, mu0, mu1, cost, nu, eps)
        primal = eval_primal_eps(gamma, mu0, mu1, cost, nu, eps)
        assert dual <= primal + 1e-9


def test_reverse_at_zero_plan():
    rng = np.random.default_rng(43)
    mu0, mu1, cost = random_instance(rng, 2, 3)
    nu = default_nu_x(mu0, mu1)
    zero = Plan(mu0.ground, mu1.ground, np.zeros((2, 3)))
    eps = 0.25
    want = mu0.total_mass + mu1.total_mass + eps * nu.total_mass
    assert eval_reverse_eps(zero, mu0, mu1, cost, nu, eps) == pytest.approx(want, rel=1e-13)


def test_sandwich_and_primal_reverse_equality():
    # D <= H <= R = E on full-support plans
    rng = np.random.default_rng(44)
    for _ in range(40):
        mu0, mu1, cost = random_instance(rng, 3, 3)
        nu = default_nu_x(mu0, mu1)
        eps = rng.uniform(0.1, 1.0)
        gamma = Plan(mu0.ground, mu1.ground, rng.uniform(0.05, 1.2, size=(3, 3)))
        phi = DualPotentials(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        d = eval_dual_eps(phi, mu0, mu1, cost, nu, eps)
        h = eval_homogeneous_eps(gamma, mu0, mu1, cost, nu, eps)
        r = eval_reverse_eps(gamma, mu0, mu1, cost, nu, eps)
        e = eval_primal_eps(gamma, mu0, mu1, cost, nu, eps)
        assert d <= h + 1e-9
        assert h <= r + 1e-9
        assert r == pytest.approx(e, abs=1e-10)


def test_functionals_agree_on_plans_with_null_pairs():
    # plans that leave pairs null, next to +inf costs and zero-mass points:
    # the nu_X mass on null pairs costs eps F(0) in every functional
    rng = np.random.default_rng(45)
    for eps in (0.3, 1.0, 3.0):
        for _ in range(60):
            n0, n1 = rng.integers(1, 5, size=2)
            mu0, mu1, cost = random_instance(rng, n0, n1)
            # zero-mass points, one point of each side kept
            w0, w1 = (np.where((rng.uniform(size=n) < 0.2) & (np.arange(n) != rng.integers(n)),
                               0.0, mu.weights) for n, mu in ((n0, mu0), (n1, mu1)))
            mu0, mu1 = DiscreteMeasure(mu0.ground, w0), DiscreteMeasure(mu1.ground, w1)
            cost = CostMatrix(np.where(rng.uniform(size=(n0, n1)) < 0.2, np.inf, cost.values))
            nu = default_nu_x(mu0, mu1)
            # finite primal: no mass where nu_X vanishes or the cost is +inf
            charged = (nu.weights > 0) & np.isfinite(cost.values) & (rng.uniform(size=(n0, n1)) < 0.6)
            gamma = Plan(mu0.ground, mu1.ground,
                         np.where(charged, rng.uniform(0.05, 1.2, size=(n0, n1)), 0.0))
            phi = DualPotentials(rng.uniform(-2, 2, n0), rng.uniform(-2, 2, n1))
            e = eval_primal_eps(gamma, mu0, mu1, cost, nu, eps)
            r = eval_reverse_eps(gamma, mu0, mu1, cost, nu, eps)
            h = eval_homogeneous_eps(gamma, mu0, mu1, cost, nu, eps)
            d = eval_dual_eps(phi, mu0, mu1, cost, nu, eps)
            assert abs(e - r) <= 1e-12 * (1.0 + abs(e))
            assert h <= r + 1e-12 * (1.0 + abs(r))
            assert d <= h + 1e-9


@pytest.mark.parametrize("eps", [0.5, 2.0])
def test_homogeneous_equals_primal_at_optimum_with_infinite_pairs(eps):
    # the +inf off-diagonal pairs stay null at the optimum, and their nu_X
    # mass costs eps F(0) in the homogeneous value as in the primal
    g0, g1 = GroundSet([[0.0], [1.0]]), GroundSet([[0.0], [1.0]])
    mu0, mu1 = DiscreteMeasure(g0, [0.7, 1.1]), DiscreteMeasure(g1, [0.9, 0.5])
    cost = CostMatrix(np.array([[0.2, np.inf], [np.inf, 0.1]]))
    nu = default_nu_x(mu0, mu1)
    plan, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, tolerance=1e-12))
    assert rep.converged
    primal = eval_primal_eps(plan, mu0, mu1, cost, nu, eps)
    assert eval_homogeneous_eps(plan, mu0, mu1, cost, nu, eps) == pytest.approx(primal, abs=1e-9)


def test_homogeneous_trivial_zero():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    plan = Plan(g, g, [[1.0]])
    cost = CostMatrix(np.array([[0.0]]))
    assert eval_homogeneous_eps(plan, mu, mu, cost, plan, 0.9) == 0.0


# ---------------------------------------------------------------------------
# Generalized Sinkhorn
# ---------------------------------------------------------------------------

def test_solver_coincident_diracs():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    nu = Plan(g, g, [[1.0]])
    plan, phi, rep = solve_x_eps(mu, mu, cost, nu, SolverConfig(eps=0.5))
    assert rep.primal == pytest.approx(0.0, abs=1e-9)
    assert plan.total_mass == pytest.approx(1.0, abs=1e-9)
    assert rep.converged


def test_solver_blocked_diracs_scalar_value():
    m0, m1 = 1.2, 0.7
    mu0, mu1, _ = dirac_pair(m0, m1)
    cost = CostMatrix(np.array([[hk_cost(2.0)]]))  # distance beyond pi/2
    nu = product(mu0, mu1)
    eps = 0.3

    # scalar oracle over the single plan entry t: the infinite cost prices
    # every t > 0 at +inf, so the minimum sits at t = 0
    def scalar(t):
        base = (divergence_arrays(np.array([t]), np.array([m0]))
                + divergence_arrays(np.array([t]), np.array([m1]))
                + eps * divergence_arrays(np.array([t]), np.array([m0 * m1])))
        return base + (math.inf if t > 0 else 0.0)

    want = min(scalar(t) for t in np.linspace(0.0, 2.0, 101))
    assert want == pytest.approx(m0 + m1 + eps * m0 * m1, abs=1e-12)

    plan, phi, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps))
    assert rep.primal == pytest.approx(want, abs=1e-9)
    assert plan.total_mass == 0.0


def test_solver_matches_projected_gradient_oracle():
    rng = np.random.default_rng(45)
    mu0, mu1, cost = random_instance(rng, 3, 3)
    nu = default_nu_x(mu0, mu1)
    eps = 0.4
    _, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, tolerance=1e-12))

    nuw = nu.weights
    c = cost.values

    def value(x):
        g = x.reshape(3, 3)
        return (divergence_arrays(g.sum(1), mu0.weights)
                + divergence_arrays(g.sum(0), mu1.weights)
                + float(np.sum(c * g))
                + eps * divergence_arrays(g, nuw))

    def grad(x):
        g = np.maximum(x.reshape(3, 3), 1e-300)
        out = (np.log(g.sum(1) / mu0.weights)[:, None]
               + np.log(g.sum(0) / mu1.weights)[None, :]
               + c + eps * np.log(g / nuw))
        return out.ravel()

    x0 = np.outer(mu0.weights, mu1.weights).ravel()
    _, oracle_val = projected_gradient(value, grad, x0, iters=25_000)
    assert rep.primal == pytest.approx(oracle_val, rel=1e-6)


def solve_with_duals(mu0, mu1, cost, nu, config):
    """``solve_x_eps`` with its kernel checking after every iteration; returns
    the report and the dual of each check's result, one per iteration."""
    kernel, duals = solver_x.scaling_kernel, []

    def every_iteration(*args):
        *head, _, check = args

        def record(*state):
            stop, result = check(*state)
            duals.append(result[0])
            return stop, result
        return kernel(*head, 1, record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_x, "scaling_kernel", every_iteration)
        _, _, rep = solve_x_eps(mu0, mu1, cost, nu, config)
    return rep, duals


def test_dual_monotone_and_gap():
    rng = np.random.default_rng(46)
    for eps in (1.0, 0.2, 0.05):
        mu0, mu1, cost = random_instance(rng, 5, 5)
        nu = default_nu_x(mu0, mu1)
        rep, duals = solve_with_duals(mu0, mu1, cost, nu,
                                      SolverConfig(eps=eps, tolerance=1e-10))
        assert rep.converged
        assert rep.gap <= 1e-10 * (1.0 + abs(rep.primal))
        assert rep.gap >= -1e-10 * (1.0 + abs(rep.primal))
        assert all(b >= a - 1e-11 for a, b in zip(duals, duals[1:]))


def test_first_order_marginal_consistency():
    rng = np.random.default_rng(47)
    mu0, mu1, cost = random_instance(rng, 4, 4)
    nu = default_nu_x(mu0, mu1)
    plan, phi, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=0.2, tolerance=1e-9))
    sigma0 = plan.weights.sum(1) / mu0.weights
    sigma1 = plan.weights.sum(0) / mu1.weights
    assert np.max(np.abs(sigma0 - np.exp(-phi.phi0))) < 1e-8
    assert np.max(np.abs(sigma1 - np.exp(-phi.phi1))) < 1e-8
    assert max(rep.marginal_residuals) < 1e-8


def test_eps_monotonicity_of_values():
    rng = np.random.default_rng(48)
    mu0, mu1, cost = random_instance(rng, 3, 3)
    nu = default_nu_x(mu0, mu1)  # probability reference
    values = []
    for eps in (1.0, 0.5, 0.25, 0.1):
        _, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, tolerance=1e-11))
        values.append(rep.primal)
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_scaling_update_exponent_rederived():
    # stationarity of the dual in phi0 at one point, solved numerically,
    # must reproduce phi0 = eps/(1+eps) log(mu0/(K b))
    rng = np.random.default_rng(49)
    eps = 0.35
    mu0 = rng.uniform(0.5, 2.0)
    kb = rng.uniform(0.2, 3.0)  # (K b) at the point

    def stationarity(phi0):
        return -mu0 * math.exp(-phi0) + kb * math.exp(phi0 / eps)

    root = bisect(stationarity, -20.0, 20.0)
    closed = eps / (1.0 + eps) * math.log(mu0 / kb)
    assert root == pytest.approx(closed, abs=1e-10)


def test_massless_side_goes_through_the_main_paths():
    # a side with no mass needs no case of its own: the kernel empties its
    # lines, so the zero plan is reached and certified, and the ray LP's
    # unit columns alone meet the other side at F(0) per unit
    g0, g1 = GroundSet([[0.0], [1.0]]), GroundSet([[0.5], [2.0], [3.0]])
    sides = [([0.0, 0.0], [0.8, 0.2, 0.05]), ([0.6, 0.1], [0.0, 0.0, 0.0]),
             ([0.0, 0.0], [0.0, 0.0, 0.0])]
    for (w0, w1), infinite in itertools.product(sides, (False, True)):
        c = np.array([[0.3, 1.0, 2.0], [0.1, 0.4, math.inf if infinite else 0.7]])
        mu0, mu1, cost = DiscreteMeasure(g0, w0), DiscreteMeasure(g1, w1), CostMatrix(c)
        nu = Plan(g0, g1, np.full((2, 3), 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan, phi, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=0.5))
            plan0, rep0 = solve_x_unreg(mu0, mu1, cost)
        m = mu0.total_mass + mu1.total_mass
        assert plan.total_mass == 0.0 and rep.converged
        assert rep.primal == pytest.approx(m + 0.5 * nu.total_mass, rel=1e-13)
        assert eval_primal_eps(plan, mu0, mu1, cost, nu, 0.5) == pytest.approx(rep.primal,
                                                                               rel=1e-13)
        assert eval_dual_eps(phi, mu0, mu1, cost, nu, 0.5) == pytest.approx(rep.dual, rel=1e-13)
        assert plan0.total_mass == 0.0 and rep0.converged
        assert rep0.primal == rep0.dual == pytest.approx(m, rel=1e-13) and rep0.gap == 0.0


def test_partial_zero_mass_points():
    g0 = GroundSet([[0.0], [1.0]])
    g1 = GroundSet([[0.25], [0.75]])
    mu0 = DiscreteMeasure(g0, [0.9, 0.0])
    mu1 = DiscreteMeasure(g1, [0.4, 0.6])
    cost = sqeuclidean_matrix(g0, g1)
    nu = default_nu_x(DiscreteMeasure(g0, [0.9, 0.1]), mu1)
    plan, phi, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=0.4))
    assert rep.converged
    assert np.all(plan.weights[1, :] == 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.1, tolerance=2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(eps=bad)
        with pytest.raises(ValueError):
            SolverConfig(eps=0.1, tolerance=bad)
    with pytest.raises(ValueError):
        DualPotentials(np.array([np.inf]), np.array([0.0]))


@pytest.mark.parametrize("max_iters", [0, -3])
def test_config_rejects_nonpositive_max_iters(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(eps=0.05, max_iters=max_iters)


def test_stabilization_modes_agree():
    # the stabilised kernel against the pure log-domain loop
    rng = np.random.default_rng(50)
    mu0, mu1, cost = random_instance(rng, 3, 4)
    nu = default_nu_x(mu0, mu1)
    assert_matches_log_domain(mu0, mu1, cost, nu, SolverConfig(eps=0.6))


# ---------------------------------------------------------------------------
# Scaling kernel against the log-domain loop of tests/oracles.py
# ---------------------------------------------------------------------------

def assert_matches_log_domain(mu0, mu1, cost, nu, config):
    """Same primal (1e-9 relative), iteration count and verdict as the
    log-domain loop with full evaluations, and a report whose primal and
    dual equal the n x n evaluators at the returned plan and potentials
    (1e-12 relative); returns the report."""
    plan, phi, rep = solve_x_eps(mu0, mu1, cost, nu, config)
    for got, want in ((rep.primal, eval_primal_eps(plan, mu0, mu1, cost, nu, config.eps)),
                      (rep.dual, eval_dual_eps(phi, mu0, mu1, cost, nu, config.eps))):
        assert abs(got - want) <= 1e-12 * abs(want)
    omega = max(1.0, 2.0 / (1.0 + math.sqrt(2.0 * config.eps)))
    want, iters, converged, _ = solve_x_log_domain(
        mu0.weights, mu1.weights, cost.values, nu.weights, config.eps, omega,
        config.tolerance, config.max_iters)
    assert rep.iterations == iters
    assert rep.converged == converged
    assert rep.primal == pytest.approx(want, rel=1e-9)
    assert rep.gap >= 0.0
    return rep


def balanced_pair(rng, n, box=1.0):
    g0 = GroundSet(rng.uniform(0, box, size=(n, 2)))
    g1 = GroundSet(rng.uniform(0, box, size=(n, 2)))
    w0, w1 = rng.uniform(0.3, 1.5, n), rng.uniform(0.3, 1.5, n)
    return DiscreteMeasure(g0, w0 / w0.sum()), DiscreteMeasure(g1, w1 / w1.sum())


def massless_first_points(mu0, mu1):
    w0, w1 = mu0.weights.copy(), mu1.weights.copy()
    w0[0] = w1[0] = 0.0
    return DiscreteMeasure(mu0.ground, w0), DiscreteMeasure(mu1.ground, w1)


@pytest.mark.parametrize("cost_kind", ["sqeuclidean", "hk"])
@pytest.mark.parametrize("eps", [0.5, 0.05])
@pytest.mark.parametrize("massless", [False, True])
def test_kernel_kl_steps_match_log_domain(cost_kind, eps, massless):
    rng = np.random.default_rng(51)
    box = 3.0 if cost_kind == "hk" else 1.0  # HK costs are +inf beyond pi/2
    mu0, mu1, _ = random_instance(rng, 12, 9, box=box)
    nu = default_nu_x(mu0, mu1)
    cost = (hk_matrix if cost_kind == "hk" else sqeuclidean_matrix)(mu0.ground, mu1.ground)
    if cost_kind == "hk":
        assert np.any(np.isinf(cost.values)) and np.any(np.isfinite(cost.values))
    if massless:
        mu0, mu1 = massless_first_points(mu0, mu1)
    rep = assert_matches_log_domain(mu0, mu1, cost, nu, SolverConfig(eps=eps))
    assert rep.converged


@pytest.mark.parametrize("cost_kind", ["sqeuclidean", "hk"])
@pytest.mark.parametrize("massless", [False, True])
def test_kernel_balanced_steps_match_log_domain(cost_kind, massless):
    rng = np.random.default_rng(52)
    mu0, mu1 = balanced_pair(rng, 10, box=2.0 if cost_kind == "hk" else 1.0)
    if massless:
        mu0, mu1 = massless_first_points(mu0, mu1)
        mu1 = DiscreteMeasure(mu1.ground, mu1.weights * (mu0.total_mass / mu1.total_mass))
    cost = (hk_matrix if cost_kind == "hk" else sqeuclidean_matrix)(mu0.ground, mu1.ground)
    assert (cost_kind == "hk") == bool(np.any(np.isinf(cost.values)))
    ref = np.outer(mu0.weights, mu1.weights) + 0.01
    eps, tol = 0.2, 1e-12

    def stop(f, g, gamma):
        return max(np.max(np.abs(gamma.sum(1) - mu0.weights)),
                   np.max(np.abs(gamma.sum(0) - mu1.weights))) <= tol

    with np.errstate(divide="ignore"):
        log_k = np.log(ref) - np.where(np.isinf(cost.values), np.inf, cost.values) / eps
    omega = solver_x._BALANCED_OMEGA
    iters, want_plan, stopped = log_domain_sinkhorn(
        log_k, mu0.weights, mu1.weights, 0.0, omega, 5000, 10, stop)
    gamma, got_iters, value, residuals = balanced_sinkhorn(
        mu0.weights, mu1.weights, cost.values, eps, ref, tol=tol, max_iters=5000)
    assert stopped and max(residuals) <= tol
    assert got_iters == iters
    want = balanced_entropic_value(want_plan, mu0.weights, cost.values, eps, ref)
    got = balanced_entropic_value(gamma, mu0.weights, cost.values, eps, ref)
    assert got == pytest.approx(want, rel=1e-9)
    # the value read off the last check is the n x n value of the returned plan
    assert value + eps * (ref.sum() - mu0.total_mass) == pytest.approx(got, rel=1e-12)
    assert np.all(gamma[np.isinf(cost.values)] == 0.0)


def test_kernel_point_reaching_only_massless_points():
    # mu0's first point reaches only mu1's massless middle point: its
    # potential is +inf, and the dual must not pair it with that point's -inf
    g0, g1 = GroundSet([[0.0], [0.5], [1.0]]), GroundSet([[0.1], [0.6], [0.9]])
    mu0 = DiscreteMeasure(g0, [0.7, 0.5, 0.9])
    mu1 = DiscreteMeasure(g1, [0.8, 0.0, 0.6])
    cost = CostMatrix(np.array([[np.inf, 0.3, np.inf], [0.2, 0.1, 0.4], [0.5, np.inf, 0.1]]))
    nu = default_nu_x(mu0, DiscreteMeasure(g1, [0.8, 0.3, 0.6]))
    config = SolverConfig(eps=0.3)
    rep = assert_matches_log_domain(mu0, mu1, cost, nu, config)
    assert rep.converged
    assert rep.primal - rep.dual == pytest.approx(rep.gap, abs=1e-12)
    plan, phi, _ = solve_x_eps(mu0, mu1, cost, nu, config)
    assert (eval_primal_eps(plan, mu0, mu1, cost, nu, 0.3) - eval_dual_eps(phi, mu0, mu1, cost, nu, 0.3)
            == pytest.approx(rep.gap, abs=1e-12))


@pytest.mark.parametrize("absorb", [solver_x._ABSORB, 0.0])
def test_kernel_checks_on_schedule_with_both_marginals(monkeypatch, absorb):
    # check_every 3 over 11 iterations: checks after 3, 6, 9 and the last;
    # absorb 0 rebuilds the kernel after every iteration, checked or not
    monkeypatch.setattr(solver_x, "_ABSORB", absorb)
    rng = np.random.default_rng(56)
    mu0, mu1, cost = random_instance(rng, 6, 8)
    nu = default_nu_x(mu0, mu1)
    eps = 0.02
    log_k = solver_x.log_kernel(nu.weights, cost.values, eps)
    kl_step = solver_x.proximal_step(mu0.weights, mu1.weights, eps)
    iteration, seen = [0], []

    def update(side, m, old):
        iteration[0] += side == 0  # side 0 opens an iteration
        return kl_step.update(side, m, old)

    def check(f, g, marg0, marg1):
        plan = np.exp(f[:, None] + g[None, :] + log_k)
        for got, want in ((marg0, plan.sum(axis=1)), (marg1, plan.sum(axis=0))):
            assert np.all(np.abs(got - want) <= 1e-12 * want)
        seen.append(iteration[0])
        return False, iteration[0]

    iters, _, result = solver_x.scaling_kernel(log_k, mu0.weights, mu1.weights,
                                               kl_step._replace(update=update), 11, 3, check)
    assert seen == [3, 6, 9, 11]
    assert iters == result == 11


def test_kernel_cold_start_full_underflow():
    # every kernel row underflows at the cold start: exp(-1/eps) = exp(-1000)
    rng = np.random.default_rng(54)
    g0 = GroundSet(rng.uniform(0.0, 0.1, size=(6, 2)))
    g1 = GroundSet(rng.uniform(0.0, 0.1, size=(5, 2)) + [1.0, 0.0])
    mu0 = DiscreteMeasure(g0, rng.uniform(0.5, 1.5, 6))
    mu1 = DiscreteMeasure(g1, rng.uniform(0.5, 1.5, 5))
    cost = sqeuclidean_matrix(g0, g1)
    nu = default_nu_x(mu0, mu1)
    assert np.all(np.exp(np.log(nu.weights) - cost.values / 1e-3) == 0.0)
    rep, duals = solve_with_duals(mu0, mu1, cost, nu, SolverConfig(eps=1e-3, max_iters=3000))
    assert math.isfinite(rep.primal)
    assert all(b >= a - 1e-12 * (1.0 + abs(a)) for a, b in zip(duals, duals[1:]))
    assert_matches_log_domain(mu0, mu1, cost, nu, SolverConfig(eps=1e-3, max_iters=3000))


@pytest.mark.parametrize("absorb", [0.0, math.inf])
def test_kernel_absorption_extremes_match_log_domain(monkeypatch, absorb):
    # 0 absorbs the scalings after every iteration, inf never does
    monkeypatch.setattr(solver_x, "_ABSORB", absorb)
    rng = np.random.default_rng(55)
    mu0, mu1, cost = random_instance(rng, 8, 11)
    nu = default_nu_x(mu0, mu1)
    rep, duals = solve_with_duals(mu0, mu1, cost, nu, SolverConfig(eps=0.02))
    assert rep.converged and rep.gap >= 0.0
    assert all(b >= a - 1e-12 for a, b in zip(duals, duals[1:]))
    assert_matches_log_domain(mu0, mu1, cost, nu, SolverConfig(eps=0.02))


def plain_step(mu0_w, mu1_w, kappa):
    """The plain step (log mu - m)/(1 + kappa) of ``proximal_step``: no
    relaxation and no translation."""
    with np.errstate(divide="ignore"):
        log_mu = (np.log(mu0_w), np.log(mu1_w))
    damp = 1.0 / (1.0 + kappa)
    return solver_x.ScalingStep(lambda side, m, old: damp * (log_mu[side] - m), None)


def solve_with_plain_steps(mu0, mu1, cost, nu, config):
    """``solve_x_eps`` with the steps of ``proximal_step`` taken plain."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_x, "proximal_step", plain_step)
        return solve_x_eps(mu0, mu1, cost, nu, config)


@pytest.mark.parametrize("cost_kind", ["sqeuclidean", "hk"])
def test_relaxed_steps_never_slower_than_plain_steps(cost_kind):
    # mass ratios 1 and 3, two seeds, eps down to 0.002: without the guard no
    # sqeuclidean solve at eps 0.002 converges in 10,000 iterations; with it,
    # each solve converges in no more iterations than the plain steps, to the
    # plain primal
    for ratio in (1.0, 3.0):
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            mu0, mu1, _ = random_instance(rng, 40, 40, lo=0.5, hi=1.5,
                                          box=2.0 if cost_kind == "hk" else 1.0)
            mu0 = DiscreteMeasure(mu0.ground, mu0.weights / mu0.total_mass)
            mu1 = DiscreteMeasure(mu1.ground, mu1.weights * (ratio / mu1.total_mass))
            cost = (hk_matrix if cost_kind == "hk" else sqeuclidean_matrix)(mu0.ground, mu1.ground)
            nu = default_nu_x(mu0, mu1)
            for eps in (0.05, 0.005, 0.002):
                config = SolverConfig(eps=eps, tolerance=1e-9)
                _, _, relaxed = solve_x_eps(mu0, mu1, cost, nu, config)
                _, _, plain = solve_with_plain_steps(mu0, mu1, cost, nu, config)
                assert relaxed.converged and plain.converged
                assert relaxed.iterations <= plain.iterations
                assert relaxed.primal == pytest.approx(plain.primal, rel=1e-9)


def side_dual(mu, p, m, kappa):
    """A side's part of the dual over eps at log-potentials p, the other
    side's fixed: sum mu (1 - exp(-kappa p))/kappa (sum mu p at kappa 0) less
    the plan mass sum exp(p + m), over the lines with mass."""
    pos = mu > 0
    mu, p, m = mu[pos], p[pos], m[pos]
    sep = mu * p if kappa == 0.0 else mu * (1.0 - np.exp(-kappa * p)) / kappa
    return float(np.sum(sep) - np.sum(np.exp(p + m)))


@pytest.mark.parametrize("kappa", [0.05, 0.0], ids=["kl", "balanced"])
def test_proximal_update_guards_its_relaxation(kappa):
    # near the plain step the relaxed one raises the dual and is kept; from
    # far below it overshoots, lowers the dual, and the plain step is taken
    mu = np.array([0.5, 1.2, 0.0, 0.0])
    m = np.array([0.3, -0.4, 0.1, -math.inf])
    step = solver_x.proximal_step(mu, mu, kappa)
    omega = solver_x._BALANCED_OMEGA if kappa == 0.0 else 2.0 / (1.0 + math.sqrt(2.0 * kappa))
    with np.errstate(divide="ignore", invalid="ignore"):
        plain = (np.log(mu) - m) / (1.0 + kappa)
    lines = slice(0, 2)  # the lines with mass
    kept = []
    for offset in ([0.05, -0.08], [-6.0, -6.0]):
        old = np.zeros(4)
        old[lines] = plain[lines] + offset
        relaxed = old.copy()
        relaxed[lines] += omega * (plain[lines] - old[lines])
        change = side_dual(mu, relaxed, m, kappa) - side_dual(mu, old, m, kappa)
        new = step.update(0, m, old.copy())
        want = relaxed if change >= 0.0 else plain
        assert new[lines] == pytest.approx(want[lines], rel=1e-12, abs=1e-12)
        assert not np.any(np.isfinite(new[2:]))  # the zero-mass lines
        kept.append(change >= 0.0)
    assert kept == [True, False]


def test_default_reference_is_dropped_before_the_sweep():
    # with nu_X None the sweep holds the log-kernel and the kernel (the
    # plan's storage): the default reference is gone once the log-kernel is
    # built, and the cost is the caller's
    rng = np.random.default_rng(57)
    mu0, mu1, cost = random_instance(rng, 400, 400)
    tracemalloc.start()
    try:
        plan, _, _ = solve_x_eps(mu0, mu1, cost, None, SolverConfig(eps=0.05, max_iters=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.weights.nbytes == 400 * 400 * 8
    assert peak <= 2.5 * plan.weights.nbytes


def test_verdict_requires_first_order_residual():
    # the gap alone passes here, but sigma - exp(-phi) is still ~2e-5
    rng = np.random.default_rng(0)
    g0 = GroundSet(rng.uniform(0, 1, size=(200, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(200, 2)))
    w0, w1 = rng.uniform(0.5, 1.5, 200), rng.uniform(0.5, 1.5, 200)
    mu0 = DiscreteMeasure(g0, w0 / w0.sum())
    mu1 = DiscreteMeasure(g1, 1.3 * w1 / w1.sum())
    config = SolverConfig(eps=0.01, max_iters=40)
    _, _, rep = solve_x_eps(mu0, mu1, sqeuclidean_matrix(g0, g1), None, config)
    assert rep.gap <= config.tolerance * (1.0 + abs(rep.primal))
    assert max(rep.marginal_residuals) > 1e-6
    assert rep.iterations == 40
    assert not rep.converged


@pytest.mark.parametrize("seed", [2, 7, 8])
def test_verdict_is_the_stop_test_at_the_boundary(monkeypatch, seed):
    # a tolerance equal to the last check's own measure stops the loop at
    # that check, and the report must say converged
    rng = np.random.default_rng(seed)
    g0 = GroundSet(rng.uniform(0, 1, size=(30, 2)))
    g1 = GroundSet(rng.uniform(0, 1, size=(40, 2)))
    mu0 = DiscreteMeasure(g0, rng.uniform(0.5, 1.5, 30))
    mu1 = DiscreteMeasure(g1, 1.3 * rng.uniform(0.5, 1.5, 40))
    cost = sqeuclidean_matrix(g0, g1)
    nu = default_nu_x(mu0, mu1)
    eps = 0.05
    kernel, seen = solver_x.scaling_kernel, []

    def spy(*args):
        *head, check = args

        def wrapped(f, g, marg0, marg1):
            seen[:] = solver_x._assess(*solver_x._clamped_potentials(f, g, eps), marg0,
                                       marg1, mu0.weights, mu1.weights, eps, nu.total_mass)
            return check(f, g, marg0, marg1)
        return kernel(*head, wrapped)

    monkeypatch.setattr(solver_x, "scaling_kernel", spy)
    _, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, max_iters=25))
    assert rep.iterations == 25 and not rep.converged
    dual, gap, res = seen
    tol = max(max(res), gap / (1.0 + abs(dual + gap)))
    _, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, tolerance=tol))
    assert rep.iterations == 25
    assert rep.converged


# ---------------------------------------------------------------------------
# Unregularised solves
# ---------------------------------------------------------------------------

def test_unreg_coincident_diracs():
    g = GroundSet([[0.0]])
    mu = DiscreteMeasure(g, [1.0])
    cost = CostMatrix(np.array([[0.0]]))
    plan, rep = solve_x_unreg(mu, mu, cost)
    assert rep.primal == pytest.approx(0.0, abs=1e-7)


def test_unreg_unsolved_first_round_is_not_converged(monkeypatch):
    monkeypatch.setattr(solver_x, "atom_lp",
                        lambda *args, **kwargs: simplex.LpResult("iteration_limit", None,
                                                                 math.nan, 0))
    g0, g1 = GroundSet([[0.0], [1.0]]), GroundSet([[0.5]])
    mu0, mu1 = DiscreteMeasure(g0, [1.0, 0.5]), DiscreteMeasure(g1, [0.8])
    plan, rep = solve_x_unreg(mu0, mu1, sqeuclidean_matrix(g0, g1))
    assert not rep.converged
    assert rep.iterations == 1
    # the zero plan destroys every mass at F(0) = 1 per unit
    assert np.all(plan.weights == 0.0)
    assert rep.primal == pytest.approx(2.3, abs=1e-15)
    assert (rep.dual, rep.gap) == (-math.inf, math.inf)


def test_unreg_dirac_closed_form():
    rng = np.random.default_rng(51)
    for _ in range(10):
        m0, m1 = rng.uniform(0.2, 2.0, 2)
        c = rng.uniform(0.0, 3.0)
        mu0, mu1, cost = dirac_pair(m0, m1, c)
        want = m0 + m1 - 2.0 * math.sqrt(m0 * m1) * math.exp(-c / 2.0)
        plan, rep = solve_x_unreg(mu0, mu1, cost)
        assert rep.primal == pytest.approx(want, abs=1e-9)


def test_unreg_hk_diracs():
    mu0, mu1, _ = dirac_pair(1.0, 1.0)
    cost = CostMatrix(np.array([[hk_cost(math.pi / 3)]]))
    plan, rep = solve_x_unreg(mu0, mu1, cost)
    assert rep.primal == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 3), abs=1e-9)
    assert rep.primal == pytest.approx(1.0, abs=1e-9)


def test_unreg_certificate():
    # the c-transform dual certifies the ray LP's plan
    for seed in range(52, 60):
        rng = np.random.default_rng(seed)
        for _ in range(2):
            mu0, mu1, cost = random_instance(rng, 3, 3)
            plan, rep = solve_x_unreg(mu0, mu1, cost)
            assert rep.converged
            assert -1e-12 <= rep.gap <= 1e-9 * (1.0 + abs(rep.primal))
            assert rep.primal == pytest.approx(eval_primal_unreg(plan, mu0, mu1, cost),
                                               abs=1e-12)


def test_unreg_against_projected_gradient_oracle():
    # first instances of test_unreg_certificate's seeds 52 to 55
    for seed in range(52, 56):
        mu0, mu1, cost = random_instance(np.random.default_rng(seed), 3, 3)
        _, rep = solve_x_unreg(mu0, mu1, cost)
        c = cost.values

        def value(x):
            g = x.reshape(3, 3)
            return (divergence_arrays(g.sum(1), mu0.weights)
                    + divergence_arrays(g.sum(0), mu1.weights) + float(np.sum(c * g)))

        def grad(x):
            g = x.reshape(3, 3)
            return (np.log(np.maximum(g.sum(1), 1e-300) / mu0.weights)[:, None]
                    + np.log(np.maximum(g.sum(0), 1e-300) / mu1.weights)[None, :] + c).ravel()

        _, oracle = projected_gradient(value, grad, np.outer(mu0.weights, mu1.weights).ravel())
        assert rep.dual <= oracle + 1e-12
        assert abs(oracle - rep.primal) <= 1e-8 * (1.0 + abs(rep.primal))


def test_unreg_certified_beyond_twelve_points(monkeypatch):
    # dual <= plan value <= the last LP's value: the plan's radial scales
    # do at least as well as the LP's rays
    values = []

    def spy(*args, **kwargs):
        res = simplex.atom_lp(*args, **kwargs)
        values.append(res.value)
        return res

    monkeypatch.setattr(solver_x, "atom_lp", spy)
    rng = np.random.default_rng(7)
    mu0, mu1, cost = random_instance(rng, 40, 40, box=2.0)
    plan, rep = solve_x_unreg(mu0, mu1, cost)
    assert rep.converged
    assert -1e-12 <= rep.gap <= 1e-9 * (1.0 + abs(rep.primal))
    assert rep.primal == eval_primal_unreg(plan, mu0, mu1, cost)
    assert rep.primal <= values[-1] + 1e-12


def test_unreg_zero_mass_points_and_infinite_costs():
    # pricing a pair with a zero-mass end can put plan mass on that point,
    # which costs +inf
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g0, g1 = GroundSet(rng.uniform(0, 3, (5, 1))), GroundSet(rng.uniform(0, 3, (4, 1)))
        w0, w1 = rng.uniform(0.3, 1.5, 5), rng.uniform(0.3, 1.5, 4)
        w0[1] = w1[2] = 0.0
        mu0, mu1, cost = DiscreteMeasure(g0, w0), DiscreteMeasure(g1, w1), hk_matrix(g0, g1)
        assert np.isinf(cost.values).sum() >= 3
        plan, rep = solve_x_unreg(mu0, mu1, cost)
        assert math.isfinite(rep.primal)
        assert rep.converged
        assert not plan.weights[1].any() and not plan.weights[:, 2].any()


def test_unreg_point_whose_only_partner_in_reach_has_no_mass():
    # the point at 5 reaches only the zero-mass point at 5.3, so it stays
    # untransported at cost F(0) per unit; its potential must not constrain
    # the dual through that partner
    g0, g1 = GroundSet([[0.0], [5.0]]), GroundSet([[0.2], [5.3]])
    mu0 = DiscreteMeasure(g0, [0.8, 0.6])
    mu1 = DiscreteMeasure(g1, [1.1, 0.0])
    plan, rep = solve_x_unreg(mu0, mu1, hk_matrix(g0, g1))
    want = 0.8 + 1.1 - 2.0 * math.sqrt(0.8 * 1.1) * math.cos(0.2) + 0.6
    assert rep.converged
    assert rep.primal == pytest.approx(want, abs=1e-9)
    assert rep.dual == pytest.approx(want, abs=1e-9)


def test_c_transform_dual_ignores_zero_mass_points():
    # a zero-mass point's potential is free: sigma0 there, and the transform
    # of a zero-mass column, must not lower the bound
    cost = np.array([[0.5, 1.0], [0.2, 0.3]])
    mu0_w, mu1_w = np.array([1.0, 0.0]), np.array([0.7, 0.0])
    base = solver_x._c_transform_dual(np.array([0.6, 0.0]), mu0_w, mu1_w, cost)
    assert solver_x._c_transform_dual(np.array([0.6, 1e-30]), mu0_w, mu1_w, cost) == base
    assert base == pytest.approx(0.4 + 0.7 * (1.0 - math.exp(-0.5) / 0.6), abs=1e-15)


def test_unreg_round_cap_reports_not_converged(monkeypatch):
    monkeypatch.setattr(solver_x, "_RAY_ROUNDS", 2)
    mu0, mu1, cost = random_instance(np.random.default_rng(52), 3, 3)
    _, rep = solve_x_unreg(mu0, mu1, cost)
    assert rep.iterations == 2
    assert not rep.converged


@pytest.mark.parametrize("alpha,beta,c", [(0.0, 0.7, 0.3), (0.4, 0.0, 1.2), (0.0, 0.0, 0.5),
                                          (0.3, 0.9, 0.0), (0.8, 0.2, 2.5), (1.0, 1.0, 0.1),
                                          (0.5, 0.5, math.inf)])
def test_best_ray_against_brute_force(alpha, beta, c):
    k_half = math.exp(-c / 2.0)
    a, reduced = solver_x._best_ray(alpha, beta, k_half)
    grid = np.linspace(0.0, 1.0, 200_001)
    costs = grid * alpha + (1.0 - grid) * beta - 2.0 * np.sqrt(grid * (1.0 - grid)) * k_half
    assert reduced == pytest.approx(costs.min(), abs=1e-9)
    assert reduced < 0.0 if alpha * beta < k_half ** 2 else reduced >= -1e-15
    if math.isfinite(a):
        assert a * alpha + (1.0 - a) * beta - 2.0 * math.sqrt(a * (1.0 - a)) * k_half \
            == pytest.approx(reduced, abs=1e-14)


def test_unreg_certificate_unmatched_point():
    # the point at 3.0 is out of HK reach, so its plan marginal is zero
    g0, g1 = GroundSet([[0.0]]), GroundSet([[0.5], [3.0]])
    mu0 = DiscreteMeasure(g0, [1.0])
    mu1 = DiscreteMeasure(g1, [0.7, 0.4])
    plan, rep = solve_x_unreg(mu0, mu1, hk_matrix(g0, g1))
    assert plan.weights[0, 1] == 0.0
    assert rep.primal == pytest.approx(0.63152350097, abs=1e-10)
    assert rep.converged
    assert -1e-12 <= rep.gap <= 1e-8 * (1.0 + abs(rep.primal))


def test_unreg_zero_mass():
    g = GroundSet([[0.0]])
    mu0 = DiscreteMeasure(g, [0.0])
    mu1 = DiscreteMeasure(GroundSet([[1.0]]), [0.7])
    cost = CostMatrix(np.array([[1.0]]))
    _, rep = solve_x_unreg(mu0, mu1, cost)
    assert rep.primal == pytest.approx(0.7)


@pytest.mark.parametrize("cost_kind,ratio", [("sqeuclidean", 1.0), ("sqeuclidean", 3.0),
                                             ("hk", 3.0), ("hk", 0.4)])
def test_eps_values_bracketed_by_the_unregularised_optimum(cost_kind, ratio):
    # an unregularised optimum P0 is feasible at every eps, so
    # V0 <= V_eps <= V0 + eps KL(P0 | nu_X), each side widened by the two
    # solves' certified gaps; (V_eps - V0) / (eps KL) tends to 1 on these
    # instances, and stays below it
    rng = np.random.default_rng(0)
    mu0, mu1, _ = random_instance(rng, 4, 4, lo=0.5, hi=1.5, box=2.0 if cost_kind == "hk" else 1.0)
    mu0 = DiscreteMeasure(mu0.ground, mu0.weights / mu0.total_mass)
    mu1 = DiscreteMeasure(mu1.ground, mu1.weights * (ratio / mu1.total_mass))
    cost = (hk_matrix if cost_kind == "hk" else sqeuclidean_matrix)(mu0.ground, mu1.ground)
    nu = default_nu_x(mu0, mu1)
    plan0, rep0 = solve_x_unreg(mu0, mu1, cost)
    assert rep0.converged
    kl = divergence_arrays(plan0.weights, nu.weights)
    for eps in (0.1, 0.01, 0.001):
        _, _, rep = solve_x_eps(mu0, mu1, cost, nu, SolverConfig(eps=eps, tolerance=1e-12))
        assert rep.converged
        gap = rep0.gap + rep.gap + 1e-12
        assert rep0.primal - gap <= rep.primal <= rep0.primal + eps * kl + gap
    assert (rep.primal - rep0.primal) / (eps * kl) >= 0.99


# ---------------------------------------------------------------------------
# Convention identities
# ---------------------------------------------------------------------------

def test_remark_identities_residuals():
    rng = np.random.default_rng(55)
    for _ in range(5):
        mu0, mu1, cost = random_instance(rng, 3, 3)
        nu = default_nu_x(mu0, mu1)
        eps = rng.uniform(0.2, 0.8)
        report = check_remark_identities(mu0, mu1, cost, nu, eps)
        assert report["residual_tilde"] < 1e-9
        assert report["residual_bar"] < 1e-9
        assert report["residual_g_forms"] < 1e-9


def test_remark_identities_hold_where_the_absorbed_reference_underflows():
    # exp(-c/eps) nu_X underflows on most pairs at these eps (costs reach 8);
    # taken in the log domain, every residual stays at rounding, unwarned
    for eps, seed in itertools.product((0.005, 0.002), range(10)):
        rng = np.random.default_rng(seed)
        mu0, mu1 = (DiscreteMeasure(GroundSet(rng.uniform(0, 2, size=(12, 2))),
                                    rng.uniform(0.5, 1.5, 12) * scale) for scale in (1.0, 1.3))
        cost = sqeuclidean_matrix(mu0.ground, mu1.ground)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_remark_identities(mu0, mu1, cost, None, eps)
        assert report["residual_bar"] <= 1e-12
        assert report["residual_tilde"] <= 1e-12


def test_log_kernel_blocks_over_first_axis_slices_of_any_ndim():
    # a broadcast 4-D reference with a zero node and an infinite cost: the
    # log is the one full-size array, cost/eps one block of it at a time
    rng = np.random.default_rng(58)
    shape = (16, 32, 16, 32)
    base = rng.uniform(0.5, 1.5, (1, 32, 1, 32))
    base[:, 0] = 0.0
    ref = np.broadcast_to(base, shape)
    cost = rng.uniform(0.0, 3.0, shape)
    cost[1, 2, 3, 4] = math.inf
    eps = 0.1
    with np.errstate(divide="ignore"):
        want = np.log(ref) - cost / eps
    tracemalloc.start()
    try:
        got = solver_x.log_kernel(ref, cost, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= got.nbytes + 8 * solver_x._BLOCK + 4096  # and a few small objects


def test_unreg_value_from_plan_evaluator():
    mu0, mu1, cost = dirac_pair(1.0, 1.0, 0.5)
    t = math.exp(-0.25)  # closed-form optimal scale for c = 0.5
    plan = Plan(mu0.ground, mu1.ground, [[t]])
    want = 2.0 * (t * math.log(t) - t + 1.0) + 0.5 * t
    assert eval_primal_unreg(plan, mu0, mu1, cost) == pytest.approx(want, abs=1e-14)
