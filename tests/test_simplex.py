import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from uotlab.simplex import atom_lp, solve_lp, transport_lp


def random_feasible_lp(rng, m, n):
    """Standard-form LP with a known feasible point."""
    a = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.0, 2.0, n)
    b = a @ x_feas
    c = rng.uniform(0.0, 3.0, n)  # nonnegative costs keep the problem bounded? not always
    return c, a, b


def test_against_scipy_on_random_lps():
    rng = np.random.default_rng(30)
    solved = 0
    for _ in range(40):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 14))
        c, a, b = random_feasible_lp(rng, m, n)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        res = solve_lp(c, a, b)
        if ref.status == 0:
            assert res.optimal
            assert res.value == pytest.approx(ref.fun, abs=1e-8)
            assert np.max(np.abs(a @ res.x - b)) < 1e-8
            assert np.min(res.x) >= -1e-12
            solved += 1
        elif ref.status == 3:
            assert res.status == "unbounded"
    assert solved >= 25


def test_redundant_rows():
    # duplicated constraint row; phase 1 must drop or neutralise it
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([2.0, 2.0, 3.0])
    c = np.array([1.0, 2.0, 0.5])
    res = solve_lp(c, a, b)
    ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert res.optimal
    assert res.value == pytest.approx(ref.fun, abs=1e-9)


def test_infeasible_detected():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_lp(np.array([1.0, 1.0]), a, b)
    assert res.status == "infeasible"


def test_unbounded_detected():
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    res = solve_lp(np.array([-1.0, 0.0]), a, b)
    assert res.status == "unbounded"


def test_negative_rhs_normalised():
    a = np.array([[-1.0, 0.0]])
    b = np.array([-2.0])
    res = solve_lp(np.array([1.0, 1.0]), a, b)
    assert res.optimal and res.value == pytest.approx(2.0)


def test_transport_lp_against_scipy():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n0 = int(rng.integers(2, 6))
        n1 = int(rng.integers(2, 6))
        mu = rng.uniform(0.1, 1.0, n0)
        nu = rng.uniform(0.1, 1.0, n1)
        nu *= mu.sum() / nu.sum()
        cost = rng.uniform(0.0, 3.0, size=(n0, n1))
        res = transport_lp(mu, nu, cost)
        plan, value, status = res.x, res.value, res.status
        assert status == "optimal"
        a_eq = np.zeros((n0 + n1, n0 * n1))
        for i in range(n0):
            a_eq[i, i * n1:(i + 1) * n1] = 1.0
        for j in range(n1):
            a_eq[n0 + j, j::n1] = 1.0
        ref = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu, nu]),
                      bounds=(0, None), method="highs")
        assert value == pytest.approx(ref.fun, abs=1e-9)
        assert np.max(np.abs(plan.sum(axis=1) - mu)) < 1e-9
        assert np.max(np.abs(plan.sum(axis=0) - nu)) < 1e-9


def test_transport_lp_mass_mismatch():
    res = transport_lp(np.array([1.0]), np.array([2.0]), np.array([[1.0]]))
    value, status = res.value, res.status
    assert status == "infeasible" and value == np.inf


def test_transport_lp_infinite_costs():
    cost = np.array([[np.inf, 1.0], [1.0, np.inf]])
    res = transport_lp(np.array([0.5, 0.5]), np.array([0.5, 0.5]), cost)
    plan, value, status = res.x, res.value, res.status
    assert status == "optimal"
    assert value == pytest.approx(1.0)
    assert plan[0, 0] == 0.0 and plan[1, 1] == 0.0

    blocked = np.full((1, 1), np.inf)
    status = transport_lp(np.array([1.0]), np.array([1.0]), blocked).status
    assert status == "infeasible"


@pytest.mark.parametrize("slack_cost", [None, 0.5])
def test_atom_lp_against_scipy(slack_cost):
    # (x0, s0, x1, s1) atoms with +inf-cost atoms, two s^p-weighted point
    # families and a pair family, assembled here atom by atom
    rng = np.random.default_rng(32)
    n0, k0, n1, k1 = 2, 3, 3, 2
    cost = rng.uniform(0.0, 2.0, size=(n0, k0, n1, k1))
    cost[rng.uniform(size=cost.shape) < 0.2] = np.inf
    s0, s1 = rng.uniform(0.2, 1.5, k0), rng.uniform(0.2, 1.5, k1)
    # targets of a feasible point that avoids the +inf atoms
    feasible = np.where(np.isfinite(cost), rng.uniform(0.0, 1.0, cost.shape), 0.0)
    mu0 = np.einsum("ikjl,k->i", feasible, s0)
    mu1 = np.einsum("ikjl,l->j", feasible, s1)
    pair = feasible.sum(axis=(1, 3))
    i0, a0, i1, a1 = np.ix_(np.arange(n0), s0, np.arange(n1), s1)
    families = [(i0, a0, mu0), (i1, a1, mu1), (i0 * n1 + i1, 1.0, pair)]
    res = atom_lp(cost, families, slack_cost)

    atoms = [a for a in np.ndindex(cost.shape) if np.isfinite(cost[a])]
    m = n0 + n1 + n0 * n1
    a_eq = np.zeros((m, len(atoms)))
    for col, (i, k, j, l) in enumerate(atoms):
        a_eq[i, col] = s0[k]
        a_eq[n0 + j, col] = s1[l]
        a_eq[n0 + n1 + i * n1 + j, col] = 1.0
    c = np.array([cost[a] for a in atoms])
    b = np.concatenate([mu0, mu1, pair.ravel()])
    if slack_cost is not None:
        a_eq = np.hstack([a_eq, np.eye(m)])
        c = np.concatenate([c, np.full(m, slack_cost)])
    ref = linprog(c, A_eq=a_eq, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.optimal and res.value == pytest.approx(ref.fun, abs=1e-9)
    assert res.x.shape == cost.shape and not res.x.flags.writeable
    assert np.all(res.x[np.isinf(cost)] == 0.0)

    # the dense matrix runs through the same loop and pivots alike
    dense = solve_lp(c, a_eq, b)
    assert dense.status == res.status and dense.iterations == res.iterations
    assert np.array_equal(dense.x[:len(atoms)], res.x[np.isfinite(cost)])
    assert dense.value == pytest.approx(res.value, rel=1e-12, abs=0.0)


def test_atom_lp_memory_stays_near_the_cost_tensor():
    # 8 x 8 points over 16,000 radial nodes: 1.02M atoms and 16 rows.  A
    # dense constraint matrix alone would be 16 times the cost tensor.
    rng = np.random.default_rng(33)
    n, k = 8, 16_000
    pts = rng.uniform(size=(n, 2))
    ground = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    mu0, mu1 = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    mu1 *= mu0.sum() / mu1.sum()
    i0, i1, sp = np.ix_(np.arange(n), np.arange(n), np.linspace(0.0, 3.0, k) ** 2)
    cost = sp * ground[i0, i1]
    tracemalloc.start()
    try:
        res = atom_lp(cost, [(i0, sp, mu0), (i1, sp, mu1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.optimal
    assert np.allclose(np.einsum("ijk,k->i", res.x, sp.ravel()), mu0, rtol=0, atol=1e-9)
    assert peak <= 10 * cost.nbytes
