import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from uotlab import simplex
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
            # the duals of the final basis are feasible and certify the value
            assert np.min(c - a.T @ res.duals) >= -1e-9
            assert b @ res.duals == pytest.approx(res.value, abs=1e-8)
            solved += 1
        elif ref.status == 3:
            assert res.status == "unbounded"
    assert solved >= 25


def test_start_from_a_feasible_basis_matches_the_cold_solve():
    # the optimal basis under other costs is feasible, rarely optimal
    rng = np.random.default_rng(38)
    warm_pivots = cold_pivots = 0
    for _ in range(30):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 2, 16))
        _, a, b = random_feasible_lp(rng, m, n)
        c, other = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n)
        cold = solve_lp(c, a, b)
        start = solve_lp(other, a, b).basis
        warm = solve_lp(c, a, b, start=start)
        assert cold.optimal and warm.optimal
        assert abs(warm.value - cold.value) <= 1e-12 * (1.0 + abs(cold.value))
        assert np.max(np.abs(a @ warm.x - b)) < 1e-8
        # an optimal basis restarts in the one pass that proves it
        again = solve_lp(c, a, b, start=warm.basis)
        assert again.iterations == 1
        assert again.value == pytest.approx(warm.value, rel=1e-12, abs=0.0)
        warm_pivots += warm.iterations
        cold_pivots += cold.iterations
    assert warm_pivots < cold_pivots


def test_start_with_a_dropped_row():
    # row 1 repeats row 0: a start may keep either one
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([2.0, 2.0, 3.0])
    c = np.array([1.0, 2.0, 0.5])
    res = solve_lp(c, a, b, start=([0, 2], [1, 2]))
    assert res.optimal and res.value == pytest.approx(solve_lp(c, a, b).value, abs=1e-12)
    cols, kept = res.basis
    assert kept.size == 2 and res.duals[np.setdiff1d(np.arange(3), kept)] == 0.0
    assert np.min(c - a.T @ res.duals) >= -1e-12


def test_singular_or_infeasible_start_raises():
    a = np.array([[1.0, 2.0, 1.0, 0.0], [1.0, 2.0, 0.0, 1.0]])
    b = np.array([1.0, 2.0])
    c = np.ones(4)
    assert solve_lp(c, a, b, start=([2, 3], [0, 1])).optimal
    with pytest.raises(ValueError, match="singular"):
        solve_lp(c, a, b, start=([0, 1], [0, 1]))  # column 1 is twice column 0
    with pytest.raises(ValueError, match="infeasible"):
        solve_lp(c, a, b, start=([0, 2], [1, 0]))  # x2 = 1 - 2 < 0
    with pytest.raises(ValueError, match="infeasible"):
        solve_lp(c, a, b, start=([2], [0]))  # row 1 is not redundant: 0 != 2
    with pytest.raises(ValueError, match="infinite cost"):
        solve_lp(np.array([1.0, 1.0, np.inf, 1.0]), a, b, start=([2, 3], [0, 1]))
    with pytest.raises(ValueError, match="singular"):
        solve_lp(c, a, b, start=([2, 2], [0, 1]))
    # singular only up to rounding: LU finds no zero pivot
    rng = np.random.default_rng(39)
    dense = rng.normal(size=(3, 5))
    dense[:, 1] = 0.3 * dense[:, 0] + 0.7 * dense[:, 2]
    with pytest.raises(ValueError, match="singular"):
        solve_lp(np.ones(5), dense, dense @ np.ones(5), start=([0, 1, 2], [0, 1, 2]))
    with pytest.raises(ValueError, match="kept row"):
        solve_lp(c, a, b, start=([2, 3], [0, 0]))


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


@pytest.mark.parametrize("seed", range(12))
def test_transport_lp_on_ties_and_infinite_costs(seed):
    # degenerate instances (integer masses, four cost values), some with
    # +inf cells: the crash start, or the cold solve when it gives None
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 9))
    (cost, families), (_, a_eq, b) = tied_transport_lp(rng, n)
    if seed % 2:
        cost[rng.uniform(size=cost.shape) < 0.15] = np.inf
    mu, nu = b[:n], b[n:]
    start = simplex._transport_crash(cost, families)
    if seed % 2 == 0:
        cols, kept = start  # every cell finite: a spanning tree, one row dropped
        assert cols.size == kept.size == 2 * n - 1
    res = transport_lp(mu, nu, cost)
    finite = np.isfinite(cost.ravel())
    ref = linprog(cost.ravel()[finite], A_eq=a_eq[:, finite], b_eq=b, bounds=(0, None),
                  method="highs")
    if ref.status == 2:
        assert res.status == "infeasible"
        return
    assert ref.status == 0
    assert res.optimal and res.value == pytest.approx(ref.fun, abs=1e-9)
    assert np.max(np.abs(a_eq @ res.x.ravel() - b)) <= 1e-9
    assert np.all(res.x[np.isinf(cost)] == 0.0)
    assert np.min(np.where(finite, cost.ravel() - a_eq.T @ res.duals, 0.0)) >= -1e-9


def test_transport_crash_declines_what_it_cannot_start():
    i, j = np.ix_(np.arange(2), np.arange(2))
    mu = np.array([1.0, 1.0])

    def crash(cost, mu0=mu, mu1=mu, coeff=1.0):
        return simplex._transport_crash(cost, [(i, coeff, mu0), (j, coeff, mu1)])

    assert crash(np.ones((2, 2))) is not None
    assert crash(np.array([[1.0, np.inf], [np.inf, np.inf]])) is None
    assert crash(np.ones((2, 2)), mu1=mu + 1e-6) is None
    assert crash(np.ones((2, 2)), mu0=-mu, mu1=-mu) is None
    assert crash(np.ones((2, 2)), coeff=0.0) is None


def test_singleton_crash_takes_the_cheapest_lone_atom():
    # atom (k, l) of the 3 x 3 tensor is alone in row 0 when l = 0 < k and
    # alone in row 1 when k = 0 < l; (0, 0) is in no row
    s = np.array([0.0, 1.0, 2.0])
    k, l = np.ix_(np.arange(3), np.arange(3))
    cost = np.array([[0.0, 4.0, 3.0], [2.0, 1.0, 1.0], [np.inf, 1.0, 1.0]])
    families = [(np.intp(0), s[k], 1.0), (np.intp(0), s[l], 2.0)]
    assert [c.tolist() for c in simplex._singleton_crash(cost, families)] == [[3, 2], [0, 1]]
    res = atom_lp(cost, families, start=simplex._singleton_crash(cost, families))
    assert res.value == pytest.approx(atom_lp(cost, families).value, abs=1e-12)
    assert simplex._singleton_crash(cost, [(np.intp(0), s[k], -1.0), families[1]]) is None
    cost[1:, 0] = np.inf
    assert simplex._singleton_crash(cost, families) is None


def test_transport_lp_mass_mismatch():
    res = transport_lp(np.array([1.0]), np.array([2.0]), np.array([[1.0]]))
    value, status = res.value, res.status
    assert status == "infeasible" and value == np.inf


def test_transport_lp_solves_masses_that_balanced_masses_accepts():
    # 5e-8 apart is within balanced_masses' 1e-9 (1 + m0 + m1) but past a
    # feasibility test scaled by the largest weight, 1e-8 (1 + 1.5)
    rng = np.random.default_rng(40)
    mu = rng.uniform(0.5, 1.5, 40)
    nu = rng.uniform(0.5, 1.5, 40)
    nu *= mu.sum() / nu.sum()
    nu[0] += 5e-8
    assert simplex.balanced_masses(float(mu.sum()), float(nu.sum()))
    cost = rng.uniform(0.0, 3.0, size=(40, 40))
    res = transport_lp(mu, nu, cost)
    assert res.optimal
    assert np.max(np.abs(res.x.sum(axis=1) - mu)) <= 1e-7
    assert np.max(np.abs(res.x.sum(axis=0) - nu)) <= 1e-7


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


def test_atom_lp_against_scipy():
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
    res = atom_lp(cost, families)

    atoms = [a for a in np.ndindex(cost.shape) if np.isfinite(cost[a])]
    m = n0 + n1 + n0 * n1
    a_eq = np.zeros((m, len(atoms)))
    for col, (i, k, j, l) in enumerate(atoms):
        a_eq[i, col] = s0[k]
        a_eq[n0 + j, col] = s1[l]
        a_eq[n0 + n1 + i * n1 + j, col] = 1.0
    c = np.array([cost[a] for a in atoms])
    b = np.concatenate([mu0, mu1, pair.ravel()])
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


def lifted_balanced_lp(rng, n, k):
    """A lifted-balanced atom LP over n x n points and k radial nodes, and
    its dense (c, A_eq, b) with one column per atom in C order."""
    x0, x1 = rng.uniform(size=(n, 2)), rng.uniform(size=(n, 2))
    ground = ((x0[:, None, :] - x1[None, :, :]) ** 2).sum(axis=-1)
    mu0, mu1 = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    mu1 *= mu0.sum() / mu1.sum()
    i0, i1, sp = np.ix_(np.arange(n), np.arange(n), np.linspace(0.05, 2.0, k) ** 2)
    cost = sp * ground[i0, i1]
    a_eq = np.zeros((2 * n, cost.size))
    for col, (i, j, l) in enumerate(np.ndindex(cost.shape)):
        a_eq[i, col] = a_eq[n + j, col] = sp.ravel()[l]
    return (cost, [(i0, sp, mu0), (i1, sp, mu1)]), (cost.ravel(), a_eq, np.concatenate([mu0, mu1]))


def tied_transport_lp(rng, n):
    """A degenerate transport LP, with integer masses and costs that take
    four values, and its dense form."""
    mu = rng.integers(1, 4, n).astype(float)
    nu = rng.permutation(mu)
    cost = rng.integers(1, 5, size=(n, n)).astype(float)
    i, j = np.ix_(np.arange(n), np.arange(n))
    a_eq = np.zeros((2 * n, n * n))
    for r in range(n):
        a_eq[r, r * n:(r + 1) * n] = 1.0
        a_eq[n + r, r::n] = 1.0
    return (cost, [(i, 1.0, mu), (j, 1.0, nu)]), (cost.ravel(), a_eq, np.concatenate([mu, nu]))


@pytest.mark.parametrize("build, stall_limit", [
    (lambda rng: lifted_balanced_lp(rng, 6, 60), simplex._STALL_LIMIT),
    (lambda rng: tied_transport_lp(rng, 30), simplex._STALL_LIMIT),
    (lambda rng: tied_transport_lp(rng, 30), 0),
], ids=["lifted-balanced", "transport-ties", "transport-ties-bland"])
def test_wide_lps_refill_the_candidate_list(monkeypatch, build, stall_limit):
    # more negative reduced costs than the candidate list holds, so the
    # list is refilled; with no stall allowed Bland's rule takes over
    (cost, families), (c, a_eq, b) = build(np.random.default_rng(34))
    monkeypatch.setattr(simplex, "_STALL_LIMIT", stall_limit)
    negatives = []
    select = simplex._candidates

    def counted(reduced, k):
        negatives.append(int(np.count_nonzero(reduced < -simplex._TOL)))
        return select(reduced, k)

    full_passes = []
    price = simplex.AtomMatrix._price

    def priced(self, *args):
        full_passes.append(1)
        return price(self, *args)

    monkeypatch.setattr(simplex, "_candidates", counted)
    monkeypatch.setattr(simplex.AtomMatrix, "_price", priced)
    res = atom_lp(cost, families)
    assert max(negatives) > simplex._CANDIDATES
    if stall_limit == 0:
        # under Bland's rule each pivot prices every column
        assert len(full_passes) > res.iterations // 2
    else:
        assert len(negatives) > 2  # a phase refilled its list
    ref = linprog(c, A_eq=a_eq, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.optimal and res.value == pytest.approx(ref.fun, abs=1e-9)
    assert np.max(np.abs(a_eq @ res.x.ravel() - b)) <= 1e-9
    assert np.min(res.x) >= 0.0


def test_columns_match_a_column_by_column_build():
    # two families share rows, the artificial block, one row dropped
    rng = np.random.default_rng(35)
    atoms, m = (3, 4, 2), 5
    families = ((rng.integers(0, m, size=(3, 1, 1)), rng.uniform(size=(1, 4, 2))),
                (rng.integers(0, m, size=(1, 4, 2)), 1.5))
    kept = np.array([0, 1, 3, 4])
    A = simplex.AtomMatrix(atoms, families, m, artificial=True, kept=kept)
    n_atoms = int(np.prod(atoms))
    dense = np.zeros((m, n_atoms + m))
    for col, at in enumerate(np.ndindex(atoms)):
        for rows, coeff in families:
            dense[np.broadcast_to(rows, atoms)[at], col] += np.broadcast_to(coeff, atoms)[at]
    for r in range(m):
        dense[r, n_atoms + r] = 1.0
    cols = rng.permutation(dense.shape[1])
    assert np.array_equal(A._columns(cols), dense[kept][:, cols])


def test_candidates_keep_the_lowest_indices_on_ties(monkeypatch):
    # values from a small set, so the cut falls inside a run of ties, and
    # blocks small enough that the list is trimmed many times
    monkeypatch.setattr(simplex, "_SELECT_BLOCK", 64)
    rng = np.random.default_rng(36)
    reduced = rng.integers(-5, 2, size=5000).astype(float)
    for k in (1, 7, 200, 3000):
        negative = np.flatnonzero(reduced < -simplex._TOL)
        order = negative[np.lexsort((negative, reduced[negative]))]
        assert np.array_equal(simplex._candidates(reduced, k), np.sort(order[:k]))


def test_list_prices_equal_a_full_pass():
    # shared rows, the artificial block and a dropped row, as in the build test
    rng = np.random.default_rng(37)
    atoms, m = (3, 4, 2), 5
    families = ((rng.integers(0, m, size=(3, 1, 1)), rng.uniform(size=(1, 4, 2))),
                (rng.integers(0, m, size=(1, 4, 2)), 1.5))
    A = simplex.AtomMatrix(atoms, families, m, artificial=True, kept=np.array([0, 1, 3, 4]))
    n = A.shape[1]
    c, y = rng.normal(size=n), rng.normal(size=A.shape[0])
    full = A._price(c, y, np.empty(n))
    cols = rng.permutation(n)[:20]
    listed = A._select(cols)._price(c[cols], y, np.empty(cols.size))
    assert np.array_equal(listed, full[cols])


def test_full_pricing_builds_no_list(monkeypatch):
    (cost, families), (c, a_eq, b) = lifted_balanced_lp(np.random.default_rng(34), 6, 60)
    calls = []
    select = simplex._candidates

    def counted(reduced, k):
        calls.append(k)
        return select(reduced, k)

    monkeypatch.setattr(simplex, "_candidates", counted)
    res = atom_lp(cost, families, full_pricing=True)
    assert calls == []
    ref = linprog(c, A_eq=a_eq, b_eq=b, bounds=(0, None), method="highs")
    assert res.optimal and res.value == pytest.approx(ref.fun, abs=1e-9)
    assert atom_lp(cost, families).value == pytest.approx(res.value, abs=1e-9)
    assert calls
