import math

import numpy as np
import pytest

from uotlab.costs import (
    CostMatrix,
    hk_cost,
    hk_matrix,
    perspective_H,
    perspective_H_eps,
    sqeuclidean_matrix,
    squared_distances,
)
from uotlab.measures import GroundMismatchError, GroundSet

from oracles import (
    h_by_minimization,
    h_eps_by_dual_ascent,
    h_eps_by_minimization,
    perspective_H_broadcast,
    perspective_H_eps_broadcast,
)


def test_hk_cost_values():
    assert hk_cost(0.0) == 0.0
    assert hk_cost(math.pi / 4) == pytest.approx(math.log(2.0), abs=1e-12)
    assert hk_cost(math.pi / 2) == math.inf
    assert hk_cost(2.0) == math.inf
    with pytest.raises(ValueError):
        hk_cost(-0.1)


def test_points_of_different_dimensions_have_no_distance():
    # a 2-d and a 3-d ground: no cost built on their first two coordinates
    g2, g3 = GroundSet([[0.0, 0.0], [1.0, 0.0]]), GroundSet([[0.0, 1.0, 0.5]])
    for a, b in ((g2, g3), (g3, g2)):
        for build in (sqeuclidean_matrix, hk_matrix):
            with pytest.raises(GroundMismatchError,
                               match=f"dimension {a.dim} and {b.dim}"):
                build(a, b)
        with pytest.raises(GroundMismatchError):
            squared_distances(a.points, b.points)


def test_cost_matrices():
    g0 = GroundSet([[0.0, 0.0], [1.0, 0.0]])
    g1 = GroundSet([[0.0, 1.0]])
    sq = sqeuclidean_matrix(g0, g1)
    assert sq.values[0, 0] == pytest.approx(1.0)
    assert sq.values[1, 0] == pytest.approx(2.0)
    hk = hk_matrix(g0, g1)
    assert hk.values[0, 0] == pytest.approx(hk_cost(1.0))
    with pytest.raises(ValueError):
        CostMatrix(np.array([[-1.0]]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cost_matrices_sum_squared_coordinate_differences(dim):
    rng = np.random.default_rng(40 + dim)
    g0 = GroundSet(rng.uniform(-1.0, 2.0, size=(23, dim)))
    g1 = GroundSet(rng.uniform(-1.0, 2.0, size=(17, dim)))
    per_coordinate = sum(np.subtract.outer(g0.points[:, k], g1.points[:, k]) ** 2
                         for k in range(dim))
    assert np.array_equal(sqeuclidean_matrix(g0, g1).values, per_coordinate)
    # hk is bit-identical to the square root of the (n0, n1, dim) broadcast sum
    diff = g0.points[:, None, :] - g1.points[None, :, :]
    broadcast_hk = hk_cost(np.sqrt(np.sum(diff * diff, axis=-1)))
    hk = hk_matrix(g0, g1).values
    assert np.any(np.isinf(hk)) and np.any(np.isfinite(hk))
    assert np.array_equal(hk, broadcast_hk)


def test_perspective_H_values():
    assert perspective_H(1.0, 1.0, 0.0) == 0.0
    assert perspective_H(1.0, 0.0, 3.7) == 1.0
    assert perspective_H(1.0, 1.0, 2.0) == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-14)
    assert perspective_H(1.0, 1.0, 2.0) == pytest.approx(1.2642411, abs=5e-8)
    assert perspective_H(0.5, 2.0, math.inf) == 2.5
    with pytest.raises(ValueError):
        perspective_H(-1.0, 1.0, 0.0)


def test_perspective_H_matches_shared_scale_minimization():
    rng = np.random.default_rng(20)
    for _ in range(100):
        s0, s1 = rng.uniform(0.1, 5.0, 2)
        c = rng.uniform(0.0, 5.0)
        assert perspective_H(s0, s1, c) == pytest.approx(
            h_by_minimization(s0, s1, c), abs=1e-9
        )


def test_perspective_H_eps_values():
    assert perspective_H_eps(1.0, 1.0, 1.0, 0.0, 1.0) == 0.0
    assert perspective_H_eps(2.0, 3.0, 0.0, 1.0, 0.5) == 5.0
    assert perspective_H_eps(1.0, 1.0, 1.0, 3.0, 1.0) == pytest.approx(
        3.0 - 3.0 * math.exp(-1.0), abs=1e-14
    )
    assert perspective_H_eps(0.0, 1.0, 1.0, 2.0, 0.5) == pytest.approx(1.5)
    assert perspective_H_eps(1.0, 1.0, 1.0, math.inf, 1.0) == 3.0
    with pytest.raises(ValueError):
        perspective_H_eps(1.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        perspective_H_eps(1.0, -1.0, 1.0, 0.0, 1.0)


def test_perspective_H_eps_matches_shared_scale_minimization():
    rng = np.random.default_rng(21)
    for _ in range(100):
        s0, s1, S = rng.uniform(0.1, 5.0, 3)
        c = rng.uniform(0.0, 5.0)
        eps = rng.uniform(0.01, 2.0)
        assert perspective_H_eps(s0, s1, S, c, eps) == pytest.approx(
            h_eps_by_minimization(s0, s1, S, c, eps), abs=1e-7
        )


def test_perspective_H_eps_dual_representation():
    rng = np.random.default_rng(22)
    for _ in range(25):
        s0, s1, S = rng.uniform(0.2, 3.0, 3)
        c = rng.uniform(0.0, 3.0)
        eps = rng.uniform(0.2, 1.5)
        closed = perspective_H_eps(s0, s1, S, c, eps)
        dual = h_eps_by_dual_ascent(s0, s1, S, c, eps)
        assert dual <= closed + 1e-9
        assert closed - dual < 1e-5


def test_homogeneity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        s0, s1, S = rng.uniform(0.05, 4.0, 3)
        c = rng.uniform(0.0, 4.0)
        eps = rng.uniform(0.05, 2.0)
        lam = rng.uniform(0.1, 10.0)
        h = perspective_H(s0, s1, c)
        assert perspective_H(lam * s0, lam * s1, c) == pytest.approx(lam * h, rel=1e-12)
        he = perspective_H_eps(s0, s1, S, c, eps)
        assert perspective_H_eps(lam * s0, lam * s1, lam * S, c, eps) == pytest.approx(
            lam * he, rel=1e-12
        )


def test_eps_to_zero_consistency_at_optimal_scale():
    # with S at the unregularised optimal scale the regularised cost
    # collapses onto H for every eps, so the eps-path is trivially monotone
    rng = np.random.default_rng(24)
    for _ in range(50):
        s0, s1 = rng.uniform(0.1, 4.0, 2)
        c = rng.uniform(0.0, 4.0)
        h = perspective_H(s0, s1, c)
        s_opt = math.sqrt(s0 * s1) * math.exp(-c / 2.0)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            gaps.append(abs(perspective_H_eps(s0, s1, s_opt, c, eps) - h))
        assert max(gaps) < 1e-12
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_hk_dirac_formula():
    rng = np.random.default_rng(27)
    for _ in range(100):
        m0, m1 = rng.uniform(0.1, 4.0, 2)
        d = rng.uniform(0.0, math.pi / 2 - 1e-6)
        got = perspective_H(m0, m1, hk_cost(d))
        want = m0 + m1 - 2.0 * math.sqrt(m0 * m1) * math.cos(d)
        assert got == pytest.approx(want, abs=1e-12)


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def _radial_nodes(rng, k):
    """k radial values, node 0 first, the rest spread over six decades."""
    return np.concatenate([[0.0], np.sort(10.0 ** rng.uniform(-3.0, 3.0, k - 1))])


def _costs_with_inf(rng, n0, n1):
    c = rng.uniform(0.0, 6.0, (n0, n1))
    c[rng.uniform(size=c.shape) < 0.25] = math.inf
    c[0, 0] = math.inf
    return c


@pytest.mark.parametrize("seed", range(4))
def test_open_mesh_perspective_costs_equal_the_broadcast_oracles_bit_for_bit(seed):
    rng = np.random.default_rng(70 + seed)
    n0, n1 = rng.integers(1, 5, 2)
    cost = _costs_with_inf(rng, n0, n1)
    p = rng.choice([1.0, 2.0, rng.uniform(0.5, 3.0)])
    # the extended lift's (x0, s0, x1, s1, S) mesh
    i0, s0p, i1, s1p, ssp = np.ix_(np.arange(n0), _radial_nodes(rng, 9) ** p, np.arange(n1),
                                   _radial_nodes(rng, 7) ** p, _radial_nodes(rng, 8) ** p)
    c = cost[i0, i1]
    for eps in 10.0 ** rng.uniform(-3.0, 1.0, 3):
        assert _same_bits(perspective_H_eps(s0p, s1p, ssp, c, eps),
                          perspective_H_eps_broadcast(s0p, s1p, ssp, c, eps))
    assert _same_bits(perspective_H(s0p, s1p, c), perspective_H_broadcast(s0p, s1p, c))
    # the second-order (x0, s0, x1, s1) mesh of h_tensor
    s0p, s1p = _radial_nodes(rng, 6) ** p, _radial_nodes(rng, 5) ** p
    args = (s0p[None, :, None, None], s1p[None, None, None, :], cost[:, None, :, None])
    assert _same_bits(perspective_H(*args), perspective_H_broadcast(*args))
    # scalars stay floats, and atom lists keep their own shape
    for _ in range(20):
        s0, s1, S = rng.choice([0.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
        c = rng.choice([math.inf, rng.uniform(0.0, 6.0)])
        eps = 10.0 ** rng.uniform(-3.0, 1.0)
        assert _same_bits(perspective_H(s0, s1, c), perspective_H_broadcast(s0, s1, c))
        assert _same_bits(perspective_H_eps(s0, s1, S, c, eps),
                          perspective_H_eps_broadcast(s0, s1, S, c, eps))
    atoms = 10.0 ** rng.uniform(-3.0, 3.0, (3, 11))
    c = cost.ravel()[rng.integers(0, cost.size, 11)]
    assert _same_bits(perspective_H_eps(*atoms, c, 0.5),
                      perspective_H_eps_broadcast(*atoms, c, 0.5))


@pytest.mark.parametrize("call", [
    lambda: perspective_H(math.nan, 1.0, 0.0),
    lambda: perspective_H(math.inf, 1.0, 0.0),
    lambda: perspective_H(1.0, 1.0, math.nan),
    lambda: perspective_H_eps(math.inf, 1.0, 1.0, 0.0, 0.5),
    lambda: perspective_H_eps(1.0, 1.0, math.nan, 0.0, 0.5),
    lambda: perspective_H_eps(1.0, 1.0, 1.0, math.nan, 0.5),
    lambda: perspective_H_eps(np.array([1.0, math.inf]), 1.0, 1.0, 0.0, 0.5),
], ids=["H-nan-s0", "H-inf-s0", "H-nan-cost", "H_eps-inf-s0", "H_eps-nan-S", "H_eps-nan-cost",
        "H_eps-array-inf"])
def test_perspective_costs_reject_non_finite_radial_values_and_nan_costs(call):
    with pytest.raises(ValueError, match="finite|NaN"):
        call()
