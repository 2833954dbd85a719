import math

import numpy as np
import pytest

from uotlab.costs import (
    CostMatrix,
    hk_cost,
    hk_matrix,
    perspective_H,
    perspective_H_eps,
    second_order_H_tilde,
    sqeuclidean_matrix,
)
from uotlab.measures import GroundSet

from oracles import h_by_minimization, h_eps_by_dual_ascent, h_eps_by_minimization


def test_hk_cost_values():
    assert hk_cost(0.0) == 0.0
    assert hk_cost(math.pi / 4) == pytest.approx(math.log(2.0), abs=1e-12)
    assert hk_cost(math.pi / 2) == math.inf
    assert hk_cost(2.0) == math.inf
    with pytest.raises(ValueError):
        hk_cost(-0.1)


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


def test_second_order_H_tilde():
    assert second_order_H_tilde(1.0, 1.0, 1.0, 1.0, 4.2) == 4.2
    assert second_order_H_tilde(1.0, 1.0, 2.0, 2.0, 3.0) == 6.0
    assert second_order_H_tilde(1.0, 1.0, 1.0, 2.0, 3.0) == math.inf
    assert second_order_H_tilde(1.0, 1.0, 0.0, 0.0, math.inf) == 0.0
    with pytest.raises(ValueError):
        second_order_H_tilde(1.0, 1.0, -1.0, -1.0, 1.0)


def test_hk_dirac_formula():
    rng = np.random.default_rng(27)
    for _ in range(100):
        m0, m1 = rng.uniform(0.1, 4.0, 2)
        d = rng.uniform(0.0, math.pi / 2 - 1e-6)
        got = perspective_H(m0, m1, hk_cost(d))
        want = m0 + m1 - 2.0 * math.sqrt(m0 * m1) * math.cos(d)
        assert got == pytest.approx(want, abs=1e-12)
