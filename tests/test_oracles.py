"""The oracles checked on their own, independently of the package."""

import math

import numpy as np
import pytest

from oracles import homogeneous_marginal_matrix, kkt_newton, second_order_H_tilde


def test_second_order_H_tilde():
    assert second_order_H_tilde(1.0, 1.0, 1.0, 1.0, 4.2) == 4.2
    assert second_order_H_tilde(1.0, 1.0, 2.0, 2.0, 3.0) == 6.0
    assert second_order_H_tilde(1.0, 1.0, 1.0, 2.0, 3.0) == math.inf
    assert second_order_H_tilde(1.0, 1.0, 0.0, 0.0, math.inf) == 0.0
    with pytest.raises(ValueError):
        second_order_H_tilde(1.0, 1.0, -1.0, -1.0, 1.0)


def test_kkt_newton_meets_its_constraints_and_kkt_conditions():
    rng = np.random.default_rng(7)
    n0, n1 = 3, 2
    a_mat = homogeneous_marginal_matrix(n0, n1, rng.uniform(0.1, 2.0, 4),
                                        rng.uniform(0.1, 2.0, 5))
    h = rng.uniform(0.0, 3.0, a_mat.shape[1])
    nu = rng.uniform(0.1, 1.0, h.size) * (rng.uniform(size=h.size) > 0.2)
    b = rng.uniform(0.5, 1.5, n0 + n1)
    eps = 0.3
    x, v, value = kkt_newton(h, nu, a_mat, b, eps)
    live = nu > 0
    assert np.all(x[live] > 0) and np.all(x[~live] == 0)
    assert np.max(np.abs(a_mat @ x - b)) <= 1e-12
    stationarity = h[live] + eps * np.log(x[live] / nu[live]) + a_mat[:, live].T @ v
    assert np.max(np.abs(stationarity)) <= 1e-12
    kl = float(np.sum(x[live] * np.log(x[live] / nu[live]) - x[live]) + np.sum(nu))
    assert value == pytest.approx(float(h @ x) + eps * kl, rel=1e-14)
