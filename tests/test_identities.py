import math

import numpy as np
import pytest

from uotlab.identities import (
    GridMeasure,
    balanced_sinkhorn,
    entropy_against_lebesgue,
    grid_measure,
    _solve,
    verify_identities,
)


def test_grid_measure_builder():
    mu = grid_measure(4, 2)
    assert mu.points.shape == (16, 2)
    assert mu.cell_volume == pytest.approx((1 / 4) ** 2)
    assert mu.weights.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        GridMeasure(mu.points, mu.cell_volume, mu.weights * 2.0)


def test_grid_measure_rejects_non_finite_values():
    mu = grid_measure(2, 1)
    nan_weight = mu.weights.copy()
    nan_weight[0] = math.nan
    nan_point = mu.points.copy()
    nan_point[1, 0] = math.nan
    for args in ((mu.points, math.nan, mu.weights), (mu.points, math.inf, mu.weights),
                 (mu.points, mu.cell_volume, nan_weight),
                 (nan_point, mu.cell_volume, mu.weights)):
        with pytest.raises(ValueError, match="finite"):
            GridMeasure(*args)


def test_entropy_against_lebesgue_uniform():
    mu = grid_measure(8, 1)
    # uniform density over a unit-volume box has zero differential entropy
    assert entropy_against_lebesgue(mu) == pytest.approx(0.0, abs=1e-15)


def test_single_cell_value_is_zero():
    mu = grid_measure(1, 1)
    value, gamma, _ = _solve(mu, mu, 0.5, 2)
    assert value == pytest.approx(0.0, abs=1e-14)
    assert gamma[0, 0] == pytest.approx(1.0)


def test_balanced_sinkhorn_marginals():
    rng = np.random.default_rng(90)
    mu = grid_measure(6, 1, rng=rng)
    nu = grid_measure(6, 1, rng=rng)
    cost = np.sum((mu.points[:, None, :] - nu.points[None, :, :]) ** 2, axis=-1)
    gamma, iters, _, residuals = balanced_sinkhorn(mu.weights, nu.weights, cost, 0.3,
                                                   np.outer(mu.weights, nu.weights))
    assert max(residuals) < 1e-13
    assert np.max(np.abs(gamma.sum(1) - mu.weights)) < 1e-12


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
@pytest.mark.parametrize("eps", [0.2, 1.0])
def test_identities_residuals(dim, n, eps):
    rng = np.random.default_rng(91)
    mu = grid_measure(n, dim, rng=rng)
    nu = grid_measure(n, dim, rng=rng)
    report = verify_identities(mu, nu, eps)
    assert report["residual_w2"] < 1e-9
    assert report["residual_w3"] < 1e-9
    assert report["plan_residual_w2"] < 1e-9
    assert report["plan_residual_w3"] < 1e-9


def test_constant_term_at_unit_eps_1d():
    rng = np.random.default_rng(92)
    mu = grid_measure(8, 1, rng=rng)
    nu = grid_measure(8, 1, rng=rng)
    report = verify_identities(mu, nu, 1.0)
    shift = report["w3"] - 0.5 * report["w1_double_eps"]
    assert shift == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-10)


def test_identities_with_equal_uniform_measures():
    mu = grid_measure(6, 1)
    report = verify_identities(mu, mu, 0.4)
    assert report["entropy_mu"] == pytest.approx(0.0, abs=1e-14)
    assert report["residual_w2"] < 1e-9
    assert report["residual_w3"] < 1e-9


def test_w1_w2_same_minimizer_distinct_values():
    rng = np.random.default_rng(93)
    mu = grid_measure(5, 1, rng=rng)
    nu = grid_measure(5, 1, rng=rng)
    eps = 0.3
    v1, g1, _ = _solve(mu, nu, eps, 1)
    v2, g2, _ = _solve(mu, nu, eps, 2)
    v3, g3, _ = _solve(mu, nu, eps, 3)
    assert np.max(np.abs(g1 - g2)) < 1e-9
    assert v1 != pytest.approx(v2, abs=1e-6)  # values differ by the entropy shift
    assert v3 == pytest.approx(
        0.5 * _solve(mu, nu, 2 * eps, 1)[0] + 0.5 * eps * math.log(2 * math.pi * eps),
        abs=1e-10,
    )
