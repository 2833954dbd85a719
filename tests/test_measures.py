import json
import math

import numpy as np
import pytest

from uotlab.measures import (
    DiscreteMeasure,
    GroundSet,
    Plan,
    load_measure,
    marginal,
    measure_from_dict,
    measure_to_dict,
    plan_to_dict,
    plan_weights_from_dict,
    product,
    save_measure,
    split_arrays,
)


@pytest.fixture
def ground2():
    return GroundSet(np.array([[0.0, 0.0], [1.0, 0.5]]))


def test_marginal_identity_plan(ground2):
    plan = Plan(ground2, ground2, [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(marginal(plan, 0).weights, [1.0, 1.0])
    assert np.allclose(marginal(plan, 1).weights, [1.0, 1.0])


def test_marginal_zero_plan(ground2):
    plan = Plan(ground2, ground2, np.zeros((2, 2)))
    assert marginal(plan, 0).total_mass == 0.0


def test_marginal_column_sums(ground2):
    plan = Plan(ground2, ground2, [[0.2, 0.3], [0.1, 0.4]])
    assert np.allclose(marginal(plan, 1).weights, [0.3, 0.7])
    with pytest.raises(ValueError):
        marginal(plan, 2)


def test_lebesgue_split_identity():
    m = np.array([0.5, 1.5])
    density, singular = split_arrays(m, m)
    assert np.allclose(density, 1.0)
    assert singular.sum() == 0.0


def test_lebesgue_split_fully_singular():
    m = np.array([0.7, 0.2])
    density, singular = split_arrays(m, np.zeros(2))
    assert np.allclose(density, 0.0)
    assert np.allclose(singular, m)


def test_lebesgue_split_atomwise():
    density, singular = split_arrays(np.array([2.0, 3.0]), np.array([1.0, 0.0]))
    assert density[0] == 2.0
    assert np.allclose(singular, [0.0, 3.0])


def test_lebesgue_split_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 9)
        ground = GroundSet(rng.normal(size=(n, 3)))
        m = DiscreteMeasure(ground, rng.uniform(0.0, 5.0, n))
        ref_w = rng.uniform(0.0, 2.0, n) * rng.integers(0, 2, n)
        ref = DiscreteMeasure(ground, ref_w)
        density, singular = split_arrays(m.weights, ref.weights)
        rebuilt = density * ref.weights + singular
        assert np.allclose(rebuilt, m.weights, rtol=1e-14, atol=0.0)


def test_product_examples(ground2):
    unit0 = DiscreteMeasure(GroundSet([[0.0]]), [1.0])
    unit1 = DiscreteMeasure(GroundSet([[1.0]]), [1.0])
    assert product(unit0, unit1).weights.tolist() == [[1.0]]

    mu0 = DiscreteMeasure(ground2, [1.0, 2.0])
    zero = DiscreteMeasure(ground2, [0.0, 0.0])
    assert product(mu0, zero).total_mass == 0.0

    mu1 = DiscreteMeasure(ground2, [3.0, 4.0])
    assert product(mu0, mu1).weights.tolist() == [[3.0, 4.0], [6.0, 8.0]]


def test_product_mass_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g0 = GroundSet(rng.normal(size=(rng.integers(1, 6), 2)))
        g1 = GroundSet(rng.normal(size=(rng.integers(1, 6), 2)))
        mu0 = DiscreteMeasure(g0, rng.uniform(0, 2, g0.size))
        mu1 = DiscreteMeasure(g1, rng.uniform(0, 2, g1.size))
        got = product(mu0, mu1).total_mass
        assert got == pytest.approx(mu0.total_mass * mu1.total_mass, rel=1e-13)


def test_plan_marginal_masses_agree():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g0 = GroundSet(rng.normal(size=(rng.integers(1, 7), 2)))
        g1 = GroundSet(rng.normal(size=(rng.integers(1, 7), 2)))
        plan = Plan(g0, g1, rng.uniform(size=(g0.size, g1.size)))
        assert marginal(plan, 0).total_mass == pytest.approx(plan.total_mass, rel=1e-13)
        assert marginal(plan, 1).total_mass == pytest.approx(plan.total_mass, rel=1e-13)


def test_construction_validation(ground2):
    with pytest.raises(ValueError):
        DiscreteMeasure(ground2, [1.0, -0.5])
    with pytest.raises(ValueError):
        Plan(ground2, ground2, [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        GroundSet(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DiscreteMeasure(ground2, [1.0])


def test_ground_set_rejects_non_finite_points():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            GroundSet([[0.0, 0.0], [bad, 1.0]])


def test_immutability(ground2):
    m = DiscreteMeasure(ground2, [1.0, 2.0])
    with pytest.raises(ValueError):
        m.weights[0] = 5.0
    with pytest.raises(ValueError):
        ground2.points[0, 0] = 3.0


def test_measure_json_roundtrip(tmp_path, ground2):
    m = DiscreteMeasure(ground2, [0.25, 1.75])
    path = tmp_path / "m.json"
    save_measure(m, path)
    loaded = load_measure(path)
    assert np.array_equal(loaded.weights, m.weights)
    assert np.array_equal(loaded.ground.points, m.ground.points)
    # wire format is the documented shape
    data = json.loads(path.read_text())
    assert set(data) == {"points", "weights"}


def test_plan_wire_format(ground2):
    plan = Plan(ground2, ground2, [[0.1, 0.2], [0.3, 0.4]])
    data = plan_to_dict(plan)
    assert data["rows"] == 2 and data["cols"] == 2
    back = plan_weights_from_dict(data)
    assert np.array_equal(back, plan.weights)
    with pytest.raises(ValueError):
        plan_weights_from_dict({"rows": 3, "cols": 2, "weights": [[1, 2], [3, 4]]})
    with pytest.raises(ValueError):
        measure_from_dict({"points": [[0.0]]})
