import math

import numpy as np
import pytest

from uotlab.entropy import F, F_ZERO, R, F_star, R_star, divergence, divergence_arrays
from uotlab.measures import DiscreteMeasure, GroundMismatchError, GroundSet


def test_eval_F_examples():
    assert F(1.0) == 0.0
    assert F(0.0) == 1.0
    with pytest.raises(ValueError):
        F(-0.1)


def test_eval_R_examples():
    assert R(1.0) == 0.0
    assert R(0.0) == math.inf
    assert R(math.e) == pytest.approx(math.e - 2.0, abs=1e-15)
    with pytest.raises(ValueError):
        R(-1.0)


def test_legendre_examples():
    assert F_star(0.0) == 0.0
    assert F_star(1.0) == pytest.approx(math.e - 1.0, abs=1e-15)
    assert R_star(0.0) == 0.0
    assert R_star(1.0 - 1.0 / math.e) == pytest.approx(1.0, abs=1e-14)
    assert R_star(1.0) == math.inf


def test_recession_constants():
    # R'_inf = lim R(s)/s = F(0)
    assert F_ZERO == F(0.0) == 1.0
    assert R(1e15) / 1e15 == pytest.approx(F_ZERO, abs=1e-13)


def test_change_of_variables_identity():
    # psi = -F*(-phi) inverts through R*: R*(-F*(-phi)) = phi
    rng = np.random.default_rng(10)
    phi = rng.uniform(-5.0, 5.0, 1000)
    back = R_star(-F_star(-phi))
    assert np.max(np.abs(back - phi)) < 1e-10


def test_reverse_entropy_identity():
    rng = np.random.default_rng(11)
    s = rng.uniform(1e-12, 10.0, 500)
    lhs = R(s)
    rhs = s * F(1.0 / s)
    assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)) < 1e-12


def test_fenchel_young():
    rng = np.random.default_rng(12)
    for _ in range(300):
        s = rng.uniform(1e-6, 8.0)
        phi = rng.uniform(-4.0, 4.0)
        assert s * phi <= F(s) + F_star(phi) + 1e-12
    s = rng.uniform(0.1, 5.0, 50)
    gap = F(s) + F_star(np.log(s)) - s * np.log(s)
    assert np.max(np.abs(gap)) < 1e-12


def test_divergence_examples():
    g = GroundSet([[0.0], [1.0]])
    m = DiscreteMeasure(g, [0.4, 1.2])
    assert divergence(m, m) == 0.0

    ref = DiscreteMeasure(g, [1.0, 0.0])
    atom_off = DiscreteMeasure(g, [0.5, 0.3])
    assert divergence(atom_off, ref) == math.inf

    two = DiscreteMeasure(GroundSet([[0.0]]), [2.0])
    one = DiscreteMeasure(GroundSet([[0.0]]), [1.0])
    # grounds differ by identity, rebuild on a shared ground
    shared = GroundSet([[0.0]])
    val = divergence(DiscreteMeasure(shared, [2.0]), DiscreteMeasure(shared, [1.0]))
    assert val == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-15)
    assert val == pytest.approx(0.386294, abs=5e-7)
    with pytest.raises(GroundMismatchError):
        divergence(two, one)


def test_divergence_zero_singular_mass_is_exactly_zero():
    # reference atom with zero weight and measure weight exactly zero there
    val = divergence_arrays(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert val == 0.0


def test_divergence_convexity_along_segments():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = rng.integers(1, 6)
        ref = rng.uniform(0.1, 2.0, n)
        a = rng.uniform(0.0, 3.0, n)
        b = rng.uniform(0.0, 3.0, n)
        da = divergence_arrays(a, ref)
        db = divergence_arrays(b, ref)
        for t in (0.25, 0.5, 0.75):
            mid = divergence_arrays(t * a + (1 - t) * b, ref)
            assert mid <= t * da + (1 - t) * db + 1e-10

