import math

import numpy as np
import pytest

from uotlab.entropy import (
    BALANCED,
    KL,
    divergence,
    divergence_arrays,
    entropy_by_name,
)
from uotlab.measures import DiscreteMeasure, GroundMismatchError, GroundSet


def test_eval_F_examples():
    assert KL.F(1.0) == 0.0
    assert KL.F(0.0) == 1.0
    assert BALANCED.F(2.0) == math.inf
    assert BALANCED.F(1.0) == 0.0
    with pytest.raises(ValueError):
        KL.F(-0.1)


def test_eval_R_examples():
    assert KL.R(1.0) == 0.0
    assert KL.R(0.0) == math.inf
    assert KL.R(math.e) == pytest.approx(math.e - 2.0, abs=1e-15)
    assert BALANCED.R(1.0) == 0.0
    assert BALANCED.R(0.5) == math.inf
    with pytest.raises(ValueError):
        KL.R(-1.0)


def test_legendre_examples():
    assert KL.F_star(0.0) == 0.0
    assert KL.F_star(1.0) == pytest.approx(math.e - 1.0, abs=1e-15)
    assert BALANCED.F_star(3.0) == 3.0
    assert KL.R_star(0.0) == 0.0
    assert KL.R_star(1.0 - 1.0 / math.e) == pytest.approx(1.0, abs=1e-14)
    assert KL.R_star(1.0) == math.inf
    assert BALANCED.R_star(-2.5) == -2.5


def test_recession_constants():
    for e in (KL, BALANCED):
        assert e.R_inf == e.F_zero
    assert KL.F_inf == math.inf
    assert KL.F_zero == 1.0
    assert BALANCED.F_zero == math.inf


def test_change_of_variables_identity():
    # psi = -F*(-phi) inverts through R*: R*(-F*(-phi)) = phi
    rng = np.random.default_rng(10)
    phi = rng.uniform(-5.0, 5.0, 1000)
    back = KL.R_star(-KL.F_star(-phi))
    assert np.max(np.abs(back - phi)) < 1e-10


def test_reverse_entropy_identity():
    rng = np.random.default_rng(11)
    s = rng.uniform(1e-12, 10.0, 500)
    lhs = KL.R(s)
    rhs = s * KL.F(1.0 / s)
    assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)) < 1e-12


def test_fenchel_young():
    rng = np.random.default_rng(12)
    for _ in range(300):
        s = rng.uniform(1e-6, 8.0)
        phi = rng.uniform(-4.0, 4.0)
        assert s * phi <= KL.F(s) + KL.F_star(phi) + 1e-12
    s = rng.uniform(0.1, 5.0, 50)
    gap = KL.F(s) + KL.F_star(np.log(s)) - s * np.log(s)
    assert np.max(np.abs(gap)) < 1e-12


def test_divergence_examples():
    g = GroundSet([[0.0], [1.0]])
    m = DiscreteMeasure(g, [0.4, 1.2])
    assert divergence(KL, m, m) == 0.0

    ref = DiscreteMeasure(g, [1.0, 0.0])
    atom_off = DiscreteMeasure(g, [0.5, 0.3])
    assert divergence(KL, atom_off, ref) == math.inf

    two = DiscreteMeasure(GroundSet([[0.0]]), [2.0])
    one = DiscreteMeasure(GroundSet([[0.0]]), [1.0])
    # grounds differ by identity, rebuild on a shared ground
    shared = GroundSet([[0.0]])
    val = divergence(KL, DiscreteMeasure(shared, [2.0]), DiscreteMeasure(shared, [1.0]))
    assert val == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-15)
    assert val == pytest.approx(0.386294, abs=5e-7)
    with pytest.raises(GroundMismatchError):
        divergence(KL, two, one)


def test_divergence_balanced_kind():
    g = GroundSet([[0.0], [2.0]])
    m = DiscreteMeasure(g, [0.4, 1.2])
    assert divergence(BALANCED, m, m) == 0.0
    other = DiscreteMeasure(g, [0.4, 1.3])
    assert divergence(BALANCED, other, m) == math.inf


def test_divergence_zero_singular_mass_is_exactly_zero():
    # reference atom with zero weight and measure weight exactly zero there
    val = divergence_arrays(KL, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert val == 0.0


def test_divergence_convexity_along_segments():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = rng.integers(1, 6)
        ref = rng.uniform(0.1, 2.0, n)
        a = rng.uniform(0.0, 3.0, n)
        b = rng.uniform(0.0, 3.0, n)
        da = divergence_arrays(KL, a, ref)
        db = divergence_arrays(KL, b, ref)
        for t in (0.25, 0.5, 0.75):
            mid = divergence_arrays(KL, t * a + (1 - t) * b, ref)
            assert mid <= t * da + (1 - t) * db + 1e-10


def test_entropy_by_name():
    assert entropy_by_name("kl") is not None
    assert entropy_by_name("BALANCED").kind.value == "balanced"
    with pytest.raises(ValueError):
        entropy_by_name("tv")
