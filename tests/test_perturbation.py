import numpy as np
import pytest

from dospsim.perturbation import PerturbationModel, moments, sample_array


def test_values_live_on_the_two_point_support():
    rng = np.random.default_rng(0)
    v = sample_array(PerturbationModel(), (4,), rng)
    assert v.shape == (4,)
    assert set(np.unique(v)) <= {-1.0, 1.0}
    v = sample_array(PerturbationModel(amplitude=1.5), (1000,), rng)
    assert np.all(np.abs(v) == 1.5)


def test_moments():
    assert moments(PerturbationModel(amplitude=1.0)) == (1.0, 1.0)
    assert moments(PerturbationModel(amplitude=2.0)) == (4.0, 2.0)
    assert moments(PerturbationModel(amplitude=1.5)) == (2.25, 1.5)


def test_empirical_first_and_second_moments():
    rng = np.random.default_rng(7)
    n = 10**6
    v = sample_array(PerturbationModel(amplitude=1.5), (n,), rng)
    assert abs(v.mean()) < 4 * 1.5 / np.sqrt(n)
    assert v.var() == pytest.approx(2.25, rel=1e-2)


def test_cross_and_third_moments_vanish():
    rng = np.random.default_rng(11)
    v = sample_array(PerturbationModel(), (10**6, 2), rng)
    se = 1.0 / np.sqrt(10**6)
    assert abs((v[:, 0] * v[:, 1]).mean()) < 4 * se
    assert abs((v[:, 0] ** 3).mean()) < 4 * se


def test_invalid_construction():
    with pytest.raises(ValueError):
        PerturbationModel(amplitude=0.0)
