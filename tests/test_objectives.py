import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dospsim.objectives import (
    PowerControlPF,
    PowerControlSumRate,
    QuadraticToy,
    make_objective,
)


def _fd_gradient(objective, a, s, step=1e-5):
    n = len(a)
    g = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        g[i] = (objective.global_utility(a + e, s)
                - objective.global_utility(a - e, s)) / (2 * step)
    return g


# --- state sampling ---------------------------------------------------------


def test_toy_state_support():
    s = QuadraticToy().sample_state(np.random.default_rng(0), (10**5,))
    assert s.shape == (10**5, 2)
    assert s.min() >= 0.5 and s.max() <= 1.5


def test_channel_gain_means():
    pf = PowerControlPF(n_nodes=4)
    s = pf.sample_state(np.random.default_rng(1), (2 * 10**5,))
    diag = np.einsum("rii->ri", s)
    off = (s.sum(axis=(1, 2)) - diag.sum(axis=1)) / 12
    assert diag.mean() == pytest.approx(1.0, rel=2e-2)
    assert off.mean() == pytest.approx(0.1, rel=2e-2)
    assert s.min() >= 0


# --- utilities --------------------------------------------------------------


def test_pf_single_link_value():
    pf = PowerControlPF(n_nodes=2)
    # isolate one link: zero cross gains, a_2 = 0 contributes nothing
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = np.array([1.0, 0.0])
    u = pf.local_utilities(a, s)
    assert u[0] == pytest.approx(20 * math.log(1 + math.log(6)) - 1, rel=1e-12)
    assert u[0] == pytest.approx(19.5334, abs=5e-4)
    assert u[1] == 0.0  # zero power: no rate, no cost


def test_toy_value_at_unit_point():
    toy = QuadraticToy()
    assert toy.global_utility(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2),
       st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2))
def test_toy_local_sum_matches_global_formula(a, s):
    a, s = np.array(a), np.array(s)
    toy = QuadraticToy()
    direct = -s[0] * a[0] ** 2 - s[1] * a[1] ** 2 + a[0] * a[1] + a[0] + a[1]
    assert toy.local_utilities(a, s).sum() == pytest.approx(direct, abs=1e-12)


def test_pf_sum_matches_direct_formula():
    pf = PowerControlPF(n_nodes=4)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.1, 20, 4)
        s = pf.sample_state(rng)
        total = 0.0
        for i in range(4):
            den = 0.2 + sum(a[j] * s[j, i] for j in range(4) if j != i)
            sinr = a[i] * s[i, i] / den
            total += 20 * math.log(1 + math.log(1 + sinr)) - a[i]
        assert pf.global_utility(a, s) == pytest.approx(total, rel=1e-12)


def test_pf_own_power_concavity():
    # each node's utility is concave in its own power (interference fixed);
    # the sum is generally not jointly concave per-sample
    pf = PowerControlPF(n_nodes=3)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.uniform(1e-3, 20, 3)
        s = pf.sample_state(rng)
        i = rng.integers(3)
        x, y = rng.uniform(1e-3, 20, 2)
        lam = rng.uniform(0.01, 0.99)

        def u_i(power):
            b = a.copy()
            b[i] = power
            return pf.local_utilities(b, s)[i]

        mid = u_i(lam * x + (1 - lam) * y)
        assert mid >= lam * u_i(x) + (1 - lam) * u_i(y) - 1e-9


# --- observation noise ------------------------------------------------------


def test_observe_noiseless_is_exact():
    toy = QuadraticToy()
    rng = np.random.default_rng(0)
    a, s = np.array([0.5, 1.5]), np.array([1.0, 1.2])
    assert np.array_equal(toy.observe(a, s, rng), toy.local_utilities(a, s))


def test_observe_noise_variance_and_independence():
    toy = QuadraticToy(noise_variance=0.04)
    rng = np.random.default_rng(2)
    a = np.broadcast_to(np.array([1.0, 1.0]), (10**5, 2))
    s = np.broadcast_to(np.array([1.0, 1.0]), (10**5, 2))
    eta = toy.observe(a, s, rng) - toy.local_utilities(a, s)
    assert eta.var() == pytest.approx(0.04, rel=0.1)
    corr = (eta[:, 0] * eta[:, 1]).mean()
    assert abs(corr) < 4 * 0.04 / np.sqrt(10**5)


def _fused_case(kind, n, noise_variance):
    if kind == "toy":
        return QuadraticToy(noise_variance=noise_variance), 0.0, 3.0
    if kind == "power_pf":
        return PowerControlPF(n, noise_variance=noise_variance), 1e-6, 20.0
    return PowerControlSumRate(n, noise_variance=noise_variance), -5.0, 3.0


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["toy", "power_pf", "power_sumrate"]),
    st.sampled_from([2, 4, 10]),
    st.sampled_from([(), (7,), (1000,)]),
    st.sampled_from([0.0, 0.3]),
    st.integers(0, 2**32 - 1),
)
def test_fused_observe_is_bitwise_observe_plus_global_utility(
        kind, n, batch, noise_variance, seed):
    # the nominal point shares the state with the observation; batches () and
    # (7,) take the joint broadcast pass, (1000,) the two-pass path above 256
    # entries, and neither may move a value by an ulp
    objective, lo, hi = _fused_case(kind, n, noise_variance)
    n = objective.n_nodes
    draw = np.random.default_rng(seed)
    a = draw.uniform(lo, hi, batch + (n,))
    b = draw.uniform(lo, hi, batch + (n,))
    s = objective.sample_state(draw, batch)
    u_fused, f_fused = objective.observe(
        a, s, np.random.Generator(np.random.Philox(key=seed)), nominal=b)
    u = objective.observe(a, s, np.random.Generator(np.random.Philox(key=seed)))
    f = objective.global_utility(b, s)
    assert u_fused.shape == u.shape and np.shape(f_fused) == np.shape(f)
    assert u_fused.tobytes() == u.tobytes()
    assert np.asarray(f_fused).tobytes() == np.asarray(f).tobytes()


# --- expectations and gradients ----------------------------------------------


def test_toy_closed_forms():
    toy = QuadraticToy()
    np.testing.assert_allclose(toy.expected_gradient([1.0, 1.0]), [0.0, 0.0])
    np.testing.assert_allclose(toy.expected_gradient([0.0, 0.0]), [1.0, 1.0])
    np.testing.assert_allclose(toy.optimum(), [1.0, 1.0])
    assert toy.strong_concavity == 1.0
    assert toy.hessian_bound == 2.0


def test_toy_strong_concavity_inequality():
    toy = QuadraticToy()
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 3, (10**4, 2))
    g = toy.expected_gradient(a)
    diff = a - toy.optimum()
    assert np.all((diff * g).sum(-1) <= -np.sum(diff**2, -1) + 1e-9)


def test_toy_sample_gradient_example():
    toy = QuadraticToy()
    g = toy.exact_sample_gradient(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(g, [1.0, 1.0])


@pytest.mark.parametrize("kind,n", [("power_pf", 2), ("power_pf", 4),
                                    ("power_sumrate", 2), ("power_sumrate", 4)])
def test_sample_gradients_match_finite_differences(kind, n):
    objective = make_objective(kind, n_nodes=n)
    rng = np.random.default_rng(42 + n)
    for _ in range(30):
        if kind == "power_pf":
            a = rng.uniform(0.5, 15.0, n)
        else:
            a = rng.uniform(-1.0, 2.5, n)
        s = objective.sample_state(rng)
        g = objective.exact_sample_gradient(a, s)
        fd = _fd_gradient(objective, a, s)
        np.testing.assert_allclose(g, fd, rtol=1e-5)


def test_pf_gradient_rejects_nonpositive_power():
    pf = PowerControlPF(n_nodes=2)
    s = pf.sample_state(np.random.default_rng(0))
    with pytest.raises(ValueError):
        pf.exact_sample_gradient(np.array([0.0, 1.0]), s)


def test_power_models_have_no_claimed_optimum():
    assert PowerControlPF().optimum() is None
    assert PowerControlSumRate().optimum() is None


def test_init_action_ranges():
    rng = np.random.default_rng(0)
    a = QuadraticToy().init_action(rng, (1000,))
    assert a.min() >= 0 and a.max() <= 3
    a = PowerControlPF(n_nodes=4).init_action(rng, (1000,))
    assert a.min() > 0 and a.max() <= 20


def test_make_objective_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_objective("beamforming")


def test_make_objective_toy_rejects_parameters_it_lacks():
    assert make_objective("toy", noise_variance=0.5) == QuadraticToy(noise_variance=0.5)
    with pytest.raises(TypeError):
        make_objective("toy", n_nodes=4, omega=3.0)
