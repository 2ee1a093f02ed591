import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dospsim.objectives import (
    MIN_POWER,
    OBJECTIVE_KINDS,
    PowerControlPF,
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


def test_pf_denominators_match_the_direct_sum_over_the_other_nodes():
    # the interference is the full sum less the own term; at the default
    # sigma2 the cancellation stays below 1e-12 relative even at box-corner
    # powers, where one own term dwarfs sigma2 (README states the error)
    n = 10
    pf = PowerControlPF(n_nodes=n)
    rng = np.random.default_rng(0)
    other = 1.0 - np.eye(n)
    for _ in range(10):
        a = np.where(rng.random(n) < 0.5, MIN_POWER, pf.bounds[1])
        s = pf.sample_state(rng, (10_000,))
        den, _, _ = pf._denominators(a, s)
        direct = pf.sigma2 + np.einsum("j,...ji->...i", a, s * other)
        assert (np.abs(den - direct) / direct).max() < 1e-12


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
    noise = toy.sample_noise(rng, (2,))
    assert noise is None
    assert np.array_equal(toy.observe(a, s, noise), toy.local_utilities(a, s))


def test_observe_noise_variance_and_independence():
    toy = QuadraticToy(noise_variance=0.04)
    rng = np.random.default_rng(2)
    a = np.broadcast_to(np.array([1.0, 1.0]), (10**5, 2))
    s = np.broadcast_to(np.array([1.0, 1.0]), (10**5, 2))
    eta = (toy.observe(a, s, toy.sample_noise(rng, (10**5, 2)))
           - toy.local_utilities(a, s))
    assert eta.var() == pytest.approx(0.04, rel=0.1)
    corr = (eta[:, 0] * eta[:, 1]).mean()
    assert abs(corr) < 4 * 0.04 / np.sqrt(10**5)


def test_sample_noise_is_bitwise_the_scaled_normal_draw():
    # the noise a run draws equals numpy's normal(0, sd) from the same stream
    toy = QuadraticToy(noise_variance=0.3)
    got = toy.sample_noise(np.random.Generator(np.random.Philox(key=5)), (4, 2))
    want = np.random.Generator(np.random.Philox(key=5)).normal(
        0.0, np.sqrt(0.3), (4, 2))
    assert got.tobytes() == want.tobytes()


def _objective_case(kind, n):
    objective = QuadraticToy() if kind == "toy" else PowerControlPF(n)
    return (objective, *objective.bounds)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(OBJECTIVE_KINDS),
    st.sampled_from([2, 4, 10]),
    st.sampled_from([1, 7, 1000]),
    st.sampled_from([1, 3, 16]),
    st.integers(0, 2**32 - 1),
)
def test_global_utility_on_stacked_rows_is_bitwise_per_row(kind, n, R, C,
                                                           seed):
    # dosp.run evaluates the recorded utilities of a chunk of C iterations in
    # one call on their stacked (C, R, n) rows, or on an index-selected
    # subset of them; neither may move a value by an ulp from the call on
    # each iteration's (R, n) row
    objective, lo, hi = _objective_case(kind, n)
    n = objective.n_nodes
    draw = np.random.default_rng(seed)
    a = draw.uniform(lo, hi, (C, R, n))
    s = objective.sample_state(draw, (C, R))
    rows = np.stack([objective.global_utility(a[c], s[c]) for c in range(C)])
    assert rows.shape == (C, R)
    assert objective.global_utility(a, s).tobytes() == rows.tobytes()
    pick = np.sort(draw.choice(C, size=draw.integers(1, C + 1), replace=False))
    got = objective.global_utility(a[pick], s[pick])
    assert got.tobytes() == rows[pick].tobytes()


# --- expectations and gradients ----------------------------------------------


def _toy_mean_gradient(toy, a):
    """grad F(a): f is linear in s and E[s] = (1, 1), so the sample gradient
    at s = (1, 1) is exact."""
    return toy.exact_sample_gradient(a, np.ones(2))


def test_toy_closed_forms():
    toy = QuadraticToy()
    np.testing.assert_allclose(_toy_mean_gradient(toy, [1.0, 1.0]), [0.0, 0.0])
    np.testing.assert_allclose(_toy_mean_gradient(toy, [0.0, 0.0]), [1.0, 1.0])
    np.testing.assert_allclose(toy.optimum(), [1.0, 1.0])
    assert toy.strong_concavity == 1.0
    assert toy.hessian_bound == 2.0


def test_toy_strong_concavity_inequality():
    toy = QuadraticToy()
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 3, (10**4, 2))
    g = _toy_mean_gradient(toy, a)
    diff = a - toy.optimum()
    assert np.all((diff * g).sum(-1) <= -np.sum(diff**2, -1) + 1e-9)


def test_toy_sample_gradient_example():
    toy = QuadraticToy()
    g = toy.exact_sample_gradient(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(g, [1.0, 1.0])


@pytest.mark.parametrize("kind,n", [("power_pf", 2), ("power_pf", 4)])
def test_sample_gradients_match_finite_differences(kind, n):
    objective = make_objective(kind, n_nodes=n)
    rng = np.random.default_rng(42 + n)
    for _ in range(30):
        a = rng.uniform(0.5, 15.0, n)
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


def test_init_action_ranges():
    rng = np.random.default_rng(0)
    a = QuadraticToy().init_action(rng, (1000,))
    assert a.min() >= 0 and a.max() <= 3
    a = PowerControlPF(n_nodes=4).init_action(rng, (1000,))
    assert a.min() > 0 and a.max() <= 20
    pf = PowerControlPF(a_max=5.0)
    assert pf.bounds == (1e-6, 5.0)
    a = pf.init_action(rng, (1000,))
    assert a.min() > 0 and a.max() <= 5.0
    # every kind has a finite box, which a run clamps to unless its config
    # sets one
    for kind in OBJECTIVE_KINDS:
        lo, hi = make_objective(kind).bounds
        assert (type(lo), type(hi)) == (float, float), kind
        assert math.isfinite(lo) and math.isfinite(hi) and lo < hi, kind


def test_toy_refuses_a_negative_or_nan_noise_variance():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError,
                           match=f"noise_variance must be at least 0.0, got {bad}"):
            QuadraticToy(noise_variance=bad)
    assert QuadraticToy(noise_variance=0.0).sample_noise(None, (3,)) is None


@pytest.mark.parametrize("model", [PowerControlPF])
def test_power_models_refuse_out_of_range_parameters(model):
    for name in ("omega", "kappa", "sigma2"):
        for bad in (-3.0, 0.0, math.nan):
            with pytest.raises(ValueError,
                               match=f"{name} must exceed 0.0, got {bad}"):
                model(**{name: bad})
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError,
                           match=f"noise_variance must be at least 0.0, got {bad}"):
            model(noise_variance=bad)


@pytest.mark.parametrize("kind, name", [
    ("toy", "noise_variance"), ("power_pf", "a_max"),
    *[("power_pf", name)
      for name in ("omega", "kappa", "sigma2", "noise_variance")]])
def test_model_constants_must_be_finite(kind, name):
    # inf used to be accepted: a_max = inf stopped as a non-finite iterate,
    # sigma2 = inf ran to the end with every SINR 0
    with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
        make_objective(kind, **{name: math.inf})
    with pytest.raises(ValueError, match=f"{name} must .*, got -inf"):
        make_objective(kind, **{name: -math.inf})


def test_pf_refuses_a_box_edge_at_or_below_the_least_power():
    for bad in (-5.0, 1e-6, math.nan):
        with pytest.raises(ValueError, match=f"a_max must exceed 1e-06, got {bad}"):
            make_objective("power_pf", a_max=bad)
    with pytest.raises(ValueError, match="noise_variance must be at least 0.0"):
        make_objective("power_pf", noise_variance=math.nan)


@pytest.mark.parametrize("kind", ["power_pf"])
def test_power_models_refuse_a_node_count_that_is_no_integer_from_2(kind):
    # 4.7 used to build 4 nodes silently, NaN to raise a bare conversion error
    for bad in (4.7, 4.0, math.nan, 1, 0, -3, "4", None):
        with pytest.raises(ValueError, match=re.escape(
                f"n_nodes must be an integer >= 2, got {bad!r}")):
            make_objective(kind, n_nodes=bad)
    assert make_objective(kind, n_nodes=np.int64(3)).n_nodes == 3


def test_make_objective_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_objective("beamforming")
    # the unboxed sum-rate surrogate is gone: every kind has a box
    assert OBJECTIVE_KINDS == ("toy", "power_pf")
    with pytest.raises(ValueError, match="unknown objective kind"):
        make_objective("power_sumrate")


def test_make_objective_toy_rejects_parameters_it_lacks():
    toy = make_objective("toy", noise_variance=0.5)
    assert type(toy) is QuadraticToy and toy.noise_variance == 0.5
    with pytest.raises(TypeError):
        make_objective("toy", n_nodes=4, omega=3.0)
    with pytest.raises(TypeError):  # the toy's box is its own
        make_objective("toy", bounds=(0.0, 5.0))
