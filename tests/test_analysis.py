import json
import math

import numpy as np
import pytest

from dospsim import analysis
from dospsim.analysis import (
    SummaryRecord,
    bias_bound_value,
    divergence,
    divergence_samples,
    empirical_bias,
    estimate_M,
    lemma4_residuals,
    lemma5_floor,
    lemma7_check,
    rate_constants,
    reference_optimum,
    theorem4_envelopes,
    theorem5_envelope,
    write_divergence_csv,
    write_summary,
    write_utility_csv,
)
from dospsim.dosp import AlgoConfig, run
from dospsim.objectives import ObjectiveModel, PowerControlSumRate, QuadraticToy
from dospsim.perturbation import PerturbationModel
from dospsim.schedules import PowerLawSchedule, rate_diagnostics


def _toy_config(**kw):
    return AlgoConfig(
        schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25),
        perturbation=PerturbationModel(amplitude=1.0),
        **kw,
    )


# --- divergence ----------------------------------------------------------------


def test_divergence_hand_example():
    trace = run(_toy_config(), QuadraticToy(), horizon=5, seed=0, replications=3)
    d = divergence_samples(trace, [1.0, 1.0])
    manual = ((trace.actions - np.array([1.0, 1.0])) ** 2).sum(-1)
    assert np.array_equal(d, manual)
    ser = divergence(trace, [1.0, 1.0])
    np.testing.assert_allclose(ser.values, manual.mean(axis=1))
    np.testing.assert_allclose(
        ser.stderr, manual.std(axis=1, ddof=1) / math.sqrt(3)
    )


def test_divergence_dimension_check():
    trace = run(_toy_config(), QuadraticToy(), horizon=2, seed=0)
    with pytest.raises(ValueError):
        divergence_samples(trace, [1.0, 1.0, 1.0])


# --- bias ------------------------------------------------------------------------


def test_bias_bound_closed_form():
    # n = 2, alpha1 = 2, alpha2 = alpha3 = 1: bound = gamma * 2^2.5 = 5.657 gamma
    assert bias_bound_value(1.0, 2, 2.0, 1.0, 1.0) == pytest.approx(
        2**2.5, rel=1e-12
    )
    assert bias_bound_value(0.1, 2, 2.0, 1.0, 1.0) == pytest.approx(0.56569, abs=1e-5)
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    assert bias_bound_value(sched.gamma(255), 2, 2.0, 1.0, 1.0) == pytest.approx(
        0.25 * 2**2.5
    )
    with pytest.raises(ValueError):
        bias_bound_value(1.0, 2, -1.0, 1.0, 1.0)


def test_empirical_bias_toy_within_bound():
    toy = QuadraticToy()
    pert = PerturbationModel(amplitude=1.0)
    rng = np.random.default_rng(17)
    bias, se = empirical_bias(toy, [0.5, 2.5], 0.5, pert, 200_000, rng)
    bound = bias_bound_value(0.5, 2, 2.0, 1.0, 1.0)
    assert np.all(np.abs(bias) <= bound + 4 * se)


# --- rate constants --------------------------------------------------------------


def test_estimate_M_on_flat_trace():
    class _Zero(ObjectiveModel):
        n_nodes = 2
        noise_variance = 0.0
        bounds = None
        strong_concavity = None
        hessian_bound = None

        def sample_state(self, rng, batch_shape=()):
            return np.zeros(tuple(batch_shape) + (2,))

        def local_utilities(self, a, s):
            return np.zeros_like(np.asarray(a, dtype=float))

        def init_action(self, rng, batch_shape=()):
            return np.zeros(tuple(batch_shape) + (2,))

    trace = run(_toy_config(), _Zero(), horizon=10, seed=0, replications=2)
    assert estimate_M(trace) == 0.0


def test_rate_constants_values_and_scaling():
    toy = QuadraticToy()
    pert = PerturbationModel(amplitude=1.0)
    c = rate_constants(toy, pert, 10.0)
    assert c.A == 2.0  # 2 * alpha2 * alpha5 = 2*1*1
    assert c.B == pytest.approx(2**2.5 * 2.0)  # n^2.5 * alpha1 * alpha3^3
    assert c.C == 10.0
    ci = rate_constants(toy, pert, 10.0, q=0.75)
    assert ci.A == pytest.approx(1.5)
    assert ci.B == pytest.approx(0.75 * c.B)
    assert ci.C == 10.0


# --- recursion and envelopes -------------------------------------------------------


def test_lemma4_residuals_negative_on_toy():
    toy = QuadraticToy()
    trace = run(_toy_config(), toy, horizon=500, seed=4, replications=200,
                record_successors=True)
    consts = rate_constants(toy, PerturbationModel(amplitude=1.0),
                            estimate_M(trace))
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    diag = rate_diagnostics(sched, consts.A, horizon=10**4)
    ks, stat, se = lemma4_residuals(trace, toy.optimum(), consts, sched, diag.K0)
    assert len(ks) > 100
    assert np.all(stat <= 4 * se)


def test_lemma4_requires_successors():
    toy = QuadraticToy()
    trace = run(_toy_config(), toy, horizon=5, seed=0, replications=2)
    consts = rate_constants(toy, PerturbationModel(amplitude=1.0),
                            1.0)
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    with pytest.raises(ValueError):
        lemma4_residuals(trace, toy.optimum(), consts, sched, 0)


def test_lemma5_floor_formula():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    consts = rate_constants(QuadraticToy(), PerturbationModel(amplitude=1.0),
                            8.0)
    k = 255  # beta = 0.5/64, gamma = 0.25
    b, g = 0.5 * 256**-0.75, 0.25
    half = consts.B / (2 * consts.A)
    want = (half * g + math.sqrt((half * g) ** 2 + consts.C / consts.A * b / g)) ** 2
    assert lemma5_floor(sched, consts, np.array([k]))[0] == pytest.approx(want)


def test_theorem4_envelope_branch_applicability():
    toy = QuadraticToy()
    consts = rate_constants(toy, PerturbationModel(amplitude=1.0),
                            8.0)
    ks = np.arange(10, 100)
    # nu1 > 3*nu2: only the theta branch applies
    s1 = PowerLawSchedule(0.4, 0.7, 1.0, 0.15)
    env1 = theorem4_envelopes(rate_diagnostics(s1, consts.A, horizon=10**4),
                              consts, 1.0, s1, ks)
    assert env1.theta_applicable and not env1.rho_applicable
    assert np.isfinite(env1.theta_env).all() and np.isnan(env1.rho_env).all()
    # nu1 < 3*nu2: only the rho branch applies
    s2 = PowerLawSchedule(0.4, 0.65, 1.0, 0.35)
    env2 = theorem4_envelopes(rate_diagnostics(s2, consts.A, horizon=10**4),
                              consts, 1.0, s2, ks)
    assert env2.rho_applicable and not env2.theta_applicable
    # nu1 = 3*nu2: both apply
    s3 = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    env3 = theorem4_envelopes(rate_diagnostics(s3, consts.A, horizon=10**4),
                              consts, 1.0, s3, ks)
    assert env3.theta_applicable and env3.rho_applicable
    np.testing.assert_allclose(env3.theta_env, env3.theta**2 * s3.gamma(ks) ** 2)
    np.testing.assert_allclose(env3.rho_env,
                               env3.rho**2 * s3.beta(ks) / s3.gamma(ks))
    # no applicable envelope may undercut the recursion's own floor
    assert np.all(env3.theta_env >= env3.lemma5 * (1 - 1e-9))
    assert np.all(env3.rho_env >= env3.lemma5 * (1 - 1e-9))


def test_theorem5_envelope_values():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    # exponent min{2*0.25, 0.5} = 0.5; at k = 3: 2 * 4^-0.5 = 1
    assert theorem5_envelope(sched, 2.0, 3) == pytest.approx(1.0)
    np.testing.assert_allclose(
        theorem5_envelope(sched, 2.0, np.array([0, 3])), [2.0, 1.0]
    )


def test_lemma7_examples():
    g, holds = lemma7_check(1.0, 1.0, 1.0)
    assert g == pytest.approx(0.5) and holds
    g, holds = lemma7_check(0.5, 0.5, 1.0)
    assert g == pytest.approx(1 - 2**-0.5) and holds
    # a = 1: g -> b as x -> 0, approaching the bound from below
    for b in (0.1, 0.5, 1.0):
        g, holds = lemma7_check(1.0, b, 1e-8)
        assert holds and abs(g - b) < 1e-6
    with pytest.raises(ValueError):
        lemma7_check(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        lemma7_check(0.5, 0.5, 1.5)


# --- serialization -------------------------------------------------------------------


def test_csv_and_summary_writers(tmp_path):
    toy = QuadraticToy()
    trace = run(_toy_config(), toy, horizon=20, seed=0, replications=3)
    ser = divergence(trace, toy.optimum())
    p = tmp_path / "div.csv"
    write_divergence_csv(p, ser)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == ("k,D_k,stderr,envelope_theta,envelope_rho,"
                        "envelope_theorem5,lemma5_floor")
    assert len(lines) == len(ser.ks) + 1
    first = lines[1].split(",")
    assert int(first[0]) == ser.ks[0]
    assert float(first[1]) == ser.values[0]  # full precision round-trips
    assert first[3] == "nan"

    pu = tmp_path / "util.csv"
    write_utility_csv(pu, trace)
    ulines = pu.read_text().strip().split("\n")
    assert ulines[0] == "k,mean_f_over_N,stderr"
    assert len(ulines) == len(trace.ks) + 1

    ps = tmp_path / "summary.json"
    write_summary(ps, [SummaryRecord("check-1", "pass", 0.4, 0.5, 0.0)])
    data = json.loads(ps.read_text())
    assert data == [{"id": "check-1", "status": "pass", "measured": 0.4,
                     "bound": 0.5, "tolerance": 0.0}]


def test_reference_optimum_cache_keys_on_model_parameters(monkeypatch):
    # two sum-rate models that differ only in omega must not share a cached a*
    monkeypatch.setattr(analysis, "_REF_CACHE", {})
    small = dict(horizon=100, replications=2)
    a20 = reference_optimum(PowerControlSumRate(n_nodes=2, omega=20.0), **small)
    a5 = reference_optimum(PowerControlSumRate(n_nodes=2, omega=5.0), **small)
    assert not np.array_equal(a5, a20)
    analysis._REF_CACHE.clear()
    assert np.array_equal(
        reference_optimum(PowerControlSumRate(n_nodes=2, omega=5.0), **small), a5)
    assert len(analysis._REF_CACHE) == 1
    reference_optimum(PowerControlSumRate(n_nodes=2, omega=5.0, sigma2=0.3), **small)
    assert len(analysis._REF_CACHE) == 2
