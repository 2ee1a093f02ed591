import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dospsim import analysis
from dospsim.analysis import (
    SummaryRecord,
    bias_bound_value,
    divergence,
    divergence_samples,
    empirical_bias,
    estimate_M,
    lemma4_residuals,
    lemma7_check,
    rate_constants,
    reference_optimum,
    theorem5_envelope,
    write_divergence_csv,
    write_summary,
    write_utility_csv,
)
from dospsim.dosp import AlgoConfig, run
from dospsim.objectives import (
    ObjectiveModel, PowerControlPF, PowerControlSumRate, QuadraticToy)
from dospsim.perturbation import PerturbationModel
from dospsim.schedules import PowerLawSchedule, contraction_start


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
    # toy: n = 2, alpha1 = 2; amplitude 1 gives alpha2 = alpha3 = 1, so
    # bound = gamma * 2^2.5 = 5.657 gamma
    toy = QuadraticToy()
    unit = PerturbationModel(amplitude=1.0)
    assert bias_bound_value(toy, unit, 1.0) == pytest.approx(2**2.5, rel=1e-12)
    assert bias_bound_value(toy, unit, 0.1) == pytest.approx(0.56569, abs=1e-5)
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    assert bias_bound_value(toy, unit, sched.gamma(255)) == pytest.approx(
        0.25 * 2**2.5)
    # amplitude 2: alpha2 = 4 and alpha3 = 2 double the bound
    assert bias_bound_value(toy, PerturbationModel(amplitude=2.0), 0.5) == (
        0.5 * 2**2.5 * 2.0**3 * 2.0 / (2.0 * 4.0))
    with pytest.raises(ValueError, match="curvature constants"):
        bias_bound_value(PowerControlPF(), unit, 1.0)


def test_empirical_bias_toy_within_bound():
    toy = QuadraticToy()
    pert = PerturbationModel(amplitude=1.0)
    rng = np.random.default_rng(17)
    bias, se = empirical_bias(toy, [0.5, 2.5], 0.5, pert, 200_000, rng)
    bound = bias_bound_value(toy, pert, 0.5)
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
    c = rate_constants(toy, pert)
    assert c.A == 2.0  # 2 * alpha2 * alpha5 = 2*1*1
    assert c.B == pytest.approx(2**2.5 * 2.0)  # n^2.5 * alpha1 * alpha3^3
    ci = rate_constants(toy, pert, q=0.75)
    assert ci.A == pytest.approx(1.5)
    assert ci.B == pytest.approx(0.75 * c.B)


# --- recursion and envelopes -------------------------------------------------------


def test_lemma4_residuals_negative_on_toy():
    toy = QuadraticToy()
    trace = run(_toy_config(), toy, horizon=500, seed=4, replications=200)
    consts = rate_constants(toy, PerturbationModel(amplitude=1.0))
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    K0 = contraction_start(sched, consts.A)
    ks, stat, se = lemma4_residuals(trace, toy.optimum(), consts,
                                    estimate_M(trace), sched, K0)
    assert len(ks) > 100
    assert np.all(stat <= 4 * se)


def test_lemma4_pairs_each_k_with_the_recorded_row_k_plus_1():
    toy = QuadraticToy()
    consts = rate_constants(toy, PerturbationModel(amplitude=1.0))
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)

    def residuals(record_ks, K0=1):
        trace = run(_toy_config(), toy, horizon=10, seed=0, replications=5,
                    record_ks=record_ks)
        return lemma4_residuals(trace, toy.optimum(), consts, 1.0, sched, K0)

    ks, stat, se = residuals([0, 1, 2, 5, 6, 9, 10])
    assert ks.tolist() == [1, 5, 9]  # k = 0 lies below K0, 2 and 6 lack k + 1
    # the same residuals as at those k on the dense grid
    dense_ks, dense_stat, dense_se = residuals(None)
    assert dense_ks.tolist() == list(range(1, 10))
    assert np.array_equal(stat, dense_stat[ks - 1])
    assert np.array_equal(se, dense_se[ks - 1])
    # no pair, or none from K0 on: the check would pass vacuously
    for record_ks in ([0, 2, 5, 10], [0, 1, 5, 10]):
        with pytest.raises(ValueError, match="together with k \\+ 1"):
            residuals(record_ks)


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
    assert lines[0] == "k,D_k,stderr,envelope_theorem5"
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


def test_reference_optimum_depends_on_model_parameters():
    # two PF models that differ only in omega have different a*
    small = dict(seed=90210, horizon=100, replications=2)
    a20, _ = reference_optimum(PowerControlPF(n_nodes=2, omega=20.0), **small)
    a5, _ = reference_optimum(PowerControlPF(n_nodes=2, omega=5.0), **small)
    assert not np.array_equal(a5, a20)
    assert np.array_equal(
        reference_optimum(PowerControlPF(n_nodes=2, omega=5.0), **small)[0], a5)


def _batch_solutions(monkeypatch, objective, seed, horizon, replications):
    """(states, solution) of each full batch that ``reference_optimum``
    solves, and its result."""
    solve, batches = analysis._saa_solve, []

    def spy(objective, states, a, hessian):
        out = solve(objective, states, a, hessian)
        if len(states) == horizon:
            batches.append((states, out[0]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_saa_solve", spy)
        return batches, reference_optimum(objective, seed, horizon,
                                          replications)


def test_reference_optimum_finds_the_toy_optimum():
    a_star, se = reference_optimum(QuadraticToy(), seed=3, horizon=500,
                                   replications=8)
    assert np.all(se > 0.0)
    assert np.all(np.abs(a_star - 1.0) <= 4.0 * se)


@pytest.mark.parametrize("n", [2, 4, 10])
def test_reference_optimum_batch_solutions_are_stationary(monkeypatch, n):
    # at each batch's interior solution the sample-mean gradient vanishes
    objective = PowerControlPF(n_nodes=n)
    lo, hi = objective.bounds
    batches, (a_star, se) = _batch_solutions(monkeypatch, objective, seed=4,
                                             horizon=300, replications=3)
    assert len(batches) == 3
    for states, a in batches:
        assert np.all((a > lo) & (a < hi))
        g = objective.exact_sample_gradient(a, states).mean(axis=0)
        assert np.abs(g).max() <= analysis._SAA_TOL
    solutions = np.array([a for _, a in batches])
    assert np.array_equal(a_star, solutions.mean(axis=0))
    assert np.allclose(se, solutions.std(axis=0, ddof=1) / np.sqrt(3))


@settings(max_examples=25, deadline=None)
@given(horizon=st.integers(30, 60), replications=st.integers(2, 4),
       n=st.sampled_from([2, 4, 10]), omega=st.sampled_from([5.0, 20.0]),
       seed=st.integers(0, 2**16))
def test_reference_optimum_is_finite_and_in_the_box(horizon, replications, n,
                                                     omega, seed):
    objective = PowerControlPF(n_nodes=n, omega=omega)
    lo, hi = objective.bounds
    a_star, se = reference_optimum(objective, seed, horizon, replications)
    assert a_star.shape == se.shape == (n,)
    assert np.all(np.isfinite(a_star)) and np.all(np.isfinite(se))
    assert np.all((lo <= a_star) & (a_star <= hi))


def test_reference_optimum_batches_do_not_depend_on_their_count(monkeypatch):
    objective = PowerControlPF(n_nodes=4)
    first = reference_optimum(objective, 7, 200, 3)
    again = reference_optimum(objective, 7, 200, 3)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(first, again))
    two, _ = _batch_solutions(monkeypatch, objective, 7, 200, 2)
    four, _ = _batch_solutions(monkeypatch, objective, 7, 200, 4)
    assert len(two) == 2 and len(four) == 4
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(two, four))


def test_reference_optimum_of_one_batch_has_no_stderr():
    a_star, se = reference_optimum(PowerControlPF(n_nodes=2), 1, 100, 1)
    assert np.all(np.isfinite(a_star)) and np.all(np.isnan(se))


def test_reference_optimum_refuses_an_objective_without_a_box():
    with pytest.raises(ValueError, match="box"):
        reference_optimum(PowerControlSumRate(n_nodes=2), 1, 100, 2)
