import csv
import json
import math
import re

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
from dospsim.exchange import (
    ExchangeModel, q_nonempty, sample_masks, subset_estimates)
from dospsim.objectives import ObjectiveModel, PowerControlPF, QuadraticToy
from dospsim.perturbation import PerturbationModel, sample_array
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


def test_empirical_bias_is_the_mean_of_the_antithetic_terms():
    # each sample draws Phi, s, the masks, the noise at a + gamma*Phi and the
    # noise at a - gamma*Phi, in that order, from the one generator
    pf = PowerControlPF(n_nodes=3, noise_variance=0.5)
    pert, exchange = PerturbationModel(amplitude=0.5), ExchangeModel(0.3)
    a, gamma, m = np.array([2.0, 3.0, 4.0]), 1.5, 5
    bias, se = empirical_bias(pf, a, gamma, pert, m, np.random.default_rng(8),
                              exchange=exchange)
    rng = np.random.default_rng(8)
    phi = sample_array(pert, (m, 3), rng)
    s = pf.sample_state(rng, (m,))
    mask = sample_masks((exchange,), 3, rng, (m,))
    est = [subset_estimates(pf.observe(a + sign * gamma * phi, s,
                                       pf.sample_noise(rng, (m, 3))), mask)
           for sign in (1.0, -1.0)]
    terms = (phi * (est[0] - est[1])
             / (2 * 0.25 * gamma * q_nonempty(exchange, 3))
             - pf.exact_sample_gradient(a, s))
    np.testing.assert_allclose(bias, terms.mean(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(se, terms.std(axis=0) / np.sqrt(m), rtol=1e-6)


def test_empirical_bias_measures_the_power_model_bias():
    # power_pf is not quadratic, so its estimate has a bias, of order
    # gamma^2 for the symmetric perturbation; it stands far above the SE
    pf, pert = PowerControlPF(n_nodes=4), PerturbationModel(amplitude=1.0)
    rng = np.random.default_rng(5)
    (b3, se3), (b1, _) = (empirical_bias(pf, [4.0] * 4, gamma, pert, 200_000,
                                         rng) for gamma in (3.0, 1.0))
    assert np.linalg.norm(b3) > 20 * np.linalg.norm(se3)
    assert np.linalg.norm(b3) > 3 * np.linalg.norm(b1)


@pytest.mark.parametrize("exchange", [None, ExchangeModel(0.5)])
def test_empirical_bias_of_the_noisy_toy_is_zero(exchange):
    # the toy's estimate is exactly unbiased, so the zero-mean noise of both
    # observations must leave the bias at zero
    toy = QuadraticToy(noise_variance=1.0)
    bias, se = empirical_bias(toy, [0.5, 2.5], 0.5, PerturbationModel(),
                              200_000, np.random.default_rng(6),
                              exchange=exchange)
    assert np.all(np.abs(bias) <= 4 * se)


def test_noise_free_toy_bias_does_not_depend_on_gamma():
    # f is quadratic in a, so f(a + gamma*Phi) - f(a - gamma*Phi) is
    # 2*gamma*Phi.grad f(a): the pair cancels gamma, up to rounding
    toy, pert = QuadraticToy(), PerturbationModel()
    (b1, se1), *others = (
        empirical_bias(toy, [2.0, 1.0], gamma, pert, 10_000,
                       np.random.default_rng(3)) for gamma in (1.0, 0.5, 0.1))
    for bias, se in others:
        np.testing.assert_allclose(bias, b1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(se, se1, rtol=1e-9)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_bias_functions_refuse_a_gamma_that_is_not_finite_and_positive(gamma):
    # 0 and NaN used to give NaN bias and SE, -1 numbers and a negative bound
    toy, pert = QuadraticToy(), PerturbationModel(amplitude=1.0)
    match = re.escape(f"gamma must be finite and positive, got {gamma!r}")
    with pytest.raises(ValueError, match=match):
        bias_bound_value(toy, pert, gamma)
    with pytest.raises(ValueError, match=match):
        empirical_bias(toy, [0.5, 2.5], gamma, pert, 10,
                       np.random.default_rng(0))


def test_empirical_bias_refuses_a_term_that_is_not_finite():
    # a - gamma*Phi observes power_pf at power -2; this used to return NaN
    # bias and SE with only numpy's warning
    pf = PowerControlPF(n_nodes=4)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=re.escape(
            "a bias term at a = [1.0, 1.0, 1.0, 1.0], gamma = 3.0 is not finite")):
        empirical_bias(pf, np.ones(4), 3.0, PerturbationModel(), 1000,
                       np.random.default_rng(0))


@pytest.mark.parametrize("samples", [0, -3, 2.5, 10.0, None])
def test_empirical_bias_refuses_a_sample_count_that_is_no_positive_integer(
        samples):
    # 0 used to give NaN vectors, 2.5 a bare TypeError
    with pytest.raises(ValueError, match=r"samples must be an integer >= 1"):
        empirical_bias(QuadraticToy(), [0.5, 2.5], 0.5, PerturbationModel(),
                       samples, np.random.default_rng(0))


# --- rate constants --------------------------------------------------------------


def test_estimate_M_on_flat_trace():
    class _Zero(ObjectiveModel):
        n_nodes = 2
        noise_variance = 0.0
        bounds = (-1.0, 1.0)
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


def _csv_writer_columns(path, header, ks, *columns):
    """_write_columns as the csv module writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, *values in zip(ks.tolist(), *(c.tolist() for c in columns)):
            w.writerow([k] + [format(v, ".17g") for v in values])


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                1e300, -1e300, 0.1, 1 / 3, 2.0**53 + 2, 1.7976931348623157e308]


@pytest.mark.parametrize("ks", [
    np.arange(len(_EDGE_FLOATS)),                          # integer indices
    np.array([1.0, 0.25] * 6 + [1e-5]),                    # p values
    np.arange(len(_EDGE_FLOATS)) * 10**15,                 # wide integers
])
def test_write_columns_writes_the_csv_writer_bytes(tmp_path, ks):
    x = np.array(_EDGE_FLOATS)
    columns = (x, x[::-1].copy(), np.full(len(x), -0.0))
    for m in range(len(columns) + 1):
        analysis._write_columns(tmp_path / "new.csv", ["k", "a", "b", "c"][:m + 1],
                                ks, *columns[:m])
        _csv_writer_columns(tmp_path / "old.csv", ["k", "a", "b", "c"][:m + 1],
                            ks, *columns[:m])
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())
    assert (tmp_path / "new.csv").read_bytes().count(b"\r\n") == len(ks) + 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(-10**6, 10**6),
                                    st.floats(0.0, 1.0)),
                          st.floats(allow_nan=True, allow_infinity=True),
                          st.floats(allow_nan=True, allow_infinity=True)),
                max_size=20))
def test_write_columns_matches_csv_writer_on_any_floats(tmp_path_factory, rows):
    d = tmp_path_factory.mktemp("cols")
    ks = np.array([r[0] for r in rows])
    a, b = (np.array([r[i] for r in rows], dtype=float) for i in (1, 2))
    analysis._write_columns(d / "new.csv", ["k", "a", "b"], ks, a, b)
    _csv_writer_columns(d / "old.csv", ["k", "a", "b"], ks, a, b)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


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


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1, -1])
def test_reference_optimum_reads_its_seed_as_one_64_bit_word(monkeypatch, seed):
    # a seed in [0, 2**64) draws the states of np.random.default_rng(seed);
    # a negative one is the same word, as in run (-1 is 2**64 - 1)
    objective = PowerControlPF(n_nodes=2)
    batches, _ = _batch_solutions(monkeypatch, objective, seed, 50, 1)
    want = objective.sample_state(np.random.default_rng(seed % 2**64), (50,))
    assert batches[0][0].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [2**70, 2**64, -(2**63) - 1, 3.5, True, "7"])
def test_reference_optimum_refuses_a_seed_that_run_refuses(seed):
    # 2**70 used to run, 3.5 to raise numpy's TypeError
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be an integer in [-2**63, 2**64), got {seed!r}")):
        reference_optimum(PowerControlPF(n_nodes=2), seed, 100, 2)


@pytest.mark.parametrize("horizon,replications,name", [
    (2000, 0, "replications"),  # used to give the scalars (nan, nan)
    (0, 2, "horizon"),          # used to fail in the eigenvalue solver
    (2.5, 2, "horizon"),        # used to raise a bare TypeError
    (100, 1.5, "replications"),
    (-1, 2, "horizon"),
])
def test_reference_optimum_refuses_sizes_that_are_no_positive_integers(
        horizon, replications, name):
    with pytest.raises(ValueError, match=rf"{name} must be an integer >= 1"):
        reference_optimum(PowerControlPF(n_nodes=2), 1, horizon, replications)
