"""An exact D_k oracle: the toy's exact-gradient baseline.

Without a binding box the baseline's update is linear in a with i.i.d.
coefficients, a' = (I + beta_k M(s)) a + beta_k 1 with
M(s) = [[-2 s1, 1], [1, -2 s2]] and s_i ~ U[0.5, 1.5], so its first two
moments close.  With Abar = I + beta_k [[-2, 1], [1, -2]]:

    m' = Abar m + beta_k 1
    S' = Abar S Abar^T + (beta_k^2 / 3) diag(S11, S22)
         + beta_k (Abar m 1^T + 1 (Abar m)^T) + beta_k^2 1 1^T
    D_k = tr S - 2 1^T m + 2

from m_0 = (1.5, 1.5) and S_0 = [[3, 2.25], [2.25, 3]] (a_0 uniform on
[0, 3]^2).  The oracle computes beta_k itself, not through
``PowerLawSchedule``, so a schedule defect cannot move the oracle and the run
together.

The perturbed variants' second moment does not close, but their first moment
does.  F is quadratic and Phi symmetric Bernoulli, independent of s and of
the receive mask, so the third moments of Phi vanish and
E[ghat | a] = q gamma_k alpha2 grad F(a) with grad F(a) = [[-2, 1], [1, -2]] a
+ 1: q = 1 for ``dosp``, and at n = 2 q = p for ``dosp_incomplete`` (a node
receives the other's utility with probability p, else keeps its action).
While no clamp acts, the mean iterate follows

    m' = m + beta_k gamma_k alpha2 q ([[-2, 1], [1, -2]] m + 1)

exactly, from m_0 = (2, 2) (a_0 uniform on [1.5, 2.5]^2, off a* = (1, 1)).
"""

import numpy as np
import pytest

from dospsim import dosp
from dospsim.analysis import divergence
from dospsim.dosp import AlgoConfig, run, run_series
from dospsim.exchange import ExchangeModel
from dospsim.objectives import QuadraticToy
from dospsim.perturbation import PerturbationModel
from dospsim.schedules import PowerLawSchedule

BETA0, NU1 = 0.5, 0.75  # offset 1: beta_k = BETA0 * (k + 1)^(-NU1)
HORIZON, REPLICATIONS = 2000, 2000
Z_BOUND = 4.0  # fixed before the seeds below were run


class _OpenToy(QuadraticToy):
    """The toy in a box its exact-gradient iterates never reach; a_0 is
    still 0.0 + 3.0 * U on [0, 3]^2."""

    bounds = (-1e3, 1e3)

    def init_action(self, rng, batch_shape=()):
        return 0.0 + 3.0 * rng.random(tuple(batch_shape) + (2,))


def _exact_divergence(ks, beta0=BETA0, nu1=NU1):
    """D_k of the exact-gradient toy run at each index of ``ks``."""
    mean_m = np.array([[-2.0, 1.0], [1.0, -2.0]])  # E M(s)
    one = np.ones(2)
    m = np.full(2, 1.5)
    S = np.array([[3.0, 2.25], [2.25, 3.0]])
    D = {}
    for k in range(int(ks[-1]) + 1):
        D[k] = np.trace(S) - 2.0 * one @ m + 2.0
        beta = beta0 * (k + 1.0) ** (-nu1)
        A = np.eye(2) + beta * mean_m
        Am = A @ m
        S = (A @ S @ A.T + beta**2 / 3.0 * np.diag(np.diag(S))
             + beta * (np.outer(Am, one) + np.outer(one, Am))
             + beta**2 * np.outer(one, one))
        m = Am + beta * one
    return np.array([D[int(k)] for k in ks])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_baseline_divergence_matches_the_moment_recursion(seed):
    config = AlgoConfig(
        schedule=PowerLawSchedule(BETA0, NU1, 1.0, 0.25, index_offset=1),
        variant="exact_gradient_baseline")
    trace = run(config, _OpenToy(), HORIZON, seed, REPLICATIONS)
    # the box is never reached, so every update is linear
    assert -10.0 < trace.performed_min and trace.performed_max < 10.0
    ser = divergence(trace, np.ones(2))
    z = (ser.values - _exact_divergence(ser.ks)) / ser.stderr
    assert np.all(np.abs(z) <= Z_BOUND), (ser.ks[np.argmax(np.abs(z))],
                                          np.abs(z).max())
    # the oracle tells schedules apart: nu1 = 0.70 in place of 0.75 and a
    # record one index late are both far outside the bound
    for wrong in (_exact_divergence(ser.ks, nu1=0.70),
                  _exact_divergence(ser.ks + 1)):
        assert np.abs((ser.values - wrong) / ser.stderr).max() > Z_BOUND


# the first-moment oracle's setup; P_EXCHANGE and Z_BOUND were fixed before
# any seed below was run
FM_BETA0, FM_NU1, FM_GAMMA0, FM_NU2 = 0.1, 0.75, 1.0, 0.25  # offset 1
P_EXCHANGE = 0.25


class _OffOptimumToy(_OpenToy):
    """The open-box toy started on [1.5, 2.5]^2: a start centred on a*
    would keep the mean iterate at a* and test nothing."""

    def init_action(self, rng, batch_shape=()):
        return 1.5 + rng.random(tuple(batch_shape) + (2,))


def _exact_mean_iterate(ks, q):
    """E a_k, shape (len(ks), 2), of a perturbed toy run whose update sees
    the exchange probability ``q``, at each index of ``ks``; alpha2 = 1 for
    the amplitude-1 Bernoulli Phi."""
    mean_m = np.array([[-2.0, 1.0], [1.0, -2.0]])  # Abar, grad F = Abar a + 1
    m = np.full(2, 2.0)
    means = {}
    for k in range(int(ks[-1]) + 1):
        means[k] = m
        beta = FM_BETA0 * (k + 1.0) ** (-FM_NU1)
        gamma = FM_GAMMA0 * (k + 1.0) ** (-FM_NU2)
        m = m + beta * gamma * q * (mean_m @ m + 1.0)
    return np.array([means[int(k)] for k in ks])


def _first_moment_z(trace, expected):
    """The largest |z| over the recorded grid and both nodes of the mean
    iterate against ``expected``."""
    actions = trace.actions  # (K, R, 2)
    se = actions.std(axis=1, ddof=1) / np.sqrt(actions.shape[1])
    return np.abs((actions.mean(axis=1) - expected) / se).max()


def _perturbed_configs():
    sched = PowerLawSchedule(FM_BETA0, FM_NU1, FM_GAMMA0, FM_NU2, index_offset=1)
    perturbation = PerturbationModel(amplitude=1.0)
    return [AlgoConfig(schedule=sched, perturbation=perturbation, variant="dosp"),
            AlgoConfig(schedule=sched, perturbation=perturbation,
                       exchange=ExchangeModel(P_EXCHANGE),
                       variant="dosp_incomplete")]


def _assert_no_clamp_acted(trace):
    # performed actions within (-10, 10) put every iterate within 1 (= alpha3
    # gamma_k) of them, far inside the shrunken box (-1e3 + gamma, 1e3 - gamma)
    assert -10.0 < trace.performed_min and trace.performed_max < 10.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_perturbed_mean_iterate_matches_the_first_moment_recursion(seed):
    traces = run_series(_perturbed_configs(), _OffOptimumToy(), HORIZON, seed,
                        REPLICATIONS)
    for trace, q in zip(traces, (1.0, P_EXCHANGE)):
        _assert_no_clamp_acted(trace)
        z = _first_moment_z(trace, _exact_mean_iterate(trace.ks, q))
        assert z <= Z_BOUND, (q, z)
    # the oracle sees the schedule's index: dosp read one index late is far
    # outside the bound
    dosp_trace = traces[0]
    assert _first_moment_z(dosp_trace,
                           _exact_mean_iterate(dosp_trace.ks + 1, 1.0)) > Z_BOUND


def test_first_moment_oracle_kills_the_full_mask_mutant(monkeypatch):
    # every receive mask full: dosp_incomplete at p = 0.25 then updates as
    # dosp does, and its mean iterate leaves the q = p recursion
    sample_masks = dosp.sample_masks
    monkeypatch.setattr(dosp, "sample_masks", lambda models, *args: sample_masks(
        [ExchangeModel(1.0)] * len(models), *args))
    trace = run(_perturbed_configs()[1], _OffOptimumToy(), HORIZON, 1,
                REPLICATIONS)
    _assert_no_clamp_acted(trace)
    assert _first_moment_z(trace, _exact_mean_iterate(trace.ks, P_EXCHANGE)) > Z_BOUND
