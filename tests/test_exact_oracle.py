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
"""

import numpy as np
import pytest

from dospsim.analysis import divergence
from dospsim.dosp import AlgoConfig, run
from dospsim.objectives import QuadraticToy
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
