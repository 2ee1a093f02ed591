"""
Power-law step-size schedules and their rate diagnostics.

The algorithms in this package use two vanishing step sizes per iteration:
a gain ``beta_k`` multiplying the update direction and a perturbation scale
``gamma_k`` multiplying the exploration signal.  Both follow power laws

    beta_k  = beta0  * (k + offset)^(-nu1)
    gamma_k = gamma0 * (k + offset)^(-nu2)

with ``offset`` either 1 (default, defined for k = 0) or 0 (defined for
k >= 1 only; used by some published experiment settings).

Validity of a schedule pair requires (the usual stochastic-approximation
conditions):

  (i)   both sequences vanish:            nu1 > 0, nu2 > 0;
  (ii)  sum of beta_k^2 converges:        nu1 > 0.5;
  (iii) sum of beta_k * gamma_k diverges: nu1 + nu2 <= 1.

A run without perturbation (the exact-gradient baseline) has no gamma; its
beta alone must vanish (nu1 > 0), be square-summable (nu1 > 0.5) and sum to
infinity (nu1 <= 1).  :func:`step_size_problems` decides either set
analytically: sum k^(-s) converges iff s > 1, so no numerical summation is
involved.

The rate analysis needs one schedule constant on top of validity: K0, the
first index with beta_k * gamma_k < 1/A, from which the contraction factor
1 - A*beta_k*gamma_k of the one-step recursion lies in (0, 1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerLawSchedule",
    "step_size_problems",
    "contraction_start",
    "theorem5_condition",
]


def _real(name: str, value):
    """``value``, refused unless it is a real number (a bool or text is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class PowerLawSchedule:
    """Step-size pair (beta_k, gamma_k) with power-law decay.

    Attributes:
        beta0: scale of the update gain, finite and > 0.
        nu1: decay exponent of beta, finite.
        gamma0: scale of the perturbation amplitude, finite and > 0.
        nu2: decay exponent of gamma, finite.
        index_offset: 0 or 1; sequences are evaluated at (k + index_offset).
            With offset 0 the schedule is undefined at k = 0 and iteration
            must start at k = 1.
    """

    beta0: float
    nu1: float
    gamma0: float
    nu2: float
    index_offset: int = 1

    def __post_init__(self) -> None:
        # written so that NaN fails every comparison and is rejected
        if not all(0 < _real(k, getattr(self, k)) < math.inf
                   for k in ("beta0", "gamma0")):
            raise ValueError("beta0 and gamma0 must be finite and positive")
        if not all(math.isfinite(_real(k, getattr(self, k))) for k in ("nu1", "nu2")):
            raise ValueError("exponents nu1 and nu2 must be finite")
        if _real("index_offset", self.index_offset) not in (0, 1):
            raise ValueError("index_offset must be 0 or 1")

    def _base(self, k):
        base = np.asarray(k) + self.index_offset
        if np.any(base <= 0):
            raise ValueError(
                "schedule with index_offset=0 is undefined at k=0; iterate from k=1"
            )
        return base

    def beta(self, k):
        """beta_k = beta0 * (k + offset)^(-nu1); accepts scalars or arrays."""
        out = self.beta0 * self._base(k) ** (-self.nu1)
        return float(out) if np.isscalar(k) else out

    def gamma(self, k):
        """gamma_k = gamma0 * (k + offset)^(-nu2); accepts scalars or arrays."""
        out = self.gamma0 * self._base(k) ** (-self.nu2)
        return float(out) if np.isscalar(k) else out

    @property
    def first_index(self) -> int:
        """Smallest iteration index at which the schedule is defined."""
        return 1 if self.index_offset == 0 else 0


def step_size_problems(schedule: PowerLawSchedule,
                       perturbed: bool = True) -> list[str]:
    """The validity conditions (see module docstring) that ``schedule``
    fails, one message each; ``perturbed=False`` judges beta alone."""
    nu1, nu2 = schedule.nu1, schedule.nu2
    square_summable = (nu1 > 0.5, "(ii) failed: sum of beta^2 diverges "
                                  "(needs nu1 > 0.5)")
    if perturbed:
        checks = (
            (nu1 > 0 and nu2 > 0, "(i) failed: exponents must be positive"),
            square_summable,
            (nu1 + nu2 <= 1, "(iii) failed: sum of beta*gamma converges "
                             "(needs nu1 + nu2 <= 1)"),
        )
    else:
        checks = (
            (nu1 > 0, "(i) failed: beta must vanish (needs nu1 > 0)"),
            square_summable,
            (nu1 <= 1, "(iii) failed: sum of beta converges (needs nu1 <= 1)"),
        )
    return [f"step-size check {text}" for ok, text in checks if not ok]


def contraction_start(schedule: PowerLawSchedule, A: float) -> int:
    """K0: the smallest k >= first_index with beta_k * gamma_k < 1/A, from
    the k + offset = (A * beta0 * gamma0)^(1/(nu1 + nu2)) where the product
    crosses 1/A, settled by the float test at its neighbours.  A crossing
    past 2**53, where consecutive k are no longer distinct floats, raises
    ``ValueError``."""
    if A <= 0:
        raise ValueError("A must be positive")

    def contracts(k):
        return schedule.beta(k) * schedule.gamma(k) < 1.0 / A

    k, nu = schedule.first_index, schedule.nu1 + schedule.nu2
    if nu > 0:
        try:
            root = (A * schedule.beta0 * schedule.gamma0) ** (1 / nu)
        except OverflowError:
            root = math.inf
        if not root - schedule.index_offset <= 2.0 ** 53:  # NaN too
            raise ValueError(f"K0 of {schedule} at A = {A} lies past 2**53 "
                             f"(about {root:.3g}), where consecutive k are "
                             "no longer distinct floats")
        k = max(k, math.ceil(root - schedule.index_offset))
        while k > schedule.first_index and contracts(k - 1):
            k -= 1
    elif not contracts(k):  # the product never falls
        raise ValueError(f"beta_k * gamma_k never falls below 1/A = {1 / A}: "
                         f"nu1 + nu2 = {nu} <= 0")
    while not contracts(k):
        k += 1
    return k


def theorem5_condition(schedule: PowerLawSchedule, A: float):
    """Sufficient step-size condition for the power-law envelope.

    Returns ``(satisfied, threshold)`` where
    threshold = max{2*nu2, nu1 - nu2} / A and the condition is
    beta0 * gamma0 >= threshold.  When it holds, the mean squared divergence
    admits an envelope Omega * (k+1)^(-min{2*nu2, nu1 - nu2}).
    """
    if A <= 0:
        raise ValueError("A must be positive")
    threshold = max(2 * schedule.nu2, schedule.nu1 - schedule.nu2) / A
    return schedule.beta0 * schedule.gamma0 >= threshold, threshold
