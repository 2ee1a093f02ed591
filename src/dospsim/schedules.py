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

On top of validity, this module computes the diagnostics used by the
convergence-rate envelopes:

    chi_k   = (1 - (gamma_{k+1}/gamma_k)^2) / (beta_k * gamma_k)
    varpi_k = (1 - (beta_{k+1}/gamma_{k+1}) / (beta_k/gamma_k)) / (beta_k * gamma_k)

and their suprema eps1 = sup chi_k, eps2 = sup beta_k/gamma_k^3,
eps3 = sup varpi_k, eps4 = sup sqrt(gamma_k^3/beta_k) over k >= K0, where
K0 is the first index with beta_k * gamma_k < 1/A.  For power laws, eps2 is
finite iff nu1 >= 3*nu2 and eps4 is finite iff nu1 <= 3*nu2; chi_k and
varpi_k admit the closed upper bounds 2*nu2/(beta0*gamma0) and
(nu1 - nu2)/(beta0*gamma0) for all k >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerLawSchedule",
    "A4Report",
    "RateDiagnostics",
    "validate_a4",
    "chi",
    "varpi",
    "rate_diagnostics",
    "theorem5_condition",
]


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
        if not (0 < self.beta0 < math.inf and 0 < self.gamma0 < math.inf):
            raise ValueError("beta0 and gamma0 must be finite and positive")
        if not (math.isfinite(self.nu1) and math.isfinite(self.nu2)):
            raise ValueError("exponents nu1 and nu2 must be finite")
        if self.index_offset not in (0, 1):
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


@dataclass(frozen=True)
class A4Report:
    """Outcome of the step-size validity checks (see module docstring)."""

    vanishing: bool            # (i)  nu1 > 0 and nu2 > 0
    square_summable: bool      # (ii) sum beta^2 < inf  <=>  nu1 > 0.5
    jointly_divergent: bool    # (iii) sum beta*gamma = inf  <=>  nu1 + nu2 <= 1


def validate_a4(schedule: PowerLawSchedule) -> A4Report:
    """Decide the three validity conditions analytically from the exponents.

    Power-law series membership is exact: sum k^(-s) converges iff s > 1,
    so no numerical summation is involved.
    """
    return A4Report(
        vanishing=schedule.nu1 > 0 and schedule.nu2 > 0,
        square_summable=2 * schedule.nu1 > 1,
        jointly_divergent=schedule.nu1 + schedule.nu2 <= 1,
    )


def chi(schedule: PowerLawSchedule, k):
    """chi_k = (1 - (gamma_{k+1}/gamma_k)^2) / (beta_k gamma_k).

    Nonnegative for nonincreasing gamma.  For valid power laws,
    chi_k < 2*nu2 / (beta0*gamma0) for every k >= first_index.
    """
    g_ratio = schedule.gamma(np.asarray(k) + 1) / schedule.gamma(k)
    out = (1.0 - g_ratio**2) / (schedule.beta(k) * schedule.gamma(k))
    return float(out) if np.isscalar(k) else out


def varpi(schedule: PowerLawSchedule, k):
    """varpi_k = (1 - (beta/gamma ratio at k+1 over k)) / (beta_k gamma_k).

    For valid power laws, varpi_k < (nu1 - nu2) / (beta0*gamma0) for every
    k >= first_index.
    """
    k1 = np.asarray(k) + 1
    ratio = (schedule.beta(k1) / schedule.gamma(k1)) / (
        schedule.beta(k) / schedule.gamma(k)
    )
    out = (1.0 - ratio) / (schedule.beta(k) * schedule.gamma(k))
    return float(out) if np.isscalar(k) else out


@dataclass(frozen=True)
class RateDiagnostics:
    """Schedule-only constants entering the divergence envelopes.

    ``chi_sup`` (eps1) and ``varpi_sup`` (eps3) are always finite for valid
    power laws; ``beta_over_gamma3_sup`` (eps2) and
    ``sqrt_gamma3_over_beta_sup`` (eps4) are set to ``inf`` when the
    corresponding tail grows without bound (nu1 < 3*nu2, resp. nu1 > 3*nu2).
    """

    chi_sup: float
    beta_over_gamma3_sup: float
    varpi_sup: float
    sqrt_gamma3_over_beta_sup: float
    K0: int


def _scan_sup(fn, ks) -> float:
    """Maximum of fn over an index array, evaluated in chunks."""
    best = -math.inf
    for chunk in np.array_split(ks, max(1, len(ks) // 262144)):
        if len(chunk):
            best = max(best, float(np.max(fn(chunk))))
    return best


def rate_diagnostics(
    schedule: PowerLawSchedule,
    A: float,
    horizon: int = 10**6,
) -> RateDiagnostics:
    """Compute K0 and the four suprema over k >= K0.

    K0 is the smallest k >= first_index with beta_k*gamma_k < 1/A.
    The suprema are taken by scanning k in [K0, horizon]; for power laws the
    scanned quantities are eventually monotone, so the scan is exact whenever
    the supremum is attained at finite k, and the analytically-unbounded
    cases (eps2, eps4) are flagged infinite from the exponents instead.
    """
    if A <= 0:
        raise ValueError("A must be positive")
    k = schedule.first_index
    while schedule.beta(k) * schedule.gamma(k) >= 1.0 / A:
        k += 1
    K0 = k

    ks = np.arange(K0, max(K0 + 1, horizon))
    eps1 = _scan_sup(lambda kk: chi(schedule, kk), ks)
    eps3 = _scan_sup(lambda kk: varpi(schedule, kk), ks)

    nu1, nu2 = schedule.nu1, schedule.nu2
    if nu1 >= 3 * nu2:
        eps2 = _scan_sup(
            lambda kk: schedule.beta(kk) / schedule.gamma(kk) ** 3, ks
        )
    else:
        eps2 = math.inf
    if nu1 <= 3 * nu2:
        eps4 = _scan_sup(
            lambda kk: np.sqrt(schedule.gamma(kk) ** 3 / schedule.beta(kk)), ks
        )
    else:
        eps4 = math.inf

    return RateDiagnostics(
        chi_sup=eps1,
        beta_over_gamma3_sup=eps2,
        varpi_sup=eps3,
        sqrt_gamma3_over_beta_sup=eps4,
        K0=K0,
    )


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
