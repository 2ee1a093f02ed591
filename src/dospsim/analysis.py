"""Divergence metrics, bound verification, and result serialization.

Everything here consumes traces from :func:`dospsim.dosp.run` and checks the
quantitative statements the rate theory makes about them:

* the O(gamma) bias bound of the scaled gradient estimate;
* the one-step recursion
  D_{k+1} <= (1 - A b_k g_k) D_k + B b_k g_k^2 sqrt(D_k) + C b_k^2
  with A = 2*alpha2*alpha5, B = n^(5/2)*alpha1*alpha3^3, C = M (both A and B
  scaled by the nonempty-exchange probability q in the incomplete case);
* the lower envelope no inductive bound can beat,
  ((B/2A) g_k + sqrt((B/2A)^2 g_k^2 + (C/A) b_k/g_k))^2;
* the two general upper envelopes theta^2 * gamma_k^2 and
  rho^2 * beta_k / gamma_k, each applicable when its schedule constants are
  finite and below A;
* the power-law envelope Omega * (k+1)^(-min{2 nu2, nu1 - nu2}).

M (the bound on E||ghat||^2) is existential in the theory; here it is
estimated empirically from a trace and inflated by a safety factor, and every
check that uses it is therefore statistical rather than exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dosp import AlgoConfig, RunTrace, run
from .exchange import ExchangeModel, q_nonempty, sample_masks, subset_estimates
from .objectives import ObjectiveModel
from .perturbation import PerturbationModel, moments, sample_array
from .schedules import PowerLawSchedule, RateDiagnostics

__all__ = [
    "DivergenceSeries",
    "RateConstants",
    "Envelopes",
    "SummaryRecord",
    "divergence",
    "divergence_samples",
    "bias_bound_value",
    "empirical_bias",
    "estimate_M",
    "rate_constants",
    "lemma4_residuals",
    "lemma5_floor",
    "theorem4_envelopes",
    "theorem5_envelope",
    "lemma7_check",
    "reference_optimum",
    "write_divergence_csv",
    "write_utility_csv",
    "write_summary",
]


@dataclass(frozen=True)
class DivergenceSeries:
    """Monte-Carlo averaged squared distance to the optimum per iteration."""

    ks: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    replications: int


def divergence_samples(trace: RunTrace, a_star) -> np.ndarray:
    """Per-replication squared distances ||a_k - a*||^2, shape (K, R)."""
    a_star = np.asarray(a_star, dtype=float)
    if a_star.shape != trace.actions.shape[-1:]:
        raise ValueError("a_star dimension mismatch")
    diff = trace.actions - a_star
    return np.sum(diff * diff, axis=-1)


def divergence(trace: RunTrace, a_star) -> DivergenceSeries:
    d = divergence_samples(trace, a_star)
    R = trace.replications
    se = d.std(axis=-1, ddof=1) / math.sqrt(R) if R > 1 else np.zeros(d.shape[0])
    return DivergenceSeries(trace.ks.copy(), d.mean(axis=-1), se, R)


# ---------------------------------------------------------------------------
# bias


def bias_bound_value(gamma: float, n_nodes: int, alpha1: float,
                     alpha2: float, alpha3: float) -> float:
    """O(gamma) bound on the scaled-estimate bias:
    gamma * n^(5/2) * alpha3^3 * alpha1 / (2*alpha2)."""
    if min(alpha1, alpha2, alpha3) <= 0:
        raise ValueError("moment constants must be positive")
    return gamma * n_nodes**2.5 * alpha3**3 * alpha1 / (2.0 * alpha2)


def empirical_bias(
    objective: ObjectiveModel,
    a,
    gamma: float,
    perturbation: PerturbationModel,
    samples: int,
    rng: np.random.Generator,
    exchange: Optional[ExchangeModel] = None,
    chunk: int = 200_000,
):
    """Monte Carlo bias of the scaled gradient estimate at a fixed point.

    Complete information: mean of Phi * f~(a + gamma*Phi, S) / (alpha2*gamma)
    minus the expected gradient.  With an exchange model, each node's own
    estimate replaces f~ and the normalization gains the factor q (the
    nonempty-subset probability).  Returns (bias vector, stderr vector).
    """
    a = np.asarray(a, dtype=float)
    n = objective.n_nodes
    alpha2, _ = moments(perturbation)
    scale = alpha2 * gamma
    if exchange is not None:
        scale *= q_nonempty(exchange, n)
    total = np.zeros(n)
    total_sq = np.zeros(n)
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        phi = sample_array(perturbation, (m, n), rng)
        s = objective.sample_state(rng, (m,))
        ahat = a + gamma * phi
        u = objective.observe(ahat, s, rng)
        if exchange is not None:
            g = phi * subset_estimates(u, sample_masks(exchange, n, rng, (m,)))
        else:
            g = phi * u.sum(axis=-1)[..., None]
        g = g / scale
        total += g.sum(axis=0)
        total_sq += (g * g).sum(axis=0)
        done += m
    mean = total / samples
    var = (total_sq / samples - mean**2) / samples
    stderr = np.sqrt(np.maximum(var, 0.0))
    return mean - objective.expected_gradient(a), stderr


# ---------------------------------------------------------------------------
# rate constants


def estimate_M(trace: RunTrace) -> float:
    """Empirical bound on E||ghat||^2: max over recorded iterations of the
    replication-averaged squared update norm, inflated by a safety factor
    of 1.5."""
    vals = trace.ghat_sq[~np.isnan(trace.ghat_sq)]
    if vals.size == 0:
        raise ValueError("trace holds no update-norm records")
    return float(vals.max()) * 1.5


@dataclass(frozen=True)
class RateConstants:
    A: float
    B: float
    C: float


def rate_constants(
    objective: ObjectiveModel,
    perturbation: PerturbationModel,
    M: float,
    q: float = 1.0,
) -> RateConstants:
    """A = 2*alpha2*alpha5, B = n^(5/2)*alpha1*alpha3^3, C = M; the
    incomplete-information case scales A and B by the nonempty-exchange
    probability q."""
    if objective.strong_concavity is None or objective.hessian_bound is None:
        raise ValueError("objective lacks curvature constants")
    alpha2, alpha3 = moments(perturbation)
    return RateConstants(
        A=2.0 * alpha2 * objective.strong_concavity * q,
        B=objective.n_nodes**2.5 * objective.hessian_bound * alpha3**3 * q,
        C=M,
    )


# ---------------------------------------------------------------------------
# recursion and envelopes


def lemma4_residuals(trace: RunTrace, a_star, constants: RateConstants,
                     schedule: PowerLawSchedule, K0: int):
    """Statistical check of the one-step recursion along a recorded trace.

    For each recorded k >= K0 with a recorded successor, forms the residual

        stat_k = mean_r[d_{k+1} - (1 - A b g) d_k] - B b g^2 sqrt(Dbar_k) - C b^2

    which the recursion requires to be <= 0, together with a delta-method
    standard error that accounts for the replication pairing.  Returns
    (ks, stat, se) arrays; a criterion passes when stat <= 4*se everywhere.
    """
    if trace.successor_actions is None:
        raise ValueError("trace was recorded without successors")
    d = divergence_samples(trace, a_star)
    diff = trace.successor_actions - np.asarray(a_star, dtype=float)
    d_next = np.sum(diff * diff, axis=-1)
    R = trace.replications
    ks_out, stat_out, se_out = [], [], []
    for j, k in enumerate(trace.ks):
        if k < K0 or np.isnan(d_next[j]).any():
            continue
        b, g = schedule.beta(int(k)), schedule.gamma(int(k))
        dk, dk1 = d[j], d_next[j]
        Y = dk1 - (1.0 - constants.A * b * g) * dk
        Dbar = dk.mean()
        stat = Y.mean() - constants.B * b * g**2 * math.sqrt(Dbar) - constants.C * b**2
        vY = Y.var(ddof=1) / R
        vD = dk.var(ddof=1) / R
        cov = float(np.cov(Y, dk)[0, 1]) / R
        slope = constants.B * b * g**2 / (2.0 * math.sqrt(max(Dbar, 1e-300)))
        var = max(vY + slope**2 * vD - 2.0 * slope * cov, 0.0)
        ks_out.append(int(k))
        stat_out.append(stat)
        se_out.append(math.sqrt(var))
    return np.array(ks_out), np.array(stat_out), np.array(se_out)


def lemma5_floor(schedule: PowerLawSchedule, constants: RateConstants, ks):
    """Smallest inductive upper bound compatible with the recursion:
    ((B/2A) g + sqrt((B/2A)^2 g^2 + (C/A) b/g))^2 per index."""
    b = schedule.beta(ks)
    g = schedule.gamma(ks)
    half = constants.B / (2.0 * constants.A)
    return (half * g + np.sqrt((half * g) ** 2 + constants.C / constants.A * b / g)) ** 2


@dataclass(frozen=True)
class Envelopes:
    theta: Optional[float]
    rho: Optional[float]
    theta_applicable: bool
    rho_applicable: bool
    theta_env: np.ndarray
    rho_env: np.ndarray
    lemma5: np.ndarray
    ks: np.ndarray


def theorem4_envelopes(
    diag: RateDiagnostics,
    constants: RateConstants,
    D_K0: float,
    schedule: PowerLawSchedule,
    ks,
) -> Envelopes:
    """Evaluate theta^2*gamma^2 and rho^2*beta/gamma per recorded index.

    Each branch is applicable only when its schedule constants are finite and
    strictly below A; inapplicable branches yield NaN envelopes.
    """
    ks = np.asarray(ks, dtype=int)
    A, B, C = constants.A, constants.B, constants.C
    g = schedule.gamma(ks)
    b = schedule.beta(ks)
    theta = rho = None
    theta_env = np.full(ks.shape, np.nan)
    rho_env = np.full(ks.shape, np.nan)

    theta_ok = math.isfinite(diag.beta_over_gamma3_sup) and diag.chi_sup < A
    if theta_ok:
        e1, e2 = diag.chi_sup, diag.beta_over_gamma3_sup
        theta = max(
            math.sqrt(max(D_K0, 0.0)) / schedule.gamma(diag.K0),
            (B + math.sqrt(B**2 + 4 * C * e2 * (A - e1))) / (2 * (A - e1)),
        )
        theta_env = theta**2 * g**2

    rho_ok = math.isfinite(diag.sqrt_gamma3_over_beta_sup) and diag.varpi_sup < A
    if rho_ok:
        e3, e4 = diag.varpi_sup, diag.sqrt_gamma3_over_beta_sup
        rho = max(
            math.sqrt(max(D_K0, 0.0) * schedule.gamma(diag.K0) / schedule.beta(diag.K0)),
            (B * e4 + math.sqrt((B * e4) ** 2 + 4 * C * (A - e3))) / (2 * (A - e3)),
        )
        rho_env = rho**2 * b / g

    return Envelopes(
        theta=theta,
        rho=rho,
        theta_applicable=theta_ok,
        rho_applicable=rho_ok,
        theta_env=theta_env,
        rho_env=rho_env,
        lemma5=lemma5_floor(schedule, constants, ks),
        ks=ks,
    )


def theorem5_envelope(schedule: PowerLawSchedule, Omega: float, ks):
    """Power-law envelope Omega * (k+1)^(-min{2 nu2, nu1 - nu2})."""
    expo = min(2 * schedule.nu2, schedule.nu1 - schedule.nu2)
    out = Omega * (np.asarray(ks) + 1.0) ** (-expo)
    return float(out) if np.isscalar(ks) else out


# ---------------------------------------------------------------------------
# elementary inequality


def lemma7_check(a: float, b: float, x: float):
    """g(x) = x^(-a) * (1 - (1+x)^(-b)) for a, b, x in (0, 1].

    Returns (g, holds) with holds = (g < b).  Uses expm1/log1p so the
    x -> 0 limit (g -> b when a = 1) is evaluated without cancellation.
    """
    for name, v in (("a", a), ("b", b), ("x", x)):
        if not 0.0 < v <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1]")
    g = x ** (-a) * (-math.expm1(-b * math.log1p(x)))
    return g, g < b


# ---------------------------------------------------------------------------
# reference optimum for the wireless models


_REF_CACHE: dict = {}


def reference_optimum(
    objective: ObjectiveModel,
    seed: int = 90210,
    horizon: int = 10**6,
    replications: int = 50,
):
    """Estimate a* as the long-run plateau of the exact-gradient baseline.

    The estimate averages the nominal iterate over the last decade of a long
    run and over replications; cached per (model class, every model
    parameter, seed, horizon, replications).  Tagged as an estimate: the
    wireless objectives have no closed-form maximizer.
    """
    key = (type(objective).__qualname__, tuple(sorted(vars(objective).items())),
           seed, horizon, replications)
    if key in _REF_CACHE:
        return _REF_CACHE[key]
    sched = PowerLawSchedule(beta0=2.5, nu1=0.75, gamma0=1.0, nu2=0.25,
                             index_offset=0)
    config = AlgoConfig(schedule=sched, variant="exact_gradient_baseline")
    trace = run(config, objective, horizon, seed, replications)
    sel = trace.ks >= trace.ks[-1] // 10
    a_star = trace.actions[sel].mean(axis=(0, 1))
    _REF_CACHE[key] = a_star
    return a_star


# ---------------------------------------------------------------------------
# serialization


@dataclass(frozen=True)
class SummaryRecord:
    id: str
    status: str  # "pass" or "fail"
    measured: float
    bound: float
    tolerance: float


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def write_divergence_csv(path, series: DivergenceSeries,
                         envelopes: Optional[Envelopes] = None,
                         theorem5: Optional[np.ndarray] = None) -> None:
    """Columns: k, D_k, stderr, envelope_theta, envelope_rho,
    envelope_theorem5, lemma5_floor (NaN where not applicable)."""
    K = len(series.ks)
    nancol = np.full(K, np.nan)
    th = envelopes.theta_env if envelopes is not None else nancol
    rh = envelopes.rho_env if envelopes is not None else nancol
    l5 = envelopes.lemma5 if envelopes is not None else nancol
    t5 = theorem5 if theorem5 is not None else nancol
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "D_k", "stderr", "envelope_theta", "envelope_rho",
                    "envelope_theorem5", "lemma5_floor"])
        for j in range(K):
            w.writerow([int(series.ks[j]), _fmt(series.values[j]),
                        _fmt(series.stderr[j]), _fmt(th[j]), _fmt(rh[j]),
                        _fmt(t5[j]), _fmt(l5[j])])


def write_utility_csv(path, trace: RunTrace) -> None:
    """Columns: k, mean_f_over_N, stderr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "mean_f_over_N", "stderr"])
        for j in range(len(trace.ks)):
            w.writerow([int(trace.ks[j]), _fmt(trace.mean_utility[j]),
                        _fmt(trace.utility_stderr[j])])


def write_summary(path, records) -> None:
    """JSON summary: one record per assertion, deterministic key order."""
    payload = [
        {"id": r.id, "status": r.status, "measured": r.measured,
         "bound": r.bound, "tolerance": r.tolerance}
        for r in records
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
