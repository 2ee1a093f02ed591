"""Divergence metrics, bound verification, and result serialization.

Everything here consumes traces from :func:`dospsim.dosp.run` and checks the
quantitative statements the rate theory makes about them:

* the O(gamma) bias bound of the scaled gradient estimate;
* the one-step recursion
  D_{k+1} <= (1 - A b_k g_k) D_k + B b_k g_k^2 sqrt(D_k) + M b_k^2
  with A = 2*alpha2*alpha5, B = n^(5/2)*alpha1*alpha3^3 (both scaled by the
  nonempty-exchange probability q in the incomplete case);
* the power-law envelope Omega * (k+1)^(-min{2 nu2, nu1 - nu2}).

M (the bound on E||ghat||^2) is existential in the theory; here it is
estimated empirically from a trace and inflated by a safety factor, and every
check that uses it is therefore statistical rather than exact.

The wireless model has no closed-form optimum a*; ``reference_optimum``
estimates it, with a standard error, by sample-average approximation: the
maximizer of the sample-mean utility over fixed batches of channel states.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

import numpy as np

# run is not called here, but perfbench's tracer wraps analysis.run
from .dosp import (  # noqa: F401
    _MASK64, RunTrace, _check_seed, _mean_stderr, run)
from .exchange import ExchangeModel, q_nonempty, sample_masks, subset_estimates
from .objectives import ObjectiveModel
from .perturbation import PerturbationModel, moments, sample_array
from .schedules import PowerLawSchedule, _einsum, _integer, _real

__all__ = [
    "DivergenceSeries",
    "RateConstants",
    "SummaryRecord",
    "divergence",
    "divergence_samples",
    "bias_bound_value",
    "empirical_bias",
    "estimate_M",
    "rate_constants",
    "lemma4_residuals",
    "theorem5_envelope",
    "lemma7_check",
    "reference_optimum",
    "write_divergence_csv",
    "write_utility_csv",
    "write_summary",
]


class DivergenceSeries(NamedTuple):
    """Monte-Carlo averaged squared distance to the optimum per iteration."""

    ks: np.ndarray
    values: np.ndarray
    stderr: np.ndarray


def divergence_samples(trace: RunTrace, a_star) -> np.ndarray:
    """Per-replication squared distances ||a_k - a*||^2, shape (K, R)."""
    a_star = np.asarray(a_star, dtype=float)
    if a_star.shape != trace.actions.shape[-1:]:
        raise ValueError("a_star dimension mismatch")
    diff = trace.actions - a_star
    return np.sum(diff * diff, axis=-1)


def divergence(trace: RunTrace, a_star) -> DivergenceSeries:
    return DivergenceSeries(trace.ks.copy(),
                            *_mean_stderr(divergence_samples(trace, a_star)))


# ---------------------------------------------------------------------------
# bias

_BIAS_CHUNK = 200_000  # samples empirical_bias draws at once


def bias_bound_value(objective: ObjectiveModel, perturbation: PerturbationModel,
                     gamma: float) -> float:
    """O(gamma) bound on the scaled-estimate bias:
    gamma * n^(5/2) * alpha3^3 * alpha1 / (2*alpha2), with n and alpha1 (the
    Hessian bound) from the objective and alpha2, alpha3 from the
    perturbation's moments."""
    if objective.hessian_bound is None:
        raise ValueError("objective lacks curvature constants")
    _real("gamma", gamma, 0)
    alpha2, alpha3 = moments(perturbation)
    return (gamma * objective.n_nodes**2.5 * alpha3**3 * objective.hessian_bound
            / (2.0 * alpha2))


def empirical_bias(
    objective: ObjectiveModel,
    a,
    gamma: float,
    perturbation: PerturbationModel,
    samples: int,
    rng: np.random.Generator,
    exchange: Optional[ExchangeModel] = None,
):
    """Monte Carlo bias of the scaled gradient estimate at ``a``, for any
    model; returns (bias vector, stderr vector).

    Each sample draws Phi, the state s and (with ``exchange``) the masks,
    then observes at a + gamma*Phi and at a - gamma*Phi with a noise draw
    each.  Its term is Phi * (est+ - est-) / (2*alpha2*gamma*q) minus
    ``objective.exact_sample_gradient(a, s)``: est is the observations' sum
    or each node's subset estimate, q the nonempty-subset probability (1
    without exchange).  As Phi is symmetric, the antithetic pair has the
    one-sided estimate's mean; the sample gradient's mean is grad F(a).  A
    term that is not finite raises ``ValueError``.
    """
    _integer("samples", samples, 1)
    _real("gamma", gamma, 0)
    a = np.asarray(a, dtype=float)
    n = objective.n_nodes
    alpha2, _ = moments(perturbation)
    scale = 2.0 * alpha2 * gamma
    if exchange is not None:
        scale *= q_nonempty(exchange, n)
    total = total_sq = 0.0
    for done in range(0, samples, _BIAS_CHUNK):
        m = min(_BIAS_CHUNK, samples - done)
        phi = sample_array(perturbation, (m, n), rng)
        s = objective.sample_state(rng, (m,))
        mask = (None if exchange is None
                else sample_masks((exchange,), n, rng, (m,)))
        plus, minus = (objective.observe(a + step, s,
                                         objective.sample_noise(rng, (m, n)))
                       for step in (gamma * phi, -gamma * phi))
        g = (phi * subset_estimates(plus - minus, mask) / scale
             - objective.exact_sample_gradient(a, s))
        if not np.isfinite(g).all():
            raise ValueError(f"a bias term at a = {a.tolist()}, gamma = {gamma} "
                             "is not finite (a +- gamma*Phi left the domain)")
        total += g.sum(axis=0)
        total_sq += (g * g).sum(axis=0)
    mean = total / samples
    var = (total_sq / samples - mean**2) / samples
    return mean, np.sqrt(np.maximum(var, 0.0))


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


class RateConstants(NamedTuple):
    A: float
    B: float


def rate_constants(
    objective: ObjectiveModel,
    perturbation: PerturbationModel,
    q: float = 1.0,
) -> RateConstants:
    """A = 2*alpha2*alpha5, B = n^(5/2)*alpha1*alpha3^3; the
    incomplete-information case scales both by the nonempty-exchange
    probability q, which must lie in (0, 1]."""
    _real("q", q, 0, 1, "(]")
    if objective.strong_concavity is None or objective.hessian_bound is None:
        raise ValueError("objective lacks curvature constants")
    alpha2, alpha3 = moments(perturbation)
    return RateConstants(
        A=2.0 * alpha2 * objective.strong_concavity * q,
        B=objective.n_nodes**2.5 * objective.hessian_bound * alpha3**3 * q,
    )


# ---------------------------------------------------------------------------
# recursion and envelopes


def lemma4_residuals(trace: RunTrace, a_star, constants: RateConstants,
                     M: float, schedule: PowerLawSchedule, K0: int):
    """Statistical check of the one-step recursion along a recorded trace.

    Pairs each recorded k >= K0 with the recorded row k + 1 (a k whose
    successor is not recorded is skipped) and forms the residual

        stat_k = mean_r[d_{k+1} - (1 - A b g) d_k] - B b g^2 sqrt(Dbar_k) - M b^2

    which the recursion requires to be <= 0, together with a delta-method
    standard error that accounts for the replication pairing.  ``M`` bounds
    E||ghat||^2 (see :func:`estimate_M`).  Returns (ks, stat, se) arrays; a
    criterion passes when stat <= 4*se everywhere.  Raises ``ValueError``
    when no such pair is recorded, so the check cannot pass vacuously.
    """
    d = divergence_samples(trace, a_star)
    R, ks = d.shape[1], trace.ks
    paired = np.flatnonzero((ks[:-1] >= K0) & (np.diff(ks) == 1))
    if paired.size == 0:
        raise ValueError(f"trace records no index k >= {K0} together with k + 1")
    k = ks[paired]
    b, g = schedule.beta(k), schedule.gamma(k)
    dk = d[paired]
    Y = d[paired + 1] - (1.0 - constants.A * b * g)[:, None] * dk
    Dbar = dk.mean(axis=1)
    Bbg2 = constants.B * b * g**2
    stat = Y.mean(axis=1) - Bbg2 * np.sqrt(Dbar) - M * b**2
    Yc, Dc = Y - Y.mean(axis=1, keepdims=True), dk - Dbar[:, None]
    vY, vD, cov = (_einsum("ij,ij->i", u, v) / ((R - 1) * R)
                   for u, v in ((Yc, Yc), (Dc, Dc), (Yc, Dc)))
    slope = Bbg2 / (2.0 * np.sqrt(np.maximum(Dbar, 1e-300)))
    var = np.maximum(vY + slope**2 * vD - 2.0 * slope * cov, 0.0)
    return k, stat, np.sqrt(var)


def theorem5_envelope(schedule: PowerLawSchedule, Omega: float, ks):
    """Power-law envelope Omega * (k+1)^(-min{2 nu2, nu1 - nu2}), for a
    finite Omega > 0."""
    _real("Omega", Omega, 0)
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
        _real(name, v, 0, 1, "(]")
    g = x ** (-a) * (-math.expm1(-b * math.log1p(x)))
    return g, g < b


# ---------------------------------------------------------------------------
# reference optimum for the wireless model


_SAA_TOL = 1e-8  # largest |mean gradient| on the free coordinates at a solution
_SAA_MAX_ITER = 100  # Newton iterations per batch
_SAA_FD_STEP = 1e-6  # forward-difference step of the Hessian
_SAA_CONTRACTION = 0.1  # a chord step must shrink the update by this factor
_SAA_START_SHARE = 64  # the first batch is solved first on 1/64 of its states


def _ascent_step(hessian, g, free):
    """The Newton step -H^-1 g on the ``free`` coordinates, with each
    eigenvalue of H replaced by minus its magnitude (so the step ascends
    where H is not negative definite); and whether H is."""
    w, v = np.linalg.eigh(hessian[np.ix_(free, free)])
    mag = np.maximum(np.abs(w), 1e-12 * np.abs(w).max(initial=1.0))
    step = np.zeros_like(g)
    step[free] = v @ ((v.T @ g[free]) / mag)
    return step, bool(w.max(initial=-1.0) < 0.0)


def _saa_solve(objective, states, a, hessian):
    """Maximize the mean of f(., s) over ``states`` in the objective's box by
    projected Newton from ``a``; returns (solution, Hessian, whether it met
    ``_SAA_TOL``, the largest free |mean gradient| it last read).

    The gradient is the mean of ``exact_sample_gradient`` over the states,
    one call per point; the Hessian comes from one-sided forward
    differences, so every point lies at or above ``a``, inside the model's
    domain.  ``hessian`` (None: none yet) is reused (a chord step) while it
    is negative definite and each step is at most ``_SAA_CONTRACTION`` of
    the one before, and recomputed otherwise.  A coordinate at a box edge
    whose gradient points out of the box is held.
    """
    lo, hi = objective.bounds

    def mean_gradient(point):
        g = objective.exact_sample_gradient(point, states)
        return np.add.reduce(g, 0) / len(states)

    def hessian_at(a, g):
        rows = np.array([mean_gradient(a + _SAA_FD_STEP * e)
                         for e in np.eye(a.size)])
        rows = (rows - g) / _SAA_FD_STEP
        return (rows + rows.T) / 2.0

    last = math.inf
    for _ in range(_SAA_MAX_ITER):
        g = mean_gradient(a)
        free = ~(((a <= lo) & (g < 0.0)) | ((a >= hi) & (g > 0.0)))
        residual = np.abs(g[free]).max(initial=0.0)
        if residual <= _SAA_TOL:
            return a, hessian, True, residual
        step, definite = (None, False) if hessian is None else _ascent_step(
            hessian, g, free)
        if not definite or np.abs(step).max() > _SAA_CONTRACTION * last:
            hessian = hessian_at(a, g)
            step, _ = _ascent_step(hessian, g, free)
        last = np.abs(step).max()
        a = np.clip(a + step, lo, hi)
    return a, hessian, False, residual


def reference_optimum(objective: ObjectiveModel, seed: int, horizon: int,
                      replications: int):
    """Estimate a* by sample-average approximation; returns (a*, stderr).

    Each of ``replications`` batches draws ``horizon`` states with
    ``objective.sample_state`` and maximizes their sample-mean utility in
    the objective's box (:func:`_saa_solve`); the estimate is the mean of
    the batch solutions, its standard error their spread over the
    independent batches (NaN for one batch); a batch whose solve does not
    converge raises ``ValueError``.  Batch b starts from batch b - 1's
    solution and Hessian, so its solution does not depend on how many
    batches follow.  The wireless objective has no closed-form maximizer.
    ``seed`` is one 64-bit word, as in ``run`` (-1 and 2**64 - 1 name one
    stream).
    """
    _integer("horizon", horizon, 1)
    _integer("replications", replications, 1)
    lo, hi = objective.bounds
    rng = np.random.default_rng(_check_seed(seed) & _MASK64)
    a, hessian = np.full(objective.n_nodes, (lo + hi) / 2.0), None
    solutions = []
    for b in range(replications):
        states = objective.sample_state(rng, (horizon,))
        if b == 0:  # a cheap start near the first solution, a start only
            a, hessian, _, _ = _saa_solve(
                objective, states[:-(-horizon // _SAA_START_SHARE)], a, hessian)
        a, hessian, converged, residual = _saa_solve(objective, states, a, hessian)
        if not converged:
            raise ValueError(f"SAA batch {b} did not converge in {_SAA_MAX_ITER} "
                             f"steps: largest free |mean gradient| {residual:.6g}")
        solutions.append(a)
    return _mean_stderr(np.array(solutions).T)


# ---------------------------------------------------------------------------
# serialization


class SummaryRecord(NamedTuple):
    id: str
    status: str  # "pass" or "fail"
    measured: float
    bound: float
    tolerance: float


def _write_columns(path, header, ks, *columns) -> None:
    """A CSV (CRLF lines, as ``csv.writer`` writes them) of the index ``ks``
    (integers, or floats such as p) and float ``columns``, each float
    written with 17 significant digits (so it reads back bit for bit)."""
    line = "%s" + ",%.17g" * len(columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in zip(
            ks.tolist(), *(c.tolist() for c in columns)))


def write_divergence_csv(path, series: DivergenceSeries,
                         theorem5: Optional[np.ndarray] = None) -> None:
    """Columns: k, D_k, stderr, envelope_theorem5 (NaN where no envelope is
    given)."""
    t5 = theorem5 if theorem5 is not None else np.full(len(series.ks), np.nan)
    _write_columns(path, ["k", "D_k", "stderr", "envelope_theorem5"],
                   series.ks, series.values, series.stderr, t5)


def write_utility_csv(path, trace: RunTrace) -> None:
    """Columns: k, mean_f_over_N, stderr."""
    _write_columns(path, ["k", "mean_f_over_N", "stderr"],
                   trace.ks, trace.mean_utility, trace.utility_stderr)


def write_summary(path, records) -> None:
    """JSON summary: one record per assertion, deterministic key order."""
    with open(path, "w") as fh:
        json.dump([r._asdict() for r in records], fh, indent=2,
                  sort_keys=True, allow_nan=True)
        fh.write("\n")
