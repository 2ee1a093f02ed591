"""The step kernel and the replication-parallel run loop.

Four variants share one iteration shape:

* ``dosp`` — each node perturbs its action by gamma_k * Phi_i (random signed
  perturbation), all nodes act simultaneously, observe their local utilities
  at the perturbed point, sum them into a scalar f~, and update
  a_i <- a_i + beta_k * Phi_i * f~.
* ``dosp_incomplete`` — same, except node i only receives a random subset of
  the other nodes' utilities and substitutes the scaled-sum estimate from
  :mod:`dospsim.exchange`; a node with an empty subset keeps its action.
* ``sine_baseline`` — identical update with the random perturbation replaced
  by the deterministic signal lambda_i * sin(Omega_i * t_k + phase_i), where
  t_k accumulates the beta step sizes.  The same signal value is used in both
  the performed perturbation and the multiplicative update.
* ``exact_gradient_baseline`` — stochastic gradient ascent with the exact
  per-sample gradient at the nominal action (an idealized reference that
  needs information no distributed node has).

Constrained runs clamp the nominal iterate to the shrunken box
[a_min + alpha3*gamma_{k+1}, a_max - alpha3*gamma_{k+1}] after each update so
the next perturbed action stays feasible.  When gamma is so large early on
that the shrunken box is empty, the run falls back to the plain box and the
performed action itself is clamped to [a_min, a_max]; once gamma has decayed
the shrunken-box rule applies verbatim (and the clamp of the performed action
becomes a no-op).  The step sizes and clamp boxes are evaluated as arrays,
one block of iterations at a time.

Each step evaluates the objective once.  On a recorded step the observation
at the performed action and the utility at the nominal iterate share the
iteration's state and come from one ``observe(..., nominal=a)`` call (one
joint pass for small batches); the exact-gradient baseline and the final
index use ``global_utility``.  A non-finite iterate raises
:class:`FloatingPointError`, checked once per block and so at the end of the
run.

Randomness is counter-based: every (seed, iteration, purpose) triple keys an
independent Philox stream, key = (seed << 64) + (k + 1) * 8 + purpose with
counter 0, with separate purposes for initialization, perturbations,
environment states, observation noise, and exchange subsets.  A run keeps one
generator per purpose and re-keys it in place when the iteration consumes
that purpose (observation noise only when ``noise_variance > 0``, subsets
only for ``dosp_incomplete``); a re-keyed generator draws exactly what a
freshly built ``Philox(key=...)`` would.  Consequences, relied on by the
tests:

* reruns with the same seed are bit-identical;
* replication r's trajectory does not depend on how many replications run
  alongside it (draws are row-major prefixes of each purpose stream);
* the complete- and incomplete-information variants see identical
  perturbations and states under the same seed, so at p = 1 their
  trajectories coincide bitwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exchange import ExchangeModel, sample_masks, subset_estimates
from .objectives import ObjectiveModel
from .perturbation import PerturbationModel, sample_array
from .schedules import PowerLawSchedule

logger = logging.getLogger(__name__)

__all__ = [
    "VARIANTS",
    "SineParams",
    "AlgoConfig",
    "RunTrace",
    "run",
    "default_record_ks",
]

VARIANTS = ("dosp", "dosp_incomplete", "sine_baseline", "exact_gradient_baseline")

DEFAULT_SINE_FREQUENCIES = (63.0, 70.0, 56.0, 49.0)


@dataclass(frozen=True)
class SineParams:
    """Deterministic perturbation signal of the sine baseline.

    Frequencies must be pairwise distinct and no pairwise sum may equal a
    third frequency (otherwise the demodulation products alias onto each
    other and the baseline cannot separate the nodes' contributions).
    """

    frequencies: tuple
    amplitude: float = 1.5
    phase: float = 0.0

    def __post_init__(self) -> None:
        freqs = tuple(float(w) for w in self.frequencies)
        object.__setattr__(self, "frequencies", freqs)
        if len(set(freqs)) != len(freqs):
            raise ValueError("sine frequencies must be pairwise distinct")
        fset = set(freqs)
        for i, wi in enumerate(freqs):
            for wj in freqs[i:]:
                if wi + wj in fset:
                    raise ValueError(
                        "sum of two sine frequencies collides with a third"
                    )
        if self.amplitude <= 0:
            raise ValueError("sine amplitude must be positive")


@dataclass(frozen=True)
class AlgoConfig:
    schedule: PowerLawSchedule
    perturbation: PerturbationModel = field(default_factory=PerturbationModel)
    bounds: Optional[tuple] = None  # overrides the objective's bounds if set
    exchange: Optional[ExchangeModel] = None
    variant: str = "dosp"
    sine: Optional[SineParams] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        if (self.variant == "sine_baseline") != (self.sine is not None):
            raise ValueError("sine parameters required iff variant is sine_baseline")
        if self.variant == "dosp_incomplete" and self.exchange is None:
            raise ValueError("dosp_incomplete requires an exchange model")

    def effective_bounds(self, objective: ObjectiveModel):
        return self.bounds if self.bounds is not None else objective.bounds


# ---------------------------------------------------------------------------
# counter-based streams


_MASK64 = (1 << 64) - 1
_NPURP = 8
_INIT, _PHI, _STATE, _NOISE, _SUBSET = range(5)


class _Streams:
    """One Philox generator per purpose, re-keyed in place per iteration."""

    __slots__ = ("_seed_word", "_bitgens", "_gens")

    def __init__(self, seed: int):
        self._seed_word = (seed & _MASK64) << 64
        self._bitgens = [np.random.Philox(key=0) for _ in range(_SUBSET + 1)]
        self._gens = [np.random.Generator(bg) for bg in self._bitgens]

    def at(self, k: int, purpose: int) -> np.random.Generator:
        """The generator of ``purpose``, re-keyed for iteration ``k``."""
        key = self._seed_word + (k + 1) * _NPURP + purpose
        self._bitgens[purpose].state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [key & _MASK64, key >> 64]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gens[purpose]


# ---------------------------------------------------------------------------
# schedule blocks


_BLOCK = 1024  # iterations whose step sizes and boxes are evaluated at once


def _coefficients(config: AlgoConfig, bounds, k_start: int, k_stop: int):
    """Per-step constants (beta_k, gamma_k, lo, hi) for k in [k_start, k_stop).

    [lo, hi] is the box the updated iterate is clamped to: the shrunken box
    for k + 1 (the plain box where that is empty), the plain box for the
    exact-gradient baseline, and (None, None) for unbounded runs.
    """
    sched = config.schedule
    ks = np.arange(k_start, k_stop + 1)
    beta = sched.beta(ks[:-1]).tolist()
    gamma = sched.gamma(ks)
    count = k_stop - k_start
    if bounds is None:
        lo = hi = [None] * count
    elif config.variant == "exact_gradient_baseline":
        lo, hi = [bounds[0]] * count, [bounds[1]] * count
    else:
        margin = config.perturbation.amplitude * gamma[1:]
        lo, hi = bounds[0] + margin, bounds[1] - margin
        empty = lo > hi
        lo[empty], hi[empty] = bounds[0], bounds[1]
        lo, hi = lo.tolist(), hi.tolist()
    return zip(beta, gamma[:-1].tolist(), lo, hi)


# ---------------------------------------------------------------------------
# the step kernel


def _clamp(x, lo, hi):
    """Clamp the freshly computed array ``x`` to [lo, hi] in place
    (the values of ``np.clip`` without its wrapper)."""
    np.minimum(np.maximum(x, lo, out=x), hi, out=x)


class _Step(NamedTuple):
    new: np.ndarray                 # next nominal iterate
    ghat: np.ndarray                # update direction
    phi: Optional[np.ndarray]       # perturbation applied (None: exact gradient)
    performed: np.ndarray           # action played
    observed: Optional[np.ndarray]  # f~ per replication, or per-node estimates
    utility: Optional[np.ndarray]   # f(a_k, S_k) at the nominal, when asked
    t: float                        # sine-baseline time after the step


def _step(config: AlgoConfig, objective: ObjectiveModel, rng: _Streams, k: int,
          a, t: float, coeffs, nominal_utility: bool = False) -> _Step:
    """One iteration at index ``k`` from the nominal iterate ``a`` (..., n).

    ``coeffs`` is the row (beta_k, gamma_k, lo, hi) of :func:`_coefficients`;
    ``t`` the sine-baseline time before the step.  With ``nominal_utility``
    the global utility at ``a`` under this iteration's state is returned too.
    """
    b, gm, lo, hi = coeffs
    variant = config.variant
    batch = a.shape[:-1]
    s = objective.sample_state(rng.at(k, _STATE), batch)

    if variant == "exact_gradient_baseline":
        f_nom = objective.global_utility(a, s) if nominal_utility else None
        ghat = objective.exact_sample_gradient(a, s)
        new = a + b * ghat
        if lo is not None:
            _clamp(new, lo, hi)
        return _Step(new, ghat, None, a, None, f_nom, t)

    if variant == "sine_baseline":
        # offset 0: the step at k uses t including beta_k; offset 1: the
        # first step uses t = 0
        t_next = t + b
        if config.schedule.index_offset == 0:
            t = t_next
        sp = config.sine
        vals = sp.amplitude * np.sin(np.asarray(sp.frequencies) * t + sp.phase)
        phi = np.broadcast_to(vals, a.shape).copy()
        t = t_next
    else:
        phi = sample_array(config.perturbation, a.shape, rng.at(k, _PHI))
    ahat = a + gm * phi
    bounds = config.effective_bounds(objective)
    if bounds is not None:
        _clamp(ahat, bounds[0], bounds[1])
    noise = rng.at(k, _NOISE) if objective.noise_variance > 0 else None
    if nominal_utility:
        u, f_nom = objective.observe(ahat, s, noise, nominal=a)
    else:
        u, f_nom = objective.observe(ahat, s, noise), None
    if variant == "dosp_incomplete":
        mask = sample_masks(config.exchange, a.shape[-1], rng.at(k, _SUBSET), batch)
        observed = subset_estimates(u, mask)
        ghat = phi * observed
    else:
        observed = u.sum(axis=-1)
        ghat = phi * observed[..., None]
    new = a + b * ghat
    if lo is not None:
        _clamp(new, lo, hi)
    return _Step(new, ghat, phi, ahat, observed, f_nom, t)


# ---------------------------------------------------------------------------
# run loop


@dataclass
class RunTrace:
    """Recorded quantities of one (possibly replicated) run.

    ``actions[j]`` is the nominal iterate at index ``ks[j]``, shape (R, n).
    ``mean_utility`` is the per-node average utility f(a_k, S_k)/n at the
    nominal iterate under that iteration's state draw, averaged over
    replications.  ``ghat_sq`` is the replication-averaged squared norm of
    the update direction (NaN at the final index, where no step happens).
    ``successor_actions`` (optional) holds the iterate one step after each
    recorded index, for recursion checks.  ``performed_min``/``max`` track
    the extreme components of every performed action over the whole run.
    """

    ks: np.ndarray
    actions: np.ndarray
    mean_utility: np.ndarray
    utility_stderr: np.ndarray
    ghat_sq: np.ndarray
    performed_min: float
    performed_max: float
    variant: str
    seed: int
    replications: int
    successor_actions: Optional[np.ndarray] = None


def default_record_ks(first_index: int, horizon: int, dense: int = 1000,
                      per_decade: int = 25) -> np.ndarray:
    """Every index up to ``dense``, then log-spaced; always includes the
    final index ``first_index + horizon``."""
    kf = first_index + horizon
    ks = np.arange(first_index, min(first_index + dense, kf) + 1)
    if kf > first_index + dense:
        lo, hi = np.log10(first_index + dense), np.log10(kf)
        n_log = max(2, int(np.ceil((hi - lo) * per_decade)))
        logs = np.round(np.logspace(lo, hi, n_log)).astype(int)
        ks = np.unique(np.concatenate([ks, logs, [kf]]))
    return ks


def run(
    config: AlgoConfig,
    objective: ObjectiveModel,
    horizon: int,
    seed: int,
    replications: int = 1,
    record_ks: Optional[Sequence[int]] = None,
    record_successors: bool = False,
) -> RunTrace:
    """Run ``replications`` independent trajectories for ``horizon`` steps.

    All replications advance in lockstep as rows of a (R, n) action array;
    see the module docstring for the stream-derivation contract.  Raises
    ``FloatingPointError`` when an iterate overflows to inf or NaN.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = objective.n_nodes
    R = int(replications)
    k0 = config.schedule.first_index
    kf = k0 + horizon
    bounds = config.effective_bounds(objective)
    variant = config.variant

    if record_ks is None:
        record_ks = default_record_ks(k0, horizon)
    ks = np.unique(np.asarray(record_ks, dtype=int))
    if ks.size and (ks[0] < k0 or ks[-1] > kf):
        raise ValueError(f"record indices must lie in [{k0}, {kf}]")
    pos = {int(k): j for j, k in enumerate(ks)}
    K = len(ks)

    actions = np.empty((K, R, n))
    succ = np.full((K, R, n), np.nan) if record_successors else None
    mean_u = np.full(K, np.nan)
    stderr_u = np.full(K, np.nan)
    ghat_sq = np.full(K, np.nan)
    # elementwise extremes of the performed actions, reduced once at the end
    perf_min = np.full((R, n), np.inf)
    perf_max = np.full((R, n), -np.inf)

    def record_utility(j, a, f):
        actions[j] = a
        f_nom = f / n
        mean_u[j] = f_nom.sum() / R
        stderr_u[j] = f_nom.std(ddof=1) / np.sqrt(R) if R > 1 else 0.0

    rng = _Streams(seed)
    a = objective.init_action(rng.at(-1, _INIT), (R,))
    t = 0.0

    logger.debug("run %s: n=%d R=%d horizon=%d seed=%d", variant, n, R, horizon, seed)

    for start in range(k0, kf, _BLOCK):
        stop = min(start + _BLOCK, kf)
        for k, coeffs in enumerate(_coefficients(config, bounds, start, stop), start):
            j = pos.get(k)
            out = _step(config, objective, rng, k, a, t, coeffs, j is not None)
            np.minimum(perf_min, out.performed, out=perf_min)
            np.maximum(perf_max, out.performed, out=perf_max)
            if j is not None:
                record_utility(j, a, out.utility)
                ghat_sq[j] = (out.ghat * out.ghat).sum(axis=-1).sum() / R
                if record_successors:
                    succ[j] = out.new
            a, t = out.new, out.t
        # a non-finite iterate stays non-finite, so one check per block
        # catches every overflow without a per-step cost
        if not np.isfinite(a).all():
            raise FloatingPointError(
                f"{variant} run produced a non-finite iterate in the steps "
                f"k={start}..{stop - 1} (seed={seed}, horizon={horizon})"
            )

    j = pos.get(kf)
    if j is not None:
        s = objective.sample_state(rng.at(kf, _STATE), (R,))
        record_utility(j, a, objective.global_utility(a, s))

    return RunTrace(
        ks=ks,
        actions=actions,
        mean_utility=mean_u,
        utility_stderr=stderr_u,
        ghat_sq=ghat_sq,
        performed_min=float(perf_min.min()),
        performed_max=float(perf_max.max()),
        variant=variant,
        seed=seed,
        replications=R,
        successor_actions=succ,
    )
