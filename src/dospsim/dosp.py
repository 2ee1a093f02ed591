"""The step kernel and the replication-parallel run loop.

Four variants share one iteration shape:

* ``dosp`` — each node perturbs its action by gamma_k * Phi_i (random signed
  perturbation), all nodes act simultaneously, observe their local utilities
  at the perturbed point, sum them into a scalar f~, and update
  a_i <- a_i + beta_k * Phi_i * f~.
* ``dosp_incomplete`` — same, except node i only receives a random subset of
  the other nodes' utilities and substitutes the scaled-sum estimate from
  :mod:`dospsim.exchange`; a node with an empty subset keeps its action.
* ``sine_baseline`` — the same update with the deterministic perturbation
  lambda_i * sin(Omega_i * t_k + phase_i), t_k accumulating the beta step
  sizes; :func:`_chunk_rows` computes it with the chunk's other inputs.
* ``exact_gradient_baseline`` — stochastic gradient ascent with the exact
  per-sample gradient at the nominal action (an idealized reference that
  needs information no distributed node has).

Every run has the finite box [a_min, a_max] of its model
(``objective.bounds``).  It clamps the initial iterate to that box once,
and the nominal iterate after each update to the shrunken box
[a_min + alpha3*gamma_{k+1}, a_max - alpha3*gamma_{k+1}], alpha3 = sup|Phi|
of the perturbation applied (0 for the exact-gradient baseline), so the next
perturbed action stays feasible.  While the shrunken box is empty, the run
falls back to the plain box and clamps the performed action itself to
[a_min, a_max].

A run builds its step once (:func:`_stepper`, the one update rule).  Each
step evaluates the objective once, at the performed action, and writes
into the chunk's histories: step c reads iterate c and writes iterate
c + 1, its ghat and its performed action.  The recorded quantities are
computed once per chunk (below), from the recorded rows of the histories
(one slice, or one index for a sparse grid): the utility at the nominal
iterate under each recorded iteration's state in one ``global_utility``
call, |ghat|^2 and the extremes of the performed actions.  A non-finite
iterate raises :class:`FloatingPointError`, checked once per chunk.

Randomness is counter-based: every (seed, iteration, purpose) triple keys an
independent Philox stream, key = (seed << 64) + (k + 1) * 8 + purpose with
counter 0, with separate purposes for initialization, perturbations,
environment states, observation noise, and exchange subsets.  Every input of
an iteration except the iterate (step sizes, clamp box, state, perturbation,
mask and its estimator terms, noise) is made for a chunk of C iterations
at once, C <= 1024 chosen so that a purpose's draws hold at most 2**16
entries: each sampler is called once on the stacked (C, R, ...) shape, and
row c holds the bytes that iteration's own stream draws (draws of at most
16 raw words per iteration are computed for all C keys together, in one pass
per block count at any C, others by re-keying the one generator per
iteration), so the output does not depend on C.  Only the initial iterate
and the state of the final index are drawn directly from their streams.
A mask entry is a 32-bit half of a raw word (entry e of an iteration's
row-major (R, n, n) mask is half e % 2 of word e // 2, low half first),
included iff it is below floor(p * 2**32): p is quantized to 2**-32.
Consequences, relied on by the tests:

* reruns with the same seed are bit-identical;
* replication r's trajectory does not depend on how many replications run
  alongside it (draws are row-major prefixes of each purpose stream);
* the complete- and incomplete-information variants see identical
  perturbations and states under the same seed, so at p = 1 their
  trajectories coincide bitwise.

Series that share a schedule and perturbation model run as one stack
(:func:`run_series`): P configs of the perturbed variants, which may differ
in ``variant``, ``exchange`` and ``sine`` (a sweep over p, or fig5's dosp
and sine series), run as one run of P * R replication rows, series i in
rows i * R ... (i + 1) * R - 1.  The stack draws the initial iterate,
states, perturbations and noise once and repeats them once per series; a
sine series takes its own signal in place of the perturbation draw, and
each series is clamped to the shrunken box of its own alpha3.
:func:`sample_masks` thresholds the one mask draw at each series' p, at
p = 1 for a series without an exchange model, whose full subsets give the
plain sum bit for bit.  The exact-gradient baseline stacks only with
itself.  A step is rowwise, so series i equals ``run(configs[i], ...)`` bit
for bit, and :func:`run` is the stack of one.

By the second and third consequences an experiment runs each distinct
series once (:func:`_series_key`): :meth:`RunTrace.prefix` gives the run at
fewer replications, and ``dosp_incomplete`` at p = 1 is ``dosp``.
"""

from __future__ import annotations

import logging
import math
import numbers
import operator
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .exchange import ExchangeModel, _estimate, _mask_terms, sample_masks
from .objectives import ObjectiveModel
from .perturbation import PerturbationModel, moments, sample_array
from .schedules import PowerLawSchedule, _clip, _einsum, _integer, _real

logger = logging.getLogger(__name__)

__all__ = [
    "VARIANTS",
    "SineParams",
    "AlgoConfig",
    "RunTrace",
    "run",
    "run_series",
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
        freqs = tuple(_real("frequencies", w) for w in self.frequencies)
        object.__setattr__(self, "frequencies", freqs)
        _real("phase", self.phase)
        if len(set(freqs)) != len(freqs):
            raise ValueError("sine frequencies must be pairwise distinct")
        fset = set(freqs)
        for i, wi in enumerate(freqs):
            for wj in freqs[i:]:
                if wi + wj in fset:
                    raise ValueError(
                        "sum of two sine frequencies collides with a third"
                    )
        _real("amplitude", self.amplitude, 0)


@dataclass(frozen=True)
class AlgoConfig:
    schedule: PowerLawSchedule
    perturbation: PerturbationModel = field(default_factory=PerturbationModel)
    exchange: Optional[ExchangeModel] = None
    variant: str = "dosp"
    sine: Optional[SineParams] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        if (self.variant == "sine_baseline") != (self.sine is not None):
            raise ValueError("sine parameters required iff variant is sine_baseline")
        if (self.variant == "dosp_incomplete") != (self.exchange is not None):
            raise ValueError("exchange model required iff variant is dosp_incomplete")
        if (self.variant in ("sine_baseline", "exact_gradient_baseline")
                and self.perturbation != PerturbationModel()):
            raise ValueError(f"variant {self.variant} applies no perturbation model")

    def effective_bounds(self, objective: ObjectiveModel):
        """The run's box: the objective's, which owns it."""
        return objective.bounds


_STACK_FREE = ("variant", "exchange", "sine")  # may differ within a stack


def _series_key(config: AlgoConfig) -> AlgoConfig:
    """The config whose run equals ``config``'s bit for bit, ``dosp`` for
    ``dosp_incomplete`` at p = 1; configs of one key are one series."""
    if config.variant == "dosp_incomplete" and config.exchange.p == 1:
        return replace(config, variant="dosp", exchange=None)
    return config


def _stack_conflict(a: AlgoConfig, b: AlgoConfig) -> Optional[str]:
    """The field that keeps ``a`` and ``b`` out of one stack, or None when
    they may share one: the perturbed variants may differ in
    ``_STACK_FREE``, and the exact-gradient baseline stacks only with
    itself."""
    if (a.variant != b.variant
            and "exact_gradient_baseline" in (a.variant, b.variant)):
        return "variant"
    return next((f.name for f in fields(AlgoConfig) if f.name not in _STACK_FREE
                 and getattr(a, f.name) != getattr(b, f.name)), None)


# ---------------------------------------------------------------------------
# counter-based streams


_MASK64 = (1 << 64) - 1
_NPURP = 8
_INIT, _PHI, _STATE, _NOISE, _SUBSET = range(5)


class _Streams:
    """One Philox generator for every purpose, re-keyed before each draw."""

    __slots__ = ("_seed_word", "_gen", "_state")

    def __init__(self, seed: int):
        self._seed_word = (seed & _MASK64) << 64
        # seeded with 0 (no OS entropy): at() replaces the whole state
        self._gen = np.random.Generator(np.random.Philox(0))
        # a fresh Philox's state, its key words set in place at each re-keying
        self._state = {"bit_generator": "Philox", "buffer": [0, 0, 0, 0],
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
                       "state": {"counter": [0, 0, 0, 0], "key": [0, 0]}}

    def key(self, k: int, purpose: int) -> int:
        """The 128-bit Philox key of (seed, iteration ``k``, ``purpose``)."""
        return self._seed_word + (k + 1) * _NPURP + purpose

    def at(self, k: int, purpose: int) -> np.random.Generator:
        """The generator, re-keyed for iteration ``k`` and ``purpose``."""
        key = self.key(k, purpose)
        self._state["state"]["key"][:] = key & _MASK64, key >> 64
        self._gen.bit_generator.state = self._state
        return self._gen


# Philox4x64-10 constants (Salmon et al., SC'11): round multipliers and the
# Weyl increments of the key schedule, stacked for the two multiplied words.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64)[:, None, None]
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_PHILOX_MH, _PHILOX_ML = _PHILOX_M >> _S32, _PHILOX_M & _LO32
# the key schedule's offsets: round r adds r Weyl increments (mod 2**64)
_PHILOX_KEYS = np.arange(10, dtype=np.uint64)[:, None, None, None] * _PHILOX_W


def _philox_words(key_lo, key_hi, blocks: int):
    """The first ``4 * blocks`` outputs of ``Philox(key=...)`` for each key.

    ``key_lo`` and ``key_hi`` (uint64, length C) are the key words; returns
    (C, 4 * blocks) uint64 words, row c in the order ``Philox.random_raw``
    yields them (counters 1, 2, ..., four words each).  The 128-bit products
    of the rounds are built from 32-bit halves.
    """
    keys = np.array((key_lo, key_hi), np.uint64)[:, :, None] + _PHILOX_KEYS
    x = np.zeros((2, key_lo.size, blocks), np.uint64)  # counter words 0 and 2
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    y = np.zeros_like(x)                                 # counter words 1 and 3
    for key in keys:
        xh, xl = x >> _S32, x & _LO32
        t = xl * _PHILOX_ML
        u = xh * _PHILOX_ML + (t >> _S32)        # < 2**64: no carry is lost
        v = xl * _PHILOX_MH + (u & _LO32)
        hi = xh * _PHILOX_MH + (u >> _S32) + (v >> _S32)
        lo = x * _PHILOX_M
        hi = hi[::-1]
        hi ^= y
        hi ^= key
        x, y = hi, lo[::-1]
    out = np.empty((key_lo.size, blocks, 4), np.uint64)
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = x[0], y[0], x[1], y[1]
    return out.reshape(key_lo.size, 4 * blocks)


# A chunk's Philox words are computed in bulk by _philox_words when each
# iteration draws at most _BULK_MAX_SIZE of them (a uniform takes one word,
# two mask entries take one), one pass for every purpose of the chunk at a
# block count; otherwise numpy's Philox is re-keyed per iteration.
_BULK_MAX_SIZE = 16


class _BlockStream:
    """One purpose's generators for iterations [start, stop), side by side.

    Row c of a draw of shape (stop - start, ...) holds exactly what the
    purpose's generator for iteration ``start + c`` draws for the shape
    (...): Philox output depends on the key and the counter only, so the
    rows can be computed in any order.  A chunk's block streams share
    ``bulk``, purpose -> words per iteration announced before the draws:
    the first bulk draw at a block count makes the words of every purpose
    announced at it in one :func:`_philox_words` pass, kept in ``bulk``
    until their purpose draws.
    """

    __slots__ = ("_streams", "_purpose", "_start", "_stop", "_bulk")

    def __init__(self, streams: _Streams, purpose: int, start: int, stop: int,
                 bulk: Optional[dict] = None):
        self._streams, self._purpose = streams, purpose
        self._start, self._stop = start, stop
        self._bulk = {} if bulk is None else bulk

    def _rows(self, shape) -> tuple:
        shape = tuple(shape)
        count = self._stop - self._start
        if shape[0] != count:
            raise ValueError(f"a chunk of {count} iterations draws {count} rows")
        return shape

    def _per_iteration(self, method: str, shape):
        out = np.empty(shape)
        rows = out.reshape(shape[0], -1)
        streams, purpose = self._streams, self._purpose
        draw = getattr(streams.at(self._start, purpose), method)
        for c, k in enumerate(range(self._start, self._stop)):
            streams.at(k, purpose)
            draw(out=rows[c])
        return out

    def _bulk_words(self, size: int):
        """The first ``size`` <= _BULK_MAX_SIZE words of each iteration's
        generator, (stop - start, size) uint64, from the chunk's pass."""
        bulk, count = self._bulk, self._stop - self._start
        if not isinstance(bulk.get(self._purpose), np.ndarray):
            bulk[self._purpose], blocks = size, -(-size // 4)
            group = [p for p, m in bulk.items()
                     if isinstance(m, int) and -(-m // 4) == blocks]
            first = [self._streams.key(self._start, p) for p in group]
            lo = (np.arange(count, dtype=np.uint64) * np.uint64(_NPURP)
                  + np.array([f & _MASK64 for f in first], np.uint64)[:, None])
            hi = (np.array([f >> 64 for f in first], np.uint64)[:, None]
                  + (lo < lo[:, :1]))  # the low word's carry
            bulk.update(zip(group, _philox_words(
                lo.ravel(), hi.ravel(), blocks).reshape(len(group), count, -1)))
        return bulk.pop(self._purpose)[:, :size]

    def random(self, shape):
        """Uniforms on [0, 1), row c from iteration ``start + c``'s stream."""
        shape = self._rows(shape)
        size = math.prod(shape[1:])
        if size > _BULK_MAX_SIZE:
            return self._per_iteration("random", shape)
        words = self._bulk_words(size)
        # numpy's next_double: the top 53 bits, scaled
        return ((words >> np.uint64(11)) * (1.0 / 9007199254740992.0)).reshape(shape)

    def integers(self, low, high, shape, dtype):
        """32-bit words, row c from iteration ``start + c``'s stream: the
        only form is ``integers(0, 2**32, shape, np.uint32)``, entry e of a
        row being half e % 2 of raw word e // 2, low half first, as numpy's
        ``Generator.integers`` yields them."""
        if (low, high, np.dtype(dtype)) != (0, 1 << 32, np.uint32):
            raise ValueError("a block stream draws integers(0, 2**32, ..., "
                             "np.uint32) only")
        shape = self._rows(shape)
        size = math.prod(shape[1:])
        n_words = -(-size // 2)
        if n_words <= _BULK_MAX_SIZE:
            words = self._bulk_words(n_words)
        else:
            streams, purpose = self._streams, self._purpose
            words = np.stack([
                streams.at(k, purpose).bit_generator.random_raw(n_words)
                for k in range(self._start, self._stop)])
        halves = words.astype("<u8", copy=False).view("<u4")
        return halves[:, :size].reshape(shape)

    def standard_normal(self, shape):
        """Standard normals, drawn per iteration: the ziggurat takes a
        variable number of words per value."""
        return self._per_iteration("standard_normal", self._rows(shape))


# ---------------------------------------------------------------------------
# chunk inputs


_BLOCK = 1024  # the most iterations whose inputs are made at once
# Most draw entries per purpose held at once: a chunk spans
# _DRAW_BUDGET // (R * n * n) iterations (at least one, at most _BLOCK) for
# R replication rows, which bounds every purpose's chunk array (states and
# masks have at most n * n entries per row).  A stack of P series has
# P * R rows, its shared draws repeated once per series.
_DRAW_BUDGET = 1 << 16


def _draw_chunk(replications: int, n: int) -> int:
    """Iterations whose inputs are made at once, for ``replications`` rows
    of ``n`` nodes."""
    return max(1, min(_BLOCK, _DRAW_BUDGET // (replications * n * n)))


_FULL = ExchangeModel(1.0)  # the mask of a series without an exchange model


def _per_series(x, P: int, axis: int = 0):
    """``x`` repeated once per series of a stack of ``P`` along its
    replication ``axis``, series i in rows i * R ... (i + 1) * R - 1;
    ``x`` itself for one series."""
    return x if P == 1 else np.concatenate([x] * P, axis=axis)


def _chunk_rows(configs: Sequence[AlgoConfig], objective: ObjectiveModel,
                rng: _Streams, start: int, stop: int, batch: tuple, t: float):
    """The inputs of iterations [start, stop) other than the iterate, one
    row per iteration, their states stacked, and the sine-baseline time
    after them (``t`` is the time before them), for the stack ``configs``
    of :func:`run_series`: P * R rows for one series' ``batch`` = (R,).

    Row k is (beta_k, gamma_k * phi, lo, hi, s, phi, terms, noise).
    beta_k is a 0-d float64 array, and so are lo and hi but in a column.
    [lo, hi] is the box the updated iterate is clamped to: the objective's
    box shrunken by alpha3 * gamma_{k+1} (the plain box where that is
    empty; alpha3 = 0 for the exact-gradient baseline), a (P * R, 1) column
    of one box per replication row when the series' alpha3 differ.  Then
    come the state, the perturbation (the sine signal for
    ``sine_baseline``), the receive mask's estimator terms (computed for
    the chunk's masks at once) and the observation noise, None where the
    run has none (gamma_k * phi too, for the exact-gradient baseline).

    Each sampler is called once on the stacked (stop - start, *batch) shape;
    row c equals the draw of iteration ``start + c`` bit for bit.
    """
    config, P = configs[0], len(configs)
    sched = config.schedule
    exact = config.variant == "exact_gradient_baseline"
    count = stop - start
    ks = np.arange(start, stop + 1)
    beta = sched.beta(ks[:-1])
    gamma = sched.gamma(ks)
    # alpha3 = sup|Phi| of the perturbation each series applies
    alpha3 = [0.0 if exact else c.sine.amplitude if c.sine is not None
              else moments(c.perturbation)[1] for c in configs]
    column = len(set(alpha3)) > 1
    margin = (np.array(alpha3)[:, None] if column else alpha3[0]) * gamma[1:]
    a_min, a_max = objective.bounds
    lo, hi = a_min + margin, a_max - margin
    empty = lo > hi
    lo[empty], hi[empty] = a_min, a_max
    if column:  # series i's box over its rows: (count, P * R, 1)
        lo, hi = (np.repeat(x.T, batch[0], axis=1)[..., None] for x in (lo, hi))
    n = objective.n_nodes
    shape = (count,) + tuple(batch)
    # Phi's uniforms and the masks' words per iteration (two entries a
    # word), for the first bulk draw
    size, masked = math.prod(batch) * n, any(c.exchange for c in configs)
    bulk = {_SUBSET: -(-size * n // 2)} if masked else {}
    if not exact and any(c.sine is None for c in configs):
        bulk[_PHI] = size
    states = _per_series(objective.sample_state(
        _BlockStream(rng, _STATE, start, stop, bulk), shape), P, 1)
    phis = gphis = masks = noises = repeat(None)
    if not exact:
        # each series' perturbation: the one Phi draw (key None) or the
        # signal of its sine parameters, which has no replication axis
        signals = dict.fromkeys(c.sine for c in configs)
        if any(sp is not None for sp in signals):
            # np.cumsum adds in order, as t += beta_k step by step; step k
            # reads t after beta_k at offset 0, before it at offset 1
            # (first step: 0)
            ts = np.cumsum(np.concatenate(([t], beta)))
            t = float(ts[-1])
            ts = ts[1:] if sched.index_offset == 0 else ts[:-1]
        for sp in signals:
            signals[sp] = (
                sample_array(config.perturbation, shape + (n,),
                             _BlockStream(rng, _PHI, start, stop, bulk))
                if sp is None else sp.amplitude * np.sin(
                    np.multiply.outer(ts, sp.frequencies) + sp.phase))
        phis = signals[config.sine] if P == 1 else np.concatenate(
            [np.broadcast_to(signals[c.sine].reshape(count, -1, n),
                             shape + (n,)) for c in configs], axis=1)
        # gamma_k over phi's row, whose shape is (rows, n) or (n,) (sine)
        gphis = gamma[:-1].reshape((-1,) + (1,) * (phis.ndim - 1)) * phis
        if objective.noise_variance > 0:
            noises = _per_series(objective.sample_noise(
                _BlockStream(rng, _NOISE, start, stop), shape + (n,)), P, 1)
    if masked:
        masks = zip(*_mask_terms(sample_masks(
            [_FULL if c.exchange is None else c.exchange for c in configs], n,
            _BlockStream(rng, _SUBSET, start, stop, bulk), shape)))
    # row c of each: x[c, ...] is 0-d for a (count,) array
    beta, lo, hi = ([x[c, ...] for c in range(count)] for x in (beta, lo, hi))
    return zip(beta, gphis, lo, hi, states, phis, masks, noises), states, t


# ---------------------------------------------------------------------------
# the step kernel


def _stepper(config: AlgoConfig, objective: ObjectiveModel):
    """The step of a run of ``config`` in the box of ``objective``, what is
    fixed for the run looked up once.  ``step(a, row, ahat, new, ghat)``
    takes one iteration from the nominal iterate ``a`` (..., n) and the
    iteration's (beta_k, gamma_k * phi, lo, hi, s, phi, terms, noise) of
    :func:`_chunk_rows`: it writes the action played into ``ahat``, the
    update direction into ``ghat`` and the next iterate into ``new``.  A
    perturbed step estimates as :func:`subset_estimates` does (the plain
    sum without mask terms).  Each clamp is one call of numpy's clip ufunc
    on 0-d bounds (a column for a mixed-alpha3 stack): minimum(maximum(x,
    lo), hi) bit for bit on every iterate a run reaches, since neither
    differs but on a -0.0 against a 0.0 bound, and no iterate is -0.0.
    """
    exact = config.variant == "exact_gradient_baseline"
    gradient, observe = objective.exact_sample_gradient, objective.observe
    # 0-d arrays: cheaper ufunc operands than floats
    a_min, a_max = map(np.array, objective.bounds)
    add, multiply, copyto = np.add, np.multiply, np.copyto
    clip, total, estimate = _clip, np.add.reduce, _estimate

    def step(a, row, ahat, new, ghat):
        b, gphi, lo, hi, s, phi, terms, noise = row
        if exact:
            copyto(ahat, a)
            copyto(ghat, gradient(a, s))
        else:
            clip(add(a, gphi, out=ahat), a_min, a_max, out=ahat)
            u = observe(ahat, s, noise)
            multiply(phi, total(u, axis=-1, keepdims=True) if terms is None
                     else estimate(u, terms), out=ghat)
        clip(add(a, multiply(ghat, b, out=new), out=new), lo, hi, out=new)

    return step


# ---------------------------------------------------------------------------
# run loop


class RunTrace:
    """Recorded quantities of one (possibly replicated) run.

    ``actions[j]`` is the nominal iterate at index ``ks[j]``, shape (R, n).
    The other rows are per replication: ``utility`` (K, R) is the per-node
    average utility f(a_k, S_k)/n at the nominal iterate under that
    iteration's state draw, ``ghat_norm_sq`` (K, R) the squared norm of the
    update direction (NaN at the final index, where no step happens), and
    ``performed_mins``/``maxes`` (R,) the extreme components of each
    replication's performed actions over the whole run.  Their summaries,
    ``mean_utility`` with ``utility_stderr``, the replication-averaged
    ``ghat_sq`` and ``performed_min``/``max``, are computed when the trace
    is made.  Only the indices ``ks`` are recorded: a recursion check,
    which pairs row k with row k + 1, passes both indices in ``record_ks``.
    """

    def __init__(self, ks, actions, utility, ghat_norm_sq, performed_mins,
                 performed_maxes):
        self.ks, self.actions, self.utility = ks, actions, utility
        self.ghat_norm_sq = ghat_norm_sq
        self.performed_mins, self.performed_maxes = performed_mins, performed_maxes
        self.mean_utility, self.utility_stderr = _mean_stderr(utility)
        self.ghat_sq = ghat_norm_sq.sum(axis=-1) / utility.shape[-1]
        self.performed_min = float(performed_mins.min())
        self.performed_max = float(performed_maxes.max())

    def prefix(self, replications: int) -> RunTrace:
        """The trace of the first ``replications`` rows, which equals the
        run at that count bit for bit (replication r's trajectory does not
        depend on how many run alongside it)."""
        R = self.utility.shape[-1]
        if (isinstance(replications, bool)
                or not isinstance(replications, numbers.Integral)
                or not 1 <= replications <= R):
            raise ValueError(f"a prefix of a {R}-replication trace takes 1 to "
                             f"{R} replications, got {replications!r}")
        rows = slice(int(replications))
        return RunTrace(self.ks, self.actions[:, rows], self.utility[:, rows],
                        self.ghat_norm_sq[:, rows], self.performed_mins[rows],
                        self.performed_maxes[rows])


_DENSE = 1000      # every index is recorded up to first_index + _DENSE
_PER_DECADE = 25   # log-spaced record indices per decade after that


def default_record_ks(first_index: int, horizon: int) -> np.ndarray:
    """Every index up to ``first_index + 1000``, then 25 log-spaced indices
    per decade; always includes the final index ``first_index + horizon``."""
    kf = first_index + horizon
    ks = np.arange(first_index, min(first_index + _DENSE, kf) + 1)
    if kf > first_index + _DENSE:
        lo, hi = np.log10(first_index + _DENSE), np.log10(kf)
        n_log = max(2, int(np.ceil((hi - lo) * _PER_DECADE)))
        logs = np.round(np.logspace(lo, hi, n_log)).astype(int)
        ks = np.unique(np.concatenate([ks, logs, [kf]]))
    return ks


def _mean_stderr(x):
    """Mean and standard error over the last axis (the replications): the
    bytes of ``x.mean(-1)`` and ``x.std(-1, ddof=1) / sqrt(R)`` without
    their wrappers; the error is numpy's NaN (0 / 0) for one replication,
    without its warning."""
    R = x.shape[-1]
    mean = x.sum(axis=-1) / R
    d = x - mean[..., None]
    squares = (d * d).sum(axis=-1)
    with np.errstate(invalid="ignore"):  # the only invalid case: 0 / 0 at R = 1
        var = squares / (R - 1)
    return mean, np.sqrt(var) / np.sqrt(R)


def _check_seed(seed) -> int:
    """``seed`` as a plain int, refused unless it is an integer (not a bool)
    in [-2**63, 2**64): one 64-bit word, read as signed or unsigned."""
    try:
        value = None if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        value = None
    if value is None or not -(1 << 63) <= value <= _MASK64:
        raise ValueError(f"seed must be an integer in [-2**63, 2**64), "
                         f"got {seed!r}")
    return value


def _record_indices(record_ks, k0: int, kf: int) -> np.ndarray:
    """A caller's ``record_ks`` as sorted unique ints in [k0, kf], refused
    unless it is a one-dimensional sequence of integers (integral floats
    too; bools, text and complex numbers are not)."""
    ks = np.asarray(record_ks)
    if (ks.ndim != 1 or ks.dtype.kind not in "iuf"
            or any(isinstance(k, (bool, np.bool_)) for k in record_ks)):
        raise ValueError(f"record indices must be a one-dimensional sequence "
                         f"of integers, got {record_ks!r}")
    if ks.dtype.kind == "f":
        bad = ks[~(np.isfinite(ks) & (ks == np.floor(ks)))]
        if bad.size:
            raise ValueError(f"record indices must be integers, got {bad.tolist()}")
    ks = np.unique(ks.astype(int))
    if ks.size and (ks[0] < k0 or ks[-1] > kf):
        raise ValueError(f"record indices must lie in [{k0}, {kf}]")
    return ks


def run(
    config: AlgoConfig,
    objective: ObjectiveModel,
    horizon: int,
    seed: int,
    replications: int = 1,
    record_ks: Optional[Sequence[int]] = None,
) -> RunTrace:
    """Run ``replications`` independent trajectories for ``horizon`` steps:
    the stack of one config (see :func:`run_series`)."""
    return run_series([config], objective, horizon, seed, replications,
                      record_ks)[0]


def run_series(
    configs: Sequence[AlgoConfig],
    objective: ObjectiveModel,
    horizon: int,
    seed: int,
    replications: int = 1,
    record_ks: Optional[Sequence[int]] = None,
) -> list[RunTrace]:
    """The trace of each of ``configs``, from one lockstep run.

    Configs of the perturbed variants (``dosp``, ``dosp_incomplete``,
    ``sine_baseline``) may differ in ``variant``, ``exchange`` and ``sine``
    (a sweep over p, or fig5's dosp and sine series); the exact-gradient
    baseline stacks only with itself, and any other difference raises
    ``ValueError``.  The P series advance as one run of P * R replication
    rows and share every draw (see the module docstring), so trace i equals
    ``run(configs[i], ...)`` bit for bit.  Raises ``FloatingPointError``
    when an iterate overflows to inf or NaN.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_series needs at least one config")
    config, P = configs[0], len(configs)
    for other in configs[1:]:
        conflict = _stack_conflict(config, other)
        if conflict is not None:
            raise ValueError(
                f"the configs of a series stack differ in {conflict}; only "
                f"variant (among dosp, dosp_incomplete and sine_baseline), "
                f"exchange and sine may differ")
    # plain ints: a numpy integer would overflow the stream keys
    horizon = _integer("horizon", horizon, 1)
    R, seed = _integer("replications", replications, 1), _check_seed(seed)
    n = objective.n_nodes
    k0 = config.schedule.first_index
    kf = k0 + horizon
    variant = "+".join(dict.fromkeys(c.variant for c in configs))

    for c in configs:
        if c.sine is not None and len(c.sine.frequencies) != n:
            raise ValueError(f"the sine baseline needs one frequency per node: "
                             f"{len(c.sine.frequencies)} for {n} nodes")
    # the default grid is sorted, unique and integer as it comes
    ks = (default_record_ks(k0, horizon) if record_ks is None
          else _record_indices(record_ks, k0, kf))
    K = len(ks)

    chunk = _draw_chunk(P * R, n)
    actions = np.empty((K, P * R, n))
    utility = np.empty((K, P * R))
    ghat_norm_sq = np.full((K, P * R), np.nan)
    # a chunk's histories: step c reads iterate c and writes iterate c + 1,
    # its performed action and its ghat, into the rows it is handed
    iterates = np.empty((min(chunk, horizon) + 1, P * R, n))
    performed, ghats = np.empty((2,) + iterates[1:].shape)
    perf_min, perf_max = np.full((P * R, n), np.inf), np.full((P * R, n), -np.inf)

    rng = _Streams(seed)
    iterates[0] = _per_series(objective.init_action(rng.at(-1, _INIT), (R,)), P)
    # PF draws a_0 on (0, a_max], which can fall below its least power
    np.clip(iterates[0], *objective.bounds, out=iterates[0])
    t = 0.0  # the sine-baseline time, carried from chunk to chunk
    step = _stepper(config, objective)

    logger.debug("run %s: P=%d n=%d R=%d horizon=%d seed=%d", variant, P, n,
                 R, horizon, seed)

    for start in range(k0, kf, chunk):
        stop = min(start + chunk, kf)
        j0, j1 = np.searchsorted(ks, (start, stop)).tolist()
        rows, states, t = _chunk_rows(configs, objective, rng, start, stop,
                                      (R,), t)
        for row, a, ahat, new, ghat in zip(rows, iterates, performed,
                                           iterates[1:], ghats):
            step(a, row, ahat, new, ghat)
        del rows, row  # the chunk's draws but its states, before the records
        # each row's extremes per node, reduced over the nodes after the
        # run: a reduction over a short inner axis is slow in numpy
        np.minimum(perf_min, performed[:stop - start].min(axis=0), out=perf_min)
        np.maximum(perf_max, performed[:stop - start].max(axis=0), out=perf_max)
        if j1 > j0:
            # the chunk's recorded rows, one slice where they are consecutive
            rec = ks[j0:j1] - start
            rec = slice(rec[0], rec[-1] + 1) if rec[-1] - rec[0] == j1 - j0 - 1 else rec
            actions[j0:j1] = iterates[rec]
            # f(a_k, S_k) at the chunk's recorded indices, in one call
            utility[j0:j1] = objective.global_utility(actions[j0:j1], states[rec]) / n
            g = ghats[rec]
            ghat_norm_sq[j0:j1] = _einsum("...i,...i->...", g, g)
        # release this chunk's states before the next are made (holding
        # both costs about 2% at R=1000, n=10)
        del states
        iterates[0] = iterates[stop - start]
        # a non-finite iterate stays non-finite, so one check per chunk
        # catches every overflow without a per-step cost
        if not np.isfinite(iterates[0]).all():
            raise FloatingPointError(
                f"{variant} run produced a non-finite iterate in the steps "
                f"k={start}..{stop - 1} (seed={seed}, horizon={horizon})")

    if K and ks[-1] == kf:
        s = _per_series(objective.sample_state(rng.at(kf, _STATE), (R,)), P)
        actions[-1] = iterates[0]
        # no step at kf: its ghat_norm_sq stays NaN
        utility[-1] = objective.global_utility(iterates[0], s) / n

    perf_min, perf_max = perf_min.min(axis=-1), perf_max.max(axis=-1)
    return [RunTrace(ks, actions[:, rows], utility[:, rows],
                     ghat_norm_sq[:, rows], perf_min[rows], perf_max[rows])
            for rows in (slice(i * R, (i + 1) * R) for i in range(P))]
