import hashlib
import math
import re
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dospsim import dosp
from dospsim.analysis import (
    bias_bound_value,
    empirical_bias,
    lemma7_check,
    rate_constants,
    theorem5_envelope,
)
from dospsim.dosp import (
    _INIT,
    _NOISE,
    _PHI,
    _STATE,
    _SUBSET,
    DEFAULT_SINE_FREQUENCIES,
    VARIANTS,
    _FULL,
    AlgoConfig,
    RunTrace,
    SineParams,
    _BlockStream,
    _chunk_rows,
    _series_key,
    _stepper,
    _Streams,
    default_record_ks,
    run,
    run_series,
)
from dospsim.exchange import ExchangeModel, lemma3_enumeration_oracle, sample_masks
from dospsim.objectives import (
    ObjectiveModel,
    PowerControlPF,
    QuadraticToy,
    make_objective,
)
from dospsim.perturbation import PerturbationModel, sample_array
from dospsim.schedules import PowerLawSchedule, contraction_start, theorem5_condition


class _LinearStub(ObjectiveModel):
    """Deterministic objective for hand-computed step checks: u_i = a_i, in
    a box that none of them reaches."""

    n_nodes = 2
    noise_variance = 0.0
    bounds = (-100.0, 100.0)
    strong_concavity = None
    hessian_bound = None

    def sample_state(self, rng, batch_shape=()):
        return np.ones(tuple(batch_shape) + (2,))

    def local_utilities(self, a, s):
        return np.asarray(a, dtype=float)

    def exact_sample_gradient(self, a, s):
        return np.ones_like(np.asarray(a, dtype=float))

    def init_action(self, rng, batch_shape=()):
        return np.zeros(tuple(batch_shape) + (2,))


# --- configuration validation -------------------------------------------------


def test_sine_params_validation():
    with pytest.raises(ValueError):
        SineParams(frequencies=(3.0, 3.0))
    with pytest.raises(ValueError):
        SineParams(frequencies=(1.0, 2.0, 3.0))  # 1 + 2 == 3
    with pytest.raises(ValueError):
        SineParams(frequencies=(2.0, 4.0))  # 2 + 2 == 4
    with pytest.raises(ValueError):
        SineParams(frequencies=(1.0, 2.5), amplitude=0.0)
    SineParams(frequencies=(63.0, 70.0, 56.0, 49.0))  # default set is legal


def test_algo_config_validation():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    with pytest.raises(ValueError):
        AlgoConfig(schedule=sched, variant="adam")
    with pytest.raises(ValueError):
        AlgoConfig(schedule=sched, variant="sine_baseline")  # missing sine
    with pytest.raises(ValueError):
        AlgoConfig(schedule=sched, sine=SineParams(frequencies=(1.0, 2.5)))
    with pytest.raises(ValueError):
        AlgoConfig(schedule=sched, variant="dosp_incomplete")  # missing exchange
    with pytest.raises(ValueError):  # an exchange model only dosp_incomplete reads
        AlgoConfig(schedule=sched, exchange=ExchangeModel(0.1))
    # a perturbation model only dosp and dosp_incomplete apply
    sine = SineParams(frequencies=(1.0, 2.5))
    for variant, extra in (("sine_baseline", {"sine": sine}),
                           ("exact_gradient_baseline", {})):
        with pytest.raises(ValueError, match=f"variant {variant} applies no"):
            AlgoConfig(schedule=sched, variant=variant, **extra,
                       perturbation=PerturbationModel(amplitude=0.5))
        # the default model (amplitude 1) is what every variant carries
        AlgoConfig(schedule=sched, variant=variant, **extra,
                   perturbation=PerturbationModel(amplitude=1.0))


def test_constructors_refuse_an_inverted_box_and_non_finite_signals():
    # the box is the model's (test_objectives checks it); the configs'
    # signals must be finite
    for amplitude in (math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            PerturbationModel(amplitude)
    for bad in ({"amplitude": math.nan}, {"phase": math.inf},
                {"phase": math.nan}, {"frequencies": (math.nan, 70.0)},
                {"frequencies": (63.0, -math.inf)}, {"amplitude": 10**400},
                {"phase": 10**400}, {"frequencies": (63.0, 10**400)}):
        with pytest.raises(ValueError, match="must be finite"):
            SineParams(**{"frequencies": (63.0, 70.0), **bad})


_FREQS = (63.0, 70.0)
_NUMBER_FIELDS = {  # field name -> the config built with that field set
    "p": lambda v: ExchangeModel(v),
    "amplitude": lambda v: PerturbationModel(v),
    "sine amplitude": lambda v: SineParams(_FREQS, amplitude=v),
    "phase": lambda v: SineParams(_FREQS, phase=v),
    "frequencies": lambda v: SineParams((63.0, v)),
    "beta0": lambda v: PowerLawSchedule(v, 0.75, 1.0, 0.25),
    "nu1": lambda v: PowerLawSchedule(0.5, v, 1.0, 0.25),
    "gamma0": lambda v: PowerLawSchedule(0.5, 0.75, v, 0.25),
    "nu2": lambda v: PowerLawSchedule(0.5, 0.75, 1.0, v),
    "index_offset": lambda v: PowerLawSchedule(0.5, 0.75, 1.0, 0.25,
                                               index_offset=v),
}
_TOY, _PERT = QuadraticToy(), PerturbationModel()
_SCHED = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
# with the models' constants and the real arguments of the analysis and
# exchange helpers, refused the same way; a model has no __eq__ and a helper
# returns no config, so these stay out of test_config_numbers_take_integers
_ALL_NUMBER_FIELDS = {
    **_NUMBER_FIELDS,
    **{f"pf {name}": lambda v, name=name: PowerControlPF(**{name: v})
       for name in ("omega", "kappa", "sigma2", "a_max", "noise_variance")},
    "toy noise_variance": lambda v: QuadraticToy(noise_variance=v),
    "bias_bound_value gamma": lambda v: bias_bound_value(_TOY, _PERT, v),
    "empirical_bias gamma": lambda v: empirical_bias(
        _TOY, [0.5, 2.5], v, _PERT, 10, np.random.default_rng(0)),
    "rate_constants q": lambda v: rate_constants(_TOY, _PERT, q=v),
    "theorem5_condition A": lambda v: theorem5_condition(_SCHED, v),
    "contraction_start A": lambda v: contraction_start(_SCHED, v),
    "theorem5_envelope Omega": lambda v: theorem5_envelope(_SCHED, v, 3),
    "lemma7_check a": lambda v: lemma7_check(v, 0.5, 0.5),
    "lemma7_check b": lambda v: lemma7_check(0.5, v, 0.5),
    "lemma7_check x": lambda v: lemma7_check(0.5, 0.5, v),
    "lemma3_enumeration_oracle p": lambda v: lemma3_enumeration_oracle(
        0, np.ones(3), v),
}


@pytest.mark.parametrize("bad", [True, np.True_, "1", "0.5"], ids=repr)
@pytest.mark.parametrize("name", _ALL_NUMBER_FIELDS)
def test_config_numbers_refuse_bools_and_text(name, bad):
    # bools used to be taken as 1 and text to raise a bare TypeError (or,
    # in a model, to be converted by float())
    field_name = name.split()[-1]
    with pytest.raises(ValueError, match=rf"^{field_name} must be finite and in "
                       rf"[(\[].*[)\]], got {re.escape(repr(bad))}$"):
        _ALL_NUMBER_FIELDS[name](bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("name", _ALL_NUMBER_FIELDS)
def test_real_numbers_refuse_non_finite_values_and_huge_ints(name, bad):
    # an int past the float range used to be taken (as by PowerLawSchedule
    # and PerturbationModel) or to raise a bare OverflowError; Omega took
    # NaN, +-inf and values <= 0
    with pytest.raises(ValueError, match=re.escape(
            f"{name.split()[-1]} must be finite and in ")):
        _ALL_NUMBER_FIELDS[name](bad)


@pytest.mark.parametrize("name", _NUMBER_FIELDS)
def test_config_numbers_take_integers(name):
    value = {"p": 1, "frequencies": 56, "nu1": 1, "nu2": 0}.get(name, 1)
    for number in (value, np.int64(value)):
        config = _NUMBER_FIELDS[name](number)
        assert config == _NUMBER_FIELDS[name](float(value))


def test_effective_bounds_override():
    # the run's box is the model's; perfbench's box check reads it here
    config = AlgoConfig(schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25))
    assert config.effective_bounds(QuadraticToy()) == (0.0, 3.0)
    assert config.effective_bounds(PowerControlPF(a_max=2.0)) == (1e-6, 2.0)


# --- streams -------------------------------------------------------------------


def _fresh(seed, k, purpose):
    """A newly built generator for (seed, iteration, purpose)."""
    return np.random.Generator(
        np.random.Philox(key=((seed & (2**64 - 1)) << 64) + (k + 1) * 8 + purpose)
    )


def test_streams_reproducible_and_purpose_separated():
    rng = _Streams(7)
    # a re-keyed generator draws exactly what a freshly built one draws, also
    # after earlier keys left values in its output buffers
    for k, purpose in ((3, _PHI), (3, _STATE), (-1, _INIT), (4, _PHI), (3, _PHI)):
        assert np.array_equal(rng.at(k, purpose).random(5),
                              _fresh(7, k, purpose).random(5))
    rng.at(3, _SUBSET).integers(0, 10, size=3, dtype=np.uint32)  # buffers a uint32
    assert np.array_equal(rng.at(3, _SUBSET).integers(0, 10, size=5, dtype=np.uint32),
                          _fresh(7, 3, _SUBSET).integers(0, 10, size=5, dtype=np.uint32))
    assert np.array_equal(rng.at(3, _NOISE).standard_normal(5),
                          _fresh(7, 3, _NOISE).standard_normal(5))
    assert np.array_equal(_Streams(-2).at(0, _PHI).random(5), _fresh(-2, 0, _PHI).random(5))
    # purposes, iterations and seeds stay separated
    a = rng.at(3, _PHI).random(5)
    assert not np.array_equal(a, rng.at(3, _STATE).random(5))
    assert not np.array_equal(a, rng.at(4, _PHI).random(5))
    assert not np.array_equal(a, _Streams(8).at(3, _PHI).random(5))


_SEEDS = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(2**63, 2**64 - 1))
# iterations from 0 on, and around k = 2**61 - 1, where (k + 1) * 8 carries
# into the key's high word
_STARTS = st.one_of(st.integers(0, 10**6), st.integers(2**61 - 80, 2**61 + 40))
_ROW_SHAPES = st.sampled_from([(), (1,), (2,), (3,), (5,), (1, 2), (3, 2),
                               (2, 2, 2), (4, 4), (2, 3, 3)])


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, start=_STARTS, count=st.integers(1, 90),
       purpose=st.sampled_from([_INIT, _PHI, _STATE, _NOISE, _SUBSET]),
       rest=_ROW_SHAPES, bulk=st.booleans())
def test_block_random_equals_fresh_generators(seed, start, count, purpose,
                                              rest, bulk):
    # row c of a block draw is byte for byte what a freshly built generator
    # for iteration start + c draws, computed in bulk or per iteration
    assume(((seed & (2**64 - 1)) << 64) + (start + count) * 8 + purpose < 2**128)
    with patch.object(dosp, "_BULK_MAX_SIZE", 10**9 if bulk else -1):
        got = _BlockStream(_Streams(seed), purpose, start, start + count).random(
            (count,) + rest)
    want = np.stack([_fresh(seed, k, purpose).random(rest)
                     for k in range(start, start + count)])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, start=_STARTS, count=st.integers(1, 20),
       purpose=st.sampled_from([_STATE, _NOISE]), rest=_ROW_SHAPES)
def test_block_standard_normal_equals_fresh_generators(seed, start, count,
                                                       purpose, rest):
    assume(((seed & (2**64 - 1)) << 64) + (start + count) * 8 + purpose < 2**128)
    block = _BlockStream(_Streams(seed), purpose, start, start + count)
    got = block.standard_normal((count,) + rest)
    want = np.stack([_fresh(seed, k, purpose).standard_normal(rest)
                     for k in range(start, start + count)])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, start=_STARTS, count=st.integers(1, 6),
       purposes=st.lists(st.sampled_from([_INIT, _PHI, _STATE, _NOISE, _SUBSET]),
                         min_size=2, max_size=6),
       sizes=st.lists(st.integers(1, dosp._BULK_MAX_SIZE + 20), min_size=6,
                      max_size=6),
       normal=st.lists(st.booleans(), min_size=6, max_size=6))
def test_per_iteration_draws_interleaving_purposes_equal_fresh_generators(
        seed, start, count, purposes, sizes, normal):
    # one _Streams re-keys its one generator for every purpose in turn, so a
    # key or buffer left over from the previous draw would show in the next:
    # the initial draw, the block draws (uniforms up to _BULK_MAX_SIZE in
    # bulk, larger ones and normals per iteration), the direct draws between
    # them and the final state's draw all equal freshly built generators
    kf = start + count
    assume(((seed & (2**64 - 1)) << 64) + (kf + 1) * 8 + _SUBSET < 2**128)
    streams = _Streams(seed)
    assert streams.at(start, _PHI) is streams.at(kf, _STATE)
    assert (streams.at(-1, _INIT).random(3).tobytes()
            == _fresh(seed, -1, _INIT).random(3).tobytes())
    for purpose, size, gauss in zip(purposes, sizes, normal):
        block = _BlockStream(streams, purpose, start, kf)
        method = "standard_normal" if gauss else "random"
        got = getattr(block, method)((count, size))
        want = np.stack([getattr(_fresh(seed, k, purpose), method)(size)
                         for k in range(start, kf)])
        assert got.tobytes() == want.tobytes()
        # and the run's own direct draws in between
        assert (streams.at(start, purpose).random(3).tobytes()
                == _fresh(seed, start, purpose).random(3).tobytes())
    assert (streams.at(kf, _STATE).random(2).tobytes()
            == _fresh(seed, kf, _STATE).random(2).tobytes())


def _counting_philox_words(calls):
    """``dosp._philox_words`` that appends its block count to ``calls``."""
    real = dosp._philox_words
    return lambda lo, hi, blocks: calls.append(blocks) or real(lo, hi, blocks)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, start=_STARTS,
       count=st.integers(1, 190),
       sizes=st.dictionaries(st.sampled_from([_STATE, _PHI, _SUBSET]),
                             st.integers(1, dosp._BULK_MAX_SIZE), min_size=1),
       announce_first=st.booleans())
def test_fused_bulk_pass_rows_equal_lone_draws_and_fresh_generators(
        seed, start, count, sizes, announce_first):
    # the block streams of a chunk share one _philox_words pass per block
    # count, over the keys of every purpose announced at that count; as in
    # _chunk_rows, the first purpose to draw may be unannounced (the state,
    # whose size only the objective knows).  Each purpose's rows are those
    # of its own block draw and of freshly built generators.
    assume(((seed & (2**64 - 1)) << 64) + (start + count) * 8 + _SUBSET < 2**128)
    order = list(sizes)
    bulk = {p: m for p, m in sizes.items() if announce_first or p != order[0]}
    streams, calls = _Streams(seed), []
    with patch.object(dosp, "_philox_words", _counting_philox_words(calls)):
        got = {p: _BlockStream(streams, p, start, start + count, bulk).random(
            (count, sizes[p])) for p in order}
    assert sorted(calls) == sorted({-(-m // 4) for m in sizes.values()})
    assert bulk == {}
    for p, m in sizes.items():
        lone = _BlockStream(_Streams(seed), p, start, start + count).random(
            (count, m))
        fresh = np.stack([_fresh(seed, k, p).random(m)
                          for k in range(start, start + count)])
        assert got[p].tobytes() == lone.tobytes() == fresh.tobytes(), p


# (n, R): ceil(R * n * n / 2) mask words per iteration, 2 to 24, on both
# sides of _BULK_MAX_SIZE = 16; an odd entry count leaves the last word's high
# half unused
_MASK_SHAPES = [(2, 1), (3, 1), (3, 3), (2, 8), (2, 9), (3, 4), (4, 3)]


@pytest.mark.parametrize("n, R", _MASK_SHAPES)
@pytest.mark.parametrize("seed, start", [(11, 0), (-5, 2**61 - 600)])
def test_masks_threshold_32_bit_halves_of_fresh_philox_words(seed, start, n, R):
    # row c of a chunk's masks is, for each model, the off-diagonal entries
    # of iteration start + c's fresh Philox uint32 draw (the halves of its
    # raw words, low half first) below floor(p * 2**32); the second seed's
    # keys carry into their high word mid-chunk
    assert {-(-R * n * n // 2) <= dosp._BULK_MAX_SIZE for n, R in _MASK_SHAPES} \
        == {True, False}
    count = 800
    models = (ExchangeModel(0.3), ExchangeModel(0.71), _FULL)
    block = _BlockStream(_Streams(seed), _SUBSET, start, start + count,
                         {_SUBSET: -(-R * n * n // 2)})
    got = sample_masks(models, n, block, (count, R))
    off = ~np.eye(n, dtype=bool)
    for c, k in enumerate(range(start, start + count)):
        words = _fresh(seed, k, _SUBSET).integers(0, 2**32, (R, n, n),
                                                  dtype=np.uint32)
        want = np.concatenate([(words < math.floor(e.p * 2**32)) & off
                               for e in models])
        assert np.array_equal(got[c], want), k
    # each model includes a pair at floor(p * 2**32) / 2**32, within 4 SE
    for m, e in enumerate(models):
        q = math.floor(e.p * 2**32) / 2**32
        entries = got[:, m * R:(m + 1) * R][..., off]
        assert abs(entries.mean() - q) <= 4 * math.sqrt(q * (1 - q) / entries.size)


@pytest.mark.parametrize("variant", ["dosp", "dosp_incomplete"])
def test_one_philox_pass_per_chunk_at_one_replication(monkeypatch, variant):
    # a toy chunk's state, Phi and mask draws (2 uniforms, 2 uniforms and
    # 4 mask entries in 2 words per iteration, one Philox block each) come
    # from one bulk pass, however short the chunk
    calls = []
    monkeypatch.setattr(dosp, "_philox_words", _counting_philox_words(calls))
    config = AlgoConfig(
        schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25, index_offset=1),
        exchange=ExchangeModel(0.5) if variant == "dosp_incomplete" else None,
        variant=variant)
    for horizon in (1, 25, 300):
        assert horizon <= dosp._draw_chunk(1, 2)
        run(config, QuadraticToy(), horizon=horizon, seed=3)
        assert calls == [1], horizon
        calls.clear()


def test_block_draw_needs_one_row_per_iteration():
    block = _BlockStream(_Streams(1), _PHI, 10, 14)
    for draw in (block.random, block.standard_normal,
                 lambda shape: block.integers(0, 2**32, shape, np.uint32)):
        with pytest.raises(ValueError, match="draws 4 rows"):
            draw((5, 2))
    # its integers are the mask draw's 32-bit words only
    for low, high, dtype in ((0, 10, np.uint32), (1, 2**32, np.uint32),
                             (0, 2**32, np.uint64)):
        with pytest.raises(ValueError, match="only"):
            block.integers(low, high, (4, 2), dtype)


# --- hand-checked single steps --------------------------------------------------


def _one_step(config, objective, seed, k, a):
    """Run the step kernel once at index k, with the run's chunk row; returns
    the next iterate, ghat, the performed action, and the sine-baseline
    signal and time after the step."""
    a = np.asarray(a, dtype=float)
    rows, _, t = _chunk_rows([config], objective, _Streams(seed), k, k + 1,
                             a.shape[:-1], 0.0)
    row = next(rows)
    performed, new, ghat = np.empty((3,) + a.shape)
    _stepper(config, objective)(a, row, performed, new, ghat)
    return new, ghat, performed, row[5], t


def test_sine_step_offset1_starts_at_phase_zero():
    # default phase: phi = sin(0) = 0 on the very first step, so the action
    # is unchanged while t advances by beta_0
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25, index_offset=1)
    config = AlgoConfig(
        schedule=sched,
        variant="sine_baseline",
        sine=SineParams(frequencies=(63.0, 70.0), amplitude=1.5),
    )
    new, _, performed, phi, t = _one_step(config, _LinearStub(), 0, 0,
                                          [1.0, 2.0])
    np.testing.assert_array_equal(new, [1.0, 2.0])
    assert t == 0.5
    np.testing.assert_array_equal(phi, [0.0, 0.0])
    np.testing.assert_array_equal(performed, [1.0, 2.0])  # phi = 0


def test_sine_step_offset0_hand_values():
    # offset 0: the step at k = 1 uses t = beta(1) = beta0
    beta0, gamma0, amp = 0.5, 0.8, 1.5
    w = (63.0, 70.0)
    sched = PowerLawSchedule(beta0, 0.75, gamma0, 0.0, index_offset=0)
    config = AlgoConfig(
        schedule=sched,
        variant="sine_baseline",
        sine=SineParams(frequencies=w, amplitude=amp),
    )
    a = np.array([1.0, 2.0])
    new, ghat, performed, _, t = _one_step(config, _LinearStub(), 0, 1, a)
    phi = np.array([amp * math.sin(wi * beta0) for wi in w])
    ahat = a + gamma0 * phi
    ftil = ahat.sum()
    np.testing.assert_allclose(performed, ahat, rtol=1e-15)
    np.testing.assert_allclose(ghat, phi * ftil, rtol=1e-15)  # f~ = ftil
    np.testing.assert_allclose(new, a + beta0 * phi * ftil, rtol=1e-15)
    assert t == pytest.approx(beta0)


def test_dosp_step_matches_scalar_recomputation():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    pert = PerturbationModel(amplitude=1.0)
    config = AlgoConfig(schedule=sched, perturbation=pert)
    toy = QuadraticToy()  # its box is [0, 3]
    a = np.array([0.3, 2.7])
    new, ghat, performed, _, _ = _one_step(config, toy, 11, 0, a)
    # regenerate the same draws from fresh generators and redo the step by hand
    phi = sample_array(pert, (2,), _fresh(11, 0, _PHI))
    s = toy.sample_state(_fresh(11, 0, _STATE))
    ahat = np.clip(a + sched.gamma(0) * phi, 0.0, 3.0)
    ftil = toy.local_utilities(ahat, s).sum()
    cand = a + sched.beta(0) * phi * ftil
    margin = sched.gamma(1)
    lo, hi = 0.0 + margin, 3.0 - margin
    expect = np.clip(cand, lo, hi) if lo <= hi else np.clip(cand, 0.0, 3.0)
    np.testing.assert_array_equal(performed, ahat)
    np.testing.assert_array_equal(ghat, phi * ftil)  # f~ = ftil
    np.testing.assert_array_equal(new, expect)


def test_incomplete_step_matches_scalar_estimator():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    pert = PerturbationModel(amplitude=1.0)
    exch = ExchangeModel(p=0.5)
    config = AlgoConfig(
        schedule=sched, perturbation=pert, exchange=exch, variant="dosp_incomplete"
    )
    toy = QuadraticToy()
    a = np.array([1.2, 0.4])
    new, ghat, _, _, _ = _one_step(config, toy, 3, 0, a)
    phi = sample_array(pert, (2,), _fresh(3, 0, _PHI))
    s = toy.sample_state(_fresh(3, 0, _STATE))
    ahat = np.clip(a + sched.gamma(0) * phi, 0.0, 3.0)
    u = toy.local_utilities(ahat, s)
    mask = sample_masks((exch,), 2, _fresh(3, 0, _SUBSET), (1,))[0]
    # two nodes: a node hears the other one (the plain sum) or no one (0)
    est = np.array([u.sum() if mask[i, 1 - i] else 0.0 for i in range(2)])
    np.testing.assert_allclose(ghat, phi * est, rtol=1e-15)  # f~_i = est_i
    cand = a + sched.beta(0) * phi * est
    margin = sched.gamma(1)
    np.testing.assert_allclose(
        new, np.clip(cand, margin, 3.0 - margin), rtol=1e-15
    )


def test_incomplete_p1_step_bitwise_equals_complete():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    config_c = AlgoConfig(schedule=sched)
    config_i = AlgoConfig(
        schedule=sched, exchange=ExchangeModel(1.0), variant="dosp_incomplete"
    )
    toy = QuadraticToy()
    a = np.array([0.7, 1.9])
    new_c = _one_step(config_c, toy, 21, 0, a)[0]
    new_i = _one_step(config_i, toy, 21, 0, a)[0]
    assert np.array_equal(new_c, new_i)


def test_exact_gradient_step():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    config = AlgoConfig(schedule=sched, variant="exact_gradient_baseline")
    new, *_ = _one_step(config, _LinearStub(), 0, 0, [1.0, 2.0])
    np.testing.assert_array_equal(new, [1.5, 2.5])  # a + beta0 * ones
    # f at the nominal action: the stub starts at (0, 0), then steps by beta
    trace = run(config, _LinearStub(), horizon=1, seed=0)
    np.testing.assert_array_equal(trace.actions[:, 0], [[0.0, 0.0], [0.5, 0.5]])
    np.testing.assert_array_equal(trace.mean_utility, [0.0, 0.5])  # f / n


# --- run loop -------------------------------------------------------------------


def _toy_config():
    return AlgoConfig(
        schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25),
        perturbation=PerturbationModel(amplitude=1.0),
    )


def test_run_rerun_is_bit_identical():
    toy = QuadraticToy()
    t1 = run(_toy_config(), toy, horizon=300, seed=5, replications=4)
    t2 = run(_toy_config(), toy, horizon=300, seed=5, replications=4)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.mean_utility, t2.mean_utility)
    assert np.array_equal(t1.ghat_sq, t2.ghat_sq, equal_nan=True)


def test_replication_prefix_stability():
    toy = QuadraticToy()
    t3 = run(_toy_config(), toy, horizon=200, seed=9, replications=3)
    t5 = run(_toy_config(), toy, horizon=200, seed=9, replications=5)
    assert np.array_equal(t3.actions, t5.actions[:, :3, :])


def test_run_records_and_shapes():
    toy = QuadraticToy()
    trace = run(_toy_config(), toy, horizon=50, seed=1, replications=2)
    assert trace.ks[0] == 0 and trace.ks[-1] == 50
    assert trace.actions.shape == (len(trace.ks), 2, 2)
    assert np.isnan(trace.ghat_sq[-1])  # no step happens at the final index
    assert np.all(np.isfinite(trace.ghat_sq[:-1]))
    assert np.all(np.isfinite(trace.mean_utility))


def test_run_horizon_one():
    toy = QuadraticToy()
    trace = run(_toy_config(), toy, horizon=1, seed=2, replications=3)
    assert list(trace.ks) == [0, 1]
    assert np.isfinite(trace.mean_utility).all()


def test_run_rejects_bad_inputs():
    toy = QuadraticToy()
    with pytest.raises(ValueError):
        run(_toy_config(), toy, horizon=0, seed=0)
    with pytest.raises(ValueError):
        run(_toy_config(), toy, horizon=10, seed=0, record_ks=[0, 11])


def test_run_refuses_record_indices_that_are_not_integers():
    # [0.5, 3.7, 10] used to record [0, 3, 10]; NaN raised numpy's bare
    # "cannot convert float NaN to integer"
    toy = QuadraticToy()
    with pytest.raises(ValueError, match=re.escape("integers, got [0.5, 3.7]")):
        run(_toy_config(), toy, horizon=10, seed=0, record_ks=[0.5, 3.7, 10])
    with pytest.raises(ValueError, match=re.escape("integers, got [nan, inf]")):
        run(_toy_config(), toy, horizon=10, seed=0,
            record_ks=[0, math.nan, math.inf])
    # integral floats are indices
    trace = run(_toy_config(), toy, horizon=10, seed=0, record_ks=[0.0, 10.0])
    assert trace.ks.tolist() == [0, 10]


@pytest.mark.parametrize("count", [1, 3])
def test_run_refuses_a_sine_signal_without_one_frequency_per_node(count):
    # one frequency on the 2-node toy used to perturb both nodes alike
    # (equal final actions); three failed in numpy's broadcasting
    config = AlgoConfig(schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25),
                        variant="sine_baseline",
                        sine=SineParams(DEFAULT_SINE_FREQUENCIES[:count]))
    for fn, configs in ((run, config), (run_series, [_toy_config(), config])):
        with pytest.raises(ValueError, match=f"one frequency per node: "
                                             f"{count} for 2 nodes"):
            fn(configs, QuadraticToy(), 10, 0)


@pytest.mark.parametrize("name", ["horizon", "replications"])
@pytest.mark.parametrize("value", [0, -2, 2.7])
def test_run_refuses_counts_that_are_not_positive_integers(name, value):
    # 0 used to divide by zero, -2 to make negative dimensions, and 2.7 to
    # run 2 replications
    toy = QuadraticToy()
    counts = {"horizon": 10, "replications": 2, name: value}
    for fn, configs in ((run, _toy_config()), (run_series, [_toy_config()])):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            fn(configs, toy, seed=0, **counts)
    # numpy integers count as integers
    counts[name] = np.int64(3)
    assert run(_toy_config(), toy, seed=0, **counts).actions.shape[0] >= 2


@pytest.mark.parametrize("inputs,message", [
    # [True, 3] used to record k = 1, ["2", "5"] 2 and 5, [2+0j, 5] to warn
    # and drop the imaginary part, and [[1, 2], [3, 4]] to be flattened
    ({"record_ks": [True, 3]}, "record indices"),
    ({"record_ks": np.array([True, False])}, "record indices"),
    ({"record_ks": ["2", "5"]}, "record indices"),
    ({"record_ks": [2 + 0j, 5]}, "record indices"),
    ({"record_ks": [[1, 2], [3, 4]]}, "record indices"),
    ({"record_ks": 3}, "record indices"),
    # horizon=True used to run one step
    ({"horizon": True}, "horizon must be an integer"),
    ({"replications": True}, "replications must be an integer"),
], ids=["bool-in-list", "bool-array", "text", "complex", "2-d", "scalar",
        "horizon-bool", "replications-bool"])
def test_run_refuses_record_indices_and_counts_of_the_wrong_kind(inputs,
                                                                 message):
    args = {"horizon": 10, "seed": 0, "replications": 2, **inputs}
    with pytest.raises(ValueError, match=message) as info:
        run(_toy_config(), QuadraticToy(), **args)
    assert repr(next(iter(inputs.values()))) in str(info.value)


@pytest.mark.parametrize("seed", [np.uint64(3), np.int64(3), np.int32(3),
                                  np.uint32(3)], ids=lambda s: type(s).__name__)
def test_numpy_integer_seed_runs_as_the_equal_int(seed):
    # every np.uint64 seed used to run as seed 0 (np.uint64(3) and
    # np.uint64(7) gave one trajectory); the others raised OverflowError
    config, toy = _toy_config(), QuadraticToy(noise_variance=0.2)
    want = run(config, toy, horizon=30, seed=3, replications=2)
    got = run(config, toy, horizon=30, seed=seed, replications=2)
    assert got.actions.tobytes() == want.actions.tobytes()
    assert got.utility.tobytes() == want.utility.tobytes()
    other = run(config, toy, horizon=30, seed=np.uint64(7), replications=2)
    assert not np.array_equal(other.actions, want.actions)


def test_seed_is_one_64_bit_word_read_signed_or_unsigned():
    config, toy = _toy_config(), QuadraticToy()
    pairs = ((-1, 2**64 - 1), (-(2**63), 2**63), (np.int64(-5), 2**64 - 5))
    for signed, unsigned in pairs:
        assert np.array_equal(
            run(config, toy, horizon=20, seed=signed).actions,
            run(config, toy, horizon=20, seed=unsigned).actions)


@pytest.mark.parametrize("seed", [True, np.True_, 3.0, "3", None, 2**64,
                                  2**70, -(2**63) - 1], ids=repr)
def test_run_refuses_seeds_outside_one_64_bit_word(seed):
    # 2**70 used to run seed 0 silently, 3.0 and "3" to raise TypeError
    with pytest.raises(ValueError, match="seed must be an integer") as info:
        run(_toy_config(), QuadraticToy(), horizon=5, seed=seed)
    assert repr(seed) in str(info.value)


@pytest.mark.parametrize("stack", [*VARIANTS, "mixed"])
def test_explicit_default_record_ks_give_the_default_trace(monkeypatch, stack):
    # the default grid is taken as it comes, a caller's is checked and
    # made unique: both give one trace.  With chunks of 7 iterations (draw
    # budget 7 * P * R * n * n), each chunk's recorded rows are gathered from
    # its histories by one slice or one index; every grid gives the rows of
    # the run at the default chunk length that records every index.  The
    # mixed stack is dosp, the sine baseline and dosp_incomplete at p = 0.25.
    H, R = 1200, 2  # past the dense part; the last chunk has 1200 % 7 = 3 steps
    variants = (["dosp", "sine_baseline", "dosp_incomplete"] if stack == "mixed"
                else [stack])
    configs = [AlgoConfig(
        schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25),
        exchange=(ExchangeModel(0.25 if stack == "mixed" else 0.5)
                  if variant == "dosp_incomplete" else None),
        variant=variant,
        sine=(SineParams(DEFAULT_SINE_FREQUENCIES[:2])
              if variant == "sine_baseline" else None)) for variant in variants]
    toy = QuadraticToy(noise_variance=0.2)
    k0 = configs[0].schedule.first_index
    kf = k0 + H

    def traces(record_ks):
        return run_series(configs, toy, H, seed=8, replications=R,
                          record_ks=record_ks)

    every = traces(range(k0, kf + 1))  # at the default chunk length
    monkeypatch.setattr(dosp, "_DRAW_BUDGET", 7 * len(configs) * R * 2 * 2)
    assert dosp._draw_chunk(len(configs) * R, 2) == 7
    names = ("ks", "actions", "utility", "ghat_norm_sq", "performed_mins",
             "performed_maxes")
    default = traces(None)
    for got, want in zip(traces(default_record_ks(k0, H)), default, strict=True):
        for name in names:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    grids = {
        "default": default_record_ks(k0, H).tolist(),
        "edges": [k for k in range(k0, k0 + 60) if (k - k0) % 7 in (0, 6)] + [kf],
        "sparse": [k0 + 1, k0 + 9, k0 + 30, k0 + 999, k0 + 1000, kf],
        "one per chunk": [k0 + 7 * i + i % 7 for i in range(30)],
        "ends on a chunk's last step": list(range(k0 + 3, k0 + 14)),
        "ends on a chunk's first step": [k0 + 2, k0 + 6, k0 + 7],
        "last chunk": [kf - 3, kf - 1, kf],
    }
    for case, grid in grids.items():
        for got, want in zip(traces(grid), every, strict=True):
            assert got.ks.tolist() == grid, case
            rows = np.subtract(grid, k0)
            for name in names[1:4]:
                assert getattr(got, name).tobytes() == getattr(want, name)[
                    rows].tobytes(), (case, name)
            for name in names[4:]:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_performed_actions_stay_in_box_mini_fuzz():
    toy = QuadraticToy()
    # large initial gamma so the early shrunken box is empty and the fallback
    # clamp is exercised
    config = AlgoConfig(
        schedule=PowerLawSchedule(2.5, 0.75, 12.0, 0.25, index_offset=0),
        perturbation=PerturbationModel(amplitude=1.0),
    )
    for seed in range(5):
        trace = run(config, toy, horizon=300, seed=seed, replications=3)
        assert trace.performed_min >= 0.0
        assert trace.performed_max <= 3.0


@pytest.mark.parametrize("variant,alpha3", [
    ("dosp", 1.0),
    ("dosp_incomplete", 1.0),
    ("sine_baseline", 1.5),
    ("exact_gradient_baseline", 0.0),
], ids=["dosp", "dosp_incomplete", "sine_baseline", "exact_gradient_baseline"])
def test_box_margin_is_the_applied_amplitude(variant, alpha3):
    # alpha3 = sup|Phi| of the applied perturbation: perturbation.amplitude
    # = 1.0 for dosp and dosp_incomplete, the sine baseline's lambda = 1.5;
    # the exact-gradient baseline perturbs nothing (alpha3 = 0) and clamps
    # to the plain box
    sched = PowerLawSchedule(0.5, 0.75, 2.0, 0.25, index_offset=0)
    config = AlgoConfig(
        schedule=sched, perturbation=PerturbationModel(amplitude=1.0),
        exchange=ExchangeModel(0.5) if variant == "dosp_incomplete" else None,
        variant=variant,
        sine=(SineParams(DEFAULT_SINE_FREQUENCIES[:2], amplitude=1.5)
              if variant == "sine_baseline" else None))
    k0 = sched.first_index
    rows, _, _ = _chunk_rows([config], QuadraticToy(), _Streams(0), k0,
                             k0 + 100, (), 0.0)
    boxes = [(lo, hi) for _, _, lo, hi, *_ in rows]
    assert len(boxes) == 100
    # each bound is a 0-d float64 array: the step's clip takes it as is
    assert all(type(x) is np.ndarray and x.shape == () and x.dtype == np.float64
               for box in boxes for x in box)
    if not alpha3:
        assert [(float(lo), float(hi)) for lo, hi in boxes] == [QuadraticToy.bounds] * 100
        return
    margins = alpha3 * sched.gamma(np.arange(k0 + 1, k0 + 101))
    shrunken = margins <= 1.5  # where [alpha3*gamma, 3 - alpha3*gamma] is nonempty
    assert shrunken.any() and not shrunken.all()
    for (lo, hi), margin, nonempty in zip(boxes, margins, shrunken):
        if nonempty:
            assert (lo, hi) == (pytest.approx(margin, rel=1e-15),
                                pytest.approx(3.0 - margin, rel=1e-15))
        else:
            assert (lo, hi) == (0.0, 3.0)


def _not_negative_zero(x):
    return not (x == 0.0 and math.copysign(1.0, x) < 0.0)


# -0.0 is left out: against a 0.0 bound clip keeps it, where minimum(maximum(
# ...)) gives 0.0.  No iterate, performed action or bound of a run is -0.0: a
# sum is -0.0 only when both terms are, and no initial iterate or bound is.
_CLAMP_FLOATS = st.floats(width=64, allow_nan=False,
                          allow_infinity=False).filter(_not_negative_zero)


@st.composite
def _clamp_cases(draw):
    """(x, lo, hi): x of shape (rows, n) with values at, next to and beyond
    each row's bounds, +-inf and NaN; lo and hi 0-d, or (rows, 1) columns
    as a mixed-alpha3 stack's, with lo == hi in some boxes."""
    rows, n, column = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.booleans())
    boxes = []
    for _ in range(rows if column else 1):
        lo, hi = sorted((draw(_CLAMP_FLOATS), draw(_CLAMP_FLOATS)))
        boxes.append((lo, lo if draw(st.booleans()) else hi))
    x = []
    for r in range(rows):
        lo, hi = boxes[r if column else 0]
        edges = st.sampled_from([lo, hi, math.nextafter(lo, -math.inf),
                                 math.nextafter(lo, math.inf),
                                 math.nextafter(hi, -math.inf),
                                 math.nextafter(hi, math.inf),
                                 -math.inf, math.inf, math.nan])
        x.append([draw(st.one_of(edges, _CLAMP_FLOATS).filter(_not_negative_zero))
                  for _ in range(n)])
    lo, hi = np.array(boxes).T
    if column:
        lo, hi = lo[:, None], hi[:, None]
    else:
        lo, hi = np.array(lo[0]), np.array(hi[0])
    return np.array(x), lo, hi


@given(case=_clamp_cases())
@settings(max_examples=300, deadline=None)
def test_clip_clamp_equals_minimum_of_maximum(case):
    # the step clamps with one call of the clip ufunc, in place; its bytes
    # are those of minimum(maximum(x, lo), hi)
    x, lo, hi = case
    clamped = x.copy()
    dosp._clip(clamped, lo, hi, out=clamped)
    assert clamped.tobytes() == np.minimum(np.maximum(x, lo), hi).tobytes()


def test_schedule_blocks_do_not_change_the_trace(monkeypatch):
    # the step sizes, boxes and draws are made in chunks, and the recorded
    # utilities and |ghat|^2 are computed once per chunk; neither the chunk
    # edges nor the way a chunk's uniforms are computed changes a recorded
    # value: one iteration per chunk (draw budget 1) is the reference.  The
    # sparse record offsets leave chunks with no, some and all rows recorded.
    sparse = [0, 2, 3, 6, 7, 8, 13, 14, 20, 21, 22, 35, 49, 50]

    def trace(objective, variant, record_ks, **limits):
        config = AlgoConfig(
            schedule=PowerLawSchedule(0.5, 0.75, 3.0, 0.25, index_offset=0),
            perturbation=PerturbationModel(amplitude=1.0),
            exchange=ExchangeModel(0.5) if variant == "dosp_incomplete" else None,
            variant=variant,
            sine=(SineParams(DEFAULT_SINE_FREQUENCIES[:objective.n_nodes])
                  if variant == "sine_baseline" else None),
        )
        with monkeypatch.context() as m:
            for name, value in limits.items():
                m.setattr(dosp, name, value)
            k0 = config.schedule.first_index
            return run(config, objective, horizon=50, seed=4, replications=3,
                       record_ks=record_ks and [k0 + d for d in record_ks])

    for objective in (QuadraticToy(noise_variance=0.2),
                      make_objective("power_pf", n_nodes=4, noise_variance=0.2)):
        n = objective.n_nodes
        for variant in VARIANTS:
            for record_ks in (None, sparse):
                single = trace(objective, variant, record_ks, _DRAW_BUDGET=1)
                # _BLOCK = 7 caps a chunk at 7 iterations; with _DRAW_BUDGET
                # = 3 * R * n * n a chunk is 3 iterations
                for limits in ({}, {"_BLOCK": 7}, {"_DRAW_BUDGET": 10**9},
                               {"_BLOCK": 7, "_DRAW_BUDGET": 9 * n * n},
                               {"_BLOCK": 7, "_BULK_MAX_SIZE": 0},
                               {"_DRAW_BUDGET": 10**9, "_BULK_MAX_SIZE": 0}):
                    blocked = trace(objective, variant, record_ks, **limits)
                    case = (n, variant, record_ks is None, limits)
                    for name in ("ks", "actions", "mean_utility",
                                 "utility_stderr", "ghat_sq"):
                        assert np.array_equal(getattr(single, name),
                                              getattr(blocked, name),
                                              equal_nan=True), (case, name)
                    assert (single.performed_min, single.performed_max) == (
                        blocked.performed_min, blocked.performed_max), case


@pytest.mark.parametrize("replications,n,chunk", [
    (1, 2, 1024), (1000, 2, 16), (10, 4, 409), (1000, 10, 1)])
def test_draw_budget_bounds_the_chunk_length(replications, n, chunk):
    assert dosp._draw_chunk(replications, n) == chunk


@pytest.mark.parametrize("variant", ["dosp", "dosp_incomplete"])
def test_one_objective_pass_per_step(monkeypatch, variant):
    # each step evaluates the objective once, at the performed action; the
    # recorded utilities of a chunk come from one call on its recorded rows,
    # and the final index adds one more
    calls = []
    original = QuadraticToy.local_utilities

    def counted(self, a, s):
        calls.append(np.shape(a))
        return original(self, a, s)

    monkeypatch.setattr(QuadraticToy, "local_utilities", counted)
    config = AlgoConfig(
        schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25),
        perturbation=PerturbationModel(amplitude=1.0),
        exchange=ExchangeModel(0.5) if variant == "dosp_incomplete" else None,
        variant=variant,
    )
    H = 40  # one chunk at R=3, n=2
    run(config, QuadraticToy(), horizon=H, seed=6, replications=3)
    assert calls == [(3, 2)] * H + [(H, 3, 2), (3, 2)]
    calls.clear()
    # only the first 10 steps recorded: still one deferred call, on those
    # rows, and none at the final index
    run(config, QuadraticToy(), horizon=H, seed=6, replications=3,
        record_ks=range(10))
    assert calls == [(3, 2)] * H + [(10, 3, 2)]
    calls.clear()
    # a chunk of 3 iterations (draw budget 3 * R * n * n): one deferred
    # call per chunk that holds recorded rows
    monkeypatch.setattr(dosp, "_DRAW_BUDGET", 36)
    run(config, QuadraticToy(), horizon=H, seed=6, replications=3,
        record_ks=[0, 1, 4, 9, 10, 11, H])
    assert calls.count((3, 2)) == H + 1
    assert [c for c in calls if len(c) == 3] == [(2, 3, 2), (1, 3, 2),
                                                 (3, 3, 2)]


class _WideToy(QuadraticToy):
    """The toy in a box that no float reaches; a_0 is still drawn on [0, 3]."""

    bounds = (-1e300, 1e300)

    def init_action(self, rng, batch_shape=()):
        return 3.0 * rng.random(tuple(batch_shape) + (2,))


@pytest.mark.parametrize("index_offset,chunk", [(0, None), (1, None), (0, 3), (1, 3)],
                         ids=["0", "1", "0-chunk3", "1-chunk3"])
def test_non_finite_iterate_raises(monkeypatch, index_offset, chunk):
    # beta0 = 50 drives the toy's iterates, in a box no float reaches, to
    # overflow to NaN within ten steps; the message names the chunk whose
    # steps produced it (``chunk`` iterations, by the draw budget of
    # 7 replications of 2 nodes, when set)
    if chunk is not None:
        monkeypatch.setattr(dosp, "_DRAW_BUDGET", chunk * 7 * 2 * 2)
    config = AlgoConfig(
        schedule=PowerLawSchedule(50.0, 0.75, 2.0, 0.25, index_offset=index_offset))
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"dosp run .* steps k=\d+\.\.\d+") as info:
        run(config, _WideToy(), 200, seed=2024, replications=7)
    first, last = map(int, re.search(r"k=(\d+)\.\.(\d+)", str(info.value)).groups())
    assert config.schedule.first_index <= first <= last < first + dosp._draw_chunk(7, 2)


def test_run_p1_bitwise_equals_complete():
    toy = QuadraticToy()
    base = _toy_config()
    from dataclasses import replace

    inc = replace(base, exchange=ExchangeModel(1.0), variant="dosp_incomplete")
    tc = run(base, toy, horizon=200, seed=13, replications=3)
    ti = run(inc, toy, horizon=200, seed=13, replications=3)
    assert np.array_equal(tc.actions, ti.actions)


# --- stacks of series ---------------------------------------------------------

def _assert_same_trace(got, want, case):
    # every attribute, the per-replication rows and their summaries, bit for bit
    assert isinstance(got, RunTrace) and vars(got).keys() == vars(want).keys(), case
    for name in vars(want):
        a, b = (np.asarray(getattr(t, name)) for t in (got, want))
        assert (a.shape, a.dtype) == (b.shape, b.dtype), (case, name)
        assert (np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes()), (case, name)


def _sweep_configs(ps, index_offset=1):
    sched = PowerLawSchedule(2.0, 0.75, 12.0, 0.25, index_offset=index_offset)
    return [AlgoConfig(schedule=sched, variant="dosp_incomplete",
                       exchange=ExchangeModel(p)) for p in ps]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(2, 10), replications=st.integers(1, 200),
       horizon=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       index_offset=st.integers(0, 1), noise=st.sampled_from((0.0, 0.3)),
       sparse=st.booleans())
def test_run_series_equals_one_run_per_config(data, n, replications, horizon,
                                              seed, index_offset, noise,
                                              sparse):
    # each series of a stack equals its own run() bitwise, whatever chunk
    # length the stack's P * R rows give (P * R * n * n crosses the draw
    # budget for the larger draws); the p = 1 series also equals the
    # complete-information run
    others = data.draw(st.lists(st.floats(0.01, 1.0), max_size=3))
    small = data.draw(st.sampled_from((0.01, 0.05)))
    ps = data.draw(st.permutations([1.0, small, *others]))
    objective = make_objective("power_pf", n_nodes=n, noise_variance=noise)
    configs = _sweep_configs(ps, index_offset)
    k0 = configs[0].schedule.first_index
    record_ks = None
    if sparse:
        record_ks = sorted(data.draw(st.sets(
            st.integers(k0, k0 + horizon), min_size=1, max_size=8)))
    traces = run_series(configs, objective, horizon, seed, replications,
                        record_ks=record_ks)
    assert len(traces) == len(configs)
    for config, trace in zip(configs, traces):
        want = run(config, objective, horizon, seed, replications,
                   record_ks=record_ks)
        _assert_same_trace(trace, want, config.exchange)
    complete = run(AlgoConfig(schedule=configs[0].schedule), objective,
                   horizon, seed, replications, record_ks=record_ks)
    _assert_same_trace(traces[ps.index(1.0)], complete, "p=1 vs dosp")


# the stackable series of a mixed stack: dosp, dosp_incomplete at three p
# (p = 1 gives full subsets) and the sine baseline
_MIXED_SERIES = ("dosp", 1.0, 0.5, 0.05, "sine")


def _mixed_config(series, sched, n, amplitude):
    if series == "dosp":
        return AlgoConfig(schedule=sched)
    if series == "sine":
        return AlgoConfig(schedule=sched, variant="sine_baseline",
                          sine=SineParams(DEFAULT_SINE_FREQUENCIES[:n],
                                          amplitude=amplitude))
    return AlgoConfig(schedule=sched, variant="dosp_incomplete",
                      exchange=ExchangeModel(series))


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       series=st.lists(st.sampled_from(_MIXED_SERIES), min_size=1,
                       max_size=len(_MIXED_SERIES), unique=True),
       model=st.sampled_from((("toy", 2), ("power_pf", 2), ("power_pf", 4))),
       replications=st.integers(1, 50), horizon=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1), index_offset=st.integers(0, 1),
       noise=st.sampled_from((0.0, 0.3)),
       amplitude=st.sampled_from((1.0, 1.5)), sparse=st.booleans())
def test_mixed_stack_equals_one_run_per_config(data, series, model,
                                               replications, horizon, seed,
                                               index_offset, noise, amplitude,
                                               sparse):
    # each series of a stack that mixes the perturbed variants equals its
    # own run() bitwise: the sine series take their own signal and, at
    # amplitude 1.5, a box of their own alpha3; next to an incomplete
    # series, the others take full subsets.  gamma0 = 2 empties the toy's
    # shrunken box for the first steps (gamma0 = 12 the power model's), so
    # the plain-box fallback is part of the runs
    kind, n = model
    objective = make_objective(kind, noise_variance=noise,
                               **({} if kind == "toy" else {"n_nodes": n}))
    sched = (PowerLawSchedule(0.5, 0.75, 2.0, 0.25, index_offset=index_offset)
             if kind == "toy" else
             PowerLawSchedule(2.5, 0.75, 12.0, 0.25, index_offset=index_offset))
    configs = [_mixed_config(s, sched, n, amplitude) for s in series]
    k0 = sched.first_index
    record_ks = None
    if sparse:
        record_ks = sorted(data.draw(st.sets(
            st.integers(k0, k0 + horizon), min_size=1, max_size=8)))
    traces = run_series(configs, objective, horizon, seed, replications,
                        record_ks=record_ks)
    assert len(traces) == len(configs)
    for name, config, trace in zip(series, configs, traces):
        want = run(config, objective, horizon, seed, replications,
                   record_ks=record_ks)
        _assert_same_trace(trace, want, (series, name))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), variant=st.sampled_from(VARIANTS),
       n=st.integers(2, 4), replications=st.integers(1, 40),
       horizon=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       index_offset=st.integers(0, 1), noise=st.sampled_from((0.0, 0.3)),
       sparse=st.booleans(), stacked=st.booleans())
def test_trace_prefix_equals_the_run_at_that_count(data, variant, n,
                                                   replications, horizon, seed,
                                                   index_offset, noise, sparse,
                                                   stacked):
    # the first R' rows of a run at R, alone or as a member of a stack,
    # are the run at R' attribute for attribute; a dosp trace's prefix serves
    # the p = 1 incomplete-information series, which is the same series
    objective = make_objective("power_pf", n_nodes=n, noise_variance=noise)
    sched = PowerLawSchedule(2.5, 0.75, 12.0, 0.25, index_offset=index_offset)
    config = AlgoConfig(
        schedule=sched, variant=variant,
        exchange=ExchangeModel(0.5) if variant == "dosp_incomplete" else None,
        sine=(SineParams(DEFAULT_SINE_FREQUENCIES[:n])
              if variant == "sine_baseline" else None))
    k0 = sched.first_index
    record_ks = None
    if sparse:
        record_ks = sorted(data.draw(st.sets(
            st.integers(k0, k0 + horizon), min_size=1, max_size=8)))
    if stacked and variant != "exact_gradient_baseline":
        other = _mixed_config(0.05, sched, n, 1.0)
        trace = run_series([other, config], objective, horizon, seed,
                           replications, record_ks=record_ks)[1]
    else:
        trace = run(config, objective, horizon, seed, replications,
                    record_ks=record_ks)
    fewer = data.draw(st.integers(1, replications))
    same = [config]
    if variant == "dosp":
        same.append(AlgoConfig(schedule=sched, variant="dosp_incomplete",
                               exchange=ExchangeModel(1.0)))
        assert _series_key(same[-1]) == config
    for want in same:
        _assert_same_trace(trace.prefix(fewer),
                           run(want, objective, horizon, seed, fewer,
                               record_ks=record_ks), (want.variant, fewer))
    for bad in (0, replications + 1, 1.5, True):
        with pytest.raises(ValueError, match=f"takes 1 to {replications}"):
            trace.prefix(bad)


def test_series_key_merges_only_the_p1_incomplete_series():
    sched = PowerLawSchedule(2.5, 0.75, 12.0, 0.25)
    dosp_config = AlgoConfig(schedule=sched)
    for p, merged in ((1.0, True), (1, True), (0.999, False)):
        config = AlgoConfig(schedule=sched, variant="dosp_incomplete",
                            exchange=ExchangeModel(p))
        assert (_series_key(config) == dosp_config) is merged, p
        assert (_series_key(config) == config) is not merged, p
    assert _series_key(dosp_config) is dosp_config


def test_stack_over_the_draw_budget_has_a_shorter_chunk():
    # R = 200 rows of 10 nodes: one run spans 3 iterations per chunk, a
    # stack of 4 series only 1; 7 steps are no multiple of 3
    n, R, ps = 10, 200, (1.0, 0.5, 0.25, 0.01)
    assert len(ps) * R * n * n > dosp._DRAW_BUDGET
    assert dosp._draw_chunk(R, n) == 3 and dosp._draw_chunk(len(ps) * R, n) == 1
    objective = make_objective("power_pf", n_nodes=n)
    configs = _sweep_configs(ps)
    for config, trace in zip(configs, run_series(configs, objective, 7, 3, R)):
        _assert_same_trace(trace, run(config, objective, 7, 3, R),
                           config.exchange)


def test_run_series_of_one_config_is_run():
    # both series of the stack see the shared rows repeated (the sine
    # signal, which has no replication axis, is not) and equal run()
    toy = QuadraticToy(noise_variance=0.2)
    for variant in VARIANTS:
        config = AlgoConfig(
            schedule=PowerLawSchedule(0.5, 0.75, 2.0, 0.25),
            exchange=ExchangeModel(0.5) if variant == "dosp_incomplete" else None,
            variant=variant,
            sine=(SineParams(DEFAULT_SINE_FREQUENCIES[:2])
                  if variant == "sine_baseline" else None))
        want = run(config, toy, 40, 8, 3)
        traces = run_series([config, config], toy, 40, 8, 3)
        assert len(traces) == 2
        for trace in traces:
            _assert_same_trace(trace, want, variant)


@pytest.mark.parametrize("field,other", [
    ("schedule", PowerLawSchedule(1.0, 0.75, 12.0, 0.25, index_offset=1)),
    ("variant", "exact_gradient_baseline"),
    ("perturbation", PerturbationModel(amplitude=0.5)),
])
def test_run_series_refuses_configs_that_differ_beyond_exchange(field, other):
    # the perturbed variants may differ in variant, exchange and sine (see
    # test_mixed_stack_equals_one_run_per_config); the exact-gradient
    # baseline stacks only with itself
    from dataclasses import replace

    base = _sweep_configs([0.5])[0]
    changed = (AlgoConfig(schedule=base.schedule, variant=other)
               if field == "variant" else replace(base, **{field: other}))
    objective = make_objective("power_pf", n_nodes=3)
    for stack in ([base, changed], [changed, base]):
        with pytest.raises(ValueError, match=f"differ in {field}"):
            run_series(stack, objective, 5, 1)
    with pytest.raises(ValueError, match="at least one config"):
        run_series([], objective, 5, 1)


def test_exact_gradient_run_converges_on_toy():
    toy = QuadraticToy()
    config = AlgoConfig(
        schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25),
        variant="exact_gradient_baseline",
    )
    trace = run(config, toy, horizon=2000, seed=3, replications=4)
    final = trace.actions[-1]
    assert np.max(np.abs(final - toy.optimum())) < 0.05


@pytest.mark.parametrize("R", [1, 2, 7, 1000])
def test_mean_stderr_is_bitwise_numpy(R):
    x = np.random.default_rng(R).normal(3.0, 2.0, (5, R))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning at R = 1
        mean, stderr = dosp._mean_stderr(x)
        # a single row (the final index of a run) gives the same bytes
        row_mean, row_stderr = dosp._mean_stderr(x[2])
    assert mean.tobytes() == x.mean(axis=-1).tobytes()
    # one replication has no spread to estimate: numpy's own NaN (0 / 0)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = x.std(axis=-1, ddof=1) / math.sqrt(R)
    assert stderr.tobytes() == want.tobytes()
    assert np.isnan(stderr).all() == (R == 1)
    assert (np.float64(row_mean).tobytes(), np.float64(row_stderr).tobytes()) \
        == (mean[2].tobytes(), stderr[2].tobytes())


def test_default_record_ks_structure():
    ks = default_record_ks(0, 10**5)
    assert ks[0] == 0 and ks[-1] == 10**5
    assert np.all(np.diff(ks) > 0)
    assert np.array_equal(ks[:1001], np.arange(1001))  # dense head
    assert len(ks) < 1200  # sparse log tail

    short = default_record_ks(1, 10)
    assert short[0] == 1 and short[-1] == 11


# --- golden traces --------------------------------------------------------------

_GOLDEN_OBJECTIVES = {
    # name: (objective kind, kwargs, beta0)
    "toy": ("toy", {}, 0.1),
    "toy_noise": ("toy", {"noise_variance": 0.3}, 0.1),
    "pf4_noise": ("power_pf", {"n_nodes": 4, "noise_variance": 0.5}, 0.02),
}

_GOLDEN = {
    ("dosp", "toy", 0, 1): "4f010af3bdaf4e3aa5e8021cb258fa74998d5079da167f46a7e276546d2739e5",
    ("dosp", "toy", 0, 7): "4aa77ffb252ebbf1440928908ab4061f6f02d3ac04017a0e59dee47a6727a25a",
    ("dosp", "toy", 1, 1): "f8969bb95dd42bb793f2e4b173817711f102bcdef96f7a8f34648bf46cb21a65",
    ("dosp", "toy", 1, 7): "098e25095dc5797e3ed27401e3a82b6292a117867c56882d963c8629e2c9bfba",
    ("dosp", "toy_noise", 0, 1): "12e252b4e80c638b20b38b9ed1025e9df34bda4538f09d353c7ba5227fc6704b",
    ("dosp", "toy_noise", 0, 7): "6ad1cf88602a38fc981f96b1ed3d6f90613f14420f3d93de544918931b4ad768",
    ("dosp", "toy_noise", 1, 1): "3eb83b7483e9b6638a2bff256467eaba931d8b77f0ecc2e803723a274ef9ead4",
    ("dosp", "toy_noise", 1, 7): "5a4b620f1fd131883a769c86f2e705168bb12db85f3c9c76dfc3ee02b3098e45",
    ("dosp", "pf4_noise", 0, 1): "43c6d1a28fc508bba6f508ab2a1b07675283331aaf44d382ab4dafec921c1f95",
    ("dosp", "pf4_noise", 0, 7): "53855af1f3fd9804b3b112476b31abacace58435814d7e7597a0c0738fdb7b4d",
    ("dosp", "pf4_noise", 1, 1): "590d0683be64685ec0fa2d90e38f6a3c22d6680d61a0b0666cbf5e17bd3a314c",
    ("dosp", "pf4_noise", 1, 7): "32a0361fefe34052e7a077982c21c8b97e52d4a8fcb3980f8f35387b5304d254",
    ("dosp_incomplete", "toy", 0, 1): "668072428b7f441a23240352ea4e2cab53be7edfe158f6f4e8caa633617e6bc9",
    ("dosp_incomplete", "toy", 0, 7): "11485df5d08f91fadaa9fa9e16995cf0a9b45c6606d9cf838194b5dc7f6fefa2",
    ("dosp_incomplete", "toy", 1, 1): "969e32d7df1f10bfcce3cec4dff98c10033be5bed861f677a62d6d1255b043dd",
    ("dosp_incomplete", "toy", 1, 7): "531eee007bf466009f3c994f6c636d59335092a6837701d1b18309a62b356dd4",
    ("dosp_incomplete", "toy_noise", 0, 1): "cccdb31ecf02860baf4d6f01d7bf2074ca6f2ff5699c655c8d51fb115031eb38",
    ("dosp_incomplete", "toy_noise", 0, 7): "b3b9b73e969c311b82e2f604d40b3db0c85807d39a3eab326330e33fcbda759a",
    ("dosp_incomplete", "toy_noise", 1, 1): "22cd8ee67fa1a4e10c4c10be49724e858eb234c7108187a40d67c5268ad3b660",
    ("dosp_incomplete", "toy_noise", 1, 7): "ca6ba7c61068fba81ebcb46ebc8bd47f0f471cb6e769c06e2bbfccb97bcafb35",
    ("dosp_incomplete", "pf4_noise", 0, 1): "e4949f6126c397a27d902f6d39ca9575c2a9ec110c9b943f3f22b77896d0d341",
    ("dosp_incomplete", "pf4_noise", 0, 7): "2b0b19e36d5aaf7794f611341fe608ae72ff807d1f9745d5b57fa03b8bf78dc7",
    ("dosp_incomplete", "pf4_noise", 1, 1): "3b34c73245e1b15948bd8f638339493518e4a4a7816f8c53c55d66e2a557f2a2",
    ("dosp_incomplete", "pf4_noise", 1, 7): "630dd1cf8be869e98d9729200197d92d8194d4bd1ceed89d1497b7d7c1196a0a",
    ("sine_baseline", "toy", 0, 1): "b20726392f84669fc6780ab2a53a881ade248600b335e41b95067415423fafa5",
    ("sine_baseline", "toy", 0, 7): "da1b7c9b83ed7aef57dd5420bd01fd1082835f47d13e957e40eddb7f43e1ec4c",
    ("sine_baseline", "toy", 1, 1): "38e9bf2fc3edffa6cd13df0b27bc69c18052cfefa33283c8eae7f1ccb6028872",
    ("sine_baseline", "toy", 1, 7): "31e36a7fb71ba69ff8e3ad086cdeae93fc8937bf01beb2a59cee38e858132bd7",
    ("sine_baseline", "toy_noise", 0, 1): "f5d16fd14b34ebedccd39f9f2d979b01c1a7a03fc13d7faa3cbc14e2792f27e5",
    ("sine_baseline", "toy_noise", 0, 7): "7fdd78e55018d345ee3d0a1d14922ee48165504fdde0eae5e3beb04493aea2a2",
    ("sine_baseline", "toy_noise", 1, 1): "c97aaa0aeafe042f4f03d3a812c329c41d9b14cbd477c2d8ca1c28970fee7b00",
    ("sine_baseline", "toy_noise", 1, 7): "db132a26c6ce96bccdb4d5080e64fa378842732390cfde0565ec2a049afcf220",
    ("sine_baseline", "pf4_noise", 0, 1): "153f892bdd02c510e9aa0e87bfd5fd71de8b0c398846ee6a915603033856e40f",
    ("sine_baseline", "pf4_noise", 0, 7): "10c22d9ee5371cbcfbb97c5481a7bbe198cdd6bfb3b276d80e0fccab570482ea",
    ("sine_baseline", "pf4_noise", 1, 1): "815d435549993f98b86c21e56b86e3fec90d69c3a6b0a690c47b44eb5ccefdd4",
    ("sine_baseline", "pf4_noise", 1, 7): "c0cd3e4279c8d338ad0b111dd7ddcbfad8eefb91e1d5f28a5574a632bd36c0e3",
    ("exact_gradient_baseline", "toy", 0, 1): "35a415ab66cbb1d494d94260f240aaead9d6c9a4b6dd314f3d3f017f68655cb2",
    ("exact_gradient_baseline", "toy", 0, 7): "1a794ba9083224d52ce614bc63b0444f9af579c1140255c2cda60aaaaf0ba9b0",
    ("exact_gradient_baseline", "toy", 1, 1): "a3d37197b9ab670dac95aeaaa1d1e5b3f430d879852b3728e01b727ec272e055",
    ("exact_gradient_baseline", "toy", 1, 7): "304abfa3afc6e6c118fed1f7e112073c3b0054930b7ec26c6c598241ed47a1a5",
    ("exact_gradient_baseline", "toy_noise", 0, 1): "35a415ab66cbb1d494d94260f240aaead9d6c9a4b6dd314f3d3f017f68655cb2",
    ("exact_gradient_baseline", "toy_noise", 0, 7): "1a794ba9083224d52ce614bc63b0444f9af579c1140255c2cda60aaaaf0ba9b0",
    ("exact_gradient_baseline", "toy_noise", 1, 1): "a3d37197b9ab670dac95aeaaa1d1e5b3f430d879852b3728e01b727ec272e055",
    ("exact_gradient_baseline", "toy_noise", 1, 7): "304abfa3afc6e6c118fed1f7e112073c3b0054930b7ec26c6c598241ed47a1a5",
    ("exact_gradient_baseline", "pf4_noise", 0, 1): "98480bbcceb324141d1dea8e42a61897e779157d3b0aff0de3e737480184dd50",
    ("exact_gradient_baseline", "pf4_noise", 0, 7): "4a35a0b1a98ee8350d75a620372180c17b8c1639b4d05e006572412e1c381754",
    ("exact_gradient_baseline", "pf4_noise", 1, 1): "39d978e26120551d4732ba6b51f5e3b51d6b05fd1992ceb5788fcb31ddc9aa1b",
    ("exact_gradient_baseline", "pf4_noise", 1, 7): "4013e9a584fe53057ced7243d2d9b074a7bf7877c6c4b8cd5edad62ee9e107d8",
}


def _trace_digest(variant, objective_name, index_offset, replications):
    kind, kwargs, beta0 = _GOLDEN_OBJECTIVES[objective_name]
    objective = make_objective(kind, **kwargs)
    # gamma0 = 2 empties the toy's shrunken box for the first steps, so the
    # plain-box fallback is part of every toy trace
    sched = PowerLawSchedule(beta0, 0.75, 2.0, 0.25, index_offset=index_offset)
    config = AlgoConfig(
        schedule=sched,
        perturbation=PerturbationModel(amplitude=1.0),
        exchange=ExchangeModel(0.5) if variant == "dosp_incomplete" else None,
        variant=variant,
        sine=(SineParams(DEFAULT_SINE_FREQUENCIES[: objective.n_nodes])
              if variant == "sine_baseline" else None),
    )
    k0 = sched.first_index
    pinned = [k0, k0 + 1, k0 + 3, k0 + 10, k0 + 25]
    # each pinned k is recorded with k + 1, whose row is k's successor (NaN
    # after the final index, where no step happens)
    trace = run(config, objective, 25, seed=2024, replications=replications,
                record_ks=pinned + [k + 1 for k in pinned[:-1]])
    rows = np.searchsorted(trace.ks, pinned)
    successors = np.full(trace.actions[rows].shape, np.nan)
    successors[:-1] = trace.actions[rows[:-1] + 1]
    h = hashlib.sha256()
    for arr in (trace.ks[rows].astype("<i8"), trace.actions[rows],
                trace.mean_utility[rows], trace.utility_stderr[rows],
                trace.ghat_sq[rows],
                np.array([trace.performed_min, trace.performed_max]),
                successors):
        h.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_trace_digests(case):
    """SHA-256 of fixed-seed ``run()`` traces, pinned bitwise.

    The digests assume numpy's Philox bit generator, its raw words (a mask
    entry is a 32-bit half of one, low half first, included iff below
    floor(p * 2**32)) and its ``random`` and ``standard_normal`` streams; a
    numpy release that changes any of these changes them too.  A trace of
    one replication records a NaN standard error.  Any other change to a
    digest means the trajectories changed.
    """
    assert _trace_digest(*case) == _GOLDEN[case]
