import hashlib
import math

import numpy as np
import pytest

from dospsim import dosp
from dospsim.dosp import (
    _INIT,
    _NOISE,
    _PHI,
    _STATE,
    _SUBSET,
    DEFAULT_SINE_FREQUENCIES,
    AlgoConfig,
    SineParams,
    _coefficients,
    _step,
    _Streams,
    default_record_ks,
    run,
)
from dospsim.exchange import ExchangeModel, incomplete_estimate, sample_masks
from dospsim.objectives import ObjectiveModel, QuadraticToy, make_objective
from dospsim.perturbation import PerturbationModel, sample_array
from dospsim.schedules import PowerLawSchedule


class _LinearStub(ObjectiveModel):
    """Deterministic objective for hand-computed step checks: u_i = a_i."""

    n_nodes = 2
    noise_variance = 0.0
    bounds = None
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


def test_effective_bounds_override():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    toy = QuadraticToy()
    assert AlgoConfig(schedule=sched).effective_bounds(toy) == (0.0, 3.0)
    assert AlgoConfig(schedule=sched, bounds=(0.0, 5.0)).effective_bounds(toy) == (0.0, 5.0)


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


# --- hand-checked single steps --------------------------------------------------


def _one_step(config, objective, seed, k, a, t=0.0):
    """Run the step kernel once at index k, with the run's schedule row."""
    coeffs = next(_coefficients(config, config.effective_bounds(objective), k, k + 1))
    return _step(config, objective, _Streams(seed), k, np.asarray(a, dtype=float),
                 t, coeffs, nominal_utility=True)


def test_sine_step_offset1_starts_at_phase_zero():
    # default phase: phi = sin(0) = 0 on the very first step, so the action
    # is unchanged while t advances by beta_0
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25, index_offset=1)
    config = AlgoConfig(
        schedule=sched,
        variant="sine_baseline",
        sine=SineParams(frequencies=(63.0, 70.0), amplitude=1.5),
    )
    out = _one_step(config, _LinearStub(), 0, 0, [1.0, 2.0])
    np.testing.assert_array_equal(out.new, [1.0, 2.0])
    assert out.t == 0.5
    np.testing.assert_array_equal(out.phi, [0.0, 0.0])
    np.testing.assert_array_equal(out.performed, [1.0, 2.0])  # phi = 0


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
    out = _one_step(config, _LinearStub(), 0, 1, a)
    phi = np.array([amp * math.sin(wi * beta0) for wi in w])
    ahat = a + gamma0 * phi
    ftil = ahat.sum()
    np.testing.assert_allclose(out.performed, ahat, rtol=1e-15)
    np.testing.assert_allclose(out.observed, ftil, rtol=1e-15)
    np.testing.assert_allclose(out.new, a + beta0 * phi * ftil, rtol=1e-15)
    assert out.t == pytest.approx(beta0)


def test_dosp_step_matches_scalar_recomputation():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    pert = PerturbationModel(amplitude=1.0)
    config = AlgoConfig(schedule=sched, perturbation=pert, bounds=(0.0, 3.0))
    toy = QuadraticToy()
    a = np.array([0.3, 2.7])
    out = _one_step(config, toy, 11, 0, a)
    # regenerate the same draws from fresh generators and redo the step by hand
    phi = sample_array(pert, (2,), _fresh(11, 0, _PHI))
    s = toy.sample_state(_fresh(11, 0, _STATE))
    ahat = np.clip(a + sched.gamma(0) * phi, 0.0, 3.0)
    ftil = toy.local_utilities(ahat, s).sum()
    cand = a + sched.beta(0) * phi * ftil
    margin = sched.gamma(1)
    lo, hi = 0.0 + margin, 3.0 - margin
    expect = np.clip(cand, lo, hi) if lo <= hi else np.clip(cand, 0.0, 3.0)
    np.testing.assert_array_equal(out.performed, ahat)
    assert out.observed == ftil
    np.testing.assert_array_equal(out.new, expect)


def test_incomplete_step_matches_scalar_estimator():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    pert = PerturbationModel(amplitude=1.0)
    exch = ExchangeModel(p=0.5)
    config = AlgoConfig(
        schedule=sched, perturbation=pert, exchange=exch, variant="dosp_incomplete"
    )
    toy = QuadraticToy()
    a = np.array([1.2, 0.4])
    out = _one_step(config, toy, 3, 0, a)
    phi = sample_array(pert, (2,), _fresh(3, 0, _PHI))
    s = toy.sample_state(_fresh(3, 0, _STATE))
    ahat = np.clip(a + sched.gamma(0) * phi, 0.0, 3.0)
    u = toy.local_utilities(ahat, s)
    mask = sample_masks(exch, 2, _fresh(3, 0, _SUBSET))
    est = np.array(
        [incomplete_estimate(i, u, np.flatnonzero(mask[i])) for i in range(2)]
    )
    np.testing.assert_allclose(out.observed, est, rtol=1e-15)
    cand = a + sched.beta(0) * phi * est
    margin = sched.gamma(1)
    np.testing.assert_allclose(
        out.new, np.clip(cand, margin, 3.0 - margin), rtol=1e-15
    )


def test_incomplete_p1_step_bitwise_equals_complete():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    config_c = AlgoConfig(schedule=sched)
    config_i = AlgoConfig(
        schedule=sched, exchange=ExchangeModel(1.0), variant="dosp_incomplete"
    )
    toy = QuadraticToy()
    a = np.array([0.7, 1.9])
    out_c = _one_step(config_c, toy, 21, 0, a)
    out_i = _one_step(config_i, toy, 21, 0, a)
    assert np.array_equal(out_c.new, out_i.new)


def test_exact_gradient_step():
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    config = AlgoConfig(schedule=sched, variant="exact_gradient_baseline")
    out = _one_step(config, _LinearStub(), 0, 0, [1.0, 2.0])
    np.testing.assert_array_equal(out.new, [1.5, 2.5])  # a + beta0 * ones
    assert out.utility == 3.0  # f at the nominal action


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
    trace = run(_toy_config(), toy, horizon=50, seed=1, replications=2,
                record_successors=True)
    assert trace.ks[0] == 0 and trace.ks[-1] == 50
    assert trace.actions.shape == (len(trace.ks), 2, 2)
    assert np.isnan(trace.ghat_sq[-1])  # no step happens at the final index
    assert np.all(np.isfinite(trace.ghat_sq[:-1]))
    assert np.all(np.isfinite(trace.mean_utility))
    # successor of record j equals the nominal action recorded at k+1
    for j, k in enumerate(trace.ks[:-1]):
        jn = np.flatnonzero(trace.ks == k + 1)
        if jn.size:
            assert np.array_equal(trace.successor_actions[j], trace.actions[jn[0]])


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


def test_schedule_blocks_do_not_change_the_trace(monkeypatch):
    # the step sizes and boxes are evaluated in blocks; block edges falling
    # inside the horizon leave every recorded value bitwise unchanged
    toy = QuadraticToy(noise_variance=0.2)
    config = AlgoConfig(
        schedule=PowerLawSchedule(0.5, 0.75, 3.0, 0.25, index_offset=0),
        perturbation=PerturbationModel(amplitude=1.0),
    )
    whole = run(config, toy, horizon=50, seed=4, replications=3,
                record_successors=True)
    monkeypatch.setattr(dosp, "_BLOCK", 7)
    blocked = run(config, toy, horizon=50, seed=4, replications=3,
                  record_successors=True)
    for name in ("actions", "mean_utility", "utility_stderr", "ghat_sq",
                 "successor_actions"):
        assert np.array_equal(getattr(whole, name), getattr(blocked, name),
                              equal_nan=True), name
    assert (whole.performed_min, whole.performed_max) == (
        blocked.performed_min, blocked.performed_max)


@pytest.mark.parametrize("variant", ["dosp", "dosp_incomplete"])
def test_one_objective_pass_per_step(monkeypatch, variant):
    # a recorded step evaluates the observation and the nominal utility in
    # one pass; the final index adds one more
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
    H = 40
    run(config, QuadraticToy(), horizon=H, seed=6, replications=3)
    assert len(calls) == H + 1
    assert calls.count((2, 3, 2)) == H  # fused: observed and nominal stacked
    calls.clear()
    # only the first 10 steps recorded: the other 30 make one plain call each
    run(config, QuadraticToy(), horizon=H, seed=6, replications=3,
        record_ks=range(10))
    assert len(calls) == H
    assert calls.count((3, 2)) == H - 10


@pytest.mark.parametrize("index_offset", [0, 1])
def test_non_finite_iterate_raises(index_offset):
    # gamma0 = 2 and beta0 = 0.02 drive the unbounded sum-rate log-powers to
    # overflow within a few dozen steps
    config = AlgoConfig(
        schedule=PowerLawSchedule(0.02, 0.75, 2.0, 0.25, index_offset=index_offset))
    objective = make_objective("power_sumrate", n_nodes=3)
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"dosp run .* steps k=\d+\.\.\d+"):
        run(config, objective, 200, seed=2024, replications=7)


def test_run_p1_bitwise_equals_complete():
    toy = QuadraticToy()
    base = _toy_config()
    from dataclasses import replace

    inc = replace(base, exchange=ExchangeModel(1.0), variant="dosp_incomplete")
    tc = run(base, toy, horizon=200, seed=13, replications=3)
    ti = run(inc, toy, horizon=200, seed=13, replications=3)
    assert np.array_equal(tc.actions, ti.actions)


def test_exact_gradient_run_converges_on_toy():
    toy = QuadraticToy()
    config = AlgoConfig(
        schedule=PowerLawSchedule(0.5, 0.75, 1.0, 0.25),
        variant="exact_gradient_baseline",
    )
    trace = run(config, toy, horizon=2000, seed=3, replications=4)
    final = trace.actions[-1]
    assert np.max(np.abs(final - toy.optimum())) < 0.05


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
    # name: (objective kind, kwargs, beta0 small enough to keep the
    # unbounded sum-rate iterates finite over the short horizon)
    "toy": ("toy", {}, 0.1),
    "toy_noise": ("toy", {"noise_variance": 0.3}, 0.1),
    "pf4_noise": ("power_pf", {"n_nodes": 4, "noise_variance": 0.5}, 0.02),
    "sumrate3": ("power_sumrate", {"n_nodes": 3}, 0.005),
}

_GOLDEN = {
    ("dosp", "toy", 0, 1): "90f8d9e78e0b6b7696b4c50658ee21e791bcb715b51eaa15129163bc2e515fc0",
    ("dosp", "toy", 0, 7): "4aa77ffb252ebbf1440928908ab4061f6f02d3ac04017a0e59dee47a6727a25a",
    ("dosp", "toy", 1, 1): "052341ed564490d1c92b5bf9dbf4f13fd97669d3fda29d0a2e4f86766d7e37ee",
    ("dosp", "toy", 1, 7): "098e25095dc5797e3ed27401e3a82b6292a117867c56882d963c8629e2c9bfba",
    ("dosp", "toy_noise", 0, 1): "dc7a48aeaeed871dc57002cea8a06ecfec6461d0df50505695a1af0d2e67021d",
    ("dosp", "toy_noise", 0, 7): "6ad1cf88602a38fc981f96b1ed3d6f90613f14420f3d93de544918931b4ad768",
    ("dosp", "toy_noise", 1, 1): "c11d8a0b0a574bf03eff5dd69cec9f0ecc2b78a6421c9f8c27ac6d46bec9c519",
    ("dosp", "toy_noise", 1, 7): "5a4b620f1fd131883a769c86f2e705168bb12db85f3c9c76dfc3ee02b3098e45",
    ("dosp", "pf4_noise", 0, 1): "ad3233ac8274e2bba88697a4340be56dea349c71a7bac07897bde7914f763e32",
    ("dosp", "pf4_noise", 0, 7): "53855af1f3fd9804b3b112476b31abacace58435814d7e7597a0c0738fdb7b4d",
    ("dosp", "pf4_noise", 1, 1): "e15f2e0628736f32ba1d45c3d0a382daf1c8c4f9e834446909e802f71e60b5e1",
    ("dosp", "pf4_noise", 1, 7): "32a0361fefe34052e7a077982c21c8b97e52d4a8fcb3980f8f35387b5304d254",
    ("dosp", "sumrate3", 0, 1): "a07fd97b220dcc654a4a4ff8996f09f778c9e350f7d3dffb17d7b72463ee64ec",
    ("dosp", "sumrate3", 0, 7): "9bc202629f223bb726e9296db846ee6297db4f6cc2145c7fce9fcb56da27c33c",
    ("dosp", "sumrate3", 1, 1): "755a999013b3250acf80699dc66651766484d3bb961534f0bb29ba07db6d8b78",
    ("dosp", "sumrate3", 1, 7): "35bf3bc9a58c2567f52b84f044394558e3b0e3e577bf70baf94b556d9114e088",
    ("dosp_incomplete", "toy", 0, 1): "2d6e8b257fb6d02748a08e420e2013bc5c848704afacf3bccee6b0ff4bf9d48d",
    ("dosp_incomplete", "toy", 0, 7): "9d0bec0b76a6882a8890c745c6e1fef4629beaaf73e634eb64348547d5dc7314",
    ("dosp_incomplete", "toy", 1, 1): "6f04df875c78e1efcdd5c545c3f5858960ef96aa2ae025da3882f82e88bafe31",
    ("dosp_incomplete", "toy", 1, 7): "d6675c0f9fa0c3bdec85df8227a40c50f9ddff60cc1382b97c43b8572044e96e",
    ("dosp_incomplete", "toy_noise", 0, 1): "d8f81355c6eb8520462d2e6da9b7f6bf99beab03fc4e339a8c8bab63d169a878",
    ("dosp_incomplete", "toy_noise", 0, 7): "72dcbc361c2def8dc834e46f7f3f7b35ebb0e7b3286c4e2ca7f439ab8496d3b4",
    ("dosp_incomplete", "toy_noise", 1, 1): "29eecbf30f56efeed8b20c977065162feb8864228b4378fac503790c47d01117",
    ("dosp_incomplete", "toy_noise", 1, 7): "168d615a7f46d2e112e2ef6beb5cf58ffe039bfaecc872a4a06686a0b372527e",
    ("dosp_incomplete", "pf4_noise", 0, 1): "9701e4a08b69b7037dfe36a98af623c582bf3bf3af550b0c4a10d2ee406f5252",
    ("dosp_incomplete", "pf4_noise", 0, 7): "fdfba9f1e660f867e400fd18ee351a8fc6d00dc7406a4c17f0dc9bc2ff6bab59",
    ("dosp_incomplete", "pf4_noise", 1, 1): "afa42d428bb5f748a96a0d672912cdd7af4dafdcb9f8771522b11b10fce324cc",
    ("dosp_incomplete", "pf4_noise", 1, 7): "79edd4a01e602431dbe56e0e38ff3f842b7e9e7171441c9b8ed0b5b26bde9771",
    ("dosp_incomplete", "sumrate3", 0, 1): "d66ff048855c8da0eee3f6c6e35a651a85beecf396be8ec186cc806174f9f3b1",
    ("dosp_incomplete", "sumrate3", 0, 7): "78e132d6c87dbe092f27899e5e82641f94c14f5677cde34c7c59a35af2ba1b9f",
    ("dosp_incomplete", "sumrate3", 1, 1): "83ac2d9933be0d3d4f009a8cff6fa655bc418285aaca5cfa839f07452e13aec6",
    ("dosp_incomplete", "sumrate3", 1, 7): "47f5ab81afb1b6780aa4b04c49f3c1ceb98cbf6de7de1dbf83c60779b0357ed1",
    ("sine_baseline", "toy", 0, 1): "329cc1527611b35d66d13c979c6195ab2ec890e6e2ffbd04fbcce743f91a5d76",
    ("sine_baseline", "toy", 0, 7): "bee3e642f8ae6884bded111b336f69d5f554afaa1511423a48acb4202f200528",
    ("sine_baseline", "toy", 1, 1): "0c2a405c0551b3782a10c5dc776266f35398a5180f90a0d9a7b7d59d40cb9eb8",
    ("sine_baseline", "toy", 1, 7): "42cfc7eab17b79f5cd12fd8d671c31e3473b81e800c3d3724eb9d8297b9d156d",
    ("sine_baseline", "toy_noise", 0, 1): "fcf909a8d35a96fa8366f5ed46f976a4b9f07599209460044581ca0565ce2b60",
    ("sine_baseline", "toy_noise", 0, 7): "a9145ddd70f5644402d03a24739ede752d2227ba97ab33726248a4a94a4594b9",
    ("sine_baseline", "toy_noise", 1, 1): "f2038681293cb98a6936c2201e320dc8a673751c7d9ced7cad8d7d01492f6792",
    ("sine_baseline", "toy_noise", 1, 7): "3a7662b84227f9d1210fde8e7af3561952c1f39e2426789cc31d64306efcbe62",
    ("sine_baseline", "pf4_noise", 0, 1): "d04cdf05caab92dbf13e0fea8a807ce5fcc7cd616fcf000a5771defd17e98ed6",
    ("sine_baseline", "pf4_noise", 0, 7): "cb529f31626dba97b2c8164dced9cded40903e0bc84b2a6ba30c218a099f6078",
    ("sine_baseline", "pf4_noise", 1, 1): "aa93cf9917e31af56f64f979f60a1fb786dd8b4dfa71b976d70ed188581ecc89",
    ("sine_baseline", "pf4_noise", 1, 7): "b292f6c17b068972f0912adb2715b996a5fcf6373db89b492598560400b9f118",
    ("sine_baseline", "sumrate3", 0, 1): "f6f78d833336c04f068057a7b0a7b0f1b0878de0aa81b93649294fa7c3fae8a3",
    ("sine_baseline", "sumrate3", 0, 7): "563043dee78034e73d35a2f2540a1ef1f550a41a8a9e885a3b2363c2a8a2adcf",
    ("sine_baseline", "sumrate3", 1, 1): "330a02315156ec75500dc8728cb24587fc39e131d56291f439bbd9e2708cc4e9",
    ("sine_baseline", "sumrate3", 1, 7): "0c98841aa5c6d6c15f71af9ac2046d30a7d5464d88473833200c7fd88152a896",
    ("exact_gradient_baseline", "toy", 0, 1): "71191b3fa0d4e93c0a2b7d32683f0b25f763d7702563e1c5b1672d43c738f3b0",
    ("exact_gradient_baseline", "toy", 0, 7): "1a794ba9083224d52ce614bc63b0444f9af579c1140255c2cda60aaaaf0ba9b0",
    ("exact_gradient_baseline", "toy", 1, 1): "2bec0a186a377d4bf11d2dda2498cd7147894a1c249f03120ebcb15902b77a62",
    ("exact_gradient_baseline", "toy", 1, 7): "304abfa3afc6e6c118fed1f7e112073c3b0054930b7ec26c6c598241ed47a1a5",
    ("exact_gradient_baseline", "toy_noise", 0, 1): "71191b3fa0d4e93c0a2b7d32683f0b25f763d7702563e1c5b1672d43c738f3b0",
    ("exact_gradient_baseline", "toy_noise", 0, 7): "1a794ba9083224d52ce614bc63b0444f9af579c1140255c2cda60aaaaf0ba9b0",
    ("exact_gradient_baseline", "toy_noise", 1, 1): "2bec0a186a377d4bf11d2dda2498cd7147894a1c249f03120ebcb15902b77a62",
    ("exact_gradient_baseline", "toy_noise", 1, 7): "304abfa3afc6e6c118fed1f7e112073c3b0054930b7ec26c6c598241ed47a1a5",
    ("exact_gradient_baseline", "pf4_noise", 0, 1): "0521fd0886a6c87f1cd9d28ae2bc3257e6a56c65465a5514a19c7258504e4fe6",
    ("exact_gradient_baseline", "pf4_noise", 0, 7): "4a35a0b1a98ee8350d75a620372180c17b8c1639b4d05e006572412e1c381754",
    ("exact_gradient_baseline", "pf4_noise", 1, 1): "2326c306d2e8f4bd94cb6d55b4963a37a2c9218ad434562ae0cdec826ea729e0",
    ("exact_gradient_baseline", "pf4_noise", 1, 7): "4013e9a584fe53057ced7243d2d9b074a7bf7877c6c4b8cd5edad62ee9e107d8",
    ("exact_gradient_baseline", "sumrate3", 0, 1): "ba70ba6fb9952008dc75ea8815f8a3799ab59bcd0b805a117621739301e4561f",
    ("exact_gradient_baseline", "sumrate3", 0, 7): "0ac29fc6ee5b9dc2c8102adfc339d2f923c7297366292d745d2642c676d17d65",
    ("exact_gradient_baseline", "sumrate3", 1, 1): "e2d950bd8d1294f1e68a38ddb9dd5908a91619fcf52aa4750fe0e4cac7eeddbf",
    ("exact_gradient_baseline", "sumrate3", 1, 7): "c267cd42a684248f58e52f57eb4bfb7d2120ea77e387dfcd62cead571709af8a",
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
    trace = run(config, objective, 25, seed=2024, replications=replications,
                record_ks=[k0, k0 + 1, k0 + 3, k0 + 10, k0 + 25],
                record_successors=True)
    h = hashlib.sha256()
    for arr in (trace.ks.astype("<i8"), trace.actions, trace.mean_utility,
                trace.utility_stderr, trace.ghat_sq,
                np.array([trace.performed_min, trace.performed_max]),
                trace.successor_actions):
        h.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_trace_digests(case):
    """SHA-256 of fixed-seed ``run()`` traces, pinned bitwise.

    The digests assume numpy's Philox bit generator and its ``random`` and
    ``standard_normal`` streams; a numpy release that changes either changes
    them too.  Any other change to a digest means the trajectories changed.
    """
    assert _trace_digest(*case) == _GOLDEN[case]
