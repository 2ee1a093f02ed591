import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dospsim import exchange
from dospsim.cli import run_experiment
from dospsim.dosp import _FULL
from dospsim.exchange import (
    ExchangeModel,
    _estimate,
    _mask_terms,
    lemma3_enumeration_oracle,
    q_nonempty,
    sample_masks,
    subset_estimates,
)


def incomplete_estimate(i: int, utilities, subset) -> float:
    """The scalar oracle of the engine's estimator: node i's scaled-sum
    estimate from the utilities of its receive ``subset``, written out for
    one node and one subset."""
    utilities = np.asarray(utilities, dtype=float)
    subset = np.asarray(subset, dtype=int)
    if subset.size and np.any(subset == i):
        raise ValueError("node's own index must not appear in its subset")
    if subset.size == 0:
        return 0.0
    n = utilities.shape[-1]
    return float(utilities[i] + (n - 1) / subset.size * utilities[subset].sum())


def test_estimate_examples():
    u = [1.0, 2.0, 3.0, 4.0]
    # node 0 hears {1, 2}: 1 + (3/2)*(2+3) = 8.5
    assert incomplete_estimate(0, u, [1, 2]) == 8.5
    assert incomplete_estimate(0, u, []) == 0.0
    # full subset reproduces the plain sum
    assert incomplete_estimate(0, u, [1, 2, 3]) == 10.0


def test_estimate_rejects_own_index():
    with pytest.raises(ValueError):
        incomplete_estimate(1, [1.0, 2.0, 3.0], [1, 2])


def test_q_values():
    assert q_nonempty(ExchangeModel(0.5), 4) == 0.875
    assert q_nonempty(ExchangeModel(1.0), 3) == 1.0
    with pytest.raises(ValueError):
        q_nonempty(ExchangeModel(0.5), 1)


def test_lemma3_check_fails_under_a_mutated_subset_scale(monkeypatch, tmp_path):
    # lemma3_check enumerates through the engine's estimator, so a scale of
    # n / |I| in place of (n - 1) / |I| fails its record (7.33 against the
    # 1e-12 rule at the default size and seed 1); it used to check a scalar
    # copy of the estimator that the mutant left alone
    def mutant(mask):
        weights, scale, full, empty = _mask_terms(mask)
        n = mask.shape[-1]
        return weights, scale * n / (n - 1), full, empty

    record, = run_experiment("lemma3_check", tmp_path / "plain", seed=1,
                             overrides={"fuzz": 5})
    assert record.status == "pass"
    monkeypatch.setattr(exchange, "_mask_terms", mutant)
    record, = run_experiment("lemma3_check", tmp_path / "mutant", seed=1,
                             overrides={"fuzz": 5})
    assert record.status == "fail" and record.measured > 1.0


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.0])
def test_enumeration_matches_closed_form(n, p):
    rng = np.random.default_rng(n * 31 + int(p * 10))
    u = rng.normal(size=n)
    q = 1.0 - (1.0 - p) ** (n - 1)
    for i in range(n):
        got = lemma3_enumeration_oracle(i, u, p)
        assert got == pytest.approx(q * u.sum(), abs=1e-12)


def test_conditional_mean_given_subset_size():
    # conditioned on |I_i| = m >= 1, the estimate is exactly unbiased for the
    # sum when u_j are exchangeable; check the deterministic identity instead:
    # averaging over all subsets of a fixed size m equals u_i + (n-1)*mean(others)
    u = np.array([2.0, -1.0, 0.5, 3.0])
    from itertools import combinations

    others = [1, 2, 3]
    for m in (1, 2, 3):
        subs = list(combinations(others, m))
        avg = np.mean([incomplete_estimate(0, u, list(s)) for s in subs])
        want = u[0] + 3 * np.mean(u[others])
        assert avg == pytest.approx(want, abs=1e-12)


def test_monte_carlo_mean_matches_scaled_sum():
    model = ExchangeModel(0.4)
    n = 5
    u = np.array([1.0, 2.0, -0.5, 0.7, 3.0])
    rng = np.random.default_rng(12)
    draws = 200_000
    vals = np.empty(draws)
    masks = sample_masks((model,), n, rng, (draws,))
    for r in range(draws):
        vals[r] = incomplete_estimate(0, u, np.flatnonzero(masks[r, 0]))
    q = 1.0 - 0.6 ** (n - 1)
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - q * u.sum()) < 4 * se


def test_mask_shape_diagonal_and_frequency():
    model = ExchangeModel(0.3)
    rng = np.random.default_rng(5)
    m = sample_masks((model,), 4, rng, (50_000,))
    assert m.shape == (50_000, 4, 4)
    assert not np.einsum("rii->ri", m).any()
    off = m.sum() / (50_000 * 12)
    assert off == pytest.approx(0.3, abs=0.01)
    # p = 1 fills every off-diagonal entry
    full = sample_masks((ExchangeModel(1.0),), 3, rng, (1,))[0]
    assert np.array_equal(full, ~np.eye(3, dtype=bool))
    with pytest.raises(ValueError):
        sample_masks((ExchangeModel(0.5),), 1, rng, (1,))


def test_masks_of_several_models_share_their_uniforms():
    # a sequence of models thresholds one draw at each p: model m's rows
    # m * R ... (m + 1) * R - 1 of the last batch axis equal its own draw
    # from the same stream
    models = (ExchangeModel(1.0), ExchangeModel(0.6), ExchangeModel(0.05))
    stacked = sample_masks(models, 5, np.random.default_rng(3), (7, 2))
    assert stacked.shape == (7, 3 * 2, 5, 5)
    for m, model in enumerate(models):
        own = sample_masks((model,), 5, np.random.default_rng(3), (7, 2))
        assert np.array_equal(stacked[:, 2 * m:2 * (m + 1)], own)


@pytest.mark.parametrize("n", [2.5, 2.0, 1, True, "3"], ids=repr)
def test_exchange_helpers_refuse_a_node_count_that_is_no_integer_from_2(n):
    # 2.5 used to give q = 0.646 and a bare TypeError from sample_masks
    match = re.escape(f"n must be an integer >= 2, got {n!r}")
    with pytest.raises(ValueError, match=match):
        q_nonempty(ExchangeModel(0.5), n)
    with pytest.raises(ValueError, match=match):
        sample_masks((ExchangeModel(0.5),), n, np.random.default_rng(0), (1,))


@pytest.mark.parametrize("i", [5, 3, -1, 1.5, True], ids=repr)
def test_enumeration_oracle_refuses_an_index_outside_the_nodes(i):
    # 5 used to raise a bare IndexError, -1 to enumerate for the last node
    with pytest.raises(ValueError, match=re.escape(
            f"i must be an integer in [0, 3), got {i!r}")):
        lemma3_enumeration_oracle(i, [1.0, 2.0, 3.0], 0.5)


def test_invalid_p():
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            ExchangeModel(p)
    # the enumeration oracle takes p in [0, 1]; for u = 1 it used to return
    # 2.25 at p = 1.5 and -3.75 at p = -0.5
    for p in (1.5, -0.5, float("nan"), 10**400):
        with pytest.raises(ValueError, match=re.escape(
                f"p must be finite and in [0, 1], got {p!r}")):
            lemma3_enumeration_oracle(0, np.ones(3), p)
    assert lemma3_enumeration_oracle(0, np.ones(3), 0.0) == 0.0
    assert lemma3_enumeration_oracle(0, np.ones(3), 1.0) == 3.0


class _Words:
    """A stand-in generator whose 32-bit draw is the given words."""

    def __init__(self, words):
        self.words = np.asarray(words, np.uint32)

    def integers(self, low, high, size, dtype):
        assert (low, high, np.dtype(dtype)) == (0, 2**32, np.uint32)
        return self.words.reshape(size)


def test_p_is_thresholded_at_its_32_bit_floor_and_refused_below_2_to_the_minus_32():
    # an entry is included iff its word is below floor(p * 2**32): at
    # p = 2**-32 only the word 0, at p = 1 every word, 2**32 - 1 too
    top = 2**32 - 1
    words = [[[top, 0], [1, top]],
             [[0, 2**31 - 1], [2**31, 0]],
             [[5, top], [top - 1, 5]]]
    want = {2.0**-32: [[[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            0.5: [[[0, 1], [1, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]],
            1.0: [[[0, 1], [1, 0]], [[0, 1], [1, 0]], [[0, 1], [1, 0]]]}
    for p, mask in want.items():
        got = sample_masks((ExchangeModel(p),), 2, _Words(words), (3,))
        assert np.array_equal(got, np.array(mask, bool)), p
    # below 2**-32 the threshold is 0 and no pair would ever be included
    for p in (2.0**-33, np.nextafter(2.0**-32, 0.0), 1e-300):
        with pytest.raises(ValueError, match=r"at least 2\*\*-32"):
            ExchangeModel(p)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.floats(0.05, 1.0),
    st.integers(0, 10**6),
)
def test_enumeration_oracle_property(n, p, seed):
    u = np.random.default_rng(seed).normal(size=n)
    i = seed % n
    q = 1.0 - (1.0 - p) ** (n - 1)
    assert lemma3_enumeration_oracle(i, u, p) == pytest.approx(
        q * u.sum(), abs=1e-10
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_subset_estimates_match_scalar_estimator(n, p, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(50, n))
    mask = rng.random((50, n, n)) < p
    np.einsum("...ii->...i", mask)[...] = False
    # make sure empty and full subsets both appear
    mask[0] = False
    mask[1] = ~np.eye(n, dtype=bool)
    est = subset_estimates(u, mask)
    for r in range(50):
        for i in range(n):
            expect = incomplete_estimate(i, u[r], np.flatnonzero(mask[r, i]))
            assert est[r, i] == pytest.approx(expect, rel=1e-12, abs=1e-12)
    assert np.all(est[0] == 0.0)
    assert np.array_equal(est[1], np.full(n, u[1].sum()))
    # without a mask (complete information) every node gets the plain sum
    assert np.array_equal(subset_estimates(u, None), u.sum(axis=-1, keepdims=True))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 10), st.floats(0.05, 1.0), st.integers(1, 6),
       st.integers(1, 5), st.integers(0, 10**6))
def test_chunk_mask_terms_applied_per_row_equal_subset_estimates(n, p, count,
                                                                 R, seed):
    # the terms a run computes once for a chunk of masks, applied to one
    # step's row, give the bytes of subset_estimates on that row's mask; the
    # stack's _FULL rows (a series without an exchange model) get the sum
    rng = np.random.default_rng(seed)
    masks = sample_masks([ExchangeModel(p), _FULL], n, rng, (count, R))
    masks[:, 0, 0] = False                # node 0 of row 0 hears no one
    masks[:, 0, 1] = np.arange(n) != 1    # node 1 of row 0 hears everyone
    u = rng.normal(size=(count, 2 * R, n)) * rng.choice([1e-3, 1.0, 1e3], n)
    for c, terms in enumerate(zip(*_mask_terms(masks))):
        est = _estimate(u[c], terms)
        assert est.tobytes() == subset_estimates(u[c], masks[c]).tobytes()
        total = np.add.reduce(u[c], axis=-1, keepdims=True)
        assert est[0, 0] == 0.0 and est[0, 1] == total[0, 0]
        assert np.array_equal(est[R:], np.broadcast_to(total[R:], (R, n)))
    assert _estimate(u, None).tobytes() == subset_estimates(u, None).tobytes()
