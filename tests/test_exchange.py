import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dospsim.exchange import (
    ExchangeModel,
    incomplete_estimate,
    lemma3_enumeration_oracle,
    q_nonempty,
    sample_masks,
    sample_subsets,
    subset_estimates,
)


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
    assert q_nonempty(ExchangeModel(0.5), 4) == (0.875, 0.9375)
    q_d, q_p = q_nonempty(ExchangeModel(1.0), 3)
    assert q_d == 1.0 and q_p == 1.0
    with pytest.raises(ValueError):
        q_nonempty(ExchangeModel(0.5), 1)


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
    masks = sample_masks(model, n, rng, (draws,))
    for r in range(draws):
        vals[r] = incomplete_estimate(0, u, np.flatnonzero(masks[r, 0]))
    q = 1.0 - 0.6 ** (n - 1)
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - q * u.sum()) < 4 * se


def test_mask_shape_diagonal_and_frequency():
    model = ExchangeModel(0.3)
    rng = np.random.default_rng(5)
    m = sample_masks(model, 4, rng, (50_000,))
    assert m.shape == (50_000, 4, 4)
    assert not np.einsum("rii->ri", m).any()
    off = m.sum() / (50_000 * 12)
    assert off == pytest.approx(0.3, abs=0.01)


def test_sample_subsets_consistency():
    rng = np.random.default_rng(8)
    subs = sample_subsets(ExchangeModel(1.0), 3, rng)
    assert [list(s) for s in subs] == [[1, 2], [0, 2], [0, 1]]
    with pytest.raises(ValueError):
        sample_masks(ExchangeModel(0.5), 1, rng)


def test_invalid_p():
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
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
