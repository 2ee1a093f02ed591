"""Random utility-exchange layer for incomplete-information runs.

Each iteration, node i learns node j's observed utility with probability p,
independently across ordered pairs (i, j), j != i, and across iterations.
From the received subset I_i it forms the unbiased-up-to-scaling estimate

    est_i = u_i + ((n - 1) / |I_i|) * sum_{j in I_i} u_j      if I_i nonempty
    est_i = 0                                                 if I_i empty

whose expectation over the subset draw is q * sum_j u_j with
q = 1 - (1 - p)^(n-1), the probability that I_i is nonempty.  (Some sources
print the exponent as n; the exact enumeration oracle below settles it at
n - 1.)

A run computes the estimator's terms that depend only on the mask once per
chunk of masks and applies them step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .schedules import _real

__all__ = [
    "ExchangeModel",
    "sample_masks",
    "incomplete_estimate",
    "subset_estimates",
    "q_nonempty",
    "lemma3_enumeration_oracle",
]


_WORDS32 = 1 << 32  # the values a mask entry's 32-bit word takes


@dataclass(frozen=True)
class ExchangeModel:
    """Per-pair inclusion probability p in [2**-32, 1].

    Masks include a pair with probability floor(p * 2**32) / 2**32
    (:func:`sample_masks`), so a p below 2**-32 would never include one.
    """

    p: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < _real("p", self.p) <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.p * _WORDS32 < 1:
            raise ValueError(f"p must be at least 2**-32, the resolution of "
                             f"the 32-bit mask draw, got {self.p}")


def sample_masks(models, n: int, rng: np.random.Generator, batch_shape):
    """Boolean masks mask[..., i, j], True where j's utility reached node i
    (never on the diagonal), for a sequence of exchange models.

    One draw of 32-bit words of shape (*batch_shape, n, n),
    ``rng.integers(0, 2**32, shape, np.uint32)`` (for a Philox generator,
    entry e is half e % 2 of raw word e // 2, low half first), is
    thresholded at each model's floor(p * 2**32): an entry is True iff its
    word is below that, so p acts as floor(p * 2**32) / 2**32 and every
    off-diagonal entry is True at p = 1.  The last batch axis holds R
    replications; model m's masks are rows m * R ... (m + 1) * R - 1 of
    it, equal to its own draw.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    u = rng.integers(0, _WORDS32, tuple(batch_shape) + (n, n), np.uint32)
    # u < floor(p * 2**32), as u <= floor(p * 2**32) - 1: the bound stays in
    # uint32's range at p = 1, where comparing with 2**32 is three times slower
    m = np.concatenate([u <= int(e.p * _WORDS32) - 1 for e in models], axis=-3)
    np.einsum("...ii->...i", m)[...] = False
    return m


def incomplete_estimate(i: int, utilities, subset) -> float:
    """Scaled-sum estimate of the global utility at node i (see module doc)."""
    utilities = np.asarray(utilities, dtype=float)
    subset = np.asarray(subset, dtype=int)
    if subset.size and np.any(subset == i):
        raise ValueError("node's own index must not appear in its subset")
    if subset.size == 0:
        return 0.0
    n = utilities.shape[-1]
    return float(utilities[i] + (n - 1) / subset.size * utilities[subset].sum())


def subset_estimates(u, mask):
    """Vectorized :func:`incomplete_estimate` for every node at once.

    ``u`` holds utilities (..., n) and ``mask`` receive masks (..., n, n) as
    drawn by :func:`sample_masks`; without a mask (complete information)
    every node's estimate is the plain sum, shape (..., 1).  Full subsets
    reproduce that sum bitwise (so p = 1 runs equal complete-information
    runs); empty subsets give 0.
    """
    return _estimate(u, None if mask is None else _mask_terms(mask))


def _mask_terms(mask):
    """The float weights, the scale (n - 1) / max(|I_i|, 1) and the full
    and empty subsets of the masks (..., n, n)."""
    n = mask.shape[-1]
    weights = mask.astype(float)
    # subset sizes (exact small integers): the float sum beats the bool one
    counts = np.einsum("...ij->...i", weights)
    full, empty = counts == n - 1, counts == 0
    scale = np.divide(n - 1, np.maximum(counts, 1, out=counts), out=counts)
    return weights, scale, full, empty


def _estimate(u, terms):
    """The estimates from ``u`` and :func:`_mask_terms` (None: the sum)."""
    total = np.add.reduce(u, axis=-1, keepdims=True)
    if terms is None:
        return total
    weights, scale, full, empty = terms
    est = u + scale * np.einsum("...ij,...j->...i", weights, u)
    np.copyto(est, total, where=full)
    np.copyto(est, 0.0, where=empty)
    return est


def q_nonempty(model: ExchangeModel, n: int) -> float:
    """Probability q = 1 - (1-p)^(n-1) that a node's receive-subset is
    nonempty."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return 1.0 - (1.0 - model.p) ** (n - 1)


def lemma3_enumeration_oracle(i: int, utilities, p: float) -> float:
    """Exact expectation of ``incomplete_estimate`` over the subset draw.

    Enumerates all 2^(n-1) subsets of the other nodes with their Bernoulli
    weights p^|I| (1-p)^(n-1-|I|).  Equals (1 - (1-p)^(n-1)) * sum(utilities)
    analytically; kept as an independent oracle.
    """
    utilities = np.asarray(utilities, dtype=float)
    n = utilities.shape[-1]
    if n > 20:
        raise ValueError("enumeration limited to n <= 20")
    others = [j for j in range(n) if j != i]
    total = 0.0
    for size in range(len(others) + 1):
        for subset in combinations(others, size):
            weight = p**size * (1.0 - p) ** (len(others) - size)
            total += weight * incomplete_estimate(i, utilities, list(subset))
    return total
