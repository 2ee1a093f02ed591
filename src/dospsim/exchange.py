"""Random utility-exchange layer for incomplete-information runs.

Each iteration, node i learns node j's observed utility with probability p,
independently across ordered pairs (i, j), j != i, and across iterations.
From the received subset I_i it forms the unbiased-up-to-scaling estimate

    est_i = u_i + ((n - 1) / |I_i|) * sum_{j in I_i} u_j      if I_i nonempty
    est_i = 0                                                 if I_i empty

whose expectation over the subset draw is q * sum_j u_j with
q = 1 - (1 - p)^(n-1), the probability that I_i is nonempty.  (Some sources
print the exponent as n; the exact enumeration oracle below settles it at
n - 1, and both values are exposed.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "ExchangeModel",
    "sample_subsets",
    "sample_masks",
    "incomplete_estimate",
    "subset_estimates",
    "q_nonempty",
    "lemma3_enumeration_oracle",
]


@dataclass(frozen=True)
class ExchangeModel:
    """Per-pair inclusion probability p in (0, 1]."""

    p: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must be in (0, 1]")


def sample_masks(model: ExchangeModel, n: int, rng: np.random.Generator, batch_shape=()):
    """Boolean masks of shape (..., n, n); mask[..., i, j] says j's utility
    reached node i.  The diagonal is always False."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    m = rng.random(tuple(batch_shape) + (n, n)) < model.p
    np.einsum("...ii->...i", m)[...] = False
    return m


def sample_subsets(model: ExchangeModel, n: int, rng: np.random.Generator):
    """One draw of the n receive-subsets, as a list of index arrays."""
    mask = sample_masks(model, n, rng)
    return [np.flatnonzero(mask[i]) for i in range(n)]


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
    drawn by :func:`sample_masks`.  Full subsets reproduce the plain sum
    bitwise (so p = 1 runs equal complete-information runs); empty subsets
    give 0.
    """
    n = u.shape[-1]
    counts = mask.sum(axis=-1)
    partial = np.einsum("...ij,...j->...i", mask.astype(float), u)
    scaled = u + (n - 1) / np.maximum(counts, 1) * partial
    total = np.broadcast_to(u.sum(axis=-1, keepdims=True), u.shape)
    est = np.where(counts == n - 1, total, scaled)
    return np.where(counts > 0, est, 0.0)


def q_nonempty(model: ExchangeModel, n: int):
    """Probability that a node's receive-subset is nonempty.

    Returns ``(q_derived, q_alt)``: the derived value 1 - (1-p)^(n-1)
    (consumed by all algorithms and diagnostics) alongside the alternative
    reading 1 - (1-p)^n, kept for traceability.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    q_derived = 1.0 - (1.0 - model.p) ** (n - 1)
    q_alt = 1.0 - (1.0 - model.p) ** n
    return q_derived, q_alt


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
