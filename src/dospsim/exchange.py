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

import numpy as np

from .schedules import _einsum, _integer, _real

__all__ = [
    "ExchangeModel",
    "sample_masks",
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
        if _real("p", self.p, 0, 1, "(]") * _WORDS32 < 1:
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
    _integer("n", n, 2)
    u = rng.integers(0, _WORDS32, tuple(batch_shape) + (n, n), np.uint32)
    # u < floor(p * 2**32), as u <= floor(p * 2**32) - 1: the bound stays in
    # uint32's range at p = 1, where comparing with 2**32 is three times slower
    m = np.concatenate([u <= int(e.p * _WORDS32) - 1 for e in models], axis=-3)
    _einsum("...ii->...i", m)[...] = False
    return m


def subset_estimates(u, mask):
    """The scaled-sum estimate (module docstring) of every node at once.

    ``u`` holds utilities (..., n) and ``mask`` receive masks (..., n, n) as
    drawn by :func:`sample_masks`, node i's subset the True entries of row
    i; without a mask (complete information) every node's estimate is the
    plain sum, shape (..., 1).  Full subsets reproduce that sum bitwise (so
    p = 1 runs equal complete-information runs); empty subsets give 0.
    """
    return _estimate(u, None if mask is None else _mask_terms(mask))


def _mask_terms(mask):
    """The float weights, the scale (n - 1) / max(|I_i|, 1) and the full
    and empty subsets of the masks (..., n, n)."""
    n = mask.shape[-1]
    weights = mask.astype(float)
    # subset sizes (exact small integers): the float sum beats the bool one
    counts = _einsum("...ij->...i", weights)
    full, empty = counts == n - 1, counts == 0
    scale = np.divide(n - 1, np.maximum(counts, 1, out=counts), out=counts)
    return weights, scale, full, empty


def _estimate(u, terms):
    """The estimates from ``u`` and :func:`_mask_terms` (None: the sum)."""
    total = np.add.reduce(u, axis=-1, keepdims=True)
    if terms is None:
        return total
    weights, scale, full, empty = terms
    est = _einsum("...ij,...j->...i", weights, u)
    est *= scale
    est += u
    np.copyto(est, total, where=full)
    np.copyto(est, 0.0, where=empty)
    return est


def q_nonempty(model: ExchangeModel, n: int) -> float:
    """Probability q = 1 - (1-p)^(n-1) that a node's receive-subset is
    nonempty."""
    return 1.0 - (1.0 - model.p) ** (_integer("n", n, 2) - 1)


def lemma3_enumeration_oracle(i: int, utilities, p: float) -> float:
    """Exact expectation of node ``i``'s :func:`subset_estimates` estimate
    over the subset draw.

    Enumerates all 2^(n-1) subsets of the other nodes as receive masks,
    estimates on them in one call (the estimator every run uses) and
    weights subset I by p^|I| (1-p)^(n-1-|I|).  Analytically this equals
    (1 - (1-p)^(n-1)) * sum(utilities), which ``lemma3_check`` compares it
    with.  The masks hold 2^(n-1) * n^2 entries, so n is at most 12.
    """
    utilities = np.asarray(utilities, dtype=float)
    n = utilities.shape[-1]
    if n > 12:
        raise ValueError("enumeration limited to n <= 12")
    _real("p", p, 0, 1, "[]")
    _integer("i", i, 0, n)
    # subset b holds the other node others[j] iff bit j of b is set
    others = np.delete(np.arange(n), i)
    member = ((np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1) == 1
    mask = np.zeros((member.shape[0], n, n), bool)
    mask[:, i, others] = member
    sizes = member.sum(axis=1)
    weights = p**sizes * (1.0 - p) ** (n - 1 - sizes)
    est = subset_estimates(np.broadcast_to(utilities, (len(mask), n)), mask)
    return float(weights @ est[:, i])
