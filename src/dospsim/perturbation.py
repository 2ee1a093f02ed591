"""Random perturbation models for simultaneous-perturbation updates.

The shipped model is the symmetric Bernoulli perturbation: each component is
independently +amplitude or -amplitude with probability one half.  It is
zero-mean, bounded, and exposes the two moment constants the rate theory
needs: alpha2 = E[Phi^2] = amplitude^2 and alpha3 = sup|Phi| = amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import _real

__all__ = ["PerturbationModel", "sample_array", "moments"]


@dataclass(frozen=True)
class PerturbationModel:
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        _real("amplitude", self.amplitude, 0)


def sample_array(model: PerturbationModel, shape, rng: np.random.Generator):
    """Sample an array of i.i.d. signed perturbations of the given shape.

    Each entry consumes exactly one uniform draw, so the first rows of a
    larger batch coincide with a smaller batch drawn from the same stream
    (prefix stability; the replication-parallel runner relies on this).
    """
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return model.amplitude * signs


def moments(model: PerturbationModel):
    """Return (alpha2, alpha3) = (E[Phi^2], sup|Phi|)."""
    return model.amplitude**2, model.amplitude
