"""Objective models: environment sampling, local utilities, gradients.

Two models are shipped:

* ``QuadraticToy`` — two nodes, f(a, s) = -s1*a1^2 - s2*a2^2 + a1*a2 + a1 + a2
  with s1, s2 ~ Uniform[0.5, 1.5].  Closed-form expectation
  F(a) = -a1^2 - a2^2 + a1*a2 + a1 + a2, maximized at a* = (1, 1).
* ``PowerControlPF`` — N transmitters choosing powers a_i; node i's utility is
  omega*ln(1 + ln(1 + SINR_i)) - kappa*a_i, the proportionally fair form,
  with SINR_i = a_i*s_ii / (sigma2 + sum_{j != i} a_j*s_ji).

Every model has a finite box: the toy's actions lie in [0, 3] and PF's
powers in [MIN_POWER, a_max].

Channel gains are s_ij = h_ij^2 with h_ij zero-mean real Gaussian,
variance 1 on the diagonal and 0.1 off it.  The interference convention is
that receiver i is hit by transmitter j through gain s_ji.

All operations are vectorized: actions have shape (..., N) and states have
shape (..., N, N) (or (..., 2) for the toy), with matching leading batch
dimensions.  Logarithms are natural throughout.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .schedules import _real

__all__ = [
    "ObjectiveModel",
    "QuadraticToy",
    "PowerControlPF",
    "MIN_POWER",
    "OBJECTIVE_KINDS",
    "make_objective",
]

MIN_POWER = 1e-6  # the lower box edge of PowerControlPF


def _checked(name: str, value, low: float, strict: bool = True) -> float:
    """``value`` as a float: a real number (not a bool or text), finite, and
    above ``low`` (``strict``) or at least ``low``; NaN fails either way."""
    value = float(_real(name, value))
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    if not (value > low if strict else value >= low):
        need = "exceed" if strict else "be at least"
        raise ValueError(f"{name} must {need} {low}, got {value}")
    return value


class ObjectiveModel:
    """Common interface; see module docstring for the concrete models.  Its
    gradient is the per-sample grad f(a, s); grad F is its mean over s."""

    n_nodes: int
    noise_variance: float
    bounds: tuple[float, float]  # the finite box (lo, hi) of every action
    strong_concavity: float | None = None
    hessian_bound: float | None = None

    # --- environment -----------------------------------------------------
    def sample_state(self, rng: np.random.Generator, batch_shape=()):
        """States of shape ``batch_shape`` + (state shape), elementwise from
        ``rng.random`` or ``rng.standard_normal`` (``dosp.run`` passes a
        block of generators that offers these two)."""
        raise NotImplementedError

    # --- utilities --------------------------------------------------------
    def local_utilities(self, a, s):
        """All nodes' utilities, shape (..., N)."""
        raise NotImplementedError

    def global_utility(self, a, s):
        """f(a, s) = sum_i u_i(a, s)."""
        return self.local_utilities(a, s).sum(axis=-1)

    def sample_noise(self, rng: np.random.Generator, shape):
        """Observation noise eta ~ N(0, noise_variance), independent entries
        of ``shape`` from ``rng.standard_normal``; None (no draw) at 0."""
        if self.noise_variance > 0:
            return np.sqrt(self.noise_variance) * rng.standard_normal(shape)
        return None

    def observe(self, a, s, noise):
        """Per-node observations u_i + eta_i, ``noise`` eta shaped like the
        utilities (from :meth:`sample_noise`; None: the exact utilities)."""
        u = self.local_utilities(a, s)
        return u if noise is None else u + noise

    # --- gradients ----------------------------------------------------------
    def exact_sample_gradient(self, a, s):
        """Per-sample gradient of f(a, s) w.r.t. a, shape (..., N)."""
        raise NotImplementedError

    def optimum(self):
        """Known maximizer of F, or None when no closed form exists."""
        return None

    def init_action(self, rng: np.random.Generator, batch_shape=()):
        raise NotImplementedError


class QuadraticToy(ObjectiveModel):
    """Two-node quadratic objective with random curvature.

    Local decomposition (any split summing to f is equivalent for
    complete-information runs; this one is the simplest):
        u_1 = -s1*a1^2 + a1
        u_2 = -s2*a2^2 + a1*a2 + a2
    """

    n_nodes = 2
    bounds = (0.0, 3.0)
    strong_concavity = 1.0
    hessian_bound = 2.0

    def __init__(self, noise_variance: float = 0.0):
        self.noise_variance = _checked("noise_variance", noise_variance, 0.0,
                                       strict=False)

    def sample_state(self, rng, batch_shape=()):
        return 0.5 + rng.random(tuple(batch_shape) + (2,))

    def local_utilities(self, a, s):
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        # u_i = (-s_i * a_i^2 [+ a1*a2 for node 2]) + a_i, in this order
        u = -s * (a * a)
        u[..., 1] += a[..., 0] * a[..., 1]
        u += a
        return u

    def exact_sample_gradient(self, a, s):
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        g1 = -2 * s[..., 0] * a[..., 0] + a[..., 1] + 1
        g2 = -2 * s[..., 1] * a[..., 1] + a[..., 0] + 1
        return np.stack([g1, g2], axis=-1)

    def optimum(self):
        return np.array([1.0, 1.0])

    def init_action(self, rng, batch_shape=()):
        lo, hi = self.bounds
        return lo + (hi - lo) * rng.random(tuple(batch_shape) + (2,))


class PowerControlPF(ObjectiveModel):
    """Proportionally fair power control; actions are transmit powers in
    the box [MIN_POWER, a_max]."""

    def __init__(self, n_nodes: int = 4, omega: float = 20.0, kappa: float = 1.0,
                 sigma2: float = 0.2, noise_variance: float = 0.0,
                 a_max: float = 20.0):
        if not isinstance(n_nodes, numbers.Integral) or n_nodes < 2:
            raise ValueError(f"n_nodes must be an integer >= 2, got {n_nodes!r}")
        self.n_nodes = int(n_nodes)
        self.omega = _checked("omega", omega, 0.0)
        self.kappa = _checked("kappa", kappa, 0.0)
        self.sigma2 = _checked("sigma2", sigma2, 0.0)
        self.noise_variance = _checked("noise_variance", noise_variance, 0.0,
                                       strict=False)
        self.bounds = (MIN_POWER, _checked("a_max", a_max, MIN_POWER))
        # standard deviation of each channel coefficient h_ij
        self._gain_std = np.full((self.n_nodes, self.n_nodes), np.sqrt(0.1))
        np.fill_diagonal(self._gain_std, 1.0)

    def sample_state(self, rng, batch_shape=()):
        n = self.n_nodes
        h = rng.standard_normal(tuple(batch_shape) + (n, n))
        h *= self._gain_std
        h *= h
        return h

    def _denominators(self, power, s):
        """sigma2 + interference at each receiver, the (contiguous) gains
        s_ii and the products power_i * s_ii; power has shape (..., N).
        The interference is the full sum less the own term, which loses
        the last bits once power_i * s_ii dwarfs sigma2 (README)."""
        diag = s.diagonal(0, -2, -1).copy()
        own = power * diag
        total = np.einsum("...j,...ji->...i", power, s)
        return self.sigma2 + total - own, diag, own

    def local_utilities(self, a, s):
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        den, _, own = self._denominators(a, s)
        sinr = own / den
        return self.omega * np.log1p(np.log1p(sinr)) - self.kappa * a

    def exact_sample_gradient(self, a, s):
        # d u_n / d a_i = c_n * (d SINR_n / d a_i) with
        # c_n = omega / ((1 + r_n)(1 + SINR_n)); own-link term via the
        # numerator, cross terms via the interference denominator.
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        if (a <= 0).any():
            raise ValueError("gradient requires strictly positive powers")
        den, diag, own = self._denominators(a, s)
        sinr = own / den
        r = np.log1p(sinr)
        c = self.omega / ((1.0 + r) * (1.0 + sinr) * den)
        direct = c * diag
        cross = c * sinr  # = omega*SINR_n / ((1+r_n)(1+SINR_n)*den_n)
        # receiver n's loss from transmitter i is cross_n * s_in (i != n)
        spill = np.einsum("...n,...in->...i", cross, s) - cross * diag
        return direct - self.kappa - spill

    def init_action(self, rng, batch_shape=()):
        # uniform in (0, a_max]
        u = 1.0 - rng.random(tuple(batch_shape) + (self.n_nodes,))
        return self.bounds[1] * u


_MODELS = {"toy": QuadraticToy, "power_pf": PowerControlPF}
OBJECTIVE_KINDS = tuple(_MODELS)


def make_objective(kind: str, **kwargs) -> ObjectiveModel:
    """Construct an objective by config name, one of ``OBJECTIVE_KINDS``."""
    if kind not in _MODELS:
        raise ValueError(f"unknown objective kind: {kind!r}; one of {OBJECTIVE_KINDS}")
    return _MODELS[kind](**kwargs)
