"""Objective models: environment sampling, local utilities, gradients.

Three models are shipped:

* ``QuadraticToy`` — two nodes, f(a, s) = -s1*a1^2 - s2*a2^2 + a1*a2 + a1 + a2
  with s1, s2 ~ Uniform[0.5, 1.5].  Closed-form expectation
  F(a) = -a1^2 - a2^2 + a1*a2 + a1 + a2, maximized at a* = (1, 1).
* ``PowerControlPF`` — N transmitters choosing powers a_i; node i's utility is
  omega*ln(1 + ln(1 + SINR_i)) - kappa*a_i, the proportionally fair form,
  with SINR_i = a_i*s_ii / (sigma2 + sum_{j != i} a_j*s_ji).
* ``PowerControlSumRate`` — powers parameterized as e^{a_i}; node i's utility
  is omega*ln(s_ii e^{a_i} / (sigma2 + sum_{j != i} s_ji e^{a_j})) -
  kappa*e^{a_i} (a high-SINR sum-rate surrogate made concave by the change of
  variable).

Channel gains are s_ij = h_ij^2 with h_ij zero-mean real Gaussian,
variance 1 on the diagonal and 0.1 off it.  The interference convention is
that receiver i is hit by transmitter j through gain s_ji.

All operations are vectorized: actions have shape (..., N) and states have
shape (..., N, N) (or (..., 2) for the toy), with matching leading batch
dimensions.  Logarithms are natural throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ObjectiveModel",
    "QuadraticToy",
    "PowerControlPF",
    "PowerControlSumRate",
    "OBJECTIVE_KINDS",
    "make_objective",
]


# Largest action array (entries per point) that ``observe`` evaluates jointly
# with its nominal point.  Small batches are bound by per-call overhead: the
# joint pass takes about 30% off two power-model calls at up to 40 entries
# (the toy, whose utilities are cheap, breaks about even).  From about 500
# entries on, its broadcast einsum and doubled temporaries cost more than two
# calls (power models at n = 4 and 10).
_JOINT_PASS_MAX_SIZE = 256


class ObjectiveModel:
    """Common interface; see module docstring for the concrete models."""

    n_nodes: int
    noise_variance: float
    bounds: tuple[float, float] | None
    strong_concavity: float | None
    hessian_bound: float | None

    # --- environment -----------------------------------------------------
    def sample_state(self, rng: np.random.Generator, batch_shape=()):
        raise NotImplementedError

    # --- utilities --------------------------------------------------------
    def local_utilities(self, a, s):
        """All nodes' utilities, shape (..., N)."""
        raise NotImplementedError

    def global_utility(self, a, s):
        """f(a, s) = sum_i u_i(a, s)."""
        return self.local_utilities(a, s).sum(axis=-1)

    def observe(self, a, s, rng: np.random.Generator, nominal=None):
        """Noisy per-node observations u_i + eta_i, eta ~ N(0, noise_variance).

        Noise is zero-mean Gaussian, independent across nodes; variance 0
        returns the exact utilities (and consumes no randomness).  Given a
        ``nominal`` point shaped like ``a``, the pair (observations,
        f(nominal, s)) is returned, equal bitwise to a separate ``observe``
        and ``global_utility``.  Up to ``_JOINT_PASS_MAX_SIZE`` (256) entries
        per point, both points are evaluated in one pass under the same state.
        """
        if nominal is None:
            u = self.local_utilities(a, s)
        elif np.size(a) > _JOINT_PASS_MAX_SIZE:
            u, f_nom = self.local_utilities(a, s), self.global_utility(nominal, s)
        else:
            # np.stack((a, nominal)) without its wrapper
            both = np.concatenate((a, nominal)).reshape((2,) + np.shape(a))
            u, u_nom = self.local_utilities(both, s)
            f_nom = u_nom.sum(axis=-1)
        if self.noise_variance > 0:
            u = u + rng.normal(0.0, np.sqrt(self.noise_variance), u.shape)
        return u if nominal is None else (u, f_nom)

    # --- expectations and gradients ----------------------------------------
    def expected_gradient(self, a):
        raise NotImplementedError("no closed-form expected gradient")

    def exact_sample_gradient(self, a, s):
        """Per-sample gradient of f(a, s) w.r.t. a, shape (..., N)."""
        raise NotImplementedError

    def optimum(self):
        """Known maximizer of F, or None when no closed form exists."""
        return None

    def init_action(self, rng: np.random.Generator, batch_shape=()):
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticToy(ObjectiveModel):
    """Two-node quadratic objective with random curvature.

    Local decomposition (any split summing to f is equivalent for
    complete-information runs; this one is the simplest):
        u_1 = -s1*a1^2 + a1
        u_2 = -s2*a2^2 + a1*a2 + a2
    """

    noise_variance: float = 0.0
    bounds: tuple[float, float] | None = (0.0, 3.0)
    n_nodes: int = field(default=2, init=False)
    strong_concavity: float = field(default=1.0, init=False)
    hessian_bound: float = field(default=2.0, init=False)

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

    def expected_gradient(self, a):
        a = np.asarray(a, dtype=float)
        g1 = -2 * a[..., 0] + a[..., 1] + 1
        g2 = -2 * a[..., 1] + a[..., 0] + 1
        return np.stack([g1, g2], axis=-1)

    def exact_sample_gradient(self, a, s):
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        g1 = -2 * s[..., 0] * a[..., 0] + a[..., 1] + 1
        g2 = -2 * s[..., 1] * a[..., 1] + a[..., 0] + 1
        return np.stack([g1, g2], axis=-1)

    def optimum(self):
        return np.array([1.0, 1.0])

    def init_action(self, rng, batch_shape=()):
        lo, hi = self.bounds if self.bounds else (0.0, 3.0)
        return lo + (hi - lo) * rng.random(tuple(batch_shape) + (2,))


class _PowerControlBase(ObjectiveModel):
    """Shared channel model for the two wireless objectives."""

    def __init__(self, n_nodes, omega, kappa, sigma2, noise_variance, bounds):
        if n_nodes < 2:
            raise ValueError("power-control models need at least 2 nodes")
        self.n_nodes = int(n_nodes)
        self.omega = float(omega)
        self.kappa = float(kappa)
        self.sigma2 = float(sigma2)
        self.noise_variance = float(noise_variance)
        self.bounds = bounds
        self.strong_concavity = None
        self.hessian_bound = None

    def sample_state(self, rng, batch_shape=()):
        n = self.n_nodes
        h = rng.standard_normal(tuple(batch_shape) + (n, n))
        std = np.full((n, n), np.sqrt(0.1))
        np.fill_diagonal(std, 1.0)
        h *= std
        h *= h
        return h

    def _denominators(self, power, s):
        """sigma2 + interference at each receiver; power has shape (..., N)."""
        diag = np.einsum("...ii->...i", s)
        total = np.einsum("...j,...ji->...i", power, s)
        return self.sigma2 + total - power * diag, diag


class PowerControlPF(_PowerControlBase):
    """Proportionally fair power control; actions are transmit powers."""

    def __init__(
        self,
        n_nodes: int = 4,
        omega: float = 20.0,
        kappa: float = 1.0,
        sigma2: float = 0.2,
        noise_variance: float = 0.0,
        bounds: tuple[float, float] | None = (1e-6, 20.0),
    ):
        super().__init__(n_nodes, omega, kappa, sigma2, noise_variance, bounds)

    def local_utilities(self, a, s):
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        den, diag = self._denominators(a, s)
        sinr = a * diag / den
        return self.omega * np.log1p(np.log1p(sinr)) - self.kappa * a

    def exact_sample_gradient(self, a, s):
        # d u_n / d a_i = c_n * (d SINR_n / d a_i) with
        # c_n = omega / ((1 + r_n)(1 + SINR_n)); own-link term via the
        # numerator, cross terms via the interference denominator.
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        if np.any(a <= 0):
            raise ValueError("gradient requires strictly positive powers")
        den, diag = self._denominators(a, s)
        sinr = a * diag / den
        r = np.log1p(sinr)
        c = self.omega / ((1.0 + r) * (1.0 + sinr) * den)
        direct = c * diag
        cross = c * sinr  # = omega*SINR_n / ((1+r_n)(1+SINR_n)*den_n)
        # receiver n's loss from transmitter i is cross_n * s_in (i != n)
        spill = np.einsum("...n,...in->...i", cross, s) - cross * diag
        return direct - self.kappa - spill

    def init_action(self, rng, batch_shape=()):
        # uniform in (0, a_max]
        hi = self.bounds[1] if self.bounds else 20.0
        return hi * (1.0 - rng.random(tuple(batch_shape) + (self.n_nodes,)))


class PowerControlSumRate(_PowerControlBase):
    """Sum-rate surrogate; actions are log-powers (power = e^{a_i})."""

    def __init__(
        self,
        n_nodes: int = 4,
        omega: float = 20.0,
        kappa: float = 1.0,
        sigma2: float = 0.2,
        noise_variance: float = 0.0,
        bounds: tuple[float, float] | None = None,
    ):
        super().__init__(n_nodes, omega, kappa, sigma2, noise_variance, bounds)

    def local_utilities(self, a, s):
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        p = np.exp(a)
        den, diag = self._denominators(p, s)
        return self.omega * (np.log(diag) + a - np.log(den)) - self.kappa * p

    def exact_sample_gradient(self, a, s):
        a = np.asarray(a, dtype=float)
        s = np.asarray(s, dtype=float)
        p = np.exp(a)
        den, diag = self._denominators(p, s)
        inv = self.omega / den
        spill = p * (np.einsum("...n,...in->...i", inv, s) - inv * diag)
        return self.omega - self.kappa * p - spill

    def init_action(self, rng, batch_shape=()):
        # log-powers drawn so that powers are uniform in (0, 20]
        u = 20.0 * (1.0 - rng.random(tuple(batch_shape) + (self.n_nodes,)))
        return np.log(u)


OBJECTIVE_KINDS = ("toy", "power_pf", "power_sumrate")


def make_objective(kind: str, **kwargs) -> ObjectiveModel:
    """Construct an objective by config name, one of ``OBJECTIVE_KINDS``."""
    if kind == "toy":
        return QuadraticToy(**kwargs)
    if kind == "power_pf":
        return PowerControlPF(**kwargs)
    if kind == "power_sumrate":
        return PowerControlSumRate(**kwargs)
    raise ValueError(f"unknown objective kind: {kind!r}; one of {OBJECTIVE_KINDS}")
