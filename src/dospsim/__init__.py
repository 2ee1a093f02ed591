"""Distributed stochastic-perturbation optimization: simulation and analysis.

Multi-node zeroth-order optimization where each node perturbs its own action,
observes only scalar utility values, and all nodes climb the expected global
utility together — including an incomplete-information mode in which nodes
receive random subsets of each other's utilities.  The analysis layer checks
the convergence-rate bounds numerically, and the CLI reproduces the reference
experiments.
"""

from .analysis import (
    DivergenceSeries,
    Envelopes,
    RateConstants,
    SummaryRecord,
    bias_bound_value,
    divergence,
    divergence_samples,
    empirical_bias,
    estimate_M,
    lemma4_residuals,
    lemma5_floor,
    lemma7_check,
    rate_constants,
    reference_optimum,
    theorem4_envelopes,
    theorem5_envelope,
)
from .dosp import VARIANTS, AlgoConfig, RunTrace, SineParams, default_record_ks, run
from .exchange import (
    ExchangeModel,
    incomplete_estimate,
    lemma3_enumeration_oracle,
    q_nonempty,
    sample_masks,
)
from .objectives import (
    OBJECTIVE_KINDS,
    ObjectiveModel,
    PowerControlPF,
    PowerControlSumRate,
    QuadraticToy,
    make_objective,
)
from .perturbation import PerturbationModel, moments, sample_array
from .schedules import (
    A4Report,
    PowerLawSchedule,
    RateDiagnostics,
    chi,
    rate_diagnostics,
    theorem5_condition,
    validate_a4,
    varpi,
)

__version__ = "0.1.0"
