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
    RateConstants,
    SummaryRecord,
    bias_bound_value,
    divergence,
    divergence_samples,
    empirical_bias,
    estimate_M,
    lemma4_residuals,
    lemma7_check,
    rate_constants,
    reference_optimum,
    theorem5_envelope,
)
from .dosp import (
    VARIANTS,
    AlgoConfig,
    RunTrace,
    SineParams,
    default_record_ks,
    run,
    run_series,
)
from .exchange import (
    ExchangeModel,
    lemma3_enumeration_oracle,
    q_nonempty,
    sample_masks,
)
from .objectives import (
    OBJECTIVE_KINDS,
    ObjectiveModel,
    PowerControlPF,
    QuadraticToy,
    make_objective,
)
from .perturbation import PerturbationModel, moments, sample_array
from .schedules import (
    PowerLawSchedule,
    contraction_start,
    step_size_problems,
    theorem5_condition,
)

__version__ = "0.1.0"
