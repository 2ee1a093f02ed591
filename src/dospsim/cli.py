"""Experiment runner CLI.

Commands:

* ``dospsim list`` — names of the built-in experiments.
* ``dospsim validate <config>`` — key, type, count and step-size validation
  of a config, and a build of the experiment's model objects, whose
  constructors check the ranges.
* ``dospsim run <name|config> [--seed N] [--out DIR] [--jobs N] [--check]
  [--set key=value ...]`` — run an experiment, writing divergence/utility CSV
  files plus ``summary.json`` (one record per assertion:
  id/status/measured/bound/tolerance).  ``--check`` exits nonzero when any
  assertion failed.  A config that ``validate`` rejects is refused before
  anything is written (a failed step-size check of ``custom``'s schedule only
  without ``--allow-invalid-schedule``).

Configs are flat ``key = value`` text files ('#' starts a comment).  The
``name`` key selects a built-in (``custom``, a single free-form run, when
absent); the remaining keys override that experiment's defaults, and a key
the experiment does not read is refused.  Each value takes the type of its
default: an integer, a number, text, a comma-separated list of numbers, or a
number that may stay unset.  ``dospsim run --help`` lists the keys each
experiment reads.

Outputs are a deterministic function of the config and seed: reruns produce
byte-identical files.  ``--jobs`` parallelizes the independent series of an
experiment across processes (per-series results are unaffected); a sweep
over p, which runs as one stack, is split into at most ``--jobs``
contiguous sub-stacks.
"""

from __future__ import annotations

import argparse
import inspect
import math
import numbers
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import SummaryRecord
from .dosp import (
    DEFAULT_SINE_FREQUENCIES,
    AlgoConfig,
    RunTrace,
    SineParams,
    _mean_stderr,
    run,
    run_series,
)
from .exchange import ExchangeModel, lemma3_enumeration_oracle, q_nonempty
from .objectives import PowerControlPF, _PowerControlBase, make_objective
from .perturbation import PerturbationModel
from .schedules import PowerLawSchedule, step_size_problems, theorem5_condition

__all__ = ["main", "list_experiments", "load_config", "validate_config",
           "run_experiment", "BUILTIN_NAMES"]


# ---------------------------------------------------------------------------
# config handling


def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return tuple(_parse_value(t) for t in text.split(","))
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def load_config(path) -> dict:
    """Parse a flat key = value config file."""
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        cfg[key.strip()] = _parse_value(val)
    return cfg


def _defaults(model, *names) -> dict:
    """The constructor defaults of ``model``'s parameters ``names``."""
    params = inspect.signature(model).parameters
    return {name: params[name].default for name in names}


# The keys each experiment reads, with their defaults, in shared groups.
_RUN = {"seed": 1, "replications": 100, "algo.horizon": 10_000}
_POWER = {"objective.n_nodes": 2, **_defaults(
    _PowerControlBase, "omega", "kappa", "sigma2", "noise_variance")}
_POWER_PF = {**_POWER, **_defaults(PowerControlPF, "a_max")}
_SINE = {"sine.omegas": DEFAULT_SINE_FREQUENCIES, "sine.lambda": 1.5,
         "sine.phase": 0.0}
# astar.horizon and astar.replications are the reference optimum's states
# per batch and batches
_ASTAR = {"astar.seed": 90210, "astar.horizon": 20_000,
          "astar.replications": 10, "p_values": (1.0, 0.5, 0.25, 0.1)}
_BETA = {"beta0": 0.5, "nu1": 0.75, "index_offset": 1}
_SCHEDULE = {**_BETA, "gamma0": 1.0, "nu2": 0.25}
_CUSTOM = {**_RUN, "algo.variant": "dosp",
           "algo.record_stride": 0,  # 0 = default dense+log grid
           "objective.kind": "toy", "bounds.min": None, "bounds.max": None}
# the further keys custom reads: each objective kind's model parameters, and
# each variant's schedule and perturbation (the exact-gradient baseline makes
# none, so it reads no gamma; the sine baseline's is sine.*)
_KIND_KEYS = {"toy": {"noise_variance": 0.0}, "power_pf": _POWER_PF,
              "power_sumrate": _POWER}
_PERTURBED = {**_SCHEDULE, "perturbation.amplitude": 1.0}
_VARIANT_KEYS = {
    "dosp": _PERTURBED,
    "dosp_incomplete": {**_PERTURBED, "exchange.p": 1.0},
    "sine_baseline": {**_SCHEDULE, **_SINE},
    "exact_gradient_baseline": _BETA,
}


def _custom_keys(cfg: dict) -> dict:
    """The keys ``custom`` reads under the objective kind and variant of
    ``cfg``.  An unknown kind or variant, which ``make_objective`` and
    ``AlgoConfig`` refuse, reads those of ``power_sumrate`` or ``dosp``, so
    the other keys are still checked."""
    kind = cfg.get("objective.kind", _CUSTOM["objective.kind"])
    variant = cfg.get("algo.variant", _CUSTOM["algo.variant"])
    return {**_CUSTOM, **_KIND_KEYS.get(kind, _POWER),
            **_VARIANT_KEYS.get(variant, _PERTURBED)}


def _as_tuple(value) -> tuple:
    """A list-valued key; a single entry parses as a scalar."""
    return value if isinstance(value, tuple) else (value,)


def _typed(key: str, default, value):
    """``value`` as the type of ``key``'s default: int, float, str, a tuple
    of floats, or float-or-unset where the default is unset (None).  A value
    that does not convert raises a ``ValueError`` naming ``key``."""
    if isinstance(default, tuple):
        return tuple(_typed(key, 0.0, v) for v in _as_tuple(value))
    if (isinstance(default, str) and isinstance(value, str)
            or default is None and value is None):
        return value
    if (isinstance(default, str) or isinstance(value, bool)
            or not isinstance(value, numbers.Real)):
        need = "text" if isinstance(default, str) else "a number"
    elif not math.isfinite(value):
        need = "finite"
    elif isinstance(default, int) and value != int(value):
        need = "an integer"
    else:
        return int(value) if isinstance(default, int) else float(value)
    raise ValueError(f"{key} must be {need}, got {value!r}")


def _objective_from(cfg: dict, kind: str):
    """The objective ``kind`` with the model parameters of ``cfg``, its keys
    in ``_KIND_KEYS`` named as the model's arguments."""
    return make_objective(kind, **{key.removeprefix("objective."): cfg[key]
                                   for key in _KIND_KEYS.get(kind, ())})


def _schedule_from(cfg: dict) -> PowerLawSchedule:
    """``custom``'s schedule; a schedule key the variant does not read (so
    absent from ``cfg``) takes its default."""
    return PowerLawSchedule(**{key: cfg[key] if key in cfg else default
                               for key, default in _SCHEDULE.items()})


def _sine_from(cfg: dict, n: int) -> SineParams:
    omegas = cfg["sine.omegas"]
    if len(omegas) < n:
        raise ValueError(f"sine.omegas has {len(omegas)} entries, fewer than "
                         f"objective.n_nodes = {n}")
    return SineParams(frequencies=omegas[:n], amplitude=cfg["sine.lambda"],
                      phase=cfg["sine.phase"])


def _fig3_series(cfg: dict) -> list:
    """fig3's (label, tag, schedule) of each ``beta0_values`` entry."""
    return [(f"fig3_beta0_{b0}", f"beta0={b0}",
             PowerLawSchedule(beta0=b0, nu1=0.75, gamma0=1.0, nu2=0.25))
            for b0 in cfg["beta0_values"]]


def _sweep_inputs(cfg: dict):
    """A p sweep's ``power_pf`` model and exchange model of each p."""
    return (_objective_from(cfg, "power_pf"),
            [ExchangeModel(p) for p in cfg["p_values"]])


def _fig5_7_inputs(cfg: dict):
    """fig5_7's model, exchange models and sine signal."""
    objective, exchanges = _sweep_inputs(cfg)
    return objective, exchanges, _sine_from(cfg, objective.n_nodes)


def _custom_inputs(cfg: dict):
    """``custom``'s run config and model.  The box is set in both keys or
    in neither; the sum-rate model, which has no box, needs one, and
    ``power_pf``'s may not reach below the model's least power."""
    kind, variant = cfg["objective.kind"], cfg["algo.variant"]
    objective = _objective_from(cfg, kind)
    lo, hi = cfg["bounds.min"], cfg["bounds.max"]
    if (lo is None) != (hi is None):
        raise ValueError("bounds.min and bounds.max must be set together")
    config = AlgoConfig(
        schedule=_schedule_from(cfg),
        perturbation=(PerturbationModel(cfg["perturbation.amplitude"])
                      if "perturbation.amplitude" in cfg else PerturbationModel()),
        bounds=None if lo is None else (lo, hi),
        exchange=(ExchangeModel(cfg["exchange.p"])
                  if variant == "dosp_incomplete" else None),
        variant=variant,
        sine=(_sine_from(cfg, objective.n_nodes) if variant == "sine_baseline"
              else None))
    if lo is None and objective.bounds is None:
        raise ValueError(f"{kind} overflows without a box: set bounds.min "
                         "and bounds.max")
    if kind == "power_pf" and lo is not None and lo < objective.bounds[0]:
        raise ValueError(f"bounds.min = {lo} is below {kind}'s least power "
                         f"{objective.bounds[0]}")
    return config, objective


# the least value of each count and stride
_MINIMA = {"replications": 1, "replications.utility": 1, "algo.horizon": 1,
           "astar.horizon": 1, "astar.replications": 1, "samples": 1,
           "fuzz": 1, "points": 1, "algo.record_stride": 0}


def _resolve(cfg: dict):
    """The one check of a config; its ``name`` selects the experiment
    (``custom`` when absent).  It checks key names, types and counts, then
    builds the experiment's inputs, whose constructors check the ranges.

    Returns the experiment's name; the keys it reads, set or defaulted, each
    converted to the type of its default; the problems; and, kept apart from
    them, the step-size checks that ``custom``'s schedule fails.
    """
    cfg = dict(cfg)
    name = cfg.pop("name", "custom")
    if name not in _BUILTINS:
        return name, {}, [f"unknown experiment name: {name!r}; "
                          f"valid: {sorted(_BUILTINS)}"], []
    keys = _BUILTINS[name][1]
    if callable(keys):
        keys = keys(cfg)
    problems = [f"unknown config key: {key}"
                for key in sorted(set(cfg) - _KNOWN_KEYS)]
    problems += [f"{name} does not read {key} = {value!r}"
                 for key, value in cfg.items()
                 if key in _KNOWN_KEYS and key not in keys]
    read = {}
    for key, default in keys.items():
        try:
            read[key] = _typed(key, default, cfg.get(key, default))
        except ValueError as exc:
            problems.append(str(exc))
    if len(read) < len(keys):  # the checks below need every value typed
        return name, read, problems, []
    problems += [f"{key} must be at least {low}, got {read[key]}"
                 for key, low in _MINIMA.items() if read.get(key, low) < low]
    step_size = []
    try:
        inputs = _INPUTS[name](read) if name in _INPUTS else None
    except ValueError as exc:
        problems.append(str(exc))
    else:
        if name == "custom":  # a variant that reads no nu2 makes no perturbation
            step_size = step_size_problems(inputs[0].schedule,
                                           perturbed="nu2" in read)
    return name, read, problems, step_size


def validate_config(cfg: dict) -> list[str]:
    """Return a list of problems (empty when the config is valid)."""
    _, _, problems, step_size = _resolve(cfg)
    return problems + step_size


# ---------------------------------------------------------------------------
# series execution


def _run_all(configs, objective, horizon, seed, replications, jobs: int,
             sweep: bool = False):
    """The trace of each of ``configs``, on ``jobs`` processes: one ``run``
    per config, or for a ``sweep`` (configs that differ only in
    ``exchange``) one ``run_series`` stack, split into at most ``jobs``
    contiguous sub-stacks."""
    if sweep:
        parts = min(jobs, len(configs))
        cuts = [len(configs) * i // parts for i in range(parts + 1)]
        fn, items = run_series, [configs[a:b] for a, b in zip(cuts, cuts[1:])]
    else:
        fn, items = run, configs
    args = (items, repeat(objective), repeat(horizon), repeat(seed),
            repeat(replications))
    if jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            traces = list(pool.map(fn, *args))
    else:
        traces = list(map(fn, *args))
    return [t for stack in traces for t in stack] if sweep else traces


def _safe(label: str) -> str:
    return label.replace(".", "_").replace("/", "-")


# ---------------------------------------------------------------------------
# built-in experiments


_THEOREM5_OMEGA = 2.0
"""Scale Omega of the theorem-5 envelope Omega*(k+1)^(-e) in fig3 and fig4."""


def _window(ks, lo, hi=math.inf):
    """Recorded indices in [lo, hi]; short diagnostic runs fall back to the
    last index."""
    window = (ks >= lo) & (ks <= hi)
    return window if window.any() else ks == ks[-1]


def _toy_envelope_experiment(cfg, outdir, jobs, name, series, window_lo):
    """Shared driver of the two toy envelope reproductions.

    ``series`` is a list of (label, tag, schedule).  Where the schedule meets
    ``theorem5_condition``, the record checks D_k <= envelope over the
    window; below the threshold only the ordinal claim is made: the mean
    ratio D_k / envelope exceeds that of every covered series.
    """
    objective = make_objective("toy")
    configs = [AlgoConfig(schedule=sched) for _, _, sched in series]
    traces = _run_all(configs, objective, cfg["algo.horizon"], cfg["seed"],
                      cfg["replications"], jobs)
    ratios, covered = [], []
    for (label, _, sched), config, trace in zip(series, configs, traces):
        ser = analysis.divergence(trace, objective.optimum())
        t5 = analysis.theorem5_envelope(sched, _THEOREM5_OMEGA, ser.ks)
        analysis.write_divergence_csv(outdir / f"{_safe(label)}.csv", ser, t5)
        window = _window(ser.ks, window_lo)
        ratios.append(ser.values[window] / t5[window])
        A = analysis.rate_constants(objective, config.perturbation).A
        covered.append(theorem5_condition(sched, A)[0])
    covered_means = [r.mean() for r, ok in zip(ratios, covered) if ok]
    bound = float(max(covered_means)) if covered_means else math.nan
    records = []
    for (_, tag, _), r, ok in zip(series, ratios, covered):
        if ok:
            records.append(SummaryRecord(
                id=f"{name} envelope {tag}",
                status="pass" if float(r.max()) <= 1.0 else "fail",
                measured=float(r.max()), bound=1.0, tolerance=0.0))
        else:
            records.append(SummaryRecord(
                id=f"{name} ordinal {tag}",
                status="pass" if float(r.mean()) > bound else "fail",
                measured=float(r.mean()), bound=bound, tolerance=0.0))
    return records


def _fig3(cfg, outdir, jobs):
    return _toy_envelope_experiment(cfg, outdir, jobs, "fig3",
                                    _fig3_series(cfg), window_lo=1000)


def _fig4(cfg, outdir, jobs):
    pairs = ((0.55, 0.15), (0.7, 0.15), (0.5, 0.2), (0.65, 0.35))
    series = [
        (f"fig4_nu_{n1}_{n2}", f"nu_{n1}_{n2}",
         PowerLawSchedule(beta0=0.4, nu1=n1, gamma0=1.0, nu2=n2))
        for n1, n2 in pairs
    ]
    return _toy_envelope_experiment(cfg, outdir, jobs, "fig4", series,
                                    window_lo=10_000)


def _first_hit(trace: RunTrace, level: float) -> float:
    hits = np.flatnonzero(trace.mean_utility >= level)
    return float(trace.ks[hits[0]]) if hits.size else math.inf


def _p_sweep_records(cfg, outdir, jobs, sched, objective, exchanges,
                     label_prefix, record_id):
    """Incomplete-information divergence sweep over p; returns records."""
    n = objective.n_nodes
    configs = [AlgoConfig(schedule=sched, variant="dosp_incomplete",
                          exchange=exchange) for exchange in exchanges]
    traces = _run_all(configs, objective, cfg["algo.horizon"], cfg["seed"],
                      cfg["replications"], jobs, sweep=True)
    a_star, a_star_se = analysis.reference_optimum(
        objective, seed=cfg["astar.seed"], horizon=cfg["astar.horizon"],
        replications=cfg["astar.replications"])
    analysis._write_columns(outdir / f"{label_prefix}_astar.csv",
                            ["node", "a_star", "stderr"], np.arange(n),
                            a_star, a_star_se)
    per_replication = []  # each replication's window mean of D/N, per p
    for exchange, trace in zip(exchanges, traces):
        ser = analysis.divergence(trace, a_star)
        label = _safe(f"{label_prefix}_p_{exchange.p}")
        analysis.write_divergence_csv(outdir / f"{label}.csv", ser)
        window = _window(ser.ks, 1000, cfg["algo.horizon"])
        d = analysis.divergence_samples(trace, a_star)
        per_replication.append(d[window].mean(axis=0) / n)
    window_means, window_se = _mean_stderr(np.array(per_replication))
    analysis._write_columns(outdir / f"{label_prefix}_window_means.csv",
                            ["p", "mean_D_over_N", "stderr"],
                            np.array(cfg["p_values"]), window_means, window_se)
    diffs = np.diff(window_means)  # p decreases along the list
    measured = float(diffs.min()) if diffs.size else 0.0
    return [SummaryRecord(
        id=record_id,
        status="pass" if measured >= 0.0 else "fail",
        measured=measured, bound=0.0, tolerance=0.0)]


def _fig5_7(cfg, outdir, jobs):
    sched = PowerLawSchedule(beta0=2.5, nu1=0.75, gamma0=12.0, nu2=0.25,
                             index_offset=0)
    objective, exchanges, sine = _fig5_7_inputs(cfg)
    configs = [AlgoConfig(schedule=sched),
               AlgoConfig(schedule=sched, variant="sine_baseline", sine=sine),
               AlgoConfig(schedule=sched, variant="exact_gradient_baseline")]
    traces = _run_all(configs, objective, cfg["algo.horizon"], cfg["seed"],
                      cfg["replications.utility"], jobs)
    for label, trace in zip(("dosp", "sine", "exact"), traces):
        analysis.write_utility_csv(outdir / f"fig5_{label}.csv", trace)
    dosp_t, sine_t, exact_t = traces

    last_decade = exact_t.ks >= exact_t.ks[-1] // 10
    plateau = float(exact_t.mean_utility[last_decade].mean())
    final_ratio = float(dosp_t.mean_utility[-1]) / plateau
    hit_dosp = _first_hit(dosp_t, 0.9 * plateau)
    hit_sine = _first_hit(sine_t, 0.9 * plateau)
    records = [
        SummaryRecord(id="fig5 final utility vs plateau",
                      status="pass" if abs(1.0 - final_ratio) <= 0.05 else "fail",
                      measured=final_ratio, bound=1.0, tolerance=0.05),
        SummaryRecord(id="fig5 90%-plateau first hit (dosp < sine)",
                      status="pass" if hit_dosp < hit_sine else "fail",
                      measured=hit_dosp, bound=hit_sine, tolerance=0.0),
    ]
    records += _p_sweep_records(cfg, outdir, jobs, sched, objective, exchanges,
                                "fig7", "fig7 divergence monotone in p")
    return records


def _fig8(cfg, outdir, jobs):
    sched = PowerLawSchedule(beta0=2.0, nu1=0.75, gamma0=12.0, nu2=0.25,
                             index_offset=1)
    return _p_sweep_records(cfg, outdir, jobs, sched, *_sweep_inputs(cfg),
                            "fig8", "fig8 divergence monotone in p")


def _bias_check(cfg, outdir, jobs):
    objective = make_objective("toy")
    pert = PerturbationModel(amplitude=1.0)
    rng = np.random.default_rng(cfg["seed"])
    records = []
    for exchange in (None, ExchangeModel(0.5)):
        info = "" if exchange is None else f"incomplete p={exchange.p} "
        for a in ((0.0, 0.0), (2.0, 1.0), (0.5, 2.5)):
            for gamma in (1.0, 0.5, 0.1):
                bias, se = analysis.empirical_bias(objective, a, gamma, pert,
                                                   cfg["samples"], rng,
                                                   exchange=exchange)
                bound = analysis.bias_bound_value(objective, pert, gamma)
                norm = float(np.linalg.norm(bias))
                tol = 4.0 * float(np.linalg.norm(se))
                records.append(SummaryRecord(
                    id=f"bias norm {info}a={a} gamma={gamma}",
                    status="pass" if norm <= bound + tol else "fail",
                    measured=norm, bound=bound, tolerance=tol))
                zero_ok = bool(np.all(np.abs(bias) <= 4.0 * se))
                records.append(SummaryRecord(
                    id=f"bias zero {info}a={a} gamma={gamma}",
                    status="pass" if zero_ok else "fail",
                    measured=float(np.max(np.abs(bias) - 4.0 * se)),
                    bound=0.0, tolerance=0.0))
    return records


def _lemma3_check(cfg, outdir, jobs):
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0
    for n in range(2, 7):
        for p in (0.1, 0.25, 0.5, 0.9, 1.0):
            for _ in range(cfg["fuzz"]):
                u = rng.normal(0, 5, n)
                got = lemma3_enumeration_oracle(0, u, p)
                want = q_nonempty(ExchangeModel(p), n) * u.sum()
                worst = max(worst, abs(got - want))
    return [SummaryRecord(id="exchange expectation closed form",
                          status="pass" if worst <= 1e-12 else "fail",
                          measured=worst, bound=1e-12, tolerance=0.0)]


def _lemma7_grid(cfg, outdir, jobs):
    grid = np.arange(0.05, 1.0001, 0.05)
    margin = math.inf
    ok = True
    for a in grid:
        for b in grid:
            for x in grid:
                g, holds = analysis.lemma7_check(a, b, x)
                ok &= holds
                margin = min(margin, b - g)
    records = [SummaryRecord(id="scalar inequality grid",
                             status="pass" if ok else "fail",
                             measured=margin, bound=0.0, tolerance=0.0)]
    for b in (0.1, 0.5, 1.0):
        g, _ = analysis.lemma7_check(1.0, b, 1e-8)
        records.append(SummaryRecord(
            id=f"scalar inequality limit b={b}",
            status="pass" if abs(g - b) <= 1e-6 else "fail",
            measured=abs(g - b), bound=1e-6, tolerance=0.0))
    return records


def _gradient_check(cfg, outdir, jobs):
    rng = np.random.default_rng(cfg["seed"])
    records = []
    step = 1e-5
    for kind in ("power_pf", "power_sumrate"):
        for n in (2, 4):
            objective = make_objective(kind, n_nodes=n)
            worst = 0.0
            for _ in range(cfg["points"]):
                if kind == "power_pf":
                    a = rng.uniform(0.5, 15.0, n)
                else:
                    a = rng.uniform(-1.0, 2.5, n)
                s = objective.sample_state(rng)
                g = objective.exact_sample_gradient(a, s)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = step
                    fd = (objective.global_utility(a + e, s)
                          - objective.global_utility(a - e, s)) / (2 * step)
                    worst = max(worst, abs(fd - g[i]) / max(abs(fd), 1e-12))
            records.append(SummaryRecord(
                id=f"gradient finite-diff {kind} n={n}",
                status="pass" if worst <= 1e-5 else "fail",
                measured=worst, bound=1e-5, tolerance=0.0))
    return records


def _custom(cfg, outdir, jobs):
    config, objective = _custom_inputs(cfg)
    horizon = cfg["algo.horizon"]
    record_ks = None
    stride = cfg["algo.record_stride"]
    if stride > 0:
        k0 = config.schedule.first_index
        record_ks = sorted(set(range(k0, k0 + horizon + 1, stride))
                           | {k0 + horizon})
    trace = run(config, objective, horizon, cfg["seed"],
                cfg["replications"], record_ks=record_ks)
    analysis.write_utility_csv(outdir / "custom_utility.csv", trace)
    a_star = objective.optimum()
    if a_star is not None:
        ser = analysis.divergence(trace, a_star)
        analysis.write_divergence_csv(outdir / "custom_divergence.csv", ser)
    return []


# name -> (function, the keys it reads with their defaults); custom's keys
# depend on the keys set, so it gives a function of them
_BUILTINS = {
    "fig3": (_fig3, {**_RUN, "replications": 1000, "algo.horizon": 100_000,
                     "beta0_values": (0.23, 0.28, 0.5)}),
    "fig4": (_fig4, {**_RUN, "replications": 1000, "algo.horizon": 100_000}),
    "fig5_7": (_fig5_7, {**_RUN, "replications.utility": 500, **_POWER_PF,
                         "objective.n_nodes": 4, **_SINE, **_ASTAR}),
    "fig8": (_fig8, {**_RUN, **_POWER_PF, "objective.n_nodes": 10, **_ASTAR}),
    "bias_check": (_bias_check, {"seed": 1, "samples": 1_000_000}),
    "lemma3_check": (_lemma3_check, {"seed": 1, "fuzz": 100}),
    # deterministic; takes ``seed`` only because every experiment does
    "lemma7_grid": (_lemma7_grid, {"seed": 1}),
    "gradient_check": (_gradient_check, {"seed": 1, "points": 100}),
    "custom": (_custom, _custom_keys),
}

BUILTIN_NAMES = tuple(n for n in _BUILTINS if n != "custom")

# name -> the function that builds its inputs from the keys it reads, for
# the experiments whose inputs depend on them
_INPUTS = {"fig3": _fig3_series, "fig5_7": _fig5_7_inputs,
           "fig8": _sweep_inputs, "custom": _custom_inputs}

_KNOWN_KEYS = set().union(
    *(keys for _, keys in _BUILTINS.values() if isinstance(keys, dict)),
    _CUSTOM, *_KIND_KEYS.values(), *_VARIANT_KEYS.values())


def _keys_help() -> str:
    """The keys each experiment reads, with their defaults; custom's further
    keys by objective kind and by variant."""
    groups = [(f"{name}:", _CUSTOM if callable(keys) else keys)
              for name, (_, keys) in _BUILTINS.items()]
    groups += [(f"  with {key}={choice}:", keys)
               for key, table in (("objective.kind", _KIND_KEYS),
                                  ("algo.variant", _VARIANT_KEYS))
               for choice, keys in table.items()]
    return "\n".join(["keys each experiment reads (key=default):"] + [
        textwrap.fill(" ".join([head] + [
            f"{k}=" + ("(unset)" if v is None else ",".join(map(str, _as_tuple(v))))
            for k, v in keys.items()]), 79, initial_indent="  ",
            subsequent_indent="      ", break_on_hyphens=False)
        for head, keys in groups if keys])


def list_experiments():
    return BUILTIN_NAMES


def run_experiment(name_or_cfg, outdir, seed=None, jobs=1, overrides=None):
    """Run one experiment; returns the summary records (also written to
    ``summary.json`` in ``outdir``).  A config (with ``overrides`` and
    ``seed``) that ``validate_config`` rejects, or ``jobs`` < 1, raises
    ``ValueError`` before ``outdir`` is made, unless only a step-size check
    fails: as ``dosp.run`` does, this leaves that check to the caller."""
    cfg = (dict(name_or_cfg) if isinstance(name_or_cfg, dict)
           else {"name": name_or_cfg})
    cfg.update(overrides or {})
    if seed is not None:
        cfg["seed"] = seed
    name, read, problems, _ = _resolve(cfg)
    if jobs < 1:
        problems.append(f"jobs must be at least 1, got {jobs}")
    if problems:
        raise ValueError("; ".join(problems))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = _BUILTINS[name][0](read, outdir, jobs)
    analysis.write_summary(outdir / "summary.json", records)
    return records


# ---------------------------------------------------------------------------
# argparse front end


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dospsim", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in experiments")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("target", metavar="config")

    p_run = sub.add_parser(
        "run", help="run an experiment", epilog=_keys_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_run.add_argument("target", help="built-in name or config path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--check", action="store_true",
                       help="exit nonzero when any assertion fails")
    p_run.add_argument("--allow-invalid-schedule", action="store_true",
                       help="run a custom schedule that fails the step-size "
                            "checks")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")

    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs < 1:
        p_run.error(f"argument --jobs: must be at least 1, got {args.jobs}")

    if args.command == "list":
        for name in list_experiments():
            print(name)
        return 0

    if args.command == "run" and args.target in _BUILTINS:
        cfg = {"name": args.target}
    else:
        try:
            cfg = load_config(args.target)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    validate = args.command == "validate"
    for item in getattr(args, "set", []):  # run only
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, val = item.split("=", 1)
        cfg[key.strip()] = _parse_value(val)
    _, _, problems, step_size = _resolve(cfg)
    if validate or not args.allow_invalid_schedule:
        problems += step_size
    for p in problems:
        print(f"invalid: {p}", file=sys.stdout if validate else sys.stderr)
    if validate and not problems:
        print("ok")
    if validate or problems:
        return 2 if problems else 0
    try:
        records = run_experiment(cfg, args.out, seed=args.seed, jobs=args.jobs)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in records:
        print(f"{r.status.upper():4s} {r.id}: measured={r.measured:.6g} "
              f"bound={r.bound:.6g} tolerance={r.tolerance:.6g}")
    return 1 if args.check and any(r.status == "fail" for r in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
