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
default: an integer, a number, text or a comma-separated list of numbers.
``dospsim run --help`` lists the keys each experiment reads.

Outputs are a deterministic function of the config and seed: reruns produce
byte-identical files.  ``--jobs`` parallelizes the independent series of an
experiment across processes (per-series results are unaffected).
Each distinct series runs once, at the most replications asked of it; a
use that asks fewer takes its first rows.  Two ``dosp`` properties make this
exact: at p = 1 incomplete information is complete information bit for bit
(fig7's p = 1 series is fig5's dosp series), and replication r does not
depend on how many run beside it.
Consecutive series that may share a stack and run one replication count
(a sweep over p, fig5's dosp and sine series, and fig5_7's dosp, sine and
p series at once when ``replications.utility`` equals ``replications``)
run as one stack, split into at most ``--jobs`` contiguous sub-stacks.
"""

from __future__ import annotations

import argparse
import inspect
import math
import numbers
import sys
import textwrap
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
    _series_key,
    _stack_conflict,
    run,
    run_series,
)
from .exchange import ExchangeModel, lemma3_enumeration_oracle, q_nonempty
from .objectives import PowerControlPF, QuadraticToy, make_objective
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
    PowerControlPF, "omega", "kappa", "sigma2", "noise_variance", "a_max")}
_SINE = {"sine.omegas": DEFAULT_SINE_FREQUENCIES, "sine.lambda": 1.5,
         "sine.phase": 0.0}
# astar.horizon and astar.replications are the reference optimum's states
# per batch and batches
_ASTAR = {"astar.seed": 90210, "astar.horizon": 20_000,
          "astar.replications": 10, "p_values": (1.0, 0.5, 0.25, 0.1)}
_BETA = {"beta0": 0.5, "nu1": 0.75, "index_offset": 1}
_SCHEDULE = {**_BETA, "gamma0": 1.0, "nu2": 0.25}
_CUSTOM = {**_RUN, "algo.variant": "dosp", "objective.kind": "toy"}
# the further keys custom reads: each objective kind's model parameters, and
# each variant's schedule and perturbation (the exact-gradient baseline makes
# none, so it reads no gamma; the sine baseline's is sine.*)
_KIND_KEYS = {"toy": _defaults(QuadraticToy, "noise_variance"),
              "power_pf": _POWER}
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
    ``AlgoConfig`` refuse, reads those of ``power_pf`` or ``dosp``, so the
    other keys are still checked."""
    kind = cfg.get("objective.kind", _CUSTOM["objective.kind"])
    variant = cfg.get("algo.variant", _CUSTOM["algo.variant"])
    return {**_CUSTOM, **_KIND_KEYS.get(kind, _POWER),
            **_VARIANT_KEYS.get(variant, _PERTURBED)}


def _as_tuple(value) -> tuple:
    """A list-valued key; a single entry parses as a scalar."""
    return value if isinstance(value, tuple) else (value,)


def _typed(key: str, default, value):
    """``value`` as the type of ``key``'s default: int, float, str or a
    tuple of floats.  A value that does not convert raises a ``ValueError``
    naming ``key``."""
    if isinstance(default, tuple):
        return tuple(_typed(key, 0.0, v) for v in _as_tuple(value))
    if isinstance(default, str) and isinstance(value, str):
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
    """fig3's (label, tag, schedule) of each ``beta0_values`` entry, which
    names one record and one CSV, so no entry may repeat."""
    values = cfg["beta0_values"]
    if len(set(values)) < len(values):
        raise ValueError(f"beta0_values must not repeat a value, got {values}")
    return [(f"fig3_beta0_{b0}", f"beta0={b0}",
             PowerLawSchedule(beta0=b0, nu1=0.75, gamma0=1.0, nu2=0.25))
            for b0 in values]


def _sweep_inputs(cfg: dict):
    """A p sweep's ``power_pf`` model and exchange model of each p, which
    falls strictly along ``p_values``, as the monotonicity record reads it."""
    ps = cfg["p_values"]
    if len(ps) < 2 or any(p <= q for p, q in zip(ps, ps[1:])):
        raise ValueError("p_values must hold at least two values, strictly "
                         f"decreasing, got {ps}")
    return _objective_from(cfg, "power_pf"), [ExchangeModel(p) for p in ps]


def _fig5_7_inputs(cfg: dict):
    """fig5_7's model, exchange models and sine signal."""
    objective, exchanges = _sweep_inputs(cfg)
    return objective, exchanges, _sine_from(cfg, objective.n_nodes)


def _custom_inputs(cfg: dict):
    """``custom``'s run config and model."""
    variant = cfg["algo.variant"]
    objective = _objective_from(cfg, cfg["objective.kind"])
    config = AlgoConfig(
        schedule=_schedule_from(cfg),
        perturbation=(PerturbationModel(cfg["perturbation.amplitude"])
                      if "perturbation.amplitude" in cfg else PerturbationModel()),
        exchange=(ExchangeModel(cfg["exchange.p"])
                  if variant == "dosp_incomplete" else None),
        variant=variant,
        sine=(_sine_from(cfg, objective.n_nodes) if variant == "sine_baseline"
              else None))
    return config, objective


# the least value of each count
_MINIMA = {"replications": 1, "replications.utility": 1, "algo.horizon": 1,
           "astar.horizon": 1, "astar.replications": 1, "samples": 1,
           "fuzz": 1, "points": 1}


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
    keys = _custom_keys(cfg) if name == "custom" else _BUILTINS[name][1]
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
    problems += [f"{key} must be in [0, 2**64), got {read[key]}"
                 for key in ("seed", "astar.seed")
                 if not 0 <= read.get(key, 0) < 1 << 64]
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


def _run_all(configs, objective, horizon, seed, replications, jobs: int):
    """The trace of each of ``configs``, config i at ``replications[i]``
    replications, on ``jobs`` processes.

    Each distinct series (one ``dosp._series_key``) runs once, at the most
    replications asked of it; a config that asks fewer gets its prefix.
    Each run of consecutive distinct series that may share a stack and have
    one replication count (a sweep over p, fig5's dosp and sine series, and
    both at once when fig5_7's two counts are equal) runs as one
    ``run_series`` stack, split into at most ``jobs`` contiguous
    sub-stacks; a sub-stack of one config is a ``run``."""
    keys = [_series_key(config) for config in configs]
    most = {}  # each distinct series and the most replications asked of it
    for key, R in zip(keys, replications, strict=True):
        most[key] = max(R, most.get(key, R))
    stacks = []
    for config, R in most.items():
        if (stacks and stacks[-1][1] == R
                and _stack_conflict(stacks[-1][0][0], config) is None):
            stacks[-1][0].append(config)
        else:
            stacks.append(([config], R))
    groups, counts = [], []
    for stack, R in stacks:
        parts = min(jobs, len(stack))
        cuts = [len(stack) * i // parts for i in range(parts + 1)]
        groups += [stack[a:b] for a, b in zip(cuts, cuts[1:])]
        counts += [R] * parts
    args = (groups, repeat(objective), repeat(horizon), repeat(seed), counts)
    if jobs > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            traces = list(pool.map(_run_group, *args))
    else:
        traces = list(map(_run_group, *args))
    runs = dict(zip(most, (t for group in traces for t in group)))
    return [runs[key] if R == most[key] else runs[key].prefix(R)
            for key, R in zip(keys, replications)]


def _run_group(configs, objective, horizon, seed, replications):
    """The traces of one stack; a stack of one goes through ``run``, the
    entry point that perfbench's tracer counts steps at."""
    if len(configs) == 1:
        return [run(configs[0], objective, horizon, seed, replications)]
    return run_series(configs, objective, horizon, seed, replications)


def _safe(label: str) -> str:
    return label.replace(".", "_").replace("/", "-")


# ---------------------------------------------------------------------------
# built-in experiments


_THEOREM5_OMEGA = 2.0
"""Scale Omega of the theorem-5 envelope Omega*(k+1)^(-e) in fig3 and fig4."""


_PASS, _FAIL = "pass", "fail"


def _record(id, measured, bound, tolerance=0.0, ok=None) -> SummaryRecord:
    """The one constructor of a summary record: it passes when ``ok``, by
    default when ``measured <= bound + tolerance``."""
    if ok is None:
        ok = measured <= bound + tolerance
    return SummaryRecord(id, _PASS if ok else _FAIL, measured, bound,
                         tolerance)


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
                      [cfg["replications"]] * len(configs), jobs)
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
    return [_record(f"{name} envelope {tag}", float(r.max()), 1.0) if ok
            else _record(f"{name} ordinal {tag}", float(r.mean()), bound,
                         ok=float(r.mean()) > bound)
            for (_, tag, _), r, ok in zip(series, ratios, covered)]


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


def _sweep_configs(sched, exchanges) -> list:
    """The incomplete-information config of each exchange model."""
    return [AlgoConfig(schedule=sched, variant="dosp_incomplete",
                       exchange=exchange) for exchange in exchanges]


def _p_sweep_records(cfg, outdir, objective, exchanges, traces, label_prefix,
                     record_id):
    """Records of the incomplete-information divergence sweep over p, from
    the trace of each exchange model's series."""
    n = objective.n_nodes
    a_star, a_star_se = analysis.reference_optimum(
        objective, seed=cfg["astar.seed"], horizon=cfg["astar.horizon"],
        replications=cfg["astar.replications"])
    analysis._write_columns(outdir / f"{label_prefix}_astar.csv",
                            ["node", "a_star", "stderr"], np.arange(n),
                            a_star, a_star_se)
    per_replication = []  # each replication's window mean of D/N, per p
    for exchange, trace in zip(exchanges, traces):
        ser = analysis.divergence(trace, a_star)
        d = analysis.divergence_samples(trace, a_star)
        label = _safe(f"{label_prefix}_p_{exchange.p}")
        analysis.write_divergence_csv(outdir / f"{label}.csv", ser)
        window = _window(ser.ks, 1000, cfg["algo.horizon"])
        per_replication.append(d[window].mean(axis=0) / n)
    window_means, window_se = _mean_stderr(np.array(per_replication))
    analysis._write_columns(outdir / f"{label_prefix}_window_means.csv",
                            ["p", "mean_D_over_N", "stderr"],
                            np.array(cfg["p_values"]), window_means, window_se)
    measured = float(np.diff(window_means).min())  # p falls along the list
    return [_record(record_id, measured, 0.0, ok=measured >= 0.0)]


def _fig5_7(cfg, outdir, jobs):
    sched = PowerLawSchedule(beta0=2.5, nu1=0.75, gamma0=12.0, nu2=0.25,
                             index_offset=0)
    objective, exchanges, sine = _fig5_7_inputs(cfg)
    # the exact-gradient baseline runs alone; the dosp and sine series and
    # the p sweep share one stack when their replication counts are equal,
    # and the p = 1 series is the dosp series' (or its first rows)
    configs = [AlgoConfig(schedule=sched, variant="exact_gradient_baseline"),
               AlgoConfig(schedule=sched),
               AlgoConfig(schedule=sched, variant="sine_baseline", sine=sine),
               *_sweep_configs(sched, exchanges)]
    counts = ([cfg["replications.utility"]] * 3
              + [cfg["replications"]] * len(exchanges))
    exact_t, dosp_t, sine_t, *sweep = _run_all(
        configs, objective, cfg["algo.horizon"], cfg["seed"], counts, jobs)
    for label, trace in (("dosp", dosp_t), ("sine", sine_t),
                         ("exact", exact_t)):
        analysis.write_utility_csv(outdir / f"fig5_{label}.csv", trace)

    last_decade = exact_t.ks >= exact_t.ks[-1] // 10
    plateau = float(exact_t.mean_utility[last_decade].mean())
    final_ratio = float(dosp_t.mean_utility[-1]) / plateau
    hit_dosp = _first_hit(dosp_t, 0.9 * plateau)
    hit_sine = _first_hit(sine_t, 0.9 * plateau)
    records = [
        _record("fig5 final utility vs plateau", final_ratio, 1.0, 0.05,
                ok=abs(1.0 - final_ratio) <= 0.05),
        _record("fig5 90%-plateau first hit (dosp < sine)", hit_dosp,
                hit_sine, ok=hit_dosp < hit_sine),
    ]
    records += _p_sweep_records(cfg, outdir, objective, exchanges, sweep,
                                "fig7", "fig7 divergence monotone in p")
    return records


def _fig8(cfg, outdir, jobs):
    sched = PowerLawSchedule(beta0=2.0, nu1=0.75, gamma0=12.0, nu2=0.25,
                             index_offset=1)
    objective, exchanges = _sweep_inputs(cfg)
    traces = _run_all(_sweep_configs(sched, exchanges), objective,
                      cfg["algo.horizon"], cfg["seed"],
                      [cfg["replications"]] * len(exchanges), jobs)
    return _p_sweep_records(cfg, outdir, objective, exchanges, traces,
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
                records.append(_record(
                    f"bias norm {info}a={a} gamma={gamma}",
                    float(np.linalg.norm(bias)), bound,
                    4.0 * float(np.linalg.norm(se))))
                # passes when every |bias| <= 4 SE; a NaN fails
                records.append(_record(
                    f"bias zero {info}a={a} gamma={gamma}",
                    float(np.max(np.abs(bias) - 4.0 * se)), 0.0))
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
    return [_record("exchange expectation closed form", worst, 1e-12)]


def _lemma7_grid(cfg, outdir, jobs):
    grid = np.arange(0.05, 1.0001, 0.05)
    margin = math.inf  # b - g > 0 holds at every point iff g < b does
    for a in grid:
        for b in grid:
            for x in grid:
                g, _ = analysis.lemma7_check(a, b, x)
                margin = min(margin, b - g)
    records = [_record("scalar inequality grid", margin, 0.0, ok=margin > 0.0)]
    for b in (0.1, 0.5, 1.0):
        g, _ = analysis.lemma7_check(1.0, b, 1e-8)
        records.append(_record(f"scalar inequality limit b={b}", abs(g - b),
                               1e-6))
    return records


def _gradient_check(cfg, outdir, jobs):
    rng = np.random.default_rng(cfg["seed"])
    records = []
    step = 1e-5
    for n in (2, 4):
        objective = make_objective("power_pf", n_nodes=n)
        worst = 0.0
        for _ in range(cfg["points"]):
            a = rng.uniform(0.5, 15.0, n)
            s = objective.sample_state(rng)
            g = objective.exact_sample_gradient(a, s)
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                fd = (objective.global_utility(a + e, s)
                      - objective.global_utility(a - e, s)) / (2 * step)
                worst = max(worst, abs(fd - g[i]) / max(abs(fd), 1e-12))
        records.append(_record(f"gradient finite-diff power_pf n={n}", worst,
                               1e-5))
    return records


def _custom(cfg, outdir, jobs):
    config, objective = _custom_inputs(cfg)
    trace = run(config, objective, cfg["algo.horizon"], cfg["seed"],
                cfg["replications"])
    analysis.write_utility_csv(outdir / "custom_utility.csv", trace)
    a_star = objective.optimum()
    if a_star is not None:
        ser = analysis.divergence(trace, a_star)
        analysis.write_divergence_csv(outdir / "custom_divergence.csv", ser)
    return []


# name -> (function, the keys it reads with their defaults); custom reads
# further keys by its objective kind and variant (``_custom_keys``)
_BUILTINS = {
    "fig3": (_fig3, {**_RUN, "replications": 1000, "algo.horizon": 100_000,
                     "beta0_values": (0.23, 0.28, 0.5)}),
    "fig4": (_fig4, {**_RUN, "replications": 1000, "algo.horizon": 100_000}),
    "fig5_7": (_fig5_7, {**_RUN, "replications.utility": 500, **_POWER,
                         "objective.n_nodes": 4, **_SINE, **_ASTAR}),
    "fig8": (_fig8, {**_RUN, **_POWER, "objective.n_nodes": 10, **_ASTAR}),
    "bias_check": (_bias_check, {"seed": 1, "samples": 1_000_000}),
    "lemma3_check": (_lemma3_check, {"seed": 1, "fuzz": 100}),
    # deterministic; takes ``seed`` only because every experiment does
    "lemma7_grid": (_lemma7_grid, {"seed": 1}),
    "gradient_check": (_gradient_check, {"seed": 1, "points": 100}),
    "custom": (_custom, _CUSTOM),
}

BUILTIN_NAMES = tuple(n for n in _BUILTINS if n != "custom")

# name -> the function that builds its inputs from the keys it reads, for
# the experiments whose inputs depend on them
_INPUTS = {"fig3": _fig3_series, "fig5_7": _fig5_7_inputs,
           "fig8": _sweep_inputs, "custom": _custom_inputs}

_KNOWN_KEYS = set().union(*(keys for _, keys in _BUILTINS.values()),
                          *_KIND_KEYS.values(), *_VARIANT_KEYS.values())


def _keys_help() -> str:
    """The keys each experiment reads, with their defaults; custom's further
    keys by objective kind and by variant."""
    groups = [(f"{name}:", keys) for name, (_, keys) in _BUILTINS.items()]
    groups += [(f"  with {key}={choice}:", keys)
               for key, table in (("objective.kind", _KIND_KEYS),
                                  ("algo.variant", _VARIANT_KEYS))
               for choice, keys in table.items()]
    return "\n".join(["keys each experiment reads (key=default):"] + [
        textwrap.fill(" ".join([head] + [
            f"{k}=" + ",".join(map(str, _as_tuple(v)))
            for k, v in keys.items()]), 79, initial_indent="  ",
            subsequent_indent="      ", break_on_hyphens=False)
        for head, keys in groups if keys])


def list_experiments():
    return BUILTIN_NAMES


def run_experiment(name_or_cfg, outdir, seed=None, jobs=1, overrides=None):
    """Run one experiment; returns the summary records (also written to
    ``summary.json`` in ``outdir``).  A config (with ``overrides`` and
    ``seed``) that ``validate_config`` rejects, or ``jobs`` that is not an
    integer >= 1, raises ``ValueError`` before ``outdir`` is made, unless
    only a step-size check fails: as ``dosp.run`` does, this leaves that
    check to the caller."""
    cfg = (dict(name_or_cfg) if isinstance(name_or_cfg, dict)
           else {"name": name_or_cfg})
    cfg.update(overrides or {})
    if seed is not None:
        cfg["seed"] = seed
    name, read, problems, _ = _resolve(cfg)
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral):
        problems.append(f"jobs must be an integer, got {jobs!r}")
    elif jobs < 1:
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
    if getattr(args, "seed", None) is not None:  # run only
        cfg["seed"] = args.seed
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
        records = run_experiment(cfg, args.out, jobs=args.jobs)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in records:
        print(f"{r.status.upper():4s} {r.id}: measured={r.measured:.6g} "
              f"bound={r.bound:.6g} tolerance={r.tolerance:.6g}")
    return 1 if args.check and any(r.status == _FAIL for r in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
