"""Experiment runner CLI.

Commands:

* ``dospsim list`` — names of the built-in experiments.
* ``dospsim validate <config>`` — key/value/step-size validation of a config.
* ``dospsim run <name|config> [--seed N] [--out DIR] [--jobs N] [--check]
  [--set key=value ...]`` — run an experiment, writing divergence/utility CSV
  files plus ``summary.json`` (one record per assertion:
  id/status/measured/bound/tolerance).  ``--check`` exits nonzero when any
  assertion failed.  A config that ``validate`` rejects is refused before
  anything is written (a failed step-size check of ``custom``'s schedule only
  without ``--allow-invalid-schedule``).

Configs are flat ``key = value`` text files ('#' starts a comment).  A config
must carry a ``name`` key selecting a built-in (or ``custom`` for a single
free-form run); the remaining keys override that experiment's defaults, and
a key the experiment does not read is refused.  All accept ``seed``
(``lemma7_grid`` is deterministic and ignores it); beyond it they read:

* fig3: replications, algo.horizon, beta0_values; fig4: the first two
* fig5_7, fig8: replications, algo.horizon, the power model (objective.n_nodes,
  omega, kappa, sigma2, noise_variance, a_max) and the reference optimum
  (astar.*, p_values); fig5_7 also replications.utility and sine.*
* bias_check: samples; lemma3_check: fuzz; gradient_check: points
* custom: replications, algo.*, objective.kind, noise_variance,
  beta0, nu1, gamma0, nu2, index_offset, perturbation.amplitude, bounds.*;
  the power model for the power kinds (a_max for power_pf only);
  exchange.p for dosp_incomplete; sine.* for sine_baseline.

Outputs are a deterministic function of the config and seed: reruns produce
byte-identical files.  ``--jobs`` parallelizes the independent series of an
experiment across processes (per-series results are unaffected).
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import SummaryRecord
from .dosp import (
    DEFAULT_SINE_FREQUENCIES,
    VARIANTS,
    AlgoConfig,
    RunTrace,
    SineParams,
    run,
)
from .exchange import ExchangeModel
from .objectives import OBJECTIVE_KINDS, ObjectiveModel, make_objective
from .perturbation import PerturbationModel
from .schedules import (
    PowerLawSchedule,
    rate_diagnostics,
    theorem5_condition,
    validate_a4,
)

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


# The keys each experiment reads, with their defaults, in shared groups.
_RUN = {"seed": 1, "replications": 100, "algo.horizon": 10_000}
_POWER = {"objective.n_nodes": 2, "omega": 20.0, "kappa": 1.0, "sigma2": 0.2,
          "noise_variance": 0.0}
_POWER_PF = {**_POWER, "a_max": 20.0}
_SINE = {"sine.omegas": DEFAULT_SINE_FREQUENCIES, "sine.lambda": 1.5,
         "sine.phase": 0.0}
_ASTAR = {"astar.seed": 90210, "astar.horizon": 10**6,
          "astar.replications": 50, "p_values": (1.0, 0.5, 0.25, 0.1)}
_SCHEDULE = {"beta0": 0.5, "nu1": 0.75, "gamma0": 1.0, "nu2": 0.25,
             "index_offset": 1}
_CUSTOM = {**_RUN, "algo.variant": "dosp",
           "algo.record_stride": 0,  # 0 = default dense+log grid
           "objective.kind": "toy", "noise_variance": 0.0, **_SCHEDULE,
           "perturbation.amplitude": 1.0, "bounds.min": None, "bounds.max": None}


def _custom_keys(cfg: dict) -> dict:
    """The keys ``custom`` reads under the objective kind and variant of
    ``cfg``."""
    kind = cfg.get("objective.kind", _CUSTOM["objective.kind"])
    variant = cfg.get("algo.variant", _CUSTOM["algo.variant"])
    return {**_CUSTOM,
            **({} if kind == "toy" else _POWER_PF if kind == "power_pf"
               else _POWER),
            **({"exchange.p": 1.0} if variant == "dosp_incomplete" else {}),
            **(_SINE if variant == "sine_baseline" else {})}


def _as_tuple(value) -> tuple:
    """A list-valued key; a single entry parses as a scalar."""
    return value if isinstance(value, tuple) else (value,)


def _schedule_from(cfg: dict) -> PowerLawSchedule:
    return PowerLawSchedule(
        beta0=float(cfg["beta0"]), nu1=float(cfg["nu1"]),
        gamma0=float(cfg["gamma0"]), nu2=float(cfg["nu2"]),
        index_offset=int(cfg["index_offset"]),
    )


def _objective_from(cfg: dict, kind: str):
    """The objective ``kind`` with the model parameters of ``cfg``."""
    if kind == "toy":
        return make_objective("toy", noise_variance=float(cfg["noise_variance"]))
    kwargs = dict(
        n_nodes=int(cfg["objective.n_nodes"]),
        omega=float(cfg["omega"]),
        kappa=float(cfg["kappa"]),
        sigma2=float(cfg["sigma2"]),
        noise_variance=float(cfg["noise_variance"]),
    )
    if kind == "power_pf":
        kwargs["bounds"] = (1e-6, float(cfg["a_max"]))
    return make_objective(kind, **kwargs)


def _sine_from(cfg: dict, n: int) -> SineParams:
    omegas = _as_tuple(cfg["sine.omegas"])
    if len(omegas) < n:
        raise ValueError(f"sine.omegas has {len(omegas)} entries, fewer than "
                         f"objective.n_nodes = {n}")
    return SineParams(frequencies=omegas[:n],
                      amplitude=float(cfg["sine.lambda"]),
                      phase=float(cfg["sine.phase"]))


def _resolve(name: str, cfg: dict):
    """Experiment ``name``'s view of ``cfg`` (a config without ``name``).

    Returns the keys ``name`` reads, set or defaulted; the keys of ``cfg``
    that no experiment knows; and one refusal per known key of ``cfg`` that
    ``name`` does not read.
    """
    keys = _BUILTINS[name][1]
    if callable(keys):
        keys = keys(cfg)
    read = {key: cfg.get(key, default) for key, default in keys.items()}
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    unread = [f"{name} does not read {key} = {value!r}"
              for key, value in cfg.items()
              if key in _KNOWN_KEYS and key not in read]
    return read, unknown, unread


def _non_finite(cfg: dict) -> list[str]:
    """One problem per key whose numeric value (or tuple entry) is NaN or
    infinite."""
    return [f"{key} must be finite, got {value!r}"
            for key, value in cfg.items()
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in _as_tuple(value))]


def validate_config(cfg: dict) -> list[str]:
    """Return a list of problems (empty when the config is valid)."""
    cfg = dict(cfg)
    name = cfg.pop("name", "custom")
    if name not in _BUILTINS:
        return [f"unknown experiment name: {name!r}; "
                f"valid: {sorted(BUILTIN_NAMES)}"]
    read, unknown, unread = _resolve(name, cfg)
    problems = ([f"unknown config key: {key}" for key in unknown] + unread
                + _non_finite(cfg))
    if "nu1" in read:
        try:
            report = validate_a4(_schedule_from(read))
        except (ValueError, TypeError) as exc:
            problems.append(f"schedule: {exc}")
        else:
            problems += [f"step-size check {text}" for ok, text in (
                (report.vanishing, "(i) failed: exponents must be positive"),
                (report.square_summable, "(ii) failed: sum of beta^2 diverges "
                                         "(needs nu1 > 0.5)"),
                (report.jointly_divergent, "(iii) failed: sum of beta*gamma "
                                           "converges (needs nu1 + nu2 <= 1)"),
            ) if not ok]
    if "objective.kind" in read and read["objective.kind"] not in OBJECTIVE_KINDS:
        problems.append(f"unknown objective kind: {read['objective.kind']!r}")
    if "algo.variant" in read and read["algo.variant"] not in VARIANTS:
        problems.append(f"unknown algo.variant: {read['algo.variant']!r}")
    for key in ("exchange.p", "p_values"):
        if key in read and not all(0.0 < float(p) <= 1.0
                                   for p in _as_tuple(read[key])):
            problems.append(f"{key} must lie in (0, 1]")
    if "bounds.min" in read and ((read["bounds.min"] is None)
                                 != (read["bounds.max"] is None)):
        problems.append("bounds.min and bounds.max must be set together")
    if "sine.omegas" in read:
        try:  # the toy has two nodes
            _sine_from(read, int(read.get("objective.n_nodes", 2)))
        except (ValueError, TypeError) as exc:
            problems.append(str(exc))
    return problems


# ---------------------------------------------------------------------------
# series execution (parallelizable unit)


@dataclass(frozen=True)
class SeriesTask:
    label: str
    config: AlgoConfig
    objective: ObjectiveModel
    horizon: int
    replications: int
    seed: int


def _execute_task(task: SeriesTask) -> RunTrace:
    return run(task.config, task.objective, task.horizon, task.seed,
               task.replications)


def _run_tasks(tasks, jobs: int):
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_execute_task, tasks))
    return [_execute_task(t) for t in tasks]


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
    tasks = [
        SeriesTask(label, AlgoConfig(schedule=sched), objective,
                   int(cfg["algo.horizon"]), int(cfg["replications"]),
                   int(cfg["seed"]))
        for label, _, sched in series
    ]
    traces = _run_tasks(tasks, jobs)
    ratios, covered = [], []
    for (label, _, sched), trace in zip(series, traces):
        ser = analysis.divergence(trace, objective.optimum())
        M = analysis.estimate_M(trace)
        consts = analysis.rate_constants(objective,
                                         PerturbationModel(amplitude=1.0), M)
        diag = rate_diagnostics(sched, consts.A)
        sel0 = ser.ks == diag.K0
        D_K0 = float(ser.values[sel0][0]) if sel0.any() else float(ser.values[0])
        env = analysis.theorem4_envelopes(diag, consts, D_K0, sched, ser.ks)
        t5 = analysis.theorem5_envelope(sched, _THEOREM5_OMEGA, ser.ks)
        analysis.write_divergence_csv(outdir / f"{_safe(label)}.csv", ser, env, t5)
        window = _window(ser.ks, window_lo)
        ratios.append(ser.values[window] / t5[window])
        covered.append(theorem5_condition(sched, consts.A)[0])
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
    series = [
        (f"fig3_beta0_{b0}", f"beta0={float(b0)}",
         PowerLawSchedule(beta0=float(b0), nu1=0.75, gamma0=1.0, nu2=0.25))
        for b0 in _as_tuple(cfg["beta0_values"])
    ]
    return _toy_envelope_experiment(cfg, outdir, jobs, "fig3", series,
                                    window_lo=1000)


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


def _p_sweep_records(cfg, outdir, jobs, sched, label_prefix, record_id):
    """Incomplete-information divergence sweep over p; returns records."""
    objective = _objective_from(cfg, "power_pf")
    n = objective.n_nodes
    tasks = [
        SeriesTask(f"{label_prefix}_p_{p}",
                   AlgoConfig(schedule=sched, variant="dosp_incomplete",
                              exchange=ExchangeModel(float(p))),
                   objective, int(cfg["algo.horizon"]),
                   int(cfg["replications"]), int(cfg["seed"]))
        for p in _as_tuple(cfg["p_values"])
    ]
    traces = _run_tasks(tasks, jobs)
    a_star = analysis.reference_optimum(
        objective, seed=int(cfg["astar.seed"]),
        horizon=int(cfg["astar.horizon"]),
        replications=int(cfg["astar.replications"]))
    window_means = []
    for task, trace in zip(tasks, traces):
        ser = analysis.divergence(trace, a_star)
        analysis.write_divergence_csv(outdir / f"{_safe(task.label)}.csv", ser)
        window = _window(ser.ks, 1000, int(cfg["algo.horizon"]))
        window_means.append(float(ser.values[window].mean()) / n)
    diffs = np.diff(window_means)  # p decreases along the list
    measured = float(diffs.min()) if diffs.size else 0.0
    return [SummaryRecord(
        id=record_id,
        status="pass" if measured >= 0.0 else "fail",
        measured=measured, bound=0.0, tolerance=0.0)]


def _fig5_7(cfg, outdir, jobs):
    sched = PowerLawSchedule(beta0=2.5, nu1=0.75, gamma0=12.0, nu2=0.25,
                             index_offset=0)
    objective = _objective_from(cfg, "power_pf")
    sine = _sine_from(cfg, objective.n_nodes)
    tasks = [
        SeriesTask(f"fig5_{label}",
                   AlgoConfig(schedule=sched, variant=variant, sine=sine_params),
                   objective, int(cfg["algo.horizon"]),
                   int(cfg["replications.utility"]), int(cfg["seed"]))
        for label, variant, sine_params in (
            ("dosp", "dosp", None),
            ("sine", "sine_baseline", sine),
            ("exact", "exact_gradient_baseline", None))
    ]
    dosp_t, sine_t, exact_t = _run_tasks(tasks, jobs)
    for task, trace in zip(tasks, (dosp_t, sine_t, exact_t)):
        analysis.write_utility_csv(outdir / f"{_safe(task.label)}.csv", trace)

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
    records += _p_sweep_records(cfg, outdir, jobs, sched, "fig7",
                                "fig7 divergence monotone in p")
    return records


def _fig8(cfg, outdir, jobs):
    sched = PowerLawSchedule(beta0=2.0, nu1=0.75, gamma0=12.0, nu2=0.25,
                             index_offset=1)
    return _p_sweep_records(cfg, outdir, jobs, sched, "fig8",
                            "fig8 divergence monotone in p")


def _bias_check(cfg, outdir, jobs):
    objective = make_objective("toy")
    pert = PerturbationModel(amplitude=1.0)
    samples = int(cfg["samples"])
    rng = np.random.default_rng(int(cfg["seed"]))
    records = []
    for exchange in (None, ExchangeModel(0.5)):
        info = "" if exchange is None else f"incomplete p={exchange.p} "
        for a in ((0.0, 0.0), (2.0, 1.0), (0.5, 2.5)):
            for gamma in (1.0, 0.5, 0.1):
                bias, se = analysis.empirical_bias(objective, a, gamma, pert,
                                                   samples, rng,
                                                   exchange=exchange)
                bound = analysis.bias_bound_value(gamma, 2, 2.0, 1.0, 1.0)
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
    from .exchange import lemma3_enumeration_oracle
    rng = np.random.default_rng(int(cfg["seed"]))
    worst = 0.0
    for n in range(2, 7):
        for p in (0.1, 0.25, 0.5, 0.9, 1.0):
            for _ in range(int(cfg["fuzz"])):
                u = rng.normal(0, 5, n)
                got = lemma3_enumeration_oracle(0, u, p)
                want = (1 - (1 - p) ** (n - 1)) * u.sum()
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
    rng = np.random.default_rng(int(cfg["seed"]))
    records = []
    step = 1e-5
    for kind in ("power_pf", "power_sumrate"):
        for n in (2, 4):
            objective = make_objective(kind, n_nodes=n)
            worst = 0.0
            for _ in range(int(cfg["points"])):
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
    sched = _schedule_from(cfg)
    objective = _objective_from(cfg, cfg["objective.kind"])
    variant = cfg["algo.variant"]
    sine = None
    if variant == "sine_baseline":
        sine = _sine_from(cfg, objective.n_nodes)
    lo, hi = cfg["bounds.min"], cfg["bounds.max"]
    bounds = None if lo is None or hi is None else (float(lo), float(hi))
    config = AlgoConfig(
        schedule=sched,
        perturbation=PerturbationModel(amplitude=float(cfg["perturbation.amplitude"])),
        bounds=bounds,
        exchange=(ExchangeModel(float(cfg["exchange.p"]))
                  if variant == "dosp_incomplete" else None),
        variant=variant, sine=sine)
    horizon = int(cfg["algo.horizon"])
    record_ks = None
    stride = int(cfg["algo.record_stride"])
    if stride > 0:
        k0 = sched.first_index
        record_ks = sorted(set(range(k0, k0 + horizon + 1, stride))
                           | {k0 + horizon})
    trace = run(config, objective, horizon, int(cfg["seed"]),
                int(cfg["replications"]), record_ks=record_ks)
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

_KNOWN_KEYS = set().union(
    *(keys for _, keys in _BUILTINS.values() if isinstance(keys, dict)),
    *(_custom_keys({"objective.kind": kind, "algo.variant": variant})
      for kind in OBJECTIVE_KINDS for variant in VARIANTS))


def list_experiments():
    return BUILTIN_NAMES


def run_experiment(name_or_cfg, outdir, seed=None, jobs=1, overrides=None):
    """Run one experiment; returns the summary records (also written to
    ``summary.json`` in ``outdir``)."""
    if isinstance(name_or_cfg, dict):
        cfg = dict(name_or_cfg)
        name = cfg.pop("name", "custom")
    else:
        name, cfg = name_or_cfg, {}
    if name not in _BUILTINS:
        raise ValueError(
            f"unknown experiment {name!r}; valid: {sorted(_BUILTINS)}")
    cfg.update(overrides or {})
    read, unknown, problems = _resolve(name, cfg)
    if unknown:
        problems.insert(0, f"unknown config keys: {', '.join(unknown)}")
    if problems:
        raise ValueError("; ".join(problems))
    if seed is not None:
        read["seed"] = int(seed)
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

    p_run = sub.add_parser("run", help="run an experiment")
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
    if args.command == "validate":
        problems = validate_config(cfg)
        for p in problems:
            print(f"invalid: {p}")
        if problems:
            return 2
        print("ok")
        return 0

    # run
    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, val = item.split("=", 1)
        overrides[key.strip()] = _parse_value(val)
    problems = validate_config({**cfg, **overrides})
    if args.allow_invalid_schedule:
        problems = [p for p in problems if "step-size" not in p]
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 2
    try:
        records = run_experiment(cfg, args.out, seed=args.seed,
                                 jobs=args.jobs, overrides=overrides)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in records if r.status == "fail"]
    for r in records:
        print(f"{r.status.upper():4s} {r.id}: measured={r.measured:.6g} "
              f"bound={r.bound:.6g} tolerance={r.tolerance:.6g}")
    if args.check and failed:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
