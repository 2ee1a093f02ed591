"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (outside pytest's
capture) and then asserts, so the terminal log carries a per-criterion
verdict.  These are the expensive statistical reproductions; the unit-level
oracles live in the other test files.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from dospsim import analysis
from dospsim.analysis import (
    bias_bound_value,
    divergence,
    empirical_bias,
    estimate_M,
    lemma4_residuals,
    lemma7_check,
    rate_constants,
    reference_optimum,
)
from dospsim.cli import run_experiment
from dospsim.dosp import AlgoConfig, SineParams, _coefficients, _step, _Streams, run
from dospsim.exchange import ExchangeModel, lemma3_enumeration_oracle
from dospsim.objectives import QuadraticToy, make_objective
from dospsim.perturbation import PerturbationModel
from dospsim.schedules import PowerLawSchedule, rate_diagnostics


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def _toy_divergence(beta0, nu1, nu2, horizon=10**5, R=1000, seed=1):
    toy = QuadraticToy()
    config = AlgoConfig(
        schedule=PowerLawSchedule(beta0, nu1, 1.0, nu2),
        perturbation=PerturbationModel(amplitude=1.0),
    )
    trace = run(config, toy, horizon, seed, R)
    return divergence(trace, toy.optimum())


_PF_SCHED = PowerLawSchedule(beta0=2.5, nu1=0.75, gamma0=12.0, nu2=0.25,
                             index_offset=0)


def test_acceptance_01_power_law_envelope_vs_beta0(capsys):
    env = lambda ks: 2.0 * (ks + 1.0) ** -0.5
    ratios = {}
    for b0 in (0.23, 0.28, 0.5):
        ser = _toy_divergence(b0, 0.75, 0.25)
        window = (ser.ks >= 10**3) & (ser.ks <= 10**5)
        ratios[b0] = ser.values[window] / env(ser.ks[window])
    max_28 = float(ratios[0.28].max())
    max_50 = float(ratios[0.5].max())
    ordinal = float(ratios[0.23].mean()) > float(ratios[0.5].mean())
    ok = max_28 <= 1.0 and max_50 <= 1.0 and ordinal
    _report(capsys, 1, ok,
            f"max ratio beta0=0.28: {max_28:.3f}, beta0=0.5: {max_50:.3f}; "
            f"below-threshold mean {ratios[0.23].mean():.3f} vs {ratios[0.5].mean():.3f}")
    assert max_28 <= 1.0 and max_50 <= 1.0
    assert ordinal


def test_acceptance_02_envelope_across_exponent_pairs(capsys):
    worst = -math.inf
    for n1, n2 in ((0.55, 0.15), (0.7, 0.15), (0.5, 0.2), (0.65, 0.35)):
        ser = _toy_divergence(0.4, n1, n2)
        window = ser.ks >= 10**4
        env = 2.0 * (ser.ks[window] + 1.0) ** -0.3
        worst = max(worst, float((ser.values[window] / env).max()))
    ok = worst <= 1.0
    _report(capsys, 2, ok, f"max D_k/envelope over all pairs: {worst:.3f}")
    assert ok


def test_acceptance_03_exchange_expectation_oracle(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in range(2, 7):
        for p in (0.1, 0.25, 0.5, 0.9, 1.0):
            for _ in range(100):
                u = rng.normal(0, 5, n)
                got = lemma3_enumeration_oracle(0, u, p)
                want = (1 - (1 - p) ** (n - 1)) * u.sum()
                worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    _report(capsys, 3, ok, f"worst |enumeration - closed form| = {worst:.2e}")
    assert ok


def test_acceptance_04_gradient_estimate_bias(capsys):
    toy = QuadraticToy()
    pert = PerturbationModel(amplitude=1.0)
    rng = np.random.default_rng(4)
    worst_excess = -math.inf  # over the O(gamma) bound, in SE units
    worst_zero = -math.inf    # |bias| - 4*SE (quadratic F: exactly unbiased)
    points = ((0.0, 0.0), (2.0, 1.0), (0.5, 2.5))
    for exchange in (None, ExchangeModel(0.5)):
        for a in points:
            for gamma in (1.0, 0.5, 0.1):
                bias, se = empirical_bias(toy, a, gamma, pert, 10**6, rng,
                                          exchange=exchange)
                bound = bias_bound_value(gamma, 2, 2.0, 1.0, 1.0)
                norm = float(np.linalg.norm(bias))
                worst_excess = max(worst_excess,
                                   norm - bound - 4 * float(np.linalg.norm(se)))
                worst_zero = max(worst_zero, float(np.max(np.abs(bias) - 4 * se)))
    ok = worst_excess <= 0.0 and worst_zero <= 0.0
    _report(capsys, 4, ok,
            f"worst bound excess {worst_excess:.2e}, "
            f"worst |bias|-4SE {worst_zero:.2e}")
    assert ok


def test_acceptance_05_gradients_vs_finite_differences(capsys):
    rng = np.random.default_rng(5)
    step = 1e-5
    worst = 0.0
    for kind in ("power_pf", "power_sumrate"):
        for n in (2, 4):
            objective = make_objective(kind, n_nodes=n)
            for _ in range(100):
                a = (rng.uniform(0.5, 15.0, n) if kind == "power_pf"
                     else rng.uniform(-1.0, 2.5, n))
                s = objective.sample_state(rng)
                g = objective.exact_sample_gradient(a, s)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = step
                    fd = (objective.global_utility(a + e, s)
                          - objective.global_utility(a - e, s)) / (2 * step)
                    worst = max(worst, abs(fd - g[i]) / max(abs(fd), 1e-12))
    ok = worst <= 1e-5
    _report(capsys, 5, ok, f"worst relative gradient error {worst:.2e}")
    assert ok


@lru_cache(maxsize=None)
def _utility_traces():
    kwargs = dict(n_nodes=4, bounds=(1e-6, 20.0))
    objective = make_objective("power_pf", **kwargs)
    base = AlgoConfig(schedule=_PF_SCHED, perturbation=PerturbationModel(amplitude=1.0))
    sine = replace(base, variant="sine_baseline",
                   sine=SineParams(frequencies=(63.0, 70.0, 56.0, 49.0),
                                   amplitude=1.5))
    exact = replace(base, variant="exact_gradient_baseline")
    traces = {
        name: run(cfg, objective, 10**4, seed=1, replications=500)
        for name, cfg in (("dosp", base), ("sine", sine), ("exact", exact))
    }
    return traces


def _first_hit(trace, level):
    hits = np.flatnonzero(trace.mean_utility >= level)
    return float(trace.ks[hits[0]]) if hits.size else math.inf


def test_acceptance_06_utility_vs_baselines(capsys):
    traces = _utility_traces()
    exact = traces["exact"]
    plateau = float(exact.mean_utility[exact.ks >= exact.ks[-1] // 10].mean())
    final_ratio = float(traces["dosp"].mean_utility[-1]) / plateau
    hit_dosp = _first_hit(traces["dosp"], 0.9 * plateau)
    hit_sine = _first_hit(traces["sine"], 0.9 * plateau)
    ok = abs(1.0 - final_ratio) <= 0.05 and hit_dosp < hit_sine
    _report(capsys, 6, ok,
            f"plateau {plateau:.3f}, final/plateau {final_ratio:.3f} "
            f"(need >= 0.95), first 90%-hit dosp={hit_dosp:.0f} vs "
            f"sine={hit_sine:.0f} (need dosp < sine); at this horizon the "
            f"random-perturbation noise floor dominates — see the analysis "
            f"ledger for why this criterion cannot pass as parameterized")
    assert abs(1.0 - final_ratio) <= 0.05
    assert hit_dosp < hit_sine


def test_acceptance_07_divergence_monotone_in_exchange_probability(capsys):
    kwargs = dict(n_nodes=4, bounds=(1e-6, 20.0))
    objective = make_objective("power_pf", **kwargs)
    a_star = reference_optimum(objective)
    means = []
    for p in (1.0, 0.5, 0.25, 0.1):
        config = AlgoConfig(schedule=_PF_SCHED,
                            perturbation=PerturbationModel(amplitude=1.0),
                            exchange=ExchangeModel(p),
                            variant="dosp_incomplete")
        trace = run(config, objective, 10**4, seed=1, replications=100)
        ser = divergence(trace, a_star)
        window = (ser.ks >= 10**3) & (ser.ks <= 10**4)
        means.append(float(ser.values[window].mean()) / 4)
    diffs = np.diff(means)
    ok = bool(np.all(diffs >= 0.0))
    _report(capsys, 7, ok,
            "window-averaged D/N for p=1,0.5,0.25,0.1: "
            + ", ".join(f"{m:.2f}" for m in means))
    assert ok


def test_acceptance_08_performed_actions_respect_box(capsys):
    worst_lo, worst_hi = math.inf, -math.inf
    toy = QuadraticToy()
    pf = make_objective("power_pf", n_nodes=4)
    config = AlgoConfig(schedule=_PF_SCHED,
                        perturbation=PerturbationModel(amplitude=1.0))
    for seed in range(25):
        t = run(config, toy, 10**4, seed=seed, replications=1)
        worst_lo = min(worst_lo, t.performed_min - 0.0)
        worst_hi = max(worst_hi, t.performed_max - 3.0)
    for seed in range(25, 50):
        t = run(config, pf, 10**4, seed=seed, replications=1)
        worst_lo = min(worst_lo, t.performed_min - 1e-6)
        worst_hi = max(worst_hi, t.performed_max - 20.0)
    ok = worst_lo >= 0.0 and worst_hi <= 0.0
    _report(capsys, 8, ok,
            f"50 seeds x 1e4 steps; min slack below a_min {worst_lo:.2e}, "
            f"max overshoot above a_max {worst_hi:.2e}")
    assert ok


def test_acceptance_09_full_exchange_reduces_to_complete(capsys):
    ok = True
    for kind, n in (("toy", 2), ("power_pf", 4), ("power_pf", 10)):
        objective = (QuadraticToy() if kind == "toy"
                     else make_objective(kind, n_nodes=n))
        sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
        base = AlgoConfig(schedule=sched,
                          perturbation=PerturbationModel(amplitude=1.0))
        inc = replace(base, exchange=ExchangeModel(1.0),
                      variant="dosp_incomplete")
        tc = run(base, objective, 10**3, seed=n, replications=2)
        ti = run(inc, objective, 10**3, seed=n, replications=2)
        ok &= bool(np.array_equal(tc.actions, ti.actions))
        # stepper-level spot check
        a = objective.init_action(np.random.default_rng(n), ())
        coeffs = next(_coefficients(base, objective.bounds, 0, 1))
        sc = _step(base, objective, _Streams(n), 0, a, 0.0, coeffs)
        si = _step(inc, objective, _Streams(n), 0, a, 0.0, coeffs)
        ok &= bool(np.array_equal(sc.new, si.new))
    _report(capsys, 9, ok,
            "p=1 trajectories bitwise equal to complete information for "
            "N=2, 4, 10" if ok else "p=1 reduction broke bitwise equality")
    assert ok


def test_acceptance_10_scalar_inequality_grid(capsys):
    grid = np.arange(0.05, 1.0001, 0.05)
    assert len(grid) == 20
    margin = math.inf
    ok = True
    for a in grid:
        for b in grid:
            for x in grid:
                g, holds = lemma7_check(float(a), float(b), float(x))
                ok &= holds
                margin = min(margin, b - g)
    limit_err = max(abs(lemma7_check(1.0, b, 1e-8)[0] - b)
                    for b in (0.1, 0.5, 1.0))
    ok = ok and margin > 0 and limit_err <= 1e-6
    _report(capsys, 10, ok,
            f"8000-point grid margin {margin:.2e}, limit error {limit_err:.2e}")
    assert ok


def test_acceptance_11_one_step_recursion(capsys):
    toy = QuadraticToy()
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    config = AlgoConfig(schedule=sched,
                        perturbation=PerturbationModel(amplitude=1.0))
    trace = run(config, toy, 10**4, seed=11, replications=2000,
                record_successors=True)
    consts = rate_constants(toy, PerturbationModel(amplitude=1.0),
                            estimate_M(trace))
    diag = rate_diagnostics(sched, consts.A, horizon=10**4)
    ks, stat, se = lemma4_residuals(trace, toy.optimum(), consts, sched, diag.K0)
    excess = stat - 4 * se
    ok = bool(np.all(excess <= 0.0))
    _report(capsys, 11, ok,
            f"recursion residual checked at {len(ks)} indices in "
            f"[{diag.K0}, 1e4]; worst stat-4SE = {float(excess.max()):.2e} "
            f"(C = empirical M = {consts.C:.2f})")
    assert ok


_SMALL = {
    "fig3": {"replications": 5, "algo.horizon": 1200},
    "fig4": {"replications": 5, "algo.horizon": 1200},
    "fig5_7": {"replications": 4, "replications.utility": 4,
               "algo.horizon": 400, "astar.horizon": 2000,
               "astar.replications": 4},
    "fig8": {"replications": 4, "algo.horizon": 300, "astar.horizon": 2000,
             "astar.replications": 4},
    "bias_check": {"samples": 20000},
    "lemma3_check": {"fuzz": 5},
    "lemma7_grid": {},
    "gradient_check": {"points": 5},
}


def test_acceptance_12_builtin_output_determinism(capsys, tmp_path):
    diffs = []
    for name, overrides in _SMALL.items():
        d1, d2 = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        run_experiment(name, d1, seed=3, overrides=overrides)
        run_experiment(name, d2, seed=3, overrides=overrides)
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        if files1 != files2:
            diffs.append(f"{name}: file sets differ")
            continue
        for fname in files1:
            if (d1 / fname).read_bytes() != (d2 / fname).read_bytes():
                diffs.append(f"{name}/{fname}")
    ok = not diffs
    _report(capsys, 12, ok,
            "all built-in experiments rerun byte-identically"
            if ok else f"non-deterministic outputs: {diffs}")
    assert ok
