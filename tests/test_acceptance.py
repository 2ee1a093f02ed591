"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (outside pytest's
capture) and then asserts, so the terminal log carries a per-criterion
verdict.  Where a criterion is a built-in experiment, the test runs that
built-in through ``run_experiment`` at its default size and asserts on the
records it writes to ``summary.json``.  The unit-level oracles live in the
other test files.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dospsim.analysis import estimate_M, lemma4_residuals, rate_constants
from dospsim.cli import run_experiment
from dospsim.dosp import (
    AlgoConfig, _chunk_rows, _stepper, _Streams, default_record_ks, run)
from dospsim.exchange import ExchangeModel
from dospsim.objectives import QuadraticToy, make_objective
from dospsim.perturbation import PerturbationModel
from dospsim.schedules import PowerLawSchedule, contraction_start


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def _builtin(name, outdir, seed=None, jobs=1):
    """The summary records of one built-in run, by id."""
    return {r.id: r for r in run_experiment(name, outdir, seed=seed, jobs=jobs)}


def _all_pass(records):
    return all(r.status == "pass" for r in records.values())


_PF_SCHED = PowerLawSchedule(beta0=2.5, nu1=0.75, gamma0=12.0, nu2=0.25,
                             index_offset=0)


def test_acceptance_01_power_law_envelope_vs_beta0(capsys, tmp_path):
    recs = _builtin("fig3", tmp_path, seed=1, jobs=2)
    ordinal = recs["fig3 ordinal beta0=0.23"]
    ok = _all_pass(recs)
    _report(capsys, 1, ok,
            f"max ratio beta0=0.28: {recs['fig3 envelope beta0=0.28'].measured:.3f}, "
            f"beta0=0.5: {recs['fig3 envelope beta0=0.5'].measured:.3f}; "
            f"below-threshold mean {ordinal.measured:.3f} vs largest covered "
            f"mean {ordinal.bound:.3f}")
    assert ok


def test_acceptance_02_envelope_across_exponent_pairs(capsys, tmp_path):
    recs = _builtin("fig4", tmp_path, seed=1, jobs=2)
    ok = len(recs) == 4 and _all_pass(recs)
    worst = max(r.measured for r in recs.values())
    _report(capsys, 2, ok, f"max D_k/envelope over all pairs: {worst:.3f}")
    assert ok


def test_acceptance_03_exchange_expectation_oracle(capsys, tmp_path):
    recs = _builtin("lemma3_check", tmp_path, seed=3)
    worst = recs["exchange expectation closed form"].measured
    ok = _all_pass(recs)
    _report(capsys, 3, ok, f"worst |enumeration - closed form| = {worst:.2e}")
    assert ok


def test_acceptance_04_gradient_estimate_bias(capsys, tmp_path):
    recs = _builtin("bias_check", tmp_path, seed=4)
    # over the O(gamma) bound, in SE units; |bias| - 4*SE (quadratic F:
    # exactly unbiased), with and without exchange
    worst_excess = max(r.measured - r.bound - r.tolerance
                       for r in recs.values() if r.id.startswith("bias norm"))
    worst_zero = max(r.measured for r in recs.values()
                     if r.id.startswith("bias zero"))
    ok = len(recs) == 36 and _all_pass(recs)
    _report(capsys, 4, ok,
            f"worst bound excess {worst_excess:.2e}, "
            f"worst |bias|-4SE {worst_zero:.2e}")
    assert ok


def test_acceptance_05_gradients_vs_finite_differences(capsys, tmp_path):
    recs = _builtin("gradient_check", tmp_path, seed=5)
    worst = max(r.measured for r in recs.values())
    ok = len(recs) == 2 and _all_pass(recs)
    _report(capsys, 5, ok, f"worst relative gradient error {worst:.2e}")
    assert ok


@pytest.fixture(scope="module")
def fig5_7(tmp_path_factory):
    """The records of the default fig5_7 run, and its output directory."""
    outdir = tmp_path_factory.mktemp("fig5_7")
    return _builtin("fig5_7", outdir, seed=1, jobs=2), outdir


def test_acceptance_06_utility_vs_baselines(capsys, fig5_7):
    recs, _ = fig5_7
    final = recs["fig5 final utility vs plateau"]
    hit = recs["fig5 90%-plateau first hit (dosp < sine)"]
    ok = final.status == "pass" and hit.status == "pass"
    _report(capsys, 6, ok,
            f"final/plateau {final.measured:.3f} (need >= 0.95), first "
            f"90%-hit dosp={hit.measured:.0f} vs sine={hit.bound:.0f} "
            f"(need dosp < sine)")
    assert abs(1.0 - final.measured) <= 0.05
    assert hit.measured < hit.bound


def test_acceptance_07_divergence_monotone_in_exchange_probability(capsys, fig5_7):
    recs, outdir = fig5_7
    rec = recs["fig7 divergence monotone in p"]
    rows = (outdir / "fig7_window_means.csv").read_text().split()[1:]
    means = ", ".join(f"{float(m):.2f} ± {float(se):.2f}"
                      for m, se in (row.split(",")[1:] for row in rows))
    ok = rec.status == "pass"
    _report(capsys, 7, ok,
            f"window-averaged D/N along p=1,0.5,0.25,0.1: {means}; smallest "
            f"step {rec.measured:.3g} (need >= 0)")
    assert ok


def test_acceptance_08_performed_actions_respect_box(capsys):
    worst_lo, worst_hi = math.inf, -math.inf
    toy = QuadraticToy()
    pf = make_objective("power_pf", n_nodes=4)
    config = AlgoConfig(schedule=_PF_SCHED,
                        perturbation=PerturbationModel(amplitude=1.0))
    # 25 independent trajectories per model: three seeds at R = 1, so the
    # one-replication path is covered, and 22 replications of a fourth seed
    for objective, first_seed, (lo, hi) in ((toy, 0, (0.0, 3.0)),
                                            (pf, 25, (1e-6, 20.0))):
        for seed, replications in zip(range(first_seed, first_seed + 4),
                                      (1, 1, 1, 22)):
            t = run(config, objective, 10**4, seed=seed,
                    replications=replications)
            worst_lo = min(worst_lo, t.performed_min - lo)
            worst_hi = max(worst_hi, t.performed_max - hi)
    ok = worst_lo >= 0.0 and worst_hi <= 0.0
    _report(capsys, 8, ok,
            f"2 models x 25 trajectories x 1e4 steps; min slack below a_min "
            f"{worst_lo:.2e}, max overshoot above a_max {worst_hi:.2e}")
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

        def first_step(config):
            rows, _, _ = _chunk_rows([config], objective, _Streams(n), 0, 1,
                                     (), 0.0)
            step = _stepper(config, objective)
            performed, new, ghat = np.empty((3,) + a.shape)
            step(a, next(rows), performed, new, ghat)
            return new

        ok &= bool(np.array_equal(first_step(base), first_step(inc)))
    _report(capsys, 9, ok,
            "p=1 trajectories bitwise equal to complete information for "
            "N=2, 4, 10" if ok else "p=1 reduction broke bitwise equality")
    assert ok


def test_acceptance_10_scalar_inequality_grid(capsys, tmp_path):
    recs = _builtin("lemma7_grid", tmp_path)
    margin = recs["scalar inequality grid"].measured
    limit_err = max(r.measured for r in recs.values()
                    if r.id.startswith("scalar inequality limit"))
    ok = _all_pass(recs)
    _report(capsys, 10, ok,
            f"8000-point grid margin {margin:.2e}, limit error {limit_err:.2e}")
    assert ok


def test_acceptance_11_one_step_recursion(capsys):
    toy = QuadraticToy()
    sched = PowerLawSchedule(0.5, 0.75, 1.0, 0.25)
    config = AlgoConfig(schedule=sched,
                        perturbation=PerturbationModel(amplitude=1.0))
    # the default grid with each k + 1: the recursion pairs row k with k + 1
    grid = default_record_ks(0, 10**4)
    trace = run(config, toy, 10**4, seed=11, replications=2000,
                record_ks=np.concatenate([grid, grid[:-1] + 1]))
    consts = rate_constants(toy, PerturbationModel(amplitude=1.0))
    M = estimate_M(trace)
    K0 = contraction_start(sched, consts.A)
    ks, stat, se = lemma4_residuals(trace, toy.optimum(), consts, M, sched, K0)
    excess = stat - 4 * se
    # every grid index from K0 on, except the final one, is checked
    ok = (np.array_equal(ks, grid[(grid >= K0) & (grid < grid[-1])])
          and bool(np.all(excess <= 0.0)))
    _report(capsys, 11, ok,
            f"recursion residual checked at {len(ks)} indices in "
            f"[{K0}, 1e4]; worst stat-4SE = {float(excess.max()):.2e} "
            f"(C = empirical M = {M:.2f})")
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


# SHA-256 of each ``_SMALL`` built-in's files at seed 3
_BUILTIN_DIGESTS = {
    "fig3": "de3fe1cef5aed0e7dbfd9db2b9c30cad0183efe0cde631d71e524bb9fb44f7ea",
    "fig4": "7abc6069c32d0688a7b3af3dd3600953203075b55509b48ddcb3219026b51622",
    "fig5_7": "dcd8fe4a9ea60c255621d20726a3a12ef5518d8f3667e0658ea55bd604305783",
    "fig8": "179eb46b18c3c93b230a2975ccd01feaa041bace826bf1c409fbba984723d23b",
    "bias_check":
        "1503acc77a5dde44861a5432804810a062f48ba86556fa979e110187d71d6dd0",
    "lemma3_check":
        "9e95c0eb1ca0cc595a44f8692834451a95bda49a52130ee0868c874e6c078121",
    "lemma7_grid":
        "44eb4d5c8db1548a3ce0c7c16d9abd4408bc438afd66de09d3b83f1db71f2eca",
    "gradient_check":
        "100d4cc1a543f71729481ed89190c1688c855f4a4e486c724c6a16b374f6a4a8",
}


def test_builtin_outputs_are_pinned(tmp_path):
    """One SHA-256 per ``_SMALL`` built-in over every file it writes at seed
    3: for each of its files in sorted name order, the bytes of
    ``"<name>/<file>"`` and then the file's bytes.  A failure names the
    built-ins whose output moved.

    Like the trace digests of ``test_dosp``, the digests assume numpy's
    Philox bit generator, its raw words (the exchange masks' 32-bit halves)
    and its ``random`` and ``standard_normal`` streams; a numpy release that
    changes any of these changes them too.  Any other
    change to one means that built-in's output changed.
    """
    digests = {}
    for name, overrides in _SMALL.items():
        outdir = tmp_path / name
        run_experiment(name, outdir, seed=3, overrides=overrides)
        h = hashlib.sha256()
        for path in sorted(outdir.iterdir()):
            h.update(f"{name}/{path.name}".encode())
            h.update(path.read_bytes())
        digests[name] = h.hexdigest()
    moved = sorted(name for name in _SMALL
                   if digests[name] != _BUILTIN_DIGESTS[name])
    assert not moved, f"outputs moved: {moved}"


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
