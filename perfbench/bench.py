"""dospsim benchmark: workloads, the timing loop, correctness checks, report.

Run it through ``run.py`` (see README.md in this directory).  A run sets up
its workload several times (fresh import of ``dospsim`` plus building the
objectives and configs), then repeats rounds of the workload's operations
until the requested number of seconds has passed.  An operation is one
``dosp.run`` call or one ``cli.run_experiment`` call; only that call is
timed.  Every operation's output is checked, and every operation's output is
hashed so that a rerun with the same inputs can be compared byte for byte.

The shared machine's speed drifts by a third within a minute, alike for
every workload, so each timed operation and each set-up runs between two
calls of a fixed reference loop that uses no dospsim code, and every timing
metric is calibrated: the measured time divided by the mean of the two
reference times, times ``REF_S``, that is, seconds on a machine where one
reference loop takes ``REF_S``.  The wall-clock views are reported beside
them as ``raw.*``.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Printed with the end-to-end metrics but not listed in BENCHMARK.json: the
# p90 and the wall-clock (raw.*) views drift too far between runs to carry a
# bound, and failed_share is 0 on correct code (the JSON line has
# attempted/failed).  ref_s is the machine's speed during the run.
REPORT_ONLY_UNITS = {"us_per_iter.p90": "us", "raw.setup_s": "s",
                     "raw.wall_s": "s", "raw.us_per_iter.p50": "us",
                     "ref_s": "s", "failed_share": "ratio"}
SETUP_REPEATS = 5  # at start; one more after every round
# Nominal duration of one reference_work() call: calibrated times are seconds
# on a machine where the loop takes this long (about its median, 8-11 ms, on
# a shared 2-core x86-64 VM with Python 3.11 and numpy 2.4).
REF_S = 0.010
REF_STEPS = 250
REF_DRAWS = 60_000
MODULES = ("analysis", "cli", "dosp", "exchange", "objectives", "perturbation",
           "schedules")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no dospsim sources)."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def import_dospsim() -> SimpleNamespace:
    """Import ``dospsim`` afresh from this checkout's ``src/``."""
    if not (SRC / "dospsim" / "__init__.py").is_file():
        raise BenchError(f"no dospsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "dospsim" or m.startswith("dospsim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dospsim")
    if Path(pkg.__file__).resolve().parent != (SRC / "dospsim").resolve():
        raise BenchError(f"imported dospsim from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(
        pkg=pkg, **{m: importlib.import_module(f"dospsim.{m}") for m in MODULES})


def reference_work() -> float:
    """Fixed work that uses no dospsim code, to gauge the machine's speed.

    A Python loop that builds a Philox generator and does scalar and
    small-array arithmetic per step (like a step at R=1), then one large
    normal draw and an elementwise pass over it (like a step at large R).
    """
    acc = 0.0
    for i in range(REF_STEPS):
        x = np.random.Generator(np.random.Philox(key=i)).standard_normal(8)
        acc += float(np.clip(x, -1.0, 1.0).sum()) * (i + 1.0) ** -0.75
    big = np.random.Generator(np.random.Philox(key=0)).standard_normal(REF_DRAWS)
    return acc + float(np.exp(-0.5 * big * big).sum())


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


@dataclass
class Timing:
    """A measured time and the mean of the reference times around it."""

    seconds: float
    ref_s: float = float("nan")

    @property
    def cal(self) -> float:
        """The time in reference units, as seconds at REF_S per unit."""
        return self.seconds / self.ref_s * REF_S


def op_seed(seed: int, round_: int, index: int) -> int:
    """Seed of operation ``index`` in round ``round_``, derived from ``seed``."""
    return int(np.random.SeedSequence([seed, round_, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class EngineWorkload:
    """Repeated ``dosp.run`` calls on one objective, variant and size."""

    name: str
    objective: dict            # keyword arguments of make_objective
    schedule: tuple            # PowerLawSchedule(beta0, nu1, gamma0, nu2, offset)
    variant: str
    p: float | None
    replications: int
    horizon: int
    ops_per_round: int
    min_ops: int = 1

    @property
    def iters_per_op(self) -> int:
        return self.horizon

    @property
    def rep_steps_per_op(self) -> int:
        return self.horizon * self.replications

    def moving_share_q(self):
        """Chance that a node's receive subset is nonempty, 1 - (1-p)^(n-1)."""
        if self.p is None:
            return None
        return 1.0 - (1.0 - self.p) ** (self.objective["n_nodes"] - 1)

    def build(self, lib):
        objective = lib.objectives.make_objective(**self.objective)
        config = lib.dosp.AlgoConfig(
            schedule=lib.schedules.PowerLawSchedule(*self.schedule),
            variant=self.variant,
            exchange=(lib.exchange.ExchangeModel(self.p)
                      if self.p is not None else None))
        return objective, config

    def prepare(self, lib, built, seed):
        return seed

    def call(self, lib, built, seed):
        objective, config = built
        return lib.dosp.run(config, objective, self.horizon, seed,
                            self.replications)

    def check(self, lib, built, seed, trace):
        """Return (problem or None, digest, verdicts) for one run() result."""
        objective, config = built
        h = hashlib.sha256()
        for arr in (trace.ks, trace.actions, trace.mean_utility,
                    trace.utility_stderr, trace.ghat_sq):
            h.update(np.ascontiguousarray(arr).tobytes())
        lo, hi = config.effective_bounds(objective)
        problem = None
        if not (np.isfinite(trace.actions).all()
                and np.isfinite(trace.mean_utility).all()):
            problem = "non-finite actions or utilities"
        elif not lo <= trace.performed_min <= trace.performed_max <= hi:
            problem = (f"performed action in [{trace.performed_min}, "
                       f"{trace.performed_max}], outside the box [{lo}, {hi}]")
        return problem, h.digest(), ()

    def release(self, ctx):
        pass


FIG5_7_RECORDS = ("fig5 final utility vs plateau",
                  "fig5 90%-plateau first hit (dosp < sine)",
                  "fig7 divergence monotone in p")


@dataclass(frozen=True)
class PipelineWorkload:
    """Repeated ``cli.run_experiment("fig5_7")`` calls at reduced size."""

    name: str
    overrides: dict = field(hash=False)
    ops_per_round: int = 1
    min_ops: int = 1

    @property
    def iters_per_op(self) -> int:
        o = self.overrides
        sweep = len(o["p_values"])
        return (3 + sweep) * o["algo.horizon"] + o["astar.horizon"]

    @property
    def rep_steps_per_op(self) -> int:
        o = self.overrides
        return (3 * o["replications.utility"] * o["algo.horizon"]
                + len(o["p_values"]) * o["replications"] * o["algo.horizon"]
                + o["astar.replications"] * o["astar.horizon"])

    def moving_share_q(self):
        return None  # the p sweep mixes several p

    def build(self, lib):
        problems = lib.cli.validate_config({"name": "fig5_7", **self.overrides})
        if problems:
            raise BenchError(f"{self.name}: invalid overrides: {problems}")
        return None

    def prepare(self, lib, built, seed):
        # A fresh `dospsim run` pays the reference-optimum solve; so does
        # every operation here (the astar seed differs per operation too).
        getattr(lib.analysis, "_REF_CACHE", {}).clear()
        OUT.mkdir(parents=True, exist_ok=True)
        return seed, Path(tempfile.mkdtemp(prefix="fig5_7_", dir=OUT))

    def call(self, lib, built, ctx):
        seed, outdir = ctx
        overrides = {**self.overrides, "astar.seed": seed + 1}
        return lib.cli.run_experiment("fig5_7", outdir, seed=seed, jobs=1,
                                      overrides=overrides)

    def check(self, lib, built, ctx, records):
        _, outdir = ctx
        h = hashlib.sha256()
        for path in sorted(outdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        summary = json.loads((outdir / "summary.json").read_text())
        verdicts = tuple((r["id"], r["status"], r["measured"]) for r in summary)
        missing = set(FIG5_7_RECORDS) - {r["id"] for r in summary}
        bad = [r["id"] for r in summary if not math.isfinite(r["measured"])]
        problem = None
        if missing:
            problem = f"summary.json lacks {sorted(missing)}"
        elif bad:
            problem = f"summary.json holds non-finite measured values: {bad}"
        return problem, h.digest(), verdicts

    def release(self, ctx):
        shutil.rmtree(ctx[1], ignore_errors=True)


WORKLOADS = {
    # Bound by the fixed cost of each step: at R=1 the arrays are tiny, so
    # stream setup, scalar schedules and call overhead dominate.
    "toy_r1": EngineWorkload(
        name="toy_r1", objective={"kind": "toy"},
        schedule=(0.5, 0.75, 1.0, 0.25, 1), variant="dosp", p=None,
        replications=1, horizon=300, ops_per_round=10, min_ops=100),
    # Bound by array throughput: 10^5 normal draws per step for the channel
    # states plus the exchange masks and the subset estimator (fig8 schedule).
    "pf10_incomplete_r1000": EngineWorkload(
        name="pf10_incomplete_r1000",
        objective={"kind": "power_pf", "n_nodes": 10},
        schedule=(2.0, 0.75, 12.0, 0.25, 1), variant="dosp_incomplete",
        p=0.5, replications=1000, horizon=20, ops_per_round=5),
    # The experiment pipeline: sine and exact-gradient paths, a p sweep at
    # n=4, the reference-optimum solve, CSV and summary writing, about 2 s
    # per operation so that a run holds a dozen of them.  With 10 utility
    # replications dosp reaches 90% of the plateau well inside 1000 steps
    # (k <= 428 over 80 seeds), so the first-hit record stays finite.
    "fig5_7_pipeline": PipelineWorkload(
        name="fig5_7_pipeline",
        overrides={"replications.utility": 10, "replications": 10,
                   "algo.horizon": 1000, "astar.horizon": 2000,
                   "astar.replications": 10, "p_values": (1.0, 0.25)}),
}


# ---------------------------------------------------------------------------
# measuring


@dataclass
class OpResult:
    key: tuple          # (round, index)
    time: Timing
    digest: bytes
    verdicts: tuple


class Runner:
    """Runs one workload's operations and checks each result."""

    def __init__(self, lib, workload, built, seed: int, setup_times: list):
        self.lib, self.wl, self.built, self.seed = lib, workload, built, seed
        self.setup_times = setup_times
        self.first_digest: dict = {}
        self.failures: list[str] = []
        self.attempted = 0

    def op(self, key, tracer=None, op_id=0) -> OpResult:
        wl, lib, built = self.wl, self.lib, self.built
        ctx = wl.prepare(lib, built, op_seed(self.seed, *key))
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.call(lib, built, ctx)
            else:
                with tracer.operation(op_id):
                    out = wl.call(lib, built, ctx)
            seconds = time.perf_counter() - t0
            problem, digest, verdicts = wl.check(lib, built, ctx, out)
        except Exception as exc:  # an operation that raises counts as failed
            seconds = time.perf_counter() - t0
            problem = "raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
            digest, verdicts = b"", ()
            traceback.print_exc(file=sys.stderr)
        finally:
            wl.release(ctx)
        if problem is None:
            expected = self.first_digest.setdefault(key, digest)
            if digest != expected:
                problem = f"rerun of operation {key} gave a different digest"
        if problem is not None:
            self.failures.append(f"{wl.name} op {key}: {problem}")
        return OpResult(key, Timing(seconds), digest, verdicts)

    def phase(self, seconds: float, tracer=None) -> list[OpResult]:
        """Repeat rounds of operations for ``seconds`` (and min_ops).

        The machine's speed drifts on a scale of seconds and differs between
        its CPUs (other tenants), so consecutive operations run on the
        usable CPUs in turn, each between two reference loops on the same
        CPU, and set-up is timed again after every round so that its
        samples are spread over the run like the operations'.
        """
        out: list[OpResult] = []
        cpus = sorted(os.sched_getaffinity(0))
        deadline = time.perf_counter() + seconds
        r = 0
        try:
            while True:
                gc.collect()  # modules discarded by the last set-up, untimed
                for j in range(self.wl.ops_per_round):
                    os.sched_setaffinity(0, {cpus[len(out) % len(cpus)]})
                    before = time_reference()
                    result = self.op((r, j), tracer, op_id=len(out))
                    result.time.ref_s = (before + time_reference()) / 2
                    out.append(result)
                self.setup_times.append(time_set_up(self.wl)[0])
                r += 1
                if (time.perf_counter() >= deadline
                        and len(out) >= self.wl.min_ops):
                    return out
        finally:
            os.sched_setaffinity(0, cpus)


def time_set_up(workload):
    """One set-up between two reference loops: import dospsim afresh and
    build the workload's objects.

    Returns (Timing, modules, built objects).
    """
    before = time_reference()
    t0 = time.perf_counter()
    lib = import_dospsim()
    built = workload.build(lib)
    seconds = time.perf_counter() - t0
    return Timing(seconds, (before + time_reference()) / 2), lib, built


def percentiles(values):
    """(p50, p90) of ``values``; p90 needs at least two samples."""
    p50 = statistics.median(values)
    p90 = statistics.quantiles(values, n=10)[-1] if len(values) > 1 else p50
    return p50, p90


def us_per_iter(ops, workload, raw=False):
    """Per operation: calibrated (or raw) time / iterations, in us."""
    return [(o.time.seconds if raw else o.time.cal)
            / workload.iters_per_op * 1e6 for o in ops]


def end_to_end(ops, workload, setup_times) -> dict:
    """name -> (value, sample count).  wall_s, rep_steps_per_s and
    us_per_iter.p50 are three views of the median calibrated operation time;
    raw.* are the wall-clock views."""
    p50, p90 = percentiles(us_per_iter(ops, workload))
    wall = statistics.median(o.time.cal for o in ops)
    n, n_setup = len(ops), len(setup_times)
    return {
        "setup_s": (statistics.median(t.cal for t in setup_times), n_setup),
        "wall_s": (wall, n),
        "rep_steps_per_s": (workload.rep_steps_per_op / wall, n),
        "us_per_iter.p50": (p50, n),
        "us_per_iter.p90": (p90, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        1),
        "raw.setup_s": (statistics.median(t.seconds for t in setup_times),
                        n_setup),
        "raw.wall_s": (statistics.median(o.time.seconds for o in ops), n),
        "raw.us_per_iter.p50":
            (statistics.median(us_per_iter(ops, workload, raw=True)), n),
        "ref_s": (statistics.median(o.time.ref_s for o in ops), n),
    }


def per_layer(tracer: spans.Tracer, traced, plain, workload) -> dict:
    """Per-layer metrics from the traced phase, per operation or per call."""
    tot = tracer.totals()
    n_ops = len(traced)

    def layer(*names):
        calls = sum(tot[n].calls for n in names if n in tot)
        self_ns = sum(tot[n].self_ns for n in names if n in tot)
        total_ns = sum(tot[n].total_ns for n in names if n in tot)
        return calls, self_ns, total_ns

    def us_per_call(name):
        calls, self_ns, _ = layer(name)
        return self_ns / 1e3 / calls if calls else 0.0

    def per_op(value):
        return value / n_ops

    iters = sum(h for h, _ in tracer.run_work.values())
    rep_steps = sum(h * r for h, r in tracer.run_work.values())
    ref_steps = sum(h * r for sid, (h, r) in tracer.run_work.items()
                    if tracer.parents[sid] >= 0
                    and tracer.names[tracer.parents[sid]]
                    == "analysis.reference_optimum")
    sched_calls, sched_self, _ = layer("schedules.beta", "schedules.gamma")
    counts = tracer.counts
    node_steps = counts.get("exchange.node_steps", 0)
    traced_p50 = statistics.median(us_per_iter(traced, workload))
    plain_p50 = statistics.median(us_per_iter(plain, workload))
    return {
        "dosp.run.self_us_per_iter": layer("dosp.run")[1] / 1e3 / iters,
        "dosp.rep_steps": per_op(rep_steps),
        "schedules.calls_per_iter": sched_calls / iters,
        "schedules.self_us_per_iter": sched_self / 1e3 / iters,
        "perturbation.sample_array.us_per_call":
            us_per_call("perturbation.sample_array"),
        "perturbation.draws": per_op(counts.get("perturbation.draws", 0)),
        "objectives.sample_state.us_per_call":
            us_per_call("objectives.sample_state"),
        "objectives.sample_state.draws":
            per_op(counts.get("objectives.sample_state.draws", 0)),
        "objectives.observe.us_per_call": us_per_call("objectives.observe"),
        "objectives.global_utility.calls":
            per_op(layer("objectives.global_utility")[0]),
        "objectives.global_utility.us_per_call":
            us_per_call("objectives.global_utility"),
        "objectives.exact_sample_gradient.us_per_call":
            us_per_call("objectives.exact_sample_gradient"),
        "exchange.sample_masks.us_per_call": us_per_call("exchange.sample_masks"),
        "exchange.moving_share":
            counts.get("exchange.nonempty", 0) / node_steps if node_steps else 0.0,
        "analysis.reference_optimum.s":
            per_op(layer("analysis.reference_optimum")[2] / 1e9),
        "analysis.reference_optimum.rep_steps": per_op(ref_steps),
        "analysis.divergence.s": per_op(layer("analysis.divergence")[2] / 1e9),
        "analysis.write_csv.s": per_op(layer("analysis.write_csv")[2] / 1e9),
        "analysis.write_csv.bytes":
            per_op(counts.get("analysis.write_csv.bytes", 0)),
        "cli.run_experiment.self_s": per_op(layer("cli.run_experiment")[1] / 1e9),
        "trace.overhead_us_per_iter": traced_p50 - plain_p50,
    }


def exchange_check(tracer: spans.Tracer, q: float | None):
    """moving_share against its expectation q: (share, q, stderr, z)."""
    steps = tracer.counts.get("exchange.node_steps", 0)
    if q is None or steps == 0:
        return None
    share = tracer.counts["exchange.nonempty"] / steps
    se = math.sqrt(q * (1.0 - q) / steps)
    return share, q, se, (share - q) / se


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(lib, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dospsim": lib.pkg.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


# ---------------------------------------------------------------------------
# one workload, end to end


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 spec: dict, log=print) -> dict:
    """Set up, measure, check and report one workload; returns its result."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t, lib, built = time_set_up(workload)
        setup_times.append(t)
    runner = Runner(lib, workload, built, seed, setup_times)
    env = environment(lib, seed)
    log(f"== {workload.name}  seed={seed} seconds={seconds} trace={int(trace)}")
    log("   env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    tracer = None
    if trace:
        plain = runner.phase(seconds / 2)
        tracer = spans.Tracer()
        with tracer.installed(lib):
            traced = runner.phase(seconds / 2, tracer)
    else:
        plain = runner.phase(seconds)
    runner.op((0, 0))  # determinism: rerun the first operation, same seed

    digest = hashlib.sha256(b"".join(
        o.digest for o in plain if o.key[0] == 0)).hexdigest()
    failed = len(runner.failures)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORT_ONLY_UNITS)
    e2e = end_to_end(plain, workload, setup_times)
    e2e["failed_share"] = (failed / runner.attempted, runner.attempted)
    for name, (value, n) in e2e.items():
        log(f"   {name:<24} {value:>14.6g} {units[name]:<6} n={n}")
    p90 = e2e["us_per_iter.p90"][0]
    log(f"   ({sum(v > p90 for v in us_per_iter(plain, workload))} of the "
        f"us_per_iter samples lie beyond p90)")
    log(f"   digest {digest}  (round 0: {workload.ops_per_round} ops)")
    for o in plain:
        if o.verdicts:
            log(f"   verdicts op {o.key}: " + "; ".join(
                f"{status.upper()} {rid} measured={measured:.6g}"
                for rid, status, measured in o.verdicts))
    for line in runner.failures:
        log(f"   FAILED {line}")

    correct = failed == 0
    if trace:
        metrics = per_layer(tracer, traced, plain, workload)
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            log(f"   {name:<44} {metrics[name]:>14.6g} {units[name]}")
        run_s, tree_s, by_name = tracer.subtree_self_ns("dosp.run")
        log(f"   dosp.run spans: {run_s / 1e9:.6f} s; self times of run() and "
            f"its children: {tree_s / 1e9:.6f} s")
        for name, ns in sorted(by_name.items(), key=lambda kv: -kv[1]):
            log(f"     {name:<40} {ns / max(run_s, 1):8.2%}")
        correct &= run_s == tree_s
        check = exchange_check(tracer, workload.moving_share_q())
        if check is not None:
            share, q, se, z = check
            log(f"   exchange.moving_share {share:.6f} vs q={q:.6f}: "
                f"stderr {se:.2e}, z={z:+.2f} "
                f"({'within' if abs(z) <= 1 else 'outside'} one stderr; "
                f"the check fails beyond four)")
            correct &= abs(z) <= 4.0
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(OUT / f"spans_{workload.name}.csv")
        log(f"   spans: {len(tracer.names)} written to "
            f"{(OUT / f'spans_{workload.name}.csv').relative_to(ROOT)}")
    else:
        metrics = {m["name"]: e2e[m["name"]][0] for m in spec["end_to_end"]}

    result = {"workload": workload.name, "env": env, "trace": int(trace),
              "correct": correct, "attempted": runner.attempted,
              "failed": failed, "digest": digest, "failures": runner.failures,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result_{workload.name}_trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result

