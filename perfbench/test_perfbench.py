"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench
import run
import spans

TINY = {
    "toy_r1": dataclasses.replace(
        bench.WORKLOADS["toy_r1"], horizon=20, ops_per_round=2, min_ops=2),
    "pf10_incomplete_r1000": dataclasses.replace(
        bench.WORKLOADS["pf10_incomplete_r1000"], replications=20, horizon=5,
        ops_per_round=2),
    "fig5_7_pipeline": dataclasses.replace(
        bench.WORKLOADS["fig5_7_pipeline"],
        overrides={**bench.WORKLOADS["fig5_7_pipeline"].overrides,
                   "replications.utility": 3, "replications": 3,
                   "algo.horizon": 40, "astar.horizon": 40,
                   "astar.replications": 3}),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    spec = bench.load_spec()
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
              "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(name in line.split() and unit in line.split()
                   for line in lines[:-1]), f"{name} [{unit}] not in the report"


def test_run_self_times_add_up_to_the_run_span():
    wl = TINY["toy_r1"]
    lib = bench.import_dospsim()
    built = wl.build(lib)
    tracer = spans.Tracer()
    with tracer.installed(lib):
        for op in range(3):
            with tracer.operation(op):
                wl.call(lib, built, op)
    assert not hasattr(lib.dosp.run, "__wrapped__")  # originals restored
    runs = [s for s, n in enumerate(tracer.names) if n == "dosp.run"]
    assert len(runs) == 3
    duration, self_sum, by_name = tracer.subtree_self_ns("dosp.run")
    assert duration == self_sum
    assert {"schedules.beta", "schedules.gamma", "perturbation.sample_array",
            "objectives.sample_state", "objectives.observe",
            "objectives.global_utility"} <= set(by_name)
    own = tracer.self_ns()
    for sid, parent in enumerate(tracer.parents):
        assert own[sid] >= 0
        if parent >= 0:
            assert tracer.t0s[parent] <= tracer.t0s[sid]
            assert tracer.t1s[sid] <= tracer.t1s[parent]
    # every run span sits under its operation's root span
    for sid in runs:
        assert tracer.names[tracer.parents[sid]] == "bench.op"


def test_timings_are_calibrated_by_the_reference_loop():
    wl = TINY["toy_r1"]
    ops = [bench.OpResult((0, i), bench.Timing(s, r), b"", ())
           for i, (s, r) in enumerate([(0.2, 0.01), (0.3, 0.02), (0.5, 0.02)])]
    e2e = bench.end_to_end(ops, wl, [bench.Timing(0.05, 0.01)])
    # 20, 15 and 25 reference loops: the median is 20 loops of REF_S each
    assert e2e["wall_s"][0] == pytest.approx(20 * bench.REF_S)
    assert e2e["us_per_iter.p50"][0] == pytest.approx(
        20 * bench.REF_S / wl.horizon * 1e6)
    assert e2e["setup_s"][0] == pytest.approx(5 * bench.REF_S)
    assert e2e["raw.wall_s"][0] == 0.3
    assert e2e["raw.setup_s"][0] == 0.05


def test_digest_depends_on_the_seed_only():
    spec = bench.load_spec()
    wl = TINY["toy_r1"]

    def digest(seed):
        return bench.run_workload(wl, seed, 0, False, spec,
                                  log=lambda *a: None)["digest"]

    first = digest(1)
    assert digest(1) == first
    assert digest(2) != first


def test_refuses_to_run_without_dospsim_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy_r1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
