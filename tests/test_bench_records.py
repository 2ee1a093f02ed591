import json
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_RECORDS = sorted(_ROOT.glob("BENCH_*.json"))


def test_the_repo_keeps_benchmark_records():
    assert _RECORDS, f"no BENCH_*.json in {_ROOT.name}"


@pytest.mark.parametrize("path", _RECORDS, ids=lambda p: p.name)
def test_benchmark_record_parses_and_names_its_machine(path):
    # a measurement is only comparable with the core count and numpy version
    # it was taken with
    env = json.loads(path.read_text()).get("environment")
    assert isinstance(env, dict), f"{path.name} has no environment"
    assert isinstance(env.get("nproc"), int) and env["nproc"] >= 1, path.name
    assert isinstance(env.get("numpy"), str) and env["numpy"], path.name


_SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text())
_WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
_BETTER = {m["name"]: m["better"] for m in _SPEC["end_to_end"]}


@pytest.mark.parametrize("path", _RECORDS, ids=lambda p: p.name)
def test_benchmark_record_names_its_parent_command_and_workloads(path):
    # a speed claim cites before and after numbers: the commit measured
    # against, the command that measured both, and per workload of
    # BENCHMARK.json the runs (a key may add to the name, "... second set")
    record = json.loads(path.read_text())
    parent = record.get("parent_commit")
    assert isinstance(parent, str) and re.fullmatch(r"[0-9a-f]{7,40}", parent), \
        f"{path.name} names no parent_commit"
    command = record.get("command")
    assert isinstance(command, str) and command.strip(), f"{path.name} names no command"
    workloads = record.get("workloads")
    assert isinstance(workloads, dict) and workloads, f"{path.name} has no workloads"
    for key in workloads:
        assert any(key == name or key.startswith(name + " ") for name in _WORKLOADS), \
            f"{path.name}: {key!r} starts with no workload of BENCHMARK.json"


_CLAIMS = [p for p in _RECORDS if isinstance(json.loads(p.read_text()).get("claim"), dict)]


@pytest.mark.parametrize("path", _CLAIMS, ids=lambda p: p.name)
def test_benchmark_claim_names_an_end_to_end_metric_and_its_direction(path):
    # a claimed gain is on an end-to-end metric of a workload of
    # BENCHMARK.json ("metric" and "workload", or the older "metric" of the
    # form "<metric> on <workload>"), and a met claim has its change median
    # on the metric's better side of the parent's
    claim = json.loads(path.read_text())["claim"]
    metric, workload = claim.get("metric"), claim.get("workload")
    if workload is None and isinstance(metric, str):
        metric, _, workload = metric.partition(" on ")
    assert metric in _BETTER, f"{path.name}: {metric!r} is no end_to_end metric"
    assert workload in _WORKLOADS, f"{path.name}: {workload!r} is no workload"
    assert isinstance(claim.get("met"), bool), f"{path.name}: claim has no met"
    parent, change = claim.get("parent_median"), claim.get("change_median")
    if claim["met"] and parent is not None and change is not None:
        better = change < parent if _BETTER[metric] == "lower" else change > parent
        assert better, f"{path.name}: met, yet {metric} moved the wrong way"
