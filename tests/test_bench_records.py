import json
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
