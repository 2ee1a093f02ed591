import json
import math

import pytest

from dospsim.cli import (
    BUILTIN_NAMES,
    _parse_value,
    list_experiments,
    load_config,
    main,
    run_experiment,
    validate_config,
)
from dospsim.dosp import VARIANTS
from dospsim.objectives import OBJECTIVE_KINDS


def test_list_names():
    assert set(BUILTIN_NAMES) == {
        "fig3", "fig4", "fig5_7", "fig8",
        "bias_check", "lemma3_check", "lemma7_grid", "gradient_check",
    }
    assert list_experiments() == BUILTIN_NAMES


def test_parse_value():
    assert _parse_value("3") == 3
    assert _parse_value("0.25") == 0.25
    assert _parse_value("toy") == "toy"
    assert _parse_value("1.0, 0.5, 0.25") == (1.0, 0.5, 0.25)


def test_load_config(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "name = custom\n"
        "# a comment\n"
        "beta0 = 0.5   # trailing comment\n"
        "sine.omegas = 63, 70\n"
        "\n"
    )
    cfg = load_config(p)
    assert cfg == {"name": "custom", "beta0": 0.5, "sine.omegas": (63, 70)}


def test_load_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("beta0 0.5\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        load_config(p)


def test_validate_config_messages():
    assert validate_config({}) == []
    probs = validate_config({"nu1": 0.4})
    assert any("step-size check (ii)" in p for p in probs)
    probs = validate_config({"nu1": 0.8, "nu2": 0.4})
    assert any("step-size check (iii)" in p for p in probs)
    probs = validate_config({"nu2": -0.1})
    assert any("step-size check (i)" in p for p in probs)
    assert any("unknown config key" in p for p in validate_config({"betaO": 1}))
    assert any("objective kind" in p for p in validate_config({"objective.kind": "x"}))
    assert any("algo.variant" in p for p in validate_config({"algo.variant": "x"}))
    assert any("exchange.p" in p for p in validate_config({"exchange.p": 0.0}))
    assert any("experiment name" in p for p in validate_config({"name": "fig9"}))


@pytest.mark.parametrize(
    "key", ["beta0", "gamma0", "noise_variance", "replications", "algo.horizon"])
def test_validate_config_rejects_non_finite_values(key):
    for value in (math.nan, math.inf):
        probs = validate_config({key: value})
        assert any(p.startswith(f"{key} must be finite") for p in probs), probs


def test_every_variant_and_objective_kind_validates():
    for kind in OBJECTIVE_KINDS:
        assert validate_config({"objective.kind": kind}) == []
    for variant in VARIANTS:
        assert validate_config({"algo.variant": variant}) == []


def test_cli_rejects_non_finite_values(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("name = custom\nbeta0 = nan\nalgo.horizon = 5\n")
    assert main(["validate", str(cfg)]) == 2
    assert "beta0 must be finite" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    rc = main(["run", "custom", "--out", str(out), "--set", "noise_variance=nan",
               "--set", "algo.horizon=5", "--allow-invalid-schedule"])
    assert rc == 2
    assert not out.exists()


def test_run_experiment_rejects_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig9", tmp_path)


def test_run_experiment_rejects_unknown_keys(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="bogus.key, replicatoins"):
        run_experiment({"name": "lemma7_grid", "bogus.key": 1}, out,
                       overrides={"replicatoins": 5})
    assert not out.exists()


def test_cli_run_rejects_misspelled_set_key(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "lemma7_grid", "--out", str(out),
               "--set", "replicatoins=5", "--set", "bogus.key=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config key: bogus.key" in err
    assert "unknown config key: replicatoins" in err
    assert not out.exists()


def test_cli_run_rejects_unknown_config_file_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("name = custom\nalgo.horizon = 5\nalgo.horizn = 50\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "unknown config key: algo.horizn" in capsys.readouterr().err
    assert not out.exists()


def test_toy_with_other_node_count_is_refused(tmp_path, capsys):
    probs = validate_config({"objective.kind": "toy", "objective.n_nodes": 5})
    assert any("objective.n_nodes = 5" in p for p in probs), probs
    # the wireless built-ins set their own kind, so n_nodes is theirs to set
    assert validate_config({"name": "fig8", "objective.n_nodes": 4}) == []
    out = tmp_path / "out"
    rc = main(["run", "custom", "--out", str(out), "--set", "objective.kind=toy",
               "--set", "objective.n_nodes=5", "--set", "algo.horizon=5"])
    assert rc == 2
    assert "objective.n_nodes = 5" in capsys.readouterr().err
    assert not out.exists()


def test_process_pool_writes_the_same_files(tmp_path):
    overrides = {"objective.n_nodes": 4, "algo.horizon": 30, "replications": 3,
                 "astar.horizon": 30, "astar.replications": 3}
    one, two = tmp_path / "jobs1", tmp_path / "jobs2"
    run_experiment("fig8", one, jobs=1, overrides=overrides)
    run_experiment("fig8", two, jobs=2, overrides=overrides)
    names = sorted(p.name for p in one.iterdir())
    assert len(names) == 5  # four p values and summary.json
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_cli_validate_command(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("name = fig3\nreplications = 5\n")
    assert main(["validate", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.cfg"
    bad.write_text("name = fig3\nnu1 = 0.4\n")
    assert main(["validate", str(bad)]) == 2
    assert "step-size check (ii)" in capsys.readouterr().out

    assert main(["validate", str(tmp_path / "missing.cfg")]) == 2


def test_cli_run_tiny_custom(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "name = custom\n"
        "algo.horizon = 50\n"
        "replications = 3\n"
        "seed = 2\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    util = (out / "custom_utility.csv").read_text().strip().split("\n")
    assert util[0] == "k,mean_f_over_N,stderr"
    div = (out / "custom_divergence.csv").read_text().strip().split("\n")
    assert div[0].startswith("k,D_k,stderr,")
    assert json.loads((out / "summary.json").read_text()) == []


def test_cli_run_check_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "lemma7_grid", "--out", str(out), "--check"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed
    records = json.loads((out / "summary.json").read_text())
    assert all(r["status"] == "pass" for r in records)


def test_cli_run_rejects_invalid_schedule_override(tmp_path):
    rc = main(["run", "lemma7_grid", "--out", str(tmp_path / "o"),
               "--set", "nu1=0.4"])
    assert rc == 2
    rc = main(["run", "lemma7_grid", "--out", str(tmp_path / "o"),
               "--set", "nu1=0.4", "--allow-invalid-schedule"])
    assert rc == 0
    rc = main(["run", "lemma7_grid", "--out", str(tmp_path / "o"),
               "--set", "nu1"])
    assert rc == 2


def test_cli_run_determinism_small(tmp_path):
    args = ["run", "lemma3_check", "--set", "fuzz=3", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
