import csv
import importlib
import json
import math

import numpy as np
import pytest

from dospsim.analysis import theorem5_envelope
from dospsim.cli import (
    BUILTIN_NAMES,
    _BUILTINS,
    _KIND_KEYS,
    _KNOWN_KEYS,
    _POWER,
    _POWER_PF,
    _VARIANT_KEYS,
    _custom_keys,
    _parse_value,
    _resolve,
    list_experiments,
    load_config,
    main,
    run_experiment,
    validate_config,
)
from dospsim.dosp import VARIANTS
from dospsim.objectives import OBJECTIVE_KINDS, make_objective
from dospsim.schedules import PowerLawSchedule, theorem5_condition


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
    assert any("unknown variant 'x'" in p
               for p in validate_config({"algo.variant": "x"}))
    probs = validate_config({"algo.variant": "dosp_incomplete", "exchange.p": 0.0})
    assert "p must be in (0, 1], got 0.0" in probs
    probs = validate_config({"name": "fig8", "p_values": (1.0, 0.0)})
    assert "p must be in (0, 1], got 0.0" in probs
    assert "bounds.min and bounds.max must be set together" in validate_config(
        {"bounds.min": -1.0})
    assert any("experiment name" in p for p in validate_config({"name": "fig9"}))


def test_step_size_check_without_gamma_judges_beta_alone():
    # the exact-gradient baseline reads no nu2, so (iii) asks sum beta = inf
    egb = {"algo.variant": "exact_gradient_baseline"}
    assert validate_config({**egb, "nu1": 0.8}) == []
    assert validate_config({**egb, "nu1": 1.2}) == [
        "step-size check (iii) failed: sum of beta converges (needs nu1 <= 1)"]
    assert validate_config({"algo.variant": "dosp", "nu1": 0.8}) == [
        "step-size check (iii) failed: sum of beta*gamma converges "
        "(needs nu1 + nu2 <= 1)"]


def _schemas():
    """(base config, keys read) for every built-in and every custom
    (objective kind, variant)."""
    for name, (_, keys) in _BUILTINS.items():
        if not callable(keys):
            yield {"name": name}, keys
    for kind in OBJECTIVE_KINDS:
        for variant in VARIANTS:
            base = {"objective.kind": kind, "algo.variant": variant}
            yield base, _custom_keys(base)


@pytest.mark.parametrize(
    "key", ["beta0", "gamma0", "noise_variance", "replications", "algo.horizon"])
def test_validate_config_rejects_non_finite_values(key):
    for value in (math.nan, math.inf):
        probs = validate_config({key: value})
        assert any(p.startswith(f"{key} must be finite") for p in probs), probs


def test_validate_config_refuses_bad_values_of_every_key():
    for base, keys in _schemas():
        for key, default in keys.items():
            bad = [math.nan, math.inf, -math.inf]
            if not isinstance(default, str):
                bad.append("abc")  # text is the type of a text key
            if isinstance(default, int):
                bad.append(2.5)
            for value in bad:
                probs = validate_config({**base, key: value})
                assert len(probs) == 1 and key in probs[0], (base, key, probs)


def _setting(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


# configs that each value check refuses: a type, a range or a pair
_PROBES = [
    ("custom", {"replications": 2.5}),
    ("custom", {"algo.variant": "dosp_incomplete", "exchange.p": "abc"}),
    ("custom", {"noise_variance": math.nan}),
    ("custom", {"bounds.min": -1.0}),
    ("custom", {"bounds.min": 2.0, "bounds.max": 1.0}),
    ("custom", {"perturbation.amplitude": 0.0}),
    ("custom", {"perturbation.amplitude": -1.0}),
    ("custom", {"noise_variance": -0.5}),
    ("custom", {"objective.kind": "power_pf", "omega": 0.0}),
    ("custom", {"objective.kind": "power_sumrate", "kappa": -1.0}),
    ("custom", {"objective.kind": "power_sumrate"}),  # unboxed
    ("fig8", {"sigma2": 0.0}),
    ("fig5_7", {"a_max": 1e-6}),
    ("custom", {"objective.kind": "power_pf", "a_max": -3.0}),
    ("fig8", {"p_values": (1.0, 0.0)}),
    ("fig5_7", {"objective.n_nodes": 5}),
    ("lemma3_check", {"fuzz": 0}),
    ("bias_check", {"samples": 0}),
    ("gradient_check", {"points": 0}),
    ("custom", {"replications": 0}),
    ("custom", {"algo.horizon": 0}),
    ("custom", {"algo.record_stride": -5}),
    ("custom", {"objective.kind": "power_pf", "objective.n_nodes": 1}),
    ("fig8", {"objective.n_nodes": 1}),
    ("fig5_7", {"replications.utility": 0}),
    ("fig8", {"astar.horizon": 0}),
    ("fig8", {"astar.replications": 0}),
    ("fig3", {"beta0_values": 0}),
    ("fig3", {"beta0_values": -1}),
    # powers below the model's least power make the PF utility non-finite
    ("custom", {"objective.kind": "power_pf", "bounds.min": -1,
                "bounds.max": 5}),
]


@pytest.mark.parametrize("target,overrides", [
    pytest.param(target, overrides, id=f"{target}-" + "-".join(
        f"{k}={_setting(v)}" for k, v in overrides.items()))
    for target, overrides in _PROBES
])
def test_validate_run_and_run_experiment_refuse_the_same_configs(
        target, overrides, tmp_path, capsys):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(f"name = {target}\n" + "".join(
        f"{k} = {_setting(v)}\n" for k, v in overrides.items()))
    assert main(["validate", str(cfg)]) == 2
    assert "invalid: " in capsys.readouterr().out
    out = tmp_path / "out"
    argv = ["run", target, "--out", str(out)]
    for k, v in overrides.items():
        argv += ["--set", f"{k}={_setting(v)}"]
    assert main(argv) == 2
    assert "invalid: " in capsys.readouterr().err
    with pytest.raises(ValueError):
        run_experiment(target, out, overrides=overrides)
    assert not out.exists()


def test_run_help_names_every_declared_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    words = capsys.readouterr().out.split()
    for name in _BUILTINS:
        assert f"{name}:" in words
    for key in _KNOWN_KEYS:
        assert any(w.startswith(f"{key}=") for w in words), key
    # the exact-gradient baseline's keys: no perturbation, no gamma
    start = words.index("algo.variant=exact_gradient_baseline:") + 1
    stop = next((j for j in range(start, len(words)) if words[j].endswith(":")),
                len(words))
    listed = {w.split("=")[0] for w in words[start:stop]}
    assert listed == {"beta0", "nu1", "index_offset"}
    assert not listed & {"perturbation.amplitude", "gamma0", "nu2"}


def test_unboxed_sumrate_is_refused_with_one_message():
    message = "power_sumrate overflows without a box: set bounds.min and bounds.max"
    for variant in VARIANTS:
        cfg = {"objective.kind": "power_sumrate", "algo.variant": variant}
        assert validate_config(cfg) == [message]
        assert validate_config({**cfg, "bounds.min": -5.0, "bounds.max": 3.0}) == []


def test_every_variant_and_objective_kind_validates():
    # custom declares the keys of each kind and variant, in the owners' order
    assert tuple(_KIND_KEYS) == OBJECTIVE_KINDS
    assert tuple(_VARIANT_KEYS) == VARIANTS
    for kind in OBJECTIVE_KINDS:
        # the sum-rate model has no box of its own
        box = ({"bounds.min": -5.0, "bounds.max": 3.0}
               if kind == "power_sumrate" else {})
        assert validate_config({"objective.kind": kind, **box}) == []
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
    with pytest.raises(ValueError, match="unknown experiment name: 'fig9'"):
        run_experiment("fig9", tmp_path)


def test_run_experiment_rejects_unknown_keys(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError) as exc:
        run_experiment({"name": "lemma7_grid", "bogus.key": 1}, out,
                       overrides={"replicatoins": 5})
    assert "unknown config key: bogus.key" in str(exc.value)
    assert "unknown config key: replicatoins" in str(exc.value)
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
    # look the CLI up when the test runs: the pool pickles the ``run`` that
    # sys.modules holds then, which differs from the one imported above once
    # another test (perfbench's) has imported dospsim afresh
    run_experiment = importlib.import_module("dospsim.cli").run_experiment
    small = {"algo.horizon": 30, "replications": 3, "astar.horizon": 30,
             "astar.replications": 3}

    def outputs(name, jobs, overrides):
        out = tmp_path / f"{name}_jobs{jobs}"
        run_experiment(name, out, jobs=jobs, overrides=overrides)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    # fig8's sweep of four p values runs as one stack at jobs = 1 and as
    # sub-stacks of 2 + 2 and 1 + 1 + 2 series at jobs = 2 and 3
    assert len(_BUILTINS["fig8"][1]["p_values"]) == 4
    fig8 = {**small, "objective.n_nodes": 4}
    one = outputs("fig8", 1, fig8)
    # four p values, a*, the window means and summary.json
    assert len(one) == 7
    for jobs in (2, 3):
        assert outputs("fig8", jobs, fig8) == one, jobs
    fig5_7 = {**small, "replications.utility": 3}
    one = outputs("fig5_7", 1, fig5_7)
    # three utility series, four p values, a*, the window means, summary.json
    assert len(one) == 10
    assert outputs("fig5_7", 2, fig5_7) == one


def test_power_config_defaults_are_the_model_defaults():
    # the keys of the model parameters default to what the model does
    for kind, keys in (("power_pf", _POWER_PF), ("power_sumrate", _POWER)):
        model = make_objective(kind)
        for key, default in keys.items():
            if key == "objective.n_nodes":  # the experiments set their own
                continue
            value = model.bounds[1] if key == "a_max" else getattr(model, key)
            assert (value, type(value)) == (default, type(default)), (kind, key)


def test_fig3_splits_envelope_and_ordinal_at_the_theorem5_threshold(tmp_path):
    # the toy's A is 2, so beta0*gamma0 >= 0.25 is covered by the envelope
    records = run_experiment("fig3", tmp_path, overrides={
        "beta0_values": (0.2, 0.3), "replications": 5, "algo.horizon": 1200})
    assert [r.id for r in records] == ["fig3 ordinal beta0=0.2",
                                       "fig3 envelope beta0=0.3"]
    for b0, record in zip((0.2, 0.3), records):
        covered, _ = theorem5_condition(PowerLawSchedule(b0, 0.75, 1.0, 0.25), 2.0)
        assert ("envelope" in record.id) == covered
    # the ordinal bound is the mean ratio of the covered series
    assert math.isfinite(records[0].bound)
    # each CSV carries the theorem-5 envelope with Omega = 2, bit for bit
    for b0 in (0.2, 0.3):
        name = f"fig3_beta0_{b0}".replace(".", "_") + ".csv"
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["k", "D_k", "stderr", "envelope_theorem5"]
        ks = np.array([int(row["k"]) for row in rows])
        written = np.array([float(row["envelope_theorem5"]) for row in rows])
        want = theorem5_envelope(PowerLawSchedule(b0, 0.75, 1.0, 0.25), 2.0, ks)
        assert np.array_equal(written, want)


def test_cli_validate_command(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("name = custom\nreplications = 5\n")
    assert main(["validate", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.cfg"
    bad.write_text("name = custom\nnu1 = 0.4\n")
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
    small = ["--set", "algo.horizon=5", "--set", "replications=2"]
    rc = main(["run", "custom", "--out", str(tmp_path / "o"),
               "--set", "nu1=0.4"] + small)
    assert rc == 2
    assert not (tmp_path / "o").exists()
    rc = main(["run", "custom", "--out", str(tmp_path / "o"),
               "--set", "nu1=0.4", "--allow-invalid-schedule"] + small)
    assert rc == 0
    rc = main(["run", "custom", "--out", str(tmp_path / "o"),
               "--set", "nu1"] + small)
    assert rc == 2


def test_run_experiment_leaves_step_size_checks_to_the_caller(tmp_path):
    out = tmp_path / "out"
    assert run_experiment("custom", out, overrides={
        "nu1": 0.4, "algo.horizon": 5, "replications": 2}) == []
    assert (out / "custom_utility.csv").exists()


def test_cli_run_determinism_small(tmp_path):
    args = ["run", "lemma3_check", "--set", "fuzz=3", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class _ReadRecorder(dict):
    """A config that records which keys an experiment looks up."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.reads = set()

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


_READ_SIZES = {
    "fig3": {"replications": 2, "algo.horizon": 30},
    "fig4": {"replications": 2, "algo.horizon": 30},
    "fig5_7": {"replications": 2, "replications.utility": 2,
               "algo.horizon": 30, "astar.horizon": 30,
               "astar.replications": 2},
    "fig8": {"replications": 2, "algo.horizon": 30, "astar.horizon": 30,
             "astar.replications": 2},
    "bias_check": {"samples": 100},
    "lemma3_check": {"fuzz": 2},
    "lemma7_grid": {},
    "gradient_check": {"points": 2},
}


@pytest.mark.parametrize("name,overrides", [
    pytest.param(name, overrides, id=name)
    for name, overrides in _READ_SIZES.items()
] + [
    # the sum-rate model is unbounded and needs a box to stay finite
    pytest.param("custom", {"objective.kind": kind, "algo.variant": variant,
                            "replications": 2, "algo.horizon": 5,
                            **({"bounds.min": -1.0, "bounds.max": 2.5}
                               if kind == "power_sumrate" else {})},
                 id=f"custom-{kind}-{variant}")
    for kind in OBJECTIVE_KINDS for variant in VARIANTS
])
def test_each_experiment_reads_exactly_the_keys_it_declares(
        name, overrides, tmp_path):
    _, read, problems, step_size = _resolve({"name": name, **overrides})
    assert problems == [] and step_size == []
    cfg = _ReadRecorder(read)
    _BUILTINS[name][0](cfg, tmp_path, 1)
    # every experiment takes --seed; the scalar grid is deterministic
    declared = set(read) - ({"seed"} if name == "lemma7_grid" else set())
    assert cfg.reads == declared


@pytest.mark.parametrize("target,unread,read", [
    ("fig3", {"noise_variance": 5.0, "perturbation.amplitude": 0.3,
              "a_max": 1.0, "nu1": 0.4, "objective.kind": "power_pf"}, {}),
    ("fig8", {"algo.variant": "sine_baseline", "exchange.p": 0.01,
              "index_offset": 0}, {}),
    ("custom", {"omega": 5.0, "a_max": 1.0, "exchange.p": 0.5,
                "sine.lambda": 2.0}, {"algo.horizon": 5}),
    ("custom", {"a_max": 1.0},
     {"objective.kind": "power_sumrate", "algo.horizon": 5}),
    ("custom", {"perturbation.amplitude": 0.5, "gamma0": 3.0, "nu2": 0.1},
     {"algo.variant": "exact_gradient_baseline", "algo.horizon": 5}),
    ("custom", {"perturbation.amplitude": 0.5},
     {"algo.variant": "sine_baseline", "algo.horizon": 5}),
])
def test_keys_an_experiment_does_not_read_are_refused(
        target, unread, read, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", target, "--out", str(out)]
    for key, value in {**unread, **read}.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    for key, value in unread.items():
        assert f"{target} does not read {key} = {value!r}" in err
    assert err.count("does not read") == len(unread)
    with pytest.raises(ValueError, match="does not read"):
        run_experiment(target, out, overrides={**unread, **read})
    assert not out.exists()


def test_validate_reports_unread_keys_without_checking_them(tmp_path, capsys):
    cfg = tmp_path / "fig3.cfg"
    cfg.write_text("name = fig3\nnu1 = 0.4\n")
    assert main(["validate", str(cfg)]) == 2
    printed = capsys.readouterr().out
    assert "fig3 does not read nu1 = 0.4" in printed
    assert "step-size" not in printed


def test_sine_frequencies_must_cover_every_node(tmp_path, capsys):
    probs = validate_config({"name": "fig5_7", "objective.n_nodes": 5})
    assert "sine.omegas has 4 entries, fewer than objective.n_nodes = 5" in probs
    assert validate_config({"name": "fig5_7", "objective.n_nodes": 5,
                            "sine.omegas": (63, 70, 56, 49, 80)}) == []
    probs = validate_config({"algo.variant": "sine_baseline", "sine.omegas": 63})
    assert "sine.omegas has 1 entries, fewer than objective.n_nodes = 2" in probs
    probs = validate_config({"algo.variant": "sine_baseline",
                             "sine.omegas": (10, 20, 30)})
    assert "sum of two sine frequencies collides with a third" in probs
    out = tmp_path / "out"
    assert main(["run", "fig5_7", "--out", str(out),
                 "--set", "objective.n_nodes=5"]) == 2
    assert "sine.omegas has 4 entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_run_reports_a_diverging_run(tmp_path, capsys):
    # in so wide a box the sum-rate powers e^a overflow
    cfg = tmp_path / "sumrate.cfg"
    cfg.write_text("name = custom\nobjective.kind = power_sumrate\n"
                   "objective.n_nodes = 3\nalgo.variant = dosp_incomplete\n"
                   "exchange.p = 0.5\nseed = 3\nalgo.horizon = 400\n"
                   "bounds.min = -1000\nbounds.max = 1000\n")
    assert main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "non-finite iterate" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig8", "lemma7_grid"])
def test_run_experiment_refuses_jobs_below_one(name, tmp_path):
    # fig8's p sweep used to divide by zero splitting its stack, after
    # making the output directory
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
        run_experiment(name, out, jobs=0)
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_refused(jobs, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "lemma7_grid", "--out", str(out), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"--jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()
