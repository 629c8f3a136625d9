"""Command-line interface: subcommands, artifacts, exit codes."""

import csv
import json
from dataclasses import fields, replace

import pytest

from pinnet.cli import main
from pinnet.harness import FixedGainRow, load_scenario, save_scenario
from pinnet.stability import StabilityParams

from test_harness import tiny_single


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(tiny_single(), path)
    return path


def test_gen_scenario_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "profiles"
    code = main(["gen-scenario", "--profile", "multi-50", "--out", str(out)])
    assert code == 0
    sc = load_scenario(out / "multi-50.json")
    assert sc.kind == "multi"
    assert "wrote" in capsys.readouterr().out


def test_gen_scenario_stdout_and_seed(capsys):
    code = main(["gen-scenario", "--profile", "single-50", "--seed", "99"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rng_seed"] == 99
    assert payload["n"] == 50


def test_simulate_emits_artifacts_and_json(tmp_path, scenario_file, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.json").exists()


def test_simulate_infeasible_exit_code(tmp_path, capsys):
    sc = tiny_single()
    sc = replace(
        sc,
        threshold=1.0,
        ga=replace(sc.ga, stability=StabilityParams(delta=1.0, c_max=0.1)),
    )
    path = tmp_path / "infeasible.json"
    save_scenario(sc, path)
    assert main(["simulate", "--scenario", str(path)]) == 2


def test_simulate_seed_and_tol_overrides(scenario_file, capsys):
    code = main(
        ["simulate", "--scenario", str(scenario_file), "--seed", "5", "--tol", "0.5"]
    )
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_batch_writes_summary(tmp_path, scenario_file, capsys):
    out = tmp_path / "batch"
    code = main(
        ["batch", "--scenario", str(scenario_file), "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 2
    assert (out / "trials.csv").exists()
    assert (out / "batch_summary.json").exists()
    assert (out / "trial_001" / "summary.json").exists()


def test_fixed_gain_study_cli(tmp_path, scenario_file, capsys):
    out = tmp_path / "study"
    code = main(
        [
            "fixed-gain",
            "--scenario",
            str(scenario_file),
            "--gains",
            "1,50",
            "--trials",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baseline"]["label"] == "lmi"
    with open(out / "fixed_gain_study.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [f.name for f in fields(FixedGainRow)]
        rows = list(reader)
    expected = [payload["baseline"], *payload["fixed_gains"]]
    assert len(rows) == len(expected) == 3
    for row, want in zip(rows, expected):
        assert row["label"] == want["label"]
        for name in reader.fieldnames[1:]:
            if want[name] is None:
                assert row[name] == ""
            else:
                assert float(row[name]) == want[name]


def test_oracle_cli(scenario_file, capsys):
    code = main(["oracle", "--scenario", str(scenario_file)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["minimal_count"] >= 1


def test_oracle_writes_its_verdict_when_nothing_certifies(tmp_path, capsys):
    # no edges, so pinning every node at c_max gives lambda_min 2 < delta
    sc = tiny_single(n=9)
    sc = replace(
        sc, threshold=1.0, ga=replace(sc.ga, stability=StabilityParams(delta=3.0, c_max=1.0))
    )
    path, out = tmp_path / "uncertifiable.json", tmp_path / "oracle"
    save_scenario(sc, path)
    assert main(["oracle", "--scenario", str(path), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out) == {"feasible": False}
    assert json.loads((out / "oracle.json").read_text()) == {"feasible": False}


def test_missing_scenario_is_error(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate"], "--scenario <file> or --profile <name>"),
        (["oracle", "--profile", "multi-50"], "single-network scenarios only"),
        (["simulate", "--profile", "single-50", "--tol", "nan"], "convergence_tol must be finite"),
        (["fixed-gain", "--profile", "single-50", "--gains", "1,inf"], "gains must be finite"),
        (["fixed-gain", "--profile", "single-50", "--gains", "nan"], "gains must be finite"),
    ],
    ids=["no-scenario", "oracle-on-multi", "nan-tol", "inf-gain", "nan-gain"],
)
def test_usage_error_is_one_error_line(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_profile_flag_loads_builtin(capsys):
    # oracle on a built-in 50-node profile exceeds the enumeration cap: error
    assert main(["oracle", "--profile", "single-50"]) == 1
    assert "capped" in capsys.readouterr().err


def test_unknown_profile_is_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    assert main(["gen-scenario", "--profile", "multi-50", "--out", str(path)]) == 0
    d = json.loads(path.read_text())
    d["profile"] = "no-such-profile"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no-such-profile" in err and "small-50" in err


@pytest.mark.parametrize("section", ["top-level", "ga", "sim", "stability"])
def test_unknown_scenario_key_is_error(tmp_path, scenario_file, capsys, section):
    d = json.loads(scenario_file.read_text())
    sections = {"top-level": d, "ga": d["ga"], "sim": d["sim"], "stability": d["ga"]["stability"]}
    sections[section]["no_such_knob"] = 1
    scenario_file.write_text(json.dumps(d))
    assert main(["simulate", "--scenario", str(scenario_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"unknown {section} key" in err and "no_such_knob" in err


def test_divergence_is_error(tmp_path, capsys):
    sc = tiny_single()
    # explicit Euler at a step far past its stability limit blows up
    sc = replace(sc, sim=replace(sc.sim, integrator="euler", dt=2.0, horizon=200.0))
    path = tmp_path / "diverging.json"
    save_scenario(sc, path)
    assert main(["simulate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "diverged" in err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: d.pop("threshold"), "threshold"),
        (lambda d: d["ga"].update(population_size="100"), "ga.population_size"),
        (lambda d: d["networks"][0].pop("gamma"), "networks[0].gamma"),
        (lambda d: d["sim"].update(convergence_tol=NAN), "convergence_tol must be finite"),
        (lambda d: d["sim"].update(dt=NAN), "dt must be finite"),
        (lambda d: d["sim"].update(horizon=INF), "horizon must be finite"),
        (lambda d: d["ga"].update(penalty_coeff=NAN), "penalty_coeff must be finite"),
        (lambda d: d["ga"].update(fixed_gain=INF), "fixed_gain must be finite"),
        (lambda d: d["ga"]["stability"].update(c_max=INF), "c_max must be finite"),
        (lambda d: d["ga"]["stability"].update(delta=NAN), "delta must be finite"),
        (lambda d: d["networks"][0].update(init_std=NAN), "init_std must be finite"),
        (lambda d: d["networks"][0].update(target=NAN), "target must be finite"),
        (lambda d: d["networks"][0].update(coupling_strength=INF), "coupling_strength must be"),
    ],
    ids=[
        "missing-threshold",
        "string-population-size",
        "missing-gamma",
        "nan-convergence-tol",
        "nan-dt",
        "inf-horizon",
        "nan-penalty-coeff",
        "inf-fixed-gain",
        "inf-c-max",
        "nan-delta",
        "nan-init-std",
        "nan-target",
        "inf-coupling",
    ],
)
def test_malformed_scenario_is_error(tmp_path, capsys, edit, named):
    file = tmp_path / "single-50.json"
    assert main(["gen-scenario", "--profile", "single-50", "--out", str(file)]) == 0
    d = json.loads(file.read_text())
    edit(d)
    file.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "edit, line",
    [
        (
            lambda d: d["networks"][1].update(init_std=NAN),
            "error: scenario key networks[1]: init_std must be finite, got nan\n",
        ),
        (
            lambda d: d["ga"]["stability"].update(q=-1.0),
            "error: scenario key ga.stability: q must be finite and > 0, got -1.0\n",
        ),
    ],
    ids=["nan-init-std-of-network-1", "negative-q"],
)
def test_value_error_names_its_json_path(tmp_path, capsys, edit, line):
    file = tmp_path / "multi-50.json"
    assert main(["gen-scenario", "--profile", "multi-50", "--out", str(file)]) == 0
    d = json.loads(file.read_text())
    edit(d)
    file.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(file)]) == 1
    assert capsys.readouterr().err == line
