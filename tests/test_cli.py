import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from stratlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    path = resources.files("stratlab") / "schemas" / name
    return json.loads(path.read_text())


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "prior": "fig1:gamma=1",
        "signal_model": {"p1": 1.0, "p2": 0.0},
        "spec1": {"kind": "reveal_then_follow_leader", "params": {}},
        "spec2": {"kind": "infer_then_commit_follower", "params": {}},
        "horizon": 500,
        "trials": 8,
        "feedback_mode": "full",
        "master_seed": 73,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_stackval_game(capsys):
    code, out, _ = run_cli(capsys, "stackval", "--game", "fig1_g2:gamma=1", "--player", "2")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "stackval.json")
    assert payload["value"] == pytest.approx(2.0, abs=1e-6)
    assert payload["leader_strategy"] == pytest.approx([0.0, 1.0])
    assert payload["follower_action_label"] == "B"


def test_stackval_prior(capsys):
    code, out, _ = run_cli(capsys, "stackval", "--prior", "fig1:gamma=1", "--player", "2")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "stackval.json")
    assert payload["expected_value"] == pytest.approx(1.5, abs=1e-6)


def test_stackval_single_cell_game(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            {"name": "single", "actions1": ["A"], "actions2": ["B"], "u1": [[3.5]], "u2": [[-1.0]]}
        )
    )
    code, out, _ = run_cli(capsys, "stackval", "--game", str(path), "--player", "1")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.5)


def test_stackval_argument_errors(capsys):
    code, _, err = run_cli(capsys, "stackval", "--player", "1")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "stackval", "--game", "nope_ref", "--player", "1")
    assert code == 1


@pytest.mark.parametrize(
    "where, value, what",
    [
        ("weight", "0.5", "prior weight"),
        ("weight", "x", "prior weight"),
        ("u1", True, "game u1 entry"),
        ("u1", "3", "game u1 entry"),
        ("u2", "x", "game u2 entry"),
    ],
)
def test_prior_and_game_numbers_are_checked(capsys, tmp_path, where, value, what):
    game = {"name": "g", "u1": [[1.0, 0.0], [0.0, 1.0]], "u2": [[0.0, 1.0], [1.0, 0.0]]}
    prior = {"games": [{"weight": 0.5, "game": game}, {"weight": 0.5, "game": "fig1_g1:gamma=1"}]}
    if where == "weight":
        prior["games"][0]["weight"] = value
    else:
        game[where][0][1] = value
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(prior))
    code, _, err = run_cli(capsys, "stackval", "--prior", str(path), "--player", "1")
    assert code == 1 and err.startswith(f"error: {what} must be a number, got {value!r}")


def test_cli_runs_without_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, stratlab.cli; "
        "code = stratlab.cli.main(['stackval', '--game', 'fig1_g1:gamma=1', '--player', '1']); "
        "assert code == 0, code; "
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_simulate_writes_csv_and_schema_valid_summary(capsys, tiny_config, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", tiny_config, "--out", str(out_dir), "--trials", "4"
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "summary.json")
    assert payload["estimate"]["trials"] == 4
    csv_lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert csv_lines[0] == (
        "trial,realized_game,s1,s2,t,avg_u1,avg_u2,"
        "ext_regret1,ext_regret2,swap_regret1,swap_regret2"
    )
    assert len(csv_lines) == 1 + 4 * len(payload["estimate"]["checkpoints"])


def test_simulate_override_paths(capsys, tiny_config, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--config",
        tiny_config,
        "--out",
        str(tmp_path),
        "--trials",
        "2",
        "--horizon",
        "64",
        "--set",
        "signal_model.p2=0.5",
        "--set",
        "spec2.params.initial_epoch=32",
        "--set",
        "spec2.kind=stackelberg_leader",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["signal_model"]["p2"] == 0.5
    assert payload["config"]["horizon"] == 64
    assert payload["config"]["spec2"]["kind"] == "stackelberg_leader"
    assert payload["config"]["spec2"]["params"]["initial_epoch"] == 32


def test_override_must_reference_existing_keys(capsys, tiny_config):
    code, _, err = run_cli(
        capsys, "simulate", "--config", tiny_config, "--set", "signal_model.p9=0.5"
    )
    assert code == 1 and "does not exist" in err


def test_zero_tail_window_is_error(capsys, tiny_config):
    code, _, err = run_cli(
        capsys, "simulate", "--config", tiny_config, "--set", "tail_window=0",
        "--trials", "2", "--horizon", "10",
    )
    assert code == 1 and err.startswith("error:") and "tail_window" in err


def test_unknown_learner_param_is_error(capsys, tiny_config):
    code, _, err = run_cli(
        capsys, "simulate", "--config", tiny_config, "--set", "spec2.params.etaa=1"
    )
    assert code == 1 and "etaa" in err
    # Params of the wrong type are errors too, never tracebacks or coercions.
    mimic = ["spec1.kind=mimic_deviation", 'spec1.params.base={"kind": "best_responder"}']
    for overrides, name in (
        (["spec1.kind=stackelberg_leader", 'spec1.params.b="x"'], "'b'"),
        (["spec2.kind=no_swap_regret_bandit", "spec2.params.eta=true"], "'eta'"),
        (mimic + ['spec1.params.signal="x"'], "'signal'"),
        (mimic + ["spec1.params.signal=1.7"], "'signal'"),
    ):
        argv = ["simulate", "--config", tiny_config, "--trials", "1", "--horizon", "5"]
        for assignment in overrides:
            argv += ["--set", assignment]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("error:") and name in err


@pytest.mark.parametrize(
    "assignment, key",
    [
        ("trials=2.9", "trials"),
        ("horizon=10.7", "horizon"),
        ('pure_realization="false"', "pure_realization"),
        ('trials="x"', "trials"),
        ('signal_model.p1="x"', "signal_model.p1"),
        ("tail_threshold=null", "tail_threshold"),
        ("signal_model=5", "signal_model"),
    ],
)
def test_config_field_types_are_checked(capsys, assignment, key):
    config = str(Path(__file__).resolve().parent.parent / "configs" / "reveal_follow.json")
    code, _, err = run_cli(capsys, "simulate", "--config", config, "--set", assignment)
    assert code == 1 and err.startswith(f"error: config key {key!r} must be ")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("learn", "--tau", "nan"),
        ("learn", "--tau", "-0.1"),
        ("claims", "--tol", "nan"),
        ("claims", "--tol", "-0.1"),
        ("simulate", "--threads", "-3"),
        ("audit", "--threads", "0"),
    ],
)
def test_bad_numeric_flags_are_errors(capsys, command, flag, value):
    configs = Path(__file__).resolve().parent.parent / "configs"
    argv = [command, "--trials", "2", "--horizon", "10", flag, value]
    if command == "learn":
        argv += ["--config", str(configs / "example41_learn.json"), "--belief", "utility_likelihood"]
    elif command == "claims":
        argv += ["--config", str(configs / "reveal_follow.json"), "--p-star", "0"]
    else:
        argv += ["--config", str(configs / "reveal_follow.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith(f"error: {flag[2:]} must be ")


def test_unknown_config_key_is_error(capsys, tmp_path):
    cfg = {
        "prior": "fig1:gamma=1",
        "signal_model": {"p1": 1.0, "p2": 0.0},
        "spec1": {"kind": "constant_action", "params": {"action": 0}},
        "spec2": {"kind": "constant_action", "params": {"action": 0}},
        "horizon": 10,
        "trails": 4,
    }
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1 and "trails" in err


def test_missing_config_is_error(capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", "/does/not/exist.json")
    assert code == 1


def test_audit_fail_exit_code(capsys, tiny_config):
    code, out, err = run_cli(
        capsys, "audit", "--config", tiny_config, "--epsilon", "0.1", "--trials", "6"
    )
    assert code == 2
    # 14 runs of 6 trials of a deterministic pair: each run needs one trial
    # per distinct realized game and effective signals, and runs that play
    # alike share them.
    assert err == "trials: 22 simulated, 62 reused\n"
    payload = json.loads(out)
    validate(payload, "audit.json")
    assert payload["verdict"] == "fail"
    assert {"player": 1, "deviation": "mimic:G1"} in payload["failing"]
    assert payload["failure"] == {"player": 1, "deviation": "mimic:G1"}


def test_audit_pass_exit_code(capsys, tmp_path):
    cfg = {
        "prior": {
            "games": [{"weight": 1.0, "game": "fig1_g1:gamma=1"}]
        },
        "signal_model": {"p1": 1.0, "p2": 1.0},
        "spec1": {"kind": "constant_action", "params": {"action": 0}},
        "spec2": {"kind": "constant_action", "params": {"action": 0}},
        "horizon": 100,
        "trials": 4,
        "master_seed": 79,
    }
    path = tmp_path / "pne.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "audit", "--config", str(path), "--epsilon", "0.01")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "audit.json")
    assert payload["verdict"] == "pass"


def test_claims_contradiction_exit_code(capsys, tiny_config):
    code, out, err = run_cli(
        capsys, "claims", "--config", tiny_config, "--p-star", "0.0", "--horizon", "2000"
    )
    assert code == 2
    assert err.startswith("trials: ") and " simulated, " in err and err.endswith(" reused\n")
    payload = json.loads(out)
    validate(payload, "claims.json")
    assert payload["contradiction"]
    assert payload["csp2_BD"]["mass"] >= 0.95
    assert payload["mimic_gain"]["gain"] == pytest.approx(0.45, abs=0.05)


def test_claims_invalid_prior_is_error(capsys, tmp_path, tiny_config):
    code, _, err = run_cli(
        capsys, "claims", "--config", tiny_config, "--p-star", "0.5"
    )
    assert code == 1  # prior matrices do not match gamma=(1-0.5)/(1+0.5)


def test_reveal_schema(capsys):
    code, out, _ = run_cli(capsys, "reveal", "--prior", "example41", "--player", "1")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "reveal.json")
    assert not payload["any_revealing"]


def test_learn_success_and_failure_exit_codes(capsys, tmp_path):
    cfg = {
        "prior": "example41",
        "signal_model": {"p1": 0.0, "p2": 0.0},
        "spec1": {"kind": "constant_action", "params": {"action": 0}},
        "spec2": {"kind": "constant_action", "params": {"action": 0}},
        "horizon": 32,
        "trials": 16,
        "master_seed": 83,
    }
    path = tmp_path / "learn.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(
        capsys, "learn", "--config", str(path), "--belief", "utility_likelihood", "--tau", "0.05"
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "learn.json")
    assert payload["success"]

    # The average-reply classifier cannot separate this family: the
    # opponent-led replies coincide, so ties fall back to the prior mode.
    code, out, _ = run_cli(
        capsys, "learn", "--config", str(path), "--belief", "nearest_best_response", "--tau", "0.05"
    )
    assert code == 2
    assert not json.loads(out)["success"]


def test_output_directory_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STRATLAB_OUT", str(tmp_path / "envout"))
    code, _, _ = run_cli(capsys, "reveal", "--prior", "example41", "--player", "2")
    assert code == 0
    assert (tmp_path / "envout" / "reveal.json").exists()
