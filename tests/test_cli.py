import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from stratlab.cli import main


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.mark.parametrize("ref, player", [("fig1:gamma=1", 2), ("example41", 1)])
def test_stackval_prior_solves_each_game_once(capsys, monkeypatch, ref, player):
    from stratlab import cli, solve
    from stratlab.games import load_prior

    prior = load_prior(ref)
    expected = solve.stackval_prior(prior, player)
    solved = []
    stackelberg_value = solve.stackelberg_value

    def counted(g, leader):
        solved.append(g.name)
        return stackelberg_value(g, leader)

    monkeypatch.setattr(solve, "stackelberg_value", counted)
    monkeypatch.setattr(cli, "stackelberg_value", counted)
    code, out, _ = run_cli(capsys, "stackval", "--prior", ref, "--player", str(player))
    assert code == 0
    assert solved == [g.name for g, _ in prior.entries]
    # the same bits as solve.stackval_prior, which solves every game again
    assert json.loads(out)["expected_value"] == expected


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
    "argv, message",
    [
        (["audit", "--config", str(CONFIGS / "reveal_follow.json"), "--trails", "2"],
         "unrecognized arguments: --trails 2"),
        (["stackval", "--game", "fig1_g2:gamma=1", "--player", "3"], "invalid choice: 3"),
        (["learn", "--config", str(CONFIGS / "example41_learn.json"), "--tau", "0.1",
          "--belief", "nope"], "invalid choice: 'nope'"),
        # --threads belongs to the commands that simulate
        (["stackval", "--game", "fig1_g2:gamma=1", "--player", "2", "--threads", "2"],
         "unrecognized arguments: --threads 2"),
        (["reveal", "--prior", "fig1:gamma=1", "--player", "2", "--threads", "2"],
         "unrecognized arguments: --threads 2"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # 2 is reserved for a failing verdict
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert out.err.startswith("usage: stratlab") and message in out.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stackval", "--help"])
    assert exc.value.code == 0 and "--player" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, ref", [("--game", "fig1_g1:gamma=0.5,gamma=1"), ("--prior", "fig1:gamma=0.5, gamma=1")]
)
def test_repeated_builtin_argument_is_error(capsys, flag, ref):
    code, out, err = run_cli(capsys, "stackval", flag, ref, "--player", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: builtin argument 'gamma' repeated in ")


@pytest.mark.parametrize(
    "ref, message",
    [
        ("fig1:gamma=0.5,gamma=1", "builtin argument 'gamma' repeated in 'fig1:gamma=0.5,gamma=1'"),
        ("fig1:gamma=x", "bad numeric argument in 'fig1:gamma=x'"),
    ],
)
def test_builtin_prior_argument_error_names_the_ref_as_typed(capsys, ref, message):
    code, out, err = run_cli(capsys, "stackval", "--prior", ref, "--player", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("player", [1, 2])
def test_repeated_action_label_is_error(capsys, tmp_path, player):
    labels = {"actions1": ["A", "B"], "actions2": ["C", "D"]}
    labels[f"actions{player}"] = ["A", "A"] if player == 1 else ["C", "C"]
    game = {"name": "twins", **labels, "u1": [[1, 0], [0, 1]], "u2": [[0, 1], [1, 0]]}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    code, out, err = run_cli(capsys, "stackval", "--game", str(path), "--player", "1")
    assert code == 1 and out == "" and err.startswith("error: repeated action label in ")
    cfg = json.loads((CONFIGS / "reveal_follow.json").read_text())
    cfg["prior"] = {"games": [{"weight": 1.0, "game": game}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--trials", "1",
                             "--horizon", "5", "--out", str(tmp_path))
    assert code == 1 and out == "" and err.startswith("error: repeated action label in ")


@pytest.mark.parametrize(
    "labels, message",
    [
        ([1, "1"], "game actions1 label must be a string, got 1"),
        (["A", None], "game actions1 label must be a string, got None"),
        ("AB", "game actions1 must be a list, got 'AB'"),
    ],
)
def test_action_labels_must_be_strings(capsys, tmp_path, labels, message):
    game = {"name": "g", "actions1": labels, "actions2": ["C", "D"],
            "u1": [[1, 0], [0, 1]], "u2": [[0, 1], [1, 0]]}
    game_path, prior_path = tmp_path / "game.json", tmp_path / "prior.json"
    game_path.write_text(json.dumps(game))
    prior_path.write_text(json.dumps({"games": [{"weight": 1.0, "game": game}]}))
    for argv in (["stackval", "--game", str(game_path)], ["reveal", "--prior", str(prior_path)]):
        code, out, err = run_cli(capsys, *argv, "--player", "1")
        assert (code, out, err) == (1, "", f"error: {message}\n")


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


BIG = str(10 ** 400)  # an integer with no float value
LONG = "1" * 4301  # an integer literal longer than int() reads


def simulate_with(config, assignment):
    return ["simulate", "--config", str(CONFIGS / config), "--trials", "1", "--horizon", "5",
            "--set", assignment]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stackval", "--player", "1", "--game", "game.json"],
         "game u1 entry must be within the float range"),
        (["stackval", "--player", "1", "--prior", "prior.json"],
         "prior weight must be within the float range"),
        (simulate_with("reveal_follow.json", f"signal_model.p1={BIG}"),
         "config key 'signal_model.p1' must be within the float range"),
        (simulate_with("reveal_follow.json", f"tail_threshold={BIG}"),
         "config key 'tail_threshold' must be within the float range"),
        (simulate_with("swap_decay.json", f"spec1.params.eta={BIG}"),
         "param 'eta' of learner kind 'no_swap_regret_full' must be within the float range"),
        (simulate_with("leader_vs_learner_audit.json", f"spec1.params.initial_epoch={BIG}"),
         "param 'initial_epoch' of learner kind 'stackelberg_leader' must be within the float"),
        (["stackval", "--player", "1", "--game", "long_game.json"],
         "cannot read 'long_game.json': Exceeds the limit (4300 digits)"),
        (simulate_with("reveal_follow.json", f"tail_threshold={LONG}"),
         "override 'tail_threshold': Exceeds the limit (4300 digits)"),
    ],
    ids=["game-entry", "prior-weight", "signal-p1", "tail-threshold", "eta", "initial-epoch",
         "long-literal-in-file", "long-literal-in-override"],
)
def test_numbers_python_cannot_hold_are_input_errors(capsys, tmp_path, monkeypatch, argv, message):
    # Each ended in an OverflowError or ValueError traceback.
    monkeypatch.chdir(tmp_path)
    game = '{"name": "g", "u1": [[%s, 0], [0, 1]], "u2": [[1, 0], [0, 1]]}'
    (tmp_path / "game.json").write_text(game % BIG)
    (tmp_path / "long_game.json").write_text(game % LONG)
    (tmp_path / "prior.json").write_text(
        '{"games": [{"weight": %s, "game": "fig1_g1:gamma=1"}]}' % BIG)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def with_config(command, config, assignment, *rest):
    return [command, "--config", str(CONFIGS / config), "--trials", "2", "--horizon", "5",
            "--set", assignment, *rest]


@pytest.mark.parametrize(
    "argv, message",
    [
        (with_config("simulate", "swap_decay.json", "spec1.params.eta=1e308"),
         "eta 1e+308 overflows the log-weights within 5 rounds"),
        (with_config("audit", "swap_decay.json", "spec1.params.eta=1e308"),
         "eta 1e+308 overflows the log-weights within 5 rounds"),
        # A bandit's estimate reaches n / gamma: 2 / 0.527 at n = 2 and t = 5,
        # so 1e307 overflows here and would not under full information.
        (with_config("claims", "leader_vs_learner_audit.json", "spec2.params.eta=1e307",
                     "--p-star", "0"),
         "eta 1e+307 overflows the log-weights within 5 rounds"),
        (with_config("learn", "example41_external.json", "spec1.params.eta=1e308",
                     "--belief", "nearest_best_response", "--tau", "0.05"),
         "eta 1e+308 overflows the log-weights within 5 rounds"),
    ],
    ids=["simulate", "audit", "claims-bandit", "learn"],
)
def test_an_eta_that_overflows_the_log_weights_is_an_input_error(capsys, argv, message):
    # Each used to run its trials on NaN strategies: simulate then failed
    # with "bad CSP mass nan", audit and claims exited 0 with null gains, and
    # learn read its beliefs from NaN strategies.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_a_fixed_eta_bandit_with_no_exploration_is_an_input_error(capsys):
    # With exploration 0 the drawn action's probability has no floor, so no
    # eta bounds the estimates: this audit used to pass with 24 null values.
    code, out, err = run_cli(
        capsys, "audit", "--config", str(CONFIGS / "leader_vs_learner_audit.json"),
        "--trials", "2", "--horizon", "50",
        "--set", "spec2.params.eta=1e308", "--set", "spec2.params.exploration=0",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exploration" in err


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


@pytest.mark.parametrize(
    "overrides, checkpoints",
    [((), [1, 2, 4, 8, 16, 32, 64, 100]), (("--set", "checkpoints=[10,50]"), [10, 50])],
)
def test_horizon_resets_checkpoints_unless_overridden(capsys, tmp_path, overrides, checkpoints):
    # --horizon drops the file's checkpoints (they may exceed it), but an
    # explicit checkpoints override wins.
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(CONFIGS / "swap_decay.json"), "--out", str(tmp_path),
        "--trials", "1", "--horizon", "100", *overrides,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["checkpoints"] == checkpoints
    assert payload["estimate"]["checkpoints"] == checkpoints


def test_override_may_set_a_config_key_the_file_omits(capsys, tmp_path):
    # reveal_follow.json leaves checkpoints at their default.
    argv = ["simulate", "--config", str(CONFIGS / "reveal_follow.json"), "--out", str(tmp_path)]
    code, out, _ = run_cli(
        capsys, *argv, "--trials", "1", "--set", "horizon=100", "--set", "checkpoints=[10,50]"
    )
    assert code == 0 and json.loads(out)["config"]["checkpoints"] == [10, 50]
    code, _, err = run_cli(capsys, *argv, "--set", "checkpoint=[10,50]")
    assert code == 1 and "does not exist" in err


@pytest.mark.parametrize("seed, ok", [("-1", False), (str(2**64), False), (str(2**64 - 1), True)])
def test_seed_must_fit_64_bits(capsys, tmp_path, seed, ok):
    # The streams read the seed modulo 2**64: -1 would replay seed 2**64 - 1.
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(CONFIGS / "reveal_follow.json"), "--out", str(tmp_path),
        "--trials", "1", "--horizon", "5", "--seed", seed,
    )
    if ok:
        assert code == 0 and json.loads(out)["config"]["master_seed"] == int(seed)
    else:
        assert code == 1 and out == "" and err.startswith("error: master_seed must lie in [0, 2**64)")


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


@pytest.mark.parametrize("value", ["5", "-1", "NaN", "0.5"])
def test_tail_threshold_outside_half_to_one_is_error(capsys, value):
    config = str(Path(__file__).resolve().parent.parent / "configs" / "leader_vs_learner_audit.json")
    code, out, err = run_cli(
        capsys, "simulate", "--config", config, "--trials", "2", "--horizon", "200",
        "--set", f"tail_threshold={value}",
    )
    assert code == 1 and out == "" and err.startswith("error: tail_threshold must lie in (0.5, 1]")


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
        # json.loads reads Infinity and NaN as floats.
        (["spec2.kind=no_swap_regret_bandit", "spec2.params.eta=Infinity"], "'eta' of"),
        (["spec1.kind=stackelberg_leader", "spec1.params.b=NaN"], "'b' of"),
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
        ("claims", "--tol", "inf"),
        ("learn", "--tau", "1.5"),
        ("learn", "--tau", "inf"),
        ("audit", "--epsilon", "inf"),
        ("audit", "--epsilon", "0"),
        ("audit", "--epsilon", "nan"),
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


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
@pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
def test_config_that_is_not_a_json_object_is_error(capsys, tmp_path, text, seed):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), *seed)
    assert (code, out, err) == (1, "", f"error: config {str(path)!r} is not a JSON object\n")


@pytest.mark.parametrize("unreadable", ["directory", "latin-1 file"])
@pytest.mark.parametrize(
    "argv",
    [["simulate", "--config"], ["stackval", "--player", "1", "--game"],
     ["stackval", "--player", "1", "--prior"], ["reveal", "--player", "1", "--prior"]],
    ids=["simulate-config", "stackval-game", "stackval-prior", "reveal-prior"],
)
def test_unreadable_input_path_is_error(capsys, tmp_path, unreadable, argv):
    path = tmp_path / "input.json"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "content, reason",
    [('{"name": "caf\u00e9"}'.encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
     (b'{"trials": ', "Expecting value: line 1 column 12 (char 11)")],
    ids=["latin-1", "truncated"],
)
@pytest.mark.parametrize(
    "argv",
    [["simulate", "--config"], ["stackval", "--player", "1", "--game"],
     ["stackval", "--player", "1", "--prior"], ["reveal", "--player", "1", "--prior"]],
    ids=["simulate-config", "stackval-game", "stackval-prior", "reveal-prior"],
)
def test_undecodable_input_error_names_the_file(capsys, tmp_path, content, reason, argv):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {str(path)!r}: {reason}"), err


def test_failed_assumption_is_error(capsys, tmp_path):
    # Every follower payoff is 0, so no target reply has a strict margin and
    # the leader's perturbed commitment does not exist.
    flat = {"games": [{"weight": 1.0, "game": {"name": "flat", "u1": [[1, 0], [0, 1]],
                                                "u2": [[0, 0], [0, 0]]}}]}
    prior = tmp_path / "flat.json"
    prior.write_text(json.dumps(flat))
    for command in ("simulate", "audit"):
        code, out, err = run_cli(
            capsys, command, "--config", str(CONFIGS / "leader_vs_learner.json"),
            "--trials", "1", "--horizon", "5", "--set", f"prior={prior}",
        )
        assert code == 1 and out == "", command
        assert err.startswith("error: target reply 0 admits no strict margin"), command


def test_audit_leaves_out_a_commitment_that_does_not_exist(capsys, tmp_path):
    # The flat prior of test_failed_assumption_is_error, under a pair that
    # never commits: only player 1's stackelberg_leader deviation has no
    # perturbed commitment, and the audit runs without it.
    flat = {"games": [{"weight": 1.0, "game": {"name": "flat", "u1": [[1, 0], [0, 1]],
                                                "u2": [[0, 0], [0, 0]]}}]}
    prior = tmp_path / "flat.json"
    prior.write_text(json.dumps(flat))
    code, out, _ = run_cli(
        capsys, "audit", "--config", str(CONFIGS / "reveal_follow.json"),
        "--trials", "1", "--horizon", "5", "--set", f"prior={prior}",
    )
    assert code in (0, 2)
    payload = json.loads(out)
    validate(payload, "audit.json")
    rows = {(d["player"], d["name"]) for d in payload["deviations"]}
    assert (1, "stackelberg_leader") not in rows
    assert (2, "stackelberg_leader") in rows


def test_full_info_learner_under_bandit_feedback(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(CONFIGS / "example41_external.json"),
        "--trials", "1", "--horizon", "5", "--set", "feedback_mode=bandit",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: spec1 (no_swap_regret_full) requires full-information feedback")
    # The audit leaves out the deviations that need full information.
    code, out, _ = run_cli(
        capsys, "audit", "--config", str(CONFIGS / "leader_vs_learner_audit.json"),
        "--trials", "2", "--horizon", "50", "--set", "feedback_mode=bandit",
    )
    assert code in (0, 2)
    payload = json.loads(out)
    validate(payload, "audit.json")
    names = {row["name"] for row in payload["deviations"]}
    assert "stackelberg_leader" in names
    assert not names & {"best_responder", "infer_then_commit"}


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
