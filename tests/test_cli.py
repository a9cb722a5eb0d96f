import json

import numpy as np
import pytest

from reconstab.cli import main
from reconstab.hermite import activation_names


SWEEP_CONFIG = {
    "model": "rf",
    "k": 60,
    "d_x": 8,
    "d_y": 8,
    "activation": "h1+h2",
    "n_grid": [6, 12],
    "trials": 2,
    "master_seed": 3,
    "test_size": 40,
    "gamma_trials": 3,
}


def test_hermite_table(capsys):
    assert main(["hermite", "--activation", "relu", "--order", "6"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[1] == "l mu_l"
    assert len(lines) == 2 + 7
    first = lines[2].split()
    assert first[0] == "0"
    assert abs(float(first[1]) - 1.0 / np.sqrt(2 * np.pi)) < 1e-6


# the random-features limit needs a Hermite coefficient at order >= 2
SCREENED_RF_GAMMA = {"identity", "h0+h1"}


@pytest.mark.parametrize("command", ["fit", "attack", "gamma", "eigs", "sweep"])
@pytest.mark.parametrize("model", ["rf", "ntk"])
@pytest.mark.parametrize("activation", activation_names())
def test_every_activation_in_every_command(activation, model, command, tmp_path, capsys):
    if command == "sweep":
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dict(SWEEP_CONFIG, model=model, activation=activation)))
        argv = ["sweep", "--config", str(config_path)]
    else:
        # N=12 <= d=16 keeps the features of linear activations at full rank
        argv = [command, "--model", model, "--activation", activation,
                "--k", "40", "--dx", "8", "--dy", "8", "--n", "12", "--seed", "1"]
        argv += {"fit": ["--test-size", "40"], "attack": ["--test-size", "40"],
                 "gamma": ["--trials", "3"]}.get(command, [])
    code = main(argv)
    captured = capsys.readouterr()
    if command == "gamma" and model == "rf" and activation in SCREENED_RF_GAMMA:
        assert code == 1
        assert "limit degenerates" in captured.err
    else:
        assert code == 0, captured.err
        marker = {"fit": "test_acc=", "attack": "attack_acc=", "gamma": "verdict=",
                  "eigs": "lambda_min=", "sweep": "model,n,alpha,"}[command]
        assert marker in captured.out
        if command == "sweep":  # no row carries an error
            assert all(line.endswith(",") for line in captured.out.splitlines()[1:])


@pytest.mark.parametrize("activation", activation_names())
def test_hermite_every_activation(activation, capsys):
    assert main(["hermite", "--activation", activation]) == 0
    assert "l mu_l" in capsys.readouterr().out


def test_gamma_row(capsys):
    code = main([
        "gamma", "--model", "ntk", "--activation", "h0+h1",
        "--k", "16", "--dx", "24", "--dy", "24", "--n", "60",
        "--trials", "5", "--seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "model=ntk" in out and "alpha=0.5" in out and "verdict=" in out


def test_fit_and_attack(capsys):
    args = ["--k", "60", "--dx", "8", "--dy", "8", "--n", "12",
            "--activation", "h1+h2", "--seed", "2", "--test-size", "40"]
    assert main(["fit", *args]) == 0
    assert "test_acc=" in capsys.readouterr().out
    assert main(["attack", *args, "--mask", "zero"]) == 0
    out = capsys.readouterr().out
    assert "attack_acc=" in out


def test_sweep_writes_csv(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SWEEP_CONFIG))
    out_path = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(out_path)]) == 0
    payload = out_path.read_bytes()
    assert payload.startswith(b"model,n,alpha,activation,trial,seed,")
    assert payload.count(b"\r\n") == 1 + 4


def test_sweep_bad_config_exits_2(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(dict(SWEEP_CONFIG, bogus=1)))
    assert main(["sweep", "--config", str(config_path)]) == 2


@pytest.mark.parametrize("activation", [3, "nope"])
def test_sweep_unknown_activation_exits_2(tmp_path, activation, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(SWEEP_CONFIG, activation=activation)))
    assert main(["sweep", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: unknown activation {activation!r}; known: ")


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_workers_below_one_exits_2(tmp_path, workers):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SWEEP_CONFIG))
    assert main(["sweep", "--config", str(config_path), "--workers", workers]) == 2


def test_unknown_activation_exits_1():
    assert main(["hermite", "--activation", "not-a-thing"]) == 1


def test_eigs_reports_scaled_eigenvalue(capsys):
    assert main(["eigs", "--model", "rf", "--k", "60", "--dx", "8", "--dy", "8",
                 "--n", "10", "--activation", "h1+h2", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "lambda_min_over_scale=" in out
    value = float(out.split("lambda_min=")[1].split()[0])
    assert value > 0


def test_verify_quick_exits_zero(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
