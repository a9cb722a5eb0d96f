import json

import numpy as np
import pytest

from reconstab import cli, verify
from reconstab.alignment import AlignmentEstimate
from reconstab.attack import build_query_batch, run_attack
from reconstab.cli import main
from reconstab.data import MASKS, generate_synthetic, sample_teacher
from reconstab.featuremaps import sample_map
from reconstab.hermite import activation_names, get_activation
from reconstab.seeding import ROLE_DATA, ROLE_MAP, ROLE_MASK, ROLE_TEACHER, ROLE_TEST, derive_seed
from reconstab.trainer import fit_min_norm, generalization_error


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


@pytest.mark.parametrize("command", ["fit", "gamma", "sweep"])
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
        argv += {"fit": ["--test-size", "40"], "gamma": ["--trials", "3"]}[command]
    code = main(argv)
    captured = capsys.readouterr()
    if command == "gamma" and model == "rf" and activation in SCREENED_RF_GAMMA:
        assert code == 1
        assert "limit degenerates" in captured.err
    else:
        assert code == 0, captured.err
        marker = {"fit": "attack_acc=", "gamma": "verdict=", "sweep": "model,n,alpha,"}[command]
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


def test_gamma_judges_rf_with_the_rule_verify_uses(monkeypatch, capsys):
    # mean 1.03 is past the RF bracket's upper end 1 by more than its 0.02
    def estimate(kind, activation, **kwargs):
        return AlignmentEstimate(
            mean=1.03, std=0.0, trials=kwargs["trials"], kind=kind, alpha=0.5,
            activation=activation.name, lower=0.125, ratio_of_means=1.03,
            tail_bound=0.0, truncation=40,
        )

    monkeypatch.setattr(cli, "estimate_gamma", estimate)
    assert main(["gamma", "--model", "rf", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "mean=1.03 " in out and "reference=[0.125, 1] " in out
    assert out.rstrip().endswith("verdict=fail")
    assert main(["gamma", "--tolerance", "0.05"]) == 2
    assert "unrecognized arguments: --tolerance 0.05" in capsys.readouterr().err


def test_fit_and_attack(capsys):
    args = ["--k", "60", "--dx", "8", "--dy", "8", "--n", "12",
            "--activation", "h1+h2", "--seed", "2", "--test-size", "40"]
    assert main(["fit", *args]) == 0
    assert "test_acc=" in capsys.readouterr().out
    assert main(["fit", *args, "--mask", "zero"]) == 0
    out = capsys.readouterr().out
    assert "attack_acc=" in out


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("model", ["rf", "ntk"])
def test_fit_line_is_the_instance_fit_plus_its_attack(model, mask, capsys):
    # the instance of `fit --seed 5`, rebuilt from its derived seeds
    k, d_x, d_y, n, seed = (60 if model == "rf" else 8), 8, 8, 16, 5
    teacher = sample_teacher(d_x, derive_seed(seed, [ROLE_TEACHER]))
    dataset = generate_synthetic(n, d_x, d_y, teacher, derive_seed(seed, [ROLE_DATA]))
    fmap = sample_map(model, k, d_x + d_y, get_activation("relu"), derive_seed(seed, [ROLE_MAP]))
    fitted = fit_min_norm(fmap, dataset)
    test = generate_synthetic(40, d_x, d_y, teacher, derive_seed(seed, [ROLE_TEST]))
    evaluation = generalization_error(fitted, test)
    queries = build_query_batch(dataset, mask, derive_seed(seed, [ROLE_MASK]))
    attack_acc = run_attack(fitted, queries, dataset.g)

    assert main(["fit", "--model", model, "--k", str(k), "--dx", str(d_x), "--dy", str(d_y),
                 "--n", str(n), "--activation", "relu", "--seed", str(seed),
                 "--test-size", "40", "--mask", mask]) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    assert fields == {
        "n": str(n),
        "alpha": "0.5",
        "max_residual": f"{fitted.report.max_residual:.3e}",
        "lambda_min_over_scale": f"{fitted.system.cache.min_eig / fmap.n_params:.4g}",
        "condition": f"{fitted.system.cache.condition:.3e}",
        "test_error": f"{evaluation.error:.4g}",
        "test_acc": f"{evaluation.accuracy:.4f}",
        "attack_acc": f"{attack_acc:.4f}",
    }


def test_sweep_writes_csv(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SWEEP_CONFIG))
    out_path = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(out_path)]) == 0
    payload = out_path.read_bytes()
    assert payload.startswith(b"model,n,alpha,activation,trial,seed,")
    assert payload.count(b"\r\n") == 1 + 4


def test_sweep_trace_writes_one_json_line_per_row(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SWEEP_CONFIG))
    trace_path = tmp_path / "trace.jsonl"
    assert main(["sweep", "--config", str(config_path), "--trace", str(trace_path)]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("model,n,alpha,activation,trial,seed,test_acc,attack_acc,"
                              "gamma_mean,gamma_std,error\r\n")
    # the CSV does not depend on the trace
    assert main(["sweep", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out == csv_out
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    assert [list(line) for line in lines] == [
        ["n_idx", "trial", "seed", "lambda_min_over_scale", "row_ms"]
    ] * len(rows)
    assert [(line["n_idx"], line["trial"], str(line["seed"])) for line in lines] == [
        (SWEEP_CONFIG["n_grid"].index(int(n)), int(trial), seed)
        for _, n, _, _, trial, seed, *_ in rows
    ]
    assert all(line["lambda_min_over_scale"] > 0 and line["row_ms"] > 0 for line in lines)


@pytest.mark.parametrize("missing", ["--out", "--trace"])
def test_sweep_output_that_cannot_be_opened_fails_before_any_row(
    tmp_path, missing, monkeypatch, capsys
):
    def forbidden(*args, **kwargs):
        raise AssertionError("a row ran before the output files were opened")

    monkeypatch.setattr(cli, "run_sweep", forbidden)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SWEEP_CONFIG))
    paths = {"--out": tmp_path / "rows.csv", "--trace": tmp_path / "trace.jsonl"}
    paths[missing] = tmp_path / "missing" / "file"
    argv = ["sweep", "--config", str(config_path)]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_sweep_bad_config_exits_2(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(dict(SWEEP_CONFIG, bogus=1)))
    assert main(["sweep", "--config", str(config_path)]) == 2


@pytest.mark.parametrize(
    "payload",
    ["[" * 100_000, '{"model": "ntk", ' + json.dumps(SWEEP_CONFIG)[1:]],
    ids=["deeply-nested", "repeated-key"],
)
def test_sweep_malformed_config_exits_2(tmp_path, payload, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(payload)
    assert main(["sweep", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_sweep_oversized_k_exits_2(tmp_path, capsys):
    # past numpy's index range, k would fail each row's map draw
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(SWEEP_CONFIG, k=10**29)))
    assert main(["sweep", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: k must be <= ")


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


@pytest.mark.parametrize("command_line", [
    "fit --n 0", "fit --test-size 0", "fit --k 0", "fit --dx 0", "fit --dy 0",
    "gamma --n 1", "gamma --trials 1",
    "hermite --order -1", "fit --activation nope", "hermite --activation nope",
])
def test_invalid_command_line_value_exits_2(command_line, capsys):
    command, option, value = command_line.split()
    assert main([command, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"reconstab {command}: error: argument {option}: " in captured.err
    assert value in captured.err.splitlines()[-1]


@pytest.mark.parametrize("activation", ["relu", "tanh", "h1+h2"])
def test_hermite_negative_order_exits_2(activation, capsys):
    # the order is checked while parsing, whatever the activation's coefficients
    assert main(["hermite", "--activation", activation, "--order", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reconstab hermite: error: argument --order: must be >= 0, got -1" in captured.err


def test_sweep_theta0_key_exits_2(tmp_path, capsys):
    # every fit starts from the zero function; no config key names a start
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(SWEEP_CONFIG, model="ntk", k=8,
                                           activation="h0+h1", theta0="zero")))
    assert main(["sweep", "--config", str(config_path)]) == 2
    assert "unknown config keys: ['theta0']" in capsys.readouterr().err


def test_fit_reports_scaled_eigenvalue(capsys):
    assert main(["fit", "--model", "rf", "--k", "60", "--dx", "8", "--dy", "8",
                 "--n", "10", "--activation", "h1+h2", "--seed", "4", "--test-size", "40"]) == 0
    out = capsys.readouterr().out
    assert "lambda_min_over_scale=" in out
    value = float(out.split("lambda_min_over_scale=")[1].split()[0])
    assert value > 0


def test_verify_quick_exits_zero(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_exits_one_when_a_check_fails(monkeypatch, capsys):
    checks = [verify.CheckResult("good", True, "ok"), verify.CheckResult("bad", False, "off")]
    monkeypatch.setattr(verify, "quick_checks", lambda: checks)
    assert main(["verify", "--level", "quick"]) == 1
    assert capsys.readouterr().out == "PASS good: ok\nFAIL bad: off\n"


@pytest.mark.parametrize("command_line", [
    "fit --k 1099511627776 --n 20 --test-size 10",
    "gamma --n 1099511627776 --k 20 --dx 4 --dy 4 --trials 3",
    "hermite --activation h1+h2 --order 1099511627776",
], ids=["fit", "gamma", "hermite"])
def test_unallocatable_size_exits_1_with_one_error_line(command_line, capsys):
    # numpy refuses each of these arrays in malloc, before touching memory
    assert main(command_line.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
