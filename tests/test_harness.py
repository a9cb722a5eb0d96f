import csv
import io
import json
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconstab import harness, linops, verify
from reconstab.alignment import AlignmentEstimate, AlignmentSolver, estimate_gamma_on_instance
from reconstab.attack import run_attack
from reconstab.cli import main
from reconstab.data import MASKS, attacked_pairs, generate_synthetic, mask_rows, sample_teacher
from reconstab.errors import ConfigError
from reconstab.featuremaps import sample_map
from reconstab.harness import RESULT_COLUMNS, ExperimentConfig, parse_config, run_sweep, write_rows
from reconstab.hermite import get_activation
from reconstab.seeding import (
    ROLE_DATA,
    ROLE_GAMMA,
    ROLE_MAP,
    ROLE_MASK,
    ROLE_TEACHER,
    ROLE_TEST,
    derive_seed,
)
from reconstab.trainer import fit_min_norm, generalization_error

SMALL_CONFIG = {
    "model": "rf",
    "k": 80,
    "d_x": 10,
    "d_y": 10,
    "activation": "h1+h2",
    "n_grid": [8, 16],
    "trials": 2,
    "mask": "resample",
    "master_seed": 42,
    "test_size": 50,
    "gamma_trials": 4,
}

NTK_CONFIG = dict(SMALL_CONFIG, model="ntk", k=8, activation="h0+h1")


@st.composite
def _sweep_docs(draw):
    """A small RF or NTK sweep config with a drawn mask, N grid, trial count
    and master seed.
    """
    doc = dict(draw(st.sampled_from([SMALL_CONFIG, NTK_CONFIG])))
    doc["mask"] = draw(st.sampled_from(MASKS))
    doc["n_grid"] = sorted(draw(st.sets(st.integers(4, 24), min_size=1, max_size=3)))
    doc["trials"] = draw(st.integers(1, 3))
    doc["master_seed"] = draw(st.integers(0, 2**32 - 1))
    return doc


def rows_to_csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    write_rows(rows, buf)
    return buf.getvalue().encode()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, [2, 3]) == derive_seed(1, [2, 3])

    def test_distinct_trials_distinct_seeds(self):
        seeds = {derive_seed(0, [0, t, ROLE_DATA]) for t in range(1_000_000)}
        assert len(seeds) == 1_000_000

    def test_role_separation(self):
        assert derive_seed(7, [0, 0, ROLE_DATA]) != derive_seed(7, [0, 0, ROLE_MAP])

    def test_master_changes_everything(self):
        assert derive_seed(0, [1]) != derive_seed(1, [1])


class TestConfig:
    def test_parse_round_trip(self):
        config = parse_config(dict(SMALL_CONFIG))
        assert config.n_grid == (8, 16)
        assert config.alpha == 0.5

    def test_unknown_key_is_hard_error(self):
        bad = dict(SMALL_CONFIG, typo_key=3)
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "key", ["model", "k", "d_x", "d_y", "activation", "n_grid", "trials", "master_seed"]
    )
    def test_missing_required_key(self, key):
        bad = dict(SMALL_CONFIG)
        del bad[key]
        with pytest.raises(ConfigError, match=rf"^missing required config keys: \['{key}'\]$"):
            parse_config(bad)

    def test_keys_with_defaults_may_be_omitted(self):
        doc = {key: value for key, value in SMALL_CONFIG.items()
               if key not in ("mask", "test_size", "gamma_trials")}
        config = parse_config(doc)
        assert (config.mask, config.test_size, config.gamma_trials) == ("resample", 1000, 20)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(dict(SMALL_CONFIG, n_grid=[16, 8]))

    def test_rf_underparameterized_warns(self):
        with pytest.warns(UserWarning, match="singular"):
            parse_config(dict(SMALL_CONFIG, k=4))

    def test_init_policy_rejected_for_rf(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['theta0'\]"):
            parse_config(dict(SMALL_CONFIG, theta0="init"))

    @pytest.mark.parametrize("value", ["zero", "init"])
    def test_theta0_key_rejected_for_ntk(self, value):
        # every fit starts from the zero function, so no key names a start
        with pytest.raises(ConfigError, match=r"unknown config keys: \['theta0'\]"):
            parse_config(dict(NTK_CONFIG, theta0=value))

    def test_argmax_readout_rejected(self):
        # labels are +-1 and read by their sign, so no config key names a readout
        with pytest.raises(ConfigError, match="readout"):
            parse_config(dict(SMALL_CONFIG, readout="argmax"))

    @pytest.mark.parametrize(
        "key, value",
        [("k", 60.7), ("k", True), ("k", "80"), ("d_x", 10.0), ("d_y", False),
         ("trials", 2.5), ("test_size", "50"), ("gamma_trials", True),
         ("master_seed", "x"), ("master_seed", 4.0), ("n_grid", [8, 20.9]),
         ("n_grid", [True, 16]), ("n_grid", 16)],
    )
    def test_non_integer_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(dict(SMALL_CONFIG, **{key: value}))

    @pytest.mark.parametrize(
        "key", ["trials", "k", "d_x", "d_y", "test_size", "gamma_trials", "n_grid"]
    )
    def test_integers_past_numpy_index_range_rejected(self, key):
        # a trial count this large would build its point list without bound;
        # the master seed alone is hashed to 64 bits and stays unbounded
        value = [8, sys.maxsize + 1] if key == "n_grid" else 10**29
        with pytest.raises(ConfigError, match=f"{key}.* must be <= {sys.maxsize}"):
            parse_config(dict(SMALL_CONFIG, **{key: value}))
        assert parse_config(dict(SMALL_CONFIG, master_seed=10**29)).master_seed == 10**29

    def test_single_gamma_trial_rejected(self):
        # gamma_std of one trial would be NaN
        with pytest.raises(ConfigError, match="gamma_trials must be >= 2"):
            parse_config(dict(SMALL_CONFIG, gamma_trials=1))

    @pytest.mark.parametrize("activation", [3, "nope"])
    def test_unknown_activation_rejected(self, activation):
        with pytest.raises(ConfigError, match=f"^unknown activation {activation!r}; known: "):
            parse_config(dict(SMALL_CONFIG, activation=activation))

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL_CONFIG))
        assert parse_config(path).k == 80

    @pytest.mark.parametrize("theta0", [None, 0, False, ""])
    def test_falsy_theta0_rejected(self, theta0):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['theta0'\]"):
            parse_config(dict(SMALL_CONFIG, theta0=theta0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="n_grid must not be empty"):
            parse_config(dict(SMALL_CONFIG, n_grid=[]))

    @pytest.mark.parametrize("value", ["rows.csv", True, 9])
    def test_output_key_rejected(self, value):
        # the CSV path is set by sweep --out only
        with pytest.raises(ConfigError, match="output"):
            parse_config(dict(SMALL_CONFIG, output=value))

    @pytest.mark.parametrize(
        "payload",
        [json.dumps(SMALL_CONFIG)[:-3].encode(), b'{"model": "\xff"}'],
        ids=["truncated-json", "not-utf8"],
    )
    def test_unreadable_file_is_config_error(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_bytes(payload)
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(path)
        assert main(["sweep", "--config", str(path)]) == 2

    def test_deeply_nested_json_is_config_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(path)

    def test_repeated_key_is_config_error(self, tmp_path):
        # json.load keeps the last of two equal keys; the config must not
        body = json.dumps(dict(SMALL_CONFIG, model="rf"))[1:]
        path = tmp_path / "repeated.json"
        path.write_text('{"model": "ntk", ' + body)
        with pytest.raises(ConfigError, match="repeated config key 'model'"):
            parse_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(path)
        assert main(["sweep", "--config", str(path)]) == 2


class TestRunSweep:
    def test_same_config_byte_identical(self):
        config = parse_config(dict(SMALL_CONFIG))
        a = rows_to_csv_bytes(run_sweep(config))
        b = rows_to_csv_bytes(run_sweep(parse_config(dict(SMALL_CONFIG))))
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(_sweep_docs())
    def test_worker_count_does_not_change_bytes(self, doc):
        config = parse_config(doc)
        serial = rows_to_csv_bytes(run_sweep(config, workers=1))
        threaded = rows_to_csv_bytes(run_sweep(config, workers=4))
        assert serial == threaded

    def test_rows_in_grid_then_trial_order(self):
        config = parse_config(dict(SMALL_CONFIG))
        rows = run_sweep(config)
        assert [(r.n, r.trial) for r in rows] == [(8, 0), (8, 1), (16, 0), (16, 1)]

    def test_gamma_mean_within_slack_range(self):
        config = parse_config(dict(SMALL_CONFIG))
        for row in run_sweep(config):
            assert -0.1 <= row.gamma_mean <= 1.1

    def test_per_row_error_isolation(self):
        # k far below N makes the kernel rank-deficient at the larger grid
        # point; those rows must carry the error while the rest succeed
        with pytest.warns(UserWarning):
            config = ExperimentConfig(**dict(SMALL_CONFIG, k=12, n_grid=[8, 60]))
        rows = run_sweep(config)
        small = [r for r in rows if r.n == 8]
        large = [r for r in rows if r.n == 60]
        assert all(r.error == "" for r in small)
        assert all(r.error != "" and r.test_acc is None for r in large)

    @pytest.mark.parametrize(
        "failure",
        [MemoryError("cannot allocate"), ValueError("array is too big")],
        ids=["MemoryError", "ValueError"],
    )
    def test_unallocatable_row_keeps_the_other_rows(self, monkeypatch, failure):
        # numpy raises one of these for a size it cannot allocate; the
        # failure is injected, nothing that large is allocated here
        config = parse_config(dict(SMALL_CONFIG, trials=1))
        clean = run_sweep(config)
        draw = harness.generate_synthetic

        def failing_at_16(n, *args):
            if n == 16:
                raise failure
            return draw(n, *args)

        monkeypatch.setattr(harness, "generate_synthetic", failing_at_16)
        rows = run_sweep(config)
        assert rows[0] == clean[0] and rows[0].error == ""
        assert rows[1].error == f"{type(failure).__name__}: {failure}"
        assert rows[1].test_acc is None and rows[1].gamma_mean is None
        parsed = list(csv.reader(io.StringIO(rows_to_csv_bytes(rows).decode())))
        assert [cells[RESULT_COLUMNS.index("n")] for cells in parsed[1:]] == ["8", "16"]

    @pytest.mark.parametrize(
        "doc",
        [dict(SMALL_CONFIG, k=4), dict(SMALL_CONFIG, k=12, n_grid=[16])],
        ids=["k=4", "k=12,N=16"],
    )
    def test_singular_rows_record_the_error_and_no_numbers(self, doc):
        with pytest.warns(UserWarning, match="singular"):
            config = parse_config(dict(doc))
        rows = run_sweep(config)
        assert len(rows) == len(config.n_grid) * config.trials
        numeric = ("test_acc", "attack_acc", "gamma_mean", "gamma_std", "lambda_min_over_scale")
        for row in rows:
            assert row.error.startswith("SingularKernel: ")
            assert all(getattr(row, name) is None for name in numeric)
        parsed = list(csv.reader(io.StringIO(rows_to_csv_bytes(rows).decode())))
        for cells in parsed[1:]:
            assert all(cells[RESULT_COLUMNS.index(name)] == "" for name in numeric)

    def test_csv_parses_back_with_rfc4180_reader(self):
        config = parse_config(dict(SMALL_CONFIG))
        payload = rows_to_csv_bytes(run_sweep(config))
        reader = csv.reader(io.StringIO(payload.decode()))
        parsed = list(reader)
        assert parsed[0] == RESULT_COLUMNS
        assert len(parsed) == 1 + len(config.n_grid) * config.trials
        float(parsed[1][RESULT_COLUMNS.index("test_acc")])


def _row_instance(config, row):
    """A sweep row's seeds by role, and its dataset and map drawn afresh."""
    teacher = sample_teacher(config.d_x, derive_seed(config.master_seed, [ROLE_TEACHER]))
    n_idx = config.n_grid.index(row.n)
    seed = {
        role: derive_seed(config.master_seed, [n_idx, row.trial, role])
        for role in (ROLE_DATA, ROLE_MAP, ROLE_TEST, ROLE_MASK, ROLE_GAMMA)
    }
    dataset = generate_synthetic(row.n, config.d_x, config.d_y, teacher, seed[ROLE_DATA])
    fmap = sample_map(
        config.model, config.k, config.d, get_activation(config.activation), seed[ROLE_MAP]
    )
    return seed, teacher, dataset, fmap


class TestOneFactorPerRow:
    @pytest.mark.parametrize(
        "doc",
        [SMALL_CONFIG, NTK_CONFIG, dict(SMALL_CONFIG, mask="zero")],
        ids=["rf", "ntk", "rf-zero-mask"],
    )
    def test_gamma_matches_a_separately_factored_background(self, doc):
        config = parse_config(dict(doc))
        for row in run_sweep(config):
            seed, _, dataset, fmap = _row_instance(config, row)
            background = linops.KernelSystem.build(fmap, dataset.z[:-1])
            mean, std = estimate_gamma_on_instance(
                background, config.d_x, config.gamma_trials, seed[ROLE_GAMMA], config.mask
            )
            assert row.gamma_mean == pytest.approx(mean, rel=1e-12, abs=0)
            assert row.gamma_std == pytest.approx(std, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "doc",
        [SMALL_CONFIG, NTK_CONFIG, dict(NTK_CONFIG, mask="zero")],
        ids=["rf", "ntk", "ntk-zero-mask"],
    )
    def test_row_scores_the_fit_on_its_dataset_in_order(self, doc):
        config = parse_config(dict(doc))
        for row in run_sweep(config):
            seed, teacher, dataset, fmap = _row_instance(config, row)
            model = fit_min_norm(fmap, dataset)
            test = generate_synthetic(
                config.test_size, config.d_x, config.d_y, teacher, seed[ROLE_TEST]
            )
            queries = mask_rows(dataset.z, config.d_x, config.mask, seed[ROLE_MASK])
            assert row.test_acc == generalization_error(model, test).accuracy
            assert row.attack_acc == run_attack(model, queries, dataset.g)
            assert row.lambda_min_over_scale == model.system.cache.min_eig / fmap.n_params

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, NTK_CONFIG], ids=["rf", "ntk"])
    def test_one_row_grid_point_aligns_against_no_background(self, doc):
        # at N = 1 the background is the empty leading(0) view, so each
        # alignment is K(q_t, z1_t) / K(z1_t, z1_t)
        config = parse_config(dict(doc, n_grid=[1, 2], trials=1))
        rows = run_sweep(config)
        assert [row.error for row in rows] == ["", ""]
        row = rows[0]
        seed, _, dataset, fmap = _row_instance(config, row)
        z1, z1m = attacked_pairs(
            seed[ROLE_GAMMA], config.gamma_trials, config.d_x, config.d_y, config.mask
        )
        attacked = fmap.prepare(z1)
        gammas = (np.diagonal(attacked.cross(fmap.prepare(z1m)))
                  / np.diagonal(attacked.cross(attacked)))
        assert row.gamma_mean == pytest.approx(np.mean(gammas), rel=1e-12, abs=0)
        assert row.gamma_std == pytest.approx(np.std(gammas, ddof=1), rel=1e-12, abs=0)
        train = fmap.prepare(dataset.z)
        scale = float(train.cross(train)[0, 0]) / fmap.n_params
        assert row.lambda_min_over_scale == pytest.approx(scale, rel=1e-12, abs=0)

    def test_one_factorization_per_row(self, monkeypatch):
        calls = []
        real = linops.KernelSolveCache.factor.__func__

        def counting(cls, k, p=None):
            calls.append(np.shape(k))
            return real(cls, k, p)

        monkeypatch.setattr(linops.KernelSolveCache, "factor", classmethod(counting))
        config = parse_config(dict(SMALL_CONFIG))
        rows = run_sweep(config)
        assert all(row.error == "" for row in rows)
        assert calls == [(row.n, row.n) for row in rows]


class TestSpectrumPaidWhereRead:
    """A sweep row reads lambda_min alone, so its factor runs one Lanczos;
    ``fit`` also prints the condition number, which costs a lambda_max run."""

    @pytest.fixture
    def lanczos_sizes(self, monkeypatch):
        sizes = []
        real = linops._top_eigenvalue

        def counting(apply, n):
            sizes.append(n)
            return real(apply, n)

        monkeypatch.setattr(linops, "_top_eigenvalue", counting)
        return sizes

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, NTK_CONFIG], ids=["rf", "ntk"])
    def test_one_lanczos_run_per_sweep_row(self, doc, lanczos_sizes):
        rows = run_sweep(parse_config(dict(doc)))
        assert all(row.error == "" for row in rows)
        assert lanczos_sizes == [row.n for row in rows]

    @pytest.mark.parametrize("model", ["rf", "ntk"])
    def test_fit_runs_two(self, model, lanczos_sizes, capsys):
        assert main(["fit", "--model", model, "--k", "60", "--dx", "8", "--dy", "8",
                     "--n", "12", "--test-size", "20"]) == 0
        assert "condition=" in capsys.readouterr().out
        assert lanczos_sizes == [12, 12]


class TestNoGramBesideTheFactor:
    """``KernelSolveCache.matrix`` is formed only where it is read, and no
    command reads it: a sweep row and ``fit`` keep the factor alone."""

    @pytest.fixture(autouse=True)
    def forbid_matrix(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("the package must not form L L^T")

        monkeypatch.setattr(linops.KernelSolveCache, "matrix", property(forbidden))

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, NTK_CONFIG], ids=["rf", "ntk"])
    def test_sweep(self, doc):
        assert all(row.error == "" for row in run_sweep(parse_config(dict(doc))))

    @pytest.mark.parametrize("model", ["rf", "ntk"])
    def test_fit(self, model, capsys):
        assert main(["fit", "--model", model, "--k", "60", "--dx", "8", "--dy", "8",
                     "--n", "12", "--test-size", "20"]) == 0
        assert "max_residual=" in capsys.readouterr().out


class TestSystemReleasedBeforeScoring:
    """A row and ``fit`` read the fit's system (gamma, lambda_min, the
    condition number) before they score, and score on the weights alone:
    every KernelSystem built so far is dead when the test draw is evaluated
    and when the attack runs."""

    @pytest.fixture
    def scoring_stages(self, monkeypatch):
        systems = []
        real = linops.KernelSystem.build.__func__

        def recording(cls, fmap, rows):
            system = real(cls, fmap, rows)
            systems.append(weakref.ref(system))
            return system

        monkeypatch.setattr(linops.KernelSystem, "build", classmethod(recording))
        stages = []

        def observed(stage, fn):
            def wrapper(*args, **kwargs):
                alive = sum(ref() is not None for ref in systems)
                stages.append((stage, len(systems), alive))
                return fn(*args, **kwargs)

            return wrapper

        for stage in ("generalization_error", "run_attack"):
            monkeypatch.setattr(harness, stage, observed(stage, getattr(harness, stage)))
        return stages

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, NTK_CONFIG], ids=["rf", "ntk"])
    def test_sweep(self, doc, scoring_stages):
        rows = run_sweep(parse_config(dict(doc)))
        assert all(row.error == "" for row in rows)
        expected = [
            (stage, i + 1, 0)
            for i in range(len(rows))
            for stage in ("generalization_error", "run_attack")
        ]
        assert scoring_stages == expected

    @pytest.mark.parametrize("model", ["rf", "ntk"])
    def test_fit(self, model, scoring_stages, capsys):
        assert main(["fit", "--model", model, "--k", "60", "--dx", "8", "--dy", "8",
                     "--n", "12", "--test-size", "20"]) == 0
        assert "condition=" in capsys.readouterr().out
        assert scoring_stages == [("generalization_error", 1, 0), ("run_attack", 1, 0)]


class TestNoDenseEigensolverOrLU:
    @pytest.fixture
    def forbid_dense(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the factor must serve without eigvalsh or solve")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "solve", forbidden)

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, NTK_CONFIG], ids=["rf", "ntk"])
    def test_sweep_row_runs_without_eigvalsh_or_solve(self, doc, forbid_dense):
        rows = run_sweep(parse_config(dict(doc, n_grid=[16], trials=1)))
        assert len(rows) == 1
        assert all(row.error == "" for row in rows)

    @pytest.mark.parametrize("model", ["rf", "ntk"])
    def test_fit_command_runs_without_eigvalsh_or_solve(self, model, forbid_dense, capsys):
        k = "60" if model == "rf" else "8"
        assert main(["fit", "--model", model, "--k", k, "--dx", "8", "--dy", "8",
                     "--n", "16", "--activation", "h1+h2", "--seed", "4",
                     "--test-size", "40"]) == 0
        assert "lambda_min_over_scale=" in capsys.readouterr().out


class TestVerifySuites:
    def test_quick_suite_passes(self):
        for check in verify.run_verify("quick"):
            assert check.passed, f"{check.name}: {check.detail}"

    def test_corrupted_solve_fails_closed_form_loo(self, monkeypatch):
        original = linops.KernelSolveCache.solve

        def corrupted(self, b):
            return original(self, b) + 1e-4

        monkeypatch.setattr(linops.KernelSolveCache, "solve", corrupted)
        assert not verify.check_closed_form_loo().passed

    def test_corrupted_projector_fails_gram_schmidt_suite(self, monkeypatch):
        # the projector is the alignment solver's kernel-space P_perp; the
        # closed-form leave-one-out check took over the Gram-Schmidt update's
        # identity and must see a shifted numerator through the explicit refits
        original = AlignmentSolver.alignment_parts

        def corrupted(self, z, z1):
            num, den = original(self, z, z1)
            return num + 1e-4 * den, den

        monkeypatch.setattr(AlignmentSolver, "alignment_parts", corrupted)
        assert not verify.check_closed_form_loo().passed
        assert not verify.check_alignment_projector().passed

    def test_gamma_ntk_checks_pass(self):
        for check in verify.check_gamma_ntk():
            assert check.passed, f"{check.name}: {check.detail}"

    def test_gamma_rf_check_passes(self):
        check = verify.check_gamma_rf(0.5)
        assert check.passed, f"{check.name}: {check.detail}"

    def test_biased_alignment_fails_gamma_ntk_checks(self, monkeypatch):
        # every alignment F = num / den shifted by +0.1
        original = AlignmentSolver.alignment_parts

        def biased(self, z, z1):
            num, den = original(self, z, z1)
            return num + 0.1 * den, den

        monkeypatch.setattr(AlignmentSolver, "alignment_parts", biased)
        at_half, _, convergence = verify.check_gamma_ntk()
        assert not at_half.passed
        assert not convergence.passed

    def test_full_level_draws_each_gamma_estimate_once(self, monkeypatch):
        # gamma-ntk-alpha=0.5 and gamma-ntk-convergence share their alpha=0.5,
        # N=3000 estimate
        calls = []

        def recorder(kind, activation, **kwargs):
            calls.append((kind, activation.name, tuple(sorted(kwargs.items()))))
            return AlignmentEstimate(
                mean=0.3, std=0.1, trials=kwargs["trials"], kind=kind, alpha=0.5,
                activation=activation.name, lower=0.25, ratio_of_means=0.3, tail_bound=0.0,
                truncation=40,
            )

        monkeypatch.setattr(verify, "estimate_gamma", recorder)
        verify.full_checks()
        assert len(set(calls)) == len(calls) == 7

    def test_full_level_includes_gamma_checks(self, monkeypatch):
        # stub the expensive gamma estimators; every other check runs
        monkeypatch.setattr(
            verify, "check_gamma_ntk",
            lambda: [
                verify.CheckResult(name, True, "")
                for name in ("gamma-ntk-alpha=0.5", "gamma-ntk-alpha=0.25", "gamma-ntk-convergence")
            ],
        )
        monkeypatch.setattr(
            verify, "check_gamma_rf", lambda alpha: verify.CheckResult(f"gamma-rf-alpha={alpha}", True, "")
        )
        checks = {c.name: c for c in verify.full_checks()}
        assert checks["covariance-first-equality"].passed
        names = list(checks)
        assert "gamma-ntk-alpha=0.5" in names
        assert "gamma-ntk-alpha=0.25" in names
        assert "gamma-ntk-convergence" in names
        assert "gamma-rf-alpha=0.5" in names
        assert "gamma-rf-alpha=0.25" in names
