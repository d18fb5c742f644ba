import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fedtsgan import accounting, cli, data

TINY_TRAIN = """
topology = vfl
latent_dim = 3
batch_size = 4
max_iters = 3
checkpoint_every = 2
eval_samples = 8
seed = 11
gen_hidden = 6,5
disc_hidden = 6,4
fe_hidden = 5
feature_dim = 4
shared_hidden = 6
"""


def write_config(tmp_path, name="exp.ini", dataset_extra="", train_extra="", sections=""):
    out = (tmp_path / "run").as_posix()
    text = f"""
[dataset]
kind = sine2
n_per_class = 8
t_steps = 10
seed = 5
{dataset_extra}

[partition]
party_0 = 0
party_1 = 1

[train]
{TINY_TRAIN}
{train_extra}

[output]
dir = {out}
{sections}
"""
    path = tmp_path / name
    path.write_text(text)
    return path, Path(out)


class TestGenData:
    def test_writes_files_and_sample_count(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path)
        assert cli.main(["gen-data", "--config", str(cfg)]) == 0
        assert (out / "data.csv").exists()
        meta = json.loads((out / "data.meta.json").read_text())
        assert meta["n_samples"] == 16
        assert meta["frequencies"] == [0.01, 0.005]

    def test_rerun_byte_identical(self, tmp_path):
        cfg, out = write_config(tmp_path)
        cli.main(["gen-data", "--config", str(cfg)])
        first = (out / "data.csv").read_bytes()
        first_meta = (out / "data.meta.json").read_bytes()
        cli.main(["gen-data", "--config", str(cfg)])
        assert (out / "data.csv").read_bytes() == first
        assert (out / "data.meta.json").read_bytes() == first_meta

    def test_invalid_kind_is_config_error(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("kind = sine2", "kind = mystery"))
        assert cli.main(["gen-data", "--config", str(cfg)]) == 2

    def test_default_sample_count_matches_construction(self, tmp_path):
        cfg, out = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("n_per_class = 8", "n_per_class = 1024").replace("t_steps = 10", "t_steps = 16"))
        cli.main(["gen-data", "--config", str(cfg)])
        meta = json.loads((out / "data.meta.json").read_text())
        assert meta["n_samples"] == 2048


class TestTrain:
    def test_outputs_and_manifest(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (out / "history.csv").exists()
        assert (out / "best_generators.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["topology"] == "vfl"
        assert manifest["train_seed"] == 11

    def test_same_seed_identical_history(self, tmp_path):
        cfg, out = write_config(tmp_path)
        cli.main(["train", "--config", str(cfg)])
        first = (out / "history.csv").read_bytes()
        cli.main(["train", "--config", str(cfg)])
        assert (out / "history.csv").read_bytes() == first

    def test_local_only_logs_no_messages(self, tmp_path):
        cfg, out = write_config(tmp_path)
        from fedtsgan.config import parse_config

        parsed = parse_config(cfg)
        parsed.train.topology = "local_only"
        result, _ = cli.run_training(parsed)
        assert result.state.log.records == []

    def test_budget_mode_records_achieved_epsilon(self, tmp_path):
        cfg, out = write_config(
            tmp_path,
            sections="\n[dp]\nclip = 1.0\nepsilon = 10\ndelta = 1e-3\n",
        )
        assert cli.main(["train", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cal = manifest["calibration"]
        assert cal["achieved_epsilon"] <= 10.0
        assert cal["gamma"] == 4 / 16
        redone, _ = accounting.spent_epsilon(cal["sigma"], cal["gamma"], 3, 1e-3)
        assert redone == pytest.approx(cal["achieved_epsilon"], rel=1e-12)

    def test_explicit_sigma_mode(self, tmp_path, monkeypatch):
        from fedtsgan import federation

        sigmas = []
        real = federation.perturb_first_layer

        def counting(grads, clip, sigma, rng):
            sigmas.append(sigma)
            return real(grads, clip, sigma, rng)

        monkeypatch.setattr(federation, "perturb_first_layer", counting)
        cfg, out = write_config(tmp_path, sections="\n[dp]\nclip = 1.0\nsigma = 2.0\n")
        assert cli.main(["train", "--config", str(cfg)]) == 0
        # 3 iterations x (2 discriminators + 2 extractors)
        assert sigmas == [2.0] * 12

    def test_dp_section_needs_exactly_one_mode(self, tmp_path):
        cfg, _ = write_config(
            tmp_path, sections="\n[dp]\nclip = 1.0\nsigma = 2.0\nepsilon = 10\ndelta = 1e-3\n"
        )
        assert cli.main(["train", "--config", str(cfg)]) == 2

    def test_missing_seed_rejected(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("seed = 11", ""))
        assert cli.main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "train_extra", ["lambda = 0.5", "beta1 = 0.5", "beta1 = 0.5\nlambda = 0.5"]
    )
    def test_lambda_is_an_alias_of_beta1(self, tmp_path, train_extra):
        from fedtsgan.config import parse_config

        cfg, _ = write_config(tmp_path, train_extra=train_extra)
        assert parse_config(cfg).train.beta1 == 0.5


    def test_a_diverging_run_exits_three_with_one_stderr_line(self, tmp_path):
        cfg, out = write_config(tmp_path, train_extra="lr = 1e306")
        code, err = run_cli("train", "--config", str(cfg))
        assert code == 3
        assert re.fullmatch(r"diverged at iteration \d+: [^\n]+\n", err), err
        assert json.loads((out / "manifest.json").read_text())["diverged"] is True


class TestEvaluate:
    def test_identity_control_zeroes(self, tmp_path, capsys):
        cfg, out = write_config(
            tmp_path,
            sections="\n[eval]\ncontrol = identity\nmetrics = awd,amplitude_awd\ntask = forecast\nseed = 1\n",
        )
        assert cli.main(["evaluate", "--config", str(cfg)]) == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert report["metrics"]["awd"] == 0.0
        assert report["metrics"]["amplitude_awd"] == 0.0
        assert report["metrics"]["tpd"] == 0.0
        assert (out / "awd_cells.csv").exists()

    def test_checkpoint_round_trip(self, tmp_path):
        cfg, out = write_config(
            tmp_path,
            sections="\n[eval]\nmetrics = awd,mae,pca\nseed = 2\nsynth_samples = 8\n",
        )
        cli.main(["train", "--config", str(cfg)])
        rc = cli.main(
            ["evaluate", "--config", str(cfg), "--checkpoint", str(out / "best_generators.npz")]
        )
        assert rc == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert set(report["metrics"]) >= {"awd", "mae", "pca_explained_ratio"}
        assert (out / "pca_coords.csv").exists()

    def test_evaluate_keeps_the_training_manifest(self, tmp_path):
        cfg, out = write_config(
            tmp_path,
            sections="\n[dp]\nclip = 1.0\nepsilon = 10\ndelta = 1e-3\n"
            "\n[eval]\nmetrics = awd\nseed = 2\nsynth_samples = 8\n",
        )
        assert cli.main(["train", "--config", str(cfg)]) == 0
        trained = json.loads((out / "manifest.json").read_text())
        rc = cli.main(
            ["evaluate", "--config", str(cfg), "--checkpoint", str(out / "best_generators.npz")]
        )
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text()) == trained
        assert {"best_awd", "best_iteration", "diverged", "topology", "calibration"} <= set(trained)

    def test_missing_checkpoint_is_config_error(self, tmp_path):
        cfg, _ = write_config(tmp_path, sections="\n[eval]\nmetrics = awd\n")
        assert cli.main(["evaluate", "--config", str(cfg)]) == 2


class TestAudit:
    def test_outlier_selector_echoed_on_toy_set(self, tmp_path):
        # toy scalar series {0, 0.1, 5}: the isolated sample is index 2
        arr = np.repeat(np.array([0.0, 0.1, 5.0])[:, None, None], 6, axis=2)
        toy = data.TimeSeriesDataset(arr)
        data.save_csv(toy, tmp_path / "toy.csv")
        data.save_sidecar(toy, tmp_path / "toy.meta.json")
        out = (tmp_path / "auditrun").as_posix()
        cfg = tmp_path / "audit.ini"
        cfg.write_text(
            f"""
[dataset]
kind = csv
path = {tmp_path / 'toy.csv'}
sidecar = {tmp_path / 'toy.meta.json'}

[partition]
party_0 = 0

[train]
topology = local_only
latent_dim = 2
batch_size = 2
max_iters = 1
checkpoint_every = 1
eval_samples = 2
seed = 3
gen_hidden = 4
disc_hidden = 4

[audit]
selector = outlier
shadow_pairs = 2
knn_k = 1
seed = 4
synth_samples = 4

[output]
dir = {out}
"""
        )
        assert cli.main(["audit", "--config", str(cfg)]) == 0
        report = json.loads((Path(out) / "audit.json").read_text())
        assert report["target_index"] == 2
        assert 0.0 <= report["auc"] <= 1.0
        with open(Path(out) / "audit_features.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4


    @pytest.mark.parametrize(
        "dp", ["epsilon = 10\ndelta = 1e-3", "sigma = 2.0"], ids=["budget", "sigma"]
    )
    def test_budget_mode_protects_every_shadow_run(self, tmp_path, monkeypatch, dp):
        from fedtsgan import federation

        # one line per call, appended from whichever process trains the run:
        # the shadow runs are split over this process and forked workers
        log = tmp_path / "perturb_calls.txt"
        real = federation.perturb_first_layer

        def counting(grads, clip, sigma, rng):
            with open(log, "a") as f:
                f.write(f"{sigma!r}\n")
            return real(grads, clip, sigma, rng)

        monkeypatch.setattr(federation, "perturb_first_layer", counting)
        cfg, out = write_config(
            tmp_path,
            sections=f"\n[dp]\nclip = 1.0\n{dp}\n"
            "\n[audit]\nshadow_pairs = 2\nknn_k = 1\nseed = 4\nsynth_samples = 4\n",
        )
        assert cli.main(["audit", "--config", str(cfg)]) == 0
        sigma = 2.0
        if "epsilon" in dp:
            cal = json.loads((out / "manifest.json").read_text())["calibration"]
            assert cal["gamma"] == 4 / 16 and cal["achieved_epsilon"] <= 10.0
            sigma = cal["sigma"]
        # 4 shadow runs x 3 iterations x (2 discriminators + 2 extractors)
        calls = [float(line) for line in log.read_text().splitlines()]
        assert calls == [sigma] * 48


class TestAccount:
    def test_table_and_final_values(self, tmp_path, capsys):
        rc = cli.main(
            ["account", "--sigma", "1", "--gamma", "0.01", "--steps", "1", "--delta", "1e-5"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["alpha", "eps_discriminator", "eps_generator"]
        first = lines[1].split(",")
        assert int(first[0]) == 2
        # alpha=2 row of the discriminator curve: the frozen oracle value
        assert float(first[1]) == pytest.approx(5.4350863810943e-4, rel=1e-9)
        finals = {l.split(",")[0]: float(l.split(",")[1]) for l in lines if l.startswith("final_")}
        assert finals["final_external_discriminator"] <= finals["final_internal_discriminator"]

    def test_calibrate_round_trip(self, capsys):
        rc = cli.main(
            ["calibrate", "--epsilon", "10", "--delta", "1e-3", "--gamma", "0.05", "--steps", "2000"]
        )
        assert rc == 0
        outmap = dict(l.split(",") for l in capsys.readouterr().out.strip().splitlines())
        sigma, achieved = float(outmap["sigma"]), float(outmap["achieved_epsilon"])
        want_sigma, _, want_eps = accounting.calibrate(10.0, 1e-3, 0.05, 2000)
        assert sigma == pytest.approx(want_sigma)
        assert achieved == pytest.approx(want_eps, rel=1e-9)
        assert achieved <= 10.0

    def test_each_amplified_curve_is_computed_once(self, monkeypatch, capsys):
        # the table and the final values read the same two curves, one for
        # the discriminators and one for the generators
        calls = []
        real = accounting.subsample_amplify

        def counted(sigma, gamma, alphas=accounting.DEFAULT_ALPHAS, generator_mode=False):
            calls.append((sigma, gamma, generator_mode))
            return real(sigma, gamma, alphas, generator_mode)

        monkeypatch.setattr(accounting, "subsample_amplify", counted)
        argv = "account --sigma 1.32 --gamma 0.0625 --steps 150 --delta 1e-3".split()
        assert cli.main(argv) == 0
        assert sorted(calls) == [(1.32, 0.0625, False), (1.32, 0.0625, True)]

    def test_infeasible_budget_exit_code(self, capsys):
        rc = cli.main(
            ["calibrate", "--epsilon", "1e-6", "--delta", "1e-3", "--gamma", "0.5", "--steps", "100000"]
        )
        assert rc == 4

    @pytest.mark.parametrize(
        "argv",
        [
            "account --sigma 0 --gamma 0.1 --steps 10 --delta 1e-5",
            "account --sigma 1 --gamma 2 --steps 10 --delta 1e-5",
            "account --sigma 1 --gamma 0.1 --steps 0 --delta 1e-5",
            "calibrate --epsilon -1 --delta 1e-3 --gamma 0.1 --steps 10",
            "calibrate --epsilon 1 --delta 0 --gamma 0.1 --steps 10",
        ],
        ids=["sigma_0", "gamma_2", "steps_0", "epsilon_negative", "delta_0"],
    )
    def test_an_argument_out_of_range_exits_two_with_one_line(self, capsys, argv):
        assert cli.main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"config error: [^\n]+\n", err), err


class TestOutputRoot:
    def test_env_var_reroots_relative_dirs(self, tmp_path, monkeypatch):
        cfg, _ = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(f"dir = {tmp_path / 'run'}", "dir = rel/run"))
        root = tmp_path / "elsewhere"
        monkeypatch.setenv("FEDTSGAN_OUTPUT_ROOT", str(root))
        cli.main(["gen-data", "--config", str(cfg)])
        assert (root / "rel" / "run" / "data.csv").exists()


class TestPipelineDeterminism:
    def test_manifest_history_reports_bit_exact(self, tmp_path):
        cfg, out = write_config(
            tmp_path,
            sections="\n[eval]\ncontrol = identity\nmetrics = awd\nseed = 1\n",
        )
        files = ["history.csv", "manifest.json", "evaluation.json", "best_generators.npz"]
        snapshots = []
        for _ in range(2):
            cli.main(["train", "--config", str(cfg)])
            cli.main(["evaluate", "--config", str(cfg)])
            snapshots.append({f: (out / f).read_bytes() for f in files})
        assert snapshots[0] == snapshots[1]


def run_cli(*argv):
    """The installed entry point in a fresh interpreter: (exit code, stderr)."""
    import os
    import subprocess
    import sys

    import fedtsgan

    env = dict(os.environ, PYTHONPATH=str(Path(fedtsgan.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fedtsgan.cli", *argv], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stderr


class TestUserErrorsExitTwo:
    def test_non_integer_sample_count(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("n_per_class = 8", "n_per_class = x"))
        code, err = run_cli("gen-data", "--config", str(cfg))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @staticmethod
    def csv_eval_config(tmp_path, eval_lines):
        """An evaluate config over a CSV dataset written without a sidecar,
        so the dataset itself carries no sine frequencies."""
        arr = np.sin(np.linspace(0, 3, 6))[None, None, :] * np.arange(1, 5)[:, None, None]
        data.save_csv(data.TimeSeriesDataset(arr), tmp_path / "plain.csv")
        cfg = tmp_path / "eval.ini"
        cfg.write_text(
            f"""
[dataset]
kind = csv
path = {tmp_path / 'plain.csv'}

[partition]
party_0 = 0

[train]
seed = 1

[eval]
{eval_lines}

[output]
dir = {tmp_path / 'out'}
"""
        )
        return cfg

    @pytest.mark.parametrize("wanted", ["awd, amplitude_awd", "mae"])
    def test_frequency_metric_on_csv_without_sidecar(self, tmp_path, wanted):
        cfg = self.csv_eval_config(tmp_path, f"control = identity\nmetrics = {wanted}")
        code, err = run_cli("evaluate", "--config", str(cfg))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_task_on_a_one_sample_dataset(self, tmp_path):
        cfg = self.csv_eval_config(tmp_path, "control = identity\nmetrics = awd\ntask = forecast")
        path = tmp_path / "plain.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")  # the header and one sample
        code, err = run_cli("evaluate", "--config", str(cfg))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, case",
        [
            ("train", "missing_csv"),
            ("evaluate", "missing_csv"),
            ("train", "malformed_csv"),
            ("evaluate", "malformed_csv"),
            ("train", "attribute_without_party"),
            ("train", "beta1_and_lambda_disagree"),
        ],
    )
    def test_bad_dataset_partition_or_weight(self, tmp_path, command, case):
        if case.endswith("csv"):
            cfg = self.csv_eval_config(tmp_path, "control = identity\nmetrics = awd")
            path = tmp_path / "plain.csv"
            if case == "missing_csv":
                path.unlink()
            else:  # a non-numeric last cell
                lines = path.read_text().splitlines()
                lines[1] = lines[1].rsplit(",", 1)[0] + ",abc"
                path.write_text("\n".join(lines) + "\n")
        elif case == "attribute_without_party":
            cfg, _ = write_config(tmp_path)
            cfg.write_text(cfg.read_text().replace("party_1 = 1", ""))
        else:
            cfg, _ = write_config(tmp_path, train_extra="beta1 = 0.5\nlambda = 0.7")
        code, err = run_cli(command, "--config", str(cfg))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "case",
        [
            "shadow_pairs_not_a_number",
            "one_shadow_pair",
            "missing_checkpoint",
            "party_id_not_a_number",
        ],
    )
    def test_bad_audit_checkpoint_or_party_id(self, tmp_path, case):
        if case == "shadow_pairs_not_a_number":
            cfg, _ = write_config(tmp_path, sections="[audit]\nshadow_pairs = x")
            argv = ("audit", "--config", str(cfg))
        elif case == "one_shadow_pair":
            cfg, _ = write_config(tmp_path, sections="[audit]\nshadow_pairs = 1")
            argv = ("audit", "--config", str(cfg))
        elif case == "missing_checkpoint":
            cfg, _ = write_config(tmp_path)
            argv = ("evaluate", "--config", str(cfg), "--checkpoint", str(tmp_path / "nope.npz"))
        else:
            cfg, _ = write_config(tmp_path)
            cfg.write_text(cfg.read_text().replace("party_1 = 1", "party_one = 1"))
            argv = ("train", "--config", str(cfg))
        code, err = run_cli(*argv)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "case", ["sine6_dataset", "longer_series", "attribute_gap", "sidecar_t_steps"]
    )
    def test_a_checkpoint_that_does_not_fit_the_dataset(self, tmp_path, case):
        # a sine2 checkpoint (two attributes, T = 10) scored against sine6 or
        # against sine2 at T = 20; a bank that skips attribute 4, scored
        # against sine6; a sidecar whose t_steps its generators do not have
        train_cfg, run = write_config(tmp_path)
        assert cli.main(["train", "--config", str(train_cfg)]) == 0
        checkpoint = run / "best_generators.npz"
        text = train_cfg.read_text()
        if case in ("sine6_dataset", "attribute_gap"):
            text = text.replace("kind = sine2", "kind = sine6")
        else:
            text = text.replace("t_steps = 10", "t_steps = 20")
        if case == "attribute_gap":
            bank = cli.load_bank(checkpoint)
            pair = bank.generators[0], bank.generators[1]
            bank.generators = {a: pair[a % 2] for a in (0, 1, 2, 3, 5)}
            checkpoint = tmp_path / "gap.npz"
            cli.save_bank(bank, checkpoint)
        elif case == "sidecar_t_steps":
            sidecar = checkpoint.with_suffix(".json")
            sidecar.write_text(sidecar.read_text().replace('"t_steps": 10', '"t_steps": 20'))
        cfg = tmp_path / "eval.ini"
        cfg.write_text(text + f"\n[eval]\ncheckpoint = {checkpoint}\nmetrics = awd\n")
        code, err = run_cli("evaluate", "--config", str(cfg))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("evaluate", lambda t: t + "[eval]\ncheckpoint = {checkpoint}\nsynth_samples = x\n"),
            ("evaluate", lambda t: t + "[eval]\ncheckpoint = {checkpoint}\nsynth_samples = 0\n"),
            ("evaluate", lambda t: t + "[eval]\ncheckpoint = {checkpoint}\nseed = x\n"),
            ("evaluate", lambda t: t + "[eval]\ncontrol = identity\ntask = bogus\n"),
            ("evaluate", lambda t: t + "[eval]\ncontrol = identity\nmetrics = bogus\n"),
            ("audit", lambda t: t + "[audit]\nselector = 99\n"),
            ("audit", lambda t: t + "[audit]\nrounds = -1\n"),
            ("audit", lambda t: t + "[audit]\nknn_k = 99\n"),
            ("train", lambda t: t.replace("seed = 11", "seed = 11\nseed = 12")),
            ("train", lambda t: "stray = 1\n" + t),
            ("train", lambda t: t.replace("seed = 11", "seed = 11\nfe_mode = identity")),
            ("train", lambda t: t + "[bogus]\nkey = 1\n"),
            ("train", lambda t: t + "[dp]\nclip = 1e-300\nsigma = 1.0\n"),
        ],
        ids=[
            "eval_synth_samples_not_a_number", "eval_synth_samples_zero", "eval_seed_not_a_number",
            "unknown_task", "unknown_metric", "selector_beyond_the_dataset", "negative_rounds",
            "knn_k_beyond_the_release", "duplicate_key", "line_before_the_first_header",
            "unknown_key", "unknown_section", "clip_below_the_floor",
        ],
    )
    def test_schema_violations(self, tmp_path, command, edit):
        cfg, out = write_config(tmp_path)
        text = edit(cfg.read_text())
        if "{checkpoint}" in text:  # a readable checkpoint, so that [eval] is read
            assert cli.main(["train", "--config", str(cfg)]) == 0
            text = text.replace("{checkpoint}", str(out / "best_generators.npz"))
        cfg.write_text(text)
        code, err = run_cli(command, "--config", str(cfg))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "train_extra, sections, named",
        [
            ("lr = -1", "", "lr"),
            ("lr = inf", "", "lr"),
            ("lr = nan", "", "lr"),
            ("beta2 = nan", "", "beta2"),
            ("adam_beta1 = 1.5", "", "adam_beta1"),
            ("adam_beta1 = 1", "", "adam_beta1"),
            ("adam_beta2 = 1", "", "adam_beta2"),
            ("adam_beta2 = inf", "", "adam_beta2"),
            ("adam_eps = -1e-8", "", "adam_eps"),
            ("", "[dp]\nclip = inf\nsigma = 1", "clip"),
            ("", "[dp]\nclip = inf\nepsilon = 10\ndelta = 1e-3", "clip"),
        ],
        ids=[
            "negative_lr", "infinite_lr", "nan_lr", "nan_beta2", "adam_beta1_above_one",
            "adam_beta1_one", "adam_beta2_one", "infinite_adam_beta2", "negative_adam_eps",
            "infinite_clip_with_sigma", "infinite_clip_with_budget",
        ],
    )
    def test_bad_optimizer_setting_or_infinite_clip(self, tmp_path, train_extra, sections, named):
        cfg, out = write_config(tmp_path, train_extra=train_extra, sections=sections)
        code, err = run_cli("train", "--config", str(cfg))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert named in err and "alias" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "audit_lines, batch_size",
        [
            ("knn_k = 99", 4),
            ("selector = 16", 4),
            ("selector = influential\ncandidate_m = 17", 4),
            # world 0 trains on the 15 samples left without the target
            ("shadow_pairs = 2", 16),
        ],
    )
    def test_size_checks_run_before_any_training(
        self, tmp_path, monkeypatch, audit_lines, batch_size
    ):
        from fedtsgan import federation

        calls = []
        monkeypatch.setattr(federation, "train_runs", lambda *args: calls.append(args))
        cfg, out = write_config(tmp_path, sections=f"[audit]\n{audit_lines}\n")
        cfg.write_text(cfg.read_text().replace("batch_size = 4", f"batch_size = {batch_size}"))
        assert cli.main(["audit", "--config", str(cfg)]) == 2
        assert calls == [] and not out.exists()

    def test_mae_takes_frequencies_from_the_checkpoint(self, tmp_path):
        train_cfg, run = write_config(tmp_path)
        assert cli.main(["train", "--config", str(train_cfg)]) == 0
        checkpoint = run / "best_generators.npz"
        cfg = self.csv_eval_config(tmp_path, f"checkpoint = {checkpoint}\nmetrics = mae")
        # the training data, exported without its sidecar: the checkpoint
        # fits it, but the dataset carries no sine frequencies
        data.save_csv(data.gen_sine2(n_per_class=8, t_steps=10, seed=5), tmp_path / "plain.csv")
        assert cli.main(["evaluate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "evaluation.json").read_text())
        assert math.isfinite(report["metrics"]["mae"])


def test_import_leaves_the_process_pool_modules_unloaded():
    # the package forks its workers bare (fedtsgan.workers); these modules
    # would add some 25 ms to every command's start
    import os
    import subprocess
    import sys

    import fedtsgan

    code = (
        "import sys, fedtsgan.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fedtsgan.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_one_job_shadow_training_stays_in_process():
    # the path of the influential selector: one job trains here, with no pool
    import os
    import subprocess
    import sys

    import fedtsgan

    code = (
        "import sys\n"
        "from fedtsgan import data, federation as fed\n"
        "cfg = fed.TrainConfig(latent_dim=3, batch_size=4, max_iters=2, checkpoint_every=1,\n"
        "                      eval_samples=8, gen_hidden=(6,), disc_hidden=(5,),\n"
        "                      fe_hidden=(5,), feature_dim=3, shared_hidden=(4,))\n"
        "ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=1)\n"
        "(release,) = fed.shadow_trainer(cfg, {0: [0], 1: [1]}, n_synth=5)([(ds, 3)])\n"
        "assert release.data.shape == (5, 2, 8), release.data.shape\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fedtsgan.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestDocumentedScripts:
    """The two scripts README.md documents, each in a fresh interpreter."""

    @staticmethod
    def run_script(name, *argv, cwd):
        import subprocess
        import sys

        script = Path(__file__).resolve().parents[1] / "scripts" / name
        return subprocess.run(
            [sys.executable, str(script), *argv], cwd=cwd, capture_output=True, text=True
        )

    def test_sine_benchmark(self, tmp_path):
        out = tmp_path / "bench.csv"
        proc = self.run_script(
            "run_sine_benchmark.py", "--seeds", "1", "--iters", "2", "--n-per-class", "8",
            "--t-steps", "10", "--batch-size", "4", "--out", str(out), cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == [
            "seed", "topology", "diverged", "init_awd", "best_awd", "best_iteration", "mae",
            "ratio_median", "ratio_iqr", "seconds",
        ]
        assert [row[1] for row in rows] == ["vfl", "centralized", "local_only"]
        printed = [line for line in proc.stdout.splitlines() if line.startswith("seed=")]
        assert [line.split(":")[0] for line in printed] == [
            f"seed={row[0]} {row[1]:>11}" for row in rows
        ]

    def test_audit_demo(self, tmp_path):
        proc = self.run_script(
            "run_audit_demo.py", "--iters", "2", "--shadow-pairs", "2", "--knn-k", "1",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "private AUC" in proc.stdout
