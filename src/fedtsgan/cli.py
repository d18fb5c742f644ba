"""Command-line entry point: gen-data, train, evaluate, audit, account,
calibrate.

Every run directory is self-describing: it holds a copy of the config, a
manifest (config hash, resolved seeds, package version, any calibration
result) and machine-readable outputs (CSV histories and breakdowns, JSON
reports). Identical config and seeds reproduce every byte.

Exit codes: 0 success, 2 config error, 3 numerical divergence,
4 infeasible calibration.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, accounting, audit as audit_mod, metrics, nn
from .config import ConfigError, ExperimentConfig, build_dataset, check_audit_sizes, parse_config
from .data import PartitionError, partition, save_csv, save_sidecar
from .dpmech import DpParams
from .federation import (
    GeneratorBank,
    TrainResult,
    bank_from_state,
    shadow_trainer,
    synthesize,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INFEASIBLE = 4


def _out_dir(cfg: ExperimentConfig) -> Path:
    root = os.environ.get("FEDTSGAN_OUTPUT_ROOT")
    out = Path(root) / cfg.output.dir if root else Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(
    out: Path, cfg: ExperimentConfig, extra: dict | None = None, merge: bool = False
):
    """Write the run's manifest; with ``merge`` the keys of an existing
    manifest in ``out`` (say, a training run's) are kept unless overwritten."""
    path = out / "manifest.json"
    manifest = {}
    if merge and path.exists():
        try:
            manifest = json.loads(path.read_text())
        except ValueError as exc:
            raise ConfigError(f"unreadable manifest {path}: {exc}") from exc
    manifest |= {
        "version": __version__,
        "config_sha256": hashlib.sha256(cfg.raw_text.encode()).hexdigest(),
        "dataset_seed": cfg.dataset.seed,
        "train_seed": cfg.train.seed,
    }
    manifest.update(extra or {})
    (out / "config.ini").write_text(cfg.raw_text)
    _write_json(path, manifest)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_gen_data(args) -> int:
    cfg = parse_config(args.config)
    dataset = build_dataset(cfg)
    out = _out_dir(cfg)
    save_csv(dataset, out / "data.csv")
    save_sidecar(dataset, out / "data.meta.json")
    _write_manifest(out, cfg, {"n_samples": dataset.n_samples})
    print(f"wrote {dataset.n_samples} samples to {out / 'data.csv'}")
    return EXIT_OK


def _resolve_dp(cfg: ExperimentConfig, n_samples: int) -> dict:
    """Set ``cfg.train.dp``, the mechanism ``train`` and ``audit`` run under,
    from the [dp] section: its sigma, or in budget mode the sigma the
    accountant picks for this run's sampling rate and iteration count,
    returned under "calibration" for the manifest."""
    extra: dict = {}
    if cfg.dp is None:
        return extra
    sigma = cfg.dp.sigma
    if cfg.dp.budget_mode:
        gamma = cfg.train.batch_size / n_samples
        sigma, steps, achieved = accounting.calibrate(
            cfg.dp.epsilon, cfg.dp.delta, gamma, cfg.train.max_iters
        )
        extra["calibration"] = {
            "sigma": sigma,
            "t_max": steps,
            "achieved_epsilon": achieved,
            "epsilon_target": cfg.dp.epsilon,
            "delta": cfg.dp.delta,
            "gamma": gamma,
        }
    cfg.train.dp = DpParams(cfg.dp.clip, sigma)
    return extra


def _write_history(path: Path, history: list[dict]):
    keys = list(dict.fromkeys(["iteration", *(k for row in history for k in row)]))
    _write_csv(path, keys, ([_fmt(row.get(k)) for k in keys] for row in history))


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return v


def save_bank(bank: GeneratorBank, path: Path):
    nn.save_models(path, {f"g{a}": g for a, g in bank.generators.items()})
    sidecar = {"latent_dim": bank.latent_dim, "t_steps": bank.t_steps, "meta": bank.meta}
    _write_json(path.with_suffix(".json"), sidecar)


def load_bank(path: Path) -> GeneratorBank:
    models = nn.load_models(path)
    sidecar = json.loads(Path(path).with_suffix(".json").read_text())
    bank = GeneratorBank(
        {int(name[1:]): m for name, m in models.items()},
        sidecar["latent_dim"],
        sidecar["t_steps"],
        sidecar["meta"],
    )
    for m in bank.generators.values():
        if (m.in_dim, m.out_dim) != (bank.latent_dim, bank.t_steps):
            raise ValueError("a generator's shape does not match latent_dim and t_steps")
    return bank


def run_training(cfg: ExperimentConfig) -> tuple[TrainResult, dict]:
    dataset = build_dataset(cfg)
    views = partition(dataset, cfg.partition)
    if cfg.train.batch_size > dataset.n_samples:
        raise ConfigError(f"[train] batch_size exceeds the {dataset.n_samples} samples")
    extra = _resolve_dp(cfg, dataset.n_samples)
    result = train(cfg.train, views)
    return result, extra


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    result, extra = run_training(cfg)
    out = _out_dir(cfg)
    _write_history(out / "history.csv", result.history)
    save_bank(result.best_bank, out / "best_generators.npz")
    save_bank(bank_from_state(result.state), out / "final_generators.npz")
    extra.update(
        {
            "best_awd": result.best_awd,
            "best_iteration": result.best_iteration,
            "diverged": result.diverged,
            "topology": cfg.train.topology,
        }
    )
    _write_manifest(out, cfg, extra)
    print(
        f"trained {cfg.train.topology} for {result.state.iteration} iterations; "
        f"best awd {result.best_awd:.6g} at iteration {result.best_iteration}"
    )
    if not result.diverged:
        return EXIT_OK
    last = result.history[-1]
    print(f"diverged at iteration {last['iteration']}: {last['diverged']}", file=sys.stderr)
    return EXIT_DIVERGED


def cmd_evaluate(args) -> int:
    cfg = parse_config(args.config)
    dataset = build_dataset(cfg)
    ev = cfg.eval
    out = _out_dir(cfg)

    if ev.control == "identity":
        synth = dataset
    else:
        checkpoint = args.checkpoint or ev.checkpoint
        if not checkpoint:
            raise ConfigError("evaluate needs a checkpoint (flag or [eval] section)")
        try:
            bank = load_bank(Path(checkpoint))
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"unreadable checkpoint {checkpoint}: {exc}") from exc
        attrs = sorted(bank.generators)
        if attrs != list(range(dataset.n_attributes)):
            raise ConfigError(
                f"checkpoint {checkpoint} generates attributes {attrs}, "
                f"but the dataset has attributes 0..{dataset.n_attributes - 1}"
            )
        if bank.t_steps != dataset.n_steps:
            raise ConfigError(
                f"checkpoint {checkpoint} generates {bank.t_steps} time steps, "
                f"but the dataset has {dataset.n_steps}"
            )
        synth = synthesize(bank, ev.synth_samples or dataset.n_samples, ev.seed)

    report: dict = {"metrics": {}}
    wanted = ev.metrics
    no_frequencies = dataset.frequencies() is None
    if "amplitude_awd" in wanted and no_frequencies:
        raise ConfigError("amplitude_awd needs a csv sidecar that lists the sine frequencies")
    if "mae" in wanted and no_frequencies and synth.frequencies() is None:
        raise ConfigError("mae needs a csv sidecar or checkpoint that lists the sine frequencies")
    if ev.task == "classify" and (dataset.labels is None or synth.labels is None):
        raise ConfigError("task classify needs labels on the dataset and the synthetic samples")
    if ev.task and dataset.n_samples < 2:
        raise ConfigError(f"task {ev.task} needs a dataset of at least 2 samples")
    if "awd" in wanted:
        value, cells = metrics.awd_breakdown(dataset, synth)
        report["metrics"]["awd"] = value
        rows = ([a, t, f"{wd:.17g}"] for (a, t), wd in np.ndenumerate(cells))
        _write_csv(out / "awd_cells.csv", ["attribute", "time_step", "wd"], rows)
    if "amplitude_awd" in wanted:
        report["metrics"]["amplitude_awd"] = metrics.amplitude_awd(dataset, synth)
    if "mae" in wanted:
        report["metrics"]["mae"] = metrics.sine_mae(synth, dataset.frequencies())
    if "pca" in wanted:
        proj = metrics.pca_2d([dataset, synth])
        rows = (
            [label] + [f"{v:.17g}" for v in row] + [""] * (2 - row.size)
            for label, coords in zip(("real", "synth"), proj.coords)
            for row in coords
        )
        _write_csv(out / "pca_coords.csv", ["source", "pc1", "pc2"], rows)
        report["metrics"]["pca_explained_ratio"] = proj.explained_ratio
        report["metrics"]["pca_degenerate"] = proj.degenerate

    if ev.task:
        n_test = max(1, dataset.n_samples // 4)
        real_train = dataset.take(slice(0, dataset.n_samples - n_test))
        real_test = dataset.take(slice(dataset.n_samples - n_test, None))
        tpd_report = metrics.tpd(real_train, real_test, synth, ev.task, seed=ev.seed)
        report["metrics"]["tpd"] = tpd_report.value
        report["tpd_breakdown"] = tpd_report.breakdown

    _write_json(out / "evaluation.json", report)
    _write_manifest(out, cfg, merge=True)
    print(json.dumps(report["metrics"], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = parse_config(args.config)
    dataset = build_dataset(cfg)
    check_audit_sizes(cfg, dataset.n_samples)
    au = cfg.audit
    out = _out_dir(cfg)
    # every shadow federation trains under the mechanism a release of the
    # full dataset would be calibrated to
    extra = _resolve_dp(cfg, dataset.n_samples)
    trainer = shadow_trainer(cfg.train, cfg.partition, au.synth_samples)
    if au.selector == "outlier":
        target = audit_mod.select_target_outlier(dataset, au.norm)
    elif au.selector == "influential":
        target = audit_mod.select_target_influential(dataset, trainer, au)
    else:
        target = int(au.selector)

    report = audit_mod.run_assd(dataset, target, trainer, au)
    if au.rounds > 0:
        adversary = audit_mod.threshold_adversary(report, dataset, au)
        report.win_rate = audit_mod.loo_game(dataset, target, trainer, adversary, au.rounds, au.seed)

    worlds = (report.features_world0, report.features_world1)
    _write_json(out / "audit.json", {k: v for k, v in vars(report).items() if not k.startswith("features")})
    rows = ([world, f"{f:.17g}"] for world, feats in enumerate(worlds) for f in feats)
    _write_csv(out / "audit_features.csv", ["world", "feature"], rows)
    _write_manifest(out, cfg, extra)
    print(f"target {report.target_index} ({au.selector}): auc {report.auc:.4f}")
    return EXIT_OK


def cmd_account(args) -> int:
    try:  # an argument out of range is rejected before anything is printed
        report = accounting.privacy_report(args.sigma, args.gamma, args.steps, args.delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the table: the external (amplified) curves behind the final values
    curves = [report["external"][model]["curve"] for model in ("discriminator", "generator")]
    writer = csv.writer(sys.stdout)
    writer.writerow(["alpha", "eps_discriminator", "eps_generator"])
    for i, alpha in enumerate(accounting.DEFAULT_ALPHAS):
        writer.writerow([alpha] + [f"{curve.eps[i]:.12g}" for curve in curves])
    for surface in ("external", "internal"):
        for model in ("discriminator", "generator"):
            entry = report[surface][model]
            writer.writerow(
                [f"final_{surface}_{model}", f"{entry['epsilon']:.12g}", f"alpha={entry['alpha']}"]
            )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    try:
        sigma, steps, achieved = accounting.calibrate(
            args.epsilon, args.delta, args.gamma, args.steps
        )
    except accounting.InfeasibleBudgetError:
        raise
    except ValueError as exc:  # an argument out of range
        raise ConfigError(str(exc)) from None
    print(f"sigma,{sigma:.2f}")
    print(f"t_max,{steps}")
    print(f"achieved_epsilon,{achieved:.12g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedtsgan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("gen-data", cmd_gen_data),
        ("train", cmd_train),
        ("audit", cmd_audit),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.set_defaults(fn=fn)

    p = sub.add_parser("evaluate")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("account")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(fn=cmd_account)

    p = sub.add_parser("calibrate")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(fn=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, PartitionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except accounting.InfeasibleBudgetError as exc:
        print(f"infeasible calibration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
