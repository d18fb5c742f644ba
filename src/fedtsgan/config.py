"""Experiment configuration: INI-style files with one section per stage.

Every run is fully described by its config file; seeds are mandatory so no
run ever depends on the wall clock. The [dp] section takes either an
explicit noise multiplier (clip + sigma) or a budget (clip + epsilon +
delta) that the trainer resolves through the accountant before training.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .data import TimeSeriesDataset, gen_sine2, gen_sine6, load_csv, load_sidecar
from .dpmech import DpParams
from .federation import TrainConfig


class ConfigError(ValueError):
    """Missing, malformed, or contradictory configuration."""


@dataclass
class DpSection:
    clip: float
    sigma: float | None = None
    epsilon: float | None = None
    delta: float | None = None

    @property
    def budget_mode(self) -> bool:
        return self.epsilon is not None


@dataclass
class ExperimentConfig:
    dataset: dict
    assignment: dict[int, list[int]]
    train: TrainConfig
    dp: DpSection | None
    eval: dict = field(default_factory=dict)
    audit: dict = field(default_factory=dict)
    output_dir: str = "runs/out"
    raw_text: str = ""


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(",") if v.strip() != "")


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text()
    parser.read_string(text)

    if "dataset" not in parser:
        raise ConfigError("missing [dataset] section")
    ds = dict(parser["dataset"])
    if "kind" not in ds:
        raise ConfigError("[dataset] needs a kind")
    if ds["kind"] not in ("sine2", "sine6", "csv"):
        raise ConfigError(f"unknown dataset kind {ds['kind']!r}")
    if ds["kind"] != "csv" and "seed" not in ds:
        raise ConfigError("[dataset] needs an explicit seed")

    if "partition" not in parser:
        raise ConfigError("missing [partition] section")
    assignment: dict[int, list[int]] = {}
    for key, value in parser["partition"].items():
        if not key.startswith("party_"):
            raise ConfigError(f"partition keys look like party_<id>, got {key!r}")
        assignment[int(key.split("_", 1)[1])] = list(_ints(value))

    if "train" not in parser:
        raise ConfigError("missing [train] section")
    tr = parser["train"]
    if "seed" not in tr:
        raise ConfigError("[train] needs an explicit seed")

    dp = None
    if "dp" in parser:
        sec = parser["dp"]
        if "clip" not in sec:
            raise ConfigError("[dp] needs a clip bound")
        has_sigma = "sigma" in sec
        has_budget = "epsilon" in sec or "delta" in sec
        if has_sigma == has_budget:
            raise ConfigError("[dp] needs exactly one of sigma or epsilon+delta")
        if has_budget and ("epsilon" not in sec or "delta" not in sec):
            raise ConfigError("[dp] budget mode needs both epsilon and delta")
        dp = DpSection(
            clip=sec.getfloat("clip"),
            sigma=sec.getfloat("sigma") if has_sigma else None,
            epsilon=sec.getfloat("epsilon") if has_budget else None,
            delta=sec.getfloat("delta") if has_budget else None,
        )

    try:
        beta1 = tr.getfloat("beta1", 1.0)
        if "lambda" in tr:  # the centralized name of beta1
            if "beta1" in tr and tr.getfloat("lambda") != beta1:
                raise ConfigError("beta1 and its alias lambda disagree")
            beta1 = tr.getfloat("lambda")
        train = TrainConfig(
            topology=tr.get("topology", "vfl"),
            latent_dim=tr.getint("latent_dim", 32),
            batch_size=tr.getint("batch_size", 64),
            max_iters=tr.getint("max_iters", 2000),
            beta1=beta1,
            beta2=tr.getfloat("beta2", 1.0),
            lr=tr.getfloat("lr", 2e-4),
            adam_beta1=tr.getfloat("adam_beta1", 0.5),
            adam_beta2=tr.getfloat("adam_beta2", 0.999),
            adam_eps=tr.getfloat("adam_eps", 1e-8),
            dp=None if (dp is None or dp.budget_mode) else DpParams(dp.clip, dp.sigma),
            seed=tr.getint("seed"),
            checkpoint_every=tr.getint("checkpoint_every", 50),
            eval_samples=tr.getint("eval_samples", 512),
            gen_hidden=_ints(tr.get("gen_hidden", "128,128")),
            disc_hidden=_ints(tr.get("disc_hidden", "128,64")),
            fe_hidden=_ints(tr.get("fe_hidden", "128")),
            feature_dim=tr.getint("feature_dim", 32),
            shared_hidden=_ints(tr.get("shared_hidden", "128")),
            non_saturating=tr.getboolean("non_saturating", False),
        )
    except ValueError as exc:
        raise ConfigError(f"bad [train] section: {exc}") from exc

    if "output" not in parser or "dir" not in parser["output"]:
        raise ConfigError("missing [output] dir")

    return ExperimentConfig(
        dataset=ds,
        assignment=assignment,
        train=train,
        dp=dp,
        eval=dict(parser["eval"]) if "eval" in parser else {},
        audit=dict(parser["audit"]) if "audit" in parser else {},
        output_dir=parser["output"]["dir"],
        raw_text=text,
    )


def build_dataset(cfg: ExperimentConfig) -> TimeSeriesDataset:
    ds = cfg.dataset
    kind = ds["kind"]
    if kind == "csv":
        if "path" not in ds:
            raise ConfigError("csv dataset needs a path")
        try:
            meta = load_sidecar(ds["sidecar"]) if "sidecar" in ds else None
            return load_csv(ds["path"], meta)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad csv dataset: {exc}") from exc
    gen = gen_sine2 if kind == "sine2" else gen_sine6
    try:
        kwargs = {}
        if "noise_std" in ds:
            kwargs["noise_std"] = float(ds["noise_std"])
        return gen(
            n_per_class=int(ds.get("n_per_class", 512)),
            t_steps=int(ds.get("t_steps", 100)),
            seed=int(ds["seed"]),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"bad [dataset] section: {exc}") from exc
