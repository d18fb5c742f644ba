"""Experiment configuration: INI-style files with one section per stage.

Every run is fully described by its config file; seeds are mandatory so no
run ever depends on the wall clock. The dataclasses are the schema: each
field of ``ExperimentConfig`` is a section, and each field of a section's
class a key, with its type and default; ``__post_init__`` holds the checks.
One reader serves every section and raises ``ConfigError`` on an unknown
section or key, a duplicate, or a value of the wrong type or range.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .audit import AuditConfig
from .data import TimeSeriesDataset, gen_sine2, gen_sine6, load_csv, load_sidecar
from .dpmech import DpParams
from .federation import TrainConfig


class ConfigError(ValueError):
    """Missing, malformed, or contradictory configuration."""


@dataclass
class DatasetSection:
    kind: str  # sine2, sine6 or csv
    seed: int | None = None
    n_per_class: int = 512
    t_steps: int = 100
    noise_std: float | None = None  # default: the generator's own
    path: str | None = None  # csv only, with an optional sidecar
    sidecar: str | None = None

    def __post_init__(self):
        if self.kind not in ("sine2", "sine6", "csv"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "csv" and self.path is None:
            raise ValueError("csv dataset needs a path")
        if self.kind != "csv" and self.seed is None:
            raise ValueError("needs an explicit seed")


@dataclass
class DpSection:
    """Either an explicit noise multiplier (clip + sigma) or a budget (clip +
    epsilon + delta). Parsing leaves ``train.dp`` unset: ``cli._resolve_dp``
    builds it from this section in both modes, once the dataset's size is
    known (a budget is turned into sigma through the accountant)."""

    clip: float
    sigma: float | None = None
    epsilon: float | None = None
    delta: float | None = None

    def __post_init__(self):
        budget = (self.epsilon, self.delta)
        if (self.sigma is None) == (budget == (None, None)):
            raise ValueError("needs exactly one of sigma or epsilon+delta")
        if self.sigma is None:
            if None in budget:
                raise ValueError("budget mode needs both epsilon and delta")
            if not (self.epsilon > 0.0 and 0.0 < self.delta < 1.0):
                raise ValueError("budget mode needs epsilon > 0 and 0 < delta < 1")
            if self.clip == math.inf:
                raise ValueError("budget mode needs a finite clip")
        DpParams(self.clip, self.sigma or 0.0)  # checks the bound and sigma

    @property
    def budget_mode(self) -> bool:
        return self.epsilon is not None


@dataclass
class EvalSection:
    control: str | None = None  # identity: score the dataset against itself
    checkpoint: str | None = None  # the --checkpoint flag takes precedence
    synth_samples: int | None = None  # default: the dataset's size
    seed: int = 0
    metrics: tuple[str, ...] = ("awd",)  # of awd, amplitude_awd, mae, pca
    task: str | None = None  # forecast or classify: adds the TPD metric

    def __post_init__(self):
        if self.control not in (None, "identity"):
            raise ValueError(f"unknown control {self.control!r}")
        if self.synth_samples is not None and self.synth_samples < (2 if self.task else 1):
            raise ValueError("synth_samples must be >= 1, and >= 2 with a task to split")
        if unknown := set(self.metrics) - {"awd", "amplitude_awd", "mae", "pca"}:
            raise ValueError(f"unknown metrics {sorted(unknown)}")
        if self.task not in (None, "forecast", "classify"):
            raise ValueError(f"unknown task {self.task!r}")


@dataclass
class OutputSection:
    dir: str


@dataclass
class ExperimentConfig:
    """Each field but ``raw_text`` is the section of its name; one without a
    default must be in the file."""

    dataset: DatasetSection
    partition: dict[int, list[int]]  # party_<id> = its attribute indices
    train: TrainConfig
    output: OutputSection
    dp: DpSection | None = None
    eval: EvalSection = field(default_factory=EvalSection)
    audit: AuditConfig = field(default_factory=AuditConfig)
    raw_text: str = ""


def _convert(hint, text: str):
    """``text`` as int, float, str, bool, or a comma-separated tuple of one."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_convert(item, v.strip()) for v in text.split(",") if v.strip() != "")
    if hint is bool:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    return hint(text)


def _required(f: dataclasses.Field) -> bool:
    no_default = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    return no_default or f.metadata.get("ini") == "required"


def _unwrap(hint):
    """X for X | None, where None means the key or section is absent."""
    return typing.get_args(hint)[0] if isinstance(hint, types.UnionType) else hint


def section_keys(schema: type) -> dict[str, str]:
    """Every key of a section read into ``schema``, mapped to its field."""
    keys = {}
    for f in dataclasses.fields(schema):
        if f.metadata.get("ini") != "code":
            keys[f.name] = keys[f.metadata.get("ini_alias", f.name)] = f.name
    return keys


def _read_section(parser: configparser.ConfigParser, name: str, schema: type):
    keys, hints = section_keys(schema), typing.get_type_hints(schema)
    values: dict = {}
    for key, text in parser[name].items():
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
        hint = _unwrap(hints[keys[key]])
        try:
            value = _convert(hint, text)
        except (KeyError, ValueError):
            label = str(hint) if typing.get_args(hint) else hint.__name__
            raise ConfigError(f"[{name}] {key} = {text!r} is not a valid {label}") from None
        if keys[key] in values and values[keys[key]] != value:
            raise ConfigError(f"[{name}] {keys[key]} and its alias disagree")
        values[keys[key]] = value
    for f in dataclasses.fields(schema):
        if _required(f) and f.name not in values:
            raise ConfigError(f"[{name}] needs {f.name}")
    try:
        return schema(**values)
    except ValueError as exc:
        raise ConfigError(f"bad [{name}] section: {exc}") from None


def _read_partition(parser: configparser.ConfigParser) -> dict[int, list[int]]:
    assignment: dict[int, list[int]] = {}
    for key, value in parser["partition"].items():
        try:
            if not key.startswith("party_"):
                raise ValueError
            assignment[int(key.split("_", 1)[1])] = list(_convert(tuple[int, ...], value))
        except ValueError:
            raise ConfigError(
                f"partition entries look like party_<id> = <attribute>,..., got {key} = {value}"
            ) from None
    return assignment


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text()
        parser.read_string(text, source=str(path))
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    hints = typing.get_type_hints(ExperimentConfig)
    names = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    for name in names:
        if name not in hints or name == "raw_text":
            raise ConfigError(f"unknown section [{name}]")
    values: dict = {"raw_text": text}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "partition" and f.name in names:
            values[f.name] = _read_partition(parser)
        elif f.name in names:
            values[f.name] = _read_section(parser, f.name, _unwrap(hints[f.name]))
        elif _required(f):
            raise ConfigError(f"missing [{f.name}] section")
    return ExperimentConfig(**values)


def check_audit_sizes(cfg: ExperimentConfig, n_samples: int) -> None:
    """The audit's checks against the dataset's size N, to run before any
    training: world 0 trains on N - 1 samples and releases ``synth_samples``
    rows, or N - 1, for k-NN scoring."""
    au, release = cfg.audit, cfg.audit.synth_samples or n_samples - 1
    if au.selector.isdecimal() and int(au.selector) >= n_samples:
        raise ConfigError(f"[audit] selector {au.selector} is not below the {n_samples} samples")
    if au.selector == "influential" and au.candidate_m > n_samples:
        raise ConfigError(f"[audit] candidate_m={au.candidate_m} exceeds the {n_samples} samples")
    if au.knn_k > release:
        raise ConfigError(f"[audit] knn_k={au.knn_k} exceeds the release size {release}")
    if cfg.train.batch_size >= n_samples:
        raise ConfigError(f"[train] batch_size exceeds world 0's {n_samples - 1} samples")


def build_dataset(cfg: ExperimentConfig) -> TimeSeriesDataset:
    ds = cfg.dataset
    try:
        if ds.kind == "csv":
            return load_csv(ds.path, None if ds.sidecar is None else load_sidecar(ds.sidecar))
        gen = gen_sine2 if ds.kind == "sine2" else gen_sine6
        noise = {} if ds.noise_std is None else {"noise_std": ds.noise_std}
        return gen(n_per_class=ds.n_per_class, t_steps=ds.t_steps, seed=ds.seed, **noise)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad [dataset] section: {exc}") from exc
