"""The benchmark's workloads: the INI configs each one writes from its seed,
and the CLI commands that make up one round of it.

A workload seed ``s`` fixes every input: the dataset seed is ``s``, the
training seed ``s + 1``, the evaluation seed ``s + 2`` and the audit seed
``s + 3``. The program sees only the configs written here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

# Iterations per federation. Every training converges to well under half its
# iteration-0 distance by iteration 100 on all seeds tried, so the 150 used
# here leave the convergence check a wide margin.
TRAIN_ITERS = 150
AUDIT_ITERS = 150
AUDIT_SHADOW_PAIRS = 3

DP_BUDGET = {"clip": 1.0, "epsilon": 10, "delta": 1e-3}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the checks need to know about it."""

    name: str
    argv: tuple[str, ...]
    out_dir: Path
    kind: str  # "train", "evaluate" or "audit"
    spec: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Plan:
    data_config: Path
    data_dir: Path
    commands: tuple[Command, ...]

    def outputs(self) -> list[Path]:
        """Files the determinism check compares between rounds."""
        names = {
            "train": ("history.csv", "best_generators.npz", "final_generators.npz"),
            "evaluate": ("evaluation.json",),
            "audit": ("audit_features.csv", "audit.json"),
        }
        return [c.out_dir / n for c in self.commands for n in names[c.kind]]


def _ini(sections: dict[str, dict]) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _write(path: Path, sections: dict[str, dict]) -> Path:
    path.write_text(_ini(sections))
    return path


def _data_config(work: Path, dataset: dict, partition: dict, seed: int) -> Path:
    return _write(
        work / "gen-data.ini",
        {
            "dataset": dataset,
            "partition": partition,
            "train": {"seed": seed + 1},
            "output": {"dir": work / "data"},
        },
    )


def _sine2_topologies(seed: int, work: Path):
    dataset = {"kind": "sine2", "n_per_class": 512, "t_steps": 100, "seed": seed}
    partition = {"party_0": 0, "party_1": 1}
    train = {"batch_size": 64, "max_iters": TRAIN_ITERS, "checkpoint_every": 50, "seed": seed + 1}
    commands = []
    for topology in ("vfl", "centralized", "local_only"):
        out = work / topology
        cfg = _write(
            work / f"train-{topology}.ini",
            {
                "dataset": dataset,
                "partition": partition,
                "train": {**train, "topology": topology},
                "output": {"dir": out},
            },
        )
        commands.append(
            Command(
                f"train-{topology}",
                ("train", "--config", str(cfg)),
                out,
                "train",
                {"topology": topology, "iters": TRAIN_ITERS},
            )
        )
    checkpoint = work / "vfl" / "best_generators.npz"
    eval_section = {
        "metrics": "awd, amplitude_awd, mae, pca",
        "task": "forecast",
        "seed": seed + 2,
        "synth_samples": 1024,
    }
    out = work / "evaluate"
    cfg = _write(
        work / "evaluate.ini",
        {
            "dataset": dataset,
            "partition": partition,
            "train": train,
            "eval": eval_section,
            "output": {"dir": out},
        },
    )
    commands.append(
        Command(
            "evaluate",
            ("evaluate", "--config", str(cfg), "--checkpoint", str(checkpoint)),
            out,
            "evaluate",
            {"checkpoint": checkpoint, "seed": seed + 2, "synth_samples": 1024},
        )
    )
    return dataset, partition, commands


def _sine6_dp_budget(seed: int, work: Path):
    dataset = {"kind": "sine6", "n_per_class": 512, "t_steps": 100, "seed": seed}
    partition = {"party_0": "0,1", "party_1": "2,3", "party_2": "4,5"}
    train = {
        "topology": "vfl",
        "batch_size": 64,
        "max_iters": TRAIN_ITERS,
        "checkpoint_every": 50,
        "seed": seed + 1,
    }
    out = work / "vfl-dp"
    cfg = _write(
        work / "train-vfl-dp.ini",
        {
            "dataset": dataset,
            "partition": partition,
            "train": train,
            "dp": DP_BUDGET,
            "output": {"dir": out},
        },
    )
    spec = {"topology": "vfl", "iters": TRAIN_ITERS, "dp": DP_BUDGET, "gamma": 64 / 1024}
    return dataset, partition, [Command("train-vfl-dp", ("train", "--config", str(cfg)), out, "train", spec)]


def _audit_tiny(seed: int, work: Path):
    # the N=16, T=50 overfit configuration of acceptance criterion 7c, with
    # fewer shadow pairs and iterations
    dataset = {"kind": "sine2", "n_per_class": 8, "t_steps": 50, "seed": seed}
    partition = {"party_0": 0, "party_1": 1}
    train = {
        "topology": "vfl",
        "batch_size": 8,
        "max_iters": AUDIT_ITERS,
        "checkpoint_every": 50,
        "eval_samples": 16,
        "gen_hidden": "64,64",
        "disc_hidden": "64,32",
        "fe_hidden": 64,
        "feature_dim": 16,
        "shared_hidden": 64,
        "seed": seed + 1,
    }
    audit = {
        "selector": "outlier",
        "shadow_pairs": AUDIT_SHADOW_PAIRS,
        "knn_k": 3,
        "synth_samples": 64,
        "seed": seed + 3,
    }
    out = work / "audit"
    cfg = _write(
        work / "audit.ini",
        {"dataset": dataset, "partition": partition, "train": train, "audit": audit, "output": {"dir": out}},
    )
    spec = {"shadow_pairs": AUDIT_SHADOW_PAIRS, "iters": AUDIT_ITERS}
    return dataset, partition, [Command("audit", ("audit", "--config", str(cfg)), out, "audit", spec)]


WORKLOADS = {
    "sine2-topologies": _sine2_topologies,
    "sine6-dp-budget": _sine6_dp_budget,
    "audit-tiny": _audit_tiny,
}


def vfl_iterations(command: Command) -> int:
    """Federated (vfl) training iterations one run of the command performs."""
    if command.kind == "audit":
        return 2 * command.spec["shadow_pairs"] * command.spec["iters"]
    if command.kind == "train" and command.spec["topology"] == "vfl":
        return command.spec["iters"]
    return 0


def write_plan(workload: str, seed: int, work: Path) -> Plan:
    """Write the workload's configs under ``work`` and return its plan."""
    work.mkdir(parents=True, exist_ok=True)
    dataset, partition, commands = WORKLOADS[workload](seed, work)
    data_config = _data_config(work, dataset, partition, seed)
    return Plan(data_config, work / "data", tuple(commands))
