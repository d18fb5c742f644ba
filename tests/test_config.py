"""The INI schema: the accepted key set, the README's full config, the
benchmark's configs, and what the CLI does with a mutated valid config."""

import contextlib
import dataclasses
import importlib.util
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedtsgan import cli, config, federation, workers
from fedtsgan.audit import AuditConfig
from fedtsgan.config import parse_config

ROOT = Path(__file__).parents[1]

SCHEMAS = {
    "dataset": config.DatasetSection,
    "train": federation.TrainConfig,
    "dp": config.DpSection,
    "eval": config.EvalSection,
    "audit": AuditConfig,
    "output": config.OutputSection,
}
ACCEPTED = {
    "dataset": {"kind", "seed", "n_per_class", "t_steps", "noise_std", "path", "sidecar"},
    "train": {
        "topology", "latent_dim", "batch_size", "max_iters", "beta1", "lambda", "beta2", "lr",
        "adam_beta1", "adam_beta2", "adam_eps", "seed", "checkpoint_every", "eval_samples",
        "gen_hidden", "disc_hidden", "fe_hidden", "feature_dim", "shared_hidden", "non_saturating",
    },
    "dp": {"clip", "sigma", "epsilon", "delta"},
    "eval": {"control", "checkpoint", "synth_samples", "seed", "metrics", "task"},
    "audit": {
        "selector", "shadow_pairs", "knn_k", "candidate_m", "norm", "seed", "synth_samples",
        "rounds",
    },
    "output": {"dir"},
}


def test_each_section_accepts_exactly_its_keys():
    sections = {f.name for f in dataclasses.fields(config.ExperimentConfig)}
    assert sections == {*ACCEPTED, "partition", "raw_text"}
    for name, keys in ACCEPTED.items():
        assert set(config.section_keys(SCHEMAS[name])) == keys, name


def test_the_readme_config_parses_and_names_every_key(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("A full config", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "full.ini"
    path.write_text(block)
    cfg = parse_config(path)
    assert cfg.partition == {0: [0], 1: [1]} and cfg.dp.sigma == 2.0
    # keys set in the block, or named in a commented-out alternative
    named: dict[str, set[str]] = {}
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = header[1]
        elif key := re.fullmatch(r"(?:; )?(\w+) = .*", line):
            named.setdefault(section, set()).add(key[1])
    assert named.pop("partition") == {"party_0", "party_1"}
    assert named == ACCEPTED


@pytest.fixture(scope="module")
def workloads():
    # perfbench/ is not a package: load its workload module from its file
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["sine2-topologies", "sine6-dp-budget", "audit-tiny"])
def test_every_benchmark_config_parses(workloads, tmp_path, workload):
    assert workload in workloads.WORKLOADS
    plan = workloads.write_plan(workload, 7, tmp_path)
    written = sorted(tmp_path.glob("*.ini"))
    assert plan.data_config in written and len(written) == len(plan.commands) + 1
    for path in written:
        parse_config(path)


def _render(sections: list[tuple[str, list[tuple[str, str]]]]) -> str:
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys)
        for name, keys in sections
    )


@pytest.fixture(scope="module")
def valid_sections(tmp_path_factory):
    """A tiny config that every command accepts, and a checkpoint trained
    from it for [eval] to read."""
    work = tmp_path_factory.mktemp("schema")
    sections = {
        "dataset": {
            "kind": "sine2", "n_per_class": "8", "t_steps": "10", "noise_std": "0.05", "seed": "5",
        },
        "partition": {"party_0": "0", "party_1": "1"},
        "train": {
            "topology": "vfl", "latent_dim": "3", "batch_size": "4", "max_iters": "2",
            "beta1": "1.0", "beta2": "1.0", "lr": "2e-4", "adam_beta1": "0.5",
            "adam_beta2": "0.999", "adam_eps": "1e-8", "checkpoint_every": "2",
            "eval_samples": "8", "seed": "11", "gen_hidden": "6,5", "disc_hidden": "6,4",
            "fe_hidden": "5", "feature_dim": "4", "shared_hidden": "6", "non_saturating": "no",
        },
        "dp": {"clip": "1.0", "sigma": "0.5"},
        "eval": {"metrics": "awd, mae, pca", "task": "forecast", "seed": "1", "synth_samples": "8"},
        "audit": {
            "selector": "outlier", "shadow_pairs": "2", "knn_k": "1", "candidate_m": "2",
            "norm": "2", "seed": "4", "synth_samples": "4", "rounds": "1",
        },
        "output": {"dir": str(work / "trained")},
    }
    path = work / "valid.ini"
    path.write_text(_render([(name, list(keys.items())) for name, keys in sections.items()]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", str(path)]) == 0
    sections["eval"]["checkpoint"] = str(work / "trained" / "best_generators.npz")
    sections["output"]["dir"] = "run"  # under FEDTSGAN_OUTPUT_ROOT
    return sections


# keys whose in-range growth would train for long: max_iters stays <= 2
SLOW_KEYS = {"max_iters", "shadow_pairs", "rounds"}


@st.composite
def mutations(draw, sections):
    name = draw(st.sampled_from(sorted(sections)))
    key = draw(st.sampled_from(sorted(sections[name])))
    kind = draw(
        st.sampled_from(
            ["drop", "wrong_type", "out_of_range", "unknown_key", "unknown_section", "duplicate"]
        )
    )
    if kind == "drop" and key == "max_iters":
        kind = "out_of_range"
    value = None
    if kind == "wrong_type":
        value = draw(st.sampled_from(["x", "1.5", "", "1,2"]))
    elif kind == "out_of_range":
        large = [] if key in SLOW_KEYS else ["99"]
        value = draw(st.sampled_from(["-1", "0", "nan", "inf", "1e-300", *large]))
    return name, key, kind, value


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_config_exits_with_a_documented_code(valid_sections, data):
    name, key, kind, value = data.draw(mutations(valid_sections))
    sections = [(n, list(keys.items())) for n, keys in valid_sections.items()]
    keys = dict(sections)[name]
    index = [k for k, _ in keys].index(key)
    if kind == "drop":
        del keys[index]
    elif kind in ("wrong_type", "out_of_range"):
        keys[index] = (key, value)
    elif kind == "unknown_key":
        keys.append(("bogus_key", "1"))
    elif kind == "unknown_section":
        sections.append(("bogus", [("key", "1")]))
    else:
        keys.insert(index, keys[index])
    command = {"eval": "evaluate", "audit": "audit"}.get(name, "train")

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
        mp.setenv("FEDTSGAN_OUTPUT_ROOT", work)
        mp.setattr(workers, "usable_cores", lambda: 1)
        path = Path(work) / "mutated.ini"
        path.write_text(_render(sections))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path)])
    assert code in (0, 2, 3, 4), (name, key, kind, value)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), (name, key, kind, value)
