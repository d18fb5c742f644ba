"""Output checks, computed apart from the program. Each function returns a
list of failure messages; an empty list means the outputs passed."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from fedtsgan import nn, rng
from fedtsgan.accounting import DEFAULT_ALPHAS

import oracles

REL = 1e-9  # "to rounding": many-term float sums in a different order
# eigh against the package's 10000-step power iteration with tolerance 1e-14
PCA_REL = 1e-6


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_train(cmd) -> list[str]:
    errors = []
    out, iters = cmd.out_dir, cmd.spec["iters"]
    rows = _read_csv(out / "history.csv")
    if len(rows) != iters + 1:
        errors.append(f"{cmd.name}: history has {len(rows)} rows, want {iters + 1}")
    if rows and "diverged" in rows[0]:
        errors.append(f"{cmd.name}: history records a divergence")
    for row in rows:
        for key, value in row.items():
            if key != "iteration" and value != "" and not math.isfinite(float(value)):
                errors.append(f"{cmd.name}: non-finite {key} at iteration {row['iteration']}")
    awds = [float(r["awd"]) for r in rows if r.get("awd")]
    manifest = json.loads((out / "manifest.json").read_text())
    if not awds or manifest["best_awd"] != min(awds):
        errors.append(f"{cmd.name}: best_awd {manifest['best_awd']} != history minimum")
    elif not manifest["best_awd"] <= 0.5 * float(rows[0]["awd"]):
        errors.append(f"{cmd.name}: best_awd {manifest['best_awd']} above half of {rows[0]['awd']}")

    # the best checkpoint through a numpy forward pass vs fedtsgan.nn.forward
    path = out / "best_generators.npz"
    latent = json.loads(path.with_suffix(".json").read_text())["latent_dim"]
    z = np.random.default_rng(0).standard_normal((64, latent))
    theirs = nn.load_models(path)
    for name, layers in oracles.load_checkpoint(path).items():
        ours = oracles.mlp_forward(layers, z)
        ref = nn.forward(theirs[name], z).output
        if not np.allclose(ours, ref, rtol=REL, atol=1e-12):
            errors.append(f"{cmd.name}: {name} forward differs by {np.abs(ours - ref).max():.3g}")

    dp = cmd.spec.get("dp")
    if dp:
        errors += _check_calibration(cmd, manifest.get("calibration"), dp)
    return errors


def _check_calibration(cmd, calibration, dp) -> list[str]:
    if calibration is None:
        return [f"{cmd.name}: manifest has no calibration"]
    errors = []
    sigma, target = calibration["sigma"], dp["epsilon"]
    if not calibration["achieved_epsilon"] <= target:
        errors.append(f"{cmd.name}: achieved epsilon {calibration['achieved_epsilon']} > {target}")

    def eps(s):
        return oracles.subsampled_rdp_epsilon(s, cmd.spec["gamma"], cmd.spec["iters"], dp["delta"], DEFAULT_ALPHAS)

    if not eps(sigma) <= target:
        errors.append(f"{cmd.name}: epsilon at sigma {sigma} is {eps(sigma)} > {target}")
    if not eps(sigma - 0.01) > target:
        errors.append(f"{cmd.name}: sigma {sigma} is not the smallest grid point meeting {target}")
    return errors


def check_evaluate(cmd, plan) -> list[str]:
    errors = []
    report = json.loads((cmd.out_dir / "evaluation.json").read_text())
    got = report["metrics"]
    real = oracles.read_export(plan.data_dir / "data.csv")
    freqs = json.loads((plan.data_dir / "data.meta.json").read_text())["frequencies"]

    # rebuild the release: the package's latent stream, our forward pass
    path = Path(cmd.spec["checkpoint"])
    latent = json.loads(path.with_suffix(".json").read_text())["latent_dim"]
    z = rng.stream(cmd.spec["seed"], "synthesize").standard_normal((cmd.spec["synth_samples"], latent))
    models = oracles.load_checkpoint(path)
    synth = np.stack([oracles.mlp_forward(models[f"g{a}"], z) for a in range(len(models))], axis=1)

    expected = {
        "awd": oracles.cell_awd(real, synth),
        "amplitude_awd": oracles.amplitude_awd(real, synth, freqs),
        "mae": oracles.sine_mae(synth, freqs),
    }
    for key, value in expected.items():
        if not _close(got[key], value):
            errors.append(f"evaluate: {key} {got[key]} != recomputed {value}")
    ratio = oracles.pca_explained_ratio(real.reshape(real.shape[0], -1))
    if not _close(got["pca_explained_ratio"], ratio, PCA_REL):
        errors.append(f"evaluate: pca_explained_ratio {got['pca_explained_ratio']} != eigh {ratio}")
    b = report["tpd_breakdown"]
    gaps = abs(b["TSTS"] - b["TRTR"]) + abs(b["TRTS"] - b["TRTR"]) + abs(b["TSTR"] - b["TRTR"])
    if not _close(got["tpd"], gaps):
        errors.append(f"evaluate: tpd {got['tpd']} != sum of gaps {gaps}")
    return errors


def check_audit(cmd, plan) -> list[str]:
    errors = []
    report = json.loads((cmd.out_dir / "audit.json").read_text())
    real = oracles.read_export(plan.data_dir / "data.csv")
    target = oracles.outlier_index(oracles.zscored_flat(real))
    if report["target_index"] != target:
        errors.append(f"audit: target {report['target_index']} != cdist outlier {target}")
    feats: dict[int, list[float]] = {0: [], 1: []}
    for row in _read_csv(cmd.out_dir / "audit_features.csv"):
        feats[int(row["world"])].append(float(row["feature"]))
    for world, values in feats.items():
        if len(values) != cmd.spec["shadow_pairs"]:
            errors.append(f"audit: world {world} has {len(values)} features")
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            errors.append(f"audit: world {world} has a negative or non-finite feature")
    if feats[0] and feats[1]:
        auc = oracles.auc_smaller_present(feats[0], feats[1])
        if not _close(report["auc"], auc):
            errors.append(f"audit: auc {report['auc']} != Mann-Whitney {auc}")
    return errors


def check_trace(session: dict) -> list[str]:
    """Protocol counts of every traced federation.train call."""
    errors = []
    if session["clip_bound_violations"]:
        errors.append(f"trace: {session['clip_bound_violations']} clipped gradients above C")
    for t in session["trainings"]:
        messages = 5 * t["parties"] * t["iterations"] if t["topology"] == "vfl" else 0
        if t["messages"] != messages:
            errors.append(f"trace: {t['topology']} sent {t['messages']} messages, want {messages}")
        protected = t["attributes"] + (t["parties"] if t["topology"] == "vfl" else 0)
        perturbs = protected * t["iterations"] if t["dp"] else 0
        if t["perturb_calls"] != perturbs:
            errors.append(f"trace: {t['perturb_calls']} perturb calls, want {perturbs}")
    return errors


def check_rounds(session: dict) -> list[str]:
    """Every round wrote byte-identical outputs, traced or not."""
    first = session["rounds"][0]["digests"]
    errors = [f"outputs: {name} missing" for name, d in first.items() if d is None]
    for i, r in enumerate(session["rounds"][1:], start=1):
        for name, digest in r["digests"].items():
            if digest != first[name]:
                errors.append(f"outputs: {name} differs in round {i} (traced={r['traced']})")
    return errors


def check_all(plan, session: dict) -> list[str]:
    errors = check_rounds(session)
    for cmd in plan.commands:
        if cmd.kind == "train":
            errors += check_train(cmd)
        elif cmd.kind == "evaluate":
            errors += check_evaluate(cmd, plan)
        else:
            errors += check_audit(cmd, plan)
    if "trainings" in session:
        errors += check_trace(session)
    return errors
