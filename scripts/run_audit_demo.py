#!/usr/bin/env python3
"""Membership-audit demo on a deliberately overfit tiny dataset.

Runs ``fedtsgan audit`` twice on one INI config: shadow federations trained
with and without the most isolated sample of an N=16 sine dataset, the leak
scored by the k-NN feature AUC. The second run adds a [dp] section whose
(epsilon, delta) budget the CLI calibrates into first-layer clip+noise, to
show the attack surface shrinking. The config and outputs live in a
temporary directory; the script prints what it reads back from each run's
``audit.json`` and ``manifest.json``.

Example:
    python3 scripts/run_audit_demo.py --iters 2000 --epsilon 10 --delta 1e-3
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedtsgan import cli  # noqa: E402

CONFIG = """
[dataset]
kind = sine2
n_per_class = 8
t_steps = 50
seed = 21

[partition]
party_0 = 0
party_1 = 1

[train]
topology = vfl
max_iters = {iters}
batch_size = 8
checkpoint_every = 200
eval_samples = 16
seed = 0
gen_hidden = 64, 64
disc_hidden = 64, 32
fe_hidden = 64
feature_dim = 16
shared_hidden = 64

[audit]
shadow_pairs = {shadow_pairs}
knn_k = {knn_k}
seed = {audit_seed}
synth_samples = 64

[output]
dir = {out}
"""


def audit(tmp: Path, name: str, text: str) -> tuple[dict, dict]:
    """Run ``fedtsgan audit`` on ``text``; its audit.json and manifest.json."""
    config = tmp / f"{name}.ini"
    config.write_text(text)
    rc = cli.main(["audit", "--config", str(config)])
    if rc:
        sys.exit(rc)
    out = tmp / name
    return tuple(json.loads((out / f).read_text()) for f in ("audit.json", "manifest.json"))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=2000)
    parser.add_argument("--shadow-pairs", type=int, default=10)
    parser.add_argument("--knn-k", type=int, default=3)
    parser.add_argument("--epsilon", type=float, default=10.0)
    parser.add_argument("--delta", type=float, default=1e-3)
    parser.add_argument("--audit-seed", type=int, default=5)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        settings = dict(
            iters=args.iters, shadow_pairs=args.shadow_pairs, knn_k=args.knn_k,
            audit_seed=args.audit_seed,
        )
        t0 = time.time()
        report, _ = audit(tmp, "plain", CONFIG.format(out=tmp / "plain", **settings))
        print(f"target sample: {report['target_index']} (most isolated of 16)")
        print(f"non-private AUC: {report['auc']:.3f}  ({time.time() - t0:.0f}s)")

        t0 = time.time()
        dp = f"\n[dp]\nclip = 1.0\nepsilon = {args.epsilon!r}\ndelta = {args.delta!r}\n"
        dp_report, manifest = audit(tmp, "dp", CONFIG.format(out=tmp / "dp", **settings) + dp)
        cal = manifest["calibration"]
        print(
            f"calibrated sigma={cal['sigma']:.2f} for ({args.epsilon}, {args.delta})-DP "
            f"at gamma={cal['gamma']}, T={cal['t_max']} "
            f"(achieved epsilon {cal['achieved_epsilon']:.3f})"
        )
        print(f"private AUC:     {dp_report['auc']:.3f}  ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
