#!/usr/bin/env python3
"""Membership-audit demo on a deliberately overfit tiny dataset.

Trains shadow federations with and without the most isolated sample on an
N=16 sine dataset, scores the leak with the k-NN feature AUC, then repeats
with first-layer clip+noise calibrated to an (epsilon, delta) budget to
show the attack surface shrinking.

Example:
    python3 scripts/run_audit_demo.py --iters 2000 --epsilon 10 --delta 1e-3
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedtsgan import accounting, audit, data, federation as fed  # noqa: E402
from fedtsgan.dpmech import DpParams  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=2000)
    parser.add_argument("--shadow-pairs", type=int, default=10)
    parser.add_argument("--knn-k", type=int, default=3)
    parser.add_argument("--epsilon", type=float, default=10.0)
    parser.add_argument("--delta", type=float, default=1e-3)
    parser.add_argument("--audit-seed", type=int, default=5)
    args = parser.parse_args()

    ds = data.gen_sine2(n_per_class=8, t_steps=50, seed=21)
    base = fed.TrainConfig(
        topology="vfl",
        max_iters=args.iters,
        batch_size=8,
        checkpoint_every=200,
        eval_samples=16,
        seed=0,
        gen_hidden=(64, 64),
        disc_hidden=(64, 32),
        fe_hidden=(64,),
        feature_dim=16,
        shared_hidden=(64,),
    )
    target = audit.select_target_outlier(ds)
    audit_cfg = audit.AuditConfig(
        shadow_pairs=args.shadow_pairs, knn_k=args.knn_k, seed=args.audit_seed
    )
    print(f"target sample: {target} (most isolated of {ds.n_samples})")

    t0 = time.time()
    report = audit.run_assd(
        ds, target, fed.shadow_trainer(base, {0: [0], 1: [1]}, n_synth=64), audit_cfg
    )
    print(f"non-private AUC: {report.auc:.3f}  ({time.time() - t0:.0f}s)")

    gamma = base.batch_size / ds.n_samples
    sigma, _, achieved = accounting.calibrate(args.epsilon, args.delta, gamma, args.iters)
    print(
        f"calibrated sigma={sigma:.2f} for ({args.epsilon}, {args.delta})-DP "
        f"at gamma={gamma}, T={args.iters} (achieved epsilon {achieved:.3f})"
    )

    t0 = time.time()
    dp_base = replace(base, dp=DpParams(1.0, sigma))
    dp_report = audit.run_assd(
        ds, target, fed.shadow_trainer(dp_base, {0: [0], 1: [1]}, n_synth=64), audit_cfg
    )
    print(f"private AUC:     {dp_report.auc:.3f}  ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
