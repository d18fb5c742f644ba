#!/usr/bin/env python3
"""Train all three topologies on the two-attribute sine data and compare.

For each seed and topology the script reports the best-checkpoint amplitude
distance, the reconstruction MAE, and the within-sample amplitude-ratio
statistics (the cross-party coupling signal: the ratio should sit near 1
with a tight spread when the server-side discriminator does its job). The
trainings run on every usable core through ``federation.train_many``, and
the rows are printed in seed and topology order once all have finished.

Example:
    python3 scripts/run_sine_benchmark.py --seeds 31 32 33 --iters 2000 \
        --out runs/sine_benchmark.csv
"""

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedtsgan import data, federation as fed, metrics  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[31, 32, 33])
    parser.add_argument("--iters", type=int, default=2000)
    parser.add_argument("--n-per-class", type=int, default=512)
    parser.add_argument("--t-steps", type=int, default=100)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--out", default="runs/sine_benchmark.csv")
    args = parser.parse_args()

    ds = data.gen_sine2(args.n_per_class, args.t_steps, seed=args.data_seed)
    views = data.partition(ds, {0: [0], 1: [1]})
    freqs = ds.frequencies()

    # a row's seconds: its training and read-back, where they ran (a worker
    # starts from the call's clock); consecutive jobs never share a stack
    clock = [time.time()]

    def read(res):
        synth = fed.synthesize(res.best_bank, 512, 99)
        med, iqr = metrics.amplitude_ratio(synth, freqs)
        row = {
            "seed": res.state.config.seed,
            "topology": res.state.config.topology,
            "diverged": res.diverged,
            "init_awd": res.history[0]["awd"],
            "best_awd": res.best_awd,
            "best_iteration": res.best_iteration,
            "mae": metrics.sine_mae(synth, freqs),
            "ratio_median": med,
            "ratio_iqr": iqr,
            "seconds": round(time.time() - clock[0], 1),
        }
        clock[0] = time.time()
        return row

    base = fed.TrainConfig(
        max_iters=args.iters,
        checkpoint_every=100,
        batch_size=min(args.batch_size, ds.n_samples),
        eval_samples=min(512, ds.n_samples),
    )
    jobs = [(replace(base, topology=t, seed=s), views) for s in args.seeds for t in fed.TOPOLOGIES]
    rows = fed.train_many(jobs, read)
    for row in rows:
        print(
            f"seed={row['seed']} {row['topology']:>11}: awd {row['init_awd']:.3f} -> "
            f"{row['best_awd']:.3f}, mae {row['mae']:.4f}, ratio median "
            f"{row['ratio_median']:.3f} iqr {row['ratio_iqr']:.3f} ({row['seconds']}s)"
        )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
