#!/usr/bin/env python3
"""Train all three topologies on the two-attribute sine data and compare.

For each seed and topology the script reports the best-checkpoint amplitude
distance, the reconstruction MAE, and the within-sample amplitude-ratio
statistics (the cross-party coupling signal: the ratio should sit near 1
with a tight spread when the server-side discriminator does its job). The
trainings run in one contiguous chunk per usable core, and the rows are
printed in seed and topology order once all have finished.

Example:
    python3 scripts/run_sine_benchmark.py --seeds 31 32 33 --iters 2000 \
        --out runs/sine_benchmark.csv
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedtsgan import data, federation as fed, metrics, workers  # noqa: E402


def ratio_stats(bank, freqs, n=512, seed=99):
    synth = fed.synthesize(bank, n, seed)
    amps = metrics.estimate_amplitudes(synth, freqs)
    ratio = amps[:, 0] / amps[:, 1]
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    return synth, med, q3 - q1


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

    def run(seed, topology):
        t0 = time.time()
        cfg = fed.TrainConfig(
            topology=topology,
            max_iters=args.iters,
            checkpoint_every=100,
            seed=seed,
            batch_size=min(args.batch_size, ds.n_samples),
            eval_samples=min(512, ds.n_samples),
        )
        res = fed.train(cfg, views)
        synth, med, iqr = ratio_stats(res.best_bank, freqs)
        return {
            "seed": seed,
            "topology": topology,
            "diverged": res.diverged,
            "init_awd": res.history[0]["awd"],
            "best_awd": res.best_awd,
            "best_iteration": res.best_iteration,
            "mae": metrics.sine_mae(synth, freqs),
            "ratio_median": med,
            "ratio_iqr": iqr,
            "seconds": round(time.time() - t0, 1),
        }

    # the trainings are independent: one chunk of them per usable core
    topologies = ("vfl", "centralized", "local_only")
    jobs = [(seed, topology) for seed in args.seeds for topology in topologies]
    chunks = [jobs[part] for part in workers.split(len(jobs))]
    done = workers.run_chunks(lambda chunk: [run(*job) for job in chunk], chunks)
    rows = [row for chunk in done for row in chunk]
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
