#!/usr/bin/env python3
"""Compare two commits on the benchmark in alternating pairs of runs.

Each side runs ``perfbench/run.py`` from its own ``git archive`` checkout in
a temporary directory; odd pairs run the parent first, even pairs the
change first. For every end-to-end metric of ``BENCHMARK.json`` the JSON
written holds each side's runs, median and quartiles, the pairs the change
won, the parent's interquartile range, whether the change stays inside the
metric's bound and whether it resolves a gain (at least 9 of 10 pair wins
and a median difference larger than the parent's IQR). Each row also
records whether both sides wrote byte-identical outputs, and the same
summary, ungated, of each run's process-tree peak RSS: the peak resident
memory of the largest process in the tree of ``run.py``, forked workers
included (``peak_rss_mib`` counts the workload process alone).

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload sine2-topologies --seed 7 8 --pairs 10 --out BENCH_N.json

``--timed CMD`` also runs CMD once in each checkout (``PYTHONPATH=src``,
one BLAS thread) and records its wall time and tree peak RSS, ungated. Run
it from the repository root; it uses the standard library and numpy only,
and removes its checkouts and every process it started before it exits.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_TIMEOUT_S = 600


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def checkout(sha: str, into: Path) -> Path:
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into


def kill_group(pgid: int) -> bool:
    """SIGKILL every process left in the group; False if there was none."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def run(argv: list[str], cwd: Path, env: dict | None = None) -> tuple[str, float]:
    """Run argv in its own process group and return its stdout and the peak
    RSS in MiB of the largest process in its tree. ``wait4`` reports that
    peak over the child and every descendant it waited for (on Linux
    ``ru_maxrss`` is in KiB). Kill the whole group if it overruns or we are
    interrupted, and fail if any process of it outlives argv, so no
    workload process outlives us."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err, text=True, start_new_session=True
        )
        timer = threading.Timer(RUN_TIMEOUT_S, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                kill_group(proc.pid)
                proc.wait()
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv)} in {cwd} exited {proc.returncode}:\n{err.read()[-3000:]}")
        if kill_group(proc.pid):
            raise SystemExit(f"{' '.join(argv)} in {cwd} left processes running (killed)")
        return out.read(), usage.ru_maxrss / 1024.0


def bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    out, tree_peak_rss_mib = run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        tree,
    )
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    session = json.loads((tree / ".perfbench" / workload / "session.json").read_text())
    return {
        "environment": lines[0],
        "result": lines[-1],
        "digests": [r["digests"] for r in session["rounds"]],
        "tree_peak_rss_mib": tree_peak_rss_mib,
    }


def summarize(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """One metric's two sides; ``bound=None`` for an ungated record, which
    gets no ``within_bound``."""
    p_q1, p_med, p_q3 = (float(v) for v in np.percentile(parent, [25, 50, 75]))
    c_q1, c_med, c_q3 = (float(v) for v in np.percentile(change, [25, 50, 75]))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratio = c_med / p_med
    summary = {
        "better": better,
        "parent": {"median": round(p_med, 4), "q1": round(p_q1, 4), "q3": round(p_q3, 4),
                   "runs": [round(v, 4) for v in parent]},
        "change": {"median": round(c_med, 4), "q1": round(c_q1, 4), "q3": round(c_q3, 4),
                   "runs": [round(v, 4) for v in change]},
        "change_wins": int(wins),
        "change_over_parent_median": round(ratio, 4),
        "parent_iqr": round(p_q3 - p_q1, 4),
        "resolved_gain": bool(
            wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1
        ),
    }
    if bound is not None:
        summary["within_bound"] = bool(
            ratio >= 1.0 - bound if better == "higher" else ratio <= 1.0 + bound
        )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, nargs="+", default=[7])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--timed", help="command to time once on each side, e.g. a slow test")
    parser.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    args = parser.parse_args()

    shas = {side: git("rev-parse", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    rows, timed = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: checkout(sha, Path(tmp) / side) for side, sha in shas.items()}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        for workload in args.workload:
            for seed in args.seed:
                runs = {"parent": [], "change": []}
                for pair in range(1, args.pairs + 1):
                    order = ("parent", "change") if pair % 2 else ("change", "parent")
                    for side in order:
                        runs[side].append(bench(trees[side], workload, seed, args.seconds))
                        r = runs[side][-1]["result"]
                        print(f"{workload} seed {seed} pair {pair} {side}: correct={r['correct']} "
                              + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                              + f" tree_peak_rss_mib={runs[side][-1]['tree_peak_rss_mib']:.4g}",
                              file=sys.stderr, flush=True)
                environment = runs["change"][0]["environment"]
                reference = runs["parent"][0]["digests"][0]
                rows.append({
                    "workload": workload,
                    "seed": seed,
                    "pairs": args.pairs,
                    "all_correct": all(r["result"]["correct"] for side in runs.values() for r in side),
                    "outputs_identical": all(
                        d == reference for side in runs.values() for r in side for d in r["digests"]
                    ),
                    "failed_operations": {s: sum(r["result"]["failed"] for r in v) for s, v in runs.items()},
                    "attempted_operations": {s: sum(r["result"]["attempted"] for r in v) for s, v in runs.items()},
                    "metrics": {
                        m["name"]: summarize(
                            [r["result"]["metrics"][m["name"]]["value"] for r in runs["parent"]],
                            [r["result"]["metrics"][m["name"]]["value"] for r in runs["change"]],
                            m["better"], m["bound"],
                        )
                        for m in spec["end_to_end"]
                    },
                    "tree_peak_rss_mib": summarize(
                        [r["tree_peak_rss_mib"] for r in runs["parent"]],
                        [r["tree_peak_rss_mib"] for r in runs["change"]],
                        "lower", None,
                    ),
                })
        if args.timed:
            timed = {"command": args.timed}
            for side, tree in trees.items():
                start = time.monotonic()
                _, peak = run(shlex.split(args.timed), tree, dict(os.environ, PYTHONPATH="src", **BLAS_ENV))
                timed[f"{side}_s"] = round(time.monotonic() - start, 1)
                timed[f"{side}_tree_peak_rss_mib"] = round(peak, 1)
                print(f"timed {side}: {timed[f'{side}_s']} s", file=sys.stderr, flush=True)

    report = {
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "environment": {k: environment[k] for k in ("cores", "numpy", "python", "blas_threads")},
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
            "pairs": f"{args.pairs} pairs per row; odd pairs run the parent first, even pairs the "
                     "change first; each side runs from its own git-archive checkout of its commit",
            "statistics": "median and quartiles (numpy percentile 25/50/75) of each side's runs; "
                          "change_wins counts pairs where the change is better in the metric's "
                          "direction; parent_iqr is q3 - q1 of the parent runs; within_bound compares "
                          "the median ratio with the BENCHMARK.json bound; resolved_gain needs 9/10 "
                          "pair wins and a median difference larger than parent_iqr",
            "tree_peak_rss_mib": "ru_maxrss from os.wait4 on the run.py child: the peak RSS of "
                                 "the largest process in its tree (set-up processes, the workload "
                                 "process and its forked workers), ungated",
            "outputs_identical": "every round's digests of the workload outputs (history.csv, "
                                 "*_generators.npz, evaluation.json, audit.json, audit_features.csv) "
                                 "equal those of the first parent round",
        },
        "end_to_end": rows,
    }
    if timed:
        report["timed"] = dict(timed, gate="none")
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
