#!/usr/bin/env python3
"""fedtsgan benchmark: runs one workload the way a user runs the CLI and
prints its metrics.

    python3 perfbench/run.py --workload sine2-topologies --seed 7 --seconds 20 --trace 0

Run it from the repository root. The workload runs in its own process
(``session.py``) with BLAS fixed to one thread, as one closed-loop client
issuing one ``fedtsgan`` command after another for ``--seconds``, in whole
rounds. Before it, further processes time set-up alone, so ``setup_s`` is a
median. Every output is then checked against computations made apart from
the program (``checks.py``).

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Lines before it give
the per-command figures and the environment. Working files go to
``.perfbench/<workload>/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.monotonic()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, vfl_iterations, write_plan  # noqa: E402

BLAS_THREADS = "1"
SETUP_SAMPLES = 3  # set-up runs per benchmark run, the workload's own included
DEADLINE_S = 170  # the whole benchmark run, set-up processes included


def run_session(args, work: Path, setup_only: bool) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    env.pop("FEDTSGAN_OUTPUT_ROOT", None)
    argv = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    if setup_only:
        argv.append("--setup-only")
    (work / "session.json").unlink(missing_ok=True)
    with open(work / "session.log", "a") as log:
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - START))
        proc = subprocess.run(argv, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        tail = (work / "session.log").read_text()[-3000:]
        raise SystemExit(f"workload process exited {proc.returncode}:\n{tail}")
    return json.loads((work / "session.json").read_text())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fedtsgan" / "__init__.py").is_file():
        raise SystemExit(f"no fedtsgan sources under {SRC}")

    work = Path.cwd() / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setups = []
    if not args.trace:
        setups = [run_session(args, work, True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    session = run_session(args, work, False)
    setups.append(session["setup_s"])

    import checks

    plan = write_plan(args.workload, args.seed, work)  # the session's plan; same configs
    errors = checks.check_all(plan, session)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    untraced = [r for r in session["rounds"] if not r["traced"]]
    per_command: dict[str, list[float]] = {}
    for r in untraced:
        for c in r["commands"]:
            per_command.setdefault(c["name"], []).append(c["seconds"])
    # Rates are work over the summed wall time of every round's command;
    # durations are medians over rounds.
    n = len(untraced)
    vfl_iters = n * sum(vfl_iterations(c) for c in plan.commands)
    vfl_seconds = sum(sum(per_command[c.name]) for c in plan.commands if vfl_iterations(c))
    end_to_end = {
        "setup_s": metric(statistics.median(setups), "s"),
        "round_s": metric(statistics.median(r["round_s"] for r in untraced), "s"),
        "vfl_iter_per_s": metric(vfl_iters / vfl_seconds, "1/s"),
        "peak_rss_mib": metric(session["peak_rss_kib"] / 1024, "MiB"),
    }
    commands = {}
    for c in plan.commands:
        if c.kind == "train":
            rate = n * c.spec["iters"] / sum(per_command[c.name])
            commands[f"{c.spec['topology']}_iter_per_s"] = metric(rate, "1/s")
        else:
            commands[f"{c.kind}_s"] = metric(statistics.median(per_command[c.name]), "s")

    attempted = sum(len(r["commands"]) for r in session["rounds"])
    failed = sum(c["exit"] != 0 for r in session["rounds"] for c in r["commands"])
    import numpy

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(session["rounds"]),
        "traced_rounds": len(session["rounds"]) - len(untraced), "blas_threads": int(BLAS_THREADS),
        "cores": os.cpu_count(), "numpy": numpy.__version__, "python": platform.python_version(),
    }))
    print(json.dumps({"commands": commands}))
    if args.trace:
        # the first round also warms the process up; compare the rest
        traced = statistics.median(r["round_s"] for r in session["rounds"] if r["traced"])
        plain = statistics.median(r["round_s"] for r in untraced[1:] or untraced)
        print(json.dumps({"tracing_overhead": {
            "untraced_round_s": plain, "traced_round_s": traced, "share": traced / plain - 1.0,
        }}))
        units = dict(PER_LAYER)
        metrics = {name: metric(v, units[name]) for name, v in session["per_layer"].items()}
    else:
        metrics = end_to_end
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
