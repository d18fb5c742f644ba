"""One workload process: set up, then run whole rounds of the workload's
CLI commands as one closed-loop client until the run length is used up.

Set-up is the time from process start to the end of the ``gen-data``
export: importing ``fedtsgan``, writing the configs and exporting the
dataset the checks read. With ``--setup-only`` the process stops there.

With ``--trace 1`` rounds alternate between untraced and traced, starting
untraced, so one process yields both the tracing overhead over the same
stretch of time and a byte comparison between traced and untraced outputs.

Writes its measurements as JSON to ``<work>/session.json``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_round(cli, plan) -> dict:
    commands = []
    t_round = time.perf_counter()
    for cmd in plan.commands:
        t0 = time.perf_counter()
        try:
            code = cli.main(list(cmd.argv))
        except Exception:  # a crashed command is a failed operation
            traceback.print_exc()
            code = 1
        commands.append({"name": cmd.name, "exit": code, "seconds": time.perf_counter() - t0})
    round_s = time.perf_counter() - t_round
    digests = {str(p.relative_to(plan.data_dir.parent)): _digest(p) for p in plan.outputs()}
    return {"round_s": round_s, "commands": commands, "digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import fedtsgan.cli as cli

    from workloads import write_plan

    work = Path(args.work)
    plan = write_plan(args.workload, args.seed, work)
    if cli.main(["gen-data", "--config", str(plan.data_config)]) != 0:
        raise SystemExit("gen-data failed")
    result: dict = {"setup_s": time.perf_counter() - START}

    if not args.setup_only:
        from tracer import Tracer

        tracer = Tracer()
        rounds = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                rounds.append(run_round(cli, plan) | {"traced": traced})
            finally:
                tracer.restore()
            if time.perf_counter() - start >= args.seconds and len(rounds) >= 1 + args.trace:
                break
        if args.trace:
            result["per_layer"] = tracer.report(sum(r["traced"] for r in rounds))
            result["trainings"] = tracer.trainings
            result["clip_bound_violations"] = tracer.counters["clip_bound_violations"]
            tracer.write_spans(work / "spans.csv")
        result["rounds"] = rounds
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    (work / "session.json").write_text(json.dumps(result, indent=1, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
