"""Per-layer tracer for the benchmark's traced runs.

The layers are the package's modules. The tracer wraps their public
functions where the calling code looks them up (``federation`` imports
``perturb_first_layer``, ``amplitude_awd``, ``subsample_batch`` and
``stream`` by name, ``cli`` imports ``train`` and ``synthesize`` by name,
``config`` imports the dataset generators by name), so every call is seen
exactly once. Each wrapped call becomes a span (name, start, end, parent)
held in memory; ``busy`` is a span's duration and ``self`` its duration
minus the time covered by its wrapped children.

The wrappers only read their arguments and results: they draw from no
random stream and change no value, so a traced run writes the same bytes
as an untraced one.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict

import numpy as np

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("nn.forward.busy_s", "s"),
    ("nn.forward.calls", "count"),
    ("nn.backward.busy_s", "s"),
    ("nn.backward.calls", "count"),
    ("nn.adam_step.busy_s", "s"),
    ("nn.adam_step.calls", "count"),
    ("nn.save_models.busy_s", "s"),
    ("dpmech.perturb_first_layer.busy_s", "s"),
    ("dpmech.perturb_first_layer.calls", "count"),
    ("dpmech.clip_bound_hits", "count"),
    ("dpmech.first_layer_norm.calls", "count"),
    ("federation.discriminator_phase.self_s", "s"),
    ("federation.generator_phase.self_s", "s"),
    ("federation.train.self_s", "s"),
    ("federation.checkpoint_awd.busy_s", "s"),
    ("federation.synthesize.busy_s", "s"),
    ("federation.payload_digest.busy_s", "s"),
    ("federation.payload_digest.calls", "count"),
    ("federation.messages", "count"),
    ("federation.message_bytes.up", "B"),
    ("federation.message_bytes.down", "B"),
    ("metrics.awd_breakdown.busy_s", "s"),
    ("metrics.amplitude_awd.busy_s", "s"),
    ("metrics.pca_2d.busy_s", "s"),
    ("metrics.tpd.busy_s", "s"),
    ("metrics.wd_1d.calls", "count"),
    ("accounting.calibrate.busy_s", "s"),
    ("accounting.spent_epsilon.calls", "count"),
    ("audit.select_target_outlier.busy_s", "s"),
    ("audit.knn_feature.busy_s", "s"),
    ("audit.shadow_train.busy_s", "s"),
    ("audit.run_assd.self_s", "s"),
    ("data.gen_sine.busy_s", "s"),
    ("data.subsample_batch.busy_s", "s"),
    ("cli.save_bank.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("rng.stream.calls", "count"),
]


def _lookup_sites() -> list[tuple[str, list[tuple[object, str]]]]:
    """Span name -> every (module, attribute) through which callers reach it."""
    from fedtsgan import accounting, audit, cli, config, data, dpmech, metrics, nn, rng
    from fedtsgan import federation as fed

    return [
        ("nn.forward", [(nn, "forward")]),
        ("nn.backward", [(nn, "backward")]),
        ("nn.adam_step", [(nn, "adam_step")]),
        ("nn.save_models", [(nn, "save_models")]),
        ("dpmech.perturb_first_layer", [(fed, "perturb_first_layer"), (dpmech, "perturb_first_layer")]),
        ("dpmech.clip_first_layer", [(dpmech, "clip_first_layer")]),
        ("dpmech.first_layer_norm", [(dpmech, "first_layer_norm")]),
        ("federation.discriminator_phase", [(fed, "discriminator_phase")]),
        ("federation.generator_phase", [(fed, "generator_phase")]),
        ("federation.train", [(cli, "train"), (fed, "train")]),
        ("federation.checkpoint_awd", [(fed, "checkpoint_awd")]),
        ("federation.synthesize", [(cli, "synthesize"), (fed, "synthesize")]),
        ("federation.payload_digest", [(fed, "payload_digest")]),
        ("metrics.awd_breakdown", [(metrics, "awd_breakdown")]),
        ("metrics.amplitude_awd", [(fed, "amplitude_awd"), (metrics, "amplitude_awd")]),
        ("metrics.pca_2d", [(metrics, "pca_2d")]),
        ("metrics.tpd", [(metrics, "tpd")]),
        ("metrics.wd_1d", [(metrics, "wd_1d")]),
        ("accounting.calibrate", [(accounting, "calibrate")]),
        ("accounting.spent_epsilon", [(accounting, "spent_epsilon")]),
        ("audit.select_target_outlier", [(audit, "select_target_outlier")]),
        ("audit.knn_feature", [(audit, "knn_feature")]),
        ("audit.run_assd", [(audit, "run_assd")]),
        ("data.gen_sine", [(config, "gen_sine2"), (config, "gen_sine6")]),
        ("data.subsample_batch", [(fed, "subsample_batch"), (data, "subsample_batch")]),
        ("cli.save_bank", [(cli, "save_bank")]),
        ("cli.main", [(cli, "main")]),
        ("rng.stream", [(fed, "stream"), (metrics, "stream"), (audit, "stream"), (rng, "stream")]),
    ]


def _first_layer_norm(grads) -> float:
    return float(np.linalg.norm(np.concatenate([grads.d_weights[0].ravel(), grads.d_biases[0]])))


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.trainings: list[dict] = []  # one entry per federation.train call
        self._stack: list[list] = []  # [span index, child ns, name]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [len(self.spans), 0, name]
            self.spans.append(None)  # type: ignore[arg-type]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                busy = end - start
                self.spans[frame[0]] = (name, start, end, parent[0] if parent else -1)
                self.calls[name] += 1
                self.busy_ns[name] += busy
                self.self_ns[name] += busy - frame[1]
                if parent is not None:
                    parent[1] += busy

        return wrapper

    def active(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    # -- counting wrappers ---------------------------------------------------

    def _perturb(self, fn):
        def wrapper(grads, clip, sigma, rng):
            if _first_layer_norm(grads) > clip:
                self.counters["dpmech.clip_bound_hits"] += 1
            return fn(grads, clip, sigma, rng)

        return wrapper

    def _clip(self, fn):
        def wrapper(grads, clip):
            out = fn(grads, clip)
            if not _first_layer_norm(out) <= clip:
                self.counters["clip_bound_violations"] += 1
            return out

        return wrapper

    def _train(self, fn):
        shadow = self.timed("audit.shadow_train", fn)

        def wrapper(config, views):
            messages = self.counters["federation.messages"]
            perturbs = self.calls["dpmech.perturb_first_layer"]
            result = shadow(config, views) if self.active("audit.run_assd") else fn(config, views)
            self.trainings.append(
                {
                    "topology": config.topology,
                    "parties": len(views),
                    "attributes": sum(v.n_attributes for v in views),
                    "dp": config.dp is not None,
                    "iterations": result.state.iteration,
                    "messages": self.counters["federation.messages"] - messages,
                    "perturb_calls": self.calls["dpmech.perturb_first_layer"] - perturbs,
                }
            )
            return result

        return wrapper

    def _message_log(self, fn):
        def log(log_self, iteration, direction, party_id, kind, payload):
            self.counters["federation.messages"] += 1
            way = "up" if direction == "party->server" else "down"
            self.counters[f"federation.message_bytes.{way}"] += int(payload.nbytes)
            return fn(log_self, iteration, direction, party_id, kind, payload)

        return log

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every lookup site in the ``fedtsgan`` modules."""
        from fedtsgan.federation import MessageLog

        outer = {
            "dpmech.perturb_first_layer": self._perturb,
            "dpmech.clip_first_layer": self._clip,
            "federation.train": self._train,
        }
        for name, sites in _lookup_sites():
            for owner, attr in sites:
                wrapped = self.timed(name, getattr(owner, attr))
                if name in outer:
                    wrapped = outer[name](wrapped)
                self._patch(owner, attr, wrapped)
        self._patch(MessageLog, "log", self._message_log(MessageLog.log))
        return self

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def report(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round of the workload."""
        out = {}
        for metric, _ in PER_LAYER:
            layer, _, field_ = metric.rpartition(".")
            if field_ == "busy_s":
                value = self.busy_ns[layer] / 1e9
            elif field_ == "self_s":
                value = self.self_ns[layer] / 1e9
            elif field_ == "calls":
                value = self.calls[layer]
            else:
                value = self.counters[metric]
            out[metric] = value / rounds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_ns", "end_ns", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, start, end, parent])
