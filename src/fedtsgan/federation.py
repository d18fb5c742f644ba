"""Simulated multi-party GAN training over vertically partitioned series.

Every party trains one generator/discriminator pair per local attribute.
The topologies differ only in one more, server-side shared discriminator.
``init_stack`` builds one list of discriminators, and each reads a list of
branches: ordered lists of (party, attribute) keys whose concatenated
series it reads, optionally through the owning party's feature extractor.
An attribute discriminator reads one raw branch, its own attribute, and
enters its generator's objective with weight 1; the shared one has weight
beta1 and reads:

* ``vfl`` - one branch per party, through that party's feature extractor.
  Only features and feature gradients cross the party boundary, and every
  crossing is recorded in the message log.
* ``centralized`` - one raw pooled branch over all keys (the pooled-data
  upper bound; no feature extractors, no messages).
* ``local_only`` - nothing: there is no shared discriminator (the
  no-server lower bound).

Each iteration runs a discriminator phase then a generator phase, each one
loop over the list, and both build each discriminator's input with one
reader, ``_inputs``: the discriminator phase for the real and the fake
series, the generator phase for the fakes alone. All gradients of a phase
are computed from pre-update parameters before any update is applied. All
latent draws are broadcast: every generator in every party consumes the
same z matrix in an iteration.

Each model has one name, its slot: ``("G", party, attr)``, ``("D", party,
attr)``, ``("FE", party)`` or ``("DS",)``. The slot picks its init stream,
its Adam state, its noise streams and its discriminator entry, and the
stack's ``models`` registry is the one place a model lives.

Training always runs on a ``FederationStack``: K federations that differ
only in seed and dataset (the audit's shadow runs), each model holding the
runs' parameters along a leading run axis. ``init_stack`` draws every run's
initial weights straight into its row and builds each model's Adam state
once, for the whole stack; only the stack holds optimizer state. The phases
take (K, B) batch indices and a (K, B, l) latent z and return one loss per
run; ``train`` is a stack of one. Every run keeps its own seed-keyed
streams, message log and checkpoints, its ``models`` are views of its row
under the same slots, and it ends with the bytes it would have produced
training alone.
``train_many`` trains ``(config, views)`` jobs in one contiguous chunk per
usable core through ``workers.run_chunks`` (the first here, each other in a
forked worker), a chunk's runs of one config as a stack, and returns its
caller's ``read`` of each result, taken where the run trained, with the
bytes of a solo ``train``. ``train_runs`` holds numpy's bundled OpenBLAS to
one thread, so a training's bytes do not depend on the host's core count.

Under DP, ``perturb_first_layer`` draws each live run's noise for a model
from that run's stream for that model, when the phase clips its gradient.
``train_runs`` takes the mechanism from ``config.dp``, which the CLI builds
from the [dp] section.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, groupby

import numpy as np

from . import nn, workers
from .data import PartyView, TimeSeriesDataset, partition, subsample_batch
from .dpmech import DpParams, perturb_first_layer
from .metrics import amplitude_awd, awd
from .rng import stream

TOPOLOGIES = ("vfl", "centralized", "local_only")
MESSAGE_KINDS = ("feature", "feature_grad")


class DivergenceError(RuntimeError):
    """A loss or gradient went non-finite; carries the iteration diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class TrainConfig:
    """Training settings and the INI [train] schema: field metadata "ini" marks
    a key the file must give ("required") or may not ("code"); "ini_alias" names a second key."""

    topology: str = "vfl"
    latent_dim: int = 32
    batch_size: int = 64
    max_iters: int = 2000
    beta1: float = field(default=1.0, metadata={"ini_alias": "lambda"})  # shared-term weight
    beta2: float = 1.0  # scale of the feature-extractor loss
    lr: float = 2e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    dp: DpParams | None = field(default=None, metadata={"ini": "code"})
    seed: int = field(default=0, metadata={"ini": "required"})
    checkpoint_every: int = 50
    eval_samples: int = 512
    gen_hidden: tuple[int, ...] = (128, 128)
    disc_hidden: tuple[int, ...] = (128, 64)
    fe_hidden: tuple[int, ...] = (128,)
    feature_dim: int = 32
    shared_hidden: tuple[int, ...] = (128,)
    non_saturating: bool = False  # generators minimize -log D(fake) instead

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        for name in ("latent_dim", "batch_size", "max_iters", "checkpoint_every",
                     "eval_samples", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("gen_hidden", "disc_hidden", "fe_hidden", "shared_hidden"):
            if min(getattr(self, name), default=1) < 1:
                raise ValueError(f"{name} widths must be >= 1")
        for name in ("beta1", "beta2", "lr"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not 0.0 < self.adam_eps < math.inf:
            raise ValueError("adam_eps must be finite and > 0")


@dataclass
class MessageRecord:
    iteration: int
    direction: str  # "party->server" or "server->party"
    party_id: int
    kind: str  # "feature" or "feature_grad"
    shape: tuple[int, ...]
    payload_hash: str


class MessageLog:
    """Append-only record of everything that crosses a party boundary.

    Kept by column, since an audit holds the logs of all its shadow runs at
    once: each message's iteration, its (direction, party, kind, shape)
    header, shared between equal headers, and the raw bytes of its payload
    digest. ``records`` lists them as ``MessageRecord``s."""

    def __init__(self):
        self._iterations: list[int] = []
        self._headers: list[tuple] = []
        self._digests = bytearray()
        self._shared: dict[tuple, tuple] = {}

    def log(self, iteration: int, direction: str, party_id: int, kind: str, payload: np.ndarray):
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"refusing to log message kind {kind!r}")
        header = (direction, party_id, kind, payload.shape)
        self._iterations.append(iteration)
        self._headers.append(self._shared.setdefault(header, header))
        self._digests += _sha256(payload)

    @property
    def records(self) -> list[MessageRecord]:
        digests = self._digests.hex()
        return [
            MessageRecord(iteration, *header, digests[64 * i : 64 * (i + 1)])
            for i, (iteration, header) in enumerate(zip(self._iterations, self._headers))
        ]


def _sha256(arr: np.ndarray) -> bytes:
    """SHA-256 of the array's float64 bytes in C order, hashed from its buffer."""
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64)).digest()


def payload_digest(arr: np.ndarray) -> str:
    return _sha256(arr).hex()


@dataclass
class Branch:
    """One input block of a discriminator: the series of ``keys``
    concatenated in order, passed through the feature extractor of party
    ``fe`` (with every boundary crossing logged) or, without one, read raw."""

    keys: list[tuple[int, int]]  # (party_id, attribute)
    fe: int | None = None


@dataclass
class Discriminator:
    """The input of the model in ``slot``: its branches' blocks side by side.
    ``loss`` names its loss, and ``weight`` scales its term in each
    generator objective."""

    slot: tuple
    loss: str
    branches: list[Branch]
    weight: float


@dataclass
class FederationState:
    """One run of a stack: its dataset views, message log, the random streams
    keyed by its seed, and ``models``, slot -> a view of its row of the
    stack's model. ``noise_rngs`` maps each noised slot to the run's
    ``np.random.Generator`` for that model's noise."""

    config: TrainConfig
    views: list[PartyView]
    log: MessageLog
    z_rng: np.random.Generator
    batch_rng: np.random.Generator
    noise_rngs: dict[tuple, np.random.Generator]
    models: dict[tuple, nn.MlpModel] = field(default_factory=dict)
    iteration: int = 0

    @property
    def dataset(self) -> TimeSeriesDataset:
        return self.views[0].dataset

    @property
    def t_steps(self) -> int:
        return self.dataset.n_steps


@dataclass
class FederationStack:
    """K federations that differ only in seed and dataset, trained as one.

    ``models`` holds every model under its slot: ``("G", party, attr)``,
    ``("D", party, attr)``, ``("FE", party)`` or ``("DS",)``, per party its
    generators, then its discriminators, then its extractor, and the shared
    discriminator last. Each holds the K runs' parameters along a leading
    run axis. The slot also keys the model's init stream, its Adam state in
    ``opts`` (no run holds an optimizer) and its noise streams. ``discs``
    lists the attribute discriminators in party order, then the shared one.
    ``runs`` keeps each run's own state (see ``FederationState``).
    """

    config: TrainConfig
    t_steps: int
    models: dict[tuple, nn.MlpModel]
    discs: list[Discriminator]
    opts: dict[tuple, nn.AdamState]
    runs: list[FederationState]


def init_stack(config: TrainConfig, jobs: list[tuple[list[PartyView], int]]) -> FederationStack:
    """One stack of runs, one per ``(views, seed)`` job; ``config.seed`` is
    replaced by each job's. The jobs must share a partition and series
    length.

    Each model draws every run's initial weights from that run's init stream
    for the model's role tags, so e.g. the shared discriminator draws the
    same weights whether it consumes features (vfl) or raw attributes of the
    same width (centralized). The stack holds them along its run axis, and
    each run's models are views of its row.

    The topology decides only the discriminator list (module docstring);
    under DP, the noise streams name every model that is clipped and noised.
    """
    if not jobs or not jobs[0][0]:
        raise ValueError("need at least one job and one party view")
    layout = [(v.party_id, list(v.attribute_indices)) for v in jobs[0][0]]
    t_steps = jobs[0][0][0].dataset.n_steps
    for views, _ in jobs:
        own = [(v.party_id, list(v.attribute_indices)) for v in views]
        if own != layout or views[0].dataset.n_steps != t_steps:
            raise ValueError("stacked runs must share one partition and series length")
        if config.batch_size > views[0].dataset.n_samples:
            raise ValueError("batch_size exceeds the dataset size")
    seeds = [seed for _, seed in jobs]
    models: dict[tuple, nn.MlpModel] = {}

    def add(slot, d_in, hidden, d_out, head):
        acts = ["leaky_relu"] * len(hidden) + [head]
        dims = [d_in, *hidden, d_out]
        models[slot] = nn.MlpModel.stack(
            [nn.init_mlp(dims, acts, stream(s, "init", *slot)) for s in seeds]
        )

    discs = []
    for pid, attrs in layout:
        for a in attrs:
            add(("G", pid, a), config.latent_dim, config.gen_hidden, t_steps, "identity")
        for a in attrs:
            add(("D", pid, a), t_steps, config.disc_hidden, 1, "sigmoid")
            discs.append(Discriminator(("D", pid, a), f"d_{pid}_{a}", [Branch([(pid, a)])], 1.0))
        if config.topology == "vfl":
            add(("FE", pid), len(attrs) * t_steps, config.fe_hidden, config.feature_dim, "identity")

    keys = [[(pid, a) for a in attrs] for pid, attrs in layout]
    if config.topology == "vfl":
        branches = [Branch(k, pid) for k, (pid, _) in zip(keys, layout)]
    elif config.topology == "centralized":
        branches = [Branch([key for k in keys for key in k])]
    else:
        branches = []
    if branches:
        shared_in = sum(
            config.feature_dim if br.fe is not None else len(br.keys) * t_steps for br in branches
        )
        add(("DS",), shared_in, config.shared_hidden, 1, "sigmoid")
        discs.append(Discriminator(("DS",), "d_shared", branches, config.beta1))

    noised = []
    if config.dp is not None:
        # the DP surface: the first layers of the attribute discriminators
        # and the feature extractors, never the shared discriminator
        noised = [slot for slot in models if slot[0] in ("D", "FE")]
    runs = [
        FederationState(
            replace(config, seed=seed),
            views,
            MessageLog(),
            stream(seed, "latent"),
            stream(seed, "batches"),
            {slot: stream(seed, "dp-noise", *slot) for slot in noised},
        )
        for views, seed in jobs
    ]
    adam = (config.lr, config.adam_beta1, config.adam_beta2, config.adam_eps)
    opts = {slot: nn.AdamState.for_model(model, *adam) for slot, model in models.items()}
    # one Adam work space for all optimizers: they step one at a time
    scratch = np.empty(2 * max(opt.m.size for opt in opts.values()))
    for opt in opts.values():
        opt.scratch = scratch
    stack = FederationStack(config, t_steps, models, discs, opts, runs)
    _bind_runs(stack)
    return stack


def _bind_runs(stack: FederationStack) -> None:
    """Make each run's models views of its row of the stack's models."""
    for k, run in enumerate(stack.runs):
        run.models = {
            slot: nn.MlpModel.from_params(model.params[k], model.shapes, model.layers)
            for slot, model in stack.models.items()
        }


def broadcast_latent(stack: FederationStack, batch_size: int) -> np.ndarray:
    """A (K, B, l) latent: one standard-normal (B, l) draw per run, shared
    by every attribute generator of that run."""
    latent_dim = stack.config.latent_dim
    return np.stack([run.z_rng.standard_normal((batch_size, latent_dim)) for run in stack.runs])


# Each phase collects ``failed``: run index -> the error that would have
# stopped that run had it trained alone. A failed run's later work in the
# phase is computed on placeholders and discarded: it logs nothing more,
# draws no noise and updates no model, so the other runs go on unchanged.


def _forward(failed: dict, model: nn.MlpModel, batch: np.ndarray) -> nn.ActivationTrace:
    """``nn.forward``; a run whose input is not finite fails here and goes on
    with zeros in its place."""
    try:
        return nn.forward(model, batch)
    except nn.NonFiniteError as exc:
        bad = ~np.isfinite(batch).all(axis=(-2, -1))
        for k in np.flatnonzero(bad):
            failed.setdefault(int(k), exc)
        return nn.forward(model, np.where(bad[:, None, None], 0.0, batch))


def _log(stack, failed: dict, direction: str, party_id: int, kind: str, payload: np.ndarray):
    """Record each live run's block of ``payload`` in that run's log."""
    for k, (run, block) in enumerate(zip(stack.runs, payload)):
        if k not in failed:
            run.log.log(run.iteration, direction, party_id, kind, block)


def _maybe_dp(stack, failed: dict, key, grads: nn.GradientSet) -> None:
    """Clip and noise each live run's gradient in place, from the run's own
    noise stream for ``key``; a model without a noise stream is left as is."""
    if key not in stack.runs[0].noise_rngs:  # the runs share one stream list
        return
    dp = stack.config.dp
    for k, (run, row) in enumerate(zip(stack.runs, grads.flat)):
        if k not in failed:
            one = nn.GradientSet.from_flat(row, grads.shapes)
            row[...] = perturb_first_layer(one, dp.clip, dp.sigma, run.noise_rngs[key]).flat


def _check_finite(failed: dict, losses: dict, where: str):
    values = np.array(list(losses.values()))  # (losses, runs)
    for k in np.flatnonzero(~np.isfinite(values).all(axis=0)):
        bad = {key: float(v) for key, v in zip(losses, values[:, k]) if not math.isfinite(v)}
        failed.setdefault(int(k), DivergenceError(f"non-finite loss in {where}", {"losses": bad}))


def _apply_updates(stack, failed: dict, pending: list) -> None:
    """Adam steps in order. A run stops at its first non-finite gradient, as
    ``nn.adam_step`` would stop a lone run there: the models before it are
    updated, that one and the later ones are not."""
    live = np.array([k not in failed for k in range(len(stack.runs))])
    for model, grads, opt in pending:
        if live.all():
            try:
                nn.adam_step(model, grads, opt)
                continue
            except nn.NonFiniteError:
                pass
        finite = np.isfinite(grads.flat).all(axis=-1)
        for k in np.flatnonzero(live & ~finite):
            failed[int(k)] = nn.NonFiniteError("non-finite gradient; model left unchanged")
        live &= finite
        if live.any():  # some runs out: step the others' rows
            rows = np.flatnonzero(live)
            part = nn.MlpModel.from_params(model.params[rows], model.shapes, model.layers)
            part_opt = replace(opt, m=opt.m[rows], v=opt.v[rows])
            nn.adam_step(part, nn.GradientSet.from_flat(grads.flat[rows], grads.shapes), part_opt)
            model.params[rows], opt.m[rows], opt.v[rows] = part.params, part_opt.m, part_opt.v
            opt.t = part_opt.t


def _mean(a: np.ndarray):
    """Each run's mean over a (..., B, 1) loss column."""
    return a.mean(axis=(-2, -1))


def _generate_fakes(stack: FederationStack, z: np.ndarray):
    """Every generator runs on the shared z. Returns per-key fake blocks and
    the generator traces for backprop."""
    traces: dict[tuple[int, int], nn.ActivationTrace] = {
        slot[1:]: nn.forward(gen, z) for slot, gen in stack.models.items() if slot[0] == "G"
    }
    return {key: tr.output for key, tr in traces.items()}, traces


def _join(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks side by side; a lone block as it is."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)


def _split(grad: np.ndarray, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """``grad``'s columns in consecutive pieces as wide as ``blocks``: the
    inverse of ``_join``."""
    if len(blocks) == 1:
        return [grad]
    return np.split(grad, list(accumulate(x.shape[-1] for x in blocks[:-1])), axis=-1)


def _inputs(stack, failed: dict, disc: Discriminator, *series: dict):
    """``disc``'s input for each of ``series`` (key -> (K, B, T) block).

    Each branch joins its keys' blocks; a branch with an extractor passes
    each series through it, then logs each upload. Also returns each
    branch's extractor trace of the last series (None for a raw branch) and
    the last series' per-branch blocks, for ``_split``."""
    blocks: list[list[np.ndarray]] = [[] for _ in series]
    traces = []
    for br in disc.branches:
        xs = [_join([s[key] for key in br.keys]) for s in series]
        fe_traces = [None]
        if br.fe is not None:
            fe_traces = [_forward(failed, stack.models["FE", br.fe], x) for x in xs]
            xs = [tr.output for tr in fe_traces]
            for x in xs:
                _log(stack, failed, "party->server", br.fe, "feature", x)
        for branch_blocks, x in zip(blocks, xs):
            branch_blocks.append(x)
        traces.append(fe_traces[-1])
    return [_join(b) for b in blocks], traces, blocks[-1]


def discriminator_phase(stack: FederationStack, batch_indices: np.ndarray) -> dict:
    """Update every discriminator and feature extractor on one mini-batch:
    (K, B) indices, one row into each run's dataset.

    One loop walks ``stack.discs``: each discriminator takes the real-vs-
    fake loss on the real and fake inputs ``_inputs`` builds from its
    branches, and each feature extractor on a branch descends
    beta2 * E[log(1 - D(fake features))]. Gradients are all taken at
    pre-update parameters, DP clip+noise is applied to the first layers of
    the models with a noise stream, then every update lands. Generators are
    untouched. Returns each loss as a (K,) array and the runs
    that failed.
    """
    cfg = stack.config
    batch = np.asarray(batch_indices)
    b = batch.shape[-1]
    # (A, K, B, T): each attribute's real series, contiguous like a fake block
    real = np.stack(
        [run.dataset.data[rows].swapaxes(0, 1) for run, rows in zip(stack.runs, batch)], axis=1
    )

    z = broadcast_latent(stack, b)
    fakes, _ = _generate_fakes(stack, z)
    reals = {key: real[key[1]] for key in fakes}

    failed: dict = {}
    losses: dict = {}
    pending: list[tuple[nn.MlpModel, nn.GradientSet, nn.AdamState]] = []

    for disc in stack.discs:
        (x_real, x_fake), fe_traces, fake_in = _inputs(stack, failed, disc, reals, fakes)
        model = stack.models[disc.slot]
        tr_r = _forward(failed, model, x_real)
        tr_f = _forward(failed, model, x_fake)
        log_r, dlog_r = nn.clamped_log(tr_r.output)
        log1m_f, dlog1m_f = nn.clamped_log1m(tr_f.output)
        losses[disc.loss] = -(_mean(log_r) + _mean(log1m_f))
        grads, _ = nn.backward(model, tr_r, -dlog_r / b, inputs=False)
        grads_f, _ = nn.backward(model, tr_f, -dlog1m_f / b, inputs=False)
        grads.add_(grads_f)
        _maybe_dp(stack, failed, disc.slot, grads)
        pending.append((model, grads, stack.opts[disc.slot]))

        if any(tr is not None for tr in fe_traces):
            fe_loss = cfg.beta2 * _mean(log1m_f)
            _, feat_grad = nn.backward(model, tr_f, cfg.beta2 * dlog1m_f / b, params=False)
            for br, tr_fe_f, g_slice in zip(disc.branches, fe_traces, _split(feat_grad, fake_in)):
                if tr_fe_f is None:
                    continue
                slot = ("FE", br.fe)
                _log(stack, failed, "server->party", br.fe, "feature_grad", g_slice)
                fe_grads, _ = nn.backward(stack.models[slot], tr_fe_f, g_slice, inputs=False)
                _maybe_dp(stack, failed, slot, fe_grads)
                pending.append((stack.models[slot], fe_grads, stack.opts[slot]))
                losses[f"fe_{br.fe}"] = fe_loss

    _check_finite(failed, losses, "discriminator phase")
    _apply_updates(stack, failed, pending)
    return {"losses": losses, "failed": failed}


def _fooling_term(output: np.ndarray, non_saturating: bool):
    """Generator-side objective on a discriminator output: the written
    saturating form E[log(1-D)] by default, or -E[log D], whose gradient
    does not vanish when the discriminator dominates."""
    if non_saturating:
        val, dval = nn.clamped_log(output)
        return -_mean(val), -dval
    val, dval = nn.clamped_log1m(output)
    return _mean(val), dval


def generator_step(stack: FederationStack, z: np.ndarray) -> dict:
    """Generator losses ((K,) arrays) and output-side gradients for a given
    (K, B, l) z; nothing is updated here.

    One loop walks ``stack.discs``: each discriminator reads the fakes
    through ``_inputs``, and a generator's loss and output gradient sum the
    weighted terms of the discriminators that read its series, each taken
    back through the branch's feature extractor where it has one.
    """
    cfg = stack.config
    b = z.shape[-2]
    fakes, gen_traces = _generate_fakes(stack, z)

    failed: dict = {}
    losses: dict = {}
    out_grads: dict[tuple[int, int], np.ndarray] = {}

    for disc in stack.discs:
        (x_fake,), fe_traces, fake_in = _inputs(stack, failed, disc, fakes)
        model = stack.models[disc.slot]
        tr_d = _forward(failed, model, x_fake)
        term, dterm = _fooling_term(tr_d.output, cfg.non_saturating)
        term = disc.weight * term
        _, in_grad = nn.backward(model, tr_d, disc.weight * dterm / b, params=False)
        for br, tr_fe, grad in zip(disc.branches, fe_traces, _split(in_grad, fake_in)):
            if tr_fe is not None:
                _log(stack, failed, "server->party", br.fe, "feature_grad", grad)
                _, grad = nn.backward(stack.models["FE", br.fe], tr_fe, grad, params=False)
            x_grad = grad.reshape(*grad.shape[:-1], len(br.keys), stack.t_steps)
            for j, key in enumerate(br.keys):
                # a first term is assigned, not added to zeros: -0.0 stays
                if key in out_grads:
                    out_grads[key] += x_grad[..., j, :]
                    losses[f"g_{key[0]}_{key[1]}"] += term
                else:
                    out_grads[key] = x_grad[..., j, :]
                    losses[f"g_{key[0]}_{key[1]}"] = term

    return {"losses": losses, "out_grads": out_grads, "traces": gen_traces, "failed": failed}


def generator_phase(stack: FederationStack) -> dict:
    """Update every attribute generator on a fresh shared z.

    All gradients come from one generator_step at pre-update parameters;
    discriminators and feature extractors are read, never written. Returns
    each loss as a (K,) array and the runs that failed.
    """
    z = broadcast_latent(stack, stack.config.batch_size)
    step = generator_step(stack, z)
    failed = step["failed"]
    _check_finite(failed, step["losses"], "generator phase")
    for slot, gen in stack.models.items():
        if slot[0] == "G":
            trace, out_grad = step["traces"][slot[1:]], step["out_grads"][slot[1:]]
            grads, _ = nn.backward(gen, trace, out_grad, inputs=False)
            _apply_updates(stack, failed, [(gen, grads, stack.opts[slot])])
    return {"losses": step["losses"], "failed": failed}


@dataclass
class GeneratorBank:
    """Trained generators addressable by original attribute index."""

    generators: dict[int, nn.MlpModel]
    latent_dim: int
    t_steps: int
    meta: dict = field(default_factory=dict)

    def copy(self) -> "GeneratorBank":
        return GeneratorBank(
            {a: g.copy() for a, g in self.generators.items()},
            self.latent_dim,
            self.t_steps,
            dict(self.meta),
        )


def bank_from_state(state: FederationState) -> GeneratorBank:
    gens = {slot[2]: gen for slot, gen in state.models.items() if slot[0] == "G"}
    return GeneratorBank(gens, state.config.latent_dim, state.t_steps, dict(state.dataset.meta))


def synthesize(bank: GeneratorBank, n: int, seed: int) -> TimeSeriesDataset:
    """Generate n samples; all attribute generators share each sample's z,
    and outputs land at their original attribute positions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = stream(seed, "synthesize").standard_normal((n, bank.latent_dim))
    n_attr = max(bank.generators) + 1
    out = np.empty((n, n_attr, bank.t_steps))
    for attr, gen in sorted(bank.generators.items()):
        out[:, attr, :] = nn.forward(gen, z).output
    return TimeSeriesDataset(out, None, [f"attr{i}" for i in range(n_attr)], dict(bank.meta))


def checkpoint_awd(state: FederationState, eval_seed: int) -> float:
    """Distance of a fresh synthetic batch to the training data: amplitude
    space when the dataset carries frequencies, per-time otherwise."""
    real = state.dataset
    n = min(state.config.eval_samples, real.n_samples)
    synth = synthesize(bank_from_state(state), n, eval_seed)
    if real.frequencies() is not None:
        return amplitude_awd(real, synth)
    return awd(real, synth)


@dataclass
class TrainResult:
    state: FederationState
    history: list[dict]
    best_bank: GeneratorBank
    best_awd: float
    best_iteration: int
    diverged: bool = False


def _run_losses(stack: FederationStack, losses: dict) -> list[dict]:
    """The phase's losses as one dict of floats per run."""
    columns = {key: v.tolist() for key, v in losses.items()}
    return [{key: col[k] for key, col in columns.items()} for k in range(len(stack.runs))]


# every non-finite value ends its run as a divergence, so numpy need not warn
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
@workers._one_blas_thread()
def train_runs(config: TrainConfig, jobs: list[tuple[list[PartyView], int]]) -> list[TrainResult]:
    """Run the full protocol for max_iters iterations once per ``(views,
    seed)`` job, all jobs at once as the ``init_stack`` of ``jobs``.

    Every checkpoint_every iterations (and once before training) each run's
    current generators synthesize an evaluation batch; the snapshot with the
    minimum distance to the run's training data is retained as its final
    model. Divergence stops a run and keeps the best snapshot so far; the
    other runs go on in the rows that are left. The results come in job
    order, each as the run would have ended alone. Every training passes
    through here, at one BLAS thread (``workers._one_blas_thread``).
    """
    if not jobs:
        return []
    stack = init_stack(config, jobs)
    results, eval_seeds = [], []
    for run, (_, seed) in zip(stack.runs, jobs):
        eval_seeds.append(stream(seed, "eval-seed").integers(0, 2**63 - 1))
        awd0 = checkpoint_awd(run, eval_seeds[-1])
        history = [{"iteration": 0, "awd": awd0}]
        results.append(TrainResult(run, history, bank_from_state(run).copy(), awd0, 0))

    live = list(range(len(jobs)))  # the job of each run of ``stack``
    for it in range(1, config.max_iters + 1):
        for run in stack.runs:
            run.iteration = it
        batch = np.stack(
            [
                subsample_batch(run.dataset.n_samples, config.batch_size, run.batch_rng)
                for run in stack.runs
            ]
        )
        rows = [{"iteration": it} for _ in live]
        for phase in (lambda s: discriminator_phase(s, batch), generator_phase):
            info = phase(stack)
            for row, losses in zip(rows, _run_losses(stack, info["losses"])):
                row.update(losses)
            if info["failed"]:
                live, rows = _retire(stack, live, rows, info["failed"], results, it)
                if not live:
                    return results
        checkpoint = it % config.checkpoint_every == 0 or it == config.max_iters
        for j, row in zip(live, rows):
            result = results[j]
            if checkpoint:
                row["awd"] = checkpoint_awd(result.state, eval_seeds[j])
                if row["awd"] < result.best_awd:
                    result.best_awd = row["awd"]
                    result.best_bank = bank_from_state(result.state).copy()
                    result.best_iteration = it
            result.history.append(row)
    return results


def _retire(stack, live: list[int], rows: list[dict], failed: dict, results, it: int):
    """End the failed runs at iteration ``it``, each with a copy of the rows
    it last had; the stack keeps only the others' rows."""
    for k, exc in failed.items():
        results[live[k]].history.append({"iteration": it, "diverged": str(exc)})
        results[live[k]].diverged = True
        for own in stack.runs[k].models.values():  # so the old (K, P) arrays can go
            mine = nn.MlpModel.from_params(own.params.copy(), own.shapes, own.layers)
            own.params, own.layers = mine.params, mine.layers
    keep = [k for k in range(len(live)) if k not in failed]
    for slot, model in stack.models.items():
        kept = nn.MlpModel.from_params(model.params[keep], model.shapes, model.layers)
        model.params, model.layers = kept.params, kept.layers
        opt = stack.opts[slot]
        opt.m, opt.v = opt.m[keep], opt.v[keep]
    stack.runs = [stack.runs[k] for k in keep]
    _bind_runs(stack)
    return [live[k] for k in keep], [rows[k] for k in keep]


def train(config: TrainConfig, views: list[PartyView]) -> TrainResult:
    """Run the full protocol on one federation: ``train_runs`` with the one
    job ``(views, config.seed)``, a stack of one."""
    return train_runs(config, [(views, config.seed)])[0]


def train_many(jobs: list[tuple[TrainConfig, list[PartyView]]], read) -> list:
    """``[read(train(config, views)) for config, views in jobs]``, in job
    order: one contiguous chunk of jobs per usable core (``workers.split``),
    the first trained here and each other in a forked worker
    (``workers.run_chunks``), a chunk's consecutive jobs that differ only in
    seed and dataset (one partition and series length) as one ``train_runs``
    stack. ``read`` runs where its job trained, so only its value crosses a
    worker's pipe. Each result has the bytes of ``train(config, views)``,
    whichever chunk its job lands in.
    """

    def stack_key(job):
        config, views = job
        layout = [(v.party_id, v.attribute_indices) for v in views]
        return replace(config, seed=0), layout, views[0].dataset.n_steps

    def train_chunk(chunk):
        stacks = [list(group) for _, group in groupby(chunk, stack_key)]
        return [read(r) for s in stacks for r in train_runs(s[0][0], [(v, c.seed) for c, v in s])]

    chunks = [jobs[part] for part in workers.split(len(jobs))]
    return [value for done in workers.run_chunks(train_chunk, chunks) for value in done]


def shadow_trainer(
    train_cfg: TrainConfig, assignment: dict[int, list[int]], n_synth: int | None = None
):
    """The audit's shadow trainer (its contract is in ``audit``'s docstring):
    ``trainer(jobs)`` retrains the configured federation on each ``(dataset,
    seed)`` job through ``train_many`` and releases ``n_synth`` samples (the
    dataset's size by default) from the run's best checkpoint, or None when
    the run diverged. Each release is synthesized where its run trained,
    with the bytes of its job trained alone.
    """

    def release(result: TrainResult) -> TimeSeriesDataset | None:
        if result.diverged:
            return None
        n = n_synth or result.state.dataset.n_samples
        return synthesize(result.best_bank, n, result.state.config.seed)

    def trainer(jobs: list[tuple[TimeSeriesDataset, int]]) -> list[TimeSeriesDataset | None]:
        configs = [(replace(train_cfg, seed=seed), partition(d, assignment)) for d, seed in jobs]
        return train_many(configs, release)

    return trainer
