"""Simulated multi-party GAN training over vertically partitioned series.

Every party trains one generator/discriminator pair per local attribute.
The topologies differ only in the shared pathway: a server-side shared
discriminator over a list of branches, each an ordered list of
(party, attribute) keys whose concatenated series it reads, optionally
through the owning party's feature extractor. ``init_federation`` builds
the branch list once:

* ``vfl`` - one branch per party, through that party's feature extractor.
  Only features and feature gradients cross the party boundary, and every
  crossing is recorded in the message log.
* ``centralized`` - one pooled branch over all keys that the shared
  discriminator reads raw (the pooled-data upper bound; no feature
  extractors, no messages).
* ``local_only`` - no branches and no shared discriminator (the no-server
  lower bound).

Each iteration runs a discriminator phase then a generator phase. All
gradients of a phase are computed from pre-update parameters before any
update is applied. All latent draws are broadcast: every generator in every
party consumes the same z matrix in an iteration.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
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
    topology: str = "vfl"
    latent_dim: int = 32
    batch_size: int = 64
    max_iters: int = 2000
    beta1: float = 1.0  # weight of the shared-discriminator term in generator losses
    beta2: float = 1.0  # scale of the feature-extractor loss
    lr: float = 2e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    dp: DpParams | None = None
    seed: int = 0
    checkpoint_every: int = 50
    eval_samples: int = 512
    gen_hidden: tuple[int, ...] = (128, 128)
    disc_hidden: tuple[int, ...] = (128, 64)
    fe_hidden: tuple[int, ...] = (128,)
    feature_dim: int = 32
    shared_hidden: tuple[int, ...] = (128,)
    non_saturating: bool = False  # generators minimize -log D(fake) instead
    log_payloads: bool = False  # test mode: keep payload copies in the log

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.latent_dim < 1 or self.batch_size < 1 or self.max_iters < 1:
            raise ValueError("latent_dim, batch_size, max_iters must be >= 1")
        if min(self.beta1, self.beta2) < 0:
            raise ValueError("balancing coefficients must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class MessageRecord:
    iteration: int
    direction: str  # "party->server" or "server->party"
    party_id: int
    kind: str  # "feature" or "feature_grad"
    shape: tuple[int, ...]
    payload_hash: str
    payload: np.ndarray | None = None


class MessageLog:
    """Append-only record of everything that crosses a party boundary."""

    def __init__(self, keep_payloads: bool = False):
        self.keep_payloads = keep_payloads
        self.records: list[MessageRecord] = []

    def log(self, iteration: int, direction: str, party_id: int, kind: str, payload: np.ndarray):
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"refusing to log message kind {kind!r}")
        self.records.append(
            MessageRecord(
                iteration,
                direction,
                party_id,
                kind,
                payload.shape,
                payload_digest(payload),
                payload.copy() if self.keep_payloads else None,
            )
        )


def payload_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


@dataclass
class PartyState:
    party_id: int
    attribute_indices: list[int]
    generators: list[nn.MlpModel]
    gen_opts: list[nn.AdamState]
    discriminators: list[nn.MlpModel]
    disc_opts: list[nn.AdamState]
    feature_extractor: nn.MlpModel | None = None
    fe_opt: nn.AdamState | None = None


@dataclass
class SharedBranch:
    """One input block of the shared discriminator: the series of ``keys``
    concatenated in order, passed through ``party``'s feature extractor (with
    every boundary crossing logged) or, without a party, read raw."""

    keys: list[tuple[int, int]]  # (party_id, attribute)
    party: PartyState | None = None


@dataclass
class FederationState:
    config: TrainConfig
    views: list[PartyView]
    t_steps: int
    parties: list[PartyState]
    branches: list[SharedBranch]
    shared_disc: nn.MlpModel | None
    shared_opt: nn.AdamState | None
    log: MessageLog
    iteration: int = 0
    z_rng: np.random.Generator = None  # type: ignore[assignment]
    batch_rng: np.random.Generator = None  # type: ignore[assignment]
    noise_rngs: dict = field(default_factory=dict)

    @property
    def dataset(self) -> TimeSeriesDataset:
        return self.views[0].dataset


def _adam(model: nn.MlpModel, cfg: TrainConfig) -> nn.AdamState:
    return nn.AdamState.for_model(
        model, lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps
    )


def init_federation(config: TrainConfig, views: list[PartyView]) -> FederationState:
    """Build all models and per-purpose random streams from the master seed.

    Model init streams are keyed by role tags, so e.g. the shared
    discriminator draws the same initial weights whether it consumes
    features (vfl) or raw attributes of the same width (centralized).
    """
    if not views:
        raise ValueError("need at least one party view")
    dataset = views[0].dataset
    t_steps = dataset.n_steps
    if config.batch_size > dataset.n_samples:
        raise ValueError("batch_size exceeds the dataset size")

    parties = []
    for view in views:
        gens, gen_opts, discs, disc_opts = [], [], [], []
        for attr in view.attribute_indices:
            g = nn.init_mlp(
                [config.latent_dim, *config.gen_hidden, t_steps],
                ["leaky_relu"] * len(config.gen_hidden) + ["identity"],
                stream(config.seed, "init", "G", view.party_id, attr),
            )
            d = nn.init_mlp(
                [t_steps, *config.disc_hidden, 1],
                ["leaky_relu"] * len(config.disc_hidden) + ["sigmoid"],
                stream(config.seed, "init", "D", view.party_id, attr),
            )
            gens.append(g)
            gen_opts.append(_adam(g, config))
            discs.append(d)
            disc_opts.append(_adam(d, config))
        fe = fe_opt = None
        if config.topology == "vfl":
            fe = nn.init_mlp(
                [view.n_attributes * t_steps, *config.fe_hidden, config.feature_dim],
                ["leaky_relu"] * len(config.fe_hidden) + ["identity"],
                stream(config.seed, "init", "FE", view.party_id),
            )
            fe_opt = _adam(fe, config)
        parties.append(
            PartyState(
                view.party_id,
                list(view.attribute_indices),
                gens,
                gen_opts,
                discs,
                disc_opts,
                fe,
                fe_opt,
            )
        )

    keys = [[(p.party_id, a) for a in p.attribute_indices] for p in parties]
    if config.topology == "vfl":
        branches = [SharedBranch(k, p) for k, p in zip(keys, parties)]
    elif config.topology == "centralized":
        branches = [SharedBranch([key for k in keys for key in k])]
    else:
        branches = []

    shared = shared_opt = None
    if branches:
        shared_in = sum(
            br.party.feature_extractor.out_dim if br.party is not None else len(br.keys) * t_steps
            for br in branches
        )
        shared = nn.init_mlp(
            [shared_in, *config.shared_hidden, 1],
            ["leaky_relu"] * len(config.shared_hidden) + ["sigmoid"],
            stream(config.seed, "init", "DS"),
        )
        shared_opt = _adam(shared, config)

    noise_rngs = {}
    if config.dp is not None:
        for view in views:
            for attr in view.attribute_indices:
                key = ("D", view.party_id, attr)
                noise_rngs[key] = stream(config.seed, "dp-noise", *key)
            noise_rngs[("FE", view.party_id)] = stream(
                config.seed, "dp-noise", "FE", view.party_id
            )

    return FederationState(
        config=config,
        views=views,
        t_steps=t_steps,
        parties=parties,
        branches=branches,
        shared_disc=shared,
        shared_opt=shared_opt,
        log=MessageLog(keep_payloads=config.log_payloads),
        z_rng=stream(config.seed, "latent"),
        batch_rng=stream(config.seed, "batches"),
        noise_rngs=noise_rngs,
    )


def broadcast_latent(state: FederationState, batch_size: int) -> np.ndarray:
    """One standard-normal (B, l) draw shared by every attribute generator."""
    return state.z_rng.standard_normal((batch_size, state.config.latent_dim))


def _maybe_dp(state: FederationState, key, grads: nn.GradientSet) -> nn.GradientSet:
    dp = state.config.dp
    if dp is None:
        return grads
    return perturb_first_layer(grads, dp.clip, dp.sigma, state.noise_rngs[key])


def _check_finite(losses: dict, where: str):
    bad = {k: v for k, v in losses.items() if not math.isfinite(v)}
    if bad:
        raise DivergenceError(f"non-finite loss in {where}", {"losses": bad})


def _generate_fakes(state: FederationState, z: np.ndarray, keep_traces: bool):
    """Every generator runs on the shared z. Returns per-key fake blocks
    and, when requested, the generator traces for backprop."""
    traces: dict[tuple[int, int], nn.ActivationTrace] = {}
    fakes: dict[tuple[int, int], np.ndarray] = {}
    for p in state.parties:
        for j, gen in enumerate(p.generators):
            tr = nn.forward(gen, z)
            key = (p.party_id, p.attribute_indices[j])
            fakes[key] = tr.output
            if keep_traces:
                traces[key] = tr
    return fakes, traces


def _fake_block(branch: SharedBranch, fakes: dict) -> np.ndarray:
    return np.concatenate([fakes[k] for k in branch.keys], axis=1)


def _column_blocks(grad: np.ndarray, blocks: list[np.ndarray]):
    """Split grad's columns into consecutive pieces as wide as ``blocks``."""
    offset = 0
    for block in blocks:
        width = block.shape[1]
        yield grad[:, offset : offset + width]
        offset += width


def discriminator_phase(state: FederationState, batch_indices: np.ndarray) -> dict:
    """Update all discriminators and feature extractors on one mini-batch.

    Gradients are all taken at pre-update parameters, DP clip+noise is
    applied to the first layers of the per-attribute discriminators and
    feature extractors (never the shared discriminator), then every update
    lands. Generators are untouched.
    """
    cfg = state.config
    batch = np.asarray(batch_indices)
    b = batch.shape[0]
    data = state.dataset.data

    z = broadcast_latent(state, b)
    fakes, _ = _generate_fakes(state, z, keep_traces=False)

    losses: dict[str, float] = {}
    pending: list[tuple[nn.MlpModel, nn.GradientSet, nn.AdamState]] = []

    for p in state.parties:
        for j, attr in enumerate(p.attribute_indices):
            disc = p.discriminators[j]
            real = data[batch, attr, :]
            tr_r = nn.forward(disc, real)
            tr_f = nn.forward(disc, fakes[(p.party_id, attr)])
            log_r, dlog_r = nn.clamped_log(tr_r.output)
            log1m_f, dlog1m_f = nn.clamped_log1m(tr_f.output)
            losses[f"d_{p.party_id}_{attr}"] = float(-(log_r.mean() + log1m_f.mean()))
            grads, _ = nn.backward(disc, tr_r, -dlog_r / b)
            grads_f, _ = nn.backward(disc, tr_f, -dlog1m_f / b)
            grads.add_(grads_f)
            grads = _maybe_dp(state, ("D", p.party_id, attr), grads)
            pending.append((disc, grads, p.disc_opts[j]))

    if state.branches:
        real_in, fake_in, fe_traces = [], [], []
        for br in state.branches:
            x_real = data[np.ix_(batch, [a for _, a in br.keys])].reshape(b, -1)
            x_fake = _fake_block(br, fakes)
            tr_fe_f = None
            if br.party is not None:
                tr_fe_r = nn.forward(br.party.feature_extractor, x_real)
                tr_fe_f = nn.forward(br.party.feature_extractor, x_fake)
                x_real, x_fake = tr_fe_r.output, tr_fe_f.output
                for payload in (x_real, x_fake):
                    state.log.log(
                        state.iteration, "party->server", br.party.party_id, "feature", payload
                    )
            real_in.append(x_real)
            fake_in.append(x_fake)
            fe_traces.append(tr_fe_f)

        tr_ds_r = nn.forward(state.shared_disc, np.concatenate(real_in, axis=1))
        tr_ds_f = nn.forward(state.shared_disc, np.concatenate(fake_in, axis=1))
        log_r, dlog_r = nn.clamped_log(tr_ds_r.output)
        log1m_f, dlog1m_f = nn.clamped_log1m(tr_ds_f.output)
        losses["d_shared"] = float(-(log_r.mean() + log1m_f.mean()))
        ds_grads, _ = nn.backward(state.shared_disc, tr_ds_r, -dlog_r / b)
        ds_grads_f, _ = nn.backward(state.shared_disc, tr_ds_f, -dlog1m_f / b)
        ds_grads.add_(ds_grads_f)
        pending.append((state.shared_disc, ds_grads, state.shared_opt))

        if any(tr is not None for tr in fe_traces):
            # feature extractors descend beta2 * E[log(1 - D_S(fake features))]
            fe_loss = float(cfg.beta2 * log1m_f.mean())
            _, feat_grad = nn.backward(
                state.shared_disc, tr_ds_f, cfg.beta2 * dlog1m_f / b, params=False
            )
            slices = _column_blocks(feat_grad, fake_in)
            for br, tr_fe_f, g_slice in zip(state.branches, fe_traces, slices):
                if tr_fe_f is None:
                    continue
                p = br.party
                state.log.log(state.iteration, "server->party", p.party_id, "feature_grad", g_slice)
                fe_grads, _ = nn.backward(p.feature_extractor, tr_fe_f, g_slice)
                fe_grads = _maybe_dp(state, ("FE", p.party_id), fe_grads)
                pending.append((p.feature_extractor, fe_grads, p.fe_opt))
                losses[f"fe_{p.party_id}"] = fe_loss

    _check_finite(losses, "discriminator phase")
    for model, grads, opt in pending:
        nn.adam_step(model, grads, opt)
    return {"losses": losses}


def _fooling_term(output: np.ndarray, non_saturating: bool):
    """Generator-side objective on a discriminator output: the written
    saturating form E[log(1-D)] by default, or -E[log D], whose gradient
    does not vanish when the discriminator dominates."""
    if non_saturating:
        val, dval = nn.clamped_log(output)
        return float(-val.mean()), -dval
    val, dval = nn.clamped_log1m(output)
    return float(val.mean()), dval


def generator_step(state: FederationState, z: np.ndarray) -> dict:
    """Generator losses and output-side gradients for a given z; pure.

    Each generator's output gradient is the sum of its local-discriminator
    pathway and its slice of the shared pathway (back through its branch's
    feature extractor, if the branch has one, and the shared
    discriminator), weighted by beta1. Nothing is updated here.
    """
    cfg = state.config
    b = z.shape[0]
    fakes, gen_traces = _generate_fakes(state, z, keep_traces=True)

    losses: dict[str, float] = {}
    out_grads: dict[tuple[int, int], np.ndarray] = {}

    for p in state.parties:
        for j, attr in enumerate(p.attribute_indices):
            disc = p.discriminators[j]
            tr_d = nn.forward(disc, fakes[(p.party_id, attr)])
            term, dterm = _fooling_term(tr_d.output, cfg.non_saturating)
            losses[f"g_{p.party_id}_{attr}"] = term
            _, g_local = nn.backward(disc, tr_d, dterm / b, params=False)
            out_grads[(p.party_id, attr)] = g_local

    if state.branches:
        fake_in, fe_traces = [], []
        for br in state.branches:
            x_fake = _fake_block(br, fakes)
            tr_fe = None
            if br.party is not None:
                tr_fe = nn.forward(br.party.feature_extractor, x_fake)
                x_fake = tr_fe.output
                state.log.log(state.iteration, "party->server", br.party.party_id, "feature", x_fake)
            fake_in.append(x_fake)
            fe_traces.append(tr_fe)
        tr_ds = nn.forward(state.shared_disc, np.concatenate(fake_in, axis=1))
        shared_term, dshared = _fooling_term(tr_ds.output, cfg.non_saturating)
        _, in_grad = nn.backward(state.shared_disc, tr_ds, cfg.beta1 * dshared / b, params=False)
        slices = _column_blocks(in_grad, fake_in)
        for br, tr_fe, grad in zip(state.branches, fe_traces, slices):
            if tr_fe is not None:
                state.log.log(
                    state.iteration, "server->party", br.party.party_id, "feature_grad", grad
                )
                _, grad = nn.backward(br.party.feature_extractor, tr_fe, grad, params=False)
            x_grad = grad.reshape(b, len(br.keys), state.t_steps)
            for j, (pid, attr) in enumerate(br.keys):
                out_grads[(pid, attr)] += x_grad[:, j, :]
                losses[f"g_{pid}_{attr}"] += cfg.beta1 * shared_term

    return {"losses": losses, "out_grads": out_grads, "traces": gen_traces}


def generator_phase(state: FederationState) -> dict:
    """Update every attribute generator on a fresh shared z.

    All gradients come from one pure generator_step at pre-update
    parameters; discriminators and feature extractors are read, never
    written.
    """
    z = broadcast_latent(state, state.config.batch_size)
    step = generator_step(state, z)
    _check_finite(step["losses"], "generator phase")
    for p in state.parties:
        for j, attr in enumerate(p.attribute_indices):
            key = (p.party_id, attr)
            grads, _ = nn.backward(p.generators[j], step["traces"][key], step["out_grads"][key])
            nn.adam_step(p.generators[j], grads, p.gen_opts[j])
    return {"losses": step["losses"]}


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
    gens = {}
    for p in state.parties:
        for j, attr in enumerate(p.attribute_indices):
            gens[attr] = p.generators[j]
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


def train(config: TrainConfig, views: list[PartyView]) -> TrainResult:
    """Run the full protocol for max_iters iterations.

    Every checkpoint_every iterations (and once before training) the
    current generators synthesize an evaluation batch; the snapshot with
    the minimum distance to the training data is retained as the final
    model. Divergence stops the run and returns the best snapshot so far.
    """
    state = init_federation(config, views)
    n = state.dataset.n_samples
    eval_seed = stream(config.seed, "eval-seed").integers(0, 2**63 - 1)

    best_awd = checkpoint_awd(state, eval_seed)
    best_bank = bank_from_state(state).copy()
    best_iteration = 0
    history: list[dict] = [{"iteration": 0, "awd": best_awd}]
    diverged = False

    for it in range(1, config.max_iters + 1):
        state.iteration = it
        batch = subsample_batch(n, config.batch_size, state.batch_rng)
        try:
            d_info = discriminator_phase(state, batch)
            g_info = generator_phase(state)
        except (DivergenceError, nn.NonFiniteError) as exc:
            history.append({"iteration": it, "diverged": str(exc)})
            diverged = True
            break
        row = {"iteration": it, **d_info["losses"], **g_info["losses"]}
        if it % config.checkpoint_every == 0 or it == config.max_iters:
            row["awd"] = checkpoint_awd(state, eval_seed)
            if row["awd"] < best_awd:
                best_awd = row["awd"]
                best_bank = bank_from_state(state).copy()
                best_iteration = it
        history.append(row)

    return TrainResult(state, history, best_bank, best_awd, best_iteration, diverged)


def shadow_trainer(
    train_cfg: TrainConfig, assignment: dict[int, list[int]], n_synth: int | None = None
):
    """Shadow-run trainer for the audit: retrains the configured federation
    on whatever dataset the audit hands it, with the given seed, and
    releases ``n_synth`` samples (the dataset's size by default) from the
    best checkpoint, or None when the run diverged."""

    def trainer(dataset: TimeSeriesDataset, seed: int) -> TimeSeriesDataset | None:
        result = train(replace(train_cfg, seed=seed), partition(dataset, assignment))
        if result.diverged:
            return None
        return synthesize(result.best_bank, n_synth or dataset.n_samples, seed)

    return trainer
