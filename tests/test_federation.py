import ast
import hashlib
import math
import os
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedtsgan import data, federation as fed, nn, workers
from fedtsgan.dpmech import DpParams
from fedtsgan.rng import stream, stream_seed

from helpers import params_blob


def tiny_config(**overrides):
    defaults = dict(
        topology="vfl",
        latent_dim=3,
        batch_size=6,
        max_iters=4,
        checkpoint_every=2,
        eval_samples=16,
        seed=11,
        gen_hidden=(6, 5),
        disc_hidden=(6, 4),
        fe_hidden=(5,),
        feature_dim=4,
        shared_hidden=(6,),
    )
    defaults.update(overrides)
    return fed.TrainConfig(**defaults)


@pytest.fixture
def sine_views():
    ds = data.gen_sine2(n_per_class=16, t_steps=12, seed=5)
    return data.partition(ds, {0: [0], 1: [1]})


def solo_stack(config, views):
    """A stack of one run, trained on ``views`` with ``config.seed``."""
    return fed.init_stack(config, [(views, config.seed)])


def all_models(state):
    out = {}
    for p in state.views:
        for attr in p.attribute_indices:
            out[f"g_{p.party_id}_{attr}"] = state.models["G", p.party_id, attr]
            out[f"d_{p.party_id}_{attr}"] = state.models["D", p.party_id, attr]
        if ("FE", p.party_id) in state.models:
            out[f"fe_{p.party_id}"] = state.models["FE", p.party_id]
    if ("DS",) in state.models:
        out["d_shared"] = state.models["DS",]
    return out


def role(state, kind):
    """The models of one kind ("G", "D", "FE" or "DS"), in slot order."""
    return [model for slot, model in state.models.items() if slot[0] == kind]


def federation_blob(state):
    return b"".join(params_blob(m) for _, m in sorted(all_models(state).items()))


class TestLatentBroadcast:
    def test_identical_z_for_all_generators(self, sine_views, monkeypatch):
        stack = solo_stack(tiny_config(), sine_views)
        state = stack.runs[0]
        generators = {id(g) for g in role(stack, "G")}
        seen = []
        real_forward = nn.forward

        def recording(model, batch):
            if id(model) in generators:
                seen.append(batch.copy())
            return real_forward(model, batch)

        monkeypatch.setattr(nn, "forward", recording)
        state.iteration = 1
        for run_phase in (
            lambda: fed.discriminator_phase(stack, np.arange(6)[None]),
            lambda: fed.generator_phase(stack),
        ):
            seen.clear()
            run_phase()
            assert len(seen) == len(generators)
            assert seen[0].shape == (1, 6, 3)
            assert all(z.tobytes() == seen[0].tobytes() for z in seen)

    def test_stream_advances_between_draws(self, sine_views):
        stack = solo_stack(tiny_config(), sine_views)
        z1 = fed.broadcast_latent(stack, 4)
        z2 = fed.broadcast_latent(stack, 4)
        assert not np.array_equal(z1, z2)

    def test_standard_normal_moments(self, sine_views):
        stack = solo_stack(tiny_config(latent_dim=10), sine_views)
        z = fed.broadcast_latent(stack, 10_000)  # 1e5 draws
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02


class TestDiscriminatorPhase:
    def test_zero_lr_leaves_parameters_but_reports_losses(self, sine_views):
        stack = solo_stack(tiny_config(lr=0.0), sine_views)
        state = stack.runs[0]
        before = federation_blob(state)
        info = fed.discriminator_phase(stack, np.arange(6)[None])
        assert federation_blob(state) == before
        assert {"d_0_0", "d_1_1", "d_shared", "fe_0", "fe_1"} <= set(info["losses"])

    def test_saturated_discriminator_loss_pins_clamp(self, sine_views):
        # final bias forced huge: sigmoid saturates to 1 on real and fake
        stack = solo_stack(tiny_config(), sine_views)
        state = stack.runs[0]
        for d in role(state, "D"):
            d.layers[-1].bias[:] = 1e4
        info = fed.discriminator_phase(stack, np.arange(6)[None])
        expected = -(np.log(1.0 - 1e-7) + np.log(1e-7))
        assert info["losses"]["d_0_0"][0] == pytest.approx(expected, rel=1e-9)

    def test_phase_updates_only_discriminators_and_fes(self, sine_views):
        stack = solo_stack(tiny_config(), sine_views)
        state = stack.runs[0]
        gens_before = [params_blob(g) for g in role(state, "G")]
        discs_before = [params_blob(d) for d in role(state, "D")]
        fed.discriminator_phase(stack, np.arange(6)[None])
        gens_after = [params_blob(g) for g in role(state, "G")]
        discs_after = [params_blob(d) for d in role(state, "D")]
        assert gens_before == gens_after
        assert discs_before != discs_after

    def test_message_log_holds_only_feature_traffic(self, sine_views):
        stack = solo_stack(tiny_config(), sine_views)
        state = stack.runs[0]
        fed.discriminator_phase(stack, np.arange(6)[None])
        fed.generator_phase(stack)
        kinds = {r.kind for r in state.log.records}
        assert kinds == {"feature", "feature_grad"}
        widths = {r.shape[1] for r in state.log.records}
        assert widths == {4}  # feature_dim

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self, sine_views):
        stack = solo_stack(tiny_config(), sine_views)
        state = stack.runs[0]
        state.models["D", 0, 0].layers[0].weight[:] = 1e308
        before = federation_blob(state)
        info = fed.discriminator_phase(stack, np.arange(6)[None])
        exc = info["failed"][0]
        assert isinstance(exc, fed.DivergenceError)
        assert not np.isfinite(exc.diagnostics["losses"]["d_0_0"])
        assert federation_blob(state) == before


class TestGeneratorPhase:
    def test_phase_updates_only_generators(self, sine_views):
        stack = solo_stack(tiny_config(), sine_views)
        state = stack.runs[0]
        fed.discriminator_phase(stack, np.arange(6)[None])
        discs_before = [params_blob(d) for d in role(state, "D")]
        fes_before = [params_blob(fe) for fe in role(state, "FE")]
        shared_before = params_blob(state.models["DS",])
        gens_before = [params_blob(g) for g in role(state, "G")]
        fed.generator_phase(stack)
        assert [params_blob(d) for d in role(state, "D")] == discs_before
        assert [params_blob(fe) for fe in role(state, "FE")] == fes_before
        assert params_blob(state.models["DS",]) == shared_before
        assert [params_blob(g) for g in role(state, "G")] != gens_before

    def test_beta1_zero_equals_pure_local_generator_step(self, sine_views):
        stack_a = solo_stack(tiny_config(beta1=0.0), sine_views)
        stack_b = solo_stack(tiny_config(topology="local_only"), sine_views)
        fed.generator_phase(stack_a)
        fed.generator_phase(stack_b)
        for ga, gb in zip(role(stack_a.runs[0], "G"), role(stack_b.runs[0], "G")):
            assert params_blob(ga) == params_blob(gb)

    def test_local_only_shared_pathway_contributes_nothing(self, sine_views):
        stack = solo_stack(tiny_config(topology="local_only"), sine_views)
        z = fed.broadcast_latent(stack, 4)
        step = fed.generator_step(stack, z)
        # loss is the local term only and grads come from D_ij alone
        assert set(step["losses"]) == {"g_0_0", "g_1_1"}

    def test_non_saturating_switch_rescues_dominated_generators(self, sine_views):
        # discriminators driven to D(fake) ~ 4.5e-5: the written objective's
        # gradient vanishes with the sigmoid derivative, the switched one
        # stays order-one
        grads = {}
        for non_sat in (False, True):
            cfg = tiny_config(topology="local_only", non_saturating=non_sat)
            stack = solo_stack(cfg, sine_views)
            for d in role(stack.runs[0], "D"):
                d.layers[-1].bias[:] = -10.0
            z = fed.broadcast_latent(stack, 4)
            step = fed.generator_step(stack, z)
            grads[non_sat] = np.linalg.norm(step["out_grads"][(0, 0)])
        assert grads[True] > 1e3 * grads[False]

    def test_non_saturating_default_off(self):
        assert fed.TrainConfig().non_saturating is False

    def test_composed_path_gradient_matches_finite_differences(self, sine_views):
        stack = solo_stack(tiny_config(), sine_views)
        z = fed.broadcast_latent(stack, 4)
        step = fed.generator_step(stack, z)
        gen = stack.models["G", 0, 0]
        analytic, _ = nn.backward(gen, step["traces"][(0, 0)], step["out_grads"][(0, 0)])

        h = 1e-6
        worst = 0.0
        w = gen.layers[0].weight
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + h
            plus = fed.generator_step(stack, z)["losses"]["g_0_0"][0]
            w[idx] = orig - h
            minus = fed.generator_step(stack, z)["losses"]["g_0_0"][0]
            w[idx] = orig
            numeric = (plus - minus) / (2 * h)
            got = analytic.d_weights[0][idx]
            worst = max(worst, abs(got - numeric) / max(abs(got), abs(numeric), 1e-12))
        assert worst < 1e-5


# -- reference: one federation at a time, per-topology code ------------------
#
# The functions below keep earlier forms of the training code. ``ref_train``
# is the solo loop that trained one federation per call, before runs were
# stacked; a phase that fails raises and ends the run. It takes a one-run
# stack's initial weights and steps the run's models with Adam states of its
# own, one per model. Its phases keep the
# shared pathway as separate per-topology code: a ``vfl`` block (one feature
# extractor per party, every crossing logged) and a ``centralized`` block
# (the shared discriminator on raw concatenated attributes, weighted by what
# was then a separate ``lambda``, here beta1). Both ``train`` and every run
# of a stack must reproduce them byte for byte.


def ref_latent(state, b):
    return state.z_rng.standard_normal((b, state.config.latent_dim))


def ref_fakes(state, z):
    traces = {}
    for p in state.views:
        for attr in p.attribute_indices:
            traces[(p.party_id, attr)] = nn.forward(state.models["G", p.party_id, attr], z)
    return {key: tr.output for key, tr in traces.items()}, traces


def ref_maybe_dp(state, key, grads):
    dp = state.config.dp
    if dp is None:
        return grads
    return fed.perturb_first_layer(grads, dp.clip, dp.sigma, state.noise_rngs[key])


def ref_check_finite(losses, where):
    bad = {k: v for k, v in losses.items() if not math.isfinite(v)}
    if bad:
        raise fed.DivergenceError(f"non-finite loss in {where}", {"losses": bad})


def ref_fooling_term(output, non_saturating):
    if non_saturating:
        val, dval = nn.clamped_log(output)
        return float(-val.mean()), -dval
    val, dval = nn.clamped_log1m(output)
    return float(val.mean()), dval


def _party_block(p, source, batch=None):
    if isinstance(source, dict):
        return np.concatenate([source[(p.party_id, a)] for a in p.attribute_indices], axis=1)
    return source[np.ix_(batch, p.attribute_indices)].reshape(len(batch), -1)


def ref_discriminator_phase(state, opts, batch_indices):
    cfg = state.config
    batch = np.asarray(batch_indices)
    b = batch.shape[0]
    data_ = state.dataset.data
    fakes, _ = ref_fakes(state, ref_latent(state, b))
    losses, pending = {}, []
    for p in state.views:
        for attr in p.attribute_indices:
            disc = state.models["D", p.party_id, attr]
            tr_r = nn.forward(disc, data_[batch, attr, :])
            tr_f = nn.forward(disc, fakes[(p.party_id, attr)])
            log_r, dlog_r = nn.clamped_log(tr_r.output)
            log1m_f, dlog1m_f = nn.clamped_log1m(tr_f.output)
            losses[f"d_{p.party_id}_{attr}"] = float(-(log_r.mean() + log1m_f.mean()))
            grads, _ = nn.backward(disc, tr_r, -dlog_r / b)
            grads_f, _ = nn.backward(disc, tr_f, -dlog1m_f / b)
            grads.add_(grads_f)
            grads = ref_maybe_dp(state, ("D", p.party_id, attr), grads)
            pending.append((disc, grads, opts["D", p.party_id, attr]))

    if cfg.topology == "vfl":
        fe_traces_f, feat_real, feat_fake, widths = [], [], [], []
        for p in state.views:
            tr_fe_r = nn.forward(state.models["FE", p.party_id], _party_block(p, data_, batch))
            tr_fe_f = nn.forward(state.models["FE", p.party_id], _party_block(p, fakes))
            fe_traces_f.append(tr_fe_f)
            feat_real.append(tr_fe_r.output)
            feat_fake.append(tr_fe_f.output)
            widths.append(tr_fe_f.output.shape[1])
            for payload in (tr_fe_r.output, tr_fe_f.output):
                state.log.log(state.iteration, "party->server", p.party_id, "feature", payload)
        tr_ds_r = nn.forward(state.models["DS",], np.concatenate(feat_real, axis=1))
        tr_ds_f = nn.forward(state.models["DS",], np.concatenate(feat_fake, axis=1))
        log_r, dlog_r = nn.clamped_log(tr_ds_r.output)
        log1m_f, dlog1m_f = nn.clamped_log1m(tr_ds_f.output)
        losses["d_shared"] = float(-(log_r.mean() + log1m_f.mean()))
        ds_grads, _ = nn.backward(state.models["DS",], tr_ds_r, -dlog_r / b)
        ds_grads_f, _ = nn.backward(state.models["DS",], tr_ds_f, -dlog1m_f / b)
        ds_grads.add_(ds_grads_f)
        pending.append((state.models["DS",], ds_grads, opts[("DS",)]))
        fe_loss = float(cfg.beta2 * log1m_f.mean())
        _, feat_grad = nn.backward(
            state.models["DS",], tr_ds_f, cfg.beta2 * dlog1m_f / b, params=False
        )
        offset = 0
        for p, tr_fe_f, width in zip(state.views, fe_traces_f, widths):
            g_slice = feat_grad[:, offset : offset + width]
            offset += width
            state.log.log(state.iteration, "server->party", p.party_id, "feature_grad", g_slice)
            fe_grads, _ = nn.backward(state.models["FE", p.party_id], tr_fe_f, g_slice)
            fe_grads = ref_maybe_dp(state, ("FE", p.party_id), fe_grads)
            pending.append((state.models["FE", p.party_id], fe_grads, opts["FE", p.party_id]))
            losses[f"fe_{p.party_id}"] = fe_loss
    elif cfg.topology == "centralized":
        x_real = np.concatenate([_party_block(p, data_, batch) for p in state.views], axis=1)
        x_fake = np.concatenate([_party_block(p, fakes) for p in state.views], axis=1)
        tr_c_r = nn.forward(state.models["DS",], x_real)
        tr_c_f = nn.forward(state.models["DS",], x_fake)
        log_r, dlog_r = nn.clamped_log(tr_c_r.output)
        log1m_f, dlog1m_f = nn.clamped_log1m(tr_c_f.output)
        losses["d_shared"] = float(-(log_r.mean() + log1m_f.mean()))
        c_grads, _ = nn.backward(state.models["DS",], tr_c_r, -dlog_r / b)
        c_grads_f, _ = nn.backward(state.models["DS",], tr_c_f, -dlog1m_f / b)
        c_grads.add_(c_grads_f)
        pending.append((state.models["DS",], c_grads, opts[("DS",)]))

    ref_check_finite(losses, "discriminator phase")
    for model, grads, opt in pending:
        nn.adam_step(model, grads, opt)
    return {"losses": losses}


def ref_generator_step(state, z):
    cfg = state.config
    b = z.shape[0]
    t_steps = state.t_steps
    fakes, gen_traces = ref_fakes(state, z)
    losses, out_grads = {}, {}
    for p in state.views:
        for attr in p.attribute_indices:
            disc = state.models["D", p.party_id, attr]
            tr_d = nn.forward(disc, fakes[(p.party_id, attr)])
            term, dterm = ref_fooling_term(tr_d.output, cfg.non_saturating)
            losses[f"g_{p.party_id}_{attr}"] = term
            _, out_grads[(p.party_id, attr)] = nn.backward(disc, tr_d, dterm / b, params=False)

    if cfg.topology == "vfl":
        fe_traces, feat_fake, widths = [], [], []
        for p in state.views:
            tr_fe = nn.forward(state.models["FE", p.party_id], _party_block(p, fakes))
            fe_traces.append(tr_fe)
            feat_fake.append(tr_fe.output)
            widths.append(tr_fe.output.shape[1])
            state.log.log(state.iteration, "party->server", p.party_id, "feature", tr_fe.output)
        tr_ds = nn.forward(state.models["DS",], np.concatenate(feat_fake, axis=1))
        shared_term, dshared = ref_fooling_term(tr_ds.output, cfg.non_saturating)
        _, feat_grad = nn.backward(
            state.models["DS",], tr_ds, cfg.beta1 * dshared / b, params=False
        )
        offset = 0
        for p, tr_fe, width in zip(state.views, fe_traces, widths):
            g_slice = feat_grad[:, offset : offset + width]
            offset += width
            state.log.log(state.iteration, "server->party", p.party_id, "feature_grad", g_slice)
            _, x_grad = nn.backward(state.models["FE", p.party_id], tr_fe, g_slice, params=False)
            x_grad = x_grad.reshape(b, len(p.attribute_indices), t_steps)
            for j, attr in enumerate(p.attribute_indices):
                out_grads[(p.party_id, attr)] += x_grad[:, j, :]
        for p in state.views:
            for attr in p.attribute_indices:
                losses[f"g_{p.party_id}_{attr}"] += cfg.beta1 * shared_term
    elif cfg.topology == "centralized":
        x_fake = np.concatenate([_party_block(p, fakes) for p in state.views], axis=1)
        tr_c = nn.forward(state.models["DS",], x_fake)
        shared_term, dshared = ref_fooling_term(tr_c.output, cfg.non_saturating)
        _, x_grad = nn.backward(state.models["DS",], tr_c, cfg.beta1 * dshared / b, params=False)
        offset = 0
        for p in state.views:
            width = len(p.attribute_indices) * t_steps
            block = x_grad[:, offset : offset + width].reshape(b, len(p.attribute_indices), t_steps)
            offset += width
            for j, attr in enumerate(p.attribute_indices):
                out_grads[(p.party_id, attr)] += block[:, j, :]
                losses[f"g_{p.party_id}_{attr}"] += cfg.beta1 * shared_term

    return {"losses": losses, "out_grads": out_grads, "traces": gen_traces}


def ref_generator_phase(state, opts):
    step = ref_generator_step(state, ref_latent(state, state.config.batch_size))
    ref_check_finite(step["losses"], "generator phase")
    for p in state.views:
        for attr in p.attribute_indices:
            key = (p.party_id, attr)
            gen = state.models[("G", *key)]
            grads, _ = nn.backward(gen, step["traces"][key], step["out_grads"][key])
            nn.adam_step(gen, grads, opts[("G", *key)])
    return {"losses": step["losses"]}


def ref_train(config, views):
    state = fed.init_stack(config, [(views, config.seed)]).runs[0]
    opts = {
        key: nn.AdamState.for_model(
            model, config.lr, config.adam_beta1, config.adam_beta2, config.adam_eps
        )
        for key, model in state.models.items()
    }
    n = state.dataset.n_samples
    eval_seed = stream(config.seed, "eval-seed").integers(0, 2**63 - 1)
    best_awd = fed.checkpoint_awd(state, eval_seed)
    best_bank = fed.bank_from_state(state).copy()
    best_iteration = 0
    history = [{"iteration": 0, "awd": best_awd}]
    diverged = False
    for it in range(1, config.max_iters + 1):
        state.iteration = it
        batch = data.subsample_batch(n, config.batch_size, state.batch_rng)
        try:
            d_info = ref_discriminator_phase(state, opts, batch)
            g_info = ref_generator_phase(state, opts)
        except (fed.DivergenceError, nn.NonFiniteError) as exc:
            history.append({"iteration": it, "diverged": str(exc)})
            diverged = True
            break
        row = {"iteration": it, **d_info["losses"], **g_info["losses"]}
        if it % config.checkpoint_every == 0 or it == config.max_iters:
            row["awd"] = fed.checkpoint_awd(state, eval_seed)
            if row["awd"] < best_awd:
                best_awd = row["awd"]
                best_bank = fed.bank_from_state(state).copy()
                best_iteration = it
        history.append(row)
    return fed.TrainResult(state, history, best_bank, best_awd, best_iteration, diverged)


def messages(log):
    return [
        (r.iteration, r.direction, r.party_id, r.kind, r.shape, r.payload_hash)
        for r in log.records
    ]


def bank_blob(bank):
    return [params_blob(g) for _, g in sorted(bank.generators.items())]


def assert_same_run(got, want):
    """Bytes of history, every model, the best snapshot and the messages."""
    assert [list(r.items()) for r in got.history] == [list(r.items()) for r in want.history]
    assert federation_blob(got.state) == federation_blob(want.state)
    assert bank_blob(got.best_bank) == bank_blob(want.best_bank)
    assert (got.best_awd, got.best_iteration, got.diverged) == (
        want.best_awd,
        want.best_iteration,
        want.diverged,
    )
    assert got.state.iteration == want.state.iteration
    assert messages(got.state.log) == messages(want.state.log)


MULTI_ATTRIBUTE_PARTITIONS = {
    "two_parties": {0: [0, 1, 2], 1: [3, 4, 5]},
    "three_parties": {0: [0, 1], 1: [2, 3], 2: [4, 5]},
}


class TestSharedPathway:
    @pytest.mark.parametrize("topology", fed.TOPOLOGIES)
    @pytest.mark.parametrize(
        "assignment", MULTI_ATTRIBUTE_PARTITIONS.values(), ids=MULTI_ATTRIBUTE_PARTITIONS
    )
    @pytest.mark.parametrize("dp", [None, DpParams(1.0, 0.5)], ids=["dp_off", "dp_on"])
    def test_branch_list_reproduces_per_topology_code(self, topology, assignment, dp):
        ds = data.gen_sine6(n_per_class=8, t_steps=10, seed=3)
        views = data.partition(ds, assignment)
        cfg = tiny_config(
            topology=topology, dp=dp, max_iters=6, checkpoint_every=2, beta1=0.7, beta2=0.9
        )
        got = fed.train(cfg, views)
        want = ref_train(cfg, views)

        assert sum("awd" in row for row in got.history) >= 3
        assert_same_run(got, want)
        assert len(got.state.log.records) == (30 * len(assignment) if topology == "vfl" else 0)


STACK_PARTITIONS = {
    "sine2_two_parties": (
        lambda: data.gen_sine2(n_per_class=8, t_steps=10, seed=3),
        {0: [0], 1: [1]},
    ),
    "sine6_three_parties": (
        lambda: data.gen_sine6(n_per_class=4, t_steps=10, seed=3),
        {0: [0, 1], 1: [2, 3], 2: [4, 5]},
    ),
}


def stack_jobs(make_dataset):
    """Four runs with distinct seeds over a dataset of N rows and one of N - 1."""
    full = make_dataset()
    short = full.without_sample(2)
    return [(full, 5), (short, 6), (full, 7), (short, 8)]


class TestRunStack:
    @pytest.mark.parametrize("topology", fed.TOPOLOGIES)
    @pytest.mark.parametrize("name", STACK_PARTITIONS)
    @pytest.mark.parametrize("dp", [None, DpParams(1.0, 0.5)], ids=["dp_off", "dp_on"])
    def test_each_run_matches_its_solo_reference(self, topology, name, dp):
        make_dataset, assignment = STACK_PARTITIONS[name]
        jobs = stack_jobs(make_dataset)
        cfg = tiny_config(
            topology=topology, dp=dp, max_iters=6, checkpoint_every=2, beta1=0.7, beta2=0.9, lr=2e-2
        )
        got = fed.train_runs(cfg, [(data.partition(d, assignment), s) for d, s in jobs])
        assert len(got) == len(jobs)
        for result, (d, s) in zip(got, jobs):
            want = ref_train(replace(cfg, seed=s), data.partition(d, assignment))
            assert not want.diverged
            assert result.state.dataset is d
            assert_same_run(result, want)
        assert any(r.best_iteration > 0 for r in got)

    @pytest.mark.parametrize(
        "layout, iterations",
        [
            ([("full", 5), ("full", 6), ("short", 7), ("full", 9), ("full", 8)], [8, 3, 8, 5, 8]),
            # the stack shrinks to the one survivor (seed 9), which diverges too
            ([("full", 6), ("full", 9)], [3, 5]),
        ],
        ids=["five_runs", "down_to_one"],
    )
    def test_diverging_runs_leave_the_stack(self, monkeypatch, layout, iterations):
        # two runs get a NaN first-layer gradient from the DP mechanism, each
        # at one iteration: adam_step stops such a run at that model, after
        # the models before it in the phase have been updated
        poison = {
            stream_seed(6, "dp-noise", "D", 1, 1): 3,  # a later discriminator
            stream_seed(9, "dp-noise", "FE", 0): 5,  # the first extractor
        }
        calls = {}
        real = fed.perturb_first_layer

        def perturb(grads, clip, sigma, rng):
            out = real(grads, clip, sigma, rng)
            key = rng.bit_generator.seed_seq.entropy
            calls[id(rng)] = calls.get(id(rng), 0) + 1
            if poison.get(key) == calls[id(rng)]:
                out.d_weights[0][0, 0] = np.nan
            return out

        monkeypatch.setattr(fed, "perturb_first_layer", perturb)
        make_dataset, assignment = STACK_PARTITIONS["sine2_two_parties"]
        full = make_dataset()
        datasets = {"full": full, "short": full.without_sample(2)}
        jobs = [(datasets[name], s) for name, s in layout]
        cfg = tiny_config(max_iters=8, checkpoint_every=2, dp=DpParams(1.0, 0.5))
        got = fed.train_runs(cfg, [(data.partition(d, assignment), s) for d, s in jobs])
        for result, (d, s) in zip(got, jobs):
            calls.clear()
            want = ref_train(replace(cfg, seed=s), data.partition(d, assignment))
            assert want.diverged == (s in (6, 9))
            assert_same_run(result, want)
        assert [r.state.iteration for r in got] == iterations

        calls.clear()
        releases = fed.shadow_trainer(cfg, assignment, n_synth=5)(jobs)
        assert [r is None for r in releases] == [it < 8 for it in iterations]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_protected_gradient_fails_only_its_run(self, monkeypatch):
        # the DP mechanism gets an inf first-layer gradient in one run, and
        # one whose squared norm overflows (finite entries) in another: the
        # first diverges as it does alone, the second is clipped and goes on
        poison = {
            stream_seed(6, "dp-noise", "D", 0, 0): (2, np.inf),
            stream_seed(9, "dp-noise", "FE", 1): (4, 1e200),
        }
        calls, fired = {}, []
        real = fed.perturb_first_layer

        def perturb(grads, clip, sigma, rng):
            key = rng.bit_generator.seed_seq.entropy
            calls[id(rng)] = calls.get(id(rng), 0) + 1
            if key in poison and poison[key][0] == calls[id(rng)]:
                grads.d_weights[0][0, :] = poison[key][1]
                fired.append(key)
            return real(grads, clip, sigma, rng)

        monkeypatch.setattr(fed, "perturb_first_layer", perturb)
        make_dataset, assignment = STACK_PARTITIONS["sine2_two_parties"]
        full = make_dataset()
        jobs = [(full, 5), (full, 6), (full.without_sample(2), 9), (full, 8)]
        cfg = tiny_config(max_iters=6, checkpoint_every=2, dp=DpParams(1.0, 0.5))
        got = fed.train_runs(cfg, [(data.partition(d, assignment), s) for d, s in jobs])
        assert sorted(fired) == sorted(poison)
        for result, (d, s) in zip(got, jobs):
            calls.clear()
            want = ref_train(replace(cfg, seed=s), data.partition(d, assignment))
            assert want.diverged == (s == 6)
            assert_same_run(result, want)
        assert [r.state.iteration for r in got] == [6, 2, 6, 6]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_fails_only_its_run(self, sine_views):
        cfg = tiny_config(dp=DpParams(1.0, 0.5))
        stack = fed.init_stack(cfg, [(sine_views, s) for s in (1, 2, 3)])
        alone = [fed.init_stack(cfg, [(sine_views, s)]) for s in (1, 2, 3)]
        # run 1's first generator overflows, so its fakes are not finite
        stack.models["G", 0, 0].params[1] = 1e308
        alone[1].models["G", 0, 0].params[...] = 1e308
        batches = [np.arange(6), np.arange(1, 7), np.arange(2, 8)]
        for run in stack.runs + [one.runs[0] for one in alone]:
            run.iteration = 1
        d_info = fed.discriminator_phase(stack, np.stack(batches))
        g_info = fed.generator_phase(stack)
        for k, one in enumerate(alone):
            want_d = fed.discriminator_phase(one, batches[k][None])
            want_g = fed.generator_phase(one)
            for got, want in ((d_info, want_d), (g_info, want_g)):
                assert (k in got["failed"]) == bool(want["failed"])
                if want["failed"]:
                    assert str(got["failed"][k]) == str(want["failed"][0])
                else:
                    for key, value in want["losses"].items():
                        assert got["losses"][key][k] == value[0]
            assert federation_blob(stack.runs[k]) == federation_blob(one.runs[0])
            assert messages(stack.runs[k].log) == messages(one.runs[0].log)
        assert set(d_info["failed"]) == {1}
        assert str(d_info["failed"][1]) == "non-finite value in input batch"

    def test_shadow_trainer_returns_the_single_releases(self):
        make_dataset, assignment = STACK_PARTITIONS["sine6_three_parties"]
        jobs = stack_jobs(make_dataset)
        trainer = fed.shadow_trainer(tiny_config(max_iters=4), assignment, n_synth=7)
        together = trainer(jobs)
        alone = [trainer([job])[0] for job in jobs]
        assert [r.data.tobytes() for r in together] == [r.data.tobytes() for r in alone]
        assert [r.data.shape for r in together] == [(7, 6, 10)] * len(jobs)

    @pytest.mark.parametrize("topology", fed.TOPOLOGIES)
    @pytest.mark.parametrize("name", STACK_PARTITIONS)
    def test_runs_read_their_rows_of_the_stack(self, topology, name):
        # each model has one address, its slot in ``stack.models``: the Adam
        # states, the discriminator entries and every run's noise streams
        # name those slots, and each run's models are views of its rows
        make_dataset, assignment = STACK_PARTITIONS[name]
        views = data.partition(make_dataset(), assignment)
        cfg = tiny_config(topology=topology, dp=DpParams(1.0, 0.5))

        def assert_bound(stack):
            assert set(stack.opts) == set(stack.models)
            assert {disc.slot for disc in stack.discs} <= set(stack.models)
            noised = {slot for slot in stack.models if slot[0] in ("D", "FE")}
            for k, run in enumerate(stack.runs):
                assert set(run.noise_rngs) == noised
                assert list(run.models) == list(stack.models)
                for slot, model in stack.models.items():
                    own = run.models[slot]
                    assert own.params.ndim == 1
                    assert np.shares_memory(own.params, model.params[k])
                    assert own.layers[0].weight.tobytes() == model.layers[0].weight[k].tobytes()
                held = list(vars(run).values())
                held += [x for v in held if isinstance(v, dict) for x in v.values()]
                assert not any(isinstance(v, nn.AdamState) for v in held)
            for opt in stack.opts.values():
                assert opt.m.shape[0] == opt.v.shape[0] == len(stack.runs)

        seeds = (1, 2, 3)
        stack = fed.init_stack(cfg, [(views, s) for s in seeds])
        runs = list(stack.runs)
        alone = [fed.init_stack(cfg, [(views, s)]).runs[0] for s in seeds]
        assert [federation_blob(run) for run in runs] == [federation_blob(run) for run in alone]
        assert_bound(stack)
        batches = np.stack([np.arange(6), np.arange(1, 7), np.arange(2, 8)])
        for run in runs:
            run.iteration = 1
        fed.discriminator_phase(stack, batches)
        assert_bound(stack)

        # run 1 leaves: the others keep their rows, it keeps its last values
        results = [fed.TrainResult(run, [], None, math.inf, 0) for run in runs]
        before = [federation_blob(run) for run in runs]
        live, _ = fed._retire(stack, [0, 1, 2], [{}, {}, {}], {1: RuntimeError("x")}, results, 1)
        assert live == [0, 2] and stack.runs == [runs[0], runs[2]]
        assert [federation_blob(run) for run in runs] == before
        # it holds a copy of its rows, not the whole pre-retire stack, and
        # shares no memory with the stack's models
        for own in runs[1].models.values():
            assert own.params.base is None and own.params.ndim == 1
            assert np.shares_memory(own.layers[0].weight, own.params)
            assert not any(np.shares_memory(own.params, m.params) for m in stack.models.values())
        assert_bound(stack)
        fed.discriminator_phase(stack, batches[[0, 2]])
        assert [federation_blob(run) == b for run, b in zip(runs, before)] == [False, True, False]
        assert [r.diverged for r in results] == [False, True, False]

    @pytest.mark.parametrize("size", [1, 3])
    def test_set_up_holds_little_beyond_the_stack(self, size):
        # desk widths on a small sine6 partition: the runs' weights are drawn
        # into their rows, with no second copy of the models or moments
        ds = data.gen_sine6(n_per_class=8, t_steps=24, seed=3)
        views = data.partition(ds, {0: [0, 1], 1: [2, 3], 2: [4, 5]})
        cfg = fed.TrainConfig(batch_size=8, seed=1)
        tracemalloc.start()
        try:
            stack = fed.init_stack(cfg, [(views, s) for s in range(size)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        opts = list(stack.opts.values())
        held = sum(model.params.nbytes for model in stack.models.values())
        held += sum(opt.m.nbytes + opt.v.nbytes for opt in opts) + opts[0].scratch.nbytes
        assert all(opt.scratch is opts[0].scratch for opt in opts)
        assert peak < 1.25 * held


def release_blob(release):
    return None if release is None else (release.data.tobytes(), release.attribute_names)


class TestShadowTrainerAcrossCores:
    """The shadow trainer trains one stack per usable core, the first in this
    process and the others in forked workers, and returns the single
    releases."""

    @staticmethod
    def poison_seeds(monkeypatch, seeds):
        # a NaN first-layer gradient from the DP mechanism at iteration 2
        # makes each run of these seeds diverge, in whichever process it trains
        keys = {stream_seed(s, "dp-noise", "D", 0, 0) for s in seeds}
        calls = {}  # id -> (stream, calls); holding the stream keeps its id unique
        real = fed.perturb_first_layer

        def perturb(grads, clip, sigma, rng):
            out = real(grads, clip, sigma, rng)
            calls[id(rng)] = (rng, calls.get(id(rng), (rng, 0))[1] + 1)
            if rng.bit_generator.seed_seq.entropy in keys and calls[id(rng)][1] == 2:
                out.d_weights[0][0, 0] = np.nan
            return out

        monkeypatch.setattr(fed, "perturb_first_layer", perturb)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_equals_one_call_per_job_bytes(self, monkeypatch, cores):
        make_dataset, assignment = STACK_PARTITIONS["sine2_two_parties"]
        full = make_dataset()
        short = full.without_sample(2)
        # five jobs: two cores split them 2 + 3, three cores 1 + 2 + 2, so
        # the first diverging run trains here and the last in a worker
        jobs = [(full, 5), (short, 6), (full, 7), (short, 8), (full, 9)]
        self.poison_seeds(monkeypatch, {5, 9})
        monkeypatch.setattr(workers, "usable_cores", lambda: cores)
        trainer = fed.shadow_trainer(
            tiny_config(max_iters=4, dp=DpParams(1.0, 0.5)), assignment, n_synth=5
        )
        together = trainer(jobs)
        alone = [trainer([job])[0] for job in jobs]
        assert [r is None for r in alone] == [True, False, False, False, True]
        assert [release_blob(r) for r in together] == [release_blob(r) for r in alone]

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_a_failing_chunk_raises_its_error_and_leaves_no_worker(self, monkeypatch, where):
        make_dataset, assignment = STACK_PARTITIONS["sine2_two_parties"]
        full = make_dataset()
        parent = os.getpid()
        real = fed.train_runs

        def train_runs(config, jobs):
            if (os.getpid() == parent) == (where == "parent"):
                raise OverflowError(f"chunk of {len(jobs)} runs failed")
            if where == "parent":
                time.sleep(60)  # a worker chunk that trains for a minute
            return real(config, jobs)

        monkeypatch.setattr(fed, "train_runs", train_runs)
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        trainer = fed.shadow_trainer(tiny_config(max_iters=2), assignment, n_synth=5)
        jobs = [(full, 5), (full, 6), (full.without_sample(2), 7)]
        size = 2 if where == "worker" else 1
        start = time.monotonic()
        with pytest.raises(OverflowError, match=f"^chunk of {size} runs failed$"):
            trainer(jobs)
        # the error does not wait for the other chunk, whose worker is gone
        assert time.monotonic() - start < 10

    def test_without_fork_every_chunk_trains_here(self, monkeypatch):
        make_dataset, assignment = STACK_PARTITIONS["sine2_two_parties"]
        full = make_dataset()
        jobs = [(full, 5), (full.without_sample(2), 6), (full, 7)]
        trainer = fed.shadow_trainer(tiny_config(max_iters=2), assignment, n_synth=5)
        parent = os.getpid()
        real = fed.train_runs
        sizes = []

        def train_runs(config, jobs):
            assert os.getpid() == parent
            sizes.append(len(jobs))
            return real(config, jobs)

        monkeypatch.setattr(fed, "train_runs", train_runs)
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        monkeypatch.delattr(os, "fork")
        together = trainer(jobs)
        assert sizes == [3]
        assert [release_blob(r) for r in together] == [
            release_blob(trainer([job])[0]) for job in jobs
        ]

    def test_workers_fork_where_no_other_thread_runs(self, monkeypatch):
        # a forked worker holds only the thread that forked it, so
        # ``run_chunks`` may fork only where this process runs no other one
        make_dataset, assignment = STACK_PARTITIONS["sine2_two_parties"]
        full = make_dataset()
        jobs = [(full, 5), (full.without_sample(2), 6), (full, 7)]
        counts = []
        real = os.fork

        def fork():
            counts.append(threading.active_count())
            return real()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        trainer = fed.shadow_trainer(
            tiny_config(max_iters=3, dp=DpParams(1.0, 0.5)), assignment, n_synth=5
        )
        assert all(release is not None for release in trainer(jobs))
        assert counts == [1, 1]

    def test_usable_cores_follow_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert workers.usable_cores() == len(os.sched_getaffinity(0))
        else:
            assert workers.usable_cores() == (os.cpu_count() or 1)

    def test_chunks_run_on_one_blas_thread_and_the_count_comes_back(self, monkeypatch):
        # where numpy bundles no OpenBLAS there is no count to hold
        threads = workers._openblas_threads()
        count = (lambda _: threads[0]()) if threads else (lambda _: None)
        before = count(None)
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        assert workers.run_chunks(count, [0, 1]) == ([1, 1] if threads else [None, None])
        assert count(None) == before


class TestTrainMany:
    """``train_many`` reads each job's result where it trained, in job order."""

    def test_each_result_is_its_solo_train_at_desk_shapes(self, monkeypatch):
        # desk widths, T = 100 and batch 64, where OpenBLAS would run two
        # threads: the forked chunks run at one, so the solo trains do too
        ds = data.gen_sine2(n_per_class=64, t_steps=100, seed=7)
        views = data.partition(ds, {0: [0], 1: [1]})
        base = fed.TrainConfig(max_iters=4, checkpoint_every=2)
        configs = [
            replace(base, seed=1),  # the first two train here, as one stack
            replace(base, seed=2),
            replace(base, topology="centralized", seed=3),
            replace(base, topology="local_only", seed=4),
            replace(base, dp=DpParams(1.0, 0.5), seed=5),
        ]
        parent = os.getpid()
        sizes = []
        real = fed.train_runs

        def train_runs(config, jobs):
            sizes.append(len(jobs))
            return real(config, jobs)

        def read(result):
            bank = b"".join(params_blob(g) for _, g in sorted(result.best_bank.generators.items()))
            return os.getpid(), (result.history, bank, result.best_iteration, result.diverged)

        monkeypatch.setattr(fed, "train_runs", train_runs)
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        got = fed.train_many([(cfg, views) for cfg in configs], read)
        assert sizes == [2]  # what this process trained; the worker's three go unseen
        assert [pid == parent for pid, _ in got] == [True, True, False, False, False]
        with workers._one_blas_thread():
            want = [read(fed.train(cfg, views))[1] for cfg in configs]
        assert [value for _, value in got] == want

    def test_only_train_many_and_the_export_fork(self):
        # every list of trainings goes through ``train_many``, so the fork
        # path has two callers in the package and the scripts
        root = Path(__file__).resolve().parents[1]
        paths = sorted([*root.glob("src/fedtsgan/*.py"), *root.glob("scripts/*.py")])
        sites = set()
        for path in paths:
            if path.name == "workers.py":
                continue
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("workers"):
                        sites.add((path.stem, "import"))
                    elif (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "workers"
                        and node.attr in ("split", "run_chunks")
                    ):
                        sites.add((path.stem, getattr(top, "name", None), node.attr))
        assert sites == {
            (module, name, attr)
            for module, name in (("data", "save_csv"), ("federation", "train_many"))
            for attr in ("split", "run_chunks")
        }


class TestDpWiring:
    def test_dp_off_equals_passthrough_mechanism_bitwise(self, sine_views):
        cfg_off = tiny_config(dp=None, max_iters=3)
        cfg_pass = tiny_config(dp=DpParams(np.inf, 0.0), max_iters=3)
        ra = fed.train(cfg_off, sine_views)
        rb = fed.train(cfg_pass, sine_views)
        assert ra.history == rb.history
        assert federation_blob(ra.state) == federation_blob(rb.state)

    @pytest.mark.parametrize("topology", fed.TOPOLOGIES)
    @pytest.mark.parametrize("name", STACK_PARTITIONS)
    def test_noise_touches_only_first_layers_of_protected_models(self, topology, name):
        # the shared discriminator is never noised, also where it reads raw
        # series (centralized)
        make_dataset, assignment = STACK_PARTITIONS[name]
        views = data.partition(make_dataset(), assignment)
        cfg_noisy = tiny_config(topology=topology, dp=DpParams(1.0, 1.0))
        cfg_silent = tiny_config(topology=topology, dp=DpParams(1.0, 0.0))
        stack_a = solo_stack(cfg_noisy, views)
        stack_b = solo_stack(cfg_silent, views)
        batch = np.arange(6)[None]
        fed.discriminator_phase(stack_a, batch)
        fed.discriminator_phase(stack_b, batch)
        ma, mb = all_models(stack_a.runs[0]), all_models(stack_b.runs[0])
        for name in ma:
            protected = name.startswith(("d_", "fe_")) and name != "d_shared"
            for li, (la, lb) in enumerate(zip(ma[name].layers, mb[name].layers)):
                same = (
                    la.weight.tobytes() == lb.weight.tobytes()
                    and la.bias.tobytes() == lb.bias.tobytes()
                )
                if protected and li == 0:
                    assert not same, f"{name} layer 0 should differ"
                else:
                    assert same, f"{name} layer {li} should be identical"

    @staticmethod
    def neighbouring_difference(topology, name):
        """One sigma = 1 discriminator phase on each of two datasets that
        differ in one row of the batch, every seed equal: the (slot, layer)
        pairs whose bytes differ after it, and the noised slots."""
        make_dataset, assignment = STACK_PARTITIONS[name]
        ds = make_dataset()
        neighbour = ds.take(np.arange(ds.n_samples))
        neighbour.data[2] += 1.0
        cfg = tiny_config(topology=topology, dp=DpParams(1.0, 1.0))
        stacks = [solo_stack(cfg, data.partition(d, assignment)) for d in (ds, neighbour)]
        for stack in stacks:
            fed.discriminator_phase(stack, np.arange(6)[None])
        a, b = (stack.models for stack in stacks)
        differ = {
            (key, li)
            for key in a
            for li, (la, lb) in enumerate(zip(a[key].layers, b[key].layers))
            if la.weight.tobytes() + la.bias.tobytes() != lb.weight.tobytes() + lb.bias.tobytes()
        }
        return differ, set(stacks[0].runs[0].noise_rngs)

    @pytest.mark.parametrize("topology", fed.TOPOLOGIES)
    @pytest.mark.parametrize("name", STACK_PARTITIONS)
    def test_a_neighbouring_batch_leaves_extractors_and_generators_alone(self, topology, name):
        differ, _ = self.neighbouring_difference(topology, name)
        assert differ
        assert not {key for key, _ in differ if key[0] in ("G", "FE")}

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the local discriminators' deeper layers and the shared "
        "discriminator read the real batch without noise",
    )
    @pytest.mark.parametrize("topology", fed.TOPOLOGIES)
    @pytest.mark.parametrize("name", STACK_PARTITIONS)
    def test_a_neighbouring_batch_reaches_only_noised_layers(self, topology, name):
        differ, noised = self.neighbouring_difference(topology, name)
        assert differ <= {(key, 0) for key in noised}

    def test_noise_streams_do_not_leak_into_training_randomness(self, sine_views):
        # same seed, different sigma: the subsampled batches and z draws
        # must coincide; checked via the message hashes of the REAL features
        cfg_a = tiny_config(dp=DpParams(1.0, 0.0), max_iters=1)
        cfg_b = tiny_config(dp=DpParams(1.0, 3.0), max_iters=1)
        ra = fed.train(cfg_a, sine_views)
        rb = fed.train(cfg_b, sine_views)
        real_feats_a = ra.state.log.records[0]
        real_feats_b = rb.state.log.records[0]
        assert real_feats_a.payload_hash == real_feats_b.payload_hash


class TestNoiseInPlace:
    """``perturb_first_layer`` draws each run's noise from its ``Generator``
    when the phase clips the gradient, on the training thread."""

    @pytest.mark.parametrize(
        "dp, seeds",
        [
            (None, [1]),
            (DpParams(1.0, 0.0), [1]),
            (DpParams(np.inf, 0.0), [1]),
            (DpParams(1.0, 0.5), [1]),
            (DpParams(1.0, 0.5), [1, 2]),
        ],
        ids=["off", "sigma_0", "passthrough", "sigma", "sigma_stack"],
    )
    def test_training_starts_no_thread(self, monkeypatch, sine_views, dp, seeds):
        seen = []  # the names of the other threads at each discriminator phase
        real = fed.discriminator_phase

        def phase(stack, batch):
            others = set(threading.enumerate()) - {threading.current_thread()}
            seen.append(sorted(t.name for t in others))
            return real(stack, batch)

        monkeypatch.setattr(fed, "discriminator_phase", phase)
        fed.train_runs(tiny_config(max_iters=3, dp=dp), [(sine_views, s) for s in seeds])
        assert seen == [[]] * 3

    def test_every_run_diverging_ends_the_training(self, monkeypatch, sine_views):
        # a NaN first-layer gradient at each noise stream's second draw ends
        # both runs at iteration 2 of 20
        calls = {}
        real = fed.perturb_first_layer

        def perturb(grads, clip, sigma, rng):
            out = real(grads, clip, sigma, rng)
            calls[id(rng)] = calls.get(id(rng), 0) + 1
            if calls[id(rng)] == 2:
                out.d_weights[0][0, 0] = np.nan
            return out

        monkeypatch.setattr(fed, "perturb_first_layer", perturb)
        cfg = tiny_config(max_iters=20, dp=DpParams(1.0, 0.5))
        results = fed.train_runs(cfg, [(sine_views, 1), (sine_views, 2)])
        assert [(r.diverged, r.state.iteration) for r in results] == [(True, 2)] * 2

    def test_a_phase_raising_reaches_the_caller(self, monkeypatch, sine_views):
        error = RuntimeError("phase failed")
        real = fed.generator_phase

        def phase(stack):
            if stack.runs[0].iteration == 2:
                raise error
            return real(stack)

        monkeypatch.setattr(fed, "generator_phase", phase)
        with pytest.raises(RuntimeError) as caught:
            fed.train_runs(tiny_config(max_iters=6, dp=DpParams(1.0, 0.5)), [(sine_views, 1)])
        assert caught.value is error

    def test_a_failing_draw_reaches_the_caller(self, monkeypatch, sine_views):
        error = RuntimeError("draw failed")

        class Failing:
            """A noise stream whose third draw fails."""

            def __init__(self):
                self.draws = 0

            def normal(self, loc, scale, size):
                self.draws += 1
                if self.draws == 3:
                    raise error
                return np.zeros(size)

        real = fed.init_stack

        def init_stack(config, jobs):
            stack = real(config, jobs)
            stack.runs[0].noise_rngs["D", 1, 1] = Failing()
            return stack

        monkeypatch.setattr(fed, "init_stack", init_stack)
        with pytest.raises(RuntimeError) as caught:
            fed.train_runs(tiny_config(max_iters=6, dp=DpParams(1.0, 0.5)), [(sine_views, 1)])
        assert caught.value is error


class TestRawDataLocality:
    def test_no_message_matches_any_raw_slice(self, sine_views):
        cfg = tiny_config(max_iters=3)
        result = fed.train(cfg, sine_views)
        ds = sine_views[0].dataset
        raw_hashes = set()
        for n in range(ds.n_samples):
            for a in range(ds.n_attributes):
                raw_hashes.add(fed.payload_digest(ds.data[n, a, :]))
            raw_hashes.add(fed.payload_digest(ds.data[n].ravel()))
        for record in result.state.log.records:
            assert record.payload_hash not in raw_hashes
            assert record.shape[1] not in (ds.n_steps, ds.n_attributes * ds.n_steps)

    def test_centralized_and_local_log_nothing(self, sine_views):
        for topo in ("centralized", "local_only"):
            result = fed.train(tiny_config(topology=topo, max_iters=2), sine_views)
            assert result.state.log.records == []

    def test_digest_is_sha256_of_the_float64_bytes_in_c_order(self):
        block = np.random.default_rng(4).standard_normal((3, 6, 4))
        payloads = [block[1], block[:, 2], block[1].T, block[0, :, ::2], np.arange(6).reshape(2, 3)]
        log = fed.MessageLog()
        for p in payloads:
            log.log(1, "party->server", 0, "feature", p)
        want = [
            hashlib.sha256(np.ascontiguousarray(p, dtype=np.float64).tobytes()).hexdigest()
            for p in payloads
        ]
        assert [r.payload_hash for r in log.records] == want
        assert [fed.payload_digest(p) for p in payloads] == want

    def test_log_rejects_raw_kind(self):
        log = fed.MessageLog()
        with pytest.raises(ValueError):
            log.log(0, "party->server", 0, "raw_attribute", np.zeros((2, 2)))


class TestTrain:
    def test_single_iteration_runs_both_phases(self, sine_views):
        result = fed.train(tiny_config(max_iters=1, checkpoint_every=1), sine_views)
        row = result.history[1]
        assert "d_0_0" in row and "g_0_0" in row and "awd" in row

    def test_same_seed_bit_identical_history(self, sine_views):
        ra = fed.train(tiny_config(), sine_views)
        rb = fed.train(tiny_config(), sine_views)
        assert ra.history == rb.history
        assert federation_blob(ra.state) == federation_blob(rb.state)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_returns_best_snapshot_with_flag(self, sine_views):
        cfg = tiny_config(max_iters=5, lr=1e306)  # guaranteed blow-up
        result = fed.train(cfg, sine_views)
        assert result.diverged
        assert result.best_bank is not None

    def test_best_checkpoint_tracked(self, sine_views):
        result = fed.train(tiny_config(max_iters=4, checkpoint_every=2), sine_views)
        awds = [r["awd"] for r in result.history if "awd" in r]
        assert result.best_awd == min(awds)


class TestSynthesize:
    def test_shape_and_determinism(self, sine_views):
        bank = fed.bank_from_state(solo_stack(tiny_config(), sine_views).runs[0])
        a = fed.synthesize(bank, 7, seed=3)
        b = fed.synthesize(bank, 7, seed=3)
        assert a.data.shape == (7, 2, 12)
        assert a.data.tobytes() == b.data.tobytes()

    def test_single_sample_deterministic(self, sine_views):
        bank = fed.bank_from_state(solo_stack(tiny_config(), sine_views).runs[0])
        a = fed.synthesize(bank, 1, seed=0)
        b = fed.synthesize(bank, 1, seed=0)
        np.testing.assert_array_equal(a.data, b.data)

    def test_attributes_land_at_original_indices(self):
        ds = data.gen_sine2(n_per_class=8, t_steps=12, seed=5)
        # swap the party order: party 0 holds attribute 1
        views = data.partition(ds, {0: [1], 1: [0]})
        state = solo_stack(tiny_config(), views).runs[0]
        bank = fed.bank_from_state(state)
        synth = fed.synthesize(bank, 3, seed=1)
        g_for_attr0 = state.models["G", 1, 0]
        z = np.random.Generator(np.random.PCG64()).standard_normal  # unused; direct check below
        from fedtsgan.rng import stream

        z = stream(1, "synthesize").standard_normal((3, 3))
        np.testing.assert_array_equal(synth.data[:, 0, :], nn.forward(g_for_attr0, z).output)

    def test_meta_carried_for_amplitude_eval(self, sine_views):
        state = solo_stack(tiny_config(), sine_views).runs[0]
        synth = fed.synthesize(fed.bank_from_state(state), 4, seed=0)
        assert synth.frequencies() is not None


class TestConfigValidation:
    def test_bad_topology(self):
        with pytest.raises(ValueError):
            fed.TrainConfig(topology="p2p")

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            fed.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            fed.TrainConfig(beta1=-0.1)

    @pytest.mark.parametrize(
        "name, value",
        [("lr", -1.0), ("lr", math.inf), ("lr", math.nan), ("beta1", math.inf),
         ("beta2", math.nan), ("adam_beta1", 1.5), ("adam_beta1", 1.0), ("adam_beta2", 1.0),
         ("adam_beta2", -0.1), ("adam_beta2", math.nan), ("adam_eps", -1e-8), ("adam_eps", 0.0),
         ("adam_eps", math.inf), ("adam_eps", math.nan)],
    )
    def test_optimizer_setting_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=name):
            fed.TrainConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        # lr = 0 freezes the models; 1e306 diverges in training, not here;
        # Adam's beta2 may be 0 (no second-moment averaging)
        [("lr", 0.0), ("lr", 1e306), ("adam_beta1", 0.0), ("adam_beta2", 0.0), ("adam_eps", 1e-300)],
    )
    def test_optimizer_setting_at_its_edge_accepted(self, name, value):
        assert getattr(fed.TrainConfig(**{name: value}), name) == value

    def test_batch_exceeding_dataset_rejected(self, sine_views):
        with pytest.raises(ValueError):
            solo_stack(tiny_config(batch_size=999), sine_views)

    def test_stacked_runs_must_share_one_partition(self, sine_views):
        swapped = data.partition(sine_views[0].dataset, {0: [1], 1: [0]})
        with pytest.raises(ValueError, match="one partition"):
            fed.init_stack(tiny_config(), [(sine_views, 1), (swapped, 2)])
