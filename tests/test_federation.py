import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fedtsgan import data, federation as fed, nn
from fedtsgan.dpmech import DpParams

from conftest import params_blob


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


def all_models(state):
    out = {}
    for p in state.parties:
        for j, attr in enumerate(p.attribute_indices):
            out[f"g_{p.party_id}_{attr}"] = p.generators[j]
            out[f"d_{p.party_id}_{attr}"] = p.discriminators[j]
        if p.feature_extractor is not None:
            out[f"fe_{p.party_id}"] = p.feature_extractor
    if state.shared_disc is not None:
        out["d_shared"] = state.shared_disc
    return out


def federation_blob(state):
    return b"".join(params_blob(m) for _, m in sorted(all_models(state).items()))


class TestLatentBroadcast:
    def test_identical_z_for_all_generators(self, sine_views, monkeypatch):
        state = fed.init_federation(tiny_config(), sine_views)
        generators = {id(g) for p in state.parties for g in p.generators}
        seen = []
        real_forward = nn.forward

        def recording(model, batch):
            if id(model) in generators:
                seen.append(batch.copy())
            return real_forward(model, batch)

        monkeypatch.setattr(nn, "forward", recording)
        state.iteration = 1
        for run_phase in (
            lambda: fed.discriminator_phase(state, np.arange(6)),
            lambda: fed.generator_phase(state),
        ):
            seen.clear()
            run_phase()
            assert len(seen) == len(generators)
            assert seen[0].shape == (6, 3)
            assert all(z.tobytes() == seen[0].tobytes() for z in seen)

    def test_stream_advances_between_draws(self, sine_views):
        state = fed.init_federation(tiny_config(), sine_views)
        z1 = fed.broadcast_latent(state, 4)
        z2 = fed.broadcast_latent(state, 4)
        assert not np.array_equal(z1, z2)

    def test_standard_normal_moments(self, sine_views):
        state = fed.init_federation(tiny_config(latent_dim=10), sine_views)
        z = fed.broadcast_latent(state, 10_000)  # 1e5 draws
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02


class TestDiscriminatorPhase:
    def test_zero_lr_leaves_parameters_but_reports_losses(self, sine_views):
        state = fed.init_federation(tiny_config(lr=0.0), sine_views)
        before = federation_blob(state)
        info = fed.discriminator_phase(state, np.arange(6))
        assert federation_blob(state) == before
        assert {"d_0_0", "d_1_1", "d_shared", "fe_0", "fe_1"} <= set(info["losses"])

    def test_saturated_discriminator_loss_pins_clamp(self, sine_views):
        # final bias forced huge: sigmoid saturates to 1 on real and fake
        state = fed.init_federation(tiny_config(), sine_views)
        for p in state.parties:
            for d in p.discriminators:
                d.layers[-1].bias[:] = 1e4
        info = fed.discriminator_phase(state, np.arange(6))
        expected = -(np.log(1.0 - 1e-7) + np.log(1e-7))
        assert info["losses"]["d_0_0"] == pytest.approx(expected, rel=1e-9)

    def test_phase_updates_only_discriminators_and_fes(self, sine_views):
        state = fed.init_federation(tiny_config(), sine_views)
        gens_before = [params_blob(g) for p in state.parties for g in p.generators]
        discs_before = [params_blob(d) for p in state.parties for d in p.discriminators]
        fed.discriminator_phase(state, np.arange(6))
        gens_after = [params_blob(g) for p in state.parties for g in p.generators]
        discs_after = [params_blob(d) for p in state.parties for d in p.discriminators]
        assert gens_before == gens_after
        assert discs_before != discs_after

    def test_message_log_holds_only_feature_traffic(self, sine_views):
        state = fed.init_federation(tiny_config(), sine_views)
        fed.discriminator_phase(state, np.arange(6))
        fed.generator_phase(state)
        kinds = {r.kind for r in state.log.records}
        assert kinds == {"feature", "feature_grad"}
        widths = {r.shape[1] for r in state.log.records}
        assert widths == {4}  # feature_dim

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self, sine_views):
        state = fed.init_federation(tiny_config(), sine_views)
        state.parties[0].discriminators[0].layers[0].weight[:] = 1e308
        with pytest.raises((fed.DivergenceError, nn.NonFiniteError)):
            fed.discriminator_phase(state, np.arange(6))


class TestGeneratorPhase:
    def test_phase_updates_only_generators(self, sine_views):
        state = fed.init_federation(tiny_config(), sine_views)
        fed.discriminator_phase(state, np.arange(6))
        discs_before = [params_blob(d) for p in state.parties for d in p.discriminators]
        fes_before = [params_blob(p.feature_extractor) for p in state.parties]
        shared_before = params_blob(state.shared_disc)
        gens_before = [params_blob(g) for p in state.parties for g in p.generators]
        fed.generator_phase(state)
        assert [params_blob(d) for p in state.parties for d in p.discriminators] == discs_before
        assert [params_blob(p.feature_extractor) for p in state.parties] == fes_before
        assert params_blob(state.shared_disc) == shared_before
        assert [params_blob(g) for p in state.parties for g in p.generators] != gens_before

    def test_beta1_zero_equals_pure_local_generator_step(self, sine_views):
        run_a = fed.init_federation(tiny_config(beta1=0.0), sine_views)
        run_b = fed.init_federation(tiny_config(topology="local_only"), sine_views)
        fed.generator_phase(run_a)
        fed.generator_phase(run_b)
        for pa, pb in zip(run_a.parties, run_b.parties):
            for ga, gb in zip(pa.generators, pb.generators):
                assert params_blob(ga) == params_blob(gb)

    def test_local_only_shared_pathway_contributes_nothing(self, sine_views):
        state = fed.init_federation(tiny_config(topology="local_only"), sine_views)
        z = fed.broadcast_latent(state, 4)
        step = fed.generator_step(state, z)
        # loss is the local term only and grads come from D_ij alone
        assert set(step["losses"]) == {"g_0_0", "g_1_1"}

    def test_non_saturating_switch_rescues_dominated_generators(self, sine_views):
        # discriminators driven to D(fake) ~ 4.5e-5: the written objective's
        # gradient vanishes with the sigmoid derivative, the switched one
        # stays order-one
        grads = {}
        for non_sat in (False, True):
            state = fed.init_federation(
                tiny_config(topology="local_only", non_saturating=non_sat), sine_views
            )
            for p in state.parties:
                for d in p.discriminators:
                    d.layers[-1].bias[:] = -10.0
            z = fed.broadcast_latent(state, 4)
            step = fed.generator_step(state, z)
            grads[non_sat] = np.linalg.norm(step["out_grads"][(0, 0)])
        assert grads[True] > 1e3 * grads[False]

    def test_non_saturating_default_off(self):
        assert fed.TrainConfig().non_saturating is False

    def test_composed_path_gradient_matches_finite_differences(self, sine_views):
        state = fed.init_federation(tiny_config(), sine_views)
        z = fed.broadcast_latent(state, 4)
        step = fed.generator_step(state, z)
        gen = state.parties[0].generators[0]
        analytic, _ = nn.backward(gen, step["traces"][(0, 0)], step["out_grads"][(0, 0)])

        h = 1e-6
        worst = 0.0
        w = gen.layers[0].weight
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + h
            plus = fed.generator_step(state, z)["losses"]["g_0_0"]
            w[idx] = orig - h
            minus = fed.generator_step(state, z)["losses"]["g_0_0"]
            w[idx] = orig
            numeric = (plus - minus) / (2 * h)
            got = analytic.d_weights[0][idx]
            worst = max(worst, abs(got - numeric) / max(abs(got), abs(numeric), 1e-12))
        assert worst < 1e-5


# -- reference: the shared pathway as separate per-topology code ---------------
#
# The phases below keep the earlier form of the shared pathway: a ``vfl``
# block (one feature extractor per party, every crossing logged) and a
# ``centralized`` block (the shared discriminator on raw concatenated
# attributes, weighted by what was then a separate ``lambda``, here beta1).
# The branch-list pathway must reproduce them byte for byte.


def _party_block(p, source, batch=None):
    if isinstance(source, dict):
        return np.concatenate([source[(p.party_id, a)] for a in p.attribute_indices], axis=1)
    return source[np.ix_(batch, p.attribute_indices)].reshape(len(batch), -1)


def ref_discriminator_phase(state, batch_indices):
    cfg = state.config
    batch = np.asarray(batch_indices)
    b = batch.shape[0]
    data_ = state.dataset.data
    z = fed.broadcast_latent(state, b)
    fakes, _ = fed._generate_fakes(state, z, keep_traces=False)
    losses, pending = {}, []
    for p in state.parties:
        for j, attr in enumerate(p.attribute_indices):
            disc = p.discriminators[j]
            tr_r = nn.forward(disc, data_[batch, attr, :])
            tr_f = nn.forward(disc, fakes[(p.party_id, attr)])
            log_r, dlog_r = nn.clamped_log(tr_r.output)
            log1m_f, dlog1m_f = nn.clamped_log1m(tr_f.output)
            losses[f"d_{p.party_id}_{attr}"] = float(-(log_r.mean() + log1m_f.mean()))
            grads, _ = nn.backward(disc, tr_r, -dlog_r / b)
            grads_f, _ = nn.backward(disc, tr_f, -dlog1m_f / b)
            grads.add_(grads_f)
            grads = fed._maybe_dp(state, ("D", p.party_id, attr), grads)
            pending.append((disc, grads, p.disc_opts[j]))

    if cfg.topology == "vfl":
        fe_traces_f, feat_real, feat_fake, widths = [], [], [], []
        for p in state.parties:
            tr_fe_r = nn.forward(p.feature_extractor, _party_block(p, data_, batch))
            tr_fe_f = nn.forward(p.feature_extractor, _party_block(p, fakes))
            fe_traces_f.append(tr_fe_f)
            feat_real.append(tr_fe_r.output)
            feat_fake.append(tr_fe_f.output)
            widths.append(tr_fe_f.output.shape[1])
            for payload in (tr_fe_r.output, tr_fe_f.output):
                state.log.log(state.iteration, "party->server", p.party_id, "feature", payload)
        tr_ds_r = nn.forward(state.shared_disc, np.concatenate(feat_real, axis=1))
        tr_ds_f = nn.forward(state.shared_disc, np.concatenate(feat_fake, axis=1))
        log_r, dlog_r = nn.clamped_log(tr_ds_r.output)
        log1m_f, dlog1m_f = nn.clamped_log1m(tr_ds_f.output)
        losses["d_shared"] = float(-(log_r.mean() + log1m_f.mean()))
        ds_grads, _ = nn.backward(state.shared_disc, tr_ds_r, -dlog_r / b)
        ds_grads_f, _ = nn.backward(state.shared_disc, tr_ds_f, -dlog1m_f / b)
        ds_grads.add_(ds_grads_f)
        pending.append((state.shared_disc, ds_grads, state.shared_opt))
        fe_loss = float(cfg.beta2 * log1m_f.mean())
        _, feat_grad = nn.backward(
            state.shared_disc, tr_ds_f, cfg.beta2 * dlog1m_f / b, params=False
        )
        offset = 0
        for p, tr_fe_f, width in zip(state.parties, fe_traces_f, widths):
            g_slice = feat_grad[:, offset : offset + width]
            offset += width
            state.log.log(state.iteration, "server->party", p.party_id, "feature_grad", g_slice)
            fe_grads, _ = nn.backward(p.feature_extractor, tr_fe_f, g_slice)
            fe_grads = fed._maybe_dp(state, ("FE", p.party_id), fe_grads)
            pending.append((p.feature_extractor, fe_grads, p.fe_opt))
            losses[f"fe_{p.party_id}"] = fe_loss
    elif cfg.topology == "centralized":
        x_real = np.concatenate([_party_block(p, data_, batch) for p in state.parties], axis=1)
        x_fake = np.concatenate([_party_block(p, fakes) for p in state.parties], axis=1)
        tr_c_r = nn.forward(state.shared_disc, x_real)
        tr_c_f = nn.forward(state.shared_disc, x_fake)
        log_r, dlog_r = nn.clamped_log(tr_c_r.output)
        log1m_f, dlog1m_f = nn.clamped_log1m(tr_c_f.output)
        losses["d_shared"] = float(-(log_r.mean() + log1m_f.mean()))
        c_grads, _ = nn.backward(state.shared_disc, tr_c_r, -dlog_r / b)
        c_grads_f, _ = nn.backward(state.shared_disc, tr_c_f, -dlog1m_f / b)
        c_grads.add_(c_grads_f)
        pending.append((state.shared_disc, c_grads, state.shared_opt))

    fed._check_finite(losses, "discriminator phase")
    for model, grads, opt in pending:
        nn.adam_step(model, grads, opt)
    return {"losses": losses}


def ref_generator_step(state, z):
    cfg = state.config
    b = z.shape[0]
    t_steps = state.t_steps
    fakes, gen_traces = fed._generate_fakes(state, z, keep_traces=True)
    losses, out_grads = {}, {}
    for p in state.parties:
        for j, attr in enumerate(p.attribute_indices):
            disc = p.discriminators[j]
            tr_d = nn.forward(disc, fakes[(p.party_id, attr)])
            term, dterm = fed._fooling_term(tr_d.output, cfg.non_saturating)
            losses[f"g_{p.party_id}_{attr}"] = term
            _, out_grads[(p.party_id, attr)] = nn.backward(disc, tr_d, dterm / b, params=False)

    if cfg.topology == "vfl":
        fe_traces, feat_fake, widths = [], [], []
        for p in state.parties:
            tr_fe = nn.forward(p.feature_extractor, _party_block(p, fakes))
            fe_traces.append(tr_fe)
            feat_fake.append(tr_fe.output)
            widths.append(tr_fe.output.shape[1])
            state.log.log(state.iteration, "party->server", p.party_id, "feature", tr_fe.output)
        tr_ds = nn.forward(state.shared_disc, np.concatenate(feat_fake, axis=1))
        shared_term, dshared = fed._fooling_term(tr_ds.output, cfg.non_saturating)
        _, feat_grad = nn.backward(
            state.shared_disc, tr_ds, cfg.beta1 * dshared / b, params=False
        )
        offset = 0
        for p, tr_fe, width in zip(state.parties, fe_traces, widths):
            g_slice = feat_grad[:, offset : offset + width]
            offset += width
            state.log.log(state.iteration, "server->party", p.party_id, "feature_grad", g_slice)
            _, x_grad = nn.backward(p.feature_extractor, tr_fe, g_slice, params=False)
            x_grad = x_grad.reshape(b, len(p.attribute_indices), t_steps)
            for j, attr in enumerate(p.attribute_indices):
                out_grads[(p.party_id, attr)] += x_grad[:, j, :]
        for p in state.parties:
            for attr in p.attribute_indices:
                losses[f"g_{p.party_id}_{attr}"] += cfg.beta1 * shared_term
    elif cfg.topology == "centralized":
        x_fake = np.concatenate([_party_block(p, fakes) for p in state.parties], axis=1)
        tr_c = nn.forward(state.shared_disc, x_fake)
        shared_term, dshared = fed._fooling_term(tr_c.output, cfg.non_saturating)
        _, x_grad = nn.backward(state.shared_disc, tr_c, cfg.beta1 * dshared / b, params=False)
        offset = 0
        for p in state.parties:
            width = len(p.attribute_indices) * t_steps
            block = x_grad[:, offset : offset + width].reshape(b, len(p.attribute_indices), t_steps)
            offset += width
            for j, attr in enumerate(p.attribute_indices):
                out_grads[(p.party_id, attr)] += block[:, j, :]
                losses[f"g_{p.party_id}_{attr}"] += cfg.beta1 * shared_term

    return {"losses": losses, "out_grads": out_grads, "traces": gen_traces}


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
    def test_branch_list_reproduces_per_topology_code(self, topology, assignment, dp, monkeypatch):
        ds = data.gen_sine6(n_per_class=8, t_steps=10, seed=3)
        views = data.partition(ds, assignment)
        cfg = tiny_config(
            topology=topology, dp=dp, max_iters=6, checkpoint_every=2, beta1=0.7, beta2=0.9
        )
        got = fed.train(cfg, views)
        monkeypatch.setattr(fed, "discriminator_phase", ref_discriminator_phase)
        monkeypatch.setattr(fed, "generator_step", ref_generator_step)
        want = fed.train(cfg, views)

        assert sum("awd" in row for row in got.history) >= 3
        assert [list(r.items()) for r in got.history] == [list(r.items()) for r in want.history]
        assert federation_blob(got.state) == federation_blob(want.state)
        assert [params_blob(g) for _, g in sorted(got.best_bank.generators.items())] == [
            params_blob(g) for _, g in sorted(want.best_bank.generators.items())
        ]
        messages = lambda log: [
            (r.iteration, r.direction, r.party_id, r.kind, r.shape, r.payload_hash)
            for r in log.records
        ]
        assert messages(got.state.log) == messages(want.state.log)
        assert len(got.state.log.records) == (30 * len(assignment) if topology == "vfl" else 0)


class TestDpWiring:
    def test_dp_off_equals_passthrough_mechanism_bitwise(self, sine_views):
        cfg_off = tiny_config(dp=None, max_iters=3)
        cfg_pass = tiny_config(dp=DpParams(np.inf, 0.0), max_iters=3)
        ra = fed.train(cfg_off, sine_views)
        rb = fed.train(cfg_pass, sine_views)
        assert ra.history == rb.history
        assert federation_blob(ra.state) == federation_blob(rb.state)

    def test_noise_touches_only_first_layers_of_protected_models(self, sine_views):
        cfg_noisy = tiny_config(dp=DpParams(1.0, 1.0))
        cfg_silent = tiny_config(dp=DpParams(1.0, 0.0))
        sa = fed.init_federation(cfg_noisy, sine_views)
        sb = fed.init_federation(cfg_silent, sine_views)
        batch = np.arange(6)
        fed.discriminator_phase(sa, batch)
        fed.discriminator_phase(sb, batch)
        ma, mb = all_models(sa), all_models(sb)
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

    def test_noise_streams_do_not_leak_into_training_randomness(self, sine_views):
        # same seed, different sigma: the subsampled batches and z draws
        # must coincide; checked via the message hashes of the REAL features
        cfg_a = tiny_config(dp=DpParams(1.0, 0.0), max_iters=1, log_payloads=True)
        cfg_b = tiny_config(dp=DpParams(1.0, 3.0), max_iters=1, log_payloads=True)
        ra = fed.train(cfg_a, sine_views)
        rb = fed.train(cfg_b, sine_views)
        real_feats_a = ra.state.log.records[0]
        real_feats_b = rb.state.log.records[0]
        assert real_feats_a.payload_hash == real_feats_b.payload_hash


class TestRawDataLocality:
    def test_no_message_matches_any_raw_slice(self, sine_views):
        cfg = tiny_config(log_payloads=True, max_iters=3)
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
        state = fed.init_federation(tiny_config(), sine_views)
        bank = fed.bank_from_state(state)
        a = fed.synthesize(bank, 7, seed=3)
        b = fed.synthesize(bank, 7, seed=3)
        assert a.data.shape == (7, 2, 12)
        assert a.data.tobytes() == b.data.tobytes()

    def test_single_sample_deterministic(self, sine_views):
        state = fed.init_federation(tiny_config(), sine_views)
        bank = fed.bank_from_state(state)
        a = fed.synthesize(bank, 1, seed=0)
        b = fed.synthesize(bank, 1, seed=0)
        np.testing.assert_array_equal(a.data, b.data)

    def test_attributes_land_at_original_indices(self):
        ds = data.gen_sine2(n_per_class=8, t_steps=12, seed=5)
        # swap the party order: party 0 holds attribute 1
        views = data.partition(ds, {0: [1], 1: [0]})
        state = fed.init_federation(tiny_config(), views)
        bank = fed.bank_from_state(state)
        synth = fed.synthesize(bank, 3, seed=1)
        g_for_attr0 = state.parties[1].generators[0]
        z = np.random.Generator(np.random.PCG64()).standard_normal  # unused; direct check below
        from fedtsgan.rng import stream

        z = stream(1, "synthesize").standard_normal((3, 3))
        np.testing.assert_array_equal(synth.data[:, 0, :], nn.forward(g_for_attr0, z).output)

    def test_meta_carried_for_amplitude_eval(self, sine_views):
        state = fed.init_federation(tiny_config(), sine_views)
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

    def test_batch_exceeding_dataset_rejected(self, sine_views):
        with pytest.raises(ValueError):
            fed.init_federation(tiny_config(batch_size=999), sine_views)
