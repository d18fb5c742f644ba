"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Run with `pytest -s tests/test_acceptance.py` to watch the
lines as they complete; several criteria train real models and take a few
minutes in total.
"""

import json
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from fedtsgan import accounting as acc
from fedtsgan import audit, cli, data, metrics, nn
from fedtsgan import federation as fed
from fedtsgan.dpmech import DpParams, clip_first_layer, first_layer_norm

from helpers import sensitivity_check
from test_accounting import oracle_amplified_eps, oracle_chain
from test_metrics import lp_transport_cost


@contextmanager
def criterion(number, name):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({name}): FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS ({time.time() - t0:.1f}s)")


# --------------------------------------------------------------------------
# criterion 1: gradient exactness through the composed federation path


def _random_federation(seed):
    rng = np.random.default_rng(seed)
    n_parties = int(rng.integers(1, 3))
    assignment, next_attr = {}, 0
    for p in range(n_parties):
        k = int(rng.integers(1, 3))
        assignment[p] = list(range(next_attr, next_attr + k))
        next_attr += k
    t_steps = int(rng.integers(4, 8))
    ds = data.TimeSeriesDataset(rng.standard_normal((10, next_attr, t_steps)))
    views = data.partition(ds, assignment)
    cfg = fed.TrainConfig(
        topology="vfl",
        latent_dim=int(rng.integers(2, 4)),
        batch_size=int(rng.integers(2, 5)),
        max_iters=1,
        checkpoint_every=1,
        eval_samples=4,
        seed=int(rng.integers(0, 2**31)),
        gen_hidden=(int(rng.integers(3, 6)),),
        disc_hidden=(int(rng.integers(3, 6)),),
        fe_hidden=(int(rng.integers(3, 6)),),
        feature_dim=int(rng.integers(2, 5)),
        shared_hidden=(int(rng.integers(3, 6)),),
    )
    stack = fed.init_stack(cfg, [(views, cfg.seed)])
    z = np.random.default_rng(seed + 1).standard_normal((cfg.batch_size, cfg.latent_dim))
    return stack, z


def _guards_ok(state, z, margin=1e-4):
    """Central differences at h=1e-6 need pre-activations clear of
    leaky-relu kinks and sigmoid outputs clear of the log clamp."""
    fakes = {}
    for p in state.views:
        for attr in p.attribute_indices:
            tr = nn.forward(state.models["G", p.party_id, attr], z)
            if min(np.abs(pre).min() for pre in tr.pre) < margin:
                return False
            fakes[(p.party_id, attr)] = tr.output
    feats = []
    for p in state.views:
        for attr in p.attribute_indices:
            tr = nn.forward(state.models["D", p.party_id, attr], fakes[(p.party_id, attr)])
            if min(np.abs(pre).min() for pre in tr.pre) < margin:
                return False
            if not ((tr.output > 1e-6) & (tr.output < 1 - 1e-6)).all():
                return False
        block = np.concatenate([fakes[(p.party_id, a)] for a in p.attribute_indices], axis=1)
        tr = nn.forward(state.models["FE", p.party_id], block)
        if min(np.abs(pre).min() for pre in tr.pre) < margin:
            return False
        feats.append(tr.output)
    tr = nn.forward(state.models["DS",], np.concatenate(feats, axis=1))
    if min(np.abs(pre).min() for pre in tr.pre) < margin:
        return False
    return ((tr.output > 1e-6) & (tr.output < 1 - 1e-6)).all()


def test_criterion_1_gradient_exactness():
    with criterion(1, "gradient exactness incl. composed generator path"):
        t0 = time.time()
        h = 1e-6
        checked, seed, worst = 0, 0, 0.0
        while checked < 100:
            seed += 1
            stack, z = _random_federation(seed)
            if not _guards_ok(stack.runs[0], z):
                continue
            step = fed.generator_step(stack, z[None])
            views = stack.runs[0].views
            p = views[seed % len(views)]
            j = seed % len(p.attribute_indices)
            attr = p.attribute_indices[j]
            gen, key = stack.models["G", p.party_id, attr], (p.party_id, attr)
            analytic, _ = nn.backward(gen, step["traces"][key], step["out_grads"][key])
            flat = np.concatenate(
                [g.ravel() for g in analytic.d_weights] + [g.ravel() for g in analytic.d_biases]
            )
            nonzero = np.abs(flat[flat != 0.0])
            if nonzero.size and nonzero.min() < 3e-5:
                continue  # below the float64 finite-difference noise floor

            loss_key = f"g_{p.party_id}_{attr}"
            for li, layer in enumerate(gen.layers):
                for param, grad in (
                    (layer.weight, analytic.d_weights[li]),
                    (layer.bias, analytic.d_biases[li]),
                ):
                    view, gview = param.ravel(), grad.ravel()
                    for idx in range(view.size):
                        orig = view[idx]
                        view[idx] = orig + h
                        plus = fed.generator_step(stack, z[None])["losses"][loss_key][0]
                        view[idx] = orig - h
                        minus = fed.generator_step(stack, z[None])["losses"][loss_key][0]
                        view[idx] = orig
                        numeric = (plus - minus) / (2 * h)
                        denom = max(abs(gview[idx]), abs(numeric), 1e-12)
                        worst = max(worst, abs(gview[idx] - numeric) / denom)
            checked += 1
        assert worst < 1e-5, f"worst relative error {worst}"
        assert time.time() - t0 < 60.0


# --------------------------------------------------------------------------
# criterion 2: DP mechanism


def test_criterion_2_dp_mechanism():
    with criterion(2, "clip bound, sensitivity, noise scale"):
        t0 = time.time()
        rng = np.random.default_rng(0)

        # post-clip norms never exceed C, exactly
        for _ in range(2000):
            dim = int(rng.integers(2, 40))
            vec = rng.standard_normal(dim) * 10 ** rng.uniform(-3, 3)
            g = nn.GradientSet([vec[:-1].reshape(1, -1)], [vec[-1:]])
            c = float(10 ** rng.uniform(-2, 2))
            assert first_layer_norm(clip_first_layer(g, c)) <= c

        # adjacency sensitivity over 100 adversarial mini-batch pairs
        def factory(trial):
            return nn.init_mlp(
                [10, 6, 1], ["leaky_relu", "sigmoid"], np.random.default_rng(trial)
            )

        def pairs(trial):
            gen = np.random.default_rng(5000 + trial)
            a = gen.standard_normal((6, 10))
            b = a.copy()
            b[gen.integers(0, 6)] = gen.standard_normal(10) * 50.0
            return a, b

        def grad_fn(model, batch):
            trace = nn.forward(model, batch)
            _, dlog = nn.clamped_log(trace.output)
            grads, _ = nn.backward(model, trace, -dlog / batch.shape[0])
            return grads

        c = 0.9
        worst = sensitivity_check(factory, pairs, grad_fn, c, 100)
        assert worst <= 2 * c + 1e-12

        # empirical noise std within 2% of 2*C*sigma over 1e5 draws
        from fedtsgan.dpmech import perturb_first_layer

        noise_rng = np.random.default_rng(7)
        c, sigma = 0.5, 1.5
        zero = nn.GradientSet([np.zeros((1, 199))], [np.zeros(1)])
        draws = np.concatenate(
            [perturb_first_layer(zero, c, sigma, noise_rng).first_layer_vector() for _ in range(500)]
        )
        assert draws.size == 100_000
        assert abs(draws.std() - 2 * c * sigma) <= 0.02 * (2 * c * sigma)
        assert time.time() - t0 < 60.0


# --------------------------------------------------------------------------
# criterion 3: accountant vs high-precision oracle + monotonicity


def test_criterion_3_accountant_oracle_equivalence():
    with criterion(3, "log-space accountant matches 256-bit oracle"):
        t0 = time.time()
        alphas = tuple(range(2, 65))
        sigmas, gammas, steps_grid = (0.8, 1.0, 2.0, 4.0), (0.005, 0.01, 0.05), (1, 100, 2000)

        for gen_mode in (False, True):
            for sigma in sigmas:
                for gamma in gammas:
                    curve = acc.subsample_amplify(sigma, gamma, alphas, gen_mode)
                    for alpha, got in zip(curve.alphas, curve.eps):
                        want = float(oracle_amplified_eps(alpha, sigma, gamma, gen_mode))
                        assert abs(got - want) <= 1e-9 * abs(want), (sigma, gamma, alpha)
                    for steps in steps_grid:
                        got_eps, _ = acc.to_dp(acc.compose(curve, steps), 1e-5)
                        want_eps = float(
                            oracle_chain(sigma, gamma, steps, 1e-5, alphas, gen_mode)
                        )
                        assert abs(got_eps - want_eps) <= 1e-9 * abs(want_eps)

        # monotonicity at every grid point
        table = {
            (s, g, t): acc.spent_epsilon(s, g, t, 1e-5, alphas)[0]
            for s in sigmas
            for g in gammas
            for t in steps_grid
        }
        for g in gammas:
            for t in steps_grid:
                for s1, s2 in zip(sigmas, sigmas[1:]):
                    assert table[(s1, g, t)] >= table[(s2, g, t)]
        for s in sigmas:
            for g in gammas:
                for t1, t2 in zip(steps_grid, steps_grid[1:]):
                    assert table[(s, g, t1)] <= table[(s, g, t2)]
            for t in steps_grid:
                for g1, g2 in zip(gammas, gammas[1:]):
                    assert table[(s, g1, t)] <= table[(s, g2, t)]
        assert time.time() - t0 < 60.0


# --------------------------------------------------------------------------
# criterion 4: calibration round trip


def test_criterion_4_calibration_round_trip():
    with criterion(4, "budget (10, 1e-3) calibration round trip"):
        target, delta, gamma, steps = 10.0, 1e-3, 0.05, 2000
        sigma, _, achieved = acc.calibrate(target, delta, gamma, steps)
        redone, _ = acc.spent_epsilon(sigma, gamma, steps, delta)
        assert redone == pytest.approx(achieved, rel=1e-12)
        assert 9.5 <= achieved <= 10.0

        lo, hi = 0.01, 64.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if acc.spent_epsilon(mid, gamma, steps, delta)[0] <= target:
                hi = mid
            else:
                lo = mid
        assert abs(sigma - hi) <= 0.01 + 1e-9


# --------------------------------------------------------------------------
# criterion 5: Wasserstein correctness


def test_criterion_5_wasserstein_correctness():
    with criterion(5, "wd_1d vs LP oracle and metric properties"):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            n, m = rng.integers(1, 9, size=2)
            u = rng.standard_normal(n)
            v = rng.standard_normal(m)
            if trial % 3 == 0:
                u, v = np.round(u, 1), np.round(v, 1)
            assert abs(metrics.wd_1d(u, v) - lp_transport_cost(u, v)) < 1e-12

        for _ in range(200):
            nu, nv, nw = rng.integers(1, 10, size=3)
            u, v, w = rng.standard_normal(nu), rng.standard_normal(nv), rng.standard_normal(nw)
            c = float(rng.uniform(-5, 5))
            duv, dvw, duw = metrics.wd_1d(u, v), metrics.wd_1d(v, w), metrics.wd_1d(u, w)
            assert duv >= 0.0
            assert duv == pytest.approx(metrics.wd_1d(v, u), abs=1e-12)
            assert duw <= duv + dvw + 1e-9
            assert metrics.wd_1d(u + c, v + c) == pytest.approx(duv, abs=1e-9)
            assert metrics.wd_1d(c * u, c * v) == pytest.approx(abs(c) * duv, abs=1e-9)


# --------------------------------------------------------------------------
# criterion 6: desk-scale sine reproduction of the qualitative ordering


def _ratio_stats(bank, freqs, n=512, seed=99):
    synth = fed.synthesize(bank, n, seed)
    amps = metrics.estimate_amplitudes(synth, freqs)
    ratio = amps[:, 0] / amps[:, 1]
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    return med, q3 - q1


@pytest.mark.slow
def test_criterion_6_desk_scale_sine_ordering():
    with criterion(6, "sine desk runs: convergence + cross-party coupling"):
        ds = data.gen_sine2(n_per_class=512, t_steps=100, seed=7)
        views = data.partition(ds, {0: [0], 1: [1]})
        freqs = ds.frequencies()
        iqr_wider = 0
        for seed in (32, 33, 34):
            t0 = time.time()
            res_v = fed.train(
                fed.TrainConfig(topology="vfl", max_iters=4000, checkpoint_every=100, seed=seed),
                views,
            )
            assert time.time() - t0 < 600.0
            assert not res_v.diverged
            init_awd = res_v.history[0]["awd"]
            assert res_v.best_awd <= 0.5 * init_awd, (seed, res_v.best_awd, init_awd)

            med_v, iqr_v = _ratio_stats(res_v.best_bank, freqs)
            assert 0.8 <= med_v <= 1.25, (seed, med_v)

            # per-time-step distance also drops from init to best checkpoint
            init_cfg = fed.TrainConfig(topology="vfl", seed=seed)
            init_bank = fed.bank_from_state(fed.init_stack(init_cfg, [(views, seed)]).runs[0])
            awd_init = metrics.awd(ds, fed.synthesize(init_bank, 512, 99))
            awd_best = metrics.awd(ds, fed.synthesize(res_v.best_bank, 512, 99))
            assert awd_best < awd_init

            t0 = time.time()
            res_l = fed.train(
                fed.TrainConfig(topology="local_only", max_iters=4000, checkpoint_every=100, seed=seed),
                views,
            )
            assert time.time() - t0 < 600.0
            _, iqr_l = _ratio_stats(res_l.best_bank, freqs)
            if iqr_l > iqr_v:
                iqr_wider += 1
        assert iqr_wider >= 2, f"local_only IQR wider in only {iqr_wider}/3 seeds"


# --------------------------------------------------------------------------
# criterion 7: audit controls


OVERFIT_DATASET_KW = dict(n_per_class=8, t_steps=50, seed=21)  # N = 16
OVERFIT_TRAIN = dict(
    topology="vfl",
    max_iters=2000,
    batch_size=8,
    checkpoint_every=200,
    eval_samples=16,
    seed=0,
    gen_hidden=(64, 64),
    disc_hidden=(64, 32),
    fe_hidden=(64,),
    feature_dim=16,
    shared_hidden=(64,),
)


def test_criterion_7a_rigged_copier_fully_leaks():
    with criterion("7a", "copy-generator: AUC 1.0, LOO win rate > 0.9"):
        ds = data.gen_sine2(n_per_class=8, t_steps=20, seed=2)
        target = audit.select_target_outlier(ds)
        copier = lambda jobs: [dataset for dataset, _ in jobs]
        cfg = audit.AuditConfig(shadow_pairs=10, knn_k=5, seed=1)
        report = audit.run_assd(ds, target, copier, cfg)
        assert report.auc == 1.0
        adversary = audit.threshold_adversary(report, ds, cfg)
        rate = audit.loo_game(ds, target, copier, adversary, rounds=100, seed=3)
        assert rate > 0.9


@pytest.mark.slow
def test_criterion_7b_identical_worlds_null():
    with criterion("7b", "identical-worlds null AUC in 0.5 +/- 0.15"):
        ds = data.gen_sine2(**OVERFIT_DATASET_KW)
        short = dict(OVERFIT_TRAIN, max_iters=150, checkpoint_every=50)
        trainer = fed.shadow_trainer(fed.TrainConfig(**short), {0: [0], 1: [1]}, n_synth=64)
        report = audit.run_assd_worlds(
            ds, ds, ds, 0, trainer, audit.AuditConfig(shadow_pairs=10, knn_k=3, seed=23)
        )
        assert abs(report.auc - 0.5) <= 0.15, report.auc


@pytest.mark.slow
def test_criterion_7cd_overfit_and_dp_direction():
    with criterion("7c+7d", "overfit control AUC >= 0.6; DP reduces it"):
        ds = data.gen_sine2(**OVERFIT_DATASET_KW)
        target = audit.select_target_outlier(ds)

        report = audit.run_assd(
            ds,
            target,
            fed.shadow_trainer(fed.TrainConfig(**OVERFIT_TRAIN), {0: [0], 1: [1]}, n_synth=64),
            audit.AuditConfig(shadow_pairs=10, knn_k=3, seed=5),
        )
        assert report.auc >= 0.6, report.auc

        # budget from the run's own sampling rate and iteration count
        gamma = OVERFIT_TRAIN["batch_size"] / ds.n_samples
        sigma, _, achieved = acc.calibrate(10.0, 1e-3, gamma, OVERFIT_TRAIN["max_iters"])
        assert achieved <= 10.0
        dp_trainer = fed.shadow_trainer(
            fed.TrainConfig(**OVERFIT_TRAIN, dp=DpParams(1.0, sigma)), {0: [0], 1: [1]}, n_synth=64
        )
        lower = 0
        for audit_seed in (5, 6, 7):
            rep_dp = audit.run_assd(
                ds, target, dp_trainer, audit.AuditConfig(shadow_pairs=10, knn_k=3, seed=audit_seed)
            )
            if rep_dp.auc < report.auc:
                lower += 1
        assert lower >= 2, f"DP lowered AUC in only {lower}/3 repetitions"


# --------------------------------------------------------------------------
# criterion 8: metric table arithmetic


def test_criterion_8_tpd_table_arithmetic():
    with criterion(8, "TPD absolute-difference convention"):
        value = metrics.tpd_from_performances(0.050, 0.048, 0.050, 0.050)
        assert abs(value - 0.002) < 1e-15


# --------------------------------------------------------------------------
# criterion 9: determinism


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "bit-identical reruns; DP-off == passthrough DP"):
        out = (tmp_path / "run").as_posix()
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            f"""
[dataset]
kind = sine2
n_per_class = 16
t_steps = 12
seed = 5

[partition]
party_0 = 0
party_1 = 1

[train]
topology = vfl
latent_dim = 3
batch_size = 6
max_iters = 5
checkpoint_every = 2
eval_samples = 8
seed = 11
gen_hidden = 6,5
disc_hidden = 6,4
fe_hidden = 5
feature_dim = 4
shared_hidden = 6

[output]
dir = {out}
"""
        )
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "run" / "history.csv").read_bytes()
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "run" / "history.csv").read_bytes() == first

        ds = data.gen_sine2(n_per_class=16, t_steps=12, seed=5)
        views = data.partition(ds, {0: [0], 1: [1]})
        kw = dict(
            latent_dim=3, batch_size=6, max_iters=5, checkpoint_every=2, eval_samples=8,
            seed=11, gen_hidden=(6, 5), disc_hidden=(6, 4), fe_hidden=(5,),
            feature_dim=4, shared_hidden=(6,),
        )
        res_off = fed.train(fed.TrainConfig(**kw, dp=None), views)
        res_pass = fed.train(fed.TrainConfig(**kw, dp=DpParams(np.inf, 0.0)), views)
        assert res_off.history == res_pass.history
        for a, b in zip(
            sorted(res_off.best_bank.generators.items()),
            sorted(res_pass.best_bank.generators.items()),
        ):
            for la, lb in zip(a[1].layers, b[1].layers):
                assert la.weight.tobytes() == lb.weight.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()
