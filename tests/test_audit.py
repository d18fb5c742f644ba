import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtsgan import audit, data
from fedtsgan import federation as fed
from fedtsgan.rng import child_seed


def toy_dataset(values, t_steps=4):
    """Scalar-series dataset: one attribute, constant value per sample."""
    arr = np.repeat(np.asarray(values, dtype=float)[:, None, None], t_steps, axis=2)
    return data.TimeSeriesDataset(arr)


def copier(jobs):
    """Rigged trainer: each release is its job's training set verbatim."""
    return [dataset for dataset, _ in jobs]


def min_nn_distance(x, pool, norm=2):
    """Distance from x to its nearest neighbour in the pool (flat vectors)."""
    pool = np.atleast_2d(pool)
    if pool.shape[0] == 0:
        raise ValueError("pool must be non-empty")
    return float(audit._distances(np.asarray(x, dtype=np.float64).ravel(), pool, norm).min())


def isolation_by_rows(flat, norm):
    """The per-row loop that the blocked isolation replaced."""
    out = np.empty(flat.shape[0])
    for i in range(flat.shape[0]):
        diff = flat - flat[i][None, :]
        d = np.abs(diff).sum(axis=1) if norm == 1 else np.sqrt((diff * diff).sum(axis=1))
        d[i] = np.inf
        out[i] = d.min()
    return out


class TestMinNnDistance:
    def test_internal_point_gives_zero(self):
        pool = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert min_nn_distance(pool[0], pool) == 0.0

    def test_scalar_series(self):
        assert min_nn_distance(np.array([5.0]), np.array([[0.0], [0.1]])) == pytest.approx(4.9)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            min_nn_distance(np.zeros(2), np.zeros((0, 2)))

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            x = rng.standard_normal(6)
            pool = rng.standard_normal((20, 6))
            for norm in (1, 2):
                want = min(np.linalg.norm(x - p, ord=norm) for p in pool)
                assert min_nn_distance(x, pool, norm) == pytest.approx(want, rel=1e-12)


class TestOutlierSelector:
    def test_toy_outlier(self):
        ds = toy_dataset([0.0, 0.1, 5.0])
        assert audit.select_target_outlier(ds) == 2

    def test_permutation_invariance(self, rng):
        ds = data.gen_sine2(n_per_class=12, t_steps=10, seed=3)
        chosen = audit.select_target_outlier(ds)
        perm = rng.permutation(ds.n_samples)
        shuffled = data.TimeSeriesDataset(ds.data[perm], meta=dict(ds.meta))
        chosen_shuffled = audit.select_target_outlier(shuffled)
        np.testing.assert_array_equal(ds.data[chosen], shuffled.data[chosen_shuffled])

    def test_translation_invariance(self):
        ds = data.gen_sine2(n_per_class=12, t_steps=10, seed=3)
        shifted = data.TimeSeriesDataset(ds.data + 7.5, meta=dict(ds.meta))
        assert audit.select_target_outlier(ds) == audit.select_target_outlier(shifted)

    def test_matches_brute_force(self, rng, monkeypatch):
        for trial in range(10):
            n = int(rng.integers(3, 40))
            ds = data.TimeSeriesDataset(rng.standard_normal((n, 2, 5)))
            stats = audit.attribute_stats(ds)
            flat = audit.normalized_flat(ds.data, stats)
            iso = [
                min(np.linalg.norm(flat[i] - flat[j]) for j in range(n) if j != i)
                for i in range(n)
            ]
            assert audit.select_target_outlier(ds) == int(np.argmax(iso))
            for norm in (1, 2):
                assert np.array_equal(audit._isolation(flat, norm), isolation_by_rows(flat, norm))

        # tied distances, and blocks of a few rows each
        monkeypatch.setattr(audit, "BLOCK_FLOATS", 7 * 4)
        ties = np.repeat(rng.integers(0, 3, size=(9, 1)).astype(float), 4, axis=1)
        ties = np.concatenate([ties, ties[:3] + 1e-300, rng.standard_normal((5, 4))])
        for norm in (1, 2):
            assert np.array_equal(audit._isolation(ties, norm), isolation_by_rows(ties, norm))
        ds = data.TimeSeriesDataset(ties.reshape(-1, 1, 4))
        flat = audit.normalized_flat(ds.data, audit.attribute_stats(ds))
        assert audit.select_target_outlier(ds) == int(np.argmax(isolation_by_rows(flat, 2)))


class TestInfluentialSelector:
    def test_m_1_reduces_to_outlier(self):
        ds = toy_dataset([0.0, 0.1, 5.0, 0.2])
        got = audit.select_target_influential(ds, copier, audit.AuditConfig(candidate_m=1, knn_k=1))
        assert got == audit.select_target_outlier(ds)

    def test_zero_distance_domination(self):
        # release == real set: every candidate has an exact duplicate, and
        # the summed k-distances are the candidate's own neighbourhood
        ds = toy_dataset([0.0, 1.0, 3.0, 10.0])
        got = audit.select_target_influential(ds, copier, audit.AuditConfig(candidate_m=2, knn_k=2))
        # candidates by isolation: 10.0 (idx 3), 3.0 (idx 2); k=2 feature is
        # 0 + distance to nearest other synthetic sample: idx2 -> 2.0, idx3 -> 7.0
        assert got == 2

    def test_matches_brute_force_against_frozen_release(self, rng):
        ds = data.TimeSeriesDataset(rng.standard_normal((24, 1, 6)))
        frozen = data.TimeSeriesDataset(rng.standard_normal((40, 1, 6)))
        m, k = 6, 3
        cfg = audit.AuditConfig(candidate_m=m, knn_k=k)
        got = audit.select_target_influential(ds, lambda jobs: [frozen for _ in jobs], cfg)

        stats = audit.attribute_stats(ds)
        flat = audit.normalized_flat(ds.data, stats)
        sflat = audit.normalized_flat(frozen.data, stats)
        iso = [
            min(np.linalg.norm(flat[i] - flat[j]) for j in range(24) if j != i)
            for i in range(24)
        ]
        cands = np.argsort(-np.asarray(iso), kind="stable")[:m]
        feats = []
        for c in cands:
            d = np.sort([np.linalg.norm(flat[c] - s) for s in sflat])
            feats.append(d[:k].sum())
        assert got == int(cands[int(np.argmin(feats))])


class TestKnnFeature:
    def test_hand_value(self):
        target = np.array([0.0])
        synth = np.array([[1.0], [2.0], [3.0]])
        assert audit.knn_feature(target, synth, k=2) == pytest.approx(3.0)

    def test_k_equals_pool_size_sums_all(self):
        target = np.array([0.0])
        synth = np.array([[1.0], [2.0]])
        assert audit.knn_feature(target, synth, k=2) == pytest.approx(3.0)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            audit.knn_feature(np.zeros(1), np.zeros((2, 1)), k=3)

    def test_monotone_under_pool_growth(self, rng):
        target = rng.standard_normal(4)
        synth = rng.standard_normal((10, 4))
        base = audit.knn_feature(target, synth, k=3)
        grown = np.vstack([synth, rng.standard_normal(4)])
        assert audit.knn_feature(target, grown, k=3) <= base + 1e-15

    def test_zero_iff_k_exact_copies(self):
        target = np.array([1.0, 2.0])
        synth = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        assert audit.knn_feature(target, synth, k=2) == 0.0
        assert audit.knn_feature(target, synth, k=3) > 0.0


class TestAucRoc:
    def test_perfect_separation(self):
        assert audit.auc_roc([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_identical_lists(self):
        assert audit.auc_roc([1.0, 2.0], [1.0, 2.0]) == 0.5

    def test_interleaved_half(self):
        assert audit.auc_roc([0.1, 0.9], [0.2, 0.8]) == 0.5

    def test_orientation_flip(self):
        assert audit.auc_roc([0.8, 0.9], [0.1, 0.2], larger_means_present=False) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            audit.auc_roc([], [1.0])

    # values quantized to 1e-3 so the float maps stay strictly monotone
    quantized = st.lists(
        st.integers(-10_000, 10_000).map(lambda k: k / 1000.0), min_size=1, max_size=10
    )

    @given(quantized, quantized, st.sampled_from(["exp", "cube", "affine"]))
    @settings(max_examples=150, deadline=None)
    def test_monotone_transform_invariance(self, s0, s1, kind):
        f = {
            "exp": np.exp,
            "cube": lambda x: np.asarray(x) ** 3,
            "affine": lambda x: 3.0 * np.asarray(x) + 1.0,
        }[kind]
        base = audit.auc_roc(s0, s1)
        mapped = audit.auc_roc(f(np.array(s0)), f(np.array(s1)))
        assert mapped == pytest.approx(base, abs=1e-12)


class TestRunAssd:
    def test_copying_generator_fully_leaks(self):
        ds = data.gen_sine2(n_per_class=8, t_steps=10, seed=2)
        target = audit.select_target_outlier(ds)
        report = audit.run_assd(ds, target, copier, audit.AuditConfig(shadow_pairs=5, knn_k=3))
        assert report.auc == 1.0

    def test_constant_feature_extractor_is_null(self):
        ds = data.gen_sine2(n_per_class=8, t_steps=10, seed=2)
        report = audit.run_assd(
            ds,
            0,
            copier,
            audit.AuditConfig(shadow_pairs=5, knn_k=3),
        )
        # overwrite with a constant scoring rule: all ties -> 0.5
        assert audit.auc_roc([1.0] * 5, [1.0] * 5, larger_means_present=False) == 0.5

    def test_identical_worlds_concentrate_at_half(self):
        # duplicate-target construction: both worlds train on equal data, so
        # the AUC distribution is the rank-statistic null; average over
        # audit seeds to shrink the 10v10 sampling noise (sigma ~ 0.13)
        ds = data.gen_sine2(n_per_class=8, t_steps=10, seed=4)

        def jittered_copier(jobs):
            return [
                data.TimeSeriesDataset(
                    dataset.data
                    + 0.01 * np.random.default_rng(seed).standard_normal(dataset.data.shape),
                    meta=dict(dataset.meta),
                )
                for dataset, seed in jobs
            ]

        aucs = [
            audit.run_assd_worlds(
                ds, ds, ds, 0, jittered_copier, audit.AuditConfig(shadow_pairs=10, seed=s)
            ).auc
            for s in range(10)
        ]
        assert abs(np.mean(aucs) - 0.5) <= 0.12

    def test_diverged_runs_tolerated_then_fatal(self):
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=1)

        calls = {"n": 0}

        def flaky(jobs):
            releases = []
            for dataset, _ in jobs:
                calls["n"] += 1
                releases.append(None if calls["n"] % 2 == 0 else dataset)
            return releases

        report = audit.run_assd(ds, 0, flaky, audit.AuditConfig(shadow_pairs=4, knn_k=2))
        assert report.invalid_runs == 4

        def dead(jobs):
            return [None for _ in jobs]

        with pytest.raises(RuntimeError):
            audit.run_assd(ds, 0, dead, audit.AuditConfig(shadow_pairs=4, knn_k=2))

    def test_a_trainer_one_release_short_is_rejected(self):
        # the last shadow of world 1 goes missing: without the length check
        # its world would still hold enough features to score
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=1)
        short = lambda jobs: copier(jobs)[:-1]
        with pytest.raises(ValueError, match="shorter"):
            audit.run_assd(ds, 0, short, audit.AuditConfig(shadow_pairs=3, knn_k=2))
        with pytest.raises(ValueError, match="shorter"):
            audit.loo_game(ds, 0, short, lambda synth, target: 1, rounds=5, seed=7)

    def test_stacked_shadow_runs_match_one_at_a_time(self):
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=1)
        cfg = fed.TrainConfig(
            latent_dim=3, batch_size=4, max_iters=4, checkpoint_every=2, eval_samples=8,
            gen_hidden=(6,), disc_hidden=(5,), fe_hidden=(5,), feature_dim=3, shared_hidden=(4,),
        )
        trainer = fed.shadow_trainer(cfg, {0: [0], 1: [1]}, n_synth=6)
        seen = []

        def recording(jobs):
            seen.append([(d.n_samples, s) for d, s in jobs])
            return trainer(jobs)

        per_job = lambda jobs: [trainer([job])[0] for job in jobs]
        audit_cfg = audit.AuditConfig(shadow_pairs=3, knn_k=2, seed=4)
        got = audit.run_assd(ds, 5, recording, audit_cfg)
        want = audit.run_assd(ds, 5, per_job, audit_cfg)
        assert seen == [
            [(7 + world, child_seed(4, "shadow", world, m)) for world in (0, 1) for m in range(3)]
        ]
        assert (got.features_world0, got.features_world1, got.auc, got.invalid_runs) == (
            want.features_world0,
            want.features_world1,
            want.auc,
            want.invalid_runs,
        )

        adversary = audit.threshold_adversary(got, ds, audit_cfg)
        rates = [audit.loo_game(ds, 5, t, adversary, rounds=6, seed=2) for t in (trainer, per_job)]
        assert rates[0] == rates[1]


class TestLooGame:
    def test_coin_flipping_adversary_near_half(self):
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=1)
        rng = np.random.default_rng(99)

        def coin_flipper(synth, target):
            return int(rng.integers(0, 2))

        rate = audit.loo_game(ds, 0, copier, coin_flipper, rounds=400, seed=7)
        assert abs(rate - 0.5) <= 3 * 0.5 / np.sqrt(400)

    def test_oracle_adversary_wins_always(self):
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=1)
        coins = audit.loo_coins(7, 50)
        state = {"i": 0}

        def oracle(synth, target):
            b = coins[state["i"]]
            state["i"] += 1
            return int(b)

        assert audit.loo_game(ds, 0, copier, oracle, rounds=50, seed=7) == 1.0

    def test_copying_generator_with_threshold_adversary(self):
        ds = data.gen_sine2(n_per_class=8, t_steps=10, seed=2)
        target = audit.select_target_outlier(ds)
        cfg = audit.AuditConfig(shadow_pairs=5, knn_k=3)
        report = audit.run_assd(ds, target, copier, cfg)
        adversary = audit.threshold_adversary(report, ds, cfg)
        rate = audit.loo_game(ds, target, copier, adversary, rounds=100, seed=11)
        assert rate > 0.9


class TestNormalization:
    def test_scale_dominance_removed(self):
        # one attribute 1000x larger: without z-scoring it would decide alone
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((10, 2, 6))
        arr[:, 1, :] *= 1000.0
        ds = data.TimeSeriesDataset(arr)
        stats = audit.attribute_stats(ds)
        flat = audit.normalized_flat(ds.data, stats)
        per_attr = flat.reshape(10, 2, 6)
        assert np.isclose(per_attr[:, 0].std(), per_attr[:, 1].std(), rtol=0.01)

    def test_single_sample_normalization(self):
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=0)
        stats = audit.attribute_stats(ds)
        single = audit.normalized_flat(ds.data[0], stats)
        batch = audit.normalized_flat(ds.data, stats)
        np.testing.assert_array_equal(single, batch[0])
