import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fedtsgan import data, metrics


def lp_transport_cost(u, v):
    """Exact minimum-cost transport between uniform empirical measures."""
    n, m = len(u), len(v)
    cost = np.abs(np.subtract.outer(u, v)).ravel()
    a_eq, b_eq = [], []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / n)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / m)
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
samples = st.lists(finite_floats, min_size=1, max_size=12)


class TestWd1d:
    def test_equal_sets_zero(self):
        assert metrics.wd_1d([1, 2, 3], [1, 2, 3]) == 0.0

    def test_point_masses(self):
        assert metrics.wd_1d([0.0], [5.0]) == pytest.approx(5.0)

    def test_quantile_average(self):
        assert metrics.wd_1d([0.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.wd_1d([], [1.0])

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(300):
            n, m = rng.integers(1, 9, size=2)
            u = rng.standard_normal(n)
            v = rng.standard_normal(m)
            if trial % 3 == 0:
                u, v = np.round(u, 1), np.round(v, 1)
            assert abs(metrics.wd_1d(u, v) - lp_transport_cost(u, v)) < 1e-12

    @given(samples, samples)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_nonnegativity(self, u, v):
        d = metrics.wd_1d(u, v)
        assert d >= 0.0
        assert d == pytest.approx(metrics.wd_1d(v, u), abs=1e-12)

    @given(samples, samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, u, v, w):
        duv = metrics.wd_1d(u, v)
        dvw = metrics.wd_1d(v, w)
        duw = metrics.wd_1d(u, w)
        assert duw <= duv + dvw + 1e-9

    @given(samples, samples, finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, u, v, c):
        u, v = np.asarray(u), np.asarray(v)
        assert metrics.wd_1d(u + c, v + c) == pytest.approx(metrics.wd_1d(u, v), abs=1e-9)

    @given(samples, samples, st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance(self, u, v, c):
        u, v = np.asarray(u), np.asarray(v)
        assert metrics.wd_1d(c * u, c * v) == pytest.approx(
            abs(c) * metrics.wd_1d(u, v), abs=1e-9
        )


class TestAwd:
    def test_self_distance_zero(self):
        ds = data.gen_sine2(n_per_class=8, t_steps=12, seed=0)
        assert metrics.awd(ds, ds) == 0.0

    def test_constant_shift(self):
        ds = data.gen_sine2(n_per_class=8, t_steps=12, seed=0)
        shifted = data.TimeSeriesDataset(ds.data + 0.25, ds.labels, meta=dict(ds.meta))
        assert metrics.awd(ds, shifted) == pytest.approx(0.25, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        a = data.gen_sine2(n_per_class=4, t_steps=8, seed=0)
        b = data.gen_sine6(n_per_class=4, t_steps=8, seed=0)
        with pytest.raises(Exception):
            metrics.awd(a, b)

    def test_sample_counts_may_differ(self):
        a = data.gen_sine2(n_per_class=8, t_steps=8, seed=0)
        b = data.gen_sine2(n_per_class=5, t_steps=8, seed=1)
        assert metrics.awd(a, b) >= 0.0

    def test_breakdown_shape(self):
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=0)
        value, cells = metrics.awd_breakdown(ds, ds)
        assert cells.shape == (2, 8)
        assert value == cells.mean()


class TestAmplitudeEstimation:
    def test_exact_on_whole_cycles(self):
        t = np.arange(800)
        x = np.sin(2 * np.pi * 0.01 * t)[None, None, :]
        ds = data.TimeSeriesDataset(x, meta={"frequencies": [0.01]})
        amps = metrics.estimate_amplitudes(ds)
        assert amps[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_signal(self):
        ds = data.TimeSeriesDataset(np.zeros((2, 1, 100)), meta={"frequencies": [0.01]})
        assert not metrics.estimate_amplitudes(ds).any()

    def test_noisy_estimate_within_sampling_error(self):
        n, t_steps, sigma_eps, amp = 2000, 800, 0.05, 0.6
        rng = np.random.default_rng(7)
        t = np.arange(t_steps)
        x = amp * np.sin(2 * np.pi * 0.01 * t) + rng.normal(0, sigma_eps, (n, t_steps))
        ds = data.TimeSeriesDataset(x[:, None, :], meta={"frequencies": [0.01]})
        amps = metrics.estimate_amplitudes(ds)[:, 0]
        # estimator std = sigma_eps * sqrt(2/T)
        est_std = sigma_eps * np.sqrt(2.0 / t_steps)
        assert abs(amps.mean() - amp) < 3 * est_std / np.sqrt(n)
        assert amps.std() == pytest.approx(est_std, rel=0.1)

    def test_missing_frequencies_rejected(self):
        ds = data.TimeSeriesDataset(np.zeros((2, 1, 10)))
        with pytest.raises(ValueError):
            metrics.estimate_amplitudes(ds)


class TestAmplitudeAwd:
    def test_self_zero(self):
        ds = data.gen_sine2(n_per_class=16, t_steps=100, seed=0)
        assert metrics.amplitude_awd(ds, ds) == 0.0

    def test_translation_sums_over_attributes(self):
        ds = data.gen_sine2(n_per_class=16, t_steps=800, seed=0, noise_std=0.0)
        amps = metrics.estimate_amplitudes(ds)
        t = np.arange(800)
        freqs = np.asarray(data.SINE2_FREQUENCIES)
        carrier = np.sin(2 * np.pi * freqs[:, None] * t[None, :])
        shifted = data.TimeSeriesDataset(
            (amps + 0.1)[:, :, None] * carrier[None, :, :], meta=dict(ds.meta)
        )
        assert metrics.amplitude_awd(ds, shifted) == pytest.approx(0.2, abs=1e-9)


class TestAmplitudeRatio:
    def test_quartiles_of_the_known_ratios_on_whole_cycles(self):
        # noiseless carriers with f * T whole cycles: the matched filter
        # reads each amplitude exactly
        rng = np.random.default_rng(3)
        freqs, t = np.array([0.01, 0.03]), np.arange(100)
        amps = rng.uniform(0.5, 1.5, size=(41, 2))
        carrier = np.sin(2 * np.pi * freqs[:, None] * t[None, :])
        ds = data.TimeSeriesDataset(amps[:, :, None] * carrier[None, :, :])
        q1, median, q3 = np.percentile(amps[:, 0] / amps[:, 1], [25, 50, 75])
        got = metrics.amplitude_ratio(ds, freqs)
        assert got == pytest.approx((median, q3 - q1), abs=1e-12)


class TestSineMae:
    def test_noiseless_self_reconstruction(self):
        ds = data.gen_sine2(n_per_class=8, t_steps=800, seed=0, noise_std=0.0)
        assert metrics.sine_mae(ds) < 1e-12

    def test_noise_floor_matches_folded_normal_mean(self):
        # E|N(0, 0.05)| = 0.05 * sqrt(2/pi) ~ 0.0399
        ds = data.gen_sine2(n_per_class=512, t_steps=800, seed=1)
        expected = 0.05 * np.sqrt(2.0 / np.pi)
        assert metrics.sine_mae(ds) == pytest.approx(expected, rel=0.02)


class TestTpd:
    def test_table_arithmetic(self):
        # published reference row: 0.050 / 0.048 / 0.050 / 0.050 -> 0.002
        assert metrics.tpd_from_performances(0.050, 0.048, 0.050, 0.050) == pytest.approx(0.002)

    def test_identity_control_is_exactly_zero(self):
        ds = data.gen_sine2(n_per_class=12, t_steps=16, seed=3)
        n_test = ds.n_samples // 4
        real_train = ds.take(slice(0, ds.n_samples - n_test))
        real_test = ds.take(slice(ds.n_samples - n_test, None))
        value, _ = metrics.tpd(real_train, real_test, ds, "forecast", seed=0, steps=30)
        assert value == 0.0
        value_c, _ = metrics.tpd(real_train, real_test, ds, "classify", seed=0, steps=30)
        assert value_c == 0.0

    def test_label_shuffled_classify_degrades(self):
        ds = data.gen_sine2(n_per_class=48, t_steps=24, seed=5)
        # class-balanced split: the generator orders samples by class
        test_mask = np.arange(ds.n_samples) % 4 == 0
        real_train = ds.take(~test_mask)
        real_test = ds.take(test_mask)
        rng = np.random.default_rng(0)
        shuffled = data.TimeSeriesDataset(
            ds.data, rng.permutation(ds.labels), meta=dict(ds.meta)
        )
        value, breakdown = metrics.tpd(
            real_train, real_test, shuffled, "classify", seed=0, steps=150
        )
        assert abs(breakdown["TSTR"] - 0.5) < 0.25  # near chance for 2 classes
        assert value > 0.3
        assert breakdown["TRTR"] > 0.8  # sanity: the task itself is learnable

    def test_missing_labels_rejected(self):
        ds = data.TimeSeriesDataset(np.random.default_rng(0).standard_normal((8, 1, 6)))
        with pytest.raises(ValueError, match="label"):
            metrics.tpd(ds, ds, ds, "classify")

    def test_unknown_task_rejected(self):
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=0)
        with pytest.raises(ValueError):
            metrics.tpd(ds, ds, ds, "regress")


class TestPca:
    def test_axis_aligned_anisotropic(self):
        # symmetric point set: sample covariance is exactly diagonal
        pts = np.array(
            [[10, 0, 0], [-10, 0, 0], [0, 2, 0], [0, -2, 0], [0, 0, 0.1], [0, 0, -0.1]]
        )
        proj = metrics.pca_2d([data.TimeSeriesDataset(pts.reshape(6, 1, 3))])
        np.testing.assert_allclose(np.abs(proj.components[0]), [1, 0, 0], atol=1e-9)
        np.testing.assert_allclose(np.abs(proj.components[1]), [0, 1, 0], atol=1e-9)
        assert not proj.degenerate

    def test_preserves_distances_in_2d_subspace(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0].T  # (2, 6)
        coeffs = rng.standard_normal((40, 2)) * [3.0, 1.0]
        x = (coeffs @ basis).reshape(40, 1, 6)
        proj = metrics.pca_2d([data.TimeSeriesDataset(x)])
        d_orig = np.linalg.norm(x.reshape(40, -1)[:, None] - x.reshape(40, -1)[None], axis=2)
        c = proj.coords[0]
        d_proj = np.linalg.norm(c[:, None] - c[None], axis=2)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-8)

    def test_explained_variance_matches_dense_eigensolver(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((60, 1, 9)) * rng.uniform(0.5, 4.0, 9)
        proj = metrics.pca_2d([data.TimeSeriesDataset(x)])
        flat = x.reshape(60, -1)
        centered = flat - flat.mean(axis=0)
        evals = np.linalg.eigvalsh(centered.T @ centered / (len(flat) - 1))
        want = evals[-2:].sum() / evals.sum()
        assert proj.explained_ratio == pytest.approx(want, abs=1e-9)

    def test_degenerate_rank_one(self):
        x = np.outer(np.arange(10, dtype=float), [1.0, 2.0]).reshape(10, 1, 2)
        proj = metrics.pca_2d([data.TimeSeriesDataset(x)])
        assert proj.degenerate
        assert proj.coords[0].shape == (10, 1)

    def test_components_fit_on_first_dataset(self):
        rng = np.random.default_rng(3)
        real = data.TimeSeriesDataset(rng.standard_normal((30, 1, 4)) * [5, 1, 1, 1])
        synth = data.TimeSeriesDataset(rng.standard_normal((20, 1, 4)))
        proj = metrics.pca_2d([real, synth])
        solo = metrics.pca_2d([real])
        np.testing.assert_allclose(proj.components, solo.components, atol=1e-10)
        assert proj.coords[1].shape == (20, 2)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 1, 3)) * [4.0, 1.0, 0.2]
        proj = metrics.pca_2d([data.TimeSeriesDataset(x)])
        for comp in proj.components:
            assert comp[np.argmax(np.abs(comp))] > 0
