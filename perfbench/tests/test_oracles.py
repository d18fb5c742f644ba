"""Method properties of the computations the output checks rely on."""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from tracer import PER_LAYER


def test_wasserstein_of_a_shift_is_the_shift():
    rng = np.random.default_rng(3)
    real = rng.standard_normal((200, 2, 100))
    assert oracles.cell_awd(real, real + 0.75) == pytest.approx(0.75, rel=1e-12)
    # whole-cycle carriers: adding 0.3 * carrier moves every amplitude by 0.3
    freqs = [0.01, 0.02]
    shifted = real + 0.3 * oracles.carriers(freqs, 100)[None]
    assert oracles.amplitude_awd(real, shifted, freqs) == pytest.approx(0.6, rel=1e-12)


def test_auc_of_fully_separated_scores_is_one():
    absent, present = [3.0, 4.0, 5.0], [0.5, 1.0, 2.0]
    assert oracles.auc_smaller_present(absent, present) == 1.0
    assert oracles.auc_smaller_present(present, absent) == 0.0
    assert oracles.auc_smaller_present([1.0, 1.0], [1.0, 1.0]) == 0.5


def test_explained_ratio_of_rank_one_data_is_one():
    rng = np.random.default_rng(5)
    flat = np.outer(rng.standard_normal(50), rng.standard_normal(12))
    assert oracles.pca_explained_ratio(flat) == pytest.approx(1.0, rel=1e-12)


def test_matched_filter_recovers_whole_cycle_amplitudes():
    freqs = [0.01, 0.02]
    data = np.array([0.4, 0.6])[:, None, None] * oracles.carriers(freqs, 100)[None]
    assert oracles.matched_amplitudes(data, freqs) == pytest.approx(np.array([[0.4, 0.4], [0.6, 0.6]]))
    assert oracles.sine_mae(data, freqs) < 1e-15


def test_outlier_is_the_isolated_sample():
    flat = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0]])
    assert oracles.outlier_index(flat) == 3


def test_rdp_epsilon_falls_with_sigma():
    alphas = tuple(range(2, 33))
    loose = oracles.subsampled_rdp_epsilon(0.8, 0.0625, 150, 1e-3, alphas, prec=64)
    tight = oracles.subsampled_rdp_epsilon(1.6, 0.0625, 150, 1e-3, alphas, prec=64)
    assert tight < loose


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
