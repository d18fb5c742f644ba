"""Computations the output checks compare the program against.

Each one is written apart from the package: plain ``numpy.load`` and a
numpy forward pass for checkpoints, ``scipy`` for Wasserstein distances,
nearest-neighbour distances and the Mann-Whitney statistic,
``numpy.linalg.eigh`` for PCA, and an ``mpmath`` direct summation for the
privacy accountant.
"""

from __future__ import annotations

import csv
import json

import mpmath as mp
import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import mannwhitneyu, wasserstein_distance


def read_export(path) -> np.ndarray:
    """The (N, A, T) array of a ``gen-data`` CSV export."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [(int(r[0]), int(r[1]), [float(v) for v in r[3:]]) for r in reader]
    n = max(r[0] for r in rows) + 1
    a = max(r[1] for r in rows) + 1
    out = np.full((n, a, len(header) - 3), np.nan)
    for sample, attr, values in rows:
        out[sample, attr] = values
    return out


def load_checkpoint(path) -> dict[str, list[tuple[np.ndarray, np.ndarray, str, float]]]:
    """Model name -> [(weight, bias, activation, slope)] from an ``.npz``."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        return {
            name: [
                (data[f"{name}/w{i}"], data[f"{name}/b{i}"], layer["activation"], layer["slope"])
                for i, layer in enumerate(spec)
            ]
            for name, spec in meta["models"].items()
        }


def mlp_forward(layers, x: np.ndarray) -> np.ndarray:
    """A generator's forward pass (leaky-relu hidden layers, identity output)."""
    for weight, bias, activation, slope in layers:
        x = x @ weight.T + bias
        if activation == "leaky_relu":
            x = np.where(x >= 0.0, x, slope * x)
        elif activation != "identity":
            raise ValueError(f"unknown activation {activation!r}")
    return x


def cell_awd(real: np.ndarray, synth: np.ndarray) -> float:
    """Mean over (attribute, time) cells of the 1-D Wasserstein distance."""
    _, a, t = real.shape
    return float(
        np.mean([wasserstein_distance(real[:, i, j], synth[:, i, j]) for i in range(a) for j in range(t)])
    )


def carriers(frequencies, t_steps: int) -> np.ndarray:
    return np.sin(2.0 * np.pi * np.outer(frequencies, np.arange(t_steps)))


def matched_amplitudes(data: np.ndarray, frequencies) -> np.ndarray:
    """(N, A) matched-filter amplitudes, (2/T) * sum_t x_t sin(2 pi f t)."""
    c = carriers(frequencies, data.shape[2])
    return (2.0 / data.shape[2]) * (data * c[None]).sum(axis=2)


def amplitude_awd(real: np.ndarray, synth: np.ndarray, frequencies) -> float:
    ar, as_ = matched_amplitudes(real, frequencies), matched_amplitudes(synth, frequencies)
    return float(sum(wasserstein_distance(ar[:, i], as_[:, i]) for i in range(ar.shape[1])))


def sine_mae(synth: np.ndarray, frequencies) -> float:
    rebuilt = matched_amplitudes(synth, frequencies)[:, :, None] * carriers(frequencies, synth.shape[2])[None]
    return float(np.mean(np.abs(synth - rebuilt)))


def pca_explained_ratio(flat: np.ndarray) -> float:
    """Share of the covariance trace held by the top two eigenvalues."""
    cov = np.cov(flat, rowvar=False)
    eig = np.linalg.eigh(cov)[0]
    return float(eig[-2:].sum() / np.trace(cov))


def zscored_flat(data: np.ndarray) -> np.ndarray:
    """Per-attribute z-scoring over samples and time, then (N, A*T)."""
    mean = data.mean(axis=(0, 2), keepdims=True)
    std = np.maximum(data.std(axis=(0, 2), keepdims=True), 1e-12)
    return ((data - mean) / std).reshape(data.shape[0], -1)


def outlier_index(flat: np.ndarray) -> int:
    """Sample with the largest nearest-neighbour distance; lowest on ties."""
    d = cdist(flat, flat)
    np.fill_diagonal(d, np.inf)
    return int(np.argmax(d.min(axis=1)))


def auc_smaller_present(absent, present) -> float:
    """P(present score < absent score), ties counted half."""
    return float(mannwhitneyu(absent, present).statistic / (len(absent) * len(present)))


def subsampled_rdp_epsilon(sigma, gamma, steps, delta, alphas, prec=256) -> float:
    """(epsilon, delta) of the generator-side guarantee: the subsampled
    Gaussian RDP series (per-step eps(j) = j / sigma^2) summed term by term,
    composed over ``steps``, minimised over the alpha grid."""
    with mp.workprec(prec):
        s2, g = mp.mpf(sigma) ** 2, mp.mpf(gamma)
        lead = min(4 * mp.expm1(2 / s2), 2 * mp.exp(2 / s2))
        best = mp.inf
        for alpha in alphas:
            total = g**2 * mp.binomial(alpha, 2) * lead
            for j in range(3, alpha + 1):
                total += 2 * g**j * mp.binomial(alpha, j) * mp.exp((j - 1) * j / s2)
            rdp = mp.log1p(total) / (alpha - 1) * steps
            best = min(best, rdp + mp.log(1 / mp.mpf(delta)) / (alpha - 1))
        return float(best)
