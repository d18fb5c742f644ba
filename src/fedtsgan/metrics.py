"""Similarity and utility metrics for real-vs-synthetic comparison.

Covers the 1-D Wasserstein distance and its per-(attribute, time) average,
matched-filter amplitude estimation for sine data (plus the amplitude-space
distance and reconstruction MAE built on it), the four-scenario downstream
task comparison, and a 2-D PCA projection for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import TimeSeriesDataset
from .rng import stream


@dataclass
class MetricReport:
    name: str
    value: float
    breakdown: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def wd_1d(u, v) -> float:
    """First-order Wasserstein distance between two empirical 1-D samples.

    Sizes may differ; computed as the area between the two empirical CDFs.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.size == 0 or v.size == 0:
        raise ValueError("wd_1d needs non-empty samples")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("wd_1d needs finite samples")
    u_sorted = np.sort(u)
    v_sorted = np.sort(v)
    grid = np.sort(np.concatenate([u_sorted, v_sorted]))
    deltas = np.diff(grid)
    u_cdf = np.searchsorted(u_sorted, grid[:-1], side="right") / u.size
    v_cdf = np.searchsorted(v_sorted, grid[:-1], side="right") / v.size
    return float(np.sum(np.abs(u_cdf - v_cdf) * deltas))


def awd(real: TimeSeriesDataset, synth: TimeSeriesDataset) -> float:
    return awd_breakdown(real, synth)[0]


def awd_breakdown(
    real: TimeSeriesDataset, synth: TimeSeriesDataset
) -> tuple[float, np.ndarray]:
    """Mean over every (attribute, time-step) cell of the 1-D Wasserstein
    distance between real and synthetic marginals; also the per-cell grid."""
    if real.n_attributes != synth.n_attributes or real.n_steps != synth.n_steps:
        raise nn.ShapeError("attribute count and length must match for AWD")
    cells = np.empty((real.n_attributes, real.n_steps))
    for a in range(real.n_attributes):
        for t in range(real.n_steps):
            cells[a, t] = wd_1d(real.data[:, a, t], synth.data[:, a, t])
    return float(cells.mean()), cells


def estimate_amplitudes(dataset: TimeSeriesDataset, frequencies=None) -> np.ndarray:
    """Matched-filter amplitude per (sample, attribute).

    a_hat[m, n] = (2/T) * sum_t x[m, n, t] * sin(2*pi*f_n*t); exact on
    noiseless sinusoids when f_n*T lands on whole cycles, unbiased under
    additive zero-mean noise.
    """
    if frequencies is None:
        frequencies = dataset.frequencies()
    if frequencies is None:
        raise ValueError("no frequency metadata; pass frequencies explicitly")
    freqs = np.asarray(frequencies, dtype=np.float64)
    if freqs.size != dataset.n_attributes:
        raise ValueError("need one frequency per attribute")
    t = np.arange(dataset.n_steps, dtype=np.float64)
    carrier = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :])  # (A, T)
    return (2.0 / dataset.n_steps) * np.einsum("mat,at->ma", dataset.data, carrier)


def amplitude_awd(
    real: TimeSeriesDataset, synth: TimeSeriesDataset, frequencies=None
) -> float:
    """Sum over attributes of the Wasserstein distance between real and
    synthetic amplitude distributions."""
    if frequencies is None:
        frequencies = real.frequencies()
    a_real = estimate_amplitudes(real, frequencies)
    a_synth = estimate_amplitudes(synth, frequencies)
    return float(
        sum(wd_1d(a_real[:, n], a_synth[:, n]) for n in range(a_real.shape[1]))
    )


def sine_mae(synth: TimeSeriesDataset, frequencies=None) -> float:
    """Rebuild each synthetic sample from its estimated amplitude and the
    known carrier, then mean absolute reconstruction error over (m, n, t)."""
    if frequencies is None:
        frequencies = synth.frequencies()
    if frequencies is None:
        raise ValueError("no frequency metadata; pass frequencies explicitly")
    freqs = np.asarray(frequencies, dtype=np.float64)
    amps = estimate_amplitudes(synth, freqs)  # (N, A)
    t = np.arange(synth.n_steps, dtype=np.float64)
    carrier = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :])  # (A, T)
    rebuilt = amps[:, :, None] * carrier[None, :, :]
    return float(np.mean(np.abs(synth.data - rebuilt)))


def tpd_from_performances(
    p_trtr: float, p_tsts: float, p_trts: float, p_tstr: float
) -> float:
    """Sum of absolute performance gaps of the three synthetic scenarios
    against the train-real/test-real baseline."""
    return abs(p_tsts - p_trtr) + abs(p_trts - p_trtr) + abs(p_tstr - p_trtr)


def _fit_mlp(x, y, dims, loss_grad, seed, steps=200, batch_size=64, lr=1e-3):
    rng = stream(seed, "downstream-init")
    batch_rng = stream(seed, "downstream-batches")
    model = nn.init_mlp(dims, ["relu"] * (len(dims) - 2) + ["identity"], rng)
    state = nn.AdamState.for_model(model, lr=lr, beta1=0.9)
    n = x.shape[0]
    b = min(batch_size, n)
    for _ in range(steps):
        idx = batch_rng.choice(n, size=b, replace=False)
        trace = nn.forward(model, x[idx])
        grad_out = loss_grad(trace.output, y[idx])
        grads, _ = nn.backward(model, trace, grad_out, inputs=False)
        nn.adam_step(model, grads, state)
    return model


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _flatten(ds: TimeSeriesDataset) -> np.ndarray:
    return ds.data.reshape(ds.n_samples, -1)


def _classify_fit(train: TimeSeriesDataset, n_classes: int, seed: int, steps: int):
    x = _flatten(train)

    def ce_grad(logits, y):
        probs = _softmax(logits)
        onehot = np.eye(n_classes)[y]
        return (probs - onehot) / logits.shape[0]

    return _fit_mlp(
        x, train.labels, [x.shape[1], 64, n_classes], ce_grad, seed, steps=steps
    )


def _classify_eval(model, ds: TimeSeriesDataset) -> float:
    logits = nn.forward(model, _flatten(ds)).output
    return float(np.mean(np.argmax(logits, axis=1) == ds.labels))


def _forecast_fit(train: TimeSeriesDataset, seed: int, steps: int):
    # one predictor per attribute: first T-1 steps -> last step
    models = []
    for a in range(train.n_attributes):
        x = train.data[:, a, :-1]
        y = train.data[:, a, -1:]

        def mse_grad(pred, target):
            return 2.0 * (pred - target) / pred.shape[0]

        models.append(
            _fit_mlp(x, y, [x.shape[1], 32, 1], mse_grad, seed + a, steps=steps)
        )
    return models


def _forecast_eval(models, ds: TimeSeriesDataset) -> float:
    errs = []
    for a, model in enumerate(models):
        pred = nn.forward(model, ds.data[:, a, :-1]).output[:, 0]
        errs.append(np.mean(np.abs(pred - ds.data[:, a, -1])))
    return float(np.mean(errs))


def tpd(
    real_train: TimeSeriesDataset,
    real_test: TimeSeriesDataset,
    synth: TimeSeriesDataset,
    task: str,
    seed: int = 0,
    steps: int = 200,
) -> MetricReport:
    """Four-scenario downstream comparison (TRTR / TSTS / TRTS / TSTR).

    ``synth`` is split in order into train/test with the same proportions as
    the real split. Classification reports accuracy; forecasting reports
    mean absolute error of one-step-ahead prediction.
    """
    if task not in ("classify", "forecast"):
        raise ValueError(f"unknown task {task!r}")
    n_test = round(
        synth.n_samples * real_test.n_samples / (real_train.n_samples + real_test.n_samples)
    )
    n_test = min(max(n_test, 1), synth.n_samples - 1)
    synth_train = synth.take(slice(None, -n_test))
    synth_test = synth.take(slice(-n_test, None))

    if task == "classify":
        for name, ds in (("real_train", real_train), ("real_test", real_test), ("synth", synth)):
            if ds.labels is None:
                raise ValueError(f"classification needs labels; {name} has none")
        n_classes = int(max(real_train.labels.max(), real_test.labels.max(), synth.labels.max())) + 1
        model_r = _classify_fit(real_train, n_classes, seed, steps)
        model_s = _classify_fit(synth_train, n_classes, seed, steps)
        p_trtr = _classify_eval(model_r, real_test)
        p_tsts = _classify_eval(model_s, synth_test)
        p_trts = _classify_eval(model_r, synth_test)
        p_tstr = _classify_eval(model_s, real_test)
        metric = "accuracy"
    else:
        models_r = _forecast_fit(real_train, seed, steps)
        models_s = _forecast_fit(synth_train, seed, steps)
        p_trtr = _forecast_eval(models_r, real_test)
        p_tsts = _forecast_eval(models_s, synth_test)
        p_trts = _forecast_eval(models_r, synth_test)
        p_tstr = _forecast_eval(models_s, real_test)
        metric = "mae"

    value = tpd_from_performances(p_trtr, p_tsts, p_trts, p_tstr)
    return MetricReport(
        name="tpd",
        value=value,
        breakdown={
            "TRTR": p_trtr,
            "TSTS": p_tsts,
            "TRTS": p_trts,
            "TSTR": p_tstr,
            "metric": metric,
        },
        config={"task": task, "seed": seed, "steps": steps},
    )


@dataclass
class PcaProjection:
    coords: list[np.ndarray]  # one (N_i, dims) array per input dataset
    components: np.ndarray  # (dims, D)
    eigenvalues: np.ndarray  # (dims,)
    explained_ratio: float
    degenerate: bool  # True when the data had rank < 2


def pca_2d(datasets: list[TimeSeriesDataset]) -> PcaProjection:
    """Project flattened samples onto the top-2 covariance eigenvectors.

    The components are fit on the first dataset (the real one) and applied
    to all. Deterministic: the top eigenpairs of the symmetric covariance
    (``np.linalg.eigh``), each component's largest-magnitude coordinate
    made positive.
    Rank-deficient data yields a 1-D projection with ``degenerate`` set.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    mats = [_flatten(d) for d in datasets]
    ref = mats[0]
    if ref.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit components")
    mu = ref.mean(axis=0)
    centered = ref - mu
    cov = centered.T @ centered / (ref.shape[0] - 1)

    values, vectors = np.linalg.eigh(cov)  # ascending
    comps, eigs = [], []
    for lam, v in zip(values[::-1][:2], vectors.T[::-1][:2]):
        if lam <= max(1e-12, 1e-12 * (eigs[0] if eigs else 1.0)):
            break
        peak = np.argmax(np.abs(v))
        if v[peak] < 0:
            v = -v
        comps.append(v)
        eigs.append(float(lam))

    degenerate = len(comps) < 2
    components = np.vstack(comps) if comps else np.zeros((0, cov.shape[0]))
    eigenvalues = np.array(eigs)
    total_var = float(np.trace(cov))
    explained = float(eigenvalues.sum() / total_var) if total_var > 0 else 0.0
    coords = [(m - mu) @ components.T for m in mats]
    return PcaProjection(coords, components, eigenvalues, explained, degenerate)
