"""Helpers shared by the test modules: small random models, gradient and
sensitivity checks, parameter fingerprints, and the scalar amplification
series the accountant's array form must match bit for bit. Fixtures stay in
``conftest.py``."""

import math

import numpy as np

from fedtsgan import nn
from fedtsgan.accounting import _log_expm1, _per_step_eps
from fedtsgan.dpmech import clip_first_layer


def random_mlp(rng, n_layers=None, activations=None, max_width=6):
    """Small random model for gradient checks."""
    n_layers = n_layers or rng.integers(1, 4)
    dims = list(rng.integers(1, max_width + 1, size=n_layers + 1))
    if activations is None:
        pool = ["identity", "tanh", "sigmoid", "leaky_relu", "relu"]
        activations = [pool[rng.integers(0, len(pool))] for _ in range(n_layers)]
    return nn.init_mlp(dims, activations, rng)


def quadratic_loss(out):
    return float(0.5 * np.sum(out * out)), out


def kink_free(model, x, margin=1e-4):
    trace = nn.forward(model, x)
    return all(
        np.abs(pre).min() > margin
        for pre, layer in zip(trace.pre, model.layers)
        if layer.activation in ("relu", "leaky_relu")
    )


def kink_free_input(model, rng, batch=4, margin=1e-4, tries=50):
    """Input draw whose pre-activations stay away from relu kinks, so
    central differences are trustworthy."""
    for _ in range(tries):
        x = rng.standard_normal((batch, model.in_dim))
        if kink_free(model, x, margin):
            return x
    return x


def gradcheck_draw(rng, activations, loss_fn, batch=4, min_grad=3e-5, tries=200):
    """(model, input) pair on which h=1e-6 central differences are a valid
    oracle: pre-activations clear of relu kinks and no nonzero gradient
    below the float64 finite-difference noise floor."""
    for _ in range(tries):
        model = random_mlp(rng, n_layers=len(activations), activations=activations)
        x = rng.standard_normal((batch, model.in_dim))
        if not kink_free(model, x):
            continue
        trace = nn.forward(model, x)
        _, out_grad = loss_fn(trace.output)
        grads, _ = nn.backward(model, trace, out_grad)
        flat = np.concatenate(
            [g.ravel() for g in grads.d_weights] + [g.ravel() for g in grads.d_biases]
        )
        nonzero = np.abs(flat[flat != 0.0])
        if nonzero.size and nonzero.min() < min_grad:
            continue
        return model, x
    raise AssertionError("no checkable draw found")


def params_blob(model):
    """Bitwise fingerprint of all parameters."""
    return b"".join(
        np.ascontiguousarray(a).tobytes()
        for l in model.layers
        for a in (l.weight, l.bias)
    )


def m_weights(state):
    """Per-layer weight views of an Adam state's first moment."""
    return nn.GradientSet.from_flat(state.m, state.shapes).d_weights


def finite_diff_check(model, batch, loss_fn, h=1e-6) -> float:
    """Worst relative disagreement between backward() and central differences.

    ``loss_fn`` maps the output matrix to (scalar loss, d loss / d output).
    Relative error per parameter is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-12).
    """
    trace = nn.forward(model, batch)
    _, out_grad = loss_fn(trace.output)
    analytic, _ = nn.backward(model, trace, out_grad)

    worst = 0.0
    for i, layer in enumerate(model.layers):
        for param, grad in ((layer.weight, analytic.d_weights[i]), (layer.bias, analytic.d_biases[i])):
            flat = param.ravel()
            gflat = grad.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                plus, _ = loss_fn(nn.forward(model, batch).output)
                flat[j] = orig - h
                minus, _ = loss_fn(nn.forward(model, batch).output)
                flat[j] = orig
                numeric = (plus - minus) / (2.0 * h)
                denom = max(abs(gflat[j]), abs(numeric), 1e-12)
                worst = max(worst, abs(gflat[j] - numeric) / denom)
    return worst


def sensitivity_check(model_factory, batch_pair_generator, grad_fn, clip, trials) -> float:
    """Empirical counterpart of the 2C sensitivity bound.

    For each trial: draw a model and an adjacent batch pair (same size,
    exactly one record replaced), compute first-layer gradients of both via
    ``grad_fn(model, batch) -> GradientSet``, clip both, and record the L2
    norm of their difference. Returns the max over trials, which must be
    <= 2*clip.
    """
    worst = 0.0
    for trial in range(trials):
        model = model_factory(trial)
        batch_a, batch_b = batch_pair_generator(trial)
        if batch_a.shape != batch_b.shape:
            raise ValueError("adjacent batches must have identical shape")
        differing = int(np.sum(~np.all(batch_a == batch_b, axis=tuple(range(1, batch_a.ndim)))))
        if differing != 1:
            raise ValueError(
                f"batches must differ in exactly one record, found {differing}"
            )
        ga = clip_first_layer(grad_fn(model, batch_a), clip)
        gb = clip_first_layer(grad_fn(model, batch_b), clip)
        diff = float(np.linalg.norm(ga.first_layer_vector() - gb.first_layer_vector()))
        worst = max(worst, diff)
    return worst


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def reference_amplified_eps(alpha: int, sigma: float, gamma: float, generator_mode: bool) -> float:
    """``accounting._amplified_eps`` as a scalar loop over j, one term at a
    time: the bits its array form must keep."""
    log_gamma = math.log(gamma)
    eps2 = _per_step_eps(2, sigma, generator_mode)
    log_lead = min(math.log(4.0) + _log_expm1(eps2), math.log(2.0) + eps2)
    terms = [2.0 * log_gamma + _log_comb(alpha, 2) + log_lead]
    for j in range(3, alpha + 1):
        terms.append(
            j * log_gamma
            + _log_comb(alpha, j)
            + (j - 1) * _per_step_eps(j, sigma, generator_mode)
            + math.log(2.0)
        )
    log_sum = float(np.logaddexp.reduce(np.array(terms)))
    return float(np.logaddexp(0.0, log_sum)) / (alpha - 1)
