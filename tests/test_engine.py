"""The flat-parameter engine against the per-tensor loops it replaced.

The reference functions below are the engine's earlier per-layer forms:
per-tensor Adam, backward through an explicit activation-derivative
multiply, and the masked sigmoid. Running the same formulas in the same
order on one flat vector must give the same bytes.
"""

import numpy as np
import pytest

from fedtsgan import nn
from fedtsgan.dpmech import clip_first_layer, first_layer_norm, perturb_first_layer

ALL_ACTIVATIONS = ["identity", "relu", "leaky_relu", "tanh", "sigmoid"]


# -- reference: the per-tensor engine -----------------------------------------


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_act(tag, x, slope):
    return {
        "identity": lambda: x,
        "relu": lambda: np.maximum(x, 0.0),
        "leaky_relu": lambda: np.where(x >= 0.0, x, slope * x),
        "tanh": lambda: np.tanh(x),
        "sigmoid": lambda: ref_sigmoid(x),
    }[tag]()


def ref_act_grad(tag, pre, post, slope):
    return {
        "identity": lambda: np.ones_like(pre),
        "relu": lambda: (pre > 0.0).astype(np.float64),
        "leaky_relu": lambda: np.where(pre >= 0.0, 1.0, slope),
        "tanh": lambda: 1.0 - post * post,
        "sigmoid": lambda: post * (1.0 - post),
    }[tag]()


def ref_forward(layers, batch):
    pre, post, x = [], [], batch
    for layer in layers:
        p = x @ layer.weight.T + layer.bias
        x = ref_act(layer.activation, p, layer.slope)
        pre.append(p)
        post.append(x)
    return pre, post


def ref_backward(layers, batch, pre, post, output_grad):
    d_weights, d_biases = [None] * len(layers), [None] * len(layers)
    delta = output_grad
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        delta = delta * ref_act_grad(layer.activation, pre[i], post[i], layer.slope)
        below = post[i - 1] if i > 0 else batch
        d_weights[i] = delta.T @ below
        d_biases[i] = delta.sum(axis=0)
        delta = delta @ layer.weight
    return d_weights, d_biases, delta


class RefAdam:
    def __init__(self, layers, lr=2e-4, beta1=0.5, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        self.m = [np.zeros_like(a) for l in layers for a in (l.weight, l.bias)]
        self.v = [np.zeros_like(a) for l in layers for a in (l.weight, l.bias)]

    def step(self, layers, d_weights, d_biases):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        params = [a for l in layers for a in (l.weight, l.bias)]
        grads = [g for pair in zip(d_weights, d_biases) for g in pair]
        for param, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            param -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# -----------------------------------------------------------------------------


def every_activation_model(rng, slope=0.2):
    """Five layers, one of each activation in a random order."""
    acts = list(rng.permutation(ALL_ACTIVATIONS))
    dims = [int(d) for d in rng.integers(1, 7, size=len(acts) + 1)]
    model = nn.init_mlp(dims, acts, rng)
    for layer in model.layers:
        if layer.activation == "leaky_relu":
            layer.slope = slope
    return model


def blob(arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("slope", [0.2, 0.0, 1.0, 1.7, -0.3])
def test_training_steps_match_per_tensor_reference_bytes(slope):
    rng = np.random.default_rng(2024)
    for _ in range(12):
        model = every_activation_model(rng, slope)
        twin = model.copy()
        state = nn.AdamState.for_model(model, lr=1e-2)
        ref = RefAdam(twin.layers, lr=1e-2)
        for _ in range(15):
            x = rng.standard_normal((int(rng.integers(1, 5)), model.in_dim)) * 4.0
            trace = nn.forward(model, x)
            pre, post = ref_forward(twin.layers, x)
            assert blob(trace.pre + trace.post) == blob(pre + post)

            out_grad = rng.standard_normal(trace.output.shape)
            grads, in_grad = nn.backward(model, trace, out_grad)
            d_w, d_b, ref_in = ref_backward(twin.layers, x, pre, post, out_grad)
            assert blob(grads.d_weights) == blob(d_w)
            assert blob(grads.d_biases) == blob(d_b)
            assert in_grad.tobytes() == ref_in.tobytes()

            none, in_only = nn.backward(model, trace, out_grad, params=False)
            assert none is None
            assert in_only.tobytes() == ref_in.tobytes()

            nn.adam_step(model, grads, state)
            ref.step(twin.layers, d_w, d_b)
            assert model.params.tobytes() == blob(
                a for l in twin.layers for a in (l.weight, l.bias)
            )
        assert state.m.tobytes() == blob(ref.m)
        assert state.v.tobytes() == blob(ref.v)
        assert blob(state.m_weights) == blob(ref.m[0::2])


def test_sigmoid_matches_masked_form_bytes():
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2])
    x = np.concatenate([special, rng.standard_normal(500) * 30.0]).reshape(-1, 3)
    assert nn._sigmoid(x).tobytes() == ref_sigmoid(x).tobytes()


class TestFlatStorage:
    def test_layers_are_views_of_params_in_layer_order(self, rng):
        model = every_activation_model(rng)
        for layer in model.layers:
            assert layer.weight.base is model.params
            assert layer.bias.base is model.params
        assert model.params.tobytes() == blob(
            a for l in model.layers for a in (l.weight, l.bias)
        )
        model.layers[-1].bias[0] = 42.0
        assert model.params[-model.layers[-1].out_dim] == 42.0

    def test_copy_and_load_share_no_buffer(self, rng, tmp_path):
        model = every_activation_model(rng)
        twin = model.copy()
        assert not np.shares_memory(twin.params, model.params)
        for a, b in zip(model.layers, twin.layers):
            assert not np.shares_memory(a.weight, b.weight)
            assert b.weight.base is twin.params
        twin.params += 1.0
        assert model.params.tobytes() != twin.params.tobytes()

        nn.save_models(tmp_path / "m.npz", {"a": model, "b": model})
        loaded = nn.load_models(tmp_path / "m.npz")
        assert loaded["a"].params.tobytes() == model.params.tobytes()
        assert not np.shares_memory(loaded["a"].params, loaded["b"].params)

    def test_gradient_set_from_lists_owns_one_vector(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        grads = nn.GradientSet([w, np.ones((1, 2))], [b, np.ones(1)])
        assert not np.shares_memory(grads.flat, w)
        assert grads.d_weights[1].base is grads.flat
        grads.d_weights[0][...] = 5.0
        grads.d_biases[0] += 2.0
        np.testing.assert_array_equal(grads.first_layer_vector(), [5.0] * 6 + [2.0, 2.0])
        assert grads.flat.size == 6 + 2 + 2 + 1

    def test_model_copies_the_caller_arrays(self):
        w = np.eye(2)
        model = nn.MlpModel([nn.Layer(w, np.zeros(2), "identity")])
        model.layers[0].weight[0, 0] = 3.0
        assert w[0, 0] == 1.0


def test_adam_moves_first_layer_by_clipped_and_noised_gradient():
    rng = np.random.default_rng(11)
    model = nn.init_mlp([6, 5, 1], ["leaky_relu", "sigmoid"], rng)
    twin = model.copy()
    x = rng.standard_normal((4, 6)) * 10.0
    trace = nn.forward(model, x)
    grads, _ = nn.backward(model, trace, np.full(trace.output.shape, 50.0))
    clip, sigma = 0.5, 0.7
    assert first_layer_norm(grads) > clip

    noised = perturb_first_layer(grads, clip, sigma, np.random.default_rng(3))
    # the same gradient built apart: clip, then the same two noise draws
    clipped = clip_first_layer(grads, clip)
    noise = np.random.default_rng(3)
    want_w = clipped.d_weights[0] + noise.normal(0.0, 2 * clip * sigma, size=(5, 6))
    want_b = clipped.d_biases[0] + noise.normal(0.0, 2 * clip * sigma, size=5)
    assert noised.first_layer_vector().tobytes() == blob([want_w, want_b])
    assert noised.d_weights[1].tobytes() == grads.d_weights[1].tobytes()

    state = nn.AdamState.for_model(model)
    nn.adam_step(model, noised, state)
    ref = RefAdam(twin.layers)
    ref.step(twin.layers, [want_w, grads.d_weights[1]], [want_b, grads.d_biases[1]])
    assert model.params.tobytes() == twin.params.tobytes()
    first = want_w.size + want_b.size
    assert state.m[:first].tobytes() == blob([(1.0 - 0.5) * want_w, (1.0 - 0.5) * want_b])
