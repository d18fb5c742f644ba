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

from helpers import m_weights

ALL_ACTIVATIONS = ["identity", "relu", "leaky_relu", "tanh", "sigmoid"]


# -- reference: the per-tensor engine -----------------------------------------


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_act(tag, x):
    return {
        "identity": lambda: x,
        "relu": lambda: np.maximum(x, 0.0),
        "leaky_relu": lambda: np.where(x >= 0.0, x, nn.LEAKY_SLOPE * x),
        "tanh": lambda: np.tanh(x),
        "sigmoid": lambda: ref_sigmoid(x),
    }[tag]()


def ref_act_grad(tag, pre, post):
    return {
        "identity": lambda: np.ones_like(pre),
        "relu": lambda: (pre > 0.0).astype(np.float64),
        "leaky_relu": lambda: np.where(pre >= 0.0, 1.0, nn.LEAKY_SLOPE),
        "tanh": lambda: 1.0 - post * post,
        "sigmoid": lambda: post * (1.0 - post),
    }[tag]()


def ref_forward(layers, batch):
    pre, post, x = [], [], batch
    for layer in layers:
        p = x @ layer.weight.T + layer.bias
        x = ref_act(layer.activation, p)
        pre.append(p)
        post.append(x)
    return pre, post


def ref_backward(layers, batch, pre, post, output_grad):
    d_weights, d_biases = [None] * len(layers), [None] * len(layers)
    delta = output_grad
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        delta = delta * ref_act_grad(layer.activation, pre[i], post[i])
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


def every_activation_model(rng):
    """Five layers, one of each activation in a random order."""
    acts = list(rng.permutation(ALL_ACTIVATIONS))
    dims = [int(d) for d in rng.integers(1, 7, size=len(acts) + 1)]
    return nn.init_mlp(dims, acts, rng)


def blob(arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def test_training_steps_match_per_tensor_reference_bytes():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        model = every_activation_model(rng)
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
        assert blob(m_weights(state)) == blob(ref.m[0::2])


def ref_clamped_log(s):
    lo, hi = nn.SIGMOID_CLAMP, 1.0 - nn.SIGMOID_CLAMP
    c = np.clip(s, lo, hi)
    inside = (s > lo) & (s < hi)
    log, dlog = np.log(c), np.where(inside, 1.0 / c, 0.0)
    return log, dlog, np.log(1.0 - c), np.where(inside, -1.0 / (1.0 - c), 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_clamped_logs_match_np_clip_form_bytes():
    rng = np.random.default_rng(9)
    lo = nn.SIGMOID_CLAMP
    edges = [0.0, -0.0, 1.0, lo, 1.0 - lo, np.nextafter(lo, 0), np.nextafter(1 - lo, 2)]
    edges += [np.nan, -1.0, 2.0]
    s = np.concatenate([edges, rng.random(200)]).reshape(-1, 1)
    got = nn.clamped_log(s) + nn.clamped_log1m(s)
    assert blob(got) == blob(ref_clamped_log(s))


def test_sigmoid_matches_masked_form_bytes():
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2])
    x = np.concatenate([special, rng.standard_normal(500) * 30.0]).reshape(-1, 3)
    assert nn._sigmoid(x).tobytes() == ref_sigmoid(x).tobytes()


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_stack_rows_match_their_models_bytes(strided):
    """A stack of K models trains each row to the bytes of its model alone,
    given each row's operands in the layout the model would get alone."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = int(rng.integers(1, 7))
        acts = list(rng.permutation(ALL_ACTIVATIONS))[: int(rng.integers(1, 4))]
        dims = [int(d) for d in rng.integers(1, 40, size=len(acts) + 1)]
        models = [nn.init_mlp(dims, acts, rng) for _ in range(k)]
        stack = nn.MlpModel.stack(models)
        for layer in stack.layers:
            assert np.shares_memory(layer.weight, stack.params)
            assert layer.bias.shape == (k, 1, layer.out_dim)
        opts = [nn.AdamState.for_model(m, lr=1e-2) for m in models]
        stack_opt = nn.AdamState.for_model(stack, lr=1e-2)
        for _ in range(6):
            b = int(rng.integers(1, 20))
            x = rng.standard_normal((k, b, 2 * dims[0])) * 3.0
            g = rng.standard_normal((k, b, 2 * dims[-1]))
            if strided:
                x, g = x[..., ::2], g[..., : dims[-1]]
            else:
                x, g = x[..., : dims[0]].copy(), g[..., : dims[-1]].copy()
            trace = nn.forward(stack, x)
            grads, in_grad = nn.backward(stack, trace, g)
            nn.adam_step(stack, grads, stack_opt)
            for i, (model, opt) in enumerate(zip(models, opts)):
                solo = nn.forward(model, x[i])
                assert blob(solo.pre + solo.post) == blob([a[i] for a in trace.pre + trace.post])
                solo_grads, solo_in = nn.backward(model, solo, g[i])
                assert solo_grads.flat.tobytes() == grads.flat[i].tobytes()
                assert solo_in.tobytes() == in_grad[i].tobytes()
                nn.adam_step(model, solo_grads, opt)
                assert model.params.tobytes() == stack.params[i].tobytes()
        assert stack_opt.m.tobytes() == blob(o.m for o in opts)


@pytest.mark.parametrize("k", [None, 1, 4], ids=["single", "stack_of_1", "stack_of_4"])
def test_skipping_the_input_gradient_keeps_parameter_gradient_bytes(k):
    rng = np.random.default_rng(43)
    for _ in range(12):
        acts = list(rng.permutation(ALL_ACTIVATIONS))[: int(rng.integers(1, 5))]
        dims = [int(d) for d in rng.integers(1, 30, size=len(acts) + 1)]
        models = [nn.init_mlp(dims, acts, rng) for _ in range(k or 1)]
        model = models[0] if k is None else nn.MlpModel.stack(models)
        lead = () if k is None else (k,)
        b = int(rng.integers(1, 9))
        x = rng.standard_normal((*lead, b, model.in_dim)) * 3.0
        trace = nn.forward(model, x)
        g = rng.standard_normal(trace.output.shape)
        full, in_grad = nn.backward(model, trace, g)
        params_only, none = nn.backward(model, trace, g, inputs=False)
        assert none is None and in_grad is not None
        assert params_only.flat.tobytes() == full.flat.tobytes()
        assert params_only.shapes == full.shapes


# -- leaky ReLU: the branch-free forms against np.where -------------------------

TINY = np.nextafter(0.0, 1.0)  # smallest subnormal
LEAKY_EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, TINY, -TINY, 3 * TINY, -3 * TINY,
     2.0**-1022 / 3, -(2.0**-1022) / 3, 2.0**-1022, -(2.0**-1022),
     1.0, -1.0, 1.0 + 2.0**-52, -1.0 - 2.0**-52, 1e308, -1e308]
)


def where_leaky(x):
    return np.where(x >= 0.0, x, nn.LEAKY_SLOPE * x)


def where_leaky_backward(pre, delta):
    return np.where(pre >= 0.0, delta, nn.LEAKY_SLOPE * delta)


def test_leaky_edge_values_include_products_that_underflow():
    """On the subnormal edges slope * x underflows to a signed zero, so
    max(x, slope * x) compares a nonzero x with zero there."""
    finite = LEAKY_EDGES[np.isfinite(LEAKY_EDGES) & (LEAKY_EDGES != 0.0)]
    underflows = nn.LEAKY_SLOPE * finite == 0.0
    assert underflows.any() and not underflows.all()


def edge_operands(lead):
    rng = np.random.default_rng(17)
    scales = 10.0 ** rng.integers(-320, 309, size=300)
    values = np.concatenate([LEAKY_EDGES, rng.standard_normal(300) * scales])
    n = len(LEAKY_EDGES)
    # every (pre, delta) pair of edge values, then random values of all scales
    pre = np.concatenate([np.repeat(LEAKY_EDGES, n), rng.permutation(values)])
    delta = np.concatenate([np.tile(LEAKY_EDGES, n), rng.permutation(values)])
    shape = lead + (-1, 4)
    return pre[: pre.size // 12 * 12].reshape(shape), delta[: delta.size // 12 * 12].reshape(shape)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
def test_leaky_relu_matches_where_form_on_edge_values_bytes(lead):
    pre, delta = edge_operands(lead)
    post = nn._act("leaky_relu", pre)
    assert post.tobytes() == where_leaky(pre).tobytes()
    got = nn._act_backward("leaky_relu", pre, post, delta)
    assert got.tobytes() == where_leaky_backward(pre, delta).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tag", ["identity", "relu", "tanh"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
def test_activations_match_reference_forms_on_edge_values_bytes(tag, lead):
    """Identity, ReLU and tanh on the same edge operands, against the
    per-tensor forms: the activation, then delta times its derivative.
    Sigmoid is not here: at a NaN input it gives a NaN of the other sign
    than the masked form; ``test_sigmoid_matches_masked_form_bytes`` checks
    it on finite values."""
    pre, delta = edge_operands(lead)
    post = nn._act(tag, pre)
    assert post.tobytes() == ref_act(tag, pre).tobytes()
    got = nn._act_backward(tag, pre, post, delta)
    assert got.tobytes() == (delta * ref_act_grad(tag, pre, post)).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_leaky_relu_models_match_where_reference_bytes():
    """nn.forward and nn.backward of single and stacked leaky-ReLU models,
    against a per-layer loop in the np.where forms. Inputs range from
    subnormal to 1.7e308, so pre-activations also overflow to inf and NaN."""
    rng = np.random.default_rng(23)
    for _ in range(6):
        k = int(rng.integers(2, 5))
        dims = [int(d) for d in rng.integers(1, 9, size=4)]
        models = [nn.init_mlp(dims, ["leaky_relu"] * 3, rng) for _ in range(k)]
        for model in models:
            for layer in model.layers:
                layer.weight *= 8.0
        stack = nn.MlpModel.stack(models)
        exponents = rng.choice([-320, -310, -300, -2, 0, 2, 150, 300, 307, 308], (k, 5, 1))
        x = rng.uniform(-1.7, 1.7, (k, 5, dims[0])) * 10.0**exponents
        g = rng.standard_normal((k, 5, dims[-1]))
        g[0, 0, 0], g[-1, -1, -1] = np.inf, np.nan
        stacked = nn.forward(stack, x)
        stack_grads, stack_in = nn.backward(stack, stacked, g)
        for i, model in enumerate(models):
            pre, post, h = [], [], x[i]
            for layer in model.layers:
                pre.append(h @ layer.weight.T + layer.bias)
                h = where_leaky(pre[-1])
                post.append(h)
            d_w, d_b, delta = [None] * 3, [None] * 3, g[i]
            for j in (2, 1, 0):
                delta = where_leaky_backward(pre[j], delta)
                d_w[j] = delta.T @ (post[j - 1] if j else x[i])
                d_b[j] = delta.sum(axis=0)
                delta = delta @ model.layers[j].weight
            ref_grads = blob(a for pair in zip(d_w, d_b) for a in pair)
            solo = nn.forward(model, x[i])
            solo_grads, solo_in = nn.backward(model, solo, g[i])
            for trace, grads, in_grad in (
                (solo, solo_grads.flat, solo_in),
                (nn.ActivationTrace(model, x[i], [p[i] for p in stacked.pre],
                                    [p[i] for p in stacked.post]),
                 stack_grads.flat[i], stack_in[i]),
            ):
                assert blob(trace.pre + trace.post) == blob(pre + post)
                assert grads.tobytes() == ref_grads
                assert in_grad.tobytes() == delta.tobytes()


def test_stack_rejects_mismatched_shapes_and_batches():
    rng = np.random.default_rng(2)
    a = nn.init_mlp([3, 4, 1], ["tanh", "sigmoid"], rng)
    with pytest.raises(nn.ShapeError):
        nn.MlpModel.stack([a, nn.init_mlp([3, 5, 1], ["tanh", "sigmoid"], rng)])
    stack = nn.MlpModel.stack([a, a.copy()])
    with pytest.raises(nn.ShapeError):
        nn.forward(stack, np.zeros((4, 3)))
    with pytest.raises(nn.ShapeError):
        nn.forward(stack, np.zeros((3, 4, 3)))


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
