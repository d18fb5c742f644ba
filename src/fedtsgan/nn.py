"""Minimal dense-MLP engine: explicit forward/backward passes and Adam.

Everything downstream (attribute generators, discriminators, feature
extractors, downstream-task models) is built from these pieces. All math is
float64; models, traces and gradient sets are plain values with no hidden
shared state, so they can be moved between threads freely.

Weight convention: ``weight`` has shape (out, in) and a batch row vector x
maps to ``x @ weight.T + bias``.

Storage: each model owns one contiguous float64 vector ``params`` laid out
layer by layer as [w0, b0, w1, b1, ...], and every ``Layer.weight`` and
``Layer.bias`` is a view into it. Gradient sets and Adam moments use the same
layout, so an Adam step, gradient accumulation and the first-layer gradient
vector are each a few operations on one vector. Change parameters in place
(``layer.weight[...] = ...``); rebinding a layer's array detaches it from the
model.

Run axis: ``MlpModel.stack`` builds one model out of K models of the same
shapes. Its ``params`` is (K, P), its weights are (K, out, in), its biases
(K, 1, out), and it takes (K, B, in) batches, so K independent models train
in one call each of ``forward``, ``backward`` and ``adam_step``. The same
code serves both forms (``x @ w.mT + b``, reductions over axis -2), and each
row of a stack computes the bytes its model would compute alone. A stack's
optimizer is ``AdamState.for_model(stack)``, whose (K, P) moments are laid
out like its ``params``; ``MlpModel.from_params(stack.params[k], ...)`` is a
plain model that reads and writes row k in place.

Leaky ReLU has one negative slope, ``LEAKY_SLOPE`` (0.2). The forward pass
is ``max(x, LEAKY_SLOPE * x)`` and the backward pass multiplies delta by
``max(pre >= 0, LEAKY_SLOPE)``. Neither branches on the sign pattern, and
both give the bytes of ``np.where(x >= 0, x, LEAKY_SLOPE * x)`` and its
derivative, signed zeros, infinities, NaN and subnormals included.
Checkpoints store each layer's slope; ``load_models`` refuses a leaky layer
with another one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("identity", "relu", "leaky_relu", "tanh", "sigmoid")

# log-loss clamp for sigmoid heads; log terms are singular at {0, 1}
SIGMOID_CLAMP = 1e-7

# negative slope of every leaky ReLU layer
LEAKY_SLOPE = 0.2

CHECKPOINT_FORMAT_VERSION = 1


class ShapeError(ValueError):
    """Array dimensions do not match the model contract."""


class TraceMismatchError(ValueError):
    """A trace was replayed against a model it was not produced by."""


class NonFiniteError(ValueError):
    """NaN or inf reached an operation that requires finite values."""


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        # (out, in) and (out,), or stacked (K, out, in) and (K, 1, out)
        stacked = self.weight.ndim == 3 and self.bias.ndim == 3
        if not (stacked or (self.weight.ndim == 2 and self.bias.ndim == 1)):
            raise ShapeError("layer expects 2-D weight and 1-D bias")
        if self.weight.shape[:-1] != (self.bias.shape[:-2] + self.bias.shape[-1:]):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match weight shape {self.weight.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]


Shapes = tuple[tuple[int, int], ...]  # (out, in) of each layer's weight


def _pack(weights, biases) -> tuple[np.ndarray, Shapes]:
    """Copy per-layer weights and biases into one fresh [w0, b0, w1, b1, ...]
    vector."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    biases = [np.asarray(b, dtype=np.float64) for b in biases]
    if len(weights) != len(biases):
        raise ShapeError("need one bias per weight")
    for w, b in zip(weights, biases):
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ShapeError(f"weight {w.shape} and bias {b.shape} do not form a layer")
    flat = np.concatenate([a.ravel() for w, b in zip(weights, biases) for a in (w, b)])
    return flat, tuple(w.shape for w in weights)


def _split(flat: np.ndarray, shapes: Shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a [w0, b0, w1, b1, ...] vector, or
    of each row of a (K, P) stack: weights (K, out, in), biases (K, 1, out)."""
    lead = flat.shape[:-1]
    weights, biases = [], []
    start = 0
    for out_dim, in_dim in shapes:
        mid = start + out_dim * in_dim
        weights.append(flat[..., start:mid].reshape(*lead, out_dim, in_dim))
        start = mid + out_dim
        bias = flat[..., mid:start]
        biases.append(bias.reshape(*lead, 1, out_dim) if lead else bias)
    return weights, biases


@dataclass
class MlpModel:
    """Layers whose arrays are views into the model's own ``params`` vector.

    Construction copies the given layers' arrays into a fresh vector and
    rebuilds the layers on top of it, so no two models share storage."""

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False, compare=False)
    shapes: Shapes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("model needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer widths do not chain: {a.out_dim} -> {b.in_dim}"
                )
        for i, layer in enumerate(self.layers):
            if not (np.isfinite(layer.weight).all() and np.isfinite(layer.bias).all()):
                raise NonFiniteError(f"non-finite parameter in layer {i}")
        self.params, self.shapes = _pack(
            [l.weight for l in self.layers], [l.bias for l in self.layers]
        )
        self.layers = MlpModel.from_params(self.params, self.shapes, self.layers).layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @classmethod
    def from_params(cls, params: np.ndarray, shapes: Shapes, layers: list[Layer]) -> "MlpModel":
        """Wrap an existing (P,) or (K, P) buffer without copying it; ``layers``
        give each layer's activation."""
        model = cls.__new__(cls)
        model.params, model.shapes = params, shapes
        weights, biases = _split(params, shapes)
        model.layers = [
            Layer(w, b, l.activation) for l, w, b in zip(layers, weights, biases)
        ]
        return model

    @classmethod
    def stack(cls, models: list["MlpModel"]) -> "MlpModel":
        """One model holding copies of ``models`` (all of one shape) along a
        leading run axis; row k of its ``params`` is ``models[k].params``."""
        first = models[0]
        if any(m.shapes != first.shapes for m in models):
            raise ShapeError("stacked models must share their layer shapes")
        return cls.from_params(np.stack([m.params for m in models]), first.shapes, first.layers)

    def copy(self) -> "MlpModel":
        return MlpModel(self.layers)


class GradientSet:
    """Parameter gradients laid out like a model's ``params``: ``flat`` is
    one vector and ``d_weights``/``d_biases`` are per-layer views into it.

    Built from per-layer arrays, the set copies them into its own vector.
    Change gradients in place (``d_weights[i][...] = ...``); rebinding a list
    item detaches it from ``flat``, which is what Adam reads."""

    __slots__ = ("flat", "shapes", "d_weights", "d_biases")

    def __init__(self, d_weights, d_biases):
        self.flat, self.shapes = _pack(d_weights, d_biases)
        self.d_weights, self.d_biases = _split(self.flat, self.shapes)

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: Shapes) -> "GradientSet":
        """Wrap an existing vector without copying it."""
        grads = cls.__new__(cls)
        grads.flat, grads.shapes = flat, shapes
        grads.d_weights, grads.d_biases = _split(flat, shapes)
        return grads

    def first_layer_vector(self) -> np.ndarray:
        """First-layer weight and bias gradients as one vector (one per run
        of a stack): a view of the leading part of ``flat``."""
        out_dim, in_dim = self.shapes[0]
        return self.flat[..., : out_dim * (in_dim + 1)]

    def copy(self) -> "GradientSet":
        return GradientSet.from_flat(self.flat.copy(), self.shapes)

    def add_(self, other: "GradientSet") -> "GradientSet":
        self.flat += other.flat
        return self


@dataclass
class ActivationTrace:
    """Everything backward() needs: the input batch plus per-layer pre/post
    activations. Holds a reference to the producing model so stale replays
    are caught."""

    model: MlpModel
    batch: np.ndarray
    pre: list[np.ndarray] = field(default_factory=list)
    post: list[np.ndarray] = field(default_factory=list)

    @property
    def output(self) -> np.ndarray:
        return self.post[-1]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exponentiates only -|x|: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below;
    # min(x, -x) is -|x| that keeps a NaN's sign
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)


def _act(tag: str, x: np.ndarray) -> np.ndarray:
    if tag == "identity":
        return x
    if tag == "relu":
        return np.maximum(x, 0.0)
    if tag == "leaky_relu":
        # branch-free and byte-equal to the np.where form: the larger of x
        # and slope * x, since the slope is in (0, 1]
        return np.maximum(x, LEAKY_SLOPE * x)
    if tag == "tanh":
        return np.tanh(x)
    if tag == "sigmoid":
        return _sigmoid(x)
    raise ValueError(tag)


def _act_backward(tag: str, pre: np.ndarray, post: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """delta times the activation's derivative at ``pre``."""
    if tag == "identity":
        return delta
    if tag == "relu":
        return delta * (pre > 0.0)
    if tag == "leaky_relu":
        # delta times 1 or the slope: one multiply, byte-equal to np.where's pick
        out = np.maximum(pre >= 0.0, LEAKY_SLOPE)
        out *= delta
        return out
    if tag == "tanh":
        return delta * (1.0 - post * post)
    if tag == "sigmoid":
        return delta * (post * (1.0 - post))
    raise ValueError(tag)


def forward(model: MlpModel, batch: np.ndarray) -> ActivationTrace:
    """Run the model on a batch, retaining all intermediates.

    ``batch`` is (B, in_dim) with B >= 1, or (K, B, in_dim) for a stack of K
    models; raises ShapeError on a shape mismatch and NonFiniteError on
    NaN/inf input.
    """
    batch = np.asarray(batch, dtype=np.float64)
    rank = model.params.ndim + 1
    if batch.ndim != rank or batch.shape[:-2] != model.params.shape[:-1]:
        raise ShapeError(f"batch must be {rank}-D with one block per run, got shape {batch.shape}")
    if batch.shape[-2] < 1:
        raise ShapeError("batch must hold at least one row")
    if batch.shape[-1] != model.in_dim:
        raise ShapeError(
            f"batch width {batch.shape[-1]} != model input width {model.in_dim}"
        )
    if not np.isfinite(batch).all():
        raise NonFiniteError("non-finite value in input batch")

    trace = ActivationTrace(model=model, batch=batch)
    x = batch
    for layer in model.layers:
        pre = x @ layer.weight.mT
        pre += layer.bias
        post = _act(layer.activation, pre)
        trace.pre.append(pre)
        trace.post.append(post)
        x = post
    return trace


def backward(
    model: MlpModel,
    trace: ActivationTrace,
    output_grad: np.ndarray,
    params: bool = True,
    inputs: bool = True,
) -> tuple[GradientSet | None, np.ndarray | None]:
    """Backpropagate d(sum_B <output, output_grad>) through the model.

    Returns the parameter gradients and the gradient with respect to the
    input batch, so updates can flow further back through composed models.
    With ``params=False`` only the input gradient is computed and the
    parameter gradients come back as None: the pathway through a model that
    is not being updated. With ``inputs=False`` the first layer's input
    gradient is skipped and comes back as None: the update of a model whose
    input is data. Skipping either leaves the other's bytes unchanged.
    """
    if trace.model is not model:
        raise TraceMismatchError("trace was produced by a different model")
    output_grad = np.asarray(output_grad, dtype=np.float64)
    if output_grad.shape != trace.output.shape:
        raise ShapeError(
            f"output_grad shape {output_grad.shape} != output shape {trace.output.shape}"
        )

    grads = GradientSet.from_flat(np.empty_like(model.params), model.shapes) if params else None
    stacked = model.params.ndim > 1
    delta = output_grad
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        delta = _act_backward(layer.activation, trace.pre[i], trace.post[i], delta)
        if grads is not None:
            below = trace.post[i - 1] if i > 0 else trace.batch
            np.matmul(delta.mT, below, out=grads.d_weights[i])
            np.add.reduce(delta, axis=-2, out=grads.d_biases[i], keepdims=stacked)
        if i == 0 and not inputs:
            return grads, None
        delta = delta @ layer.weight

    return grads, delta


@dataclass
class AdamState:
    """Adam hyperparameters, step count and moments; ``m`` and ``v`` are laid
    out like the model's ``params``."""

    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)
    v: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False)
    shapes: Shapes = ()
    # adam_step's work space, kept between steps (allocating it anew each
    # step costs as much as the update itself); optimizers that never step
    # at the same time may share one
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def for_model(
        cls,
        model: MlpModel,
        lr: float = 2e-4,
        beta1: float = 0.5,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "AdamState":
        return cls(
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            t=0,
            m=np.zeros_like(model.params),
            v=np.zeros_like(model.params),
            shapes=model.shapes,
        )


def adam_step(model: MlpModel, grads: GradientSet, state: AdamState) -> None:
    """One Adam update with bias correction, in place, over the whole
    parameter vector at once.

    Non-finite gradients are rejected before anything is touched, so the
    model is unchanged on error.
    """
    if grads.shapes != model.shapes:
        raise ShapeError("gradient shapes do not match model")
    if not np.isfinite(grads.flat).all():
        raise NonFiniteError("non-finite gradient; model left unchanged")

    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    g, m, v = grads.flat, state.m, state.v
    if state.scratch is None or state.scratch.size < 2 * m.size:
        state.scratch = np.empty(2 * m.size)
    buf = state.scratch[: m.size].reshape(m.shape)
    den = state.scratch[m.size : 2 * m.size].reshape(m.shape)
    # Each line is one rounding of the textbook update, in its order, so the
    # result is bit-equal to applying it tensor by tensor.
    # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
    np.multiply(g, 1.0 - state.beta1, out=buf)
    m *= state.beta1
    m += buf
    np.multiply(g, 1.0 - state.beta2, out=buf)
    buf *= g
    v *= state.beta2
    v += buf
    # params -= (lr (m / bc1)) / (sqrt(v / bc2) + eps)
    np.divide(m, bc1, out=buf)
    buf *= state.lr
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += state.eps
    buf /= den
    model.params -= buf


def init_mlp(dims: list[int], activations: list[str], rng: np.random.Generator) -> MlpModel:
    """Glorot-uniform weights, zero biases.

    ``dims`` is [in, h1, ..., out]; ``activations`` has one tag per layer.
    """
    if len(activations) != len(dims) - 1:
        raise ShapeError("need one activation per layer")
    layers = []
    for d_in, d_out, act in zip(dims, dims[1:], activations):
        bound = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-bound, bound, size=(d_out, d_in))
        layers.append(Layer(w, np.zeros(d_out), act))
    return MlpModel(layers)


def _clamp(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s`` clamped to [1e-7, 1-1e-7] (np.clip's value, NaN included,
    without its Python-level wrapper) and the mask of ``s`` strictly inside."""
    lo, hi = SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP
    return np.minimum(np.maximum(s, lo), hi), (s > lo) & (s < hi)


def clamped_log(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(s) with s clamped to [1e-7, 1-1e-7]; returns (value, d/ds)."""
    c, inside = _clamp(s)
    return np.log(c), np.where(inside, 1.0 / c, 0.0)


def clamped_log1m(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1-s) with s clamped to [1e-7, 1-1e-7]; returns (value, d/ds)."""
    c, inside = _clamp(s)
    return np.log(1.0 - c), np.where(inside, -1.0 / (1.0 - c), 0.0)


def save_models(path, models: dict[str, MlpModel]) -> None:
    """Write named models to one .npz checkpoint; round-trip is bit-exact."""
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, object] = {"format_version": CHECKPOINT_FORMAT_VERSION, "models": {}}
    for name, model in models.items():
        spec = []
        for i, layer in enumerate(model.layers):
            arrays[f"{name}/w{i}"] = layer.weight
            arrays[f"{name}/b{i}"] = layer.bias
            spec.append(
                {
                    "shape": list(layer.weight.shape),
                    "activation": layer.activation,
                    "slope": LEAKY_SLOPE if layer.activation == "leaky_relu" else 0.0,
                }
            )
        meta["models"][name] = spec  # type: ignore[index]
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_models(path) -> dict[str, MlpModel]:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format: {meta.get('format_version')}")
        models = {}
        for name, spec in meta["models"].items():
            for entry in spec:
                if entry["activation"] == "leaky_relu" and entry["slope"] != LEAKY_SLOPE:
                    raise ValueError(f"a leaky_relu layer of {name} has slope {entry['slope']}")
            layers = [
                Layer(data[f"{name}/w{i}"], data[f"{name}/b{i}"], entry["activation"])
                for i, entry in enumerate(spec)
            ]
            models[name] = MlpModel(layers)
    return models
