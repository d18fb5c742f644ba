import numpy as np
import pytest

from fedtsgan import nn

from helpers import (
    finite_diff_check,
    gradcheck_draw,
    kink_free_input,
    m_weights,
    params_blob,
    quadratic_loss,
    random_mlp,
)


def zero_gradients(model):
    return nn.GradientSet.from_flat(np.zeros_like(model.params), model.shapes)


def identity_model(dim=2):
    return nn.MlpModel([nn.Layer(np.eye(dim), np.zeros(dim), "identity")])


class TestForward:
    def test_identity_passthrough(self, rng):
        x = rng.standard_normal((3, 2))
        out = nn.forward(identity_model(), x).output
        np.testing.assert_array_equal(out, x)

    def test_affine_arithmetic(self):
        model = nn.MlpModel([nn.Layer(np.array([[2.0]]), np.array([1.0]), "identity")])
        out = nn.forward(model, np.array([[3.0]])).output
        assert out[0, 0] == 7.0

    def test_random_model_shape_and_finite(self, rng):
        model = random_mlp(rng, n_layers=3)
        x = rng.standard_normal((4, model.in_dim))
        out = nn.forward(model, x).output
        assert out.shape == (4, model.out_dim)
        assert np.isfinite(out).all()

    def test_width_mismatch_raises(self, rng):
        model = random_mlp(rng)
        with pytest.raises(nn.ShapeError):
            nn.forward(model, np.zeros((2, model.in_dim + 1)))

    def test_non_finite_input_raises(self, rng):
        model = random_mlp(rng)
        x = np.zeros((2, model.in_dim))
        x[0, 0] = np.nan
        with pytest.raises(nn.NonFiniteError):
            nn.forward(model, x)


class TestBackward:
    def test_linear_layer_calculus(self):
        model = identity_model(2)
        x = np.array([[1.0, 2.0]])
        trace = nn.forward(model, x)
        grads, input_grad = nn.backward(model, trace, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(grads.d_weights[0], np.outer([1.0, 1.0], [1.0, 2.0]))
        np.testing.assert_array_equal(grads.d_biases[0], [1.0, 1.0])
        np.testing.assert_array_equal(input_grad, [[1.0, 1.0]])

    def test_zero_output_grad_gives_zero_everything(self, rng):
        model = random_mlp(rng, n_layers=2)
        x = rng.standard_normal((3, model.in_dim))
        trace = nn.forward(model, x)
        grads, input_grad = nn.backward(model, trace, np.zeros_like(trace.output))
        assert not np.any(grads.first_layer_vector())
        assert not np.any(input_grad)
        assert all(not g.any() for g in grads.d_weights)

    def test_matches_finite_differences(self, rng):
        model = random_mlp(rng, n_layers=2, activations=["tanh", "identity"])
        x = rng.standard_normal((3, model.in_dim))
        assert finite_diff_check(model, x, quadratic_loss) < 1e-5

    def test_stale_trace_rejected(self, rng):
        model = random_mlp(rng)
        other = model.copy()
        trace = nn.forward(model, rng.standard_normal((2, model.in_dim)))
        with pytest.raises(nn.TraceMismatchError):
            nn.backward(other, trace, np.zeros_like(trace.output))

    def test_input_grad_matches_finite_differences(self, rng):
        # the pathway generator updates rely on: d loss / d input
        model = random_mlp(rng, n_layers=2, activations=["tanh", "sigmoid"])
        x = rng.standard_normal((2, model.in_dim))
        trace = nn.forward(model, x)
        _, out_grad = quadratic_loss(trace.output)
        _, input_grad = nn.backward(model, trace, out_grad)
        h = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                lp, _ = quadratic_loss(nn.forward(model, xp).output)
                lm, _ = quadratic_loss(nn.forward(model, xm).output)
                numeric = (lp - lm) / (2 * h)
                assert abs(numeric - input_grad[i, j]) < 1e-6 * max(1.0, abs(numeric))


class TestGradientExactness:
    """Every layer type against central differences, many random draws."""

    @pytest.mark.parametrize(
        "act, seed",
        [("identity", 10), ("tanh", 11), ("sigmoid", 12), ("relu", 13), ("leaky_relu", 14)],
    )
    def test_layer_type(self, act, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            model, x = gradcheck_draw(rng, [act, act], quadratic_loss)
            assert finite_diff_check(model, x, quadratic_loss) < 1e-5

    def test_shape_closure(self, rng):
        model = random_mlp(rng, n_layers=3)
        shapes = [(l.weight.shape, l.bias.shape) for l in model.layers]
        trace = nn.forward(model, rng.standard_normal((2, model.in_dim)))
        grads, _ = nn.backward(model, trace, np.ones_like(trace.output))
        assert [(w.shape, b.shape) for w, b in zip(grads.d_weights, grads.d_biases)] == shapes
        assert [(l.weight.shape, l.bias.shape) for l in model.layers] == shapes


class TestAdam:
    def test_zero_gradient_is_fixed_point(self, rng):
        model = random_mlp(rng)
        state = nn.AdamState.for_model(model)
        before = params_blob(model)
        nn.adam_step(model, zero_gradients(model), state)
        assert params_blob(model) == before

    def test_zero_lr_freezes_params_but_moves_moments(self, rng):
        model = random_mlp(rng)
        state = nn.AdamState.for_model(model, lr=0.0)
        trace = nn.forward(model, rng.standard_normal((2, model.in_dim)))
        grads, _ = nn.backward(model, trace, np.ones_like(trace.output))
        before = params_blob(model)
        nn.adam_step(model, grads, state)
        assert params_blob(model) == before
        assert state.t == 1
        assert any(m.any() for m in m_weights(state))

    def test_single_scalar_first_step(self):
        # hand evaluation: m_hat = v_hat = 1, update = lr / (1 + eps)
        lr = 2e-4
        model = nn.MlpModel([nn.Layer(np.array([[1.0]]), np.array([0.0]), "identity")])
        state = nn.AdamState.for_model(model, lr=lr)
        grads = nn.GradientSet([np.array([[1.0]])], [np.array([0.0])])
        nn.adam_step(model, grads, state)
        assert model.layers[0].weight[0, 0] == pytest.approx(1.0 - lr / (1.0 + 1e-8), abs=1e-18)

    def test_non_finite_gradient_rejected_atomically(self, rng):
        model = random_mlp(rng)
        state = nn.AdamState.for_model(model)
        grads = zero_gradients(model)
        grads.d_weights[0][0, 0] = np.inf
        before = params_blob(model)
        with pytest.raises(nn.NonFiniteError):
            nn.adam_step(model, grads, state)
        assert params_blob(model) == before
        assert state.t == 0

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            model = nn.init_mlp([3, 4, 2], ["tanh", "identity"], rng)
            state = nn.AdamState.for_model(model)
            for _ in range(5):
                x = rng.standard_normal((3, 3))
                trace = nn.forward(model, x)
                grads, _ = nn.backward(model, trace, np.ones_like(trace.output))
                nn.adam_step(model, grads, state)
            return params_blob(model)

        assert run() == run()


class TestFiniteDiffCheck:
    def test_linear_quadratic_is_near_exact(self, rng):
        model = nn.init_mlp([3, 2], ["identity"], rng)
        x = rng.standard_normal((4, 3))
        assert finite_diff_check(model, x, quadratic_loss) < 1e-9

    def test_relu_away_from_kinks(self):
        rng = np.random.default_rng(3)
        model = random_mlp(rng, n_layers=2, activations=["relu", "identity"])
        x = kink_free_input(model, rng)
        assert finite_diff_check(model, x, quadratic_loss) < 1e-5


class TestClampedLogs:
    def test_values_and_grads_inside(self):
        s = np.array([0.25, 0.5])
        val, grad = nn.clamped_log(s)
        np.testing.assert_allclose(val, np.log(s))
        np.testing.assert_allclose(grad, 1.0 / s)
        val1m, grad1m = nn.clamped_log1m(s)
        np.testing.assert_allclose(val1m, np.log1p(-s))
        np.testing.assert_allclose(grad1m, -1.0 / (1.0 - s))

    def test_clamped_at_boundaries(self):
        val, grad = nn.clamped_log(np.array([0.0, 1.0]))
        np.testing.assert_allclose(val, [np.log(1e-7), np.log(1.0 - 1e-7)])
        assert not grad.any()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        models = {
            "gen": random_mlp(rng, n_layers=3),
            "disc": random_mlp(rng, n_layers=2, activations=["leaky_relu", "sigmoid"]),
        }
        path = tmp_path / "ckpt.npz"
        nn.save_models(path, models)
        loaded = nn.load_models(path)
        assert set(loaded) == set(models)
        for name in models:
            for a, b in zip(models[name].layers, loaded[name].layers):
                assert a.weight.tobytes() == b.weight.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()
                assert a.activation == b.activation

    @pytest.mark.parametrize(
        "stored",
        [0.3, 0.0, 0.5, 1.0, 1.0 - 2.0**-53, 1.7, -0.3,
         np.nextafter(nn.LEAKY_SLOPE, 0.0), np.nextafter(nn.LEAKY_SLOPE, 1.0),
         float(np.float32(nn.LEAKY_SLOPE)), -nn.LEAKY_SLOPE, np.nan, np.inf],
    )
    def test_a_leaky_layer_stores_the_one_slope_and_must_load_it(self, rng, tmp_path, stored):
        import json
        import re

        path = tmp_path / "ckpt.npz"
        model = random_mlp(rng, n_layers=3, activations=["leaky_relu", "tanh", "sigmoid"])
        nn.save_models(path, {"m": model})
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        assert [layer["slope"] for layer in meta["models"]["m"]] == [nn.LEAKY_SLOPE, 0.0, 0.0]
        meta["models"]["m"][0]["slope"] = float(stored)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(f"slope {float(stored)}")):
            nn.load_models(path)

    def test_format_version_checked(self, rng, tmp_path):
        import json

        path = tmp_path / "ckpt.npz"
        nn.save_models(path, {"m": random_mlp(rng)})
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["format_version"] = 999
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError):
            nn.load_models(path)


class TestModelInvariants:
    def test_dimension_chain_enforced(self):
        with pytest.raises(nn.ShapeError):
            nn.MlpModel(
                [
                    nn.Layer(np.zeros((2, 3)), np.zeros(2), "identity"),
                    nn.Layer(np.zeros((1, 5)), np.zeros(1), "identity"),
                ]
            )

    def test_non_finite_params_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(nn.NonFiniteError):
            nn.MlpModel([nn.Layer(w, np.zeros(2), "identity")])
