import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedtsgan
from fedtsgan import nn
from fedtsgan.dpmech import (
    MIN_CLIP,
    DpParams,
    clip_first_layer,
    first_layer_norm,
    perturb_first_layer,
)

from helpers import random_mlp, sensitivity_check


def grads_with_first_layer(vec, deeper_shape=(3, 2)):
    """Two-layer gradient set whose first layer flattens to ``vec``."""
    vec = np.asarray(vec, dtype=np.float64)
    w = vec[:-1].reshape(1, -1) if vec.size > 1 else vec.reshape(1, 1)
    b = vec[-1:] if vec.size > 1 else np.zeros(1)
    return nn.GradientSet(
        [w, np.ones(deeper_shape)], [b, np.ones(deeper_shape[0])]
    )


def run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter with a timeout, so that a
    clip that never returns fails the test instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(fedtsgan.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestClip:
    def test_large_norm_scaled_to_bound(self):
        g = grads_with_first_layer([6.0, 8.0, 0.0])  # norm 10
        out = clip_first_layer(g, 1.0)
        assert first_layer_norm(out) == pytest.approx(1.0, abs=1e-15)
        # direction preserved
        np.testing.assert_allclose(
            out.first_layer_vector() * 10.0, g.first_layer_vector()
        )

    def test_small_norm_untouched(self):
        g = grads_with_first_layer([0.3, 0.4, 0.0])  # norm 0.5
        out = clip_first_layer(g, 1.0)
        np.testing.assert_array_equal(out.first_layer_vector(), g.first_layer_vector())

    def test_boundary_case_exact(self):
        g = grads_with_first_layer([3.0, 4.0])  # norm 5
        out = clip_first_layer(g, 5.0)
        np.testing.assert_array_equal(out.first_layer_vector(), g.first_layer_vector())

    def test_deeper_layers_untouched(self):
        g = grads_with_first_layer([100.0, 0.0, 0.0])
        out = clip_first_layer(g, 1.0)
        assert out.d_weights[1].tobytes() == g.d_weights[1].tobytes()
        assert out.d_biases[1].tobytes() == g.d_biases[1].tobytes()

    def test_input_not_mutated(self):
        g = grads_with_first_layer([100.0, 0.0, 0.0])
        before = g.first_layer_vector().copy()
        clip_first_layer(g, 1.0)
        np.testing.assert_array_equal(g.first_layer_vector(), before)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("vec", [[100.0, -3.0, 7.0], [1e200, -1e200, 3.0]])
    def test_infinite_bound_is_identity(self, vec):
        g = grads_with_first_layer(vec)
        out = clip_first_layer(g, np.inf)
        assert out.first_layer_vector().tobytes() == g.first_layer_vector().tobytes()

    def test_non_finite_entry_comes_back_unclipped_without_hanging(self):
        # in a fresh interpreter with a timeout: an inf entry once kept the
        # nudge loop running forever, and in a stack that stalls every run
        code = (
            "import numpy as np\n"
            "from fedtsgan import nn\n"
            "from fedtsgan.dpmech import clip_first_layer, perturb_first_layer\n"
            "for vec in ([np.inf, 1.0, 2.0], [-np.inf, np.inf, 0.0], [np.nan, np.inf, 1.0]):\n"
            "    g = nn.GradientSet([np.array([vec[:-1]]), np.ones((3, 2))], [np.array(vec[-1:]), np.ones(3)])\n"
            "    out = clip_first_layer(g, 1.0)\n"
            "    assert out.flat.tobytes() == g.flat.tobytes()\n"
            "    noisy = perturb_first_layer(g, 1.0, 0.5, np.random.default_rng(0))\n"
            "    assert not np.isfinite(noisy.first_layer_vector()).all()\n"
            "print('returned')\n"
        )
        assert run_fresh(code) == "returned"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bound", [1.0, 1e3, 0.25])
    def test_finite_entries_whose_norm_overflows_are_clipped(self, bound):
        # the norm is inf, yet the clipped vector has norm bound, not 0, and
        # keeps the direction: the signs and the ratio of the two large entries
        g = grads_with_first_layer([1e200, -1e200, 3.0])
        assert first_layer_norm(g) == np.inf
        out = clip_first_layer(g, bound)
        vec = out.first_layer_vector()
        assert bound * (1 - 1e-12) <= first_layer_norm(out) <= bound
        assert np.array_equal(np.sign(vec), [1.0, -1.0, 1.0])
        assert vec[0] == -vec[1]
        assert out.d_weights[1].tobytes() == g.d_weights[1].tobytes()

    def test_overflowing_norm_under_a_huge_bound_stops_at_a_measurable_norm(self):
        # no vector of norm above ~1.34e154 has a finite computed norm, so a
        # larger bound once kept the nudge loop running forever
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fedtsgan import nn\n"
            "from fedtsgan.dpmech import MAX_CLIPPED_NORM, clip_first_layer, first_layer_norm\n"
            "g = nn.GradientSet([np.array([[1e200, -1e200]]), np.ones((3, 2))], [np.array([3.0]), np.ones(3)])\n"
            "for bound in (1e160, 1e300, sys.float_info.max):\n"
            "    out = clip_first_layer(g, bound)\n"
            "    assert MAX_CLIPPED_NORM * (1 - 1e-12) <= first_layer_norm(out) <= MAX_CLIPPED_NORM\n"
            "    assert np.array_equal(np.sign(out.first_layer_vector()), [1.0, -1.0, 1.0])\n"
            "print('returned')\n"
        )
        assert run_fresh(code) == "returned"

    def test_a_bound_below_the_floor_is_rejected(self):
        # under C = 1e-300, norm / C overflows and this vector clipped to
        # [0, -0, 0]; at the floor it keeps a nonzero, measurable norm
        g = grads_with_first_layer([1e10, -1.0, 2.0])
        for bound in (1e-300, np.nextafter(MIN_CLIP, 0.0), 0.0, np.nan):
            with pytest.raises(ValueError, match="clip bound must be at least"):
                clip_first_layer(g, bound)
            with pytest.raises(ValueError, match="clip bound must be at least"):
                DpParams(bound, 1.0)
        vec = clip_first_layer(g, MIN_CLIP).first_layer_vector()
        assert 0.0 < float(np.linalg.norm(vec)) <= MIN_CLIP
        assert np.array_equal(np.sign(vec), [1.0, -1.0, 1.0])
        np.testing.assert_allclose(vec / vec[0], [1.0, -1e-10, 2e-10], rtol=1e-12)
        assert DpParams(MIN_CLIP, 1.0).clip == MIN_CLIP

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8),
           st.floats(0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_post_clip_norm_never_exceeds_bound(self, vec, bound):
        out = clip_first_layer(grads_with_first_layer(vec), bound)
        assert first_layer_norm(out) <= bound * (1 + 1e-15)


class TestPerturb:
    def test_sigma_zero_equals_clip(self, rng):
        g = grads_with_first_layer([5.0, 5.0, 5.0])
        a = perturb_first_layer(g, 1.0, 0.0, rng)
        b = clip_first_layer(g, 1.0)
        assert a.first_layer_vector().tobytes() == b.first_layer_vector().tobytes()

    def test_noise_std_scale(self):
        rng = np.random.default_rng(8)
        c, sigma = 1.0, 1.0
        dim = 200
        draws = []
        g = grads_with_first_layer(np.zeros(dim))
        for _ in range(500):
            out = perturb_first_layer(g, c, sigma, rng)
            draws.append(out.first_layer_vector())
        noise = np.concatenate(draws)  # 100_000 zero-mean samples
        assert 1.96 <= noise.std() <= 2.04  # target 2*c*sigma = 2

    def test_deeper_layer_bits_unchanged(self, rng):
        g = grads_with_first_layer([9.0, 9.0, 9.0])
        out = perturb_first_layer(g, 0.5, 2.0, rng)
        assert out.d_weights[1].tobytes() == g.d_weights[1].tobytes()

    @pytest.mark.parametrize(
        "clip, sigma",
        [(1.0, 0.5), (0.3, 1.32), (MIN_CLIP, 1e-170), (1e150, 2.0)],
        ids=["unit", "clipped", "underflow", "huge"],
    )
    def test_noise_is_a_weight_then_a_bias_generator_normal_draw(self, clip, sigma):
        # the bytes, signed zeros and underflow included, of rng.normal
        # drawn for the weights, then for the biases, added to the clipped view
        g = grads_with_first_layer(np.linspace(-3.0, 3.0, 7))
        out = perturb_first_layer(g, clip, sigma, np.random.default_rng(11))
        want = clip_first_layer(g, clip)
        rng = np.random.default_rng(11)
        for layer in (want.d_weights[0], want.d_biases[0]):
            layer += rng.normal(0.0, 2.0 * clip * sigma, size=layer.shape)
        assert out.flat.tobytes() == want.flat.tobytes()

    def test_clips_before_noising(self, rng):
        g = grads_with_first_layer([1000.0, 0.0, 0.0])
        out = perturb_first_layer(g, 1.0, 0.0, rng)
        assert first_layer_norm(out) <= 1.0 + 1e-15


class TestDpParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DpParams(0.0, 1.0)
        with pytest.raises(ValueError):
            DpParams(1.0, -1.0)
        with pytest.raises(ValueError):
            DpParams(1.0, np.inf)

    def test_infinite_bound_with_noise_rejected(self):
        # its per-coordinate noise std 2*C*sigma would be inf
        with pytest.raises(ValueError, match="infinite clip"):
            DpParams(np.inf, 1.0)

    def test_passthrough_configuration_allowed(self):
        p = DpParams(np.inf, 0.0)
        assert (p.clip, p.sigma) == (np.inf, 0.0)


def bce_real_grads(model, batch):
    trace = nn.forward(model, batch)
    _, dlog = nn.clamped_log(trace.output)
    grads, _ = nn.backward(model, trace, -dlog / batch.shape[0])
    return grads


class TestSensitivity:
    def _factory(self, seed):
        def make(trial):
            gen = np.random.default_rng(seed + trial)
            return nn.init_mlp([6, 5, 1], ["leaky_relu", "sigmoid"], gen)

        return make

    def _pairs(self, seed, adversarial=False):
        def make(trial):
            gen = np.random.default_rng(10_000 + seed + trial)
            a = gen.standard_normal((4, 6))
            b = a.copy()
            b[gen.integers(0, 4)] = (
                gen.standard_normal(6) * (100.0 if adversarial else 1.0)
            )
            return a, b

        return make

    def test_bound_holds_on_adversarial_pairs(self):
        c = 1.0
        worst = sensitivity_check(
            self._factory(0), self._pairs(0, adversarial=True), bce_real_grads, c, 100
        )
        assert worst <= 2 * c + 1e-12

    def test_identical_batches_give_zero(self):
        def pairs(trial):
            gen = np.random.default_rng(trial)
            a = gen.standard_normal((4, 6))
            b = a.copy()
            b[0] = a[0]  # replace with itself: still "one record replaced"
            return a, b

        # a pair that does not differ must be rejected by the harness
        with pytest.raises(ValueError, match="exactly one"):
            sensitivity_check(self._factory(1), pairs, bce_real_grads, 1.0, 1)

    def test_bound_at_c_07(self):
        worst = sensitivity_check(
            self._factory(2), self._pairs(2), bce_real_grads, 0.7, 100
        )
        assert worst <= 1.4 + 1e-12

    def test_non_adjacent_pair_rejected(self):
        def pairs(trial):
            gen = np.random.default_rng(trial)
            a = gen.standard_normal((4, 6))
            b = gen.standard_normal((4, 6))
            return a, b

        with pytest.raises(ValueError):
            sensitivity_check(self._factory(3), pairs, bce_real_grads, 1.0, 1)
