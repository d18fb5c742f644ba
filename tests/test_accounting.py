import math

import mpmath as mp
import numpy as np
import pytest

from fedtsgan import accounting as acc

from helpers import reference_amplified_eps


def oracle_amplified_eps(alpha, sigma, gamma, generator_mode=False, prec=256):
    """Direct high-precision summation of the subsampled-RDP series."""
    with mp.workprec(prec):
        s = mp.mpf(sigma)
        g = mp.mpf(gamma)
        scale = mp.mpf(1) if generator_mode else mp.mpf(1) / 2

        def eps(j):
            return scale * j / (s * s)

        lead = min(4 * (mp.e ** eps(2) - 1), 2 * mp.e ** eps(2))
        total = g**2 * mp.binomial(alpha, 2) * lead
        for j in range(3, alpha + 1):
            total += g**j * mp.binomial(alpha, j) * mp.e ** ((j - 1) * eps(j)) * 2
        return mp.log(1 + total) / (alpha - 1)


def oracle_chain(sigma, gamma, steps, delta, alphas, generator_mode=False, prec=256):
    """Amplify + compose + convert, all in high precision."""
    with mp.workprec(prec):
        best = mp.inf
        log_inv_delta = -mp.log(mp.mpf(delta))
        for alpha in alphas:
            e = oracle_amplified_eps(alpha, sigma, gamma, generator_mode, prec) * steps
            best = min(best, e + log_inv_delta / (alpha - 1))
        return best


class TestGaussianRdp:
    def test_alpha2_sigma1(self):
        assert acc.gaussian_rdp(1.0, (2,)).eps[0] == pytest.approx(1.0)

    def test_alpha4_sigma_sqrt2(self):
        assert acc.gaussian_rdp(math.sqrt(2.0), (4,)).eps[0] == pytest.approx(1.0)

    def test_generator_mode_doubles(self):
        assert acc.gaussian_rdp(1.0, (2,), generator_mode=True).eps[0] == pytest.approx(2.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            acc.gaussian_rdp(0.0)

    def test_curve_monotone_in_alpha(self):
        curve = acc.gaussian_rdp(1.3)
        assert all(a <= b for a, b in zip(curve.eps, curve.eps[1:]))


class TestSubsampleAmplify:
    def test_frozen_oracle_value(self):
        # gamma=0.01, sigma=1, alpha=2: ln(1 + 1e-4 * 2e)
        got = acc.subsample_amplify(1.0, 0.01, (2,)).eps[0]
        expected = float(oracle_amplified_eps(2, 1.0, 0.01))
        assert expected == pytest.approx(5.4350863810943e-4, rel=1e-10)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_vanishes_as_gamma_to_zero(self):
        eps = acc.subsample_amplify(1.0, 1e-9, (2, 8, 32)).eps
        assert all(e < 1e-14 for e in eps)

    def test_amplification_never_hurts(self):
        base = acc.gaussian_rdp(2.0)
        amp = acc.subsample_amplify(2.0, 0.05)
        assert all(a <= b for a, b in zip(amp.eps, base.eps))

    def test_matches_oracle_across_alphas(self):
        for sigma, gamma in ((0.8, 0.05), (2.0, 0.01), (4.0, 0.005)):
            curve = acc.subsample_amplify(sigma, gamma)
            for alpha, got in zip(curve.alphas, curve.eps):
                if alpha > 64:
                    continue
                want = float(oracle_amplified_eps(alpha, sigma, gamma))
                assert got == pytest.approx(want, rel=1e-9), (sigma, gamma, alpha)

    def test_log_space_handles_extreme_tail(self):
        # alpha=256 at sigma=0.8: naive evaluation overflows by ~1e5 orders
        curve = acc.subsample_amplify(0.8, 0.05, (256,))
        assert math.isfinite(curve.eps[0])
        assert curve.eps[0] > 0

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            acc.subsample_amplify(1.0, 0.0)
        with pytest.raises(ValueError):
            acc.subsample_amplify(1.0, 1.5)


class TestArraySeries:
    """``_amplified_eps`` sums its series as arrays and keeps the bits of the
    scalar loop in ``helpers.reference_amplified_eps``: every epsilon, and
    so every calibrated sigma."""

    @pytest.mark.parametrize("sigma", [0.01, 0.5, 0.8, 1.0, 1.32, 2.0, 4.0, 64.0])
    def test_each_epsilon_keeps_its_bits(self, sigma):
        for gamma in (0.005, 0.01, 0.05, 0.0625, 0.125, 0.5, 1.0):
            for alpha in acc.DEFAULT_ALPHAS + (300,):
                for gen_mode in (False, True):
                    got = acc._amplified_eps(alpha, sigma, gamma, gen_mode)
                    want = reference_amplified_eps(alpha, sigma, gamma, gen_mode)
                    assert got == want, (sigma, gamma, alpha, gen_mode)

    @pytest.mark.parametrize(
        "epsilon, delta, gamma, steps",
        [
            (10.0, 1e-3, 0.0625, 150),  # sine6-dp-budget's train
            (10.0, 1e-3, 0.5, 2000),  # criterion 7c+7d
            (10.0, 1e-3, 0.05, 2000),  # the calibrate command's round trip
        ],
    )
    def test_calibrate_keeps_its_bits(self, monkeypatch, epsilon, delta, gamma, steps):
        got = acc.calibrate(epsilon, delta, gamma, steps)
        monkeypatch.setattr(acc, "_amplified_eps", reference_amplified_eps)
        assert acc.calibrate(epsilon, delta, gamma, steps) == got

    @pytest.mark.parametrize(
        "sigma, gamma, steps, delta", [(1.32, 0.0625, 150, 1e-3), (1.0, 0.01, 1, 1e-5)]
    )
    def test_account_keeps_its_bits(self, monkeypatch, sigma, gamma, steps, delta):
        got = acc.privacy_report(sigma, gamma, steps, delta)
        monkeypatch.setattr(acc, "_amplified_eps", reference_amplified_eps)
        assert acc.privacy_report(sigma, gamma, steps, delta) == got


class TestCompose:
    def test_pointwise_multiplication(self):
        curve = acc.RdpCurve((2, 3), (0.1, 0.1))
        out = acc.compose(curve, 10)
        assert out.eps == pytest.approx((1.0, 1.0))

    def test_identity_at_one_step(self):
        curve = acc.gaussian_rdp(1.5)
        assert acc.compose(curve, 1) == curve

    def test_associativity(self):
        curve = acc.gaussian_rdp(1.7)
        left = acc.compose(acc.compose(curve, 3), 7)
        right = acc.compose(curve, 21)
        np.testing.assert_allclose(left.eps, right.eps, rtol=1e-12)


class TestToDp:
    def test_single_point(self):
        eps, alpha = acc.to_dp(acc.RdpCurve((2,), (1.0,)), math.exp(-1.0))
        assert eps == pytest.approx(2.0)
        assert alpha == 2

    def test_grid_search_frozen_value(self):
        grid = tuple(range(2, 65))
        curve = acc.RdpCurve(grid, tuple(a / 2 for a in grid))
        eps, alpha = acc.to_dp(curve, 1e-5)
        assert alpha == 6
        assert eps == pytest.approx(3.0 + math.log(1e5) / 5, rel=1e-12)

    def test_delta_to_one_recovers_min_eps(self):
        curve = acc.gaussian_rdp(1.0)
        eps, _ = acc.to_dp(curve, 1.0 - 1e-12)
        assert eps == pytest.approx(min(curve.eps), abs=1e-9)

    def test_singleton_grid_reduces_to_formula(self):
        curve = acc.RdpCurve((5,), (0.7,))
        eps, alpha = acc.to_dp(curve, 1e-3)
        assert alpha == 5
        assert eps == pytest.approx(0.7 + math.log(1e3) / 4, rel=1e-12)


class TestChain:
    def test_matches_oracle(self):
        eps, _ = acc.spent_epsilon(1.0, 0.01, 100, 1e-5, generator_mode=False)
        want = float(oracle_chain(1.0, 0.01, 100, 1e-5, acc.DEFAULT_ALPHAS))
        assert eps == pytest.approx(want, rel=1e-9)

    def test_internal_worse_than_external(self):
        ext, _ = acc.spent_epsilon(2.0, 0.05, 50, 1e-5, amplified=True)
        internal, _ = acc.spent_epsilon(2.0, 0.05, 50, 1e-5, amplified=False)
        assert ext <= internal

    def test_report_structure(self):
        rep = acc.privacy_report(2.0, 0.05, 10, 1e-5)
        assert rep["external"]["generator"]["epsilon"] <= rep["internal"]["generator"]["epsilon"]
        assert rep["external"]["discriminator"]["epsilon"] <= rep["external"]["generator"]["epsilon"]


class TestCalibrate:
    def test_huge_budget_returns_range_minimum(self):
        sigma, _, achieved = acc.calibrate(1e6, 1e-3, 0.05, 10)
        assert sigma == pytest.approx(0.01)
        assert achieved <= 1e6

    def test_forward_chain_self_consistency(self):
        sigma, steps, achieved = acc.calibrate(10.0, 1e-3, 0.05, 2000)
        if achieved != 0:
            redone, _ = acc.spent_epsilon(sigma, 0.05, steps, 1e-3)
            assert abs(redone - achieved) / abs(achieved) < 1e-12

    def test_agrees_with_bisection_oracle(self):
        target, delta, gamma, steps = 10.0, 1e-3, 0.05, 2000
        sigma, _, achieved = acc.calibrate(target, delta, gamma, steps)
        assert achieved <= target

        lo, hi = 0.01, 64.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if acc.spent_epsilon(mid, gamma, steps, delta)[0] <= target:
                hi = mid
            else:
                lo = mid
        assert abs(sigma - hi) <= 0.01 + 1e-9

    def test_infeasible_reported(self):
        with pytest.raises(acc.InfeasibleBudgetError):
            acc.calibrate(1e-6, 1e-3, 0.5, 100000)

    @pytest.mark.parametrize(
        "epsilon, delta, gamma, steps",
        [
            (10.0, 1e-3, 0.0625, 150),
            (10.0, 1e-3, 0.5, 2000),
            (10.0, 1e-3, 0.05, 2000),
            (1e6, 1e-3, 0.05, 10),
        ],
        ids=["sine6", "gamma-half", "calibrate-command", "first-sigma"],
    )
    def test_returns_the_first_grid_sigma_that_meets_the_budget(self, epsilon, delta, gamma, steps):
        # the exact grid point, where the bisection oracle above allows 0.01
        sigma, _, achieved = acc.calibrate(epsilon, delta, gamma, steps)
        k = acc.SIGMA_GRID.index(sigma)
        assert acc.spent_epsilon(sigma, gamma, steps, delta)[0] == achieved <= epsilon
        if k > 0:
            assert acc.spent_epsilon(acc.SIGMA_GRID[k - 1], gamma, steps, delta)[0] > epsilon

    @pytest.mark.parametrize(
        "budget",
        [
            (10.0, 1e-3, 1 / 16, 150),  # the sine6 budget-mode benchmark
            (10.0, 1e-3, 0.5, 2000),
            (1e-6, 1e-3, 0.5, 100000),  # infeasible
            (1e6, 1e-3, 0.05, 10),  # the grid's first sigma suffices
        ],
        ids=["sine6", "gamma-half", "infeasible", "first-sigma"],
    )
    def test_each_grid_sigma_is_evaluated_once(self, monkeypatch, budget):
        sigmas = []

        def counted(sigma, *args, **kwargs):
            sigmas.append(sigma)
            return spent(sigma, *args, **kwargs)

        spent = acc.spent_epsilon
        monkeypatch.setattr(acc, "spent_epsilon", counted)
        try:
            acc.calibrate(*budget)
        except acc.InfeasibleBudgetError:
            pass
        assert sigmas and len(sigmas) == len(set(sigmas))


class TestMonotonicity:
    def test_achieved_eps_monotone(self):
        sigmas = (0.8, 1.0, 2.0)
        gammas = (0.005, 0.01, 0.05)
        steps = (1, 100, 2000)
        table = {
            (s, g, t): acc.spent_epsilon(s, g, t, 1e-5)[0]
            for s in sigmas
            for g in gammas
            for t in steps
        }
        for g in gammas:
            for t in steps:
                assert table[(0.8, g, t)] >= table[(1.0, g, t)] >= table[(2.0, g, t)]
        for s in sigmas:
            for g in gammas:
                assert table[(s, g, 1)] <= table[(s, g, 100)] <= table[(s, g, 2000)]
            for t in steps:
                assert table[(s, 0.005, t)] <= table[(s, 0.01, t)] <= table[(s, 0.05, t)]


class TestRdpCurveInvariants:
    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            acc.RdpCurve((2, 2), (0.1, 0.1))

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            acc.RdpCurve((2, 3), (0.1, -0.1))

    @pytest.mark.parametrize("eps", [(math.nan, 0.5), (math.nan, math.nan)], ids=["one", "all"])
    def test_rejects_nan_eps(self, eps):
        # an all-NaN curve would convert to (inf, 2)
        with pytest.raises(ValueError):
            acc.RdpCurve((2, 3), eps)

    def test_rejects_alpha_below_two(self):
        with pytest.raises(ValueError):
            acc.RdpCurve((1, 2), (0.1, 0.1))
