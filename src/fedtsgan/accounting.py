"""Renyi-DP accounting for the first-layer Gaussian mechanism.

Per training iteration the protected discriminators / feature extractors
satisfy (alpha, alpha/(2*sigma^2))-RDP and the generators, which see two
protected gradient paths, satisfy (alpha, alpha/sigma^2)-RDP. Subsampling
amplification (without replacement, rate gamma) tightens the per-iteration
curve for observers outside the parties; composition over T iterations is
additive; conversion to (epsilon, delta)-DP takes the min over the alpha
grid of eps(alpha) + log(1/delta)/(alpha-1).

The amplification series is evaluated entirely in log space: its tail terms
contain e^{(j-1)eps(j)} factors that overflow float64 by hundreds of orders
of magnitude for small sigma and large alpha.

``privacy_report`` and ``calibrate`` work on ``DEFAULT_ALPHAS``; ``calibrate``
returns the smallest sigma of ``SIGMA_GRID`` (0.01 to 64 in steps of 0.01)
whose amplified generator epsilon meets the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

DEFAULT_ALPHAS = tuple(range(2, 65)) + (80, 96, 128, 256)
# the noise multipliers calibrate searches: 0.01, 0.02, ..., 64
SIGMA_GRID = tuple(0.01 + k * 0.01 for k in range(6400))


class InfeasibleBudgetError(ValueError):
    """No sigma of ``SIGMA_GRID`` meets the requested budget."""


@dataclass(frozen=True)
class RdpCurve:
    alphas: tuple[int, ...]
    eps: tuple[float, ...]

    def __post_init__(self):
        if len(self.alphas) != len(self.eps) or not self.alphas:
            raise ValueError("curve needs matching, non-empty alpha/eps grids")
        if any(a < 2 for a in self.alphas):
            raise ValueError("alpha grid must start at 2")
        if any(b <= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("alpha grid must be strictly increasing")
        if any(e < 0 for e in self.eps):
            raise ValueError("eps values must be non-negative")


def _per_step_eps(alpha: float, sigma: float, generator_mode: bool) -> float:
    # alpha/(2 sigma^2) for protected models, alpha/sigma^2 for generators
    scale = 1.0 if generator_mode else 0.5
    return scale * alpha / (sigma * sigma)


def gaussian_rdp(
    sigma: float,
    alphas=DEFAULT_ALPHAS,
    generator_mode: bool = False,
) -> RdpCurve:
    """Per-iteration RDP curve of the mechanism, without subsampling."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return RdpCurve(
        tuple(int(a) for a in alphas),
        tuple(_per_step_eps(a, sigma, generator_mode) for a in alphas),
    )


def _log_expm1(x: float) -> float:
    # log(e^x - 1), stable across the whole positive range
    if x > 0.693:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _amplified_eps(alpha: int, sigma: float, gamma: float, generator_mode: bool) -> float:
    # Subsampled-RDP bound for integer alpha >= 2. The base mechanism is
    # Gaussian, so eps(inf) = inf and every min{., (e^{eps(inf)}-1)^j}
    # resolves to its finite branch.
    log_gamma = math.log(gamma)
    eps2 = _per_step_eps(2, sigma, generator_mode)
    # j = 2 coefficient: min{4(e^{eps(2)}-1), 2 e^{eps(2)}}
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


def subsample_amplify(
    sigma: float,
    gamma: float,
    alphas=DEFAULT_ALPHAS,
    generator_mode: bool = False,
) -> RdpCurve:
    """Per-iteration curve after without-replacement subsampling at rate
    gamma, evaluated in log space so the series never overflows."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    return RdpCurve(
        tuple(int(a) for a in alphas),
        tuple(_amplified_eps(int(a), sigma, gamma, generator_mode) for a in alphas),
    )


def compose(curve: RdpCurve, steps: int) -> RdpCurve:
    """T homogeneous iterations: pointwise multiplication by T."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return RdpCurve(curve.alphas, tuple(e * steps for e in curve.eps))


def compose_curves(a: RdpCurve, b: RdpCurve) -> RdpCurve:
    """Heterogeneous composition: pointwise sum on a shared grid."""
    if a.alphas != b.alphas:
        raise ValueError("curves live on different alpha grids")
    return RdpCurve(a.alphas, tuple(x + y for x, y in zip(a.eps, b.eps)))


def to_dp(curve: RdpCurve, delta: float) -> tuple[float, int]:
    """Tightest (eps, delta)-DP over the grid; returns (eps, argmin alpha)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    log_inv_delta = -math.log(delta)
    best_eps, best_alpha = math.inf, curve.alphas[0]
    for alpha, eps in zip(curve.alphas, curve.eps):
        candidate = eps + log_inv_delta / (alpha - 1)
        if candidate < best_eps:
            best_eps, best_alpha = candidate, alpha
    return best_eps, best_alpha


def _composed_curve(
    sigma: float,
    gamma: float,
    steps: int,
    alphas=DEFAULT_ALPHAS,
    generator_mode: bool = True,
    amplified: bool = True,
) -> RdpCurve:
    """The per-iteration curve (amplified or not) composed over ``steps``."""
    if amplified:
        curve = subsample_amplify(sigma, gamma, alphas, generator_mode)
    else:
        curve = gaussian_rdp(sigma, alphas, generator_mode)
    return compose(curve, steps)


def spent_epsilon(
    sigma: float,
    gamma: float,
    steps: int,
    delta: float,
    alphas=DEFAULT_ALPHAS,
    generator_mode: bool = True,
    amplified: bool = True,
) -> tuple[float, int]:
    """Full chain: ``_composed_curve`` converted to (eps, delta)-DP."""
    return to_dp(_composed_curve(sigma, gamma, steps, alphas, generator_mode, amplified), delta)


def privacy_report(sigma: float, gamma: float, steps: int, delta: float) -> dict:
    """Both guarantees for both threat surfaces, on ``DEFAULT_ALPHAS``.

    "external" observers (anyone outside the parties and the server)
    benefit from subsampling amplification; internal parties see a fixed
    mini-batch schedule and get the unamplified composition. Each entry
    holds its epsilon, the alpha that attains it and its composed curve.
    """
    report: dict = {
        "sigma": sigma,
        "gamma": gamma,
        "steps": steps,
        "delta": delta,
    }
    for surface, amplified in (("external", True), ("internal", False)):
        entry = {}
        for name, gen_mode in (("discriminator", False), ("generator", True)):
            curve = _composed_curve(sigma, gamma, steps, DEFAULT_ALPHAS, gen_mode, amplified)
            eps, alpha = to_dp(curve, delta)
            entry[name] = {"epsilon": eps, "alpha": alpha, "curve": curve}
        report[surface] = entry
    return report


def calibrate(
    epsilon_target: float, delta: float, gamma: float, steps: int
) -> tuple[float, int, float]:
    """Smallest sigma of ``SIGMA_GRID`` whose released-data guarantee (the
    amplified generator epsilon on ``DEFAULT_ALPHAS``) meets the budget.

    Returns (sigma, steps, achieved epsilon) with achieved <= target, and
    evaluates each grid sigma's epsilon at most once. Raises
    InfeasibleBudgetError when even the grid's largest sigma cannot meet
    the budget.
    """
    if not epsilon_target > 0.0:
        raise ValueError("epsilon target must be positive")

    @cache
    def achieved(k: int) -> float:
        return spent_epsilon(SIGMA_GRID[k], gamma, steps, delta)[0]

    last = len(SIGMA_GRID) - 1
    if achieved(0) <= epsilon_target:
        return SIGMA_GRID[0], steps, achieved(0)
    if achieved(last) > epsilon_target:
        raise InfeasibleBudgetError(
            f"even sigma={SIGMA_GRID[last]:.2f} yields "
            f"epsilon={achieved(last):.4g} > {epsilon_target} "
            f"at T={steps}, gamma={gamma}; raise epsilon or delta, or lower the step count"
        )
    # achieved eps is non-increasing in sigma: bisect for the crossing index
    low, high = 0, last  # achieved(low) > target, achieved(high) <= target
    while high - low > 1:
        mid = (low + high) // 2
        if achieved(mid) <= epsilon_target:
            high = mid
        else:
            low = mid
    return SIGMA_GRID[high], steps, achieved(high)
