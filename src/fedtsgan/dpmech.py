"""First-layer clip-and-noise Gaussian mechanism.

The protected surface is the flattened first-layer gradient (weights+bias as
one vector) of each local attribute discriminator and feature extractor:
scale it to L2 norm at most C, then add N(0, (2*C*sigma)^2) per coordinate.
Deeper layers pass through untouched. Each protected model owns a private
noise stream so disabling noise never shifts any other draw in a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import GradientSet


@dataclass(frozen=True)
class DpParams:
    clip: float  # L2 bound C on the flattened first-layer gradient
    sigma: float  # noise multiplier; per-coordinate std is 2*C*sigma

    def __post_init__(self):
        if not self.clip >= MIN_CLIP:
            raise ValueError(f"clip bound must be at least {MIN_CLIP:.3g}")
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError("sigma must be finite and >= 0")
        if self.clip == math.inf and self.sigma > 0.0:
            raise ValueError("an infinite clip bound needs sigma = 0 (noise std 2*C*sigma)")


# Half the square root of the largest float64: a vector of this norm has a
# finite squared norm, so its computed norm can be checked against a bound.
# A vector of norm above about 1.34e154 cannot, and no nudge fixes that.
MAX_CLIPPED_NORM = math.sqrt(np.finfo(np.float64).max) / 2
# The square root of the smallest normal float64: at or above it, norm / clip is
# finite for a finite norm and clip**2 is normal, so the bound check measures.
MIN_CLIP = math.sqrt(np.finfo(np.float64).tiny)


def first_layer_norm(grads: GradientSet) -> float:
    return float(np.linalg.norm(grads.first_layer_vector()))


def clip_first_layer(grads: GradientSet, clip: float) -> GradientSet:
    """Scale the first-layer gradient to norm <= clip; direction preserved,
    deeper layers bit-identical.

    The bound is enforced exactly, not to rounding: division can leave the
    recomputed norm an ulp or two above clip, so the scale is nudged up
    until the bound holds.

    A first layer holding NaN or inf has no bounded rescaling and comes back
    unclipped, for the caller's finiteness check to reject. Finite entries
    whose squared norm overflows are first divided by their largest
    magnitude, which makes the norm finite and keeps the direction; the
    result is then scaled to norm clip, or to ``MAX_CLIPPED_NORM`` when clip
    is a larger finite bound. A bound below ``MIN_CLIP`` raises ValueError.
    """
    if not clip >= MIN_CLIP:
        raise ValueError(f"clip bound must be at least {MIN_CLIP:.3g}")
    out = grads.copy()
    vec = grads.first_layer_vector()
    norm = first_layer_norm(grads)
    if math.isinf(norm):
        if math.isinf(clip) or not np.isfinite(vec).all():
            return out
        vec = vec / np.max(np.abs(vec))
        scale = float(np.linalg.norm(vec)) / min(clip, MAX_CLIPPED_NORM)
    else:
        scale = max(1.0, norm / clip)  # 1.0 for a NaN norm
        if scale == 1.0:
            return out
    # in place: the view shares storage with out.flat, which Adam reads
    clipped = out.first_layer_vector()
    while True:
        np.divide(vec, scale, out=clipped)
        if first_layer_norm(out) <= clip:
            break
        scale = math.nextafter(scale, math.inf)
    return out


def perturb_first_layer(
    grads: GradientSet, clip: float, sigma: float, rng: np.random.Generator
) -> GradientSet:
    """Clip, then add i.i.d. Gaussian noise of std 2*clip*sigma to every
    first-layer coordinate. sigma=0 reduces exactly to clip_first_layer and
    draws nothing.

    The noise is one ``rng.normal`` draw of the whole first-layer vector,
    weights first, then biases: the bytes of a weight draw followed by a
    bias draw from ``rng``."""
    out = clip_first_layer(grads, clip)
    if sigma > 0.0:
        vec = out.first_layer_vector()
        vec += rng.normal(0.0, 2.0 * clip * sigma, size=vec.shape)
    return out
