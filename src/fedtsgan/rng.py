"""Deterministic per-purpose random streams derived from one master seed.

Every consumer (model init, latent draws, batch subsampling, noise, eval)
gets its own PCG64 stream keyed by a tag tuple, so adding or removing one
consumer never shifts the draws of another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_seed(master_seed: int, *tags) -> int:
    payload = repr((int(master_seed),) + tags).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:16], "little")


def stream(master_seed: int, *tags) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, *tags)))


def child_seed(master_seed: int, *tags) -> int:
    """A derived master seed: one draw of the stream keyed by ``tags``."""
    return int(stream(master_seed, *tags).integers(0, 2**63 - 1))
