"""Leave-one-out membership-inference auditing of synthetic releases.

The auditor knows the whole training set except one target sample. Shadow
generators are trained M times without the target (world 0) and M times
with it (world 1); each release is scored by the sum of the target's k
nearest synthetic neighbour distances, and the two score samples are
compared by AUC-ROC (smaller score read as "target present"). A companion
game plays the challenge version round by round against a threshold
adversary.

All distances operate on flattened samples after per-attribute z-scoring
with statistics taken from the real dataset, so large-scale attributes
cannot dominate the norm.

Every function here trains through a shadow trainer: ``trainer(jobs)``
takes a list of ``(dataset, seed)`` jobs and returns one release per job,
in job order - the synthetic dataset of a federation trained on that
dataset with that seed, or None where the run diverged.
``federation.shadow_trainer`` builds the real one. A trainer that returns
fewer or more releases than jobs is an error (``ValueError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TimeSeriesDataset
from .rng import child_seed, stream


@dataclass
class AuditConfig:
    selector: str = "outlier"  # outlier, influential, or a sample index
    shadow_pairs: int = 10  # M generators per world
    knn_k: int = 5
    candidate_m: int = 10
    norm: int = 2
    synth_samples: int | None = None  # default: same size as the training set
    seed: int = 0
    rounds: int = 0  # challenge-game rounds played after the audit

    def __post_init__(self):
        if self.selector not in ("outlier", "influential") and not self.selector.isdecimal():
            raise ValueError(f"selector must be outlier, influential or an index: {self.selector!r}")
        if self.shadow_pairs < 2:
            raise ValueError("need at least 2 shadow generators per world")
        if self.knn_k < 1 or self.candidate_m < 1:
            raise ValueError("knn_k and candidate_m must be >= 1")
        if self.norm not in (1, 2):
            raise ValueError("norm order must be 1 or 2")
        if self.synth_samples is not None and self.synth_samples < 1:
            raise ValueError("synth_samples must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")


@dataclass
class AuditReport:
    target_index: int
    selector: str
    auc: float
    features_world0: list[float]  # target absent
    features_world1: list[float]  # target present
    invalid_runs: int = 0
    win_rate: float | None = None
    config: dict = field(default_factory=dict)


def attribute_stats(dataset: TimeSeriesDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-attribute mean/std over samples and time, for z-scoring."""
    mean = dataset.data.mean(axis=(0, 2))
    std = np.maximum(dataset.data.std(axis=(0, 2)), 1e-12)
    return mean, std


def normalized_flat(data: np.ndarray, stats: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(N, A, T) -> (N, A*T) after per-attribute z-scoring; a single sample
    (A, T) becomes a flat vector."""
    mean, std = stats
    single = data.ndim == 2
    if single:
        data = data[None]
    z = (data - mean[None, :, None]) / std[None, :, None]
    flat = z.reshape(z.shape[0], -1)
    return flat[0] if single else flat


def _distances(x: np.ndarray, pool: np.ndarray, norm: int) -> np.ndarray:
    """Distances from x (a flat vector, or a block of them) to each pool row."""
    return np.linalg.norm(pool - x[..., None, :], ord=norm, axis=-1)


BLOCK_FLOATS = 2**20  # size of one block of pairwise differences (8 MiB)


def _isolation(flat: np.ndarray, norm: int) -> np.ndarray:
    """Nearest-neighbour distance of each sample to the rest.

    Rows go in blocks through ``_distances``, so every value is the one a
    per-row loop computes."""
    n = flat.shape[0]
    out = np.empty(n)
    step = max(1, BLOCK_FLOATS // flat.size)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        d = _distances(flat[i0:i1], flat, norm)
        rows = np.arange(i1 - i0)
        d[rows, i0 + rows] = np.inf
        out[i0:i1] = d.min(axis=1)
    return out


def select_target_outlier(dataset: TimeSeriesDataset, norm: int = 2) -> int:
    """Most isolated sample: argmax over samples of the nearest-neighbour
    distance; ties go to the lowest index."""
    if dataset.n_samples < 2:
        raise ValueError("need at least 2 samples")
    flat = normalized_flat(dataset.data, attribute_stats(dataset))
    return int(np.argmax(_isolation(flat, norm)))


def knn_feature(target_flat: np.ndarray, synth_flat: np.ndarray, k: int, norm: int = 2) -> float:
    """Sum of the k smallest distances from the target to the synthetic
    samples; near zero when the release contains close copies."""
    synth_flat = np.atleast_2d(synth_flat)
    if k > synth_flat.shape[0]:
        raise ValueError(f"k={k} exceeds synthetic size {synth_flat.shape[0]}")
    d = _distances(np.asarray(target_flat, dtype=np.float64).ravel(), synth_flat, norm)
    return float(np.sort(d)[:k].sum())


def select_target_influential(dataset: TimeSeriesDataset, trainer, config: AuditConfig) -> int:
    """Among the ``candidate_m`` most isolated samples, pick the one a model
    trained on the full data reproduces best (smallest k-NN feature against
    one synthetic release, trained with the audit's seed)."""
    if config.candidate_m > dataset.n_samples:
        raise ValueError("candidate count exceeds dataset size")
    stats = attribute_stats(dataset)
    flat = normalized_flat(dataset.data, stats)
    iso = _isolation(flat, config.norm)
    candidates = np.argsort(-iso, kind="stable")[: config.candidate_m]
    synth = trainer([(dataset, config.seed)])[0]
    if synth is None:
        raise RuntimeError("trainer diverged while selecting the target")
    synth_flat = normalized_flat(synth.data, stats)
    feats = [knn_feature(flat[c], synth_flat, config.knn_k, config.norm) for c in candidates]
    return int(candidates[int(np.argmin(feats))])


def auc_roc(scores_world0, scores_world1, larger_means_present: bool = True) -> float:
    """Pairwise probability-of-correct-ranking with half credit for ties.

    ``larger_means_present`` orients the statistic; the KNN feature uses
    the opposite orientation (smaller distance suggests membership).
    """
    s0 = np.asarray(scores_world0, dtype=np.float64)
    s1 = np.asarray(scores_world1, dtype=np.float64)
    if s0.size == 0 or s1.size == 0:
        raise ValueError("both score lists must be non-empty")
    grid1 = s1[:, None]
    grid0 = s0[None, :]
    wins = (grid1 > grid0) if larger_means_present else (grid1 < grid0)
    ties = grid1 == grid0
    return float((wins.sum() + 0.5 * ties.sum()) / (s0.size * s1.size))


def _world_features(
    data0: TimeSeriesDataset,
    data1: TimeSeriesDataset,
    target: np.ndarray,
    stats,
    trainer,
    config: AuditConfig,
) -> tuple[list[float], list[float], int]:
    target_flat = normalized_flat(target, stats)
    worlds = [
        (world, train_data, child_seed(config.seed, "shadow", world, m))
        for world, train_data in ((0, data0), (1, data1))
        for m in range(config.shadow_pairs)
    ]
    releases = trainer([(train_data, seed) for _, train_data, seed in worlds])
    feats: tuple[list[float], list[float]] = ([], [])
    invalid = 0
    for (world, _, _), synth in zip(worlds, releases, strict=True):
        if synth is None:
            invalid += 1
            continue
        synth_flat = normalized_flat(synth.data, stats)
        feats[world].append(knn_feature(target_flat, synth_flat, config.knn_k, config.norm))
    return feats[0], feats[1], invalid


def run_assd(
    dataset: TimeSeriesDataset,
    target_index: int,
    trainer,
    config: AuditConfig,
) -> AuditReport:
    """Shadow-pair membership audit of one target sample.

    Hands the trainer all 2M shadow jobs in one call, world 0's M before
    world 1's; needs at least 2 valid releases per world to score.
    """
    world0 = dataset.without_sample(target_index)
    return run_assd_worlds(dataset, world0, dataset, target_index, trainer, config)


def run_assd_worlds(
    dataset: TimeSeriesDataset,
    world0_data: TimeSeriesDataset,
    world1_data: TimeSeriesDataset,
    target_index: int,
    trainer,
    config: AuditConfig,
) -> AuditReport:
    """Audit with explicit world datasets; the null-calibration tests feed
    the same dataset to both worlds."""
    stats = attribute_stats(dataset)
    target = dataset.data[target_index]
    f0, f1, invalid = _world_features(world0_data, world1_data, target, stats, trainer, config)
    if len(f0) < 2 or len(f1) < 2:
        raise RuntimeError(
            f"too many diverged shadow runs: {len(f0)} vs {len(f1)} valid"
        )
    auc = auc_roc(f0, f1, larger_means_present=False)
    return AuditReport(
        target_index=target_index,
        selector=config.selector,
        auc=auc,
        features_world0=f0,
        features_world1=f1,
        invalid_runs=invalid,
        config={
            "shadow_pairs": config.shadow_pairs,
            "knn_k": config.knn_k,
            "candidate_m": config.candidate_m,
            "norm": config.norm,
            "seed": config.seed,
            "orientation": "smaller feature indicates presence",
        },
    )


def threshold_adversary(report: AuditReport, dataset: TimeSeriesDataset, config: AuditConfig):
    """Score-threshold rule learned from a shadow report: guess "present"
    when the target's KNN feature falls below the midpoint of the two
    world means."""
    stats = attribute_stats(dataset)
    midpoint = 0.5 * (np.mean(report.features_world0) + np.mean(report.features_world1))

    def adversary(synth: TimeSeriesDataset, target: np.ndarray) -> int:
        feat = knn_feature(
            normalized_flat(target, stats),
            normalized_flat(synth.data, stats),
            config.knn_k,
            config.norm,
        )
        return int(feat < midpoint)

    return adversary


def loo_coins(seed: int, rounds: int) -> np.ndarray:
    """The challenge coin sequence; exposed so oracle adversaries in tests
    can replay it."""
    return stream(seed, "loo-coins").integers(0, 2, size=rounds)


def loo_game(
    dataset: TimeSeriesDataset,
    target_index: int,
    trainer,
    adversary,
    rounds: int,
    seed: int = 0,
) -> float:
    """Empirical win rate of the adversary over fresh challenge rounds.

    Each round the challenger flips a coin, trains on the dataset with or
    without the target accordingly, synthesizes, and asks the adversary
    for the coin; every round's training goes to the trainer in one call.
    ``adversary(synth, target) -> 0/1``.
    """
    coins = loo_coins(seed, rounds)
    world0 = dataset.without_sample(target_index)
    target = dataset.data[target_index]
    jobs = [
        (world0 if b == 0 else dataset, child_seed(seed, "loo-round", r)) for r, b in enumerate(coins)
    ]
    wins = 0
    for b, synth in zip(coins, trainer(jobs), strict=True):
        if synth is not None and adversary(synth, target) == b:
            wins += 1
    return wins / rounds
