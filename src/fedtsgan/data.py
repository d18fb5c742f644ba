"""Synthetic sine datasets, CSV round-trip, and party partitioning.

A dataset is N samples x A attributes x T time steps. The sine constructions
draw one amplitude per sample (class 0: N(0.4, 0.05), class 1: N(0.6, 0.05))
shared by every attribute of that sample, so cross-attribute amplitude
coupling is the ground truth any multi-party trainer has to learn.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

SINE2_FREQUENCIES = (0.01, 0.005)
SINE6_FREQUENCIES = (0.01, 0.005, 0.0075, 0.0125, 0.015, 0.0175)
CLASS_AMP_MEANS = (0.4, 0.6)
AMP_STD = 0.05
NOISE_STD = 0.05


class CsvFormatError(ValueError):
    """Malformed dataset CSV (ragged rows, bad cells, missing columns)."""


class PartitionError(ValueError):
    """Party assignment is not a partition of the attribute indices."""


@dataclass
class TimeSeriesDataset:
    data: np.ndarray  # (N, A, T)
    labels: np.ndarray | None = None  # (N,) int class ids
    attribute_names: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"data must be (N, A, T), got shape {self.data.shape}")
        n, a, t = self.data.shape
        if n < 1 or a < 1 or t < 1:
            raise ValueError("dataset dimensions must all be >= 1")
        if not np.isfinite(self.data).all():
            raise ValueError("dataset holds non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ValueError("labels must have one entry per sample")
        if not self.attribute_names:
            self.attribute_names = [f"attr{i}" for i in range(a)]
        if len(self.attribute_names) != a:
            raise ValueError("need one attribute name per attribute")

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.data.shape[1]

    @property
    def n_steps(self) -> int:
        return self.data.shape[2]

    def frequencies(self) -> np.ndarray | None:
        f = self.meta.get("frequencies")
        return None if f is None else np.asarray(f, dtype=np.float64)

    def take(self, idx) -> "TimeSeriesDataset":
        """The samples a slice, an index array or a boolean mask selects,
        with their labels; names and meta are copied."""
        return TimeSeriesDataset(
            self.data[idx],
            None if self.labels is None else self.labels[idx],
            list(self.attribute_names),
            dict(self.meta),
        )

    def without_sample(self, index: int) -> "TimeSeriesDataset":
        return self.take(np.arange(self.n_samples) != index)


@dataclass
class PartyView:
    party_id: int
    attribute_indices: list[int]
    dataset: TimeSeriesDataset

    @property
    def data(self) -> np.ndarray:
        """(N, |A_i|, T) view of this party's attributes, shared index order."""
        return self.dataset.data[:, self.attribute_indices, :]

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_indices)


def _gen_sine(
    frequencies,
    n_per_class: int,
    t_steps: int,
    seed: int,
    amp_means=CLASS_AMP_MEANS,
    amp_std: float = AMP_STD,
    noise_std: float = NOISE_STD,
) -> TimeSeriesDataset:
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if t_steps < 2:
        raise ValueError("t_steps must be >= 2")
    rng = np.random.default_rng(seed)
    freqs = np.asarray(frequencies, dtype=np.float64)
    n_attr = freqs.size
    n_total = 2 * n_per_class
    t = np.arange(t_steps, dtype=np.float64)

    labels = np.repeat(np.arange(2), n_per_class)
    amps = rng.normal(np.asarray(amp_means)[labels], amp_std)  # one draw per sample
    carrier = np.sin(2.0 * np.pi * freqs[:, None] * t[None, :])  # (A, T)
    data = amps[:, None, None] * carrier[None, :, :]
    if noise_std > 0.0:
        data = data + rng.normal(0.0, noise_std, size=(n_total, n_attr, t_steps))

    meta = {
        "kind": f"sine{n_attr}",
        "frequencies": freqs.tolist(),
        "class_amp_means": list(amp_means),
        "amp_std": amp_std,
        "noise_std": noise_std,
        "seed": int(seed),
        "n_per_class": int(n_per_class),
    }
    return TimeSeriesDataset(data, labels, [f"attr{i}" for i in range(n_attr)], meta)


def gen_sine2(n_per_class: int = 1024, t_steps: int = 800, seed: int = 0, **params) -> TimeSeriesDataset:
    """Two attributes at frequencies 0.01 and 0.005, one shared amplitude
    draw per sample."""
    return _gen_sine(SINE2_FREQUENCIES, n_per_class, t_steps, seed, **params)


def gen_sine6(n_per_class: int = 1024, t_steps: int = 800, seed: int = 0, **params) -> TimeSeriesDataset:
    """Six attributes at frequencies 0.01/0.005/0.0075/0.0125/0.015/0.0175,
    one shared amplitude draw per sample."""
    return _gen_sine(SINE6_FREQUENCIES, n_per_class, t_steps, seed, **params)


def partition(dataset: TimeSeriesDataset, assignment: dict[int, list[int]]) -> list[PartyView]:
    """Split attribute indices across parties; views stay index-aligned.

    ``assignment`` maps party id to its attribute index list and must be a
    partition (disjoint, jointly exhaustive) of range(A).
    """
    seen: set[int] = set()
    for pid, attrs in assignment.items():
        for a in attrs:
            if not 0 <= a < dataset.n_attributes:
                raise PartitionError(f"party {pid}: attribute {a} out of range")
            if a in seen:
                raise PartitionError(f"attribute {a} assigned to more than one party")
            seen.add(a)
    missing = set(range(dataset.n_attributes)) - seen
    if missing:
        raise PartitionError(f"attributes {sorted(missing)} assigned to no party")
    return [
        PartyView(pid, list(attrs), dataset) for pid, attrs in sorted(assignment.items())
    ]


def subsample_batch(n_total: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement indices; callers reuse the one draw across
    all parties so mini-batches stay aligned."""
    if not 1 <= batch_size <= n_total:
        raise ValueError(f"batch_size must be in [1, {n_total}], got {batch_size}")
    return rng.choice(n_total, size=batch_size, replace=False)


def save_csv(dataset: TimeSeriesDataset, path) -> None:
    """One row per (sample, attribute): sample_id, attribute_id, label, then
    the T values at 17 significant digits.

    The bytes are those of ``csv.writer``'s default dialect (no cell needs
    quoting, lines end in ``\\r\\n``), but one ``%`` formats a whole row, and
    only one sample's rows are Python floats at a time."""
    header = ["sample_id", "attribute_id", "label"] + [f"t{k}" for k in range(dataset.n_steps)]
    row_format = "%d,%d,%s" + ",%.17g" * dataset.n_steps + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for n, sample in enumerate(dataset.data):
            label = "" if dataset.labels is None else int(dataset.labels[n])
            for a, row in enumerate(sample.tolist()):
                fh.write(row_format % (n, a, label, *row))


def load_csv(path, meta: dict | None = None) -> TimeSeriesDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        for col in ("sample_id", "attribute_id", "label"):
            if col not in header:
                raise CsvFormatError(f"missing column {col!r}")
        t_cols = [c for c in header if c.startswith("t") and c[1:].isdigit()]
        if not t_cols:
            raise CsvFormatError("no time-step columns (t0, t1, ...)")
        n_steps = len(t_cols)
        first_t = header.index(t_cols[0])
        sid_col, aid_col, label_col = map(header.index, ("sample_id", "attribute_id", "label"))

        cells: dict[tuple[int, int], np.ndarray] = {}
        labels: dict[int, int] = {}
        has_labels = True
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"row {rownum}: expected {len(header)} columns, got {len(row)}"
                )
            try:
                sid = int(row[sid_col])
                aid = int(row[aid_col])
            except ValueError as exc:
                raise CsvFormatError(f"row {rownum}: bad id cell ({exc})") from None
            raw_label = row[label_col]
            if raw_label == "":
                has_labels = False
            else:
                labels[sid] = int(raw_label)
            steps = row[first_t : first_t + n_steps]
            try:
                values = np.array(steps, dtype=np.float64)
            except ValueError:
                bad = next(k for k, v in enumerate(steps) if not _is_float(v))
                raise CsvFormatError(
                    f"row {rownum}, column {header[first_t + bad]!r}: non-numeric cell"
                ) from None
            cells[(sid, aid)] = values

    sample_ids = sorted({sid for sid, _ in cells})
    attr_ids = sorted({aid for _, aid in cells})
    n, a = len(sample_ids), len(attr_ids)
    if sample_ids != list(range(n)) or attr_ids != list(range(a)):
        raise CsvFormatError("sample/attribute ids must be dense from 0")
    data = np.empty((n, a, n_steps))
    for sid in sample_ids:
        for aid in attr_ids:
            if (sid, aid) not in cells:
                raise CsvFormatError(f"missing row for sample {sid}, attribute {aid}")
            data[sid, aid] = cells[(sid, aid)]
    meta = dict(meta or {})
    declared_t = meta.get("t_steps")
    if declared_t is not None and int(declared_t) != n_steps:
        raise CsvFormatError(
            f"sidecar declares T={declared_t} but rows hold {n_steps} steps"
        )
    label_arr = (
        np.array([labels[s] for s in sample_ids], dtype=np.int64) if has_labels else None
    )
    return TimeSeriesDataset(data, label_arr, [f"attr{i}" for i in range(a)], meta)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def save_sidecar(dataset: TimeSeriesDataset, path) -> None:
    """Metadata sidecar (JSON): construction parameters needed to rebuild
    ground truth, e.g. frequencies for amplitude-based evaluation."""
    meta = dict(dataset.meta)
    meta["n_samples"] = dataset.n_samples
    meta["n_attributes"] = dataset.n_attributes
    meta["t_steps"] = dataset.n_steps
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sidecar(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
