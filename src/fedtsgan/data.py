"""Synthetic sine datasets, CSV round-trip, and party partitioning.

A dataset is N samples x A attributes x T time steps. The sine constructions
draw one amplitude per sample, from N(m, ``AMP_STD``) with m the sample's
class mean in ``CLASS_AMP_MEANS`` (class 0: N(0.4, 0.05), class 1:
N(0.6, 0.05)), shared by every attribute of that sample, so cross-attribute
amplitude coupling is the ground truth any multi-party trainer has to learn.
Only the additive noise's ``noise_std`` is a parameter.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import workers

SINE2_FREQUENCIES = (0.01, 0.005)
SINE6_FREQUENCIES = (0.01, 0.005, 0.0075, 0.0125, 0.015, 0.0175)
CLASS_AMP_MEANS = (0.4, 0.6)
AMP_STD = 0.05
NOISE_STD = 0.05
# A block of the CSV export goes to a forked worker only where formatting it
# there saves more than forking and reaping the worker costs: 2-3 ms against
# about 0.5 us per value, so a block holds at least 3 ms / 0.5 us = 6000
# values, and an export of fewer than twice that stays in one process.
MIN_BLOCK_VALUES = 6000


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


def carriers(frequencies, t_steps: int) -> np.ndarray:
    """(A, T) rows sin(2 pi f t), one per frequency, for t = 0..T-1."""
    freqs = np.asarray(frequencies, dtype=np.float64)
    t = np.arange(t_steps, dtype=np.float64)
    return np.sin(2.0 * np.pi * freqs[:, None] * t[None, :])


def _gen_sine(
    frequencies,
    n_per_class: int,
    t_steps: int,
    seed: int,
    noise_std: float,
) -> TimeSeriesDataset:
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if t_steps < 2:
        raise ValueError("t_steps must be >= 2")
    rng = np.random.default_rng(seed)
    freqs = np.asarray(frequencies, dtype=np.float64)
    n_attr = freqs.size
    n_total = 2 * n_per_class

    labels = np.repeat(np.arange(2), n_per_class)
    amps = rng.normal(np.asarray(CLASS_AMP_MEANS)[labels], AMP_STD)  # one draw per sample
    data = amps[:, None, None] * carriers(freqs, t_steps)[None, :, :]
    if noise_std > 0.0:
        data = data + rng.normal(0.0, noise_std, size=(n_total, n_attr, t_steps))

    meta = {
        "kind": f"sine{n_attr}",
        "frequencies": freqs.tolist(),
        "class_amp_means": list(CLASS_AMP_MEANS),
        "amp_std": AMP_STD,
        "noise_std": noise_std,
        "seed": int(seed),
        "n_per_class": int(n_per_class),
    }
    return TimeSeriesDataset(data, labels, meta=meta)


def gen_sine2(
    n_per_class: int = 1024, t_steps: int = 800, seed: int = 0, noise_std: float = NOISE_STD
) -> TimeSeriesDataset:
    """Two attributes at frequencies 0.01 and 0.005, one shared amplitude
    draw per sample."""
    return _gen_sine(SINE2_FREQUENCIES, n_per_class, t_steps, seed, noise_std)


def gen_sine6(
    n_per_class: int = 1024, t_steps: int = 800, seed: int = 0, noise_std: float = NOISE_STD
) -> TimeSeriesDataset:
    """Six attributes at frequencies 0.01/0.005/0.0075/0.0125/0.015/0.0175,
    one shared amplitude draw per sample."""
    return _gen_sine(SINE6_FREQUENCIES, n_per_class, t_steps, seed, noise_std)


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
    only one sample's rows are Python floats at a time. The samples go in
    contiguous blocks, one per usable core and at most one per
    ``MIN_BLOCK_VALUES`` values: the first block, after the header, is
    written to ``path`` here, each other one to a file of its own by a
    forked worker (``workers.run_chunks``), and those files are then
    appended in order, so the bytes do not depend on the split."""
    header = ["sample_id", "attribute_id", "label"] + [f"t{k}" for k in range(dataset.n_steps)]
    blocks = workers.split(dataset.n_samples, dataset.data.size // MIN_BLOCK_VALUES)
    folder, base = os.path.split(path)
    files = [path]
    try:
        for _ in blocks[1:]:
            fd, name = tempfile.mkstemp(".part", f".{base}.", folder or ".")
            os.close(fd)
            files.append(name)
        heads = [",".join(header) + "\r\n"] + [""] * (len(blocks) - 1)
        workers.run_chunks(
            lambda block: _write_rows(dataset, *block), list(zip(blocks, files, heads))
        )
        with open(path, "ab") as out:
            for name in files[1:]:
                # the default buffer: a 1 MiB one left about 2 MiB more
                # resident after the export
                with open(name, "rb") as part:
                    shutil.copyfileobj(part, out)
    finally:
        for name in files[1:]:
            os.unlink(name)


def _write_rows(dataset: TimeSeriesDataset, samples: slice, path, head: str) -> None:
    """Write ``head`` and then the rows of ``samples`` to a new file at
    ``path``."""
    row_format = "%d,%d,%s" + ",%.17g" * dataset.n_steps + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for n in range(samples.start, samples.stop):
            label = "" if dataset.labels is None else int(dataset.labels[n])
            for a, row in enumerate(dataset.data[n].tolist()):
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
    return TimeSeriesDataset(data, label_arr, meta=meta)


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
    write_json(path, meta)


def write_json(path, obj) -> None:
    """``obj`` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_sidecar(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
