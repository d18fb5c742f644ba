import ast
import csv
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedtsgan import data, workers
from fedtsgan.metrics import estimate_amplitudes


class TestSine2:
    def test_default_shape(self):
        ds = data.gen_sine2(seed=0)
        assert ds.data.shape == (2048, 2, 800)
        assert set(np.unique(ds.labels)) == {0, 1}
        assert (ds.labels == 0).sum() == 1024

    def test_noiseless_unit_amplitude_formula(self):
        ds = data.gen_sine2(n_per_class=2, t_steps=50, seed=1, noise_std=0.0)
        amp = ds.data[0, 0, 10] / np.sin(2 * np.pi * 0.01 * 10)
        t = np.arange(50)
        np.testing.assert_allclose(ds.data[0, 0], amp * np.sin(2 * np.pi * 0.01 * t), atol=1e-12)

    def test_same_amplitude_across_attributes(self):
        # matched-filter amplitudes of both attributes agree per sample
        ds = data.gen_sine2(n_per_class=64, t_steps=800, seed=2, noise_std=0.0)
        amps = estimate_amplitudes(ds)
        np.testing.assert_allclose(amps[:, 0], amps[:, 1], atol=1e-12)

    def test_amplitude_estimates_correlate_under_noise(self):
        ds = data.gen_sine2(n_per_class=512, t_steps=800, seed=3)
        amps = estimate_amplitudes(ds)
        corr = np.corrcoef(amps[:, 0], amps[:, 1])[0, 1]
        assert corr > 0.95

    def test_class_separation(self):
        n = 4096
        ds = data.gen_sine2(n_per_class=n, t_steps=16, seed=4, noise_std=0.0)
        amps = estimate_amplitudes(ds, data.SINE2_FREQUENCIES)
        # noiseless short series still carry the amplitude in scale; use the
        # construction's own meta instead: recover amplitude via max |value|
        tol = 3 * 0.05 / np.sqrt(n)
        a0 = amps[ds.labels == 0, 0].mean()
        a1 = amps[ds.labels == 1, 0].mean()
        # f*T is not whole-cycle at T=16, so compare against the same
        # estimator applied to exact unit carriers
        unit = data.gen_sine2(n_per_class=1, t_steps=16, seed=0, noise_std=0.0)
        scale = estimate_amplitudes(unit, data.SINE2_FREQUENCIES)[0, 0] / _true_amp(unit, 0)
        assert abs(a0 / scale - 0.4) < tol + 1e-9
        assert abs(a1 / scale - 0.6) < tol + 1e-9

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            data.gen_sine2(n_per_class=0)
        with pytest.raises(ValueError):
            data.gen_sine2(t_steps=1)


def _true_amp(ds, idx):
    t = 10
    return ds.data[idx, 0, t] / np.sin(2 * np.pi * 0.01 * t)


class TestSine6:
    def test_default_shape_and_frequencies(self):
        ds = data.gen_sine6(seed=0)
        assert ds.data.shape == (2048, 6, 800)
        assert ds.meta["frequencies"] == [0.01, 0.005, 0.0075, 0.0125, 0.015, 0.0175]

    def test_whole_cycle_matched_filter_is_exact(self):
        # all six f*T land on whole cycles at T=800
        ds = data.gen_sine6(n_per_class=4, t_steps=800, seed=5, noise_std=0.0)
        amps = estimate_amplitudes(ds)
        for n in range(6):
            np.testing.assert_allclose(amps[:, n], amps[:, 0], atol=1e-12)


class TestPartition:
    def test_two_party_split(self):
        ds = data.gen_sine2(n_per_class=4, t_steps=8, seed=0)
        views = data.partition(ds, {0: [0], 1: [1]})
        assert [v.attribute_indices for v in views] == [[0], [1]]
        np.testing.assert_array_equal(views[0].data[:, 0], ds.data[:, 0])

    def test_six_attribute_three_each(self):
        ds = data.gen_sine6(n_per_class=2, t_steps=8, seed=0)
        views = data.partition(ds, {0: [0, 1, 2], 1: [3, 4, 5]})
        rebuilt = np.concatenate([v.data for v in views], axis=1)
        np.testing.assert_array_equal(rebuilt, ds.data)

    def test_single_party_owns_everything(self):
        ds = data.gen_sine2(n_per_class=2, t_steps=8, seed=0)
        (view,) = data.partition(ds, {0: [0, 1]})
        np.testing.assert_array_equal(view.data, ds.data)

    def test_overlap_rejected(self):
        ds = data.gen_sine2(n_per_class=2, t_steps=8, seed=0)
        with pytest.raises(data.PartitionError):
            data.partition(ds, {0: [0], 1: [0, 1]})

    def test_omission_rejected(self):
        ds = data.gen_sine2(n_per_class=2, t_steps=8, seed=0)
        with pytest.raises(data.PartitionError):
            data.partition(ds, {0: [0]})


class TestSubsample:
    def test_full_batch_is_permutation(self, rng):
        idx = data.subsample_batch(10, 10, rng)
        assert sorted(idx) == list(range(10))

    def test_indices_distinct_and_in_range(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            b = int(rng.integers(1, n + 1))
            idx = data.subsample_batch(n, b, rng)
            assert len(set(idx.tolist())) == b
            assert idx.min() >= 0 and idx.max() < n

    def test_single_draw_uniform(self):
        rng = np.random.default_rng(0)
        n, draws = 8, 100_000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[data.subsample_batch(n, 1, rng)[0]] += 1
        expected = draws / n
        sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_oversized_batch_rejected(self, rng):
        with pytest.raises(ValueError):
            data.subsample_batch(5, 6, rng)

    def test_sampling_rate_for_accountant(self):
        n, b = 1024, 64
        assert b / n == pytest.approx(0.0625)


class TestCsv:
    def test_round_trip(self, rng, tmp_path):
        ds = data.TimeSeriesDataset(rng.standard_normal((4, 2, 8)), np.array([0, 1, 0, 1]))
        path = tmp_path / "d.csv"
        data.save_csv(ds, path)
        loaded = data.load_csv(path)
        np.testing.assert_array_equal(loaded.data, ds.data)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_round_trip_without_labels(self, rng, tmp_path):
        ds = data.TimeSeriesDataset(rng.standard_normal((3, 2, 5)))
        path = tmp_path / "d.csv"
        data.save_csv(ds, path)
        assert data.load_csv(path).labels is None

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,attribute_id,t0\n0,0,1.5\n")
        with pytest.raises(data.CsvFormatError, match="label"):
            data.load_csv(path)

    def test_ragged_row_positioned(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,attribute_id,label,t0,t1\n0,0,0,1.0\n")
        with pytest.raises(data.CsvFormatError, match="row 2"):
            data.load_csv(path)

    def test_non_numeric_cell_positioned(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,attribute_id,label,t0,t1\n0,0,0,1.0,oops\n")
        with pytest.raises(data.CsvFormatError, match="t1"):
            data.load_csv(path)

    def test_sidecar_t_mismatch(self, rng, tmp_path):
        ds = data.TimeSeriesDataset(rng.standard_normal((2, 1, 4)))
        path = tmp_path / "d.csv"
        data.save_csv(ds, path)
        with pytest.raises(data.CsvFormatError, match="T=9"):
            data.load_csv(path, {"t_steps": 9})

    def test_sidecar_round_trip(self, tmp_path):
        ds = data.gen_sine2(n_per_class=2, t_steps=8, seed=3)
        side = tmp_path / "meta.json"
        data.save_sidecar(ds, side)
        meta = data.load_sidecar(side)
        assert meta["frequencies"] == [0.01, 0.005]
        assert meta["seed"] == 3
        assert meta["t_steps"] == 8


def reference_save_csv(dataset, path):
    """The export as ``csv.writer`` writes it, one f-string per value: the
    bytes ``data.save_csv`` must keep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["sample_id", "attribute_id", "label"] + [
            f"t{k}" for k in range(dataset.n_steps)
        ]
        writer.writerow(header)
        for n in range(dataset.n_samples):
            label = "" if dataset.labels is None else int(dataset.labels[n])
            for a in range(dataset.n_attributes):
                row = [n, a, label] + [f"{v:.17g}" for v in dataset.data[n, a]]
                writer.writerow(row)


EDGE_CELLS = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
]


def with_cells(shape, values, labels=None):
    """A dataset holding ``values``, which may be non-finite: the constructor
    rejects those, so they are written in after it."""
    ds = data.TimeSeriesDataset(np.zeros(shape), labels)
    ds.data[...] = np.asarray(values, dtype=np.float64).reshape(shape)
    return ds


class TestCsvBytes:
    """``save_csv`` writes the reference writer's bytes, also where forked
    workers write an export of at least twice ``MIN_BLOCK_VALUES`` values in
    blocks, and ``load_csv`` reads back every non-NaN cell's bits."""

    @staticmethod
    def assert_reference_bytes(ds, tmp_path):
        data.save_csv(ds, tmp_path / "fast.csv")
        reference_save_csv(ds, tmp_path / "reference.csv")
        written = (tmp_path / "fast.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        return written

    @staticmethod
    def assert_bits_read_back(ds, tmp_path):
        path = tmp_path / "fast.csv"
        if np.isfinite(ds.data).all():
            loaded = data.load_csv(path).data
        else:  # load_csv rejects a non-finite dataset; read the cells alone
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            loaded = np.array([[float(v) for v in row[3:]] for row in rows]).reshape(ds.data.shape)
        kept = ~np.isnan(ds.data)
        np.testing.assert_array_equal(loaded.view(np.int64)[kept], ds.data.view(np.int64)[kept])
        assert np.isnan(loaded[~kept]).all()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: data.gen_sine2(n_per_class=3, t_steps=7, seed=7),
            lambda: data.gen_sine6(n_per_class=2, t_steps=5, seed=8),
            lambda: data.TimeSeriesDataset(np.random.default_rng(1).standard_normal((3, 2, 4))),
            lambda: data.gen_sine2(n_per_class=1, t_steps=2, seed=1).take(slice(0, 1)),
            lambda: data.TimeSeriesDataset(np.arange(6.0).reshape(3, 2, 1) / 7, [0, 1, 0]),
        ],
        ids=["sine2", "sine6", "unlabelled", "one_sample", "one_step"],
    )
    def test_datasets(self, tmp_path, make):
        ds = make()
        written = self.assert_reference_bytes(ds, tmp_path)
        assert written.count(b"\r\n") == 1 + ds.n_samples * ds.n_attributes
        self.assert_bits_read_back(ds, tmp_path)

    def test_edge_cells(self, tmp_path):
        ds = with_cells((1, 1, len(EDGE_CELLS)), EDGE_CELLS, [1])
        written = self.assert_reference_bytes(ds, tmp_path)
        assert written.split(b"\r\n")[1].startswith(b"0,0,1,nan,inf,-inf,-0,0,4.9406564584124654e-324,")
        self.assert_bits_read_back(ds, tmp_path)

    @given(
        array=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5)).flatmap(
            lambda shape: arrays(np.float64, shape)  # NaN, inf and subnormals included
        ),
        labelled=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_float64_cells(self, tmp_path_factory, array, labelled):
        labels = np.arange(array.shape[0]) % 2 if labelled else None
        ds = with_cells(array.shape, array, labels)
        tmp_path = tmp_path_factory.mktemp("csv")
        self.assert_reference_bytes(ds, tmp_path)
        self.assert_bits_read_back(ds, tmp_path)

    @staticmethod
    def edge_dataset(n_samples, min_values, labelled):
        # EDGE_CELLS open every sample's first row, so every block holds them
        n_steps = -(-min_values // (2 * n_samples))
        ds = with_cells(
            (n_samples, 2, n_steps),
            np.random.default_rng(3).standard_normal(n_samples * 2 * n_steps),
            np.arange(n_samples) % 2 if labelled else None,
        )
        ds.data[:, 0, : len(EDGE_CELLS)] = EDGE_CELLS
        return ds

    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    def test_blocks_in_workers_keep_the_bytes(self, tmp_path, monkeypatch, labelled):
        ds = self.edge_dataset(7, 3 * data.MIN_BLOCK_VALUES, labelled)
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        monkeypatch.setattr(os, "fork", fork)
        self.assert_reference_bytes(ds, tmp_path)
        assert len(forks) == 2  # blocks of samples 0-1, 2-3 and 4-6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.csv", "reference.csv"]

    def test_a_small_export_stays_in_this_process(self, tmp_path, monkeypatch):
        ds = self.edge_dataset(6, 2 * data.MIN_BLOCK_VALUES - 12, True)
        assert ds.data.size < 2 * data.MIN_BLOCK_VALUES

        def fork():
            raise AssertionError("a small export forked")

        monkeypatch.setattr(workers, "usable_cores", lambda: 4)
        monkeypatch.setattr(os, "fork", fork)
        self.assert_reference_bytes(ds, tmp_path)

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_a_failing_block_raises_here_and_leaves_no_file(self, tmp_path, monkeypatch, where):
        ds = self.edge_dataset(4, 2 * data.MIN_BLOCK_VALUES, True)
        parent = os.getpid()
        real = data._write_rows

        def write_rows(dataset, samples, path, head):
            if (os.getpid() == parent) == (where == "parent"):
                raise OSError(f"block of samples {samples.start}-{samples.stop - 1} failed")
            real(dataset, samples, path, head)

        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        monkeypatch.setattr(data, "_write_rows", write_rows)
        failed = "0-1" if where == "parent" else "2-3"
        with pytest.raises(OSError, match=f"^block of samples {failed} failed$"):
            data.save_csv(ds, tmp_path / "d.csv")
        assert [p.name for p in tmp_path.iterdir() if p.name != "d.csv"] == []


class TestDatasetInvariants:
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_partition_reconstructs(self, n_per_class, t_steps):
        ds = data.gen_sine2(n_per_class=n_per_class, t_steps=t_steps, seed=0)
        views = data.partition(ds, {0: [0], 1: [1]})
        rebuilt = np.concatenate([v.data for v in views], axis=1)
        np.testing.assert_array_equal(rebuilt, ds.data)

    def test_without_sample(self):
        ds = data.gen_sine2(n_per_class=3, t_steps=8, seed=0)
        smaller = ds.without_sample(2)
        assert smaller.n_samples == ds.n_samples - 1
        np.testing.assert_array_equal(smaller.data[2], ds.data[3])
        np.testing.assert_array_equal(smaller.labels, np.delete(ds.labels, 2))
        # take: a slice, an index array and a boolean mask select alike
        for idx in (slice(0, 6, 2), np.array([0, 2, 4]), np.arange(ds.n_samples) % 2 == 0):
            part = ds.take(idx)
            np.testing.assert_array_equal(part.data, ds.data[[0, 2, 4]])
            np.testing.assert_array_equal(part.labels, ds.labels[[0, 2, 4]])
            assert part.attribute_names == ds.attribute_names
            assert part.attribute_names is not ds.attribute_names
            assert part.meta == ds.meta and part.meta is not ds.meta


class TestOneOwner:
    def test_carriers_seeds_and_float_cells_have_one_owner(self):
        # the sine carriers, the derived seeds and the 17-digit float cells
        # are each computed by one function of the package
        root = Path(__file__).resolve().parents[1]
        sites = set()
        for path in sorted(root.glob("src/fedtsgan/*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and (node.value.id, node.attr) == ("np", "sin")
                    ):
                        kind = "np.sin"
                    elif (
                        isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Pow)
                        and [getattr(x, "value", None) for x in (node.left, node.right)] == [2, 63]
                    ):
                        kind = "2**63"
                    elif isinstance(node, ast.Constant) and ".17g" in str(node.value):
                        kind = ".17g"
                    else:
                        continue
                    sites.add((path.stem, getattr(top, "name", None), kind))
        assert sites == {
            ("data", "carriers", "np.sin"),
            ("rng", "child_seed", "2**63"),
            ("cli", "_fmt", ".17g"),
            ("data", "_write_rows", ".17g"),
        }
