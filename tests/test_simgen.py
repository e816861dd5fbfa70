"""Tests for the synthetic data generators and the dataset CSV contract."""

import csv
import dataclasses
import io
import re
import tracemalloc

import numpy as np
import pytest

from ratekit.evaluate import marginal_correlation, roc_auc
from ratekit.simgen import (
    Dataset,
    SynthSpec,
    collinear_regression,
    held_out_rows,
    load_dataset_csv,
    save_dataset_csv,
    synth_classification,
    train_test_split,
)


class TestSynthSpec:
    def test_causal_count(self):
        assert SynthSpec(n=100, p=20, frac_causal=0.1).n_causal == 2

    def test_rejects_no_causal_features(self):
        with pytest.raises(ValueError):
            SynthSpec(n=100, p=20, frac_causal=0.0)

    def test_rejects_overfull_fractions(self):
        with pytest.raises(ValueError):
            SynthSpec(n=100, p=20, frac_causal=0.8, frac_redundant=0.4)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            SynthSpec(n=5, p=20)


class TestSynthClassification:
    def test_mask_count_exact(self):
        ds = synth_classification(SynthSpec(n=100, p=20, frac_causal=0.1, seed=0))
        assert ds.causal_mask.sum() == 2

    def test_deterministic(self):
        spec = SynthSpec(n=60, p=12, frac_causal=0.25, seed=7)
        a = synth_classification(spec)
        b = synth_classification(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.causal_mask, b.causal_mask)

    def test_easy_config_marginally_detectable(self):
        # some causal coordinates carry interaction-only signal that a
        # marginal statistic cannot see, so this detectability floor is a
        # seed-dependent property; the seed here sits near the median
        ds = synth_classification(
            SynthSpec(n=2000, p=40, frac_causal=0.25, class_sep=2.0, flip_y=0.0, seed=12)
        )
        scores = np.abs(marginal_correlation(ds.X, ds.y.astype(float)))
        assert roc_auc(scores, ds.causal_mask).auc > 0.8

    def test_permutation_restores_block_order(self):
        spec = SynthSpec(n=50, p=10, frac_causal=0.2, frac_redundant=0.2, seed=3)
        ds = synth_classification(spec)
        unperm = ds.X[:, np.argsort(ds.column_permutation)]
        unperm_mask = ds.causal_mask[np.argsort(ds.column_permutation)]
        # causal block leads after unpermuting
        assert unperm_mask[: spec.n_causal].all()
        assert not unperm_mask[spec.n_causal :].any()
        # redundant block is an exact linear function of the causal block
        causal = unperm[:, : spec.n_causal]
        redundant = unperm[:, spec.n_causal : spec.n_causal + spec.n_redundant]
        coef, *_ = np.linalg.lstsq(causal, redundant, rcond=None)
        np.testing.assert_allclose(causal @ coef, redundant, atol=1e-10)

    def test_x_rows_are_contiguous_as_loaded_ones_are(self):
        # the layout load_dataset_csv gives X, so a product over X rounds the
        # same whether the data were simulated in-process or read from CSV
        ds = synth_classification(SynthSpec(n=50, p=30, seed=5))
        assert ds.X.flags["C_CONTIGUOUS"]

    def test_everything_finite(self):
        ds = synth_classification(SynthSpec(n=200, p=25, seed=4))
        assert np.all(np.isfinite(ds.X))

    def test_labels_roughly_balanced(self):
        ds = synth_classification(SynthSpec(n=1000, p=20, seed=5))
        frac_ones = ds.y.mean()
        assert 0.4 <= frac_ones <= 0.6

    def test_label_flipping_changes_labels(self):
        base = SynthSpec(n=500, p=10, frac_causal=0.3, flip_y=0.0, seed=6)
        flipped = SynthSpec(n=500, p=10, frac_causal=0.3, flip_y=0.2, seed=6)
        a = synth_classification(base)
        b = synth_classification(flipped)
        assert (a.y != b.y).sum() == 100


class TestCollinearRegression:
    def test_uncorrelated_case(self):
        ds = collinear_regression(5000, 0.0, seed=0)
        corr = np.corrcoef(ds.X[:, 0], ds.X[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_highly_collinear_case(self):
        ds = collinear_regression(5000, 0.999, seed=1)
        corr = np.corrcoef(ds.X[:, 0], ds.X[:, 1])[0, 1]
        assert 0.998 <= corr <= 1.0

    def test_response_variance(self):
        # var(y) = 8 (1 - rho) + 1
        ds = collinear_regression(5000, 0.999, seed=2)
        assert abs(np.var(ds.y, ddof=1) - 1.008) < 0.05

    def test_mask_marks_both(self):
        ds = collinear_regression(100, 0.5, seed=3)
        assert ds.causal_mask.tolist() == [True, True]

    def test_rejects_unit_rho(self):
        with pytest.raises(ValueError):
            collinear_regression(100, 1.0)


class TestTrainTestSplit:
    def test_rows_are_those_of_the_seeded_permutation(self):
        ds = synth_classification(SynthSpec(n=50, p=6, frac_causal=0.5, seed=3))
        train, test = train_test_split(ds, 0.3, seed=9)
        order = np.random.default_rng(9).permutation(50)
        assert held_out_rows(50, 0.3) == 15
        np.testing.assert_array_equal(test.X, ds.X[order[:15]])
        np.testing.assert_array_equal(test.y, ds.y[order[:15]])
        np.testing.assert_array_equal(train.X, ds.X[order[15:]])
        np.testing.assert_array_equal(train.y, ds.y[order[15:]])

    def test_both_parts_keep_what_describes_the_features(self):
        ds = synth_classification(SynthSpec(n=40, p=5, frac_causal=0.4, seed=2))
        ds = dataclasses.replace(ds, feature_names=tuple("abcde"))
        for part in train_test_split(ds, 0.25, seed=0):
            np.testing.assert_array_equal(part.causal_mask, ds.causal_mask)
            np.testing.assert_array_equal(part.column_permutation, ds.column_permutation)
            assert part.feature_names == tuple("abcde")
            assert part.seed == 2

    @pytest.mark.parametrize("fraction", [1.0, 0.0001, -0.5, 1.5, float("nan")])
    def test_a_fraction_leaving_a_part_empty_is_refused(self, fraction):
        ds = synth_classification(SynthSpec(n=1000, p=8, frac_causal=0.25))
        message = (f"test_fraction {fraction} must be 0 (no split) or leave both the "
                   "train and test parts of n = 1000 rows non-empty")
        with pytest.raises(ValueError, match=re.escape(message)):
            held_out_rows(1000, fraction)
        with pytest.raises(ValueError, match=re.escape(message)):
            train_test_split(ds, fraction, seed=0)

    def test_a_fraction_of_zero_holds_out_no_rows(self):
        assert held_out_rows(1000, 0.0) == 0
        ds = synth_classification(SynthSpec(n=20, p=4, frac_causal=0.5))
        with pytest.raises(ValueError, match="test_fraction 0.0 holds out no rows"):
            train_test_split(ds, 0.0, seed=0)


class TestCsvRoundTrip:
    def test_classification_round_trip(self, tmp_path):
        ds = synth_classification(SynthSpec(n=40, p=6, frac_causal=0.5, seed=8))
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.causal_mask, ds.causal_mask)
        assert back.feature_names == ds.feature_names
        assert back.y.dtype.kind == "i"
        # saving what was loaded writes the same bytes, sidecar included
        save_dataset_csv(back, tmp_path / "again.csv")
        for saved, resaved in (("data.csv", "again.csv"), ("data.mask.json", "again.mask.json")):
            assert (tmp_path / resaved).read_bytes() == (tmp_path / saved).read_bytes()

    def test_regression_round_trip(self, tmp_path):
        ds = collinear_regression(30, 0.5, seed=9)
        path = tmp_path / "reg.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.y.dtype.kind == "f"

    def test_header_contract(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="'y'"):
            load_dataset_csv(path)

    def test_mask_sidecar_written(self, tmp_path):
        ds = synth_classification(SynthSpec(n=40, p=6, frac_causal=0.5, seed=10))
        sidecar = save_dataset_csv(ds, tmp_path / "data.csv")
        assert sidecar.name == "data.mask.json"
        assert sidecar.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        ds = synth_classification(SynthSpec(n=40, p=6, frac_causal=0.5, seed=8))
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[2] = cell
        lines[3] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"data\.csv: data row 3, column 'f3' is not finite"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_float_label_rejected(self, tmp_path, cell):
        ds = collinear_regression(30, 0.5, seed=9)
        path = tmp_path / "reg.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[7] = lines[7].rsplit(",", 1)[0] + f",{cell}\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"reg\.csv: data row 7, column 'y' is not finite"):
            load_dataset_csv(path)


def reference_load(path):
    """The data rows read plainly: ``csv`` rows and ``float()`` per cell; the
    labels are returned as their strings."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    x = np.array([[float(v) for v in row[:-1]] for row in rows]).reshape(len(rows), -1)
    return tuple(header[:-1]), x, [row[-1] for row in rows]


def write_csv(path, names, cells, newline="\n", sidecar=None):
    """A dataset CSV with the header through ``csv.writer`` and the data rows
    as given, cell by cell; ``sidecar`` is the mask JSON, if any."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator=newline).writerow([*names, "y"])
        fh.write("".join(",".join(row) + newline for row in cells))
    if sidecar is not None:
        path.with_suffix(".mask.json").write_text(sidecar)
    return path


def cell_grid(n, p, seed):
    """repr spellings of random doubles over many magnitudes, n rows of p."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 300, size=(n, p))
    return [[repr(float(v)) for v in row] for row in x]


class TestCsvParity:
    """The loader reads the same bits as ``float()`` on ``csv`` rows."""

    @pytest.mark.parametrize(
        "case", ["plain", "quoted_names", "quoted_cells", "crlf", "spaces", "one_row", "one_feature"]
    )
    def test_cells_parse_as_float_does(self, tmp_path, case):
        n, p = (1, 4) if case == "one_row" else (6, 1) if case == "one_feature" else (6, 4)
        names = [f"f{j + 1}" for j in range(p)]
        cells = cell_grid(n, p, seed=len(case))
        labels = [str(i % 2) for i in range(n)]
        newline = "\r\n" if case == "crlf" else "\n"
        if case == "quoted_names":
            names = ["a,1", 'b "2"', "c,,3", "d"]
        elif case == "quoted_cells":
            cells = [[f'"{v}"' for v in row] for row in cells]
            labels = [f'"{v}"' for v in labels]
        elif case == "spaces":
            cells = [[f" {v}\t" for v in row] for row in cells]
            labels = [f" {v} " for v in labels]
        rows = [row + [label] for row, label in zip(cells, labels)]
        path = write_csv(tmp_path / "data.csv", names, rows, newline=newline)
        ds = load_dataset_csv(path)
        ref_names, ref_x, ref_labels = reference_load(path)
        assert ds.feature_names == ref_names == tuple(names)
        assert ds.X.tobytes() == ref_x.tobytes()
        assert ds.X.flags["C_CONTIGUOUS"] and ds.X.dtype == np.float64
        assert ds.y.dtype.kind == "i"
        assert ds.y.tolist() == [int(v) for v in ref_labels]

    @pytest.mark.parametrize(
        "labels, sidecar, parse",
        [
            (["0", "1", "12345678901234567"], None, int),
            (["0", "1", "12345678901234567"], '{"integer_labels": true}', int),
            (["0", "1", "12345678901234567"], '{"integer_labels": false}', float),
            (["0.5", "1e3", "-2.25"], None, float),
            (["1", "2", "1E3"], None, float),
            (["0", "1", "1e3"], '{"integer_labels": true}', None),  # int() refuses 1e3
            (["0", "1.0", "1"], '{"integer_labels": true}', None),  # and 1.0
        ],
    )
    def test_labels_parse_as_int_or_float_does(self, tmp_path, labels, sidecar, parse):
        rows = [row + [v] for row, v in zip(cell_grid(3, 2, seed=1), labels)]
        path = write_csv(tmp_path / "data.csv", ["a", "b"], rows, sidecar=sidecar)
        if parse is None:
            # the refusal names the file, the data row and the label
            row = next(i for i, v in enumerate(labels, 1) if not v.isdigit())
            message = f"data.csv: data row {row}, column 'y': '{labels[row - 1]}' is not an integer"
            with pytest.raises(ValueError, match=re.escape(message)):
                load_dataset_csv(path)
            return
        ds = load_dataset_csv(path)
        assert ds.y.tolist() == [parse(v) for v in labels]
        assert ds.y.dtype.kind == ("i" if parse is int else "f")

    @pytest.mark.parametrize(
        "row, cells, message",
        [
            (2, ["1", "2", "0"], "data row 2 has 3 cells, expected 4"),
            (3, ["1", "2", "3", "4", "0"], "data row 3 has 5 cells, expected 4"),
            (1, ["1", "2", "0"], "data row 1 has 3 cells, expected 4"),
            (2, ["1", "", "3", "0"], "data row 2, column 'b': '' is not a number"),
            (3, ["1", "2", "#3", "0"], "data row 3, column 'c': '#3' is not a number"),
            (2, ["1_0", "2", "3", "0"], "data row 2, column 'a': '1_0' is not a number"),
            (3, ["1", "2", "3", "x"], "data row 3, column 'y': 'x' is not a number"),
            # float() accepts these labels, numpy's parser does not
            (2, ["1", "2", "3", "1_0"], "data row 2, column 'y': '1_0' is not a number"),
            (1, ["1", "2", "3", "\u0661"], "data row 1, column 'y': '\u0661' is not a number"),
        ],
    )
    def test_malformed_row_names_the_data_row(self, tmp_path, row, cells, message):
        rows = [["1.5", "2.5", "3.5", "1"]] * 3
        rows = rows[: row - 1] + [cells] + rows[row:]
        path = write_csv(tmp_path / "data.csv", ["a", "b", "c"], rows)
        with pytest.raises(ValueError, match=f"data\\.csv: {message}$"):
            load_dataset_csv(path)

    def test_every_row_one_cell_short(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", ["a", "b", "c"], [["1.5", "2.5", "1"]] * 3)
        with pytest.raises(ValueError, match="data\\.csv: data row 1 has 3 cells, expected 4$"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("content, message", [
        # the header case used to print only the codec's message, naming no file
        (b"a\xf6,y\n1.5,0\n", "'utf-8' codec can't decode byte 0xf6 in position 1"),
        # past the text the header is read from, so numpy's reader meets it
        (b"a,y\n" + b"1.5,0\n" * 4000 + b"2\xf6,1\n", "'utf-8' codec can't decode byte 0xf6"),
    ], ids=["header", "data-row"])
    def test_text_that_is_not_utf8_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "latin.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_dataset_csv(path)
        assert str(info.value).startswith(f"{path}: {message}"), info.value

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,y\n1.5,2.5,1\n")
        ds = load_dataset_csv(path)
        assert ds.feature_names == ("a", "b")
        assert ds.X.tolist() == [[1.5, 2.5]] and ds.y.tolist() == [1]

    def test_the_file_is_parsed_once(self, tmp_path, monkeypatch):
        # the labels used to be read in a second loadtxt pass over every cell
        path = tmp_path / "data.csv"
        save_dataset_csv(Dataset(X=np.ones((5, 3)), y=np.arange(5) % 2), path)
        calls = []

        def counting_loadtxt(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        ds = load_dataset_csv(path)
        assert len(calls) == 1
        assert ds.y.tolist() == [0, 1, 0, 1, 0]

    def test_a_label_parses_as_a_feature_cell_does(self, tmp_path):
        # numpy strips Unicode whitespace around a number but takes only ASCII
        # digits; the label column keeps to the same rule
        for cell, ok in (("1\u00a0", True), ("\u20031 ", True), ("\u0661", False), ("1_0", False)):
            for row in ([cell, "0"], ["2.5", cell]):
                path = write_csv(tmp_path / "data.csv", ["a"], [["1.5", "1"], row])
                if ok:
                    ds = load_dataset_csv(path)
                    assert ds.X.tolist() == [[1.5], [float(row[0])]] and ds.y.tolist() == [1, int(row[1])]
                else:
                    with pytest.raises(ValueError, match="data row 2, column '[ay]': .* is not a number"):
                        load_dataset_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1.5,0\n\n2.5,1\n\n")
        ds = load_dataset_csv(path)
        assert ds.X.tolist() == [[1.5], [2.5]]
        assert ds.y.tolist() == [0, 1]

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("labels", ["int", "float", "bool"])
    def test_saved_bytes_match_csv_writer(self, tmp_path, labels):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, size=(7, 3))
        y = {"int": rng.integers(-3, 3, 7), "float": rng.standard_normal(7),
             "bool": rng.integers(0, 2, 7).astype(bool)}[labels]
        ds = Dataset(X=x, y=y, feature_names=("a,1", 'b "2"', "c"))
        save_dataset_csv(ds, tmp_path / "data.csv")
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow([*ds.feature_names, "y"])
        for row, label in zip(x, y):
            label = str(int(label)) if labels == "int" else repr(float(label))
            writer.writerow([repr(float(v)) for v in row] + [label])
        assert (tmp_path / "data.csv").read_bytes() == ref.getvalue().encode()

    def test_load_peak_memory_is_a_few_copies_of_x(self, tmp_path):
        # a Python float and str per cell made this about 15 X.nbytes
        rng = np.random.default_rng(5)
        path = tmp_path / "data.csv"
        save_dataset_csv(Dataset(X=rng.standard_normal((500, 400)), y=rng.integers(0, 2, 500)), path)
        tracemalloc.start()
        try:
            ds = load_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ds.X.nbytes + 2**20


class TestDatasetValidation:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(X=np.ones((4, 2)), y=np.ones(5))

    @pytest.mark.parametrize("fields, message", [
        ({"feature_names": ("a", "b")}, r"feature_names has 2 names, expected one per feature \(3\)"),
        ({"column_permutation": [0, 0, 0]}, "column_permutation must be a permutation"),
        ({"column_permutation": np.array([0.0, 1.0, 2.0])}, "column_permutation must be a"),
        ({"seed": 1.5}, "seed must be None or an integer, got 1.5"),
        ({"seed": True}, "seed must be None or an integer, got True"),
        ({"y": np.zeros((4, 1))}, r"y must be 1-dimensional, got shape \(4, 1\)"),
    ])
    def test_fields_the_loader_would_refuse_are_refused(self, fields, message):
        # each of these used to be accepted, and then written by
        # save_dataset_csv and refused by load_dataset_csv, or not written
        fields = {"X": np.ones((4, 3)), "y": np.arange(4) % 2, **fields}
        with pytest.raises(ValueError, match=message):
            Dataset(**fields)

    def test_every_accepted_dataset_round_trips(self, tmp_path):
        # a numpy integer seed used to make save_dataset_csv raise TypeError
        ds = Dataset(X=np.arange(12.0).reshape(4, 3), y=np.arange(4) % 2, feature_names=["a", "b", "c"],
                     column_permutation=(2, 0, 1), seed=np.int64(3))
        assert type(ds.seed) is int and ds.feature_names == ("a", "b", "c")
        save_dataset_csv(ds, tmp_path / "data.csv")
        back = load_dataset_csv(tmp_path / "data.csv")
        assert back.seed == 3 and back.feature_names == ds.feature_names
        assert back.column_permutation.tolist() == [2, 0, 1]
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_fields_cannot_change_after_the_checks(self):
        # an assigned seed of 1.5 used to skip the checks and be written into
        # a sidecar that load_dataset_csv refuses
        ds = Dataset(X=np.ones((4, 3)), y=np.arange(4) % 2, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.seed = 1.5
        with pytest.raises(ValueError, match="seed must be None or an integer, got 1.5"):
            dataclasses.replace(ds, seed=1.5)

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            Dataset(X=np.ones((4, 2)), y=np.ones(4), causal_mask=np.ones(3, dtype=bool))

    @pytest.mark.parametrize("mask", [5, [[True, False]]])
    def test_mask_that_is_not_1d_rejected(self, mask):
        # a 0-d mask used to raise IndexError
        with pytest.raises(ValueError, match=r"causal_mask must be 1-d .*got shape"):
            Dataset(X=np.ones((4, 2)), y=np.ones(4), causal_mask=mask)

    @pytest.mark.parametrize("mask", ["5", "[[1, 0, 1]]", "[1, 0]"])
    def test_sidecar_mask_that_is_not_one_entry_per_feature_is_named(self, tmp_path, mask):
        path = write_csv(tmp_path / "data.csv", ["a", "b", "c"], [["1", "2", "3", "0"]],
                         sidecar=f'{{"causal_mask": {mask}}}')
        with pytest.raises(ValueError, match=r"data\.mask\.json: causal_mask must be a list"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("sidecar, message", [
        ('{"causal_mask": [1, 0, "0"]}', 'causal_mask entry 2 must be 0, 1, true or false, got "0"'),
        ('{"causal_mask": ["no", 0, 1]}', r'causal_mask entry 0 .* got "no"'),
        ('{"causal_mask": [1, 0, "x"]}', r'causal_mask entry 2 .* got "x"'),
        ('{"causal_mask": [1, 2, 0]}', r"causal_mask entry 1 .* got 2"),
        ('{"causal_mask": [1, 0, 0.5]}', r"causal_mask entry 2 .* got 0.5"),
        ('{"causal_mask": [1, 0, 1.0]}', r"causal_mask entry 2 .* got 1.0"),
        ('{"causal_mask": [null, 0, 1]}', r"causal_mask entry 0 .* got null"),
        ('{"causal_mask": [[1], 0, 1]}', r"causal_mask entry 0 .* got \[1\]"),
        ('{"column_permutation": [5, 1]}', "column_permutation must be a permutation"),
        ('{"column_permutation": [0, 1, 1]}', "column_permutation must be a permutation"),
        ('{"column_permutation": [0, 1, 2.0]}', "column_permutation must be a permutation"),
        ('{"column_permutation": [0, true, 2]}', "column_permutation must be a perm"),
        ('{"column_permutation": 3}', "column_permutation must be a permutation"),
        ('{"seed": "abc"}', "seed must be null or an integer, got a string"),
        ('{"seed": true}', "seed must be null or an integer, got true or false"),
        ('{"seed": 1.5}', "seed must be null or an integer, got a number"),
        ('{"integer_labels": "no"}', "integer_labels must be true or false, got a string"),
        ('{"integer_labels": 1}', "integer_labels must be true or false, got an integer"),
        ('{"integer_labels": null}', "integer_labels must be true or false, got null"),
    ])
    def test_sidecar_key_of_the_wrong_form_is_named(self, tmp_path, sidecar, message):
        # each of these used to load, read as something else
        path = write_csv(tmp_path / "data.csv", ["a", "b", "c"], [["1", "2", "3", "0"]],
                         sidecar=sidecar)
        with pytest.raises(ValueError, match=r"data\.mask\.json: " + message):
            load_dataset_csv(path)

    def test_sidecar_of_the_right_form_loads_as_written(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", ["a", "b", "c"], [["1", "2", "3", "0"]],
                         sidecar='{"causal_mask": [true, 0, 1], "column_permutation": [2, 0, 1], '
                                 '"seed": 7, "integer_labels": false}')
        ds = load_dataset_csv(path)
        assert ds.causal_mask.tolist() == [True, False, True]
        assert ds.column_permutation.tolist() == [2, 0, 1] and ds.seed == 7
        assert ds.y.dtype == np.float64
