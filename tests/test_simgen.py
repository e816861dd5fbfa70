"""Tests for the synthetic data generators and the dataset CSV contract."""

import numpy as np
import pytest

from ratekit.evaluate import marginal_correlation, roc_auc
from ratekit.simgen import (
    Dataset,
    SynthSpec,
    collinear_regression,
    load_dataset_csv,
    save_dataset_csv,
    synth_classification,
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


class TestDatasetValidation:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(X=np.ones((4, 2)), y=np.ones(5))

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            Dataset(X=np.ones((4, 2)), y=np.ones(4), causal_mask=np.ones(3, dtype=bool))
