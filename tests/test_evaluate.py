"""Tests for ROC scoring, shuffle degradation, and the marginal baselines."""

import csv
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ratekit import bnn, evaluate
from ratekit.bnn import (
    NetworkConfig,
    TrainConfig,
    build_network,
    penultimate_activations,
    train,
)
from ratekit.esa import covariance_effect_sizes
from ratekit.evaluate import (
    DegradationCurve,
    degradation_curve_to_csv,
    marginal_correlation,
    roc_auc,
    roc_curve_to_csv,
    shuffle_degradation,
    student_t_sf_two_sided,
    ttest_stats,
)
from ratekit.simgen import Dataset


class TestRocAuc:
    def test_perfect_scores(self):
        mask = np.array([True, False, True, False])
        curve = roc_auc(mask.astype(float), mask)
        assert curve.auc == 1.0

    def test_inverted_scores(self):
        mask = np.array([True, False, True, False])
        curve = roc_auc(1.0 - mask.astype(float), mask)
        assert curve.auc == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        mask = np.zeros(1000, dtype=bool)
        mask[:100] = True
        curve = roc_auc(rng.standard_normal(1000), mask)
        assert 0.45 <= curve.auc <= 0.55

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(50)
        mask = rng.random(50) < 0.3
        base = roc_auc(scores, mask)
        for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s**3):
            again = roc_auc(transform(scores), mask)
            assert again.auc == pytest.approx(base.auc, abs=1e-12)
            np.testing.assert_allclose(again.fpr, base.fpr)
            np.testing.assert_allclose(again.tpr, base.tpr)

    def test_ties_collapse_to_one_threshold(self):
        curve = roc_auc([1.0, 1.0, 0.0], np.array([True, False, False]))
        # thresholds: inf, 1.0, 0.0
        assert len(curve.thresholds) == 3

    def test_curve_monotone_and_anchored(self):
        rng = np.random.default_rng(2)
        curve = roc_auc(rng.standard_normal(40), rng.random(40) < 0.5)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_degenerate_mask_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([1.0, 2.0], np.array([True, True]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_rejected(self, bad):
        # a NaN used to rank lowest: roc_auc([nan, 1, .5], [T, F, F]).auc was 0
        with pytest.raises(ValueError, match=rf"scores\[1\] is {bad!r}"):
            roc_auc([0.5, bad, 1.0, bad], np.array([True, False, False, True]))


@pytest.fixture(scope="module")
def trained_softmax_net():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((240, 4))
    y = (x[:, 0] > 0).astype(int) + (x[:, 0] + x[:, 1] > 1).astype(int)
    net = build_network(NetworkConfig(4, (12, 6), link="softmax", n_classes=3), seed=1)
    trained, _ = train(net, (x, y), TrainConfig(epochs=10, learning_rate=1e-2, seed=2))
    return trained, Dataset(X=x, y=y)


def reference_degradation(net, ds, ranking, fractions, repeats, seed):
    """Shuffle degradation written plainly: fresh copies, and each class
    read off the posterior-mean logits (positive, or the argmax)."""
    x, y = np.asarray(ds.X, dtype=np.float64), np.asarray(ds.y).astype(int)
    acc = np.empty((len(fractions), repeats))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(repeats)):
        rng = np.random.default_rng(child)
        for i, frac in enumerate(fractions):
            shuffled = x.copy()
            for col in ranking[: math.ceil(frac * x.shape[1])]:
                shuffled[:, col] = shuffled[rng.permutation(x.shape[0]), col]
            f = penultimate_activations(net, shuffled) @ net.m + net.b
            pred = (f[:, 0] > 0).astype(int) if f.shape[1] == 1 else f.argmax(axis=1)
            acc[i, r] = np.mean(pred == y)
    std = acc.std(axis=1, ddof=1) if repeats > 1 else np.zeros(len(fractions))
    std[acc.max(axis=1) == acc.min(axis=1)] = 0.0
    return acc.mean(axis=1), std


class TestShuffleDegradation:
    @pytest.mark.parametrize(
        "fixture, ranking, fractions",
        [
            ("trained_blob_net", [1, 0], [0.0, 0.5, 1.0]),
            ("trained_softmax_net", [2, 0, 3, 1], [0.0, 0.25, 0.6, 1.0, 0.0]),
        ],
    )
    def test_matches_reference_loop(self, request, fixture, ranking, fractions):
        net, ds = request.getfixturevalue(fixture)
        curve = shuffle_degradation(net, ds, ranking, fractions=fractions, repeats=4, seed=3)
        mean, std = reference_degradation(net, ds, ranking, fractions, repeats=4, seed=3)
        assert np.array_equal(curve.mean_accuracy, mean)
        assert np.array_equal(curve.std_accuracy, std)

    @pytest.mark.parametrize("frac", [-0.5, 1.5, math.nan])
    def test_fraction_outside_unit_interval_rejected(self, trained_blob_net, frac):
        net, ds = trained_blob_net
        with pytest.raises(ValueError, match=f"fraction {frac!r} "):
            shuffle_degradation(net, ds, [0, 1], fractions=[0.0, frac], repeats=2, seed=0)

    def test_empty_fractions_rejected(self, trained_blob_net):
        net, ds = trained_blob_net
        with pytest.raises(ValueError, match="non-empty"):
            shuffle_degradation(net, ds, [0, 1], fractions=[], repeats=2, seed=0)

    def test_zero_fraction_is_baseline(self, trained_blob_net):
        net, ds = trained_blob_net
        curve = shuffle_degradation(net, ds, [0, 1], fractions=[0.0], repeats=5, seed=0)
        assert curve.std_accuracy[0] == 0.0
        baseline = curve.mean_accuracy[0]
        assert baseline > 0.9

    def test_full_shuffle_hits_majority_rate(self, trained_blob_net):
        net, ds = trained_blob_net
        curve = shuffle_degradation(net, ds, [0, 1], fractions=[1.0], repeats=10, seed=1)
        y = np.asarray(ds.y)
        majority = max(y.mean(), 1 - y.mean())
        assert abs(curve.mean_accuracy[0] - majority) < 0.05

    def test_reproducible(self, trained_blob_net):
        net, ds = trained_blob_net
        a = shuffle_degradation(net, ds, [0, 1], fractions=[0.0, 0.5, 1.0], repeats=4, seed=7)
        b = shuffle_degradation(net, ds, [0, 1], fractions=[0.0, 0.5, 1.0], repeats=4, seed=7)
        np.testing.assert_array_equal(a.mean_accuracy, b.mean_accuracy)
        np.testing.assert_array_equal(a.std_accuracy, b.std_accuracy)

    def test_accuracy_decreases_with_fraction(self, trained_blob_net):
        net, ds = trained_blob_net
        curve = shuffle_degradation(
            net, ds, [0, 1], fractions=[0.0, 0.5, 1.0], repeats=10, seed=3
        )
        assert curve.mean_accuracy[0] > curve.mean_accuracy[-1]

    @pytest.mark.parametrize(
        "fixture, shift, message",
        [
            ("trained_blob_net", 5, "binary 0/1 labels"),
            ("trained_softmax_net", 1, r"labels must lie in \[0, 3\)"),
            ("trained_softmax_net", -1, r"labels must lie in \[0, 3\)"),
        ],
    )
    def test_labels_the_network_cannot_output_rejected(self, request, fixture, shift, message):
        # a sigmoid net scored on labels {5, 6} would read accuracy 0 everywhere
        net, ds = request.getfixturevalue(fixture)
        shifted = Dataset(X=ds.X, y=np.asarray(ds.y) + shift)
        with pytest.raises(ValueError, match=message):
            shuffle_degradation(net, shifted, list(range(ds.p)), repeats=2, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_cell_is_named(self, trained_blob_net, bad):
        # a nan row used to be scored as class 0
        net, ds = trained_blob_net
        x = ds.X.copy()
        x[11, 0] = bad
        with pytest.raises(ValueError, match=f"row 11, column 0 is {bad}"):
            shuffle_degradation(net, Dataset(X=x, y=ds.y), [0, 1], repeats=2, seed=0)

    def test_invalid_ranking_rejected(self, trained_blob_net):
        net, ds = trained_blob_net
        with pytest.raises(ValueError, match="permutation"):
            shuffle_degradation(net, ds, [0, 0], repeats=2, seed=0)


def trained_net(link, depth):
    """A small net with ``depth`` hidden layers, trained a few epochs."""
    rng = np.random.default_rng(depth)
    x = rng.standard_normal((160, 5))
    if link == "sigmoid":
        y, classes = (x[:, 0] + x[:, 1] * x[:, 2] > 0).astype(int), 1
    else:
        y, classes = (x[:, 0] > 0).astype(int) + (x[:, 0] + x[:, 1] > 1).astype(int), 3
    cfg = NetworkConfig(5, (12, 8, 6)[:depth], link=link, n_classes=classes)
    trained, _ = train(
        build_network(cfg, seed=depth), (x, y), TrainConfig(epochs=5, learning_rate=1e-2, seed=depth)
    )
    return trained, Dataset(X=x, y=y)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Counts the rows the float32 route hands to the float64 route, and the
    calls that carry them."""
    counted = [0, 0]
    float64_route = bnn._predict_classes

    def counting(net, x):
        counted[0] += x.shape[0]
        counted[1] += 1
        return float64_route(net, x)

    monkeypatch.setattr(bnn, "_predict_classes", counting)
    return counted


def exact_net(link):
    """Identity hidden layer and unit output weights over 3 inputs: the
    logits are sums of the inputs' positive parts, exact in float64 for the
    inputs ``exact_inputs`` draws. Sigmoid: f = s - 1; softmax: f = (1, s)."""
    if link == "sigmoid":
        cfg, m, b = NetworkConfig(3, (3,)), np.ones((3, 1)), np.array([-1.0])
    else:
        cfg = NetworkConfig(3, (3,), link="softmax", n_classes=2)
        m, b = np.c_[np.zeros(3), np.ones(3)], np.array([1.0, 0.0])
    net = build_network(cfg, seed=0)
    net.hidden_weights[0] = np.eye(3)
    net.m, net.b = m, b
    return net


def exact_inputs(n, seed):
    # 1 + 2**-30 rounds to 1 in float32, so a row summing to it has float32
    # logit(s) tied at 0 where the float64 logit is 2**-30 > 0
    rng = np.random.default_rng(seed)
    x = rng.choice([0.0, 0.0, 1.0, 1.0 + 2.0**-30, -1.0, 0.5], size=(n, 3))
    x[:4] = [[1.0 + 2.0**-30, 0, 0], [0, 1.0, 0], [0, 0, 1.0 + 2.0**-30], [0.5, 0.5, 0]]
    return Dataset(X=x, y=rng.integers(0, 2, size=n))


class TestFloat32Route:
    """Degradation passes run in float32 and fall back to float64 for the
    rows their error bound cannot decide; the curves stay those of the
    float64 reference loop."""

    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("link", ["sigmoid", "softmax"])
    def test_matches_reference_at_every_depth(self, request, link, depth, repeats):
        net, ds = trained_net(link, depth)
        fallback_rows = request.getfixturevalue("fallback_rows")  # after training
        ranking, fractions = [3, 0, 4, 1, 2], [0.0, 0.4, 0.4, 1.0, 0.0]
        curve = shuffle_degradation(net, ds, ranking, fractions=fractions, repeats=repeats, seed=5)
        mean, std = reference_degradation(net, ds, ranking, fractions, repeats=repeats, seed=5)
        assert np.array_equal(curve.mean_accuracy, mean)
        assert np.array_equal(curve.std_accuracy, std)
        # 1 baseline pass and 3 shuffled passes per repeat
        assert fallback_rows[0] < 0.05 * ds.X.shape[0] * (1 + 3 * repeats)
        # every float64 batch but the last holds FALLBACK_ROWS rows or more
        assert fallback_rows[1] <= fallback_rows[0] // evaluate.FALLBACK_ROWS + 1

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_bound_covers_float32_error(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 10)
        for trial in range(6):
            link, classes = ("sigmoid", 1) if trial % 2 else ("softmax", 3)
            widths = tuple(int(w) for w in rng.integers(1, 40, size=1 + trial % 3))
            net = build_network(NetworkConfig(7, widths, link=link, n_classes=classes), seed=trial)
            net.hidden_weights = [scale * w for w in net.hidden_weights]
            net.hidden_biases = [scale * rng.standard_normal(c.shape) for c in net.hidden_biases]
            net.m = scale * rng.standard_normal(net.m.shape)
            net.b = scale * rng.standard_normal(net.b.shape)
            x = 3.0 * rng.standard_normal((80, 7))
            exact = penultimate_activations(net, x) @ net.m + net.b
            f32, bound = bnn._Float32Classifier(net, x).logits_and_bounds()
            assert np.all(np.isfinite(bound))
            assert np.all(np.abs(f32 - exact) <= bound)

    @pytest.mark.parametrize("link", ["sigmoid", "softmax"])
    def test_undecided_rows_take_the_float64_class(self, link, fallback_rows):
        net, ds = exact_net(link), exact_inputs(60, seed=4)
        f32, _ = bnn._Float32Classifier(net, ds.X).logits_and_bounds()
        float32_class = f32.argmax(axis=1) if link == "softmax" else f32[:, 0] > 0
        # without the fallback some rows would get another class
        assert np.any(float32_class != bnn._predict_classes(net, ds.X))
        fractions = [0.0, 0.34, 0.67, 1.0]
        curve = shuffle_degradation(net, ds, [2, 0, 1], fractions=fractions, repeats=3, seed=1)
        mean, std = reference_degradation(net, ds, [2, 0, 1], fractions, repeats=3, seed=1)
        assert fallback_rows[0] > 0
        assert fallback_rows[1] <= fallback_rows[0] // evaluate.FALLBACK_ROWS + 1
        assert np.array_equal(curve.mean_accuracy, mean)
        assert np.array_equal(curve.std_accuracy, std)

    @pytest.mark.parametrize("overflow", ["weights", "inputs"])
    def test_float32_overflow_falls_back(self, trained_blob_net, overflow, fallback_rows):
        net, ds = trained_blob_net
        net = bnn.network_from_json(bnn.network_to_json(net))  # a copy
        if overflow == "weights":
            # finite in float32, but the logits reach ~1e60
            net.hidden_weights[0] *= 1e30
            net.m *= 1e30
        else:
            # every value beyond float32's 3.4e38
            ds = Dataset(X=(ds.X + np.sign(ds.X)) * 1e39, y=ds.y)
        fractions = [0.0, 0.5, 1.0]
        curve = shuffle_degradation(net, ds, [1, 0], fractions=fractions, repeats=2, seed=6)
        mean, std = reference_degradation(net, ds, [1, 0], fractions, repeats=2, seed=6)
        assert fallback_rows[0] == ds.X.shape[0] * (1 + 2 * 2)  # every row of every pass
        # a pass's undecided rows go in one batch, at once when they reach
        # FALLBACK_ROWS
        assert ds.X.shape[0] >= evaluate.FALLBACK_ROWS
        assert fallback_rows[1] == 1 + 2 * 2
        assert np.array_equal(curve.mean_accuracy, mean)
        assert np.array_equal(curve.std_accuracy, std)

    @pytest.mark.parametrize("case", ["output_overflow", "hidden_overflow", "tie", "cancellation"])
    def test_rows_near_a_hazard_take_the_float64_class(self, case):
        big, eps = 1e8, 2.0**-24
        if case == "output_overflow":
            # a float32 sum in this order overflows to +inf; the exact one is -1e38
            w1, m, b = np.eye(4), np.array([[2e38], [2e38], [-2.5e38], [-2.5e38]]), [0.0]
            x = np.ones((3, 4))
        elif case == "hidden_overflow":
            # the hidden sum overflows to -inf where the exact one is +1e38
            w1, m, b = np.array([[-2e38], [-2e38], [2.5e38], [2.5e38]]), np.array([[1e-30]]), [-1e3]
            x = np.ones((3, 4))
        elif case == "tie":
            # f = 1e-17 > 0 is class 1, though sigmoid(f) rounds to 0.5
            w1, m, b = np.eye(1), np.ones((1, 1)), [0.0]
            x = np.array([[1e-17], [-1e-17], [1.0]])
        else:
            # class 1's logit 8 + 1e8 (x1 - x2) cancels: -3.9 in float32 (x1
            # rounds down, x2 up), +6.5 exactly, above class 0's 5
            w1, b = np.eye(3), [0.0, 8.0]
            m = np.array([[1.0, 0.0], [0.0, big], [0.0, -big]])
            x = np.array([[5.0, 1 + 7 / 8 * eps, 1 + 9 / 8 * eps], [5.0, 1.0, 1.0]])
        classes = m.shape[1]
        link = "sigmoid" if classes == 1 else "softmax"
        cfg = NetworkConfig(w1.shape[0], (w1.shape[1],), link=link, n_classes=classes)
        net = bnn.Network(cfg, [w1], [np.zeros(w1.shape[1])], m, np.zeros_like(m), np.array(b))
        pred, undecided = bnn._Float32Classifier(net, x).predict_classes()
        pred[undecided] = bnn._predict_classes(net, x[undecided])
        assert np.array_equal(pred, bnn._predict_classes(net, x))

    def test_sigmoid_as_two_classes_matches_the_sign_rule(self):
        def sign_rule(f, bound):
            """The sigmoid branch predict_classes had before the sigmoid was
            read as the two logits (0, f)."""
            pred = (f[:, 0] > 0).astype(np.intp)
            decided = (np.abs(f[:, 0]) > bound[:, 0]) & np.isfinite(f).all(axis=1)
            return pred, np.flatnonzero(~decided)

        e, up = np.float32(0.25), np.nextafter(np.float32(0.25), np.float32(1))
        logits = [0.0, -0.0, e, -e, up, -up, 1e-12, -1e-12, 1e-30, -3.0, np.nan, np.inf, -np.inf]
        bounds = [e, 1e-12, np.inf]
        f, bound = (np.array(a, np.float32)[:, None] for a in zip(*itertools.product(logits, bounds)))
        classifier = bnn._Float32Classifier(exact_net("sigmoid"), np.zeros((len(f), 3)))
        classifier.logits_and_bounds = lambda: (f.copy(), bound.copy())
        pred, undecided = classifier.predict_classes()
        expected_pred, expected_undecided = sign_rule(f, bound)
        assert np.array_equal(undecided, expected_undecided)
        # a nan logit decides no row under either rule, and the caller
        # overwrites an undecided row's entry
        known = ~np.isnan(f[:, 0])
        assert np.array_equal(pred[known], expected_pred[known])

    @pytest.mark.parametrize("n, cols", [(1, 1), (2, 3), (50, 1), (50, 17)])
    def test_permuted_rows_are_the_permutation_stream(self, n, cols):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        expected = np.array([a.permutation(n) for _ in range(cols)])
        got = b.permuted(np.broadcast_to(np.arange(n), (cols, n)), axis=1)
        assert np.array_equal(got, expected)
        assert a.bit_generator.state == b.bit_generator.state


class TestMarginalCorrelation:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 3))
        corr = marginal_correlation(x, x[:, 1].copy())
        assert corr[1] == pytest.approx(1.0, abs=1e-12)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10_000, 2))
        corr = marginal_correlation(x, rng.standard_normal(10_000))
        assert np.abs(corr).max() < 0.05

    def test_antisymmetry(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        np.testing.assert_allclose(
            marginal_correlation(-x, y), -marginal_correlation(x, y), atol=1e-14
        )

    def test_constant_column_warns_and_zeroes(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10.0)
        with pytest.warns(UserWarning, match="zero-variance"):
            corr = marginal_correlation(x, np.arange(10.0))
        assert corr[0] == 0.0
        assert corr[1] == pytest.approx(1.0)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            marginal_correlation(np.ones((2, 1)), np.ones(2))


def t_density(x: float, df: int) -> float:
    log_norm = (
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - (df + 1) / 2 * math.log1p(x * x / df))


class TestStudentT:
    def test_zero_statistic_gives_p_one(self):
        assert student_t_sf_two_sided(0.0, 10) == pytest.approx(1.0)

    def test_reference_value_against_quadrature(self):
        # two-sided p for t=2, df=10 via numeric integration of the density
        tail, _ = quad(t_density, 2.0, np.inf, args=(10,))
        expected = 2 * tail
        assert student_t_sf_two_sided(2.0, 10) == pytest.approx(expected, abs=1e-10)
        assert abs(student_t_sf_two_sided(2.0, 10) - 0.07339) < 5e-6

    @pytest.mark.parametrize("df", [1, 3, 10, 50])
    def test_matches_quadrature_across_range(self, df):
        for t in (0.1, 0.7, 1.5, 3.0, 6.0):
            tail, _ = quad(t_density, t, np.inf, args=(df,))
            assert student_t_sf_two_sided(t, df) == pytest.approx(2 * tail, abs=1e-9)

    def test_decreasing_in_t(self):
        ts = np.linspace(0, 8, 50)
        ps = [student_t_sf_two_sided(t, 7) for t in ts]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert all(0.0 <= p <= 1.0 for p in ps)


class TestTtestStats:
    def test_uncorrelated_gives_zero_t(self):
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        t, p = ttest_stats(x, y)
        assert t[0] == 0.0
        assert p[0] == 1.0

    def test_perfect_correlation_flagged(self):
        x = np.arange(10.0)[:, None]
        t, p = ttest_stats(x, np.arange(10.0))
        assert np.isinf(t[0])
        assert p[0] == 0.0

    def test_ordering_matches_covariance_on_standardized_features(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((120, 6))
        x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        y = x @ rng.standard_normal(6) + rng.standard_normal(120)
        mu = covariance_effect_sizes(x, y)
        _, pvals = ttest_stats(x, y)
        assert list(np.argsort(-np.abs(mu))) == list(np.argsort(pvals))

    def test_pvalues_in_unit_interval(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 5))
        _, p = ttest_stats(x, rng.standard_normal(40))
        assert np.all((p >= 0) & (p <= 1))


class TestCurveCsv:
    def test_roc_csv(self, tmp_path):
        curve = roc_auc([0.9, 0.1, 0.5], np.array([True, False, False]))
        path = tmp_path / "roc.csv"
        roc_curve_to_csv(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["threshold", "fpr", "tpr"]
        assert len(rows) == 1 + len(curve.fpr)

    def test_degradation_csv(self, tmp_path):
        curve = DegradationCurve(
            fractions=np.array([0.0, 0.5]),
            mean_accuracy=np.array([0.95, 0.7]),
            std_accuracy=np.array([0.0, 0.02]),
            repeats=3,
        )
        path = tmp_path / "deg.csv"
        degradation_curve_to_csv(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fraction", "mean_accuracy", "std_accuracy"]
        assert float(rows[1][1]) == 0.95
