"""Tests for network construction, the training loss, training and the
output-variance fit.

The centerpieces are the finite-difference oracles: every hand-written
gradient is checked against central differences of the loss, and the fitted
variances against central differences of the quadrature ELBO in rho.
"""

import base64
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ratekit import bnn
from ratekit.bnn import (
    LINKS,
    Network,
    NetworkConfig,
    TrainConfig,
    TrainingDivergedError,
    _adam_step,
    _elbo,
    _elbo_blocks,
    _nll_and_grad,
    _predict_classes,
    build_network,
    elbo_loss,
    load_network_json,
    logit_posterior,
    network_from_json,
    network_to_json,
    penultimate_activations,
    predict_proba,
    save_network_json,
    train,
)


def small_net(link="sigmoid", n_classes=1, hidden=(4,), p=3, seed=0):
    cfg = NetworkConfig(input_dim=p, hidden_sizes=hidden, link=link, n_classes=n_classes)
    return build_network(cfg, seed=seed)


def arrays(net):
    """Every array of ``net``: the parameters, then ``rho``."""
    return [*net.parameters(), net.rho]


#: Prior scales that NetworkConfig refuses, and the message each refusal
#: matches.
PRIOR_SCALE_REFUSALS = [
    (0.0, "prior_scale must be positive"),
    (-1.0, "prior_scale must be positive"),
    (math.nan, "prior_scale must be positive"),
    (math.inf, "prior_scale must be finite, got inf"),
    # squares that underflow below float64's normal range, or overflow
    (1e-160, r"prior_scale must square to a normal float \(from about 1\.5e-154 to "
             r"1\.3e154\), got 1e-160"),
    (1e160, r"must square to a normal float .*, got 1e\+160"),
]


class TestBuildNetwork:
    def test_shapes(self):
        net = small_net(p=2, hidden=(3,))
        assert net.hidden_weights[0].shape == (2, 3)
        assert net.hidden_biases[0].shape == (3,)
        assert net.m.shape == (3, 1)
        assert net.rho.shape == (3, 1)
        assert net.b.shape == (1,)

    def test_deterministic(self):
        a = small_net(seed=42)
        b = small_net(seed=42)
        for pa, pb in zip(arrays(a), arrays(b)):
            assert np.array_equal(pa, pb)

    def test_initial_variance(self):
        net = small_net()
        np.testing.assert_allclose(net.v, math.exp(-5.0))

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=2, hidden_sizes=(0,))

    @pytest.mark.parametrize("scale, message", PRIOR_SCALE_REFUSALS)
    def test_prior_scale_must_be_positive_and_finite(self, scale, message):
        with pytest.raises(ValueError, match=message):
            NetworkConfig(input_dim=2, hidden_sizes=(3,), prior_scale=scale)

    def test_link_class_consistency(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=2, hidden_sizes=(3,), link="softmax", n_classes=1)
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=2, hidden_sizes=(3,), link="sigmoid", n_classes=2)


class TestPenultimateActivations:
    def test_zero_parameters_give_zero(self):
        net = small_net()
        for w in net.hidden_weights:
            w[:] = 0.0
        h = penultimate_activations(net, np.ones((5, 3)))
        np.testing.assert_array_equal(h, np.zeros((5, 4)))

    def test_manual_forward_pass(self):
        cfg = NetworkConfig(input_dim=2, hidden_sizes=(2,))
        net = build_network(cfg, seed=0)
        net.hidden_weights[0] = np.array([[1.0, -1.0], [0.5, 2.0]])
        net.hidden_biases[0] = np.array([0.1, -0.2])
        x = np.array([[1.0, 2.0], [-1.0, 0.5]])
        expected = np.maximum(x @ net.hidden_weights[0] + net.hidden_biases[0], 0.0)
        np.testing.assert_allclose(penultimate_activations(net, x), expected)

    def test_output_shape(self):
        net = small_net(hidden=(6, 4))
        assert penultimate_activations(net, np.ones((7, 3))).shape == (7, 4)

    def test_dimension_mismatch(self):
        net = small_net()
        with pytest.raises(ValueError):
            penultimate_activations(net, np.ones((4, 5)))

    def test_holds_two_layers_at_most(self):
        # each layer is dropped once the next one exists: keeping every layer
        # held three 600 x 512 layers at depth 3
        net = small_net(hidden=(512, 512, 512), p=100, seed=1)
        x = np.random.default_rng(0).standard_normal((600, 100))
        tracemalloc.start()
        try:
            h = penultimate_activations(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * h.nbytes


class TestElboLoss:
    def test_zero_logits_cost_log2_each(self):
        # m = 0 and b = 0 make every mean logit 0 and the prior term 0, so
        # the Bernoulli NLL is exactly log 2 per example, whatever rho is
        net = small_net(seed=1)
        net.m[:] = 0.0
        net.b[:] = 0.0
        x = np.random.default_rng(2).standard_normal((6, 3))
        y = np.array([0, 1, 0, 1, 1, 0])
        loss = elbo_loss(net, x, y, n_total=6)
        np.testing.assert_allclose(loss, 6 * math.log(2.0), rtol=1e-15)
        net.rho[:] = 3.0
        assert elbo_loss(net, x, y, n_total=6) == loss

    def test_mean_logit_nll_plus_scaled_prior(self):
        # the NLL at the mean logits plus (batch / n_total) |m|^2 / (2 s^2)
        cfg = NetworkConfig(input_dim=3, hidden_sizes=(4,), prior_scale=0.7)
        net = build_network(cfg, seed=3)
        rng = np.random.default_rng(4)
        net.m[:] = rng.standard_normal(net.m.shape)
        x = rng.standard_normal((5, 3))
        y = np.array([1, 0, 1, 1, 0])
        loss = elbo_loss(net, x, y, n_total=20)

        f = (penultimate_activations(net, x) @ net.m + net.b)[:, 0]
        nll = np.sum(np.logaddexp(0.0, f) - y * f)
        prior = 5 / 20 * np.sum(net.m**2) / (2 * 0.7**2)
        np.testing.assert_allclose(loss, nll + prior, rtol=1e-12)

    def test_label_link_mismatch(self):
        net = small_net()
        with pytest.raises(ValueError):
            elbo_loss(net, np.ones((2, 3)), np.array([0, 2]), n_total=2)

    @pytest.mark.parametrize("loss", [
        lambda net, x, y, n_total: elbo_loss(net, x, y, n_total),
        lambda net, x, y, n_total: _elbo(net, x, y, n_total),
    ], ids=["elbo_loss", "_elbo"])
    def test_n_total_below_the_batch_size_is_refused(self, loss):
        net = small_net()
        x, y = np.ones((4, 3)), np.array([0, 1, 1, 0])
        with pytest.raises(ValueError, match="^n_total must be at least the batch size$"):
            loss(net, x, y, 3)


def _finite_difference_check(link, n_classes, y):
    rng = np.random.default_rng(7)
    cfg = NetworkConfig(input_dim=3, hidden_sizes=(4,), link=link, n_classes=n_classes)
    net = build_network(cfg, seed=11)
    net.m[:] = rng.standard_normal(net.m.shape) * 0.5
    net.b[:] = rng.standard_normal(net.b.shape) * 0.1
    x = rng.standard_normal((8, 3)) + 0.5

    # keep pre-activations away from the ReLU kink so finite differences
    # see a smooth function
    z_pre = x @ net.hidden_weights[0] + net.hidden_biases[0]
    assert np.abs(z_pre).min() > 1e-3

    n_total = 8
    _, grads = _elbo(net, x, y, n_total)
    params = net.parameters()
    eps = 1e-5
    worst = 0.0
    for p_arr, g_arr in zip(params, grads):
        it = np.nditer(p_arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p_arr[idx]
            p_arr[idx] = orig + eps
            up = elbo_loss(net, x, y, n_total)
            p_arr[idx] = orig - eps
            down = elbo_loss(net, x, y, n_total)
            p_arr[idx] = orig
            fd = (up - down) / (2 * eps)
            an = g_arr[idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


class TestGradients:
    def test_sigmoid_gradients_match_finite_differences(self):
        _finite_difference_check("sigmoid", 1, np.array([0, 1, 1, 0, 1, 0, 0, 1]))

    def test_softmax_gradients_match_finite_differences(self):
        _finite_difference_check("softmax", 3, np.array([0, 1, 2, 0, 1, 2, 0, 1]))

    def test_identity_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        _finite_difference_check("identity", 1, rng.standard_normal(8))

    @pytest.mark.parametrize("block", [None, 7])
    def test_blocks_fill_the_flat_gradient_once(self, monkeypatch, block):
        # every offset of the flat parameter vector is handed over exactly
        # once, in blocks of at most _ADAM_BLOCK values, after the loss; at a
        # block of 7 values, rows and parameters are split and a last single
        # weight row joins the block before it
        if block:
            monkeypatch.setattr(bnn, "_ADAM_BLOCK", block)
        net = small_net(link="softmax", n_classes=3, hidden=(5, 4), p=3, seed=2)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((6, 3)), np.array([0, 1, 2, 2, 1, 0])
        x, y = bnn._check_labelled(net, (x, y))  # _elbo_blocks' precondition
        loss, grads = _elbo(net, x, y, 10)
        blocks = _elbo_blocks(net, x, y, 10)
        assert next(blocks) == loss
        filled = np.full(sum(p.size for p in net.parameters()), np.nan)
        times = np.zeros(filled.size, int)
        for start, grad in blocks:
            assert 0 < grad.size <= bnn._ADAM_BLOCK
            filled[start : start + grad.size] = grad
            times[start : start + grad.size] += 1
        assert (times == 1).all()
        assert np.array_equal(filled, np.concatenate([g.ravel() for g in grads]))

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize(
        "link, n_classes, y",
        [
            ("sigmoid", 1, np.array([0, 1, 1, 0, 1, 0])),
            ("softmax", 3, np.array([0, 1, 2, 2, 1, 0])),
            ("identity", 1, np.linspace(-1.0, 2.0, 6)),
        ],
    )
    def test_each_block_comes_after_its_parameters_last_use(self, monkeypatch, block, link,
                                                            n_classes, y):
        # The consumer overwrites each block's parameters with NaN as soon as
        # it has read the block's gradient, as train's Adam updates them in
        # place. A block handed over before the backward pass last reads its
        # parameters (m in dh, W_l in da = dz W_l^T) spoils a later gradient.
        if block:
            monkeypatch.setattr(bnn, "_ADAM_BLOCK", block)
        net = small_net(link=link, n_classes=n_classes, hidden=(5, 4), p=3, seed=2)
        x, y = bnn._check_labelled(net, (np.random.default_rng(3).standard_normal((6, 3)), y))
        loss, expected = _elbo(net, x, y, 10)
        flat = np.concatenate([p.ravel() for p in net.parameters()])
        spoiled = bnn._flat_network(net, flat)
        blocks = _elbo_blocks(spoiled, x, y, 10)
        assert next(blocks) == loss
        seen = np.full(flat.size, np.nan)
        for start, grad in blocks:
            seen[start : start + grad.size] = grad
            flat[start : start + grad.size] = np.nan
        assert np.isnan(flat).all()
        assert np.array_equal(seen, np.concatenate([g.ravel() for g in expected]))


    @pytest.mark.parametrize("p, hidden", [(100, (512, 128)), (129, (256,))])
    def test_row_blocks_have_the_bits_of_the_whole_product(self, monkeypatch, p, hidden):
        # a weight gradient formed a block of rows at a time has the bits of
        # the one whole product, so training writes the same model.json bytes
        # (widths that are multiples of 8; see _elbo_blocks). At p = 129,
        # width 256, the last block would hold one row, which numpy hands to
        # gemv; it joins the block before it.
        net = small_net(hidden=hidden, p=p, seed=4)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((32, p)), rng.integers(0, 2, 32)
        loss, blocked = _elbo(net, x, y, 40)
        monkeypatch.setattr(bnn, "_ADAM_BLOCK", 2**40)
        assert _elbo(net, x, y, 40)[0] == loss
        for a, b in zip(blocked, _elbo(net, x, y, 40)[1]):
            assert np.array_equal(a, b)


def _plain_mean(link, f):
    """The inverse link written out plainly, without overflow guards."""
    if link == "identity":
        return f
    if link == "sigmoid":
        return 1.0 / (1.0 + np.exp(-f))
    return np.exp(f) / np.exp(f).sum(axis=1, keepdims=True)


def _plain_target(link, y, n_classes):
    return np.eye(n_classes)[y] if link == "softmax" else np.asarray(y, float)[:, None]


class TestLikelihood:
    @pytest.mark.parametrize(
        "link, n_classes, y",
        [
            ("sigmoid", 1, np.array([0, 1, 1, 0, 1, 0, 0, 1])),
            ("softmax", 3, np.array([0, 1, 2, 0, 1, 2, 2, 1])),
            ("identity", 1, np.linspace(-2.0, 2.0, 8)),
        ],
    )
    def test_gradient_is_mean_minus_target(self, link, n_classes, y):
        f = np.random.default_rng(31).standard_normal((8, n_classes))
        nll, g = _nll_and_grad(link, f, y.astype(float) if n_classes == 1 else y)
        mean, target = _plain_mean(link, f), _plain_target(link, y, n_classes)
        np.testing.assert_allclose(g, mean - target, rtol=1e-14, atol=0)
        if link == "sigmoid":
            plain_nll = np.sum(np.log1p(np.exp(f[:, 0])) - y * f[:, 0])
        elif link == "softmax":
            plain_nll = np.sum(np.log(np.exp(f).sum(axis=1)) - f[np.arange(8), y])
        else:
            plain_nll = np.sum(0.5 * (f[:, 0] - y) ** 2) + 4.0 * math.log(2.0 * math.pi)
        assert nll == pytest.approx(plain_nll, rel=1e-12)


def textbook_adam(p, g, m, v, step, lr):
    """Kingma & Ba's Algorithm 1, the bias-corrected moments with temporaries;
    ``m`` and ``v`` are its (normalised) moments."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m[...] = beta1 * m + (1 - beta1) * g
    v[...] = beta2 * v + (1 - beta2) * g * g
    p -= lr * (m / (1 - beta1**step)) / (np.sqrt(v / (1 - beta2**step)) + eps)


class TestAdamStep:
    def test_matches_per_array_update_bit_for_bit(self):
        rng = np.random.default_rng(0)
        shapes = [(5, 7), (7,), (3, 1)]
        params = [rng.standard_normal(s) for s in shapes]
        ref_mu = [np.zeros(s) for s in shapes]
        ref_nu = [np.zeros(s) for s in shapes]
        flat = np.concatenate([p.ravel() for p in params])
        mu, nu = np.zeros_like(flat), np.zeros_like(flat)
        lr = 1e-3
        for step in range(1, 6):
            grads = [rng.standard_normal(s) for s in shapes]
            # the unnormalised update, written per array with temporaries
            r = math.sqrt((1 - 0.999**step) / (1 - 0.999))
            lr_t = lr * (1 - 0.9) / (1 - 0.9**step) * r
            for p, g, m, v in zip(params, grads, ref_mu, ref_nu):
                m[...] = 0.9 * m + g
                v[...] = 0.999 * v + g * g
                p -= m / (np.sqrt(v) + 1e-8 * r) * lr_t
            g_flat = np.concatenate([g.ravel() for g in grads])
            # uneven blocks, as train runs the update block by block
            for b in (slice(0, 20), slice(20, None)):
                _adam_step(flat[b], g_flat[b], mu[b], nu[b], step, lr)
            assert np.array_equal(flat, np.concatenate([p.ravel() for p in params]))

    def test_tracks_kingma_ba_algorithm_1(self):
        # each step's update, against Algorithm 1's, over 1000 steps: gradient
        # magnitudes from 1e-12 (where eps dominates the denominator) to 1e2,
        # random signs, and exact zeros (the last column never sees another)
        rng = np.random.default_rng(1)
        shape, lr = (50, 8), 1e-3
        mu, nu, m, v = (np.zeros(shape) for _ in range(4))
        for step in range(1, 1001):
            g = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-12, 2, shape)
            g[rng.random(shape) < 0.2] = 0.0
            g[:, -1] = 0.0
            update, expected = np.zeros(shape), np.zeros(shape)
            textbook_adam(expected, g, m, v, step, lr)
            _adam_step(update, g.copy(), mu, nu, step, lr)
            assert np.all(np.abs(update - expected) <= 1e-10 * np.abs(expected))
        assert np.all(update[:, -1] == 0.0) and np.all(update[:, :-1] != 0.0)

    @pytest.mark.parametrize("link", LINKS)
    def test_train_follows_the_textbook_update(self, monkeypatch, link):
        # the same training with Algorithm 1 in place of _adam_step stops at
        # the same epoch, on the same metrics, with the same parameters
        rng = np.random.default_rng(8)
        x = rng.standard_normal((80, 3))
        scores = x @ rng.standard_normal((3, 3))
        n_classes = 3 if link == "softmax" else 1
        y = {
            "sigmoid": (scores[:, 0] > 0).astype(int),
            "softmax": scores.argmax(axis=1),
            "identity": scores[:, 0] + 0.1 * rng.standard_normal(80),
        }[link]
        cfg = NetworkConfig(input_dim=3, hidden_sizes=(8, 6), link=link, n_classes=n_classes)
        tcfg = TrainConfig(epochs=8, learning_rate=1e-2, batch_size=16, seed=4)
        runs = [train(build_network(cfg, seed=2), (x, y), tcfg)]
        monkeypatch.setattr(bnn, "_adam_step", textbook_adam)
        runs.append(train(build_network(cfg, seed=2), (x, y), tcfg))
        (net, history), (ref_net, ref_history) = runs
        for key in ("stopped_epoch", "best_epoch", "metric_name"):
            assert history[key] == ref_history[key]
        assert history["val_metric"] == pytest.approx(ref_history["val_metric"], rel=1e-9)
        for p, ref in zip(arrays(net), arrays(ref_net)):
            np.testing.assert_allclose(p, ref, rtol=1e-9, atol=0)


def blob_dataset(n=500, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [
            rng.standard_normal((half, 2)) + np.array([2.0, 2.0]),
            rng.standard_normal((n - half, 2)) + np.array([-2.0, -2.0]),
        ]
    )
    y = np.r_[np.zeros(half, dtype=int), np.ones(n - half, dtype=int)]
    perm = rng.permutation(n)
    return x[perm], y[perm]


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self):
        x, y = blob_dataset()
        cfg = NetworkConfig(input_dim=2, hidden_sizes=(16,))
        net = build_network(cfg, seed=0)
        trained, history = train(net, (x, y), TrainConfig(seed=0))
        probs = predict_proba(trained, x)
        acc = np.mean((probs[:, 0] > 0.5).astype(int) == y)
        assert acc > 0.95
        assert all(np.isfinite(loss) for loss in history["train_loss"])

    def test_traced_peak_is_three_parameter_buffers(self):
        # Parameters and two Adam moments, at paper scale: the initial network,
        # passed as a temporary, is freed once copied, and the gradient comes
        # to Adam a block at a time. The 1 MiB of slack covers the 256 KiB
        # gradient block, which Adam updates in place, and the loss's
        # batch-sized activations (32 rows of width 512); a parameter-sized
        # gradient buffer adds 2.4 MiB. The variance fit holds its H∘H where
        # the moments were.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 100))
        y = (x[:, 0] > 0).astype(int)
        cfg = NetworkConfig(input_dim=100, hidden_sizes=(512, 512))
        tracemalloc.start()
        try:
            trained, _ = train(build_network(cfg, seed=0), (x, y), TrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = sum(p.nbytes for p in trained.parameters())
        assert peak <= 3 * buffer + 2**20

    @pytest.mark.parametrize("val_fraction", [0.2, 0.0])
    def test_traced_peak_does_not_grow_with_rows(self, val_fraction):
        # the epoch's metric gathers and predicts its rows a batch at a time,
        # so 15.6 times the rows add only their index and per-row arrays to
        # the peak (0.2-0.3 MiB); one pass over a copy of all of them added
        # 3.5 MiB with a 20% split and 16.6 MiB on the training rows
        rng = np.random.default_rng(0)
        cfg = NetworkConfig(input_dim=100, hidden_sizes=(64, 64))
        peaks = []
        for n in (640, 10_000):
            x = rng.standard_normal((n, 100))
            y = (x[:, 0] > 0).astype(int)
            tracemalloc.start()
            try:
                train(build_network(cfg, seed=0), (x, y),
                      TrainConfig(epochs=1, val_fraction=val_fraction))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**19

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_cell_is_named(self, bad):
        # a nan cell used to surface as a loss gone non-finite at epoch 0
        x, y = blob_dataset()
        x[7, 1] = bad
        net = build_network(NetworkConfig(input_dim=2, hidden_sizes=(4,)), seed=0)
        with pytest.raises(ValueError, match=f"row 7, column 1 is {bad}"):
            train(net, (x, y), TrainConfig(epochs=1, seed=0))

    def test_invalid_step_size_and_patience_rejected(self):
        for rate in (-0.01, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=-3)
        TrainConfig(learning_rate=1e18, patience=0)  # large but valid

    def test_loss_draws_no_sample(self):
        # the loss is at the mean logits: no setting chooses a sample count,
        # and no seed fixes a draw
        with pytest.raises(TypeError):
            TrainConfig(mc_samples=2)
        net = small_net()
        x, y = np.ones((2, 3)), np.array([0, 1])
        with pytest.raises(TypeError):
            elbo_loss(net, x, y, 2, seed=2)

    def test_fixed_seed_reproducible(self):
        x, y = blob_dataset(n=120, seed=3)
        cfg = NetworkConfig(input_dim=2, hidden_sizes=(8,))
        runs = []
        for _ in range(2):
            net = build_network(cfg, seed=5)
            trained, history = train(net, (x, y), TrainConfig(epochs=5, seed=9))
            runs.append((trained, history))
        assert runs[0][1] == runs[1][1]
        for pa, pb in zip(arrays(runs[0][0]), arrays(runs[1][0])):
            assert np.array_equal(pa, pb)

    def test_input_network_unchanged_and_unshared(self):
        x, y = blob_dataset(n=120, seed=4)
        net = build_network(NetworkConfig(input_dim=2, hidden_sizes=(8, 4)), seed=1)
        before = [p.copy() for p in arrays(net)]
        trained, _ = train(net, (x, y), TrainConfig(epochs=3, seed=2))
        for p, ref in zip(arrays(net), before):
            assert np.array_equal(p, ref)
        for t in arrays(trained):
            assert not any(np.shares_memory(t, p) for p in arrays(net))
        assert not any(np.array_equal(t, p) for t, p in zip(arrays(trained), before))

    def test_checks_its_rows_once(self, monkeypatch):
        # the steps trust the rows train checked; each of the 4 steps here
        # (51 training rows in batches of 32, 2 epochs) used to check its batch
        calls = []

        def spy(*args):
            calls.append(args)
            return check(*args)

        check = bnn._check_labelled
        monkeypatch.setattr(bnn, "_check_labelled", spy)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((64, 3))
        y = (x[:, 0] > 0).astype(int)
        net = build_network(NetworkConfig(input_dim=3, hidden_sizes=(8,)), seed=0)
        _, history = train(net, (x, y), TrainConfig(epochs=2, val_fraction=0.2, seed=0))
        assert len(history["train_loss"]) == 2
        assert len(calls) == 1

    def test_divergence_raises(self):
        # one exception, carrying numpy's message and no warning, whatever the
        # warning filters; -W error used to raise the overflow's RuntimeWarning
        x, y = blob_dataset(n=64, seed=1)
        cfg = NetworkConfig(input_dim=2, hidden_sizes=(8,))
        for action in ("error", "always"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(TrainingDivergedError, match="^epoch 0: overflow encountered"):
                    train(build_network(cfg, seed=0), (x, y),
                          TrainConfig(epochs=20, learning_rate=1e300, seed=0))
            assert not caught, action

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_parameter_is_refused(self, bad):
        # a nan weight used to be a loss gone non-finite at epoch 0; nan raises
        # no floating-point error, so training would run on it
        x, y = blob_dataset(n=64, seed=1)
        net = build_network(NetworkConfig(input_dim=2, hidden_sizes=(8,)), seed=0)
        net.m[5, 0] = bad  # after the 2 x 8 weights and the 8 biases
        with pytest.raises(ValueError, match=f"^network parameters must be finite; flat "
                                             f"parameter 29 is {bad}$"):
            train(net, (x, y), TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_rho_is_refused(self, bad):
        # rho is out of the flat buffer the first check scans, and the fit
        # starts from exp(rho): it is checked by its own name
        x, y = blob_dataset(n=64, seed=1)
        net = build_network(NetworkConfig(input_dim=2, hidden_sizes=(8,)), seed=0)
        net.rho[5, 0] = bad
        with pytest.raises(ValueError, match=fr"^network parameters must be finite; "
                                             fr"rho\[5, 0\] is {bad}$"):
            train(net, (x, y), TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize(
        "val_fraction, batch_size",
        [(0.2, 32), (0.0, 32), (0.2, 7), (0.0, 7)],
        ids=["0.2", "0.0", "0.2-batch7", "0.0-batch7"],
    )
    @pytest.mark.parametrize("link", ["sigmoid", "softmax", "identity"])
    def test_metric_follows_link_and_split(self, link, val_fraction, batch_size):
        # each epoch's metric is recomputed plainly from the network trained
        # for that many epochs, on the split train evaluates; train computes
        # it a batch at a time, and 7 rows split both the 12 validation rows
        # and the 60 training rows into chunks with a ragged last one
        rng = np.random.default_rng(8)
        n, epochs = 60, 3
        x = rng.standard_normal((n, 3))
        scores = x @ rng.standard_normal((3, 3))
        n_classes = 3 if link == "softmax" else 1
        y = {
            "sigmoid": (scores[:, 0] > 0).astype(int),
            "softmax": scores.argmax(axis=1),
            "identity": scores[:, 0] + 0.1 * rng.standard_normal(n),
        }[link]
        cfg = NetworkConfig(input_dim=3, hidden_sizes=(6,), link=link, n_classes=n_classes)
        net = build_network(cfg, seed=3)

        runs = []
        for e in range(1, epochs + 1):
            tcfg = TrainConfig(epochs=e, patience=epochs, val_fraction=val_fraction,
                               batch_size=batch_size, seed=5)
            runs.append(train(net, (x, y), tcfg))
        history = runs[-1][1]
        n_val = int(round(val_fraction * n))
        order = np.random.default_rng(5).permutation(n)
        rows = order[:n_val] if n_val else order
        if n_val and link != "identity":
            name, best = "val_accuracy", np.argmax
        else:
            name, best = ("val_mse" if n_val else "train_mse"), np.argmin
        assert history["metric_name"] == name
        assert history["best_epoch"] == int(best(history["val_metric"]))
        assert len(history["val_metric"]) == epochs
        for (model, _), value in zip(runs, history["val_metric"]):
            f = penultimate_activations(model, x[rows]) @ model.m + model.b
            mean = _plain_mean(link, f)
            if name == "val_accuracy":
                pred = mean[:, 0] > 0.5 if link == "sigmoid" else mean.argmax(axis=1)
                assert value == np.mean(pred == y[rows])
            else:
                target = _plain_target(link, y[rows], n_classes)
                assert value == pytest.approx(np.mean((mean - target) ** 2), rel=1e-12)

    @pytest.mark.parametrize("val_fraction", [0.001, 1 / 600])
    def test_validation_split_holding_out_no_row_is_refused(self, val_fraction):
        # round(val_fraction * 300) is 0: this used to stop early on the
        # training rows, as train_mse
        x, y = blob_dataset(300)
        net = build_network(NetworkConfig(input_dim=2, hidden_sizes=(4,)), seed=0)
        message = f"val_fraction {val_fraction} holds out no row of n = 300"
        with pytest.raises(ValueError, match=message):
            train(net, (x, y), TrainConfig(epochs=1, val_fraction=val_fraction))

    def test_validation_split_of_one_row_is_kept(self):
        x, y = blob_dataset(300)
        net = build_network(NetworkConfig(input_dim=2, hidden_sizes=(4,)), seed=0)
        _, history = train(net, (x, y), TrainConfig(epochs=1, val_fraction=0.002))
        assert history["metric_name"] == "val_accuracy"

    def test_regression_fallback_metric(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((80, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(80)
        cfg = NetworkConfig(input_dim=3, hidden_sizes=(8,), link="identity")
        net = build_network(cfg, seed=2)
        _, history = train(net, (x, y), TrainConfig(epochs=3, val_fraction=0.0, seed=2))
        assert history["metric_name"] == "train_mse"
        assert len(history["train_loss"]) <= 3


def quadrature_elbo(net, x, y, rho):
    """The negative ELBO in ``rho`` whose stationary point the variance fit
    finds, and its KL term: per row, nll(mean) + sum_a [sum_k w_k nll(mean +
    sd_a x_k e_a) - nll(mean)] over both halves of the fit's Gauss-Hermite
    rule, plus KL(N(m, exp(rho)) | N(0, s^2)), summed one node at a time."""
    link, s2 = net.config.link, net.config.prior_scale**2
    y = bnn._prepare_labels(link, net.config.n_classes, y)
    h = penultimate_activations(net, x)
    mean = h @ net.m + net.b
    v = np.exp(rho)
    sd = np.sqrt(h**2 @ v)
    half_nodes, half_weights = bnn._gauss_hermite()
    nodes = np.concatenate([half_nodes, -half_nodes])
    weights = np.concatenate([half_weights, half_weights])
    at_mean = _nll_and_grad(link, mean, y)[0]
    total = at_mean
    for a in range(mean.shape[1]):
        expected = 0.0
        for node, weight in zip(nodes, weights):
            f = mean.copy()
            f[:, a] += sd[:, a] * node
            expected += weight * _nll_and_grad(link, f, y)[0]
        total += expected - at_mean
    kl = 0.5 * np.sum(v / s2 + net.m**2 / s2 - 1.0 - np.log(v / s2))
    return total + kl, kl


def quadrature_elbo_rho_gradient(net, x, y, eps=1e-4):
    """The largest central difference of ``quadrature_elbo`` in one entry of
    rho at ``net.rho``, and the KL term there."""
    worst = 0.0
    for idx in np.ndindex(net.rho.shape):
        rho = net.rho.copy()
        rho[idx] += eps
        up = quadrature_elbo(net, x, y, rho)[0]
        rho[idx] -= 2 * eps
        down = quadrature_elbo(net, x, y, rho)[0]
        worst = max(worst, abs(up - down) / (2 * eps))
    return worst, quadrature_elbo(net, x, y, net.rho)[1]


#: (link, n_classes) of every variance-fit case.
FIT_LINKS = [("sigmoid", 1), ("identity", 1), ("softmax", 2), ("softmax", 3)]
FIT_IDS = ["sigmoid", "identity", "softmax2", "softmax3"]


def fit_case(link, n_classes, n=40, seed=3):
    """A network with moderate random output means, inputs and labels."""
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(input_dim=4, hidden_sizes=(8, 6), link=link, n_classes=n_classes,
                        prior_scale=1.5)
    net = build_network(cfg, seed=2)
    net.m[:] = rng.standard_normal(net.m.shape)
    x = rng.standard_normal((n, 4))
    y = {"sigmoid": rng.integers(0, 2, n), "identity": rng.standard_normal(n),
         "softmax": rng.integers(0, n_classes, n)}[link]
    return net, x, y


def fit(net, x, budget=10**6):
    """``_fit_output_variances`` on every row of ``x``, from ``net.rho``."""
    return bnn._fit_output_variances(net, x, np.arange(len(x)), np.exp(net.rho), budget)


def train_case(link, n_classes, rho, seed=4):
    """A small network trained from initial log-variances ``rho``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((90, 3))
    scores = x @ rng.standard_normal((3, 3))
    y = {"sigmoid": (scores[:, 0] > 0).astype(int), "softmax": scores[:, :n_classes].argmax(axis=1),
         "identity": scores[:, 0] + 0.1 * rng.standard_normal(90)}[link]
    cfg = NetworkConfig(input_dim=3, hidden_sizes=(8, 6), link=link, n_classes=n_classes,
                        prior_scale=0.7)
    net = build_network(cfg, seed=5)
    net.rho[:] = rho
    return train(net, (x, y), TrainConfig(epochs=6, learning_rate=1e-2, batch_size=16, seed=6))


class TestVarianceFit:
    # The bound is stated before the runs: the fit stops once every
    # derivative of the quadrature ELBO in rho is at most _FIT_RTOL / 2 =
    # 5e-11, and central differences at eps = 1e-4 carry about 1e-9 of
    # rounding here; the bound is 1e-8 of the KL term (7 to 18 here).
    @pytest.mark.parametrize("link, n_classes", FIT_LINKS, ids=FIT_IDS)
    def test_fitted_variances_are_stationary(self, link, n_classes):
        net, x, y = fit_case(link, n_classes)
        v, _ = fit(net, x)
        net.rho = np.log(v)
        grad, kl = quadrature_elbo_rho_gradient(net, x, y)
        assert grad <= 1e-8 * kl, (grad, kl)
        # the control: 1% off the fitted v, the derivative is 1e4 times the bound
        net.rho = np.log(v) + 0.01
        assert quadrature_elbo_rho_gradient(net, x, y)[0] > 1e-4 * kl

    def test_identity_closed_form_is_exact(self):
        # the curvature is 1, so F does not depend on v: the first step lands
        # on 1/v = 1/s^2 + sum_i h_ij^2, and the second confirms it
        net, x, _ = fit_case("identity", 1)
        v, iterations = fit(net, x)
        hh = penultimate_activations(net, x) ** 2
        s2 = net.config.prior_scale**2
        assert np.array_equal(v, s2 / (1.0 + s2 * (hh.T @ np.ones((len(x), 1)))))
        assert iterations == 2

    @pytest.mark.parametrize("link, n_classes", FIT_LINKS, ids=FIT_IDS)
    def test_dead_unit_gets_the_prior_variance(self, link, n_classes):
        # a unit that is 0 on every row adds nothing to 1/v: v = s^2 exactly
        net, x, _ = fit_case(link, n_classes)
        net.hidden_weights[-1][:, 2] = 0.0
        net.hidden_biases[-1][2] = 0.0
        assert not penultimate_activations(net, x)[:, 2].any()
        v, _ = fit(net, x)
        assert (v[2] == net.config.prior_scale**2).all()
        assert (v[[0, 1, 3, 4, 5]] < net.config.prior_scale**2).any()

    @pytest.mark.parametrize("link, n_classes", FIT_LINKS, ids=FIT_IDS)
    def test_rows_past_the_budget_are_recomputed(self, link, n_classes):
        # 3 rows' H∘H held and 37 recomputed give the v of 40 rows held
        net, x, _ = fit_case(link, n_classes)
        held, iterations = fit(net, x)
        recomputed, again = fit(net, x, budget=3 * net.config.penultimate_dim + 5)
        np.testing.assert_allclose(recomputed, held, rtol=1e-12)
        assert again == iterations

    def test_damped_map_converges_where_the_plain_map_cycles(self):
        # one unit, h = 1 on 1000 rows, mean logit 12, s = 3: the curvature
        # grows steeply with the logit variance out in the sigmoid's tail, and
        # the plain map v <- F(v) alternates between two points for ever
        cfg = NetworkConfig(input_dim=1, hidden_sizes=(1,), prior_scale=3.0)
        net = build_network(cfg, seed=0)
        net.hidden_weights[0][:] = 1.0
        net.m[:], net.b[:] = 0.0, 12.0
        x = np.ones((1000, 1))

        def plain(v):
            c = bnn._curvature("sigmoid", np.full((1000, 1), 12.0), np.full((1000, 1), v))
            return 9.0 / (1.0 + 9.0 * c.sum())

        v = math.exp(-5.0)
        for _ in range(300):
            v = plain(v)
        low, high = sorted([v, plain(v)])
        assert plain(plain(v)) == v
        assert high > 1.5 * low

        fitted, iterations = fit(net, x)
        assert low < fitted[0, 0] < high
        assert abs(fitted[0, 0] / plain(fitted[0, 0]) - 1.0) <= bnn._FIT_RTOL
        assert iterations < 50

    @pytest.mark.parametrize("link, n_classes", FIT_LINKS, ids=FIT_IDS)
    def test_initial_rho_does_not_steer_training(self, link, n_classes):
        # rho is out of the loss, so two starts train the same weights, bit
        # for bit; the fit starts from each, and lands within its tolerance
        (a, history_a), (b, history_b) = (train_case(link, n_classes, rho) for rho in (-9.0, -1.0))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)
        for key in ("train_loss", "val_metric", "best_epoch", "stopped_epoch"):
            assert history_a[key] == history_b[key]
        # each v is within _FIT_RTOL of its F(v), so the two lie a few of it apart
        assert np.abs(a.v / b.v - 1.0).max() <= 10 * bnn._FIT_RTOL

    @pytest.mark.parametrize("link, n_classes", FIT_LINKS, ids=FIT_IDS)
    def test_underflowed_start_is_lifted(self, link, n_classes):
        # exp(-800) is 0; the first, plain step takes every variance to s^2
        # or below it, and the fit converges where a start of exp(-5) does
        (zero, history), (usual, _) = (train_case(link, n_classes, rho) for rho in (-800.0, -5.0))
        assert history["variance_fit"]["v_min"] > 0
        assert np.abs(zero.v / usual.v - 1.0).max() <= 10 * bnn._FIT_RTOL

    def test_fit_runs_on_the_training_rows(self, monkeypatch):
        calls = []

        def spy(net, x, rows, v, budget):
            calls.append((x, rows, v, budget))
            return fit_output_variances(net, x, rows, v, budget)

        fit_output_variances = bnn._fit_output_variances
        monkeypatch.setattr(bnn, "_fit_output_variances", spy)
        x, y = blob_dataset(n=100, seed=2)
        net = build_network(NetworkConfig(input_dim=2, hidden_sizes=(8,)), seed=0)
        buffer = sum(p.size for p in net.parameters())
        trained, history = train(net, (x, y), TrainConfig(epochs=2, val_fraction=0.2, seed=3))
        [(given, rows, start, budget)] = calls
        assert given.base is x or given is x
        assert np.array_equal(rows, np.random.default_rng(3).permutation(100)[20:])
        assert np.array_equal(start, np.exp(net.rho))
        assert budget == 2 * buffer  # the moments' values
        v, iterations = fit_output_variances(trained, x, rows, start, budget)
        np.testing.assert_allclose(trained.v, v, rtol=1e-15)
        assert history["variance_fit"] == {
            "iterations": iterations, "v_min": float(v.min()),
            "v_median": float(np.median(v)), "v_max": float(v.max()),
        }

    def test_hitting_the_cap_is_divergence(self, monkeypatch):
        monkeypatch.setattr(bnn, "_FIT_MAX_ITERATIONS", 3)
        x, y = blob_dataset(n=64, seed=1)
        net = build_network(NetworkConfig(input_dim=2, hidden_sizes=(8,)), seed=0)
        with pytest.raises(TrainingDivergedError,
                           match=r"^epoch \d+: the output-variance fit did not converge in 3 "
                                 r"iterations \(largest relative change "):
            train(net, (x, y), TrainConfig(epochs=2, seed=0))


class TestLogitPosterior:
    def test_identity_activations(self):
        # one hidden layer with identity weights on an identity input makes
        # H the identity, so the posterior is exactly N(m + b, diag(v))
        cfg = NetworkConfig(input_dim=3, hidden_sizes=(3,))
        net = build_network(cfg, seed=0)
        net.hidden_weights[0] = np.eye(3)
        net.hidden_biases[0] = np.zeros(3)
        net.b[:] = 0.25
        lp = logit_posterior(net, np.eye(3))
        np.testing.assert_allclose(lp.mean, net.m + 0.25)
        g = lp.hidden * np.sqrt(lp.variances[:, 0])
        np.testing.assert_allclose(g @ g.T, np.diag(net.v[:, 0]), atol=1e-15)

    def test_zero_variance_degenerate(self):
        net = small_net()
        net.rho[:] = -800.0  # exp underflows to exactly 0
        lp = logit_posterior(net, np.random.default_rng(0).standard_normal((4, 3)))
        np.testing.assert_array_equal(lp.variances, 0.0)

    def test_factor_reproduces_covariance(self):
        net = small_net(hidden=(3,), seed=4)
        x = np.random.default_rng(5).standard_normal((6, 3))
        lp = logit_posterior(net, x)
        h = penultimate_activations(net, x)
        direct = h @ np.diag(net.v[:, 0]) @ h.T
        g = lp.hidden * np.sqrt(lp.variances[:, 0])
        np.testing.assert_allclose(g @ g.T, direct, atol=1e-12)

    def test_mean_linear_in_m(self):
        net = small_net(seed=8)
        x = np.random.default_rng(9).standard_normal((5, 3))
        base = logit_posterior(net, x)
        net.m *= 2.0
        doubled = logit_posterior(net, x)
        np.testing.assert_allclose(doubled.mean - net.b, 2.0 * (base.mean - net.b))

    def test_factor_linear_in_sqrt_v(self):
        net = small_net(seed=10)
        x = np.random.default_rng(11).standard_normal((5, 3))
        base = logit_posterior(net, x)
        net.rho += math.log(4.0)  # scales sqrt(v) by 2
        scaled = logit_posterior(net, x)
        np.testing.assert_array_equal(scaled.hidden, base.hidden)
        np.testing.assert_allclose(
            np.sqrt(scaled.variances), 2.0 * np.sqrt(base.variances), rtol=1e-12
        )


class TestPredictProba:
    def test_zero_logits_give_half(self):
        net = small_net()
        net.m[:] = 0.0
        net.b[:] = 0.0
        probs = predict_proba(net, np.random.default_rng(0).standard_normal((4, 3)))
        np.testing.assert_allclose(probs, 0.5)

    def test_softmax_rows_sum_to_one(self):
        net = small_net(link="softmax", n_classes=4, seed=3)
        probs = predict_proba(net, np.random.default_rng(1).standard_normal((9, 3)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_identity_link_unsupported(self):
        net = small_net(link="identity")
        with pytest.raises(ValueError):
            predict_proba(net, np.ones((2, 3)))

    def test_matches_monte_carlo_average(self):
        net = small_net(seed=6)
        x = np.random.default_rng(7).standard_normal((10, 3))
        probs = predict_proba(net, x)[:, 0]

        h = penultimate_activations(net, x)
        mean = (h @ net.m + net.b)[:, 0]
        sd = np.sqrt((h**2) @ net.v)[:, 0]
        rng = np.random.default_rng(8)
        draws = mean + sd * rng.standard_normal((1000, 10))
        mc = (1.0 / (1.0 + np.exp(-draws))).mean(axis=0)
        assert np.abs(probs - mc).max() < 0.05


class TestPredictClasses:
    @pytest.mark.parametrize("link, b", [("sigmoid", [1e-17]), ("softmax", [0.0, 1e-17])])
    def test_class_comes_from_the_logits(self, link, b):
        # the float64 sigmoid of 1e-17 rounds to exactly 0.5, and the softmax
        # of (0, 1e-17) to (0.5, 0.5); the logits still rank class 1 first
        net = small_net(link=link, n_classes=len(b))
        net.hidden_weights = [np.zeros_like(w) for w in net.hidden_weights]
        net.b = np.array(b)
        x = np.ones((2, 3))
        assert np.all(predict_proba(net, x)[:, -1] == 0.5)
        assert np.array_equal(_predict_classes(net, x), [1, 1])


class TestSerialization:
    def test_round_trip_bit_exact(self):
        net = small_net(hidden=(5, 3), seed=13)
        text = network_to_json(net)
        back = network_from_json(text)
        assert back.config == net.config
        assert back.seed == net.seed
        for pa, pb in zip(arrays(net), arrays(back)):
            assert np.array_equal(pa, pb)
        assert network_to_json(back) == text

    def test_rejects_foreign_documents(self):
        # a JSON list used to raise AttributeError
        for doc, message in (
            ({"format": "something-else"}, "not a serialized network document"),
            ([], "the document must be an object, got a list"),
            ([1, 0], "the document must be an object, got a list"),
        ):
            with pytest.raises(ValueError, match=message):
                network_from_json(json.dumps(doc))

    def test_round_trip_keeps_special_bit_patterns(self):
        net = small_net(hidden=(3,), p=2, seed=4)
        nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        specials = [-0.0, 5e-324, np.inf, -np.inf, np.nan, nan_payload]
        net.hidden_weights[0].flat[:] = specials
        net.m[:, 0] = specials[3:]
        net.rho[:, 0] = specials[:3]
        back = network_from_json(network_to_json(net))
        for pa, pb in zip(arrays(net), arrays(back)):
            assert np.array_equal(pa.view(np.uint64), pb.view(np.uint64))
            assert pb.dtype == np.float64 and pb.dtype.isnative
            assert pb.flags.owndata and pb.flags.writeable

    def test_refuses_version_1_documents(self):
        doc = json.loads(network_to_json(small_net(hidden=(3,), seed=2)))
        doc["version"] = 1
        with pytest.raises(ValueError, match="version: 1 .*retrain"):
            network_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("data", "AAAA!AAA", r"hidden\[0\]\.weights data is not valid base64"),
            ("data", base64.b64encode(bytes(88)).decode(), r"weights holds 88 bytes, expected 96"),
            ("shape", [4, 3], r"hidden\[0\]\.weights has shape \(4, 3\), expected \(3, 4\)"),
        ],
    )
    def test_rejects_malformed_arrays(self, field, value, message):
        doc = json.loads(network_to_json(small_net(hidden=(4,), p=3, seed=2)))
        doc["hidden"][0]["weights"][field] = value
        with pytest.raises(ValueError, match=message):
            network_from_json(json.dumps(doc))

    def test_rejects_layer_count_mismatch(self):
        doc = json.loads(network_to_json(small_net(hidden=(4, 3), seed=2)))
        doc["config"]["hidden_sizes"] = [4]
        with pytest.raises(ValueError, match="document has 2 hidden layers, its config lists 1"):
            network_from_json(json.dumps(doc))

    def test_rejects_unknown_activation(self):
        doc = json.loads(network_to_json(small_net(hidden=(3,), seed=2)))
        assert doc["config"]["activation"] == "relu"
        doc["config"]["activation"] = "tanh"
        with pytest.raises(ValueError, match="unsupported activation: 'tanh'"):
            network_from_json(json.dumps(doc))

    def test_rejects_a_document_missing_a_top_level_key(self):
        text = network_to_json(small_net(hidden=(3,), seed=2))
        for key in ("format", "version", "seed", "config", "hidden", "m", "rho", "b"):
            doc = json.loads(text)
            del doc[key]
            message = "'format' is not" if key == "format" else f"is missing '{key}'"
            with pytest.raises(ValueError, match=message):
                network_from_json(json.dumps(doc))

    @pytest.mark.parametrize("link, n_classes", [("sigmoid", 1), ("softmax", 3), ("identity", 1)])
    def test_writer_writes_network_to_json_and_a_newline(self, tmp_path, link, n_classes):
        net = small_net(link=link, n_classes=n_classes, hidden=(4, 3), seed=6)
        net.hidden_weights[1].flat[:4] = [-0.0, np.nan, np.inf, -np.inf]
        net.m[0] = -0.0
        net.b[-1] = np.nan
        path = tmp_path / "model.json"
        save_network_json(net, path)
        text = network_to_json(net)
        assert path.read_bytes() == (text + "\n").encode("ascii")
        # the streamed text is json.dumps of the document it holds
        assert text == json.dumps(json.loads(text), sort_keys=True)

    def test_writer_holds_no_copy_of_the_whole_document(self, tmp_path):
        # A paper-scale model (p=100, hidden 512,512): 3.2 MiB of JSON, of
        # which the 512x512 weights are 2.7 MiB of base64. The writer holds
        # the document's skeleton and the base64 of one 192 KiB chunk of an
        # array (256 KiB); building each array's base64 string, plus a quoted
        # and an encoded copy of the largest, held 8.6 MiB.
        net = small_net(hidden=(512, 512), p=100, seed=1)
        text = network_to_json(net)
        tracemalloc.start()
        try:
            save_network_json(net, tmp_path / "model.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        assert (tmp_path / "model.json").read_text() == text + "\n"

    def test_loader_reads_what_the_writer_wrote(self, tmp_path):
        net = small_net(link="softmax", n_classes=3, hidden=(5, 3), seed=8)
        net.m[0, 0] = -0.0
        path = tmp_path / "model.json"
        save_network_json(net, path)
        back = load_network_json(path)
        assert back.config == net.config and back.seed == net.seed
        for pa, pb in zip(arrays(net), arrays(back)):
            assert pa.tobytes() == pb.tobytes()
        assert network_to_json(back) == network_to_json(net)

    @pytest.mark.parametrize("content, message", [
        (b"[]", "the document must be an object, got a list"),
        (b'{"format": "ratekit-network", "version": 2', "Expecting"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_loader_refusal_names_the_file_first(self, tmp_path, content, message):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_network_json(path)
        assert str(info.value).startswith(f"{path}: {message}"), info.value

    def test_links_constant_is_exported(self):
        assert LINKS == ("sigmoid", "identity", "softmax")
