"""Networks with deterministic ReLU hidden layers and a Gaussian mean-field
output layer.

The hidden stack is an ordinary point-estimate MLP. The output layer keeps a
fully factorized Gaussian over its weights (mean ``m``, variance
``v = exp(rho)``), so the latent pre-link outputs ("logits") of any input
batch follow a closed-form Gaussian whose covariance factor is cheap to carry
around. Training fits the hidden stack, ``m`` and ``b`` deterministically at
the v -> 0 limit of the variational lower bound (the NLL at the mean logits
plus the prior on ``m``), with hand-written reverse-mode gradients validated
against finite differences in the test suite. It then sets v at the bound's
stationary point given those: the fixed point of 1/v_j = 1/s^2 + sum_i c_i
h_ij^2 (Opper and Archambeau, Neural Computation 21(3), 2009), with c_i the
expected curvature of the NLL under the logit's Gaussian, taken as the
derivative of one Gauss-Hermite sum (``_curvature``).

The three links are canonical, so one inverse link maps logits to the
likelihood's mean, the NLL's logit gradient is mean - target for labels
encoded as (n, c) targets, and that mean also serves ``predict_proba`` and
the squared error; classes come from the logits themselves.
"""

from __future__ import annotations

import base64
import binascii
import functools
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from ratekit.core import checked, first_non_finite, in_file, text_file

__all__ = [
    "NetworkConfig",
    "Network",
    "TrainConfig",
    "LogitPosterior",
    "TrainingDivergedError",
    "build_network",
    "penultimate_activations",
    "elbo_loss",
    "train",
    "logit_posterior",
    "predict_proba",
    "network_to_json",
    "save_network_json",
    "network_from_json",
    "load_network_json",
]

LINKS = ("sigmoid", "identity", "softmax")

#: The hidden-layer nonlinearity; recorded in serialized networks.
ACTIVATION = "relu"

SERIAL_FORMAT = "ratekit-network"
SERIAL_VERSION = 2


class TrainingDivergedError(RuntimeError):
    """Raised when a training step fails numerically (see ``train``)."""

    def __init__(self, epoch: int, message: str):
        self.epoch = epoch
        super().__init__(message)


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description: p inputs -> ReLU hidden stack -> c outputs.

    ``prior_scale`` s must be positive, finite, and square to a normal
    float, since over a subnormal s^2 the prior's m^2 / s^2 overflows; else
    ``ValueError``."""

    input_dim: int
    hidden_sizes: tuple[int, ...]
    link: str = "sigmoid"
    n_classes: int = 1
    prior_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must be non-empty")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden layer widths must be >= 1")
        if self.link not in LINKS:
            raise ValueError(f"unsupported link: {self.link!r}")
        if self.link == "softmax" and self.n_classes < 2:
            raise ValueError("softmax link requires n_classes >= 2")
        if self.link in ("sigmoid", "identity") and self.n_classes != 1:
            raise ValueError(f"{self.link} link requires n_classes == 1")
        if not self.prior_scale > 0:
            raise ValueError("prior_scale must be positive")
        if not math.isfinite(self.prior_scale):
            raise ValueError(f"prior_scale must be finite, got {self.prior_scale}")
        scale = float(self.prior_scale)  # a numpy scalar's square warns as it overflows
        if not np.finfo(np.float64).tiny <= scale * scale < math.inf:
            raise ValueError("prior_scale must square to a normal float (from about 1.5e-154 "
                             f"to 1.3e154), got {self.prior_scale}")

    @property
    def penultimate_dim(self) -> int:
        return self.hidden_sizes[-1]


@dataclass
class Network:
    """Point-estimate hidden parameters plus output-layer variational state.

    ``hidden_weights[l]`` has shape (fan_in, fan_out); ``m`` and ``rho`` are
    (k, c) with k the last hidden width; ``b`` is the per-class output bias.
    ``rho`` is not among the ``parameters()``: ``train`` fits it after them.
    """

    config: NetworkConfig
    hidden_weights: list[np.ndarray]
    hidden_biases: list[np.ndarray]
    m: np.ndarray
    rho: np.ndarray
    b: np.ndarray
    seed: int = 0

    @property
    def v(self) -> np.ndarray:
        """Output-layer weight variances, exp(rho)."""
        return np.exp(self.rho)

    def parameters(self) -> list[np.ndarray]:
        """The arrays training fits by gradient, in a fixed order: each
        hidden layer's weights and bias, then ``m`` and ``b``."""
        params: list[np.ndarray] = []
        for w, c in zip(self.hidden_weights, self.hidden_biases):
            params.extend((w, c))
        params.extend((self.m, self.b))
        return params


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-3
    patience: int = 2
    batch_size: int = 32
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not 0 <= self.val_fraction < 1:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class LogitPosterior:
    """Gaussian over the latent pre-link outputs of a fixed input batch.

    Class c has mean ``mean[:, c]`` and covariance H diag(v[:, c]) H^T, with
    H the penultimate activations ``hidden`` and v the output-layer weight
    ``variances`` (the local reparameterization). Every class shares H, so
    neither the n-by-n matrix nor a per-class n-by-k factor is materialized.
    """

    mean: np.ndarray  # (n, c)
    hidden: np.ndarray  # (n, k)
    variances: np.ndarray  # (k, c)

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    @property
    def n_classes(self) -> int:
        return self.mean.shape[1]


def build_network(config: NetworkConfig, seed: int = 0) -> Network:
    """Initialize a network deterministically from a seed.

    Hidden weights are fan-in-scaled uniform, hidden biases zero, output
    means small Gaussians, and output log-variances -5, so an untrained
    network's posterior is narrow but not degenerate. ``train`` does not
    read them: it fits the variances from the prior's.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    fan_in = config.input_dim
    for width in config.hidden_sizes:
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, width)))
        biases.append(np.zeros(width))
        fan_in = width
    k, c = config.penultimate_dim, config.n_classes
    m = rng.normal(0.0, 0.05, size=(k, c))
    rho = np.full((k, c), -5.0)
    b = np.zeros(c)
    return Network(config, weights, biases, m, rho, b, seed=int(seed))


def _check_inputs(net: Network, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.config.input_dim:
        raise ValueError(
            f"expected inputs with {net.config.input_dim} columns, got shape {x.shape}"
        )
    return x


def _check_labelled(net: Network, dataset) -> tuple[np.ndarray, np.ndarray]:
    """The inputs and prepared labels of ``dataset`` (a ``Dataset`` or an
    (x, y) pair), of one length; every input cell must be finite."""
    x, y = (dataset.X, dataset.y) if hasattr(dataset, "X") else dataset
    x = _check_inputs(net, x)
    y = _prepare_labels(net.config.link, net.config.n_classes, y)
    if y.shape[0] != x.shape[0]:
        raise ValueError("inputs and labels disagree on length")
    if (at := first_non_finite(x)) is not None:
        raise ValueError(f"inputs must be finite; row {at[0]}, column {at[1]} is {float(x[at])}")
    return x, y


def _predict_hidden(net: Network, x: np.ndarray):
    """Run the affine+ReLU hidden stack, yielding each layer's activations in
    turn: a caller that keeps only the last holds two layers at most."""
    a = x
    for w, c in zip(net.hidden_weights, net.hidden_biases):
        a = a @ w
        a += c
        np.maximum(a, 0.0, out=a)
        yield a


def penultimate_activations(net: Network, x) -> np.ndarray:
    """The n-by-k activation matrix feeding the variational output layer."""
    for h in _predict_hidden(net, _check_inputs(net, x)):
        pass
    return h


def _prepare_labels(link: str, n_classes: int, y) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError("labels must be 1-dimensional")
    if link == "sigmoid":
        yf = y.astype(np.float64)
        if not np.all((yf == 0.0) | (yf == 1.0)):
            raise ValueError("sigmoid link expects binary 0/1 labels")
        return yf
    if link == "softmax":
        yi = y.astype(np.int64)
        if np.any(yi < 0) or np.any(yi >= n_classes):
            raise ValueError(f"softmax labels must lie in [0, {n_classes})")
        return yi
    return y.astype(np.float64)


def _target(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Prepared labels as the (n, c) mean a perfect prediction would have:
    the 0/1 label or the response as one column, one-hot rows for softmax."""
    if n_classes == 1:
        return y[:, None]
    target = np.zeros((y.shape[0], n_classes))
    target[np.arange(y.shape[0]), y] = 1.0
    return target


def _inverse_link(link: str, f: np.ndarray) -> np.ndarray:
    """The likelihood's mean at logits ``f`` (n, c): ``f`` itself for the
    identity link, the logistic sigmoid, or the row softmax."""
    if link == "identity":
        return f
    if link == "sigmoid":
        # split by sign so exp never overflows
        mean = np.empty_like(f)
        pos = f >= 0
        mean[pos] = 1.0 / (1.0 + np.exp(-f[pos]))
        ex = np.exp(f[~pos])
        mean[~pos] = ex / (1.0 + ex)
        return mean
    mean = np.exp(f - f.max(axis=1, keepdims=True))
    mean /= mean.sum(axis=1, keepdims=True)
    return mean


def _nll_and_grad(link: str, f: np.ndarray, y: np.ndarray):
    """Total negative log-likelihood at logits ``f``, and d nll / d f, which
    is mean - target for each of the three canonical links."""
    g = _inverse_link(link, f) - _target(y, f.shape[1])
    if link == "sigmoid":
        fv = f[:, 0]
        return float(np.sum(np.logaddexp(0.0, fv) - y * fv)), g
    if link == "softmax":
        fmax = f.max(axis=1, keepdims=True)
        lse = fmax[:, 0] + np.log(np.sum(np.exp(f - fmax), axis=1))
        return float(np.sum(lse - f[np.arange(f.shape[0]), y])), g
    # identity: Gaussian likelihood with unit noise variance
    return float(np.sum(0.5 * g[:, 0] ** 2 + 0.5 * math.log(2.0 * math.pi))), g


#: The most values of the flat gradient that ``_elbo_blocks`` hands over at
#: once, and so the most that one ``_adam_step`` updates. The variance fit
#: sizes its pieces of rows by it too.
_ADAM_BLOCK = 32768


def _row_bounds(n: int, size: int) -> list[int]:
    """Bounds of consecutive pieces of ``n`` rows, ``max(2, size)`` rows each
    but the last. numpy hands a one-row product to gemv, which rounds unlike
    gemm, so a last single row joins the piece before it."""
    cuts = list(range(0, n, max(2, size)))
    if len(cuts) > 1 and n - cuts[-1] == 1:
        cuts.pop()
    return [*cuts, n]


def _blocks(start: int, grad: np.ndarray):
    """``(offset, values)`` pieces of at most ``_ADAM_BLOCK`` values of
    ``grad``, the flat gradient's values from offset ``start`` on."""
    grad = grad.reshape(-1)
    for i in range(0, grad.size, _ADAM_BLOCK):
        yield start + i, grad[i : i + _ADAM_BLOCK]


def _elbo_blocks(net: Network, x, y, n_total: int):
    """Training's minibatch loss, then its gradient a block at a time.

    The loss is the negative minibatch ELBO's part in the trained
    parameters at v -> 0: the NLL at the mean logits h m + b plus the prior
    term (batch / n_total) |m|^2 / (2 s^2). It is a deterministic function
    of (parameters, batch).

    A generator. The loss is yielded first, before the backward pass. Then
    come ``(start, grad)`` pairs: ``grad`` holds at most ``_ADAM_BLOCK``
    values of the gradient of the flat parameter vector (``net.parameters()``
    raveled and concatenated), from offset ``start`` on; each offset comes
    exactly once. A block comes only after the backward pass last reads its
    parameter: ``m`` and ``b`` (contiguous in the flat vector) once dh is
    formed, hidden layer l's bias and weight rows once da = dz W_lᵀ is. So
    the consumer may update each block's parameters in place before asking
    for the next block. It may also overwrite ``grad``, which the next block
    may reuse.

    Precondition, not checked here: ``x`` and ``y`` are as ``_check_labelled``
    returns them and ``n_total`` is at least their length. ``train`` checks
    its rows once, before its first step, and ``_checked_elbo_blocks`` checks
    a batch for the other callers.
    """
    cfg = net.config
    activations = [x, *_predict_hidden(net, x)]
    h = activations[-1]
    nll, g = _nll_and_grad(cfg.link, h @ net.m + net.b, y)
    decay = x.shape[0] / (n_total * cfg.prior_scale**2)  # d prior / d m = decay m
    yield 0.5 * decay * float(np.sum(net.m**2)) + nll

    starts = np.cumsum([0] + [p.size for p in net.parameters()]).tolist()
    # the gradient of m and b, the flat vector's last arrays
    tail = np.empty(starts[-1] - starts[-3])
    dm, db = tail[: net.m.size].reshape(net.m.shape), tail[net.m.size :]
    np.matmul(h.T, g, out=dm)
    dm += decay * net.m
    np.sum(g, axis=0, out=db)
    # da starts as d loss / d h; the backward pass keeps only the layers it
    # has still to reach
    da = g @ net.m.T
    del h
    yield from _blocks(starts[-3], tail)

    # A weight gradient is formed a block of whole rows, about _ADAM_BLOCK
    # values, at a time, in one buffer that every block reuses. (With
    # OpenBLAS 0.3.31 a block's rows have the bits of the whole product's
    # where the layer's width is a multiple of 8; at other widths the last
    # columns can differ in the last bit.)
    row_bounds = [_row_bounds(len(w), _ADAM_BLOCK // w.shape[1]) for w in net.hidden_weights]
    buffer = np.empty(max(
        max(np.diff(bounds)) * w.shape[1] for bounds, w in zip(row_bounds, net.hidden_weights)
    ))
    for l in range(len(net.hidden_weights) - 1, -1, -1):
        w = net.hidden_weights[l]
        da *= activations.pop() > 0  # max(z, 0) > 0 exactly where z > 0
        dz = da
        if l:
            da = dz @ w.T
        yield from _blocks(starts[2 * l + 1], np.sum(dz, axis=0))  # bias
        for r0, r1 in zip(row_bounds[l], row_bounds[l][1:]):
            block = buffer[: (r1 - r0) * w.shape[1]].reshape(r1 - r0, w.shape[1])
            np.matmul(activations[l].T[r0:r1], dz, out=block)
            yield from _blocks(starts[2 * l] + r0 * w.shape[1], block)


def _checked_elbo_blocks(net: Network, x, y, n_total: int):
    """``_elbo_blocks`` on a batch checked here: ``_elbo`` and ``elbo_loss``
    take rows that no caller has checked."""
    x, y = _check_labelled(net, (x, y))
    if n_total < x.shape[0]:
        raise ValueError("n_total must be at least the batch size")
    return _elbo_blocks(net, x, y, n_total)


def _elbo(net: Network, x, y, n_total: int):
    """Training's minibatch loss and its gradients, arrays shaped like
    ``net.parameters()`` and in that order: ``_elbo_blocks``' blocks,
    collected."""
    blocks = _checked_elbo_blocks(net, x, y, n_total)
    loss = next(blocks)
    flat = np.empty(sum(p.size for p in net.parameters()))
    for start, grad in blocks:
        flat[start : start + grad.size] = grad
    return loss, _flat_network(net, flat).parameters()


def elbo_loss(net: Network, x, y, n_total: int) -> float:
    """Training's minibatch loss: the NLL at the mean logits plus
    (batch / n_total) |m|^2 / (2 s^2), the negative ELBO's part in the
    trained parameters at v -> 0."""
    return next(_checked_elbo_blocks(net, x, y, n_total))


def _posterior_mean(net: Network, x) -> np.ndarray:
    """The likelihood's mean at the posterior-mean logits of inputs ``x``."""
    return _inverse_link(net.config.link, penultimate_activations(net, x) @ net.m + net.b)


def _predict_classes(net: Network, x: np.ndarray) -> np.ndarray:
    """Posterior-mean classes: 1 where the sigmoid's logit is positive (its
    float64 mean rounds to 0.5 up to 1.1e-16), else 0; softmax's argmax."""
    f = penultimate_activations(net, x) @ net.m + net.b
    if f.shape[1] == 1:
        return (f[:, 0] > 0).astype(np.intp)
    return f.argmax(axis=1)


def _metric(net: Network, x: np.ndarray, y: np.ndarray, rows: np.ndarray, chunk: int,
            accuracy: bool) -> float:
    """The accuracy of the posterior-mean prediction on rows ``rows`` of
    ``x`` and the prepared labels ``y`` when ``accuracy`` is set, else its
    squared error (the Brier score for classification links).

    The rows are gathered and predicted about ``chunk`` at a time
    (``_row_bounds``), so neither a copy of them nor an activation of all of
    them is held. The per-row hits or squared errors are reduced once, in
    row order, as one pass over all the rows would reduce them."""
    c = net.config.n_classes
    per_row = np.empty(len(rows), dtype=bool) if accuracy else np.empty((len(rows), c))
    bounds = _row_bounds(len(rows), chunk)
    for r0, r1 in zip(bounds, bounds[1:]):
        part, out = rows[r0:r1], per_row[r0:r1]
        if accuracy:
            np.equal(_predict_classes(net, x[part]), y[part], out=out)
        else:
            np.subtract(_posterior_mean(net, x[part]), _target(y[part], c), out=out)
            np.square(out, out=out)
    return float(np.mean(per_row))


def _flat_network(net: Network, flat: np.ndarray) -> Network:
    """A network with ``net``'s config, seed and ``rho`` whose parameters,
    shaped as ``net``'s, are consecutive views into ``flat``, in
    ``parameters()`` order: the layout of the flat parameter vector and of
    its gradient."""
    views, start = [], 0
    for p in net.parameters():
        views.append(flat[start : start + p.size].reshape(p.shape))
        start += p.size
    *hidden, m, b = views
    return Network(net.config, hidden[0::2], hidden[1::2], m, net.rho, b, seed=net.seed)


def _adam_step(p, g, mu, nu, step: int, lr: float) -> None:
    """One Adam update (Kingma & Ba, arXiv 1412.6980) of the flat array ``p``,
    in the ordering of their section 2 that folds both bias corrections into
    two per-step scalars. The moments are kept unnormalised,

        mu <- beta1 mu + g;  nu <- beta2 nu + g g
        p  <- p - mu / (sqrt(nu) + eps_t) lr_t

    with r = sqrt((1 - beta2^t) / (1 - beta2)), lr_t = lr (1 - beta1) r /
    (1 - beta1^t) and eps_t = eps r: Algorithm 1's update, as mu and nu are
    its moments divided by 1 - beta1 and 1 - beta2. Each operation is one of
    ten in-place passes, in the order the expressions above evaluate, so the
    result is bit-identical to evaluating them with temporaries. ``g`` is
    overwritten.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    r = math.sqrt((1 - beta2**step) / (1 - beta2))
    mu *= beta1
    mu += g
    nu *= beta2
    g *= g
    nu += g
    np.sqrt(nu, out=g)
    g += eps * r
    np.divide(mu, g, out=g)
    g *= lr * (1 - beta1) / (1 - beta1**step) * r
    p -= g


#: The output-variance fit's Gauss-Hermite node count, its tolerance on
#: max_j |v_j / F(v)_j - 1| (twice the largest derivative in rho of the
#: negative quadrature ELBO), and the most evaluations of the map F it makes.
_GH_NODES = 20
_FIT_RTOL = 1e-10
_FIT_MAX_ITERATIONS = 500


@functools.cache
def _gauss_hermite() -> tuple[np.ndarray, np.ndarray]:
    """The positive nodes x_k of the ``_GH_NODES``-node Gauss-Hermite rule
    for the standard normal, and their weights w_k. The rule's other nodes
    are the -x_k with the same weights, so it is exactly symmetric.

    Golub and Welsch's rule: the nodes are the eigenvalues of the Jacobi
    matrix of the probabilists' Hermite recurrence, and each weight is the
    square of its eigenvector's first entry."""
    off = np.sqrt(np.arange(1.0, _GH_NODES))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    positive = nodes > 0
    return nodes[positive], vectors[0, positive] ** 2


def _curvature(link: str, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Twice the derivative in ``var`` of the Gauss-Hermite expected NLL,
    per row and class: the c of the variance fit's map.

    The expected NLL of a row is sum_k w_k nll(mean + sd x_k) over the
    symmetric rule of ``_gauss_hermite``, sd = sqrt(var). For softmax, each
    class's variance enters through a one-dimensional sum over its own
    logit, the other classes' logits at their means: nll(mean) + sum_a
    [sum_k w_k nll(mean + sd_a x_k e_a) - nll(mean)], exact to second order
    in sd as the classes' logits are independent under the posterior.

    Twice the derivative in var is sum_k w_k x_k nll'(mean + sd x_k) / sd,
    with nll' the inverse link's mean less the target: the expected
    curvature by Stein's lemma, but taken from the sum itself, so that the
    fit's fixed point is stationary for the sum. Over the symmetric nodes
    the target cancels. Moving only class a's logit, by d, moves the
    softmax's mean of a to exactly sigma(z_a + d), z_a = mean_a - log
    sum_{b != a} exp(mean_b); so both classification links take
    sum_{x_k > 0} w_k x_k [sigma(z + sd x_k) - sigma(z - sd x_k)] / sd, with
    z the mean logit for the sigmoid, and its terms are non-negative. It is
    exactly 1 for the identity link, whose sum is exact, and 0 where var is
    0. The rows are taken a piece at a time, so that the sigmoid's
    temporaries hold about ``_ADAM_BLOCK`` values together, as a training
    step's weight-gradient block does.
    """
    if link == "identity":
        return np.ones_like(mean)
    nodes, weights = _gauss_hermite()
    shifts = np.concatenate([nodes, -nodes])
    sd, out = np.sqrt(var), np.empty_like(mean)
    rows = max(1, _ADAM_BLOCK // (4 * shifts.size * mean.shape[1]))
    for r0 in range(0, len(mean), rows):
        part = slice(r0, r0 + rows)
        z = mean[part]
        if link == "softmax":  # class a's others: the running log-sum-exps before and after a
            edge = np.full((len(z), 1), -np.inf)
            before = np.logaddexp.accumulate(np.hstack([edge, z[:, :-1]]), axis=1)
            after = np.logaddexp.accumulate(np.hstack([edge, z[:, :0:-1]]), axis=1)[:, ::-1]
            z = z - np.logaddexp(before, after)
        g = _inverse_link("sigmoid", z[..., None] + sd[part, :, None] * shifts)
        half = (g[..., : nodes.size] - g[..., nodes.size :]).reshape(-1, nodes.size)
        out[part] = (half @ (weights * nodes)).reshape(g.shape[:2])
    return np.divide(out, sd, out=np.zeros_like(out), where=sd > 0)


def _fit_output_variances(net: Network, x: np.ndarray, rows: np.ndarray,
                          budget: int) -> tuple[np.ndarray, int]:
    """The output-layer variances at the stationary point of the negative
    quadrature ELBO in v, given ``net``'s hidden stack, ``m`` and ``b``, on
    rows ``rows`` of ``x``; and how many times the map was evaluated.

    The point is the fixed point of F(v) = s^2 / (1 + s^2 (H∘H)ᵀ c), that
    is 1/v_j = 1/s^2 + sum_i c_i h_ij^2 per class, with c = ``_curvature``
    at the logit variances (H∘H) v. A unit that is 0 on every row gets s^2.
    From s^2, where a start of 0 lands after one step, the fit takes one
    plain step, v <- F(v); then it damps, v <- sqrt(v F(v)), since the plain
    map can settle into a 2-cycle. It stops at the first v evaluated with
    max |v / F(v) - 1| <= ``_FIT_RTOL`` and returns it. Where F does not
    depend on v (the identity link), that is the first step's exact F.
    After ``_FIT_MAX_ITERATIONS`` evaluations it raises ``FloatingPointError``.

    It holds H∘H and the mean logits of the first rows, as many as
    ``budget`` values of H∘H allow, and recomputes the rest at each
    evaluation, as it computes the first: a piece of rows at a time, whose
    inputs and two widest layers hold about ``_ADAM_BLOCK`` values, as a
    training step's weight-gradient block does; ``_curvature``'s temporaries
    are another such block.
    """
    cfg = net.config
    s2 = cfg.prior_scale**2
    n_held = min(len(rows), budget // cfg.penultimate_dim)
    piece = _ADAM_BLOCK // (x.shape[1] + 2 * max(cfg.hidden_sizes))

    def hidden(rows):
        """H∘H and the mean logits of ``rows``, a piece at a time."""
        bounds = _row_bounds(len(rows), piece)
        for r0, r1 in zip(bounds, bounds[1:]):
            h = penultimate_activations(net, x[rows[r0:r1]])
            mean = h @ net.m + net.b
            yield np.square(h, out=h), mean

    hh, mean, start = np.empty((n_held, cfg.penultimate_dim)), np.empty((n_held, cfg.n_classes)), 0
    for part, part_mean in hidden(rows[:n_held]):
        hh[start : start + len(part)], mean[start : start + len(part)] = part, part_mean
        start += len(part)

    def pieces():
        yield hh, mean
        yield from hidden(rows[n_held:])

    def step(v):
        total = np.zeros_like(v)
        for part, part_mean in pieces():
            total += part.T @ _curvature(cfg.link, part_mean, part @ v)
        return s2 / (1.0 + s2 * total)

    v, iterations = step(np.full((cfg.penultimate_dim, cfg.n_classes), s2)), 1
    while True:
        new, iterations = step(v), iterations + 1
        change = float(np.max(np.abs(v / new - 1.0)))
        if change <= _FIT_RTOL:
            return v, iterations
        if iterations >= _FIT_MAX_ITERATIONS:
            raise FloatingPointError(
                f"the output-variance fit did not converge in {iterations} iterations "
                f"(largest relative change {change:.3g})")
        v = np.sqrt(v * new)


def train(net: Network, dataset, config: TrainConfig):
    """Adam-train the network with early stopping, then fit the output
    variances.

    The steps minimise the deterministic loss of ``_elbo_blocks``: the NLL
    at the mean logits plus the prior on ``m``, so the hidden stack, ``m``
    and ``b`` are trained at the v -> 0 limit of the ELBO. Each minibatch
    step updates one flat buffer of those parameters in place, a gradient
    block at a time (``_adam_step``), and each epoch's metric is computed a
    batch of rows at a time (``_metric``). So the epochs hold three
    parameter-sized buffers (the parameters and Adam's two unnormalised
    moments) plus one batch's activations, whatever the number of rows, and
    no scratch buffer; only its row orders and the metric's per-row results
    grow with the rows, by a few values per row.

    After the last epoch, the moments are released, and
    ``_fit_output_variances`` sets ``rho`` = log v at the ELBO's stationary
    point in v given the trained parameters, on the rows the steps trained
    on (all rows but the validation split). It starts from the prior, so no
    step reads the input network's ``rho``. It holds the moments' worth of
    H∘H and two blocks of temporaries and recomputes the rows beyond those, so
    its memory does not grow with the rows; where the parameters are few
    against a block, it sets training's peak. ``history["variance_fit"]``
    records its ``iterations`` and v's ``v_min``, ``v_median`` and ``v_max``.

    Early stopping watches ``history["metric_name"]``: ``val_accuracy`` for
    a classification link with a validation split, else the posterior-mean
    squared error (Brier score for classification) on the validation split
    (``val_mse``) or, at ``val_fraction == 0``, on the training data
    (``train_mse``). A ``val_fraction`` above 0 must hold out at least one
    row, round(val_fraction * n) >= 1, and leave one to train on; else
    ``ValueError``. The last epoch's weights are returned, whichever epoch
    ``history["best_epoch"]`` names. Returns ``(trained_network, history)``;
    the input network is not modified.

    Numpy's floating-point errors in an epoch or in the fit, underflow aside, and a fit
    that does not converge raise ``TrainingDivergedError``, whatever the warning filters.
    The inputs and the initial ``parameters()`` must be finite (else ``ValueError``);
    both are checked once, before the first step, which trusts them.
    """
    x, y = _check_labelled(net, dataset)

    rng = np.random.default_rng(config.seed)
    n = x.shape[0]
    n_val = int(round(config.val_fraction * n))
    if config.val_fraction and not n_val:
        raise ValueError(f"val_fraction {config.val_fraction} holds out no row of n = {n}: "
                         "use 0 to stop early on the training data")
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise ValueError("validation split leaves no training data")
    # batches and the metric's chunks gather their rows from x, so no copy of
    # the training or evaluation rows is held
    eval_idx = val_idx if n_val else train_idx
    accuracy = bool(n_val) and net.config.link != "identity"
    if accuracy:
        metric_name, sign = "val_accuracy", 1.0
    else:
        metric_name, sign = ("val_mse" if n_val else "train_mse"), -1.0

    # The parameters and Adam's two moments each live in one flat buffer, and
    # the model is views into the first. No gradient buffer exists:
    # _elbo_blocks hands the gradient over a block at a time, once the
    # backward pass is done with the block's parameters, and Adam updates
    # that block of the three buffers at once, in place. A block of the four
    # arrays (with the gradient) stays in a core's L2 cache through the
    # update's ten passes.
    flat = np.concatenate([p.ravel() for p in net.parameters()], dtype=np.float64)
    if (at := first_non_finite(flat)) is not None:
        raise ValueError(f"network parameters must be finite; flat parameter {at[0]} is {flat[at]}")
    model = _flat_network(net, flat)
    # The initial arrays are not needed past this point. Dropping this frame's
    # reference frees them before the moments are allocated when the caller
    # passed a temporary, ``train(build_network(...), ...)``, so training then
    # holds three parameter-sized buffers instead of four: a call keeps no
    # caller-side reference to its arguments.
    del net
    moment1, moment2 = np.zeros_like(flat), np.zeros_like(flat)
    step = 0

    n_train = len(train_idx)
    batch_size = min(config.batch_size, n_train)
    history = {"train_loss": [], "val_metric": [], "metric_name": metric_name}
    best, best_epoch, stale = -np.inf, -1, 0  # best: the largest sign * metric yet

    try:
        with np.errstate(all="raise", under="ignore"):
            for epoch in range(config.epochs):
                epoch_rows = train_idx[rng.permutation(n_train)]
                epoch_losses = []
                for start in range(0, n_train, batch_size):
                    rows = epoch_rows[start : start + batch_size]
                    blocks = _elbo_blocks(model, x[rows], y[rows], n_train)
                    epoch_losses.append(next(blocks))
                    step += 1
                    for offset, grad in blocks:
                        block = slice(offset, offset + grad.size)
                        _adam_step(flat[block], grad, moment1[block], moment2[block], step,
                                   config.learning_rate)

                metric = _metric(model, x, y, eval_idx, batch_size, accuracy)
                history["train_loss"].append(float(np.mean(epoch_losses)))
                history["val_metric"].append(metric)
                if sign * metric > best:
                    best, best_epoch, stale = sign * metric, epoch, 0
                else:
                    stale += 1
                    if stale > config.patience:
                        break

            del grad, moment1, moment2  # grad: a view of the last step's gradient buffer
            v, iterations = _fit_output_variances(model, x, train_idx, 2 * flat.size)
            model.rho = np.log(v)
    except FloatingPointError as exc:
        raise TrainingDivergedError(epoch, f"epoch {epoch}: {exc}") from exc

    history["best_epoch"] = best_epoch
    history["stopped_epoch"] = epoch  # the last epoch run
    history["variance_fit"] = {"iterations": iterations, "v_min": float(v.min()),
                               "v_median": float(np.median(v)), "v_max": float(v.max())}
    return model, history


def logit_posterior(net: Network, x) -> LogitPosterior:
    """The Gaussian over latent pre-link outputs implied by the output layer."""
    h = penultimate_activations(net, x)
    return LogitPosterior(mean=h @ net.m + net.b, hidden=h, variances=net.v)


def predict_proba(net: Network, x) -> np.ndarray:
    """Link function applied to the posterior-mean logits.

    Returns an (n, 1) column of positive-class probabilities for the sigmoid
    link and an (n, c) row-stochastic matrix for softmax.
    """
    if net.config.link == "identity":
        raise ValueError("predict_proba is unsupported for the identity link")
    return _posterior_mean(net, x)


def _field(obj: dict, prefix: str, key: str, kind: type):
    """``obj[key]`` checked by ``core.checked``; ``prefix`` is the key path of
    ``obj``, so a missing key is named in full (``config.link``)."""
    path = f"{prefix}.{key}" if prefix else key
    if key not in obj:
        raise ValueError(f"network document is missing {path!r}")
    return checked(obj[key], path, kind)


def _decode_array(parent: dict, prefix: str, key: str, expected: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``_write_network``'s encoding for the array at
    ``parent[key]``, checked against the shape the config implies; returns a
    native float64 array that owns its data. The base64 is decoded strictly
    into the array, ``_BASE64_CHUNK`` bytes at a time, and then dropped from
    ``parent``. A payload of another length, or padded before its end, is
    decoded whole only to name its fault: invalid base64, the wrong number
    of bytes, or, where it holds the right bytes, excess ``=`` after them."""
    name = f"{prefix}.{key}" if prefix else key
    obj = _field(parent, prefix, key, dict)
    shape = tuple(_field(obj, name, "shape", list))
    if shape != expected:
        raise ValueError(f"{name} has shape {shape}, expected {expected}")
    data, out = _field(obj, name, "data", str), np.empty(expected, "<f8")
    view, size = out.reshape(-1).view(np.uint8), out.nbytes
    try:
        if len(data) != -(-size // 3) * 4:
            raise binascii.Error
        for at in range(0, size, _BASE64_CHUNK):
            chars = data[at // 3 * 4 : (at + _BASE64_CHUNK) // 3 * 4]
            part = binascii.a2b_base64(chars, strict_mode=True)
            if len(part) != min(_BASE64_CHUNK, size - at):  # padded mid-payload
                raise binascii.Error
            view[at : at + len(part)] = np.frombuffer(part, np.uint8)
    except binascii.Error:
        try:
            raw = base64.b64decode(data, validate=True)
        except binascii.Error as exc:
            raise ValueError(f"{name} data is not valid base64: {exc}") from None
        if len(raw) != size:
            raise ValueError(f"{name} holds {len(raw)} bytes, expected {size} for shape {expected}")
        raise ValueError(f"{name} data is not valid base64: excess padding")
    del obj["data"]
    return out.astype(np.float64, copy=False)


#: Bytes of an array that one base64 write encodes or one read decodes. A
#: multiple of 3, so the chunks' base64 joins into the whole array's.
_BASE64_CHUNK = 3 * 2**16


def _network_document(net: Network) -> tuple[dict, list[np.ndarray]]:
    """The JSON document of ``net`` and its parameter arrays, each array's
    ``data`` its index in that list. ``_write_network`` writes the base64 of
    the array's little-endian float64 bytes there, which round-trip every
    bit pattern (-0.0, nan, inf)."""
    arrays = []

    def array(a: np.ndarray) -> dict:
        arrays.append(np.ascontiguousarray(a, dtype="<f8"))
        return {"shape": list(a.shape), "data": str(len(arrays) - 1)}

    doc = {
        "format": SERIAL_FORMAT,
        "version": SERIAL_VERSION,
        "seed": net.seed,
        "config": {
            "input_dim": net.config.input_dim,
            "hidden_sizes": list(net.config.hidden_sizes),
            "link": net.config.link,
            "n_classes": net.config.n_classes,
            "activation": ACTIVATION,
            "prior_scale": net.config.prior_scale,
        },
        "hidden": [
            {"weights": array(w), "bias": array(c)}
            for w, c in zip(net.hidden_weights, net.hidden_biases)
        ],
        "m": array(net.m),
        "rho": array(net.rho),
        "b": array(net.b),
    }
    return doc, arrays


def _write_network(net: Network, write) -> None:
    """Pass the ASCII bytes of the document's ``json.dumps(..., sort_keys=True)``
    text to ``write``, piece by piece: the text of the document with each
    array's index as its ``data``, in which each index is replaced by the
    array's base64, ``_BASE64_CHUNK`` bytes of the array at a time. JSON
    escapes no base64 character, so this is the text of the whole document,
    and no string of it, or of a whole array, is built."""
    doc, arrays = _network_document(net)
    parts = re.split(r'(?<="data": ")(\d+)(?=")', json.dumps(doc, sort_keys=True, allow_nan=False))
    for text, index in zip(parts[::2], [*parts[1::2], None]):
        write(text.encode("ascii"))
        if index is not None:
            raw = arrays[int(index)].reshape(-1).view(np.uint8)
            for start in range(0, raw.size, _BASE64_CHUNK):
                write(base64.b64encode(raw[start : start + _BASE64_CHUNK]))


def network_to_json(net: Network) -> str:
    """Serialize to a versioned JSON document that ``network_from_json`` reads."""
    text = io.BytesIO()
    _write_network(net, text.write)
    return text.getvalue().decode("ascii")


def save_network_json(net: Network, path) -> None:
    """Stream ``network_to_json(net)`` and a newline into ``path``."""
    with open(path, "wb") as fh:
        _write_network(net, fh.write)
        fh.write(b"\n")


def load_network_json(path) -> Network:
    """The network in the model file ``path``; a refusal names the file first."""
    with in_file(path), text_file(path) as fh:
        return network_from_json(fh.read())


def network_from_json(text: str) -> Network:
    """Read a document written by ``network_to_json``; every array's shape
    must match the one its config implies."""
    doc = checked(json.loads(text), "the document", dict)
    if doc.get("format") != SERIAL_FORMAT:
        raise ValueError(f"not a serialized network document: 'format' is not {SERIAL_FORMAT!r}")
    version = _field(doc, "", "version", int)
    if version != SERIAL_VERSION:
        raise ValueError(
            f"unsupported network document version: {version!r} "
            f"(this ratekit reads version {SERIAL_VERSION}); retrain the model"
        )
    config = _field(doc, "", "config", dict)
    if _field(config, "config", "activation", str) != ACTIVATION:
        raise ValueError(f"unsupported activation: {config['activation']!r}")
    cfg = NetworkConfig(
        input_dim=_field(config, "config", "input_dim", int),
        hidden_sizes=tuple(
            checked(width, f"config.hidden_sizes[{i}]", int)
            for i, width in enumerate(_field(config, "config", "hidden_sizes", list))
        ),
        link=_field(config, "config", "link", str),
        n_classes=_field(config, "config", "n_classes", int),
        prior_scale=_field(config, "config", "prior_scale", float),
    )
    hidden = _field(doc, "", "hidden", list)
    if len(hidden) != len(cfg.hidden_sizes):
        raise ValueError(
            f"document has {len(hidden)} hidden layers, "
            f"its config lists {len(cfg.hidden_sizes)}"
        )
    weights, biases = [], []
    fan_in = cfg.input_dim
    for l, (layer, width) in enumerate(zip(hidden, cfg.hidden_sizes)):
        checked(layer, f"hidden[{l}]", dict)
        weights.append(_decode_array(layer, f"hidden[{l}]", "weights", (fan_in, width)))
        biases.append(_decode_array(layer, f"hidden[{l}]", "bias", (width,)))
        fan_in = width
    k, c = cfg.penultimate_dim, cfg.n_classes
    return Network(
        config=cfg,
        hidden_weights=weights,
        hidden_biases=biases,
        m=_decode_array(doc, "", "m", (k, c)),
        rho=_decode_array(doc, "", "rho", (k, c)),
        b=_decode_array(doc, "", "b", (c,)),
        seed=_field(doc, "", "seed", int),
    )
