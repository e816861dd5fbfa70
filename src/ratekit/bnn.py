"""Networks with deterministic ReLU hidden layers and a Gaussian mean-field
output layer.

The hidden stack is an ordinary point-estimate MLP. The output layer keeps a
fully factorized Gaussian over its weights (mean ``m``, variance
``v = exp(rho)``), so the latent pre-link outputs ("logits") of any input
batch follow a closed-form Gaussian whose covariance factor is cheap to carry
around. Training maximizes the variational lower bound with the local
reparameterization trick, estimated from one logit sample per example;
gradients are hand-written reverse-mode for this fixed affine+ReLU+Gaussian
family and validated against finite differences in the test suite.

The three links are canonical, so one inverse link maps logits to the
likelihood's mean, the NLL's logit gradient is mean - target for labels
encoded as (n, c) targets, and that mean also serves ``predict_proba`` and
the squared error; classes come from the logits themselves.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkConfig",
    "Network",
    "TrainConfig",
    "LogitPosterior",
    "TrainingDivergedError",
    "build_network",
    "penultimate_activations",
    "kl_q_prior",
    "elbo_loss",
    "train",
    "logit_posterior",
    "predict_proba",
    "network_to_json",
    "save_network_json",
    "network_from_json",
]

LINKS = ("sigmoid", "identity", "softmax")

#: The hidden-layer nonlinearity; recorded in serialized networks.
ACTIVATION = "relu"

SERIAL_FORMAT = "ratekit-network"
SERIAL_VERSION = 2


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int, message: str | None = None):
        self.epoch = epoch
        super().__init__(message or f"training loss became non-finite at epoch {epoch}")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description: p inputs -> ReLU hidden stack -> c outputs."""

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

    @property
    def penultimate_dim(self) -> int:
        return self.hidden_sizes[-1]


@dataclass
class Network:
    """Point-estimate hidden parameters plus output-layer variational state.

    ``hidden_weights[l]`` has shape (fan_in, fan_out); ``m`` and ``rho`` are
    (k, c) with k the last hidden width; ``b`` is the per-class output bias.
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
        """All trainable arrays, in a fixed order."""
        params: list[np.ndarray] = []
        for w, c in zip(self.hidden_weights, self.hidden_biases):
            params.extend((w, c))
        params.extend((self.m, self.rho, self.b))
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
    means small Gaussians, and output log-variances -5 so the initial
    posterior is narrow but not degenerate.
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
    # min and max reach nan and +-inf without an n x p temporary
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"inputs must be finite; row {i}, column {j} is {float(x[i, j])}")
    return x, y


def _predict_hidden(net: Network, x: np.ndarray) -> list[np.ndarray]:
    """Run the affine+ReLU hidden stack; returns every layer's activations."""
    hidden = []
    a = x
    for w, c in zip(net.hidden_weights, net.hidden_biases):
        a = a @ w
        a += c
        np.maximum(a, 0.0, out=a)
        hidden.append(a)
    return hidden


#: Unit roundoff of IEEE float32 (round to nearest).
_U32 = 2.0**-24


class _Float32Classifier:
    """Posterior-mean class predictions for n input rows, from a float32
    forward pass checked by a per-row error bound; the caller may rewrite
    the float32 input (``inputs``) in place between calls.

    The hidden stack and the output mean run in float32, each layer's bias
    folded into its product as one more weight row against a column of ones.
    With the output layer as layer L+1 (weights m, bias b), w̄_{L+1} = I and
    w̄_{l-1} = |W_l| w̄_l, the componentwise bound
    |fl(AB) - AB| <= γ_n |A||B|, γ_n = n u / (1 - n u) (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, §3.5), carried through the
    1-Lipschitz ReLU gives, per row and class,

        |f̂ - f| <= E = 2 Σ_l γ_{k_{l-1}+3} (|â_{l-1}| w̄_{l-1} + |c_l| w̄_l)
                       + 1e-12 (1 + |b|),

    with â_0 the float32 input and â_l the float32 activations. The factor
    2 covers the bound's own float32 arithmetic and the float64 route's
    rounding; the floor covers the float64 bias add. (γ_n assumes no
    underflow: a float32 result below 1.2e-38 is off by up to 2^-149
    absolute, which the floor covers while the entries of w̄ stay below
    about 1e25.) A row is decided when the bound fixes its class:
    f̂_top - f̂_j > E_top + E_j for every j != top, a sigmoid net counting
    as two classes whose first has the exact logit 0; a non-finite f̂
    (float32 overflow, or an input beyond float32's range) never decides
    one. A decided row gets the float64 route's class. The caller
    recomputes the others with ``_predict_classes``, in whatever batch it
    gathers them in, so their logits can differ from a whole-batch float64
    pass in the last bits (BLAS blocks the rows differently).
    """

    def __init__(self, net: Network, x: np.ndarray):
        n, p = x.shape
        layers = [*zip(net.hidden_weights, net.hidden_biases), (net.m, net.b)]
        self._weights = []
        for w, c in layers:
            w32 = np.empty((w.shape[0] + 1, w.shape[1]), np.float32)
            w32[:-1], w32[-1] = w, c
            self._weights.append(w32)
        # layer l's input with a trailing column of ones, which the ReLU keeps;
        # each product writes the columns before it
        self._inputs = [np.ones((n, w.shape[0]), np.float32) for w in self._weights]
        logits = np.empty((n, net.config.n_classes), np.float32)
        self._outputs = [a[:, :-1] for a in self._inputs[1:]] + [logits]
        self._mask = np.empty((n, max(net.config.hidden_sizes) + 1), bool)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan decide no row
            self._inputs[0][:, :p] = x
            # layer l's term of E is |â_{l-1}, 1| (2 γ_{k_{l-1}+3} |W_l; c_l| w̄_l);
            # the +3 covers rounding the input and [W_l; c_l] to float32 and
            # the bias as one more term of the sum
            wbar = np.eye(net.config.n_classes)
            scaled = []
            for w, c in reversed(layers):
                gamma = (w.shape[0] + 3) * _U32 / (1.0 - (w.shape[0] + 3) * _U32)
                # |W_l| w̄_l in row blocks, so no copy of |W_l| is made
                wbar_c = np.abs(c) @ wbar
                wbar = np.vstack([np.abs(w[i : i + 64]) @ wbar for i in range(0, len(w), 64)])
                scaled.append((2.0 * gamma * np.vstack([wbar, wbar_c])).astype(np.float32))
            self._floor = (1e-12 * (1.0 + np.abs(net.b))).astype(np.float32)
        self._scaled = scaled[::-1]
        #: The (n, p) float32 input rows, a view into the first layer's input.
        self.inputs = self._inputs[0][:, :p]

    def logits_and_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The float32 posterior-mean logits f̂ of ``inputs`` and their bounds
        E, both (n, c); f̂ is a buffer that the next call overwrites."""
        with np.errstate(over="ignore", invalid="ignore"):
            bound = self._floor + np.abs(self._inputs[0]) @ self._scaled[0]
            for l, (w, z) in enumerate(zip(self._weights, self._outputs)):
                np.matmul(self._inputs[l], w, out=z)
                if l + 1 < len(self._weights):
                    # ReLU as a * (a > 0), not max(a, 0): a pre-activation that
                    # overflowed to -inf becomes nan, which reaches f̂, where
                    # max would leave a finite activation E does not cover
                    a = self._inputs[l + 1]
                    mask = self._mask[:, : a.shape[1]]
                    np.greater(a, 0, out=mask)
                    np.multiply(a, mask, out=a)
                    bound += a @ self._scaled[l + 1]
        return self._outputs[-1], bound

    def predict_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The class of each row of ``inputs``, as the float64 route gives
        it, and the indices of the rows the bound leaves undecided, whose
        entries hold the float32 guess until the caller recomputes them."""
        f, bound = self.logits_and_bounds()
        if f.shape[1] == 1:
            f = np.hstack([np.zeros_like(f), f])
            bound = np.hstack([np.zeros_like(bound), bound])
        pred = f.argmax(axis=1)
        rows = np.arange(f.shape[0])
        with np.errstate(invalid="ignore"):
            upper = f + bound
            upper[rows, pred] = -np.inf
            decided = f[rows, pred] - bound[rows, pred] > upper.max(axis=1)
        decided &= np.isfinite(f).all(axis=1)
        return pred, np.flatnonzero(~decided)


def penultimate_activations(net: Network, x) -> np.ndarray:
    """The n-by-k activation matrix feeding the variational output layer."""
    return _predict_hidden(net, _check_inputs(net, x))[-1]


def kl_q_prior(m: np.ndarray, v: np.ndarray, prior_scale: float) -> float:
    """KL from the factorized Gaussian q = N(m, diag(v)) to N(0, s^2 I)."""
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(v <= 0):
        raise ValueError("variances must be positive")
    if not prior_scale > 0:
        raise ValueError("prior_scale must be positive")
    s2 = prior_scale**2
    return float(0.5 * np.sum(v / s2 + m**2 / s2 - 1.0 - np.log(v / s2)))


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
    """Total negative log-likelihood of one logit sample, and d nll / d f,
    which is mean - target for each of the three canonical links."""
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


def _elbo(net: Network, x, y, n_total: int, seed: int, out=None):
    """Negative minibatch ELBO and its gradients for every parameter.

    Each example's logits are one sample from N(h m + b, (h*h) v), the local
    reparameterization of the output-layer weight posterior, with noise
    fixed by ``seed`` so the loss is a deterministic function of (params,
    batch, seed). The gradients are written into ``out``, arrays shaped like
    ``net.parameters()`` and in that order, which are allocated if None.
    """
    x, y = _check_labelled(net, (x, y))
    cfg = net.config
    if n_total < x.shape[0]:
        raise ValueError("n_total must be at least the batch size")

    activations = [x, *_predict_hidden(net, x)]
    h = activations[-1]
    v = net.v
    mean = h @ net.m + net.b
    var = (h**2) @ v
    sd = np.sqrt(var)

    z = np.random.default_rng(seed).standard_normal(size=mean.shape)
    nll, g = _nll_and_grad(cfg.link, mean + sd * z, y)
    kl_scale = x.shape[0] / n_total
    loss = kl_scale * kl_q_prior(net.m, v, cfg.prior_scale) + nll

    # d loss / d var, guarding degenerate rows where var == 0 exactly
    q = np.divide(g * z, 2.0 * sd, out=np.zeros_like(mean), where=var > 0)

    if out is None:
        out = [np.empty_like(p) for p in net.parameters()]
    *hidden_grads, dm, drho, db = out
    s2 = cfg.prior_scale**2
    np.matmul(h.T, g, out=dm)
    dm += kl_scale * net.m / s2
    np.matmul((h**2).T, q, out=drho)
    drho *= v
    drho += kl_scale * 0.5 * (v / s2 - 1.0)
    np.sum(g, axis=0, out=db)
    dh = g @ net.m.T + 2.0 * h * (q @ v.T)

    da = dh
    for l in range(len(net.hidden_weights) - 1, -1, -1):
        dz = da * (activations[l + 1] > 0)  # max(z, 0) > 0 exactly where z > 0
        np.sum(dz, axis=0, out=hidden_grads[2 * l + 1])  # bias
        np.matmul(activations[l].T, dz, out=hidden_grads[2 * l])  # weights
        if l:
            da = dz @ net.hidden_weights[l].T
    return loss, out


def elbo_loss(net: Network, x, y, n_total: int, *, seed: int = 0) -> float:
    """Negative minibatch ELBO: scaled KL-to-prior plus the NLL of one
    logit sample per example."""
    return _elbo(net, x, y, n_total, seed)[0]


def _posterior_mean(net: Network, x) -> np.ndarray:
    """The likelihood's mean at the posterior-mean logits of inputs ``x``."""
    return _inverse_link(net.config.link, logit_posterior(net, x).mean)


def _mean_squared_error(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    """Squared error of the posterior-mean prediction against the prepared
    labels (the Brier score for classification links)."""
    mean = _posterior_mean(net, x)
    return float(np.mean((mean - _target(y, net.config.n_classes)) ** 2))


def _predict_classes(net: Network, x: np.ndarray) -> np.ndarray:
    """Posterior-mean classes: 1 where the sigmoid's logit is positive (its
    float64 mean rounds to 0.5 up to 1.1e-16), else 0; softmax's argmax."""
    f = logit_posterior(net, x).mean
    if f.shape[1] == 1:
        return (f[:, 0] > 0).astype(np.intp)
    return f.argmax(axis=1)


def _accuracy(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy of the posterior-mean prediction."""
    return float(np.mean(_predict_classes(net, x) == y.astype(int)))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of a flat buffer, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _network_with_parameters(net: Network, params: list[np.ndarray]) -> Network:
    """``net`` with its arrays replaced by ``params``, in ``parameters()`` order."""
    n_hidden = len(net.hidden_weights)
    return Network(
        config=net.config,
        hidden_weights=params[0 : 2 * n_hidden : 2],
        hidden_biases=params[1 : 2 * n_hidden : 2],
        m=params[-3],
        rho=params[-2],
        b=params[-1],
        seed=net.seed,
    )


_ADAM_BLOCK = 32768


def _adam_step(p, g, ma, va, scratch, step: int, lr: float) -> None:
    """One Adam update (Kingma & Ba, arXiv 1412.6980) of the flat array ``p``.

        ma += (1 - beta1) (g - ma);  va += (1 - beta2) (g g - va)
        p  -= lr mhat / (sqrt(vhat) + eps)

    with mhat, vhat the bias-corrected moments. Each operation is one
    in-place pass, in the order the expressions above evaluate, so the
    result is bit-identical to evaluating them with temporaries. ``g`` is
    overwritten and ``scratch`` is a work array of the same size.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    np.subtract(g, ma, out=scratch)
    scratch *= 1 - beta1
    ma += scratch
    np.multiply(g, g, out=g)
    g -= va
    g *= 1 - beta2
    va += g
    np.divide(va, 1 - beta2**step, out=g)
    np.sqrt(g, out=g)
    g += eps
    np.divide(ma, 1 - beta1**step, out=scratch)
    scratch *= lr
    scratch /= g
    p -= scratch


def train(net: Network, dataset, config: TrainConfig):
    """Adam-train the network with early stopping.

    Early stopping watches ``history["metric_name"]``: ``val_accuracy`` for
    a classification link with a validation split, else the posterior-mean
    squared error (Brier score for classification) on the validation split
    (``val_mse``) or, at ``val_fraction == 0``, on the training data
    (``train_mse``). The last epoch's weights are returned, whichever epoch
    ``history["best_epoch"]`` names. Returns ``(trained_network, history)``;
    the input network is not modified.

    Raises ``TrainingDivergedError`` if the loss becomes non-finite.
    """
    x, y = _check_labelled(net, dataset)

    rng = np.random.default_rng(config.seed)
    n = x.shape[0]
    n_val = int(round(config.val_fraction * n))
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise ValueError("validation split leaves no training data")
    # batches gather their rows from x, so no copy of the training rows is held
    eval_idx = val_idx if n_val else train_idx
    x_eval, y_eval = x[eval_idx], y[eval_idx]
    if n_val and net.config.link != "identity":
        metric_name, metric_fn, sign = "val_accuracy", _accuracy, 1.0
    else:
        metric_name = "val_mse" if n_val else "train_mse"
        metric_fn, sign = _mean_squared_error, -1.0

    # Parameters, gradients and Adam state each live in one flat buffer, and
    # the model and _elbo's gradients are views into them, so a step
    # allocates nothing of parameter size. Adam then runs block by block: one
    # block of all five buffers (5 x 256 KiB) stays in a core's L2 cache
    # through the update's 14 passes; on the paper-scale net (315k parameters,
    # 2-vCPU Xeon VM, 2 MiB L2 per core) a training step ran ~20% faster than
    # with whole-buffer passes.
    shapes = [p.shape for p in net.parameters()]
    flat = np.concatenate([p.ravel() for p in net.parameters()], dtype=np.float64)
    model = _network_with_parameters(net, _views(flat, shapes))
    # The initial arrays are not needed past this point. Dropping this frame's
    # reference frees them before the gradient and moments are allocated when
    # the caller passed a temporary, ``train(build_network(...), ...)``, so
    # training then holds four parameter-sized buffers instead of five. (From
    # CPython 3.11 a call keeps no caller-side reference to its arguments.)
    del net
    grad_flat = np.empty_like(flat)
    grads = _views(grad_flat, shapes)
    # in _adam_step's argument order: parameters, gradient, moments; the
    # blocks run one after another, so they share one block-sized scratch
    adam_buffers = (flat, grad_flat, np.zeros_like(flat), np.zeros_like(flat))
    scratch = np.empty(min(_ADAM_BLOCK, flat.size))
    adam_blocks = []
    for i in range(0, flat.size, _ADAM_BLOCK):
        block = tuple(a[i : i + _ADAM_BLOCK] for a in adam_buffers)
        adam_blocks.append((*block, scratch[: block[0].size]))
    step = 0

    n_train = len(train_idx)
    batch_size = min(config.batch_size, n_train)
    history = {"train_loss": [], "val_metric": [], "metric_name": metric_name}
    best, best_epoch, stale = -np.inf, -1, 0  # best: the largest sign * metric yet

    for epoch in range(config.epochs):
        epoch_rows = train_idx[rng.permutation(n_train)]
        epoch_losses = []
        for start in range(0, n_train, batch_size):
            rows = epoch_rows[start : start + batch_size]
            batch_seed = int(rng.integers(0, 2**63 - 1))
            try:
                loss, _ = _elbo(
                    model,
                    x[rows],
                    y[rows],
                    n_total=n_train,
                    seed=batch_seed,
                    out=grads,
                )
            except ValueError as exc:
                # inputs were validated up front, so a loss-side rejection here
                # means the parameters themselves degenerated
                raise TrainingDivergedError(epoch, f"epoch {epoch}: {exc}") from exc
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            epoch_losses.append(loss)
            step += 1
            for block in adam_blocks:
                _adam_step(*block, step, config.learning_rate)

        metric = metric_fn(model, x_eval, y_eval)
        history["train_loss"].append(float(np.mean(epoch_losses)))
        history["val_metric"].append(metric)
        if sign * metric > best:
            best, best_epoch, stale = sign * metric, epoch, 0
        else:
            stale += 1
            if stale > config.patience:
                break

    history["best_epoch"] = best_epoch
    history["stopped_epoch"] = epoch  # the last epoch run
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


def _encode_array(a: np.ndarray) -> dict:
    """One parameter array as its shape and the base64 of its little-endian
    float64 bytes, which round-trip every bit pattern (-0.0, nan, inf)."""
    a = np.ascontiguousarray(a, dtype="<f8")
    # b64encode reads the contiguous array's buffer itself: no bytes copy
    return {"shape": list(a.shape), "data": base64.b64encode(a).decode("ascii")}


def _decode_array(obj: dict, name: str, expected: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``_encode_array``, checked against the shape the config
    implies; returns a native float64 array that owns its data."""
    shape = tuple(obj["shape"])
    if shape != expected:
        raise ValueError(f"{name} has shape {shape}, expected {expected}")
    try:
        raw = base64.b64decode(obj["data"], validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{name} data is not valid base64: {exc}") from None
    size = 8 * math.prod(expected)
    if len(raw) != size:
        raise ValueError(f"{name} holds {len(raw)} bytes, expected {size} for shape {expected}")
    return np.frombuffer(raw, dtype="<f8").reshape(expected).astype(np.float64)


#: The top-level keys of a network document besides "format".
_DOCUMENT_KEYS = ("version", "seed", "config", "hidden", "m", "rho", "b")


def _network_document(net: Network) -> dict:
    """The JSON document of ``net``; the parameter arrays are stored as raw
    float64 bytes (see ``_encode_array``), so they round-trip bit-exactly."""
    return {
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
            {"weights": _encode_array(w), "bias": _encode_array(c)}
            for w, c in zip(net.hidden_weights, net.hidden_biases)
        ],
        "m": _encode_array(net.m),
        "rho": _encode_array(net.rho),
        "b": _encode_array(net.b),
    }


def network_to_json(net: Network) -> str:
    """Serialize to a versioned JSON document that ``network_from_json`` reads."""
    return json.dumps(_network_document(net), sort_keys=True)


def save_network_json(net: Network, path) -> None:
    """Write ``network_to_json(net)`` and a newline to ``path``. The document
    is streamed into the file, so no string of the whole document, nor its
    encoded bytes, is ever built."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_network_document(net), fh, sort_keys=True)
        fh.write("\n")


def network_from_json(text: str) -> Network:
    """Read a document written by ``network_to_json``; every array's shape
    must match the one its config implies."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != SERIAL_FORMAT:
        raise ValueError(f"not a serialized network document: 'format' is not {SERIAL_FORMAT!r}")
    missing = [key for key in _DOCUMENT_KEYS if key not in doc]
    if missing:
        raise ValueError(f"network document is missing {', '.join(map(repr, missing))}")
    if doc.get("version") != SERIAL_VERSION:
        raise ValueError(
            f"unsupported network document version: {doc.get('version')!r} "
            f"(this ratekit reads version {SERIAL_VERSION}); retrain the model"
        )
    if doc["config"]["activation"] != ACTIVATION:
        raise ValueError(f"unsupported activation: {doc['config']['activation']!r}")
    cfg = NetworkConfig(
        input_dim=doc["config"]["input_dim"],
        hidden_sizes=tuple(doc["config"]["hidden_sizes"]),
        link=doc["config"]["link"],
        n_classes=doc["config"]["n_classes"],
        prior_scale=doc["config"]["prior_scale"],
    )
    if len(doc["hidden"]) != len(cfg.hidden_sizes):
        raise ValueError(
            f"document has {len(doc['hidden'])} hidden layers, "
            f"its config lists {len(cfg.hidden_sizes)}"
        )
    weights, biases = [], []
    fan_in = cfg.input_dim
    for l, (layer, width) in enumerate(zip(doc["hidden"], cfg.hidden_sizes)):
        weights.append(_decode_array(layer["weights"], f"hidden[{l}].weights", (fan_in, width)))
        biases.append(_decode_array(layer["bias"], f"hidden[{l}].bias", (width,)))
        fan_in = width
    k, c = cfg.penultimate_dim, cfg.n_classes
    return Network(
        config=cfg,
        hidden_weights=weights,
        hidden_biases=biases,
        m=_decode_array(doc["m"], "m", (k, c)),
        rho=_decode_array(doc["rho"], "rho", (k, c)),
        b=_decode_array(doc["b"], "b", (c,)),
        seed=int(doc["seed"]),
    )
