"""Feed-forward sigmoid network trained by mini-batch gradient descent.

The verifier maps an attenuation vector to a score t~ in (0, 1), read as the
estimated probability that the transmitter is outside the region of
interest (label 1).  Every layer applies a sigmoid; the output neuron's
pre-activation is squashed exactly once.  The loss is the empirical binary
cross-entropy in bits,

    B = -(1/S) * sum_i [ t_i*log2(t~_i) + (1 - t_i)*log2(1 - t~_i) ],

so all gradients carry a 1/ln2 factor.

An MLP is a stack of P networks of the same shape, one per feature set
over the same rows: weights (P, n_out, n_in), features (n, P, n_in) with
the row axis first; a single network is the stack of one.  forward,
backward and train take a batch of rows.  The products are batched
matmuls over the leading P axis, which numpy runs as one 2-D BLAS product
per network, so each network of a stack scores and trains bit-identical
to the network alone.

The kernel runs on V = -W and c = -b, views into one flat array.  IEEE
negation is exact and rounding sign-symmetric (BLAS products and FMA sums
too), so a @ V.mT + c is exactly -(a @ W.mT + b): the sigmoid 1/(1 + exp(-z))
needs no negation pass, the delta keeps its sign times (y - 1) for (1 - y),
and V += lr * g over the flat array is bit-equal to W -= lr * g per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

LN2 = math.log(2.0)
SCORE_EPS = 1e-12


class TrainingDivergedError(NumericError):
    """Parameters or the loss stopped being finite; train names the
    diverged networks of a stack and the epoch in the message."""


@dataclass
class MLP:
    """Weights W[l] of shape (P, n_out, n_in) and biases b[l] of shape
    (P, n_out) for a stack of P networks."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need one bias vector per weight matrix")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 3 or b.shape != w.shape[:-1]:
                raise ValueError(f"layer {l}: bias shape does not match weight rows")
            if len(w) != self.n_networks:
                raise ValueError(f"layer {l}: stack size differs from layer 0")
            if l and w.shape[-1] != self.weights[l - 1].shape[-2]:
                raise ValueError(f"layer {l}: input width does not match previous layer")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l}: non-finite parameters")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def n_networks(self) -> int:
        return len(self.weights[0])


def default_layer_sizes(n_inputs: int, n_hidden: int, n_layers: int) -> list[int]:
    """[n_inputs, n_hidden * (n_layers - 1), 1]; n_layers counts weight layers."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return [n_inputs] + [n_hidden] * (n_layers - 1) + [1]


def init_mlp(layer_sizes, seed: int, copies: int = 1) -> MLP:
    """Uniform weights in [-s, s] with s = sqrt(6/(fan_in+fan_out)); zero biases.

    Returns a stack of copies networks that all start from this draw.
    """
    sizes = [int(n) for n in layer_sizes]
    if len(sizes) < 2 or any(n < 1 for n in sizes):
        raise ValueError(f"invalid layer sizes: {sizes}")
    if sizes[-1] != 1:
        raise ValueError("the output layer must hold a single neuron")
    if copies < 1:
        raise ValueError("a stack needs at least one network")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(np.tile(rng.uniform(-s, s, size=(fan_out, fan_in)), (copies, 1, 1)))
        biases.append(np.zeros((copies, fan_out)))
    return MLP(weights, biases)


def _check_batch(mlp: MLP, x: np.ndarray) -> None:
    """Features must be (n, P, n_inputs) for a stack of P."""
    if x.shape[1:] != (mlp.n_networks, mlp.n_inputs):
        raise ValueError(f"expected features of shape (n, {mlp.n_networks}, {mlp.n_inputs}), "
                         f"got {x.shape}")


def _negated(mlp: MLP, flat: np.ndarray | None = None):
    """V[l] = -W[l], then c[l] = -b[l], as views into one flat array (into
    flat itself, when given, shaped like the parameters)."""
    arrays = mlp.weights + mlp.biases
    flat = np.negative(np.concatenate([a.ravel() for a in arrays])) if flat is None else flat
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    views = [v.reshape(a.shape) for v, a in zip(parts, arrays)]
    return flat, views[:mlp.n_layers], views[mlp.n_layers:]


def _layers(vs, cs, x, outs):
    """Each layer's activations 1 / (1 + exp(a @ V.mT + c)) for a (P, n, n_in)
    batch, in place in outs[l] (None allocates one layer at a time).  Below a
    pre-activation of -709 exp overflows to inf, giving exactly 0: callers silence it."""
    for v, c, out in zip(vs, cs, outs):
        x = np.matmul(x, v.mT, out=out)
        x += c[:, None, :]
        np.exp(x, out=x)
        x += 1.0
        yield np.reciprocal(x, out=x)


def _gradients(vs, cs, x, t, outs, deltas, grads_w, grads_b):
    """Gradients of the cross-entropy of a (P, n, n_in) batch x with (n, 1)
    labels t w.r.t. W and b, into grads_w and grads_b, by way of outs and
    deltas (None allocates), as _layers takes them."""
    ys = [x, *_layers(vs, cs, x, outs)]
    # output layer: d(loss)/d(pre-activation) of the single sigmoid output
    delta = np.subtract(ys[-1], t, out=deltas[-1])
    delta /= len(t) * LN2
    for l in range(len(vs) - 1, -1, -1):
        np.matmul(delta.mT, ys[l], out=grads_w[l])
        if delta.shape[-1] > 1:  # einsum adds rows in order as sum does, without its slow strided loop
            np.einsum("pbo->po", delta, out=grads_b[l])
        else:  # sum adds a 1-wide column pairwise
            np.add.reduce(delta, axis=1, out=grads_b[l])
        if l:
            # (delta @ V) * y * (y - 1) = (delta @ W) * y * (1 - y): two exact sign flips
            delta = np.matmul(delta, vs[l], out=deltas[l - 1])
            delta *= ys[l]
            ys[l] -= 1.0
            delta *= ys[l]


def forward(mlp: MLP, a) -> np.ndarray:
    """Scores t~ in (0, 1), (n, P) for (n, P, n_inputs) rows."""
    x = np.asarray(a, dtype=float)
    _check_batch(mlp, x)
    _, vs, cs = _negated(mlp)
    with np.errstate(over="ignore"):
        for y in _layers(vs, cs, x.swapaxes(0, 1), [None] * mlp.n_layers):
            pass
    return y[..., 0].T


def ce_loss(scores, labels) -> float:
    """Empirical cross-entropy in bits, scores clamped to [eps, 1-eps]."""
    s = np.clip(np.asarray(scores, dtype=float), SCORE_EPS, 1.0 - SCORE_EPS)
    t = np.asarray(labels, dtype=float)
    if s.shape != t.shape or s.size == 0:
        raise ValueError("scores and labels must be nonempty and aligned")
    return float(-np.mean(t * np.log2(s) + (1.0 - t) * np.log2(1.0 - s)))


def backward(mlp: MLP, features: np.ndarray, labels) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Analytic gradient of the batch cross-entropy w.r.t. every parameter,
    shaped like the parameters; a stack's networks share the labels."""
    t = np.asarray(labels, dtype=float)
    x = np.asarray(features, dtype=float)
    _check_batch(mlp, x)
    if len(x) == 0 or len(t) != len(x):
        raise ValueError("need a nonempty aligned batch")
    flat, vs, cs = _negated(mlp)
    _, grads_w, grads_b = _negated(mlp, np.empty_like(flat))
    outs = [None] * mlp.n_layers
    with np.errstate(over="ignore"):
        _gradients(vs, cs, x.swapaxes(0, 1), t[:, None], outs, outs, grads_w, grads_b)
    return grads_w, grads_b


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 128

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate: must be positive")
        if self.epochs < 0:
            raise ValueError("epochs: must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size: must be at least 1")


def _raise_if_diverged(finite: np.ndarray, epoch: int) -> None:
    """TrainingDivergedError naming the networks whose flag is False."""
    if not np.all(finite):
        raise TrainingDivergedError(f"training diverged: networks {np.flatnonzero(~finite).tolist()}"
                                    f" of {finite.size} not finite after epoch {epoch}")


def train(mlp: MLP, train_set, config: TrainConfig, seed) -> tuple[MLP, np.ndarray]:
    """Mini-batch gradient descent on a normalized dataset, in place.

    A stack trains in lockstep on (n, P, n_inputs) features: every network
    sees the same labels and the same mini-batch order, drawn from seed
    (anything np.random.default_rng takes).  Returns the trained stack and
    its networks' final full-set cross-entropies in bits, a (P,) array.
    Raises TrainingDivergedError, naming the networks and the epoch, when
    parameters or the loss stop being finite.
    """
    x = np.asarray(train_set.features, dtype=float)
    t = np.asarray(train_set.labels, dtype=float)
    _check_batch(mlp, x)
    n = len(x)
    if config.batch_size > n:
        raise ValueError("batch_size exceeds the training set size")
    rng = np.random.default_rng(seed)
    flat, vs, cs = _negated(mlp)
    grad, grads_w, grads_b = _negated(mlp, np.empty_like(flat))
    # one gather per epoch; a batch is a slice, with buffers for its size
    epoch_x, epoch_t, bs = np.empty_like(x), np.empty((n, 1)), config.batch_size
    batches = [(epoch_x[s:s + bs].swapaxes(0, 1), epoch_t[s:s + bs]) for s in range(0, n, bs)]
    work = {shape: [[np.empty(shape[:2] + w.shape[1:2]) for w in mlp.weights] for _ in range(2)]
            for shape in {xb.shape for xb, _ in batches}}
    try:
        with np.errstate(over="ignore"):  # for the sigmoid, see _layers
            for epoch in range(1, config.epochs + 1):
                order = rng.permutation(n)
                np.take(x, order, axis=0, out=epoch_x, mode="clip")
                np.take(t, order, out=epoch_t[:, 0], mode="clip")
                for xb, tb in batches:
                    _gradients(vs, cs, xb, tb, *work[xb.shape], grads_w, grads_b)
                    grad *= config.learning_rate
                    flat += grad
                _raise_if_diverged(np.logical_and.reduce(
                    [np.isfinite(v).all(axis=(-2, -1)) for v in vs]), epoch)
    finally:  # back into the stack's own arrays, diverged or not
        for a, v in zip(mlp.weights + mlp.biases, vs + cs):
            np.negative(v, out=a)
    final_ce = np.array([ce_loss(s, t) for s in forward(mlp, x).T])
    _raise_if_diverged(np.isfinite(final_ce), config.epochs)
    return mlp, final_ce


def posterior_from_llr(llr_bits, prior0: float, prior1: float):
    """p(H0 | a) = 1 / (1 + (prior1/prior0) * 2**(-llr_bits))."""
    if prior0 <= 0 or prior1 <= 0 or not math.isclose(prior0 + prior1, 1.0, rel_tol=1e-9):
        raise ValueError("priors must be positive and sum to 1")
    llr = np.asarray(llr_bits, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + (prior1 / prior0) * np.exp2(-llr))
    return float(out) if out.ndim == 0 else out
