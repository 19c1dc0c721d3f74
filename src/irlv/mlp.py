"""Feed-forward sigmoid network trained by mini-batch gradient descent.

The verifier maps an attenuation vector to a score t~ in (0, 1), read as the
estimated probability that the transmitter is outside the region of
interest (label 1).  Every layer applies a sigmoid; the output neuron's
pre-activation is squashed exactly once.  The loss is the empirical binary
cross-entropy in bits,

    B = -(1/S) * sum_i [ t_i*log2(t~_i) + (1 - t_i)*log2(1 - t~_i) ],

so all gradients carry a 1/ln2 factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

LN2 = math.log(2.0)
SCORE_EPS = 1e-12


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class MLP:
    """Weights W[l] of shape (n_out, n_in) and biases b[l] of shape (n_out,)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need one bias vector per weight matrix")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {l}: bias shape does not match weight rows")
            if l and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(f"layer {l}: input width does not match previous layer")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l}: non-finite parameters")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[1]


def default_layer_sizes(n_inputs: int, n_hidden: int = 8, n_layers: int = 3) -> list[int]:
    """[n_inputs, n_hidden * (n_layers - 1), 1]; n_layers counts weight layers."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return [n_inputs] + [n_hidden] * (n_layers - 1) + [1]


def init_mlp(layer_sizes, seed: int) -> MLP:
    """Uniform weights in [-s, s] with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    sizes = [int(n) for n in layer_sizes]
    if len(sizes) < 2 or any(n < 1 for n in sizes):
        raise ValueError(f"invalid layer sizes: {sizes}")
    if sizes[-1] != 1:
        raise ValueError("the output layer must hold a single neuron")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLP(weights, biases)


def _forward_all(mlp: MLP, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer for a (n, n_inputs) batch, input included."""
    ys = [x]
    for w, b in zip(mlp.weights, mlp.biases):
        ys.append(expit(ys[-1] @ w.T + b))
    return ys


def forward(mlp: MLP, a):
    """Score t~ in (0, 1); float for a single vector, (n,) array for a batch."""
    x = np.asarray(a, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != mlp.n_inputs:
        raise ValueError(f"expected {mlp.n_inputs} features, got {x.shape[1]}")
    out = _forward_all(mlp, x)[-1][:, 0]
    return float(out[0]) if single else out


def ce_loss(scores, labels) -> float:
    """Empirical cross-entropy in bits, scores clamped to [eps, 1-eps]."""
    s = np.clip(np.asarray(scores, dtype=float), SCORE_EPS, 1.0 - SCORE_EPS)
    t = np.asarray(labels, dtype=float)
    if s.shape != t.shape or s.size == 0:
        raise ValueError("scores and labels must be nonempty and aligned")
    return float(-np.mean(t * np.log2(s) + (1.0 - t) * np.log2(1.0 - s)))


def backward(mlp: MLP, features: np.ndarray, labels) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Analytic gradient of the batch cross-entropy w.r.t. every parameter."""
    x = np.asarray(features, dtype=float)
    t = np.asarray(labels, dtype=float)
    if x.ndim != 2 or len(x) == 0 or len(t) != len(x):
        raise ValueError("need a nonempty aligned batch")
    n = len(x)
    ys = _forward_all(mlp, x)
    # output layer: d(loss)/d(pre-activation) of the single sigmoid output
    delta = (ys[-1] - t[:, None]) / (n * LN2)
    grads_w = [np.empty(0)] * mlp.n_layers
    grads_b = [np.empty(0)] * mlp.n_layers
    for l in range(mlp.n_layers - 1, -1, -1):
        grads_w[l] = delta.T @ ys[l]
        grads_b[l] = delta.sum(axis=0)
        if l:
            y = ys[l]
            delta = (delta @ mlp.weights[l]) * y * (1.0 - y)
    return grads_w, grads_b


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


def train(mlp: MLP, train_set, config: TrainConfig) -> tuple[MLP, float]:
    """Mini-batch gradient descent on a normalized dataset, in place.

    Returns the trained network and its final full-set cross-entropy in
    bits.  Raises TrainingDivergedError when parameters or the loss stop
    being finite.
    """
    x = np.asarray(train_set.features, dtype=float)
    t = np.asarray(train_set.labels, dtype=float)
    n = len(x)
    if config.batch_size > n:
        raise ValueError("batch_size exceeds the training set size")
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grads_w, grads_b = backward(mlp, x[idx], t[idx])
            for w, b, gw, gb in zip(mlp.weights, mlp.biases, grads_w, grads_b):
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
        if not all(np.all(np.isfinite(w)) for w in mlp.weights):
            raise TrainingDivergedError("training diverged")
    final_ce = ce_loss(forward(mlp, x), t)
    if not math.isfinite(final_ce):
        raise TrainingDivergedError("training diverged")
    return mlp, final_ce


def posterior_from_llr(llr_bits, prior0: float, prior1: float):
    """p(H0 | a) = 1 / (1 + (prior1/prior0) * 2**(-llr_bits))."""
    if prior0 <= 0 or prior1 <= 0 or not math.isclose(prior0 + prior1, 1.0, rel_tol=1e-9):
        raise ValueError("priors must be positive and sum to 1")
    llr = np.asarray(llr_bits, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + (prior1 / prior0) * np.exp2(-llr))
    return float(out) if out.ndim == 0 else out
