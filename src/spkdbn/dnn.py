"""Per-speaker two-class feed-forward network.

Sigmoid hidden layers, a 2-unit softmax output, mean cross-entropy loss,
and minibatch gradient descent with momentum and weight decay.  Scores
are emitted as a log likelihood ratio log(o1) - log(o2), which for a
softmax output equals the difference of the two output pre-activations.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .balance import MinibatchPlan
from .embeddings import load_arrays, save_arrays
from .rbm import Momentum, NumericalError, _sigmoid
from .udbn import DbnParams


@dataclass
class DnnModel:
    """Weights/biases per layer; the last layer maps to the 2 softmax units."""

    weights: list[np.ndarray]  # weights[i] is (n_in, n_out)
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) < 2 or len(self.weights) != len(self.biases):
            raise ValueError("model needs at least one hidden layer plus the output layer")
        for W, b in zip(self.weights, self.biases):
            if W.shape[1] != b.size:
                raise ValueError("weight/bias shape mismatch")
        for Wa, Wb in zip(self.weights, self.weights[1:]):
            if Wa.shape[1] != Wb.shape[0]:
                raise ValueError("layer dimensions do not chain")
        if self.weights[-1].shape[1] != 2:
            raise ValueError("output layer must have exactly 2 units")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_dim] + [W.shape[1] for W in self.weights]

    def copy(self) -> "DnnModel":
        return DnnModel([W.copy() for W in self.weights], [b.copy() for b in self.biases])


@dataclass(frozen=True)
class FineTuneConfig:
    learning_rate: float
    epochs: int
    momentum: float = 0.9
    weight_decay: float = 0.0012

    def __post_init__(self):
        Momentum.check(self)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


class DnnVelocity(list):
    """One `Momentum` per layer, over its weights and biases, that
    `backprop_minibatch` carries from one step to the next."""

    @classmethod
    def zeros_like(cls, model: DnnModel) -> "DnnVelocity":
        return cls(Momentum.zeros_like(W, b) for W, b in zip(model.weights, model.biases))


def init_random(layer_sizes, seed: int) -> DnnModel:
    """All weights i.i.d. uniform on [0, 0.01), biases zero."""
    sizes = list(layer_sizes)
    if len(sizes) < 3:
        raise ValueError("need input, >=1 hidden and output sizes")
    if sizes[-1] != 2:
        raise ValueError("output layer must have 2 units")
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(0.0, 0.01, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return DnnModel(weights, biases)


def init_from_dbn(adapted: DbnParams, seed: int) -> DnnModel:
    """Hidden layers copy the DBN weights and hidden biases; the output
    layer is drawn uniform on [0, 0.01) with zero biases."""
    rng = np.random.default_rng(seed)
    weights = [layer.W.copy() for layer in adapted.layers]
    biases = [layer.b_hid.copy() for layer in adapted.layers]
    n_top = adapted.layers[-1].n_hidden
    weights.append(rng.uniform(0.0, 0.01, size=(n_top, 2)))
    biases.append(np.zeros(2))
    return DnnModel(weights, biases)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_full(model: DnnModel, X: np.ndarray):
    """Returns (hidden activations per layer, output pre-activations, probs)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.input_dim:
        raise ValueError(f"input dimension {X.shape[1]} != {model.input_dim}")
    acts = []
    a = X
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        a = a @ W + b
        acts.append(_sigmoid(a, a))
    z = a @ model.weights[-1] + model.biases[-1]
    return acts, z, _softmax(z)


def forward(model: DnnModel, v: np.ndarray):
    """Hidden activations and softmax output for one vector or a batch."""
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    acts, _, probs = _forward_full(model, v)
    if single:
        return [a[0] for a in acts], probs[0]
    return acts, probs


def mean_cross_entropy(model: DnnModel, X: np.ndarray, Y: np.ndarray) -> float:
    """Mean cross-entropy of one-hot labels Y under the model."""
    _, z, _ = _forward_full(model, np.atleast_2d(X))
    logp = z - z.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    return float(-(np.atleast_2d(Y) * logp).sum(axis=1).mean())


def backprop_minibatch(
    model: DnnModel,
    X: np.ndarray,
    Y: np.ndarray,
    cfg: FineTuneConfig,
    velocity: DnnVelocity,
) -> float:
    """One momentum SGD step on the mean cross-entropy of a minibatch.

    Updates model and velocity in place, one `Momentum.descend` per
    layer, and returns the pre-update loss.  The weight gradients go
    into `velocity`'s buffers, so a step allocates no weight-sized array.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] != Y.shape[0] or Y.shape[1] != 2:
        raise ValueError("labels must be one-hot rows matching the minibatch")
    m = X.shape[0]
    acts, z, probs = _forward_full(model, X)
    logp = z - z.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    loss = float(-(Y * logp).sum(axis=1).mean())

    layer_inputs = [X] + acts
    delta = (probs - Y) / m
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(layer_inputs[i].T, delta, out=velocity[i].gW)
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            a = acts[i - 1]
            delta = (delta @ model.weights[i].T) * a * (1.0 - a)

    for W, b, gb, layer in zip(model.weights, model.biases, grads_b, velocity):
        if not layer.descend(W, (b,), (gb,), cfg):
            raise NumericalError("non-finite DNN parameters after update")
    if not np.isfinite(loss):
        raise NumericalError("non-finite training loss")
    return loss


def train_speaker_dnn(init: DnnModel, plan: MinibatchPlan, cfg: FineTuneConfig) -> DnnModel:
    """Fine-tune a model over the balanced plan's minibatches, in order,
    for cfg.epochs passes.  The input model is left untouched."""
    if len(plan.batches) == 0:
        raise ValueError("empty minibatch plan")
    model = init.copy()
    velocity = DnnVelocity.zeros_like(model)
    for _ in range(cfg.epochs):
        for X in plan.batches:
            backprop_minibatch(model, X, plan.labels, cfg, velocity)
    return model


def score_llr_batch(model: DnnModel, X: np.ndarray) -> np.ndarray:
    """log(o1) - log(o2) per row of X; for a softmax this is exactly z1 - z2."""
    _, z, _ = _forward_full(model, X)
    return z[:, 0] - z[:, 1]


def save_dnn(model: DnnModel, path) -> None:
    """Model file: archive tagged `dnn` with `W<i>` (n_in, n_out) and
    `b<i>` per layer; hidden layers are sigmoid, the last is the softmax."""
    save_arrays(path, "dnn", **{f"W{i}": W for i, W in enumerate(model.weights)},
                **{f"b{i}": b for i, b in enumerate(model.biases)})


def load_dnn(path) -> DnnModel:
    arrays = load_arrays(path, "dnn")
    n = sum(name.startswith("W") for name in arrays)
    return DnnModel([arrays[f"W{i}"] for i in range(n)], [arrays[f"b{i}"] for i in range(n)])
