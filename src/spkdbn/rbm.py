"""Restricted Boltzmann Machine with one-step contrastive divergence.

Supports Gaussian (real-valued, unit-variance) and Bernoulli visible
units with Bernoulli hidden units.  Training follows the standard CD-1
recipe: hidden probabilities on the data, one binary hidden sample, a
mean-field reconstruction, recomputed hidden probabilities, then a
momentum/weight-decay update of (data - reconstruction) statistics
averaged over the minibatch.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

VISIBLE_KINDS = ("gaussian", "bernoulli")


class NumericalError(ArithmeticError):
    """Training produced a non-finite update."""


@dataclass
class RbmParams:
    """Weights and biases of one RBM."""

    visible_kind: str
    W: np.ndarray       # (n_visible, n_hidden)
    b_vis: np.ndarray   # (n_visible,)
    b_hid: np.ndarray   # (n_hidden,)

    def __post_init__(self):
        if self.visible_kind not in VISIBLE_KINDS:
            raise ValueError(f"unknown visible kind {self.visible_kind!r}")
        if self.W.shape != (self.b_vis.size, self.b_hid.size):
            raise ValueError("inconsistent RBM parameter shapes")

    @property
    def n_visible(self) -> int:
        return self.b_vis.size

    @property
    def n_hidden(self) -> int:
        return self.b_hid.size

    def copy(self) -> "RbmParams":
        return RbmParams(self.visible_kind, self.W.copy(), self.b_vis.copy(), self.b_hid.copy())


@dataclass(frozen=True)
class RbmTrainConfig:
    learning_rate: float
    epochs: int
    momentum: float = 0.9
    weight_decay: float = 0.0002
    minibatch_size: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")


@dataclass
class RbmVelocity:
    """Per-RBM state that `cd1_step` carries from one step to the next.

    `dW`, `db_vis` and `db_hid` are the momentum buffers.  The rest are
    work buffers, so that a step allocates no array of the weights' or
    of the minibatch activations' size.  `gW` holds the weight gradient,
    `neg` the negative-phase product, `step` the update term and
    `finite` the isfinite mask of the updated weights.  `rows` holds the
    per-row buffers of the largest minibatch seen so far.
    """

    dW: np.ndarray
    db_vis: np.ndarray
    db_hid: np.ndarray
    gW: np.ndarray
    neg: np.ndarray
    step: np.ndarray
    finite: np.ndarray
    rows: tuple = field(default=(), init=False, repr=False)

    @classmethod
    def zeros_like(cls, rbm: RbmParams) -> "RbmVelocity":
        return cls(np.zeros_like(rbm.W), np.zeros_like(rbm.b_vis), np.zeros_like(rbm.b_hid),
                   np.zeros_like(rbm.W), np.zeros_like(rbm.W), np.zeros_like(rbm.W),
                   np.zeros(rbm.W.shape, dtype=bool))

    def _minibatch_buffers(self, m: int) -> list[np.ndarray]:
        """(ph_data, h, v_rec, ph_rec, v_err) buffers for an m-row minibatch."""
        if not self.rows or self.rows[0].shape[0] < m:
            n_visible, n_hidden = self.dW.shape
            self.rows = tuple(np.zeros((m, n)) for n in (n_hidden, n_hidden, n_visible, n_hidden, n_visible))
        return [buffer[:m] for buffer in self.rows]


def init_rbm(n_visible: int, n_hidden: int, kind: str, seed: int) -> RbmParams:
    """Weights i.i.d. uniform on [0, 0.01), biases zero."""
    if n_visible < 1 or n_hidden < 1:
        raise ValueError("layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.0, 0.01, size=(n_visible, n_hidden))
    return RbmParams(kind, W, np.zeros(n_visible), np.zeros(n_hidden))


def hidden_probs(rbm: RbmParams, v: np.ndarray) -> np.ndarray:
    """p(h_j = 1 | v) = sigmoid(b_hid_j + sum_i v_i w_ij); accepts (d,) or (n, d)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != rbm.n_visible:
        raise ValueError(f"visible dimension {v.shape[-1]} != {rbm.n_visible}")
    return _hidden_probs(rbm, v, np.empty(v.shape[:-1] + (rbm.n_hidden,)))


def _hidden_probs(rbm: RbmParams, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.matmul(v, rbm.W, out=out)
    out += rbm.b_hid
    return _sigmoid(out, out)


def sample_bernoulli(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent 0/1 samples with the given activation probabilities."""
    probs = np.asarray(probs, dtype=float)
    return _sample_bernoulli(probs, rng, np.empty(probs.shape))


def _sample_bernoulli(probs: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    rng.random(out=out)
    return np.less(out, probs, out=out)


def reconstruct_visible(rbm: RbmParams, h: np.ndarray) -> np.ndarray:
    """Mean-field visible reconstruction given hidden values.

    Bernoulli visibles give sigmoid activations; Gaussian visibles give
    the mean b_vis + W h (unit variance assumed, no sampling).
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != rbm.n_hidden:
        raise ValueError(f"hidden dimension {h.shape[-1]} != {rbm.n_hidden}")
    return _reconstruct_visible(rbm, h, np.empty(h.shape[:-1] + (rbm.n_visible,)))


def _reconstruct_visible(rbm: RbmParams, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.matmul(h, rbm.W.T, out=out)
    out += rbm.b_vis
    if rbm.visible_kind == "gaussian":
        return out
    return _sigmoid(out, out)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) into out, which may be x, in that expression's
    order.  Below x = -709.78 exp(-x) overflows to inf, and 1 / (1 + inf)
    is the exact limit 0."""
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def cd1_step(
    rbm: RbmParams,
    minibatch: np.ndarray,
    cfg: RbmTrainConfig,
    velocity: RbmVelocity,
    rng: np.random.Generator,
    epoch: int = 0,
) -> float:
    """One CD-1 parameter update on a minibatch, in place.

    Returns the mean squared reconstruction error of the minibatch.
    Gradients are averaged over the minibatch; weight decay applies to
    weights only.  The step runs in place in `velocity`'s work buffers,
    so it allocates no weight- or minibatch-sized array, and it rounds
    exactly as the expressions
    gW = (v.T @ ph_data - v_rec.T @ ph_rec) / m,
    dW = momentum * dW + learning_rate * (gW - weight_decay * W),
    W = W + dW.
    """
    v = np.atleast_2d(np.asarray(minibatch, dtype=float))
    if v.shape[0] == 0:
        raise ValueError("empty minibatch")
    if v.shape[1] != rbm.n_visible:
        raise ValueError(f"visible dimension {v.shape[1]} != {rbm.n_visible}")
    m = v.shape[0]
    ph_data, h, v_rec, ph_rec, v_err = velocity._minibatch_buffers(m)

    _hidden_probs(rbm, v, ph_data)
    _sample_bernoulli(ph_data, rng, h)
    _reconstruct_visible(rbm, h, v_rec)
    _hidden_probs(rbm, v_rec, ph_rec)

    gW = np.matmul(v.T, ph_data, out=velocity.gW)
    gW -= np.matmul(v_rec.T, ph_rec, out=velocity.neg)
    gW /= m
    gbv = np.subtract(v, v_rec, out=v_err).mean(axis=0)
    gbh = np.subtract(ph_data, ph_rec, out=h).mean(axis=0)  # h is spent

    step = np.multiply(rbm.W, cfg.weight_decay, out=velocity.step)
    np.subtract(gW, step, out=step)
    step *= cfg.learning_rate
    velocity.dW *= cfg.momentum
    velocity.dW += step
    velocity.db_vis = cfg.momentum * velocity.db_vis + cfg.learning_rate * gbv
    velocity.db_hid = cfg.momentum * velocity.db_hid + cfg.learning_rate * gbh

    rbm.W += velocity.dW
    rbm.b_vis += velocity.db_vis
    rbm.b_hid += velocity.db_hid
    finite = np.isfinite(rbm.W, out=velocity.finite)
    if not (finite.all() and np.all(np.isfinite(rbm.b_vis)) and np.all(np.isfinite(rbm.b_hid))):
        raise NumericalError(f"non-finite RBM parameters after update (epoch {epoch})")
    return float(np.square(v_err, out=v_err).sum(axis=1).mean())


def train_rbm(data, cfg: RbmTrainConfig, kind: str, n_hidden: int):
    """Train one RBM with CD-1 over fixed-order minibatches.

    Returns (params, errors) where errors[e] is the mean squared
    reconstruction error of epoch e.  Fully deterministic given
    (data order, cfg).
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    if n == 0:
        raise ValueError("empty training data")
    rbm = init_rbm(d, n_hidden, kind, cfg.seed)
    batches = [X[i : i + cfg.minibatch_size] for i in range(0, n, cfg.minibatch_size)]
    return rbm, _cd1_epochs(rbm, batches, cfg, np.random.default_rng([cfg.seed, 1]))


def _cd1_epochs(rbm: RbmParams, batches, cfg: RbmTrainConfig,
                rng: np.random.Generator) -> list[float]:
    """cfg.epochs passes of `cd1_step` over the batches in order, in place,
    from zero momentum.  Returns the mean squared reconstruction error of
    each epoch."""
    velocity = RbmVelocity.zeros_like(rbm)
    n = sum(batch.shape[0] for batch in batches)
    errors = []
    for epoch in range(cfg.epochs):
        err_sum = 0.0
        for batch in batches:
            err_sum += cd1_step(rbm, batch, cfg, velocity, rng, epoch=epoch) * batch.shape[0]
        errors.append(err_sum / n)
    return errors
