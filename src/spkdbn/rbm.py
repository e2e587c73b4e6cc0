"""Restricted Boltzmann Machine with one-step contrastive divergence.

Supports Gaussian (real-valued, unit-variance) and Bernoulli visible
units with Bernoulli hidden units.  Training follows the standard CD-1
recipe: hidden probabilities on the data, one binary hidden sample, a
mean-field reconstruction, recomputed hidden probabilities, then a
momentum/weight-decay update of (data - reconstruction) statistics
averaged over the minibatch.
"""

from __future__ import annotations

import math

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


_BLOCK = 32768  # float64 elements (256 KiB) in a row block of `Momentum.descend`


@dataclass
class Momentum:
    """Momentum SGD state of one weight matrix and its bias vectors: the
    momentum buffers `dW` and `db` (one per bias), and the one-block work
    buffers `gW` and `step`, so that a step allocates no weight-sized array."""

    dW: np.ndarray
    db: list[np.ndarray]
    gW: np.ndarray
    step: np.ndarray

    @classmethod
    def zeros_like(cls, W: np.ndarray, *biases: np.ndarray):
        block = np.zeros((min(W.shape[0], max(1, _BLOCK // W.shape[1])), W.shape[1]))
        return cls(np.zeros_like(W), [np.zeros_like(b) for b in biases], block, block.copy())

    @staticmethod
    def check(cfg) -> None:
        """Reject a learning_rate, momentum or weight_decay that `descend` cannot use."""
        if not 0 <= cfg.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {cfg.learning_rate}")
        if not 0 <= cfg.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {cfg.momentum}")
        if not 0 <= cfg.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {cfg.weight_decay}")

    def descend(self, W: np.ndarray, biases, grads_b, cfg, grad) -> None:
        """One momentum SGD step on the loss whose gradient is (gW,
        grads_b), with weight decay on W only.  Updates W, the biases and
        the buffers in place, rounding exactly as the expressions
        dW = momentum * dW - learning_rate * (gW + weight_decay * W),
        W = W + dW,
        and, for each bias b with gradient gb,
        db = momentum * db - learning_rate * gb,
        b = b + db.
        W is stepped in blocks of the rows of `gW`: `grad(rows, out)`
        writes the weight gradient of W[rows] into out and returns it, and
        the step is applied to that block while it is in cache.
        Checks nothing: a non-finite parameter stays so, and each epoch loop checks.
        """
        for start in range(0, W.shape[0], self.gW.shape[0]):
            rows = slice(start, start + self.gW.shape[0])
            Wb, dW = W[rows], self.dW[rows]
            gW = grad(rows, self.gW[:Wb.shape[0]])
            step = np.multiply(Wb, cfg.weight_decay, out=self.step[:Wb.shape[0]])
            step += gW
            step *= cfg.learning_rate
            dW *= cfg.momentum
            dW -= step
            Wb += dW
        for b, db, gb in zip(biases, self.db, grads_b):
            db *= cfg.momentum
            db -= cfg.learning_rate * gb
            b += db


@dataclass(frozen=True)
class RbmTrainConfig:
    learning_rate: float
    epochs: int
    momentum: float = 0.9
    weight_decay: float = 0.0002
    minibatch_size: int = 100
    seed: int = 0

    def __post_init__(self):
        Momentum.check(self)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")


@dataclass
class RbmVelocity(Momentum):
    """The `Momentum` of an RBM's W and [b_vis, b_hid] that `cd1_step`
    carries across steps, plus `product`, a one-block buffer for the
    gradient's second product, and `rows`: the per-row buffers of the
    largest minibatch seen so far."""

    product: np.ndarray = field(default=None, init=False, repr=False)
    rows: tuple = field(default=(), init=False, repr=False)

    @classmethod
    def zeros_like(cls, rbm: RbmParams) -> "RbmVelocity":
        velocity = super().zeros_like(rbm.W, rbm.b_vis, rbm.b_hid)
        velocity.product = np.zeros_like(velocity.gW)
        return velocity

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


def _sample_bernoulli(probs: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    rng.random(out=out)
    return np.less(out, probs, out=out)


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
) -> float:
    """One CD-1 parameter update, in place, on a non-empty (m, n_visible)
    float64 minibatch; returns its mean squared reconstruction error.

    `velocity.descend` (see `Momentum.descend`) steps on the negated CD-1
    gradient gW = (v_rec.T @ ph_rec - v.T @ ph_data) / m, gb_vis =
    mean(v_rec - v), gb_hid = mean(ph_rec - ph_data); IEEE negation and
    rounding are symmetric, so this is bit for bit the ascent step on
    (data - reconstruction) statistics.  No weight- or minibatch-sized
    array is allocated, and nothing is checked (`train_rbm`, `adapt_udbn`
    and `_cd1_epochs` do).
    """
    v, m = minibatch, minibatch.shape[0]
    ph_data, h, v_rec, ph_rec, v_err = velocity._minibatch_buffers(m)

    _hidden_probs(rbm, v, ph_data)
    _sample_bernoulli(ph_data, rng, h)
    _reconstruct_visible(rbm, h, v_rec)
    _hidden_probs(rbm, v_rec, ph_rec)

    def grad(rows, gW):
        np.matmul(v_rec[:, rows].T, ph_rec, out=gW)
        gW -= np.matmul(v[:, rows].T, ph_data, out=velocity.product[:gW.shape[0]])
        return np.divide(gW, m, out=gW)

    gbv = np.subtract(v_rec, v, out=v_err).mean(axis=0)
    gbh = np.subtract(ph_rec, ph_data, out=h).mean(axis=0)  # h is spent
    velocity.descend(rbm.W, (rbm.b_vis, rbm.b_hid), (gbv, gbh), cfg, grad)
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
    each epoch.  Each epoch's steps run with numpy's warnings off, then a
    non-finite W, b_vis or b_hid raises NumericalError naming the epoch."""
    velocity = RbmVelocity.zeros_like(rbm)
    n = sum(batch.shape[0] for batch in batches)
    errors = []
    for epoch in range(cfg.epochs):
        with np.errstate(all="ignore"):
            err_sum = sum(cd1_step(rbm, batch, cfg, velocity, rng) * batch.shape[0]
                          for batch in batches)
        if not all(np.isfinite(p).all() for p in (rbm.W, rbm.b_vis, rbm.b_hid)):
            raise NumericalError(f"non-finite RBM parameters after update (epoch {epoch})")
        errors.append(err_sum / n)
    return errors
