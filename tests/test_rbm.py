import copy
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from spkdbn import rbm as rbm_module
from spkdbn.dnn import FineTuneConfig
from spkdbn.rbm import (
    Momentum,
    NumericalError,
    RbmParams,
    RbmTrainConfig,
    RbmVelocity,
    _cd1_epochs,
    _reconstruct_visible,
    _sample_bernoulli,
    _sigmoid,
    cd1_step,
    hidden_probs,
    init_rbm,
    train_rbm,
)


def sigmoid(x):
    """The library's sigmoid in its expression order, for the exact oracles."""
    return 1.0 / (1.0 + np.exp(-x))


def test_init_rbm_contract():
    rbm = init_rbm(2, 3, "bernoulli", seed=1)
    assert rbm.W.shape == (2, 3)
    assert np.all((rbm.W >= 0.0) & (rbm.W < 0.01))
    assert np.all(rbm.b_vis == 0.0) and np.all(rbm.b_hid == 0.0)
    again = init_rbm(2, 3, "bernoulli", seed=1)
    assert np.array_equal(rbm.W, again.W)
    other = init_rbm(2, 3, "bernoulli", seed=2)
    assert not np.array_equal(rbm.W, other.W)


def test_hidden_probs_trivial_and_oracle():
    rbm = RbmParams("bernoulli", np.zeros((3, 4)), np.zeros(3), np.zeros(4))
    np.testing.assert_allclose(hidden_probs(rbm, np.ones(3)), 0.5)
    rbm1 = RbmParams("bernoulli", np.array([[2.0]]), np.zeros(1), np.array([-2.0]))
    np.testing.assert_allclose(hidden_probs(rbm1, np.array([1.0])), 0.5)

    rng = np.random.default_rng(4)
    rbm = RbmParams("gaussian", rng.normal(size=(5, 4)), rng.normal(size=5), rng.normal(size=4))
    v = rng.normal(size=5)
    expected = np.array(
        [1.0 / (1.0 + np.exp(-(rbm.b_hid[j] + sum(v[i] * rbm.W[i, j] for i in range(5)))))
         for j in range(4)]
    )
    np.testing.assert_allclose(hidden_probs(rbm, v), expected, atol=1e-12)
    out = hidden_probs(rbm, rng.normal(size=(6, 5)))
    assert np.all((out > 0.0) & (out < 1.0))
    with pytest.raises(ValueError):
        hidden_probs(rbm, np.zeros(4))


def test_sample_bernoulli():
    def sample(probs, rng):
        out = np.empty(len(probs))
        assert _sample_bernoulli(np.asarray(probs), rng, out) is out
        return out

    rng = np.random.default_rng(0)
    assert np.all(sample(np.zeros(10), rng) == 0.0)
    assert np.all(sample(np.ones(10), rng) == 1.0)
    draws = sample(np.full(100_000, 0.5), np.random.default_rng(1))
    assert abs(draws.mean() - 0.5) < 0.01
    a = sample(np.full(50, 0.3), np.random.default_rng(5))
    b = sample(np.full(50, 0.3), np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_reconstruct_visible():
    def reconstruct(rbm, h):
        out = np.empty(rbm.n_visible)
        assert _reconstruct_visible(rbm, h, out) is out
        return out

    rbm_g = RbmParams("gaussian", np.zeros((3, 2)), np.array([1.0, -2.0, 0.5]), np.zeros(2))
    np.testing.assert_array_equal(reconstruct(rbm_g, np.ones(2)), rbm_g.b_vis)
    rbm_b = RbmParams("bernoulli", np.zeros((3, 2)), np.zeros(3), np.zeros(2))
    np.testing.assert_allclose(reconstruct(rbm_b, np.ones(2)), 0.5)

    rng = np.random.default_rng(8)
    rbm = RbmParams("bernoulli", rng.normal(size=(3, 2)), rng.normal(size=3), rng.normal(size=2))
    h = rng.random(2)
    expected = np.array(
        [1.0 / (1.0 + np.exp(-(rbm.b_vis[i] + sum(h[j] * rbm.W[i, j] for j in range(2)))))
         for i in range(3)]
    )
    np.testing.assert_allclose(reconstruct(rbm, h), expected, atol=1e-12)


def test_sigmoid_edges_are_exact_and_silent():
    x = np.array([-np.inf, -1000.0, -745.2, -709.8, 0.0, 709.8, 745.2, 1000.0, np.inf])
    with np.errstate(over="ignore"):
        want = sigmoid(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(x, np.empty_like(x))
        in_place = x.copy()
        assert _sigmoid(in_place, in_place) is in_place
        with_nan = _sigmoid(np.array([np.nan, 1.0]), np.empty(2))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(in_place, want)
    # exp(-x) overflows to inf below x = -709.78, and 1 / (1 + inf) is exactly 0
    assert got.tolist() == [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0]
    assert np.isnan(with_nan[0])
    np.testing.assert_array_equal(with_nan, sigmoid(np.array([np.nan, 1.0])))


def _cfg(**kw):
    base = dict(learning_rate=0.1, epochs=1, momentum=0.0, weight_decay=0.0,
                minibatch_size=10, seed=0)
    base.update(kw)
    return RbmTrainConfig(**base)


@pytest.mark.parametrize("config, bad, message", [
    (FineTuneConfig, {"momentum": 1.0}, "momentum must be in [0, 1), got 1.0"),
    (RbmTrainConfig, {"momentum": 1.5}, "momentum must be in [0, 1), got 1.5"),
    (FineTuneConfig, {"weight_decay": -1.0}, "weight_decay must be finite and >= 0, got -1.0"),
    (RbmTrainConfig, {"weight_decay": math.inf}, "weight_decay must be finite and >= 0, got inf"),
], ids=["FineTuneConfig-momentum=1.0", "RbmTrainConfig-momentum=1.5",
        "FineTuneConfig-weight_decay=-1.0", "RbmTrainConfig-weight_decay=inf"])
def test_training_config_rejects_a_bad_momentum_or_weight_decay(config, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config(learning_rate=0.001, epochs=10, **bad)


def test_cd1_zero_learning_rate_is_noop():
    rng = np.random.default_rng(2)
    rbm = init_rbm(4, 3, "gaussian", seed=3)
    before = copy.deepcopy(rbm)
    cd1_step(rbm, rng.normal(size=(5, 4)), _cfg(learning_rate=0.0, momentum=0.9,
                                                weight_decay=0.01), RbmVelocity.zeros_like(rbm), rng)
    assert np.array_equal(rbm.W, before.W)
    assert np.array_equal(rbm.b_vis, before.b_vis)
    assert np.array_equal(rbm.b_hid, before.b_hid)


def test_cd1_perfect_reconstruction_gives_zero_update():
    # gaussian units with W=0 reconstruct exactly b_vis; feed that as data
    b_vis = np.array([0.3, -1.2])
    rbm = RbmParams("gaussian", np.zeros((2, 2)), b_vis.copy(), np.array([0.7, -0.4]))
    data = np.tile(b_vis, (6, 1))
    before = copy.deepcopy(rbm)
    cd1_step(rbm, data, _cfg(), RbmVelocity.zeros_like(rbm), np.random.default_rng(0))
    np.testing.assert_array_equal(rbm.W, before.W)
    np.testing.assert_array_equal(rbm.b_vis, before.b_vis)
    np.testing.assert_array_equal(rbm.b_hid, before.b_hid)


def test_cd1_scalar_hand_trace():
    # huge hidden bias makes the hidden sample deterministically 1
    w, bv, bh, v = 0.5, 0.2, 40.0, 0.8
    rbm = RbmParams("gaussian", np.array([[w]]), np.array([bv]), np.array([bh]))
    vel = RbmVelocity.zeros_like(rbm)
    eta = 0.1
    cd1_step(rbm, np.array([[v]]), _cfg(learning_rate=eta), vel, np.random.default_rng(0))
    p1 = sigmoid(bh + v * w)
    v_rec = bv + w  # h sampled to 1
    p2 = sigmoid(bh + v_rec * w)
    np.testing.assert_allclose(rbm.W[0, 0], w + eta * (v * p1 - v_rec * p2), atol=1e-12)
    np.testing.assert_allclose(rbm.b_vis[0], bv + eta * (v - v_rec), atol=1e-12)
    np.testing.assert_allclose(rbm.b_hid[0], bh + eta * (p1 - p2), atol=1e-12)


def test_cd1_momentum_recurrence():
    w, bv, bh, v = 0.5, 0.2, 40.0, 0.8
    eta, mom = 0.1, 0.9
    rbm = RbmParams("gaussian", np.array([[w]]), np.array([bv]), np.array([bh]))
    vel = RbmVelocity.zeros_like(rbm)
    rng = np.random.default_rng(0)
    cfg = _cfg(learning_rate=eta, momentum=mom)
    w0 = rbm.W[0, 0]
    cd1_step(rbm, np.array([[v]]), cfg, vel, rng)
    d1 = rbm.W[0, 0] - w0
    w1, bv1, bh1 = rbm.W[0, 0], rbm.b_vis[0], rbm.b_hid[0]
    cd1_step(rbm, np.array([[v]]), cfg, vel, rng)
    d2 = rbm.W[0, 0] - w1
    # second delta = momentum * first delta + eta * fresh gradient
    p1 = sigmoid(bh1 + v * w1)
    v_rec = bv1 + w1
    p2 = sigmoid(bh1 + v_rec * w1)
    np.testing.assert_allclose(d2, mom * d1 + eta * (v * p1 - v_rec * p2), atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_cd1_divergence_raises():
    rbm = init_rbm(2, 2, "gaussian", seed=0)
    rbm.W[:] = 1e300
    with pytest.raises(NumericalError, match=re.escape("parameters after update (epoch 0)")):
        _cd1_epochs(rbm, [np.full((2, 2), 1e300)], _cfg(learning_rate=1e300),
                    np.random.default_rng(0))


@pytest.mark.filterwarnings("error")
def test_cd1_bias_overflow_raises_while_the_weights_stay_finite():
    # hidden units off (p = 0, h = 0) and W = 0: the weight gradient is
    # exactly 0 and only the visible bias moves, by lr * mean(v - b_vis)
    rbm = RbmParams("gaussian", np.zeros((2, 2)), np.zeros(2), np.full(2, -1e4))
    with pytest.raises(NumericalError, match=re.escape("parameters after update (epoch 0)")):
        _cd1_epochs(rbm, [np.full((2, 2), 1e300)], _cfg(learning_rate=1e300),
                    np.random.default_rng(0))
    assert np.all(rbm.W == 0.0)
    assert not np.all(np.isfinite(rbm.b_vis))


# A 300x512 layer is stepped in four row blocks of 64 and a partial one of
# 44, so row 299 lies in the partial block.  An infinite hidden bias leaves
# every hidden probability finite (0 or 1), so it stays the only bad value.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, index", [("W", (0, 7)), ("W", (299, 7)), ("b_hid", 7)],
                         ids=["weight-row-0", "weight-last-row", "hidden-bias"])
def test_cd1_epochs_name_the_epoch_a_parameter_goes_non_finite(monkeypatch, name, index):
    rng = np.random.default_rng(0)
    batches = [rng.normal(size=(4, 300)) for _ in range(3)]
    steps = []

    def step(layer, *args):
        if len(steps) == 2 * len(batches) + 1:   # epoch 2, minibatch 1
            getattr(layer, name)[index] = np.inf
        steps.append(None)
        return cd1_step(layer, *args)

    monkeypatch.setattr(rbm_module, "cd1_step", step)
    rbm = init_rbm(300, 512, "gaussian", seed=0)
    with pytest.raises(NumericalError, match=re.escape("parameters after update (epoch 2)")):
        _cd1_epochs(rbm, batches, _cfg(learning_rate=0.01, epochs=4), np.random.default_rng(1))
    assert len(steps) == 3 * len(batches)


def _bimodal(seed, n=60):
    rng = np.random.default_rng(seed)
    a = rng.normal([2.0, 2.0], 0.3, size=(n // 2, 2))
    b = rng.normal([-2.0, -2.0], 0.3, size=(n // 2, 2))
    return np.vstack([a, b])


def test_train_rbm_zero_lr_keeps_initialization():
    X = _bimodal(0)
    cfg = _cfg(learning_rate=0.0, epochs=1, seed=5)
    rbm, errors = train_rbm(X, cfg, "gaussian", 4)
    init = init_rbm(2, 4, "gaussian", seed=5)
    assert np.array_equal(rbm.W, init.W)
    assert len(errors) == 1


def test_train_rbm_reduces_reconstruction_error():
    wins = 0
    for seed in range(5):
        cfg = RbmTrainConfig(learning_rate=0.01, epochs=50, momentum=0.9,
                             weight_decay=0.0002, minibatch_size=10, seed=seed)
        _, errors = train_rbm(_bimodal(seed), cfg, "gaussian", 8)
        if errors[-1] < errors[0]:
            wins += 1
    assert wins >= 4


def test_train_rbm_deterministic():
    X = _bimodal(3)
    cfg = _cfg(learning_rate=0.01, epochs=5, momentum=0.9, seed=2)
    r1, e1 = train_rbm(X, cfg, "gaussian", 4)
    r2, e2 = train_rbm(X, cfg, "gaussian", 4)
    assert np.array_equal(r1.W, r2.W)
    assert e1 == e2


def _cd1_oracle(W, b_vis, b_hid, dW, db_vis, db_hid, v, kind, cfg, rng):
    """One CD-1 step written out in the library's expression order; returns
    the new (W, b_vis, b_hid, dW, db_vis, db_hid, error)."""
    m = v.shape[0]
    ph_data = sigmoid(v @ W + b_hid)
    h = (rng.random(ph_data.shape) < ph_data).astype(float)
    pre = h @ W.T + b_vis
    v_rec = pre if kind == "gaussian" else sigmoid(pre)
    ph_rec = sigmoid(v_rec @ W + b_hid)
    gW = (v.T @ ph_data - v_rec.T @ ph_rec) / m
    gbv = (v - v_rec).mean(axis=0)
    gbh = (ph_data - ph_rec).mean(axis=0)
    dW = cfg.momentum * dW + cfg.learning_rate * (gW - cfg.weight_decay * W)
    db_vis = cfg.momentum * db_vis + cfg.learning_rate * gbv
    db_hid = cfg.momentum * db_hid + cfg.learning_rate * gbh
    err = float(((v - v_rec) ** 2).sum(axis=1).mean())
    return W + dW, b_vis + db_vis, b_hid + db_hid, dW, db_vis, db_hid, err


@pytest.mark.parametrize("kind, n_visible, n_hidden", [
    pytest.param("gaussian", 7, 5, id="gaussian"),
    pytest.param("bernoulli", 7, 5, id="bernoulli"),
    # 300x512 weights are stepped in four row blocks of 64 and a partial 44
    pytest.param("gaussian", 300, 512, id="gaussian-300x512"),
    pytest.param("bernoulli", 300, 512, id="bernoulli-300x512"),
])
def test_cd1_consecutive_steps_match_exact_oracle(kind, n_visible, n_hidden):
    data_rng = np.random.default_rng(11)
    rbm = RbmParams(kind, data_rng.normal(0.0, 0.1, size=(n_visible, n_hidden)),
                    data_rng.normal(size=n_visible), data_rng.normal(size=n_hidden))
    # a smaller, then a larger minibatch: row buffers are reused, then grown
    batches = [data_rng.normal(size=(rows, n_visible)) for rows in (4, 3, 6)]
    if kind == "bernoulli":
        batches = [sigmoid(b) for b in batches]
    cfg = _cfg(learning_rate=0.05, momentum=0.9, weight_decay=0.01)
    state = (rbm.W.copy(), rbm.b_vis.copy(), rbm.b_hid.copy(),
             np.zeros((n_visible, n_hidden)), np.zeros(n_visible), np.zeros(n_hidden))
    vel = RbmVelocity.zeros_like(rbm)
    rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
    for batch in batches:
        err = cd1_step(rbm, batch, cfg, vel, rng)
        *state, expected_err = _cd1_oracle(*state, batch, kind, cfg, oracle_rng)
        for got, want in zip((rbm.W, rbm.b_vis, rbm.b_hid, vel.dW, vel.db[0], vel.db[1]),
                             state):
            np.testing.assert_array_equal(got, want)
        assert err == expected_err


@pytest.mark.parametrize("n_visible, kind, rows, bound", [
    (512, "bernoulli", 8, 512 * 512 * 8),      # one weight-sized float64 array
    (100, "gaussian", 100, 100 * 512 * 8),     # one hidden activation array
])
def test_cd1_step_allocates_no_weight_or_minibatch_sized_array(n_visible, kind, rows, bound):
    rbm = init_rbm(n_visible, 512, kind, seed=0)
    vel = RbmVelocity.zeros_like(rbm)
    rng = np.random.default_rng(1)
    batch = rng.random((rows, n_visible))
    cfg = _cfg(learning_rate=0.01, momentum=0.9, weight_decay=0.0002)
    cd1_step(rbm, batch, cfg, vel, rng)
    tracemalloc.start()
    try:
        cd1_step(rbm, batch, cfg, vel, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


@pytest.mark.parametrize("bad_row", [None, 0, 150, 299])
def test_descend_steps_every_row_block(bad_row):
    # 300 rows of 512 are stepped in four blocks of 64 rows and one of 44,
    # each whatever another block holds
    W, b = np.zeros((300, 512)), np.zeros(2)
    gW = np.random.default_rng(0).normal(size=W.shape)
    if bad_row is not None:
        gW[bad_row, 7] = np.inf
    momentum = Momentum.zeros_like(W, b)
    cfg = _cfg(learning_rate=1.0, momentum=0.5, weight_decay=0.0)

    def grad(rows, out):
        out[:] = gW[rows]
        return out

    momentum.descend(W, (b,), (np.ones(2),), cfg, grad)
    np.testing.assert_array_equal(W, -gW)
    np.testing.assert_array_equal(b, -np.ones(2))


def test_rbm_velocity_holds_one_weight_sized_array():
    # dW is the only weight-sized buffer; every other one holds at most one
    # block of 32768 float64 (256 KiB), which is 64 rows of a 512-wide layer.
    # The per-row buffers of this 8-row minibatch are smaller than a block.
    rbm = init_rbm(512, 512, "bernoulli", seed=0)
    vel = RbmVelocity.zeros_like(rbm)
    rng = np.random.default_rng(1)
    cd1_step(rbm, rng.random((8, 512)), _cfg(learning_rate=0.01), vel, rng)
    arrays = [a for value in vars(vel).values()
              for a in (value if isinstance(value, (list, tuple)) else [value])]
    assert all(isinstance(a, np.ndarray) for a in arrays)
    assert [a.shape for a in arrays if a.size > 32768] == [rbm.W.shape]
    assert vel.dW.shape == rbm.W.shape
    assert vel.gW.shape == vel.step.shape == vel.product.shape == (64, 512)
