import copy
import re
import tracemalloc

import numpy as np
import pytest

from oracles import forward_oracle, mean_cross_entropy_oracle
from spkdbn.balance import build_minibatch_plan
from spkdbn.embeddings import ParseError
from spkdbn.dnn import (
    DnnModel,
    DnnVelocity,
    FineTuneConfig,
    _forward_full,
    _softmax,
    backprop_minibatch,
    init_from_dbn,
    init_random,
    load_dnn,
    save_dnn,
    score_llr_batch,
    train_speaker_dnn,
)
from spkdbn.rbm import NumericalError, RbmParams
from spkdbn.udbn import DbnParams, save_dbn


def sigmoid(x):
    """The library's sigmoid in its expression order, for the exact oracles."""
    return 1.0 / (1.0 + np.exp(-x))


def test_init_random_contract():
    m = init_random([400, 512, 2], seed=1)
    assert m.weights[0].shape == (400, 512)
    assert m.weights[1].shape == (512, 2)
    assert all(np.all((W >= 0.0) & (W < 0.01)) for W in m.weights)
    assert all(np.all(b == 0.0) for b in m.biases)
    again = init_random([400, 512, 2], seed=1)
    assert all(np.array_equal(a, b) for a, b in zip(m.weights, again.weights))


@pytest.mark.parametrize("sizes, message", [
    ([3, 4], "model needs at least one hidden layer plus the output layer"),
    ([3, 4, 3], "output layer must have exactly 2 units")], ids=["no-hidden-layer", "3-outputs"])
def test_init_random_rejects_sizes_that_are_not_a_two_class_network(sizes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        init_random(sizes, seed=0)


def _dbn(seed=0, sizes=(5, 4)):
    rng = np.random.default_rng(seed)
    layers = []
    for i, (a, b) in enumerate(zip(sizes, sizes[1:])):
        kind = "gaussian" if i == 0 else "bernoulli"
        layers.append(RbmParams(kind, rng.normal(size=(a, b)), rng.normal(size=a), rng.normal(size=b)))
    return DbnParams(layers)


def test_init_from_dbn_shares_the_hidden_layers_arrays():
    dbn = _dbn(2)
    m = init_from_dbn(dbn, seed=3)
    assert m.weights[0] is dbn.layers[0].W
    assert m.biases[0] is dbn.layers[0].b_hid
    assert m.weights[1].shape == (4, 2)
    assert np.all((m.weights[1] >= 0.0) & (m.weights[1] < 0.01))
    assert np.all(m.biases[1] == 0.0)


def test_init_from_dbn_differs_per_adapted_model():
    a = init_from_dbn(_dbn(10), seed=0)
    b = init_from_dbn(_dbn(11), seed=0)
    assert np.linalg.norm(a.weights[0] - b.weights[0]) > 0.0


def test_forward_all_zero_parameters():
    m = DnnModel([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)])
    acts, z = _forward_full(m, np.array([[1.0, -2.0, 0.5]]))
    np.testing.assert_allclose(acts[0], 0.5)
    np.testing.assert_allclose(_softmax(z), [[0.5, 0.5]])
    assert score_llr_batch(m, np.array([[1.0, -2.0, 0.5]]))[0] == 0.0


def test_softmax_shift_invariance():
    m = DnnModel([np.zeros((2, 3)), np.zeros((3, 2))],
                 [np.zeros(3), np.array([7.3, 7.3])])
    _, z = _forward_full(m, np.zeros((1, 2)))
    np.testing.assert_allclose(_softmax(z), [[0.5, 0.5]], atol=1e-15)


def _random_model(sizes, seed):
    rng = np.random.default_rng(seed)
    weights = [rng.normal(scale=0.5, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
    biases = [rng.normal(scale=0.1, size=b) for b in sizes[1:]]
    return DnnModel(weights, biases)


def test_forward_matches_loop_oracle():
    m = _random_model([4, 5, 3, 2], seed=7)
    x = np.random.default_rng(8).normal(size=4)
    acts, z = _forward_full(m, x[None])
    probs = _softmax(z)[0]
    o_acts, o_probs = forward_oracle([W.tolist() for W in m.weights],
                                     [b.tolist() for b in m.biases], x.tolist())
    for a, oa in zip(acts, o_acts):
        np.testing.assert_allclose(a[0], oa, atol=1e-12)
    np.testing.assert_allclose(probs, o_probs, atol=1e-12)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs > 0.0)


def test_forward_dimension_check():
    m = _random_model([4, 3, 2], seed=0)
    with pytest.raises(ValueError):
        _forward_full(m, np.zeros((1, 5)))


def _num_grad(model, X, Y, step=1e-5):
    """Central finite differences of the mean cross-entropy."""
    grads_W, grads_b = [], []
    for W in model.weights:
        g = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + step
            up = mean_cross_entropy_oracle(model, X, Y)
            W[idx] = orig - step
            dn = mean_cross_entropy_oracle(model, X, Y)
            W[idx] = orig
            g[idx] = (up - dn) / (2 * step)
        grads_W.append(g)
    for b in model.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            up = mean_cross_entropy_oracle(model, X, Y)
            b[idx] = orig - step
            dn = mean_cross_entropy_oracle(model, X, Y)
            b[idx] = orig
            g[idx] = (up - dn) / (2 * step)
        grads_b.append(g)
    return grads_W, grads_b


def _analytic_grad(model, X, Y):
    """Recover raw gradients from one momentum-free unit-lr step."""
    probe = copy.deepcopy(model)
    vel = DnnVelocity.zeros_like(probe)
    cfg = FineTuneConfig(learning_rate=1.0, epochs=1, momentum=0.0, weight_decay=0.0)
    backprop_minibatch(probe, X, Y, cfg, vel)
    gW = [w0 - w1 for w0, w1 in zip(model.weights, probe.weights)]
    gb = [b0 - b1 for b0, b1 in zip(model.biases, probe.biases)]
    return gW, gb


def _check_grads(sizes, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    model = _random_model(sizes, seed)
    X = rng.normal(size=(6, sizes[0]))
    Y = np.zeros((6, 2))
    Y[np.arange(6), rng.integers(0, 2, size=6)] = 1.0
    gW, gb = _analytic_grad(model, X, Y)
    nW, nb = _num_grad(model, X, Y)
    worst = 0.0
    for a, n in zip(gW + gb, nW + nb):
        mask = np.abs(n) > 1e-8
        if np.any(mask):
            rel = np.abs(a[mask] - n[mask]) / np.abs(n[mask])
            worst = max(worst, rel.max())
    assert worst < tol, worst


def test_backprop_matches_finite_differences():
    _check_grads([5, 6, 2], seed=0)
    _check_grads([5, 6, 6, 2], seed=1)
    _check_grads([5, 6, 6, 6, 2], seed=2)


def test_backprop_zero_lr_is_noop():
    m = _random_model([4, 3, 2], seed=5)
    before = copy.deepcopy(m)
    cfg = FineTuneConfig(learning_rate=0.0, epochs=1, momentum=0.9, weight_decay=0.1)
    backprop_minibatch(m, np.ones((2, 4)), np.array([[1.0, 0.0], [0.0, 1.0]]),
                       cfg, DnnVelocity.zeros_like(m))
    assert all(np.array_equal(a, b) for a, b in zip(m.weights, before.weights))


def test_gradient_vanishes_when_perfectly_classified():
    # drive the output toward the label; gradient norm must shrink
    m = _random_model([3, 4, 2], seed=6)
    m.weights[-1] = np.array([[30.0, -30.0]] * 4)
    X = np.ones((1, 3))
    Y = np.array([[1.0, 0.0]])
    gW, gb = _analytic_grad(m, X, Y)
    total = sum(np.abs(g).sum() for g in gW + gb)
    assert total < 1e-8


def test_single_step_decreases_loss():
    m = _random_model([4, 5, 2], seed=9)
    X = np.random.default_rng(1).normal(size=(1, 4))
    Y = np.array([[0.0, 1.0]])
    before = mean_cross_entropy_oracle(m, X, Y)
    cfg = FineTuneConfig(learning_rate=1e-4, epochs=1, momentum=0.0, weight_decay=0.0)
    # the step returns its pre-update loss
    assert backprop_minibatch(m, X, Y, cfg, DnnVelocity.zeros_like(m)) == pytest.approx(
        before, rel=1e-12)
    assert mean_cross_entropy_oracle(m, X, Y) < before


def test_replicated_targets_have_identical_activations():
    m = _random_model([3, 4, 2], seed=10)
    v = np.array([0.3, -0.7, 1.1])
    X = np.tile(v, (4, 1))
    acts, z = _forward_full(m, X)
    for a in acts:
        assert np.all(a == a[0])
    assert np.all(z == z[0])


def _toy_plan(seed=0):
    rng = np.random.default_rng(seed)
    target = rng.normal(size=3) + 2.0
    centroids = rng.normal(size=(6, 3)) - 2.0
    return build_minibatch_plan(target[None, :], centroids, 3)


def test_train_speaker_dnn_reduces_loss_and_is_deterministic():
    plan = _toy_plan()
    init = init_random([3, 8, 2], seed=4)
    cfg = FineTuneConfig(learning_rate=0.05, epochs=50, momentum=0.9, weight_decay=0.0)
    X = plan.batches.reshape(-1, 3)
    Y = np.tile(plan.labels, (len(plan.batches), 1))
    before = mean_cross_entropy_oracle(init, X, Y)
    twin = copy.deepcopy(init)
    trained = train_speaker_dnn(init, plan, cfg)
    after = mean_cross_entropy_oracle(trained, X, Y)
    assert after < before
    # training returns its argument, and re-training the same init reproduces bytes
    assert trained is init
    trained2 = train_speaker_dnn(twin, plan, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(trained.weights, trained2.weights))


def test_train_speaker_dnn_steps_through_the_plan_in_order():
    # each epoch: one step per minibatch, in plan order, all with the shared labels
    plan = _toy_plan(1)
    init = init_random([3, 5, 2], seed=2)
    cfg = FineTuneConfig(learning_rate=0.1, epochs=3, momentum=0.5, weight_decay=0.01)
    ref, velocity = copy.deepcopy(init), DnnVelocity.zeros_like(init)
    for _ in range(cfg.epochs):
        for k in range(len(plan.batches)):
            X = np.vstack([plan.batches[k, :2], plan.batches[k, 2:]])
            backprop_minibatch(ref, X, [[1, 0], [1, 0], [0, 1], [0, 1]], cfg, velocity)
    trained = train_speaker_dnn(init, plan, cfg)
    for got, want in zip(trained.weights + trained.biases, ref.weights + ref.biases):
        np.testing.assert_array_equal(got, want)


def test_score_llr_values():
    # bias-only model with known softmax output (0.9, 0.1)
    b = np.array([np.log(9.0), 0.0])
    m = DnnModel([np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(3), b])
    assert score_llr_batch(m, np.zeros((1, 2)))[0] == pytest.approx(np.log(9.0), abs=1e-12)
    _, z = _forward_full(m, np.zeros((1, 2)))
    np.testing.assert_allclose(_softmax(z), [[0.9, 0.1]], atol=1e-12)
    batch = score_llr_batch(m, np.zeros((3, 2)))
    np.testing.assert_allclose(batch, np.log(9.0), atol=1e-12)


def test_dnn_file_roundtrip(tmp_path):
    m = _random_model([4, 5, 2], seed=11)
    p = tmp_path / "m.dnn"
    save_dnn(m, p)
    back = load_dnn(p)
    assert all(np.array_equal(a, b) for a, b in zip(m.weights, back.weights))
    assert all(np.array_equal(a, b) for a, b in zip(m.biases, back.biases))


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _Tripwire:
    def __reduce__(self):
        return _record_unpickling, ()


def _assert_unreadable(path) -> str:
    with pytest.raises(ParseError, match=re.escape(str(path))) as excinfo:
        load_dnn(path)
    return str(excinfo.value)


def test_truncated_model_file_is_rejected(tmp_path):
    p = tmp_path / "m.dnn"
    save_dnn(_random_model([4, 5, 2], seed=12), p)
    p.write_bytes(p.read_bytes()[:-40])
    _assert_unreadable(p)


def test_text_or_garbage_model_file_is_rejected(tmp_path):
    p = tmp_path / "m.dnn"
    p.write_text("DNN v1\nsizes 4 5 2\n")
    _assert_unreadable(p)
    p.write_bytes(bytes(range(256)))
    _assert_unreadable(p)


def test_dbn_file_is_not_a_model_file(tmp_path):
    p = tmp_path / "u.dbn"
    rbm = RbmParams("gaussian", np.ones((4, 5)), np.zeros(4), np.zeros(5))
    save_dbn(DbnParams([rbm]), p)
    assert "format tag is 'dbn'" in _assert_unreadable(p)


def test_model_file_must_hold_float64_arrays(tmp_path):
    m = _random_model([4, 5, 2], seed=13)
    arrays = {"format": np.array("dnn"), "W1": m.weights[1], "b0": m.biases[0],
              "b1": m.biases[1]}
    p = tmp_path / "f32.dnn"
    with open(p, "wb") as fh:
        np.savez(fh, W0=m.weights[0].astype(np.float32), **arrays)
    _assert_unreadable(p)
    # an object array would need unpickling, which must never happen
    p = tmp_path / "obj.dnn"
    with open(p, "wb") as fh:
        np.savez(fh, W0=np.array([_Tripwire()], dtype=object), **arrays)
    _assert_unreadable(p)
    assert not _UNPICKLED


def _backprop_oracle(weights, biases, dW, db, X, Y, cfg):
    """One momentum SGD step written out in the library's expression order;
    returns the new (weights, biases, dW, db, loss)."""
    m = X.shape[0]
    acts = []
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        a = sigmoid(a @ W + b)
        acts.append(a)
    z = a @ weights[-1] + biases[-1]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-(Y * logp).sum(axis=1).mean())
    inputs = [X] + acts
    delta = (probs - Y) / m
    gW, gb = [None] * len(weights), [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        gW[i] = inputs[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * acts[i - 1] * (1.0 - acts[i - 1])
    dW = [cfg.momentum * d - cfg.learning_rate * (g + cfg.weight_decay * W)
          for d, g, W in zip(dW, gW, weights)]
    db = [cfg.momentum * d - cfg.learning_rate * g for d, g in zip(db, gb)]
    return ([W + d for W, d in zip(weights, dW)], [b + d for b, d in zip(biases, db)],
            dW, db, loss)


# the 512x512 weights are stepped in eight row blocks of 64
@pytest.mark.parametrize("sizes", [[6, 5, 4, 2], [100, 512, 512, 2]],
                         ids=["6-5-4-2", "100-512-512-2"])
def test_backprop_two_steps_match_exact_oracle(sizes):
    rng = np.random.default_rng(12)
    weights = [rng.normal(0.0, 0.5, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
    model = DnnModel(weights, [rng.normal(size=b) for b in sizes[1:]])
    cfg = FineTuneConfig(learning_rate=0.3, epochs=1, momentum=0.9, weight_decay=0.05)
    state = (copy.deepcopy(model.weights), copy.deepcopy(model.biases),
             [np.zeros_like(W) for W in model.weights], [np.zeros_like(b) for b in model.biases])
    vel = DnnVelocity.zeros_like(model)
    for rows in (5, 3):
        X = rng.normal(size=(rows, sizes[0]))
        Y = np.zeros((rows, 2))
        Y[np.arange(rows), rng.integers(0, 2, size=rows)] = 1.0
        loss = backprop_minibatch(model, X, Y, cfg, vel)
        *state, expected_loss = _backprop_oracle(*state, X, Y, cfg)
        for got, want in zip((model.weights, model.biases, [layer.dW for layer in vel],
                              [layer.db[0] for layer in vel]), state):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        assert loss == expected_loss


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backprop_divergence_raises():
    m = _random_model([3, 4, 2], seed=7)
    m.weights[0][:] = 1e300
    cfg = FineTuneConfig(learning_rate=1e300, epochs=1, momentum=0.0, weight_decay=1.0)
    with pytest.raises(NumericalError, match="non-finite DNN parameters"):
        backprop_minibatch(m, np.ones((2, 3)), np.array([[1.0, 0.0], [0.0, 1.0]]), cfg,
                           DnnVelocity.zeros_like(m))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backprop_bias_overflow_raises_while_the_weights_stay_finite():
    # hidden units off (a = 0): every weight gradient is exactly 0, the
    # tied output logits give a finite loss, and only the output bias moves
    m = _random_model([3, 4, 2], seed=7)
    m.biases[0][:] = -1e4
    m.biases[1][:] = 1.7e308
    weights = [W.copy() for W in m.weights]
    cfg = FineTuneConfig(learning_rate=1e308, epochs=1, momentum=0.0, weight_decay=0.0)
    with pytest.raises(NumericalError, match="non-finite DNN parameters"):
        backprop_minibatch(m, np.ones((2, 3)), np.array([[1.0, 0.0], [1.0, 0.0]]), cfg,
                           DnnVelocity.zeros_like(m))
    assert all(np.array_equal(a, b) for a, b in zip(m.weights, weights))
    assert not np.all(np.isfinite(m.biases[1]))


def test_backprop_step_allocates_no_weight_sized_array():
    # one 512x512 float64 array is 2,097,152 bytes, and one row block of it
    # (64 rows) is 262,144 bytes
    model = init_random([100, 512, 512, 2], seed=0)
    vel = DnnVelocity.zeros_like(model)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 100))
    Y = np.tile([[1.0, 0.0], [0.0, 1.0]], (4, 1))
    cfg = FineTuneConfig(learning_rate=0.01, epochs=1, momentum=0.9, weight_decay=0.0012)
    backprop_minibatch(model, X, Y, cfg, vel)
    tracemalloc.start()
    try:
        backprop_minibatch(model, X, Y, cfg, vel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 512 * 8, peak


def test_dnn_velocity_holds_one_weight_sized_array_per_layer():
    # dW is each layer's only weight-sized buffer; every other one holds at
    # most one block of 32768 float64 (256 KiB), 64 rows of a 512-wide layer
    model = init_random([100, 512, 512, 2], seed=0)
    vel = DnnVelocity.zeros_like(model)
    for W, layer in zip(model.weights, vel):
        arrays = [a for value in vars(layer).values()
                  for a in (value if isinstance(value, list) else [value])]
        assert all(isinstance(a, np.ndarray) for a in arrays)
        assert sum(a is layer.dW for a in arrays) == 1 and layer.dW.shape == W.shape
        assert all(a.size <= 32768 for a in arrays if a is not layer.dW)
        assert layer.gW.shape == layer.step.shape == (min(W.shape[0], 32768 // W.shape[1]),
                                                     W.shape[1])


def test_scoring_holds_one_activation_array_per_layer():
    # 1548 test rows through a 100-512-2 model: one 1548x512 float64
    # activation array, filled in place by the bias add and the sigmoid
    model = init_random([100, 512, 2], seed=0)
    X = np.random.default_rng(1).normal(size=(1548, 100))
    score_llr_batch(model, X)
    tracemalloc.start()
    try:
        score_llr_batch(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 1548 * 512 * 8, peak
