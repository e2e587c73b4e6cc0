import copy

import numpy as np
import pytest

from spkdbn import udbn
from spkdbn.rbm import RbmParams, RbmTrainConfig, RbmVelocity, cd1_step, hidden_probs, train_rbm
from spkdbn.udbn import (
    DbnParams,
    adapt_udbn,
    load_dbn,
    normalize_udbn,
    save_dbn,
    train_udbn,
)


def _toy_data(seed=0, n=40, d=6):
    return np.random.default_rng(seed).normal(size=(n, d))


def _cfg(seed=0, epochs=3, lr=0.01):
    return RbmTrainConfig(learning_rate=lr, epochs=epochs, momentum=0.9,
                          weight_decay=0.0002, minibatch_size=10, seed=seed)


def test_train_udbn_shapes_and_kinds():
    X = _toy_data()
    dbn = train_udbn(X, [8, 8], [_cfg(1), _cfg(2)])
    assert [layer.W.shape for layer in dbn.layers] == [(6, 8), (8, 8)]
    assert dbn.layers[0].visible_kind == "gaussian"
    assert dbn.layers[1].visible_kind == "bernoulli"
    assert not dbn.normalized


def test_train_udbn_stacking_oracle():
    # layer 2 must be trained on the hidden probabilities of trained layer 1
    X = _toy_data(3)
    dbn = train_udbn(X, [8, 8], [_cfg(1), _cfg(2)])
    propagated = hidden_probs(dbn.layers[0], X)
    layer2_direct, _ = train_rbm(propagated, _cfg(2), "bernoulli", 8)
    assert np.array_equal(dbn.layers[1].W, layer2_direct.W)
    assert np.array_equal(dbn.layers[1].b_hid, layer2_direct.b_hid)


def test_train_udbn_depth_three_trains_each_layer_on_the_one_below():
    X = _toy_data(4)
    cfgs = [_cfg(1), _cfg(2), _cfg(3)]
    dbn = train_udbn(X, [8, 6, 4], cfgs)
    for k, kind in enumerate(("gaussian", "bernoulli", "bernoulli")):
        direct, _ = train_rbm(dbn.propagate(X, upto=k), cfgs[k], kind, dbn.layers[k].n_hidden)
        for name in ("W", "b_vis", "b_hid"):
            np.testing.assert_array_equal(getattr(dbn.layers[k], name), getattr(direct, name))


def test_train_udbn_deterministic():
    X = _toy_data(5)
    a = train_udbn(X, [4, 4], [_cfg(1), _cfg(2)])
    b = train_udbn(X, [4, 4], [_cfg(1), _cfg(2)])
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b_vis, lb.b_vis)
        assert np.array_equal(la.b_hid, lb.b_hid)


def test_dbn_chain_validation():
    l1 = RbmParams("gaussian", np.zeros((4, 3)), np.zeros(4), np.zeros(3))
    l2 = RbmParams("bernoulli", np.zeros((5, 2)), np.zeros(5), np.zeros(2))
    with pytest.raises(ValueError):
        DbnParams([l1, l2])


def _random_dbn(seed=0):
    rng = np.random.default_rng(seed)
    l1 = RbmParams("gaussian", rng.normal(size=(5, 4)), rng.normal(size=5), rng.normal(size=4))
    l2 = RbmParams("bernoulli", rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=3))
    return DbnParams([l1, l2])


def test_normalize_scales_max_weight_to_001():
    dbn = _random_dbn()
    dbn.layers[0].W[2, 1] = 0.5  # known max
    dbn.layers[0].W[np.abs(dbn.layers[0].W) > 0.5] = 0.4
    norm = normalize_udbn(dbn)
    assert norm.normalized
    np.testing.assert_allclose(np.abs(norm.layers[0].W).max(), 0.01, rtol=0, atol=0)
    np.testing.assert_allclose(norm.layers[0].W, dbn.layers[0].W * 0.02, atol=1e-15)
    np.testing.assert_allclose(norm.layers[0].b_vis, dbn.layers[0].b_vis * 0.01)


def test_normalize_zero_weight_layer():
    l1 = RbmParams("gaussian", np.zeros((3, 2)), np.ones(3), np.ones(2))
    norm = normalize_udbn(DbnParams([l1]))
    assert np.all(norm.layers[0].W == 0.0)
    np.testing.assert_allclose(norm.layers[0].b_vis, 0.01)


def test_normalize_preserves_ratios_argmax_and_signs():
    dbn = _random_dbn(9)
    norm = normalize_udbn(dbn)
    for raw, scaled in zip(dbn.layers, norm.layers):
        assert np.argmax(np.abs(raw.W)) == np.argmax(np.abs(scaled.W))
        assert np.array_equal(np.sign(raw.W), np.sign(scaled.W))
        flat_r, flat_s = raw.W.ravel(), scaled.W.ravel()
        ratios_raw = flat_r[:-1] / flat_r[1:]
        ratios_scaled = flat_s[:-1] / flat_s[1:]
        np.testing.assert_allclose(ratios_scaled, ratios_raw, rtol=1e-12)


def test_normalize_twice_is_rejected():
    norm = normalize_udbn(_random_dbn())
    with pytest.raises(ValueError, match="already normalized"):
        normalize_udbn(norm)


def _adapt_cfg(layers=1, seed=0, epochs=(5, 5), lrs=(0.001, 0.0001), momentum=0.9,
               weight_decay=0.0002):
    return [RbmTrainConfig(learning_rate=lr, epochs=e, momentum=momentum,
                           weight_decay=weight_decay, seed=seed)
            for lr, e in zip(lrs, epochs)][:layers]


def _batches(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(6, 5)) for _ in range(3)]


def test_adapt_zero_layers_is_identity():
    udbn = normalize_udbn(_random_dbn(1))
    before = copy.deepcopy(udbn)
    out = adapt_udbn(udbn, _batches(), _adapt_cfg(layers=0))
    assert out is udbn
    for a, b in zip(before.layers, out.layers):
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b_hid, b.b_hid)


def test_adapt_touches_only_requested_layers():
    udbn = normalize_udbn(_random_dbn(2))
    out = adapt_udbn(copy.deepcopy(udbn), _batches(), _adapt_cfg(layers=1, epochs=(10, 10)))
    assert not np.array_equal(out.layers[0].W, udbn.layers[0].W)
    assert np.array_equal(out.layers[1].W, udbn.layers[1].W)
    assert np.array_equal(out.layers[1].b_hid, udbn.layers[1].b_hid)
    assert [a.W.shape for a in out.layers] == [b.W.shape for b in udbn.layers]


def test_adapt_differs_per_speaker():
    udbn = normalize_udbn(_random_dbn(3))
    a = adapt_udbn(copy.deepcopy(udbn), _batches(10), _adapt_cfg(seed=1))
    b = adapt_udbn(copy.deepcopy(udbn), _batches(20), _adapt_cfg(seed=2))
    dist = np.linalg.norm(a.layers[0].W - b.layers[0].W)
    assert dist > 0.0


def test_two_layer_adaptation_matches_a_cd1_reference_loop():
    # Layer k: fresh momentum, a generator seeded [seed, k], and the batches
    # propagated through the layers below as already adapted.
    udbn = normalize_udbn(_random_dbn(7))
    batches = _batches(11)
    seed, lrs, epochs = 5, (0.05, 0.1), (3, 2)
    out = adapt_udbn(copy.deepcopy(udbn), batches,
                     _adapt_cfg(layers=2, seed=seed, epochs=epochs, lrs=lrs, momentum=0.5,
                                weight_decay=0.01))
    ref = copy.deepcopy(udbn)
    for k in range(2):
        cfg = RbmTrainConfig(learning_rate=lrs[k], epochs=epochs[k], momentum=0.5,
                             weight_decay=0.01, seed=seed)
        layer, velocity = ref.layers[k], RbmVelocity.zeros_like(ref.layers[k])
        rng = np.random.default_rng([seed, k])
        inputs = [ref.propagate(b, upto=k) for b in batches]
        for _ in range(epochs[k]):
            for x in inputs:
                cd1_step(layer, x, cfg, velocity, rng)
    for got, want in zip(out.layers, ref.layers):
        np.testing.assert_array_equal(got.W, want.W)
        np.testing.assert_array_equal(got.b_vis, want.b_vis)
        np.testing.assert_array_equal(got.b_hid, want.b_hid)


def test_adapt_depth_check():
    udbn = normalize_udbn(_random_dbn(4))
    with pytest.raises(ValueError, match="exceed DBN depth 2"):
        adapt_udbn(udbn, _batches(), _adapt_cfg(layers=3, epochs=(1, 1, 1), lrs=(0.001,) * 3))


def test_dbn_file_roundtrip(tmp_path):
    dbn = normalize_udbn(_random_dbn(6))
    p = tmp_path / "u.dbn"
    save_dbn(dbn, p)
    back = load_dbn(p)
    assert back.normalized == dbn.normalized
    assert len(back.layers) == len(dbn.layers)
    for a, b in zip(dbn.layers, back.layers):
        assert a.visible_kind == b.visible_kind
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b_vis, b.b_vis)
        assert np.array_equal(a.b_hid, b.b_hid)


def test_train_udbn_propagates_the_background_through_all_but_the_top_layer(monkeypatch):
    calls = []

    def counted(layer, X):
        calls.append(layer.n_hidden)
        return hidden_probs(layer, X)

    monkeypatch.setattr(udbn, "hidden_probs", counted)
    X = _toy_data(4)
    train_udbn(X, [8, 6, 4], [_cfg(1), _cfg(2), _cfg(3)])
    assert calls == [8, 6]
    calls.clear()
    train_udbn(X, [8], [_cfg(1)])
    assert calls == []
