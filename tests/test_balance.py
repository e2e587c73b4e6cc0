import numpy as np
import pytest

from oracles import select_impostors_oracle
from spkdbn.balance import (
    ImpostorSelectionConfig,
    build_minibatch_plan,
    cosine_score,
    impostor_frequencies,
    kmeans_cosine,
    select_impostors,
)


def test_cosine_score_values():
    assert cosine_score([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert cosine_score([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert cosine_score([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=1e-8)
    with pytest.raises(ValueError):
        cosine_score([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        cosine_score([1.0], [1.0, 0.0])


def test_select_impostors_single_target():
    target = [np.array([1.0, 0.0])]
    impostors = np.array([[0.0, 1.0], [1.0, 0.1], [-1.0, 0.0]])
    cfg = ImpostorSelectionConfig(n_local=1, kappa=1)
    assert select_impostors(target, impostors, cfg) == [1]
    f = impostor_frequencies(target, impostors, 1)
    assert f.tolist() == [0, 1, 0]


def test_select_impostors_saturated_ties():
    targets = [np.array([1.0, 1.0])] * 4
    impostors = np.random.default_rng(0).normal(size=(6, 2))
    f = impostor_frequencies(targets, impostors, 6)
    assert f.tolist() == [4] * 6
    cfg = ImpostorSelectionConfig(n_local=6, kappa=3)
    # all frequencies equal: tie-break by ascending index
    assert select_impostors(targets, impostors, cfg) == [0, 1, 2]


def test_select_impostors_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        targets = rng.normal(size=(10, 8))
        impostors = rng.normal(size=(100, 8))
        got = select_impostors(targets, impostors, ImpostorSelectionConfig(5, 20))
        want, f_want = select_impostors_oracle(targets.tolist(), impostors.tolist(), 5, 20)
        assert got == want
        f = impostor_frequencies(targets, impostors, 5)
        assert f.tolist() == f_want
        assert f.sum() == 5 * 10  # sum f_m = N * T
        assert len(set(got)) == len(got)


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 3))
    C = kmeans_cosine(X, k=5, seed=0)
    # every centroid is one of the inputs (objective zero)
    for c in C:
        assert any(np.allclose(c, x) for x in X)


def test_kmeans_k_equals_one():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(7, 4))
    C = kmeans_cosine(X, k=1, seed=0)
    np.testing.assert_allclose(C[0], X.mean(axis=0), atol=1e-12)


def test_kmeans_two_direction_bundles():
    rng = np.random.default_rng(3)
    a = np.array([1.0, 0.0, 0.0]) + rng.normal(scale=0.01, size=(20, 3))
    b = np.array([0.0, 1.0, 0.0]) + rng.normal(scale=0.01, size=(20, 3))
    C = kmeans_cosine(np.vstack([a, b]), k=2, seed=0)
    def cos(u, v):
        return u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
    # each centroid is aligned with exactly one bundle mean
    sims = np.array([[cos(c, a.mean(axis=0)), cos(c, b.mean(axis=0))] for c in C])
    best = sims.max(axis=1)
    assert np.all(best > 0.99)
    assert set(np.argmax(sims, axis=1)) == {0, 1}


def test_kmeans_objective_nonincreasing_and_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 5))
    Xn = X / np.linalg.norm(X, axis=1)[:, None]

    def objective(C):
        Cn = C / np.linalg.norm(C, axis=1)[:, None]
        return float((1.0 - (Xn @ Cn.T).max(axis=1)).sum())

    objs = [objective(kmeans_cosine(X, 4, seed=0, max_iter=i)) for i in range(1, 8)]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert np.array_equal(kmeans_cosine(X, 4, seed=0), kmeans_cosine(X, 4, seed=0))


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans_cosine(np.zeros((0, 2)), 1, seed=0)
    with pytest.raises(ValueError):
        kmeans_cosine(np.ones((3, 2)), 4, seed=0)


def test_plan_single_mode_published_shape():
    # 1 target, 12 centroids, 3 minibatches -> 3 batches of 4 copies + 4 centroids
    target = np.array([1.0, 0.0])
    centroids = np.arange(24, dtype=float).reshape(12, 2)
    plan = build_minibatch_plan([target], centroids, 3, "single")
    assert len(plan.minibatches) == 3
    seen = []
    for mb in plan.minibatches:
        assert mb.targets.shape == (4, 2)
        assert mb.impostors.shape == (4, 2)
        assert np.all(mb.targets == target)
        seen.append(mb.impostors)
    np.testing.assert_array_equal(np.vstack(seen), centroids)  # disjoint cover


def test_plan_multi_mode_published_shape():
    # 8 targets, 24 centroids, 3 minibatches -> batches of size 16
    rng = np.random.default_rng(6)
    targets = list(rng.normal(size=(8, 3)))
    centroids = rng.normal(size=(24, 3))
    plan = build_minibatch_plan(targets, centroids, 3, "multi")
    assert len(plan.minibatches) == 3
    for mb in plan.minibatches:
        assert mb.vectors().shape == (16, 3)
        np.testing.assert_array_equal(mb.targets, np.stack(targets))  # same targets each batch
    groups = [mb.impostors for mb in plan.minibatches]
    np.testing.assert_array_equal(np.vstack(groups), centroids)


def test_plan_minimal_and_errors():
    plan = build_minibatch_plan([np.ones(2)], np.ones((1, 2)), 1, "single")
    assert plan.minibatches[0].vectors().shape == (2, 2)
    with pytest.raises(ValueError):
        build_minibatch_plan([np.ones(2)], np.ones((5, 2)), 3, "single")  # divisibility
    with pytest.raises(ValueError):
        build_minibatch_plan([], np.ones((3, 2)), 3, "single")
    with pytest.raises(ValueError):
        build_minibatch_plan([np.ones(2)] * 3, np.ones((12, 2)), 3, "multi")  # group != T


def test_plan_labels():
    plan = build_minibatch_plan([np.ones(2)], np.ones((4, 2)), 2, "single")
    X, Y = plan.labeled_arrays()[0]
    assert X.shape == (4, 2)
    np.testing.assert_array_equal(Y, [[1, 0], [1, 0], [0, 1], [0, 1]])
