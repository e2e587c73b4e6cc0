import numpy as np
import pytest

from oracles import select_impostors_oracle
from spkdbn.balance import (
    build_minibatch_plan,
    impostor_frequencies,
    kmeans_cosine,
    rank_impostors,
)


def test_select_impostors_single_target():
    target = [np.array([1.0, 0.0])]
    impostors = np.array([[0.0, 1.0], [1.0, 0.1], [-1.0, 0.0]])
    f = impostor_frequencies(target, impostors, 1)
    assert f.tolist() == [0, 1, 0]
    assert rank_impostors(f, 1) == [1]


def test_select_impostors_saturated_ties():
    targets = [np.array([1.0, 1.0])] * 4
    impostors = np.random.default_rng(0).normal(size=(6, 2))
    f = impostor_frequencies(targets, impostors, 6)
    assert f.tolist() == [4] * 6
    # all frequencies equal: tie-break by ascending index
    assert rank_impostors(f, 3) == [0, 1, 2]


def test_impostor_frequencies_breaks_a_tie_at_the_cut_by_ascending_index():
    # impostors 1, 3 and 4 all have cosine 1 with the target; N=2 keeps 1 and 3
    target = [np.array([1.0, 0.0])]
    impostors = np.array([[0.0, 1.0], [2.0, 0.0], [-1.0, 0.0], [3.0, 0.0], [0.5, 0.0]])
    assert impostor_frequencies(target, impostors, 1).tolist() == [0, 1, 0, 0, 0]
    assert impostor_frequencies(target, impostors, 2).tolist() == [0, 1, 0, 1, 0]


def test_select_impostors_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        targets = rng.normal(size=(10, 8))
        impostors = rng.normal(size=(100, 8))
        f = impostor_frequencies(targets, impostors, 5)
        got = rank_impostors(f, 20)
        want, f_want = select_impostors_oracle(targets.tolist(), impostors.tolist(), 5, 20)
        assert got == want
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


def test_kmeans_refills_a_cluster_left_empty_by_duplicate_points():
    # Two distinct directions and k=3: one cluster is empty after the first
    # assignment, and its centroid is the mean of no vectors unless refilled.
    X = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
    for seed in range(20):
        assert np.all(np.isfinite(kmeans_cosine(X, k=3, seed=seed))), seed


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans_cosine(np.zeros((0, 2)), 1, seed=0)
    with pytest.raises(ValueError):
        kmeans_cosine(np.ones((3, 2)), 4, seed=0)


def test_plan_single_mode_published_shape():
    # 1 target, 12 centroids, 3 minibatches -> 3 batches of 4 copies + 4 centroids
    target = np.array([1.0, 0.0])
    centroids = np.arange(24, dtype=float).reshape(12, 2)
    plan = build_minibatch_plan([target], centroids, 3)
    assert plan.batches.shape == (3, 8, 2)
    assert np.all(plan.batches[:, :4] == target)
    np.testing.assert_array_equal(plan.batches[:, 4:].reshape(12, 2), centroids)  # disjoint cover


def test_plan_multi_mode_published_shape():
    # 8 targets, 24 centroids, 3 minibatches -> batches of size 16
    rng = np.random.default_rng(6)
    targets = rng.normal(size=(8, 3))
    centroids = rng.normal(size=(24, 3))
    plan = build_minibatch_plan(targets, centroids, 3)
    assert plan.batches.shape == (3, 16, 3)
    for batch in plan.batches:
        np.testing.assert_array_equal(batch[:8], targets)  # same targets each batch
    np.testing.assert_array_equal(plan.batches[:, 8:].reshape(24, 3), centroids)


def test_plan_minimal_and_errors():
    plan = build_minibatch_plan(np.ones((1, 2)), np.ones((1, 2)), 1)
    assert plan.batches.shape == (1, 2, 2)
    with pytest.raises(ValueError, match="not divisible"):
        build_minibatch_plan(np.ones((1, 2)), np.ones((5, 2)), 3)
    with pytest.raises(ValueError, match="non-empty"):
        build_minibatch_plan(np.ones((0, 2)), np.ones((3, 2)), 3)
    with pytest.raises(ValueError, match="non-empty"):
        build_minibatch_plan(np.ones(2), np.ones((3, 2)), 3)  # a vector, not a matrix
    with pytest.raises(ValueError, match="13 target vectors exceed the 12 target slots"):
        build_minibatch_plan(np.ones((13, 2)), np.ones((12, 2)), 3)


def test_plan_multi_mode_fewer_sessions_than_group():
    # 7 sessions, 24 centroids, 3 minibatches of 8 + 8: sessions cycle
    rng = np.random.default_rng(8)
    targets = rng.normal(size=(7, 3))
    centroids = rng.normal(size=(24, 3))
    plan = build_minibatch_plan(targets, centroids, 3)
    assert plan.batches.shape == (3, 16, 3)
    for k, batch in enumerate(plan.batches):
        np.testing.assert_array_equal(batch[:8], targets[(k * 8 + np.arange(8)) % 7])
    used = plan.batches[:, :8].reshape(24, 3)
    assert set(map(tuple, used)) == set(map(tuple, targets))  # every session appears
    np.testing.assert_array_equal(plan.batches[:, 8:].reshape(24, 3), centroids)


def test_plan_multi_mode_more_sessions_than_group():
    # 10 sessions, 3 minibatches of 4 target slots: each session at least once
    targets = np.arange(20.0).reshape(10, 2)
    plan = build_minibatch_plan(targets, np.ones((12, 2)), 3)
    np.testing.assert_array_equal(plan.batches[:, :4].reshape(12, 2), targets[np.arange(12) % 10])


def test_plan_labels():
    plan = build_minibatch_plan(np.ones((1, 2)), np.ones((4, 2)), 2)
    assert plan.batches.shape == (2, 4, 2)
    np.testing.assert_array_equal(plan.labels, [[1, 0], [1, 0], [0, 1], [0, 1]])
    assert plan.labels.dtype == np.float64
