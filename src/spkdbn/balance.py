"""Balanced training data: impostor selection, clustering, minibatches.

Impostor selection keeps the background vectors that score among the
top-N cosine neighbors of the most enrolled speakers; the survivors are
clustered with cosine k-means and the centroids become the negative
samples.  The centroids are split into equal groups, one per minibatch,
and each minibatch's target block cycles through the speaker's sessions
to the group size, so any session count from 1 up to the plan's total
number of target slots trains.  A plan is one (K, 2g, d) array of
minibatches, each g target rows over g impostor rows, plus the (2g, 2)
one-hot label block that all of them share.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass


def _unit_rows(X: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"zero vector among {what}")
    return X / norms[:, None]


def impostor_frequencies(targets, impostors, n_local: int) -> np.ndarray:
    """Count, per impostor, how many targets rank it in their cosine top-N.

    Ties in the top-N cut are broken by ascending impostor index.
    """
    T = np.atleast_2d(np.asarray(targets, dtype=float))
    M = np.atleast_2d(np.asarray(impostors, dtype=float))
    if T.shape[1] != M.shape[1]:
        raise ValueError("target/impostor dimension mismatch")
    if not 1 <= n_local <= M.shape[0]:
        raise ValueError(f"N={n_local} out of range for M={M.shape[0]} impostors")
    sims = _unit_rows(T, "targets") @ _unit_rows(M, "impostors").T
    f = np.zeros(M.shape[0], dtype=int)
    idx = np.arange(M.shape[0])
    for scores in sims:
        order = np.lexsort((idx, -scores))  # descending score, then ascending index
        f[order[:n_local]] += 1
    return f


def rank_impostors(frequencies, kappa: int) -> list[int]:
    """Indices of the kappa largest frequencies.

    Sorted by descending frequency, ties broken by ascending index.
    """
    f = np.asarray(frequencies)
    if not 1 <= kappa <= f.size:
        raise ValueError(f"kappa={kappa} out of range for impostor count {f.size}")
    order = np.lexsort((np.arange(f.size), -f))
    return [int(i) for i in order[:kappa]]


def _repair_empty_clusters(assign: np.ndarray, sims: np.ndarray, k: int) -> np.ndarray:
    """Move the worst-fitting vector into each empty cluster, in index order."""
    assign = assign.copy()
    for j in range(k):
        if np.any(assign == j):
            continue
        fit = sims[np.arange(assign.size), assign].copy()
        counts = np.bincount(assign, minlength=k)
        fit[counts[assign] <= 1] = np.inf  # do not empty another cluster
        victim = int(np.argmin(fit))
        assign[victim] = j
    return assign


def kmeans_cosine(vectors, k: int, seed: int, max_iter: int = 100) -> np.ndarray:
    """k-means under cosine distance (1 - cosine similarity).

    Centroids are arithmetic means of assigned vectors.  Seeding is
    greedy farthest-point from a seeded start index, so the result is
    deterministic given the seed.  Returns a (k, d) centroid array.
    """
    X = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty input")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n} vectors")
    Xn = _unit_rows(X, "k-means inputs")

    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    chosen = [first]
    max_sim = Xn @ Xn[first]
    max_sim[first] = np.inf
    for _ in range(1, k):
        cand = int(np.argmin(max_sim))
        chosen.append(cand)
        max_sim = np.maximum(max_sim, Xn @ Xn[cand])
        max_sim[cand] = np.inf

    centroids = X[chosen].copy()
    assign = None
    for _ in range(max_iter):
        norms = np.linalg.norm(centroids, axis=1)
        Cn = np.where(norms[:, None] > 0, centroids / np.where(norms == 0, 1, norms)[:, None], 0.0)
        sims = Xn @ Cn.T
        new_assign = np.argmax(sims, axis=1)
        new_assign = _repair_empty_clusters(new_assign, sims, k)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            centroids[j] = X[assign == j].mean(axis=0)
    return centroids


@dataclass(frozen=True)
class MinibatchPlan:
    """A speaker's balanced minibatches.  `batches[k]` is minibatch k, g
    target rows stacked over g impostor rows; every minibatch shares the
    one-hot `labels`: (1, 0) per target row, (0, 1) per impostor row."""

    batches: np.ndarray  # (K, 2g, d)
    labels: np.ndarray   # (2g, 2)


def build_minibatch_plan(targets, centroids, num_minibatches: int) -> MinibatchPlan:
    """Partition impostor centroids into balanced minibatches.

    targets is the speaker's (n, d) matrix of enrollment vectors.
    Centroids are split into disjoint consecutive groups of equal size.
    Each minibatch's target block has the group size too: minibatch k
    takes rows (k*group + i) % n, i < group, of the targets.  So one
    target is replicated, n == group targets fill every block in order,
    and any other n cycles through the sessions, each of which appears at
    least once.
    """
    C = np.atleast_2d(np.asarray(centroids, dtype=float))
    T = np.asarray(targets, dtype=float)
    if T.ndim != 2 or T.shape[0] == 0:
        raise ValueError(f"targets must be a non-empty (n, d) matrix, got shape {T.shape}")
    if num_minibatches < 1:
        raise ValueError("num_minibatches must be >= 1")
    if C.shape[0] % num_minibatches != 0:
        raise ValueError(
            f"{C.shape[0]} centroids not divisible into {num_minibatches} minibatches"
        )
    group, n = C.shape[0] // num_minibatches, T.shape[0]
    if n > group * num_minibatches:
        raise ValueError(
            f"{n} target vectors exceed the {group * num_minibatches} target slots "
            f"of {num_minibatches} minibatches"
        )
    rows = np.arange(group * num_minibatches).reshape(num_minibatches, group) % n
    batches = np.concatenate([T[rows], C.reshape(num_minibatches, group, -1)], axis=1)
    return MinibatchPlan(batches, np.repeat(np.eye(2), group, axis=0))
