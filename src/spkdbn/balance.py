"""Balanced training data: impostor selection, clustering, minibatches.

Impostor selection keeps the background vectors that score among the
top-N cosine neighbors of the most enrolled speakers; the survivors are
clustered with cosine k-means and the centroids become the negative
samples.  The centroids are split into equal groups, one per minibatch.
In single mode the one target vector is tiled to the group size; in
multi mode the speaker's session count must equal the group size.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass


@dataclass(frozen=True)
class ImpostorSelectionConfig:
    """N = local nearest impostors per target, kappa = global survivors."""

    n_local: int
    kappa: int

    def __post_init__(self):
        if self.n_local < 1 or self.kappa < 1:
            raise ValueError("N and kappa must be >= 1")


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity a.b / (|a||b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for the zero vector")
    return float(a @ b / (na * nb))


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


def select_impostors(targets, impostors, cfg: ImpostorSelectionConfig) -> list[int]:
    """Indices of the kappa most frequently top-N-ranked impostors."""
    return rank_impostors(impostor_frequencies(targets, impostors, cfg.n_local), cfg.kappa)


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
class Minibatch:
    """One balanced minibatch: equal numbers of targets and impostors."""

    targets: np.ndarray    # (m, d)
    impostors: np.ndarray  # (m, d)

    def vectors(self) -> np.ndarray:
        return np.vstack([self.targets, self.impostors])

    def labels(self) -> np.ndarray:
        """One-hot rows: (1,0) target, (0,1) impostor."""
        m = self.targets.shape[0]
        return np.vstack([np.tile([1.0, 0.0], (m, 1)), np.tile([0.0, 1.0], (m, 1))])


@dataclass(frozen=True)
class MinibatchPlan:
    minibatches: tuple[Minibatch, ...]

    def matrices(self) -> list[np.ndarray]:
        return [mb.vectors() for mb in self.minibatches]

    def labeled_arrays(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(mb.vectors(), mb.labels()) for mb in self.minibatches]


def build_minibatch_plan(target_vectors, centroids, num_minibatches: int, mode: str) -> MinibatchPlan:
    """Partition impostor centroids into balanced minibatches.

    Centroids are split into disjoint consecutive groups of equal size.
    In single mode the one target vector is replicated to the group
    size in every minibatch; in multi mode every minibatch carries the
    full target set, whose size must equal the group size.
    """
    if mode not in ("single", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    C = np.atleast_2d(np.asarray(centroids, dtype=float))
    targets = [np.asarray(v, dtype=float) for v in target_vectors]
    if not targets:
        raise ValueError("no target vectors")
    if num_minibatches < 1:
        raise ValueError("num_minibatches must be >= 1")
    if C.shape[0] % num_minibatches != 0:
        raise ValueError(
            f"{C.shape[0]} centroids not divisible into {num_minibatches} minibatches"
        )
    group = C.shape[0] // num_minibatches
    if mode == "single":
        if len(targets) != 1:
            raise ValueError("single mode takes exactly one target vector")
        target_block = np.tile(targets[0], (group, 1))
    else:
        if len(targets) != group:
            raise ValueError(
                f"multi mode needs impostor group size {group} == target count {len(targets)}"
            )
        target_block = np.stack(targets)
    minibatches = tuple(
        Minibatch(target_block.copy(), C[i * group : (i + 1) * group].copy())
        for i in range(num_minibatches)
    )
    return MinibatchPlan(minibatches)
