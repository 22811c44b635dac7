"""Reference clusterers: Lloyd's k-means, k-means++ seeding, linkage clustering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_data, rng
from .extraction import Assignment, canonical_labels


@dataclass
class KMeansResult:
    centers: np.ndarray
    labels: np.ndarray
    iterations: int
    inertia: float
    inertia_history: np.ndarray


def _assign(A, centers):
    """Each row's nearest center (ties go to the lowest index) and its squared distance."""
    from scipy.spatial.distance import cdist

    d2 = cdist(A, centers, metric="sqeuclidean")
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(A.shape[0]), labels]


def lloyd(A, k: int, init_centers=None, max_iter: int = 300, seed: int = 0) -> KMeansResult:
    """Lloyd's alternating assignment / mean update.

    Initial centers are either supplied or drawn uniformly without
    replacement from the rows.  A cluster that empties is reseeded to the
    point currently farthest from its assigned center, which keeps the run
    deterministic; a center left with no rows after k passes keeps its place.
    Stops when assignments stabilize.
    """
    A = check_data(A)
    m = A.shape[0]
    if not (1 <= k <= m):
        raise ValueError(f"k must be in [1, m={m}], got {k}")
    if init_centers is not None:
        centers = np.array(init_centers, dtype=float, copy=True)
        if centers.shape != (k, A.shape[1]):
            raise ValueError(f"init_centers must be {k}x{A.shape[1]}")
    else:
        centers = A[rng(seed).choice(m, size=k, replace=False)].copy()

    labels = np.full(m, -1, dtype=np.int64)
    history = []
    it = 0
    for it in range(1, max_iter + 1):
        new_labels, assigned = _assign(A, centers)
        # repair empty clusters before accepting the assignment; a reseed can
        # empty a cluster already passed, so passes repeat, at most k of them
        counts = np.bincount(new_labels, minlength=k)
        for _ in range(k):
            if counts.all():
                break
            for cid in range(k):
                if counts[cid] == 0:
                    centers[cid] = A[int(np.argmax(assigned))]
                    new_labels, assigned = _assign(A, centers)
                    counts = np.bincount(new_labels, minlength=k)
        history.append(float(assigned.sum()))
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for cid in np.flatnonzero(counts):  # a center left without rows stays put
            centers[cid] = A[labels == cid].mean(axis=0)

    labels, assigned = _assign(A, centers)
    return KMeansResult(centers=centers, labels=labels, iterations=it,
                        inertia=float(assigned.sum()), inertia_history=np.array(history))


def kmeanspp_init(A, k: int, seed: int = 0) -> np.ndarray:
    """D^2 seeding: each next center drawn proportionally to the squared
    distance from the nearest already-chosen center."""
    from scipy.spatial.distance import cdist

    A = check_data(A)
    m = A.shape[0]
    if not (1 <= k <= m):
        raise ValueError(f"k must be in [1, m={m}], got {k}")
    gen = rng(seed)
    chosen = [int(gen.integers(m))]
    d2min = cdist(A, A[chosen[-1]][None, :], metric="sqeuclidean").ravel()
    while len(chosen) < k:
        total = d2min.sum()
        if total > 0:
            probs = d2min / total
            nxt = int(gen.choice(m, p=probs))
        else:
            # all remaining points coincide with chosen centers
            remaining = np.setdiff1d(np.arange(m), np.array(chosen))
            nxt = int(gen.choice(remaining))
        chosen.append(nxt)
        d2min = np.minimum(d2min, cdist(A, A[nxt][None, :], metric="sqeuclidean").ravel())
    return A[np.array(chosen)].copy()


def hierarchical(A, k: int, linkage: str = "single") -> Assignment:
    """Agglomerative clustering down to k clusters.

    ``single`` merges by minimum cross distance, ``average`` by the
    unweighted mean of all cross pairwise distances.  Among equally close
    cluster pairs the one with lexicographically smallest (i, j) wins, where
    a cluster is identified by its smallest original row index.
    """
    from scipy.spatial.distance import pdist, squareform

    A = check_data(A)
    m = A.shape[0]
    if not (1 <= k <= m):
        raise ValueError(f"k must be in [1, m={m}], got {k}")
    if linkage not in ("single", "average"):
        raise ValueError(f"linkage must be 'single' or 'average', got {linkage!r}")

    D = squareform(pdist(A))
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(m)
    member_of = np.arange(m)  # slot id = smallest member, merged slots die
    for _ in range(m - k):
        # row-major argmin of the symmetric matrix: the lexicographically
        # smallest (a, b), with a < b
        a, b = divmod(int(np.argmin(D)), m)
        if linkage == "single":
            merged = np.minimum(D[a], D[b])
        else:
            merged = (sizes[a] * D[a] + sizes[b] * D[b]) / (sizes[a] + sizes[b])
        D[a] = D[:, a] = merged
        D[a, a] = np.inf
        D[b] = D[:, b] = np.inf
        sizes[a] += sizes[b]
        member_of[member_of == b] = a

    return canonical_labels(member_of)
