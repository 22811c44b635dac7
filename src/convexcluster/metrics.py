"""Partition agreement and geometric cluster statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import _check_labels, check_data


def rand_index(a, b) -> float:
    """Fraction of point pairs on which two partitions agree.

    A pair agrees when both partitions co-cluster it or both separate it.
    Computed from the contingency table; identical to the brute-force pair
    count.
    """
    a = _check_labels(a)
    b = _check_labels(b, a.size)
    m = a.size
    if m < 2:
        raise ValueError("rand index needs at least 2 observations")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    table = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def pairs2(x):
        return int((x * (x - 1) // 2).sum())

    total = m * (m - 1) // 2
    both_same = pairs2(table)
    same_a = pairs2(table.sum(axis=1))
    same_b = pairs2(table.sum(axis=0))
    agreements = total - same_a - same_b + 2 * both_same
    return agreements / total


@dataclass(frozen=True)
class SeparationStats:
    """Between-cluster minimum distances and within-cluster diameters.

    ``pairwise_dist`` is K x K symmetric with a zero diagonal by convention;
    a singleton's diameter is 0 (max over an empty pair set).
    """

    pairwise_dist: np.ndarray
    diameters: np.ndarray
    min_dist: float
    max_dia: float


def cluster_geometry(A, labels) -> SeparationStats:
    """Minimum cross-cluster distances and cluster diameters."""
    A = check_data(A)
    labels = _check_labels(labels, A.shape[0])
    values = np.unique(labels)
    K = values.size
    groups = [A[labels == v] for v in values]

    diam = np.zeros(K)
    for k, G in enumerate(groups):
        if G.shape[0] >= 2:
            diam[k] = float(pdist(G).max())

    dist = np.zeros((K, K))
    for i in range(K):
        for j in range(i + 1, K):
            d = float(cdist(groups[i], groups[j]).min())
            dist[i, j] = dist[j, i] = d

    min_dist = float(dist[np.triu_indices(K, k=1)].min()) if K >= 2 else np.inf
    return SeparationStats(pairwise_dist=dist, diameters=diam,
                           min_dist=min_dist, max_dia=float(diam.max()))


@dataclass(frozen=True)
class ExactClusteringResult:
    ok: bool
    violation: tuple[int, int] | None


def exact_clustering_check(X, truth, merge_tol: float = 1e-8) -> ExactClusteringResult:
    """Whether X's rows coincide exactly within true clusters and differ across.

    Rows in the same true cluster must sit within ``merge_tol`` of each other
    and rows in different clusters strictly farther apart.  The first
    violating pair (lexicographic) is reported.
    """
    X = check_data(X)
    truth = _check_labels(truth, X.shape[0])
    d = pdist(X)
    ii, jj = np.triu_indices(X.shape[0], k=1)
    same = truth[ii] == truth[jj]  # condensed order matches pdist
    bad = np.nonzero(np.where(same, d > merge_tol, d <= merge_tol))[0]
    if bad.size == 0:
        return ExactClusteringResult(ok=True, violation=None)
    return ExactClusteringResult(ok=False, violation=(int(ii[bad[0]]), int(jj[bad[0]])))
