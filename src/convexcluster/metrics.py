"""Partition agreement and geometric cluster statistics.

Cluster geometry (diameters and the smallest cross-cluster distances) is
measured in numpy with :func:`core.pair_sqdist`, whose squared distances
equal ``pdist``/``cdist``'s bit for bit; a square root commutes with max and
min, so the results equal ``pdist(G).max()`` and ``cdist(G, H).min()``.
Only the pairs that a screen cannot rule out are measured.

With few rows for the columns (m^2 <= 4096 n, and m <= 1024) the screen is
the Gram matrix of the centered rows: one matrix product gives every squared
distance to within a rounding bound, and a pair is kept unless its bound
puts it beyond its block's extreme.  Otherwise it is the triangle inequality
around each cluster's mean c, which needs no m x m array:

- Diameter.  L is the largest distance from the row farthest from c; since
  ||x - y|| <= ||x - c|| + max ||z - c||, only rows with
  ||x - c|| >= L - max ||z - c|| can be in a longer pair.
- Smallest cross distance of clusters P and Q.  U is the smallest distance
  from the row of P nearest to c_Q to all of Q (and the other way round);
  since ||p - q|| >= ||p - c_Q|| - max ||q - c_Q||, only rows of P with
  ||p - c_Q|| - max ||q - c_Q|| <= U can be in a shorter pair, and
  symmetrically for Q.

Every screen is widened by a relative margin of (n + 8) * 2^-44 of the sizes
it compares, over 500 times the rounding error of a computed distance or dot
product in n columns, plus 1e-150 for values below the normal range; a
non-finite bound keeps every row.  So a pair left out is farther from the
extreme than rounding can bridge, and the result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_labels, check_data, pair_sqdist

# Rows squared per column up to which the Gram screen is used: beyond it its
# m x m arrays cost more than the triangle cut's O(m K n) probes and kept pairs.
_GRAM_SIZE = 1 << 12
# Values one array of the geometry holds at most: the coordinates (pairs x
# columns) of a pair_sqdist call, which overlapping clusters can make every
# pair's, and the entries of the Gram screen's m x m arrays.
_BLOCK = 1 << 20


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
    """Minimum cross-cluster distances and cluster diameters (see the module
    docstring for how the pairs are chosen)."""
    A = check_data(A)
    labels = _check_labels(labels, A.shape[0])
    ranks = np.unique(labels, return_inverse=True)[1]
    K = int(ranks.max()) + 1
    m, n = A.shape
    order = np.argsort(ranks, kind="stable")
    starts = np.searchsorted(ranks[order], np.arange(K))
    screen = _gram_pairs if m * m <= min(_GRAM_SIZE * n, _BLOCK) else _cut_pairs
    pairs = screen(A, ranks, order, starts)
    d2 = _sqdist(A, pairs)
    block = ranks[pairs[:, 0]] * K + ranks[pairs[:, 1]]
    far2, near2 = np.zeros(K * K), np.full(K * K, np.inf)
    np.maximum.at(far2, block, d2)
    np.minimum.at(near2, block, d2)
    near2 = near2.reshape(K, K)
    dist = np.sqrt(np.minimum(near2, near2.T))
    np.fill_diagonal(dist, 0.0)
    diam = np.sqrt(far2[::K + 1])
    min_dist = float(dist[np.triu_indices(K, k=1)].min()) if K >= 2 else np.inf
    return SeparationStats(pairwise_dist=dist, diameters=diam,
                           min_dist=min_dist, max_dia=float(diam.max()))


def _sqdist(A, pairs) -> np.ndarray:
    """:func:`core.pair_sqdist` of ``pairs``, ``_BLOCK`` coordinates at a time."""
    step = max(1, _BLOCK // A.shape[1])
    return np.concatenate([pair_sqdist(A, pairs[s:s + step])
                           for s in range(0, max(len(pairs), 1), step)])


def _product(p, q) -> np.ndarray:
    """The pairs (p[a], q[b]) for every a and b, a major."""
    return np.column_stack([np.repeat(p, q.size), np.tile(q, p.size)])


def _slack(scale, n: int):
    """How far a screen that compares values of size ``scale`` is widened."""
    return scale * ((n + 8) * 2.0 ** -44) + 1e-150


def _gram_pairs(A, ranks, order, starts) -> np.ndarray:
    """(i, j), i != j, for every pair whose squared distance, bounded through
    the Gram matrix, can reach its block's maximum (same cluster) or minimum
    (two clusters)."""
    X = A[order]
    X -= X.mean(axis=0)
    sq = np.einsum("ij,ij->i", X, X)
    size = sq[:, None] + sq
    approx = size - 2.0 * (X @ X.T)
    err = _slack(size, A.shape[1])
    lo, hi = approx - err, approx + err
    best_lo = np.maximum.reduceat(np.maximum.reduceat(lo, starts), starts, axis=1)
    best_hi = np.minimum.reduceat(np.minimum.reduceat(hi, starts), starts, axis=1)
    r = ranks[order]
    keep = np.where(r[:, None] == r, ~(hi < best_lo[r][:, r]), ~(lo > best_hi[r][:, r]))
    i, j = np.nonzero(np.triu(keep, 1))
    return np.column_stack([order[i], order[j]])


def _cut_pairs(A, ranks, order, starts) -> np.ndarray:
    """(i, j) pairs that hold every cluster's diameter and every cluster
    pair's smallest cross distance: the probes that set the cuts' bounds L
    and U, and the pairs among the rows that the cuts keep."""
    m, n = A.shape
    K = starts.size
    members = np.split(order, starts[1:])
    centers = np.add.reduceat(A[order], starts) / np.diff(np.r_[starts, m])[:, None]
    R = np.empty((m, K))  # R[i, k]: row i's distance to cluster k's mean
    for k, c in enumerate(centers):
        D = A - c
        R[:, k] = np.sqrt(np.einsum("ij,ij->i", D, D))
    own = R[np.arange(m), ranks]
    reach = np.maximum.reduceat(own[order], starts)

    # probes: each cluster's row farthest from its mean to all its rows (L),
    # and each cluster's row nearest to another's mean to all of that one's (U)
    far = np.array([g[np.argmax(own[g])] for g in members])
    near = np.array([g[np.argmin(R[g], axis=0)] for g in members])  # near[k, l]
    k_of, j = np.nonzero(np.arange(K)[:, None] != ranks)
    probes = np.column_stack([np.r_[far[ranks], near[k_of, ranks[j]]], np.r_[np.arange(m), j]])
    d = np.sqrt(_sqdist(A, probes))
    L = np.maximum.reduceat(d[:m][order], starts)
    U = np.full(K * K, np.inf)
    np.minimum.at(U, k_of * K + ranks[j], d[m:])
    U = np.minimum(U.reshape(K, K), U.reshape(K, K).T)

    # what the cuts keep; a non-finite bound makes a comparison false and keeps the row
    in_diameter = ~(own < (L - reach - _slack(L + reach, n))[ranks])
    gap = R - reach - U[ranks]  # lower bound of row i's distance to cluster l, less U
    in_cross = ~(gap > _slack(R + reach + U[ranks], n))
    blocks = [probes]
    for k, g in enumerate(members):
        blocks.append(_product(g[in_diameter[g]], g[in_diameter[g]]))
        blocks += [_product(g[in_cross[g, l]], h[in_cross[h, k]])
                   for l, h in enumerate(members) if l > k]
    return np.concatenate(blocks)


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
    from scipy.spatial.distance import pdist

    X = check_data(X)
    truth = _check_labels(truth, X.shape[0])
    d = pdist(X)
    ii, jj = np.triu_indices(X.shape[0], k=1)
    same = truth[ii] == truth[jj]  # condensed order matches pdist
    bad = np.nonzero(np.where(same, d > merge_tol, d <= merge_tol))[0]
    if bad.size == 0:
        return ExactClusteringResult(ok=True, violation=None)
    return ExactClusteringResult(ok=False, violation=(int(ii[bad[0]]), int(jj[bad[0]])))
