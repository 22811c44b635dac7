"""Gaussian-kernel pair weights on the full or k-nearest-neighbor graph."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _ball_pairs, _check_number, all_pairs, check_data, pair_sqdist


@dataclass
class EdgeSet:
    """Sparse undirected edge list over m nodes.

    ``pairs`` is (E, 2) with i < j sorted lexicographically, ``weights`` the
    matching positive weights.  Zero-weight pairs are never stored: they do
    not contribute to the penalty.
    """

    m: int
    pairs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.pairs.shape[0] != self.weights.shape[0]:
            raise ValueError("pairs and weights length mismatch")
        if self.pairs.size:
            i, j = self.pairs[:, 0], self.pairs[:, 1]
            if np.any(i < 0) or np.any(j >= self.m) or np.any(i >= j):
                raise ValueError("edges must satisfy 0 <= i < j < m")
            key = i * self.m + j
            if np.any(np.diff(key) <= 0):  # sorting sorted input costs more than this test
                order = np.lexsort((j, i))
                self.pairs, self.weights, key = self.pairs[order], self.weights[order], key[order]
                if np.any(np.diff(key) == 0):
                    raise ValueError("duplicate edges")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        keep = self.weights > 0
        if not np.all(keep):
            self.pairs = self.pairs[keep]
            self.weights = self.weights[keep]

    @property
    def n_edges(self) -> int:
        return int(self.pairs.shape[0])


def gaussian_weights(A, r: float) -> np.ndarray:
    """Kernel weight exp(-r * ||A_i - A_j||^2) for every pair.

    Returns a condensed vector of length C(m,2) in lexicographic pair order
    (the row order of the difference operator).  Values lie in (0, 1]; they
    may underflow to exactly 0.0 for very large ``r * dist^2``.
    """
    from scipy.spatial.distance import pdist

    A = check_data(A)
    _check_number("kernel bandwidth r", r, 0)
    d2 = pdist(A, metric="sqeuclidean")
    return np.exp(-r * d2)


def _knn_pairs(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Undirected (i, j), i < j, pairs where one row is among the other's k
    nearest, and their squared distances d^2.

    Neighbors are ranked by exact d^2 (:func:`pair_sqdist`, the values
    ``pdist`` gives, bitwise equal for (i, j) and (j, i)), then by ascending
    index.  The k-d tree supplies each row's (k+1)-th nearest distance; every
    row within it, widened for the tree's rounding (``core._ball_pairs``), is
    a candidate, so a row with ties at that distance is ranked exactly
    against all of them.
    """
    from scipy.spatial import cKDTree

    m = A.shape[0]
    if not (1 <= k <= m - 1):
        raise ValueError(f"knn must be in [1, m-1] or 'full', got {k}")
    tree = cKDTree(A)
    rows, cols = _ball_pairs(tree, A, tree.query(A, k + 1)[0][:, -1])
    off_diag = rows != cols
    rows, cols = rows[off_diag], cols[off_diag]
    d2 = pair_sqdist(A, np.column_stack([rows, cols]))
    order = np.lexsort((cols, d2, rows))
    rows, cols, d2 = rows[order], cols[order], d2[order]
    keep = np.arange(rows.size) - np.searchsorted(rows, rows) < k
    rows, cols, d2 = rows[keep], cols[keep], d2[keep]
    key, first = np.unique(np.minimum(rows, cols) * m + np.maximum(rows, cols), return_index=True)
    return np.column_stack([key // m, key % m]), d2[first]


def gaussian_edges(A, r: float, knn: int | str = 5) -> EdgeSet:
    """Gaussian weights exp(-r * ||A_i - A_j||^2) on the k-NN graph.

    Keeps the edge (i, j) iff one endpoint is among the other's ``knn``
    nearest; the union rule (rather than intersection) keeps the graph
    connected more often at small k.  For an integer ``knn`` the graph is
    built from a k-d tree in O(m k log m) and weights are evaluated on its
    edges only; they equal the matching entries of :func:`gaussian_weights`
    bit for bit.  ``knn="full"`` keeps all C(m,2) pairs and costs O(m^2).
    """
    A = check_data(A)
    _check_number("kernel bandwidth r", r, 0)
    if knn == "full":
        return EdgeSet(m=A.shape[0], pairs=all_pairs(A.shape[0]), weights=gaussian_weights(A, r))
    pairs, d2 = _knn_pairs(A, int(knn))
    return EdgeSet(m=A.shape[0], pairs=pairs, weights=np.exp(-r * d2))
