"""Shared data model: column centering, the complete-graph difference operator,
linearized pair-index bookkeeping, and the k-d tree candidate rule that the
k-NN graph and cluster extraction share.

Conventions
-----------
Data matrices are m x n numpy arrays; rows are observations.  Row indices are
0-based everywhere inside the package.  The linearized pair index ``p`` follows
the mathematical convention and is 1-based: pairs (i, j), i < j, are
enumerated lexicographically, which is exactly the row order of the
difference operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

RNG_ALGORITHM = "philox4x64"


def rng(seed: int) -> np.random.Generator:
    """Counter-based seeded generator (Philox); reproducible across platforms."""
    return np.random.Generator(np.random.Philox(seed))


def check_data(A) -> np.ndarray:
    """Validate an observation matrix and return it as a float array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"data matrix must be 2-dimensional, got shape {A.shape}")
    m, n = A.shape
    if m < 1 or n < 1:
        raise ValueError(f"data matrix must have at least one row and one column, got {m}x{n}")
    if not np.all(np.isfinite(A)):
        raise ValueError("data matrix contains non-finite entries")
    return A


def _check_number(name: str, value, bound, strict: bool = False):
    """``value`` if it is a finite number >= ``bound`` (> if ``strict``), else ValueError."""
    if value < bound or (strict and value == bound):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {bound}, got {value}")
    if not value < math.inf:  # NaN and +inf; -inf fails the bound above
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _check_covariance(S) -> tuple[np.ndarray, np.ndarray]:
    """Check that a covariance is symmetric and positive semidefinite (up to
    rounding); return its eigendecomposition (eigenvalues, eigenvectors)."""
    S = np.asarray(S, dtype=float)
    if not np.allclose(S, S.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    w, V = np.linalg.eigh(S)
    if w.min() < -1e-10 * max(1.0, abs(w.max())):
        raise ValueError("covariance must be positive semidefinite")
    return w, V


def _check_labels(labels, m: int | None = None) -> np.ndarray:
    """Validate a label vector (of length ``m`` when given) and return it as an array."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-d sequence")
    if m is not None and labels.size != m:
        raise ValueError(f"expected {m} labels, got {labels.size}")
    return labels


def center_columns(A) -> np.ndarray:
    """Subtract the per-column mean from every row.

    The clustering model is invariant under this transform: the minimizer of
    the penalized objective on the centered data is the minimizer on the raw
    data shifted by the column means, so cluster memberships are unchanged.
    """
    A = check_data(A)
    return A - A.mean(axis=0)


def _incidence_transpose(pairs: np.ndarray, m: int) -> sp.csr_matrix:
    """E^T as CSR, E the signed incidence over m nodes (row l is e_i - e_j for
    pairs[l] = (i, j)): row i lists the edges at node i in ascending order,
    +1 where i is the edge's first node and -1 where it is its second."""
    ends = pairs.ravel()  # edge l's nodes sit at 2l and 2l + 1
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=m), out=indptr[1:])
    return sp.csr_matrix((1.0 - 2.0 * (order & 1), order >> 1, indptr), shape=(m, len(pairs)))


def difference_operator(m: int) -> sp.csr_matrix:
    """Sparse C(m,2) x m operator mapping X to all row differences X_i - X_j.

    Row p (0-based) corresponds to the p-th lexicographic pair (i, j), i < j,
    and equals e_i - e_j.  Two nonzeros per row; never densify for large m.
    """
    if m < 2:
        raise ValueError(f"difference operator needs m >= 2, got {m}")
    return _incidence_transpose(all_pairs(m), m).T.tocsr()


def all_pairs(m: int) -> np.ndarray:
    """(C(m,2), 2) array of 0-based pairs (i, j), i < j, lexicographic."""
    ii, jj = np.triu_indices(m, k=1)
    return np.column_stack([ii, jj]).astype(np.int64)


def pair_sqdist(A: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Squared distance ||A_i - A_j||^2 for each row (i, j) of ``pairs``.

    Columns are summed in order, as ``pdist(A, "sqeuclidean")`` does, so the
    values match it bit for bit; ``np.sum(d**2, axis=1)`` sums pairwise and
    differs in the last bit once there are 8 or more columns.
    """
    # d is C-ordered (n, P), so reducing its outer axis adds the columns one
    # after another; the second gather is indexed in place, which unlike
    # take needs no contiguous copy of the strided index column
    d = np.take(A.T, pairs[:, 0], axis=1)
    d -= A.T[:, pairs[:, 1]]
    d *= d
    return np.add.reduce(d, axis=0)


_TREE_MARGIN = 1e-9  # relative widening of a k-d tree search for the tree's rounding


def _ball_pairs(tree, points, r) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for every row j of the k-d tree ``tree`` within ``r`` of
    ``points[i]``, r widened by ``_TREE_MARGIN``: candidates for exact
    distances to confirm.  i ascends; the j of one i come in no set order."""
    near = tree.query_ball_point(points, r * (1.0 + _TREE_MARGIN), return_sorted=False)
    lengths = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
    return (np.repeat(np.arange(len(near)), lengths),
            np.fromiter(chain.from_iterable(near), dtype=np.intp, count=lengths.sum()))


def _components(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """Connected components of the undirected graph on ``size`` nodes with
    edges (rows[l], cols[l]); ``rows`` must ascend.  Component ids follow the
    order of each component's lowest node."""
    if len(rows) == 0:
        return np.arange(size)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    graph = sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(size, size))
    return connected_components(graph, directed=False)[1]


def pair_row_index(i: int, j: int, m: int) -> int:
    """1-based linear index of the 1-based pair (i, j), i < j <= m."""
    if not (1 <= i < j <= m):
        raise ValueError(f"need 1 <= i < j <= m, got i={i}, j={j}, m={m}")
    return (i - 1) * (2 * m - i) // 2 + (j - i)


def pair_from_row_index(p: int, m: int) -> tuple[int, int]:
    """Inverse of :func:`pair_row_index` (1-based on both sides)."""
    total = m * (m - 1) // 2
    if not (1 <= p <= total):
        raise ValueError(f"need 1 <= p <= m(m-1)/2 = {total}, got p={p}, m={m}")
    # solve q = i(2m - i - 1)/2 + (j - i - 1), 0-based, for i; isqrt floors,
    # so the estimate is never too small, only too large
    q = p - 1
    disc = (2 * m - 1) ** 2 - 8 * q
    i = (2 * m - 1 - math.isqrt(disc)) // 2
    while i * (2 * m - i - 1) // 2 > q:
        i -= 1
    return i + 1, q - i * (2 * m - i - 1) // 2 + i + 2


def first_occurrence_ranks(labels) -> np.ndarray:
    """Relabel arbitrary cluster ids to 0..K-1, numbered by first occurrence."""
    labels = _check_labels(labels)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


@dataclass(frozen=True)
class IndexSets:
    """Partition of the C(m,2) linearized pair indices by cluster membership.

    ``within``/``between`` hold 1-based indices (the math convention);
    ``*_rows`` helpers return sorted 0-based arrays for addressing the rows of
    ``difference_operator(m) @ X``.
    """

    m: int
    sizes: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]
    within: frozenset[int]
    between: frozenset[int]
    between_by_pair: dict[tuple[int, int], frozenset[int]] = field(repr=False)

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)

    def within_rows(self) -> np.ndarray:
        return np.array(sorted(self.within), dtype=np.int64) - 1

    def between_rows(self) -> np.ndarray:
        return np.array(sorted(self.between), dtype=np.int64) - 1

    def pair_rows(self, k: int, l: int) -> np.ndarray:
        return np.array(sorted(self.between_by_pair[(k, l)]), dtype=np.int64) - 1


def index_sets(labels) -> IndexSets:
    """Build the within/between pair-index sets for contiguous cluster labels.

    Raises if any cluster occupies a non-contiguous index block; callers
    permute rows first, e.g. by a stable argsort of
    :func:`first_occurrence_ranks`.
    """
    labels = _check_labels(labels)
    m = labels.size
    boundaries = np.nonzero(labels[1:] != labels[:-1])[0] + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [m]])
    block_labels = labels[starts]
    if len(set(block_labels.tolist())) != len(block_labels):
        raise ValueError("labels are not contiguous: a cluster id appears in disjoint blocks")

    sizes = tuple(int(b - a) for a, b in zip(starts, stops))
    blocks = tuple((int(a), int(b)) for a, b in zip(starts, stops))
    K = len(sizes)

    block = np.repeat(np.arange(K), sizes)
    pairs = all_pairs(m)
    bi, bj = block[pairs[:, 0]], block[pairs[:, 1]]
    p = np.arange(1, pairs.shape[0] + 1)
    return IndexSets(
        m=m,
        sizes=sizes,
        blocks=blocks,
        within=frozenset(p[bi == bj].tolist()),
        between=frozenset(p[bi != bj].tolist()),
        between_by_pair={(k, l): frozenset(p[(bi == k) & (bj == l)].tolist())
                         for k in range(K) for l in range(k + 1, K)},
    )
