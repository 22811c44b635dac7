"""Turn a centroid matrix into a partition; sweep c for a regularization path."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (_TREE_MARGIN, _ball_pairs, _check_number, _components, check_data,
                   first_occurrence_ranks, pair_sqdist)
from .solver import SolverConfig, SolverState, admm_solve
from .weights import EdgeSet


@dataclass(frozen=True)
class Assignment:
    """Cluster labels in canonical form: ids 0..k-1 ordered by first occurrence."""

    labels: np.ndarray
    k: int


def canonical_labels(raw) -> Assignment:
    """Relabel arbitrary cluster ids to 0..k-1 by first occurrence."""
    labels = first_occurrence_ranks(raw)
    return Assignment(labels=labels, k=int(labels.max()) + 1)


# Nearest neighbours each row is linked to directly.  Rows of a fused cluster
# beyond them are reached by joining the linked components, so no pass lists
# the O(s^2) pairs inside a cluster of s rows.
_NEIGHBOURS = 8
# The tree compares squared distances with the squared bound, and tol**2
# underflows below about 1.5e-154; this floor keeps the bound a normal float.
_MIN_REACH = 1e-150
# Most geometric bisection steps ``find_c_for_k`` takes before giving up.
_MAX_BISECT = 40


def _dist(X, rows, cols) -> np.ndarray:
    """The ``pdist`` distance between rows ``rows[i]`` and ``cols[i]`` of X."""
    return np.sqrt(pair_sqdist(X, np.column_stack([rows, cols])))


def _distinct_rows(X) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct rows of X in lexicographic order, each row's position
    among them).  Rows equal under ``==`` count as one, so rows that differ
    only by the sign of a zero do too; ``pdist`` puts them at distance 0."""
    order = np.lexsort(X.T)
    rows = np.take(X, order, axis=0)
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    position = np.empty(rows.shape[0], dtype=np.intp)
    position[order] = np.cumsum(new) - 1
    return rows[new], position


def _touches(X, small, big, big_tree, merge_tol, reach) -> bool:
    """Whether a row of ``small`` is within ``merge_tol`` of a row of ``big``.

    The tree's nearest row decides almost every case.  Only where it lies
    inside the reach but fails the exact test can rounding hide a closer
    row, so those rows check everything within the reach.
    """
    _, j = big_tree.query(X[small], distance_upper_bound=reach)
    found = j < big.size
    rows = small[found]
    if np.any(_dist(X, rows, big[j[found]]) <= merge_tol):
        return True
    i, j = _ball_pairs(big_tree, X[rows], reach)
    return bool(np.any(_dist(X, rows[i], big[j]) <= merge_tol))


def extract_clusters(X, merge_tol: float = 1e-8) -> Assignment:
    """Connected components of the graph joining rows at distance <= ``merge_tol``.

    The boundary is inclusive, and merging is transitive, so chains of
    borderline rows collapse into one cluster.  ``merge_tol=0`` groups only
    exactly equal rows.  Distances are the values ``pdist(X)`` gives; the k-d
    tree only proposes candidates, with a relative 1e-9 margin for its own
    rounding.

    Exactly equal rows are at distance 0, inside every ``merge_tol``, so the
    search runs on the d distinct rows of X (a lexicographic sort of the m
    rows finds them) and its labels are mapped back to the rows.  A solve
    that contracted its rows hands over few distinct rows: 3 of 30 on most
    of the paper's 30 x 100 Gaussians at the theory's c.

    Cost: O(d K log d) time to link each distinct row to its K = 8 nearest
    rows within ``merge_tol``.  Only rows with all K links can have a partner
    beyond them; the linked components holding such rows are bounded by
    balls, and each pair of balls that comes within ``merge_tol`` costs one
    distance, or one nearest-row query sized by the smaller component.
    Memory is O(m + d K): the pairs inside a fused cluster are never listed,
    so 3 fused clusters of 1000 rows cost about as much as 3000 separate rows.
    """
    X = check_data(X)
    _check_number("merge_tol", merge_tol, 0)
    X, position = _distinct_rows(X)
    return canonical_labels(_linked_components(X, merge_tol)[position])


def _linked_components(X, merge_tol: float) -> np.ndarray:
    """Component ids of the rows of X under the ``merge_tol`` threshold
    graph (see :func:`extract_clusters`)."""
    from scipy.spatial import cKDTree

    m = X.shape[0]
    reach = max(_MIN_REACH, merge_tol * (1.0 + _TREE_MARGIN))

    # 1. link each row to its nearest rows within merge_tol.  A row with a
    # free slot left has every row within the reach listed, so an unlisted
    # pair within merge_tol joins two crowded rows.
    _, nbr = cKDTree(X).query(X, k=np.arange(1, _NEIGHBOURS + 2), distance_upper_bound=reach)
    rows = np.repeat(np.arange(m), nbr.shape[1])
    cols = nbr.ravel()
    keep = (cols < m) & (cols != rows)
    rows, cols = rows[keep], cols[keep]
    keep = _dist(X, rows, cols) <= merge_tol
    comp = _components(rows[keep], cols[keep], m)
    crowded = np.flatnonzero(nbr[:, -1] < m)
    if crowded.size == 0:
        return comp

    # 2. bound the crowded rows of each component by a ball around the first
    order = crowded[np.argsort(comp[crowded], kind="stable")]
    group, starts, sizes = np.unique(comp[order], return_index=True, return_counts=True)
    rep = order[starts]
    radius = np.maximum.reduceat(_dist(X, np.repeat(rep, sizes), order), starts)
    # a pair of groups is listed from the one with the larger radius
    a, b = _ball_pairs(cKDTree(X[rep]), X[rep], 2.0 * radius + reach)
    keep = (radius[b] < radius[a]) | ((radius[b] == radius[a]) & (b < a))
    a, b = a[keep], b[keep]
    gap = _dist(X, rep[a], rep[b])
    keep = gap <= (radius[a] + radius[b]) * (1.0 + _TREE_MARGIN) + reach
    a, b, gap = a[keep], b[keep], gap[keep]

    # 3. join the pairs whose first rows are within merge_tol, and decide the
    # rest from nearest rows
    joined = gap <= merge_tol
    members = np.split(order, starts[1:])
    trees: dict[int, cKDTree] = {}
    for i in np.flatnonzero(~joined):
        p, q = (a[i], b[i]) if sizes[a[i]] <= sizes[b[i]] else (b[i], a[i])
        if q not in trees:
            trees[q] = cKDTree(X[members[q]])
        joined[i] = _touches(X, members[p], members[q], trees[q], merge_tol, reach)
    a, b = group[a[joined]], group[b[joined]]
    return _components(a, b, comp.max() + 1)[comp]


@dataclass(frozen=True)
class PathPoint:
    c: float
    assignment: Assignment
    n_clusters: int
    iters: int
    converged: bool
    final_change: float


@dataclass(frozen=True)
class PathResult:
    points: tuple[PathPoint, ...]

    @property
    def cluster_counts(self) -> np.ndarray:
        return np.array([p.n_clusters for p in self.points])

    @property
    def counts_non_increasing(self) -> bool:
        """Cited path behavior; violations are worth reporting, not fatal."""
        return bool(np.all(np.diff(self.cluster_counts) <= 0))


def _merge_threshold(tol: float, merge_tol: float | None) -> float:
    """``merge_tol``, or 10 * tol when None: a solve stopped at tolerance t
    leaves fused rows about t apart, so the extraction threshold must sit
    above it."""
    return 10.0 * tol if merge_tol is None else merge_tol


def _solve_point(A, edges: EdgeSet, cfg: SolverConfig, c: float, merge_tol: float | None,
                 init: SolverState | None = None) -> tuple[PathPoint, SolverState]:
    """Solve at ``c`` and extract its partition at
    ``_merge_threshold(cfg.tol, merge_tol)``."""
    state = admm_solve(A, edges, replace(cfg, c=c), init=init)
    assign = extract_clusters(state.X, _merge_threshold(cfg.tol, merge_tol))
    return PathPoint(c=c, assignment=assign, n_clusters=assign.k, iters=state.iters,
                     converged=state.converged, final_change=state.final_change), state


def _check_grid(c_grid) -> np.ndarray:
    c_grid = np.asarray(c_grid, dtype=float)
    if c_grid.ndim != 1 or c_grid.size == 0:
        raise ValueError("c grid must be a non-empty 1-d sequence")
    if np.any(c_grid < 0):
        raise ValueError("c grid values must be >= 0")
    if not np.all(c_grid < np.inf):  # NaN and +inf; -inf fails the bound above
        raise ValueError(f"c grid values must be finite, got {c_grid.tolist()}")
    if c_grid.size > 1 and np.any(np.diff(c_grid) <= 0):
        raise ValueError("c grid must be strictly ascending")
    return c_grid


def regularization_path(A, edges: EdgeSet, c_grid, cfg: SolverConfig,
                        merge_tol: float | None = None,
                        warm_start: bool = True) -> PathResult:
    """Solve along an ascending c grid, warm-starting each point from the last.

    All of X, Z, Lam are carried between grid points.  A warm-started solve
    stops only once the primal residual is also within ``cfg.tol`` (see
    :func:`admm_solve`), so it does not stop on its start, but it stops at a
    different iterate than a cold solve; ``warm_start=False`` gives the cold
    solves.  ``merge_tol`` defaults to 10 * cfg.tol (see :func:`_solve_point`).
    """
    points = []
    state: SolverState | None = None
    for c in _check_grid(c_grid):
        point, state = _solve_point(A, edges, cfg, float(c), merge_tol,
                                    init=state if warm_start else None)
        points.append(point)
    return PathResult(points=tuple(points))


def find_c_for_k(A, edges: EdgeSet, k: int, cfg: SolverConfig, c_grid,
                 merge_tol: float | None = None) -> PathPoint | None:
    """Locate a grid (or bisected) c whose extracted partition has k clusters.

    Solves the grid points of ``c_grid`` in order and returns the first with
    exactly k clusters.  When no grid point has k clusters, the whole grid
    is solved, and where the counts step over k (from above k to below
    between neighbors) c is refined by geometric bisection.  All solves are
    cold-started, so a probe's count does not depend on the points solved
    before it.  Returns None when no such c is found, e.g. when two fusion
    events coincide.
    """
    c_grid = _check_grid(c_grid)
    counts = np.empty(c_grid.size, dtype=int)
    for i, c in enumerate(c_grid):
        point, _ = _solve_point(A, edges, cfg, float(c), merge_tol)
        if point.n_clusters == k:
            return point
        counts[i] = point.n_clusters

    above = np.nonzero(counts > k)[0]
    below = np.nonzero(counts < k)[0]
    if above.size == 0 or below.size == 0 or below.min() < above.max():
        return None
    lo = float(c_grid[above.max()])
    hi = float(c_grid[below.min()])
    if lo <= 0:
        lo = hi * 1e-9
    for _ in range(_MAX_BISECT):
        mid = float(np.sqrt(lo * hi))
        point, _ = _solve_point(A, edges, cfg, mid, merge_tol)
        if point.n_clusters == k:
            return point
        if point.n_clusters > k:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return None
