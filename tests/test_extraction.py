import numpy as np
import pytest

from convexcluster import extraction
from convexcluster.extraction import (
    canonical_labels,
    extract_clusters,
    find_c_for_k,
    regularization_path,
)
from convexcluster.solver import HALF, SolverConfig, admm_solve, objective
from convexcluster.weights import EdgeSet, gaussian_edges


def test_extract_clusters_examples():
    X = np.array([[0.0, 0.0], [1e-12, 0.0], [5.0, 5.0]])
    assert extract_clusters(X).labels.tolist() == [0, 0, 1]

    X = np.tile([[2.0, 3.0]], (4, 1))
    out = extract_clusters(X)
    assert out.k == 1

    # chain a-b-c at consecutive distance = merge_tol merges transitively
    tol = 1e-3
    X = np.array([[0.0], [tol], [2 * tol]])
    assert extract_clusters(X, merge_tol=tol).k == 1


def test_extract_clusters_zero_tol_groups_exact_duplicates():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0 + 2.0 ** -40]])
    out = extract_clusters(X, merge_tol=0.0)
    assert out.labels.tolist() == [0, 0, 1]


def test_extract_clusters_permutation_invariant_up_to_relabel():
    gen = np.random.default_rng(0)
    X = np.repeat(gen.normal(size=(3, 2)), (2, 3, 1), axis=0)
    base = extract_clusters(X)
    perm = gen.permutation(6)
    permuted = extract_clusters(X[perm])
    # same partition: co-membership matrices agree
    def comat(labels):
        return labels[:, None] == labels[None, :]
    assert np.array_equal(comat(permuted.labels), comat(base.labels[perm]))


def test_canonical_labels():
    out = canonical_labels(["b", "a", "b", "c"])
    assert out.labels.tolist() == [0, 1, 0, 2]
    assert out.k == 3
    with pytest.raises(ValueError):
        canonical_labels([])


FOUR = np.array([[0.0], [0.1], [10.0], [10.1]])


def test_path_endpoints_and_monotone_counts():
    edges = gaussian_edges(FOUR, 0.01, "full")
    cfg = SolverConfig(c=0.0, tol=1e-9, max_iter=200000)
    grid = [0.0, 0.05, 0.3, 2.0, 500.0]
    path = regularization_path(FOUR, edges, grid, cfg)
    counts = path.cluster_counts
    assert counts[0] == 4  # c = 0: every distinct row its own cluster
    assert 2 in counts     # well-separated pairs fuse before the full merge
    assert counts[-1] == 1
    assert np.all(np.diff(counts) <= 0)
    assert find_c_for_k(FOUR, edges, 2, cfg, grid).c == 0.3
    assert find_c_for_k(FOUR, edges, 4, cfg, grid).c == 0.0
    assert find_c_for_k(FOUR, edges, 3, cfg, grid) is None  # both pairs fuse at once


def test_full_fusion_threshold_on_two_point_instance():
    # half convention, unit weight: fusion iff c >= (a2 - a1)/2 = 1
    A = np.array([[0.0], [2.0]])
    edges = EdgeSet(m=2, pairs=[[0, 1]], weights=[1.0])
    cfg = SolverConfig(c=1.2, tol=1e-11, max_iter=200000, convention=HALF)
    st = admm_solve(A, edges, cfg)
    assert extract_clusters(st.X, 1e-7).k == 1
    assert np.allclose(st.X, 1.0, atol=1e-8)  # fused at the row mean
    # confirm against a grid search over symmetric fused/unfused candidates
    grid = np.linspace(-1, 3, 2001)
    def obj(x1, x2):
        return objective(A, np.array([[x1], [x2]]), edges, 1.2, HALF)
    best = min(obj(x1, x2) for x1 in grid[::20] for x2 in grid[::20])
    assert obj(1.0, 1.0) <= best + 1e-9


def test_path_warm_start_matches_cold_counts():
    edges = gaussian_edges(FOUR, 0.01, "full")
    cfg = SolverConfig(c=0.0, tol=1e-10, max_iter=300000)
    grid = [0.01, 0.1, 0.5, 5.0]
    warm = regularization_path(FOUR, edges, grid, cfg)
    cold = regularization_path(FOUR, edges, grid, cfg, warm_start=False)
    assert warm.cluster_counts.tolist() == cold.cluster_counts.tolist()


def test_path_validates_grid():
    edges = gaussian_edges(FOUR, 0.01, "full")
    cfg = SolverConfig(c=0.0)
    with pytest.raises(ValueError):
        regularization_path(FOUR, edges, [0.5, 0.1], cfg)
    with pytest.raises(ValueError):
        regularization_path(FOUR, edges, [-0.1, 0.5], cfg)


def test_find_c_for_k_bisects_between_grid_points():
    edges = gaussian_edges(FOUR, 0.01, "full")
    cfg = SolverConfig(c=0.0, tol=1e-9, max_iter=200000)
    # grid deliberately skips the 2-cluster window
    pt = find_c_for_k(FOUR, edges, 2, cfg, [1e-4, 1e3])
    assert pt is not None
    assert pt.n_clusters == 2
    assert pt.assignment.labels.tolist() == [0, 0, 1, 1]


def test_find_c_for_k_stops_at_the_first_grid_hit(monkeypatch):
    edges = gaussian_edges(FOUR, 0.01, "full")
    cfg = SolverConfig(c=0.0, tol=1e-9, max_iter=200000)
    grid = [0.0, 0.05, 0.3, 2.0, 500.0]
    solved = []

    def counting_solve(A, edges, cfg, init=None):
        solved.append(cfg.c)
        return admm_solve(A, edges, cfg, init)

    monkeypatch.setattr(extraction, "admm_solve", counting_solve)
    assert find_c_for_k(FOUR, edges, 2, cfg, grid).c == 0.3
    assert solved == [0.0, 0.05, 0.3]
    del solved[:]
    # no grid point has 3 clusters, so the whole grid is solved before the
    # bracket is bisected
    assert find_c_for_k(FOUR, edges, 3, cfg, grid) is None
    assert solved[:len(grid)] == grid
    assert all(0.05 < c < 0.3 for c in solved[len(grid):])


def test_find_c_for_k_returns_none_without_a_bracket_or_once_it_is_spent(monkeypatch):
    edges = gaussian_edges(FOUR, 0.01, "full")
    cfg = SolverConfig(c=0.0, tol=1e-9, max_iter=200000)
    solved = []

    def counting_solve(A, edges, cfg, init=None):
        solved.append(cfg.c)
        return admm_solve(A, edges, cfg, init)

    monkeypatch.setattr(extraction, "admm_solve", counting_solve)
    # counts 4 and 2: no grid point above k = 5, none below k = 1
    assert find_c_for_k(FOUR, edges, 5, cfg, [0.0, 0.3]) is None
    assert find_c_for_k(FOUR, edges, 1, cfg, [0.0, 0.05]) is None
    assert solved == [0.0, 0.3, 0.0, 0.05]
    del solved[:]
    # both pairs fuse at one c near 0.1008, so no c gives 3 clusters; on a
    # bracket of ratio 0.11/0.09 the ratio stop ends the bisection after 38
    # of its 40 steps, since ln(11/9) / 2**38 < 1e-12
    assert find_c_for_k(FOUR, edges, 3, cfg, [0.09, 0.11]) is None
    assert len(solved) == 2 + 38 < 2 + extraction._MAX_BISECT
    assert 1.0 < max(solved[-2:]) / min(solved[-2:]) < 1.0 + 1e-12
