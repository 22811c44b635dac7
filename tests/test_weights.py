import math

import numpy as np
import pytest

from convexcluster.core import pair_row_index
from convexcluster.weights import EdgeSet, gaussian_edges, gaussian_weights


FOUR_POINTS = np.array([[0.0], [0.0], [3.0], [3.0]])


def test_gaussian_weights_examples():
    A = np.array([[0.0], [1.0], [2.0]])
    assert np.allclose(gaussian_weights(A, 0.0), 1.0)

    B = np.array([[0.0], [math.sqrt(math.log(2.0))]])
    assert np.allclose(gaussian_weights(B, 1.0), [0.5])

    g = gaussian_weights(FOUR_POINTS, 0.1)
    m = 4
    assert g[pair_row_index(1, 2, m) - 1] == 1.0
    assert g[pair_row_index(3, 4, m) - 1] == 1.0
    cross = [g[pair_row_index(i, j, m) - 1] for i in (1, 2) for j in (3, 4)]
    assert np.allclose(cross, math.exp(-0.9))
    assert abs(math.exp(-0.9) - 0.40657) < 1e-5


def test_gaussian_weights_monotonicity():
    gen = np.random.default_rng(3)
    A = gen.normal(size=(8, 2))
    from scipy.spatial.distance import pdist

    d2 = pdist(A, "sqeuclidean")
    order = np.argsort(d2)
    g = gaussian_weights(A, 0.7)
    assert np.all(np.diff(g[order]) <= 1e-15)
    # decreasing in r at fixed distances
    assert np.all(gaussian_weights(A, 1.2) <= g + 1e-15)


def test_gaussian_weights_rejects_negative_r():
    with pytest.raises(ValueError):
        gaussian_weights(FOUR_POINTS, -0.5)


def test_knn_examples():
    A = np.array([[0.0], [1.0], [10.0]])
    edges = gaussian_edges(A, 0.0, 1)
    assert edges.pairs.tolist() == [[0, 1], [1, 2]]

    full = gaussian_edges(A, 0.0, 2)
    assert full.n_edges == 3
    assert gaussian_edges(A, 0.0, "full").n_edges == 3

    dup = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    e = gaussian_edges(dup, 2.0, 1)
    assert [0, 1] in e.pairs.tolist()
    w01 = e.weights[e.pairs.tolist().index([0, 1])]
    assert w01 == 1.0


def test_knn_nested_in_k():
    gen = np.random.default_rng(11)
    A = gen.normal(size=(12, 3))
    prev: set = set()
    for k in range(1, 12):
        cur = {tuple(p) for p in gaussian_edges(A, 0.4, k).pairs.tolist()}
        assert prev <= cur
        prev = cur
    assert prev == {tuple(p) for p in gaussian_edges(A, 0.4, "full").pairs.tolist()}


def test_knn_tie_breaks_to_lower_index():
    # row 0 is equidistant from rows 1 and 2; the lower index wins
    A = [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.5, 0.0], [-1.5, 0.0]]
    assert gaussian_edges(A, 0.5, 1).pairs.tolist() == [[0, 1], [1, 3], [2, 4]]


def test_knn_edges_reject_negative_r():
    A = np.random.default_rng(2).normal(size=(6, 2))
    with pytest.raises(ValueError):
        gaussian_edges(A, -0.5, 3)


def test_knn_range_errors():
    A = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        gaussian_edges(A, 0.0, 0)
    with pytest.raises(ValueError):
        gaussian_edges(A, 0.0, 3)


def test_edge_set_normalizes_and_validates():
    e = EdgeSet(m=4, pairs=[[2, 3], [0, 1]], weights=[0.5, 0.25])
    assert e.pairs.tolist() == [[0, 1], [2, 3]]
    assert e.weights.tolist() == [0.25, 0.5]
    with pytest.raises(ValueError):
        EdgeSet(m=3, pairs=[[1, 1]], weights=[1.0])
    with pytest.raises(ValueError):
        EdgeSet(m=3, pairs=[[0, 1], [0, 1]], weights=[1.0, 1.0])
    with pytest.raises(ValueError):  # adjacent only once sorted
        EdgeSet(m=3, pairs=[[0, 2], [0, 1], [0, 2]], weights=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        EdgeSet(m=3, pairs=[[0, 1]], weights=[-1.0])
    # zero-weight edges dropped
    e = EdgeSet(m=3, pairs=[[0, 1], [1, 2]], weights=[0.0, 1.0])
    assert e.n_edges == 1


def test_edges_deterministic_and_sorted():
    gen = np.random.default_rng(5)
    A = gen.normal(size=(10, 2))
    e1 = gaussian_edges(A, 0.3, 4)
    e2 = gaussian_edges(A, 0.3, 4)
    assert np.array_equal(e1.pairs, e2.pairs)
    assert np.array_equal(e1.weights, e2.weights)
    keys = e1.pairs[:, 0] * 10 + e1.pairs[:, 1]
    assert np.all(np.diff(keys) > 0)
