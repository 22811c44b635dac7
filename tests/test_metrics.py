import itertools

import numpy as np
import pytest

from convexcluster.extraction import canonical_labels, extract_clusters
from convexcluster.metrics import (
    cluster_geometry,
    exact_clustering_check,
    rand_index,
)


def brute_force_rand(a, b):
    a, b = np.asarray(a), np.asarray(b)
    agree = total = 0
    for i, j in itertools.combinations(range(a.size), 2):
        total += 1
        if (a[i] == a[j]) == (b[i] == b[j]):
            agree += 1
    return agree / total


def test_rand_index_examples():
    assert rand_index([0, 1, 1, 2], [5, 3, 3, 9]) == 1.0
    assert rand_index([0, 0], [0, 1]) == 0.0
    assert np.isclose(rand_index([0, 0, 1, 1], [0, 1, 0, 1]), 2 / 6)


def test_rand_index_validation():
    with pytest.raises(ValueError):
        rand_index([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        rand_index([0], [0])


def test_rand_index_matches_brute_force():
    gen = np.random.default_rng(0)
    for _ in range(200):
        m = int(gen.integers(2, 13))
        a = gen.integers(0, 4, size=m)
        b = gen.integers(0, 4, size=m)
        assert rand_index(a, b) == brute_force_rand(a, b)


def test_rand_index_symmetric_and_relabel_invariant():
    gen = np.random.default_rng(1)
    a = gen.integers(0, 3, size=20)
    b = gen.integers(0, 3, size=20)
    assert rand_index(a, b) == rand_index(b, a)
    remap = np.array([7, 5, 9])
    assert rand_index(remap[a], b) == rand_index(a, b)


def test_cluster_geometry_examples():
    A = np.array([[0.0], [1.0]])
    stats = cluster_geometry(A, [0, 1])
    assert stats.min_dist == 1.0
    assert np.allclose(stats.diameters, 0.0)

    A = np.array([[0.0], [1.0], [3.0], [5.0]])
    stats = cluster_geometry(A, [0, 0, 1, 1])
    assert stats.pairwise_dist[0, 1] == 2.0
    assert stats.diameters.tolist() == [1.0, 2.0]
    assert stats.max_dia == 2.0


def test_cluster_geometry_matches_pair_scan():
    gen = np.random.default_rng(3)
    A = gen.normal(size=(14, 3))
    labels = gen.integers(0, 2, size=14)
    labels[:2] = [0, 1]  # both present
    stats = cluster_geometry(A, labels)
    cross = min(np.linalg.norm(A[i] - A[j])
                for i in range(14) for j in range(14)
                if labels[i] == 0 and labels[j] == 1)
    within0 = max(np.linalg.norm(A[i] - A[j])
                  for i in range(14) for j in range(14)
                  if labels[i] == labels[j] == 0)
    assert np.isclose(stats.pairwise_dist[0, 1], cross)
    assert np.isclose(stats.diameters[0], within0)


def test_exact_clustering_check_examples():
    X = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    assert exact_clustering_check(X, [0, 0, 1]).ok

    X = np.ones((4, 2))
    res = exact_clustering_check(X, [0, 0, 1, 1])
    assert not res.ok
    i, j = res.violation
    assert [0, 0, 1, 1][i] != [0, 0, 1, 1][j]
    assert res.violation == (0, 2)  # the lexicographically first violation

    gen = np.random.default_rng(4)
    X = gen.normal(size=(5, 2))
    assert not exact_clustering_check(X, [0, 0, 1, 1, 1]).ok


def test_exact_clustering_check_iff_extraction_matches_truth():
    gen = np.random.default_rng(5)
    truth = np.array([0, 0, 1, 1, 2])
    for trial in range(40):
        X = gen.normal(size=(5, 2))
        if trial % 3 == 0:  # plant an exact clustering
            rows = gen.normal(size=(3, 2)) * 5
            X = rows[truth]
        ok = exact_clustering_check(X, truth, merge_tol=1e-8).ok
        extracted = extract_clusters(X, merge_tol=1e-8)
        matches = (extracted.k == 3 and
                   np.array_equal(extracted.labels, canonical_labels(truth).labels))
        assert ok == matches
