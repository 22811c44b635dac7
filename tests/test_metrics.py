import itertools

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from convexcluster import metrics
from convexcluster.core import all_pairs, first_occurrence_ranks
from convexcluster.extraction import canonical_labels, extract_clusters
from convexcluster.metrics import (
    cluster_geometry,
    exact_clustering_check,
    rand_index,
)
from convexcluster.theory import _prepared
from reference import cluster_geometry_scipy


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


def _geometry_inputs(kind: str, n: int):
    """Labeled inputs of 2-4 clusters of 1-80 rows (the first a singleton),
    rows shuffled: well separated, on a half-unit grid (ties and duplicated
    rows), overlapping, or offset by 1e6."""
    gen = np.random.default_rng([n, len(kind)])
    for _ in range(6):
        K = int(gen.integers(2, 5))
        sizes = np.r_[1, gen.integers(1, 81, size=K - 1)]
        centers = gen.normal(size=(K, n)) * (0.3 if kind == "overlapping" else 4.0)
        A = np.vstack([c + gen.uniform(-1.0, 1.0, size=(s, n)) for c, s in zip(centers, sizes)])
        if kind == "grid":
            A = np.round(A * 2.0) / 2.0
        if kind == "offset":
            A += 1e6
        labels = np.repeat(np.arange(K), sizes)
        perm = gen.permutation(labels.size)
        yield A[perm], labels[perm]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 100])
@pytest.mark.parametrize("kind", ["separated", "grid", "overlapping", "offset"])
@pytest.mark.parametrize("screen", ["gram", "cut"])
def test_cluster_geometry_matches_scipy_bit_for_bit(monkeypatch, screen, kind, n):
    if screen == "gram":
        monkeypatch.setattr(metrics, "_GRAM_SIZE", 2**62)
        monkeypatch.setattr(metrics, "_BLOCK", 2**62)
    else:
        monkeypatch.setattr(metrics, "_GRAM_SIZE", 0)
        monkeypatch.setattr(metrics, "_BLOCK", 97 * n)  # measure 97 pairs per call
    for A, labels in _geometry_inputs(kind, n):
        diam, dist = cluster_geometry_scipy(A, labels)
        stats = cluster_geometry(A, labels)
        assert np.array_equal(stats.diameters, diam)
        assert np.array_equal(stats.pairwise_dist, dist)
        assert stats.min_dist == dist[np.triu_indices(len(diam), k=1)].min()
        # the K = 2 interval measures every cross pair of the centered rows
        if len(diam) == 2:
            ranks = first_occurrence_ranks(labels)
            centered = A - A.mean(axis=0)
            assert np.array_equal(_prepared(A, labels).cross_d2,
                                  cdist(centered[ranks == 0], centered[ranks == 1], "sqeuclidean"))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cluster_geometry_of_a_few_rows(m):
    A = np.array([[0.0, 1.0], [3.0, 5.0], [3.0, 5.0]])[:m]
    for labels in ([0, 1, 1][:m], [0, 0, 0][:m], [2, 1, 0][:m]):
        labels = np.array(labels)
        diam, dist = cluster_geometry_scipy(A, labels)
        stats = cluster_geometry(A, labels)
        assert np.array_equal(stats.diameters, diam) and np.array_equal(stats.pairwise_dist, dist)
        assert stats.min_dist == (dist[0, 1] if dist.shape[0] >= 2 else np.inf)


def test_cluster_geometry_cut_keeps_every_pair_it_cannot_rule_out():
    # two clusters of the same rows +-e_q: every row is at distance 1 from
    # both means, so no bound rules a pair out and the cut keeps them all
    rows = np.vstack([np.eye(4), -np.eye(4)])
    A, labels = np.vstack([rows, rows]), np.repeat([0, 1], 8)
    kept = metrics._cut_pairs(A, labels, np.arange(16), np.array([0, 8]))
    assert {tuple(p) for p in np.sort(kept, axis=1).tolist()} >= {tuple(p) for p in all_pairs(16).tolist()}
    diam, dist = cluster_geometry_scipy(A, labels)
    stats = cluster_geometry(A, labels)
    assert stats.diameters.tolist() == [2.0, 2.0] and stats.min_dist == 0.0
    assert np.array_equal(stats.diameters, diam) and np.array_equal(stats.pairwise_dist, dist)


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
