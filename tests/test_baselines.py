import warnings

import numpy as np
import pytest

from convexcluster.baselines import hierarchical, kmeanspp_init, lloyd
from convexcluster.datagen import BallModelSpec, stochastic_ball
from convexcluster.metrics import rand_index


def test_lloyd_hand_trace():
    A = np.array([[0.0], [1.0], [10.0], [11.0]])
    res = lloyd(A, 2, init_centers=np.array([[0.0], [10.0]]))
    assert res.labels.tolist() == [0, 0, 1, 1]
    assert np.allclose(sorted(res.centers.ravel()), [0.5, 10.5])
    assert res.iterations <= 3


def test_lloyd_degenerate_k():
    A = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    one = lloyd(A, 1, seed=0)
    assert np.allclose(one.centers[0], A.mean(axis=0))
    assert one.labels.tolist() == [0, 0, 0]
    full = lloyd(A, 3, seed=0)
    assert full.inertia == 0.0
    assert len(set(full.labels.tolist())) == 3
    with pytest.raises(ValueError):
        lloyd(A, 4)


def test_lloyd_inertia_non_increasing():
    gen = np.random.default_rng(0)
    A = gen.normal(size=(40, 3))
    res = lloyd(A, 4, seed=1)
    assert np.all(np.diff(res.inertia_history) <= 1e-9)


def test_lloyd_empty_cluster_repair():
    # two far groups, three initial centers stacked on one point:
    # one center must empty out and be reseeded to the farthest point
    A = np.array([[0.0], [0.1], [50.0], [50.1]])
    init = np.array([[0.0], [0.0], [0.05]])
    res = lloyd(A, 3, init_centers=init)
    assert len(set(res.labels.tolist())) == 3
    assert res.inertia < 50.0


def _ball_copies(l):
    # l copies, 200 apart, of three unit balls: two 4.5 apart, one 30 above
    centers = [[200.0 * c + dx, dy] for c in range(l) for dx, dy in ((0, 0), (4.5, 0), (0, 30))]
    return stochastic_ball(BallModelSpec(centers=np.array(centers), per_cluster=10, seed=0))


def test_lloyd_repair_never_leaves_a_nan_center():
    # on this start one reseed empties a cluster the repair had already
    # passed; a single repair pass then took the mean of no rows
    A, _ = _ball_copies(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = lloyd(A, 12, seed=19)
    assert np.all(np.isfinite(res.centers))
    assert np.isfinite(res.inertia)
    assert len(set(res.labels.tolist())) == 12


def test_lloyd_center_with_no_rows_stays_put():
    # two equal starts: ties go to the lower index, so the second center
    # gets no rows, and reseeding it onto a row cannot change that
    A = np.array([[0.0], [0.0], [0.0], [5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = lloyd(A, 3, init_centers=np.array([[0.0], [0.0], [5.0]]))
    assert np.all(np.isfinite(res.centers))
    assert res.labels.tolist() == [0, 0, 0, 2]
    assert res.inertia == 0.0


def test_lloyd_deterministic_per_seed():
    gen = np.random.default_rng(2)
    A = gen.normal(size=(25, 2))
    a = lloyd(A, 3, seed=7)
    b = lloyd(A, 3, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)


def test_kmeanspp_two_points_certain():
    A = np.array([[0.0], [10.0]])
    for seed in range(5):
        centers = kmeanspp_init(A, 2, seed=seed)
        assert sorted(centers.ravel().tolist()) == [0.0, 10.0]


def test_kmeanspp_k1_and_duplicates():
    A = np.array([[1.0], [1.0], [4.0], [4.0]])
    one = kmeanspp_init(A, 1, seed=3)
    assert one.shape == (1, 1)
    # duplicates of chosen centers carry zero selection weight
    for seed in range(8):
        two = kmeanspp_init(A, 2, seed=seed)
        assert sorted(two.ravel().tolist()) == [1.0, 4.0]
    with pytest.raises(ValueError):
        kmeanspp_init(A, 5, seed=0)


def test_kmeanspp_all_duplicates_falls_back():
    A = np.tile([[2.0, 2.0]], (4, 1))
    centers = kmeanspp_init(A, 3, seed=0)
    assert centers.shape == (3, 2)
    assert np.allclose(centers, 2.0)


def test_hierarchical_examples():
    A = np.array([[0.0], [1.0], [10.0]])
    out = hierarchical(A, 2, "single")
    assert out.labels.tolist() == [0, 0, 1]
    assert hierarchical(A, 3, "single").k == 3
    with pytest.raises(ValueError):
        hierarchical(A, 4, "single")
    with pytest.raises(ValueError):
        hierarchical(A, 2, "complete")


def test_hierarchical_chain_tie_break():
    # unit-gap chain: every adjacent pair ties at distance 1; the
    # lexicographic rule grows the leftmost cluster, leaving {0..8} | {9}
    A = np.arange(10.0)[:, None]
    out = hierarchical(A, 2, "single")
    assert out.labels.tolist() == [0] * 9 + [1]


def test_average_vs_single_disagree_when_they_should():
    # after {P0, P3} merge at distance 2.5, single linkage sees a tie at
    # sqrt(13) between ({P0,P3}, P2) and (P1, P2); the lexicographic rule
    # resolves it to the former, while average linkage prefers (P1, P2)
    A = np.array([[0.0, 0.0], [0.0, 4.0], [3.0, 2.0], [-2.5, 0.0]])
    single = hierarchical(A, 2, "single")
    average = hierarchical(A, 2, "average")
    assert single.labels.tolist() == [0, 1, 0, 0]
    assert average.labels.tolist() == [0, 1, 1, 0]


def test_single_linkage_recovers_separated_clusters():
    # separation condition: cross distance > both diameters
    gen = np.random.default_rng(5)
    left = gen.uniform(size=(8, 2))            # diameter <= sqrt(2)
    right = gen.uniform(size=(7, 2)) + [10, 0]
    A = np.vstack([left, right])
    truth = np.array([0] * 8 + [1] * 7)
    out = hierarchical(A, 2, "single")
    assert rand_index(out.labels, truth) == 1.0


def test_lloyd_rejects_init_centers_of_the_wrong_shape():
    A = np.array([[0.0], [1.0], [5.0]])
    with pytest.raises(ValueError, match="init_centers must be 2x1"):
        lloyd(A, 2, init_centers=np.zeros((3, 1)))
