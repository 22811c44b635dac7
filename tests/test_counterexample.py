"""The source paper's k-means counterexample on generated data.

l copies of three unit balls: the first two 4.5 apart (Delta > 4), the third
30 above the first, the copies 200 apart.  Lloyd's algorithm with random
starts cannot be relied on to find this partition, even keeping the best of
many starts, while the convex model recovers it exactly at every candidate c
of the feasible interval.
"""

import warnings

import numpy as np

import convexcluster as cc

COPIES = 8
K = 3 * COPIES


def _copies():
    centers = np.array([[200.0 * c + dx, dy]
                        for c in range(COPIES) for dx, dy in ((0, 0), (4.5, 0), (0, 30))])
    return cc.stochastic_ball(cc.BallModelSpec(centers=centers, per_cluster=10, seed=0))


def test_convex_model_is_exact_at_every_candidate():
    A, truth = _copies()
    feas = cc.search_feasible_r(A, truth)
    edges = cc.gaussian_edges(A, r=feas.r, knn="full")
    for c in cc.candidate_c_values(feas, count=3):
        state = cc.admm_solve(A, edges, cc.SolverConfig(c=float(c), tol=1e-8))
        assert state.converged
        assert cc.exact_clustering_check(state.X, truth).ok, f"c={c}"


def test_lloyd_best_of_random_starts_misses_the_truth():
    A, truth = _copies()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runs = [cc.lloyd(A, K, seed=s) for s in range(50)]
        runs += [cc.lloyd(A, K, init_centers=cc.kmeanspp_init(A, K, seed=s))
                 for s in range(50)]
    assert all(np.all(np.isfinite(r.centers)) for r in runs)
    # the multiple-initialization trick: keep the random start of least inertia
    best = min(runs[:50], key=lambda r: r.inertia)
    assert cc.rand_index(best.labels, truth) < 1.0
