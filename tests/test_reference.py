"""The sparse k-NN graph, extraction, theory quantities, linkage clustering,
the scaled-dual ADMM loop and its factor of I + nu*L against the references in
``reference.py``."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

from convexcluster import solver
from convexcluster.baselines import hierarchical
from convexcluster.core import all_pairs
from convexcluster.datagen import BallModelSpec, embedded_circles, paper_gaussians, stochastic_ball
from convexcluster.extraction import canonical_labels, extract_clusters
from convexcluster.solver import SolverConfig, SolverState, admm_solve
from convexcluster.theory import c_interval_k, c_interval_two
from convexcluster.weights import gaussian_edges
from reference import (admm_unscaled, general_factor, hierarchical_loop, knn_edges_dense,
                       kappa_lower_loop, tau_gamma_dense,
                       threshold_components_dense)


def _tie_heavy_inputs():
    gen = np.random.default_rng(7)
    grid2 = np.array([[i, j] for i in range(9) for j in range(9)], dtype=float)
    grid9 = gen.integers(0, 3, size=(120, 9)).astype(float)
    dup = np.repeat(gen.normal(size=(15, 10)), gen.integers(1, 14, size=15), axis=0)
    dup = dup[gen.permutation(dup.shape[0])]
    return {"grid2": grid2, "grid9": grid9, "dup10": dup}


@pytest.mark.parametrize("name", ["grid2", "grid9", "dup10"])
def test_knn_matches_stable_argsort_reference(name):
    A = _tie_heavy_inputs()[name]
    for k in (1, 2, 4, 9, 16):
        pairs, weights = knn_edges_dense(A, 0.3, k)
        edges = gaussian_edges(A, 0.3, k)
        assert np.array_equal(edges.pairs, pairs)
        assert np.array_equal(edges.weights, weights)  # bitwise, also at n >= 8
    full = gaussian_edges(A, 0.3, "full")
    assert np.array_equal(full.pairs, all_pairs(A.shape[0]))
    assert np.array_equal(full.weights, np.exp(-0.3 * pdist(A, "sqeuclidean")))


@pytest.mark.parametrize("linkage", ["single", "average"])
def test_hierarchical_matches_upper_triangle_loop(linkage):
    inputs = dict(_tie_heavy_inputs())
    inputs["continuous"] = np.random.default_rng(3).normal(size=(60, 3))
    for name, A in inputs.items():
        A = A[:60]
        for k in (1, 2, 3, 7, 59):
            expected = canonical_labels(hierarchical_loop(A, k, linkage)).labels
            assert np.array_equal(hierarchical(A, k, linkage).labels, expected), (name, k)


def test_knn_weights_bitwise_on_continuous_data():
    A = np.random.default_rng(3).normal(size=(200, 30))
    pairs, weights = knn_edges_dense(A, 0.02, 6)
    edges = gaussian_edges(A, 0.02, 6)
    assert np.array_equal(edges.pairs, pairs)
    assert np.array_equal(edges.weights, weights)


def test_extraction_matches_pdist_threshold_at_the_boundary():
    # merge_tol exactly at the pair's pdist distance and one ulp either side
    gen = np.random.default_rng(11)
    for trial in range(400):
        X = gen.normal(size=(2, 1 + trial % 5)) * 10.0 ** gen.uniform(-4, 3)
        d = pdist(X)[0]
        for tol, fused in ((np.nextafter(d, 0.0), False), (d, True), (np.nextafter(d, np.inf), True)):
            got = extract_clusters(X, tol).labels
            assert np.array_equal(got, threshold_components_dense(X, tol))
            assert (got[0] == got[1]) == fused


def test_extraction_matches_reference_on_near_fused_rows():
    gen = np.random.default_rng(5)
    for trial in range(5):
        X = np.repeat(gen.normal(size=(25, 4)), 4, axis=0)
        X = X + gen.normal(size=X.shape) * 10.0 ** gen.uniform(-11, -7, size=(X.shape[0], 1))
        X = X[gen.permutation(X.shape[0])]
        for tol in (0.0, 1e-9, 1e-8, 1e-7):
            assert np.array_equal(extract_clusters(X, tol).labels,
                                  threshold_components_dense(X, tol))


def _assert_extraction_matches(X, tol):
    got = extract_clusters(X, tol).labels
    assert np.array_equal(got, threshold_components_dense(X, tol)), tol
    return got


def test_extraction_matches_reference_on_large_fused_cliques():
    # every row has more than 8 neighbours within the tolerance
    gen = np.random.default_rng(12)
    X = np.repeat(gen.normal(size=(3, 6)), 400, axis=0)
    X = (X + gen.normal(size=X.shape) * 1e-6)[gen.permutation(1200)]
    for tol in (1e-7, 1e-5, 1e-3):
        _assert_extraction_matches(X, tol)
    assert extract_clusters(X, 1e-3).k == 3


def test_extraction_decides_crowded_cliques_at_their_closest_pair():
    # two cliques of 30 jittered rows; merge_tol at the closest cross pair's
    # pdist distance and one ulp either side
    gen = np.random.default_rng(13)
    for n in (2, 9, 40):
        centers = np.zeros((2, n))
        centers[1, 0] = 1.0
        X = np.repeat(centers, 30, axis=0) + gen.normal(size=(60, n)) * 1e-3
        X = X[gen.permutation(60)]
        dist = squareform(pdist(X))
        side = X[:, 0] > 0.5
        d = dist[np.ix_(side, ~side)].min()
        for tol, fused in ((np.nextafter(d, 0.0), False), (d, True), (np.nextafter(d, np.inf), True)):
            got = _assert_extraction_matches(X, tol)
            assert (got.max() == 0) == fused


def test_extraction_joins_clumps_the_nearest_neighbour_links_keep_apart():
    # clumps of 12 near-equal rows along a line: each row's 8 nearest rows
    # are in its own clump, so the linked components are the clumps, and
    # clumps less than merge_tol apart must be joined afterwards
    gen = np.random.default_rng(14)
    tol = 1e-2
    for gaps, k in (((0.4, 0.4, 0.4, 0.4), 1), ((0.4, 1.1, 0.4, 0.9), 2)):
        centers = np.zeros((5, 4))
        centers[1:, 0] = np.cumsum(gaps) * tol
        X = np.repeat(centers, 12, axis=0) + gen.normal(size=(60, 4)) * 1e-9
        X = X[gen.permutation(60)]
        assert _assert_extraction_matches(X, tol).max() + 1 == k


def test_extraction_finds_a_partner_the_tree_ranks_behind_a_rounding_tie():
    # d and a permutation of d have the same length up to rounding, and the
    # k-d tree sums squares in another order than pdist, so its nearest row
    # can be the one whose pdist distance is the larger.  Row 0 sits at the
    # origin; nine copies of d fill its neighbour slots, nine copies of the
    # permutation and an arc outside the sphere join both into one component
    # whose first row is a copy of d.
    gen = np.random.default_rng(15)
    n = 24
    for _ in range(200):
        d1 = gen.normal(size=n)
        d2 = d1[gen.permutation(n)]
        tree_d, order = cKDTree(np.stack([d1, d2])).query(np.zeros(n), k=2)
        exact = pdist(np.stack([np.zeros(n), d1, d2]))[:2]
        if order[0] == 0 and tree_d[0] < tree_d[1] and exact[0] > exact[1]:
            break
    tol = exact[1]
    u1, u2 = d1 / np.linalg.norm(d1), d2 / np.linalg.norm(d2)
    angle = np.arccos(u1 @ u2)
    steps = np.linspace(0.0, 1.0, 16)[:, None]
    arc = (np.sin((1 - steps) * angle) * u1 + np.sin(steps * angle) * u2) / np.sin(angle)
    X = np.vstack([np.zeros(n), np.tile(d1, (9, 1)), np.tile(d2, (9, 1)), 1.5 * tol * arc])
    got = _assert_extraction_matches(X, tol)
    assert got[0] == got[1] == got[10]


def test_extraction_exact_duplicates_at_zero_and_subnormal_tolerance():
    gen = np.random.default_rng(16)
    X = np.repeat(gen.normal(size=(7, 3)), gen.integers(1, 25, size=7), axis=0)
    X = X[gen.permutation(X.shape[0])]
    for tol in (0.0, 1e-200):
        assert _assert_extraction_matches(X, tol).max() == 6
    # rows 1e-180 apart: pdist squares the gap to 0, so they are at distance 0
    tiny = np.array([[0.0, 0.0], [1e-180, 0.0], [3e-160, 0.0], [1.0, 1.0]])
    for tol in (0.0, 1e-200, 2e-160, 3e-160, 1e-150):
        _assert_extraction_matches(tiny, tol)


def test_extraction_on_exact_duplicates_matches_reference():
    # the search runs on the distinct rows; rows that differ only by the
    # sign of a zero are one distinct row, and pdist puts them at distance 0
    gen = np.random.default_rng(18)
    base = gen.normal(size=(9, 4))
    base[1] = base[0] + 1e-9  # a near pair, apart at merge_tol 0
    base[2] = [0.0, 1.0, -0.0, 2.0]
    base[3] = [-0.0, 1.0, 0.0, 2.0]
    base[4] = [-0.0, -0.0, -0.0, -0.0]
    base[5] = 0.0
    X = np.repeat(base, gen.integers(1, 40, size=9), axis=0)
    X = X[gen.permutation(X.shape[0])]
    d01 = pdist(base[:2])[0]
    for tol in (0.0, 1e-200, np.nextafter(d01, 0.0), d01, 1e-3, 1.0):
        got = _assert_extraction_matches(X, tol)
        for i, j in ((2, 3), (4, 5)):
            assert len(set(got[np.all(X == base[i], axis=1) | np.all(X == base[j], axis=1)])) == 1
    assert extract_clusters(X, 0.0).k == 7
    assert extract_clusters(X, d01).k == 6


def test_extraction_memory_does_not_grow_with_fused_pairs():
    # 3 x 1000 near-equal rows hold 1.5 million fused pairs; a pass that
    # lists them peaks at about 80 MB
    gen = np.random.default_rng(17)
    X = np.repeat(gen.normal(size=(3, 2)) * 4.0, 1000, axis=0) + gen.normal(size=(3000, 2)) * 1e-5
    tracemalloc.start()
    try:
        assert extract_clusters(X, 1e-3).k == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def _rel_close(a, b, rtol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b).max()))


@pytest.mark.parametrize("K", [2, 3, 4])
def test_theory_tau_and_gamma_match_dense_reference(K):
    gen = np.random.default_rng(K)
    n = 10
    centers = gen.normal(size=(K, n)) * 4.0
    labels = gen.permutation(np.repeat(np.array([2, 0, 3, 1])[:K], gen.integers(2, 9, size=K)))
    A = centers[np.searchsorted(np.unique(labels), labels)] + gen.normal(size=(labels.size, n))
    r = 0.05
    ref = tau_gamma_dense(A, labels, r)
    rep = c_interval_two(A, labels, r) if K == 2 else c_interval_k(A, labels, r)
    assert set(rep.tau_by_pair) == set(ref["tau_by_pair"])
    for pair, tau in ref["tau_by_pair"].items():
        assert _rel_close(rep.tau_by_pair[pair], tau)
    assert math.isclose(rep.gamma_min_within, ref["gamma_min_within"], rel_tol=1e-12)
    assert math.isclose(rep.gamma_max_between, ref["gamma_max_between"], rel_tol=1e-12)
    if K == 2:
        assert math.isclose(rep.rho, ref["rho"], rel_tol=1e-12)
    for r in (0.0, 0.05, 1.0):
        rep = c_interval_two(A, labels, r) if K == 2 else c_interval_k(A, labels, r)
        assert rep.kappa_lower == kappa_lower_loop(rep.gamma_min_within, rep.gamma_max_between,
                                                   rep.sizes, rep.diameters)


def _small_full():
    A = np.random.default_rng(21).normal(size=(8, 3))
    return A, gaussian_edges(A, 0.3, "full")


def _circles_knn():
    A = embedded_circles(0)[0][::5]
    return A, gaussian_edges(A, 0.5, 10)


def _random_state(A, edges, seed):
    gen = np.random.default_rng(seed)
    return SolverState(X=gen.normal(size=A.shape), Z=gen.normal(size=(edges.n_edges, A.shape[1])),
                       Lam=gen.normal(size=(edges.n_edges, A.shape[1])), iters=0,
                       final_change=0.0, converged=False)


@pytest.mark.parametrize("case", ["full-cold", "circles-cold", "warm", "capped"])
def test_scaled_admm_bit_identical_to_unscaled_at_unit_nu(case):
    A, edges = _circles_knn() if case == "circles-cold" else _small_full()
    cfg = SolverConfig(c=0.5, tol=1e-8, max_iter=100000)
    init = None
    if case == "circles-cold":
        cfg = SolverConfig(c=1e3, tol=1e-5, max_iter=5000)
    elif case == "warm":
        init = _random_state(A, edges, 22)
    elif case == "capped":
        cfg = SolverConfig(c=0.5, tol=1e-12, max_iter=7)
    got, ref = admm_solve(A, edges, cfg, init), admm_unscaled(A, edges, cfg, init)
    assert got.converged == ref.converged == (case != "capped")
    assert got.iters == ref.iters
    assert got.final_change == ref.final_change
    for name in ("X", "Z", "Lam", "history"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@pytest.mark.parametrize("nu", [0.1, 10.0])
def test_scaled_admm_matches_unscaled_off_unit_nu(nu):
    A, edges = _small_full()
    for init in (None, _random_state(A, edges, 23)):
        cfg = SolverConfig(c=0.5, nu=nu, tol=1e-8, max_iter=100000)
        got, ref = admm_solve(A, edges, cfg, init), admm_unscaled(A, edges, cfg, init)
        assert got.converged and ref.converged
        assert got.iters == ref.iters
        for name in ("X", "Z", "Lam"):
            assert _rel_close(getattr(got, name), getattr(ref, name)), name


def _factor_case(case):
    if case == "ball":
        angle = 0.198
        centers = np.array([[0.0, 0.0], [4.5 * math.cos(angle), 4.5 * math.sin(angle)],
                            [1.8, 6.0]])
        A, _ = stochastic_ball(BallModelSpec(centers=centers, per_cluster=1000, seed=0))
        return A, gaussian_edges(A, 1.0, 10), SolverConfig(c=10.0, tol=1e-4)
    if case.startswith("circles"):
        A, _ = embedded_circles(seed=1)
        return (A, gaussian_edges(A, 3.0, 10),
                SolverConfig(c=float(case.split("-")[1]), tol=1e-5, max_iter=40000))
    A, edges = _small_full()
    return A, edges, SolverConfig(c=0.5, tol=1e-8, max_iter=100000)


@pytest.mark.parametrize("case", ["ball", "circles-351.1", "circles-1520", "small-full"])
def test_symmetric_factor_matches_general_factor(case, monkeypatch):
    A, edges, cfg = _factor_case(case)
    got = admm_solve(A, edges, cfg)
    monkeypatch.setattr(solver, "_factor", general_factor)
    ref = admm_solve(A, edges, cfg)
    assert got.converged == ref.converged
    assert got.iters == ref.iters
    merge_tol = 10.0 * cfg.tol
    assert np.array_equal(extract_clusters(got.X, merge_tol).labels,
                          extract_clusters(ref.X, merge_tol).labels)
    assert _rel_close(got.X, ref.X)

    E = solver.incidence(edges)
    M = sp.identity(edges.m) + cfg.nu * (E.T @ E)
    B = np.random.default_rng(24).normal(size=A.shape)
    for factor in (solver._factor, general_factor):
        lu = factor(edges, cfg.nu, np.ones(edges.m))
        assert np.abs(M @ lu.solve(B) - B).max() <= 1e-13 * np.abs(B).max(), factor.__name__


@pytest.mark.parametrize("case", ["small-full", "circles-knn", "ball", "circles-351.1"])
def test_unit_nu_and_factor_inputs_screen_no_edge(case):
    # the bit-identity and factor tests above cover the loop only while their
    # inputs keep every edge; each c is the smallest that input is solved at.
    # circles-knn contracts one 3-row group, so its bit-identity case covers
    # the reduced problem; the others run the loop on the input rows
    if case == "circles-knn":
        (A, edges), cfg = _circles_knn(), SolverConfig(c=1e3)
    else:
        A, edges, cfg = _factor_case(case)
    state = admm_solve(A, edges, replace(cfg, max_iter=1))
    assert state.screened == 0
    assert state.contracted == (2 if case == "circles-knn" else 0)


def test_screened_paper_gaussian_matches_unscreened_reference_labels():
    A, labels, r = paper_gaussians(1.0, seed=0)
    feas = c_interval_k(A, labels, r)
    c = float(np.sqrt(max(feas.kappa_lower, feas.kappa_upper * 1e-6) * feas.kappa_upper))
    edges = gaussian_edges(A, r, "full")
    got = admm_solve(A, edges, SolverConfig(c=c, tol=1e-6, max_iter=50000))
    ref = admm_unscaled(A, edges, SolverConfig(c=c, tol=1e-10, max_iter=50000))
    assert got.screened > 0
    assert got.converged and ref.converged
    assert np.array_equal(extract_clusters(got.X, 1e-4).labels,
                          extract_clusters(ref.X, 1e-4).labels)
