import argparse
import itertools
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import pdist

from convexcluster import cli, datagen, extraction, solver, theory, weights
from convexcluster.core import (
    _check_number,
    all_pairs,
    center_columns,
    check_data,
    difference_operator,
    index_sets,
    pair_from_row_index,
    pair_row_index,
    pair_sqdist,
)


def test_check_data_rejects_bad_input():
    with pytest.raises(ValueError):
        check_data(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        check_data(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        check_data(np.empty((0, 3)))


def test_center_columns_examples():
    out = center_columns([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(out, [[-1, -1], [1, 1]])

    rows = np.tile([[2.0, -1.0, 7.0]], (5, 1))
    assert np.allclose(center_columns(rows), 0.0)

    out = center_columns([[0.0], [0.0], [3.0], [3.0]])
    assert np.allclose(out, [[-1.5], [-1.5], [1.5], [1.5]])


def test_center_columns_is_idempotent_and_zero_sum():
    gen = np.random.default_rng(0)
    A = gen.normal(size=(9, 4)) * 10
    once = center_columns(A)
    scale = 1e-12 * A.shape[0] * max(1.0, np.abs(A).max())
    assert np.all(np.abs(once.sum(axis=0)) <= scale)
    twice = center_columns(once)
    assert np.allclose(once, twice, atol=1e-14)


def test_difference_operator_small_cases():
    D3 = difference_operator(3).toarray()
    assert np.array_equal(D3, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])
    D2 = difference_operator(2).toarray()
    assert np.array_equal(D2, [[1, -1]])
    with pytest.raises(ValueError):
        difference_operator(1)


@pytest.mark.parametrize("m", range(3, 9))
def test_h_annihilates_range_of_difference_operator(m):
    # H = (D^{m-1}, I) applied to D^m X must vanish identically
    gen = np.random.default_rng(m)
    X = gen.normal(size=(m, 2))
    Y = difference_operator(m) @ X
    H = sp.hstack([difference_operator(m - 1), sp.identity((m - 1) * (m - 2) // 2)])
    assert np.max(np.abs(H @ Y)) <= 1e-12


@pytest.mark.parametrize("m", range(2, 9))
def test_difference_rows_match_pair_inverse(m):
    gen = np.random.default_rng(100 + m)
    X = gen.normal(size=(m, 3))
    Y = difference_operator(m) @ X
    for p in range(m * (m - 1) // 2):
        i, j = pair_from_row_index(p + 1, m)
        assert np.allclose(Y[p], X[i - 1] - X[j - 1])


def test_pair_row_index_examples():
    assert pair_row_index(1, 2, 3) == 1
    assert pair_row_index(2, 3, 3) == 3
    assert pair_from_row_index(1, 3) == (1, 2)
    with pytest.raises(ValueError):
        pair_row_index(2, 2, 3)
    with pytest.raises(ValueError):
        pair_row_index(0, 1, 3)
    with pytest.raises(ValueError):
        pair_from_row_index(4, 3)


@pytest.mark.parametrize("p", [0, 4])
def test_pair_from_row_index_names_the_argument_out_of_range(p):
    # the message reports the 1-based p passed in, not a 0-based position
    with pytest.raises(ValueError, match=rf"got p={p}, m=3"):
        pair_from_row_index(p, 3)


@pytest.mark.parametrize("m", range(2, 11))
def test_pair_index_bijection(m):
    seen = set()
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            p = pair_row_index(i, j, m)
            assert pair_from_row_index(p, m) == (i, j)
            seen.add(p)
    assert seen == set(range(1, m * (m - 1) // 2 + 1))


def test_all_pairs_matches_pair_pos():
    m = 7
    pairs = all_pairs(m)
    for p, (i, j) in enumerate(pairs):
        assert pair_row_index(int(i) + 1, int(j) + 1, m) == p + 1


def test_index_sets_examples():
    sets = index_sets([0, 0, 1, 1])
    assert sets.within == {1, 6}
    assert sets.between == {2, 3, 4, 5}
    assert sets.between_by_pair[(0, 1)] == {2, 3, 4, 5}

    single = index_sets([5, 5, 5])
    assert single.within == {1, 2, 3}
    assert single.between == frozenset()

    singletons = index_sets([0, 1, 2])
    assert singletons.within == frozenset()
    assert len(singletons.between_by_pair) == 3
    assert all(len(v) == 1 for v in singletons.between_by_pair.values())


def test_index_sets_rejects_non_contiguous():
    with pytest.raises(ValueError):
        index_sets([0, 1, 0])


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize("m", range(2, 11))
def test_index_sets_partition_property(m):
    # within and between partition {1..C(m,2)} for every size vector
    universe = set(range(1, m * (m - 1) // 2 + 1))
    for parts in range(1, m + 1):
        for sizes in _compositions(m, parts):
            labels = np.repeat(np.arange(parts), sizes)
            sets = index_sets(labels)
            assert sets.sizes == sizes
            assert sets.within | sets.between == universe
            assert not (sets.within & sets.between)
            merged = set()
            for v in sets.between_by_pair.values():
                assert not (merged & v)
                merged |= v
            assert merged == sets.between


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 33, 100])
def test_pair_sqdist_matches_pdist_bit_for_bit(n):
    # pdist adds the columns one after another; a pairwise sum differs in
    # the last bit from 8 columns on
    gen = np.random.default_rng(n)
    A = gen.normal(size=(25, n)) * 10.0 ** gen.uniform(-3, 3, size=n)
    pairs = all_pairs(25)
    assert np.array_equal(pair_sqdist(A, pairs), pdist(A, "sqeuclidean"))
    # any pair order, either orientation, and a Fortran-ordered matrix
    some = gen.permutation(pairs)[:40][:, ::-1]
    expected = pdist(A, "sqeuclidean")[[pairs.tolist().index(sorted(p)) for p in some.tolist()]]
    assert np.array_equal(pair_sqdist(np.asfortranarray(A), some), expected)
    assert pair_sqdist(A, pairs[:0]).shape == (0,)
    # a single pair too, whose column sum numpy would otherwise add pairwise
    for p, expect in zip(pairs[:30], pdist(A, "sqeuclidean")):
        assert np.array_equal(pair_sqdist(A, p[None]), [expect])


def test_pair_sqdist_holds_at_most_two_gathers():
    # the k-NN build calls it on ~11 candidate pairs per row; beyond the two
    # P x n gathers it keeps no copy of the strided index columns
    gen = np.random.default_rng(5)
    A = gen.normal(size=(3000, 2))
    pairs = np.column_stack([gen.integers(0, 3000, 30000), gen.integers(0, 3000, 30000)])
    tracemalloc.start()
    try:
        pair_sqdist(A, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * pairs.size * 8, peak


def _numeric_parameter_sites():
    """(parameter name as its message gives it, call with one value, error
    type) for every numeric parameter with a range rule."""
    A, labels = datagen.stochastic_ball(datagen.BallModelSpec(
        centers=[[0.0, 0.0], [4.0, 1.0]], per_cluster=5, seed=1))
    report = theory.search_feasible_r(A, labels)
    edges = weights.gaussian_edges(A, 1.0, knn="full")
    means, covs = [[0.0, 0.0], [4.0, 1.0]], [np.eye(2), np.eye(2)]

    def bench(flag):
        counts = {"k": None, "repeats": 1, "inits": 1}
        return lambda v: cli.cmd_bench(argparse.Namespace(**{**counts, flag: v}))

    def c_grid(flag):
        limits = {"c_grid": None, "c_min": 1.0, "c_max": 10.0, "c_steps": 3}
        return lambda v: cli._c_grid(argparse.Namespace(**{**limits, flag: v}))

    def threads(v):
        with mock.patch.dict(os.environ, {cli.ENV_THREADS: str(v)}):
            cli._threads()

    return {
        "solver-c": ("regularization c", lambda v: solver.SolverConfig(c=v), ValueError),
        "solver-nu": ("penalty nu", lambda v: solver.SolverConfig(c=1.0, nu=v), ValueError),
        "solver-tol": ("tol", lambda v: solver.SolverConfig(c=1.0, tol=v), ValueError),
        "solver-max_iter": ("max_iter", lambda v: solver.SolverConfig(c=1.0, max_iter=v),
                            ValueError),
        "gaussian_weights": ("kernel bandwidth r", lambda v: weights.gaussian_weights(A, v),
                             ValueError),
        "gaussian_edges": ("kernel bandwidth r", lambda v: weights.gaussian_edges(A, v),
                           ValueError),
        "c_interval_two": ("bandwidth r", lambda v: theory.c_interval_two(A, labels, v),
                           ValueError),
        "c_interval_k": ("bandwidth r", lambda v: theory.c_interval_k(A, labels, v), ValueError),
        "feasibility_report": ("bandwidth r",
                               lambda v: theory.feasibility_report(A, labels, v), ValueError),
        "search_feasible_r": ("bandwidth r",
                              lambda v: theory.search_feasible_r(A, labels, r_start=v),
                              ValueError),
        "gmm_separation_bound": ("sample count m",
                                 lambda v: theory.gmm_separation_bound(means, covs, v),
                                 ValueError),
        "candidate_c_values": ("candidate count",
                               lambda v: theory.candidate_c_values(report, count=v), ValueError),
        "extract_clusters": ("merge_tol", lambda v: extraction.extract_clusters(A, v),
                             ValueError),
        "c_grid": ("c grid values", lambda v: extraction.regularization_path(
            A, edges, [1.0, v], solver.SolverConfig(c=0.0)), ValueError),
        "ball-per_cluster": ("per_cluster",
                             lambda v: datagen.BallModelSpec(centers=means, per_cluster=v),
                             ValueError),
        "gmm-m": ("sample count", lambda v: datagen.GmmSpec(
            weights=[0.5, 0.5], means=means, covariances=covs, m=v), ValueError),
        "paper_gaussians": ("sigma", lambda v: datagen.paper_gaussians(v), ValueError),
        "cli-sigmas": ("sigma", lambda v: cli._sigmas([1.0, v], 2, 2, "two sigmas"),
                       ValueError),
        "cli-threads": (cli.ENV_THREADS, threads, cli.CliError),
        "cli-k": ("--k", bench("k"), ValueError),
        "cli-repeats": ("--repeats", bench("repeats"), ValueError),
        "cli-inits": ("--inits", bench("inits"), ValueError),
        "cli-c_min": ("--c-min", c_grid("c_min"), cli.CliError),
        "cli-c_max": ("--c-max", c_grid("c_max"), cli.CliError),
    }


_SITES = _numeric_parameter_sites()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", list(_SITES))
def test_numeric_parameters_reject_non_finite_values(site, value):
    # the thread cap is parsed as an integer, so a non-finite value is not
    # one; every other site goes through core's one range rule (or, for the
    # two grids, a compound test that excludes NaN and +-inf)
    name, call, error = _SITES[site]
    with pytest.raises(error, match=re.escape(name)):
        call(value)


def test_check_number_messages():
    assert _check_number("count", 3, 1) == 3
    assert _check_number("width", 1e-300, 0, strict=True) == 1e-300
    for value, strict, message in [
        (0.5, False, "count must be >= 1, got 0.5"),
        (1, True, "count must be > 1, got 1"),
        (-math.inf, False, "count must be >= 1, got -inf"),
        (math.nan, False, "count must be finite, got nan"),
        (math.inf, True, "count must be finite, got inf"),
    ]:
        with pytest.raises(ValueError) as info:
            _check_number("count", value, 1, strict=strict)
        assert str(info.value) == message
