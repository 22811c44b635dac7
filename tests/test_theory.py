import math
from dataclasses import fields

import numpy as np
import pytest

from convexcluster import theory
from convexcluster.datagen import BallModelSpec, GmmSpec, gaussian_mixture, stochastic_ball
from convexcluster.extraction import extract_clusters
from convexcluster.metrics import exact_clustering_check
from convexcluster.solver import SolverConfig, admm_solve
from convexcluster.theory import (
    ball_condition,
    c_interval_k,
    c_interval_two,
    candidate_c_values,
    feasibility_report,
    gmm_separation_bound,
    r_lower_bound,
    search_feasible_r,
    separation_check,
)
from convexcluster.weights import gaussian_edges

FOUR = np.array([[0.0], [0.0], [3.0], [3.0]])
FOUR_LABELS = np.array([0, 0, 1, 1])


def test_separation_check_examples():
    # two unit-diameter clusters at center distance 4
    A = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [5.0, 0.0]])
    rep = separation_check(A, [0, 0, 1, 1])
    assert rep.separated and rep.means_distinct is False  # equal y-coordinates
    B = A + np.array([[0.0], [0.1], [0.2], [0.3]]) @ np.array([[0.0, 1.0]])
    rep = separation_check(B, [0, 0, 1, 1])
    assert rep.separated and rep.means_distinct

    overlapping = np.array([[0.0], [1.0], [0.0], [1.0]])
    assert not separation_check(overlapping, [0, 0, 1, 1]).separated

    singles = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert separation_check(singles, [0, 1]).separated
    with pytest.raises(ValueError):
        separation_check(singles, [0, 0])


def test_r_lower_bound_examples():
    assert np.isclose(r_lower_bound((2, 2), 3.0, (0.0, 0.0)), math.log(4) / 9, atol=1e-15)
    # balanced clusters, zero diameters, unit distance
    assert np.isclose(r_lower_bound((5, 5), 1.0, (0.0, 0.0)), math.log(4))
    # inverted: d^2 = l^2 + ln(4 (m - m_i)/m_i)  ->  r_min = 1
    d = math.sqrt(1.0 + math.log(4))
    assert np.isclose(r_lower_bound((2, 2), d, (1.0, 1.0)), 1.0)
    # no finite bound when d does not clear a diameter
    assert r_lower_bound((2, 2), 1.0, (0.0, 1.5)) == math.inf


def test_c_interval_two_hand_values():
    rep = c_interval_two(FOUR, FOUR_LABELS, r=1.0)
    assert rep.kappa_lower == 0.0
    assert np.isclose(rep.kappa_upper, 1.5 * math.exp(9.0), rtol=1e-12)
    assert rep.feasible
    assert np.allclose(rep.tau, [-3.0])
    assert np.isclose(rep.rho, math.exp(-9.0))
    assert np.isclose(rep.gamma_max_between, math.exp(-9.0))
    assert rep.gamma_min_within == 1.0
    assert rep.eps == (2.0, 2.0)
    assert np.isclose(rep.r_min, math.log(4) / 9)

    # below the bandwidth bound the lower-bound sign condition fails
    rep0 = c_interval_two(FOUR, FOUR_LABELS, r=0.0)
    assert not rep0.feasible
    assert rep0.kappa_lower == math.inf
    just_below = c_interval_two(FOUR, FOUR_LABELS, r=math.log(4) / 9 * 0.999)
    assert not just_below.feasible
    just_above = c_interval_two(FOUR, FOUR_LABELS, r=math.log(4) / 9 * 1.001)
    assert just_above.feasible


def test_c_interval_two_degenerate_means():
    # equal cluster means after centering: tau = 0 in every dimension
    A = np.array([[0.0], [2.0], [0.5], [1.5]])
    rep = c_interval_two(A, FOUR_LABELS, r=1.0)
    assert rep.degenerate and not rep.feasible
    assert math.isnan(rep.kappa_upper)
    assert rep.zero_tau_dims[(0, 1)] == (0,)


def test_c_interval_two_requires_two_clusters():
    with pytest.raises(ValueError):
        c_interval_two(FOUR, [0, 1, 2, 2], r=1.0)
    with pytest.raises(ValueError):
        c_interval_two(FOUR, [0, 0, 0, 0], r=1.0)
    # unbalanced sizes are fine
    assert c_interval_two(FOUR, [0, 0, 0, 1], r=2.0).n_clusters == 2


@pytest.mark.parametrize("r, message", [
    (-1.0, "^bandwidth r must be >= 0, got -1.0$"),
    (math.nan, "^bandwidth r must be finite, got nan$"),
    (1.0, "^expected exactly 2 clusters, got 3$"),
], ids=["negative-r", "nan-r", "valid-r"])
def test_c_interval_two_checks_the_bandwidth_before_the_cluster_count(r, message):
    with pytest.raises(ValueError, match=message):
        c_interval_two(*_ball(), r)


def test_feasibility_report_takes_the_two_cluster_form_at_k_2():
    A, labels = _ball()
    keep = labels != 2
    for r in (0.0, 0.5, 3.0):
        two = c_interval_two(A[keep], labels[keep], r)
        assert feasibility_report(A[keep], labels[keep], r).to_dict() == two.to_dict()
        k = c_interval_k(A[keep], labels[keep], r)
        assert k.rho is None and k.tau is None and two.rho is not None
        assert k.to_dict() != two.to_dict()


def test_k_interval_on_two_cluster_data_both_nonempty():
    two = c_interval_two(FOUR, FOUR_LABELS, r=1.0)
    k = c_interval_k(FOUR, FOUR_LABELS, r=1.0)
    assert two.feasible and k.feasible
    assert k.kappa_lower == two.kappa_lower == 0.0
    # K formula: |tau| / (3 m gamma_max) with tau = -3, m = 4
    assert np.isclose(k.kappa_upper, 3.0 / (12.0 * math.exp(-9.0)))


def test_k_interval_three_singletons_direct_evaluation():
    A = np.array([[0.0], [10.0], [20.0]])
    labels = np.array([0, 1, 2])
    r = 0.05
    rep = c_interval_k(A, labels, r)

    # independent evaluation straight from the formulas
    centered = A - A.mean(axis=0)
    diffs = {(0, 1): centered[0] - centered[1],
             (0, 2): centered[0] - centered[2],
             (1, 2): centered[1] - centered[2]}
    gammas = {p: math.exp(-r * float(v @ v)) for p, v in diffs.items()}
    gmax = max(gammas.values())
    upper = min(abs(float(v[0])) / (3 * 3 * gmax) for v in diffs.values())
    assert np.isclose(rep.kappa_upper, upper)
    assert rep.kappa_lower == 0.0  # no within pairs
    assert rep.feasible
    assert rep.means_distinct
    for pair, v in diffs.items():
        assert np.allclose(rep.tau_by_pair[pair], v)


def test_k_interval_flags_non_distinct_means():
    A = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0], [9.0, 5.0]])
    labels = np.array([0, 0, 1, 1, 2])
    rep = c_interval_k(A, labels, r=1.0)
    # clusters 0 and 1 share the same mean in dimension 1
    assert not rep.means_distinct
    assert 1 in rep.zero_tau_dims[(0, 1)]


def test_interval_grows_with_r():
    gen = np.random.default_rng(0)
    A = np.vstack([gen.uniform(size=(4, 2)), gen.uniform(size=(4, 2)) + [6.0, 5.0],
                   gen.uniform(size=(4, 2)) + [12.0, 1.0]])
    labels = np.repeat([0, 1, 2], 4)
    lo = c_interval_k(A, labels, r=5.0)
    hi = c_interval_k(A, labels, r=50.0)
    assert lo.feasible and hi.feasible
    assert (hi.kappa_upper - hi.kappa_lower) > (lo.kappa_upper - lo.kappa_lower)
    # 2-cluster version of the same property
    lo2 = c_interval_two(FOUR, FOUR_LABELS, r=1.0)
    hi2 = c_interval_two(FOUR, FOUR_LABELS, r=2.0)
    assert (hi2.kappa_upper - hi2.kappa_lower) > (lo2.kappa_upper - lo2.kappa_lower)


def test_interval_invariant_to_constant_row_shift():
    shift = np.array([[5.0]])
    rep = c_interval_two(FOUR, FOUR_LABELS, r=1.0)
    rep_shifted = c_interval_two(FOUR + shift, FOUR_LABELS, r=1.0)
    assert np.isclose(rep.kappa_lower, rep_shifted.kappa_lower)
    assert np.isclose(rep.kappa_upper, rep_shifted.kappa_upper)
    assert np.allclose(rep.tau, rep_shifted.tau)


def test_intervals_unchanged_by_renaming_labels():
    # sizes follow first occurrence; diameters must follow the same order
    g = np.random.default_rng(0)
    A = np.vstack([g.normal(size=(3, 2)) * 0.3, g.normal(size=(6, 2)) * 0.8 + [6, 0]])
    labels = np.array([0] * 3 + [1] * 6)
    def separation(l):
        rep = separation_check(A, l)
        return (rep.separated, rep.means_distinct, rep.stats.diameters.tolist(),
                rep.stats.pairwise_dist.tolist())

    for fn in (lambda l: c_interval_two(A, l, 1.0).to_dict(),
               lambda l: c_interval_k(A, l, 1.0).to_dict(),
               lambda l: search_feasible_r(A, l).to_dict(), separation):
        assert fn(labels) == fn(1 - labels)


def _ball(per_cluster=10, seed=0):
    centers = np.array([[0.0, 0.0], [4.41, 0.89], [1.8, 6.0]])
    return stochastic_ball(BallModelSpec(centers=centers, per_cluster=per_cluster, seed=seed))


def test_search_measures_clusters_once(monkeypatch):
    A, labels = _ball()
    calls = []
    measure = theory.cluster_geometry
    monkeypatch.setattr(theory, "cluster_geometry", lambda *a: calls.append(a) or measure(*a))
    rep = search_feasible_r(A, labels)
    assert len(calls) == 1
    # the search went past its first r, so it evaluated several bandwidths
    assert rep.r > max(feasibility_report(A, labels, 0.0).r_min * 1.05, 1e-3)


def test_searched_report_equals_direct_report():
    A, labels = _ball()
    keep = labels != 2
    for data, lab in ((A, labels), (A[keep], labels[keep])):
        rep = search_feasible_r(data, lab)
        direct = feasibility_report(data, lab, rep.r)
        assert rep.to_dict() == direct.to_dict()
        for f in fields(rep):
            mine, theirs = getattr(rep, f.name), getattr(direct, f.name)
            if isinstance(mine, dict):
                assert mine.keys() == theirs.keys()
                assert all(np.array_equal(mine[k], theirs[k]) for k in mine)
            else:
                assert np.array_equal(mine, theirs), f.name
        # the search returns the first feasible r of its grid
        r, tried = max(rep.r_min * 1.05, 1e-3), 0
        while r < rep.r:
            assert not feasibility_report(data, lab, r).feasible
            r, tried = r * theory._R_GROWTH, tried + 1
        assert r == rep.r and tried >= 1


# two pairs 10 apart, whose default search succeeds at r = 0.01485...
TWO_PAIRS = np.array([[0.0], [0.1], [10.0], [10.1]])


@pytest.mark.parametrize("r_start", [0.0, 0], ids=["zero", "int-zero"])
def test_search_starts_at_its_default_for_none_and_zero(r_start):
    rep = search_feasible_r(TWO_PAIRS, FOUR_LABELS, r_start=r_start)
    assert rep.feasible and math.isclose(rep.r, 0.014853153869141685)
    assert rep.to_dict() == search_feasible_r(TWO_PAIRS, FOUR_LABELS).to_dict()


def test_ball_condition_examples():
    ok = ball_condition([[0.0, 0.0], [4.0, 0.0]])
    assert ok.satisfied and ok.delta == 4.0
    assert not ball_condition([[0.0, 0.0], [3.9, 0.0]]).satisfied
    three = ball_condition([[0.0, 0.0], [4.0, 0.0], [0.0, 5.0]])
    assert three.satisfied and three.delta == 4.0
    with pytest.raises(ValueError):
        ball_condition([[0.0, 0.0]])


def test_gmm_bound_zero_covariance_and_scaling():
    means = np.array([[0.0, 0.0], [1.0, 1.0]])
    zero = [np.zeros((2, 2))] * 2
    rep = gmm_separation_bound(means, zero, m=10)
    assert np.nanmax(rep.pair_bounds) == 0.0
    assert rep.satisfied

    # scaling all covariances by t^2 scales the bound by exactly t
    gen = np.random.default_rng(1)
    S = gen.normal(size=(3, 3))
    base = [S @ S.T + np.eye(3), 2 * np.eye(3)]
    means = gen.normal(size=(2, 3))
    t = 3.7
    r1 = gmm_separation_bound(means, base, m=25)
    r2 = gmm_separation_bound(means, [t ** 2 * C for C in base], m=25)
    assert np.allclose(r2.pair_bounds[0, 1], t * r1.pair_bounds[0, 1], rtol=1e-12)

    # spherical case: doubling sigma doubles the bound (n=100, m=30)
    eye = np.eye(100)
    mu = np.zeros((2, 100))
    mu[1, :] = 50.0
    b1 = gmm_separation_bound(mu, [eye, eye], m=30).pair_bounds[0, 1]
    b2 = gmm_separation_bound(mu, [4 * eye, 4 * eye], m=30).pair_bounds[0, 1]
    assert 1.9 <= b2 / b1 <= 2.1


@pytest.mark.parametrize("seed", range(4))
def test_gmm_bound_measures_centers_as_the_ball_condition_does(seed):
    gen = np.random.default_rng(seed)
    K, n = 2 + seed, 1 + 3 * seed
    means = gen.normal(scale=4.0, size=(K, n))
    rep = gmm_separation_bound(means, [np.eye(n)] * K, m=40)
    # bit for bit: one rule measures the minimum center distance
    assert rep.min_center_distance == ball_condition(means).delta


def test_gmm_bound_term_by_term():
    # n=2, m=8, identity covariances: evaluate each term independently
    m = 8
    logm = math.log(m)
    root12 = math.sqrt(12 * logm)
    pair = math.sqrt(2.0) * root12 + (12 * logm) ** 0.25 * math.sqrt(2.0 * math.sqrt(2.0))
    within = math.sqrt(2.0 + math.sqrt(2.0) * root12 + 6.0 * logm)
    expected = pair + within
    means = np.array([[0.0, 0.0], [30.0, 30.0]])
    rep = gmm_separation_bound(means, [np.eye(2), np.eye(2)], m=m)
    assert np.isclose(rep.pair_bounds[0, 1], expected, rtol=1e-12)
    assert rep.satisfied == (np.linalg.norm(means[1]) > expected)


def test_gmm_bound_rejects_bad_covariance():
    means = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        gmm_separation_bound(means, [np.array([[-1.0]]), np.array([[1.0]])], m=5)
    with pytest.raises(ValueError):
        gmm_separation_bound(means, [np.array([[1.0]])], m=5)


@pytest.mark.parametrize("S, message", [
    ([[1.0, 1e-9], [0.0, 1.0]], "covariance must be symmetric"),
    ([[1.0, 0.0], [0.0, -1e-9]], "covariance must be positive semidefinite"),
    ([[1.0, 1e-11], [0.0, -1e-11]], None),  # within rounding: accepted
])
def test_sampler_and_bound_check_covariances_alike(S, message):
    means = [[0.0, 0.0], [5.0, 0.0]]
    calls = (lambda: gmm_separation_bound(means, [np.eye(2), S], m=10),
             lambda: gaussian_mixture(GmmSpec(weights=[0.5, 0.5], means=means,
                                              covariances=[np.eye(2), S], m=10)))
    for call in calls:
        if message is None:
            call()
        else:
            with pytest.raises(ValueError, match=message):
                call()


def test_end_to_end_interval_gives_exact_clustering():
    # separated random desk instances: any c inside the reported interval
    # recovers the truth exactly with the full edge set
    gen = np.random.default_rng(3)
    for trial in range(6):
        spread = gen.uniform(0.3, 0.8)
        left = gen.uniform(size=(3, 2)) * spread
        right = gen.uniform(size=(3, 2)) * spread + [4.0, 3.0]
        A = np.vstack([left, right])
        labels = np.repeat([0, 1], 3)
        rep = search_feasible_r(A, labels)
        assert rep.feasible
        for c in candidate_c_values(rep, count=3):
            edges = gaussian_edges(A, rep.r, "full")
            state = admm_solve(A, edges, SolverConfig(c=float(c), tol=1e-9, max_iter=300000))
            if exact_clustering_check(state.X, labels, merge_tol=1e-6).ok:
                break
        else:
            raise AssertionError(f"no candidate c recovered the truth in trial {trial}")


def test_candidate_c_values_inside_interval():
    rep = c_interval_two(FOUR, FOUR_LABELS, r=1.0)
    vals = candidate_c_values(rep, count=5)
    assert np.all(vals > rep.kappa_lower)
    assert np.all(vals < rep.kappa_upper)
    with pytest.raises(ValueError):
        candidate_c_values(c_interval_two(FOUR, FOUR_LABELS, r=0.0))
    with pytest.raises(ValueError, match="count must be >= 1"):
        candidate_c_values(rep, count=0)


def test_candidate_c_values_single_is_the_geometric_middle():
    # the README's library example, which takes count=1
    A, truth = stochastic_ball(BallModelSpec(
        centers=np.array([[0.0, 0.0], [4.5, 0.0]]), per_cluster=15, seed=0))
    feas = search_feasible_r(A, truth)
    (c,) = candidate_c_values(feas, 1)
    assert 0 < feas.kappa_lower < c < feas.kappa_upper < math.inf
    assert c == math.sqrt(feas.kappa_lower * (1 + 1e-9) * feas.kappa_upper * (1 - 1e-9))
    edges = gaussian_edges(A, feas.r, "full")
    state = admm_solve(A, edges, SolverConfig(c=c, tol=1e-8, max_iter=60000))
    assert exact_clustering_check(state.X, truth, merge_tol=1e-6).ok


@pytest.mark.parametrize("r", [-1.0, math.nan])
@pytest.mark.parametrize("report", [c_interval_two, c_interval_k, feasibility_report,
                                    search_feasible_r])
def test_one_cluster_is_reported_before_the_bandwidth(report, r):
    # the K >= 2 rule comes first, whatever the bandwidth (the search's start)
    with pytest.raises(ValueError, match="^separation needs at least 2 clusters$"):
        report(FOUR, [0, 0, 0, 0], r)


# three pairs 100 apart: at r = 1 every between-cluster weight underflows to 0,
# so the K-cluster upper bound is unbounded
SPREAD = np.array([[0.0], [0.05], [100.0], [100.05], [200.0], [200.05]])
SPREAD_LABELS = [0, 0, 1, 1, 2, 2]


def test_candidate_c_values_cap_an_unbounded_interval():
    rep = feasibility_report(SPREAD, SPREAD_LABELS, 1.0)
    assert rep.feasible and rep.kappa_upper == math.inf
    vals = candidate_c_values(rep, count=3)
    assert vals.max() == 1e6 * (1 - 1e-9)
    assert np.all(vals > rep.kappa_lower)


def test_search_feasible_r_gives_up_after_its_tries():
    with pytest.raises(ValueError, match=r"^no feasible r found after 60 tries \(last r="):
        search_feasible_r(SPREAD, SPREAD_LABELS, r_start=1e-300)


def test_malformed_theory_inputs_are_rejected():
    with pytest.raises(ValueError, match="one size and one diameter per cluster"):
        r_lower_bound((2, 2), 1.0, (0.0,))
    with pytest.raises(ValueError, match="need at least 2 component means"):
        gmm_separation_bound([[0.0, 0.0]], [np.eye(2)], 10)
    with pytest.raises(ValueError, match="covariance shape mismatch"):
        gmm_separation_bound([[0.0, 0.0], [5.0, 5.0]], [np.eye(2), np.eye(3)], 10)
