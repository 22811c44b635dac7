import numpy as np
import pytest
import scipy
import scipy.sparse as sp

from convexcluster import core, extraction, solver
from convexcluster.datagen import paper_gaussians
from convexcluster.solver import (
    HALF,
    PAPER,
    SolverConfig,
    SolverState,
    admm_solve,
    incidence,
    kkt_residual,
    objective,
)
from convexcluster.theory import c_interval_k
from convexcluster.weights import EdgeSet, gaussian_edges

from oracle import reference_minimizer
from reference import augmented_lagrangian, soft_threshold_sign

TWO_POINTS = np.array([[0.0], [2.0]])
TWO_EDGE = EdgeSet(m=2, pairs=[[0, 1]], weights=[1.0])


def tight(c, convention=PAPER, nu=1.0):
    return SolverConfig(c=c, nu=nu, tol=1e-11, max_iter=300000, convention=convention)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(c=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(c=1.0, nu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(c=1.0, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(c=1.0, convention="bogus")


def test_c_zero_returns_data_exactly():
    gen = np.random.default_rng(1)
    A = gen.normal(size=(6, 3))
    edges = gaussian_edges(A, 0.5, "full")
    state = admm_solve(A, edges, SolverConfig(c=0.0))
    assert np.array_equal(state.X, A)
    assert state.converged


def test_two_point_fusion_and_partial_shrinkage():
    # half fidelity: fusion threshold is c = 1; below it X = (c, 2 - c)
    fused = admm_solve(TWO_POINTS, TWO_EDGE, tight(2.5, HALF))
    assert np.allclose(fused.X, 1.0, atol=1e-9)
    partial = admm_solve(TWO_POINTS, TWO_EDGE, tight(0.5, HALF))
    assert np.allclose(partial.X, [[0.5], [1.5]], atol=1e-9)
    # paper convention rescales: same c gives half the shrinkage
    paper = admm_solve(TWO_POINTS, TWO_EDGE, tight(0.5, PAPER))
    assert np.allclose(paper.X, [[0.25], [1.75]], atol=1e-9)


def test_conventions_are_rescalings():
    gen = np.random.default_rng(2)
    A = gen.normal(size=(5, 2))
    edges = gaussian_edges(A, 0.3, "full")
    a = admm_solve(A, edges, tight(0.8, PAPER))
    b = admm_solve(A, edges, tight(0.4, HALF))
    assert np.allclose(a.X, b.X, atol=1e-8)


def test_objective_examples():
    A = np.array([[1.0, 2.0], [4.0, 6.0]])
    edges = EdgeSet(m=2, pairs=[[0, 1]], weights=[0.5])
    val = objective(A, A, edges, c=2.0)
    assert np.isclose(val, 2.0 * 0.5 * (3.0 + 4.0))
    gen = np.random.default_rng(0)
    X = gen.normal(size=A.shape)
    assert np.isclose(objective(A, X, edges, c=0.0), np.sum((A - X) ** 2))
    val = objective(TWO_POINTS, np.array([[1.0], [1.0]]), TWO_EDGE, c=1.0, convention=PAPER)
    assert np.isclose(val, 2.0)


def test_x_update_matches_dense_solve_and_descends():
    gen = np.random.default_rng(4)
    m, n = 6, 2
    A = gen.normal(size=(m, n))
    edges = gaussian_edges(A, 0.4, "full")
    c, nu = 0.7, 1.3
    cfg = SolverConfig(c=c, nu=nu, tol=1e-30, max_iter=1, convention=HALF)
    Z = gen.normal(size=(edges.n_edges, n))
    Lam = gen.normal(size=(edges.n_edges, n))
    X0 = gen.normal(size=(m, n))
    from convexcluster.solver import SolverState

    one = admm_solve(A, edges, cfg, init=SolverState(X=X0, Z=Z, Lam=Lam, iters=0,
                                                     final_change=0.0, converged=False))
    # dense re-solve of the first X update
    E = incidence(edges).toarray()
    M = np.eye(m) + nu * E.T @ E
    X1 = np.linalg.solve(M, A + E.T @ (nu * Z + Lam))
    assert np.allclose(one.X, X1, atol=1e-10)

    # blockwise descent of the merit function
    before = augmented_lagrangian(A, X0, Z, Lam, edges, c, nu, HALF)
    after_x = augmented_lagrangian(A, X1, Z, Lam, edges, c, nu, HALF)
    assert after_x <= before + 1e-12
    thr = (c / nu) * edges.weights[:, None]
    Z1 = soft_threshold_sign(E @ X1 - Lam / nu, thr)
    after_z = augmented_lagrangian(A, X1, Z1, Lam, edges, c, nu, HALF)
    assert after_z <= after_x + 1e-12


def _arrays(state):
    return {name: np.array(getattr(state, name), copy=True) for name in ("X", "Z", "Lam")}


def _assert_arrays_equal(state, arrays):
    for name, value in arrays.items():
        assert np.array_equal(getattr(state, name), value), name


def test_in_place_loop_leaves_warm_start_and_earlier_states_unchanged(monkeypatch):
    gen = np.random.default_rng(12)
    A = gen.normal(size=(10, 3))
    edges = gaussian_edges(A, 0.3, "full")
    cfg = SolverConfig(c=0.5, tol=1e-8, max_iter=10000)
    init = admm_solve(A, edges, SolverConfig(c=0.2, tol=1e-8, max_iter=10000))
    before = _arrays(init)
    first = admm_solve(A, edges, cfg, init)
    _assert_arrays_equal(init, before)
    second = admm_solve(A, edges, cfg, init)
    _assert_arrays_equal(init, before)
    assert (first.iters, first.converged, first.final_change) == \
        (second.iters, second.converged, second.final_change)
    for name in ("X", "Z", "Lam", "history"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name

    # every state the path hands on as a warm start, and every state it
    # returned before, stays as it was when it was returned
    returned = []

    def checked(A, edges, cfg, init=None):
        state = admm_solve(A, edges, cfg, init)
        for earlier, arrays in returned:
            _assert_arrays_equal(earlier, arrays)
        returned.append((state, _arrays(state)))
        return state

    monkeypatch.setattr(extraction, "admm_solve", checked)
    extraction.regularization_path(A, edges, [0.05, 0.2, 0.5, 1.0], cfg)
    assert len(returned) == 4


def test_matches_reference_minimizer_on_random_instances():
    gen = np.random.default_rng(7)
    for trial in range(10):
        m = int(gen.integers(2, 7))
        n = int(gen.integers(1, 4))
        A = gen.normal(size=(m, n))
        c = float(gen.uniform(0.05, 1.0))
        conv = PAPER if trial % 2 else HALF
        edges = gaussian_edges(A, float(gen.uniform(0, 1)), "full")
        state = admm_solve(A, edges, tight(c, conv))
        assert state.converged
        X_ref, f_ref, gap = reference_minimizer(A, edges, c, conv)
        assert gap <= 1e-9
        f_admm = objective(A, state.X, edges, c, conv)
        assert abs(f_admm - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
        assert np.allclose(state.X, X_ref, atol=1e-5)


def test_kkt_residual_cases():
    gen = np.random.default_rng(9)
    A = gen.normal(size=(4, 2))
    edges = gaussian_edges(A, 0.2, "full")
    assert kkt_residual(A, A, edges, c=0.0) == 0.0
    # analytic two-point optimum
    res = kkt_residual(TWO_POINTS, np.array([[1.0], [1.0]]), TWO_EDGE, 2.5, HALF)
    assert res <= 1e-8
    res = kkt_residual(TWO_POINTS, np.array([[0.5], [1.5]]), TWO_EDGE, 0.5, HALF)
    assert res <= 1e-10
    # a random non-optimal point has positive residual
    X_bad = A + gen.normal(size=A.shape)
    assert kkt_residual(A, X_bad, edges, c=0.3) > 1e-3


def test_permutation_equivariance():
    gen = np.random.default_rng(12)
    A = gen.normal(size=(6, 2))
    edges = gaussian_edges(A, 0.5, "full")
    state = admm_solve(A, edges, tight(0.6))
    perm = gen.permutation(6)
    Ap = A[perm]
    edges_p = gaussian_edges(Ap, 0.5, "full")
    state_p = admm_solve(Ap, edges_p, tight(0.6))
    assert np.allclose(state_p.X, state.X[perm], atol=1e-7)


def test_distinct_initializations_agree():
    gen = np.random.default_rng(13)
    A = gen.normal(size=(5, 2))
    edges = gaussian_edges(A, 0.4, "full")
    cfg = SolverConfig(c=0.5, tol=1e-9, max_iter=200000)
    cold = admm_solve(A, edges, cfg)
    from convexcluster.solver import SolverState

    warm = admm_solve(A, edges, cfg, init=SolverState(
        X=gen.normal(size=A.shape), Z=gen.normal(size=(edges.n_edges, 2)),
        Lam=gen.normal(size=(edges.n_edges, 2)), iters=0, final_change=0.0,
        converged=False))
    assert np.linalg.norm(cold.X - warm.X) <= 10 * cfg.tol


def test_history_and_nonconvergence_flag():
    gen = np.random.default_rng(14)
    A = gen.normal(size=(5, 2))
    edges = gaussian_edges(A, 0.4, "full")
    state = admm_solve(A, edges, SolverConfig(c=0.5, tol=1e-12, max_iter=3))
    assert not state.converged
    assert state.iters == 3
    assert state.history.shape == (3,)
    assert state.final_change == state.history[-1]
    good = admm_solve(A, edges, SolverConfig(c=0.5, tol=1e-6, max_iter=100000))
    assert good.converged
    assert good.final_change <= 1e-6


def _two_far_groups(r=1.0):
    # two groups of three rows about 14 apart: at r = 1 the nine cross edges
    # weigh 1e-119 to 1e-81, too little to move the minimizer in double
    # precision; at r = 0.3 they weigh 1e-36 to 1e-24
    gen = np.random.default_rng(31)
    A = np.vstack([gen.normal(size=(3, 2)), 10.0 + gen.normal(size=(3, 2))])
    edges = gaussian_edges(A, r, "full")
    return A, edges, (edges.pairs[:, 0] < 3) != (edges.pairs[:, 1] < 3)


def test_screened_solve_matches_reference_minimizer_on_the_full_edge_set():
    A, edges, cross = _two_far_groups()
    for c, conv in ((0.3, PAPER), (2.0, HALF)):
        state = admm_solve(A, edges, tight(c, conv))
        assert state.converged
        assert state.screened == cross.sum() == 9
        _, f_ref, gap = reference_minimizer(A, edges, c, conv)
        assert gap <= 1e-9
        f = objective(A, state.X, edges, c, conv)
        assert abs(f - f_ref) / max(1.0, abs(f_ref)) <= 1e-6
        assert kkt_residual(A, state.X, edges, c, conv, fuse_tol=1e-7) <= 1e-5
        assert state.Z.shape == state.Lam.shape == (edges.n_edges, A.shape[1])
        assert np.all(state.Lam[cross] == 0.0)
        pairs = edges.pairs[cross]
        assert np.array_equal(state.Z[cross], state.X[pairs[:, 0]] - state.X[pairs[:, 1]])


def test_every_edge_screened_returns_the_data():
    A, edges, _ = _two_far_groups()
    light = EdgeSet(edges.m, edges.pairs, edges.weights * 1e-20)
    state = admm_solve(A, light, tight(1.0))
    assert state.screened == light.n_edges
    assert state.iters == 1 and state.converged
    assert np.array_equal(state.X, A)
    assert np.all(state.Lam == 0.0)


def test_warm_path_matches_cold_while_the_kept_set_grows(monkeypatch):
    A, edges, _ = _two_far_groups(r=0.3)
    screened = []

    def recording_solve(A, edges, cfg, init=None):
        state = admm_solve(A, edges, cfg, init)
        screened.append(state.screened)
        return state

    monkeypatch.setattr(extraction, "admm_solve", recording_solve)
    grid = [0.1, 1.0, 1e10, 1e12, 1e14, 1e16, 1e20, 1e24, 1e26]
    cfg = SolverConfig(c=0.0, tol=1e-9, max_iter=200000)
    warm = extraction.regularization_path(A, edges, grid, cfg)
    assert screened == [9, 9, 8, 7, 5, 3, 2, 0, 0]
    assert [p.n_clusters for p in warm.points] == [6, 6, 2, 2, 2, 2, 2, 2, 1]
    cold = extraction.regularization_path(A, edges, grid, cfg, warm_start=False)
    assert screened[:len(grid)] == screened[len(grid):]
    for w, c in zip(warm.points, cold.points):
        assert np.array_equal(w.assignment.labels, c.assignment.labels), w.c


def test_screened_solution_warm_starts_at_its_own_fixed_point():
    # the returned Z and Lam rows line up with the input edges, so a restart
    # from them hands the loop back its own kept rows
    A, edges, _ = _two_far_groups()
    first = admm_solve(A, edges, tight(0.3))
    again = admm_solve(A, edges, tight(0.3), init=first)
    assert first.screened == again.screened == 9
    assert again.iters == 1
    assert np.abs(again.X - first.X).max() <= 1e-10


def _cascade():
    # rows a, b, c near the origin, d1 far out at x = 10 (R = 10), d2 and d3
    # between.  With c_half = 1, round one contracts (a, b) only: at a,
    # 20 > 10 + 0.5; (b, c) fails at b (25 <= 10 + 20) and at c
    # (25 <= 10 + 1.5 + 16).  Round two contracts ({a, b}, c): 25 > 2 * 10 + 0.5.
    # Then {a, b, c} meets d1 over two parallel edges of weights 0.5 and 1.5.
    A = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.5], [10.0, 2.0], [3.0, 1.5], [4.0, 0.0]])
    edges = EdgeSet(6, [[0, 1], [1, 2], [0, 3], [2, 3], [2, 4], [2, 5]],
                    [20.0, 25.0, 0.5, 1.5, 8.0, 8.0])
    return A, edges


def test_contraction_cascade_matches_reference_minimizer():
    A, edges = _cascade()
    state = admm_solve(A, edges, tight(1.0, HALF))
    assert state.converged
    assert state.contracted == 2  # {a, b, c} is one super-node
    assert np.array_equal(state.X[0], state.X[1]) and np.array_equal(state.X[1], state.X[2])
    _, f_ref, gap = reference_minimizer(A, edges, 1.0, HALF)
    assert gap <= 1e-9
    f = objective(A, state.X, edges, 1.0, HALF)
    assert abs(f - f_ref) / max(1.0, abs(f_ref)) <= 1e-6
    assert kkt_residual(A, state.X, edges, 1.0, HALF, fuse_tol=1e-7) <= 1e-5
    # contracted edges carry nothing; a merged edge's Lam is split by weight,
    # so every lifted multiplier stays inside its box |Lam_l| <= c_half * w_l
    inside = edges.pairs[:, 1] <= 2
    assert np.all(state.Z[inside] == 0.0) and np.all(state.Lam[inside] == 0.0)
    assert np.all(np.abs(state.Lam) <= edges.weights[:, None] * (1.0 + 1e-9))
    to_d1 = edges.pairs[:, 1] == 3
    assert np.allclose(np.abs(state.Lam[to_d1, 0]), edges.weights[to_d1])  # saturated
    # the group stationarity the lift preserves: S (X - A) = E^T Lam summed per group
    resid = state.X - A - incidence(edges).T @ state.Lam
    assert np.abs(resid[:3].sum(axis=0)).max() <= 1e-8
    assert np.abs(resid[3:]).max() <= 1e-8


@pytest.mark.parametrize("c, contracted, X", [
    # c_half * w = 1 outweighs the node's other edges (none) but not the range term
    (1.0, 0, [[1.0], [9.0]]),
    # c_half * w > R by one ulp: inside the rounding margin, so no contraction
    (np.nextafter(10.0, np.inf), 0, [[5.0], [5.0]]),
    (10.0 * (1.0 + 1e-9), 1, [[5.0], [5.0]]),
], ids=["range-term", "one-ulp", "past-margin"])
def test_two_rows_contract_only_past_the_range_and_the_margin(c, contracted, X):
    # rows 0 and R = 10 joined by one edge of weight 1, at c_half = c
    state = admm_solve(np.array([[0.0], [10.0]]), TWO_EDGE, tight(c, HALF))
    assert state.contracted == contracted
    assert np.allclose(state.X, X, atol=1e-9)


def test_contracted_solution_warm_starts_at_its_own_fixed_point():
    A, edges = _cascade()
    first = admm_solve(A, edges, tight(1.0, HALF))
    again = admm_solve(A, edges, tight(1.0, HALF), init=first)
    assert first.contracted == again.contracted == 2
    assert again.iters == 1
    assert np.abs(again.X - first.X).max() <= 1e-10


def test_warm_path_matches_cold_while_the_contracted_set_changes(monkeypatch):
    A, edges = _cascade()
    contracted = []

    def recording_solve(A, edges, cfg, init=None):
        state = admm_solve(A, edges, cfg, init)
        contracted.append(state.contracted)
        return state

    monkeypatch.setattr(extraction, "admm_solve", recording_solve)
    grid = [0.01, 0.8, 1.0, 1.5, 10.0]
    cfg = SolverConfig(c=0.0, tol=1e-9, max_iter=200000, convention=HALF)
    warm = extraction.regularization_path(A, edges, grid, cfg, merge_tol=1e-7)
    assert contracted == [0, 1, 2, 4, 5]
    assert [p.n_clusters for p in warm.points] == [6, 2, 2, 2, 1]
    cold = extraction.regularization_path(A, edges, grid, cfg, merge_tol=1e-7, warm_start=False)
    assert contracted[:len(grid)] == contracted[len(grid):]
    for w, c in zip(warm.points, cold.points):
        assert np.array_equal(w.assignment.labels, c.assignment.labels), w.c


def test_warm_path_matches_cold_while_the_screened_and_contracted_sets_change(monkeypatch):
    # both inputs side by side, with no edge between them: the far groups'
    # cross edges are screened until c ~ 1e24, the cascade contracts first,
    # and every warm start passes through the one restrict/lift pair
    A1, e1, _ = _two_far_groups(r=0.3)
    A2, e2 = _cascade()
    A = np.vstack([A1, A2])
    edges = EdgeSet(12, np.vstack([e1.pairs, e2.pairs + 6]),
                    np.concatenate([e1.weights, e2.weights]))
    counts = []

    def recording_solve(A, edges, cfg, init=None):
        state = admm_solve(A, edges, cfg, init)
        counts.append((state.screened, state.contracted))
        return state

    monkeypatch.setattr(extraction, "admm_solve", recording_solve)
    grid = [0.01, 0.8, 1.5, 10.0, 1e3, 1e10, 1e14, 1e20, 1e26]
    cfg = SolverConfig(c=0.0, tol=1e-9, max_iter=200000, convention=HALF)
    warm = extraction.regularization_path(A, edges, grid, cfg, merge_tol=1e-7)
    assert counts == [(9, 0), (9, 1), (9, 2), (9, 5), (9, 9), (8, 9), (5, 9), (2, 9), (0, 10)]
    assert [p.n_clusters for p in warm.points] == [12, 6, 4, 3, 3, 3, 3, 3, 2]
    cold = extraction.regularization_path(A, edges, grid, cfg, merge_tol=1e-7, warm_start=False)
    assert counts[:len(grid)] == counts[len(grid):]
    for w, c in zip(warm.points, cold.points):
        assert np.array_equal(w.assignment.labels, c.assignment.labels), w.c


def test_contraction_keys_hold_past_int32_products():
    # super-node pair keys lo * G + hi exceed 2**31 once G > 46341
    m = 50000
    A = np.linspace(0.0, 1.0, m)[:, None]
    weights = np.full(m - 1, 1e-3)
    weights[-1] = 10.0  # only the last link passes the rule
    chain = EdgeSet(m, np.column_stack([np.arange(m - 1), np.arange(1, m)]), weights)
    state = admm_solve(A, chain, SolverConfig(c=1.0, max_iter=1, convention=HALF))
    assert state.contracted == 1
    assert state.Z.shape == (m - 1, 1) and state.Z[-1, 0] == 0.0


def test_contracted_paper_gaussian_matches_capped_reference_minimizer():
    # at c09's c the objective's heavy terms are c * w ~ 1e43, beyond what the
    # oracle can resolve.  Capping c * w at K gives a lower bound on the
    # objective everywhere, equal to it wherever every capped edge is fused,
    # so the oracle's capped optimum certifies the full one.
    A, labels, r = paper_gaussians(1.0, seed=0)
    feas = c_interval_k(A, labels, r)
    c = float(np.sqrt(max(feas.kappa_lower, feas.kappa_upper * 1e-6) * feas.kappa_upper))
    edges = gaussian_edges(A, r, "full")
    state = admm_solve(A, edges, SolverConfig(c=c, tol=1e-6, max_iter=50000))
    assert state.converged
    assert state.contracted == A.shape[0] - 3  # three super-nodes, one per cluster
    capped = EdgeSet(edges.m, edges.pairs, np.minimum(c * edges.weights, 1e3))
    f = objective(A, state.X, edges, c)
    assert f == objective(A, state.X, capped, 1.0)
    _, f_ref, gap = reference_minimizer(A, capped, 1.0)
    assert gap <= 1e-6 * f_ref
    assert abs(f - f_ref) / max(1.0, abs(f_ref)) <= 1e-6
    assert kkt_residual(A, state.X, edges, c, fuse_tol=1e-7) <= 1e-5


@pytest.mark.parametrize("convention", [PAPER, HALF])
def test_lam_is_the_negated_oracle_dual_under_e_transpose(convention):
    # at a converged state X = A + E^T Lam; the oracle recovers its primal
    # as X = A - E^T Y / (2a), so its X - A is -E^T Y / (2a)
    gen = np.random.default_rng(41)
    A = gen.normal(size=(7, 2))
    edges = gaussian_edges(A, 0.4, "full")
    state = admm_solve(A, edges, tight(0.6, convention))
    assert state.converged and state.screened == state.contracted == 0
    X_ref, _, gap = reference_minimizer(A, edges, 0.6, convention)
    assert gap <= 1e-9
    image = incidence(edges).T @ state.Lam
    assert np.abs(image - (state.X - A)).max() <= 1e-9
    assert np.abs(image - (X_ref - A)).max() <= 1e-6
    assert np.abs(image + (X_ref - A)).max() > 0.1  # the other sign is far off


def _screened_contracted_input():
    # the far groups (cross edges screened at r = 0.3) beside the cascade with
    # its rows reordered a, d1, b, c, d2, d3: at c_half = 1.5 {a, b, c}
    # contracts and meets d1 over (a, d1), which keeps the merged edge's
    # orientation, and (d1, c), which reverses it
    A1, e1, _ = _two_far_groups(r=0.3)
    A2, e2 = _cascade()
    new = np.array([0, 2, 3, 1, 4, 5])  # new position of each cascade row
    A = np.vstack([A1, A2[np.argsort(new)]])
    ends = np.sort(new[e2.pairs], axis=1)
    edges = EdgeSet(12, np.vstack([e1.pairs, ends + 6]), np.concatenate([e1.weights, e2.weights]))
    return A, edges, 1.5


def test_restrict_and_lift_are_the_documented_matrix_products():
    A, edges, c_half = _screened_contracted_input()
    keep = solver._screen(A, edges, c_half)
    red = solver._reduce(A, edges, keep, c_half)
    m, G, n = edges.m, red.edges.m, A.shape[1]
    label = red.label
    # the matrices of the _Reduction docstring, from the labels and the
    # merged edges alone
    members = sp.csr_matrix((np.ones(m), (label, np.arange(m))), shape=(G, m))
    merged_row = {tuple(p): e for e, p in enumerate(red.edges.pairs.tolist())}
    rows, cols, signs, shares = [], [], [], []
    for l, (i, j) in enumerate(edges.pairs.tolist()):
        gi, gj = int(label[i]), int(label[j])
        if keep[l] and gi != gj:
            e = merged_row[(min(gi, gj), max(gi, gj))]
            sign = 1.0 if gi < gj else -1.0
            rows.append(e)
            cols.append(l)
            signs.append(sign)
            shares.append(sign * edges.weights[l] / red.edges.weights[e])
    shape = (red.edges.n_edges, edges.n_edges)
    copy = sp.csr_matrix((signs, (rows, cols)), shape=shape)
    share = sp.csr_matrix((shares, (rows, cols)), shape=shape)
    free = [l for l in range(edges.n_edges) if l not in cols]
    assert (edges.n_edges - keep.sum(), m - G) == (9, 2)
    assert sorted(signs) == [-1.0] + [1.0] * (len(signs) - 1)  # one reversed copy
    assert len(rows) > len(set(rows))  # parallel copies

    def same(got, want):
        want = np.asarray(want)
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    assert same(red.sums(A), members @ A)
    warm = admm_solve(A, edges, tight(1.0, HALF))  # a state on the input rows and edges
    U = warm.Lam / 0.7
    X_r, Z_r, U_r = red.restrict(warm.X, warm.Z, U)
    assert same(X_r, (members @ warm.X) / red.size[:, None])
    assert same(Z_r, share @ warm.Z)
    assert same(U_r, copy @ U)

    gen = np.random.default_rng(42)
    X, Z, Lam = (gen.normal(size=(k, n)) for k in (G, red.edges.n_edges, red.edges.n_edges))
    # the reversed copy turns these zeros into -0.0 before the sum from 0.0
    reversed_edge = rows[signs.index(-1.0)]
    Z[reversed_edge, 0] = Lam[reversed_edge, 1] = 0.0
    X_l, Z_l, Lam_l = red.lift(X, Z, Lam)
    Z_want = copy.T @ Z
    Z_want[free] = X[label[edges.pairs[free, 0]]] - X[label[edges.pairs[free, 1]]]
    assert same(X_l, X[label])
    assert same(Z_l, Z_want)
    assert same(Lam_l, share.T @ Lam)


class _CountingSparse:
    """``scipy.sparse`` that records each sparse matrix a call through it
    returns."""

    def __init__(self, built):
        self._built = built

    def __getattr__(self, name):
        attr = getattr(sp, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            if sp.issparse(out):
                self._built.append(name)
            return out
        return call


def test_one_solve_builds_one_system_matrix_and_one_transpose(monkeypatch):
    # set-up cost: one graph per contraction round, S + nu*L and E^T; the
    # maps between the problems are index arrays
    A, labels, r = paper_gaussians(1.0, seed=0)
    feas = c_interval_k(A, labels, r)
    c = float(np.sqrt(max(feas.kappa_lower, feas.kappa_upper * 1e-6) * feas.kappa_upper))
    edges = gaussian_edges(A, r, "full")
    built = []
    # core and solver import scipy.sparse inside the functions that build
    # matrices; "import scipy.sparse as sp" binds the scipy package's
    # attribute, so the proxy stands in there
    monkeypatch.setattr(scipy, "sparse", _CountingSparse(built))
    rounds = []
    real = core._components

    def counted(rows, cols, size):
        rounds.append(size)
        return real(rows, cols, size)

    monkeypatch.setattr(solver, "_components", counted)
    state = admm_solve(A, edges, SolverConfig(c=c, tol=1e-6, max_iter=50000))
    assert state.contracted == 27 and len(rounds) == 2
    assert built == ["csr_matrix", "csr_matrix", "csc_matrix", "csr_matrix"]
    built.clear()
    admm_solve(A, edges, SolverConfig(c=c, tol=1e-6, max_iter=50000), init=state)
    assert built == ["csr_matrix", "csr_matrix", "csc_matrix", "csr_matrix"]


def test_shape_mismatches_are_rejected():
    four = np.array([[0.0], [0.1], [10.0], [10.1]])
    edges = gaussian_edges(four, 0.0, "full")
    warm = admm_solve(TWO_POINTS, TWO_EDGE, tight(1.0))
    with pytest.raises(ValueError, match="edge set is over 2 nodes but data has 4 rows"):
        admm_solve(four, TWO_EDGE, tight(1.0))
    with pytest.raises(ValueError, match="warm-start state shapes do not match problem"):
        admm_solve(four, edges, tight(1.0), init=warm)
    for measure in (objective, kkt_residual):
        with pytest.raises(ValueError, match=r"X shape \(2, 1\) does not match data shape"):
            measure(four, TWO_POINTS, edges, 1.0)
