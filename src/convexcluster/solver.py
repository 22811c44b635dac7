"""ADMM solver for weighted sum-of-l1-norm convex clustering.

The model assigns every observation its own centroid row and fuses centroids
through a weighted l1 penalty on pairwise differences:

    minimize_X  a * ||A - X||_F^2  +  c * sum_l w_l * ||X_{l1} - X_{l2}||_1

over the edge set l = (l1, l2).  Two fidelity conventions are supported:
``"paper"`` (a = 1, the model as usually written) and ``"half"`` (a = 1/2,
the augmented-Lagrangian form).  They coincide under c -> c/2; the solver
always iterates the half form internally and rescales c on entry, so both
conventions reach the identical minimizer of their own objective.

The ADMM loop runs in scaled form (Boyd et al. 2011, section 3.1.1): it keeps
the scaled dual U = Lam / nu, so no iteration divides by nu, and converts
back once on exit.  Every returned state reports the unscaled multiplier
Lam = nu * U.

The centroid update solves with I + nu*L, where L = E^T E is the graph
Laplacian.  That matrix is symmetric positive definite and strictly diagonally
dominant: each diagonal entry exceeds its off-diagonal row sum by exactly 1.
It is therefore factored once per solve with a symmetric minimum-degree
ordering and no pivoting.  SuperLU's general-matrix default (COLAMD ordering,
partial pivoting) roughly doubles the fill on k-NN graphs: on the ball model
at m = 3000 with k-NN 10 its factor has 235k nonzeros against 117k, and a
solve with it takes about 1.7 times as long.  A solve builds two sparse
matrices: S + nu*L straight from the edge list (s_i + nu * degree_i on the
diagonal, -nu per edge) and E^T as CSR; E X is two row gathers and a
difference.  The iteration itself works on E x n arrays allocated once per
solve.

Before factoring, the solve builds one reduced problem from two exact
reductions, and the loop runs only on that problem.

Screening drops edges too light to move the minimizer, in the spirit of safe
feature elimination (El Ghaoui, Viallon & Rabbani 2012).  The half-form
objective is 1-strongly convex, and an edge's subgradient is at most
c_half * w_l per coordinate at each of its two endpoints, so dropping an
edge set S moves the minimizer by at most 2 * sqrt(n) * c_half * sum_S w_l in
Frobenius norm.  The solver sorts the weights (stably) and drops the longest
light prefix whose bound is at most eps * ||A||_F, with eps the double
machine epsilon: a shift that rounding of A already hides.
``SolverState.screened`` counts the dropped edges.  When every edge is
screened the answer is X = A.

Contraction folds rows that must be equal at the minimizer, by an a-priori
rule on the kept edges.  Let R be the largest column range of A.  Every
coordinate of the minimizer lies in its column's range of A (clipping X into
those ranges lowers the fidelity term and does not raise the penalty), so
|X_i - A_i| <= R per coordinate.  Summing the stationarity equations over a
group g of s_g rows known to be equal cancels its internal edges and leaves

    sum_{i in g} (X_i - A_i) + c_half * sum_{l leaving g} w_l * (+-G_l) = 0,

with G_l in [-1, 1]^n the l1 subgradient of edge l.  If an edge l leaving g
has c_half * w_l > s_g * R + c_half * (W_g - w_l), with W_g the total weight
of the edges leaving g, then no coordinate of G_l can be +-1, so the edge's
two rows are equal at the minimizer.  Such edges are contracted (with a
relative margin of a few machine epsilons per summed weight, so rounding
never decides the test), and the rule repeats on the contracted graph until
no edge passes it.  ``SolverState.contracted`` counts the input rows folded
into another row, m minus the number of super-nodes.

The reduced problem has one super-node per group, with fidelity weight s_g
and the sum of its rows of A as S * mean(A_g), and one merged edge per pair
of adjacent groups, weighing the sum of its kept parallel edges.  Where
nothing contracts it is the kept-edge problem with s = 1.  The loop solves it
with S + nu*L, and its stop measures the change of the lifted X,
||sqrt(s) * dX_g||_F.  One pair of maps joins it to the input problem.
``restrict`` takes a warm start to group means of X, weighted means of Z and
sums of U over parallel edges; screened and contracted edges have no part in
it.  ``lift`` copies each super-node's row to its members and takes Z on
every input edge as the difference X_i - X_j of the lifted X; then it writes
each merged edge's Z over its parallel edges (with their orientation) and
splits its Lam among them by w_l / W_e.  The other input edges keep that
difference, exactly 0 on a contracted edge and the difference of the
returned X on a screened one, and Lam = 0.  The maps are index arrays (each
row's super-node, each parallel edge's merged edge, sign and share), applied
as row gathers and scatters that add in the order a product with the
matching sparse matrix adds, so the maps build no sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import _check_number, _components, _incidence_transpose, check_data
from .weights import EdgeSet

PAPER = "paper"
HALF = "half"
_CONVENTIONS = (PAPER, HALF)
# Screening bound on the minimizer's shift, relative to ||A||_F.
_SCREEN_EPS = float(np.finfo(float).eps)
# Relative margin of the contraction rule, per kept edge: a sum of E weights
# carries a relative rounding error below E * eps.
_CONTRACT_EPS = 4.0 * float(np.finfo(float).eps)


def _fidelity_factor(convention: str) -> float:
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
    return 1.0 if convention == PAPER else 0.5


@dataclass
class SolverConfig:
    """ADMM settings.

    ``c`` is the regularization weight in the chosen objective convention,
    ``nu`` the positive augmented-Lagrangian penalty, ``tol`` the stopping
    threshold on the Frobenius norm of successive centroid iterates (and, for
    a warm start, of the primal residual).
    """

    c: float
    nu: float = 1.0
    tol: float = 1e-4
    max_iter: int = 10000
    convention: str = PAPER

    def __post_init__(self):
        _check_number("regularization c", self.c, 0)
        _check_number("penalty nu", self.nu, 0, strict=True)
        _check_number("tol", self.tol, 0, strict=True)
        _check_number("max_iter", self.max_iter, 1)
        _fidelity_factor(self.convention)


@dataclass
class SolverState:
    """Iterates and convergence record of one ADMM run.

    ``Lam`` is the unscaled multiplier of Z = E X in the half form the loop
    iterates, signed so that stationarity in X reads X = A + E^T Lam at a
    converged state (per row where nothing is contracted, and summed over
    each super-node where rows are).  The dual Y of the paper-form problem,
    max over |Y_l| <= c * w_l of <Y, E A> - ||E^T Y||^2 / (4a), recovers
    X = A - E^T Y / (2a), so E^T Lam = -E^T Y / (2a): Lam has the opposite
    sign of Y.
    ``screened`` counts the edges dropped before the solve (see the module
    docstring); their rows of Z are the differences of X and of Lam zero.
    ``contracted`` counts the rows the contraction rule folded into another
    row: m minus the number of super-nodes the loop ran on.
    """

    X: np.ndarray
    Z: np.ndarray
    Lam: np.ndarray
    iters: int
    final_change: float
    converged: bool
    history: np.ndarray = field(default_factory=lambda: np.empty(0))
    screened: int = 0
    contracted: int = 0


def incidence(edges: EdgeSet) -> sp.csr_matrix:
    """Signed edge-incidence operator E with (EX)_l = X_{l1} - X_{l2}."""
    return _incidence_transpose(edges.pairs, edges.m).T.tocsr()


def objective(A, X, edges: EdgeSet, c: float, convention: str = PAPER) -> float:
    """Value of the convex clustering objective at centroid matrix X."""
    A = check_data(A)
    X = np.asarray(X, dtype=float)
    if X.shape != A.shape:
        raise ValueError(f"X shape {X.shape} does not match data shape {A.shape}")
    a = _fidelity_factor(convention)
    fid = a * float(np.sum((A - X) ** 2))
    if edges.n_edges == 0 or c == 0:
        return fid
    return fid + c * float(edges.weights @ np.abs(_differences(X, edges.pairs)).sum(axis=1))


def _factor(edges: EdgeSet, nu: float, fidelity: np.ndarray):
    """The symmetric-mode LU factor of S + nu * E^T E (minimum-degree
    ordering, diagonal pivots; see the module docstring), with S the diagonal
    of ``fidelity``.  The matrix is built in one step from the edges, which
    are unique: s_i + nu * degree_i on the diagonal and -nu at both mirror
    entries of each edge."""
    G, (i, j) = edges.m, edges.pairs.T
    nodes = np.arange(G)
    rows, cols = np.concatenate([nodes, i, j]), np.concatenate([nodes, j, i])
    values = np.concatenate([fidelity + nu * np.bincount(edges.pairs.ravel(), minlength=G),
                             np.full(2 * edges.n_edges, -nu)])
    order = np.argsort(cols * G + rows)  # CSC: by column, then by row
    indptr = np.zeros(G + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=G), out=indptr[1:])
    return splu(sp.csc_matrix((values[order], rows[order], indptr), shape=(G, G)),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _screen(A, edges: EdgeSet, c_half: float) -> np.ndarray:
    """Mask of the edges kept once the longest light prefix, in stable weight
    order, whose pull 2 * sqrt(n) * c_half * sum(w) is at most
    eps * ||A||_F is dropped."""
    order = np.argsort(edges.weights, kind="stable")
    pull = (2.0 * np.sqrt(A.shape[1]) * c_half) * np.cumsum(edges.weights[order])
    dropped = int(np.searchsorted(pull, _SCREEN_EPS * np.linalg.norm(A), side="right"))
    keep = np.ones(edges.n_edges, dtype=bool)
    keep[order[:dropped]] = False
    return keep


def _merge(pairs: np.ndarray, weights: np.ndarray, label: np.ndarray, G: int):
    """Edges between the G groups of ``label``: (merged pairs in lexicographic
    order, their summed weights, mask of the input edges that leave a group,
    each such edge's merged row, and whether it keeps its orientation)."""
    # connected_components numbers groups as int32: widen before forming keys
    gi, gj = label[pairs[:, 0]].astype(np.int64), label[pairs[:, 1]].astype(np.int64)
    leaves = gi != gj
    gi, gj = gi[leaves], gj[leaves]
    key, row = np.unique(np.minimum(gi, gj) * G + np.maximum(gi, gj), return_inverse=True)
    merged = np.bincount(row, weights[leaves], key.size)
    return np.column_stack([key // G, key % G]), merged, leaves, row, gi < gj


def _sum_rows(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """(size, n) sums: row g adds, from 0.0 and in ascending i, each rows[i]
    with index[i] == g."""
    n = rows.shape[1]
    out = np.zeros(size * n)
    np.add.at(out, (index.astype(np.intp)[:, None] * n + np.arange(n)).ravel(), rows.reshape(-1))
    return out.reshape(size, n)


def _scaled_rows(V, index: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """factor[k] * V[index[k]] for each k."""
    out = np.take(V, index, axis=0)
    out *= factor[:, None]
    return out


@dataclass
class _Reduction:
    """The reduced problem of :func:`_reduce` and its maps to the input.

    Input row i belongs to super-node ``label[i]`` of ``size`` rows;
    ``edges`` are the merged edges between super-nodes.  ``parallel`` lists,
    in ascending order, the kept input edges that join two super-nodes:
    input edge ``parallel[k]`` is a parallel copy of merged edge
    ``merged[k]``, ``sign[k]`` is +1 where it has the merged edge's
    orientation and -1 where it has the reverse, and ``share[k]`` is
    sign[k] * w_l / W_e.  ``pairs`` are all input edges.

    With the G x m matrix of ones at (label[i], i), and the merged x input
    edges matrices ``copy`` (entries ``sign``) and ``share`` (entries
    ``share``) at (merged[k], parallel[k]), the maps below are the products
    with those matrices, summed in the same order, without building them.
    """

    label: np.ndarray
    size: np.ndarray
    edges: EdgeSet
    parallel: np.ndarray
    merged: np.ndarray
    sign: np.ndarray
    share: np.ndarray
    pairs: np.ndarray

    def sums(self, X):
        """The sum of each super-node's rows of X."""
        return _sum_rows(self.label, X, self.size.size)

    def restrict(self, X, Z, U):
        """A warm start on the input rows and edges, mapped onto the super-nodes:
        group means of X, weighted means of Z and sums of U over parallel edges."""
        E = self.edges.n_edges
        return (self.sums(X) / self.size[:, None],
                _sum_rows(self.merged, _scaled_rows(Z, self.parallel, self.share), E),
                _sum_rows(self.merged, _scaled_rows(U, self.parallel, self.sign), E))

    def lift(self, X, Z, Lam):
        """A reduced state on every input row and edge (see the module docstring)."""
        X = np.take(X, self.label, axis=0)
        Z_in = self._spread(Z, self.sign, _differences(X, self.pairs))
        return X, Z_in, self._spread(Lam, self.share, np.zeros_like(Z_in))

    def _spread(self, V, factor, out):
        """Write factor[k] * V[merged[k]] over input edge parallel[k] of
        ``out``: the transposed products of the class docstring, whose sums
        have at most one term."""
        rows = _scaled_rows(V, self.merged, factor)
        rows += 0.0  # a sum from 0.0 is never -0.0
        out[self.parallel] = rows
        return out


def _reduce(A, edges: EdgeSet, keep: np.ndarray, c_half: float) -> _Reduction:
    """The reduced problem over the edges ``keep`` marks: super-nodes of the
    rows the contraction rule proves equal at the minimizer (see the module
    docstring), one per row when no edge passes it."""
    m = edges.m
    kept = np.nonzero(keep)[0]
    span = float(np.ptp(A, axis=0).max())
    slack = 1.0 + _CONTRACT_EPS * kept.size
    label, size = np.arange(m), np.ones(m)
    kept_pairs, kept_weights = edges.pairs[kept], edges.weights[kept]
    pairs, weights = kept_pairs, kept_weights
    while pairs.shape[0]:
        G = size.size
        load = np.bincount(pairs[:, 0], weights, G) + np.bincount(pairs[:, 1], weights, G)
        # c_half * w > s * R + c_half * (W - w), with W - w not formed, as
        # it cancels where w carries nearly all of W
        bound = (size * span + c_half * load) * slack
        pull = 2.0 * c_half * weights
        fire = (pull > bound[pairs[:, 0]]) | (pull > bound[pairs[:, 1]])
        if not fire.any():
            break
        # the pairs ascend in their first node, as _components needs
        comp = _components(pairs[fire, 0], pairs[fire, 1], G)
        G = int(comp.max()) + 1
        label, size = comp[label], np.bincount(comp, size, G)
        pairs, weights = _merge(pairs, weights, comp, G)[:2]
    G = size.size
    pairs, weights, leaves, merged, forward = _merge(kept_pairs, kept_weights, label, G)
    parallel = kept[leaves]
    sign = np.where(forward, 1.0, -1.0)
    return _Reduction(
        label=label, size=size, edges=EdgeSet(G, pairs, weights), parallel=parallel,
        merged=merged, sign=sign, share=sign * edges.weights[parallel] / weights[merged],
        pairs=edges.pairs)


def _differences(X, pairs: np.ndarray) -> np.ndarray:
    out = np.take(X, pairs[:, 0], axis=0)
    out -= np.take(X, pairs[:, 1], axis=0)
    return out


def _unpenalized(A, edges: EdgeSet, screened: int) -> SolverState:
    """The exact answer when no edge is active: the fidelity minimizer X = A."""
    X = A.copy()
    Z = _differences(X, edges.pairs)
    return SolverState(X=X, Z=Z, Lam=np.zeros_like(Z), iters=1, final_change=0.0,
                       converged=True, history=np.zeros(1), screened=screened)


def admm_solve(A, edges: EdgeSet, cfg: SolverConfig, init: SolverState | None = None) -> SolverState:
    """Minimize the convex clustering objective by ADMM.

    Alternates an exact centroid update (one sparse factorization of
    S + nu*L, reused every iteration), a per-edge soft-threshold update of
    the split variables, and a step of the scaled dual U = Lam / nu.  Stops
    when the Frobenius change of the centroid matrix drops to ``cfg.tol``;
    hitting ``cfg.max_iter`` first is reported via ``converged=False``, not
    raised.  The loop runs on the reduced problem of screening and
    contraction (see the module docstring); the returned X, Z and Lam still
    have one row per input row and edge.

    ``init`` warm-starts all three blocks (regularization paths); the default
    start is all zeros.  ``init.Lam`` and the returned ``Lam`` are unscaled:
    U = Lam / nu on entry and Lam = nu * U on exit.  From a converged state
    the first centroid update reproduces that state's X, so a warm-started
    solve also waits for the primal residual ||Z - E X||_F to drop to
    ``cfg.tol``.  The solve is deterministic: no randomness anywhere.
    """
    A = check_data(A)
    m, n = A.shape
    if edges.m != m:
        raise ValueError(f"edge set is over {edges.m} nodes but data has {m} rows")
    E = edges.n_edges
    c_half = cfg.c / (2.0 * _fidelity_factor(cfg.convention))

    if E == 0 or c_half == 0.0:
        return _unpenalized(A, edges, screened=0)
    keep = _screen(A, edges, c_half)
    screened = E - int(np.count_nonzero(keep))
    if screened == E:
        return _unpenalized(A, edges, screened=E)
    red = _reduce(A, edges, keep, c_half)
    G, E = red.edges.m, red.edges.n_edges
    target = red.sums(A)
    # the stop measures the lifted change, ||sqrt(s) * dX||_F
    root = np.sqrt(red.size)[:, None]

    nu = cfg.nu
    lu = _factor(red.edges, nu, red.size)
    EincT = _incidence_transpose(red.edges.pairs, G)
    first, second = (np.ascontiguousarray(ends) for ends in red.edges.pairs.T)
    # soft_threshold(W, t) = W - clip(W, -t, t), with t spread to E x n once
    hi = np.ascontiguousarray(np.broadcast_to((c_half / nu) * red.edges.weights[:, None], (E, n)))
    lo = -hi

    if init is not None:
        X, Z, Lam = (np.asarray(v, dtype=float) for v in (init.X, init.Z, init.Lam))
        if X.shape != (m, n) or Z.shape != (edges.n_edges, n) or Lam.shape != Z.shape:
            raise ValueError("warm-start state shapes do not match problem")
        X, Z, U = red.restrict(X, Z, Lam / nu)
    else:
        X = np.zeros((G, n))
        Z = np.zeros((E, n))
        U = np.zeros((E, n))
    # Z and U are fresh arrays owned by this call, so the loop updates them in
    # place; D holds E X and W is the one E x n work buffer.
    D = np.empty((E, n))
    W = np.empty((E, n))

    history = np.empty(cfg.max_iter)
    converged = False
    change = np.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        np.add(Z, U, out=W)
        R = EincT @ W
        R *= nu
        R += target
        X_new = lu.solve(R)
        # D = E X_new, with W free until it takes D - U; mode="clip" writes
        # straight into out (the indices are in range)
        np.take(X_new, first, axis=0, out=D, mode="clip")
        np.take(X_new, second, axis=0, out=W, mode="clip")
        D -= W
        np.subtract(D, U, out=W)
        np.clip(W, lo, hi, out=Z)
        np.subtract(W, Z, out=Z)
        np.subtract(Z, D, out=W)
        U += W
        change = float(np.linalg.norm((X_new - X) * root))
        X = X_new
        history[it - 1] = change
        # W holds the primal residual Z - D; einsum keeps it off threaded BLAS
        if change <= cfg.tol and (init is None or np.sqrt(np.einsum("ij,ij->", W, W)) <= cfg.tol):
            converged = True
            break

    # free the factor and the loop's E x n buffers before lift allocates the
    # input-edge arrays
    del lu, EincT, D, W, hi, lo
    X, Z, Lam = red.lift(X, Z, nu * U)
    return SolverState(X=X, Z=Z, Lam=Lam, iters=it, final_change=change,
                       converged=converged, history=history[:it].copy(), screened=screened,
                       contracted=m - G)


def kkt_residual(A, X, edges: EdgeSet, c: float, convention: str = PAPER,
                 fuse_tol: float = 1e-8) -> float:
    """Distance of 0 from the subdifferential of the objective at X.

    For coordinates whose edge difference exceeds ``fuse_tol`` the l1
    subgradient is the fixed sign; for (near-)fused coordinates it is a free
    value in [-1, 1], chosen per column by bounded least squares to minimize
    the stationarity residual.  Zero certifies the exact minimizer.
    """
    A = check_data(A)
    X = np.asarray(X, dtype=float)
    if X.shape != A.shape:
        raise ValueError(f"X shape {X.shape} does not match data shape {A.shape}")
    a = _fidelity_factor(convention)
    grad_fid = 2.0 * a * (X - A)
    if edges.n_edges == 0 or c == 0:
        return float(np.linalg.norm(grad_fid))

    from scipy.optimize import lsq_linear  # imported here: it adds ~0.15 s to every start

    EincT = _incidence_transpose(edges.pairs, edges.m)
    D = _differences(X, edges.pairs)
    cw = c * edges.weights

    total = 0.0
    for q in range(A.shape[1]):
        dq = D[:, q]
        fixed = np.abs(dq) > fuse_tol
        sub = np.where(fixed, cw * np.sign(dq), 0.0)
        b = grad_fid[:, q] + EincT @ sub
        free = np.nonzero(~fixed)[0]
        if free.size == 0:
            total += float(b @ b)
            continue
        M = EincT[:, free].multiply(cw[free]).toarray()
        fit = lsq_linear(M, -b, bounds=(-1.0, 1.0), method="bvls",
                         max_iter=max(100, 3 * free.size))
        total += 2.0 * float(fit.cost)
    return float(np.sqrt(max(total, 0.0)))
