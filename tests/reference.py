"""Dense all-pairs references for the k-NN graph, cluster extraction and the
theory interval quantities, the unscaled ADMM loop and its merit function.

Each builds the O(m^2) (or O(m^2 n)) intermediate the package avoids: the
full squared-distance matrix ranked by a stable argsort, the thresholded
``pdist`` adjacency, and the paper's B = D A~ restricted to the pair index
sets.  Shares no code path with the package's k-d tree, connected-components
or closed-form cluster-mean code.  The interval lower bound is also evaluated
one cluster at a time, as a loop reference for the package's array form, and
linkage clustering updates one upper-triangle entry at a time.  The ADMM
reference iterates the unscaled multiplier Lam with the sign-form
soft-threshold, against the package's scaled-dual loop; it shares only the
factor of S + nu*L and the super-node reduction with the package, so both
loops run on the same factor of the same problem, and it forms E X and
E^T W as products with its own incidence matrix.  That factor in turn has a
reference: SuperLU's general-matrix default, on S + nu * E^T E formed from
incidence products.

Cluster geometry has a reference in ``pdist``/``cdist`` one cluster and one
cluster pair at a time, and CSV output in ``csv.writer`` one row at a time.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial.distance import cdist, pdist, squareform

from convexcluster.core import (center_columns, check_data, difference_operator,
                                first_occurrence_ranks, index_sets)
from convexcluster.solver import (PAPER, SolverConfig, SolverState, _factor, _fidelity_factor,
                                  _reduce, incidence)


def cluster_geometry_scipy(A, labels):
    """(diameters, K x K minimum cross distances) of the clusters of A in
    sorted label order: ``pdist(G).max()`` and ``cdist(G, H).min()``."""
    values = np.unique(labels)
    groups = [A[labels == v] for v in values]
    diam = np.array([pdist(G).max() if len(G) >= 2 else 0.0 for G in groups])
    dist = np.zeros((values.size, values.size))
    for k in range(values.size):
        for l in range(k + 1, values.size):
            dist[k, l] = dist[l, k] = cdist(groups[k], groups[l]).min()
    return diam, dist


def csv_writer_bytes(A, labels=None) -> bytes:
    """The CSV ``csv.writer`` writes for A (and a trailing label column with
    its header), one row at a time."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    if labels is not None:
        w.writerow([f"x{q}" for q in range(A.shape[1])] + ["label"])
    for i in range(A.shape[0]):
        w.writerow([repr(float(v)) for v in A[i]]
                   + ([] if labels is None else [str(int(labels[i]))]))
    return buf.getvalue().encode("utf-8")


def knn_edges_dense(A, r: float, k: int):
    """(pairs, weights) of the union k-NN graph; ties go to the lower index."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    d2 = pdist(A, metric="sqeuclidean")
    full = squareform(d2)
    np.fill_diagonal(full, np.inf)
    nearest = np.argsort(full, axis=1, kind="stable")[:, :k]
    keep = np.zeros((m, m), dtype=bool)
    keep[np.repeat(np.arange(m), k), nearest.ravel()] = True
    keep |= keep.T
    ii, jj = np.triu_indices(m, k=1)
    mask = keep[ii, jj]
    return np.column_stack([ii[mask], jj[mask]]), np.exp(-r * d2[mask])


def threshold_components_dense(X, merge_tol: float) -> np.ndarray:
    """Components of the graph ``pdist(X) <= merge_tol``, numbered by first occurrence."""
    close = squareform(pdist(np.asarray(X, dtype=float)) <= merge_tol)
    m = close.shape[0]
    labels = np.full(m, -1, dtype=np.int64)
    k = 0
    for start in range(m):
        if labels[start] >= 0:
            continue
        labels[start] = k
        stack = [start]
        while stack:
            fresh = np.nonzero(close[stack.pop()] & (labels < 0))[0]
            labels[fresh] = k
            stack.extend(fresh.tolist())
        k += 1
    return labels


def tau_gamma_dense(A, labels, r: float) -> dict:
    """tau^{k,l}, the extreme kernel weights and rho from B = D A~.

    Rows are permuted to contiguous blocks (clusters in first-occurrence
    order) so the pair index sets apply; tau^{k,l} is the sum of the
    between rows of B over m_k m_l, as the paper defines it.
    """
    A = np.asarray(A, dtype=float)
    perm = np.argsort(first_occurrence_ranks(labels), kind="stable")
    sets = index_sets(np.asarray(labels)[perm])
    B = np.asarray(difference_operator(A.shape[0]) @ center_columns(A[perm]))
    gamma = np.exp(-r * np.sum(B ** 2, axis=1))
    within, between = sets.within_rows(), sets.between_rows()
    sizes = sets.sizes
    tau = {(k, l): B[sets.pair_rows(k, l)].sum(axis=0) / (sizes[k] * sizes[l])
           for (k, l) in sets.between_by_pair}
    return {
        "tau_by_pair": tau,
        "gamma_min_within": float(gamma[within].min()) if within.size else float("nan"),
        "gamma_max_between": float(gamma[between].max()),
        "rho": float(gamma[between].sum() / (sizes[0] * sizes[1])) if len(sizes) == 2 else None,
    }


def kappa_lower_loop(gmin_w: float, gmax_b: float, sizes, diameters) -> float:
    """max_i eps_i dia_i / (gmin_w - 4 (m - m_i)/m_i gmax_b), one cluster at a
    time; +inf when a denominator is not positive, 0 without within pairs."""
    if np.isnan(gmin_w):
        return 0.0
    m = sum(sizes)
    lower = 0.0
    for size, dia in zip(sizes, diameters):
        eps = (8.0 * (m - size) * (size - 1) + 4.0 * size ** 2) / (m * float(size) ** 2)
        denom = gmin_w - 4.0 * (m - size) / size * gmax_b
        if denom <= 0:
            return float("inf")
        lower = max(lower, eps * dia / denom)
    return lower


def hierarchical_loop(A, k: int, linkage: str) -> np.ndarray:
    """Agglomerative merge ids on the upper triangle, one entry per update.

    Ties go to the lexicographically smallest (a, b) by the row-major
    ``argmin``; a merged cluster keeps slot a, its smallest member."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    work = squareform(pdist(A))
    work[np.tril_indices(m)] = np.inf
    sizes = np.ones(m)
    member_of = np.arange(m)
    active = np.ones(m, dtype=bool)
    for _ in range(m - k):
        a, b = divmod(int(np.argmin(work)), m)
        for s in np.nonzero(active)[0]:
            if s in (a, b):
                continue
            da = work[min(a, s), max(a, s)]
            db = work[min(b, s), max(b, s)]
            if linkage == "single":
                new = min(da, db)
            else:
                new = (sizes[a] * da + sizes[b] * db) / (sizes[a] + sizes[b])
            work[min(a, s), max(a, s)] = new
        sizes[a] += sizes[b]
        active[b] = False
        work[b, :] = np.inf
        work[:, b] = np.inf
        member_of[member_of == b] = a
    return member_of


def soft_threshold_sign(v, t):
    """sign(v) * max(|v| - t, 0), elementwise."""
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("soft-threshold amount must be >= 0")
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def general_factor(edges, nu: float, fidelity):
    """``solver._factor`` as for a general matrix built from incidence
    products: SuperLU's default COLAMD ordering with partial pivoting."""
    Einc = incidence(edges)
    lap = (Einc.T @ Einc).tocsc()
    return splu((sp.diags(fidelity, format="csc") + nu * lap).tocsc())


def augmented_lagrangian(A, X, Z, Lam, edges, c: float, nu: float,
                         convention: str = PAPER) -> float:
    """The merit function the ADMM blocks minimize (always half fidelity).

    With the paper convention the penalty weight is c/2, matching the
    internal rescaling of ``admm_solve``.
    """
    # paper objective = 2 * (half objective with c/2), so the internal
    # half-fidelity penalty weight is c / (2a)
    c_half = c / (2.0 * _fidelity_factor(convention))
    D = X[edges.pairs[:, 0]] - X[edges.pairs[:, 1]]
    R = Z - D
    val = 0.5 * float(np.sum((A - X) ** 2))
    val += c_half * float(edges.weights @ np.abs(Z).sum(axis=1))
    val += float(np.sum(Lam * R))
    val += 0.5 * nu * float(np.sum(R ** 2))
    return val


def admm_unscaled(A, edges, cfg: SolverConfig, init: SolverState | None = None) -> SolverState:
    """ADMM with the unscaled multiplier: Lam / nu in the split update and
    Lam + nu (Z - D) in the dual step, every iteration.

    Screens no edge, but solves the same contracted problem as the package
    (``solver._reduce`` with every edge kept: fidelity weights s, merged
    edges, the lifted stop ||sqrt(s) * dX||_F), with the same warm-start
    primal-residual stop, and lifts the result the same way."""
    A = check_data(A)
    m, n = A.shape
    if edges.m != m:
        raise ValueError(f"edge set is over {edges.m} nodes but data has {m} rows")
    E = edges.n_edges
    c_half = cfg.c / (2.0 * _fidelity_factor(cfg.convention))

    if E == 0 or c_half == 0.0:
        X = A.copy()
        D = X[edges.pairs[:, 0]] - X[edges.pairs[:, 1]] if E else np.zeros((0, n))
        return SolverState(X=X, Z=D, Lam=np.zeros((E, n)), iters=1,
                           final_change=0.0, converged=True, history=np.zeros(1))

    red = _reduce(A, edges, np.ones(E, dtype=bool), c_half)
    target, root = red.sums(A), np.sqrt(red.size)[:, None]
    lu = _factor(red.edges, cfg.nu, red.size)
    Einc = incidence(red.edges)
    EincT = Einc.T.tocsr()
    thresh = (c_half / cfg.nu) * red.edges.weights[:, None]

    if init is not None:
        X, Z, Lam = (np.asarray(v, dtype=float) for v in (init.X, init.Z, init.Lam))
        if X.shape != (m, n) or Z.shape != (E, n) or Lam.shape != (E, n):
            raise ValueError("warm-start state shapes do not match problem")
        X, Z, Lam = red.restrict(X, Z, Lam)
    else:
        X = np.zeros((red.edges.m, n))
        Z = np.zeros((red.edges.n_edges, n))
        Lam = np.zeros((red.edges.n_edges, n))

    history = np.empty(cfg.max_iter)
    converged = False
    change = np.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        rhs = target + EincT @ (cfg.nu * Z + Lam)
        X_new = lu.solve(rhs)
        D = Einc @ X_new
        Z = soft_threshold_sign(D - Lam / cfg.nu, thresh)
        resid = Z - D
        Lam = Lam + cfg.nu * resid
        change = float(np.linalg.norm((X_new - X) * root))
        X = X_new
        history[it - 1] = change
        if change <= cfg.tol and (
                init is None or np.sqrt(np.einsum("ij,ij->", resid, resid)) <= cfg.tol):
            converged = True
            break

    X, Z, Lam = red.lift(X, Z, Lam)
    return SolverState(X=X, Z=Z, Lam=Lam, iters=it, final_change=change,
                       converged=converged, history=history[:it].copy())
