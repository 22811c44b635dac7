"""Computable exact-recovery conditions for the weighted l1 clustering model.

Everything here evaluates closed-form quantities of a *labeled* dataset: the
deterministic separation condition, the kernel-bandwidth lower bound, the
feasible regularization interval [kappa_lower(r), kappa_upper(r)], the
stochastic-ball center condition, and the Gaussian-mixture separation bound.
All regularization values are in the ``paper`` objective convention
(fidelity ||A - X||_F^2); the solver converts internally when driven with
that convention.

The interval formulas are evaluated on the column-centered data A~, which
leaves every reported quantity unchanged.  Clusters are numbered by first
occurrence in ``labels``, and every per-cluster field of a report (sizes,
diameters, eps, tau pairs) uses that order.  No C(m,2)-row B = D A~ is built:
tau^{k,l}, the sum of the between rows of B over m_k m_l, is the difference of
the centered cluster means, and kernel weights come from per-cluster ``pdist``
and between-cluster ``cdist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import center_columns, check_data, first_occurrence_ranks
from .metrics import SeparationStats, cluster_geometry, _check_labels


@dataclass(frozen=True)
class SeparationReport:
    """Deterministic separation condition plus the distinct-means hypothesis."""

    separated: bool
    stats: SeparationStats
    means_distinct: bool


def separation_check(A, labels) -> SeparationReport:
    """min cross-cluster distance strictly above the largest diameter.

    Also reports whether the cluster means are pairwise distinct in every
    dimension, the extra hypothesis the K-cluster guarantee needs.
    """
    A = check_data(A)
    labels = _check_labels(labels, A.shape[0])
    values = np.unique(labels)
    if values.size < 2:
        raise ValueError("separation needs at least 2 clusters")
    stats = cluster_geometry(A, labels)
    _, zero_dims, _ = _mean_differences([A[labels == v] for v in values])
    return SeparationReport(separated=bool(stats.min_dist > stats.max_dia),
                            stats=stats, means_distinct=not any(zero_dims.values()))


def r_lower_bound(sizes, d: float, diameters) -> float:
    """Bandwidth lower bound max_i ln(4(m - m_i)/m_i) / (d^2 - l_i^2).

    Returns +inf when d does not exceed every diameter (no finite bandwidth
    is certified).  A negative value means any positive bandwidth suffices.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    diameters = np.asarray(diameters, dtype=float)
    if sizes.size != diameters.size or sizes.size < 2:
        raise ValueError("need one size and one diameter per cluster, K >= 2")
    m = int(sizes.sum())
    if np.any(d <= diameters):
        return math.inf
    terms = np.log(4.0 * (m - sizes) / sizes) / (d ** 2 - diameters ** 2)
    return float(terms.max())


@dataclass(frozen=True)
class FeasibilityReport:
    """Feasible (r, c) information for a labeled dataset at bandwidth r.

    ``kappa_lower``/``kappa_upper`` bound the regularization weight c (paper
    convention).  ``feasible`` additionally requires every sign condition in
    the lower bound's denominators; an infeasible report carries
    kappa_lower = +inf.  ``tau_by_pair`` maps each cluster pair to the vector
    of per-dimension mean differences; dimensions where it vanishes are in
    ``zero_tau_dims`` and excluded from the upper-bound minimization.
    """

    n_clusters: int
    sizes: tuple[int, ...]
    r: float
    r_min: float
    kappa_lower: float
    kappa_upper: float
    feasible: bool
    separated: bool
    dist_min: float
    dist_max: float
    diameters: tuple[float, ...]
    eps: tuple[float, ...]
    gamma_min_within: float
    gamma_max_between: float
    rho: float | None
    tau: np.ndarray | None
    tau_by_pair: dict[tuple[int, int], np.ndarray] = field(repr=False)
    zero_tau_dims: dict[tuple[int, int], tuple[int, ...]] = field(repr=False)
    means_distinct: bool = True
    degenerate: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "n_clusters": self.n_clusters,
            "sizes": list(self.sizes),
            "r": self.r,
            "r_min": self.r_min,
            "kappa_lower": self.kappa_lower,
            "kappa_upper": self.kappa_upper,
            "feasible": self.feasible,
            "separated": self.separated,
            "dist_min": self.dist_min,
            "dist_max": self.dist_max,
            "diameters": list(self.diameters),
            "eps": list(self.eps),
            "gamma_min_within": self.gamma_min_within,
            "gamma_max_between": self.gamma_max_between,
            "rho": self.rho,
            "tau": None if self.tau is None else self.tau.tolist(),
            "tau_by_pair": {f"{k},{l}": v.tolist() for (k, l), v in self.tau_by_pair.items()},
            "zero_tau_dims": {f"{k},{l}": list(v) for (k, l), v in self.zero_tau_dims.items()},
            "means_distinct": self.means_distinct,
            "degenerate": self.degenerate,
            "notes": list(self.notes),
        }


def _epsilons(sizes: np.ndarray) -> np.ndarray:
    m = sizes.sum()
    return (8.0 * (m - sizes) * (sizes - 1) + 4.0 * sizes ** 2) / (m * sizes.astype(float) ** 2)


def _prepared(A, labels):
    """Number clusters by first occurrence and split the centered rows by cluster.

    Returns the data, the labels renumbered 0..K-1 in first-occurrence order,
    the cluster sizes, each cluster's centered rows (input order kept) and the
    largest within-cluster squared distance (NaN when no cluster has 2 rows).
    """
    A = check_data(A)
    labels = _check_labels(labels, A.shape[0])
    ranks = first_occurrence_ranks(labels)
    centered = center_columns(A).centered
    groups = [centered[ranks == k] for k in range(ranks.max() + 1)]
    within = [pdist(g, "sqeuclidean").max() for g in groups if g.shape[0] >= 2]
    within_d2 = float(max(within)) if within else math.nan
    return A, ranks, tuple(g.shape[0] for g in groups), groups, within_d2


def _mean_differences(groups):
    """tau^{k,l} = mean_k - mean_l for every cluster pair k < l.

    Returns the taus, the dimensions where each vanishes, and the smallest
    nonzero |tau_q| over all pairs (+inf when every tau is zero).
    """
    means = [g.mean(axis=0) for g in groups]
    tau_by_pair = {(k, l): means[k] - means[l]
                   for k in range(len(means)) for l in range(k + 1, len(means))}
    zero_dims = {p: tuple(int(q) for q in np.nonzero(t == 0)[0]) for p, t in tau_by_pair.items()}
    nonzero = np.abs(np.concatenate([t[t != 0] for t in tau_by_pair.values()]))
    return tau_by_pair, zero_dims, float(nonzero.min()) if nonzero.size else math.inf


def _kappa_lower(gmin_w: float, gmax_b: float, sizes, diameters) -> tuple[float, bool]:
    """max over clusters of eps_i * dia_i / denominator.

    Every denominator gmin_w - 4 (m - m_i)/m_i * gmax_b must be positive;
    otherwise the sign condition fails and the pair is infeasible.  Without
    within pairs (gmin_w is NaN) the bound is 0.
    """
    if math.isnan(gmin_w):
        return 0.0, True
    sizes = np.asarray(sizes, dtype=np.int64)
    m = int(sizes.sum())
    eps = _epsilons(sizes)
    lower = 0.0
    for i in range(sizes.size):
        denom = gmin_w - 4.0 * (m - sizes[i]) / sizes[i] * gmax_b
        if denom <= 0:
            return math.inf, False
        lower = max(lower, eps[i] * float(diameters[i]) / denom)
    return lower, True


def _report(r, sizes, stats, dist_max, gmin_w, gmax_b, upper, degenerate,
            **fields) -> FeasibilityReport:
    """Lower bound, bandwidth bound, feasibility and the per-cluster fields
    that the 2- and K-cluster formulas share; ``dist_max`` is the cluster
    distance the bandwidth bound uses."""
    lower, sign_ok = _kappa_lower(gmin_w, gmax_b, sizes, stats.diameters)
    return FeasibilityReport(
        n_clusters=len(sizes), sizes=sizes, r=float(r),
        r_min=r_lower_bound(sizes, dist_max, stats.diameters),
        kappa_lower=lower, kappa_upper=upper,
        feasible=bool(sign_ok and not degenerate and lower < upper),
        separated=bool(stats.min_dist > stats.max_dia),
        dist_min=stats.min_dist, dist_max=dist_max,
        diameters=tuple(float(x) for x in stats.diameters),
        eps=tuple(float(x) for x in _epsilons(np.asarray(sizes, dtype=np.int64))),
        gamma_min_within=gmin_w, gamma_max_between=gmax_b, degenerate=degenerate, **fields,
    )


def c_interval_two(A, labels, r: float) -> FeasibilityReport:
    """Feasible c interval for a 2-cluster dataset at bandwidth r.

    kappa_upper minimizes 2|tau_q| / (m |rho - gamma_p|) and
    2|tau_q| / (m rho) over between pairs p and dimensions q with tau_q != 0;
    zero denominators are skipped as +inf.  If every tau_q is zero the
    centered cluster means coincide and the upper bound is undefined
    (degenerate report).
    """
    if r < 0:
        raise ValueError(f"bandwidth r must be >= 0, got {r}")
    A, ranks, sizes, groups, within_d2 = _prepared(A, labels)
    if len(sizes) != 2:
        raise ValueError(f"expected exactly 2 clusters, got {len(sizes)}")
    m = sum(sizes)
    gamma_b = np.exp(-r * cdist(groups[0], groups[1], "sqeuclidean"))
    gmax_b = float(gamma_b.max())
    gmin_w = float(np.exp(-r * within_d2))
    tau_by_pair, zero_dims, min_abs_tau = _mean_differences(groups)
    tau = tau_by_pair[(0, 1)]
    rho = float(gamma_b.mean())
    stats = cluster_geometry(A, ranks)

    notes = []
    degenerate = min_abs_tau == math.inf
    if degenerate:
        upper = math.nan
        notes.append("all tau_q are zero: centered cluster means coincide, upper bound undefined")
    else:
        candidates = []
        max_absdiff = float(np.abs(rho - gamma_b).max())
        if max_absdiff > 0:
            candidates.append(2.0 * min_abs_tau / (m * max_absdiff))
        if rho > 0:
            candidates.append(2.0 * min_abs_tau / (m * rho))
        upper = min(candidates) if candidates else math.inf

    return _report(r, sizes, stats, stats.min_dist, gmin_w, gmax_b, upper, degenerate,
                   rho=rho, tau=tau, tau_by_pair=tau_by_pair, zero_tau_dims=zero_dims,
                   means_distinct=not zero_dims[(0, 1)], notes=tuple(notes))


def c_interval_k(A, labels, r: float) -> FeasibilityReport:
    """Feasible c interval for K >= 2 clusters at bandwidth r.

    The upper bound is min over cluster pairs (k, l) and dimensions q of
    |tau^{k,l}_q| / (3 m max_between(gamma)).  The bandwidth bound uses the
    literal d = max pairwise cluster distance of its statement, which
    disagrees with the min used by the separation condition; both distances
    are reported rather than silently reconciled.
    """
    if r < 0:
        raise ValueError(f"bandwidth r must be >= 0, got {r}")
    A, ranks, sizes, groups, within_d2 = _prepared(A, labels)
    K = len(sizes)
    if K < 2:
        raise ValueError(f"expected at least 2 clusters, got {K}")
    m = sum(sizes)
    tau_by_pair, zero_dims, min_abs_tau = _mean_differences(groups)
    between_d2 = min(cdist(groups[k], groups[l], "sqeuclidean").min() for k, l in tau_by_pair)
    gmax_b = float(np.exp(-r * between_d2))
    gmin_w = float(np.exp(-r * within_d2))
    stats = cluster_geometry(A, ranks)

    notes = []
    means_distinct = not any(zero_dims.values())
    if not means_distinct:
        notes.append("cluster means are not distinct in every dimension: theorem hypothesis unmet")
    degenerate = min_abs_tau == math.inf
    if degenerate:
        upper = math.nan
        notes.append("all tau vanish: no usable dimension for the upper bound")
    elif gmax_b > 0:
        upper = min_abs_tau / (3.0 * m * gmax_b)
    else:
        upper = math.inf

    dist_max = float(stats.pairwise_dist[np.triu_indices(K, k=1)].max())
    if dist_max != stats.min_dist:
        notes.append("bandwidth bound uses d = max pairwise cluster distance; "
                     "the separation condition uses the min (both reported)")
    return _report(r, sizes, stats, dist_max, gmin_w, gmax_b, upper, degenerate,
                   rho=None, tau=None, tau_by_pair=tau_by_pair, zero_tau_dims=zero_dims,
                   means_distinct=means_distinct, notes=tuple(notes))


class BallCheck(NamedTuple):
    satisfied: bool
    delta: float


def ball_condition(centers) -> BallCheck:
    """Unit-ball center condition: min pairwise center distance >= 4."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ValueError("need at least 2 centers")
    delta = math.inf
    for i in range(centers.shape[0]):
        for j in range(i + 1, centers.shape[0]):
            delta = min(delta, float(np.linalg.norm(centers[i] - centers[j])))
    return BallCheck(satisfied=delta >= 4.0, delta=delta)


@dataclass(frozen=True)
class GmmSeparationReport:
    pair_bounds: np.ndarray
    min_center_distance: float
    satisfied: bool


def gmm_separation_bound(means, covariances, m: int) -> GmmSeparationReport:
    """Required center separation for a Gaussian mixture with m samples.

    For each component pair (k, l), with S = Sigma_k + Sigma_l and t = ln m:

        bound = ||S||^(1/2) sqrt(12 t) + (12 t)^(1/4) ||S||_F^(1/2)
                + max_i sqrt(Tr Sigma_i + ||Sigma_i||_F sqrt(12 t)
                             + 6 ||Sigma_i|| t)

    Exceeding every pair bound guarantees (with probability > 1 - 3/m) that
    all cross-cluster sample distances exceed all within-cluster ones.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim != 2 or means.shape[0] < 2:
        raise ValueError("need at least 2 component means")
    if m < 2:
        raise ValueError(f"sample count m must be >= 2, got {m}")
    K = means.shape[0]
    covs = [np.asarray(S, dtype=float) for S in covariances]
    if len(covs) != K:
        raise ValueError("need one covariance per component")
    for S in covs:
        if S.shape != (means.shape[1], means.shape[1]):
            raise ValueError("covariance shape mismatch")
        if not np.allclose(S, S.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        w = np.linalg.eigvalsh(S)
        if w.min() < -1e-10 * max(1.0, abs(w.max())):
            raise ValueError("covariance must be positive semidefinite")

    logm = math.log(m)
    root12 = math.sqrt(12.0 * logm)

    def spectral(S):
        return float(np.linalg.eigvalsh(S).max()) if S.size else 0.0

    within_term = max(
        math.sqrt(float(np.trace(S)) + float(np.linalg.norm(S)) * root12 + 6.0 * spectral(S) * logm)
        for S in covs
    )

    bounds = np.full((K, K), np.nan)
    min_dist = math.inf
    for k in range(K):
        for l in range(k + 1, K):
            S = covs[k] + covs[l]
            pair = math.sqrt(spectral(S)) * root12 + (12.0 * logm) ** 0.25 * math.sqrt(float(np.linalg.norm(S)))
            bounds[k, l] = bounds[l, k] = pair + within_term
            min_dist = min(min_dist, float(np.linalg.norm(means[k] - means[l])))

    satisfied = bool(min_dist > np.nanmax(bounds))
    return GmmSeparationReport(pair_bounds=bounds, min_center_distance=min_dist,
                               satisfied=satisfied)


def feasibility_report(A, labels, r: float) -> FeasibilityReport:
    """Dispatch to the 2-cluster formulas when K = 2, else the K-cluster ones."""
    labels = np.asarray(labels)
    K = np.unique(labels).size
    if K == 2:
        return c_interval_two(A, labels, r)
    return c_interval_k(A, labels, r)


def search_feasible_r(A, labels, r_start: float | None = None, growth: float = 1.4,
                      max_tries: int = 60) -> FeasibilityReport:
    """Grow r geometrically from just above the bandwidth bound until feasible.

    The interval widens without bound as r grows on separated data, so the
    search terminates quickly; raises if no feasible r is found, which on
    separated data indicates a degenerate report (equal means).
    """
    probe = feasibility_report(A, labels, 0.0)
    if not math.isfinite(probe.r_min):
        raise ValueError("no finite bandwidth bound: separation condition fails")
    r = r_start if r_start is not None else max(probe.r_min * 1.05, 1e-3)
    last = probe
    for _ in range(max_tries):
        last = feasibility_report(A, labels, r)
        if last.feasible:
            return last
        r *= growth
    raise ValueError(f"no feasible r found after {max_tries} tries (last r={last.r:.4g})")


def candidate_c_values(report: FeasibilityReport, count: int = 5) -> np.ndarray:
    """Log-spaced regularization candidates strictly inside the interval,
    ordered from the geometric middle outwards."""
    if not report.feasible:
        raise ValueError("report is infeasible: no c interval to sample")
    hi = report.kappa_upper
    lo = report.kappa_lower
    if not math.isfinite(hi):
        hi = max(lo, 1.0) * 1e6
    lo = max(lo, hi * 1e-9)
    lo *= 1.0 + 1e-9
    hi *= 1.0 - 1e-9
    if count == 1 or lo >= hi:
        return np.array([math.sqrt(lo * hi)])
    grid = np.geomspace(lo, hi, count)
    order = np.argsort(np.abs(np.log(grid) - math.log(math.sqrt(lo * hi))), kind="stable")
    return grid[order]
