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
diameters, eps, tau pairs) and of a separation report uses that order.

Only the kernel weights depend on the bandwidth r.  The clusters are measured
once: sizes, diameters, cross-cluster distances and the mean differences
tau^{k,l}.  ``search_feasible_r`` then scans r with the bounds of the c
interval alone (kernel extremes, kappa_lower, kappa_upper and the sign
condition), which one function evaluates for the scan and for every report
alike, and builds one report, at the r it returns.  A report carries the
separation condition too, so a caller that has one need not measure again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .core import (_check_covariance, _check_labels, _check_number, center_columns, check_data,
                   first_occurrence_ranks)
from .metrics import SeparationStats, _product, _sqdist, cluster_geometry


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
    prep = _prepared(A, labels)
    return SeparationReport(separated=prep.separated, stats=prep.stats,
                            means_distinct=prep.means_distinct)


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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            sizes=list(self.sizes), diameters=list(self.diameters), eps=list(self.eps),
            tau=None if self.tau is None else self.tau.tolist(),
            tau_by_pair={f"{k},{l}": v.tolist() for (k, l), v in self.tau_by_pair.items()},
            zero_tau_dims={f"{k},{l}": list(v) for (k, l), v in self.zero_tau_dims.items()},
            notes=list(self.notes))
        return out


class _Prepared(NamedTuple):
    """The r-independent measurements of a labeled dataset of K >= 2 clusters
    and the facts derived from them: ``eps``, ``dist_max`` (the max pairwise
    cluster distance), ``r_min``, ``separated``, ``means_distinct`` and
    ``degenerate`` (every tau is zero).  ``within_d2`` is NaN when every
    cluster is a singleton, ``cross_d2`` is None unless K = 2, and
    ``min_abs_tau`` is +inf when degenerate."""

    sizes: tuple[int, ...]
    stats: SeparationStats
    within_d2: float
    cross_d2: np.ndarray | None
    tau_by_pair: dict[tuple[int, int], np.ndarray]
    zero_dims: dict[tuple[int, int], tuple[int, ...]]
    min_abs_tau: float
    eps: np.ndarray
    dist_max: float
    r_min: float
    separated: bool
    means_distinct: bool
    degenerate: bool


def _prepared(A, labels) -> _Prepared:
    """Number the (at least 2) clusters by first occurrence and measure them once."""
    A = check_data(A)
    labels = _check_labels(labels, A.shape[0])
    ranks = first_occurrence_ranks(labels)
    K = int(ranks.max()) + 1
    if K < 2:
        raise ValueError("separation needs at least 2 clusters")
    centered = center_columns(A)
    groups = [centered[ranks == k] for k in range(K)]
    sizes = tuple(g.shape[0] for g in groups)
    stats = cluster_geometry(A, ranks)
    means = [g.mean(axis=0) for g in groups]
    tau_by_pair = {(k, l): means[k] - means[l]
                   for k in range(len(means)) for l in range(k + 1, len(means))}
    zero_dims = {p: tuple(int(q) for q in np.nonzero(t == 0)[0]) for p, t in tau_by_pair.items()}
    min_abs_tau = min((float(np.abs(t[t != 0]).min()) for t in tau_by_pair.values() if t.any()),
                      default=math.inf)
    m, n = sum(sizes), np.asarray(sizes, dtype=np.int64)
    d = float(stats.pairwise_dist[np.triu_indices(K, k=1)].max())
    return _Prepared(
        sizes=sizes, stats=stats,
        within_d2=stats.max_dia ** 2 if max(sizes) >= 2 else math.nan,
        # stats.min_dist stays measured on the raw rows: the centered rows
        # round differently, and sqrt(cross_d2.min()) differs from it in the
        # last bit on some inputs (a 2-cluster ball model with m = 20, seed 0)
        cross_d2=_cross_d2(centered, ranks) if K == 2 else None,
        tau_by_pair=tau_by_pair, zero_dims=zero_dims, min_abs_tau=min_abs_tau,
        eps=(8.0 * (m - n) * (n - 1) + 4.0 * n ** 2) / (m * n.astype(float) ** 2),
        dist_max=d, r_min=r_lower_bound(sizes, d, stats.diameters),
        separated=bool(stats.min_dist > stats.max_dia),
        means_distinct=not any(zero_dims.values()), degenerate=min_abs_tau == math.inf,
    )


def _cross_d2(A, ranks) -> np.ndarray:
    """The squared distances between the rows of clusters 0 and 1 of A, as
    ``cdist(A[ranks == 0], A[ranks == 1], "sqeuclidean")`` gives them."""
    p, q = np.flatnonzero(ranks == 0), np.flatnonzero(ranks == 1)
    return _sqdist(A, _product(p, q)).reshape(p.size, q.size)


class _Bounds(NamedTuple):
    """The closed forms at one bandwidth r (the 2-cluster ones if ``two``)."""

    r: float
    two: bool
    gmin_w: float
    gmax_b: float
    rho: float | None
    lower: float
    upper: float
    feasible: bool


def _bounds(prep: _Prepared, r: float, two: bool) -> _Bounds:
    """Kernel extremes and the c interval at bandwidth r, by the 2-cluster
    formulas when ``two`` (which raises unless K = 2, after the bandwidth
    check) and by the K-cluster ones otherwise.  The bandwidth scan and every
    report evaluate them here, so they agree bit for bit."""
    _check_number("bandwidth r", r, 0)
    K = len(prep.sizes)
    if two and K != 2:
        raise ValueError(f"expected exactly 2 clusters, got {K}")
    m = sum(prep.sizes)
    gmin_w = float(np.exp(-r * prep.within_d2))
    if two:
        gamma_b = np.exp(-r * prep.cross_d2)
        gmax_b, rho = float(gamma_b.max()), float(gamma_b.mean())
        max_absdiff = float(np.abs(rho - gamma_b).max())
        upper = min((2.0 * prep.min_abs_tau / (m * x) for x in (max_absdiff, rho) if x > 0),
                    default=math.inf)
    else:
        gmax_b, rho = float(np.exp(-r * prep.stats.min_dist ** 2)), None
        upper = prep.min_abs_tau / (3.0 * m * gmax_b) if gmax_b > 0 else math.inf
    if prep.degenerate:
        upper = math.nan

    # kappa_lower = max_i eps_i dia_i / (gmin_w - 4 (m - m_i)/m_i gmax_b).  Every
    # denominator must be positive (sign condition); without within pairs
    # (gmin_w NaN) the bound is 0.
    n = np.asarray(prep.sizes, dtype=np.int64)
    denom = gmin_w - 4.0 * (m - n) / n * gmax_b
    sign_ok = not np.any(denom <= 0)
    if math.isnan(gmin_w):
        lower = 0.0
    elif sign_ok:
        lower = max(0.0, float((prep.eps * prep.stats.diameters / denom).max()))
    else:
        lower = math.inf
    return _Bounds(r, two, gmin_w, gmax_b, rho, lower, upper,
                   feasible=bool(sign_ok and not prep.degenerate and lower < upper))


def _report(prep: _Prepared, b: _Bounds) -> FeasibilityReport:
    """The full report at ``b.r`` from the bounds ``b`` that :func:`_bounds`
    evaluated, in their form (``b.two``); it evaluates no bound again."""
    two = b.two
    stats = prep.stats
    if two:
        notes = [(prep.degenerate, "all tau_q are zero: centered cluster means coincide, "
                                   "upper bound undefined")]
    else:
        notes = [(not prep.means_distinct, "cluster means are not distinct in every dimension: "
                                           "theorem hypothesis unmet"),
                 (prep.degenerate, "all tau vanish: no usable dimension for the upper bound"),
                 (prep.dist_max != stats.min_dist, "bandwidth bound uses d = max pairwise "
                  "cluster distance; the separation condition uses the min (both reported)")]
    return FeasibilityReport(
        n_clusters=len(prep.sizes), sizes=prep.sizes, r=float(b.r), r_min=prep.r_min,
        kappa_lower=b.lower, kappa_upper=b.upper, feasible=b.feasible,
        separated=prep.separated, dist_min=stats.min_dist, dist_max=prep.dist_max,
        diameters=tuple(float(x) for x in stats.diameters),
        eps=tuple(float(x) for x in prep.eps),
        gamma_min_within=b.gmin_w, gamma_max_between=b.gmax_b, rho=b.rho,
        tau=prep.tau_by_pair[(0, 1)] if two else None,
        tau_by_pair=prep.tau_by_pair, zero_tau_dims=prep.zero_dims,
        means_distinct=prep.means_distinct, degenerate=prep.degenerate,
        notes=tuple(text for applies, text in notes if applies),
    )


def c_interval_two(A, labels, r: float) -> FeasibilityReport:
    """Feasible c interval for a 2-cluster dataset at bandwidth r.

    kappa_upper minimizes 2|tau_q| / (m |rho - gamma_p|) and
    2|tau_q| / (m rho) over between pairs p and dimensions q with tau_q != 0;
    zero denominators are skipped as +inf.  If every tau_q is zero the
    centered cluster means coincide and the upper bound is undefined
    (degenerate report).
    """
    prep = _prepared(A, labels)
    return _report(prep, _bounds(prep, r, True))


def c_interval_k(A, labels, r: float) -> FeasibilityReport:
    """Feasible c interval for K >= 2 clusters at bandwidth r.

    The upper bound is min over cluster pairs (k, l) and dimensions q of
    |tau^{k,l}_q| / (3 m max_between(gamma)).  The bandwidth bound uses the
    literal d = max pairwise cluster distance of its statement, which
    disagrees with the min used by the separation condition; both distances
    are reported rather than silently reconciled.
    """
    prep = _prepared(A, labels)
    return _report(prep, _bounds(prep, r, False))


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
    _check_number("sample count m", m, 2)
    K = means.shape[0]
    covs = [np.asarray(S, dtype=float) for S in covariances]
    if len(covs) != K:
        raise ValueError("need one covariance per component")
    for S in covs:
        if S.shape != (means.shape[1], means.shape[1]):
            raise ValueError("covariance shape mismatch")
        _check_covariance(S)

    logm = math.log(m)
    root12 = math.sqrt(12.0 * logm)

    def spectral(S):
        return float(np.linalg.eigvalsh(S).max()) if S.size else 0.0

    within_term = max(
        math.sqrt(float(np.trace(S)) + float(np.linalg.norm(S)) * root12 + 6.0 * spectral(S) * logm)
        for S in covs
    )

    bounds = np.full((K, K), np.nan)
    for k in range(K):
        for l in range(k + 1, K):
            S = covs[k] + covs[l]
            pair = math.sqrt(spectral(S)) * root12 + (12.0 * logm) ** 0.25 * math.sqrt(float(np.linalg.norm(S)))
            bounds[k, l] = bounds[l, k] = pair + within_term

    min_dist = ball_condition(means).delta
    satisfied = bool(min_dist > np.nanmax(bounds))
    return GmmSeparationReport(pair_bounds=bounds, min_center_distance=min_dist,
                               satisfied=satisfied)


def feasibility_report(A, labels, r: float) -> FeasibilityReport:
    """Dispatch to the 2-cluster formulas when K = 2, else the K-cluster ones."""
    prep = _prepared(A, labels)
    return _report(prep, _bounds(prep, r, len(prep.sizes) == 2))


# Factor by which search_feasible_r grows r, and the most values it tries.
_R_GROWTH = 1.4
_R_TRIES = 60


def search_feasible_r(A, labels, r_start: float | None = None) -> FeasibilityReport:
    """Grow r geometrically from ``r_start`` until feasible; None or 0 starts
    just above the bandwidth bound (and at least at 1e-3).

    The clusters are measured once.  Each tried r evaluates only the bounds
    of the c interval, and one report is built, at the r returned.  The
    interval widens without bound as r grows on separated data, so the search
    terminates quickly; raises if no feasible r is found, which on separated
    data indicates a degenerate report (equal means).
    """
    prep = _prepared(A, labels)
    if not math.isfinite(prep.r_min):
        raise ValueError("no finite bandwidth bound: separation condition fails")
    r = r_start or max(prep.r_min * 1.05, 1e-3)
    for _ in range(_R_TRIES):
        b = _bounds(prep, r, len(prep.sizes) == 2)
        if b.feasible:
            return _report(prep, b)
        last, r = r, r * _R_GROWTH
    raise ValueError(f"no feasible r found after {_R_TRIES} tries (last r={float(last):.4g})")


def candidate_c_values(report: FeasibilityReport, count: int = 5) -> np.ndarray:
    """Log-spaced regularization candidates strictly inside the interval,
    ordered from the geometric middle outwards."""
    _check_number("candidate count", count, 1)
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
