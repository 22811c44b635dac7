"""Synthetic dataset generators and CSV I/O.

All generators are deterministic functions of (spec, seed) built on a
counter-based RNG (Philox), so outputs reproduce across platforms.  The
algorithm identifier is exported for embedding in run reports.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import (RNG_ALGORITHM, _check_covariance, _check_number, check_data,
                   first_occurrence_ranks, rng)

__all__ = [
    "RNG_ALGORITHM", "BallModelSpec", "GmmSpec", "stochastic_ball",
    "gaussian_mixture", "paper_gaussians", "embedded_circles",
    "load_csv", "save_csv",
]


@dataclass(frozen=True)
class BallModelSpec:
    """Clusters drawn i.i.d. from a rotation-invariant unit-ball distribution
    around the given centers."""

    centers: np.ndarray
    per_cluster: int
    distribution: str = "uniform_ball"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "centers", np.atleast_2d(np.asarray(self.centers, dtype=float)))
        if self.centers.shape[1] == 0 or not np.all(np.isfinite(self.centers)):
            raise ValueError("centers need at least one column and finite entries")
        _check_number("per_cluster", self.per_cluster, 1)
        if self.distribution not in ("uniform_ball", "uniform_sphere"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


def _unit_directions(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    v = gen.standard_normal((count, n))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):  # essentially never; keeps the map total
        bad = norms < 1e-12
        v[bad] = gen.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def stochastic_ball(spec: BallModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sample the ball model; returns (data, true labels).

    ``uniform_ball`` draws a uniform point of the unit ball (radius u^(1/n)
    for uniform u), ``uniform_sphere`` a uniform point of its boundary.
    Every sample lies within distance 1 of its cluster center.
    """
    gen = rng(spec.seed)
    K, n = spec.centers.shape
    rows = []
    labels = np.repeat(np.arange(K), spec.per_cluster)
    for k in range(K):
        dirs = _unit_directions(gen, spec.per_cluster, n)
        if spec.distribution == "uniform_ball":
            radii = gen.uniform(size=spec.per_cluster) ** (1.0 / n)
        else:
            radii = np.ones(spec.per_cluster)
        rows.append(spec.centers[k] + dirs * radii[:, None])
    A = np.vstack(rows)
    # support constraint is a hard guarantee of the model
    assert np.all(np.linalg.norm(A - spec.centers[labels], axis=1) <= 1.0 + 1e-12)
    return A, labels


@dataclass(frozen=True)
class GmmSpec:
    """Mixture of Gaussians: component i with probability weights[i]."""

    weights: np.ndarray
    means: np.ndarray
    covariances: tuple
    m: int
    seed: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        covs = tuple(np.asarray(S, dtype=float) for S in self.covariances)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", covs)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if np.any(w < 0):
            raise ValueError("mixture weights must be nonnegative")
        if mu.shape[0] != w.size or len(covs) != w.size:
            raise ValueError("need one mean and one covariance per component")
        for name, arrays in (("weights", [w]), ("means", [mu]), ("covariances", covs)):
            if not all(np.all(np.isfinite(a)) for a in arrays):
                raise ValueError(f"mixture {name} must be finite")
        _check_number("sample count", self.m, 1)


def _cov_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = _check_covariance(S)
    return V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T


def gaussian_mixture(spec: GmmSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sample the mixture; returns (data, component labels)."""
    gen = rng(spec.seed)
    roots = [_cov_sqrt(S) for S in spec.covariances]
    K, n = spec.means.shape
    labels = gen.choice(K, size=spec.m, p=spec.weights)
    z = gen.standard_normal((spec.m, n))
    A = np.empty((spec.m, n))
    for k in range(K):
        sel = labels == k
        A[sel] = spec.means[k] + z[sel] @ roots[k].T
    return A, labels


def paper_gaussians(sigma: float, seed: int = 0) -> tuple[np.ndarray, np.ndarray, float]:
    """The desk-scale Gaussian benchmark: 30 points in R^100, three equal
    clusters at 0, +3, -3 (per coordinate), spherical variance sigma^2.

    Returns (data, labels, r) with the recommended bandwidth
    r = 0.02 (2 sigma^2 + 5 sigma).
    """
    _check_number("sigma", sigma, 0, strict=True)
    n, per = 100, 10
    gen = rng(seed)
    mus = np.array([0.0, 3.0, -3.0])
    rows = [mus[k] * np.ones(n) + sigma * gen.standard_normal((per, n)) for k in range(3)]
    labels = np.repeat(np.arange(3), per)
    r = 0.02 * (2.0 * sigma ** 2 + 5.0 * sigma)
    return np.vstack(rows), labels, r


def embedded_circles(seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two embedded circles in the plane: 250 points from a standard 2-d
    Gaussian inside 250 points on a noisy ring (radius N(5, 0.25^2), angle
    uniform)."""
    gen = rng(seed)
    inner = gen.standard_normal((250, 2))
    radii = gen.normal(loc=5.0, scale=0.25, size=250)
    angles = gen.uniform(0.0, 2.0 * math.pi, size=250)
    outer = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    labels = np.repeat(np.arange(2), 250)
    return np.vstack([inner, outer]), labels


def save_csv(path, A, labels=None) -> None:
    """Write observations (and an optional trailing label column) as CSV.

    Values are written with shortest round-trip precision, so decimal-exact
    data reloads bit-identically.  UTF-8, comma separated, CRLF line ends;
    with labels, one header row ``x0, x1, ..., label``.  The file is written
    in one call, byte for byte as ``csv.writer`` writes it.
    """
    A = check_data(A)
    n = A.shape[1]
    cells = list(map(repr, A.ravel().tolist()))  # flat, as in load_csv
    lines = [",".join(cells[q:q + n]) for q in range(0, len(cells), n)]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (A.shape[0],):
            raise ValueError("labels length must match row count")
        lines = [",".join([f"x{q}" for q in range(n)] + ["label"])] + [
            f"{line},{int(label)}" for line, label in zip(lines, labels.tolist())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _is_number(cell: str) -> bool:
    """Whether ``float`` parses the cell."""
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path, label_column: str | int | None = None):
    """Read a rectangular numeric CSV; rows are observations.

    ``label_column`` (a header name, else a column index, given as an int or
    a string such as ``"2"``) is extracted as integer truth labels and
    excluded from the features.  Integer labels (``1`` and ``1.0`` alike) keep
    their values; a column with any other value (strings, fractions, inf, nan,
    beyond int64) maps to dense ids by first occurrence.  Ragged rows,
    non-numeric feature cells, and a missing label column are errors.  Returns
    (data, labels_or_None, header_or_None).
    """
    # one flat list of cells, not a list per row: hundreds of row lists alive
    # at once set off young collections, which promote them to older ones
    cells, widths = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row:
                cells += row
                widths.append(len(row))
    if not widths:
        raise ValueError(f"{path}: empty CSV")
    if len(set(widths)) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(set(widths))})")
    width, count = widths[0], len(widths)

    header: list[str] | None = None
    if not all(map(_is_number, cells[:width])):
        header = [c.strip() for c in cells[:width]]
        del cells[:width]
        count -= 1
        if not count:
            raise ValueError(f"{path}: header but no data rows")

    labels = None
    if label_column is not None:
        if header is not None and label_column in header:
            label_idx = header.index(label_column)
        else:
            try:
                label_idx = int(label_column)
            except ValueError:
                raise ValueError(f"{path}: label column {label_column!r} not found") from None
            if not -width <= label_idx < width:
                raise ValueError(f"{path}: label column index {label_idx} out of range")
        column = slice(label_idx % width, None, width)
        label_cells = [c.strip() for c in cells[column]]
        del cells[column]
        width -= 1
        if header is not None:
            header.pop(label_idx)
        try:
            values = [float(s) for s in label_cells]
            integral = all(v.is_integer() and -2.0**63 <= v < 2.0**63 for v in values)
        except ValueError:  # strings
            values, integral = label_cells, False
        labels = np.array(values, dtype=np.int64) if integral else first_occurrence_ranks(values)

    try:
        A = np.array(cells, dtype=float)  # parses each cell as float() does
    except ValueError:  # name the first cell that does not parse
        for q, cell in enumerate(cells):
            if not _is_number(cell):
                raise ValueError(f"{path}: non-numeric feature cell {cell!r} "
                                 f"in data row {q // width + 1}")
        raise
    return check_data(A.reshape(count, width)), labels, header
