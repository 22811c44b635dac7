"""The benchmark's workloads: input generation, the program call and its checks.

Every problem's inputs come from ``datagen`` with a seed derived from the
workload seed and the problem index.  CLI workloads write the data as a CSV
and call ``convexcluster.cli.main`` in process; ``gauss-paper`` drives the
library calls of the acceptance pipeline.  ``small=True`` shrinks every input
so the whole harness runs in seconds (smoke mode).

Why each workload exists, and which layer it isolates:

- circles-bench: the paper's Table 1 through CLI ``bench``.  Cold-started
  c-selection makes solver iterations dominate, with a sparse graph in n=2
  and the k-means / hierarchical baselines alongside.
- gauss-paper: 30x100 Gaussians, full graph.  Per-iteration elementwise cost
  dominates; weights and extraction are negligible (their control).
- ball-knn-large: CLI ``cluster`` at m=3000 with k-NN 10.  O(m^2) edge
  construction and extraction dominate; the solve is short.
- ball-feasibility: CLI ``feasibility`` at m=600.  No solve; the theory
  interval search is the whole cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from convexcluster import baselines, cli, datagen, extraction, metrics, solver, theory, weights

# the c02 centers: Delta = 4.5
_ANGLE = 0.198
BALL_CENTERS = ((0.0, 0.0), (4.5 * math.cos(_ANGLE), 4.5 * math.sin(_ANGLE)), (1.8, 6.0))


def problem_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Problem(NamedTuple):
    """One generated input.  ``call`` is the timed part and returns the
    program's output as text; ``check`` turns that text into a quality value
    and the names of the checks that failed."""

    seed: int
    call: Callable[[], str]
    check: Callable[[str], tuple[float, list[str]]]


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return json.dumps({"exit": code, "stdout": out.getvalue()})


def _cli_report(text: str) -> tuple[int, dict]:
    raw = json.loads(text)
    try:
        report = json.loads(raw["stdout"])
    except ValueError:
        report = {}
    return raw["exit"], report


def _ball_csv(pseed: int, per_cluster: int, path: Path) -> None:
    spec = datagen.BallModelSpec(centers=np.array(BALL_CENTERS), per_cluster=per_cluster,
                                 seed=pseed)
    A, labels = datagen.stochastic_ball(spec)
    datagen.save_csv(path, A, labels=labels)


# ---------------------------------------------------------------- circles-bench

def circles_bench(pseed: int, work: Path, small: bool) -> Problem:
    A, labels = datagen.embedded_circles(seed=pseed)
    if small:
        A, labels = A[::5], labels[::5]
    path = work / "circles.csv"
    datagen.save_csv(path, A, labels=labels)
    argv = ["bench", str(path), "--r", "3", "--knn", "10", "--tol", "1e-5",
            "--c-min", "1", "--c-max", "1e7", "--repeats", "5" if small else "100",
            "--inits", "1"]

    def check(text):
        code, report = _cli_report(text)
        convex = report.get("results", {}).get("convex", {})
        rand = convex.get("mean", 0.0)
        failures = [name for name, ok in (("exit_0", code == 0),
                                          ("n_clusters_2", convex.get("n_clusters") == 2),
                                          ("rand_ge_0.98", rand >= 0.98)) if not ok]
        return rand, failures

    return Problem(pseed, lambda: _cli(argv), check)


# ---------------------------------------------------------------- gauss-paper

def gauss_paper(pseed: int, work: Path, small: bool) -> Problem:
    A, labels, r = datagen.paper_gaussians(1.0, seed=pseed)  # already small

    def call():
        # module attributes are looked up at call time, so a traced run sees
        # the wrapped functions
        feas = theory.c_interval_k(A, labels, r)
        c = float(np.sqrt(max(feas.kappa_lower, feas.kappa_upper * 1e-6) * feas.kappa_upper))
        edges = weights.gaussian_edges(A, r=r, knn="full")
        state = solver.admm_solve(A, edges, solver.SolverConfig(c=c, tol=1e-6, max_iter=50000))
        assign = extraction.extract_clusters(state.X, merge_tol=1e-4)
        rand = metrics.rand_index(assign.labels, labels)
        lloyd_rand = metrics.rand_index(baselines.lloyd(A, 3, seed=pseed).labels, labels)
        return json.dumps({"c": c, "iters": state.iters, "converged": state.converged,
                           "final_change": state.final_change, "labels": assign.labels.tolist(),
                           "rand": rand, "lloyd_rand": lloyd_rand})

    def check(text):
        out = json.loads(text)
        return out["rand"], [] if out["converged"] else ["converged"]

    return Problem(pseed, call, check)


# ---------------------------------------------------------------- ball-knn-large

def ball_knn_large(pseed: int, work: Path, small: bool) -> Problem:
    path = work / "ball.csv"
    _ball_csv(pseed, 30 if small else 1000, path)
    argv = ["cluster", str(path), "--label-column", "label", "--r", "1", "--knn", "10",
            "--c", "10", "--tol", "1e-4"]

    def check(text):
        code, report = _cli_report(text)
        result = report.get("result", {})
        failures = [name for name, ok in (
            ("exit_0", code == 0),
            ("converged", result.get("solver", {}).get("converged") is True),
            ("n_clusters_3", result.get("n_clusters") == 3)) if not ok]
        return result.get("rand_index", 0.0), failures

    return Problem(pseed, lambda: _cli(argv), check)


# ---------------------------------------------------------------- ball-feasibility

def ball_feasibility(pseed: int, work: Path, small: bool) -> Problem:
    path = work / "ball.csv"
    _ball_csv(pseed, 20 if small else 200, path)
    argv = ["feasibility", str(path), "--centers", *[f"{x!r},{y!r}" for x, y in BALL_CENTERS],
            "--gmm-sigmas", "0.5"]

    def check(text):
        code, report = _cli_report(text)
        feasible = report.get("interval", {}).get("feasible") is True
        failures = [name for name, ok in (("exit_0", code == 0),
                                          ("interval_feasible", feasible)) if not ok]
        return float(feasible), failures

    return Problem(pseed, lambda: _cli(argv), check)


WORKLOADS = {
    "circles-bench": circles_bench,
    "gauss-paper": gauss_paper,
    "ball-knn-large": ball_knn_large,
    "ball-feasibility": ball_feasibility,
}
