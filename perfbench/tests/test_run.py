"""Tests of the benchmark harness.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The end-to-end tests use ``--smoke`` (tiny inputs), so the whole module
takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, problem_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {w["name"] for w in SPEC["workloads"]}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads("\n".join(lines[:-1]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] >= 1
    assert result["failed"] == len(detail["failing_problems"])
    assert result["correct"] == (result["failed"] == 0)
    if workload in DECLARED:
        assert result["correct"], detail["failing_problems"]
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("python", "numpy", "scipy", "blas", "nproc", "CONVEXCLUSTER_THREADS",
                "OPENBLAS_NUM_THREADS", "git_commit", "reference_kernel_start_s",
                "reference_kernel_end_s"):
        assert key in detail["environment"]
    if trace:
        assert detail["counts_problem0"] == detail["counts_problem0_warmup"]
        assert not detail["inconsistent_problems"]
    else:
        assert len(detail["setup_samples_s"]) == run.SETUP_SAMPLES


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "gauss-paper", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_only_on_seed(tmp_path):
    texts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        WORKLOADS["ball-feasibility"](problem_seed(5, 1), tmp_path / sub, True)
        texts.append((tmp_path / sub / "ball.csv").read_bytes())
    assert texts[0] == texts[1]
    assert problem_seed(5, 1) != problem_seed(5, 2) != problem_seed(6, 1)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _span(name, start, end, parent, problem=0):
    return [name, start, end, parent, problem, None, None]


def test_self_times_and_layer_totals():
    spans = [_span(tr.ROOT, 0.0, 10.0, -1), _span("cli.main", 1.0, 9.0, 0),
             _span("solver.admm_solve", 2.0, 5.0, 1), _span("solver.admm_solve", 5.0, 6.0, 1),
             _span("metrics.rand_index", 7.0, 8.0, 1)]
    assert tr.self_times(spans) == [2.0, 3.0, 3.0, 1.0, 1.0]
    summary = tr.problem_summary(spans)
    assert summary["consistent"]
    assert summary["by_layer"] == {"unattributed": 2.0, "cli": 3.0, "solver": 4.0,
                                   "metrics": 1.0}
    assert summary["by_name"]["solver.admm_solve"]["calls"] == 2
    spans[2][tr.END] = 9.5  # child outlives its parent
    assert not tr.problem_summary(spans)["consistent"]


def test_split_by_problem_renumbers_parents():
    spans = [_span(tr.ROOT, 0.0, 2.0, -1, 0), _span("cli.main", 0.5, 1.5, 0, 0),
             _span(tr.ROOT, 3.0, 5.0, -1, 1), _span("cli.main", 3.5, 4.5, 2, 1)]
    groups = tr.split_by_problem(spans)
    assert [rec[tr.PARENT] for rec in groups[1]] == [-1, 0]
    assert tr.problem_summary(groups[1])["latency"] == 2.0


def test_install_wraps_import_sites_and_uninstall_restores():
    import numpy as np

    from convexcluster import extraction, gaussian_edges, solver

    before = (solver.admm_solve, extraction.admm_solve)
    A = np.array([[0.0], [0.1], [5.0]])
    edges = gaussian_edges(A, r=0.1, knn="full")
    tracer = tr.Tracer(problem=0)
    with tracer.installed(), tracer.span(tr.ROOT):
        assert extraction.admm_solve is not before[1]
        state = extraction.admm_solve(A, edges, solver.SolverConfig(c=0.5))
    assert (solver.admm_solve, extraction.admm_solve) == before
    summary = tr.problem_summary(tracer.spans)
    assert summary["by_name"]["solver.admm_solve"]["counts"]["iters"] == state.iters
