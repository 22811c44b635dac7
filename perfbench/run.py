"""Benchmark of the convexcluster package: one workload per run, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The package is imported from ``src/`` of the
same checkout; without it the run exits with code 2 and prints no result.

A run is a closed loop: one client in this process sends each problem after
the previous one finished, until ``--seconds`` have passed (at least one
problem).  Problem 0 is first run untimed as the warm-up and then again as
the first timed problem, and the two outputs must be byte-identical.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
problem twice, untraced and traced (alternating which goes first), and
reports per-layer metrics from the spans of the traced runs; tracing
overhead is the difference of the two medians.  Deterministic counts come
from problem 0, traced once in the warm-up (with tracemalloc peaks, which
slow it down; its time counts against ``--seconds``) and once timed; a
difference between the two fails the run.

Every line before the last is a JSON detail object (environment, tail
percentile, failing problems by seed, layer shares).  The last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "convexcluster"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3  # this process plus two fresh child processes
THREAD_VARS = ("CONVEXCLUSTER_THREADS", "OPENBLAS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    p.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- environment

def reference_kernel_s(np) -> float:
    """Median time of a fixed BLAS plus interpreter kernel; compared between
    the start and end of a run, it shows drift of the machine."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(10):
            a @ a
        total = 0
        for k in range(200_000):
            total += k & 7
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- setup

def setup_in_children(args) -> list[float]:
    """Set-up times of fresh processes: interpreter import, inputs, warm-up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-sample"]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile, samples beyond).  With ten or fewer samples no percentile
    qualifies and the maximum is reported (percentile 100, none beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


# ---------------------------------------------------------------- per-layer

COUNT_KEYS = (
    ("solver.calls", "solver.admm_solve", "calls"),
    ("solver.iters", "solver.admm_solve", "iters"),
    ("solver.unconverged", "solver.admm_solve", "unconverged"),
    ("extraction.calls", "extraction.extract_clusters", "calls"),
    ("extraction.fused_pairs", "extraction.extract_clusters", "fused_pairs"),
    ("extraction.select_calls", "extraction.find_c_for_k", "calls"),
    ("extraction.select_misses", "extraction.find_c_for_k", "misses"),
    ("weights.calls", "weights.gaussian_edges", "calls"),
    ("weights.edges", "weights.gaussian_edges", "edges"),
    ("theory.feasibility_report.calls", "theory.feasibility_report", "calls"),
    ("baselines.lloyd.calls", "baselines.lloyd", "calls"),
    ("baselines.lloyd.iters", "baselines.lloyd", "iters"),
)

TIME_KEYS = (  # (metric, span name, inclusive "s" or exclusive "self_s")
    ("solver.admm_solve.s", "solver.admm_solve", "s"),
    ("extraction.extract_clusters.s", "extraction.extract_clusters", "s"),
    ("extraction.find_c_for_k.self_s", "extraction.find_c_for_k", "self_s"),
    ("weights.gaussian_edges.s", "weights.gaussian_edges", "s"),
    ("theory.search_feasible_r.self_s", "theory.search_feasible_r", "self_s"),
    ("theory.feasibility_report.s", "theory.feasibility_report", "s"),
    ("theory.c_interval_k.s", "theory.c_interval_k", "s"),
    ("theory.separation_check.s", "theory.separation_check", "s"),
    ("baselines.lloyd.s", "baselines.lloyd", "s"),
    ("baselines.kmeanspp_init.s", "baselines.kmeanspp_init", "s"),
    ("baselines.hierarchical.s", "baselines.hierarchical", "s"),
    ("cli.self_s", "cli.main", "self_s"),
    ("datagen.load_csv.s", "datagen.load_csv", "s"),
    ("metrics.rand_index.s", "metrics.rand_index", "s"),
)

LAYERS = ("solver", "extraction", "weights", "theory", "baselines", "cli", "datagen",
          "metrics", "unattributed")


def deterministic_counts(summary: dict) -> dict:
    out = {}
    for metric, name, key in COUNT_KEYS:
        entry = summary["by_name"].get(name)
        if entry is None:
            out[metric] = 0
        else:
            out[metric] = entry["calls"] if key == "calls" else entry["counts"].get(key, 0)
    out["extraction.select_probes"] = summary["select_probes"]
    return out


def layer_metrics(summaries: list[dict], counts: dict, peaks: dict, overhead: float) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for metric, name, key in TIME_KEYS:
        put(metric, statistics.median(s["by_name"].get(name, {}).get(key, 0.0)
                                      for s in summaries), "s")
    solves = [s["by_name"].get("solver.admm_solve", {"s": 0.0, "counts": {}}) for s in summaries]
    iters = sum(e["counts"].get("iters", 0) for e in solves)
    put("solver.s_per_iter", sum(e["s"] for e in solves) / iters if iters else 0.0, "s")
    for metric, value in counts.items():
        if metric not in ("extraction.select_calls", "extraction.select_probes"):
            put(metric, value, "count")
    calls = counts["solver.calls"]
    put("solver.iters_per_solve", counts["solver.iters"] / calls if calls else 0.0, "count")
    selects = counts["extraction.select_calls"] - counts["extraction.select_misses"]
    put("extraction.probes_per_select",
        counts["extraction.select_probes"] / selects if selects else 0.0, "count")
    for layer in ("weights", "extraction", "theory"):
        put(f"{layer}.peak_alloc_mb", peaks.get(layer, 0.0), "MB")
    for layer in LAYERS:
        put(f"share.{layer}", statistics.median(s["by_layer"].get(layer, 0.0) / s["latency"]
                                                for s in summaries), "ratio")
    put("trace.overhead_s", overhead, "s")
    return m


# ---------------------------------------------------------------- the run

def run(args, t_import: float) -> tuple[dict, dict]:
    """Set up, run the timed loop, check every output; returns the detail
    object and the result line (or only the set-up time of a child)."""
    import numpy as np
    import scipy

    import tracer as tr
    from workloads import WORKLOADS, problem_seed

    make = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        setup_start = time.perf_counter()
        p0 = make(problem_seed(args.seed, 0), work, args.smoke)
        warm_tracer = tr.Tracer(problem=0, track_memory=True)
        if args.trace:
            with warm_tracer.installed(), warm_tracer.span(tr.ROOT):
                warm = p0.call()
        else:
            warm = p0.call()
        setup_main = t_import + time.perf_counter() - setup_start
        if args.setup_sample:
            return {}, {"setup_s": setup_main}

        setup_samples = [setup_main] + ([] if args.trace else setup_in_children(args))
        env = environment(np, scipy)
        env["reference_kernel_start_s"] = reference_kernel_s(np)
        tracer = tr.Tracer()
        latencies, untraced, qualities = [], [], []
        failed: dict[int, tuple[int, list[str]]] = {}  # problem -> (seed, failed checks)
        loop_start = time.perf_counter()
        # a traced run counts its warm-up (slowed by tracemalloc) against
        # --seconds, which bounds its length on the slowest workload
        deadline = (setup_start if args.trace else loop_start) + args.seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            problem = p0 if i == 0 else make(problem_seed(args.seed, i), work, args.smoke)
            checks = []
            if args.trace:
                tracer.problem = i
                outputs = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        with tracer.installed(), tracer.span(tr.ROOT) as root:
                            outputs[True] = problem.call()
                        latencies.append(root[tr.END] - root[tr.START])
                    else:
                        t = time.perf_counter()
                        outputs[False] = problem.call()
                        untraced.append(time.perf_counter() - t)
                out = outputs[True]
                if outputs[False] != out:
                    checks.append("traced_output_identical")
            else:
                t = time.perf_counter()
                out = problem.call()
                latencies.append(time.perf_counter() - t)
            quality, failed_checks = problem.check(out)
            checks += failed_checks
            if i == 0 and out != warm:
                checks.append("repeat_output_identical")
            qualities.append(quality)
            if checks:
                failed[i] = (problem.seed, checks)
            i += 1
        loop_wall = time.perf_counter() - loop_start
    env["reference_kernel_end_s"] = reference_kernel_s(np)

    n = len(latencies)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "latencies_s": latencies}
    if args.trace:
        metrics = trace_metrics(tr, tracer.spans, warm_tracer.spans, untraced, latencies,
                                detail, failed, p0.seed)
    else:
        value, pct, beyond = tail(latencies)
        detail.update(latency_tail_percentile=pct, latency_tail_samples_beyond=beyond,
                      setup_samples_s=setup_samples)
        metrics = {
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_tail_s": {"value": value, "unit": "s"},
            "problems_per_s": {"value": n / loop_wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "quality": {"value": statistics.fmean(qualities), "unit": "ratio"},
            "pass_rate": {"value": 1.0 - len(failed) / n, "unit": "ratio"},
        }
    detail["failure_rate"] = len(failed) / n
    detail["failing_problems"] = [{"problem": k, "seed": seed, "failed_checks": checks}
                                  for k, (seed, checks) in sorted(failed.items())]
    return detail, {"correct": not failed, "attempted": n, "failed": len(failed),
                    "metrics": metrics}


def trace_metrics(tr, spans, warm_spans, untraced, latencies, detail, failed, seed0) -> dict:
    """Per-layer metrics of a traced run; adds the harness checks on problem 0
    (counts repeat, self times add up) to ``failed``."""
    groups = tr.split_by_problem(spans)
    summaries = [tr.problem_summary(groups[k]) for k in sorted(groups)]
    warm = tr.problem_summary(warm_spans)
    counts, warm_counts = deterministic_counts(summaries[0]), deterministic_counts(warm)
    peaks = {}
    for name, entry in warm["by_name"].items():
        layer = tr.layer_of(name)
        peaks[layer] = max(peaks.get(layer, 0.0), entry["peak_mb"])
    inconsistent = [k for k, s in zip(sorted(groups), summaries) if not s["consistent"]]
    extra = (["counts_repeatable"] if counts != warm_counts else []) + \
        (["self_times_add_up"] if inconsistent else [])
    if extra:
        failed[0] = (seed0, failed.get(0, (seed0, []))[1] + extra)
    spans_file = OUT / f"spans-{detail['workload']}-seed{detail['seed']}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec[:tr.COUNTS]) + "\n")
    overhead = statistics.median(latencies) - statistics.median(untraced)
    detail.update({
        "untraced_latency_p50_s": statistics.median(untraced),
        "traced_latency_p50_s": statistics.median(latencies),
        "counts_problem0": counts, "counts_problem0_warmup": warm_counts,
        "inconsistent_problems": inconsistent,
        "spans_file": str(spans_file.relative_to(ROOT)),
    })
    return layer_metrics(summaries, counts, peaks, overhead)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    import convexcluster

    if Path(convexcluster.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported convexcluster from {convexcluster.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must be >= 0", file=sys.stderr)
        return 2
    t_import = time.perf_counter() - _T0
    detail, result = run(args, t_import)
    if detail:
        print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
