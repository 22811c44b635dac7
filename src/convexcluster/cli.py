"""Command-line front end: dataset generation, clustering runs, paths,
feasibility reports, and the benchmark harness.

Output is machine-first (JSON or CSV) and byte-deterministic for a fixed
seed and thread cap: timing goes to stderr unless ``--timing`` opts it into
the report.  Exit codes: 0 success, 2 input error (including an output that
cannot be written), 3 non-convergence under ``--strict``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import datagen, theory
from .baselines import hierarchical, kmeanspp_init, lloyd
from .core import _check_number, first_occurrence_ranks
from .extraction import (_merge_threshold, _solve_point, canonical_labels, extract_clusters,
                         find_c_for_k, regularization_path)
from .metrics import rand_index
from .solver import PAPER, SolverConfig, admm_solve, objective
from .theory import candidate_c_values, feasibility_report, search_feasible_r
from .weights import gaussian_edges

ENV_THREADS = "CONVEXCLUSTER_THREADS"


class CliError(Exception):
    """Input or configuration error: exit code 2."""


def _threads() -> int:
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        val = int(raw)
    except ValueError:
        raise CliError(f"{ENV_THREADS} must be an integer, got {raw!r}")
    return _check_number(ENV_THREADS, val, 1)


# ---------------------------------------------------------------- shared I/O

def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@contextmanager
def _writing(out):
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}")


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
        return
    with _writing(out):
        Path(out).write_text(text, encoding="utf-8")


def _finish(report: dict | None, args, t0: float) -> None:
    """Print the elapsed time to stderr; ``--timing`` also puts it in the report."""
    elapsed = time.perf_counter() - t0
    if report is not None and args.timing:
        report["wall_time_s"] = elapsed
    print(f"elapsed_s={elapsed:.3f}", file=sys.stderr)


def _load_dataset(args, needs_labels: str | None = None):
    """Read ``args.data``; returns (A, labels, report input block).

    ``needs_labels`` is the error raised when the file has no label column.
    """
    if not Path(args.data).exists():
        raise CliError(f"dataset not found: {args.data}")
    A, labels, _ = datagen.load_csv(args.data, args.label_column)
    if labels is None and needs_labels:
        raise CliError(needs_labels)
    digest = hashlib.sha256(Path(args.data).read_bytes()).hexdigest()
    return A, labels, {"path": args.data, "sha256": digest, "label_column": args.label_column,
                       "m": int(A.shape[0]), "n": int(A.shape[1])}


def _parse_vector(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise CliError(f"cannot parse vector {text!r} (expected comma-separated numbers)")
    return values


def _vectors(values: list[list[float]], flag: str) -> np.ndarray:
    """The vectors given to ``flag`` as the rows of one array."""
    if len({len(v) for v in values}) > 1:
        raise CliError(f"{flag}: every vector needs the same length, "
                       f"got lengths {[len(v) for v in values]}")
    return np.array(values)


def _sigmas(values: list[float], K: int, n: int, message: str):
    """(one spherical sigma per cluster, or a single one shared by all K,
    each > 0; their covariances s**2 I in R^n)."""
    if len(values) == 1:
        values = values * K
    if len(values) != K:
        raise CliError(message)
    return values, [_check_number("sigma", s, 0, strict=True) ** 2 * np.eye(n) for s in values]


def _parse_knn(text: str):
    if text == "full":
        return "full"
    try:
        return int(text)
    except ValueError:
        raise CliError(f"--knn must be an integer or 'full', got {text!r}")


def _load_config_defaults(cfg_path: str) -> dict:
    """Read a flat key=value config file."""
    path = Path(cfg_path)
    if not path.exists():
        raise CliError(f"config file not found: {cfg_path}")
    defaults = {}
    for ln, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{cfg_path}:{ln}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        defaults[key.strip().replace("-", "_")] = value.strip()
    return defaults


def _config_value(action: argparse.Action, raw: str):
    """Type a config value as its flag would: switches read true/false, and
    multi-valued flags take whitespace-separated items."""
    if isinstance(action.const, bool) or isinstance(action.default, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    convert = action.type or str
    if action.nargs in ("+", "*"):
        return [convert(item) for item in raw.split()]
    return convert(raw)


# ---------------------------------------------------------------- generate

def _sidecar(out: str) -> Path:
    p = Path(out)
    return p.with_suffix(".spec.json") if p.suffix else Path(str(p) + ".spec.json")


def cmd_generate(args) -> int:
    if args.kind == "circles":
        A, labels = datagen.embedded_circles(seed=args.seed)
        spec = {"kind": "circles", "seed": args.seed}
    elif args.kind == "ball":
        if not args.centers:
            raise CliError("generate ball requires --centers")
        centers = _vectors(args.centers, "--centers")
        spec_obj = datagen.BallModelSpec(centers=centers, per_cluster=args.per_cluster,
                                         distribution=args.distribution, seed=args.seed)
        A, labels = datagen.stochastic_ball(spec_obj)
        delta = theory.ball_condition(centers).delta if centers.shape[0] >= 2 else None
        spec = {"kind": "ball", "centers": centers.tolist(),
                "per_cluster": args.per_cluster, "distribution": args.distribution,
                "seed": args.seed, "delta": delta}
    elif args.kind == "paper-gaussians":
        A, labels, r = datagen.paper_gaussians(args.sigma, seed=args.seed)
        spec = {"kind": "paper-gaussians", "sigma": args.sigma, "seed": args.seed,
                "r_recommended": r}
    else:  # general gmm
        if not args.means:
            raise CliError("generate gmm requires --means")
        means = _vectors(args.means, "--means")
        K = means.shape[0]
        sigmas, covs = _sigmas(args.sigmas or [args.sigma], K, means.shape[1],
                               "need one sigma per component (or a single shared value)")
        weights = args.weights or [1.0 / K] * K
        spec_obj = datagen.GmmSpec(weights=np.array(weights), means=means,
                                   covariances=covs, m=args.m, seed=args.seed)
        A, labels = datagen.gaussian_mixture(spec_obj)
        spec = {"kind": "gmm", "means": means.tolist(), "sigmas": list(sigmas),
                "weights": list(weights), "m": args.m, "seed": args.seed}
    spec.update(rng=datagen.RNG_ALGORITHM, m=int(A.shape[0]), n=int(A.shape[1]))
    with _writing(args.output):
        datagen.save_csv(args.output, A, labels=labels)
    sidecar = str(_sidecar(args.output))
    _write(_json(spec), sidecar)
    _write(_json({"written": args.output, "sidecar": sidecar, "spec": spec}), None)
    return 0


# ---------------------------------------------------------------- cluster

def _solver_config(args, c: float) -> SolverConfig:
    return SolverConfig(c=c, nu=args.nu, tol=args.tol, max_iter=args.max_iter,
                        convention=args.convention)


def _strict_exit(args, converged: bool) -> int:
    """Exit code 3 under ``--strict`` when a reported solve hit max_iter, else 0."""
    if args.strict and not converged:
        print("solver did not converge within max_iter", file=sys.stderr)
        return 3
    return 0


def cmd_cluster(args) -> int:
    t0 = time.perf_counter()
    auto = "--auto-params" if args.auto_params else "--auto-r" if args.auto_r else None
    A, truth, source = _load_dataset(args, auto and f"{auto} needs labeled data (--label-column)")
    merge_tol = _merge_threshold(args.tol, args.merge_tol)
    config = {"nu": args.nu, "tol": args.tol, "max_iter": args.max_iter, "knn": args.knn,
              "merge_tol": merge_tol, "convention": args.convention, "threads": _threads(),
              "r": args.r}
    report: dict = {"command": "cluster", "input": source, "config": config}

    if args.auto_params and (args.c is not None or args.auto_r):
        raise CliError("--auto-params picks both r and c: it takes neither --c nor --auto-r")
    if args.c is None and not args.auto_params:
        raise CliError("--c is required unless --auto-params is given")
    if auto:  # the bandwidth comes from theory, searched from --r (0: its default start)
        feas = search_feasible_r(A, truth, r_start=args.r)
        config["r"] = feas.r
    # candidate c values, tried in order: the first that recovers the truth
    # wins, else the first
    if args.auto_params:
        config["knn"] = "full"
        candidates = [float(c) for c in candidate_c_values(feas, count=args.auto_candidates)]
        report["feasibility"] = feas.to_dict()
    else:
        candidates = [args.c]

    edges = gaussian_edges(A, r=config["r"], knn=config["knn"])
    target = canonical_labels(truth).labels if truth is not None else None
    first = None
    for c in candidates:
        state = admm_solve(A, edges, _solver_config(args, c))
        assign = extract_clusters(state.X, merge_tol)
        first = first or (c, state, assign)
        if target is not None and np.array_equal(assign.labels, target):
            break
    else:
        c, state, assign = first
    config["c"] = c

    report["result"] = {
        "labels": assign.labels.tolist(),
        "n_clusters": assign.k,
        "objective": objective(A, state.X, edges, c, args.convention),
        "solver": {"iters": state.iters, "converged": state.converged,
                   "final_change": state.final_change, "screened_edges": state.screened,
                   "contracted_rows": state.contracted},
    }
    if truth is not None:
        report["result"]["rand_index"] = rand_index(assign.labels, truth)
    _finish(report, args, t0)

    if args.labels_out:
        with _writing(args.labels_out):
            datagen.save_csv(args.labels_out, A, labels=assign.labels)
    _write(_json(report), args.output)
    return _strict_exit(args, state.converged)


# ---------------------------------------------------------------- path

def _c_grid(args) -> np.ndarray:
    if args.c_grid:
        return np.array(args.c_grid)
    if not 0 < args.c_min < args.c_max < math.inf:
        raise CliError("need 0 < --c-min < --c-max for a geometric grid")
    return np.geomspace(args.c_min, args.c_max, _check_number("--c-steps", args.c_steps, 1))


def cmd_path(args) -> int:
    t0 = time.perf_counter()
    A, truth, _ = _load_dataset(args)
    edges = gaussian_edges(A, r=args.r, knn=args.knn)
    path = regularization_path(A, edges, _c_grid(args), _solver_config(args, 0.0),
                               merge_tol=args.merge_tol, warm_start=not args.cold)
    if not path.counts_non_increasing:
        print("warning: cluster counts are not monotone along this path "
              "(try --cold or a tighter --tol)", file=sys.stderr)
    lines = ["c,n_clusters,rand,iterations,converged"]
    for pt in path.points:
        rand = repr(rand_index(pt.assignment.labels, truth)) if truth is not None else ""
        lines.append(f"{pt.c!r},{pt.n_clusters},{rand},{pt.iters},{pt.converged}")
    _write("\n".join(lines) + "\n", args.output)
    _finish(None, args, t0)
    return _strict_exit(args, all(pt.converged for pt in path.points))


# ---------------------------------------------------------------- bench

def _bench_task(A, truth, k, inits, task):
    """One benchmark repetition: the Rand index of the least-inertia run (the
    first on ties) of the configured inits; the truth only scores that run."""
    method, rep, base_seed = task
    seeds = range(base_seed + rep * inits, base_seed + (rep + 1) * inits)
    if method == "lloyd":
        runs = (lloyd(A, k, seed=seed) for seed in seeds)
    else:  # kmeanspp
        runs = (lloyd(A, k, init_centers=kmeanspp_init(A, k, seed=seed)) for seed in seeds)
    best = min(runs, key=lambda run: run.inertia)
    return method, rep, rand_index(best.labels, truth)


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    for flag in ("k", "repeats", "inits"):
        if getattr(args, flag) is not None:
            _check_number(f"--{flag}", getattr(args, flag), 1)
    A, truth, source = _load_dataset(args, "bench needs truth labels (--label-column)")
    k = args.k if args.k is not None else int(np.unique(truth).size)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    known = {"convex", "lloyd", "kmeanspp", "hc-single", "hc-average"}
    bad = set(methods) - known
    if bad:
        raise CliError(f"unknown methods: {sorted(bad)} (choose from {sorted(known)})")
    workers = _threads()

    results: dict[str, dict] = {}

    if "convex" in methods:
        edges = gaussian_edges(A, r=args.r, knn=args.knn)
        cfg = _solver_config(args, 0.0)
        if args.c is not None:
            pt = _solve_point(A, edges, cfg, args.c, args.merge_tol)[0]
        else:
            pt = find_c_for_k(A, edges, k, cfg, _c_grid(args), merge_tol=args.merge_tol)
            if pt is None:
                raise CliError(f"no c on the grid yields {k} clusters; widen --c-min/--c-max")
        results["convex"] = {"mean": rand_index(pt.assignment.labels, truth), "sd": 0.0,
                             "runs": 1, "c": pt.c, "n_clusters": pt.n_clusters,
                             "iters": pt.iters, "converged": pt.converged}

    for method, name in (("hc-single", "single"), ("hc-average", "average")):
        if method in methods:
            assign = hierarchical(A, k, linkage=name)
            results[method] = {"mean": rand_index(assign.labels, truth), "sd": 0.0,
                               "runs": 1}

    km_methods = [m for m in methods if m in ("lloyd", "kmeanspp")]
    if km_methods:
        tasks = [(m, rep, args.seed) for m in km_methods for rep in range(args.repeats)]
        run = partial(_bench_task, A, truth, k, args.inits)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(run, tasks, chunksize=8))
        else:
            outcomes = list(map(run, tasks))
        for m in km_methods:
            vals = np.array(sorted(v for mm, _, v in outcomes if mm == m))
            results[m] = {"mean": float(vals.mean()), "sd": float(vals.std()),
                          "runs": int(vals.size)}

    report = {
        "command": "bench",
        "input": {**source, "k": k},
        "config": {"methods": methods, "repeats": args.repeats, "inits": args.inits,
                   "seed": args.seed, "r": args.r, "knn": args.knn, "threads": workers},
        "results": results,
    }
    _finish(report, args, t0)
    if args.format == "csv":
        lines = ["method,mean,sd,runs"]
        for m in sorted(results):
            r = results[m]
            lines.append(f"{m},{r['mean']!r},{r['sd']!r},{r['runs']}")
        _write("\n".join(lines) + "\n", args.output)
    else:
        _write(_json(report), args.output)
    return _strict_exit(args, results.get("convex", {}).get("converged", True))


# ---------------------------------------------------------------- feasibility

def cmd_feasibility(args) -> int:
    A, truth, source = _load_dataset(args, "feasibility needs truth labels (--label-column)")
    report: dict = {"command": "feasibility", "input": source}
    # the interval report carries the separation block, so the clusters are
    # measured once; only when it fails is the separation measured on its own
    try:
        interval = (search_feasible_r(A, truth) if args.r is None
                    else feasibility_report(A, truth, args.r))
    except ValueError as exc:
        if args.r is not None:
            raise
        sep = theory.separation_check(A, truth)
        report["interval_error"] = str(exc)
        separated, means_distinct, stats = sep.separated, sep.means_distinct, sep.stats
        dist_min, diameters = stats.min_dist, stats.diameters.tolist()
    else:
        report["interval"] = interval.to_dict()
        separated, means_distinct = interval.separated, interval.means_distinct
        dist_min, diameters = interval.dist_min, list(interval.diameters)
    report["separation"] = {"separated": separated, "means_distinct": means_distinct,
                            "min_dist": dist_min, "max_dia": max(diameters),
                            "diameters": diameters}
    if args.centers:
        check = theory.ball_condition(_vectors(args.centers, "--centers"))
        report["ball"] = {"delta": check.delta, "satisfied": check.satisfied}
    if args.gmm_sigmas:
        ranks = first_occurrence_ranks(truth)
        means = np.stack([A[ranks == k].mean(axis=0) for k in range(ranks.max() + 1)])
        _, covs = _sigmas(args.gmm_sigmas, len(means), A.shape[1],
                          "need one --gmm-sigmas entry per cluster (or one shared)")
        gmm = theory.gmm_separation_bound(means, covs, A.shape[0])
        report["gmm_bound"] = {
            "pair_bounds": [[None if math.isnan(x) else x for x in row]
                            for row in gmm.pair_bounds.tolist()],
            "min_center_distance": gmm.min_center_distance,
            "satisfied": gmm.satisfied,
        }
    _write(_json(report), args.output)
    return 0


# ---------------------------------------------------------------- parser

def _add_solver_flags(p: argparse.ArgumentParser, r_help: str = "Gaussian kernel bandwidth"):
    p.add_argument("--r", type=float, default=0.0, help=r_help)
    p.add_argument("--knn", type=_parse_knn, default=5,
                   help="neighbor count for the edge graph, or 'full'")
    p.add_argument("--nu", type=float, default=1.0, help="ADMM penalty parameter")
    p.add_argument("--tol", type=float, default=1e-4, help="stopping tolerance on centroid change")
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--merge-tol", type=float, default=None,
                   help="cluster extraction threshold (default 10*tol)")
    p.add_argument("--convention", choices=[PAPER, "half"], default=PAPER,
                   help="objective convention for c")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when a reported solve hits --max-iter")
    p.add_argument("--config", default=None, help="flat key=value config file; flags override")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")


def _generate_flags(g: argparse.ArgumentParser):
    g.add_argument("kind", choices=["ball", "gmm", "circles", "paper-gaussians"])
    g.add_argument("--centers", nargs="+", type=_parse_vector, default=None,
                   help="cluster centers as comma-separated vectors")
    g.add_argument("--means", nargs="+", type=_parse_vector, default=None,
                   help="gmm component means as comma-separated vectors")
    g.add_argument("--per-cluster", type=int, default=10)
    g.add_argument("--distribution", choices=["uniform_ball", "uniform_sphere"],
                   default="uniform_ball")
    g.add_argument("--sigma", type=float, default=1.0)
    g.add_argument("--sigmas", type=_parse_vector, default=None,
                   help="per-component sigmas, comma separated")
    g.add_argument("--weights", type=_parse_vector, default=None,
                   help="mixture weights, comma separated")
    g.add_argument("--m", type=int, default=30)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--config", default=None)
    g.add_argument("-o", "--output", required=True)


def _cluster_flags(c: argparse.ArgumentParser):
    c.add_argument("data")
    c.add_argument("--label-column", default=None)
    c.add_argument("--c", type=float, default=None, help="regularization weight")
    c.add_argument("--auto-params", action="store_true",
                   help="pick (r, c) from the feasibility interval (needs labels); excludes "
                        "--c and --auto-r, and solves on the full graph whatever --knn says")
    c.add_argument("--auto-r", action="store_true",
                   help="pick only r from the feasibility search; c stays as given")
    c.add_argument("--auto-candidates", type=int, default=5)
    c.add_argument("--labels-out", default=None, help="write a labeled copy of the data")
    c.add_argument("--timing", action="store_true", help="include wall time in the report")
    _add_solver_flags(c, "Gaussian kernel bandwidth; under --auto-params/--auto-r, where the "
                         "bandwidth search starts (0: the theory's default start)")


def _path_flags(p: argparse.ArgumentParser):
    p.add_argument("data")
    p.add_argument("--label-column", default=None)
    p.add_argument("--c-grid", type=_parse_vector, default=None,
                   help="explicit comma-separated ascending c values")
    p.add_argument("--c-min", type=float, default=1e-3)
    p.add_argument("--c-max", type=float, default=1e3)
    p.add_argument("--c-steps", type=int, default=15)
    p.add_argument("--cold", action="store_true", help="disable warm starts along the path")
    _add_solver_flags(p)


def _bench_flags(b: argparse.ArgumentParser):
    b.add_argument("data")
    b.add_argument("--label-column", default="label")
    b.add_argument("--methods", default="convex,lloyd,kmeanspp,hc-single,hc-average")
    b.add_argument("--k", type=int, default=None, help="target cluster count (default: truth)")
    b.add_argument("--repeats", type=int, default=100)
    b.add_argument("--inits", type=int, default=10,
                   help="keep the least-inertia run of this many initializations per repeat")
    b.add_argument("--c", type=float, default=None,
                   help="fixed c for the convex method (default: path-select k)")
    b.add_argument("--c-grid", type=_parse_vector, default=None)
    b.add_argument("--c-min", type=float, default=1e-2)
    b.add_argument("--c-max", type=float, default=1e7)
    b.add_argument("--c-steps", type=int, default=12)
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.add_argument("--timing", action="store_true", help="include wall time in the report")
    b.add_argument("--seed", type=int, default=0)
    _add_solver_flags(b)


def _feasibility_flags(f: argparse.ArgumentParser):
    f.add_argument("data")
    f.add_argument("--label-column", default="label")
    f.add_argument("--r", type=float, default=None,
                   help="evaluate the c interval at this bandwidth (default: search)")
    f.add_argument("--centers", nargs="+", type=_parse_vector, default=None,
                   help="ball centers for the unit-ball condition")
    f.add_argument("--gmm-sigmas", type=_parse_vector, default=None,
                   help="spherical sigmas for the mixture separation bound, one per "
                        "cluster in first-occurrence order (or one shared)")
    f.add_argument("--config", default=None)
    f.add_argument("-o", "--output", default=None)


# name: (help, flags, handler), in the order the help lists them
_COMMANDS = {
    "generate": ("write a synthetic dataset as CSV + sidecar spec", _generate_flags,
                 cmd_generate),
    "cluster": ("run the convex model on a CSV", _cluster_flags, cmd_cluster),
    "path": ("regularization path over a c grid", _path_flags, cmd_path),
    "bench": ("baseline comparison on a labeled CSV", _bench_flags, cmd_bench),
    "feasibility": ("exactness theory report for a labeled CSV", _feasibility_flags,
                    cmd_feasibility),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser: with every subcommand when ``command`` is
    None, else with that one alone.  A single command's parser parses its own
    arguments, and prints its help and usage errors, exactly as the full one
    does, at a fraction of the build time."""
    parser = argparse.ArgumentParser(prog="convexcluster",
                                     description="Weighted l1 convex clustering toolkit")
    # a single command's parser still names every command in the usage line
    # of its errors; the full parser keeps the default metavar, because its
    # "required: command" error prints the metavar in place of the dest
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_flags, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.set_defaults(func=handler, parser=p)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            defaults = _load_config_defaults(args.config)
            actions = {a.dest: a for a in args.parser._actions}
            unknown = set(defaults) - set(actions)
            if unknown:
                raise CliError(f"unknown config keys: {sorted(unknown)}")
            args.parser.set_defaults(**{key: _config_value(actions[key], raw)
                                        for key, raw in defaults.items()})
            args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
