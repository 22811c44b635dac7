import json
import subprocess
import sys

import numpy as np
import pytest

from convexcluster import cli, theory
from convexcluster.baselines import lloyd
from convexcluster.cli import main
from convexcluster.datagen import load_csv, save_csv
from convexcluster.metrics import rand_index


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_circles(tmp_path, capsys):
    out = tmp_path / "circles.csv"
    code, stdout, _ = run_cli(["generate", "circles", "--seed", "7", "-o", str(out)], capsys)
    assert code == 0
    A, labels, _ = load_csv(out, label_column="label")
    assert A.shape == (500, 2)
    assert np.bincount(labels).tolist() == [250, 250]
    spec = json.loads((tmp_path / "circles.spec.json").read_text())
    assert spec["seed"] == 7
    assert spec["rng"] == "philox4x64"
    assert spec["m"] == 500


def test_generate_ball_records_delta(tmp_path, capsys):
    out = tmp_path / "ball.csv"
    code, stdout, _ = run_cli(
        ["generate", "ball", "--centers", "0,0", "4,0", "--per-cluster", "15",
         "--seed", "1", "-o", str(out)], capsys)
    assert code == 0
    spec = json.loads((tmp_path / "ball.spec.json").read_text())
    assert spec["delta"] == 4.0
    A, labels, _ = load_csv(out, label_column="label")
    assert A.shape == (30, 2)


def test_generate_gmm_paper_echoes_r(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, stdout, _ = run_cli(
        ["generate", "gmm", "--paper", "--sigma", "1", "--seed", "0", "-o", str(out)], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert np.isclose(payload["spec"]["r_recommended"], 0.14)
    assert payload["spec"]["m"] == 30
    assert payload["spec"]["n"] == 100


@pytest.fixture()
def ball_csv(tmp_path, capsys):
    out = tmp_path / "b.csv"
    main(["generate", "ball", "--centers", "0,0", "4.42,0.88", "1.8,6.0",
          "--per-cluster", "8", "--seed", "3", "-o", str(out)])
    capsys.readouterr()
    return out


def test_cluster_c_zero_gives_singletons(ball_csv, capsys):
    code, stdout, _ = run_cli(
        ["cluster", str(ball_csv), "--label-column", "label", "--c", "0"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["result"]["n_clusters"] == 24
    assert "rand_index" in report["result"]


def test_cluster_reports_screened_edges(ball_csv, capsys):
    args = ["cluster", str(ball_csv), "--label-column", "label", "--r", "1", "--knn", "full"]
    screened = []
    for c in ("0", "1"):
        code, stdout, _ = run_cli([*args, "--c", c], capsys)
        assert code == 0
        screened.append(json.loads(stdout)["result"]["solver"]["screened_edges"])
    assert screened == [0, 82]  # of 276 edges; c = 0 solves nothing


def test_cluster_reports_contracted_rows(ball_csv, capsys):
    args = ["cluster", str(ball_csv), "--label-column", "label", "--r", "3", "--knn", "full"]
    contracted = []
    for c in ("1", "100", "1e4"):
        code, stdout, _ = run_cli([*args, "--c", c], capsys)
        assert code == 0
        contracted.append(json.loads(stdout)["result"]["solver"]["contracted_rows"])
    assert contracted == [0, 2, 9]  # of 24 rows


def test_cluster_auto_params_exact(ball_csv, capsys):
    code, stdout, _ = run_cli(
        ["cluster", str(ball_csv), "--label-column", "label", "--auto-params",
         "--tol", "1e-8", "--max-iter", "60000"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["result"]["n_clusters"] == 3
    assert report["result"]["rand_index"] == 1.0
    assert report["feasibility"]["feasible"]


def test_cluster_labels_out_and_timing(ball_csv, tmp_path, capsys):
    labeled = tmp_path / "labeled.csv"
    code, stdout, _ = run_cli(
        ["cluster", str(ball_csv), "--label-column", "label", "--c", "1.0",
         "--r", "0.8", "--knn", "full", "--labels-out", str(labeled), "--timing"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert "wall_time_s" in report
    A, labels, _ = load_csv(labeled, label_column="label")
    assert A.shape == (24, 2)
    assert labels.size == 24


def test_timing_is_a_cluster_and_bench_flag_only(ball_csv, tmp_path, capsys):
    for command in ("cluster", "bench"):
        assert cli.build_parser().parse_args([command, str(ball_csv), "--timing"]).timing
    # path writes a CSV with no report to carry the time, so it rejects the flag
    with pytest.raises(SystemExit) as exc:
        main(["path", str(ball_csv), "--timing"])
    assert exc.value.code == 2
    cfg = tmp_path / "path.cfg"
    cfg.write_text("timing=true\n")
    code, _, err = run_cli(["path", str(ball_csv), "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config keys: ['timing']" in err


def test_seed_is_a_bench_flag_only(ball_csv, tmp_path, capsys):
    assert cli.build_parser().parse_args(["bench", str(ball_csv), "--seed", "4"]).seed == 4
    # the cluster and path solves draw no random numbers, so they reject the flag
    for command in ("cluster", "path"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(ball_csv), "--seed", "4"])
        assert exc.value.code == 2
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("seed=4\n")
        code, _, err = run_cli([command, str(ball_csv), "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config keys: ['seed']" in err


def test_cluster_auto_params_rejects_zero_candidates(ball_csv, capsys):
    code, stdout, err = run_cli(
        ["cluster", str(ball_csv), "--label-column", "label", "--auto-params",
         "--auto-candidates", "0"], capsys)
    assert code == 2
    assert stdout == ""
    assert err.splitlines()[-1] == "error: candidate count must be >= 1, got 0"


@pytest.mark.parametrize("flag", ["--repeats", "--inits", "--k"])
def test_bench_rejects_counts_below_one(ball_csv, capsys, flag):
    code, stdout, err = run_cli(
        ["bench", str(ball_csv), "--methods", "lloyd", "--repeats", "2", "--inits", "1",
         flag, "0"], capsys)
    assert code == 2
    assert stdout == ""
    assert err.splitlines()[-1] == f"error: {flag} must be >= 1, got 0"


@pytest.mark.parametrize("args", [
    ["feasibility", "{data}", "--gmm-sigmas", "-1"],
    ["generate", "gmm", "--means", "0,0", "4,0", "--sigma", "-1", "-o", "{out}"],
    ["generate", "gmm", "--means", "0,0", "4,0", "--sigmas", "1,-1", "-o", "{out}"],
    ["generate", "paper-gaussians", "--sigma", "-1", "-o", "{out}"],
], ids=["gmm-sigmas", "sigma", "sigmas", "paper-gaussians"])
def test_negative_sigma_exits_2(ball_csv, tmp_path, capsys, args):
    out = tmp_path / "g.csv"
    code, stdout, err = run_cli([a.format(data=ball_csv, out=out) for a in args], capsys)
    assert code == 2
    assert stdout == ""
    assert err.splitlines()[-1] == "error: sigma must be > 0, got -1.0"
    assert not out.exists()


def test_cluster_report_deterministic(ball_csv, capsys):
    args = ["cluster", str(ball_csv), "--label-column", "label", "--c", "2.5",
            "--r", "0.8", "--knn", "full"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_cluster_auto_r_keeps_given_c(ball_csv, capsys):
    code, stdout, _ = run_cli(
        ["cluster", str(ball_csv), "--label-column", "label", "--auto-r", "--c", "7.5",
         "--knn", "full"], capsys)
    assert code == 0
    report = json.loads(stdout)
    A, truth, _ = load_csv(ball_csv, label_column="label")
    assert report["config"]["r"] == theory.search_feasible_r(A, truth).r
    assert report["config"]["c"] == 7.5
    assert "feasibility" not in report


def test_path_command(ball_csv, capsys):
    code, stdout, _ = run_cli(
        ["path", str(ball_csv), "--label-column", "label", "--r", "0.8",
         "--knn", "full", "--c-grid", "0.001,15,1e10", "--tol", "1e-6", "--cold"], capsys)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "c,n_clusters,rand,iterations,converged"
    counts = [int(row.split(",")[1]) for row in lines[1:]]
    assert counts == [24, 3, 1]
    rand_at_3 = float(lines[2].split(",")[2])
    assert rand_at_3 == 1.0


def test_warm_path_does_not_stop_on_its_start(tmp_path, capsys):
    # from the c = 0.001 solution the first X-update at c = 15 reproduces the
    # 24 singletons, so a stop on the iterate change alone ends there
    data = tmp_path / "b.csv"
    main(["generate", "ball", "--centers", "0,0", "4,0", "2,3.5",
          "--per-cluster", "8", "--seed", "3", "-o", str(data)])
    capsys.readouterr()
    args = ["path", str(data), "--label-column", "label", "--r", "0.8",
            "--knn", "full", "--c-grid", "0.001,15,1e10", "--tol", "1e-6"]
    rows = {}
    for mode in ("warm", "cold"):
        code, stdout, _ = run_cli(args + (["--cold"] if mode == "cold" else []), capsys)
        assert code == 0
        rows[mode] = [line.split(",") for line in stdout.strip().splitlines()[1:]]
    counts = {mode: [int(row[1]) for row in rows[mode]] for mode in rows}
    assert counts["warm"] == counts["cold"] == [24, 3, 1]
    assert int(rows["warm"][1][3]) > 1  # iterations at c = 15


def test_bench_command_and_determinism(ball_csv, capsys):
    args = ["bench", str(ball_csv), "--repeats", "4", "--inits", "2",
            "--r", "0.8", "--knn", "full", "--tol", "1e-6",
            "--c-min", "0.01", "--c-max", "1000", "--c-steps", "8"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    report = json.loads(out1)
    assert set(report["results"]) == {"convex", "lloyd", "kmeanspp", "hc-single", "hc-average"}
    assert report["results"]["convex"]["mean"] == 1.0
    assert report["results"]["hc-single"]["mean"] == 1.0
    assert report["results"]["lloyd"]["runs"] == 4
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_bench_convex_row_reports_its_solve(ball_csv, capsys):
    args = ["bench", str(ball_csv), "--methods", "convex", "--r", "0.8", "--knn", "full"]
    code, stdout, _ = run_cli([*args, "--c", "5", "--tol", "1e-6"], capsys)
    assert code == 0
    convex = json.loads(stdout)["results"]["convex"]
    assert convex["converged"] is True and convex["iters"] > 2
    code, stdout, _ = run_cli([*args, "--c", "5", "--tol", "1e-12", "--max-iter", "2"], capsys)
    assert code == 0  # without --strict an unconverged solve is only reported
    convex = json.loads(stdout)["results"]["convex"]
    assert convex["converged"] is False and convex["iters"] == 2


@pytest.mark.parametrize("command", [
    ["path", "--c-grid", "0.001,15,1e10"],
    ["bench", "--methods", "convex", "--c-min", "0.01", "--c-max", "1000", "--c-steps", "8"],
    ["bench", "--methods", "convex", "--c", "5"],
], ids=["path", "bench-grid", "bench-fixed-c"])
@pytest.mark.parametrize("limits, expected", [
    (["--tol", "1e-6"], 0),
    (["--tol", "1e-12", "--max-iter", "50", "--merge-tol", "1e-2"], 3),
], ids=["converged", "max-iter"])
def test_path_and_bench_strict_exit_codes(ball_csv, capsys, command, limits, expected):
    name, *rest = command
    code, stdout, err = run_cli([name, str(ball_csv), "--label-column", "label", "--r", "0.8",
                                 "--knn", "full", *rest, *limits, "--strict"], capsys)
    assert code == expected
    assert stdout  # the report is written either way
    assert ("solver did not converge within max_iter" in err) == (expected == 3)


def test_bench_csv_format(ball_csv, capsys):
    code, stdout, _ = run_cli(
        ["bench", str(ball_csv), "--methods", "lloyd", "--repeats", "3",
         "--inits", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "method,mean,sd,runs"
    assert lines[1].startswith("lloyd,")


def test_bench_results_independent_of_thread_cap(ball_csv, capsys, monkeypatch):
    args = ["bench", str(ball_csv), "--methods", "lloyd,kmeanspp,hc-average", "--repeats", "9",
            "--inits", "2", "--seed", "4"]
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv(cli.ENV_THREADS, threads)
        code, stdout, _ = run_cli(args, capsys)
        assert code == 0
        reports.append(json.loads(stdout))
    assert reports[1]["config"].pop("threads") == 2
    assert reports[0]["config"].pop("threads") == 1
    assert reports[0] == reports[1]


def test_feasibility_command(ball_csv, capsys):
    code, stdout, _ = run_cli(
        ["feasibility", str(ball_csv), "--centers", "0,0", "4.42,0.88", "1.8,6.0",
         "--gmm-sigmas", "0.5"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["separation"]["separated"]
    assert report["interval"]["feasible"]
    assert report["ball"]["satisfied"]
    assert report["ball"]["delta"] >= 4.0
    assert "gmm_bound" in report


def test_feasibility_reports_follow_first_occurrence(ball_csv, tmp_path, capsys, monkeypatch):
    # renaming label values keeps the first-occurrence order, so every
    # per-cluster field, and the GMM component each sigma is paired with,
    # must stay the same
    A, labels, _ = load_csv(ball_csv, label_column="label")
    renamed = tmp_path / "renamed.csv"
    save_csv(renamed, A, labels=(labels + 1) % 3)
    gmm_means = []
    bound = theory.gmm_separation_bound
    monkeypatch.setattr(theory, "gmm_separation_bound",
                        lambda means, *rest: gmm_means.append(means) or bound(means, *rest))
    reports = []
    for path in (ball_csv, renamed):
        code, stdout, _ = run_cli(["feasibility", str(path), "--gmm-sigmas", "0.1,0.5,0.9"], capsys)
        assert code == 0
        reports.append(json.loads(stdout))
    for key in ("separation", "interval", "gmm_bound"):
        assert reports[0][key] == reports[1][key]
    first = [A[labels == v].mean(axis=0) for v in dict.fromkeys(labels.tolist())]
    for means in gmm_means:
        assert np.array_equal(means, first)


def test_feasibility_measures_clusters_once(ball_csv, capsys, monkeypatch):
    calls = []
    prepared = theory._prepared
    monkeypatch.setattr(theory, "_prepared", lambda *a: calls.append(a) or prepared(*a))
    for extra in ([], ["--r", "2.5"]):
        code, stdout, _ = run_cli(["feasibility", str(ball_csv), *extra], capsys)
        assert code == 0 and json.loads(stdout)["interval"]["feasible"]
        assert len(calls) == 1
        calls.clear()


def test_feasibility_overlapping_clusters(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,label\n0,0\n1,1\n0.1,0\n1.1,1\n0.5,0\n0.6,1\n", encoding="utf-8")
    code, stdout, _ = run_cli(["feasibility", str(bad)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert "interval" not in report
    assert report["interval_error"] == "no finite bandwidth bound: separation condition fails"
    assert report["separation"] == {"diameters": [0.5, 0.5000000000000001],
                                    "max_dia": 0.5000000000000001, "means_distinct": True,
                                    "min_dist": 0.09999999999999998, "separated": False}


@pytest.mark.parametrize("extra", [[], ["--r", "1"], ["--r", "-1"]])
def test_feasibility_one_cluster_exits_2(tmp_path, capsys, extra):
    one = tmp_path / "one.csv"
    one.write_text("x0,label\n0,0\n1,0\n0.5,0\n", encoding="utf-8")
    code, stdout, err = run_cli(["feasibility", str(one), *extra], capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: separation needs at least 2 clusters\n"


def test_feasibility_bad_flags_exit_2(ball_csv, capsys):
    code, stdout, err = run_cli(["feasibility", str(ball_csv), "--r", "-1"], capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: bandwidth r must be >= 0, got -1.0\n"
    # argparse reports an unknown flag with the top-level usage line
    with pytest.raises(SystemExit) as exc:
        main(["feasibility", str(ball_csv), "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: convexcluster [-h] {generate,cluster,path,bench,feasibility} ...\n"
        "convexcluster: error: unrecognized arguments: --bogus\n")


def test_config_file_defaults_and_override(ball_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=0.8\nknn=full\nc=12.0\ntol=1e-6\n", encoding="utf-8")
    code, stdout, _ = run_cli(
        ["cluster", str(ball_csv), "--label-column", "label", "--config", str(cfg)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["config"]["c"] == 12.0
    # explicit flag wins over the config value
    code, stdout, _ = run_cli(
        ["cluster", str(ball_csv), "--label-column", "label", "--config", str(cfg),
         "--c", "0"], capsys)
    report = json.loads(stdout)
    assert report["config"]["c"] == 0.0
    # multi-valued keys are whitespace separated, each item typed as its flag
    cfg.write_text("centers=0,0 4.5,0\n", encoding="utf-8")
    code, stdout, _ = run_cli(["feasibility", str(ball_csv), "--config", str(cfg)], capsys)
    assert code == 0
    ball = json.loads(stdout)["ball"]
    assert ball["delta"] == 4.5
    # unknown keys rejected
    cfg.write_text("bogus=1\n", encoding="utf-8")
    code, _, err = run_cli(
        ["cluster", str(ball_csv), "--label-column", "label", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus" in err


def test_error_exit_codes(ball_csv, tmp_path, capsys):
    code, _, err = run_cli(["cluster", str(tmp_path / "missing.csv"), "--c", "1"], capsys)
    assert code == 2
    code, _, err = run_cli(["cluster", str(ball_csv), "--label-column", "nope", "--c", "1"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["cluster", str(ball_csv), "--c", "5", "--r", "0.8", "--max-iter", "2",
         "--tol", "1e-12", "--strict"], capsys)
    assert code == 3


@pytest.mark.parametrize("args", [
    ["cluster", "{data}", "--c", "1", "-o", "{out}"],
    ["cluster", "{data}", "--c", "1", "--labels-out", "{out}"],
    ["path", "{data}", "--c-grid", "1,2", "-o", "{out}"],
    ["bench", "{data}", "--methods", "lloyd", "--repeats", "2", "--inits", "1", "-o", "{out}"],
    ["feasibility", "{data}", "-o", "{out}"],
], ids=["cluster", "labels-out", "path", "bench", "feasibility"])
def test_unwritable_output_exits_2(ball_csv, tmp_path, capsys, args):
    out = tmp_path / "missing-dir" / "out"
    code, _, err = run_cli([a.format(data=ball_csv, out=out) for a in args], capsys)
    assert code == 2
    assert err.splitlines()[-1].startswith(f"error: cannot write {out}")


def _options(parser):
    return [(a.option_strings, a.dest, a.default) for a in parser._actions]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_single_command_parser_matches_full_parser(command):
    full, single = cli.build_parser(), cli.build_parser(command)
    sub_full, sub_single = (next(a for a in p._actions if isinstance(a, cli.argparse._SubParsersAction))
                            for p in (full, single))
    assert list(sub_single.choices) == [command]
    mine, theirs = sub_single.choices[command], sub_full.choices[command]
    assert _options(mine) == _options(theirs)
    assert mine.format_help() == theirs.format_help()
    # usage errors print the top-level usage line, which names every command
    assert single.format_usage() == full.format_usage()


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: convexcluster [-h] {generate,cluster,path,bench,feasibility} ...")
    for command, (help_text, *_) in cli._COMMANDS.items():
        assert f"    {command}" in out and help_text in out


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "convexcluster.cli", "generate", "circles",
         "--seed", "1", "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only kkt_residual needs scipy.optimize, and importing it adds ~0.15 s to every start
    code = "import sys, convexcluster.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_main_parses_argv_once(ball_csv, capsys, monkeypatch):
    # without --config, the first parse is the only one: each parser (the
    # top level and its subcommand) runs once, and leftovers are reported
    # as parse_args reports them
    parsed = []
    real = cli.argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parsed.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_known_args", counting)
    code, _, _ = run_cli(["feasibility", str(ball_csv)], capsys)
    assert code == 0
    assert sorted(parsed) == ["convexcluster", "convexcluster feasibility"]
    parsed.clear()
    with pytest.raises(SystemExit) as exc:
        main(["cluster", str(ball_csv), "--c", "1", "--bogus", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("convexcluster: error: unrecognized arguments: --bogus x\n")
    assert sorted(parsed) == ["convexcluster", "convexcluster cluster"]


@pytest.mark.parametrize("args", [
    ["path", "{data}", "--label-column", "label", "--c-grid", ","],
    ["bench", "{data}", "--methods", "convex", "--c-grid", ","],
    ["feasibility", "{data}", "--gmm-sigmas", ","],
    ["feasibility", "{data}", "--centers", "0,0", " , "],
    ["generate", "gmm", "--means", "0,0", "4,0", "--sigmas", ",", "-o", "{out}"],
    ["generate", "gmm", "--means", "0,0", "4,0", "--weights", ",", "-o", "{out}"],
    ["generate", "gmm", "--means", ",", "-o", "{out}"],
], ids=["path-c-grid", "bench-c-grid", "gmm-sigmas", "centers", "sigmas", "weights", "means"])
def test_vector_flag_without_numbers_exits_2(ball_csv, tmp_path, capsys, args):
    # an empty vector used to fall back to the flag's default without a word
    out = tmp_path / "g.csv"
    argv = [a.format(data=ball_csv, out=out) for a in args]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: cannot parse vector ")
    assert err.endswith(" (expected comma-separated numbers)\n")
    assert not out.exists()


def test_empty_vector_in_a_config_file_exits_2(ball_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gmm-sigmas=\n", encoding="utf-8")
    code, stdout, err = run_cli(["feasibility", str(ball_csv), "--config", str(cfg)], capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: cannot parse vector '' (expected comma-separated numbers)\n"


def test_feasibility_accepts_infinite_labels(tmp_path, capsys):
    # int(float("inf")) overflows; such labels map to dense ids as strings do
    data = tmp_path / "b.csv"
    main(["generate", "ball", "--centers", "0,0", "4,0", "--per-cluster", "6", "--seed", "2",
          "-o", str(data)])
    capsys.readouterr()
    A, truth, _ = load_csv(data, label_column="label")
    names = {0: "inf", 1: "a"}
    relabeled = tmp_path / "inf.csv"
    relabeled.write_text("x0,x1,label\n" + "".join(
        f"{x!r},{y!r},{names[t]}\n" for (x, y), t in zip(A.tolist(), truth)), encoding="utf-8")
    reports = []
    for path in (data, relabeled):
        code, stdout, _ = run_cli(["feasibility", str(path)], capsys)
        assert code == 0
        report = json.loads(stdout)
        del report["input"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["separation"]["separated"] is True


def test_bench_keeps_the_least_inertia_start(tmp_path, capsys):
    # the paper's k-means counterexample, 4 copies: at repetition 1 the start
    # with the best Rand index is not the one with the least inertia
    data = tmp_path / "copies.csv"
    main(["generate", "ball", "--centers", "0,0", "4.5,0", "0,30", "200,0", "204.5,0", "200,30",
          "400,0", "404.5,0", "400,30", "600,0", "604.5,0", "600,30", "--per-cluster", "10",
          "--seed", "0", "-o", str(data)])
    capsys.readouterr()
    code, stdout, _ = run_cli(["bench", str(data), "--methods", "lloyd", "--k", "12",
                               "--repeats", "2", "--inits", "10", "--seed", "0"], capsys)
    assert code == 0
    A, truth, _ = load_csv(data, label_column="label")
    kept, best = [], []
    for rep in range(2):
        runs = [lloyd(A, 12, seed=rep * 10 + i) for i in range(10)]
        kept.append(rand_index(min(runs, key=lambda run: run.inertia).labels, truth))
        best.append(max(rand_index(run.labels, truth) for run in runs))
    assert kept[1] < best[1]
    assert json.loads(stdout)["results"]["lloyd"] == {
        "mean": float(np.mean(kept)), "sd": float(np.std(kept)), "runs": 2}


def test_generate_gmm_with_means_sigmas_and_weights(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, stdout, _ = run_cli(["generate", "gmm", "--means", "0,0", "6,0", "--sigmas", "0.5,1",
                               "--weights", "0.25,0.75", "--m", "40", "--seed", "2",
                               "-o", str(out)], capsys)
    assert code == 0
    spec = json.loads(stdout)["spec"]
    assert spec["means"] == [[0.0, 0.0], [6.0, 0.0]]
    assert (spec["sigmas"], spec["weights"], spec["m"]) == ([0.5, 1.0], [0.25, 0.75], 40)
    A, labels, _ = load_csv(out, label_column="label")
    assert A.shape == (40, 2) and set(labels.tolist()) <= {0, 1}
    # one sigma is shared; a count that matches no component is an error
    code, stdout, _ = run_cli(["generate", "gmm", "--means", "0,0", "6,0", "--sigmas", "0.5",
                               "-o", str(out)], capsys)
    assert code == 0 and json.loads(stdout)["spec"]["sigmas"] == [0.5, 0.5]
    code, _, err = run_cli(["generate", "gmm", "--means", "0,0", "6,0", "--sigmas", "1,2,3",
                            "-o", str(out)], capsys)
    assert code == 2
    assert err == "error: need one sigma per component (or a single shared value)\n"


@pytest.fixture()
def unconverged_path(tmp_path):
    # two ADMM iterations per c leave a warm path whose counts rise again
    data = tmp_path / "four.csv"
    data.write_text("x0,x1\n1.36,1.22\n-0.51,-0.3\n-0.53,0.57\n-0.06,0.75\n", encoding="utf-8")
    return ["path", str(data), "--r", "0.5", "--knn", "full", "--c-grid", "0.1,0.3,1,3",
            "--max-iter", "2", "--merge-tol", "0.05"]


def _counts(stdout):
    return [int(line.split(",")[1]) for line in stdout.strip().splitlines()[1:]]


def test_path_warns_when_counts_are_not_monotone(unconverged_path, capsys):
    code, stdout, err = run_cli(unconverged_path, capsys)
    assert code == 0
    assert _counts(stdout) == [4, 4, 3, 4]
    assert err.splitlines()[0] == ("warning: cluster counts are not monotone along this path "
                                   "(try --cold or a tighter --tol)")
    code, stdout, err = run_cli(unconverged_path + ["--cold"], capsys)
    assert code == 0
    assert _counts(stdout) == [4, 4, 4, 4]
    assert "warning" not in err


@pytest.mark.parametrize("value, cold", [("yes", True), ("ON", True), ("1", True),
                                         ("false", False), ("off", False)])
def test_config_switch_values(unconverged_path, tmp_path, capsys, value, cold):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cold={value}\n", encoding="utf-8")
    _, from_config, _ = run_cli(unconverged_path + ["--config", str(cfg)], capsys)
    _, from_flags, _ = run_cli(unconverged_path + (["--cold"] if cold else []), capsys)
    assert from_config == from_flags
    assert _counts(from_config) == ([4, 4, 4, 4] if cold else [4, 4, 3, 4])


@pytest.mark.parametrize("centers", [["nan,0", "4,0"], ["inf,0"]], ids=["nan", "inf"])
def test_generate_ball_with_nonfinite_centers_exits_2(tmp_path, capsys, centers):
    # rejected before sampling: an input error, with no traceback and no CSV
    out = tmp_path / "n.csv"
    code, stdout, err = run_cli(["generate", "ball", "--centers", *centers, "-o", str(out)],
                                capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: centers need at least one column and finite entries\n"
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["generate", "ball", "--centers", "0,0", "1", "-o", "{out}"], "--centers"),
    (["generate", "gmm", "--means", "0,0", "1", "-o", "{out}"], "--means"),
    (["feasibility", "{data}", "--centers", "0,0", "4,0", "1"], "--centers"),
], ids=["ball-centers", "gmm-means", "feasibility-centers"])
def test_vectors_of_unequal_length_exit_2(ball_csv, tmp_path, capsys, args, flag):
    out = tmp_path / "g.csv"
    argv = [a.format(data=ball_csv, out=out) for a in args]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    lengths = "[2, 1]" if args[0] == "generate" else "[2, 2, 1]"
    assert err == f"error: {flag}: every vector needs the same length, got lengths {lengths}\n"
    assert not out.exists()


@pytest.mark.parametrize("threads, message", [
    ("x", "CONVEXCLUSTER_THREADS must be an integer, got 'x'"),
    ("0", "CONVEXCLUSTER_THREADS must be >= 1, got 0"),
])
def test_bad_thread_cap_exits_2(ball_csv, capsys, monkeypatch, threads, message):
    monkeypatch.setenv(cli.ENV_THREADS, threads)
    code, stdout, err = run_cli(["cluster", str(ball_csv), "--c", "1"], capsys)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("args, message", [
    (["cluster", "{data}", "--knn", "abc", "--c", "1"],
     "--knn must be an integer or 'full', got 'abc'"),
    (["cluster", "{data}", "--config", "{missing}"], "config file not found: {missing}"),
    (["generate", "ball", "-o", "{out}"], "generate ball requires --centers"),
    (["generate", "gmm", "-o", "{out}"], "generate gmm requires --means (or --paper)"),
    (["cluster", "{data}"], "--c is required unless --auto-params is given"),
    (["cluster", "{data}", "--auto-r", "--c", "1"],
     "--auto-r needs labeled data (--label-column)"),
    (["path", "{data}", "--c-min", "1", "--c-max", "1"],
     "need 0 < --c-min < --c-max for a geometric grid"),
    (["bench", "{data}", "--methods", "convex,bogus"],
     "unknown methods: ['bogus'] (choose from ['convex', 'hc-average', 'hc-single', "
     "'kmeanspp', 'lloyd'])"),
    (["bench", "{data}", "--methods", "convex", "--c-grid", "1e-3,2e-3"],
     "no c on the grid yields 3 clusters; widen --c-min/--c-max"),
], ids=["knn", "config-missing", "ball-no-centers", "gmm-no-means", "cluster-no-c",
        "auto-r-unlabeled", "path-empty-grid", "bench-bad-method", "bench-no-c-on-grid"])
def test_input_errors_exit_2(ball_csv, tmp_path, capsys, args, message):
    names = {"data": ball_csv, "out": tmp_path / "g.csv", "missing": tmp_path / "none.cfg"}
    code, stdout, err = run_cli([a.format(**names) for a in args], capsys)
    assert (code, stdout, err) == (2, "", f"error: {message.format(**names)}\n")
    assert not names["out"].exists()


def test_config_line_without_equals_exits_2(ball_csv, tmp_path, capsys):
    # comment, blank and whitespace-only lines are skipped; line numbers count them
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\n\n   \nknn\n", encoding="utf-8")
    code, stdout, err = run_cli(["cluster", str(ball_csv), "--config", str(cfg)], capsys)
    assert (code, stdout, err) == (2, "", f"error: {cfg}:4: expected key=value, got 'knn'\n")


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV"),
    ("\n\n", "empty CSV"),
    ("x0,x1,label\n", "header but no data rows"),
], ids=["empty", "blank-lines", "header-only"])
def test_feasibility_on_a_csv_without_rows_exits_2(tmp_path, capsys, text, message):
    data = tmp_path / "d.csv"
    data.write_text(text, encoding="utf-8")
    code, stdout, err = run_cli(["feasibility", str(data)], capsys)
    assert (code, stdout, err) == (2, "", f"error: {data}: {message}\n")


@pytest.mark.parametrize("args, message", [
    (["feasibility", "{data}", "--r", "nan"], "bandwidth r must be finite, got nan"),
    (["cluster", "{data}", "--c", "100", "--nu", "nan"], "penalty nu must be finite, got nan"),
    (["cluster", "{data}", "--c", "100", "--tol", "nan"], "tol must be finite, got nan"),
    (["cluster", "{data}", "--c", "100", "--merge-tol", "nan"],
     "merge_tol must be finite, got nan"),
    (["cluster", "{data}", "--c", "inf"], "regularization c must be finite, got inf"),
    (["cluster", "{data}", "--c", "1", "--r", "inf"],
     "kernel bandwidth r must be finite, got inf"),
    (["path", "{data}", "--c-grid", "nan"], "c grid values must be finite, got [nan]"),
    (["path", "{data}", "--c-grid", "1,inf"], "c grid values must be finite, got [1.0, inf]"),
    (["path", "{data}", "--c-min", "nan"], "need 0 < --c-min < --c-max for a geometric grid"),
    (["path", "{data}", "--c-max", "inf"], "need 0 < --c-min < --c-max for a geometric grid"),
    (["generate", "paper-gaussians", "--sigma", "nan", "-o", "{out}"],
     "sigma must be finite, got nan"),
    (["feasibility", "{data}", "--gmm-sigmas", "inf"], "sigma must be finite, got inf"),
    (["generate", "gmm", "--means", "nan,0", "3,3", "-o", "{out}"],
     "mixture means must be finite"),
    (["generate", "gmm", "--means", "0,0", "3,3", "--weights", "nan,1", "-o", "{out}"],
     "mixture weights must be finite"),
], ids=["feasibility-r", "cluster-nu", "cluster-tol", "cluster-merge-tol", "cluster-c-inf",
        "cluster-r-inf", "path-c-grid", "path-c-grid-inf", "path-c-min", "path-c-max-inf",
        "paper-gaussians-sigma", "feasibility-gmm-sigmas", "gmm-means", "gmm-weights"])
def test_non_finite_numbers_exit_2(ball_csv, tmp_path, capsys, args, message):
    # NaN and +-inf are input errors that name the parameter, never a
    # "feasible" report, a traceback or a run to max_iter
    out = tmp_path / "g.csv"
    code, stdout, err = run_cli([a.format(data=ball_csv, out=out) for a in args], capsys)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_headerless_csv_takes_a_label_column_index(ball_csv, tmp_path, capsys):
    # --label-column arrives as a string; one that names no header column
    # and parses as an integer is a column index
    headerless = tmp_path / "nh.csv"
    headerless.write_text("".join(ball_csv.read_text(encoding="utf-8").splitlines(True)[1:]),
                          encoding="utf-8")
    reports = []
    for path, column in ((ball_csv, "label"), (headerless, "2"), (headerless, "-1")):
        code, stdout, _ = run_cli(["feasibility", str(path), "--label-column", column], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report.pop("input")["label_column"] == column
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["interval"]["n_clusters"] == 3


def test_fractional_labels_are_distinct_clusters(tmp_path, capsys):
    # 0.2 and 0.7 are two labels, not both 0
    data = tmp_path / "f.csv"
    data.write_text("x0,label\n0,0.2\n10,0.7\n20,1.4\n30,1.9\n", encoding="utf-8")
    code, stdout, _ = run_cli(["feasibility", str(data), "--r", "0.1"], capsys)
    assert code == 0
    assert json.loads(stdout)["interval"]["n_clusters"] == 4
