import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import combopt
from combopt.cli import main
from combopt.problems import parse_maxcut
from combopt.qubo import Qubo
from combopt.solver import SampleSet


def run_cli(*argv):
    return main(list(argv))


def test_solve_prints_objective_and_ratio(data_dir, tmp_path, capsys):
    out = tmp_path / "result.json"
    code = run_cli(
        "solve", "--problem", "tsp", "--instance", str(data_dir / "tsp7.tsp"),
        "--time-limit", "3", "--seed", "1", "--optima", str(data_dir / "optima.txt"),
        "--out", str(out),
    )
    assert code == 0
    line = capsys.readouterr().out
    assert "best=1267" in line and "feasible=true" in line and "ratio=1.00" in line
    loaded = SampleSet.from_json(out.read_text())
    assert loaded.best().objective == 1267


def test_solve_missing_file_exit_2(capsys):
    code = run_cli("solve", "--problem", "tsp", "--instance", "nope/missing.tsp")
    assert code == 2
    assert "missing.tsp" in capsys.readouterr().err


def test_solve_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--problem", "tsp", "--instance", "x.tsp", "--frobnicate")
    assert exc.value.code == 2


def test_solve_qubo_sa_backend(data_dir, capsys):
    code = run_cli(
        "solve", "--problem", "maxcut", "--instance", str(data_dir / "mc10.mc"),
        "--solver", "qubo-sa", "--reads", "32", "--sweeps", "64", "--seed", "3",
        "--optima", str(data_dir / "optima.txt"),
    )
    assert code == 0
    assert "solver=qubo-sa" in capsys.readouterr().out


@pytest.mark.parametrize("reads", ["0", "-2"])
def test_solve_qubo_sa_rejects_reads_below_one(data_dir, capsys, reads):
    code = run_cli(
        "solve", "--problem", "kp", "--instance", str(data_dir / "kp50.kp"),
        "--solver", "qubo-sa", "--reads", reads, "--sweeps", "8",
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("error: reads must be >= 1")


def test_bad_optima_line_exit_2(data_dir, tmp_path, capsys):
    optima = tmp_path / "optima.txt"
    optima.write_text("tsp7 1267\ntsp8 abc\nmc10 146\n")
    code = run_cli(
        "solve", "--problem", "maxcut", "--instance", str(data_dir / "mc10.mc"),
        "--solver", "qubo-sa", "--reads", "2", "--sweeps", "8", "--optima", str(optima),
    )
    assert code == 2
    assert capsys.readouterr().err == "error: bad optima line: 'tsp8 abc'\n"
    doc = json.loads((data_dir / "plan_smoke.json").read_text())
    for inst in doc["instances"]:
        inst["path"] = str(data_dir / inst["path"])
    doc["optima"] = str(optima)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    out = tmp_path / "bench"
    assert run_cli("bench", "--plan", str(plan), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == "error: bad optima line: 'tsp8 abc'\n"
    assert not (out / "records.jsonl").exists()


def test_solve_seed_determinism(data_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run_cli(
            "solve", "--problem", "kp", "--instance", str(data_dir / "kp50.kp"),
            "--solver", "qubo-sa", "--reads", "8", "--sweeps", "32",
            "--seed", "9", "--out", str(path),
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_gen_maxcut_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.mc", tmp_path / "b.mc"
    for path in (a, b):
        assert run_cli(
            "gen-maxcut", "--nodes", "20", "--density", "0.5",
            "--min-w", "1", "--max-w", "7", "--seed", "11", "--out", str(path),
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    inst = parse_maxcut(a.read_text())
    assert inst.n == 20


def test_gen_maxcut_two_nodes_header(tmp_path):
    out = tmp_path / "two.mc"
    assert run_cli(
        "gen-maxcut", "--nodes", "2", "--density", "1.0", "--out", str(out)
    ) == 0
    assert out.read_text().splitlines()[0] == "2 1"


def test_gen_maxcut_edge_count_near_expectation(tmp_path):
    out = tmp_path / "g90.mc"
    assert run_cli(
        "gen-maxcut", "--nodes", "90", "--density", "0.8", "--seed", "4",
        "--out", str(out),
    ) == 0
    inst = parse_maxcut(out.read_text())
    assert abs(inst.m - 3204) <= 0.10 * 3204


def test_exact_tsp_and_oversize(data_dir, tmp_path, capsys):
    assert run_cli("exact", "--problem", "tsp", "--instance", str(data_dir / "tsp9.tsp")) == 0
    assert "optimum=1384" in capsys.readouterr().out
    # oversize: the 51-node instance is over every exact cap
    code = run_cli("exact", "--problem", "tsp", "--instance", str(data_dir / "disc51.tsp"))
    assert code == 4


def test_exact_kp(data_dir, capsys):
    assert run_cli("exact", "--problem", "kp", "--instance", str(data_dir / "kp50.kp")) == 0
    assert "optimum=15858" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_optimum_exit_2(data_dir, tmp_path, capsys, value):
    optima = tmp_path / "optima.txt"
    optima.write_text(f"tsp7 {value}\n")
    code = run_cli(
        "solve", "--problem", "tsp", "--instance", str(data_dir / "tsp7.tsp"),
        "--solver", "qubo-sa", "--reads", "2", "--sweeps", "8", "--optima", str(optima),
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: non-finite optimum: 'tsp7 {value}'\n"


def test_stats_friedman_pinned(data_dir, capsys):
    assert run_cli(
        "stats", "--results", str(data_dir / "fixtures" / "scores_case2.csv"),
        "--test", "friedman",
    ) == 0
    out = capsys.readouterr().out
    assert "28.13" in out
    assert "significant differences" in out


def test_stats_friedman_no_differences(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "a", "b", "c"])
        for i in range(15):
            w.writerow([f"i{i}", 0.5, 0.5, 0.5])
    assert run_cli("stats", "--results", str(path), "--test", "friedman") == 0
    assert "no significant differences" in capsys.readouterr().out


@pytest.mark.parametrize("row, error", [
    (["i1", "nan", "2"], "non-finite score"),
    (["i1", "1", "inf"], "non-finite score"),
    (["i1", "2"], "row 3 of {path} has 2 fields, its header 3"),
])
def test_stats_rejects_a_non_finite_score_or_a_short_row(tmp_path, capsys, row, error):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "a", "b"])
        w.writerow(["i0", 1, 2])
        w.writerow(row)
    assert run_cli("stats", "--results", str(path), "--test", "friedman") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error.format(path=path) in captured.err


def test_stats_holm_pinned(data_dir, capsys, tmp_path):
    out_csv = tmp_path / "holm.csv"
    assert run_cli(
        "stats", "--results", str(data_dir / "fixtures" / "scores_case1.csv"),
        "--test", "holm", "--control", "ctl", "--out", str(out_csv),
    ) == 0
    out = capsys.readouterr().out
    assert "0.0446" in out
    rows = list(csv.DictReader(open(out_csv, newline="")))
    assert rows[-1]["measure"] == "holm_adjusted_p"


def test_stats_wilcoxon_disjoint_win(tmp_path, capsys):
    path = tmp_path / "w.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "good", "bad"])
        for i in range(15):
            w.writerow([f"i{i}", 100 + i, i])
    assert run_cli(
        "stats", "--results", str(path), "--test", "wilcoxon",
        "--algorithms", "good,bad",
    ) == 0
    out = capsys.readouterr().out
    assert "▲" in out and "win" in out


def test_export_qubo_round_trip(data_dir, tmp_path):
    out = tmp_path / "mc10.qubo"
    assert run_cli(
        "export-qubo", "--problem", "maxcut", "--instance", str(data_dir / "mc10.mc"),
        "--out", str(out),
    ) == 0
    qubo = Qubo.load_text(out.read_text())
    assert qubo.n == 10
    inst = parse_maxcut((data_dir / "mc10.mc").read_text())
    assert qubo.energy(np.zeros(10)) == 0.0
    bits = np.array([0, 1] * 5)
    assert qubo.energy(bits) == pytest.approx(-inst.cut_value(bits))


def test_bench_smoke_plan(data_dir, tmp_path, capsys):
    code = run_cli(
        "bench", "--plan", str(data_dir / "plan_smoke.json"),
        "--out-dir", str(tmp_path / "bench"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "aggregates" in out
    records = (tmp_path / "bench" / "records.jsonl").read_text().splitlines()
    assert len(records) == 8  # 2 instances x 2 algorithms x 2 runs
    # resume: no recomputation
    code = run_cli(
        "bench", "--plan", str(data_dir / "plan_smoke.json"),
        "--out-dir", str(tmp_path / "bench"), "--resume",
    )
    assert code == 0
    assert len((tmp_path / "bench" / "records.jsonl").read_text().splitlines()) == 8


def test_bench_without_resume_starts_a_fresh_log(data_dir, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "optima": str(data_dir / "optima.txt"), "runs": 2, "time_limit": 5.0,
        "algorithms": [
            {"name": "hot", "kind": "qubo-sa", "config": {"reads": 4, "sweeps": 16}},
            {"name": "cold", "kind": "qubo-sa", "config": {"reads": 4, "sweeps": 2}},
        ],
        "instances": [{"id": "mc10", "problem": "maxcut", "path": str(data_dir / "mc10.mc")}],
    }))
    out = tmp_path / "bench"
    for extra in ([], [], ["--resume"]):
        assert run_cli("bench", "--plan", str(plan), "--out-dir", str(out), *extra) == 0
    keys = [(r["instance"], r["algorithm"], r["run"]) for r in
            map(json.loads, (out / "records.jsonl").read_text().splitlines())]
    assert len(set(keys)) == len(keys) == 4
    with open(out / "records.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 4
    with open(out / "aggregates.csv", newline="") as fh:
        assert [r["runs"] for r in csv.DictReader(fh)] == ["2", "2"]


def test_export_qubo_fixed_penalty(data_dir, tmp_path):
    out_auto = tmp_path / "auto.qubo"
    out_fixed = tmp_path / "fixed.qubo"
    assert run_cli(
        "export-qubo", "--problem", "kp", "--instance", str(data_dir / "kp50.kp"),
        "--out", str(out_auto),
    ) == 0
    assert run_cli(
        "export-qubo", "--problem", "kp", "--instance", str(data_dir / "kp50.kp"),
        "--penalty", "250000", "--out", str(out_fixed),
    ) == 0
    assert Qubo.load_text(out_auto.read_text()) != Qubo.load_text(out_fixed.read_text())


def _set(path, value):
    def change(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return change


NL, QUBO_SA = ("algorithms", 1, "config"), ("algorithms", 2, "config")


@pytest.mark.parametrize("change, code", [
    (_set((*NL, "bogus"), 1), 2),
    (_set((*NL, "time_limit"), 1), 2),
    (_set((*NL, "threads"), 2), 2),
    (_set((*NL, "restart_after"), 50), 2),
    (_set((*NL, "qm_period"), "often"), 2),
    (_set((*QUBO_SA, "reads"), 0), 2),
    (_set((*QUBO_SA, "sweeps"), 1.5), 2),
    (_set((*QUBO_SA, "seed"), 4), 2),
    (_set((*QUBO_SA, "qm_period"), 5), 2),
    (_set(QUBO_SA, [1]), 2),
    (_set(("time_limit",), 0), 2),
    (_set(("time_limit",), float("inf")), 2),
    (_set(("time_limit",), True), 2),
    (_set(("time_limit",), "5"), 2),
    (_set(("runs",), 0), 2),
    (_set(("runs",), 1.5), 2),
    (_set(("master_seed",), 1.5), 2),
    (_set(("master_seed",), True), 2),
    (lambda doc: doc["instances"][1].pop("id"), 2),
    (lambda doc: doc.pop("algorithms"), 2),
    ("{not json", 2),
    (_set((*NL, "qm_period"), 0), 3),
    (_set((*NL, "cm_kind"), "walk"), 3),
    (_set((*NL, "qm_inline"), "no"), 3),
    (_set((*NL, "qm_window"), 2.5), 3),
], ids=["nl-unknown-key", "nl-time_limit", "nl-threads", "nl-restart_after",
        "nl-str-value", "sa-reads-0", "sa-float-sweeps", "sa-seed", "sa-nl-key",
        "sa-config-list", "time_limit-0", "time_limit-inf", "time_limit-bool",
        "time_limit-str", "runs-0", "runs-float",
        "master_seed-float", "master_seed-bool",
        "instance-no-id", "no-algorithms", "bad-json", "nl-qm_period-0", "nl-cm_kind",
        "nl-str-qm_inline", "nl-qm_window-float"])
def test_bench_rejects_malformed_plan_before_any_cell(data_dir, tmp_path, capsys,
                                                      change, code):
    doc = json.loads((data_dir / "plan_smoke.json").read_text())
    for inst in doc["instances"]:
        inst["path"] = str(data_dir / inst["path"])
    doc["optima"] = str(data_dir / doc["optima"])
    # a sound algorithm comes first, so a late check would leave its records
    doc["algorithms"].insert(0, {"name": "first", "kind": "qubo-sa",
                                 "config": {"reads": 2, "sweeps": 8}})
    if isinstance(change, str):
        text = change
    else:
        change(doc)
        text = json.dumps(doc)
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    out = tmp_path / "bench"
    assert run_cli("bench", "--plan", str(plan), "--out-dir", str(out)) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "records.jsonl").exists()


def test_bench_rejects_unknown_control_before_any_cell(data_dir, tmp_path, capsys):
    doc = json.loads((data_dir / "plan_smoke.json").read_text())
    for inst in doc["instances"]:
        inst["path"] = str(data_dir / inst["path"])
    doc["optima"] = str(data_dir / doc["optima"])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    out = tmp_path / "bench"
    code = run_cli("bench", "--plan", str(plan), "--out-dir", str(out), "--control", "typo")
    assert code == 2
    assert "control algorithm 'typo'" in capsys.readouterr().err
    assert not (out / "records.jsonl").exists() and not list(out.glob("*.csv"))


def test_export_qubo_non_numeric_penalty_exit_2(data_dir, capsys):
    # every family rejects a penalty that is not a finite number > 0 as an
    # input error, maxcut too, although its encoding has no penalty
    for problem, instance, penalty in [("tsp", "tsp7.tsp", "abc"), ("maxcut", "mc10.mc", "abc"),
                                       ("kp", "kp50.kp", "-5"), ("tsp", "tsp7.tsp", "nan")]:
        code = run_cli(
            "export-qubo", "--problem", problem, "--instance", str(data_dir / instance),
            "--penalty", penalty,
        )
        assert code == 2, (problem, penalty)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(penalty) in err


def test_cli_import_leaves_scipy_stats_unloaded():
    # every subcommand imports the CLI; only the rank statistics need scipy
    code = "import sys, combopt.cli; sys.exit('scipy.stats' in sys.modules)"
    src = str(Path(combopt.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60)
    assert done.returncode == 0
