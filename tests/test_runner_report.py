import csv
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from combopt import StateError, forking
from combopt.benchstats import (
    Plan,
    ResultsTable,
    cell_seed,
    emit_report,
    load_optima,
    qubo_sa_reads,
    run_experiment,
    runner,
)
from combopt.errors import MetricError, ParseError
from combopt.problems import build_tsp_model, parse_tsplib
from combopt.qubo import sa_sample, tsp_to_qubo
from conftest import needs_fork


def small_plan(tmp_path, data_dir, runs=1, instances=("tsp7",), time_limit=1.5):
    doc = {
        "optima": str(data_dir / "optima.txt"),
        "runs": runs,
        "master_seed": 3,
        "time_limit": time_limit,
        "algorithms": [
            {"name": "nl", "kind": "nl", "config": {"n_branches": 1, "max_steps": 1500}},
            {"name": "qubo-sa", "kind": "qubo-sa", "config": {"reads": 8, "sweeps": 64}},
        ],
        "instances": [
            {
                "id": name,
                "problem": "tsp" if name.startswith("tsp") else "maxcut",
                "path": str(data_dir / f"{name}.tsp")
                if name.startswith("tsp")
                else str(data_dir / f"{name}.mc"),
            }
            for name in instances
        ],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    return path


def test_cell_seed_stable_and_distinct():
    a = cell_seed(1, "tsp7", "nl", 0)
    assert a == cell_seed(1, "tsp7", "nl", 0)
    assert a != cell_seed(1, "tsp7", "nl", 1)
    assert a != cell_seed(1, "tsp7", "qubo-sa", 0)
    assert a != cell_seed(2, "tsp7", "nl", 0)


def test_load_optima(data_dir):
    optima = load_optima(data_dir / "optima.txt")
    assert optima["tsp7"] == 1267
    assert optima["kp50"] == 15858


def test_single_cell_plan_completes(tmp_path, data_dir):
    plan = Plan.load(small_plan(tmp_path, data_dir))
    table = run_experiment(plan, tmp_path / "out")
    assert len(table.records) == 2  # 1 instance x 2 algorithms x 1 run
    rec = table.runs_of("tsp7", "nl")[0]
    assert rec["best_ratio"] == 1.0  # 7 nodes: the portfolio finds the optimum
    assert 0 < rec["mean_ratio"] <= 1.0
    assert (tmp_path / "out" / "records.jsonl").exists()


def test_resume_is_idempotent(tmp_path, data_dir):
    plan = Plan.load(small_plan(tmp_path, data_dir))
    out = tmp_path / "out"
    t1 = run_experiment(plan, out)
    before = (out / "records.jsonl").read_text()
    t2 = run_experiment(plan, out, resume=True)
    after = (out / "records.jsonl").read_text()
    assert before == after
    assert len(t2.records) == len(t1.records)


def test_rows_per_cell_equal_runs(tmp_path, data_dir):
    plan = Plan.load(small_plan(tmp_path, data_dir, runs=3))
    table = run_experiment(plan, tmp_path / "out")
    assert len(table.runs_of("tsp7", "nl")) == 3
    assert len(table.runs_of("tsp7", "qubo-sa")) == 3


def test_missing_optimum_raises(tmp_path, data_dir):
    doc = json.loads(small_plan(tmp_path, data_dir).read_text())
    optima = tmp_path / "optima.txt"
    optima.write_text("something_else 5\n")
    doc["optima"] = str(optima)
    plan_path = tmp_path / "plan2.json"
    plan_path.write_text(json.dumps(doc))
    with pytest.raises(MetricError, match="tsp7"):
        run_experiment(Plan.load(plan_path), tmp_path / "out2")


def test_emit_report_files_and_round_trip(tmp_path, data_dir):
    plan = Plan.load(small_plan(tmp_path, data_dir, runs=2, instances=("tsp7", "mc10")))
    out = tmp_path / "out"
    table = run_experiment(plan, out)
    paths = emit_report(table, out)
    for key in ("records", "aggregates", "stats", "plot_best_ratio", "plot_mean_ratio"):
        assert paths[key].exists()

    with open(paths["aggregates"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["algorithm"] for r in rows} == {"nl", "qubo-sa"}
    # reparse: aggregates match a recomputation from the records
    for row in rows:
        runs = table.runs_of(row["instance"], row["algorithm"])
        want = float(np.mean([r["best_ratio"] for r in runs]))
        assert float(row["best_ratio_mean"]) == pytest.approx(want, abs=1e-6)

    with open(paths["plot_best_ratio"], newline="") as fh:
        plot = list(csv.reader(fh))
    assert plot[0] == ["instance", "nl", "qubo-sa"]
    assert len(plot) == 3


def test_emit_report_empty_table(tmp_path):
    paths = emit_report(ResultsTable(), tmp_path)
    with open(paths["records"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only


def test_aggregate_of_identical_runs_equals_single_value(tmp_path):
    table = ResultsTable()
    for run in range(10):
        table.add(
            {
                "instance": "x",
                "algorithm": "a",
                "run": run,
                "best_value": 10,
                "best_ratio": 0.93,
                "mean_ratio": 0.8,
                "feasible_fraction": 1.0,
                "n_samples": 4,
                "wall_time": 0.5,
            }
        )
    paths = emit_report(table, tmp_path)
    with open(paths["aggregates"], newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["best_ratio_mean"]) == pytest.approx(0.93)
    assert float(row["mean_ratio_mean"]) == pytest.approx(0.8)


def test_score_matrix_shape(tmp_path, data_dir):
    # plot_best_ratio.csv is the score matrix that `combopt stats` reads
    plan = Plan.load(small_plan(tmp_path, data_dir, runs=2, instances=("tsp7", "mc10")))
    table = run_experiment(plan, tmp_path / "out")
    paths = emit_report(table, tmp_path / "out")
    with open(paths["plot_best_ratio"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "nl", "qubo-sa"]
    assert [r[0] for r in rows[1:]] == ["mc10", "tsp7"]
    m = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    assert m.shape == (2, 2)
    assert (m >= 0).all() and (m <= 1).all()


def test_plan_maps_maxcut_alias_and_rejects_unknown_problem(tmp_path, data_dir):
    path = small_plan(tmp_path, data_dir, instances=("tsp7", "mc10"))
    assert [i.problem for i in Plan.load(path).instances] == ["tsp", "mc"]
    doc = json.loads(path.read_text())
    doc["instances"][1]["problem"] = "foo"
    with pytest.raises(ParseError):
        Plan.from_json(json.dumps(doc))


def assert_reads_match(model, entries, reads, sweeps, seed, batch=None):
    """``entries`` are the decoded reads of ``sa_sample`` calls of ``batch`` reads
    each (all ``reads`` in one call by default), seeded ``seed`` plus the
    call's first read, in read order."""
    batch = batch or reads
    qubo, decode = tsp_to_qubo(model.tags["instance"])
    states = [decode(bits) for first in range(0, reads, batch)
              for bits, _ in sa_sample(qubo, reads=min(batch, reads - first), sweeps=sweeps,
                                       seed=seed + first)]
    assert len(entries) == len(states)
    for entry, state in zip(entries, states):
        if state is None:
            assert entry is None
        else:
            assert np.array_equal(entry[0].values[0], state.values[0])
            assert entry[1] == model.evaluate(state)


def test_qubo_sa_reads_without_time_limit_is_one_batch(data_dir):
    model = build_tsp_model(parse_tsplib((data_dir / "tsp7.tsp").read_text(), "tsp7"))
    # 4 sweeps leave most reads undecodable (9 of 12 at seed 1)
    entries = qubo_sa_reads(model, "tsp", reads=12, sweeps=4, seed=1)
    assert any(e is None for e in entries) and any(e is not None for e in entries)
    assert_reads_match(model, entries, reads=12, sweeps=4, seed=1)


def test_qubo_sa_reads_spent_time_limit_runs_one_batch(data_dir):
    model = build_tsp_model(parse_tsplib((data_dir / "tsp7.tsp").read_text(), "tsp7"))
    entries = qubo_sa_reads(model, "tsp", reads=16, sweeps=4, seed=1, time_limit=1e-9)
    assert_reads_match(model, entries, reads=2, sweeps=4, seed=1)


def test_qubo_sa_reads_forked_batches_match_in_process_batches(monkeypatch, data_dir):
    model = build_tsp_model(parse_tsplib((data_dir / "tsp7.tsp").read_text(), "tsp7"))
    # 3 workers, whatever the CPU count, share 10 batches (the last of one read)
    monkeypatch.setattr(forking, "default_workers", lambda: 3)
    workers, forked_workers = [], [3] if forking.fork_available() else []
    run_forked = forking.run_forked
    monkeypatch.setattr(forking, "run_forked",
                        lambda job, n, name: workers.append(n) or run_forked(job, n, name))
    forked = qubo_sa_reads(model, "tsp", reads=19, sweeps=4, seed=1, time_limit=600.0)
    assert workers == forked_workers
    assert multiprocessing.active_children() == []
    assert any(e is None for e in forked) and any(e is not None for e in forked)
    assert_reads_match(model, forked, reads=19, sweeps=4, seed=1, batch=2)

    monkeypatch.setattr(forking, "fork_available", lambda: False)
    in_process = qubo_sa_reads(model, "tsp", reads=19, sweeps=4, seed=1, time_limit=600.0)
    assert workers == forked_workers  # no fork this time
    assert_reads_match(model, in_process, reads=19, sweeps=4, seed=1, batch=2)


@needs_fork
def test_qubo_sa_worker_error_is_reraised_and_every_worker_ends(monkeypatch, data_dir):
    model = build_tsp_model(parse_tsplib((data_dir / "tsp7.tsp").read_text(), "tsp7"))
    monkeypatch.setattr(forking, "default_workers", lambda: 2)

    def sample(qubo, reads, sweeps, seed):
        if seed == 1 + 2:  # batch 1, the first of worker 1
            raise StateError("batch 1 broke")
        time.sleep(60)  # worker 0 would sleep for the whole minute: it is terminated

    monkeypatch.setattr(runner, "sa_sample", sample)
    t0 = time.monotonic()
    with pytest.raises(StateError, match="batch 1 broke"):
        qubo_sa_reads(model, "tsp", reads=16, sweeps=4, seed=1, time_limit=600.0)
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []


@needs_fork
def test_qubo_sa_worker_that_dies_without_a_result_is_named(monkeypatch, data_dir):
    model = build_tsp_model(parse_tsplib((data_dir / "tsp7.tsp").read_text(), "tsp7"))
    monkeypatch.setattr(forking, "default_workers", lambda: 2)
    monkeypatch.setattr(runner, "sa_sample", lambda *args, **kwargs: os._exit(1))
    with pytest.raises(StateError, match=r"^qubo-sa worker \d process exited without a result$"):
        qubo_sa_reads(model, "tsp", reads=16, sweeps=4, seed=1, time_limit=600.0)
    assert multiprocessing.active_children() == []
