"""Sweep runner: configs, trial records, aggregation, report rendering."""

import dataclasses
import json
import logging
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from chaintomo import eee, harness, hoe, models, spectral
from chaintomo.harness import (
    TRIAL_CSV_COLUMNS,
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    IncompleteGridError,
    NumericalFailureError,
    TrialRecord,
    aggregate,
    emit_figure_data,
    recover_instance,
    render_table,
    reproduce_table,
    run_experiment,
    run_trial,
    trial_seed,
    trials_csv_text,
)
from chaintomo.ranks import predict_ranks
from chaintomo.spectral import DegenerateSpectrumError
from conftest import parse_trials_csv
from reference_grids import RANK_GRIDS


def _tiny_cfg(out, **kw):
    base = dict(model="h2", L_range=(2, 3), q_list=(1, 2), trials=2, seed=0, out_dir=str(out))
    base.update(kw)
    return ExperimentConfig(**base)


def _strip_wall_time(csv_text):
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def test_trial_seed_streams_are_distinct_and_stable():
    a = trial_seed(0, "h2", 3, 2, 5)
    b = trial_seed(0, "h2", 3, 2, 5)
    assert np.array_equal(a.generate_state(4), b.generate_state(4))
    variants = [
        trial_seed(1, "h2", 3, 2, 5),
        trial_seed(0, "h3", 3, 2, 5),
        trial_seed(0, "h2", 4, 2, 5),
        trial_seed(0, "h2", 3, 1, 5),
        trial_seed(0, "h2", 3, 2, 6),
        trial_seed(0, "h2", 3, 2, 5, retry=1),
    ]
    states = {tuple(v.generate_state(4)) for v in variants}
    states.add(tuple(a.generate_state(4)))
    assert len(states) == 7


def test_run_trial_is_deterministic(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    first = dataclasses.asdict(run_trial(cfg, "h2", 3, 2, 0))
    second = dataclasses.asdict(run_trial(cfg, "h2", 3, 2, 0))
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_run_trial_matches_predictions(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    for L, q in [(2, 1), (3, 2)]:
        rec = run_trial(cfg, "h2", L, q, 0)
        pred = predict_ranks("h2", L, q)
        assert not rec.rejected
        assert rec.r == pred.r
        assert rec.r_prime == pred.r_prime
        assert rec.delta_gap == pred.gap
        assert rec.delta_gap_prime == pred.gap_prime
        assert rec.relations_ok
        if pred.recoverable:
            assert rec.delta_hoe < 1e-6 and rec.delta_eee < 1e-6
        else:
            assert rec.delta_hoe > 0.1 and rec.delta_eee > 0.1


def test_rank_cut_within_a_decade_is_logged(tmp_path, caplog):
    # seed 5, h3table L=7, q=1, trial 1: G's smallest kept singular value
    # sits 0.021 decades above the cut; Q's decision is far from its cut
    cfg = _tiny_cfg(tmp_path, model="h3table", L_range=(7, 7), q_list=(1,), seed=5)
    with caplog.at_level(logging.WARNING, logger="chaintomo.harness"):
        rec = run_trial(cfg, "h3table", 7, 1, 1)
    assert rec.delta_gap == 0 and rec.delta_gap_prime == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "model=h3table L=7 q=1 trial=1 route=hoe kept=0.0209" in warnings[0]
    caplog.clear()
    # a unique cell with every decision well clear of its cut logs nothing
    with caplog.at_level(logging.WARNING, logger="chaintomo.harness"):
        rec = run_trial(_tiny_cfg(tmp_path, seed=5), "h2", 3, 2, 0)
    assert rec.delta_gap == 0 and rec.delta_gap_prime == 0
    assert caplog.records == []


def test_recover_instance_logs_rank_cuts_near_the_cut(monkeypatch, caplog):
    # recover_instance warns as a sweep trial does, naming its seed in
    # place of the trial; at 20 decades every decision is near its cut,
    # since kept is at most 10 decades at a cut of 1e-10 sigma_0
    monkeypatch.setattr(harness, "NEAR_CUT_DECADES", 20)
    with caplog.at_level(logging.WARNING, logger="chaintomo.harness"):
        recover_instance("h2", 3, 2, seed=0)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 2
    for warning, method in zip(warnings, harness.METHODS):
        assert "decade of a singular value: model=h2 L=3 q=2 seed=0 route=" + method + " kept=" in warning


def test_serial_runs_never_load_the_pool(tmp_path):
    # multiprocessing is imported only where a sweep starts a pool
    code = (
        "import sys, chaintomo\n"
        "from chaintomo.harness import ExperimentConfig, run_experiment, recover_instance\n"
        f"run_experiment(ExperimentConfig('h2', (2, 3), (1, 2), trials=1, out_dir={str(tmp_path)!r}))\n"
        "recover_instance('h2', 3, 2)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_run_trial_single_method(tmp_path):
    cfg = _tiny_cfg(tmp_path, methods=("hoe",))
    rec = run_trial(cfg, "h2", 2, 1, 0)
    assert rec.delta_hoe is not None and rec.r is not None
    assert rec.delta_eee is None and rec.r_prime is None
    assert rec.delta_gap_prime is None and rec.relations_ok is None


def test_run_trial_rejects_after_forced_degeneracy(tmp_path, monkeypatch):
    import chaintomo.spectral

    def always_degenerate(*args, **kwargs):
        raise DegenerateSpectrumError("forced")

    monkeypatch.setattr(chaintomo.spectral, "build_steady_state", always_degenerate)
    rec = run_trial(_tiny_cfg(tmp_path), "h2", 2, 1, 0)
    assert rec.rejected
    assert rec.seed_stream_id.endswith("-16")
    for field in ("delta_hoe", "delta_eee", "r", "r_prime", "delta_gap", "delta_gap_prime", "relations_ok"):
        assert getattr(rec, field) is None
    line = trials_csv_text([rec]).splitlines()[1]
    assert line.startswith("h2,2,1,0,,,,,,,,True,")
    with pytest.raises(NumericalFailureError, match="model=h2 L=2 q=1 seed=0 in 16 retries"):
        recover_instance("h2", 2, 1, seed=0)


@pytest.mark.parametrize("model,L,q,methods", [
    ("h2", 3, 2, ("hoe", "eee")),  # gap 0
    ("h2", 2, 3, ("hoe", "eee")),  # gap > 0
    ("h2", 3, 2, ("hoe",)),
])
def test_run_trial_and_recover_instance_score_alike(model, L, q, methods, tmp_path):
    cfg = _tiny_cfg(tmp_path, seed=7, methods=methods)
    rec = run_trial(cfg, model, L, q, 0)
    result = recover_instance(model, L, q, seed=7, methods=methods)
    for method, (delta, rank, gap) in harness.ROUTE_FIELDS.items():
        if method not in methods:
            assert method not in result
            assert getattr(rec, delta) is getattr(rec, rank) is getattr(rec, gap) is None
            continue
        assert getattr(rec, delta) == result[method]["reconstruction_error"]
        assert getattr(rec, rank) == result[method]["rank"]
        assert getattr(rec, gap) == result[method]["gap"]
    assert predict_ranks(model, L, q).gap == rec.delta_gap


@pytest.mark.parametrize("field,value", [
    ("model", "h9"),
    ("L_range", (3,)),
    ("L_range", (4, 3)),
    ("L_range", (1, 3)),
    ("q_list", ()),
    ("q_list", (0,)),
    ("q_list", (1, 5)),
    ("trials", 0),
    ("seed", -1),
    ("seed", 1.5),
    ("selection_policy", "middle"),
    ("rank_tol", 0.0),
    ("success_threshold", -1e-6),
    ("methods", ()),
    ("methods", ("hoe", "cheat")),
    ("workers", 0),
    ("trials", 2.5),
    ("trials", "3"),
    ("rank_tol", "1e-10"),
    ("success_threshold", None),
    ("out_dir", None),
    ("workers", 1.5),
    ("workers", "2"),
    ("q_list", (3, 3)),
    ("q_list", (1, 2, 1)),
    ("methods", ("hoe", "hoe")),
    # JSON true loads as a bool, which isinstance counts as an int, and
    # JSON Infinity as a float
    ("trials", True),
    ("q_list", (True,)),
    ("seed", True),
    ("workers", True),
    ("rank_tol", True),
    ("rank_tol", float("inf")),
    ("rank_tol", 1.0),
    ("rank_tol", 2),
    ("success_threshold", True),
    ("success_threshold", float("inf")),
])
def test_config_validation_rejects(field, value, tmp_path):
    with pytest.raises(ConfigError):
        _tiny_cfg(tmp_path, **{field: value})


def test_config_replace_revalidates(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    with pytest.raises(ConfigError, match="workers"):
        dataclasses.replace(cfg, workers=0)


def test_kind_ids_cover_every_model():
    # the ids enter every trial's seed stream: a family without one would
    # pass validation and fail at its first trial, and a changed id would
    # change every result drawn for its family
    assert harness.KIND_ID == {"h2": 0, "h2prime": 1, "h3": 2, "h3table": 3}
    assert set(harness.KIND_ID) == set(models.MODEL_KINDS)


def test_config_from_mapping():
    cfg = ExperimentConfig.from_mapping({"model": "h2", "L_range": [2, 4]})
    assert cfg.L_range == (2, 4)
    assert cfg.q_list == (1, 2, 3)
    assert cfg.trials == 200
    cfg = ExperimentConfig.from_mapping({
        "model": "h3table", "L_range": [3, 3], "q_list": [1], "methods": ["eee"], "trials": 5,
    })
    assert cfg.methods == ("eee",)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"model": "h2", "L_range": [2, 3], "colour": "red"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"model": "h2"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"model": "h2", "L_range": 4})


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "h2", "L_range": [2, 3], "trials": 7}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.trials == 7
    cfg = ExperimentConfig.from_file(path, overrides={"trials": 9, "seed": 4})
    assert (cfg.trials, cfg.seed) == (9, 4)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(arr)


def test_run_experiment_end_to_end(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    rows = run_experiment(cfg)
    csv_path = tmp_path / "trials.csv"
    agg_path = tmp_path / "aggregate.json"
    assert csv_path.exists() and agg_path.exists()
    text = csv_path.read_text()
    # README's column list; wall_time_s stays last, as readers that compare
    # runs drop the last column
    assert text.splitlines()[0] == ("model,L,q,trial,delta_hoe,delta_eee,r,r_prime,delta_gap,delta_gap_prime,"
                                    "relations_ok,rejected,wall_time_s")
    assert ",".join(TRIAL_CSV_COLUMNS) == text.splitlines()[0]
    records = parse_trials_csv(csv_path)
    assert len(records) == 2 * len(cfg.cells())
    for rec in records:
        assert rec["r"] == RANK_GRIDS["h2"][(rec["L"], rec["q"])]
        assert rec["relations_ok"] is True
        assert not rec["rejected"]
    assert len(rows) == len(cfg.cells()) * 2  # one row per method
    by_key = {(r.L, r.q, r.method): r for r in rows}
    assert by_key[(3, 2, "hoe")].success_rate == 1.0
    assert by_key[(3, 2, "hoe")].median_delta < 1e-6
    assert by_key[(2, 1, "hoe")].success_rate == 0.0
    assert by_key[(2, 1, "eee")].median_delta > 0.1
    for row in rows:
        assert row.trials == 2 and row.rejected == 0
        assert row.rank_constant
        assert row.upper_dev >= 0 and row.lower_dev >= 0
    stored = json.loads(agg_path.read_text())
    assert stored == [dataclasses.asdict(r) for r in rows]


def test_run_experiment_is_deterministic(tmp_path):
    rows_a = run_experiment(_tiny_cfg(tmp_path / "a"))
    rows_b = run_experiment(_tiny_cfg(tmp_path / "b"))
    text_a = _strip_wall_time((tmp_path / "a" / "trials.csv").read_text())
    text_b = _strip_wall_time((tmp_path / "b" / "trials.csv").read_text())
    assert text_a == text_b
    assert rows_a == rows_b
    assert (tmp_path / "a" / "aggregate.json").read_bytes() == (tmp_path / "b" / "aggregate.json").read_bytes()


def test_worker_pool_matches_serial(tmp_path, caplog, monkeypatch):
    serial = run_experiment(_tiny_cfg(tmp_path / "s", L_range=(2, 2), trials=3))
    written = []
    write = harness.write_trials_csv

    def counting_write(path, records):
        written.append(len(records))
        write(path, records)

    monkeypatch.setattr(harness, "write_trials_csv", counting_write)
    with caplog.at_level(logging.INFO, logger="chaintomo.harness"):
        pooled = run_experiment(_tiny_cfg(tmp_path / "p", L_range=(2, 2), trials=3, workers=2))
    assert serial == pooled
    # the pool reports each cell as it starts and flushes trials.csv as it ends
    progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("running")]
    assert progress == ["running model=h2 L=2 q=1 (3 trials)", "running model=h2 L=2 q=2 (3 trials)"]
    assert written == [3, 6, 6]
    text_s = _strip_wall_time((tmp_path / "s" / "trials.csv").read_text())
    text_p = _strip_wall_time((tmp_path / "p" / "trials.csv").read_text())
    assert text_s == text_p


def test_aborted_sweep_flushes_every_finished_trial(tmp_path, monkeypatch):
    # the sixth trial is the second of cell (L=3, q=1): the first of that
    # cell finished and is flushed with the two whole cells before it
    calls = []
    run = harness.run_trial

    def failing_sixth(*args):
        calls.append(args)
        if len(calls) == 6:
            raise NumericalFailureError("sixth trial fails")
        return run(*args)

    monkeypatch.setattr(harness, "run_trial", failing_sixth)
    with pytest.raises(NumericalFailureError, match="sixth trial fails"):
        run_experiment(_tiny_cfg(tmp_path))
    rows = parse_trials_csv(tmp_path / "trials.csv")
    assert [(r["L"], r["q"], r["trial"]) for r in rows] == [(2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1), (3, 1, 0)]
    assert not (tmp_path / "aggregate.json").exists()


def _rec(model="h2", L=2, q=1, t=0, delta=0.5, r=6, r_prime=7, rejected=False):
    if rejected:
        return TrialRecord(model, L, q, t, "s", None, None, None, None, None, None, None, True, 0.01)
    n = 12 * L - 9
    return TrialRecord(model, L, q, t, "s", delta, delta, r, r_prime,
                       n - 1 - r, n + q - 1 - r_prime, True, False, 0.01)


def test_aggregate_counts_rejected_trials():
    records = [_rec(t=0, delta=0.2), _rec(t=1, delta=0.4), _rec(t=2, rejected=True)]
    rows = aggregate(records, ("hoe",), 1e-6)
    assert len(rows) == 1
    row = rows[0]
    assert row.trials == 2 and row.rejected == 1
    assert row.median_delta == pytest.approx(0.3)
    assert row.upper_dev == pytest.approx(0.1)
    assert row.lower_dev == pytest.approx(0.1)
    assert row.success_rate == 0.0


def test_full_rank_constraint_matrix_names_the_trial(tmp_path, monkeypatch):
    # a constraint matrix of full column rank has no null vector: the trial
    # fails loudly, named, instead of scoring a least-singular vector
    monkeypatch.setattr(harness.hoe, "constraint_matrix", lambda basis, state: np.eye(basis.n_params))
    cfg = _tiny_cfg(tmp_path, methods=("hoe",))
    with pytest.raises(NumericalFailureError, match=r"model=h2 L=2 q=1 trial=0: numeric rank 15"):
        run_trial(cfg, "h2", 2, 1, 0)


def test_aggregate_all_rejected_is_an_error():
    with pytest.raises(NumericalFailureError):
        aggregate([_rec(rejected=True)], ("hoe",), 1e-6)


def test_aggregate_flags_varying_rank():
    records = [_rec(t=0, r=6), _rec(t=1, r=6), _rec(t=2, r=7)]
    row = aggregate(records, ("hoe",), 1e-6)[0]
    assert not row.rank_constant
    assert row.rank_mode == 6


def _fake_rows(model, method, lengths, median=0.0):
    rows = []
    for L in lengths:
        for q in (1, 2, 3):
            pred = predict_ranks(model, L, q)
            rows.append(AggregateRow(
                model=model, L=L, q=q, method=method, trials=4, rejected=0,
                median_delta=median, upper_dev=0.0, lower_dev=0.0,
                rank_mode=pred.r if method == "hoe" else pred.r_prime,
                rank_constant=True, success_rate=1.0,
            ))
    return rows


def test_render_rank_table():
    text, csv_text = render_table(1, _fake_rows("h2", "hoe", range(2, 10)))
    lines = csv_text.splitlines()
    assert lines[0] == "L,N,r_q1,gap_q1,r_q2,gap_q2,r_q3,gap_q3"
    assert lines[1] == "2,15,6,8,10,4,12,2"
    assert lines[4] == "5,51,50,0,50,0,50,0"
    assert text.splitlines()[0].split() == lines[0].split(",")


def test_render_joint_rank_table():
    _, csv_text = render_table(3, _fake_rows("h2", "eee", range(2, 10)))
    lines = csv_text.splitlines()
    assert lines[0] == ("L,n_unknowns_q1,r_prime_q1,gap_prime_q1,"
                        "n_unknowns_q2,r_prime_q2,gap_prime_q2,"
                        "n_unknowns_q3,r_prime_q3,gap_prime_q3")
    assert lines[1] == "2,16,7,8,17,12,4,18,15,2"
    assert lines[4] == "5,52,51,0,53,52,0,54,53,0"


def test_render_analytic_table():
    text, csv_text = render_table(5)
    lines = csv_text.splitlines()
    assert lines[0] == "model,Lc_q1,Lc_q2,Lc_q3,Lc_q4,Lc_q5,Lc_q6"
    assert lines[1] == "h2,5,3,3,3,3,3"
    assert lines[2] == "h2prime,6,4,3,3,3,3"
    assert lines[3] == "h3,7,6,5,4,4,3"
    assert "h3" in text


def test_render_table_errors():
    with pytest.raises(ValueError):
        render_table(7, [])
    with pytest.raises(IncompleteGridError):
        render_table(1, None)
    with pytest.raises(IncompleteGridError):
        render_table(1, _fake_rows("h2", "hoe", range(2, 5)))
    with pytest.raises(IncompleteGridError):
        render_table(2, _fake_rows("h2", "hoe", range(2, 10)))  # wrong model


def test_emit_figure_data(tmp_path):
    rows = _fake_rows("h2", "hoe", range(2, 10), median=0.25) + _fake_rows(
        "h3table", "hoe", range(3, 10), median=0.5)
    paths = emit_figure_data(1, rows, tmp_path)
    assert [p.name for p in paths] == [
        f"figure1_{model}_q{q}" + ".csv"
        for model in ("h2", "h3table") for q in (1, 2, 3)
    ]
    body = (tmp_path / "figure1_h2_q2.csv").read_text().splitlines()
    assert body[0] == "L,median_delta,lower_dev,upper_dev"
    assert body[1] == "2,0.25,0.0,0.0"
    assert len(body) == 1 + 8
    with pytest.raises(ValueError):
        emit_figure_data(3, rows, tmp_path)
    with pytest.raises(IncompleteGridError):
        emit_figure_data(2, rows, tmp_path)  # rows carry no eee results
    with pytest.raises(IncompleteGridError):
        emit_figure_data(1, None, tmp_path)


def test_emit_figure_data_writes_nothing_for_an_incomplete_grid(tmp_path):
    # h2 is complete and comes first; h3table lacks L=9
    rows = _fake_rows("h2", "hoe", range(2, 10)) + _fake_rows("h3table", "hoe", range(3, 9))
    with pytest.raises(IncompleteGridError, match="model=h3table"):
        emit_figure_data(1, rows, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_reproduce_analytic_table(tmp_path):
    text, csv_text = reproduce_table(5, out_dir=tmp_path)
    assert (tmp_path / "table5.txt").read_text() == text
    assert (tmp_path / "table5.csv").read_text() == csv_text
    assert csv_text.splitlines()[1] == "h2,5,3,3,3,3,3"


def test_recover_instance_report():
    result = recover_instance("h2", 3, 2, seed=0)
    assert result["n_params"] == 27
    assert len(result["true_coefficients"]) == 27
    assert result["hoe"]["rank"] == 26 and result["hoe"]["unique"]
    assert result["eee"]["rank"] == 28
    assert result["hoe"]["reconstruction_error"] < 1e-6
    assert result["eee"]["reconstruction_error"] < 1e-6
    assert len(result["eee"]["eigenvalues"]) == 2
    assert result["hoe"]["eigenvalues"] is None
    assert result["relations"]["rank_relation_ok"]
    assert result["relations"]["gap_relation_ok"]
    # each route writes the report's fields as they are, plus the error
    names = [field.name for field in dataclasses.fields(hoe.RecoveryReport)] + ["reconstruction_error"]
    for method in ("hoe", "eee"):
        r = result[method]
        assert list(r) == names, method
        assert r["kept"] > 0 and r["kept"] + r["dropped"] >= 3
    assert json.loads(json.dumps(result)) == result  # lists, numbers, booleans and nulls only
    assert recover_instance("h2", 3, 2, seed=0) == result


@pytest.mark.parametrize("model,L,q,sketched", [("h2", 8, 3, True), ("h3table", 7, 3, False), ("h3table", 9, 3, True),
                                                ("h3table", 9, 2, True), ("h2", 8, 1, True)])
def test_routes_match_the_public_builders_bit_for_bit(model, L, q, sketched):
    # perfbench's traced replica recovers from the public builders' G and
    # joint matrix, as a sweep trial does through _run_routes; where Q is at
    # least twice as tall as its sketch both are the CountSketch of Q: the
    # reports must not differ in a single bit
    basis, _, state, _ = harness.draw_instance(model, L, q, 1, 0, "lowest")
    qmat = eee.constraint_matrix(basis, state)
    n = basis.n_params
    assert qmat.shape[0] == (2 * (n + q) if sketched else 2 * basis.dim * q)
    reports, _ = harness._run_routes(basis, state, harness.METHODS, hoe.DEFAULT_RANK_TOL, "test")
    public = {"hoe": hoe.recover(hoe.constraint_matrix(basis, state)), "eee": eee.recover(qmat, n)}
    for method, expected in public.items():
        got = reports[method]
        assert np.array_equal(got.coefficients, expected.coefficients), method
        assert (got.rank, got.gap, got.kept, got.dropped) == (expected.rank, expected.gap, expected.kept,
                                                             expected.dropped), method
    assert np.array_equal(reports["eee"].eigenvalues, public["eee"].eigenvalues)


@pytest.mark.parametrize("model,L,q", [("h3table", 9, 3), ("h2", 10, 2), ("h3table", 10, 3), ("h3", 9, 2)])
def test_draw_instance_matches_the_public_steady_state_bit_for_bit(model, L, q):
    # perfbench's traced replica draws through eig_hermitian of the dense H
    # and build_steady_state on the trial's own seed streams, where the
    # program builds H's flip form from the term masks; at these cells both
    # keep H's nonzeros in that flip form (h3 L=9 at exactly NONZERO_SHARE),
    # and the states must not differ in a bit
    basis, a_true, state, retry = harness.draw_instance(model, L, q, 1, 0, "lowest")
    param_stream, state_stream = trial_seed(1, model, L, q, 0, retry).spawn(2)
    assert np.array_equal(models.sample_params(basis, param_stream), a_true)
    eig = spectral.eig_hermitian(models.assemble(basis, a_true))
    assert eig.flip_form is not None
    replica = spectral.build_steady_state(eig, q, "lowest", state_stream)
    for field in ("states", "energies", "probs"):
        assert np.array_equal(getattr(state, field), getattr(replica, field)), field


def test_lowest_draw_forms_no_dense_hamiltonian(monkeypatch):
    # at h3table L=10 q=3 the draw never calls assemble, and its traced peak
    # stays below one dense H (16.8 MB)
    def no_dense(*args):
        raise AssertionError("assemble called")

    monkeypatch.setattr(models, "assemble", no_dense)
    harness.draw_instance("h3table", 10, 3, 1, 0, "lowest")
    tracemalloc.start()
    try:
        _, _, state, _ = harness.draw_instance("h3table", 10, 3, 1, 0, "lowest")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state is not None and peak < 1024 * 1024 * 16, peak / 2**20


def test_failed_lanczos_pick_forms_h_from_its_nonzeros(monkeypatch):
    # with the Lanczos pick forced to fail, the dense step forms H from its
    # nonzeros in flip form, byte for byte assemble's, and picks the states
    # the dense step picks on eig_hermitian(assemble(...))
    monkeypatch.setattr(spectral, "_krylov_lowest", lambda eig, q: None)
    decomposed, build = [], spectral.build_steady_state
    monkeypatch.setattr(spectral, "build_steady_state", lambda eig, *args: decomposed.append(eig) or build(eig, *args))
    basis, a_true, state, retry = harness.draw_instance("h3table", 9, 3, 1, 0, "lowest")
    eig = decomposed[-1]
    h = models.assemble(basis, a_true)
    assert eig.dense is None and eig.flip_form is not None and eig.matrix.tobytes() == h.tobytes()
    state_stream = trial_seed(1, "h3table", 9, 3, 0, retry).spawn(2)[1]
    replica = build(spectral.eig_hermitian(h), 3, "lowest", state_stream)
    for field in ("states", "energies", "probs"):
        assert np.array_equal(getattr(state, field), getattr(replica, field)), field


def test_routes_at_tall_state_blocks_never_hold_the_joint_matrix():
    # each state's block is sketched as it is gathered, so the routes'
    # peak stays below the whole Q, which they once held 1.5 times
    basis, _, state, _ = harness.draw_instance("h2", 9, 5, 1, 0, "lowest")
    whole_q = 2 * basis.dim * state.q * (basis.n_params + state.q) * 8
    tracemalloc.start()
    try:
        harness._run_routes(basis, state, harness.METHODS, hoe.DEFAULT_RANK_TOL, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_q, peak / whole_q


def test_routes_factor_no_more_than_one_state_block(monkeypatch):
    # at h3table L=9 q=2 the routes factor the 706-row sketch of Q and
    # never the 2048-row Q
    basis, _, state, _ = harness.draw_instance("h3table", 9, 2, 1, 0, "lowest")
    rows, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda m, *args, **kw: rows.append(m.shape[0]) or qr(m, *args, **kw))
    harness._run_routes(basis, state, harness.METHODS, hoe.DEFAULT_RANK_TOL, "test")
    assert rows and max(rows) <= 2 * basis.dim, rows


def test_recover_instance_single_method():
    result = recover_instance("h2", 2, 1, seed=3, methods=("hoe",))
    assert "eee" not in result and "relations" not in result
    assert not result["hoe"]["unique"]
