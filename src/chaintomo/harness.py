"""Reproducible Monte-Carlo sweeps over models, chain lengths and mixtures.

One trial draws a random Hamiltonian from a model family, mixes q of its
eigenstates into a steady state, runs the requested recovery routes and
scores them against the known truth. A sweep runs a grid of (L, q) cells,
persists every trial to CSV, and aggregates each cell into median error,
min/max deviations, the modal constraint rank and the success rate.

Every trial owns a private random stream derived from (master seed, model,
L, q, trial index, retry), so any single trial can be rerun in isolation
and full sweeps are reproducible regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import eee, hoe, models, ranks, spectral

log = logging.getLogger(__name__)

KIND_ID = {"h2": 0, "h2prime": 1, "h3": 2, "h3table": 3}

METHODS = ("hoe", "eee")

MAX_DEGENERACY_RETRIES = 16

TRIAL_CSV_COLUMNS = (
    "model",
    "L",
    "q",
    "trial",
    "delta_hoe",
    "delta_eee",
    "r",
    "r_prime",
    "delta_gap",
    "delta_gap_prime",
    "relations_ok",
    "rejected",
    "wall_time_s",
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class IncompleteGridError(RuntimeError):
    """Results do not cover the grid a report needs."""


class NumericalFailureError(RuntimeError):
    """A trial or aggregate could not be computed reliably."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one sweep.

    ``L_range`` is inclusive on both ends. ``methods`` selects which
    recovery routes run per trial. ``workers`` > 1 distributes trials
    over a process pool without changing any result.
    """

    model: str
    L_range: tuple[int, int]
    q_list: tuple[int, ...] = (1, 2, 3)
    trials: int = 200
    seed: int = 0
    selection_policy: str = "lowest"
    rank_tol: float = 1e-10
    success_threshold: float = 1e-6
    methods: tuple[str, ...] = ("hoe", "eee")
    out_dir: str = "results"
    workers: int = 1

    def validate(self) -> None:
        if self.model not in models.MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {models.MODEL_KINDS}")
        if len(self.L_range) != 2:
            raise ConfigError(f"L_range must be a (low, high) pair, got {self.L_range!r}")
        lo, hi = self.L_range
        if not (isinstance(lo, int) and isinstance(hi, int)) or lo > hi:
            raise ConfigError(f"bad L_range {self.L_range!r}")
        if lo < models.min_length(self.model):
            raise ConfigError(
                f"L_range starts at {lo} but model {self.model!r} needs L >= {models.min_length(self.model)}"
            )
        if not self.q_list:
            raise ConfigError("q_list must not be empty")
        for q in self.q_list:
            if not isinstance(q, int) or q < 1:
                raise ConfigError(f"bad q value {q!r}")
            if q > 2**lo:
                raise ConfigError(f"q={q} exceeds the Hilbert dimension at L={lo}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.selection_policy not in spectral.SELECTION_POLICIES:
            raise ConfigError(f"unknown selection policy {self.selection_policy!r}")
        if not self.rank_tol > 0:
            raise ConfigError(f"rank_tol must be positive, got {self.rank_tol}")
        if not self.success_threshold > 0:
            raise ConfigError(f"success_threshold must be positive, got {self.success_threshold}")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected a subset of {METHODS}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")

    def cells(self) -> list[tuple[int, int]]:
        lo, hi = self.L_range
        return [(L, q) for L in range(lo, hi + 1) for q in self.q_list]

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "model" not in mapping or "L_range" not in mapping:
            raise ConfigError("config must set at least 'model' and 'L_range'")
        values = dict(mapping)
        for key in ("L_range", "q_list", "methods"):
            if key in values:
                try:
                    values[key] = tuple(values[key])
                except TypeError:
                    raise ConfigError(f"config key {key!r} must be a list") from None
        cfg = cls(**values)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        if overrides:
            data.update(overrides)
        return cls.from_mapping(data)


def trial_seed(seed: int, model: str, L: int, q: int, trial_index: int, retry: int = 0) -> np.random.SeedSequence:
    """Private entropy stream of one trial, stable across runs and workers."""
    return np.random.SeedSequence((seed, KIND_ID[model], L, q, trial_index, retry))


@dataclass(frozen=True)
class TrialRecord:
    """Everything measured on one random instance.

    ``rejected`` marks trials abandoned after repeated degenerate
    eigenvalue picks; their metric fields are None. Fields of methods
    that did not run are None as well.
    """

    model: str
    L: int
    q: int
    trial_index: int
    seed_stream_id: str
    delta_hoe: float | None
    delta_eee: float | None
    r: int | None
    r_prime: int | None
    delta_gap: int | None
    delta_gap_prime: int | None
    relations_ok: bool | None
    rejected: bool
    wall_time_s: float


@dataclass(frozen=True)
class AggregateRow:
    """Per-cell, per-method summary over all accepted trials.

    The δ statistics measure recovery only where the gap is 0. At a cell
    with gap > 0 the recovered vector is an arbitrary unit element of the
    nullspace, picked by the factorization, so there only the size of δ
    (far above the success threshold) means anything.
    """

    model: str
    L: int
    q: int
    method: str
    trials: int
    rejected: int
    median_delta: float
    upper_dev: float
    lower_dev: float
    rank_mode: int
    rank_constant: bool
    success_rate: float


def draw_instance(model: str, L: int, q: int, seed: int, trial_index: int,
                  selection: str) -> tuple[models.TermBasis, np.ndarray, spectral.SteadyState | None, int]:
    """Draw the seeded random instance of one trial: basis, true coefficients, steady state.

    A degenerate eigenvalue pick resamples the Hamiltonian on a fresh retry
    stream, at most MAX_DEGENERACY_RETRIES times. Returns
    ``(basis, a_true, state, retry)``; ``state`` is None when every pick was
    degenerate.
    """
    basis = models.enumerate_terms(model, L)
    for retry in range(MAX_DEGENERACY_RETRIES + 1):
        param_stream, state_stream = trial_seed(seed, model, L, q, trial_index, retry).spawn(2)
        a_true = models.sample_params(basis, param_stream)
        eig = spectral.eig_hermitian(models.assemble(basis, a_true))
        try:
            return basis, a_true, spectral.build_steady_state(eig, q, selection, state_stream), retry
        except spectral.DegenerateSpectrumError:
            log.debug("degenerate pick at model=%s L=%d q=%d trial=%d retry=%d", model, L, q, trial_index, retry)
    return basis, a_true, None, retry


def _run_routes(basis: models.TermBasis, state: spectral.SteadyState, methods: tuple[str, ...], rank_tol: float,
                instance: str):
    """Run the selected recovery routes on one drawn instance.

    Returns ``(hoe_report, joint, relations)``, None for what did not run.
    A failed factorization or a joint vector with no coefficient block is
    raised as NumericalFailureError naming ``instance``.
    """
    hoe_report = joint = None
    try:
        if "hoe" in methods:
            hoe_report = hoe.recover(hoe.constraint_matrix(basis, state), rank_tol)
        if "eee" in methods:
            joint = eee.recover(eee.constraint_matrix(basis, state), basis.n_params, rank_tol)
    except (eee.DegenerateRecoveryError, np.linalg.LinAlgError) as exc:
        raise NumericalFailureError(f"recovery failed at {instance}: {exc}") from exc
    both = hoe_report is not None and joint is not None
    return hoe_report, joint, eee.compare_methods(hoe_report, joint, state.q) if both else None


def run_trial(cfg: ExperimentConfig, model: str, L: int, q: int, trial_index: int) -> TrialRecord:
    """Draw, decompose, mix, recover and score one random instance.

    Deterministic given its arguments. Degenerate eigenvalue picks trigger
    a full resample on a fresh retry stream, at most 16 times; after that
    the trial is marked rejected rather than silently skipped.
    """
    t0 = time.perf_counter()
    basis, a_true, state, retry = draw_instance(model, L, q, cfg.seed, trial_index, cfg.selection_policy)
    record = dict(model=model, L=L, q=q, trial_index=trial_index,
                  seed_stream_id=f"{cfg.seed}-{KIND_ID[model]}-{L}-{q}-{trial_index}-{retry}",
                  delta_hoe=None, delta_eee=None, r=None, r_prime=None,
                  delta_gap=None, delta_gap_prime=None, relations_ok=None, rejected=state is None)
    if state is None:
        log.warning("trial rejected after %d retries: model=%s L=%d q=%d trial=%d",
                    MAX_DEGENERACY_RETRIES, model, L, q, trial_index)
        return TrialRecord(**record, wall_time_s=time.perf_counter() - t0)
    hoe_report, joint, rel = _run_routes(basis, state, cfg.methods, cfg.rank_tol,
                                        f"model={model} L={L} q={q} trial={trial_index}")
    if hoe_report is not None:
        record.update(delta_hoe=hoe.reconstruction_error(a_true, hoe_report.coefficients),
                      r=hoe_report.rank, delta_gap=hoe_report.gap)
    if joint is not None:
        record.update(delta_eee=hoe.reconstruction_error(a_true, joint.coefficients),
                      r_prime=joint.rank, delta_gap_prime=joint.gap)
    if rel is not None:
        record.update(relations_ok=rel.rank_relation_ok and rel.gap_relation_ok)
    return TrialRecord(**record, wall_time_s=time.perf_counter() - t0)


def _trial_task(args) -> TrialRecord:
    return run_trial(*args)


def aggregate(records: list[TrialRecord], methods: tuple[str, ...], success_threshold: float) -> list[AggregateRow]:
    """Reduce trial records to one row per (cell, method).

    Rejected trials are excluded from the statistics and only counted.
    The constraint rank should be identical across a cell's trials; a
    cell where it is not keeps the modal value and is flagged.
    """
    by_cell: dict[tuple[str, int, int], list[TrialRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.model, rec.L, rec.q), []).append(rec)
    rows = []
    for (model, L, q), cell in by_cell.items():
        accepted = [rec for rec in cell if not rec.rejected]
        n_rejected = len(cell) - len(accepted)
        if not accepted:
            raise NumericalFailureError(f"all trials rejected for model={model} L={L} q={q}")
        for method in methods:
            deltas = np.array([rec.delta_hoe if method == "hoe" else rec.delta_eee for rec in accepted])
            rank_values = [rec.r if method == "hoe" else rec.r_prime for rec in accepted]
            median = float(np.median(deltas))
            mode, _ = Counter(rank_values).most_common(1)[0]
            constant = len(set(rank_values)) == 1
            if not constant:
                log.warning("rank varies across trials at model=%s L=%d q=%d method=%s: %s",
                            model, L, q, method, sorted(set(rank_values)))
            rows.append(AggregateRow(
                model=model, L=L, q=q, method=method,
                trials=len(accepted), rejected=n_rejected,
                median_delta=median,
                upper_dev=float(deltas.max() - median),
                lower_dev=float(median - deltas.min()),
                rank_mode=int(mode), rank_constant=constant,
                success_rate=float(np.mean(deltas < success_threshold)),
            ))
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def trials_csv_text(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRIAL_CSV_COLUMNS)
    for rec in records:
        writer.writerow([_csv_cell(v) for v in (
            rec.model, rec.L, rec.q, rec.trial_index,
            rec.delta_hoe, rec.delta_eee, rec.r, rec.r_prime,
            rec.delta_gap, rec.delta_gap_prime,
            rec.relations_ok, rec.rejected, rec.wall_time_s,
        )])
    return buf.getvalue()


def write_trials_csv(path, records: list[TrialRecord]) -> None:
    Path(path).write_text(trials_csv_text(records))


def write_aggregate_json(path, rows: list[AggregateRow]) -> None:
    Path(path).write_text(json.dumps([asdict(row) for row in rows], indent=2) + "\n")


def run_experiment(cfg: ExperimentConfig) -> list[AggregateRow]:
    """Run the full grid, persist trials and aggregates, return the rows.

    Writes ``trials.csv`` and ``aggregate.json`` under ``cfg.out_dir``.
    Partial trial records are flushed if a later cell fails, so long runs
    are inspectable after an abort.
    """
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trials_path = out_dir / "trials.csv"
    records: list[TrialRecord] = []
    try:
        if cfg.workers > 1:
            tasks = [(cfg, cfg.model, L, q, t) for L, q in cfg.cells() for t in range(cfg.trials)]
            chunk = max(1, len(tasks) // (cfg.workers * 8))
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                for rec in pool.map(_trial_task, tasks, chunksize=chunk):
                    records.append(rec)
        else:
            for L, q in cfg.cells():
                log.info("running model=%s L=%d q=%d (%d trials)", cfg.model, L, q, cfg.trials)
                for t in range(cfg.trials):
                    records.append(run_trial(cfg, cfg.model, L, q, t))
                write_trials_csv(trials_path, records)
    except Exception:
        if records:
            write_trials_csv(trials_path, records)
        raise
    records.sort(key=lambda r: (r.model, r.L, r.q, r.trial_index))
    write_trials_csv(trials_path, records)
    rows = aggregate(records, cfg.methods, cfg.success_threshold)
    write_aggregate_json(out_dir / "aggregate.json", rows)
    return rows


def recover_instance(model: str, L: int, q: int, seed: int = 0, selection: str = "lowest",
                     rank_tol: float = 1e-10, methods: tuple[str, ...] = METHODS) -> dict:
    """One fully reported recovery on a seeded random instance.

    Unlike run_trial this keeps the recovered vectors, so the result is a
    JSON-friendly dict with per-method reports plus the cross-method
    relation checks. Uses the same seed streams as the sweep runner:
    trial index 0 of the given master seed.
    """
    instance = f"model={model} L={L} q={q} seed={seed}"
    basis, a_true, state, _ = draw_instance(model, L, q, seed, 0, selection)
    if state is None:
        raise NumericalFailureError(f"no non-degenerate state at {instance} in {MAX_DEGENERACY_RETRIES} retries")
    hoe_report, joint, rel = _run_routes(basis, state, methods, rank_tol, instance)
    result: dict = {
        "model": model, "L": L, "q": q, "seed": seed, "selection": selection,
        "n_params": basis.n_params,
        "true_coefficients": [float(v) for v in a_true],
    }
    for method, report in (("hoe", hoe_report), ("eee", joint)):
        if report is not None:
            result[method] = {
                "rank": report.rank,
                "gap": report.gap,
                "sigma_min": report.sigma_min,
                "unique": report.unique,
                "reconstruction_error": hoe.reconstruction_error(a_true, report.coefficients),
                "coefficients": [float(v) for v in report.coefficients],
            }
    if joint is not None:
        result["eee"]["eigenvalues"] = [float(v) for v in joint.eigenvalues]
    if rel is not None:
        result["relations"] = asdict(rel)
    return result


# Reference grids: (model, method, chain lengths) per report. The first two
# summarize the commutator route, the next two the joint route; the last is
# the analytic critical-length grid and needs no simulation.
TABLE_GRIDS = {
    1: ("h2", "hoe", range(2, 10)),
    2: ("h3table", "hoe", range(3, 10)),
    3: ("h2", "eee", range(2, 10)),
    4: ("h3table", "eee", range(3, 10)),
}

FIGURE_GRIDS = {
    1: ("hoe", (("h2", range(2, 10)), ("h3table", range(3, 10)))),
    2: ("eee", (("h2", range(2, 10)), ("h3table", range(3, 10)))),
}

TABLE_QS = (1, 2, 3)


def _indexed_rows(results: list[AggregateRow], model: str, method: str) -> dict[tuple[int, int], AggregateRow]:
    return {(row.L, row.q): row for row in results if row.model == model and row.method == method}


def _require_cells(index: dict, model: str, method: str, lengths, qs) -> None:
    missing = [(L, q) for L in lengths for q in qs if (L, q) not in index]
    if missing:
        raise IncompleteGridError(f"results missing cells for model={model} method={method}: {missing}")


def _format_text_table(header: list[str], body: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in [header] + body]
    return "\n".join(lines) + "\n"


def _csv_text(header: list[str], body: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    return buf.getvalue()


def render_table(which: int, results: list[AggregateRow] | None = None, q_max: int = 6) -> tuple[str, str]:
    """Render one of the five reference tables as (text, csv) strings.

    Tables 1-4 need aggregate rows covering the corresponding grid and
    report the measured modal rank with its ambiguity gap per (L, q).
    Table 5 is purely analytic and ignores ``results``.
    """
    if which == 5:
        grid = ranks.critical_length_grid(q_max=q_max)
        header = ["model"] + [f"Lc_q{q}" for q in range(1, q_max + 1)]
        body = [[kind] + [str(v) for v in row] for kind, row in grid.items()]
        return _format_text_table(header, body), _csv_text(header, body)
    if which not in TABLE_GRIDS:
        raise ValueError(f"no such table: {which}")
    if results is None:
        raise IncompleteGridError(f"table {which} needs experiment results")
    model, method, lengths = TABLE_GRIDS[which]
    index = _indexed_rows(results, model, method)
    _require_cells(index, model, method, lengths, TABLE_QS)
    if method == "hoe":
        header = ["L", "N"] + [name for q in TABLE_QS for name in (f"r_q{q}", f"gap_q{q}")]
        body = []
        for L in lengths:
            n = models.param_count(model, L)
            cells = []
            for q in TABLE_QS:
                rank = index[(L, q)].rank_mode
                cells += [str(rank), str(n - 1 - rank)]
            body.append([str(L), str(n)] + cells)
    else:
        header = ["L"] + [name for q in TABLE_QS for name in (f"n_unknowns_q{q}", f"r_prime_q{q}", f"gap_prime_q{q}")]
        body = []
        for L in lengths:
            n = models.param_count(model, L)
            cells = []
            for q in TABLE_QS:
                rank = index[(L, q)].rank_mode
                cells += [str(n + q), str(rank), str(n + q - 1 - rank)]
            body.append([str(L)] + cells)
    return _format_text_table(header, body), _csv_text(header, body)


def emit_figure_data(which: int, results: list[AggregateRow], out_dir) -> list[Path]:
    """Write one plottable series file per (model, q) of a figure.

    Columns are L, median error, and the downward/upward deviations to
    the cell's extremes, ready for log-scale error-bar plotting.
    """
    if which not in FIGURE_GRIDS:
        raise ValueError(f"no such figure: {which}")
    method, panels = FIGURE_GRIDS[which]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for model, lengths in panels:
        index = _indexed_rows(results, model, method)
        _require_cells(index, model, method, lengths, TABLE_QS)
        for q in TABLE_QS:
            header = ["L", "median_delta", "lower_dev", "upper_dev"]
            body = []
            for L in lengths:
                row = index[(L, q)]
                body.append([str(L), repr(row.median_delta), repr(row.lower_dev), repr(row.upper_dev)])
            path = out_dir / f"figure{which}_{model}_q{q}.csv"
            path.write_text(_csv_text(header, body))
            paths.append(path)
    return paths


def reproduce_table(which: int, trials: int = 200, seed: int = 0, out_dir="results",
                    workers: int = 1) -> tuple[str, str]:
    """Run whatever simulation a reference table needs and render it.

    Writes ``table{which}.txt`` and ``table{which}.csv`` under out_dir,
    next to the underlying trial data for tables 1-4.
    """
    out = Path(out_dir)
    if which == 5:
        text, csv_text = render_table(5)
    else:
        if which not in TABLE_GRIDS:
            raise ValueError(f"no such table: {which}")
        model, method, lengths = TABLE_GRIDS[which]
        cfg = ExperimentConfig(
            model=model, L_range=(lengths.start, lengths.stop - 1), q_list=TABLE_QS,
            trials=trials, seed=seed, methods=(method,), out_dir=str(out), workers=workers,
        )
        rows = run_experiment(cfg)
        text, csv_text = render_table(which, rows)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"table{which}.txt").write_text(text)
    (out / f"table{which}.csv").write_text(csv_text)
    return text, csv_text


def reproduce_figure(which: int, trials: int = 200, seed: int = 0, out_dir="results",
                     workers: int = 1) -> list[Path]:
    """Run both panels of a reference figure and write the series files."""
    if which not in FIGURE_GRIDS:
        raise ValueError(f"no such figure: {which}")
    method, panels = FIGURE_GRIDS[which]
    out = Path(out_dir)
    rows: list[AggregateRow] = []
    for model, lengths in panels:
        cfg = ExperimentConfig(
            model=model, L_range=(lengths.start, lengths.stop - 1), q_list=TABLE_QS,
            trials=trials, seed=seed, methods=(method,), out_dir=str(out / model), workers=workers,
        )
        rows.extend(run_experiment(cfg))
    return emit_figure_data(which, rows, out)
