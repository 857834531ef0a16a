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
import os
import time
from collections import Counter
from collections.abc import Iterator, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from . import eee, hoe, models, ranks, spectral

log = logging.getLogger(__name__)

KIND_ID = {"h2": 0, "h2prime": 1, "h3": 2, "h3table": 3}

# the TrialRecord fields (delta, rank, gap) that score each recovery route
ROUTE_FIELDS = {"hoe": ("delta_hoe", "r", "delta_gap"), "eee": ("delta_eee", "r_prime", "delta_gap_prime")}

METHODS = tuple(ROUTE_FIELDS)

MAX_DEGENERACY_RETRIES = 16

# decades between the rank cut and the nearest singular value on either
# side (a report's ``kept`` and ``dropped``) under which a trial is logged
NEAR_CUT_DECADES = 1.0

# the files a sweep writes under its output directory
SWEEP_FILES = ("trials.csv", "aggregate.json")

class ConfigError(ValueError):
    """Invalid experiment configuration."""


class IncompleteGridError(RuntimeError):
    """Results do not cover the grid a report needs."""


class NumericalFailureError(RuntimeError):
    """A trial or aggregate could not be computed reliably."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one sweep, valid by construction.

    ``L_range`` is inclusive on both ends. ``methods`` selects which
    recovery routes run per trial. ``workers`` > 1 distributes trials
    over a process pool without changing any result under one BLAS
    setting. Building a config, ``dataclasses.replace`` included, runs
    ``validate``, so a bad field raises ConfigError before any trial.
    """

    model: str
    L_range: tuple[int, int]
    q_list: tuple[int, ...] = (1, 2, 3)
    trials: int = 200
    seed: int = 0
    selection_policy: str = "lowest"
    rank_tol: float = hoe.DEFAULT_RANK_TOL
    success_threshold: float = 1e-6
    methods: tuple[str, ...] = ("hoe", "eee")
    out_dir: str = "results"
    workers: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.model not in models.MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {models.MODEL_KINDS}")
        if len(self.L_range) != 2:
            raise ConfigError(f"L_range must be a (low, high) pair, got {self.L_range!r}")
        lo, hi = self.L_range
        # type() rather than isinstance(): JSON true and false load as bools,
        # which isinstance counts as ints
        if type(lo) is not int or type(hi) is not int or lo > hi:
            raise ConfigError(f"bad L_range {self.L_range!r}")
        if lo < models.min_length(self.model):
            raise ConfigError(
                f"L_range starts at {lo} but model {self.model!r} needs L >= {models.min_length(self.model)}"
            )
        if not self.q_list:
            raise ConfigError("q_list must not be empty")
        for q in self.q_list:
            if type(q) is not int or q < 1:
                raise ConfigError(f"bad q value {q!r} in q_list")
            if q > 2**lo:
                raise ConfigError(f"q={q} exceeds the Hilbert dimension at L={lo}")
            spacing = q * (q - 1) / 2 * spectral.MIN_PROB_GAP
            if spacing > 1:
                raise ConfigError(f"q={q} leaves no probabilities {spectral.MIN_PROB_GAP} apart to draw: "
                                  f"q(q - 1)/2 * MIN_PROB_GAP = {spacing:g} > 1")
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.selection_policy not in spectral.SELECTION_POLICIES:
            raise ConfigError(f"unknown selection policy {self.selection_policy!r}")
        # a rank cut at or above sigma_0 keeps nothing
        for key, top in (("rank_tol", 1.0), ("success_threshold", np.inf)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < top:
                raise ConfigError(f"{key} must be a number in (0, {top:g}), got {value!r}")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected a subset of {METHODS}")
        for key in ("q_list", "methods"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} repeats a value: {values!r}")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigError(f"out_dir must be a path, got {self.out_dir!r}")
        if type(self.workers) is not int or self.workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {self.workers!r}")

    def cells(self) -> list[tuple[int, int]]:
        lo, hi = self.L_range
        return [(L, q) for L in range(lo, hi + 1) for q in self.q_list]

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        unknown = set(mapping) - {f.name for f in fields(cls)}
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
        return cls(**values)

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


# one trials.csv column per TrialRecord field but the stream id, in field order, trial_index written as trial
TRIAL_CSV_COLUMNS = tuple("trial" if f.name == "trial_index" else f.name
                          for f in fields(TrialRecord) if f.name != "seed_stream_id")


@dataclass(frozen=True)
class AggregateRow:
    """Per-cell, per-method summary over all accepted trials.

    The δ statistics measure recovery only where the gap is 0. At a cell
    with gap > 0 the recovered vector is the nullspace's canonical element
    (see ``hoe.nullspace``): δ is then a function of the nullspace, and its
    size, far above the success threshold, says the recovery is ambiguous.
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

    H is decomposed from its flip form (``models.flip_form``), formed dense
    only where its flips are too many or the dense path must run. A degenerate
    eigenvalue pick resamples the Hamiltonian on a fresh retry stream, at
    most MAX_DEGENERACY_RETRIES times. Returns
    ``(basis, a_true, state, retry)``; ``state`` is None when every pick was
    degenerate.
    """
    basis = models.enumerate_terms(model, L)
    for retry in range(MAX_DEGENERACY_RETRIES + 1):
        param_stream, state_stream = trial_seed(seed, model, L, q, trial_index, retry).spawn(2)
        a_true = models.sample_params(basis, param_stream)
        eig = spectral.eig_hermitian(models.flip_form(basis, a_true))
        try:
            return basis, a_true, spectral.build_steady_state(eig, q, selection, state_stream), retry
        except spectral.DegenerateSpectrumError:
            log.debug("degenerate pick at model=%s L=%d q=%d trial=%d retry=%d", model, L, q, trial_index, retry)
    return basis, a_true, None, retry


@contextmanager
def _naming_failures(instance: str):
    """Re-raise a failed eigensolve or factorization, or a joint vector with
    no coefficient block, as NumericalFailureError naming ``instance``."""
    try:
        yield
    except (eee.DegenerateRecoveryError, np.linalg.LinAlgError) as exc:
        raise NumericalFailureError(f"recovery failed at {instance}: {exc}") from exc


def _run_routes(basis: models.TermBasis, state: spectral.SteadyState, methods: tuple[str, ...], rank_tol: float,
                instance: str):
    """Run the selected recovery routes on one drawn instance.

    Both constraint matrices come from one pass over the mixed states
    (``hoe.constraint_matrices``, which decides where Q is replaced by its
    CountSketch); the commutator SVD runs before the joint QR. A rank decision
    within NEAR_CUT_DECADES of its cut, on either side, is logged as a
    warning naming ``instance`` and the route. Returns ``(reports,
    relations)``: the reports keyed by method in METHODS order, and the
    cross-route checks when both routes ran (else None).
    """
    g, qmat = hoe.constraint_matrices(basis, state, methods)
    reports = {}
    if g is not None:
        reports["hoe"] = hoe.recover(g, rank_tol)
        del g  # held across the QR of Q, it raised the sweeps' peak RSS by 4.5 MB
    if qmat is not None:
        reports["eee"] = eee.recover(qmat, basis.n_params, rank_tol)
    for method, report in reports.items():
        near = {side: decades for side, decades in (("kept", report.kept), ("dropped", report.dropped))
                if decades is not None and decades < NEAR_CUT_DECADES}
        if near:
            log.warning("rank cut within %g decade of a singular value: %s route=%s %s", NEAR_CUT_DECADES,
                        instance, method, " ".join(f"{side}={decades:.3g}" for side, decades in near.items()))
    return reports, eee.compare_methods(reports["hoe"], reports["eee"], state.q) if len(reports) == 2 else None


def run_trial(cfg: ExperimentConfig, model: str, L: int, q: int, trial_index: int) -> TrialRecord:
    """Draw, decompose, mix, recover and score one random instance.

    Deterministic given its arguments. Degenerate eigenvalue picks trigger
    a full resample on a fresh retry stream, at most 16 times; after that
    the trial is marked rejected rather than silently skipped. A failed
    eigensolve or recovery raises NumericalFailureError naming the trial,
    and a rank decision near its cut is logged naming it (see _run_routes).
    """
    t0 = time.perf_counter()
    instance = f"model={model} L={L} q={q} trial={trial_index}"
    with _naming_failures(instance):
        basis, a_true, state, retry = draw_instance(model, L, q, cfg.seed, trial_index, cfg.selection_policy)
        reports, rel = ({}, None) if state is None else _run_routes(basis, state, cfg.methods, cfg.rank_tol, instance)
    if state is None:
        log.warning("trial rejected after %d retries: model=%s L=%d q=%d trial=%d",
                    MAX_DEGENERACY_RETRIES, model, L, q, trial_index)
    scores = dict.fromkeys(field for route in ROUTE_FIELDS.values() for field in route)
    for method, report in reports.items():
        delta = hoe.reconstruction_error(a_true, report.coefficients)
        scores.update(zip(ROUTE_FIELDS[method], (delta, report.rank, report.gap)))
    return TrialRecord(model=model, L=L, q=q, trial_index=trial_index,
                       seed_stream_id=f"{cfg.seed}-{KIND_ID[model]}-{L}-{q}-{trial_index}-{retry}", **scores,
                       relations_ok=None if rel is None else rel.rank_relation_ok and rel.gap_relation_ok,
                       rejected=state is None, wall_time_s=time.perf_counter() - t0)


def sweep(cfg: ExperimentConfig) -> Iterator[TrialRecord]:
    """Run the grid's trials and yield each record as it finishes, in grid order.

    Trials run through ``map``, or through the ordered map of a process pool
    when ``cfg.workers`` > 1; nothing else differs between the two. Each
    cell is logged as its first trial is asked for.
    """
    tasks = [(L, q, t) for L, q in cfg.cells() for t in range(cfg.trials)]
    if cfg.workers > 1:
        # imported only here: the pool's modules, multiprocessing among them,
        # add 1.9 MB to the peak RSS and 16 ms once numpy is loaded, which a
        # serial sweep or a recover_instance call would pay for nothing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else nullcontext() as pool:
        args = (repeat(cfg), repeat(cfg.model), *zip(*tasks))
        results = map(run_trial, *args) if pool is None else pool.map(
            run_trial, *args, chunksize=max(1, len(tasks) // (cfg.workers * 8)))
        for L, q in cfg.cells():
            log.info("running model=%s L=%d q=%d (%d trials)", cfg.model, L, q, cfg.trials)
            for _ in range(cfg.trials):
                yield next(results)


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
            delta_field, rank_field, _ = ROUTE_FIELDS[method]
            deltas = np.array([getattr(rec, delta_field) for rec in accepted])
            rank_values = [getattr(rec, rank_field) for rec in accepted]
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
    names = ["trial_index" if column == "trial" else column for column in TRIAL_CSV_COLUMNS]
    return _csv_text(list(TRIAL_CSV_COLUMNS), [[_csv_cell(getattr(rec, f)) for f in names] for rec in records])


def write_trials_csv(path, records: list[TrialRecord]) -> None:
    Path(path).write_text(trials_csv_text(records))


def write_aggregate_json(path, rows: list[AggregateRow]) -> None:
    Path(path).write_text(json.dumps([asdict(row) for row in rows], indent=2) + "\n")


def _output_files(out_dir, *names: str) -> list[Path]:
    """The files ``names`` under ``out_dir``, which is created with its
    parents if missing; ConfigError when it cannot be or a directory takes
    the path of a file, so that a run fails before its first trial, not at
    its first write."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    paths = [out / name for name in names]
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"output file {path} is a directory")
    return paths


def run_experiment(cfg: ExperimentConfig) -> list[AggregateRow]:
    """Run the full grid through ``sweep``, persist trials and aggregates, return the rows.

    ``trials.csv`` under ``cfg.out_dir`` is rewritten as each cell ends,
    and every trial done so far is flushed if one fails, so long runs are
    inspectable after an abort. ``aggregate.json`` is written once the grid
    is complete.
    """
    trials_path, aggregate_path = _output_files(cfg.out_dir, *SWEEP_FILES)
    records: list[TrialRecord] = []
    try:
        for rec in sweep(cfg):
            records.append(rec)
            if len(records) % cfg.trials == 0:
                write_trials_csv(trials_path, records)
    except Exception:
        if records:
            write_trials_csv(trials_path, records)
        raise
    records.sort(key=lambda r: (r.model, r.L, r.q, r.trial_index))
    write_trials_csv(trials_path, records)
    rows = aggregate(records, cfg.methods, cfg.success_threshold)
    write_aggregate_json(aggregate_path, rows)
    return rows


def recover_instance(model: str, L: int, q: int, seed: int = 0, selection: str = "lowest",
                     rank_tol: float = hoe.DEFAULT_RANK_TOL, methods: tuple[str, ...] = METHODS) -> dict:
    """One fully reported recovery on a seeded random instance.

    Unlike run_trial this keeps the recovered vectors, so the result is a
    JSON-friendly dict with per-method reports plus the cross-method
    relation checks. Each route's report holds every RecoveryReport field
    as it is, arrays as lists, plus its ``reconstruction_error``. Uses the
    same seed streams as the sweep runner: trial index 0 of the given
    master seed. Bad arguments raise ConfigError.
    """
    ExperimentConfig(model, (L, L), (q,), seed=seed, selection_policy=selection, rank_tol=rank_tol, methods=methods)
    instance = f"model={model} L={L} q={q} seed={seed}"
    with _naming_failures(instance):
        basis, a_true, state, _ = draw_instance(model, L, q, seed, 0, selection)
        if state is None:
            raise NumericalFailureError(f"no non-degenerate state at {instance} in {MAX_DEGENERACY_RETRIES} retries")
        reports, rel = _run_routes(basis, state, methods, rank_tol, instance)
    result: dict = {
        "model": model, "L": L, "q": q, "seed": seed, "selection": selection,
        "n_params": basis.n_params,
        "true_coefficients": a_true.tolist(),
    }
    for method, report in reports.items():
        result[method] = {key: value.tolist() if isinstance(value, np.ndarray) else value
                          for key, value in asdict(report).items()}
        result[method]["reconstruction_error"] = hoe.reconstruction_error(a_true, report.coefficients)
    if rel is not None:
        result["relations"] = asdict(rel)
    return result


# The acceptance grids: chain lengths per model at q = 1-3. Tables 1-2 and
# figure 1 summarize the commutator route on them, tables 3-4 and figure 2
# the joint route; table 5 is the analytic critical-length grid and needs
# no simulation.
REPORT_GRIDS = {"h2": range(2, 10), "h3table": range(3, 10)}

REPORT_QS = (1, 2, 3)

TABLES = {1: ("h2", "hoe"), 2: ("h3table", "hoe"), 3: ("h2", "eee"), 4: ("h3table", "eee")}

FIGURES = {1: "hoe", 2: "eee"}


def _report_grid(results: list[AggregateRow] | None, model: str, method: str) -> list[tuple[int, list[AggregateRow]]]:
    """A model's rows of one method on its report grid: (L, rows in REPORT_QS order) for each L."""
    if results is None:
        raise IncompleteGridError(f"model={model} method={method} needs experiment results")
    index = {(row.L, row.q): row for row in results if row.model == model and row.method == method}
    missing = [(L, q) for L in REPORT_GRIDS[model] for q in REPORT_QS if (L, q) not in index]
    if missing:
        raise IncompleteGridError(f"results missing cells for model={model} method={method}: {missing}")
    return [(L, [index[L, q] for q in REPORT_QS]) for L in REPORT_GRIDS[model]]


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


def render_table(which: int, results: list[AggregateRow] | None = None) -> tuple[str, str]:
    """Render one of the five reference tables as (text, csv) strings.

    Tables 1-4 need aggregate rows covering the corresponding grid and
    report the measured modal rank with its ambiguity gap per (L, q); the
    joint-route tables also give the unknown count N + q per q. Table 5 is
    purely analytic and ignores ``results``.
    """
    if which == 5:
        grid = ranks.critical_length_grid()
        header = ["model"] + [f"Lc_q{q}" for q in range(1, len(grid["h2"]) + 1)]
        body = [[kind] + [str(v) for v in row] for kind, row in grid.items()]
        return _format_text_table(header, body), _csv_text(header, body)
    if which not in TABLES:
        raise ValueError(f"no such table: {which}")
    model, method = TABLES[which]
    joint = method == "eee"
    names = ("n_unknowns", "r_prime", "gap_prime") if joint else ("r", "gap")
    header = ["L"] + ([] if joint else ["N"]) + [f"{name}_q{q}" for q in REPORT_QS for name in names]
    body = []
    for L, cells in _report_grid(results, model, method):
        n = models.param_count(model, L)
        row = [L] if joint else [L, n]
        for q, cell in zip(REPORT_QS, cells):
            rank = cell.rank_mode
            row += [n + q, rank, n + q - 1 - rank] if joint else [rank, n - 1 - rank]
        body.append([str(v) for v in row])
    return _format_text_table(header, body), _csv_text(header, body)


def emit_figure_data(which: int, results: list[AggregateRow], out_dir) -> list[Path]:
    """Write one plottable series file per (model, q) of a figure.

    Columns are L, median error, and the downward/upward deviations to
    the cell's extremes, ready for log-scale error-bar plotting. Both
    models' grids are read before any file is written.
    """
    return _write_report("figure", which, out_dir, results)[0]


def _write_report(kind: str, which: int, out_dir, results: list[AggregateRow] | None = None,
                  trials: int | None = None, seed: int = 0, workers: int = 1) -> tuple[list[Path], Sequence[str]]:
    """Write table or figure ``which`` under ``out_dir``; return its (paths, texts).

    With ``trials`` the rows are those of the report's own sweeps, a figure's
    in one subdirectory per model. Every output path, the sweep files
    included, is checked before any trial runs, and every text is formed
    before any file is written.
    """
    figure = kind == "figure"
    if which not in (FIGURES if figure else (*TABLES, 5)):
        raise ValueError(f"no such {kind}: {which}")
    out = Path(out_dir)
    if figure:
        names = [f"figure{which}_{model}_q{q}.csv" for model in REPORT_GRIDS for q in REPORT_QS]
        grids = [(model, FIGURES[which], out / model) for model in REPORT_GRIDS]
    else:
        names, grids = [f"table{which}.txt", f"table{which}.csv"], [(*TABLES[which], out)] if which in TABLES else []
    configs = [ExperimentConfig(model, (REPORT_GRIDS[model][0], REPORT_GRIDS[model][-1]), REPORT_QS, trials, seed,
                                methods=(method,), out_dir=str(path), workers=workers)
               for model, method, path in grids if trials is not None]
    paths = _output_files(out, *names)
    for cfg in configs:
        _output_files(cfg.out_dir, *SWEEP_FILES)
    results = [row for cfg in configs for row in run_experiment(cfg)] if configs else results
    if figure:
        columns = ("median_delta", "lower_dev", "upper_dev")
        series = [_report_grid(results, model, FIGURES[which]) for model in REPORT_GRIDS]
        texts = [_csv_text(["L", *columns], [[str(L), *(repr(getattr(cells[i], c)) for c in columns)]
                                             for L, cells in grid]) for grid in series for i in range(len(REPORT_QS))]
    else:
        texts = render_table(which, results)
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths, texts


def reproduce_table(which: int, trials: int = 200, seed: int = 0, out_dir="results",
                    workers: int = 1) -> tuple[str, str]:
    """Run whatever simulation a reference table needs and render it.

    Writes ``table{which}.txt`` and ``table{which}.csv`` under out_dir,
    next to the underlying trial data for tables 1-4.
    """
    return _write_report("table", which, out_dir, trials=trials, seed=seed, workers=workers)[1]


def reproduce_figure(which: int, trials: int = 200, seed: int = 0, out_dir="results",
                     workers: int = 1) -> list[Path]:
    """Run both panels of a reference figure, each in its model's subdirectory, and write the series files."""
    return _write_report("figure", which, out_dir, trials=trials, seed=seed, workers=workers)[0]
