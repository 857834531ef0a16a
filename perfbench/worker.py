"""One measured process of the benchmark.

``run.py`` starts this file with a generated workload config and the
``time.monotonic()`` reading taken just before the start, so that set-up
time counts from process start. The process imports the package from the
checkout's ``src``, warms up on a small version of the workload, then
either measures the workload with tracing off or runs the traced
per-layer passes. Its last line of standard output is one JSON object;
trials that fail a check are named on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from chaintomo import eee, harness
from checks import (
    check_recovery,
    check_row,
    parse_trials_csv,
    record_row,
    replica_drift,
    stable_csv,
    trial_name,
)
from tracing import SPAN_NAMES, Tracer, layer_totals, spanned_term_amplitudes, traced_sweep, traced_trial

FAILURES = (harness.NumericalFailureError, eee.DegenerateRecoveryError, np.linalg.LinAlgError)

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

# ROADMAP baseline cells whose per-call layer times the traced run prints.
BASELINE_CELLS = (("h2", 9, 3), ("h3table", 9, 3), ("h3table", 10, 3))
BASELINE_REPEATS = 3
BASELINE_SPANS = ("models.assemble", "spectral.eig_hermitian", "models.term_amplitudes",
                  "hoe.constraint_matrix", "hoe.recover", "eee.constraint_matrix", "eee.recover")


class Outcome:
    """Attempted and failed operations, and the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def trial(self, name: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.problems.append(f"{name}: {'; '.join(reasons)}")

    def check(self, row: dict, cfg: harness.ExperimentConfig) -> None:
        self.trial(trial_name(row), check_row(row, cfg.methods, cfg.success_threshold))

    def raised(self, n_trials: int, exc: Exception) -> None:
        self.attempted += n_trials
        self.failed += n_trials
        self.problems.append(f"raised {type(exc).__name__}: {exc}")


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = Path("src/chaintomo")
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "seed": seed,
        "src_lines": sum(p.read_text().count("\n") for p in sorted(src.glob("*.py"))),
    }


def sweep_configs(mappings: list[dict], out_dir: Path) -> list[harness.ExperimentConfig]:
    return [harness.ExperimentConfig.from_mapping({**m, "out_dir": str(out_dir / m["model"])}) for m in mappings]


def warm_up(config: dict, out_dir: Path) -> None:
    """Small version of the workload, so imports, BLAS and caches are warm."""
    warm = config["warmup"]
    for cfg in sweep_configs(warm.get("sweeps", []), out_dir / "warmup"):
        harness.run_experiment(cfg)
    if "recover" in warm:
        r = warm["recover"]
        harness.recover_instance(r["model"], r["L"], r["q"], seed=r["seed"])


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS, plus ``workers`` times the largest child's."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def measure_sweeps(config: dict, out_dir: Path, seconds: float, outcome: Outcome) -> dict:
    """Repeat the workload's grids until ``seconds`` have passed.

    A round runs ``harness.run_experiment`` once per grid, always with the
    same seed, so every round's ``trials.csv`` must equal the first one's
    except for ``wall_time_s``. The time of a call that raised still counts.
    Returns each round's (seconds, trials completed), the peak RSS and the
    first round's ``trials.csv`` of each grid without ``wall_time_s``.
    """
    cfgs = sweep_configs(config["sweeps"], out_dir / "rounds")
    first_csv: dict[str, str] = {}
    rounds: list[tuple[float, int]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        round_s = 0.0
        round_trials = 0
        for cfg in cfgs:
            path = Path(cfg.out_dir) / "trials.csv"
            path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                harness.run_experiment(cfg)
                error = None
            except FAILURES as exc:
                error = exc
            round_s += time.perf_counter() - t0
            text = path.read_text() if path.exists() else ""
            rows = parse_trials_csv(text)
            for row in rows:
                outcome.check(row, cfg)
            if error is not None:
                outcome.raised(len(cfg.cells()) * cfg.trials - len(rows), error)
                continue
            round_trials += len(rows)
            stable = stable_csv(text)
            if first_csv.setdefault(cfg.model, stable) != stable:
                outcome.problems.append(f"trials.csv of {cfg.model} differs between two runs with seed {cfg.seed}")
        rounds.append((round_s, round_trials))
    return {"calls": rounds, "peak_rss_mb": peak_rss_mb(cfgs[0].workers), "stable_csv": first_csv}


def measure_recoveries(config: dict, seconds: float, outcome: Outcome) -> dict:
    """Recover instances over distinct seeds until ``seconds`` have passed.

    Returns each call's (seconds, 1) and the peak RSS.
    """
    r = config["recover"]
    calls: list[tuple[float, int]] = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        seed = r["first_seed"] + len(calls)
        t0 = time.perf_counter()
        try:
            result = harness.recover_instance(r["model"], r["L"], r["q"], seed=seed)
        except FAILURES as exc:
            calls.append((time.perf_counter() - t0, 1))
            outcome.raised(1, exc)
            continue
        calls.append((time.perf_counter() - t0, 1))
        outcome.trial(f"(model={r['model']}, L={r['L']}, q={r['q']}, seed={seed})",
                      check_recovery(result, r["success_threshold"]))
    return {"calls": calls, "peak_rss_mb": peak_rss_mb(1)}


def serial_reference(cfg: harness.ExperimentConfig) -> list:
    """``run_experiment``'s serial path, keeping the program's trial records."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = [harness.run_trial(cfg, cfg.model, L, q, t) for L, q in cfg.cells() for t in range(cfg.trials)]
    rows = harness.aggregate(records, cfg.methods, cfg.success_threshold)
    harness.write_trials_csv(out_dir / "trials.csv", records)
    harness.write_aggregate_json(out_dir / "aggregate.json", rows)
    return records


def traced_passes(run_pass):
    """One timed pass with spans, then one with tracemalloc on.

    Returns the first pass's result, its tracer and wall seconds, and the
    tracer of the allocation pass.
    """
    tracer = Tracer()
    with spanned_term_amplitudes(tracer):
        t0 = time.perf_counter()
        result = run_pass(tracer)
        traced_s = time.perf_counter() - t0
    alloc = Tracer(track_alloc=True)
    tracemalloc.start()
    try:
        with spanned_term_amplitudes(alloc):
            run_pass(alloc)
    finally:
        tracemalloc.stop()
    return result, tracer, traced_s, alloc


def trace_sweeps(config: dict, out_dir: Path, outcome: Outcome) -> tuple[dict, Tracer, Tracer]:
    """Program pass, pool pass, traced replica pass and allocation pass.

    The program pass runs every grid serially through ``harness.run_trial``.
    The pool pass runs the config's ``pool`` grid through ``run_experiment``
    on a process pool; its ``trials.csv`` must equal the serial one of the
    same grid except for ``wall_time_s``.
    """
    serial = [dataclasses.replace(cfg, workers=1) for cfg in sweep_configs(config["sweeps"], out_dir / "reference")]
    reference = []
    serial_records = {}
    ref_s = 0.0
    for cfg in serial:
        t0 = time.perf_counter()
        records = serial_reference(cfg)
        ref_s += time.perf_counter() - t0
        serial_records[cfg.model] = records
        for row in map(record_row, records):
            outcome.check(row, cfg)
            reference.append(row)

    serial_trial_s = sum(row["wall_time_s"] for row in reference)
    busy = serial_trial_s / ref_s
    inflation = 1.0
    if "pool" in config:
        pool = sweep_configs([config["pool"]], out_dir / "pool")[0]
        t0 = time.perf_counter()
        harness.run_experiment(pool)
        pool_s = time.perf_counter() - t0
        text = (Path(pool.out_dir) / "trials.csv").read_text()
        records = serial_records[pool.model]
        if stable_csv(text) != stable_csv(harness.trials_csv_text(records)):
            outcome.problems.append(f"trials.csv of {pool.model} under {pool.workers} workers differs from the serial one")
        pool_trial_s = sum(row["wall_time_s"] for row in parse_trials_csv(text))
        busy = pool_trial_s / (pool.workers * pool_s)
        inflation = pool_trial_s / sum(rec.wall_time_s for rec in records)

    def replica(tracer):
        records = []
        for cfg in serial:
            replica_dir = out_dir / "replica" / cfg.model
            replica_dir.mkdir(parents=True, exist_ok=True)
            records += traced_sweep(tracer, cfg, replica_dir)
        return records

    replicas, tracer, traced_s, alloc = traced_passes(replica)
    replica_rows = [record_row(rec) for rec in replicas]
    for rep, prog in zip(replica_rows, reference):
        drift = replica_drift(rep, prog)
        if drift:
            outcome.problems.append(f"traced replica drifts from run_trial at {trial_name(prog)}: {'; '.join(drift)}")
    extra = {
        "spectral.retries": sum(row["retry"] for row in replica_rows),
        "harness.rejected": sum(row["rejected"] for row in replica_rows),
        "harness.pool.busy_frac": busy,
        "harness.pool.trial_inflation": inflation,
        "tracing_overhead_frac": traced_s / ref_s - 1.0,
    }
    return extra, tracer, alloc


def trace_recoveries(config: dict, outcome: Outcome) -> tuple[dict, Tracer, Tracer]:
    """Program pass, traced replica pass and allocation pass of one recovery.

    ``recover_instance`` draws on trial 0's streams of its seed, so the
    replica is a traced trial of a one-cell grid with that master seed.
    Drawing the same coefficients shows it took the same retries.
    """
    r = config["recover"]
    seed = r["first_seed"]
    t0 = time.perf_counter()
    result = harness.recover_instance(r["model"], r["L"], r["q"], seed=seed)
    ref_s = time.perf_counter() - t0
    outcome.trial(f"(model={r['model']}, L={r['L']}, q={r['q']}, seed={seed})",
                  check_recovery(result, r["success_threshold"]))
    loop_s = time.perf_counter() - t0

    cfg = harness.ExperimentConfig(model=r["model"], L_range=(r["L"], r["L"]), q_list=(r["q"],), trials=1, seed=seed)
    (rec, a_true), tracer, traced_s, alloc = traced_passes(
        lambda t: traced_trial(t, cfg, r["model"], r["L"], r["q"], 0))
    row = record_row(rec)
    program = {
        **row,
        "r": result["hoe"]["rank"], "r_prime": result["eee"]["rank"],
        "delta_gap": result["hoe"]["gap"], "delta_gap_prime": result["eee"]["gap"],
        "delta_hoe": result["hoe"]["reconstruction_error"],
        "delta_eee": result["eee"]["reconstruction_error"],
        "relations_ok": result["relations"]["rank_relation_ok"] and result["relations"]["gap_relation_ok"],
    }
    drift = replica_drift(row, program)
    if [float(v) for v in a_true] != result["true_coefficients"]:
        drift.append("drawn coefficients differ, so the retries differ")
    if drift:
        outcome.problems.append(f"traced replica drifts from recover_instance at seed {seed}: {'; '.join(drift)}")
    extra = {
        "spectral.retries": row["retry"],
        "harness.rejected": int(row["rejected"]),
        "harness.pool.busy_frac": ref_s / loop_s,
        "harness.pool.trial_inflation": 1.0,
        "tracing_overhead_frac": traced_s / ref_s - 1.0,
    }
    return extra, tracer, alloc


def per_layer_metrics(tracer: Tracer, alloc: Tracer, extra: dict) -> dict:
    timing = layer_totals(tracer.spans)
    peaks = layer_totals(alloc.spans)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": timing[name]["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": timing[name]["self_s"], "unit": "s"}
        metrics[f"{name}.peak_alloc_mb"] = {"value": peaks[name]["peak_alloc_bytes"] / 2**20, "unit": "MB"}
    units = {"spectral.retries": "count", "harness.rejected": "count", "harness.pool.busy_frac": "ratio",
             "harness.pool.trial_inflation": "ratio", "tracing_overhead_frac": "ratio"}
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


def baseline_cells(config: dict) -> list[dict]:
    """Layer times at the ROADMAP cells this workload runs under the ``lowest`` policy.

    Each cell's trial runs ``BASELINE_REPEATS`` times with spans, as the
    ROADMAP table was measured (best of 3-5); per layer the smallest
    per-call self and total milliseconds are kept. These trials do not
    enter the per-layer metrics.
    """
    grids = config.get("sweeps") or [{**config["recover"], "L_range": [config["recover"]["L"]] * 2,
                                      "q_list": [config["recover"]["q"]], "seed": config["recover"]["first_seed"]}]
    table = []
    for m in grids:
        for model, L, q in BASELINE_CELLS:
            if (model != m["model"] or not m["L_range"][0] <= L <= m["L_range"][1] or q not in m["q_list"]
                    or m.get("selection_policy", "lowest") != "lowest"):
                continue
            cfg = harness.ExperimentConfig(model=model, L_range=(L, L), q_list=(q,), trials=1, seed=m["seed"],
                                           methods=tuple(m.get("methods", harness.METHODS)))
            layers: dict[str, dict] = {}
            for repeat in range(BASELINE_REPEATS):
                tracer = Tracer()
                with spanned_term_amplitudes(tracer):
                    traced_trial(tracer, cfg, model, L, q, repeat)
                for name, t in layer_totals(tracer.spans).items():
                    if name in BASELINE_SPANS and t["calls"]:
                        best = layers.setdefault(name, {"calls_per_trial": t["calls"], "self_ms": math.inf,
                                                        "total_ms": math.inf})
                        best["self_ms"] = min(best["self_ms"], 1e3 * t["self_s"] / t["calls"])
                        best["total_ms"] = min(best["total_ms"], 1e3 * t["total_s"] / t["calls"])
            table.append({"model": model, "L": L, "q": q, "trials": BASELINE_REPEATS, "layers": layers})
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="generated workload config, as JSON")
    parser.add_argument("--t-spawn", type=float, required=True, help="time.monotonic() just before start")
    args = parser.parse_args(argv)
    config = json.loads(args.config)

    src = (Path.cwd() / "src").resolve()
    if not Path(harness.__file__).resolve().is_relative_to(src):
        print(f"chaintomo was imported from {harness.__file__}, not from {src}", file=sys.stderr)
        return 2
    out_dir = Path(config["out_dir"])
    work_dir = out_dir / "work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    warm_up(config, work_dir)
    setup_s = time.monotonic() - args.t_spawn
    result: dict = {"setup_s": setup_s}
    outcome = Outcome()
    if config["trace"]:
        if "sweeps" in config:
            extra, tracer, alloc = trace_sweeps(config, work_dir, outcome)
        else:
            extra, tracer, alloc = trace_recoveries(config, outcome)
        result["metrics"] = per_layer_metrics(tracer, alloc, extra)
        result["baseline_cells"] = baseline_cells(config)
        spans = {"timing": tracer.spans, "alloc": alloc.spans}
        (out_dir / "spans.json").write_text(json.dumps(spans) + "\n")
    elif "sweeps" in config:
        result["measured"] = measure_sweeps(config, work_dir, config["seconds"], outcome)
    else:
        result["measured"] = measure_recoveries(config, config["seconds"], outcome)
    result.update(attempted=outcome.attempted, failed=outcome.failed, problems=outcome.problems,
                  machine=machine_record(config["seed"]))
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
