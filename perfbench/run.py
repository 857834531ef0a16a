"""Benchmark of chaintomo: sweep throughput, large-L recovery, per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-both --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

Workloads, each driven by one closed-loop caller:

``grid-both``    h2 L=2-9 and h3table L=3-9, q=1-3, both routes, ``lowest``
                 policy, one trial per cell, serial: the acceptance grids.
``hoe-random``   h3table L=3-9, q=1-3, commutator route only, ``random``
                 policy, three trials per cell: never calls ``eee`` and
                 needs the full spectrum.
``recover-l10``  ``harness.recover_instance("h3table", 10, 3, seed=s)`` over
                 distinct seeds: the memory workload.
``grid-pool``    the h3table grid of ``grid-both`` with ``workers`` = the
                 usable CPUs, with the BLAS environment as found. Not in
                 ``BENCHMARK.json``: BLAS threads oversubscribe the cores
                 inside the pool workers, and its figures vary too much
                 from run to run to gate on. Run it by hand.

The workload seed is the master seed of every sweep; ``recover-l10`` uses
the distinct seeds 1000000 * seed + i, i = 0, 1, ...; the package only sees the generated
config. With ``--trace 0`` a run prints the end-to-end metrics, measured
with tracing off:

``trials_per_s``  trials (or recoveries) completed per second of time spent
                  in ``harness.run_experiment`` (or ``recover_instance``).
``trial_s_p50``   median over program calls (a round of sweeps, or one
                  recovery) of the seconds per trial.
``peak_rss_mb``   peak RSS of the measured process; with a pool, plus the
                  number of workers times the largest worker's peak.
``setup_s``       from process start to the first timed call: imports, BLAS
                  start-up and the warm-up. Median over the run's three
                  measuring processes.

``failed_frac`` (failed over attempted) is printed as a report line; the
result object carries both counts. With ``--trace 1`` a run prints the
per-layer split from a traced replica of the trials (see ``tracing.py``);
the traced run of ``grid-both`` also runs its h3table grid on the pool.
Every trial is checked against ``ranks.predict_ranks`` (see ``checks.py``);
a failed check is named on standard error and the run exits 1. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Outputs, span files included, go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("grid-both", "hoe-random", "recover-l10", "grid-pool")

# An untraced run splits its seconds over this many processes, one after
# the other, and pools their calls, so that neither a slow process nor a
# single set-up decides a figure.
MEASURING_PROCESSES = 3

# A run, all its processes included, ends within this many seconds.
RUN_TIMEOUT_S = 170

SUCCESS_THRESHOLD = 1e-6


def workload_config(name: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    """The generated input of one run; ``smoke`` shrinks it to the smallest size."""
    top = 4 if smoke else 9
    h2 = {"model": "h2", "L_range": [2, top], "q_list": [1, 2, 3], "trials": 1, "seed": seed,
          "success_threshold": SUCCESS_THRESHOLD}
    h3 = {**h2, "model": "h3table", "L_range": [3, top]}
    config: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "out_dir": f".perfbench_out/{name}-seed{seed}-trace{trace}"}
    pool = {**h3, "workers": len(os.sched_getaffinity(0))}
    if name == "grid-both":
        config["sweeps"] = [h2, h3]
        config["pool"] = pool
    elif name == "hoe-random":
        config["sweeps"] = [{**h3, "trials": 1 if smoke else 3, "methods": ["hoe"], "selection_policy": "random"}]
    elif name == "grid-pool":
        config["sweeps"] = [pool]
        config["pool"] = pool
    else:
        L = 6 if smoke else 10
        config["recover"] = {"model": "h3table", "L": L, "q": 3, "first_seed": seed * 1_000_000,
                             "success_threshold": SUCCESS_THRESHOLD}
    if "sweeps" in config:
        # The small grids warm every code path; one trial at the largest
        # cell warms the allocations and BLAS paths of the largest trials.
        first = config["sweeps"][0]
        config["warmup"] = {"sweeps": [{**m, "L_range": [m["L_range"][0], min(m["L_range"][1], 6)], "workers": 1}
                                       for m in config["sweeps"]]
                            + [{**first, "L_range": [top, top], "q_list": [3], "trials": 1, "workers": 1}]}
    else:
        config["warmup"] = {"recover": {"model": "h3table", "L": min(L, 8), "q": 3, "seed": seed}}
    return config


def run_worker(config: dict, deadline: float) -> dict:
    """Start ``worker.py`` in its own session and return its JSON result.

    At ``deadline`` (a ``time.monotonic()`` reading) the whole session,
    pool workers included, is killed.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", json.dumps(config), "--t-spawn", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"run took more than {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(config: dict, deadline: float) -> tuple[dict, list[dict]]:
    """Untraced run: pool the calls of ``MEASURING_PROCESSES`` processes.

    Each process measures ``seconds / MEASURING_PROCESSES`` on its own
    seeds; all of them must write the same ``trials.csv`` for a grid.
    """
    parts = []
    for k in range(MEASURING_PROCESSES):
        part = {**config, "seconds": config["seconds"] / MEASURING_PROCESSES}
        if "recover" in config:
            part["recover"] = {**config["recover"], "first_seed": config["recover"]["first_seed"] + 1000 * k}
        parts.append(run_worker(part, deadline))
    calls = [call for p in parts for call in p["measured"]["calls"]]
    wall = sum(s for s, _ in calls)
    trials = sum(n for _, n in calls)
    problems = [problem for p in parts for problem in p["problems"]]
    for model, text in parts[0]["measured"].get("stable_csv", {}).items():
        if any(p["measured"]["stable_csv"][model] != text for p in parts):
            problems.append(f"trials.csv of {model} differs between two processes with seed {config['seed']}")
            print(f"check failed: {problems[-1]}", file=sys.stderr)
    res = {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "problems": problems,
        "machine": parts[0]["machine"],
        "metrics": {
            "trials_per_s": {"value": trials / wall, "unit": "1/s"},
            "trial_s_p50": {"value": statistics.median(s / max(n, 1) for s, n in calls), "unit": "s"},
            "peak_rss_mb": {"value": max(p["measured"]["peak_rss_mb"] for p in parts), "unit": "MB"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in parts), "unit": "s"},
        },
    }
    return res, [{"setup_s": p["setup_s"], "calls": p["measured"]["calls"]} for p in parts]


def run(name: str, seed: int, seconds: int, trace: int, smoke: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    config = workload_config(name, seed, seconds, trace, smoke)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        res = run_worker(config, deadline)
        processes = []
    else:
        res, processes = measure(config, deadline)
    metrics = res["metrics"]
    failed_frac = res["failed"] / max(res["attempted"], 1)
    report = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}",
              f"machine {json.dumps(res['machine'])}"]
    if trace:
        report += [f"{k}  {_fmt(v['value'])} {v['unit']}" for k, v in metrics.items()]
        for cell in res["baseline_cells"]:
            report.append(f"cell {cell['model']} L={cell['L']} q={cell['q']}: per call, best of {cell['trials']} "
                          "trials, self / total ms:")
            report += [f"    {layer}  {t['self_ms']:.2f} / {t['total_ms']:.2f}  ({t['calls_per_trial']:g} per trial)"
                       for layer, t in cell["layers"].items()]
    else:
        calls = [call for p in processes for call in p["calls"]]
        call = "recover_instance call" if "recover" in config else "round of run_experiment calls"
        report += [
            f"trials_per_s  {_fmt(metrics['trials_per_s']['value'])} 1/s  ({sum(n for _, n in calls)} trials in "
            f"{sum(s for s, _ in calls):.2f} s of program calls)",
            f"trial_s_p50  {_fmt(metrics['trial_s_p50']['value'])} s  (median over {len(calls)} of: one {call}, "
            "seconds per trial)",
            f"peak_rss_mb  {_fmt(metrics['peak_rss_mb']['value'])} MB",
            f"setup_s  {_fmt(metrics['setup_s']['value'])} s  (median of "
            + " ".join(f"{p['setup_s']:.3f}" for p in processes) + ")",
        ]
    report.append(f"failed_frac  {_fmt(failed_frac)} ratio  ({res['failed']} of {res['attempted']} attempted)")
    result = {"correct": res["failed"] == 0 and not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {**result, "failed_frac": failed_frac, "problems": res["problems"], "machine": res["machine"],
              "processes": processes, "config": config, "baseline_cells": res.get("baseline_cells")}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, report


def smoke() -> int:
    """Every workload, ``grid-pool`` too, at its smallest size, traced and untraced.

    Fails unless each run prints exactly the metrics ``BENCHMARK.json``
    names, with their units, and no trial fails a check.
    """
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.perf_counter()
            result, _ = run(name, seed=0, seconds=1, trace=trace, smoke=True)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{name} trace {trace}"
            if printed != expected:
                problems.append(f"{where}: metrics {sorted(set(printed) ^ set(expected))} or units differ")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: failed_frac is {result['failed']}/{result['attempted']}")
            print(f"smoke {where}: {time.perf_counter() - t0:.1f} s")
    for problem in problems:
        print(f"smoke failed: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at its smallest size and check the output")
    args = parser.parse_args(argv)
    if not (Path("src") / "chaintomo" / "__init__.py").is_file():
        print("no src/chaintomo here: run from the root of a chaintomo checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
