"""Command-line entry points for recoveries, rank scans and reproductions.

Exit codes: 0 on success, 2 for configuration and usage errors, 3 when a
report is asked for a grid the results do not cover, 4 when a numerical
step fails (including measured ranks departing from the closed form).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import __version__, eee, harness, models, ranks


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    p.add_argument("--q", type=int, default=1, help="number of mixed eigenstates")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaintomo",
        description="Recover spin-chain Hamiltonians from a single steady state.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-cell progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="recover one seeded random instance and print the report as JSON")
    _add_instance_args(p)
    p.add_argument("--L", type=int, required=True, help="chain length")
    p.add_argument("--selection", choices=("lowest", "random"), default="lowest")
    p.add_argument("--rank-tol", type=float, default=1e-10)
    p.add_argument("--methods", nargs="+", choices=harness.METHODS, default=list(harness.METHODS))

    p = sub.add_parser("rank-scan", help="compare measured constraint ranks with the closed form on a grid")
    p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    p.add_argument("--L-min", type=int, required=True)
    p.add_argument("--L-max", type=int, required=True)
    p.add_argument("--q", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("critical-length", help="minimal chain length for unique recovery")
    p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--q", type=int, help="single mixture rank")
    group.add_argument("--q-max", type=int, default=None, help="print q = 1..q_max (default 6)")

    p = sub.add_parser("reproduce", help="rerun a reference table or figure and write its files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", type=int, choices=(1, 2, 3, 4, 5))
    group.add_argument("--figure", type=int, choices=(1, 2))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="results")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("run", help="run a sweep described by a JSON config file")
    p.add_argument("--config", required=True)
    p.add_argument("--model", choices=models.MODEL_KINDS)
    p.add_argument("--L-range", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--q-list", type=int, nargs="+")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--selection-policy", choices=("lowest", "random"))
    p.add_argument("--rank-tol", type=float)
    p.add_argument("--success-threshold", type=float)
    p.add_argument("--methods", nargs="+", choices=harness.METHODS)
    p.add_argument("--out-dir")
    p.add_argument("--workers", type=int)
    return parser


def cmd_recover(args) -> int:
    harness.ExperimentConfig(
        args.model, (args.L, args.L), (args.q,), seed=args.seed, selection_policy=args.selection,
        rank_tol=args.rank_tol, methods=tuple(args.methods),
    ).validate()
    result = harness.recover_instance(
        args.model, args.L, args.q, seed=args.seed, selection=args.selection,
        rank_tol=args.rank_tol, methods=tuple(args.methods),
    )
    print(json.dumps(result, indent=2))
    return 0


def cmd_rank_scan(args) -> int:
    cfg = harness.ExperimentConfig(
        model=args.model, L_range=(args.L_min, args.L_max), q_list=tuple(args.q),
        trials=args.trials, seed=args.seed,
    )
    cfg.validate()
    print(f"{'L':>3} {'q':>3} {'N':>5} {'r':>5} {'r_pred':>7} {'r_prime':>8} {'r_prime_pred':>13} {'ok':>4}")
    all_ok = True
    for L, q in cfg.cells():
        pred = ranks.predict_ranks(args.model, L, q)
        measured_r = set()
        measured_rp = set()
        for t in range(args.trials):
            rec = harness.run_trial(cfg, args.model, L, q, t)
            if rec.rejected:
                continue
            measured_r.add(rec.r)
            measured_rp.add(rec.r_prime)
        ok = measured_r == {pred.r} and measured_rp == {pred.r_prime}
        all_ok &= ok
        r_text = "/".join(str(v) for v in sorted(measured_r)) or "-"
        rp_text = "/".join(str(v) for v in sorted(measured_rp)) or "-"
        print(f"{L:>3} {q:>3} {pred.n_params:>5} {r_text:>5} {pred.r:>7} {rp_text:>8} {pred.r_prime:>13} {'yes' if ok else 'NO':>4}")
    if not all_ok:
        raise harness.NumericalFailureError("measured ranks deviate from the closed form")
    return 0


def cmd_critical_length(args) -> int:
    if args.q is not None:
        result = ranks.critical_length(args.model, args.q)
        print(f"model={result.kind} q={result.q} L_c={result.L_c}")
    else:
        q_max = args.q_max if args.q_max is not None else 6
        grid = ranks.critical_length_grid(q_max=q_max, kinds=(args.model,))
        for q, value in enumerate(grid[args.model], start=1):
            print(f"model={args.model} q={q} L_c={value}")
    return 0


def cmd_reproduce(args) -> int:
    if args.table is not None:
        text, _ = harness.reproduce_table(
            args.table, trials=args.trials, seed=args.seed,
            out_dir=args.out_dir, workers=args.workers,
        )
        print(text, end="")
    else:
        paths = harness.reproduce_figure(
            args.figure, trials=args.trials, seed=args.seed,
            out_dir=args.out_dir, workers=args.workers,
        )
        for path in paths:
            print(path)
    return 0


def cmd_run(args) -> int:
    overrides = {}
    for key, attr in (
        ("model", "model"), ("L_range", "L_range"), ("q_list", "q_list"),
        ("trials", "trials"), ("seed", "seed"), ("selection_policy", "selection_policy"),
        ("rank_tol", "rank_tol"), ("success_threshold", "success_threshold"),
        ("methods", "methods"), ("out_dir", "out_dir"), ("workers", "workers"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    cfg = harness.ExperimentConfig.from_file(args.config, overrides)
    rows = harness.run_experiment(cfg)
    for row in rows:
        print(
            f"model={row.model} L={row.L} q={row.q} method={row.method} "
            f"rank={row.rank_mode} median_delta={row.median_delta:.3e} "
            f"success_rate={row.success_rate:.2f} rejected={row.rejected}"
        )
    print(f"wrote {cfg.out_dir}/trials.csv and {cfg.out_dir}/aggregate.json")
    return 0


COMMANDS = {
    "recover": cmd_recover,
    "rank-scan": cmd_rank_scan,
    "critical-length": cmd_critical_length,
    "reproduce": cmd_reproduce,
    "run": cmd_run,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return COMMANDS[args.command](args)
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except harness.IncompleteGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (harness.NumericalFailureError, eee.DegenerateRecoveryError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
