"""Command-line entry points for recoveries, rank scans and reproductions.

Exit codes: 0 on success, 2 for configuration and usage errors, a chain
too long to allocate among them, 3 when a report is asked for a grid the
results do not cover, 4 when a numerical step fails (including measured
ranks departing from the closed form).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from . import __version__, eee, harness, hoe, models, ranks, spectral


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
    workers_help = "trial processes; run a pool under OPENBLAS_NUM_THREADS=1, or the workers oversubscribe the cores"

    p = sub.add_parser("recover", help="recover one seeded random instance and print the report as JSON")
    _add_instance_args(p)
    p.add_argument("--L", type=int, required=True, help="chain length")
    p.add_argument("--selection", choices=spectral.SELECTION_POLICIES, default="lowest")
    p.add_argument("--rank-tol", type=float, default=hoe.DEFAULT_RANK_TOL)
    p.add_argument("--methods", nargs="+", choices=harness.METHODS, default=list(harness.METHODS))

    p = sub.add_parser("rank-scan", help="compare measured constraint ranks with the closed form on a grid")
    p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    p.add_argument("--L-min", type=int, required=True)
    p.add_argument("--L-max", type=int, required=True)
    p.add_argument("--q", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("critical-length", help="counting threshold (Table 5); ranks.predict_ranks marks the one "
                       "cell, h2prime q=3, where unique recovery starts one length later")
    p.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    p.add_argument("--q", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6], help="numbers of mixed eigenstates")

    p = sub.add_parser("reproduce", help="rerun a reference table or figure and write its files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", type=int, choices=(1, 2, 3, 4, 5))
    group.add_argument("--figure", type=int, choices=(1, 2))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="results")
    p.add_argument("--workers", type=int, default=1, help=workers_help)

    p = sub.add_parser("run", help="run a sweep described by a JSON config file")
    p.add_argument("--config", required=True)
    p.add_argument("--model", choices=models.MODEL_KINDS)
    p.add_argument("--L-range", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--q-list", type=int, nargs="+")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--selection-policy", choices=spectral.SELECTION_POLICIES)
    p.add_argument("--rank-tol", type=float)
    p.add_argument("--success-threshold", type=float)
    p.add_argument("--methods", nargs="+", choices=harness.METHODS)
    p.add_argument("--out-dir")
    p.add_argument("--workers", type=int, help=workers_help)
    return parser


def cmd_recover(args) -> int:
    result = harness.recover_instance(
        args.model, args.L, args.q, seed=args.seed, selection=args.selection,
        rank_tol=args.rank_tol, methods=tuple(args.methods),
    )
    print(json.dumps(result, indent=2))
    return 0


def cmd_rank_scan(args) -> int:
    # the range is checked here: a length where no q fits gets no config to check it
    lengths = range(args.L_min, args.L_max + 1)
    if not lengths or args.L_min < models.min_length(args.model):
        raise harness.ConfigError(f"bad L range {args.L_min}..{args.L_max} for model {args.model!r}, "
                                  f"which needs L >= {models.min_length(args.model)}")
    # a cell mixes q distinct eigenstates, so it needs q <= 2**L: each length
    # sweeps the q that fit, and the scan prints the rest as skipped; every
    # length's config is built, and so validated, before any trial runs
    configs = {L: harness.ExperimentConfig(args.model, (L, L), fit, args.trials, args.seed)
               for L in lengths if (fit := tuple(q for q in args.q if q <= 2**L))}
    if not configs:
        raise harness.ConfigError(f"every q in {args.q} exceeds the Hilbert dimension up to L={args.L_max}")
    print(f"{'L':>3} {'q':>3} {'N':>5} {'r':>5} {'r_pred':>7} {'r_prime':>8} {'r_prime_pred':>13} {'ok':>4}")
    # the rank field of each route, named alike on TrialRecord and predict_ranks
    fields = [rank_field for _, rank_field, _ in harness.ROUTE_FIELDS.values()]
    all_ok = True
    for L in lengths:
        records = harness.sweep(configs[L]) if L in configs else None
        for q in args.q:
            if q > 2**L:
                print(f"{L:>3} {q:>3} skipped: q exceeds the Hilbert dimension {2**L}")
                continue
            pred = ranks.predict_ranks(args.model, L, q)
            cell = [next(records) for _ in range(args.trials)]
            measured = {f: sorted({getattr(rec, f) for rec in cell if not rec.rejected}) for f in fields}
            ok = all(measured[f] == [getattr(pred, f)] for f in fields)
            all_ok &= ok
            r_text, rp_text = ("/".join(str(v) for v in measured[f]) or "-" for f in fields)
            print(f"{L:>3} {q:>3} {pred.n_params:>5} {r_text:>5} {pred.r:>7} {rp_text:>8} {pred.r_prime:>13} "
                  f"{'yes' if ok else 'NO':>4}")
    if not all_ok:
        raise harness.NumericalFailureError("measured ranks deviate from the closed form")
    return 0


def cmd_critical_length(args) -> int:
    if min(args.q) < 1:
        raise harness.ConfigError(f"q must be at least 1, got {min(args.q)}")
    for q in args.q:
        print(f"model={args.model} q={q} L_c={ranks.critical_length(args.model, q)}")
    return 0


def cmd_reproduce(args) -> int:
    options = dict(trials=args.trials, seed=args.seed, out_dir=args.out_dir, workers=args.workers)
    if args.table is not None:
        print(harness.reproduce_table(args.table, **options)[0], end="")
    else:
        print(*harness.reproduce_figure(args.figure, **options), sep="\n")
    return 0


def cmd_run(args) -> int:
    # every config field has a flag whose argparse dest is the field name
    overrides = {field.name: getattr(args, field.name) for field in dataclasses.fields(harness.ExperimentConfig)
                 if getattr(args, field.name) is not None}
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except harness.IncompleteGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (harness.NumericalFailureError, eee.DegenerateRecoveryError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
