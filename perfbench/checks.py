"""Correctness checks of trial records against the closed-form rank laws.

A record fails when it was rejected after the degeneracy retries, when a
measured rank differs from ``ranks.predict_ranks``, when the error of a
route is at or above the success threshold at a cell whose predicted gap
is 0, or when the cross-route relations fail where the closed form says
they hold. Trials that raised are counted by the caller.
"""

from __future__ import annotations

import csv
import io
import math

from chaintomo import ranks


def _opt(cast):
    return lambda s: cast(s) if s else None


_COLUMN_TYPES = {
    "L": int, "q": int, "trial": int,
    "delta_hoe": _opt(float), "delta_eee": _opt(float),
    "r": _opt(int), "r_prime": _opt(int),
    "delta_gap": _opt(int), "delta_gap_prime": _opt(int),
    "relations_ok": _opt(lambda s: {"True": True, "False": False}[s]),
    "rejected": lambda s: s == "True",
    "wall_time_s": float,
}


def parse_trials_csv(text: str) -> list[dict]:
    """Rows of a ``trials.csv`` as typed dicts keyed by column name."""
    return [{k: _COLUMN_TYPES.get(k, str)(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def record_row(rec) -> dict:
    """A ``harness.TrialRecord`` in the shape of a parsed CSV row."""
    return {
        "model": rec.model, "L": rec.L, "q": rec.q, "trial": rec.trial_index,
        "delta_hoe": rec.delta_hoe, "delta_eee": rec.delta_eee,
        "r": rec.r, "r_prime": rec.r_prime,
        "delta_gap": rec.delta_gap, "delta_gap_prime": rec.delta_gap_prime,
        "relations_ok": rec.relations_ok, "rejected": rec.rejected,
        "wall_time_s": rec.wall_time_s,
        "retry": int(rec.seed_stream_id.rsplit("-", 1)[1]),
    }


def trial_name(row: dict) -> str:
    return f"(model={row['model']}, L={row['L']}, q={row['q']}, trial={row['trial']})"


def check_row(row: dict, methods, success_threshold: float) -> list[str]:
    """Reasons a trial fails the rank laws; empty when it passes."""
    if row["rejected"]:
        return ["rejected after degeneracy retries"]
    pred = ranks.predict_ranks(row["model"], row["L"], row["q"])
    reasons = []
    if "hoe" in methods:
        if row["r"] != pred.r:
            reasons.append(f"r={row['r']} but predict_ranks gives {pred.r}")
        if pred.gap == 0 and not row["delta_hoe"] < success_threshold:
            reasons.append(f"delta_hoe={row['delta_hoe']!r} at predicted gap 0")
    if "eee" in methods:
        if row["r_prime"] != pred.r_prime:
            reasons.append(f"r_prime={row['r_prime']} but predict_ranks gives {pred.r_prime}")
        if pred.gap_prime == 0 and not row["delta_eee"] < success_threshold:
            reasons.append(f"delta_eee={row['delta_eee']!r} at predicted gap 0")
    if "hoe" in methods and "eee" in methods:
        predicted_ok = pred.r_prime == pred.r + pred.q and pred.gap_prime == pred.gap
        if predicted_ok and row["relations_ok"] is not True:
            reasons.append("relations_ok is false where the closed form predicts true")
    return reasons


def check_recovery(result: dict, success_threshold: float) -> list[str]:
    """Reasons a ``harness.recover_instance`` result fails the rank laws."""
    pred = ranks.predict_ranks(result["model"], result["L"], result["q"])
    row = {
        "model": result["model"], "L": result["L"], "q": result["q"], "trial": 0, "rejected": False,
        "r": result["hoe"]["rank"], "delta_hoe": result["hoe"]["reconstruction_error"],
        "r_prime": result["eee"]["rank"], "delta_eee": result["eee"]["reconstruction_error"],
        "relations_ok": result["relations"]["rank_relation_ok"] and result["relations"]["gap_relation_ok"],
    }
    reasons = check_row(row, ("hoe", "eee"), success_threshold)
    if result["hoe"]["gap"] != pred.gap or result["eee"]["gap"] != pred.gap_prime:
        reasons.append("gaps differ from predict_ranks")
    return reasons


def stable_csv(text: str) -> str:
    """A ``trials.csv`` without its last column, ``wall_time_s``."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


_EXACT_KEYS = ("model", "L", "q", "trial", "r", "r_prime", "delta_gap", "delta_gap_prime",
               "relations_ok", "rejected", "retry")


def replica_drift(replica: dict, program: dict) -> list[str]:
    """Fields on which a traced replica's record differs from the program's.

    Ranks, gaps, relations, rejections and retry counts must match
    exactly. Errors must agree to nine significant digits, which a replica
    that drew another instance would not, even where both are round-off.
    """
    drift = [f"{k}: replica {replica[k]!r} vs program {program[k]!r}"
             for k in _EXACT_KEYS if replica[k] != program[k]]
    for k in ("delta_hoe", "delta_eee"):
        a, b = replica[k], program[k]
        if (a is None) != (b is None) or (a is not None and not math.isclose(a, b, rel_tol=1e-9)):
            drift.append(f"{k}: replica {a!r} vs program {b!r}")
    return drift
