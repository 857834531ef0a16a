"""Spans around the calls into each layer, and a traced replica of a trial.

The replica repeats ``harness.run_trial`` step by step, on the same
``harness.trial_seed`` streams and with the same degeneracy-retry loop,
but wraps every public call into ``models``, ``spectral``, ``hoe``,
``eee`` and ``harness`` in a span. Spans are kept in memory and written
out when the run ends. The program itself is not instrumented; the only
call that is not made from here, ``models.term_amplitudes`` inside both
constraint builders, is spanned by swapping the name the two route
modules imported for a wrapper while a traced pass runs.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from chaintomo import eee, harness, hoe, models, spectral

# Every span name the per-layer report carries, in pipeline order.
SPAN_NAMES = (
    "harness.trial",
    "models.enumerate_terms",
    "models.sample_params",
    "models.assemble",
    "models.term_amplitudes",
    "spectral.eig_hermitian",
    "spectral.build_steady_state",
    "hoe.constraint_matrix",
    "hoe.recover",
    "eee.constraint_matrix",
    "eee.recover",
    "harness.aggregate",
    "harness.write_outputs",
)


class Tracer:
    """In-memory span recorder.

    Each span holds its name, start and end (``perf_counter`` seconds),
    the id of the enclosing span and the trial it belongs to. With
    ``track_alloc`` the span also records the peak of ``tracemalloc``'s
    traced memory over its interval, less the traced memory at its start.
    """

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, trial: str | None = None):
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = parent["trial"]
        rec = {"id": len(self.spans), "name": name, "parent": parent["id"] if parent else None,
               "trial": trial, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        if self.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            rec["_base"] = rec["_peak"] = current
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            if self.track_alloc:
                peak = max(rec.pop("_peak"), tracemalloc.get_traced_memory()[1])
                rec["peak_alloc_bytes"] = peak - rec.pop("_base")
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], peak)


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Calls, self seconds and peak allocation per span name.

    Self time is a span's duration less the durations of its direct
    children. Peak allocation is the largest over the name's calls, and
    is present only for spans recorded with ``track_alloc``.
    """
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    totals = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak_alloc_bytes": 0} for name in SPAN_NAMES}
    for s in spans:
        t = totals[s["name"]]
        dur = s["end"] - s["start"]
        t["calls"] += 1
        t["total_s"] += dur
        t["self_s"] += dur - child_s[s["id"]]
        t["peak_alloc_bytes"] = max(t["peak_alloc_bytes"], s.get("peak_alloc_bytes", 0))
    return totals


@contextmanager
def spanned_term_amplitudes(tracer: Tracer):
    """Span the route modules' calls to ``models.term_amplitudes``."""
    original = models.term_amplitudes

    def traced(basis, psi):
        with tracer.span("models.term_amplitudes"):
            return original(basis, psi)

    hoe.term_amplitudes = eee.term_amplitudes = traced
    try:
        yield
    finally:
        hoe.term_amplitudes = eee.term_amplitudes = original


def traced_trial(tracer: Tracer, cfg: harness.ExperimentConfig, model: str, L: int, q: int,
                 trial_index: int):
    """``harness.run_trial`` with a span around every layer call.

    Returns the trial's ``TrialRecord`` and the drawn coefficients. The
    record's ``seed_stream_id`` ends in the retry count, as the program's
    does.
    """
    with tracer.span("harness.trial", f"{model}/{L}/{q}/{trial_index}"):
        t0 = time.perf_counter()
        with tracer.span("models.enumerate_terms"):
            basis = models.enumerate_terms(model, L)
        state = None
        retry = 0
        a_true = None
        for retry in range(harness.MAX_DEGENERACY_RETRIES + 1):
            stream = harness.trial_seed(cfg.seed, model, L, q, trial_index, retry)
            param_stream, state_stream = stream.spawn(2)
            with tracer.span("models.sample_params"):
                a_true = models.sample_params(basis, param_stream)
            with tracer.span("models.assemble"):
                h = models.assemble(basis, a_true)
            with tracer.span("spectral.eig_hermitian"):
                eig = spectral.eig_hermitian(h)
            try:
                with tracer.span("spectral.build_steady_state"):
                    state = spectral.build_steady_state(eig, q, cfg.selection_policy, state_stream)
            except spectral.DegenerateSpectrumError:
                continue
            break
        stream_id = f"{cfg.seed}-{harness.KIND_ID[model]}-{L}-{q}-{trial_index}-{retry}"
        if state is None:
            return harness.TrialRecord(
                model=model, L=L, q=q, trial_index=trial_index, seed_stream_id=stream_id,
                delta_hoe=None, delta_eee=None, r=None, r_prime=None,
                delta_gap=None, delta_gap_prime=None, relations_ok=None,
                rejected=True, wall_time_s=time.perf_counter() - t0,
            ), a_true

        delta_hoe = delta_eee = None
        r = r_prime = gap = gap_prime = None
        hoe_report = joint = None
        try:
            if "hoe" in cfg.methods:
                with tracer.span("hoe.constraint_matrix"):
                    g = hoe.constraint_matrix(basis, state)
                with tracer.span("hoe.recover"):
                    hoe_report = hoe.recover(g, cfg.rank_tol)
                delta_hoe = hoe.reconstruction_error(a_true, hoe_report.coefficients)
                r, gap = hoe_report.rank, hoe_report.gap
            if "eee" in cfg.methods:
                with tracer.span("eee.constraint_matrix"):
                    qmat = eee.constraint_matrix(basis, state)
                with tracer.span("eee.recover"):
                    joint = eee.recover(qmat, basis.n_params, cfg.rank_tol)
                delta_eee = hoe.reconstruction_error(a_true, joint.coefficients)
                r_prime, gap_prime = joint.rank, joint.gap
        except (eee.DegenerateRecoveryError, np.linalg.LinAlgError) as exc:
            raise harness.NumericalFailureError(
                f"recovery failed at model={model} L={L} q={q} trial={trial_index}: {exc}"
            ) from exc

        relations_ok = None
        if hoe_report is not None and joint is not None:
            rel = eee.compare_methods(hoe_report, joint, q)
            relations_ok = rel.rank_relation_ok and rel.gap_relation_ok
        return harness.TrialRecord(
            model=model, L=L, q=q, trial_index=trial_index, seed_stream_id=stream_id,
            delta_hoe=delta_hoe, delta_eee=delta_eee, r=r, r_prime=r_prime,
            delta_gap=gap, delta_gap_prime=gap_prime, relations_ok=relations_ok,
            rejected=False, wall_time_s=time.perf_counter() - t0,
        ), a_true


def traced_sweep(tracer: Tracer, cfg: harness.ExperimentConfig, out_dir) -> list:
    """The serial path of ``harness.run_experiment``, traced.

    Runs every trial of the grid in order, then aggregates and writes
    ``trials.csv`` and ``aggregate.json`` under ``out_dir``.
    """
    records = [traced_trial(tracer, cfg, cfg.model, L, q, t)[0]
               for L, q in cfg.cells() for t in range(cfg.trials)]
    with tracer.span("harness.aggregate"):
        rows = harness.aggregate(records, cfg.methods, cfg.success_threshold)
    with tracer.span("harness.write_outputs"):
        harness.write_trials_csv(out_dir / "trials.csv", records)
        harness.write_aggregate_json(out_dir / "aggregate.json", rows)
    return records
