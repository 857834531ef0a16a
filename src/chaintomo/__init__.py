"""Hamiltonian recovery for spin-1/2 chains from a single steady state.

Given a mixture of q energy eigenstates of an unknown local Hamiltonian,
the coefficients of its term decomposition satisfy homogeneous linear
systems whose nullspace pins them down, up to scale, once the chain is
long enough. This package builds those systems two independent ways
(commutator expectations and componentwise eigenvalue equations), solves
them by SVD, predicts their ranks in closed form, and reruns the full
Monte-Carlo sweeps behind the reference tables and figures.
"""

__version__ = "0.1.0"

from .eee import DegenerateRecoveryError, JointRecovery, MethodComparison, compare_methods
from .harness import (
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    IncompleteGridError,
    NumericalFailureError,
    TrialRecord,
    emit_figure_data,
    recover_instance,
    render_table,
    run_experiment,
    run_trial,
)
from .hoe import RecoveryReport, numeric_rank, reconstruction_error
from .models import (
    MODEL_KINDS,
    TermBasis,
    assemble,
    enumerate_terms,
    min_length,
    param_count,
    sample_params,
    term_amplitudes,
)
from .pauli import PauliString, action_table, apply_string, commutator, expectation, string_matrix
from .ranks import (
    CriticalLength,
    RankPrediction,
    constraint_capacity,
    counting_bound,
    critical_length,
    critical_length_grid,
    predict_ranks,
    recovery_condition,
)
from .spectral import (
    DegenerateSpectrumError,
    EigDecomposition,
    SteadyState,
    build_steady_state,
    eig_hermitian,
)
from . import eee, hoe

__all__ = [
    "AggregateRow",
    "ConfigError",
    "CriticalLength",
    "DegenerateRecoveryError",
    "DegenerateSpectrumError",
    "EigDecomposition",
    "ExperimentConfig",
    "IncompleteGridError",
    "JointRecovery",
    "MethodComparison",
    "MODEL_KINDS",
    "NumericalFailureError",
    "PauliString",
    "RankPrediction",
    "RecoveryReport",
    "SteadyState",
    "TermBasis",
    "TrialRecord",
    "action_table",
    "apply_string",
    "assemble",
    "build_steady_state",
    "commutator",
    "compare_methods",
    "constraint_capacity",
    "counting_bound",
    "critical_length",
    "critical_length_grid",
    "eee",
    "eig_hermitian",
    "emit_figure_data",
    "enumerate_terms",
    "expectation",
    "hoe",
    "min_length",
    "numeric_rank",
    "param_count",
    "predict_ranks",
    "recover_instance",
    "reconstruction_error",
    "recovery_condition",
    "render_table",
    "run_experiment",
    "run_trial",
    "sample_params",
    "string_matrix",
    "term_amplitudes",
]
