"""Recovery from homogeneous operator equations (HOE).

In a steady state rho every observable expectation is time invariant, so
for each observable K_m the coefficients a_n of the Hamiltonian satisfy

    sum_n a_n <i[K_m, h_n]>_rho = 0.

Collecting the expectations into a real matrix G turns recovery into
finding the nullspace of G: when that nullspace is one-dimensional the
coefficient vector is fixed up to overall scale and sign, and it is read
off as the right-singular vector of the smallest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import TermBasis, term_amplitudes
from .pauli import PauliString, action_table
from .spectral import SteadyState

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one nullspace recovery.

    ``coefficients`` is the unit-norm recovered vector, ``rank`` the
    numeric rank of the constraint matrix, ``gap`` the dimension of the
    ambiguous subspace (number of unknowns minus rank minus one). When
    ``gap`` is positive the recovered vector is an arbitrary unit element
    of the nullspace and ``unique`` is False. ``reconstruction_error`` is
    filled in by callers that know the true coefficients.
    """

    coefficients: np.ndarray
    rank: int
    gap: int
    sigma_min: float
    unique: bool
    reconstruction_error: float | None = None


def constraint_matrix(
    basis: TermBasis,
    state: SteadyState,
    observables: list[PauliString | str] | None = None,
) -> np.ndarray:
    """Real matrix of commutator expectations <i[K_m, h_n]> in the state.

    Observables default to the model's own terms, giving a square matrix
    with one row per unknown coefficient. That default matrix satisfies
    G[m, n] = -G[n, m], so its rank is even; when the constraint system
    carries an odd number of independent rows, the square matrix sits one
    below it, and any observable outside the term set restores the odd
    rank (see ranks.predict_ranks).

    The entries reduce to sums over the mixed eigenstates: with
    w = h_n|psi_mu> and u = K_m|psi_mu>, <i[K_m, h_n]>_mu = -2 Im(u^H w),
    which avoids any dim x dim products.
    """
    if not isinstance(state, SteadyState):
        raise TypeError(f"expected a SteadyState, got {type(state).__name__}")
    if state.dim != basis.dim:
        raise ValueError(f"state dimension {state.dim} != basis dimension {basis.dim}")
    if observables is not None:
        if len(observables) == 0:
            raise ValueError("observable list must not be empty")
        obs_src, obs_phase = action_table(observables, basis.L)
    g = np.zeros((basis.n_params if observables is None else len(observables), basis.n_params))
    for mu in range(state.q):
        psi = state.states[:, mu]
        w = term_amplitudes(basis, psi)
        u = w if observables is None else obs_phase * psi[obs_src]
        g += state.probs[mu] * (u.conj().T @ w).imag
    return -2.0 * g


def nullspace(m: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> tuple[int, int, float, np.ndarray]:
    """Numeric rank, ambiguity gap, smallest singular value and null vector.

    Rank counts singular values above tol_rel * sigma_0; gap = columns - rank - 1.
    A tall matrix is reduced to its QR R factor first: same singular values and
    right-singular vectors, and no tall left factor. A wide one keeps the full
    V^T, whose trailing rows span its nullspace; its sigma_min is exactly 0.
    """
    if not tol_rel > 0:
        raise ValueError(f"tol_rel must be positive, got {tol_rel}")
    m = np.atleast_2d(np.asarray(m))
    n_rows, n_cols = m.shape
    _, sigma, vt = np.linalg.svd(np.linalg.qr(m, mode="r") if n_rows > n_cols else m)
    rank = int(np.count_nonzero(sigma > tol_rel * sigma[0]))
    return rank, n_cols - (rank + 1), float(sigma[-1]) if n_rows >= n_cols else 0.0, vt[-1]


def numeric_rank(m: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above tol_rel times the largest one."""
    return nullspace(m, tol_rel)[0]


def recover(g: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> RecoveryReport:
    """Recover unit-norm coefficients as the lowest right-singular vector.

    Solves min ||G a|| subject to ||a|| = 1. The report carries the numeric
    rank of G and the resulting ambiguity gap; a positive gap means the
    minimizer is not unique and the returned vector is one arbitrary choice.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {g.shape}")
    if not np.any(g):
        raise ValueError("constraint matrix is identically zero")
    rank, gap, sigma_min, a = nullspace(g, tol_rel)
    return RecoveryReport(
        coefficients=a / np.linalg.norm(a),
        rank=rank,
        gap=gap,
        sigma_min=sigma_min,
        unique=gap == 0,
    )


def reconstruction_error(a_true: np.ndarray, a_recovered: np.ndarray) -> float:
    """Distance between unit-normalized vectors, minimized over global sign.

    Recovery fixes coefficients only up to scale and sign, so both inputs
    are normalized and the tighter of the two sign choices is reported.
    A value below about 1e-6 marks a successful reconstruction; orthogonal
    vectors give sqrt(2).
    """
    a_true = np.asarray(a_true, dtype=float)
    a_recovered = np.asarray(a_recovered, dtype=float)
    if a_true.shape != a_recovered.shape or a_true.ndim != 1:
        raise ValueError(f"incompatible shapes {a_true.shape} and {a_recovered.shape}")
    nt = np.linalg.norm(a_true)
    nr = np.linalg.norm(a_recovered)
    if nt == 0 or nr == 0:
        raise ValueError("reconstruction error is undefined for zero vectors")
    t = a_true / nt
    r = a_recovered / nr
    return float(min(np.linalg.norm(t - r), np.linalg.norm(t + r)))
