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

# rows of a state's term amplitudes gathered at a time through one complex
# buffer, so that no (2**L, N) complex array is formed
GATHER_ROWS = 128


class DegenerateRecoveryError(RuntimeError):
    """The nullspace vector has a vanishing coefficient block."""


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one nullspace recovery, on either route.

    ``coefficients`` is the unit-norm recovered vector, ``rank`` the
    numeric rank of the constraint matrix, ``gap`` the dimension of the
    ambiguous subspace (number of unknowns minus rank minus one). When
    ``gap`` is positive the recovered vector is an arbitrary unit element
    of the nullspace and ``unique`` is False. ``eigenvalues`` holds the
    energies the joint route recovers alongside, scaled by the same factor
    as the coefficients; it is None on the commutator route.
    """

    coefficients: np.ndarray
    rank: int
    gap: int
    sigma_min: float
    unique: bool
    eigenvalues: np.ndarray | None = None


def check_state(basis: TermBasis, state: SteadyState) -> None:
    """The one state check of both routes' constraint builders."""
    if not isinstance(state, SteadyState):
        raise TypeError(f"expected a SteadyState, got {type(state).__name__}")
    if state.dim != basis.dim:
        raise ValueError(f"state dimension {state.dim} != basis dimension {basis.dim}")


def constraint_matrices(
    basis: TermBasis, state: SteadyState, methods: tuple[str, ...] = ("hoe", "eee")
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Both routes' constraint matrices ``(G, Q)`` from one pass over the states.

    Each matrix is None unless its route ("hoe" or "eee") is in ``methods``.
    The terms' action table is built once per pass, and each mixed state's
    amplitudes A_mu = (h_n|psi_mu>)_n are gathered once, GATHER_ROWS rows at
    a time, straight into the mu-th block of the Fortran-ordered Q: Re A_mu
    over Im A_mu (see eee.constraint_matrix for the layout). G is read off
    the same block, with X_mu = (Re A_mu)^T (Im A_mu):

        G = -2 sum_mu p_mu (X_mu - X_mu^T),

    since <i[h_m, h_n]>_mu = -2 Im(A_mu^H A_mu)[m, n]. That is one real
    product per state, and G is exactly antisymmetric. Without Q the states
    share one real block of the same column order, so G is bit-identical
    whichever routes run.
    """
    check_state(basis, state)
    dim, n, q = basis.dim, basis.n_params, state.q
    # Q before the table: the other order left the acceptance sweeps' peak
    # RSS 3.5 MB higher through heap placement, with no more memory live
    qmat = np.zeros((2 * dim * q, n + q), order="F") if "eee" in methods else None
    block = np.empty((2 * dim, n), order="F") if qmat is None else None
    src, phase = action_table(basis.terms, basis.L)
    chunk_buf = np.empty((min(GATHER_ROWS, dim), n), dtype=complex)
    with_g = "hoe" in methods
    if with_g:
        acc, x = np.zeros((n, n)), np.empty((n, n))
    for mu in range(q):
        psi = np.ascontiguousarray(state.states[:, mu], dtype=complex)
        if qmat is not None:
            top = 2 * dim * mu
            block = qmat[top : top + 2 * dim, :n]
            qmat[top : top + dim, n + mu] = -psi.real
            qmat[top + dim : top + 2 * dim, n + mu] = -psi.imag
        for r in range(0, dim, GATHER_ROWS):
            e = min(r + GATHER_ROWS, dim)
            chunk = np.take(psi, src[r:e], out=chunk_buf[: e - r], mode="clip")
            chunk *= phase[r:e]
            block[r:e] = chunk.real
            block[dim + r : dim + e] = chunk.imag
        if with_g:
            np.matmul(block[:dim].T, block[dim:], out=x)
            x *= state.probs[mu]
            acc += x
    if not with_g:
        return None, qmat
    g = np.subtract(acc, acc.T, out=x)
    g *= -2.0
    return g, qmat


def constraint_matrix(
    basis: TermBasis,
    state: SteadyState,
    observables: list[PauliString | str] | None = None,
) -> np.ndarray:
    """Real matrix of commutator expectations <i[K_m, h_n]> in the state.

    Observables default to the model's own terms, giving a square matrix
    with one row per unknown coefficient, built by ``constraint_matrices``.
    That default matrix satisfies G[m, n] = -G[n, m] exactly, so its rank
    is even; when the constraint system carries an odd number of
    independent rows, the square matrix sits one below it, and any
    observable outside the term set restores the odd rank (see
    ranks.predict_ranks).

    Custom observables take their own gather: with w = h_n|psi_mu> and
    u = K_m|psi_mu>, <i[K_m, h_n]>_mu = -2 Im(u^H w), which avoids any
    dim x dim products.
    """
    if observables is None:
        return constraint_matrices(basis, state, ("hoe",))[0]
    check_state(basis, state)
    if len(observables) == 0:
        raise ValueError("observable list must not be empty")
    obs_src, obs_phase = action_table(observables, basis.L)
    g = np.zeros((len(observables), basis.n_params))
    for mu in range(state.q):
        psi = state.states[:, mu]
        w = term_amplitudes(basis, psi)
        g += state.probs[mu] * ((obs_phase * psi[obs_src]).conj().T @ w).imag
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


def nullspace_report(m: np.ndarray, tol_rel: float, n_params: int | None = None) -> RecoveryReport:
    """The recovery body of both routes: validate, factor, report.

    The lowest right-singular vector is rescaled so its leading ``n_params``
    entries (all of them when None) have unit norm; on the joint route the
    trailing entries are the eigenvalues under the same scale. Raises
    DegenerateRecoveryError when that leading block vanishes.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.any(m):
        raise ValueError("constraint matrix is identically zero")
    rank, gap, sigma_min, x = nullspace(m, tol_rel)
    norm_a = np.linalg.norm(x[:n_params])
    if norm_a < 1e-12:
        raise DegenerateRecoveryError("null vector has no coefficient component")
    return RecoveryReport(
        coefficients=x[:n_params] / norm_a,
        rank=rank,
        gap=gap,
        sigma_min=sigma_min,
        unique=gap == 0,
        eigenvalues=None if n_params is None else x[n_params:] / norm_a,
    )


def recover(g: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> RecoveryReport:
    """Recover unit-norm coefficients as the lowest right-singular vector.

    Solves min ||G a|| subject to ||a|| = 1. The report carries the numeric
    rank of G and the resulting ambiguity gap; a positive gap means the
    minimizer is not unique and the returned vector is one arbitrary choice.
    """
    return nullspace_report(g, tol_rel)


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
