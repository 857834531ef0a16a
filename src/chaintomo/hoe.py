"""Recovery from homogeneous operator equations (HOE).

In a steady state rho every observable expectation is time invariant, so
for each observable K_m the coefficients a_n of the Hamiltonian satisfy

    sum_n a_n <i[K_m, h_n]>_rho = 0.

Collecting the expectations into a real matrix G turns recovery into
finding the nullspace of G: when that nullspace is one-dimensional the
coefficient vector is fixed up to overall scale and sign, and it is read
off as the right-singular vector of the smallest singular value (by
inverse iteration on the QR R factor of G, see ``nullspace``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .models import TermBasis
from .pauli import I_POWERS, PauliString, product_table
from .spectral import SteadyState

DEFAULT_RANK_TOL = 1e-10

# rows of R per diagonal block of the blocked triangular solves
SOLVE_BLOCK = 64

class DegenerateRecoveryError(RuntimeError):
    """No usable null vector: full column rank, or a vanishing coefficient block."""


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one nullspace recovery, on either route (see ``recover``).

    ``coefficients`` is the unit-norm recovered vector, ``rank`` the
    numeric rank of the constraint matrix, ``gap`` the dimension of the
    ambiguous subspace (number of unknowns minus rank minus one). When
    ``gap`` is positive ``unique`` is False and the recovered vector is the
    canonical element of the nullspace: the unit projection of the
    normalized all-ones vector onto it, which depends on the nullspace
    alone. ``eigenvalues`` holds the energies the joint route recovers
    alongside, scaled by the same factor as the coefficients; it is None on
    the commutator route. ``kept`` and ``dropped`` are log10(sigma_r / cut)
    and log10(cut / sigma_{r+1}) at the rank cut tol * sigma_0, ``dropped``
    None when sigma_{r+1} is exactly 0; their sum is the decades between
    the smallest kept and the largest dropped singular value.
    """

    coefficients: np.ndarray
    rank: int
    gap: int
    sigma_min: float
    unique: bool
    eigenvalues: np.ndarray | None = None
    kept: float | None = None
    dropped: float | None = None


def check_state(basis: TermBasis, state: SteadyState) -> None:
    """Both builders take a ``SteadyState`` of the basis's dimension only."""
    if not isinstance(state, SteadyState):
        raise TypeError(f"expected a SteadyState, got {type(state).__name__}")
    if state.dim != basis.dim:
        raise ValueError(f"state dimension {state.dim} != basis dimension {basis.dim}")


def constraint_matrix(
    basis: TermBasis,
    state: SteadyState,
    observables: list[PauliString | str] | None = None,
) -> np.ndarray:
    """Real matrix of commutator expectations <i[K_m, h_n]> in the state.

    Observables default to the terms, giving a square matrix with one row
    per coefficient. An entry is an exact zero where K_m and h_n commute and
    -2 Im<K_m h_n> where they anticommute, K_m h_n being a phase times one
    string X^f Z^z (``pauli.product_table``, from ``TermBasis.masks``). Per
    flip f, in groups of flips, the Walsh-Hadamard transform of c_f[i] =
    sum_mu p_mu conj(psi_mu[i]) psi_mu[i ^ f] over the row bits gives every z
    at once. The default G is exactly antisymmetric, so its rank is even;
    any observable outside the term set restores an odd rank (see
    ranks.predict_ranks). Custom observables are read off the union basis of
    the observables followed by the terms, whose block of observable rows
    and term columns is returned.
    """
    check_state(basis, state)
    if observables is not None:
        if not (m := len(observables)):
            raise ValueError("observable list must not be empty")
        return constraint_matrix(replace(basis, terms=tuple(observables) + basis.terms), state)[:m, m:]
    n, dim, (flips, pair, at, power) = basis.n_params, basis.dim, product_table(basis.masks, basis.L)
    g, group = np.zeros((n, n)), max(1, n * n // (8 * dim))  # a group's (group, 2**L) arrays hold about G's bytes
    c_buf, t_buf = np.empty((2, min(group, len(flips)), dim), dtype=complex)
    for f0 in range(0, len(flips), group):
        src = np.arange(dim) ^ flips[f0 : f0 + group, None]
        c, t = c_buf[: len(src)], t_buf[: len(src)]
        c[:] = 0.0
        for p, psi in zip(state.probs, state.states.T.astype(complex)):
            c += np.multiply(np.take(psi, src, out=t, mode="clip"), p * psi.conj(), out=t)
        for b in range(basis.L):  # Walsh-Hadamard butterflies on bit b of every row, in place
            v = c.reshape(-1, 2, 1 << b)
            diff = np.subtract(v[:, 0], v[:, 1], out=t.reshape(-1)[: c.size // 2].reshape(-1, 1 << b))
            v[:, 0] += v[:, 1]
            v[:, 1] = diff
        sel = (at >= f0 * dim) & (at < (f0 + len(src)) * dim)
        vals = (I_POWERS[power[sel]] * c.reshape(-1)[at[sel] - f0 * dim]).imag * -2.0
        g.flat[pair[sel]] = vals
        g.T.flat[pair[sel]] = -vals
    return g


def _rank_and_sigma(r: np.ndarray, tol_rel: float, compute_uv: bool = False):
    """Rank and singular values of R, padded with zeros to one per column,
    and with ``compute_uv`` the full V^T as well."""
    if not 0 < tol_rel < 1:  # a cut at or above sigma_0 keeps nothing
        raise ValueError(f"tol_rel must lie strictly between 0 and 1, got {tol_rel}")
    if not np.isfinite(r).all():  # from a NaN or infinity in m, which the SVD hangs on or misreads
        raise ValueError("constraint matrix has a non-finite entry")
    out = np.linalg.svd(r, compute_uv=compute_uv)
    sigma = np.pad(out[1] if compute_uv else out, (0, r.shape[1] - r.shape[0]))
    rank = int(np.count_nonzero(sigma > tol_rel * sigma[0]))
    return (rank, sigma, out[2]) if compute_uv else (rank, sigma)


def _inverse_iteration(r: np.ndarray, sigma_0: float) -> np.ndarray:
    """One step of inverse iteration on R^T R from the all-ones vector, R square.

    Two blocked triangular solves, first with R^T and then with R, through
    np.linalg.solve on SOLVE_BLOCK-row diagonal blocks and one product per
    block for the part already solved. Diagonal entries below
    eps * sigma_0 are raised to it, so an exactly singular R still has a
    solution.
    """
    n = r.shape[1]
    floor = np.finfo(float).eps * sigma_0
    blocks = []
    for s in range(0, n, SOLVE_BLOCK):
        e = min(s + SOLVE_BLOCK, n)
        d = r[s:e, s:e].copy()
        diag = np.einsum("ii->i", d)
        diag[:] = np.where(np.abs(diag) < floor, np.copysign(floor, diag), diag)
        blocks.append((s, e, d))
    x = np.ones(n)
    for s, e, d in blocks:
        x[s:e] = np.linalg.solve(d.T, x[s:e] - r[:s, s:e].T @ x[:s])
    x /= np.linalg.norm(x)
    for s, e, d in reversed(blocks):
        x[s:e] = np.linalg.solve(d, x[s:e] - r[s:e, e:] @ x[e:])
    return x / np.linalg.norm(x)


def _canonical(null_rows: np.ndarray) -> np.ndarray:
    """Unit projection of the normalized all-ones vector onto the row span.

    ``null_rows`` holds an orthonormal basis of the nullspace, one row per
    vector, so the result depends only on the nullspace, not on the basis.
    Where the all-ones vector is orthogonal to the nullspace the projector's
    column with the largest diagonal entry stands in for it.
    """
    coords = null_rows.sum(axis=1)
    if not np.linalg.norm(coords) > null_rows.shape[1] * np.finfo(float).eps:
        coords = null_rows[:, np.argmax(np.einsum("ij,ij->j", null_rows, null_rows))]
    x = coords @ null_rows
    return x / np.linalg.norm(x)


def nullspace(m: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> tuple[int, np.ndarray, np.ndarray]:
    """Numeric rank, singular values and the canonical null vector of m.

    Everything is read off the QR R factor of m, which has m's singular
    values and right-singular vectors; no left factor is formed. The
    singular values, one per column (zeros for the rows a wide m lacks),
    count towards the rank when above tol_rel * sigma_0. The returned
    vector is the unit projection of the normalized all-ones vector onto
    the nullspace, so it depends on the nullspace alone: when that is
    one-dimensional, it is the null vector whose entries sum to a positive
    value.

    In exact arithmetic a square R has one zero diagonal entry per null
    direction. A square R with at most one diagonal entry at or below
    tol_rel times the largest one lets the singular values alone decide the
    rank, and rank = columns - 1 takes one step of inverse iteration on
    R^T R, accepted when ||R x|| <= 10 sigma_min + n eps sigma_0. Any other
    R (a wide one, or two or more small diagonal entries), any other rank,
    or a rejected step takes the full SVD of R, which gives the rank and
    the nullspace basis at once (the trailing rows of V^T). Raises
    DegenerateRecoveryError at full column rank, ValueError at a non-finite m.
    """
    r = np.linalg.qr(np.atleast_2d(m), mode="r")
    n = r.shape[1]
    diag = np.abs(np.diagonal(r))
    if r.shape[0] == n and np.count_nonzero(diag <= tol_rel * diag.max()) < 2:
        rank, sigma = _rank_and_sigma(r, tol_rel)
        if rank == n - 1 and rank > 0:
            x = _inverse_iteration(r, sigma[0])
            if np.linalg.norm(r @ x) <= 10 * sigma[-1] + n * np.finfo(float).eps * sigma[0]:
                return rank, sigma, _canonical(x[None, :])
    rank, sigma, vt = _rank_and_sigma(r, tol_rel, compute_uv=True)
    if rank == n:
        raise DegenerateRecoveryError(f"numeric rank {rank} equals the column count: no null vector")
    return rank, sigma, _canonical(vt[rank:])


def numeric_rank(m: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above tol_rel times the largest one; ValueError at a non-finite m."""
    return _rank_and_sigma(np.linalg.qr(np.atleast_2d(m), mode="r"), tol_rel)[0]


def recover(m: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL, n_params: int | None = None) -> RecoveryReport:
    """Recover unit-norm coefficients as a null vector of a constraint matrix.

    The one report builder of both routes. Solves m x = 0 (see
    ``nullspace``) and rescales the canonical null vector so its leading
    ``n_params`` entries (all of them when None, as for G) have unit norm;
    on the joint route the trailing entries are the eigenvalues under the
    same scale. The report carries the numeric rank and the resulting
    ambiguity gap; a positive gap means the solution is not unique, and the
    returned vector is then the nullspace's canonical element, not the true
    coefficients. Raises DegenerateRecoveryError when m has full column
    rank or that leading block vanishes.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.any(m):
        raise ValueError("constraint matrix is identically zero")
    rank, sigma, x = nullspace(m, tol_rel)
    norm_a = np.linalg.norm(x[:n_params])
    if norm_a < 1e-12:
        raise DegenerateRecoveryError("null vector has no coefficient component")
    n_cols, cut = m.shape[1], tol_rel * sigma[0]
    return RecoveryReport(
        coefficients=x[:n_params] / norm_a,
        rank=rank,
        gap=n_cols - (rank + 1),
        sigma_min=float(sigma[-1]),
        unique=rank == n_cols - 1,
        eigenvalues=None if n_params is None else x[n_params:] / norm_a,
        kept=float(np.log10(sigma[rank - 1] / cut)),
        dropped=float(np.log10(cut / sigma[rank])) if sigma[rank] > 0 else None,
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
