"""Hermitian spectra and rank-q steady-state construction.

A steady state of a Hamiltonian is any density matrix that commutes with
it. Here we use non-degenerate mixtures of q energy eigenstates:

    rho = sum_mu p_mu |psi_mu><psi_mu|,   p_mu > 0, pairwise distinct.

The recovery routes downstream need the probabilities distinct and the
selected eigenvalues well separated, so construction rejects degenerate
picks instead of silently proceeding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SELECTION_POLICIES = ("lowest", "random")

# relative eigenvalue gap below which a selected pair counts as degenerate
DEGENERACY_RTOL = 1e-10

# minimum pairwise distance between mixture probabilities
MIN_PROB_GAP = 1e-3

# times a shift that leaves H - sigma*I exactly singular moves by one
# rounding unit of the spectrum's scale before the solve gives up
MAX_SHIFT_NUDGES = 4


class DegenerateSpectrumError(RuntimeError):
    """Selected eigenstates are too close in energy, or their drawn
    probabilities too close to each other, to mix reliably."""


@dataclass(frozen=True)
class EigDecomposition:
    """Full spectrum of a Hermitian matrix, eigenvalues ascending.

    ``matrix`` is the decomposed matrix itself. No eigenvectors are held:
    ``build_steady_state`` computes them only for the states it mixes.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def eig_hermitian(h: np.ndarray) -> EigDecomposition:
    """All eigenvalues of a Hermitian matrix, ascending, with the matrix.

    Raises ValueError when the input is not square or departs from
    Hermiticity by more than 1e-12 relative to its largest entry.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return EigDecomposition(eigenvalues=np.linalg.eigvalsh(h), matrix=h)


@dataclass(frozen=True)
class SteadyState:
    """Mixture of q eigenstates with distinct probabilities.

    ``states`` holds the selected eigenvectors as columns in ascending
    energy order; ``energies`` are the matching eigenvalues.
    """

    q: int
    states: np.ndarray
    probs: np.ndarray
    energies: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def rho(self) -> np.ndarray:
        """Dense density matrix of the mixture, formed on each access."""
        return (self.states * self.probs) @ self.states.conj().T


def _picked_eigenvectors(h: np.ndarray, vals: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of ``h`` for the eigenvalues ``vals[idx]``, as columns.

    Inverse iteration (Ipsen, SIAM Review 39, 1997): per eigenvalue, one
    solve shifted to it from a fixed start vector, then one shifted to the
    Rayleigh quotient of the result; a single solve leaves residuals ten to
    a hundred times those of a full ``eigh``. A Rayleigh-Ritz step on the
    span of the q vectors keeps them orthonormal where picked eigenvalues
    lie close. ``vals`` must hold the whole spectrum of ``h``, ascending;
    its ends set the shift nudge.
    """
    dim = h.shape[0]
    # H is Hermitian, so H - sigma*I reaches the solver as the transpose of
    # its conjugate: a Fortran-ordered view, which LAPACK takes without a
    # strided copy
    shifted_conj = np.conjugate(h, dtype=np.result_type(h.dtype, float))
    diag = shifted_conj.diagonal().copy()
    nudge = np.finfo(float).eps * (max(abs(vals[0]), abs(vals[-1])) or 1.0)

    def solve(sigma: float, v: np.ndarray) -> np.ndarray:
        for _ in range(MAX_SHIFT_NUDGES + 1):
            shifted_conj.flat[:: dim + 1] = diag - sigma
            try:
                x = np.linalg.solve(shifted_conj.T, v)
            except np.linalg.LinAlgError:
                sigma += nudge
                continue
            return x / np.linalg.norm(x)
        raise np.linalg.LinAlgError(
            f"shifted matrix exactly singular after {MAX_SHIFT_NUDGES} nudges (shift {sigma:.17g})"
        )

    # fixed, so that no trial's random stream is consumed
    start = np.random.default_rng(0).standard_normal(dim)
    cols = []
    for k in idx:
        v = solve(vals[k], start)
        cols.append(solve(np.vdot(v, h @ v).real, v))
    basis = np.linalg.qr(np.stack(cols, axis=1))[0]
    return basis @ np.linalg.eigh(basis.conj().T @ (h @ basis))[1]


def _draw_probs(q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform simplex draw, rejecting vectors with near-tied entries.

    Raises DegenerateSpectrumError after 1000 rejections, as nearly always
    from q = 23 and always once q(q - 1)/2 * MIN_PROB_GAP > 1 (q >= 46)."""
    if q == 1:
        return np.ones(1)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(q))
        gaps = np.diff(np.sort(p))
        if gaps.min() >= MIN_PROB_GAP:
            return p
    raise DegenerateSpectrumError(f"could not draw {q} well-separated probabilities")


def build_steady_state(eig: EigDecomposition, q: int, selection: str = "lowest", rng_seed=0) -> SteadyState:
    """Mix q eigenstates of a decomposed Hamiltonian into a steady state.

    ``selection`` picks which eigenstates enter the mixture: ``lowest``
    takes the q smallest eigenvalues, ``random`` takes q distinct uniform
    picks. Probabilities are drawn uniformly from the simplex with a
    minimum pairwise gap of 1e-3. Every decision is made on the
    eigenvalues; eigenvectors are then computed for the picked states only.

    Raises DegenerateSpectrumError when any two selected eigenvalues are
    closer than 1e-10 times the spectral range, or when no well-separated
    probabilities are drawn; callers resample the Hamiltonian in that case.
    """
    dim = eig.dim
    if not 1 <= q <= dim:
        raise ValueError(f"q={q} out of range for dimension {dim}")
    if selection not in SELECTION_POLICIES:
        raise ValueError(f"unknown selection policy {selection!r}; expected one of {SELECTION_POLICIES}")
    rng = np.random.default_rng(rng_seed)
    if selection == "lowest":
        idx = np.arange(q)
    else:
        idx = np.sort(rng.choice(dim, size=q, replace=False))
    energies = eig.eigenvalues[idx]
    if q > 1:
        gap = float(np.diff(energies).min())
        if gap < DEGENERACY_RTOL * max(eig.spectral_range, np.finfo(float).tiny):
            raise DegenerateSpectrumError(
                f"selected eigenvalues nearly degenerate (gap {gap:.3e})"
            )
    probs = _draw_probs(q, rng)
    states = _picked_eigenvectors(eig.matrix, eig.eigenvalues, idx)
    return SteadyState(q=q, states=states, probs=probs, energies=energies)
