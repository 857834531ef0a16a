"""Hermitian eigendecomposition and rank-q steady-state construction.

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


class DegenerateSpectrumError(RuntimeError):
    """Selected eigenstates are too close in energy to mix reliably."""


@dataclass(frozen=True)
class EigDecomposition:
    """Full spectrum of a Hermitian matrix, eigenvalues ascending.

    ``eigenvectors`` holds orthonormal eigenvectors as columns, column k
    paired with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def eig_hermitian(h: np.ndarray) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues.

    Raises ValueError when the input is not square or departs from
    Hermiticity by more than 1e-12 relative to its largest entry.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(h)
    return EigDecomposition(eigenvalues=vals, eigenvectors=vecs)


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


def _draw_probs(q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform simplex draw, rejecting vectors with near-tied entries."""
    if q == 1:
        return np.ones(1)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(q))
        gaps = np.diff(np.sort(p))
        if gaps.min() >= MIN_PROB_GAP:
            return p
    raise RuntimeError(f"could not draw {q} well-separated probabilities")


def build_steady_state(
    eig: EigDecomposition,
    q: int,
    selection: str = "lowest",
    rng_seed=0,
    probs: np.ndarray | None = None,
) -> SteadyState:
    """Mix q eigenstates of a decomposed Hamiltonian into a steady state.

    ``selection`` picks which eigenstates enter the mixture: ``lowest``
    takes the q smallest eigenvalues, ``random`` takes q distinct uniform
    picks. Probabilities are drawn uniformly from the simplex with a
    minimum pairwise gap of 1e-3 unless passed explicitly.

    Raises DegenerateSpectrumError when any two selected eigenvalues are
    closer than 1e-10 times the spectral range; callers resample the
    Hamiltonian in that case.
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
    if probs is None:
        p = _draw_probs(q, rng)
    else:
        p = np.asarray(probs, dtype=float)
        if p.shape != (q,):
            raise ValueError(f"expected {q} probabilities, got shape {p.shape}")
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be positive and sum to 1")
        if q > 1 and np.diff(np.sort(p)).min() == 0:
            raise ValueError("probabilities must be pairwise distinct")
    states = eig.eigenvectors[:, idx]
    return SteadyState(q=q, states=states, probs=p, energies=energies)
