"""Spin-chain Hamiltonian families and their term bases.

Four families of translation-inhomogeneous chains with open boundaries:

``h2``
    On-site fields plus nearest-neighbor couplings, 12L - 9 parameters.
``h2prime``
    h2 plus next-nearest-neighbor couplings, 21L - 27 parameters.
``h3``
    h2 plus all strictly three-body couplings on consecutive triples
    (non-identity on all three sites), 39L - 63 parameters.
``h3table``
    h2 plus every coupling supported on a consecutive triple, i.e. the
    union of the h3 three-body terms and the h2prime next-nearest terms,
    48L - 81 parameters.

A term basis fixes a canonical ordering: single-site terms by (site, axis)
with x < y < z, then nearest-neighbor pairs by (site, axis, axis), then
next-nearest pairs, then three-body triples. Coefficient vectors, CSV
columns and golden files all index terms in this order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, action_table

MODEL_KINDS = ("h2", "h2prime", "h3", "h3table")

AXES = "XYZ"

_MIN_LENGTH = {"h2": 2, "h2prime": 3, "h3": 3, "h3table": 3}


def min_length(kind: str) -> int:
    """Shortest chain on which the family's longest-range term fits."""
    _check_kind(kind)
    return _MIN_LENGTH[kind]


def _check_kind(kind: str) -> None:
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def _check_length(kind: str, L: int) -> None:
    _check_kind(kind)
    if L < _MIN_LENGTH[kind]:
        raise ValueError(f"chain length {L} too short for model {kind!r} (needs L >= {_MIN_LENGTH[kind]})")


@dataclass(frozen=True)
class TermBasis:
    """Ordered basis of Hamiltonian terms for one (kind, L) family member."""

    kind: str
    L: int
    terms: tuple[PauliString, ...]

    @property
    def n_params(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return 1 << self.L


def param_count(kind: str, L: int) -> int:
    """Closed-form number of independent coefficients N(kind, L)."""
    _check_length(kind, L)
    if kind == "h2":
        return 12 * L - 9
    if kind == "h2prime":
        return 21 * L - 27
    if kind == "h3":
        return 39 * L - 63
    return 48 * L - 81


def _placed(L: int, placements: dict[int, str]) -> PauliString:
    ops = ["I"] * L
    for site, axis in placements.items():
        ops[site - 1] = axis  # sites are 1-based
    return PauliString("".join(ops))


def enumerate_terms(kind: str, L: int) -> TermBasis:
    """Canonical ordered term basis of a model family at chain length L.

    Raises ValueError when the chain is too short for the family's
    interaction range.
    """
    _check_length(kind, L)
    terms: list[PauliString] = []
    for l in range(1, L + 1):
        for a in AXES:
            terms.append(_placed(L, {l: a}))
    for l in range(1, L):
        for a in AXES:
            for b in AXES:
                terms.append(_placed(L, {l: a, l + 1: b}))
    if kind in ("h2prime", "h3table"):
        for l in range(1, L - 1):
            for a in AXES:
                for b in AXES:
                    terms.append(_placed(L, {l: a, l + 2: b}))
    if kind in ("h3", "h3table"):
        for l in range(1, L - 1):
            for a in AXES:
                for b in AXES:
                    for c in AXES:
                        terms.append(_placed(L, {l: a, l + 1: b, l + 2: c}))
    basis = TermBasis(kind=kind, L=L, terms=tuple(terms))
    assert basis.n_params == param_count(kind, L)
    return basis


def sample_params(basis: TermBasis, seed) -> np.ndarray:
    """Draw independent standard-normal coefficients, one per basis term.

    ``seed`` may be an int, a numpy SeedSequence or a Generator; the same
    seed always yields the same vector.
    """
    rng = np.random.default_rng(seed)
    return rng.standard_normal(basis.n_params)


def term_amplitudes(basis: TermBasis, psi: np.ndarray) -> np.ndarray:
    """Matrix whose n-th column is term_n applied to the state psi.

    Shape (2**L, N): one gather through the terms' action table. Both
    recovery routes are linear in these amplitudes. The table is formed
    per call rather than kept on the basis, so that no (2**L, N) array
    stays alive across an eigensolve.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (basis.dim,):
        raise ValueError(f"expected state of dimension {basis.dim}, got shape {psi.shape}")
    src, phase = action_table(basis.terms, basis.L)
    phase *= psi[src]  # in place: one (2**L, N) complex array fewer
    return phase


def assemble(basis: TermBasis, coeffs: np.ndarray) -> np.ndarray:
    """Dense Hamiltonian sum_n coeffs[n] * term_n as a 2**L square matrix.

    Each term is a signed permutation matrix, so the sum is one scatter of
    the action table, O(N * 2**L). The scatter runs row by row and, within
    a row, in term order, so every entry sums its terms in a fixed order
    and H is exactly Hermitian for real coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.n_params,):
        raise ValueError(f"expected {basis.n_params} coefficients, got shape {coeffs.shape}")
    src, phase = action_table(basis.terms, basis.L)
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    phase *= coeffs
    np.add.at(h, (np.arange(basis.dim)[:, None], src), phase)
    return h
