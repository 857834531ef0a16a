"""Spin-chain Hamiltonian families and their term bases.

A family is a table entry: a tuple of support patterns, each a sorted
tuple of site offsets from the pattern's first site. Its terms are every
X/Y/Z assignment to every placement of every pattern on an open chain:

=========== ================================= ===============
kind        support patterns                  N(L)
=========== ================================= ===============
``h2``      (0), (0,1)                        12L - 9
``h2prime`` (0), (0,1), (0,2)                 21L - 27
``h3``      (0), (0,1), (0,1,2)               39L - 63
``h3table`` (0), (0,1), (0,2), (0,1,2)        48L - 81
=========== ================================= ===============

So h2 is on-site fields plus nearest-neighbor couplings, h2prime adds
next-nearest pairs, h3 adds strictly three-body couplings on consecutive
triples, and h3table holds every coupling supported on a consecutive
triple. A pattern p has 3**len(p) assignments at each of its L - max(p)
placements, and a family fits from L = (widest offset) + 1.

A term basis fixes a canonical ordering: patterns in table order, then
first site, then axes with x < y < z, first site's axis slowest.
Coefficient vectors, CSV columns and golden files all index terms in
this order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .pauli import I_POWERS, PauliString, row_action, string_masks
from .spectral import FlipOperator

FAMILIES = {
    "h2": ((0,), (0, 1)),
    "h2prime": ((0,), (0, 1), (0, 2)),
    "h3": ((0,), (0, 1), (0, 1, 2)),
    "h3table": ((0,), (0, 1), (0, 2), (0, 1, 2)),
}

MODEL_KINDS = tuple(FAMILIES)

AXES = "XYZ"


def min_length(kind: str) -> int:
    """Shortest chain on which the family's widest pattern fits."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return 1 + max(max(p) for p in FAMILIES[kind])


def _patterns(kind: str, L: int) -> tuple[tuple[int, ...], ...]:
    if L < min_length(kind):
        raise ValueError(f"chain length {L} too short for model {kind!r} (needs L >= {min_length(kind)})")
    return FAMILIES[kind]


@dataclass(frozen=True)
class TermBasis:
    """Ordered basis of Hamiltonian terms for one (kind, L) family member."""

    kind: str
    L: int
    terms: tuple[PauliString, ...]

    @functools.cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms' ``pauli.string_masks``, read-only, computed when first read."""
        masks = string_masks(self.terms, self.L)
        for mask in masks:
            mask.flags.writeable = False
        return masks

    @property
    def n_params(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return 1 << self.L


def param_count(kind: str, L: int) -> int:
    """Number of independent coefficients N(kind, L), counted from the patterns."""
    return sum(3 ** len(p) * (L - max(p)) for p in _patterns(kind, L))


@functools.cache
def enumerate_terms(kind: str, L: int) -> TermBasis:
    """Canonical ordered term basis of a model family at chain length L.

    Memoized by (kind, L): a basis is immutable, so every trial of a cell
    shares one. Raises ValueError when the chain is too short for the
    family's interaction range.
    """
    terms = []
    for pattern in _patterns(kind, L):
        for first in range(L - max(pattern)):
            for axes in itertools.product(AXES, repeat=len(pattern)):
                ops = ["I"] * L
                for offset, axis in zip(pattern, axes):
                    ops[first + offset] = axis
                terms.append(PauliString("".join(ops)))
    return TermBasis(kind=kind, L=L, terms=tuple(terms))


def sample_params(basis: TermBasis, seed) -> np.ndarray:
    """Draw independent standard-normal coefficients, one per basis term.

    ``seed`` may be an int, a numpy SeedSequence or a Generator; the same
    seed always yields the same vector.
    """
    rng = np.random.default_rng(seed)
    return rng.standard_normal(basis.n_params)


def term_amplitudes(basis: TermBasis, psi: np.ndarray) -> np.ndarray:
    """Matrix whose n-th column is term_n applied to the state psi.

    Shape (2**L, N): one gather through the terms' action table, built
    for this call by ``pauli.row_action`` from the basis's ``masks``. Both
    recovery routes are linear in these amplitudes, but neither calls
    this: ``hoe.constraint_matrices`` gathers them itself, row chunk by
    row chunk and state by state, custom observables included.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (basis.dim,):
        raise ValueError(f"expected state of dimension {basis.dim}, got shape {psi.shape}")
    src, phase = row_action(basis.masks, np.arange(basis.dim, dtype=np.int32))
    amps = psi[src]
    amps *= phase  # in place: one (2**L, N) complex array fewer
    return amps


def assemble(basis: TermBasis, coeffs: np.ndarray) -> np.ndarray:
    """Dense Hamiltonian sum_n coeffs[n] * term_n as a 2**L square matrix:
    its flip form written in one indexed write."""
    return flip_form(basis, coeffs).dense()


def flip_form(basis: TermBasis, coeffs: np.ndarray) -> FlipOperator:
    """The Hamiltonian sum_n coeffs[n] * term_n in flip form, flips ascending from 0.

    Each term is a signed permutation matrix that sends row i to column
    i ^ flip, flip marking its X and Y sites (see ``TermBasis.masks``), so
    each flip group sums its terms, in term order, into one row vector of
    length 2**L, each term's signs read off its sign mask: O(N * 2**L), and
    neither a dense H nor a (2**L, N) array is formed. H is thus exactly
    Hermitian for real coefficients; complex ones raise ValueError.
    """
    if np.iscomplexobj(coeffs):
        raise ValueError("coefficients must be real")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.n_params,):
        raise ValueError(f"expected {basis.n_params} coefficients, got shape {coeffs.shape}")
    flip, sign, n_y = basis.masks
    values = I_POWERS[n_y % 4] * coeffs  # i**n_y * a_n, exact
    rows = np.arange(basis.dim, dtype=np.int32)
    flips = sorted({0, *flip.tolist()})  # 0 for the diagonal, with or without terms; no np.unique (16 ms)
    diags = np.empty((len(flips), basis.dim), dtype=complex)
    for k, f in enumerate(flips):
        terms = np.flatnonzero(flip == f)
        odd = np.bitwise_count((rows ^ f) & sign[terms, None]) & 1
        diags[k] = np.where(odd, -values[terms, None], values[terms, None]).sum(axis=0)  # row by row, in term order
    return FlipOperator(np.array(flips), diags)
