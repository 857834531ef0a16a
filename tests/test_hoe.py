"""Commutator constraint matrix, numeric rank, nullspace recovery."""

import itertools

import numpy as np
import pytest

from chaintomo import eee
from chaintomo.hoe import (
    DEFAULT_RANK_TOL,
    constraint_matrix,
    nullspace,
    numeric_rank,
    reconstruction_error,
    recover,
)
from chaintomo.models import MODEL_KINDS, assemble, enumerate_terms, min_length, sample_params
from chaintomo.pauli import string_matrix
from chaintomo.spectral import build_steady_state, eig_hermitian


def _instance(kind="h2", L=3, q=2, seed=0):
    basis = enumerate_terms(kind, L)
    coeffs = sample_params(basis, seed)
    h = assemble(basis, coeffs)
    state = build_steady_state(eig_hermitian(h), q, "lowest", seed + 1)
    return basis, coeffs, h, state


def test_entries_match_expectation_oracle():
    # element-by-element dense oracle: i * Tr(rho [K, h]) per entry
    basis, _, _, state = _instance(L=2, q=2, seed=1)
    g = constraint_matrix(basis, state)
    dense = [string_matrix(t) for t in basis.terms]
    for m, k in enumerate(dense):
        for n, h_n in enumerate(dense):
            want = np.trace(state.rho @ (1j * (k @ h_n - h_n @ k)))
            assert abs(want.imag) <= 1e-12
            assert g[m, n] == pytest.approx(want.real, abs=1e-12)


def test_diagonal_vanishes():
    # [K, K] = 0, so the diagonal is pure rounding residue
    basis, _, _, state = _instance(seed=2)
    g = constraint_matrix(basis, state)
    assert np.max(np.abs(np.diag(g))) <= 1e-14


def test_true_coefficients_span_the_nullspace():
    basis, coeffs, _, state = _instance(seed=4)
    g = constraint_matrix(basis, state)
    bound = 1e-9 * max(1.0, np.max(np.abs(g))) * np.linalg.norm(coeffs)
    assert np.max(np.abs(g @ coeffs)) <= bound


def test_custom_observables():
    basis, _, _, state = _instance(L=2, q=1, seed=5)
    same = constraint_matrix(basis, state, observables=list(basis.terms))
    assert np.max(np.abs(same - constraint_matrix(basis, state))) <= 1e-14
    few = constraint_matrix(basis, state, observables=["XI", "IY", "ZZ"])
    assert few.shape == (3, basis.n_params)
    with pytest.raises(ValueError):
        constraint_matrix(basis, state, observables=[])


def test_default_observables_give_antisymmetric_matrix():
    # choosing the terms themselves as observables makes the matrix
    # antisymmetric, which forces its rank to be even
    for kind, L, q in [("h2", 3, 2), ("h2prime", 3, 3)]:
        basis, _, _, state = _instance(kind, L, q, seed=10)
        g = constraint_matrix(basis, state)
        assert np.max(np.abs(g + g.T)) <= 1e-14 * max(1.0, np.max(np.abs(g)))
        assert numeric_rank(g) % 2 == 0


def test_one_extra_observable_lifts_the_even_rank_cap():
    # (h2prime, L=3, q=4): the square matrix stalls at rank 34 by
    # antisymmetry while the constraints carry 35; one observable outside
    # the term set breaks the symmetry and restores the odd rank
    basis, _, _, state = _instance("h2prime", 3, 4, seed=5)
    assert numeric_rank(constraint_matrix(basis, state)) == 34
    wide = constraint_matrix(basis, state, observables=list(basis.terms) + ["XYX"])
    assert numeric_rank(wide) == 35


def test_no_observable_set_lifts_the_basis_degeneracy():
    # (h2prime, L=3, q=3): one redundancy is shared by the states
    # themselves, so even the complete traceless basis stalls one short
    basis, _, _, state = _instance("h2prime", 3, 3, seed=5)
    every_string = ["".join(p) for p in itertools.product("IXYZ", repeat=3)][1:]
    g = constraint_matrix(basis, state, observables=every_string)
    assert g.shape == (63, 36)
    assert numeric_rank(g) == 34


def test_dimension_mismatch():
    basis = enumerate_terms("h2", 3)
    with pytest.raises(TypeError):
        constraint_matrix(basis, np.eye(8) / 8.0)  # a density matrix is not a SteadyState
    other = _instance(L=2, q=1, seed=6)[3]
    with pytest.raises(ValueError):
        constraint_matrix(basis, other)


def test_numeric_rank_basics():
    assert numeric_rank(np.zeros((3, 5))) == 0
    assert numeric_rank(np.eye(5)) == 5
    assert numeric_rank(np.diag([1.0, 1e-5, 1e-12])) == 2
    with pytest.raises(ValueError):
        numeric_rank(np.eye(2), tol_rel=0.0)


def test_rank_of_smallest_grid_cell():
    basis, _, _, state = _instance(L=2, q=1, seed=7)
    assert numeric_rank(constraint_matrix(basis, state)) == 6


def test_recover_known_one_dim_nullspace():
    rng = np.random.default_rng(8)
    for n in (6, 11):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        g = rng.standard_normal((n + 3, n)) @ (np.eye(n) - np.outer(v, v))
        report = recover(g)
        assert report.rank == n - 1
        assert report.gap == 0
        assert report.unique
        assert reconstruction_error(v, report.coefficients) <= 1e-10


def test_recover_flags_ambiguous_instances():
    basis, coeffs, _, state = _instance(L=2, q=1, seed=9)
    report = recover(constraint_matrix(basis, state))
    assert report.rank == 6
    assert report.gap == basis.n_params - 7
    assert not report.unique
    assert np.linalg.norm(report.coefficients) == pytest.approx(1.0, abs=1e-12)
    assert reconstruction_error(coeffs, report.coefficients) > 0.1


def test_recover_input_validation():
    with pytest.raises(ValueError):
        recover(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        recover(np.ones(4))
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            recover(np.eye(3), tol_rel=tol)
        with pytest.raises(ValueError):
            nullspace(np.eye(3), tol_rel=tol)


def _full_svd_reference(m):
    # reference: the SVD of the matrix itself with the full V^T, no R factor
    _, sigma, vt = np.linalg.svd(m, full_matrices=True)
    rank = int(np.count_nonzero(sigma > DEFAULT_RANK_TOL * sigma[0]))
    return rank, m.shape[1] - (rank + 1), sigma[0], vt[-1]


def test_nullspace_matches_full_svd_reference():
    # every cell of every family up to L = 7, q = 3: the joint matrix is wide
    # at the smallest cells and tall elsewhere, the commutator one square
    shapes = set()
    for kind in MODEL_KINDS:
        for L in range(min_length(kind), 8):
            for q in (1, 2, 3):
                for seed in range(3):
                    basis, _, _, state = _instance(kind, L, q, seed)
                    for m in (constraint_matrix(basis, state), eee.constraint_matrix(basis, state)):
                        rank, gap, sigma_min, vec = nullspace(m)
                        ref_rank, ref_gap, sigma_0, ref_vec = _full_svd_reference(m)
                        where = (kind, L, q, seed, m.shape)
                        assert (rank, gap) == (ref_rank, ref_gap), where
                        if gap == 0:
                            sign = 1.0 if np.dot(vec, ref_vec) >= 0 else -1.0
                            assert np.max(np.abs(vec - sign * ref_vec)) <= 1e-8, where
                        if m.shape[0] < m.shape[1]:
                            assert sigma_min == 0.0, where
                        else:
                            assert sigma_min <= DEFAULT_RANK_TOL * sigma_0, where
                        shapes.add(np.sign(m.shape[0] - m.shape[1]))
    assert shapes == {-1, 0, 1}


def test_successful_recovery_cell():
    basis, coeffs, _, state = _instance(L=5, q=1, seed=10)
    report = recover(constraint_matrix(basis, state))
    assert report.rank == 50
    assert report.unique
    assert reconstruction_error(coeffs, report.coefficients) < 1e-6


def test_reconstruction_error_conventions():
    a = np.array([1.0, 2.0, 2.0])
    assert reconstruction_error(a, 3.0 * a) == pytest.approx(0.0, abs=1e-15)
    assert reconstruction_error(a, -a) == pytest.approx(0.0, abs=1e-15)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert reconstruction_error(e1, e2) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        reconstruction_error(e1, np.zeros(2))
    with pytest.raises(ValueError):
        reconstruction_error(e1, np.ones(3))
