"""Joint eigenvalue-equation constraint matrix and recovery."""

import numpy as np
import pytest

from chaintomo import eee, harness, hoe
from chaintomo.eee import DegenerateRecoveryError, compare_methods
from chaintomo.models import (
    TermBasis,
    assemble,
    enumerate_terms,
    sample_params,
    term_amplitudes,
)
from chaintomo.pauli import PauliString
from chaintomo.ranks import predict_ranks
from chaintomo.spectral import SteadyState, build_steady_state, eig_hermitian


def _instance(kind="h2", L=3, q=2, seed=0):
    basis = enumerate_terms(kind, L)
    coeffs = sample_params(basis, seed)
    h = assemble(basis, coeffs)
    state = build_steady_state(eig_hermitian(h), q, "lowest", seed + 1)
    return basis, coeffs, h, state


def test_single_qubit_by_hand():
    # H = a Z with a = 1; the spin-up state has energy +1, so the
    # stacked unknowns (a, E) solve [[1, -1], [0, 0], [0, 0], [0, 0]].
    basis = TermBasis(kind="h2", L=1, terms=(PauliString("Z"),))
    up = SteadyState(q=1, states=np.array([[1.0], [0.0]]), probs=np.ones(1), energies=np.ones(1))
    qmat = eee.constraint_matrix(basis, up)
    assert np.array_equal(qmat, [[1.0, -1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    joint = eee.recover(qmat, n_params=1)
    assert joint.rank == 1
    assert joint.gap == 0
    assert joint.unique
    assert abs(joint.coefficients[0]) == pytest.approx(1.0)
    assert joint.coefficients[0] * joint.eigenvalues[0] == pytest.approx(1.0)


def test_block_layout_matches_amplitudes():
    basis, _, _, state = _instance(seed=1)
    qmat = eee.constraint_matrix(basis, state)
    dim, n, q = basis.dim, basis.n_params, state.q
    assert qmat.shape == (2 * dim * q, n + q)
    for mu in range(q):
        psi = state.states[:, mu]
        amps = term_amplitudes(basis, psi)
        block = qmat[2 * dim * mu : 2 * dim * (mu + 1)]
        assert np.array_equal(block[:dim, :n], amps.real)
        assert np.array_equal(block[dim:, :n], amps.imag)
        col = np.zeros((2 * dim, q))
        col[:dim, mu] = -psi.real
        col[dim:, mu] = -psi.imag
        assert np.array_equal(block[:, n:], col)


def _joint_reference(basis, state):
    """Q assembled state by state from term_amplitudes, Re over Im, with -psi_mu in column N + mu."""
    n, q = basis.n_params, state.q
    blocks = []
    for mu in range(q):
        psi = state.states[:, mu]
        amps = np.zeros((basis.dim, n + q), dtype=complex)
        amps[:, :n] = term_amplitudes(basis, psi)
        amps[:, n + mu] = -psi
        blocks += [amps.real, amps.imag]
    return np.vstack(blocks)


def _count_sketch(basis, q):
    """The CountSketch the constraint pass applies to Q, as a dense matrix read
    off hoe._layer_maps: row i of state mu's Re and Im halves both go, with one
    sign, to bucket b(i), among the Re and the Im buckets respectively."""
    dim, width = basis.dim, basis.n_params + q
    s = np.zeros((2 * width, 2 * dim * q))
    for mu in range(q):
        bucket, sign = hoe._layer_maps(dim, mu, width)
        for part in (0, 1):
            s[bucket + part * width, (2 * mu + part) * dim + np.arange(dim)] = sign
    return s


@pytest.mark.parametrize("kind,L,q,sketched", [("h2", 8, 3, True), ("h3table", 9, 2, True),
                                               ("h3table", 9, 1, False), ("h3table", 8, 3, True)])
def test_public_builder_returns_q_or_its_stacked_state_r_factors(kind, L, q, sketched):
    # where Q is at least twice as tall as its 2(N + q)-row sketch the
    # builder returns the CountSketch SQ, one signed +-1 entry per column of
    # S, which keeps Q's rank and its null vector; elsewhere it returns Q
    # itself, bit for bit
    basis, coeffs, _, state = _instance(kind, L, q, seed=4)
    n, dim = basis.n_params, basis.dim
    joint, qmat = eee.constraint_matrix(basis, state), _joint_reference(basis, state)
    assert (dim * q >= 2 * (n + q)) == sketched
    if not sketched:
        assert joint.shape == (2 * dim * q, n + q)
        assert np.array_equal(joint, qmat)
        return
    assert joint.shape == (2 * (n + q), n + q)
    s = _count_sketch(basis, q)
    assert np.array_equal(np.count_nonzero(s, axis=0), np.ones(2 * dim * q))
    assert np.max(np.abs(joint - s @ qmat)) <= 1e-14 * np.max(np.abs(qmat))
    assert hoe.numeric_rank(joint) == hoe.numeric_rank(qmat)
    x_true = np.concatenate([coeffs, state.energies])
    assert np.linalg.norm(joint @ x_true) <= 1e-12 * np.linalg.norm(joint, 2) * np.linalg.norm(x_true)


def test_true_unknowns_span_the_nullspace():
    basis, coeffs, _, state = _instance(seed=2)
    qmat = eee.constraint_matrix(basis, state)
    x_true = np.concatenate([coeffs, state.energies])
    bound = 1e-9 * max(1.0, np.max(np.abs(qmat))) * np.linalg.norm(x_true)
    assert np.max(np.abs(qmat @ x_true)) <= bound


def test_rank_of_tabulated_cell():
    basis, _, _, state = _instance(seed=3)
    joint = eee.recover(eee.constraint_matrix(basis, state), basis.n_params)
    assert joint.rank == 28
    assert joint.gap == 0
    assert joint.unique


def test_wide_matrix_reports_exact_zero_sigma_min():
    basis, _, _, state = _instance(L=2, q=1, seed=4)
    qmat = eee.constraint_matrix(basis, state)
    assert qmat.shape == (8, 16)
    joint = eee.recover(qmat, basis.n_params)
    assert joint.sigma_min == 0.0
    assert not joint.unique
    assert joint.gap == 16 - 8


def test_recovered_pair_solves_eigenvalue_equations():
    basis, coeffs, _, state = _instance(L=5, q=2, seed=5)
    joint = eee.recover(eee.constraint_matrix(basis, state), basis.n_params)
    assert joint.unique
    h_rec = assemble(basis, joint.coefficients)
    scale = np.linalg.norm(h_rec, 2)
    for mu in range(state.q):
        psi = state.states[:, mu]
        residual = h_rec @ psi - joint.eigenvalues[mu] * psi
        assert np.linalg.norm(residual) <= 1e-8 * scale
    # recovered eigenvalues are the true energies under the recovered scale
    sign = np.sign(np.dot(coeffs, joint.coefficients))
    want = sign * state.energies / np.linalg.norm(coeffs)
    assert joint.eigenvalues == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_input_validation():
    basis = enumerate_terms("h2", 2)
    _, _, _, state = _instance(L=2, q=1, seed=6)
    # only a SteadyState is accepted, as on the commutator route
    for bare in (state.states, state.states[:, 0], state.rho):
        with pytest.raises(TypeError):
            eee.constraint_matrix(basis, bare)
    _, _, _, longer = _instance(L=3, q=1, seed=6)
    with pytest.raises(ValueError):
        eee.constraint_matrix(basis, longer)
    with pytest.raises(ValueError):
        eee.recover(np.zeros((3, 4)), 2)
    with pytest.raises(ValueError):
        eee.recover(np.ones(4), 2)
    with pytest.raises(ValueError):
        eee.recover(np.eye(4), 0)
    with pytest.raises(ValueError):
        eee.recover(np.eye(4), 4)
    for tol in (0.0, -1.0, float("inf"), 1.0, 2.0):
        with pytest.raises(ValueError):
            eee.recover(np.eye(4)[:3], 2, tol_rel=tol)
    for bad in (np.nan, np.inf, -np.inf):
        for qmat in (np.eye(4)[:3], np.eye(4)):
            qmat = qmat.copy()
            qmat[1, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                eee.recover(qmat, 2)


def test_vanishing_coefficient_block_is_rejected():
    qmat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(DegenerateRecoveryError):
        eee.recover(qmat, n_params=2)


def test_compare_methods_on_unique_cell():
    basis, _, _, state = _instance(L=5, q=1, seed=7)
    report = hoe.recover(hoe.constraint_matrix(basis, state))
    joint = eee.recover(eee.constraint_matrix(basis, state), basis.n_params)
    cmp = compare_methods(report, joint, state.q)
    assert cmp.rank_relation_ok
    assert cmp.gap_relation_ok
    assert cmp.aligned_distance is not None and cmp.aligned_distance <= 1e-8


def test_compare_methods_on_ambiguous_cell():
    basis, _, _, state = _instance(L=2, q=1, seed=8)
    report = hoe.recover(hoe.constraint_matrix(basis, state))
    joint = eee.recover(eee.constraint_matrix(basis, state), basis.n_params)
    cmp = compare_methods(report, joint, state.q)
    assert cmp.rank_relation_ok
    assert cmp.gap_relation_ok
    assert cmp.aligned_distance is None


# the cells of both acceptance grids (h2 L=2-9, h3table L=3-9, q=1-3) where Q
# is at least twice as tall as its sketch: h2 L=6 q=3, L=7 q>=2 and L>=8;
# h3table L=8 q=3 and L=9 q>=2
SKETCHED_GRID_CELLS = [(kind, L, q) for kind, lengths in (("h2", range(2, 10)), ("h3table", range(3, 10)))
                       for L in lengths for q in (1, 2, 3) if 2**L * q >= 2 * (enumerate_terms(kind, L).n_params + q)]


@pytest.mark.parametrize("selection", ["lowest", "random"])
def test_sketch_keeps_the_exact_rank_and_null_vector(selection):
    # the exact joint matrix is the oracle: at every sketched cell, the
    # sketch's rank is the whole Q's and the closed form's, its recovered
    # vector is the whole Q's, and every pass that builds Q returns the same
    # sketch bit for bit
    assert len(SKETCHED_GRID_CELLS) == 12
    for kind, L, q in SKETCHED_GRID_CELLS:
        for seed in (1, 2, 3):
            basis, _, state, _ = harness.draw_instance(kind, L, q, seed, 0, selection)
            n, cell = basis.n_params, (kind, L, q, seed)
            sketch, qmat = eee.constraint_matrix(basis, state), _joint_reference(basis, state)
            assert sketch.shape == (2 * (n + q), n + q), cell
            joint, exact = eee.recover(sketch, n), eee.recover(qmat, n)
            assert joint.rank == exact.rank == predict_ranks(kind, L, q).r_prime, cell
            assert np.max(np.abs(joint.coefficients - exact.coefficients)) <= 1e-10, cell
            assert np.max(np.abs(joint.eigenvalues - exact.eigenvalues)) <= 1e-10, cell
            for again in (eee.constraint_matrix(basis, state), hoe.constraint_matrices(basis, state, ("eee",))[1],
                          hoe.constraint_matrices(basis, state, ("hoe", "eee"))[1]):
                assert again.tobytes() == sketch.tobytes(), cell
