"""Commutator constraint matrix, numeric rank, nullspace recovery."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintomo import eee, harness, hoe, models, pauli
from chaintomo.hoe import (
    DEFAULT_RANK_TOL,
    DegenerateRecoveryError,
    constraint_matrix,
    nullspace,
    numeric_rank,
    reconstruction_error,
    recover,
)
from chaintomo.models import MODEL_KINDS, assemble, enumerate_terms, min_length, sample_params, term_amplitudes
from chaintomo.pauli import action_table, commutator, expectation, product_table, string_masks, string_matrix
from chaintomo.spectral import SteadyState, build_steady_state, eig_hermitian


def _instance(kind="h2", L=3, q=2, seed=0):
    basis = enumerate_terms(kind, L)
    coeffs = sample_params(basis, seed)
    h = assemble(basis, coeffs)
    state = build_steady_state(eig_hermitian(h), q, "lowest", seed + 1)
    return basis, coeffs, h, state


def _custom_observable_sets(basis, rng):
    # the terms plus one string outside them (where one exists), a random
    # set that repeats some terms, and at L <= 3 every traceless string
    every = ["".join(p) for p in itertools.product("IXYZ", repeat=basis.L)][1:]
    terms = [t.ops for t in basis.terms]
    outside = sorted(set(every) - set(terms))
    sets = [terms + [outside[rng.integers(len(outside))]]] if outside else []
    repeated = [terms[i] for i in rng.integers(len(terms), size=4)]
    picked = [every[i] for i in rng.integers(len(every), size=6)] + 2 * repeated
    sets.append([picked[i] for i in rng.permutation(len(picked))])
    if basis.L <= 3:
        sets.append(every)
    return sets


def test_entries_match_expectation_oracle():
    # dense oracle at every cell up to L=6: G[m, n] = Tr(rho i[K_m, h_n]) =
    # Tr(h_n i[rho, K_m]) by cyclicity, one commutator per row; K_m are the
    # terms by default, or custom sets, which are read off the same table.
    # Where the dense K_m and h_n commute the entry is an exact zero: K h and
    # h K are equal or opposite signed permutations, so their first columns
    # decide. A few entries per set are also taken one by one, as
    # expectation(i[K_m, h_n], rho), commuting pairs among them
    for kind in MODEL_KINDS:
        for L in range(min_length(kind), 7):
            for q in (1, 2, 3):
                basis, _, _, state = _instance(kind, L, q, seed=L + q)
                rho, terms = state.rho, np.array([string_matrix(t) for t in basis.terms])
                # Tr(h_n row) for every term at once: row . h_n^T, flattened
                dense_t = terms.transpose(0, 2, 1).reshape(len(terms), -1).T
                rng = np.random.default_rng([L, q])
                for observables in [None, *_custom_observable_sets(basis, rng)]:
                    where = (kind, L, q, observables)
                    g = constraint_matrix(basis, state, observables)
                    ks = terms if observables is None else np.array([string_matrix(k) for k in observables])
                    oracle = np.array([1j * commutator(rho, k).ravel() for k in ks]) @ dense_t
                    assert np.max(np.abs(oracle.imag)) <= 1e-12
                    assert np.max(np.abs(g - oracle.real)) <= 1e-13 * np.max(np.abs(g)), where
                    commuting = np.array([np.all(k @ terms[:, :, 0].T == (terms @ k[:, 0]).T, axis=0) for k in ks])
                    assert commuting.shape == g.shape and commuting.any() and not commuting.all()
                    assert not np.any(g[commuting]), where
                    for m, n in zip(rng.integers(len(ks), size=8), rng.integers(len(terms), size=8)):
                        entry = expectation(1j * commutator(ks[m], terms[n]), rho)
                        assert abs(g[m, n] - entry.real) <= 1e-13 * np.max(np.abs(g)), where
                    if observables is None:
                        assert np.array_equal(g, -g.T), where


def test_custom_observables_take_one_table(monkeypatch):
    # observables and terms share one product table: the union basis computes
    # its masks once for all q states, the model's basis reuses the masks
    # assemble already read, and there is no (2**L, N) action table and no
    # per-state amplitude gather
    basis, _, _, state = _instance("h2", 3, 3, seed=11)
    masks, tables, gathers = [], [], []

    def counting_masks(strings, L):
        masks.append(len(strings))
        return string_masks(strings, L)

    def counting(calls, f):
        return lambda *args: calls.append(args) or f(*args)

    monkeypatch.setattr(models, "string_masks", counting_masks)
    monkeypatch.setattr(pauli, "action_table", counting(tables, action_table))
    monkeypatch.setattr(hoe, "action_table", counting(tables, action_table), raising=False)
    monkeypatch.setattr(models, "term_amplitudes", counting(gathers, term_amplitudes))
    monkeypatch.setattr(hoe, "term_amplitudes", counting(gathers, term_amplitudes), raising=False)
    g = constraint_matrix(basis, state, observables=["XYX", "ZIZ"])
    assert g.shape == (2, basis.n_params)
    assert masks == [2 + basis.n_params]
    constraint_matrix(basis, state)
    eee.constraint_matrix(basis, state)
    assert masks == [2 + basis.n_params]
    assert tables == []
    assert gathers == []


def test_diagonal_vanishes():
    # [K, K] = 0, and only anticommuting pairs are written, so the diagonal is exactly zero
    basis, _, _, state = _instance(seed=2)
    g = constraint_matrix(basis, state)
    assert not np.any(np.diag(g))


def _g_bound(basis, q):
    """Bytes the G builder may hold: G itself; 40 per entry of a group's
    (group, 2**L) arrays, its sources, the sum of c over the states and one
    state's gather, the group sized so that they hold about as much as G;
    72 per anticommuting pair, for the product table, the temporaries that
    build it and those of the pair's entry; and 48 per basis row and state,
    for each state's complex copy and its weighted conjugate."""
    dim, n = basis.dim, basis.n_params
    flips, pair, _, _ = product_table(basis.masks, basis.L)
    group = min(max(1, n * n // (8 * dim)), len(flips))
    return 8 * n * n + 40 * group * dim + 72 * len(pair) + 48 * q * dim


def _q_bound(basis, q, sketched):
    """Bytes the row pass may hold: its output; per basis row, each state's
    contiguous copy (and where Q is sketched, each state's cached bucket and
    sign) and an index; and per entry of an (h, N) layer, 23 bytes for its
    sources and phases and the temporaries that form them, 16 for the layer's
    complex gather and, where Q is sketched, 8 for the sketch rows that a layer
    is added into."""
    dim, n = basis.dim, basis.n_params
    h = min(dim, n + q, eee.LAYER_ROWS)
    output = 2 * (n + q) ** 2 * 8 if sketched else 2 * dim * q * (n + q) * 8
    per_row = 8 + 16 * q * (2 if sketched else 1)
    per_entry = 23 + 16 + (8 if sketched else 0)
    return output + per_row * dim + per_entry * h * n


def _traced_peak(build, basis, state):
    tracemalloc.start()
    try:
        out = build(basis, state)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_pass_memory_stays_within_its_arrays():
    # traced peaks of both builders at h3table, each within its bound: no
    # state's 2**L-row block (6.6 MB at L=10) and no (2**L, N) action table
    # (2.2 MB at L=9) is held. Where the returned Q is its 2(N + q)-row
    # CountSketch, each layer was added into it as it was gathered;
    # elsewhere Q is formed whole and the layer's rows are written straight
    # into it: at L=9 q=1, Q is under twice the sketch's height
    for L, q, sketched in [(9, 1, False), (8, 3, True), (9, 3, True), (10, 3, True)]:
        basis, _, _, state = _instance("h3table", L, q, seed=3)
        dim, n = basis.dim, basis.n_params
        peak, qmat = _traced_peak(eee.constraint_matrix, basis, state)
        assert qmat.shape[0] == (2 * (n + q) if sketched else 2 * dim * q), (L, q)
        assert peak <= _q_bound(basis, q, sketched), (L, q, peak)
        peak, _ = _traced_peak(constraint_matrix, basis, state)
        assert peak <= _g_bound(basis, q), (L, q, peak)


def test_pass_memory_does_not_grow_with_the_basis():
    # h3table L=12 q=3 on a synthetic state (orthonormal random columns, so no
    # eigensolve runs): the row pass stays within the sketch and a few layers,
    # and the G builder within G, a group of flips and its product table, each
    # under half of one state's 2**L-row block (32.6 MB)
    basis = enumerate_terms("h3table", 12)
    dim, n, q = basis.dim, basis.n_params, 3
    rng = np.random.default_rng(12)
    states = np.linalg.qr(rng.standard_normal((dim, q)) + 1j * rng.standard_normal((dim, q)))[0]
    state = SteadyState(q=q, states=states, probs=np.array([0.5, 0.3, 0.2]), energies=np.arange(q, dtype=float))
    block = 2 * dim * (n + q) * 8
    peak, qmat = _traced_peak(eee.constraint_matrix, basis, state)
    assert qmat.shape == (2 * (n + q), n + q)
    assert peak <= _q_bound(basis, q, sketched=True) < block / 2, peak
    peak, g = _traced_peak(constraint_matrix, basis, state)
    assert g.shape == (n, n)
    assert peak <= _g_bound(basis, q) < block / 2, peak


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
        assert np.array_equal(g, -g.T)
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
        proj = np.eye(n) - np.outer(v, v)
        g = rng.standard_normal((n + 3, n)) @ proj
        # and a matrix one row short of square, whose R is wide
        short = np.random.default_rng(n).standard_normal((n - 1, n)) @ proj
        for m in (g, short):
            report = recover(m)
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
    # a cut at or above sigma_0 keeps nothing: tolerances of 1 and more
    # once read rank 0 and a kept of log10(sigma_min / cut)
    for tol in (0.0, -1.0, float("nan"), float("inf"), 1.0, 2.0):
        with pytest.raises(ValueError):
            recover(np.eye(3), tol_rel=tol)
        with pytest.raises(ValueError):
            nullspace(np.eye(3), tol_rel=tol)
    # a non-finite entry is refused before the SVD: a wide matrix with an
    # infinity once hung in it, a square one read rank 0, a NaN raised
    # LinAlgError
    for bad in (np.nan, np.inf, -np.inf):
        for m in (np.eye(4)[:3], np.eye(2), np.eye(3)):
            m = m.copy()
            m[0, 0] = bad
            for call in (recover, nullspace, numeric_rank):
                with pytest.raises(ValueError, match="non-finite"):
                    call(m)


def _canonical_reference(m):
    # reference: the SVD of the matrix itself with the full V^T, no R factor,
    # and the all-ones vector projected onto its trailing rows
    _, sigma, vt = np.linalg.svd(m, full_matrices=True)
    sigma = np.pad(sigma, (0, m.shape[1] - sigma.size))
    rank = int(np.count_nonzero(sigma > DEFAULT_RANK_TOL * sigma[0]))
    x = vt[rank:].sum(axis=1) @ vt[rank:]
    return rank, sigma, x / np.linalg.norm(x)


def test_nullspace_matches_full_svd_reference():
    # every cell of every family up to L = 7, q = 3: the joint matrix is wide
    # at the smallest cells and tall elsewhere, the commutator one square.
    # The returned vector is the canonical element at every gap, with its
    # sign fixed by the reference vector, so no sign is aligned here
    shapes, gaps = set(), set()
    for kind in MODEL_KINDS:
        for L in range(min_length(kind), 8):
            for q in (1, 2, 3):
                for seed in range(3):
                    basis, _, _, state = _instance(kind, L, q, seed)
                    for m in (constraint_matrix(basis, state), eee.constraint_matrix(basis, state)):
                        rank, sigma, vec = nullspace(m)
                        ref_rank, ref_sigma, ref_vec = _canonical_reference(m)
                        where = (kind, L, q, seed, m.shape)
                        assert rank == ref_rank, where
                        assert np.max(np.abs(sigma - ref_sigma)) <= 1e-12 * ref_sigma[0], where
                        assert np.max(np.abs(vec - ref_vec)) <= 1e-8, where
                        gaps.add(rank < m.shape[1] - 1)
                        if m.shape[0] < m.shape[1]:
                            assert sigma[-1] == 0.0, where
                        else:
                            assert sigma[-1] <= DEFAULT_RANK_TOL * sigma[0], where
                        shapes.add(np.sign(m.shape[0] - m.shape[1]))
    assert shapes == {-1, 0, 1}
    assert gaps == {False, True}  # one-dimensional and larger nullspaces both met


@st.composite
def _planted(draw):
    # an exact nullspace of dimension d: z exact-zero columns plus d - z
    # random directions among the others; the kept singular values lie in
    # [1, 2], and the rows make the matrix wide, square or tall (up to 9
    # times taller than wide)
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, min(4, n)))
    z = draw(st.integers(0, d))
    shape = draw(st.sampled_from(["wide", "square", "tall"]))
    rows = {"wide": draw(st.integers(max(1, n - d), max(1, n - 1))), "square": n,
            "tall": draw(st.integers(n + 1, 9 * n + 1))}[shape]
    return n, d, z, rows, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_planted())
def test_nullspace_finds_planted_nullspaces(case):
    n, d, z, rows, seed = case
    rng = np.random.default_rng(seed)
    cols = rng.permutation(n)
    zero, kept = cols[:z], cols[z:]
    basis = np.linalg.qr(rng.standard_normal((len(kept), len(kept))))[0]
    null = np.zeros((n, d))
    null[zero, np.arange(z)] = 1.0
    null[kept, z:] = basis[:, : d - z]
    m = np.zeros((rows, n))
    if n > d:
        left = np.linalg.qr(rng.standard_normal((rows, n - d)))[0] * rng.uniform(1.0, 2.0, n - d)
        m[:, kept] = left @ basis[:, d - z :].T
    rank, sigma, vec = nullspace(m)
    assert rank == n - d
    assert sigma.shape == (n,) and np.all(sigma[rank:] <= 1e-14 * max(sigma[0], 1.0))
    assert np.linalg.norm(m @ vec) <= 1e-13
    expected = null @ null.sum(axis=0)
    assert np.max(np.abs(vec - expected / np.linalg.norm(expected))) <= 1e-12
    assert numeric_rank(m) == rank


def test_canonical_element_where_the_reference_is_orthogonal():
    # two equal columns: the null vector (1, -1)/sqrt(2) is orthogonal to
    # the all-ones reference, and inverse iteration from it fails the
    # residual check; the projector's column with the largest diagonal
    # entry (the first, on a tie) fixes the sign instead
    rank, sigma, vec = nullspace(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 3.0]]))
    assert rank == 2
    assert np.max(np.abs(vec - np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0))) <= 1e-15


def test_unique_recovery_never_forms_the_left_factor(monkeypatch):
    # at a unique cell both routes read the null vector off R by inverse
    # iteration: no SVD with singular vectors, which would build U
    basis, coeffs, _, state = _instance("h3table", 8, 3, seed=1)
    g, qmat = constraint_matrix(basis, state), eee.constraint_matrix(basis, state)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(kw.get("compute_uv", True))
                        or svd(a, *args, **kw))
    reports = [recover(g), eee.recover(qmat, basis.n_params)]
    assert calls == [False, False]
    for report in reports:
        assert report.unique
        assert reconstruction_error(coeffs, report.coefficients) < 1e-6


def test_full_column_rank_fails_loudly():
    assert numeric_rank(np.eye(5)) == 5
    with pytest.raises(DegenerateRecoveryError, match="rank 3"):
        recover(np.eye(3))
    with pytest.raises(DegenerateRecoveryError, match="rank 4"):
        eee.recover(np.vstack([np.eye(4), np.ones((2, 4))]), 2)


def _decades_across_cut(m: np.ndarray) -> float:
    """log10(sigma_r / sigma_{r+1}) at m's rank, from the singular values ``nullspace`` cuts."""
    rank, sigma, _ = nullspace(m)
    return float(np.log10(sigma[rank - 1] / sigma[rank]))


def test_rank_margin_at_a_unique_cell():
    basis, _, _, state = _instance("h3table", 6, 3, seed=1)
    g, qmat = constraint_matrix(basis, state), eee.constraint_matrix(basis, state)
    for m, report in ((g, recover(g)), (qmat, eee.recover(qmat, basis.n_params))):
        assert report.unique
        assert report.kept + report.dropped >= 3
        assert report.kept + report.dropped == pytest.approx(_decades_across_cut(m), abs=1e-9)
    # a wide matrix's dropped singular values are exact zeros: nothing dropped to measure
    assert recover(np.array([[1.0, 2.0, 0.0]])).dropped is None


def test_kept_shows_a_rank_decision_the_margin_hides():
    # G's smallest kept singular value sits 5% above the cut 1e-10 * sigma_0,
    # while the one below it is at round-off, so kept + dropped reads 7 decades
    basis, _, state, _ = harness.draw_instance("h3table", 7, 1, 5, 1, "lowest")
    g, qmat = constraint_matrix(basis, state), eee.constraint_matrix(basis, state)
    report = recover(g)
    assert report.gap == 0
    assert report.kept + report.dropped > 7
    assert 0 < report.kept < 1
    assert report.dropped > 7
    for m, r in ((g, report), (qmat, eee.recover(qmat, basis.n_params))):
        assert r.kept + r.dropped == pytest.approx(_decades_across_cut(m), abs=1e-9)


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
