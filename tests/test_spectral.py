"""Eigendecomposition and steady-state mixtures."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from chaintomo import spectral
from chaintomo.models import assemble, enumerate_terms, flip_form, min_length, sample_params
from chaintomo.pauli import string_matrix
from chaintomo.spectral import (
    HERMITIAN_CHECK_ROWS,
    SELECTION_POLICIES,
    DegenerateSpectrumError,
    build_steady_state,
    FlipOperator,
    eig_hermitian,
)


def _random_instance(kind="h2", L=3, seed=0):
    basis = enumerate_terms(kind, L)
    coeffs = sample_params(basis, seed)
    h = assemble(basis, coeffs)
    return basis, coeffs, h


def test_eig_single_qubit_z():
    eig = eig_hermitian(string_matrix("Z"))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])
    # eigenvector of -1 is spin down, of +1 spin up, up to phase
    states = build_steady_state(eig, 2, "lowest", 0).states
    assert np.isclose(abs(states[1, 0]), 1.0)
    assert np.isclose(abs(states[0, 1]), 1.0)


def test_eig_zero_matrix():
    eig = eig_hermitian(np.zeros((4, 4)))
    assert np.all(eig.eigenvalues == 0)
    # every vector is an eigenvector; the shift nudge must not vanish
    v = build_steady_state(eig, 1, "lowest", 0).states
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_eig_resynthesis():
    _, _, h = _random_instance(seed=11)
    eig = eig_hermitian(h)
    scale = np.max(np.abs(h))
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    assert np.max(np.abs(eig.eigenvalues - np.linalg.eigh(h)[0])) <= 1e-12 * scale
    # all eight eigenstates picked at once rebuild the matrix
    state = build_steady_state(eig, eig.dim, "lowest", 0)
    v = state.states
    rebuilt = (v * state.energies) @ v.conj().T
    assert np.max(np.abs(rebuilt - h)) <= 1e-10 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(eig.dim))) <= 1e-12


def _picked_indices(eig, state):
    # nearest eigenvalue: a Lanczos pick's energies are Ritz values, which
    # the callers bound against the oracle's instead of matching exactly
    idx = np.abs(eig.eigenvalues[:, None] - state.energies).argmin(axis=0)
    assert np.unique(idx).size == idx.size
    return idx


def _residuals(h, vecs, vals):
    return np.linalg.norm(h @ vecs - vecs * vals, axis=0)


def _check_against_oracle(h, eig, state, w, vecs, cell):
    """Assert a steady state's pairs match the eigh oracle ``(w, vecs)``;
    return the worst residual of its vectors and of the oracle's, over ||H||."""
    eps = np.finfo(float).eps
    norm = np.max(np.abs(w))
    q = state.q
    idx = _picked_indices(eig, state)
    oracle = vecs[:, idx]
    assert np.max(np.abs(state.energies - w[idx])) <= 100 * eps * norm, cell
    overlaps = np.abs(oracle.conj().T @ state.states)
    assert np.max(np.abs(overlaps - np.eye(q))) <= 1e-10, cell
    gram = state.states.conj().T @ state.states
    assert np.max(np.abs(gram - np.eye(q))) <= 1e-13, cell
    rayleigh = np.einsum("ij,ij->j", state.states.conj(), h @ state.states).real
    return (_residuals(h, state.states, rayleigh).max() / norm,
            _residuals(h, oracle, w[idx]).max() / norm)


def test_picked_eigenpairs_match_eigh_oracle():
    # np.linalg.eigh of the whole matrix is the reference for the pairs
    # computed by shifted solves, and from L = 8 by Lanczos for ``lowest``;
    # residuals are compared per family at their worst, each vector
    # against its own Rayleigh quotient
    for kind in ("h2", "h2prime", "h3", "h3table"):
        worst = worst_oracle = 0.0
        for L in range(min_length(kind), 9):
            basis = enumerate_terms(kind, L)
            for seed in range(2):
                h = assemble(basis, sample_params(basis, seed))
                eig = eig_hermitian(h)
                w, vecs = np.linalg.eigh(h)
                for q in (1, 2, 3, 4) if L == 2 else (1, 2, 3):
                    for selection in SELECTION_POLICIES:
                        state = build_steady_state(eig, q, selection, seed)
                        res, res_oracle = _check_against_oracle(h, eig, state, w, vecs, (kind, L, q, selection, seed))
                        worst, worst_oracle = max(worst, res), max(worst_oracle, res_oracle)
        # within a factor 2: the two residuals sit at rounding level, where
        # the BLAS thread count alone moves their ratio between 0.8 and 1.2
        assert worst <= 2 * worst_oracle, (kind, worst, worst_oracle)


def test_krylov_pairs_match_eigh_oracle():
    # the Lanczos path of ``lowest`` at the lengths where it saves most,
    # under the bounds of the test above
    for kind in ("h2", "h3table"):
        worst = worst_oracle = 0.0
        for L in (9, 10):
            basis = enumerate_terms(kind, L)
            h = assemble(basis, sample_params(basis, 0))
            eig = eig_hermitian(h)
            w, vecs = np.linalg.eigh(h)
            for q in (1, 2, 3):
                state = build_steady_state(eig, q, "lowest", 0)
                res, res_oracle = _check_against_oracle(h, eig, state, w, vecs, (kind, L, q))
                worst, worst_oracle = max(worst, res), max(worst_oracle, res_oracle)
        assert worst <= worst_oracle, (kind, worst, worst_oracle)


def _dense_state(h, q, seed, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spectral, "KRYLOV_MIN_DIM", h.shape[0] + 1)
        return build_steady_state(eig_hermitian(h), q, "lowest", seed)


def test_failed_certificate_or_run_falls_back_to_dense(monkeypatch):
    _, _, h = _random_instance(kind="h2", L=8, seed=5)
    expected = _dense_state(h, 3, 5, monkeypatch)
    w, vecs = np.linalg.eigh(h)
    real_lanczos = spectral._lanczos
    # a run that missed the third eigenvalue, and one stopped before convergence
    assert real_lanczos(eig_hermitian(h).flip_form, 3, 20) is None
    fakes = (lambda h_, q, steps: (vecs[:, [0, 1, 3]], float(w[-1] - w[0])),
             lambda h_, q, steps: real_lanczos(h_, q, 20))
    for fake in fakes:
        with monkeypatch.context() as m:
            m.setattr(spectral, "_lanczos", fake)
            state = build_steady_state(eig_hermitian(h), 3, "lowest", 5)
        assert np.array_equal(state.states, expected.states)
        assert np.array_equal(state.energies, expected.energies)
        assert np.array_equal(state.probs, expected.probs)
    # without the fault the certified run returns the same pairs to round-off,
    # though not bit for bit
    state = build_steady_state(eig_hermitian(h), 3, "lowest", 5)
    assert not np.array_equal(state.states, expected.states)
    assert np.array_equal(state.probs, expected.probs)
    assert np.max(np.abs(state.energies - expected.energies)) <= 1e-12 * np.max(np.abs(w))
    assert np.max(np.abs(np.abs(expected.states.conj().T @ state.states) - np.eye(3))) <= 1e-10


def _same_decision(h, x, c, s):
    """Factor W = h + c xx^H - sI both ways: densely by np.linalg.cholesky,
    and in packed strips through the flip form eig_hermitian derives from
    ``h``; assert they raise alike and, where they succeed, that the packed
    factor reproduces W to round-off. Returns whether W was positive definite."""
    a = h + x @ (c * x.conj().T) - s * np.eye(h.shape[0])
    try:
        expected = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        expected = None
    try:
        strips = spectral._certificate_factor(eig_hermitian(h).flip_form, x, c, s)
    except np.linalg.LinAlgError:
        strips = None
    if strips is None:
        assert expected is None
        return False
    assert expected is not None
    factor = np.zeros_like(a)
    for j, (triangle, panel) in zip(range(0, h.shape[0], HERMITIAN_CHECK_ROWS), strips):
        e = j + panel.shape[1]
        factor[j:e, j:e][np.tri(e - j, dtype=bool)] = triangle
        factor[e:, j:e] = panel
    v = np.random.default_rng(0).standard_normal(a.shape[0])
    assert np.linalg.norm(factor @ (factor.conj().T @ v) - a @ v) <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(v)
    return True


def test_blocked_certificate_decides_as_cholesky():
    # the certificate matrices of Lanczos runs, with and without the
    # deflation term, at shifts just below and above lambda_q and
    # lambda_{q+1}; the dimensions are 2 and 4 strips
    outcomes = []
    for kind, L in [("h2", 8), ("h3table", 8), ("h3table", 9)]:
        _, _, h = _random_instance(kind, L, seed=L)
        form = eig_hermitian(h).flip_form
        lam = np.linalg.eigvalsh(h)
        for q in (1, 2, 3, 4):
            ritz, spread = spectral._lanczos(form, q, h.shape[0])
            states = spectral._rayleigh_ritz(form, ritz)[1]
            for shift in (lam[q - 1 : q + 1, None] + np.array([-1e-10, 1e-10]) * spread).ravel():
                for c in (0.0, 2 * spread + 1):
                    outcomes.append(_same_decision(h, states, c, shift))
    assert 0 < sum(outcomes) < len(outcomes)
    # random matrices, whose flip forms hold every flip, on both sides of
    # the cut: of 64 rows, one strip short of HERMITIAN_CHECK_ROWS, and of
    # 2 and 4 strips
    rng = np.random.default_rng(7)
    for n in (64, 256, 512):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a @ a.conj().T / n
        lam = np.linalg.eigvalsh(a)
        for shift in (lam[0] - 1e-3, lam[0] + 1e-9, lam[3] - 1e-9, lam[-1] + 1e-3):
            assert _same_decision(a, np.zeros((n, 1), dtype=complex), 0.0, shift) == (shift < lam[0])


def test_certificate_adds_at_most_three_quarters_of_a_dense_matrix():
    # the certificate matrix is factored in packed strips, each formed when
    # it is reached: beside the live H the pick holds the lower trapezoid of
    # the factor and one strip's temporaries, where a dense working matrix
    # read 1.33 dense matrices and a whole np.linalg.cholesky 2
    _, _, h = _random_instance(kind="h3table", L=9, seed=1)
    eig = eig_hermitian(h)
    before = h.copy()
    tracemalloc.start()
    try:
        build_steady_state(eig, 3, "lowest", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "eigenvalues" not in vars(eig)  # the Lanczos path, not the dense one
    assert peak <= 0.75 * h.nbytes, peak / h.nbytes
    assert h.tobytes() == before.tobytes()  # H is only read


def test_lowest_pick_never_computes_the_whole_spectrum(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    _, _, h = _random_instance(kind="h3table", L=8, seed=2)
    build_steady_state(eig_hermitian(h), 3, "lowest", 0)
    assert calls == []
    build_steady_state(eig_hermitian(h), 3, "random", 0)
    assert calls == [(256, 256)]


def test_close_pair_stays_orthonormal():
    # two eigenvalues 1e-9 apart on a range of 2 pass the degeneracy check;
    # each solve alone tilts its vector towards the other by about
    # eps/gap, and the Rayleigh-Ritz step restores orthonormality
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))[0]
    d = np.linspace(0.0, 2.0, 16)
    d[1] = 1e-9
    h = (u * d) @ u.conj().T
    h = (h + h.conj().T) / 2
    state = build_steady_state(eig_hermitian(h), 2, "lowest", 0)
    v = state.states
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-13
    assert np.linalg.norm(h @ v - v * state.energies, axis=0).max() <= 1e-14
    # the pair's span, unlike each vector, is well conditioned
    oracle = np.linalg.eigh(h)[1][:, :2]
    assert np.max(np.abs(v @ v.conj().T - oracle @ oracle.conj().T)) <= 1e-12


def test_exactly_singular_shift_is_nudged(monkeypatch):
    # H - lambda_k I has an exactly zero pivot on a diagonal matrix; the
    # solves shift H's own diagonal and restore it, also when they raise
    h = string_matrix("ZI") + 2 * string_matrix("IZ")
    eig = eig_hermitian(h)
    before = h.copy()
    assert eig.matrix is h
    assert eig.eigenvalues.tolist() == [-3.0, -1.0, 1.0, 3.0]
    for q in (1, 2, 3, 4):
        state = build_steady_state(eig, q, "lowest", 0)
        expected = np.eye(4)[:, [3, 1, 2, 0][:q]]
        assert np.allclose(np.abs(state.states), expected, atol=1e-14), q
        assert eig.matrix.tobytes() == before.tobytes(), q
    for seed in range(4):
        state = build_steady_state(eig, 2, "random", seed)
        assert np.allclose(np.abs(h @ state.states), np.abs(state.states * state.energies), atol=1e-14)
        assert eig.matrix.tobytes() == before.tobytes(), seed
    monkeypatch.setattr(spectral, "MAX_SHIFT_NUDGES", 0)
    with pytest.raises(np.linalg.LinAlgError):
        build_steady_state(eig, 1, "lowest", 0)
    assert eig.matrix.tobytes() == before.tobytes()


def test_eig_copies_only_what_it_may_not_shift():
    _, _, h = _random_instance(seed=5)
    assert eig_hermitian(h).matrix is h
    frozen = h.copy()
    frozen.flags.writeable = False
    for a, dtype in [(frozen, complex), (np.diag([1, 2, 3]), float), (h.astype(np.complex64), complex)]:
        matrix = eig_hermitian(a).matrix
        assert matrix is not a and matrix.flags.writeable and matrix.dtype == dtype
        assert np.array_equal(matrix, a)


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_hermitian(np.ones((2, 3)))


def test_hermiticity_check_finds_one_entry_in_any_strip():
    # 300 rows leave a last strip of 44, short of HERMITIAN_CHECK_ROWS; the
    # entries sit below and above the diagonal, on it, and in that last strip
    n = 300
    assert n % HERMITIAN_CHECK_ROWS != 0
    rng = np.random.default_rng(31)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = a + a.conj().T
    scale = np.max(np.abs(h))
    eig_hermitian(h)
    for i, j in [(290, 10), (10, 290), (150, 150), (299, 260), (270, 299)]:
        for eps, rejected in [(1e-13, False), (1e-9, True)]:
            bad = h.copy()
            bad[i, j] += eps * scale * (1j if i == j else 1)
            if rejected:
                with pytest.raises(ValueError, match="not Hermitian"):
                    eig_hermitian(bad)
            else:
                eig_hermitian(bad)
        # a non-finite entry fails on its own, not as a Hermiticity departure
        for value in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
            bad = h.copy()
            bad[i, j] = value
            with pytest.raises(ValueError, match="non-finite"):
                eig_hermitian(bad)


def _strip_predicate(h):
    """The Hermiticity check as it was made before nonzeros were read, row
    strip right of the diagonal against the column strip below it: the
    message ``eig_hermitian`` must raise, or None."""
    asym = scale = 0.0
    for i in range(0, h.shape[0], HERMITIAN_CHECK_ROWS):
        e = i + HERMITIAN_CHECK_ROWS
        upper, lower = h[i:e, i:], h[i:, i:e]
        peaks = [float(np.max(np.abs(upper))), float(np.max(np.abs(lower)))]
        if not np.all(np.isfinite(peaks)):
            return "matrix has a non-finite entry"
        scale = max(scale, *peaks)
        asym = max(asym, float(np.max(np.abs(upper - lower.conj().T))))
    if asym > 1e-12 * max(1.0, scale):
        return "matrix is not Hermitian within tolerance"
    return None


def _check_message(h):
    try:
        eig_hermitian(h)
    except ValueError as exc:
        return str(exc)
    return None


def test_hermiticity_check_decides_as_the_strip_predicate():
    # the check reads each row strip against its column strip, and the
    # strip predicate the upper triangle against the lower. They must raise
    # alike, with the same message, on a sparse H (kept by its flip form)
    # and on the dense 300-row cases of the test above, whose last strip
    # has 44 rows
    _, _, sparse = _random_instance(kind="h3table", L=9, seed=2)
    assert eig_hermitian(sparse).flip_form is not None
    rng = np.random.default_rng(31)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    dense = a + a.conj().T
    assert eig_hermitian(dense).flip_form is None
    # entries whose mirror is exactly 0, in the first, a middle and the last strip
    zeros = [(i, int(np.flatnonzero(sparse[i] == 0)[k])) for i, k in [(0, -1), (300, 0), (511, 5), (130, 200)]]
    nonzero = [(i, int(np.flatnonzero(sparse[i])[k])) for i, k in [(0, -1), (511, 0), (200, 7)]]
    cases = [(sparse, ij) for ij in zeros + nonzero]
    cases += [(dense, ij) for ij in [(290, 10), (10, 290), (150, 150), (299, 260), (270, 299)]]
    decided = []
    for h, (i, j) in cases:
        assert _check_message(h) is _strip_predicate(h) is None
        scale = np.max(np.abs(h))
        for change in (1e-13 * scale, 1e-9 * scale, 1e-9j * scale, np.nan, np.inf, -np.inf, complex(0, np.inf)):
            bad = h.copy()
            if np.isfinite(change):
                bad[i, j] += change
            else:
                bad[i, j] = change
            expected = _strip_predicate(bad)
            assert _check_message(bad) == expected, (h.shape, i, j, change)
            decided.append(expected)
    assert {None, "matrix has a non-finite entry", "matrix is not Hermitian within tolerance"} == set(decided)


def test_nonzeros_check_decides_as_the_dense_check():
    # H's nonzeros held in flip form are checked flip by flip, each entry
    # against its mirror in the same flip, with eig_hermitian's predicate:
    # NaN and infinite values, a mirror departing by more than
    # 1e-12 * max(1, max|h|) and a one-sided entry raise as the strip
    # predicate raises on the dense matrix; round-off passes
    basis = enumerate_terms("h3table", 9)
    op = flip_form(basis, sample_params(basis, 4))
    h = op.dense()
    eig = eig_hermitian(op)
    assert eig.dense is None and eig.dim == 512 and eig.flip_form is op
    scale = np.max(np.abs(op.diags))
    k, i = 3, 300  # an entry off the diagonal
    j = i ^ int(op.flips[k])
    decided = []
    for change in (1e-13 * scale, 1e-9 * scale, 1e-9j * scale, np.nan, np.inf, -np.inf, complex(0, -np.inf),
                   -op.diags[k, i]):  # the last leaves its mirror one-sided
        bad = op.diags.copy()
        bad[k, i] = bad[k, i] + change if np.isfinite(change) else change
        dense = h.copy()
        dense[i, j] = bad[k, i]
        expected = _strip_predicate(dense)
        assert _check_message(FlipOperator(op.flips, bad)) == expected, change
        decided.append(expected)
    assert decided[-1] == "matrix is not Hermitian within tolerance" and dense[j, i] != 0 == dense[i, j]
    assert {None, "matrix has a non-finite entry", "matrix is not Hermitian within tolerance"} == set(decided)


def test_nonzeros_decomposition_forms_the_dense_matrix_only_on_demand():
    # a flip form is kept however many flips it has, h3table L=8 (28 flips
    # on 256 rows) among them; a lowest pick reads no dense matrix, and the
    # dense matrix is formed on first read, byte for byte assemble's
    for L in (8, 9):
        basis = enumerate_terms("h3table", L)
        coeffs = sample_params(basis, 1)
        form = flip_form(basis, coeffs)
        eig = eig_hermitian(form)
        assert eig.flip_form is form and eig.dense is None
        build_steady_state(eig, 3, "lowest", 0)
        assert "matrix" not in vars(eig), L
        assert eig.matrix.tobytes() == assemble(basis, coeffs).tobytes()
        assert eig.matrix is eig.matrix and eig.matrix.flags.writeable


def test_every_hamiltonian_of_2L_rows_keeps_its_flip_form():
    # H keeps its flip form, as many flips as nonzeros per row, whether
    # given dense or in flip form, at every family and length: h3table at
    # L=8, 28 flips on 256 rows, as h2 at L=3 and h3table at L=9. A derived
    # form holds the XORs of the nonzeros' rows and columns, ascending, and
    # each flip's entries
    for kind, L in [("h3table", 8), ("h2prime", 8), ("h3", 8), ("h2", 8), ("h3table", 9), ("h2", 3)]:
        basis, coeffs, h = _random_instance(kind=kind, L=L, seed=1)
        form = eig_hermitian(h).flip_form
        built = flip_form(basis, coeffs)
        assert eig_hermitian(built).flip_form is built
        rows, cols = np.nonzero(h)
        assert np.array_equal(form.flips, np.unique(rows ^ cols)), (kind, L)
        assert np.array_equal(form.sources, np.arange(h.shape[0]) ^ form.flips[:, None])
        assert np.array_equal(form.diags, h[np.arange(h.shape[0]), form.sources])


def _spied_lanczos(monkeypatch):
    """Record the operand of every Lanczos run from here on."""
    operands, real_lanczos = [], spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos", lambda op, q, steps: operands.append(op) or real_lanczos(op, q, steps))
    return operands


@pytest.mark.parametrize("kind", ["h2", "h3table"])
def test_nonzero_products_pick_the_dense_products_pairs(kind, monkeypatch):
    # at L=10 q=3 the Lanczos run and the Rayleigh-Ritz step multiply
    # through H's flip form; the pairs agree with those of the dense path,
    # which the decomposition without its flip form takes, under the bounds
    # of test_failed_certificate_or_run_falls_back_to_dense
    _, _, h = _random_instance(kind=kind, L=10, seed=3)
    eig = eig_hermitian(h)
    operands = _spied_lanczos(monkeypatch)
    state = build_steady_state(eig, 3, "lowest", 3)
    dense = dataclasses.replace(eig, flip_form=None)
    expected = build_steady_state(dense, 3, "lowest", 3)
    assert len(operands) == 1 and operands[0] is eig.flip_form and "eigenvalues" in vars(dense)
    w = np.linalg.eigvalsh(h)
    assert np.max(np.abs(state.energies - expected.energies)) <= 1e-12 * np.max(np.abs(w))
    assert np.max(np.abs(np.abs(expected.states.conj().T @ state.states) - np.eye(3))) <= 1e-10
    assert np.array_equal(state.probs, expected.probs)


def test_nonzero_product_gives_zero_on_an_empty_row():
    # rows and columns 0, 100 and 255 of a Hermitian H set to zero: every
    # flip holds zeros there, the product through H's flip form must give 0
    # there and equal the dense product elsewhere, for 1-D and 2-D operands,
    # and the pick must match the dense one
    _, _, h = _random_instance(kind="h2", L=8, seed=4)
    for k in (0, 100, 255):
        h[k] = h[:, k] = 0
    eig = eig_hermitian(h)
    form = eig.flip_form
    assert form.flips.size == 16 and not form.diags[:, [0, 100, 255]].any()
    rng = np.random.default_rng(6)
    scale = np.max(np.abs(h)) * h.shape[0]
    for x in (rng.standard_normal(256), rng.standard_normal(256) + 1j * rng.standard_normal(256),
              rng.standard_normal((256, 3)) + 1j * rng.standard_normal((256, 3))):
        y = form @ x
        assert y.shape == x.shape
        assert np.max(np.abs(y - h @ x)) <= 1e-14 * scale * np.max(np.abs(x))
        assert np.all(y[[0, 100, 255]] == 0)
    state = build_steady_state(eig, 3, "lowest", 0)
    expected = build_steady_state(dataclasses.replace(eig, flip_form=None), 3, "lowest", 0)
    assert np.max(np.abs(state.energies - expected.energies)) <= 1e-12 * np.max(np.abs(np.linalg.eigvalsh(h)))
    assert np.max(np.abs(np.abs(expected.states.conj().T @ state.states) - np.eye(3))) <= 1e-10


def test_dense_input_of_other_size_takes_the_dense_path(monkeypatch):
    # a matrix of 300 rows, dense random or sparse, has no flip form, so its
    # lowest pick runs no Lanczos and reads the whole spectrum
    rng = np.random.default_rng(8)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    operands = _spied_lanczos(monkeypatch)
    for h in (a + a.conj().T, np.diag(np.ones(299), 1) + np.diag(np.ones(299), -1)):
        eig = eig_hermitian(h)
        assert eig.flip_form is None
        state = build_steady_state(eig, 2, "lowest", 0)
        assert operands == [] and "eigenvalues" in vars(eig)
        assert np.max(np.abs(state.energies - np.linalg.eigvalsh(h)[:2])) <= 1e-12 * np.max(np.abs(h)) * 300


def test_random_dense_input_runs_lanczos_through_its_flip_form(monkeypatch):
    # a dense random Hermitian matrix of 512 rows has all 512 flips, and its
    # lowest pick multiplies through that derived form, reading no spectrum
    rng = np.random.default_rng(8)
    a = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    h = a + a.conj().T
    eig = eig_hermitian(h)
    assert np.array_equal(eig.flip_form.flips, np.arange(512))
    operands = _spied_lanczos(monkeypatch)
    state = build_steady_state(eig, 2, "lowest", 0)
    assert len(operands) == 1 and operands[0] is eig.flip_form
    assert "eigenvalues" not in vars(eig)  # the Lanczos path, not the dense one
    assert np.max(np.abs(state.energies - np.linalg.eigvalsh(h)[:2])) <= 1e-12 * np.max(np.abs(h)) * 512


def test_pure_state_is_projector():
    _, _, h = _random_instance(seed=3)
    state = build_steady_state(eig_hermitian(h), 1, "lowest", 0)
    assert state.probs.tolist() == [1.0]
    assert np.max(np.abs(state.rho @ state.rho - state.rho)) <= 1e-12
    assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)


def test_explicit_probs_become_rho_spectrum():
    _, _, h = _random_instance(seed=4)
    state = build_steady_state(eig_hermitian(h), 2, "lowest", 0)
    vals = np.linalg.eigvalsh(state.rho)
    assert np.allclose(vals[-2:], np.sort(state.probs), atol=1e-12)
    assert np.allclose(vals[:-2], 0, atol=1e-12)


def test_q_and_policy_validation():
    _, _, h = _random_instance(seed=6)
    eig = eig_hermitian(h)
    with pytest.raises(ValueError):
        build_steady_state(eig, 0, "lowest", 0)
    with pytest.raises(ValueError):
        build_steady_state(eig, 9, "lowest", 0)
    with pytest.raises(ValueError):
        build_steady_state(eig, 1, "smallest", 0)


def test_lowest_selection_takes_ground_states():
    _, _, h = _random_instance(seed=7)
    eig = eig_hermitian(h)
    state = build_steady_state(eig, 3, "lowest", 0)
    assert np.array_equal(state.energies, eig.eigenvalues[:3])


def test_random_selection_is_seeded_and_sorted():
    _, _, h = _random_instance(seed=8)
    eig = eig_hermitian(h)
    a = build_steady_state(eig, 3, "random", 123)
    b = build_steady_state(eig, 3, "random", 123)
    c = build_steady_state(eig, 3, "random", 124)
    assert np.array_equal(a.energies, b.energies)
    assert np.all(np.diff(a.energies) > 0)
    assert all(e in eig.eigenvalues for e in a.energies)
    assert not np.array_equal(a.energies, c.energies) or not np.array_equal(a.probs, c.probs)


def test_drawn_probs_are_separated():
    _, _, h = _random_instance(seed=9)
    eig = eig_hermitian(h)
    for seed in range(12):
        state = build_steady_state(eig, 3, "lowest", seed)
        p = np.sort(state.probs)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)
        assert np.diff(p).min() >= 1e-3


def test_state_commutes_with_hamiltonian():
    for q in (1, 2, 3):
        _, _, h = _random_instance(seed=10 + q)
        state = build_steady_state(eig_hermitian(h), q, "lowest", q)
        comm = h @ state.rho - state.rho @ h
        assert np.max(np.abs(comm)) <= 1e-10 * max(1.0, np.max(np.abs(h)))


def test_expectations_are_time_invariant():
    # the commutator expectation of every basis term vanishes in the state
    basis, _, h = _random_instance(seed=14)
    state = build_steady_state(eig_hermitian(h), 2, "lowest", 2)
    h_norm = np.linalg.norm(h, ord=2)
    for term in basis.terms:
        k = string_matrix(term)
        value = np.trace(state.rho @ (1j * (k @ h - h @ k)))
        assert abs(value) <= 1e-9 * h_norm


def test_degenerate_selection_is_rejected():
    # a single on-site field leaves the rest of the chain free: the two
    # lowest eigenvalues coincide and mixing them must fail
    basis = enumerate_terms("h2", 2)
    coeffs = np.zeros(basis.n_params)
    coeffs[2] = 1.0  # field along z on the first site
    eig = eig_hermitian(assemble(basis, coeffs))
    with pytest.raises(DegenerateSpectrumError):
        build_steady_state(eig, 2, "lowest", 0)


def test_positive_semidefinite_unit_trace():
    _, _, h = _random_instance(kind="h3table", L=3, seed=15)
    state = build_steady_state(eig_hermitian(h), 3, "lowest", 5)
    vals = np.linalg.eigvalsh(state.rho)
    assert vals.min() >= -1e-12
    assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
