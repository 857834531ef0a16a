"""Model families: term enumeration order, counts, sampling, assembly."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from chaintomo.models import (
    FAMILIES,
    MODEL_KINDS,
    assemble,
    assemble_nonzeros,
    enumerate_terms,
    min_length,
    param_count,
    sample_params,
    term_amplitudes,
)
from chaintomo.pauli import action_table, string_masks, string_matrix
from chaintomo.spectral import eig_hermitian

from reference_grids import (
    H2_PARAM_COUNT,
    H3TABLE_PARAM_COUNT,
    MIN_LENGTHS,
    PARAM_COUNT_FORMS,
    SUPPORT_PATTERNS,
)


def test_param_count_closed_forms():
    for L, n in H2_PARAM_COUNT.items():
        assert param_count("h2", L) == n
    for L, n in H3TABLE_PARAM_COUNT.items():
        assert param_count("h3table", L) == n
    assert param_count("h2prime", 3) == 36
    assert param_count("h2prime", 7) == 120
    assert param_count("h3", 3) == 54
    assert param_count("h3", 5) == 132
    assert MODEL_KINDS == tuple(PARAM_COUNT_FORMS)
    for kind, form in PARAM_COUNT_FORMS.items():
        assert min_length(kind) == MIN_LENGTHS[kind]
        with pytest.raises(ValueError):
            param_count(kind, MIN_LENGTHS[kind] - 1)
        for L in range(MIN_LENGTHS[kind], 13):
            assert param_count(kind, L) == form(L), (kind, L)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_term_order_matches_a_brute_scan(kind):
    # keep every Pauli string whose support, shifted to start at site 0, is
    # one of the family's patterns, sorted by (pattern, first site, axes)
    patterns = SUPPORT_PATTERNS[kind]
    assert FAMILIES[kind] == patterns
    for L in range(MIN_LENGTHS[kind], 7):
        keyed = []
        for ops in itertools.product("IXYZ", repeat=L):
            support = [site for site, op in enumerate(ops) if op != "I"]
            shifted = tuple(site - support[0] for site in support) if support else None
            if shifted in patterns:
                axes = tuple(ops[site] for site in support)
                keyed.append(((patterns.index(shifted), support[0], axes), "".join(ops)))
        expected = [ops for _, ops in sorted(keyed)]
        assert [str(t) for t in enumerate_terms(kind, L).terms] == expected, (kind, L)


def test_enumerate_terms_is_memoized():
    first = enumerate_terms("h3table", 4)
    assert enumerate_terms("h3table", 4) is first
    assert enumerate_terms.__wrapped__("h3table", 4) == first  # same terms, same order


def test_masks_are_computed_once_per_basis():
    # every trial of a cell shares the memoized basis and with it the
    # terms' masks, read-only; a replaced basis computes its own
    basis = enumerate_terms("h2", 4)
    assert basis.masks is enumerate_terms("h2", 4).masks
    for got, expected in zip(basis.masks, string_masks(basis.terms, basis.L)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert not got.flags.writeable
    union = dataclasses.replace(basis, terms=basis.terms[:3])
    assert [m.shape for m in union.masks] == [(3,)] * 3
    assert np.array_equal(union.masks[0], basis.masks[0][:3])


def test_param_count_matches_enumeration():
    for kind in MODEL_KINDS:
        for L in range(min_length(kind), 7):
            assert enumerate_terms(kind, L).n_params == param_count(kind, L)


def test_length_validation():
    with pytest.raises(ValueError):
        param_count("h2", 1)
    with pytest.raises(ValueError):
        enumerate_terms("h3", 2)
    with pytest.raises(ValueError):
        enumerate_terms("h2prime", 2)
    with pytest.raises(ValueError):
        param_count("nope", 4)


def test_h2_term_order():
    terms = [str(t) for t in enumerate_terms("h2", 2).terms]
    assert terms == [
        "XI", "YI", "ZI", "IX", "IY", "IZ",
        "XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ",
    ]


def test_h2prime_next_nearest_block():
    terms = [str(t) for t in enumerate_terms("h2prime", 3).terms]
    # 9 single-site terms, 18 nearest-neighbor pairs, then the skip-one pairs
    assert terms[27:33] == ["XIX", "XIY", "XIZ", "YIX", "YIY", "YIZ"]
    assert len(terms) == 36


def test_h3_three_body_block():
    terms = [str(t) for t in enumerate_terms("h3", 3).terms]
    assert terms[:3] == ["XII", "YII", "ZII"]
    assert terms[27] == "XXX"
    assert terms[-1] == "ZZZ"
    assert len(terms) == 54


def test_h3table_is_union_of_blocks():
    terms = [str(t) for t in enumerate_terms("h3table", 3).terms]
    assert len(terms) == 63
    assert len(set(terms)) == 63
    assert terms[27] == "XIX"  # skip-one pairs precede the triples
    assert terms[36] == "XXX"
    three_body = [t for t in terms if "I" not in t]
    assert len(three_body) == 27


def test_terms_fit_in_three_site_windows():
    for kind in MODEL_KINDS:
        for term in enumerate_terms(kind, 5).terms:
            support = [i for i, c in enumerate(str(term)) if c != "I"]
            assert support, "identity string is not a model term"
            assert support[-1] - support[0] <= 2


def test_sample_params():
    basis = enumerate_terms("h2", 3)
    a = sample_params(basis, 5)
    b = sample_params(basis, 5)
    c = sample_params(basis, 6)
    assert a.shape == (27,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_assemble_matches_dense_sum():
    for kind, L in (("h2", 3), ("h3table", 3)):
        basis = enumerate_terms(kind, L)
        coeffs = sample_params(basis, 17)
        h = assemble(basis, coeffs)
        dense = sum(c * string_matrix(t) for c, t in zip(coeffs, basis.terms))
        assert np.max(np.abs(h - dense)) < 1e-12
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def _scatter_reference(basis, coeffs):
    # every term scattered into H, row by row and within a row in term order
    src, phase = action_table(basis.terms, basis.L)
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.add.at(h, (np.arange(basis.dim)[:, None], src), phase * coeffs)
    return h


def test_assemble_is_bit_identical_to_the_term_scatter():
    # summing each flip group first keeps every entry's sum in term order
    for kind in MODEL_KINDS:
        for L in range(min_length(kind), 9):
            basis = enumerate_terms(kind, L)
            coeffs = sample_params(basis, L)
            assert np.array_equal(assemble(basis, coeffs), _scatter_reference(basis, coeffs)), (kind, L)


def test_assemble_holds_little_beside_its_output():
    # each flip group is summed from the terms' bit masks, one group at a
    # time, so no (2**L, N) action table is formed; with one H took 1.64
    # times its output at this size
    basis = enumerate_terms("h3table", 10)
    coeffs = sample_params(basis, 1)
    tracemalloc.start()
    try:
        h = assemble(basis, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * h.nbytes, peak / h.nbytes


def test_assemble_nonzeros_are_the_kept_nonzeros_byte_for_byte():
    # wherever eig_hermitian keeps a dense H's nonzeros, the mask-built
    # nonzeros are the same bytes: int32 columns ascending per row, the whole
    # diagonal, no exact zero off it, and int64 row starts
    checked = []
    for kind in MODEL_KINDS:
        for L in range(min_length(kind), 12):
            basis = enumerate_terms(kind, L)
            for seed in (0, 1):
                coeffs = sample_params(basis, seed)
                kept = eig_hermitian(assemble(basis, coeffs)).nonzeros
                if kept is None:
                    continue
                built = assemble_nonzeros(basis, coeffs)
                for name, got in zip(("columns", "values", "starts"), built):
                    expected = getattr(kept, name)
                    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (kind, L, seed, name)
                checked.append((kind, L))
    assert {("h2", 8), ("h2prime", 9), ("h3", 9), ("h3table", 9), ("h3table", 11)} <= set(checked)


def test_assemble_nonzeros_keep_the_diagonal_and_drop_exact_zeros():
    # with every diagonal term's coefficient 0 the diagonal is kept as
    # zeros, and X_1 and X_1 Z_2 with one coefficient cancel exactly on the
    # rows where Z_2 reads -1
    basis = enumerate_terms("h2", 8)
    coeffs = sample_params(basis, 2)
    coeffs[basis.masks[0] == 0] = 0.0
    ops = [term.ops for term in basis.terms]
    coeffs[ops.index("XZ" + "I" * 6)] = coeffs[ops.index("X" + "I" * 7)]
    h = assemble(basis, coeffs)
    assert not h.diagonal().any() and np.count_nonzero(h) < np.count_nonzero(assemble(basis, sample_params(basis, 2)))
    columns, values, starts = assemble_nonzeros(basis, coeffs)
    rows = np.repeat(np.arange(basis.dim), np.diff(starts))
    assert np.array_equal(rows * basis.dim + columns, np.flatnonzero((h != 0) | np.eye(basis.dim, dtype=bool)))
    assert np.array_equal(values, h[rows, columns])


def test_assemble_validates_length():
    basis = enumerate_terms("h2", 2)
    with pytest.raises(ValueError):
        assemble(basis, np.ones(14))


def test_term_amplitudes():
    basis = enumerate_terms("h2", 3)
    rng = np.random.default_rng(23)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps = term_amplitudes(basis, psi)
    assert amps.shape == (8, basis.n_params)
    for n in (0, 7, 26):
        assert np.allclose(amps[:, n], string_matrix(basis.terms[n]) @ psi, atol=1e-14)
    with pytest.raises(ValueError):
        term_amplitudes(basis, np.ones(4))
