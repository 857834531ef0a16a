"""Pauli-string operators: matrices, bit-level action, small helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintomo.pauli import (
    PauliString,
    action_table,
    apply_string,
    commutator,
    expectation,
    product_table,
    row_action,
    string_masks,
    string_matrix,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_single_site_matrices():
    assert np.array_equal(string_matrix("I"), I2)
    assert np.array_equal(string_matrix("X"), X)
    assert np.array_equal(string_matrix("Y"), Y)
    assert np.array_equal(string_matrix("Z"), Z)
    with pytest.raises(ValueError):
        string_matrix("Q")


def test_string_validation():
    with pytest.raises(ValueError):
        PauliString("")
    with pytest.raises(ValueError):
        PauliString("XA")
    s = PauliString("XIZY")
    assert s.length == 4
    assert s.weight == 3
    assert str(s) == "XIZY"


def test_site_one_is_most_significant():
    assert np.array_equal(string_matrix("XI"), np.kron(X, I2))
    assert np.array_equal(string_matrix("IX"), np.kron(I2, X))
    assert not np.array_equal(string_matrix("XI"), string_matrix("IX"))
    assert np.array_equal(string_matrix("XZ"), np.kron(X, Z))


def test_string_matrix_involution_and_hermiticity():
    rng = np.random.default_rng(3)
    symbols = np.array(list("IXYZ"))
    for length in (1, 2, 3, 5):
        for _ in range(6):
            s = "".join(rng.choice(symbols, size=length))
            m = string_matrix(s)
            assert np.array_equal(m, m.conj().T)
            assert np.allclose(m @ m, np.eye(2**length), atol=1e-14)


def _random_strings(rng, length, count):
    return ["".join(rng.choice(list("IXYZ"), size=length)) for _ in range(count)]


def test_action_matches_matrix():
    # every column of a multi-string table applies its string exactly
    rng = np.random.default_rng(7)
    for length in (1, 2, 3, 4, 6):
        dim = 2**length
        strings = _random_strings(rng, length, 8)
        src, phase = action_table(strings, length)
        assert src.shape == phase.shape == (dim, len(strings))
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for m, s in enumerate(strings):
            assert np.array_equal(phase[:, m] * psi[src[:, m]], string_matrix(s) @ psi), s
            assert np.array_equal(apply_string(s, psi), string_matrix(s) @ psi), s


def test_product_table_names_each_anticommuting_product():
    # dense oracle: the table lists exactly the pairs m < n whose matrices
    # anticommute, each with K_m K_n = i**k (-1)**|f & z| X^f Z^z, where
    # X^f Z^z sends |j> to (-1)**|j & z| |j ^ f>; repeated strings commute
    rng = np.random.default_rng(17)
    for length in (1, 2, 3, 4):
        dim = 2**length
        strings = ["I" * length, "Y" * length] + _random_strings(rng, length, 14)
        strings += strings[2:4]
        mats = [string_matrix(s) for s in strings]
        flips, pair, at, power = product_table(string_masks(strings, length), length)
        assert flips.dtype == pair.dtype == at.dtype == np.int32 and power.dtype == np.int8
        assert np.all(np.diff(flips) > 0) and np.all(at // dim < len(flips))
        anti = {(m, n) for m in range(len(mats)) for n in range(m + 1, len(mats))
                if np.array_equal(mats[m] @ mats[n], -mats[n] @ mats[m])}
        assert {divmod(int(p), len(strings)) for p in pair} == anti and len(pair) == len(anti)
        j = np.arange(dim)
        for p, a, k in zip(pair, at, power):
            m, n = divmod(int(p), len(strings))
            f, z = int(flips[a // dim]), int(a % dim)
            xz = np.zeros((dim, dim), dtype=complex)
            xz[j ^ f, j] = (-1.0) ** np.bitwise_count(j & z)
            expected = 1j ** int(k) * (-1) ** (f & z).bit_count() * xz
            assert np.array_equal(mats[m] @ mats[n], expected), (strings[m], strings[n])


def test_row_ranges_carry_the_table_bits():
    # the joint route's row pass takes the table's rows layer by layer, with intp
    # or int32 indices: every range must give the table's own bits
    rng = np.random.default_rng(13)
    for length in (1, 3, 7):
        strings = ["I" * length, "Y" * length] + _random_strings(rng, length, 12)
        src, phase = action_table(strings, length)
        masks = string_masks(strings, length)
        for r, e in [(0, 2**length), (0, 1), (max(2**length - 3, 0), 2**length), (1, 2**length // 2 + 1)]:
            for dtype in (np.int32, np.intp):
                part_src, part_phase = row_action(masks, np.arange(r, e, dtype=dtype))
                assert part_src.dtype == dtype and part_phase.dtype == np.complex64
                assert np.array_equal(part_src, src[r:e])
                assert part_phase.tobytes() == phase[r:e].tobytes(), (length, r, e)


@st.composite
def _strings_and_seed(draw):
    length = draw(st.integers(1, 6))
    strings = draw(st.lists(st.text(alphabet="IXYZ", min_size=length, max_size=length), min_size=1, max_size=8))
    return length, strings, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_strings_and_seed())
def test_action_columns_equal_kron_oracle(case):
    # each column of the table applies its string exactly as the Kronecker product does
    length, strings, seed = case
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(2**length) + 1j * rng.standard_normal(2**length)
    src, phase = action_table(strings, length)
    for m, s in enumerate(strings):
        assert np.array_equal(phase[:, m] * psi[src[:, m]], string_matrix(s) @ psi), s


def test_action_reconstructs_matrix():
    # place each column's permutation and phases into a dense matrix
    rng = np.random.default_rng(9)
    for length in (1, 2, 3, 4, 5, 6):
        dim = 2**length
        strings = ["I" * length, "Y" * length] + _random_strings(rng, length, 6)
        src, phase = action_table([PauliString(s) for s in strings], length)
        for m, s in enumerate(strings):
            dense = np.zeros((dim, dim), dtype=complex)
            dense[np.arange(dim), src[:, m]] = phase[:, m]
            assert np.array_equal(dense, string_matrix(s)), s
    with pytest.raises(ValueError):
        action_table(["XX", "XYZ"], 2)


def test_apply_string_on_column_stack():
    rng = np.random.default_rng(11)
    block = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    out = apply_string("XYZ", block)
    assert np.allclose(out, string_matrix("XYZ") @ block, atol=1e-14)


def test_apply_string_dimension_check():
    with pytest.raises(ValueError):
        apply_string("XX", np.ones(3))


def test_commutator():
    assert np.allclose(commutator(string_matrix("X"), string_matrix("Y")), 2j * Z)
    assert np.all(commutator(Z, Z) == 0)
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_expectation():
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0  # spin-up pure state
    assert expectation(string_matrix("Z"), rho) == pytest.approx(1.0)
    assert expectation(string_matrix("X"), rho) == pytest.approx(0.0)
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    obs = a + a.conj().T
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = b @ b.conj().T
    rho /= np.trace(rho)
    assert expectation(obs, rho) == pytest.approx(np.trace(obs @ rho))
    with pytest.raises(ValueError):
        expectation(np.eye(2), np.eye(4))
