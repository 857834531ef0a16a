"""Pauli-string operators: matrices, bit-level action, small helpers."""

import numpy as np
import pytest

from chaintomo.pauli import (
    PauliString,
    action_table,
    apply_string,
    commutator,
    expectation,
    is_hermitian,
    pauli_matrix,
    string_matrix,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_single_site_matrices():
    assert np.array_equal(pauli_matrix("I"), I2)
    assert np.array_equal(pauli_matrix("X"), X)
    assert np.array_equal(pauli_matrix("Y"), Y)
    assert np.array_equal(pauli_matrix("Z"), Z)
    with pytest.raises(ValueError):
        pauli_matrix("Q")


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
            assert is_hermitian(m)
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


def test_is_hermitian():
    assert is_hermitian(Y)
    assert not is_hermitian(1j * Y + np.array([[0, 1], [0, 0]]))
