"""Dense multi-qubit Pauli-string operators.

Operators are plain complex numpy arrays. A chain of L spin-1/2 sites lives
in a 2**L dimensional Hilbert space. Site 1 is the most significant tensor
factor, so basis state k encodes the spin configuration as the L-bit binary
expansion of k with site 1 first (bit 0 = spin up).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

PAULI_SYMBOLS = "IXYZ"

# i**k for k = 0..3, exact in complex64
I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex64)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-site Pauli operators, e.g. ``PauliString("XIZ")``.

    ``ops`` holds one symbol per site, site 1 first.
    """

    ops: str

    def __post_init__(self):
        if not self.ops:
            raise ValueError("Pauli string must cover at least one site")
        bad = set(self.ops) - set(PAULI_SYMBOLS)
        if bad:
            raise ValueError(f"unknown Pauli symbols {sorted(bad)!r} in {self.ops!r}")

    @property
    def length(self) -> int:
        return len(self.ops)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return sum(1 for c in self.ops if c != "I")

    def __str__(self) -> str:
        return self.ops


def string_matrix(s: PauliString | str) -> np.ndarray:
    """Dense matrix of a Pauli string via the Kronecker product over sites.

    Site 1 is the most significant factor, so ``string_matrix("XI")`` is
    kron(X, I). The result is Hermitian, unitary and squares to the identity.
    """
    ops = s.ops if isinstance(s, PauliString) else PauliString(s).ops
    return reduce(np.kron, (PAULI_MATRICES[c] for c in ops))


def string_masks(strings: Sequence[PauliString | str], L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit masks of M Pauli strings on L sites: ``(flip, sign, n_y)``, one entry each.

    A Pauli string maps basis state |j> to i**n_y (-1)**popcount(j & sign) |j ^ flip>,
    where flip marks its X and Y sites, sign its Y and Z sites and n_y counts its
    Y sites; site 1 owns the most significant bit. The masks are int32.
    """
    ops = [s.ops if isinstance(s, PauliString) else PauliString(s).ops for s in strings]
    if any(len(o) != L for o in ops):
        raise ValueError(f"every Pauli string must cover {L} sites")
    chars = np.frombuffer("".join(ops).encode(), dtype=np.uint8).reshape(len(ops), L)
    x, y, z = (chars == ord(c) for c in "XYZ")
    bits = 1 << np.arange(L - 1, -1, -1, dtype=np.int32)
    return (x | y) @ bits, (y | z) @ bits, y.sum(axis=1)


def row_action(masks: tuple[np.ndarray, np.ndarray, np.ndarray], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation form of M Pauli strings on some rows of the basis.

    ``masks`` are the strings' ``string_masks`` and ``rows`` a vector of R
    basis indices. Returns ``(src, phase)``, both of shape (R, M), such that
    ``(K_m @ psi)[rows[r]] = phase[r, m] * psi[src[r, m]]``: src = row ^ flip
    and phase = i**n_y (-1)**popcount(src & sign). ``src`` takes the integer
    type of ``rows`` and ``phase`` is complex64, which holds the phases +-1
    and +-i exactly, so every row range gets the same bits as the whole table.
    """
    flip, sign, n_y = masks
    src = rows[:, None] ^ flip
    odd = np.bitwise_count(src & sign) & 1
    i_pow = I_POWERS[n_y % 4]
    # signs multiplied in rather than negated, so that no zero part turns into -0.0
    return src, np.where(odd, i_pow * -1.0, i_pow * 1.0)


def product_table(masks: tuple[np.ndarray, np.ndarray, np.ndarray], L: int) -> tuple[np.ndarray, ...]:
    """The anticommuting pairs m < n of M Pauli strings on L sites, and the string each product is.

    With K_m = i**n_y X^flip Z^sign (``masks``, see ``string_masks``), K_m K_n =
    i**k (-1)**|f & z| X^f Z^z, with f = flip_m ^ flip_n, z = sign_m ^ sign_n and
    k = n_y,m + n_y,n + 2 (|flip_m & sign_m| + |f & sign_n|) mod 4, so that in a pure state
    <K_m K_n> = i**k sum_i (-1)**|i & z| <i|X^f|psi><psi|i>. Returns ``(flips, pair, at,
    power)``: the distinct f ascending and, per pair in row-major order, pair = m M + n,
    at = (f's index in flips) 2**L + z and power = k; int32, but k int8.
    """
    flip, sign, n_y = masks
    odd = (np.bitwise_count(flip[:, None] & sign) ^ np.bitwise_count(sign[:, None] & flip)) & 1
    m, n = np.nonzero(np.triu(odd, 1))
    f = flip[m] ^ flip[n]
    present = np.bincount(f, minlength=1 << L) > 0  # the distinct f with no sort, whose code pages raised peak RSS
    at = ((np.cumsum(present) - 1)[f] << L | (sign[m] ^ sign[n])).astype(np.int32)
    power = (n_y[m] + n_y[n] + 2 * (np.bitwise_count(flip[m] & sign[m]) + np.bitwise_count(f & sign[n]))) % 4
    return np.flatnonzero(present).astype(np.int32), (m * len(flip) + n).astype(np.int32), at, power.astype(np.int8)


def action_table(strings: Sequence[PauliString | str], L: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation form of M Pauli strings on L sites, one column each.

    ``row_action`` on every row: ``(src, phase)``, both of shape (2**L, M),
    such that ``(K_m @ psi)[i] = phase[i, m] * psi[src[i, m]]``. ``src`` is
    int32 and ``phase`` complex64.
    """
    return row_action(string_masks(strings, L), np.arange(1 << L, dtype=np.int32))


def apply_string(s: PauliString | str, psi: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to a state vector (or a stack of column vectors).

    Costs O(2**L) instead of building the dense matrix; equivalent to
    ``string_matrix(s) @ psi``.
    """
    s = s if isinstance(s, PauliString) else PauliString(s)
    src, phase = action_table([s], s.length)
    if psi.shape[0] != src.shape[0]:
        raise ValueError(f"state dimension {psi.shape[0]} != operator dimension {src.shape[0]}")
    return phase[:, 0] * psi[src[:, 0]] if psi.ndim == 1 else phase * psi[src[:, 0], :]


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ab - ba."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def expectation(obs: np.ndarray, rho: np.ndarray) -> complex:
    """Expectation value Tr(obs @ rho) of an observable in state rho.

    rho must be a unit-trace density matrix of the same dimension. For a
    Hermitian observable the imaginary part is numerical residue (below
    1e-12) and callers that know the observable is Hermitian take ``.real``.
    """
    if obs.shape != rho.shape or obs.ndim != 2:
        raise ValueError(f"incompatible shapes {obs.shape} and {rho.shape}")
    # Tr(A B) without forming the product matrix.
    return complex(np.sum(obs.T * rho))
