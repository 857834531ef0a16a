"""Closed-form rank predictions and critical chain lengths.

Mixing q eigenstates yields q * 2**(L+1) real eigenvalue equations, of
which q**2 are redundant by Hermiticity and a further q drop out of the
commutator route, so simple counting bounds the numeric ranks:

    bound = min{ q * 2**(L+1) - q**2 - q, N - 1 }

Two refinements make the counting bound exact against measurement:

* Parity. With the default observables (the model terms themselves) the
  commutator matrix satisfies G[m, n] = <i [h_m, h_n]> = -G[n, m], so G
  is real antisymmetric and its rank is even. The counting bound is even
  at almost every cell because the capacity q * (2**(L+1) - q - 1) is
  always even, but when N is even and the N - 1 cap binds, the measured
  rank is bound - 1. Supplying even one observable outside the term set
  restores the odd bound, so the drop is a property of the square matrix,
  not of the states.

* Basis degeneracy. At the single cell (h2prime, L=3, q=3) the complete
  two-local operator basis admits one extra operator, independent of the
  drawn coefficients, whose eigenvectors include the three chosen states.
  Both routes lose one rank, no enlarged observable set restores it, and
  recovery genuinely fails there; unique recovery for that family at
  q = 3 first succeeds at L = 4.

Writing base = bound - degeneracy, the measured ranks are

    rank  = base, floored to even        (commutator matrix, default observables)
    rank' = base + q                     (joint matrix)

Recovery is unique exactly when base = N - 1; the joint route achieves
it whenever the commutator route does, and also at parity-capped cells
where the square commutator matrix alone falls one rank short. The
critical chain length reported here is the counting threshold: the
smallest L where the capacity q * 2**(L+1) - q**2 - q reaches N(L) - 1.
The capacity grows exponentially in L while N grows linearly, so the
threshold always exists; the basis degeneracy above is the one known
cell where the counting threshold admits no recovery and the true onset
sits one length higher.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import min_length, param_count

# Verified rank deficits of the constraint system itself, keyed by
# (kind, L, q). These are independent of the sampled coefficients and of
# the observable set, and they shift both ranks down together.
BASIS_DEGENERACIES = {("h2prime", 3, 3): 1}


@dataclass(frozen=True)
class RankPrediction:
    """Predicted ranks and ambiguity gaps for one (kind, L, q) cell.

    gap counts the extra nullspace directions of the square commutator
    matrix beyond the one spanned by the true coefficients; gap_prime
    counts the same for the joint matrix. recoverable reports whether the
    joint route pins the coefficients uniquely, which at parity-capped
    cells is one length earlier than the square commutator route alone.
    """

    kind: str
    L: int
    q: int
    n_params: int
    r: int
    r_prime: int
    gap: int
    gap_prime: int
    recoverable: bool


def constraint_capacity(L: int, q: int) -> int:
    """Independent homogeneous constraints provided by q mixed eigenstates."""
    return q * 2 ** (L + 1) - q * q - q


def _check_cell(kind: str, L: int, q: int) -> None:
    if L < min_length(kind):
        raise ValueError(f"chain length {L} too short for model {kind!r}")
    if not 1 <= q <= 2**L:
        raise ValueError(f"q={q} out of range for chain length {L}")


def counting_bound(kind: str, L: int, q: int) -> int:
    """Plain counting estimate min(capacity, N - 1), before refinements."""
    _check_cell(kind, L, q)
    return min(constraint_capacity(L, q), param_count(kind, L) - 1)


def predict_ranks(kind: str, L: int, q: int) -> RankPrediction:
    """Closed-form numeric ranks of both constraint matrices."""
    _check_cell(kind, L, q)
    n = param_count(kind, L)
    base = counting_bound(kind, L, q) - BASIS_DEGENERACIES.get((kind, L, q), 0)
    r = base - (base % 2)
    r_prime = base + q
    return RankPrediction(
        kind=kind,
        L=L,
        q=q,
        n_params=n,
        r=r,
        r_prime=r_prime,
        gap=n - 1 - r,
        gap_prime=n + q - 1 - r_prime,
        recoverable=n - 1 - base == 0,
    )


def recovery_condition(kind: str, L: int, q: int) -> bool:
    """Whether the constraint capacity reaches N - 1 at this cell."""
    _check_cell(kind, L, q)
    return constraint_capacity(L, q) >= param_count(kind, L) - 1


def critical_length(kind: str, q: int) -> int:
    """Smallest valid chain length whose capacity reaches N - 1 for this q.

    The search starts at the first length that fits the family and holds
    q eigenstates (q <= 2**L). The capacity grows as 2**L while N grows
    linearly, so it always ends. This is the counting threshold; see the
    module docstring for the one known cell where recovery first succeeds
    one length later.
    """
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    L = max(min_length(kind), (q - 1).bit_length())
    while not recovery_condition(kind, L, q):
        L += 1
    return L


def critical_length_grid() -> dict[str, tuple[int, ...]]:
    """Table 5: critical lengths for q = 1..6, one row per model kind.

    The rows cover the on-site/nearest-neighbor family, its next-nearest
    extension, and the strictly three-body family.
    """
    return {kind: tuple(critical_length(kind, q) for q in range(1, 7)) for kind in ("h2", "h2prime", "h3")}
