"""Joint recovery from energy eigenvalue equations (EEE).

Each eigenstate |psi_mu> of the Hamiltonian satisfies H|psi_mu> =
E_mu|psi_mu>. Written out componentwise in the computational basis this
is linear in the stacked unknowns x = (a_1..a_N, E_1..E_q):

    sum_n a_n <i|h_n|psi_mu> - E_mu <i|psi_mu> = 0   for all i, mu.

Splitting real and imaginary parts gives a real constraint matrix with
q * 2**(L+1) rows and N + q columns. Recovery is again a nullspace
problem, solved by ``hoe.recover`` with the coefficient block rescaled
to unit norm; the eigenvalues come out scaled by the same factor as the
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hoe
from .hoe import DEFAULT_RANK_TOL, DegenerateRecoveryError, RecoveryReport, constraint_matrices
from .models import TermBasis
from .spectral import SteadyState

# DegenerateRecoveryError is raised in hoe.recover, on either route at full
# column rank, and stays importable from here, where the vanishing
# coefficient block is the joint route's own case


@dataclass(frozen=True)
class MethodComparison:
    """Consistency record between the two recovery routes on one trial.

    The rank of the joint matrix should exceed the commutator one by
    exactly q, and the ambiguity gaps should coincide. The sign-aligned
    distance between the recovered unit vectors is filled when both routes
    were unambiguous.
    """

    rank_relation_ok: bool
    gap_relation_ok: bool
    aligned_distance: float | None


def constraint_matrix(basis: TermBasis, state: SteadyState) -> np.ndarray:
    """Real block matrix of the componentwise eigenvalue equations.

    Row layout is fixed: for each mixed state in ascending energy order,
    first the real parts of its 2**L equations, then the imaginary parts.
    The last q columns carry -psi_mu in column mu, pairing eigenvalue mu
    with its state. Built by ``hoe.constraint_matrices``, in Fortran order,
    and returned as it is where Q is under twice as tall as its sketch.
    Elsewhere its 2 (N + q)-row CountSketch SQ is returned in its place:
    Q's rank and nullspace with high probability, without forming Q, from
    row maps fixed by 2**L, the state's index, N + q and the row layer alone.
    """
    return constraint_matrices(basis, state, ("eee",))[1]


def recover(qmat: np.ndarray, n_params: int, tol_rel: float = DEFAULT_RANK_TOL) -> RecoveryReport:
    """Split the canonical null vector of Q into coefficients and energies.

    ``hoe.recover`` with the leading ``n_params`` columns as the coefficient
    block, after checking that both blocks are non-empty.
    """
    if np.ndim(qmat) == 2 and not 0 < n_params < np.shape(qmat)[1]:  # hoe.recover rejects other shapes
        raise ValueError(f"n_params={n_params} incompatible with {np.shape(qmat)[1]} columns")
    return hoe.recover(qmat, tol_rel, n_params)


def compare_methods(hoe_report: RecoveryReport, joint: RecoveryReport, q: int) -> MethodComparison:
    """Check the cross-route identities rank' = rank + q and gap' = gap.

    Both identities hold wherever the square commutator matrix captures
    the full constraint rank; at cells where antisymmetry floors it to an
    even value (ranks.predict_ranks) the joint rank sits at rank + q + 1
    and both flags come back False by design.

    When both routes are unambiguous the recovered coefficient vectors are
    also compared by their sign-aligned distance.
    """
    dist = None
    if hoe_report.unique and joint.unique:
        sign = 1.0 if np.dot(hoe_report.coefficients, joint.coefficients) >= 0 else -1.0
        dist = float(np.linalg.norm(hoe_report.coefficients - sign * joint.coefficients))
    return MethodComparison(
        rank_relation_ok=joint.rank == hoe_report.rank + q,
        gap_relation_ok=joint.gap == hoe_report.gap,
        aligned_distance=dist,
    )
