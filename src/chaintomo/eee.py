"""Joint recovery from energy eigenvalue equations (EEE).

Each eigenstate |psi_mu> of the Hamiltonian satisfies H|psi_mu> =
E_mu|psi_mu>. Written out componentwise in the computational basis this
is linear in the stacked unknowns x = (a_1..a_N, E_1..E_q):

    sum_n a_n <i|h_n|psi_mu> - E_mu <i|psi_mu> = 0   for all i, mu.

Splitting real and imaginary parts gives a real constraint matrix with
q * 2**(L+1) rows and N + q columns. Recovery is again a nullspace
problem, solved by ``hoe.nullspace`` with the coefficient block rescaled
to unit norm; the eigenvalues come out scaled by the same factor as the
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hoe import DEFAULT_RANK_TOL, DegenerateRecoveryError, RecoveryReport, constraint_matrices, nullspace_report
from .models import TermBasis
from .spectral import SteadyState

# DegenerateRecoveryError is raised in the shared recovery body and stays
# importable from here, the one route that can raise it


@dataclass(frozen=True)
class MethodComparison:
    """Consistency record between the two recovery routes on one trial.

    The rank of the joint matrix should exceed the commutator one by
    exactly q, and the ambiguity gaps should coincide. Angle and aligned
    distance between the recovered vectors are filled when both routes
    were unambiguous.
    """

    rank_relation_ok: bool
    gap_relation_ok: bool
    angle: float | None
    aligned_distance: float | None


def constraint_matrix(basis: TermBasis, state: SteadyState) -> np.ndarray:
    """Real block matrix of the componentwise eigenvalue equations.

    Row layout is fixed: for each mixed state in ascending energy order,
    first the real parts of its 2**L equations, then the imaginary parts.
    The last q columns carry -psi_mu in column mu, pairing eigenvalue mu
    with its state. Built by ``hoe.constraint_matrices``, in Fortran order.
    """
    return constraint_matrices(basis, state, ("eee",))[1]


def recover(qmat: np.ndarray, n_params: int, tol_rel: float = DEFAULT_RANK_TOL) -> RecoveryReport:
    """Split the canonical null vector of Q into coefficients and energies.

    The null vector (see ``hoe.nullspace``) is rescaled so its leading
    ``n_params`` block has unit norm; the trailing block then holds the
    eigenvalues under the same scale. Raises DegenerateRecoveryError when
    Q has full column rank, or when that block vanishes, which only happens
    for degenerate instances where no unit-coefficient solution exists in
    the ambiguous subspace.
    """
    # any other shape is rejected by the shared body
    if np.ndim(qmat) == 2 and not 0 < n_params < np.shape(qmat)[1]:
        raise ValueError(f"n_params={n_params} incompatible with {np.shape(qmat)[1]} columns")
    return nullspace_report(qmat, tol_rel, n_params)


def compare_methods(hoe_report: RecoveryReport, joint: RecoveryReport, q: int) -> MethodComparison:
    """Check the cross-route identities rank' = rank + q and gap' = gap.

    Both identities hold wherever the square commutator matrix captures
    the full constraint rank; at cells where antisymmetry floors it to an
    even value (ranks.predict_ranks) the joint rank sits at rank + q + 1
    and both flags come back False by design.

    When both routes are unambiguous the recovered coefficient vectors are
    also compared: sign-aligned distance and subtended angle.
    """
    rank_ok = joint.rank == hoe_report.rank + q
    gap_ok = joint.gap == hoe_report.gap
    angle = None
    dist = None
    if hoe_report.unique and joint.unique:
        dot = float(np.dot(hoe_report.coefficients, joint.coefficients))
        sign = 1.0 if dot >= 0 else -1.0
        dist = float(np.linalg.norm(hoe_report.coefficients - sign * joint.coefficients))
        angle = float(np.arccos(min(1.0, abs(dot))))
    return MethodComparison(
        rank_relation_ok=rank_ok,
        gap_relation_ok=gap_ok,
        angle=angle,
        aligned_distance=dist,
    )
