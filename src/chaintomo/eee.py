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

import functools
from dataclasses import dataclass

import numpy as np

from . import hoe
from .hoe import DEFAULT_RANK_TOL, DegenerateRecoveryError, RecoveryReport
from .models import TermBasis
from .pauli import row_action
from .spectral import SteadyState

# DegenerateRecoveryError is raised in hoe.recover, on either route at full
# column rank, and stays importable from here, where the vanishing
# coefficient block is the joint route's own case

# basis rows per layer of the row pass: a layer's sources and phases serve every
# mixed state, and neither a (2**L, N) array nor a state's whole block is formed
LAYER_ROWS = 128


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
    with its state. Each layer of h = min(2**L, N + q, LAYER_ROWS) rows takes
    its sources and phases once for all states (``pauli.row_action``) and
    gathers each state's amplitudes A_mu = (h_n|psi_mu>)_n through them.
    Where dim q >= 2 (N + q), each layer is added into the CountSketch SQ
    returned in place of Q (arXiv:1207.6365): each row of [A_mu | -psi_mu]
    goes with a sign of +-1 to one of N + q buckets (``_layer_maps``), real
    over imaginary parts. SQ x = 0 wherever Q x = 0, and SQ keeps Q's rank
    with high probability (arXiv:2002.01387). Elsewhere Q is formed whole,
    in Fortran order, each layer written into its block.
    """
    hoe.check_state(basis, state)
    dim, n, q, width = basis.dim, basis.n_params, state.q, basis.n_params + state.q
    h, sketch = min(dim, width, LAYER_ROWS), dim * q >= 2 * width
    psis = np.ascontiguousarray(state.states.T, dtype=complex)  # one contiguous row per state
    if sketch:
        qmat = np.zeros((2 * width, width))
        for mu, psi in enumerate(psis):  # the sketch's -psi_mu columns
            bucket, sign = _layer_maps(dim, mu, width)
            qmat[:, n + mu] = -np.concatenate([np.bincount(bucket, sign * z, width) for z in (psi.real, psi.imag)])
    else:  # Q whole, its -psi_mu columns zero outside the mu-th block
        qmat = np.empty((2 * dim * q, width), order="F")
        qmat[:, n:] = np.where(np.eye(q, dtype=bool)[:, None], -np.c_[psis.real, psis.imag].T, 0.0).reshape(-1, q)
    chunk_buf = np.empty((h, n), dtype=complex)
    for r in range(0, dim, h):
        e = min(r + h, dim)
        src, phase = row_action(basis.masks, np.arange(r, e))
        for mu, psi in enumerate(psis):
            chunk = np.take(psi, src, out=chunk_buf[: e - r], mode="clip")
            chunk *= phase
            if sketch:
                bucket, sign = _layer_maps(dim, mu, width)
                chunk *= sign[r:e, None]
                qmat[bucket[r:e], :n] += chunk.real
                qmat[bucket[r:e] + width, :n] += chunk.imag
            else:
                lo = 2 * dim * mu + r
                qmat[lo : lo + e - r, :n], qmat[lo + dim : lo + dim + e - r, :n] = chunk.real, chunk.imag
        del src, phase  # before the next layer's are formed
    return qmat


@functools.cache
def _layer_maps(dim: int, mu: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """State mu's CountSketch into ``width`` buckets, read-only: each row's bucket and sign. The h rows of
    layer l (h as in the pass) take the leading buckets of a random permutation and random signs, both fixed
    by (dim, mu, width, l) alone, so no two rows of a layer share a bucket."""
    h = min(dim, width, LAYER_ROWS)
    bucket, sign = np.empty(dim, dtype=np.intp), np.empty(dim)
    for layer, r in enumerate(range(0, dim, h)):
        rng, e = np.random.default_rng((0, dim, mu, width, layer)), min(r + h, dim)
        bucket[r:e], sign[r:e] = rng.permutation(width)[: e - r], rng.choice((-1.0, 1.0), size=e - r)
    bucket.flags.writeable = sign.flags.writeable = False
    return bucket, sign


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
