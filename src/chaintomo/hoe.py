"""Recovery from homogeneous operator equations (HOE).

In a steady state rho every observable expectation is time invariant, so
for each observable K_m the coefficients a_n of the Hamiltonian satisfy

    sum_n a_n <i[K_m, h_n]>_rho = 0.

Collecting the expectations into a real matrix G turns recovery into
finding the nullspace of G: when that nullspace is one-dimensional the
coefficient vector is fixed up to overall scale and sign, and it is read
off as the right-singular vector of the smallest singular value (by
inverse iteration on the QR R factor of G, see ``nullspace``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .models import TermBasis
from .pauli import PauliString, row_action
from .spectral import SteadyState

DEFAULT_RANK_TOL = 1e-10

# basis rows per layer of the constraint pass: a layer's sources and phases
# are computed once, from the terms' masks, for every mixed state, so that
# neither a (2**L, N) array nor a state's whole block is formed
LAYER_ROWS = 128

# rows of R per diagonal block of the blocked triangular solves
SOLVE_BLOCK = 64

class DegenerateRecoveryError(RuntimeError):
    """No usable null vector: full column rank, or a vanishing coefficient block."""


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one nullspace recovery, on either route (see ``recover``).

    ``coefficients`` is the unit-norm recovered vector, ``rank`` the
    numeric rank of the constraint matrix, ``gap`` the dimension of the
    ambiguous subspace (number of unknowns minus rank minus one). When
    ``gap`` is positive ``unique`` is False and the recovered vector is the
    canonical element of the nullspace: the unit projection of the
    normalized all-ones vector onto it, which depends on the nullspace
    alone. ``eigenvalues`` holds the energies the joint route recovers
    alongside, scaled by the same factor as the coefficients; it is None on
    the commutator route. ``kept`` and ``dropped`` are log10(sigma_r / cut)
    and log10(cut / sigma_{r+1}) at the rank cut tol * sigma_0, ``dropped``
    None when sigma_{r+1} is exactly 0; their sum is the decades between
    the smallest kept and the largest dropped singular value.
    """

    coefficients: np.ndarray
    rank: int
    gap: int
    sigma_min: float
    unique: bool
    eigenvalues: np.ndarray | None = None
    kept: float | None = None
    dropped: float | None = None


def constraint_matrices(
    basis: TermBasis, state: SteadyState, methods: tuple[str, ...] = ("hoe", "eee")
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Both routes' constraint matrices ``(G, Q)`` from one pass over the basis rows.

    Each matrix is None unless its route ("hoe" or "eee", and no other) is
    in ``methods``. The pass walks the basis in layers of h = min(2**L,
    N + q, LAYER_ROWS) rows. A layer's sources and phases are taken once, for
    every mixed state, from the terms' ``TermBasis.masks`` by
    ``pauli.row_action`` (the rule of ``pauli.action_table``, whose (2**L, N)
    table is never formed), and each state's amplitudes A_mu = (h_n|psi_mu>)_n
    on the layer are gathered through them, Re A_mu over Im A_mu (see
    eee.constraint_matrix for the layout of Q). G is summed layer by layer,
    with X_mu = (Re A_mu)^T (Im A_mu) one real product per state and layer:

        G = -2 sum_mu p_mu (X_mu - X_mu^T),

    since <i[h_m, h_n]>_mu = -2 Im(A_mu^H A_mu)[m, n]: exactly antisymmetric,
    and bit-identical whichever routes run, as all walk the same layers.

    Where Q is at least twice as tall as its sketch (dim q >= 2 (N + q)),
    each layer is added, as it is gathered, into the CountSketch SQ returned
    in place of Q (arXiv:1207.6365): each row of [A_mu | -psi_mu] goes with
    a sign of +-1 to one of N + q buckets (``_layer_maps``), real parts over
    imaginary parts, the rows of one layer to distinct buckets. SQ x = 0
    wherever Q x = 0, and SQ keeps Q's rank with high probability
    (arXiv:2002.01387); a (basis, state) always gives the same SQ. Elsewhere
    each layer is written straight into the mu-th row block of Q; no state's
    whole block is held apart from Q.
    """
    if not methods or not set(methods) <= {"hoe", "eee"}:
        raise ValueError(f"methods must name one or both of 'hoe' and 'eee', got {methods!r}")
    if not isinstance(state, SteadyState):
        raise TypeError(f"expected a SteadyState, got {type(state).__name__}")
    if state.dim != basis.dim:
        raise ValueError(f"state dimension {state.dim} != basis dimension {basis.dim}")
    dim, n, q = basis.dim, basis.n_params, state.q
    width, with_g, with_q = n + q, "hoe" in methods, "eee" in methods
    h, sketch = min(dim, width, LAYER_ROWS), with_q and dim * q >= 2 * width
    psis = np.ascontiguousarray(state.states.T, dtype=complex)  # one contiguous row per state
    if with_q and not sketch:  # Q whole, its -psi_mu columns zero outside the mu-th block
        qmat, layer = np.empty((2 * dim * q, width), order="F"), None
        qmat[:, n:] = np.where(np.eye(q, dtype=bool)[:, None], -np.c_[psis.real, psis.imag].T, 0.0).reshape(-1, q)
    else:
        qmat, layer = (np.zeros((2 * width, width)) if sketch else None), np.empty((2 * h, n), order="F")
    for mu, psi in enumerate(psis if sketch else ()):  # the sketch's -psi_mu columns
        bucket, sign = _layer_maps(dim, mu, width)
        qmat[:, n + mu] = -np.concatenate([np.bincount(bucket, sign * z, width) for z in (psi.real, psi.imag)])
    buf = np.empty(max(2 * h * n, n * n if with_g else 0))  # a layer's complex gather, then its product
    chunk_buf = buf[: 2 * h * n].view(complex).reshape(h, n)
    acc, x = (np.zeros((n, n)), buf[: n * n].reshape(n, n)) if with_g else (None, None)
    for r in range(0, dim, h):
        e = min(r + h, dim)
        src, phase = row_action(basis.masks, np.arange(r, e))
        for mu, psi in enumerate(psis):
            chunk = np.take(psi, src, out=chunk_buf[: e - r], mode="clip")
            chunk *= phase
            # the layer's Re and Im rows: in the layer buffer, or in the mu-th block of a whole Q
            into, lo, im_lo = (layer, 0, h) if layer is not None else (qmat, 2 * dim * mu + r, 2 * dim * mu + dim + r)
            re, im = into[lo : lo + e - r, :n], into[im_lo : im_lo + e - r, :n]
            re[:], im[:] = chunk.real, chunk.imag
            if sketch:
                bucket, sign = _layer_maps(dim, mu, width)
                chunk *= sign[r:e, None]
                qmat[bucket[r:e], :n] += chunk.real
                qmat[bucket[r:e] + width, :n] += chunk.imag
            if with_g:  # p_mu X_mu of the layer
                acc += np.multiply(np.matmul(re.T, im, out=x), state.probs[mu], out=x)
        del src, phase  # before the next layer's are formed
    if not with_g:
        return None, qmat
    g = np.subtract(acc, acc.T, out=x)
    g *= -2.0
    return g, qmat


def constraint_matrix(
    basis: TermBasis,
    state: SteadyState,
    observables: list[PauliString | str] | None = None,
) -> np.ndarray:
    """Real matrix of commutator expectations <i[K_m, h_n]> in the state.

    Observables default to the model's own terms, giving a square matrix
    with one row per unknown coefficient, built by ``constraint_matrices``.
    That default matrix satisfies G[m, n] = -G[n, m] exactly, so its rank
    is even; when the constraint system carries an odd number of
    independent rows, the square matrix sits one below it, and any
    observable outside the term set restores the odd rank (see
    ranks.predict_ranks).

    Custom observables K_m run through the same pass, on the union basis
    of the observables followed by the terms: its G block of observable
    rows and term columns is -2 sum_mu p_mu Im(u_m^H w_n) with
    u = K_m|psi_mu> and w = h_n|psi_mu>, which is <i[K_m, h_n]>.
    """
    if observables is None:
        return constraint_matrices(basis, state, ("hoe",))[0]
    if len(observables) == 0:
        raise ValueError("observable list must not be empty")
    m = len(observables)
    union = replace(basis, terms=tuple(observables) + basis.terms)
    return constraint_matrices(union, state, ("hoe",))[0][:m, m:]


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


def _rank_and_sigma(r: np.ndarray, tol_rel: float, compute_uv: bool = False):
    """Rank and singular values of R, padded with zeros to one per column,
    and with ``compute_uv`` the full V^T as well."""
    if not 0 < tol_rel < 1:  # a cut at or above sigma_0 keeps nothing
        raise ValueError(f"tol_rel must lie strictly between 0 and 1, got {tol_rel}")
    if not np.isfinite(r).all():  # from a NaN or infinity in m, which the SVD hangs on or misreads
        raise ValueError("constraint matrix has a non-finite entry")
    out = np.linalg.svd(r, compute_uv=compute_uv)
    sigma = np.pad(out[1] if compute_uv else out, (0, r.shape[1] - r.shape[0]))
    rank = int(np.count_nonzero(sigma > tol_rel * sigma[0]))
    return (rank, sigma, out[2]) if compute_uv else (rank, sigma)


def _inverse_iteration(r: np.ndarray, sigma_0: float) -> np.ndarray:
    """One step of inverse iteration on R^T R from the all-ones vector, R square.

    Two blocked triangular solves, first with R^T and then with R, through
    np.linalg.solve on SOLVE_BLOCK-row diagonal blocks and one product per
    block for the part already solved. Diagonal entries below
    eps * sigma_0 are raised to it, so an exactly singular R still has a
    solution.
    """
    n = r.shape[1]
    floor = np.finfo(float).eps * sigma_0
    blocks = []
    for s in range(0, n, SOLVE_BLOCK):
        e = min(s + SOLVE_BLOCK, n)
        d = r[s:e, s:e].copy()
        diag = np.einsum("ii->i", d)
        diag[:] = np.where(np.abs(diag) < floor, np.copysign(floor, diag), diag)
        blocks.append((s, e, d))
    x = np.ones(n)
    for s, e, d in blocks:
        x[s:e] = np.linalg.solve(d.T, x[s:e] - r[:s, s:e].T @ x[:s])
    x /= np.linalg.norm(x)
    for s, e, d in reversed(blocks):
        x[s:e] = np.linalg.solve(d, x[s:e] - r[s:e, e:] @ x[e:])
    return x / np.linalg.norm(x)


def _canonical(null_rows: np.ndarray) -> np.ndarray:
    """Unit projection of the normalized all-ones vector onto the row span.

    ``null_rows`` holds an orthonormal basis of the nullspace, one row per
    vector, so the result depends only on the nullspace, not on the basis.
    Where the all-ones vector is orthogonal to the nullspace the projector's
    column with the largest diagonal entry stands in for it.
    """
    coords = null_rows.sum(axis=1)
    if not np.linalg.norm(coords) > null_rows.shape[1] * np.finfo(float).eps:
        coords = null_rows[:, np.argmax(np.einsum("ij,ij->j", null_rows, null_rows))]
    x = coords @ null_rows
    return x / np.linalg.norm(x)


def nullspace(m: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> tuple[int, np.ndarray, np.ndarray]:
    """Numeric rank, singular values and the canonical null vector of m.

    Everything is read off the QR R factor of m, which has m's singular
    values and right-singular vectors; no left factor is formed. The
    singular values, one per column (zeros for the rows a wide m lacks),
    count towards the rank when above tol_rel * sigma_0. The returned
    vector is the unit projection of the normalized all-ones vector onto
    the nullspace, so it depends on the nullspace alone: when that is
    one-dimensional, it is the null vector whose entries sum to a positive
    value.

    In exact arithmetic a square R has one zero diagonal entry per null
    direction. A square R with at most one diagonal entry at or below
    tol_rel times the largest one lets the singular values alone decide the
    rank, and rank = columns - 1 takes one step of inverse iteration on
    R^T R, accepted when ||R x|| <= 10 sigma_min + n eps sigma_0. Any other
    R (a wide one, or two or more small diagonal entries), any other rank,
    or a rejected step takes the full SVD of R, which gives the rank and
    the nullspace basis at once (the trailing rows of V^T). Raises
    DegenerateRecoveryError at full column rank, ValueError at a non-finite m.
    """
    r = np.linalg.qr(np.atleast_2d(m), mode="r")
    n = r.shape[1]
    diag = np.abs(np.diagonal(r))
    if r.shape[0] == n and np.count_nonzero(diag <= tol_rel * diag.max()) < 2:
        rank, sigma = _rank_and_sigma(r, tol_rel)
        if rank == n - 1 and rank > 0:
            x = _inverse_iteration(r, sigma[0])
            if np.linalg.norm(r @ x) <= 10 * sigma[-1] + n * np.finfo(float).eps * sigma[0]:
                return rank, sigma, _canonical(x[None, :])
    rank, sigma, vt = _rank_and_sigma(r, tol_rel, compute_uv=True)
    if rank == n:
        raise DegenerateRecoveryError(f"numeric rank {rank} equals the column count: no null vector")
    return rank, sigma, _canonical(vt[rank:])


def numeric_rank(m: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above tol_rel times the largest one; ValueError at a non-finite m."""
    return _rank_and_sigma(np.linalg.qr(np.atleast_2d(m), mode="r"), tol_rel)[0]


def recover(m: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL, n_params: int | None = None) -> RecoveryReport:
    """Recover unit-norm coefficients as a null vector of a constraint matrix.

    The one report builder of both routes. Solves m x = 0 (see
    ``nullspace``) and rescales the canonical null vector so its leading
    ``n_params`` entries (all of them when None, as for G) have unit norm;
    on the joint route the trailing entries are the eigenvalues under the
    same scale. The report carries the numeric rank and the resulting
    ambiguity gap; a positive gap means the solution is not unique, and the
    returned vector is then the nullspace's canonical element, not the true
    coefficients. Raises DegenerateRecoveryError when m has full column
    rank or that leading block vanishes.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.any(m):
        raise ValueError("constraint matrix is identically zero")
    rank, sigma, x = nullspace(m, tol_rel)
    norm_a = np.linalg.norm(x[:n_params])
    if norm_a < 1e-12:
        raise DegenerateRecoveryError("null vector has no coefficient component")
    n_cols, cut = m.shape[1], tol_rel * sigma[0]
    return RecoveryReport(
        coefficients=x[:n_params] / norm_a,
        rank=rank,
        gap=n_cols - (rank + 1),
        sigma_min=float(sigma[-1]),
        unique=rank == n_cols - 1,
        eigenvalues=None if n_params is None else x[n_params:] / norm_a,
        kept=float(np.log10(sigma[rank - 1] / cut)),
        dropped=float(np.log10(cut / sigma[rank])) if sigma[rank] > 0 else None,
    )


def reconstruction_error(a_true: np.ndarray, a_recovered: np.ndarray) -> float:
    """Distance between unit-normalized vectors, minimized over global sign.

    Recovery fixes coefficients only up to scale and sign, so both inputs
    are normalized and the tighter of the two sign choices is reported.
    A value below about 1e-6 marks a successful reconstruction; orthogonal
    vectors give sqrt(2).
    """
    a_true = np.asarray(a_true, dtype=float)
    a_recovered = np.asarray(a_recovered, dtype=float)
    if a_true.shape != a_recovered.shape or a_true.ndim != 1:
        raise ValueError(f"incompatible shapes {a_true.shape} and {a_recovered.shape}")
    nt = np.linalg.norm(a_true)
    nr = np.linalg.norm(a_recovered)
    if nt == 0 or nr == 0:
        raise ValueError("reconstruction error is undefined for zero vectors")
    t = a_true / nt
    r = a_recovered / nr
    return float(min(np.linalg.norm(t - r), np.linalg.norm(t + r)))
