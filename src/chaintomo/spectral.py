"""Hermitian spectra and rank-q steady-state construction.

A steady state of a Hamiltonian is any density matrix that commutes with
it. Here we use non-degenerate mixtures of q energy eigenstates:

    rho = sum_mu p_mu |psi_mu><psi_mu|,   p_mu > 0, pairwise distinct.

The recovery routes downstream need the probabilities distinct and the
selected eigenvalues well separated, so construction rejects degenerate
picks instead of silently proceeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SELECTION_POLICIES = ("lowest", "random")

# relative eigenvalue gap below which a selected pair counts as degenerate
DEGENERACY_RTOL = 1e-10

# minimum pairwise distance between mixture probabilities
MIN_PROB_GAP = 1e-3

# times a shift that leaves H - sigma*I exactly singular moves by one
# rounding unit of the spectrum's scale before the solve gives up
MAX_SHIFT_NUDGES = 4

# dimension from which a ``lowest`` pick takes its states from a Lanczos
# run instead of the whole spectrum: at q = 3 the dense path is faster at
# L = 7 and the Lanczos run from L = 8
KRYLOV_MIN_DIM = 256

# Lanczos steps between two convergence checks
KRYLOV_CHECK_STEPS = 10

# rows per strip of the Hermiticity check in ``eig_hermitian``, and columns
# per strip of the certificate's factorization (``_certificate_factor``)
HERMITIAN_CHECK_ROWS = 128

# share of its rows up to which a matrix's flips may number for ``eig_hermitian`` to keep
# its flip form for the Lanczos products: h2 from L = 8, the other families from L = 9
NONZERO_SHARE = 1 / 16


class DegenerateSpectrumError(RuntimeError):
    """Selected eigenstates are too close in energy, or their drawn
    probabilities too close to each other, to mix reliably."""


@dataclass(frozen=True)
class FlipOperator:
    """A matrix of 2**L rows as sum_k D_k P_k: P_k sends column i ^ flips[k]
    to row i and D_k is diagonal, so that H[i, i ^ flips[k]] = diags[k][i],
    with ``flips`` ascending from 0. A Pauli string is one signed such P, so
    a sum of them holds one row vector per flip."""

    flips: np.ndarray
    diags: np.ndarray
    shape = property(lambda self: (self.diags.shape[1],) * 2)
    dtype = property(lambda self: self.diags.dtype)

    @cached_property
    def sources(self) -> np.ndarray:  # i ^ flips[k], shape (F, 2**L)
        return np.arange(self.shape[0]) ^ self.flips[:, None]

    def dense(self) -> np.ndarray:
        h = np.zeros(self.shape, dtype=self.dtype)
        h[np.arange(self.shape[0]), self.sources] = self.diags
        return h

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2:  # column by column: one (F, 2**L) temporary at a time
            return np.stack([self @ col for col in x.T], axis=1)
        terms = np.take(x, self.sources).astype(np.result_type(x, self.dtype), copy=False)
        terms *= self.diags
        return terms.sum(axis=0)  # in flip order


@dataclass(frozen=True)
class EigDecomposition:
    """A Hermitian matrix and, on first access, its whole spectrum.

    ``matrix`` is the decomposed matrix itself, ``dense`` where it was
    given so, else formed from ``flip_form`` on first read. ``eigenvalues``
    (ascending) calls ``np.linalg.eigvalsh`` the first time it is read, so
    a ``lowest`` pick that takes its states from a Lanczos run reads
    neither. No eigenvectors are held: ``build_steady_state`` computes
    them only for the states it mixes.
    """

    dense: np.ndarray | None = None
    flip_form: FlipOperator | None = None  # where its flips number at most NONZERO_SHARE of the rows

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.flip_form.dense() if self.dense is None else self.dense

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @property
    def dim(self) -> int:
        return (self.flip_form or self.matrix).shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


def eig_hermitian(h: np.ndarray | FlipOperator) -> EigDecomposition:
    """Check a Hermitian matrix, dense or in flip form, and wrap it for
    ``build_steady_state``; its eigenvalues are computed on first access.

    A dense matrix is wrapped as it is unless read-only or not of double
    precision, as ``build_steady_state`` shifts its diagonal and restores
    it bit for bit. Of 2**L rows it gets its flip form, read off the XORs of
    its nonzeros' rows and columns, where that is within NONZERO_SHARE:
    byte for byte ``models.flip_form``'s, with the same products. A flip
    form is checked flip by flip, each entry against its mirror, which
    checks the whole matrix, as each nonzero lies in one flip with its
    mirror; any other matrix is checked row strip against column strip. A
    flip form given with more flips is formed dense at once. Raises
    ValueError when the input is not square or fails ``_check_hermitian``.
    """
    if isinstance(h, FlipOperator):
        h, form = None, h
    else:
        h = np.asarray(h)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
            raise ValueError(f"expected a non-empty square matrix, got shape {h.shape}")
        dtype = np.result_type(h.dtype, float)
        if h.dtype != dtype or not h.flags.writeable:
            h = h.astype(dtype)
        dim, strips = h.shape[0], range(0, h.shape[0], HERMITIAN_CHECK_ROWS)
        counts = np.zeros(dim, dtype=np.intp)  # rows per flip, of 2**L rows only, until they are too many
        for i in strips:
            if dim & (dim - 1) == 0 and np.count_nonzero(counts) <= NONZERO_SHARE * dim:
                rows, cols = np.divmod(np.flatnonzero(h[i : i + HERMITIAN_CHECK_ROWS] != 0), dim)
                counts += np.bincount((rows + i) ^ cols, minlength=dim)
        counts[0] = 1  # the diagonal, zero or not
        flips = np.flatnonzero(counts)
        if dim & (dim - 1) or flips.size > NONZERO_SHARE * dim:
            _check_hermitian((h[i : i + HERMITIAN_CHECK_ROWS], h[:, i : i + HERMITIAN_CHECK_ROWS].T) for i in strips)
            return EigDecomposition(h)
        form = FlipOperator(flips, h[np.arange(dim), np.arange(dim) ^ flips[:, None]])
    _check_hermitian([(form.diags, np.take_along_axis(form.diags, form.sources, axis=1))])
    if form.flips.size > NONZERO_SHARE * form.shape[0]:
        return EigDecomposition(form.dense())
    return EigDecomposition(h, form)


def _check_hermitian(pairs) -> None:
    """Raise ValueError unless every entry in the (entries, mirror entries)
    ``pairs`` is finite and within 1e-12 * max(1, max |entry|) of its
    mirror's conjugate."""
    asym = scale = 0.0
    for vals, mirrors in pairs:
        peak = float(np.max(np.abs(vals), initial=0.0))  # np.max keeps a NaN, Python's max drops it
        if not np.isfinite(peak):
            raise ValueError("matrix has a non-finite entry")
        scale = max(scale, peak)
        asym = max(asym, float(np.max(np.abs(vals - mirrors.conj()), initial=0.0)))
    if asym > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not Hermitian within tolerance")


@dataclass(frozen=True)
class SteadyState:
    """Mixture of q eigenstates with distinct probabilities.

    ``states`` holds the selected eigenvectors as columns in ascending
    energy order; ``energies`` are the matching eigenvalues.
    """

    q: int
    states: np.ndarray
    probs: np.ndarray
    energies: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def rho(self) -> np.ndarray:
        """Dense density matrix of the mixture, formed on each access."""
        return (self.states * self.probs) @ self.states.conj().T


def _start_vector(dim: int) -> np.ndarray:
    """Fixed start of inverse iteration and Lanczos runs, so that no
    trial's random stream is consumed."""
    return np.random.default_rng(0).standard_normal(dim)


def _rayleigh_ritz(h: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values, ascending, and orthonormal Ritz vectors of ``h`` on the
    span of the columns of ``cols``."""
    basis = np.linalg.qr(cols)[0]
    vals, vecs = np.linalg.eigh(basis.conj().T @ (h @ basis))
    return vals, basis @ vecs


def _picked_eigenvectors(h: np.ndarray, vals: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of ``h`` for the eigenvalues ``vals[idx]``, as columns.

    Inverse iteration (Ipsen, SIAM Review 39, 1997): per eigenvalue, one
    solve shifted to it from a fixed start vector, then one shifted to the
    Rayleigh quotient of the result; a single solve leaves residuals ten to
    a hundred times those of a full ``eigh``. A Rayleigh-Ritz step on the
    span of the q vectors keeps them orthonormal where picked eigenvalues
    lie close. ``vals`` must hold the whole spectrum of ``h``, ascending;
    its ends set the shift nudge.

    Each solve shifts the diagonal of ``h`` itself, which must be writable,
    and restores it bit for bit before returning or raising.
    """
    dim = h.shape[0]
    diag = h.diagonal().copy()
    nudge = np.finfo(float).eps * (max(abs(vals[0]), abs(vals[-1])) or 1.0)

    def solve(sigma: float, v: np.ndarray) -> np.ndarray:
        # (H - sigma*I)^T y = conj(v) through the Fortran-ordered view, which
        # LAPACK takes without a strided copy; x = conj(y) solves
        # (H - sigma*I)^H x = v, the same system for a Hermitian H
        try:
            for _ in range(MAX_SHIFT_NUDGES + 1):
                h.flat[:: dim + 1] = diag - sigma
                try:
                    x = np.linalg.solve(h.T, v.conj()).conj()
                except np.linalg.LinAlgError:
                    sigma += nudge
                    continue
                return x / np.linalg.norm(x)
        finally:
            h.flat[:: dim + 1] = diag
        raise np.linalg.LinAlgError(
            f"shifted matrix exactly singular after {MAX_SHIFT_NUDGES} nudges (shift {sigma:.17g})"
        )

    start = _start_vector(dim)
    cols = []
    for k in idx:
        v = solve(vals[k], start)
        cols.append(solve(np.vdot(v, h @ v).real, v))
    return _rayleigh_ritz(h, np.stack(cols, axis=1))[1]


def _lanczos(h: np.ndarray, q: int, max_steps: int) -> tuple[np.ndarray, float] | None:
    """Ritz vectors of the q lowest eigenvalues of ``h`` from a Lanczos run.

    Lanczos (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998) with full
    reorthogonalization, two classical Gram-Schmidt passes per step, from
    the fixed start vector. Every KRYLOV_CHECK_STEPS steps the q lowest
    Ritz pairs count as converged once each residual bound |beta_m s_mk|
    is at most eps times the largest |Ritz value|; the q eigenvectors of
    the tridiagonal T then come from the inverse iteration of the dense
    path. Returns the q Ritz vectors as columns and the spread of the Ritz
    values, which approaches the spectral range from below; None when the
    pairs have not converged after ``max_steps`` steps.
    """
    dim = h.shape[0]
    eps = np.finfo(float).eps
    v = _start_vector(dim)
    # the basis grows as it fills, one row per Lanczos vector
    basis = np.empty((min(2 * KRYLOV_CHECK_STEPS, dim), dim), dtype=h.dtype)
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    for m in range(1, max_steps + 1):
        w = h @ basis[m - 1]
        alpha.append(np.vdot(basis[m - 1], w).real)
        for _ in range(2):
            w -= (basis[:m] @ w.conj()).conj() @ basis[:m]
        b = float(np.linalg.norm(w))
        if m % KRYLOV_CHECK_STEPS == 0 or m == max_steps or b == 0.0:
            t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, s = np.linalg.eigh(t)
            if m >= q and np.all(np.abs(b * s[-1, :q]) <= eps * np.abs(theta).max()):
                # eigh's vectors of T carry its backward error, which is as
                # large as a full eigh's of H; inverse iteration on T is not
                return basis[:m].T @ _picked_eigenvectors(t, theta, np.arange(q)), float(theta[-1] - theta[0])
            if b == 0.0 or m == max_steps:
                return None
        if m == basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis)])[:dim]
        beta.append(b)
        basis[m] = w / b


def _certificate_factor(h: np.ndarray | FlipOperator, x: np.ndarray, c: float, s: float) -> list[tuple]:
    """Cholesky factor of W = h + c XX^H - sI in packed strips, with X = ``x``.

    Left-looking in strips of HERMITIAN_CHECK_ROWS columns. The diagonal
    block and the panel below it of strip j:e are formed from ``h``, ``x``
    and ``s`` when the strip is reached, and updated with the panels of the
    strips before it; the block is factored by ``np.linalg.cholesky`` and
    the panel solved against it by LU. Each strip keeps only the lower
    trapezoid of the factor: its diagonal block's lower triangle, packed by
    rows, and its panel. So neither a dense W nor a dense XX^H is formed,
    and only the lower triangle of a dense ``h`` is read. Returns
    ``(triangle, panel)`` per strip; raises LinAlgError, as
    ``np.linalg.cholesky`` does, unless W is positive definite.
    """
    dim = h.shape[0]
    y = c * x.conj().T
    strips: list[tuple[np.ndarray, np.ndarray]] = []
    for j in range(0, dim, HERMITIAN_CHECK_ROWS):
        e = min(j + HERMITIAN_CHECK_ROWS, dim)
        block = x[j:e] @ y[:, j:e]
        panel = x[e:] @ y[:, j:e]
        if isinstance(h, np.ndarray):
            block += h[j:e, j:e]
            panel += h[e:, j:e]
        else:  # each flip's entries of rows j:e: in the block, or conjugated in the panel
            col, val = h.sources[:, j:e], h.diags[:, j:e]
            r = np.broadcast_to(np.arange(e - j), col.shape)
            inside, below = (col >= j) & (col < e), col >= e
            block[r[inside], col[inside] - j] += val[inside]
            panel[col[below] - e, r[below]] += val[below].conj()
        block.flat[:: e - j + 1] -= s
        # the panel of the strip ending at column k holds rows k: of the factor
        for k, (_, done) in zip(range(HERMITIAN_CHECK_ROWS, j + 1, HERMITIAN_CHECK_ROWS), strips):
            lead = done[j - k : e - k]
            block -= lead @ lead.conj().T
            panel -= done[e - k :] @ lead.conj().T
        block = np.linalg.cholesky(block)
        panel = np.linalg.solve(block.conj(), panel.T).T  # P B^H = X: conj(B) P^T = X^T
        strips.append((block[np.tri(e - j, dtype=bool)], panel))
    return strips


def _krylov_lowest(eig: EigDecomposition, q: int) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The q lowest eigenpairs of H = ``eig.matrix`` and its spectral range, or None.

    The pairs come from a Lanczos run and a q x q Rayleigh-Ritz step, both
    multiplying through ``eig.flip_form`` where it is kept, and are returned
    only when a certificate shows that no eigenvalue was missed: with X the
    q Ritz vectors, theta_q the largest Ritz value and s = theta_q +
    DEGENERACY_RTOL * range, H + (2 range + 1) XX^H - s I is positive
    definite, that is Cholesky succeeds, only when H has no eigenvalue at
    or below s outside the span of X. It is factored in dense packed
    strips, each formed from H (or its flip form), X and s when it is
    reached (``_certificate_factor``): the certificate holds about half a
    dense matrix, and H is only read. Returns ``(energies, states,
    spread)``; None when the run does not converge or the certificate fails.
    """
    op = eig.flip_form or eig.matrix
    run = _lanczos(op, q, eig.dim)
    if run is None:
        return None
    ritz, spread = run
    energies, states = _rayleigh_ritz(op, ritz)
    try:
        _certificate_factor(op, states, 2 * spread + 1, energies[-1] + DEGENERACY_RTOL * spread)
    except np.linalg.LinAlgError:
        return None
    return energies, states, spread


def _draw_probs(q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform simplex draw, rejecting vectors with near-tied entries.

    Raises DegenerateSpectrumError after 1000 rejections, as nearly always
    from q = 23 and always once q(q - 1)/2 * MIN_PROB_GAP > 1 (q >= 46),
    which ``harness.ExperimentConfig.validate`` rejects up front."""
    if q == 1:
        return np.ones(1)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(q))
        if np.diff(np.sort(p)).min() >= MIN_PROB_GAP:
            return p
    raise DegenerateSpectrumError(f"could not draw {q} well-separated probabilities")


def build_steady_state(eig: EigDecomposition, q: int, selection: str = "lowest", rng_seed=0) -> SteadyState:
    """Mix q eigenstates of a decomposed Hamiltonian into a steady state.

    ``selection`` picks which eigenstates enter the mixture: ``lowest``
    takes the q smallest eigenvalues, ``random`` takes q distinct uniform
    picks. Probabilities are drawn uniformly from the simplex with a
    minimum pairwise gap of 1e-3. From dimension KRYLOV_MIN_DIM on, a
    ``lowest`` pick takes its pairs and the spectral range from a certified
    Lanczos run (``_krylov_lowest``). Otherwise, and whenever that run
    fails to converge or to certify, every decision is made on the whole
    spectrum and eigenvectors are computed for the picked states only, by
    solves that shift the diagonal of ``eig.matrix`` in place and restore
    it bit for bit, also when they raise.

    Raises DegenerateSpectrumError when any two selected eigenvalues are
    closer than 1e-10 times the spectral range, or when no well-separated
    probabilities are drawn; callers resample the Hamiltonian in that case.
    """
    dim = eig.dim
    if not 1 <= q <= dim:
        raise ValueError(f"q={q} out of range for dimension {dim}")
    if selection not in SELECTION_POLICIES:
        raise ValueError(f"unknown selection policy {selection!r}; expected one of {SELECTION_POLICIES}")
    rng = np.random.default_rng(rng_seed)
    krylov = _krylov_lowest(eig, q) if selection == "lowest" and dim >= KRYLOV_MIN_DIM else None
    if krylov is None:
        idx = np.arange(q) if selection == "lowest" else np.sort(rng.choice(dim, size=q, replace=False))
        energies, spread = eig.eigenvalues[idx], eig.spectral_range
    else:
        energies, states, spread = krylov
    if q > 1:
        gap = float(np.diff(energies).min())
        if gap < DEGENERACY_RTOL * max(spread, np.finfo(float).tiny):
            raise DegenerateSpectrumError(f"selected eigenvalues nearly degenerate (gap {gap:.3e})")
    probs = _draw_probs(q, rng)
    if krylov is None:
        states = _picked_eigenvectors(eig.matrix, eig.eigenvalues, idx)
    return SteadyState(q=q, states=states, probs=probs, energies=energies)
