#!/usr/bin/env python3
"""Recover coefficients and eigenvalues together from componentwise equations.

If psi_mu is an eigenstate with energy E_mu, every component of
H psi_mu - E_mu psi_mu vanishes. Stacking the real and imaginary parts
of those equations for all q mixed states gives a rectangular matrix Q
acting on the joint unknown x = (coefficients, E_1 .. E_q), and Q x = 0
recovers both at once, up to one common scale. This route needs the
eigenvectors rather than just expectation values, and its rank sits
exactly q above the commutator route's constraint rank.
"""

import numpy as np

from chaintomo import eee, hoe
from chaintomo.models import assemble, enumerate_terms, sample_params
from chaintomo.spectral import build_steady_state, eig_hermitian


def main():
    L, q, seed = 5, 2, 3
    basis = enumerate_terms("h2", L)
    coeffs = sample_params(basis, seed)
    state = build_steady_state(eig_hermitian(assemble(basis, coeffs)), q, "lowest", seed + 1)

    qmat = eee.constraint_matrix(basis, state)
    n = basis.n_params
    print(f"h2 at L={L}, q={q}: Q is {qmat.shape[0]} x {qmat.shape[1]} "
          f"({n} coefficients + {q} eigenvalues)")

    joint = eee.recover(qmat, n)
    print(f"rank Q = {joint.rank}, gap = {joint.gap}, unique = {joint.unique}")
    err = hoe.reconstruction_error(coeffs, joint.coefficients)
    print(f"coefficient recovery error: {err:.2e}")

    # the recovered eigenvalues inherit the unknown overall scale of the
    # coefficient block; fix it against the truth once and compare
    scale = np.linalg.norm(coeffs)
    sign = np.sign(np.dot(coeffs / scale, joint.coefficients))
    recovered_e = sign * scale * joint.eigenvalues
    print("recovered eigenvalues after rescaling vs truth:")
    for e_hat, e in zip(recovered_e, state.energies):
        print(f"  {e_hat:+.10f}  vs  {e:+.10f}  (|diff| = {abs(e_hat - e):.2e})")

    print()
    print("== cross-route agreement ==")
    report = hoe.recover(hoe.constraint_matrix(basis, state))
    cmp = eee.compare_methods(report, joint, q)
    print(f"rank' = rank + q: {cmp.rank_relation_ok} ({joint.rank} = {report.rank} + {q})")
    print(f"gap' = gap: {cmp.gap_relation_ok}")
    print(f"aligned distance between recovered vectors: {cmp.aligned_distance:.2e}")


if __name__ == "__main__":
    main()
