"""Closed-form rank predictions against the golden grids."""

import pytest

from chaintomo.models import min_length, param_count
from chaintomo.ranks import (
    BASIS_DEGENERACIES,
    constraint_capacity,
    counting_bound,
    critical_length,
    critical_length_grid,
    predict_ranks,
    recovery_condition,
)
from reference_grids import (
    CRITICAL_LENGTHS,
    RANK_GRIDS,
    RANK_JOINT_GRIDS,
)


def test_capacity_small_values():
    assert constraint_capacity(2, 1) == 6
    assert constraint_capacity(3, 2) == 26
    assert constraint_capacity(5, 3) == 180


def test_worked_cells():
    p = predict_ranks("h2", 2, 1)
    assert (p.n_params, p.r, p.gap, p.recoverable) == (15, 6, 8, False)
    p = predict_ranks("h2", 3, 2)
    assert (p.r, p.gap, p.recoverable) == (26, 0, True)
    assert predict_ranks("h3table", 5, 3).r == 158
    assert predict_ranks("h2", 2, 3).r_prime == 15


@pytest.mark.parametrize("kind", sorted(RANK_GRIDS))
def test_rank_grids(kind):
    for (L, q), r in RANK_GRIDS[kind].items():
        p = predict_ranks(kind, L, q)
        assert p.r == r, (kind, L, q)
        assert p.gap == p.n_params - 1 - r
        assert p.recoverable == (p.gap == 0)


@pytest.mark.parametrize("kind", sorted(RANK_JOINT_GRIDS))
def test_joint_rank_grids(kind):
    for (L, q), r_prime in RANK_JOINT_GRIDS[kind].items():
        p = predict_ranks(kind, L, q)
        assert p.r_prime == r_prime, (kind, L, q)
        assert p.gap_prime == p.n_params + q - 1 - r_prime


def test_rank_relations_hold_everywhere():
    # the commutator matrix is antisymmetric, so its predicted rank is
    # always even; the joint rank sits exactly q above the shared base,
    # which the commutator side loses one of whenever the base is odd
    for kind in ("h2", "h2prime", "h3", "h3table"):
        for L in range(3, 12):
            for q in range(1, 7):
                p = predict_ranks(kind, L, q)
                base = p.r_prime - q
                assert p.r % 2 == 0
                assert p.r == base - base % 2
                assert p.gap - p.gap_prime == base % 2
                assert p.r <= p.n_params - 1
                assert p.r_prime <= p.n_params + q - 1


def test_deviations_from_counting_bound():
    # min(capacity, N - 1) is exact except for parity flooring (odd bound
    # forced down to even) and the one tabulated basis degeneracy; an odd
    # bound can only come from the N - 1 cap with N even, never from the
    # capacity, which is q * (2**(L+1) - q - 1) with both factors of
    # matching parity
    for kind in ("h2", "h2prime", "h3", "h3table"):
        for L in range(3, 10):
            for q in range(1, 7):
                bound = counting_bound(kind, L, q)
                base = bound - BASIS_DEGENERACIES.get((kind, L, q), 0)
                p = predict_ranks(kind, L, q)
                assert p.r == base - base % 2
                assert p.r_prime == base + q
                if bound % 2:
                    n = param_count(kind, L)
                    assert n % 2 == 0 and bound == n - 1
                if kind in ("h2", "h3table"):
                    # odd N throughout, so the counting bound is exact
                    assert p.r == bound and p.r_prime == bound + q


def test_parity_floor_cells():
    # cells where an even N caps the bound at an odd N - 1: the square
    # commutator matrix drops to N - 2 while the joint route is unharmed
    cells = {
        ("h2prime", 5, 2): (76, 79),
        ("h2prime", 5, 3): (76, 80),
        ("h2prime", 7, 1): (118, 120),
        ("h2prime", 7, 2): (118, 121),
        ("h2prime", 7, 3): (118, 122),
        ("h3", 3, 6): (52, 59),
        ("h3", 5, 3): (130, 134),
        ("h3", 7, 1): (208, 210),
    }
    for (kind, L, q), (r, r_prime) in cells.items():
        p = predict_ranks(kind, L, q)
        assert (p.r, p.r_prime) == (r, r_prime), (kind, L, q)
        assert p.gap == 1
        assert p.gap_prime == 0
        assert p.recoverable


def test_basis_degeneracy_cell():
    # the complete two-local basis on three sites carries one structural
    # redundancy for q = 3 mixtures: both ranks drop and recovery fails
    # even though the capacity threshold is met, so the true onset for
    # that family at q = 3 is one length past the counting threshold
    p = predict_ranks("h2prime", 3, 3)
    assert (p.r, p.r_prime, p.gap, p.gap_prime) == (34, 37, 1, 1)
    assert not p.recoverable
    assert recovery_condition("h2prime", 3, 3)
    assert predict_ranks("h2prime", 4, 3).recoverable


def test_measured_ranks_at_small_parity_cells():
    from chaintomo import eee, hoe, models, spectral

    # the degenerate cell plus every cell with q = 4..6, L <= 6 and q <= 2**L,
    # under both selection policies: random picks reach interior eigenvalues
    cells = [("h2prime", 3, 3)] + [
        (kind, L, q)
        for kind in ("h2", "h2prime", "h3", "h3table")
        for L in range(min_length(kind), 7)
        for q in (4, 5, 6)
        if q <= 2**L
    ]
    assert len(cells) == 50
    for kind, L, q in cells:
        basis = models.enumerate_terms(kind, L)
        pred = predict_ranks(kind, L, q)
        for seed in range(2):
            params = models.sample_params(basis, seed)
            eig = spectral.eig_hermitian(models.assemble(basis, params))
            for selection in spectral.SELECTION_POLICIES:
                state = spectral.build_steady_state(eig, q, selection, seed)
                cell = (kind, L, q, seed, selection)
                g = hoe.constraint_matrix(basis, state)
                assert hoe.numeric_rank(g) == pred.r, cell
                qmat = eee.constraint_matrix(basis, state)
                assert hoe.numeric_rank(qmat) == pred.r_prime, cell


def test_true_onset_at_the_degeneracy_cell():
    from chaintomo import eee, hoe, models, spectral

    # at (h2prime, 3, 3) both routes fail even though the capacity
    # threshold is met; one site more restores unique recovery
    for L, want_success in [(3, False), (4, True)]:
        basis = models.enumerate_terms("h2prime", L)
        params = models.sample_params(basis, 17)
        state = spectral.build_steady_state(
            spectral.eig_hermitian(models.assemble(basis, params)), 3, "lowest", 23
        )
        report = hoe.recover(hoe.constraint_matrix(basis, state))
        joint = eee.recover(eee.constraint_matrix(basis, state), basis.n_params)
        err_hoe = hoe.reconstruction_error(params, report.coefficients)
        err_eee = hoe.reconstruction_error(params, joint.coefficients)
        if want_success:
            assert err_hoe < 1e-6 and err_eee < 1e-6
        else:
            assert err_hoe > 0.1 and err_eee > 0.1


def test_invalid_cells():
    with pytest.raises(ValueError):
        predict_ranks("h2", 1, 1)
    with pytest.raises(ValueError):
        predict_ranks("h3", 2, 1)
    with pytest.raises(ValueError):
        predict_ranks("h2", 2, 0)
    with pytest.raises(ValueError):
        predict_ranks("h2", 2, 5)  # q exceeds the Hilbert dimension 4
    with pytest.raises(ValueError):
        predict_ranks("nope", 3, 1)
    with pytest.raises(ValueError):
        recovery_condition("h2", 1, 1)


def test_recovery_condition_matches_gap():
    for kind in ("h2", "h3table"):
        for L in range(3, 10):
            for q in (1, 2, 3):
                assert recovery_condition(kind, L, q) == predict_ranks(kind, L, q).recoverable


def test_critical_lengths():
    assert critical_length("h2", 1) == 5
    assert critical_length("h2prime", 2) == 4
    assert critical_length("h3", 6) == 3
    for kind, row in CRITICAL_LENGTHS.items():
        for q, want in enumerate(row, start=1):
            assert critical_length(kind, q) == want, (kind, q)


def test_critical_length_row_for_full_triple_family():
    got = tuple(critical_length("h3table", q) for q in range(1, 7))
    assert got == (7, 6, 5, 5, 4, 4)


def test_critical_length_is_the_first_recoverable_length():
    for kind in ("h2", "h2prime", "h3", "h3table"):
        for q in range(1, 7):
            lc = critical_length(kind, q)
            assert recovery_condition(kind, lc, q)
            prev = lc - 1
            if prev >= min_length(kind) and q <= 2**prev:
                assert not recovery_condition(kind, prev, q)


def test_grid_defaults():
    grid = critical_length_grid()
    assert grid == CRITICAL_LENGTHS
    assert tuple(grid) == ("h2", "h2prime", "h3")


def test_critical_length_rejects_q_below_one():
    for q in (0, -3):
        with pytest.raises(ValueError):
            critical_length(kind="h2", q=q)


def test_critical_length_matches_a_brute_scan():
    # the search has no upper limit: it starts where the family fits and
    # q states fit, and the capacity outgrows N, so it ends for any q
    for kind in ("h2", "h2prime", "h3", "h3table"):
        for q in [*range(1, 65), 1000, 10**6]:
            L = min_length(kind)
            while q > 2**L or not recovery_condition(kind, L, q):
                L += 1
            assert critical_length(kind, q) == L, (kind, q)


def test_critical_lengths_decrease_with_more_states():
    for kind in ("h2", "h2prime", "h3", "h3table"):
        row = [critical_length(kind, q) for q in range(1, 9)]
        assert all(a >= b for a, b in zip(row, row[1:]))


def test_param_count_consistency():
    # the capacity reaches N - 1 at the critical length by definition of
    # the threshold; recovery follows except at the tabulated degeneracy
    for kind in ("h2", "h2prime", "h3", "h3table"):
        for q in (1, 3, 5):
            lc = critical_length(kind, q)
            assert constraint_capacity(lc, q) >= param_count(kind, lc) - 1
            p = predict_ranks(kind, lc, q)
            if (kind, lc, q) in BASIS_DEGENERACIES:
                assert not p.recoverable
            else:
                assert p.recoverable
                assert p.r_prime == param_count(kind, lc) - 1 + q
