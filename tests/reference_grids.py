"""Expected integer grids the package must reproduce exactly.

Rank values hold for every random trial, not just on average: the
constraint matrices of generic Hamiltonians have the same rank for
almost every draw. The commutator-route rank caps at N - 1 and the
joint-route rank at N + q - 1 once the constraint capacity
q * 2**(L+1) - q**2 - q exceeds them.
"""


def _grid(first_length, rows):
    return {
        (L, q): value
        for L, row in enumerate(rows, start=first_length)
        for q, value in enumerate(row, start=1)
    }


# independent coefficients N(L) of each family, in closed form, and the
# shortest chain each family fits on
PARAM_COUNT_FORMS = {
    "h2": lambda L: 12 * L - 9,
    "h2prime": lambda L: 21 * L - 27,
    "h3": lambda L: 39 * L - 63,
    "h3table": lambda L: 48 * L - 81,
}

MIN_LENGTHS = {"h2": 2, "h2prime": 3, "h3": 3, "h3table": 3}

# each family's terms: every X/Y/Z assignment to the sites of a support
# pattern (site offsets from its first site), in this order, placed at
# every first site of an open chain
SUPPORT_PATTERNS = {
    "h2": ((0,), (0, 1)),
    "h2prime": ((0,), (0, 1), (0, 2)),
    "h3": ((0,), (0, 1), (0, 1, 2)),
    "h3table": ((0,), (0, 1), (0, 2), (0, 1, 2)),
}

H2_PARAM_COUNT = {2: 15, 3: 27, 4: 39, 5: 51, 6: 63, 7: 75, 8: 87, 9: 99}

H3TABLE_PARAM_COUNT = {3: 63, 4: 111, 5: 159, 6: 207, 7: 255, 8: 303, 9: 351}

# numeric rank of the commutator constraint matrix, keyed (L, q)
H2_RANK = _grid(2, [
    (6, 10, 12),
    (14, 26, 26),
    (30, 38, 38),
    (50, 50, 50),
    (62, 62, 62),
    (74, 74, 74),
    (86, 86, 86),
    (98, 98, 98),
])

H3TABLE_RANK = _grid(3, [
    (14, 26, 36),
    (30, 58, 84),
    (62, 122, 158),
    (126, 206, 206),
    (254, 254, 254),
    (302, 302, 302),
    (350, 350, 350),
])

# numeric rank of the joint constraint matrix, keyed (L, q)
H2_RANK_JOINT = _grid(2, [
    (7, 12, 15),
    (15, 28, 29),
    (31, 40, 41),
    (51, 52, 53),
    (63, 64, 65),
    (75, 76, 77),
    (87, 88, 89),
    (99, 100, 101),
])

H3TABLE_RANK_JOINT = _grid(3, [
    (15, 28, 39),
    (31, 60, 87),
    (63, 124, 161),
    (127, 208, 209),
    (255, 256, 257),
    (303, 304, 305),
    (351, 352, 353),
])

# minimal chain length for unique recovery, q = 1..6 per model kind
CRITICAL_LENGTHS = {
    "h2": (5, 3, 3, 3, 3, 3),
    "h2prime": (6, 4, 3, 3, 3, 3),
    "h3": (7, 6, 5, 4, 4, 3),
}

RANK_GRIDS = {"h2": H2_RANK, "h3table": H3TABLE_RANK}
RANK_JOINT_GRIDS = {"h2": H2_RANK_JOINT, "h3table": H3TABLE_RANK_JOINT}
PARAM_COUNTS = {"h2": H2_PARAM_COUNT, "h3table": H3TABLE_PARAM_COUNT}
