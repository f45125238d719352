"""Bundled reference catalog of nontrivial cycles (starts up to 10^6).

CYCLE_TABLE holds the published catalog verbatim, one row per shift a.
Three rows (a = 9, 11, 13) are internally inconsistent: the listed tuples
are not closed under the shifted map (e.g. 5 -> 5 + 9 = 14, not 15).  The
census reproduces the remaining 17 rows exactly; see KNOWN_BAD_ROWS.  What
it finds for those three rows, and at a = 39, the tests hold.

Tuples are stored as printed; compare after canonical (min-first)
rotation, since some rows are written starting from a non-minimal member.
"""

CYCLE_TABLE = {
    1: ((5, 6),),
    2: ((5, 7, 9, 6),),
    3: ((5, 8, 6), (7, 10)),
    4: ((5, 9, 6),),
    5: ((7, 12),),
    6: ((7, 13, 19, 25, 10),),
    7: ((5, 12, 7, 14, 9, 6),),
    8: ((5, 13, 21, 10, 7, 15, 8, 6),),
    9: ((5, 15, 9, 6), (13, 22)),
    10: ((5, 15, 8, 6),),
    11: ((5, 15, 8, 6),),
    12: ((5, 17, 29, 41, 53, 65, 18, 8, 6),),
    13: ((5, 16, 8, 6),),
    14: ((5, 19, 33, 14, 9, 6), (7, 21, 10)),
    15: ((5, 20, 9, 6), (19, 34)),
    16: ((7, 23, 39, 16, 8, 6, 5, 21, 10),),
    17: ((7, 24, 9, 6, 5, 22, 13, 30, 10), (11, 28)),
    18: ((5, 23, 41, 59, 77, 18, 8, 6), (7, 25, 10)),
    19: ((5, 24, 9, 6),),
    20: ((5, 25, 10, 7, 27, 9, 6),),
}

#: Rows of CYCLE_TABLE whose printed tuples are not closed under B_a.
KNOWN_BAD_ROWS = (9, 11, 13)


def min_first(members) -> tuple[int, ...]:
    """Rotate a cycle so its minimum comes first (no verification)."""
    members = tuple(int(v) for v in members)
    k = members.index(min(members))
    return members[k:] + members[:k]


def canonical_set(rows) -> set[tuple[int, ...]]:
    """The rows rotated min-first, as the census reports its cycles."""
    return {min_first(row) for row in rows}
