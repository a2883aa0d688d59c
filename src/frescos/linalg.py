"""Exact linear algebra over the rationals: the one elimination kernel.

Sparse vectors are dicts from positions to nonzero Fractions; dense
systems are lists of rows.  Both the matrix oracle and the expansion
module use this kernel, and it imports nothing from the rest of the
package, so the oracle still shares no engine code.
"""

from fractions import Fraction


def axpy(dst, f, src):
    """dst += f * src in place, dropping entries that cancel; returns dst."""
    for r, y in src.items():
        w = dst.get(r, 0) + f * y
        if w:
            dst[r] = w
        elif r in dst:
            del dst[r]
    return dst


class Echelon:
    """Semi-reduced echelon span of sparse vectors under a position order.

    pivots maps each lead position (least under key) to a stored row
    scaled to 1 there; later pivots are not eliminated from earlier
    rows.  For a fixed order the set of pivots is the set of leads of
    the span, so it depends on the span alone, not on the insertion
    order or on how far the rows are reduced.
    """

    __slots__ = ("key", "pivots")

    def __init__(self, key, pivots=None):
        self.key = key
        self.pivots = {} if pivots is None else pivots

    def reduce(self, vec):
        """Residual of vec: a new dict whose lead, if any, is no pivot."""
        vec = dict(vec)
        while vec:
            lead = min(vec, key=self.key)
            row = self.pivots.get(lead)
            if row is None:
                break
            axpy(vec, -vec[lead], row)
        return vec

    def insert(self, vec):
        """Reduce and insert; returns the new pivot position or None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        lead = min(vec, key=self.key)
        inv = 1 / vec[lead]
        self.pivots[lead] = {r: x * inv for r, x in vec.items()}
        return lead


def solve(rows, rhs):
    """Gauss-Jordan solve of rows z = rhs over the rationals.

    Returns (pivots, z): pivots lists the pivot columns in increasing
    order, and z is the solution with every free unknown set to 0, or
    None when the system is inconsistent.  The pivot columns are the
    columns independent of those before them, so they do not depend on
    the right hand side.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    if any(row[n] for row in aug[len(pivots):]):
        return pivots, None
    z = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        z[c] = aug[i][n]
    return pivots, z


def certified_rank(per_level):
    """Rank read off a per-level pivot profile, with its certificate.

    per_level[m] counts the pivots of a module's span at level m of a
    window of len(per_level) levels.  Returns (rank, last, certified):
    rank is the count at the top level, last the highest level at which
    the count grows, and certified says the rank is positive and the
    growth stopped early enough (last <= len - rank - 2) that a chain
    starting later would still have been visible.

    The profile never decreases: the module is stable under the level
    raising operator, which maps a lead at level m to the same position
    one level up, so every pivot below the top level has a pivot above
    it.  Hence the last level where the count exceeds the one before is
    also the last where it exceeds the running maximum.
    """
    rank = per_level[-1]
    last = 0
    for m in range(1, len(per_level)):
        if per_level[m] > per_level[m - 1]:
            last = m
    return rank, last, rank > 0 and last <= len(per_level) - rank - 2
