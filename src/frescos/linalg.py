"""Exact linear algebra over the rationals: the one elimination kernel.

Sparse vectors are dicts from positions to nonzero Fractions; solve
runs on the one elimination, the Echelon.  Both the matrix oracle and
the expansion module use this kernel, and it imports nothing from the
rest of the package, so the oracle still shares no engine code.
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


class _Tag:
    """Unit tag of one column of solve, ordered after every position."""

    def __init__(self, col):
        self.col = col


def solve(cols, rhs, key):
    """Solve sum_j z_j cols[j] = rhs over the rationals on an Echelon.

    cols and rhs are sparse vectors over positions ordered by key.  Each
    column carries a unit tag on its own index, ordered after every
    position, so a pivot row records the column combination that made
    it; a column whose positions reduce to zero never enters.  Reducing
    rhs then leaves rhs - sum_j z_j cols[j] on the positions and -z on
    the tags.  Returns (pivots, z): the independent columns in order,
    and the solution with every free unknown 0, or None when the
    system is inconsistent.
    """
    def order(p):
        return (1, p.col) if type(p) is _Tag else (0, key(p))

    ech = Echelon(order)
    pivots = []
    for j, col in enumerate(cols):
        vec = ech.reduce({**col, _Tag(j): Fraction(1)})
        if type(min(vec, key=order)) is not _Tag:
            ech.insert(vec)
            pivots.append(j)
    res = ech.reduce(rhs)
    if any(type(p) is not _Tag for p in res):
        return pivots, None
    z = [Fraction(0)] * len(cols)
    for tag, x in res.items():
        z[tag.col] = -x
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
