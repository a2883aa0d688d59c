"""Exact linear algebra over the rationals: the one elimination kernel.

Sparse vectors are dicts from positions to nonzero rationals, ints or
Fractions.  The Echelon is fraction-free: it clears the denominators of
a vector once on entry and from then on works on integers, a reduction
step cross-multiplying by the two leads over their gcd and dividing out
the content (Bareiss, Math. Comp. 22, 1968), so the pivot set is that
of the rational span and no Fraction is built while eliminating.  solve
runs on the same Echelon and divides once per unknown at the end, and
closure builds a module's span under its operators on it, whose rank
certified_rank reads off the pivot levels.  Both the matrix oracle and
the expansion module use this kernel, and it imports nothing from the
rest of the package, so the oracle still shares no engine code.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm


def axpy(dst, f, src):
    """dst += f * src in place, dropping entries that cancel; returns dst."""
    for r, y in src.items():
        w = dst.get(r, 0) + f * y
        if w:
            dst[r] = w
        elif r in dst:
            del dst[r]
    return dst


def integral(vec):
    """(ints, den): a new dict, vec times den, the lcm of its
    denominators, with int values; an all-int vec is copied as it is."""
    if all(type(x) is int for x in vec.values()):
        return dict(vec), 1
    den = lcm(*(x.denominator for x in vec.values()))
    return {r: x.numerator * (den // x.denominator)
            for r, x in vec.items()}, den


class Echelon:
    """Semi-reduced echelon span of sparse vectors under a position order.

    pivots maps each lead position (least under key) to a stored row: a
    primitive integer vector (content 1) with a positive entry there;
    later pivots are not eliminated from earlier rows.  For a fixed
    order the set of pivots is the set of leads of the span, so it
    depends on the span alone, not on the insertion order, on how far
    the rows are reduced, or on their scale.
    """

    __slots__ = ("key", "pivots")

    def __init__(self, key):
        self.key = key
        self.pivots = {}

    def reduce(self, vec):
        """Residual of vec up to a nonzero scale: a new integer dict
        whose lead, if any, is no pivot."""
        vec, _ = integral(vec)
        key = self.key
        pivots = self.pivots
        while vec:
            lead = min(vec, key=key)
            row = pivots.get(lead)
            if row is None:
                break
            c = vec[lead]
            p = row[lead]
            g = gcd(c, p)
            if p != g:
                p //= g
                for r in vec:
                    vec[r] *= p
            axpy(vec, -(c // g), row)
            g = gcd(*vec.values())
            if g > 1:
                vec = {r: x // g for r, x in vec.items()}
        return vec

    def insert(self, vec):
        """Reduce and insert; returns the new pivot position or None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        lead = min(vec, key=self.key)
        g = gcd(*vec.values())
        if vec[lead] < 0:
            g = -g
        self.pivots[lead] = {r: x // g for r, x in vec.items()}
        return lead


class _Tag:
    """Unit tag of one column of solve, ordered after every position."""

    def __init__(self, col):
        self.col = col


class Solver:
    """The elimination of solve's columns, kept for many right-hand sides.

    Each column carries a unit tag on its own index, ordered after every
    position, so a pivot row records the column combination that made
    it; a column whose positions reduce to zero never enters.  pivots
    lists the independent columns in order.
    """

    def __init__(self, cols, key):
        def order(p):
            return (1, p.col) if type(p) is _Tag else (0, key(p))

        self.ncols = len(cols)
        self.echelon = ech = Echelon(order)
        self.pivots = []
        for j, col in enumerate(cols):
            vec = ech.reduce({**col, _Tag(j): 1})
            if type(min(vec, key=order)) is not _Tag:
                ech.insert(vec)
                self.pivots.append(j)

    def __call__(self, rhs):
        """z with sum_j z_j cols[j] = rhs as Fractions, every free unknown
        0, or None when the system is inconsistent.

        rhs carries a tag of its own, ordered last, that records the
        scale the integer reduction put on it: reducing rhs leaves
        s (rhs - sum_j z_j cols[j]) on the positions, s on its tag and
        -s z on the column tags, so each unknown costs one division.
        """
        scale = _Tag(self.ncols)
        res = self.echelon.reduce({**rhs, scale: 1})
        s = res.pop(scale)
        if any(type(p) is not _Tag for p in res):
            return None
        z = [Fraction(0)] * self.ncols
        for tag, x in res.items():
            z[tag.col] = Fraction(-x, s)
        return z


def solve(cols, rhs, key):
    """Solve sum_j z_j cols[j] = rhs over the rationals on an Echelon.

    cols and rhs are sparse vectors over positions ordered by key.
    Returns (pivots, z): the independent columns in order, and the
    solution as Fractions with every free unknown 0, or None when the
    system is inconsistent (see Solver).
    """
    solver = Solver(cols, key)
    return solver.pivots, solver(rhs)


def closure(gens, images, key):
    """Echelon of the span of gens closed under the maps images lists:
    each new pivot row offers its nonzero images, the last one first."""
    ech = Echelon(key)
    queue = list(gens)
    while queue:
        lead = ech.insert(queue.pop())
        if lead is not None:
            queue += filter(None, images(ech.pivots[lead]))
    return ech


def certified_rank(levels, depth):
    """(rank, last, need) read off the levels of a module span's pivots
    in a window of depth levels.

    rank is the pivot count at the top level and last the highest level
    at which the count grows.  need is 0 when the growth stopped early
    enough (last <= depth - rank - 2) that a chain starting later would
    still show, else last + rank + 2, the least window that could
    certify the rank; no pivots need nothing.  The count never
    decreases: the module is stable under the level raising operator,
    which maps a lead at level m to the same position one level up.
    So the last rise over the level below is the last rise of the
    running maximum.
    """
    count = Counter(levels)
    last = max((m for m in count if m and count[m] > count[m - 1]),
               default=0)
    need = last + count[depth - 1] + 2
    return count[depth - 1], last, need if need > depth else 0
