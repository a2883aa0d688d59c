"""Independent cross-check: exact truncated matrices for a and b.

A rank-k module truncated at depth M becomes a k*M dimensional vector
space over the rationals with basis b^m f_j (m < M, j = 1..k), where
f_j = S_j^-1 e_j is the normalized chain vector, indexed level-major
(b^m f_j is m k + j - 1) so that index order is the pivot order.  b is
the exact shift b^m f_j -> b^(m+1) f_j, so only a is stored, once, as
the sparse integer columns of D a over one common denominator D.  On
f_j the chain reads a f_j = l_j b f_j + S_(j-1) f_(j-1), so every
column is read off an exponent and the numerators of one unit: the
oracle computes nothing from the units, and everything downstream is
plain exact linear algebra with no series machinery involved.  Both a
and b only ever raise the b-level m, which is why coordinates below the
truncation stay exact, and the change of basis from b^m e_j is
unitriangular with the identity at each level.  The elimination itself,
one fraction-free sparse echelon that also solves the annihilator
systems, lives in linalg.py, the only module the oracle shares with the
expansion side; it holds no engine code.  Spans and the vectors a^m x
of an annihilator run on the integer columns, so they are known only up
to a scale, which a span ignores.  The annihilator is solved for in
b-left order, where b is the exact shift, on integer numerators over
one running scale, and moved to normal order on integers, both in
linalg; the scale is divided out only in the series it returns.
"""

from fractions import Fraction
from math import gcd, lcm

from .algebra import AbElement
from .errors import DegenerateTruncation, OrderUnderflow, TruncationTooSmall
from .linalg import (Solver, certified_rank, closure, coordinates, integral,
                     matvec, normal_order, solve_levels)
# perfbench/tracer.py counts span_closure's inserts through oracle._Echelon
from .linalg import Echelon as _Echelon
from .series import SeriesB


class TruncatedRep:
    """The matrix of a on the basis b^m f_j, m < M; b is the shift.

    aint holds the integer columns of D a, with D = ascale the lcm of
    the denominators of a, and a zero column is not stored.  So a span
    or the a-images a^m x up to scale are built without a Fraction;
    apply_a divides D back out.  An index sorts by b-level, then by
    chain position: the pivot order.
    """

    __slots__ = ("k", "M", "aint", "ascale")

    def __init__(self, k, M):
        self.k = k
        self.M = M
        self.aint = {}
        self.ascale = 1

    @property
    def dim(self):
        return self.k * self.M

    def idx(self, j, m):
        """Index of b^m f_j (j is 1-based)."""
        return m * self.k + j - 1

    def level(self, idx):
        """The b-level m of a basis index."""
        return idx // self.k

    def apply_a(self, vec):
        d = self.ascale
        return {r: Fraction(x, d) for r, x in matvec(self.aint, vec).items()}

    def apply_b(self, vec):
        return _shift(self, vec, 1)

    def embed(self, x):
        """Coordinates of an adapted-model element on this basis: its
        coordinate H_j against f_j fills b^m f_j, m < M.  An element of
        F_m has m <= k coordinates; more than k would be misplaced and
        ones known below order M zero-filled, so both are refused."""
        if x.rank > self.k:
            raise ValueError("element has %d coordinates, rank is %d"
                             % (x.rank, self.k))
        if x.order < self.M:
            raise OrderUnderflow(
                "series known to order %d, need %d" % (x.order, self.M))
        out = {}
        for j, c in enumerate(x.coords, start=1):
            for m, v in enumerate(c.nums[: self.M]):
                if v:
                    out[self.idx(j, m)] = Fraction(v, c.den)
        return out

    def basis_vector(self, j, m=0):
        """b^m f_j, for j in 1..k and m in 0..M-1."""
        if not (1 <= j <= self.k and 0 <= m < self.M):
            raise ValueError("no basis vector b^%d f_%d at rank %d, depth %d"
                             % (m, j, self.k, self.M))
        return {self.idx(j, m): Fraction(1)}


def truncate_rep(p, M):
    """The exact a-matrix of a presentation on b^m f_j, at depth M >= 4.

    As a b^m = b^m a + m b^(m+1), column b^m f_j is (l_j + m) b^(m+1) f_j
    + b^m S_(j-1) f_(j-1).  Its entries are integers over ascale, the lcm
    of the exponents' denominators and of the lowest-terms denominators
    of S_1..S_(k-1): no entry is ever a Fraction.
    """
    if M < 4:
        raise ValueError("truncation depth must be at least 4")
    for unit in p.units:
        if unit.order < M:
            raise OrderUnderflow(
                "series known to order %d, need %d" % (unit.order, M))
    rep = TruncatedRep(p.rank, M)
    dens = [u.den // gcd(u.den, *u.nums[:M]) for u in p.units[:-1]]
    rep.ascale = D = lcm(*(l.denominator for l in p.lambdas), *dens)
    for j, lam in enumerate(p.lambdas, start=1):
        sub = []
        if j > 1:
            u = p.units[j - 2]
            sub = [(t, x * D // u.den) for t, x in enumerate(u.nums[:M]) if x]
        step = lam.numerator * (D // lam.denominator)
        for m in range(M):
            col = {rep.idx(j - 1, m + t): x for t, x in sub if m + t < M}
            if m + 1 < M:
                # Presentation keeps l_j > k - j >= 0: never zero
                col[rep.idx(j, m + 1)] = step + m * D
            if col:
                rep.aint[rep.idx(j, m)] = col
    return rep


def minimal_annihilator(rep, x):
    """Monic operator of least a-degree killing x, modulo b^(M-d-v).

    It is solved for in b-left order, Q = a^d + sum_m C_m(b) a^m, as
    b is the shift: Q x needs only the vectors a^m x, one integer matvec
    each, shared from one degree to the next.  Writing C_m = sum_i
    C_(m,i) b^i, the level v+t rows of Q x = 0 (v is the b-valuation of
    x) involve C_(m,i) only for i <= t, and the i = t block is the
    level-v block of x, ax, ..., a^(d-1) x for every t, so one
    elimination serves every level.  Degrees are tried from 1 up to the
    rank (a wrong degree usually fails at level 0).  DegenerateTruncation
    means a degenerate level-v block or too small a depth; k + v + 2 has
    room for every degree.  series[m] is D^m E a^m x, D = rep.ascale.
    """
    x = {r: y for r, y in x.items() if y}
    if not x:
        raise ValueError("zero vector has no minimal annihilator")
    k, M = rep.k, rep.M
    v = rep.level(min(x))
    w, _ = integral(x)
    series = [coordinates(w, k, v, M)]
    for d in range(1, k + 1):
        ordc = M - d - v
        if ordc < 2:
            raise DegenerateTruncation(
                "depth %d leaves no room for a degree-%d annihilator; rerun "
                "with --oracle-depth %d" % (M, d, k + v + 2))
        w = matvec(rep.aint, w)
        series.append(coordinates(w, k, v, M))
        block = Solver([{j: c[0] for j, c in enumerate(cs) if c[0]}
                        for cs in series[:d]], k)
        if len(block.pivots) < d:
            raise DegenerateTruncation(
                "level-%d block has rank < %d at depth %d" % (v, d, M)
            )
        got = solve_levels(block, series, ordc)
        if got is not None:
            rows, den = normal_order(*got, rep.ascale, ordc)
            return AbElement([SeriesB._lowest(c, den, ordc) for c in rows]
                             + [SeriesB.one(ordc)])
    raise DegenerateTruncation(
        "no monic annihilator of degree <= %d at depth %d" % (k, M)
    )


def _shift(rep, vec, i):
    """Coordinates of b^i x: i k indices up, past level M - 1 dropped."""
    step = i * rep.k
    top = rep.dim - step
    return {r + step: c for r, c in vec.items() if r < top}


def span_closure(rep, gens):
    """Smallest truncated subspace containing gens and stable under a, b.

    It is built on integers: the image of a row under rep.aint spans
    the same line as its image under a, and b is an exact shift.
    """
    return closure(gens, lambda row: (matvec(rep.aint, row),
                                      _shift(rep, row, 1)))


def closure_rank(rep, gens):
    """The span closure of gens and its certified C[[b]]-rank.

    The rank is the pivot count per b-level once it has plateaued; the
    b-shifts of a nonzero generator reach the top level, so it is
    positive.  A profile still growing too near the top raises
    TruncationTooSmall naming the least depth that could certify it.
    """
    if not any(x for g in gens for x in g.values()):
        raise ValueError("zero generators span no submodule")
    ech = span_closure(rep, gens)
    rank, _, need = certified_rank(map(rep.level, ech.pivots), rep.M)
    if need:
        raise TruncationTooSmall(
            "pivot count per level has not stabilised at depth %d; rerun "
            "with --oracle-depth %d" % (rep.M, need)
        )
    return ech, rank


def submodule_analysis(rep, gens):
    """Rank, normality and codimension of the span closure of gens.

    Returns a dict with keys rank, normal, codim, dim.  Normality is
    the condition span(F) meet b E = b F, tested on levels below M-1
    where the truncated image of b is faithful.  The rank is
    closure_rank's; zero generators raise ValueError.
    """
    ech, rank = closure_rank(rep, gens)
    dim = len(ech.pivots)
    bf = _Echelon()
    for v in ech.pivots.values():
        img = _shift(rep, v, 1)
        if img:
            bf.insert(img)
    normal = True
    for piv, v in ech.pivots.items():
        if rep.level(piv) == 0:
            continue
        # pivots at level >= 1 span exactly F meet bE; a residual lead
        # below level M-1 is one that no vector of bF can cancel
        res = bf.reduce(v)
        if any(rep.level(r) < rep.M - 1 for r in res):
            normal = False
            break
    return {
        "rank": rank,
        "normal": normal,
        "dim": dim,
        "codim": rep.dim - dim,
    }
