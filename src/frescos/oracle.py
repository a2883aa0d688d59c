"""Independent cross-check: exact truncated matrices for a and b.

A rank-k module truncated at depth M becomes a k*M dimensional vector
space over the rationals with basis b^m e_j (m < M, j = 1..k), indexed
level-major (b^m e_j is m k + j - 1) so that index order is the pivot
order.  b is the exact shift b^m e_j -> b^(m+1) e_j, so only a is
stored, once, as the sparse integer columns of D a over one common
denominator D; everything downstream is plain exact linear algebra with
no series machinery involved.  Both a and b only ever raise the b-level
m, which is why coordinates below the truncation stay exact.  The
diagonal entries b^2 S_j'/S_j of the a-matrix are solved for here from
the units' numerators by an integer recurrence, not by the series
kernel, so a fault in the series kernel cannot cancel out on both sides
of a comparison.  The columns are assembled on integers too: each
factor's diagonal and sub-diagonal are brought over D once, and every
column is a run of index offsets into them.  The
elimination itself, one fraction-free sparse echelon that also solves
the annihilator systems, lives in linalg.py, the only module the oracle
shares with the expansion side; it holds no engine code.  Spans and the
vectors a^m x of an annihilator run on the integer columns, so they are
known only up to a scale, which a span ignores.  The annihilator is
solved for in b-left order, where b is the exact shift, on integer
numerators over one running scale, and moved to normal order on
integers; the scale is divided out only in the series it returns.
"""

from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .algebra import AbElement
from .errors import DegenerateTruncation, OrderUnderflow, TruncationTooSmall
from .linalg import Solver, axpy, certified_rank, closure, integral
# perfbench/tracer.py counts span_closure's inserts through oracle._Echelon
from .linalg import Echelon as _Echelon
from .series import SeriesB


class TruncatedRep:
    """The matrix of a on the basis b^m e_j, m < M; b is the shift.

    aint holds the integer columns of D a, with D = ascale the lcm of
    the denominators of a; they are assembled on integers, and a zero
    column is not stored.  So a span or the a-images a^m x up to scale
    are built without a Fraction; apply_a divides D back out.  An index
    sorts by b-level, then by chain position: the pivot order.
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
        """Index of b^m e_j (j is 1-based)."""
        return m * self.k + j - 1

    def level(self, idx):
        """The b-level m of a basis index."""
        return idx // self.k

    def apply_a(self, vec):
        d = self.ascale
        return {r: Fraction(x, d) for r, x in _matvec(self.aint, vec).items()}

    def apply_b(self, vec):
        return _shift(self, vec, 1)

    def embed(self, x):
        """Coordinates in this basis of an element given on e_1..e_k."""
        out = {}
        for j, c in enumerate(x.coords, start=1):
            for m, v in enumerate(c.nums[: self.M]):
                if v:
                    out[self.idx(j, m)] = Fraction(v, c.den)
        return out

    def basis_vector(self, j, m=0):
        return {self.idx(j, m): Fraction(1)}


def _matvec(cols, vec):
    out = {}
    for i, x in vec.items():
        col = cols.get(i)
        if col:
            axpy(out, x, col)
    return out


def truncate_rep(p, M):
    """The exact a-matrix of a presentation, truncated at depth M >= 4.

    Column b^m e_j is b^m d_j e_j + m b^(m+1) e_j + b^m S_j e_(j-1).
    The diagonal d_j and the sub-diagonal S_j are taken once per factor
    as integer numerators over ascale, the lcm of their lowest-terms
    denominators, so each column is a run of index offsets into those
    lists: no entry is ever a Fraction.
    """
    if M < 4:
        raise ValueError("truncation depth must be at least 4")
    k = p.rank
    rep = TruncatedRep(k, M)
    parts = []
    for j, (lam, unit) in enumerate(p.factors, start=1):
        if unit.order < M:
            raise OrderUnderflow(
                "series known to order %d, need %d" % (unit.order, M))
        s = unit.nums[:M]
        q, qden = _b2_log_derivative(s)
        sub, sden = [], 1
        if j > 1:
            # S_j sits at e_(j-1), so S_1 is no entry of the matrix
            g = gcd(unit.den, *s)
            sub, sden = [x // g for x in s], unit.den // g
        parts.append((lam, q, qden, sub, sden))
    rep.ascale = D = lcm(*(lcm(lam.denominator, qden, sden)
                           for lam, _, qden, _, sden in parts))
    dim = rep.dim
    for j, (lam, q, qden, sub, sden) in enumerate(parts, start=1):
        # d_j = lambda_j b + b^2 S_j'/S_j
        d = [x * (D // qden) for x in q]
        d[1] += lam.numerator * (D // lam.denominator)
        # level t of d_j is the offset t k, level t of S_j sits one row
        # lower, at e_(j-1); both are cut where the index reaches dim
        dterms = [(t * k, x) for t, x in enumerate(d) if t and x]
        sterms = [(t * k - 1, x * (D // sden)) for t, x in enumerate(sub)
                  if x]
        for m in range(M):
            base = m * k + j - 1
            while dterms and base + dterms[-1][0] >= dim:
                dterms.pop()
            while sterms and base + sterms[-1][0] >= dim:
                sterms.pop()
            col = {base + o: x for o, x in dterms}
            if m and m + 1 < M:
                # the crossing term joins d_j's b^1 entry lambda_j, and
                # Presentation keeps lambda_j > k - j >= 0: no cancelling
                col[base + k] += m * D
            col.update([(base + o, x) for o, x in sterms])
            if col:
                rep.aint[base] = col
    return rep


def _b2_log_derivative(s):
    """b^2 S'/S to the length n of s, for S = s up to a positive scale,
    s[0] > 0: integer numerators over one denominator, in lowest terms.

    Solves s q = b^2 s' row by row on integers: H_t = s_0^t q_t is the
    b^t coefficient (t - 1) s_(t-1) s_0^(t-1) of s_0^(t-1) b^2 s' minus
    sum_(i >= 1) s_i s_0^(i-1) H_(t-i).  Over s_0^(n-1) every q_t is
    H_t s_0^(n-1-t), reduced by one content gcd.
    """
    n, s0 = len(s), s[0]
    pw = [1]
    for _ in range(n - 1):
        pw.append(pw[-1] * s0)
    terms = [(i, c * pw[i - 1]) for i, c in enumerate(s) if i and c]
    h = []
    for t in range(n):
        acc = (t - 1) * s[t - 1] * pw[t - 1] if t >= 2 else 0
        for i, w in terms:
            if i > t:
                break
            acc -= w * h[t - i]
        h.append(acc)
    nums = [x * pw[n - 1 - t] for t, x in enumerate(h)]
    g = gcd(pw[-1], *nums)
    return [x // g for x in nums], pw[-1] // g


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
    room for every degree.  _normal_order then moves Q to normal order.
    """
    if not x:
        raise ValueError("zero vector has no minimal annihilator")
    k, M = rep.k, rep.M
    v = rep.level(min(x))
    w, _ = integral(x)
    series = [_coordinates(w, k, v, M)]
    for d in range(1, k + 1):
        ordc = M - d - v
        if ordc < 2:
            raise DegenerateTruncation(
                "depth %d leaves no room for a degree-%d annihilator; rerun "
                "with --oracle-depth %d" % (M, d, k + v + 2))
        w = _matvec(rep.aint, w)
        series.append(_coordinates(w, k, v, M))
        block = Solver([{j: c[0] for j, c in enumerate(cs) if c[0]}
                        for cs in series[:d]], k)
        if len(block.pivots) < d:
            raise DegenerateTruncation(
                "level-%d block has rank < %d at depth %d" % (v, d, M)
            )
        got = _solve_levels(block, series, ordc)
        if got is not None:
            return AbElement(_normal_order(*got, rep.ascale, ordc)
                             + [SeriesB.one(ordc)])
    raise DegenerateTruncation(
        "no monic annihilator of degree <= %d at depth %d" % (k, M)
    )


def _shift(rep, vec, i):
    """Coordinates of b^i x: i k indices up, past level M - 1 dropped."""
    step = i * rep.k
    top = rep.dim - step
    return {r + step: c for r, c in vec.items() if r < top}


def _coordinates(w, k, v, M):
    """The k coordinate series of an integer vector of valuation >= v:
    coordinate j as its list of levels v .. M - 1."""
    cs = [[0] * (M - v) for _ in range(k)]
    for r, y in w.items():
        m, j = divmod(r, k)
        cs[j][m - v] = y
    return cs


def _solve_levels(block, series, ordc):
    """(z, s): C_(m,t) = z[m][t] D^m / (s D^d) for t <= ordc, or None if
    inconsistent.

    series[m] holds the coordinates of W_m = D^m E a^m x, where E clears
    the denominators of x and D is the scale of rep.aint, so Q x = 0
    reads W_d + sum_m z_m W_m / s = 0 on integers.  Level v+t is a
    convolution over the earlier z; the scale of its solution joins the
    running scale s, which stays the lcm of the denominators so far.
    """
    d = len(series) - 1
    z = [[] for _ in range(d)]
    s = 1
    for t in range(ordc + 1):
        rhs = {}
        for j, top in enumerate(series[d]):
            acc = s * top[t]
            for zm, cs in zip(z, series):
                acc += sum(map(mul, zm, cs[j][t:0:-1]))
            if acc:
                rhs[j] = -acc
        sol = block(rhs)
        if sol is None:
            return None
        nums, den = sol
        if den > 1:
            s *= den
            z = [[y * den for y in zm] for zm in z]
        for zm, y in zip(z, nums):
            zm.append(y)
    return z, s


def _normal_order(z, s, D, ordc):
    """The slots c_j of Q in normal order, a^d + sum_j a^j c_j(b).

    C a^m = sum_i (-1)^i C(m,i) a^(m-i) delta^i(C) with delta = b^2 d/db
    gives c_j = sum_(m >= j) (-1)^(m-j) C(m,j) delta^(m-j)(C_m), which
    on the numerators z_m D^m of C_m over s D^d stays on integers;
    delta only raises the order, so c_j is exact to b^ordc.
    """
    d = len(z)
    out = [[0] * (ordc + 1) for _ in range(d)]
    for m, zm in enumerate(z):
        p = D ** m
        y = [c * p for c in zm]
        for i in range(m + 1):
            if i:
                y = [0] + [t * c for t, c in enumerate(y[:-1])]
            f = (-1) ** i * comb(m, i)
            out[m - i] = [o + f * c for o, c in zip(out[m - i], y)]
    den = s * D ** d
    return [SeriesB._lowest(c, den, ordc) for c in out]


def span_closure(rep, gens):
    """Smallest truncated subspace containing gens and stable under a, b.

    It is built on integers: the image of a row under rep.aint spans
    the same line as its image under a, and b is an exact shift.
    """
    return closure(gens, lambda row: (_matvec(rep.aint, row),
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
