"""Independent cross-check: exact truncated matrices for a and b.

A rank-k module truncated at depth M becomes a k*M dimensional vector
space over the rationals with basis b^m e_j (m < M, j = 1..k).  b is
the exact shift b^m e_j -> b^(m+1) e_j, so only a is stored, once, as
the sparse integer columns of D a over one common denominator D;
everything downstream is plain exact linear algebra with no series
machinery involved.  Both a and b only ever raise the b-level m, which
is why coordinates below the truncation stay exact.  The diagonal
entries b^2 S_j'/S_j of the a-matrix are solved for here on plain
Fraction lists, not read from the series layer, so a fault in the
series kernel cannot cancel out on both sides of a comparison.  The
elimination itself, one fraction-free sparse echelon that also solves
the annihilator systems, lives in linalg.py, the only module the oracle
shares with the expansion side; it holds no engine code.  Spans and
annihilator chains run on the integer columns, so a vector of a span
or of a chain is known only up to a scale, which a span ignores and
the annihilator solve keeps track of, dividing it out of each
coefficient it returns.
"""

from fractions import Fraction
from math import gcd, lcm

from .algebra import AbElement
from .errors import DegenerateTruncation, OrderUnderflow, TruncationTooSmall
from .linalg import Solver, axpy, certified_rank, integral
# perfbench/tracer.py counts span_closure's inserts through oracle._Echelon
from .linalg import Echelon as _Echelon
from .series import SeriesB


class TruncatedRep:
    """The matrix of a on the basis b^m e_j, m < M; b is the shift.

    aint holds the integer columns of D a, with D = ascale the lcm of
    the denominators of a, so a span or a chain of a-images up to scale
    is built without a Fraction; apply_a divides D back out.  key is
    the pivot order: lowest b-level first, then chain position, as a
    lookup on the index.
    """

    __slots__ = ("k", "M", "aint", "ascale", "key")

    def __init__(self, k, M):
        self.k = k
        self.M = M
        self.aint = {}
        self.ascale = 1
        self.key = [(i % M) * k + i // M for i in range(k * M)].__getitem__

    @property
    def dim(self):
        return self.k * self.M

    def idx(self, j, m):
        """Index of b^m e_j (j is 1-based)."""
        return (j - 1) * self.M + m

    def level(self, idx):
        """The b-level m of a basis index."""
        return idx % self.M

    def apply_a(self, vec):
        d = self.ascale
        return {r: Fraction(x, d) for r, x in _matvec(self.aint, vec).items()}

    def apply_b(self, vec):
        return _shift(self, vec, 1)

    def embed(self, x):
        """Coordinates of an adapted-model element in this basis."""
        out = {}
        for j, c in enumerate(x.coords, start=1):
            for m in range(min(c.order, self.M - 1) + 1):
                if c.coeffs[m]:
                    out[self.idx(j, m)] = c.coeffs[m]
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
    """The exact a-matrix of a presentation, truncated at depth M >= 4."""
    if M < 4:
        raise ValueError("truncation depth must be at least 4")
    k = p.rank
    rep = TruncatedRep(k, M)
    cols = {}
    for j, (lam, unit) in enumerate(p.factors, start=1):
        if unit.order < M:
            raise OrderUnderflow(
                "series known to order %d, need %d" % (unit.order, M))
        s = list(unit.coeffs[:M])
        # d_j = lambda_j b + b^2 S_j'/S_j
        d = _b2_log_derivative(s)
        d[1] += lam
        for m in range(M):
            col = {}
            # b^m d_j e_j plus the m b^{m+1} e_j crossing term
            for t in range(1, M - m):
                if d[t]:
                    col[rep.idx(j, m + t)] = d[t]
            if m + 1 < M:
                r = rep.idx(j, m + 1)
                col[r] = col.get(r, Fraction(0)) + m
                if col[r] == 0:
                    del col[r]
            if j > 1:
                for t in range(M - m):
                    if s[t]:
                        col[rep.idx(j - 1, m + t)] = s[t]
            cols[rep.idx(j, m)] = col
    ints, rep.ascale = integral({(i, r): x for i, col in cols.items()
                                 for r, x in col.items()})
    for (i, r), x in ints.items():
        rep.aint.setdefault(i, {})[r] = x
    return rep


def _b2_log_derivative(s):
    """b^2 S'/S to the length of s, for a unit with s[0] == 1.

    Solves S q = b^2 S' row by row on plain Fractions: q_t is the b^t
    coefficient (t - 1) s_(t-1) of b^2 S' minus sum_i s_i q_(t-i).
    """
    terms = [(i, c) for i, c in enumerate(s) if i and c]
    q = []
    for t in range(len(s)):
        acc = (t - 1) * s[t - 1] if t >= 2 else Fraction(0)
        for i, c in terms:
            if i > t:
                break
            acc -= c * q[t - i]
        q.append(acc)
    return q


def minimal_annihilator(rep, x):
    """Monic operator of least a-degree killing x, modulo b^(M-d-v).

    The unknown is  a^d + sum_m a^m c_m(b)  in normal order, so the
    series act before the a-powers.  Writing c_m = sum_i c_{m,i} b^i,
    the level v+t rows of the equation involve c_{m,i} only for i <= t
    (v is the b-valuation of x), and the i = t block is independent of
    t because a^m b^t = b^t (a + t b)^m.  Degrees are tried from 1 up
    to the rank on one set of integer chains a^m b^t x, built only as
    far as a degree asks and shared with the next (a wrong degree
    usually fails at level 0); a degenerate constant block raises
    DegenerateTruncation.
    """
    if not x:
        raise ValueError("zero vector has no minimal annihilator")
    v = min(rep.level(i) for i in x)
    chain = _chains(rep, x)
    for d in range(1, rep.k + 1):
        got = _solve_layers(rep, chain, d, v)
        if got is not None:
            ordc = rep.M - d - v
            return AbElement(
                [SeriesB(cs, ordc) for cs in got] + [SeriesB.one(ordc)]
            )
    raise DegenerateTruncation(
        "no monic annihilator of degree <= %d at depth %d" % (rep.k, rep.M)
    )


def _shift(rep, vec, i):
    """Coordinates of b^i x; b is an exact shift of the level."""
    M = rep.M
    return {r + i: c for r, c in vec.items() if r % M + i < M}


def _chains(rep, x):
    """chain(t, m): the integer vector a^m b^t x times D^m E, memoized.

    E clears the denominators of x and D is the scale of rep.aint, so
    the scale depends on m alone.
    """
    base, _ = integral(x)
    memo = {}

    def chain(t, m):
        w = memo.get((t, m))
        if w is None:
            w = (_matvec(rep.aint, chain(t, m - 1)) if m
                 else _shift(rep, base, t))
            memo[(t, m)] = w
        return w

    return chain


def _solve_layers(rep, chain, d, v):
    """Forward solve, level by level on one residual; None if inconsistent.

    On the integer chains the unknowns are y_(m,t) = s D^(d-m) c_(m,t),
    where the residual -a^d x - (the slices solved so far) is the
    integer vector res over the running scale s D^d E; the content that
    res shares with s is divided out after each level.
    """
    M = rep.M
    ordc = M - d - v
    if ordc < 2:
        raise DegenerateTruncation(
            "depth %d leaves no room for a degree-%d annihilator" % (M, d)
        )
    res = {r: -y for r, y in chain(0, d).items()}
    s = 1
    dpow = [rep.ascale ** (d - m) for m in range(d)]
    coeffs = [[] for _ in range(d)]
    # the level-(v+t) block of b^t x, ..., a^{d-1} b^t x equals the
    # level-v block of x, ax, ..., a^{d-1} x because
    # a^m b^t = b^t (a + t b)^m, so one elimination serves every level
    level = [rep.idx(j, v) for j in range(1, rep.k + 1)]
    block = Solver([{i: c[i] for i in level if i in c}
                    for c in (chain(0, m) for m in range(d))], rep.key)
    if len(block.pivots) < d:
        raise DegenerateTruncation(
            "level-%d block has rank < %d at depth %d" % (v, d, M)
        )
    for t in range(ordc + 1):
        sol = block({i: res[i + t] for i in level if i + t in res})
        if sol is None:
            return None
        w = [chain(t, m) for m in range(d)]
        den = lcm(*(y.denominator for y in sol))
        if den > 1:
            for r in res:
                res[r] *= den
        for m, y in enumerate(sol):
            coeffs[m].append(y / (s * dpow[m]))
            if y:
                axpy(res, -y.numerator * (den // y.denominator), w[m])
        s *= den
        g = gcd(s, *res.values())
        if g > 1:
            s //= g
            res = {r: y // g for r, y in res.items()}
    return coeffs


def span_closure(rep, gens):
    """Smallest truncated subspace containing gens and stable under a, b.

    It is built on integers: the image of a row under rep.aint spans
    the same line as its image under a, and b is an exact shift.
    """
    ech = _Echelon(rep.key)
    queue = list(gens)
    while queue:
        piv = ech.insert(queue.pop())
        if piv is not None:
            row = ech.pivots[piv]
            queue += [img for img in (_matvec(rep.aint, row),
                                      _shift(rep, row, 1)) if img]
    return ech


def submodule_analysis(rep, gens):
    """Rank, normality and codimension of the span closure of gens.

    Returns a dict with keys rank, normal, codim, dim.  Normality is
    the condition span(F) meet b E = b F, tested on levels below M-1
    where the truncated image of b is faithful.  The rank is the pivot
    count per b-level once it has plateaued.
    """
    ech = span_closure(rep, gens)
    per_level = [0] * rep.M
    for piv in ech.pivots:
        per_level[rep.level(piv)] += 1
    rank, last, certified = certified_rank(per_level)
    if rank == 0:
        raise TruncationTooSmall("empty top level at depth %d" % rep.M)
    if not certified:
        raise TruncationTooSmall(
            "pivot count per level has not stabilised at depth %d; rerun "
            "with --oracle-depth %d" % (rep.M, last + rank + 2)
        )
    dim = len(ech.pivots)
    bf = _Echelon(rep.key)
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
