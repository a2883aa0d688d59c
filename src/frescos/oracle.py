"""Independent cross-check: exact truncated matrices for a and b.

A rank-k module truncated at depth M becomes a k*M dimensional vector
space over the rationals with basis b^m e_j (m < M, j = 1..k).  The
action of a and b is stored as explicit sparse columns, so everything
downstream is plain exact linear algebra with no series machinery
involved.  Both a and b only ever raise the b-level m, which is why
coordinates below the truncation stay exact.  The elimination itself
lives in linalg.py, the only module the oracle shares with the
expansion side; it holds no engine code.
"""

from fractions import Fraction

from .algebra import AbElement
from .errors import DegenerateTruncation, TruncationTooSmall
from .fresco import AdaptedModel, validate_presentation
from .linalg import axpy, certified_rank, solve
# perfbench/tracer.py counts span_closure's inserts through oracle._Echelon
from .linalg import Echelon as _Echelon
from .series import SeriesB


class TruncatedRep:
    """Sparse exact matrices of a and b on the basis b^m e_j, m < M."""

    __slots__ = ("k", "M", "source", "acols", "bcols")

    def __init__(self, k, M, source, acols, bcols):
        self.k = k
        self.M = M
        self.source = source
        self.acols = acols
        self.bcols = bcols

    @property
    def dim(self):
        return self.k * self.M

    def idx(self, j, m):
        """Index of b^m e_j (j is 1-based)."""
        return (j - 1) * self.M + m

    def label(self, idx):
        return (idx // self.M + 1, idx % self.M)

    def level(self, idx):
        """The b-level m of a basis index."""
        return idx % self.M

    def key(self, idx):
        """Pivot order: lowest b-level first, then chain position."""
        return (idx % self.M, idx // self.M)

    def apply_a(self, vec):
        return _matvec(self.acols, vec)

    def apply_b(self, vec):
        return _matvec(self.bcols, vec)

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
    """Exact a/b matrices for a presentation, truncated at depth M >= 4."""
    if M < 4:
        raise ValueError("truncation depth must be at least 4")
    p = validate_presentation(p)
    model = AdaptedModel(p, order=max(M, 4))
    k = p.rank
    acols = {}
    bcols = {}
    rep = TruncatedRep(k, M, p, acols, bcols)
    for j in range(1, k + 1):
        d = model.diag[j - 1]
        s = model.sub[j - 1]
        for m in range(M):
            i = rep.idx(j, m)
            if m + 1 < M:
                bcols[i] = {rep.idx(j, m + 1): Fraction(1)}
            col = {}
            # b^m d_j e_j plus the m b^{m+1} e_j crossing term
            for t in range(1, M - m):
                if d.coeffs[t]:
                    col[rep.idx(j, m + t)] = d.coeffs[t]
            if m + 1 < M:
                r = rep.idx(j, m + 1)
                col[r] = col.get(r, Fraction(0)) + m
                if col[r] == 0:
                    del col[r]
            if j > 1:
                for t in range(M - m):
                    if s.coeffs[t]:
                        col[rep.idx(j - 1, m + t)] = s.coeffs[t]
            acols[i] = col
    return rep


def rep_apply(rep, u, vec):
    """Apply a normal-ordered operator through the truncated matrices.

    Computes sum_m A^m (c_m(B) vec).  Coefficient series shorter than
    the depth simply contribute nothing beyond their order, so callers
    who care about high levels should pass operators of order >= M.
    """
    out = {}
    for m in range(u.degree + 1):
        c = u.coeff_series(m)
        cur = {}
        for t in range(min(c.order, rep.M - 1) + 1):
            if c.coeffs[t]:
                axpy(cur, c.coeffs[t], _shift(rep, vec, t))
        for _ in range(m):
            cur = rep.apply_a(cur)
        axpy(out, 1, cur)
    return out


def commutation_defect(rep):
    """Columns of AB - BA - B^2; exact zero on levels below M-1."""
    defects = {}
    for i in range(rep.dim):
        v = {i: Fraction(1)}
        d = axpy(axpy(rep.apply_a(rep.apply_b(v)), -1,
                      rep.apply_b(rep.apply_a(v))),
                 -1, rep.apply_b(rep.apply_b(v)))
        d = {r: x for r, x in d.items() if rep.level(r) < rep.M - 1}
        if d:
            defects[i] = d
    return defects


def minimal_annihilator(rep, x, dmax=None):
    """Monic operator of least a-degree killing x, modulo b^(M-d-v).

    The unknown is  a^d + sum_m a^m c_m(b)  in normal order, so the
    series act before the a-powers.  Writing c_m = sum_i c_{m,i} b^i,
    the level v+t rows of the equation involve c_{m,i} only for i <= t
    (v is the b-valuation of x), and the i = t block is independent of
    t because a^m b^t = b^t (a + t b)^m.  Degrees are tried from 1 up;
    a degenerate constant block raises DegenerateTruncation.
    """
    if not x:
        raise ValueError("zero vector has no minimal annihilator")
    if dmax is None:
        dmax = rep.k
    v = min(rep.level(i) for i in x)
    for d in range(1, dmax + 1):
        got = _solve_layers(rep, x, d, v)
        if got is not None:
            ordc = rep.M - d - v
            return AbElement(
                [SeriesB(cs, ordc) for cs in got] + [SeriesB.one(ordc)]
            )
    raise DegenerateTruncation(
        "no monic annihilator of degree <= %d at depth %d" % (dmax, rep.M)
    )


def _shift(rep, vec, i):
    """Coordinates of b^i x; b is an exact shift of the level."""
    out = {}
    for r, c in vec.items():
        j, m = rep.label(r)
        if m + i < rep.M:
            out[rep.idx(j, m + i)] = c
    return out


def _solve_layers(rep, x, d, v):
    """Forward solve for the series slices; None if inconsistent."""
    M = rep.M
    ordc = M - d - v
    if ordc < 2:
        raise DegenerateTruncation(
            "depth %d leaves no room for a degree-%d annihilator" % (M, d)
        )
    # w[i][m] = a^m b^i x for each unknown slot
    w = []
    for i in range(ordc + 1):
        chain = [_shift(rep, x, i)]
        for _ in range(d - 1):
            chain.append(rep.apply_a(chain[-1]))
        w.append(chain)
    top = rep.apply_a(w[0][d - 1])
    coeffs = [[] for _ in range(d)]
    for t in range(ordc + 1):
        rhs = []
        for j in range(1, rep.k + 1):
            acc = -top.get(rep.idx(j, v + t), Fraction(0))
            for m in range(d):
                for i in range(t):
                    if coeffs[m][i]:
                        acc -= coeffs[m][i] * w[i][m].get(
                            rep.idx(j, v + t), Fraction(0))
            rhs.append(acc)
        # the level-(v+t) block of b^t x, ..., a^{d-1} b^t x equals the
        # level-v block of x, ax, ..., a^{d-1} x because
        # a^m b^t = b^t (a + t b)^m, so its rank is the same for every t
        gt = [[w[t][m].get(rep.idx(j, v + t), Fraction(0))
               for m in range(d)] for j in range(1, rep.k + 1)]
        pivots, sol = solve(gt, rhs)
        if len(pivots) < d:
            raise DegenerateTruncation(
                "level-%d block has rank < %d at depth %d" % (v, d, M)
            )
        if sol is None:
            return None
        for m in range(d):
            coeffs[m].append(sol[m])
    return coeffs


def span_closure(rep, gens):
    """Smallest truncated subspace containing gens and stable under a, b."""
    ech = _Echelon(rep.key)
    queue = list(gens)
    while queue:
        piv = ech.insert(queue.pop())
        if piv is not None:
            row = ech.pivots[piv]
            queue += [img for img in (rep.apply_a(row), rep.apply_b(row))
                      if img]
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
    rank, _, certified = certified_rank(per_level)
    if rank == 0:
        raise TruncationTooSmall("empty top level at depth %d" % rep.M)
    if not certified:
        raise TruncationTooSmall(
            "pivot count per level has not stabilised at depth %d" % rep.M
        )
    dim = len(ech.pivots)
    bf = _Echelon(rep.key)
    for v in ech.pivots.values():
        img = rep.apply_b(v)
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
