"""Formal expansions in one exponent class and their generated modules.

An expansion is a finite sum of terms c s^(lam+m-1) (Log s)^j v_q with
rational c, a fixed class representative lam in (0,1], a shift m below
the truncation depth, a log power j, and an abstract component index q.
The operator a is multiplication by s, so a pure shift m -> m+1; the
operator b integrates from 0, which also shifts but sheds log powers:

    b:  s^(mu-1) Log^j  |->  s^mu sum_i (-1)^(j-i) (j!/i!) mu^(i-j-1) Log^i

with mu = lam + m > 0.  Both operators act componentwise and only ever
raise m, which keeps everything below the truncation depth exact.  With
lam = a/q, mu = p_m/q for the positive integer p_m = a + m q, so on an
integer term dict b is an integer map up to one integer scale (the lcm
of the p_m^(j+1)); the module closure applies it so, and every
elimination over an expansion's span runs on integers, on positions
mapped to ints in their order (_Order) where they enter linalg.  One
component with top log power J generates a module of rank J + 1 in the
free module Xi_lam^(J); only several components run linalg.closure
under the two maps and certify its rank (xi_generate_module).  The
source's annihilator, solved for that rank in b-coordinates, where an
expansion is a polynomial in b, checks it and becomes a presentation.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm

from .algebra import AbElement
from .errors import (
    NotMonogenicAtTruncation,
    SemanticError,
    TruncationTooSmall,
)
from .fresco import presentation_from_annihilator
from .linalg import (Echelon, Solver, axpy, certified_rank, closure,
                     coordinates, integral, matvec, normal_order,
                     solve_levels)
from .series import SeriesB, rat


def xi_exponent_split(e):
    """Split a literal exponent of s into (lam, m) with lam in (0,1].

    The term s^e is stored as s^(lam+m-1), so m = ceil(e) and
    lam = e + 1 - m.
    """
    e = rat(e)
    m = -((-e.numerator) // e.denominator)
    return e + 1 - m, m


def _poskey(pos):
    """Generation order: level first, then higher logs, then component."""
    comp, m, j = pos
    return (m, -j, comp)


def _logkey(pos):
    """Filtration order: higher logs first."""
    comp, m, j = pos
    return (-j, m, comp)


class _Order:
    """The positions (comp, m, j) of phi's space up to its top log power
    as ints: an int is its position's rank under key, so int order is
    key's order."""

    def __init__(self, phi, key):
        top = max((j for (_, _, j) in phi.terms), default=0)
        self.positions = sorted(
            ((c, m, j) for c in range(1, phi.ncomp + 1)
             for m in range(phi.depth) for j in range(top + 1)), key=key)
        self.index = {pos: i for i, pos in enumerate(self.positions)}

    def ints(self, terms):
        return {self.index[pos]: x for pos, x in terms.items()}

    def terms(self, vec):
        return {self.positions[i]: x for i, x in vec.items()}


def _times_s(terms, depth):
    """a on a term dict: multiply by s, one level up inside the window."""
    return {(comp, m + 1, j): c for (comp, m, j), c in terms.items()
            if m + 1 < depth}


def _integrate(terms, lam, depth):
    """b on an integer term dict, up to an integer scale: (out, D).

    With lam = a/q a term at level m has mu = p_m/q, p_m = a + m q, and
    its image carries (q/p_m)^(j-i+1) on Log^i.  D is the lcm of the
    p_m^(j+1) over the terms that stay inside the window, and out is D
    times the image of terms, on integers: from f = c (D/p_m) q each
    step f <- f (-i) q / p_m is an exact integer division.
    """
    a, q = lam.numerator, lam.denominator
    live = [(pos, c) for pos, c in terms.items() if pos[1] + 1 < depth]
    D = lcm(*{(a + m * q) ** (j + 1) for (_, m, j), _ in live})
    out = {}
    for (comp, m, j), c in live:
        p = a + m * q
        f = c * (D // p) * q
        for i in range(j, -1, -1):
            pos = (comp, m + 1, i)
            w = out.get(pos, 0) + f
            if w:
                out[pos] = w
            elif pos in out:
                del out[pos]
            f = f * (-i) * q // p
    return out, D


class XiExpansion:
    """Sparse exact expansion; terms maps (comp, m, j) to a coefficient.

    The constructor checks every term, whatever its coefficient: its
    shift m must lie in the window 0 <= m < depth (a shift past the
    window is refused, not truncated away), its component in 1..ncomp
    and its log power j >= 0.  Zero coefficients are then dropped.
    """

    __slots__ = ("lam", "depth", "ncomp", "terms")

    def __init__(self, lam, depth, ncomp=1, terms=None):
        lam = rat(lam)
        if not 0 < lam <= 1:
            raise SemanticError("class representative must sit in (0, 1]")
        if depth < 4:
            raise ValueError("truncation depth must be at least 4")
        self.lam = lam
        self.depth = depth
        self.ncomp = ncomp
        terms = terms or {}
        past = next((m for (_, m, _) in terms if m >= depth), None)
        if past is not None:
            raise SemanticError("shift %d is past the truncation depth %d"
                                % (past, depth))
        out = {}
        for (comp, m, j), c in terms.items():
            c = rat(c)
            if not 1 <= comp <= ncomp:
                raise SemanticError("component %s out of range" % comp)
            if j < 0:
                raise SemanticError("negative log power")
            if m < 0:
                raise SemanticError(
                    "shift %d below the class representative" % m
                )
            if c:
                out[(comp, m, j)] = c
        self.terms = out

    def _compat(self, other):
        if (self.lam, self.depth, self.ncomp) != \
                (other.lam, other.depth, other.ncomp):
            raise SemanticError("expansions live in different spaces")

    def is_zero(self):
        return not self.terms

    def valuation(self):
        """Least shift m present, or None for zero."""
        if not self.terms:
            return None
        return min(m for (_, m, _) in self.terms)

    def lead(self):
        """Position of the leading term in generation order."""
        if not self.terms:
            return None
        return min(self.terms, key=_poskey)

    def __add__(self, other):
        self._compat(other)
        return XiExpansion(self.lam, self.depth, self.ncomp,
                           axpy(dict(self.terms), 1, other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = rat(c)
        if not c:
            return XiExpansion(self.lam, self.depth, self.ncomp, {})
        return XiExpansion(
            self.lam, self.depth, self.ncomp,
            {pos: x * c for pos, x in self.terms.items()}
        )

    def apply_a(self):
        """Multiply by s: shift every term up one level."""
        return XiExpansion(self.lam, self.depth, self.ncomp,
                           _times_s(self.terms, self.depth))

    def apply_b(self):
        """Integrate from 0: shift up and shed log powers."""
        ints, den = integral(self.terms)
        out, D = _integrate(ints, self.lam, self.depth)
        den *= D
        return XiExpansion(self.lam, self.depth, self.ncomp,
                           {pos: Fraction(x, den) for pos, x in out.items()})

    def __eq__(self, other):
        if not isinstance(other, XiExpansion):
            return NotImplemented
        return (self.lam, self.depth, self.ncomp) == \
            (other.lam, other.depth, other.ncomp) and \
            self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "XiExpansion(0)"
        bits = []
        for (comp, m, j), c in sorted(self.terms.items(), key=lambda t: _poskey(t[0])):
            e = self.lam + m - 1
            part = "%s s^(%s)" % (c, e)
            if j:
                part += " Log^%d" % j
            if self.ncomp > 1:
                part += " v%d" % comp
            bits.append(part)
        return "XiExpansion(%s)" % " + ".join(bits)


class XiSpan:
    """The module generated by an expansion: its source, its rank and
    the echelon of its linalg.closure under a and b, built on first use.

    The echelon runs on the ints of order, the generation order.  Each
    pivot row is primitive with a positive entry at its lead, every
    other term after it, and rows shows them as expansions.  The pivots
    keep their insertion order: the source, then depth first along the
    b images (scaled to integers) before the a images, so the b-chain
    of the top log power comes first.  A span of one component gets its
    rank without the closure (see xi_generate_module), so only rows,
    reduce and a span of several components build it.
    """

    def __init__(self, source, rank):
        self.source = source
        self.rank = rank

    @cached_property
    def order(self):
        return _Order(self.source, _poskey)

    @cached_property
    def echelon(self):
        lam, depth, order = self.lam, self.depth, self.order

        def images(row):
            terms = order.terms(row)
            return (order.ints(_times_s(terms, depth)),
                    order.ints(_integrate(terms, lam, depth)[0]))

        return closure([order.ints(self.source.terms)], images)

    @property
    def lam(self):
        return self.source.lam

    @property
    def depth(self):
        return self.source.depth

    @property
    def rows(self):
        src, order = self.source, self.order
        return {order.positions[lead]: XiExpansion(
                    src.lam, src.depth, src.ncomp, order.terms(row))
                for lead, row in self.echelon.pivots.items()}

    def reduce(self, x):
        """Residual of x against the span up to a nonzero scale, inside
        the window."""
        self.source._compat(x)
        order = self.order
        if any(pos not in order.index for pos in x.terms):
            return x  # a log power past the source's: outside the span
        return XiExpansion(x.lam, x.depth, x.ncomp, order.terms(
            self.echelon.reduce(order.ints(x.terms))))


def _annihilator_depth(phi, r):
    """Least depth with room for a degree-r annihilator of phi and its r
    unit peels: the order _annihilator_from_span cuts its exact solution
    to must cover the 1 + ... + r orders the peels cost and keep one."""
    vlo = min(m for (_, m, _) in phi.terms)
    vhi = max(m for (_, m, _) in phi.terms)
    return r + vhi + (vhi - vlo) + 1 + r * (r + 1) // 2


def xi_generate_module(phi):
    """The module generated by phi under a and b, with its rank.

    A top log power J makes the rank at least J + 1 (the log filtration
    has d = J + 1), and certifying rank r takes depth r + 2 or more, so
    depth < J + 3 is refused up front.  One component lives in
    Xi_lam^(J) = sum_(j<=J) C[[b]] s^(lam-1) (Log s)^j, free of rank
    J + 1, so its rank is J + 1 with no elimination; the annihilator
    solve checks it, as a wrong rank has no determined monic
    annihilator of that degree.  Its whole need is then known, so the
    refusal names the depth that solve needs (_annihilator_depth).

    Several components close the span (XiSpan.echelon), whose pivot
    levels give the rank through linalg.certified_rank; a window too
    short to certify it raises TruncationTooSmall naming one that could.
    """
    if phi.is_zero():
        raise SemanticError("the zero expansion generates nothing")
    depth = phi.depth
    top = max(j for (_, _, j) in phi.terms)
    if top + 3 > depth:
        least = (_annihilator_depth(phi, top + 1) if phi.ncomp == 1
                 else top + 3)
        raise TruncationTooSmall(
            "log^%d generates rank at least %d, which depth %d cannot "
            "certify; the bound needs --order %d or more"
            % (top, top + 1, depth, least)
        )
    if phi.ncomp == 1:
        return XiSpan(phi, top + 1)
    span = XiSpan(phi, None)
    span.rank, last, need = certified_rank(
        (span.order.positions[i][1] for i in span.echelon.pivots), depth)
    if need:
        raise TruncationTooSmall(
            "pivot profile still grows at level %d of %d; cannot certify "
            "rank %d; rerun with --order %d"
            % (last, depth, span.rank, need)
        )
    return span


def xi_log_filtration(span):
    """Ranks of the sub-modules cut out by log degree, plus d(E).

    S_j collects the elements using log powers below j.  The returned
    dict has 'ranks', the tuple rank S_1 .. rank S_(maxlog+1), and 'd',
    the least j with rank S_j equal to the full rank.

    One component with top log power J: each S_j / S_(j-1) embeds in a
    rank-1 log step of Xi_lam^(J) and the J + 1 steps reach rank J + 1,
    so the ranks are 1, 2, .., J + 1 and d = J + 1.
    """
    if span.source.ncomp == 1:
        top = max(j for (_, _, j) in span.source.terms)
        return {"ranks": tuple(range(1, top + 2)), "d": top + 1}
    return _echelon_filtration(span)


def _echelon_filtration(span):
    """xi_log_filtration on the closure.

    The log-first echelon takes the span rows in reverse insertion
    order: the long b-chain of the top log power, inserted first, then
    reduces against the short rows of the lower logs instead of growing
    them.  The pivot set, hence every rank and d, depends on the span
    alone, not on the order.
    """
    depth, gen = span.depth, span.order
    # splitting by the highest log power present needs an echelon that
    # eliminates high logs first
    logs = _Order(span.source, _logkey)
    ech = Echelon()
    groups = {}
    for v in reversed(span.echelon.pivots.values()):
        lead = ech.insert(logs.ints(gen.terms(v)))
        if lead is not None:
            groups.setdefault(logs.positions[lead][2], []).append(
                gen.ints(logs.terms(ech.pivots[lead])))
    total = max(groups) + 1 if groups else 1
    level_ech = Echelon()
    ranks = []
    d = None
    for cut in range(total):
        for v in groups.get(cut, ()):
            level_ech.insert(v)
        rank, _, need = certified_rank(
            (gen.positions[i][1] for i in level_ech.pivots), depth)
        if need:
            raise TruncationTooSmall(
                "log filtration has not stabilised at depth %d; rerun "
                "with --order %d" % (depth, need)
            )
        ranks.append(rank)
        if d is None and rank == span.rank:
            d = cut + 1
    if d is None:
        raise AssertionError("filtration never reaches the full rank")
    return {"ranks": tuple(ranks), "d": d}


def _annihilator_from_span(span):
    """Monic normal-order annihilator of the source, degree = rank.

    On u_j = s^(lam-1) (Log s)^j, b is the exact shift and, for lam =
    p/q, q a b^n u_j = b^(n+1) (p + q n + q N) u_j, N u_j = j u_(j-1).
    So W_m = (q a)^m phi has exact integer b-coordinates (K per level,
    u_j v_comp), and sum_m C_m(b) W_m = -W_r is linalg's level solve
    once the lowest levels of the columns are independent.  W_m starts
    at level vlo + m, so while they are dependent, the column of highest
    level that a dependency uses becomes the combination, each column
    shifted up to that level: a unimodular change U over C[b].  A column
    of lowest level e is solved as b^(e-vlo) times one starting at vlo,
    through every level of the window, then mapped back through U and
    cut to order depth - r - vhi - (vhi - vlo), vlo and vhi the lowest
    and highest shifts in phi.  A rank above the span's leaves the
    columns dependent, one below it has no solution.
    """
    phi = span.source
    r = span.rank
    depth = span.depth
    vlo = min(m for (_, m, _) in phi.terms)
    vhi = max(m for (_, m, _) in phi.terms)
    ordc = depth - r - vhi - (vhi - vlo)
    need = _annihilator_depth(phi, r)
    if depth < need:
        raise NotMonogenicAtTruncation(
            "depth %d leaves no room for a degree-%d annihilator and its "
            "%d unit peels; rerun with --order %d" % (depth, r, r, need)
        )
    p, q = phi.lam.numerator, phi.lam.denominator
    logs = max(j for (_, _, j) in phi.terms) + 1
    K = phi.ncomp * logs
    # q a: u_j at level n goes to (p + q n) u_j + q j u_(j-1) at n + 1
    qa = {n * K + i: {(n + 1) * K + i: p + q * n,
                      (n + 1) * K + i - 1: q * (i % logs)}
          for n in range(vhi + r) for i in range(K)}
    # Horner in q a, as s^(lam+n-1) Log^j = a^n u_j: q^vhi E phi
    ints, _ = integral(phi.terms)
    w = [{}]
    for n in range(vhi, -1, -1):
        w[0] = axpy(matvec(qa, w[0]), q ** (vhi - n), {
            (c - 1) * logs + j: x for (c, m, j), x in ints.items() if m == n})
    for _ in range(r):
        w.append(matvec(qa, w[-1]))
    # a column (e, W, U): W = sum_m U_m(b) W_m of lowest level e, where
    # U holds the b^t coefficient of U_m at t r + m
    cols = [(vlo + m, w[m], {m: 1}) for m in range(r)]
    while True:
        cols.sort(key=lambda col: col[0])
        leads = [{i - e * K: x for i, x in W.items() if i < (e + 1) * K}
                 for e, W, _ in cols]
        block = Solver(leads, K)
        h = next(i for i, j in enumerate(block.pivots + [None]) if i != j)
        if h == r:
            break
        nums, s = Solver(leads[:h], K)(leads[h])
        e, W, U = cols[h][0], {}, {}
        for (ei, Wi, Ui), f in zip(cols, [-x for x in nums] + [s]):
            axpy(W, f, {i + (e - ei) * K: x for i, x in Wi.items()})
            axpy(U, f, {i + (e - ei) * r: x for i, x in Ui.items()})
        if not W or min(W) >= depth * K:
            raise NotMonogenicAtTruncation(
                "annihilator of degree %d is undetermined at depth %d"
                % (r, depth))
        cols[h] = (min(W) // K, W, U)
    shifts = [e - vlo for e, _, _ in cols]
    top = max(depth - 1 - vlo, ordc + max(shifts))
    got = solve_levels(block, [coordinates(W, K, e, e + top + 1)
                               for e, W, _ in cols]
                       + [coordinates(w[r], K, vlo, vlo + top + 1)], top)
    if got is None or any(any(zi[:k]) for zi, k in zip(got[0], shifts)):
        raise NotMonogenicAtTruncation(
            "no annihilator of degree %d at depth %d" % (r, depth)
        )
    z, s = got
    # the slot of (q a)^m is z_m / s, z_m = sum_i U_m b^-shift z_i
    Z = {}
    for (_, _, U), zi, k in zip(cols, z, shifts):
        for i, f in U.items():
            axpy(Z, f, {i + t * r: x for t, x in enumerate(zi[k:])})
    rows, den = normal_order(coordinates(Z, r, 0, ordc + 1), s, q, ordc)
    return AbElement([SeriesB._lowest(c, den, ordc) for c in rows]
                     + [SeriesB.one(ordc)])


def model_from_xi(span):
    """Presentation of the module generated by the source expansion:
    its annihilator through presentation_from_annihilator, with the
    Bernstein roots lam + n searched up to n = depth + rank."""
    return presentation_from_annihilator(
        _annihilator_from_span(span), span.lam, span.depth + span.rank)
