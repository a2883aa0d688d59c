"""Formal expansions in one exponent class and their generated modules.

An expansion is a finite sum of terms c s^(lam+m-1) (Log s)^j v_q with
rational c, a class representative lam in (0,1], a shift m below the
truncation depth, a log power j and a component index q.  a multiplies
by s, a pure shift m -> m+1; b integrates from 0, which also shifts but
sheds log powers:

    b:  s^(mu-1) Log^j  |->  s^mu sum_i (-1)^(j-i) (j!/i!) mu^(i-j-1) Log^i

with mu = lam + m > 0, so both keep everything below the depth exact.
The rank and the log filtration of the module an expansion generates
come off its coefficients (_log_ranks); its annihilator, solved for
that rank in b-coordinates, becomes a presentation.  Eliminations run
on integers, on positions mapped to ints, and only the components that
carry a term get positions.
"""

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm

from .algebra import AbElement
from .errors import NotMonogenicAtTruncation, SemanticError
from .fresco import presentation_from_annihilator
from .linalg import (Echelon, Solver, axpy, closure, coordinates, integral,
                     matvec, normal_order, solve_levels)
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


def _components(phi):
    """The components that carry a term, each mapped to its rank."""
    comps = sorted({c for (c, _, _) in phi.terms})
    return {c: i for i, c in enumerate(comps)}


class _Order:
    """The positions (comp, m, j) of phi's space, on the components that
    carry a term and up to its top log power, as ints: an int is its
    position's rank in generation order (_poskey)."""

    def __init__(self, phi):
        top = max((j for (_, _, j) in phi.terms), default=0)
        self.positions = sorted(
            ((c, m, j) for c in _components(phi) for m in range(phi.depth)
             for j in range(top + 1)), key=_poskey)
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


def _log_ranks(phi):
    """(rank S_1, .., rank S_(J+1)) of the module phi generates, J its
    top log power, S_j its elements with log powers below j: the last
    is the rank.

    On u_j = s^(lam-1) (Log s)^j, a b^n u_j = b^(n+1) (lam + n + N) u_j
    with N u_j = j u_(j-1).  So s^(lam+m-1) Log^j = a^m u_j = b^m P_m(N)
    u_j, P_m(N) = (lam + N) .. (lam + m - 1 + N) invertible, and phi =
    sum_m b^m P_m(N) x_m with x_m in V = Q^(components x logs).  The
    rank is that of the C((b))-span M of the a^m phi, the least space
    holding phi and stable under D = b^-1 a = lam + n + N on b^n V.
    For W the least N-stable subspace of V holding every x_m, W((b)) is
    one, so M lies in it.  Conversely the product of (D - lam - k)^(J+1)
    over the other shifts k of phi maps it to b^m Q(N) P_m(N) x_m, Q(N)
    invertible, and (D - lam - m) b^m = b^m N: M holds every b^m f(N)
    x_m, so M = W((b)).  Hence the rank is dim W, and as b^n u_j is
    triangular in Log, rank S_j = dim(W cut to logs below j): the pivots
    of W's echelon on (comp, j), higher logs first, that lie there.
    """
    top = max(j for (_, _, j) in phi.terms)
    comps = _components(phi)
    k = len(comps)
    # (comp, j) at (top - j) k + its component's rank
    shifts = {}
    for (c, m, j), x in phi.terms.items():
        shifts.setdefault(m, {})[(top - j) * k + comps[c]] = x
    ech = Echelon()
    for vec in shifts.values():
        # N moves (comp, j) to j (comp, j - 1), one block of k later, here
        # on the stored primitive row; an image in the span ends the chain
        while (lead := ech.insert(vec)) is not None:
            vec = {i + k: (top - i // k) * x
                   for i, x in ech.pivots[lead].items() if i < top * k}
    count = Counter(top - lead // k for lead in ech.pivots)
    return tuple(accumulate(count[j] for j in range(top + 1)))


class XiSpan:
    """The module generated by an expansion: its source, its rank (the
    last of log_ranks, from _log_ranks) and, for rows and reduce only,
    the echelon of its linalg.closure under a and b on the ints of
    order, built on first use.  Each pivot row is primitive with a
    positive entry at its lead, every other term after it; the pivots
    keep their insertion order: the source, then depth first along the
    b images (scaled to integers) before the a images.
    """

    def __init__(self, source):
        self.source = source
        self.lam = source.lam
        self.depth = source.depth
        self.rank = self.log_ranks[-1]

    @cached_property
    def log_ranks(self):
        return _log_ranks(self.source)

    @cached_property
    def order(self):
        return _Order(self.source)

    @cached_property
    def echelon(self):
        lam, depth, order = self.lam, self.depth, self.order

        def images(row):
            terms = order.terms(row)
            return (order.ints(_times_s(terms, depth)),
                    order.ints(_integrate(terms, lam, depth)[0]))

        return closure([order.ints(self.source.terms)], images)

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
            # a component or log power the source has not: outside the span
            return x
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
    """The module generated by phi under a and b: its rank and log
    filtration are exact at any depth, and only the zero expansion is
    refused; _annihilator_from_span refuses a window too short for it."""
    if phi.is_zero():
        raise SemanticError("the zero expansion generates nothing")
    return XiSpan(phi)


def xi_log_filtration(span):
    """Ranks of the sub-modules cut out by log degree, plus d(E): the
    dict of 'ranks', rank S_1 .. rank S_(maxlog+1) (_log_ranks), and
    'd', the least j with rank S_j the full rank.  One component with
    top log power J has ranks 1, .., J + 1 and d = J + 1."""
    ranks = span.log_ranks
    return {"ranks": ranks, "d": ranks.index(ranks[-1]) + 1}


def _annihilator_from_span(span):
    """Monic normal-order annihilator of the source, degree = rank.

    For lam = p/q, q a b^n u_j = b^(n+1) (p + q n + q N) u_j on u_j =
    s^(lam-1) (Log s)^j, where b is the exact shift: W_m = (q a)^m phi
    has integer b-coordinates, K per level (u_j v_comp on the components
    that carry a term), and sum_m C_m(b) W_m = -W_r is linalg's level
    solve once the lowest levels of the columns are independent.  W_m
    starts at level vlo + m; while they are dependent, the column of
    highest level that a dependency uses becomes the combination, each
    column shifted up to that level: a unimodular change U over C[b].  A
    column of lowest level e is solved as b^(e-vlo) times one at vlo,
    mapped back through U and cut to order depth - r - vhi - (vhi - vlo),
    vlo and vhi the lowest and highest shifts in phi.  A rank above the
    span's leaves the columns dependent, one below it has no solution.
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
    comps = _components(phi)
    K = len(comps) * logs
    # q a: u_j at level n goes to (p + q n) u_j + q j u_(j-1) at n + 1
    qa = {n * K + i: {(n + 1) * K + i: p + q * n,
                      (n + 1) * K + i - 1: q * (i % logs)}
          for n in range(vhi + r) for i in range(K)}
    # Horner in q a, as s^(lam+n-1) Log^j = a^n u_j: q^vhi E phi
    ints, _ = integral(phi.terms)
    w = [{}]
    for n in range(vhi, -1, -1):
        w[0] = axpy(matvec(qa, w[0]), q ** (vhi - n), {
            comps[c] * logs + j: x for (c, m, j), x in ints.items() if m == n})
    for _ in range(r):
        w.append(matvec(qa, w[-1]))
    # a column (e, W, U): W = sum_m U_m(b) W_m of lowest level e, where
    # U holds the b^t coefficient of U_m at t r + m
    cols = [(vlo + m, w[m], {m: 1}) for m in range(r)]
    # a pass that does not break raises one column's lowest level, and a
    # level at depth is refused: at most r depth + 1 passes
    for _ in range(r * depth + 1):
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
    else:
        raise AssertionError("annihilator column reduction: no level rose "
                             "in %d passes" % (r * depth + 1))
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
    its annihilator through presentation_from_annihilator."""
    return presentation_from_annihilator(
        _annihilator_from_span(span), span.lam)
