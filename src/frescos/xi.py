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
of the p_m^(j+1)); the module closure and the annihilator apply it so,
and every elimination over an expansion's span runs on integers.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .algebra import AbElement, _D, expand_factor_form, monicize
from .errors import (
    NotMonogenicAtTruncation,
    SemanticError,
    TruncationTooSmall,
)
from .fresco import Presentation
from .linalg import Echelon, axpy, certified_rank, integral, solve
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
    """The module generated by an expansion, as the echelon that built it.

    Each pivot row of echelon is a primitive integer term dict with a
    positive entry at its lead, every other term after it in generation
    order; the rows span the orbit of the source under a and b inside
    the truncation window, and rows shows them as expansions.  The
    pivots keep their insertion order: the source, then depth first
    along the b images (scaled to integers) before the a images, so the
    b-chain of the top log power comes first.  The rank
    is the per-level pivot count after it has stabilized: every chain
    contributes one pivot per level from its first appearance on, so
    the count at the last level is the module rank once no chain starts
    close to the window edge.
    """

    def __init__(self, source, echelon, rank):
        self.source = source
        self.echelon = echelon
        self.rank = rank

    @property
    def lam(self):
        return self.source.lam

    @property
    def depth(self):
        return self.source.depth

    @property
    def rows(self):
        src = self.source
        return {lead: XiExpansion(src.lam, src.depth, src.ncomp, row)
                for lead, row in self.echelon.pivots.items()}

    def reduce(self, x):
        """Residual of x against the span up to a nonzero scale, inside
        the window."""
        if x.lead() not in self.echelon.pivots:
            return x
        self.source._compat(x)
        return XiExpansion(x.lam, x.depth, x.ncomp,
                           self.echelon.reduce(x.terms))


def xi_generate_module(phi):
    """Close the linear span of phi under a and b; certify the rank.

    Every inserted vector with a new pivot enqueues its two images,
    taken on the integer term dict of the pivot row.  The per-level
    pivot profile is non decreasing because both operators shift
    leading positions up one level; its value at the last level is the
    rank, provided the last growth happened far enough below the
    truncation depth.  Otherwise the window cannot tell whether another
    chain was about to appear and TruncationTooSmall is raised.  A top
    log power J alone settles that before the closure: the log
    filtration of the module has d = J + 1, so its rank is at least
    J + 1, and certifying rank r takes depth r + 2 or more.
    """
    if phi.is_zero():
        raise SemanticError("the zero expansion generates nothing")
    lam, depth = phi.lam, phi.depth
    top = max(j for (_, _, j) in phi.terms)
    if top + 3 > depth:
        raise TruncationTooSmall(
            "log^%d generates rank at least %d, which depth %d cannot "
            "certify; the bound needs --order %d or more"
            % (top, top + 1, depth, top + 3)
        )
    ech = Echelon(_poskey)
    queue = [phi.terms]
    while queue:
        lead = ech.insert(queue.pop())
        if lead is not None:
            row = ech.pivots[lead]
            queue += [_times_s(row, depth), _integrate(row, lam, depth)[0]]
    per_level = [0] * depth
    for (_, m, _) in ech.pivots:
        per_level[m] += 1
    rank, last_growth, certified = certified_rank(per_level)
    if not certified:
        raise TruncationTooSmall(
            "pivot profile still grows at level %d of %d; cannot certify "
            "rank %d; rerun with --order %d"
            % (last_growth, depth, rank, last_growth + rank + 2)
        )
    return XiSpan(phi, ech, rank)


def xi_log_filtration(span):
    """Ranks of the sub-modules cut out by log degree, plus d(E).

    S_j collects the elements using log powers below j.  The returned
    dict has 'ranks', the tuple rank S_1 .. rank S_(maxlog+1), and 'd',
    the least j with rank S_j equal to the full rank.

    The log-first echelon takes the span rows in reverse insertion
    order: the long b-chain of the top log power, inserted first, then
    reduces against the short rows of the lower logs instead of growing
    them.  The pivot set, hence every rank and d, depends on the span
    alone, not on the order.
    """
    depth = span.depth
    # splitting by the highest log power present needs an echelon that
    # eliminates high logs first
    ech = Echelon(_logkey)
    groups = {}
    for v in reversed(span.echelon.pivots.values()):
        lead = ech.insert(v)
        if lead is not None:
            groups.setdefault(lead[2], []).append(ech.pivots[lead])
    total = max(groups) + 1 if groups else 1
    level_ech = Echelon(_poskey)
    per_level = [0] * depth
    ranks = []
    d = None
    for cut in range(total):
        for v in groups.get(cut, ()):
            lead = level_ech.insert(v)
            if lead is not None:
                per_level[lead[1]] += 1
        rank, last, certified = certified_rank(per_level)
        if rank and not certified:
            raise TruncationTooSmall(
                "log filtration has not stabilised at depth %d; rerun "
                "with --order %d" % (depth, last + rank + 2)
            )
        ranks.append(rank)
        if d is None and rank == span.rank:
            d = cut + 1
    if d is None:
        raise AssertionError("filtration never reaches the full rank")
    return {"ranks": tuple(ranks), "d": d}


def _annihilator_from_span(span):
    """Monic normal-order annihilator of the source, degree = rank.

    The coefficient of a^j b^i acts on the generator between levels
    vlo + j + i and vhi + j + i, where vlo and vhi are the lowest and
    highest shifts in the generator's support.  Unknowns with
    j + i <= depth - 1 - vhi are fully visible, and rows up to level
    vlo + (depth - 1 - vhi) are free of dropped-coefficient
    contamination.  Coefficients are only trusted to order
    depth - rank - vhi - (vhi - vlo): the crust of unknowns above that
    sees too few independent rows, so it is solved with slack and
    truncated away.
    """
    phi = span.source
    r = span.rank
    depth = span.depth
    vlo = min(m for (_, m, _) in phi.terms)
    vhi = max(m for (_, m, _) in phi.terms)
    top_ji = depth - 1 - vhi
    mmax = top_ji + vlo
    ordc = depth - r - vhi - (vhi - vlo)
    # the Bernstein polynomial reads the b^r coefficient
    if ordc < max(r, 2):
        raise NotMonogenicAtTruncation(
            "depth %d leaves no room for a degree-%d annihilator; rerun "
            "with --order %d, which leaves room for it and its %d unit "
            "peels" % (depth, r, _peel_depth(r, depth, ordc), r)
        )
    # both operators only raise levels, so nothing above mmax is needed;
    # the chain b^i phi runs on integers, scales[i] times the true one
    w = {}
    shifted, s0 = integral(phi.terms)
    scales = [s0]
    for i in range(top_ji + 1):
        if i:
            shifted, D = _integrate(shifted, phi.lam, mmax + 1)
            g = gcd(*shifted.values())
            shifted = {p: x // g for p, x in shifted.items()}
            scales.append(scales[-1] * Fraction(D, g))
        cur = shifted
        for m in range(r):
            if m + i <= top_ji:
                w[(m, i)] = cur
            cur = _times_s(cur, mmax + 1)
        if i == 0:
            top = cur
    # interior columns first so slack at the crust never steals a pivot
    cols = sorted(w, key=lambda c: (c[0] + c[1], c))
    pivots, y = solve([w[col] for col in cols],
                      {p: -x for p, x in top.items()}, _poskey)
    pivots = set(pivots)
    for c, col in enumerate(cols):
        if c not in pivots and col[1] <= ordc:
            raise NotMonogenicAtTruncation(
                "annihilator coefficient %s is undetermined" % (col,)
            )
    if y is None:
        raise NotMonogenicAtTruncation(
            "no annihilator of degree %d at depth %d" % (r, depth)
        )
    # sum_c y_c scales[i] a^m b^i phi = -s0 a^r phi
    sol = {col: yc * scales[col[1]] / s0 for col, yc in zip(cols, y)}
    coeffs = []
    for m in range(r):
        coeffs.append(SeriesB([sol.get((m, i), Fraction(0))
                               for i in range(ordc + 1)], ordc))
    return AbElement(coeffs + [SeriesB.one(ordc)])


def _bernstein_invariants(ann, lam, r, bound):
    """Principal invariants read off the Bernstein polynomial of ann.

    The homogeneous part sum_m h_m a^m b^(r-m) of the monic ann sends
    the generator of the rank-1 module a e = mu b e to P(mu) b^r e with
    P(mu) = sum_m h_m (mu+r-m)...(mu+r-1).  For (a - l_1 b)...(a - l_r b)
    it is prod_j (mu - l_j - j + r), so the invariants l_j + j are the
    roots of P plus r.  Its roots lam + n, n <= bound, are divided out
    synthetically one at a time.
    """
    # P nested: Q_r = 1, Q_m = h_m + (mu+r-1-m) Q_(m+1), P = Q_0; the
    # coefficients are kept highest power first
    poly = [Fraction(1)]
    for m in range(r - 1, -1, -1):
        shift = r - 1 - m
        poly = [x + shift * y for x, y in zip(poly + [0], [0] + poly)]
        poly[-1] += ann.coeff_series(m).coeff(r - m)
    invariants = []
    n = 0
    while len(invariants) < r:
        if n > bound:
            raise NotMonogenicAtTruncation(
                "initial form has no right root in the exponent class"
            )
        mu = lam + n
        horner = list(accumulate(poly, lambda acc, c: acc * mu + c))
        if horner[-1]:
            n += 1
        else:
            poly = horner[:-1]
            invariants.append(mu + r)
    return invariants


def _remainders(ann, mu, k, tmax):
    """rho(i, n): the b^(k+n) coefficient of rho_i = ann.(b^i e).

    In the rank-1 module a e = mu b e one has a^m b^s e =
    (mu+s)...(mu+s+m-1) b^(s+m) e, so rho_i is the remainder of ann b^i
    by (a - mu b) and its b^N coefficient is sum_m W[N][m] c_(m,N-m-i)
    with weights W[N][m] = (mu+N-m)...(mu+N-1) that do not depend on i.
    One table for N = k..k+tmax serves every remainder.
    """
    cs = [c.coeffs for c in ann.coeffs]
    W = [list(accumulate(range(1, len(cs)), lambda w, m: w * (mu + N - m),
                         initial=Fraction(1)))
         for N in range(k, k + tmax + 1)]

    def rho(i, n):
        top = k + n - i
        return sum(w * c[top - m] for m, (w, c) in enumerate(zip(W[n], cs))
                   if m <= top)
    return rho


def _peel_depth(r, depth, ordc):
    """Least depth whose annihilator leaves room for all r unit peels.

    The annihilator's order ordc rises one for one with the depth; the
    peel of factor k leaves a quotient known to k orders less, and the
    last peel needs one order left.
    """
    return depth + 1 + r * (r + 1) // 2 - ordc


def _peel_unit(ann, mu, k):
    """Factor ann T = Q (a - mu b) with T a unit, T(0) = 1.

    The remainders rho_i = ann.(b^i e) of ann b^i by (a - mu b) sit in
    b^(k+i) C[[b]], which makes the linear system for the t_i
    triangular with one resonant row; the resonant coefficient is
    pinned to 0 and its row must close.  The coefficients of the rho_i
    are read off one table of weights (_remainders), on plain Fractions.
    Q comes off ann T = sum a^m s_m by synthetic division: as
    S a = a S - b^2 S', q_(deg-1) = s_deg, q_(m-1) = s_m + d(q_m) and
    the remainder is s_0 + d(q_0), for d(f) = b^2 f' + mu b f.  T and
    Q are known to k orders less than ann; model_from_xi checks that
    every peel keeps at least one.
    """
    tmax = min(c.order for c in ann.coeffs) - k
    rho = _remainders(ann, mu, k, tmax)
    if rho(0, 0):
        raise NotMonogenicAtTruncation(
            "%s is not a right root of the annihilator" % mu
        )
    t = [Fraction(1)]
    for n in range(1, tmax + 1):
        acc = sum((t[i] * rho(i, n) for i in range(n)), Fraction(0))
        dn = rho(n, n)
        if acc and not dn:
            raise NotMonogenicAtTruncation(
                "unit peel at exponent %s is obstructed in slot %d" % (mu, n)
            )
        t.append(-acc / dn if dn else Fraction(0))
    unit = SeriesB(t, tmax)
    q = [ann.coeffs[-1] * unit]
    for c in reversed(ann.coeffs[:-1]):
        q.append(c * unit + _D(q[-1]) + (q[-1] * mu).shift(1))
    if q.pop():
        raise AssertionError("peel remainder should vanish")
    return unit, AbElement(q[::-1])


def model_from_xi(span):
    """Presentation of the module generated by the source expansion.

    Chain: monic annihilator of the generator, solved on the sparse
    echelon of linalg; the rational roots of its Bernstein polynomial,
    giving the principal invariants; then one unit peel per factor
    from the right, its remainders read off one table of weights of the
    rank-1 action a e = mu b e instead of trial divisions by
    (a - mu b), and its quotient by synthetic division.  The result is
    cross-checked against the annihilator before it is returned.
    """
    r = span.rank
    ann = _annihilator_from_span(span)
    ordc = min(c.order for c in ann.coeffs)
    if ordc < 1 + r * (r + 1) // 2:
        raise NotMonogenicAtTruncation(
            "no room left to peel a unit: depth %d knows the annihilator "
            "to order %d, its %d peels need %d; rerun with --order %d"
            % (span.depth, ordc, r, 1 + r * (r + 1) // 2,
               _peel_depth(r, span.depth, ordc))
        )
    invariants = _bernstein_invariants(ann, span.lam, r, span.depth + r)
    lambdas = [inv - j for j, inv in enumerate(sorted(invariants), start=1)]
    cur, units = ann, []
    for j in range(r, 0, -1):
        unit, cur = _peel_unit(cur, lambdas[j - 1], j)
        units.insert(0, unit)
    if cur.degree != 0 or not cur.coeff_series(0).is_unit():
        raise AssertionError("peeling left a non-unit of degree %d"
                             % cur.degree)
    order = min(u.order for u in units)
    p = Presentation(
        [(lam, u.truncate(order)) for lam, u in zip(lambdas, units)]
    )
    check = monicize(expand_factor_form(p.factors, order))
    avail = min(order, min(c.order for c in ann.coeffs)) - 1
    if not check.same_upto(ann, avail):
        raise AssertionError("reconstructed presentation disagrees "
                             "with the annihilator")
    return p
