"""Formal expansions in one exponent class and their generated modules.

An expansion is a finite sum of terms c s^(lam+m-1) (Log s)^j v_q with
rational c, a fixed class representative lam in (0,1], a shift m below
the truncation depth, a log power j, and an abstract component index q.
The operator a is multiplication by s, so a pure shift m -> m+1; the
operator b integrates from 0, which also shifts but sheds log powers:

    b:  s^(mu-1) Log^j  |->  s^mu sum_i (-1)^(j-i) (j!/i!) mu^(i-j-1) Log^i

with mu = lam + m > 0, so every division is exact.  Both operators act
componentwise and only ever raise m, which keeps everything below the
truncation depth exact.
"""

from fractions import Fraction

from .algebra import AbElement, expand_factor_form, initial_form, left_divide, monicize
from .errors import (
    NotMonogenicAtTruncation,
    SemanticError,
    TruncationTooSmall,
)
from .fresco import validate_presentation
from .linalg import Echelon, axpy, certified_rank, solve
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


class XiExpansion:
    """Sparse exact expansion; terms maps (comp, m, j) to a coefficient."""

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
        out = {}
        for (comp, m, j), c in (terms or {}).items():
            c = rat(c)
            if not 1 <= comp <= ncomp:
                raise SemanticError("component %s out of range" % comp)
            if j < 0:
                raise SemanticError("negative log power")
            if m < 0:
                raise SemanticError(
                    "shift %d below the class representative" % m
                )
            if c and m < depth:
                out[(comp, m, j)] = c
        self.terms = out

    @classmethod
    def term(cls, lam, m, j, depth, coeff=1, comp=1, ncomp=1):
        return cls(lam, depth, ncomp, {(comp, m, j): rat(coeff)})

    def _compat(self, other):
        if (self.lam, self.depth, self.ncomp) != \
                (other.lam, other.depth, other.ncomp):
            raise SemanticError("expansions live in different spaces")

    def is_zero(self):
        return not self.terms

    def maxlog(self):
        return max((j for (_, _, j) in self.terms), default=0)

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
        out = {}
        for (comp, m, j), c in self.terms.items():
            if m + 1 < self.depth:
                out[(comp, m + 1, j)] = c
        return XiExpansion(self.lam, self.depth, self.ncomp, out)

    def apply_b(self):
        """Integrate from 0: shift up and shed log powers."""
        out = {}
        for (comp, m, j), c in self.terms.items():
            if m + 1 >= self.depth:
                continue
            mu = self.lam + m
            f = Fraction(1) / mu
            for i in range(j, -1, -1):
                pos = (comp, m + 1, i)
                w = out.get(pos, Fraction(0)) + c * f
                if w:
                    out[pos] = w
                elif pos in out:
                    del out[pos]
                f = f * (-i) / mu
        return XiExpansion(self.lam, self.depth, self.ncomp, out)

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


def xi_apply_element(u, x):
    """Apply a normal-order element sum a^m c_m(b) to an expansion.

    The series acts first, the a-power after, slot by slot.  Series
    coefficients past their known order are dropped, so the result is
    only trustworthy where those could not reach.
    """
    out = XiExpansion(x.lam, x.depth, x.ncomp, {})
    for m in range(u.degree + 1):
        c = u.coeff_series(m)
        y = XiExpansion(x.lam, x.depth, x.ncomp, {})
        shifted = x
        for i in range(min(c.order, x.depth - 1) + 1):
            co = c.coeff(i)
            if co:
                y = y + shifted.scale(co)
            shifted = shifted.apply_b()
        for _ in range(m):
            y = y.apply_a()
        out = out + y
    return out


class XiSpan:
    """The module generated by an expansion, as an echelon.

    rows maps each pivot position to a vector of the span, scaled to 1
    at that position with every other term after it in generation
    order; the span of the rows is the full orbit of the source under a
    and b inside the truncation window.  The rank is the per-level
    pivot count after it has stabilized: every chain contributes one
    pivot per level from its first appearance on, so the count at the
    last level is the module rank once no chain starts close to the
    window edge.
    """

    def __init__(self, source, rows, rank):
        self.source = source
        self.rows = rows
        self.rank = rank
        self._echelon = Echelon(
            _poskey, {pos: row.terms for pos, row in rows.items()})

    @property
    def lam(self):
        return self.source.lam

    @property
    def depth(self):
        return self.source.depth

    def reduce(self, x):
        """Residual of x against the span, inside the window."""
        if x.lead() not in self.rows:
            return x
        self.source._compat(x)
        return XiExpansion(x.lam, x.depth, x.ncomp,
                           self._echelon.reduce(x.terms))

    def contains(self, x):
        return self.reduce(x).is_zero()


def xi_generate_module(phi):
    """Close the linear span of phi under a and b; certify the rank.

    Every inserted vector with a new pivot enqueues its two images.
    The per-level pivot profile is non decreasing because both
    operators shift leading positions up one level; its value at the
    last level is the rank, provided the last growth happened far
    enough below the truncation depth.  Otherwise the window cannot
    tell whether another chain was about to appear and
    TruncationTooSmall is raised.
    """
    if phi.is_zero():
        raise SemanticError("the zero expansion generates nothing")
    depth = phi.depth
    ech = Echelon(_poskey)
    rows = {}
    queue = [phi]
    while queue:
        lead = ech.insert(queue.pop().terms)
        if lead is not None:
            x = XiExpansion(phi.lam, depth, phi.ncomp, ech.pivots[lead])
            rows[lead] = x
            queue.append(x.apply_a())
            queue.append(x.apply_b())
    per_level = [0] * depth
    for (_, m, _) in rows:
        per_level[m] += 1
    rank, last_growth, certified = certified_rank(per_level)
    if not certified:
        raise TruncationTooSmall(
            "pivot profile still grows at level %d of %d; cannot certify "
            "rank %d" % (last_growth, depth, rank)
        )
    return XiSpan(phi, rows, rank)


def xi_log_filtration(span):
    """Ranks of the sub-modules cut out by log degree, plus d(E).

    S_j collects the elements using log powers below j.  The returned
    dict has 'ranks', the tuple rank S_1 .. rank S_(maxlog+1), and 'd',
    the least j with rank S_j equal to the full rank.
    """
    depth = span.depth
    # splitting by the highest log power present needs an echelon that
    # eliminates high logs first
    ech = Echelon(_logkey)
    groups = {}
    for v in span.rows.values():
        lead = ech.insert(v.terms)
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
        rank, _, certified = certified_rank(per_level)
        if rank and not certified:
            raise TruncationTooSmall(
                "log filtration has not stabilised at depth %d" % depth
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
    if ordc < 2:
        raise NotMonogenicAtTruncation(
            "depth %d leaves no room for a degree-%d annihilator"
            % (depth, r)
        )
    w = {}
    shifted = phi
    for i in range(top_ji + 1):
        cur = shifted
        for m in range(r):
            if m + i <= top_ji:
                w[(m, i)] = cur
            cur = cur.apply_a()
        if i == 0:
            top = cur
        shifted = shifted.apply_b()
    # interior columns first so slack at the crust never steals a pivot
    cols = sorted(w, key=lambda c: (c[0] + c[1], c))
    positions = set()
    for x in list(w.values()) + [top]:
        positions.update(p for p in x.terms if p[1] <= mmax)
    rows = sorted(positions, key=_poskey)
    pivots, z = solve(
        [[w[c].terms.get(pos, Fraction(0)) for c in cols] for pos in rows],
        [-top.terms.get(pos, Fraction(0)) for pos in rows])
    pivots = set(pivots)
    for c, col in enumerate(cols):
        if c not in pivots and col[1] <= ordc:
            raise NotMonogenicAtTruncation(
                "annihilator coefficient %s is undetermined" % (col,)
            )
    if z is None:
        raise NotMonogenicAtTruncation(
            "no annihilator of degree %d at depth %d" % (r, depth)
        )
    sol = dict(zip(cols, z))
    coeffs = []
    for m in range(r):
        coeffs.append(SeriesB([sol.get((m, i), Fraction(0))
                               for i in range(ordc + 1)], ordc))
    return AbElement(coeffs + [SeriesB.one(ordc)])


def _roots_from_initial_form(h, lam, r, bound):
    """Peel linear right factors off a homogeneous form, all orders.

    Right division by (a - mu b) leaves a scalar multiple of b^r; mu is
    extractable when that scalar vanishes.  Each peel at remaining
    degree d contributes the invariant mu + d.
    """
    invariants = []
    cur = h
    for stage in range(r):
        d = r - stage
        for n in range(bound + 1):
            mu = lam + n
            q, rem = left_divide(cur, AbElement.linear(mu, r + 2))
            if rem.coeff_series(0).valuation() is None:
                invariants.append(mu + d)
                cur = q
                break
        else:
            raise NotMonogenicAtTruncation(
                "initial form has no right root in the exponent class"
            )
    return invariants


def _peel_unit(ann, mu, k):
    """Factor ann T = Q (a - mu b) with T a unit, T(0) = 1.

    The remainders rho_i of ann b^i sit in b^(k+i) C[[b]], which makes
    the linear system for the t_i triangular with one resonant row; the
    resonant coefficient is pinned to 0 and its row must close.
    """
    ordc = min(c.order for c in ann.coeffs)
    tmax = ordc - k
    if tmax < 1:
        raise NotMonogenicAtTruncation("no room left to peel a unit")
    div = AbElement.linear(mu, ordc + 2)
    rho = []
    for i in range(tmax + 1):
        shifted = AbElement([c.shift(i) for c in ann.coeffs])
        _, rem = left_divide(shifted, div)
        rho.append(rem.coeff_series(0))
    if rho[0].coeff(k):
        raise NotMonogenicAtTruncation(
            "%s is not a right root of the annihilator" % mu
        )
    t = [Fraction(1)]
    for n in range(1, tmax + 1):
        acc = Fraction(0)
        for i in range(n):
            acc += t[i] * rho[i].coeff(k + n)
        dn = rho[n].coeff(k + n)
        if dn:
            t.append(-acc / dn)
        else:
            if acc:
                raise NotMonogenicAtTruncation(
                    "unit peel at exponent %s is obstructed in slot %d"
                    % (mu, n)
                )
            t.append(Fraction(0))
    unit = SeriesB(t, tmax)
    scaled = AbElement([(ann.coeff_series(m) * unit).truncate(tmax)
                        for m in range(ann.degree + 1)])
    q, rem = left_divide(scaled, AbElement.linear(mu, tmax))
    for m in range(rem.degree + 1):
        if rem.coeff_series(m).valuation() is not None:
            raise AssertionError("peel remainder should vanish")
    return unit, q


def model_from_xi(span):
    """Presentation of the module generated by the source expansion.

    Chain: monic annihilator of the generator, roots of its initial
    form giving the principal exponents, then one unit peel per factor
    from the right.  The result is cross-checked against the
    annihilator before it is returned.
    """
    phi = span.source
    r = span.rank
    ann = _annihilator_from_span(span)
    h = initial_form(ann, r)
    invariants = _roots_from_initial_form(h, span.lam, r, span.depth + r)
    lambdas = [inv - j for j, inv in enumerate(sorted(invariants), start=1)]
    cur = ann
    units = [None] * r
    for j in range(r, 0, -1):
        unit, cur = _peel_unit(cur, lambdas[j - 1], j)
        units[j - 1] = unit
    if cur.degree != 0 or not cur.coeff_series(0).is_unit():
        raise AssertionError("peeling left a non-unit of degree %d"
                             % cur.degree)
    order = min(u.order for u in units)
    p = validate_presentation(
        [(lam, u.truncate(order)) for lam, u in zip(lambdas, units)]
    )
    check = monicize(expand_factor_form(p.factors, order))
    avail = min(order, min(c.order for c in ann.coeffs)) - 1
    if not check.same_upto(ann, avail):
        raise AssertionError("reconstructed presentation disagrees "
                             "with the annihilator")
    return p
