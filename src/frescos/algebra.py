"""Noncommutative operator algebra with the relation a b - b a = b^2.

Elements are kept in the canonical normal order sum_m a^m c_m(b) with
the a-powers on the left and the series coefficients on the right.
Pushing a series left past a power of a uses the rule

    S a = a S - b^2 S'

iterated into  S a^n = sum_i (-1)^i C(n,i) a^{n-i} D^i(S)  where
D(S) = b^2 S'.  D raises the known order by one, so normal ordering
never erodes series precision.  normal_form_mul adds every such term
into its slot on integer numerators over one common denominator and
builds each slot once, with one content gcd: it forms no series
product and no series sum.

For a unit S the same rule moves S^-1 left past one factor:

    (a - l b) S^-1 = S^-1 (a - l b - b^2 S'/S).

Moving every unit of (a - l_1 b) S_1^-1 ... (a - l_k b) S_k^-1 to the
left therefore gives (S_1 ... S_k)^-1 (a - c_1) ... (a - c_k) with

    c_j = l_j b + sum_(i >= j) b^2 S_i'/S_i,

a telescoped sum of the adapted model's diagonals.  The monic
expansion, the left ideal's generator with top coefficient 1, is the
product (a - c_1) ... (a - c_k) itself: monic_expansion builds it so,
with no inverse of the top coefficient and no normal_form_mul.  As
A a = a A - D(A), a right factor a - c turns slot m of the product so
far into A_(m-1) - D(A_m) - A_m c: one dense product per slot and
factor, on integer numerators over one denominator, and one content
gcd per slot at the end.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .errors import OrderUnderflow
from .series import SeriesB, _pairs, _terms, rat

_UNDERFLOW = "series known only to order 0 cannot cross a"


def _D(s):
    """b^2 d/db, the correction picked up when a series crosses one a."""
    if s.order == 0:
        raise OrderUnderflow(_UNDERFLOW)
    return SeriesB._lowest([0] + [i * x for i, x in enumerate(s.nums)],
                           s.den, s.order + 1)


class AbElement:
    """A finite sum a^m c_m(b) in canonical normal order.

    The coefficient of the top a-power is nonzero (as far as its
    truncation shows) unless the element has degree 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        if not cs:
            cs = [SeriesB.zero(0)]
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # --- constructors ---

    @classmethod
    def from_series(cls, s):
        """Embed a series as a degree-0 element."""
        return cls([s])

    @classmethod
    def linear(cls, lam, order):
        """The factor a - lam*b."""
        return cls([SeriesB.monomial(-rat(lam), 1, order), SeriesB.one(order)])

    # --- access ---

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff_series(self, m):
        """Coefficient of a^m; exact zero past the degree."""
        if m > self.degree:
            return SeriesB.zero(self.coeffs[0].order)
        return self.coeffs[m]

    # --- ring operations ---

    def _zip(self, other):
        n = max(self.degree, other.degree)
        return ((self.coeff_series(m), other.coeff_series(m)) for m in range(n + 1))

    def __add__(self, other):
        if not isinstance(other, AbElement):
            return NotImplemented
        return AbElement([x + y for x, y in self._zip(other)])

    def __sub__(self, other):
        if not isinstance(other, AbElement):
            return NotImplemented
        return AbElement([x - y for x, y in self._zip(other)])

    def __neg__(self):
        return AbElement([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, SeriesB):
            other = AbElement.from_series(other)
        if not isinstance(other, AbElement):
            return NotImplemented
        return normal_form_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, SeriesB):
            return normal_form_mul(AbElement.from_series(other), self)
        return NotImplemented

    def __truediv__(self, other):
        """Right division by a unit series: sum a^m (c_m / other)."""
        if not isinstance(other, SeriesB):
            return NotImplemented
        return AbElement([c / other for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, AbElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def same_upto(self, other, n):
        """Slotwise agreement of all coefficients of b^0..b^n."""
        top = max(self.degree, other.degree)
        return all(
            self.coeff_series(m).same_upto(other.coeff_series(m), n)
            for m in range(top + 1)
        )

    def __str__(self):
        return format_ab(self)

    def __repr__(self):
        return "AbElement<deg %d>" % self.degree


def normal_form_mul(u, v):
    """Product of two normal forms, again in normal order.

    a^m c_m times a^n d_n is sum_i (-1)^i C(n,i) a^(m+n-i) D^i(c_m) d_n,
    and D^i moves the b^k term of c_m to b^(k+i) times k(k+1)..(k+i-1).
    Every term adds into its slot as integers: the c_m over the lcm of
    u's denominators, the d_n over that of v's, so each slot sits over
    their product.  A slot is known to the least order of the terms
    that reach it and takes one content gcd at the end; a slot no term
    reaches is zero at the least order of u and v.  A nonzero c_m known
    only to order 0 cannot cross the a of a nonzero d_n, n >= 1.
    """
    cs = [(m, c) for m, c in enumerate(u.coeffs) if c]
    ds = [(n, d) for n, d in enumerate(v.coeffs) if d]
    if ds and ds[-1][0] and any(c.order == 0 for _, c in cs):
        raise OrderUnderflow(_UNDERFLOW)
    orders = [None] * (u.degree + v.degree + 1)
    for m, c in cs:
        for n, d in ds:
            for i in range(n + 1):
                o, k = min(c.order + i, d.order), m + n - i
                if orders[k] is None or o < orders[k]:
                    orders[k] = o
    out = [None if o is None else [0] * (o + 1) for o in orders]
    du = lcm(*[c.den for _, c in cs])
    dv = lcm(*[d.den for _, d in ds])
    top = max([o for o in orders if o is not None], default=0) + 1
    dterms = [(n, _terms(d, top, dv // d.den)) for n, d in ds]
    for m, c in cs:
        # D^i(c_m) for i = 0, 1, ...: each D drops b^0 and moves b^k to
        # b^(k+1) times k
        dics = [_terms(c, top, du // c.den)]
        for n, dl in dterms:
            while len(dics) <= n:
                dics.append([(k + 1, k * x) for k, x in dics[-1] if k])
            for i in range(n + 1):
                xs, ys = dics[i], dl
                if len(xs) > len(ys):
                    xs, ys = ys, xs
                w = -comb(n, i) if i % 2 else comb(n, i)
                if w != 1:
                    xs = [(k, w * x) for k, x in xs]
                _pairs(xs, ys, out[m + n - i])
    order0 = min(c.order for c in u.coeffs + v.coeffs)
    return AbElement([SeriesB.zero(order0) if x is None
                      else SeriesB._lowest(x, du * dv, o)
                      for x, o in zip(out, orders)])


def monic_expansion(factors, order):
    """The monic generator of the left ideal of
    (a - l_1 b) S_1^-1 ... (a - l_k b) S_k^-1, built as
    (a - c_1) ... (a - c_k) (see the module docstring).

    factors is a sequence of (lambda, unit) pairs.  Every slot of the
    result is known to order, its top coefficient is 1.  The slots are
    integer numerators over one denominator, the product of the dc: a
    right factor a - c with c = C / dc makes slot m dc A_(m-1) - dc
    D(A_m) - A_m C, one dense pair product per slot, and each slot takes
    one content gcd at the end.  order < 1, or a unit known to less than
    order, raises OrderUnderflow.
    """
    factors = tuple(factors)
    logs = [_b2_log_derivative(unit, order) for _, unit in factors]
    # c_k, ..., c_1: each tail is the sum over i >= j
    cs = [SeriesB.monomial(lam, 1, order) + tail for (lam, _), tail
          in zip(reversed(factors), accumulate(reversed(logs)))]
    # the slots A_m of the product so far, numerators over den
    slots, den = [list(SeriesB.one(order).nums)], 1
    for c in reversed(cs):
        dc, neg = c.den, [(i, -x) for i, x in _terms(c, order + 1)]
        new = [[0] * (order + 1)] + [[dc * x for x in a] for a in slots]
        for a, out in zip(slots, new):
            terms = [(i, x) for i, x in enumerate(a) if x]
            for i, x in terms:
                if 0 < i < order:
                    out[i + 1] -= dc * i * x
            _pairs(terms, neg, out)
        slots, den = new, den * dc
    return AbElement([SeriesB._lowest(x, den, order) for x in slots])


def _b2_log_derivative(unit, order):
    """b^2 S'/S for a unit S, known to order >= 1: the part of each
    c_j of monic_expansion that S contributes."""
    if order < 1:
        raise OrderUnderflow(
            "b^2 S'/S needs order at least 1, got %d" % order)
    u = _fit(unit, order)
    return _D(u) / u


def _fit(s, order):
    """View s at exactly the requested order."""
    if s.order == order:
        return s
    if s.order > order:
        return s.truncate(order)
    raise OrderUnderflow(
        "series known to order %d, need %d" % (s.order, order)
    )


def initial_form(u, k):
    """The (a,b)-homogeneous part of total degree k.

    Picks the b^(k-m) coefficient out of each a^m slot.  For the
    expansion of a geometric presentation of rank k this is its
    Bernstein element.
    """
    slots = []
    for m in range(min(u.degree, k) + 1):
        c = u.coeff_series(m).coeff(k - m) if k - m >= 0 else Fraction(0)
        slots.append(SeriesB.monomial(c, k - m, k) if c else SeriesB.zero(k))
    return AbElement(slots)


def format_ab(u):
    """Render like 'a^2 - 6 a b + 45/4 b^2' (a-degree descending)."""
    parts = []
    for m in range(u.degree, -1, -1):
        for nu, x in enumerate(u.coeff_series(m).coeffs):
            if x == 0:
                continue
            mag = abs(x)
            bits = []
            if mag != 1 or (m == 0 and nu == 0):
                bits.append(str(mag))
            if m == 1:
                bits.append("a")
            elif m > 1:
                bits.append("a^%d" % m)
            if nu == 1:
                bits.append("b")
            elif nu > 1:
                bits.append("b^%d" % nu)
            body = " ".join(bits)
            if not parts:
                parts.append(body if x > 0 else "-" + body)
            else:
                parts.append(("+ " if x > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


# --- the commuting identities ---
#
# These are checked, not assumed: the callers report pass/fail.

def check_exchange(x, y, order):
    """(a - x b)(a - y b) = (a - (y+1) b)(a - (x-1) b), any x, y."""
    x, y = rat(x), rat(y)
    lhs = AbElement.linear(x, order) * AbElement.linear(y, order)
    rhs = AbElement.linear(y + 1, order) * AbElement.linear(x - 1, order)
    return lhs.same_upto(rhs, order)


def check_unit_exchange(lam1, p1, rho, order):
    """The exchange with U = 1 + rho b^p1 across (a - l1 b)(a - l2 b).

    l2 = l1 + p1 - 1.  Claims
    (a - l1 b)(a - l2 b) = U^-1 (a - (l2+1) b) U^2 (a - (l1-1) b) U^-1.
    """
    lam1, rho = rat(lam1), rat(rho)
    lam2 = lam1 + p1 - 1
    u = SeriesB.one(order) + SeriesB.monomial(rho, p1, order)
    ui = AbElement.from_series(u.invert())
    u2 = AbElement.from_series(u * u)
    lhs = AbElement.linear(lam1, order) * AbElement.linear(lam2, order)
    rhs = ui * AbElement.linear(lam2 + 1, order) * u2 \
        * AbElement.linear(lam1 - 1, order) / u
    # inversion and division keep the known order, D raises it
    return lhs.same_upto(rhs, order)


def check_middle_unit_exchange(lam1, p1, p2, alpha, order):
    """The exchange across a sandwiched unit 1 + alpha b^p2.

    With l2 = l1 + p1 - 1, l3 = l2 + p2 - 1, W = 1 + alpha b^p2 and
    V = 1 + beta b^p2 for beta = (1 + p2/p1) alpha, claims

    (a - (l1-1) b) W^-1 (a - l3 b)
        = V^-1 (a - (l3+1) b) V^2 W^-1 (a - (l1-2) b) V^-1.
    """
    lam1, alpha = rat(lam1), rat(alpha)
    lam3 = lam1 + p1 + p2 - 2
    beta = (1 + Fraction(p2, p1)) * alpha
    w = SeriesB.one(order) + SeriesB.monomial(alpha, p2, order)
    v = SeriesB.one(order) + SeriesB.monomial(beta, p2, order)
    vi = AbElement.from_series(v.invert())
    v2 = AbElement.from_series(v * v)
    lhs = AbElement.linear(lam1 - 1, order) / w * AbElement.linear(lam3, order)
    rhs = vi * AbElement.linear(lam3 + 1, order) * v2 / w \
        * AbElement.linear(lam1 - 2, order) / v
    return lhs.same_upto(rhs, order)
