"""Presentations of frescos and the adapted module model.

A fresco of rank k is presented by a product

    (a - l_1 b) S_1^-1 (a - l_2 b) S_2^-1 ... (a - l_k b) S_k^-1

with rational exponents l_j and unit series S_j, S_j(0) = 1.  The
geometric condition l_j + j > k makes every root of the Bernstein
polynomial a negative rational.  The module has a basis e_1..e_k with
e_{j-1} = (a - l_j b) S_j^-1 e_j, e_0 = 0, and e_k its generator.  The
adapted model works on f_j = S_j^-1 e_j, where that chain reads

    a f_j = l_j b f_j + S_{j-1} f_{j-1},      f_0 = 0,

so it needs no log-derivative and no inverse of a unit.
Back from a monic annihilator of e_k, presentation_from_annihilator
reads the l_j off its Bernstein roots and peels one S_j at a time.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from .algebra import (
    _UNDERFLOW,
    AbElement,
    _fit,
    initial_form,
    monic_expansion,
)
from .errors import (
    IndexOutOfRange,
    MixedPrimitiveClasses,
    NonUnitSeries,
    NotAGenerator,
    NotGeometric,
    NotMonogenicAtTruncation,
    OrderUnderflow,
    SemanticError,
)
from .series import SeriesB, rat


class Presentation:
    """An ordered list of (exponent, unit) factors defining a fresco.

    Checked when built, however it is built, so every Presentation in
    hand is valid: at least one factor (else SemanticError), rational
    exponents with l_j + j > k (else NotGeometric), units that are series
    with constant term exactly 1 (else NonUnitSeries).  Non-primitive
    exponent lists are allowed; the flag is queried where it matters.
    """

    __slots__ = ("factors", "_p_values")

    def __init__(self, factors):
        self.factors = tuple((rat(l), u) for l, u in factors)
        k = len(self.factors)
        if k == 0:
            raise SemanticError("a presentation needs at least one factor")
        for j, (lam, unit) in enumerate(self.factors, start=1):
            # integer reads, so neither check builds a Fraction
            if lam <= k - j:
                raise NotGeometric(
                    "exponent %s at position %d violates lambda_j + j > %d"
                    % (lam, j, k)
                )
            if not isinstance(unit, SeriesB) or unit.nums[0] != unit.den:
                raise NonUnitSeries(
                    "unit at position %d must have constant term 1" % j
                )
        # immutable, so the steps are computed once: ints where integral
        ls = self.lambdas
        self._p_values = tuple(
            q + 1 if a.denominator == b.denominator and not r else b - a + 1
            for a, b in zip(ls, ls[1:])
            for q, r in [divmod(b.numerator - a.numerator, a.denominator)])

    @property
    def rank(self):
        return len(self.factors)

    @property
    def lambdas(self):
        return tuple(l for l, _ in self.factors)

    @property
    def units(self):
        return tuple(u for _, u in self.factors)

    def p_values(self):
        """p_j = l_{j+1} - l_j + 1 for j = 1..k-1, as Fractions."""
        return tuple(map(Fraction, self._p_values))

    def mu(self):
        return sum(self.lambdas, Fraction(0))

    def bernstein_roots(self):
        """-(l_j + j - k) for j = 1..k, in factor order."""
        k = self.rank
        return tuple(-(l + j - k) for j, l in enumerate(self.lambdas, 1))

    def is_primitive(self):
        """One class mod 1: every step p_j = l_(j+1) - l_j + 1 integral."""
        return all(type(p) is int for p in self._p_values)

    def is_principal(self):
        """l_j + j non decreasing, i.e. every p_j >= 0 an integer."""
        return all(type(p) is int and p >= 0 for p in self._p_values)

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return "Presentation(%s)" % ", ".join(
            "(%s | %s)" % (l, u) for l, u in self.factors
        )


def trivial_units(lambdas, order):
    """Presentation with all units 1 (used for Bernstein elements)."""
    return Presentation([(l, SeriesB.one(order)) for l in lambdas])


class BernsteinData:
    """Initial form of a presentation: factors, roots, and mu."""

    __slots__ = ("element", "roots", "mu")

    def __init__(self, element, roots, mu):
        self.element = element
        self.roots = roots
        self.mu = mu


def bernstein(p):
    """Bernstein element of a geometric presentation.

    The element is the product of the trivialized factors
    (a - l_1 b)...(a - l_k b); the roots of the Bernstein polynomial are
    -(l_j + j - k), all negative by the geometric condition.  The
    expansion consistency initial_form(monic_expansion(p), k) ==
    monic_expansion(element) is asserted on the way: every term of the
    expansion has (a,b)-degree >= k, and the monic generator differs
    from the product of the factors by a left unit 1 + O(b), which
    leaves the degree-k part alone.
    """
    k = p.rank
    avail = min(u.order for u in p.units)
    # the initial form reads b-coefficients up to b^k, so k is a hard floor
    order = max(k, min(max(2 * k, 4), avail))
    elem = trivial_units(p.lambdas, order=order)
    full = monic_expansion(p.factors, order)
    flat = monic_expansion(elem.factors, order)
    if not initial_form(full, k).same_upto(flat, k):
        raise AssertionError("initial form disagrees with the trivialized product")
    return BernsteinData(elem, tuple(sorted(p.bernstein_roots())), p.mu())


def fundamental_invariants(exponents):
    """Principal exponents from any Jordan-Hoelder exponent list.

    Sorts m_i + i into non decreasing order and subtracts the position
    back out; (7/2, 3/2) becomes (5/2, 5/2).
    """
    ms = [rat(x) for x in exponents]
    if any((m - ms[0]).denominator != 1 for m in ms):
        raise MixedPrimitiveClasses("exponents span several classes mod 1")
    shifted = sorted(m + i for i, m in enumerate(ms, start=1))
    return tuple(s - i for i, s in enumerate(shifted, start=1))


def _model_order(order):
    """order itself; below 1 neither the adapted model nor the reduction
    step, which reads the same units, has room."""
    if order < 1:
        raise OrderUnderflow(
            "the adapted model needs order at least 1, got %d" % order
        )
    return order


def _drift(h, c, n, rest):
    """b^2 H' + c b H + rest to order n, over one denominator: coordinate
    j of (a - lam b) x for c = l_j - lam, H = H_j and rest = S_j H_(j+1).
    b^2 H' + c b H has (i + c) h_i at b^(i+1), with integer weights
    i q + p over c = p/q; a zero H and a missing rest add no term.
    """
    parts = []
    if h:
        q = c.denominator
        weights = range(c.numerator, c.numerator + n * q, q)
        parts.append(([0, *map(mul, weights, h.nums)], h.den * q))
    if rest is not None:
        parts.append((rest.nums, rest.den))
    den = lcm(*[d for _, d in parts])
    total = [0] * (n + 1)
    for nums, d in parts:
        f = den // d
        total = [t + f * y for t, y in zip(total, nums)]
    return SeriesB._lowest(total, den, n)


class ModuleElement:
    """Element of an adapted model: coordinate series against f_1..f_k."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = list(coords)
        n = min(c.order for c in coords)
        self.coords = tuple(c if c.order == n else c.truncate(n) for c in coords)

    @property
    def order(self):
        return self.coords[0].order

    @property
    def rank(self):
        return len(self.coords)

    def coord(self, j):
        """1-based coordinate against f_j."""
        return self.coords[j - 1]

    def scale(self, s):
        return ModuleElement([s * c for c in self.coords])

    def __add__(self, other):
        return ModuleElement([x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return ModuleElement([x - y for x, y in zip(self.coords, other.coords)])

    def is_zero(self):
        return all(c.valuation() is None for c in self.coords)

    def __repr__(self):
        return "ModuleElement(%s)" % ", ".join(str(c) for c in self.coords)


class AdaptedModel:
    """The concrete C[[b]]-module attached to a presentation.

    Coordinates are series known to the model's order >= 1, against
    f_j = S_j^-1 e_j; an element with e-coordinates G_j has
    f-coordinates S_j G_j.  The first m basis vectors span the
    submodule F_m, which a maps to itself, so apply_a acts on an element
    of any F_m given by its m coordinates.
    """

    def __init__(self, presentation, order):
        self.presentation = presentation
        self.order = _model_order(order)
        self.sub = [_fit(unit, order) for unit in presentation.units]

    @property
    def rank(self):
        return self.presentation.rank

    def element(self, coords):
        if len(coords) != self.rank:
            raise ValueError("expected %d coordinates" % self.rank)
        return ModuleElement(coords)

    def apply_a(self, x, lam=0):
        """(a - lam b) x in one pass: coordinate j is the sum
        b^2 H_j' + (l_j - lam) b H_j + S_j H_{j+1} over one denominator,
        with no term for a zero H.  x lies in F_m for m = x.rank
        coordinates, and so does the result.
        """
        lam = rat(lam)
        n = min(self.order, x.order)
        out = []
        for j, (l, h, nxt) in enumerate(zip(self.presentation.lambdas,
                                            x.coords, x.coords[1:] + (None,))):
            rest = self.sub[j] * nxt if nxt else None
            out.append(_drift(h, l - lam, n, rest))
        return ModuleElement(out)

    def apply_b(self, x):
        return ModuleElement([c.shift(1) for c in x.coords])

    def apply_op(self, u, x):
        """Act by a normal form sum a^m c_m(b): each term is a^m (c_m x)."""
        out = None
        for m in range(u.degree + 1):
            c = u.coeff_series(m)
            if c.valuation() is None:
                continue
            t = x.scale(c)
            for _ in range(m):
                t = self.apply_a(t)
            out = t if out is None else out + t
        if out is None:
            return x.scale(SeriesB.zero(x.order))
        return out


def regenerate_presentation(model, g):
    """Read the presentation of the submodule <g> of F_k off g.

    g is given by its k coordinates H_j against f_1..f_k, k at most the
    model's rank, and is cut to the model's order on entry; the result
    uses the model's first k factors.  Walks stages m = k..1.  At each
    stage the new unit is Sigma_m = H_m / H_m(0); the next generator is
    (a - l_m b)(Sigma_m^-1 g) which lands in the span of f_1..f_{m-1}
    exactly.  Only its first m - 1 coordinates are divided: the top one,
    H_m / Sigma_m, is the constant H_m(0).  A vanishing constant term
    H_m(0) means g fails to generate and raises NotAGenerator.
    """
    coords = [c.truncate(min(c.order, model.order)) for c in g.coords]
    k = len(coords)
    if k > model.rank:
        raise ValueError("generator has %d coordinates, model rank is %d"
                         % (k, model.rank))
    lambdas = model.presentation.lambdas[:k]
    new_units = [None] * k
    for m in range(k, 0, -1):
        hm = coords[m - 1]
        c0 = hm.constant()
        if c0 == 0:
            raise NotAGenerator("coordinate %d has no constant term" % m)
        sigma = hm * (1 / c0)
        new_units[m - 1] = sigma
        if m == 1:
            break
        x = ModuleElement([c / sigma for c in coords[:m - 1]]
                          + [SeriesB([c0], hm.order)])
        y = model.apply_a(x, lambdas[m - 1])
        top = y.coord(m)
        if top.valuation() is not None:
            raise AssertionError("stage %d residue should vanish, got %s"
                                 % (m, top))
        coords = list(y.coords[: m - 1])
    order = min(u.order for u in new_units)
    return Presentation(
        [(lam, u.truncate(order)) for lam, u in zip(lambdas, new_units)]
    )


def sub_quotient(p, i, j):
    """Factors i..j of a principal presentation, as F_j / F_{i-1}.

    Geometric automatically: l_m + m > k >= j keeps every exponent
    above the smaller rank.
    """
    if not p.is_principal():
        raise SemanticError("sub-quotients are cut from the principal order")
    if not (1 <= i <= j <= p.rank):
        raise IndexOutOfRange("need 1 <= i <= j <= %d" % p.rank)
    return Presentation(p.factors[i - 1: j])


def twist(p, delta):
    """Shift every exponent by delta; rechecks the geometric bound."""
    d = rat(delta)
    return Presentation([(l + d, u) for l, u in p.factors])


def _bernstein_invariants(ann, lam):
    """Principal invariants read off the Bernstein polynomial of ann.

    The homogeneous part sum_m h_m a^m b^(r-m) of the monic ann of
    degree r sends the generator of the rank-1 module a e = mu b e to
    P(mu) b^r e with P(mu) = sum_m h_m (mu+r-m)...(mu+r-1).  For
    (a - l_1 b)...(a - l_r b) it is prod_j (mu - l_j - j + r), so the
    invariants l_j + j are the roots of P plus r.  On integers, P is held
    as D P (D the lcm of the denominators it reads); for lam = a/q a root
    lam + n = t/q, t = a + n q, is found by integer Horner on q^d P(t/q)
    and divided out by (q x - t), exactly by Gauss's lemma.  The d roots
    left sum to -P_1 / P_0; once d t P_0 > -P_1 q, i.e. d (lam + n)
    passes that sum, they cannot all lie at lam + n or above: refused.
    """
    # D P nested: Q_r = D, Q_m = D h_m + (mu+r-1-m) Q_(m+1), D P = Q_0;
    # the coefficients are kept highest power first
    r = ann.degree
    den = lcm(*[ann.coeff_series(m).den for m in range(r)])
    poly = [den]
    for m in range(r - 1, -1, -1):
        shift, h = r - 1 - m, ann.coeff_series(m)
        poly = [x + shift * y for x, y in zip(poly + [0], [0] + poly)]
        # coeff raises CoefficientBeyondOrder past the known order
        poly[-1] += h.nums[r - m] * (den // h.den) if r - m <= h.order \
            else h.coeff(r - m)
    invariants = []
    t, q = lam.numerator, lam.denominator
    while len(invariants) < r:
        if (len(poly) - 1) * t * poly[0] > -poly[1] * q:
            raise NotMonogenicAtTruncation(
                "initial form has no right root in the exponent class"
            )
        horner = list(accumulate([c * q ** i for i, c in enumerate(poly)],
                                 lambda acc, c: acc * t + c))
        if horner[-1]:
            t += q
        else:
            poly = [h // q ** i for i, h in enumerate(horner[:-1], 1)]
            invariants.append(Fraction(t, q) + r)
    return invariants


def _peel_unit(ann, mu, k):
    """Factor ann T = Q (a - mu b) with T a unit, T(0) = 1.

    On a e = mu b e, a^m b^s e = (mu+s)...(mu+s+m-1) b^(s+m) e, so the
    b^(k+n) coefficient of ann T e is row n, sum_m W[n][m] s_(m,k+n-m),
    for s_m = c_m T and, with mu = p/q, the integer weights W[n][m] =
    q^(deg-m) (p + (k+n-1) q)...(p + (k+n-m) q).  As ann.(b^i e) lies
    in b^(k+i) C[[b]], row n holds t_i for i <= n only: the system is
    triangular with one resonant row, whose t_n is pinned to 0 and whose
    row must close.  Each t_n, once fixed, is added into the s_m, kept on
    integers over dc den (dc the lcm of the c_m's denominators), so the
    products that solve for T are the slots of ann T = sum a^m s_m that
    Q comes off by synthetic division: as S a = a S - b^2 S', q_(deg-1) =
    s_deg, q_(m-1) = s_m + d(q_m) and the remainder is s_0 + d(q_0), for
    d(f)_t = (t - 1 + mu) f_(t-1), slot q_(deg-1-j) over dc den q^j.
    T and Q lose k orders.
    """
    tmax = min(c.order for c in ann.coeffs) - k
    if tmax < 0:
        raise NotMonogenicAtTruncation(
            "the annihilator is known to order %d; the unit peel at "
            "exponent %s needs %d" % (tmax + k, mu, k))
    p, q, deg = mu.numerator, mu.denominator, ann.degree
    dc = lcm(*[c.den for c in ann.coeffs])
    # c_m over dc, as far as row tmax (b^(k+tmax-m)) or Q (b^tmax) reads;
    # they grow into s_m in place
    s = [[x * (dc // c.den) for x in c.nums[:tmax + max(k - m, 0) + 1]]
         for m, c in enumerate(ann.coeffs)]
    terms = [[(j, x) for j, x in enumerate(c) if x] for c in s]
    lead = [c[k - m] if m <= k else 0 for m, c in enumerate(s)]
    W = [[w * q ** (deg - m) for m, w in enumerate(accumulate(
        range(1, deg + 1), lambda w, m: w * (p + (k + n - m) * q),
        initial=1))] for n in range(tmax + 1)]
    if sum(map(mul, W[0], lead)):
        raise NotMonogenicAtTruncation(
            "%s is not a right root of the annihilator" % mu)
    nums, den = [1], 1
    for n in range(1, tmax + 1):
        acc = sum(w * sm[k + n - m] for m, (w, sm) in enumerate(zip(W[n], s))
                  if m <= k + n)
        dn = sum(map(mul, W[n], lead))
        if acc and not dn:
            raise NotMonogenicAtTruncation(
                "unit peel at exponent %s is obstructed in slot %d" % (mu, n))
        g = (gcd(acc, dn) if dn > 0 else -gcd(acc, dn)) or 1
        tn, td = -acc // g, (dn or 1) // g
        if td != 1:
            nums = [x * td for x in nums]
            s = [[x * td for x in sm] for sm in s]
            den *= td
        nums.append(tn)
        if tn:
            for sm, ts in zip(s, terms):
                for j, x in ts:
                    if n + j >= len(sm):
                        break
                    sm[n + j] += tn * x
    unit = SeriesB._make(tuple(nums), den, tmax)
    if not tmax and deg:
        raise OrderUnderflow(_UNDERFLOW)
    quot = [s.pop()[:tmax + 1]]
    for j, sm in enumerate(reversed(s), 1):
        qj, prev = q ** j, quot[-1]
        quot.append([sm[0] * qj] + [sm[t] * qj + (p + (t - 1) * q) * prev[t - 1]
                                    for t in range(1, tmax + 1)])
    if any(quot.pop()):
        raise AssertionError("peel remainder should vanish")
    return unit, AbElement([SeriesB._lowest(x, dc * den * q ** j, tmax)
                            for j, x in enumerate(quot)][::-1])


def presentation_from_annihilator(ann, lam):
    """Principal presentation of the fresco ann.e = 0, e its generator.

    ann is monic of degree r >= 1; lam in (0, 1] is the exponent class.
    The Bernstein roots lam + n give the principal
    invariants in increasing order; then _peel_unit takes one unit off
    each factor from the right, peel j costing j orders, so an ann known
    to fewer than 1 + r(r+1)/2 orders is refused.  The result is
    cross-checked against ann.
    """
    r = ann.degree
    if r < 1 or ann.coeffs[-1] != SeriesB.one(ann.coeffs[-1].order):
        raise SemanticError("the annihilator must be monic of degree >= 1")
    ordc, need = min(c.order for c in ann.coeffs), 1 + r * (r + 1) // 2
    if ordc < need:
        raise NotMonogenicAtTruncation(
            "the annihilator is known to order %d; its %d unit peels need "
            "%d" % (ordc, r, need))
    invariants = _bernstein_invariants(ann, lam)
    lambdas = [inv - j for j, inv in enumerate(invariants, start=1)]
    units, cur = [None] * r, ann
    for j in range(r, 0, -1):
        units[j - 1], cur = _peel_unit(cur, lambdas[j - 1], j)
    if cur.degree != 0 or not cur.coeff_series(0).is_unit():
        raise AssertionError("peeling left a non-unit of degree %d"
                             % cur.degree)
    order = min(u.order for u in units)
    p = Presentation([(l, u.truncate(order)) for l, u in zip(lambdas, units)])
    check = monic_expansion(p.factors, order)
    if not check.same_upto(ann, min(order, ordc) - 1):
        raise AssertionError("reconstructed presentation disagrees "
                             "with the annihilator")
    return p
