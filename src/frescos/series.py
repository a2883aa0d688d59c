"""Truncated power series in b over the exact rationals.

A SeriesB carries coefficients for b^0 .. b^order and makes no claim
about anything past that.  Reading beyond the known order raises
CoefficientBeyondOrder instead of inventing zeros; every arithmetic
operation propagates the order it can actually vouch for.  All
coefficients are fractions.Fraction in lowest terms, so equality is
exact.

Products and inverses run on scaled integers: an operand's nonzero
coefficients become integer numerators over one common denominator
(one lcm per operand), the kernel works on those integers, and only the
n + 1 result coefficients are made Fractions again, one gcd each.  A
monomial operand (1, or the -lambda b slot of a linear factor) just
rescales and shifts the other one.  Otherwise a product takes one of
two paths, chosen by a cost rule fitted to measurements
(_pairs_are_cheaper):

- nonzero pairs: when one operand has few nonzero coefficients, as in
  1 + rho b^p, the numerators of the pairs with i + j <= n are
  multiplied and summed; the zeros of neither operand are visited.
- Kronecker substitution: each numerator list is packed into one
  Python int, one slot per coefficient, and the two ints are multiplied
  once, so CPython's Karatsuba does the work (Harvey 2009, "Faster
  polynomial multiplication via multipoint Kronecker substitution",
  J. Symb. Comput. 44).  A slot holds any product coefficient plus a
  sign bit; the slots are read back with a bias that absorbs the
  borrows of negative coefficients.

The inverse runs the recurrence of 1/f over the nonzero f_i on integer
numerators and takes no gcd until its final Fractions (see _inverse).
Newton iteration on the product (Brent & Kung 1978, "Fast algorithms
for manipulating formal power series", J. ACM 25) has the better
exponent, but measured at orders 20 to 128 (CPython 3.11) it was 2x to
6x slower than the recurrence on dense series and 6x to 9x slower on
the sparse units that are inverted most: its products handle every
coefficient of the growing inverse at the width of the largest, where
the recurrence visits only the nonzero terms of f.
"""

from bisect import bisect_left
from fractions import Fraction
from math import isqrt, lcm

from .errors import (
    CoefficientBeyondOrder,
    InversionOfNonUnit,
    ResonantObstruction,
)

#: the one truncation default: the CLI's --order, the parsers when given
#: no order or depth, and the SeriesB constructors
DEFAULT_ORDER = 32

_ZERO = Fraction(0)


def rat(x):
    """Coerce to an exact rational.

    Accepts int, Fraction, or a string like '3' or '-5/2'; refuses
    float and bool (a JSON true is no rational).

    >>> rat('45/4')
    Fraction(45, 4)
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError("refusing %s %r; pass an exact rational"
                        % (type(x).__name__, x))
    return Fraction(x)


def rat_str(x):
    """Canonical string for a rational: '3', '-5/2'."""
    return str(rat(x))


class SeriesB:
    """A power series in b known up to a finite order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        cs = [rat(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
            if order < 0:
                raise ValueError("need at least one coefficient or an order")
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the stated order allows")
        # shorter lists mean the remaining known coefficients are zero
        cs.extend([_ZERO] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def _make(cls, coeffs, order):
        """Trusted constructor: coeffs is a tuple of order + 1 Fractions."""
        s = object.__new__(cls)
        s.coeffs = coeffs
        s.order = order
        return s

    # --- constructors ---

    @classmethod
    def zero(cls, order=DEFAULT_ORDER):
        return cls([], order)

    @classmethod
    def one(cls, order=DEFAULT_ORDER):
        return cls([1], order)

    @classmethod
    def monomial(cls, coeff, exp, order=DEFAULT_ORDER):
        """coeff * b^exp known up to b^order."""
        if exp < 0:
            raise ValueError("negative monomial exponent")
        if exp > order:
            raise ValueError("monomial exponent past the stated order")
        cs = [_ZERO] * exp + [rat(coeff)]
        return cls(cs, order)

    # --- access ---

    def coeff(self, n):
        """Coefficient of b^n.  Raises past the known order."""
        if n < 0:
            return _ZERO
        if n > self.order:
            raise CoefficientBeyondOrder(
                "coefficient %d requested, known order is %d" % (n, self.order)
            )
        return self.coeffs[n]

    def constant(self):
        return self.coeffs[0]

    def is_unit(self):
        return self.coeffs[0] != 0

    def valuation(self):
        """Index of the first nonzero known coefficient, or None."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __bool__(self):
        return self.valuation() is not None

    # --- arithmetic ---

    def __add__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        n = min(self.order, other.order)
        # a zero summand costs no Fraction addition
        return SeriesB._make(tuple([x + y if x and y else x or y for x, y in
                                    zip(self.coeffs[: n + 1], other.coeffs)]), n)

    def __sub__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        n = min(self.order, other.order)
        return SeriesB._make(tuple([x - y if y else x for x, y in
                                    zip(self.coeffs[: n + 1], other.coeffs)]), n)

    def __neg__(self):
        return SeriesB._make(tuple([-c if c else c for c in self.coeffs]),
                             self.order)

    def __mul__(self, other):
        if isinstance(other, SeriesB):
            n = min(self.order, other.order)
            return SeriesB._make(_product(self.coeffs, other.coeffs, n + 1), n)
        try:
            s = rat(other)
        except (TypeError, ValueError):
            return NotImplemented
        return SeriesB._make(_scale(self.coeffs, s), self.order)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse, same known order."""
        if self.coeffs[0] == 0:
            raise InversionOfNonUnit("constant term is zero")
        return SeriesB._make(_inverse(self.coeffs), self.order)

    def derive(self):
        """d/db.  The known order drops by one."""
        if self.order == 0:
            raise CoefficientBeyondOrder(
                "cannot differentiate a series known only at order 0"
            )
        cs = self.coeffs
        return SeriesB._make(
            tuple([cs[i] * i if cs[i] else _ZERO
                   for i in range(1, self.order + 1)]),
            self.order - 1,
        )

    def shift(self, e):
        """Multiply by b^e (e >= 0): known order grows to order + e."""
        if e < 0:
            raise ValueError("negative shift")
        return SeriesB._make((_ZERO,) * e + self.coeffs, self.order + e)

    def truncate(self, order):
        """Forget coefficients past the given (smaller or equal) order."""
        if order > self.order:
            raise CoefficientBeyondOrder(
                "cannot extend order %d to %d" % (self.order, order)
            )
        if order < 0:
            raise ValueError("order must be nonnegative")
        return SeriesB._make(self.coeffs[: order + 1], order)

    # --- comparison ---

    def __eq__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def same_upto(self, other, n):
        """Exact agreement of coefficients b^0..b^n."""
        if n <= min(self.order, other.order):
            return self.coeffs[: n + 1] == other.coeffs[: n + 1]
        return all(self.coeff(i) == other.coeff(i) for i in range(n + 1))

    # --- display ---

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return "SeriesB(%r, order=%d)" % ([str(c) for c in self.coeffs], self.order)


# --- the scaled-integer kernel ---

def _scale(cs, s):
    """cs times one rational s."""
    if not s:
        return (_ZERO,) * len(cs)
    if s == 1:
        return cs
    return tuple([c * s if c else _ZERO for c in cs])


def _support(cs, m):
    """The nonzero (index, coefficient) pairs among the first m."""
    return [(i, c) for i, c in enumerate(cs[:m]) if c]


def _numerators(terms):
    """Integer numerators over one common denominator: c_i = x_i / den."""
    den = lcm(*[c.denominator for _, c in terms])
    return [(i, c.numerator * (den // c.denominator)) for i, c in terms], den


def _fractions(nums, den):
    """Back to Fractions in lowest terms, one gcd per nonzero entry."""
    return tuple([Fraction(x, den) if x else _ZERO for x in nums])


def _product(xs, ys, m):
    """Coefficients b^0 .. b^(m-1) of the product of two coefficient lists.

    A monomial operand only rescales and shifts the other one.  Past
    that the product runs on integer numerators, over the nonzero pairs
    when one operand is sparse and by one Kronecker product otherwise.
    Over a common denominator that is the lcm of many unrelated ones
    every numerator carries all of them, so past 2400 bits for the two
    common denominators together the nonzero pairs are multiplied as
    Fractions instead.  That bound is where the two broke even on dense
    series at orders 16..128 with unrelated denominators of 4 to 128
    bits; structured denominators (powers of a few primes) stay far
    below it.
    """
    sx, sy = _support(xs, m), _support(ys, m)
    if len(sx) > len(sy):
        sx, sy, ys = sy, sx, xs
    if not sx:
        return (_ZERO,) * m
    if len(sx) == 1:
        (e, s), = sx
        return (_ZERO,) * e + _scale(ys[: m - e], s)
    xs, xd = _numerators(sx)
    ys, yd = _numerators(sy)
    if xd.bit_length() + yd.bit_length() > 2400:
        out = [_ZERO] * m
        for i, x in sx:
            for j, y in sy:
                if i + j >= m:
                    break
                out[i + j] += x * y
        return tuple(out)
    vx, vy = xs[0][0], ys[0][0]
    if vx + vy >= m:
        return (_ZERO,) * m
    if _pairs_are_cheaper(xs, ys, m):
        out = [0] * m
        for i, x in xs:
            for j, y in ys:
                if i + j >= m:
                    break
                out[i + j] += x * y
        return _fractions(out, xd * yd)
    low = _kronecker(_dense(xs, m - vy), _dense(ys, m - vx), m - vx - vy)
    return _fractions([0] * (vx + vy) + low, xd * yd)


def _pairs_are_cheaper(xs, ys, m):
    """The cost rule between the two product paths, in units of 0.1 us.

    Fitted to timings of both paths (CPython 3.11, x86-64, one core of
    a shared host) on a grid of orders 16..192, numerators of 4..400
    bits and densities 0.3 and 1: a nonzero pair costs 1 + bx by / 20000
    (loop overhead, then the digit products of bx- and by-bit
    numerators); Kronecker costs 10 per slot to pack and unpack plus
    L^(3/2) / 640 to multiply the L-bit packed ints, L^(3/2) tracking
    CPython's Karatsuba within 10% at these sizes.  On the grid the rule
    picked the faster path in 76 of 80 cases and lost 0.4% on average.
    """
    bx = max([abs(x) for _, x in xs]).bit_length()
    by = max([abs(y) for _, y in ys]).bit_length()
    jy = [j for j, _ in ys]
    pairs = sum([bisect_left(jy, m - i) for i, _ in xs])
    slots = m - xs[0][0] - ys[0][0]
    bits = slots * (bx + by + slots.bit_length() + 1)
    return pairs * (20000 + bx * by) <= \
        20000 * (10 * slots + bits * isqrt(bits) // 640)


def _dense(terms, m):
    """Integer list from the valuation of terms up to index m - 1."""
    v = terms[0][0]
    out = [0] * (min(terms[-1][0] + 1, m) - v)
    for i, x in terms:
        if i >= m:
            break
        out[i - v] = x
    return out


def _kronecker(xs, ys, m):
    """First m coefficients of the product of two integer lists.

    Each list is packed into one int with w hex digits per slot, biased
    by half a slot so that every packed digit is nonnegative.  The
    product's first m slots then hold c_k + half exactly once the bias
    of m slots is added back, because |c_k| < half by the choice of w.
    """
    bound = max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys), m)
    w = (bound.bit_length() + 4) >> 2
    half = 1 << (4 * w - 1)
    bias = "8" + "0" * (w - 1)
    fmt = "%%0%dx" % w
    a = int("".join([fmt % (x + half) for x in reversed(xs)]), 16) - \
        int(bias * len(xs), 16)
    b = int("".join([fmt % (y + half) for y in reversed(ys)]), 16) - \
        int(bias * len(ys), 16)
    t = (a * b + int(bias * m, 16)) & ((1 << (4 * w * m)) - 1)
    h = "%0*x" % (w * m, t)
    return [int(h[j - w: j], 16) - half for j in range(w * m, 0, -w)]


def _inverse(cs):
    """1/c for the coefficients c = cs, c_0 != 0, over the nonzero c_i.

    On integers: with numerators f = den * c, H_m = f_0^(m+1) (1/f)_m
    obeys H_0 = 1 and H_m = -sum_i f_i f_0^(i-1) H_(m-i), and
    (1/c)_m = den H_m / f_0^(m+1), so no gcd is taken until the final
    Fractions.  H_m carries m * bits(f_0) bits, which outgrows the
    coefficients themselves when the common denominator is an lcm of
    many unrelated ones; past n * bits(f_0) = 8000 the same recurrence
    runs on Fractions.  That bound is where the two broke even on dense
    series at orders 16..128 with denominators of 3 to 1146 bits.
    """
    n = len(cs)
    terms = _support(cs, n)
    nums, den = _numerators(terms)
    f0 = nums[0][1]
    if n * f0.bit_length() > 8000:
        r = 1 / cs[0]
        return tuple(_recurrence(terms[1:], r, r, n))
    weights = [(i, x * f0 ** (i - 1)) for i, x in nums[1:]]
    out = []
    power = f0
    for x in _recurrence(weights, 1, 1, n):
        out.append(Fraction(den * x, power) if x else _ZERO)
        power *= f0
    return tuple(out)


def _recurrence(weights, h0, scale, n):
    """h_0 = h0, h_m = -scale * sum_i w_i h_(m-i) for m < n."""
    h = [h0]
    for m in range(1, n):
        acc = 0
        for i, w in weights:
            if i > m:
                break
            acc += w * h[m - i]
        h.append(-acc * scale)
    return h


def format_series(s):
    """Render like '1 + 3b^2 - 1/2b^5'."""
    parts = []
    for i, c in enumerate(s.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = head + ("b" if i == 1 else "b^%d" % i)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    if not parts:
        return "0"
    return " ".join(parts)


def solve_resonant_ode(c, rhs):
    """Solve the resonant Euler equation  b T' - c T = rhs.

    Coefficientwise (n - c) t_n = r_n.  c must be a nonnegative
    integer, which makes exactly one index resonant; that coefficient
    of the solution is set to zero, and a nonzero right hand side there
    raises ResonantObstruction.  The solution keeps the known order of
    rhs.  The equation b^2 X' - c b X = rhs of a right hand side in
    b C[[b]] is this one on rhs / b.
    """
    if c < 0 or c != int(c):
        raise ValueError("c must be a nonnegative integer")
    c = int(c)
    out = []
    for n in range(rhs.order + 1):
        r = rhs.coeff(n)
        if n == c:
            if r != 0:
                raise ResonantObstruction(
                    "rhs has %s at resonant index %d" % (r, n)
                )
            out.append(Fraction(0))
        else:
            out.append(r / (n - c))
    return SeriesB(out, rhs.order)
