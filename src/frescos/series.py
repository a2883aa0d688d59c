"""Truncated power series in b over the exact rationals.

A SeriesB carries coefficients for b^0 .. b^order and makes no claim
about anything past that.  Reading beyond the known order raises
CoefficientBeyondOrder instead of inventing zeros; every arithmetic
operation propagates the order it can actually vouch for.

At rest a series is one tuple of integer numerators, nums, over one
positive denominator, den, content-reduced: gcd(den, *nums) == 1, and
a zero series has den == 1.  So equality and hashing are exact, and
every operation runs on integers: a sum on one lcm of the two
denominators (none when they agree), a negation or a shift with no
gcd, a product, a rational scale, a derivative or a truncation with
one content gcd for the whole result.  Fractions appear only at the
edges: coeff(n), constant(), the read-only coeffs view and the display.
A monomial operand (1, or the -lambda b slot of a linear factor)
rescales and shifts the other one; otherwise the products of the
nonzero pairs with i + j <= n are summed.

There is no Kronecker substitution (Harvey 2009, J. Symb. Comput. 44):
over the distinct inputs of the benchmark pools it ran at most 0.76
times per report, its cost rule 4 to 25 times, and without both every
workload ran as fast or faster.  It wins only on dense products no
command builds (two random order-128 series of 64-bit integers: 0.53 ms
packed, 1.27 ms on the pairs, CPython 3.11, x86-64).  The dense products
of identities at order 128 (numerators of 200 to 500 bits) do not
change that: over the 233 products of the first 200 distinct
identities-deep argv whose operands both have more than half their
terms nonzero, the pairs took 0.32 to 0.39 s, the packed product 0.42
to 0.49 s.

Division by a unit and the inverse run one recurrence, that of x/f
over the nonzero f_i, on the numerators over the common denominator
f_0^n (see _quotient); invert() divides 1.  So x / s costs n times the
terms of s, where x * s.invert() costs a dense product.  Neither the
recurrence nor the product falls back to Fractions on wide
denominators: no input of the benchmark pools comes near a width where
Fractions win.
Newton iteration on the product (Brent & Kung 1978, "Fast algorithms
for manipulating formal power series", J. ACM 25) has the better
exponent, but measured at orders 20 to 128 (CPython 3.11) it was 2x to
6x slower than the recurrence on dense series and 6x to 9x slower on
the sparse units that are inverted most: its products handle every
coefficient of the growing inverse at the width of the largest, where
the recurrence visits only the nonzero terms of f.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CoefficientBeyondOrder,
    InversionOfNonUnit,
    ResonantObstruction,
)

#: the one truncation default: the CLI's --order, the order of a literal
#: parsed with none (or its largest exponent, if higher), the depth or
#: unit order of a JSON payload given none, and the order of SeriesB.zero,
#: one and monomial; SeriesB(coeffs) with no order is known to its last
#: coefficient
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

    __slots__ = ("nums", "den", "order")

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
        # over the lcm of lowest-terms denominators the content is 1;
        # shorter lists mean the remaining known coefficients are zero
        den = lcm(*[c.denominator for c in cs])
        self.nums = tuple([c.numerator * (den // c.denominator) for c in cs]
                          + [0] * (order + 1 - len(cs)))
        self.den = den
        self.order = order

    @classmethod
    def _make(cls, nums, den, order):
        """Trusted constructor: a tuple of order + 1 integer numerators
        over den > 0, already content-reduced."""
        s = object.__new__(cls)
        s.nums = nums
        s.den = den
        s.order = order
        return s

    @classmethod
    def _lowest(cls, nums, den, order):
        """Trusted constructor that takes the one content gcd itself."""
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        return cls._make(tuple(nums), den, order)

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
        return cls([0] * exp + [coeff], order)

    # --- access ---

    @property
    def coeffs(self):
        """The coefficients of b^0 .. b^order as Fractions, built anew on
        each read."""
        d = self.den
        return tuple([Fraction(x, d) if x else _ZERO for x in self.nums])

    def coeff(self, n):
        """Coefficient of b^n.  Raises past the known order."""
        if n < 0:
            return _ZERO
        if n > self.order:
            raise CoefficientBeyondOrder(
                "coefficient %d requested, known order is %d" % (n, self.order)
            )
        return Fraction(self.nums[n], self.den)

    def constant(self):
        return Fraction(self.nums[0], self.den)

    def is_unit(self):
        return self.nums[0] != 0

    def valuation(self):
        """Index of the first nonzero known coefficient, or None."""
        return next((i for i, x in enumerate(self.nums) if x), None)

    def __bool__(self):
        return any(self.nums)

    # --- arithmetic ---

    def __add__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        n, xs, ys, den = _common(self, other)
        return SeriesB._lowest([x + y for x, y in zip(xs, ys)], den, n)

    def __sub__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        n, xs, ys, den = _common(self, other)
        return SeriesB._lowest([x - y for x, y in zip(xs, ys)], den, n)

    def __neg__(self):
        return SeriesB._make(tuple([-x for x in self.nums]), self.den,
                             self.order)

    def __mul__(self, other):
        if isinstance(other, SeriesB):
            return _product(self, other)
        # a scalar is an exact rational already: no string, bool or float
        if not isinstance(other, (int, Fraction)) or isinstance(other, bool):
            return NotImplemented
        p = other.numerator
        return SeriesB._lowest([x * p for x in self.nums],
                               self.den * other.denominator, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self * other^-1 for a unit other, to the lesser order; there is
        no scalar division."""
        if not isinstance(other, SeriesB):
            return NotImplemented
        if not other.nums[0]:
            raise InversionOfNonUnit("constant term is zero")
        return _quotient(self, other)

    def invert(self):
        """Multiplicative inverse, same known order."""
        return SeriesB.one(self.order) / self

    def derive(self):
        """d/db.  The known order drops by one."""
        if self.order == 0:
            raise CoefficientBeyondOrder(
                "cannot differentiate a series known only at order 0"
            )
        return SeriesB._lowest([i * x for i, x in enumerate(self.nums)][1:],
                               self.den, self.order - 1)

    def shift(self, e):
        """Multiply by b^e (e >= 0): known order grows to order + e."""
        if e < 0:
            raise ValueError("negative shift")
        return SeriesB._make((0,) * e + self.nums, self.den, self.order + e)

    def truncate(self, order):
        """Forget coefficients past the given (smaller or equal) order."""
        if order > self.order:
            raise CoefficientBeyondOrder(
                "cannot extend order %d to %d" % (self.order, order)
            )
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order == self.order:
            return self
        return SeriesB._lowest(self.nums[: order + 1], self.den, order)

    # --- comparison ---

    def __eq__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den, self.order))

    def same_upto(self, other, n):
        """Exact agreement of coefficients b^0..b^n."""
        if n <= min(self.order, other.order):
            xs, ys = self.nums[: n + 1], other.nums[: n + 1]
            xd, yd = self.den, other.den
            return xs == ys if xd == yd else all(
                x * yd == y * xd for x, y in zip(xs, ys))
        return all(self.coeff(i) == other.coeff(i) for i in range(n + 1))

    # --- display ---

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return "SeriesB(%r, order=%d)" % ([str(c) for c in self.coeffs], self.order)


# --- the scaled-integer kernel ---

def _common(x, y):
    """The lesser order n of x and y, and their numerators b^0 .. b^n
    over one common denominator, which comes last."""
    n = min(x.order, y.order)
    xs, ys, xd, yd = x.nums[: n + 1], y.nums[: n + 1], x.den, y.den
    if xd == yd:
        return n, xs, ys, xd
    den = lcm(xd, yd)
    return n, [a * (den // xd) for a in xs], [b * (den // yd) for b in ys], den


def _terms(s, n, scale=1):
    """(index, numerator * scale) for the nonzero numerators of s below
    index n, in increasing index."""
    return [(i, x * scale) for i, x in enumerate(s.nums[:n]) if x]


def _product(x, y):
    """x * y to the lesser order, on the stored numerators."""
    n = min(x.order, y.order)
    m = n + 1
    sx = [(i, a) for i, a in enumerate(x.nums[:m]) if a]
    if len(sx) > 1:
        sy = [(j, b) for j, b in enumerate(y.nums[:m]) if b]
        if len(sx) > len(sy):
            x, y, sx, sy = y, x, sy, sx
    if not sx:
        return SeriesB._make((0,) * m, 1, n)
    if len(sx) == 1:
        (e, s), = sx
        return SeriesB._lowest((0,) * e + tuple([s * b for b in y.nums[: m - e]]),
                               x.den * y.den, n)
    return SeriesB._lowest(_pairs(sx, sy, [0] * m), x.den * y.den, n)


def _pairs(xs, ys, out):
    """Add x_i y_j into out[i + j] over the (index, value) pairs with
    i + j < len(out); ys in increasing index.  Returns out."""
    m = len(out)
    for i, x in xs:
        for j, y in ys:
            if i + j >= m:
                break
            out[i + j] += x * y
    return out


def _quotient(x, s):
    """x / s for a unit s = g / ds, to the lesser order of x and s, over
    the nonzero numerators g_i.

    On x = X / dx, H_m = g_0^(m+1) (X/g)_m obeys H_m = g_0^m X_m -
    sum_(i>=1) g_i g_0^(i-1) H_(m-i), so (x/s)_m = ds H_m g_0^(n-1-m) /
    (dx g_0^n), reduced by one content gcd.  Only the nonzero g_i take
    part, so a sparse unit costs n times its terms whatever the width
    of g_0 (1 / (1 + 3^-44 (b - b^2 + b^3)) at order 128: 4.2 ms here,
    18.7 ms on Fractions).
    H_m carries m * bits(g_0) bits, which outgrows the coefficients when
    ds is an lcm of many unrelated denominators: inverting a dense
    order-40 unit over 40 unrelated 31-bit denominators takes 114 ms
    here, 24 ms on Fractions (CPython 3.11, x86-64), but no command
    builds one.
    """
    n = min(x.order, s.order) + 1
    g0, ds, xs = s.nums[0], s.den, x.nums
    weights = [(i, g * g0 ** (i - 1))
               for i, g in enumerate(s.nums[:n]) if i and g]
    h, g0m = [], 1
    for m in range(n):
        acc = 0
        for i, w in weights:
            if i > m:
                break
            acc += w * h[m - i]
        xm = xs[m]
        h.append(xm * g0m - acc if xm else -acc)
        g0m *= g0
    # the sign of g_0^n goes on the numerators, so power ends positive
    power = -ds if g0 < 0 and n % 2 else ds
    for m in range(n - 1, -1, -1):
        h[m] *= power
        power *= g0
    return SeriesB._lowest(h, x.den * (power // ds), n - 1)


def format_series(s):
    """Render like '1 + 3b^2 - 1/2b^5'."""
    parts = []
    for i, x in enumerate(s.nums):
        if x:
            mag = Fraction(abs(x), s.den)
            body = str(mag) if i == 0 else (
                ("" if mag == 1 else str(mag)) + ("b" if i == 1 else "b^%d" % i))
            sign = ("-" if x < 0 else "") if not parts else ("- " if x < 0 else "+ ")
            parts.append(sign + body)
    return " ".join(parts) or "0"


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
    nums = rhs.nums
    if c <= rhs.order and nums[c]:
        raise ResonantObstruction(
            "rhs has %s at resonant index %d" % (rhs.coeff(c), c)
        )
    scale = lcm(*[n - c for n, x in enumerate(nums) if x])
    return SeriesB._lowest([x * (scale // (n - c)) if x else 0
                            for n, x in enumerate(nums)],
                           rhs.den * scale, rhs.order)
