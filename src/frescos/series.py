"""Truncated power series in b over the exact rationals.

A SeriesB carries coefficients for b^0 .. b^order and makes no claim
about anything past that.  Reading beyond the known order raises
CoefficientBeyondOrder instead of inventing zeros; every arithmetic
operation propagates the order it can actually vouch for.  All
coefficients are fractions.Fraction, so equality is exact.
"""

from fractions import Fraction

from .errors import (
    CoefficientBeyondOrder,
    InversionOfNonUnit,
    ResonantObstruction,
)

#: default truncation order used when none is given explicitly
DEFAULT_ORDER = 64


def rat(x):
    """Coerce to an exact rational.

    Accepts int, Fraction, or a string like '3' or '-5/2'.

    >>> rat('45/4')
    Fraction(45, 4)
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing float %r; pass an exact rational" % (x,))
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
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

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
        if exp > order:
            raise ValueError("monomial exponent past the stated order")
        cs = [Fraction(0)] * exp + [rat(coeff)]
        return cls(cs, order)

    # --- access ---

    def coeff(self, n):
        """Coefficient of b^n.  Raises past the known order."""
        if n < 0:
            return Fraction(0)
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
            if c != 0:
                return i
        return None

    def __bool__(self):
        return self.valuation() is not None

    # --- arithmetic ---

    def _common(self, other):
        n = min(self.order, other.order)
        return n

    def __add__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        n = self._common(other)
        return SeriesB([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    def __sub__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        n = self._common(other)
        return SeriesB([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], n)

    def __neg__(self):
        return SeriesB([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, SeriesB):
            n = self._common(other)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    bj = other.coeffs[j]
                    if bj:
                        out[i + j] += a * bj
            return SeriesB(out, n)
        try:
            s = rat(other)
        except (TypeError, ValueError):
            return NotImplemented
        return SeriesB([c * s for c in self.coeffs], self.order)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse, same known order."""
        if self.coeffs[0] == 0:
            raise InversionOfNonUnit("constant term is zero")
        c0 = self.coeffs[0]
        inv = [1 / c0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * inv[n - i]
            inv.append(-acc / c0)
        return SeriesB(inv, self.order)

    def derive(self):
        """d/db.  The known order drops by one."""
        if self.order == 0:
            raise CoefficientBeyondOrder(
                "cannot differentiate a series known only at order 0"
            )
        return SeriesB(
            [(i + 1) * self.coeffs[i + 1] for i in range(self.order)],
            self.order - 1,
        )

    def shift(self, e):
        """Multiply by b^e (e >= 0): known order grows to order + e."""
        if e < 0:
            raise ValueError("negative shift")
        return SeriesB([Fraction(0)] * e + list(self.coeffs), self.order + e)

    def truncate(self, order):
        """Forget coefficients past the given (smaller or equal) order."""
        if order > self.order:
            raise CoefficientBeyondOrder(
                "cannot extend order %d to %d" % (self.order, order)
            )
        return SeriesB(list(self.coeffs[: order + 1]), order)

    # --- comparison ---

    def __eq__(self, other):
        if not isinstance(other, SeriesB):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def same_upto(self, other, n):
        """Exact agreement of coefficients b^0..b^n."""
        return all(self.coeff(i) == other.coeff(i) for i in range(n + 1))

    # --- display ---

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return "SeriesB(%r, order=%d)" % ([str(c) for c in self.coeffs], self.order)


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





def solve_resonant_ode(form, c, rhs, forbidden_index=None):
    """Solve the two resonant Euler equations used throughout.

    form 'A' solves  b T' - c T = rhs   coefficientwise (n - c) t_n = r_n;
    form 'B' solves  b^2 X' - c b X = rhs  via (n - 1 - c) x_{n-1} = r_n.

    c must be a nonnegative integer, which makes exactly one index
    resonant; that coefficient of the solution is set to zero, and a
    nonzero right hand side there raises ResonantObstruction.  Form B in
    addition needs rhs to have no constant term.

    forbidden_index, when given, must equal the resonant index c.  It is
    there so call sites can state which coefficient they expect to be
    pinned, not to choose a different one.

    Form A keeps the known order of rhs; form B loses one.
    """
    if form not in ("A", "B"):
        raise ValueError("form must be 'A' or 'B'")
    if c < 0 or c != int(c):
        raise ValueError("c must be a nonnegative integer")
    c = int(c)
    if forbidden_index is not None and forbidden_index != c:
        raise ValueError(
            "the resonant index is %d, cannot forbid index %d" % (c, forbidden_index)
        )

    if form == "A":
        out = []
        for n in range(rhs.order + 1):
            r = rhs.coeff(n)
            if n == c:
                if r != 0:
                    raise ResonantObstruction(
                        "form A: rhs has %s at resonant index %d" % (r, n)
                    )
                out.append(Fraction(0))
            else:
                out.append(r / (n - c))
        return SeriesB(out, rhs.order)

    # form B
    if rhs.coeff(0) != 0:
        raise ResonantObstruction("form B: rhs has a constant term")
    if rhs.order == 0:
        return SeriesB.zero(0)
    out = []
    for m in range(rhs.order):
        r = rhs.coeff(m + 1)
        if m == c:
            if r != 0:
                raise ResonantObstruction(
                    "form B: rhs has %s at index %d (resonant)" % (r, m + 1)
                )
            out.append(Fraction(0))
        else:
            out.append(r / (m - c))
    return SeriesB(out, rhs.order - 1)
