"""Series layer: exact arithmetic, truncation honesty, resonant ODEs."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from frescos.algebra import AbElement, _D
from frescos.errors import (
    CoefficientBeyondOrder,
    InversionOfNonUnit,
    ResonantObstruction,
)
from frescos.series import SeriesB, format_series, rat, solve_resonant_ode


def S(*coeffs, order=None):
    return SeriesB(list(coeffs), order)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def series_st(order=12, unit=False):
    def build(cs):
        if unit:
            cs = [Fraction(1)] + cs
        return SeriesB(cs, order)

    return st.lists(rationals, min_size=0, max_size=order + 1 - unit).map(build)


def test_rat_canonical():
    assert rat("6/4") == Fraction(3, 2)
    assert str(rat("6/4")) == "3/2"
    assert rat(-3) == Fraction(-3)
    assert rat(rat("5/2")) == Fraction(5, 2)


def test_rat_refuses_float():
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_rat_refuses_bool(flag):
    with pytest.raises(TypeError):
        rat(flag)


def test_coeff_beyond_order_raises():
    s = S(1, 2, 3)
    assert s.coeff(2) == 3
    with pytest.raises(CoefficientBeyondOrder):
        s.coeff(3)


def test_invert_frozen_example():
    s = S(1, 0, 3, order=7)
    inv = s.invert()
    assert inv.order == 7
    assert [inv.coeff(i) for i in range(8)] == [1, 0, -3, 0, 9, 0, -27, 0]


def test_invert_nonunit():
    with pytest.raises(InversionOfNonUnit):
        S(0, 1).invert()


def test_order_bookkeeping():
    s = S(1, 2, 3, 4, order=3)
    assert s.derive().order == 2
    assert s.shift(2).order == 5
    assert (s * s).order == 3
    assert (s + S(1, order=5)).order == 3
    assert s.shift(2).coeff(3) == 2


def test_derive():
    s = S(7, 1, 0, 5, order=3)
    d = s.derive()
    assert [d.coeff(i) for i in range(3)] == [1, 0, 15]


@given(series_st(unit=True), st.integers(0, 12))
def test_inverse_is_twosided(s, i):
    one = s * s.invert()
    assert one.coeff(0) == 1
    if 1 <= i <= one.order:
        assert one.coeff(i) == 0


@given(series_st(), series_st())
def test_product_commutes(x, y):
    assert x * y == y * x


def test_monomial_refuses_negative_exponent():
    with pytest.raises(ValueError):
        SeriesB.monomial(3, -2, 5)
    assert SeriesB.monomial(3, 0, 5) == S(3, order=5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40),
       st.sampled_from([0, 1, -1, 7, Fraction(-3, 4), Fraction(10, 4), "5/6",
                        Fraction(2 ** 70 + 1, 3 ** 50)]))
def test_integer_constructors_are_the_general_one(order, exp, c):
    # zero, one and monomial build their numerators directly: the stored
    # form of the general constructor, and its refusals
    assert (SeriesB.zero(order).nums, SeriesB.zero(order).den) == \
        (S(order=order).nums, 1)
    assert at_rest(SeriesB.zero(order)) and at_rest(SeriesB.one(order))
    assert SeriesB.one(order) == S(1, order=order)
    if exp <= order:
        m = SeriesB.monomial(c, exp, order)
        assert at_rest(m)
        assert m == S(*[0] * exp, c, order=order)
    else:
        with pytest.raises(ValueError, match="past the stated order"):
            SeriesB.monomial(c, exp, order)


@pytest.mark.parametrize("build", [SeriesB.zero, SeriesB.one,
                                   lambda order: S(order=order)])
def test_a_negative_order_is_refused(build):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        build(-1)


@pytest.mark.parametrize("coeff", [0.5, True, 1.0])
def test_monomial_refuses_floats_and_bools(coeff):
    with pytest.raises(TypeError):
        SeriesB.monomial(coeff, 1, 4)


def reference_format_series(s):
    """format_series as it was, one Fraction per printed coefficient."""
    parts = []
    for i, x in enumerate(s.nums):
        if x:
            mag = Fraction(abs(x), s.den)
            body = str(mag) if i == 0 else (
                ("" if mag == 1 else str(mag)) + ("b" if i == 1 else "b^%d" % i))
            sign = ("-" if x < 0 else "") if not parts else ("- " if x < 0 else "+ ")
            parts.append(sign + body)
    return " ".join(parts) or "0"


# --- the scaled-integer kernel against a schoolbook reference ---


# coeffs builds its Fractions on each read, so each reference reads it once
def schoolbook_product(x, y):
    n = min(x.order, y.order)
    xs, ys = x.coeffs, y.coeffs
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += xs[i] * ys[j]
    return out


def schoolbook_quotient(x, s):
    n = min(x.order, s.order)
    xs, ss = x.coeffs, s.coeffs
    q = []
    for m in range(n + 1):
        acc = sum((ss[i] * q[m - i] for i in range(1, m + 1)), Fraction(0))
        q.append((xs[m] - acc) / ss[0])
    return q


def schoolbook_inverse(x):
    return schoolbook_quotient(SeriesB.one(x.order), x)


def at_rest(s):
    """The stored form: order + 1 int numerators over a positive
    denominator, content 1, and denominator 1 for zero."""
    return (len(s.nums) == s.order + 1 and
            all(type(x) is int for x in s.nums) and type(s.den) is int and
            s.den > 0 and gcd(s.den, *s.nums) == 1 and
            (any(s.nums) or s.den == 1))


def in_lowest_terms(s):
    return at_rest(s) and all(
        type(c) is Fraction and c.denominator > 0 and
        gcd(c.numerator, c.denominator) == 1 for c in s.coeffs)


small_coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
# mixed signs, and coprime numerators and denominators of 30 bits and more
kernel_coeffs = small_coeffs | st.builds(
    Fraction,
    st.integers(-(1 << 40), 1 << 40),
    st.integers(1 << 30, 1 << 36),
)


@st.composite
def kernel_series(draw, max_order=140, unit=False, big_dense_order=140,
                  kinds=("zero", "sparse", "dense", "constant"), min_order=0):
    """Zero, sparse (up to 4 terms), dense or constant, at orders
    min_order..max_order.

    A constant series c + c b + c b^2 + ... makes every product
    coefficient as large as its operands' sizes allow.

    Dense series take large coefficients only up to big_dense_order:
    the inverse of a dense series with many unrelated 33-bit
    denominators has coefficients of thousands of digits at order 140,
    and the schoolbook reference alone needs seconds for one.
    """
    order = draw(st.integers(min_order, max_order))
    kind = draw(st.sampled_from(kinds))
    cs = [Fraction(0)] * (order + 1)
    if kind == "constant":
        cs = [draw(kernel_coeffs)] * (order + 1)
    elif kind == "dense":
        coeffs = kernel_coeffs if order <= big_dense_order else small_coeffs
        cs = draw(st.lists(coeffs, min_size=order + 1, max_size=order + 1))
    elif kind == "sparse":
        terms = draw(st.dictionaries(st.integers(0, order), kernel_coeffs,
                                     max_size=4))
        for i, c in terms.items():
            cs[i] = c
    if unit and not cs[0]:
        cs[0] = draw(kernel_coeffs.filter(bool))
    return SeriesB(cs, order)


# Operand shapes, keyed by the product path that once served them: the
# Kronecker substitution took dense pairs, the pair loop took sparse
# operands, and the cost rule chose between them for any mix. One loop
# now runs all three, and each shape keeps its own examples.
SHAPES = {
    "kronecker": (("dense", "constant"), ("dense", "constant")),
    "pairs": (("zero", "sparse"), ("zero", "sparse", "dense", "constant")),
    "rule": (("zero", "sparse", "dense", "constant"),) * 2,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_matches_schoolbook(shape, data):
    x_kinds, y_kinds = SHAPES[shape]
    x = data.draw(kernel_series(kinds=x_kinds))
    y = data.draw(kernel_series(kinds=y_kinds))
    got = x * y
    assert got.order == min(x.order, y.order)
    assert list(got.coeffs) == schoolbook_product(x, y)
    assert in_lowest_terms(got)


@settings(max_examples=40, deadline=None)
@given(kernel_series(unit=True, big_dense_order=24))
def test_inverse_matches_schoolbook(s):
    inv = s.invert()
    assert inv.order == s.order
    assert list(inv.coeffs) == schoolbook_inverse(s)
    assert in_lowest_terms(inv)
    assert s * inv == SeriesB.one(s.order)


# negative, and numerators and denominators of 30 bits and more
unit_constants = st.builds(
    Fraction,
    st.integers(-(1 << 40), -1) | st.integers(1 << 30, 1 << 40),
    st.integers(1, 1 << 36),
)


@pytest.mark.parametrize("kind", ["zero", "sparse", "dense", "constant"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_quotient_matches_schoolbook_and_the_inverse(kind, data):
    # x and s at orders 0..140 drawn apart, so the orders differ
    x = data.draw(kernel_series(kinds=(kind,), big_dense_order=60))
    s = data.draw(kernel_series(unit=True, big_dense_order=24))
    c0 = data.draw(st.none() | unit_constants)
    if c0 is not None:
        s = SeriesB((c0,) + s.coeffs[1:], s.order)
    got = x / s
    assert got.order == min(x.order, s.order)
    assert list(got.coeffs) == schoolbook_quotient(x, s)
    assert at_rest(got)
    assert got == x * s.invert()


def test_division_by_a_nonunit_raises():
    with pytest.raises(InversionOfNonUnit):
        S(1, 2, order=4) / S(0, 1, order=4)
    with pytest.raises(InversionOfNonUnit):
        SeriesB.one(3) / SeriesB.zero(3)
    with pytest.raises(InversionOfNonUnit):
        AbElement([S(1, order=3), S(0, 1, order=3)]) / S(0, 0, 1, order=3)


@pytest.mark.parametrize("divisor", [2, Fraction(3, 2), "3/2"])
def test_division_refuses_a_divisor_that_is_not_a_series(divisor):
    s = S(1, 2, order=3)
    with pytest.raises(TypeError):
        s / divisor
    with pytest.raises(TypeError):
        AbElement([s, s]) / divisor
    with pytest.raises(TypeError):
        divisor / s


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(0, 10), st.data())
def test_right_division_of_ab_elements_undoes_the_product(n, extra, data):
    # every slot known to n, the unit to n + extra
    u = AbElement(data.draw(st.lists(
        kernel_series(min_order=n, max_order=n, big_dense_order=24),
        min_size=1, max_size=4)))
    s = data.draw(kernel_series(min_order=n + extra, max_order=n + extra,
                                unit=True, big_dense_order=24))
    q = u / s
    assert q.coeffs == tuple(c / s for c in u.coeffs)
    assert q * s == u


def test_product_of_unrelated_denominators_matches_schoolbook():
    # 129 unrelated 33-bit denominators a side: each stored
    # denominator, their lcm, has about 3600 bits, and the pairs run on
    # the integer numerators all the same
    x = SeriesB([Fraction(i % 5 - 2 or 1, (1 << 32) + 2 * i + 1)
                 for i in range(129)])
    y = SeriesB([Fraction(1 - i % 3, (1 << 32) + 2 * i + 301)
                 for i in range(129)])
    got = x * y
    assert list(got.coeffs) == schoolbook_product(x, y)
    assert in_lowest_terms(got)


@settings(max_examples=40, deadline=None)
@given(kernel_series(max_order=40, big_dense_order=24),
       kernel_series(max_order=40, big_dense_order=24),
       kernel_coeffs | st.integers(-3, 3), st.integers(0, 5), st.data())
def test_every_operation_keeps_the_form_at_rest(x, y, r, e, data):
    # each result against Fractions computed here, and stored as order
    # + 1 int numerators over one positive denominator of content 1
    xs, ys = list(x.coeffs), y.coeffs
    k = data.draw(st.integers(0, x.order))
    cases = [
        (x + y, [a + b for a, b in zip(xs, ys)]),
        (y + x, [a + b for a, b in zip(xs, ys)]),
        (x - y, [a - b for a, b in zip(xs, ys)]),
        (x - x, [Fraction(0)] * (x.order + 1)),
        (SeriesB.zero(x.order), [Fraction(0)] * (x.order + 1)),
        (-x, [-a for a in xs]),
        (x * y, schoolbook_product(x, y)),
        (x * r, [a * r for a in xs]),
        (r * x, [a * r for a in xs]),
        (x + x, [2 * a for a in xs]),
        (x * 2, [2 * a for a in xs]),
        (x.shift(e), [Fraction(0)] * e + xs),
        (x.truncate(k), xs[: k + 1]),
    ]
    if x.order:
        cases.append((x.derive(), [i * a for i, a in enumerate(xs)][1:]))
        cases.append((_D(x), [Fraction(0)] + [i * a for i, a in enumerate(xs)]))
    if xs[0]:
        cases.append((x.invert(), schoolbook_inverse(x)))
    if ys[0]:
        cases.append((x / y, schoolbook_quotient(x, y)))
    for got, want in cases:
        assert at_rest(got)
        assert list(got.coeffs) == want
        assert got.order == len(want) - 1
    for a, _ in cases:
        for b, _ in cases:
            assert (a == b) is (a.coeffs == b.coeffs)
            assert a != b or hash(a) == hash(b)


@pytest.mark.parametrize("scalar", ["2", "3/2", 2.0, True, None])
def test_operators_refuse_a_scalar_that_is_not_an_exact_rational(scalar):
    s = S(1, 2, order=3)
    with pytest.raises(TypeError):
        s * scalar
    with pytest.raises(TypeError):
        scalar * s
    # the constructors still parse strings
    assert S("3/2", "-1") == S(Fraction(3, 2), -1)


def test_products_of_monomials_and_zeros():
    x = S(0, 0, Fraction(-7, 2), order=6)
    y = S(Fraction(1, 3), 5, 0, 0, 0, Fraction(2, 9), 1)
    assert (x * y).coeffs == (0, 0, Fraction(-7, 6), Fraction(-35, 2),
                              0, 0, 0)
    assert SeriesB.one(4) * y == y.truncate(4)
    assert SeriesB.zero(9) * y == SeriesB.zero(6)
    assert S(5, order=0) * y == S(Fraction(5, 3))


# --- resonant ODEs ---


def test_form_a_frozen():
    rhs = S(-1, 0, -1, order=6)
    v = solve_resonant_ode(1, rhs)
    assert v.order == 6
    assert [v.coeff(i) for i in range(7)] == [1, 0, -1, 0, 0, 0, 0]


def test_form_a_obstruction():
    with pytest.raises(ResonantObstruction):
        solve_resonant_ode(1, S(0, 1, order=4))


def _over_b(s):
    """rhs / b for rhs in b C[[b]]: b^2 X' - c b X = rhs is
    b X' - c X = rhs / b."""
    return SeriesB(s.coeffs[1:], s.order - 1)


def test_form_b_frozen():
    x = solve_resonant_ode(1, _over_b(S(0, 0, 0, -1, order=6)))
    assert x.order == 5
    assert [x.coeff(i) for i in range(6)] == [0, 0, -1, 0, 0, 0]


def test_form_b_obstruction():
    # resonant index c=2 reads the b^3 coefficient of the rhs
    with pytest.raises(ResonantObstruction):
        solve_resonant_ode(2, _over_b(S(0, 0, 0, 1, order=5)))


def _zero_at(s, n):
    cs = list(s.coeffs)
    cs[n] = Fraction(0)
    return SeriesB(cs, s.order)


@given(series_st(order=10), st.integers(0, 4))
def test_form_a_substitutes(rhs, c):
    rhs = _zero_at(rhs, c)
    t = solve_resonant_ode(c, rhs)
    lhs = t.derive().shift(1) - t * c
    assert lhs.same_upto(rhs, rhs.order - 1)
    assert t.coeff(c) == 0


@given(series_st(order=10), st.integers(0, 4))
def test_form_b_substitutes(rhs, c):
    rhs = _zero_at(_zero_at(rhs, c + 1), 0)
    x = solve_resonant_ode(c, _over_b(rhs))
    lhs = x.derive().shift(2) - (x * c).shift(1)
    assert lhs.same_upto(rhs, rhs.order - 1)
    assert x.coeff(c) == 0


def test_format():
    assert str(S(1, 0, 3, 0, 0, Fraction(-1, 2))) == "1 + 3b^2 - 1/2b^5"
    assert str(S(0, 1, -1)) == "b - b^2"
    assert str(SeriesB.zero(3)) == "0"


def test_inverse_of_structured_and_inflated_units_matches_schoolbook():
    structured = S(Fraction(-2, 5), Fraction(-4, 3), 0, Fraction(5, 9),
                   Fraction(1, 27), order=40)
    # 41 unrelated denominators: their lcm, about 1145 bits, goes into
    # every power of f_0 that the integer recurrence carries
    inflated = SeriesB([Fraction(3, 7)] + [Fraction(1, (1 << 31) + 2 * i + 1)
                                           for i in range(40)])
    for s in (structured, inflated):
        inv = s.invert()
        assert list(inv.coeffs) == schoolbook_inverse(s)
        assert in_lowest_terms(inv)


@settings(max_examples=150, deadline=None)
@given(kernel_series(max_order=30, big_dense_order=20), st.integers(1, 10 ** 20))
def test_format_series_is_the_fraction_reference(s, d):
    # den > 1 and negative numerators: s itself, and s over a further d
    # (which also makes numerators of 1 whose denominators are not)
    for x in (s, s * Fraction(1, d), -s):
        assert format_series(x) == reference_format_series(x)
