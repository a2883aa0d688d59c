"""Series layer: exact arithmetic, truncation honesty, resonant ODEs."""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import frescos.series as series_module
from frescos.errors import (
    CoefficientBeyondOrder,
    InversionOfNonUnit,
    ResonantObstruction,
)
from frescos.series import SeriesB, rat, solve_resonant_ode


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


# --- the scaled-integer kernel against a schoolbook reference ---


def schoolbook_product(x, y):
    n = min(x.order, y.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += x.coeffs[i] * y.coeffs[j]
    return out


def schoolbook_inverse(x):
    inv = [1 / x.coeffs[0]]
    for n in range(1, x.order + 1):
        acc = sum((x.coeffs[i] * inv[n - i] for i in range(1, n + 1)),
                  Fraction(0))
        inv.append(-acc / x.coeffs[0])
    return inv


def in_lowest_terms(s):
    return all(type(c) is Fraction and c.denominator > 0 and
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
                  kinds=("zero", "sparse", "dense", "constant")):
    """Zero, sparse (up to 4 terms), dense or constant, at orders 0..max_order.

    A constant series c + c b + c b^2 + ... makes every product
    coefficient as large as its operands' sizes allow.

    Dense series take large coefficients only up to big_dense_order:
    the inverse of a dense series with many unrelated 33-bit
    denominators has coefficients of thousands of digits at order 140,
    and the schoolbook reference alone needs seconds for one.
    """
    order = draw(st.integers(0, max_order))
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


def test_product_of_unrelated_denominators_runs_on_fractions():
    # 129 unrelated 33-bit denominators a side: their lcm would put
    # about 4200 bits on every numerator, so the product stays on
    # Fractions and neither integer path runs
    x = SeriesB([Fraction(i % 5 - 2 or 1, (1 << 32) + 2 * i + 1)
                 for i in range(129)])
    y = SeriesB([Fraction(1 - i % 3, (1 << 32) + 2 * i + 301)
                 for i in range(129)])
    integer_paths = mock.patch.object(series_module, "_fractions",
                                      wraps=series_module._fractions)
    with integer_paths as spy:
        got = x * y
    assert spy.call_count == 0
    assert list(got.coeffs) == schoolbook_product(x, y)
    assert in_lowest_terms(got)


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


def test_inverse_takes_both_recurrences():
    structured = S(Fraction(-2, 5), Fraction(-4, 3), 0, Fraction(5, 9),
                   Fraction(1, 27), order=40)
    # 41 unrelated denominators: their lcm would swamp the integer form
    inflated = SeriesB([Fraction(3, 7)] + [Fraction(1, (1 << 31) + 2 * i + 1)
                                           for i in range(40)])
    rec = mock.patch.object(series_module, "_recurrence",
                            wraps=series_module._recurrence)
    with rec as spy:
        for s, on_integers in ((structured, True), (inflated, False)):
            assert list(s.invert().coeffs) == schoolbook_inverse(s)
            h0 = spy.call_args.args[1]
            assert (type(h0) is int) is on_integers
