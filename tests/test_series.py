"""Series layer: exact arithmetic, truncation honesty, resonant ODEs."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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


# --- resonant ODEs ---


def test_form_a_frozen():
    rhs = S(-1, 0, -1, order=6)
    v = solve_resonant_ode("A", 1, rhs)
    assert v.order == 6
    assert [v.coeff(i) for i in range(7)] == [1, 0, -1, 0, 0, 0, 0]


def test_form_a_obstruction():
    with pytest.raises(ResonantObstruction):
        solve_resonant_ode("A", 1, S(0, 1, order=4))


def test_form_b_frozen():
    x = solve_resonant_ode("B", 1, S(0, 0, 0, -1, order=6))
    assert x.order == 5
    assert [x.coeff(i) for i in range(6)] == [0, 0, -1, 0, 0, 0]


def test_form_b_rejects_constant_rhs():
    with pytest.raises(ResonantObstruction):
        solve_resonant_ode("B", 2, S(1, order=4))


def test_form_b_obstruction():
    # resonant index c=2 reads the b^3 coefficient of the rhs
    with pytest.raises(ResonantObstruction):
        solve_resonant_ode("B", 2, S(0, 0, 0, 1, order=5))


def test_forbidden_index_must_be_resonant():
    rhs = S(0, 0, 1, order=5)
    solve_resonant_ode("A", 1, rhs, forbidden_index=1)
    with pytest.raises(ValueError):
        solve_resonant_ode("A", 1, rhs, forbidden_index=2)


def _zero_at(s, n):
    cs = list(s.coeffs)
    cs[n] = Fraction(0)
    return SeriesB(cs, s.order)


@given(series_st(order=10), st.integers(0, 4))
def test_form_a_substitutes(rhs, c):
    rhs = _zero_at(rhs, c)
    t = solve_resonant_ode("A", c, rhs)
    lhs = t.derive().shift(1) - t * c
    assert lhs.same_upto(rhs, rhs.order - 1)
    assert t.coeff(c) == 0


@given(series_st(order=10), st.integers(0, 4))
def test_form_b_substitutes(rhs, c):
    rhs = _zero_at(_zero_at(rhs, c + 1), 0)
    x = solve_resonant_ode("B", c, rhs)
    lhs = x.derive().shift(2) - (x * c).shift(1)
    assert lhs.same_upto(rhs, rhs.order - 1)
    assert x.coeff(c) == 0


def test_format():
    assert str(S(1, 0, 3, 0, 0, Fraction(-1, 2))) == "1 + 3b^2 - 1/2b^5"
    assert str(S(0, 1, -1)) == "b - b^2"
    assert str(SeriesB.zero(3)) == "0"
