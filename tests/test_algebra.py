"""Operator algebra: normal ordering, division, initial forms, identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frescos.algebra import (
    AbElement,
    check_exchange,
    check_middle_unit_exchange,
    check_unit_exchange,
    expand_factor_form,
    initial_form,
    left_divide,
)
from frescos.errors import NonMonicDivisor
from frescos.series import SeriesB, rat

ORDER = 16

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def series_st(order=ORDER, unit=False):
    def build(cs):
        if unit:
            cs = [Fraction(1)] + cs
        return SeriesB(cs, order)

    return st.lists(rationals, min_size=0, max_size=6).map(build)


def ab_st(maxdeg=3):
    return st.lists(series_st(), min_size=1, max_size=maxdeg + 1).map(AbElement)


def emb(s):
    return AbElement.from_series(s)


def a_times(x, order=ORDER):
    return AbElement([SeriesB.zero(order), SeriesB.one(order)]) * x


def test_expansion_frozen_example():
    p = expand_factor_form([(rat("5/2"), SeriesB.one(ORDER)),
                            (rat("7/2"), SeriesB.one(ORDER))], ORDER)
    assert p.degree == 2
    assert p.coeff_series(2).coeff(0) == 1
    assert p.coeff_series(1).coeff(1) == -6
    assert p.coeff_series(0).coeff(2) == Fraction(45, 4)
    assert str(initial_form(p, 2)) == "a^2 - 6 a b + 45/4 b^2"


def test_b_times_a():
    b = emb(SeriesB.monomial(1, 1, ORDER))
    a = AbElement([SeriesB.zero(ORDER), SeriesB.one(ORDER)])
    assert str(initial_form(b * a, 2)) == "a b - b^2"


@given(st.integers(0, 8), series_st())
def test_commutation_rule(nu, s):
    """a b^nu = b^nu (a + nu b), tested against an arbitrary right factor."""
    bnu = emb(SeriesB.monomial(1, nu, ORDER))
    lhs = a_times(bnu * emb(s))
    shifted = a_times(emb(s)) + emb(SeriesB.monomial(nu, 1, ORDER)) * emb(s)
    rhs = bnu * shifted
    assert lhs.same_upto(rhs, ORDER - 1)


@given(series_st())
def test_leibniz(s):
    """a S - S a = b^2 S' as operators."""
    a = AbElement([SeriesB.zero(ORDER), SeriesB.one(ORDER)])
    comm = a * emb(s) - emb(s) * a
    assert comm.degree == 0
    assert comm.coeff_series(0).same_upto(s.derive().shift(2), ORDER - 1)


@settings(max_examples=60)
@given(ab_st(), ab_st(), ab_st())
def test_associativity(u, v, w):
    assert ((u * v) * w).same_upto(u * (v * w), ORDER - 6)


def test_left_divide_frozen_example():
    lam = rat("3/2")
    a2 = AbElement([SeriesB.zero(ORDER), SeriesB.zero(ORDER), SeriesB.one(ORDER)])
    q, r = left_divide(a2, AbElement.linear(lam, ORDER))
    assert q.degree == 1
    assert q.coeff_series(1).coeff(0) == 1
    assert q.coeff_series(0).coeff(1) == lam
    assert r.degree == 0
    assert r.coeff_series(0).coeff(2) == lam * (1 + lam)
    assert r.coeff_series(0).coeff(0) == 0
    assert r.coeff_series(0).coeff(1) == 0


@settings(max_examples=60)
@given(ab_st(maxdeg=3), ab_st(maxdeg=2), series_st(unit=True))
def test_left_divide_reconstructs(u, p, unit_top):
    p = p + AbElement([SeriesB.zero(ORDER)] * (p.degree + 1) + [unit_top])
    q, r = left_divide(u, p)
    assert r.degree < p.degree
    assert (q * p + r).same_upto(u, ORDER - 8)


def test_left_divide_rejects_nonunit_top():
    p = AbElement([SeriesB.one(ORDER), SeriesB.monomial(1, 1, ORDER)])
    u = AbElement([SeriesB.zero(ORDER), SeriesB.zero(ORDER), SeriesB.one(ORDER)])
    with pytest.raises(NonMonicDivisor):
        left_divide(u, p)


def test_initial_form_ignores_units():
    unit = SeriesB([1, 0, 3], ORDER)
    p = expand_factor_form([(rat("5/2"), unit), (rat("7/2"), SeriesB.one(ORDER))],
                           ORDER)
    trivial = expand_factor_form([(rat("5/2"), SeriesB.one(2)),
                                  (rat("7/2"), SeriesB.one(2))], 2)
    assert initial_form(p, 2).same_upto(trivial, 2)


@given(rationals, rationals)
def test_exchange_identity(x, y):
    assert check_exchange(x, y, order=16)


@given(rationals, st.integers(1, 4), rationals.filter(lambda r: r != 0))
def test_unit_exchange_holds(lam1, p1, rho):
    # documented outcome: this identity holds exactly
    assert check_unit_exchange(lam1, p1, rho, order=24)


@given(rationals, st.integers(1, 3), st.integers(1, 3),
       rationals.filter(lambda r: r != 0))
def test_middle_unit_exchange_holds(lam1, p1, p2, alpha):
    # documented outcome: holds with beta = (1 + p2/p1) alpha
    assert check_middle_unit_exchange(lam1, p1, p2, alpha, order=24)


def test_middle_unit_exchange_needs_right_beta():
    # perturbing beta must break the identity, otherwise the check is vacuous
    from frescos.algebra import AbElement as _  # noqa: F401
    assert check_middle_unit_exchange(rat("7/2"), 2, 1, rat("1"), order=24)
    assert not _wrong_beta_variant()


def _wrong_beta_variant():
    from frescos.series import SeriesB as SB

    order = 24
    lam1, p1, p2, alpha = rat("7/2"), 2, 1, rat(1)
    lam3 = lam1 + p1 + p2 - 2
    beta = alpha  # deliberately missing the (1 + p2/p1) factor
    w_inv = emb((SB.one(order) + SB.monomial(alpha, p2, order)).invert())
    v = SB.one(order) + SB.monomial(beta, p2, order)
    vi, v2 = emb(v.invert()), emb(v * v)
    lhs = AbElement.linear(lam1 - 1, order) * w_inv * AbElement.linear(lam3, order)
    rhs = vi * AbElement.linear(lam3 + 1, order) * v2 * w_inv \
        * AbElement.linear(lam1 - 2, order) * vi
    return lhs.same_upto(rhs, order - 2)
