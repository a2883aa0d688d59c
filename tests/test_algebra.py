"""Operator algebra: normal ordering, division, initial forms, identities."""

from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frescos.algebra import (
    AbElement,
    _D,
    _b2_log_derivative,
    _fit,
    check_exchange,
    check_middle_unit_exchange,
    check_unit_exchange,
    initial_form,
    monic_expansion,
    normal_form_mul,
)
from frescos.errors import EngineError, OrderUnderflow
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


class NonMonicDivisor(EngineError):
    """Division requires a divisor with unit leading coefficient."""


def expand_factor_form(factors, order):
    """Multiply out (a - l_1 b) S_1^-1 ... (a - l_k b) S_k^-1, the
    reference for monic_expansion (with monicize) and for the initial
    form that bernstein checks.

    factors is a sequence of (lambda, unit) pairs; each unit must be
    invertible at its constant term.  The result has a-degree k with a
    unit top coefficient (not monic in general).
    """
    acc = AbElement.from_series(SeriesB.one(order))
    for lam, unit in factors:
        acc = acc * AbElement.linear(lam, order)
        inv = _fit(unit, order).invert()
        acc = acc * AbElement.from_series(inv)
    return acc


def monicize(u):
    """Left-multiply by the inverse of the unit top coefficient.

    The result generates the same left ideal and has leading term a^d
    with coefficient exactly 1.
    """
    top = u.coeff_series(u.degree)
    if not top.is_unit():
        raise NonMonicDivisor("leading coefficient is not a unit")
    return AbElement.from_series(top.invert()) * u


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


def left_divide(u, p):
    """Division u = q p + r with deg_a r < deg_a p, the reference for
    the synthetic divisions of the peel (test_xi.py).

    The divisor's top coefficient must be a unit series; otherwise the
    leading term of u cannot be cancelled and NonMonicDivisor is raised.
    """
    d = p.degree
    top = p.coeff_series(d)
    if not top.is_unit():
        raise NonMonicDivisor("leading coefficient is not a unit")
    top_inv = top.invert()
    q = AbElement([SeriesB.zero(top.order)])
    r = u
    while r.degree >= d and not r.is_zero():
        m = r.degree
        t = r.coeff_series(m) * top_inv
        if not any(t.nums):
            # stray known-zero head; drop it and move on
            r = AbElement(list(r.coeffs[:m]))
            continue
        qterm = AbElement([SeriesB.zero(t.order)] * (m - d) + [t])
        q = q + qterm
        r = r - qterm * p
        # the top slot cancels exactly; strip it so the degree drops
        r = AbElement(list(r.coeffs[:m]))
    return q, r


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


# --- the monic expansion as (a - c_1) ... (a - c_k) ---

COPRIME = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)


@st.composite
def factor_lists(draw, order):
    """Rank 1-5 factors for a geometric presentation at the given order.

    The exponents are principal (l_j + j non decreasing, one class mod
    1) or arbitrary above k - j; each unit is sparse or dense, with
    coprime denominators, and known to a little more than the order.
    """
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        lam = k - 1 + draw(st.fractions(0, 1, max_denominator=6)
                           .filter(lambda x: x > 0))
        lams = [lam]
        for _ in range(k - 1):
            lams.append(lams[-1] + draw(st.integers(0, 3)) - 1)
    else:
        lams = [k - j + draw(st.fractions(0, 5, max_denominator=6)
                             .filter(lambda x: x > 0))
                for j in range(1, k + 1)]
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(COPRIME))
    n = order + draw(st.integers(0, 3))
    fs = []
    for lam in lams:
        if draw(st.booleans()):
            cs = draw(st.lists(coeff, min_size=n, max_size=n))
        else:
            cs = [Fraction(0)] * n
            for e in draw(st.lists(st.integers(1, n), max_size=3)):
                cs[e - 1] = draw(coeff)
        fs.append((lam, SeriesB([1] + cs, n)))
    return fs


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), factor_lists(n))))
def test_monic_expansion_is_the_monicized_expansion(case):
    n, fs = case
    # == also compares every slot's known order
    assert monic_expansion(fs, n) == monicize(expand_factor_form(fs, n))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), factor_lists(n))))
def test_monic_expansion_keeps_the_initial_form(case):
    # bernstein checks the initial form on the monic expansion: the left
    # unit 1 + O(b) between it and the product leaves degree k alone
    n, fs = case
    k = len(fs)
    assume(k <= n)
    assert initial_form(monic_expansion(fs, n), k) == \
        initial_form(expand_factor_form(fs, n), k)


@pytest.mark.parametrize("order", [0, -1])
def test_monic_expansion_refuses_order_below_one(order):
    with pytest.raises(OrderUnderflow):
        monic_expansion([(rat(1), SeriesB.one(4))], order)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 40).flatmap(
    lambda n: st.tuples(st.just(n), factor_lists(n - 1))), st.data())
def test_monic_expansion_refuses_a_short_unit_as_fit_does(case, data):
    # some units are cut below the order; the first of them is named
    n, fs = case
    short = data.draw(st.sets(st.integers(0, len(fs) - 1), min_size=1))
    fs = [(lam, u.truncate(data.draw(st.integers(0, n - 1))) if j in short
           else u) for j, (lam, u) in enumerate(fs)]
    with pytest.raises(OrderUnderflow) as old:
        expand_factor_form(fs, n)
    with pytest.raises(OrderUnderflow) as new:
        monic_expansion(fs, n)
    assert str(new.value) == str(old.value)


def chain_monic_expansion(factors, order):
    """monic_expansion as it multiplied (a - c_1) ... (a - c_k) out, one
    normal_form_mul per factor: the reference of its integer slots."""
    factors = tuple(factors)
    logs = [_b2_log_derivative(unit, order) for _, unit in factors]
    cs = [SeriesB.monomial(lam, 1, order) + tail for (lam, _), tail
          in zip(reversed(factors), accumulate(reversed(logs)))]
    one = SeriesB.one(order)
    acc = AbElement.from_series(one)
    for c in reversed(cs):
        acc = normal_form_mul(acc, AbElement([-c, one]))
    return acc


@st.composite
def expansion_cases(draw):
    """(factors, order): rank 0-5 at order 0-40, each unit sparse or
    dense over unrelated denominators; now and then a unit is known to
    less than the order or has no constant term, so both sides raise."""
    order = draw(st.integers(0, 40))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(COPRIME))
    fs = []
    for _ in range(draw(st.integers(0, 5))):
        lam = draw(st.fractions(-3, 8, max_denominator=6))
        n = max(0, order + draw(st.sampled_from([0, 0, 1, 3, -1])))
        cs = [Fraction(0)] * n
        if draw(st.booleans()):
            cs = draw(st.lists(coeff, min_size=n, max_size=n))
        elif n:
            for e in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                cs[e] = draw(coeff)
        head = draw(st.sampled_from([1, 1, 1, Fraction(-7, 3), 0]))
        fs.append((lam, SeriesB([head] + cs, n)))
    return fs, order


def _outcome(f, *args):
    try:
        return f(*args)
    except EngineError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(expansion_cases())
def test_monic_expansion_is_the_normal_form_chain(case):
    fs, order = case
    want = _outcome(chain_monic_expansion, fs, order)
    got = _outcome(monic_expansion, fs, order)
    # == on the slots also compares their known orders
    assert got == want
    if isinstance(want, AbElement):
        assert [c.order for c in got.coeffs] == [order] * (len(fs) + 1)


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
    # the check's own route, division and full order, on beta = alpha
    order = 24
    lam1, p1, p2, alpha = rat("7/2"), 2, 1, rat(1)
    lam3 = lam1 + p1 + p2 - 2
    beta = alpha  # deliberately missing the (1 + p2/p1) factor
    w = SeriesB.one(order) + SeriesB.monomial(alpha, p2, order)
    v = SeriesB.one(order) + SeriesB.monomial(beta, p2, order)
    vi, v2 = emb(v.invert()), emb(v * v)
    lhs = AbElement.linear(lam1 - 1, order) / w * AbElement.linear(lam3, order)
    rhs = vi * AbElement.linear(lam3 + 1, order) * v2 / w \
        * AbElement.linear(lam1 - 2, order) / v
    return lhs.same_upto(rhs, order)


# --- the two unit exchanges as they were built, on inverses ---


def reference_unit_exchange(lam1, p1, rho, order):
    """Both sides of check_unit_exchange, multiplying by U^-1."""
    lam1, rho = rat(lam1), rat(rho)
    lam2 = lam1 + p1 - 1
    u = SeriesB.one(order) + SeriesB.monomial(rho, p1, order)
    ui = emb(u.invert())
    u2 = emb(u * u)
    lhs = AbElement.linear(lam1, order) * AbElement.linear(lam2, order)
    rhs = ui * AbElement.linear(lam2 + 1, order) * u2 \
        * AbElement.linear(lam1 - 1, order) * ui
    return lhs, rhs


def reference_middle_unit_exchange(lam1, p1, p2, alpha, order):
    """Both sides of check_middle_unit_exchange, multiplying by W^-1
    and V^-1."""
    lam1, alpha = rat(lam1), rat(alpha)
    lam3 = lam1 + p1 + p2 - 2
    beta = (1 + Fraction(p2, p1)) * alpha
    w_inv = emb(
        (SeriesB.one(order) + SeriesB.monomial(alpha, p2, order)).invert()
    )
    v = SeriesB.one(order) + SeriesB.monomial(beta, p2, order)
    vi = emb(v.invert())
    v2 = emb(v * v)
    lhs = AbElement.linear(lam1 - 1, order) * w_inv * AbElement.linear(lam3, order)
    rhs = vi * AbElement.linear(lam3 + 1, order) * v2 * w_inv \
        * AbElement.linear(lam1 - 2, order) * vi
    return lhs, rhs


def compared_sides(check, *args, order):
    """The verdict of check, and the two sides and the order it compared."""
    seen = []
    real = AbElement.same_upto

    def spy(u, v, n):
        seen.append((u, v, n))
        return real(u, v, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AbElement, "same_upto", spy)
        verdict = check(*args, order=order)
    (lhs, rhs, n), = seen
    return verdict, lhs, rhs, n


# the sampling ranges of the identities command
cli_lambdas = st.builds(Fraction, st.integers(2, 9), st.sampled_from((1, 2)))
cli_units = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@settings(max_examples=40, deadline=None)
@given(cli_lambdas, st.integers(1, 4), cli_units, st.integers(4, 64))
def test_unit_exchange_divides_to_the_reference_sides(lam1, p1, rho, order):
    verdict, lhs, rhs, n = compared_sides(check_unit_exchange, lam1, p1, rho,
                                          order=order)
    assert (lhs, rhs) == reference_unit_exchange(lam1, p1, rho, order)
    assert verdict and n == order


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9).map(Fraction), st.integers(1, 3), st.integers(1, 3),
       cli_units, st.integers(4, 64))
def test_middle_unit_exchange_divides_to_the_reference_sides(lam1, p1, p2,
                                                             alpha, order):
    verdict, lhs, rhs, n = compared_sides(
        check_middle_unit_exchange, lam1, p1, p2, alpha, order=order)
    assert (lhs, rhs) == reference_middle_unit_exchange(lam1, p1, p2, alpha,
                                                        order)
    assert verdict and n == order


# --- the normal-order product as it was built, on series operations ---


def reference_normal_form_mul(u, v):
    """normal_form_mul term by term: each (-1)^i C(n,i) D^i(c_m) d_n is
    a series product, added into its slot as a series."""
    out = [None] * (u.degree + v.degree + 1)
    for m, c in enumerate(u.coeffs):
        if not c:
            continue
        for n, d in enumerate(v.coeffs):
            if not d:
                continue
            dic = c
            for i in range(n + 1):
                term = dic * d
                if i % 2:
                    term = -term
                if comb(n, i) != 1:
                    term = term * comb(n, i)
                k = m + n - i
                out[k] = term if out[k] is None else out[k] + term
                if i < n:
                    dic = _D(dic)
    order0 = min(c.order for c in u.coeffs + v.coeffs)
    return AbElement([SeriesB.zero(order0) if c is None else c for c in out])


def stored_or_error(f, *args):
    """What f returns, as stored (numerators, denominator, order per
    series), or the type and message of the error it raises."""
    def stored(x):
        if isinstance(x, SeriesB):
            return x.nums, x.den, x.order
        if isinstance(x, AbElement):
            return [stored(c) for c in x.coeffs]
        return tuple(stored(y) for y in x)

    try:
        return stored(f(*args))
    except (EngineError, AssertionError) as exc:
        return type(exc), str(exc)


# numerators over denominators with no common factor, and some that share
unrelated = st.builds(Fraction, st.integers(-60, 60).filter(bool),
                      st.sampled_from((1, 2, 3, 4, 5, 7, 9, 11, 13, 49)))


@st.composite
def mul_slots(draw):
    """A slot known to order 0-12: zero, sparse (up to three terms) or
    dense (every term nonzero)."""
    order = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("zero", "sparse", "dense")))
    cs = [0] * (order + 1)
    if kind == "dense":
        cs = draw(st.lists(unrelated, min_size=order + 1,
                           max_size=order + 1))
    elif kind == "sparse":
        for i in draw(st.lists(st.integers(0, order), max_size=3)):
            cs[i] = draw(unrelated)
    return SeriesB(cs, order)


# degrees 0-4; a zero slot below the top stays
mul_operands = st.lists(mul_slots(), min_size=1, max_size=5).map(AbElement)


@settings(max_examples=300, deadline=None)
@example(AbElement([SeriesB([3], 0)]),
         AbElement([SeriesB.zero(4), SeriesB([1, 2], 4)]))
@example(AbElement([SeriesB([3], 0), SeriesB([1, 0, 5], 6)]),
         AbElement([SeriesB([0, 1, 2], 3)]))
@given(mul_operands, mul_operands)
def test_normal_form_mul_is_the_reference(u, v):
    assert stored_or_error(normal_form_mul, u, v) == \
        stored_or_error(reference_normal_form_mul, u, v)


def test_an_order_0_slot_cannot_cross_a():
    # an order-0 slot left of a degree-0 factor stays put, but no nonzero
    # slot of v above degree 0 may pass it
    c = AbElement([SeriesB([3], 0)])
    assert normal_form_mul(c, AbElement([SeriesB([1, 2], 4)])) == \
        AbElement([SeriesB([3], 0)])
    a = AbElement([SeriesB.zero(4), SeriesB([1, 2], 4)])
    with pytest.raises(OrderUnderflow,
                       match="^series known only to order 0 cannot cross a$"):
        normal_form_mul(c, a)
    # a zero slot of order 0 crosses nothing
    z = AbElement([SeriesB.zero(0), SeriesB.one(3)])
    assert normal_form_mul(z, a) == reference_normal_form_mul(z, a)
