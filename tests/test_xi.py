"""Expansion engine: operator action, generated modules, reconstruction.

The frozen presentations here were derived by hand.  For instance for
phi = s^(-1/2) + s^(1/2) Log s one has (a - 3/2 b) phi = (b - 2) s^(1/2)
exactly, and a kills no more logs after that, so the module is the
rank-2 theme with exponents (3/2, 3/2) and alpha = -1/2.
"""

from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from frescos.algebra import AbElement, expand_factor_form, left_divide, monicize
from frescos.alpha import classify_rank2, is_semisimple
from frescos.errors import (
    NotMonogenicAtTruncation,
    SemanticError,
    TruncationTooSmall,
)
from frescos.fresco import bernstein
from frescos.dsl import parse_xi
from frescos.linalg import Echelon, axpy
from frescos.series import SeriesB
import frescos.algebra as algebra_module
import frescos.xi as xi_module
from frescos.xi import (
    XiExpansion,
    XiSpan,
    _annihilator_from_span,
    _bernstein_invariants,
    _integrate,
    _peel_unit,
    _remainders,
    model_from_xi,
    xi_exponent_split,
    xi_generate_module,
    xi_log_filtration,
)

DEPTH = 16

F = Fraction


def term(lam, m, j, coeff=1, comp=1, ncomp=1, depth=DEPTH):
    return XiExpansion(lam, depth, ncomp, {(comp, m, j): coeff})


def apply_element(u, x):
    """sum_m a^m c_m(b) x: each series acts first, its a-power after.

    Series coefficients past their order are dropped, so the result is
    only trustworthy where those could not reach.
    """
    out = XiExpansion(x.lam, x.depth, x.ncomp, {})
    for m, c in enumerate(u.coeffs):
        y, shifted = XiExpansion(x.lam, x.depth, x.ncomp, {}), x
        for co in c.coeffs[:x.depth]:
            y = y + shifted.scale(co)
            shifted = shifted.apply_b()
        for _ in range(m):
            y = y.apply_a()
        out = out + y
    return out


# --- exponent bookkeeping ---

def test_exponent_split():
    assert xi_exponent_split("3/2") == (F(1, 2), 2)
    assert xi_exponent_split("-1/2") == (F(1, 2), 0)
    assert xi_exponent_split(2) == (F(1), 2)
    assert xi_exponent_split("-2/3") == (F(1, 3), 0)


def test_class_representative_range():
    with pytest.raises(SemanticError):
        term(0, 0, 0)
    with pytest.raises(SemanticError):
        term("3/2", 0, 0)


def test_term_validation():
    with pytest.raises(SemanticError):
        term("1/2", 0, 0, comp=2)
    with pytest.raises(SemanticError):
        term("1/2", 0, -1)
    with pytest.raises(SemanticError):
        term("1/2", -1, 0)
    with pytest.raises(ValueError):
        term("1/2", 0, 0, depth=3)
    with pytest.raises(TypeError):
        term("1/2", 0, 0, coeff=0.5)


# --- operator action ---

def test_b_on_pure_power():
    # b s^(-1/2) = 2 s^(1/2)
    x = term("1/2", 0, 0).apply_b()
    assert x.terms == {(1, 1, 0): F(2)}


def test_b_sheds_log():
    # b s^(-1/2) Log = 2 s^(1/2) Log - 4 s^(1/2)
    x = term("1/2", 0, 1).apply_b()
    assert x.terms == {(1, 1, 1): F(2), (1, 1, 0): F(-4)}


def test_a_is_a_plain_shift():
    x = term("1/2", 2, 3, coeff="5/7").apply_a()
    assert x.terms == {(1, 3, 3): F(5, 7)}
    assert term("1/2", DEPTH - 1, 0).apply_a().is_zero()


def small_expansions(depth=DEPTH):
    coeffs = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3)])
    entry = st.tuples(st.integers(1, 2), st.integers(0, 2),
                      st.integers(0, 2), coeffs)
    return st.builds(
        lambda lam, entries: XiExpansion(
            lam, depth, 2,
            {(c, m, j): co for c, m, j, co in entries}),
        st.sampled_from([F(1, 2), F(1, 3), F(1)]),
        st.lists(entry, min_size=1, max_size=4),
    )


@settings(max_examples=40, deadline=None)
@given(small_expansions())
def test_commutation_on_expansions(x):
    ab = x.apply_b().apply_a()
    ba = x.apply_a().apply_b()
    assert ab - ba == x.apply_b().apply_b()


@settings(max_examples=40, deadline=None)
@given(small_expansions())
def test_b_injective_below_truncation(x):
    # x lives at levels <= 2 here, far below DEPTH, so no term is lost
    if not x.is_zero():
        assert not x.apply_b().is_zero()


def test_expansion_arithmetic():
    x = term("1/2", 1, 1)
    assert x + x == x.scale(2)
    assert (x - x).is_zero()
    assert x.scale(0).is_zero()
    r = repr(term("1/2", 0, 2, comp=2, ncomp=2))
    assert "Log^2" in r and "v2" in r


# --- generated modules, frozen small cases ---

def test_rank_one_pure_power():
    span = xi_generate_module(term("1/2", 0, 0))
    assert span.rank == 1
    p = model_from_xi(span)
    assert p.lambdas == (F(1, 2),)
    u = p.units[0]
    assert all(u.coeff(i) == 0 for i in range(1, u.order + 1))
    assert u.constant() == 1


def test_rank_one_shifted_power():
    # s^(5/2) generates a twisted line: annihilator a - 7/2 b
    lam, m = xi_exponent_split("5/2")
    span = xi_generate_module(term(lam, m, 0))
    assert span.rank == 1
    assert model_from_xi(span).lambdas == (F(7, 2),)


def test_rank_two_log_theme():
    span = xi_generate_module(term("1/2", 0, 1))
    assert span.rank == 2
    p = model_from_xi(span)
    assert p.lambdas == (F(3, 2), F(1, 2))
    assert bernstein(p).roots == (F(-1, 2), F(-1, 2))
    assert classify_rank2(p).theme
    assert not is_semisimple(p)
    filt = xi_log_filtration(span)
    assert filt["ranks"] == (1, 2)
    assert filt["d"] == 2


def test_maximal_log_theme():
    # depth 24 so that four rounds of unit peeling keep enough order
    n = 3
    span = xi_generate_module(term("1/2", 0, n, depth=24))
    assert span.rank == n + 1
    p = model_from_xi(span)
    assert p.lambdas == (F(7, 2), F(5, 2), F(3, 2), F(1, 2))
    assert bernstein(p).roots == (F(-1, 2),) * (n + 1)
    filt = xi_log_filtration(span)
    assert filt["ranks"] == (1, 2, 3, 4)
    assert filt["d"] == n + 1
    assert not is_semisimple(p)


def test_two_exponent_direct_sum():
    # s^(-1/2) v1 + s^(3/2) v2 generates a split rank-2 module
    phi = XiExpansion("1/2", DEPTH, 2, {(1, 0, 0): 1, (2, 2, 0): 1})
    span = xi_generate_module(phi)
    assert span.rank == 2
    p = model_from_xi(span)
    assert p.lambdas == (F(3, 2), F(5, 2))
    assert is_semisimple(p)
    filt = xi_log_filtration(span)
    assert filt["ranks"] == (2,)
    assert filt["d"] == 1


def test_mixed_extension_is_a_theme():
    # phi = s^(-1/2) + s^(1/2) Log.  (a - 3/2 b) phi = (b - 2) s^(1/2),
    # and a acts on u = (b - 2) s^(1/2) by (3/2 b - 1/2 b^2 + ...), so
    # the module is the rank-2 theme with exponents (3/2, 3/2), p = 1
    # and alpha = -1/2.  The third chain one might expect from the
    # degree-3 product annihilator is C[[b]]-dependent on the first two.
    phi = XiExpansion("1/2", DEPTH, 1, {(1, 0, 0): 1, (1, 1, 1): 1})
    span = xi_generate_module(phi)
    assert span.rank == 2
    p = model_from_xi(span)
    assert p.lambdas == (F(3, 2), F(3, 2))
    assert bernstein(p).roots == (F(-3, 2), F(-1, 2))
    cls = classify_rank2(p)
    assert cls.theme
    assert cls.alpha == F(-1, 2)
    assert not is_semisimple(p)
    filt = xi_log_filtration(span)
    assert filt["ranks"] == (1, 2)
    assert filt["d"] == 2


def test_two_component_extension():
    # phi = s^(-1/2) Log v1 + s^(1/2) v2.  The pure-v2 part of the
    # module is C[[b]] s^(5/2) (reached by the degree-2 annihilator of
    # the v1 part), giving the chain E_{7/2} then the rank-2 theme of
    # s^(-1/2) Log on top: invariants {9/2, 7/2, 7/2}.
    phi = XiExpansion("1/2", DEPTH, 2, {(1, 0, 1): 1, (2, 1, 0): 1})
    span = xi_generate_module(phi)
    assert span.rank == 3
    p = model_from_xi(span)
    assert p.lambdas == (F(5, 2), F(3, 2), F(3, 2))
    assert bernstein(p).roots == (F(-3, 2), F(-1, 2), F(-1, 2))
    assert not is_semisimple(p)
    filt = xi_log_filtration(span)
    assert filt["ranks"] == (2, 3)
    assert filt["d"] == 2


def test_span_membership():
    phi = term("1/2", 0, 2)
    span = xi_generate_module(phi)
    x = phi.apply_a().apply_b().apply_a()
    assert span.reduce(x).is_zero()
    assert span.reduce(x + phi.scale("7/3")).is_zero()
    probe = term("1/2", 0, 0)
    assert not span.reduce(probe).is_zero()


@settings(max_examples=25, deadline=None)
@given(small_expansions(), st.lists(st.sampled_from("ab"), max_size=4))
def test_span_closed_under_word(x, word):
    if x.is_zero():
        return
    span = xi_generate_module(x)
    y = x
    for op in word:
        y = getattr(y, "apply_" + op)()
    assert span.reduce(y).is_zero()


def test_generation_needs_depth():
    with pytest.raises(TruncationTooSmall):
        xi_generate_module(term("1/2", 0, 3, depth=8))


def test_zero_generates_nothing():
    with pytest.raises(SemanticError):
        xi_generate_module(XiExpansion("1/2", DEPTH, 1, {}))


def test_understated_rank_is_rejected():
    # a span that claims rank 1 for a log term has no degree-1 annihilator
    phi = term("1/2", 0, 1)
    ech = Echelon(xi_module._poskey)
    ech.insert(phi.terms)
    with pytest.raises(NotMonogenicAtTruncation):
        _annihilator_from_span(XiSpan(phi, ech, 1))


def test_rows_are_the_generating_pivots():
    phi = XiExpansion("1/2", DEPTH, 2, {(1, 0, 1): 1, (2, 1, 0): "2/3"})
    span = xi_generate_module(phi)
    pivots = span.echelon.pivots
    rows = span.rows
    assert list(rows) == list(pivots)
    for lead, row in rows.items():
        assert row.lead() == lead
        assert row.terms == pivots[lead]
    with pytest.raises(AttributeError):
        span.rows = {}


def test_closure_and_annihilator_build_no_expansion(monkeypatch):
    # a and b act on term dicts: once the source exists, generating the
    # module, filtering it by logs and solving for its annihilator
    # construct no further XiExpansion
    phi = XiExpansion("1/2", DEPTH, 2, {(1, 0, 1): 1, (2, 1, 0): "2/3"})

    def invariants():
        span = xi_generate_module(phi)
        return (span.rank, xi_log_filtration(span),
                _annihilator_from_span(span).degree)

    want = invariants()

    def forbidden(*args, **kwargs):
        raise AssertionError("an XiExpansion was built")

    monkeypatch.setattr(XiExpansion, "__init__", forbidden)
    assert invariants() == want
    assert want == (3, {"ranks": (2, 3), "d": 2}, 3)


# --- the scaled b against the formula on Fractions ---

def fraction_b(terms, lam, depth):
    """b term by term on Fractions, straight from the formula
    s^(mu-1) Log^j -> s^mu sum_i (-1)^(j-i) (j!/i!) mu^(i-j-1) Log^i."""
    out = {}
    for (comp, m, j), c in terms.items():
        if m + 1 < depth:
            mu = lam + m
            for i in range(j + 1):
                w = F((-1) ** (j - i) * factorial(j), factorial(i))
                axpy(out, c * w / mu ** (j - i + 1), {(comp, m + 1, i): 1})
    return out


def reference_integrate(terms, lam, depth):
    """_integrate's contract, (D b(terms), D) with D a positive integer,
    met by clearing the denominators of fraction_b."""
    image = fraction_b(terms, lam, depth)
    D = lcm(*(c.denominator for c in image.values()))
    return {pos: int(c * D) for pos, c in image.items()}, D


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(1), F(3, 7)]),
       st.lists(st.tuples(st.integers(1, 2), st.integers(0, DEPTH - 1),
                          st.integers(0, 4),
                          st.fractions(-5, 5, max_denominator=6)),
                max_size=6),
       st.integers(1, 4))
def test_scaled_b_is_b(lam, entries, k):
    x = XiExpansion(lam, DEPTH, 2, {(c, m, j): co for c, m, j, co in entries})
    # any integer multiple of the cleared dict will do
    den = lcm(*(c.denominator for c in x.terms.values()))
    ints = {pos: int(c * den * k) for pos, c in x.terms.items()}
    out, D = _integrate(ints, lam, DEPTH)
    assert type(D) is int and D > 0
    assert all(type(v) is int and v for v in out.values())
    scaled = {pos: F(v, den * k * D) for pos, v in out.items()}
    assert scaled == x.apply_b().terms == fraction_b(x.terms, lam, DEPTH)


@pytest.mark.parametrize("literal", [
    "s^(1/2) * log",
    "s^(-1/3) * log^3",
    "2/3 * s^(1/3) * log^2 + 3/2 * s^(4/3) * log",
    "s^(2/3) * log + s^(5/3) * log^2 - 2 * s^(8/3)",
    "s^(3/4) + s^(7/4) * log^4",
    "-3 * s^(1/5) * log^2 + s^(11/5) * log^3",
    "1/3 * s^(-1/3) * log + 3 * s^(2/3) * log + 2/3 * s^(5/3) * log",
])
def test_integer_eliminations_match_fraction_b(literal, monkeypatch):
    # the closure, the annihilator and the filtration give the same
    # answers when b comes from the Fraction formula
    phi = parse_xi(literal, 26)

    def invariants():
        span = xi_generate_module(phi)
        ann = _annihilator_from_span(span)
        return (span.echelon.pivots, span.rank, xi_log_filtration(span),
                [c.coeffs for c in ann.coeffs])

    want = invariants()
    monkeypatch.setattr(xi_module, "_integrate", reference_integrate)
    assert invariants() == want


# --- reconstruction properties ---

def model_inputs():
    coeffs = st.sampled_from([F(1), F(-1), F(2), F(1, 2)])
    entry = st.tuples(st.integers(1, 2), st.integers(0, 1),
                      st.integers(0, 1), coeffs)
    return st.builds(
        lambda lam, entries: XiExpansion(
            lam, 24, 2, {(c, m, j): co for c, m, j, co in entries}),
        st.sampled_from([F(1, 2), F(1, 3)]),
        st.lists(entry, min_size=1, max_size=3),
    )


@settings(max_examples=15, deadline=None)
@given(model_inputs())
def test_reconstruction_round_trip(phi):
    if phi.is_zero():
        return
    span = xi_generate_module(phi)
    p = model_from_xi(span)
    assert p.rank == span.rank
    assert p.is_principal()
    # the annihilator kills the generator through every trusted level;
    # its coefficients are series truncated at ordc, so a residual may
    # survive above vlo + ordc
    ann = _annihilator_from_span(span)
    ordc = min(c.order for c in ann.coeffs[:-1])
    vlo = min(m for (_, m, _) in phi.terms)
    res = apply_element(ann, phi)
    assert res.is_zero() or res.valuation() > vlo + ordc
    # exponents stay inside the class of lam
    assert all((l - span.lam).denominator == 1 for l in p.lambdas)


@settings(max_examples=15, deadline=None)
@given(model_inputs())
def test_no_logs_means_semisimple(phi):
    if phi.is_zero():
        return
    span = xi_generate_module(phi)
    p = model_from_xi(span)
    d = xi_log_filtration(span)["d"]
    assert (d == 1) == is_semisimple(p)


# --- the peel's remainders against division ---

ACTION_ORDER = 12
small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, max_size=6), min_size=1, max_size=4),
       small, st.integers(0, 3), st.integers(0, 2))
def test_peel_remainders_are_the_division_remainders(slots, mu, i, k):
    # left_divide is the reference: u b^i = q (a - mu b) + r
    u = AbElement([SeriesB(cs, ACTION_ORDER) for cs in slots])
    shifted = AbElement([c.shift(i) for c in u.coeffs])
    _, r = left_divide(shifted, AbElement.linear(mu, ACTION_ORDER + 2))
    assert r.degree == 0
    rho = _remainders(u, mu, k, ACTION_ORDER - k)
    for n in range(ACTION_ORDER - k + 1):
        assert rho(i, n) == r.coeff_series(0).coeff(k + n)


def test_peel_remainders_need_no_series(monkeypatch):
    ann = monicize(expand_factor_form(
        [(F(7, 2), SeriesB([1, 2, -1], 10)), (F(3, 2), SeriesB.one(10))],
        10))
    values = {}

    def forbidden(*args, **kwargs):
        raise AssertionError("the weight table built a series")

    for name in ("shift", "__add__", "__init__"):
        monkeypatch.setattr(SeriesB, name, forbidden)
    rho = _remainders(ann, F(5, 2), 2, 8)
    for i in range(4):
        for n in range(9):
            values[i, n] = rho(i, n)
    monkeypatch.undo()
    # ann b^i is divided by a - 5/2 b: rho(i, n) is its remainder's
    # b^(2+n) coefficient, up to the order ann is known to
    for i in range(4):
        shifted = AbElement([c.shift(i) for c in ann.coeffs])
        _, r = left_divide(shifted, AbElement.linear(F(5, 2), 12))
        rem = r.coeff_series(0)
        assert [values[i, n] for n in range(9)] == \
            [rem.coeff(2 + n) for n in range(9)]


def test_one_division_per_root_and_per_peel(monkeypatch):
    peels = []
    peel = xi_module._peel_unit

    def counted(ann, mu, k):
        peels.append(k)
        return peel(ann, mu, k)

    def forbidden(*args, **kwargs):
        raise AssertionError("the peel called left_divide")

    # the roots come off the Bernstein polynomial and each peel divides
    # by (a - mu b) synthetically
    monkeypatch.setattr(xi_module, "_peel_unit", counted)
    monkeypatch.setattr(algebra_module, "left_divide", forbidden)
    monkeypatch.setattr(xi_module, "left_divide", forbidden, raising=False)
    span = xi_generate_module(term("1/2", 0, 3, depth=20))
    assert model_from_xi(span).rank == span.rank == 4
    assert peels == [4, 3, 2, 1]


def test_peel_quotient_is_the_division_quotient():
    ann = monicize(expand_factor_form(
        [(F(7, 2), SeriesB([1, 2, -1], 10)), (F(3, 2), SeriesB([1, 0, 3], 10))],
        10))
    unit, q = _peel_unit(ann, F(3, 2), 2)
    # left_divide is the reference: ann T = q (a - 3/2 b), remainder 0
    scaled = AbElement([c * unit for c in ann.coeffs])
    want, r = left_divide(scaled, AbElement.linear(F(3, 2), unit.order))
    assert r.is_zero()
    assert q == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F(1, 3), F(1, 2), F(1)]),
       st.lists(st.integers(0, 5), min_size=1, max_size=4),
       st.lists(small, min_size=4, max_size=4))
def test_bernstein_roots_are_the_invariants(lam, steps, rhos):
    # (a - l_1 b) S_1 ... (a - l_r b) S_r has the invariants l_j + j;
    # the units do not reach its homogeneous part
    r = len(steps)
    lambdas = [lam + r - j + n for j, n in enumerate(steps, start=1)]
    units = [SeriesB([1, rho], 8) for rho in rhos[:r]]
    ann = monicize(expand_factor_form(list(zip(lambdas, units)), 8))
    got = _bernstein_invariants(ann, lam, r, 12)
    assert sorted(got) == sorted(l + j for j, l in enumerate(lambdas, 1))
    with pytest.raises(NotMonogenicAtTruncation):
        _bernstein_invariants(ann, lam, r, int(min(got) - lam - r) - 1)
