"""Expansion engine: operator action, generated modules, reconstruction.

The frozen presentations here were derived by hand.  For instance for
phi = s^(-1/2) + s^(1/2) Log s one has (a - 3/2 b) phi = (b - 2) s^(1/2)
exactly, and a kills no more logs after that, so the module is the
rank-2 theme with exponents (3/2, 3/2) and alpha = -1/2.
"""

import json
import os
import re
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from frescos.algebra import AbElement
from frescos.alpha import classify_rank2, is_semisimple
from frescos.errors import EngineError, NotMonogenicAtTruncation, SemanticError
from frescos.fresco import (
    _bernstein_invariants,
    _peel_unit,
    bernstein,
)
from frescos.dsl import parse_xi
from frescos.linalg import Echelon, Solver, axpy, certified_rank, integral
from frescos.series import SeriesB
import frescos.algebra as algebra_module
import frescos.fresco as fresco_module
import frescos.linalg as linalg_module
import frescos.xi as xi_module
from frescos.xi import (
    XiExpansion,
    XiSpan,
    _annihilator_from_span,
    _integrate,
    _poskey,
    model_from_xi,
    xi_exponent_split,
    xi_generate_module,
    xi_log_filtration,
)
from test_algebra import expand_factor_form, left_divide, monicize

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
    # a log power past the source's has no int in the span's order; it
    # lies outside Xi_lam^(2), so it is its own residual
    past = x + term("1/2", 5, 3)
    assert span.reduce(past) == past


@pytest.mark.parametrize("j", [2, 0])
def test_reduce_refuses_another_space(j):
    # the lead (1, 0, 2) of the source is a pivot, (1, 0, 0) is none;
    # either way an expansion of another class is refused
    span = xi_generate_module(term("1/2", 0, 2))
    assert ((1, 0, j) in span.rows) == (j == 2)
    with pytest.raises(SemanticError, match="different spaces"):
        span.reduce(term("1/3", 0, j))


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
    # the span is exact at any depth, even below J + 3; the annihilator
    # refuses a short window, naming the depth the module's rank needs,
    # r + vhi + (vhi - vlo) + 1 + r(r+1)/2: 15 for rank r = J + 1 = 4 at
    # shift 0, and 5 + 1 + 1 + 1 + 15 = 23 for the rank-5 pair below
    span = xi_generate_module(term("1/2", 0, 3, depth=5))
    assert xi_log_filtration(span) == {"ranks": (1, 2, 3, 4), "d": 4}
    with pytest.raises(NotMonogenicAtTruncation,
                       match="rerun with --order 15$"):
        model_from_xi(span)
    phi = XiExpansion("1/2", 5, 2, {(1, 0, 3): 1, (2, 1, 0): 1})
    for depth in (5, 8):
        span = xi_generate_module(XiExpansion("1/2", depth, 2, phi.terms))
        assert span.rank == 5
        with pytest.raises(NotMonogenicAtTruncation,
                           match="rerun with --order 23$"):
            model_from_xi(span)
    assert model_from_xi(xi_generate_module(
        XiExpansion("1/2", 23, 2, phi.terms))).rank == 5


def test_certified_rank_does_not_move_with_the_depth():
    # linalg.certified_rank looks only at where the profile last grew,
    # so a closure stopped before a late chain starts would certify too
    # small a rank; one component takes its rank from Xi instead
    ranks = {depth: xi_generate_module(
                 parse_xi("-s^(1/2) * log + s^(7/2) * log^2", depth)).rank
             for depth in range(6, 17)}
    assert len(set(ranks.values())) == 1, ranks


def test_zero_generates_nothing():
    with pytest.raises(SemanticError):
        xi_generate_module(XiExpansion("1/2", DEPTH, 1, {}))


def test_understated_rank_is_rejected():
    # a span that claims rank 1 for a log term has no degree-1 annihilator
    span = XiSpan(term("1/2", 0, 1))
    span.rank = 1
    with pytest.raises(NotMonogenicAtTruncation):
        _annihilator_from_span(span)


class StuckSolver:
    """A Solver under which the column reduction raises no level: every
    column depends on the ones before it, and the combination is the
    column itself."""
    pivots = []

    def __init__(self, rows, K):
        pass

    def __call__(self, row):
        return [], 1


def test_column_reduction_that_raises_no_level_fails_fast(monkeypatch):
    # such a reduction would loop for ever; r depth + 1 passes bound the
    # loop, 2 * 16 + 1 here
    monkeypatch.setattr(xi_module, "Solver", StuckSolver)
    span = xi_generate_module(term("1/2", 0, 1))
    with pytest.raises(AssertionError, match="^annihilator column "
                       "reduction: no level rose in 33 passes$"):
        _annihilator_from_span(span)


class EndlessEchelon(Echelon):
    """An Echelon under which no N-image ever lies in the span: every
    insert stores a fresh pivot."""

    def insert(self, vec):
        lead = len(self.pivots)
        self.pivots[lead] = {lead: 1}
        return lead


def test_an_n_chain_that_never_ends_fails_fast(monkeypatch):
    # such a chain would loop for ever; top + 2 inserts bound it, 4 here
    monkeypatch.setattr(xi_module, "Echelon", EndlessEchelon)
    with pytest.raises(AssertionError, match="^log ranks: the N-chain of a "
                       "shift ran past its 3 log powers$"):
        xi_generate_module(term("1/2", 0, 2))


def test_rows_are_the_generating_pivots():
    phi = XiExpansion("1/2", DEPTH, 2, {(1, 0, 1): 1, (2, 1, 0): "2/3"})
    span = xi_generate_module(phi)
    # the echelon runs on the ints of span.order; rows reads them back
    order = span.order
    pivots = span.echelon.pivots
    rows = span.rows
    assert list(rows) == [order.positions[i] for i in pivots]
    for (lead, row), vec in zip(rows.items(), pivots.values()):
        assert min(row.terms, key=_poskey) == lead
        assert row.terms == order.terms(vec)
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


def test_one_component_annihilator_integrates_nothing(monkeypatch):
    # on one component the solve reads b-coordinates, where b is the
    # shift: it neither integrates a term dict nor orders positions
    span = xi_generate_module(parse_xi("-s^(0) * log - s^(1) * log^2", 24))
    want = _annihilator_outcome(chain_annihilator, span)

    def forbidden(*args, **kwargs):
        raise AssertionError("the annihilator integrated or ordered terms")

    monkeypatch.setattr(xi_module, "_integrate", forbidden)
    monkeypatch.setattr(XiSpan, "order", property(forbidden))
    assert _annihilator_outcome(_annihilator_from_span, span) == want
    assert _annihilator_from_span(span).degree == 3


# --- positions as ints ---

def _logkey(pos):
    """Filtration order: higher logs first."""
    comp, m, j = pos
    return (-j, m, comp)


class KeyOrder:
    """The positions (comp, m, j) of phi's space, every component up to
    ncomp and every log up to its top, as ints in the order of key: the
    position order the closure's log filtration ran on."""

    def __init__(self, phi, key):
        top = max((j for (_, _, j) in phi.terms), default=0)
        self.positions = sorted(
            ((c, m, j) for c in range(1, phi.ncomp + 1)
             for m in range(phi.depth) for j in range(top + 1)), key=key)
        self.index = {pos: i for i, pos in enumerate(self.positions)}

    def ints(self, terms):
        return {self.index[pos]: x for pos, x in terms.items()}

    def terms(self, vec):
        return {self.positions[i]: x for i, x in vec.items()}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(4, 7),
       st.booleans())
def test_position_ints_sort_like_the_keys_and_decode(ncomp, top, depth,
                                                      logfirst):
    # linalg eliminates in int order, so the int of (comp, m, j) must sort
    # like the generation key (m, -j, comp), or like the filtration key
    # (-j, m, comp) of the test-side KeyOrder, fill one range from 0 and
    # decode back
    phi = XiExpansion("1/2", depth, ncomp,
                      {(c, 0, top if c == 1 else 0): 1
                       for c in range(1, ncomp + 1)})
    if logfirst:
        key, order = _logkey, KeyOrder(phi, _logkey)
    else:
        key, order = xi_module._poskey, xi_module._Order(phi)
    box = [(comp, m, j) for comp in range(1, ncomp + 1)
           for m in range(depth) for j in range(top + 1)]
    index = {pos: next(iter(order.ints({pos: 1}))) for pos in box}
    assert sorted(box, key=index.get) == sorted(box, key=key)
    assert sorted(index.values()) == list(range(len(order.positions)))
    terms = {pos: c for c, pos in enumerate(box, start=1)}
    assert order.terms(order.ints(terms)) == terms


def test_generation_order_skips_the_components_without_terms():
    # only the components that carry a term are indexed, so a high
    # component index costs nothing
    phi = XiExpansion("1/2", 5, 10 ** 6, {(1, 0, 1): 1, (10 ** 6, 1, 0): 1})
    order = xi_module._Order(phi)
    assert len(order.positions) == 2 * 5 * 2
    assert {c for (c, _, _) in order.positions} == {1, 10 ** 6}
    assert XiSpan(phi).reduce(term("1/2", 0, 0, comp=2, ncomp=10 ** 6,
                                   depth=5)).terms == {(2, 0, 0): 1}


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
    # the closure and the filtration give the same answers when b comes
    # from the Fraction formula; _integrate no longer feeds the
    # annihilator, which reads b-coordinates, so it cannot move either
    phi = parse_xi(literal, 26)

    def invariants():
        span = xi_generate_module(phi)
        ann = _annihilator_from_span(span)
        return (span.rows, span.rank,
                echelon_filtration(span, span.rank),
                [c.coeffs for c in ann.coeffs])

    want = invariants()
    monkeypatch.setattr(xi_module, "_integrate", reference_integrate)
    assert invariants() == want


# --- the level solve against the windowed chain solve ---

def chain_annihilator(span):
    """The annihilator solved the chain way, in normal order directly.

    The unknowns c_(m,i) of a^r + sum_m a^m c_m(b) multiply the chain
    a^m b^i phi, built with _integrate on integers, for m + i <= top_ji
    = depth - 1 - vhi, and one Solver over the positions of span.order
    takes them all, interior columns first so slack at the crust never
    steals a pivot.  Only orders up to depth - r - vhi - (vhi - vlo) are
    trusted, and an undetermined coefficient among them is refused.
    """
    phi = span.source
    r = span.rank
    depth = span.depth
    vlo = min(m for (_, m, _) in phi.terms)
    vhi = max(m for (_, m, _) in phi.terms)
    top_ji = depth - 1 - vhi
    mmax = top_ji + vlo
    ordc = depth - r - vhi - (vhi - vlo)
    need = xi_module._annihilator_depth(phi, r)
    if depth < need:
        raise NotMonogenicAtTruncation(
            "depth %d leaves no room for a degree-%d annihilator and its "
            "%d unit peels; rerun with --order %d" % (depth, r, r, need)
        )
    # the chain b^i phi runs on integers, s0 ratio[i] times the true one
    w = {}
    shifted, _ = integral(phi.terms)
    ratio = [F(1)]
    for i in range(top_ji + 1):
        if i:
            shifted, D = _integrate(shifted, phi.lam, mmax + 1)
            g = gcd(*shifted.values())
            shifted = {p: x // g for p, x in shifted.items()}
            ratio.append(ratio[-1] * F(D, g))
        cur = shifted
        for m in range(r):
            if m + i <= top_ji:
                w[(m, i)] = cur
            cur = xi_module._times_s(cur, mmax + 1)
        if i == 0:
            top = cur
    cols = sorted(w, key=lambda c: (c[0] + c[1], c))
    order = span.order
    solver = Solver([order.ints(w[col]) for col in cols],
                    len(order.positions))
    got = solver(order.ints({p: -x for p, x in top.items()}))
    pivots = set(solver.pivots)
    for c, col in enumerate(cols):
        if c not in pivots and col[1] <= ordc:
            raise NotMonogenicAtTruncation(
                "annihilator coefficient %s is undetermined" % (col,)
            )
    if got is None:
        raise NotMonogenicAtTruncation(
            "no annihilator of degree %d at depth %d" % (r, depth)
        )
    # sum_c nums[c] ratio[i] a^m b^i phi = -den a^r phi over c = (m, i)
    nums, den = got
    z = dict(zip(cols, nums))
    ratio = ratio[:ordc + 1]
    L = lcm(*(q.denominator for q in ratio))
    mult = [q.numerator * (L // q.denominator) for q in ratio]
    return AbElement([SeriesB._lowest(
        [z[(m, i)] * f for i, f in enumerate(mult)], den * L, ordc)
        for m in range(r)] + [SeriesB.one(ordc)])


def _annihilator_outcome(solve, span):
    """The slots with their orders, or the error class and message."""
    try:
        ann = solve(span)
    except NotMonogenicAtTruncation as err:
        return type(err), str(err)
    return [(c.nums, c.den, c.order) for c in ann.coeffs]


@st.composite
def spread_expansions(draw):
    """(lam, terms, depth offset): 1-3 components, log powers up to 4
    at levels up to 5, the top log power often above the lowest
    level."""
    ncomp = draw(st.integers(1, 3))
    entry = st.tuples(st.integers(1, ncomp), st.integers(0, 5),
                      st.integers(0, 4),
                      st.sampled_from([F(1), F(-1), F(2), F(-1, 3), F(3, 2)]))
    entries = draw(st.lists(entry, min_size=1, max_size=4))
    if draw(st.booleans()):
        # a low term under the top log power, one level up
        comp, m, j, c = max(entries, key=lambda e: e[2])
        entries.append((comp, m + 1 if m < 5 else m, j, c))
        entries.append((comp, max(m - 1, 0), max(j - 1, 0), -c))
    lam = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(1), F(3, 5)]))
    return lam, ncomp, entries, draw(st.integers(0, 12))


@settings(max_examples=150, deadline=None)
@example((F(1, 2), 1, [(1, 0, 1, F(-1)), (1, 1, 2, F(-1))], 0))
@given(spread_expansions())
def test_level_solve_is_the_chain_solve(case):
    # at the span's rank both solves give the same slots, or the same
    # refusal; at rank - 1 both find no annihilator
    lam, ncomp, entries, off = case
    terms = {}
    for comp, m, j, c in entries:
        terms[(comp, m, j)] = terms.get((comp, m, j), 0) + c
    try:
        span = xi_generate_module(XiExpansion(lam, 40, ncomp, terms))
    except SemanticError:
        return
    r = span.rank
    need = xi_module._annihilator_depth(span.source, r)
    depth = min(max(need, 4) + off, 40)
    phi = XiExpansion(lam, depth, ncomp, span.source.terms)
    for rank in (r, r - 1):
        if rank:
            at = XiSpan(phi)
            at.rank = rank
            got = _annihilator_outcome(_annihilator_from_span, at)
            assert got == _annihilator_outcome(chain_annihilator, at)
            if rank < r and depth >= need:
                assert got == (NotMonogenicAtTruncation,
                               "no annihilator of degree %d at depth %d"
                               % (rank, depth))


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
    assert res.is_zero() or min(m for (_, m, _) in res.terms) > vlo + ordc
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


@st.composite
def class_expansions(draw):
    """1-4 terms on 1-3 components at depth 48: shifts 0-4, log powers
    0-3, a class representative of denominator 1-6."""
    q = draw(st.integers(1, 6))
    lam = F(draw(st.integers(1, q)), q)
    ncomp = draw(st.integers(1, 3))
    entry = st.tuples(st.integers(1, ncomp), st.integers(0, 4),
                      st.integers(0, 3),
                      st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(3)]))
    return XiExpansion(lam, 48, ncomp, {
        (c, m, j): co for c, m, j, co in draw(st.lists(entry, min_size=1,
                                                       max_size=4))})


@settings(max_examples=100, deadline=None)
@given(class_expansions())
def test_semisimple_is_a_log_free_span(phi):
    # where an expansion's report carries semisimple, it is d == 1: the
    # module splits into rank-1 pieces exactly when no log is needed
    if phi.is_zero():
        return
    span = xi_generate_module(phi)
    try:
        ss = is_semisimple(model_from_xi(span))
    except EngineError:
        return
    assert ss == (xi_log_filtration(span)["d"] == 1)


# --- the peel against division ---

ACTION_ORDER = 12
small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def test_one_division_per_root_and_per_peel(monkeypatch):
    peels = []
    peel = fresco_module._peel_unit

    def counted(ann, mu, k):
        peels.append(k)
        return peel(ann, mu, k)

    def forbidden(*args, **kwargs):
        raise AssertionError("the peel called left_divide")

    # the roots come off the Bernstein polynomial and each peel divides
    # by (a - mu b) synthetically
    monkeypatch.setattr(fresco_module, "_peel_unit", counted)
    monkeypatch.setattr(algebra_module, "left_divide", forbidden,
                        raising=False)
    monkeypatch.setattr(fresco_module, "left_divide", forbidden,
                        raising=False)
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
    assert not any(r.coeffs)
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
    got = _bernstein_invariants(ann, lam)
    assert sorted(got) == sorted(l + j for j, l in enumerate(lambdas, 1))
    # the search only moves up, which presentation_from_annihilator uses
    assert got == sorted(got)
    # another class holds no root: the search stops past the roots' mean
    with pytest.raises(NotMonogenicAtTruncation,
                       match="no right root in the exponent class"):
        _bernstein_invariants(ann, lam / 2)


# --- one component: the rank and the filtration from Xi ---

XI_POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "perfbench", "pool", "xi-logs.jsonl")


def _pool_literals():
    """Every 10th distinct expansion of the xi benchmark pool, each
    with its --order."""
    seen = {}
    with open(XI_POOL) as fh:
        for line in fh:
            argv = json.loads(line)["argv"]
            seen.setdefault(argv[-1], int(argv[argv.index("--order") + 1]))
    return list(seen.items())[::10]


def one_component_expansions():
    entry = st.tuples(st.integers(0, 6), st.integers(0, 3),
                      st.sampled_from([F(1), F(-1), F(2), F(-1, 3)]))
    return st.builds(
        lambda lam, entries: XiExpansion(
            lam, 24, 1, {(1, m, j): co for m, j, co in entries}),
        st.sampled_from([F(n, 6) for n in range(1, 7)]),
        st.lists(entry, min_size=1, max_size=3),
    )


def assert_closure_gives_rank_from_xi(phi):
    # the closure that a span of several components goes through, run
    # on one component, certifies the rank J + 1 and the filtration
    # (1, .., J + 1) that xi_generate_module and xi_log_filtration take
    # from Xi
    top = max(j for (_, _, j) in phi.terms)
    span = xi_generate_module(phi)
    assert span.rank == top + 1
    rank, _, need = certified_rank(
        (m for (_, m, _) in span.rows), phi.depth)
    assert (rank, need) == (top + 1, 0)
    want = {"ranks": tuple(range(1, top + 2)), "d": top + 1}
    assert echelon_filtration(span, rank) == want
    assert xi_log_filtration(span) == want


@pytest.mark.parametrize("literal, depth", _pool_literals())
def test_closure_certifies_the_rank_from_xi_on_the_pool(literal, depth):
    assert_closure_gives_rank_from_xi(parse_xi(literal, depth))


@settings(max_examples=30, deadline=None)
@given(one_component_expansions())
def test_closure_certifies_the_rank_from_xi(phi):
    if not phi.is_zero():
        assert_closure_gives_rank_from_xi(phi)


def test_log_chains_offer_the_echelon_small_vectors(monkeypatch):
    # each N-chain goes on from the stored primitive row: from the
    # unreduced vector the entries of log^300's chain grow like 300!
    offered = []

    class Recording(Echelon):
        def insert(self, vec):
            offered.append(max(map(abs, vec.values()), default=0))
            return super().insert(vec)

    monkeypatch.setattr(xi_module, "Echelon", Recording)
    phi = parse_xi("s^(1/2) * log^300", DEPTH)
    assert xi_module._log_ranks(phi) == tuple(range(1, 302))
    assert offered and max(offered) < 2 ** 64


def assert_no_closure_and_one_order(literal, monkeypatch):
    # the rule takes the rank and the filtration off the coefficients,
    # the same at every depth, so with no closure every short window
    # names the same order, and the report succeeds there
    want = xi_log_filtration(xi_generate_module(parse_xi(literal, 40)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a closure was built")

    spans = {}
    with monkeypatch.context() as patch:
        patch.setattr(linalg_module, "closure", forbidden)
        patch.setattr(xi_module, "closure", forbidden)
        for depth in range(6, 40):
            spans[depth] = xi_generate_module(parse_xi(literal, depth))
            assert xi_log_filtration(spans[depth]) == want
            assert spans[depth].rank == want["ranks"][-1]
    need = xi_module._annihilator_depth(spans[6].source, spans[6].rank)
    for depth in range(6, need):
        with pytest.raises(NotMonogenicAtTruncation,
                           match=r"rerun with --order %d$" % need):
            model_from_xi(spans[depth])
    assert model_from_xi(spans[need]).rank == spans[need].rank
    return need


def test_one_component_needs_no_closure(monkeypatch):
    # a closure certified rank 2 at depth 6 and rank 3 from depth 11
    literal = "-s^(1/2)*log + s^(7/2)*log^2"
    assert assert_no_closure_and_one_order(literal, monkeypatch) == 17
    assert xi_log_filtration(xi_generate_module(parse_xi(literal, 6))) == \
        {"ranks": (1, 2, 3), "d": 3}


@pytest.mark.parametrize("literal", [
    "-s^(1/2) * log @ v1 + s^(1/2) @ v2",
    "-s^(1/2) * log @ v1 + s^(7/2) * log^2 @ v1 + s^(1/2) @ v3",
])
def test_several_components_need_no_closure(literal, monkeypatch):
    assert_no_closure_and_one_order(literal, monkeypatch)


# --- the closure's certified rank and log filtration as references ---

def echelon_filtration(span, rank):
    """The log filtration read off the closure, certified level by
    level, with d the least j at which rank S_j reaches rank; None
    where a window is too short to certify a rank S_j.

    The log-first echelon takes the span rows in reverse insertion
    order: the long b-chain of the top log power, inserted first, then
    reduces against the short rows of the lower logs instead of growing
    them.  The pivot set, hence every rank and d, depends on the span
    alone, not on the order.
    """
    depth, gen = span.depth, span.order
    # splitting by the highest log power present needs an echelon that
    # eliminates high logs first
    logs = KeyOrder(span.source, _logkey)
    ech = Echelon()
    groups = {}
    for v in reversed(span.echelon.pivots.values()):
        lead = ech.insert(logs.ints(gen.terms(v)))
        if lead is not None:
            groups.setdefault(logs.positions[lead][2], []).append(
                gen.ints(logs.terms(ech.pivots[lead])))
    total = max(groups) + 1 if groups else 1
    level_ech = Echelon()
    ranks = []
    d = None
    for cut in range(total):
        for v in groups.get(cut, ()):
            level_ech.insert(v)
        r, _, need = certified_rank(
            (gen.positions[i][1] for i in level_ech.pivots), depth)
        if need:
            return None
        ranks.append(r)
        if d is None and r == rank:
            d = cut + 1
    if d is None:
        raise AssertionError("filtration never reaches the full rank")
    return {"ranks": tuple(ranks), "d": d}


def closure_invariants(phi):
    """(rank, ranks, d) as the closure certifies them, the route several
    components took before the rule, or None where the window cannot
    certify them."""
    span = XiSpan(phi)
    rank, _, need = certified_rank(
        (span.order.positions[i][1] for i in span.echelon.pivots),
        phi.depth)
    filt = None if need else echelon_filtration(span, rank)
    return filt and (rank, filt["ranks"], filt["d"])


def rule_invariants(phi):
    span = xi_generate_module(phi)
    filt = xi_log_filtration(span)
    return span.rank, filt["ranks"], filt["d"]


@st.composite
def component_expansions(draw, depth):
    """1-3 components, shifts 0-6, log powers 0-4, up to four terms."""
    ncomp = draw(st.integers(1, 3))
    entry = st.tuples(st.integers(1, ncomp), st.integers(0, 6),
                      st.integers(0, 4),
                      st.sampled_from([F(1), F(-1), F(2), F(-1, 3), F(3, 2)]))
    terms = {}
    for comp, m, j, c in draw(st.lists(entry, min_size=1, max_size=4)):
        terms[(comp, m, j)] = terms.get((comp, m, j), 0) + c
    lam = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(1), F(3, 5)]))
    return XiExpansion(lam, depth, ncomp, terms)


@settings(max_examples=30, deadline=None)
@example(parse_xi("-s^(1/2) * log @ v1 + s^(7/2) * log^2 @ v1 "
                  "+ s^(1/2) @ v2", 30))
@given(component_expansions(30))
def test_rule_is_the_certified_closure(phi):
    # where the closure certifies the rank and every rank S_j, the rule
    # gives the same rank, ranks and d
    if phi.is_zero():
        return
    want = closure_invariants(phi)
    if want is not None:
        assert rule_invariants(phi) == want


@pytest.mark.parametrize("literal", [
    "s^(-1/2) * log^3 @ v1 + s^(1/2) @ v2",
    "s^(1/2) * log^3 @ v1 + s^(-1/2) * log @ v2",
    "- s^(1/2) * log @ v1 + s^(7/2) * log^2 @ v1 + s^(1/2) @ v2",
    "- s^(1/2) * log @ v1 + s^(5/2) * log^2 @ v1 + s^(3/2) @ v2",
    # N u_j = j u_(j-1): the shift u_j -> u_(j-1) alone would close the
    # coefficients to a space of dimension 3
    "s^(-1/2) * log^2 @ v1 + s^(-1/2) * log @ v2 + s^(1/2) * log @ v1 "
    "+ s^(1/2) @ v2",
])
def test_rule_is_the_certified_closure_on_several_components(literal):
    phi = parse_xi(literal, 40)
    want = closure_invariants(phi)
    assert want is not None
    assert rule_invariants(phi) == want


def report_outcome(phi):
    """The xi report's invariants at phi's depth, or the named order."""
    try:
        span = xi_generate_module(phi)
        p = model_from_xi(span)
    except NotMonogenicAtTruncation as err:
        return int(re.search(r"--order (\d+)", str(err)).group(1))
    return span.rank, p.lambdas, xi_log_filtration(span)


@settings(max_examples=25, deadline=None)
@example(parse_xi("-s^(1/2) * log @ v1 + s^(7/2) * log^2 @ v1 "
                  "+ s^(1/2) @ v2", 6))
@given(st.integers(7, 16).flatmap(component_expansions))
def test_each_refusal_names_one_order(phi):
    # a refusal names the least order that works: the report succeeds
    # there, and at that order - 1 it names the same order again; a
    # rank above 5 needs an order past 30, too slow to solve here
    if phi.is_zero() or XiSpan(phi).rank > 5:
        return
    named = report_outcome(phi)
    if not isinstance(named, int):
        return
    again = XiExpansion(phi.lam, named - 1, phi.ncomp, phi.terms)
    assert report_outcome(again) == named
    at = XiExpansion(phi.lam, named, phi.ncomp, phi.terms)
    rank, _, filt = report_outcome(at)
    assert rank == filt["ranks"][-1]


def test_several_component_refusal_names_the_order_that_works():
    # the closure named --order 13 at 6, and 22 at 13; the rule names
    # 22 at once, and at 22 the report gives rank 4 = sum_q (J_q + 1)
    literal = "-s^(1/2) * log @ v1 + s^(7/2) * log^2 @ v1 + s^(1/2) @ v2"
    for depth in (6, 13, 21):
        assert report_outcome(parse_xi(literal, depth)) == 22
    rank, lambdas, filt = report_outcome(parse_xi(literal, 22))
    assert rank == len(lambdas) == 4
    assert filt == {"ranks": (2, 3, 4), "d": 3}


@settings(max_examples=40, deadline=None)
@example(parse_xi("s^(1/2) * log^3", 40))
@given(component_expansions(40))
def test_log_filtration_does_not_move_with_the_depth(phi):
    # the span is exact at any depth from 4 up, below J + 3 too: at
    # depth 5 s^(1/2) log^3 has the ranks and d of depth 40
    if phi.is_zero():
        return
    want = xi_log_filtration(xi_generate_module(phi))
    top = max(j for (_, _, j) in phi.terms)
    vhi = max(m for (_, m, _) in phi.terms)
    for depth in range(max(4, vhi + 1), top + 4):
        span = xi_generate_module(
            XiExpansion(phi.lam, depth, phi.ncomp, phi.terms))
        assert xi_log_filtration(span) == want


# --- the integer peel against the peel on Fractions ---

def fraction_peel(ann, mu, k):
    """_peel_unit's unit T on Fractions: t_n = -sum_(i<n) t_i rho(i, n)
    / rho(n, n), where rho(i, n), the b^N coefficient of ann.(b^i e),
    N = k + n, is sum_m (mu+N-m)...(mu+N-1) c_(m,N-m-i)."""
    tmax = min(c.order for c in ann.coeffs) - k

    def rho(i, n):
        total, w = F(0), F(1)
        for m, c in enumerate(ann.coeffs):
            if m:
                w *= mu + k + n - m
            if k + n - i - m >= 0:
                total += w * c.coeff(k + n - i - m)
        return total

    if rho(0, 0):
        raise NotMonogenicAtTruncation(
            "%s is not a right root of the annihilator" % mu)
    t = [F(1)]
    for n in range(1, tmax + 1):
        acc = sum((t[i] * rho(i, n) for i in range(n)), F(0))
        dn = rho(n, n)
        if acc and not dn:
            raise NotMonogenicAtTruncation(
                "unit peel at exponent %s is obstructed in slot %d" % (mu, n))
        t.append(-acc / dn if dn else F(0))
    return SeriesB(t, tmax)


def _outcome(peel, ann, mu, k):
    try:
        return peel(ann, mu, k)
    except NotMonogenicAtTruncation as err:
        return str(err)


@settings(max_examples=60, deadline=None)
@example(F(1, 2), [(1, [F(1)]), (0, [])], 0, (0, 1, F(1)))  # obstructed
@given(st.sampled_from([F(1, 2), F(1, 3), F(2, 5), F(1)]),
       st.lists(st.tuples(st.integers(0, 3), st.lists(small, max_size=3)),
                min_size=1, max_size=3),
       st.sampled_from([0, 0, 0, 1, -1]),
       st.none() | st.tuples(st.integers(0, 3), st.integers(0, 6), small))
def test_integer_peel_is_the_fraction_peel(lam, factors, off, bump):
    # the right factor's exponent peels; off moves mu off the root and
    # bump moves a coefficient of c_m at b^(r-m) or above, where an
    # annihilator of degree r has its support, so refusals are compared
    # too
    r = len(factors)
    lambdas = [lam + r - j + n for j, (n, _) in enumerate(factors, start=1)]
    units = [SeriesB([1] + cs, ACTION_ORDER) for _, cs in factors]
    ann = monicize(expand_factor_form(list(zip(lambdas, units)),
                                      ACTION_ORDER))
    if bump is not None and bump[0] < r:
        m, i, x = bump
        coeffs = list(ann.coeffs)
        coeffs[m] = coeffs[m] + SeriesB.monomial(x, r - m + i,
                                                 coeffs[m].order)
        ann = AbElement(coeffs)
    mu = lambdas[-1] + off
    got = _outcome(lambda *a: _peel_unit(*a)[0], ann, mu, r)
    assert got == _outcome(fraction_peel, ann, mu, r)
    if isinstance(got, SeriesB):
        assert gcd(got.den, *got.nums) == 1
