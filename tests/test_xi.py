"""Expansion engine: operator action, generated modules, reconstruction.

The frozen presentations here were derived by hand.  For instance for
phi = s^(-1/2) + s^(1/2) Log s one has (a - 3/2 b) phi = (b - 2) s^(1/2)
exactly, and a kills no more logs after that, so the module is the
rank-2 theme with exponents (3/2, 3/2) and alpha = -1/2.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frescos.alpha import classify_rank2, is_semisimple
from frescos.errors import (
    NotMonogenicAtTruncation,
    SemanticError,
    TruncationTooSmall,
)
from frescos.fresco import bernstein
from frescos.xi import (
    XiExpansion,
    XiSpan,
    _annihilator_from_span,
    model_from_xi,
    xi_apply_element,
    xi_exponent_split,
    xi_generate_module,
    xi_log_filtration,
)

DEPTH = 16

F = Fraction


def term(lam, m, j, coeff=1, comp=1, ncomp=1, depth=DEPTH):
    return XiExpansion.term(lam, m, j, depth, coeff=coeff, comp=comp,
                            ncomp=ncomp)


# --- exponent bookkeeping ---

def test_exponent_split():
    assert xi_exponent_split("3/2") == (F(1, 2), 2)
    assert xi_exponent_split("-1/2") == (F(1, 2), 0)
    assert xi_exponent_split(2) == (F(1), 2)
    assert xi_exponent_split("-2/3") == (F(1, 3), 0)


def test_class_representative_range():
    with pytest.raises(SemanticError):
        XiExpansion.term(0, 0, 0, DEPTH)
    with pytest.raises(SemanticError):
        XiExpansion.term("3/2", 0, 0, DEPTH)


def test_term_validation():
    with pytest.raises(SemanticError):
        term("1/2", 0, 0, comp=2)
    with pytest.raises(SemanticError):
        term("1/2", 0, -1)
    with pytest.raises(SemanticError):
        term("1/2", -1, 0)
    with pytest.raises(ValueError):
        XiExpansion.term("1/2", 0, 0, 3)
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
    span = xi_generate_module(XiExpansion.term("1/2", 0, n, 24))
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
    assert span.contains(x)
    assert span.contains(x + phi.scale("7/3"))
    probe = term("1/2", 0, 0)
    assert not span.contains(probe)


@settings(max_examples=25, deadline=None)
@given(small_expansions(), st.lists(st.sampled_from("ab"), max_size=4))
def test_span_closed_under_word(x, word):
    if x.is_zero():
        return
    span = xi_generate_module(x)
    y = x
    for op in word:
        y = getattr(y, "apply_" + op)()
    assert span.contains(y)


def test_generation_needs_depth():
    with pytest.raises(TruncationTooSmall):
        xi_generate_module(XiExpansion.term("1/2", 0, 3, 8))


def test_zero_generates_nothing():
    with pytest.raises(SemanticError):
        xi_generate_module(XiExpansion("1/2", DEPTH, 1, {}))


def test_understated_rank_is_rejected():
    # a span that claims rank 1 for a log term has no degree-1 annihilator
    phi = term("1/2", 0, 1)
    with pytest.raises(NotMonogenicAtTruncation):
        _annihilator_from_span(XiSpan(phi, {phi.lead(): phi}, 1))


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
    res = xi_apply_element(ann, phi)
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
