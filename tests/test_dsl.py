"""Input format coverage: grammar instances, error positions, round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frescos.dsl import (
    fresco_from_json,
    fresco_to_json,
    parse_dsl,
    parse_fresco,
    parse_series,
    parse_xi,
    print_fresco,
    print_xi,
    series_from_json,
    series_to_json,
    to_json,
    xi_from_json,
    xi_to_json,
)
from frescos.errors import (
    DslSyntaxError,
    MixedPrimitiveClasses,
    NonUnitSeries,
    NotGeometric,
    SemanticError,
)
from frescos.fresco import Presentation
from frescos.series import DEFAULT_ORDER, SeriesB, format_series
from frescos.xi import XiExpansion

F = Fraction


# --- series literals ---

def test_series_literal():
    s = parse_series("1 + 3b^2 - 1/2b^5")
    assert s.coeff(0) == 1
    assert s.coeff(1) == 0
    assert s.coeff(2) == 3
    assert s.coeff(5) == F(-1, 2)
    assert s.order == DEFAULT_ORDER == 32


def test_series_implicit_pieces():
    # bare b means b^1, a bare coefficient is the constant term
    s = parse_series("2 + b", order=4)
    assert (s.coeff(0), s.coeff(1)) == (2, 1)
    assert parse_series("-b^3", order=3).coeff(3) == -1
    assert parse_series("0", order=2) == SeriesB.zero(2)


def test_series_order_control():
    assert parse_series("1 + b^20").order == DEFAULT_ORDER
    assert parse_series("1 + b^40").order == 40
    with pytest.raises(SemanticError):
        parse_series("1 + b^9", order=8)


def test_series_syntax_positions():
    with pytest.raises(DslSyntaxError) as err:
        parse_series("1 + 3x^2")
    assert err.value.line == 1
    assert err.value.column == 6
    with pytest.raises(DslSyntaxError) as err:
        parse_series("1 +\n+ ?")
    assert err.value.line == 2
    assert err.value.column == 3


# --- presentation literals ---

def test_fresco_literal():
    p = parse_fresco("fresco: (5/2 | 1 + 3b^2) (7/2 | 1)")
    assert p.rank == 2
    assert p.lambdas == (F(5, 2), F(7, 2))
    assert p.units[0].coeff(2) == 3
    assert p.units[1].constant() == 1


def test_fresco_tag_is_optional():
    p = parse_fresco("(3 | 1 + b) (3 | 1) (3 | 1)")
    assert p.lambdas == (F(3), F(3), F(3))


def test_fresco_semantic_errors():
    with pytest.raises(NotGeometric):
        parse_fresco("fresco: (1/2 | 1) (1/2 | 1)")
    with pytest.raises(NonUnitSeries):
        parse_fresco("fresco: (5/2 | 2 + b)")


def test_fresco_syntax_errors():
    with pytest.raises(DslSyntaxError):
        parse_fresco("fresco: (5/2 | 1")
    with pytest.raises(DslSyntaxError):
        parse_fresco("fresco: ")
    with pytest.raises(DslSyntaxError):
        parse_fresco("fresco: (5/2 , 1)")
    # the consumed token at fault is the one named: the 0, not the '|'
    with pytest.raises(DslSyntaxError, match="zero denominator") as err:
        parse_fresco("fresco: (5/0 | 1)")
    assert (err.value.line, err.value.column) == (1, 12)


# --- expansion literals ---

def test_xi_literal():
    x = parse_xi("s^(3/2) * log^2 * [1 + 2s] @ v1")
    assert x.lam == F(1, 2)
    assert x.terms == {(1, 2, 2): F(1), (1, 3, 2): F(2)}


def test_xi_literal_sums_and_components():
    x = parse_xi("s^(-1/2) @ v1 + 1/2 * s^(1/2) * log @ v2", depth=8)
    assert x.ncomp == 2
    assert x.depth == 8
    assert x.terms == {(1, 0, 0): F(1), (2, 1, 1): F(1, 2)}


def test_xi_mixed_classes_rejected():
    with pytest.raises(MixedPrimitiveClasses):
        parse_xi("s^(1/2) + s^(1/3)")


def test_xi_depth_guard():
    with pytest.raises(SemanticError):
        parse_xi("s^(1/2) * [1 + s^7]", depth=6)


def test_xi_window_is_checked_when_built():
    # a shift past the truncation depth is refused by the constructor,
    # so the literal and its JSON mirror agree
    message = "shift 40 is past the truncation depth 12"
    with pytest.raises(SemanticError, match=message):
        XiExpansion(F(1, 2), 12, 1, {(1, 2, 1): 1, (1, 40, 0): 5})
    with pytest.raises(SemanticError, match=message):
        parse_xi("s^(3/2) * log + 5 * s^(79/2)", depth=12)
    with pytest.raises(SemanticError, match=message):
        parse_dsl('{"lambda": "1/2", "depth": 12, '
                  '"terms": [[1, 2, 1, "1"], [1, 40, 0, "5"]]}')
    # whatever its coefficient
    with pytest.raises(SemanticError, match="shift 12 is past"):
        XiExpansion(F(1, 2), 12, 1, {(1, 12, 0): 0})


@pytest.mark.parametrize("text, column", [
    ("1 + \u00b2b", 5),
    ("1 + 3b^\u00b3", 8),
    ("\u00bd + b", 1),
])
def test_numbers_are_decimal_digit_runs(text, column):
    # superscripts pass str.isdigit but are no decimal digits
    with pytest.raises(DslSyntaxError) as err:
        parse_series(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_positions_count_lines_and_columns_from_one():
    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("fresco: (5/2 | 1)\n\t(7/2 | 1 + x)")
    assert (err.value.line, err.value.column) == (2, 13)
    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("xi: s^(1/2) @ w1")
    assert (err.value.line, err.value.column) == (1, 15)
    with pytest.raises(DslSyntaxError, match="end of input") as err:
        parse_fresco("fresco: (5/2 | 1\n")
    assert (err.value.line, err.value.column) == (2, 1)


def test_xi_syntax_errors():
    with pytest.raises(DslSyntaxError):
        parse_xi("s^(1/2) @ w1")
    with pytest.raises(DslSyntaxError):
        parse_xi("log^2")
    with pytest.raises(DslSyntaxError):
        parse_xi("s^(1/2) * [1 + 2b]")
    # the index at fault, not the end of the line past it
    with pytest.raises(DslSyntaxError, match="start at 1") as err:
        parse_xi("s^(1/2) @ v0")
    assert (err.value.line, err.value.column) == (1, 12)
    with pytest.raises(DslSyntaxError, match=r"expected 'log' or a "
                       r"'\[\.\.\.\]' shift polynomial") as err:
        parse_xi("s^(1/2) * 3")
    assert (err.value.line, err.value.column) == (1, 11)


# --- dispatch ---

def test_parse_dsl_dispatch():
    assert isinstance(parse_dsl("fresco: (2 | 1)"), Presentation)
    assert isinstance(parse_dsl("s^(1/2) * log"), XiExpansion)
    assert isinstance(parse_dsl("xi: s^(1/2)"), XiExpansion)
    assert isinstance(
        parse_dsl('{"factors": [{"lambda": "2", "unit": {"coeffs": ["1"]}}]}'),
        Presentation,
    )
    assert isinstance(
        parse_dsl('{"lambda": "1/2", "depth": 8, "terms": [[1, 0, 0, "1"]]}'),
        XiExpansion,
    )
    with pytest.raises(DslSyntaxError):
        parse_dsl("{not json")
    with pytest.raises(SemanticError):
        parse_dsl('{"neither": 1}')


# --- JSON mirrors ---

def test_series_json_round_trip():
    s = parse_series("1 - 1/3b + b^4", order=6)
    assert series_from_json(series_to_json(s)) == s
    assert series_to_json(s)["coeffs"][1] == "-1/3"


def test_fresco_json_round_trip():
    p = parse_fresco("fresco: (5/2 | 1 + 3b^2) (7/2 | 1)", order=8)
    d = fresco_to_json(p)
    assert d["factors"][0]["lambda"] == "5/2"
    assert fresco_from_json(d) == p
    assert to_json(p) == d


def test_xi_json_round_trip():
    x = parse_xi("s^(-1/2) + 2 * s^(1/2) * log @ v1", depth=12)
    d = xi_to_json(x)
    assert d["lambda"] == "1/2"
    assert d["depth"] == 12
    assert xi_from_json(d) == x
    assert to_json(x) == d


def test_json_payload_errors():
    with pytest.raises(SemanticError):
        series_from_json({"order": 4})
    with pytest.raises(SemanticError):
        fresco_from_json({"factors": [{"lambda": "5/2"}]})
    with pytest.raises(SemanticError):
        xi_from_json({"lambda": "1/2", "terms": [[1, 0, 0]]})


# --- round-trip properties ---

def units(order):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.lists(coeff, max_size=order - 1).map(
        lambda tail: SeriesB([F(1)] + tail, order)
    )


@st.composite
def presentations(draw, order=10):
    k = draw(st.integers(min_value=1, max_value=3))
    lams = []
    for j in range(1, k + 1):
        num = draw(st.integers(min_value=1, max_value=8))
        den = draw(st.sampled_from([1, 2, 3, 4]))
        lams.append(k - j + F(num, den))
    us = [draw(units(order)) for _ in range(k)]
    return Presentation(list(zip(lams, us)))


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_fresco_round_trip(p):
    text = print_fresco(p)
    assert parse_fresco(text, order=10) == p
    assert fresco_from_json(fresco_to_json(p)) == p


@st.composite
def expansions(draw):
    lam = F(draw(st.sampled_from(["1/2", "1/3", "1"])))
    ncomp = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        key = (
            draw(st.integers(min_value=1, max_value=ncomp)),
            draw(st.integers(min_value=0, max_value=8)),
            draw(st.integers(min_value=0, max_value=2)),
        )
        terms[key] = draw(
            st.fractions(min_value=-4, max_value=4, max_denominator=3)
        )
    return XiExpansion(lam, 16, ncomp, terms)


@settings(max_examples=40, deadline=None)
@given(expansions())
def test_xi_round_trip(x):
    text = print_xi(x)
    assert parse_xi(text, depth=x.depth, ncomp=x.ncomp) == x
    assert xi_from_json(xi_to_json(x)) == x


@settings(max_examples=40, deadline=None)
@given(units(9))
def test_series_round_trip(s):
    assert parse_series(format_series(s), order=s.order) == s
