"""Rank-2 classes, the alpha invariant, semi-simplicity, theme classes."""

import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import frescos.alpha as alpha_module
from frescos.alpha import (
    Analysis,
    Rank2Class,
    ThemeClass,
    alpha_reduce_step,
    classify_rank2,
    dual_twist_rank2,
    is_semisimple,
    rank3_alpha_formula,
)
from frescos.dsl import from_json, parse_fresco
from frescos.errors import (
    AlphaZero,
    CoefficientBeyondOrder,
    EngineError,
    NotInF0,
    NotPrimitive,
    PValueZero,
    ResonantObstruction,
    SemanticError,
    WrongRank,
)
from frescos.fresco import (AdaptedModel, Presentation,
                            regenerate_presentation, sub_quotient, twist)
from frescos.cli import _random_generator, main
from frescos.oracle import submodule_analysis, truncate_rep
from frescos.series import SeriesB, rat, solve_resonant_ode
from test_fresco import EBasisModel, count_inversions, reference_regenerate

ORDER = 20


def unit(*coeffs, order=ORDER):
    return SeriesB([1] + list(coeffs), order)


def pres(*pairs):
    return Presentation([(rat(l), u) for l, u in pairs])


def test_classify_theme():
    got = classify_rank2(pres(("5/2", unit(0, 3)), ("7/2", unit())))
    assert got == Rank2Class(rat("5/2"), rat("7/2"), 2, Fraction(3), True)


def test_classify_split():
    got = classify_rank2(pres(("5/2", unit(0, 0, 7)), ("7/2", unit())))
    assert got.alpha == 0
    assert not got.theme


def test_classify_ignores_last_unit():
    a = classify_rank2(pres((3, unit(0, 5)), (4, unit())))
    b = classify_rank2(pres((3, unit(0, 5)), (4, unit(2, -1, 3))))
    assert a.alpha == b.alpha == 5


def test_classify_zero_step_is_a_theme():
    got = classify_rank2(pres((3, unit(4, 4)), (2, unit())))
    assert got.p == 0
    assert got.theme
    assert got.alpha == 1


def test_classify_wrong_rank():
    with pytest.raises(WrongRank):
        classify_rank2(pres((3, unit())))


def test_classify_not_primitive():
    with pytest.raises(NotPrimitive):
        classify_rank2(pres(("5/2", unit()), (3, unit())))


def test_not_primitive_has_one_wording():
    out = io.StringIO()
    text = "fresco: (5/2 | 1) (3 | 1)"
    assert main(["analyze", "--format", "json", "--seed", "1", text],
                stdout=out) == 0
    diag = json.loads(out.getvalue())["diagnostics"]
    want = "NotPrimitive: exponents differ by non integers"
    assert diag["alpha_unavailable"] == want
    assert diag["semisimple_unavailable"] == want
    assert diag["theme_classes_unavailable"] == want


def test_classify_needs_principal_order():
    with pytest.raises(SemanticError):
        classify_rank2(pres(("9/2", unit()), ("5/2", unit())))


def reference_classify_rank2(p):
    """classify_rank2 as it was before it became a view of an Analysis:
    its own checks and its own read of the b^p coefficient of S_1."""
    if p.rank != 2:
        raise WrongRank("rank-2 classification got rank %d" % p.rank)
    alpha_module._require_primitive(p)
    lam1, lam2 = p.lambdas
    step = p.p_values()[0]
    if step < 0:
        raise SemanticError(
            "p_1 = %s: factors are not in principal order" % step
        )
    if step == 0:
        return Rank2Class(lam1, lam2, step, Fraction(1), True)
    alpha = Fraction(alpha_module._step_coeff(p, 1, 2, 0, p, 1),
                     p.units[0].den)
    return Rank2Class(lam1, lam2, step, alpha, alpha != 0)


@st.composite
def rank2_any(draw):
    """Rank 2 with p_1 from -1 to 4, a third of the time off the class of
    l_1, and units known to orders 0..6, often short of b^(p_1)."""
    lam1 = draw(st.sampled_from([Fraction(3), Fraction(7, 2), Fraction(4)]))
    lam2 = lam1 + draw(st.integers(-2, 3)) + \
        draw(st.sampled_from([0, 0, Fraction(1, 2)]))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    units = []
    for _ in range(2):
        order = draw(st.integers(0, 6))
        units.append(SeriesB([1] + draw(st.lists(coeffs, max_size=order)),
                             order))
    return Presentation(list(zip((lam1, lam2), units)))


def _class_or_error(classify, p):
    try:
        c = classify(p)
    except EngineError as exc:
        return type(exc), str(exc)
    return c.lam1, c.lam2, c.p, c.alpha, c.theme


@settings(max_examples=150, deadline=None)
@given(rank2_any())
@example(pres((3, unit(1)), (2, unit())))                  # p_1 = 0
@example(pres(("9/2", unit()), ("5/2", unit())))           # p_1 < 0
@example(pres(("5/2", unit()), (3, unit())))               # not primitive
@example(pres((3, unit(1, order=1)), (5, unit())))         # S_1 too short
@example(pres((3, unit(order=0)), (5, unit())))
@example(pres((3, unit())))                                # wrong rank
@example(pres((3, unit()), (3, unit()), (3, unit())))
def test_classify_rank2_is_the_analysis_view(p):
    assert _class_or_error(classify_rank2, p) == \
        _class_or_error(reference_classify_rank2, p)


def test_reduce_step_worked_example():
    # p(E) + k - 2 = 3: the reduced units are known to b^2
    p = pres((3, unit(0, 1)), (3, unit()), (3, unit()))
    q = alpha_reduce_step(p)
    assert q.lambdas == (3, 4)
    assert [u.order for u in q.units] == [2, 2]
    assert q.units[0].same_upto(unit(0, 1), 2)
    assert q.units[1].same_upto(unit(), 2)
    assert Analysis(p).alpha() == 1


def test_reduce_step_trivial_units():
    p = pres((3, unit()), (3, unit()), (3, unit()))
    q = alpha_reduce_step(p)
    assert q.lambdas == (3, 4)
    assert [u.order for u in q.units] == [2, 2]
    assert all(u.same_upto(unit(), 2) for u in q.units)
    assert Analysis(p).alpha() == 0


@pytest.mark.parametrize("order, known", [
    (20, [7, 6]), (9, [7, 6]), (8, [7, 6]), (7, [6, 5]), (3, [2, 1]),
])
def test_reduce_step_works_at_the_chain_order(order, known):
    # p(E) + k - 2 = 6 + 4 - 2 = 8: units known past it come back known
    # to 7, shorter ones to their order - 1, and the next step of the
    # tower, whose p(E) + k - 2 is 7, loses one order more
    p = parse_fresco("fresco: (4 | 1 + b) (5 | 1 - b) (6 | 1 + 2b) (7 | 1)",
                     order=order)
    for want in known:
        p = alpha_reduce_step(p)
        assert {u.order for u in p.units} == {want}


def test_reduce_step_needs_rank_three():
    with pytest.raises(WrongRank):
        alpha_reduce_step(pres((3, unit()), (4, unit())))


def test_reduce_step_zero_step():
    with pytest.raises(PValueZero):
        alpha_reduce_step(pres((3, unit()), (2, unit()), (3, unit())))


def test_reduce_step_on_order_zero_units_is_a_domain_error():
    # units known only to order 0 leave the adapted model no room
    p = from_json({"factors": [
        {"lambda": lam, "unit": {"coeffs": [1], "order": 0}}
        for lam in ("3", "4", "5")
    ]})
    with pytest.raises(EngineError):
        alpha_reduce_step(p)


def test_reduce_step_obstruction_in_middle_unit():
    # S_2 carries b^(p_2), which blocks the ODE for X
    p = pres((3, unit(0, 1)), (3, unit(1)), (3, unit()))
    with pytest.raises(NotInF0):
        alpha_reduce_step(p)


def test_reduce_step_tolerates_first_unit():
    # the reduction itself never looks at S_1 resonances...
    p = pres((3, unit(1)), (3, unit()), (3, unit()))
    q = alpha_reduce_step(p)
    assert q.lambdas == (3, 4)
    # ...but the invariant refuses, since the value would depend on tau
    with pytest.raises(NotInF0):
        Analysis(p).alpha()


def test_alpha_rank2_delegates():
    p = pres((3, unit(0, 0, 0, 9)), (6, unit()))
    assert Analysis(p).alpha() == 9


def test_alpha_wrong_rank():
    with pytest.raises(WrongRank):
        Analysis(pres((3, unit()))).alpha()


def test_alpha_specialized_middle_unit_trivial():
    # with S_2 = 1 nothing moves: alpha is the b^(p1+p2) slot of S_1
    p = pres((3, unit(0, 0, 5)), (3, unit()), (4, unit()))
    assert p.p_values() == (1, 2)
    assert Analysis(p).alpha() == 5
    assert rank3_alpha_formula(p) == 5


def test_alpha_specialized_first_unit_trivial():
    # with S_1 = 1 the value is -(p2/p1) s2_(p1+p2)
    p = pres((3, unit()), (4, unit(0, 0, 4)), (4, unit()))
    assert p.p_values() == (2, 1)
    assert Analysis(p).alpha() == -2
    assert rank3_alpha_formula(p) == -2


def test_rank3_formula_first_unit_obstruction():
    p = pres((3, unit(1)), (3, unit()), (3, unit()))
    with pytest.raises(ResonantObstruction):
        rank3_alpha_formula(p)


def test_rank3_formula_wrong_rank():
    with pytest.raises(WrongRank):
        rank3_alpha_formula(pres((3, unit(0, 1)), (4, unit())))


def rank3_f0(lam1, p1, p2, c1, c2, c3=()):
    """Rank-3 presentation passing both splitting conditions."""
    l1 = rat(lam1)
    s1 = [1] + [0] * (int(p1)) + list(c1)
    s2 = [1] + [0] * (int(p2)) + list(c2)
    return pres(
        (l1, SeriesB(s1, ORDER)),
        (l1 + p1 - 1, SeriesB(s2, ORDER)),
        (l1 + p1 + p2 - 2, unit(*c3)),
    )


def test_alpha_reduce_matches_formula_frozen():
    p = rank3_f0("7/2", 2, 2, (3, -1), (2, 5), (1, 1))
    assert Analysis(p).alpha() == rank3_alpha_formula(p)


@st.composite
def f0_rank3(draw):
    lam1 = draw(st.sampled_from(["5/2", 3, "7/2", 4]))
    p1 = draw(st.integers(1, 3))
    p2 = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    c1 = draw(st.lists(coeff, min_size=0, max_size=3))
    c2 = draw(st.lists(coeff, min_size=0, max_size=3))
    c3 = draw(st.lists(coeff, min_size=0, max_size=2))
    return rank3_f0(lam1, p1, p2, c1, c2, c3)


@settings(max_examples=30, deadline=None)
@given(f0_rank3())
def test_alpha_reduce_matches_formula(p):
    assert Analysis(p).alpha() == rank3_alpha_formula(p)


@settings(max_examples=20, deadline=None)
@given(f0_rank3(), st.fractions(min_value=-3, max_value=3, max_denominator=2))
def test_alpha_independent_of_tau(p, tau):
    # tau is the free constant of the reduction step's ODE: the step
    # takes the solution plus tau b^c, c the ODE's resonant index
    solve = alpha_module.solve_resonant_ode

    def with_tau(c, rhs):
        x = solve(c, rhs)
        return x + SeriesB.monomial(tau, int(c), x.order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alpha_module, "solve_resonant_ode", with_tau)
        reduced = alpha_reduce_step(p)
    assert classify_rank2(reduced).alpha == Analysis(p).alpha()


@settings(max_examples=20, deadline=None)
@given(f0_rank3(), st.integers(0, 3))
def test_alpha_twist_invariance(p, m):
    assert Analysis(twist(p, m)).alpha() == Analysis(p).alpha()


@st.composite
def rank2_with_generator(draw):
    lam1 = draw(st.sampled_from([2, "5/2", 3]))
    p1 = draw(st.integers(0, 3))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    s1 = unit(*draw(st.lists(coeff, min_size=0, max_size=4)))
    s2 = unit(*draw(st.lists(coeff, min_size=0, max_size=4)))
    u = [Fraction(1)] + draw(st.lists(coeff, min_size=0, max_size=3))
    v = draw(st.lists(coeff, min_size=0, max_size=3))
    p = pres((rat(lam1), s1), (rat(lam1) + p1 - 1, s2))
    return p, SeriesB(u, ORDER), SeriesB(v, ORDER)


@settings(max_examples=40, deadline=None)
@given(rank2_with_generator())
def test_rank2_class_is_generator_independent(arg):
    p, u, v = arg
    model = AdaptedModel(p, order=ORDER)
    q = regenerate_presentation(model, [v, u])
    a, b = classify_rank2(p), classify_rank2(q)
    assert (a.lam1, a.lam2, a.p) == (b.lam1, b.lam2, b.p)
    assert a.alpha == b.alpha
    assert a.theme == b.theme


def test_semisimple_rank_one():
    assert is_semisimple(pres((3, unit(2, 2))))


def test_semisimple_trivial_units():
    p = pres((4, unit()), (4, unit()), (5, unit()), (6, unit()))
    assert is_semisimple(p)


def test_semisimple_zero_step_fails():
    assert not is_semisimple(pres((3, unit(7)), (2, unit())))
    assert not is_semisimple(pres((3, unit()), (2, unit()), (3, unit())))


def test_semisimple_theme_fails():
    assert not is_semisimple(pres((3, unit(0, 2)), (4, unit())))


def test_semisimple_needs_principal():
    with pytest.raises(SemanticError):
        is_semisimple(pres(("9/2", unit()), ("5/2", unit())))


def test_semisimple_detects_inner_theme():
    # alpha of the whole may vanish while an edge sub-quotient is a theme
    p = pres((3, unit(0, 1)), (3, unit()), (3, unit()))
    assert Analysis(p).alpha() == 1
    assert not is_semisimple(p)
    q = pres((3, unit()), (3, unit()), (3, unit()))
    assert is_semisimple(q)


@settings(max_examples=25, deadline=None)
@given(f0_rank3())
def test_semisimple_iff_alpha_zero_on_split_class(p):
    a = Analysis(p).alpha()
    ss = is_semisimple(p)
    if ss:
        assert a == 0
    if a != 0:
        assert not ss


def test_subtheme_frozen():
    p = pres((3, unit(0, 1)), (3, unit()), (3, unit()))
    assert Analysis(p).subtheme() == ThemeClass(3, 4, 2, 1)


def test_subtheme_needs_nonzero_alpha():
    with pytest.raises(AlphaZero):
        Analysis(pres((3, unit()), (4, unit()))).subtheme()


def test_quotient_theme_frozen():
    p = pres((3, unit(0, 1)), (3, unit()), (3, unit()))
    assert Analysis(p).quotient_theme() == ThemeClass(2, 3, 2, -1)


def test_quotient_theme_rank2_is_alpha():
    p = pres((3, unit(0, 0, 5)), (5, unit()))
    assert Analysis(p).quotient_theme() == ThemeClass(3, 5, 3, 5)
    assert Analysis(p).subtheme() == ThemeClass(3, 5, 3, 5)


@pytest.mark.parametrize("text, steps", [
    # alpha = 1: the chain alone
    ("fresco: (4 | 1 + b^6) (5 | 1) (6 | 1) (7 | 1)", 2),
    # alpha = 0: semi-simplicity reads every interval, each off the
    # reduction tower of its right end: one step more for tower 3
    ("fresco: (4 | 1 + b^5) (5 | 1) (6 | 1) (7 | 1)", 3),
    # towers 5, 4 and 3: 3 + 2 + 1 steps, where one chain per interval
    # took 10
    ("fresco: (5 | 1) (6 | 1) (7 | 1) (8 | 1) (9 | 1)", 6),
    # towers 6 down to 3: 4 + 3 + 2 + 1 steps, where one chain per
    # interval took 20
    ("fresco: (6 | 1) (7 | 1) (8 | 1) (9 | 1) (10 | 1) (11 | 1)", 10),
    # NotInF0 after one step, reported for alpha and the theme classes
    ("fresco: (4 | 1) (5 | 1) (6 | 1 + b^4) (7 | 1)", 1),
])
def test_analyze_reduces_each_presentation_once(monkeypatch, text, steps):
    seen = []
    step = alpha_module.alpha_reduce_step

    def counted(p, *args, **kwargs):
        seen.append(p)
        return step(p, *args, **kwargs)

    monkeypatch.setattr(alpha_module, "alpha_reduce_step", counted)
    assert main(["analyze", "--seed", "1", text], stdout=io.StringIO()) == 0
    assert len(seen) == len(set(seen)) == steps


@st.composite
def principal_sparse(draw):
    """Principal rank 3-6 with positive steps and sparse units to b^9.

    A unit's b^p_j coefficient makes pair j fail NotInF0, so intervals
    whose tower carries a failing pair left of them turn up often.
    """
    k = draw(st.integers(3, 6))
    lam = k - 1 + draw(st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2)]))
    order = draw(st.sampled_from([ORDER, 40]))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    fs = []
    for j in range(k):
        if j:
            lam += draw(st.integers(1, 3)) - 1
        cs = draw(st.dictionaries(st.integers(1, 9), coeffs, max_size=2))
        fs.append((lam, SeriesB([1] + [cs.get(i, 0) for i in range(1, 10)],
                                order)))
    return Presentation(fs)


def _outcome(ask):
    try:
        return ask()
    except EngineError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(principal_sparse())
@example(parse_fresco("fresco: (5 | 1) (6 | 1) (7 | 1) (8 | 1) (9 | 1)"))
def test_each_interval_is_read_once_per_analysis(p):
    # alpha reads 1..k when the Analysis is built; semi-simplicity and
    # the theme classes take that value and read only the shorter ones
    seen = []
    read = Analysis._interval_alpha

    def counted(self, i, j):
        seen.append((i, j))
        return read(self, i, j)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Analysis, "_interval_alpha", counted)
        an = Analysis(p)
        for ask in (an.shown_alpha, an.alpha, an.semisimple, an.subtheme,
                    an.quotient_theme, an.semisimple):
            _outcome(ask)
    assert seen[0] == (1, p.rank)
    assert len(seen) == len(set(seen))


@settings(max_examples=60, deadline=None)
@given(principal_sparse())
def test_tower_reads_every_interval_as_its_own_chain(p):
    # step t of the chain of i..j is step t of tower j on factors >= i
    an = Analysis(p)
    for i in range(1, p.rank):
        for j in range(i + 1, p.rank + 1):
            assert _outcome(lambda: an._interval_alpha(i, j)) == \
                _outcome(lambda: Analysis(sub_quotient(p, i, j)).alpha())


def copy_reduce_step(p):
    """The reduction step on a copy of p whose last unit is 1, in the
    e-basis reference model: the reference for alpha_reduce_step's
    generator f_k = S_k^-1 e_k in p's own model.  The copy's model
    starts from e~ = e_k + X S_(k-1)^-1 e_(k-1).  It works at the step's
    own order, so it checks the walk, not the truncation.
    """
    k = p.rank
    if k < 3:
        raise WrongRank("reduction needs rank >= 3, got %d" % k)
    alpha_module._require_positive_steps(p)
    order = min(alpha_module._chain_order(p), min(u.order for u in p.units))
    fs = list(p.factors)
    fs[-1] = (fs[-1][0], SeriesB.one(order))
    model = EBasisModel(Presentation(fs), order=order)
    lam = p.lambdas
    s = model.sub[k - 2]
    try:
        x = solve_resonant_ode(p.p_values()[k - 2] - 1, SeriesB._lowest(
            [-x for x in s.nums[1:]], s.den, s.order - 1))
    except ResonantObstruction as exc:
        raise NotInF0(
            "unit S_%d obstructs the reduction: %s" % (k - 1, exc)
        ) from exc
    e_tilde = [SeriesB.zero(x.order)] * (k - 2) + [
        x * s.invert().truncate(x.order), SeriesB.one(x.order)]
    g = model.apply_a(model.apply_a(e_tilde, lam[k - 1]), lam[k - 2])
    for j in (k, k - 1):
        if g[j - 1].valuation() is not None:
            raise AssertionError(
                "coordinate %d should vanish after the reduction" % j
            )
    reduced = reference_regenerate(model, g[: k - 2])
    tail_order = min(u.order for u in reduced.units)
    return Presentation(
        list(reduced.factors) + [(lam[k - 1] + 1, SeriesB.one(tail_order))]
    )


@settings(max_examples=60, deadline=None)
@given(principal_sparse().filter(lambda p: any(p.units[-1].nums[1:])))
def test_reduce_step_in_its_own_model_matches_the_copy(p):
    # the generator f_k = S_k^-1 e_k inside p's model does what the copy
    # with S_k = 1 did, step by step along tower k
    for _ in range(p.rank - 2):
        want = _outcome(lambda: copy_reduce_step(p))
        got = _outcome(lambda: alpha_reduce_step(p))
        # == also compares every unit's known order
        assert got == want
        if not isinstance(got, Presentation):
            break
        p = got


def model_reduce_step(p):
    """The reduction step on p's adapted model, the reference for
    alpha_reduce_step: two apply_a passes take e~ = f_k + X f_(k-1) to
    (a - l_(k-1) b)(a - l_k b) e~ in F_(k-2), and regenerate_presentation
    reads the presentation of that submodule off it.  It works at the
    step's own order, so it checks the walk, not the truncation.
    """
    k = p.rank
    if k < 3:
        raise WrongRank("reduction needs rank >= 3, got %d" % k)
    alpha_module._require_positive_steps(p)
    order = min(alpha_module._chain_order(p), min(u.order for u in p.units))
    model = AdaptedModel(p, order=order)
    lam = p.lambdas
    pk1 = p.p_values()[k - 2]
    s = model.sub[k - 2]
    try:
        x = solve_resonant_ode(pk1 - 1, SeriesB._lowest(
            [-x for x in s.nums[1:]], s.den, s.order - 1))
    except ResonantObstruction as exc:
        raise NotInF0(
            "unit S_%d obstructs the reduction: %s" % (k - 1, exc)
        ) from exc
    e_tilde = [SeriesB.zero(x.order)] * (k - 2) + [x, SeriesB.one(x.order)]
    g = model.apply_a(model.apply_a(e_tilde, lam[k - 1]), lam[k - 2])
    for j in (k, k - 1):
        if g[j - 1].valuation() is not None:
            raise AssertionError(
                "coordinate %d should vanish after the reduction" % j
            )
    reduced = regenerate_presentation(model, g[: k - 2])
    tail_order = min(u.order for u in reduced.units)
    return Presentation(
        list(reduced.factors) + [(lam[k - 1] + 1, SeriesB.one(tail_order))]
    )


@st.composite
def principal_towers(draw):
    """Principal rank 3-6, mostly with positive steps, and units known
    to orders 0-40, below and above the chain's order p(E) + k - 2: each
    unit sparse (up to three terms) or dense (every known coefficient
    drawn).

    A nonzero b^(p_j) coefficient in S_j stops the tower with NotInF0,
    so it is often cleared to let the tower go on.
    """
    k = draw(st.integers(3, 6))
    steps = draw(st.lists(st.sampled_from([0] + [1, 2, 3] * 4),
                          min_size=k - 1, max_size=k - 1))
    lam = k - 1 + draw(st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2)]))
    base = draw(st.integers(0, 36))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    fs = []
    for j in range(k):
        order = base + draw(st.integers(0, 4))
        if order and draw(st.booleans()):
            cs = draw(st.lists(coeffs, min_size=order, max_size=order))
        else:
            terms = draw(st.dictionaries(st.integers(1, max(order, 1)),
                                         coeffs, max_size=3))
            cs = [terms.get(i, 0) for i in range(1, order + 1)]
        if j < k - 1 and 0 < steps[j] <= order and draw(st.booleans()):
            cs[steps[j] - 1] = 0
        fs.append((lam, SeriesB([1] + cs, order)))
        if j < k - 1:
            lam += steps[j] - 1
    return Presentation(fs)


def _step_outcome(step, p):
    try:
        return step(p)
    except EngineError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(principal_towers())
def test_reduce_step_matches_the_model_route_along_whole_towers(p):
    # step by step down tower k: the same Presentation, every unit's
    # known order included, or the same error and message
    while p.rank >= 3:
        got = _step_outcome(alpha_reduce_step, p)
        assert got == _step_outcome(model_reduce_step, p)
        if not isinstance(got, Presentation):
            break
        p = got


def test_reduce_step_checks_the_last_unit_it_trades(monkeypatch):
    # a wrong X leaves S_(k-1) + b^2 X' - (p_(k-1) - 1) b X apart from 1;
    # p(E) + k - 2 = 5 keeps the 2b^3 that a b^2 in X adds in view
    p = pres((3, unit()), (5, unit(0, 1)), (5, unit()))
    assert alpha_reduce_step(p).rank == 2
    solve = alpha_module.solve_resonant_ode
    monkeypatch.setattr(
        alpha_module, "solve_resonant_ode",
        lambda c, rhs: solve(c, rhs) + SeriesB.monomial(1, 2, rhs.order))
    with pytest.raises(AssertionError, match="should be 1"):
        alpha_reduce_step(p)


@pytest.mark.parametrize("text, divisions", [
    ("fresco: (3 | 1 + b) (4 | 1 - b + b^3) (5 | 1 + 2b)", 0),
    ("fresco: (5 | 1 + b) (6 | 1 - 2b^3) (7 | 1 + b^4) (8 | 1 - b + b^3) "
     "(9 | 1 + 2b)", 2),
])
def test_reduce_step_divides_by_sigma_between_stages(monkeypatch, text,
                                                     divisions):
    # X and Y = X S_(k-2) divide by nothing; the stage m = k-2..2 divides
    # the Y of the stage below by Sigma_m, and nothing is inverted
    p = parse_fresco(text, order=ORDER)
    inversions = count_inversions(monkeypatch)
    quotients = []
    real = SeriesB.__truediv__

    def divide(x, s):
        quotients.append(s)
        return real(x, s)

    monkeypatch.setattr(SeriesB, "__truediv__", divide)
    assert alpha_reduce_step(p).rank == p.rank - 1
    assert len(quotients) == divisions == p.rank - 3
    assert inversions == []


@pytest.mark.parametrize("text, steps, pair, factors", [
    ("fresco: (4 | 1 + b^2) (5 | 1) (6 | 1) (7 | 1)", 0, 1, "1..2"),
    ("fresco: (4 | 1) (5 | 1) (6 | 1 + b^4) (7 | 1)", 1, 2, "2..4"),
    ("fresco: (4 | 1 + b) (5 | 1 + 2b^3) (6 | 1 + b) (7 | 1)", 1, 2, "2..4"),
])
def test_not_in_f0_names_the_input_factors(text, steps, pair, factors):
    # after s steps the last reduced factor stands for input factors
    # k - s..k, every earlier one for the input factor of its index
    with pytest.raises(NotInF0) as err:
        Analysis(parse_fresco(text)).alpha()
    message = str(err.value)
    assert message.startswith("adjacent sub-quotient %d does not split "
                              "after %d reduction step(s)" % (pair, steps))
    assert message.endswith("the pair stands for input factors " + factors)


@st.composite
def principal_polynomial_units(draw):
    """(lambdas, unit coefficient lists, p(E) + k - 2) of a principal
    rank 2-5 presentation with steps 1-4, units sparse polynomials that
    reach past that order."""
    k = draw(st.integers(2, 5))
    steps = draw(st.lists(st.integers(1, 4), min_size=k - 1, max_size=k - 1))
    lam = k + draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1]))
    lambdas = [lam]
    for step in steps:
        lambdas.append(lambdas[-1] + step - 1)
    need = sum(steps) + k - 2
    coeffs = st.just(0) | st.just(0) | st.fractions(-3, 3, max_denominator=3)
    units = [draw(st.lists(coeffs, max_size=need + 6)) for _ in range(k)]
    return lambdas, units, need


def alpha_chain_answers(lambdas, units, order):
    """Every alpha-derived field with units known to order: a value or
    the error's class, with the message of a CoefficientBeyondOrder."""
    an = Analysis(Presentation([(l, SeriesB([1] + cs[:order], order))
                                for l, cs in zip(lambdas, units)]))
    answers = []
    for ask in (an.shown_alpha, an.alpha, an.semisimple, an.subtheme,
                an.quotient_theme):
        try:
            answers.append(ask())
        except CoefficientBeyondOrder as exc:
            answers.append(str(exc))
        except EngineError as exc:
            answers.append(type(exc))
    return answers


@settings(max_examples=80, deadline=None)
@given(principal_polynomial_units())
def test_alpha_chain_refusals_name_the_order_that_works(case):
    # with every unit known to p(E) + k - 2 no read of the chain runs
    # past a unit, and the answers are those of 5 orders more; one order
    # less, alpha raises that refusal unless a domain error comes first
    lambdas, units, need = case
    at_need = alpha_chain_answers(lambdas, units, need)
    assert not any(isinstance(a, str) for a in at_need)
    assert at_need == alpha_chain_answers(lambdas, units, need + 5)
    alpha = alpha_chain_answers(lambdas, units, need - 1)[1]
    assert alpha is NotInF0 or alpha.endswith(
        "every alpha read has room with units known to order %d "
        "(--order %d for a literal)" % (need, need))


def test_alpha_refusal_names_the_stage_and_the_order():
    text = "fresco: (3 | 1) (4 | 1) (5 | 1)"
    out = io.StringIO()
    assert main(["alpha", "--order", "4", text], stdout=out) == 2
    assert "message: alpha of factors 1..3 reads b^4 of S_1 after 1 " \
        "reduction step(s), known to order 3; every alpha read has room " \
        "with units known to order 5 (--order 5 for a literal)" \
        in out.getvalue()
    assert main(["alpha", "--order", "5", text], stdout=io.StringIO()) == 0


def test_analysis_keeps_the_rank2_asymmetry():
    # a report shows the p_1 = 0 class (alpha 1, a theme), while the
    # invariant itself and the theme classes refuse the zero step
    an = Analysis(pres((3, unit(1)), (2, unit())))
    assert an.shown_alpha() == (1, True)
    for ask in (an.alpha, an.subtheme, an.quotient_theme):
        with pytest.raises(PValueZero):
            ask()
    assert an.semisimple() is False


def test_analysis_views_agree():
    p = pres((3, unit(0, 1)), (3, unit()), (3, unit()))
    an = Analysis(p)
    assert an.shown_alpha() == (Analysis(p).alpha(), None) == (1, None)
    assert an.semisimple() is is_semisimple(p) is False
    assert an.subtheme() == Analysis(p).subtheme()
    assert an.quotient_theme() == Analysis(p).quotient_theme()


def test_dual_twist_frozen():
    t = ThemeClass("5/2", "7/2", 2, 3)
    assert dual_twist_rank2(t, 6) == ThemeClass("5/2", "7/2", 2, -3)


def test_dual_twist_involution():
    t = ThemeClass(3, 6, 4, "-7/3")
    assert dual_twist_rank2(dual_twist_rank2(t, 9), 9) == t


def test_theme_class_exponent_consistency():
    with pytest.raises(SemanticError):
        ThemeClass(3, 5, 2, 1)


# analyze says alpha 1 for this input, yet a generator of the same
# module gives another presentation with another alpha
ALPHA_WITNESS = ("fresco: (8 | 1 + 3/2b^4 + b^11) (9 | 1 - b^4) (11 | 1 + b) "
                 "(13 | 1) (15 | 1 - 1/2b)")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="alpha depends on the generator here: -241/2")
def test_alpha_does_not_depend_on_the_generator():
    p = parse_fresco(ALPHA_WITNESS, order=48)
    model = AdaptedModel(p, order=48)
    # g is drawn on e_1..e_k and handed over by its f-coordinates
    # S_j G_j, which the model and the oracle take
    g = _random_generator(model, random.Random(0))
    rep = truncate_rep(p, 48)
    codim = submodule_analysis(rep, [rep.embed(g)])["codim"]
    alpha = Analysis(p).alpha()
    if (codim, alpha) != (0, 1):
        pytest.fail("the witness moved: codimension %d, alpha %s"
                    % (codim, alpha))
    # g generates E, so its presentation is one of E's
    assert Analysis(regenerate_presentation(model, g)).alpha() == alpha


@pytest.mark.parametrize("literal", [
    "fresco: (3 | 1) (4 | 1)",                               # alpha 0
    "fresco: (3 | 1 + 2b^2) (4 | 1)",
    "fresco: (3 | 1 + 2b) (3 | 1)",                          # p_1 = 1
    "fresco: (3 | 1) (2 | 1)",                               # p_1 = 0
    "fresco: (5/2 | 1 + 3b^2) (7/2 | 1)",
    "fresco: (5/2 | 1) (7/2 | 1)",                           # alpha 0
    "fresco: (5 | 1) (6 | 1) (7 | 1)",                       # alpha 0
    "fresco: (7/2 | 1 - 3b^3) (9/2 | 1) (9/2 | 1)",
    "fresco: (10/3 | 1 + 3/2b^4) (10/3 | 1 + 3b^2) (16/3 | 1 - 1/2b^5)",
    "fresco: (9/2 | 1 + 4b^5) (9/2 | 1 - 2b^6) (9/2 | 1 + 3b^6) (13/2 | 1)",
])
def test_public_values_keep_their_types(literal):
    # the steps are ints inside a Presentation and the alpha chain tests
    # numerators, but what a caller reads is a Fraction, alpha 0 included
    p = parse_fresco(literal, 20)
    an = Analysis(p)
    values = [*p.p_values(), *p.bernstein_roots(), p.mu(), *p.lambdas,
              *an.shown_alpha()[:1]]
    if p.p_values()[0]:
        values.append(an.alpha())
    if p.rank == 2:
        c = classify_rank2(p)
        values += [c.lam1, c.lam2, c.p, c.alpha]
    if p.p_values()[0] and an.alpha():
        for t in (an.subtheme(), an.quotient_theme()):
            values += [t.low, t.high, t.p, t.parameter]
    assert all(type(v) is Fraction for v in values), values
    assert len(values) >= 3 * p.rank
