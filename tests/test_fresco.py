"""Presentations, Bernstein data, the adapted model, regeneration."""

from fractions import Fraction
from itertools import accumulate
from math import ceil, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from frescos.algebra import (
    _UNDERFLOW,
    AbElement,
    _D,
    _b2_log_derivative,
    _fit,
    monic_expansion,
)
from frescos.alpha import Analysis
from frescos.dsl import parse_fresco
from frescos.errors import (
    EngineError,
    IndexOutOfRange,
    MixedPrimitiveClasses,
    NonUnitSeries,
    NotAGenerator,
    NotGeometric,
    NotMonogenicAtTruncation,
    OrderUnderflow,
    SemanticError,
)
from frescos.fresco import (
    AdaptedModel,
    ModuleElement,
    Presentation,
    bernstein,
    fundamental_invariants,
    presentation_from_annihilator,
    regenerate_presentation,
    sub_quotient,
    trivial_units,
    twist,
)
from frescos.oracle import minimal_annihilator, truncate_rep
from frescos.series import SeriesB, _pairs, _terms, rat
import frescos.fresco as fresco_module
import frescos.series as series_module
from test_algebra import (
    expand_factor_form,
    left_divide,
    monicize,
    stored_or_error,
    unrelated,
)

ORDER = 20


def unit(*coeffs, order=ORDER):
    return SeriesB([1] + list(coeffs), order)


def pres(*pairs):
    return Presentation([(rat(l), u) for l, u in pairs])


def basis(model, j):
    """f_j of an adapted model as a module element."""
    n = model.order
    return ModuleElement([SeriesB.one(n) if i == j else SeriesB.zero(n)
                          for i in range(1, model.rank + 1)])


def e_vector(model, j):
    """e_j = S_j f_j of an adapted model as a module element."""
    return basis(model, j).scale(model.sub[j - 1])


def f_coords(model, g):
    """The f-coordinates S_j G_j of an element with e-coordinates G_j."""
    return ModuleElement([s * c for s, c in zip(model.sub, g.coords)])


class EBasisModel:
    """The adapted model on e_1..e_k, the reference of the f-basis one:

        a e_j = (l_j b + b^2 S_j'/S_j) e_j + S_j e_{j-1},

    with its diagonals d_j built once and apply_a fused as the engine
    had it.  Coordinates are series against e_1..e_k.
    """

    def __init__(self, presentation, order):
        self.presentation = presentation
        self.order = order
        self.diag = []
        self.sub = []
        for lam, unit in presentation.factors:
            # d_j = lambda_j b + b^2 S_j'/S_j
            self.diag.append(SeriesB.monomial(lam, 1, order)
                             + _b2_log_derivative(unit, order))
            self.sub.append(_fit(unit, order))

    @property
    def rank(self):
        return self.presentation.rank

    def apply_a(self, x, lam=0):
        """(a - lam b) x: coordinate j is (d_j - lam b) G_j + b^2 G_j'
        + S_{j+1} G_{j+1} over one denominator."""
        lam = rat(lam)
        n, q = min(self.order, x.order), lam.denominator
        # b^2 G' - lam b G has (i - lam) g_i at b^(i+1): weights over q
        drift = [i * q - lam.numerator for i in range(n)]
        out = []
        for j, (g, h) in enumerate(zip(x.coords, x.coords[1:] + (None,))):
            parts = []
            if any(g.nums):
                d = self.diag[j] * g
                parts += [(d.nums, d.den),
                          ([0, *map(mul, drift, g.nums)], g.den * q)]
            if h is not None and any(h.nums):
                s = self.sub[j + 1] * h
                parts.append((s.nums, s.den))
            den = lcm(*[d for _, d in parts])
            total = [0] * (n + 1)
            for nums, d in parts:
                f = den // d
                total = [t + f * y for t, y in zip(total, nums)]
            out.append(SeriesB._lowest(total, den, n))
        return ModuleElement(out)


def reference_regenerate(model, g):
    """regenerate_presentation on an EBasisModel, g against e_1..e_k:
    Sigma_m = S_m G_m / G_m(0) at each stage m = k..1."""
    coords = list(g.coords)
    k = len(coords)
    lambdas = model.presentation.lambdas[:k]
    new_units = [None] * k
    for m in range(k, 0, -1):
        gm = coords[m - 1]
        c0 = gm.constant()
        if c0 == 0:
            raise NotAGenerator("coordinate %d has no constant term" % m)
        sigma = model.sub[m - 1] * gm * (1 / c0)
        new_units[m - 1] = sigma
        if m == 1:
            break
        t = sigma.invert()
        y = model.apply_a(ModuleElement([t * c for c in coords]),
                          lambdas[m - 1])
        if y.coord(m).valuation() is not None:
            raise AssertionError("stage %d residue should vanish" % m)
        coords = list(y.coords[: m - 1])
    order = min(u.order for u in new_units)
    return Presentation(
        [(lam, u.truncate(order)) for lam, u in zip(lambdas, new_units)]
    )


def std():
    return pres(("5/2", unit(0, 3)), ("7/2", unit()))


def test_validate_flags():
    p = std()
    assert p.rank == 2
    assert p.p_values() == (Fraction(2),)
    assert p.mu() == 6
    assert p.is_primitive()
    assert p.is_principal()


def test_validate_geometric():
    with pytest.raises(NotGeometric):
        pres(("1/2", unit()), ("7/2", unit()))


def test_validate_unit_constant():
    bad = SeriesB([2, 1], ORDER)
    with pytest.raises(NonUnitSeries):
        pres(("5/2", unit()), ("7/2", bad))


def test_presentation_is_checked_when_built():
    with pytest.raises(SemanticError):
        Presentation([])
    with pytest.raises(NotGeometric):
        Presentation([(rat(0), unit())])
    with pytest.raises(NonUnitSeries):
        Presentation([(rat("5/2"), 1)])


def reference_presentation(factors):
    """Presentation.__init__ with the Fraction checks it had, lam + j <= k
    and unit.constant() != 1: the reference of its integer reads."""
    p = object.__new__(Presentation)
    p.factors = tuple((rat(l), u) for l, u in factors)
    k = len(p.factors)
    if k == 0:
        raise SemanticError("a presentation needs at least one factor")
    for j, (lam, unit) in enumerate(p.factors, start=1):
        if lam + j <= k:
            raise NotGeometric(
                "exponent %s at position %d violates lambda_j + j > %d"
                % (lam, j, k))
        if not isinstance(unit, SeriesB) or unit.constant() != 1:
            raise NonUnitSeries(
                "unit at position %d must have constant term 1" % j)
    ls = p.lambdas
    p._p_values = tuple(ls[j + 1] - ls[j] + 1 for j in range(k - 1))
    return p


def built_or_error(build, factors):
    """The presentation and its steps, or the error's type and message."""
    try:
        p = build(factors)
    except EngineError as exc:
        return type(exc), str(exc)
    return p, p.p_values()


@st.composite
def unit_candidates(draw):
    """Constant term 1 over various denominators (1 + 1/2b is stored as
    (2, 1)/2), constant terms 0, 2, 1/2 and -1, and no series at all."""
    kind = draw(st.sampled_from(["unit", "unit", "unit", "other", "foreign"]))
    if kind == "foreign":
        return draw(st.sampled_from([1, Fraction(1), "1", None,
                                     AbElement([SeriesB.one(4)])]))
    c0 = 1 if kind == "unit" else draw(
        st.sampled_from([0, 2, Fraction(1, 2), -1]))
    rest = draw(st.lists(unrelated, max_size=4))
    return SeriesB([c0, *rest], draw(st.integers(len(rest), len(rest) + 3)))


@st.composite
def factor_lists(draw):
    """Ranks 0-6, each exponent at the geometric bound k - j, one 1/q
    either side of it, or anywhere near it, as a Fraction, int or str."""
    k = draw(st.integers(0, 6))
    factors = []
    for j in range(1, k + 1):
        q = draw(st.sampled_from([1, 2, 3, 7, 60]))
        lam = k - j + draw(st.one_of(
            st.sampled_from([Fraction(0), Fraction(1, q), Fraction(-1, q)]),
            st.fractions(min_value=-2, max_value=6, max_denominator=q)))
        lam = draw(st.sampled_from([lam, str(lam)] + (
            [int(lam)] if lam.denominator == 1 else [])))
        factors.append((lam, draw(unit_candidates())))
    return factors


@settings(max_examples=400, deadline=None)
@given(factor_lists())
@example([(1, SeriesB([1, Fraction(1, 2)], 3)), ("3/2", unit())])
@example([(Fraction(1, 2), unit()), (1, SeriesB([Fraction(1, 2)], 0))])
def test_constructor_checks_as_the_fraction_reference(factors):
    # equal presentations with equal steps, or the same refusal: the
    # first failing check, in factor order, geometric before unit
    assert built_or_error(Presentation, factors) == \
        built_or_error(reference_presentation, factors)


def test_nonprimitive_is_flagged_not_fatal():
    p = pres(("5/2", unit()), ("3", unit()))
    assert not p.is_primitive()


@st.composite
def exponent_lists(draw):
    """Geometric exponents of rank 1-5, in one class mod 1 or in
    several: a class draw per exponent, from one or from three."""
    k = draw(st.integers(1, 5))
    classes = draw(st.sampled_from([[Fraction(0)], [Fraction(1, 2)],
                                    [Fraction(0), Fraction(1, 3),
                                     Fraction(1, 2)]]))
    return [k - j + draw(st.integers(1, 6)) + draw(st.sampled_from(classes))
            for j in range(1, k + 1)]


@settings(max_examples=200, deadline=None)
@given(exponent_lists())
def test_is_primitive_reads_the_steps(lams):
    # one class mod 1 is every exponent difference integral
    p = Presentation([(l, unit()) for l in lams])
    assert p.is_primitive() == all((l - lams[0]).denominator == 1
                                   for l in lams)


def test_bernstein_frozen():
    data = bernstein(std())
    assert data.mu == 6
    assert data.roots == (rat("-7/2"), rat("-3/2"))
    assert data.element.lambdas == (rat("5/2"), rat("7/2"))
    assert all(u.constant() == 1 and u.valuation() == 0 for u in data.element.units)


def test_bernstein_check_is_live(monkeypatch):
    # an expansion of the wrong presentation must trip the initial-form
    # check, else it checks nothing
    p = pres(("3", unit(1)), ("3", unit(0, -2)), ("4", unit(2, 1)))
    wrong = twist(p, 1).factors
    real = fresco_module.monic_expansion
    monkeypatch.setattr(
        fresco_module, "monic_expansion",
        lambda fs, n: real(wrong if tuple(fs) == p.factors else fs, n))
    with pytest.raises(AssertionError, match="initial form disagrees"):
        bernstein(p)


def test_bernstein_multiplicative_over_a_split():
    p = pres(("3", unit(1)), ("3", unit(0, -2)), ("4", unit(2, 1)))
    k = p.rank
    whole = expand_factor_form(trivial_units(p.lambdas, 8).factors, 8)
    left = expand_factor_form(trivial_units(p.lambdas[:1], 8).factors, 8)
    right = expand_factor_form(trivial_units(p.lambdas[1:], 8).factors, 8)
    assert (left * right).same_upto(whole, k)


def test_fundamental_invariants_example():
    assert fundamental_invariants([rat("7/2"), rat("3/2")]) == \
        (rat("5/2"), rat("5/2"))


def test_fundamental_invariants_mixed():
    with pytest.raises(MixedPrimitiveClasses):
        fundamental_invariants([rat("3/2"), rat("2")])


def test_model_chain_relations():
    # (a - l_j b) f_j = S_(j-1) f_(j-1), and (a - l_1 b) f_1 = 0
    p = pres(("3", unit(1, -1)), ("3", unit(0, 2)), ("4", unit(5)))
    m = AdaptedModel(p, order=16)
    for j in range(p.rank, 0, -1):
        x = basis(m, j)
        y = m.apply_a(x) - m.apply_b(x).scale(SeriesB([p.lambdas[j - 1]], 16))
        expect = (e_vector(m, j - 1) if j > 1
                  else ModuleElement([SeriesB.zero(16)] * p.rank))
        for i in range(1, p.rank + 1):
            assert y.coord(i).same_upto(expect.coord(i), 12)


def test_presentation_annihilates_generator():
    # the monic expansion kills the generator e_k = S_k f_k
    p = pres(("3", unit(1, -1, 2)), ("7/2", unit(0, 2)), ("4", unit(5)))
    n = 14
    m = AdaptedModel(p, order=n)
    y = m.apply_op(monic_expansion(p.factors, n), e_vector(m, p.rank))
    assert y.is_zero()


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=0, max_size=4))
@settings(max_examples=40)
def test_model_commutation(cs):
    p = std()
    m = AdaptedModel(p, order=12)
    x = m.element([SeriesB([1] + cs, 12), SeriesB(cs, 12)])
    lhs = m.apply_a(m.apply_b(x)) - m.apply_b(m.apply_a(x))
    rhs = m.apply_b(m.apply_b(x))
    for j in (1, 2):
        assert lhs.coord(j).same_upto(rhs.coord(j), 11)


def _minus_lam_b(m, x, lam):
    """(a - lam b) x the unfused way: a x, then b x scaled, subtracted.

    a x has coordinate b^2 H_j' + l_j b H_j + S_j H_(j+1), known to the
    lesser of the model's and x's orders."""
    n = min(m.order, x.order)
    out = []
    for j in range(1, x.rank + 1):
        h = x.coord(j)
        acc = h.derive().shift(2) + (h * m.presentation.lambdas[j - 1]).shift(1)
        if j < x.rank:
            acc = acc + m.sub[j - 1] * x.coord(j + 1)
        out.append(acc.truncate(n))
    ax = ModuleElement(out)
    return ax - m.apply_b(x).scale(SeriesB.monomial(lam, 0, x.order))


@st.composite
def model_and_element(draw):
    """A model of rank 1-4 and an element of some F_m: coordinates zero,
    of positive valuation or units, known below or above the model."""
    k = draw(st.integers(1, 4))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    p = Presentation([
        (k + draw(st.fractions(min_value=0, max_value=3, max_denominator=2)),
         SeriesB([1] + draw(st.lists(coeff, max_size=4)), ORDER))
        for _ in range(k)])
    m = AdaptedModel(p, order=draw(st.integers(1, 16)))
    n = draw(st.integers(1, 18))
    coords = []
    for _ in range(draw(st.integers(1, k))):
        v = draw(st.integers(0, n + 1))
        cs = draw(st.lists(coeff, max_size=n + 1 - v)) if v <= n else []
        coords.append(SeriesB([0] * v + cs, n))
    lam = draw(st.fractions(min_value=-5, max_value=5, max_denominator=3))
    return m, ModuleElement(coords), lam


@settings(max_examples=150, deadline=None)
@given(model_and_element())
def test_fused_apply_a_matches_a_minus_lam_b(arg):
    m, x, lam = arg
    assert m.apply_a(x, lam).coords == _minus_lam_b(m, x, lam).coords
    assert m.apply_a(x).coords == _minus_lam_b(m, x, 0).coords


@st.composite
def model_and_e_coords(draw):
    """A presentation of rank 1-5, a model order 1-40, the e-coordinates
    G of an element of some F_m, known below or above the model, and an
    integer or non-integer lam."""
    k = draw(st.integers(1, 5))
    order = draw(st.integers(1, 40))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    p = Presentation([
        (k + draw(st.fractions(min_value=0, max_value=3, max_denominator=2)),
         SeriesB([1] + draw(st.lists(coeff, max_size=order)), 40))
        for _ in range(k)])
    n = draw(st.integers(0, 42))
    coords = []
    for _ in range(k - draw(st.integers(0, k - 1))):
        v = draw(st.integers(0, min(2, n + 1)))
        cs = draw(st.lists(coeff, max_size=n + 1 - v))
        coords.append(SeriesB([0] * v + cs, n))
    # g generates exactly when its top constant is nonzero
    top = coords[-1].coeffs
    lead = draw(st.sampled_from([1, -2, Fraction(3, 4), 0]))
    coords[-1] = SeriesB([lead, *top[1:]], n)
    lam = draw(st.one_of(
        st.integers(-5, 5),
        st.fractions(min_value=-5, max_value=5, max_denominator=3)))
    return p, order, ModuleElement(coords), lam


def _outcome(f, *args):
    try:
        return f(*args)
    except EngineError as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(model_and_e_coords())
def test_f_basis_model_matches_the_e_basis_reference(arg):
    # f_j = S_j^-1 e_j: the element with e-coordinates G has
    # f-coordinates S G, and so has every image of it
    p, order, g, lam = arg
    m, ref = AdaptedModel(p, order), EBasisModel(p, order)
    h = f_coords(m, g)
    assert m.apply_a(h, lam).coords == f_coords(m, ref.apply_a(g, lam)).coords
    # == also compares every unit's known order
    assert _outcome(regenerate_presentation, m, h) == \
        _outcome(reference_regenerate, ref, g)


def count_inversions(monkeypatch):
    """Record every SeriesB.invert call from here on."""
    calls = []
    real = SeriesB.invert

    def invert(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(SeriesB, "invert", invert)
    return calls


def test_model_inverts_nothing(monkeypatch):
    p = pres(("3", unit(1, -1)), ("3", unit(0, 2)), ("4", unit(5)))
    calls = count_inversions(monkeypatch)
    m = AdaptedModel(p, order=16)
    m.apply_a(m.element([unit(2), unit(0, 1), unit(-1)]), "1/2")
    assert calls == []


def test_regenerate_cuts_g_to_the_model_order():
    # the unit is read off g only as far as the model knows S
    m = AdaptedModel(pres(("3", unit(1, -1))), order=8)
    q = regenerate_presentation(m, m.element([SeriesB([2, 1, 0, 3], 16)]))
    assert q.units[0].order == 8
    assert q.units[0] == SeriesB([1, Fraction(1, 2), 0, Fraction(3, 2)], 8)


def test_apply_a_at_order_0_reads_the_next_constant():
    # b has no constant term, so (a - lam b) x at b^0 is
    # S_j(0) H_{j+1}(0) = H_{j+1}(0)
    m = AdaptedModel(std(), order=12)
    x = ModuleElement([SeriesB([2], 0), SeriesB([3], 0)])
    assert m.apply_a(x, 5).coords == (SeriesB([3], 0), SeriesB([0], 0))


def test_regenerate_identity_on_ek():
    p = pres(("3", unit(1, -1)), ("3", unit(0, 2)), ("4", unit(5)))
    m = AdaptedModel(p, order=18)
    q = regenerate_presentation(m, e_vector(m, 3))
    assert q.lambdas == p.lambdas
    for old, new in zip(p.units, q.units):
        assert old.same_upto(new, new.order)


def test_regenerate_frozen_example():
    lam1, lam2 = rat("3"), rat("4")
    p = pres((lam1, unit()), (lam2, unit()))
    m = AdaptedModel(p, order=16)
    g = m.element([SeriesB.zero(16), SeriesB([1, 1], 16)])
    q = regenerate_presentation(m, g)
    assert q.lambdas == (lam1, lam2)
    assert q.units[0].same_upto(SeriesB.one(16), q.units[0].order)
    assert q.units[1].same_upto(SeriesB([1, 1], 16), q.units[1].order)


def test_model_needs_positive_order():
    with pytest.raises(OrderUnderflow):
        AdaptedModel(std(), order=0)


def test_apply_a_acts_on_a_prefix_span():
    p = pres(("3", unit(1, -1)), ("3", unit(0, 2)), ("4", unit(5)))
    m = AdaptedModel(p, order=16)
    x = m.element([SeriesB([1, 2], 16), SeriesB([3, 0, 1], 16), SeriesB.zero(16)])
    whole = m.apply_a(x)
    prefix = m.apply_a(ModuleElement(x.coords[:2]))
    assert prefix.rank == 2
    assert whole.coord(3).valuation() is None
    for j in (1, 2):
        assert prefix.coord(j).same_upto(whole.coord(j), 16)


def test_regenerate_reads_a_prefix_span():
    p = pres(("3", unit(1, -1)), ("3", unit(0, 2)), ("4", unit(5)))
    m = AdaptedModel(p, order=18)
    q = regenerate_presentation(m, ModuleElement(e_vector(m, 2).coords[:2]))
    assert q.lambdas == p.lambdas[:2]
    for old, new in zip(p.units, q.units):
        assert old.same_upto(new, new.order)


def test_regenerate_rejects_nongenerator():
    p = pres(("3", unit()), ("4", unit()))
    m = AdaptedModel(p, order=16)
    g = m.element([SeriesB.zero(16), SeriesB.monomial(1, 1, 16)])
    with pytest.raises(NotAGenerator):
        regenerate_presentation(m, g)


def test_regeneration_divides_only_what_the_next_stage_reads(monkeypatch):
    # stage m divides its m - 1 lower coordinates by Sigma_m: the top
    # quotient is the constant H_m(0), so rank 3 makes 2 + 1 divisions
    p = pres(("3", unit(1, -1)), ("3", unit(0, 2)), ("4", unit(5)))
    m = AdaptedModel(p, order=18)
    g = ModuleElement([unit(2, order=18), unit(0, 1, order=18),
                       SeriesB([3, 1, 0, 2], 18)])
    want = reference_regenerate(EBasisModel(p, 18), g)
    calls = []
    real = SeriesB.__truediv__

    def truediv(x, s):
        calls.append(s)
        return real(x, s)

    monkeypatch.setattr(SeriesB, "__truediv__", truediv)
    assert regenerate_presentation(m, f_coords(m, g)) == want
    assert len(calls) == 3


def test_mu_additive_over_splits():
    p = pres(("4", unit(2)), ("4", unit()), ("5", unit(0, 1)), ("6", unit()))
    for i in range(1, p.rank):
        f = sub_quotient(p, 1, i)
        g = sub_quotient(p, i + 1, p.rank)
        assert f.mu() + g.mu() == p.mu()


def test_sub_quotient_bounds():
    p = std()
    with pytest.raises(IndexOutOfRange):
        sub_quotient(p, 0, 1)
    with pytest.raises(IndexOutOfRange):
        sub_quotient(p, 2, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
       st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
def test_every_tower_base_is_the_checked_cut(lam, steps, data):
    # tower j of an Analysis starts from F_j = sub_quotient(p, 1, j),
    # built by Presentation.__init__; with trivial units alpha and every
    # nested alpha vanish, so semi-simplicity grows every tower
    k = len(steps) + 1
    lambdas = list(accumulate([k - 1 + lam] + [n - 1 for n in steps]))
    trivial = data.draw(st.booleans())
    units = [unit() if trivial else
             unit(*data.draw(st.lists(st.integers(-2, 2), max_size=3)))
             for _ in lambdas]
    built = []
    real = Presentation.__init__

    def init(self, factors):
        real(self, factors)
        built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Presentation, "__init__", init)
        p = Presentation(list(zip(lambdas, units)))
        a = Analysis(p)
        a.semisimple()
    bases = {j: tower for (j, t), tower in a._steps.items() if t == 0}
    if trivial:
        assert set(bases) == set(range(2, k + 1))
    for j, tower in bases.items():
        assert tower == sub_quotient(p, 1, j)
        assert tower.p_values() == p.p_values()[:j - 1]
        assert any(tower is b for b in built)


def test_sub_quotient_requires_principal():
    p = pres(("9/2", unit()), ("5/2", unit()))
    assert not p.is_principal()
    with pytest.raises(SemanticError):
        sub_quotient(p, 1, 1)


def test_twist():
    p = std()
    q = twist(p, 2)
    assert q.lambdas == (rat("9/2"), rat("11/2"))
    with pytest.raises(NotGeometric):
        twist(p, rat("-3"))


# --- from an annihilator back to the principal presentation ---

WITNESS_DEPTH = 28


@pytest.mark.parametrize("literal", [
    "fresco: (3/2 | 1 + b)",
    "fresco: (1 | 1 - 2b^3)",
    "fresco: (7/3 | 1)",
    "fresco: (7/3 | 1 + b^5) (7/3 | 1 - 1/3b^4 + b^6)",
    "fresco: (4/3 | 1 - 3/2b - 1/3b^5 - 2/3b^6) (4/3 | 1)",
    "fresco: (2 | 1) (4 | 1)",
    "fresco: (3 | 1 - b^3 + 4b^4) (5 | 1 - 2b)",
    "fresco: (9/2 | 1 + 4b^6) (9/2 | 1 + 1/2b^6) (11/2 | 1 - 4/3b^4 - 2b^6)",
    "fresco: (10/3 | 1 + 3/2b^4) (10/3 | 1 + 3b^2) (16/3 | 1 - 1/2b^5)",
    "fresco: (3 | 1 + b^5) (5 | 1) (6 | 1)",
    "fresco: (8/3 | 1 + 4/3b^2 - 4b^3) (14/3 | 1 + b^6) (14/3 | 1)",
    "fresco: (5 | 1 - b^5 + 3b^6) (6 | 1) (6 | 1) (7 | 1)",
    "fresco: (14/3 | 1 - 3/2b^8) (17/3 | 1 - b - 4b^4) (23/3 | 1 + 4/3b) "
    "(29/3 | 1 - 2/3b^4)",
    "fresco: (7 | 1) (9 | 1) (9 | 1) (9 | 1 + 2b^6)",
    "fresco: (6 | 1 + 1/2b^5) (8 | 1 + b - 4/3b^2 - 1/2b^4) (10 | 1 + 1/2b^3) "
    "(12 | 1 - b - 2b^4)",
    "fresco: (6 | 1 - 3b^10) (8 | 1) (10 | 1 + 3/2b^2) (12 | 1) "
    "(12 | 1 + 1/3b^2 - 2/3b^5)",
    "fresco: (9 | 1 + 4b^9) (9 | 1) (10 | 1) (12 | 1 - 2b^4) (14 | 1)",
    "fresco: (5 | 1) (7 | 1 + b) (9 | 1 - b) (11 | 1 - 2/3b) (12 | 1)",
    "fresco: (14/3 | 1) (17/3 | 1) (23/3 | 1 + 4/3b^3) (29/3 | 1) (35/3 | 1)",
    "fresco: (8 | 1 + 1/2b^9) (9 | 1) (11 | 1) (13 | 1) (13 | 1)",
    # alpha depends on the generator here (test_alpha's strict xfail);
    # the exponents and the annihilator do not
    "fresco: (8 | 1 + 3/2b^4 + b^11) (9 | 1 - b^4) (11 | 1 + b) (13 | 1) "
    "(15 | 1 - 1/2b)",
])
def test_oracle_annihilator_gives_back_the_presentation(literal):
    # a third witness: the oracle's annihilator of e_k, solved on the
    # truncated matrices, goes through the engine's peel and must give
    # back p's exponents and an annihilator that agrees with the oracle's
    p = parse_fresco(literal, order=WITNESS_DEPTH)
    assert p.is_primitive() and p.is_principal()
    k = p.rank
    rep = truncate_rep(p, WITNESS_DEPTH)
    model = AdaptedModel(p, order=WITNESS_DEPTH)
    ann = minimal_annihilator(rep, rep.embed(e_vector(model, k)))
    lam = p.lambdas[0] + 1 - ceil(p.lambdas[0])
    q = presentation_from_annihilator(ann, lam)
    assert q.lambdas == p.lambdas
    order = min(u.order for u in q.units)
    got = monicize(expand_factor_form(q.factors, order))
    assert got.same_upto(ann, min(order, WITNESS_DEPTH - k) - 1)


def test_peel_refuses_an_annihilator_known_to_too_few_orders():
    # the peel of a degree-3 factor needs its annihilator to order 3;
    # presentation_from_annihilator guards it, the peel names it itself
    p = pres(("5/2", unit(1)), ("7/2", unit(0, 2)), ("9/2", unit()))
    short = monic_expansion(p.factors, 2)
    with pytest.raises(NotMonogenicAtTruncation,
                       match=r"known to order 2; the unit peel at exponent "
                             r"9/2 needs 3$"):
        fresco_module._peel_unit(short, p.lambdas[-1], 3)


# --- the two-pass peel as it was built: the remainders solve for T, and
# the products c_m T are formed again for the division ---


def reference_remainders(ann, mu, k, tmax):
    """(rho, L): rho(i, n) is L times the b^(k+n) coefficient of the
    remainder rho_i = ann.(b^i e) of ann b^i by (a - mu b).

    As a^m b^s e = (mu+s)...(mu+s+m-1) b^(s+m) e when a e = mu b e, that
    is sum_m W[N][m] c_(m,N-m-i) for N = k+n, with W[N][m] =
    (mu+N-m)...(mu+N-1) free of i: one table serves every remainder.
    With mu = p/q and c_m = nums/d_m, L = lcm_m(d_m q^m) clears it.
    """
    p, q, cs = mu.numerator, mu.denominator, [c.nums for c in ann.coeffs]
    dens = [c.den * q ** m for m, c in enumerate(ann.coeffs)]
    L = lcm(*dens)
    W = [[w * (L // d) for w, d in zip(
        accumulate(range(1, len(cs)), lambda w, m: w * (p + (N - m) * q),
                   initial=1), dens)]
         for N in range(k, k + tmax + 1)]

    def rho(i, n):
        top = k + n - i
        return sum(w * c[top - m] for m, (w, c) in enumerate(zip(W[n], cs))
                   if m <= top and c[top - m])
    return rho, L


def reference_unit(ann, mu, k):
    """T of ann T = Q (a - mu b): t_n = -sum_(i<n) t_i rho(i, n) /
    rho(n, n) on integers, the resonant t_n pinned to 0."""
    tmax = min(c.order for c in ann.coeffs) - k
    if tmax < 0:
        raise NotMonogenicAtTruncation(
            "the annihilator is known to order %d; the unit peel at "
            "exponent %s needs %d" % (tmax + k, mu, k))
    rho, _ = reference_remainders(ann, mu, k, tmax)
    if rho(0, 0):
        raise NotMonogenicAtTruncation(
            "%s is not a right root of the annihilator" % mu)
    nums, den = [1], 1
    for n in range(1, tmax + 1):
        acc = sum(x * rho(i, n) for i, x in enumerate(nums) if x)
        dn = rho(n, n)
        if acc and not dn:
            raise NotMonogenicAtTruncation(
                "unit peel at exponent %s is obstructed in slot %d" % (mu, n))
        t = Fraction(-acc, dn or 1)
        nums = [x * t.denominator for x in nums] + [t.numerator]
        den *= t.denominator
    return SeriesB._make(tuple(nums), den, tmax)


def two_pass_peel_unit(ann, mu, k):
    """reference_unit, then s_m = c_m T formed again on _pairs over
    dc den and divided synthetically on integers: the quotient slot
    q_(deg-1-j) over dc den q^j, Q_(j+1),t = q^(j+1) S_t +
    (p + (t - 1) q) Q_j,(t-1) for mu = p/q."""
    unit = reference_unit(ann, mu, k)
    tmax = unit.order
    if not tmax and ann.degree:
        raise OrderUnderflow(_UNDERFLOW)
    n = tmax + 1
    dc = lcm(*[c.den for c in ann.coeffs])
    p, q = mu.numerator, mu.denominator
    ts = _terms(unit, n)
    s = []
    for c in ann.coeffs:
        xs, ys = ts, _terms(c, n, dc // c.den)
        if len(xs) > len(ys):
            xs, ys = ys, xs
        s.append(_pairs(xs, ys, [0] * n))
    quot = [s.pop()]
    qj = q
    while s:
        sm, prev = s.pop(), quot[-1]
        quot.append([sm[0] * qj] + [
            sm[t] * qj + (p + (t - 1) * q) * prev[t - 1] for t in range(1, n)])
        qj *= q
    if any(quot.pop()):
        raise AssertionError("peel remainder should vanish")
    den_j = dc * unit.den
    slots = []
    for x in quot:
        slots.append(SeriesB._lowest(x, den_j, tmax))
        den_j *= q
    return unit, AbElement(slots[::-1])


def reference_peel_unit(ann, mu, k):
    """reference_unit with its synthetic division on series: q_(deg-1) =
    c_deg T, q_(m-1) = c_m T + b^2 q_m' + mu b q_m."""
    unit = reference_unit(ann, mu, k)
    q = [ann.coeffs[-1] * unit]
    for c in reversed(ann.coeffs[:-1]):
        q.append(c * unit + _D(q[-1]) + (q[-1] * mu).shift(1))
    if q.pop():
        raise AssertionError("peel remainder should vanish")
    return unit, AbElement(q[::-1])


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
    rho, scale = reference_remainders(u, mu, k, ACTION_ORDER - k)
    assert type(scale) is int and scale > 0
    for n in range(ACTION_ORDER - k + 1):
        assert type(rho(i, n)) is int
        assert rho(i, n) == scale * r.coeff_series(0).coeff(k + n)


def test_peel_remainders_need_no_series(monkeypatch):
    ann = monicize(expand_factor_form(
        [(Fraction(7, 2), SeriesB([1, 2, -1], 10)),
         (Fraction(3, 2), SeriesB.one(10))], 10))
    values = {}

    def forbidden(*args, **kwargs):
        raise AssertionError("the weight table built a series")

    for name in ("shift", "__add__", "__init__"):
        monkeypatch.setattr(SeriesB, name, forbidden)
    rho, scale = reference_remainders(ann, Fraction(5, 2), 2, 8)
    for i in range(4):
        for n in range(9):
            values[i, n] = rho(i, n)
    monkeypatch.undo()
    # ann b^i is divided by a - 5/2 b: rho(i, n) is scale times its
    # remainder's b^(2+n) coefficient, up to the order ann is known to
    for i in range(4):
        shifted = AbElement([c.shift(i) for c in ann.coeffs])
        _, r = left_divide(shifted, AbElement.linear(Fraction(5, 2), 12))
        rem = r.coeff_series(0)
        assert [values[i, n] for n in range(9)] == \
            [scale * rem.coeff(2 + n) for n in range(9)]


def peel_case(lambdas, units, bump=None, off=0, k=None):
    """The annihilator of the factors, maybe with x added at b^i of slot
    m for bump = (m, i, x), and the exponent and rank to peel at."""
    order = min(u.order for u in units)
    ann = monic_expansion(list(zip(lambdas, units)), order)
    if bump is not None:
        m, i, x = bump
        coeffs = list(ann.coeffs)
        coeffs[m] = coeffs[m] + SeriesB.monomial(x, i, order)
        ann = AbElement(coeffs)
    return ann, lambdas[-1] + off, len(lambdas) if k is None else k


@st.composite
def peel_cases(draw, max_rank=4, tmaxes=None):
    """Rank 1..max_rank with exponents off the integers, units sparse or
    dense over unrelated denominators, at times one coefficient moved or
    mu off the root, peeled at a rank k in 1..r: so the peel also
    obstructs, underflows or keeps a remainder.  The units are known to
    order 1-14, or to k + tmax for tmax drawn from tmaxes."""
    r = draw(st.integers(1, max_rank))
    lam = draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3),
                                Fraction(2, 5), Fraction(3, 7), Fraction(1))))
    lambdas = [lam + r - j + draw(st.integers(0, 3)) for j in range(1, r + 1)]
    k = draw(st.integers(1, r))
    order = draw(st.integers(1, 14)) if tmaxes is None else k + draw(tmaxes)
    units = [SeriesB([1] + draw(st.lists(st.just(0) | unrelated,
                                         min_size=order, max_size=order)),
                     order) for _ in range(r)]
    bump = draw(st.none() | st.tuples(st.integers(0, r), st.integers(0, order),
                                      unrelated))
    return peel_case(lambdas, units, bump, draw(st.sampled_from((0, 0, 1, -1))),
                     k)


@settings(max_examples=150, deadline=None)
@example(peel_case([Fraction(4, 3)], [SeriesB([1, 1, -1], 2)], (0, 0, 1)))
@example(peel_case([Fraction(1, 3)], [SeriesB([1, 1], 1)]))
@example(peel_case([Fraction(4, 3)] * 2, [SeriesB([1, -1, 1], 2),
                                          SeriesB([1, 0, 1], 2)],
                   (1, 2, -1), k=1))
@given(peel_cases())
def test_peel_unit_is_the_reference(case):
    # equal stored forms, or the same error: an obstruction, a unit
    # known to order 0 with a remainder of degree >= 1, a remainder
    # that does not vanish
    assert stored_or_error(fresco_module._peel_unit, *case) == \
        stored_or_error(reference_peel_unit, *case)


@settings(max_examples=120, deadline=None)
@example(peel_case([Fraction(4, 3)], [SeriesB([1, 1, -1], 2)], (0, 0, 1)))
@example(peel_case([Fraction(1, 2)] * 2, [SeriesB([1, 1], 1)] * 2, k=2))
@given(peel_cases(5, st.integers(0, 25)))
def test_one_pass_peel_is_the_two_pass_peel(case):
    # degree 1-5 and tmax 0-25: equal stored forms and slot orders, or
    # the same error class and message
    assert stored_or_error(fresco_module._peel_unit, *case) == \
        stored_or_error(two_pass_peel_unit, *case)


def test_the_peel_forms_each_product_once(monkeypatch):
    # the products c_m T that solve for T are the slots the quotient
    # divides: no product on _pairs and no series product after T is known
    calls, pairs = [], series_module._pairs

    def counted(xs, ys, out):
        calls.append(len(out))
        return pairs(xs, ys, out)

    def forbidden(*args, **kwargs):
        raise AssertionError("the peel formed a series product")

    monkeypatch.setattr(fresco_module, "_pairs", counted, raising=False)
    monkeypatch.setattr(series_module, "_pairs", counted)
    monkeypatch.setattr(SeriesB, "__mul__", forbidden)
    p = pres(("7/2", unit(2, 0, -1)), ("9/2", unit(1, 3)), ("9/2", unit()))
    ann = monic_expansion(p.factors, 12)
    got, _ = fresco_module._peel_unit(ann, p.lambdas[-1], 3)
    assert calls == []
    monkeypatch.undo()
    assert got == reference_unit(ann, p.lambdas[-1], 3)


def test_presentation_from_annihilator_refuses_what_it_cannot_peel():
    p = pres(("7/2", unit(2)), ("9/2", unit()))
    ann = monicize(expand_factor_form(p.factors, 12))
    assert presentation_from_annihilator(ann, rat("1/2")).lambdas == \
        p.lambdas
    # two peels need order 1 + 2 + 1 = 4
    short = monicize(expand_factor_form(p.factors, 3))
    with pytest.raises(NotMonogenicAtTruncation, match="need 4"):
        presentation_from_annihilator(short, rat("1/2"))
    with pytest.raises(SemanticError, match="monic"):
        presentation_from_annihilator(ann * SeriesB([2], 12), rat("1/2"))
    with pytest.raises(SemanticError, match="monic"):
        presentation_from_annihilator(monicize(ann.from_series(unit())),
                                      rat("1/2"))


def reference_bernstein_invariants(ann, lam):
    """_bernstein_invariants as it was: P and its Horner values on
    Fractions, each root divided out by x - mu."""
    r = ann.degree
    poly = [Fraction(1)]
    for m in range(r - 1, -1, -1):
        shift = r - 1 - m
        poly = [x + shift * y for x, y in zip(poly + [0], [0] + poly)]
        poly[-1] += ann.coeff_series(m).coeff(r - m)
    invariants = []
    n = 0
    while len(invariants) < r:
        mu = lam + n
        if (len(poly) - 1) * mu > -poly[1]:
            raise NotMonogenicAtTruncation(
                "initial form has no right root in the exponent class"
            )
        horner = list(accumulate(poly, lambda acc, c: acc * mu + c))
        if horner[-1]:
            n += 1
        else:
            poly = horner[:-1]
            invariants.append(mu + r)
    return invariants


def invariants_or_error(f, ann, lam):
    """The invariants with their types, or the error's class and message."""
    try:
        got = f(ann, lam)
    except EngineError as exc:
        return type(exc), str(exc)
    return [(type(x), x) for x in got]


@st.composite
def bernstein_cases(draw):
    """The monic expansion of a random primitive presentation of rank
    1-5 in a class lam, known to order 1-8 (at times below the degree,
    so a read is past the order), read at lam, or at times perturbed so
    that the search refuses: one homogeneous coefficient moved, or
    another class read."""
    r = draw(st.integers(1, 5))
    lam = draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3),
                                Fraction(2, 5), Fraction(5, 7), Fraction(1))))
    lambdas = [lam + r - j + draw(st.integers(0, 4)) for j in range(1, r + 1)]
    order = draw(st.integers(1, 8))
    units = [SeriesB([1] + draw(st.lists(st.just(0) | unrelated,
                                         min_size=order, max_size=order)),
                     order) for _ in range(r)]
    bump = None
    if draw(st.integers(0, 2)) == 0:
        m = draw(st.integers(0, r - 1))
        if r - m <= order:
            bump = (m, r - m, draw(unrelated))
    ann, _, _ = peel_case(lambdas, units, bump)
    return ann, draw(st.sampled_from((lam, lam, lam, lam / 2, lam + 1,
                                      Fraction(1, 11))))


@settings(max_examples=200, deadline=None)
@given(bernstein_cases())
def test_bernstein_invariants_are_the_fraction_reference(case):
    # equal Fractions, or the same error class and message: a read past
    # the order, or a search that finds no root in the class
    assert invariants_or_error(fresco_module._bernstein_invariants, *case) \
        == invariants_or_error(reference_bernstein_invariants, *case)
