"""Presentations, Bernstein data, the adapted model, regeneration."""

from fractions import Fraction
from math import ceil, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from frescos.algebra import _b2_log_derivative, _fit, monic_expansion
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
    default_model_order,
    fundamental_invariants,
    presentation_from_annihilator,
    regenerate_presentation,
    sub_quotient,
    trivial_units,
    twist,
)
from frescos.oracle import minimal_annihilator, truncate_rep
from frescos.series import SeriesB, rat
import frescos.fresco as fresco_module
from test_algebra import expand_factor_form, monicize

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


def test_default_model_order():
    assert default_model_order(std()) == 2 * 2 + 2 + 8


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
    q = presentation_from_annihilator(ann, lam, WITNESS_DEPTH)
    assert q.lambdas == p.lambdas
    order = min(u.order for u in q.units)
    got = monicize(expand_factor_form(q.factors, order))
    assert got.same_upto(ann, min(order, WITNESS_DEPTH - k) - 1)


def test_presentation_from_annihilator_refuses_what_it_cannot_peel():
    p = pres(("7/2", unit(2)), ("9/2", unit()))
    ann = monicize(expand_factor_form(p.factors, 12))
    assert presentation_from_annihilator(ann, rat("1/2"), 12).lambdas == \
        p.lambdas
    # two peels need order 1 + 2 + 1 = 4
    short = monicize(expand_factor_form(p.factors, 3))
    with pytest.raises(NotMonogenicAtTruncation, match="need 4"):
        presentation_from_annihilator(short, rat("1/2"), 12)
    with pytest.raises(SemanticError, match="monic"):
        presentation_from_annihilator(ann * SeriesB([2], 12), rat("1/2"), 12)
    with pytest.raises(SemanticError, match="monic"):
        presentation_from_annihilator(monicize(ann.from_series(unit())),
                                      rat("1/2"), 12)
