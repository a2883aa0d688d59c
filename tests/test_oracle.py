"""Truncated matrix oracle: annihilators, submodules, cross-checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frescos.algebra import AbElement, expand_factor_form, monicize
from frescos.errors import DegenerateTruncation, TruncationTooSmall
from frescos.fresco import AdaptedModel, validate_presentation
from frescos.oracle import (
    commutation_defect,
    minimal_annihilator,
    rep_apply,
    span_closure,
    submodule_analysis,
    truncate_rep,
)
from frescos.series import SeriesB, rat

M = 12


def unit(*coeffs, order=M):
    return SeriesB([1] + list(coeffs), order)


def pres(*pairs, order=M):
    return validate_presentation(
        [(rat(l), unit(*cs, order=order)) for l, cs in pairs]
    )


def std2():
    return pres(("5/2", (0, 3)), ("7/2", ()))


def std3():
    return pres((3, (1,)), (3, ()), (3, (0, -2)))


def test_matrix_commutation_exact():
    for p in (std2(), std3()):
        rep = truncate_rep(p, M)
        assert commutation_defect(rep) == {}


def test_b_column_is_pure_shift():
    rep = truncate_rep(std2(), M)
    for j in (1, 2):
        for m in range(M - 1):
            assert rep.bcols[rep.idx(j, m)] == {
                rep.idx(j, m + 1): Fraction(1)
            }
        assert rep.idx(j, M - 1) not in rep.bcols


def test_annihilator_of_first_basis_vector():
    # with trivial units a e_1 = l_1 b e_1 on the nose
    p = pres(("5/2", ()), ("7/2", ()))
    rep = truncate_rep(p, M)
    ann = minimal_annihilator(rep, rep.basis_vector(1))
    want = AbElement.linear(rat("5/2"), M - 1)
    assert ann.degree == 1
    assert ann.same_upto(want, M - 1)


def test_annihilator_sees_unit_correction():
    # a e_1 = (l_1 b + b^2 S_1'/S_1) e_1, so the unit shows up here
    p = std2()
    rep = truncate_rep(p, M)
    model = AdaptedModel(p, order=M)
    ann = minimal_annihilator(rep, rep.basis_vector(1))
    want = AbElement([-model.diag[0], SeriesB.one(M)])
    assert ann.degree == 1
    assert ann.same_upto(want, M - 1)
    # while the normalised generator of the same line drops it again
    g = rep.embed(model.element(
        [model.sub[0].invert(), SeriesB.zero(M)]
    ))
    ann2 = minimal_annihilator(rep, g)
    assert ann2.same_upto(AbElement.linear(rat("5/2"), M - 1), M - 1)


def test_annihilator_of_shifted_vector():
    # b e_1 spans the twist by one, so the exponent moves up by one
    p = pres(("5/2", ()), ("7/2", ()))
    rep = truncate_rep(p, M)
    ann = minimal_annihilator(rep, rep.basis_vector(1, 1))
    want = AbElement.linear(rat("7/2"), M - 2)
    assert ann.degree == 1
    assert ann.same_upto(want, M - 2)


def test_annihilator_of_generator_matches_expansion():
    p = std2()
    rep = truncate_rep(p, M)
    ann = minimal_annihilator(rep, rep.basis_vector(2))
    want = monicize(expand_factor_form(p.factors, M))
    assert ann.degree == 2
    assert ann.same_upto(want, M - 2)


def test_annihilator_rank_three():
    p = std3()
    rep = truncate_rep(p, M)
    ann = minimal_annihilator(rep, rep.basis_vector(3))
    want = monicize(expand_factor_form(p.factors, M))
    assert ann.degree == 3
    assert ann.same_upto(want, M - 3)


def test_annihilator_kills_vector_through_matrices():
    p = std3()
    rep = truncate_rep(p, M)
    x = rep.basis_vector(3)
    ann = minimal_annihilator(rep, x)
    img = rep_apply(rep, ann, x)
    # residual entries only where series precision ran out
    assert all(rep.level(r) >= M - 3 for r in img)


def test_annihilator_needs_room():
    rep = truncate_rep(std2(), M)
    with pytest.raises(DegenerateTruncation):
        minimal_annihilator(rep, rep.basis_vector(1, M - 2))


def test_full_module_closure():
    p = std3()
    rep = truncate_rep(p, M)
    got = submodule_analysis(rep, [rep.basis_vector(3)])
    assert got == {"rank": 3, "normal": True, "dim": 3 * M, "codim": 0}


def test_image_of_b_has_codim_rank():
    for p in (std2(), std3()):
        k = p.rank
        rep = truncate_rep(p, M)
        got = submodule_analysis(
            rep, [rep.basis_vector(j, 1) for j in range(1, k + 1)]
        )
        assert got["codim"] == k
        assert got["rank"] == k
        assert not got["normal"]


def test_shifted_generator_closure_not_normal():
    rep = truncate_rep(std2(), M)
    got = submodule_analysis(rep, [rep.basis_vector(2, 1)])
    # the closure of b e_2 is all of b E, which meets bE in more than b(bE)
    assert got["codim"] == 2
    assert not got["normal"]


def test_first_chain_line_is_normal():
    rep = truncate_rep(std2(), M)
    got = submodule_analysis(rep, [rep.basis_vector(1)])
    assert got == {"rank": 1, "normal": True, "dim": M, "codim": M}


def test_closure_stabilisation_guard():
    rep = truncate_rep(std2(), M)
    with pytest.raises(TruncationTooSmall):
        submodule_analysis(rep, [rep.basis_vector(1, M - 2)])


def test_embed_round_trip():
    p = std3()
    rep = truncate_rep(p, M)
    model = AdaptedModel(p, order=M)
    x = model.element([
        SeriesB([2, 0, 1], M),
        SeriesB.zero(M),
        SeriesB([0, 0, 0, 5], M),
    ])
    vec = rep.embed(x)
    assert vec[rep.idx(1, 0)] == 2
    assert vec[rep.idx(1, 2)] == 1
    assert vec[rep.idx(3, 3)] == 5
    assert len(vec) == 3


def test_rep_agrees_with_model_action():
    p = std3()
    rep = truncate_rep(p, M)
    model = AdaptedModel(p, order=M)
    for j in (1, 2, 3):
        x = model.basis(j)
        va = rep.apply_a(rep.embed(x))
        wa = rep.embed(model.apply_a(x))
        assert {r: c for r, c in va.items() if rep.level(r) < M} == wa


@st.composite
def small_presentations(draw):
    k = draw(st.integers(1, 3))
    lams = []
    for j in range(1, k + 1):
        # keep the geometric bound with margin
        lams.append(draw(st.integers(k - j + 1, k - j + 4)))
    coeffs = st.fractions(
        min_value=-3, max_value=3, max_denominator=4
    )
    fs = []
    for lam in lams:
        cs = draw(st.lists(coeffs, min_size=0, max_size=2))
        fs.append((Fraction(lam), unit(*cs)))
    return validate_presentation(fs)


@settings(max_examples=40, deadline=None)
@given(small_presentations())
def test_oracle_annihilator_matches_expansion(p):
    rep = truncate_rep(p, M)
    ann = minimal_annihilator(rep, rep.basis_vector(p.rank))
    want = monicize(expand_factor_form(p.factors, M))
    assert ann.degree == p.rank
    assert ann.same_upto(want, M - p.rank)


@settings(max_examples=25, deadline=None)
@given(small_presentations())
def test_oracle_presentation_kills_generator(p):
    rep = truncate_rep(p, M)
    x = rep.basis_vector(p.rank)
    u = expand_factor_form(p.factors, M)
    img = rep_apply(rep, u, x)
    assert all(rep.level(r) >= M - p.rank for r in img)
