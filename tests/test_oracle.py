"""Truncated matrix oracle: annihilators, submodules, cross-checks."""

import json
import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from frescos.algebra import AbElement
from frescos.cli import _oracle_check_one
from frescos.dsl import parse_dsl
from frescos.errors import (DegenerateTruncation, OrderUnderflow,
                            TruncationTooSmall)
from frescos.fresco import AdaptedModel, Presentation
from frescos.linalg import Solver, axpy, certified_rank, integral, matvec
from frescos.oracle import (
    TruncatedRep,
    _shift,
    minimal_annihilator,
    span_closure,
    submodule_analysis,
    truncate_rep,
)
from frescos.series import SeriesB, rat
import frescos.oracle as oracle_module
from test_algebra import expand_factor_form, monicize
from test_fresco import EBasisModel, basis, e_vector

M = 12


def unit(*coeffs, order=M):
    return SeriesB([1] + list(coeffs), order)


def pres(*pairs, order=M):
    return Presentation(
        [(rat(l), unit(*cs, order=order)) for l, cs in pairs]
    )


def e_coords(model, x):
    """The e-coordinates H_j / S_j of an adapted-model element, which
    has coordinates H_j against f_j = S_j^-1 e_j: what embed takes."""
    return [c * s.invert() for s, c in zip(model.sub, x)]


def e_generator(rep, p):
    """e_k = S_k f_k on the oracle's basis b^m f_j."""
    return rep.embed(e_vector(AdaptedModel(p, order=rep.M), p.rank))


def to_f(rep, p, x):
    """A vector given on b^m e_j, moved to b^m f_j: b^n e_j = b^n S_j f_j."""
    out = {}
    for r, c in x.items():
        n, j = divmod(r, rep.k)
        u = p.units[j]
        axpy(out, c, {rep.idx(j + 1, n + t): Fraction(y, u.den)
                      for t, y in enumerate(u.nums[:rep.M - n]) if y})
    return out


def e_basis_rep(p, M):
    """The oracle on the basis b^m e_j, the reference of the one on f_j.

    Column b^m e_j is b^m d_j e_j + m b^(m+1) e_j + b^m S_j e_(j-1).
    The diagonal d_j = l_j b + b^2 S_j'/S_j and the sub-diagonal S_j are
    taken once per factor as integer numerators over ascale, the lcm of
    their lowest-terms denominators, so each column is a run of index
    offsets into those lists.  As b^m e_j = b^m S_j f_j with S_j(0) = 1,
    the change of basis is unitriangular with the identity at each
    level, so both give the same annihilator of the same element.
    """
    if M < 4:
        raise ValueError("truncation depth must be at least 4")
    k = p.rank
    rep = TruncatedRep(k, M)
    parts = []
    for j, (lam, unit) in enumerate(p.factors, start=1):
        if unit.order < M:
            raise OrderUnderflow(
                "series known to order %d, need %d" % (unit.order, M))
        s = unit.nums[:M]
        q, qden = _b2_log_derivative(s)
        sub, sden = [], 1
        if j > 1:
            # S_j sits at e_(j-1), so S_1 is no entry of the matrix
            g = gcd(unit.den, *s)
            sub, sden = [x // g for x in s], unit.den // g
        parts.append((lam, q, qden, sub, sden))
    rep.ascale = D = lcm(*(lcm(lam.denominator, qden, sden)
                           for lam, _, qden, _, sden in parts))
    dim = rep.dim
    for j, (lam, q, qden, sub, sden) in enumerate(parts, start=1):
        d = [x * (D // qden) for x in q]
        d[1] += lam.numerator * (D // lam.denominator)
        # level t of d_j is the offset t k, level t of S_j sits one row
        # lower, at e_(j-1); both are cut where the index reaches dim
        dterms = [(t * k, x) for t, x in enumerate(d) if t and x]
        sterms = [(t * k - 1, x * (D // sden)) for t, x in enumerate(sub)
                  if x]
        for m in range(M):
            base = m * k + j - 1
            while dterms and base + dterms[-1][0] >= dim:
                dterms.pop()
            while sterms and base + sterms[-1][0] >= dim:
                sterms.pop()
            col = {base + o: x for o, x in dterms}
            if m and m + 1 < M:
                # the crossing term joins d_j's b^1 entry lambda_j, and
                # Presentation keeps lambda_j > k - j >= 0: no cancelling
                col[base + k] += m * D
            col.update([(base + o, x) for o, x in sterms])
            if col:
                rep.aint[base] = col
    return rep


def _b2_log_derivative(s):
    """b^2 S'/S to the length n of s, for S = s up to a positive scale,
    s[0] > 0: integer numerators over one denominator, in lowest terms.

    Solves s q = b^2 s' row by row on integers: H_t = s_0^t q_t is the
    b^t coefficient (t - 1) s_(t-1) s_0^(t-1) of s_0^(t-1) b^2 s' minus
    sum_(i >= 1) s_i s_0^(i-1) H_(t-i).  Over s_0^(n-1) every q_t is
    H_t s_0^(n-1-t), reduced by one content gcd.
    """
    n, s0 = len(s), s[0]
    pw = [1]
    for _ in range(n - 1):
        pw.append(pw[-1] * s0)
    terms = [(i, c * pw[i - 1]) for i, c in enumerate(s) if i and c]
    h = []
    for t in range(n):
        acc = (t - 1) * s[t - 1] * pw[t - 1] if t >= 2 else 0
        for i, w in terms:
            if i > t:
                break
            acc -= w * h[t - i]
        h.append(acc)
    nums = [x * pw[n - 1 - t] for t, x in enumerate(h)]
    g = gcd(pw[-1], *nums)
    return [x // g for x in nums], pw[-1] // g


def std2():
    return pres(("5/2", (0, 3)), ("7/2", ()))


def std3():
    return pres((3, (1,)), (3, ()), (3, (0, -2)))


def apply_operator(rep, u, vec):
    """sum_m A^m c_m(B) vec through the truncated matrices.

    Coefficients past a series' order contribute nothing, so pass
    operators of order >= M to trust the high levels.
    """
    out = {}
    for m, c in enumerate(u.coeffs):
        cur, shifted = {}, vec
        for co in c.coeffs[:rep.M]:
            axpy(cur, co, shifted)
            shifted = rep.apply_b(shifted)
        for _ in range(m):
            cur = rep.apply_a(cur)
        axpy(out, 1, cur)
    return out


def commutation_defect(rep):
    """Columns of AB - BA - B^2 on the levels below M-1."""
    a, b = rep.apply_a, rep.apply_b
    defects = {}
    for i in range(rep.dim):
        v = {i: Fraction(1)}
        d = axpy(axpy(a(b(v)), -1, b(a(v))), -1, b(b(v)))
        d = {r: x for r, x in d.items() if rep.level(r) < rep.M - 1}
        if d:
            defects[i] = d
    return defects


def test_matrix_commutation_exact():
    for p in (std2(), std3()):
        rep = truncate_rep(p, M)
        assert commutation_defect(rep) == {}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(4, 9), st.data())
def test_level_major_index_round_trips(k, M, data):
    # b^m e_j sits at m k + j - 1: the indices fill range(k M), sort by
    # level and then by chain position, and level reads m back
    rep = TruncatedRep(k, M)
    cells = [(m, j) for m in range(M) for j in range(1, k + 1)]
    assert [rep.idx(j, m) for m, j in cells] == list(range(rep.dim))
    assert all(rep.level(rep.idx(j, m)) == m for m, j in cells)
    # b^i drops exactly the entries that would pass level M - 1
    vec = data.draw(st.dictionaries(st.sampled_from(cells),
                                    st.integers(1, 5), max_size=8))
    i = data.draw(st.integers(0, M + 1))
    got = _shift(rep, {rep.idx(j, m): c for (m, j), c in vec.items()}, i)
    assert got == {rep.idx(j, m + i): c for (m, j), c in vec.items()
                   if m + i < M}


def test_b_column_is_pure_shift():
    rep = truncate_rep(std2(), M)
    for j in (1, 2):
        for m in range(M - 1):
            assert rep.apply_b({rep.idx(j, m): Fraction(1)}) == {
                rep.idx(j, m + 1): Fraction(1)
            }
        assert rep.apply_b({rep.idx(j, M - 1): Fraction(1)}) == {}


def test_annihilator_of_first_basis_vector():
    # with trivial units a e_1 = l_1 b e_1 on the nose
    p = pres(("5/2", ()), ("7/2", ()))
    rep = truncate_rep(p, M)
    ann = minimal_annihilator(rep, rep.basis_vector(1))
    want = AbElement.linear(rat("5/2"), M - 1)
    assert ann.degree == 1
    assert ann.same_upto(want, M - 1)


def test_annihilator_sees_unit_correction():
    # a e_1 = (l_1 b + b^2 S_1'/S_1) e_1, so the unit shows up in the
    # annihilator of e_1 = S_1 f_1
    p = std2()
    rep = truncate_rep(p, M)
    ref = EBasisModel(p, order=M)
    model = AdaptedModel(p, order=M)
    ann = minimal_annihilator(rep, rep.embed(e_vector(model, 1)))
    want = AbElement([-ref.diag[0], SeriesB.one(M)])
    assert ann.degree == 1
    assert ann.same_upto(want, M - 1)
    # while the normalised generator f_1 = S_1^-1 e_1 of the same line
    # drops it again
    ann2 = minimal_annihilator(rep, rep.basis_vector(1))
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
    ann = minimal_annihilator(rep, e_generator(rep, p))
    want = monicize(expand_factor_form(p.factors, M))
    assert ann.degree == 2
    assert ann.same_upto(want, M - 2)


def test_annihilator_rank_three():
    p = std3()
    rep = truncate_rep(p, M)
    ann = minimal_annihilator(rep, e_generator(rep, p))
    want = monicize(expand_factor_form(p.factors, M))
    assert ann.degree == 3
    assert ann.same_upto(want, M - 3)


def test_annihilator_kills_vector_through_matrices():
    p = std3()
    rep = truncate_rep(p, M)
    x = rep.basis_vector(3)
    ann = minimal_annihilator(rep, x)
    img = apply_operator(rep, ann, x)
    # residual entries only where series precision ran out
    assert all(rep.level(r) >= M - 3 for r in img)


def test_annihilator_takes_one_matvec_per_degree(monkeypatch):
    # the b-left solve reads only x, a x, ..., a^d x, shared by degrees
    calls = []
    def counted(cols, vec):
        calls.append(len(vec))
        return matvec(cols, vec)

    monkeypatch.setattr(oracle_module, "matvec", counted)
    rep = truncate_rep(std3(), M)
    ann = minimal_annihilator(rep, rep.basis_vector(3))
    assert ann.degree == 3
    assert len(calls) == 3


def test_annihilator_levels_past_zero_run_no_solver(monkeypatch):
    # each degree solves its level 0 through the Solver, and the degree
    # that holds solves its base block once per column for the inverse;
    # a Solver call per level would make 32 calls here
    calls = []
    real = Solver.__call__
    def counted(self, rhs):
        calls.append(rhs)
        return real(self, rhs)

    monkeypatch.setattr(Solver, "__call__", counted)
    k, depth = 4, 32
    p = pres(("9/2", [0, 1]), ("7/2", [0, 0, Fraction(1, 2)]),
             ("5/2", [Fraction(-2, 3)]), ("3/2", [0, 0, 0, 3]), order=depth)
    rep = truncate_rep(p, depth)
    ann = minimal_annihilator(rep, e_generator(rep, p))
    assert ann.degree == k
    want = monicize(expand_factor_form(p.factors, depth))
    assert ann.same_upto(want, depth - k)
    assert len(calls) <= 2 * k


def test_annihilator_ignores_explicit_zero_entries():
    # a zero at b^0 f_1 moves neither the valuation nor the answer
    rep = truncate_rep(std3(), M)
    x = rep.basis_vector(2, 1)
    want = minimal_annihilator(rep, x)
    assert want.degree == 2
    assert minimal_annihilator(rep, {**x, rep.idx(1, 0): Fraction(0)}) == want


def test_all_zero_vector_has_no_annihilator():
    rep = truncate_rep(std3(), M)
    with pytest.raises(ValueError, match="zero vector"):
        minimal_annihilator(rep, {rep.idx(1, 0): Fraction(0)})


def test_annihilator_needs_room():
    rep = truncate_rep(std2(), M)
    with pytest.raises(DegenerateTruncation):
        minimal_annihilator(rep, rep.basis_vector(1, M - 2))


def _chain_annihilator(rep, x):
    """The annihilator solved the chain way, in normal order directly.

    The unknowns c_(m,t) of a^d + sum_m a^m c_m(b) come level by level
    from the chains a^m b^t x, each its own integer matvec, and the
    solved slices are subtracted from one whole residual.
    """
    M, k = rep.M, rep.k
    v = rep.level(min(x))
    base, _ = integral(x)
    memo = {}

    def chain(t, m):
        w = memo.get((t, m))
        if w is None:
            w = (matvec(rep.aint, chain(t, m - 1)) if m
                 else _shift(rep, base, t))
            memo[(t, m)] = w
        return w

    def solve(d):
        ordc = M - d - v
        if ordc < 2:
            raise DegenerateTruncation(
                "depth %d leaves no room for a degree-%d annihilator; "
                "rerun with --oracle-depth %d" % (M, d, k + v + 2))
        res = {r: -y for r, y in chain(0, d).items()}
        s = 1
        dpow = [rep.ascale ** (d - m) for m in range(d)]
        coeffs = [[] for _ in range(d)]
        level = range(v * k, (v + 1) * k)
        block = Solver([{i: c[i] for i in level if i in c}
                        for c in (chain(0, m) for m in range(d))], rep.dim)
        if len(block.pivots) < d:
            raise DegenerateTruncation(
                "level-%d block has rank < %d at depth %d" % (v, d, M))
        for t in range(ordc + 1):
            off = t * k
            sol = block({i: res[i + off] for i in level if i + off in res})
            if sol is None:
                return None
            nums, den = sol
            if den > 1:
                for r in res:
                    res[r] *= den
            s *= den
            for m, y in enumerate(nums):
                coeffs[m].append(Fraction(y, s * dpow[m]))
                if y:
                    axpy(res, -y, chain(t, m))
            g = gcd(s, *res.values())
            if g > 1:
                s //= g
                res = {r: y // g for r, y in res.items()}
        return [SeriesB(cs, ordc) for cs in coeffs] + [SeriesB.one(ordc)]

    for d in range(1, k + 1):
        got = solve(d)
        if got is not None:
            return AbElement(got)
    raise DegenerateTruncation(
        "no monic annihilator of degree <= %d at depth %d" % (k, M))


def _outcome(solve, rep, x):
    """The annihilator with its slot orders, or the error it raised."""
    try:
        ann = solve(rep, x)
    except DegenerateTruncation as exc:
        return type(exc), str(exc)
    return ann, [c.order for c in ann.coeffs]


@st.composite
def deep_presentations(draw, order=40):
    """Rank 1-5 with units known to order 40, each sparse or dense."""
    k = draw(st.integers(1, 5))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    fs = []
    for j in range(1, k + 1):
        lam = draw(st.fractions(min_value=k - j + Fraction(1, 3),
                                max_value=k - j + 6, max_denominator=3))
        if draw(st.booleans()):
            cs = draw(st.dictionaries(st.integers(1, 8), coeffs, max_size=3))
            cs = [cs.get(i, 0) for i in range(1, 9)]
        else:
            cs = draw(st.lists(coeffs, min_size=order - 1,
                               max_size=order - 1))
        fs.append((lam, unit(*cs, order=order)))
    return Presentation(fs)


def _draw_vector(data, rep):
    """A basis vector at level m, or a sparse combination starting at
    level m, on rep's basis."""
    k, depth = rep.k, rep.M
    m = data.draw(st.integers(0, min(4, depth - 1)))
    if data.draw(st.booleans()):
        return rep.basis_vector(data.draw(st.integers(1, k)), m)
    cells = st.tuples(st.integers(1, k), st.integers(m, depth - 1))
    x = {rep.idx(j, n): c for (j, n), c in data.draw(st.dictionaries(
        cells, st.fractions(min_value=-3, max_value=3,
                            max_denominator=4).filter(bool),
        min_size=1, max_size=4)).items()}
    x[rep.idx(data.draw(st.integers(1, k)), m)] = Fraction(1)
    return x


@settings(max_examples=80, deadline=None)
@given(deep_presentations(), st.data())
def test_b_left_solve_matches_the_chain_solve(p, data):
    depth = data.draw(st.integers(max(4, p.rank + 2), 40))
    rep = truncate_rep(p, depth)
    x = _draw_vector(data, rep)
    assert _outcome(minimal_annihilator, rep, x) == \
        _outcome(_chain_annihilator, rep, x)


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


def test_zero_generators_are_refused():
    # a nonzero generator's b-shifts reach the top level, so only zero
    # generators can leave it empty, and no depth would help them
    rep = truncate_rep(std2(), M)
    for gens in ([], [{}], [{}, {rep.idx(2, 3): Fraction(0)}]):
        with pytest.raises(ValueError):
            submodule_analysis(rep, gens)


def test_embed_round_trip():
    p = std3()
    rep = truncate_rep(p, M)
    model = AdaptedModel(p, order=M)
    x = [
        SeriesB([2, 0, 1], M),
        SeriesB.zero(M),
        SeriesB([0, 0, 0, 5], M),
    ]
    vec = rep.embed(x)
    assert vec[rep.idx(1, 0)] == 2
    assert vec[rep.idx(1, 2)] == 1
    assert vec[rep.idx(3, 3)] == 5
    assert len(vec) == 3


def test_rep_agrees_with_model_action():
    # on the model's own basis f_j, and on e_j for the reference,
    # through the change of basis f_j = S_j^-1 e_j
    p = std3()
    rep = truncate_rep(p, M)
    ref = e_basis_rep(p, M)
    model = AdaptedModel(p, order=M)
    for j in (1, 2, 3):
        x = basis(model, j)
        assert rep.apply_a(rep.embed(x)) == rep.embed(model.apply_a(x))
        va = ref.apply_a(ref.embed(e_coords(model, x)))
        wa = ref.embed(e_coords(model, model.apply_a(x)))
        assert {r: c for r, c in va.items() if ref.level(r) < M} == wa


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
    return Presentation(fs)


@settings(max_examples=40, deadline=None)
@given(small_presentations())
def test_oracle_annihilator_matches_expansion(p):
    rep = truncate_rep(p, M)
    ann = minimal_annihilator(rep, e_generator(rep, p))
    want = monicize(expand_factor_form(p.factors, M))
    assert ann.degree == p.rank
    assert ann.same_upto(want, M - p.rank)


@settings(max_examples=25, deadline=None)
@given(small_presentations())
def test_oracle_presentation_kills_generator(p):
    rep = truncate_rep(p, M)
    x = e_generator(rep, p)
    u = expand_factor_form(p.factors, M)
    img = apply_operator(rep, u, x)
    assert all(rep.level(r) >= M - p.rank for r in img)


@st.composite
def unit_presentations(draw):
    """Rank 1-3 with units up to order M: sparse or dense, mixed signs."""
    k = draw(st.integers(1, 3))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    fs = []
    for j in range(1, k + 1):
        lam = draw(st.fractions(min_value=k - j + Fraction(1, 2),
                                max_value=k - j + 5, max_denominator=3))
        cs = draw(st.lists(coeffs, min_size=0, max_size=M))
        fs.append((lam, unit(*cs)))
    return Presentation(fs)


def _columns_from_model(p):
    """The a-columns of the adapted model: a b^m f_j, embedded."""
    model = AdaptedModel(p, order=M)
    rep = TruncatedRep(p.rank, M)
    cols = {}
    for j in range(1, p.rank + 1):
        for m in range(M):
            x = [SeriesB.monomial(1, m, M) if i == j else SeriesB.zero(M)
                 for i in range(1, p.rank + 1)]
            cols[rep.idx(j, m)] = rep.embed(model.apply_a(x))
    return cols


def _columns_from_e_model(p):
    """The a-columns built from the d_j of the e-basis reference model."""
    model = EBasisModel(p, order=M)
    rep = TruncatedRep(p.rank, M)
    cols = {}
    for j in range(1, p.rank + 1):
        d, s = model.diag[j - 1], model.sub[j - 1]
        for m in range(M):
            col = {}
            for t in range(1, M - m):
                col[rep.idx(j, m + t)] = d.coeffs[t]
            if m + 1 < M:
                r = rep.idx(j, m + 1)
                col[r] = col.get(r, Fraction(0)) + m
            if j > 1:
                for t in range(M - m):
                    col[rep.idx(j - 1, m + t)] = s.coeffs[t]
            cols[rep.idx(j, m)] = {r: c for r, c in col.items() if c}
    return cols


@settings(max_examples=40, deadline=None)
@given(unit_presentations())
def test_a_columns_match_the_adapted_model(p):
    rep = truncate_rep(p, M)
    cols = {i: rep.apply_a({i: Fraction(1)}) for i in range(rep.dim)}
    assert cols == _columns_from_model(p)
    # and the e-basis reference matches the e-basis reference model
    ref = e_basis_rep(p, M)
    cols = {i: ref.apply_a({i: Fraction(1)}) for i in range(ref.dim)}
    assert cols == _columns_from_e_model(p)


def _unit_terms(p, j, depth):
    """Nonzero coefficients of S_j below b^depth; S_0 has none."""
    return sum(1 for x in p.units[j - 1].nums[:depth] if x) if j else 0


def test_columns_hold_one_entry_per_unit_term():
    # column b^m f_j is (l_j + m) b^(m+1) f_j plus the terms of S_(j-1)
    for p in _verify_pool_presentations():
        rep = truncate_rep(p, 32)
        for j in range(1, p.rank + 1):
            most = 1 + _unit_terms(p, j - 1, 32)
            for m in range(32):
                assert len(rep.aint.get(rep.idx(j, m), ())) <= most


def _fraction_rep(p, M):
    """(aint, ascale) built the Fraction way: every entry a Fraction,
    then one integral over all of them."""
    k = p.rank
    cols = {}
    for j, lam in enumerate(p.lambdas, start=1):
        sub = []
        if j > 1:
            u = p.units[j - 2]
            sub = [(t, Fraction(x, u.den))
                   for t, x in enumerate(u.nums[:M]) if x]
        for m in range(M):
            col = {}
            if m + 1 < M:
                col[(m + 1) * k + j - 1] = lam + m
            for t, x in sub:
                if t >= M - m:
                    break
                col[(m + t) * k + j - 2] = x
            cols[m * k + j - 1] = col
    ints, ascale = integral({(i, r): x for i, col in cols.items()
                             for r, x in col.items()})
    aint = {}
    for (i, r), x in ints.items():
        aint.setdefault(i, {})[r] = x
    return aint, ascale


def _verify_pool_presentations():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "pool", "verify-oracle.jsonl")
    with open(path) as fh:
        texts = dict.fromkeys(json.loads(line)["argv"][-1] for line in fh)
    return [parse_dsl(t, order=32) for t in texts]


def test_integer_columns_match_the_fraction_build_on_the_verify_pool():
    ps = _verify_pool_presentations()
    assert len(ps) > 400
    for p in ps:
        for depth in sorted({4, p.rank + 3, 32}):
            rep = truncate_rep(p, depth)
            assert (rep.aint, rep.ascale) == _fraction_rep(p, depth)


@settings(max_examples=60, deadline=None)
@given(unit_presentations(), st.integers(4, M))
def test_integer_columns_match_the_fraction_build(p, depth):
    rep = truncate_rep(p, depth)
    assert (rep.aint, rep.ascale) == _fraction_rep(p, depth)
    assert all(rep.aint.values())


@settings(max_examples=60, deadline=None)
@given(deep_presentations(), st.data())
def test_f_basis_annihilators_match_the_e_basis_reference(p, data):
    # G on b^m e_j, b^m e_j itself or a sparse combination; the oracle
    # takes S G on b^m f_j
    depth = data.draw(st.integers(max(4, p.rank + 2), 40))
    ref = e_basis_rep(p, depth)
    x = _draw_vector(data, ref)
    rep = truncate_rep(p, depth)
    assert _outcome(minimal_annihilator, rep, to_f(rep, p, x)) == \
        _outcome(minimal_annihilator, ref, x)


def test_embed_refuses_more_coordinates_than_the_rank():
    # b^2 f_3 of a rank-3 element would land on b^3 f_1 of a rank 2 rep
    rep = truncate_rep(std2(), M)
    x = [SeriesB.zero(M), SeriesB.zero(M), SeriesB.monomial(1, 2, M)]
    with pytest.raises(ValueError):
        rep.embed(x)
    assert rep.embed([SeriesB.one(M)]) == {0: 1}


def test_embed_refuses_no_coordinates():
    # an element has a least order only if it has a coordinate
    rep = truncate_rep(std2(), M)
    with pytest.raises(ValueError,
                       match="^element has 0 coordinates, rank is 2$"):
        rep.embed([])


def test_embed_refuses_coordinates_known_below_the_depth():
    # zero-filled to depth 8, an element known to order 3 would get an
    # annihilator known to order 6
    rep = truncate_rep(std2(), 8)
    x = [SeriesB.zero(3), SeriesB.one(3)]
    with pytest.raises(OrderUnderflow):
        rep.embed(x)


@pytest.mark.parametrize("j, m", [(0, 0), (3, 0), (1, -1), (2, M)])
def test_basis_vector_refuses_a_position_outside_the_rep(j, m):
    rep = truncate_rep(std2(), M)
    with pytest.raises(ValueError):
        rep.basis_vector(j, m)


def test_truncate_rep_needs_no_series_arithmetic(monkeypatch):
    p = pres((3, (1, "-1/2", 2)), (3, ()), (3, (0, -2, 0, "5/3")))
    want = truncate_rep(p, M)

    def refuse(*args):
        raise AssertionError("the oracle used series arithmetic")

    for name in ("__mul__", "__rmul__", "__truediv__", "invert", "derive"):
        monkeypatch.setattr(SeriesB, name, refuse)
    got = truncate_rep(p, M)
    assert (got.aint, got.ascale) == (want.aint, want.ascale)


def _b_image(rep):
    return [rep.basis_vector(j, 1) for j in range(1, rep.k + 1)]


@settings(max_examples=30, deadline=None)
@given(unit_presentations(), st.integers(0, 6))
def test_b_image_is_certified_from_rank_plus_three(p, extra):
    # the closure of b f_1..b f_k is every b^m f_j with m >= 1, so it has
    # codimension k, and its profile first certifies at depth k + 3:
    # verify refuses a shallower depth with the same message
    k = p.rank
    depth = k + 3 + extra
    rep = truncate_rep(p, depth)
    ech = span_closure(rep, _b_image(rep))
    levels = sorted(map(rep.level, ech.pivots))
    assert levels == [m for m in range(1, depth) for _ in range(k)]
    assert rep.dim - len(ech.pivots) == k
    assert certified_rank([m for m in levels if m < k + 3], k + 3) == \
        (k, 1, 0)
    assert certified_rank([m for m in levels if m < k + 2], k + 2) == \
        (k, 1, k + 3)
    if k >= 2:
        rep = truncate_rep(p, k + 2)
        with pytest.raises(TruncationTooSmall) as old:
            submodule_analysis(rep, _b_image(rep))
        with pytest.raises(TruncationTooSmall) as new:
            _oracle_check_one(p, k + 2, random.Random(extra))
        assert str(new.value) == str(old.value)
