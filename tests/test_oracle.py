"""Truncated matrix oracle: annihilators, submodules, cross-checks."""

import json
import os
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from frescos.algebra import AbElement
from frescos.cli import _oracle_check_one
from frescos.dsl import parse_dsl
from frescos.errors import DegenerateTruncation, TruncationTooSmall
from frescos.fresco import AdaptedModel, ModuleElement, Presentation
from frescos.linalg import Solver, axpy, certified_rank, integral
from frescos.oracle import (
    TruncatedRep,
    _matvec,
    _shift,
    minimal_annihilator,
    span_closure,
    submodule_analysis,
    truncate_rep,
)
from frescos.series import SeriesB, rat
import frescos.oracle as oracle_module
from test_algebra import expand_factor_form, monicize
from test_fresco import EBasisModel

M = 12


def unit(*coeffs, order=M):
    return SeriesB([1] + list(coeffs), order)


def pres(*pairs, order=M):
    return Presentation(
        [(rat(l), unit(*cs, order=order)) for l, cs in pairs]
    )


def basis(model, j):
    """f_j of an adapted model as a module element."""
    n = model.order
    return ModuleElement([SeriesB.one(n) if i == j else SeriesB.zero(n)
                          for i in range(1, model.rank + 1)])


def e_coords(model, x):
    """The e-coordinates H_j / S_j of an adapted-model element, which
    has coordinates H_j against f_j = S_j^-1 e_j: what embed takes."""
    return ModuleElement([c * s.invert() for s, c in zip(model.sub, x.coords)])


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
    # a e_1 = (l_1 b + b^2 S_1'/S_1) e_1, so the unit shows up here
    p = std2()
    rep = truncate_rep(p, M)
    ref = EBasisModel(p, order=M)
    ann = minimal_annihilator(rep, rep.basis_vector(1))
    want = AbElement([-ref.diag[0], SeriesB.one(M)])
    assert ann.degree == 1
    assert ann.same_upto(want, M - 1)
    # while the normalised generator f_1 = S_1^-1 e_1 of the same line
    # drops it again
    model = AdaptedModel(p, order=M)
    g = rep.embed(e_coords(model, basis(model, 1)))
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
    img = apply_operator(rep, ann, x)
    # residual entries only where series precision ran out
    assert all(rep.level(r) >= M - 3 for r in img)


def test_annihilator_takes_one_matvec_per_degree(monkeypatch):
    # the b-left solve reads only x, a x, ..., a^d x, shared by degrees
    calls = []
    matvec = oracle_module._matvec

    def counted(cols, vec):
        calls.append(len(vec))
        return matvec(cols, vec)

    monkeypatch.setattr(oracle_module, "_matvec", counted)
    rep = truncate_rep(std3(), M)
    ann = minimal_annihilator(rep, rep.basis_vector(3))
    assert ann.degree == 3
    assert len(calls) == 3


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
            w = (_matvec(rep.aint, chain(t, m - 1)) if m
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
    """Rank 1-5 with sparse units known to order 40."""
    k = draw(st.integers(1, 5))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    fs = []
    for j in range(1, k + 1):
        lam = draw(st.fractions(min_value=k - j + Fraction(1, 3),
                                max_value=k - j + 6, max_denominator=3))
        cs = draw(st.dictionaries(st.integers(1, 8), coeffs, max_size=3))
        fs.append((lam, unit(*[cs.get(i, 0) for i in range(1, 9)],
                             order=order)))
    return Presentation(fs)


@settings(max_examples=80, deadline=None)
@given(deep_presentations(), st.data())
def test_b_left_solve_matches_the_chain_solve(p, data):
    # basis vectors b^m e_j and sparse combinations starting at level m
    k = p.rank
    depth = data.draw(st.integers(max(4, k + 2), 40))
    rep = truncate_rep(p, depth)
    m = data.draw(st.integers(0, min(4, depth - 1)))
    if data.draw(st.booleans()):
        x = rep.basis_vector(data.draw(st.integers(1, k)), m)
    else:
        cells = st.tuples(st.integers(1, k), st.integers(m, depth - 1))
        x = {rep.idx(j, n): c for (j, n), c in data.draw(st.dictionaries(
            cells, st.fractions(min_value=-3, max_value=3,
                                max_denominator=4).filter(bool),
            min_size=1, max_size=4)).items()}
        x[rep.idx(data.draw(st.integers(1, k)), m)] = Fraction(1)
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
    # through the change of basis f_j = S_j^-1 e_j
    p = std3()
    rep = truncate_rep(p, M)
    model = AdaptedModel(p, order=M)
    for j in (1, 2, 3):
        x = basis(model, j)
        va = rep.apply_a(rep.embed(e_coords(model, x)))
        wa = rep.embed(e_coords(model, model.apply_a(x)))
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
    return Presentation(fs)


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
    """The a-columns built from the d_j of the e-basis reference model."""
    model = EBasisModel(p, order=M)
    rep = truncate_rep(p, M)
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


def _fraction_rep(p, M):
    """(aint, ascale) built the Fraction way: every entry a Fraction,
    d_j from a Fraction recurrence, then one integral over all of them."""
    k = p.rank
    cols = {}
    for j, (lam, u) in enumerate(p.factors, start=1):
        s = u.nums[:M]
        terms = [(i, c) for i, c in enumerate(s) if i and c]
        d = []
        for t in range(M):
            acc = (t - 1) * s[t - 1] if t >= 2 else 0
            for i, c in terms:
                if i > t:
                    break
                acc -= c * d[t - i]
            d.append(Fraction(acc, s[0]))
        d[1] += lam
        sub = [(t, Fraction(x, u.den)) for t, x in enumerate(s) if x]
        for m in range(M):
            col = {}
            for t in range(1, M - m):
                if d[t]:
                    col[(m + t) * k + j - 1] = d[t]
            if m + 1 < M:
                r = (m + 1) * k + j - 1
                col[r] = col.get(r, Fraction(0)) + m
            if j > 1:
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


def test_truncate_rep_needs_no_series_arithmetic(monkeypatch):
    p = pres((3, (1, "-1/2", 2)), (3, ()), (3, (0, -2, 0, "5/3")))
    want = truncate_rep(p, M)

    def refuse(*args):
        raise AssertionError("the oracle used series arithmetic")

    for name in ("__mul__", "__rmul__", "invert", "derive"):
        monkeypatch.setattr(SeriesB, name, refuse)
    got = truncate_rep(p, M)
    assert (got.aint, got.ascale) == (want.aint, want.ascale)


def _b_image(rep):
    return [rep.basis_vector(j, 1) for j in range(1, rep.k + 1)]


@settings(max_examples=30, deadline=None)
@given(unit_presentations(), st.integers(0, 6))
def test_b_image_is_certified_from_rank_plus_three(p, extra):
    # the closure of b e_1..b e_k is every b^m e_j with m >= 1, so it has
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
