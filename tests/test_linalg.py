"""The exact elimination kernel: echelon, solve on it, rank certificate.

Positions are non-negative ints ordered as ints; a test of another
order maps position i of a width-w vector to w - 1 - i.  sympy serves
as an independent witness for ranks; it is a test-only dependency and
the rank checks are skipped without it.
"""

import ast
import os
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from frescos.linalg import (
    Echelon, Solver, axpy, certified_rank, closure, integral, solve_levels,
)

RATS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def sparse_vectors(draw, width=6):
    n = draw(st.integers(1, 7))
    vecs = []
    for _ in range(n):
        entries = draw(st.dictionaries(st.integers(0, width - 1), RATS,
                                       max_size=width))
        vecs.append({i: c for i, c in entries.items() if c})
    # repeat combinations so dependent vectors occur often
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
        vecs.append(axpy(dict(a), draw(RATS), b))
    return vecs


def _flipped(vecs, width=6):
    """The vectors with position i moved to width - 1 - i: the same
    kernel under the reverse order."""
    return [{width - 1 - i: x for i, x in v.items()} for v in vecs]


def _dense(vecs, width):
    return [[v.get(i, 0) for i in range(width)] for v in vecs]


def _sympy_rank(rows):
    sympy = pytest.importorskip("sympy")
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in map(Fraction, row)] for row in rows]).rank()


@settings(max_examples=60, deadline=None)
@given(sparse_vectors(), st.booleans())
def test_echelon_spans_what_was_inserted(vecs, reverse):
    if reverse:
        vecs = _flipped(vecs)
    ech = Echelon()
    for v in vecs:
        ech.insert(v)
    for v in vecs:
        assert ech.reduce(v) == {}
    assert len(ech.pivots) == _sympy_rank(_dense(vecs, 6))
    for lead, row in ech.pivots.items():
        assert all(type(x) is int for x in row.values())
        assert row[lead] > 0
        assert gcd(*row.values()) == 1
        assert min(row) == lead


@settings(max_examples=60, deadline=None)
@given(sparse_vectors(), st.booleans())
def test_stored_rows_are_the_primitive_residuals(vecs, reverse):
    # a residual that a step already made primitive only has its sign
    # fixed; one that no step reached has its content taken on store
    if reverse:
        vecs = _flipped(vecs)
    ech = Echelon()
    for v in vecs:
        res = ech.reduce(v)
        lead = ech.insert(v)
        if lead is not None:
            g = gcd(*res.values()) * (1 if res[lead] > 0 else -1)
            assert ech.pivots[lead] == {r: x // g for r, x in res.items()}
    size = 1 + max((max(v) for v in vecs if v), default=0)
    rows = Solver(vecs, size).echelon.pivots
    assert all(row[lead] > 0 and gcd(*row.values()) == 1
               for lead, row in rows.items())


def _reference_pivots(vecs):
    """Pivot set of a Fraction echelon whose rows are scaled to 1."""
    pivots = {}
    for v in vecs:
        v = {r: Fraction(x) for r, x in v.items()}
        while v:
            lead = min(v)
            row = pivots.get(lead)
            if row is None:
                pivots[lead] = {r: x / v[lead] for r, x in v.items()}
                break
            axpy(v, -v[lead], row)
    return set(pivots)


@settings(max_examples=60, deadline=None)
@given(sparse_vectors(), st.booleans())
def test_integer_rows_keep_the_rational_pivot_set(vecs, reverse):
    if reverse:
        vecs = _flipped(vecs)
    ech = Echelon()
    for v in vecs:
        ech.insert(v)
    assert set(ech.pivots) == _reference_pivots(vecs)


@settings(max_examples=30, deadline=None)
@given(sparse_vectors())
def test_pivot_set_depends_on_the_span_only(vecs):
    one, other = Echelon(), Echelon()
    for v in vecs:
        one.insert(v)
    for v in reversed(vecs):
        other.insert(v)
    assert set(one.pivots) == set(other.pivots)


def test_axpy_drops_cancelled_entries():
    dst = {0: Fraction(1), 1: Fraction(2)}
    out = axpy(dst, Fraction(-2), {1: Fraction(1), 2: Fraction(1, 2)})
    assert out is dst
    assert dst == {0: 1, 2: -1}


def _sparse_columns(rows):
    return [{i: Fraction(row[j]) for i, row in enumerate(rows) if row[j]}
            for j in range(len(rows[0]))]


def solve(cols, rhs, size):
    """(pivots, z): the independent columns and the Solver's solution."""
    solver = Solver(cols, size)
    return solver.pivots, solver(rhs)


def _fractions(got):
    """The solution (nums, scale) of a Solver as Fractions, after
    checking its form: integers over one positive scale, in lowest
    terms."""
    nums, scale = got
    assert all(type(x) is int for x in [scale, *nums])
    assert scale > 0 and gcd(scale, *nums) == 1
    return [Fraction(x, scale) for x in nums]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
def test_solve_exact_or_none(nrows, ncols, reverse, data):
    rows = [[data.draw(RATS) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [data.draw(RATS) for _ in range(nrows)]
    cols = _sparse_columns(rows)
    rhs_vec = {i: b for i, b in enumerate(rhs) if b}
    if reverse:
        cols, [rhs_vec] = _flipped(cols, nrows), _flipped([rhs_vec], nrows)
    pivots, got = solve(cols, rhs_vec, nrows)
    rank = _sympy_rank(rows)
    assert len(pivots) == rank
    assert pivots == sorted(pivots)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    if _sympy_rank(aug) > rank:
        assert got is None
    else:
        z = _fractions(got)
        assert [sum(a * x for a, x in zip(row, z)) for row in rows] == rhs
        assert all(z[c] == 0 for c in range(ncols) if c not in pivots)


def test_solve_reports_free_columns():
    def run(rows, rhs):
        return solve(_sparse_columns(rows), dict(enumerate(rhs)), len(rows))

    pivots, got = run([[1, 2, 0], [2, 4, 1]], [Fraction(1), Fraction(3)])
    assert (pivots, got) == ([0, 2], ([1, 0, 1], 1))
    assert run([[1, 2], [2, 4]], [Fraction(1), Fraction(3)]) == ([0], None)
    # int matrices give integers over a scale, never floats
    pivots, got = solve([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}], {0: 1, 1: 3},
                        2)
    assert (pivots, got) == ([0, 2], ([1, 0, 1], 1))
    # a rational solution keeps one positive scale
    assert solve([{0: -2}], {0: Fraction(1, 3)}, 1) == ([0], ([-1], 6))


@pytest.mark.parametrize("col, rhs", [
    ({0: 1, 2: 1}, {0: 1}),     # a column position past range(size)
    ({0: 1, -1: 1}, {0: 1}),    # a negative one
    ({0: 1}, {2: 1}),           # a right-hand side position past it
    ({0: 1}, {-1: 1}),
])
def test_solver_refuses_positions_outside_its_range(col, rhs):
    # position 2 of a 2-position system would be read as the tag of
    # column 0 and corrupt the solution without a word
    with pytest.raises(ValueError, match="outside range"):
        Solver([col, {1: 1}], 2)(rhs)


def dense_solve_levels(block, series, ordc):
    """solve_levels as it ran before its sparse recurrence: at every
    level one dense convolution per coordinate and column, then one
    Solver call.  The reference of the recurrence."""
    d = len(series) - 1
    z = [[] for _ in range(d)]
    s = 1
    for t in range(ordc + 1):
        rhs = {}
        for j, top in enumerate(series[d]):
            acc = s * top[t]
            for zm, cs in zip(z, series):
                acc += sum(map(mul, zm, cs[j][t:0:-1]))
            if acc:
                rhs[j] = -acc
        sol = block(rhs)
        if sol is None:
            return None
        nums, den = sol
        if den > 1:
            s *= den
            z = [[y * den for y in zm] for zm in z]
        for zm, y in zip(z, nums):
            zm.append(y)
    return z, s


def _base_block(W, k):
    return Solver([{j: c[0] for j, c in enumerate(cs) if c[0]} for cs in W],
                  k)


@st.composite
def level_systems(draw):
    """(block, series, ordc, late): W_0..W_(d-1) on k = 1..5 coordinates
    and 1..9 levels, sparse or dense, with a base block of full rank
    d <= k, and W_d.

    W_d is arbitrary, or sum_m C_m(b) W_m / q for integer series C_m, so
    that a solution exists whose scales come from q and from the block's
    inverse; that one may be broken at one level, and with late it is
    broken above level 0 on a row outside the span of the block."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, k))
    n = draw(st.integers(1, 9))
    entry = st.integers(-9, 9) if draw(st.booleans()) else \
        st.sampled_from([0] * 20 + [1, -1, 2, -3, 7])
    W = [[[draw(entry) for _ in range(n)] for _ in range(k)]
         for _ in range(d)]
    if len(_base_block(W, k).pivots) < d:
        # make the block triangular on d distinct rows
        rows = draw(st.permutations(range(k)))
        for m, cs in enumerate(W):
            for r in rows[:m]:
                cs[r][0] = 0
            cs[rows[m]][0] = draw(st.sampled_from([1, -2, 3, 5]))
    top = [[draw(entry) for _ in range(n)] for _ in range(k)]
    late = False
    if draw(st.booleans()):
        C = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(d)]
        top = [[sum(C[m][i] * W[m][j][t - i] for m in range(d)
                    for i in range(t + 1)) for t in range(n)]
               for j in range(k)]
        q = draw(st.integers(1, 4))
        W = [[[q * x for x in c] for c in cs] for cs in W]
        block = _base_block(W, k)
        outside = [j for j in range(k) if block({j: 1}) is None]
        if outside and n > 1 and draw(st.booleans()):
            late = True
            j = draw(st.sampled_from(outside))
            top[j][draw(st.integers(1, n - 1))] += 1
        elif draw(st.booleans()):
            top[draw(st.integers(0, k - 1))][draw(st.integers(0, n - 1))] -= 1
    return _base_block(W, k), W + [top], n - 1, late


@settings(max_examples=200, deadline=None)
@given(level_systems())
def test_level_recurrence_is_the_dense_solve(case):
    block, series, ordc, late = case
    want = dense_solve_levels(block, series, ordc)
    assert solve_levels(block, series, ordc) == want
    if late:
        # the break shows only past level 0
        assert want is None and dense_solve_levels(block, series, 0)


def test_level_recurrence_refuses_a_late_inconsistency():
    # k = 2 > d = 1 with B = (2, 0): delta = 2, and row 1 tests each
    # level's consistency; W_1 breaks it at level 2 only
    series = [[[2, 1, 0], [0, 3, 0]], [[4, 1, 1], [0, 6, 5]]]
    block = _base_block(series[:1], 2)
    assert solve_levels(block, series, 1) == ([[-4, 1]], 2)
    assert solve_levels(block, series, 2) is None
    assert dense_solve_levels(block, series, 2) is None


def _levels(per_level):
    """Pivot levels whose count per level is per_level."""
    return [m for m, c in enumerate(per_level) for _ in range(c)]


def test_certified_rank_boundaries():
    # a plateau reached with room to spare
    assert certified_rank(_levels([1, 2, 2, 2, 2, 2]), 6) == (2, 1, 0)
    # last growth one past the bound depth - rank - 2, then exactly at it;
    # the need is the window of the second
    assert certified_rank(_levels([0, 1, 1, 2, 2, 2]), 6) == (2, 3, 7)
    assert certified_rank(_levels([0, 1, 1, 2, 2, 2, 2]), 7) == (2, 3, 0)
    # no pivots: nothing to certify, so nothing is needed
    assert certified_rank([], 4) == (0, 0, 0)
    # growth at the very last level
    assert certified_rank(_levels([1, 1, 1, 2]), 4) == (2, 3, 7)
    # the order of the levels does not matter
    assert certified_rank([3, 0, 1, 2, 3], 4) == (2, 3, 7)


def test_closure_is_the_least_span_closed_under_the_maps():
    # the shift i -> i + 1 inside a window of 5 positions, closed from
    # one vector at 2: its span is everything from position 2 on; the
    # images of the last row are empty and never enter
    def shift(row):
        return ({i + 1: x for i, x in row.items() if i + 1 < 5},)

    ech = closure([{2: Fraction(3, 2)}], shift)
    assert list(ech.pivots) == [2, 3, 4]
    assert ech.pivots[2] == {2: 1}
    # two maps: the last image offered is inserted first
    ech = closure([{0: 1}], lambda row: ({1: 1} if 0 in row else {},
                                         {2: 1} if 0 in row else {}))
    assert list(ech.pivots) == [0, 2, 1]


def _last_growth_running_max(per_level):
    last, run = 0, 0
    for m, c in enumerate(per_level):
        if c > run:
            last = m
        run = max(run, c)
    return last


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_certificate_reads_a_monotone_profile_both_ways(steps):
    profile = [sum(steps[:i + 1]) for i in range(len(steps))]
    _, last, _ = certified_rank(_levels(profile), len(profile))
    assert last == _last_growth_running_max(profile)


def test_linalg_imports_nothing_from_the_package():
    path = os.path.join(os.path.dirname(__file__), "..", "src", "frescos",
                        "linalg.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("frescos")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("frescos") for a in node.names)


def test_integral_clears_denominators_into_a_new_dict():
    vec = {0: Fraction(1, 6), 2: Fraction(-3, 4), 5: 2}
    assert integral(vec) == ({0: 2, 2: -9, 5: 24}, 12)
    # an all-int vector skips the lcm but is still copied, since
    # Echelon.reduce works on what integral returns in place
    ints = {1: 3, 4: -6}
    got, den = integral(ints)
    assert (got, den) == (ints, 1) and got is not ints
    assert all(type(x) is int for x in integral(vec)[0].values())
