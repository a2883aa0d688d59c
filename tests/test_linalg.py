"""The exact elimination kernel: echelon, dense solve, rank certificate.

sympy serves as an independent witness for ranks; it is a test-only
dependency and the rank checks are skipped without it.
"""

import ast
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frescos.linalg import Echelon, axpy, certified_rank, solve

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
    ech = Echelon((lambda i: -i) if reverse else (lambda i: i))
    for v in vecs:
        ech.insert(v)
    for v in vecs:
        assert ech.reduce(v) == {}
    assert len(ech.pivots) == _sympy_rank(_dense(vecs, 6))
    for lead, row in ech.pivots.items():
        assert row[lead] == 1
        assert min(row, key=ech.key) == lead


@settings(max_examples=30, deadline=None)
@given(sparse_vectors())
def test_pivot_set_depends_on_the_span_only(vecs):
    one, other = Echelon(lambda i: i), Echelon(lambda i: i)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_exact_or_none(nrows, ncols, data):
    rows = [[data.draw(RATS) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [data.draw(RATS) for _ in range(nrows)]
    pivots, z = solve(rows, rhs)
    rank = _sympy_rank(rows)
    assert len(pivots) == rank
    assert pivots == sorted(pivots)
    aug = [row + [b] for row, b in zip(rows, rhs)]
    if _sympy_rank(aug) > rank:
        assert z is None
    else:
        assert [sum(a * x for a, x in zip(row, z)) for row in rows] == rhs
        assert all(z[c] == 0 for c in range(ncols) if c not in pivots)


def test_solve_reports_free_columns():
    pivots, z = solve([[1, 2, 0], [2, 4, 1]], [Fraction(1), Fraction(3)])
    assert pivots == [0, 2]
    assert z == [1, 0, 1]
    assert solve([[1, 2], [2, 4]], [Fraction(1), Fraction(3)]) == ([0], None)


def test_certified_rank_boundaries():
    # a plateau reached with room to spare
    assert certified_rank([1, 2, 2, 2, 2, 2]) == (2, 1, True)
    # last growth one past the bound len - rank - 2, then exactly at it
    assert certified_rank([0, 1, 1, 2, 2, 2]) == (2, 3, False)
    assert certified_rank([0, 1, 1, 2, 2, 2, 2]) == (2, 3, True)
    # an empty top level is never certified
    assert certified_rank([0, 0, 0, 0]) == (0, 0, False)
    # growth at the very last level
    assert certified_rank([1, 1, 1, 2]) == (2, 3, False)


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
    _, last, _ = certified_rank(profile)
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
