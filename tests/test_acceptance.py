"""Acceptance sweep: one test per advertised contract, exact equality.

Run with -v to get the one-line pass/fail ledger, one criterion per
line.  All randomness comes from fixed seeds so a failure replays; the
truncations are series order 32, oracle depth 32, ranks up to 4, except
in criterion 11, which runs the command line on ranks 6 to 10.
"""

import io
import json
import random
from fractions import Fraction

from frescos.algebra import (
    AbElement,
    check_exchange,
    check_unit_exchange,
    initial_form,
)
from frescos.alpha import (
    Analysis,
    classify_rank2,
    is_semisimple,
    rank3_alpha_formula,
)
from frescos.cli import main
from frescos.fresco import (
    AdaptedModel,
    Presentation,
    bernstein,
    regenerate_presentation,
    sub_quotient,
    trivial_units,
    twist,
)
from frescos.oracle import minimal_annihilator, submodule_analysis, truncate_rep
from frescos.series import SeriesB
from frescos.xi import (
    XiExpansion,
    model_from_xi,
    xi_exponent_split,
    xi_generate_module,
    xi_log_filtration,
)
from test_algebra import expand_factor_form, monicize
from test_fresco import e_vector, f_coords

F = Fraction
N = 32  # series truncation order
M = 32  # oracle depth


# --- random data, all from fixed seeds ---


def rand_rat(rng, lo=-12, hi=12, dens=(1, 2, 3, 4)):
    return F(rng.randint(lo, hi), rng.choice(dens))


def rand_unit(rng, order=N, terms=3):
    cs = [F(0)] * (order + 1)
    cs[0] = F(1)
    for _ in range(terms):
        cs[rng.randint(1, min(8, order))] = rand_rat(rng, -4, 4, (1, 2, 3))
    return SeriesB(cs, order)


def rand_presentation(rng, kmax=4, order=N):
    # lambda_j = k - j + positive keeps the geometric bound strict
    k = rng.randint(1, kmax)
    return Presentation([
        (k - j + F(rng.randint(1, 8), rng.choice((1, 2, 3, 4))),
         rand_unit(rng, order))
        for j in range(1, k + 1)
    ])


def rand_principal(rng, k, order=N, pmin=0, pmax=3, trivial=False):
    lam = (k - 1) + F(rng.randint(1, 6), rng.choice((1, 2)))
    fs = []
    for j in range(k):
        unit = SeriesB.one(order) if trivial else rand_unit(rng, order)
        fs.append((lam, unit))
        if j < k - 1:
            lam = lam + rng.randint(pmin, pmax) - 1
    return Presentation(fs)


def rand_f0_rank3(rng, order=N, trivial_s2=False, trivial=False):
    """Rank 3 with positive integer steps and split adjacent quotients."""
    lam1 = 2 + F(rng.randint(1, 6), rng.choice((1, 2)))
    p1, p2 = rng.randint(1, 3), rng.randint(1, 3)

    def unit(drop):
        if trivial:
            return SeriesB.one(order)
        s = rand_unit(rng, order)
        cs = list(s.coeffs)
        cs[drop] = F(0)
        return SeriesB(cs, order)

    s2 = SeriesB.one(order) if trivial_s2 else unit(p2)
    s3 = SeriesB.one(order) if trivial else rand_unit(rng, order)
    return Presentation([
        (lam1, unit(p1)),
        (lam1 + p1 - 1, s2),
        (lam1 + p1 + p2 - 2, s3),
    ])


def rand_generator(model, rng):
    k = model.presentation.rank
    order = model.order
    coords = []
    for j in range(k):
        cs = [F(0)] * (order + 1)
        for _ in range(rng.randint(0, 2)):
            cs[rng.randint(0, 4)] = rand_rat(rng, -3, 3, (1, 2))
        if j == k - 1:
            cs[0] = F(1)
        coords.append(SeriesB(cs, order))
    return coords


# --- exact nullspace, for the uniqueness criterion ---


def chain_nullspace(rep, lam):
    """Basis of ker(A - lam B) on the truncated space."""
    n = rep.dim
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        col = rep.apply_a({i: F(1)})
        for r, v in rep.apply_b({i: F(1)}).items():
            col[r] = col.get(r, F(0)) - lam * v
        for r, v in col.items():
            rows[r][i] = v
    piv, rr = [], 0
    for c in range(n):
        sel = next((i for i in range(rr, n) if rows[i][c]), None)
        if sel is None:
            continue
        rows[rr], rows[sel] = rows[sel], rows[rr]
        inv = 1 / rows[rr][c]
        rows[rr] = [x * inv for x in rows[rr]]
        for i in range(n):
            if i != rr and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rr])]
        piv.append(c)
        rr += 1
    basis = []
    for fc in (c for c in range(n) if c not in piv):
        v = [F(0)] * n
        v[fc] = F(1)
        for i, pc in enumerate(piv):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def projected_rank(rep, basis, cutoff):
    """Rank of the kernel after dropping b-levels above the cutoff.

    Vectors supported near the truncation edge are artifacts of working
    mod b^M; below the edge the solution space is exact.
    """
    keep = [i for i in range(rep.dim) if rep.level(i) <= cutoff]
    mat = [[v[i] for i in keep] for v in basis]
    rr = 0
    for c in range(len(keep)):
        sel = next((i for i in range(rr, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[rr], mat[sel] = mat[sel], mat[rr]
        inv = 1 / mat[rr][c]
        mat[rr] = [x * inv for x in mat[rr]]
        for i in range(len(mat)):
            if i != rr and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rr])]
        rr += 1
    return rr


# --- the criteria ---


def test_criterion_01_commutation():
    rng = random.Random(101)
    a = AbElement([SeriesB.zero(N), SeriesB.one(N)])
    b = AbElement.from_series(SeriesB.monomial(1, 1, N))
    assert a * b - b * a == b * b
    for nu in range(9):
        b_nu = AbElement.from_series(SeriesB.monomial(1, nu, N))
        shifted = AbElement([SeriesB.monomial(nu, 1, N), SeriesB.one(N)])
        assert a * b_nu == b_nu * shifted
    for _ in range(100):
        deg = rng.randint(0, 3)
        u = AbElement([
            SeriesB([rand_rat(rng, -5, 5, (1, 2, 3)) for _ in range(N + 1)], N)
            for _ in range(deg + 1)
        ])
        assert (a * u) * b == a * (u * b)


def test_criterion_02_bernstein_element():
    rng = random.Random(102)
    for i in range(100):
        if i % 2:
            p = rand_presentation(rng)
        else:
            p = rand_principal(rng, rng.randint(2, 4))
        k = p.rank
        full = expand_factor_form(p.factors, N)
        flat = expand_factor_form(bernstein(p).element.factors, k)
        assert initial_form(full, k).same_upto(flat, k)
        if not p.is_principal():
            continue
        # P_E = P_F P_G across every split of the principal chain
        pe = expand_factor_form(bernstein(p).element.factors, k)
        for split in range(1, k):
            f = sub_quotient(p, 1, split)
            g = sub_quotient(p, split + 1, k)
            pf = expand_factor_form(bernstein(f).element.factors, k)
            pg = expand_factor_form(bernstein(g).element.factors, k)
            assert (pf * pg).same_upto(pe, k)


def test_criterion_03_exchange_identities():
    rng = random.Random(103)
    for _ in range(50):
        assert check_exchange(rand_rat(rng), rand_rat(rng), order=16)
    # documented outcome: the unit exchange identity holds at every
    # sampled point
    for _ in range(12):
        lam1 = F(rng.randint(2, 9), rng.choice((1, 2)))
        p1 = rng.randint(1, 4)
        rho = rand_rat(rng, -4, 4, (1, 2, 3))
        assert check_unit_exchange(lam1, p1, rho, order=24)


def test_criterion_04_rank2_alpha_generator_invariance():
    rng = random.Random(104)
    for _ in range(50):
        p = rand_principal(rng, 2)
        base = classify_rank2(p)
        model = AdaptedModel(p, order=N)
        for _ in range(10):
            g = rand_generator(model, rng)
            q = regenerate_presentation(model, g)
            got = classify_rank2(q)
            assert (got.lam1, got.lam2, got.p) == (base.lam1, base.lam2,
                                                   base.p)
            assert got.alpha == base.alpha
            assert got.theme == base.theme


def test_criterion_05_rank3_alpha_agreement():
    rng = random.Random(105)
    for _ in range(50):
        p = rand_f0_rank3(rng)
        assert Analysis(p).alpha() == rank3_alpha_formula(p)
    # with S_2 = 1 the closed form collapses to one coefficient of S_1
    for _ in range(20):
        p = rand_f0_rank3(rng, trivial_s2=True)
        p1, p2 = (int(x) for x in p.p_values())
        assert Analysis(p).alpha() == p.units[0].coeff(p1 + p2)
    # worked instance
    p = Presentation([
        (3, SeriesB([1, 0, 1], N)), (3, SeriesB.one(N)), (3, SeriesB.one(N)),
    ])
    assert Analysis(p).alpha() == 1
    t = Analysis(p).subtheme()
    assert (t.low, t.high, t.p, t.parameter) == (3, 4, 2, 1)


def test_criterion_06_semisimplicity():
    rng = random.Random(106)
    for _ in range(15):
        p = rand_principal(rng, rng.randint(2, 4), pmin=1, trivial=True)
        assert is_semisimple(p)
    for _ in range(15):
        k = rng.randint(2, 4)
        p = rand_principal(rng, k, pmin=1, trivial=True)
        # force one step to zero
        lams = list(p.lambdas)
        j = rng.randrange(k - 1)
        drop = lams[j + 1] - lams[j] + 1
        lams = lams[: j + 1] + [l - drop for l in lams[j + 1:]]
        q = trivial_units(lams, order=8)
        assert 0 in q.p_values()
        assert not is_semisimple(q)
    for i in range(50):
        p = rand_f0_rank3(rng, trivial=(i % 3 == 0))
        assert is_semisimple(p) == (Analysis(p).alpha() == 0)


def test_criterion_07_oracle_equivalence():
    rng = random.Random(107)
    for _ in range(50):
        p = rand_presentation(rng, kmax=3)
        k = p.rank
        rep = truncate_rep(p, M)
        model = AdaptedModel(p, order=M)
        want = monicize(expand_factor_form(p.factors, M))
        ann = minimal_annihilator(rep, rep.embed(e_vector(model, k)))
        assert ann.degree == k
        assert ann.same_upto(want, M - k)
        # g is drawn on e_1..e_k; the model and the oracle take S_j G_j
        # on f_j
        g = f_coords(model, rand_generator(model, rng))
        q = regenerate_presentation(model, g)
        ordq = min(u.order for u in q.units)
        assert ordq >= M - k
        want_g = monicize(expand_factor_form(q.factors, ordq))
        ann_g = minimal_annihilator(rep, rep.embed(g))
        assert ann_g.degree == k
        assert ann_g.same_upto(want_g, M - k)


def test_criterion_08_xi_theme_modules():
    for lam in (F(1, 2), F(1, 3), F(3, 4), F(1), F(5, 2)):
        for n in range(4):
            lam0, shift = xi_exponent_split(lam - 1)
            x = XiExpansion(lam0, N, 1, {(1, shift, n): 1})
            span = xi_generate_module(x)
            k = n + 1
            assert span.rank == k
            p = model_from_xi(span)
            assert p.lambdas == tuple(lam + n - i for i in range(k))
            elem = expand_factor_form(bernstein(p).element.factors, k)
            want = expand_factor_form(
                [(lam + n - i, SeriesB.one(k)) for i in range(k)], k
            )
            assert elem.same_upto(want, k)
            filt = xi_log_filtration(span)
            assert filt["ranks"] == tuple(range(1, k + 1))
            assert filt["ranks"][0] == 1  # the first piece has rank 1
            assert filt["d"] == k


def test_criterion_09_codimension_of_b_image():
    rng = random.Random(109)
    for _ in range(20):
        p = rand_presentation(rng)
        k = p.rank
        rep = truncate_rep(p, M)
        got = submodule_analysis(
            rep, [rep.basis_vector(j, 1) for j in range(1, k + 1)]
        )
        assert got["codim"] == k
        assert twist(p, 1).mu() - p.mu() == k


def test_criterion_10_principal_line_uniqueness():
    """ker(a - lambda_1 b) is one line; the quotient exponent is not.

    Solving coefficient-wise at order 32 (all 64 unknowns at once via
    the truncated matrices), the solution space of (a - l_1 b)x = 0
    with p_1 >= 1 is the scalar line through the normalized chain
    vector S_1^-1 e_1.  For contrast, (a - (l_2+1) b)x = 0 picks up a
    second line exactly in the split classes, where the normal rank-1
    submodule with the quotient exponent is known not to be unique.
    """
    one = SeriesB.one(N)
    cases = [
        (F(3), F(4), one, one),
        (F(3), F(4), SeriesB([1, 0, 1], N), one),
        (F(3), F(3), one, SeriesB([1, 1], N)),
        (F(3), F(3), SeriesB([1, F(1, 2)], N), one),
        (F(5, 2), F(9, 2), SeriesB([1, 0, 0, F(1, 2)], N), one),
        (F(5, 2), F(9, 2), one, SeriesB([1, 2, 1], N)),
    ]
    for lam1, lam2, s1, s2 in cases:
        p = Presentation([(lam1, s1), (lam2, s2)])
        assert p.p_values()[0] >= 1
        rep = truncate_rep(p, M)
        t = rep.basis_vector(1)
        image = rep.apply_a(t)
        for i, v in rep.apply_b(t).items():
            image[i] = image.get(i, F(0)) - lam1 * v
            if not image[i]:
                del image[i]
        assert not image  # the chain vector really solves
        basis = chain_nullspace(rep, lam1)
        # rank 1 below the truncation edge, stable across two cutoffs
        assert projected_rank(rep, basis, M - 4) == 1
        assert projected_rank(rep, basis, M - 6) == 1
        quot = chain_nullspace(rep, lam2 + 1)
        expected = 1 if classify_rank2(p).theme else 2
        assert projected_rank(rep, quot, M - 4) == expected
        assert projected_rank(rep, quot, M - 6) == expected


def high_rank_literal(rng, k):
    """A principal rank-k literal in F0, with steps 1 to 3 and sparse units.

    A unit term at a sum of consecutive steps would keep a nested rank-2
    sub-quotient from splitting, so the units avoid those exponents, but
    S_1 may carry the sum of all steps, which carries alpha.
    """
    steps = [rng.randint(1, 3) for _ in range(k - 1)]
    lambdas = [k - 1 + F(rng.randint(1, 6), rng.choice((1, 2, 3)))]
    for p in steps:
        lambdas.append(lambdas[-1] + p - 1)
    sums = {sum(steps[i:j]) for i in range(k) for j in range(i + 1, k)}
    total = sum(steps)
    units = []
    for t in range(k):
        exps = {e for e in (rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
                if e not in sums}
        if t == 0 and rng.random() < 0.5:
            exps.add(total)
        coeffs = [F(rng.randint(1, 4), rng.choice((1, 2, 3)))
                  * rng.choice((1, -1)) for _ in exps]
        units.append("1" + "".join(
            " %s %s b^%d" % ("+" if c > 0 else "-", abs(c), e)
            for c, e in zip(coeffs, sorted(exps))))
    return "fresco: " + " ".join(
        "(%s | %s)" % (lam, u) for lam, u in zip(lambdas, units))


def cli_json(argv):
    out = io.StringIO()
    code = main(argv + ["--format", "json"], stdout=out)
    return code, json.loads(out.getvalue())


def _shown(rep):
    """The invariants of an analyze report, and the class of each refusal."""
    shown = {key: rep.get(key) for key in (
        "alpha", "semisimple", "theme", "subtheme", "quotient_theme",
        "bernstein_roots", "error")}
    shown["refusals"] = {key: why.split(":")[0]
                         for key, why in rep.get("diagnostics", {}).items()
                         if key.endswith("_unavailable")}
    return shown


def test_criterion_11_high_ranks_stable_in_order():
    """Ranks 6 to 10: the invariants do not move from order 60 to 120.

    Three literals at each rank; each report at order 60 shows the same
    invariants and refusal classes as at order 120, and the oracle
    agrees with the engine on every literal at depth 32.
    """
    rng = random.Random(111)
    for k in range(6, 11):
        for _ in range(3):
            text = high_rank_literal(rng, k)
            low, high = (cli_json(["analyze", "--seed", "0", "--order", str(n),
                                   text]) for n in (60, 120))
            assert low[0] == high[0]
            assert _shown(low[1]) == _shown(high[1]), text
            assert low[1]["rank"] == k
            code, rep = cli_json(["verify", "--seed", "1", "--oracle-depth",
                                  "32", text])
            assert (code, rep["counts"]) == (0, {"pass": 1, "fail": 0}), text
