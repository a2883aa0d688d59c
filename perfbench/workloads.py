"""Seeded inputs for the four benchmark workloads.

A generator maps a ``random.Random`` and an index to the argv of one
``frescos`` call.  Every randomized subcommand gets an explicit
``--seed``, and ``analyze``/``xi`` get ``--seed 0``, so a report never
depends on a fresh draw and the traced and untraced runs can be
compared byte for byte.

The benchmark does not call the generators while it measures.
``build_pool.py`` draws a pool of inputs per workload from
``POOL_SEED`` and stores each with its cost and the digest of its
report.  A run then draws its inputs from the pool with its own seed
(see ``schedule``), which keeps the stored expectations valid for
every run seed.
"""

import random
from fractions import Fraction

POOL_SEED = 20120113


def _rat(rng, lo, hi, dens=(1, 2, 3)):
    x = Fraction(0)
    while x == 0:
        x = Fraction(rng.randint(lo, hi), rng.choice(dens))
    return x


def _unit(rng, avoid=(), force=None, most=3):
    """Sparse unit 1 + ... with 0 to `most` terms at exponents 1..6."""
    terms = {}
    for _ in range(rng.randint(0, most)):
        e = rng.randint(1, 6)
        if e not in avoid:
            terms[e] = _rat(rng, -4, 4)
    if force is not None:
        terms[force] = _rat(rng, -4, 4)
    out = "1"
    for e in sorted(terms):
        c = terms[e]
        head = "" if abs(c) == 1 else str(abs(c))
        out += " %s %sb%s" % ("+" if c > 0 else "-", head,
                               "" if e == 1 else "^%d" % e)
    return out


def _fresco(lambdas, units):
    return "fresco: " + " ".join(
        "(%s | %s)" % (l, u) for l, u in zip(lambdas, units))


def analyze_mix(rng, i):
    """Principal rank 2-5; three in four avoid every resonant exponent.

    A unit term at b^(p_i + ... + p_j) is what makes a nested rank-2
    sub-quotient fail to split, so these inputs keep those exponents
    clear, except b^(p_1 + ... + p_(k-1)) in S_1, which carries alpha.
    The fourth forces a term at b^(p_j) into one S_j and takes the
    NotInF0 path (for rank 2 it makes a theme).
    """
    k = 2 + i % 4
    in_f0 = (i // 4) % 4 != 3
    steps = [rng.randint(1, 3) for _ in range(k - 1)]
    lam = [k - 1 + _rat(rng, 1, 6)]
    for p in steps:
        lam.append(lam[-1] + p - 1)
    sums = {sum(steps[a:b]) for a in range(k) for b in range(a + 1, k)}
    if in_f0:
        total = sum(steps)
        units = [_unit(rng, sums - {total},
                       total if rng.random() < 0.5 else None)]
        units += [_unit(rng, sums) for _ in range(k - 1)]
    else:
        j = rng.randrange(k - 1)
        units = [_unit(rng, sums, steps[j] if t == j else None)
                 for t in range(k)]
    return ["analyze", "--format", "json", "--order", "20", "--seed", "0",
            _fresco(lam, units)]


def verify_oracle(rng, i):
    """Geometric rank 1-4, exponents drawn like ``verify``'s own samples.

    Each unit has at most one term: with up to three, as ``verify``
    draws them, a rank-4 check takes up to 6 s, a 25 s run holds about
    30 reports and its tail percentile is not steady.
    """
    k = 1 + i % 4
    lam = [k - j + _rat(rng, 1, 6) for j in range(1, k + 1)]
    units = [_unit(rng, most=1) for _ in range(k)]
    return ["verify", "--format", "json", "--oracle-depth", "32",
            "--seed", str(rng.randrange(2 ** 31)), _fresco(lam, units)]


def xi_logs(rng, i):
    """1-3 terms s^e log^j in one class, e > -1, top log power 1-4.

    The term count and the top log power cycle with i, which fixes the
    rank mix; the other terms sit at distinct (shift, log power) spots
    up to that top.  No exponent reaches -1, so no input stops early
    on a SemanticError.
    """
    nterms = 1 + i % 3
    top = 1 + (i // 3) % 4
    cls = Fraction(rng.randint(-5, 0), 6)
    spots = {(rng.randint(0, 2), top)}
    while len(spots) < nterms:
        spots.add((rng.randint(0, 2), rng.randint(1, top)))
    text = ""
    for m, j in sorted(spots):
        c = _rat(rng, -3, 3)
        mag = "" if abs(c) == 1 else "%s * " % abs(c)
        body = "%ss^(%s) * log^%d" % (mag, cls + m, j)
        if not text:
            text = body if c > 0 else "-" + body
        else:
            text += (" + " if c > 0 else " - ") + body
    return ["xi", "--format", "json", "--order", "26", "--seed", "0", text]


def identities_deep(rng, i):
    return ["identities", "--format", "json", "--samples", "1",
            "--order", "128", "--seed", str(rng.randrange(2 ** 31))]


class Workload:
    def __init__(self, name, generate, pool_size, why):
        self.name = name
        self.generate = generate
        self.pool_size = pool_size
        self.why = why


WORKLOADS = {w.name: w for w in (
    Workload("analyze-mix", analyze_mix, 2400,
             "analyze at order 20 on principal rank 2-5, 3/4 in F0: the "
             "alpha, fresco and series layers at low order, no oracle, xi "
             "or algebra"),
    Workload("verify-oracle", verify_oracle, 480,
             "verify at oracle depth 32, one rank 1-4 presentation per "
             "call: the only load on the oracle"),
    Workload("xi-logs", xi_logs, 320,
             "xi at depth 26 on 1-3 terms with log^1..log^4: the only load "
             "on xi and the heaviest on left_divide and normal_form_mul"),
    Workload("identities-deep", identities_deep, 480,
             "identities at order 128, one sample per call: series and "
             "algebra at high order on dense operands"),
)}


def generate(workload, seed, n):
    """The first n inputs a seed gives; equal seeds give equal lists."""
    rng = random.Random(seed)
    return [workload.generate(rng, i) for i in range(n)]


# Items of similar cost that one slot of a round chooses between.
STRATUM = 4


def schedule(pool, seed):
    """Endless input order for one run: stratified by cost, seeded.

    The pool, sorted by stored cost, splits into strata of STRATUM
    items.  Each round visits every stratum once and takes the
    stratum's next item in a seed-shuffled order.  The strata follow a
    fixed golden-ratio order, so any prefix of a round is spread evenly
    from the cheapest stratum to the dearest.  Every run thus samples
    the same cost profile wherever the time cuts it, which keeps the
    spread between seeds small; the seed still chooses which inputs,
    and in which order, within each stratum.
    """
    rng = random.Random(seed)
    ranked = sorted(pool, key=lambda item: item["ms"])
    strata = [ranked[i:i + STRATUM] for i in range(0, len(ranked), STRATUM)]
    for s in strata:
        rng.shuffle(s)
    spread = [(k * 0.6180339887498949) % 1.0 for k in range(len(strata))]
    rank = sorted(range(len(strata)), key=spread.__getitem__)
    order = [0] * len(strata)
    for r, k in enumerate(rank):
        order[k] = r
    r = 0
    while True:
        for s in order:
            yield strata[s][r % len(strata[s])]
        r += 1
