"""Command line front end: parse inputs, run analyses, emit reports.

Subcommands: analyze, alpha, ss, subtheme, xi, verify, identities.
Reports carry only exact rational strings for mathematical quantities
and always echo the seed, so randomized runs can be replayed.  Exit
codes: 0 ok, 1 usage, 2 domain error, 3 verification failure, 4 an
internal invariant failed.  One error boundary turns an EngineError
(exit 2) or a failed internal assertion (exit 4, error InternalError)
into a report, for identities, for verify and for each batch line,
where the report also echoes the line and the batch goes on.
"""

import argparse
import contextlib
import functools
import json
import random
import sys
from fractions import Fraction

from .algebra import (
    check_exchange,
    check_middle_unit_exchange,
    check_unit_exchange,
    monic_expansion,
)
from .alpha import Analysis, is_semisimple
from .errors import EngineError, NotMonogenicAtTruncation, SemanticError
from .fresco import (AdaptedModel, Presentation, _bernstein_invariants,
                     fundamental_invariants, regenerate_presentation)
from .series import DEFAULT_ORDER, SeriesB, rat_str

# The parser, xi and the oracle are imported where a command first
# needs them, so identities never loads them; alpha stays here, as the
# benchmark's tracer reads cli.is_semisimple right after the import.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=DEFAULT_ORDER,
                        help="series truncation order (default %(default)s)")
    common.add_argument("--oracle-depth", type=int, default=None,
                        help="oracle truncation depth (default: --order)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks (default: fresh)")
    common.add_argument("--samples", type=int, default=50,
                        help="sample count for randomized checks")
    common.add_argument("input", nargs="?", default=None,
                        help="inline input, @file, or omitted for stdin")

    top = _Parser(prog="frescos", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common],
                   help="full invariant report for either input kind")
    sub.add_parser("alpha", parents=[common],
                   help="the alpha invariant of a presentation")
    sub.add_parser("ss", parents=[common],
                   help="semi-simplicity of a presentation")
    sub.add_parser("subtheme", parents=[common],
                   help="maximal sub and quotient theme classes")
    sub.add_parser("xi", parents=[common],
                   help="generate a module from an expansion and extract it")
    sub.add_parser("verify", parents=[common],
                   help="cross-check the engine against the matrix oracle")
    sub.add_parser("identities", parents=[common],
                   help="check the exchange identities")
    return top


# --- report assembly ---


def _presentation_block(p):
    from .dsl import print_fresco
    return {
        "input": print_fresco(p),
        "rank": p.rank,
        "lambdas": [rat_str(l) for l in p.lambdas],
        "p_values": [rat_str(v) for v in p.p_values()],
        "mu": rat_str(p.mu()),
        "geometric": True,
        "primitive": p.is_primitive(),
        "principal": p.is_principal(),
    }


def _theme_block(t):
    return {
        "low": rat_str(t.low),
        "high": rat_str(t.high),
        "p": rat_str(t.p),
        "parameter": rat_str(t.parameter),
    }


def _why(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def analyze_presentation(p):
    an = Analysis(p)
    rep = _presentation_block(p)
    rep["bernstein_roots"] = [rat_str(r) for r in p.bernstein_roots()]
    diagnostics = {"unit_orders": [u.order for u in p.units]}
    if p.rank >= 2:
        try:
            alpha, theme = an.shown_alpha()
            rep["alpha"] = rat_str(alpha)
            if theme is not None:
                rep["theme"] = theme
        except EngineError as exc:
            diagnostics["alpha_unavailable"] = _why(exc)
    try:
        rep["semisimple"] = an.semisimple()
    except EngineError as exc:
        diagnostics["semisimple_unavailable"] = _why(exc)
    if p.rank >= 2:
        try:
            rep["subtheme"] = _theme_block(an.subtheme())
            # the quotient theme parameter is the beta invariant
            rep["quotient_theme"] = _theme_block(an.quotient_theme())
        except EngineError as exc:
            diagnostics["theme_classes_unavailable"] = _why(exc)
    rep["diagnostics"] = diagnostics
    return rep


def analyze_expansion(x):
    from .dsl import print_fresco, print_xi
    from .xi import model_from_xi, xi_generate_module, xi_log_filtration
    span = xi_generate_module(x)
    p = model_from_xi(span)
    filt = xi_log_filtration(span)
    rep = {
        "input": print_xi(x),
        "class": rat_str(x.lam),
        "depth": x.depth,
        "rank": span.rank,
        "presentation": print_fresco(p),
        "lambdas": [rat_str(l) for l in p.lambdas],
        "p_values": [rat_str(v) for v in p.p_values()],
        "bernstein_roots": [rat_str(r) for r in p.bernstein_roots()],
        "log_filtration": {"ranks": list(filt["ranks"]), "d": filt["d"]},
    }
    try:
        rep["semisimple"] = is_semisimple(p)
    except EngineError as exc:
        rep["diagnostics"] = {"semisimple_unavailable": _why(exc)}
    return rep


def _want_presentation(obj, command):
    if not isinstance(obj, Presentation):
        raise SemanticError("%s expects a presentation" % command)
    return obj


def run_one(command, obj):
    """Dispatch one parsed input; returns the report body."""
    if command == "analyze":
        if isinstance(obj, Presentation):
            return analyze_presentation(obj)
        return analyze_expansion(obj)
    if command in ("alpha", "ss", "subtheme"):
        from .dsl import print_fresco
        an = Analysis(_want_presentation(obj, command))
        rep = {"input": print_fresco(an.presentation)}
        if command == "alpha":
            rep["alpha"] = rat_str(an.shown_alpha()[0])
        if command == "subtheme":
            rep["subtheme"] = _theme_block(an.subtheme())
            rep["quotient_theme"] = _theme_block(an.quotient_theme())
        else:
            rep["semisimple"] = an.semisimple()
        return rep
    if command == "xi":
        if isinstance(obj, Presentation):
            raise SemanticError("xi expects an expansion literal")
        return analyze_expansion(obj)
    raise AssertionError("unhandled command %r" % command)


# --- randomized verification ---


def _random_presentation(rng, order):
    k = rng.randint(1, 3)
    factors = []
    for j in range(1, k + 1):
        lam = k - j + Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
        coeffs = [Fraction(1)] + [Fraction(0)] * (order - 1)
        for _ in range(rng.randint(0, 3)):
            coeffs[rng.randint(1, min(6, order - 1))] = Fraction(
                rng.randint(-4, 4), rng.choice((1, 2, 3))
            )
        factors.append((lam, SeriesB(coeffs, order)))
    return Presentation(factors)


def _random_generator(model, rng):
    k = model.presentation.rank
    order = model.order
    coords = []
    for j in range(k):
        cs = [Fraction(0)] * (order + 1)
        for _ in range(rng.randint(0, 2)):
            cs[rng.randint(0, 4)] = Fraction(rng.randint(-3, 3))
        if j == k - 1 and cs[0] == 0:
            cs[0] = Fraction(1)
        coords.append(SeriesB(cs, order))
    return [s * c for s, c in zip(model.sub, coords)]


def _oracle_check_one(p, M, rng):
    """Oracle comparisons on one presentation; returns fail labels.

    The oracle and the model both work on f_j = S_j^-1 e_j, so each is
    handed the same f-coordinates.  annihilator: the oracle's
    annihilator of e_k = S_k f_k is p expanded.  generator: a random
    generator g, drawn as coordinates G_j against e_1..e_k and handed
    over as S_j G_j, regenerates a presentation q, and the oracle's
    annihilator of g is q expanded.  lambdas: a primitive fresco has one
    principal Jordan-Hoelder sequence, so for a primitive p the
    Bernstein roots of that annihilator give back the l_j + j of its
    fundamental invariants, p's l_j + j sorted; q cannot show this, as
    it copies p's l_j.  They are read where the annihilator has degree
    k and knows b^k.  The depth floor M >= k + 3, where the profile
    [0, k, ..., k] of the closure of b f_1..b f_k first has a rank
    certificate, leaves three orders to compare; the certificate is
    taken on the window min(M, k + 3).  It comes first: the annihilators
    below are of vectors with a level-0 entry, so degree d <= k needs
    depth d + 2 <= k + 2, and a depth too small is named once.
    """
    from .oracle import closure_rank, minimal_annihilator, truncate_rep
    fails = []
    k = p.rank
    rep = truncate_rep(p, M)
    low = rep if M <= k + 3 else truncate_rep(p, k + 3)
    closure_rank(low, [low.basis_vector(j, 1) for j in range(1, k + 1)])
    # each expansion is built to the order it is compared at
    want = monic_expansion(p.factors, M - k)
    model = AdaptedModel(p, order=M)
    e_k = [SeriesB.zero(M)] * (k - 1) + [model.sub[k - 1]]
    ann = minimal_annihilator(rep, rep.embed(e_k))
    if not ann.same_upto(want, M - k):
        fails.append("annihilator")
    g = _random_generator(model, rng)
    try:
        q = regenerate_presentation(model, g)
        ann_g = minimal_annihilator(rep, rep.embed(g))
        # regenerated units carry reduced orders, so compare where both
        # sides are actually known
        upto = min(M - k, min(u.order for u in q.units))
        want_g = monic_expansion(q.factors, upto)
        if not ann_g.same_upto(want_g, upto):
            fails.append("generator")
        if (ann_g.degree == k and min(c.order for c in ann_g.coeffs) >= k
                and p.is_primitive()):
            principal = fundamental_invariants(p.lambdas)
            try:
                got = _bernstein_invariants(ann_g, p.lambdas[0] % 1 or 1)
            except NotMonogenicAtTruncation:
                got = None
            if got != [l + j for j, l in enumerate(principal, start=1)]:
                fails.append("lambdas")
    except EngineError as exc:
        fails.append("generator:%s" % type(exc).__name__)
    return fails


def run_verify(ns, inputs):
    from .dsl import parse_dsl, print_fresco
    rng = random.Random(ns.seed)
    M = ns.oracle_depth
    # the oracle truncates units down to M, so they must be born at least
    # that deep
    ord0 = max(ns.order, M)
    checked = []
    if inputs:
        for text in inputs:
            obj = parse_dsl(text, order=ord0)
            checked.append(_want_presentation(obj, "verify"))
    else:
        checked = [_random_presentation(rng, ord0) for _ in range(ns.samples)]
    counts = {"pass": 0, "fail": 0}
    disagreements = []
    for p in checked:
        fails = _oracle_check_one(p, M, rng)
        if fails:
            counts["fail"] += 1
            disagreements.append(
                {"input": print_fresco(p), "checks": fails}
            )
        else:
            counts["pass"] += 1
    report = {
        "samples": len(checked),
        "oracle_depth": M,
        "counts": counts,
        "disagreements": disagreements,
    }
    return report, (EXIT_MISMATCH if counts["fail"] else EXIT_OK)


def _fraction(rng, lo, hi, dens):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


# report key, check, and the arguments of one sample drawn from the rng
_IDENTITIES = (
    ("exchange", check_exchange,
     lambda rng: (_fraction(rng, -12, 12, (1, 2, 3, 4)),
                  _fraction(rng, -12, 12, (1, 2, 3, 4)))),
    ("unit_exchange", check_unit_exchange,
     lambda rng: (_fraction(rng, 2, 9, (1, 2)), rng.randint(1, 4),
                  _fraction(rng, -4, 4, (1, 2, 3)))),
    ("middle_unit_exchange", check_middle_unit_exchange,
     lambda rng: (Fraction(rng.randint(3, 9)), rng.randint(1, 3),
                  rng.randint(1, 3), _fraction(rng, -4, 4, (1, 2, 3)))),
)


def run_identities(ns):
    rng = random.Random(ns.seed)
    n = ns.samples
    report = {"samples": n}
    for key, check, draw in _IDENTITIES:
        passed = sum(1 for _ in range(n) if check(*draw(rng), order=ns.order))
        report[key] = {"pass": passed, "fail": n - passed}
    report["unit_exchange"]["documented_outcome"] = \
        "holds at every sampled point"
    ok = all(report[key]["fail"] == 0 for key, _, _ in _IDENTITIES)
    return report, (EXIT_OK if ok else EXIT_MISMATCH)


# --- rendering and wiring ---


def _render_text(d, indent=0):
    pad = "  " * indent
    lines = []
    for key, value in d.items():
        if isinstance(value, dict):
            lines.append("%s%s:" % (pad, key))
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append("%s%s:" % (pad, key))
            for item in value:
                lines.extend(_render_text(item, indent + 1))
        elif isinstance(value, list):
            lines.append("%s%s: %s" % (pad, key, ", ".join(str(v) for v in value)))
        else:
            lines.append("%s%s: %s" % (pad, key, value))
    return lines


def _emit(report, fmt, out):
    if fmt == "json":
        out.write(json.dumps(report) + "\n")
    else:
        out.write("\n".join(_render_text(report)) + "\n")


def _gather_inputs(arg, stdin, parser):
    """The inline input, else the nonblank lines of @file or stdin."""
    if arg is not None and not arg.startswith("@"):
        return [arg]
    try:
        with open(arg[1:]) if arg else contextlib.nullcontext(stdin) as fh:
            inputs = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(str(exc))
    if not inputs:
        parser.error("no input given")
    return inputs


def main(argv=None, stdin=None, stdout=None):
    """Entry point; returns the exit code instead of raising SystemExit."""
    try:
        return _main(argv, stdin, stdout)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


def _run_line(ns, text):
    from .dsl import parse_dsl
    obj = parse_dsl(text, order=ns.order)
    return run_one(ns.command, obj), EXIT_OK


def _main(argv, stdin, stdout):
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.seed is None:
        ns.seed = random.randrange(2 ** 32)
    if ns.oracle_depth is None:
        ns.oracle_depth = ns.order
    if ns.order < 4 or ns.oracle_depth < 4:
        parser.error("truncations below 4 cannot support the engine")
    if ns.samples < 0:
        parser.error("--samples cannot be negative")

    # each job is (the batch line it echoes on error or None, its work)
    if ns.command == "identities":
        jobs = [(None, lambda: run_identities(ns))]
    elif ns.command == "verify":
        inputs = _gather_inputs(ns.input, stdin, parser) if ns.input else []
        jobs = [(None, lambda: run_verify(ns, inputs))]
    else:
        jobs = [(text, functools.partial(_run_line, ns, text))
                for text in _gather_inputs(ns.input, stdin, parser)]

    head = {"command": ns.command, "seed": ns.seed}
    code = EXIT_OK
    for text, job in jobs:
        echo = {} if text is None else {"input": text}
        try:
            body, job_code = job()
        except EngineError as exc:
            body, job_code = {**echo, "error": type(exc).__name__,
                              "message": str(exc)}, EXIT_DOMAIN
        except AssertionError as exc:
            body, job_code = {**echo, "error": "InternalError",
                              "message": str(exc)}, EXIT_INTERNAL
        _emit({**head, **body}, ns.format, stdout)
        code = max(code, job_code)
    return code


if __name__ == "__main__":
    sys.exit(main())
