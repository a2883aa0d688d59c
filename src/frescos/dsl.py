"""Text and JSON input formats, with printers that round-trip.

Three literal forms are understood:

  series        1 + 3b^2 - 1/2b^5
  presentation  fresco: (5/2 | 1 + 3b^2) (7/2 | 1)
  expansion     s^(3/2) * log^2 * [1 + 2s] @ v1

plus a JSON mirror of each.  A literal is tokenized once, in one pass
(a number is a run of decimal digits, a coefficient an integer pair),
and its grammar reads that token list; one signed-sum loop serves every
sum.  Syntax errors name a line and column, from the token at fault.
Object-level checks live in the constructors: Presentation checks its
factors, XiExpansion its components, shifts and truncation window.
"""

import json
from fractions import Fraction
from math import lcm

from .errors import DslSyntaxError, MixedPrimitiveClasses, SemanticError
from .fresco import Presentation
from .series import DEFAULT_ORDER, SeriesB, format_series, rat, rat_str
from .xi import XiExpansion, xi_exponent_split

_PUNCT = "()[]|@^*+-:/"


def _where(text, offset):
    """(line, column) of a character offset, both counted from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokens(text):
    """The (kind, text, offset) tokens of a literal, closed by an 'end'.

    A number is a run of decimal digits, a name a run of letters, and
    each punctuation mark is a token of its own kind.
    """
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], i))
        elif ch.isalpha():
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("name", text[i:j], i))
        elif ch in _PUNCT:
            toks.append((ch, ch, i))
        elif not ch.isspace():
            raise DslSyntaxError("unexpected character %r" % ch,
                                 *_where(text, i))
        i = j
    toks.append(("end", "", n))
    return toks


class _Parser:
    """A cursor over the tokens of one literal."""

    def __init__(self, text):
        self.text = text
        self.toks = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        self.pos += 1
        return self.toks[self.pos - 1]

    def accept(self, text):
        """Consume the next token if it reads text; say whether it did."""
        hit = self.toks[self.pos][1] == text
        self.pos += hit
        return hit

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok[0] != kind:
            self.fail("expected %s, found %r"
                      % (what or kind, tok[1] or "end of input"))
        return self.next()

    def fail(self, message, tok=None):
        """Raise DslSyntaxError at tok, by default the next token."""
        offset = (tok or self.peek())[2]
        raise DslSyntaxError(message, *_where(self.text, offset))


def _unsigned_rational(p, sign):
    num = sign * int(p.expect("int", "a number")[1])
    if not p.accept("/"):
        return num, 1
    tok = p.expect("int", "a denominator")
    if not int(tok[1]):
        p.fail("zero denominator", tok)
    return num, int(tok[1])


def _signed_rational(p):
    sign = 1
    while p.peek()[0] in "+-":
        if p.next()[0] == "-":
            sign = -sign
    return Fraction(*_unsigned_rational(p, sign))


def _signs(p):
    """The sign of each summand of a sum, consumed before it is yielded:
    the first summand may omit it, every later one needs + or -, and any
    other token ends the sum."""
    if p.peek()[0] not in "+-":
        yield 1
    while p.peek()[0] in "+-":
        yield -1 if p.next()[0] == "-" else 1


def _literal(p, tag, grammar, what):
    """grammar(p) after an optional 'tag:', refusing trailing input."""
    if p.accept(tag):
        p.expect(":")
    out = grammar(p)
    if p.peek()[0] != "end":
        p.fail("trailing input after %s" % what)
    return out


def _poly_terms(p, var):
    """Sum of +-c var^e summands into an exponent -> (num, den) dict."""
    out = {}
    for sign in _signs(p):
        num, den = sign, 1
        bare = p.peek()[0] != "int"
        if not bare:
            num, den = _unsigned_rational(p, sign)
            p.accept("*")
        exp = 0
        if p.accept(var):
            exp = int(p.expect("int", "an exponent")[1]) if p.accept("^") \
                else 1
        elif bare:
            p.fail("expected a coefficient or %r" % var)
        n0, d0 = out.get(exp, (0, 1))
        out[exp] = n0 * den + num * d0, d0 * den
    return out


def _series_from_terms(terms, order, where):
    top = max(terms)
    if order is None:
        order = max(top, DEFAULT_ORDER)
    elif top > order:
        raise SemanticError(
            "%s has a b^%d term past the working order %d" % (where, top, order)
        )
    den = lcm(*[d for _, d in terms.values()])
    pairs = [terms.get(e, (0, 1)) for e in range(order + 1)]
    return SeriesB._lowest([n * (den // d) for n, d in pairs], den, order)


def parse_series(text, order=None):
    """Series literal like '1 + 3b^2 - 1/2b^5' to a SeriesB."""
    terms = _literal(_Parser(text), None, lambda p: _poly_terms(p, "b"),
                     "the series")
    return _series_from_terms(terms, order, "series literal")


def _factors(p):
    raw = []
    while p.accept("("):
        lam = _signed_rational(p)
        p.expect("|", "'|' between exponent and unit")
        raw.append((lam, _poly_terms(p, "b")))
        p.expect(")")
    if not raw:
        p.fail("expected a '(lambda | unit)' factor")
    return raw


def _fresco(p, order):
    raw = _literal(p, "fresco", _factors, "the last factor")
    if order is None:
        order = max(DEFAULT_ORDER, *(max(t) for _, t in raw))
    return Presentation([
        (lam, _series_from_terms(t, order, "unit %d" % (i + 1)))
        for i, (lam, t) in enumerate(raw)
    ])


def parse_fresco(text, order=None):
    """Presentation literal to a Presentation, checked when it is built.

    The leading 'fresco:' tag is optional so bare factor lists also
    parse.  All units share one working order: the given one, or the
    largest exponent present (at least DEFAULT_ORDER).
    """
    return _fresco(_Parser(text), order)


def _summands(p):
    """(lam, terms, top component) of the summands of an expansion."""
    lam = None
    terms = {}
    top_comp = 1
    for sign in _signs(p):
        num, den = sign, 1
        if p.peek()[0] == "int":
            num, den = _unsigned_rational(p, sign)
            p.expect("*", "'*' after the coefficient")
        if not p.accept("s"):
            p.fail("expected an s power")
        p.expect("^")
        p.expect("(")
        e = _signed_rational(p)
        p.expect(")")
        lam_here, m0 = xi_exponent_split(e)
        if lam is None:
            lam = lam_here
        elif lam != lam_here:
            raise MixedPrimitiveClasses(
                "exponent %s leaves the class of %s" % (e, lam)
            )
        logpow = 0
        poly = {0: (1, 1)}
        while p.accept("*"):
            if p.accept("log"):
                logpow = int(p.expect("int", "a log power")[1]) \
                    if p.accept("^") else 1
            elif p.accept("["):
                poly = _poly_terms(p, "s")
                p.expect("]")
            else:
                p.fail("expected 'log' or a '[...]' shift polynomial")
        comp = 1
        if p.accept("@"):
            tok = p.expect("name", "a component like v1")
            if tok[1] != "v":
                p.fail("components are written v1, v2, ...", tok)
            tok = p.expect("int", "a component index")
            comp = int(tok[1])
            if comp < 1:
                p.fail("component indices start at 1", tok)
        top_comp = max(top_comp, comp)
        for t, (n, d) in poly.items():
            key = (comp, m0 + t, logpow)
            terms[key] = terms.get(key, 0) + Fraction(num * n, den * d)
    return lam, terms, top_comp


def _xi(p, depth):
    lam, terms, top_comp = _literal(p, "xi", _summands, "the expansion")
    return XiExpansion(lam, depth, top_comp, terms)


def parse_xi(text, depth=DEFAULT_ORDER):
    """Expansion literal to an XiExpansion, checked when it is built.

    Summands look like '2 * s^(3/2) * log^2 * [1 + 2s] @ v1'; the
    coefficient, log part, shift polynomial and component are each
    optional.  Exponents must all lie in one class mod 1.  The component
    count is the highest component named, v1 if none is.
    """
    return _xi(_Parser(text), depth)


def parse_dsl(text, order=None):
    """One input, either grammar: returns a Presentation or an XiExpansion.

    Lines starting with '{' are treated as the JSON mirror; otherwise
    the line is tokenized once and its leading token decides ('fresco'
    against an expansion literal).  order truncates a literal, a
    depthless expansion payload or an orderless unit payload; without it
    a payload takes DEFAULT_ORDER.
    """
    depth = DEFAULT_ORDER if order is None else order
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise DslSyntaxError("bad JSON: %s" % exc)
        return from_json(payload, depth=depth)
    p = _Parser(text)
    return _fresco(p, order) if p.peek()[1] == "fresco" else _xi(p, depth)


# --- printers ---


def print_fresco(p):
    """Presentation back to its literal; parses to an equal object."""
    return "fresco: " + " ".join(
        "(%s | %s)" % (rat_str(lam), format_series(unit))
        for lam, unit in p.factors
    )


def _xi_body(x, comp, m, j):
    e = x.lam + m - 1
    body = "s^(%s)" % rat_str(e)
    if j == 1:
        body += " * log"
    elif j > 1:
        body += " * log^%d" % j
    if x.ncomp > 1:
        body += " @ v%d" % comp
    return body


def print_xi(x):
    """Expansion back to its literal, one summand per stored term."""
    if not x.terms:
        return "0 * s^(%s)" % rat_str(x.lam - 1)
    parts = []
    for (comp, m, j), c in sorted(x.terms.items()):
        body = _xi_body(x, comp, m, j)
        mag = abs(c)
        if mag != 1:
            body = "%s * %s" % (rat_str(mag), body)
        parts.append(("- " if c < 0 else "+ " if parts else "") + body)
    return " ".join(parts)


# --- JSON mirror ---


def series_to_json(s):
    return {"order": s.order, "coeffs": [rat_str(c) for c in s.coeffs]}


def series_from_json(d, order=None, where="series payload"):
    if not isinstance(d, dict) or \
            not isinstance(d.get("coeffs"), (list, tuple)):
        raise SemanticError("series payload needs a 'coeffs' list")
    bound = "its stated order" if "order" in d else "the working order"
    order = d.get("order", order)
    try:
        cs = [rat(c) for c in d["coeffs"]]
        if order is not None and 0 <= _json_int(order, "order") < len(cs) - 1:
            raise SemanticError("%s has a b^%d term past %s %d"
                                % (where, len(cs) - 1, bound, order))
        return SeriesB(cs, order)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SemanticError("bad series payload: %s" % exc)


def fresco_to_json(p):
    return {
        "factors": [
            {"lambda": rat_str(lam), "unit": series_to_json(unit)}
            for lam, unit in p.factors
        ]
    }


def fresco_from_json(d, order=None):
    if not isinstance(d, dict) or not isinstance(d.get("factors"), list):
        raise SemanticError("presentation payload needs a 'factors' list")
    factors = []
    for i, f in enumerate(d["factors"], 1):
        if not isinstance(f, dict) or "lambda" not in f or "unit" not in f:
            raise SemanticError("each factor needs 'lambda' and 'unit'")
        factors.append((_json_rat(f["lambda"], "exponent"),
                        series_from_json(f["unit"], order, "unit %d" % i)))
    return Presentation(factors)


def xi_to_json(x):
    return {
        "lambda": rat_str(x.lam),
        "depth": x.depth,
        "ncomp": x.ncomp,
        "terms": [
            [comp, m, j, rat_str(x.terms[(comp, m, j)])]
            for (comp, m, j) in sorted(x.terms)
        ],
    }


def _json_int(value, what):
    # bool is an int subclass, but true and false count nothing
    if type(value) is not int:
        raise SemanticError("%s must be an integer, got %r" % (what, value))
    return value


def _json_rat(value, what):
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SemanticError("bad %s: %s" % (what, exc))


def xi_from_json(d, depth=DEFAULT_ORDER):
    if not isinstance(d, dict) or "lambda" not in d or \
            not isinstance(d.get("terms"), (list, tuple)):
        raise SemanticError("expansion payload needs 'lambda' and 'terms'")
    lam = _json_rat(d["lambda"], "class representative")
    depth = _json_int(d.get("depth", depth), "depth")
    if depth < 4:
        raise SemanticError("truncation depth must be at least 4")
    terms = {}
    top_comp = 1
    for quad in d["terms"]:
        if not isinstance(quad, (list, tuple)) or len(quad) != 4:
            raise SemanticError("terms are [component, shift, logpow, coeff]")
        comp, m, j = (_json_int(v, what) for v, what in
                      zip(quad, ("component", "shift", "log power")))
        c = _json_rat(quad[3], "coefficient")
        terms[(comp, m, j)] = terms.get((comp, m, j), Fraction(0)) + c
        top_comp = max(top_comp, comp)
    ncomp = _json_int(d.get("ncomp", top_comp), "ncomp")
    return XiExpansion(lam, depth, ncomp, terms)


def to_json(obj):
    """JSON mirror of either input kind."""
    if isinstance(obj, Presentation):
        return fresco_to_json(obj)
    if isinstance(obj, XiExpansion):
        return xi_to_json(obj)
    raise TypeError("no JSON form for %r" % type(obj).__name__)


def from_json(payload, depth=DEFAULT_ORDER):
    """Inverse of to_json, deciding the kind by the keys present.

    depth is the truncation of an expansion, and the order of a unit,
    whose payload gives none.
    """
    if isinstance(payload, dict) and "factors" in payload:
        return fresco_from_json(payload, depth)
    if isinstance(payload, dict) and "terms" in payload:
        return xi_from_json(payload, depth)
    raise SemanticError("payload is neither a presentation nor an expansion")
