"""Text and JSON input formats, with printers that round-trip.

Three literal forms are understood:

  series        1 + 3b^2 - 1/2b^5
  presentation  fresco: (5/2 | 1 + 3b^2) (7/2 | 1)
  expansion     s^(3/2) * log^2 * [1 + 2s] @ v1

plus a JSON mirror of each.  Parsers report positions on bad input and
delegate object-level checks to the validating constructors.
"""

import json
from fractions import Fraction

from .errors import DslSyntaxError, MixedPrimitiveClasses, SemanticError
from .fresco import Presentation, validate_presentation
from .series import SeriesB, format_series, rat, rat_str
from .xi import XiExpansion, xi_exponent_split

DEFAULT_PARSE_ORDER = 16
DEFAULT_PARSE_DEPTH = 16

_PUNCT = "()[]|@^*+-:/"


def _tokens(text):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("int", text[i:j], line, start)
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            yield ("name", text[i:j], line, start)
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            yield (ch, ch, line, start)
            col += 1
            i += 1
            continue
        raise DslSyntaxError("unexpected character %r" % ch, line, start)
    yield ("end", "", line, col)


class _Parser:
    def __init__(self, text):
        self.toks = list(_tokens(text))
        self.pos = 0

    def peek(self, ahead=0):
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def next(self):
        tok = self.toks[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok[0] != kind:
            raise DslSyntaxError(
                "expected %s, found %r" % (what or kind, tok[1] or "end of input"),
                tok[2], tok[3],
            )
        return self.next()

    def at_end(self):
        return self.peek()[0] == "end"

    def fail(self, message):
        tok = self.peek()
        raise DslSyntaxError(message, tok[2], tok[3])


def _unsigned_rational(p):
    num = int(p.expect("int", "a number")[1])
    if p.peek()[0] == "/":
        p.next()
        den = int(p.expect("int", "a denominator")[1])
        if den == 0:
            p.fail("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _signed_rational(p):
    sign = 1
    while p.peek()[0] in "+-":
        if p.next()[0] == "-":
            sign = -sign
    return sign * _unsigned_rational(p)


def _poly_terms(p, var, stop):
    """Sum of +-c var^e terms into an exponent -> coefficient dict.

    Stops (without consuming) at any token kind in stop or at end.
    """
    out = {}
    first = True
    while True:
        sign = 1
        tok = p.peek()
        if tok[0] in "+-":
            p.next()
            if tok[0] == "-":
                sign = -1
        elif not first:
            break
        coeff = None
        if p.peek()[0] == "int":
            coeff = _unsigned_rational(p)
            if p.peek()[0] == "*":
                p.next()
        exp = 0
        tok = p.peek()
        if tok[0] == "name" and tok[1] == var:
            p.next()
            exp = 1
            if p.peek()[0] == "^":
                p.next()
                exp = int(p.expect("int", "an exponent")[1])
        elif coeff is None:
            p.fail("expected a coefficient or %r" % var)
        out[exp] = out.get(exp, Fraction(0)) + sign * (
            Fraction(1) if coeff is None else coeff
        )
        first = False
        nxt = p.peek()
        if nxt[0] == "end" or nxt[0] in stop:
            break
        if nxt[0] not in "+-":
            break
    if not out:
        p.fail("empty %s polynomial" % var)
    return out


def _series_from_terms(terms, order, where):
    top = max(terms)
    if order is None:
        order = max(top, DEFAULT_PARSE_ORDER)
    elif top > order:
        raise SemanticError(
            "%s has a b^%d term past the working order %d" % (where, top, order)
        )
    coeffs = [terms.get(i, Fraction(0)) for i in range(top + 1)]
    return SeriesB(coeffs, order)


def parse_series(text, order=None):
    """Series literal like '1 + 3b^2 - 1/2b^5' to a SeriesB."""
    p = _Parser(text)
    terms = _poly_terms(p, "b", stop="")
    if not p.at_end():
        p.fail("trailing input after the series")
    return _series_from_terms(terms, order, "series literal")


def parse_fresco(text, order=None):
    """Presentation literal to a validated Presentation.

    The leading 'fresco:' tag is optional so bare factor lists also
    parse.  All units share one working order: the given one, or the
    largest exponent present (at least DEFAULT_PARSE_ORDER).
    """
    p = _Parser(text)
    tok = p.peek()
    if tok[0] == "name" and tok[1] == "fresco":
        p.next()
        p.expect(":")
    raw = []
    while p.peek()[0] == "(":
        p.next()
        lam = _signed_rational(p)
        p.expect("|", "'|' between exponent and unit")
        terms = _poly_terms(p, "b", stop=")")
        p.expect(")")
        raw.append((lam, terms))
    if not raw:
        p.fail("expected a '(lambda | unit)' factor")
    if not p.at_end():
        p.fail("trailing input after the last factor")
    if order is None:
        top = max(max(t) for _, t in raw)
        order = max(top, DEFAULT_PARSE_ORDER)
    factors = [
        (lam, _series_from_terms(t, order, "unit %d" % (i + 1)))
        for i, (lam, t) in enumerate(raw)
    ]
    return validate_presentation(factors)


def parse_xi(text, depth=None, ncomp=None):
    """Expansion literal to an XiExpansion.

    Summands look like '2 * s^(3/2) * log^2 * [1 + 2s] @ v1'; the
    coefficient, log part, shift polynomial and component are each
    optional.  Exponents must all lie in one class mod 1.
    """
    if depth is None:
        depth = DEFAULT_PARSE_DEPTH
    p = _Parser(text)
    tok = p.peek()
    if tok[0] == "name" and tok[1] == "xi":
        p.next()
        p.expect(":")
    lam = None
    terms = {}
    top_comp = 1
    first = True
    while True:
        sign = 1
        tok = p.peek()
        if tok[0] in "+-":
            p.next()
            if tok[0] == "-":
                sign = -1
        elif not first:
            break
        first = False
        coeff = Fraction(sign)
        if p.peek()[0] == "int":
            coeff *= _unsigned_rational(p)
            p.expect("*", "'*' after the coefficient")
        tok = p.peek()
        if not (tok[0] == "name" and tok[1] == "s"):
            p.fail("expected an s power")
        p.next()
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
        poly = {0: Fraction(1)}
        while p.peek()[0] == "*":
            p.next()
            tok = p.peek()
            if tok[0] == "name" and tok[1] == "log":
                p.next()
                logpow = 1
                if p.peek()[0] == "^":
                    p.next()
                    logpow = int(p.expect("int", "a log power")[1])
            elif tok[0] == "[":
                p.next()
                poly = _poly_terms(p, "s", stop="]")
                p.expect("]")
            else:
                p.fail("expected 'log' or a '[...]' shift polynomial")
        comp = 1
        if p.peek()[0] == "@":
            p.next()
            tok = p.expect("name", "a component like v1")
            if tok[1] != "v":
                raise DslSyntaxError(
                    "components are written v1, v2, ...", tok[2], tok[3]
                )
            comp = int(p.expect("int", "a component index")[1])
            if comp < 1:
                p.fail("component indices start at 1")
        top_comp = max(top_comp, comp)
        for t, c in poly.items():
            m = m0 + t
            if m >= depth:
                raise SemanticError(
                    "shift %d is past the truncation depth %d" % (m, depth)
                )
            key = (comp, m, logpow)
            terms[key] = terms.get(key, Fraction(0)) + coeff * c
    if not p.at_end():
        p.fail("trailing input after the expansion")
    if lam is None:
        p.fail("expected at least one summand")
    return XiExpansion(lam, depth, ncomp or top_comp, terms)


def parse_dsl(text, order=None, depth=None):
    """One input, either grammar: returns a Presentation or an XiExpansion.

    Lines starting with '{' are treated as the JSON mirror; otherwise
    the leading token decides ('fresco' against an expansion literal).
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise DslSyntaxError("bad JSON: %s" % exc)
        return from_json(payload)
    tok = _Parser(text).peek()
    if tok[0] == "name" and tok[1] == "fresco":
        return parse_fresco(text, order=order)
    return parse_xi(text, depth=depth)


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
    for (comp, m, j) in sorted(x.terms):
        c = x.terms[(comp, m, j)]
        body = _xi_body(x, comp, m, j)
        mag = abs(c)
        if mag != 1:
            body = "%s * %s" % (rat_str(mag), body)
        if not parts:
            parts.append(body if c > 0 else "- " + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# --- JSON mirror ---


def series_to_json(s):
    return {"order": s.order, "coeffs": [rat_str(c) for c in s.coeffs]}


def series_from_json(d):
    if not isinstance(d, dict) or "coeffs" not in d:
        raise SemanticError("series payload needs a 'coeffs' list")
    try:
        return SeriesB([rat(c) for c in d["coeffs"]], d.get("order"))
    except (TypeError, ValueError) as exc:
        raise SemanticError("bad series payload: %s" % exc)


def fresco_to_json(p):
    return {
        "factors": [
            {"lambda": rat_str(lam), "unit": series_to_json(unit)}
            for lam, unit in p.factors
        ]
    }


def fresco_from_json(d):
    if not isinstance(d, dict) or not isinstance(d.get("factors"), list):
        raise SemanticError("presentation payload needs a 'factors' list")
    factors = []
    for f in d["factors"]:
        if not isinstance(f, dict) or "lambda" not in f or "unit" not in f:
            raise SemanticError("each factor needs 'lambda' and 'unit'")
        try:
            lam = rat(f["lambda"])
        except (TypeError, ValueError) as exc:
            raise SemanticError("bad exponent: %s" % exc)
        factors.append((lam, series_from_json(f["unit"])))
    return validate_presentation(factors)


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


def xi_from_json(d):
    if not isinstance(d, dict) or "lambda" not in d or \
            not isinstance(d.get("terms"), (list, tuple)):
        raise SemanticError("expansion payload needs 'lambda' and 'terms'")
    try:
        lam = rat(d["lambda"])
    except (TypeError, ValueError) as exc:
        raise SemanticError("bad class representative: %s" % exc)
    depth = _json_int(d.get("depth", DEFAULT_PARSE_DEPTH), "depth")
    if depth < 4:
        raise SemanticError("truncation depth must be at least 4")
    terms = {}
    top_comp = 1
    for quad in d["terms"]:
        if not isinstance(quad, (list, tuple)) or len(quad) != 4:
            raise SemanticError("terms are [component, shift, logpow, coeff]")
        comp, m, j = (_json_int(v, what) for v, what in
                      zip(quad, ("component", "shift", "log power")))
        try:
            c = rat(quad[3])
        except (TypeError, ValueError) as exc:
            raise SemanticError("bad coefficient: %s" % exc)
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


def from_json(payload):
    """Inverse of to_json, deciding the kind by the keys present."""
    if isinstance(payload, dict) and "factors" in payload:
        return fresco_from_json(payload)
    if isinstance(payload, dict) and "terms" in payload:
        return xi_from_json(payload)
    raise SemanticError("payload is neither a presentation nor an expansion")
