"""Correctness checks for one report.

A report is compared on its mathematical fields only: each command has
a fixed list of keys, so a key added to the reports later changes
nothing here.  Error reports compare on the error class, not the
message.  Two kinds of check apply:

* ``fields_digest`` against the digest stored in the workload's pool,
  computed from the reports of the seed baseline;
* witnesses that do not go through the code path that made the field:
  exponents, steps, mu and Bernstein roots recomputed from the input
  text, ``rank3_alpha_formula`` against alpha for rank 3, rank j + 1
  for a single term s^e log^j, no failed sample for ``verify`` and
  ``identities``.
"""

import hashlib
import json
import re
from fractions import Fraction

FIELDS = {
    "analyze": ("rank", "lambdas", "p_values", "mu", "geometric",
                "primitive", "principal", "bernstein_roots", "alpha",
                "theme", "semisimple", "subtheme", "quotient_theme"),
    "xi": ("class", "depth", "rank", "presentation", "lambdas", "p_values",
           "bernstein_roots", "log_filtration", "semisimple"),
    "verify": ("samples", "oracle_depth", "counts", "disagreements"),
    "identities": ("samples", "exchange", "unit_exchange",
                   "middle_unit_exchange"),
}
# a diagnostic names an unavailable field and why; the class of the
# error is part of the answer, its wording is not
UNAVAILABLE = ("alpha_unavailable", "semisimple_unavailable",
               "theme_classes_unavailable")


def fields(command, report):
    """The mathematical content of a report, as a plain dict."""
    if "error" in report:
        return {"error": report["error"]}
    out = {key: report.get(key) for key in FIELDS[command]}
    if isinstance(out.get("unit_exchange"), dict):
        # its documented_outcome is prose, not a result
        out["unit_exchange"] = {k: out["unit_exchange"].get(k)
                                for k in ("pass", "fail")}
    diag = report.get("diagnostics", {})
    for key in UNAVAILABLE:
        if key in diag:
            out[key] = diag[key].split(":", 1)[0]
    return out


def fields_digest(command, report):
    blob = json.dumps(fields(command, report), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --- witnesses ---

_FACTOR = re.compile(r"\(\s*([-0-9/]+)\s*\|([^)]*)\)")
_TERM = re.compile(r"([-+])?\s*([0-9/]*)(b(?:\^(\d+))?)?")


def parse_fresco_text(text):
    """Exponents and unit coefficient maps of a 'fresco: ...' literal."""
    factors = []
    for lam, unit in _FACTOR.findall(text):
        coeffs = {}
        for sign, num, bpart, exp in _TERM.findall(unit.replace(" ", "")):
            if not num and not bpart:
                continue
            c = Fraction(num) if num else Fraction(1)
            e = 0 if not bpart else int(exp or 1)
            coeffs[e] = -c if sign == "-" else c
        factors.append((Fraction(lam), coeffs))
    return factors


def _analyze_witness(report, argv, engine):
    factors = parse_fresco_text(argv[-1])
    lams = [lam for lam, _ in factors]
    k = len(lams)
    want = {
        "rank": k,
        "lambdas": [str(x) for x in lams],
        "p_values": [str(lams[j + 1] - lams[j] + 1) for j in range(k - 1)],
        "mu": str(sum(lams, Fraction(0))),
        "bernstein_roots": [str(-(lam + j - k)) for j, lam in
                            enumerate(lams, 1)],
    }
    bad = [key for key, value in want.items() if report.get(key) != value]
    if k == 3 and "alpha" in report:
        order = int(argv[argv.index("--order") + 1])
        try:
            alpha = engine.rank3_alpha_formula(engine.presentation(factors, order))
        except engine.EngineError:
            alpha = None
        if str(alpha) != report["alpha"]:
            bad.append("alpha")
    return bad


_XI_TERM = re.compile(r"log\^(\d+)")


def _xi_witness(report, argv, engine):
    logs = _XI_TERM.findall(argv[-1])
    if len(logs) == 1 and report.get("rank") != int(logs[0]) + 1:
        return ["rank"]
    return []


def _verify_witness(report, argv, engine):
    return [] if report.get("counts") == {"pass": 1, "fail": 0} else ["counts"]


def _identities_witness(report, argv, engine):
    return [key for key in FIELDS["identities"][1:]
            if report.get(key, {}).get("fail") != 0
            or report[key].get("pass") != report["samples"]]


WITNESS = {
    "analyze": _analyze_witness,
    "xi": _xi_witness,
    "verify": _verify_witness,
    "identities": _identities_witness,
}


class Engine:
    """The few engine entry points a witness needs, imported late."""

    def __init__(self):
        from frescos.alpha import rank3_alpha_formula
        from frescos.errors import EngineError
        from frescos.fresco import Presentation
        from frescos.series import SeriesB
        self.EngineError = EngineError
        self.rank3_alpha_formula = rank3_alpha_formula
        self._presentation = Presentation
        self._series = SeriesB

    def presentation(self, factors, order):
        return self._presentation(
            [(lam, self._series([c.get(i, 0) for i in range(order + 1)], order))
             for lam, c in factors])


def check(argv, code, text, digest, engine):
    """Problems with one report; an empty list means it is correct."""
    if code not in (0, 2):
        return ["exit code %r" % (code,)]
    try:
        report = json.loads(text)
    except ValueError:
        return ["report is not one JSON object"]
    command = argv[0]
    problems = []
    if fields_digest(command, report) != digest:
        problems.append("fields differ from the stored report")
    if "error" not in report:
        problems += ["witness: %s" % key
                     for key in WITNESS[command](report, argv, engine)]
    return problems
