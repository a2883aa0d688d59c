"""Golden corpus: every report of the command line, byte for byte.

tests/golden/cases.json lists each case's argv, optional stdin and
expected exit code; tests/golden/<name>.out holds its expected stdout.
Every argv passes an explicit --seed, so the reports are reproducible.
A refactor must reproduce the corpus exactly.  After a deliberate
change of output, regenerate it with

    PYTHONPATH=src python3 tests/test_golden.py --regen
"""

import io
import json
import os
import sys

import pytest

from frescos.cli import EXIT_USAGE, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _cases():
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        return json.load(fh)


def _run(case):
    out = io.StringIO()
    code = main(case["argv"], stdin=io.StringIO(case.get("stdin", "")),
                stdout=out)
    return code, out.getvalue()


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c["name"])
def test_golden_report(case):
    code, text = _run(case)
    with open(os.path.join(GOLDEN, case["name"] + ".out"), newline="") as fh:
        want = fh.read()
    assert text == want
    assert code == case["exit"]


def _presentation_argvs():
    """Each golden presentation query past argument parsing, once."""
    seen = {}
    for case in _cases():
        argv = [a for a in case["argv"] if a not in ("--format", "json")]
        if argv[0] in ("analyze", "alpha", "ss", "subtheme") and \
                argv[-1].startswith("fresco") and case["exit"] != EXIT_USAGE:
            seen.setdefault(json.dumps(argv), argv)
    return list(seen.values())


def _json_report(argv, order):
    if "--order" in argv:
        at = argv.index("--order")
        argv = argv[:at] + argv[at + 2:]
    out = io.StringIO()
    code = main(argv + ["--order", str(order), "--format", "json"],
                stdout=out)
    report = json.loads(out.getvalue())
    report.get("diagnostics", {}).pop("unit_orders", None)
    return code, report


@pytest.mark.parametrize("argv", _presentation_argvs(), ids=" ".join)
def test_presentation_reports_do_not_move_with_order(argv):
    order = int(argv[argv.index("--order") + 1]) if "--order" in argv else 32
    assert _json_report(argv, order + 16) == _json_report(argv, order)


def _regenerate():
    cases = _cases()
    for case in cases:
        case["exit"], text = _run(case)
        with open(os.path.join(GOLDEN, case["name"] + ".out"), "w",
                  newline="") as fh:
            fh.write(text)
    with open(os.path.join(GOLDEN, "cases.json"), "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_golden.py --regen")
    _regenerate()
