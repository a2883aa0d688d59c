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

from frescos.cli import main

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
