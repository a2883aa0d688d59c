"""The benchmark pools, replayed: a change that moves a report fails here.

Every distinct argv of perfbench/pool/xi-logs.jsonl,
perfbench/pool/verify-oracle.jsonl, perfbench/pool/analyze-mix.jsonl
and perfbench/pool/identities-deep.jsonl goes through cli.main, and the
digest of its report's mathematical fields (fields_digest in
perfbench/check.py) must equal the digest stored in the pool.  The
first two are the workloads that run the linalg kernel; every verify
report runs the oracle's annihilator solve, all on one route; every
analyze and every xi report runs an Analysis; every identities report
checks the exchange relations at order 128, dividing by units.  The
test only reads perfbench/.
"""

import importlib.util
import io
import json
import os

import pytest

from frescos.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def _load_check():
    spec = importlib.util.spec_from_file_location(
        "perfbench_check", os.path.join(PERFBENCH, "check.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK = _load_check()


def _distinct(workload):
    """Every distinct argv of a pool, with its stored digest."""
    seen = {}
    with open(os.path.join(PERFBENCH, "pool", workload + ".jsonl")) as fh:
        for line in fh:
            item = json.loads(line)
            seen.setdefault(json.dumps(item["argv"]), item)
    return [pytest.param(item, id="%s-%d" % (workload, i))
            for i, item in enumerate(seen.values())]


@pytest.mark.parametrize(
    "item", _distinct("xi-logs") + _distinct("verify-oracle")
    + _distinct("analyze-mix") + _distinct("identities-deep"))
def test_pool_report_keeps_its_stored_digest(item):
    argv = item["argv"]
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(), stdout=out)
    assert code in (0, 2)
    digest = CHECK.fields_digest(argv[0], json.loads(out.getvalue()))
    assert digest == item["digest"]
