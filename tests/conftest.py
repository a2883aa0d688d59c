"""A time limit per test: a test still running after LIMIT seconds dumps
the traceback of every thread and ends the run, so a defect that loops
fails with its stack instead of running into the CI job's timeout.

LIMIT sits far above the slowest test; the fixture changes no outcome
of a test that ends in time.
"""

import faulthandler
import os
import sys

import pytest

LIMIT = 120
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures stderr while a test runs, and a timed exit leaves
    # it no time to show what it caught: the dump goes to a copy of
    # stderr taken here, outside any test's capture
    config.stash[STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def time_limit(request):
    faulthandler.dump_traceback_later(LIMIT, exit=True,
                                      file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
