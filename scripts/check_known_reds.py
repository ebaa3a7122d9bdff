"""Run the test suite and pass only if exactly the known-red tests fail.

    PYTHONPATH=src python scripts/check_known_reds.py [extra pytest arguments]

The three compact-form scaling checks in ``tests/test_acceptance.py`` are red
on purpose (README, "Known red acceptance checks").  They run like every
other test: nothing is deselected, skipped or marked xfail.  This script runs
the whole suite in-process, records every test or collector that fails in any
phase, and exits 0 only when that set is exactly ``KNOWN_REDS``, each known
red failed on its own assertion (an ``AssertionError`` raised in its call
phase, not an error on the way to it), and at least one other test passed.
A known red that starts passing fails the gate too, so the README and this
list have to change with it.
"""

import sys

import pytest

KNOWN_REDS = frozenset(
    f"tests/test_acceptance.py::TestCriterion1OracleEquivalence::{name}"
    for name in ("test_f_scaling", "test_d2_scaling", "test_d3_scaling")
)

PYTEST_ARGS = ["-q", "--continue-on-collection-errors"]


class Outcomes:
    """pytest plugin: node IDs that failed (setup, call, teardown or
    collection), the type of the exception each test raised in its call
    phase, and the number of tests that passed."""

    def __init__(self):
        self.failed = set()
        self.raised = {}
        self.passed = 0

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_makereport(self, item, call):
        if call.when == "call" and call.excinfo is not None:
            self.raised[item.nodeid] = call.excinfo.type
        yield

    def pytest_collectreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)
        elif report.passed and report.when == "call":
            self.passed += 1


def main(argv) -> int:
    outcomes = Outcomes()
    code = pytest.main(PYTEST_ARGS + argv, plugins=[outcomes])
    unexpected = sorted(outcomes.failed - KNOWN_REDS)
    fixed = sorted(KNOWN_REDS - outcomes.failed)
    rerouted = sorted(nodeid for nodeid in KNOWN_REDS & outcomes.failed
                      if outcomes.raised.get(nodeid) is not AssertionError)
    for nodeid in unexpected:
        print(f"known-reds gate: unexpected failure {nodeid}")
    for nodeid in fixed:
        print(f"known-reds gate: known red did not fail {nodeid}")
    for nodeid in rerouted:
        raised = getattr(outcomes.raised.get(nodeid), "__name__", "no exception in its call phase")
        print(f"known-reds gate: known red failed with {raised}, not on its assertion {nodeid}")
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) or not outcomes.passed:
        print(f"known-reds gate: pytest exited {int(code)} with {outcomes.passed} passed")
        return 1
    if unexpected or fixed or rerouted:
        return 1
    print(f"known-reds gate: ok, {len(KNOWN_REDS)} known reds failed, {outcomes.passed} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
