"""scripts/check_known_reds.py passes only when each known red fails on its own assertion."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_known_reds.py"

#: A stand-in for the three known reds: test_d2_scaling's body is filled in per
#: case, the other two fail on their assertion.
SUITE = '''
import pytest

@pytest.fixture
def table():
    {fixture}

class TestCriterion1OracleEquivalence:
    def test_f_scaling(self):
        assert 0.996 >= 1.8

    def test_d2_scaling(self, table):
        {body}

    def test_d3_scaling(self):
        assert 0.984 >= 1.8

def test_other():
    pass
'''


@pytest.mark.parametrize("fixture, body, code, line", [
    ("return 0.989", "assert table >= 1.8", 0, "known-reds gate: ok, 3 known reds failed, 1 passed"),
    ("return 0.989", "raise ValueError('truncated')", 1,
     "known-reds gate: known red failed with ValueError, not on its assertion "),
    ("raise ValueError('truncated')", "assert table >= 1.8", 1,
     "known-reds gate: known red failed with no exception in its call phase, not on its assertion "),
    ("return 0.989", "assert table < 1.8", 1, "known-reds gate: known red did not fail "),
], ids=["assertion", "other-error", "setup-error", "passes"])
def test_a_known_red_must_fail_on_its_assertion(tmp_path, fixture, body, code, line):
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        SUITE.format(fixture=fixture, body=body))
    # a fresh interpreter in tmp_path, whose node IDs match the known reds'
    proc = subprocess.run([sys.executable, str(SCRIPT), "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stdout
    lines = proc.stdout.splitlines()
    assert any(out.startswith(line) for out in lines), lines
    if code:
        assert not any(out.startswith("known-reds gate: ok") for out in lines)
