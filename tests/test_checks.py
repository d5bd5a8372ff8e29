"""The identity battery cannot pass without checking, even when Python
strips bare asserts."""

import os
import subprocess
import sys

import drinfeld

BROKEN_ROUTE = """
import drinfeld.checks as checks
checks.iota_eval = lambda x, k: 1
print(checks.check_iwasawa_specialization(checks.standard_places()[0],
                                          m_max=1).line())
"""


def test_broken_check_fails_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(drinfeld.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_ROUTE],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[FAIL] iwasawa-specialization"), proc.stdout
    assert "routes disagree at level 1" in proc.stdout
