"""The identity battery cannot pass without checking, even when Python
strips bare asserts, and its local-ring checks hold, with pinned details,
at a place of degree 3."""

import os
import subprocess
import sys

import drinfeld
from drinfeld.basearith import field_of_order, make_place
from drinfeld.checks import (check_determining_weights, check_duality_twist,
                             check_iwasawa_specialization)
from drinfeld.textenc import parse_apoly

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


def test_local_ring_checks_at_a_cubic_place():
    # the first place with d = 3: A/(varpi^3) has 512 elements
    place = make_place(parse_apoly(field_of_order(2), "T^3+T+1"))
    details = [
        (check_iwasawa_specialization(place, 3),
         "990 weight evaluations agree along both routes"),
        (check_determining_weights(place),
         "level 1: |K|=7, rank 7; level 2: |K|=14, rank 14; "
         "level 3: |K|=28, rank 21"),
        (check_duality_twist(place),
         "involution and weight swap k -> 2-k on 50 random elements"),
    ]
    for result, detail in details:
        assert result.passed and result.details == detail, result.line()
