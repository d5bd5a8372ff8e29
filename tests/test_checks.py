"""The identity battery cannot pass without checking, even when Python
strips bare asserts, its local-ring checks hold, with pinned details, at a
place of degree 3, and its checks share one correspondence per
configuration without sharing a failed build."""

import inspect
import os
import subprocess
import sys

import drinfeld
from drinfeld import checks, hecke
from drinfeld.basearith import field_of_order, make_place
from drinfeld.checks import (check_correspondence, check_determining_weights,
                             check_duality_twist, check_hecke_support,
                             check_iwasawa_specialization,
                             check_projector_hecke_towers,
                             check_projector_random, check_u_ordinarity,
                             check_weight_homogeneity, standard_places,
                             suite_checks)
from drinfeld.modules import DrinfeldModule
from drinfeld.textenc import parse_apoly

CORRESPONDENCE_CHECKS = (check_correspondence, check_weight_homogeneity,
                         check_u_ordinarity, check_hecke_support,
                         check_projector_hecke_towers)

BROKEN_ROUTE = """
import drinfeld.checks as checks
checks.iota_eval = lambda x, k: 1
print(checks.check_iwasawa_specialization(checks.standard_places()[0],
                                          m_max=1).line())
"""


def test_checks_take_only_what_the_suite_varies():
    # everything else a check needs is fixed inside it: the battery has
    # no knobs that no caller turns
    for name, fn in vars(checks).items():
        if name.startswith("check_"):
            params = set(inspect.signature(fn).parameters)
            assert params <= {"place", "m", "m_max"}, (name, params)


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


def test_random_towers_past_64_factorial_steps():
    # 16^4 - 1 has the prime factor 257, so some towers stabilize late
    place = make_place(parse_apoly(field_of_order(4), "T^2+T+a"))
    result = check_projector_random(place)
    assert result.passed, result.line()


def test_u_ordinarity_fails_on_a_projector_missing_rows(monkeypatch, place_T):
    # the report keeps only the first row of e, which that row alone
    # cannot tell from the identity's
    right = checks.ordinary_projector

    def first_row_only(op):
        rep = right(op)
        rep.projector.matrices[0] = rep.projector.matrices[0][:1]
        return rep

    monkeypatch.setattr(checks, "ordinary_projector", first_row_only)
    result = check_u_ordinarity(place_T, 1)
    assert result.line().startswith("[FAIL] u-ordinarity: ")
    assert result.details == ("AssertionError: projector of U in weight 0 "
                              "is not the identity")


def test_determining_weights_fails_on_a_wrong_wild_block_rank(monkeypatch):
    # the rank from the wild block is compared with the Smith count of the
    # full evaluation matrix wherever that has at most 4096 entries
    place = standard_places()[1]
    right = checks.determining_weights

    def off_by_one(place, m):
        return right(place, m)._replace(rank=right(place, m).rank - 1)

    monkeypatch.setattr(checks, "determining_weights", off_by_one)
    result = check_determining_weights(place)
    assert not result.passed
    assert result.details == ("AssertionError: level 1: rank 2 from the "
                              "wild block, 3 from all units")


def test_the_battery_builds_one_correspondence_per_configuration(monkeypatch):
    built = []
    enumerate_moduli = hecke.enumerate_moduli

    def counted(place, m):
        built.append((place, m))
        return enumerate_moduli(place, m)

    monkeypatch.setattr(hecke, "enumerate_moduli", counted)
    checks._correspondence.cache_clear()
    for place in standard_places():
        results = suite_checks(place, 2)
        assert all(r.passed for r in results), [r.line() for r in results]
    assert built == [(place, 2) for place in standard_places()]


def test_a_failed_build_fails_every_check_that_reads_it(monkeypatch):
    # a build that raises is not cached: each check repeats it and fails,
    # and once the fault is gone each check builds and passes
    def broken(self):
        raise RuntimeError("injected kernel fault")

    place = standard_places()[0]
    checks._correspondence.cache_clear()
    monkeypatch.setattr(DrinfeldModule, "order_qd_kernels", broken)
    for check in CORRESPONDENCE_CHECKS:
        result = check(place, 1)
        assert result.line().startswith(f"[FAIL] {result.check_id}: ")
        assert result.details == "RuntimeError: injected kernel fault"
    monkeypatch.undo()
    for check in CORRESPONDENCE_CHECKS:
        assert check(place, 1).passed
