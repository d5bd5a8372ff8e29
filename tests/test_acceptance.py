"""Acceptance battery: one test per criterion, each printing a pass line
with its timing.  Tolerances are exact equality throughout (all arithmetic
is exact); the stated wall-clock budgets are asserted.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import json
import random
import time
from pathlib import Path

from drinfeld.basearith import (APoly, ArtinRing, ext_field, finite_field,
                                local_ring, make_place, poly_T)
from drinfeld.carlitz import (TruncSeriesRing, all_places,
                              carlitz_coefficient_profile,
                              trace_of_carlitz_pullback)
from drinfeld.checks import standard_places
from drinfeld.cli import main as cli_main
from drinfeld.hecke import (atkin_lehner, build_correspondence,
                            operator_matrix)
from drinfeld.iwasawa import (J_ideal, determining_weights, duality_twist,
                              filtration, filtration_index_range, iota_eval,
                              iwasawa_level, maximal_ideal_kills_quotient,
                              quotient_basis, specialize)
from drinfeld.modules import DrinfeldModule, stable_order_qd_subgroups
from drinfeld.projector import (constant_tower, control_check,
                                factorial_powers_vanish, mat_identity,
                                ordinary_projector, reduction_tower)
from drinfeld.serretate import constant_lift, lift_independence_check

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


def _report(name, t0, budget, detail=""):
    elapsed = time.time() - t0
    print(f"PASS {name}: {elapsed:.2f}s (budget {budget}s){' - ' if detail else ''}{detail}")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_criterion_01_carlitz_profile():
    t0 = time.time()
    count = 0
    for q, e in ((2, 1), (3, 1), (2, 2)):
        field = finite_field(q, e)
        for place in all_places(field, 3):
            prof = carlitz_coefficient_profile(place)
            assert prof.linear == place.varpi                  # exact
            assert prof.leading.degree == 0 and prof.leading.is_monic()
            assert all(r.is_zero() for r in prof.middle_reductions)
            count += 1
    _report("criterion-1 action-polynomial profile", t0, 1.0,
            f"{count} places")


def test_criterion_02_factorization():
    t0 = time.time()
    count = 0
    for q in (2, 3):
        field = finite_field(q)
        for place in all_places(field, 2):
            ext = ext_field(place, 1)
            d = place.d
            for g in ext.elements():
                for delta in ext.field.units():
                    E = DrinfeldModule(ext, g, delta)
                    pv = E.phi_eval(place.varpi)
                    for i in range(d):
                        assert pv.coefficient(i).is_zero()
                    F, V = E.frobenius_verschiebung()
                    assert V.poly * F.u == pv                 # exact product
                    count += 1
    _report("criterion-2 inner-outer factorization", t0, 10.0,
            f"{count} modules")


def test_criterion_03_dichotomy():
    t0 = time.time()
    count = 0
    for q in (2, 3):
        field = finite_field(q)
        for place in all_places(field, 2):
            ext = ext_field(place, 1)
            qd = q ** place.d
            for g in ext.elements():
                for delta in ext.field.units():
                    E = DrinfeldModule(ext, g, delta)
                    a0 = E.hasse_invariant()
                    subs = stable_order_qd_subgroups(E)
                    if not a0.is_zero():
                        etale = [H for H in subs if H.kind.value == "etale"]
                        assert len(etale) == 1
                        u = etale[0].u
                        # separable of degree q^d: exactly q^d points over
                        # the splitting extension, certified or enumerated
                        assert not u.constant().is_zero()
                        from drinfeld.modules import splitting_degree
                        r = splitting_degree(u, ext)
                        if ext.size ** r <= 4096:
                            tor = E.torsion_points(1, ext_field(place, r))
                            assert tor.count == qd and tor.complete
                    else:
                        assert E.phi_eval(place.varpi).tau_valuation() == \
                            2 * place.d
                        assert E.torsion_points(1, ext).count == 1
                    count += 1
    _report("criterion-3 ordinary/supersingular dichotomy", t0, 30.0,
            f"{count} modules, exact counts")


def test_criterion_04_trace_divisibility():
    t0 = time.time()
    F3, F2 = finite_field(3), finite_field(2)
    for place in (make_place(poly_T(F3)),
                  make_place(poly_T(F2) ** 2 + poly_T(F2) + 1)):
        qd = place.q ** place.d
        R = ArtinRing(place, 1, 2)
        S = TruncSeriesRing(R, qd * qd + 1)
        rep = trace_of_carlitz_pullback(place, S)
        for tr in rep.traces:
            assert tr.eps_divisible()
        assert rep.generates_unit_ideal
        if place.q == 3:
            minus_two = R.embed_fq(place.field.from_int(-2))
            assert rep.traces[2] == S.from_coeff(R.eps * minus_two)
    _report("criterion-4 pullback trace divisibility", t0, 5.0,
            "both standard places, exact values")


def test_criterion_05_deformation_values():
    t0 = time.time()
    F3 = finite_field(3)
    place = make_place(poly_T(F3))
    ext = ext_field(place, 2)
    R = ArtinRing(place, 2, 2)
    E0 = DrinfeldModule(ext, ext.one, ext.one)
    datum = constant_lift(E0, R, 1)
    rep = lift_independence_check(datum)
    assert rep.ok and rep.exhaustive
    assert rep.torsion_count == 3 and rep.perturbations_checked == 27
    i = next(x for x in ext.elements() if x * x == -ext.one and x)
    assert rep.values[i] == R.eps * R.from_coeff(i)
    for v in rep.values.values():
        assert v.in_maximal_ideal()
    _report("criterion-5 deformation lift independence", t0, 5.0,
            "3 torsion points x 9 lifts, exact")


def test_criterion_06_correspondence_structure():
    t0 = time.time()
    F3, F2 = finite_field(3), finite_field(2)
    place3 = make_place(poly_T(F3))
    place2 = make_place(poly_T(F2) ** 2 + poly_T(F2) + 1)
    for place, ms in ((place3, (1, 2, 3)), (place2, (1, 2))):
        qd = place.q ** place.d
        for m in ms:
            corr = build_correspondence(place, m)
            f_map, v_map = {}, {}
            for p in corr.ordinary:
                fe = corr.edges_from(p, "F")
                ve = corr.edges_from(p, "V")
                assert len(fe) == 1 and len(ve) == 1
                assert fe[0].dst.j == p.j ** qd
                f_map[p.j], v_map[p.j] = fe[0].dst.j, ve[0].dst.j
            for j, j2 in f_map.items():
                assert v_map[j2] == j  # V after F returns to the start
            pairing = atkin_lehner(corr)
            for e in corr.edges:
                if e.src.ordinary:
                    assert pairing[id(e)].kind != e.kind
                assert pairing[id(pairing[id(e)])] is e
            U0 = operator_matrix(corr, 0, "U", locus="ordinary")
            F0 = operator_matrix(corr, 0, "F", locus="ordinary")
            assert U0.transpose().rows == F0.rows
            assert {e.kind for e in corr.edges} <= {"F", "V"}
    _report("criterion-6 correspondence structure", t0, 30.0,
            "both places, m up to 3 and 2")


def test_criterion_07_u_ordinarity():
    t0 = time.time()
    place3, place2 = standard_places()
    for place, m in ((place3, 1), (place3, 2), (place3, 3),
                     (place2, 1), (place2, 2)):
        corr = build_correspondence(place, m)
        for k in (-2, 0, 2, 3, 5):
            U = operator_matrix(corr, k, "U")
            assert not U.determinant().is_zero()
        U0 = operator_matrix(corr, 0, "U")
        rep = ordinary_projector(constant_tower(U0.ext, U0.rows))
        assert rep.ok
        assert rep.projector.matrices[0] == mat_identity(U0.ext, U0.size)
    _report("criterion-7 etale-part ordinarity", t0, 30.0,
            "determinants exact, projector identity")


def test_criterion_08_iwasawa():
    t0 = time.time()
    basis = quotient_basis(J_ideal(3, 2), J_ideal(3, 3))
    assert len(basis) == 11
    for s in range(1, 5):
        top = min(12, filtration_index_range(s) - 1)
        for r in range(top + 1):
            I, J = filtration(s, r), filtration(s, r + 1)
            assert I.contains_ideal(J)
            assert maximal_ideal_kills_quotient(I, J)
    rng = random.Random(0)
    ranks = []
    for place in standard_places():
        for m in (1, 2, 3):
            lv = iwasawa_level(place, m)
            for _ in range(8):
                x = lv.random_element(rng)
                for k in range(-3, 7):
                    assert specialize(x, k) == iota_eval(x, k)
            ranks.append(determining_weights(place, m).rank)
    assert ranks == [2, 4, 6, 3, 6, 9]
    _report("criterion-8 measure algebra", t0, 30.0,
            "filtration r<=12 s<=4; two evaluation routes; determining sets")


def test_criterion_09_projector():
    t0 = time.time()
    F3 = finite_field(3)
    place = make_place(poly_T(F3))
    L2 = local_ring(place, 2)
    # (a) worked 2x2 example
    M = [[L2.one, L2.one], [L2.zero, L2.varpi]]
    op = reduction_tower(place, M, 2)
    rep = ordinary_projector(op)
    assert rep.ok
    assert rep.projector.matrices[-1] == [[L2.one, L2.one + L2.varpi],
                                          [L2.zero, L2.zero]]
    assert factorial_powers_vanish(op, rep)
    # (b) towers from every correspondence instance of criterion 6: the
    # three operators at weight zero, and the etale-part operator at the
    # weight sweep (where its invertibility keeps the iteration short)
    place2 = standard_places()[1]
    for pl, m in ((place, 1), (place, 2), (place, 3),
                  (place2, 1), (place2, 2)):
        corr = build_correspondence(pl, m)
        for which in ("F", "U", "T"):
            Mx = operator_matrix(corr, 0, which)
            repx = ordinary_projector(constant_tower(Mx.ext, Mx.rows))
            assert repx.ok
        for k in (-2, 2, 3, 5):
            Mx = operator_matrix(corr, k, "U")
            repx = ordinary_projector(constant_tower(Mx.ext, Mx.rows))
            assert repx.ok
    # (c) 100 random 4x4 towers
    rng = random.Random(23)
    elems = [L2.from_apoly(APoly(F3, [a, b])) for a in range(3)
             for b in range(3)]
    for _ in range(100):
        Mr = [[elems[rng.randrange(9)] for _ in range(4)] for _ in range(4)]
        repr_ = ordinary_projector(reduction_tower(place, Mr, 2))
        assert repr_.ok
    # control shadow: base change of the idempotent commutes with weights
    lv = iwasawa_level(place, 2)
    ML = [[lv.one, lv.one], [lv.zero, lv.one * lv.ring.varpi]]
    reports = control_check(
        ML, lv, [lambda x, k=k: specialize(x, k) for k in (0, 2, 3, 5)],
        lv.ring)
    assert len(reports) == 4 and all(cr.ok for cr in reports)
    _report("criterion-9 ordinary projector", t0, 30.0,
            "worked example, correspondence towers, 100 random towers")


def test_criterion_10_duality_weights():
    t0 = time.time()
    rng = random.Random(2)
    for place in standard_places():
        lv = iwasawa_level(place, 2)
        for _ in range(25):
            x = lv.random_element(rng)
            assert duality_twist(duality_twist(x)) == x
            for k in (-2, -1, 0, 1, 2, 3, 5):
                assert specialize(duality_twist(x), k) == specialize(x, 2 - k)
    _report("criterion-10 duality weight shadow", t0, 30.0,
            "involution and k -> 2-k, exact")


def test_criterion_11_end_to_end(capsys):
    t0 = time.time()
    code1 = cli_main(["suite"])
    out1 = capsys.readouterr().out
    assert code1 == 0
    assert "== result: pass" in out1
    code2 = cli_main(["suite"])
    out2 = capsys.readouterr().out
    # the suite output carries no timings, so a rerun is byte-identical
    assert code2 == 0 and out1 == out2
    # and it is the recorded golden output
    digests = json.loads(GOLDENS.read_text())["digests"]
    assert hashlib.sha256(out1.encode()).hexdigest() == digests["suite"]
    with capsys.disabled():
        _report("criterion-11 end-to-end suite", t0, 120.0,
                "both standard places, deterministic, exit 0")
