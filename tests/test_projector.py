import random

import pytest

from drinfeld.basearith import APoly, local_ring
from drinfeld.iwasawa import iwasawa_level, specialize
from drinfeld.projector import (TowerModule, TowerOperator, constant_tower,
                                control_check, factorial_powers_vanish,
                                image_membership_identities,
                                local_finiteness_report, mat_eq, mat_identity,
                                mat_is_zero, mat_map, mat_mul, mat_pow,
                                ordinary_projector, reduction_tower)


@pytest.fixture()
def L2(place_T):
    return local_ring(place_T, 2)


@pytest.fixture()
def worked(place_T, L2):
    M = [[L2.one, L2.one], [L2.zero, L2.varpi]]
    return reduction_tower(place_T, M, 2)


def _naive_factorial_limit(mat, ring, cap=8):
    """Independent oracle: compute T^(n!) from scratch by plain repeated
    multiplication (no squaring ladder, no early stop) until two
    consecutive factorial powers agree and the candidate is idempotent."""
    def times(a, b):
        n = len(a)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ring.zero
                for k in range(n):
                    acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            out.append(row)
        return out

    prev = mat  # T^(1!)
    fact = 1
    for n in range(2, cap):
        fact *= n
        nxt = mat
        for _ in range(fact - 1):
            nxt = times(nxt, mat)
        if mat_eq(nxt, prev) and mat_eq(times(nxt, nxt), nxt):
            return nxt
        prev = nxt
    raise AssertionError("oracle did not stabilize")


def test_worked_example(worked, L2, place_T):
    rep = ordinary_projector(worked)
    assert rep.ok
    e = rep.projector.matrices[-1]
    expected = [[L2.one, L2.one + L2.varpi], [L2.zero, L2.zero]]
    assert mat_eq(e, expected)
    # independent oracle: naive repeated multiplication
    M = [[L2.one, L2.one], [L2.zero, L2.varpi]]
    oracle = _naive_factorial_limit(M, L2)
    assert mat_eq(oracle, expected)


def test_identity_projector(L2):
    idm = mat_identity(L2, 3)
    rep = ordinary_projector(constant_tower(L2, idm))
    assert rep.ok and mat_eq(rep.projector.matrices[0], idm)


def test_nilpotent_projector(L2):
    nil = [[L2.zero, L2.one, L2.one],
           [L2.zero, L2.zero, L2.one],
           [L2.zero, L2.zero, L2.zero]]
    rep = ordinary_projector(constant_tower(L2, nil))
    assert rep.ok and mat_is_zero(rep.projector.matrices[0])


def test_projector_properties(worked):
    rep = ordinary_projector(worked)
    for ring, T, e in zip(worked.tower.rings, worked.matrices,
                          rep.projector.matrices):
        assert mat_eq(mat_mul(e, e, ring), e)
        assert mat_eq(mat_mul(e, T, ring), mat_mul(T, e, ring))
    assert factorial_powers_vanish(worked, rep)


@pytest.mark.parametrize("e", range(20))
def test_mat_pow_product_count(e, L2, monkeypatch):
    from drinfeld import projector
    calls = []

    def counting_mul(a, b, ring):
        calls.append(1)
        return mat_mul(a, b, ring)

    monkeypatch.setattr(projector, "mat_mul", counting_mul)
    M = [[L2.one, L2.one], [L2.zero, L2.varpi]]
    mat_pow(M, e, L2)
    expected = (e.bit_length() - 1) + (bin(e).count("1") - 1) if e else 0
    assert len(calls) == expected


def test_idempotent_equals_for_powers(worked, place_T, L2):
    rep = ordinary_projector(worked)
    e = rep.projector.matrices[-1]
    M = [[L2.one, L2.one], [L2.zero, L2.varpi]]
    for r in (2, 3):
        Mr = mat_pow(M, r, L2)
        rep_r = ordinary_projector(reduction_tower(place_T, Mr, 2))
        assert mat_eq(rep_r.projector.matrices[-1], e)


def test_transition_compatibility(worked):
    rep = ordinary_projector(worked)
    tower = worked.tower
    for i in range(tower.depth - 1):
        fn = tower.transition_entry(i)
        assert mat_eq(mat_map(rep.projector.matrices[i + 1], fn),
                      rep.projector.matrices[i])


def test_exactness_shadow(worked, place_T):
    # on the kernel of the transition (the varpi-multiples), the deeper
    # idempotent restricts to the shallow one transported by varpi
    rep = ordinary_projector(worked)
    L2 = worked.tower.rings[1]
    e2 = rep.projector.matrices[1]
    e1 = rep.projector.matrices[0]
    for col in range(2):
        deep = [e2[r][col] * L2.varpi for r in range(2)]
        lifted = [x.value for x in deep]
        shallow = [e1[r][col] for r in range(2)]
        for x, y in zip(lifted, shallow):
            got = (x % place_T.varpi ** 2)
            quot, rem = got.divmod(place_T.varpi)
            assert rem.is_zero()
            assert local_ring(place_T, 1).from_apoly(quot) == y


def test_constructor_rejects_incompatible_levels(L2):
    tower = TowerModule([L2, L2], 2, [lambda x: x])
    good = [[L2.one, L2.zero], [L2.zero, L2.one]]
    bad = [[L2.one, L2.one], [L2.zero, L2.varpi]]
    with pytest.raises(ValueError, match="commute"):
        TowerOperator(tower, [good, bad])


def test_local_finiteness(worked):
    out = local_finiteness_report(worked)
    assert all(level["stable"] for level in out)


def test_random_towers(place_T):
    rng = random.Random(4)
    L2 = local_ring(place_T, 2)
    field = place_T.field
    elems = [L2.from_apoly(APoly(field, [a, b]))
             for a in field.elements() for b in field.elements()]
    for _ in range(30):
        M = [[elems[rng.randrange(9)] for _ in range(4)] for _ in range(4)]
        rep = ordinary_projector(reduction_tower(place_T, M, 2))
        assert rep.ok


def test_control_full_module(place_T):
    # multiplication by a group-like is a unit operator: e = identity and
    # both sides of the control comparison are everything
    lv = iwasawa_level(place_T, 2)
    u = lv.wild_group[1]
    M = [[lv.dirac(u), lv.zero], [lv.zero, lv.dirac(u * u)]]
    for k in (0, 2, 3):
        cr = control_check(M, lv, lambda x, kk=k: specialize(x, kk), lv.ring)
        assert cr.ok
        assert mat_eq(cr.projector_of_specialized,
                      mat_identity(lv.ring, 2))


def test_control_rank_one(place_T):
    lv = iwasawa_level(place_T, 2)
    M = [[lv.one, lv.one], [lv.zero, lv.one * lv.ring.varpi]]
    for k in (0, 2, 5):
        cr = control_check(M, lv, lambda x, kk=k: specialize(x, kk), lv.ring)
        assert cr.ok
        e = cr.projector_of_specialized
        assert not mat_is_zero(e)
        assert mat_is_zero([e[1]])  # second row vanishes: rank one


def test_control_zero(place_T):
    lv = iwasawa_level(place_T, 2)
    M = [[lv.one * lv.ring.varpi, lv.zero], [lv.zero, lv.zero]]
    cr = control_check(M, lv, lambda x: specialize(x, 2), lv.ring)
    assert cr.ok
    assert mat_is_zero(cr.projector_of_specialized)


def test_control_random(place_T):
    lv = iwasawa_level(place_T, 2)
    rng = random.Random(17)
    for _ in range(8):
        M = [[lv.random_element(rng, support=2) for _ in range(2)]
             for _ in range(2)]
        for k in (0, 3):
            assert control_check(M, lv,
                                 lambda x, kk=k: specialize(x, kk),
                                 lv.ring).ok


def test_image_identity_criterion(L2):
    e1 = [[L2.one, L2.zero], [L2.zero, L2.zero]]
    e2 = [[L2.one, L2.one], [L2.zero, L2.zero]]
    # same column space over the ring
    assert image_membership_identities(e1, e2, L2)
    e3 = [[L2.zero, L2.zero], [L2.zero, L2.one]]
    assert not image_membership_identities(e1, e3, L2)
