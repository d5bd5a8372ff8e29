import random
import re
from types import SimpleNamespace

import pytest

from drinfeld import modules, skew
from drinfeld.basearith import ext_field
from drinfeld.checks import (assert_orbit_invariance, check_correspondence,
                             standard_places)
from drinfeld.hecke import (admissible_weight_values, apply_u_by_table,
                            atkin_lehner, build_correspondence,
                            enumerate_moduli, operator_matrix,
                            support_valuations)
from drinfeld.skew import right_divide, tau


def test_closed_form_kernel_costs_two_divisions(monkeypatch):
    # per edge: u | phi(varpi), and the stability division whose quotient
    # SubgroupScheme keeps as the target action; every binding is counted
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return right_divide(u, v)

    monkeypatch.setattr(modules, "right_divide", counted)
    monkeypatch.setattr(skew, "right_divide", counted)
    for place in standard_places():
        calls.clear()
        corr = build_correspondence(place, 2)
        assert len(calls) == 2 * len(corr.edges), place


def test_enumerate_m1(place_T):
    ordinary, ss = enumerate_moduli(place_T, 1)
    assert sorted(str(p.j) for p in ordinary) == ["1", "2"]
    assert [str(p.j) for p in ss] == ["0"]


def test_enumerate_m2(place_T):
    ordinary, ss = enumerate_moduli(place_T, 2)
    assert len(ordinary) == 8 and len(ss) == 1
    assert ss[0].j.is_zero()


def test_enumerate_deg2_place(place_TT1):
    ordinary, ss = enumerate_moduli(place_TT1, 1)
    assert len(ss) == 1
    assert ss[0].j == ext_field(place_TT1, 1).one
    assert len(ordinary) == 3


def test_edge_counts_and_kinds(place_T):
    corr = build_correspondence(place_T, 2)
    for p in corr.ordinary:
        assert len(corr.edges_from(p, "F")) == 1
        assert len(corr.edges_from(p, "V")) == 1
    for p in corr.supersingular:
        out = corr.edges_from(p)
        assert len(out) == 1 and out[0].u == tau(corr.ext, place_T.d)
    # the (src, kind) index agrees with a scan of every edge
    for p in corr.points:
        for kind in ("F", "V", None):
            assert corr.edges_from(p, kind) == [
                e for e in corr.edges
                if e.src == p and kind in (None, e.kind)]


def test_f_edges_are_frobenius_on_j(place_T):
    corr = build_correspondence(place_T, 2)
    qd = place_T.q ** place_T.d
    perm = {}
    for p in corr.ordinary:
        e = corr.edges_from(p, "F")[0]
        assert e.dst.j == p.j ** qd
        perm[p.j] = e.dst.j
    fixed = [j for j, j2 in perm.items() if j == j2]
    assert len(fixed) == 2            # F_3-rational j values
    moved = [j for j in perm if perm[j] != j]
    assert len(moved) == 6            # three transpositions
    for j in moved:
        assert perm[perm[j]] == j


def test_v_is_inverse_of_f(place_T, place_TT1):
    for place, ms in ((place_T, (1, 2, 3)), (place_TT1, (1, 2))):
        for m in ms:
            corr = build_correspondence(place, m)
            f_map = {p.j: corr.edges_from(p, "F")[0].dst.j
                     for p in corr.ordinary}
            v_map = {p.j: corr.edges_from(p, "V")[0].dst.j
                     for p in corr.ordinary}
            for j, j2 in f_map.items():
                assert v_map[j2] == j


def test_m1_self_loops(place_T):
    corr = build_correspondence(place_T, 1)
    assert all(e.src == e.dst for e in corr.edges)


def test_u_identity_at_weight_zero_m1(place_T):
    corr = build_correspondence(place_T, 1)
    U = operator_matrix(corr, 0, "U")
    assert U.size == 2
    for i in range(2):
        for j in range(2):
            expect = U.work_ext.one if i == j else U.work_ext.zero
            assert U.entry(i, j) == expect


@pytest.mark.parametrize("k", [-2, 0, 2, 3, 5])
def test_u_invertible(place_T, k):
    corr = build_correspondence(place_T, 2)
    U = operator_matrix(corr, k, "U")
    assert not U.determinant().is_zero()
    assert U.norm_exponent == -min(1, k)


def test_u_entries_are_units(place_T):
    corr = build_correspondence(place_T, 2)
    U = operator_matrix(corr, 3, "U")
    for row in U.rows:
        nonzero = [x for x in row if not x.is_zero()]
        assert len(nonzero) == 1  # weighted permutation


def test_transpose_u_equals_f_at_weight_zero(place_T, place_TT1):
    for place, m in ((place_T, 2), (place_T, 3), (place_TT1, 2)):
        corr = build_correspondence(place, m)
        U0 = operator_matrix(corr, 0, "U", locus="ordinary")
        F0 = operator_matrix(corr, 0, "F", locus="ordinary")
        assert U0.transpose().rows == F0.rows


def test_t_is_sum_with_disjoint_edge_support(place_T):
    corr = build_correspondence(place_T, 2)
    kinds = [e.kind for e in corr.edges]
    assert set(kinds) == {"F", "V"}
    T0 = operator_matrix(corr, 0, "T")
    F0 = operator_matrix(corr, 0, "F")
    U0 = operator_matrix(corr, 0, "U", locus="all")
    for i in range(T0.size):
        for j in range(T0.size):
            assert T0.entry(i, j) == F0.entry(i, j) + U0.entry(i, j)


def test_semilinear_flag(place_T):
    corr = build_correspondence(place_T, 2)
    assert not operator_matrix(corr, 0, "F").semilinear
    assert operator_matrix(corr, 2, "F").semilinear
    assert not operator_matrix(corr, 5, "U").semilinear


def test_atkin_lehner_swaps_kinds(place_T, place_TT1):
    for place, m in ((place_T, 2), (place_TT1, 2)):
        corr = build_correspondence(place, m)
        pairing = atkin_lehner(corr)
        for e in corr.edges:
            dual = pairing[id(e)]
            assert dual.src == e.dst and dual.dst == e.src
            if e.src.ordinary:
                assert dual.kind != e.kind
            assert pairing[id(dual)] is e


def test_weight_homogeneity_dual_route(place_T):
    corr = build_correspondence(place_T, 2)
    rng = random.Random(19)
    for k in (-2, 0, 2, 3, 5):
        U = operator_matrix(corr, k, "U")
        for _ in range(4):
            vals = admissible_weight_values(corr, k, U.work_ext, rng)
            direct = apply_u_by_table(corr, k, vals, U.work_ext)
            got = U.apply([vals[p.j] for p in U.index])
            assert all(got[i] == direct[p.j] for i, p in enumerate(U.index))


def test_canonical_subgroup_iteration_matches_f_edges(place_T):
    # applying the connected-kernel edge n times lands at the quotient by
    # the depth-n canonical subgroup
    corr = build_correspondence(place_T, 2)
    qd = place_T.q ** place_T.d
    for p in corr.ordinary:
        j = p.j
        for n in (1, 2, 3):
            j = j ** qd
        E = p.rep
        H = E.canonical_subgroup(3)
        target = E.quotient_by_kernel(H).target
        assert target.j_invariant() == j


def test_support_valuations():
    for k in (-3, -1, 0):
        v = support_valuations(k)
        assert v["F"] == 0 and v["V"] >= 1
    for k in (2, 3, 7):
        v = support_valuations(k)
        assert v["V"] == 0 and v["F"] >= 1
    v1 = support_valuations(1)
    assert v1 == {"F": 0, "V": 0}  # the genuine edge case


def test_ordinariness_is_orbit_invariant_by_sweep(place_TT1):
    # the correspondence-structure check sweeps every (g, delta) pair and
    # raises, naming j, if one disagrees with the point of its orbit
    assert check_correspondence(place_TT1, 2).passed
    corr = build_correspondence(place_TT1, 2)
    assert_orbit_invariance(corr)
    p = corr.ordinary[0]
    flipped = p._replace(ordinary=False)
    wrong = SimpleNamespace(
        ext=corr.ext, points=[flipped if q is p else q for q in corr.points])
    witness = f"orbit-invariant at j = {re.escape(str(p.j))}$"
    with pytest.raises(AssertionError, match=witness):
        assert_orbit_invariance(wrong)
