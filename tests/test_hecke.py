import random
import re
from types import SimpleNamespace

import pytest

from drinfeld import modules, skew
from drinfeld.basearith import ext_field, field_of_order, make_place
from drinfeld.checks import (assert_orbit_invariance, check_correspondence,
                             standard_places)
from drinfeld.hecke import (admissible_weight_values, apply_u_by_table,
                            atkin_lehner, build_correspondence,
                            enumerate_moduli, operator_matrix, orbit_scale,
                            support_valuations)
from drinfeld.modules import DrinfeldModule, SubgroupKind, SubgroupScheme
from drinfeld.skew import right_divide, tau
from drinfeld.textenc import parse_apoly


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


def test_build_factorizes_each_point_once(monkeypatch, place_T, place_TT1):
    # the Hasse invariant and the closed-form kernels both read phi(varpi)
    # = V * t^d off the point's representative, which checks it once
    built = []
    real = modules.Verschiebung

    def counted(module, poly):
        built.append(module)
        return real(module, poly)

    monkeypatch.setattr(modules, "Verschiebung", counted)
    for place in (place_T, place_TT1):
        built.clear()
        corr = build_correspondence(place, 2)
        assert len(built) == len(corr.points)
        assert {id(E) for E in built} == {id(p.rep) for p in corr.points}


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
            expect = U.ext.one if i == j else U.ext.zero
            assert U.rows[i][j] == expect


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
            assert T0.rows[i][j] == F0.rows[i][j] + U0.rows[i][j]


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
            vals = admissible_weight_values(corr, k, rng)
            direct = apply_u_by_table(corr, k, vals)
            got = U.apply([vals[p.j] for p in U.index])
            assert all(got[i] == direct[p.j] for i, p in enumerate(U.index))


def test_canonical_subgroup_iteration_matches_f_edges(place_T):
    # applying the connected-kernel edge n times lands at the quotient by
    # the depth-n canonical subgroup, the connected kernel t^(dn)
    corr = build_correspondence(place_T, 2)
    d = place_T.d
    qd = place_T.q ** d
    for p in corr.ordinary:
        j = p.j
        for n in (1, 2, 3):
            j = j ** qd
        E = p.rep
        H = SubgroupScheme(E, tau(E.base, 3 * d))
        assert H.kind == SubgroupKind.CONNECTED
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


# -- orbit scales ---------------------------------------------------------------

def _scanned_scale(rep, target):
    """Oracle: the first unit c in log order with sigma_c(rep) = target."""
    q = rep.place.q
    for c in rep.base.field.units():
        if (c ** (q - 1) * rep.g == target.g
                and c ** (q * q - 1) * rep.delta == target.delta):
            return c
    return None


# (q, varpi, m); the two degree-2 places have V edges into j = 0
_SCALE_PLACES = [(3, "T", 3), (2, "T^2+T+1", 3), (3, "T^2+1", 2), (5, "T", 2)]


@pytest.mark.parametrize("q, varpi, m", _SCALE_PLACES)
def test_orbit_scale_matches_unit_scan_on_every_v_edge(q, varpi, m):
    place = make_place(parse_apoly(field_of_order(q), varpi))
    corr = build_correspondence(place, m)
    v_edges = [e for e in corr.edges if e.kind == "V"]
    assert len(v_edges) == len(corr.ordinary)
    for e in v_edges:
        c = orbit_scale(e.dst.rep, e.target_module)
        assert c is not None and c is _scanned_scale(e.dst.rep, e.target_module)
    assert any(e.dst.j.is_zero() for e in v_edges) == (place.d == 2)


def test_orbit_scale_matches_unit_scan_on_seeded_pairs(place_T, place_TT1):
    rng = random.Random(7)
    found = {True: 0, False: 0}
    for place, m in ((place_T, 2), (place_TT1, 2)):
        ext = ext_field(place, m)
        elements, units = list(ext.elements()), list(ext.field.units())
        for _ in range(300):
            rep = DrinfeldModule(ext, rng.choice(elements), rng.choice(units))
            if rng.random() < 0.5:  # a rescaling of rep: a scale exists
                c = rng.choice(units)
                target = DrinfeldModule(ext, c ** (place.q - 1) * rep.g,
                                        c ** (place.q ** 2 - 1) * rep.delta)
            else:
                target = DrinfeldModule(ext, rng.choice(elements),
                                        rng.choice(units))
            c = orbit_scale(rep, target)
            assert c is _scanned_scale(rep, target)
            found[c is not None] += 1
    assert min(found.values()) > 50


def test_orbit_scale_rejects_modules_over_different_bases(place_T):
    rep = build_correspondence(place_T, 2).ordinary[0].rep
    with pytest.raises(ValueError, match="one base"):
        orbit_scale(rep, rep.base_change(ext_field(place_T, 4)))


def test_operator_matrix_names_a_v_edge_without_scale(place_T):
    corr = build_correspondence(place_T, 2)
    i, e = next((i, e) for i, e in enumerate(corr.edges)
                if e.kind == "V" and e.dst.j != e.src.j)
    # the source's representative is not in the orbit of the destination's
    corr.edges[i] = e._replace(target_module=e.src.rep)
    assert orbit_scale(e.dst.rep, e.src.rep) is None
    with pytest.raises(AssertionError, match=f"j = {re.escape(str(e.src.j))} "):
        operator_matrix(corr, 3, "U")
    assert operator_matrix(corr, 3, "F").size == corr.ext.size
