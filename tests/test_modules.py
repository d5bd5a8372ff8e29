import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.basearith import APoly, ext_field, finite_field, make_place, \
    poly_T
from drinfeld.carlitz import all_places
from drinfeld.hecke import enumerate_moduli
from drinfeld.modules import (DrinfeldModule, Isogeny, SubgroupKind,
                              SubgroupScheme, _gamma_compatible_embedding,
                              splitting_degree,
                              stable_order_qd_subgroups)
from drinfeld.skew import SkewPoly, tau
from drinfeld.textenc import parse_apoly


def _E(ext, g_log, d_log):
    g = ext.field.zero if g_log < 0 else ext.field.element(g_log)
    return DrinfeldModule(ext, g, ext.field.element(d_log))


def test_rank_two_requires_unit_delta(ext9):
    with pytest.raises(ValueError, match="unit"):
        DrinfeldModule(ext9, ext9.one, ext9.zero)


def test_phi_eval_examples(ext9, F3):
    E = DrinfeldModule(ext9, ext9.one, ext9.one)
    one_poly = APoly(F3, [1])
    assert E.phi_eval(one_poly) == SkewPoly(ext9, [ext9.one])
    T = poly_T(F3)
    assert E.phi_eval(T) == E.phi_T()
    assert E.phi_eval(T ** 2).degree == 4  # twist degree 2*deg


def test_phi_eval_low_coefficients_vanish(ext4, place_TT1, F2):
    # char-p base: the action of varpi has no twist terms below degree d
    E = DrinfeldModule(ext4, ext4.gamma_T, ext4.one)
    pv = E.phi_eval(place_TT1.varpi)
    assert pv.coefficient(0).is_zero() and pv.coefficient(1).is_zero()


@pytest.mark.parametrize("q,degs", [(2, (1, 2)), (3, (1, 2))])
def test_fv_factorization_exhaustive(q, degs):
    field = finite_field(q)
    for place in all_places(field, max(degs)):
        ext = ext_field(place, 1)
        for g in ext.elements():
            for delta in ext.field.units():
                E = DrinfeldModule(ext, g, delta)
                F, V = E.frobenius_verschiebung()
                assert F.u == tau(ext, place.d)
                assert V.poly * F.u == E.phi_eval(place.varpi)
                assert V.poly.degree <= place.d


def test_fv_examples(ext9):
    E = DrinfeldModule(ext9, ext9.one, ext9.one)
    F, V = E.frobenius_verschiebung()
    assert F.u == tau(ext9)
    assert V.poly == SkewPoly(ext9, [ext9.one, ext9.one])  # g + delta*t
    Ess = DrinfeldModule(ext9, ext9.zero, ext9.one)
    _, Vss = Ess.frobenius_verschiebung()
    assert Vss.poly == tau(ext9)
    assert Vss.hasse.is_zero()


def test_fv_requires_char_p(artin9):
    # over k'[eps]/(eps^2) gamma(varpi) = eps is not zero
    E = DrinfeldModule(artin9, artin9.one, artin9.one)
    with pytest.raises(ValueError, match="gamma"):
        E.frobenius_verschiebung()


def test_verschiebung_is_isogeny(ext9, ext4):
    for ext in (ext9, ext4):
        for g in list(ext.elements())[:4]:
            E = DrinfeldModule(ext, g, ext.one)
            _, V = E.frobenius_verschiebung()
            # the constructor verifies the intertwining identity
            Isogeny(E.frob_twist(ext.place.d), E, V.poly)


def test_hasse_examples(ext9):
    assert DrinfeldModule(ext9, ext9.one, ext9.one).hasse_invariant() == ext9.one
    assert DrinfeldModule(ext9, ext9.zero, ext9.one).hasse_invariant().is_zero()


def _rescaled(E, c):
    """The isomorphic module in the coordinate y = c*x: the action
    conjugated by c, whose coefficients pick up c^(1 - q^i)."""
    q = E.place.q
    return DrinfeldModule(E.base, c ** (1 - q) * E.g, c ** (1 - q * q) * E.delta)


def test_hasse_rescaling_law(ext9, ext4):
    for ext in (ext9, ext4):
        qd = ext.q ** ext.place.d
        for g in list(ext.elements())[:3]:
            E = DrinfeldModule(ext, g, ext.one)
            for c in list(ext.field.units())[:5]:
                assert _rescaled(E, c).hasse_invariant() == \
                    c ** (1 - qd) * E.hasse_invariant()


def test_torsion_examples(place_T, ext9):
    E = DrinfeldModule(ext9, ext9.one, ext9.one)
    tor = E.torsion_points(1, ext9)
    i = next(x for x in ext9.elements() if x * x == -ext9.one and x)
    assert set(tor.points) == {ext9.zero, i, -i}
    assert tor.complete and tor.is_cyclic()
    assert tor.invariant_factors() == (1,)

    ss = DrinfeldModule(ext9, ext9.zero, ext9.one)
    assert ss.torsion_points(1, ext9).points == (ext9.zero,)

    small = ext_field(place_T, 1)
    E1 = DrinfeldModule(small, small.one, small.one)
    tor1 = E1.torsion_points(1, small)
    assert tor1.count == 1 and not tor1.complete  # points missing over F_3


def test_torsion_depth_two(place_T, ext9):
    E = DrinfeldModule(ext9, ext9.one, ext9.one)
    big = ext_field(place_T, 4)
    tor = E.torsion_points(2, big)
    if tor.complete:
        assert tor.count == 9 and tor.is_cyclic()
    else:
        assert tor.count in (3, 9)


@pytest.mark.parametrize("q", [2, 3])
def test_dichotomy_exhaustive(q):
    field = finite_field(q)
    for place in all_places(field, 2):
        ext = ext_field(place, 1)
        qd = q ** place.d
        for g in ext.elements():
            for delta in ext.field.units():
                E = DrinfeldModule(ext, g, delta)
                subs = stable_order_qd_subgroups(E)
                if E.is_ordinary():
                    assert len(subs) == 2
                    etale = [H for H in subs
                             if H.kind == SubgroupKind.ETALE]
                    assert len(etale) == 1
                    u = etale[0].u
                    assert not u.constant().is_zero()
                    r = splitting_degree(u, ext)
                    assert (qd - 1) % r == 0
                    if ext.size ** r <= 4096:
                        tor = E.torsion_points(1, ext_field(place, r))
                        assert tor.count == qd and tor.complete
                else:
                    assert len(subs) == 1
                    assert subs[0].u == tau(ext, place.d)
                    # fully connected: the action of varpi is a pure twist
                    assert E.phi_eval(place.varpi).tau_valuation() == 2 * place.d
                    assert E.torsion_points(1, ext).count == 1


@pytest.mark.parametrize("q, varpi, m", [
    (3, "T", 1), (3, "T", 2), (2, "T^2+T+1", 1), (2, "T^2+T+1", 2),
    (5, "T", 2), (2, "T^3+T+1", 1), (3, "T", 3), (2, "T", 3)])
def test_closed_form_kernels_match_enumeration(q, varpi, m):
    # the oracle: same kernel polynomials, kinds and order at every point;
    # m = 3 is the first level where q^-d is not q^d on the point field
    place = make_place(parse_apoly(finite_field(q), varpi))
    ordinary, ss = enumerate_moduli(place, m)
    for p in ordinary + ss:
        closed = [(H.u, H.kind) for H in p.rep.order_qd_kernels()]
        found = [(H.u, H.kind) for H in stable_order_qd_subgroups(p.rep)]
        assert closed == found, p.j
        assert len(closed) == (2 if p.ordinary else 1)


def test_quotient_self_isogeny(ext9):
    E = DrinfeldModule(ext9, ext9.one, ext9.one)
    H = SubgroupScheme(E, SkewPoly(ext9, [ext9.one, ext9.one]))
    iso = E.quotient_by_kernel(H)
    assert iso.target == E   # phi'(T) = t + t^2 again
    assert iso.target.j_invariant() == E.j_invariant()


def test_quotient_by_connected_kernel_is_twist(ext9, ext4):
    for ext in (ext9, ext4):
        d = ext.place.d
        for g in list(ext.elements())[:4]:
            E = DrinfeldModule(ext, g, ext.one)
            H = SubgroupScheme(E, tau(ext, d))
            assert E.quotient_by_kernel(H).target == E.frob_twist(d)


def test_quotient_by_full_torsion(ext9, place_T):
    E = DrinfeldModule(ext9, ext9.one, ext9.one)
    u = E.phi_eval(place_T.varpi)
    assert u.is_monic()
    H = SubgroupScheme(E, u)
    iso = E.quotient_by_kernel(H)
    assert iso.target.j_invariant() == E.j_invariant()


def test_quotient_rejects_unstable_kernel(ext9):
    E = DrinfeldModule(ext9, ext9.one, ext9.one)
    bad = SkewPoly(ext9, [ext9.field.element(3), ext9.one])
    with pytest.raises(ValueError):
        SubgroupScheme(E, bad)


def test_j_examples(ext9):
    assert DrinfeldModule(ext9, ext9.zero, ext9.one).j_invariant().is_zero()
    assert DrinfeldModule(ext9, ext9.one, ext9.one).j_invariant() == ext9.one


@settings(max_examples=40)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_j_is_orbit_invariant(g_log, d_log, c_log):
    ext = ext_field(make_place(poly_T(finite_field(3))), 2)
    E = _E(ext, g_log, d_log)
    c = ext.field.element(c_log)
    assert _rescaled(E, c).j_invariant() == E.j_invariant()
    assert _rescaled(E, c.inverse()).j_invariant() == E.j_invariant()


def test_ss_unique_subgroup_is_asserted_not_assumed(ext9):
    # the count comes out of the enumeration, checked here explicitly
    ss = DrinfeldModule(ext9, ext9.zero, ext9.one)
    subs = stable_order_qd_subgroups(ss)
    assert [H.u for H in subs] == [tau(ext9)]


def test_order_bookkeeping(ext9, ext4):
    # |ker F| * |ker V as scheme| = q^(2d), read off kernel degrees
    for ext in (ext9, ext4):
        d = ext.place.d
        for g in list(ext.elements())[:4]:
            E = DrinfeldModule(ext, g, ext.one)
            F, V = E.frobenius_verschiebung()
            assert F.u.degree == d
            assert V.poly.degree == d  # leading coefficient is a unit
            assert E.phi_eval(ext.place.varpi).degree == 2 * d



@pytest.mark.parametrize("varpi_coeffs,m_small,m_big", [
    ((1, 0, 1, 1), 1, 2),   # T^3 + T^2 + 1
    ((1, 1, 0, 1), 2, 4),   # T^3 + T + 1
])
def test_base_change_through_the_gamma_compatible_embedding(
        varpi_coeffs, m_small, m_big):
    # at these places the canonical field embedding misses gamma_T, so
    # base change takes a Frobenius conjugate of it that matches
    F2 = finite_field(2)
    place = make_place(APoly(F2, varpi_coeffs))
    small, big = ext_field(place, m_small), ext_field(place, m_big)
    assert big.field.embedding_from(small.field)(small.gamma_T) != big.gamma_T
    emb = _gamma_compatible_embedding(small, big)
    assert emb(small.gamma_T) is big.gamma_T
    els = list(small.elements())
    assert emb(small.one) is big.one and len(set(map(emb, els))) == len(els)
    for x in els:
        for y in els:
            assert emb(x + y) is emb(x) + emb(y)
            assert emb(x * y) is emb(x) * emb(y)
    units = els[1:]
    for g, delta in ((els[0], units[0]), (units[1], units[2]),
                     (units[-1], units[-3])):
        E = DrinfeldModule(small, g, delta)
        big_E = E.base_change(big)
        assert big_E.base is big
        assert big_E.phi_T().coeffs == tuple(map(emb, E.phi_T().coeffs))
        assert big_E.phi_eval(place.varpi).coeffs == tuple(
            map(emb, E.phi_eval(place.varpi).coeffs))
