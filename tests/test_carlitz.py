import itertools

import pytest

from drinfeld.basearith import (APoly, ArtinRing, TruncPoly, finite_field,
                                make_place, poly_T)
from drinfeld.carlitz import (TruncSeriesRing, all_places,
                              carlitz_coefficient_profile, carlitz_eval,
                              trace_of_carlitz_pullback)
from drinfeld.skew import PolyRing, SkewPoly


def _recursive_action(M, ring):
    """Independent oracle: the recursion [1] = X, [T^n] = [T]([T^{n-1}]),
    extended F_q-linearly digit by digit (no Horner)."""
    X = SkewPoly(ring, [ring.one])
    act_T = SkewPoly(ring, [ring.gamma_T, ring.one])
    powers = [X]
    for _ in range(max(M.degree, 0)):
        powers.append(act_T * powers[-1])
    out = SkewPoly(ring, [])
    for i, c in enumerate(M.coeffs):
        out = out + SkewPoly(ring, [ring.embed_fq(c)]) * powers[i]
    return out


def test_action_of_one_and_T(F3):
    ring = PolyRing(F3)
    one = APoly(F3, [1])
    assert carlitz_eval(one, ring) == SkewPoly(ring, [ring.one])
    T = poly_T(F3)
    got = carlitz_eval(T, ring)
    assert got == SkewPoly(ring, [ring.gamma_T, ring.one])  # X^q + T X


def test_action_of_T_squared_symbolic(F3):
    ring = PolyRing(F3)
    T = poly_T(F3)
    got = carlitz_eval(T * T, ring)
    assert got.coefficient(0) == T * T
    assert got.coefficient(1) == T ** 3 + T   # T^q + T
    assert got.coefficient(2) == ring.one


@pytest.mark.parametrize("q", [2, 3])
def test_horner_matches_recursion_oracle(q):
    field = finite_field(q)
    ring = PolyRing(field)
    coeff_space = list(field.elements())
    for coeffs in itertools.product(coeff_space, repeat=3):
        M = APoly(field, list(coeffs) + [field.one])  # degree 3 monic
        assert carlitz_eval(M, ring) == _recursive_action(M, ring)


@pytest.mark.parametrize("q", [2, 3])
def test_additive_and_multiplicative(q):
    field = finite_field(q)
    ring = PolyRing(field)
    polys = [APoly(field, c)
             for c in itertools.product(field.elements(), repeat=3)]
    sample = polys[:: max(1, len(polys) // 12)]
    for M, N in itertools.product(sample, repeat=2):
        assert carlitz_eval(M + N, ring) == \
            carlitz_eval(M, ring) + carlitz_eval(N, ring)
        assert carlitz_eval(M * N, ring) == \
            carlitz_eval(M, ring) * carlitz_eval(N, ring)


def test_char_p_purely_inseparable(place_T, place_TT1):
    # with gamma a root of varpi, all coefficients below q^d vanish
    from drinfeld.basearith import ext_field
    for place in (place_T, place_TT1):
        ext = ext_field(place, 2)
        got = carlitz_eval(place.varpi, ext)
        for i in range(place.d):
            assert got.coefficient(i).is_zero()
        assert got.coefficient(place.d) == ext.one


def test_profile_examples(F3, F2):
    prof = carlitz_coefficient_profile(make_place(poly_T(F3)))
    assert prof.linear == poly_T(F3) and prof.middle == ()

    T = poly_T(F2)
    prof = carlitz_coefficient_profile(make_place(T ** 2 + T + 1))
    assert prof.linear == T ** 2 + T + 1
    assert prof.leading.degree == 0
    assert all(r.is_zero() for r in prof.middle_reductions)

    T3 = poly_T(F3)
    prof = carlitz_coefficient_profile(make_place(T3 ** 2 + 1))
    assert prof.ok
    # the single middle coefficient is T^3 + T = T * varpi
    assert prof.middle[0] == T3 ** 3 + T3


@pytest.mark.parametrize("q,e", [(2, 1), (3, 1), (2, 2)])
def test_profile_every_place_degree_le_3(q, e):
    field = finite_field(q, e)
    places = all_places(field, 3)
    assert places
    for pl in places:
        assert carlitz_coefficient_profile(pl).ok


# -- the pullback trace -------------------------------------------------------

def test_trace_frozen_values_deg1(place_T, F3):
    R = ArtinRing(place_T, 1, 2)          # F_3[eps]/(eps^2)
    S = TruncSeriesRing(R, 10)             # q^(2d) + 1
    rep = trace_of_carlitz_pullback(place_T, S)
    assert rep.ok
    assert rep.traces[0].is_zero()         # rank 3 = 0 in char 3
    assert rep.traces[1].is_zero()
    minus_two = R.embed_fq(F3.from_int(-2))
    assert rep.traces[2] == S.from_coeff(R.eps * minus_two)
    assert rep.quotients[2].is_unit()


def test_trace_frozen_values_deg2(place_TT1):
    R = ArtinRing(place_TT1, 1, 2)        # F_4[eps]/(eps^2)
    S = TruncSeriesRing(R, 17)
    rep = trace_of_carlitz_pullback(place_TT1, S)
    assert rep.ok
    for s in range(3):
        assert rep.traces[s].is_zero()
    assert rep.traces[3] == S.from_coeff(R.eps)  # 3*eps = eps in char 2
    assert rep.quotients[3].is_unit()


def test_trace_decomposition_substitutes_back(place_T):
    # independent verification that the free-module reduction used by the
    # trace is exact: X^(q^d) == pullback - lower terms, inside the series
    # ring at the working truncation
    R = ArtinRing(place_T, 2, 2)
    S = TruncSeriesRing(R, 10)
    pull = carlitz_eval(place_T.varpi, R)
    y = S.zero
    for j, c in enumerate(pull.coeffs):
        mono = [R.zero] * (R.q ** j) + [c]
        y = y + TruncPoly(S, mono)
    x_qd = S.X ** (place_T.q ** place_T.d)
    lower = S.zero
    for j in range(place_T.d):
        lower = lower + (S.X ** (place_T.q ** j)) * pull.coefficient(j)
    assert x_qd == y - lower


def test_trace_rejects_shallow_truncation(place_T):
    R = ArtinRing(place_T, 1, 2)
    with pytest.raises(ValueError, match="truncation"):
        trace_of_carlitz_pullback(place_T, TruncSeriesRing(R, 8))


def test_trace_rejects_field_coefficients(place_T):
    R = ArtinRing(place_T, 1, 1)  # eps = 0: no room for divisibility
    with pytest.raises(ValueError, match="nilpotency"):
        trace_of_carlitz_pullback(place_T, TruncSeriesRing(R, 10))
