import pytest
from hypothesis import given, strategies as st

from drinfeld.basearith import apoly, finite_field, local_ring
from drinfeld.skew import SkewPoly
from drinfeld.textenc import (ParseError, parse_apoly, parse_artin, parse_fq,
                              parse_local, parse_skew)


@given(st.integers(0, 8))
def test_fq_roundtrip_F9(log_plus):
    F9 = finite_field(3, 2)
    x = F9.zero if log_plus == 8 else F9.element(log_plus)
    assert parse_fq(F9, str(x)) == x


@given(st.lists(st.integers(0, 4), max_size=6))
def test_apoly_roundtrip_F5(coeffs):
    F5 = finite_field(5)
    f = apoly(F5, coeffs)
    assert parse_apoly(F5, str(f)) == f


@given(st.lists(st.integers(0, 3), max_size=5))
def test_apoly_roundtrip_F4(logs):
    F4 = finite_field(2, 2)
    f = apoly(F4, [F4.zero if l == 3 else F4.element(l) for l in logs])
    assert parse_apoly(F4, str(f)) == f


def test_grammar_example(F3):
    f = parse_apoly(F3, "T^2+2*T+1")
    assert f.degree == 2 and str(f) == "T^2+2*T+1"


def test_local_roundtrip(place_T):
    ring = local_ring(place_T, 2)
    for x in ring.elements():
        assert parse_local(place_T, str(x)) == x


def test_local_modulus_mismatch(F3, place_T):
    with pytest.raises(ParseError):
        parse_local(place_T, "T+1 mod (T^2+1)^2")


def test_skew_roundtrip(ext9, artin9):
    # over a field, and over an Artinian ring (units and eps terms mixed)
    for ring, step in ((ext9, 1), (artin9, 20)):
        els = list(ring.elements())[::step][:4]
        for c0 in els:
            for c1 in els:
                u = SkewPoly(ring, [c0, c1, ring.one])
                assert parse_skew(ring, str(u)) == u


def test_artin_roundtrip(artin9):
    for x in list(artin9.elements())[:30]:
        assert parse_artin(artin9, str(x)) == x


def test_parser_rejects_garbage(F3):
    with pytest.raises(ParseError):
        parse_apoly(F3, "T^")
    with pytest.raises(ParseError):
        parse_apoly(F3, "T + % + 1")
    with pytest.raises(ParseError):
        parse_apoly(F3, "X^2")
