import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.basearith import finite_field, poly_T
from drinfeld.skew import (PolyRing, SkewPoly, kernel_points, right_divide,
                           stable_right_divisors, tau)


def _skew(ext, logs):
    return SkewPoly(ext, [ext.field.zero if l < 0 else ext.field.element(l)
                          for l in logs])


skew_logs = st.lists(st.integers(-1, 7), min_size=0, max_size=4)


def test_defining_relation(ext9):
    t = tau(ext9)
    for c in ext9.elements():
        assert t * SkewPoly(ext9, [c]) == SkewPoly(ext9, [ext9.zero, c ** 3])


def test_product_example(ext9, F3):
    one = ext9.one
    u = SkewPoly(ext9, [one, one])                  # 1 + t
    v = SkewPoly(ext9, [ext9.zero, one, one])       # t + t^2
    two = ext9.embed_fq(F3.from_int(2))
    assert u * v == SkewPoly(ext9, [ext9.zero, one, two, one])


def test_identity_and_units(ext9):
    u = _skew(ext9, [2, 5, 1])
    one = SkewPoly(ext9, [ext9.one])
    assert u * one == u and one * u == u


@settings(max_examples=60)
@given(skew_logs, skew_logs, st.integers(0, 8))
def test_mul_is_composition_of_maps(a, b, xlog):
    ext = __import__("drinfeld.basearith", fromlist=["ext_field"]) \
        .ext_field(_place3(), 2)
    u, v = _skew(ext, a), _skew(ext, b)
    x = ext.field.zero if xlog == 8 else ext.field.element(xlog)
    assert (u * v).eval(x) == u.eval(v.eval(x))


def _place3():
    from drinfeld.basearith import make_place
    return make_place(poly_T(finite_field(3)))


@settings(max_examples=200, deadline=None)
@given(skew_logs, skew_logs, skew_logs)
def test_associative_distributive(a, b, c):
    from drinfeld.basearith import ext_field
    ext = ext_field(_place3(), 2)
    u, v, w = (_skew(ext, x) for x in (a, b, c))
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w


def test_eval_is_linear_over_base(ext9, F3):
    rng = random.Random(5)
    els = list(ext9.elements())
    for _ in range(50):
        u = SkewPoly(ext9, [rng.choice(els) for _ in range(3)])
        x, y = rng.choice(els), rng.choice(els)
        assert u.eval(x + y) == u.eval(x) + u.eval(y)
        for c in F3.elements():
            ec = ext9.embed_fq(c)
            assert u.eval(ec * x) == ec * u.eval(x)


@settings(max_examples=80)
@given(skew_logs, skew_logs)
def test_right_divide_roundtrip(a, b):
    from drinfeld.basearith import ext_field
    ext = ext_field(_place3(), 2)
    u, v = _skew(ext, a), _skew(ext, b)
    if v.is_zero():
        with pytest.raises(ZeroDivisionError):
            right_divide(u, v)
        return
    q, r = right_divide(u, v)
    assert q * v + r == u
    assert r.is_zero() or r.degree < v.degree


def test_right_divide_examples(ext9):
    t = tau(ext9)
    q, r = right_divide(t * t, t)
    assert q == t and r.is_zero()
    u = _skew(ext9, [3, 1, 5])
    q, r = right_divide(u, u)
    assert q == SkewPoly(ext9, [ext9.one]) and r.is_zero()
    # division by 1 + t leaves a remainder here; the roundtrip is exact
    v = SkewPoly(ext9, [ext9.one, ext9.one])
    w = SkewPoly(ext9, [ext9.zero, ext9.one, ext9.one])
    q, r = right_divide(w, v)
    assert q * v + r == w and r.degree < v.degree


def test_kernel_points_examples(ext9):
    t = tau(ext9)
    assert kernel_points(t, ext9) == [ext9.zero]

    pts = kernel_points(SkewPoly(ext9, [ext9.one, ext9.one]), ext9)
    i = next(x for x in ext9.elements() if x * x == -ext9.one and x)
    assert set(pts) == {ext9.zero, i, -i}

    assert kernel_points(t * t, ext9) == [ext9.zero]


def test_separable_kernel_is_vector_space(ext9):
    # q^n points for separable of twist degree n over a splitting field
    rng = random.Random(2)
    els = [x for x in ext9.elements() if x]
    for _ in range(10):
        u = SkewPoly(ext9, [rng.choice(els), ext9.one])  # separable, deg 1
        pts = kernel_points(u, ext9)
        assert len(pts) in (1, 3)
        if len(pts) == 3:
            for x, y in itertools.product(pts, repeat=2):
                assert (x + y) in pts


def test_stable_divisors_supersingular(ext9):
    phi = SkewPoly(ext9, [ext9.zero, ext9.zero, ext9.one])  # g=0, delta=1
    out = stable_right_divisors(phi, phi, 1)
    assert out == [tau(ext9)]


def test_stable_divisors_ordinary(ext9):
    phi = SkewPoly(ext9, [ext9.zero, ext9.one, ext9.one])  # g=1, delta=1
    out = stable_right_divisors(phi, phi, 1)
    assert set(out) == {tau(ext9), SkewPoly(ext9, [ext9.one, ext9.one])}


def test_stable_divisors_degree_zero(ext9):
    phi = SkewPoly(ext9, [ext9.zero, ext9.one, ext9.one])
    assert stable_right_divisors(phi, phi, 0) == [SkewPoly(ext9, [ext9.one])]


def test_symbolic_ring_square(F3):
    ring = PolyRing(F3)
    T = ring.gamma_T
    ct = SkewPoly(ring, [T, ring.one])
    sq = ct * ct
    assert sq.coefficient(0) == T * T
    assert sq.coefficient(1) == T ** 3 + T
    assert sq.coefficient(2) == ring.one


@pytest.mark.parametrize("ring_name", ["ext9", "artin9", "poly3"])
def test_int_coercion_over_every_coefficient_ring(request, ring_name):
    ring = (PolyRing(finite_field(3)) if ring_name == "poly3"
            else request.getfixturevalue(ring_name))
    one = SkewPoly(ring, [ring.one])
    u = SkewPoly(ring, [ring.gamma_T, ring.one])
    assert u + 2 == 2 + u == u + one + one
    assert u * 2 == 2 * u == u + u
    assert u - 1 == u - one
    assert (3 * u).is_zero()  # characteristic 3


def test_division_over_A_needs_constant_lead(F3):
    # right division is defined over a field base only, whatever the
    # leading coefficient of the divisor
    ring = PolyRing(F3)
    T = ring.gamma_T
    u = SkewPoly(ring, [T, T + 1, T * T, ring.one])
    for v in (SkewPoly(ring, [T, ring.from_int(2)]), SkewPoly(ring, [ring.one, T])):
        with pytest.raises(ValueError, match="requires a field base"):
            right_divide(u, v)


def test_division_over_artin_needs_unit_lead(artin9):
    u = SkewPoly(artin9, [artin9.one, artin9.one, artin9.one])
    for lead in (artin9.eps, artin9.one):  # nilpotent and unit leading
        with pytest.raises(ValueError, match="requires a field base"):
            right_divide(u, SkewPoly(artin9, [artin9.one, lead]))
