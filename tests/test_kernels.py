"""The coefficient kernels against element-by-element reference loops.

`FiniteField` computes sums, negatives, truncated and twisted products and
right division of coefficient tuples on Zech logarithms; rings whose
elements are not field elements keep the loops over their elements' own
operators.  The reference loops below are the per-coefficient `FFElement`
arithmetic the kernels replaced, kept here as the oracle.
"""

import itertools
import random
from itertools import zip_longest

import pytest

import drinfeld.modules
from drinfeld.basearith import (ArtinRing, FFElement, TruncPoly, ext_field,
                                finite_field, join_terms, local_ring, poly_T)
from drinfeld.carlitz import TruncSeriesRing
from drinfeld.modules import DrinfeldModule
from drinfeld.serretate import constant_lift, lift_independence_check
from drinfeld.skew import SkewPoly, right_divide


# -- reference loops -----------------------------------------------------------

def _trim(out):
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def ref_add(zero, a, b):
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=zero)])


def ref_mul(zero, a, b, n=None, qpow=None):
    """sum(a_i * qpow(b_j, i) x^(i+j)) cut at x^n; no twist without qpow."""
    if not a or not b:
        return ()
    size = len(a) + len(b) - 1 if n is None else min(n, len(a) + len(b) - 1)
    out = [zero] * size
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < size:
                out[i + j] = out[i + j] + x * (y if qpow is None else qpow(y, i))
    return _trim(out)


def ref_divmod(zero, u, v, qpow):
    """The schoolbook right division u = quot*v + rem of twisted
    polynomials."""
    dv, dq = len(v) - 1, len(u) - len(v)
    if dq < 0:
        return (), tuple(u)
    lc_inv = v[-1].inverse()
    rem, quot = list(u), [zero] * (dq + 1)
    for k in range(dq, -1, -1):
        c = quot[k] = rem[k + dv] * qpow(lc_inv, k)
        for j, b in enumerate(v):
            rem[k + j] = rem[k + j] - c * qpow(b, k)
    return _trim(quot), _trim(rem[:dv])


def _trimmed_tuples(elems, max_len):
    """Every coefficient tuple of length <= max_len with a nonzero top."""
    out = [()]
    for length in range(1, max_len + 1):
        for low in itertools.product(elems, repeat=length - 1):
            out.extend(low + (top,) for top in elems[1:])
    return out


# -- field kernels, exhaustively ----------------------------------------------

def _product_rows(a, twists):
    """For each coefficient a_i, the products a_i * y^(q^i) of the
    schoolbook product, indexed by y.log + 1: the row twists[i] holds
    y^(q^i) in that order."""
    return [[x * y for y in row] for x, row in zip(a, twists)]


def _ref_product(zero, rows, b):
    if not rows or not b:
        return ()
    out = [zero] * (len(rows) + len(b) - 1)
    for j, y in enumerate(b):
        for i, row in enumerate(rows):
            out[i + j] = out[i + j] + row[y.log + 1]
    return _trim(out)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_field_kernels_match_reference_exhaustively(p, n):
    f = finite_field(p, n)
    tuples = _trimmed_tuples(f.elems, 3)
    assert len(tuples) == sum(f.q ** k for k in range(3)) * (f.q - 1) + 1
    untwisted = [f.elems] * 3
    for a in tuples:
        assert f.neg_coeffs(a) == tuple(-x for x in a)
        rows = _product_rows(a, untwisted)
        for b in tuples:
            assert f.add_coeffs(a, b) == ref_add(f.zero, a, b)
            full = _ref_product(f.zero, rows, b)
            assert f.mul_coeffs(a, b) == full
            for N in (1, 2, 3):
                assert f.mul_coeffs(a, b, N) == _trim(list(full[:N]))


@pytest.mark.parametrize("m", [1, 2])
def test_twisted_product_and_right_division_exhaustively(m, place_TT1, place_T):
    """Degree <= 2 over F_4 (q = 2) and F_9 (q = 3): the twisted product
    and the right division of every pair."""
    ring = ext_field(place_TT1, 1) if m == 1 else ext_field(place_T, 2)
    assert (ring.size, ring.q) == ((4, 2) if m == 1 else (9, 3))
    elems, zero, q = ring.field.elems, ring.zero, ring.q
    twists = [[ring.qpow(y, i) for y in elems] for i in range(3)]
    assert twists[1][2] != elems[2]  # the twist is not the identity
    qpow = lambda y, i: twists[i][y.log + 1]  # noqa: E731
    tuples = _trimmed_tuples(elems, 3)
    for a in tuples:
        rows = _product_rows(a, twists)
        for b in tuples:
            assert ring.mul_coeffs(a, b, None, q) == _ref_product(zero, rows, b)
            if b:
                assert ring.divmod_coeffs(a, b, q) == ref_divmod(zero, a, b, qpow)
    a, b = tuples[-1], tuples[-2]
    assert ref_mul(zero, a, b, qpow=ring.qpow) == \
        _ref_product(zero, _product_rows(a, twists), b)


def test_polynomial_division_is_the_untwisted_kernel(F3):
    """`APoly.divmod` is the same division with the twist 1."""
    tuples = _trimmed_tuples(F3.elems, 3)
    ident = lambda x, i: x  # noqa: E731
    for a, b in itertools.product(tuples, repeat=2):
        if b:
            assert F3.divmod_coeffs(a, b) == ref_divmod(F3.zero, a, b, ident)


# -- element-by-element rings keep their results ------------------------------

def test_truncated_series_over_an_artin_ring_unchanged(artin9):
    """The carlitz series rings R[X]/(X^N) over an ArtinRing R."""
    S = TruncSeriesRing(artin9, 10)
    rng = random.Random(3)
    els = list(artin9.elements())
    sample = [TruncPoly(S, [rng.choice(els) for _ in range(rng.randrange(12))])
              for _ in range(40)]
    for x, y in zip(sample, sample[1:] + sample[:1]):
        assert (x * y).coeffs == ref_mul(artin9.zero, x.coeffs, y.coeffs, S.N)
        assert (x + y).coeffs == ref_add(artin9.zero, x.coeffs, y.coeffs)
        assert (x - y).coeffs == ref_add(artin9.zero, x.coeffs,
                                         tuple(-c for c in y.coeffs))


def test_skew_polynomials_over_an_artin_ring_unchanged(place_T):
    """The serre-tate twisted polynomials, over k'[eps]/(eps^2)."""
    R = ArtinRing(place_T, 2, 2)
    rng = random.Random(5)
    els = list(R.elements())
    sample = [SkewPoly(R, [rng.choice(els) for _ in range(rng.randrange(1, 5))])
              for _ in range(30)]
    for u, v in zip(sample, sample[1:] + sample[:1]):
        assert (u * v).coeffs == ref_mul(R.zero, u.coeffs, v.coeffs, qpow=R.qpow)


# -- guards against a silent revert -------------------------------------------

def _count_element_arithmetic(monkeypatch):
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__neg__"):
        orig = getattr(FFElement, name)

        def counted(*args, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(FFElement, name, counted)
    return calls


def test_products_over_a_field_make_no_element_calls(monkeypatch, place_T,
                                                     place_TT1):
    R = local_ring(place_TT1, 3)
    x, y = R.gamma_T + R.eps, R.gamma_T * R.eps + R.one
    ext = ext_field(place_T, 2)
    g = ext.field.gen()
    u = SkewPoly(ext, [g, g * g, ext.one])
    v = SkewPoly(ext, [ext.one, g])
    T = poly_T(ext.field)
    calls = _count_element_arithmetic(monkeypatch)
    _ = (x * y, x + y, x - y, -x, u + v, u - v, T ** 3 % (T + 1))
    quot, rem = right_divide(u * v + v, v)
    assert (quot, rem) == (u + 1, SkewPoly(ext, []))
    assert calls == []
    # the counters see element arithmetic when there is some
    _ = g * g + g
    assert calls == ["__mul__", "__add__"]


def test_lift_independence_evaluates_each_action_once(monkeypatch, place_T):
    """Each `(module, a)` action is computed once per module instance."""
    evaluated = []
    orig = drinfeld.modules.action_eval

    def counted(a, action):
        evaluated.append((a, action))
        return orig(a, action)
    monkeypatch.setattr(drinfeld.modules, "action_eval", counted)
    ext = ext_field(place_T, 2)
    E0 = DrinfeldModule(ext, ext.one, ext.one)
    assert E0.is_ordinary()
    rep = lift_independence_check(constant_lift(E0, ArtinRing(place_T, 2, 2), 1))
    assert rep.ok and rep.perturbations_checked > 0
    # varpi = T here, so phi(1) and phi(T) on E0 and on its lift E
    assert len(evaluated) == len(set(evaluated)) == 4


# -- element texts -------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 4), (3, 4)])
def test_element_text_is_its_terms(p, n):
    f = finite_field(p, n)
    for x in f.elements():
        vec = x.coeffs()
        text = join_terms(((i, str(vec[i])) for i in reversed(range(n))), "a")
        assert str(x) == text
        assert str(x) is str(x)  # built once per element
