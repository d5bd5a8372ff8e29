import ast
import itertools
import operator
import random
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from drinfeld.basearith import (APoly, ArtinRing, CoeffTuple, FFElement,
                                FiniteField, LocalRing, TruncPoly, ext_field,
                                finite_field, local_ring, make_place, poly_T,
                                power)
import drinfeld
from drinfeld.carlitz import TruncSeriesRing
from drinfeld.iwasawa import iwasawa_level
from drinfeld.projector import MatrixCodes, mat_pow, mat_sparse
from drinfeld.skew import SkewPoly


# -- fields -------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_field_axioms_exhaustive(p, n):
    f = finite_field(p, n)
    els = list(f.elements())
    assert len(els) == p ** n
    for a, b, c in itertools.product(els[: min(len(els), 5)], repeat=3):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
        assert a + (-a) == f.zero


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_frobenius_is_automorphism(p, n):
    f = finite_field(p, n)
    els = list(f.elements())
    for a in els:
        assert a ** f.q == a
    for a, b in itertools.product(els[:7], repeat=2):
        assert (a + b) ** p == a ** p + b ** p


def test_inverse(F9):
    for a in F9.units():
        assert a * a.inverse() == F9.one
    with pytest.raises(ZeroDivisionError):
        F9.zero.inverse()


def test_subfield_embedding(F3, F9):
    emb = F9.embedding_from(F3)
    for a, b in itertools.product(F3.elements(), repeat=2):
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)
    assert emb(F3.one) == F9.one


# -- interned arithmetic against coordinates ----------------------------------

SMALL_FIELDS = [(p, n) for p in range(2, 82) for n in range(1, 7)
                if all(p % d for d in range(2, p)) and p ** n <= 81]


def _coord_mul(f, u, v):
    """The product of two coordinate vectors as polynomials in the field
    generator, reduced by the monic `f.modulus`."""
    p, n = f.p, f.n
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] = (prod[i + j] + a * b) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        for i in range(n + 1):
            prod[k - n + i] = (prod[k - n + i] - c * f.modulus[i]) % p
    return tuple(prod[:n])


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_interned_arithmetic_matches_coordinates(p, n):
    """Every operation on every pair of elements of F_{p^n}, p^n <= 81,
    agrees with arithmetic on coordinate vectors and returns the field's
    own interned element."""
    f = finite_field(p, n)
    els = f.elems
    assert len(els) == f.q and list(f.elements()) == els
    assert [x.log for x in els] == list(range(-1, f.order))
    coords = {x: x.coeffs() for x in els}
    element_at = {v: x for x, v in coords.items()}
    assert len(element_at) == f.q
    zero, one = (0,) * n, (1,) + (0,) * (n - 1)
    assert coords[f.zero] == zero and coords[f.one] == one

    def interned(x):
        assert x is els[x.log + 1]
        return coords[x]

    for x in els:
        u = coords[x]
        assert interned(-x) == tuple(-a % p for a in u)
        if x:
            assert _coord_mul(f, interned(x.inverse()), u) == one
        for y in els:
            v = coords[y]
            assert (x == y) is (x is y) and (x != y) is (x is not y)
            assert interned(x + y) == tuple((a + b) % p for a, b in zip(u, v))
            assert interned(x - y) == tuple((a - b) % p for a, b in zip(u, v))
            assert interned(x * y) == _coord_mul(f, u, v)
            if y:
                assert _coord_mul(f, interned(x / y), v) == u
        # x^e by repeated coordinate products, e = 0..q+1; x^-e inverts it
        acc = one
        for e in range(f.q + 2):
            assert interned(x ** e) == acc
            if x and e <= 3:
                assert _coord_mul(f, interned(x ** -e), acc) == one
            acc = _coord_mul(f, acc, u)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()
    for e in (-3, -2, -1):
        with pytest.raises(ZeroDivisionError):
            f.zero ** e
    for k in range(-3, 2 * f.order):
        assert f.element(k) is (els[k % f.order + 1] if k >= 0 else f.zero)
    assert list(f.units()) == els[1:]
    assert f.gen() is (els[2] if f.q > 2 else f.one)


def test_interned_elements_use_identity_equality_and_hash():
    """Equality and hashing are the object defaults, so coefficient tuples
    and the codecs' dict lookups compare and hash without a Python frame
    per element."""
    for cls in (FFElement, TruncPoly):
        assert cls.__eq__ is object.__eq__, cls
        assert cls.__ne__ is object.__ne__, cls
        assert cls.__hash__ is object.__hash__, cls


def _interning_rings():
    F2, F3 = finite_field(2), finite_field(3)
    T2, T3 = poly_T(F2), poly_T(F3)
    places = (make_place(T3), make_place(T2 ** 2 + T2 + 1))
    return ([local_ring(place, n) for place in places for n in (1, 2, 3)]
            + [ArtinRing(places[0], 2, 2)])


@pytest.mark.parametrize("R", _interning_rings(), ids=repr)
def test_truncated_ring_values_are_single_objects(R):
    """Whichever route reaches a value, it is the ring's one object for it:
    a == b, a is b and a.coeffs == b.coeffs agree on every pair."""
    els = list(R.elements())
    assert len(els) == R.size
    reached = list(els)
    reached += [R.from_coeff(c) for c in R.coeff_ring.elements()]
    reached += [R.from_int(c) for c in range(-4, 5)]
    field = R.place.field
    for coeffs in itertools.product(field.elements(), repeat=R.N * R.place.d):
        reached.append(R.gamma_eval(APoly(field, coeffs)))
        if isinstance(R, LocalRing):
            reached.append(R.from_apoly(APoly(field, coeffs)))
    if isinstance(R, LocalRing):
        reached += [R.reduce(x) for x in els]
        reached += [R.reduce(x) for x in local_ring(R.place, R.N + 1).elements()]
    for a, b in itertools.product(els, repeat=2):
        reached += [a + b, a - b, a * b]
    for x in els:
        reached += [-x, x ** 0, x ** 1, x ** 3, x ** R.size]
        if x.is_unit():
            reached += [x.inverse(), x ** -1, x ** -2]
        for k in range(1, x.varpi_valuation() + 1):
            reached.append(x.eps_quotient(k))
    one_per_value = {}
    for x in reached:
        assert type(x) is TruncPoly and x.ring is R
        assert one_per_value.setdefault(x.coeffs, x) is x, x
        assert hash(x) == object.__hash__(x)
    assert len(one_per_value) == R.size == len(R.interned)
    assert all(R.interned[x.coeffs] is x for x in els)
    for a, b in itertools.product(els, repeat=2):
        assert (a == b) == (a is b) == (a.coeffs == b.coeffs)
        assert (a != b) != (a is b)


def _element_constructions(source: str) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of every `FFElement(...)` call and
    every `__new__(FFElement, ...)` in a module's source."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            first = node.args[0] if node.args else None
            if name == "FFElement" or (
                    name == "__new__" and
                    getattr(first, "id", getattr(first, "attr", None))
                    == "FFElement"):
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_the_field_constructs_elements():
    """Equality of field elements is identity, so an element built anywhere
    but `FiniteField.__init__` would silently differ from its equal."""
    strays = []
    for path in sorted(Path(drinfeld.__file__).parent.glob("*.py")):
        for scope, line in _element_constructions(path.read_text()):
            if scope != "FiniteField.__init__" or path.name != "basearith.py":
                strays.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert not strays, f"FFElement constructed outside the field: {strays}"
    # the scan sees the one legitimate construction, and strays of each form
    basearith = Path(drinfeld.__file__).parent / "basearith.py"
    assert [scope for scope, _ in _element_constructions(
        basearith.read_text())] == ["FiniteField.__init__"]
    stray = ("class FiniteField:\n    def gen(self):\n"
             "        return FFElement(self, 1)\n"
             "def f(k):\n    return basearith.FFElement(k, 0)\n"
             "x = object.__new__(FFElement)\n")
    assert _element_constructions(stray) == [
        ("FiniteField.gen", 3), ("f", 5), ("", 6)]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 3), (5, 2), (79, 1)])
def test_ints_coerce_mod_p(p, n):
    f = finite_field(p, n)
    for c in range(-2 * p, 2 * p + 1):
        x = f.from_int(c)
        assert x is f.coerce(c) and x.coeffs() == (c % p,) + (0,) * (n - 1)
        for y in (f.zero, f.one, f.elems[-1]):
            assert y + c is y + x and c + y is y + x
            assert y - c is y - x and c - y is x - y
            assert y * c is y * x and c * y is y * x


def test_mixing_fields_raises():
    """An element of another field, even one of the same order built
    separately, is refused; a non-integer of another type too."""
    f, g = finite_field(3, 2), finite_field(3)
    twin = FiniteField(3, 2)
    for other in (g, twin):
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            with pytest.raises(ValueError):
                op(f.one, other.one)
    with pytest.raises(ValueError):
        f.embedding_from(g)(twin.one)
    for bad in (1.0, "1", None):
        with pytest.raises(TypeError):
            f.one + bad


# -- polynomials --------------------------------------------------------------

coeff_lists = st.lists(st.integers(0, 2), min_size=0, max_size=6)


@given(coeff_lists, coeff_lists, coeff_lists, st.integers(-4, 4))
def test_apoly_ring_axioms(a, b, c, k):
    F3 = finite_field(3)
    pa, pb, pc = (APoly(F3, x) for x in (a, b, c))
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa + pb == pb + pa
    assert (pa - pb) + pb == pa and pa - pa == APoly(F3, [])
    assert k - pa == APoly(F3, [k]) - pa == -(pa - k) and k + pa == pa + k
    assert hash(pa) == hash((id(F3), pa.coeffs))


_CORE_MEMBERS = ("degree", "is_zero", "__bool__", "coefficient",
                 "is_monic", "__add__", "__radd__", "__neg__", "__sub__",
                 "__rsub__")
_STRUCTURAL_MEMBERS = ("_raw", "__eq__", "__hash__")


def test_polynomials_share_one_coefficient_tuple_core():
    """A = F_q[T], the truncated rings and R{t} have one set of sums,
    negatives, degrees and coefficients: none of their classes copies it.
    APoly and SkewPoly also keep the core's construction, equality and
    hashing on the coefficient tuple, as their rings are infinite;
    TruncPoly replaces those three by its ring's intern table."""
    for cls in (APoly, TruncPoly, SkewPoly):
        assert issubclass(cls, CoeffTuple)
        assert not set(_CORE_MEMBERS) & set(cls.__dict__), cls
    for cls in (APoly, SkewPoly):
        assert not set(_STRUCTURAL_MEMBERS) & set(cls.__dict__), cls
    assert set(_STRUCTURAL_MEMBERS) <= set(TruncPoly.__dict__)
    assert APoly.__add__ is CoeffTuple.__add__
    assert SkewPoly.is_monic is CoeffTuple.is_monic
    F3 = finite_field(3)
    T = poly_T(F3)
    assert T.field is F3 and 3 - T == 2 * T and (T + 1).is_monic()


def test_apoly_equality_and_mixing(place_T):
    """APolys are equal only over the same field object; mixed with a
    truncated-ring element or a string they raise TypeError either way."""
    F3 = finite_field(3)
    T, twin = poly_T(F3), poly_T(FiniteField(3, 1))
    assert T == place_T.varpi and T != twin and APoly(F3, [1]) != 1
    with pytest.raises(ValueError):
        T + twin
    x = local_ring(place_T, 2).one
    assert T != x and x != T
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((T, x), (x, T), (T, "x")):
            with pytest.raises(TypeError):
                op(left, right)


@given(coeff_lists, coeff_lists)
def test_apoly_divmod_roundtrip(a, b):
    F3 = finite_field(3)
    pa, pb = APoly(F3, a), APoly(F3, b)
    if pb.is_zero():
        return
    q, r = pa.divmod(pb)
    assert q * pb + r == pa
    assert r.is_zero() or r.degree < pb.degree


def test_qpow_agrees_with_pow(F3):
    T = poly_T(F3)
    f = T ** 2 + 2 * T + 1
    assert f.qpow(3) == f ** 3
    assert f.qpow(9) == f ** 9


# -- places -------------------------------------------------------------------

def test_make_place_degree_one(F3):
    assert make_place(poly_T(F3)).d == 1


def test_make_place_no_roots(F2):
    T = poly_T(F2)
    assert make_place(T ** 2 + T + 1).d == 2


def test_make_place_nonsquare_oracle(F3):
    # -1 is not a square in F_3, by enumeration
    squares = {x * x for x in F3.elements()}
    assert -F3.one not in squares
    T = poly_T(F3)
    assert make_place(T ** 2 + 1).d == 2


def test_make_place_rejects_non_monic(F3):
    T = poly_T(F3)
    with pytest.raises(ValueError, match="monic"):
        make_place(2 * T + 1)


def test_make_place_rejects_reducible_with_witness(F3):
    T = poly_T(F3)
    with pytest.raises(ValueError, match="divisible by"):
        make_place(T ** 2 + 2)  # (T+1)(T+2)


# -- local rings --------------------------------------------------------------

def test_from_apoly_examples(F3, place_T):
    T = poly_T(F3)
    L2 = local_ring(place_T, 2)
    assert L2.from_apoly(T ** 3).is_zero()
    assert L2.to_apoly(L2.from_apoly(T ** 3 + T)) == T

    place_c = make_place(T ** 2 + 1)
    L1 = local_ring(place_c, 1)
    r = L1.to_apoly(L1.from_apoly(T ** 2 + T + 2))
    assert r == T + 1
    # re-multiplication oracle: a = q*varpi + r with q found independently
    assert (T ** 2 + T + 2) - r == place_c.varpi


@given(coeff_lists, coeff_lists)
def test_from_apoly_is_ring_hom(a, b):
    F3 = finite_field(3)
    place = make_place(poly_T(F3) ** 2 + 1)
    pa, pb = APoly(F3, a), APoly(F3, b)
    for n in (1, 2):
        ring = local_ring(place, n)
        assert ring.from_apoly(pa * pb) == \
            ring.from_apoly(pa) * ring.from_apoly(pb)
        assert ring.from_apoly(pa + pb) == \
            ring.from_apoly(pa) + ring.from_apoly(pb)


def test_mixed_precisions_raise(place_T):
    x = local_ring(place_T, 3).from_int(1)
    y = local_ring(place_T, 2).from_int(1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(x, y)


def test_local_inverse(place_T):
    ring = local_ring(place_T, 3)
    for u in ring.units():
        assert u * u.inverse() == ring.one
    with pytest.raises(ZeroDivisionError):
        ring.varpi.inverse()


def test_teichmuller(place_T):
    ring = local_ring(place_T, 3)
    qd = place_T.q ** place_T.d
    for u in ring.units():
        t = ring.teichmuller(u)
        assert t ** qd == t
        assert (t - u).varpi_valuation() >= 1


# -- field extensions ---------------------------------------------------------

def test_ext_field_sizes(place_T):
    assert ext_field(place_T, 1).size == 3
    assert ext_field(place_T, 2).size == 9
    assert ext_field(place_T, 1).gamma_T.is_zero()
    assert ext_field(place_T, 2).gamma_T.is_zero()


def test_ext_field_root_of_varpi(place_TT1):
    e = ext_field(place_TT1, 1)
    assert e.size == 4
    g = e.gamma_T
    assert g ** 2 == g + e.one  # the F_4 generator relation
    assert e.gamma_eval(place_TT1.varpi).is_zero()


def test_gamma_vanishes_exactly_when_char_p(place_TT1):
    for m in (1, 2):
        assert ext_field(place_TT1, m).gamma_eval(place_TT1.varpi).is_zero()


# -- Artinian rings -----------------------------------------------------------

def test_artin_varpi_power_vanishes(place_T, place_TT1):
    for place, m in ((place_T, 2), (place_TT1, 1)):
        for n in (2, 3):
            R = ArtinRing(place, m, n)
            v = R.gamma_eval(place.varpi)
            assert v == R.eps
            assert (v ** n).is_zero()
            assert not (v ** (n - 1)).is_zero()


def test_artin_ring_axioms_exhaustive():
    F2 = finite_field(2)
    place = make_place(poly_T(F2))
    R = ArtinRing(place, 1, 3)  # F_2[eps]/(eps^3), 8 elements
    els = list(R.elements())
    assert len(els) == 8
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_artin_units_and_maximal_ideal(artin9):
    for x in artin9.elements():
        if x.is_unit():
            assert x * x.inverse() == artin9.one
        else:
            assert x.in_maximal_ideal()
    ideal = list(artin9.maximal_ideal())
    assert len(ideal) == 9  # eps * F_9


def test_artin_qpow_is_square_and_multiply(place_T, place_TT1):
    # the coefficient map x -> sum c_j^(q^e) eps^(j q^e) against x ** q^e
    small = [ArtinRing(place_T, 1, 2), ArtinRing(place_T, 1, 4),
             ArtinRing(place_TT1, 1, 3), local_ring(place_T, 3)]
    for R in small:
        for x in R.elements():
            for e in range(4):
                assert R.qpow(x, e) is x ** (R.q ** e), (R, x, e)
    rng = random.Random(12)
    for place, m in ((place_T, 2), (place_TT1, 1)):
        R = ArtinRing(place, m, 12)
        coeffs = list(R.coeff_ring.elements())
        for _ in range(30):
            x = TruncPoly(R, [rng.choice(coeffs) for _ in range(12)])
            for e in range(4):
                assert R.qpow(x, e) is x ** (R.q ** e), (R, x, e)


def _padded(x):
    """The coefficients of a truncated element, padded to its ring's N."""
    ring = x.ring
    return list(x.coeffs) + [ring.coeff_ring.zero] * (ring.N - len(x.coeffs))


def _assert_matches_naive(x, y):
    # oracle: padded coefficient lists, the schoolbook product cut at N
    a, b = _padded(x), _padded(y)
    N, zero = x.ring.N, x.ring.coeff_ring.zero
    prod = [zero] * N
    for i in range(N):
        for j in range(N - i):
            prod[i + j] = prod[i + j] + a[i] * b[j]
    assert _padded(x + y) == [u + v for u, v in zip(a, b)]
    assert _padded(x - y) == [u - v for u, v in zip(a, b)]
    assert _padded(x * y) == prod


def _series_sample(S, rng, count):
    els = list(S.coeff_ring.elements())
    # lengths beyond N exercise the cut, short ones the trimming
    return [TruncPoly(S, [rng.choice(els) for _ in range(rng.randrange(12))])
            for _ in range(count)]


def test_truncated_ring_matches_naive_polynomials(artin9):
    R = ArtinRing(make_place(poly_T(finite_field(2))), 1, 3)
    els = list(R.elements())
    assert len(els) == 8 and len(set(els)) == 8
    for x, y in itertools.product(els, repeat=2):
        _assert_matches_naive(x, y)
    S = TruncSeriesRing(artin9, 10)
    sample = _series_sample(S, random.Random(0), 24)
    for x, y in zip(sample, sample[1:] + sample[:1]):
        _assert_matches_naive(x, y)


def test_truncated_units_invert(artin9):
    R = ArtinRing(make_place(poly_T(finite_field(2))), 1, 3)
    S = TruncSeriesRing(artin9, 10)
    for ring, units in ((R, [x for x in R.elements() if x.is_unit()]),
                        (artin9, [x for x in artin9.elements() if x.is_unit()]),
                        (S, [x for x in _series_sample(S, random.Random(1), 40)
                             if x.is_unit()])):
        assert units
        for x in units:
            assert x * x.inverse() == ring.one
        with pytest.raises(ZeroDivisionError):
            ring.zero.inverse()
    assert (S.one + S.X) ** -1 * (S.one + S.X) == S.one
    assert (S.one + S.X) ** -2 == ((S.one + S.X) ** 2).inverse()


def test_local_ring_axioms_exhaustive(place_T):
    # full ring axioms at precisions up to 3 over the degree-1 place
    for n in (2, 3):
        ring = local_ring(place_T, n)
        els = list(ring.elements())
        sample = els[:: max(1, len(els) // 8)]
        for a in sample:
            for b in sample:
                assert a + b == b + a
                assert a * b == b * a
                for c in sample:
                    assert (a + b) + c == a + (b + c)
                    assert a * (b + c) == a * b + a * c
                    assert (a * b) * c == a * (b * c)


# -- powers -------------------------------------------------------------------

def _power_cases(place_T, ext9, artin9):
    """(x, one, product, power) for every ring type with a power."""
    F3 = place_T.field
    L2, L3 = local_ring(place_T, 2), local_ring(place_T, 3)
    series = TruncSeriesRing(artin9, 10)
    lv = iwasawa_level(place_T, 2)
    a9 = artin9.from_coeff(ext9.field.gen())
    mats = MatrixCodes(L2.codes(), 3)
    mat = mats.encode_matrix(mat_sparse(
        [[L2.from_apoly(APoly(F3, [i + j, 1, i * j])) for j in range(3)]
         for i in range(3)]))
    elements = [
        (APoly(F3, [1, 2, 1]), APoly(F3, [1])),
        (L3.from_apoly(APoly(F3, [1, 1, 2])), L3.one),
        (a9 + artin9.eps, artin9.one),
        (SkewPoly(ext9, [ext9.field.gen(), ext9.one]), SkewPoly(ext9, [ext9.one])),
        (lv.random_element(random.Random(0)) + lv.one, lv.one),
        (TruncPoly(series, [artin9.one, artin9.eps, a9]), series.one),
    ]
    return [(x, one, operator.mul, operator.pow) for x, one in elements] + [
        (mat, mats.one, lambda x, y: mats.prods[x][y],
         lambda x, e: mat_pow(x, e, mats))]


def test_power_matches_repeated_product(place_T, ext9, artin9):
    for x, one, mul, pow_fn in _power_cases(place_T, ext9, artin9):
        for e in range(10):
            assert pow_fn(x, e) == reduce(mul, [x] * e, one), (type(x), e)


def test_power_rejects_negative_exponents(place_T, artin9):
    with pytest.raises(ValueError):
        power(2, -1, 1)
    with pytest.raises(ZeroDivisionError):
        TruncSeriesRing(artin9, 4).X ** -1
    # rings with inverses invert first
    x = local_ring(place_T, 2).from_apoly(APoly(place_T.field, [1, 1]))
    assert x ** -3 == x.inverse() ** 3
