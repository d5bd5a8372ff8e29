import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.basearith import poly_T
from drinfeld.checks import standard_places
from drinfeld.iwasawa import (IwasawaElement, J_ideal, MonomialIdeal,
                              WeightChar, _expand_pairs, _monomials_of_degree,
                              alpha, decompose, determining_weights,
                              duality_twist, filtration,
                              filtration_index_range, iota_eval,
                              iwasawa_level, maximal_ideal_kills_quotient,
                              MAX_GENERATOR_EXPONENT, monomial_str,
                              pack_monomial, power_containment_degree,
                              quotient_basis, specialize)


@pytest.fixture()
def lv2(place_T):
    return iwasawa_level(place_T, 2)


def _unit(lv, poly):
    return lv.ring.from_apoly(poly)


def test_specialize_dirac_weight_two(lv2, F3):
    T = poly_T(F3)
    x = lv2.dirac(_unit(lv2, T + 1))
    got = specialize(x, 2)
    assert lv2.ring.to_apoly(got) == 2 * T + 1          # (1+T)^2 = 1 + 2T mod (T^2, 3)


def test_specialize_dirac_weight_four(lv2, F3):
    T = poly_T(F3)
    x = lv2.dirac(_unit(lv2, T + 1))
    assert lv2.ring.to_apoly(specialize(x, 4)) == T + 1  # (1+T)^4 = 1 + T mod (T^2, 3)


def test_weight_zero_is_augmentation(lv2, F3):
    T = poly_T(F3)
    x = lv2.dirac(_unit(lv2, T + 1)) - lv2.one
    assert specialize(x, 0).is_zero()


def test_specialize_is_ring_map(lv2):
    rng = random.Random(1)
    for _ in range(25):
        x, y = lv2.random_element(rng), lv2.random_element(rng)
        for k in (-1, 0, 2, 3):
            assert specialize(x * y, k) == specialize(x, k) * specialize(y, k)
            assert specialize(x + y, k) == specialize(x, k) + specialize(y, k)


def test_specialize_negative_weights(lv2, F3):
    T = poly_T(F3)
    u = _unit(lv2, T + 1)
    x = lv2.dirac(u)
    assert specialize(x, -1) == u.inverse()


def test_iota_equals_specialize(place_T):
    rng = random.Random(7)
    for m in (1, 2, 3):
        lv = iwasawa_level(place_T, m)
        for _ in range(20):
            x = lv.random_element(rng)
            for k in range(-3, 7):
                assert iota_eval(x, k) == specialize(x, k)


def test_iota_is_linear(lv2):
    rng = random.Random(9)
    for _ in range(15):
        x, y = lv2.random_element(rng), lv2.random_element(rng)
        for k in (-2, 0, 3):
            assert iota_eval(x, k) + iota_eval(y, k) == iota_eval(x + y, k)


def test_tame_components_multiply_pointwise(lv2):
    # tame-pure elements multiply inside the product decomposition: the
    # product of chi-pure and psi-pure masses of the full algebra lands in
    # the (chi*psi)-component after re-decomposition
    lv = lv2
    g = lv.teich_gen
    x = decompose(lv, {g: lv.ring.one})
    y = decompose(lv, {g * g: lv.ring.one})
    z = x * y
    assert z == decompose(lv, {g ** 3: lv.ring.one})


def test_duality_twist_dirac(lv2, F3):
    T = poly_T(F3)
    u = _unit(lv2, T + 1)
    x = lv2.dirac(u)
    # (1+T)^2 = 1+2T and (1+T)^(-1) = 1+2T at this level
    expected = lv2.dirac(_unit(lv2, 2 * T + 1)) * _unit(lv2, 2 * T + 1)
    assert duality_twist(x) == expected


def test_duality_involution_and_weight_swap(place_T, place_TT1):
    rng = random.Random(13)
    for place in (place_T, place_TT1):
        lv = iwasawa_level(place, 2)
        for _ in range(25):
            x = lv.random_element(rng)
            assert duality_twist(duality_twist(x)) == x
            for k in (-2, 0, 1, 2, 3, 5):
                assert specialize(duality_twist(x), k) == specialize(x, 2 - k)


def test_duality_is_ring_map(lv2):
    rng = random.Random(3)
    for _ in range(15):
        x, y = lv2.random_element(rng), lv2.random_element(rng)
        assert duality_twist(x * y) == duality_twist(x) * duality_twist(y)
        assert duality_twist(x + y) == duality_twist(x) + duality_twist(y)


def test_reduction_commutes_with_everything(place_T, lv2):
    rng = random.Random(21)
    lv3 = iwasawa_level(place_T, 3)
    for _ in range(15):
        x, y = lv3.random_element(rng), lv3.random_element(rng)
        assert (x * y).reduce_to(2) == x.reduce_to(2) * y.reduce_to(2)
        assert (x + y).reduce_to(2) == x.reduce_to(2) + y.reduce_to(2)
        for k in (0, 2, 3):
            assert lv2.ring.reduce(specialize(x, k)) == \
                specialize(x.reduce_to(2), k)


def test_elements_are_interned_per_level():
    """Whichever route reaches a value, it is the level's one object for
    it, so equality and hashing are identity, the object defaults."""
    assert IwasawaElement.__eq__ is object.__eq__
    assert IwasawaElement.__hash__ is object.__hash__
    rng = random.Random(7)
    for place in standard_places():
        for m in (1, 2):
            lv = iwasawa_level(place, m)
            for _ in range(10):
                x, y = lv.random_element(rng), lv.random_element(rng)
                t = x.coeffs
                assert IwasawaElement(lv, t) is IwasawaElement(lv, t) is x
                assert lv.interned[t] is x and hash(x) == object.__hash__(x)
                assert (x - y) + y is x and x * lv.one is x
                assert decompose(lv, x.expand()) is x
                assert (x == y) == (x is y) == (t == y.coeffs)
            assert lv.one - lv.one is lv.zero and lv.zero.is_zero()


def test_expand_decompose_roundtrip(lv2):
    rng = random.Random(31)
    for _ in range(20):
        x = lv2.random_element(rng)
        assert decompose(lv2, x.expand()) == x


def test_weight_char_tame_override(lv2):
    x = lv2.dirac(lv2.teich_gen)
    w_plain = WeightChar(2)
    w_shift = WeightChar(2, tame_index=1)
    assert specialize(x, w_plain) != specialize(x, w_shift) or \
        lv2.tame_order <= 1


# -- determining weights ------------------------------------------------------

def test_determining_weights(place_T, place_TT1):
    # the rank is the tame order (2, then 3) times the Smith count of the
    # wild block, which is m at level m at these places
    for place, ranks in ((place_T, (2, 4, 6)), (place_TT1, (3, 6, 9))):
        for m, rank in zip((1, 2, 3), ranks):
            ds = determining_weights(place, m)
            assert (ds.place, ds.m, ds.rank) == (place, m, rank)
            assert ds.weights == tuple(range(ds.exponent))
            lv = iwasawa_level(place, m)
            assert ds.exponent % lv.tame_order == 0
            for u in lv.ring.units():
                assert u ** ds.exponent == lv.ring.one


def test_evaluations_periodic_on_determining_set(place_T):
    # the weight set is a full period: evaluation at any integer weight is
    # the evaluation at its residue
    rng = random.Random(5)
    lv = iwasawa_level(place_T, 2)
    ds = determining_weights(place_T, 2)
    for _ in range(10):
        x = lv.random_element(rng)
        for k in range(-4, 15):
            assert iota_eval(x, k) == iota_eval(x, k % ds.exponent)


# -- the ideal filtration -----------------------------------------------------

def test_corner_quotient_eleven_monomials():
    basis = quotient_basis(J_ideal(3, 2), J_ideal(3, 3))
    names = sorted(monomial_str(b) for b in basis)
    assert len(names) == 11
    assert names == sorted([
        "p^2", "p*T1", "p*T2", "T1^2", "T1*T2", "T2^2",
        "T3", "p*T3", "T1*T3", "T2*T3", "T3^2",
    ])


def test_alpha_indices():
    assert [alpha(n) for n in (2, 3, 4, 5)] == [2, 5, 9, 14]
    assert filtration(3, 2) == J_ideal(3, 2)
    assert filtration(3, 5) == J_ideal(3, 3)
    assert filtration(4, 9) == J_ideal(4, 4)


def test_intermediate_step_one_adds_next_variable():
    # the first step past a corner adjoins exactly the next wild variable
    test = filtration(4, alpha(3) + 1).packed()
    assert (0, 0, 0, 0, 1) in test        # T4
    assert (0, 0, 0, 1, 0) not in test    # T3 alone
    assert (0, 4, 0, 0, 0) in test        # T1^4


def test_chain_is_decreasing_and_killed():
    for s in (2, 3, 4):
        top = min(12, filtration_index_range(s) - 1)
        for r in range(top + 1):
            I, J = filtration(s, r), filtration(s, r + 1)
            assert I.contains_ideal(J)
            assert maximal_ideal_kills_quotient(I, J)


def test_containment_matches_componentwise_definition():
    # mono lies in a monomial ideal iff mono - gen has no negative exponent
    # for some generator; checked, with the number of such generators, on
    # every monomial up to one degree past the containment degree of every
    # chain ideal
    seen = set()
    for s in range(1, 5):
        for r in range(filtration_index_range(s) + 1):
            I = filtration(s, r)
            test = I.packed()
            D = power_containment_degree(I)
            for deg in range(D + 2):
                for mono in _monomials_of_degree(I.nvars, deg):
                    count = sum(min(m - g for m, g in zip(mono, gen)) >= 0
                                for gen in I.gens)
                    want = count > 0
                    assert (mono in test) is want, (s, r, mono)
                    assert test.divisor_count(pack_monomial(mono)) == count
                    assert want or deg < D, (s, r, mono)
                    seen.add(want)
            assert D == 0 or not all(
                mono in test for mono in _monomials_of_degree(I.nvars, D - 1))
    assert seen == {True, False}


def _divides(gen, mono) -> bool:
    return all(m >= g for m, g in zip(mono, gen))


def _in_ideal(I, mono) -> bool:
    return any(_divides(gen, mono) for gen in I.gens)


def _minimal_by_scan(gens) -> tuple:
    """The linear-scan oracle of `minimal_gens`: the distinct generators
    that no other one divides, sorted."""
    distinct = sorted(set(gens))
    return tuple(g for g in distinct
                 if not any(h != g and _divides(h, g) for h in distinct))


def test_packed_ideal_tests_match_the_linear_scan_on_every_chain_ideal():
    # minimal generators from a padded generator list (duplicates and
    # multiples of every generator), and containment between every two
    # chain ideals at the same s, against componentwise scans
    contains = MonomialIdeal.contains_ideal.__wrapped__
    outcomes = set()
    for s in range(1, 5):
        chain = [filtration(s, r) for r in range(filtration_index_range(s) + 1)]
        for I in chain:
            padded = I.gens + tuple(
                g[:v] + (g[v] + 1,) + g[v + 1:]
                for g in I.gens for v in range(I.nvars)) + I.gens[::-1]
            assert _minimal_by_scan(padded) == I.gens, (s, I)
            assert MonomialIdeal(I.nvars, padded).minimal_gens() == I.gens
            for J in chain:
                want = all(_in_ideal(I, g) for g in J.gens)
                assert contains(I, J) is want, (s, I, J)
                outcomes.add(want)
    assert outcomes == {True, False}


def _kills_by_enumeration(I, J) -> bool:
    """The enumeration route, kept as the oracle: list the monomial basis
    of I/J up to the degree where J holds every monomial, and multiply each
    basis monomial by each variable into J, all by componentwise tests."""
    n, D = I.nvars, 0
    while not all(_in_ideal(J, mono) for mono in _monomials_of_degree(n, D)):
        D += 1
    basis = [mono for deg in range(D) for mono in _monomials_of_degree(n, deg)
             if _in_ideal(I, mono) and not _in_ideal(J, mono)]
    return all(_in_ideal(J, mono[:v] + (mono[v] + 1,) + mono[v + 1:])
               for mono in basis for v in range(I.nvars))


def test_kill_test_matches_enumeration_oracle():
    # every chain pair (r, r+1) for s <= 4, where the quotient is always
    # killed, and the non-adjacent pairs (r, r+2), where it is not always;
    # both predicates are memoized, so each is asked twice from a cleared
    # cache and must give its uncached body's answer both times
    kills, contains = maximal_ideal_kills_quotient, MonomialIdeal.contains_ideal
    kills.cache_clear()
    contains.cache_clear()
    outcomes = {1: set(), 2: set(), "contains": set()}
    for s in range(1, 5):
        top = filtration_index_range(s)
        for step in (1, 2):
            for r in range(top - step + 1):
                I, J = filtration(s, r), filtration(s, r + step)
                want = _kills_by_enumeration(I, J)
                assert kills.__wrapped__(I, J) is want, (s, r, step)
                assert kills(I, J) is kills(I, J) is want, (s, r, step)
                outcomes[step].add(want)
                for a, b in ((I, J), (J, I)):
                    inside = contains.__wrapped__(a, b)
                    assert a.contains_ideal(b) is a.contains_ideal(b) is inside
                    outcomes["contains"].add(inside)
    assert outcomes == {1: {True}, 2: {True, False},
                        "contains": {True, False}}


def _ideal_with_powers(gens, powers) -> MonomialIdeal:
    pure = [tuple(k if i == v else 0 for i in range(3))
            for v, k in enumerate(powers)]
    return MonomialIdeal(3, tuple(gens) + tuple(pure))


small_monomials = st.lists(st.integers(0, 3), min_size=3,
                           max_size=3).map(tuple)


@settings(max_examples=60)
@given(st.lists(small_monomials, max_size=4),
       st.lists(small_monomials, max_size=3),
       st.lists(st.integers(1, 2), min_size=3, max_size=3))
def test_kill_test_matches_enumeration_off_the_chain(gens, extra, powers):
    # J = I * K with K holding a power of every variable, so J lies in I
    # and holds a power of the maximal ideal; whether m kills I/J then
    # depends on every variable, varpi included
    I = _ideal_with_powers(gens, (4, 4, 4))
    K = _ideal_with_powers(extra, powers)
    J = MonomialIdeal(3, tuple(tuple(map(sum, zip(g, h)))
                               for g in I.gens for h in K.gens))
    assert maximal_ideal_kills_quotient(I, J) is _kills_by_enumeration(I, J)


def test_kill_test_rejects_reversed_pairs():
    strict = 0
    for s in range(1, 5):
        for r in range(filtration_index_range(s)):
            I, J = filtration(s, r), filtration(s, r + 1)
            if I == J:
                continue
            strict += 1
            for _ in range(2):  # a raising call is not memoized
                with pytest.raises(ValueError, match="not contained"):
                    maximal_ideal_kills_quotient(J, I)
    assert strict == 18


monomials = st.lists(st.integers(0, 5), min_size=3, max_size=3).map(tuple)


@settings(max_examples=200)
@given(st.lists(monomials, max_size=6),
       st.lists(st.integers(0, 1000), min_size=3, max_size=3).map(tuple))
def test_packed_membership_matches_componentwise(gens, mono):
    # exponents of the tested monomial reach far above the packing cap
    I = MonomialIdeal(3, tuple(gens))
    test = I.packed()
    assert (mono in test) is _in_ideal(I, mono)
    assert test.divisor_count(pack_monomial(mono)) == sum(
        _divides(g, mono) for g in gens)
    assert I.minimal_gens() == _minimal_by_scan(gens)
    for g in gens:
        assert g in test
        for v in range(3):
            lower = g[:v] + (g[v] - 1,) + g[v + 1:]
            if g[v]:
                assert (lower in test) is _in_ideal(I, lower)


def test_packing_caps_tested_exponents_and_bounds_generators():
    top = MAX_GENERATOR_EXPONENT
    I = MonomialIdeal(2, ((top, 0), (1, 1)))
    test = I.packed()
    assert (top, 0) in test and (10 ** 6, 0) in test
    assert (top - 1, 0) not in test and (0, 10 ** 6) not in test
    assert test.divisor_count(pack_monomial((10 ** 6, 10 ** 6))) == 2
    # x_0 * (top, 0) = (top + 1, 0) packs to the capped byte and misses J
    J = MonomialIdeal(2, ((top, 1), (1, 2), (2, 1)))
    assert (top + 1, 0) not in J.packed() and (top + 1, 1) in J.packed()
    assert I.contains_ideal(J) and not maximal_ideal_kills_quotient(I, J)
    with pytest.raises(ValueError, match="above"):
        MonomialIdeal(2, ((top + 1, 0),)).packed()
    wide = (1,) * 128
    assert wide in MonomialIdeal(128, (wide,)).packed()
    assert (0,) + wide[1:] not in MonomialIdeal(128, (wide,)).packed()
    with pytest.raises(ValueError, match="1 to 128"):
        MonomialIdeal(129, ((1,) * 129,)).packed()


def test_out_of_range_rejected():
    for _ in range(2):  # a raising call is not memoized
        with pytest.raises(ValueError, match="out of range"):
            filtration(2, filtration_index_range(2) + 1)
        with pytest.raises(ValueError, match="out of range"):
            filtration(2, -1)


def test_filtration_is_memoized():
    for s in range(1, 5):
        for r in range(filtration_index_range(s) + 1):
            assert filtration(s, r) is filtration(s, r)
            assert filtration(s, r) == filtration.__wrapped__(s, r), (s, r)


def test_truncation_collapse_is_harmless():
    # past the expressible corners the chain goes on with zero quotients
    s = 2
    top = filtration_index_range(s)
    I, J = filtration(s, top - 1), filtration(s, top)
    assert I.contains_ideal(J)
    assert maximal_ideal_kills_quotient(I, J)


def test_non_noetherian_witness():
    # (T_1, ..., T_s) grows strictly when a new generator appears
    for s in (1, 2, 3):
        nvars = s + 2  # room for T_{s+1}
        gens = []
        for i in range(1, s + 1):
            e = [0] * nvars
            e[i] = 1
            gens.append(tuple(e))
        ideal_s = MonomialIdeal(nvars, tuple(gens))
        t_next = tuple(1 if i == s + 1 else 0 for i in range(nvars))
        assert t_next not in ideal_s.packed()
        grown = MonomialIdeal(nvars, ideal_s.gens + (t_next,))
        assert t_next in grown.packed()


# -- the coded storage against a reference group algebra ------------------------
#
# The reference holds a measure on the full unit group as a dict
# {unit: coefficient} of ring elements, multiplies by naive convolution and
# evaluates sum c * u^k with element powers.  Elements under test are
# compared through `expand`.

def _ref_add(x, y, op):
    out = dict(x)
    for u, c in y.items():
        out[u] = op(out.get(u, u.ring.zero), c)
    return {u: c for u, c in out.items() if not c.is_zero()}


def _ref_mul(x, y):
    out = {}
    for u, a in x.items():
        for v, b in y.items():
            out[u * v] = out.get(u * v, u.ring.zero) + a * b
    return {u: c for u, c in out.items() if not c.is_zero()}


def _ref_scale(x, s):
    return {u: c * s for u, c in x.items() if not (c * s).is_zero()}


def _ref_eval(x, k, ring):
    acc = ring.zero
    for u, c in x.items():
        acc = acc + c * u ** k
    return acc


def _ref_twist(x):
    return {u.inverse(): c * u * u for u, c in x.items()}


def _ref_reduce(x, ring):
    out = {}
    for u, c in x.items():
        ru, rc = ring.reduce(u), ring.reduce(c)
        out[ru] = out.get(ru, ring.zero) + rc
    return {u: c for u, c in out.items() if not c.is_zero()}


def _ref_record(lv, x):
    """as_record of a measure, decomposed with element arithmetic: the
    unit u = omega * v with omega = teichmuller(u) contributes chi(omega) c
    at v to component chi; wild units print in coefficient-log order."""
    t = lv.tame_order
    comps = [{} for _ in range(t)]
    for u, c in x.items():
        omega = lv.ring.teichmuller(u)
        a = lv.teich_powers.index(omega)
        v = omega.inverse() * u
        for chi in range(t):
            w = lv.teich_powers[chi * a % t] * c
            comps[chi][v] = comps[chi].get(v, lv.ring.zero) + w
    tame = {}
    for chi, comp in enumerate(comps):
        text = lv.ring.to_apoly
        keys = sorted((v for v in comp if not comp[v].is_zero()),
                      key=lambda v: tuple(c.log for c in text(v).coeffs))
        if keys:
            tame[str(chi)] = {str(text(v)): str(text(comp[v])) for v in keys}
    return {"level": lv.m, "tame": tame}


def _assert_element_matches(lv, x, ref):
    assert x.expand() == ref
    assert repr(x.as_record()) == repr(_ref_record(lv, ref))
    assert decompose(lv, ref) == x


def _assert_unary_matches(lv, x, scalars, weights, lower):
    ref = x.expand()
    _assert_element_matches(lv, x, ref)
    for s in scalars:
        _assert_element_matches(lv, x * s, _ref_scale(ref, s))
        assert s * x == x * s
    for k in weights:
        value = _ref_eval(ref, k, lv.ring)
        assert specialize(x, k) == value
        assert iota_eval(x, k) == value
    _assert_element_matches(lv, duality_twist(x), _ref_twist(ref))
    for m in lower:
        low = iwasawa_level(lv.place, m)
        _assert_element_matches(low, x.reduce_to(m),
                                _ref_reduce(ref, low.ring))


def _assert_binary_matches(x, y):
    # records and round trips are covered element by element
    rx, ry = x.expand(), y.expand()
    assert (x + y).expand() == _ref_add(rx, ry, lambda a, b: a + b)
    assert (x - y).expand() == _ref_add(rx, ry, lambda a, b: a - b)
    assert (x * y).expand() == _ref_mul(rx, ry)


@pytest.mark.parametrize("place_index", [0, 1])
def test_level_one_matches_reference_exhaustively(place_index):
    # every element of the 9- and 64-element level-1 algebras, and every pair
    lv = iwasawa_level(standard_places()[place_index], 1)
    units = list(lv.ring.units())
    scalars = list(lv.ring.elements())
    measures = [{u: c for u, c in zip(units, cs) if not c.is_zero()}
                for cs in product(scalars, repeat=len(units))]
    elements = [decompose(lv, mx) for mx in measures]
    assert len(set(elements)) == len(elements) == len(scalars) ** len(units)
    for x, mx in zip(elements, measures):
        assert x.expand() == mx
        _assert_unary_matches(lv, x, scalars, range(-3, 7), [1])
        for y in elements:
            _assert_binary_matches(x, y)


@pytest.mark.parametrize("place_index", [0, 1])
@pytest.mark.parametrize("m", [2, 3])
def test_seeded_levels_match_reference(place_index, m):
    lv = iwasawa_level(standard_places()[place_index], m)
    rng = random.Random(41 + m)
    scalars = [lv.ring.one, lv.ring.varpi, lv.teich_gen]
    for _ in range(6):
        x, y = lv.random_element(rng), lv.random_element(rng)
        _assert_unary_matches(lv, x, scalars, range(-3, 7), range(1, m + 1))
        _assert_binary_matches(x, y)
        _assert_element_matches(lv, x ** 3, _ref_mul(
            _ref_mul(x.expand(), x.expand()), x.expand()))


@pytest.mark.parametrize("place_index", [0, 1])
def test_unit_power_table_matches_local_powers(place_index):
    for m in (1, 2, 3):
        lv = iwasawa_level(standard_places()[place_index], m)
        for u in lv.ring.units():
            for k in range(-3, 7):
                assert lv.unit_power(u, k) == u ** k


def _head_random_components(lv, rng, support):
    """The per-character {principal unit: coefficient} maps the dict-keyed
    storage drew from the same generator."""
    ring_elems = list(lv.ring.elements())
    comps = []
    for _ in range(lv.tame_order):
        mp = {}
        for _ in range(rng.randrange(support + 1)):
            u = lv.wild_group[rng.randrange(len(lv.wild_group))]
            c = ring_elems[rng.randrange(len(ring_elems))]
            mp[u] = mp.get(u, lv.ring.zero) + c
        comps.append(mp)
    return comps


@pytest.mark.parametrize("place_index", [0, 1])
def test_random_element_draws_as_before(place_index):
    for m in (1, 2, 3):
        lv = iwasawa_level(standard_places()[place_index], m)
        for seed, support in ((0, 3), (1, 2), (5, 3)):
            x = lv.random_element(random.Random(seed), support)
            comps = _head_random_components(lv, random.Random(seed), support)
            w = len(lv.wild_group)
            for chi, comp in enumerate(comps):
                for i, u in enumerate(lv.wild_group):
                    c = x.coeffs[chi * w + i]
                    assert c == comp.get(u, lv.ring.zero)


def test_an_element_keeps_its_expansion():
    rng = random.Random(0)
    for place in standard_places():
        for m in (1, 2, 3):
            lv = iwasawa_level(place, m)
            x = lv.random_element(rng)
            first = _expand_pairs(x)
            assert _expand_pairs(x) is first
            assert first == _expand_pairs(IwasawaElement(lv, x.coeffs))


def test_iota_eval_expands_a_measure_once(monkeypatch):
    # every expansion reads the level's weight table once, so counting
    # reads of that table counts expansions
    lv = iwasawa_level(standard_places()[0], 2)
    reads = []

    class CountedTable(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    monkeypatch.setattr(lv, "_expand_weights", CountedTable(lv._expand_weights))
    x = lv.random_element(random.Random(1))
    weights = range(-3, 7)
    values = [iota_eval(x, k) for k in weights]
    assert len(reads) == 1
    assert values == [specialize(x, k) for k in weights]
