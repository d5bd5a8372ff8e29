import random
from itertools import product

import pytest

from drinfeld.basearith import poly_T
from drinfeld.checks import standard_places
from drinfeld.iwasawa import (J_ideal, WeightChar, alpha, decompose,
                              determining_weights, duality_twist, filtration,
                              filtration_index_range, iota_eval,
                              iwasawa_level, maximal_ideal_kills_quotient,
                              monomial_str, power_containment_degree,
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
    assert got.value == 2 * T + 1          # (1+T)^2 = 1 + 2T mod (T^2, 3)


def test_specialize_dirac_weight_four(lv2, F3):
    T = poly_T(F3)
    x = lv2.dirac(_unit(lv2, T + 1))
    assert specialize(x, 4).value == T + 1  # (1+T)^4 = 1 + T mod (T^2, 3)


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


def test_reduction_commutes_with_everything(place_T):
    rng = random.Random(21)
    lv3 = iwasawa_level(place_T, 3)
    for _ in range(15):
        x, y = lv3.random_element(rng), lv3.random_element(rng)
        assert (x * y).reduce_to(2) == x.reduce_to(2) * y.reduce_to(2)
        assert (x + y).reduce_to(2) == x.reduce_to(2) + y.reduce_to(2)
        for k in (0, 2, 3):
            assert specialize(x, k).reduce_to(2) == \
                specialize(x.reduce_to(2), k)


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
    for place in (place_T, place_TT1):
        for m in (1, 2, 3):
            ds = determining_weights(place, m)
            assert ds.saturated
            assert len(ds.weights) == ds.exponent
            lv = iwasawa_level(place, m)
            for u in lv.wild_group:
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
    I = filtration(4, alpha(3) + 1)
    assert I.contains_monomial((0, 0, 0, 0, 1))        # T4
    assert not I.contains_monomial((0, 0, 0, 1, 0))    # T3 alone
    assert I.contains_monomial((0, 4, 0, 0, 0))        # T1^4


def test_chain_is_decreasing_and_killed():
    for s in (2, 3, 4):
        top = min(12, filtration_index_range(s) - 1)
        for r in range(top + 1):
            I, J = filtration(s, r), filtration(s, r + 1)
            assert I.contains_ideal(J)
            assert maximal_ideal_kills_quotient(I, J)


def test_containment_matches_componentwise_definition():
    # mono lies in a monomial ideal iff mono - gen has no negative exponent
    # for some generator; checked on every monomial up to one degree past
    # the containment degree of every chain ideal
    from drinfeld.iwasawa import _monomials_of_degree
    seen = set()
    for s in range(1, 5):
        for r in range(filtration_index_range(s) + 1):
            I = filtration(s, r)
            D = power_containment_degree(I)
            for deg in range(D + 2):
                for mono in _monomials_of_degree(I.nvars, deg):
                    want = any(min(m - g for m, g in zip(mono, gen)) >= 0
                               for gen in I.gens)
                    assert I.contains_monomial(mono) is want, (s, r, mono)
                    assert want or deg < D, (s, r, mono)
                    seen.add(want)
            assert D == 0 or not all(
                I.contains_monomial(mono)
                for mono in _monomials_of_degree(I.nvars, D - 1))
    assert seen == {True, False}


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
    from drinfeld.iwasawa import MonomialIdeal
    for s in (1, 2, 3):
        nvars = s + 2  # room for T_{s+1}
        gens = []
        for i in range(1, s + 1):
            e = [0] * nvars
            e[i] = 1
            gens.append(tuple(e))
        ideal_s = MonomialIdeal(nvars, tuple(gens))
        t_next = tuple(1 if i == s + 1 else 0 for i in range(nvars))
        assert not ideal_s.contains_monomial(t_next)
        grown = MonomialIdeal(nvars, ideal_s.gens + (t_next,))
        assert grown.contains_monomial(t_next)


def test_wild_generators_generate(place_T, place_TT1):
    from drinfeld.iwasawa import wild_generators, _generated_subgroup
    for place in (place_T, place_TT1):
        for m in (1, 2, 3):
            lv = iwasawa_level(place, m)
            gens = wild_generators(lv)
            assert _generated_subgroup(lv.ring, gens) == set(lv.wild_group)
            for g in gens:
                assert (g - lv.ring.one).varpi_valuation() >= 1


# -- the coded storage against a reference group algebra ------------------------
#
# The reference holds a measure on the full unit group as a dict
# {unit: coefficient} of LocalElements, multiplies by naive convolution and
# evaluates sum c * u^k with LocalElement powers.  Elements under test are
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
        ru, rc = ring.from_apoly(u.value), ring.from_apoly(c.value)
        out[ru] = out.get(ru, ring.zero) + rc
    return {u: c for u, c in out.items() if not c.is_zero()}


def _ref_record(lv, x):
    """as_record of a measure, decomposed with LocalElement arithmetic: the
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
        keys = sorted((v for v in comp if not comp[v].is_zero()),
                      key=lambda v: tuple(c.log for c in v.value.coeffs))
        if keys:
            tame[str(chi)] = {str(v.value): str(comp[v].value) for v in keys}
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
        codes = lv.scalars
        for u in lv.ring.units():
            for k in range(-3, 7):
                got = codes.decode(lv.unit_power(codes.encode(u), k))
                assert got == u ** k


def _head_random_components(lv, rng, support):
    """The per-character {principal unit: coefficient} maps the dict-keyed
    storage drew from the same generator."""
    ring_elems = [lv.ring.from_apoly(a.value) for a in lv.ring.elements()]
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
                    c = lv.scalars.decode(x.codes[chi * w + i])
                    assert c == comp.get(u, lv.ring.zero)
