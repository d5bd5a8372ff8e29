"""A/(varpi^n) as F_Q[eps]/(eps^n) against the polynomial reference.

The reference below is the earlier representation of the ring: residue
classes of polynomials modulo varpi^n, inverted by extended Euclid, with a
division-loop valuation and the Teichmuller lift found by iterating the
Q-th power.  Every ring with at most 64 elements at the places (3, T),
(2, T^2+T+1), (4, T) and (2, T^3+T+1) is checked exhaustively.

`iwasawa.smith_count` is checked against the size of M/varpi M for the
row module M, and on evaluation matrices against the column-pivot
elimination that it replaced, run on reference elements, and on the
evaluations at two periods of weights against the determining rank.  The
wild block of a level is checked to be the principal unit group.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.basearith import (APoly, field_of_order, local_ring,
                                make_place, power)
from drinfeld.iwasawa import determining_weights, iwasawa_level, smith_count
from drinfeld.textenc import parse_apoly


class RefLocalElement:
    """Residue class modulo varpi^n, held as its reduced polynomial."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: "RefLocalRing", value: APoly):
        self.ring = ring
        if len(value.coeffs) > ring.deg_bound:
            value = value % ring.modulus
        self.value = value

    def _other(self, other):
        assert other.ring is self.ring
        return other.value

    def __add__(self, other):
        return RefLocalElement(self.ring, self.value + self._other(other))

    def __neg__(self):
        return RefLocalElement(self.ring, -self.value)

    def __sub__(self, other):
        return RefLocalElement(self.ring, self.value - self._other(other))

    def __mul__(self, other):
        return RefLocalElement(self.ring, self.value * self._other(other))

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def is_unit(self) -> bool:
        return not (self.value % self.ring.place.varpi).is_zero()

    def inverse(self) -> "RefLocalElement":
        """Inverse modulo varpi^n via extended Euclid in F_q[T]."""
        if not self.is_unit():
            raise ZeroDivisionError(f"{self.value} is not a unit")
        field = self.ring.place.field
        r0, r1 = self.ring.modulus, self.value
        s0, s1 = APoly(field, []), APoly(field, [field.one])
        while not r1.is_zero():
            quot, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - quot * s1
        return RefLocalElement(self.ring, s0 * r0.coeffs[0].inverse())

    def __pow__(self, e: int):
        return power(self, e, self.ring.one)

    def reduce_to(self, n: int) -> "RefLocalElement":
        assert n <= self.ring.n
        return RefLocalElement(RefLocalRing(self.ring.place, n), self.value)

    def varpi_valuation(self) -> int:
        """Largest k <= n with varpi^k dividing the value (n for zero)."""
        if self.value.is_zero():
            return self.ring.n
        v, val = self.value, 0
        while True:
            quot, rem = v.divmod(self.ring.place.varpi)
            if not rem.is_zero():
                return val
            v, val = quot, val + 1


class RefLocalRing:
    """A/(varpi^n); elements are polynomials of degree < n*d."""

    def __init__(self, place, n: int):
        self.place = place
        self.n = n
        self.deg_bound = n * place.d
        self.modulus = place.varpi ** n
        field = place.field
        self.zero = RefLocalElement(self, APoly(field, []))
        self.one = RefLocalElement(self, APoly(field, [field.one]))

    def from_apoly(self, a: APoly) -> RefLocalElement:
        return RefLocalElement(self, a)

    def elements(self):
        field = self.place.field
        for coeffs in itertools.product(field.elements(), repeat=self.deg_bound):
            yield RefLocalElement(self, APoly(field, coeffs))

    def teichmuller(self, x: RefLocalElement) -> RefLocalElement:
        """The (q^d - 1)-th root of unity congruent to x mod varpi, by
        iterating the q^d-th power (zero for a non-unit)."""
        if not x.is_unit():
            return self.zero
        qd = self.place.q ** self.place.d
        z = x
        for _ in range(self.n + 2):
            nz = z ** qd
            if nz.value == z.value:
                return z
            z = nz
        raise RuntimeError("teichmuller iteration failed to stabilize")


def _place(q: int, varpi: str):
    return make_place(parse_apoly(field_of_order(q), varpi))


# every ring with |R| <= 64 at the four places
SMALL_RINGS = ([(3, "T", n) for n in (1, 2, 3)]
               + [(2, "T^2+T+1", n) for n in (1, 2, 3)]
               + [(4, "T", n) for n in (1, 2, 3)]
               + [(2, "T^3+T+1", n) for n in (1, 2)])


@pytest.fixture(params=SMALL_RINGS, ids=lambda r: f"q{r[0]}-{r[1]}-n{r[2]}")
def rings(request):
    """(the ring, the reference ring, both element lists in order)."""
    q, varpi, n = request.param
    place = _place(q, varpi)
    ring, ref = local_ring(place, n), RefLocalRing(place, n)
    return ring, ref, list(ring.elements()), list(ref.elements())


def test_elements_follow_the_reference_order(rings):
    ring, ref, els, refs = rings
    assert len(els) == len(refs) == ring.size
    assert els == [ring.from_apoly(r.value) for r in refs]
    assert [ring.to_apoly(x) for x in els] == [r.value for r in refs]
    assert list(ring.units()) == [x for x, r in zip(els, refs) if r.is_unit()]
    assert list(ring.principal_units()) == [
        x for x, r in zip(els, refs) if (r - ref.one).varpi_valuation() >= 1]


def test_from_apoly_is_a_ring_map(rings):
    ring, ref, els, refs = rings
    images = {r.value: x for x, r in zip(els, refs)}
    for a, b in itertools.product(images, repeat=2):
        assert ring.from_apoly(a + b) == images[a] + images[b]
        assert ring.from_apoly(a * b) == images[a] * images[b]


def test_arithmetic_agrees_with_the_reference(rings):
    ring, ref, els, refs = rings
    for (x, rx), (y, ry) in itertools.product(zip(els, refs), repeat=2):
        assert ring.to_apoly(x * y) == (rx * ry).value
        assert ring.to_apoly(x - y) == (rx - ry).value


def test_to_apoly_inverts_from_apoly(rings):
    ring, ref, els, refs = rings
    T = APoly(ring.place.field, [0, 1])
    for r in refs:
        assert ring.to_apoly(ring.from_apoly(r.value)) == r.value
        # a representative of higher degree maps to the same element
        assert ring.from_apoly(r.value + ref.modulus * T) == \
            ring.from_apoly(r.value)


def test_unit_operations_agree_with_the_reference(rings):
    ring, ref, els, refs = rings
    for x, r in zip(els, refs):
        assert x.varpi_valuation() == r.varpi_valuation()
        assert ring.to_apoly(ring.teichmuller(x)) == ref.teichmuller(r).value
        if r.is_unit():
            assert ring.to_apoly(x.inverse()) == r.inverse().value
            assert ring.to_apoly(x ** -2) == (r.inverse() ** 2).value
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        for n in range(1, ring.n + 1):
            low = local_ring(ring.place, n)
            assert low.to_apoly(low.reduce(x)) == r.reduce_to(n).value


def test_reduce_rejects_raising_precision_and_other_places():
    place = _place(3, "T")
    L1, L2 = local_ring(place, 1), local_ring(place, 2)
    with pytest.raises(ValueError):
        L2.reduce(L1.one)
    with pytest.raises(ValueError):
        L1.reduce(local_ring(_place(3, "T+1"), 2).one)


# -- the Smith count against the column-pivot route ---------------------------

def _ref_rank(rows: list, m: int) -> int:
    """The column-by-column elimination that counted the evaluation rank
    before the Smith count, on reference elements: row operations only, in
    each column a pivot of least valuation among the remaining rows, its
    unit part found by polynomial division by varpi^v.  Its count is not an
    invariant of the row module (see the first test below)."""
    rows = [list(row) for row in rows]
    varpi = rows[0][0].ring.place.varpi

    def shift(x, v):
        quot, rem = x.value.divmod(varpi ** v)
        assert rem.is_zero()
        return RefLocalElement(x.ring, quot)

    rank = 0
    for col in range(len(rows[0])):
        best, best_val = None, m
        for r in range(rank, len(rows)):
            v = rows[r][col].varpi_valuation()
            if v < best_val:
                best, best_val = r, v
        if best is None:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        unit_inverse = shift(rows[rank][col], best_val).inverse()
        for r in range(rank + 1, len(rows)):
            e = rows[r][col]
            if e.varpi_valuation() >= m:
                continue
            factor = shift(e, best_val) * unit_inverse
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _as_ref(ring, ref, matrix):
    return [[ref.from_apoly(ring.to_apoly(x)) for x in row] for row in matrix]


def test_smith_count_does_not_depend_on_the_generators():
    # [[varpi, 1]] and [[varpi, 1], [0, varpi]] have the same row module,
    # the second row being varpi times the first: one invariant factor
    place = _place(3, "T")
    ring = local_ring(place, 2)
    v, one, zero = ring.varpi, ring.one, ring.zero
    second = [[v, one], [zero, v]]
    for matrix in ([[v, one]], second):
        for cols in (matrix, [row[::-1] for row in matrix]):
            assert smith_count(ring, cols) == 1
    # the column-pivot route finds a pivot in each column of the second
    assert _ref_rank(_as_ref(ring, RefLocalRing(place, 2), second), 2) == 2


def _row_module(ring, rows) -> set:
    """Every R-linear combination of rows, as tuples of elements."""
    tables = ring.tables()
    span = {(ring.zero,) * len(rows[0])}
    for row in rows:
        multiples = {tuple([tables.prods[c][y] for y in row])
                     for c in ring.elements()}
        span = {tuple([tables.sums[x][y] for x, y in zip(vec, mult)])
                for vec in span for mult in multiples}
    return span


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2)]), st.data())
def test_smith_count_counts_generators_of_the_row_module(shape, data):
    # M = sum R/(varpi^a_i) has M/varpi M = F_Q^(number of nonzero a_i)
    n, ncols = shape
    ring = local_ring(_place(3, "T"), n)
    entry = st.sampled_from(list(ring.elements()))
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols,
                                       max_size=ncols),
                              min_size=1, max_size=4))
    span = _row_module(ring, rows)
    times_varpi = ring.tables().prods[ring.varpi]
    varpi_span = {tuple([times_varpi[x] for x in vec]) for vec in span}
    assert len(span) == len(varpi_span) * 3 ** smith_count(ring, rows)


@pytest.mark.parametrize("q,varpi,m", [
    (3, "T", 1), (3, "T", 2), (3, "T", 3),
    (2, "T^2+T+1", 1), (2, "T^2+T+1", 2), (2, "T^2+T+1", 3),
    (4, "T", 1), (4, "T", 2), (4, "T", 3),
    (3, "T^2+1", 1), (3, "T^2+1", 2)])
def test_evaluation_rank_matches_the_division_route(q, varpi, m):
    # the rank from the wild block, the Smith count of the full evaluation
    # matrix (every unit at every weight of the set) and the column-pivot
    # route on reference elements all agree
    place = _place(q, varpi)
    lv, ds = iwasawa_level(place, m), determining_weights(place, m)
    units = list(lv.ring.units())
    full = [[u ** k for k in ds.weights] for u in units]
    ref = RefLocalRing(place, m)
    assert ds.rank == smith_count(lv.ring, full) \
        == _ref_rank(_as_ref(lv.ring, ref, full), m)


@pytest.mark.parametrize("q,varpi", [(3, "T"), (2, "T^2+T+1")])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_weights_beyond_the_determining_set_add_no_rank(q, varpi, m):
    # over the weights 0..2e-1 (e the unit group exponent) the Smith count
    # of the first `cut` columns never falls as the cut grows, reaches the
    # determining rank at the cut e and stays there: the second period
    # repeats the first
    place = _place(q, varpi)
    lv, ds = iwasawa_level(place, m), determining_weights(place, m)
    doubled = [[u ** k for k in range(2 * ds.exponent)]
               for u in lv.ring.units()]
    counts = [smith_count(lv.ring, [row[:cut] for row in doubled])
              for cut in range(1, len(doubled[0]) + 1)]
    assert counts == sorted(counts)
    assert counts[ds.exponent - 1] == counts[-1] == ds.rank


@pytest.mark.parametrize("q,varpi,m", [
    (3, "T", 1), (3, "T", 2), (3, "T", 3), (2, "T^2+T+1", 2)])
def test_the_wild_block_is_the_principal_unit_group(q, varpi, m):
    # Q^(m-1) units congruent to 1, closed under products, and the units
    # are the tame order times as many
    place = _place(q, varpi)
    lv = iwasawa_level(place, m)
    wild, one = set(lv.wild_group), lv.ring.one
    Q = q ** place.d
    assert len(wild) == len(lv.wild_group) == Q ** (m - 1)
    assert all((w - one).varpi_valuation() >= 1 for w in wild)
    assert {u * v for u in wild for v in wild} == wild
    assert len(list(lv.ring.units())) == lv.tame_order * len(wild)
