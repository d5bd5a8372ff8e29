import math
import random
import sys
from itertools import count, product

import pytest

from drinfeld.basearith import (APoly, ElementCodes, ext_field, field_of_order,
                                local_ring, make_place, power)
from drinfeld.checks import standard_places
from drinfeld.hecke import build_correspondence
from drinfeld.iwasawa import decompose, iwasawa_level, specialize
from drinfeld.projector import (MatrixCodes, TowerModule, TowerOperator,
                                _witness_exponent, constant_tower,
                                control_check, factorial_powers_vanish,
                                gl_exponent, image_membership_identities,
                                local_finiteness_report, mat_dense,
                                mat_identity, mat_map, mat_mul, mat_pow,
                                mat_sparse, ordinary_projector,
                                reduction_tower)
from drinfeld.textenc import parse_apoly


@pytest.fixture()
def L2(place_T):
    return local_ring(place_T, 2)


@pytest.fixture()
def worked(place_T, L2):
    M = mat_sparse([[L2.one, L2.one], [L2.zero, L2.varpi]])
    return reduction_tower(place_T, M, 2)


# -- the object-entry reference the coded kernel is checked against ------------

def _ref_mat_mul(a, b, ring):
    """The matrix product on one ring element per entry, each entry summed
    from ring.zero."""
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero
            for k in range(mid):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _ref_identity(ring, n):
    return mat_dense(mat_identity(ring, n), ring.zero)


def _ref_mat_pow(a, e, ring):
    return power(a, e, _ref_identity(ring, len(a)),
                 lambda x, y: _ref_mat_mul(x, y, ring))


def _ref_limit(mat, ring):
    """(limit, stop step) of S <- S^(n+1) on element matrices, unbounded
    like the coded iteration."""
    cur = mat
    for step in count(1):
        if _ref_mat_mul(cur, cur, ring) == cur:
            return cur, step
        cur = _ref_mat_pow(cur, step + 1, ring)


def _ref_projector(op):
    """Per level of the tower: the limit, its step, the order (st+1)!, the
    four per-level properties ordinary_projector reports and the witness
    power T^(f-1) on the full exponent, all on full rows of elements."""
    out = []
    for ring, T in zip(op.tower.rings, op.matrices):
        T = mat_dense(T, ring.zero)

        def mul(a, b, ring=ring):
            return _ref_mat_mul(a, b, ring)
        e, st = _ref_limit(T, ring)
        f = math.factorial(st + 1)
        one_minus_e = [[x - y for x, y in zip(ri, re)]
                       for ri, re in zip(_ref_identity(ring, len(T)), e)]
        P = _ref_mat_pow(T, f - 1, ring)
        flags = (mul(e, e) == e,
                 mul(e, T) == mul(T, e),
                 mul(mul(T, e), mul(P, e)) == e,
                 all(x.is_zero() for row in mul(mul(T, P), one_minus_e)
                     for x in row))
        out.append((e, st, f, flags, P))
    return out


def _ref_control(matrix, ring, specialize_entry, target_ring):
    """control_check's report for one weight on a row-sparse matrix,
    computed on its full rows."""
    def push(mat):
        return [[specialize_entry(x) for x in row] for row in mat]
    matrix = mat_dense(matrix, ring.zero)
    e_first, _ = _ref_limit(matrix, ring)
    e_pushed = push(e_first)
    e_second, _ = _ref_limit(push(matrix), target_ring)
    agree = (_ref_mat_mul(e_pushed, e_second, target_ring) == e_second
             and _ref_mat_mul(e_second, e_pushed, target_ring) == e_pushed)
    return mat_sparse(e_pushed), mat_sparse(e_second), agree


def _specializations(weights):
    return [lambda x, k=k: specialize(x, k) for k in weights]


def _sparse(mat, codec):
    """The row-sparse form `mat_mul` takes: per row, the (column, code)
    pairs of the nonzero entries."""
    return tuple(tuple((j, c) for j, c in enumerate(map(codec.encode, row))
                       if c) for row in mat)


def _dense(rows, width, codec):
    out = []
    for row in rows:
        dense = [codec.decode(0)] * width
        for j, c in row:
            dense[j] = codec.decode(c)
        out.append(dense)
    return out


def _naive_factorial_limit(mat, ring, cap=8):
    """Independent oracle: compute T^(n!) from scratch by plain repeated
    multiplication (no squaring ladder, no early stop) until two
    consecutive factorial powers agree and the candidate is idempotent."""
    prev = mat  # T^(1!)
    fact = 1
    for n in range(2, cap):
        fact *= n
        nxt = mat
        for _ in range(fact - 1):
            nxt = _ref_mat_mul(nxt, mat, ring)
        if nxt == prev and _ref_mat_mul(nxt, nxt, ring) == nxt:
            return nxt
        prev = nxt
    raise AssertionError("oracle did not stabilize")


def test_worked_example(worked, L2, place_T):
    rep = ordinary_projector(worked)
    assert rep.ok
    e = rep.projector.matrices[-1]
    expected = [[L2.one, L2.one + L2.varpi], [L2.zero, L2.zero]]
    assert e == mat_sparse(expected)
    # independent oracle: naive repeated multiplication
    M = [[L2.one, L2.one], [L2.zero, L2.varpi]]
    oracle = _naive_factorial_limit(M, L2)
    assert oracle == expected


def test_identity_projector(L2):
    idm = mat_identity(L2, 3)
    rep = ordinary_projector(constant_tower(L2, idm))
    assert rep.ok and rep.projector.matrices[0] == idm


def test_nilpotent_projector(L2):
    nil = mat_sparse([[L2.zero, L2.one, L2.one],
                      [L2.zero, L2.zero, L2.one],
                      [L2.zero, L2.zero, L2.zero]])
    rep = ordinary_projector(constant_tower(L2, nil))
    assert rep.ok
    assert rep.projector.matrices[0] == mat_sparse([[L2.zero] * 3] * 3)


def test_projector_properties(worked):
    rep = ordinary_projector(worked)
    for ring, T, e in zip(worked.tower.rings, worked.matrices,
                          rep.projector.matrices):
        m = MatrixCodes(ring.codes(), len(T))
        T, e = m.encode_matrix(T), m.encode_matrix(e)
        assert m.prods[e][e] == e
        assert m.prods[e][T] == m.prods[T][e]
    assert factorial_powers_vanish(worked, rep)


def _counted_products(monkeypatch):
    """A list that grows by one per call of projector.mat_mul, the kernel
    that fills a missing entry of a product table."""
    from drinfeld import projector
    calls = []

    def counting_mul(a, b, codec):
        calls.append(1)
        return mat_mul(a, b, codec)

    monkeypatch.setattr(projector, "mat_mul", counting_mul)
    return calls


class _CountedTable:
    """A product table standing in for `ring.prods` that counts the
    products requested from it: each request is one subscript
    `prods[a][b]`, so one row subscript."""

    def __init__(self, table):
        self.table, self.requests = table, 0

    def __getitem__(self, a):
        self.requests += 1
        return self.table[a]


def _counted_ring(codec, rank):
    ring = MatrixCodes(codec, rank)
    ring.prods = _CountedTable(ring.prods)
    return ring


@pytest.mark.parametrize("e", range(20))
def test_mat_pow_product_count(e, L2, monkeypatch):
    calls = _counted_products(monkeypatch)
    ring = _counted_ring(L2.codes(), 2)
    M = ring.encode_matrix(mat_sparse([[L2.one, L2.one], [L2.zero, L2.varpi]]))
    mat_pow(M, e, ring)
    expected = (e.bit_length() - 1) + (bin(e).count("1") - 1) if e else 0
    assert ring.prods.requests == expected
    assert len(calls) == _entries(ring.prods.table) <= expected


def _entries(table) -> int:
    return sum(map(len, table.values()))


def _matrix_rings(place):
    """(ring, draw of a nonzero element) for the three kinds of matrix ring
    the projector runs over: A/(varpi^2), a residue extension and an
    Iwasawa level."""
    out = []
    for ring in (local_ring(place, 2), ext_field(place, 2)):
        nonzero = [x for x in ring.elements() if x != ring.zero]
        out.append((ring, lambda rng, pool=nonzero: rng.choice(pool)))
    lv = iwasawa_level(place, 2)

    def draw(rng):
        x = lv.zero
        while x == lv.zero:
            x = lv.random_element(rng, support=2)
        return x
    out.append((lv, draw))
    return out


@pytest.mark.parametrize("place_index", [0, 1])
@pytest.mark.parametrize("density", [0, 0.1, 0.5, 1])
def test_sparse_product_matches_reference(place_index, density):
    rng = random.Random(23)
    for ring, draw in _matrix_rings(standard_places()[place_index]):
        c = ring.codes()

        def rand(rows, cols):
            return [[draw(rng) if rng.random() < density else ring.zero
                     for _ in range(cols)] for _ in range(rows)]
        for n, mid, m in [(1, 1, 1), (5, 5, 5), (2, 3, 4)]:
            for _ in range(3):
                a, b = rand(n, mid), rand(mid, m)
                if n > 1:
                    # an all-zero row and column on each side
                    a[1] = [ring.zero] * mid
                    b[0] = [ring.zero] * m
                    for row in a:
                        row[-1] = ring.zero
                    for row in b:
                        row[0] = ring.zero
                got = mat_mul(_sparse(a, c), _sparse(b, c), c)
                assert all(list(row) == sorted(row) and all(x for _, x in row)
                           for row in got)
                assert _dense(got, m, c) == _ref_mat_mul(a, b, ring)


# (place, seed, stop step, products requested): a non-final step n costs
# the square of the idempotence test plus the ladder for (n+1)//2 on it,
# and one more product when n+1 is odd; the stop step costs its square
# alone.  The kernel runs once per distinct product, so at most as often.
@pytest.mark.parametrize("place_index,seed,stop,products",
                         [(0, 9, 2, 2), (0, 2, 3, 4), (0, 7, 4, 6),
                          (0, 6, 6, 12), (1, 1, 7, 16), (0, 0, 13, 41)])
def test_factorial_ladder_product_count(place_index, seed, stop, products,
                                        monkeypatch):
    from drinfeld.projector import _stabilized_factorial_power
    place = standard_places()[place_index]
    L2 = local_ring(place, 2)
    elems = list(L2.elements())
    rng = random.Random(seed)
    T = mat_sparse([[rng.choice(elems) for _ in range(3)] for _ in range(3)])
    ring = _counted_ring(L2.codes(), 3)
    calls = _counted_products(monkeypatch)
    _, step = _stabilized_factorial_power(ring.encode_matrix(T), ring)
    assert (step, ring.prods.requests) == (stop, products)
    assert len(calls) == _entries(ring.prods.table) <= products
    _assert_projector_matches_reference(constant_tower(L2, T))


def test_iteration_matches_reference_past_64_steps():
    # the first random tower of the battery at (2, T^3+T+1), seed 0: its
    # period has the prime factor 73 of 8^3 - 1
    place = make_place(parse_apoly(field_of_order(2), "T^3+T+1"))
    rng = random.Random(0)
    L2 = local_ring(place, 2)
    field = place.field
    elems = [L2.from_apoly(APoly(field, [a, b]))
             for a in field.elements() for b in field.elements()]
    M = mat_sparse([[elems[rng.randrange(len(elems))] for _ in range(4)]
                    for _ in range(4)])
    op = reduction_tower(place, M, 2)
    assert ordinary_projector(op).steps == [73, 73]
    _assert_projector_matches_reference(op)


def test_idempotent_equals_for_powers(worked, place_T, L2):
    rep = ordinary_projector(worked)
    e = rep.projector.matrices[-1]
    M = mat_sparse([[L2.one, L2.one], [L2.zero, L2.varpi]])
    ring = MatrixCodes(L2.codes(), 2)
    for r in (2, 3):
        Mr = ring.decode_matrix(mat_pow(ring.encode_matrix(M), r, ring))
        rep_r = ordinary_projector(reduction_tower(place_T, Mr, 2))
        assert rep_r.projector.matrices[-1] == e


def test_transition_compatibility(worked):
    rep = ordinary_projector(worked)
    tower = worked.tower
    for i in range(tower.depth - 1):
        fn = tower.transitions[i]
        assert (mat_map(rep.projector.matrices[i + 1], fn)
                == rep.projector.matrices[i])


def test_exactness_shadow(worked, place_T):
    # on the kernel of the transition (the varpi-multiples), the deeper
    # idempotent restricts to the shallow one transported by varpi
    rep = ordinary_projector(worked)
    L1, L2 = worked.tower.rings
    e2 = mat_dense(rep.projector.matrices[1], L2.zero)
    e1 = mat_dense(rep.projector.matrices[0], L1.zero)
    for col in range(2):
        deep = [e2[r][col] * L2.varpi for r in range(2)]
        lifted = [L2.to_apoly(x) for x in deep]
        shallow = [e1[r][col] for r in range(2)]
        for x, y in zip(lifted, shallow):
            got = (x % place_T.varpi ** 2)
            quot, rem = got.divmod(place_T.varpi)
            assert rem.is_zero()
            assert local_ring(place_T, 1).from_apoly(quot) == y


def test_constructor_rejects_incompatible_levels(L2):
    tower = TowerModule([L2, L2], 2, [lambda x: x])
    good = mat_sparse([[L2.one, L2.zero], [L2.zero, L2.one]])
    bad = mat_sparse([[L2.one, L2.one], [L2.zero, L2.varpi]])
    with pytest.raises(ValueError, match="commute"):
        TowerOperator(tower, [good, bad])


def test_local_finiteness(worked):
    out = local_finiteness_report(worked)
    assert all(level["stable"] for level in out)


def test_random_towers(place_T):
    rng = random.Random(4)
    L2 = local_ring(place_T, 2)
    field = place_T.field
    elems = [L2.from_apoly(APoly(field, [a, b]))
             for a in field.elements() for b in field.elements()]
    for _ in range(30):
        M = mat_sparse([[elems[rng.randrange(9)] for _ in range(4)]
                        for _ in range(4)])
        rep = ordinary_projector(reduction_tower(place_T, M, 2))
        assert rep.ok


def test_control_full_module(place_T):
    # multiplication by a group-like is a unit operator: e = identity and
    # both sides of the control comparison are everything
    lv = iwasawa_level(place_T, 2)
    u = lv.wild_group[1]
    M = mat_sparse([[lv.dirac(u), lv.zero], [lv.zero, lv.dirac(u * u)]])
    for cr in control_check(M, lv, _specializations((0, 2, 3)), lv.ring):
        assert cr.ok
        assert cr.projector_of_specialized == mat_identity(lv.ring, 2)


def test_control_rank_one(place_T):
    lv = iwasawa_level(place_T, 2)
    M = mat_sparse([[lv.one, lv.one], [lv.zero, lv.one * lv.ring.varpi]])
    reports = control_check(M, lv, _specializations((0, 2, 5)), lv.ring)
    assert len(reports) == 3
    for cr in reports:
        assert cr.ok
        e = mat_dense(cr.projector_of_specialized, lv.ring.zero)
        zero = [[lv.ring.zero] * 2] * 2
        assert e != zero
        assert e[1] == zero[1]  # second row vanishes: rank one


def test_control_zero(place_T):
    lv = iwasawa_level(place_T, 2)
    M = mat_sparse([[lv.one * lv.ring.varpi, lv.zero], [lv.zero, lv.zero]])
    [cr] = control_check(M, lv, _specializations((2,)), lv.ring)
    assert cr.ok
    assert cr.projector_of_specialized == mat_sparse([[lv.ring.zero] * 2] * 2)


def test_control_random(place_T):
    lv = iwasawa_level(place_T, 2)
    rng = random.Random(17)
    for _ in range(8):
        M = mat_sparse([[lv.random_element(rng, support=2) for _ in range(2)]
                        for _ in range(2)])
        assert all(cr.ok for cr in control_check(
            M, lv, _specializations((0, 3)), lv.ring))


def test_control_check_derives_the_source_projector_once(place_T,
                                                        monkeypatch):
    # e(M) over Lambda_m is one factorial iteration whatever the number of
    # weights; each weight adds one iteration over its target
    from drinfeld import projector
    lv = iwasawa_level(place_T, 2)
    M = mat_sparse([[lv.one, lv.one], [lv.zero, lv.one * lv.ring.varpi]])
    original, scalars = projector._stabilized_factorial_power, []

    def counted(T, ring):
        scalars.append(ring.scalars)
        return original(T, ring)

    monkeypatch.setattr(projector, "_stabilized_factorial_power", counted)
    weights = (0, 2, 3, 5)
    reports = control_check(M, lv, _specializations(weights), lv.ring)
    assert scalars == [lv.codes()] + [lv.ring.codes()] * len(weights)
    for k, cr in zip(weights, reports, strict=True):
        assert (cr.specialized_projector, cr.projector_of_specialized,
                cr.images_agree) == _ref_control(
                    M, lv, lambda x: specialize(x, k), lv.ring)
    assert control_check(M, lv, [], lv.ring) == []


def test_image_identity_criterion(L2):
    ring = MatrixCodes(L2.codes(), 2)
    e1 = ring.encode_matrix(mat_sparse([[L2.one, L2.zero], [L2.zero, L2.zero]]))
    e2 = ring.encode_matrix(mat_sparse([[L2.one, L2.one], [L2.zero, L2.zero]]))
    # same column space over the ring
    assert image_membership_identities(e1, e2, ring)
    e3 = ring.encode_matrix(mat_sparse([[L2.zero, L2.zero], [L2.zero, L2.one]]))
    assert not image_membership_identities(e1, e3, ring)


# -- codecs against the object rings -------------------------------------------

def _small_rings(kind, place):
    """(ring, all its elements) for one kind of matrix ring at a place."""
    if kind in ("local1", "local2"):
        ring = local_ring(place, int(kind[-1]))
        return [(ring, list(ring.elements()))]
    if kind == "point_field":  # where every Hecke operator's entries live
        ext = build_correspondence(place, 2).ext
        return [(ext, list(ext.elements()))]
    lv = iwasawa_level(place, 1)
    units = list(lv.ring.units())
    elements = [decompose(lv, dict(zip(units, cs)))
                for cs in product(list(lv.ring.elements()), repeat=len(units))]
    return [(lv, elements)]


@pytest.mark.parametrize("place_index", [0, 1])
@pytest.mark.parametrize("kind", ["local1", "local2", "point_field", "iwasawa1"])
def test_codec_matches_ring_arithmetic(kind, place_index):
    rings = _small_rings(kind, standard_places()[place_index])
    assert rings
    for ring, elements in rings:
        assert 2 <= len(elements) <= 64
        c = ring.codes()
        assert c.decode(c.zero) == ring.zero and c.decode(c.one) == ring.one
        codes = [c.encode(x) for x in elements]
        assert len(set(codes)) == len(elements)
        for x, cx in zip(elements, codes):
            assert c.decode(cx) == x
            for y, cy in zip(elements, codes):
                assert c.decode(c.sums[cx][cy]) == x + y
                assert c.decode(c.diffs[cx][cy]) == x - y
                assert c.decode(c.prods[cx][cy]) == x * y


@pytest.mark.parametrize("place_index", [0, 1])
def test_codes_are_owned_by_the_ring(place_index):
    place = standard_places()[place_index]
    for ring in (local_ring(place, 2), ext_field(place, 2),
                 iwasawa_level(place, 2)):
        assert ring.codes() is ring.codes()
        assert isinstance(ring.codes(), ElementCodes)
    for m in (1, 2, 3):
        assert iwasawa_level(place, m).scalars is local_ring(place, m).codes()


def test_repeated_control_check_builds_no_codec(place_T, monkeypatch):
    lv = iwasawa_level(place_T, 2)
    rng = random.Random(3)
    M = mat_sparse([[lv.random_element(rng, support=2) for _ in range(3)]
                    for _ in range(3)])

    def run():
        [cr] = control_check(M, lv, _specializations((3,)), lv.ring)
        return cr

    def project():
        return ordinary_projector(constant_tower(lv, M))
    first, first_rep = run(), project()
    built = []
    init = ElementCodes.__init__

    def counting_init(self, ring):
        built.append(ring)
        init(self, ring)

    monkeypatch.setattr(ElementCodes, "__init__", counting_init)
    def entries():
        return {(codec, name): sum(map(len, getattr(codec, name).values()))
                for codec in (lv.codes(), lv.scalars)
                for name in ("sums", "diffs", "prods")}
    memo = entries()
    again, again_rep = run(), project()
    assert built == []
    # nothing left to refill: every entry was filled by the first run
    assert memo == entries()
    assert (again.specialized_projector, again.projector_of_specialized,
            again.images_agree) == (first.specialized_projector,
                                    first.projector_of_specialized,
                                    first.images_agree)
    assert (again_rep.projector.matrices, again_rep.steps) \
        == (first_rep.projector.matrices, first_rep.steps)


def test_traced_kernel_runs_once_per_product_entry(worked, place_T,
                                                   monkeypatch):
    # rebind projector.mat_mul at every module binding, as a tracer does
    # from outside the library: the product tables must reach the kernel
    # through the module, once per entry they fill
    from drinfeld import projector
    original, calls = projector.mat_mul, []

    def traced(*args):
        calls.append(1)
        return original(*args)

    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "drinfeld"
                                   or name.startswith("drinfeld.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, traced)
    rings, init = [], MatrixCodes.__init__

    def keep(self, scalars, rank):
        init(self, scalars, rank)
        rings.append(self)

    monkeypatch.setattr(MatrixCodes, "__init__", keep)
    rep = ordinary_projector(worked)
    assert factorial_powers_vanish(worked, rep)
    lv = iwasawa_level(place_T, 2)
    M = mat_sparse([[lv.one, lv.one], [lv.zero, lv.one * lv.ring.varpi]])
    [cr] = control_check(M, lv, _specializations((2,)), lv.ring)
    assert cr.ok
    assert len(rings) == 6
    assert calls and len(calls) == sum(_entries(r.prods) for r in rings)


# -- the witness exponent against brute-force periods ----------------------------

def _dense_mul(a, b, r, codec):
    """The product of two r x r matrices held as flat tuples of codes, on
    the codec's entry tables alone (no matrix codes, no `mat_mul`)."""
    sums, prods = codec.sums, codec.prods
    out = []
    for i in range(0, r * r, r):
        for j in range(r):
            acc = 0
            for k in range(r):
                acc = sums[acc][prods[a[i + k]][b[k * r + j]]]
            out.append(acc)
    return tuple(out)


def _index_and_period(T, r, codec):
    """The least i >= 1 and p >= 1 with T^(i+p) = T^i, from the list of
    the powers of T."""
    seen, cur = {}, T
    for k in count(1):
        if cur in seen:
            return seen[cur], k - seen[cur]
        seen[cur] = k
        cur = _dense_mul(cur, T, r, codec)


def _assert_exponent_bound(ring, r, matrices, tight):
    """Every matrix's period divides E and its index is at most r * l;
    `tight` when the matrices are all of them, and some index is r * l."""
    E = gl_exponent(ring, r, math.inf)
    bound = r * ring.length
    top = 0
    for T in matrices:
        index, period = _index_and_period(T, r, ring.codes())
        assert E % period == 0 and index <= bound, (ring, T, index, period)
        top = max(top, index)
    assert top == bound or not tight


# every r x r matrix while there are at most this many, else a sample
_EXHAUSTIVE = 6561
_SAMPLED = 400


@pytest.mark.parametrize("q,varpi,r,n", [
    (2, "T", 2, 1), (2, "T", 2, 2), (2, "T", 2, 3),
    (3, "T", 2, 1), (3, "T", 2, 2), (3, "T", 2, 3),
    (2, "T^2+T+1", 2, 1), (2, "T^2+T+1", 2, 2), (2, "T^2+T+1", 2, 3),
    (2, "T", 3, 1), (3, "T", 3, 1)])
def test_witness_exponent_bounds_every_period(q, varpi, r, n):
    # over F_Q[eps]/(eps^n) = A/(varpi^n): E is a multiple of every period
    # and r * n bounds every index
    ring = local_ring(make_place(parse_apoly(field_of_order(q), varpi)), n)
    codes = [ring.codes().encode(x) for x in ring.elements()]
    if len(codes) ** (r * r) <= _EXHAUSTIVE or r == 3:
        matrices, tight = product(codes, repeat=r * r), True
    else:
        rng = random.Random(29)
        matrices = [tuple(rng.choice(codes) for _ in range(r * r))
                    for _ in range(_SAMPLED)]
        tight = False
    _assert_exponent_bound(ring, r, matrices, tight)


@pytest.mark.parametrize("place_index", [0, 1])
@pytest.mark.parametrize("m", [1, 2])
def test_witness_exponent_bounds_iwasawa_periods(place_index, m):
    lv = iwasawa_level(standard_places()[place_index], m)
    rng = random.Random(31)
    encode = lv.codes().encode

    def draw():
        return encode(lv.zero if rng.random() < 0.25
                      else lv.random_element(rng, support=2))
    matrices = [tuple(draw() for _ in range(4)) for _ in range(60)]
    _assert_exponent_bound(lv, 2, matrices, tight=False)


def test_witness_exponent_stays_past_the_index(place_T):
    # over F_3[eps]/(eps^3), [[0, 1], [eps, 0]] is nilpotent of index
    # 6 = r * l: an exponent reduced below that, even to one of the right
    # class modulo E = 72, gives a nonzero power where T^(f-1) is zero
    ring = local_ring(place_T, 3)
    one, zero, eps = ring.one, ring.zero, ring.varpi
    rng = random.Random(37)
    elems = list(ring.elements())
    mats = [[[zero, one], [eps, zero]], [[one, one], [zero, one]],
            [[eps, one], [zero, one + eps]]]
    mats += [[[rng.choice(elems) for _ in range(2)] for _ in range(2)]
             for _ in range(3)]
    m = MatrixCodes(ring.codes(), 2)
    for T in mats:
        powers = [_ref_identity(ring, 2)]
        for _ in range(300):
            powers.append(_ref_mat_mul(powers[-1], T, ring))
        for f in range(1, 301):
            h = _witness_exponent(ring, 2, f)
            assert h <= f - 1
            assert m.decode_matrix(mat_pow(m.encode_matrix(mat_sparse(T)),
                                           h, m)) \
                == mat_sparse(powers[f - 1]), (T, f, h)


def test_witness_exponent_reduces_the_ladder():
    # (3, T), 4 x 4 over A/(T^2) at step 13: f - 1 = 14! - 1 has 37 bits,
    # E = lcm(2, 8, 26, 80) * 9 * 3
    ring = local_ring(standard_places()[0], 2)
    f = math.factorial(14)
    E = gl_exponent(ring, 4, f)
    assert E == 1040 * 27
    h = _witness_exponent(ring, 4, f)
    assert h == (f - 1) % E and 8 <= h < E
    # a cap below E stops the lcm early, and the exponent stays f - 1
    assert gl_exponent(ring, 4, 100) > 100
    assert _witness_exponent(ring, 4, 24) == 23


def _assert_projector_matches_reference(op):
    rep = ordinary_projector(op)
    ref = _ref_projector(op)
    assert rep.projector.matrices == [mat_sparse(e) for e, _, _, _, _ in ref]
    assert rep.steps == [st for _, st, _, _, _ in ref]
    assert rep.invertibility_order == [f for _, _, f, _, _ in ref]
    flags = [all(level[3][i] for level in ref) for i in range(4)]
    assert [rep.idempotent, rep.commutes, rep.invertible_on_image,
            rep.vanishes_on_kernel] == flags
    # the reduced witness exponent gives the full-ladder power T^(f-1)
    rank = op.tower.rank
    for ring, T, (_, _, f, _, P) in zip(op.tower.rings, op.matrices, ref):
        m = MatrixCodes(ring.codes(), rank)
        h = _witness_exponent(ring, rank, f)
        assert h <= f - 1
        assert m.decode_matrix(mat_pow(m.encode_matrix(T), h, m)) \
            == mat_sparse(P)


def _assert_kernels_match_reference(a, b, ring, exponents):
    c = ring.codes()
    width = len(b[0])
    assert _dense(mat_mul(_sparse(a, c), _sparse(b, c), c), width, c) \
        == _ref_mat_mul(a, b, ring)
    m = MatrixCodes(c, len(a))
    for e in exponents:
        assert m.decode_matrix(mat_pow(m.encode_matrix(mat_sparse(a)), e, m)) \
            == mat_sparse(_ref_mat_pow(a, e, ring))


@pytest.mark.parametrize("place_index", [0, 1])
def test_coded_projector_matches_reference_depth2(place_index):
    place = standard_places()[place_index]
    L2 = local_ring(place, 2)
    elems = list(L2.elements())
    rng = random.Random(11)
    for _ in range(6):
        a, b = ([[rng.choice(elems) for _ in range(4)] for _ in range(4)]
                for _ in range(2))
        _assert_kernels_match_reference(a, b, L2, range(8))
        _assert_projector_matches_reference(
            reduction_tower(place, mat_sparse(a), 2))


@pytest.mark.parametrize("place_index", [0, 1])
def test_coded_projector_matches_reference_iwasawa(place_index):
    place = standard_places()[place_index]
    lv = iwasawa_level(place, 2)
    rng = random.Random(5)
    for _ in range(2):
        a, b = ([[lv.random_element(rng, support=2) for _ in range(3)]
                 for _ in range(3)] for _ in range(2))
        _assert_kernels_match_reference(a, b, lv, range(5))
        a = mat_sparse(a)
        _assert_projector_matches_reference(constant_tower(lv, a))
        # the tower Lambda_1 <- Lambda_2 of the same operator
        def down(x):
            return x.reduce_to(1)
        tower = TowerModule([iwasawa_level(place, 1), lv], 3, [down])
        _assert_projector_matches_reference(
            TowerOperator(tower, [mat_map(a, down), a]))
        specs = _specializations((0, 3))
        for spec, cr in zip(specs, control_check(a, lv, specs, lv.ring),
                            strict=True):
            assert (cr.specialized_projector, cr.projector_of_specialized,
                    cr.images_agree) == _ref_control(a, lv, spec, lv.ring)
