"""Truncations of the completed group algebra of the local unit group:
tame/wild decomposition, weight specializations, the embedding into
weight-indexed evaluations, determining weight sets (their evaluation rank
counted by invariant factors over A/(varpi^m), on the wild block), the
duality twist, and the monomial ideal filtration certifying the profinite
structure.

A level-m element is stored in its semilocal decomposition, one wild
group-algebra component per tame character of the residue field units,
as a flat tuple of scalar codes: character-major, then by wild-group
position.  The codes come from the one `ElementCodes` that the ring
A/(varpi^m) owns, shared with the projector's matrices over that ring, so
coefficient arithmetic subscripts its memo tables (`sums[a][b]`,
`prods[a][b]`), in the manner of Zech logarithms.  Each level also owns
one `ElementCodes` over its own elements, which codes the projector's
matrices over the level.  Tables built on first use map a unit code to its
(tame exponent, wild position) and give u^k by code.  Weight
specialization reads off a single component; the independent evaluation
route expands the element over the full unit group first.

Results are memoized per process where their inputs are immutable: an
element keeps its expansion over the full unit group once computed (so
`iota_eval` at many weights, `duality_twist` and `expand` expand a measure
once); `filtration` is `functools.cache`d on (s, r), and the predicates
`MonomialIdeal.contains_ideal` and `maximal_ideal_kills_quotient` on their
ideals, which compare by value.  A call that raises is not cached, so it
raises again on every call.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

from .basearith import ElementCodes, PrimePlace, TruncPoly, local_ring, power


class IwasawaLevel:
    """The level-m truncation: coefficients in A/(varpi^m), group the units
    of that ring, decomposed as (residue units) x (principal units).
    `add`, `sub` and `mul` act on the elements' tuples of scalar codes, and
    `codes()` is the level's own codec, whose codes stand for elements."""

    def __init__(self, place: PrimePlace, m: int):
        if m < 1:
            raise ValueError("level must be >= 1")
        self.place = place
        self.m = m
        self.ring = local_ring(place, m)
        self.scalars = self.ring.codes()
        self.tame_order = place.q ** place.d - 1
        self.wild_group = tuple(self.ring.principal_units())
        self.wild_index = {u: i for i, u in enumerate(self.wild_group)}
        self.width = len(self.wild_group)
        # one local factor R[W] per tame character, each of residue field
        # F_Q and length m * width over itself; the witness exponent of the
        # projector takes these per factor
        self.residue_size = self.ring.residue_size
        self.length = m * self.width
        # tame structure: a generator of the Teichmuller lifts and the
        # character table chi_i(zeta^a) = omega(zeta)^(i*a)
        self.teich_gen = self._find_teich_generator()
        self.teich_powers = tuple(self.teich_gen ** a
                                  for a in range(self.tame_order))
        self._teich_codes = tuple(map(self.scalars.encode, self.teich_powers))
        self._cycles: dict = {}  # unit code -> codes of u^0, u^1, ...
        self.zero = IwasawaElement(self, (0,) * (self.tame_order * self.width))
        self.one = IwasawaElement(
            self, self._dirac_codes(0, self.wild_index[self.ring.one]))
        self._codes = ElementCodes(self)

    def _find_teich_generator(self) -> TruncPoly:
        for u in self.ring.units():
            t = self.ring.teichmuller(u)
            if all(t ** k != self.ring.one for k in range(1, self.tame_order)):
                return t
        raise RuntimeError("no Teichmuller generator found")

    # -- tables over codes, built on first use ------------------------------

    @cached_property
    def _unit_tables(self) -> tuple:
        """(the codes of omega^a * w_i at a * width + i; the map from a unit
        code back to (a, i))."""
        units = tuple(self.scalars.encode(t * v) for t in self.teich_powers
                      for v in self.wild_group)
        return units, {u: divmod(n, self.width) for n, u in enumerate(units)}

    @cached_property
    def _expand_weights(self) -> tuple:
        """[a][chi]: chi^-1(zeta^a) / (tame order), the weight of component
        chi at tame exponent a in `expand`."""
        t, teich = self.tame_order, self._teich_codes
        inv = self.scalars.prods[
            self.scalars.encode(self.ring.from_int(t).inverse())]
        return tuple(tuple(inv[teich[-chi * a % t]] for chi in range(t))
                     for a in range(t))

    @cached_property
    def _wild_products(self) -> tuple:
        """[i][j]: the wild position of w_i * w_j."""
        return tuple(tuple(self.wild_index[u * v] for v in self.wild_group)
                     for u in self.wild_group)

    def unit_power(self, u: int, k: int) -> int:
        """The code of u^k for a unit code u and any integer k, read off the
        cycle u^0, u^1, ... of u (kept once computed)."""
        cycle = self._cycles.get(u)
        if cycle is None:
            times_u, acc, cycle = self.scalars.prods[u], u, [1]
            while acc != 1:
                if not acc:
                    raise ValueError(f"{self.scalars.decode(u)} is not a unit")
                cycle.append(acc)
                acc = times_u[acc]
            cycle = self._cycles[u] = tuple(cycle)
        return cycle[k % len(cycle)]

    # -- elements ------------------------------------------------------------

    def _unit_code(self, u: TruncPoly) -> int:
        if u.ring is not self.ring:
            raise ValueError(f"{u} is not an element of {self.ring!r}")
        code = self.scalars.encode(u)
        if code not in self._unit_tables[1]:
            raise ValueError(f"{u} is not a unit")
        return code

    def _dirac_codes(self, a: int, i: int) -> tuple:
        """[omega^a * w_i]: component chi is chi(zeta^a) at wild position i."""
        t, w = self.tame_order, self.width
        out = [0] * (t * w)
        for chi in range(t):
            out[chi * w + i] = self._teich_codes[chi * a % t]
        return tuple(out)

    def dirac(self, u: TruncPoly) -> "IwasawaElement":
        """The group-like element [u]."""
        a, i = self._unit_tables[1][self._unit_code(u)]
        return IwasawaElement(self, self._dirac_codes(a, i))

    @cached_property
    def _element_codes(self) -> tuple:
        """The codes of the ring's elements, in `ring.elements()` order."""
        return tuple(map(self.scalars.encode, self.ring.elements()))

    def random_element(self, rng, support: int = 3) -> "IwasawaElement":
        """Per tame character, up to `support` draws of a wild position and
        a ring element (in `ring.elements()` order), summed."""
        out, w, sums = list(self.zero.codes), self.width, self.scalars.sums
        ring = self._element_codes
        for chi in range(self.tame_order):
            for _ in range(rng.randrange(support + 1)):
                k = chi * w + rng.randrange(w)
                out[k] = sums[out[k]][ring[rng.randrange(len(ring))]]
        return IwasawaElement(self, tuple(out))

    # -- arithmetic on code tuples ------------------------------------------

    def add(self, x: tuple, y: tuple) -> tuple:
        sums = self.scalars.sums
        return tuple([sums[a][b] for a, b in zip(x, y)])

    def sub(self, x: tuple, y: tuple) -> tuple:
        diffs = self.scalars.diffs
        return tuple([diffs[a][b] for a, b in zip(x, y)])

    def mul(self, x: tuple, y: tuple) -> tuple:
        """Per tame character, the convolution of the wild components."""
        sums, prods, w = self.scalars.sums, self.scalars.prods, self.width
        out = [0] * len(x)
        for base in range(0, len(x), w):
            ys = [(j, e) for j, e in enumerate(y[base:base + w]) if e]
            for row, c in zip(self._wild_products, x[base:base + w]):
                if c:
                    pc = prods[c]
                    for j, e in ys:
                        k = base + row[j]
                        out[k] = sums[out[k]][pc[e]]
        return tuple(out)

    def codes(self) -> ElementCodes:
        """The level's codec over its elements, one per level for its
        lifetime: the projector's matrices over the level are coded by it."""
        return self._codes

    def __repr__(self):
        return f"IwasawaLevel({self.place}, m={self.m})"


_LEVELS: dict[tuple, IwasawaLevel] = {}


def iwasawa_level(place: PrimePlace, m: int) -> IwasawaLevel:
    key = (place.key(), m)
    if key not in _LEVELS:
        _LEVELS[key] = IwasawaLevel(place, m)
    return _LEVELS[key]


class IwasawaElement:
    """Level-m truncated measure: per tame character chi, a map from the
    principal units w_i to level-m scalars, held as the level's tuple of
    scalar codes with c_chi(w_i) at chi * width + i.  Codes are canonical,
    so equality and hashing compare the tuples.  `_expansion` keeps the
    element's expansion once `_expand_codes` computes it."""

    __slots__ = ("level", "codes", "_expansion")

    def __init__(self, level: IwasawaLevel, codes: tuple):
        self.level = level
        self.codes = codes
        self._expansion = None

    def is_zero(self) -> bool:
        return not any(self.codes)

    def _codes_of(self, other) -> tuple:
        if not isinstance(other, IwasawaElement) or other.level is not self.level:
            raise ValueError("elements of different levels")
        return other.codes

    def __add__(self, other):
        return IwasawaElement(self.level,
                              self.level.add(self.codes, self._codes_of(other)))

    def __sub__(self, other):
        return IwasawaElement(self.level,
                              self.level.sub(self.codes, self._codes_of(other)))

    def __neg__(self):
        return self.level.zero - self

    def __mul__(self, other):
        lv = self.level
        if isinstance(other, TruncPoly):
            if other.ring is not lv.ring:
                raise ValueError("scalar of a different ring")
            times_s = lv.scalars.prods[lv.scalars.encode(other)]
            return IwasawaElement(lv, tuple([times_s[c] for c in self.codes]))
        return IwasawaElement(lv, lv.mul(self.codes, self._codes_of(other)))

    def __rmul__(self, other):
        if isinstance(other, TruncPoly):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        return power(self, e, self.level.one)

    def reduce_to(self, m: int) -> "IwasawaElement":
        """The ring map to a lower level: coefficients and group keys both
        reduce modulo varpi^m."""
        lv = self.level
        if m > lv.m:
            raise ValueError("cannot raise the level")
        low = iwasawa_level(lv.place, m)
        out, sums = list(low.zero.codes), low.scalars.sums
        for n, c in enumerate(self.codes):
            if c:
                chi, i = divmod(n, lv.width)
                u = low.ring.reduce(lv.wild_group[i])
                k = chi * low.width + low.wild_index[u]
                c = low.ring.reduce(lv.scalars.decode(c))
                out[k] = sums[out[k]][low.scalars.encode(c)]
        return IwasawaElement(low, tuple(out))

    def expand(self) -> dict:
        """The element as a measure on the full unit group: coefficient of
        [omega(zeta) * v] is (tame order)^-1 sum_chi chi^-1(zeta) c_chi(v)."""
        decode = self.level.scalars.decode
        return {decode(u): decode(c) for u, c in _expand_codes(self)}

    def __eq__(self, other):
        return (isinstance(other, IwasawaElement)
                and other.level is self.level
                and other.codes == self.codes)

    def __hash__(self):
        return hash((id(self.level), self.codes))

    def as_record(self) -> dict:
        lv, w = self.level, self.level.width
        text = lv.ring.to_apoly
        comps = [self.codes[b:b + w] for b in range(0, len(self.codes), w)]
        return {"level": lv.m, "tame": {
            str(chi): {str(text(lv.wild_group[i])):
                       str(text(lv.scalars.decode(c)))
                       for i, c in enumerate(comp) if c}
            for chi, comp in enumerate(comps) if any(comp)}}

    def __repr__(self):
        return f"Iwasawa({self.as_record()})"


def _expand_codes(x: IwasawaElement) -> tuple:
    """`expand` on codes: (unit code, nonzero coefficient code) pairs,
    computed on the first call and kept by the element."""
    if x._expansion is not None:
        return x._expansion
    lv = x.level
    w, sums, prods = lv.width, lv.scalars.sums, lv.scalars.prods
    units, out = lv._unit_tables[0], []
    for a, weights in enumerate(lv._expand_weights):
        for i in range(w):
            acc = 0
            for weight, c in zip(weights, x.codes[i::w]):
                if c:
                    acc = sums[acc][prods[weight][c]]
            if acc:
                out.append((units[a * w + i], acc))
    x._expansion = tuple(out)
    return x._expansion


def _decompose_codes(level: IwasawaLevel, pairs) -> IwasawaElement:
    """`decompose` on (unit code, coefficient code) pairs."""
    t, w = level.tame_order, level.width
    sums, prods = level.scalars.sums, level.scalars.prods
    split, teich = level._unit_tables[1], level._teich_codes
    out = list(level.zero.codes)
    for u, c in pairs:
        a, i = split[u]
        times_c = prods[c]
        for chi in range(t):
            k = chi * w + i
            out[k] = sums[out[k]][times_c[teich[chi * a % t]]]
    return IwasawaElement(level, tuple(out))


def decompose(level: IwasawaLevel, measure: dict) -> IwasawaElement:
    """Inverse of expand: a measure on the full unit group, componentized
    over the tame characters."""
    encode = level.scalars.encode
    return _decompose_codes(level, ((level._unit_code(u), encode(c))
                                    for u, c in measure.items()))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class WeightChar(namedtuple("WeightChar", "k tame_index", defaults=(None,))):
    """An algebraic weight k (group-likes map to the k-th power), with an
    optional tame character override `tame_index` (an int, or None) for
    non-algebraic pairs.  An immutable record."""

    __slots__ = ()

    def tame(self, tame_order: int) -> int:
        if self.tame_index is not None:
            return self.tame_index % tame_order
        return self.k % tame_order


def specialize(x: IwasawaElement, weight) -> TruncPoly:
    """The weight specialization, a ring map to A/(varpi^m): on a dirac
    mass [u] it returns u^k.  Computed through the decomposed storage: only
    the tame component matching the weight contributes."""
    w = weight if isinstance(weight, WeightChar) else WeightChar(weight)
    lv = x.level
    codes = lv.scalars
    sums, prods = codes.sums, codes.prods
    base = w.tame(lv.tame_order) * lv.width
    acc = 0
    for v, c in zip(lv.wild_group, x.codes[base:base + lv.width]):
        if c:
            acc = sums[acc][prods[c][lv.unit_power(codes.encode(v), w.k)]]
    return codes.decode(acc)


def iota_eval(x: IwasawaElement, k: int) -> TruncPoly:
    """The same value through the embedding into weight-indexed
    evaluations: expand over the full unit group and sum c_u u^k.  Agrees
    with specialize at every integer weight (the two routes are kept
    independent on purpose)."""
    lv = x.level
    sums, prods = lv.scalars.sums, lv.scalars.prods
    acc = 0
    for u, c in _expand_codes(x):
        acc = sums[acc][prods[c][lv.unit_power(u, k)]]
    return lv.scalars.decode(acc)


def duality_twist(x: IwasawaElement) -> IwasawaElement:
    """The algebra automorphism induced by u -> u^2 [u^-1]: on a dirac mass
    [u] it returns u^2 [u^{-1}].  Specialization at weight k of the twist
    equals specialization at weight 2 - k, and the twist is an involution."""
    lv = x.level
    prods, pw = lv.scalars.prods, lv.unit_power
    return _decompose_codes(lv, ((pw(u, -1), prods[c][pw(u, 2)])
                                 for u, c in _expand_codes(x)))


def determining_weights(place: PrimePlace, m: int) -> "DeterminingSet":
    """A finite weight set K whose evaluations determine all integer-weight
    evaluations at level m: K is a full period of the unit group exponent
    t * p^s, so u^k for any k is a column of the K-indexed evaluation
    matrix.  Its rank is t times the rank of the wild block W = (w^j), w a
    principal unit and j mod p^s: a Fourier transform over the tame
    characters on the rows and CRT on the columns make the evaluation
    matrix t copies of t * W, and t is a unit."""
    lv = iwasawa_level(place, m)
    p = place.field.p
    # exponent of the unit group: tame order times the wild exponent
    wild_exp = 1
    wild = [lv.scalars.encode(v) for v in lv.wild_group]
    while any(lv.unit_power(v, wild_exp) != 1 for v in wild):
        wild_exp *= p
    block = [[lv.unit_power(w, j) for j in range(wild_exp)] for w in wild]
    exponent = lv.tame_order * wild_exp
    return DeterminingSet(place, m, tuple(range(exponent)), exponent,
                          lv.tame_order * smith_count(lv.ring, block))


class DeterminingSet(namedtuple(
        "DeterminingSet", "place m weights exponent rank")):
    """The weights of a determining set at level m, the unit group
    exponent and the rank of the evaluation matrix.  An immutable record."""

    __slots__ = ()


def smith_count(ring, matrix) -> int:
    """The number of nonzero invariant factors of a matrix of codes over
    the chain ring A/(varpi^n) (`ring.codes()`), an invariant of its row
    module.  Each step takes a pivot of least valuation in the whole
    remaining submatrix, so it divides every entry there; clearing its
    column below and dropping its row and column leaves the submatrix whose
    invariant factors are the rest."""
    codes, n = ring.codes(), ring.N
    diffs, prods = codes.diffs, codes.prods
    val = cache(lambda c: codes.decode(c).varpi_valuation())
    rows = [list(row) for row in matrix]
    count = 0
    while rows and rows[0]:
        v, r, c = min((val(x), r, c) for r, row in enumerate(rows)
                      for c, x in enumerate(row))
        if v >= n:
            break
        pivot = rows.pop(r)
        unit_inverse = codes.decode(pivot[c]).eps_quotient(v).inverse()
        for i, row in enumerate(rows):
            if row[c]:
                factor = codes.decode(row[c]).eps_quotient(v) * unit_inverse
                times_f = prods[codes.encode(factor)]
                row = [diffs[a][times_f[b]] for a, b in zip(row, pivot)]
            rows[i] = row[:c] + row[c + 1:]
        count += 1
    return count


# ---------------------------------------------------------------------------
# the monomial ideal filtration
# ---------------------------------------------------------------------------

class MonomialIdeal(namedtuple("MonomialIdeal", "nvars gens")):
    """Ideal generated by monomials in the variables (varpi, T_1, ..., T_s);
    a monomial is an exponent tuple of length nvars = s + 1 (index 0 is
    varpi), and `gens` is a tuple of them.  An immutable record, equal to
    another with the same generator tuple."""

    __slots__ = ()

    def packed(self) -> "PackedMonomials":
        """The membership test of this ideal, built once for a loop."""
        return PackedMonomials(self.nvars, self.gens)

    @cache
    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """Whether `other` lies in this ideal.  Memoized: a pure function
        of two immutable ideals."""
        test = self.packed()
        return all(g in test for g in other.gens)

    def minimal_gens(self) -> tuple:
        """The generators that no other one divides, each once, in sorted
        order: the distinct generators with exactly one divisor among
        them, themselves."""
        gens = sorted(set(self.gens))
        test = PackedMonomials(self.nvars, gens)
        return tuple(g for g in gens if test.divisor_count(pack_monomial(g)) == 1)


# the largest generator exponent a PackedMonomials takes; a tested
# monomial's exponents are capped one above it, which keeps divisibility
MAX_GENERATOR_EXPONENT = 126


def pack_monomial(mono) -> int:
    """The monomial as an int with one byte per variable, low variable
    first, each exponent capped at MAX_GENERATOR_EXPONENT + 1."""
    if max(mono, default=0) > MAX_GENERATOR_EXPONENT:
        mono = [min(e, MAX_GENERATOR_EXPONENT + 1) for e in mono]
    return int.from_bytes(bytes(mono), "little")


class PackedMonomials:
    """Divisibility of a packed monomial by a list of generator monomials,
    tested against every generator at once in a few big-int operations.

    Monomials pack into one byte per variable (`pack_monomial`).  The
    generators lie side by side in `gens`, one lane of nvars bytes each,
    and a packed x is copied into every lane by one product with `lanes`
    (a one at the foot of each lane).  With the top bit of every byte set
    (`guards`), subtracting the generators borrows across no byte, and a
    byte keeps its guard exactly when x's exponent reaches the
    generator's.  One product with `byte_sum` (a one in each of nvars
    bytes) adds up the kept guards of each lane in its top byte, and
    `bias` lifts that count into the top bit exactly when it is nvars:
    the lanes whose generator divides x."""

    __slots__ = ("gens", "lanes", "guards", "byte_sum", "bias", "tops")

    def __init__(self, nvars: int, gens):
        if not 1 <= nvars <= 128:  # a lane's count must fit its top byte
            raise ValueError(f"{nvars} variables; packing takes 1 to 128")
        packed = b"".join(map(bytes, gens))
        if max(packed, default=0) > MAX_GENERATOR_EXPONENT:
            raise ValueError(
                f"generator exponents above {MAX_GENERATOR_EXPONENT}")
        count, width = len(gens), 8 * nvars
        self.gens = int.from_bytes(packed, "little")
        self.lanes = int.from_bytes((b"\x01" + bytes(nvars - 1)) * count, "little")
        self.guards = int.from_bytes(b"\x80" * (nvars * count), "little")
        self.byte_sum = int.from_bytes(b"\x01" * nvars, "little")
        self.bias = (self.lanes << (width - 8)) * (128 - nvars)
        self.tops = self.lanes << (width - 1)

    def _dividing_lanes(self, x: int) -> int:
        """The top bit of each lane whose generator divides x."""
        guards = self.guards
        kept = (((x * self.lanes | guards) - self.gens) & guards) >> 7
        return (kept * self.byte_sum + self.bias) & self.tops

    def contains_packed(self, x: int) -> bool:
        """Whether some generator divides the packed monomial x."""
        return bool(self._dividing_lanes(x))

    def divisor_count(self, x: int) -> int:
        """How many generators divide the packed monomial x."""
        return self._dividing_lanes(x).bit_count()

    def __contains__(self, mono: tuple) -> bool:
        return bool(self._dividing_lanes(pack_monomial(mono)))


def _monomials_of_degree(nvars: int, deg: int):
    if nvars == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, deg - first):
            yield (first,) + rest


def _power_ideal_gens(nvars: int, upto_var: int, degree: int):
    """Monomials of the given degree in variables 0..upto_var (inclusive),
    padded to nvars."""
    for mono in _monomials_of_degree(upto_var + 1, degree):
        yield mono + (0,) * (nvars - upto_var - 1)


def _chain_ideal(nvars: int, gens: list, first_unit: int) -> MonomialIdeal:
    """The ideal generated by gens and by the variables first_unit ..
    nvars - 1, held by its (sorted) minimal generators."""
    units = [(0,) * v + (1,) + (0,) * (nvars - v - 1) for v in range(first_unit, nvars)]
    return MonomialIdeal(nvars, MonomialIdeal(nvars, tuple(gens + units)).minimal_gens())


def J_ideal(s: int, n: int) -> MonomialIdeal:
    """The n-th corner of the filtration at s wild generators: the degree-n
    power of the ideal on the first min(n, s) wild variables plus every
    later variable (later variables beyond s are dropped at truncation)."""
    nvars = s + 1
    upto = min(n, s)
    return _chain_ideal(nvars, list(_power_ideal_gens(nvars, upto, n)), upto + 1)


def filtration_index_range(s: int) -> int:
    """Largest r for which I_r is expressible with s wild generators."""
    return alpha(s) + s + 1


def alpha(n: int) -> int:
    """Index with I_alpha(n) = J_n (alpha(2) = 2, alpha(n+1) = alpha(n)+n+1)."""
    if n < 2:
        return n
    return n * (n + 1) // 2 - 1


@cache
def filtration(s: int, r: int) -> MonomialIdeal:
    """The r-th ideal of the decreasing chain at truncation s: the corners
    are I_alpha(n) = J_n and the intermediate steps adjoin the monomials of
    increasing degree divisible by the next wild variable.  Memoized: each
    chain ideal is built once per process."""
    if s < 1:
        raise ValueError("need at least one wild generator")
    if r < 0 or r > filtration_index_range(s):
        raise ValueError(
            f"index {r} out of range for {s} generators "
            f"(max {filtration_index_range(s)})")
    nvars = s + 1
    if r <= 1:
        return J_ideal(s, 1)
    n = 2
    while alpha(n + 1) < r:
        n += 1
    if alpha(n) == r:
        return J_ideal(s, n)
    j = r - alpha(n)  # 1 <= j <= n + 1
    gens = list(_power_ideal_gens(nvars, min(n, s), n + 1))
    nxt = n + 1  # the next wild variable T_{n+1}, index n+1 in the tuple
    if nxt <= s:
        for mono in _monomials_of_degree(nxt + 1, j):
            if mono[nxt] >= 1:
                gens.append(mono + (0,) * (nvars - nxt - 1))
    return _chain_ideal(nvars, gens, nxt + 1)


def power_containment_degree(I: MonomialIdeal) -> int:
    """Smallest D with every degree-D monomial in I (exists for the chain
    ideals; bounded search)."""
    test = I.packed()
    for D in range(0, 40):
        if all(mono in test for mono in _monomials_of_degree(I.nvars, D)):
            return D
    raise RuntimeError("no containment degree found")


def quotient_basis(I: MonomialIdeal, J: MonomialIdeal) -> list:
    """Monomial basis of I/J (monomials in I but not in J); finite because
    J contains a power of the maximal ideal."""
    if not I.contains_ideal(J):
        raise ValueError("J is not contained in I")
    D = power_containment_degree(J)
    in_i, in_j = I.packed(), J.packed()
    return [mono for deg in range(D)
            for mono in _monomials_of_degree(I.nvars, deg)
            if mono in in_i and mono not in in_j]


@cache
def maximal_ideal_kills_quotient(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Whether the maximal ideal kills I/J, for J inside I: m(I/J) = 0
    exactly when m I lies in J, so it suffices that every variable
    multiplies every generator of I into J.  Memoized like
    `contains_ideal`; the ValueError for J not inside I is not cached."""
    if not I.contains_ideal(J):
        raise ValueError("J is not contained in I")
    in_j = J.packed()
    shifts = [1 << 8 * v for v in range(I.nvars)]  # x_v on packed monomials
    # a generator of I already in J has all its multiples in J
    return all(in_j.contains_packed(x) or all(
        in_j.contains_packed(x + shift) for shift in shifts)
        for x in map(pack_monomial, I.gens))


def monomial_str(mono: tuple) -> str:
    parts = []
    names = ["p"] + [f"T{i}" for i in range(1, len(mono))]
    for name, e in zip(names, mono):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"
