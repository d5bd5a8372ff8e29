"""Truncations of the completed group algebra of the local unit group:
tame/wild decomposition, weight specializations, the embedding into
weight-indexed evaluations, the duality twist, and the monomial ideal
filtration certifying the profinite structure.

A level-m element is stored in its semilocal decomposition, one wild
group-algebra component per tame character of the residue field units,
as a flat tuple of scalar codes: character-major, then by wild-group
position.  The codes come from the one `ElementCodes` that the ring
A/(varpi^m) owns, shared with the projector's matrices over that ring, so
coefficient arithmetic is a memo lookup, in the manner of Zech logarithms.
Tables built on first use map a unit code to its (tame exponent, wild
position) and give u^k by code.  Weight specialization reads off a single
component; the independent evaluation route expands the element over the
full unit group first.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property, partial
from operator import attrgetter, ge
from types import SimpleNamespace

from .basearith import LocalElement, PrimePlace, local_ring, power


class IwasawaLevel:
    """The level-m truncation: coefficients in A/(varpi^m), group the units
    of that ring, decomposed as (residue units) x (principal units).
    `add`, `sub` and `mul` act on the elements' code tuples, and `codes()`
    hands the same functions to the projector."""

    def __init__(self, place: PrimePlace, m: int):
        if m < 1:
            raise ValueError("level must be >= 1")
        self.place = place
        self.m = m
        self.ring = local_ring(place, m)
        self.scalars = self.ring.codes()
        self.tame_order = place.q ** place.d - 1
        self.wild_group = tuple(sorted(self.ring.principal_units(),
                                       key=_local_key))
        self.wild_index = {u: i for i, u in enumerate(self.wild_group)}
        self.width = len(self.wild_group)
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
        self._codec = SimpleNamespace(
            zero=self.zero.codes, one=self.one.codes,
            encode=attrgetter("codes"), decode=partial(IwasawaElement, self),
            add=self.add, sub=self.sub, mul=self.mul)

    def _find_teich_generator(self) -> LocalElement:
        for u in sorted(self.ring.units(), key=_local_key):
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
        t, teich, mul = self.tame_order, self._teich_codes, self.scalars.mul
        inv = self.scalars.encode(self.ring.from_int(t).inverse())
        return tuple(tuple(mul(teich[-chi * a % t], inv) for chi in range(t))
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
            mul, acc, cycle = self.scalars.mul, u, [1]
            while acc != 1:
                if not acc:
                    raise ValueError(f"{self.scalars.decode(u)} is not a unit")
                cycle.append(acc)
                acc = mul(acc, u)
            cycle = self._cycles[u] = tuple(cycle)
        return cycle[k % len(cycle)]

    # -- elements ------------------------------------------------------------

    def _unit_code(self, u: LocalElement) -> int:
        if u.ring is not self.ring:
            u = self.ring.from_apoly(u.value)
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

    def dirac(self, u: LocalElement) -> "IwasawaElement":
        """The group-like element [u]."""
        a, i = self._unit_tables[1][self._unit_code(u)]
        return IwasawaElement(self, self._dirac_codes(a, i))

    def random_element(self, rng, support: int = 3) -> "IwasawaElement":
        """Per tame character, up to `support` draws of a wild position and
        a ring element (in `ring.elements()` order), summed."""
        out, w = list(self.zero.codes), self.width
        ring = list(map(self.scalars.encode, self.ring.elements()))
        for chi in range(self.tame_order):
            for _ in range(rng.randrange(support + 1)):
                k = chi * w + rng.randrange(w)
                out[k] = self.scalars.add(out[k],
                                          ring[rng.randrange(len(ring))])
        return IwasawaElement(self, tuple(out))

    # -- arithmetic on code tuples ------------------------------------------

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple(map(self.scalars.add, x, y))

    def sub(self, x: tuple, y: tuple) -> tuple:
        return tuple(map(self.scalars.sub, x, y))

    def mul(self, x: tuple, y: tuple) -> tuple:
        """Per tame character, the convolution of the wild components."""
        add, mul, w = self.scalars.add, self.scalars.mul, self.width
        out = [0] * len(x)
        for base in range(0, len(x), w):
            ys = y[base:base + w]
            for row, c in zip(self._wild_products, x[base:base + w]):
                if c:
                    for j, e in enumerate(ys):
                        if e:
                            k = base + row[j]
                            out[k] = add(out[k], mul(c, e))
        return tuple(out)

    def codes(self) -> SimpleNamespace:
        """The projector's codec, one per level: an element's code is its
        own tuple."""
        return self._codec

    def __repr__(self):
        return f"IwasawaLevel({self.place}, m={self.m})"


_LEVELS: dict[tuple, IwasawaLevel] = {}


def iwasawa_level(place: PrimePlace, m: int) -> IwasawaLevel:
    key = (place.key(), m)
    if key not in _LEVELS:
        _LEVELS[key] = IwasawaLevel(place, m)
    return _LEVELS[key]


def _local_key(x: LocalElement):
    return tuple(c.log for c in x.value.coeffs)


class IwasawaElement:
    """Level-m truncated measure: per tame character chi, a map from the
    principal units w_i to level-m scalars, held as the level's tuple of
    scalar codes with c_chi(w_i) at chi * width + i.  Codes are canonical,
    so equality and hashing compare the tuples."""

    __slots__ = ("level", "codes")

    def __init__(self, level: IwasawaLevel, codes: tuple):
        self.level = level
        self.codes = codes

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
        if isinstance(other, LocalElement):
            if other.ring is not lv.ring:
                raise ValueError("scalar of a different ring")
            s, mul = lv.scalars.encode(other), lv.scalars.mul
            return IwasawaElement(lv, tuple(mul(c, s) for c in self.codes))
        return IwasawaElement(lv, lv.mul(self.codes, self._codes_of(other)))

    def __rmul__(self, other):
        if isinstance(other, LocalElement):
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
        out = list(low.zero.codes)
        for n, c in enumerate(self.codes):
            if c:
                chi, i = divmod(n, lv.width)
                u = low.ring.from_apoly(lv.wild_group[i].value)
                k = chi * low.width + low.wild_index[u]
                c = low.ring.from_apoly(lv.scalars.decode(c).value)
                out[k] = low.scalars.add(out[k], low.scalars.encode(c))
        return IwasawaElement(low, tuple(out))

    def expand(self) -> dict:
        """The element as a measure on the full unit group: coefficient of
        [omega(zeta) * v] is (tame order)^-1 sum_chi chi^-1(zeta) c_chi(v)."""
        decode = self.level.scalars.decode
        return {decode(u): decode(c) for u, c in _expand_codes(self).items()}

    def __eq__(self, other):
        return (isinstance(other, IwasawaElement)
                and other.level is self.level
                and other.codes == self.codes)

    def __hash__(self):
        return hash((id(self.level), self.codes))

    def as_record(self) -> dict:
        lv, w = self.level, self.level.width
        comps = [self.codes[b:b + w] for b in range(0, len(self.codes), w)]
        return {"level": lv.m, "tame": {
            str(chi): {str(lv.wild_group[i].value):
                       str(lv.scalars.decode(c).value)
                       for i, c in enumerate(comp) if c}
            for chi, comp in enumerate(comps) if any(comp)}}

    def __repr__(self):
        return f"Iwasawa({self.as_record()})"


def _expand_codes(x: IwasawaElement) -> dict:
    """`expand` on codes: unit code -> nonzero coefficient code."""
    lv = x.level
    w, add, mul = lv.width, lv.scalars.add, lv.scalars.mul
    units, out = lv._unit_tables[0], {}
    for a, weights in enumerate(lv._expand_weights):
        for i in range(w):
            acc = 0
            for weight, c in zip(weights, x.codes[i::w]):
                if c:
                    acc = add(acc, mul(weight, c))
            if acc:
                out[units[a * w + i]] = acc
    return out


def _decompose_codes(level: IwasawaLevel, pairs) -> IwasawaElement:
    """`decompose` on (unit code, coefficient code) pairs."""
    t, w, codes = level.tame_order, level.width, level.scalars
    split, teich = level._unit_tables[1], level._teich_codes
    out = list(level.zero.codes)
    for u, c in pairs:
        a, i = split[u]
        for chi in range(t):
            k = chi * w + i
            out[k] = codes.add(out[k], codes.mul(teich[chi * a % t], c))
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


def specialize(x: IwasawaElement, weight) -> LocalElement:
    """The weight specialization, a ring map to A/(varpi^m): on a dirac
    mass [u] it returns u^k.  Computed through the decomposed storage: only
    the tame component matching the weight contributes."""
    w = weight if isinstance(weight, WeightChar) else WeightChar(weight)
    lv = x.level
    codes = lv.scalars
    base = w.tame(lv.tame_order) * lv.width
    acc = 0
    for v, c in zip(lv.wild_group, x.codes[base:base + lv.width]):
        if c:
            acc = codes.add(acc, codes.mul(c, lv.unit_power(codes.encode(v),
                                                            w.k)))
    return lv.scalars.decode(acc)


def iota_eval(x: IwasawaElement, k: int) -> LocalElement:
    """The same value through the embedding into weight-indexed
    evaluations: expand over the full unit group and sum c_u u^k.  Agrees
    with specialize at every integer weight (the two routes are kept
    independent on purpose)."""
    lv = x.level
    add, mul = lv.scalars.add, lv.scalars.mul
    acc = 0
    for u, c in _expand_codes(x).items():
        acc = add(acc, mul(c, lv.unit_power(u, k)))
    return lv.scalars.decode(acc)


def duality_twist(x: IwasawaElement) -> IwasawaElement:
    """The algebra automorphism induced by u -> u^2 [u^-1]: on a dirac mass
    [u] it returns u^2 [u^{-1}].  Specialization at weight k of the twist
    equals specialization at weight 2 - k, and the twist is an involution."""
    lv = x.level
    mul, pw = lv.scalars.mul, lv.unit_power
    return _decompose_codes(lv, ((pw(u, -1), mul(c, pw(u, 2)))
                                 for u, c in _expand_codes(x).items()))


def _generated_subgroup(ring, gens) -> set:
    span = {ring.one}
    frontier = [ring.one]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def wild_generators(level: IwasawaLevel) -> list:
    """The fixed topological generator family for the principal units at
    this level: 1 + omega^e * varpi^j with omega the Teichmuller generator
    and e running through a residue basis, taking layers j = 1, 2, ...
    until the family generates (the first layer suffices at low levels).
    The abstract wild variables of the ideal filtration correspond to
    [u_i] - 1 for this family."""
    ring = level.ring
    dim = level.place.field.n * level.place.d  # [k(varpi) : F_p]
    group = set(level.wild_group)
    gens: list = []
    for j in range(1, level.m):
        varpi_j = ring.varpi ** j
        for e in range(dim):
            if _generated_subgroup(ring, gens) == group:
                return gens
            gens.append(ring.one + level.teich_gen ** e * varpi_j)
    if _generated_subgroup(ring, gens) != group:
        raise RuntimeError("generator family does not generate the level")
    return gens


def determining_weights(place: PrimePlace, m: int) -> "DeterminingSet":
    """A finite weight set K whose evaluations determine all integer-weight
    evaluations at level m: K is a full period of the unit group exponent,
    so u^k for any k is a column of the K-indexed evaluation matrix; the
    saturation rank is certified against a doubled weight range."""
    lv = iwasawa_level(place, m)
    p = place.field.p
    # exponent of the unit group: tame order times the wild exponent
    wild_exp = 1
    wild = [lv.scalars.encode(v) for v in lv.wild_group]
    while any(lv.unit_power(v, wild_exp) != 1 for v in wild):
        wild_exp *= p
    exponent = lv.tame_order * wild_exp
    units = [lv.scalars.encode(u)
             for u in sorted(lv.ring.units(), key=_local_key)]
    doubled = [[lv.unit_power(u, k) for k in range(2 * exponent)]
               for u in units]
    rank = _evaluation_rank(lv, [row[:exponent] for row in doubled])
    return DeterminingSet(place, m, tuple(range(exponent)), exponent,
                          rank, rank == _evaluation_rank(lv, doubled))


class DeterminingSet(namedtuple(
        "DeterminingSet", "place m weights exponent rank saturated")):
    """The weights of a determining set at level m, the unit group
    exponent, the evaluation rank and whether it saturates.  An immutable
    record."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.saturated


def _evaluation_rank(lv: IwasawaLevel, matrix) -> int:
    """Rank of a matrix of scalar codes over A/(varpi^m) in the residue
    sense refined by valuation: the number of varpi-power pivots found by
    fraction-free elimination (enough for saturation comparison)."""
    m, codes = lv.m, lv.scalars
    val = cache(lambda c: codes.decode(c).varpi_valuation())
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        # find the row whose entry at col has minimal valuation
        best, best_val = None, m
        for r in range(rank, len(rows)):
            v = val(rows[r][col])
            if v < best_val:
                best, best_val = r, v
        if best is None or best_val >= m:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        # clear below using exact multiples: entry - (entry/pivot) * pivot,
        # where entry/pivot divides both by the pivot valuation and then
        # inverts the unit part of the pivot
        unit_inverse = _shift_unit(codes.decode(rows[rank][col]),
                                   best_val).inverse()
        for r in range(rank + 1, len(rows)):
            e = rows[r][col]
            if val(e) >= m:
                continue
            if val(e) < best_val:
                raise AssertionError("pivot was not minimal")
            eu = _shift_unit(codes.decode(e), best_val)
            factor = codes.encode(eu * unit_inverse)
            rows[r] = [codes.sub(a, codes.mul(factor, b))
                       for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _shift_unit(x: LocalElement, val: int) -> LocalElement:
    """x / varpi^val performed exactly, re-raised to the original ring."""
    quot, rem = x.value.divmod(x.ring.place.varpi ** val)
    if not rem.is_zero():
        raise ValueError("not divisible")
    return LocalElement(x.ring, quot)


# ---------------------------------------------------------------------------
# the monomial ideal filtration
# ---------------------------------------------------------------------------

class MonomialIdeal(namedtuple("MonomialIdeal", "nvars gens")):
    """Ideal generated by monomials in the variables (varpi, T_1, ..., T_s);
    a monomial is an exponent tuple of length nvars = s + 1 (index 0 is
    varpi), and `gens` is a tuple of them.  An immutable record, equal to
    another with the same generator tuple."""

    __slots__ = ()

    def contains_monomial(self, mono: tuple) -> bool:
        """Some generator divides mono: every exponent is at least the
        generator's."""
        return any(all(map(ge, mono, gen)) for gen in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other.gens)

    def minimal_gens(self) -> tuple:
        out: list = []
        for g in sorted(self.gens):
            if not MonomialIdeal(self.nvars, tuple(out)).contains_monomial(g):
                out.append(g)
        return tuple(out)


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


def J_ideal(s: int, n: int) -> MonomialIdeal:
    """The n-th corner of the filtration at s wild generators: the degree-n
    power of the ideal on the first min(n, s) wild variables plus every
    later variable (later variables beyond s are dropped at truncation)."""
    nvars = s + 1
    upto = min(n, s)
    gens = list(_power_ideal_gens(nvars, upto, n))
    for extra in range(upto + 1, s + 1):
        e = [0] * nvars
        e[extra] = 1
        gens.append(tuple(e))
    return MonomialIdeal(nvars, MonomialIdeal(nvars, tuple(gens)).minimal_gens())


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
    for extra in range(nxt + 1, s + 1):
        e = [0] * nvars
        e[extra] = 1
        gens.append(tuple(e))
    return MonomialIdeal(nvars, MonomialIdeal(nvars, tuple(gens)).minimal_gens())


def power_containment_degree(I: MonomialIdeal) -> int:
    """Smallest D with every degree-D monomial in I (exists for the chain
    ideals; bounded search)."""
    for D in range(0, 40):
        if all(I.contains_monomial(mono)
               for mono in _monomials_of_degree(I.nvars, D)):
            return D
    raise RuntimeError("no containment degree found")


def quotient_basis(I: MonomialIdeal, J: MonomialIdeal) -> list:
    """Monomial basis of I/J (monomials in I but not in J); finite because
    J contains a power of the maximal ideal."""
    if not I.contains_ideal(J):
        raise ValueError("J is not contained in I")
    D = power_containment_degree(J)
    out = []
    for deg in range(D):
        for mono in _monomials_of_degree(I.nvars, deg):
            if I.contains_monomial(mono) and not J.contains_monomial(mono):
                out.append(mono)
    return out


def maximal_ideal_kills_quotient(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Whether every variable multiplies the quotient basis into J."""
    basis = quotient_basis(I, J)
    for mono in basis:
        for v in range(I.nvars):
            shifted = tuple(e + (1 if i == v else 0) for i, e in enumerate(mono))
            if not J.contains_monomial(shifted):
                return False
    return True


def monomial_str(mono: tuple) -> str:
    parts = []
    names = ["p"] + [f"T{i}" for i in range(1, len(mono))]
    for name, e in zip(names, mono):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"
