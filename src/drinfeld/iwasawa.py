"""Truncations of the completed group algebra of the local unit group:
tame/wild decomposition, weight specializations, the embedding into
weight-indexed evaluations, the duality twist, and the monomial ideal
filtration certifying the profinite structure.

A level-m element is stored in its semilocal decomposition: one wild
group-algebra component per tame character of the residue field units.
Weight specialization reads off a single component; the independent
evaluation route expands the element over the full unit group first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basearith import LocalElement, PrimePlace, local_ring, power


class IwasawaLevel:
    """The level-m truncation: coefficients in A/(varpi^m), group the units
    of that ring, decomposed as (residue units) x (principal units)."""

    def __init__(self, place: PrimePlace, m: int):
        if m < 1:
            raise ValueError("level must be >= 1")
        self.place = place
        self.m = m
        self.ring = local_ring(place, m)
        self.tame_order = place.q ** place.d - 1
        self.wild_group = tuple(sorted(self.ring.principal_units(),
                                       key=_local_key))
        self.wild_index = {u: i for i, u in enumerate(self.wild_group)}
        # tame structure: a generator of the Teichmuller lifts and the
        # character table chi_i(zeta^a) = omega(zeta)^(i*a)
        self.teich_gen = self._find_teich_generator()
        self.teich_powers = tuple(self.teich_gen ** a
                                  for a in range(self.tame_order))
        self.teich_index = {t: a for a, t in enumerate(self.teich_powers)}
        self.tame_inverse = self.ring.from_int(self.tame_order).inverse()
        self.zero = IwasawaElement(self, ((),) * self.tame_order)
        self.one = self.dirac(self.ring.one)

    def _find_teich_generator(self) -> LocalElement:
        qd = self.tame_order + 1
        for u in sorted(self.ring.units(), key=_local_key):
            t = self.ring.teichmuller(u)
            order = 1
            acc = t
            while acc != self.ring.one:
                acc = acc * t
                order += 1
                if order > self.tame_order:
                    break
            if order == self.tame_order:
                return t
        raise RuntimeError("no Teichmuller generator found")

    # -- decomposition helpers --------------------------------------------

    def split_unit(self, u: LocalElement) -> tuple[int, LocalElement]:
        """u = omega * wild with omega a Teichmuller power: returns the
        tame exponent and the wild (principal) part."""
        if u.ring is not self.ring:
            u = self.ring.from_apoly(u.value)
        if not u.is_unit():
            raise ValueError(f"{u} is not a unit")
        om = self.ring.teichmuller(u)
        a = self.teich_index[om]
        wild = om.inverse() * u
        return a, wild

    def chi_value(self, chi: int, tame_exp: int) -> LocalElement:
        """chi_i evaluated on the residue class with Teichmuller exponent
        a, as a level-m scalar."""
        return self.teich_powers[(chi * tame_exp) % self.tame_order]

    def dirac(self, u: LocalElement) -> "IwasawaElement":
        """The group-like element [u] in decomposed form: component chi is
        chi(tame part) times the dirac mass at the wild part."""
        a, wild = self.split_unit(u)
        comps = []
        for chi in range(self.tame_order):
            comps.append(((wild, self.chi_value(chi, a)),))
        return IwasawaElement(self, tuple(comps))

    def from_components(self, comps) -> "IwasawaElement":
        return IwasawaElement(self, tuple(_canonical_component(dict(c))
                                          for c in comps))

    def codes(self) -> "MeasureCodes":
        return MeasureCodes(self)

    def random_element(self, rng, support: int = 3) -> "IwasawaElement":
        comps = []
        ring_elems = None
        for _ in range(self.tame_order):
            mp = {}
            for _ in range(rng.randrange(support + 1)):
                u = self.wild_group[rng.randrange(len(self.wild_group))]
                if ring_elems is None:
                    ring_elems = [self.ring.from_apoly(a.value)
                                  for a in self.ring.elements()]
                mp[u] = mp.get(u, self.ring.zero) + \
                    ring_elems[rng.randrange(len(ring_elems))]
            comps.append(mp)
        return self.from_components(comps)

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


def _canonical_component(mp: dict) -> tuple:
    items = [(u, c) for u, c in mp.items() if not c.is_zero()]
    items.sort(key=lambda uc: _local_key(uc[0]))
    return tuple(items)


class IwasawaElement:
    """Level-m truncated measure in decomposed storage: per tame character,
    a finitely supported map from principal units to level-m scalars."""

    __slots__ = ("level", "components")

    def __init__(self, level: IwasawaLevel, components: tuple):
        self.level = level
        self.components = components

    def component(self, chi: int) -> dict:
        return dict(self.components[chi])

    def is_zero(self) -> bool:
        return all(not c for c in self.components)

    def _binop(self, other, fn):
        if not isinstance(other, IwasawaElement) or other.level is not self.level:
            raise ValueError("elements of different levels")
        out = []
        for mine, theirs in zip(self.components, other.components):
            acc = dict(mine)
            for u, c in theirs:
                acc[u] = fn(acc.get(u, self.level.ring.zero), c)
            out.append(_canonical_component(acc))
        return IwasawaElement(self.level, tuple(out))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return IwasawaElement(self.level,
                              tuple(tuple((u, -c) for u, c in comp)
                                    for comp in self.components))

    def __mul__(self, other):
        if isinstance(other, LocalElement):
            return IwasawaElement(
                self.level,
                tuple(_canonical_component({u: c * other for u, c in comp})
                      for comp in self.components))
        if not isinstance(other, IwasawaElement) or other.level is not self.level:
            raise ValueError("elements of different levels")
        out = []
        for mine, theirs in zip(self.components, other.components):
            acc: dict = {}
            for u, c in mine:
                for v, e in theirs:
                    w = u * v
                    acc[w] = acc.get(w, self.level.ring.zero) + c * e
            out.append(_canonical_component(acc))
        return IwasawaElement(self.level, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, LocalElement):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        return power(self, e, self.level.one)

    def reduce_to(self, m: int) -> "IwasawaElement":
        """The ring map to a lower level: coefficients and group keys both
        reduce modulo varpi^m."""
        if m > self.level.m:
            raise ValueError("cannot raise the level")
        target = iwasawa_level(self.level.place, m)
        out = []
        for comp in self.components:
            acc: dict = {}
            for u, c in comp:
                ru = target.ring.from_apoly(u.value)
                rc = target.ring.from_apoly(c.value)
                acc[ru] = acc.get(ru, target.ring.zero) + rc
            out.append(_canonical_component(acc))
        return IwasawaElement(target, tuple(out))

    def expand(self) -> dict:
        """The element as a measure on the full unit group: coefficient of
        [omega(zeta) * v] is (tame order)^-1 sum_chi chi^-1(zeta) c_chi(v)."""
        lv = self.level
        out: dict = {}
        for a in range(lv.tame_order):
            om = lv.teich_powers[a]
            for chi in range(lv.tame_order):
                comp = self.components[chi]
                if not comp:
                    continue
                weight = lv.chi_value((-chi) % lv.tame_order, a) * lv.tame_inverse
                for v, c in comp:
                    u = om * v
                    out[u] = out.get(u, lv.ring.zero) + weight * c
        return {u: c for u, c in out.items() if not c.is_zero()}

    def __eq__(self, other):
        return (isinstance(other, IwasawaElement)
                and other.level is self.level
                and other.components == self.components)

    def __hash__(self):
        return hash((id(self.level), self.components))

    def as_record(self) -> dict:
        return {
            "level": self.level.m,
            "tame": {
                str(chi): {str(u.value): str(c.value) for u, c in comp}
                for chi, comp in enumerate(self.components) if comp
            },
        }

    def __repr__(self):
        return f"Iwasawa({self.as_record()})"


class MeasureCodes:
    """Dense codes for the elements of one level: a tuple with one scalar
    code (from the coefficient ring's ElementCodes) per pair of tame
    character and wild-group position, character-major.  Products are
    per-character convolutions through the wild group's product index
    table.  Codes are canonical, like the scalar codes they hold."""

    def __init__(self, level: IwasawaLevel):
        self.level = level
        self.scalars = level.ring.codes()
        wild = level.wild_group
        self.width = len(wild)
        self.wild_products = [[level.wild_index[u * v] for v in wild]
                              for u in wild]
        self.zero = (0,) * (level.tame_order * self.width)
        self.one = self.encode(level.one)

    def encode(self, x: IwasawaElement) -> tuple:
        code = list(self.zero)
        wild_index, encode = self.level.wild_index, self.scalars.encode
        for chi, comp in enumerate(x.components):
            base = chi * self.width
            for u, c in comp:
                code[base + wild_index[u]] = encode(c)
        return tuple(code)

    def decode(self, code: tuple) -> IwasawaElement:
        # wild_group is sorted like a canonical component, and code 0 is
        # the zero coefficient a canonical component leaves out
        wild, decode, w = self.level.wild_group, self.scalars.decode, self.width
        comps = tuple(
            tuple((wild[i], decode(c))
                  for i, c in enumerate(code[base:base + w]) if c)
            for base in range(0, len(code), w))
        return IwasawaElement(self.level, comps)

    def add(self, x: tuple, y: tuple) -> tuple:
        return tuple(map(self.scalars.add, x, y))

    def sub(self, x: tuple, y: tuple) -> tuple:
        return tuple(map(self.scalars.sub, x, y))

    def mul(self, x: tuple, y: tuple) -> tuple:
        add, mul, w = self.scalars.add, self.scalars.mul, self.width
        out = [0] * len(x)
        for base in range(0, len(x), w):
            ys = y[base:base + w]
            for i, c in enumerate(x[base:base + w]):
                if not c:
                    continue
                row = self.wild_products[i]
                for j, e in enumerate(ys):
                    if e:
                        k = base + row[j]
                        out[k] = add(out[k], mul(c, e))
        return tuple(out)


def decompose(level: IwasawaLevel, measure: dict) -> IwasawaElement:
    """Inverse of expand: a measure on the full unit group, componentized
    over the tame characters."""
    comps = [dict() for _ in range(level.tame_order)]
    for u, c in measure.items():
        a, wild = level.split_unit(u)
        for chi in range(level.tame_order):
            w = level.chi_value(chi, a) * c
            comps[chi][wild] = comps[chi].get(wild, level.ring.zero) + w
    return level.from_components(comps)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightChar:
    """An algebraic weight k (group-likes map to the k-th power), with an
    optional tame character override for non-algebraic pairs."""

    k: int
    tame_index: int | None = None

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
    chi = w.tame(lv.tame_order)
    acc = lv.ring.zero
    for v, c in x.components[chi]:
        acc = acc + c * v ** w.k
    return acc


def iota_eval(x: IwasawaElement, k: int) -> LocalElement:
    """The same value through the embedding into weight-indexed
    evaluations: expand over the full unit group and sum c_u u^k.  Agrees
    with specialize at every integer weight (the two routes are kept
    independent on purpose)."""
    acc = x.level.ring.zero
    for u, c in x.expand().items():
        acc = acc + c * u ** k
    return acc


def duality_twist(x: IwasawaElement) -> IwasawaElement:
    """The algebra automorphism induced by u -> u^2 [u^-1]: on a dirac mass
    [u] it returns u^2 [u^{-1}].  Specialization at weight k of the twist
    equals specialization at weight 2 - k, and the twist is an involution."""
    lv = x.level
    out: dict = {}
    for u, c in x.expand().items():
        v = u.inverse()
        coeff = c * u * u
        out[v] = out.get(v, lv.ring.zero) + coeff
    return decompose(lv, out)


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
    while any((u ** wild_exp) != lv.ring.one for u in lv.wild_group):
        wild_exp *= p
    exponent = lv.tame_order * wild_exp
    units = sorted((u for u in lv.ring.units()), key=_local_key)
    matrix = [[u ** k for k in range(exponent)] for u in units]
    rank = _evaluation_rank(m, matrix)
    doubled = [[u ** k for k in range(2 * exponent)] for u in units]
    rank2 = _evaluation_rank(m, doubled)
    return DeterminingSet(place, m, tuple(range(exponent)), exponent,
                          rank, rank == rank2)


@dataclass(frozen=True)
class DeterminingSet:
    place: PrimePlace
    m: int
    weights: tuple
    exponent: int
    rank: int
    saturated: bool

    @property
    def ok(self) -> bool:
        return self.saturated


def _evaluation_rank(m: int, matrix) -> int:
    """Rank of a matrix over A/(varpi^m) in the residue sense refined by
    valuation: the number of varpi-power pivots found by fraction-free
    elimination (enough for saturation comparison)."""
    rows = [[e for e in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        # find the row whose entry at col has minimal valuation
        best, best_val = None, m
        for r in range(rank, len(rows)):
            v = rows[r][col].varpi_valuation()
            if v < best_val:
                best, best_val = r, v
        if best is None or best_val >= m:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        pivot = rows[rank][col]
        # clear below using exact multiples: entry - (entry/pivot) * pivot
        for r in range(rank + 1, len(rows)):
            e = rows[r][col]
            if e.varpi_valuation() >= m:
                continue
            # factor = e / pivot in the local ring: divide both by the
            # pivot valuation, then invert the unit part
            pu = _shift_unit(pivot, best_val)
            ev = e.varpi_valuation()
            if ev < best_val:
                raise AssertionError("pivot was not minimal")
            eu = _shift_unit(e, best_val)
            factor = eu * pu.inverse()
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _shift_unit(x: LocalElement, val: int) -> LocalElement:
    """x / varpi^val performed exactly, re-raised to the original ring."""
    out = x
    for _ in range(val):
        quot, rem = out.value.divmod(out.ring.place.varpi)
        if not rem.is_zero():
            raise ValueError("not divisible")
        out = LocalElement(out.ring, quot)
    return out


# ---------------------------------------------------------------------------
# the monomial ideal filtration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialIdeal:
    """Ideal generated by monomials in the variables (varpi, T_1, ..., T_s);
    a monomial is an exponent tuple of length s + 1 (index 0 is varpi)."""

    nvars: int  # s + 1
    gens: tuple

    def contains_monomial(self, mono: tuple) -> bool:
        return any(all(m >= g for m, g in zip(mono, gen)) for gen in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other.gens)

    def minimal_gens(self) -> tuple:
        out = []
        for g in sorted(self.gens):
            reduced = MonomialIdeal(self.nvars, tuple(x for x in out))
            if not (out and reduced.contains_monomial(g)):
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


def filtration(s: int, r: int) -> MonomialIdeal:
    """The r-th ideal of the decreasing chain at truncation s: the corners
    are I_alpha(n) = J_n and the intermediate steps adjoin the monomials of
    increasing degree divisible by the next wild variable."""
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
