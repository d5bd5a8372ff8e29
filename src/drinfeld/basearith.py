"""Exact arithmetic for F_q, A = F_q[T], truncated completions A/(varpi^n),
finite extensions of the residue field, and monogenic Artinian test rings.

All values are immutable; sharing across tasks is safe.  Field elements are
discrete-log encoded against a fixed primitive element (Zech logarithms),
polynomials are coefficient tuples, local and Artinian elements carry their
ring handle.  Everything is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

MAX_FIELD_SIZE = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

class FFElement:
    """Element of a FiniteField, stored as the discrete log of a fixed
    primitive element (log = -1 encodes zero)."""

    __slots__ = ("field", "log")

    def __init__(self, field: "FiniteField", log: int):
        self.field = field
        self.log = log

    def is_zero(self) -> bool:
        return self.log < 0

    def is_unit(self) -> bool:
        return self.log >= 0

    def __bool__(self) -> bool:
        return self.log >= 0

    def coeffs(self) -> tuple[int, ...]:
        """Coordinates over F_p in the power basis of the field generator."""
        if self.log < 0:
            return (0,) * self.field.n
        return self.field.pows[self.log]

    def __add__(self, other):
        other = self.field.coerce(other)
        f = self.field
        if self.log < 0:
            return other
        if other.log < 0:
            return self
        if self.log <= other.log:
            la, lb = self.log, other.log
        else:
            la, lb = other.log, self.log
        z = f.zech[(lb - la) % f.order]
        if z < 0:
            return f.zero
        return FFElement(f, (la + z) % f.order)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if self.log < 0 or f.p == 2:
            return self
        return FFElement(f, (self.log + f.order // 2) % f.order)

    def __sub__(self, other):
        return self + (-self.field.coerce(other))

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        other = self.field.coerce(other)
        if self.log < 0 or other.log < 0:
            return self.field.zero
        return FFElement(self.field, (self.log + other.log) % self.field.order)

    __rmul__ = __mul__

    def inverse(self):
        if self.log < 0:
            raise ZeroDivisionError("inverse of zero")
        return FFElement(self.field, (-self.log) % self.field.order)

    def __truediv__(self, other):
        return self * self.field.coerce(other).inverse()

    def __pow__(self, e: int):
        if self.log < 0:
            if e > 0:
                return self
            if e == 0:
                return self.field.one
            raise ZeroDivisionError("negative power of zero")
        return FFElement(self.field, (self.log * e) % self.field.order)

    def __eq__(self, other):
        return (isinstance(other, FFElement) and other.field is self.field
                and other.log == self.log)

    def __hash__(self):
        return hash((id(self.field), self.log))

    def __str__(self):
        f = self.field
        if f.n == 1:
            return str(self.coeffs()[0])
        vec = self.coeffs()
        terms = []
        for i in range(f.n - 1, -1, -1):
            c = vec[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("a" if c == 1 else f"{c}*a")
            else:
                terms.append(f"a^{i}" if c == 1 else f"{c}*a^{i}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"FF({self.field.p}^{self.field.n}|{self})"


class FiniteField:
    """F_{p^n} with Zech-log tables; the defining polynomial is the first
    (lexicographically) monic primitive polynomial of degree n over F_p."""

    def __init__(self, p: int, n: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        q = p ** n
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds supported bound {MAX_FIELD_SIZE}")
        self.p = p
        self.n = n
        self.q = q
        self.order = q - 1  # size of the multiplicative group
        self._build_tables()
        self.zero = FFElement(self, -1)
        self.one = FFElement(self, 0)
        self._int_cache = {0: self.zero}
        for c in range(1, p):
            self._int_cache[c] = FFElement(self, self.dlog[self._unit_vec(c)])
        self._embed_cache: dict[int, object] = {}

    def _unit_vec(self, c: int) -> tuple[int, ...]:
        return (c % self.p,) + (0,) * (self.n - 1)

    def _build_tables(self):
        p, n, order = self.p, self.n, self.order
        for idx in range(p ** n):
            # candidate modulus x^n + a_{n-1} x^{n-1} + ... + a_0, lex order
            digits = []
            t = idx
            for _ in range(n):
                digits.append(t % p)
                t //= p
            mod = tuple(digits)  # a_0 .. a_{n-1}
            pows = self._try_primitive(mod)
            if pows is not None:
                self.modulus = mod + (1,)
                self.pows = pows
                break
        else:  # pragma: no cover - primitive polynomials always exist
            raise RuntimeError("no primitive polynomial found")
        self.dlog = {v: k for k, v in enumerate(self.pows)}
        zech = []
        one = self._unit_vec(1)
        for k in range(order):
            s = tuple((a + b) % p for a, b in zip(one, self.pows[k]))
            zech.append(self.dlog.get(s, -1))
        self.zech = zech

    def _try_primitive(self, mod: tuple[int, ...]):
        """Power up x modulo the candidate; primitive iff first return to 1
        happens at step q-1 (this also certifies irreducibility)."""
        p, n, order = self.p, self.n, self.order
        one = self._unit_vec(1)
        if n == 1 and mod[0] == 0:
            return None
        cur = one
        pows = []
        for k in range(order):
            if k > 0 and cur == one:
                return None  # multiplicative order of x is < q - 1
            if all(c == 0 for c in cur):
                return None  # x is a zero divisor, modulus reducible
            pows.append(cur)
            # multiply by x and reduce
            if n == 1:
                cur = ((cur[0] * ((-mod[0]) % p)) % p,)
            else:
                top = cur[n - 1]
                shifted = (0,) + cur[:-1]
                cur = tuple((shifted[i] - top * mod[i]) % p for i in range(n))
        return pows if cur == one else None

    def coerce(self, x) -> FFElement:
        if isinstance(x, FFElement):
            if x.field is not self:
                raise ValueError("element of a different field")
            return x
        if isinstance(x, int):
            return self._int_cache[x % self.p]
        raise TypeError(f"cannot coerce {x!r} into F_{self.q}")

    def from_int(self, c: int) -> FFElement:
        return self._int_cache[c % self.p]

    def gen(self) -> FFElement:
        if self.q == 2:
            return self.one
        return FFElement(self, 1)

    def element(self, log: int) -> FFElement:
        return self.zero if log < 0 else FFElement(self, log % self.order)

    def elements(self):
        yield self.zero
        for k in range(self.order):
            yield FFElement(self, k)

    def units(self):
        for k in range(self.order):
            yield FFElement(self, k)

    def embedding_from(self, sub: "FiniteField"):
        """Field embedding F_{p^m} -> F_{p^n} for m | n, picked
        deterministically (smallest-log root of the subfield modulus)."""
        if sub is self:
            return lambda x: x
        key = id(sub)
        if key in self._embed_cache:
            return self._embed_cache[key]
        if sub.p != self.p or self.n % sub.n != 0:
            raise ValueError("not a subfield")
        step = self.order // sub.order
        minpoly = [sub.modulus[i] for i in range(sub.n + 1)]
        root = None
        for r in range(0, self.order, step):
            cand = FFElement(self, r)
            acc = self.zero
            for c in reversed(minpoly):
                acc = acc * cand + self.from_int(c)
            if acc.is_zero():
                root = cand
                break
        if root is None:  # pragma: no cover - a root always exists
            raise RuntimeError("no root for subfield modulus")
        rlog = root.log

        def emb(x: FFElement, _f=self, _sub=sub, _rlog=rlog):
            if x.field is not _sub:
                raise ValueError("element of unexpected field")
            if x.log < 0:
                return _f.zero
            return FFElement(_f, (x.log * _rlog) % _f.order)

        self._embed_cache[key] = emb
        return emb

    def sort_key(self, x: FFElement) -> int:
        return x.log

    def __repr__(self):
        return f"GF({self.p}^{self.n})"


_FIELDS: dict[tuple[int, int], FiniteField] = {}


def finite_field(p: int, n: int = 1) -> FiniteField:
    key = (p, n)
    if key not in _FIELDS:
        _FIELDS[key] = FiniteField(p, n)
    return _FIELDS[key]


def field_of_order(q: int) -> FiniteField:
    """The field with q elements (q a prime power)."""
    for p in range(2, q + 1):
        if _is_prime(p):
            n = 0
            t = q
            while t % p == 0:
                t //= p
                n += 1
            if t == 1 and n > 0:
                return finite_field(p, n)
            if q % p == 0:
                break
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# polynomials over F_q (the ring A = F_q[T])
# ---------------------------------------------------------------------------

class APoly:
    """Polynomial in T over F_q, normalized with no trailing zeros.
    The zero polynomial has empty coefficients and degree -1 (sentinel)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        elems = [field.coerce(c) for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        self.field = field
        self.coeffs = tuple(elems)

    @classmethod
    def _raw(cls, field: FiniteField, elems: list) -> "APoly":
        """Internal constructor for already-coerced coefficient lists."""
        while elems and elems[-1].log < 0:
            elems.pop()
        self = object.__new__(cls)
        self.field = field
        self.coeffs = tuple(elems)
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def is_unit(self) -> bool:
        """The units of A are the nonzero constants."""
        return self.degree == 0

    def inverse(self) -> "APoly":
        if not self.is_unit():
            raise ZeroDivisionError(f"{self} is not a unit of A")
        return APoly._raw(self.field, [self.coeffs[0].inverse()])

    def lc(self) -> FFElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> FFElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return APoly._raw(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return APoly._raw(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return APoly._raw(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.log < 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return APoly._raw(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = APoly(self.field, [self.field.one])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def qpow(self, qe: int) -> "APoly":
        """Fast q-power map: (sum c_i T^i)^qe = sum c_i^qe T^(i*qe) when qe
        is a power of the characteristic."""
        if not self.coeffs:
            return self
        out = [self.field.zero] * (self.degree * qe + 1)
        for i, c in enumerate(self.coeffs):
            out[i * qe] = c ** qe
        return APoly(self.field, out)

    def divmod(self, other: "APoly"):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        inv_lc = other.lc().inverse()
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return APoly._raw(self.field, []), self
        quot = [self.field.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lc
            quot[k] = c
            if c.log >= 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return APoly._raw(self.field, quot), APoly._raw(self.field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def eval_in(self, x, embed=None):
        """Evaluate at x in any commutative ring; embed maps F_q into that
        ring (identity when omitted)."""
        if embed is None:
            embed = lambda c: c
        acc = None
        for c in reversed(self.coeffs):
            ec = embed(c)
            acc = ec if acc is None else acc * x + ec
        if acc is None:
            return embed(self.field.zero)
        return acc

    def derivative(self) -> "APoly":
        return APoly(self.field,
                     [self.field.from_int(i) * c for i, c in enumerate(self.coeffs)][1:])

    def _coerce(self, other) -> "APoly":
        if isinstance(other, APoly):
            if other.field is not self.field:
                raise ValueError("polynomial over a different field")
            return other
        return APoly(self.field, [self.field.coerce(other)])

    def __eq__(self, other):
        return (isinstance(other, APoly) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = str(c)
            wrapped = f"({cs})" if any(op in cs for op in "+*^") else cs
            if i == 0:
                terms.append(wrapped)
            else:
                var = "T" if i == 1 else f"T^{i}"
                terms.append(var if cs == "1" else f"{wrapped}*{var}")
        return "+".join(terms)

    def __repr__(self):
        return f"APoly({self})"


def apoly(field: FiniteField, coeffs) -> APoly:
    """Polynomial from a low-to-high coefficient list (ints or elements)."""
    return APoly(field, coeffs)


def poly_T(field: FiniteField) -> APoly:
    return APoly(field, [0, 1])


def all_monic(field: FiniteField, degree: int):
    """All monic polynomials of the given degree, in a fixed enumeration
    order (coefficients run through the field's canonical element order)."""
    for low in product(field.elements(), repeat=degree):
        yield APoly(field, low + (field.one,))


def smallest_factor(f: APoly) -> APoly | None:
    """A monic irreducible factor of f of degree < deg f, or None when f is
    irreducible.  Trial division in enumeration order; desk scale only."""
    d = f.degree
    if d <= 1:
        return None
    field = f.field
    # linear factors via root scan
    for x in field.elements():
        if f.eval_in(x).is_zero():
            return APoly(field, [-x, field.one])
    for k in range(2, d // 2 + 1):
        for g in all_monic(field, k):
            if (f % g).is_zero() and smallest_factor(g) is None:
                return g
    return None


# ---------------------------------------------------------------------------
# the prime place
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimePlace:
    """The data (q, varpi, d) fixing the base A = F_q[T] and the prime
    ideal (varpi); varpi is monic irreducible of degree d."""

    varpi: APoly
    d: int

    @property
    def field(self) -> FiniteField:
        return self.varpi.field

    @property
    def q(self) -> int:
        return self.varpi.field.q

    def __str__(self):
        return f"(q={self.q}, varpi={self.varpi})"

    def key(self) -> tuple:
        return (self.q, tuple(c.log for c in self.varpi.coeffs))

    def __hash__(self):
        return hash(self.key())


def make_place(varpi: APoly) -> PrimePlace:
    """Validated prime place; rejects non-monic or reducible input naming a
    witness factor."""
    if varpi.degree < 1:
        raise ValueError(f"varpi must be non-constant, got {varpi}")
    if not varpi.is_monic():
        raise ValueError(f"varpi must be monic, got {varpi}")
    factor = smallest_factor(varpi)
    if factor is not None:
        raise ValueError(f"varpi = {varpi} is reducible: divisible by {factor}")
    return PrimePlace(varpi, varpi.degree)


# ---------------------------------------------------------------------------
# truncated local rings A/(varpi^n)
# ---------------------------------------------------------------------------

class LocalElement:
    """Residue class modulo varpi^n, carried with its precision.  Binary
    operations close at the minimum precision of the operands and never
    silently pad."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: "LocalRing", value: APoly):
        self.ring = ring
        if len(value.coeffs) > ring.deg_bound:
            value = value % ring.modulus
        self.value = value

    @property
    def precision(self) -> int:
        return self.ring.n

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __bool__(self):
        return bool(self.value)

    def _pair(self, other):
        if isinstance(other, LocalElement):
            if other.ring is self.ring:
                return self.ring, self.value, other.value
            if other.ring.place != self.ring.place:
                raise ValueError("different places")
            n = min(self.ring.n, other.ring.n)
            ring = local_ring(self.ring.place, n)
            return ring, self.value, other.value
        if isinstance(other, (int, APoly)):
            o = other if isinstance(other, APoly) else \
                APoly(self.ring.place.field, [other])
            return self.ring, self.value, o
        return None, None, None

    def __add__(self, other):
        ring, a, b = self._pair(other)
        if ring is None:
            return NotImplemented
        return LocalElement(ring, a + b)

    __radd__ = __add__

    def __neg__(self):
        return LocalElement(self.ring, -self.value)

    def __sub__(self, other):
        ring, a, b = self._pair(other)
        if ring is None:
            return NotImplemented
        return LocalElement(ring, a - b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring, a, b = self._pair(other)
        if ring is None:
            return NotImplemented
        return LocalElement(ring, a * b)

    __rmul__ = __mul__

    def is_unit(self) -> bool:
        return not (self.value % self.ring.place.varpi).is_zero()

    def inverse(self) -> "LocalElement":
        """Inverse modulo varpi^n via extended Euclid in F_q[T]."""
        if not self.is_unit():
            raise ZeroDivisionError(f"{self} is not a unit")
        a, m = self.value, self.ring.modulus
        field = self.ring.place.field
        r0, r1 = m, a
        s0, s1 = APoly(field, []), APoly(field, [field.one])
        while not r1.is_zero():
            qpoly, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - qpoly * s1
        # r0 = gcd is a nonzero constant
        inv_c = r0.coeffs[0].inverse()
        return LocalElement(self.ring, s0 * inv_c)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def reduce_to(self, n: int) -> "LocalElement":
        if n > self.ring.n:
            raise ValueError("cannot raise precision")
        return LocalElement(local_ring(self.ring.place, n), self.value)

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

    def __eq__(self, other):
        return (isinstance(other, LocalElement) and other.ring is self.ring
                and other.value == self.value)

    def __hash__(self):
        return hash((self.ring.place.key(), self.ring.n, self.value))

    def __str__(self):
        mod = f"({self.ring.place.varpi})"
        if self.ring.n != 1:
            mod += f"^{self.ring.n}"
        return f"{self.value} mod {mod}"

    def __repr__(self):
        return f"Local({self})"


class LocalRing:
    """A/(varpi^n); elements are APoly values of degree < n*d."""

    def __init__(self, place: PrimePlace, n: int):
        if n < 1:
            raise ValueError("precision must be >= 1")
        self.place = place
        self.n = n
        self.deg_bound = n * place.d
        self.modulus = place.varpi ** n
        self.zero = LocalElement(self, APoly(place.field, []))
        self.one = LocalElement(self, APoly(place.field, [place.field.one]))
        self.varpi = LocalElement(self, place.varpi)

    def from_apoly(self, a: APoly) -> LocalElement:
        return LocalElement(self, a)

    def from_int(self, c: int) -> LocalElement:
        return LocalElement(self, APoly(self.place.field, [c]))

    def elements(self):
        field = self.place.field
        for coeffs in product(field.elements(), repeat=self.deg_bound):
            yield LocalElement(self, APoly(field, coeffs))

    def units(self):
        for x in self.elements():
            if x.is_unit():
                yield x

    def principal_units(self):
        """Elements congruent to 1 modulo varpi (the wild unit group)."""
        for x in self.elements():
            if (x.value - self.one.value) % self.place.varpi == APoly(self.place.field, []):
                yield x

    def teichmuller(self, x: LocalElement) -> LocalElement:
        """The unique (q^d - 1)-th root of unity congruent to x mod varpi
        (zero for non-unit input)."""
        z = LocalElement(self, x.value)
        if not z.is_unit():
            return self.zero
        qd = self.place.q ** self.place.d
        for _ in range(self.n + 2):
            nz = z ** qd
            if nz == z:
                return z
            z = nz
        raise RuntimeError("teichmuller iteration failed to stabilize")

    def __eq__(self, other):
        return (isinstance(other, LocalRing) and other.place == self.place
                and other.n == self.n)

    def __hash__(self):
        return hash((self.place.key(), self.n))

    def __repr__(self):
        return f"A/({self.place.varpi})^{self.n}"


_LOCAL_RINGS: dict[tuple, LocalRing] = {}


def local_ring(place: PrimePlace, n: int) -> LocalRing:
    key = (place.key(), n)
    if key not in _LOCAL_RINGS:
        _LOCAL_RINGS[key] = LocalRing(place, n)
    return _LOCAL_RINGS[key]


def local_reduce(a: APoly, place: PrimePlace, n: int) -> LocalElement:
    """The image of a in A/(varpi^n)."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    return local_ring(place, n).from_apoly(a)


# ---------------------------------------------------------------------------
# extensions of the residue field
# ---------------------------------------------------------------------------

class FieldExt:
    """Finite extension of degree m over the residue field of a place,
    realized as F_{q^{dm}} with a distinguished image gamma_T of T.

    When char_p is set, gamma_T is a root of varpi (the base has
    characteristic the place); otherwise it is the first non-root."""

    def __init__(self, place: PrimePlace, m: int, char_p: bool = True):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.place = place
        self.m = m
        self.char_p = char_p
        base = place.field
        self.field = finite_field(base.p, base.n * place.d * m)
        self.embed_fq = self.field.embedding_from(base)
        self.q = place.q
        gamma = None
        for x in self.field.elements():
            val = place.varpi.eval_in(x, self.embed_fq)
            if char_p and val.is_zero():
                gamma = x
                break
            if not char_p and not val.is_zero():
                gamma = x
                break
        if gamma is None:
            raise ValueError("no suitable image of T in the extension")
        self.gamma_T = gamma
        self.zero = self.field.zero
        self.one = self.field.one
        self._residue_iso = None

    @property
    def size(self) -> int:
        return self.field.q

    def qpow(self, x: FFElement, e: int = 1) -> FFElement:
        return x ** (self.q ** e)

    def elements(self):
        return self.field.elements()

    def from_int(self, c: int) -> FFElement:
        return self.embed_fq(self.place.field.from_int(c))

    def gamma_eval(self, a: APoly) -> FFElement:
        """gamma(a): the structure map A -> F_{q^{dm}} applied to a."""
        return a.eval_in(self.gamma_T, self.embed_fq)

    def to_residue(self, x: FFElement) -> LocalElement:
        """Inverse of gamma on the residue subfield, valued in A/(varpi)."""
        if self._residue_iso is None:
            table = {}
            r1 = local_ring(self.place, 1)
            for a in r1.elements():
                table[self.gamma_eval(a.value)] = a
            self._residue_iso = table
        try:
            return self._residue_iso[x]
        except KeyError:
            raise ValueError(f"{x} is not in the residue subfield") from None

    def __repr__(self):
        tag = "char-p" if self.char_p else "generic"
        return f"FieldExt({self.place}, m={self.m}, {tag})"


_EXTS: dict[tuple, FieldExt] = {}


def ext_field(place: PrimePlace, m: int, char_p: bool = True) -> FieldExt:
    key = (place.key(), m, char_p)
    if key not in _EXTS:
        _EXTS[key] = FieldExt(place, m, char_p)
    return _EXTS[key]


# ---------------------------------------------------------------------------
# monogenic Artinian rings k'[eps]/(eps^n) with eps = image of varpi
# ---------------------------------------------------------------------------

class ArtinElement:
    """Element of an ArtinRing: a truncated polynomial in eps with residue
    field coefficients, low degree first."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "ArtinRing", coeffs):
        n = ring.nilpotency
        elems = list(coeffs)[:n]
        elems += [ring.residue.zero] * (n - len(elems))
        self.ring = ring
        self.coeffs = tuple(elems)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def residue(self) -> FFElement:
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, ArtinElement):
            if other.ring is not self.ring:
                raise ValueError("different Artinian rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, FFElement):
            return self.ring.from_fq(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ArtinElement(self.ring, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return ArtinElement(self.ring, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.ring.nilpotency
        zero = self.ring.residue.zero
        out = [zero] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                if i + j < n:
                    out[i + j] = out[i + j] + a * b
        return ArtinElement(self.ring, out)

    __rmul__ = __mul__

    def is_unit(self) -> bool:
        return not self.coeffs[0].is_zero()

    def inverse(self) -> "ArtinElement":
        if not self.is_unit():
            raise ZeroDivisionError("not a unit")
        z = self.ring.from_fq(self.coeffs[0].inverse())
        two = self.ring.one + self.ring.one
        for _ in range(self.ring.nilpotency + 1):
            z = z * (two - self * z)
        return z

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def in_maximal_ideal(self) -> bool:
        return self.coeffs[0].is_zero()

    def __eq__(self, other):
        return (isinstance(other, ArtinElement) and other.ring is self.ring
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            wrapped = f"({cs})" if any(op in cs for op in "+*^") else cs
            if i == 0:
                terms.append(wrapped)
            else:
                var = "eps" if i == 1 else f"eps^{i}"
                terms.append(var if cs == "1" else f"{wrapped}*{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"Artin({self})"


class ArtinRing:
    """k'[eps]/(eps^n), local with maximal ideal (eps), together with the
    structure map A -> R sending varpi exactly to eps (Hensel-adjusted
    gamma_T).  In particular varpi^n = 0 holds in the ring."""

    def __init__(self, place: PrimePlace, m: int, nilpotency: int):
        if nilpotency < 1:
            raise ValueError("nilpotency order must be >= 1")
        self.place = place
        self.residue = ext_field(place, m, char_p=True)
        self.nilpotency = nilpotency
        self.q = place.q
        zero_f = self.residue.zero
        one_f = self.residue.one
        self.zero = ArtinElement(self, [zero_f])
        self.one = ArtinElement(self, [one_f])
        self.eps = ArtinElement(self, [zero_f, one_f]) if nilpotency > 1 else self.zero
        self.gamma_T = self._hensel_gamma()

    def from_fq(self, c: FFElement) -> ArtinElement:
        return ArtinElement(self, [c])

    def embed_fq(self, c) -> ArtinElement:
        """F_q -> R through the residue field."""
        return self.from_fq(self.residue.embed_fq(c))

    def from_int(self, c: int) -> ArtinElement:
        return self.embed_fq(self.place.field.from_int(c))

    def _hensel_gamma(self) -> ArtinElement:
        varpi = self.place.varpi
        dpoly = varpi.derivative()
        g = self.from_fq(self.residue.gamma_T)
        for _ in range(self.nilpotency + 1):
            f_val = varpi.eval_in(g, self.embed_fq) - self.eps
            if f_val.is_zero():
                return g
            g = g - f_val * dpoly.eval_in(g, self.embed_fq).inverse()
        f_val = varpi.eval_in(g, self.embed_fq) - self.eps
        if not f_val.is_zero():  # pragma: no cover - Newton converges here
            raise RuntimeError("could not adjust gamma_T to send varpi to eps")
        return g

    def gamma_eval(self, a: APoly) -> ArtinElement:
        return a.eval_in(self.gamma_T, self.embed_fq)

    def qpow(self, x: ArtinElement, e: int = 1) -> ArtinElement:
        return x ** (self.q ** e)

    def elements(self):
        for coeffs in product(self.residue.elements(), repeat=self.nilpotency):
            yield ArtinElement(self, coeffs)

    def maximal_ideal(self):
        for x in self.elements():
            if x.in_maximal_ideal():
                yield x

    @property
    def size(self) -> int:
        return self.residue.size ** self.nilpotency

    def __repr__(self):
        return f"ArtinRing({self.residue.field!r}[eps]/(eps^{self.nilpotency}))"


def artin_ring(place: PrimePlace, m: int, nilpotency: int) -> ArtinRing:
    return ArtinRing(place, m, nilpotency)
