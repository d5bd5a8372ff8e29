"""Exact arithmetic for F_q, A = F_q[T], truncated completions A/(varpi^n),
finite extensions of the residue field, and truncated polynomial rings
R[x]/(x^N): the monogenic Artinian test rings k'[eps]/(eps^n) and the
series rings over them.

All values are immutable; sharing across tasks is safe.  Field elements are
discrete-log encoded against a fixed primitive element (Zech logarithms),
polynomials are coefficient tuples, local and truncated elements carry their
ring handle.  Truncated elements and the twisted polynomials of `skew`
share one coefficient-tuple core, `CoeffTuple`.  Everything is exact; there
is no floating point anywhere.
"""

from __future__ import annotations

import operator
from collections import namedtuple
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


def power(x, e: int, one, mul=operator.mul):
    """x^e for e >= 0 by left-to-right square-and-multiply: `one` when
    e == 0, otherwise exactly (bit length - 1) squarings and (bit count - 1)
    products by x under `mul`."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    if e == 0:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


class ElementCodes:
    """Integer codes for the elements of one finite commutative ring: zero
    is 0, one is 1, and every other element gets the next free int when
    first encoded.  Sums, differences and products are memoized by code
    pair (sums and products by unordered pair); a miss is filled by the
    ring's own element arithmetic, so no table is built up front and any
    ring size works.  Codes are canonical: two codes are equal exactly when
    their elements are.

    A ring builds one codec, holding only zero and one, and owns it for its
    lifetime (`ring.codes()`), so every caller shares what earlier ones
    filled.  Each memo holds at most |R|^2 pairs."""

    def __init__(self, ring):
        self.zero, self.one = 0, 1
        self._elements = [ring.zero, ring.one]
        self._index = {ring.zero: 0, ring.one: 1}
        self._sums: dict = {}
        self._diffs: dict = {}
        self._prods: dict = {}

    def encode(self, x) -> int:
        code = self._index.get(x)
        if code is None:
            code = self._index[x] = len(self._elements)
            self._elements.append(x)
        return code

    def decode(self, code: int):
        return self._elements[code]

    def add(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        try:
            return self._sums[a, b]
        except KeyError:
            c = self._sums[a, b] = self.encode(
                self._elements[a] + self._elements[b])
            return c

    def sub(self, a: int, b: int) -> int:
        try:
            return self._diffs[a, b]
        except KeyError:
            c = self._diffs[a, b] = self.encode(
                self._elements[a] - self._elements[b])
            return c

    def mul(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        try:
            return self._prods[a, b]
        except KeyError:
            c = self._prods[a, b] = self.encode(
                self._elements[a] * self._elements[b])
            return c


def join_terms(pairs, var: str) -> str:
    """The sum of the terms c*var^i from (i, str(c)) pairs in display order:
    zero coefficients are skipped, unit ones leave the bare monomial, and
    composite ones are parenthesized.  "0" when no term is left."""
    terms = []
    for i, cs in pairs:
        if cs == "0":
            continue
        wrapped = f"({cs})" if any(op in cs for op in "+*^") else cs
        if i == 0:
            terms.append(wrapped)
        else:
            mono = var if i == 1 else f"{var}^{i}"
            terms.append(mono if cs == "1" else f"{wrapped}*{mono}")
    return "+".join(terms) or "0"


class CoeffTuple:
    """The shared core of polynomial-like elements stored as a coefficient
    tuple, low degree first, with trailing zeros trimmed (the zero element
    has no coefficients and degree -1).  Subclasses supply `_coerce` (the
    other operand as an element of the same ring, or None), `_coeff_zero`,
    the variable name `var` and their own product."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        elems = list(coeffs)
        while elems and elems[-1].is_zero():
            elems.pop()
        self.ring = ring
        self.coeffs = tuple(elems)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._coeff_zero

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        return type(self)(self.ring, [x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        return (type(other) is type(self) and other.ring is self.ring
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __str__(self):
        return join_terms(((i, str(c)) for i, c in enumerate(self.coeffs)), self.var)


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
        vec = self.coeffs()
        return join_terms(((i, str(vec[i])) for i in reversed(range(len(vec)))), "a")

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
        return power(self, e, APoly._raw(self.field, [self.field.one]))

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
        return join_terms(((i, str(self.coeffs[i]))
                           for i in range(self.degree, -1, -1)), "T")

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

class PrimePlace(namedtuple("PrimePlace", "varpi d")):
    """The data (q, varpi, d) fixing the base A = F_q[T] and the prime
    ideal (varpi); varpi is a monic irreducible APoly of degree d.  An
    immutable record, hashed by `key()`."""

    __slots__ = ()

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
        return power(self, e, self.ring.one)

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
        self._codes = ElementCodes(self)

    def codes(self) -> ElementCodes:
        return self._codes

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
    realized as F_{q^{dm}} with a distinguished image gamma_T of T: the
    first root of varpi, so the base has characteristic the place."""

    def __init__(self, place: PrimePlace, m: int):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.place = place
        self.m = m
        base = place.field
        self.field = finite_field(base.p, base.n * place.d * m)
        self.embed_fq = self.field.embedding_from(base)
        self.q = place.q
        self.gamma_T = next(x for x in self.field.elements()
                            if place.varpi.eval_in(x, self.embed_fq).is_zero())
        self.zero = self.field.zero
        self.one = self.field.one
        self._residue_iso = None
        self._codes = ElementCodes(self)

    @property
    def size(self) -> int:
        return self.field.q

    def qpow(self, x: FFElement, e: int = 1) -> FFElement:
        return x ** (self.q ** e)

    def codes(self) -> ElementCodes:
        return self._codes

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
        return f"FieldExt({self.place}, m={self.m})"


_EXTS: dict[tuple, FieldExt] = {}


def ext_field(place: PrimePlace, m: int) -> FieldExt:
    key = (place.key(), m)
    if key not in _EXTS:
        _EXTS[key] = FieldExt(place, m)
    return _EXTS[key]


# ---------------------------------------------------------------------------
# truncated polynomial rings R[x]/(x^N): Artinian rings k'[eps]/(eps^n) with
# eps = image of varpi, and the series rings of the pullback trace
# ---------------------------------------------------------------------------

class TruncPoly(CoeffTuple):
    """Element of a TruncPolyRing: a coefficient tuple cut at N and trimmed,
    multiplied with truncation at N."""

    __slots__ = ()

    def __init__(self, ring: "TruncPolyRing", coeffs):
        super().__init__(ring, list(coeffs)[:ring.N])

    @property
    def var(self) -> str:
        return self.ring.var

    @property
    def _coeff_zero(self):
        return self.ring.coeff_ring.zero

    def _coerce(self, other):
        """Elements of this ring, ints, and constants from the coefficient
        ring; None for anything else."""
        ring = self.ring
        if isinstance(other, TruncPoly):
            if other.ring is ring:
                return other
            if other.ring is not ring.coeff_ring:
                raise ValueError("elements of different truncated rings")
        elif isinstance(other, int):
            return ring.from_int(other)
        elif not isinstance(other, FFElement):
            return None
        return ring.from_coeff(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        N = self.ring.N
        a, b = self.coeffs, o.coeffs
        out = [self._coeff_zero] * min(N, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b[:N - i]):
                out[i + j] = out[i + j] + x * y
        return TruncPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.ring.one)

    def residue(self):
        return self.coefficient(0)

    def is_unit(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0].is_unit()

    def in_maximal_ideal(self) -> bool:
        return not self.is_unit()

    def inverse(self) -> "TruncPoly":
        """Newton iteration z -> z*(2 - x*z) from the inverse of the
        constant term; each step doubles the number of correct terms."""
        if not self.is_unit():
            raise ZeroDivisionError(f"{self} is not a unit")
        ring = self.ring
        z = ring.from_coeff(self.coeffs[0].inverse())
        two = ring.from_int(2)
        correct = 1
        while correct < ring.N:
            z = z * (two - self * z)
            correct *= 2
        return z

    def eps_divisible(self) -> bool:
        """Whether eps divides self: in an ArtinRing the constant term
        vanishes, and over one every coefficient is eps-divisible."""
        if isinstance(self.ring, ArtinRing):
            return self.in_maximal_ideal()
        return all(c.eps_divisible() for c in self.coeffs)

    def eps_quotient(self) -> "TruncPoly":
        """self/eps, shifting eps-digits down (coefficientwise over an
        ArtinRing); a distinguished representative modulo the annihilator
        of eps."""
        if isinstance(self.ring, ArtinRing):
            if not self.in_maximal_ideal():
                raise ValueError(f"{self} is not divisible by eps")
            return TruncPoly(self.ring, self.coeffs[1:])
        return TruncPoly(self.ring, [c.eps_quotient() for c in self.coeffs])

    def __repr__(self):
        return f"Trunc({self})"


class TruncPolyRing:
    """R[var]/(var^N) over a coefficient ring R.  The generator is the
    attribute named after the variable (`R.eps`, `S.X`)."""

    var = "x"

    def __init__(self, coeff_ring, N: int):
        if N < 1:
            raise ValueError(f"truncation order {N} must be >= 1")
        self.coeff_ring = coeff_ring
        self.N = N
        self.zero = TruncPoly(self, [])
        self.one = TruncPoly(self, [coeff_ring.one])
        setattr(self, self.var, TruncPoly(self, [coeff_ring.zero, coeff_ring.one]))

    def from_coeff(self, c) -> TruncPoly:
        return TruncPoly(self, [c])

    def from_int(self, c: int) -> TruncPoly:
        return self.from_coeff(self.coeff_ring.from_int(c))

    def elements(self):
        for coeffs in product(self.coeff_ring.elements(), repeat=self.N):
            yield TruncPoly(self, coeffs)

    def __repr__(self):
        return f"{self.coeff_ring!r}[{self.var}]/({self.var}^{self.N})"


class ArtinRing(TruncPolyRing):
    """k'[eps]/(eps^n) over the degree-m residue extension k', local with
    maximal ideal (eps), together with the structure map A -> R sending
    varpi exactly to eps (Hensel-adjusted gamma_T).  In particular
    varpi^n = 0 holds in the ring."""

    var = "eps"

    def __init__(self, place: PrimePlace, m: int, nilpotency: int):
        super().__init__(ext_field(place, m), nilpotency)
        self.place = place
        self.q = place.q
        self.gamma_T = self._hensel_gamma()

    def from_fq(self, c: FFElement) -> TruncPoly:
        """The residue-field element c as a constant."""
        return self.from_coeff(c)

    def embed_fq(self, c) -> TruncPoly:
        """F_q -> R through the residue field."""
        return self.from_coeff(self.coeff_ring.embed_fq(c))

    def _hensel_gamma(self) -> TruncPoly:
        """The root of varpi(g) = eps over the residue root gamma_T, by
        Newton's iteration (varpi is separable, so varpi'(g) is a unit)."""
        varpi = self.place.varpi
        dpoly = varpi.derivative()
        g = self.from_coeff(self.coeff_ring.gamma_T)
        for _ in range(self.N + 1):
            f_val = varpi.eval_in(g, self.embed_fq) - self.eps
            if f_val.is_zero():
                return g
            g = g - f_val * dpoly.eval_in(g, self.embed_fq).inverse()
        raise RuntimeError("could not adjust gamma_T to send varpi to eps")

    def gamma_eval(self, a: APoly) -> TruncPoly:
        return a.eval_in(self.gamma_T, self.embed_fq)

    def qpow(self, x: TruncPoly, e: int = 1) -> TruncPoly:
        return x ** (self.q ** e)

    def maximal_ideal(self):
        for x in self.elements():
            if x.in_maximal_ideal():
                yield x

    @property
    def size(self) -> int:
        return self.coeff_ring.size ** self.N


def artin_ring(place: PrimePlace, m: int, nilpotency: int) -> ArtinRing:
    return ArtinRing(place, m, nilpotency)
