"""Exact arithmetic for F_q, A = F_q[T], finite extensions of the residue
field, and truncated polynomial rings R[x]/(x^N): the monogenic Artinian
rings k'[eps]/(eps^n), the truncated completions A/(varpi^n) among them as
F_Q[eps]/(eps^n), and the series rings over them.

All values are immutable; sharing across tasks is safe.  Field elements are
discrete-log encoded against a fixed primitive element (Zech logarithms)
and interned: each field builds its q elements once, every operation
returns one of them, and equality and hashing are identity.  Polynomials
are coefficient tuples, so they compare and hash without a Python call per
coefficient.  Every polynomial type is one coefficient-tuple core,
`CoeffTuple`, with its ring handle: `APoly` over its `FiniteField`;
TruncPoly, the one element type of every truncated ring, A/(varpi^n)
included; and the twisted polynomials of `skew`.  Truncated-ring elements
are interned as field elements are (hash-consing): each ring keeps one
TruncPoly per value, found by its coefficient tuple when the value is
built, so their equality and hashing are identity too.  APoly and SkewPoly
live in infinite rings and compare their tuples.  Everything is exact;
there is no floating point anywhere.

Sums, negatives, products and divisions of polynomials over a field are
kernels of `FiniteField` on coefficient tuples: integer arithmetic on the
logs and the Zech table, with no Python call per coefficient.  `APoly`
calls them on its field, and `TruncPoly` and `SkewPoly` on their
coefficient ring, which for a `FieldExt` is its field's kernels; rings
whose elements are polynomials themselves (`ArtinRing`, `PolyRing`)
loop over their elements in `ElementwiseKernels`, which cannot divide.

Interning is the one identity layer: an interned element is its own
key.  `RingTables` memoizes the arithmetic of any finite commutative ring
in tables keyed by its elements, `sums[x][y]`, `diffs[x][y]` and
`prods[x][y]`, whose missing entries the ring's own element arithmetic
fills.  Only interned values are table keys.  Every matrix ring owns one,
local rings, residue extensions and Iwasawa levels alike.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cached_property
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


class _MemoRow(dict):
    """One row of a `_MemoTable`, for its left operand x: a missing entry
    y is filled once with op(x, y), computed by the table's operation."""

    __slots__ = ("op", "x")

    def __init__(self, op, x):
        self.op, self.x = op, x

    def __missing__(self, y):
        z = self[y] = self.op(self.x, y)
        return z


class _MemoTable(dict):
    """A memo `table[x][y]` of one binary operation: a missing row is
    created empty, so a hit is two dict subscripts."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __missing__(self, x) -> _MemoRow:
        row = self[x] = _MemoRow(self.op, x)
        return row


class RingTables:
    """The memo tables `sums[x][y]`, `diffs[x][y]` and `prods[x][y]` of
    x + y, x - y and x * y in one finite commutative ring, keyed by its
    interned elements, the only keys they take.  They are empty at first;
    a missing entry is filled by the ring's own element arithmetic, which
    returns interned elements too, so any ring size works and a hit costs
    two dict subscripts and no Python call.  A ring builds its tables once
    and owns them for its lifetime (`ring.tables()`), so every caller
    shares what earlier ones filled; each holds at most |R|^2 entries."""

    __slots__ = ("zero", "one", "sums", "diffs", "prods")

    def __init__(self, ring):
        self.zero, self.one = ring.zero, ring.one
        self.sums = _MemoTable(operator.add)
        self.diffs = _MemoTable(operator.sub)
        self.prods = _MemoTable(operator.mul)


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


def _trimmed(out: list) -> tuple:
    """The list as a coefficient tuple with trailing zeros trimmed."""
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


class ElementwiseKernels:
    """The sum, negative and product kernels of a ring whose elements are
    not field elements (ArtinRing, PolyRing): loops over the elements' own
    operators, with the signatures of the Zech-log kernels of
    `FiniteField` that field coefficients use instead; only fields divide.
    Inputs and outputs are trimmed coefficient tuples, low degree first."""

    def add_coeffs(self, a, b) -> tuple:
        if len(a) < len(b):
            a, b = b, a
        return _trimmed([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def neg_coeffs(self, a) -> tuple:
        return tuple(-x for x in a)

    def mul_coeffs(self, a, b, n=None, twist=1) -> tuple:
        """The product sum(a_i b_j^(twist^i) x^(i+j)), cut at x^n."""
        if not a or not b:
            return ()
        size = len(a) + len(b) - 1 if n is None else min(n, len(a) + len(b) - 1)
        out = [self.zero] * size
        for i, x in enumerate(a[:size]):
            if x.is_zero():
                continue
            for j, y in enumerate(b[:size - i]):
                out[i + j] = out[i + j] + x * (y if twist == 1 else y ** twist ** i)
        return _trimmed(out)


class CoeffTuple:
    """The shared core of polynomial-like elements stored as a coefficient
    tuple, low degree first, with trailing zeros trimmed (the zero element
    has no coefficients and degree -1): `APoly` over a `FiniteField`,
    `TruncPoly` and the twisted `skew.SkewPoly`.  Subclasses supply
    `_coerce` (the other operand as an element of the same ring, or None),
    `_coeff_ring` (the ring of the coefficients, whose kernels
    `add_coeffs` and `neg_coeffs` give sums and negatives and whose `one`
    makes an element monic), the variable name `var` and their own
    product."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = _trimmed(list(coeffs))

    @classmethod
    def _raw(cls, ring, coeffs: tuple):
        """The element with an already trimmed coefficient tuple."""
        self = object.__new__(cls)
        self.ring = ring
        self.coeffs = coeffs
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._coeff_ring.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self._coeff_ring.one

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._raw(self.ring, self._coeff_ring.add_coeffs(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.ring, self._coeff_ring.neg_coeffs(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cr = self._coeff_ring
        return self._raw(self.ring, cr.add_coeffs(self.coeffs, cr.neg_coeffs(o.coeffs)))

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
    primitive element (log = -1 encodes zero).

    Elements are interned: the field builds each of its q elements once,
    as `field.elems` indexed by log + 1, and every operation returns one of
    those objects.  Equality and hashing are therefore identity, the
    object defaults, with no Python frame.  Only `FiniteField.__init__`
    constructs elements."""

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
        f = self.field
        if other.__class__ is not FFElement or other.field is not f:
            other = f.coerce(other)
        la, lb = self.log, other.log
        if la < 0:
            return other
        if lb < 0:
            return self
        z = f.zech[(lb - la) % f.order]
        return f.elems[(la + z) % f.order + 1] if z >= 0 else f.zero

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if self.log < 0 or f.p == 2:
            return self
        return f.elems[(self.log + f.order // 2) % f.order + 1]

    def __sub__(self, other):
        f = self.field
        if other.__class__ is not FFElement or other.field is not f:
            other = f.coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FFElement or other.field is not f:
            other = f.coerce(other)
        if self.log < 0 or other.log < 0:
            return f.zero
        return f.elems[(self.log + other.log) % f.order + 1]

    __rmul__ = __mul__

    def inverse(self):
        if self.log < 0:
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        return f.elems[-self.log % f.order + 1]

    def __truediv__(self, other):
        return self * self.field.coerce(other).inverse()

    def __pow__(self, e: int):
        f = self.field
        if self.log < 0:
            if e > 0:
                return self
            if e == 0:
                return f.one
            raise ZeroDivisionError("negative power of zero")
        return f.elems[self.log * e % f.order + 1]

    def __str__(self):
        texts = self.field.texts
        text = texts[self.log + 1]
        if text is None:
            vec = self.coeffs()
            text = texts[self.log + 1] = join_terms(
                ((i, str(vec[i])) for i in reversed(range(len(vec)))), "a")
        return text

    def __repr__(self):
        return f"FF({self.field.p}^{self.field.n}|{self})"


class FiniteField:
    """F_{p^n} with Zech-log tables; the defining polynomial is the first
    (lexicographically) monic primitive polynomial of degree n over F_p.
    The field owns its q interned elements, `elems`: zero at index 0 and
    g^k at index k + 1 for the primitive element g, so one at index 1,
    and their printed texts, `texts`, filled as elements are printed.

    Its kernels on coefficient tuples (low degree first, trailing zeros
    trimmed) compute on logs: a product adds logs, and a sum adds the
    Zech logarithm `zech[k] = log(1 + g^k)`, g^a + g^b = g^(a + zech[b-a])
    (K. Huber, "Some comments on Zech's logarithms", IEEE Trans. Inf.
    Theory 36(4), 1990).  Each returns a trimmed tuple of the interned
    elements.  A twist e raises the i-th shift of the right factor to the
    e^i power, the twisted product t^i * c = c^(e^i) * t^i; e = 1 is the
    ordinary product."""

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
        self.elems = [FFElement(self, log) for log in range(-1, self.order)]
        self.zero, self.one = self.elems[0], self.elems[1]
        self.texts = [None] * q
        self._ints = [self.elems[self.dlog.get(self._unit_vec(c), -1) + 1]
                      for c in range(p)]
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
            return self._ints[x % self.p]
        raise TypeError(f"cannot coerce {x!r} into F_{self.q}")

    def from_int(self, c: int) -> FFElement:
        return self._ints[c % self.p]

    def add_coeffs(self, a, b) -> tuple:
        """The coefficientwise sum of two coefficient tuples."""
        if len(a) < len(b):
            a, b = b, a
        order, zech, elems = self.order, self.zech, self.elems
        out = list(a)
        i = 0
        for y in b:
            lb = y.log
            if lb >= 0:
                la = out[i].log
                if la < 0:
                    out[i] = y
                else:
                    z = zech[(lb - la) % order]
                    out[i] = elems[(la + z) % order + 1] if z >= 0 else elems[0]
            i += 1
        while out and out[-1].log < 0:
            out.pop()
        return tuple(out)

    def neg_coeffs(self, a) -> tuple:
        """The coefficientwise negative: -1 = g^(order/2) in odd
        characteristic."""
        if self.p == 2:
            return tuple(a)
        half, order, elems = self.order // 2, self.order, self.elems
        return tuple([elems[(x.log + half) % order + 1] if x.log >= 0 else x
                      for x in a])

    def mul_coeffs(self, a, b, n=None, twist=1) -> tuple:
        """The product sum(a_i b_j^(twist^i) x^(i+j)), cut at x^n: the
        convolution, or the twisted product for a twist q."""
        if not a or not b:
            return ()
        order, zech, elems = self.order, self.zech, self.elems
        zero = elems[0]
        size = len(a) + len(b) - 1
        if n is not None and n < size:
            size = n
        acc = [zero] * size
        i = 0
        for x in a:
            if i == size:
                break
            la = x.log
            if la >= 0:
                e = 1 if twist == 1 else pow(twist, i, order)
                k = i
                for y in b:
                    if k == size:
                        break
                    lb = y.log
                    if lb >= 0:
                        c = acc[k].log
                        if c < 0:
                            acc[k] = elems[(la + lb * e) % order + 1]
                        else:
                            z = zech[(la + lb * e - c) % order]
                            acc[k] = elems[(c + z) % order + 1] if z >= 0 else zero
                    k += 1
            i += 1
        while acc and acc[-1].log < 0:
            acc.pop()
        return tuple(acc)

    def divmod_coeffs(self, u, v, twist=1) -> tuple:
        """(quot, rem) with u = quot*v + rem and deg rem < deg v, the
        product twisted by `twist` as in `mul_coeffs`; v is nonzero."""
        dv = len(v) - 1
        dq = len(u) - 1 - dv
        if dq < 0:
            return (), tuple(u)
        order, zech, elems = self.order, self.zech, self.elems
        zero = elems[0]
        minus = 0 if self.p == 2 else order // 2  # the log of -1
        inv = -v[dv].log  # the log of the inverse of the leading coefficient
        low = v[:dv]
        rem = list(u)
        quot = [zero] * (dq + 1)
        for k in range(dq, -1, -1):
            r = rem[k + dv].log
            if r < 0:
                continue
            e = 1 if twist == 1 else pow(twist, k, order)
            c = (r + inv * e) % order
            quot[k] = elems[c + 1]
            c += minus
            j = k
            for y in low:
                lb = y.log
                if lb >= 0:
                    x = rem[j].log
                    if x < 0:
                        rem[j] = elems[(c + lb * e) % order + 1]
                    else:
                        z = zech[(c + lb * e - x) % order]
                        rem[j] = elems[(x + z) % order + 1] if z >= 0 else zero
                j += 1
        del rem[dv:]
        while rem and rem[-1].log < 0:
            rem.pop()
        return tuple(quot), tuple(rem)

    def gen(self) -> FFElement:
        return self.elems[2 if self.q > 2 else 1]

    def element(self, log: int) -> FFElement:
        return self.zero if log < 0 else self.elems[log % self.order + 1]

    def elements(self):
        """Zero, then the units in increasing log order."""
        return iter(self.elems)

    def units(self):
        return iter(self.elems[1:])

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
            cand = self.elems[r + 1]
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
            return _f.elems[x.log * _rlog % _f.order + 1]

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

class APoly(CoeffTuple):
    """Polynomial in T over F_q: a coefficient tuple whose ring handle is
    its FiniteField, which is also its coefficient ring."""

    __slots__ = ()
    # one slot, the field, read as `ring`, `field` and `_coeff_ring`
    field = _coeff_ring = CoeffTuple.ring

    def __init__(self, field: FiniteField, coeffs):
        super().__init__(field, map(field.coerce, coeffs))

    def __mul__(self, other):
        return APoly._raw(self.field,
                          self.field.mul_coeffs(self.coeffs, self._coerce(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return power(self, e, APoly._raw(self.field, (self.field.one,)))

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
        quot, rem = self.field.divmod_coeffs(self.coeffs, other.coeffs)
        return APoly._raw(self.field, quot), APoly._raw(self.field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

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
        """Polynomials over the same field, ints and field elements;
        TypeError for anything else."""
        if isinstance(other, APoly):
            if other.field is not self.field:
                raise ValueError("polynomial over a different field")
            return other
        return APoly(self.field, [self.field.coerce(other)])

    def __str__(self):
        return join_terms(((i, str(self.coeffs[i]))
                           for i in range(self.degree, -1, -1)), "T")

    def __repr__(self):
        return f"APoly({self})"


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
        self.add_coeffs = self.field.add_coeffs
        self.neg_coeffs = self.field.neg_coeffs
        self.mul_coeffs = self.field.mul_coeffs
        self.divmod_coeffs = self.field.divmod_coeffs
        self._residue_iso = None
        self._tables = RingTables(self)

    @property
    def size(self) -> int:
        return self.field.q

    # a field is its own residue field, of composition length 1
    residue_size = size
    length = 1

    def qpow(self, x: FFElement, e: int = 1) -> FFElement:
        return x ** (self.q ** e)

    def tables(self) -> RingTables:
        return self._tables

    def elements(self):
        return self.field.elements()

    def from_int(self, c: int) -> FFElement:
        return self.embed_fq(self.place.field.from_int(c))

    def gamma_eval(self, a: APoly) -> FFElement:
        """gamma(a): the structure map A -> F_{q^{dm}} applied to a."""
        return a.eval_in(self.gamma_T, self.embed_fq)

    def to_residue(self, x: FFElement) -> TruncPoly:
        """Inverse of gamma on the residue subfield, valued in A/(varpi)."""
        if self._residue_iso is None:
            r1 = local_ring(self.place, 1)
            self._residue_iso = {self.gamma_eval(r1.to_apoly(a)): a
                                 for a in r1.elements()}
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
    multiplied with truncation at N.

    Elements are interned as `FFElement`s are: the ring holds one object
    per value, in a table keyed by the trimmed coefficient tuple, and
    `TruncPoly(ring, coeffs)`, `_raw` and every operator return that
    object.  Equality and hashing are therefore identity, the object
    defaults, with no Python frame.  Only `_raw` constructs elements."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __init__ = object.__init__  # `__new__` returns a finished element

    def __new__(cls, ring: "TruncPolyRing", coeffs):
        return TruncPoly._raw(ring, _trimmed(list(coeffs)[:ring.N]))

    @staticmethod
    def _raw(ring: "TruncPolyRing", coeffs: tuple) -> "TruncPoly":
        """The ring's element with an already trimmed coefficient tuple."""
        x = ring.interned.get(coeffs)
        if x is None:
            x = ring.interned[coeffs] = object.__new__(TruncPoly)
            x.ring, x.coeffs = ring, coeffs
        return x

    @property
    def var(self) -> str:
        return self.ring.var

    @property
    def _coeff_ring(self):
        return self.ring.coeff_ring

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
        ring = self.ring
        return TruncPoly._raw(ring, ring.coeff_ring.mul_coeffs(self.coeffs, o.coeffs, ring.N))

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

    def varpi_valuation(self) -> int:
        """The largest k <= N with var^k dividing self: the index of the
        first nonzero coefficient, N for zero.  In an ArtinRing the
        variable eps is the image of varpi."""
        return next((i for i, c in enumerate(self.coeffs) if c), self.ring.N)

    def eps_divisible(self) -> bool:
        """Whether eps divides self: in an ArtinRing the constant term
        vanishes, and over one every coefficient is eps-divisible."""
        if isinstance(self.ring, ArtinRing):
            return self.in_maximal_ideal()
        return all(c.eps_divisible() for c in self.coeffs)

    def eps_quotient(self, k: int = 1) -> "TruncPoly":
        """self/eps^k, shifting eps-digits down k places (coefficientwise
        over an ArtinRing); a distinguished representative modulo the
        annihilator of eps^k."""
        if isinstance(self.ring, ArtinRing):
            if self.varpi_valuation() < k:
                raise ValueError(f"{self} is not divisible by eps^{k}")
            return TruncPoly(self.ring, self.coeffs[k:])
        return TruncPoly(self.ring, [c.eps_quotient(k) for c in self.coeffs])

    def __repr__(self):
        return f"Trunc({self})"


class TruncPolyRing(ElementwiseKernels):
    """R[var]/(var^N) over a coefficient ring R.  The generator is the
    attribute named after the variable (`R.eps`, `S.X`).  As the
    coefficient ring of polynomials over it, it has the element-by-element
    kernels.

    The ring owns its elements: `interned` maps each trimmed coefficient
    tuple to the one `TruncPoly` of that value, filled as values first
    occur, so it holds at most |R|^N entries and lives as long as the
    ring."""

    var = "x"

    def __init__(self, coeff_ring, N: int):
        if N < 1:
            raise ValueError(f"truncation order {N} must be >= 1")
        self.coeff_ring = coeff_ring
        self.N = N
        self.interned: dict[tuple, TruncPoly] = {}
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
        """x^(q^e) in characteristic p: c eps^j goes to c^(q^e) eps^(j q^e)."""
        qe = self.q ** e
        out = [self.coeff_ring.zero] * self.N
        for j, c in enumerate(x.coeffs[:(self.N - 1) // qe + 1]):
            out[j * qe] = self.coeff_ring.qpow(c, e)
        return TruncPoly(self, out)

    def maximal_ideal(self):
        for x in self.elements():
            if x.in_maximal_ideal():
                yield x

    @property
    def size(self) -> int:
        return self.coeff_ring.size ** self.N

    @property
    def residue_size(self) -> int:
        """The size of the residue field R/(eps)."""
        return self.coeff_ring.size

    @property
    def length(self) -> int:
        """The composition length of R over itself: eps^i R / eps^(i+1) R
        for i < N."""
        return self.N


# ---------------------------------------------------------------------------
# the truncated local rings A/(varpi^n)
# ---------------------------------------------------------------------------

class LocalRing(ArtinRing):
    """A/(varpi^n), held as the Artinian ring F_Q[eps]/(eps^n), Q = q^d,
    through gamma: by the Cohen structure theorem the residue field lifts,
    here to the constants (the Teichmuller lifts), and eps is the image of
    varpi.  Elements are the ring's TruncPoly.  A polynomial appears only
    at the boundary: `from_apoly` (gamma) reads one, and `to_apoly` gives
    the representative of degree < n*d that commands print.  One ring
    per (place, n), built by `local_ring`."""

    def __init__(self, place: PrimePlace, n: int):
        super().__init__(place, 1, n)
        self.n = n
        self.varpi = self.eps
        self._tables = RingTables(self)

    from_apoly = ArtinRing.gamma_eval

    def tables(self) -> RingTables:
        return self._tables

    def elements(self):
        """Every element, in the product order of the coefficients of its
        representative of degree < n*d, the constant coefficient slowest:
        sums of F_q-multiples of gamma(T^j), built up from j = n*d - 1."""
        basis = [self.one]
        for _ in range(1, self.N * self.place.d):
            basis.append(basis[-1] * self.gamma_T)
        scalars = [self.embed_fq(c) for c in self.place.field.elements()]
        out = [self.zero]
        for g in reversed(basis):
            out = [g * c + y for c in scalars for y in out]
        yield from out

    def units(self):
        return (x for x in self.elements() if x.is_unit())

    def principal_units(self):
        """Elements congruent to 1 modulo varpi (the wild unit group)."""
        one = self.coeff_ring.one
        return (x for x in self.elements() if x.residue() == one)

    def teichmuller(self, x: TruncPoly) -> TruncPoly:
        """The unique (q^d - 1)-th root of unity congruent to x mod varpi,
        zero for a non-unit: the constant term."""
        return self.from_coeff(x.residue())

    def reduce(self, x: TruncPoly) -> TruncPoly:
        """The image of x, from A/(varpi^N) with N >= n at the same place:
        truncation."""
        if x.ring.coeff_ring is not self.coeff_ring or x.ring.N < self.N:
            raise ValueError(f"cannot reduce {x!r} into {self!r}")
        coeffs = x.coeffs
        if len(coeffs) > self.N:
            coeffs = _trimmed(list(coeffs[:self.N]))
        return TruncPoly._raw(self, coeffs)

    @cached_property
    def _lifts(self) -> list:
        """[i][c]: teich(c) * varpi^i mod varpi^n for c in F_Q.  In
        characteristic p, teich(c) = r^(Q^s) mod varpi^n for any r with
        residue c and any Q^s >= n: lifts of c differ by multiples of
        varpi, which the Q^s-th power sends into varpi^n."""
        field, varpi, Q = self.place.field, self.place.varpi, self.coeff_ring.size
        modulus = varpi ** self.n
        qs = Q
        while qs < self.n:
            qs *= Q
        teich = {}
        for coeffs in product(field.elements(), repeat=self.place.d):
            r = APoly(field, coeffs)
            teich[self.coeff_ring.gamma_eval(r)] = r.qpow(qs) % modulus
        lifts, varpi_i = [], APoly(field, [1])
        for _ in range(self.n):
            lifts.append({c: t * varpi_i % modulus for c, t in teich.items()})
            varpi_i = varpi_i * varpi
        return lifts

    def to_apoly(self, x: TruncPoly) -> APoly:
        """The representative of x of degree < n*d: sum teich(c_i) varpi^i
        mod varpi^n over the coefficients c_i of x."""
        return sum((lift[c] for lift, c in zip(self._lifts, x.coeffs)),
                   APoly(self.place.field, []))

    def __repr__(self):
        return f"A/({self.place.varpi})^{self.n}"


_LOCAL_RINGS: dict[tuple, LocalRing] = {}


def local_ring(place: PrimePlace, n: int) -> LocalRing:
    key = (place.key(), n)
    if key not in _LOCAL_RINGS:
        _LOCAL_RINGS[key] = LocalRing(place, n)
    return _LOCAL_RINGS[key]
