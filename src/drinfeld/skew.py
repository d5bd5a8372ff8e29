"""The twisted polynomial ring R{t} with t*c = c^q*t.

A twisted polynomial sum(c_i t^i) acts on points as the additive map
x -> sum(c_i x^(q^i)); multiplication is composition of these maps.

Every ring handle in the library follows one protocol, which this module
and its callers assume without probing:

* coefficient rings (FieldExt, ArtinRing, PolyRing) expose `zero`, `one`,
  `q`, `qpow(x, e)`, `from_int(c)`, `embed_fq(c)` (F_q -> R), `gamma_T`
  and `gamma_eval(a)` (the structure map A -> R);
* matrix rings (LocalRing, IwasawaLevel) expose `zero` and `one`;
* every element answers `is_zero()`, and coefficient elements also answer
  `is_unit()` and `inverse()`.
"""

from __future__ import annotations

from itertools import product

from .basearith import APoly, FiniteField, FieldExt


class PolyRing:
    """Adapter making A = F_q[T] usable as a twisted-coefficient ring (for
    symbolic computations); gamma_T is the tautological image T."""

    def __init__(self, field: FiniteField):
        self.field = field
        self.q = field.q
        self.zero = APoly(field, [])
        self.one = APoly(field, [field.one])
        self.gamma_T = APoly(field, [field.zero, field.one])

    def qpow(self, x: APoly, e: int = 1) -> APoly:
        return x.qpow(self.q ** e)

    def gamma_eval(self, a: APoly) -> APoly:
        return a

    def embed_fq(self, c):
        return APoly(self.field, [c])

    def from_int(self, c: int) -> APoly:
        return APoly(self.field, [c])

    def __repr__(self):
        return f"PolyRing(F_{self.q}[T])"


class SkewPoly:
    """sum(c_i t^i) with the twist t*c = c^q*t; immutable."""

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
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def constant(self):
        return self.coefficient(0)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def tau_valuation(self) -> int:
        """Index of the lowest nonzero coefficient (-1 for the zero map)."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return -1

    def _check(self, other) -> "SkewPoly":
        if isinstance(other, SkewPoly):
            if other.ring is not self.ring:
                raise ValueError("twisted polynomials over different rings")
            return other
        if isinstance(other, int):
            return SkewPoly(self.ring, [self.ring.from_int(other)])
        return SkewPoly(self.ring, [other])

    def __add__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.ring,
                        [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return SkewPoly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return SkewPoly(self.ring, [])
        ring = self.ring
        out = [ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * ring.qpow(b, i)
        return SkewPoly(ring, out)

    def __rmul__(self, other):
        return self._check(other) * self

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a twisted polynomial")
        result = SkewPoly(self.ring, [self.ring.one])
        for _ in range(e):
            result = result * self
        return result

    def eval(self, x):
        """The additive-map value sum(c_i x^(q^i))."""
        ring = self.ring
        acc = None
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            term = c * ring.qpow(x, i)
            acc = term if acc is None else acc + term
        if acc is None:
            return x - x  # zero of whatever ring x lives in
        return acc

    def coeff_qpow(self, e: int) -> "SkewPoly":
        """Coefficientwise q^e-power (base change along Frobenius)."""
        return SkewPoly(self.ring, [self.ring.qpow(c, e) for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, SkewPoly) and other.ring is self.ring
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            wrapped = f"({cs})" if any(op in cs for op in "+*^") else cs
            if i == 0:
                terms.append(wrapped)
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if cs == "1" else f"{wrapped}*{var}")
        return "+".join(terms)

    def __repr__(self):
        return f"Skew({self})"


def tau(ring, e: int = 1) -> SkewPoly:
    """The twist generator t^e."""
    return SkewPoly(ring, [ring.zero] * e + [ring.one])


def constant(ring, c) -> SkewPoly:
    return SkewPoly(ring, [c])


def right_divide(u: SkewPoly, v: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with u = quot*v + rem and deg rem < deg v.
    Needs the leading coefficient of v to be a unit."""
    if v.is_zero():
        raise ZeroDivisionError("right division by zero")
    ring = u.ring
    if v.ring is not ring:
        raise ValueError("twisted polynomials over different rings")
    lc = v.coeffs[-1]
    if not lc.is_unit():
        raise ValueError("leading coefficient is not a unit")
    lc_inv = lc.inverse()
    rem = list(u.coeffs)
    dv = v.degree
    dq = len(rem) - 1 - dv
    if dq < 0:
        return SkewPoly(ring, []), u
    quot = [ring.zero] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + dv] * ring.qpow(lc_inv, k)
        quot[k] = c
        if c.is_zero():
            continue
        for j, b in enumerate(v.coeffs):
            rem[k + j] = rem[k + j] - c * ring.qpow(b, k)
    return SkewPoly(ring, quot), SkewPoly(ring, rem[:dv])


def kernel_points(u: SkewPoly, ext: FieldExt):
    """All x in the extension with u(x) = 0, listed in canonical element
    order, together with an F_q-basis of the kernel."""
    if u.is_zero():
        raise ValueError("kernel of the zero map is everything")
    points = [x for x in ext.elements() if u.eval(x).is_zero()]
    basis: list = []
    span = {ext.field.zero}
    base_field = ext.place.field
    for x in points:
        if x in span:
            continue
        basis.append(x)
        new_span = set()
        for s in span:
            for c in base_field.elements():
                new_span.add(s + ext.embed_fq(c) * x)
        span = new_span
    return points, basis


def is_stable_divisor(u: SkewPoly, phi_T: SkewPoly, phi_varpi: SkewPoly) -> bool:
    """u is an A-stable right divisor: u | phi_varpi and u | u*phi_T on the
    right."""
    _, r1 = right_divide(phi_varpi, u)
    if not r1.is_zero():
        return False
    _, r2 = right_divide(u * phi_T, u)
    return r2.is_zero()


def stable_right_divisors(phi_T: SkewPoly, phi_varpi: SkewPoly, deg: int):
    """All monic A-stable right divisors of phi_varpi of the given twist
    degree, by exhaustive coefficient enumeration (lexicographic order)."""
    ring = phi_T.ring
    if deg == 0:
        return [SkewPoly(ring, [ring.one])]
    if not isinstance(ring, FieldExt):
        raise ValueError("divisor enumeration requires a field base")
    candidates = (SkewPoly(ring, low + (ring.one,))
                  for low in product(ring.elements(), repeat=deg))
    return [u for u in candidates if is_stable_divisor(u, phi_T, phi_varpi)]
