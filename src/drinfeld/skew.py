"""The twisted polynomial ring R{t} with t*c = c^q*t.

A twisted polynomial sum(c_i t^i) acts on points as the additive map
x -> sum(c_i x^(q^i)); multiplication is composition of these maps.

Every ring handle in the library follows one protocol, which this module
and its callers assume without probing:

* coefficient rings (FieldExt, ArtinRing, PolyRing) expose `zero`, `one`,
  `q`, `from_int(c)`, `embed_fq(c)` (F_q -> R) and `gamma_T`; the bases
  of modules, FieldExt and ArtinRing, also `qpow(x, e)` and `gamma_eval(a)`
  (the structure map A -> R); their elements are FFElement, TruncPoly and
  APoly;
* coefficient rings also expose the kernels on trimmed coefficient tuples
  that every SkewPoly and TruncPoly sum, negative and product calls:
  `add_coeffs(a, b)`, `neg_coeffs(a)`,
  `mul_coeffs(a, b, n, twist)` (cut at x^n unless n is None; the right
  factor's coefficient b_j in the i-th row raised to twist^i, so
  twist = q is the product of R{t} and twist = 1 the ordinary one).
  FieldExt delegates them to the Zech-log kernels of its FiniteField;
  ArtinRing and PolyRing, whose elements are TruncPoly and APoly, loop
  element by element through `basearith.ElementwiseKernels`.  Only
  fields need `divmod_coeffs(u, v, twist)`, the kernel of `right_divide`;
* matrix rings (LocalRing, which holds A/(varpi^n) as the ArtinRing
  F_Q[eps]/(eps^n); FieldExt; IwasawaLevel) expose `zero`, `one` and
  `codes()`, the one `basearith.ElementCodes` of the projector's matrix
  arithmetic, which the ring owns for its lifetime: int codes with memo
  tables `sums[a][b]`, `diffs[a][b]` and `prods[a][b]`;
* every element answers `is_zero()`, and the elements of module bases
  also answer `is_unit()` and `inverse()`.

SkewPoly shares its coefficient-tuple core (trimming, `coefficient`,
`is_monic`, `+`, `-`, `==`, hash, printing) with APoly and TruncPoly
through `basearith.CoeffTuple`; only the twisted product is its own, the
coefficient ring's `mul_coeffs` with twist q.
"""

from __future__ import annotations

from itertools import product

from .basearith import (APoly, CoeffTuple, ElementwiseKernels, FiniteField,
                        FieldExt, power)


class PolyRing(ElementwiseKernels):
    """Adapter making A = F_q[T] usable as a twisted-coefficient ring for
    the symbolic products of `action_eval`; gamma_T is the tautological
    image T."""

    def __init__(self, field: FiniteField):
        self.field = field
        self.q = field.q
        self.zero = APoly(field, [])
        self.one = APoly(field, [field.one])
        self.gamma_T = APoly(field, [field.zero, field.one])

    def embed_fq(self, c):
        return APoly(self.field, [c])

    def from_int(self, c: int) -> APoly:
        return APoly(self.field, [c])

    def __repr__(self):
        return f"PolyRing(F_{self.q}[T])"


class SkewPoly(CoeffTuple):
    """sum(c_i t^i) with the twist t*c = c^q*t; immutable.  `ring` is the
    coefficient ring."""

    __slots__ = ()
    var = "t"
    _coeff_ring = CoeffTuple.ring

    def constant(self):
        return self.coefficient(0)

    def tau_valuation(self) -> int:
        """Index of the lowest nonzero coefficient (-1 for the zero map)."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return -1

    def _coerce(self, other) -> "SkewPoly":
        if isinstance(other, SkewPoly):
            if other.ring is not self.ring:
                raise ValueError("twisted polynomials over different rings")
            return other
        if isinstance(other, int):
            return SkewPoly(self.ring, [self.ring.from_int(other)])
        return SkewPoly(self.ring, [other])

    def __mul__(self, other):
        ring = self.ring
        return SkewPoly._raw(ring, ring.mul_coeffs(self.coeffs, self._coerce(other).coeffs,
                                                   None, ring.q))

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __pow__(self, e: int):
        return power(self, e, SkewPoly(self.ring, [self.ring.one]))

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

    def __repr__(self):
        return f"Skew({self})"


def action_eval(a: APoly, action: SkewPoly) -> SkewPoly:
    """The action of a in A = F_q[T], given the action of T: Horner's rule
    on the T-digits of a, so intermediate twist degrees stay linear in
    deg(a).  The result has twist degree deg(a) * deg(action)."""
    ring = action.ring
    result = SkewPoly(ring, [])
    for c in reversed(a.coeffs):
        result = result * action + SkewPoly(ring, [ring.embed_fq(c)])
    return result


def tau(ring, e: int = 1) -> SkewPoly:
    """The twist generator t^e."""
    return SkewPoly(ring, [ring.zero] * e + [ring.one])


def right_divide(u: SkewPoly, v: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with u = quot*v + rem and deg rem < deg v,
    over a field base."""
    if v.is_zero():
        raise ZeroDivisionError("right division by zero")
    ring = u.ring
    if v.ring is not ring:
        raise ValueError("twisted polynomials over different rings")
    if not isinstance(ring, FieldExt):
        raise ValueError("right division requires a field base")
    quot, rem = ring.divmod_coeffs(u.coeffs, v.coeffs, ring.q)
    return SkewPoly._raw(ring, quot), SkewPoly._raw(ring, rem)


def kernel_points(u: SkewPoly, ext: FieldExt) -> list:
    """All x in the extension with u(x) = 0, listed in canonical element
    order."""
    if u.is_zero():
        raise ValueError("kernel of the zero map is everything")
    return [x for x in ext.elements() if u.eval(x).is_zero()]


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
