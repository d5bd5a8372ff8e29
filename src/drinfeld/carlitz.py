"""The rank-1 module action [M](X), its coefficient profile at a prime, and
the trace of the pullback X -> [varpi](X) on truncated power-series rings.

[M](X) is computed by Horner recursion on the T-digits of M against the
degree-1 action polynomial, which keeps intermediate twist degrees linear
in deg(M) instead of exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basearith import (APoly, ArtinElement, ArtinRing, PrimePlace, all_monic,
                        join_terms, power)
from .skew import PolyRing, SkewPoly


def carlitz_eval(M: APoly, base) -> SkewPoly:
    """The additive polynomial [M](X) over `base` (anything carrying an
    image gamma_T of T): [1] = X, [T] = X^q + gamma_T*X, multiplicative in M
    and F_q-linear.  Twist degree equals deg(M)."""
    ring = base
    action = SkewPoly(ring, [ring.gamma_T, ring.one])  # [T]
    result = SkewPoly(ring, [])
    embed = ring.embed_fq
    for c in reversed(M.coeffs):
        result = result * action + SkewPoly(ring, [embed(c)])
    return result


@dataclass(frozen=True)
class CoefficientProfile:
    place: PrimePlace
    poly: SkewPoly          # [varpi](X) over A
    linear: APoly
    leading: APoly
    middle: tuple           # coefficients strictly between linear and leading
    middle_reductions: tuple  # the same, reduced mod varpi

    @property
    def ok(self) -> bool:
        return (self.linear == self.place.varpi
                and self.leading.degree == 0 and self.leading.is_monic()
                and all(r.is_zero() for r in self.middle_reductions))


def carlitz_coefficient_profile(place: PrimePlace) -> CoefficientProfile:
    """Compute [varpi](X) over A and check: linear coefficient is varpi
    itself, leading coefficient is 1, every other coefficient is divisible
    by varpi.  Raises on violation, naming the offending coefficient."""
    ring = PolyRing(place.field)
    poly = carlitz_eval(place.varpi, ring)
    linear = poly.coefficient(0)
    leading = poly.coefficient(place.d)
    middle = tuple(poly.coefficient(i) for i in range(1, place.d))
    reductions = tuple(c % place.varpi for c in middle)
    profile = CoefficientProfile(place, poly, linear, leading, middle, reductions)
    if linear != place.varpi:
        raise AssertionError(f"linear coefficient {linear} != varpi {place.varpi}")
    if not (leading.degree == 0 and leading.is_monic()):
        raise AssertionError(f"leading coefficient {leading} != 1")
    for c, r in zip(middle, reductions):
        if not r.is_zero():
            raise AssertionError(f"middle coefficient {c} not divisible by varpi")
    return profile


def all_places(field, max_degree: int):
    """Every monic irreducible of degree <= max_degree over the field, in
    enumeration order."""
    from .basearith import make_place, smallest_factor
    out = []
    for deg in range(1, max_degree + 1):
        for f in all_monic(field, deg):
            if smallest_factor(f) is None:
                out.append(make_place(f))
    return out


# ---------------------------------------------------------------------------
# truncated power series and the pullback trace
# ---------------------------------------------------------------------------

class TruncSeriesRing:
    """R[X]/(X^N) for an Artinian coefficient ring R; elements are fixed
    coefficient tuples, multiplication truncates at N."""

    def __init__(self, coeff_ring: ArtinRing, N: int):
        self.coeff_ring = coeff_ring
        self.N = N
        self.zero = TruncSeries(self, [])
        self.one = TruncSeries(self, [coeff_ring.one])
        self.X = TruncSeries(self, [coeff_ring.zero, coeff_ring.one])

    def from_coeff(self, c: ArtinElement) -> "TruncSeries":
        return TruncSeries(self, [c])

    def __repr__(self):
        return f"TruncSeriesRing({self.coeff_ring!r}, N={self.N})"


class TruncSeries:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: TruncSeriesRing, coeffs):
        elems = list(coeffs)[:ring.N]
        while elems and elems[-1].is_zero():
            elems.pop()
        self.ring = ring
        self.coeffs = tuple(elems)

    def coefficient(self, i: int) -> ArtinElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.coeff_ring.zero

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return TruncSeries(self.ring,
                           [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __neg__(self):
        return TruncSeries(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ArtinElement):
            return TruncSeries(self.ring, [c * other for c in self.coeffs])
        N = self.ring.N
        zero = self.ring.coeff_ring.zero
        out = [zero] * min(N, max(len(self.coeffs) + len(other.coeffs) - 1, 0))
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= N:
                    break
                out[i + j] = out[i + j] + a * b
        return TruncSeries(self.ring, out)

    def __pow__(self, e: int):
        return power(self, e, self.ring.one)

    def eps_divisible(self) -> bool:
        """Whether every coefficient lies in the maximal ideal (eps)."""
        return all(c.in_maximal_ideal() for c in self.coeffs)

    def eps_quotient(self) -> "TruncSeries":
        """Divide by eps coefficientwise (shift of eps-digits; the result is
        a distinguished representative modulo the annihilator of eps)."""
        R = self.ring.coeff_ring
        out = []
        for c in self.coeffs:
            if not c.in_maximal_ideal():
                raise ValueError("series is not divisible by eps")
            out.append(ArtinElement(R, list(c.coeffs[1:]) + [R.residue.zero]))
        return TruncSeries(self.ring, out)

    def is_unit(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0].is_unit()

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and other.ring is self.ring
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __str__(self):
        return join_terms(((i, str(c)) for i, c in enumerate(self.coeffs)), "X")

    def __repr__(self):
        return f"Series({self})"


@dataclass(frozen=True)
class TraceReport:
    place: PrimePlace
    series_ring: TruncSeriesRing
    pullback: TruncSeries                 # [varpi](X) in the series ring
    traces: tuple                         # trace of each basis element, in the ring
    quotients: tuple                      # varpi^{-1} * trace representatives
    generates_unit_ideal: bool

    @property
    def ok(self) -> bool:
        return (all(t.eps_divisible() for t in self.traces)
                and self.generates_unit_ideal)


def trace_of_carlitz_pullback(place: PrimePlace, ring: TruncSeriesRing) -> TraceReport:
    """Treat R[X]/(X^N) as a free module of rank q^d over its image under
    X -> [varpi](X), with basis 1, X, ..., X^(q^d - 1).  Returns the trace
    of multiplication by each basis element and checks that every trace is
    divisible by varpi with the quotients generating the unit ideal.

    The decomposition is computed exactly in the free module over R[y]
    (y a formal stand-in for [varpi](X)); the truncation only enters when
    substituting y back, which is why N must be at least q^(2d)."""
    R = ring.coeff_ring
    if R.place != place:
        raise ValueError("series ring is over a different place")
    qd = place.q ** place.d
    if ring.N < qd * qd:
        raise ValueError(f"truncation {ring.N} below q^(2d) = {qd * qd}; "
                         "multiplication matrices would be inexact")
    if R.nilpotency < 2:
        raise ValueError("coefficient nilpotency must be at least 2")
    pull = carlitz_eval(place.varpi, R)  # sum c_j X^(q^j), c_d = 1, c_0 = eps
    c = [pull.coefficient(j) for j in range(place.d + 1)]
    if c[place.d] != R.one:
        raise AssertionError("pullback polynomial is not monic")

    # an element of the free module is the list of its q^d components,
    # each a y-polynomial (coefficient list over R)
    def mult_by_X(vec: list) -> list:
        comps = [[] for _ in range(qd)]
        for i in range(qd - 1):
            comps[i + 1] = list(vec[i])
        top = vec[qd - 1]
        if top:
            # X^(q^d) = y - sum_{j<d} c_j X^(q^j)
            shifted = [R.zero] + list(top)           # times y
            comps[0] = _poly_add(comps[0], shifted, R)
            for j in range(place.d):
                if c[j].is_zero():
                    continue
                comps[place.q ** j] = _poly_add(
                    comps[place.q ** j], [-(c[j]) * t for t in top], R)
        return comps

    # multiplication matrix of X^s: columns are X^s * X^i in the basis
    traces = []
    quotients = []
    basis_images = [[[R.one] if j == i else [] for j in range(qd)]
                    for i in range(qd)]
    pull_series = _substitution_powers(ring, pull, qd)
    for s in range(qd):
        if s > 0:
            basis_images = [mult_by_X(v) for v in basis_images]
        diag = []
        for i in range(qd):
            diag.append(basis_images[i][i])
        tr_poly = []
        for dp in diag:
            tr_poly = _poly_add(tr_poly, dp, R)
        trace = _substitute(ring, tr_poly, pull_series)
        if not trace.eps_divisible():
            raise AssertionError(
                f"trace of basis element X^{s} is not divisible by varpi: {trace}")
        traces.append(trace)
        quotients.append(trace.eps_quotient())
    generates = any(q.is_unit() for q in quotients)
    return TraceReport(place, ring, _substitute(ring, [R.zero, R.one], pull_series),
                       tuple(traces), tuple(quotients), generates)


def _poly_add(a: list, b: list, R: ArtinRing) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else R.zero
        y = b[i] if i < len(b) else R.zero
        out.append(x + y)
    return out


def _substitution_powers(ring: TruncSeriesRing, pull: SkewPoly, qd: int):
    """Powers 1, y, y^2, ... of the pullback series, enough for y-degree
    q^d - 1."""
    y = ring.zero
    for j, coeff in enumerate(pull.coeffs):
        if coeff.is_zero():
            continue
        mono = [ring.coeff_ring.zero] * (pull.ring.q ** j) + [coeff]
        y = y + TruncSeries(ring, mono)
    powers = [ring.one]
    for _ in range(qd - 1):
        powers.append(powers[-1] * y)
    return powers


def _substitute(ring: TruncSeriesRing, ypoly: list, powers) -> TruncSeries:
    acc = ring.zero
    for a, coeff in enumerate(ypoly):
        if coeff.is_zero():
            continue
        acc = acc + powers[a] * coeff
    return acc
