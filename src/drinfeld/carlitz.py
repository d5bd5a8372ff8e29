"""The rank-1 module action [M](X), its coefficient profile at a prime, and
the trace of the pullback X -> [varpi](X) on truncated power-series rings.

[M](X) is computed by Horner recursion on the T-digits of M against the
degree-1 action polynomial, which keeps intermediate twist degrees linear
in deg(M) instead of exponential.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest

from .basearith import (APoly, ArtinRing, PrimePlace, TruncPoly, TruncPolyRing,
                        all_monic)
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


class CoefficientProfile(namedtuple(
        "CoefficientProfile",
        "place poly linear leading middle middle_reductions")):
    """[varpi](X) over A as a SkewPoly, its linear and leading coefficients,
    the coefficients strictly between them and the same reduced mod
    varpi."""

    __slots__ = ()

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

class TruncSeriesRing(TruncPolyRing):
    """R[X]/(X^N) over an ArtinRing R, the ring the pullback trace lives on."""

    var = "X"


class TraceReport(namedtuple(
        "TraceReport", "place series_ring pullback traces quotients "
        "generates_unit_ideal")):
    """The pullback [varpi](X) in the series ring, the trace of each basis
    element (in the ring), the varpi^-1 * trace representatives, and
    whether those generate the unit ideal."""

    __slots__ = ()

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
    if R.N < 2:
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
        tr_poly = []
        for i in range(qd):
            tr_poly = _poly_add(tr_poly, basis_images[i][i], R)
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
    return [x + y for x, y in zip_longest(a, b, fillvalue=R.zero)]


def _substitution_powers(ring: TruncSeriesRing, pull: SkewPoly, qd: int):
    """Powers 1, y, y^2, ... of the pullback series, enough for y-degree
    q^d - 1."""
    q = pull.ring.q
    y = sum((ring.X ** (q ** j) * c for j, c in enumerate(pull.coeffs)), ring.zero)
    powers = [ring.one]
    for _ in range(qd - 1):
        powers.append(powers[-1] * y)
    return powers


def _substitute(ring: TruncSeriesRing, ypoly: list, powers) -> TruncPoly:
    return sum((powers[a] * c for a, c in enumerate(ypoly) if not c.is_zero()),
               ring.zero)
