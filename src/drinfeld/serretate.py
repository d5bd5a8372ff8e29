"""Deformations of ordinary modules over Artinian rings: lifting torsion
points, the induced coordinate map into the maximal ideal, and the checks
that it is well defined (lift independence, additivity, A-linearity,
landing in the connected part).

The dual-side trivialization is fixed once and for all (the distinguished
generator of the truncated rank-1 torsion); the choice is recorded in
report metadata rather than canonicalized.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .basearith import APoly, ArtinRing, FieldExt, PrimePlace, TruncPoly
from .modules import DrinfeldModule
from .skew import tau

EXHAUSTIVE_IDEAL_BOUND = 256


class DeformationDatum(namedtuple("DeformationDatum", "E0 R E n")):
    """An ordinary module E0 over a finite field, an Artinian base R with
    varpi^(n+1) = 0, and a module E over R reducing to E0 modulo the
    maximal ideal; n is the torsion depth.  Validated on construction."""

    __slots__ = ()

    def __new__(cls, E0: DrinfeldModule, R: ArtinRing, E: DrinfeldModule,
                n: int):
        if not isinstance(E0.base, FieldExt):
            raise ValueError("E0 must live over a field")
        if not E0.is_ordinary():
            raise ValueError("E0 must be ordinary")
        if E.base is not R:
            raise ValueError("E must live over R")
        if n < 1:
            raise ValueError("torsion depth must be >= 1")
        if n + 1 > R.N:
            raise ValueError(
                f"depth {n} exceeds the nilpotency bound: need "
                f"varpi^{n + 1} = 0, ring has eps^{R.N} = 0")
        if R.coeff_ring is not E0.base:
            raise ValueError("R must have residue field the base of E0")
        for name in ("g", "delta"):
            if getattr(E, name).residue() != getattr(E0, name):
                raise ValueError(f"E does not reduce to E0 at {name}")
        return super().__new__(cls, E0, R, E, n)

    @property
    def place(self) -> PrimePlace:
        return self.E0.place


def constant_lift(E0: DrinfeldModule, R: ArtinRing, n: int) -> DeformationDatum:
    """The datum with coefficients of E0 lifted as constants into R."""
    E = DrinfeldModule(R, R.from_fq(E0.g), R.from_fq(E0.delta))
    return DeformationDatum(E0, R, E, n)


def phi_deformation_value(datum: DeformationDatum, x_n, lift_perturbation=None):
    """The value of phi_E(varpi^n) at a lift of the torsion point x_n of
    E0; independent of the chosen lift, and always in the maximal ideal.
    Rejects x_n not killed by phi_0(varpi^n)."""
    pl = datum.place
    killed = datum.E0.phi_eval(pl.varpi ** datum.n).eval(x_n)
    if not killed.is_zero():
        raise ValueError(f"{x_n} is not varpi^{datum.n}-torsion on E0")
    x_lift = datum.R.from_fq(x_n)
    if lift_perturbation is not None:
        if not lift_perturbation.in_maximal_ideal():
            raise ValueError("lift perturbation must lie in the maximal ideal")
        x_lift = x_lift + lift_perturbation
    value = datum.E.phi_eval(pl.varpi ** datum.n).eval(x_lift)
    if not value.in_maximal_ideal():
        raise AssertionError(
            f"deformation value {value} escaped the maximal ideal")
    return value


class LiftIndependenceReport:
    """Filled in by `lift_independence_check`: the deformation value of
    each torsion point, the perturbations tried, the outcome of each
    property and the violations found."""

    __slots__ = ("datum", "torsion_count", "values", "perturbations_checked",
                 "exhaustive", "additivity_ok", "linearity_ok",
                 "connected_ok", "frobenius_kernel_trivial", "violations")

    def __init__(self, datum: DeformationDatum, torsion_count: int):
        self.datum = datum
        self.torsion_count = torsion_count
        self.values = {}
        self.perturbations_checked = 0
        self.exhaustive = True
        self.additivity_ok = True
        self.linearity_ok = True
        self.connected_ok = True
        self.frobenius_kernel_trivial = True
        self.violations = []

    @property
    def ok(self) -> bool:
        return (not self.violations and self.additivity_ok
                and self.linearity_ok and self.connected_ok)


def _ideal_elements(R: ArtinRing, indices) -> list:
    """The elements of the maximal ideal (eps) at the given indices: index
    i has the base-|k'| digits of i over `coeff_ring.elements()`, most
    significant first, as its coefficients of eps^1 ... eps^(N-1), so it is
    the i-th element listed by `ArtinRing.maximal_ideal` (product order)."""
    digits = list(R.coeff_ring.elements())
    b = len(digits)
    return [TruncPoly(R, [R.coeff_ring.zero]
                      + [digits[i // b ** k % b] for k in range(R.N - 2, -1, -1)])
            for i in indices]


def lift_independence_check(datum: DeformationDatum) -> LiftIndependenceReport:
    """For every torsion point and every lift perturbation in the maximal
    ideal (sampled when the ideal is large), assert the deformation value
    is unchanged; also checks additivity, A-linearity against direct
    evaluation for a in {1, T}, membership in the maximal ideal, and that
    the connected varpi-kernel has no nonzero rational points."""
    pl = datum.place
    E0base = datum.E0.base
    torsion = datum.E0.torsion_points(datum.n, E0base)
    report = LiftIndependenceReport(datum, torsion.count)

    R = datum.R
    size = R.size // R.residue_size
    report.exhaustive = size <= EXHAUSTIVE_IDEAL_BOUND
    indices = (range(size) if report.exhaustive else
               random.Random(0).sample(range(size), EXHAUSTIVE_IDEAL_BOUND))
    ideal = _ideal_elements(R, indices)

    for x in torsion.points:
        base_val = phi_deformation_value(datum, x)
        report.values[x] = base_val
        if not base_val.in_maximal_ideal():
            report.connected_ok = False
        for delta in ideal:
            report.perturbations_checked += 1
            other = phi_deformation_value(datum, x, delta)
            if other != base_val:
                report.violations.append((x, delta, base_val, other))

    # additivity in the torsion point
    for x, y in itertools.product(torsion.points, repeat=2):
        s = x + y
        if report.values[s] != report.values[x] + report.values[y]:
            report.additivity_ok = False
            report.violations.append(("additivity", x, y))

    # A-linearity: the value at a.x equals phi_E(a) applied to the value
    T = APoly(pl.field, [0, 1])
    for a in (APoly(pl.field, [1]), T):
        for x in torsion.points:
            ax = datum.E0.phi_eval(a).eval(x)
            lhs = report.values[ax]
            rhs = datum.E.phi_eval(a).eval(report.values[x])
            if lhs != rhs:
                report.linearity_ok = False
                report.violations.append(("linearity", str(a), x))

    # transport along the connected component is injective on points
    frob_kernel = [x for x in E0base.elements()
                   if tau(E0base, pl.d).eval(x).is_zero()]
    report.frobenius_kernel_trivial = frob_kernel == [E0base.zero]
    return report
