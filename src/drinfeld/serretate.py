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
from dataclasses import dataclass, field

from .basearith import APoly, ArtinRing, FieldExt, PrimePlace
from .modules import DrinfeldModule
from .skew import tau

EXHAUSTIVE_IDEAL_BOUND = 256


@dataclass(frozen=True)
class DeformationDatum:
    """An ordinary module E0 over a finite field, an Artinian base R with
    varpi^(n+1) = 0, and a module E over R reducing to E0 modulo the
    maximal ideal; n is the torsion depth."""

    E0: DrinfeldModule
    R: ArtinRing
    E: DrinfeldModule
    n: int

    def __post_init__(self):
        if not isinstance(self.E0.base, FieldExt):
            raise ValueError("E0 must live over a field")
        if not self.E0.is_ordinary():
            raise ValueError("E0 must be ordinary")
        if self.E.base is not self.R:
            raise ValueError("E must live over R")
        if self.n < 1:
            raise ValueError("torsion depth must be >= 1")
        if self.n + 1 > self.R.N:
            raise ValueError(
                f"depth {self.n} exceeds the nilpotency bound: need "
                f"varpi^{self.n + 1} = 0, ring has eps^{self.R.N} = 0")
        if self.R.coeff_ring is not self.E0.base:
            raise ValueError("R must have residue field the base of E0")
        for name in ("g", "delta"):
            if getattr(self.E, name).residue() != getattr(self.E0, name):
                raise ValueError(f"E does not reduce to E0 at {name}")

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


@dataclass
class LiftIndependenceReport:
    datum: DeformationDatum
    torsion_count: int
    values: dict = field(default_factory=dict)
    perturbations_checked: int = 0
    exhaustive: bool = True
    additivity_ok: bool = True
    linearity_ok: bool = True
    connected_ok: bool = True
    frobenius_kernel_trivial: bool = True
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.violations and self.additivity_ok
                and self.linearity_ok and self.connected_ok)


def lift_independence_check(datum: DeformationDatum,
                            seed: int = 0) -> LiftIndependenceReport:
    """For every torsion point and every lift perturbation in the maximal
    ideal (sampled when the ideal is large), assert the deformation value
    is unchanged; also checks additivity, A-linearity against direct
    evaluation for a in {1, T}, membership in the maximal ideal, and that
    the connected varpi-kernel has no nonzero rational points."""
    pl = datum.place
    E0base = datum.E0.base
    torsion = datum.E0.torsion_points(datum.n, E0base)
    report = LiftIndependenceReport(datum, torsion.count)

    ideal = list(datum.R.maximal_ideal())
    if len(ideal) > EXHAUSTIVE_IDEAL_BOUND:
        rng = random.Random(seed)
        ideal = rng.sample(ideal, EXHAUSTIVE_IDEAL_BOUND)
        report.exhaustive = False

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
