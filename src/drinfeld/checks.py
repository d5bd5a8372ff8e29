"""The identity battery: every structural fact the library promises, as
named checks with stable identifiers, shared between the command line
`suite` and the test suite.

Check identifiers are stable strings; a failing check reports its
identifier so a red run maps to the violated identity.

The five checks that read a correspondence share one per configuration
`(place, m)` for the life of the process, through `_correspondence`.  That
is safe because a correspondence is never mutated after its build, and
`functools.cache` keeps no exception: a build that raises is retried by
the next check, so every dependent check reports the failure itself.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from functools import cache

from .basearith import (APoly, ArtinRing, ext_field, finite_field,
                        local_ring, make_place, poly_T, PrimePlace)
from .carlitz import (TruncSeriesRing, carlitz_coefficient_profile,
                      trace_of_carlitz_pullback)
from .hecke import (admissible_weight_values, apply_u_by_table, atkin_lehner,
                    build_correspondence, operator_matrix, support_valuations)
from .iwasawa import (J_ideal, determining_weights, duality_twist, filtration,
                      filtration_index_range, iota_eval, iwasawa_level,
                      maximal_ideal_kills_quotient, quotient_basis,
                      smith_count, specialize)
from .modules import (DrinfeldModule, all_modules, splitting_degree,
                      stable_order_qd_subgroups)
from .projector import (constant_tower, control_check, factorial_powers_vanish,
                        local_finiteness_report, mat_identity, mat_map,
                        mat_sparse, ordinary_projector, reduction_tower)
from .serretate import constant_lift, lift_independence_check


class CheckResult(namedtuple(
        "CheckResult", "check_id description passed details seconds",
        defaults=("", 0.0))):
    """The outcome of one named check: its stable identifier, what it
    checks, whether it passed, a short detail or witness, and its time."""

    __slots__ = ()

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.check_id}: {self.description}" + (
            f" ({self.details})" if self.details else "")


def require(cond, message: str) -> None:
    """Raise AssertionError(message) unless cond holds; unlike a bare
    assert, it survives python -O, so no check can pass without checking."""
    if not cond:
        raise AssertionError(message)


def _run(check_id: str, description: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        details = fn() or ""
        return CheckResult(check_id, description, True, details,
                           time.perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 - report any violation
        return CheckResult(check_id, description, False,
                           f"{type(exc).__name__}: {exc}",
                           time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_carlitz_profile(place: PrimePlace) -> CheckResult:
    def body():
        prof = carlitz_coefficient_profile(place)
        require(prof.ok, "coefficient profile is off")
        return f"deg {place.d}, {len(prof.middle)} middle coefficients"
    return _run("carlitz-linear-coefficient",
                f"action polynomial profile at {place}", body)


def check_fv_factorization(place: PrimePlace) -> CheckResult:
    def body():
        ext = ext_field(place, 1)
        modules = list(all_modules(ext))
        for E in modules:
            E.frobenius_verschiebung()  # asserts vanishing + product
        return f"{len(modules)} modules over F_{ext.size}"
    return _run("fv-factorization",
                f"low twist coefficients of phi(varpi) vanish and V*F "
                f"re-multiplies, at {place}", body)


def check_torsion_dichotomy(place: PrimePlace) -> CheckResult:
    def body():
        ext = ext_field(place, 1)
        qd = place.q ** place.d
        modules = list(all_modules(ext))
        for E in modules:
            subs = stable_order_qd_subgroups(E)
            if E.is_ordinary():
                etale = [H for H in subs if H.kind.value == "etale"]
                require(len(subs) == 2 and len(etale) == 1,
                        f"{len(subs)} subgroups at j = {E.j_invariant()}")
                u = etale[0].u
                require(not u.constant().is_zero(), "inseparable kernel")
                r = splitting_degree(u, ext)
                if ext.size ** r <= 4096:
                    big = ext_field(place, ext.m * r)
                    tor = E.torsion_points(1, big)
                    require(tor.count == qd and tor.complete,
                            f"{tor.count} of {qd} torsion points rational")
                    require(tor.is_cyclic(), "non-cyclic torsion")
            else:
                require(len(subs) == 1,
                        f"{len(subs)} subgroups at j = {E.j_invariant()}")
                pv = E.phi_eval(place.varpi)
                require(pv.tau_valuation() == 2 * place.d,
                        f"twist valuation {pv.tau_valuation()}")
                tor = E.torsion_points(1, ext)
                require(tor.count == 1, f"{tor.count} torsion points")
        return f"{len(modules)} modules"
    return _run("torsion-dichotomy",
                f"q^d points iff ordinary, else only zero, at {place}", body)


def check_trace_divisibility(place: PrimePlace) -> CheckResult:
    def body():
        qd = place.q ** place.d
        R = ArtinRing(place, 1, 2)
        S = TruncSeriesRing(R, qd * qd + 1)
        rep = trace_of_carlitz_pullback(place, S)
        require(rep.ok, "a basis trace is not divisible by varpi")
        if place.q == 3 and place.d == 1:
            minus_two = R.embed_fq(place.field.from_int(-2))
            expect = S.from_coeff(R.eps * minus_two)
            require(rep.traces[2] == expect,
                    f"trace of X^2 is {rep.traces[2]}, expected {expect}")
        return f"rank {qd}, truncation {S.N}"
    return _run("pullback-trace-divisibility",
                f"basis traces of the X -> [varpi](X) pullback at {place}",
                body)


def check_serre_tate(place: PrimePlace, m: int = 2) -> CheckResult:
    def body():
        ext = ext_field(place, m)
        E0 = DrinfeldModule(ext, ext.one, ext.one)
        if not E0.is_ordinary():
            E0 = DrinfeldModule(ext, ext.zero, ext.one)
        R = ArtinRing(place, m, 2)
        datum = constant_lift(E0, R, 1)
        rep = lift_independence_check(datum)
        require(rep.ok, f"{len(rep.violations)} lift-independence violations")
        for v in rep.values.values():
            require(v.in_maximal_ideal(), f"deformation value {v} is a unit")
        return (f"{rep.torsion_count} torsion points, "
                f"{rep.perturbations_checked} lift perturbations"
                + ("" if rep.exhaustive else " (sampled)"))
    return _run("deformation-lift-independence",
                f"deformation values independent of the lift at {place}", body)


def assert_orbit_invariance(corr) -> None:
    """Each pair (g, delta) is as ordinary as the point of its orbit."""
    ordinary = {p.j: p.ordinary for p in corr.points}
    for E in all_modules(corr.ext):
        if E.is_ordinary() != ordinary[E.j_invariant()]:
            raise AssertionError("ordinariness is not orbit-invariant "
                                 f"at j = {E.j_invariant()}")


@cache
def _correspondence(place: PrimePlace, m: int):
    """The correspondence at one configuration, built once per process.
    The build goes through this module's `build_correspondence` binding,
    so a rebinding of it (a tracer, a test) sees every build."""
    return build_correspondence(place, m)  # asserts counts + structure


def check_correspondence(place: PrimePlace, m: int) -> CheckResult:
    def body():
        corr = _correspondence(place, m)
        assert_orbit_invariance(corr)
        qd = place.q ** place.d
        f_map = {}
        for p in corr.ordinary:
            e = corr.edges_from(p, "F")[0]
            require(e.dst.j == p.j ** qd, f"F edge from j = {p.j} misses j^(q^d)")
            f_map[p.j] = e.dst.j
        v_map = {p.j: corr.edges_from(p, "V")[0].dst.j for p in corr.ordinary}
        for j, j2 in f_map.items():
            require(v_map[j2] == j, f"V edge from {j2} does not return to {j}")
        atkin_lehner(corr)
        U0 = operator_matrix(corr, 0, "U", locus="ordinary")
        F0 = operator_matrix(corr, 0, "F", locus="ordinary")
        require(U0.transpose().rows == F0.rows, "U^T != F in weight 0")
        kinds = {e.kind for e in corr.edges}
        require(kinds <= {"F", "V"}, f"edge kinds {sorted(kinds)}")
        return (f"{len(corr.ordinary)} ordinary, "
                f"{len(corr.supersingular)} supersingular, "
                f"{len(corr.edges)} edges")
    return _run("correspondence-structure",
                f"edge structure, inverse permutations, involution at "
                f"{place}, m={m}", body)


# the weights at which the correspondence checks build and test U
WEIGHTS = (-2, 0, 2, 3, 5)


def check_weight_homogeneity(place: PrimePlace, m: int) -> CheckResult:
    def body():
        corr = _correspondence(place, m)
        rng = random.Random(0)
        for k in WEIGHTS:
            U = operator_matrix(corr, k, "U")
            for _ in range(3):
                vals = admissible_weight_values(corr, k, rng)
                direct = apply_u_by_table(corr, k, vals)
                got = U.apply([vals[p.j] for p in U.index])
                require(got == [direct[p.j] for p in U.index],
                        f"weight {k}: matrix and table disagree")
        return f"weights {list(WEIGHTS)}"
    return _run("weight-homogeneity",
                f"operator respects weight-k homogeneity at {place}, m={m}",
                body)


def check_u_ordinarity(place: PrimePlace, m: int) -> CheckResult:
    def body():
        corr = _correspondence(place, m)
        for k in WEIGHTS:
            U = operator_matrix(corr, k, "U")
            require(not U.determinant().is_zero(), f"U singular at k = {k}")
        U0 = operator_matrix(corr, 0, "U")
        rep = ordinary_projector(constant_tower(U0.ext, U0.rows))
        require(rep.ok, "projector of U in weight 0 fails its properties")
        identity = mat_identity(U0.ext, U0.size)
        require(rep.projector.matrices[0] == identity,
                "projector of U in weight 0 is not the identity")
        return f"invertible for k in {list(WEIGHTS)}; projector is identity"
    return _run("u-ordinarity",
                f"etale-part operator invertible on the ordinary locus at "
                f"{place}, m={m}", body)


def check_hecke_support(place: PrimePlace, m: int) -> CheckResult:
    def body():
        corr = _correspondence(place, m)
        F, U, T = (operator_matrix(corr, 0, w, locus="all") for w in "FUT")
        for M, kind in ((F, "F"), (U, "V")):
            support = {(M.index[i].j, M.index[j].j)
                       for i, row in enumerate(M.rows) for j, _ in row}
            require(support == {(e.src.j, e.dst.j) for e in corr.edges
                                if e.kind == kind},
                    f"the support of {M.op} is not the {kind}-edge set")
        for p, f, u, t in zip(T.index, F.rows, U.rows, T.rows):
            acc = dict(f)
            for j, x in u:
                acc[j] = acc[j] + x if j in acc else x
            require(dict(t) == {j: x for j, x in acc.items()
                                if not x.is_zero()},
                    f"row j = {p.j} of T is not the sum of F and U")
        vals = {k: support_valuations(k) for k in (-2, -1, 0, 1, 2, 3)}
        for k, v in vals.items():
            if k <= 0:
                require(v["F"] == 0 and v["V"] > 0, f"weight {k}: {v}")
            if k >= 2:
                require(v["V"] == 0 and v["F"] > 0, f"weight {k}: {v}")
        return "edge supports disjoint; normalization bookkeeping consistent"
    return _run("hecke-support",
                f"connected/etale parts have disjoint edge support at "
                f"{place}, m={m}", body)


def check_iwasawa_filtration() -> CheckResult:
    def body():
        basis = quotient_basis(J_ideal(3, 2), J_ideal(3, 3))
        require(len(basis) == 11, f"{len(basis)} corner monomials")
        for s in range(1, 5):
            top = min(12, filtration_index_range(s) - 1)
            for r in range(top + 1):
                I, J = filtration(s, r), filtration(s, r + 1)
                require(I.contains_ideal(J), f"chain breaks at ({s}, {r})")
                require(maximal_ideal_kills_quotient(I, J), f"({s}, {r}) not killed")
        return "chain indices r <= 12, generators s <= 4; " \
               "corner quotient basis has 11 monomials"
    return _run("iwasawa-filtration",
                "decreasing ideal chain with quotients killed by the "
                "maximal ideal", body)


def check_iwasawa_specialization(place: PrimePlace, m_max: int = 3) -> CheckResult:
    def body():
        rng = random.Random(0)
        total = 0
        for m in range(1, m_max + 1):
            lv = iwasawa_level(place, m)
            for _ in range(100 // m_max):
                x = lv.random_element(rng)
                for k in range(-3, 7):
                    require(specialize(x, k) == iota_eval(x, k),
                            f"routes disagree at level {m}, weight {k}")
                    total += 1
        return f"{total} weight evaluations agree along both routes"
    return _run("iwasawa-specialization",
                f"component specialization equals full-expansion evaluation "
                f"at {place}", body)


# the most entries of a full evaluation matrix that the determining-weights
# check counts directly, against the rank from the wild block
FULL_EVALUATION_ENTRIES = 4096


def check_determining_weights(place: PrimePlace, m_max: int = 3) -> CheckResult:
    def body():
        ranks = []
        for m in range(1, m_max + 1):
            ds = determining_weights(place, m)
            lv = iwasawa_level(place, m)
            if lv.tame_order * lv.width * ds.exponent <= FULL_EVALUATION_ENTRIES:
                units = map(lv.scalars.encode, lv.ring.units())
                full = smith_count(lv.ring, [[lv.unit_power(u, k)
                                              for k in ds.weights]
                                             for u in units])
                require(full == ds.rank, f"level {m}: rank {ds.rank} from "
                        f"the wild block, {full} from all units")
            ranks.append((m, len(ds.weights), ds.rank))
        return "; ".join(f"level {m}: |K|={k}, rank {r}" for m, k, r in ranks)
    return _run("iwasawa-determining-weights",
                f"finite weight sets with saturated evaluation rank at "
                f"{place}", body)


def check_duality_twist(place: PrimePlace, m: int = 2) -> CheckResult:
    def body():
        lv = iwasawa_level(place, m)
        rng = random.Random(0)
        for _ in range(50):
            x = lv.random_element(rng)
            tx = duality_twist(x)
            require(duality_twist(tx) == x, "not an involution")
            for k in (-2, 0, 1, 2, 3, 5):
                require(specialize(tx, k) == specialize(x, 2 - k),
                        f"twist does not swap weights {k} and {2 - k}")
        return "involution and weight swap k -> 2-k on 50 random elements"
    return _run("duality-weight-swap",
                f"twist is an involution exchanging weights k and 2-k at "
                f"{place}", body)


def check_projector_worked_example(place: PrimePlace) -> CheckResult:
    def body():
        L2 = local_ring(place, 2)
        M = mat_sparse([[L2.one, L2.one], [L2.zero, L2.varpi]])
        op = reduction_tower(place, M, 2)
        rep = ordinary_projector(op)
        require(rep.ok, "worked-example projector fails")
        expected = mat_sparse([[L2.one, L2.one + L2.varpi], [L2.zero, L2.zero]])
        require(rep.projector.matrices[-1] == expected, "wrong projector")
        require(factorial_powers_vanish(op, rep), "powers do not vanish")
        lf = local_finiteness_report(op)
        require(all(level["stable"] for level in lf), "not locally finite")
        return f"stabilized at steps {rep.steps}"
    return _run("projector-worked-example",
                f"2x2 projector over the depth-2 truncation at {place}", body)


def check_projector_hecke_towers(place: PrimePlace, m: int) -> CheckResult:
    def body():
        corr = _correspondence(place, m)
        count = 0
        for which in ("F", "U", "T"):
            M = operator_matrix(corr, 0, which)
            rep = ordinary_projector(constant_tower(M.ext, M.rows))
            require(rep.ok, f"projector of {which} fails its properties")
            rep2 = ordinary_projector(_teichmuller_lift(M, place))
            require(rep2.ok, f"lifted {which} projector fails")
            count += 2
        for k in (-2, 2, 3, 5):
            M = operator_matrix(corr, k, "U")
            rep = ordinary_projector(constant_tower(M.ext, M.rows))
            require(rep.ok, f"projector of U fails at k = {k}")
            count += 1
        return f"{count} towers"
    return _run("projector-hecke-towers",
                f"projector properties on correspondence operators at "
                f"{place}, m={m}", body)


def _teichmuller_lift(M, place: PrimePlace):
    """M lifted to A/(varpi^2); to_residue raises on a non-residue entry."""
    ring, ext = local_ring(place, 2), M.ext
    return reduction_tower(place, mat_map(
        M.rows, lambda x: ring.from_coeff(ext.to_residue(x).residue())), 2)


def check_projector_random(place: PrimePlace) -> CheckResult:
    def body():
        rng = random.Random(0)
        L2 = local_ring(place, 2)
        field = place.field
        elems = [L2.from_apoly(APoly(field, [a, b]))
                 for a in field.elements() for b in field.elements()]
        for _ in range(25):
            M = mat_sparse([[elems[rng.randrange(len(elems))]
                             for _ in range(4)] for _ in range(4)])
            rep = ordinary_projector(reduction_tower(place, M, 2))
            require(rep.ok, "a random tower projector fails its properties")
        return "25 random 4x4 depth-2 towers"
    return _run("projector-random-towers",
                f"projector properties on random towers at {place}", body)


def _specializations(weights) -> list:
    """The entry maps x -> x(k) of Lambda_m for the given weights k."""
    return [lambda x, k=k: specialize(x, k) for k in weights]


def check_projector_control(place: PrimePlace, m: int = 2) -> CheckResult:
    def body():
        lv = iwasawa_level(place, m)
        rng = random.Random(0)
        cases = 0
        for trial in range(6):
            n = 2 + trial % 2
            M = mat_sparse([[lv.random_element(rng, support=2)
                             for _ in range(n)] for _ in range(n)])
            weights = (0, 2, 3)
            for k, cr in zip(weights, control_check(
                    M, lv, _specializations(weights), lv.ring)):
                require(cr.ok, f"base change fails at k = {k}")
                cases += 1
        # the worked rank-one case: unit on the diagonal against varpi
        u = lv.wild_group[min(1, len(lv.wild_group) - 1)]
        M = mat_sparse([[lv.one, lv.one],
                        [lv.zero, lv.dirac(u) * lv.ring.varpi]])
        weights = (0, 2, 5)
        for k, cr in zip(weights, control_check(
                M, lv, _specializations(weights), lv.ring)):
            require(cr.ok, f"rank-one base change fails at k = {k}")
            cases += 1
        return f"{cases} base-change comparisons"
    return _run("projector-control",
                f"base change of the idempotent commutes with weight "
                f"specialization at {place}", body)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def standard_places():
    F3 = finite_field(3)
    F2 = finite_field(2)
    return (make_place(poly_T(F3)),
            make_place(poly_T(F2) ** 2 + poly_T(F2) + 1))


def suite_checks(place: PrimePlace, m: int) -> list:
    """The full battery at one configuration."""
    return [
        check_carlitz_profile(place),
        check_fv_factorization(place),
        check_torsion_dichotomy(place),
        check_trace_divisibility(place),
        check_serre_tate(place, m=min(m, 2)),
        check_correspondence(place, m),
        check_weight_homogeneity(place, m),
        check_u_ordinarity(place, m),
        check_hecke_support(place, m),
        check_iwasawa_filtration(),
        check_iwasawa_specialization(place, m_max=min(m + 1, 3)),
        check_determining_weights(place, m_max=min(m + 1, 3)),
        check_duality_twist(place, m=min(m, 2)),
        check_projector_worked_example(place),
        check_projector_hecke_towers(place, m),
        check_projector_random(place),
        check_projector_control(place, m=min(m, 2)),
    ]
