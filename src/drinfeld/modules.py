"""Rank-2 Drinfeld modules over extensions of the residue field or over
Artinian test rings: the action phi, the factorization phi(varpi) = V * F in
characteristic the place, Hasse invariant, torsion, the A-stable order-q^d
subgroups, and quotient isogenies.

A module is the data (base, g, delta) with delta a unit; the action of T is
gamma_T + g*t + delta*t^2.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .basearith import APoly, FieldExt, PrimePlace, power
from .skew import (SkewPoly, action_eval, kernel_points, right_divide,
                   stable_right_divisors, tau)


class DrinfeldModule:
    """`_actions` holds each phi(a) this instance has computed, keyed by a,
    and `_fv` its checked factorization (F, V) once computed: both live
    and die with the instance, so no sweep over modules grows a
    process-wide table."""

    __slots__ = ("base", "g", "delta", "_actions", "_fv")

    def __init__(self, base, g, delta):
        if not delta.is_unit():
            raise ValueError("delta must be a unit (rank exactly 2)")
        self.base = base
        self.g = g
        self.delta = delta
        self._actions = {}
        self._fv = None

    @property
    def place(self) -> PrimePlace:
        return self.base.place

    @property
    def gamma_T(self):
        return self.base.gamma_T

    def phi_T(self) -> SkewPoly:
        return SkewPoly(self.base, [self.gamma_T, self.g, self.delta])

    def phi_eval(self, a: APoly) -> SkewPoly:
        """The action phi(a); twist degree is 2*deg(a).  Computed once per
        instance and a."""
        action = self._actions.get(a)
        if action is None:
            action = self._actions[a] = action_eval(a, self.phi_T())
        return action

    def is_char_p(self) -> bool:
        """Whether the base has characteristic the place: gamma(varpi) = 0."""
        return self.base.gamma_eval(self.place.varpi).is_zero()

    def frob_twist(self, e: int = 1) -> "DrinfeldModule":
        """The module with coefficients raised to the q^e power."""
        qe = self.place.q ** e
        return DrinfeldModule(self.base, self.g ** qe, self.delta ** qe)

    def j_invariant(self):
        """Coarse moduli coordinate g^(q+1)/delta."""
        return self.g ** (self.place.q + 1) * self.delta.inverse()

    def base_change(self, ext: FieldExt) -> "DrinfeldModule":
        """Transport to a larger extension of the same place."""
        if not isinstance(self.base, FieldExt):
            raise ValueError("base change is defined for field bases")
        if ext.place != self.place or ext.m % self.base.m != 0:
            raise ValueError("not an extension of the base")
        emb = ext.field.embedding_from(self.base.field)
        if emb(self.base.gamma_T) != ext.gamma_T:
            # the canonical embedding must match the structure maps; find a
            # conjugate embedding that does
            emb = _gamma_compatible_embedding(self.base, ext)
        return DrinfeldModule(ext, emb(self.g), emb(self.delta))

    def __eq__(self, other):
        return (isinstance(other, DrinfeldModule) and other.base is self.base
                and other.g == self.g and other.delta == self.delta)

    def __hash__(self):
        return hash((id(self.base), self.g, self.delta))

    def __repr__(self):
        return f"DrinfeldModule(gamma={self.gamma_T}, g={self.g}, delta={self.delta})"

    # -- characteristic-p structure ---------------------------------------

    def frobenius_verschiebung(self):
        """The factorization phi(varpi) = V * F with F = t^d.  Requires a
        char-p base; checks that the twist coefficients of phi(varpi) below
        degree d vanish and that V * t^d re-multiplies exactly.  Computed
        and checked once per instance; a base that is not char-p raises
        every time."""
        if self._fv is None:
            self._fv = self._factorize()
        return self._fv

    def _factorize(self):
        if not self.is_char_p():
            raise ValueError("Frobenius/Verschiebung requires gamma(varpi) = 0")
        d = self.place.d
        pv = self.phi_eval(self.place.varpi)
        for i in range(d):
            if not pv.coefficient(i).is_zero():
                raise AssertionError(
                    f"phi(varpi) has nonzero twist coefficient at degree {i}: "
                    f"{pv.coefficient(i)}")
        V = Verschiebung(self, SkewPoly(self.base, [pv.coefficient(i + d)
                                                    for i in range(d + 1)]))
        F = Isogeny(self, self.frob_twist(d), tau(self.base, d))
        if V.poly * F.u != pv:
            raise AssertionError("V * F does not re-multiply to phi(varpi)")
        return F, V

    def hasse_invariant(self):
        """The constant coefficient of V; zero exactly at supersingular
        modules."""
        _, V = self.frobenius_verschiebung()
        return V.poly.coefficient(0)

    def is_ordinary(self) -> bool:
        return not self.hasse_invariant().is_zero()

    def torsion_points(self, n: int, ext: FieldExt) -> "TorsionModule":
        """The group of varpi^n torsion points rational over `ext`, with its
        A-module structure.  Partial splitting is reported, not an error."""
        E = self.base_change(ext) if ext is not self.base else self
        u = E.phi_eval(self.place.varpi ** n)
        points = kernel_points(u, ext)
        geometric = ext.q ** (u.degree - u.tau_valuation()) if not u.is_zero() else 0
        orders = {}
        for x in points:
            s = 0
            y = x
            while not y.is_zero():
                y = E.phi_eval(self.place.varpi).eval(y)
                s += 1
            orders[x] = s
        return TorsionModule(E, n, tuple(points), orders,
                             len(points) == geometric)

    def order_qd_kernels(self) -> list["SubgroupScheme"]:
        """The A-stable order-q^d subgroup schemes of the varpi-torsion, in
        closed form: the connected kernel t^d, and for an ordinary module
        also the etale kernel V'/lc(V'), where phi(varpi) = V * t^d =
        t^d * V' and V' is V with its coefficients raised to the q^-d
        power.  Listed in the order divisor enumeration produces them.
        Each kernel is verified to divide phi(varpi) and, by the stability
        division SubgroupScheme makes, to be A-stable; a kernel that is not
        violates the identity and raises AssertionError naming j and u."""
        d = self.place.d
        _, V = self.frobenius_verschiebung()
        kernels = [tau(self.base, d)]
        if not V.hasse.is_zero():
            # q^(dm) fixes the degree-m extension, so q^(d(m-1)) inverts q^d
            Vp = V.poly.coeff_qpow(d * (self.base.m - 1))
            kernels.append(SkewPoly(self.base, [Vp.coeffs[-1].inverse()]) * Vp)
        phi_varpi = self.phi_eval(self.place.varpi)
        subgroups = []
        for u in kernels:
            H = None
            if right_divide(phi_varpi, u)[1].is_zero():
                try:
                    H = SubgroupScheme(self, u)
                except ValueError:  # u is not A-stable
                    pass
            if H is None:
                raise AssertionError(
                    f"closed-form kernel u = {u} at j = {self.j_invariant()} "
                    "is not an A-stable divisor of phi(varpi)")
            subgroups.append(H)
        return subgroups

    def quotient_by_kernel(self, H: "SubgroupScheme") -> "Isogeny":
        """The isogeny E -> E/H given by the kernel polynomial u of H: the
        target action phi'(T) is the quotient of u*phi(T) by u that H kept
        from its stability check."""
        u, quot = H.u, H.action
        if quot.degree != 2:
            raise ValueError(f"quotient action has twist degree {quot.degree}")
        b0 = quot.coefficient(0)
        if b0 != self.gamma_T and b0 != self.base.qpow(self.gamma_T, u.tau_valuation()):
            raise AssertionError(f"quotient does not preserve the structure map: {b0}")
        target = DrinfeldModule(self.base, quot.coefficient(1), quot.coefficient(2))
        return Isogeny(self, target, u)


class SubgroupKind(Enum):
    CONNECTED = "connected"
    ETALE = "etale"
    MIXED = "mixed"


class SubgroupScheme:
    """A finite A-stable subgroup scheme of E, presented by a monic kernel
    polynomial u; its order is q^deg(u).  `action` is the quotient
    (u*phi(T))/u, the action of T on E/H."""

    __slots__ = ("parent", "u", "action", "kind")

    def __init__(self, parent: DrinfeldModule, u: SkewPoly):
        if not u.is_monic():
            raise ValueError("kernel polynomial must be monic")
        action, rem = right_divide(u * parent.phi_T(), u)
        if not rem.is_zero():
            raise ValueError(f"kernel polynomial {u} is not A-stable: "
                             f"remainder {rem}")
        self.parent = parent
        self.u = u
        self.action = action
        v = u.tau_valuation()
        if v == u.degree:
            self.kind = SubgroupKind.CONNECTED
        elif v == 0:
            self.kind = SubgroupKind.ETALE
        else:
            self.kind = SubgroupKind.MIXED

    @property
    def lie(self):
        return self.u.coefficient(0)

    def __repr__(self):
        return f"Subgroup(u={self.u}, {self.kind.value})"


class Isogeny:
    """u: source -> target with the intertwining identity
    phi_target(T) * u = u * phi_source(T), verified on construction."""

    __slots__ = ("source", "target", "u")

    def __init__(self, source: DrinfeldModule, target: DrinfeldModule, u: SkewPoly):
        if target.phi_T() * u != u * source.phi_T():
            raise ValueError("not an isogeny: intertwining identity fails")
        self.source = source
        self.target = target
        self.u = u

    def __repr__(self):
        return f"Isogeny(u={self.u})"


class Verschiebung(namedtuple("Verschiebung", "module poly")):
    """The inner factor V of phi(varpi) = V * t^d, a SkewPoly, for the given
    module; the constant coefficient doubles as the Hasse invariant."""

    __slots__ = ()

    @property
    def hasse(self):
        return self.poly.coefficient(0)


class TorsionModule(namedtuple(
        "TorsionModule", "module depth points orders complete")):
    """The varpi^depth-torsion points of a module with the order exponent
    of each point (a dict); `complete` says all geometric points are
    rational over the given field."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.points)

    def invariant_factors(self) -> tuple[int, ...]:
        """Exponents (a, b) with the group isomorphic to
        A/varpi^a x A/varpi^b, a <= b (empty entries dropped)."""
        if self.count == 1:
            return ()
        qd = self.module.place.q ** self.module.place.d
        total = 0
        c = self.count
        while c > 1:
            c //= qd
            total += 1
        b = max(self.orders.values())
        a = total - b
        return tuple(x for x in (a, b) if x > 0)

    def is_cyclic(self) -> bool:
        inv = self.invariant_factors()
        return len(inv) <= 1


def _gamma_compatible_embedding(small: FieldExt, big: FieldExt):
    """An embedding of fields matching gamma_T on both sides (the canonical
    one composed with a power of Frobenius over the base)."""
    emb0 = big.field.embedding_from(small.field)
    qd = small.place.q
    # twist by Frobenius powers of the small field until gamma matches
    for e in range(small.field.n):
        def emb(x, _e=e):
            return emb0(x ** (small.field.p ** _e))
        if emb(small.gamma_T) == big.gamma_T:
            return emb
    raise ValueError("no gamma-compatible embedding")


def all_modules(ext: FieldExt):
    """Every module (g, delta) over ext, g over the field and delta over
    its units, each in canonical element order."""
    for g in ext.elements():
        for delta in ext.field.units():
            yield DrinfeldModule(ext, g, delta)


def stable_order_qd_subgroups(E: DrinfeldModule) -> list[SubgroupScheme]:
    """All A-stable order-q^d subgroup schemes of the varpi-torsion of E,
    via exhaustive divisor enumeration over |ext|^d candidates; the
    structural expectation (two for ordinary modules, one for
    supersingular) is asserted by callers.  Enumeration is itself the
    identity in the torsion-dichotomy check and the test oracle for
    `DrinfeldModule.order_qd_kernels`, which everything else uses."""
    d = E.place.d
    divisors = stable_right_divisors(E.phi_T(), E.phi_eval(E.place.varpi), d)
    return [SubgroupScheme(E, u) for u in divisors]


def splitting_degree(u: SkewPoly, ext: FieldExt) -> int:
    """Least r with every root of the separable additive polynomial u
    rational over the degree-r extension of `ext`: certified by
    x^(Q^r) = x mod u(x) as ordinary polynomials, Q = |ext|.  The roots
    form an F_q-space of dimension n = deg_tau u on which x -> x^Q acts as
    an element of GL_n(F_q), whose order r is at most q^n - 1."""
    if u.constant().is_zero():
        raise ValueError("u must be separable (nonzero constant coefficient)")
    # represent u as an ordinary polynomial over the big field
    coeffs = [ext.zero] * (ext.q ** u.degree + 1)
    for i, c in enumerate(u.coeffs):
        coeffs[ext.q ** i] = c
    modulus = APoly(ext.field, coeffs)
    one = APoly(ext.field, [ext.one])
    x = APoly(ext.field, [ext.zero, ext.one])
    cur = x
    bound = ext.q ** u.degree - 1
    for r in range(1, bound + 1):
        cur = power(cur, ext.size, one, lambda a, b: (a * b) % modulus)
        if cur == x:
            return r
    raise AssertionError(f"splitting degree above the bound q^n - 1 = {bound}")
