"""Locally finite operators on towers of finite modules and the ordinary
projector e(T) = lim T^(n!), with the control-style compatibility checks
(base change of the idempotent commutes with weight specialization).

Towers hold plain row lists of ring elements; levels of a tower may live
over different rings connected by entrywise transition maps.  The matrix
arithmetic works on codes instead: every matrix ring's `codes()` returns
the ring's own codec (`zero`, `one`, `encode`, `decode`, `add`, `sub`,
`mul`), the same object on every call and for the ring's lifetime, with
canonical codes, so `==` on codes is equality of elements.  The three
entry points below encode their input matrices once, compute on codes,
and decode only the matrices they report.  Products skip zero codes, so a
sparse (in the Hecke towers, monomial) matrix costs one codec product per
pair of nonzero entries that meet.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .basearith import LocalRing, local_ring, power

FACTORIAL_STEP_CAP = 64


# -- matrix helpers over a codec ------------------------------------------------

def mat_identity(codec, n: int):
    """The n x n identity over anything with `zero` and `one`: a codec, or
    a ring when the identity is wanted as elements."""
    return [[codec.one if i == j else codec.zero for j in range(n)]
            for i in range(n)]


def mat_mul(a, b, codec):
    """The product of two coded matrices, row by row (Gustavson's sparse
    product): each nonzero a[i][k] adds a[i][k] * b[k][j] over the nonzero
    entries of row k of b only, into a row that starts at `codec.zero`."""
    zero, add, mul = codec.zero, codec.add, codec.mul
    width = len(b[0]) if b else 0
    rows_b = [[(j, y) for j, y in enumerate(row) if y != zero] for row in b]
    out = []
    for row in a:
        acc = [zero] * width
        for x, row_b in zip(row, rows_b):
            if x != zero:
                for j, y in row_b:
                    acc[j] = add(acc[j], mul(x, y))
        out.append(acc)
    return out


def mat_eq(a, b) -> bool:
    """Entrywise equality, of elements or of canonical codes."""
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a, codec) -> bool:
    """Every entry equals `codec.zero` (a codec's, or a ring's for a matrix
    of elements)."""
    return all(x == codec.zero for row in a for x in row)


def mat_pow(a, e: int, codec):
    return power(a, e, mat_identity(codec, len(a)),
                 lambda x, y: mat_mul(x, y, codec))


def mat_map(a, fn):
    return [[fn(x) for x in row] for row in a]


# -- towers ------------------------------------------------------------------

class TowerModule:
    """A tower of finite free modules: per level a coefficient ring handle
    and a rank, linked by entrywise transition maps level i+1 -> level i
    (None for a constant tower, meaning the identity)."""

    __slots__ = ("rings", "rank", "transitions")

    def __init__(self, rings: list, rank: int, transitions: list):
        if len(transitions) != len(rings) - 1:
            raise ValueError("need one transition per adjacent level pair")
        self.rings = rings
        self.rank = rank
        self.transitions = transitions  # [i]: entry map level i+1 -> level i

    @property
    def depth(self) -> int:
        return len(self.rings)

    def transition_entry(self, i: int):
        t = self.transitions[i]
        return (lambda x: x) if t is None else t


def incompatible_level(tower: TowerModule, matrices: list):
    """The first level i whose matrix is not the transition image of the
    matrix of level i + 1, or None when every adjacent pair commutes."""
    for i in range(tower.depth - 1):
        pushed = mat_map(matrices[i + 1], tower.transition_entry(i))
        if not mat_eq(pushed, matrices[i]):
            return i
    return None


class TowerOperator:
    """A compatible family of endomorphism matrices on a tower: the
    transition of level i+1 composed with the matrix equals the matrix of
    level i composed with the transition (checked on construction)."""

    def __init__(self, tower: TowerModule, matrices: list):
        if len(matrices) != tower.depth:
            raise ValueError("one matrix per level")
        for mat in matrices:
            if len(mat) != tower.rank or any(len(r) != tower.rank for r in mat):
                raise ValueError("matrix rank mismatch")
        i = incompatible_level(tower, matrices)
        if i is not None:
            raise ValueError(
                f"levels {i + 1} -> {i} do not commute with the transition")
        self.tower = tower
        self.matrices = matrices

    @classmethod
    def unchecked(cls, tower: TowerModule, matrices: list) -> "TowerOperator":
        """The family as given: a projector reports its compatibility."""
        op = cls.__new__(cls)
        op.tower, op.matrices = tower, matrices
        return op

    def __repr__(self):
        return f"TowerOperator(depth={self.tower.depth}, rank={self.tower.rank})"


def constant_tower(ring, matrix, depth: int = 1) -> TowerOperator:
    """The tower with the same matrix at every level and identity
    transitions."""
    rank = len(matrix)
    tower = TowerModule([ring] * depth, rank, [None] * (depth - 1))
    return TowerOperator(tower, [matrix] * depth)


def reduction_tower(place, matrix, depth: int) -> TowerOperator:
    """Levels A/(varpi^depth), ..., A/(varpi^1) with reduction transitions,
    all reductions of one integral matrix (level order: index 0 is the
    deepest precision so transitions lower it)."""
    rings = [local_ring(place, depth - i) for i in range(depth)]
    mats = [mat_map(matrix, lambda x, r=rings[i]: x.reduce_to(r.n))
            for i in range(depth)]
    # reorder so transitions go from higher precision (later index) down
    rings = rings[::-1]
    mats = mats[::-1]
    transitions = [
        (lambda x, n=rings[i].n: x.reduce_to(n)) for i in range(depth - 1)
    ]
    tower = TowerModule(rings, len(matrix), transitions)
    return TowerOperator(tower, mats)


# -- the ordinary projector ---------------------------------------------------

class ProjectorReport:
    """The operator, its projector e(T), the factorial step at which each
    level stabilized, the outcome of each property and, per level, the
    factorial f with T^f = e."""

    __slots__ = ("operator", "projector", "steps", "idempotent", "commutes",
                 "invertible_on_image", "vanishes_on_kernel", "compatible",
                 "invertibility_order")

    def __init__(self, operator: TowerOperator, projector: TowerOperator,
                 steps: list, compatible: bool):
        self.operator = operator
        self.projector = projector
        self.steps = steps
        self.idempotent = True
        self.commutes = True
        self.invertible_on_image = True
        self.vanishes_on_kernel = True
        self.compatible = compatible
        self.invertibility_order = []

    @property
    def ok(self) -> bool:
        return (self.idempotent and self.commutes and self.invertible_on_image
                and self.vanishes_on_kernel and self.compatible)


def _stabilized_factorial_power(mat, codec):
    """The limit of T^(n!) in the finite matrix monoid, on codes: iterate
    S <- S^(n+1) and stop at the first idempotent iterate, which is the
    unique idempotent of the cyclic subsemigroup generated by the matrix
    and therefore equals every later factorial power.  The square computed
    for the idempotence test starts the next power:
    S^(n+1) = (S^2)^((n+1)//2) * S^((n+1)%2).  Returns (limit, stop step)."""
    cur = mat
    for step in range(1, FACTORIAL_STEP_CAP + 1):
        sq = mat_mul(cur, cur, codec)
        if mat_eq(sq, cur):
            return cur, step
        half, odd = divmod(step + 1, 2)
        nxt = mat_pow(sq, half, codec)
        cur = mat_mul(nxt, cur, codec) if odd else nxt
    raise RuntimeError(
        f"factorial iteration did not stabilize within {FACTORIAL_STEP_CAP} steps")


def ordinary_projector(op: TowerOperator) -> ProjectorReport:
    """e(T) per level by factorial iteration, with the full property check:
    e is idempotent, commutes with T, T is invertible on the image of e,
    the stabilized factorial power vanishes on the kernel of e, and the
    levels are transition-compatible."""
    tower = op.tower
    codecs = [ring.codes() for ring in tower.rings]
    coded = [mat_map(T, c.encode) for c, T in zip(codecs, op.matrices)]
    limits = [_stabilized_factorial_power(T, c) for c, T in zip(codecs, coded)]
    mats = [mat_map(e, c.decode) for c, (e, _) in zip(codecs, limits)]
    report = ProjectorReport(
        op, TowerOperator.unchecked(tower, mats),
        [st for _, st in limits],
        compatible=incompatible_level(tower, mats) is None)
    for c, T, (e, st) in zip(codecs, coded, limits):
        if not mat_eq(mat_mul(e, e, c), e):
            report.idempotent = False
        Te = mat_mul(T, e, c)
        if not mat_eq(mat_mul(e, T, c), Te):
            report.commutes = False
        # T restricted to im(e) is invertible, inverted by P e with
        # P = T^(f-1) as T^f = e: verify the witness (T e)(P e) = e
        f = math.factorial(st + 1)
        P = mat_pow(T, f - 1, c)
        if not mat_eq(mat_mul(Te, mat_mul(P, e, c), c), e):
            report.invertible_on_image = False
        if not _vanishes_on_kernel(T, P, e, c):
            report.vanishes_on_kernel = False
        report.invertibility_order.append(f)
    return report


def _vanishes_on_kernel(T, P, e, c) -> bool:
    """T^f (1 - e) = 0, tested as T^f e = T^f, for coded T, e and
    P = T^(f-1); T^f = T P comes from T's own powers, never from e."""
    Tf = mat_mul(T, P, c)
    return mat_eq(mat_mul(Tf, e, c), Tf)


def factorial_powers_vanish(op: TowerOperator, report: ProjectorReport) -> bool:
    """T^(n!) (1 - e) goes to zero entrywise as n grows through the
    stabilized range: at stabilization it equals e(1 - e) = 0 exactly."""
    for ring, T, e, st in zip(op.tower.rings, op.matrices,
                              report.projector.matrices, report.steps):
        c = ring.codes()
        T = mat_map(T, c.encode)
        P = mat_pow(T, math.factorial(st + 1) - 1, c)
        if not _vanishes_on_kernel(T, P, mat_map(e, c.encode), c):
            return False
    return True


def image_membership_identities(e1, e2, codec) -> bool:
    """Two coded idempotents have the same image iff each acts as the
    identity on the other's image: e1 e2 = e2 and e2 e1 = e1."""
    return (mat_eq(mat_mul(e1, e2, codec), e2)
            and mat_eq(mat_mul(e2, e1, codec), e1))


class ControlReport(namedtuple(
        "ControlReport",
        "specialized_projector projector_of_specialized images_agree")):
    """e(T) base-changed along the weight, e of the base-changed T, and
    whether their images agree."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.images_agree


def control_check(matrix, ring, specialize_entry, target_ring) -> ControlReport:
    """Base change of the idempotent commutes with specialization: comparing
    the image of f_k(e(T)) with the image of e(f_k(T)) over the target."""
    source, target = ring.codes(), target_ring.codes()
    e_first, _ = _stabilized_factorial_power(mat_map(matrix, source.encode),
                                             source)
    e_pushed = mat_map(mat_map(e_first, source.decode), specialize_entry)
    specialized = mat_map(mat_map(matrix, specialize_entry), target.encode)
    e_second, _ = _stabilized_factorial_power(specialized, target)
    agree = image_membership_identities(mat_map(e_pushed, target.encode),
                                        e_second, target)
    return ControlReport(e_pushed, mat_map(e_second, target.decode), agree)


def local_finiteness_report(op: TowerOperator) -> list:
    """Per level, the stabilizing submodule chain: the kernels of the
    composite transitions, each T-stable because the operator commutes with
    the transitions (verified here on the kernel generators when the rings
    are truncation levels)."""
    out = []
    tower = op.tower
    for i, ring in enumerate(tower.rings):
        chain = []
        if isinstance(ring, LocalRing):
            # kernels of reduction to lower precision: varpi^j * M
            for j in range(1, ring.n):
                gens_stable = True
                varpij = ring.varpi ** j
                mat = op.matrices[i]
                for col in range(tower.rank):
                    image = [mat[r][col] * varpij for r in range(tower.rank)]
                    if any(x.varpi_valuation() < j for x in image):
                        gens_stable = False
                chain.append({"index": j, "stable": gens_stable})
        out.append({"level": i, "chain": chain,
                    "stable": all(c["stable"] for c in chain)})
    return out
