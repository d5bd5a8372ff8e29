"""Locally finite operators on towers of finite modules and the ordinary
projector e(T) = lim T^(n!), with the control-style compatibility checks
(base change of the idempotent commutes with weight specialization).

Matrices are plain row lists over any coefficient ring handle exposing
zero/one; levels of a tower may live over different rings connected by
entrywise transition maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FACTORIAL_STEP_CAP = 64


# -- generic exact matrix helpers -------------------------------------------

def mat_identity(ring, n: int):
    return [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]


def mat_mul(a, b, ring):
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero
            for k in range(mid):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_pow(a, e: int, ring):
    result = mat_identity(ring, len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base, ring)
        base = mat_mul(base, base, ring)
        e >>= 1
    return result


def mat_map(a, fn):
    return [[fn(x) for x in row] for row in a]


# -- towers ------------------------------------------------------------------

@dataclass
class TowerModule:
    """A tower of finite free modules: per level a coefficient ring handle
    and a rank, linked by entrywise transition maps level i+1 -> level i
    (None for a constant tower, meaning the identity)."""

    rings: list
    rank: int
    transitions: list  # transitions[i]: entry map from level i+1 to level i

    def __post_init__(self):
        if len(self.transitions) != len(self.rings) - 1:
            raise ValueError("need one transition per adjacent level pair")

    @property
    def depth(self) -> int:
        return len(self.rings)

    def transition_entry(self, i: int):
        t = self.transitions[i]
        return (lambda x: x) if t is None else t


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
        for i in range(tower.depth - 1):
            fn = tower.transition_entry(i)
            pushed = mat_map(matrices[i + 1], fn)
            if not mat_eq(pushed, matrices[i]):
                raise ValueError(
                    f"levels {i + 1} -> {i} do not commute with the transition")
        self.tower = tower
        self.matrices = matrices

    def level(self, i: int):
        return self.matrices[i]

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
    from .basearith import local_ring
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

@dataclass
class ProjectorReport:
    operator: TowerOperator
    projector: TowerOperator
    steps: list
    idempotent: bool = True
    commutes: bool = True
    invertible_on_image: bool = True
    vanishes_on_kernel: bool = True
    compatible: bool = True
    invertibility_order: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.idempotent and self.commutes and self.invertible_on_image
                and self.vanishes_on_kernel and self.compatible)


def _stabilized_factorial_power(mat, ring):
    """The limit of T^(n!) in the finite matrix monoid: iterate
    S <- S^(n+1) and stop at the first idempotent iterate, which is the
    unique idempotent of the cyclic subsemigroup generated by the matrix
    and therefore equals every later factorial power.  Returns
    (limit, stop step)."""
    cur = mat
    for step in range(1, FACTORIAL_STEP_CAP + 1):
        if mat_eq(mat_mul(cur, cur, ring), cur):
            return cur, step
        cur = mat_pow(cur, step + 1, ring)
    raise RuntimeError(
        f"factorial iteration did not stabilize within {FACTORIAL_STEP_CAP} steps")


def ordinary_projector(op: TowerOperator) -> ProjectorReport:
    """e(T) per level by factorial iteration, with the full property check:
    e is idempotent, commutes with T, T is invertible on the image of e,
    the stabilized factorial power vanishes on the kernel of e, and the
    levels are transition-compatible."""
    tower = op.tower
    mats, steps = [], []
    for ring, mat in zip(tower.rings, op.matrices):
        e, st = _stabilized_factorial_power(mat, ring)
        mats.append(e)
        steps.append(st)
    proj = TowerOperator(tower, mats)
    report = ProjectorReport(op, proj, steps)
    for ring, T, e in zip(tower.rings, op.matrices, proj.matrices):
        n = len(T)
        if not mat_eq(mat_mul(e, e, ring), e):
            report.idempotent = False
        if not mat_eq(mat_mul(e, T, ring), mat_mul(T, e, ring)):
            report.commutes = False
        # invertibility on the image: some power of T acts as the identity
        # there (the restriction generates a finite group)
        # T restricted to im(e) is inverted by T^(f-1) e where T^f = e:
        # verify the witness identity (T e)(T^(f-1) e) = e
        st = steps[len(report.invertibility_order)]
        f = 1
        for k in range(2, st + 2):
            f *= k
        witness = mat_mul(mat_pow(T, f - 1, ring), e, ring) if f > 1 else e
        if not mat_eq(mat_mul(mat_mul(T, e, ring), witness, ring), e):
            report.invertible_on_image = False
        report.invertibility_order.append(f)
    if not factorial_powers_vanish(op, report):
        report.vanishes_on_kernel = False
    for i in range(tower.depth - 1):
        fn = tower.transition_entry(i)
        if not mat_eq(mat_map(proj.matrices[i + 1], fn), proj.matrices[i]):
            report.compatible = False
    return report


def factorial_powers_vanish(op: TowerOperator, report: ProjectorReport) -> bool:
    """T^(n!) (1 - e) goes to zero entrywise as n grows through the
    stabilized range: at stabilization it equals e(1 - e) = 0 exactly."""
    for ring, T, e, st in zip(op.tower.rings, op.matrices,
                              report.projector.matrices, report.steps):
        n = len(T)
        fact = 1
        for k in range(1, st + 2):
            fact *= k
        power = mat_pow(T, fact, ring)
        one_minus_e = mat_sub(mat_identity(ring, n), e)
        if not mat_is_zero(mat_mul(power, one_minus_e, ring)):
            return False
    return True


def image_membership_identities(e1, e2, ring) -> bool:
    """Two idempotents have the same image iff each acts as the identity on
    the other's image: e1 e2 = e2 and e2 e1 = e1."""
    return (mat_eq(mat_mul(e1, e2, ring), e2)
            and mat_eq(mat_mul(e2, e1, ring), e1))


@dataclass
class ControlReport:
    specialized_projector: list   # e(T) base-changed along the weight
    projector_of_specialized: list
    images_agree: bool

    @property
    def ok(self) -> bool:
        return self.images_agree


def control_check(matrix, ring, specialize_entry, target_ring) -> ControlReport:
    """Base change of the idempotent commutes with specialization: comparing
    the image of f_k(e(T)) with the image of e(f_k(T)) over the target."""
    e_first, _ = _stabilized_factorial_power(matrix, ring)
    e_pushed = mat_map(e_first, specialize_entry)
    specialized = mat_map(matrix, specialize_entry)
    e_second, _ = _stabilized_factorial_power(specialized, target_ring)
    agree = image_membership_identities(e_pushed, e_second, target_ring)
    return ControlReport(e_pushed, e_second, agree)


def local_finiteness_report(op: TowerOperator) -> list:
    """Per level, the stabilizing submodule chain: the kernels of the
    composite transitions, each T-stable because the operator commutes with
    the transitions (verified here on the kernel generators when the rings
    are truncation levels)."""
    from .basearith import LocalRing
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
