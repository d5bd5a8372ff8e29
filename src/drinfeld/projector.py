"""Locally finite operators on towers of finite modules and the ordinary
projector e(T) = lim T^(n!), with the control-style compatibility checks
(base change of the idempotent commutes with weight specialization).

Towers hold plain row lists of ring elements; levels of a tower may live
over different rings connected by entrywise transition maps.  The matrix
arithmetic works on codes instead, in two layers:

- *Entries.*  Every matrix ring (`LocalRing`, `FieldExt`, `IwasawaLevel`)
  returns from `codes()` its one `basearith.ElementCodes`, for the ring's
  lifetime: canonical int codes, zero at 0 and one at 1, whose sums and
  products are the subscripts `sums[a][b]` and `prods[a][b]` of memo
  tables.
- *Matrices.*  A `MatrixCodes` interns the r x r matrices over one such
  codec as int codes too, keyed by their row-sparse form: per row, the
  `(column, code)` pairs of its nonzero entries in column order.  Products
  are the subscripts `prods[a][b]` of one more memo table, so each distinct
  product is computed once; a miss calls the one kernel `mat_mul`,
  Gustavson's row product on sparse rows, which costs one entry product
  per pair of nonzero entries that meet (in the Hecke towers, whose rows
  hold at most two entries, a few per row).

A matrix memo lives for one `ordinary_projector`, `factorial_powers_vanish`
or `control_check` call: it is created there and passed down, so library
callers do not accumulate products.  Those calls encode their input
matrices once, walk on matrix codes, and decode only what they report.

The invertibility witness P = T^(f-1), f = (st+1)!, is computed with a
shorter exponent h (`_witness_exponent`), still from T's own powers and
not from the iteration.  Let R be a finite local ring of characteristic p
with residue field F_Q and length l over itself.  The exponent of GL_r(R)
divides E = lcm_{i<=r}(Q^i - 1) * p^ceil(log_p r) * p^ceil(log_p l):

- in GL_r(F_Q), a semisimple part has order dividing the lcm, and a
  unipotent part u has (u-1)^r = 0, so u^(p^a) = 1 once p^a >= r;
- the kernel of reduction, 1 + M_r(m), is killed by any p^b >= l, as
  (1+X)^(p^b) = 1 + X^(p^b) and m^l = 0.

`Lambda_m` is a product of such rings R[W], one per tame character, each
of residue field F_Q and length l = m*w (W the wild group, of order w).
GL_r of a product is the product of the GL_r of the factors, and a matrix
over it is the tuple of its factor matrices, so E and the index bound
below, taken for one factor, serve for the product too.
On R^r, of length r*l, the kernels of T^k stop growing by k = r*l, so
T^k (1 - e) = 0 for k >= r*l, and T e + (1 - e) is a unit, so T^E e = e.
Hence T^(k+E) = T^k for k >= r*l, and any h >= r*l with h = f-1 mod E
gives T^h = T^(f-1).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .basearith import Codes, LocalRing, _MemoTable, local_ring, power


# -- coded matrices -------------------------------------------------------------

def mat_identity(ring, n: int):
    """The n x n identity over a ring, as rows of its elements."""
    return [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]


def mat_mul(a, b, codec):
    """The product of two row-sparse matrices over a codec: each row a
    tuple of (column, nonzero code) pairs in column order.  Row by row
    (Gustavson's product), each entry x at (i, k) of a adds x * y into
    column j of row i for the entries y at (k, j) of b only.  Both
    operations are subscripts of the codec's memo tables: the row
    `prods[x]` once per entry x, then `sums[acc][px[y]]` per pair of
    entries that meet.  Returns the product's rows in the same form."""
    sums, prods = codec.sums, codec.prods
    out = []
    for row in a:
        acc = {}
        for k, x in row:
            px = prods[x]
            for j, y in b[k]:
                acc[j] = sums[acc.get(j, 0)][px[y]]
        out.append(tuple(sorted([(j, c) for j, c in acc.items() if c])))
    return tuple(out)


class MatrixCodes(Codes):
    """The r x r matrices over one ring codec, interned as int codes keyed
    by their row-sparse form (zero matrix 0, identity 1), with the memo
    table `prods[a][b]` of their products: a miss multiplies by `mat_mul`
    once."""

    __slots__ = ("scalars", "rank", "prods")

    def __init__(self, scalars, rank: int):
        super().__init__(((),) * rank,
                         tuple(((i, scalars.one),) for i in range(rank)))
        self.scalars, self.rank = scalars, rank
        # `mat_mul` is looked up in this module on every miss
        self.prods = _MemoTable(self, lambda a, b: mat_mul(a, b, scalars))

    def encode_matrix(self, mat) -> int:
        """The code of a matrix given as rows of ring elements."""
        encode = self.scalars.encode
        return self.encode(tuple(
            tuple([(j, c) for j, c in enumerate(map(encode, row)) if c])
            for row in mat))

    def decode_matrix(self, code: int) -> list:
        """The matrix of a code, as rows of ring elements."""
        decode, zero = self.scalars.decode, self.scalars.decode(0)
        out = []
        for row in self.decode(code):
            dense = [zero] * self.rank
            for j, c in row:
                dense[j] = decode(c)
            out.append(dense)
        return out


def mat_pow(a: int, e: int, ring: MatrixCodes) -> int:
    """The code of a^e, by square-and-multiply on the ring's product
    table."""
    prods = ring.prods
    return power(a, e, ring.one, lambda x, y: prods[x][y])


def mat_map(a, fn):
    return [[fn(x) for x in row] for row in a]


# -- towers ------------------------------------------------------------------

class TowerModule:
    """A tower of finite free modules: per level a coefficient ring handle
    and a rank, linked by entrywise transition maps level i+1 -> level i."""

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


def incompatible_level(tower: TowerModule, matrices: list):
    """The first level i whose matrix is not the transition image of the
    matrix of level i + 1, or None when every adjacent pair commutes."""
    for i in range(tower.depth - 1):
        pushed = mat_map(matrices[i + 1], tower.transitions[i])
        if pushed != matrices[i]:
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


def constant_tower(ring, matrix) -> TowerOperator:
    """The one-level tower holding the matrix over the ring."""
    return TowerOperator(TowerModule([ring], len(matrix), []), [matrix])


def reduction_tower(place, matrix, depth: int) -> TowerOperator:
    """Levels A/(varpi), ..., A/(varpi^depth), index i at precision i + 1,
    each holding the reduction of one matrix over A/(varpi^depth) or
    deeper, with reduction transitions from level i + 1 down to level i."""
    rings = [local_ring(place, n) for n in range(1, depth + 1)]
    tower = TowerModule(rings, len(matrix), [r.reduce for r in rings[:-1]])
    return TowerOperator(tower, [mat_map(matrix, r.reduce) for r in rings])


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


def _stabilized_factorial_power(mat: int, ring: MatrixCodes):
    """The limit of T^(n!) in the finite matrix monoid, on codes: iterate
    S <- S^(n+1) and stop at the first idempotent iterate, which is the
    unique idempotent of the cyclic subsemigroup generated by the matrix
    and therefore equals every later factorial power.  The loop ends:
    T^k is idempotent iff k >= index(T) and period(T) | k, and k = s!
    meets both once s >= max(index, period), both finite in a finite
    monoid.  The square computed for the idempotence test starts the next
    power: S^(n+1) = (S^2)^((n+1)//2) * S^((n+1)%2).  Returns (limit,
    stop step)."""
    prods = ring.prods
    cur = mat
    for step in itertools.count(1):
        sq = prods[cur][cur]
        if sq == cur:
            return cur, step
        half, odd = divmod(step + 1, 2)
        nxt = mat_pow(sq, half, ring)
        cur = prods[nxt][cur] if odd else nxt


def _p_power_at_least(p: int, n: int) -> int:
    """p^ceil(log_p n): the least power of p that is >= n (1 for n <= 1)."""
    out = 1
    while out < n:
        out *= p
    return out


def gl_exponent(ring, rank: int, cap: int) -> int:
    """A multiple of the exponent of GL_rank over the ring, E =
    lcm_{i<=rank}(Q^i - 1) * p^ceil(log_p rank) * p^ceil(log_p l) for the
    residue field size Q, its characteristic p and the length l of the
    ring (see the module docstring); or, once the lcm under construction
    passes `cap`, that partial value, a number above `cap` dividing E."""
    Q = ring.residue_size
    p = ring.place.field.p
    out = _p_power_at_least(p, rank) * _p_power_at_least(p, ring.length)
    for i in range(1, rank + 1):
        out = math.lcm(out, Q ** i - 1)
        if out > cap:
            break
    return out


def _witness_exponent(ring, rank: int, f: int) -> int:
    """An h <= f - 1 with T^h = T^(f-1) for every rank x rank matrix T
    over the ring: f - 1 reduced modulo E = `gl_exponent`, then raised by
    E up to the index bound rank * length.  When E > f, h = f - 1."""
    E = gl_exponent(ring, rank, f)
    h = (f - 1) % E
    while h < rank * ring.length:
        h += E
    return min(h, f - 1)


def ordinary_projector(op: TowerOperator) -> ProjectorReport:
    """e(T) per level by factorial iteration, with the full property check:
    e is idempotent, commutes with T, T is invertible on the image of e,
    the stabilized factorial power vanishes on the kernel of e, and the
    levels are transition-compatible."""
    tower = op.tower
    mrings = [MatrixCodes(ring.codes(), tower.rank) for ring in tower.rings]
    coded = [m.encode_matrix(T) for m, T in zip(mrings, op.matrices)]
    limits = [_stabilized_factorial_power(T, m) for m, T in zip(mrings, coded)]
    mats = [m.decode_matrix(e) for m, (e, _) in zip(mrings, limits)]
    report = ProjectorReport(
        op, TowerOperator.unchecked(tower, mats),
        [st for _, st in limits],
        compatible=incompatible_level(tower, mats) is None)
    for ring, m, T, (e, st) in zip(tower.rings, mrings, coded, limits):
        prods = m.prods
        if prods[e][e] != e:
            report.idempotent = False
        Te = prods[T][e]
        if prods[e][T] != Te:
            report.commutes = False
        # T restricted to im(e) is invertible, inverted by P e with
        # P = T^(f-1) as T^f = e: verify the witness (T e)(P e) = e
        f = math.factorial(st + 1)
        P = mat_pow(T, _witness_exponent(ring, tower.rank, f), m)
        if prods[Te][prods[P][e]] != e:
            report.invertible_on_image = False
        if not _vanishes_on_kernel(T, P, e, m):
            report.vanishes_on_kernel = False
        report.invertibility_order.append(f)
    return report


def _vanishes_on_kernel(T: int, P: int, e: int, ring: MatrixCodes) -> bool:
    """T^f (1 - e) = 0, tested as T^f e = T^f, for the codes of T, e and
    P = T^(f-1); T^f = T P comes from T's own powers, never from e."""
    Tf = ring.prods[T][P]
    return ring.prods[Tf][e] == Tf


def factorial_powers_vanish(op: TowerOperator, report: ProjectorReport) -> bool:
    """T^(n!) (1 - e) goes to zero entrywise as n grows through the
    stabilized range: at stabilization it equals e(1 - e) = 0 exactly."""
    rank = op.tower.rank
    for ring, T, e, st in zip(op.tower.rings, op.matrices,
                              report.projector.matrices, report.steps):
        m = MatrixCodes(ring.codes(), rank)
        T = m.encode_matrix(T)
        f = math.factorial(st + 1)
        P = mat_pow(T, _witness_exponent(ring, rank, f), m)
        if not _vanishes_on_kernel(T, P, m.encode_matrix(e), m):
            return False
    return True


def image_membership_identities(e1: int, e2: int, ring: MatrixCodes) -> bool:
    """Two coded idempotents have the same image iff each acts as the
    identity on the other's image: e1 e2 = e2 and e2 e1 = e1."""
    prods = ring.prods
    return prods[e1][e2] == e2 and prods[e2][e1] == e1


class ControlReport(namedtuple(
        "ControlReport",
        "specialized_projector projector_of_specialized images_agree")):
    """e(T) base-changed along the weight, e of the base-changed T, and
    whether their images agree."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.images_agree


def control_check(matrix, ring, specializations, target_ring) -> list:
    """Base change of the idempotent commutes with specialization: for each
    entry map f_k in `specializations` (one per weight), comparing the
    image of f_k(e(T)) with the image of e(f_k(T)) over the target.  e(T)
    is computed once for all of them; one report per map, in order."""
    source = MatrixCodes(ring.codes(), len(matrix))
    target = MatrixCodes(target_ring.codes(), len(matrix))
    e_first, _ = _stabilized_factorial_power(source.encode_matrix(matrix),
                                             source)
    e_source = source.decode_matrix(e_first)
    reports = []
    for specialize_entry in specializations:
        e_pushed = mat_map(e_source, specialize_entry)
        specialized = target.encode_matrix(mat_map(matrix, specialize_entry))
        e_second, _ = _stabilized_factorial_power(specialized, target)
        agree = image_membership_identities(target.encode_matrix(e_pushed),
                                            e_second, target)
        reports.append(ControlReport(e_pushed, target.decode_matrix(e_second),
                                     agree))
    return reports


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
