"""The prime-level correspondence on moduli points over finite fields in
characteristic the place: enumeration of the ordinary and supersingular
loci, the two edge families (connected-kernel and etale-kernel), the
operators F, U, T in weight k, and the Atkin-Lehner involution.

The kernels of the edges come in closed form from phi(varpi) = V * t^d
(`DrinfeldModule.order_qd_kernels`), not from a divisor search; divisor
enumeration survives as the torsion-dichotomy identity and as the tests'
oracle.

Points are geometric rescaling orbits of pairs (g, delta), indexed by the
coarse coordinate j = g^(q+1)/delta; each point carries the canonical
representative (1, 1/j) (or (0, 1) at j = 0).  The normalization exponent
-min(1, k) is carried formally on matrices: in residue characteristic it
is a support statement, not scalar arithmetic.

The weight factor c of an etale edge is rational over the point field: the
kernel is u = V'/lambda with V' = V^(q^-d), and phi_T^(q^-d) V' = V' phi_T
makes the quotient sigma_lambda of the canonical representative of
j^(q^-d), so c lies in lambda times that representative's automorphisms.

Points, edges and operator matrices are immutable records (namedtuples);
a correspondence is a plain slotted class.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .basearith import FFElement, FieldExt, PrimePlace, ext_field
from .modules import DrinfeldModule, SubgroupKind
from .projector import mat_dense


class ModuliPoint(namedtuple("ModuliPoint", "j rep hasse ordinary")):
    """A geometric rescaling orbit: the coarse coordinate j together with
    its canonical representative (a DrinfeldModule), its Hasse invariant
    and whether it is ordinary.  Points compare and hash by j alone."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, ModuliPoint) and other.j == self.j

    def __ne__(self, other):  # tuple's own __ne__ would compare every field
        return not self == other

    def __hash__(self):
        return hash(self.j)

    def as_record(self) -> dict:
        return {"j": str(self.j), "ordinary": self.ordinary,
                "hasse": str(self.hasse)}


class CorrEdge(namedtuple("CorrEdge", "src dst u kind lie target_module")):
    """One edge of the correspondence: src --(kernel u)--> dst between
    ModuliPoints.  kind "F" marks the connected kernel u = t^d (lie = 0);
    kind "V" the etale one.  target_module is the raw quotient, before
    normalization."""

    __slots__ = ()

    def as_record(self) -> dict:
        return {"src": str(self.src.j), "dst": str(self.dst.j),
                "kind": self.kind, "u": str(self.u), "lie": str(self.lie)}


class Correspondence:
    """The points over the degree-m extension `ext`, split into ordinary
    and supersingular lists, and the list of edges between them."""

    __slots__ = ("place", "m", "ext", "ordinary", "supersingular", "edges",
                 "_out")

    def __init__(self, place: PrimePlace, m: int, ext: FieldExt,
                 ordinary: list, supersingular: list, edges: list):
        self.place = place
        self.m = m
        self.ext = ext
        self.ordinary = ordinary
        self.supersingular = supersingular
        self.edges = edges
        # edges by (src, kind) and by (src, None), built once from `edges`
        self._out = {}
        for e in edges:
            for kind in (e.kind, None):
                self._out.setdefault((e.src, kind), []).append(e)

    @property
    def points(self) -> list:
        return self.ordinary + self.supersingular

    def edges_from(self, p: ModuliPoint, kind: str | None = None) -> list:
        return list(self._out.get((p, kind), ()))


def canonical_representative(ext: FieldExt, j: FFElement) -> DrinfeldModule:
    """(1, 1/j) for j != 0 and (0, 1) at j = 0."""
    if j.is_zero():
        return DrinfeldModule(ext, ext.zero, ext.one)
    return DrinfeldModule(ext, ext.one, j.inverse())


def enumerate_moduli(place: PrimePlace, m: int):
    """The geometric rescaling orbits over the degree-m extension, one per
    coarse coordinate j (zero first, then by log) with its canonical
    representative, split into (ordinary, supersingular) by its Hasse
    invariant; the correspondence-structure check sweeps the orbits."""
    ext = ext_field(place, m)
    ordinary_pts, ss_pts = [], []
    for j in ext.elements():
        rep = canonical_representative(ext, j)
        hasse = rep.hasse_invariant()
        point = ModuliPoint(j, rep, hasse, not hasse.is_zero())
        (ordinary_pts if point.ordinary else ss_pts).append(point)
    return ordinary_pts, ss_pts


def build_correspondence(place: PrimePlace, m: int) -> Correspondence:
    """Edges of the correspondence over the degree-m extension.  Each
    ordinary point gets exactly one connected (F) edge and one etale (V)
    edge; each supersingular point exactly one edge, with kernel t^d.  The
    kernels come in closed form from `order_qd_kernels`, which verifies
    each one; counts, the Frobenius twist and the graph structure are
    asserted during the build."""
    ordinary_pts, ss_pts = enumerate_moduli(place, m)
    ext = ext_field(place, m)
    index = {p.j: p for p in ordinary_pts + ss_pts}
    d = place.d
    edges = []
    for p in ordinary_pts + ss_pts:
        subgroups = p.rep.order_qd_kernels()
        expected = 2 if p.ordinary else 1
        if len(subgroups) != expected:
            raise AssertionError(
                f"point j = {p.j} has {len(subgroups)} stable order-q^d "
                f"subgroups, expected {expected}")
        for H in subgroups:
            iso = p.rep.quotient_by_kernel(H)
            dst = index[iso.target.j_invariant()]
            kind = "F" if H.kind == SubgroupKind.CONNECTED else "V"
            if p.ordinary and kind == "F" and iso.target != p.rep.frob_twist(d):
                raise AssertionError("connected quotient is not the Frobenius twist")
            edges.append(CorrEdge(p, dst, H.u, kind, H.lie, iso.target))
    corr = Correspondence(place, m, ext, ordinary_pts, ss_pts, edges)
    _assert_structure(corr)
    return corr


def _assert_structure(corr: Correspondence):
    d = corr.place.d
    qd = corr.place.q ** d
    for p in corr.ordinary:
        f_edges = corr.edges_from(p, "F")
        v_edges = corr.edges_from(p, "V")
        if len(f_edges) != 1 or len(v_edges) != 1:
            raise AssertionError(f"ordinary point {p.j} has {len(f_edges)} "
                                 f"F-edges and {len(v_edges)} V-edges")
        if f_edges[0].dst.j != p.j ** qd:
            raise AssertionError("F-edge does not raise j to the q^d")
        # the etale edge followed from the F-target returns to the start
        back = corr.edges_from(f_edges[0].dst, "V")[0]
        if back.dst != p:
            raise AssertionError("V after F does not return to the start")
    for p in corr.supersingular:
        out = corr.edges_from(p)
        if len(out) != 1 or out[0].kind != "F":
            raise AssertionError(f"supersingular point {p.j} has unexpected edges")


# ---------------------------------------------------------------------------
# operators in weight k
# ---------------------------------------------------------------------------

class HeckeMatrix(namedtuple("HeckeMatrix", "op k locus index ext rows "
                                            "semilinear norm_exponent")):
    """Operator matrix on weight-k homogeneous functions on points, row
    convention (M v)(P) = sum over edges P -> P' of weight factor times
    v(P').  `index` lists the ModuliPoints labelling rows and columns.
    Entries live in `ext`, the point field, as row-sparse rows over
    ext.field.  `semilinear` marks operators that act q^d-semilinearly on
    values for k != 0; `norm_exponent` is the formal normalization
    -min(1, k)."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.index)

    def transpose(self) -> "HeckeMatrix":
        cols = [[] for _ in self.index]
        for i, row in enumerate(self.rows):
            for j, x in row:
                cols[j].append((i, x))
        return self._replace(op=self.op + "^T", rows=list(map(tuple, cols)))

    def determinant(self):
        """The determinant of a monomial matrix, one entry in each row and
        column: the sign of the column permutation times the product of
        the entries.  Zero when a row or a column is empty; a row with two
        entries raises ValueError."""
        f = self.ext.field
        if not all(self.rows) or len(
                {j for row in self.rows for j, _ in row}) < self.size:
            return f.zero
        det, perm = f.one, []
        for row, p in zip(self.rows, self.index):
            if len(row) != 1:
                raise ValueError(f"row j = {p.j} of {self.op} has "
                                 f"{len(row)} entries, not one")
            (j, x), = row
            det = det * x
            perm.append(j)
        # sort the column permutation by swaps, each one flipping the sign
        for i in range(len(perm)):
            while perm[i] != i:
                j = perm[i]
                perm[i], perm[j] = perm[j], j
                det = -det
        return det

    def apply(self, values: list) -> list:
        out = []
        for row in self.rows:
            acc = self.ext.zero
            for j, x in row:
                acc = acc + x * values[j]
            out.append(acc)
        return out

    def as_record(self) -> dict:
        return {
            "op": self.op, "k": self.k, "locus": self.locus,
            "norm_exponent": self.norm_exponent,
            "semilinear": self.semilinear,
            "index": [str(p.j) for p in self.index],
            "field": {"p": self.ext.field.p, "n": self.ext.field.n},
            "rows": mat_dense([[(j, str(x)) for j, x in row]
                               for row in self.rows], str(self.ext.zero)),
        }


def orbit_scale(rep: DrinfeldModule, target: DrinfeldModule):
    """The scalar c of least log with sigma_c(rep) = target, that is
    c^(q-1) g = g' and c^(q^2-1) delta = delta', or None when there is
    none.  log c solves one linear congruence modulo Q - 1: the g-equation,
    or the delta-equation where g = 0.  Solutions of the g-equation differ
    by F_q^*, on which c^(q^2-1) = 1, so the least one decides both."""
    if rep.base is not target.base:
        raise ValueError("orbit_scale needs two modules over one base")
    q, field = rep.place.q, rep.base.field
    if rep.g.is_zero():
        a, b = q * q - 1, target.delta.log - rep.delta.log
    else:  # a zero target.g has log -1: the check below rejects any c
        a, b = q - 1, target.g.log - rep.g.log
    h = gcd(a, field.order)
    if b % h:
        return None
    step = field.order // h
    c = field.element(b // h * pow(a // h, -1, step) % step)
    ok = (c ** (q - 1) * rep.g == target.g
          and c ** (q * q - 1) * rep.delta == target.delta)
    return c if ok else None


def operator_matrix(corr: Correspondence, k: int, which: str,
                    locus: str | None = None) -> HeckeMatrix:
    """The matrix of F, U, or T in weight k.

    U-entries use the quotient coordinate induced by the monic kernel
    polynomial, with no extra scalar: the entry is c^k for the canonical
    scalar translating the normalized representative onto the raw quotient.
    F-entries are the plain transport (value 1 over the prime field), with
    the semilinearity of the q^d-power recorded as a flag.  T is the
    entry-sum of the two parts; their supports, as edge sets, are disjoint.
    """
    kinds = {"F": "F", "U": "V", "T": "FV"}.get(which)
    if kinds is None:
        raise ValueError("operator must be one of F, U, T")
    if locus is None:
        locus = "ordinary" if which == "U" else "all"
    points = corr.ordinary if locus == "ordinary" else corr.points
    pos = {p.j: i for i, p in enumerate(points)}
    ext = corr.ext
    sums = [{} for _ in points]
    for e in corr.edges:
        if e.kind not in kinds or e.src.j not in pos or e.dst.j not in pos:
            continue
        if e.kind == "F":
            x = ext.one
        else:
            c = orbit_scale(e.dst.rep, e.target_module)
            if c is None:
                raise AssertionError(f"V edge from j = {e.src.j} has no scale")
            x = c ** k
        row, jj = sums[pos[e.src.j]], pos[e.dst.j]
        row[jj] = row[jj] + x if jj in row else x
    # a sum can vanish: 1 + 1 in characteristic 2
    rows = [tuple(sorted([(j, x) for j, x in row.items() if not x.is_zero()]))
            for row in sums]
    semilinear = "F" in kinds and k != 0
    return HeckeMatrix(which, k, locus, points, ext, rows, semilinear,
                       -min(1, k))


def _unit_scalars(corr: Correspondence, k: int) -> list:
    """(c^(q-1), c^(q^2-1), c^k) for each unit c of the point field, in
    unit order: how sigma_c scales g, delta and a weight-k value."""
    q = corr.place.q
    return [(c ** (q - 1), c ** (q * q - 1), c ** k)
            for c in corr.ext.field.units()]


def homogeneous_table(corr: Correspondence, k: int, values: dict) -> dict:
    """Extend values on canonical representatives to a table on the whole
    (g, delta) orbit sweep by weight-k homogeneity: the pair sigma_c(rep)
    gets the value c^k v.  Values at points whose automorphisms obstruct
    weight k must be zero, otherwise the extension is inconsistent."""
    scalars = _unit_scalars(corr, k)
    table = {}
    for p in corr.points:
        v = values[p.j]
        g0, d0 = p.rep.g, p.rep.delta
        for cg, cd, ck in scalars:
            key = (cg * g0, cd * d0)
            val = ck * v
            if key in table and table[key] != val:
                raise ValueError(
                    f"values are not weight-{k} consistent at j = {p.j} "
                    "(nontrivial automorphisms force the value 0)")
            table[key] = val
    return table


def admissible_weight_values(corr: Correspondence, k: int, rng) -> dict:
    """Random weight-k admissible values: zero wherever the representative
    has automorphisms not killed by the k-th power."""
    ext = corr.ext
    units = list(ext.field.units())
    scalars = _unit_scalars(corr, k)
    values = {}
    for p in corr.points:
        g0, d0 = p.rep.g, p.rep.delta
        forced_zero = any(cg * g0 == g0 and cd * d0 == d0 and ck != ext.one
                          for cg, cd, ck in scalars)
        values[p.j] = ext.zero if forced_zero else rng.choice(units)
    return values


def apply_u_by_table(corr: Correspondence, k: int, values: dict) -> dict:
    """Direct evaluation of U on weight-k values: look the raw quotient
    module up in the homogeneous table (no matrix, no canonical scalars).
    Serves as the independent route against operator_matrix."""
    table = homogeneous_table(corr, k, values)
    out = {}
    for p in corr.ordinary:
        target = corr.edges_from(p, "V")[0].target_module
        out[p.j] = table[target.g, target.delta]
    return out


# ---------------------------------------------------------------------------
# Atkin-Lehner
# ---------------------------------------------------------------------------

def atkin_lehner(corr: Correspondence) -> dict:
    """The involution pairing each edge (E, H) with the dual edge
    (E/H, E[varpi]/H): on ordinary points it is the unique opposite-kind
    edge at the destination, on supersingular points the unique edge there.
    Asserts kind swap on the ordinary locus and that the square is the
    identity (the coarse diamond action is trivial)."""
    pairing = {}
    for e in corr.edges:
        if e.src.ordinary:
            want = "V" if e.kind == "F" else "F"
            cands = corr.edges_from(e.dst, want)
        else:
            cands = corr.edges_from(e.dst)
        if len(cands) != 1:
            raise AssertionError(
                f"dual edge missing for {e.as_record()}: graph inconsistency")
        dual = cands[0]
        if dual.dst != e.src:
            raise AssertionError("dual edge does not return to the source")
        pairing[id(e)] = dual
    for e in corr.edges:
        again = pairing[id(pairing[id(e)])]
        if again is not e:
            raise AssertionError("involution square is not the identity")
        if e.src.ordinary and pairing[id(e)].kind == e.kind:
            raise AssertionError("involution does not swap the edge kinds")
    return pairing


def support_valuations(k: int) -> dict:
    """Formal varpi-valuations of the two parts of T after the
    normalization by -min(1, k): a part survives in residue characteristic
    exactly when its valuation is zero.  (k = 1 is the edge case where
    both survive.)"""
    return {"F": k - min(1, k), "V": 1 - min(1, k)}
