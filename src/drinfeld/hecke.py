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

Points and edges are immutable records (namedtuples); a correspondence and
an operator matrix are plain slotted classes.
"""

from __future__ import annotations

from collections import namedtuple

from .basearith import FFElement, FieldExt, PrimePlace, ext_field
from .modules import DrinfeldModule, SubgroupKind


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

class HeckeMatrix:
    """Operator matrix on weight-k homogeneous functions on points, row
    convention (M v)(P) = sum over edges P -> P' of weight factor times
    v(P').  `index` lists the ModuliPoints labelling rows and columns.
    Entries live in `work_ext` (the point field or a canonical extension
    when the weight factors need one), as rows over work_ext.field.
    `semilinear` marks operators that act q^d-semilinearly on values for
    k != 0; `norm_exponent` is the formal normalization -min(1, k)."""

    __slots__ = ("op", "k", "locus", "index", "work_ext", "rows",
                 "semilinear", "norm_exponent")

    def __init__(self, op: str, k: int, locus: str, index: list,
                 work_ext: FieldExt, rows: list, semilinear: bool,
                 norm_exponent: int):
        self.op = op
        self.k = k
        self.locus = locus
        self.index = index
        self.work_ext = work_ext
        self.rows = rows
        self.semilinear = semilinear
        self.norm_exponent = norm_exponent

    @property
    def size(self) -> int:
        return len(self.index)

    def transpose(self) -> "HeckeMatrix":
        n = self.size
        rows = [[self.rows[j][i] for j in range(n)] for i in range(n)]
        return HeckeMatrix(self.op + "^T", self.k, self.locus, self.index,
                           self.work_ext, rows, self.semilinear,
                           self.norm_exponent)

    def determinant(self):
        """Exact determinant by fraction-free Gaussian elimination over the
        working field."""
        n = self.size
        f = self.work_ext.field
        mat = [row[:] for row in self.rows]
        det = f.one
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if not mat[r][col].is_zero():
                    pivot = r
                    break
            if pivot is None:
                return f.zero
            if pivot != col:
                mat[col], mat[pivot] = mat[pivot], mat[col]
                det = -det
            det = det * mat[col][col]
            inv = mat[col][col].inverse()
            for r in range(col + 1, n):
                factor = mat[r][col] * inv
                if factor.is_zero():
                    continue
                for cc in range(col, n):
                    mat[r][cc] = mat[r][cc] - factor * mat[col][cc]
        return det

    def apply(self, values: list) -> list:
        out = []
        for row in self.rows:
            acc = self.work_ext.zero
            for entry, v in zip(row, values):
                acc = acc + entry * v
            out.append(acc)
        return out

    def as_record(self) -> dict:
        return {
            "op": self.op, "k": self.k, "locus": self.locus,
            "norm_exponent": self.norm_exponent,
            "semilinear": self.semilinear,
            "index": [str(p.j) for p in self.index],
            "field": {"p": self.work_ext.field.p, "n": self.work_ext.field.n},
            "rows": [[str(e) for e in row] for row in self.rows],
        }


def orbit_scale(rep: DrinfeldModule, target: DrinfeldModule, ext: FieldExt):
    """The canonical scalar c (smallest in element order) with
    sigma_c(rep) = target, or None when no such c is rational over ext."""
    q = rep.place.q
    g0, d0 = _embed_module(rep, ext)
    g1, d1 = _embed_module(target, ext)
    for c in ext.field.units():
        if c ** (q - 1) * g0 == g1 and c ** (q * q - 1) * d0 == d1:
            return c
    return None


def _embed_module(E: DrinfeldModule, ext: FieldExt):
    """The coefficients (g, delta) of E carried into ext."""
    if E.base is ext:
        return E.g, E.delta
    emb = ext.field.embedding_from(E.base.field)
    return emb(E.g), emb(E.delta)


def _working_extension(corr: Correspondence):
    """The smallest extension of the point field, of degree at most 8 over
    it, over which every V-edge weight factor exists."""
    for t in range(1, 9):
        ext = ext_field(corr.place, corr.m * t)
        scales = {}
        for e in corr.edges:
            if e.kind == "V":
                c = orbit_scale(e.dst.rep, e.target_module, ext)
                if c is None:
                    break
                scales[id(e)] = c
        else:
            return ext, scales
    raise RuntimeError("no working extension found for the weight factors")


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
    if which not in ("F", "U", "T"):
        raise ValueError("operator must be one of F, U, T")
    if locus is None:
        locus = "ordinary" if which == "U" else "all"
    points = corr.ordinary if locus == "ordinary" else corr.points
    pos = {p.j: i for i, p in enumerate(points)}
    if which == "F":
        ext, scales = corr.ext, {}
    else:
        ext, scales = _working_extension(corr)
    n = len(points)
    zero = ext.zero
    rows = [[zero] * n for _ in range(n)]
    for e in corr.edges:
        if e.src.j not in pos or e.dst.j not in pos:
            continue
        i = pos[e.src.j]
        jj = pos[e.dst.j]
        if e.kind == "F" and which in ("F", "T"):
            rows[i][jj] = rows[i][jj] + ext.one
        elif e.kind == "V" and which in ("U", "T"):
            c = scales[id(e)]
            rows[i][jj] = rows[i][jj] + c ** k
    semilinear = which in ("F", "T") and k != 0
    return HeckeMatrix(which, k, locus, points, ext, rows, semilinear,
                       -min(1, k))


def homogeneous_table(corr: Correspondence, k: int, values: dict,
                      ext: FieldExt) -> dict:
    """Extend values on canonical representatives to a table on the whole
    (g, delta) orbit sweep by weight-k homogeneity: the pair sigma_c(rep)
    gets the value c^k v.  Values at points whose automorphisms obstruct
    weight k must be zero, otherwise the extension is inconsistent."""
    q = corr.place.q
    table = {}
    for p in corr.points:
        v = values[p.j]
        g0, d0 = _embed_module(p.rep, ext)
        for c in ext.field.units():
            key = (c ** (q - 1) * g0, c ** (q * q - 1) * d0)
            val = (c ** k) * v
            if key in table and table[key] != val:
                raise ValueError(
                    f"values are not weight-{k} consistent at j = {p.j} "
                    "(nontrivial automorphisms force the value 0)")
            table[key] = val
    return table


def admissible_weight_values(corr: Correspondence, k: int, ext: FieldExt,
                             rng) -> dict:
    """Random weight-k admissible values: zero wherever the representative
    has automorphisms not killed by the k-th power."""
    q = corr.place.q
    units = list(ext.field.units())
    values = {}
    for p in corr.points:
        g0, d0 = _embed_module(p.rep, ext)
        forced_zero = any(
            c ** (q - 1) * g0 == g0 and c ** (q * q - 1) * d0 == d0
            and c ** k != ext.one
            for c in units)
        values[p.j] = ext.zero if forced_zero else rng.choice(units)
    return values


def apply_u_by_table(corr: Correspondence, k: int, values: dict,
                     ext: FieldExt) -> dict:
    """Direct evaluation of U on weight-k values: look the raw quotient
    module up in the homogeneous table (no matrix, no canonical scalars).
    Serves as the independent route against operator_matrix."""
    table = homogeneous_table(corr, k, values, ext)
    out = {}
    for p in corr.ordinary:
        e = corr.edges_from(p, "V")[0]
        out[p.j] = table[_embed_module(e.target_module, ext)]
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
