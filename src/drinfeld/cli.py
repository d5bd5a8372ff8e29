"""Command-line front end: profile, deformation and graph reports, operator
matrices, weight specialization, ideal filtration, projector runs, and the
full identity suite.

All output is deterministic for a fixed configuration: canonical orderings
everywhere, sorted JSON keys, no timestamps.  Exit codes: 0 success,
1 violated identity (the report names the check) or an internal error,
2 usage error.

`main(argv)` returns the exit code, for tests and library callers.  The
`drinfeld` process enters through `run()`, which calls `main`, flushes
stdout and stderr and then ends the process without interpreter
finalization: module teardown, the final garbage collection and the
freeing of every memo table cost a one-shot command a few milliseconds
and change nothing it prints.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cache as cachemod
from .basearith import (MAX_FIELD_SIZE, ArtinRing, ext_field,
                        field_of_order, local_ring, make_place)
from .carlitz import TruncSeriesRing, carlitz_coefficient_profile, \
    trace_of_carlitz_pullback
from .checks import standard_places, suite_checks
from .hecke import atkin_lehner, build_correspondence, operator_matrix
from .iwasawa import (filtration, iota_eval, iwasawa_level,
                      maximal_ideal_kills_quotient, monomial_str,
                      quotient_basis, specialize)
from .modules import DrinfeldModule
from .projector import (TowerModule, TowerOperator, local_finiteness_report,
                        ordinary_projector, reduction_tower)
from .serretate import constant_lift, lift_independence_check
from .textenc import ParseError, parse_apoly, parse_fq

CACHE_ENV = "DRINFELD_CACHE_DIR"
# the chain's generator lists grow combinatorially with the number of wild
# generators: at the top index, 6 take about 0.9 s and 7 about 12 s
MAX_WILD_GENERATORS = 6


class UsageError(ValueError):
    pass


def _read(build, *args):
    """build(*args) on what a command reads from its arguments or a tower
    file: a ValueError there rejects the input, so it is a usage error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read_place(q: int, varpi: str, n: int, name: str):
    """The place of F_q and the text varpi, once q^(d*n), the size of what
    n (named `name`) selects there, is at most MAX_FIELD_SIZE: bounded on
    the parsed degree d before make_place's factor search, and on the
    exponent first, so no huge power is computed.  n < 1 is left to the
    ring's own check."""
    varpi = parse_apoly(field_of_order(q), varpi)
    exponent = varpi.degree * n
    if (exponent >= MAX_FIELD_SIZE.bit_length()
            or q ** max(exponent, 0) > MAX_FIELD_SIZE):
        raise UsageError(f"q^(d*{name}) = {q}^{exponent} exceeds the "
                         f"supported size {MAX_FIELD_SIZE}")
    return make_place(varpi)


def _place(args):
    """The place of --q/--varpi, validated together with --m before any
    work starts."""
    if args.q < 2:
        raise UsageError("q must be a prime power >= 2")
    if args.m < 1:
        raise UsageError("extension degree m must be >= 1")
    return _read(_read_place, args.q, args.varpi, args.m, "m")


def _nilpotency(args) -> int:
    if args.nilpotency < 2:
        raise UsageError("nilpotency must be >= 2")
    return args.nilpotency


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


# -- subcommands --------------------------------------------------------------

def cmd_carlitz_profile(args) -> int:
    place = _place(args)
    prof = carlitz_coefficient_profile(place)
    _emit({
        "format": 1,
        "check": "carlitz-linear-coefficient",
        "q": args.q,
        "varpi": str(place.varpi),
        "polynomial": str(prof.poly),
        "linear": str(prof.linear),
        "leading": str(prof.leading),
        "middle": [str(c) for c in prof.middle],
        "middle_mod_varpi": [str(c) for c in prof.middle_reductions],
        "ok": prof.ok,
    })
    return 0 if prof.ok else 1


def cmd_serre_tate(args) -> int:
    place = _place(args)
    ext = ext_field(place, args.m)
    g = parse_fq(ext.field, args.g)
    delta = parse_fq(ext.field, args.delta)
    E0 = _read(DrinfeldModule, ext, g, delta)
    if not E0.is_ordinary():
        print("error: base module is supersingular", file=sys.stderr)
        return 2
    R = ArtinRing(place, args.m, _nilpotency(args))
    datum = constant_lift(E0, R, args.nilpotency - 1)
    rep = lift_independence_check(datum)
    _emit({
        "format": 1,
        "check": "deformation-lift-independence",
        "q": args.q, "varpi": str(place.varpi), "m": args.m,
        "nilpotency": args.nilpotency,
        "torsion_points": rep.torsion_count,
        "perturbations": rep.perturbations_checked,
        "exhaustive": rep.exhaustive,
        "values": {str(k): str(v) for k, v in
                   sorted(rep.values.items(), key=lambda kv: kv[0].log)},
        "dual_trivialization": "distinguished generator of the truncated "
                               "rank-1 torsion (recorded, not canonical)",
        "frobenius_kernel_trivial": rep.frobenius_kernel_trivial,
        "ok": rep.ok,
    })
    return 0 if rep.ok else 1


def _graph_payload(args, place) -> dict:
    corr = build_correspondence(place, args.m)
    atkin_lehner(corr)
    return {
        "format": 1,
        "q": args.q, "varpi": str(place.varpi), "m": args.m,
        "nodes": [p.as_record() for p in corr.points],
        "edges": [e.as_record() for e in corr.edges],
    }


def cmd_hecke_graph(args) -> int:
    place = _place(args)
    config_key = {"q": args.q, "varpi": str(place.varpi), "m": args.m}
    cache_dir = args.cache or os.environ.get(CACHE_ENV)
    path = cache_dir and cachemod.cache_path(cache_dir, "hecke-graph", config_key)
    payload = None
    if path and os.path.exists(path):
        try:
            payload = cachemod.load_record(path, config_key)
        except (cachemod.CacheError, ValueError) as exc:
            # a rejected record is a miss: recompute and replace it
            print(f"note: ignoring cache record {path}: {exc}", file=sys.stderr)
    if payload is None:
        payload = _graph_payload(args, place)
        if path:
            cachemod.save_record(path, config_key, payload)
    if args.dot:
        print(_as_dot(payload))
    else:
        _emit(payload)
    return 0


def _as_dot(payload: dict) -> str:
    lines = ["digraph hecke {"]
    for node in payload["nodes"]:
        shape = "ellipse" if node["ordinary"] else "box"
        lines.append(f'  "{node["j"]}" [shape={shape}];')
    for e in payload["edges"]:
        style = "solid" if e["kind"] == "F" else "dashed"
        lines.append(f'  "{e["src"]}" -> "{e["dst"]}" '
                     f'[style={style}, label="{e["kind"]}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_hecke_matrix(args) -> int:
    place = _place(args)
    corr = build_correspondence(place, args.m)
    M = operator_matrix(corr, args.k, args.op)
    _emit({"format": 1, "q": args.q, "varpi": str(place.varpi), "m": args.m,
           **M.as_record()})
    return 0


def cmd_iwasawa_specialize(args) -> int:
    place = _place(args)
    lv = iwasawa_level(place, args.m)
    u_val = lv.ring.from_apoly(parse_apoly(place.field, args.u))
    if not u_val.is_unit():
        print(f"error: {args.u} is not a unit at level {args.m}",
              file=sys.stderr)
        return 2
    x = lv.dirac(u_val)
    spec = specialize(x, args.k)
    other = iota_eval(x, args.k)
    _emit({
        "format": 1,
        "q": args.q, "varpi": str(place.varpi), "level": args.m,
        "u": str(lv.ring.to_apoly(u_val)), "k": args.k,
        "element": x.as_record(),
        "specialize": str(lv.ring.to_apoly(spec)),
        "iota_eval": str(lv.ring.to_apoly(other)),
        "routes_agree": spec == other,
    })
    return 0 if spec == other else 1


def cmd_iwasawa_filtration(args) -> int:
    if args.gens < 1:
        raise UsageError("need at least one wild generator")
    if args.gens > MAX_WILD_GENERATORS:
        raise UsageError(f"--gens {args.gens} exceeds the supported "
                         f"{MAX_WILD_GENERATORS} wild generators")
    I, J = (_read(filtration, args.gens, r) for r in (args.r, args.r + 1))
    basis = quotient_basis(I, J)
    killed = maximal_ideal_kills_quotient(I, J)
    _emit({
        "format": 1,
        "generators": args.gens, "r": args.r,
        "ideal": sorted(monomial_str(g) for g in I.gens),
        "next_ideal": sorted(monomial_str(g) for g in J.gens),
        "quotient_basis": sorted(monomial_str(b) for b in basis),
        "quotient_dimension": len(basis),
        "killed_by_maximal_ideal": killed,
    })
    return 0 if killed else 1


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list"}


def _tower_key(obj, key: str, kind: type, where: str = "tower"):
    """obj[key] from a tower file, of JSON type `kind`; a missing key or a
    value of another type is a usage error."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be a JSON object")
    if key not in obj:
        raise UsageError(f"{where} has no {key!r} key")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise UsageError(f"{where} {key!r} must be {_JSON_TYPES[kind]}")
    return value


def _tower_matrix(obj, where: str = "tower"):
    """obj["matrix"] from a tower file: a list of rows of strings."""
    rows = _tower_key(obj, "matrix", list, where)
    if not all(isinstance(row, list) and all(isinstance(e, str) for e in row)
               for row in rows):
        raise UsageError(f"{where} 'matrix' must be a list of rows of strings")
    return rows


def _load_tower(path: str):
    """(the tower file's JSON, the operator it describes, the precisions of
    its levels).  A file that cannot be opened, and a depth or precision
    whose ring would exceed MAX_FIELD_SIZE, are usage errors."""
    try:
        with open(path) as fh:
            spec_data = json.load(fh)
    except OSError as exc:
        raise UsageError(str(exc)) from None
    if _tower_key(spec_data, "format", int) != 1:
        raise UsageError("unsupported tower format")
    q = _tower_key(spec_data, "q", int)
    varpi = _tower_key(spec_data, "varpi", str)
    if "levels" in spec_data:
        # explicit per-level matrices; transitions are the canonical
        # reductions and level compatibility is validated
        levels = sorted(_tower_key(spec_data, "levels", list),
                        key=lambda l: _tower_key(l, "precision", int,
                                                 "tower level"))
        if not levels:
            raise UsageError("tower has no levels")
        place = _read_place(q, varpi, levels[-1]["precision"], "precision")
        rings = [local_ring(place, l["precision"]) for l in levels]
        mats = [[[ring.from_apoly(parse_apoly(place.field, e)) for e in row]
                 for row in _tower_matrix(l, "tower level")]
                for ring, l in zip(rings, levels)]
        tower = TowerModule(rings, len(mats[0]), [r.reduce for r in rings[:-1]])
        op = TowerOperator(tower, mats)
        precisions = [r.n for r in rings]
    else:
        depth = _tower_key(spec_data, "depth", int)
        place = _read_place(q, varpi, depth, "depth")
        ring = local_ring(place, depth)
        rows = [[ring.from_apoly(parse_apoly(place.field, e)) for e in row]
                for row in _tower_matrix(spec_data)]
        op = reduction_tower(place, rows, depth)
        precisions = list(range(1, depth + 1))
    return spec_data, op, precisions


def cmd_projector_run(args) -> int:
    spec_data, op, precisions = _read(_load_tower, args.tower)
    rep = ordinary_projector(op)
    payload = {
        "format": 1,
        "q": spec_data["q"], "varpi": spec_data["varpi"],
        "precisions": precisions,
        "stabilized_steps": rep.steps,
        "projector": [[[str(ring.to_apoly(x)) for x in row] for row in mat]
                      for ring, mat in zip(op.tower.rings,
                                           rep.projector.matrices)],
        "local_finiteness": local_finiteness_report(op),
        "ok": rep.ok,
    }
    _emit(payload)
    return 0 if rep.ok else 1


def cmd_suite(args) -> int:
    if args.q is None:
        if args.varpi is not None:
            raise UsageError("--q is required when --varpi is given")
        if args.m < 1:
            raise UsageError("extension degree m must be >= 1")
        configs = [(pl, args.m) for pl in standard_places()]
    else:
        if args.varpi is None:
            raise UsageError("--varpi is required when --q is given")
        configs = [(_place(args), args.m)]
    all_ok = True
    lines = []
    for place, m in configs:
        lines.append(f"== suite at {place}, m={m}")
        for result in suite_checks(place, m):
            lines.append(result.line())
            all_ok = all_ok and result.passed
    for line in lines:
        print(line)
    print("== result:", "pass" if all_ok else "FAIL")
    return 0 if all_ok else 1


def cmd_carlitz_trace(args) -> int:
    place = _place(args)
    qd = place.q ** place.d
    N = qd * qd + 1 if args.truncation is None else args.truncation
    if N < qd * qd:
        raise UsageError(f"truncation must be >= q^(2d) = {qd * qd}")
    R = ArtinRing(place, 1, _nilpotency(args))
    rep = trace_of_carlitz_pullback(place, TruncSeriesRing(R, N))
    _emit({
        "format": 1,
        "check": "pullback-trace-divisibility",
        "q": args.q, "varpi": str(place.varpi),
        "truncation": N, "nilpotency": args.nilpotency,
        "traces": [str(t) for t in rep.traces],
        "quotients_by_varpi": [str(t) for t in rep.quotients],
        "generates_unit_ideal": rep.generates_unit_ideal,
        "ok": rep.ok,
    })
    return 0 if rep.ok else 1


# -- argument wiring -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="drinfeld",
        description="desk-scale computer algebra for rank-2 modules over "
                    "F_q[T]: correspondences, deformations, weight families, "
                    "ordinary projectors")
    sub = top.add_subparsers(dest="command", required=True)

    def add_place_args(p, m_default=1):
        p.add_argument("--q", type=int, required=True, help="base field size")
        p.add_argument("--varpi", type=str, required=True,
                       help="monic irreducible, e.g. 'T' or 'T^2+T+1'")
        p.add_argument("--m", type=int, default=m_default,
                       help="extension degree over the residue field")

    carlitz = sub.add_parser("carlitz", help="rank-1 action computations")
    csub = carlitz.add_subparsers(dest="subcommand", required=True)
    prof = csub.add_parser("profile", help="coefficient profile of the "
                                           "action polynomial at varpi")
    add_place_args(prof)
    prof.set_defaults(fn=cmd_carlitz_profile)
    trace = csub.add_parser("trace", help="trace of the pullback X -> "
                                          "[varpi](X) on a truncated ring")
    add_place_args(trace)
    trace.add_argument("--nilpotency", type=int, default=2)
    trace.add_argument("--truncation", type=int, default=None)
    trace.set_defaults(fn=cmd_carlitz_trace)

    st = sub.add_parser("serre-tate", help="deformation coordinate checks")
    ssub = st.add_subparsers(dest="subcommand", required=True)
    stc = ssub.add_parser("check")
    add_place_args(stc, m_default=2)
    stc.add_argument("--nilpotency", type=int, default=2)
    stc.add_argument("--g", type=str, default="1")
    stc.add_argument("--delta", type=str, default="1")
    stc.set_defaults(fn=cmd_serre_tate)

    hecke = sub.add_parser("hecke", help="the correspondence on moduli points")
    hsub = hecke.add_subparsers(dest="subcommand", required=True)
    graph = hsub.add_parser("graph")
    add_place_args(graph)
    graph.add_argument("--dot", action="store_true", default=False)
    graph.add_argument("--cache", type=str, default=None,
                       help=f"cache directory (or ${CACHE_ENV})")
    graph.set_defaults(fn=cmd_hecke_graph)
    matrix = hsub.add_parser("matrix")
    add_place_args(matrix)
    matrix.add_argument("--k", type=int, required=True, help="weight")
    matrix.add_argument("--op", type=str, choices=("F", "U", "T"),
                        required=True)
    matrix.set_defaults(fn=cmd_hecke_matrix)

    iw = sub.add_parser("iwasawa", help="truncated measure algebra")
    isub = iw.add_subparsers(dest="subcommand", required=True)
    spec = isub.add_parser("specialize")
    add_place_args(spec, m_default=2)
    spec.add_argument("--k", type=int, required=True)
    spec.add_argument("--u", type=str, default="T+1",
                      help="unit whose group-like mass is specialized")
    spec.set_defaults(fn=cmd_iwasawa_specialize)
    filt = isub.add_parser("filtration")
    filt.add_argument("--gens", type=int, required=True,
                      help="number of wild generators, at most "
                           f"{MAX_WILD_GENERATORS}")
    filt.add_argument("--r", type=int, required=True, help="chain index")
    filt.set_defaults(fn=cmd_iwasawa_filtration)

    proj = sub.add_parser("projector", help="ordinary projectors on towers")
    psub = proj.add_subparsers(dest="subcommand", required=True)
    run = psub.add_parser("run")
    run.add_argument("--tower", type=str, required=True,
                     help="tower description file (see docs/formats.md)")
    run.set_defaults(fn=cmd_projector_run)

    st_suite = sub.add_parser("suite", help="run the whole identity battery")
    st_suite.add_argument("--q", type=int, default=None)
    st_suite.add_argument("--varpi", type=str, default=None)
    st_suite.add_argument("--m", type=int, default=2)
    st_suite.set_defaults(fn=cmd_suite)

    return top


def main(argv=None) -> int:
    """Run the command `argv` (default: the process arguments) and return
    its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"identity violated: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the program, not of the input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run():
    """The process entry of `python -m drinfeld` and of the installed
    `drinfeld` command: `main()` on the process arguments, then flush
    stdout and stderr and end the process with `os._exit`, skipping
    interpreter finalization.  Does not return.

    This relies on every file the command opened for writing being closed
    before `main` returns, so that the two standard streams are the only
    buffers left to flush: the cache writes its record through `mkstemp`
    and `os.replace` inside a `with` block.  A flush that fails because a
    reader closed the pipe exits 1 with one `error:` line, as `main` does
    when the pipe breaks mid-command."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)
