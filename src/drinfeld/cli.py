"""Command-line front end: profile, deformation and graph reports, operator
matrices, weight specialization, ideal filtration, projector runs, and the
full identity suite.

`COMMANDS` is the whole command line: each command's function, help and
options.  `parse_command` reads argv against it, so a process builds no
parser for the commands it does not run and loads no `argparse`.  Options
are `--name value` or `--name=value`, in any order; a repeated option
keeps its last value, a negative integer is a value, option names are
never abbreviated, and `-h`/`--help` prints the usage generated from the
table.

All output is deterministic for a fixed configuration: canonical orderings
everywhere, sorted JSON keys, no timestamps.  Exit codes: 0 success,
1 violated identity (the report names the check) or an internal error,
2 usage error, reported on one `error:` line with nothing on stdout.

`main(argv)` returns the exit code, for tests and library callers.  The
`drinfeld` process enters through `run()`, which calls `main`, flushes
stdout and stderr and then ends the process without interpreter
finalization: module teardown, the final garbage collection and the
freeing of every memo table cost a one-shot command a few milliseconds
and change nothing it prints.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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
                        mat_dense, mat_sparse, ordinary_projector,
                        reduction_tower)
from .serretate import MAX_IDEAL_SIZE, constant_lift, lift_independence_check
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


def _bound_size(what: str, q: int, exponent: int, bound: int) -> None:
    """Reject q^exponent > bound, the size `what` of something an option
    selects: bounded on the exponent first, so no huge power is
    computed."""
    if exponent >= bound.bit_length() or q ** max(exponent, 0) > bound:
        raise UsageError(f"{what} = {q}^{exponent} exceeds the supported "
                         f"size {bound}")


def _read_place(q: int, varpi: str, n: int, name: str):
    """The place of F_q and the text varpi, once q^(d*n), the size of what
    n (named `name`) selects there, is at most MAX_FIELD_SIZE: bounded on
    the parsed degree d before make_place's factor search.  n < 1 is left
    to the ring's own check."""
    varpi = parse_apoly(field_of_order(q), varpi)
    _bound_size(f"q^(d*{name})", q, varpi.degree * n, MAX_FIELD_SIZE)
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
    N = _nilpotency(args)
    # lifts are perturbed by the elements of the maximal ideal m of
    # F_(q^(dm))[eps]/(eps^N), drawn by index
    _bound_size("|m| = q^(d*m*(nilpotency-1))", args.q,
                place.d * args.m * (N - 1), MAX_IDEAL_SIZE)
    ext = ext_field(place, args.m)
    g = parse_fq(ext.field, args.g)
    delta = parse_fq(ext.field, args.delta)
    E0 = _read(DrinfeldModule, ext, g, delta)
    if not E0.is_ordinary():
        print("error: base module is supersingular", file=sys.stderr)
        return 2
    R = ArtinRing(place, args.m, N)
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


def _tower_matrix(obj, ring, where: str = "tower"):
    """obj["matrix"] from a tower file, a list of rows of strings, as a
    row-sparse matrix over the ring."""
    rows = _tower_key(obj, "matrix", list, where)
    if not all(isinstance(row, list) and all(isinstance(e, str) for e in row)
               for row in rows):
        raise UsageError(f"{where} 'matrix' must be a list of rows of strings")
    field = ring.place.field
    return mat_sparse([[ring.from_apoly(parse_apoly(field, e)) for e in row]
                       for row in rows])


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
        mats = [_tower_matrix(l, ring, "tower level")
                for ring, l in zip(rings, levels)]
        tower = TowerModule(rings, len(mats[0]), [r.reduce for r in rings[:-1]])
        op = TowerOperator(tower, mats)
        precisions = [r.n for r in rings]
    else:
        depth = _tower_key(spec_data, "depth", int)
        place = _read_place(q, varpi, depth, "depth")
        ring = local_ring(place, depth)
        op = reduction_tower(place, _tower_matrix(spec_data, ring), depth)
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
        "projector": [[[str(ring.to_apoly(x)) for x in row]
                       for row in mat_dense(mat, ring.zero)]
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


# -- the command table ----------------------------------------------------------

DESCRIPTION = ("desk-scale computer algebra for rank-2 modules over F_q[T]: "
               "correspondences, deformations, weight families, ordinary "
               "projectors")
# an option's default when it must be given
REQUIRED = object()


def _place_options(m_default: int) -> tuple:
    return (("q", int, REQUIRED, "base field size"),
            ("varpi", str, REQUIRED,
             "monic irreducible, e.g. 'T' or 'T^2+T+1'"),
            ("m", int, m_default, "extension degree over the residue field"))


# (command words) -> (function, help, options); an option is (name, kind,
# default, help) for `--name`, where kind is int, str, a tuple of the
# accepted values, or bool for a flag that takes no value
COMMANDS = {
    ("carlitz", "profile"): (
        cmd_carlitz_profile,
        "coefficient profile of the action polynomial at varpi",
        _place_options(1)),
    ("carlitz", "trace"): (
        cmd_carlitz_trace,
        "trace of the pullback X -> [varpi](X) on a truncated ring",
        _place_options(1) + (("nilpotency", int, 2, ""),
                             ("truncation", int, None, ""))),
    ("serre-tate", "check"): (
        cmd_serre_tate, "deformation coordinate checks",
        _place_options(2) + (("nilpotency", int, 2, ""), ("g", str, "1", ""),
                             ("delta", str, "1", ""))),
    ("hecke", "graph"): (
        cmd_hecke_graph, "the correspondence on moduli points",
        _place_options(1) + (("dot", bool, False, "print DOT, not JSON"),
                             ("cache", str, None,
                              f"cache directory (or ${CACHE_ENV})"))),
    ("hecke", "matrix"): (
        cmd_hecke_matrix, "the matrix of the operator F, U or T in weight k",
        _place_options(1) + (("k", int, REQUIRED, "weight"),
                             ("op", ("F", "U", "T"), REQUIRED, ""))),
    ("iwasawa", "specialize"): (
        cmd_iwasawa_specialize,
        "specialization of a group-like mass in the truncated measure algebra",
        _place_options(2) + (("k", int, REQUIRED, ""),
                             ("u", str, "T+1", "unit whose group-like mass "
                                               "is specialized"))),
    ("iwasawa", "filtration"): (
        cmd_iwasawa_filtration, "a step of the ideal filtration",
        (("gens", int, REQUIRED,
          f"number of wild generators, at most {MAX_WILD_GENERATORS}"),
         ("r", int, REQUIRED, "chain index"))),
    ("projector", "run"): (
        cmd_projector_run, "the ordinary projector on a tower",
        (("tower", str, REQUIRED,
          "tower description file (see docs/formats.md)"),)),
    ("suite",): (
        cmd_suite, "run the whole identity battery",
        (("q", int, None, "with --varpi, the one place to run at"),
         ("varpi", str, None, "with --q; default: the two standard places"),
         ("m", int, 2, "extension degree over the residue field"))),
}


def _is_value(token: str) -> bool:
    """Whether a token can be an option's value: anything but an option,
    and a negative integer is not an option."""
    return not token.startswith("-") or token[1:].isdigit()


def _convert(name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"--{name}: invalid integer {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        raise UsageError(f"--{name}: {text!r} is not one of "
                         f"{', '.join(kind)}")
    return text


def _help_text(words: tuple) -> str:
    """The usage of the command `words`, or of every command that starts
    with them."""
    if words not in COMMANDS:
        return "\n".join(
            [f"usage: {' '.join(('drinfeld',) + words)} COMMAND "
             "[--name value]...", "", DESCRIPTION, "", "options are --name "
             "value or --name=value, in any order; the last of a repeated "
             "option counts", "", "commands:"]
            + ["  " + " ".join(key).ljust(22) + about
               for key, (_, about, _) in COMMANDS.items()
               if key[:len(words)] == words])
    _, about, options = COMMANDS[words]
    lines = [f"usage: drinfeld {' '.join(words)} [--name value]...", "",
             about, "", "options:"]
    for name, kind, default, text in options:
        if kind is bool:
            arg = ""
        elif isinstance(kind, tuple):
            arg = " {" + ",".join(kind) + "}"
        else:
            arg = " " + kind.__name__.upper()
        if default is REQUIRED:
            text = "; ".join(filter(None, (text, "required")))
        elif default not in (None, False):
            text = "; ".join(filter(None, (text, f"default {default}")))
        lines.append(f"  --{name}{arg}".ljust(24) + text)
    return "\n".join(line.rstrip() for line in lines)


def _show_help(args) -> int:
    print(args.text)
    return 0


def parse_command(argv) -> SimpleNamespace:
    """The namespace the command `argv` runs with: `fn`, its function, and
    one attribute per option of the command, its default where not given.
    `-h`/`--help` in place of a command word or an option gives the `fn`
    that prints the usage.  Anything else the table does not accept raises
    UsageError."""
    words, rest = (), list(argv)
    while words not in COMMANDS:
        word = rest.pop(0) if rest else None
        if word in ("-h", "--help"):
            return SimpleNamespace(fn=_show_help, text=_help_text(words))
        choices = sorted({key[len(words)] for key in COMMANDS
                          if key[:len(words)] == words})
        if word not in choices:
            said = ("missing command" if word is None
                    else f"unknown command {word!r}")
            raise UsageError(f"{said} after {' '.join(('drinfeld',) + words)!r}"
                             f"; expected one of {', '.join(choices)}")
        words += (word,)
    fn, _, options = COMMANDS[words]
    kinds = {name: kind for name, kind, _, _ in options}
    values = {}
    while rest:
        token = rest.pop(0)
        if token in ("-h", "--help"):
            return SimpleNamespace(fn=_show_help, text=_help_text(words))
        name, eq, text = token[2:].partition("=")
        if not token.startswith("--") or name not in kinds:
            raise UsageError(f"{' '.join(words)}: unrecognized argument "
                             f"{token!r}")
        if kinds[name] is bool:
            if eq:
                raise UsageError(f"--{name} takes no value")
            values[name] = True
            continue
        if not eq:
            if not rest or not _is_value(rest[0]):
                raise UsageError(f"--{name} needs a value")
            text = rest.pop(0)
        values[name] = _convert(name, kinds[name], text)
    missing = [f"--{name}" for name, _, default, _ in options
               if default is REQUIRED and name not in values]
    if missing:
        raise UsageError(f"{' '.join(words)}: missing required "
                         f"{', '.join(missing)}")
    return SimpleNamespace(fn=fn, **{name: values.get(name, default)
                                     for name, _, default, _ in options})


def main(argv=None) -> int:
    """Run the command `argv` (default: the process arguments) and return
    its exit code."""
    try:
        args = parse_command(sys.argv[1:] if argv is None else argv)
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
