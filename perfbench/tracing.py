"""Spans recorded from outside the library, and the per-layer metrics
derived from them.

A `Tracer` rebinds chosen public functions of the `drinfeld` package to
timing wrappers.  Each call records one span: its name, start, end and
parent span, plus an optional tag (a short string) or value (a number)
read from the call's arguments and result.  Spans stay in memory in flat
arrays and are written to one file when the traced process exits; the
benchmark reads the files back and aggregates them per pass.

Only the standard library is used: `time.perf_counter` for the clock,
`array` for storage.
"""

from __future__ import annotations

import array
import functools
import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

NO_PARENT = -1
NO_TAG = -1


# -- what is traced -------------------------------------------------------------

def _place_label(place) -> str:
    """`q3-T` for (q=3, T), `q2-T2T1` for (q=2, T^2+T+1)."""
    varpi = str(place.varpi).replace("^", "").replace("+", "").replace("*", "")
    return f"q{place.q}-{varpi}"


def _found(_args, result) -> float:
    return 0.0 if result is None else 1.0


# (module, function, observe).  `observe(args, result)` returns a tag
# (str) or a value (float) stored on the span, or None.
TARGETS = [
    ("projector", "mat_mul", None),
    ("projector", "ordinary_projector",
     lambda args, rep: float(sum(rep.steps))),
    ("projector", "control_check", None),
    ("projector", "factorial_powers_vanish", None),
    ("iwasawa", "specialize", None),
    ("iwasawa", "iota_eval", None),
    ("iwasawa", "duality_twist", None),
    ("iwasawa", "determining_weights", None),
    ("iwasawa", "filtration", None),
    ("checks", "suite_checks", lambda args, res: _place_label(args[0])),
    ("skew", "stable_right_divisors", lambda args, res: float(len(res))),
    ("skew", "is_stable_divisor", None),
    ("skew", "right_divide", None),
    ("modules", "stable_order_qd_subgroups", None),
    ("hecke", "enumerate_moduli", None),
    ("hecke", "build_correspondence", None),
    ("hecke", "operator_matrix", None),
    ("hecke", "atkin_lehner", None),
    ("basearith", "make_place", None),
    ("basearith", "finite_field", None),
    ("basearith", "ext_field", None),
    ("basearith", "local_ring", None),
    ("cli", "main", None),
    ("textenc", "parse_apoly", None),
    ("carlitz", "carlitz_coefficient_profile", None),
    ("carlitz", "trace_of_carlitz_pullback", None),
    ("serretate", "lift_independence_check", None),
    ("cache", "load_record", _found),
    ("cache", "save_record", None),
]

# every `checks.check_*` is traced too; its span carries the check id
CHECK_PREFIX = "check_"

CHECK_IDS = [
    "carlitz-linear-coefficient", "fv-factorization", "torsion-dichotomy",
    "pullback-trace-divisibility", "deformation-lift-independence",
    "correspondence-structure", "weight-homogeneity", "u-ordinarity",
    "hecke-support", "iwasawa-filtration", "iwasawa-specialization",
    "iwasawa-determining-weights", "duality-weight-swap",
    "projector-worked-example", "projector-hecke-towers",
    "projector-random-towers", "projector-control",
]
CHECK_PLACES = ["q3-T", "q2-T2T1"]

SELF_TIMED = [
    "projector.mat_mul", "projector.ordinary_projector",
    "projector.control_check", "projector.factorial_powers_vanish",
    "iwasawa.specialize", "iwasawa.iota_eval", "iwasawa.duality_twist",
    "iwasawa.determining_weights", "iwasawa.filtration",
    "skew.stable_right_divisors", "skew.right_divide",
    "modules.stable_order_qd_subgroups",
    "hecke.enumerate_moduli", "hecke.build_correspondence",
    "hecke.operator_matrix", "hecke.atkin_lehner",
    "basearith.make_place", "basearith.finite_field",
    "basearith.ext_field", "basearith.local_ring",
    "cli.main",
    "carlitz.carlitz_coefficient_profile",
    "carlitz.trace_of_carlitz_pullback",
    "serretate.lift_independence_check",
    "cache.load_record", "cache.save_record",
]
COUNTED = [
    "projector.mat_mul", "skew.is_stable_divisor", "skew.right_divide",
    "modules.stable_order_qd_subgroups", "textenc.parse_apoly",
]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{n}.self_s" for n in SELF_TIMED]
    names += [f"{n}.calls" for n in COUNTED]
    names += ["projector.factorial_steps", "skew.divisor_hit_ratio",
              "cache.hit_ratio", "cli.import_s"]
    names += [f"checks.{c}.{p}.s" for p in CHECK_PLACES for c in CHECK_IDS]
    return names


# -- recording --------------------------------------------------------------------

class Tracer:
    """In-memory span store; `wrap` makes the timing wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = []
        self._tag_index: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("d")
        self.tag = array.array("i")
        self._stack = [NO_PARENT]
        self.meta: dict = {}

    def _intern_tag(self, tag: str) -> int:
        if tag not in self._tag_index:
            self._tag_index[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_index[tag]

    def wrap(self, name: str, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        values, tags, stack = self.value, self.tag, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            values.append(math.nan)
            tags.append(NO_TAG)
            ends.append(math.nan)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if observe is not None:
                seen = observe(args, result)
                if isinstance(seen, str):
                    tags[sid] = self._intern_tag(seen)
                elif seen is not None:
                    values[sid] = seen
            return result

        return traced

    def write(self, path: str) -> None:
        header = {"names": self.names, "tags": self.tags,
                  "count": len(self.start), "meta": self.meta}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.tag,
                        self.start, self.end, self.value):
                col.tofile(fh)


def rebind(tracer: Tracer, package: str, targets) -> int:
    """Replace every module-level binding of each target function, in
    every loaded module of `package`, by one tracing wrapper.  A function
    re-exported with `from .x import y` is one object under several
    names, so all of them are found by identity.  Returns the number of
    bindings replaced."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    replaced = 0
    for module_name, fn_name, observe in targets:
        original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
        wrapper = tracer.wrap(f"{module_name}.{fn_name}", original, observe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced += 1
    return replaced


def library_targets(package: str = "drinfeld") -> list:
    """TARGETS plus every `checks.check_*` function (tagged by check id)."""
    checks = sys.modules[f"{package}.checks"]
    out = list(TARGETS)
    for name in sorted(vars(checks)):
        fn = getattr(checks, name)
        if name.startswith(CHECK_PREFIX) and callable(fn) \
                and getattr(fn, "__module__", None) == checks.__name__:
            out.append(("checks", name, lambda args, res: res.check_id))
    return out


# -- reading and aggregating ----------------------------------------------------

@dataclass
class Spans:
    names: list
    tags: list
    name: list
    parent: list
    tag: list
    start: list
    end: list
    value: list
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.start)


def read_spans(path: str) -> Spans:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = []
        for code in ("i", "i", "i", "d", "d", "d"):
            col = array.array(code)
            col.fromfile(fh, n)
            cols.append(col.tolist())
    return Spans(header["names"], header["tags"], *cols, meta=header["meta"])


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus its child spans' durations.  The program
    is single-threaded, so the children of a span are disjoint and lie
    inside it: their sum is the part of the span they cover."""
    out = [e - s for s, e in zip(spans.start, spans.end)]
    for sid, par in enumerate(spans.parent):
        if par != NO_PARENT:
            out[par] -= spans.end[sid] - spans.start[sid]
    return out


@dataclass
class LayerTotals:
    """Sums over the spans of one or more processes."""
    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    value: dict = field(default_factory=dict)
    check_s: dict = field(default_factory=dict)
    import_s: list = field(default_factory=list)

    def add(self, spans: Spans) -> None:
        selfs = self_times(spans)
        label = {}
        for sid in range(len(spans)):
            name = spans.names[spans.name[sid]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[sid]
            v = spans.value[sid]
            if not math.isnan(v):
                self.value[name] = self.value.get(name, 0.0) + v
            if spans.tag[sid] != NO_TAG:
                label[sid] = spans.tags[spans.tag[sid]]
        for sid, tag in label.items():
            name = spans.names[spans.name[sid]]
            if not name.startswith("checks." + CHECK_PREFIX):
                continue
            par = spans.parent[sid]
            while par != NO_PARENT and \
                    spans.names[spans.name[par]] != "checks.suite_checks":
                par = spans.parent[par]
            if par == NO_PARENT:
                continue
            key = f"{tag}.{label.get(par, '?')}"
            self.check_s[key] = self.check_s.get(key, 0.0) + \
                spans.end[sid] - spans.start[sid]
        if "import_s" in spans.meta:
            self.import_s.append(spans.meta["import_s"])

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, every name of `per_layer_names()`."""
        out = {}
        for n in SELF_TIMED:
            out[f"{n}.self_s"] = self.self_s.get(n, 0.0)
        for n in COUNTED:
            out[f"{n}.calls"] = self.calls.get(n, 0)
        out["projector.factorial_steps"] = \
            int(self.value.get("projector.ordinary_projector", 0))
        tried = self.calls.get("skew.is_stable_divisor", 0)
        found = self.value.get("skew.stable_right_divisors", 0.0)
        out["skew.divisor_hit_ratio"] = found / tried if tried else 0.0
        hits = self.value.get("cache.load_record", 0.0)
        lookups = hits + self.calls.get("cache.save_record", 0)
        out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        out["cli.import_s"] = \
            statistics.median(self.import_s) if self.import_s else 0.0
        for p in CHECK_PLACES:
            for c in CHECK_IDS:
                out[f"checks.{c}.{p}.s"] = self.check_s.get(f"{c}.{p}", 0.0)
        return out

