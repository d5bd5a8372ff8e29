"""The benchmark's three workloads, as lists of `drinfeld` invocations.

Each workload makes one pass at a time from a `random.Random` seeded by
the run's `--seed`.  Every seeded parameter is drawn from a finite pool,
and `all_invocations()` lists every invocation any seed can produce, so
`goldens.json` holds a recorded stdout digest for each of them.
"""

from __future__ import annotations

import itertools
import json
import random
import shlex
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One `drinfeld ARGV` process.  `files` are (relative path, text)
    pairs written into the working directory before it runs."""

    argv: tuple
    files: tuple = ()
    expect: int = 0

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    places: tuple          # (q, varpi) pairs built by the set-up probe
    make_pass: object      # rng -> list[Invocation]
    warmup: bool           # run one untimed pass before timing
    # latency samples are invocations, or whole passes where a pass mixes
    # configurations whose times differ by 40x, so that a median over
    # its invocations falls between two of them
    per_invocation_latency: bool


# -- text of polynomials and field elements --------------------------------------

def poly_text(coeffs, var: str = "T") -> str:
    """`2*T^2+T+1` from low-to-high integer coefficients."""
    terms = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if c == 0:
            continue
        mono = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        terms.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
    return "+".join(terms) or "0"


def _not_divisible(u, varpi, p: int) -> bool:
    """u mod varpi is nonzero over F_p (varpi monic, both low-to-high)."""
    r = list(u)
    while len(r) >= len(varpi):
        c = r[-1]
        shift = len(r) - len(varpi)
        for i, v in enumerate(varpi):
            r[shift + i] = (r[shift + i] - c * v) % p
        r.pop()
    return any(r)


def _nonzero_vectors(p: int, n: int):
    return [v for v in itertools.product(range(p), repeat=n) if any(v)]


# -- suite ----------------------------------------------------------------------

STANDARD_PLACES = ((3, "T"), (2, "T^2+T+1"))


def suite_pass(rng) -> list:
    # the battery's random draws are fixed inside drinfeld.checks
    return [Invocation(("suite",))]


# -- frontier -------------------------------------------------------------------

FRONTIER_CONFIGS = ((2, "T^2+T+1", 3), (3, "T", 4), (5, "T", 2), (2, "T", 5))
FRONTIER_WEIGHTS = (-2, -1, 0, 1, 2, 3, 4, 5)


def _frontier_graph(q, varpi, m) -> Invocation:
    return Invocation(("hecke", "graph", "--q", str(q), "--varpi", varpi,
                       "--m", str(m), "--dot"))


def _frontier_matrix(q, varpi, m, k) -> Invocation:
    return Invocation(("hecke", "matrix", "--q", str(q), "--varpi", varpi,
                       "--m", str(m), "--op", "U", "--k", str(k)))


def frontier_pass(rng) -> list:
    out = []
    for q, varpi, m in FRONTIER_CONFIGS:
        out.append(_frontier_graph(q, varpi, m))
        out.append(_frontier_matrix(q, varpi, m, rng.choice(FRONTIER_WEIGHTS)))
    return out


# -- cli ------------------------------------------------------------------------

LOW_DEGREE_PLACES = ((2, "T"), (2, "T+1"), (2, "T^2+T+1"),
                     (3, "T"), (3, "T+1"), (3, "T+2"),
                     (3, "T^2+1"), (3, "T^2+T+2"), (3, "T^2+2*T+2"))
# degree-1 places at m=2: phi(varpi) = g*t + delta*t^2, so g != 0 is ordinary
SERRE_TATE_PLACES = ((3, "T"), (3, "T+2"), (2, "T"), (2, "T+1"))
# (q, varpi coefficients low-to-high, level m)
SPECIALIZE_LEVELS = ((3, (0, 1), 2), (2, (1, 1, 1), 2), (2, (0, 1), 3))
SPECIALIZE_WEIGHTS = (-2, -1, 0, 1, 2, 3, 4, 5, 6)
# generators -> largest chain index r; the command also builds I_(r+1)
FILTRATION_MAX_INDEX = {1: 2, 2: 4, 3: 8, 4: 13}
TOWER_POOL = 24
CACHE_LOOKUP = Invocation(("hecke", "graph", "--q", "2", "--varpi", "T^2+T+1",
                           "--m", "2", "--cache", "cache"))
CACHE_LOOKUPS_PER_PASS = 2
OTHERS_PER_PASS = 4


def _place_args(q, varpi):
    return ("--q", str(q), "--varpi", varpi)


def _carlitz(sub):
    return [Invocation(("carlitz", sub) + _place_args(q, v))
            for q, v in LOW_DEGREE_PLACES]


def _serre_tate():
    out = []
    for q, varpi in SERRE_TATE_PLACES:
        elems = [poly_text(c, "a") for c in _nonzero_vectors(q, 2)]
        for g, delta in itertools.product(elems, elems):
            out.append(Invocation(("serre-tate", "check") + _place_args(q, varpi)
                                  + ("--m", "2", "--g", g, "--delta", delta)))
    return out


def _specialize():
    out = []
    for q, varpi, m in SPECIALIZE_LEVELS:
        n = (len(varpi) - 1) * m
        units = [u for u in _nonzero_vectors(q, n) if _not_divisible(u, varpi, q)]
        for u, k in itertools.product(units, SPECIALIZE_WEIGHTS):
            out.append(Invocation(
                ("iwasawa", "specialize") + _place_args(q, poly_text(varpi))
                + ("--m", str(m), "--k", str(k), "--u", poly_text(u))))
    return out


def _filtration():
    return [Invocation(("iwasawa", "filtration", "--gens", str(s), "--r", str(r)))
            for s, top in FILTRATION_MAX_INDEX.items() for r in range(1, top + 1)]


def tower_spec(form: str, index: int) -> dict:
    """Tower number `index` of the pool, in the `depth` or `levels` form
    of docs/formats.md: a random 2x2 or 3x3 integral matrix at varpi = T
    over F_2, F_3 or F_5, reduced to every level."""
    rng = random.Random(f"tower-{form}-{index}")
    q = rng.choice((2, 3, 5))
    size, depth = rng.choice((2, 3)), rng.choice((2, 3))
    matrix = [[[rng.randrange(q) for _ in range(depth)] for _ in range(size)]
              for _ in range(size)]
    spec = {"format": 1, "q": q, "varpi": "T"}
    if form == "depth":
        spec["depth"] = depth
        spec["matrix"] = [[poly_text(e) for e in row] for row in matrix]
    else:
        spec["levels"] = [
            {"precision": n,
             "matrix": [[poly_text(e[:n]) for e in row] for row in matrix]}
            for n in range(1, depth + 1)]
    return spec


def _towers(form: str):
    out = []
    for i in range(TOWER_POOL):
        path = f"towers/{form}-{i:02d}.json"
        text = json.dumps(tower_spec(form, i), sort_keys=True)
        out.append(Invocation(("projector", "run", "--tower", path),
                              files=((path, text),)))
    return out


CLI_POOLS = {
    "carlitz-profile": _carlitz("profile"),
    "carlitz-trace": _carlitz("trace"),
    "serre-tate": _serre_tate(),
    "iwasawa-specialize": _specialize(),
    "iwasawa-filtration": _filtration(),
    "projector-depth": _towers("depth"),
    "projector-levels": _towers("levels"),
}


def cli_pass(rng) -> list:
    """Four seeded short invocations and two lookups of one cached graph;
    the cache directory is emptied before each pass, so the first lookup
    misses and writes, the second hits."""
    kinds = sorted(CLI_POOLS)
    out = [rng.choice(CLI_POOLS[rng.choice(kinds)])
           for _ in range(OTHERS_PER_PASS)]
    out += [CACHE_LOOKUP] * CACHE_LOOKUPS_PER_PASS
    rng.shuffle(out)
    return out


# -- the table --------------------------------------------------------------------

WORKLOADS = {
    "suite": Workload(
        "suite",
        "The paper's identity battery at both standard places, the unit a "
        "user waits on; about 75% of it is projector.mat_mul, most of the "
        "rest iwasawa.",
        STANDARD_PLACES, suite_pass, warmup=False,
        per_invocation_latency=False),
    "frontier": Workload(
        "frontier",
        "The scale frontier of the V*F correspondence up to (2, T^2+T+1, "
        "m=3), where divisor enumeration in skew, modules and hecke dominates "
        "and no projector runs.",
        tuple((q, v) for q, v, _ in FRONTIER_CONFIGS), frontier_pass,
        warmup=False, per_invocation_latency=False),
    "cli": Workload(
        "cli",
        "Short seeded commands dominated by start-up, with one cache miss and "
        "one hit per pass, so work moved into import or set-up shows here.",
        LOW_DEGREE_PLACES + ((5, "T"),), cli_pass, warmup=True,
        per_invocation_latency=True),
}


def all_invocations() -> list:
    """Every invocation any seed can produce, each once."""
    out = suite_pass(None) + [CACHE_LOOKUP]
    for q, varpi, m in FRONTIER_CONFIGS:
        out.append(_frontier_graph(q, varpi, m))
        out += [_frontier_matrix(q, varpi, m, k) for k in FRONTIER_WEIGHTS]
    for pool in CLI_POOLS.values():
        out += pool
    return out
