import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld import cache, cli, projector
from drinfeld.basearith import finite_field, local_ring, make_place, poly_T
from drinfeld.cli import main
from drinfeld.hecke import enumerate_moduli
from drinfeld.skew import SkewPoly


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile_json(capsys):
    code, out, _ = run_cli(["carlitz", "profile", "--q", "3", "--varpi", "T"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["linear"] == "T" and payload["ok"]
    assert payload["format"] == 1


def test_trace_command(capsys):
    code, out, _ = run_cli(["carlitz", "trace", "--q", "3", "--varpi", "T"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["traces"] == ["0", "0", "eps"]
    assert payload["generates_unit_ideal"]


def test_graph_m1(capsys):
    code, out, _ = run_cli(["hecke", "graph", "--q", "3", "--varpi", "T",
                            "--m", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert sorted(n["j"] for n in payload["nodes"]) == ["0", "1", "2"]
    ss = [n for n in payload["nodes"] if not n["ordinary"]]
    assert len(ss) == 1 and ss[0]["j"] == "0"
    ss_edges = [e for e in payload["edges"] if e["src"] == "0"]
    assert len(ss_edges) == 1 and ss_edges[0]["u"] == "t"


def test_graph_dot(capsys):
    code, out, _ = run_cli(["hecke", "graph", "--q", "3", "--varpi", "T",
                            "--m", "1", "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph") and '"0" -> "0"' in out
    # JSON is the default; there is no --json switch
    code, _, _ = run_cli(["hecke", "graph", "--q", "3", "--varpi", "T",
                          "--m", "1", "--json"], capsys)
    assert code == 2


def test_graph_first_cubic_place(capsys):
    # d = 3: |F_64|^3 candidate kernels per point if they were enumerated
    code, out, _ = run_cli(["hecke", "graph", "--q", "2", "--varpi",
                            "T^3+T+1", "--m", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    kinds = {n["j"]: [] for n in payload["nodes"]}
    for e in payload["edges"]:
        kinds[e["src"]].append(e["kind"])
    for n in payload["nodes"]:
        assert sorted(kinds[n["j"]]) == (["F", "V"] if n["ordinary"] else ["F"])
    assert sum(n["ordinary"] for n in payload["nodes"]) == 61


def test_wrong_closed_form_kernel_is_identity_failure(capsys, monkeypatch):
    # forgetting the q^-d twist gives V/lc(V): wrong exactly where j is not
    # rational over F_3, so the first such ordinary point is named
    place = make_place(poly_T(finite_field(3)))
    ordinary, _ = enumerate_moduli(place, 2)
    j = next(p.j for p in ordinary if p.j ** 3 != p.j)
    monkeypatch.setattr(SkewPoly, "coeff_qpow", lambda self, e: self)
    code, _, err = run_cli(["hecke", "graph", "--q", "3", "--varpi", "T",
                            "--m", "2"], capsys)
    assert code == 1
    assert err.startswith("identity violated:") and f"j = {j} " in err


def test_matrix_command(capsys):
    code, out, _ = run_cli(["hecke", "matrix", "--q", "3", "--varpi", "T",
                            "--m", "2", "--k", "0", "--op", "U"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["index"]) == 8
    assert payload["norm_exponent"] == 0
    assert not payload["semilinear"]


def test_serre_tate_command(capsys):
    code, out, _ = run_cli(["serre-tate", "check", "--q", "3", "--varpi", "T",
                            "--m", "2", "--nilpotency", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["torsion_points"] == 3
    assert payload["perturbations"] == 27


def test_iwasawa_specialize_command(capsys):
    code, out, _ = run_cli(["iwasawa", "specialize", "--q", "3", "--varpi",
                            "T", "--m", "2", "--k", "2", "--u", "T+1"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["specialize"] == "2*T+1"
    assert payload["routes_agree"]


def test_iwasawa_filtration_command(capsys):
    code, out, _ = run_cli(["iwasawa", "filtration", "--gens", "3", "--r",
                            "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["killed_by_maximal_ideal"]
    assert payload["quotient_dimension"] == 6


def test_projector_run(tmp_path, capsys):
    tower = {"format": 1, "q": 3, "varpi": "T", "depth": 2,
             "matrix": [["1", "1"], ["0", "T"]]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    code, out, _ = run_cli(["projector", "run", "--tower", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["projector"][-1] == [["1", "T+1"], ["0", "0"]]


def test_malformed_varpi_is_usage_error(capsys):
    code, _, err = run_cli(["carlitz", "profile", "--q", "3", "--varpi",
                            "T^2+2"], capsys)
    assert code == 2
    assert "reducible" in err


def test_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(["carlitz", "profile", "--q", "3", "--varpi",
                            "T^"], capsys)
    assert code == 2


def test_deterministic_output(capsys):
    args = ["hecke", "graph", "--q", "3", "--varpi", "T", "--m", "2"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_cache_roundtrip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["hecke", "graph", "--q", "3", "--varpi", "T", "--m", "1",
            "--cache", cache_dir]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    files = os.listdir(cache_dir)
    assert len(files) == 1
    code, out2, _ = run_cli(args, capsys)  # second run loads from cache
    assert code == 0 and out1 == out2


def test_cache_corruption_rejected(tmp_path):
    cfg = {"q": 3, "varpi": "T", "m": 1}
    path = str(tmp_path / "rec.json")
    cache.save_record(path, cfg, {"nodes": [1, 2, 3]})
    assert cache.load_record(path, cfg) == {"nodes": [1, 2, 3]}
    with open(path) as fh:
        record = json.load(fh)
    record["body"]["nodes"].append(4)
    with open(path, "w") as fh:
        json.dump(record, fh)
    with pytest.raises(cache.CacheError, match="hash"):
        cache.load_record(path, cfg)


def test_cache_stale_format_rejected(tmp_path):
    cfg = {"q": 3}
    path = str(tmp_path / "rec.json")
    cache.save_record(path, cfg, [1])
    with open(path) as fh:
        record = json.load(fh)
    record["header"]["format"] = 0
    with open(path, "w") as fh:
        json.dump(record, fh)
    with pytest.raises(cache.CacheError, match="format"):
        cache.load_record(path, cfg)


def test_suite_small_config(capsys):
    code, out, _ = run_cli(["suite", "--q", "3", "--varpi", "T", "--m", "1"],
                           capsys)
    assert code == 0
    assert "== result: pass" in out
    assert out.count("[pass]") >= 15


def test_suite_m_at_standard_places(capsys):
    code, out, _ = run_cli(["suite", "--m", "1"], capsys)
    assert code == 0
    headers = [l for l in out.splitlines() if l.startswith("== suite at")]
    assert len(headers) == 2
    assert all(h.endswith(", m=1") for h in headers)


def test_suite_rejects_m_zero(capsys):
    code, _, err = run_cli(["suite", "--m", "0"], capsys)
    assert code == 2 and "m must be >= 1" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld", "carlitz", "profile", "--q", "2",
         "--varpi", "T^2+T+1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]


def test_projector_run_explicit_levels(tmp_path, capsys):
    tower = {"format": 1, "q": 3, "varpi": "T",
             "levels": [{"precision": 1, "matrix": [["1", "1"], ["0", "0"]]},
                        {"precision": 2, "matrix": [["1", "1"], ["0", "T"]]}]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    code, out, _ = run_cli(["projector", "run", "--tower", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["precisions"] == [1, 2]


def test_projector_run_rejects_incompatible_levels(tmp_path, capsys):
    tower = {"format": 1, "q": 3, "varpi": "T",
             "levels": [{"precision": 1, "matrix": [["1", "0"], ["0", "1"]]},
                        {"precision": 2, "matrix": [["1", "1"], ["0", "T"]]}]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    code, _, err = run_cli(["projector", "run", "--tower", str(path)], capsys)
    assert code == 2 and "commute" in err


def test_projector_run_reports_incompatible_projector(tmp_path, capsys,
                                                     monkeypatch):
    # a projector whose deeper level is replaced by the identity no longer
    # reduces to the shallower one: a failed identity (exit 1, "ok": false),
    # not a usage error
    real = projector._stabilized_factorial_power
    calls = []

    def limit(mat, ring):
        calls.append(mat)
        e, step = real(mat, ring)
        if len(calls) % 2 == 0:
            e = ring.one  # the code of the identity matrix
        return e, step

    monkeypatch.setattr(projector, "_stabilized_factorial_power", limit)
    place = make_place(poly_T(finite_field(3)))
    L2 = local_ring(place, 2)
    rep = projector.ordinary_projector(projector.reduction_tower(
        place, [[L2.one, L2.one], [L2.zero, L2.varpi]], 2))
    assert rep.compatible is False and not rep.ok
    tower = {"format": 1, "q": 3, "varpi": "T", "depth": 2,
             "matrix": [["1", "1"], ["0", "T"]]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    code, out, _ = run_cli(["projector", "run", "--tower", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["ok"] is False


def _truncate(path):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])


def _edit_record(edit):
    def apply(path):
        with open(path) as fh:
            record = json.load(fh)
        edit(record)
        with open(path, "w") as fh:
            json.dump(record, fh)
    return apply


@pytest.mark.parametrize("damage", [
    _edit_record(lambda r: r["body"]["nodes"].pop()),   # hash mismatch
    _truncate,
    _edit_record(lambda r: r["header"].update(format=0)),  # stale format
], ids=["hash-mismatch", "truncated", "stale-format"])
def test_rejected_cache_record_is_a_miss(damage, tmp_path, capsys):
    place = ["hecke", "graph", "--q", "3", "--varpi", "T", "--m", "1"]
    _, uncached, _ = run_cli(place, capsys)
    cache_dir = tmp_path / "cache"
    args = place + ["--cache", str(cache_dir)]
    run_cli(args, capsys)
    [name] = os.listdir(cache_dir)
    damage(str(cache_dir / name))
    code, out, err = run_cli(args, capsys)
    assert code == 0 and out == uncached
    assert "ignoring cache record" in err
    assert os.listdir(cache_dir) == [name]
    config = {"q": 3, "varpi": "T", "m": 1}
    assert cache.load_record(str(cache_dir / name), config) == json.loads(uncached)


def test_cache_option_only_on_graph(tmp_path, capsys):
    code, _, _ = run_cli(["carlitz", "profile", "--q", "3", "--varpi", "T",
                          "--cache", str(tmp_path)], capsys)
    assert code == 2


_TOWER = {"format": 1, "q": 3, "varpi": "T", "depth": 2,
          "matrix": [["1", "1"], ["0", "T"]]}
_LEVELS = {"format": 1, "q": 3, "varpi": "T",
           "levels": [{"precision": 1, "matrix": [["1"]]},
                      {"precision": 2, "matrix": [["T+1"]]}]}


def _without(spec, key, level=None):
    spec = json.loads(json.dumps(spec))
    del (spec if level is None else spec["levels"][level])[key]
    return spec


@pytest.mark.parametrize("spec,named", [
    ([_TOWER], "JSON object"),
    (_without(_TOWER, "format"), "'format'"),
    (_without(_TOWER, "q"), "'q'"),
    (_without(_TOWER, "varpi"), "'varpi'"),
    (_without(_TOWER, "depth"), "'depth'"),
    (_without(_TOWER, "matrix"), "'matrix'"),
    (_without(_LEVELS, "precision", level=1), "'precision'"),
    (_without(_LEVELS, "matrix", level=0), "'matrix'"),
    (dict(_LEVELS, levels=[]), "no levels"),
    (dict(_TOWER, matrix=[[1, 0], [0, 1]]), "'matrix'"),
    (dict(_LEVELS, levels=5), "'levels'"),
    (dict(_TOWER, q="3"), "'q'"),
    (dict(_LEVELS, levels=[{"precision": "1", "matrix": [["1"]]}]),
     "'precision'"),
])
def test_malformed_tower_is_usage_error(spec, named, tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(["projector", "run", "--tower", str(path)], capsys)
    assert code == 2 and named in err


@pytest.mark.parametrize("argv,named", [
    (["carlitz", "profile", "--q", "6", "--varpi", "T"], "prime power"),
    (["hecke", "graph", "--q", "3", "--varpi", "T", "--m", "11"],
     "supported size"),
    (["hecke", "graph", "--q", "3", "--varpi", "T", "--m", str(10 ** 30)],
     "supported size"),
    (["iwasawa", "filtration", "--gens", "1", "--r", "9"], "out of range"),
    (["serre-tate", "check", "--q", "3", "--varpi", "T", "--nilpotency", "1"],
     "nilpotency"),
    (["serre-tate", "check", "--q", "3", "--varpi", "T", "--delta", "0"],
     "delta"),
    (["carlitz", "trace", "--q", "3", "--varpi", "T", "--nilpotency", "1"],
     "nilpotency"),
    (["carlitz", "trace", "--q", "3", "--varpi", "T", "--truncation", "5"],
     "truncation"),
    (["carlitz", "trace", "--q", "3", "--varpi", "T", "--truncation", "0"],
     "truncation"),
])
def test_invalid_arguments_are_usage_errors(argv, named, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and named in err


@pytest.mark.parametrize("text,named", [
    ("{", "Expecting"),
    (json.dumps(dict(_TOWER, depth=0)), ">= 1"),
    (json.dumps(dict(_TOWER, q=6)), "prime power"),
    (json.dumps(dict(_LEVELS, levels=[{"precision": 0, "matrix": [["1"]]}])),
     ">= 1"),
    (json.dumps(dict(_TOWER, q=2, varpi="T^2+T+1", depth=9)), "2^18 exceeds"),
])
def test_invalid_tower_is_usage_error(text, named, tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(text)
    code, _, err = run_cli(["projector", "run", "--tower", str(path)], capsys)
    assert code == 2 and named in err


@pytest.mark.parametrize("spec,named", [
    (dict(_TOWER, depth=1000000), "3^1000000 exceeds"),
    (dict(_LEVELS, levels=[{"precision": 1, "matrix": [["1"]]},
                           {"precision": 10 ** 30, "matrix": [["1"]]}]),
     "3^1000000000000000000000000000000 exceeds"),
])
def test_oversized_tower_is_rejected_before_any_ring(spec, named, tmp_path):
    # in a fresh process with a timeout, since building such a ring would
    # run on for minutes
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld", "projector", "run", "--tower",
         str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and named in proc.stderr


_HUGE_PLACE = {"format": 1, "q": 2, "varpi": "T^39+T^4+1", "depth": 1,
               "matrix": [["1"]]}
_HUGE_ENTRY = {"format": 1, "q": 3, "varpi": "T", "depth": 1,
               "matrix": [["T^99999999"]]}


@pytest.mark.parametrize("argv,tower,named", [
    (["carlitz", "profile", "--q", "2", "--varpi", "T^39+T^4+1"], None,
     "2^39 exceeds"),
    (["projector", "run", "--tower"], _HUGE_PLACE, "2^39 exceeds"),
    (["iwasawa", "specialize", "--q", "3", "--varpi", "T", "--m", "2",
      "--k", "2", "--u", "T^99999999+1"], None, "degree 1 * 99999999"),
    (["projector", "run", "--tower"], _HUGE_ENTRY, "degree 1 * 99999999"),
    (["iwasawa", "specialize", "--q", "3", "--varpi", "T", "--m", "2",
      "--k", "2", "--u", "(T^4096)^4096"], None, "supported degree"),
    (["iwasawa", "specialize", "--q", "3", "--varpi", "T", "--m", "2",
      "--k", "2", "--u", "*".join(["(T+1)^1024"] * 64)], None,
     "product of degree 1024 + 1024"),
    (["suite", "--varpi", "T"], None, "--q is required"),
])
def test_oversized_or_incomplete_input_is_rejected_at_once(argv, tower, named,
                                                           tmp_path):
    # in a fresh process with a timeout: the oversized inputs once ran a
    # factor search or a polynomial power for minutes, and the incomplete
    # suite ran the whole default battery
    if tower is not None:
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(tower))
        argv = argv + [str(path)]
    proc = subprocess.run([sys.executable, "-m", "drinfeld"] + argv,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and named in proc.stderr
    assert proc.stdout == ""


def test_unreadable_tower_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(["projector", "run", "--tower", str(tmp_path)],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Is a directory" in err


def test_internal_value_error_exits_one_without_traceback(monkeypatch, capsys):
    def broken(place):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "carlitz_coefficient_profile", broken)
    code, out, err = run_cli(["carlitz", "profile", "--q", "3", "--varpi", "T"],
                             capsys)
    assert code == 1 and out == ""
    assert err == "error: ValueError: internal fault\n"


# -- exit codes on arbitrary input ---------------------------------------------

def _mostly(good, bad):
    """`good` seven times in eight, else `bad`: most inputs get past the
    first validation and reach the computation."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                  st.text(max_size=3))
_ENTRY = _mostly(st.sampled_from(["0", "1", "2", "T", "T+1", "2*T+1", "T^2",
                                  "T^2+T", "a"]),
                 st.text(alphabet="T0123a+*^()/- ", max_size=6))
_MATRIX = st.integers(1, 3).flatmap(lambda n: _mostly(
    st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n,
             max_size=n),
    st.lists(st.lists(_ENTRY, max_size=3), max_size=3)))


def _spoil(obj, key, junk):
    """obj with `key` dropped (junk None) or set to junk; obj itself when
    key is None."""
    obj = dict(obj)
    if key is not None:
        if junk is None:
            del obj[key]
        else:
            obj[key] = junk
    return obj


def _tower_obj(keys):
    """An object with the given keys, now and then one dropped or junk."""
    return st.builds(_spoil, st.fixed_dictionaries(keys),
                     _mostly(st.none(), st.sampled_from(list(keys))), _JUNK)


_PLACE_KEYS = {"format": _mostly(st.just(1), _JUNK),
               "q": st.sampled_from([2, 3, 4, 5]),
               "varpi": st.sampled_from(["T", "T+1", "T^2+T+1", "T^2"])}
_LEVEL = _tower_obj({"precision": st.integers(-1, 3), "matrix": _MATRIX})
_TOWER = st.one_of(
    _tower_obj(_PLACE_KEYS | {"depth": st.integers(-1, 3),
                              "matrix": _MATRIX}),
    _tower_obj(_PLACE_KEYS | {"levels": st.lists(_LEVEL, max_size=3)}))
_TOWER_TEXT = _mostly(_TOWER.map(json.dumps), st.one_of(
    _JUNK.map(json.dumps), st.text(max_size=20),
    st.sampled_from(["", "{", "[]", "1e999", "NaN", '{"format": 1'])))
# places kept small enough for every command to answer in milliseconds
_PLACE = _mostly(
    st.sampled_from([("3", "T"), ("2", "T^2+T+1"), ("3", "T^2+1"),
                     ("4", "T"), ("5", "T+1"), ("2", "T")]),
    st.tuples(st.sampled_from(["3", "4", "0", "1", "6", "-3", "x", ""]),
              st.sampled_from(["T", "T^2", "x", "", "T^", "2*T", "T+a"])))
_M = _mostly(st.sampled_from(["1", "2"]),
             st.sampled_from(["0", "-1", "x", "", "1.5"]))
_K = _mostly(st.integers(-10 ** 9, 10 ** 9).map(str),
             st.sampled_from(["x", "", "1.5", "10**9"]))


def _flag(name, values):
    """The flag with a value, mostly; else no flag or the flag alone."""
    return _mostly(values.map(lambda v: [name, v]),
                   st.sampled_from([[], [name]]))


def _argv(command, place, **flags):
    """`command`, the place's --q/--varpi when `place`, then the flags in
    any order, and now and then a stray token."""
    pieces = [_flag(f"--{name}", values) for name, values in flags.items()]
    if place:
        pieces.append(_PLACE.map(lambda qv: ["--q", qv[0], "--varpi", qv[1]]))
    extra = _mostly(st.just([]), st.sampled_from([["--help"], ["-x"],
                                                  ["--q"], ["junk"]]))
    return st.tuples(st.permutations(pieces).flatmap(lambda ps: st.tuples(
        *ps)), extra).map(
        lambda t: command + [tok for piece in t[0] for tok in piece] + t[1])


_ARGVS = st.one_of(
    _argv(["projector", "run"], False, tower=st.just("tower.json")),
    _argv(["iwasawa", "specialize"], True, m=_M, k=_K, u=_ENTRY),
    _argv(["hecke", "matrix"], True, m=_M, k=_K,
          op=_mostly(st.sampled_from(["F", "U", "T"]),
                     st.sampled_from(["V", ""]))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_ARGVS, tower=_TOWER_TEXT)
def test_exit_code_contract_on_arbitrary_input(argv, tower,
                                               tmp_path_factory):
    """Every input ends in exit 0, 1 or 2, never in an escaping exception
    (a traceback in a real process); a usage error says why on stderr and
    a failure says so on stderr or in the report."""
    path = tmp_path_factory.mktemp("tower") / "tower.json"
    path.write_bytes(tower.encode("utf-8", "surrogatepass"))
    argv = [str(path) if tok == "tower.json" else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error: " in err.getvalue()
    if code == 1:
        assert err.getvalue() or '"ok": false' in out.getvalue()
