"""Byte-identical output on recorded golden invocations.

`perfbench/goldens.json` maps each benchmark invocation (its argv joined
shell-style) to the sha256 of its stdout.  Every recorded invocation of
the commands below runs here in-process through `cli.main`, in a fresh
working directory holding the files the benchmark writes for it (tower
descriptions, an empty cache), and must exit 0 and reproduce its digest
exactly.

The default battery, `suite` at the standard places, must reproduce its
recorded digest in-process, after the tests before it have filled every
per-process cache, and again in a fresh process under `python -O`.
`SUITE_DIGESTS` pins the identity battery away from the standard places,
which the benchmark does not run.  One of those runs is repeated in
fresh processes under different hash seeds: output must not depend on
set or dict order of hashed values.  The run whose projectors stabilize
late goes to a fresh process only, under its timeout.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import drinfeld
from drinfeld.cli import main as cli_main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import CACHE_LOOKUP, all_invocations  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "goldens.json").read_text())["digests"]
COMMANDS = ("carlitz profile", "carlitz trace", "serre-tate check",
            "iwasawa specialize", "iwasawa filtration", "projector run",
            "hecke graph", "hecke matrix")
KEYS = [k for k in DIGESTS if " ".join(shlex.split(k)[:2]) in COMMANDS]
FILES = {inv.key: inv.files for inv in all_invocations()}


def test_golden_keys_cover_every_command():
    assert {" ".join(shlex.split(k)[:2]) for k in KEYS} == set(COMMANDS)
    assert CACHE_LOOKUP.key in DIGESTS


def _digest_of_run(key, capsys):
    code = cli_main(shlex.split(key))
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("key", KEYS)
def test_golden_output(key, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for rel, text in FILES[key]:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    assert _digest_of_run(key, capsys) == DIGESTS[key]


def test_golden_cached_graph(capsys, tmp_path, monkeypatch):
    # as in each benchmark pass: the first lookup misses and writes the
    # record, the second reads it back
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert _digest_of_run(CACHE_LOOKUP.key, capsys) == DIGESTS[CACHE_LOOKUP.key]
    assert len(list((tmp_path / "cache").iterdir())) == 1


SUITE_DIGESTS = {
    "suite --m 3":
        "61da500e504cbf63a06d1383419f9ee357a9d1b87409e94400814de6e03b43e7",
    "suite --q 4 --varpi T":
        "1df4aedc8c14dda618f45d688580eb0a6b6a00694de6108b72a7a51fb1c97f45",
    "suite --q 3 --varpi T^2+1":
        "727915c437bedff0498cc2c96b801a429d2b39f1970030f0981f243c8f5ea486",
    "suite --q 2 --varpi T^3+T+1":
        "1b7d1afe6c5de8ee152c2e2c0a0961d09f8c25db3e2a7afb3cfe9a7ae05cf2ee",
}
# projectors here stabilize at factorial step 73; a fresh process's
# timeout turns a runaway iteration into a failure
LATE_STABILIZING = "suite --q 2 --varpi T^3+T+1"


@pytest.mark.parametrize("key", [k for k in SUITE_DIGESTS
                                 if k != LATE_STABILIZING])
def test_suite_beyond_the_standard_places(key, capsys):
    assert _digest_of_run(key, capsys) == SUITE_DIGESTS[key]


def _digest_of_fresh_process(key, *flags, **env):
    """The stdout digest of `python <flags> -m drinfeld <key>` in a new
    interpreter, which must exit 0."""
    src = str(Path(drinfeld.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, *flags, "-m", "drinfeld",
                           *shlex.split(key)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


def test_suite_with_late_stabilizing_projectors():
    digest = _digest_of_fresh_process(LATE_STABILIZING)
    assert digest == SUITE_DIGESTS[LATE_STABILIZING]


def test_suite_output_does_not_depend_on_the_hash_seed():
    key = "suite --q 4 --varpi T"
    digests = [_digest_of_fresh_process(key, PYTHONHASHSEED=seed)
               for seed in ("0", "12345")]
    assert digests == [SUITE_DIGESTS[key]] * 2


def test_default_suite_with_warm_caches(capsys):
    assert _digest_of_run("suite", capsys) == DIGESTS["suite"]


def test_default_suite_in_a_fresh_optimized_process():
    assert _digest_of_fresh_process("suite", "-O") == DIGESTS["suite"]
