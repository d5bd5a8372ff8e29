"""Byte-identical output on recorded golden invocations.

`perfbench/goldens.json` maps each benchmark invocation (its argv joined
shell-style) to the sha256 of its stdout.  Every recorded invocation of
the commands below runs here in-process through `cli.main`, in a fresh
working directory holding the files the benchmark writes for it (tower
descriptions, an empty cache), and must exit 0 and reproduce its digest
exactly.
"""

import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest

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
