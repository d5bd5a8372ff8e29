"""Byte-identical output on recorded golden invocations.

`perfbench/goldens.json` maps each benchmark invocation (its argv joined
shell-style) to the sha256 of its stdout.  Every recorded invocation of
the commands below needs no files or cache, so it runs here in-process
through `cli.main` and must exit 0 and reproduce its digest exactly.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from drinfeld.cli import main as cli_main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
DIGESTS = json.loads(GOLDENS.read_text())["digests"]
COMMANDS = ("carlitz profile", "carlitz trace", "serre-tate check",
            "iwasawa specialize", "iwasawa filtration")
KEYS = [k for k in DIGESTS if " ".join(shlex.split(k)[:2]) in COMMANDS]


def test_golden_keys_cover_every_command():
    assert {" ".join(shlex.split(k)[:2]) for k in KEYS} == set(COMMANDS)


@pytest.mark.parametrize("key", KEYS)
def test_golden_output(key, capsys):
    code = cli_main(shlex.split(key))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]
