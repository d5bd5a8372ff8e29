"""Start-up guard: importing the command line loads every library module
the benchmark traces, and none of the standard-library modules that only
cost start-up time, nor those that only `hecke graph --cache` uses
(`hashlib`, `tempfile`).  The start-up-only ones are `dataclasses` with
the `inspect` it pulls in, and `argparse` with its `gettext`: the table
`cli.COMMANDS` reads argv, where `argparse` cost every process about
4 ms to import and to build parsers for the commands it did not run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drinfeld

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracing import TARGETS  # noqa: E402

NOT_AT_STARTUP = ("dataclasses", "inspect", "argparse", "gettext", "hashlib",
                  "tempfile")

LOADED = "import json, sys, drinfeld.cli; print(json.dumps(sorted(sys.modules)))"


@pytest.fixture(scope="module")
def loaded() -> set:
    src = os.path.dirname(os.path.dirname(os.path.abspath(drinfeld.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # -S: without site-packages' .pth preloads, so the set is the package's
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_loads_no_startup_only_stdlib(loaded):
    assert [m for m in NOT_AT_STARTUP if m in loaded] == []


def test_cli_import_loads_every_traced_module(loaded):
    traced = {f"drinfeld.{module}" for module, _, _ in TARGETS}
    assert traced - loaded == set()
