#!/usr/bin/env python3
"""Which lines of `src/drinfeld` no command runs.

Runs every invocation of `perfbench/workloads.all_invocations()` in this
process through `drinfeld.cli.main`, each in a fresh temporary directory
holding the files the benchmark writes for it, under a `sys.settrace`
line tracer limited to `src/drinfeld`.  Then, for every function (every
code object, module bodies included), it lists the executable lines
(from `co_lines`) that no invocation ran, and prints the totals.  Import
runs under the tracer too, so module and class bodies count as run.
Each invocation runs once, in its own directory, so the one cache lookup
misses and `cache.load_record` is listed; the tests cover the hit.

Exits 1 if an invocation's exit code differs from the one the benchmark
expects, 0 otherwise.

Usage: python scripts/traffic.py
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "drinfeld"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import all_invocations  # noqa: E402


def code_objects(code):
    """`code` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from code_objects(const)


def code_key(code):
    return code.co_filename, code.co_firstlineno, code.co_qualname


def ranges(lines):
    """"3-5,9" from [3, 4, 5, 9]."""
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ",".join(out)


def trace_commands(invocations):
    """Run each invocation through `cli.main` under the tracer; return the
    lines run per code key and the invocations whose exit code differs
    from the expected one."""
    files = {str(p) for p in PACKAGE.glob("*.py")}
    hits = {}

    def local(frame, event, arg):
        hits[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        hits.setdefault(code, set()).add(frame.f_lineno)
        return local

    wrong = []
    home = os.getcwd()
    sys.settrace(tracer)
    try:
        from drinfeld.cli import main as cli_main
        for inv in invocations:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                for rel, text in inv.files:
                    path = Path(tmp, rel)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = cli_main(list(inv.argv))
                os.chdir(home)
            if code != inv.expect:
                wrong.append((inv.key, code, inv.expect))
    finally:
        sys.settrace(None)
        os.chdir(home)
    run = {}
    for code, lines in hits.items():
        run.setdefault(code_key(code), set()).update(lines)
    return run, wrong


def main() -> int:
    invocations = all_invocations()
    run, wrong = trace_commands(invocations)
    total = never_total = 0
    functions = never_entered = 0
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in code_objects(module):
            lines = sorted({n for _, _, n in code.co_lines() if n})
            if not lines:
                continue
            ran = run.get(code_key(code), set())
            never = [n for n in lines if n not in ran]
            total += len(lines)
            never_total += len(never)
            functions += 1
            if not ran:
                never_entered += 1
            if never:
                rows.append(f"  {path.stem}.{code.co_qualname}  "
                             f"{len(never)}/{len(lines)}  {ranges(never)}")
    print(f"lines of src/drinfeld that no command ran, over "
          f"{len(invocations)} invocations (function  never/executable  lines):")
    print("\n".join(rows))
    print(f"total: {never_total} of {total} executable lines never run; "
          f"{never_entered} of {functions} functions never entered")
    for key, code, expect in wrong:
        print(f"exit {code}, expected {expect}: drinfeld {key}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
