"""Run one `drinfeld` command with the library's public entry points traced.

    python3 perfbench/traced_cli.py SPANFILE ARG...

Imports `drinfeld.cli` (timing the import), rebinds every traced function
to a timing wrapper, calls `drinfeld.cli.main(ARGS)`, writes the spans to
SPANFILE and exits with main's return code.  Standard output is exactly
the command's own output.
"""

import sys
from time import perf_counter


def run(span_path: str, argv: list) -> int:
    t0 = perf_counter()
    import drinfeld.cli
    import_s = perf_counter() - t0

    import tracing
    tracer = tracing.Tracer()
    tracer.meta["import_s"] = import_s
    tracing.rebind(tracer, "drinfeld", tracing.library_targets())
    try:
        return drinfeld.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(span_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
