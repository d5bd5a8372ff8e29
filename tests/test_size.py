"""A ceiling on the lines `src/drinfeld` carries, counted as `wc -l` counts
them.  A change may lower `SRC_LINES_CEILING` to its new count; one that
raises it says in CHANGES.md what it added and why."""

from pathlib import Path

import drinfeld

SRC_LINES_CEILING = 4925


def test_src_stays_under_its_line_ceiling():
    files = sorted(Path(drinfeld.__file__).parent.glob("*.py"))
    lines = sum(path.read_text().count("\n") for path in files)
    assert lines <= SRC_LINES_CEILING, (
        f"src/drinfeld has {lines} lines, over its ceiling of "
        f"{SRC_LINES_CEILING}")
