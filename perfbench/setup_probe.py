"""Set-up probe: a fresh interpreter imports `drinfeld.cli` and builds the
workload's places, then exits.

    python3 perfbench/setup_probe.py Q:VARPI ...
"""

import sys

from drinfeld.cli import field_of_order, make_place, parse_apoly

for spec in sys.argv[1:]:
    q, varpi = spec.split(":", 1)
    make_place(parse_apoly(field_of_order(int(q)), varpi))
