"""Record the benchmark's reference data.

    python3 perfbench/record.py goldens    # rewrite perfbench/goldens.json
    python3 perfbench/record.py baseline   # rewrite perfbench/baseline.json

`goldens` runs every invocation any seed can produce (two at a time) and
stores the sha256 of its stdout; it refuses to record an invocation that
exits with another code than expected or reports a failed identity.
Re-record only on purpose: a changed digest means changed output.

`baseline` records the machine, each workload's invocations at seed 0,
and one untraced and one traced run per workload, whose difference in
`wall_s` is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

BASELINE = run.HERE / "baseline.json"
BASELINE_SEED = 0


def record_goldens() -> int:
    invocations = workloads.all_invocations()
    env = run.child_env()
    run.build()
    work = run.WORK_ROOT / "record"
    shutil.rmtree(work, ignore_errors=True)

    def one(index_inv):
        i, inv = index_inv
        cwd = work / str(i)
        cwd.mkdir(parents=True)
        for rel, text in inv.files:
            (cwd / rel).parent.mkdir(parents=True, exist_ok=True)
            (cwd / rel).write_text(text)
        rc, out, _, _ = run.spawn([sys.executable, "-m", "drinfeld", *inv.argv],
                                  cwd, env, cwd / "stderr.txt")
        digest = hashlib.sha256(out).hexdigest()
        return inv.key, digest, run.problems(inv, rc, out, {inv.key: digest})

    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(one, enumerate(invocations)))
    finally:
        shutil.rmtree(run.WORK_ROOT, ignore_errors=True)
    bad = [(key, found) for key, _, found in results if found]
    for key, found in bad:
        print(f"not recorded: {key}: {'; '.join(found)}", file=sys.stderr)
    if bad:
        return 1
    digests = {key: digest for key, digest, _ in results}
    run.GOLDENS.write_text(json.dumps({"digests": digests}, indent=1,
                                      sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


def _git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _bench(workload: str, trace: int) -> dict:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(BASELINE_SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2])["detail"], **json.loads(lines[-1])}


def record_baseline() -> int:
    seeded = {
        "suite": "nothing: the battery's random draws are fixed inside "
                 "drinfeld.checks",
        "frontier": "the weight k of each U matrix, from "
                    f"{list(workloads.FRONTIER_WEIGHTS)}",
        "cli": "the kind, then the invocation, of four commands per pass, "
               "from pools of sizes "
               + json.dumps({k: len(v) for k, v in workloads.CLI_POOLS.items()}),
    }
    out = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "git_rev": _git_rev()},
        "seed_argument": "--seed N seeds one random.Random per run; each "
                         "pass (the warm-up first) draws from it in turn",
        "workloads": {},
    }
    for name, wl in workloads.WORKLOADS.items():
        untraced, traced = _bench(name, 0), _bench(name, 1)
        out["workloads"][name] = {
            "why": wl.why,
            "seeded": seeded[name],
            "first_pass_at_seed_0": [inv.key for inv in
                                     wl.make_pass(random.Random(BASELINE_SEED))],
            "untraced": untraced,
            "traced": traced,
            "tracing_overhead_s": (statistics.median(traced["pass_wall_s"])
                                   - untraced["metrics"]["wall_s"]["value"]),
        }
        print(f"{name}: done", file=sys.stderr)
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "goldens":
        sys.exit(record_goldens())
    if what == "baseline":
        sys.exit(record_baseline())
    print(__doc__, file=sys.stderr)
    sys.exit(2)
