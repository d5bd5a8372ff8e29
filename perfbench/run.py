"""Benchmark of the `drinfeld` command, one fresh process per invocation.

    python3 perfbench/run.py --workload {suite,frontier,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from a source checkout: it byte-compiles `src/`, times a set-up
probe several times, then runs passes of the workload for about S seconds
(at least one pass).  Every invocation is checked: its exit code, any
`[FAIL]` line or `"ok": false`, and the digest of its stdout against
`goldens.json`.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
details (pass count, sample count, tail percentile, failed fraction).

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
each invocation runs under `traced_cli.py`, and the metrics are the
per-layer ones of `tracing.per_layer_names()`, medians over passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 11
INVOCATION_TIMEOUT_S = 150
FAIL_MARKERS = (b"[FAIL]", b'"ok": false')
TAIL_BEYOND = 10

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith((".calls", "_steps")):
        return "count"
    return "s"


# -- statistics -------------------------------------------------------------------

def tail_percentile(n: int) -> int | None:
    """The highest whole percentile, at most 99, whose nearest-rank sample
    still has at least TAIL_BEYOND samples above it; None when n is too
    small for any."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return None


def tail(samples: list) -> tuple[float, int]:
    """(value, percentile) of the tail; the maximum, as percentile 100,
    when there are too few samples for the rule."""
    xs = sorted(samples)
    p = tail_percentile(len(xs))
    if p is None:
        return xs[-1], 100
    return xs[math.ceil(p * len(xs) / 100) - 1], p


# -- processes --------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DRINFELD_CACHE_DIR", None)
    return env


def spawn(cmd: list, cwd: Path, env: dict, err_path: Path):
    """Run `cmd` to exit.  Returns (exit code, stdout, seconds from spawn
    to exit, ru_maxrss in KiB)."""
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, seconds, usage.ru_maxrss


def build() -> None:
    """Byte-compile the sources, so every timed process finds bytecode."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)


def time_setup(workload, env: dict, work: Path) -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    cmd += [f"{q}:{varpi}" for q, varpi in workload.places]
    rc, _, seconds, _ = spawn(cmd, work, env, work / "stderr.txt")
    if rc != 0:
        raise RuntimeError(f"set-up probe exited {rc}: "
                           + (work / "stderr.txt").read_text()[-2000:])
    return seconds


# -- checking ---------------------------------------------------------------------

def problems(inv, rc: int, out: bytes, goldens: dict) -> list:
    """Why this invocation failed; empty when it did not."""
    found = []
    if rc != inv.expect:
        found.append(f"exit code {rc}, expected {inv.expect}")
    if any(marker in out for marker in FAIL_MARKERS):
        found.append("reports a failed identity")
    want = goldens.get(inv.key)
    if want is None:
        found.append("no golden digest recorded")
    elif hashlib.sha256(out).hexdigest() != want:
        found.append("stdout differs from the golden digest")
    return found


# -- passes -----------------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    latencies: list
    max_rss_kb: int
    attempted: int
    failed: int
    layers: tracing.LayerTotals | None


class Runner:
    """Runs passes in one working directory, checking every output."""

    def __init__(self, work: Path, goldens: dict, traced: bool, env: dict):
        self.work, self.goldens, self.traced, self.env = work, goldens, traced, env

    def command(self, inv, span_path: Path) -> list:
        if self.traced:
            return [sys.executable, str(HERE / "traced_cli.py"), str(span_path),
                    *inv.argv]
        return [sys.executable, "-m", "drinfeld", *inv.argv]

    def run_pass(self, invocations: list) -> PassResult:
        shutil.rmtree(self.work / "cache", ignore_errors=True)
        for inv in invocations:
            for rel, text in inv.files:
                path = self.work / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
        latencies, span_paths, max_rss, failed = [], [], 0, 0
        t0 = perf_counter()
        for i, inv in enumerate(invocations):
            span_path = self.work / f"spans-{i}.bin"
            rc, out, seconds, rss = spawn(self.command(inv, span_path),
                                          self.work, self.env,
                                          self.work / "stderr.txt")
            latencies.append(seconds)
            max_rss = max(max_rss, rss)
            span_paths.append(span_path)
            found = problems(inv, rc, out, self.goldens)
            if found:
                failed += 1
                err = (self.work / "stderr.txt").read_text(errors="replace")
                print(f"FAILED {inv.key}: {'; '.join(found)}\n{err[-2000:]}",
                      file=sys.stderr)
        wall = perf_counter() - t0
        layers = None
        if self.traced:
            layers = tracing.LayerTotals()
            for path in span_paths:
                if path.exists():
                    layers.add(tracing.read_spans(str(path)))
                    path.unlink()
        return PassResult(wall, latencies, max_rss, len(invocations), failed,
                          layers)


# -- the run ----------------------------------------------------------------------

def measure(args, workload, goldens: dict, work: Path) -> dict:
    build()
    env = child_env()
    setup = [time_setup(workload, env, work) for _ in range(SETUP_PROBES)]
    runner = Runner(work, goldens, args.trace == 1, env)
    rng = random.Random(args.seed)
    done = [runner.run_pass(workload.make_pass(rng))] if workload.warmup else []
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(runner.run_pass(workload.make_pass(rng)))
        spent = perf_counter() - t0
        # stop before a pass of the mean length would overrun --seconds
        if spent * (len(passes) + 1) / len(passes) > args.seconds:
            break
    done += passes
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    walls = [p.wall_s for p in passes]
    if workload.per_invocation_latency:
        latencies = [x for p in passes for x in p.latencies]
    else:
        latencies = walls
    tail_s, tail_p = tail(latencies)
    if runner.traced:
        per_pass = [p.layers.metrics() for p in passes]
        metrics = {n: statistics.median(m[n] for m in per_pass)
                   for n in tracing.per_layer_names()}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_s,
            "peak_rss_mb": statistics.median(p.max_rss_kb for p in passes) / 1024,
        }
    detail = {"workload": workload.name, "seed": args.seed,
              "traced": runner.traced, "passes": len(passes),
              "pass_wall_s": walls, "latency_samples": len(latencies),
              "tail_percentile": tail_p, "failed_frac": failed / attempted}
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": unit_of(n)}
                        for n, v in metrics.items()}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drinfeld" / "cli.py").is_file():
        print(f"perfbench: no drinfeld sources under {SRC}", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())["digests"]
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workloads.WORKLOADS[args.workload], goldens, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
