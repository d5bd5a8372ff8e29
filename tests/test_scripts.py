import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def test_ordinary_family_demo_runs():
    proc = _run_script("ordinary_family_demo.py", 120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    identity = [l for l in lines if "projector is identity:" in l]
    commutes = [l for l in lines if "commutes:" in l]
    assert len(identity) == 3 and len(commutes) == 4, proc.stdout
    assert all(l.endswith("True") for l in identity + commutes), proc.stdout


def test_traffic_lists_the_lines_no_command_runs():
    proc = _run_script("traffic.py", 300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {}
    for line in proc.stdout.splitlines():
        if line.startswith("  "):
            name, counts, _ = line.split()
            rows[name] = tuple(map(int, counts.split("/")))
    # a test oracle: no command expands a measure by decomposition
    never, lines = rows["iwasawa.decompose"]
    assert never == lines > 0
    # every command enters cli.main; at most its error branches are listed
    assert "cli.main" not in rows or rows["cli.main"][0] < rows["cli.main"][1]
    assert proc.stdout.splitlines()[-1].startswith("total: ")
