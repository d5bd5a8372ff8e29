import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ordinary_family_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ordinary_family_demo.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    identity = [l for l in lines if "projector is identity:" in l]
    commutes = [l for l in lines if "commutes:" in l]
    assert len(identity) == 3 and len(commutes) == 4, proc.stdout
    assert all(l.endswith("True") for l in identity + commutes), proc.stdout
