"""Smoke tests: each script in scripts/ runs to exit 0 at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sierpinski_cloud.py exits 1 below 1e4 samples by design
SCRIPTS = {
    "cascade_profiles.py": ["{tmp}"],
    "filterbank_demo.py": ["64"],
    "loop_group_orbit.py": ["2", "1", "0"],
    "sierpinski_cloud.py": ["10000", "7", "{tmp}/points.csv"],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.format(tmp=tmp_path) for a in SCRIPTS[script]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
