"""Smoke tests: each script in scripts/ runs to exit 0 at a small size, and
what it prints and writes passes its own checks."""

import os
import re
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


def _check_orbit(out: str, tmp_path: Path) -> None:
    steps = re.findall(r"^step \d+: verified=(\w+) .* unitary_recovery=(\S+)$", out, re.M)
    assert steps and all(v == "True" and float(r) < 1e-12 for v, r in steps)


def _check_filterbank(out: str, tmp_path: Path) -> None:
    errors = dict(re.findall(r"^(\w+): pr_error=(\S+)", out, re.M))
    assert errors.keys() == {"haar", "d4"} and all(float(e) < 1e-12 for e in errors.values())


def _check_profiles(out: str, tmp_path: Path) -> None:
    for name in ("haar_phi", "haar_psi", "d4_phi", "d4_psi"):
        assert (tmp_path / f"{name}.csv").read_text().startswith("x,value")


def _check_cloud(out: str, tmp_path: Path) -> None:
    (max_z,) = re.findall(r"^max \|z\| = (\S+) ", out, re.M)
    assert float(max_z) < 4.0
    assert (tmp_path / "points.csv").exists()


# script -> a check of what it printed and wrote
CHECKS = {
    "cascade_profiles.py": _check_profiles,
    "filterbank_demo.py": _check_filterbank,
    "loop_group_orbit.py": _check_orbit,
    "sierpinski_cloud.py": _check_cloud,
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    """The script exits 0, and what it prints and writes passes its check."""
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
    CHECKS[script](proc.stdout, tmp_path)
