"""Tests of the benchmark itself: seeded inputs, judges, tracing, output contract.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from wavelab import cli, code_space, ifs_filters  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_files(name, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    argv_a = [c.argv for c in workloads.build(name, 5, first)]
    argv_b = [c.argv for c in workloads.build(name, 5, second)]
    workloads.build(name, 6, other)
    assert _files(first) == _files(second)
    assert [tuple(a.replace(str(first), "") for a in v) for v in argv_a] == [
        tuple(a.replace(str(second), "") for a in v) for v in argv_b
    ]
    assert _files(first) != _files(other)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_valid_inputs_are_accepted(name, seed, tmp_path):
    checks = workloads.build(name, seed, tmp_path)
    _, outputs = run.run_session(cli, checks)
    for check, (code, stdout, stderr) in zip(checks, outputs):
        reason = run.judge(check, code, stdout, stderr)
        if check.known_defect:
            # once the program is fixed, drop the marker so the check gates again
            assert reason is not None, f"{check.name} passes now: {check.known_defect}"
        else:
            assert reason is None, f"{check.name}: {reason}"


def test_every_workload_has_a_negative_control(tmp_path):
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        checks = workloads.build(name, 0, tmp_path / name)
        assert any(c.expect == (1,) and not c.known_defect for c in checks), name


def test_judges_reject_a_wrong_number(tmp_path):
    checks = workloads.build("circle-grid", 0, tmp_path)
    _, outputs = run.run_session(cli, checks[:1])
    code, stdout, stderr = outputs[0]
    obj = json.loads(stdout)
    obj["residuals"]["orthonormality"] = 1e-6
    assert run.judge(checks[0], code, json.dumps(obj), stderr) is not None
    assert run.judge(checks[0], code, stdout + stdout, stderr) is not None
    assert run.judge(checks[0], 1, stdout, stderr) is not None
    nan_check = next(c for c in checks if c.known_defect)
    assert run.judge(nan_check, 2, "", "wavelab: non-finite value\n") is None
    assert run.judge(nan_check, 0, '{"pass": true}', "") is not None


def test_seeded_moments_are_judged_to_rounding(tmp_path):
    checks = workloads.build("path-moments", 0, tmp_path)
    seeded = [c for c in checks
              if c.argv[1] == "moment" and c.expect == (0,) and not c.known_defect]
    _, outputs = run.run_session(cli, seeded)
    for check, (code, stdout, stderr) in zip(seeded, outputs):
        assert "--tol" not in check.argv, check.name
        obj = json.loads(stdout)
        obj["results"]["value"] = [x * (1 + 1e-9) for x in obj["results"]["value"]]
        assert run.judge(check, code, json.dumps(obj), stderr) is not None, check.name


def test_tracer_reports_every_layer_metric_and_restores(tmp_path):
    checks = workloads.build("path-moments", 0, tmp_path)
    original = code_space.multiply
    tracer = Tracer()
    tracer.install()
    try:
        assert ifs_filters.multiply is code_space.multiply is not original
        sessions = []
        for _ in range(2):
            tracer.begin()
            run.run_session(cli, checks)
            sessions.append(tracer.session_metrics())
    finally:
        tracer.uninstall()
    assert code_space.multiply is original and ifs_filters.multiply is original
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert set(sessions[0]) == names
    for name in names - {f"{layer}.self_s" for layer in LAYERS}:
        assert sessions[0][name] == sessions[1][name], name
    assert sessions[0]["code_space.transfer_applies"] > 0
    assert sessions[0]["solenoid.calls"] > 0
    # every span closed, each parent opened before its child
    assert all(s is not None and (s[3] < i) for i, s in enumerate(tracer.spans))


def _run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path-moments", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_follows_the_contract(trace):
    proc = _run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 < result["failed"] < result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
