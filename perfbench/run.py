"""The wavelab benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload bank-verify --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It writes the workload's inputs from
``--seed`` under ``.perfbench-work/``, then drives the CLI in process
through ``wavelab.cli.run`` as a closed loop with a single caller: a
session runs the workload's fixed command list in order, and the next
session starts when the previous one ends.  Every command's output is
judged against an independent reference (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics:

    session_s    median wall time of a warm session (the first is untimed)
    setup_s      median wall time of fresh interpreters running
                 ``import wavelab.cli``, launched between sessions
    peak_rss_mb  peak resident set of a fresh process that runs one session

Both times are given at a fixed host speed, because a shared host runs
the same code up to 1.6 times slower in some minutes than in others.
Each session is timed against a fixed piece of reference work
(``reference_work``) run just before and just after it, and each launch
that imports the CLI against a launch, right after it, that imports
numpy alone.  ``session_s`` is the median of session over reference
time, times ``REFERENCE_S``; ``setup_s`` the median of CLI over numpy
launch time, times ``NUMPY_LAUNCH_S``.  So a time reads as it would on a
host where the reference work and the numpy launch take those times.
Neither reference touches wavelab, so a change to the program moves the
scaled times as it moves the raw ones.  The raw medians are printed above
the result line.

``--trace 1`` reports the per-layer metrics instead: calls into each layer
and its self time per session, the boundary counters of ``tracing.py``,
and ``trace.overhead_s`` (traced minus untraced median session, the two
kinds of session alternating), and writes the spans of the last traced
session to ``.perfbench-out/``.

The last line of standard output is the result object.  Numeric work is
pinned to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 15
# the times of the two references at the host speed the metrics are given at
REFERENCE_S = 0.1
NUMPY_LAUNCH_S = 0.2
SUBPROCESS_TIMEOUT_S = 120


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def run_session(cli, checks) -> tuple[float, list]:
    """Run every command once, in order; return wall time and raw outputs."""
    outputs = []
    start = time.perf_counter()
    for check in checks:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(check.argv))
            except Exception:  # a crash fails its check; the run goes on
                code = -1
                traceback.print_exc()
        outputs.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outputs


def judge(check, code: int, stdout: str, stderr: str) -> str | None:
    """Why this output is wrong, or None when the verdict and numbers hold."""
    if code not in check.expect:
        return f"exit {code}, expected {check.expect} {stderr.strip()[:200]}"
    if code == 2:
        return None  # an input error is reported on stderr alone
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} lines on stdout, expected one JSON object"
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(obj, dict):
        return "stdout is not a JSON object"
    try:
        return check.judge(obj)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"output lacks an expected field: {exc!r}"


class Tally:
    """Checks attempted and failed; failures outside known defects break correctness."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, str] = {}
        self.defects: dict[str, str] = {}

    def add(self, checks, outputs) -> None:
        for check, (code, stdout, stderr) in zip(checks, outputs):
            self.attempted += 1
            reason = judge(check, code, stdout, stderr)
            if reason is None:
                continue
            self.failed += 1
            target = self.defects if check.known_defect else self.unexpected
            target.setdefault(check.name, reason)


def launch_time(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code`` and exits."""
    start = time.perf_counter()
    # with pipes, the wait ends when the child closes them at exit; a bare
    # wait with a timeout polls in steps of up to 50 ms
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
        capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - start


def reference_work() -> float:
    """Wall time of a fixed piece of interpreter-bound work, the host's pace.

    Dict updates and complex arithmetic in Python loops, and numpy calls
    on small arrays: the kinds of work that slow down together with the
    program's sessions when the shared host is busy.  It does not touch
    wavelab, so a change to the program leaves it alone.
    """
    import numpy as np

    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(100000):
        table[i % 251] = table.get(i % 251, 0.0) + (i * 1.000001) ** 0.5
    z, total = complex(0.3, 0.4), 0j
    for k in range(120000):
        total += z ** (k % 7) * 0.5
    small = np.arange(16.0)
    for _ in range(8000):
        small = np.sqrt(small * 0.5 + 1.0)
    return time.perf_counter() - start


def peak_rss_mb(commands_file: Path) -> float:
    """Peak resident set of a fresh process that runs one session of the workload."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(commands_file)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_session(cli, checks, tally: Tally) -> float:
    """Run and judge one session; return its wall time."""
    wall, outputs = run_session(cli, checks)
    tally.add(checks, outputs)
    return wall


def environment() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


def describe(label: str, values: list[float]) -> str:
    """Median, and the highest percentile with ten samples beyond it, if any."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"{label}: median {statistics.median(ordered):.6g} s over n={n}"
    if n - 10 > n / 2:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.6g} s"
    return text


def end_to_end(cli, checks, tally: Tally, seconds: float, workdir: Path) -> dict:
    commands_file = workdir / "commands.json"
    commands_file.write_text(json.dumps([list(c.argv) for c in checks]), encoding="utf-8")
    rss = peak_rss_mb(commands_file)
    walls, paced, reference, setup, numpy_launches = [], [], [], [], []

    def launch(count: int) -> None:
        for _ in range(count):
            setup.append(launch_time("import wavelab.cli"))
            numpy_launches.append(launch_time("import numpy"))

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        # launches are spread over the run, between sessions
        due = round(SETUP_LAUNCHES * (time.perf_counter() - start) / seconds)
        if min(due, SETUP_LAUNCHES) > len(setup) or not reference:
            launch(min(due, SETUP_LAUNCHES) - len(setup))
            reference.append(reference_work())
        walls.append(timed_session(cli, checks, tally))
        reference.append(reference_work())
        # session over the mean of the reference work just before and after
        paced.append(2 * walls[-1] / (reference[-2] + reference[-1]))
    launch(SETUP_LAUNCHES - len(setup))
    print(describe("raw session_s", walls))
    print(describe("raw setup_s", setup))
    print(describe("reference work", reference))
    print(describe("numpy launch", numpy_launches))
    return {
        "session_s": {"value": statistics.median(paced) * REFERENCE_S, "unit": "s"},
        "setup_s": {
            "value": statistics.median([a / b for a, b in zip(setup, numpy_launches)])
            * NUMPY_LAUNCH_S,
            "unit": "s",
        },
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(cli, checks, tally: Tally, seconds: float, trace_file: Path, header: dict) -> dict:
    import tracing

    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    # untraced and traced sessions alternate, so both see the same host phases
    while not traced or time.perf_counter() < deadline:
        plain.append(timed_session(cli, checks, tally))
        tracer.begin()
        tracer.install()
        try:
            traced.append(timed_session(cli, checks, tally))
        finally:
            tracer.uninstall()
        layers.append(tracer.session_metrics())
    print(describe("untraced session_s", plain))
    print(describe("traced session_s", traced))
    metrics = {}
    for name in layers[0]:
        unit = tracing.unit(name)
        # counters repeat exactly, so median_low reports one as measured
        middle = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = {"value": middle([s[name] for s in layers]), "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain), "unit": "s",
    }
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps(dict(
        header, metrics=metrics,
        spans=[{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans],
    )), encoding="utf-8")
    print(f"spans of the last traced session: {trace_file.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wavelab" / "cli.py").is_file():
        _fail(f"no wavelab sources under {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    from wavelab import cli

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        checks = workloads.build(args.workload, args.seed, workdir)
        env = environment()
        print("environment:", json.dumps(env, sort_keys=True))
        tally = Tally()
        tally.add(checks, run_session(cli, checks)[1])  # warm-up, untimed
        if args.trace:
            trace_file = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json"
            header = {"workload": args.workload, "seed": args.seed, "environment": env}
            metrics = per_layer(cli, checks, tally, args.seconds, trace_file, header)
        else:
            metrics = end_to_end(cli, checks, tally, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, reason in {**tally.defects, **tally.unexpected}.items():
        kind = "unexpected failure" if name in tally.unexpected else "known defect"
        print(f"{kind}: {name}: {reason}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
