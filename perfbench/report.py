"""Every workload's end-to-end metrics, by name and unit, in one table.

    python3 perfbench/report.py [--seed 1] [--seconds S] [--trace]

Runs ``run.py`` once per workload (each in its own process, one after the
other, for ``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says
otherwise) and prints session_s, setup_s, peak_rss_mb and error_ratio, the
share of output checks that failed, with every failure named.  With
``--trace`` it adds one traced run per workload and lists the layers by
self time.  Exits 1 if a check failed that is not a known defect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    header = f"{'workload':<14} {'session_s (s)':>14} {'setup_s (s)':>12} {'peak_rss_mb (MB)':>17} {'error_ratio (1)':>16}"
    print(header)
    all_correct = True
    notes = []
    for workload in WORKLOADS:
        info, result = run_workload(workload, args.seed, args.seconds, 0)
        m = result["metrics"]
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:<14} {m['session_s']['value']:>14.4f} {m['setup_s']['value']:>12.4f} "
              f"{m['peak_rss_mb']['value']:>17.1f} {ratio:>16.4f}")
        all_correct &= result["correct"]
        notes += [f"  {workload}: {line}" for line in info
                  if line.startswith(("raw session_s", "reference work", "known defect",
                                      "unexpected failure"))]
    print("\n".join(notes))

    if args.trace:
        for workload in WORKLOADS:
            info, result = run_workload(workload, args.seed, args.seconds, 1)
            m = result["metrics"]
            self_times = sorted(
                ((v["value"], k[: -len(".self_s")]) for k, v in m.items() if k.endswith(".self_s")),
                reverse=True,
            )
            layers = ", ".join(f"{name} {t:.3f} s" for t, name in self_times if t > 0)
            print(f"{workload}: self time per session: {layers}; "
                  f"trace overhead {m['trace.overhead_s']['value']:.3f} s")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
