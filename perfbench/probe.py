"""Peak resident memory of one session, measured in a fresh process.

    python3 perfbench/probe.py COMMANDS_JSON

Runs each argv of the JSON list through ``wavelab.cli.run`` once, in
order, with their output discarded, and prints its peak resident set in
MB.  The caller judges outputs in its own process; this one only
measures.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wavelab import cli  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process image, from ``VmHWM``.

    Not ``ru_maxrss``: on Linux a child started by fork or vfork and exec
    inherits its parent's peak in it, so it would report the runner's
    memory whenever that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(commands_file: str) -> None:
    commands = json.loads(Path(commands_file).read_text(encoding="utf-8"))
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run(argv)
    print(peak_rss_mb())


if __name__ == "__main__":
    main(sys.argv[1])
