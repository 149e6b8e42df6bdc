"""Sample the Sierpinski invariant measure and print its moment report.

Usage: python scripts/sierpinski_cloud.py [samples] [seed] [points.csv]
"""

import csv
import sys

from wavelab.examples_geometry import sierpinski_ifs, strong_invariance_check


def main() -> None:
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    ifs = sierpinski_ifs()
    keep = 100_000 if len(sys.argv) > 3 else 0
    report = strong_invariance_check(ifs, samples, seed, keep=keep)
    for check in report.checks:
        print(
            f"{check.name:24s} stat={check.statistic:+.6f} "
            f"expected={check.expected:+.6f} z={check.z:+.3f}"
        )
    print(f"max |z| = {report.max_abs_z:.3f} over {samples} samples (seed {seed})")
    if len(sys.argv) > 3:
        pts = report.points
        with open(sys.argv[3], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows([[f"{v:.8g}" for v in row] for row in pts])
        print(f"wrote {pts.shape[0]} points to {sys.argv[3]}")


if __name__ == "__main__":
    main()
