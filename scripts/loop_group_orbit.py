"""Walk a random orbit of the unitary loop action on filter banks.

Starting from the indicator bank, repeatedly act by random pointwise
unitary matrix fields, verify every bank on the orbit, and close the loop
by recovering each step's connecting unitary.

Usage: python scripts/loop_group_orbit.py [N] [steps] [seed]
"""

import sys

import numpy as np

from wavelab.code_space import IfsSpec
from wavelab.ifs_filters import (
    MatrixField,
    apply_loop_group,
    build_indicator,
    connecting_unitary,
    verify_filter,
)


def random_field(rng, spec, depth=1):
    """One Haar-random unitary per word: a batched QR with the phases of R's
    diagonal moved into Q."""
    shape = (spec.N**depth, spec.N, spec.N)
    q, r = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    phases = np.diagonal(r, axis1=1, axis2=2)
    q = q * (phases / np.abs(phases))[:, None, :]
    return MatrixField(spec, np.moveaxis(q, 0, -1))


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    rng = np.random.default_rng(seed)
    spec = IfsSpec(n)
    bank = build_indicator(spec)
    print(f"orbit over N={n}, {steps} random actions, seed={seed}")
    for step in range(1, steps + 1):
        field = random_field(rng, spec)
        acted = apply_loop_group(bank, field)
        report = verify_filter(acted, probe_depth=3, tol=1e-11)
        recovered = connecting_unitary(bank, acted)
        recovery = np.max(np.abs(recovered.values - field.values))
        print(
            f"step {step}: verified={report.passed} "
            f"orthonormality={report.orthonormality_residual:.2e} "
            f"completeness={report.completeness:.2e} "
            f"unitary_recovery={recovery:.2e}"
        )
        bank = acted


if __name__ == "__main__":
    main()
