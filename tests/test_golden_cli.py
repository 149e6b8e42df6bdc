"""Golden default-JSON output of the six ``ifs`` subcommands.

Each case runs one subcommand without ``--timing`` on small canonical
inputs and compares exit code and stdout byte for byte with
``golden/ifs_default.json``.  The inputs use exact values (small dyadic
fractions, 0, +-1, +-i and 1/sqrt(2)), so they are the same on every
platform.  To rewrite the golden file after a deliberate output change,
run ``PYTHONPATH=src python tests/test_golden_cli.py`` and say why in
CHANGES.md.
"""

import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from wavelab import jsonio
from wavelab.cli import run
from wavelab.code_space import CylinderFn, IfsSpec
from wavelab.ifs_filters import (
    FilterBank,
    MatrixField,
    apply_loop_group,
    build_indicator,
    build_roots_of_unity,
)

GOLDEN = Path(__file__).parent / "golden" / "ifs_default.json"

S = 1.0 / np.sqrt(2.0)


def _values(size: int, salt: int) -> np.ndarray:
    """Deterministic complex values with short dyadic parts."""
    i = np.arange(size)
    re = ((i * 37 + 11 * salt) % 17 - 8) / 8.0
    im = ((i * 23 + 5 * salt) % 13 - 6) / 4.0
    return re + 1j * im


def _field2(spec: IfsSpec) -> MatrixField:
    """A depth-1 pointwise-unitary field: Hadamard on [1], a phased swap on [2]."""
    entries = np.zeros((2, 2, 2), dtype=complex)
    entries[:, :, 0] = [[S, S], [S, -S]]
    entries[:, :, 1] = [[0, 1j], [1, 0]]
    return MatrixField(
        spec,
        tuple(
            tuple(CylinderFn(spec, 1, entries[j, k]) for k in range(2))
            for j in range(2)
        ),
    )


def _inputs() -> dict:
    w2 = IfsSpec(2, (0.25, 0.75))
    u2, u3 = IfsSpec(2), IfsSpec(3)
    nan_vals = np.array([np.nan, 0.0])
    return {
        "ind2": build_indicator(u2).to_json(),
        "ind2w": build_indicator(w2).to_json(),
        "ind3": build_indicator(u3).to_json(),
        "roots2": build_roots_of_unity(u2).to_json(),
        "roots3": build_roots_of_unity(u3).to_json(),
        "acted2w": apply_loop_group(build_indicator(w2), _field2(w2)).to_json(),
        "rand3": FilterBank(
            u3, tuple(CylinderFn(u3, 2, _values(9, s)) for s in range(3))
        ).to_json(),
        "broken2": FilterBank(
            u2, (CylinderFn(u2, 1, [1.0, 1.0]),) * 2
        ).to_json(),
        "nan2": FilterBank(
            u2, (CylinderFn(u2, 1, nan_vals), build_indicator(u2).filters[1])
        ).to_json(),
        "field2w": _field2(w2).to_json(),
        "hadamard": {"matrix": jsonio.encode_cmatrix([[S, S], [S, -S]])},
        "nonunitary": {"matrix": jsonio.encode_cmatrix([[2, 0], [0, 1]])},
        "f2": CylinderFn(u2, 3, _values(8, 1)).to_json(),
        "f2w": CylinderFn(w2, 2, _values(4, 2)).to_json(),
        "f2w_deep": CylinderFn(w2, 4, _values(16, 3)).to_json(),
        "f3": CylinderFn(u3, 3, _values(27, 4)).to_json(),
        "f3_shallow": CylinderFn(u3, 1, _values(3, 5)).to_json(),
    }


CASES = {
    "build indicator weighted": [
        "ifs", "build-filter", "--kind", "indicator", "--N", "2",
        "--weights", "0.25,0.75", "--depth", "3",
    ],
    "build roots N=3": ["ifs", "build-filter", "--kind", "roots", "--N", "3", "--depth", "2"],
    "verify weighted indicator": ["ifs", "verify-filter", "--bank", "{ind2w}", "--depth", "4"],
    "verify acted probe 1": ["ifs", "verify-filter", "--bank", "{acted2w}", "--depth", "1"],
    "verify acted probe 5": ["ifs", "verify-filter", "--bank", "{acted2w}", "--depth", "5"],
    "verify random N=3": ["ifs", "verify-filter", "--bank", "{rand3}", "--depth", "2"],
    "verify random N=3 probe 3": ["ifs", "verify-filter", "--bank", "{rand3}", "--depth", "3"],
    "verify broken": ["ifs", "verify-filter", "--bank", "{broken2}"],
    "verify nan": ["ifs", "verify-filter", "--bank", "{nan2}"],
    "connect indicator to roots": ["ifs", "connect", "--bank", "{ind3}", "--target", "{roots3}"],
    "connect weighted to acted": ["ifs", "connect", "--bank", "{ind2w}", "--target", "{acted2w}"],
    "connect unverified": ["ifs", "connect", "--bank", "{rand3}", "--target", "{roots3}"],
    "apply field weighted": [
        "ifs", "apply-unitary", "--bank", "{ind2w}", "--unitary", "{field2w}", "--depth", "3",
    ],
    "apply hadamard": ["ifs", "apply-unitary", "--bank", "{ind2}", "--unitary", "{hadamard}"],
    "apply non-unitary": ["ifs", "apply-unitary", "--bank", "{ind2}", "--unitary", "{nonunitary}"],
    "decompose packet": ["ifs", "decompose", "--bank", "{roots2}", "--fn", "{f2}", "--levels", "2"],
    "decompose single": [
        "ifs", "decompose", "--bank", "{ind3}", "--fn", "{f3}", "--levels", "3",
        "--mode", "single",
    ],
    "endo roots": ["ifs", "endo-check", "--bank", "{roots2}", "--fn", "{f2}", "--depth", "2"],
    "endo weighted": ["ifs", "endo-check", "--bank", "{ind2w}", "--fn", "{f2w}", "--depth", "3"],
    "endo weighted deep fn": [
        "ifs", "endo-check", "--bank", "{acted2w}", "--fn", "{f2w_deep}", "--depth", "1",
    ],
    "endo broken": ["ifs", "endo-check", "--bank", "{broken2}", "--fn", "{f2}"],
    "endo random N=3": ["ifs", "endo-check", "--bank", "{rand3}", "--fn", "{f3_shallow}", "--depth", "3"],
}


def run_case(argv: list[str], directory: Path) -> dict:
    files = {}
    for name, obj in _inputs().items():
        files[name] = str(directory / f"{name}.json")
        jsonio.dump_file(files[name], obj)
    buf = StringIO()
    with redirect_stdout(buf):
        code = run([a.format(**files) for a in argv])
    return {"code": code, "stdout": buf.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ifs_default_output_is_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(CASES[name], tmp_path) == golden[name]


def test_golden_covers_every_ifs_subcommand():
    assert {argv[1] for argv in CASES.values()} == {
        "build-filter", "verify-filter", "connect", "apply-unitary", "decompose", "endo-check",
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = {name: run_case(argv, Path(tmp)) for name, argv in sorted(CASES.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(out)} cases to {GOLDEN}\n")
