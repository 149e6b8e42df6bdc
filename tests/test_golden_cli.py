"""Golden default-JSON output of the ``ifs``, ``circle verify`` and ``rkhs``
subcommands.

Each case runs one subcommand without ``--timing`` on small canonical
inputs and compares exit code and stdout byte for byte with a file in
``golden/``: ``ifs_default.json`` for the six ``ifs`` subcommands and
``circle_rkhs_default.json`` for ``circle verify``, ``rkhs check`` and
``rkhs product-kernel``.  The inputs use exact values (small dyadic
fractions, 0, +-1, +-i and 1/sqrt(2)), so they are the same on every
platform.  To rewrite the golden files after a deliberate output change,
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

GOLDEN_DIR = Path(__file__).parent / "golden"

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


def _ifs_inputs() -> dict:
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


IFS_CASES = {
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


def _laurent(min_degree: int, coeffs) -> dict:
    return {"min_degree": min_degree, "coeffs": jsonio.encode_cvector(coeffs)}


def _circle_rkhs_inputs() -> dict:
    roots4 = np.array([1, -1, 1j, -1j])
    haar = np.array([(1 + roots4) / 2, (1 - roots4) / 2])  # unit-sum Haar values
    sigma = [0, 0, 1, 1]  # z -> z**2 on the 4th roots of unity
    # product of the Haar Gram sums along sigma-orbits, 3 terms, plain numpy
    kernel = np.ones((4, 4), dtype=complex)
    idx = np.arange(4)
    for _ in range(3):
        v = haar[:, idx]
        kernel = kernel * (v.T @ v.conj())
        idx = np.array(sigma)[idx]
    return {
        "haar": {"filters": [_laurent(0, [S, S]), _laurent(0, [S, -S])]},
        "haar_list": [_laurent(0, [S, S]), _laurent(0, [S, -S])],
        "haar_unit": [_laurent(0, [0.5, 0.5]), _laurent(-2, [-0.5, 0.5])],
        "delayed": [_laurent(1, [S, S]), _laurent(1, [S, -S])],
        "phased": [_laurent(-1, [0.5j, 0.5j]), _laurent(-1, [0.5, -0.5])],
        "monomials3": [_laurent(-1, [1]), _laurent(0, [1]), _laurent(1, [1])],
        "shift3": [_laurent(0, [1, 0, 0]), _laurent(2, [-1j]), _laurent(4, [1])],
        "broken": [_laurent(0, [0.5, 0.5]), _laurent(0, [0.5, -0.5])],
        "skewed": [_laurent(-1, [0.375 + 0.625j, 0.25, -0.125j]), _laurent(0, [0.5, -0.75 + 0.5j])],
        "short": [_laurent(0, [S, S])],
        "bare_numbers": [
            {"min_degree": 0, "coeffs": [S, S]},
            {"min_degree": 0, "coeffs": [[S, 0], [-S, 0.0]]},
        ],
        "int_pairs": [
            {"min_degree": -1, "coeffs": [[1, 0]]},
            {"min_degree": 0, "coeffs": [[0, 1], [0, False]]},
        ],
        "triple": [{"min_degree": 0, "coeffs": [[S, 0, 0], [S, 0]]}],
        "word": [{"min_degree": 0, "coeffs": ["half", [S, 0]]}],
        "points": {"points": jsonio.encode_cvector(roots4), "sigma": sigma},
        "points_cycle": {"points": jsonio.encode_cvector(roots4), "sigma": [1, 0, 3, 2]},
        "haar_values": {"filters": [jsonio.encode_cvector(m) for m in haar]},
        "one_filter": {"filters": [jsonio.encode_cvector(haar[0])]},
        "kernel": {"matrix": jsonio.encode_cmatrix(kernel)},
        "kernel_eye": {"matrix": jsonio.encode_cmatrix(np.eye(4))},
        "kernel_ragged": {"matrix": jsonio.encode_cmatrix(np.eye(4))[:3] + [[[1, 0]]]},
    }


CIRCLE_RKHS_CASES = {
    "circle verify haar": ["circle", "verify", "--filters", "{haar}", "--N", "2"],
    "circle verify haar list": ["circle", "verify", "--filters", "{haar_list}", "--N", "2"],
    "circle verify unit-sum": [
        "circle", "verify", "--filters", "{haar_unit}", "--N", "2", "--convention", "unit-sum",
    ],
    "circle verify unit-sum as averaged": [
        "circle", "verify", "--filters", "{haar_unit}", "--N", "2",
    ],
    "circle verify delayed": ["circle", "verify", "--filters", "{delayed}", "--N", "2"],
    "circle verify phased": ["circle", "verify", "--filters", "{phased}", "--N", "2"],
    "circle verify monomials N=3": ["circle", "verify", "--filters", "{monomials3}", "--N", "3"],
    "circle verify shifts N=3": ["circle", "verify", "--filters", "{shift3}", "--N", "3"],
    "circle verify broken": ["circle", "verify", "--filters", "{broken}", "--N", "2"],
    "circle verify skewed N=2": ["circle", "verify", "--filters", "{skewed}", "--N", "2"],
    "circle verify skewed N=3": [
        "circle", "verify", "--filters", "{skewed}", "--N", "3", "--convention", "unit-sum",
    ],
    "circle verify short": ["circle", "verify", "--filters", "{short}", "--N", "2"],
    "circle verify bare numbers": ["circle", "verify", "--filters", "{bare_numbers}", "--N", "2"],
    "circle verify int pairs": ["circle", "verify", "--filters", "{int_pairs}", "--N", "2"],
    "circle verify 3-element row": ["circle", "verify", "--filters", "{triple}", "--N", "2"],
    "circle verify word": ["circle", "verify", "--filters", "{word}", "--N", "2"],
    "rkhs check product kernel": [
        "rkhs", "check", "--points", "{points}", "--kernel", "{kernel}",
        "--filters", "{haar_values}",
    ],
    "rkhs check preimage": [
        "rkhs", "check", "--points", "{points}", "--kernel", "{kernel}",
        "--filters", "{haar_values}", "--require-preimage",
    ],
    "rkhs check identity kernel": [
        "rkhs", "check", "--points", "{points}", "--kernel", "{kernel_eye}",
        "--filters", "{haar_values}",
    ],
    "rkhs check cycle": [
        "rkhs", "check", "--points", "{points_cycle}", "--kernel", "{kernel}",
        "--filters", "{haar_values}",
    ],
    "rkhs check ragged kernel": [
        "rkhs", "check", "--points", "{points}", "--kernel", "{kernel_ragged}",
        "--filters", "{haar_values}",
    ],
    "rkhs product 3 terms": [
        "rkhs", "product-kernel", "--points", "{points}", "--filters", "{haar_values}",
        "--terms", "3",
    ],
    "rkhs product 30 terms": [
        "rkhs", "product-kernel", "--points", "{points}", "--filters", "{haar_values}",
    ],
    "rkhs product one filter": [
        "rkhs", "product-kernel", "--points", "{points}", "--filters", "{one_filter}",
        "--terms", "4",
    ],
    "rkhs product cycle": [
        "rkhs", "product-kernel", "--points", "{points_cycle}", "--filters", "{haar_values}",
    ],
}

SUITES = {
    "ifs_default": (IFS_CASES, _ifs_inputs),
    "circle_rkhs_default": (CIRCLE_RKHS_CASES, _circle_rkhs_inputs),
}


def run_case(argv: list[str], directory: Path, inputs: dict) -> dict:
    files = {}
    for name, obj in inputs.items():
        files[name] = str(directory / f"{name}.json")
        jsonio.dump_file(files[name], obj)
    buf = StringIO()
    with redirect_stdout(buf):
        code = run([a.format(**files) for a in argv])
    return {"code": code, "stdout": buf.getvalue()}


def _golden(suite: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{suite}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(IFS_CASES))
def test_ifs_default_output_is_golden(name, tmp_path):
    assert run_case(IFS_CASES[name], tmp_path, _ifs_inputs()) == _golden("ifs_default")[name]


@pytest.mark.parametrize("name", sorted(CIRCLE_RKHS_CASES))
def test_circle_rkhs_default_output_is_golden(name, tmp_path):
    got = run_case(CIRCLE_RKHS_CASES[name], tmp_path, _circle_rkhs_inputs())
    assert got == _golden("circle_rkhs_default")[name]


def test_golden_covers_every_ifs_subcommand():
    assert {argv[1] for argv in IFS_CASES.values()} == {
        "build-filter", "verify-filter", "connect", "apply-unitary", "decompose", "endo-check",
    }


if __name__ == "__main__":
    import tempfile

    for suite, (cases, inputs) in SUITES.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = {name: run_case(argv, Path(tmp), inputs()) for name, argv in sorted(cases.items())}
        GOLDEN_DIR.mkdir(exist_ok=True)
        path = GOLDEN_DIR / f"{suite}.json"
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        sys.stdout.write(f"wrote {len(out)} cases to {path}\n")
