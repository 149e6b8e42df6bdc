"""Golden default-JSON output of every subcommand, and the CLI surface.

Each case runs one subcommand without ``--timing`` on small canonical
inputs and compares exit code and stdout byte for byte with a file in
``golden/``: ``ifs_default.json`` for the six ``ifs`` subcommands,
``circle_rkhs_default.json`` for ``circle verify``, ``rkhs check`` and
``rkhs product-kernel``, ``mra_examples_default.json`` for the four
``mra`` subcommands and the two ``examples`` subcommands, and
``circle_solenoid_default.json`` for the other four ``circle``
subcommands, the three ``solenoid`` subcommands and ``examples fractal
--points-out``.  A case whose argv names ``{out}`` also freezes the bytes
of that artifact.  The inputs use exact values (small dyadic fractions,
0, +-1, +-i and 1/sqrt(2)) or correctly rounded ones (the D4 taps), so
they are the same on every platform.  ``examples fractal`` is the
exception to byte equality: its chaos-game samples are sums of
floating-point terms whose grouping is an implementation detail, so its
statistics are compared within 1e-12 relative and everything else in its
output (the points file included) exactly.  ``cli_surface.json`` freezes
every flag of every subcommand: its kind, default, ``required`` and
``choices``.  To rewrite the golden files after a deliberate output
change, run ``PYTHONPATH=src python tests/test_golden_cli.py`` and say
why in CHANGES.md.
"""

import argparse
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import oracle
from wavelab import cli, jsonio
from wavelab.circle_filters import BlaschkeFactor
from wavelab.classic_mra import d4_taps, detail_taps
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
    return MatrixField(spec, entries)


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
        "rand3": FilterBank(u3, [_values(9, s) for s in range(3)]).to_json(),
        "broken2": FilterBank(u2, [[1.0, 1.0]] * 2).to_json(),
        "nan2": FilterBank(u2, [nan_vals, build_indicator(u2).values[1]]).to_json(),
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

def _signal_text(values, columns: int = 2, blank_every: int = 0) -> str:
    """A signal CSV with one (re) or two (re,im) columns, blank lines optional."""
    lines = []
    for i, z in enumerate(np.asarray(values).tolist()):
        if blank_every and i % blank_every == 0:
            lines.append("")
        lines.append(f"{z.real!r},{z.imag!r}" if columns == 2 else f"{z.real!r}")
    return "\n".join(lines) + "\n"


def _mra_examples_inputs() -> dict:
    d4 = d4_taps()
    haar = np.array([S, S])
    x16 = _values(16, 6)
    x32 = _values(32, 7)
    return {
        "haar_taps": {"taps": jsonio.encode_cvector(haar)},
        "d4_taps": {"taps": jsonio.encode_cvector(d4)},
        "d4_list": jsonio.encode_cvector(d4),
        "d4_detail": {"taps": jsonio.encode_cvector(detail_taps(d4))},
        "hat_taps": {"taps": jsonio.encode_cvector(np.array([0.5, 1.0, 0.5]) * S)},
        "box3_taps": {"taps": jsonio.encode_cvector(np.ones(3) / np.sqrt(3.0))},
        "growing_taps": {"taps": jsonio.encode_cvector(np.array([1.5, -0.5]) * 2 * S)},
        "bad_taps": {"taps": [[1, 0], [0, 0]]},
        "haar_bank": {"analysis": [jsonio.encode_cvector(haar), jsonio.encode_cvector([S, -S])]},
        "d4_bank": {
            "analysis": [jsonio.encode_cvector(d4), jsonio.encode_cvector(detail_taps(d4))],
        },
        "haar_delayed": {
            "analysis": [jsonio.encode_cvector(haar), jsonio.encode_cvector([S, -S])],
            "analysis_offsets": [1, 1],
            "synthesis_offsets": [1, 1],
        },
        "haar_scaled": {
            "analysis": [jsonio.encode_cvector(haar), jsonio.encode_cvector([1.25 * S, -1.25 * S])],
            "synthesis": [jsonio.encode_cvector(haar), jsonio.encode_cvector([S, -S])],
        },
        "lazy3": {"analysis": [[[1, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0]]]},
        "x16": _signal_text(x16),
        "x16_real": _signal_text(x16, columns=1),
        "x32_blank": _signal_text(x32, blank_every=5),
        "x24": _signal_text(_values(24, 8)),
        "x15": _signal_text(_values(15, 9)),
        "haar_m0": _laurent(0, [S, S]),
        "d4_m0": _laurent(0, d4),
        "flat_m0": _laurent(0, [0.5, 0.5]),
        "sierpinski": {"A": [[2, 0], [0, 2]], "digits": [[0, 0], [1, 0], [0, 1]]},
        "binary": {"A": [[2]], "digits": [[0], [1]]},
        "twin_dragon": {"A": [[1, -1], [1, 1]], "digits": [[0, 0], [1, 0]]},
        "skew3": {
            "A": [[2, 1, 0], [0, 2, 0], [0, 0, 3]],
            "digits": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 2]],
            "weights": [0.25, 0.125, 0.125, 0.25, 0.25],
        },
    }


MRA_EXAMPLES_CASES = {
    "cascade haar": [
        "mra", "cascade", "--taps", "{haar_taps}", "--iters", "5", "--resolution", "8",
        "--out", "{out}",
    ],
    "cascade d4 40 steps": [
        "mra", "cascade", "--taps", "{d4_taps}", "--iters", "40", "--resolution", "16",
        "--out", "{out}",
    ],
    "cascade d4 bare list": [
        "mra", "cascade", "--taps", "{d4_list}", "--iters", "40", "--resolution", "4",
    ],
    "cascade d4 defaults": ["mra", "cascade", "--taps", "{d4_taps}"],
    "cascade hat 40 steps": [
        "mra", "cascade", "--taps", "{hat_taps}", "--iters", "40", "--resolution", "16",
    ],
    "cascade hat 12 steps": [
        "mra", "cascade", "--taps", "{hat_taps}", "--iters", "12", "--resolution", "8",
    ],
    "cascade box N=3": [
        "mra", "cascade", "--taps", "{box3_taps}", "--N", "3", "--resolution", "9",
        "--out", "{out}",
    ],
    "cascade growing": ["mra", "cascade", "--taps", "{growing_taps}", "--resolution", "8"],
    "cascade bad taps": ["mra", "cascade", "--taps", "{bad_taps}", "--resolution", "8"],
    "cascade dilation 1": ["mra", "cascade", "--taps", "{haar_taps}", "--N", "1"],
    "wavelet haar": [
        "mra", "wavelet", "--taps", "{haar_taps}", "--iters", "5", "--resolution", "8",
        "--out", "{out}",
    ],
    "wavelet d4 40 steps": [
        "mra", "wavelet", "--taps", "{d4_taps}", "--iters", "40", "--resolution", "8",
        "--out", "{out}",
    ],
    "wavelet d4 given detail": [
        "mra", "wavelet", "--taps", "{d4_taps}", "--detail-taps", "{d4_detail}",
        "--iters", "40", "--resolution", "4",
    ],
    "wavelet d4 defaults": ["mra", "wavelet", "--taps", "{d4_taps}", "--resolution", "16"],
    "filterbank haar": [
        "mra", "filterbank", "--signal", "{x16}", "--taps", "{haar_bank}", "--out", "{out}",
    ],
    "filterbank haar one column": [
        "mra", "filterbank", "--signal", "{x16_real}", "--taps", "{haar_bank}", "--out", "{out}",
    ],
    "filterbank d4 blank lines": [
        "mra", "filterbank", "--signal", "{x32_blank}", "--taps", "{d4_bank}", "--out", "{out}",
    ],
    "filterbank haar offsets": [
        "mra", "filterbank", "--signal", "{x16}", "--taps", "{haar_delayed}",
    ],
    "filterbank scaled analysis": [
        "mra", "filterbank", "--signal", "{x16}", "--taps", "{haar_scaled}",
    ],
    "filterbank lazy N=3": [
        "mra", "filterbank", "--signal", "{x24}", "--taps", "{lazy3}", "--N", "3",
        "--out", "{out}",
    ],
    "filterbank length 15": ["mra", "filterbank", "--signal", "{x15}", "--taps", "{haar_bank}"],
    "product haar t=0": ["mra", "product", "--m0", "{haar_m0}", "--t", "0"],
    "product haar t=1": ["mra", "product", "--m0", "{haar_m0}", "--t", "1", "--terms", "10"],
    "product d4 t=0.5": ["mra", "product", "--m0", "{d4_m0}", "--t", "0.5"],
    "product no terms": ["mra", "product", "--m0", "{d4_m0}", "--t", "2", "--terms", "0"],
    "product flat m0": ["mra", "product", "--m0", "{flat_m0}", "--t", "1"],
    "logistic defaults": ["examples", "logistic"],
    "logistic degree 4": ["examples", "logistic", "--degree", "4", "--nodes", "16"],
    "logistic degree 20": ["examples", "logistic", "--degree", "20", "--nodes", "256"],
    "logistic too few nodes": ["examples", "logistic", "--degree", "8", "--nodes", "8"],
    "fractal sierpinski": [
        "examples", "fractal", "--ifs", "{sierpinski}", "--samples", "10000", "--seed", "7",
    ],
    "fractal binary": [
        "examples", "fractal", "--ifs", "{binary}", "--samples", "10000", "--seed", "3",
    ],
    "fractal twin dragon": [
        "examples", "fractal", "--ifs", "{twin_dragon}", "--samples", "10000", "--seed", "5",
        "--moment-order", "1",
    ],
    "fractal weighted 3-d": [
        "examples", "fractal", "--ifs", "{skew3}", "--samples", "10000", "--seed", "11",
    ],
    "fractal tight bound": [
        "examples", "fractal", "--ifs", "{sierpinski}", "--samples", "10000", "--seed", "7",
        "--z-bound", "0.5",
    ],
    "fractal too few samples": [
        "examples", "fractal", "--ifs", "{sierpinski}", "--samples", "100", "--seed", "7",
    ],
}


def _blaschke(projection, a, power: int = 2, left=None) -> dict:
    return oracle.blaschke_product([BlaschkeFactor(np.array(projection), a, power)], left).to_json()


def _circle_solenoid_inputs() -> dict:
    d4 = d4_taps()
    u2, w2 = IfsSpec(2), IfsSpec(2, (0.25, 0.75))
    m2, m2w = build_indicator(u2).filters[0], build_indicator(w2).filters[0]
    roots = build_roots_of_unity(u2).filters[1]
    f, g = CylinderFn(u2, 1, _values(2, 1)), CylinderFn(u2, 1, _values(2, 2))
    f_deep = CylinderFn(u2, 2, _values(4, 3))
    fw, gw = CylinderFn(w2, 1, _values(2, 4)), CylinderFn(w2, 2, _values(4, 5))
    half = [[0.5, 0.5], [0.5, 0.5]]
    return {
        "haar_m0": _laurent(0, [S, S]),
        "haar_m0_unit": _laurent(0, [0.5, 0.5]),
        "d4_m0": _laurent(0, d4),
        "shifted_m0_unit": _laurent(-1, [0.25, 0.5, 0.25]),
        "broken_m0_unit": _laurent(0, [0.5, 0.25]),
        "haar": {"filters": [_laurent(0, [S, S]), _laurent(0, [S, -S])]},
        "monomials3": [_laurent(-1, [1]), _laurent(0, [1]), _laurent(1, [1])],
        "skewed": [_laurent(-1, [0.375 + 0.625j, 0.25, -0.125j]), _laurent(0, [0.5, -0.75 + 0.5j])],
        "short": [_laurent(0, [S, S])],
        "bl_zero": _blaschke(np.diag([1.0, 0.0]), 0.0),
        "bl_half": _blaschke(half, 0.5),
        "bl_inf": _blaschke(np.diag([0.0, 1.0]), None),
        "bl_cube": _blaschke(np.diag([1.0, 0.0]), -0.5j, 3),
        "bl_phased": _blaschke(half, 0.25 + 0.5j, 2, np.array([[0, 1j], [1, 0]])),
        "bl_empty": {"V": jsonio.encode_cmatrix([[S, S], [S, -S]]), "factors": []},
        "bl_not_projection": {
            "V": jsonio.encode_cmatrix(np.eye(2)),
            "factors": [{"P": jsonio.encode_cmatrix([[1, 1], [0, 0]]), "a": [0, 0], "power": 2}],
        },
        "moment_indicator": {
            "spec": u2.to_json(), "W": m2.abs2().to_json(), "h": "auto",
            "coords": [f.to_json(), g.to_json()],
        },
        "moment_weighted": {
            "spec": w2.to_json(), "W": m2w.abs2().to_json(), "h": "auto",
            "coords": [fw.to_json(), gw.to_json(), fw.to_json()],
        },
        "moment_roots_explicit_h": {
            "spec": u2.to_json(), "W": roots.abs2().to_json(),
            "h": CylinderFn.ones(u2).to_json(), "coords": [f_deep.to_json()],
        },
        "moment_no_coords": {"spec": u2.to_json(), "W": m2.abs2().to_json(), "coords": []},
        "moment_no_weight": {"spec": u2.to_json(), "coords": [f.to_json()]},
        "dilation_indicator": {
            "m": m2.to_json(), "f": f.to_json(), "g": g.to_json(), "orders": [-3, -2, -1, 0, 1, 2],
        },
        "dilation_weighted": {"m": m2w.to_json(), "f": fw.to_json(), "g": gw.to_json(), "n": -1},
        "dilation_roots": {
            "m": roots.to_json(), "f": f_deep.to_json(), "g": g.to_json(), "orders": [-2, 3],
        },
        "dilation_default_order": {"m": m2.to_json(), "f": f_deep.to_json(), "g": f.to_json()},
        "axioms_indicator": {"m": m2.to_json(), "f": f.to_json(), "g": g.to_json()},
        "axioms_weighted": {"m": m2w.to_json(), "f": fw.to_json(), "g": gw.to_json()},
        "axioms_roots": {"m": roots.to_json(), "f": f_deep.to_json(), "g": g.to_json()},
        "axioms_no_g": {"m": m2.to_json(), "f": f.to_json()},
        "sierpinski": {"A": [[2, 0], [0, 2]], "digits": [[0, 0], [1, 0], [0, 1]]},
        "binary": {"A": [[2]], "digits": [[0], [1]], "weights": [0.25, 0.75]},
    }


CIRCLE_SOLENOID_CASES = {
    "cqf haar unit-sum": ["circle", "cqf-complete", "--m0", "{haar_m0_unit}", "--grid", "8"],
    "cqf haar unit-sum out": [
        "circle", "cqf-complete", "--m0", "{haar_m0_unit}", "--out", "{out}",
    ],
    "cqf haar averaged": [
        "circle", "cqf-complete", "--m0", "{haar_m0}", "--convention", "averaged", "--grid", "8",
    ],
    "cqf d4 averaged": [
        "circle", "cqf-complete", "--m0", "{d4_m0}", "--convention", "averaged",
        "--grid", "16", "--out", "{out}",
    ],
    "cqf d4 as unit-sum": ["circle", "cqf-complete", "--m0", "{d4_m0}", "--grid", "16"],
    "cqf shifted unit-sum": ["circle", "cqf-complete", "--m0", "{shifted_m0_unit}", "--grid", "12"],
    "cqf broken unit-sum": ["circle", "cqf-complete", "--m0", "{broken_m0_unit}", "--grid", "8"],
    "matrix haar": [
        "circle", "matrix", "--filters", "{haar}", "--N", "2", "--grid", "8", "--csv", "{out}",
    ],
    "matrix haar defaults": ["circle", "matrix", "--filters", "{haar}", "--N", "2"],
    "matrix monomials N=3": [
        "circle", "matrix", "--filters", "{monomials3}", "--N", "3", "--grid", "9",
        "--csv", "{out}",
    ],
    "matrix skewed": [
        "circle", "matrix", "--filters", "{skewed}", "--N", "2", "--grid", "6", "--csv", "{out}",
    ],
    "matrix short": ["circle", "matrix", "--filters", "{short}", "--N", "2", "--grid", "4"],
    "blaschke a=0": ["circle", "blaschke", "--factors", "{bl_zero}", "--grid", "8", "--csv", "{out}"],
    "blaschke half projection": [
        "circle", "blaschke", "--factors", "{bl_half}", "--grid", "8", "--csv", "{out}",
    ],
    "blaschke infinity": ["circle", "blaschke", "--factors", "{bl_inf}"],
    "blaschke cube band 3": [
        "circle", "blaschke", "--factors", "{bl_cube}", "--grid", "12", "--csv", "{out}",
    ],
    "blaschke cube band 2": ["circle", "blaschke", "--factors", "{bl_cube}", "--band", "2"],
    "blaschke phased": ["circle", "blaschke", "--factors", "{bl_phased}", "--grid", "16"],
    "blaschke no factors": ["circle", "blaschke", "--factors", "{bl_empty}", "--grid", "4"],
    "blaschke not a projection": ["circle", "blaschke", "--factors", "{bl_not_projection}"],
    "loop-act zero on half": [
        "circle", "loop-act", "--g-factors", "{bl_zero}", "--u-factors", "{bl_half}",
        "--N", "2", "--grid", "8",
    ],
    "loop-act phased on infinity": [
        "circle", "loop-act", "--g-factors", "{bl_phased}", "--u-factors", "{bl_inf}", "--N", "2",
    ],
    "loop-act cube on zero": [
        "circle", "loop-act", "--g-factors", "{bl_cube}", "--u-factors", "{bl_zero}",
        "--N", "2", "--grid", "12",
    ],
    "loop-act N=3": [
        "circle", "loop-act", "--g-factors", "{bl_zero}", "--u-factors", "{bl_half}", "--N", "3",
    ],
    "moment indicator": ["solenoid", "moment", "--file", "{moment_indicator}"],
    "moment weighted order 2": ["solenoid", "moment", "--file", "{moment_weighted}"],
    "moment roots explicit h": ["solenoid", "moment", "--file", "{moment_roots_explicit_h}"],
    "moment no coords": ["solenoid", "moment", "--file", "{moment_no_coords}"],
    "moment no weight": ["solenoid", "moment", "--file", "{moment_no_weight}"],
    "dilation indicator": ["solenoid", "dilation", "--file", "{dilation_indicator}"],
    "dilation weighted n=-1": ["solenoid", "dilation", "--file", "{dilation_weighted}"],
    "dilation roots": ["solenoid", "dilation", "--file", "{dilation_roots}", "--tol", "1e-14"],
    "dilation default order": ["solenoid", "dilation", "--file", "{dilation_default_order}"],
    "axioms indicator": ["solenoid", "axioms", "--file", "{axioms_indicator}"],
    "axioms weighted": ["solenoid", "axioms", "--file", "{axioms_weighted}"],
    "axioms roots": ["solenoid", "axioms", "--file", "{axioms_roots}"],
    "axioms no g": ["solenoid", "axioms", "--file", "{axioms_no_g}"],
    "fractal sierpinski points": [
        "examples", "fractal", "--ifs", "{sierpinski}", "--samples", "10000", "--seed", "7",
        "--max-points", "200", "--points-out", "{out}",
    ],
    "fractal weighted binary points": [
        "examples", "fractal", "--ifs", "{binary}", "--samples", "10000", "--seed", "3",
        "--max-points", "64", "--points-out", "{out}",
    ],
    "fractal no points": [
        "examples", "fractal", "--ifs", "{binary}", "--samples", "10000", "--seed", "3",
        "--max-points", "0", "--points-out", "{out}",
    ],
}

SUITES = {
    "ifs_default": (IFS_CASES, _ifs_inputs),
    "circle_rkhs_default": (CIRCLE_RKHS_CASES, _circle_rkhs_inputs),
    "mra_examples_default": (MRA_EXAMPLES_CASES, _mra_examples_inputs),
    "circle_solenoid_default": (CIRCLE_SOLENOID_CASES, _circle_solenoid_inputs),
}


def _kind(action: argparse.Action) -> str:
    """flag for a switch, int or float for a number, str for any other text."""
    if action.nargs == 0:
        return "flag"
    value = action.type("1") if action.type else "1"
    return type(value).__name__ if type(value) in (int, float) else "str"


def _flags(parser: argparse.ArgumentParser) -> dict:
    return {
        action.option_strings[0]: {
            "kind": _kind(action),
            "default": action.default,
            "required": action.required,
            "choices": None if action.choices is None else list(action.choices),
        }
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def surface(parser: argparse.ArgumentParser) -> str:
    """Every flag of the parser and of each "group command" subparser, as JSON text."""
    out = {"": _flags(parser)}
    (groups,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for group, group_parser in groups.choices.items():
        (commands,) = [a for a in group_parser._actions if isinstance(a, argparse._SubParsersAction)]
        for command, command_parser in commands.choices.items():
            out[f"{group} {command}"] = _flags(command_parser)
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def run_case(argv: list[str], directory: Path, inputs: dict) -> dict:
    """Exit code and stdout of one case; text inputs are written as .csv files."""
    files = {"out": str(directory / "artifact.csv")}
    for name, obj in inputs.items():
        if isinstance(obj, str):
            files[name] = str(directory / f"{name}.csv")
            Path(files[name]).write_bytes(obj.encode("utf-8"))
        else:
            files[name] = str(directory / f"{name}.json")
            jsonio.dump_file(files[name], obj)
    out = Path(files["out"])
    out.unlink(missing_ok=True)
    buf = StringIO()
    with redirect_stdout(buf):
        code = run([a.format(**files) for a in argv])
    result = {"code": code, "stdout": buf.getvalue()}
    if "{out}" in argv:
        result["artifact"] = out.read_bytes().decode("utf-8") if out.exists() else None
    return result


def _golden(suite: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{suite}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(IFS_CASES))
def test_ifs_default_output_is_golden(name, tmp_path):
    assert run_case(IFS_CASES[name], tmp_path, _ifs_inputs()) == _golden("ifs_default")[name]


@pytest.mark.parametrize("name", sorted(CIRCLE_RKHS_CASES))
def test_circle_rkhs_default_output_is_golden(name, tmp_path):
    got = run_case(CIRCLE_RKHS_CASES[name], tmp_path, _circle_rkhs_inputs())
    assert got == _golden("circle_rkhs_default")[name]


def _floats_close(got, want) -> bool:
    """Equal structure and exact non-floats; floats within 1e-12 relative."""
    if isinstance(want, float):
        return isinstance(got, float) and got == pytest.approx(want, rel=1e-12)
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_floats_close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_floats_close, got, want))
    return got == want


def _assert_golden(argv: list[str], got: dict, want: dict) -> None:
    if argv[1] == "fractal" and want["stdout"]:
        assert got["code"] == want["code"]
        assert _floats_close(json.loads(got["stdout"]), json.loads(want["stdout"]))
        assert got.get("artifact") == want.get("artifact")
    else:
        assert got == want


@pytest.mark.parametrize("name", sorted(MRA_EXAMPLES_CASES))
def test_mra_examples_default_output_is_golden(name, tmp_path):
    got = run_case(MRA_EXAMPLES_CASES[name], tmp_path, _mra_examples_inputs())
    _assert_golden(MRA_EXAMPLES_CASES[name], got, _golden("mra_examples_default")[name])


@pytest.mark.parametrize("name", sorted(CIRCLE_SOLENOID_CASES))
def test_circle_solenoid_default_output_is_golden(name, tmp_path):
    got = run_case(CIRCLE_SOLENOID_CASES[name], tmp_path, _circle_solenoid_inputs())
    _assert_golden(CIRCLE_SOLENOID_CASES[name], got, _golden("circle_solenoid_default")[name])


def test_cli_surface_is_golden():
    assert surface(cli._parser()) == (GOLDEN_DIR / "cli_surface.json").read_text(encoding="utf-8")


def test_golden_covers_every_ifs_subcommand():
    assert {argv[1] for argv in IFS_CASES.values()} == {
        "build-filter", "verify-filter", "connect", "apply-unitary", "decompose", "endo-check",
    }


def test_golden_covers_the_circle_and_solenoid_subcommands():
    covered = {tuple(argv[:2]) for argv in CIRCLE_SOLENOID_CASES.values()}
    assert covered == {
        ("circle", "cqf-complete"), ("circle", "matrix"), ("circle", "blaschke"),
        ("circle", "loop-act"), ("solenoid", "moment"), ("solenoid", "dilation"),
        ("solenoid", "axioms"), ("examples", "fractal"),
    }


def test_golden_covers_every_mra_and_examples_subcommand():
    assert {tuple(argv[:2]) for argv in MRA_EXAMPLES_CASES.values()} == {
        ("mra", "cascade"), ("mra", "wavelet"), ("mra", "filterbank"), ("mra", "product"),
        ("examples", "logistic"), ("examples", "fractal"),
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
    (GOLDEN_DIR / "cli_surface.json").write_text(surface(cli._parser()), encoding="utf-8")
