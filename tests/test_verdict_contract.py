"""The verdict contract: which printed residuals decide ``pass``, and how.

Every key that a command prints under ``residuals`` is in exactly one of two
tables: ``JUDGED``, the residuals that its verdict reads, or
``INFORMATIONAL``, with the reason it does not.  The default rule is that
each judged residual is below the command's one tolerance (so that a NaN
fails); ``RULES`` spells out the commands that judge otherwise.  The
contract is checked over every golden case of every subcommand, read from
``golden/`` (which ``test_golden_cli.py`` holds equal to the live output),
and over a few cases run live that no golden file holds.
"""

import functools
import json
import re
from typing import Callable

import numpy as np
import pytest

from test_golden_cli import SUITES, _golden, _values, run_case
from wavelab import cli
from wavelab.code_space import CylinderFn, IfsSpec
from wavelab.ifs_filters import FilterBank

_FILTER_REPORT = {"orthonormality_residual", "completeness_residual"}
_FILTER_REPORT_INFO = {
    "orthonormality_matrix": "the entries whose maximum is orthonormality_residual",
    "pass": "the report's own verdict, the same rule as the command's",
    "probe_depth": "the --depth option, echoed",
    "tol": "the --tol option, echoed",
}

# command -> the residuals its verdict reads
JUDGED = {
    "ifs build-filter": _FILTER_REPORT,
    "ifs verify-filter": _FILTER_REPORT,
    "ifs connect": {"unitarity"},
    "ifs apply-unitary": _FILTER_REPORT,
    "ifs decompose": {"roundtrip"},
    "ifs endo-check": {"endomorphism"},
    "circle verify": {"orthonormality", "completeness"},
    "circle cqf-complete": {"grid_unitarity", "power_sum"},
    "circle matrix": {"grid_unitarity", "shift_relation"},
    "circle blaschke": {"grid_unitarity", "periodicity"},
    "circle loop-act": {"result_unitarity"},
    "mra cascade": set(),
    "mra wavelet": {"detail_mean"},
    "mra filterbank": {"perfect_reconstruction", "energy"},
    "mra product": set(),
    "solenoid moment": {"probability_normalization"},
    "solenoid dilation": {"order_<n>"},
    "solenoid axioms": {"covariance", "scaling_identity", "isometry", "measure_change"},
    "rkhs check": {"refinement", "preimage_orthogonality"},
    "rkhs product-kernel": {"tail_bound"},
    "examples logistic": {"invariance", "quadrature"},
    "examples fractal": {"max_abs_z"},
}

# command -> {residual: why the verdict does not read it}
INFORMATIONAL = {
    "ifs build-filter": _FILTER_REPORT_INFO,
    "ifs verify-filter": _FILTER_REPORT_INFO,
    "ifs apply-unitary": _FILTER_REPORT_INFO,
    "ifs decompose": {
        "energy": "leaf energies sum to the input's only for an orthonormal bank,"
        " which decompose does not require",
    },
    "circle loop-act": {
        "acting_map_unitarity": "G is a validated Blaschke product, unitary by"
        " construction, so only a --tol between the two residuals could make"
        " this one decide; the result's unitarity is judged",
    },
    "mra cascade": {
        "last_sup_diff": "the verdict reads the geometric tail bound through"
        " results.converged, not the last difference",
        "integral_error": "the tap sum, checked on input, fixes the mass; this"
        " reports its rounding",
    },
    "mra product": {
        "tail": "the last factor's change |value_K - value_(K-1)|, reported to"
        " choose --terms by: the command evaluates the product, it verifies nothing",
    },
    "rkhs product-kernel": {
        "refinement": "the built kernel refines by construction up to its"
        " tail, which tail_bound judges",
    },
}


def _below(out: dict) -> bool:
    """Each judged residual below the command's one tolerance; NaN is never below."""
    (tol,) = set(out["tolerances"].values())
    return all(v < tol for k, v in out["residuals"].items() if _key(k) in JUDGED[out["command"]])


def _signal_peak(argv: list[str], inputs: dict) -> float:
    """The largest |x| of the signal CSV that the case's --signal names."""
    text = inputs[argv[argv.index("--signal") + 1].strip("{}")]
    rows = [[float(v) for v in line.split(",")] for line in text.splitlines() if line]
    return max(abs(complex(*row)) for row in rows)


def _filterbank(out: dict, argv: list[str], inputs: dict) -> bool:
    """Both bounds scale: perfect reconstruction by the peak, energy by energy_in."""
    tol, r = out["tolerances"]["perfect_reconstruction"], out["residuals"]
    return (r["perfect_reconstruction"] < tol * max(1.0, _signal_peak(argv, inputs))
            and r["energy"] < tol * max(1.0, out["results"]["energy_in"]))


# command -> pass as a function of (output, argv, inputs), where not _below
RULES = {
    "circle verify": lambda out, argv, inputs: (
        out["results"]["filter_count"] == out["results"]["band"] and _below(out)
    ),
    "mra cascade": lambda out, argv, inputs: out["results"]["converged"],
    "mra wavelet": lambda out, argv, inputs: out["results"]["converged"] and _below(out),
    "mra filterbank": _filterbank,
    "mra product": lambda out, argv, inputs: True,
    "rkhs product-kernel": lambda out, argv, inputs: (
        out["results"]["orbits_reach_fixed_point"] and _below(out)
    ),
}


def _key(name: str) -> str:
    """A residual's table key: dilation's order_-2, order_3, ... are one, order_<n>."""
    return re.sub(r"^order_-?\d+$", "order_<n>", name)


@functools.cache
def _inputs(suite: str) -> dict:
    return SUITES[suite][1]()


def _assert_contract(code: int, stdout: str, argv: list[str], inputs: dict) -> None:
    if code == 2:  # a usage error writes no result line
        assert stdout == ""
        return
    out = json.loads(stdout)
    command = out["command"]
    if "error" in out:  # a VerificationError stops the command before its residuals
        assert "residuals" not in out and out["pass"] is False
    else:
        for key in out["residuals"]:
            judged = _key(key) in JUDGED[command]
            informational = key in INFORMATIONAL.get(command, {})
            assert judged != informational, f"{command}: {key} must be in exactly one table"
        want = RULES.get(command, lambda out, argv, inputs: _below(out))(out, argv, inputs)
        assert out["pass"] is bool(want)
    assert code == (0 if out["pass"] else 1)


GOLDEN_CASES = [(suite, name) for suite, (cases, _) in SUITES.items() for name in sorted(cases)]


@pytest.mark.parametrize("suite, name", GOLDEN_CASES)
def test_golden_verdict_follows_the_contract(suite, name):
    got = _golden(suite)[name]
    _assert_contract(got["code"], got["stdout"], SUITES[suite][0][name], _inputs(suite))


def _aliased_m0() -> dict:
    """0.2 + 0.5 z + 0.3 z**512: its z**512 term aliases onto z**0 on a 256-point grid."""
    coeffs = np.zeros((513, 2))
    coeffs[[0, 1, 512], 0] = [0.2, 0.5, 0.3]
    return {"min_degree": 0, "coeffs": coeffs.tolist()}


def _non_bank_decompose() -> dict:
    """An N = 2, depth-2 bank that is no filter bank, and a depth-3 f."""
    spec = IfsSpec(2)
    return {
        "bank": FilterBank(spec, [_values(4, s) for s in range(2)]).to_json(),
        "f": CylinderFn(spec, 3, _values(8, 5)).to_json(),
    }


def _golden_at_tol(suite: str, name: str, tol: str) -> tuple[list[str], Callable[[], dict]]:
    """A golden case's argv and inputs, rerun at another --tol."""
    return SUITES[suite][0][name] + ["--tol", tol], functools.partial(_inputs, suite)


# name -> (argv, inputs, exit code): live cases that the goldens do not hold
LIVE_CASES = {
    "cqf-complete aliased power sum": (
        ["circle", "cqf-complete", "--m0", "{m0}"], lambda: {"m0": _aliased_m0()}, 1,
    ),
    # probability_normalization is 2.220446049250313e-16 there, the clause's only failing input
    "moment indicator at tol 1e-16": (
        *_golden_at_tol("circle_solenoid_default", "moment indicator", "1e-16"), 1,
    ),
    # completeness is 0.6875 there: a residual equal to tol fails, as in every verdict
    "circle verify skewed N=2 at tol 0.6875": (
        *_golden_at_tol("circle_rkhs_default", "circle verify skewed N=2", "0.6875"), 1,
    ),
    # each case below fails on one clause alone, which no golden case does
    # one filter for N = 2, an isometry: only len(filters) == N fails at tol 10
    "circle verify short at tol 10": (
        *_golden_at_tol("circle_rkhs_default", "circle verify short", "10"), 1,
    ),
    # converged at 40 steps, but the Haar low pass as detail taps sums to sqrt(2), not 0
    "wavelet d4 with a nonzero detail sum": (
        ["mra", "wavelet", "--taps", "{d4_taps}", "--detail-taps", "{haar_taps}", "--iters", "40",
         "--resolution", "4"],
        functools.partial(_inputs, "mra_examples_default"),
        1,
    ),
    # a 2-cycle never reaches a fixed point, while its tail_bound is 0
    "product-kernel on a 2-cycle": (
        ["rkhs", "product-kernel", "--points", "{points}", "--filters", "{filters}"],
        lambda: {
            "points": {"points": [[1.0, 0.0], [-1.0, 0.0]], "sigma": [1, 0]},
            "filters": {"filters": [[[1.0, 0.0], [1.0, 0.0]]]},
        },
        1,
    ),
    "decompose a non-bank": (
        ["ifs", "decompose", "--bank", "{bank}", "--fn", "{f}", "--levels", "2"],
        _non_bank_decompose,
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(LIVE_CASES))
def test_live_verdict_follows_the_contract(name, tmp_path):
    argv, make_inputs, code = LIVE_CASES[name]
    inputs = make_inputs()
    got = run_case(argv, tmp_path, inputs)
    assert got["code"] == code
    _assert_contract(got["code"], got["stdout"], argv, inputs)


def test_the_tables_cover_every_command_and_each_informational_entry_has_a_reason():
    commands = {f"{group} {command}" for group, table in cli.COMMANDS.items() for command in table}
    assert set(JUDGED) == commands
    assert set(INFORMATIONAL) <= commands
    assert set(RULES) <= commands
    for command, reasons in INFORMATIONAL.items():
        assert not set(reasons) & JUDGED[command]
        assert all(isinstance(why, str) and why for why in reasons.values())


def test_the_goldens_cover_every_command_with_a_result_line():
    printed = {
        json.loads(case["stdout"])["command"]
        for suite in SUITES
        for case in _golden(suite).values()
        if case["stdout"] and "residuals" in json.loads(case["stdout"])
    }
    assert printed == set(JUDGED)
