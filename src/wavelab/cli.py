"""Command-line front end.

One binary, subcommand groups per module:

    ifs      build-filter, verify-filter, connect, apply-unitary,
             decompose, endo-check
    circle   verify, cqf-complete, matrix, blaschke, loop-act
    mra      cascade, wavelet, filterbank, product
    solenoid moment, dilation, axioms
    rkhs     check, product-kernel
    examples logistic, fractal

Every command prints a JSON result with sorted keys to stdout and exits
0 on pass, 1 on verification failure, 2 on a malformed input file or a
bad option (found before any computation); an internal error surfaces as
a traceback.  Artifact flags (--out, --csv, --points-out) write build
products that the matching verify commands accept back.  Timing is
reported only with --timing so that default output stays byte-identical.

A command is one entry of ``COMMANDS``: its options and a compute function
from the parsed arguments to ``(payload, passed)`` that reads each input
file through ``_load``.  ``run`` parses, computes, picks the exit code and
writes the result line, all with the cyclic garbage collector paused.

A command runs only the modules of its own group: the domain modules are
bound lazily (``_lazy``), so importing the CLI, ``--help`` and parsing run
none of them, and each one's code runs when a command first uses it.  The
input rules that groups share (the cell cap, the band count, the branch
weights) come from ``errors``, which every command runs.  The parser of a
launch fills in only the commands of the group its argv names.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import math
import sys
import time
import types
import warnings
from typing import Any, Callable

import numpy as np

from . import jsonio
from .errors import (CellCapError, InputError, VerificationError, band_count, check_cells,
                     held_cell_cap)


def _lazy(name: str) -> types.ModuleType:
    """The module ``wavelab.<name>``, whose code runs on its first attribute access.

    A module already imported is returned as it is: a second module object
    would hold a second copy of each of its classes.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)  # as an import binds a submodule
    return module


cs = _lazy("code_space")
circ = _lazy("circle_filters")
mra = _lazy("classic_mra")
geo = _lazy("examples_geometry")
ifsf = _lazy("ifs_filters")
rkhs = _lazy("rkhs_kernels")
sol = _lazy("solenoid")

# malformed input files, bad options and sizes over the cell cap: exit 2
_USAGE_ERRORS = (InputError, OSError)
_CSV_CHUNK_ROWS = 1 << 14  # one format string per chunk keeps the peak memory flat


def _all_below(tol: float, *residuals: float) -> bool:
    """True when every residual is below tol; a NaN residual is never below."""
    return all(r < tol for r in residuals)


def _write_csv(path: str, header: tuple[str, ...], *columns) -> None:
    """Real columns as "%.17g" fields, comma-separated, with CRLF line ends."""
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        for start in range(0, rows.shape[0], _CSV_CHUNK_ROWS):
            chunk = rows[start : start + _CSV_CHUNK_ROWS]
            fh.write(line * chunk.shape[0] % tuple(chunk.ravel().tolist()))


# ---------------------------------------------------------------------------
# input (one loader for every file, argparse types for the options), then
# the compute functions, one per command: parsed arguments -> (payload, passed)
# ---------------------------------------------------------------------------

def _load(path: str, decode: Callable[[Any], Any], matrix: str = "") -> Any:
    """The JSON file at path, decoded; a malformed file is an InputError naming it."""
    try:
        return jsonio.load_file(path, decode, matrix)
    except CellCapError as exc:  # a well-formed file too large for the cap
        raise InputError(f"{path}: {exc}") from None
    except (InputError, KeyError, TypeError, AttributeError, ValueError) as exc:
        raise InputError(f"malformed {path}: {type(exc).__name__}: {exc}") from None


def _read_signal_csv(path: str) -> np.ndarray:
    """re[,im] per line, blank lines skipped; columns after the second are unused."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file warns before it is rejected
            table = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, quotechar='"')
    except ValueError as exc:
        raise InputError(f"malformed signal in {path}: {exc}") from None
    if table.size == 0:
        raise InputError(f"no samples found in {path}")
    pairs = np.zeros((table.shape[0], 2))
    pairs[:, : min(2, table.shape[1])] = table[:, :2]
    # the (re, im) floats bit for bit, as in jsonio.decode_cvector
    return pairs.view(np.complex128)[:, 0]


def _circle_filters(obj) -> list[circ.LaurentPoly]:
    if isinstance(obj, dict) and "filters" in obj:
        obj = obj["filters"]
    if not isinstance(obj, list):
        raise InputError("circle filter file must hold a list of Laurent polynomials")
    return [circ.LaurentPoly.from_json(item) for item in obj]


def _taps(obj) -> np.ndarray:
    if isinstance(obj, dict) and "taps" in obj:
        obj = obj["taps"]
    return jsonio.decode_cvector(obj)


def _offsets(obj):
    """Integer tap offsets, or a false value for none."""
    if obj and not isinstance(obj, list):
        raise InputError(f"offsets must be a list of integers, got {obj!r}")
    return [jsonio.decode_int(o, "offset") for o in obj] if obj else obj


def _filterbank_spec(obj) -> dict:
    return {
        "analysis_taps": [jsonio.decode_cvector(t) for t in obj["analysis"]],
        "synthesis_taps": [
            jsonio.decode_cvector(t) for t in obj.get("synthesis", obj["analysis"])
        ],
        "analysis_offsets": _offsets(obj.get("analysis_offsets")),
        "synthesis_offsets": _offsets(obj.get("synthesis_offsets")),
    }


def _matrix_field(obj, spec: cs.IfsSpec) -> ifsf.MatrixField:
    if isinstance(obj, dict) and "matrix" in obj:
        return ifsf.MatrixField.from_matrix(spec, jsonio.decode_cmatrix(obj["matrix"]))
    return ifsf.MatrixField.from_json(obj)


def _point_filters(obj, size: int) -> np.ndarray:
    """The filters' values as one read-only (filter, point) array."""
    if isinstance(obj, dict) and "filters" in obj:
        obj = obj["filters"]
    if not isinstance(obj, list):
        raise InputError("filter file must hold a list of value vectors")
    if not obj:
        raise InputError("need at least one filter")
    filters = [jsonio.decode_cvector(values) for values in obj]
    for f in filters:
        if f.shape != (size,):
            raise InputError(f"filter length {f.shape[0]} does not match the {size} points")
    return jsonio.frozen(filters)


def _kernel(obj, size: int) -> rkhs.KernelMatrix:
    kernel = rkhs.KernelMatrix.from_json(obj)
    if kernel.matrix.shape != (size, size):
        raise InputError(
            f"kernel of shape {kernel.matrix.shape} does not match the {size} points"
        )
    return kernel


def _path_triple(obj) -> tuple[cs.CylinderFn, cs.CylinderFn, cs.CylinderFn]:
    return tuple(cs.CylinderFn.from_json(obj[key]) for key in ("m", "f", "g"))


def _dilation_file(obj) -> tuple[tuple[cs.CylinderFn, ...], dict[str, int]]:
    """(m, f, g) and residual name -> order, from "orders", else "n", else order 1."""
    orders = obj.get("orders", [obj.get("n", 1)])
    if not orders:
        raise InputError("a dilation file needs at least one order")
    return _path_triple(obj), {f"order_{n}": jsonio.decode_int(n, "order") for n in orders}


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _weights(text: str) -> tuple[float, ...]:
    """Comma-separated branch weights; an empty string means uniform."""
    return tuple(_finite_float(w) for w in text.split(",")) if text else ()


# builder names, looked up in ifs_filters when a bank is built
_BUILDERS = {"indicator": "build_indicator", "roots": "build_roots_of_unity"}


def _verify_report(args, bank: ifsf.FilterBank, results: dict | None = None) -> tuple[dict, bool]:
    """The verify_filter payload at --depth and --tol, with the bank written to --out."""
    report = ifsf.verify_filter(bank, probe_depth=args.depth, tol=args.tol)
    if getattr(args, "out", None):  # verify-filter has no --out
        jsonio.dump_file(args.out, bank.to_json())
    residuals = {**report.to_json(), "tol": args.tol, "probe_depth": args.depth}
    payload = {"residuals": residuals, "tolerances": {"tol": args.tol}}
    return (payload if results is None else {"results": results, **payload}), report.passed


def _ifs_build(args) -> tuple[dict, bool]:
    bank = getattr(ifsf, _BUILDERS[args.kind])(cs.IfsSpec(args.N, args.weights or ()))
    return _verify_report(args, bank, {"bank": bank.to_json(), "kind": args.kind})


def _ifs_verify(args) -> tuple[dict, bool]:
    return _verify_report(args, _load(args.bank, ifsf.FilterBank.from_json))


def _ifs_connect(args) -> tuple[dict, bool]:
    bank = _load(args.bank, ifsf.FilterBank.from_json)
    target = _load(args.target, ifsf.FilterBank.from_json)
    field = ifsf.connecting_unitary(bank, target, tol=args.tol)
    resid = field.unitarity_residual()
    if args.out:
        jsonio.dump_file(args.out, field.to_json())
    return {
        "results": {"unitary": field.to_json()},
        "residuals": {"unitarity": resid},
        "tolerances": {"unitarity": ifsf.UNITARITY_TOL},
    }, _all_below(ifsf.UNITARITY_TOL, resid)


def _ifs_apply(args) -> tuple[dict, bool]:
    bank = _load(args.bank, ifsf.FilterBank.from_json)
    field = _load(args.unitary, lambda obj: _matrix_field(obj, bank.spec))
    out = ifsf.apply_loop_group(bank, field)
    return _verify_report(args, out, {"bank": out.to_json()})


def _ifs_decompose(args) -> tuple[dict, bool]:
    bank = _load(args.bank, ifsf.FilterBank.from_json)
    fn = _load(args.fn, cs.CylinderFn.from_json)
    leaves = ifsf.multires_decompose(bank, fn, args.levels, mode=args.mode)
    recon = ifsf.multires_reconstruct(bank, leaves)
    roundtrip = cs.sup_distance(recon, fn)
    energy_in = cs.integrate(fn.abs2()).real
    energy_leaves = sum(ifsf.leaf_energies(bank.spec, leaves))
    if args.out:
        jsonio.dump_file(args.out, ifsf.tree_json(bank.spec, leaves))
    return {
        "results": {
            "levels": args.levels,
            "mode": args.mode,
            "leaf_count": sum(len(group) for group in leaves),
            "energy_in": energy_in,
            "energy_leaves": energy_leaves,
        },
        "residuals": {
            "roundtrip": roundtrip,
            "energy": abs(energy_in - energy_leaves),
        },
        "tolerances": {"roundtrip": args.tol},
    }, _all_below(args.tol, roundtrip)


def _ifs_endo(args) -> tuple[dict, bool]:
    bank = _load(args.bank, ifsf.FilterBank.from_json)
    fn = _load(args.fn, cs.CylinderFn.from_json)
    resid = ifsf.endomorphism_check(bank, fn, probe_depth=args.depth)
    return {
        "residuals": {"endomorphism": resid},
        "tolerances": {"endomorphism": args.tol},
    }, _all_below(args.tol, resid)


def _circle_verify(args) -> tuple[dict, bool]:
    filters = _load(args.filters, _circle_filters)
    orthonormality, completeness = circ.cuntz_residuals(
        filters, args.N, convention=args.convention
    )
    # a short filter list can be a family of isometries but never a bank
    passed = len(filters) == args.N and _all_below(args.tol, orthonormality, completeness)
    return {
        "results": {"filter_count": len(filters), "band": args.N},
        "residuals": {"orthonormality": orthonormality, "completeness": completeness},
        "tolerances": {"tol": args.tol},
    }, passed


def _grid_scan(args, n: int, evaluate: Callable, scale=1.0) -> tuple[np.ndarray, np.ndarray, float]:
    """(z, evaluate(z), max over z of |M M* - scale I|) for n x n matrices M on the --grid
    roots of unity z; a command with --csv writes the per-point residuals there."""
    check_cells(args.grid * n * n)
    z = circ.unit_circle_grid(args.grid)
    stack = evaluate(z)
    per_point = circ.unitarity_residuals(stack, scale)
    if getattr(args, "csv", None):
        _write_csv(args.csv, ("angle", "residual"), np.angle(z), per_point)
    return z, stack, float(np.max(per_point))


def _circle_cqf(args) -> tuple[dict, bool]:
    m0 = _load(args.m0, circ.LaurentPoly.from_json)
    matrix = circ.cqf_complete(m0)
    scale = 2.0 / circ._convention_scale(args.convention, 2)  # M M* = 2 I when averaged
    unitarity = _grid_scan(args, 2, lambda z: circ.evaluate_rows(matrix, z), scale)[2]
    power_sum = circ.power_sum_residual(m0, convention=args.convention)
    if args.out:
        jsonio.dump_file(args.out, {"filters": [matrix[0][0].to_json(), matrix[0][1].to_json()]})
    return {
        "results": {
            "matrix": [[e.to_json() for e in row] for row in matrix],
            "convention": args.convention,
        },
        "residuals": {"grid_unitarity": unitarity, "power_sum": power_sum},
        "tolerances": {"grid_unitarity": args.tol},
    }, _all_below(args.tol, unitarity, power_sum)


def _circle_matrix(args) -> tuple[dict, bool]:
    filters = _load(args.filters, _circle_filters)
    eps = circ.root_of_unity(args.N)
    z, stack, unitarity = _grid_scan(args, args.N, lambda z: circ.banded_matrix(filters, args.N, z))
    shift = circ.rotation_residual(stack, circ.banded_matrix(filters, args.N, eps * z), shift=1)
    return {
        "results": {"band": args.N, "grid": args.grid},
        "residuals": {"grid_unitarity": unitarity, "shift_relation": shift},
        "tolerances": {"tol": args.tol},
    }, _all_below(args.tol, unitarity, shift)


def _circle_blaschke(args) -> tuple[dict, bool]:
    product = _load(args.factors, circ.BlaschkeProduct.from_json)
    band = args.band
    if band is None:
        band = product.factors[0].power if product.factors else 2
    eps = circ.root_of_unity(band)
    z, stack, unitarity = _grid_scan(args, product.size, product.eval)
    periodicity = circ.rotation_residual(stack, product.eval(eps * z))
    return {
        "results": {"factor_count": len(product.factors), "band": band},
        "residuals": {"grid_unitarity": unitarity, "periodicity": periodicity},
        "tolerances": {"tol": args.tol},
    }, _all_below(args.tol, unitarity, periodicity)


def _circle_loop(args) -> tuple[dict, bool]:
    """The loop action z -> G(z**N) U(z), with the unitarity of G at the z**N."""
    g = _load(args.g_factors, circ.BlaschkeProduct.from_json)
    u = _load(args.u_factors, circ.BlaschkeProduct.from_json)
    if u.size != g.size:
        raise InputError(
            f"{args.g_factors} is {g.size}x{g.size} but {args.u_factors} is {u.size}x{u.size}"
        )
    n = band_count(args.N)
    z, g_stack, g_unitarity = _grid_scan(args, g.size, lambda z: g.eval(z**n))
    unitarity = float(np.max(circ.unitarity_residuals(g_stack @ u.eval(z))))
    # G is a validated Blaschke product, unitary by construction: its residual
    # and the warning are reported, and the verdict reads the result alone
    return {
        "results": {"non_unitary_warning": not g_unitarity <= args.tol},
        "residuals": {"acting_map_unitarity": g_unitarity, "result_unitarity": unitarity},
        "tolerances": {"tol": args.tol},
    }, _all_below(args.tol, unitarity)


def _mra_cascade(args) -> tuple[dict, bool]:
    taps = _load(args.taps, _taps)
    profile = mra.cascade(
        taps, dilation=args.N, iterations=args.iters, resolution=args.resolution,
        tol=args.tol,
    )
    if args.out:
        _write_csv(args.out, ("x", "phi"), profile.grid(), profile.samples.real)
    return {
        "results": {
            "iterations": profile.iterations,
            "integral": jsonio.encode_complex(profile.integral),
            "sup_diffs": [float(d) for d in profile.sup_diffs],
            "converged": profile.converged,
            "diverged": profile.diverged,
        },
        "residuals": {
            "last_sup_diff": profile.last_sup_diff,
            "integral_error": abs(profile.integral - 1.0),
        },
        "tolerances": {"sup_diff": args.tol},
    }, profile.converged


def _mra_wavelet(args) -> tuple[dict, bool]:
    taps = _load(args.taps, _taps)
    detail = (
        _load(args.detail_taps, _taps)
        if args.detail_taps
        else mra.detail_taps(taps)
    )
    profile = mra.cascade(
        taps, dilation=args.N, iterations=args.iters, resolution=args.resolution,
        tol=args.tol,
    )
    psi = mra.wavelet_detail(profile, detail)
    if args.out:
        _write_csv(args.out, ("x", "psi"), np.arange(psi.shape[0]) / args.resolution, psi.real)
    mean = abs(psi.sum() / args.resolution)
    return {
        "results": {"iterations": profile.iterations, "converged": profile.converged},
        "residuals": {"detail_mean": float(mean)},
        "tolerances": {"detail_mean": 1e-8},
    }, profile.converged and _all_below(1e-8, mean)


def _mra_filterbank(args) -> tuple[dict, bool]:
    signal = _read_signal_csv(args.signal)
    bank = _load(args.taps, _filterbank_spec)
    result = mra.filterbank_roundtrip(signal, n=args.N, **bank)
    if args.out:
        _write_csv(args.out, (), result.reconstruction.real, result.reconstruction.imag)
    # both residuals scale with the signal, so the bounds do too
    peak = float(np.max(np.abs(signal)))
    passed = (
        _all_below(args.tol * max(1.0, peak), result.pr_error)
        and _all_below(args.tol * max(1.0, result.energy_in), result.energy_error)
    )
    return {
        "results": {
            "length": int(signal.shape[0]),
            "bands": len(bank["analysis_taps"]),
            "energy_in": result.energy_in,
            "energy_subbands": result.energy_subbands,
        },
        "residuals": {
            "perfect_reconstruction": result.pr_error,
            "energy": result.energy_error,
        },
        "tolerances": {"perfect_reconstruction": args.tol},
    }, passed


def _mra_product(args) -> tuple[dict, bool]:
    m0 = _load(args.m0, circ.LaurentPoly.from_json)
    value, tail = mra.fourier_product(m0, args.t, args.terms)
    return {
        "results": {"value": jsonio.encode_complex(value), "t": args.t, "terms": args.terms},
        "residuals": {"tail": tail},
        "tolerances": {},
    }, True


def _solenoid_moment(args) -> tuple[dict, bool]:
    ms = _load(args.file, sol.MomentSpec.from_json)
    # "auto" is solved once read: a solve over the cell cap is no malformed file
    h = sol.harmonic_for(ms.weight) if ms.h is None else ms.h
    value = sol.moment(ms.coords, ms.weight, h)
    prob = sol.probability_residual(len(ms.coords) - 1, ms.weight, h)
    return {
        "results": {"value": jsonio.encode_complex(value), "order": len(ms.coords) - 1},
        "residuals": {"probability_normalization": prob},
        "tolerances": {"probability_normalization": args.tol},
    }, _all_below(args.tol, prob)


def _solenoid_dilation(args) -> tuple[dict, bool]:
    (m, f, g), orders = _load(args.file, _dilation_file)
    h = sol.harmonic_for(m.abs2())
    residuals = dict(zip(orders, sol.dilation_residuals(m, f, g, list(orders.values()), h)))
    return {
        "residuals": residuals,
        "tolerances": {"dilation": args.tol},
    }, _all_below(args.tol, *residuals.values())


def _solenoid_axioms(args) -> tuple[dict, bool]:
    m, f, g = _load(args.file, _path_triple)
    conjugation, scaling = sol.shift_covariance_check(m, f, g)
    weight = m.abs2()
    h = sol.harmonic_for(weight)
    extras = {
        "covariance": conjugation,
        "scaling_identity": scaling,
        "isometry": sol.w0_isometry_residual(f, g, weight, h),
        "measure_change": sol.measure_change_residual(
            sol.PathCylinderFn.coordinate(0, f), weight, h
        ),
    }
    return {
        "residuals": extras,
        "tolerances": {"axioms": args.tol},
    }, _all_below(args.tol, *extras.values())


def _rkhs_check(args) -> tuple[dict, bool]:
    pset = _load(args.points, rkhs.FinitePointSet.from_json)
    check_cells(pset.size**2)  # the kernel, before it is read or built
    kernel = _load(args.kernel, lambda obj: _kernel(obj, pset.size), rkhs.KernelMatrix.MEMBER)
    filters = _load(args.filters, lambda obj: _point_filters(obj, pset.size))
    refinement = rkhs.refinement_residual(kernel, filters, pset)
    preimage, skipped = rkhs.preimage_orthogonality(filters, pset)
    residuals = {"refinement": refinement}
    # the fiber Gram identity only makes sense on covering-style sets;
    # it is always reported, but gates the verdict only on request
    if args.require_preimage:
        residuals["preimage_orthogonality"] = float(preimage.max())
    results = {
        "skipped_points": list(skipped),
        "filter_count": len(filters),
        "preimage_orthogonality_residual": float(preimage.max()),
    }
    if len(filters) == 1:
        results["contraction_min_eigenvalue"] = rkhs.contraction_check(
            kernel, filters[0], pset
        )
    return {
        "results": results,
        "residuals": residuals,
        "tolerances": {"tol": args.tol},
    }, _all_below(args.tol, *residuals.values())


def _rkhs_product(args) -> tuple[dict, bool]:
    pset = _load(args.points, rkhs.FinitePointSet.from_json)
    check_cells(pset.size**2)  # the kernel, before it is read or built
    filters = _load(args.filters, lambda obj: _point_filters(obj, pset.size))
    kernel, tail_bound = rkhs.product_kernel(filters, pset, args.terms)
    if args.out:
        jsonio.dump_file(args.out, kernel.to_json())
    refinement = rkhs.refinement_residual(kernel, filters, pset)
    settles = pset.orbits_reach_fixed_point()
    return {
        "results": {"terms": args.terms, "orbits_reach_fixed_point": settles},
        "residuals": {"tail_bound": tail_bound, "refinement": refinement},
        "tolerances": {"tail_bound": args.tol},
    }, _all_below(args.tol, tail_bound) and settles


def _examples_logistic(args) -> tuple[dict, bool]:
    invariance, quadrature = geo.logistic_residuals(args.degree, args.nodes)
    return {
        "results": {"degree": args.degree, "nodes": args.nodes},
        "residuals": {"invariance": invariance, "quadrature": quadrature},
        "tolerances": {"invariance": args.tol},
    }, _all_below(args.tol, invariance, quadrature)


def _examples_fractal(args) -> tuple[dict, bool]:
    ifs = _load(args.ifs, geo.AffineIfs.from_json)
    if args.points_out and args.max_points < 1:
        raise InputError("--max-points must be >= 1")
    report = geo.strong_invariance_check(
        ifs, args.samples, args.seed, moment_order=args.moment_order,
        keep=args.max_points if args.points_out else 0,
    )
    if args.points_out:
        # the first rows of a draw are a shorter draw with the same seed
        _write_csv(args.points_out, (), *report.points.T)
    return {
        "results": {**report.to_json(), "samples": args.samples, "seed": args.seed},
        "residuals": {"max_abs_z": report.max_abs_z},
        "tolerances": {"z_bound": args.z_bound},
        "seed": args.seed,
    }, _all_below(args.z_bound, report.max_abs_z)


# ---------------------------------------------------------------------------
# the command table and its runner
# ---------------------------------------------------------------------------

def _int(flag: str, default: int) -> tuple[str, dict]:
    return (flag, {"type": int, "default": default})


def _choice(flag: str, choices, default: str) -> tuple[str, dict]:
    return (flag, {"choices": list(choices), "default": default})


def _tol(default: float) -> tuple[str, dict]:
    return ("--tol", {"type": _finite_float, "default": default})


_N = ("--N", {"type": int, "required": True})
_N2 = _int("--N", 2)
_GRID = _int("--grid", 256)
_DEPTH = _int("--depth", 3)
_ITERS = _int("--iters", 20)
_RESOLUTION = _int("--resolution", 1024)
_BANK = ("--bank", {"required": True})
_FN = ("--fn", {"required": True})
_FILTERS = ("--filters", {"required": True})
_FILE = ("--file", {"required": True})
_TAPS = ("--taps", {"required": True})
_M0 = ("--m0", {"required": True})
_POINTS = ("--points", {"required": True})
_OUT = ("--out", {})
_CSV = ("--csv", {})
_CONVENTIONS = ("averaged", "unit-sum")
_WEIGHTS = ("--weights", {"type": _weights, "help": "comma-separated branch weights"})

_GROUP_HELP = {
    "ifs": "code-space filter banks",
    "circle": "Laurent filter algebra",
    "mra": "line-case pipelines",
    "solenoid": "path-space moments",
    "rkhs": "kernel conditions",
    "examples": "measure examples",
}

# COMMANDS[group][command] = (compute, [(flag, argparse keywords), ...])
COMMANDS: dict[str, dict[str, tuple[Callable, list]]] = {
    "ifs": {
        "build-filter": (_ifs_build, [
            ("--kind", {"choices": list(_BUILDERS), "required": True}),
            _N, _WEIGHTS, _DEPTH, _tol(1e-12), _OUT,
        ]),
        "verify-filter": (_ifs_verify, [_BANK, _DEPTH, _tol(1e-12)]),
        "connect": (_ifs_connect, [
            _BANK, ("--target", {"required": True}), _tol(1e-10), _OUT,
        ]),
        "apply-unitary": (_ifs_apply, [
            _BANK, ("--unitary", {"required": True}), _DEPTH, _tol(1e-12), _OUT,
        ]),
        "decompose": (_ifs_decompose, [
            _BANK, _FN, ("--levels", {"type": int, "required": True}),
            _choice("--mode", ("packet", "single"), "packet"), _tol(1e-12), _OUT,
        ]),
        "endo-check": (_ifs_endo, [_BANK, _FN, _int("--depth", 2), _tol(1e-13)]),
    },
    "circle": {
        "verify": (_circle_verify, [
            _FILTERS, _N, _choice("--convention", _CONVENTIONS, "averaged"), _tol(1e-13),
        ]),
        "cqf-complete": (_circle_cqf, [
            _M0, _choice("--convention", _CONVENTIONS, "unit-sum"), _GRID, _tol(1e-13), _OUT,
        ]),
        "matrix": (_circle_matrix, [_FILTERS, _N, _GRID, _tol(1e-12), _CSV]),
        "blaschke": (_circle_blaschke, [
            ("--factors", {"required": True}), _GRID, ("--band", {"type": int}),
            _tol(1e-12), _CSV,
        ]),
        "loop-act": (_circle_loop, [
            ("--g-factors", {"required": True}), ("--u-factors", {"required": True}),
            _N, _GRID, _tol(1e-12),
        ]),
    },
    "mra": {
        "cascade": (_mra_cascade, [_TAPS, _N2, _ITERS, _RESOLUTION, _tol(1e-6), _OUT]),
        "wavelet": (_mra_wavelet, [
            _TAPS, ("--detail-taps", {}), _N2, _ITERS, _RESOLUTION, _tol(1e-6), _OUT,
        ]),
        "filterbank": (_mra_filterbank, [
            ("--signal", {"required": True}), _TAPS, _N2, _tol(1e-10), _OUT,
        ]),
        "product": (_mra_product, [
            _M0, ("--t", {"type": _finite_float, "required": True}), _int("--terms", 40),
        ]),
    },
    "solenoid": {
        "moment": (_solenoid_moment, [_FILE, _tol(1e-12)]),
        "dilation": (_solenoid_dilation, [_FILE, _tol(1e-12)]),
        "axioms": (_solenoid_axioms, [_FILE, _tol(1e-12)]),
    },
    "rkhs": {
        "check": (_rkhs_check, [
            _POINTS, ("--kernel", {"required": True}), _FILTERS, _tol(1e-12),
            ("--require-preimage", {"action": "store_true"}),
        ]),
        "product-kernel": (_rkhs_product, [
            _POINTS, _FILTERS, _int("--terms", 30), _tol(1e-10), _OUT,
        ]),
    },
    "examples": {
        "logistic": (_examples_logistic, [
            _int("--degree", 8), _int("--nodes", 64), _tol(1e-12),
        ]),
        "fractal": (_examples_fractal, [
            ("--ifs", {"required": True}),
            ("--samples", {"type": int, "required": True}),
            ("--seed", {"type": int, "required": True}),
            _int("--moment-order", 2),
            ("--z-bound", {"type": _finite_float, "default": 4.0}),
            ("--points-out", {}),
            _int("--max-points", 100_000),
        ]),
    },
}


@functools.cache
def _parser(group: str | None = None) -> argparse.ArgumentParser:
    """The parser, built on first use: every group, with the commands of
    one group filled in, or of all of them when group is None."""
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="filter banks, transfer operators, and multiresolution checks",
    )
    parser.add_argument(
        "--timing", action="store_true", help="include wall_time_ms in the output"
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for name, commands in COMMANDS.items():
        subparsers = groups.add_parser(name, help=_GROUP_HELP[name]).add_subparsers(
            dest="command", required=True
        )
        if group not in (None, name):
            continue
        for command, (compute, options) in commands.items():
            p = subparsers.add_parser(command)
            for flag, spec in options:
                p.add_argument(flag, **spec)
            p.set_defaults(compute=compute)
    return parser


def _group(argv: list[str]) -> str | None:
    """The group that argv names after its leading options, or None."""
    for arg in argv:
        if not arg.startswith("-"):
            return arg if arg in COMMANDS else None
    return None


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    enabled = gc.isenabled()
    gc.disable()  # file trees, arrays and payloads hold no cycles: collections find nothing
    try:
        try:
            args = _parser(_group(argv)).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        start = time.perf_counter()
        try:
            # a bad WAVELAB_MAX_CELLS fails every command before any file is read;
            # non-finite values reach and fail the residuals
            with held_cell_cap(), np.errstate(all="ignore"):
                payload, passed = args.compute(args)
        except VerificationError as exc:
            payload, passed = {"error": str(exc)}, False
        except _USAGE_ERRORS as exc:
            sys.stderr.write(f"wavelab: {exc}\n")
            return 2
        result = {"command": f"{args.group} {args.command}", "pass": bool(passed), **payload}
        if args.timing:
            result["wall_time_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        sys.stdout.write(jsonio.dumps(result) + "\n")
        return 0 if passed else 1
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
