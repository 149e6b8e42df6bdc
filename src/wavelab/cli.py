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
0 on pass, 1 on verification failure, 2 on input or usage problems.
Artifact flags (--out, --csv, --points-out) write build products that the
matching verify commands accept back.  Timing is reported only with
--timing so that default output stays byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Callable

import numpy as np

from . import jsonio
from .errors import (
    CapacityError,
    ConvergenceError,
    InputError,
    ModuleBasisError,
    PreconditionError,
    UnsupportedConstructionError,
    VerificationError,
    WavelabError,
)
from .code_space import CylinderFn, IfsSpec
from . import circle_filters as circ
from . import classic_mra as mra
from . import examples_geometry as geo
from . import ifs_filters as ifsf
from . import rkhs_kernels as rkhs
from . import solenoid as sol

_FAIL_ERRORS = (
    PreconditionError,
    ConvergenceError,
    ModuleBasisError,
    VerificationError,
)
_USAGE_ERRORS = (
    InputError,
    UnsupportedConstructionError,
    CapacityError,
    OSError,
    json.JSONDecodeError,
    KeyError,
    ValueError,
)


def _emit(command: str, payload: dict, passed: bool, timing_ms: float | None) -> int:
    result = {"command": command, "pass": bool(passed)}
    result.update(payload)
    if timing_ms is not None:
        result["wall_time_ms"] = round(timing_ms, 3)
    sys.stdout.write(jsonio.dumps(result) + "\n")
    return 0 if passed else 1


def _all_below(tol: float, *residuals: float) -> bool:
    """True when every residual is below tol; a NaN residual is never below."""
    return all(r < tol for r in residuals)


def _write_grid_csv(path: str, n_grid: int, residuals: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle", "residual"])
        for z, r in zip(circ.unit_circle_grid(n_grid), residuals):
            writer.writerow([f"{np.angle(z):.17g}", f"{r:.17g}"])


def _load_bank(path: str) -> ifsf.FilterBank:
    return ifsf.FilterBank.from_json(jsonio.load_file(path))


def _load_fn(path: str) -> CylinderFn:
    return CylinderFn.from_json(jsonio.load_file(path))


def _load_circle_filters(path: str) -> list[circ.LaurentPoly]:
    obj = jsonio.load_file(path)
    if isinstance(obj, dict) and "filters" in obj:
        obj = obj["filters"]
    if not isinstance(obj, list):
        raise InputError("circle filter file must hold a list of Laurent polynomials")
    return [circ.LaurentPoly.from_json(item) for item in obj]


def _load_taps(path: str) -> np.ndarray:
    obj = jsonio.load_file(path)
    if isinstance(obj, dict) and "taps" in obj:
        obj = obj["taps"]
    return jsonio.decode_cvector(obj)


def _read_signal_csv(path: str) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            re_part = float(row[0])
            im_part = float(row[1]) if len(row) > 1 else 0.0
            values.append(complex(re_part, im_part))
    if not values:
        raise InputError(f"no samples found in {path}")
    return np.array(values, dtype=complex)


def _write_signal_csv(path: str, values) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for z in np.asarray(values, dtype=complex):
            writer.writerow([f"{z.real:.17g}", f"{z.imag:.17g}"])


def _spec_from_args(args) -> IfsSpec:
    weights = ()
    if getattr(args, "weights", None):
        weights = tuple(float(w) for w in args.weights.split(","))
    return IfsSpec(args.N, weights)


# ---------------------------------------------------------------------------
# ifs group
# ---------------------------------------------------------------------------

def _cmd_ifs_build(args, timing) -> int:
    spec = _spec_from_args(args)
    if args.kind == "indicator":
        bank = ifsf.build_indicator(spec)
    elif args.kind == "roots":
        bank = ifsf.build_roots_of_unity(spec)
    else:
        raise InputError(f"unknown construction {args.kind!r}")
    report = ifsf.verify_filter(bank, probe_depth=args.depth, tol=args.tol)
    if args.out:
        jsonio.dump_file(args.out, bank.to_json())
    payload = {
        "results": {"bank": bank.to_json(), "kind": args.kind},
        "residuals": report.to_json(),
        "tolerances": {"tol": args.tol},
    }
    return _emit("ifs build-filter", payload, report.passed, timing())


def _cmd_ifs_verify(args, timing) -> int:
    bank = _load_bank(args.bank)
    report = ifsf.verify_filter(bank, probe_depth=args.depth, tol=args.tol)
    payload = {
        "residuals": report.to_json(),
        "tolerances": {"tol": args.tol},
    }
    return _emit("ifs verify-filter", payload, report.passed, timing())


def _cmd_ifs_connect(args, timing) -> int:
    bank = _load_bank(args.bank)
    target = _load_bank(args.target)
    field = ifsf.connecting_unitary(bank, target, tol=args.tol)
    resid = field.unitarity_residual()
    if args.out:
        jsonio.dump_file(args.out, field.to_json())
    payload = {
        "results": {"unitary": field.to_json()},
        "residuals": {"unitarity": resid},
        "tolerances": {"unitarity": 1e-13},
    }
    return _emit("ifs connect", payload, resid < 1e-13, timing())


def _load_matrix_field(path: str, spec: IfsSpec) -> ifsf.MatrixField:
    obj = jsonio.load_file(path)
    if isinstance(obj, dict) and "matrix" in obj:
        return ifsf.MatrixField.from_matrix(spec, jsonio.decode_cmatrix(obj["matrix"]))
    return ifsf.MatrixField.from_json(obj)


def _cmd_ifs_apply(args, timing) -> int:
    bank = _load_bank(args.bank)
    field = _load_matrix_field(args.unitary, bank.spec)
    out = ifsf.apply_loop_group(bank, field)
    report = ifsf.verify_filter(out, probe_depth=args.depth, tol=args.tol)
    if args.out:
        jsonio.dump_file(args.out, out.to_json())
    payload = {
        "results": {"bank": out.to_json()},
        "residuals": report.to_json(),
        "tolerances": {"tol": args.tol},
    }
    return _emit("ifs apply-unitary", payload, report.passed, timing())


def _cmd_ifs_decompose(args, timing) -> int:
    bank = _load_bank(args.bank)
    fn = _load_fn(args.fn)
    tree = ifsf.multires_decompose(bank, fn, args.levels, mode=args.mode)
    recon = ifsf.multires_reconstruct(bank, tree)
    from .code_space import integrate, sup_distance

    roundtrip = sup_distance(recon, fn)
    energy_in = integrate(fn.abs2()).real
    energy_leaves = sum(integrate(leaf.abs2()).real for leaf in tree.leaves())
    if args.out:
        jsonio.dump_file(args.out, tree.to_json())
    payload = {
        "results": {
            "levels": args.levels,
            "mode": args.mode,
            "leaf_count": sum(1 for _ in tree.leaves()),
            "energy_in": energy_in,
            "energy_leaves": energy_leaves,
        },
        "residuals": {
            "roundtrip": roundtrip,
            "energy": abs(energy_in - energy_leaves),
        },
        "tolerances": {"roundtrip": args.tol},
    }
    return _emit("ifs decompose", payload, roundtrip < args.tol, timing())


def _cmd_ifs_endo(args, timing) -> int:
    bank = _load_bank(args.bank)
    fn = _load_fn(args.fn)
    resid = ifsf.endomorphism_check(bank, fn, probe_depth=args.depth)
    payload = {
        "residuals": {"endomorphism": resid},
        "tolerances": {"endomorphism": args.tol},
    }
    return _emit("ifs endo-check", payload, resid < args.tol, timing())


# ---------------------------------------------------------------------------
# circle group
# ---------------------------------------------------------------------------

def _cmd_circle_verify(args, timing) -> int:
    filters = _load_circle_filters(args.filters)
    report = circ.cuntz_residuals(filters, args.N, convention=args.convention)
    # a short filter list can be a family of isometries but never a bank
    passed = (
        len(filters) == args.N
        and report.orthonormality <= args.tol
        and report.completeness <= args.tol
    )
    payload = {
        "results": {"filter_count": len(filters), "band": args.N},
        "residuals": {
            "orthonormality": report.orthonormality,
            "completeness": report.completeness,
        },
        "tolerances": {"tol": args.tol},
    }
    return _emit("circle verify", payload, passed, timing())


def _cmd_circle_cqf(args, timing) -> int:
    m0 = circ.LaurentPoly.from_json(jsonio.load_file(args.m0))
    matrix = circ.cqf_complete(m0, convention=args.convention)
    scale = 1.0 if args.convention == "unit-sum" else 2.0
    unitarity = circ.matrix_grid_unitarity(
        lambda z: circ.evaluate_rows(matrix, z), n_grid=args.grid, scale=scale
    )
    power_sum = circ.power_sum_residual(m0, convention=args.convention)
    if args.out:
        jsonio.dump_file(args.out, {"filters": [matrix[0][0].to_json(), matrix[0][1].to_json()]})
    payload = {
        "results": {
            "matrix": [[e.to_json() for e in row] for row in matrix],
            "convention": args.convention,
        },
        "residuals": {"grid_unitarity": unitarity, "power_sum": power_sum},
        "tolerances": {"grid_unitarity": args.tol},
    }
    return _emit("circle cqf-complete", payload, unitarity < args.tol, timing())


def _cmd_circle_matrix(args, timing) -> int:
    filters = _load_circle_filters(args.filters)
    matrix = circ.MultibandMatrix(filters, args.N)
    per_point = circ.unitarity_residuals(matrix.eval, n_grid=args.grid)
    unitarity = float(np.max(per_point))
    shift = circ.shift_relation_residual(matrix, n_grid=args.grid)
    if args.csv:
        _write_grid_csv(args.csv, args.grid, per_point)
    payload = {
        "results": {"band": args.N, "grid": args.grid},
        "residuals": {"grid_unitarity": unitarity, "shift_relation": shift},
        "tolerances": {"tol": args.tol},
    }
    return _emit(
        "circle matrix", payload, _all_below(args.tol, unitarity, shift), timing()
    )


def _cmd_circle_blaschke(args, timing) -> int:
    product = circ.BlaschkeProduct.from_json(jsonio.load_file(args.factors))
    band = args.band or (product.factors[0].power if product.factors else 2)
    per_point = circ.unitarity_residuals(product.eval, n_grid=args.grid)
    unitarity = float(np.max(per_point))
    periodicity = product.periodicity_residual(band, args.grid)
    if args.csv:
        _write_grid_csv(args.csv, args.grid, per_point)
    payload = {
        "results": {"factor_count": len(product.factors), "band": band},
        "residuals": {"grid_unitarity": unitarity, "periodicity": periodicity},
        "tolerances": {"tol": args.tol},
    }
    return _emit(
        "circle blaschke", payload, _all_below(args.tol, unitarity, periodicity), timing()
    )


def _cmd_circle_loop(args, timing) -> int:
    g = circ.BlaschkeProduct.from_json(jsonio.load_file(args.g_factors))
    u = circ.BlaschkeProduct.from_json(jsonio.load_file(args.u_factors))
    acted = circ.loop_action_circle(g.eval, u.eval, args.N, n_grid=args.grid, tol=args.tol)
    unitarity = circ.matrix_grid_unitarity(acted.eval, n_grid=args.grid)
    payload = {
        "results": {"non_unitary_warning": acted.non_unitary_warning},
        "residuals": {
            "acting_map_unitarity": acted.g_unitarity_residual,
            "result_unitarity": unitarity,
        },
        "tolerances": {"tol": args.tol},
    }
    return _emit(
        "circle loop-act",
        payload,
        unitarity < args.tol and not acted.non_unitary_warning,
        timing(),
    )


# ---------------------------------------------------------------------------
# mra group
# ---------------------------------------------------------------------------

def _cmd_mra_cascade(args, timing) -> int:
    taps = _load_taps(args.taps)
    profile = mra.cascade(
        taps, dilation=args.N, iterations=args.iters, resolution=args.resolution,
        tol=args.tol,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "phi"])
            for x, v in zip(profile.grid(), profile.samples):
                writer.writerow([f"{x:.17g}", f"{v.real:.17g}"])
    payload = {
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
    }
    return _emit("mra cascade", payload, profile.converged, timing())


def _cmd_mra_wavelet(args, timing) -> int:
    taps = _load_taps(args.taps)
    detail = (
        _load_taps(args.detail_taps)
        if args.detail_taps
        else mra.detail_taps(taps)
    )
    profile = mra.cascade(
        taps, dilation=args.N, iterations=args.iters, resolution=args.resolution,
        tol=args.tol,
    )
    psi = mra.wavelet_detail(profile, detail)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "psi"])
            for i, v in enumerate(psi):
                writer.writerow([f"{i / args.resolution:.17g}", f"{v.real:.17g}"])
    mean = abs(psi.sum() / args.resolution)
    payload = {
        "results": {"iterations": profile.iterations, "converged": profile.converged},
        "residuals": {"detail_mean": float(mean)},
        "tolerances": {"detail_mean": 1e-8},
    }
    return _emit("mra wavelet", payload, profile.converged and mean < 1e-8, timing())


def _cmd_mra_filterbank(args, timing) -> int:
    signal = _read_signal_csv(args.signal)
    spec = jsonio.load_file(args.taps)
    analysis = [jsonio.decode_cvector(t) for t in spec["analysis"]]
    synthesis = [
        jsonio.decode_cvector(t) for t in spec.get("synthesis", spec["analysis"])
    ]
    result = mra.filterbank_roundtrip(
        signal,
        analysis,
        synthesis,
        args.N,
        analysis_offsets=spec.get("analysis_offsets"),
        synthesis_offsets=spec.get("synthesis_offsets"),
    )
    if args.out:
        _write_signal_csv(args.out, result.reconstruction)
    payload = {
        "results": {
            "length": int(signal.shape[0]),
            "bands": len(analysis),
            "energy_in": result.energy_in,
            "energy_subbands": result.energy_subbands,
        },
        "residuals": {
            "perfect_reconstruction": result.pr_error,
            "energy": result.energy_error,
        },
        "tolerances": {"perfect_reconstruction": args.tol},
    }
    return _emit(
        "mra filterbank",
        payload,
        result.pr_error < args.tol and result.energy_error < args.tol,
        timing(),
    )


def _cmd_mra_product(args, timing) -> int:
    m0 = circ.LaurentPoly.from_json(jsonio.load_file(args.m0))
    value, tail = mra.fourier_product(m0, args.t, args.terms)
    payload = {
        "results": {"value": jsonio.encode_complex(value), "t": args.t, "terms": args.terms},
        "residuals": {"tail": tail},
        "tolerances": {},
    }
    return _emit("mra product", payload, True, timing())


# ---------------------------------------------------------------------------
# solenoid group
# ---------------------------------------------------------------------------

def _cmd_solenoid_moment(args, timing) -> int:
    ms = sol.MomentSpec.from_json(jsonio.load_file(args.file))
    value = sol.moment(ms)
    prob = sol.probability_residual(len(ms.coords) - 1, ms.weight, ms.h)
    payload = {
        "results": {"value": jsonio.encode_complex(value), "order": len(ms.coords) - 1},
        "residuals": {"probability_normalization": prob},
        "tolerances": {"probability_normalization": args.tol},
    }
    return _emit("solenoid moment", payload, prob < args.tol, timing())


def _cmd_solenoid_dilation(args, timing) -> int:
    obj = jsonio.load_file(args.file)
    m = CylinderFn.from_json(obj["m"])
    f = CylinderFn.from_json(obj["f"])
    g = CylinderFn.from_json(obj["g"])
    orders = obj.get("orders", [obj.get("n", 1)])
    residuals = {
        f"order_{n}": sol.dilation_check(m, f, g, int(n)) for n in orders
    }
    worst = max(residuals.values())
    payload = {
        "residuals": residuals,
        "tolerances": {"dilation": args.tol},
    }
    return _emit("solenoid dilation", payload, worst < args.tol, timing())


def _cmd_solenoid_axioms(args, timing) -> int:
    obj = jsonio.load_file(args.file)
    m = CylinderFn.from_json(obj["m"])
    f = CylinderFn.from_json(obj["f"])
    g = CylinderFn.from_json(obj["g"])
    report = sol.shift_covariance_check(m, f, g)
    weight = m.abs2()
    h = sol.harmonic_for(weight)
    extras = {
        "covariance": report.conjugation,
        "scaling_identity": report.scaling,
        "isometry": sol.w0_isometry_residual(f, g, weight, h),
        "measure_change": sol.measure_change_residual(
            sol.PathCylinderFn.coordinate(0, f), weight, h
        ),
    }
    worst = max(extras.values())
    payload = {"residuals": extras, "tolerances": {"axioms": args.tol}}
    return _emit("solenoid axioms", payload, worst < args.tol, timing())


# ---------------------------------------------------------------------------
# rkhs group
# ---------------------------------------------------------------------------

def _load_point_filters(path: str, size: int) -> list[np.ndarray]:
    obj = jsonio.load_file(path)
    if isinstance(obj, dict) and "filters" in obj:
        obj = obj["filters"]
    if not isinstance(obj, list):
        raise InputError("filter file must hold a list of value vectors")
    filters = [jsonio.decode_cvector(values) for values in obj]
    for f in filters:
        if f.shape != (size,):
            raise InputError(
                f"filter length {f.shape[0]} does not match the {size} points"
            )
    return filters


def _cmd_rkhs_check(args, timing) -> int:
    pset = rkhs.FinitePointSet.from_json(jsonio.load_file(args.points))
    kernel = rkhs.KernelMatrix.from_json(jsonio.load_file(args.kernel))
    filters = _load_point_filters(args.filters, pset.size)
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
    payload = {
        "results": results,
        "residuals": residuals,
        "tolerances": {"tol": args.tol},
    }
    return _emit(
        "rkhs check", payload, _all_below(args.tol, *residuals.values()), timing()
    )


def _cmd_rkhs_product(args, timing) -> int:
    pset = rkhs.FinitePointSet.from_json(jsonio.load_file(args.points))
    filters = _load_point_filters(args.filters, pset.size)
    result = rkhs.product_kernel(filters, pset, args.terms)
    if args.out:
        jsonio.dump_file(args.out, result.kernel.to_json())
    refinement = rkhs.refinement_residual(result.kernel, filters, pset)
    payload = {
        "results": {
            "terms": args.terms,
            "orbits_reach_fixed_point": result.orbits_reach_fixed_point,
        },
        "residuals": {"tail_bound": result.tail_bound, "refinement": refinement},
        "tolerances": {"tail_bound": args.tol},
    }
    passed = result.tail_bound < args.tol and result.orbits_reach_fixed_point
    return _emit("rkhs product-kernel", payload, passed, timing())


# ---------------------------------------------------------------------------
# examples group
# ---------------------------------------------------------------------------

def _cmd_examples_logistic(args, timing) -> int:
    invariance = geo.logistic_invariance(args.degree, args.nodes)
    rule = geo.ChebyshevRule(args.nodes)
    x = rule.nodes()
    quadrature = max(
        abs(np.mean(x**k) - geo.arcsine_moment(k)) for k in range(args.degree + 1)
    )
    payload = {
        "results": {"degree": args.degree, "nodes": args.nodes},
        "residuals": {"invariance": invariance, "quadrature": float(quadrature)},
        "tolerances": {"invariance": args.tol},
    }
    return _emit(
        "examples logistic",
        payload,
        _all_below(args.tol, invariance, quadrature),
        timing(),
    )


def _cmd_examples_fractal(args, timing) -> int:
    ifs = geo.AffineIfs.from_json(jsonio.load_file(args.ifs))
    report = geo.strong_invariance_check(
        ifs, args.samples, args.seed, moment_order=args.moment_order
    )
    if args.points_out:
        pts = geo.chaos_game(ifs, min(args.samples, args.max_points), args.seed)
        with open(args.points_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for row in pts:
                writer.writerow([f"{v:.17g}" for v in row])
    payload = {
        "results": report.to_json(),
        "residuals": {"max_abs_z": report.max_abs_z},
        "tolerances": {"z_bound": args.z_bound},
        "seed": args.seed,
    }
    return _emit(
        "examples fractal", payload, report.passed(args.z_bound), timing()
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="filter banks, transfer operators, and multiresolution checks",
    )
    parser.add_argument(
        "--timing", action="store_true", help="include wall_time_ms in the output"
    )
    groups = parser.add_subparsers(dest="group", required=True)

    ifs = groups.add_parser("ifs", help="code-space filter banks").add_subparsers(
        dest="command", required=True
    )
    p = ifs.add_parser("build-filter")
    p.add_argument("--kind", required=True, choices=["indicator", "roots"])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--weights", default=None, help="comma-separated branch weights")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ifs_build)
    p = ifs.add_parser("verify-filter")
    p.add_argument("--bank", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_ifs_verify)
    p = ifs.add_parser("connect")
    p.add_argument("--bank", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ifs_connect)
    p = ifs.add_parser("apply-unitary")
    p.add_argument("--bank", required=True)
    p.add_argument("--unitary", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ifs_apply)
    p = ifs.add_parser("decompose")
    p.add_argument("--bank", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--mode", choices=["packet", "single"], default="packet")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ifs_decompose)
    p = ifs.add_parser("endo-check")
    p.add_argument("--bank", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-13)
    p.set_defaults(handler=_cmd_ifs_endo)

    circle = groups.add_parser("circle", help="Laurent filter algebra").add_subparsers(
        dest="command", required=True
    )
    p = circle.add_parser("verify")
    p.add_argument("--filters", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--convention", choices=["averaged", "unit-sum"], default="averaged")
    p.add_argument("--tol", type=float, default=1e-13)
    p.set_defaults(handler=_cmd_circle_verify)
    p = circle.add_parser("cqf-complete")
    p.add_argument("--m0", required=True)
    p.add_argument("--convention", choices=["averaged", "unit-sum"], default="unit-sum")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_circle_cqf)
    p = circle.add_parser("matrix")
    p.add_argument("--filters", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_circle_matrix)
    p = circle.add_parser("blaschke")
    p.add_argument("--factors", required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--band", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_circle_blaschke)
    p = circle.add_parser("loop-act")
    p.add_argument("--g-factors", required=True)
    p.add_argument("--u-factors", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_circle_loop)

    mra_group = groups.add_parser("mra", help="line-case pipelines").add_subparsers(
        dest="command", required=True
    )
    p = mra_group.add_parser("cascade")
    p.add_argument("--taps", required=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--resolution", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_mra_cascade)
    p = mra_group.add_parser("wavelet")
    p.add_argument("--taps", required=True)
    p.add_argument("--detail-taps", default=None)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--resolution", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_mra_wavelet)
    p = mra_group.add_parser("filterbank")
    p.add_argument("--signal", required=True)
    p.add_argument("--taps", required=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_mra_filterbank)
    p = mra_group.add_parser("product")
    p.add_argument("--m0", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--terms", type=int, default=40)
    p.set_defaults(handler=_cmd_mra_product)

    sol_group = groups.add_parser("solenoid", help="path-space moments").add_subparsers(
        dest="command", required=True
    )
    p = sol_group.add_parser("moment")
    p.add_argument("--file", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_solenoid_moment)
    p = sol_group.add_parser("dilation")
    p.add_argument("--file", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_solenoid_dilation)
    p = sol_group.add_parser("axioms")
    p.add_argument("--file", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_solenoid_axioms)

    rkhs_group = groups.add_parser("rkhs", help="kernel conditions").add_subparsers(
        dest="command", required=True
    )
    p = rkhs_group.add_parser("check")
    p.add_argument("--points", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--filters", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--require-preimage", action="store_true")
    p.set_defaults(handler=_cmd_rkhs_check)
    p = rkhs_group.add_parser("product-kernel")
    p.add_argument("--points", required=True)
    p.add_argument("--filters", required=True)
    p.add_argument("--terms", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_rkhs_product)

    ex_group = groups.add_parser("examples", help="measure examples").add_subparsers(
        dest="command", required=True
    )
    p = ex_group.add_parser("logistic")
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_examples_logistic)
    p = ex_group.add_parser("fractal")
    p.add_argument("--ifs", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--moment-order", type=int, default=2)
    p.add_argument("--z-bound", type=float, default=4.0)
    p.add_argument("--points-out", default=None)
    p.add_argument("--max-points", type=int, default=100_000)
    p.set_defaults(handler=_cmd_examples_fractal)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()

    def timing() -> float | None:
        if args.timing:
            return (time.perf_counter() - start) * 1000.0
        return None

    handler: Callable = args.handler
    try:
        return handler(args, timing)
    except _FAIL_ERRORS as exc:
        result = {
            "command": f"{args.group} {args.command}",
            "pass": False,
            "error": str(exc),
        }
        sys.stdout.write(jsonio.dumps(result) + "\n")
        return 1
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"wavelab: {exc}\n")
        return 2
    except WavelabError as exc:
        sys.stderr.write(f"wavelab: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
