"""Seeded inputs, command lists and output checks for the four workloads.

``build(name, seed, workdir)`` writes every input file of a workload into
``workdir`` and returns its fixed command list.  Each command is a
``Check``: the argv for ``wavelab``, the exit codes it may return, and a
judge that compares the JSON it prints against expectations computed here
by ``reference`` from the same generated arrays.  The program only ever
sees the files; the seed never reaches it.

A check marked ``known_defect`` feeds a valid input on which the program,
as committed, gives the wrong verdict.  It stays in the timed command
list and counts as failed for as long as the defect lasts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

TOL = 1e-12  # agreement between a program residual and its reference


@dataclass(frozen=True)
class Check:
    name: str
    argv: tuple[str, ...]
    expect: tuple[int, ...]  # exit codes that are a correct verdict
    judge: Callable[[dict], str | None]  # reason the output is wrong, or None
    known_defect: str | None = None


# ---------------------------------------------------------------------------
# file encoding (the formats documented in the wavelab README)
# ---------------------------------------------------------------------------


def _cvec(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def _spec(weights) -> dict:
    return {"N": len(weights), "weights": [float(p) for p in weights]}


def _cyl(weights, values) -> dict:
    values = np.asarray(values, dtype=complex).ravel()
    depth = round(np.log(values.shape[0]) / np.log(len(weights)))
    return dict(_spec(weights), depth=depth, values=_cvec(values))


def _bank(weights, filters) -> dict:
    return {"spec": _spec(weights), "filters": [_cyl(weights, m) for m in filters]}


def _laurent(coeffs, lo: int = 0) -> dict:
    return {"min_degree": lo, "coeffs": _cvec(coeffs)}


def _blaschke(v, factors, power: int) -> dict:
    return {
        "V": [_cvec(row) for row in v],
        "factors": [
            {"a": _cvec([a])[0], "P": [_cvec(row) for row in p], "power": power}
            for p, a in factors
        ],
    }


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _weights(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """Nonuniform branch weights with short decimal expansions."""
    raw = rng.uniform(0.5, 1.5, size=n)
    head = [round(float(p), 4) for p in raw[:-1] / raw.sum()]
    return tuple(head) + (1.0 - sum(head),)


def _complex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


# ---------------------------------------------------------------------------
# judges
# ---------------------------------------------------------------------------


def _close(label: str, got, want, tol: float = TOL) -> str | None:
    err = float(np.max(np.abs(np.asarray(got, dtype=complex) - np.asarray(want, dtype=complex))))
    return None if err <= tol else f"{label} off by {err:.3e} (tol {tol:.0e})"


def _at_most(label: str, got: float, bound: float) -> str | None:
    # written so that NaN fails
    return None if got <= bound else f"{label} = {got!r} exceeds {bound:.0e}"


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


def _decode(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _bank_values(obj: dict) -> np.ndarray:
    return np.array([_decode(m["values"]) for m in obj["filters"]])


def _judge_bank_report(orth_ref: float, comp_ref: float):
    """A verify report must agree with the modulation-matrix residuals.

    Orthonormality is the same quantity in both formulations; the program
    measures completeness on indicator probes instead, so only which side
    of the tolerance it falls on has to agree.
    """

    def judge(out: dict) -> str | None:
        r = out["residuals"]
        comp = r["completeness_residual"]
        return _first(
            _close("orthonormality", r["orthonormality_residual"], orth_ref),
            None if (comp <= TOL) == (comp_ref <= TOL)
            else f"completeness {comp!r} disagrees with the reference {comp_ref!r}",
        )

    return judge


# ---------------------------------------------------------------------------
# bank-verify: dense code-space arrays, the verify-filter completeness block
# ---------------------------------------------------------------------------


def bank_verify(rng: np.random.Generator, d: Path) -> list[Check]:
    p2 = _weights(rng, 2)
    p3 = _weights(rng, 3)
    u3 = (1 / 3,) * 3
    ind2 = ref.indicator_bank(p2)
    ind3w = ref.indicator_bank(p3)
    ind3u = ref.indicator_bank(u3)
    roots3 = ref.roots_bank(3)
    # a pointwise-unitary field of depth 2 (one 3 x 3 unitary per word)
    field = np.stack([ref.random_unitary(rng, 3) for _ in range(9)], axis=-1)
    applied = ref.apply_field(ind3w, field)
    scaled = applied.copy()
    scaled[int(rng.integers(3))] *= 1.01
    f12 = _complex(rng, 2**12)
    f4 = _complex(rng, 2**4)

    files = {
        "ind2": _write(d / "ind2.json", _bank(p2, ind2)),
        "ind3u": _write(d / "ind3u.json", _bank(u3, ind3u)),
        "ind3w": _write(d / "ind3w.json", _bank(p3, ind3w)),
        "roots3": _write(d / "roots3.json", _bank(u3, roots3)),
        "field": _write(
            d / "field.json",
            {
                "spec": _spec(p3),
                "entries": [[_cyl(p3, field[j, k]) for k in range(3)] for j in range(3)],
            },
        ),
        "applied": _write(d / "applied.json", _bank(p3, applied)),
        "scaled": _write(d / "scaled.json", _bank(p3, scaled)),
        "f12": _write(d / "f12.json", _cyl(p2, f12)),
        "f4": _write(d / "f4.json", _cyl(p2, f4)),
    }
    weights2 = ",".join(repr(p) for p in p2)

    def built(want: np.ndarray, weights):
        report = _judge_bank_report(*ref.bank_residuals(want, weights))

        def judge(out: dict) -> str | None:
            return _first(
                _close("bank values", _bank_values(out["results"]["bank"]), want),
                report(out),
            )

        return judge

    def connect(out: dict) -> str | None:
        got = np.array(
            [[_decode(e["values"])[0] for e in row] for row in out["results"]["unitary"]["entries"]]
        )
        return _close("connecting field", got, ref.connecting_field(ind3u, roots3, u3))

    applied_report = _judge_bank_report(*ref.bank_residuals(applied, p3))

    def apply(out: dict) -> str | None:
        return _first(
            _close("acted bank", _bank_values(out["results"]["bank"]), applied),
            applied_report(out),
        )

    energy = ref.integrate(np.abs(f12) ** 2, p2, 12).real

    def decompose(out: dict) -> str | None:
        res = out["results"]
        return _first(
            _close("energy_in", res["energy_in"] / energy, 1.0),
            _close("energy_leaves", res["energy_leaves"] / energy, 1.0, 1e-10),
            _at_most("roundtrip", out["residuals"]["roundtrip"], TOL),
            None if res["leaf_count"] == 2**8 else f"leaf_count {res['leaf_count']}",
        )

    def endo(out: dict) -> str | None:
        return _at_most("endomorphism", out["residuals"]["endomorphism"], 1e-13)

    return [
        Check(
            "build-filter indicator N=2",
            ("ifs", "build-filter", "--kind", "indicator", "--N", "2",
             "--weights", weights2, "--depth", "9"),
            (0,), built(ind2, p2),
        ),
        Check(
            "build-filter roots N=3",
            ("ifs", "build-filter", "--kind", "roots", "--N", "3", "--depth", "6"),
            (0,), built(roots3, u3),
        ),
        Check(
            "connect indicator->roots N=3",
            ("ifs", "connect", "--bank", files["ind3u"], "--target", files["roots3"]),
            (0,), connect,
        ),
        Check(
            "apply-unitary depth-2 field",
            ("ifs", "apply-unitary", "--bank", files["ind3w"], "--unitary", files["field"]),
            (0,), apply,
        ),
        Check(
            "verify-filter acted bank, probe 7",
            ("ifs", "verify-filter", "--bank", files["applied"], "--depth", "7"),
            (0,), applied_report,
        ),
        Check(
            "decompose packet 8 levels",
            ("ifs", "decompose", "--bank", files["ind2"], "--fn", files["f12"],
             "--levels", "8", "--mode", "packet"),
            (0,), decompose,
        ),
        Check(
            "endo-check probe 8",
            ("ifs", "endo-check", "--bank", files["ind2"], "--fn", files["f4"], "--depth", "8"),
            (0,), endo,
        ),
        Check(
            "negative control: filter scaled by 1.01",
            ("ifs", "verify-filter", "--bank", files["scaled"], "--depth", "3"),
            (1,), _judge_bank_report(*ref.bank_residuals(scaled, p3)),
        ),
    ]


# ---------------------------------------------------------------------------
# circle-grid: per-point grid scans and Laurent products
# ---------------------------------------------------------------------------


def circle_grid(rng: np.random.Generator, d: Path) -> list[Check]:
    pu2 = [(0, c) for c in ref.paraunitary_bank(rng, 2, 24)]  # 50 taps
    pu3 = [(0, c) for c in ref.paraunitary_bank(rng, 3, 10)]  # 33 taps
    broken = [(0, c.copy()) for _, c in pu2]
    broken[1][1][int(rng.integers(len(broken[1][1])))] += 1e-3

    def blaschke(size: int, count: int):
        factors = [
            (ref.random_projection(rng, size), complex(*rng.uniform(-0.6, 0.6, 2)))
            for _ in range(count)
        ]
        return ref.random_unitary(rng, size), factors

    bl_v, bl_f = blaschke(2, 4)
    g_v, g_f = blaschke(2, 2)
    u_v, u_f = blaschke(2, 2)
    nan_obj = _blaschke(bl_v, bl_f, 2)
    nan_obj["factors"][0]["P"][0][1][0] = float("nan")

    # the doubling map on the 256th roots of unity, with the unit-sum Haar
    # pair mixed by a constant unitary (which leaves the Gram sums alone)
    z256 = ref.circle_grid(256)
    sigma = (2 * np.arange(256)) % 256
    haar = np.array([(1 + z256) / 2, (1 - z256) / 2])
    mix = ref.random_unitary(rng, 2)
    point_filters = mix.T @ haar
    kernel = ref.product_kernel(point_filters, sigma, 30)

    def poly_file(name, filters):
        return _write(d / name, {"filters": [_laurent(c, lo) for lo, c in filters]})

    files = {
        "pu2": poly_file("pu2.json", pu2),
        "pu3": poly_file("pu3.json", pu3),
        "broken": poly_file("broken.json", broken),
        "m0": _write(d / "m0.json", _laurent(pu2[0][1])),
        "bl": _write(d / "blaschke.json", _blaschke(bl_v, bl_f, 2)),
        "nan": _write(d / "blaschke_nan.json", nan_obj),
        "g": _write(d / "g.json", _blaschke(g_v, g_f, 2)),
        "u": _write(d / "u.json", _blaschke(u_v, u_f, 2)),
        "points": _write(d / "points.json", {"points": _cvec(z256), "sigma": sigma.tolist()}),
        "haar": _write(d / "haar.json", {"filters": [_cvec(m) for m in point_filters]}),
        "kernel": _write(d / "kernel.json", {"matrix": [_cvec(row) for row in kernel]}),
    }

    def verify(filters, tol=1e-13):
        orth, comp = ref.cuntz_residuals(filters, len(filters))

        def judge(out: dict) -> str | None:
            r = out["residuals"]
            return _first(
                _close("orthonormality", r["orthonormality"], orth, tol),
                _close("completeness", r["completeness"], comp, tol),
            )

        return judge

    cqf_unitarity = ref.grid_unitarity(ref.cqf_stack(pu2[0], ref.circle_grid(256)), scale=2.0)
    power_sum = ref.power_sum_residual(pu2[0], 2.0)

    def cqf(out: dict) -> str | None:
        r = out["residuals"]
        return _first(
            _close("grid_unitarity", r["grid_unitarity"], cqf_unitarity),
            _close("power_sum", r["power_sum"], power_sum),
        )

    def matrix(filters, grid):
        z = ref.circle_grid(grid)
        n = len(filters)
        want = ref.grid_unitarity(ref.multiband_stack(filters, n, z))
        # M(eps z) = M(z) Pi holds identically; only rounding is left
        rot = ref.multiband_stack(filters, n, np.exp(2j * np.pi / n) * z)
        shift = float(np.max(np.abs(rot - np.roll(ref.multiband_stack(filters, n, z), -1, axis=2))))

        def judge(out: dict) -> str | None:
            r = out["residuals"]
            return _first(
                _close("grid_unitarity", r["grid_unitarity"], want),
                _close("shift_relation", r["shift_relation"], shift),
            )

        return judge

    z = ref.circle_grid(2048)
    bl_unitarity = ref.grid_unitarity(ref.blaschke_stack(bl_v, bl_f, z**2))

    def blaschke_judge(out: dict) -> str | None:
        r = out["residuals"]
        return _first(
            _close("grid_unitarity", r["grid_unitarity"], bl_unitarity),
            _at_most("periodicity", r["periodicity"], TOL),
        )

    def nan_judge(out: dict) -> str | None:
        # a NaN projection has no verdict but failure; exit 1 or 2 is right
        return "NaN input reported as pass" if out.get("pass") else None

    z = ref.circle_grid(1024)
    g_stack = ref.blaschke_stack(g_v, g_f, z**4)  # G(z**N) with factors in w**2
    g_unitarity = ref.grid_unitarity(g_stack)
    acted_unitarity = ref.grid_unitarity(g_stack @ ref.blaschke_stack(u_v, u_f, z**2))

    def loop_judge(out: dict) -> str | None:
        r = out["residuals"]
        return _first(
            _close("result_unitarity", r["result_unitarity"], acted_unitarity),
            _close("acting_map_unitarity", r["acting_map_unitarity"], g_unitarity),
        )

    refinement = ref.refinement_residual(kernel, point_filters, sigma)

    def product_judge(out: dict) -> str | None:
        r = out["residuals"]
        return _first(
            _close("refinement", r["refinement"], refinement),
            _at_most("tail_bound", r["tail_bound"], TOL),
        )

    def rkhs_judge(out: dict) -> str | None:
        return _close("refinement", out["residuals"]["refinement"], refinement)

    return [
        Check("verify N=2, 50 taps", ("circle", "verify", "--filters", files["pu2"], "--N", "2"),
              (0,), verify(pu2)),
        Check("verify N=3, 33 taps", ("circle", "verify", "--filters", files["pu3"], "--N", "3"),
              (0,), verify(pu3)),
        Check("cqf-complete averaged",
              ("circle", "cqf-complete", "--m0", files["m0"], "--convention", "averaged"),
              (0,), cqf),
        Check("matrix N=2, 256 points",
              ("circle", "matrix", "--filters", files["pu2"], "--N", "2", "--grid", "256"),
              (0,), matrix(pu2, 256)),
        Check("matrix N=3, 128 points",
              ("circle", "matrix", "--filters", files["pu3"], "--N", "3", "--grid", "128"),
              (0,), matrix(pu3, 128)),
        Check("blaschke 4 factors, 2048 points",
              ("circle", "blaschke", "--factors", files["bl"], "--grid", "2048"),
              (0,), blaschke_judge),
        Check("loop-act 1024 points",
              ("circle", "loop-act", "--g-factors", files["g"], "--u-factors", files["u"],
               "--N", "2", "--grid", "1024"),
              (0,), loop_judge),
        Check("rkhs product-kernel, 256 roots",
              ("rkhs", "product-kernel", "--points", files["points"], "--filters", files["haar"],
               "--terms", "30"),
              (0,), product_judge),
        Check("rkhs check, 256 roots",
              ("rkhs", "check", "--points", files["points"], "--kernel", files["kernel"],
               "--filters", files["haar"]),
              (0,), rkhs_judge),
        Check("negative control: non-paraunitary bank",
              ("circle", "verify", "--filters", files["broken"], "--N", "2"),
              (1,), verify(broken, TOL)),
        Check("NaN in a Blaschke projection",
              ("circle", "blaschke", "--factors", files["nan"]),
              (1, 2), nan_judge,
              known_defect="NaN in P passes circle blaschke (ROADMAP open item 4)"),
    ]


# ---------------------------------------------------------------------------
# line-sampling: cascade, filter-bank pipeline, chaos game
# ---------------------------------------------------------------------------


def _write_csv(path: Path, values: np.ndarray) -> str:
    lines = [f"{z.real!r},{z.imag!r}\n" for z in values.tolist()]
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def _read_csv(path: str) -> np.ndarray:
    pairs = np.loadtxt(path, delimiter=",", ndmin=2)
    return pairs[:, 0] + 1j * pairs[:, 1]


def line_sampling(rng: np.random.Generator, d: Path) -> list[Check]:
    c = ref.d4_taps()
    detail = ref.alternating_flip(c)
    n = 2**16
    t = np.arange(n)
    rate, sweep, phase = rng.uniform(0.005, 0.05), rng.uniform(1e-7, 1e-6), rng.uniform(0, 6.3)
    chirp = np.exp(1j * (phase + rate * t + sweep * t * t)) + 0.1 * _complex(rng, n)
    short = _complex(rng, 2**12)
    # fixed, seed-independent: loud enough that rounding alone exceeds the
    # default absolute 1e-10 on the energy
    big = 1e4 * np.exp(2j * np.pi * np.arange(2**12) * 0.01)
    freq = float(rng.uniform(-20.0, 20.0))
    recon_path = str(d / "recon.csv")

    files = {
        "d4": _write(d / "d4.json", {"taps": _cvec(c)}),
        "bank": _write(d / "bank.json", {"analysis": [_cvec(c), _cvec(detail)]}),
        "scaled": _write(d / "scaled.json", {"analysis": [_cvec(c), _cvec(1.01 * detail)],
                                             "synthesis": [_cvec(c), _cvec(detail)]}),
        "chirp": _write_csv(d / "chirp.csv", chirp),
        "short": _write_csv(d / "short.csv", short),
        "big": _write_csv(d / "big.csv", big),
        "m0": _write(d / "m0.json", _laurent(c)),
        "ifs": _write(d / "sierpinski.json", {"A": [[2, 0], [0, 2]], "digits": [[0, 0], [1, 0], [0, 1]]}),
    }

    def cascade(out: dict) -> str | None:
        # the box seed and sum(c) = sqrt 2 keep the mass at 1 exactly
        return _close("integral", _decode([out["results"]["integral"]]), 1.0, 1e-9)

    def wavelet(out: dict) -> str | None:
        # sum(detail) = 0, so psi has zero mean up to rounding
        return _first(
            _at_most("reference detail sum", abs(detail.sum()), TOL),
            _at_most("detail_mean", out["residuals"]["detail_mean"], 1e-8),
        )

    chirp_energy = float(np.sum(np.abs(chirp) ** 2))
    product_value = ref.fourier_product(c, freq, 60)
    quadrature = ref.arcsine_residual(20, 256)

    def filterbank(out: dict) -> str | None:
        return _first(
            _close("reconstruction", _read_csv(recon_path), chirp, 1e-10),
            _close("energy_in", out["results"]["energy_in"] / chirp_energy, 1.0),
        )

    def scaled_judge(out: dict) -> str | None:
        # band 2 comes back scaled by 1.01, so the error is 0.01 |band 2|
        err = out["residuals"]["perfect_reconstruction"]
        return None if err >= 1e-3 else f"perfect_reconstruction = {err!r} below 1e-3"

    def product(out: dict) -> str | None:
        return _close("value", _decode([out["results"]["value"]]), product_value)

    def fractal(out: dict) -> str | None:
        checks = {ch["name"]: ch for ch in out["results"]["checks"]}
        # uniform Sierpinski: E[x] = (A - I)^-1 mean(b) = (1/3, 1/3)
        return _first(*(
            _first(
                _close(f"{name} expected", checks[name]["expected"], 1 / 3),
                _close(f"{name} sample mean", checks[name]["statistic"], 1 / 3, 0.01),
            )
            for name in ("mean[0]", "mean[1]")
        ))

    def logistic(out: dict) -> str | None:
        return _first(
            _at_most("reference quadrature", quadrature, TOL),
            _at_most("invariance", out["residuals"]["invariance"], TOL),
            _at_most("quadrature", out["residuals"]["quadrature"], TOL),
        )

    def energy_judge(out: dict) -> str | None:
        # the round trip is exact; an energy gap of a few ulps is rounding
        return _at_most("relative energy gap", out["residuals"]["energy"] / out["results"]["energy_in"], 1e-13)

    return [
        Check("cascade D4, 40 iterations, 2^14",
              ("mra", "cascade", "--taps", files["d4"], "--iters", "40", "--resolution", "16384"),
              (0,), cascade),
        Check("wavelet D4, 40 iterations, 2^14",
              ("mra", "wavelet", "--taps", files["d4"], "--iters", "40", "--resolution", "16384"),
              (0,), wavelet),
        Check("filterbank D4, 2^16-sample chirp",
              ("mra", "filterbank", "--signal", files["chirp"], "--taps", files["bank"],
               "--tol", "1e-9", "--out", recon_path),
              (0,), filterbank),
        Check("product 60 terms",
              ("mra", "product", "--m0", files["m0"], "--t", repr(freq), "--terms", "60"),
              (0,), product),
        Check("fractal Sierpinski, 1e5 samples",
              ("examples", "fractal", "--ifs", files["ifs"], "--samples", "100000", "--seed", "7"),
              (0,), fractal),
        Check("logistic degree 20, 256 nodes",
              ("examples", "logistic", "--degree", "20", "--nodes", "256"),
              (0,), logistic),
        Check("negative control: analysis filter scaled by 1.01",
              ("mra", "filterbank", "--signal", files["short"], "--taps", files["scaled"]),
              (1,), scaled_judge),
        Check("filterbank energy of a loud signal",
              ("mra", "filterbank", "--signal", files["big"], "--taps", files["bank"]),
              (0,), energy_judge,
              known_defect="filterbank compares signal energy with an absolute 1e-10"),
    ]


# ---------------------------------------------------------------------------
# path-moments: many small code-space calls through the solenoid layer
# ---------------------------------------------------------------------------


def _perron_normalised(raw: np.ndarray, weights) -> np.ndarray:
    """A positive depth-8 weight divided by its Perron eigenvalue."""
    lam, _ = ref.perron(raw, weights)
    return raw / lam  # R_W now has eigenvalue 1: a harmonic density exists


def _coboundary_weight(rng: np.random.Generator, weights) -> np.ndarray:
    """W = c h(v) / h(n v) on words n v, with random positive h and c > 0.

    R_W = c M_h R_1 M_h^-1, and R_1 is nilpotent on mean-zero functions, so
    after division by its Perron eigenvalue c the harmonic density is h and
    power iteration reaches it in a fixed number of steps: every seed gives
    the program the same amount of work.
    """
    h = rng.uniform(0.5, 1.5, size=2**7)
    word = np.arange(2**8)
    raw = rng.uniform(0.5, 2.0) * h[word % 2**7] / h[word // 2]
    return _perron_normalised(raw, weights)


def path_moments(rng: np.random.Generator, d: Path) -> list[Check]:
    p = _weights(rng, 2)
    weight = _coboundary_weight(rng, p)
    _, h = ref.perron(weight, p)
    coords = [_complex(rng, 2**6) for _ in range(25)]
    ones = [np.ones(1, dtype=complex)] * 11

    phases = np.exp(2j * np.pi * rng.uniform(size=2**8))
    m = np.sqrt(weight) * phases
    # admissible: sum_n p_n |m(n v)|^2 = 1 at every tail v, so h = 1
    adm_raw = rng.uniform(0.2, 1.8, size=(2, 2**7))
    adm = (adm_raw / np.sqrt(np.asarray(p) @ adm_raw**2)).reshape(-1) * phases
    f, g = _complex(rng, 2**3), _complex(rng, 2**3)
    orders = list(range(-10, 11))

    def fixed(seed: int):
        # seed-independent weights on which harmonic_solve's stopping rule
        # (certify R_W h = h to 1e-10 within 200 power steps) misjudges
        fixed_rng = np.random.default_rng(seed)
        fixed_p = _weights(fixed_rng, 2)
        return _perron_normalised(fixed_rng.uniform(0.2, 1.8, size=2**8), fixed_p), fixed_p

    loose, slow = fixed(8), fixed(195)

    def moment_file(name, w, weights=p, cs=coords):
        return _write(d / name, {
            "spec": _spec(weights), "W": _cyl(weights, w), "h": "auto",
            "coords": [_cyl(weights, c) for c in cs],
        })

    def pair_file(name, mult, extra):
        return _write(d / name, dict(extra, m=_cyl(p, mult), f=_cyl(p, f), g=_cyl(p, g)))

    files = {
        "moment": moment_file("moment.json", weight),
        "ones": moment_file("ones.json", weight, cs=ones),
        "moment_adm": moment_file("moment_adm.json", np.abs(adm) ** 2),
        "bad": moment_file("unnormalised.json", 1.3 * weight, cs=coords[:3]),
        "loose": moment_file("loose_h.json", *loose, cs=ones),
        "slow": moment_file("slow_mixing.json", *slow, cs=ones),
        "dil": pair_file("dilation.json", m, {"orders": orders}),
        "dil_adm": pair_file("dilation_adm.json", adm, {"orders": orders}),
        "ax": pair_file("axioms.json", m, {}),
        "ax_adm": pair_file("axioms_adm.json", adm, {}),
    }
    # The seeded weights are a coboundary and an admissible weight, on which
    # harmonic_solve reaches h to rounding, so their moments are judged at
    # TOL.  Only the fixed inputs that show its stopping-rule defects use a
    # loose tolerance: there h is certified to 1e-10 per transfer step.
    loose_tol = 1e-8

    def moment(w, density, cs):
        want = ref.nested_moment(w, density, cs, p)

        def judge(out: dict) -> str | None:
            # relative error: the moment is complex, so a modulus small
            # enough for rounding to reach 1e-12 of it is rare
            got = _decode([out["results"]["value"]])[0]
            return _first(
                _close("relative moment", got / abs(want), want / abs(want)),
                _at_most("probability_normalization",
                         out["residuals"]["probability_normalization"], TOL),
            )

        return judge

    def all_ones(tol: float):
        def judge(out: dict) -> str | None:
            return _close("all-ones moment", _decode([out["results"]["value"]]), 1.0, tol)

        return judge

    def dilation(out: dict) -> str | None:
        # U^k (g o pi_0) = (S_m^k g) o pi_0, so every order pairs two equal
        # integrals against h dmu: the exact residual is 0 at every order
        r = out["residuals"]
        return _first(*(_at_most(key, r[key], TOL) for key in sorted(r)))

    def axioms(out: dict) -> str | None:
        r = out["residuals"]
        return _first(*(_at_most(key, r[key], TOL) for key in sorted(r)))

    def unnormalised(out: dict) -> str | None:
        # R_W has Perron eigenvalue 1.3, so no density with R_W h = h exists
        return None if "error" in out and not out["pass"] else "unnormalised weight accepted"

    def moment_argv(name: str, *extra: str) -> tuple[str, ...]:
        return ("solenoid", "moment", "--file", files[name]) + extra

    return [
        Check("moment, depth-8 weight, 25 coordinates",
              moment_argv("moment"), (0,), moment(weight, h, coords)),
        Check("all-ones moment is 1",
              moment_argv("ones"), (0,), all_ones(TOL)),
        Check("dilation orders -10..10, admissible m",
              ("solenoid", "dilation", "--file", files["dil_adm"]), (0,), dilation),
        Check("axioms",
              ("solenoid", "axioms", "--file", files["ax"]), (0,), axioms),
        Check("moment, admissible weight",
              moment_argv("moment_adm"), (0,),
              moment(np.abs(adm) ** 2, np.ones(2**7), coords)),
        Check("axioms, admissible m",
              ("solenoid", "axioms", "--file", files["ax_adm"]), (0,), axioms),
        Check("negative control: unnormalised weight",
              moment_argv("bad"), (1,), unnormalised),
        Check("dilation orders -10..10, non-constant h",
              ("solenoid", "dilation", "--file", files["dil"]), (0,), dilation,
              known_defect="dilation_check uses the L2(mu) adjoint, not the L2(h dmu) one"),
        Check("all-ones moment, auto h, default tolerance",
              moment_argv("loose"), (0,), all_ones(loose_tol),
              known_defect="harmonic_solve stops at 1e-10; the moment checks 1e-12"),
        Check("all-ones moment, auto h, slowly mixing weight",
              moment_argv("slow", "--tol", repr(loose_tol)), (0,), all_ones(loose_tol),
              known_defect="harmonic_solve gives up after 200 power steps"),
    ]


WORKLOADS = {
    "bank-verify": bank_verify,
    "circle-grid": circle_grid,
    "line-sampling": line_sampling,
    "path-moments": path_moments,
}


def build(name: str, seed: int, workdir: Path) -> list[Check]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its checks."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, workdir)
