import json
import subprocess
import sys

import numpy as np

from wavelab import jsonio
from wavelab.cli import _all_below, run
from wavelab.circle_filters import (
    BlaschkeFactor,
    LaurentPoly,
    MultibandMatrix,
    blaschke_product,
    haar_pair,
    unit_circle_grid,
    unitarity_residuals,
)
from wavelab.classic_mra import d4_taps, haar_taps
from wavelab.code_space import CylinderFn, IfsSpec
from wavelab.examples_geometry import sierpinski_ifs
from wavelab.ifs_filters import build_indicator
from wavelab.rkhs_kernels import FinitePointSet, szego_kernel


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def write(path, obj):
    jsonio.dump_file(str(path), obj)
    return str(path)


# ---------------------------------------------------------------------------
# ifs group
# ---------------------------------------------------------------------------

def test_build_then_verify_roundtrip(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    code, result = run_json(
        capsys,
        ["ifs", "build-filter", "--kind", "indicator", "--N", "2", "--out", str(bank_path)],
    )
    assert code == 0 and result["pass"] is True
    code, result = run_json(
        capsys, ["ifs", "verify-filter", "--bank", str(bank_path), "--depth", "4"]
    )
    assert code == 0
    assert result["residuals"]["orthonormality_residual"] < 1e-13


def test_verify_rejects_broken_bank(tmp_path, capsys):
    spec = IfsSpec(2)
    ones = CylinderFn(spec, 1, [1.0, 1.0])
    bank = {
        "spec": spec.to_json(),
        "filters": [ones.to_json(), ones.to_json()],
    }
    path = write(tmp_path / "broken.json", bank)
    code, result = run_json(capsys, ["ifs", "verify-filter", "--bank", path])
    assert code == 1 and result["pass"] is False


def test_connect_and_apply(tmp_path, capsys):
    b1 = tmp_path / "ind.json"
    b2 = tmp_path / "roots.json"
    run(["ifs", "build-filter", "--kind", "indicator", "--N", "3", "--out", str(b1)])
    run(["ifs", "build-filter", "--kind", "roots", "--N", "3", "--out", str(b2)])
    capsys.readouterr()
    u_path = tmp_path / "u.json"
    code, result = run_json(
        capsys,
        ["ifs", "connect", "--bank", str(b1), "--target", str(b2), "--out", str(u_path)],
    )
    assert code == 0
    assert result["residuals"]["unitarity"] < 1e-13
    out_path = tmp_path / "acted.json"
    code, result = run_json(
        capsys,
        [
            "ifs", "apply-unitary", "--bank", str(b1), "--unitary", str(u_path),
            "--out", str(out_path), "--depth", "3",
        ],
    )
    assert code == 0 and result["pass"] is True
    # the action carries the first bank onto the second
    acted = jsonio.load_file(str(out_path))
    target = jsonio.load_file(str(b2))
    for got, expect in zip(acted["filters"], target["filters"]):
        a = jsonio.decode_cvector(got["values"])
        b = jsonio.decode_cvector(expect["values"])
        assert np.max(np.abs(a - b)) < 1e-13


def test_apply_non_unitary_fails(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    run(["ifs", "build-filter", "--kind", "indicator", "--N", "2", "--out", str(bank_path)])
    capsys.readouterr()
    bad = write(
        tmp_path / "bad.json", {"matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}
    )
    code, result = run_json(
        capsys, ["ifs", "apply-unitary", "--bank", str(bank_path), "--unitary", bad]
    )
    assert code == 1 and result["pass"] is False


def test_decompose_and_endo(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    run(["ifs", "build-filter", "--kind", "roots", "--N", "2", "--out", str(bank_path)])
    capsys.readouterr()
    spec = IfsSpec(2)
    rng = np.random.default_rng(2)
    fn = CylinderFn(spec, 3, rng.normal(size=8))
    fn_path = write(tmp_path / "fn.json", fn.to_json())
    code, result = run_json(
        capsys,
        ["ifs", "decompose", "--bank", str(bank_path), "--fn", fn_path, "--levels", "2"],
    )
    assert code == 0
    assert result["residuals"]["roundtrip"] < 1e-12
    assert result["results"]["leaf_count"] == 4
    code, result = run_json(
        capsys,
        ["ifs", "endo-check", "--bank", str(bank_path), "--fn", fn_path, "--depth", "2"],
    )
    assert code == 0


def test_verify_over_cell_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "1000")
    spec = IfsSpec(2)
    deep = CylinderFn(spec, 9, np.ones(512))  # 2**9 values fit, 2**10 do not
    path = write(tmp_path / "deep.json", {"spec": spec.to_json(), "filters": [deep.to_json()] * 2})
    assert run(["ifs", "verify-filter", "--bank", path]) == 2
    assert "cap" in capsys.readouterr().err


def test_endo_check_fails_on_nan_bank(tmp_path, capsys):
    spec = IfsSpec(2)
    bank = build_indicator(spec).to_json()
    bank["filters"][0]["values"][0] = [float("nan"), 0.0]
    bank_path = write(tmp_path / "nan.json", bank)
    fn_path = write(tmp_path / "fn.json", CylinderFn(spec, 1, [1.0, 2.0]).to_json())
    code, result = run_json(capsys, ["ifs", "endo-check", "--bank", bank_path, "--fn", fn_path])
    assert code == 1 and result["pass"] is False
    assert np.isnan(result["residuals"]["endomorphism"])


# ---------------------------------------------------------------------------
# circle group
# ---------------------------------------------------------------------------

def test_circle_verify_and_matrix(tmp_path, capsys):
    filters = {"filters": [m.to_json() for m in haar_pair()]}
    path = write(tmp_path / "haar.json", filters)
    code, result = run_json(capsys, ["circle", "verify", "--filters", path, "--N", "2"])
    assert code == 0
    assert result["residuals"]["orthonormality"] == 0.0
    csv_path = tmp_path / "grid.csv"
    code, result = run_json(
        capsys,
        ["circle", "matrix", "--filters", path, "--N", "2", "--csv", str(csv_path)],
    )
    assert code == 0
    assert csv_path.read_text().startswith("angle,residual")


def test_circle_cqf_roundtrip(tmp_path, capsys):
    m0 = LaurentPoly.from_coefficients(0, [0.5, 0.5])
    m0_path = write(tmp_path / "m0.json", m0.to_json())
    out = tmp_path / "pair.json"
    code, result = run_json(
        capsys, ["circle", "cqf-complete", "--m0", m0_path, "--out", str(out)]
    )
    assert code == 0
    assert result["residuals"]["grid_unitarity"] < 1e-13
    code, result = run_json(
        capsys,
        ["circle", "verify", "--filters", str(out), "--N", "2", "--convention", "unit-sum"],
    )
    assert code == 0


def test_circle_blaschke_and_loop(tmp_path, capsys):
    rng = np.random.default_rng(1)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    product = blaschke_product(
        [BlaschkeFactor(np.outer(v, np.conj(v)), 0.5, 2)]
    )
    u_path = write(tmp_path / "u.json", product.to_json())
    code, result = run_json(capsys, ["circle", "blaschke", "--factors", u_path])
    assert code == 0
    assert result["residuals"]["grid_unitarity"] < 1e-12
    g_path = write(
        tmp_path / "g.json",
        blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.0, 2)]).to_json(),
    )
    code, result = run_json(
        capsys,
        ["circle", "loop-act", "--g-factors", g_path, "--u-factors", u_path, "--N", "2"],
    )
    assert code == 0
    assert result["results"]["non_unitary_warning"] is False


def test_circle_csv_holds_the_per_point_residuals(tmp_path, capsys):
    rng = np.random.default_rng(2)
    filters = [LaurentPoly.from_coefficients(-1, rng.normal(size=3)) for _ in range(2)]
    path = write(tmp_path / "junk.json", [m.to_json() for m in filters])
    csv_path = tmp_path / "grid.csv"
    code, result = run_json(
        capsys,
        ["circle", "matrix", "--filters", path, "--N", "2", "--grid", "9", "--csv", str(csv_path)],
    )
    assert code == 1
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    grid = unit_circle_grid(9)
    want = unitarity_residuals(MultibandMatrix(filters, 2).eval, 9)
    assert [float(a) for a, _ in rows] == [float(np.angle(z)) for z in grid]
    assert [float(r) for _, r in rows] == want.tolist()
    assert max(want) == result["residuals"]["grid_unitarity"]


def test_verdict_is_false_on_any_nan():
    nan = float("nan")
    # max(0.0, nan) is 0.0, so the former max(a, b) < tol passed here
    assert not _all_below(1.0, 0.0, nan)
    assert not _all_below(1.0, nan, 0.0)
    assert _all_below(1.0, 0.0, 0.5) and not _all_below(1.0, 0.0, 1.0)


def _nan_blaschke(tmp_path, key):
    obj = blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)]).to_json()
    if key == "P":
        obj["factors"][0]["P"][0][1][0] = float("nan")
    else:
        obj["V"][1][1][1] = float("nan")
    return write(tmp_path / f"nan_{key}.json", obj)


def test_circle_blaschke_fails_closed_on_nan(tmp_path, capsys):
    for key in ("P", "V"):
        path = _nan_blaschke(tmp_path, key)
        for argv in (
            ["circle", "blaschke", "--factors", path],
            ["circle", "loop-act", "--g-factors", path, "--u-factors", path, "--N", "2"],
        ):
            code = run(argv)
            out = capsys.readouterr().out
            assert code in (1, 2) and '"pass": true' not in out, (key, argv)


def test_circle_matrix_and_verify_fail_closed_on_nan_tap(tmp_path, capsys):
    # without the NaN tap this is the Haar bank, which passes both commands
    s = 1 / np.sqrt(2)
    filters = [LaurentPoly.from_coefficients(0, [s, s, np.nan]), haar_pair()[1]]
    path = write(tmp_path / "nan.json", {"filters": [m.to_json() for m in filters]})
    for argv in (["circle", "matrix"], ["circle", "verify"]):
        code = run(argv + ["--filters", path, "--N", "2"])
        out = capsys.readouterr().out
        assert code in (1, 2) and '"pass": true' not in out, argv


# ---------------------------------------------------------------------------
# mra group
# ---------------------------------------------------------------------------

def test_mra_cascade_and_product(tmp_path, capsys):
    taps = write(tmp_path / "taps.json", {"taps": jsonio.encode_cvector(haar_taps())})
    csv_path = tmp_path / "phi.csv"
    code, result = run_json(
        capsys,
        [
            "mra", "cascade", "--taps", taps, "--N", "2", "--iters", "5",
            "--resolution", "128", "--out", str(csv_path),
        ],
    )
    assert code == 0
    assert result["results"]["iterations"] == 1
    assert csv_path.exists()
    code = run(["mra", "product", "--m0", taps, "--t", "0.0", "--terms", "20"])
    capsys.readouterr()
    # a taps file is not a Laurent polynomial: strict parsing rejects it
    assert code == 2


def test_mra_cascade_rejects_bad_taps(tmp_path, capsys):
    taps = write(tmp_path / "bad.json", {"taps": [[1, 0], [0, 0]]})
    code, result = run_json(
        capsys, ["mra", "cascade", "--taps", taps, "--N", "2", "--iters", "5",
                 "--resolution", "64"],
    )
    assert code == 1 and result["pass"] is False


def test_mra_filterbank(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    signal = tmp_path / "x.csv"
    with open(signal, "w") as fh:
        for z in x:
            fh.write(f"{z.real},{z.imag}\n")
    d = d4_taps()
    from wavelab.classic_mra import detail_taps

    taps = write(
        tmp_path / "bank.json",
        {
            "analysis": [jsonio.encode_cvector(d), jsonio.encode_cvector(detail_taps(d))],
        },
    )
    out = tmp_path / "recon.csv"
    code, result = run_json(
        capsys,
        ["mra", "filterbank", "--signal", str(signal), "--taps", taps, "--N", "2",
         "--out", str(out)],
    )
    assert code == 0
    assert result["residuals"]["perfect_reconstruction"] < 1e-10
    assert result["residuals"]["energy"] < 1e-10


def test_mra_product_valid_m0(tmp_path, capsys):
    m0 = LaurentPoly.from_coefficients(0, haar_taps())
    path = write(tmp_path / "m0.json", m0.to_json())
    code, result = run_json(
        capsys, ["mra", "product", "--m0", path, "--t", "6.283185307179586", "--terms", "40"]
    )
    assert code == 0
    value = jsonio.decode_complex(result["results"]["value"])
    assert abs(value) < 1e-9


# ---------------------------------------------------------------------------
# solenoid group
# ---------------------------------------------------------------------------

def test_solenoid_commands(tmp_path, capsys):
    spec = IfsSpec(2)
    m = build_indicator(spec).filters[0]
    w = m.abs2()
    rng = np.random.default_rng(5)
    f = CylinderFn(spec, 1, rng.normal(size=2))
    g = CylinderFn(spec, 1, rng.normal(size=2))
    ms_path = write(
        tmp_path / "moment.json",
        {
            "spec": spec.to_json(),
            "W": w.to_json(),
            "h": "auto",
            "coords": [f.to_json(), g.to_json()],
        },
    )
    code, result = run_json(capsys, ["solenoid", "moment", "--file", ms_path])
    assert code == 0
    assert result["residuals"]["probability_normalization"] < 1e-12

    dil_path = write(
        tmp_path / "dil.json",
        {"m": m.to_json(), "f": f.to_json(), "g": g.to_json(),
         "orders": [-2, -1, 0, 1, 2]},
    )
    code, result = run_json(capsys, ["solenoid", "dilation", "--file", dil_path])
    assert code == 0
    assert max(result["residuals"].values()) < 1e-12

    ax_path = write(
        tmp_path / "ax.json", {"m": m.to_json(), "f": f.to_json(), "g": g.to_json()}
    )
    code, result = run_json(capsys, ["solenoid", "axioms", "--file", ax_path])
    assert code == 0
    assert result["residuals"]["covariance"] < 1e-12


# ---------------------------------------------------------------------------
# rkhs group
# ---------------------------------------------------------------------------

def test_rkhs_commands(tmp_path, capsys):
    pset = FinitePointSet.squaring_chain(0.9 * np.exp(0.7j), 12)
    points = write(tmp_path / "p.json", pset.to_json())
    kernel = write(tmp_path / "k.json", szego_kernel(pset.points).to_json())
    filters = write(
        tmp_path / "m.json",
        {"filters": [jsonio.encode_cvector(np.ones(12)),
                     jsonio.encode_cvector(pset.points)]},
    )
    code, result = run_json(
        capsys,
        ["rkhs", "check", "--points", points, "--kernel", kernel, "--filters", filters],
    )
    assert code == 0
    assert result["residuals"]["refinement"] < 1e-13

    out = tmp_path / "kprod.json"
    code, result = run_json(
        capsys,
        ["rkhs", "product-kernel", "--points", points, "--filters", filters,
         "--terms", "30", "--out", str(out)],
    )
    assert code == 0
    code, result = run_json(
        capsys,
        ["rkhs", "check", "--points", points, "--kernel", str(out), "--filters", filters],
    )
    assert code == 0


# ---------------------------------------------------------------------------
# examples group
# ---------------------------------------------------------------------------

def test_examples_commands(tmp_path, capsys):
    code, result = run_json(
        capsys, ["examples", "logistic", "--degree", "8", "--nodes", "64"]
    )
    assert code == 0
    assert result["residuals"]["invariance"] < 1e-12

    ifs_path = write(tmp_path / "sierpinski.json", sierpinski_ifs().to_json())
    pts_path = tmp_path / "pts.csv"
    code, result = run_json(
        capsys,
        ["examples", "fractal", "--ifs", ifs_path, "--samples", "50000",
         "--seed", "7", "--points-out", str(pts_path)],
    )
    assert code == 0
    assert result["seed"] == 7
    assert result["residuals"]["max_abs_z"] < 4
    assert pts_path.exists()


def test_examples_fractal_requires_seed(tmp_path, capsys):
    ifs_path = write(tmp_path / "s.json", sierpinski_ifs().to_json())
    code = run(["examples", "fractal", "--ifs", ifs_path, "--samples", "50000"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# result format
# ---------------------------------------------------------------------------

def test_output_is_deterministic(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        code = run(["examples", "logistic", "--degree", "6", "--nodes", "32"])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1]
    # keys are sorted in the serialized form
    keys = list(json.loads(outputs[0]).keys())
    assert keys == sorted(keys)


def test_timing_flag_adds_wall_time(capsys):
    run(["--timing", "examples", "logistic", "--degree", "4", "--nodes", "16"])
    out = json.loads(capsys.readouterr().out)
    assert "wall_time_ms" in out and out["wall_time_ms"] >= 0


def test_unknown_flag_exits_2(capsys):
    assert run(["ifs", "verify-filter", "--nope"]) == 2
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    assert run(["ifs", "verify-filter", "--bank", "/nonexistent.json"]) == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wavelab", "examples", "logistic",
         "--degree", "4", "--nodes", "16"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
