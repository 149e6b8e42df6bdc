import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from wavelab import jsonio
from wavelab import cli
from wavelab.cli import _all_below, run
from wavelab import circle_filters as circ
from wavelab.circle_filters import (
    BlaschkeFactor,
    BlaschkeProduct,
    LaurentPoly,
    banded_matrix,
    unit_circle_grid,
    unitarity_residuals,
)
from wavelab.classic_mra import cascade, d4_taps, detail_taps, haar_taps, wavelet_detail
from wavelab.code_space import CylinderFn, IfsSpec, sup_distance
from wavelab.examples_geometry import chaos_game, sierpinski_ifs
from wavelab.ifs_filters import (
    FilterBank,
    build_indicator,
    build_roots_of_unity,
    multires_reconstruct,
)
from wavelab.rkhs_kernels import FinitePointSet, contraction_check


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


def test_decompose_writes_a_tree_that_reconstructs(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    run(["ifs", "build-filter", "--kind", "roots", "--N", "2", "--out", str(bank_path)])
    fn = CylinderFn(IfsSpec(2), 3, np.random.default_rng(4).normal(size=8))
    fn_path, tree_path = write(tmp_path / "fn.json", fn.to_json()), tmp_path / "tree.json"
    capsys.readouterr()
    argv = ["ifs", "decompose", "--bank", str(bank_path), "--fn", fn_path, "--levels", "2"]
    code, result = run_json(capsys, argv + ["--out", str(tree_path)])
    assert code == 0
    tree = oracle.coefficient_tree(jsonio.load_file(str(tree_path)))
    assert sum(1 for _ in tree.leaves()) == result["results"]["leaf_count"]
    bank = FilterBank.from_json(jsonio.load_file(str(bank_path)))
    assert sup_distance(multires_reconstruct(bank, tree), fn) < 1e-13


def test_connect_fails_on_banks_that_verify_but_do_not_connect_unitarily(tmp_path, capsys):
    # both banks pass verification at 1e-10; scaling one by 1 + 1e-11 leaves
    # the connecting field that far from unitary, over its 1e-13 bound
    spec = IfsSpec(2)
    bank = write(tmp_path / "ind.json", build_indicator(spec).to_json())
    scaled = build_roots_of_unity(spec).to_json()
    for filt in scaled["filters"]:
        filt["values"] = jsonio.encode_cvector(jsonio.decode_cvector(filt["values"]) * (1 + 1e-11))
    target = write(tmp_path / "scaled.json", scaled)
    for path in (bank, target):
        assert run(["ifs", "verify-filter", "--bank", path, "--tol", "1e-10"]) == 0
    capsys.readouterr()
    code, result = run_json(capsys, ["ifs", "connect", "--bank", bank, "--target", target])
    assert code == 1 and result["pass"] is False
    assert "connecting field not pointwise unitary" in result["error"]


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
    filters = {"filters": [m.to_json() for m in oracle.haar_pair()]}
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
    m0 = LaurentPoly(0, [0.5, 0.5])
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
    product = oracle.blaschke_product(
        [BlaschkeFactor(np.outer(v, np.conj(v)), 0.5, 2)]
    )
    u_path = write(tmp_path / "u.json", oracle.blaschke_json(product))
    code, result = run_json(capsys, ["circle", "blaschke", "--factors", u_path])
    assert code == 0
    assert result["residuals"]["grid_unitarity"] < 1e-12
    g_path = write(
        tmp_path / "g.json",
        oracle.blaschke_json(oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.0, 2)])),
    )
    code, result = run_json(
        capsys,
        ["circle", "loop-act", "--g-factors", g_path, "--u-factors", u_path, "--N", "2"],
    )
    assert code == 0
    assert result["results"]["non_unitary_warning"] is False


def test_circle_csv_holds_the_per_point_residuals(tmp_path, capsys):
    rng = np.random.default_rng(2)
    filters = [LaurentPoly(-1, rng.normal(size=3)) for _ in range(2)]
    path = write(tmp_path / "junk.json", [m.to_json() for m in filters])
    csv_path = tmp_path / "grid.csv"
    code, result = run_json(
        capsys,
        ["circle", "matrix", "--filters", path, "--N", "2", "--grid", "9", "--csv", str(csv_path)],
    )
    assert code == 1
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    grid = unit_circle_grid(9)
    want = unitarity_residuals(banded_matrix(filters, 2, grid))
    assert [float(a) for a, _ in rows] == [float(np.angle(z)) for z in grid]
    assert [float(r) for _, r in rows] == want.tolist()
    assert max(want) == result["residuals"]["grid_unitarity"]


def test_band_count_below_2_exits_2(tmp_path, capsys):
    empty = write(tmp_path / "empty.json", {"filters": []})
    one = write(tmp_path / "one.json", {"filters": [LaurentPoly.one().to_json()]})
    for command, n, path in (("verify", "0", empty), ("matrix", "0", empty),
                             ("matrix", "1", one), ("verify", "1", one)):
        assert run(["circle", command, "--filters", path, "--N", n]) == 2, (command, n)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "wavelab: band count must be >= 2\n"


def _count_evaluations(monkeypatch) -> list:
    """Record, per call, which matrix function a command evaluates."""
    calls = []
    banded, blaschke = circ.banded_matrix, BlaschkeProduct.eval

    def count_banded(*args):
        calls.append("M")
        return banded(*args)

    def count_blaschke(self, z):
        calls.append(self.factors[0].a if self.factors else None)
        return blaschke(self, z)

    monkeypatch.setattr(circ, "banded_matrix", count_banded)
    monkeypatch.setattr(BlaschkeProduct, "eval", count_blaschke)
    return calls


def test_each_grid_check_evaluates_its_matrix_function_once(tmp_path, capsys, monkeypatch):
    filters = write(tmp_path / "haar.json", {"filters": [m.to_json() for m in oracle.haar_pair()]})
    g, u = (
        write(tmp_path / f"{name}.json",
              oracle.blaschke_json(oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), a, 2)])))
        for name, a in (("g", 0.0), ("u", 0.5))
    )
    calls = _count_evaluations(monkeypatch)
    # once on the grid, once at eps z for the rotation law
    assert run(["circle", "matrix", "--filters", filters, "--N", "2"]) == 0
    assert calls == ["M", "M"]
    calls.clear()
    assert run(["circle", "blaschke", "--factors", u]) == 0
    assert calls == [0.5, 0.5]
    calls.clear()
    # G at the z**N once, U at the z once
    assert run(["circle", "loop-act", "--g-factors", g, "--u-factors", u, "--N", "2"]) == 0
    assert calls == [0.0, 0.5]
    capsys.readouterr()


def test_verdict_is_false_on_any_nan():
    nan = float("nan")
    # max(0.0, nan) is 0.0, so the former max(a, b) < tol passed here
    assert not _all_below(1.0, 0.0, nan)
    assert not _all_below(1.0, nan, 0.0)
    assert _all_below(1.0, 0.0, 0.5) and not _all_below(1.0, 0.0, 1.0)


def _nan_blaschke(tmp_path, key):
    obj = oracle.blaschke_json(oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)]))
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
    filters = [LaurentPoly(0, [s, s, np.nan]), oracle.haar_pair()[1]]
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


def _d4_bank(tmp_path, scale_detail: float = 1.0) -> str:
    d = d4_taps()
    return write(
        tmp_path / "bank.json",
        {
            "analysis": [jsonio.encode_cvector(d), jsonio.encode_cvector(scale_detail * detail_taps(d))],
            "synthesis": [jsonio.encode_cvector(d), jsonio.encode_cvector(detail_taps(d))],
        },
    )


def _signal_file(path, values) -> str:
    path.write_text("".join(f"{z.real!r},{z.imag!r}\n" for z in np.asarray(values).tolist()))
    return str(path)


def test_mra_filterbank_verdict_scales_with_the_signal(tmp_path, capsys):
    tone = 1e4 * np.exp(2j * np.pi * np.arange(2**12) * 0.01)
    loud = _signal_file(tmp_path / "loud.csv", tone)
    code, result = run_json(capsys, ["mra", "filterbank", "--signal", loud, "--taps", _d4_bank(tmp_path)])
    # rounding alone puts the energy gap above the default 1e-10 ...
    assert result["residuals"]["energy"] > 1e-10
    # ... but far below 1e-10 of the signal's energy
    assert code == 0 and result["pass"] is True


def test_mra_filterbank_still_fails_a_broken_bank_or_nan(tmp_path, capsys):
    rng = np.random.default_rng(3)
    x = rng.normal(size=2**12) + 1j * rng.normal(size=2**12)
    signal = _signal_file(tmp_path / "x.csv", x)
    scaled = _d4_bank(tmp_path, 1.01)
    code, result = run_json(capsys, ["mra", "filterbank", "--signal", signal, "--taps", scaled])
    assert code == 1 and result["residuals"]["perfect_reconstruction"] > 1e-3
    x[17] = np.nan
    signal = _signal_file(tmp_path / "nan.csv", x)
    code, result = run_json(capsys, ["mra", "filterbank", "--signal", signal, "--taps", _d4_bank(tmp_path)])
    assert code == 1 and result["pass"] is False


SIGNAL_FIXTURES = {
    "blank lines": "\n1.5,-2\n\n\n0.25,3\n\n",
    "one column": "1.5\n-0\n2.75\n",
    "three columns": "1,2,3\n4,5,6\n",
    "spaces after commas": "1.5, -2\n 0.25 , 3e-300\n",
    "crlf": "1.5,-2\r\n0.1,0.2\r\n\r\n-0.0,5e-324\r\n",
    "nan and inf": "nan,inf\n-inf,NaN\nInfinity,-0.0\n",
    "quoted": '"1.5","-2"\n0.5,1\n',
    "17 digits": "0.10000000000000001,-0.29999999999999999\n1.7976931348623157e308,2.2250738585072014e-308\n",
}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


@pytest.mark.parametrize("name", sorted(SIGNAL_FIXTURES))
def test_read_signal_csv_matches_row_reader(name, tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(SIGNAL_FIXTURES[name].encode("utf-8"))
    assert _same_bits(cli._read_signal_csv(str(path)), oracle.read_signal_rows(str(path)))


@pytest.mark.parametrize(
    "text", ["", "\n\n", "1,2\n3\n", "1\n2,3\n", "1,2\nabc,4\n", "#1,2\n"],
    ids=["empty", "blank", "ragged", "ragged widening", "word", "comment"],
)
def test_bad_signal_csv_exits_2(text, tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text(text)
    taps = write(tmp_path / "bank.json", {"analysis": [jsonio.encode_cvector(haar_taps())] * 2})
    assert run(["mra", "filterbank", "--signal", str(path), "--taps", taps]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(path) in captured.err


def test_signal_csv_reads_back_bit_exactly(tmp_path):
    rng = np.random.default_rng(9)
    values = rng.normal(size=3 * cli._CSV_CHUNK_ROWS // 2) * 10.0 ** rng.integers(-300, 300, size=1)
    values = values + 1j * rng.normal(size=values.shape[0])
    values[:6] = [complex(-0.0, np.inf), complex(np.nan, -0.0), 5e-324, -1.7976931348623157e308, 0.1, 1j]
    path = tmp_path / "x.csv"
    cli._write_csv(str(path), (), values.real, values.imag)
    assert path.read_bytes().count(b"\r\n") == values.shape[0]
    back = cli._read_signal_csv(str(path))
    assert _same_bits(back[6:], values[6:])
    assert np.array_equal(back[:6], values[:6], equal_nan=True)
    assert np.signbit(back[0].real) and np.signbit(back[1].imag)


def _artifacts():
    """Every artifact writer, and the csv.writer rows it replaced."""
    rng = np.random.default_rng(4)
    signal = rng.normal(size=40) + 1j * rng.normal(size=40)
    signal[:3] = [complex(-0.0, np.inf), complex(np.nan, -0.0), 1e-320]
    profile = cascade(d4_taps(), 2, 12, 16)
    psi = wavelet_detail(profile, detail_taps(d4_taps()))
    residuals = np.abs(rng.normal(size=9)) * 1e-15
    residuals[4] = np.nan
    pts = chaos_game(sierpinski_ifs(), 50, seed=1)
    grid = unit_circle_grid(9)
    res = profile.resolution
    return {
        "signal": (
            lambda p: cli._write_csv(p, (), signal.real, signal.imag),
            (), [(z.real, z.imag) for z in signal],
        ),
        "grid": (
            lambda p: cli._write_grid_csv(p, 9, residuals),
            ("angle", "residual"), [(np.angle(z), r) for z, r in zip(grid, residuals)],
        ),
        "cascade": (
            lambda p: cli._write_csv(p, ("x", "phi"), profile.grid(), profile.samples.real),
            ("x", "phi"), [(x, v.real) for x, v in zip(profile.grid(), profile.samples)],
        ),
        "wavelet": (
            lambda p: cli._write_csv(p, ("x", "psi"), np.arange(psi.shape[0]) / res, psi.real),
            ("x", "psi"), [(i / res, v.real) for i, v in enumerate(psi)],
        ),
        "points": (lambda p: cli._write_csv(p, (), *pts.T), (), list(pts)),
    }


@pytest.mark.parametrize("name", ["signal", "grid", "cascade", "wavelet", "points"])
def test_artifact_writers_match_csv_writer(name, tmp_path):
    write_new, header, rows = _artifacts()[name]
    write_new(str(tmp_path / "new.csv"))
    oracle.write_rows(str(tmp_path / "old.csv"), header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_fractal_points_match_csv_writer(tmp_path, capsys):
    # the --out artifacts of the mra commands are frozen in tests/golden
    out = tmp_path / "pts.csv"
    ifs_path = write(tmp_path / "s.json", oracle.affine_ifs_json(sierpinski_ifs()))
    assert run(["examples", "fractal", "--ifs", ifs_path, "--samples", "10000", "--seed", "2",
                "--max-points", "2000", "--points-out", str(out)]) == 0
    capsys.readouterr()
    oracle.write_rows(str(tmp_path / "old.csv"), (), chaos_game(sierpinski_ifs(), 2000, 2))
    assert out.read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_mra_product_valid_m0(tmp_path, capsys):
    m0 = LaurentPoly(0, haar_taps())
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


def _numeric_field_inputs(tmp_path) -> dict:
    """command -> (argv with {file} for the file to edit, that file's valid content)."""
    pset = oracle.squaring_chain(0.9 * np.exp(0.7j), 4)
    filters = write(tmp_path / "m.json", {"filters": [jsonio.encode_cvector(np.ones(4))]})
    haar = [jsonio.encode_cvector(haar_taps()), jsonio.encode_cvector([2**-0.5, -(2**-0.5)])]
    signal = _signal_file(tmp_path / "x.csv", np.arange(8.0))
    blaschke = oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)])
    return {
        "circle verify": (
            ["circle", "verify", "--filters", "{file}", "--N", "2"],
            {"filters": [m.to_json() for m in oracle.haar_pair()]},
        ),
        "circle blaschke": (["circle", "blaschke", "--factors", "{file}"], oracle.blaschke_json(blaschke)),
        "examples fractal": (
            ["examples", "fractal", "--ifs", "{file}", "--samples", "10000", "--seed", "1"],
            oracle.affine_ifs_json(sierpinski_ifs()),
        ),
        "ifs verify-filter": (["ifs", "verify-filter", "--bank", "{file}"], build_indicator(IfsSpec(2)).to_json()),
        "rkhs product-kernel": (
            ["rkhs", "product-kernel", "--points", "{file}", "--filters", filters, "--terms", "3"],
            oracle.point_set_json(pset),
        ),
        "mra filterbank": (
            ["mra", "filterbank", "--signal", signal, "--taps", "{file}", "--N", "2"],
            {"analysis": haar},
        ),
    }


def _set(*path_and_value):
    """An edit that sets obj[k1][k2]... = value."""
    *path, key, value = path_and_value

    def edit(obj):
        for k in path:
            obj = obj[k]
        obj[key] = value

    return edit


def _all_weights(value):
    """An edit that sets the weights of a bank's spec and of each of its filters."""

    def edit(obj):
        for part in [obj["spec"]] + obj["filters"]:
            part["weights"] = value

    return edit


# each edited file ran before: int() truncated 2.9 and parsed "0", float() parsed
# "0.5", np.array(..., dtype=int) and complex() read true as 1, complex() raised
# OverflowError on 10**400, and NaN weights passed the weight checks
BAD_NUMERIC_FIELDS = {
    "min_degree 0.7": ("circle verify", _set("filters", 0, "min_degree", 0.7)),
    "min_degree string": ("circle verify", _set("filters", 0, "min_degree", "0")),
    "power 2.9": ("circle blaschke", _set("factors", 0, "power", 2.9)),
    "matrix entries": ("examples fractal", _set("A", [[2.9, 0], [0, "2"]])),
    "digit true": ("examples fractal", _set("digits", 1, 0, True)),
    "weight string": ("examples fractal", _set("weights", [0.25, "0.25", 0.5])),
    "spec weights strings": ("ifs verify-filter", _set("spec", "weights", ["0.5", "0.5"])),
    "sigma entries": ("rkhs product-kernel", _set("sigma", [0, 2.9, "0", True])),
    "offset true": ("mra filterbank", _set("analysis_offsets", [True, 0])),
    "bare coefficient 10**400": ("circle verify", _set("filters", 0, "coeffs", 0, 10**400)),
    "bare coefficient true": ("circle verify", _set("filters", 0, "coeffs", 0, True)),
    "NaN bank weights": ("ifs verify-filter", _all_weights([float("nan")] * 2)),
    "NaN digit weight": ("examples fractal", _set("weights", [float("nan"), 0.5, 0.5])),
}


@pytest.mark.parametrize("name", sorted(BAD_NUMERIC_FIELDS))
def test_numeric_fields_must_be_json_numbers(name, tmp_path, capsys):
    command, edit = BAD_NUMERIC_FIELDS[name]
    argv, obj = _numeric_field_inputs(tmp_path)[command]
    path = write(tmp_path / "valid.json", obj)
    assert run([a.format(file=path) for a in argv]) in (0, 1)  # the unedited file runs
    capsys.readouterr()
    edit(obj)
    path = write(tmp_path / "edited.json", obj)
    assert run([a.format(file=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and path in captured.err


# ---------------------------------------------------------------------------
# rkhs group
# ---------------------------------------------------------------------------

def test_rkhs_commands(tmp_path, capsys):
    pset = oracle.squaring_chain(0.9 * np.exp(0.7j), 12)
    points = write(tmp_path / "p.json", oracle.point_set_json(pset))
    kernel = write(tmp_path / "k.json", oracle.szego_kernel(pset.points).to_json())
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


def test_rkhs_check_with_one_filter_reports_the_contraction(tmp_path, capsys):
    pset = oracle.squaring_chain(0.9 * np.exp(0.7j), 12)
    kernel = oracle.szego_kernel(pset.points)
    points = write(tmp_path / "p.json", oracle.point_set_json(pset))
    kernel_path = write(tmp_path / "k.json", kernel.to_json())
    filters = write(tmp_path / "m.json", {"filters": [jsonio.encode_cvector(pset.points)]})
    code, result = run_json(
        capsys, ["rkhs", "check", "--points", points, "--kernel", kernel_path, "--filters", filters]
    )
    # m(z) = z alone leaves K(x, y) - x conj(y) K(x^2, y^2) = K(x^2, y^2): no refinement
    assert code == 1 and result["results"]["filter_count"] == 1
    expected = contraction_check(kernel, pset.points, pset)
    assert result["results"]["contraction_min_eigenvalue"] == expected


def test_rkhs_product_kernel_with_large_entries_is_not_a_usage_error(tmp_path, capsys):
    # large entries, whose rounding leaves imaginary parts over an absolute
    # 1e-10 on the diagonal where numpy fuses multiply-adds (as with seed 35
    # on an x86-64 host with FMA); the kernel is Hermitian at its own scale
    rng = np.random.default_rng(35)
    pset = FinitePointSet(rng.normal(size=25) + 0j, rng.integers(0, 25, size=25))
    values = rng.normal(size=(4, 25)) + 1j * rng.normal(size=(4, 25))
    points = write(tmp_path / "p.json", oracle.point_set_json(pset))
    filters = write(tmp_path / "m.json", {"filters": [jsonio.encode_cvector(v) for v in values]})
    code, result = run_json(
        capsys, ["rkhs", "product-kernel", "--points", points, "--filters", filters, "--terms", "5"]
    )
    assert code in (0, 1) and result["results"]["terms"] == 5


# ---------------------------------------------------------------------------
# examples group
# ---------------------------------------------------------------------------

def test_examples_commands(tmp_path, capsys):
    code, result = run_json(
        capsys, ["examples", "logistic", "--degree", "8", "--nodes", "64"]
    )
    assert code == 0
    assert result["residuals"]["invariance"] < 1e-12

    ifs_path = write(tmp_path / "sierpinski.json", oracle.affine_ifs_json(sierpinski_ifs()))
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
    ifs_path = write(tmp_path / "s.json", oracle.affine_ifs_json(sierpinski_ifs()))
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


# ---------------------------------------------------------------------------
# input errors, internal errors and the command table
# ---------------------------------------------------------------------------

def _input_files(tmp_path) -> dict:
    spec = IfsSpec(2)
    bank = build_indicator(spec)
    haar = [jsonio.encode_cvector(haar_taps()), jsonio.encode_cvector([2**-0.5, -(2**-0.5)])]
    roots3 = np.exp(2j * np.pi * np.arange(3) / 3)
    return {
        "bank": write(tmp_path / "bank.json", bank.to_json()),
        "ifs": write(tmp_path / "sierpinski.json", oracle.affine_ifs_json(sierpinski_ifs())),
        "signal": _signal_file(tmp_path / "x.csv", np.arange(8.0)),
        "haar_bank": write(tmp_path / "haar.json", {"analysis": haar}),
        "x_offsets": write(tmp_path / "offsets.json", {"analysis": haar[:1], "analysis_offsets": "x"}),
        "list": write(tmp_path / "list.json", [1, 2]),
        "string": write(tmp_path / "string.json", "x"),
        "points3": write(
            tmp_path / "points3.json", {"points": jsonio.encode_cvector(roots3), "sigma": [0, 0, 0]}
        ),
        "filters3": write(
            tmp_path / "filters3.json", {"filters": [jsonio.encode_cvector(np.ones(3) / 3**0.5)]}
        ),
        "kernel4": write(tmp_path / "kernel4.json", {"matrix": jsonio.encode_cmatrix(np.eye(4))}),
        "blaschke2": write(tmp_path / "blaschke2.json", {"V": jsonio.encode_cmatrix(np.eye(2))}),
        "blaschke3": write(tmp_path / "blaschke3.json", {"V": jsonio.encode_cmatrix(np.eye(3))}),
    }


MALFORMED = {
    "bank is a list": ["ifs", "verify-filter", "--bank", "{list}"],
    "bank is a string": ["ifs", "verify-filter", "--bank", "{string}"],
    "unitary is a list": ["ifs", "apply-unitary", "--bank", "{bank}", "--unitary", "{list}"],
    "unitary is a string": ["ifs", "apply-unitary", "--bank", "{bank}", "--unitary", "{string}"],
    "factors is a list": ["circle", "blaschke", "--factors", "{list}"],
    "factors is a string": ["circle", "blaschke", "--factors", "{string}"],
    "filterbank taps is a list": ["mra", "filterbank", "--signal", "{signal}", "--taps", "{list}"],
    "filterbank taps is a string": ["mra", "filterbank", "--signal", "{signal}", "--taps", "{string}"],
    "moment file is a list": ["solenoid", "moment", "--file", "{list}"],
    "moment file is a string": ["solenoid", "moment", "--file", "{string}"],
    "ifs is a list": ["examples", "fractal", "--ifs", "{list}", "--samples", "10000", "--seed", "1"],
    "ifs is a string": ["examples", "fractal", "--ifs", "{string}", "--samples", "10000", "--seed", "1"],
    "points is a list": [
        "rkhs", "check", "--points", "{list}", "--kernel", "{list}", "--filters", "{list}",
    ],
    "offsets are a string": [
        "mra", "filterbank", "--signal", "{signal}", "--taps", "{x_offsets}",
    ],
    "weights are words": ["ifs", "build-filter", "--kind", "indicator", "--N", "2", "--weights", "a,b"],
    "negative degree": ["examples", "logistic", "--degree", "-1"],
    "negative seed": ["examples", "fractal", "--ifs", "{ifs}", "--samples", "10000", "--seed", "-1"],
    # each file is well formed, but their sizes do not fit together
    "kernel does not fit the points": [
        "rkhs", "check", "--points", "{points3}", "--kernel", "{kernel4}", "--filters", "{filters3}",
    ],
    "loop factors differ in size": [
        "circle", "loop-act", "--g-factors", "{blaschke2}", "--u-factors", "{blaschke3}", "--N", "2",
    ],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2(name, tmp_path, capsys):
    files = _input_files(tmp_path)
    argv = [a.format(**files) for a in MALFORMED[name]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err
    bad_file = next((a for a in argv if a in (files["list"], files["string"])), None)
    if bad_file:
        assert bad_file in captured.err


def test_decoder_error_names_its_file(tmp_path, capsys):
    """A bad [re, im] pair in the second of three input files names that file."""
    pset = oracle.squaring_chain(0.9 * np.exp(0.7j), 12)
    kernel = oracle.szego_kernel(pset.points).to_json()
    kernel["matrix"][3][5] = ["0.5", 0.0]
    paths = {
        "points": write(tmp_path / "p.json", oracle.point_set_json(pset)),
        "kernel": write(tmp_path / "k.json", kernel),
        "filters": write(tmp_path / "m.json", {"filters": [jsonio.encode_cvector(np.ones(12))]}),
    }
    argv = ["rkhs", "check"] + [a for key, path in paths.items() for a in (f"--{key}", path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert paths["kernel"] in captured.err and "[re, im] pair" in captured.err
    assert paths["points"] not in captured.err and paths["filters"] not in captured.err


@pytest.mark.parametrize("band", ["-1", "0", "1"])
def test_dilations_below_2_exit_2(band, tmp_path, capsys):
    path = _input_files(tmp_path)["blaschke2"]
    for argv in (
        ["circle", "blaschke", "--factors", path, "--band", band],
        ["circle", "loop-act", "--g-factors", path, "--u-factors", path, "--N", band],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "band count must be >= 2" in captured.err


@pytest.mark.parametrize("error", [KeyError, ValueError, TypeError])
def test_internal_error_in_compute_is_not_a_usage_error(error, tmp_path, monkeypatch, capsys):
    path = write(tmp_path / "bank.json", build_indicator(IfsSpec(2)).to_json())

    def broken(*args, **kwargs):
        raise error("internal")

    monkeypatch.setattr(cli.ifsf, "verify_filter", broken)
    with pytest.raises(error):
        run(["ifs", "verify-filter", "--bank", path])
    assert capsys.readouterr().out == ""


def test_usage_errors_do_not_include_bare_python_errors():
    assert not set(cli._USAGE_ERRORS) & {KeyError, ValueError, json.JSONDecodeError}


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_mra_product_rejects_a_non_finite_t(t, tmp_path, capsys):
    path = write(tmp_path / "m0.json", LaurentPoly(0, haar_taps()).to_json())
    assert run(["mra", "product", "--m0", path, "--t", t]) == 2
    assert capsys.readouterr().out == ""


def test_mra_product_fails_closed_on_a_nan_coefficient(tmp_path, capsys):
    path = write(tmp_path / "m0.json", {"min_degree": 0, "coeffs": [[2**-0.5, 0.0], [np.nan, 0.0]]})
    code, result = run_json(capsys, ["mra", "product", "--m0", path, "--t", "1"])
    assert code == 1 and result["pass"] is False and "sqrt(2)" in result["error"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_float_options_exit_2(value, tmp_path, capsys):
    ifs_path = write(tmp_path / "s.json", oracle.affine_ifs_json(sierpinski_ifs()))
    fractal = ["examples", "fractal", "--ifs", ifs_path, "--samples", "10000", "--seed", "1"]
    for argv in (["examples", "logistic", f"--tol={value}"], fractal + [f"--z-bound={value}"]):
        assert run(argv) == 2
        assert "not a finite number" in capsys.readouterr().err


def test_fractal_points_are_the_checked_sample(tmp_path, capsys):
    # fewer samples than --max-points: the file holds the whole sample
    out = tmp_path / "pts.csv"
    ifs_path = write(tmp_path / "s.json", oracle.affine_ifs_json(sierpinski_ifs()))
    assert run(["examples", "fractal", "--ifs", ifs_path, "--samples", "10000", "--seed", "4",
                "--points-out", str(out)]) == 0
    capsys.readouterr()
    oracle.write_rows(str(tmp_path / "old.csv"), (), chaos_game(sierpinski_ifs(), 10000, 4))
    assert out.read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_parser_is_built_once_and_not_at_import():
    probe = (
        "from wavelab import cli\n"
        "assert cli._parser.cache_info().currsize == 0\n"
        "for _ in range(3):\n"
        "    cli.run(['examples', 'logistic', '--degree', '2', '--nodes', '4'])\n"
        "assert cli._parser.cache_info().misses == 1\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _docstring_listing() -> dict[str, set[str]]:
    block = cli.__doc__.split("per module:\n\n", 1)[1].split("\n\n", 1)[0]
    listing: dict[str, set[str]] = {}
    for line in block.splitlines():
        words = line.replace(",", " ").split()
        if not line.startswith("     "):  # continuation lines are indented further
            group = words.pop(0)
        listing.setdefault(group, set()).update(words)
    return listing


def _readme_listing() -> dict[str, set[str]]:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listing: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("wavelab "):
            group, command = line.split()[1:3]
            listing.setdefault(group, set()).add(command)
    return listing


def test_docs_list_exactly_the_command_table():
    table = {group: set(commands) for group, commands in cli.COMMANDS.items()}
    assert _docstring_listing() == table
    assert _readme_listing() == table


def _path_file(tmp_path, g_values, **extra) -> str:
    spec = IfsSpec(2)
    obj = {
        "m": build_indicator(spec).filters[0].to_json(),
        "f": CylinderFn(spec, 1, [1.0, 2.0]).to_json(),
        "g": CylinderFn(spec, 1, g_values).to_json(),
        **extra,
    }
    return write(tmp_path / "path.json", obj)


def test_solenoid_axioms_fail_closed_on_nan(tmp_path, capsys):
    # scaling stays 0.0 while the isometry residual is NaN: max(0.0, 0.0,
    # nan, 0.0) is 0.0, so a max(...) < tol verdict passed here
    code, result = run_json(capsys, ["solenoid", "axioms", "--file", _path_file(tmp_path, [np.nan, 1.0])])
    assert result["residuals"]["scaling_identity"] == 0.0 and np.isnan(result["residuals"]["isometry"])
    assert np.isnan(result["residuals"]["covariance"])
    assert code == 1 and result["pass"] is False


def test_solenoid_axioms_covariance_propagates_nan(tmp_path, capsys):
    # each probe distance is NaN; folding them with max(0.0, ...) printed 0.0
    spec = IfsSpec(2)
    m, f = build_indicator(spec).filters[0], CylinderFn(spec, 1, [np.nan, 1.0])
    g = CylinderFn(spec, 1, [1.0, 2.0])
    assert np.isnan(cli.sol.shift_covariance_check(m, f, g).conjugation)
    path = _path_file(tmp_path, [1.0, 2.0], f=f.to_json())
    code = run(["solenoid", "axioms", "--file", path])
    assert '"covariance": NaN' in capsys.readouterr().out
    assert code == 1


def test_solenoid_dilation_fails_closed_on_one_nan_order(tmp_path, capsys, monkeypatch):
    path = _path_file(tmp_path, [1.0, 2.0], orders=[0, 1])
    monkeypatch.setattr(
        cli.sol, "dilation_residuals",
        lambda m, f, g, orders: [float("nan") if n else 0.0 for n in orders],
    )
    code, result = run_json(capsys, ["solenoid", "dilation", "--file", path])
    assert result["residuals"]["order_0"] == 0.0 and np.isnan(result["residuals"]["order_1"])
    assert code == 1 and result["pass"] is False


@pytest.mark.parametrize("bad", [2.9, "2", True])
def test_branch_count_must_be_a_json_integer(tmp_path, capsys, bad):
    bank = build_indicator(IfsSpec(2)).to_json()
    bank["spec"]["N"] = bad  # int() read 2.9 as 2 and "2" as 2
    code = run(["ifs", "verify-filter", "--bank", write(tmp_path / "bank.json", bank)])
    assert code == 2 and "N must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [1.7, "1", True])
def test_cylinder_depth_must_be_a_json_integer(tmp_path, capsys, bad):
    obj = json.loads(Path(_path_file(tmp_path, [1.0, 2.0])).read_text())
    obj["f"]["depth"] = bad  # int() read 1.7 as depth 1
    code = run(["solenoid", "axioms", "--file", write(tmp_path / "path.json", obj)])
    assert code == 2 and "depth must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["orders", "n"])
@pytest.mark.parametrize("bad", [0.5, "1", True])
def test_dilation_orders_must_be_json_integers(tmp_path, capsys, key, bad):
    path = _path_file(tmp_path, [1.0, 2.0], **{key: [0, bad] if key == "orders" else bad})
    code = run(["solenoid", "dilation", "--file", path])
    assert code == 2 and "order must be an integer" in capsys.readouterr().err


def _perron_normalised(rng, spec, depth):
    """A random positive weight divided by the Perron eigenvalue of R_W."""
    raw = CylinderFn(spec, depth, rng.uniform(0.2, 1.8, spec.N**depth))
    return oracle.perron_normalised(raw)[0].values.real


def _moment_file(tmp_path, spec, weight, coords):
    return write(tmp_path / "moment.json", {
        "spec": spec.to_json(), "W": CylinderFn(spec, 8, weight).to_json(), "h": "auto",
        "coords": [CylinderFn(spec, 1, c).to_json() for c in coords],
    })


def test_solenoid_moment_names_the_perron_eigenvalue(tmp_path, capsys):
    # 1.3 times a normalised weight: R_W has Perron eigenvalue 1.3, so no h
    spec, rng = IfsSpec(2, (0.375, 0.625)), np.random.default_rng(3)
    weight = 1.3 * _perron_normalised(rng, spec, 8)
    path = _moment_file(tmp_path, spec, weight, [[1.0, 2.0], [0.5, 1j], [1.0, 1.0]])
    code, result = run_json(capsys, ["solenoid", "moment", "--file", path])
    assert code == 1 and result["pass"] is False
    eigenvalue = re.search(r"Perron eigenvalue ([0-9.e+-]+),", result["error"]).group(1)
    ratio = re.search(r"\|lambda_2/lambda_1\| ([0-9.e+-]+)\)", result["error"]).group(1)
    assert abs(float(eigenvalue) - 1.3) < 1e-5 and 0.0 < float(ratio) < 1.0


def test_solenoid_moment_rejects_a_signed_auto_h(tmp_path, capsys):
    # R_W has eigenvalues 1.3 and 1, and its eigenvalue-1 vector changes sign
    spec = IfsSpec(2)
    path = write(tmp_path / "moment.json", {
        "spec": spec.to_json(), "W": CylinderFn(spec, 2, [2.4, 1.0, 0.08, 2.2]).to_json(),
        "h": "auto", "coords": [CylinderFn(spec, 1, [1.0, 2.0]).to_json()] * 2,
    })
    code, result = run_json(capsys, ["solenoid", "moment", "--file", path])
    assert code == 1 and result["pass"] is False
    assert "Perron eigenvalue 1.3," in result["error"]


@pytest.mark.parametrize("seed", [8, 195])
def test_solenoid_moment_auto_h_meets_the_default_tolerance(tmp_path, capsys, seed):
    # power iteration stopped at 1e-10 (seed 8) or gave up after 200 steps
    # (seed 195, |lambda_2/lambda_1| = 0.91) on these weights
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.5, 1.5, 2)
    head = round(float(raw[0] / raw.sum()), 4)
    spec = IfsSpec(2, (head, 1.0 - head))
    weight = _perron_normalised(rng, spec, 8)
    path = _moment_file(tmp_path, spec, weight, [[1.0, 1.0]] * 4)
    code, result = run_json(capsys, ["solenoid", "moment", "--file", path])
    assert code == 0 and result["residuals"]["probability_normalization"] < 1e-12


@pytest.mark.parametrize("name", ["signed", "nan", "complex"])
def test_solenoid_moment_rejects_an_explicit_h_that_is_no_density(name, tmp_path, capsys):
    # signed: the eigenvalue-1 vector of R_W = [[1.2, 0.04], [0.5, 1.1]], which
    # integrates to 1 but is negative on [1]; complex: R_W = I fixes every h,
    # and this one integrates to 1; all three files passed the former check
    spec, nan = IfsSpec(2), float("nan")
    depth, weight, h, numbers = {
        "signed": (2, [2.4, 1.0, 0.08, 2.2], [-0.5, 2.5], "min Re h -5.000e-01"),
        "nan": (0, [1.0], [nan, 1.0], "sup|R_W h - h| nan, min Re h nan"),
        "complex": (2, [2.0, 0.0, 0.0, 2.0], [1 + 1j, 1 - 1j], "max |Im h| 1.000e+00"),
    }[name]
    path = write(tmp_path / "moment.json", {
        "spec": spec.to_json(), "W": CylinderFn(spec, depth, weight).to_json(),
        "h": CylinderFn(spec, 1, h).to_json(),
        "coords": [CylinderFn.indicator(spec, [1]).to_json()] * 2,
    })
    assert run(["solenoid", "moment", "--file", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and path in captured.err
    assert "not a transfer-harmonic density" in captured.err and numbers in captured.err
