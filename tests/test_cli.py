import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracle
from wavelab import jsonio
from wavelab import cli, code_space, rkhs_kernels, solenoid
from wavelab.cli import run
from wavelab.errors import below, branch_weights
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
from wavelab.examples_geometry import sierpinski_ifs
from wavelab.ifs_filters import (
    FilterBank,
    MatrixField,
    apply_loop_group,
    build_indicator,
    build_roots_of_unity,
)
from wavelab.errors import InputError
from wavelab.rkhs_kernels import FinitePointSet, KernelMatrix, contraction_check


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


@pytest.mark.parametrize("command", ["build-filter", "verify-filter", "apply-unitary", "endo-check"])
def test_probe_depth_zero_exits_2(tmp_path, capsys, command):
    bank = write(tmp_path / "bank.json", build_indicator(IfsSpec(2)).to_json())
    unitary = write(tmp_path / "u.json", {"matrix": jsonio.encode_cmatrix(np.eye(2))})
    fn = write(tmp_path / "fn.json", CylinderFn(IfsSpec(2), 1, [1.0, 2.0]).to_json())
    inputs = {
        "build-filter": ["--kind", "indicator", "--N", "2"],
        "verify-filter": ["--bank", bank],
        "apply-unitary": ["--bank", bank, "--unitary", unitary],
        "endo-check": ["--bank", bank, "--fn", fn],
    }
    assert run(["ifs", command, *inputs[command], "--depth", "0"]) == 2
    assert capsys.readouterr() == ("", "wavelab: probe depth must be >= 1\n")


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
    assert sup_distance(oracle.multires_reconstruct(bank, tree), fn) < 1e-13


def test_decompose_tree_file_equals_the_per_node_recursion(tmp_path, capsys):
    """--out writes, byte for byte, the tree of the per-node recursion."""
    rng = np.random.default_rng(7)
    spec = IfsSpec(2, (0.25, 0.75))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))  # a depth-2 diagonal unitary field
    acted = apply_loop_group(build_indicator(spec), MatrixField(spec, np.stack([
        np.stack([phase, 0 * phase]), np.stack([0 * phase, phase[::-1]]),
    ])))  # depth 3, deeper than the function's nodes
    cases = [(build_roots_of_unity(IfsSpec(3)), 2), (build_indicator(spec), 3), (acted, 2)]
    for i, (bank, depth) in enumerate(cases):
        fn = CylinderFn(bank.spec, depth, rng.normal(size=bank.spec.N**depth))
        bank_path = write(tmp_path / f"bank{i}.json", bank.to_json())
        fn_path = write(tmp_path / f"fn{i}.json", fn.to_json())
        for mode in ("packet", "single"):
            got, want = tmp_path / "got.json", str(tmp_path / "want.json")
            argv = ["ifs", "decompose", "--bank", bank_path, "--fn", fn_path,
                    "--levels", str(depth), "--mode", mode, "--out", str(got)]
            assert run(argv) == 0
            tree = oracle.multires_decompose(FilterBank.from_json(bank.to_json()), fn, depth, mode)
            jsonio.dump_file(want, tree.to_json())
            assert got.read_bytes() == Path(want).read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("levels", ["0", "1"])
def test_decompose_rejects_a_function_over_another_system(tmp_path, capsys, levels):
    pairs = [
        (build_indicator(IfsSpec(3)), CylinderFn(IfsSpec(2), 2, [1.0, 2.0, 3.0, 4.0])),
        (build_roots_of_unity(IfsSpec(2)), CylinderFn(IfsSpec(2, (0.25, 0.75)), 1, [1.0, 2.0])),
    ]
    for bank, fn in pairs:
        bank_path = write(tmp_path / "bank.json", bank.to_json())
        fn_path = write(tmp_path / "fn.json", fn.to_json())
        argv = ["ifs", "decompose", "--bank", bank_path, "--fn", fn_path, "--levels", levels]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"operands live over different systems: {bank.spec} vs {fn.spec}" in captured.err


def test_decompose_level_over_cell_cap_exits_2(tmp_path, capsys, monkeypatch):
    # an indicator bank written at depth 5: each node fits the cap of 100
    # cells, but the Gram product of the second level, two nodes lifted to
    # the bank's depth, holds 128
    spec = IfsSpec(2)
    deep = FilterBank(spec, np.repeat(build_indicator(spec).values, 16, axis=-1))
    bank_path = write(tmp_path / "bank.json", deep.to_json())
    fn_path = write(tmp_path / "fn.json", CylinderFn(spec, 5, np.arange(32.0)).to_json())
    argv = ["ifs", "decompose", "--bank", bank_path, "--fn", fn_path, "--levels", "2"]
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "100")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wavelab: 128 cells exceed the cap of 100; set WAVELAB_MAX_CELLS to raise it\n"


@pytest.mark.parametrize("bank_depth, fn_depth, levels, cells", [(1, 5, 1, 64), (5, 2, 2, 128)])
def test_decompose_counts_the_gram_product_at_the_deeper_depth(
    tmp_path, capsys, monkeypatch, bank_depth, fn_depth, levels, cells
):
    # the Gram product of a level of K nodes holds N * K * N**d cells, d the
    # deeper of the bank and the level, whichever of the two is read as a view
    spec = IfsSpec(2)
    bank = FilterBank(spec, np.repeat(build_indicator(spec).values, 2 ** (bank_depth - 1), axis=-1))
    bank_path = write(tmp_path / "bank.json", bank.to_json())
    fn = CylinderFn(spec, fn_depth, np.arange(2.0**fn_depth))
    fn_path = write(tmp_path / "fn.json", fn.to_json())
    argv = ["ifs", "decompose", "--bank", bank_path, "--fn", fn_path, "--levels", str(levels)]
    _exits_2_one_below_the_cap(argv, cells, capsys, monkeypatch)


def test_apply_unitary_counts_every_recombined_filter_against_the_cap(tmp_path, capsys, monkeypatch):
    # a depth-5 identity field makes two depth-6 filters: 2 * 64 = 128 cells,
    # though each filter alone fits a cap of 64
    spec = IfsSpec(2)
    bank_path = write(tmp_path / "bank.json", build_indicator(spec).to_json())
    field = MatrixField(spec, np.repeat(np.eye(2)[:, :, None], 32, axis=-1))
    field_path = write(tmp_path / "field.json", field.to_json())
    argv = ["ifs", "apply-unitary", "--bank", bank_path, "--unitary", field_path]
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "64")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wavelab: 128 cells exceed the cap of 64; set WAVELAB_MAX_CELLS to raise it\n"
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "128")
    out = apply_loop_group(build_indicator(spec), field)
    assert np.array_equal(out.values, np.repeat(build_indicator(spec).values, 32, axis=-1))
    # verifying the image takes the N**(L+2) = 256 cells of its Gram product
    assert run(argv) == 2 and "256 cells exceed the cap of 128" in capsys.readouterr().err
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "256")
    code, result = run_json(capsys, argv)
    assert code == 0 and result["pass"] is True


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


def test_a_file_over_the_cell_cap_gets_the_cap_message_naming_it(tmp_path, capsys, monkeypatch):
    # a well-formed file too deep for the cap is no malformed file
    spec = IfsSpec(2)
    bank_path = write(tmp_path / "b.json", build_indicator(spec).to_json())
    fn_path = write(tmp_path / "f.json", CylinderFn(spec, 10, np.arange(1024.0) / 1024).to_json())
    argv = ["ifs", "endo-check", "--bank", bank_path, "--fn", fn_path]
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "512")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wavelab: {fn_path}: 1024 cells exceed the cap of 512; set WAVELAB_MAX_CELLS to raise it\n"
    monkeypatch.delenv("WAVELAB_MAX_CELLS")
    assert run(argv) == 0


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


def test_circle_cqf_judges_the_exact_power_sum(tmp_path, capsys):
    """A term at degree 512 aliases onto degree 0 on the 256-point grid, so the
    grid looks unitary; the exact power-sum residual still fails the verdict."""
    coeffs = np.zeros(513)
    coeffs[[0, 1, 512]] = [0.2, 0.5, 0.3]
    m0_path = write(tmp_path / "m0.json", LaurentPoly(0, coeffs).to_json())
    code, result = run_json(capsys, ["circle", "cqf-complete", "--m0", m0_path])
    assert code == 1 and result["pass"] is False
    assert result["residuals"]["grid_unitarity"] < 1e-13
    assert result["residuals"]["power_sum"] == pytest.approx(0.24)


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
    assert not below(1.0, 0.0, nan)
    assert not below(1.0, nan, 0.0)
    assert below(1.0, 0.0, 0.5) and not below(1.0, 0.0, 1.0)
    assert below(1.0)  # no residual: nothing fails


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


@pytest.mark.parametrize("raw, message", [
    ("0", "WAVELAB_MAX_CELLS must be positive, got 0"),
    ("abc", "WAVELAB_MAX_CELLS must be an integer, got 'abc'"),
])
def test_a_bad_cell_cap_is_one_usage_error_for_every_command(tmp_path, capsys, monkeypatch, raw, message):
    # judged after parsing and before any input file is read: none of these files exists
    missing = str(tmp_path / "missing.json")
    commands = [
        ["ifs", "verify-filter", "--bank", missing],
        ["circle", "verify", "--filters", missing, "--N", "2"],
        ["mra", "product", "--m0", missing, "--t", "0.5"],
        ["solenoid", "moment", "--file", missing],
        ["rkhs", "check", "--points", missing, "--kernel", missing, "--filters", missing],
        ["examples", "logistic"],
    ]
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    monkeypatch.setenv("WAVELAB_MAX_CELLS", raw)
    for argv in commands:
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", f"wavelab: {message}\n"), argv


def _exits_2_one_below_the_cap(argv, cells, capsys, monkeypatch):
    monkeypatch.setenv("WAVELAB_MAX_CELLS", str(cells - 1))
    assert run(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"wavelab: {cells} cells exceed the cap of {cells - 1}; set WAVELAB_MAX_CELLS to raise it\n"
    )
    monkeypatch.setenv("WAVELAB_MAX_CELLS", str(cells))
    assert run(argv) == 0, argv
    capsys.readouterr()


def test_circle_grid_stacks_over_cell_cap_exit_2(tmp_path, capsys, monkeypatch):
    # every grid command holds a stack of 16 matrices of 2 x 2: 64 cells
    haar = oracle.haar_pair()
    filters = write(tmp_path / "haar.json", {"filters": [m.to_json() for m in haar]})
    m0 = write(tmp_path / "m0.json", haar[0].to_json())
    product = write(
        tmp_path / "u.json",
        oracle.blaschke_json(oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)])),
    )
    commands = [
        ["circle", "cqf-complete", "--m0", m0, "--convention", "averaged"],
        ["circle", "matrix", "--filters", filters, "--N", "2"],
        ["circle", "blaschke", "--factors", product],
        ["circle", "loop-act", "--g-factors", product, "--u-factors", product, "--N", "2"],
    ]
    for argv in commands:
        _exits_2_one_below_the_cap(argv + ["--grid", "16"], 64, capsys, monkeypatch)


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


def test_mra_cascade_grid_over_cell_cap_exits_2(tmp_path, capsys, monkeypatch):
    # D4 at resolution 4096 samples 3 * 4096 + 1 = 12289 points
    taps = write(tmp_path / "d4.json", {"taps": jsonio.encode_cvector(d4_taps())})
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "1000")
    for command in ("cascade", "wavelet"):
        assert run(["mra", command, "--taps", taps, "--iters", "5", "--resolution", "4096"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wavelab: 12289 cells exceed the cap of 1000; set WAVELAB_MAX_CELLS to raise it\n"


def test_mra_cascade_and_wavelet_reject_a_nan_tap(tmp_path, capsys):
    # NaN passed a tap-sum test written as abs(sum - sqrt N) > tol and iterated NaN steps
    taps = write(tmp_path / "nan.json", {"taps": [[float("nan"), 0.0], [0.7, 0.0], [0.7, 0.0]]})
    for command in ("cascade", "wavelet"):
        code, result = run_json(capsys, ["mra", command, "--taps", taps])
        assert code == 1 and result["pass"] is False
        assert result["error"].startswith("taps must sum to sqrt(2)")


def test_mra_cascade_and_wavelet_stop_as_diverged_at_an_overflow(tmp_path, capsys):
    # the taps sum to sqrt 2, but the first step reaches 1.4e200 and the second overflows
    taps = write(tmp_path / "big.json", {"taps": [[1e200, 0.0], [-1e200, 0.0], [np.sqrt(2), 0.0]]})
    results = {}
    for command in ("cascade", "wavelet"):
        code, result = run_json(capsys, ["mra", command, "--taps", taps])
        assert code == 1 and result["pass"] is False
        assert result["results"]["iterations"] == 2 and result["results"]["converged"] is False
        results[command] = result
    assert results["cascade"]["results"]["diverged"] is True
    assert results["cascade"]["results"]["sup_diffs"] == [pytest.approx(np.sqrt(2) * 1e200), np.inf]
    assert np.isnan(results["wavelet"]["residuals"]["detail_mean"])


def test_an_overflow_writes_no_numpy_warning(tmp_path):
    taps = write(tmp_path / "big.json", [1e200, -1e200, np.sqrt(2)])
    proc = subprocess.run(
        [sys.executable, "-m", "wavelab", "mra", "cascade", "--taps", taps],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (
        '{"command": "mra cascade", "pass": false, '
        '"residuals": {"integral_error": NaN, "last_sup_diff": Infinity}, '
        '"results": {"converged": false, "diverged": true, "integral": [NaN, NaN], '
        '"iterations": 2, "sup_diffs": [1.414213562373095e+200, Infinity]}, '
        '"tolerances": {"sup_diff": 1e-06}}\n'
    )


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


def test_mra_filterbank_signal_counts_against_the_cap(tmp_path, capsys, monkeypatch):
    # 2^16 samples: each band and the reconstruction are made from their cells
    argv = ["mra", "filterbank", "--signal", _signal_file(tmp_path / "x.csv", np.ones(2**16)),
            "--taps", _d4_bank(tmp_path), "--N", "2"]
    _exits_2_one_below_the_cap(argv, 2**16, capsys, monkeypatch)
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "4096")
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "wavelab: 65536 cells exceed the cap of 4096; set WAVELAB_MAX_CELLS to raise it\n"
    )


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


def test_mra_filterbank_out_matches_the_zero_stuffed_oracle_bytes(tmp_path, capsys):
    # random banks and offsets, some with a NaN or inf tap or sample: --out
    # holds the former round trip's reconstruction, byte for byte
    for k, (x, a, s, n, oa, os) in enumerate(oracle.filterbank_cases(30, 22)):
        bank = {
            "analysis": [jsonio.encode_cvector(t) for t in a],
            "synthesis": [jsonio.encode_cvector(t) for t in s],
            "analysis_offsets": oa,
            "synthesis_offsets": os,
        }
        signal, taps = _signal_file(tmp_path / f"x{k}.csv", x), write(tmp_path / f"bank{k}.json", bank)
        out, want = tmp_path / f"recon{k}.csv", tmp_path / f"want{k}.csv"
        argv = ["mra", "filterbank", "--signal", signal, "--taps", taps, "--N", str(n), "--out", str(out)]
        assert run(argv) in (0, 1)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            recon = oracle.filterbank_zero_stuffed(x, a, s, n, oa, os)[1]
        oracle.write_rows(str(want), (), zip(recon.real, recon.imag))
        assert out.read_bytes() == want.read_bytes()


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
    pts = oracle.chaos_game_scan(sierpinski_ifs(), 50, seed=1)
    grid = unit_circle_grid(9)
    res = profile.resolution
    return {
        "signal": (
            lambda p: cli._write_csv(p, (), signal.real, signal.imag),
            (), [(z.real, z.imag) for z in signal],
        ),
        "grid": (
            lambda p: cli._write_csv(p, ("angle", "residual"), np.angle(grid), residuals),
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
    oracle.write_rows(str(tmp_path / "old.csv"), (), oracle.chaos_game_scan(sierpinski_ifs(), 2000, 2))
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


def _input_rule_files(name) -> list:
    """The JSON files of one INPUT_RULES case: the command's first file, then its second."""
    bank2, bank3 = build_indicator(IfsSpec(2)).to_json(), build_indicator(IfsSpec(3)).to_json()
    haar = [jsonio.encode_cvector(haar_taps()), jsonio.encode_cvector([2**-0.5, -(2**-0.5)])]
    factor = BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)
    product = oracle.blaschke_json(oracle.blaschke_product([factor]))
    row, one = [[[1.0, 0.0], [0.0, 0.0]]], [[[1.0, 0.0]]]  # a 1 x 2 and a 1 x 1 matrix

    def with_factor(**edit):
        return {**product, "factors": [{**product["factors"][0], **edit}]}

    other_weights = {**bank2["filters"][1], "weights": [0.25, 0.75]}
    moment = {"spec": {"N": 3}, "W": CylinderFn.ones(IfsSpec(3)).to_json(), "h": "auto",
              "coords": [CylinderFn.ones(IfsSpec(2)).to_json()]}
    return {
        "field NaN": [bank2, {"matrix": [[[np.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}],
        "field N=3": [bank2, MatrixField.from_matrix(IfsSpec(3), np.eye(3)).to_json()],
        "connect N=2 N=3": [bank2, bank3],
        "filter weights": [{**bank2, "filters": [bank2["filters"][0], other_weights]}],
        "two analysis one synthesis": [{"analysis": haar, "synthesis": haar[:1]}],
        "one offset two banks": [{"analysis": haar, "analysis_offsets": [0]}],
        "circle filters 3": [{"filters": 3}],
        "rkhs filters 5": [{"filters": 5}],
        "filter length 2": [{"filters": [jsonio.encode_cvector([1.0, 1.0])]}],
        "sigma of 2": [{**oracle.point_set_json(oracle.squaring_chain(0.5, 3)), "sigma": [0, 0]}],
        "P 1x2": [with_factor(P=row)],
        "power 1": [with_factor(power=1)],
        "V 1x2": [{**product, "V": row}],
        "P 1x1 under V 2x2": [with_factor(P=one)],
        "A 1x2": [{"A": [[2, 0]], "digits": [[0], [1]]}],
        "digits 1-d": [{"A": [[2, 0], [0, 2]], "digits": [0, 1]}],
        "moment N=2 in N=3": [moment],
    }[name]


def _input_rule_argv(tmp_path, name) -> list[str]:
    paths = [write(tmp_path / f"{k}.json", obj) for k, obj in enumerate(_input_rule_files(name))]
    a, b = paths[0], paths[-1]
    pset = oracle.squaring_chain(0.5, 3)
    points = write(tmp_path / "p.json", oracle.point_set_json(pset))
    kernel = write(tmp_path / "k.json", KernelMatrix(np.eye(pset.size)).to_json())
    filters = write(tmp_path / "m.json", {"filters": [jsonio.encode_cvector(np.ones(3))]})
    command = INPUT_RULES[name][0]
    return command.split() + {
        "ifs apply-unitary": ["--bank", a, "--unitary", b],
        "ifs connect": ["--bank", a, "--target", b],
        "ifs verify-filter": ["--bank", a],
        "mra filterbank": ["--signal", _signal_file(tmp_path / "x.csv", np.arange(8.0)), "--taps", a],
        "circle verify": ["--filters", a, "--N", "2"],
        "rkhs check": ["--points", points, "--kernel", kernel, "--filters", a],
        "rkhs product-kernel": ["--points", a, "--filters", filters],
        "circle blaschke": ["--factors", a],
        "examples fractal": ["--ifs", a, "--samples", "10", "--seed", "1"],
        "solenoid moment": ["--file", a],
    }[command]


def _specs_differ(spec, other) -> str:
    return f"operands live over different systems: {spec} vs {other}"


# name -> (command, its message): input rules that exit 2 before any output
INPUT_RULES = {
    "field NaN": ("ifs apply-unitary", "matrix field entries must be finite"),
    "field N=3": ("ifs apply-unitary", _specs_differ(IfsSpec(2), IfsSpec(3))),
    "connect N=2 N=3": ("ifs connect", _specs_differ(IfsSpec(2), IfsSpec(3))),
    "filter weights": ("ifs verify-filter", _specs_differ(IfsSpec(2), IfsSpec(2, (0.25, 0.75)))),
    "two analysis one synthesis": ("mra filterbank", "analysis and synthesis bank counts differ"),
    "one offset two banks": ("mra filterbank", "offset count differs from bank count"),
    "circle filters 3": ("circle verify", "circle filter file must hold a list of Laurent polynomials"),
    "rkhs filters 5": ("rkhs check", "filter file must hold a list of value vectors"),
    "filter length 2": ("rkhs check", "filter length 2 does not match the 3 points"),
    "sigma of 2": ("rkhs product-kernel", "sigma must give one target index per point"),
    "P 1x2": ("circle blaschke", "projection must be a square matrix"),
    "power 1": ("circle blaschke", "factor power must be >= 2"),
    "V 1x2": ("circle blaschke", "left unitary must be a square matrix"),
    "P 1x1 under V 2x2": ("circle blaschke", "factor size differs from the left unitary"),
    "A 1x2": ("examples fractal", "matrix must be square"),
    "digits 1-d": ("examples fractal", "digits must be row vectors of dimension 2"),
    "moment N=2 in N=3": ("solenoid moment", _specs_differ(IfsSpec(3), IfsSpec(2))),
}


@pytest.mark.parametrize("name", list(INPUT_RULES))
def test_input_rules_exit_2(name, tmp_path, capsys):
    assert run(_input_rule_argv(tmp_path, name)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and INPUT_RULES[name][1] in captured.err


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rkhs_check_with_a_non_finite_filter_fails_its_verdict(tmp_path, capsys, bad):
    # the eigensolver rejects a non-finite matrix: the contraction reads NaN, not a traceback
    pset = oracle.squaring_chain(0.9 * np.exp(0.7j), 8)
    m = np.full(pset.size, 0.5, dtype=complex)
    m[3] = bad
    points = write(tmp_path / "p.json", oracle.point_set_json(pset))
    kernel = write(tmp_path / "k.json", KernelMatrix(np.eye(pset.size)).to_json())
    filters = write(tmp_path / "m.json", {"filters": [jsonio.encode_cvector(m)]})
    assert run(["rkhs", "check", "--points", points, "--kernel", kernel, "--filters", filters]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    result = json.loads(captured.out)
    assert result["pass"] is False and math.isnan(result["results"]["contraction_min_eigenvalue"])
    assert not result["residuals"]["refinement"] < 1e-12


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


def _rkhs_files(tmp_path) -> tuple[list[str], str]:
    """(--points and --filters of a 12-point squaring chain with two filters, a Szego kernel file)."""
    pset = oracle.squaring_chain(0.9 * np.exp(0.7j), 12)
    points = write(tmp_path / "p.json", oracle.point_set_json(pset))
    filters = write(
        tmp_path / "m.json",
        {"filters": [jsonio.encode_cvector(np.ones(12)), jsonio.encode_cvector(pset.points)]},
    )
    kernel = write(tmp_path / "k.json", oracle.szego_kernel(pset.points).to_json())
    return ["--points", points, "--filters", filters], kernel


def test_rkhs_kernel_over_cell_cap_exits_2_before_the_kernel_file_is_read(tmp_path, capsys, monkeypatch):
    inputs, kernel = _rkhs_files(tmp_path)  # 12 points: a 144-cell kernel
    missing = str(tmp_path / "missing.json")
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "143")
    for argv in (["rkhs", "check", "--kernel", missing], ["rkhs", "product-kernel"]):
        assert run(argv + inputs) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wavelab: 144 cells exceed the cap of 143; set WAVELAB_MAX_CELLS to raise it\n"
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "144")
    for argv in (["rkhs", "check", "--kernel", kernel], ["rkhs", "product-kernel"]):
        assert run(argv + inputs) == 0, argv
        capsys.readouterr()


def _malformed_kernels(good: str) -> dict[str, str]:
    """Kernel texts, one per way to break the file at good."""
    obj = json.loads(good)
    ragged, nan, string = (json.loads(good) for _ in range(3))
    del ragged["matrix"][3][-1]
    nan["matrix"][2][5][0] = float("nan")
    string["matrix"][4][1][1] = "0.5"
    return {
        "truncated": good[: len(good) // 2],
        "ragged": json.dumps(ragged),
        "nan": json.dumps(nan),  # NaN literals parse; the kernel is then no Hermitian matrix
        "string": json.dumps(string),
        "bom": "\ufeff" + good,
        "trailing": good + " []",
        "no-object": json.dumps(obj["matrix"]),
        "no-rows": '{"matrix": [], "tol": 1}',
        "no-matrix": '{"tol": 1}',
        "int-key": '{1: 2}',
        "no-colon": '{"matrix" 1}',
    }


@pytest.mark.parametrize("chunk", [1, 2, 7, jsonio._CHUNK])  # a window's edge inside every token
@pytest.mark.parametrize("case", ["truncated", "ragged", "nan", "string", "bom", "trailing",
                                  "no-object", "no-rows", "no-matrix", "int-key", "no-colon"])
def test_a_malformed_kernel_fails_as_the_whole_tree_does(tmp_path, capsys, monkeypatch, case, chunk):
    inputs, kernel = _rkhs_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed_kernels(Path(kernel).read_text(encoding="utf-8"))[case], encoding="utf-8")
    argv = ["rkhs", "check", "--kernel", str(bad), *inputs]
    monkeypatch.setattr(jsonio, "_CHUNK", chunk)
    streamed = run(argv), capsys.readouterr()
    monkeypatch.setattr(jsonio, "_stream", lambda fh, matrix: None)  # the tree path alone
    tree = run(argv), capsys.readouterr()
    assert streamed == tree
    assert tree[0] in (1, 2) and tree[1].err.startswith("wavelab: ") == (tree[0] == 2)


def test_a_wide_kernel_row_is_judged_within_the_cell_cap(tmp_path, capsys, monkeypatch):
    """A one-row kernel of 4,000 entries sizes no 4,000-square array: it
    fails as the tree path fails it, and the load stays small."""
    inputs, _ = _rkhs_files(tmp_path)
    wide = write(tmp_path / "wide.json", {"matrix": [[[1.0, 0.0]] * 4000]})
    argv = ["rkhs", "check", "--kernel", wide, *inputs]
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "144")  # the 12 points' kernel
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    streamed = code, capsys.readouterr()
    monkeypatch.setattr(jsonio, "_stream", lambda fh, matrix: None)  # the tree path alone
    assert streamed == (run(argv), capsys.readouterr())
    assert code == 2 and streamed[1].out == ""
    assert streamed[1].err == f"wavelab: malformed {wide}: InputError: kernel must be a square matrix\n"
    assert peak < 16 * 4000**2 / 100, peak


@pytest.mark.parametrize("block_cells", [12, 2**13])  # a row a block, and one block
def test_a_nan_in_a_later_row_block_fails_the_rkhs_verdicts(tmp_path, capsys, monkeypatch, block_cells):
    """A NaN kernel entry gives "refinement": NaN, and a NaN filter value
    "tail_bound": NaN; either way pass is false and the exit code 1."""
    monkeypatch.setattr(rkhs_kernels, "_BLOCK_CELLS", block_cells)
    inputs, kernel = _rkhs_files(tmp_path)
    obj = json.loads(Path(kernel).read_text(encoding="utf-8"))
    obj["matrix"][7][5][0] = float("nan")
    code, out = run_json(capsys, ["rkhs", "check", *inputs, "--kernel", write(tmp_path / "nan.json", obj)])
    assert code == 1 and out["pass"] is False and math.isnan(out["residuals"]["refinement"])
    obj = json.loads(Path(inputs[3]).read_text(encoding="utf-8"))
    obj["filters"][1][7][1] = float("nan")
    inputs[3] = write(tmp_path / "nan_m.json", obj)
    code, out = run_json(capsys, ["rkhs", "product-kernel", *inputs])
    assert code == 1 and out["pass"] is False and math.isnan(out["residuals"]["tail_bound"])


def test_the_kernel_file_loads_within_a_memory_budget(tmp_path):
    """The 256-point kernel file, read through cli._load: its JSON tree would
    peak at about 13 kernel matrices and its whole text at 5.4; read through
    the window, one matrix and the window are the peak (2.1)."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    kernel = write(tmp_path / "k.json", KernelMatrix(a + a.conj().T).to_json())
    size = Path(kernel).stat().st_size
    tracemalloc.start()
    try:
        loaded = cli._load(kernel, lambda obj: cli._kernel(obj, 256), KernelMatrix.MEMBER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.matrix, a + a.conj().T)
    assert peak < 2.5 * 256**2 * 16, (peak, size)


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


def test_examples_logistic_nodes_over_cell_cap_exit_2(capsys, monkeypatch):
    argv = ["examples", "logistic", "--degree", "2", "--nodes", "101"]
    _exits_2_one_below_the_cap(argv, 101, capsys, monkeypatch)


def test_examples_fractal_kept_points_over_cell_cap_exit_2(tmp_path, capsys, monkeypatch):
    # 30000 kept points of the 2-D Sierpinski gasket: 60000 cells, more than
    # a chaos-game block (2 x 8255) or its statistics (7 x 8128) hold
    ifs_path = write(tmp_path / "s.json", oracle.affine_ifs_json(sierpinski_ifs()))
    argv = ["examples", "fractal", "--ifs", ifs_path, "--samples", "30000", "--seed", "1",
            "--points-out", str(tmp_path / "p.csv"), "--max-points", "30000"]
    _exits_2_one_below_the_cap(argv, 60000, capsys, monkeypatch)
    assert len((tmp_path / "p.csv").read_bytes().splitlines()) == 30000


def test_examples_fractal_blocks_count_against_the_cap(tmp_path, capsys, monkeypatch):
    # the companion matrix of x^30 - 2, digits 0 and e1: the first
    # chaos-game block is 30 x 8192 cells, its statistics (30 + 30 + 465) x 8128
    a = np.eye(30, k=-1, dtype=int)
    a[0, -1] = 2
    ifs_path = write(tmp_path / "c.json", {"A": a.tolist(), "digits": np.eye(2, 30, dtype=int).tolist()})
    argv = ["examples", "fractal", "--ifs", ifs_path, "--samples", "10000", "--seed", "1"]
    for cap, cells in ((200_000, 30 * 8192), (1_000_000, 525 * 8128)):
        monkeypatch.setenv("WAVELAB_MAX_CELLS", str(cap))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wavelab: {cells} cells exceed the cap of {cap}; set WAVELAB_MAX_CELLS to raise it\n"
        )
    monkeypatch.setenv("WAVELAB_MAX_CELLS", str(525 * 8128))
    assert run(argv) == 0
    capsys.readouterr()


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
        "kernel3": write(tmp_path / "kernel3.json", {"matrix": jsonio.encode_cmatrix(np.eye(3))}),
        "no_filters": write(tmp_path / "no_filters.json", {"filters": []}),
        "no_orders": write(tmp_path / "no_orders.json", {
            "m": bank.filters[0].to_json(), "f": bank.filters[1].to_json(),
            "g": bank.filters[1].to_json(), "orders": [],
        }),
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
    # "orders": [] printed "pass": true over no residuals
    "dilation orders are empty": ["solenoid", "dilation", "--file", "{no_orders}"],
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
    # "need at least one filter" named no file
    "filter list is empty (check)": [
        "rkhs", "check", "--points", "{points3}", "--kernel", "{kernel3}", "--filters", "{no_filters}",
    ],
    "filter list is empty (product-kernel)": [
        "rkhs", "product-kernel", "--points", "{points3}", "--filters", "{no_filters}",
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
    named = (files["list"], files["string"], files["no_orders"], files["no_filters"])
    bad_file = next((a for a in argv if a in named), None)
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


def test_run_starts_no_collection_and_restores_the_collector(tmp_path, capsys):
    """No cyclic collection while rkhs product-kernel encodes its 256x256 kernel to
    --out, nor while rkhs check decodes it back; the GC is back on after a kernel
    file that does not parse and after one that does not decode."""
    z = np.exp(2j * np.pi * np.arange(256) / 256)  # under z -> z**2, with the Haar values
    sigma = [int(i) for i in 2 * np.arange(256) % 256]
    pset = {"points": jsonio.encode_cvector(z), "sigma": sigma}
    points = ["--points", write(tmp_path / "p.json", pset)]
    haar = {"filters": [jsonio.encode_cvector((1 + z) / 2), jsonio.encode_cvector((1 - z) / 2)]}
    filters = ["--filters", write(tmp_path / "haar.json", haar)]
    kernel = str(tmp_path / "kernel.json")
    unparsed = tmp_path / "unparsed.json"
    unparsed.write_text('{"matrix": [[[1, 2]]', encoding="utf-8")
    undecoded = write(tmp_path / "undecoded.json", {"matrix": [[["0.5", 0.0]]]})
    collections = []

    def seen(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(seen)
    try:
        assert run(["rkhs", "product-kernel", *points, *filters, "--out", kernel]) == 0
        assert collections == []
        assert run(["rkhs", "check", *points, "--kernel", kernel, *filters]) == 0
        assert collections == []
        assert gc.isenabled()
        for path in (str(unparsed), undecoded):
            assert run(["rkhs", "check", *points, "--kernel", path, *filters]) == 2
            assert f"malformed {path}" in capsys.readouterr().err
            assert gc.isenabled()
    finally:
        gc.callbacks.remove(seen)
    assert KernelMatrix.from_json(jsonio.load_file(kernel)).matrix.shape == (256, 256)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, enabled):
    """The state before a command, on or off, is the state after it, for exit
    0, 1 and 2; files are parsed with the collector off either way."""
    files = _input_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"filters": [', encoding="utf-8")
    seen = []
    loads = json.loads

    def spy(text):
        seen.append(gc.isenabled())
        return loads(text)

    monkeypatch.setattr(jsonio.json, "loads", spy)
    commands = {
        0: ["ifs", "verify-filter", "--bank", files["bank"]],
        1: ["circle", "cqf-complete", "--m0", write(tmp_path / "m0.json", {"coeffs": [[1, 0]]})],
        2: ["circle", "verify", "--filters", str(bad), "--N", "2"],
    }
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for code, argv in commands.items():
            assert run(argv) == code
            assert gc.isenabled() is enabled
        assert run(["circle", "verify"]) == 2  # a missing option: argparse exits
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False, False, False]  # paused while parsing


BAND_COUNT_COMMANDS = {
    "circle verify": ["circle", "verify", "--filters", "{one}", "--N", "{band}"],
    "circle matrix": ["circle", "matrix", "--filters", "{one}", "--N", "{band}"],
    "circle blaschke": ["circle", "blaschke", "--factors", "{blaschke2}", "--band", "{band}"],
    "circle loop-act": [
        "circle", "loop-act", "--g-factors", "{blaschke2}", "--u-factors", "{blaschke2}",
        "--N", "{band}",
    ],
    "mra cascade": ["mra", "cascade", "--taps", "{taps}", "--N", "{band}"],
    "mra wavelet": ["mra", "wavelet", "--taps", "{taps}", "--N", "{band}"],
    "mra filterbank": [
        "mra", "filterbank", "--signal", "{signal}", "--taps", "{haar_bank}", "--N", "{band}",
    ],
}


@pytest.mark.parametrize("name", sorted(BAND_COUNT_COMMANDS))
def test_band_counts_below_2_exit_2(name, tmp_path, capsys):
    """Every command that takes a band count rejects one below 2 through the
    one band_count check, with the same stderr line."""
    files = _input_files(tmp_path)
    files["one"] = write(tmp_path / "one.json", {"filters": [LaurentPoly(0, [1.0]).to_json()]})
    files["taps"] = write(tmp_path / "taps.json", {"taps": jsonio.encode_cvector(haar_taps())})
    for band in ("-1", "0", "1"):
        argv = [a.format(band=band, **files) for a in BAND_COUNT_COMMANDS[name]]
        assert run(argv) == 2, band
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "wavelab: band count must be >= 2\n"


@pytest.mark.parametrize(
    "weights, message",
    [
        ([0.25, 0.25, 0.5], "expected 2 weights, got 3"),
        ([0.0, 1.0], "branch weights must be positive, got (0.0, 1.0)"),
        ([0.5, 0.5 + 5e-13], "branch weights must sum to 1, got 1.0000000000005"),
    ],
    ids=["count", "non-positive", "sum"],
)
def test_branch_weights_follow_one_rule(weights, message, tmp_path, capsys):
    """The IFS filters and the affine fractals reject the same weights with
    the same message (the fractal accepted a sum 5e-13 past 1 under a 1e-12
    rule); the fractal's names its file, as every malformed file does."""
    ifs = write(tmp_path / "ifs.json", {"A": [[2]], "digits": [[0], [1]], "weights": weights})
    errors = []
    for argv in (
        ["ifs", "build-filter", "--kind", "indicator", "--N", "2",
         "--weights", ",".join(map(repr, weights))],
        ["examples", "fractal", "--ifs", ifs, "--samples", "10000", "--seed", "1"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == [f"wavelab: {message}\n", f"wavelab: malformed {ifs}: InputError: {message}\n"]


def test_uniform_weights_pass_at_any_branch_count(tmp_path, capsys):
    """The uniform weights' sum is judged exactly: summed naively, 400 of them
    are 0.9999999999999897, and the 400-digit fractal exited 2."""
    assert branch_weights((), 400) == (1 / 400,) * 400
    assert all(branch_weights((), n) for n in (399, 1000, 4097, 19_999))
    digits = [[i % 20, i // 20] for i in range(400)]
    ifs = write(tmp_path / "ifs.json", {"A": [[21, 0], [0, 21]], "digits": digits})
    assert run(["examples", "fractal", "--ifs", ifs, "--samples", "10000", "--seed", "1"]) == 0
    capsys.readouterr()


def test_a_uniform_branch_count_over_the_cap_exits_2(monkeypatch, capsys):
    # the uniform tuple of 1e20 weights raised an OverflowError, a traceback
    monkeypatch.delenv("WAVELAB_MAX_CELLS", raising=False)
    n = 10**20
    assert run(["ifs", "build-filter", "--kind", "indicator", "--N", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"wavelab: {n} cells exceed the cap of 16777216; set WAVELAB_MAX_CELLS to raise it\n"
    )


def test_circle_verify_upsamples_within_the_cap(tmp_path, monkeypatch, capsys):
    # each low band is upsampled to N cells: --N 3000000000 asked for 44.7 GiB
    s = 2**-0.5
    filters = write(tmp_path / "haar.json", {"filters": [LaurentPoly(0, [s, s]).to_json(),
                                                         LaurentPoly(0, [s, -s]).to_json()]})
    argv = ["circle", "verify", "--filters", filters, "--N", "101"]
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "100")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wavelab: 101 cells exceed the cap of 100; set WAVELAB_MAX_CELLS to raise it\n"
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "101")
    assert run(argv) == 1  # two filters for 101 bands
    capsys.readouterr()


def test_fractal_max_points_is_read_only_with_points_out(tmp_path, capsys):
    ifs = write(tmp_path / "s.json", oracle.affine_ifs_json(sierpinski_ifs()))
    argv = ["examples", "fractal", "--ifs", ifs, "--samples", "10000", "--seed", "1",
            "--max-points", "0"]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--points-out", str(tmp_path / "p.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "wavelab: --max-points must be >= 1\n"
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("obj", ["filters", {"values": []}], ids=["string", "dict"])
def test_filter_files_must_hold_a_list(obj, tmp_path, capsys):
    """A string (even "filters") or a dict without "filters" is no filter list."""
    files = _input_files(tmp_path)
    bad = write(tmp_path / "bad.json", obj)
    for argv, message in (
        (["rkhs", "product-kernel", "--points", files["points3"], "--filters", bad],
         "filter file must hold a list of value vectors"),
        (["circle", "verify", "--filters", bad, "--N", "2"],
         "circle filter file must hold a list of Laurent polynomials"),
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"wavelab: malformed {bad}: InputError: {message}\n"


@pytest.mark.parametrize("error",[KeyError, ValueError, TypeError])
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
    oracle.write_rows(str(tmp_path / "old.csv"), (), oracle.chaos_game_scan(sierpinski_ifs(), 10000, 4))
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


def test_a_launch_fills_in_only_its_own_group():
    probe = (
        "import argparse, contextlib, io, json\n"
        "from wavelab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['--timing', 'examples', 'logistic', '--degree', '2', '--nodes', '4']) == 0\n"
        "assert cli._parser.cache_info().misses == 1\n"
        "parser = cli._parser('examples')\n"
        "assert cli._parser.cache_info().misses == 1  # the parser the launch built\n"
        "def commands(p):\n"
        "    (sub,) = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]\n"
        "    return sub.choices\n"
        "print(json.dumps({g: sorted(commands(p)) for g, p in commands(parser).items()}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    filled = json.loads(proc.stdout)
    assert filled == {g: (["fractal", "logistic"] if g == "examples" else []) for g in cli.COMMANDS}


@pytest.mark.parametrize("argv, group", [
    ([], None), (["--help"], None), (["--timing"], None), (["nope", "x"], None),
    (["mra"], "mra"), (["--timing", "examples", "fractal"], "examples"),
    (["-h", "circle", "--help"], "circle"), (["rkhs", "--timing", "ifs"], "rkhs"),
])
def test_the_group_is_the_first_word_after_the_options(argv, group):
    assert cli._group(argv) == group


@pytest.mark.parametrize("group", sorted(cli.COMMANDS))
def test_a_group_parser_prints_the_help_of_the_whole_parser(group, capsys):
    # top-level and group --help read the same from the parser of one group
    for argv in ([], [group], *([group, command] for command in cli.COMMANDS[group])):
        texts = []
        for parser in (cli._parser(), cli._parser(group)):
            with pytest.raises(SystemExit):
                parser.parse_args(argv + ["--help"])
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1], argv


# a fresh interpreter runs argv (or only imports the CLI when there is none)
# and prints the wavelab modules whose code has run: a module that is bound
# lazily but never used is still a LazyLoader module
_RAN_PROBE = (
    "import contextlib, io, json, sys, types\n"
    "from wavelab import cli\n"
    "argv = json.loads(sys.argv[1])\n"
    "if argv is not None:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = cli.run(argv)\n"
    "    assert code == 0, code\n"
    "print(json.dumps(sorted(name for name, module in sys.modules.items()\n"
    "                        if name.startswith('wavelab.') and type(module) is types.ModuleType)))\n"
)
_ALWAYS_RUN = {"cli", "errors", "jsonio"}


def _modules_run(argv) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _RAN_PROBE, json.dumps(argv)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("wavelab.") for name in json.loads(proc.stdout)}


@pytest.mark.parametrize(
    "argv", [None, ["--help"], ["circle", "--help"]], ids=["import", "help", "group-help"]
)
def test_import_and_help_run_no_domain_module(argv):
    assert _modules_run(argv) == _ALWAYS_RUN


def test_each_group_runs_only_its_own_modules(tmp_path):
    haar = write(tmp_path / "pair.json", {"filters": [m.to_json() for m in oracle.haar_pair()]})
    taps = write(tmp_path / "taps.json", {"taps": jsonio.encode_cvector(haar_taps())})
    pset = oracle.squaring_chain(0.9 * np.exp(0.7j), 12)
    points = write(tmp_path / "p.json", oracle.point_set_json(pset))
    filters = write(
        tmp_path / "m.json",
        {"filters": [jsonio.encode_cvector(np.ones(12)), jsonio.encode_cvector(pset.points)]},
    )
    files = _input_files(tmp_path)
    launches = {
        ("ifs", "build-filter", "--kind", "indicator", "--N", "2"): {"code_space", "ifs_filters"},
        ("circle", "verify", "--filters", haar, "--N", "2"): {"circle_filters"},
        ("circle", "matrix", "--filters", haar, "--N", "2"): {"circle_filters"},
        ("mra", "cascade", "--taps", taps, "--iters", "5", "--resolution", "64"): {"classic_mra"},
        ("mra", "filterbank", "--signal", files["signal"], "--taps", files["haar_bank"]):
            {"classic_mra"},
        ("solenoid", "axioms", "--file", _path_file(tmp_path, [1.0, -1.0])):
            {"code_space", "solenoid"},
        ("rkhs", "product-kernel", "--points", points, "--filters", filters): {"rkhs_kernels"},
        ("examples", "logistic", "--degree", "2", "--nodes", "4"): {"examples_geometry"},
    }
    assert {cmd[0] for cmd in launches} == set(cli.COMMANDS)
    for argv, own in launches.items():
        assert _modules_run(list(argv)) == _ALWAYS_RUN | own, argv


def test_package_names_load_code_space_on_use():
    probe = (
        "import sys, types\n"
        "import wavelab.cli\n"
        "assert type(sys.modules['wavelab.code_space']) is not types.ModuleType\n"
        "from wavelab import CylinderFn, IfsSpec\n"
        "cs = wavelab.code_space\n"
        "assert (CylinderFn, IfsSpec) == (cs.CylinderFn, cs.IfsSpec)\n"
        "assert wavelab.__all__ == ['CylinderFn', 'IfsSpec']\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_module_imported_before_the_cli_is_reused(tmp_path):
    """A second code_space module would make a second IfsSpec class, unequal to the first."""
    bank = tmp_path / "bank.json"
    probe = (
        "import sys\n"
        "import wavelab.code_space as first\n"
        "from wavelab import cli\n"
        f"assert cli.run(['ifs', 'build-filter', '--kind', 'indicator', '--N', '2', '--out', {str(bank)!r}]) == 0\n"
        f"assert cli.run(['ifs', 'verify-filter', '--bank', {str(bank)!r}]) == 0\n"
        "assert sys.modules['wavelab.code_space'] is first and cli.cs is first\n"
        "from wavelab import ifs_filters, jsonio\n"
        f"loaded = ifs_filters.FilterBank.from_json(jsonio.load_file({str(bank)!r}))\n"
        "assert loaded.spec == first.IfsSpec(2)\n"
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
    assert np.isnan(cli.sol.shift_covariance_check(m, f, g)[0])
    path = _path_file(tmp_path, [1.0, 2.0], f=f.to_json())
    code = run(["solenoid", "axioms", "--file", path])
    assert '"covariance": NaN' in capsys.readouterr().out
    assert code == 1


def test_solenoid_dilation_fails_closed_on_one_nan_order(tmp_path, capsys, monkeypatch):
    path = _path_file(tmp_path, [1.0, 2.0], orders=[0, 1])
    monkeypatch.setattr(
        cli.sol, "dilation_residuals",
        lambda m, f, g, orders, h: [float("nan") if n else 0.0 for n in orders],
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


def test_solenoid_dilation_over_cell_cap_exits_2(tmp_path, capsys, monkeypatch):
    # order 5 walks f (depth 1) to depth 6: 64 cells
    argv = ["solenoid", "dilation", "--file", _path_file(tmp_path, [0.5, -1.0], orders=[-2, 0, 5])]
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "63")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wavelab: 64 cells exceed the cap of 63; set WAVELAB_MAX_CELLS to raise it\n"
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "64")
    assert run(argv) == 0


def _admissible_dilation_file(tmp_path, orders) -> str:
    """A depth-8 m with sum_n p_n |m(n v)|**2 = 1 at every tail v (so h = 1), f and g of depth 3."""
    rng, p = np.random.default_rng(8), (0.375, 0.625)
    raw = rng.uniform(0.2, 1.8, size=(2, 2**7))
    m = (raw / np.sqrt(np.asarray(p) @ raw**2)).reshape(-1) * np.exp(2j * np.pi * rng.uniform(size=2**8))
    spec = IfsSpec(2, p)
    f, g = (CylinderFn(spec, 3, rng.normal(size=8) + 1j * rng.normal(size=8)) for _ in range(2))
    obj = {"m": CylinderFn(spec, 8, m).to_json(), "f": f.to_json(), "g": g.to_json(), "orders": orders}
    return write(tmp_path / "dilation.json", obj)


def test_solenoid_dilation_stores_no_shifted_operand(tmp_path, capsys, monkeypatch):
    # S_m and the weighted shift read f o sigma as a view, never as a stored copy
    stored = []

    def compose_sigma(f):
        stored.append(f)
        raise AssertionError("f o sigma was stored")

    for module in (code_space, solenoid):
        monkeypatch.setattr(module, "compose_sigma", compose_sigma)
    path = _admissible_dilation_file(tmp_path, list(range(-10, 11)))
    code, result = run_json(capsys, ["solenoid", "dilation", "--file", path])
    assert stored == [] and code == 0 and len(result["residuals"]) == 21


def _count_walk_steps(monkeypatch) -> list:
    """The arguments of every S_m and weighted-shift step dilation_residuals takes."""
    calls = []
    for name in ("weighted_compose", "weighted_shift"):
        step = getattr(solenoid, name)
        monkeypatch.setattr(solenoid, name, lambda *a, _step=step, **k: calls.append(a) or _step(*a, **k))
    return calls


@pytest.mark.parametrize("orders", [[20], [-20], [0, 20, -3]])
def test_solenoid_dilation_over_the_cap_fails_before_walking(tmp_path, capsys, monkeypatch, orders):
    # order 20 on a depth-8 m reaches depth 27; the walks used to build
    # products up to depth 25 (about 1 s and a 686 MB peak) before the cap stopped them
    calls = _count_walk_steps(monkeypatch)
    monkeypatch.delenv("WAVELAB_MAX_CELLS", raising=False)
    assert run(["solenoid", "dilation", "--file", _admissible_dilation_file(tmp_path, orders)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err == (
        "wavelab: 33554432 cells exceed the cap of 16777216; set WAVELAB_MAX_CELLS to raise it\n"
    )


@pytest.mark.parametrize("orders", [[-5], [5, -5], [-5, 4]])
def test_solenoid_dilation_cap_check_is_exact(tmp_path, capsys, monkeypatch, orders):
    # order 5 either way walks a depth-1 f or g to depth 6: 64 cells
    argv = ["solenoid", "dilation", "--file", _path_file(tmp_path, [0.5, -1.0], orders=orders)]
    calls = _count_walk_steps(monkeypatch)
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "63")
    assert run(argv) == 2 and calls == []
    assert capsys.readouterr().err == "wavelab: 64 cells exceed the cap of 63; set WAVELAB_MAX_CELLS to raise it\n"
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "64")
    assert run(argv) == 0 and calls


def test_a_run_reads_the_cell_cap_once(tmp_path, capsys, monkeypatch):
    # the walks check the cells of every product of unequal depths; a run reads the
    # cap once, before any file, and a library call outside a run reads it each time
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(os, "environ", Environ(os.environ, WAVELAB_MAX_CELLS="4096"))
    path = _admissible_dilation_file(tmp_path, list(range(-4, 5)))
    obj = json.loads(Path(path).read_text())
    m, f = (CylinderFn.from_json(obj[key]) for key in "mf")
    reads.clear()
    code, result = run_json(capsys, ["solenoid", "dilation", "--file", path])
    assert code == 0 and len(result["residuals"]) == 9
    assert reads.count("WAVELAB_MAX_CELLS") == 1
    for _ in range(3):
        code_space.multiply(m, f)  # depths 8 and 3
    assert reads.count("WAVELAB_MAX_CELLS") == 4


def test_solenoid_axioms_over_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the weighted shift's and the collapse's shifted products count their cells
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "7")
    assert run(["solenoid", "axioms", "--file", _path_file(tmp_path, [1.0, -1.0])]) == 2
    assert capsys.readouterr().err == "wavelab: 8 cells exceed the cap of 7; set WAVELAB_MAX_CELLS to raise it\n"


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


def _slow_mixing_moment_file(tmp_path, depth):
    """An order-0 moment of the weight [1.94, 0.06, 0.14, 1.86] written at depth."""
    spec = IfsSpec(2)
    weight = oracle.lift_cylinder(CylinderFn(spec, 2, [1.94, 0.06, 0.14, 1.86]), depth)
    return write(tmp_path / "moment.json", {
        "spec": spec.to_json(), "W": weight.to_json(), "h": "auto",
        "coords": [CylinderFn.ones(spec).to_json()],
    })


def test_solenoid_moment_solves_a_slowly_mixing_weight_written_deep(tmp_path, capsys):
    # |lambda_2/lambda_1| = 0.9, written at depth 11: 1024 words
    path = _slow_mixing_moment_file(tmp_path, 11)
    code, result = run_json(capsys, ["solenoid", "moment", "--file", path])
    assert code == 0 and result["results"]["value"] == [1.0, 0.0]


def test_solenoid_moment_over_the_cell_cap_exits_2(tmp_path, capsys, monkeypatch):
    # depth 11 makes R_W a 1024 x 1024 matrix: 1048576 cells
    argv = ["solenoid", "moment", "--file", _slow_mixing_moment_file(tmp_path, 11)]
    monkeypatch.setenv("WAVELAB_MAX_CELLS", str(1024**2 - 1))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wavelab: 1048576 cells exceed the cap of 1048575; set WAVELAB_MAX_CELLS to raise it\n"
    monkeypatch.setenv("WAVELAB_MAX_CELLS", str(1024**2))
    assert run(argv) == 0


@pytest.mark.parametrize("seed", [8, 195])
def test_solenoid_moment_auto_h_meets_the_default_tolerance(tmp_path, capsys, seed):
    # seed 195 mixes slowly: |lambda_2/lambda_1| = 0.91
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
        "coords": [oracle.indicator(spec, [1]).to_json()] * 2,
    })
    assert run(["solenoid", "moment", "--file", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and path in captured.err
    assert "not a transfer-harmonic density" in captured.err and numbers in captured.err


@pytest.mark.parametrize("weight, runs", [
    ([0.8, 1.2], 1),  # R_W 1 = 1: the density is 1, certified once
    ([1.6, 0.4, 0.6, 1.4], 2),  # solved, then certified inside harmonic_solve
])
def test_solenoid_moment_certifies_an_auto_h_once(weight, runs, tmp_path, capsys, monkeypatch):
    calls, defect = [], code_space.density_defect

    def counted(W, h):
        calls.append(h)
        return defect(W, h)

    monkeypatch.setattr(code_space, "density_defect", counted)
    monkeypatch.setattr(solenoid, "density_defect", counted)
    spec = IfsSpec(2)
    path = write(tmp_path / "moment.json", {
        "spec": spec.to_json(), "W": CylinderFn(spec, len(weight) // 2, weight).to_json(),
        "h": "auto", "coords": [CylinderFn(spec, 1, [1.0, 2.0]).to_json()] * 2,
    })
    code, result = run_json(capsys, ["solenoid", "moment", "--file", path])
    assert code == 0 and result["residuals"]["probability_normalization"] < 1e-12
    assert len(calls) == runs
