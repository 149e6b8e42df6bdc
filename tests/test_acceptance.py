"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import pytest

import oracle
from conftest import random_cylinder
from wavelab.circle_filters import (
    BlaschkeFactor,
    LaurentPoly,
    banded_matrix,
    cqf_complete,
    cuntz_residuals,
    evaluate_rows,
    root_of_unity,
    rotation_residual,
    unit_circle_grid,
    unitarity_residuals,
)
from wavelab.classic_mra import (
    cascade,
    d4_taps,
    detail_taps,
    filterbank_roundtrip,
    haar_taps,
    shift_orthonormality,
)
from wavelab.cli import run
from wavelab.code_space import (
    CylinderFn,
    IfsSpec,
    adjoint_sigma,
    compose_sigma,
    integrate,
    multiply,
    sup_distance,
)
from wavelab.examples_geometry import (
    arcsine_moment,
    chaos_game,
    chebyshev_nodes,
    logistic_residuals,
    sierpinski_ifs,
    strong_invariance_check,
    AffineIfs,
)
from wavelab.ifs_filters import (
    MatrixField,
    apply_loop_group,
    build_indicator,
    build_roots_of_unity,
    connecting_unitary,
    verify_filter,
)
from wavelab.rkhs_kernels import (
    FinitePointSet,
    preimage_orthogonality,
    product_kernel,
    refinement_residual,
)
from wavelab.solenoid import (
    PathCylinderFn,
    dilation_residuals,
    harmonic_for,
    measure_change_residual,
    probability_residual,
    w0_isometry_residual,
)


def _report(number: int, name: str, checks: list[tuple[str, bool, float]], elapsed: float):
    import conftest

    ok = all(good for _, good, _ in checks)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(
        f"{label}={value:.3g}" + ("" if good else " <-- FAIL")
        for label, good, value in checks
    )
    line = f"[criterion {number:2d}] {status} ({elapsed:.2f}s) {name}: {detail}"
    print(line)
    conftest.CRITERION_LINES.append(line)
    return ok, detail


def test_criterion_01_builtin_banks_verify():
    start = time.perf_counter()
    residuals = []  # folded by np.max, so a NaN residual fails the bound
    for n in (2, 3, 4):
        spec = IfsSpec(n)
        for builder in (build_indicator, build_roots_of_unity):
            report = verify_filter(builder(spec), probe_depth=5, tol=1e-13)
            residuals += [report.orthonormality_residual, report.completeness]
            assert report.passed, f"{builder.__name__} N={n} failed verification"
    worst = float(np.max(residuals))
    elapsed = time.perf_counter() - start
    ok, detail = _report(
        1,
        "built-in banks at probe depth 5",
        [("max_residual", worst < 1e-13, worst), ("runtime_s", elapsed < 5.0, elapsed)],
        elapsed,
    )
    assert ok, detail


def test_criterion_02_operator_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    # every trial's residuals, folded by np.max so that a NaN fails its bound
    residuals = {
        name: [] for name in ("pull_out", "expectation_pull_out", "adjoint_product",
                              "left_inverse", "projection", "invariance")
    }
    for _ in range(200):
        spec = IfsSpec(int(rng.integers(2, 4)))
        d_low = int(rng.integers(1, 4))
        f = random_cylinder(rng, spec, d_low)
        g = random_cylinder(rng, spec, min(d_low + 1, 4))
        residuals["pull_out"].append(
            sup_distance(
                adjoint_sigma(multiply(compose_sigma(f), g)),
                multiply(f, adjoint_sigma(g)),
            )
        )
        residuals["expectation_pull_out"].append(
            sup_distance(
                oracle.conditional_expectation(multiply(g, compose_sigma(f))),
                multiply(compose_sigma(f), oracle.conditional_expectation(g)),
            )
        )
        residuals["adjoint_product"].append(
            sup_distance(
                adjoint_sigma(multiply(g, oracle.conditional_expectation(compose_sigma(f)))),
                multiply(adjoint_sigma(g), adjoint_sigma(compose_sigma(f))),
            )
        )
        residuals["left_inverse"].append(sup_distance(adjoint_sigma(compose_sigma(g)), g))
        e = oracle.conditional_expectation(g)
        h = random_cylinder(rng, spec, g.depth)
        residuals["projection"] += [
            sup_distance(oracle.conditional_expectation(e), e),
            abs(
                oracle.inner_product(e, h)
                - oracle.inner_product(g, oracle.conditional_expectation(h))
            ),
        ]
        residuals["invariance"].append(abs(integrate(compose_sigma(g)) - integrate(g)))
    elapsed = time.perf_counter() - start
    worst = {name: float(np.max(values)) for name, values in residuals.items()}
    checks = [(k, v < 1e-12, v) for k, v in worst.items()]
    checks.append(("runtime_s", elapsed < 10.0, elapsed))
    ok, detail = _report(2, "operator identities, 200 trials each", checks, elapsed)
    assert ok, detail


def _random_unitary_field(rng, spec, depth):
    size = spec.N**depth
    entries = np.empty((spec.N, spec.N, size), dtype=complex)
    for w in range(size):
        a = rng.normal(size=(spec.N, spec.N)) + 1j * rng.normal(size=(spec.N, spec.N))
        q, r = np.linalg.qr(a)
        entries[:, :, w] = q * (np.diag(r) / np.abs(np.diag(r)))
    return MatrixField(spec, entries)


def test_criterion_03_loop_group():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    # per-n residuals, folded by np.max so that a NaN fails its bound
    fourier, recombine, group_law, inverse = [], [], [], []
    for n in (2, 3, 4):
        spec = IfsSpec(n)
        ind = build_indicator(spec)
        roots = build_roots_of_unity(spec)
        field = connecting_unitary(ind, roots)
        eps = np.exp(2j * np.pi / n)
        expected = np.array(
            [[eps ** (k * j) for k in range(1, n + 1)] for j in range(1, n + 1)]
        ) / np.sqrt(n)
        got = field.values[:, :, 0]
        fourier.append(np.max(np.abs(got - expected)))
        acted = apply_loop_group(ind, field)
        recombine += [sup_distance(a, b) for a, b in zip(acted.filters, roots.filters)]
        u = _random_unitary_field(rng, spec, 1)
        v = _random_unitary_field(rng, spec, 1)
        lhs = apply_loop_group(apply_loop_group(ind, u), v)
        rhs = apply_loop_group(ind, oracle.field_product(u, v))
        group_law += [sup_distance(a, b) for a, b in zip(lhs.filters, rhs.filters)]
        recovered = connecting_unitary(roots, apply_loop_group(roots, u))
        inverse.append(np.max(np.abs(recovered.values - u.values)))
    fourier_err, recombine_err, group_law_err, inverse_err = (
        float(np.max(r)) for r in (fourier, recombine, group_law, inverse)
    )
    elapsed = time.perf_counter() - start
    checks = [
        ("fourier_matrix", fourier_err < 1e-13, fourier_err),
        ("recombination", recombine_err < 1e-13, recombine_err),
        ("group_law", group_law_err < 1e-12, group_law_err),
        ("inverse_action", inverse_err < 1e-12, inverse_err),
        ("runtime_s", elapsed < 2.0, elapsed),
    ]
    ok, detail = _report(3, "loop-group actions and connections", checks, elapsed)
    assert ok, detail


def test_criterion_04_circle_case():
    start = time.perf_counter()
    haar = oracle.haar_pair()
    coeff_exact = float(np.max(cuntz_residuals(haar, 2, "averaged")))
    z = unit_circle_grid(256)
    banded = banded_matrix(haar, 2, z)
    unitarity = float(np.max(unitarity_residuals(banded)))
    shift = rotation_residual(banded, banded_matrix(haar, 2, root_of_unity(2) * z), shift=1)
    matrix = cqf_complete(LaurentPoly(0, [0.5, 0.5]))
    cqf_unitarity = float(np.max(unitarity_residuals(evaluate_rows(matrix, z))))
    elapsed = time.perf_counter() - start
    checks = [
        ("coefficient_residuals", coeff_exact == 0.0, coeff_exact),
        ("banded_unitarity", unitarity < 1e-13, unitarity),
        ("shift_relation", shift < 1e-13, shift),
        ("cqf_unitarity", cqf_unitarity < 1e-13, cqf_unitarity),
        ("runtime_s", elapsed < 2.0, elapsed),
    ]
    ok, detail = _report(4, "circle-case filter algebra", checks, elapsed)
    assert ok, detail


def test_criterion_05_blaschke_products():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    z = unit_circle_grid(256)
    unit, per = [], []  # folded by np.max, so a NaN residual fails its bound
    for n in (2, 3):
        for trial in range(4):
            count = int(rng.integers(1, 6))
            factors = []
            for _ in range(count):
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                v = v / np.linalg.norm(v)
                a = rng.choice([0.0, 0.5, 2.0, None])
                factors.append(BlaschkeFactor(np.outer(v, np.conj(v)), a, n))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            product = oracle.blaschke_product(factors, left_unitary=q)
            stack = product.eval(z)
            unit.append(np.max(unitarity_residuals(stack)))
            per.append(rotation_residual(stack, product.eval(root_of_unity(n) * z)))
    unit_err, per_err = float(np.max(unit)), float(np.max(per))
    elapsed = time.perf_counter() - start
    checks = [
        ("grid_unitarity", unit_err < 1e-12, unit_err),
        ("band_periodicity", per_err < 1e-12, per_err),
        ("runtime_s", elapsed < 2.0, elapsed),
    ]
    ok, detail = _report(5, "random Blaschke products", checks, elapsed)
    assert ok, detail


def test_criterion_06_perfect_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    results = [
        filterbank_roundtrip(x, [taps, detail_taps(taps)], [taps, detail_taps(taps)], 2)
        for taps in (haar_taps(), d4_taps())
    ]
    # np.max, unlike max(), keeps a NaN residual
    pr_err = float(np.max([r.pr_error for r in results]))
    energy_err = float(np.max([r.energy_error for r in results]))
    elapsed = time.perf_counter() - start
    checks = [
        ("pr_error", pr_err < 1e-10, pr_err),
        ("energy_error", energy_err < 1e-10, energy_err),
        ("runtime_s", elapsed < 1.0, elapsed),
    ]
    ok, detail = _report(6, "pipeline perfect reconstruction", checks, elapsed)
    assert ok, detail


def test_criterion_07_cascade():
    start = time.perf_counter()
    haar = cascade(haar_taps(), 2, 20, 1024)
    haar_fixed = haar.iterations == 1 and haar.sup_diffs == (0.0,)
    d4 = cascade(d4_taps(), 2, 20, 1024, tol=1e-6)
    # The box seed bounds the D4 rate from below: samples[0] after j steps
    # is a^j with a = sqrt(2) c_0 = (1 + sqrt 3) / 4, so sup_diffs[j - 1] >=
    # a^(j - 1) (1 - a), which is 2.3e-4 at step 20 and first below 1e-6 at
    # step 37.  Step 20 is checked for that rate; step 40 for the 1e-6 bound,
    # both between iterates and against the exact values of phi.
    rate = (1 + np.sqrt(3)) / 4
    d4_ratio = float("nan")
    if d4.iterations == 20:
        d4_ratio = d4.sup_diffs[19] / d4.sup_diffs[18]
    d4_40 = cascade(d4_taps(), 2, 40, 1024, tol=1e-6)
    d4_40_diff = d4_40.last_sup_diff
    exact = oracle.dyadic_values(d4_taps(), 2, 1024)
    true_err = float(np.max(np.abs(d4_40.samples - exact)))
    integral_err = float(np.max([abs(haar.integral - 1.0), abs(d4.integral - 1.0)]))
    _, gram_dev = shift_orthonormality(d4)
    elapsed = time.perf_counter() - start
    checks = [
        ("haar_fixed_after_1", haar_fixed, float(haar.iterations)),
        ("d4_rate_20_iters", abs(d4_ratio - rate) < 1e-3, d4_ratio),
        ("d4_supdiff_40_iters", d4_40.converged and d4_40_diff < 1e-6, d4_40_diff),
        ("d4_true_error_40_iters", true_err < 1e-6, true_err),
        ("integral_error", integral_err < 1e-9, integral_err),
        ("d4_gram_deviation", gram_dev < 1e-3, gram_dev),
        ("runtime_s", elapsed < 10.0, elapsed),
    ]
    ok, detail = _report(7, "cascade fixed points", checks, elapsed)
    assert ok, detail


def test_criterion_08_solenoid_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    residuals = []  # folded by np.max, so a NaN residual fails the bound
    for _ in range(50):
        spec = IfsSpec(int(rng.integers(2, 4)))
        bank = build_indicator(spec)
        m = bank.filters[int(rng.integers(spec.N))]
        weight = m.abs2()
        h = harmonic_for(weight)
        order = int(rng.integers(1, 4))
        f = random_cylinder(rng, spec, int(rng.integers(1, 3)))
        g = random_cylinder(rng, spec, int(rng.integers(1, 3)))
        probe = PathCylinderFn.coordinate(0, f) * PathCylinderFn.coordinate(1, g)
        residuals += [
            probability_residual(order, weight, h),
            oracle.marginal_residual(f, order, weight, h),
            measure_change_residual(probe, weight, h),
            w0_isometry_residual(f, g, weight, h),
            *dilation_residuals(m, f, g, (-2, -1, 0, 1, 2), h),
        ]
    worst = float(np.max(residuals))
    elapsed = time.perf_counter() - start
    checks = [
        ("max_residual", worst < 1e-12, worst),
        ("runtime_s", elapsed < 5.0, elapsed),
    ]
    ok, detail = _report(8, "path-space moment identities, 50 specs", checks, elapsed)
    assert ok, detail


def test_criterion_09_kernels():
    start = time.perf_counter()
    pset = oracle.squaring_chain(0.9 * np.exp(0.7j), 12)
    filters = np.array([np.ones(12), pset.points])
    kernel = oracle.szego_kernel(pset.points)
    refinement = refinement_residual(kernel, filters, pset)
    truncated = product_kernel(filters, pset, 30)
    product_err = float(np.max(np.abs(truncated.kernel.matrix - kernel.matrix)))
    roots_pts = np.exp(2j * np.pi * np.arange(8) / 8)
    covering = FinitePointSet(roots_pts, (2 * np.arange(8)) % 8)
    fiber_residual, _ = preimage_orthogonality(np.array([np.ones(8), roots_pts]), covering)
    fiber = float(fiber_residual.max())
    elapsed = time.perf_counter() - start
    checks = [
        ("szego_refinement", refinement < 1e-14, refinement),
        ("product_vs_szego", product_err < 1e-10, product_err),
        ("fiber_gram", fiber < 1e-15, fiber),
        ("runtime_s", elapsed < 2.0, elapsed),
    ]
    ok, detail = _report(9, "kernel refinement and products", checks, elapsed)
    assert ok, detail


def test_criterion_10_geometry():
    start = time.perf_counter()
    logistic = logistic_residuals(8, 64)[0]
    x = chebyshev_nodes(64)
    quad = float(np.max([abs(float(np.mean(x**k)) - arcsine_moment(k)) for k in range(64)]))
    sierpinski = strong_invariance_check(sierpinski_ifs(), 1_000_000, seed=7)
    binary = AffineIfs(np.array([[2]]), np.array([[0], [1]]))
    pts = np.concatenate([block[:, 0] for block in chaos_game(binary, 1_000_000, seed=11)])
    n = pts.shape[0]
    z1 = abs(pts.mean() - 0.5) / (pts.std(ddof=1) / np.sqrt(n))
    sq = pts**2
    z2 = abs(sq.mean() - 1 / 3) / (sq.std(ddof=1) / np.sqrt(n))
    uniform_z = float(np.max([z1, z2]))
    elapsed = time.perf_counter() - start
    checks = [
        ("logistic_invariance", logistic < 1e-12, logistic),
        ("chebyshev_moments", quad < 1e-14, quad),
        ("sierpinski_abs_z", sierpinski.max_abs_z < 4.0, sierpinski.max_abs_z),
        ("uniform_abs_z", uniform_z < 4.0, uniform_z),
        ("runtime_s", elapsed < 30.0, elapsed),
    ]
    ok, detail = _report(10, "measure geometry", checks, elapsed)
    assert ok, detail


def test_criterion_11_negative_controls(tmp_path, capsys):
    start = time.perf_counter()
    from wavelab import jsonio

    spec = IfsSpec(2)
    ones = CylinderFn(spec, 1, [1.0, 1.0])
    broken = tmp_path / "broken.json"
    jsonio.dump_file(
        str(broken), {"spec": spec.to_json(), "filters": [ones.to_json()] * 2}
    )
    code_broken = run(["ifs", "verify-filter", "--bank", str(broken)])

    bank = tmp_path / "bank.json"
    run(["ifs", "build-filter", "--kind", "indicator", "--N", "2", "--out", str(bank)])
    bad_u = tmp_path / "badu.json"
    jsonio.dump_file(str(bad_u), {"matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]})
    code_non_unitary = run(
        ["ifs", "apply-unitary", "--bank", str(bank), "--unitary", str(bad_u)]
    )

    bad_taps = tmp_path / "taps.json"
    jsonio.dump_file(str(bad_taps), {"taps": [[1, 0], [0, 0]]})
    code_taps = run(
        ["mra", "cascade", "--taps", str(bad_taps), "--N", "2", "--iters", "5",
         "--resolution", "64"]
    )
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    checks = [
        ("broken_bank_exit", code_broken == 1, float(code_broken)),
        ("non_unitary_exit", code_non_unitary == 1, float(code_non_unitary)),
        ("tap_sum_exit", code_taps == 1, float(code_taps)),
        ("runtime_s", elapsed < 1.0, elapsed),
    ]
    ok, detail = _report(11, "negative controls exit 1", checks, elapsed)
    assert ok, detail
