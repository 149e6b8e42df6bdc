import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from wavelab import jsonio
from wavelab.circle_filters import (
    BlaschkeFactor,
    BlaschkeProduct,
    LaurentPoly,
    banded_matrix,
    cqf_complete,
    cuntz_residuals,
    evaluate_rows,
    grid_residuals,
    power_sum_residual,
    root_of_unity,
    rotation_residual,
    unit_circle_grid,
    unitarity_residuals,
)
from wavelab.cli import run
from wavelab.errors import InputError, band_count
from oracle import coefficient, distance


def poly(*coeffs, start=0):
    return LaurentPoly(start, coeffs)


def worst_unitarity(stack, scale=1.0) -> float:
    return float(np.max(unitarity_residuals(stack, scale)))


def band_law(filters, n, n_grid) -> float:
    """M(eps z) = M(z) Pi over the grid, from two evaluations."""
    z = unit_circle_grid(n_grid)
    at_eps_z = banded_matrix(filters, n, root_of_unity(n) * z)
    return rotation_residual(banded_matrix(filters, n, z), at_eps_z, shift=1)


def periodicity(product, band, n_grid) -> float:
    """U(eps z) = U(z) over the grid, from two evaluations."""
    z = unit_circle_grid(n_grid)
    return rotation_residual(product.eval(z), product.eval(root_of_unity(band) * z))


# ---------------------------------------------------------------------------
# Laurent arithmetic
# ---------------------------------------------------------------------------

def test_poly_basics():
    p = poly(1, 2, 3, start=-1)  # z^-1 + 2 + 3z
    assert coefficient(p, -1) == 1 and coefficient(p, 1) == 3
    assert p(1.0) == pytest.approx(6)
    q = p.conj_reflect()
    assert coefficient(q, 1) == 1 and coefficient(q, -1) == 3
    assert (p - p).max_abs() == 0.0
    lo, coeffs = (p * poly(0, 1)).coefficients()
    assert lo == 0 and np.allclose(coeffs, [1, 2, 3])


def test_prune_tolerance():
    # constructed cancellation below 1e-15 compares equal to zero
    c = 1 / np.sqrt(2)
    residue = poly(2 * c * c) - poly(1.0)
    assert not residue
    assert residue.max_abs() == 0.0


@given(
    st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_ring_laws(avals, bvals, shift):
    a = LaurentPoly(shift, avals)
    b = LaurentPoly(0, bvals)
    # products accumulate in different orders, so only rounding-level slack
    scale = 1.0 + a.max_abs() * b.max_abs()
    assert distance(a * b, b * a) < 1e-13 * scale
    assert distance(a + b, b + a) == 0.0
    assert distance(a.conj_reflect().conj_reflect(), a) == 0.0
    z = np.exp(0.37j)
    assert complex((a * b)(z)) == pytest.approx(complex(a(z)) * complex(b(z)), abs=1e-9 * scale)


def test_upsample_downsample_examples():
    z = LaurentPoly.monomial(1)
    assert distance(z.upsample(2), LaurentPoly.monomial(2)) == 0
    assert distance(LaurentPoly.monomial(2).downsample(2), z) == 0
    assert not z.downsample(2)
    one = LaurentPoly(0, [1.0])
    assert distance(one.upsample(3), one) == 0
    assert distance(one.downsample(3), one) == 0


@given(
    st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_down_after_up_is_identity(vals, n):
    f = LaurentPoly(-2, vals)
    assert distance(f.upsample(n).downsample(n), f) == 0.0


def test_weighted_compose_examples():
    z = LaurentPoly.monomial(1)
    s = 1 / np.sqrt(2)
    m = poly(s, s)
    out = m * z.upsample(2)
    assert distance(out, poly(s, s, start=2)) == 0
    assert distance(LaurentPoly(0, [1.0]) * z.upsample(2), z.upsample(2)) == 0
    zi = LaurentPoly.monomial(-1)
    assert distance(zi * LaurentPoly(0, [1.0]).upsample(2), zi) == 0


# ---------------------------------------------------------------------------
# filter conditions in coefficients
# ---------------------------------------------------------------------------

def test_haar_residuals_exactly_zero():
    assert cuntz_residuals(oracle.haar_pair(), 2, "averaged") == (0.0, 0.0)


def test_single_isometry_incomplete():
    orthonormality, completeness = cuntz_residuals([LaurentPoly(0, [1.0])], 2, "averaged")
    assert orthonormality == 0.0
    assert completeness == pytest.approx(1.0)


def test_unit_sum_convention_gap():
    # the averaged Gram of the unit-sum Haar filter is the constant 1/2
    m0 = poly(0.5, 0.5)
    assert cuntz_residuals([m0], 2, "averaged")[0] == pytest.approx(0.5)
    assert cuntz_residuals([m0], 2, "unit-sum")[0] == 0.0


def test_delayed_haar_is_valid_bank():
    s = 1 / np.sqrt(2)
    delayed = [poly(s, s, start=1), poly(s, -s, start=1)]
    orthonormality, completeness = cuntz_residuals(delayed, 2, "averaged")
    assert orthonormality == 0.0 and completeness < 1e-15


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_band_count_below_2_is_an_input_error(n):
    for call in (
        lambda: band_count(n),
        lambda: LaurentPoly(0, [1.0]).upsample(n),
        lambda: LaurentPoly(0, [1.0]).downsample(n),
        lambda: cuntz_residuals([LaurentPoly(0, [1.0])] * max(n, 0), n, "averaged"),
        lambda: banded_matrix([LaurentPoly(0, [1.0])] * max(n, 0), n, 1.0),
        lambda: root_of_unity(n),
    ):
        with pytest.raises(InputError, match="band count must be >= 2"):
            call()


def test_random_entries_fail():
    rng = np.random.default_rng(5)
    junk = [
        LaurentPoly(0, rng.normal(size=3)),
        LaurentPoly(0, rng.normal(size=3)),
    ]
    assert cuntz_residuals(junk, 2, "averaged")[0] > 0.1


# ---------------------------------------------------------------------------
# CQF completion
# ---------------------------------------------------------------------------

def test_cqf_example():
    m0 = poly(0.5, 0.5)
    matrix = cqf_complete(m0)
    m1 = matrix[0][1]
    assert distance(m1, poly(-0.5, 0.5, start=-2)) == 0
    at_one = np.array([[e(1.0) for e in row] for row in matrix])
    assert np.allclose(at_one, [[1, 0], [0, -1]])
    at_i = np.array([[e(1j) for e in row] for row in matrix])
    expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    assert np.allclose(at_i, expected)
    assert worst_unitarity(evaluate_rows(matrix, unit_circle_grid(256))) < 1e-13


def test_cqf_averaged_convention():
    matrix = cqf_complete(oracle.haar_pair()[0])
    assert worst_unitarity(evaluate_rows(matrix, unit_circle_grid(128)), scale=2.0) < 1e-13


def test_power_sum_residuals():
    assert power_sum_residual(poly(0.5, 0.5), "unit-sum") == 0.0
    assert power_sum_residual(LaurentPoly(0, [1.0]), "unit-sum") == pytest.approx(1.0)
    assert power_sum_residual(oracle.haar_pair()[0], "averaged") == 0.0


# ---------------------------------------------------------------------------
# banded matrix on the grid
# ---------------------------------------------------------------------------

def test_banded_matrix_haar():
    assert worst_unitarity(banded_matrix(oracle.haar_pair(), 2, unit_circle_grid(256))) < 1e-13
    assert band_law(oracle.haar_pair(), 2, 256) < 1e-13


def test_shift_relation_holds_for_any_filters():
    rng = np.random.default_rng(11)
    junk = [
        LaurentPoly(-1, rng.normal(size=4)),
        LaurentPoly(0, rng.normal(size=2)),
        LaurentPoly(1, rng.normal(size=3)),
    ]
    assert band_law(junk, 3, 64) < 1e-13
    assert worst_unitarity(banded_matrix(junk, 3, unit_circle_grid(64))) > 0.1


def test_coefficient_grid_equivalence():
    # zero coefficient residuals iff grid unitarity vanishes
    assert cuntz_residuals(oracle.haar_pair(), 2, "averaged")[0] == 0.0
    assert worst_unitarity(banded_matrix(oracle.haar_pair(), 2, unit_circle_grid(128))) < 1e-12


def test_parseval_coefficients_vs_grid():
    rng = np.random.default_rng(3)
    m = LaurentPoly(-1, rng.normal(size=4) + 1j * rng.normal(size=4))
    f = LaurentPoly(0, rng.normal(size=3) + 1j * rng.normal(size=3))
    out = m * f.upsample(2)
    _, coeffs = out.coefficients()
    exact = float(np.sum(np.abs(coeffs) ** 2))
    grid = unit_circle_grid(1024)
    quad = float(np.mean(np.abs(m(grid) * f(grid**2)) ** 2))
    assert exact == pytest.approx(quad, abs=1e-10)


def test_quotient_of_banks_is_band_periodic():
    s = 1 / np.sqrt(2)
    delayed = [poly(s, s, start=1), poly(s, -s, start=1)]

    def quotient(z):
        return banded_matrix(oracle.haar_pair(), 2, z) @ np.linalg.inv(banded_matrix(delayed, 2, z))

    z = unit_circle_grid(64)
    assert rotation_residual(quotient(z), quotient(-z)) < 1e-11  # NaN fails


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------

def test_blaschke_limit_cases():
    p = np.diag([1.0, 0.0])
    z = 0.3 + 0.4j
    zero_factor = oracle.blaschke_product([BlaschkeFactor(p, 0.0, 2)])
    assert np.allclose(zero_factor.eval(z), np.diag([z**2, 1.0]))
    inf_factor = oracle.blaschke_product([BlaschkeFactor(p, None, 2)])
    assert np.allclose(inf_factor.eval(z), np.diag([z**-2, 1.0]))
    empty = oracle.blaschke_product([], left_unitary=np.eye(3))
    assert np.allclose(empty.eval(z), np.eye(3))


def test_blaschke_validation():
    with pytest.raises(InputError):
        BlaschkeFactor(np.diag([1.0, 0.0]), 1.0, 2)  # |a| = 1
    with pytest.raises(InputError):
        BlaschkeFactor(np.array([[0.5, 0.5], [0.0, 0.5]]), 0.0, 2)  # not a projection
    with pytest.raises(InputError):
        BlaschkeProduct(np.diag([2.0, 1.0]), ())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_blaschke_validation_fails_closed(bad):
    with pytest.raises(InputError):
        BlaschkeFactor(np.diag([1.0, bad]), 0.0, 2)
    with pytest.raises(InputError):
        BlaschkeFactor(np.diag([1.0, 0.0]), complex(bad, 0.0), 2)
    with pytest.raises(InputError):
        BlaschkeProduct(np.diag([1.0, bad]), ())


def _random_projection(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = v / np.linalg.norm(v)
    return np.outer(v, np.conj(v))


@pytest.mark.parametrize("n", [2, 3])
def test_blaschke_unitary_and_periodic(n):
    rng = np.random.default_rng(100 + n)
    factors = []
    for a in (0.0, 0.5, 2.0, None):
        factors.append(BlaschkeFactor(_random_projection(rng, n), a, n))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    product = oracle.blaschke_product(factors, left_unitary=q)
    assert worst_unitarity(product.eval(unit_circle_grid(256))) < 1e-12
    assert periodicity(product, n, 256) < 1e-12


def test_blaschke_json_roundtrip():
    rng = np.random.default_rng(4)
    product = oracle.blaschke_product(
        [BlaschkeFactor(_random_projection(rng, 2), 0.5, 2),
         BlaschkeFactor(_random_projection(rng, 2), None, 2)]
    )
    back = BlaschkeProduct.from_json(oracle.blaschke_json(product))
    z = np.exp(0.51j)
    assert np.allclose(back.eval(z), product.eval(z))


# ---------------------------------------------------------------------------
# the loop action z -> G(z**N) U(z) of ``circle loop-act``
# ---------------------------------------------------------------------------

def loop_act(tmp_path, capsys, g, u, band, n_grid):
    """``circle loop-act`` on G and U written to files: (exit code, result)."""
    paths = [str(tmp_path / "g.json"), str(tmp_path / "u.json")]
    for path, product in zip(paths, (g, u)):
        jsonio.dump_file(path, oracle.blaschke_json(product))
    code = run(["circle", "loop-act", "--g-factors", paths[0], "--u-factors", paths[1],
                "--N", str(band), "--grid", str(n_grid)])
    return code, json.loads(capsys.readouterr().out)


def read_g_as(monkeypatch, g, transform):
    """Evaluate every product read back from G's file as transform(G(w)).

    A non-unitary or NaN acting map passes no Blaschke file check, so this
    is how it reaches the command.  G is told apart by its left unitary.
    """
    evaluate = BlaschkeProduct.eval

    def patched(self, z):
        out = evaluate(self, z)
        return transform(out) if np.array_equal(self.left_unitary, g.left_unitary) else out

    monkeypatch.setattr(BlaschkeProduct, "eval", patched)


def diag_w_one():
    """diag(w, 1) as a product in w = z**N."""
    return oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.0, 2)])


def test_loop_action_identity(tmp_path, capsys):
    u = oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)])
    identity = oracle.blaschke_product([], left_unitary=np.eye(2))
    code, result = loop_act(tmp_path, capsys, identity, u, 2, 64)
    # G = I, so the acted loop is U itself
    assert code == 0 and result["results"]["non_unitary_warning"] is False
    assert result["residuals"]["acting_map_unitarity"] == 0.0
    assert result["residuals"]["result_unitarity"] == worst_unitarity(u.eval(unit_circle_grid(64)))


def test_loop_action_substitution(tmp_path, capsys, monkeypatch):
    calls = []
    evaluate = BlaschkeProduct.eval
    monkeypatch.setattr(BlaschkeProduct, "eval", lambda self, z: calls.append(z) or evaluate(self, z))
    grid = unit_circle_grid(64)
    for band in (2, 3):
        code, _ = loop_act(tmp_path, capsys, diag_w_one(), diag_w_one(), band, 64)
        # G at the N-th powers of the grid, then U at the grid
        assert code == 0 and len(calls) == 2
        assert np.array_equal(calls[0], grid**band) and np.array_equal(calls[1], grid)
        calls.clear()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loop_action_preserves_unitarity_and_warns(tmp_path, capsys, monkeypatch):
    v = random_unitary(np.random.default_rng(7), 2)  # tells U apart from G
    u = oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)], v)
    g = diag_w_one()
    before = worst_unitarity(u.eval(unit_circle_grid(128)))
    code, result = loop_act(tmp_path, capsys, g, u, 2, 128)
    assert code == 0 and result["residuals"]["result_unitarity"] <= before + 1e-13
    for bad in (2.0, np.nan):
        with monkeypatch.context() as m:
            read_g_as(m, g, lambda w: np.diag([bad, 1.0]) @ w)
            code, result = loop_act(tmp_path, capsys, g, u, 2, 16)
        assert code == 1 and result["pass"] is False and result["results"]["non_unitary_warning"]
        assert not result["residuals"]["acting_map_unitarity"] <= 1.0  # 3.0 or NaN


def test_poly_json_roundtrip():
    p = LaurentPoly(-2, [1 + 2j, 0.0, 3.5])
    back = LaurentPoly.from_json(p.to_json())
    assert distance(back, p) == 0.0


# ---------------------------------------------------------------------------
# stacked grid scans against the per-point oracle
# ---------------------------------------------------------------------------

def assert_matches_oracle(got, want):
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)


def random_filters(rng, n, min_degree, length):
    return [
        LaurentPoly(
            min_degree + j, rng.normal(size=length) + 1j * rng.normal(size=length)
        )
        for j in range(n)
    ]


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("min_degree", [-3, 0, 2])
@pytest.mark.parametrize("n_grid", [1, 7, 129])
def test_multiband_scans_match_oracle(n, min_degree, n_grid):
    rng = np.random.default_rng(10 * n + min_degree + 1000 * n_grid)
    delayed = [m * LaurentPoly.monomial(min_degree) for m in oracle.haar_pair()]
    banks = [random_filters(rng, n, min_degree, 5)]
    if n == 2:
        banks.append(delayed)  # a bank, so its residuals are rounding noise
    for filters in banks:
        point = lambda z: oracle.multiband_point(filters, n, z)
        per_point = unitarity_residuals(banded_matrix(filters, n, unit_circle_grid(n_grid)))
        want = oracle.unitarity_points(point, n_grid)
        assert per_point.shape == (n_grid,)
        for got, ref in zip(per_point, want):
            assert_matches_oracle(got, ref)
        assert_matches_oracle(band_law(filters, n, n_grid), oracle.shift_relation(filters, n, n_grid))


@pytest.mark.parametrize("n_grid", [1, 9, 255])
def test_cqf_scan_matches_oracle(n_grid):
    rng = np.random.default_rng(n_grid)
    m0 = LaurentPoly(-2, rng.normal(size=5) + 1j * rng.normal(size=5))
    for m in (m0, oracle.haar_pair()[0]):
        rows = cqf_complete(m)
        got = worst_unitarity(evaluate_rows(rows, unit_circle_grid(n_grid)), scale=2.0)
        want = oracle.grid_unitarity(lambda z: oracle.rows_point(rows, z), n_grid, scale=2.0)
        assert_matches_oracle(got, want)


def blaschke_cases(rng, n, power):
    """Products with a in {None, 0, inside, outside}, alone and together."""
    params = (None, 0.0, 0.4 - 0.3j, 1.7 + 0.5j)
    factors = [BlaschkeFactor(_random_projection(rng, n), a, power) for a in params]
    v = random_unitary(rng, n)
    return [oracle.blaschke_product([f]) for f in factors] + [oracle.blaschke_product(factors, left_unitary=v)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("n_grid", [5, 63])
def test_blaschke_scans_match_oracle(n, power, n_grid):
    rng = np.random.default_rng(100 * n + 10 * power + n_grid)
    for product in blaschke_cases(rng, n, power):
        point = lambda z: oracle.blaschke_point(product, z)
        got = worst_unitarity(product.eval(unit_circle_grid(n_grid)))
        assert_matches_oracle(got, oracle.grid_unitarity(point, n_grid))
        # at band = power the product is periodic; at another band it is not
        for band in (power, power + 1):
            assert_matches_oracle(
                periodicity(product, band, n_grid), oracle.periodicity(product, band, n_grid)
            )


@pytest.mark.parametrize("band", [2, 3])
@pytest.mark.parametrize("n_grid", [3, 65])
def test_loop_action_matches_oracle(band, n_grid, tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(band + n_grid)
    g, u = blaschke_cases(rng, 2, 2)[-1], blaschke_cases(rng, 2, band)[-1]
    skewed = oracle.blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)], np.eye(2))
    stretch = np.diag([2.0, 1.0])  # makes G non-unitary
    cases = [
        (g, None, lambda w: oracle.blaschke_point(g, w)),
        (skewed, stretch, lambda w: stretch @ oracle.blaschke_point(skewed, w)),
    ]
    for acting, scale, g_point in cases:
        with monkeypatch.context() as m:
            if scale is not None:
                read_g_as(m, acting, lambda w: scale @ w)
            _, result = loop_act(tmp_path, capsys, acting, u, band, n_grid)
        residuals = result["residuals"]
        g_want = oracle.loop_g_unitarity(g_point, band, n_grid)
        assert_matches_oracle(residuals["acting_map_unitarity"], g_want)
        assert result["results"]["non_unitary_warning"] == (g_want > 1e-12)
        point = lambda z: g_point(z**band) @ oracle.blaschke_point(u, z)
        assert_matches_oracle(residuals["result_unitarity"], oracle.grid_unitarity(point, n_grid))


def test_scalar_z_gives_one_matrix():
    rng = np.random.default_rng(8)
    z = np.exp(0.61j)
    grid = unit_circle_grid(6)
    filters = random_filters(rng, 3, -1, 4)
    rows = cqf_complete(filters[0])
    product = blaschke_cases(rng, 3, 2)[-1]
    factor = product.factors[2]
    evaluators = [
        (lambda p: banded_matrix(filters, 3, p), lambda p: oracle.multiband_point(filters, 3, p)),
        (lambda p: evaluate_rows(rows, p), lambda p: oracle.rows_point(rows, p)),
        (product.eval, lambda p: oracle.blaschke_point(product, p)),
        (factor.eval, lambda p: oracle.blaschke_point(oracle.blaschke_product([factor]), p)),
    ]
    for evaluate, point in evaluators:
        one = evaluate(z)
        assert one.shape == point(z).shape and one.ndim == 2
        assert np.allclose(one, point(z), rtol=1e-13, atol=1e-13)
        stack = evaluate(grid)
        assert stack.shape == grid.shape + one.shape
        for k, p in enumerate(grid):
            assert np.allclose(stack[k], point(p), rtol=1e-13, atol=1e-13)
    # a grid of any shape gives a stack of that shape
    assert product.eval(grid.reshape(2, 3)).shape == (2, 3, 3, 3)
    assert oracle.blaschke_product([], left_unitary=np.eye(2)).eval(grid).shape == (6, 2, 2)


def test_nan_entry_gives_nan_residual():
    s = 1 / np.sqrt(2)
    nan_bank = [poly(s, s, np.nan), poly(s, -s)]  # a NaN tap is kept, not pruned
    assert np.isnan(worst_unitarity(banded_matrix(nan_bank, 2, unit_circle_grid(16))))
    assert np.isnan(band_law(nan_bank, 2, 16))
    assert np.isnan(oracle.grid_unitarity(lambda z: oracle.multiband_point(nan_bank, 2, z), 16))
    assert np.isnan(cuntz_residuals(nan_bank, 2, "averaged")[0])
    # one NaN point among finite ones
    stack = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
    stack[5, 1, 0] = np.nan
    per_point = grid_residuals(stack - np.eye(2))
    assert np.isnan(per_point[5]) and np.all(per_point[np.arange(8) != 5] == 0.0)
    assert np.isnan(worst_unitarity(stack))
    assert np.isnan(rotation_residual(np.eye(2), stack)) and np.isnan(rotation_residual(stack, np.eye(2)))


def grid_entries():
    """Entries with disjoint, overlapping and equal degree ranges, negative
    degrees, interior zeros, a NaN and the zero polynomial."""
    rng = np.random.default_rng(11)

    def entry(lo, length):
        return LaurentPoly(lo, rng.normal(size=length) + 1j * rng.normal(size=length))

    a, b = entry(-4, 3), entry(2, 5)  # disjoint
    c = LaurentPoly(-2, [0.5, 0.0, 0.0, -1.5j, 0.0, 2.0])  # interior zeros
    d = LaurentPoly(-4, a.coefficients()[1][::-1])  # a's degree range
    e = LaurentPoly(-1, [1.0, np.nan, 0.5j])
    return [a, b, c, d, e, LaurentPoly(), entry(-9, 20), entry(0, 1)]


def same_array(got, want) -> bool:
    """Equal shapes, strides and bits, NaNs and signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    bits = (np.ascontiguousarray(x).reshape(-1).view(np.int64) for x in (got, want))
    return got.shape == want.shape and got.strides == want.strides and np.array_equal(*bits)


@pytest.mark.parametrize("shape", [(), (1,), (33,), (3, 4)])
def test_grid_evaluation_is_bit_equal_to_one_entry_at_a_time(shape):
    # each power of z is computed once for all entries; each entry still adds its
    # terms in degree order, so every value keeps its bits
    rng = np.random.default_rng(len(shape))
    z = np.exp(2j * np.pi * rng.uniform(size=shape)) * rng.uniform(0.5, 1.5, size=shape)
    entries = grid_entries()
    for p in entries:
        assert same_array(p(z), oracle.laurent_value(p, z))
        assert type(p(z)) is type(oracle.laurent_value(p, z))
    for rows in ([entries[:2], entries[2:4]], [entries[4:7], entries[5:8], entries[:3]]):
        got = evaluate_rows(rows, z)
        want = np.array([[oracle.laurent_value(e, z) for e in row] for row in rows], dtype=complex)
        assert same_array(got, np.moveaxis(want, (0, 1), (-2, -1)))
        for j, row in enumerate(rows):
            for k, e in enumerate(row):
                assert same_array(got[..., j, k], e(z) if shape else np.asarray(e(z)))
    for n in (2, 3, 4):
        filters = entries[2 * n - 4 : 3 * n - 4]
        cols = np.asarray(z)[..., None] * np.array([root_of_unity(n) ** k for k in range(n)])
        want = np.stack([oracle.laurent_value(m, cols) for m in filters], axis=-2) / np.sqrt(n)
        assert same_array(banded_matrix(filters, n, z), want), n
    nan_at = evaluate_rows([[entries[4]]], z)
    assert np.all(np.isnan(nan_at))


def test_grid_evaluation_holds_one_power_at_a_time():
    """A 200-tap bank at 2**14 points peaks at a small multiple of its result,
    about as a 20-tap bank does; a table of every power would hold 200 grids."""
    rng = np.random.default_rng(3)
    z = unit_circle_grid(2**14)
    for taps in (20, 200):
        bank = [LaurentPoly(-taps // 2, rng.normal(size=taps) + 0j) for _ in range(2)]
        for evaluate in (lambda: banded_matrix(bank, 2, z), lambda: evaluate_rows(cqf_complete(bank[0]), z)):
            tracemalloc.start()
            try:
                nbytes = evaluate().nbytes
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert nbytes == 2**14 * 4 * 16 and peak < 3 * nbytes, (taps, peak)


# ---------------------------------------------------------------------------
# one coefficient array against the {degree: coeff} dictionaries
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def same_file(p, d) -> bool:
    """Equal JSON bytes, so equal bits, signed zeros and NaNs included."""
    return json.dumps(p.to_json()) == json.dumps(d.to_json())


def close(got, want) -> bool:
    """Within 1e-13 max(1, |oracle|), with NaN only where the oracle has NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan)
                and np.all(np.abs(got - want)[~nan] <= 1e-13 * np.maximum(1.0, np.abs(want[~nan]))))


def laurent_cases(rng, lengths=(1, 2, 50, 400), min_degrees=(-3, 0, 2)):
    """(name, coefficients, lowest degree) over lengths and lowest degrees, plus
    the zero polynomial, a polynomial scaled to 1e-16 and one with a NaN tap."""
    for length in lengths:
        for lo in min_degrees:
            v = rng.normal(size=length) + 1j * rng.normal(size=length)
            v[rng.integers(length)] = -0.0 + 0.5j * (length > 1)  # a signed zero
            yield f"{length}@{lo}", v, lo
    yield "zero", np.zeros(0), 0
    yield "1e-16", 1e-16 * rng.normal(size=5), -1
    yield "nan tap", np.array([0.5, np.nan, -0.25j]), 1


def dense(p, degrees) -> np.ndarray:
    """Coefficients of a LaurentPoly or a DictLaurent at the given degrees."""
    if isinstance(p, oracle.DictLaurent):
        return np.array([p.coeffs.get(k, 0j) for k in degrees])
    return np.array([coefficient(p, k) for k in degrees])


def as_pair(values, lo):
    return LaurentPoly(lo, values), oracle.DictLaurent(
        {lo + i: c for i, c in enumerate(values)}
    )


UNARY = {
    "neg": lambda p: -p,
    "real scalar": lambda p: 0.37 * p,
    "complex scalar": lambda p: p * (0.3 - 1.7j),
    "int scalar": lambda p: 3 * p,
    "conj_reflect": lambda p: p.conj_reflect(),
    "alternate": lambda p: p.alternate(),
    **{f"upsample {n}": (lambda p, n=n: p.upsample(n)) for n in (2, 3, 4)},
    **{f"downsample {n}": (lambda p, n=n: p.downsample(n)) for n in (2, 3, 4)},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op", sorted(UNARY))
def test_array_ops_equal_dict_oracle(op):
    rng = np.random.default_rng(len(op))
    for name, values, lo in laurent_cases(rng):
        p, d = as_pair(values, lo)
        assert same_file(p, d), name
        assert same_file(UNARY[op](p), UNARY[op](d)), (op, name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lo_b", [-3, 0, 2])
def test_products_and_sums_within_rounding(lo_b):
    rng = np.random.default_rng(20 + lo_b)
    others = list(laurent_cases(rng, lengths=(1, 50, 400), min_degrees=(lo_b,)))
    for name, values, lo in laurent_cases(rng, lengths=(1, 2, 50)):
        a, da = as_pair(values, lo)
        for other, w, lo_w in others:
            b, db = as_pair(w, lo_w)
            degrees = range(min(lo, lo_w) - 1, max(lo + len(values), lo_w + len(w)) + 1)
            for got, want in ((a + b, da + db), (a - b, da - db)):  # one rounding each: equal
                assert np.array_equal(dense(got, degrees), dense(want, degrees), equal_nan=True)
            got, want = a * b, da * db
            if not (a and b):
                assert not got and not want.coeffs
                continue
            base = a.coefficients()[0] + b.coefficients()[0]
            scale = np.convolve(np.abs(a.coefficients()[1]), np.abs(b.coefficients()[1]))
            degrees = range(base, base + scale.size)
            diff = np.abs(dense(got, degrees) - dense(want, degrees))
            nan = np.isnan(dense(want, degrees))
            assert np.array_equal(np.isnan(diff), nan), (name, other)
            assert np.all(diff[~nan] <= 4 * EPS * scale[~nan]), (name, other)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dict_oracle_product_matches_its_former_loop():
    rng = np.random.default_rng(50)
    cases = list(laurent_cases(rng, lengths=(1, 50), min_degrees=(-3, 2)))
    for name, values, lo in cases:
        for other, w, lo_w in cases:
            (_, da), (_, db) = as_pair(values, lo), as_pair(w, lo_w)
            got, want = da * db, oracle.dict_laurent_product(da, db)
            if not (da.coeffs and db.coeffs):
                assert not got.coeffs and not want.coeffs
                continue
            scale = np.convolve(np.abs(values), np.abs(w))
            degrees = range(lo + lo_w, lo + lo_w + scale.size)
            assert set(got.coeffs) <= set(degrees) and set(want.coeffs) <= set(degrees)
            diff = np.abs(dense(got, degrees) - dense(want, degrees))
            nan = np.isnan(dense(want, degrees))
            assert np.array_equal(np.isnan(diff), nan), (name, other)
            assert np.all(diff[~nan] <= 4 * EPS * scale[~nan]), (name, other)


def test_product_of_long_filters_is_a_convolution():
    rng = np.random.default_rng(9)
    a, b = (rng.normal(size=400) + 1j * rng.normal(size=400) for _ in range(2))
    lo, coeffs = (LaurentPoly(-3, a) * LaurentPoly(2, b)).coefficients()
    assert lo == -1 and np.array_equal(coeffs, np.convolve(a, b))
    assert not coeffs.flags.writeable


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_completeness_runs_only_the_probes_a_filter_reaches(monkeypatch):
    """A probe z**t meets a filter only through a coefficient of degree t mod N:
    the probes none reaches reconstruct to 0, residual 1, and are not run."""
    calls, upsample = [], LaurentPoly.upsample
    monkeypatch.setattr(LaurentPoly, "upsample", lambda self, n: calls.append(n) or upsample(self, n))
    rng = np.random.default_rng(36)
    for trial in range(60):
        n, count = int(rng.integers(5, 13)), int(rng.integers(1, 5))
        bank = []
        for _ in range(count):
            taps = rng.normal(size=int(rng.integers(1, 4))) + 1j * rng.normal(size=1)
            taps[rng.random(taps.size) < 0.3] = rng.choice([0.0, np.nan, 1e-16])
            bank.append(taps * (1e-16 if rng.random() < 0.1 else 1.0))
        pairs = [as_pair(v, int(rng.integers(-6, 6))) for v in bank]
        filters, dicts = [p for p, _ in pairs], [d for _, d in pairs]
        reached = {(lo + k) % n for lo, c in map(LaurentPoly.coefficients, filters)
                   for k in np.flatnonzero(c).tolist()}
        for convention, scale in (("averaged", 1.0), ("unit-sum", float(n))):
            calls.clear()
            got_orth, got_comp = cuntz_residuals(filters, n, convention)
            orth, comp = oracle.dict_cuntz_residuals(dicts, n, scale)
            assert close(got_orth, orth) and close(got_comp, comp), (trial, convention)
            assert len(calls) == len(reached) * count, trial
    calls.clear()
    assert cuntz_residuals(oracle.haar_pair(), 16000, "averaged") == (0.0, 1.0)
    assert len(calls) == 2 * 2  # the probes z**0 and z**1, one upsample per filter


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("length", [1, 2, 50, 400])
def test_filter_residuals_match_dict_oracle(n, length):
    rng = np.random.default_rng(100 * n + length)
    min_degrees = (-3, 0, 2)
    banks = {
        "random": [rng.normal(size=length) + 1j * rng.normal(size=length) for _ in range(n)],
        "1e-16": [1e-16 * rng.normal(size=length) for _ in range(n)],
    }
    if n == 2:
        banks["haar"] = [np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)]
        banks["nan tap"] = [np.array([0.5, 0.5, np.nan]), np.array([0.5, -0.5])]
    z = unit_circle_grid(33)
    for name, bank in banks.items():
        pairs = [as_pair(v, min_degrees[j % 3]) for j, v in enumerate(bank)]
        filters, dicts = [p for p, _ in pairs], [d for _, d in pairs]
        for convention, scale in (("averaged", 1.0), ("unit-sum", float(n))):
            got_orth, got_comp = cuntz_residuals(filters, n, convention)
            orth, comp = oracle.dict_cuntz_residuals(dicts, n, scale)
            assert close(got_orth, orth) and close(got_comp, comp), name
        for p, d in pairs:
            assert close(p(z), d(z)) and close(p(z[5]), d(z[5])), name
            for convention, target in (("unit-sum", 1.0), ("averaged", 2.0)):
                assert close(power_sum_residual(p, convention), oracle.dict_power_sum_residual(d, target))
            rows, want_rows = cqf_complete(p), oracle.dict_cqf_complete(d)
            assert all(same_file(e, f) for r, s in zip(rows, want_rows) for e, f in zip(r, s)), name
            assert close(
                worst_unitarity(evaluate_rows(rows, unit_circle_grid(17))),
                oracle.grid_unitarity(lambda w: oracle.rows_point(want_rows, w), 17),
            ), name
