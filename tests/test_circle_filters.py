import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from wavelab.circle_filters import (
    BlaschkeFactor,
    BlaschkeProduct,
    LaurentPoly,
    MultibandMatrix,
    blaschke_product,
    cqf_complete,
    cuntz_residuals,
    evaluate_rows,
    grid_residuals,
    haar_pair,
    loop_action_circle,
    matrix_grid_unitarity,
    power_sum_residual,
    shift_relation_residual,
    unit_circle_grid,
    unitarity_residuals,
    weighted_compose_circle,
)
from wavelab.errors import InputError


def poly(*coeffs, start=0):
    return LaurentPoly.from_coefficients(start, coeffs)


def diag_w_one(w):
    """diag(w, 1) at every point of an array w."""
    return evaluate_rows([[LaurentPoly.monomial(1), LaurentPoly.zero()],
                          [LaurentPoly.zero(), LaurentPoly.one()]], w)


# ---------------------------------------------------------------------------
# Laurent arithmetic
# ---------------------------------------------------------------------------

def test_poly_basics():
    p = poly(1, 2, 3, start=-1)  # z^-1 + 2 + 3z
    assert p.coefficient(-1) == 1 and p.coefficient(1) == 3
    assert p(1.0) == pytest.approx(6)
    q = p.conj_reflect()
    assert q.coefficient(1) == 1 and q.coefficient(-1) == 3
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
    a = LaurentPoly.from_coefficients(shift, avals)
    b = LaurentPoly.from_coefficients(0, bvals)
    # products accumulate in different orders, so only rounding-level slack
    scale = 1.0 + a.max_abs() * b.max_abs()
    assert (a * b).distance(b * a) < 1e-13 * scale
    assert (a + b).distance(b + a) == 0.0
    assert a.conj_reflect().conj_reflect().distance(a) == 0.0
    z = np.exp(0.37j)
    assert complex((a * b)(z)) == pytest.approx(complex(a(z)) * complex(b(z)), abs=1e-9 * scale)


def test_upsample_downsample_examples():
    z = LaurentPoly.monomial(1)
    assert z.upsample(2).distance(LaurentPoly.monomial(2)) == 0
    assert LaurentPoly.monomial(2).downsample(2).distance(z) == 0
    assert not z.downsample(2)
    one = LaurentPoly.one()
    assert one.upsample(3).distance(one) == 0
    assert one.downsample(3).distance(one) == 0


@given(
    st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_down_after_up_is_identity(vals, n):
    f = LaurentPoly.from_coefficients(-2, vals)
    assert f.upsample(n).downsample(n).distance(f) == 0.0


def test_weighted_compose_examples():
    z = LaurentPoly.monomial(1)
    s = 1 / np.sqrt(2)
    m = poly(s, s)
    out = weighted_compose_circle(m, z, 2)
    assert out.distance(poly(s, s, start=2)) == 0
    assert weighted_compose_circle(LaurentPoly.one(), z, 2).distance(z.upsample(2)) == 0
    zi = LaurentPoly.monomial(-1)
    assert weighted_compose_circle(zi, LaurentPoly.one(), 2).distance(zi) == 0


# ---------------------------------------------------------------------------
# filter conditions in coefficients
# ---------------------------------------------------------------------------

def test_haar_residuals_exactly_zero():
    report = cuntz_residuals(haar_pair(), 2)
    assert report.orthonormality == 0.0
    assert report.completeness == 0.0


def test_single_isometry_incomplete():
    report = cuntz_residuals([LaurentPoly.one()], 2)
    assert report.orthonormality == 0.0
    assert report.completeness == pytest.approx(1.0)


def test_unit_sum_convention_gap():
    m0 = poly(0.5, 0.5)
    averaged = cuntz_residuals([m0], 2)
    assert averaged.gram[0][0].coefficient(0) == pytest.approx(-0.5)
    unit = cuntz_residuals([m0], 2, convention="unit-sum")
    assert unit.orthonormality == 0.0


def test_delayed_haar_is_valid_bank():
    s = 1 / np.sqrt(2)
    delayed = [poly(s, s, start=1), poly(s, -s, start=1)]
    report = cuntz_residuals(delayed, 2)
    assert report.orthonormality == 0.0 and report.completeness < 1e-15


def test_random_entries_fail():
    rng = np.random.default_rng(5)
    junk = [
        LaurentPoly.from_coefficients(0, rng.normal(size=3)),
        LaurentPoly.from_coefficients(0, rng.normal(size=3)),
    ]
    report = cuntz_residuals(junk, 2)
    assert report.orthonormality > 0.1


# ---------------------------------------------------------------------------
# CQF completion
# ---------------------------------------------------------------------------

def test_cqf_example():
    m0 = poly(0.5, 0.5)
    matrix = cqf_complete(m0)
    m1 = matrix[0][1]
    assert m1.distance(poly(-0.5, 0.5, start=-2)) == 0
    at_one = np.array([[e(1.0) for e in row] for row in matrix])
    assert np.allclose(at_one, [[1, 0], [0, -1]])
    at_i = np.array([[e(1j) for e in row] for row in matrix])
    expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    assert np.allclose(at_i, expected)
    assert matrix_grid_unitarity(lambda z: evaluate_rows(matrix, z), 256) < 1e-13


def test_cqf_averaged_convention():
    matrix = cqf_complete(haar_pair()[0], convention="averaged")
    assert matrix_grid_unitarity(lambda z: evaluate_rows(matrix, z), 128, scale=2.0) < 1e-13


def test_power_sum_residuals():
    assert power_sum_residual(poly(0.5, 0.5)) == 0.0
    assert power_sum_residual(LaurentPoly.one()) == pytest.approx(1.0)
    assert power_sum_residual(haar_pair()[0], convention="averaged") == 0.0


# ---------------------------------------------------------------------------
# banded matrix on the grid
# ---------------------------------------------------------------------------

def test_banded_matrix_haar():
    matrix = MultibandMatrix(haar_pair(), 2)
    assert matrix_grid_unitarity(matrix.eval, 256) < 1e-13
    assert shift_relation_residual(matrix, 256) < 1e-13


def test_shift_relation_holds_for_any_filters():
    rng = np.random.default_rng(11)
    junk = [
        LaurentPoly.from_coefficients(-1, rng.normal(size=4)),
        LaurentPoly.from_coefficients(0, rng.normal(size=2)),
        LaurentPoly.from_coefficients(1, rng.normal(size=3)),
    ]
    matrix = MultibandMatrix(junk, 3)
    assert shift_relation_residual(matrix, 64) < 1e-13
    assert matrix_grid_unitarity(matrix.eval, 64) > 0.1


def test_coefficient_grid_equivalence():
    # zero coefficient residuals iff grid unitarity vanishes
    good = MultibandMatrix(haar_pair(), 2)
    assert cuntz_residuals(haar_pair(), 2).orthonormality == 0.0
    assert matrix_grid_unitarity(good.eval, 128) < 1e-12


def test_parseval_coefficients_vs_grid():
    rng = np.random.default_rng(3)
    m = LaurentPoly.from_coefficients(-1, rng.normal(size=4) + 1j * rng.normal(size=4))
    f = LaurentPoly.from_coefficients(0, rng.normal(size=3) + 1j * rng.normal(size=3))
    out = weighted_compose_circle(m, f, 2)
    _, coeffs = out.coefficients()
    exact = float(np.sum(np.abs(coeffs) ** 2))
    grid = unit_circle_grid(1024)
    quad = float(np.mean(np.abs(m(grid) * f(grid**2)) ** 2))
    assert exact == pytest.approx(quad, abs=1e-10)


def test_quotient_of_banks_is_band_periodic():
    s = 1 / np.sqrt(2)
    bank_a = MultibandMatrix(haar_pair(), 2)
    bank_b = MultibandMatrix([poly(s, s, start=1), poly(s, -s, start=1)], 2)
    eps = -1.0
    worst = 0.0
    for z in unit_circle_grid(64):
        u = bank_a.eval(z) @ np.linalg.inv(bank_b.eval(z))
        u_eps = bank_a.eval(eps * z) @ np.linalg.inv(bank_b.eval(eps * z))
        worst = max(worst, float(np.max(np.abs(u - u_eps))))
    assert worst < 1e-11


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------

def test_blaschke_limit_cases():
    p = np.diag([1.0, 0.0])
    z = 0.3 + 0.4j
    zero_factor = blaschke_product([BlaschkeFactor(p, 0.0, 2)])
    assert np.allclose(zero_factor.eval(z), np.diag([z**2, 1.0]))
    inf_factor = blaschke_product([BlaschkeFactor(p, None, 2)])
    assert np.allclose(inf_factor.eval(z), np.diag([z**-2, 1.0]))
    empty = blaschke_product([], left_unitary=np.eye(3))
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
    product = blaschke_product(factors, left_unitary=q)
    assert product.unitarity_residual(256) < 1e-12
    assert product.periodicity_residual(n, 256) < 1e-12


def test_blaschke_json_roundtrip():
    rng = np.random.default_rng(4)
    product = blaschke_product(
        [BlaschkeFactor(_random_projection(rng, 2), 0.5, 2),
         BlaschkeFactor(_random_projection(rng, 2), None, 2)]
    )
    back = BlaschkeProduct.from_json(product.to_json())
    z = np.exp(0.51j)
    assert np.allclose(back.eval(z), product.eval(z))


# ---------------------------------------------------------------------------
# loop action on evaluators
# ---------------------------------------------------------------------------

def test_loop_action_identity():
    p = np.diag([1.0, 0.0])
    u = blaschke_product([BlaschkeFactor(p, 0.0, 2)])
    acted = loop_action_circle(lambda w: np.eye(2), u.eval, 2, n_grid=64)
    z = np.exp(0.3j)
    assert np.allclose(acted.eval(z), u.eval(z))
    assert not acted.non_unitary_warning


def test_loop_action_substitution():
    p = np.diag([1.0, 0.0])
    u = blaschke_product([BlaschkeFactor(p, 0.0, 2)])  # diag(z^2, 1)
    acted = loop_action_circle(diag_w_one, u.eval, 2, n_grid=64)
    z = 0.77 * np.exp(1.1j)
    assert np.allclose(acted.eval(z), np.diag([z**4, 1.0]))


def test_loop_action_preserves_unitarity_and_warns():
    p = np.diag([1.0, 0.0])
    u = blaschke_product([BlaschkeFactor(p, 0.5, 2)])
    before = u.unitarity_residual(128)
    acted = loop_action_circle(diag_w_one, u.eval, 2, n_grid=128)
    after = matrix_grid_unitarity(acted.eval, 128)
    assert after <= before + 1e-13
    bad = loop_action_circle(lambda w: np.diag([2.0, 1.0]), u.eval, 2, n_grid=16)
    assert bad.non_unitary_warning


def test_poly_json_roundtrip():
    p = LaurentPoly.from_coefficients(-2, [1 + 2j, 0.0, 3.5])
    back = LaurentPoly.from_json(p.to_json())
    assert back.distance(p) == 0.0


# ---------------------------------------------------------------------------
# stacked grid scans against the per-point oracle
# ---------------------------------------------------------------------------

def assert_matches_oracle(got, want):
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)


def random_filters(rng, n, min_degree, length):
    return [
        LaurentPoly.from_coefficients(
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
    delayed = [m * LaurentPoly.monomial(min_degree) for m in haar_pair()]
    banks = [random_filters(rng, n, min_degree, 5)]
    if n == 2:
        banks.append(delayed)  # a bank, so its residuals are rounding noise
    for filters in banks:
        matrix = MultibandMatrix(filters, n)
        point = lambda z: oracle.multiband_point(filters, n, z)
        per_point = unitarity_residuals(matrix.eval, n_grid)
        want = oracle.unitarity_points(point, n_grid)
        assert per_point.shape == (n_grid,)
        for got, ref in zip(per_point, want):
            assert_matches_oracle(got, ref)
        assert_matches_oracle(matrix_grid_unitarity(matrix.eval, n_grid), oracle.grid_unitarity(point, n_grid))
        assert_matches_oracle(
            shift_relation_residual(matrix, n_grid), oracle.shift_relation(filters, n, n_grid)
        )


@pytest.mark.parametrize("n_grid", [1, 9, 255])
def test_cqf_scan_matches_oracle(n_grid):
    rng = np.random.default_rng(n_grid)
    m0 = LaurentPoly.from_coefficients(-2, rng.normal(size=5) + 1j * rng.normal(size=5))
    for m in (m0, haar_pair()[0]):
        rows = cqf_complete(m, convention="averaged")
        got = matrix_grid_unitarity(lambda z: evaluate_rows(rows, z), n_grid, scale=2.0)
        want = oracle.grid_unitarity(lambda z: oracle.rows_point(rows, z), n_grid, scale=2.0)
        assert_matches_oracle(got, want)


def blaschke_cases(rng, n, power):
    """Products with a in {None, 0, inside, outside}, alone and together."""
    params = (None, 0.0, 0.4 - 0.3j, 1.7 + 0.5j)
    factors = [BlaschkeFactor(_random_projection(rng, n), a, power) for a in params]
    v = random_unitary(rng, n)
    return [blaschke_product([f]) for f in factors] + [blaschke_product(factors, left_unitary=v)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("n_grid", [5, 63])
def test_blaschke_scans_match_oracle(n, power, n_grid):
    rng = np.random.default_rng(100 * n + 10 * power + n_grid)
    for product in blaschke_cases(rng, n, power):
        point = lambda z: oracle.blaschke_point(product, z)
        assert_matches_oracle(product.unitarity_residual(n_grid), oracle.grid_unitarity(point, n_grid))
        # at band = power the product is periodic; at another band it is not
        for band in (power, power + 1):
            assert_matches_oracle(
                product.periodicity_residual(band, n_grid),
                oracle.periodicity(product, band, n_grid),
            )


@pytest.mark.parametrize("band", [2, 3])
@pytest.mark.parametrize("n_grid", [3, 65])
def test_loop_action_matches_oracle(band, n_grid):
    rng = np.random.default_rng(band + n_grid)
    g, u = blaschke_cases(rng, 2, 2)[-1], blaschke_cases(rng, 2, band)[-1]
    skewed = blaschke_product([BlaschkeFactor(np.diag([1.0, 0.0]), 0.5, 2)], np.eye(2))
    stretch = np.diag([2.0, 1.0])  # makes G non-unitary
    cases = [
        (g.eval, lambda w: oracle.blaschke_point(g, w)),
        (lambda w: stretch @ skewed.eval(w), lambda w: stretch @ oracle.blaschke_point(skewed, w)),
    ]
    for g_eval, g_point in cases:
        acted = loop_action_circle(g_eval, u.eval, band, n_grid=n_grid)
        g_want = oracle.loop_g_unitarity(g_point, band, n_grid)
        assert_matches_oracle(acted.g_unitarity_residual, g_want)
        assert acted.non_unitary_warning == (g_want > 1e-12)
        point = lambda z: g_point(z**band) @ oracle.blaschke_point(u, z)
        assert_matches_oracle(
            matrix_grid_unitarity(acted.eval, n_grid), oracle.grid_unitarity(point, n_grid)
        )


def test_scalar_z_gives_one_matrix():
    rng = np.random.default_rng(8)
    z = np.exp(0.61j)
    grid = unit_circle_grid(6)
    filters = random_filters(rng, 3, -1, 4)
    matrix = MultibandMatrix(filters, 3)
    rows = cqf_complete(filters[0])
    product = blaschke_cases(rng, 3, 2)[-1]
    factor = product.factors[2]
    acted = loop_action_circle(product.eval, product.eval, 2, n_grid=8)
    evaluators = [
        (matrix.eval, lambda p: oracle.multiband_point(filters, 3, p)),
        (lambda p: evaluate_rows(rows, p), lambda p: oracle.rows_point(rows, p)),
        (product.eval, lambda p: oracle.blaschke_point(product, p)),
        (factor.eval, lambda p: oracle.blaschke_point(blaschke_product([factor]), p)),
        (acted.eval, lambda p: oracle.blaschke_point(product, p**2) @ oracle.blaschke_point(product, p)),
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
    assert blaschke_product([], left_unitary=np.eye(2)).eval(grid).shape == (6, 2, 2)


def test_nan_entry_gives_nan_residual():
    s = 1 / np.sqrt(2)
    nan_bank = [poly(s, s, np.nan), poly(s, -s)]  # a NaN tap is kept, not pruned
    matrix = MultibandMatrix(nan_bank, 2)
    assert np.isnan(matrix_grid_unitarity(matrix.eval, 16))
    assert np.isnan(shift_relation_residual(matrix, 16))
    assert np.isnan(oracle.grid_unitarity(lambda z: oracle.multiband_point(nan_bank, 2, z), 16))
    assert np.isnan(cuntz_residuals(nan_bank, 2).orthonormality)
    # one NaN point among finite ones
    stack = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
    stack[5, 1, 0] = np.nan
    per_point = grid_residuals(stack - np.eye(2))
    assert np.isnan(per_point[5]) and np.all(per_point[np.arange(8) != 5] == 0.0)
    assert np.isnan(matrix_grid_unitarity(lambda z: stack, 8))
    nan_g = loop_action_circle(lambda w: stack, lambda z: np.eye(2), 2, n_grid=8)
    assert np.isnan(nan_g.g_unitarity_residual) and nan_g.non_unitary_warning


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
    return np.array([p.coefficient(k) for k in degrees])


def as_pair(values, lo):
    return LaurentPoly.from_coefficients(lo, values), oracle.DictLaurent(
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


def test_product_of_long_filters_is_a_convolution():
    rng = np.random.default_rng(9)
    a, b = (rng.normal(size=400) + 1j * rng.normal(size=400) for _ in range(2))
    lo, coeffs = (LaurentPoly.from_coefficients(-3, a) * LaurentPoly.from_coefficients(2, b)).coefficients()
    assert lo == -1 and np.array_equal(coeffs, np.convolve(a, b))
    assert not coeffs.flags.writeable


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
            report = cuntz_residuals(filters, n, convention)
            orth, comp = oracle.dict_cuntz_residuals(dicts, n, scale)
            assert close(report.orthonormality, orth) and close(report.completeness, comp), name
        for p, d in pairs:
            assert close(p(z), d(z)) and close(p(z[5]), d(z[5])), name
            for convention, target in (("unit-sum", 1.0), ("averaged", 2.0)):
                assert close(power_sum_residual(p, convention), oracle.dict_power_sum_residual(d, target))
            rows, want_rows = cqf_complete(p), oracle.dict_cqf_complete(d)
            assert all(same_file(e, f) for r, s in zip(rows, want_rows) for e, f in zip(r, s)), name
            assert close(
                matrix_grid_unitarity(lambda w: evaluate_rows(rows, w), 17),
                oracle.grid_unitarity(lambda w: oracle.rows_point(want_rows, w), 17),
            ), name
