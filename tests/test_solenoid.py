import tracemalloc

import numpy as np
import pytest

import oracle
from conftest import random_cylinder
from wavelab.code_space import (
    CylinderFn,
    IfsSpec,
    adjoint_sigma,
    compose_sigma,
    integrate,
    multiply,
    weighted_adjoint,
    weighted_compose,
)
from wavelab.errors import InputError, VerificationError
from wavelab.ifs_filters import build_indicator, build_roots_of_unity
from wavelab.solenoid import (
    MomentSpec,
    PathCylinderFn,
    dilation_residuals,
    expectation,
    harmonic_for,
    measure_change_residual,
    moment,
    pairing,
    path_sup_distance,
    probability_residual,
    shift_covariance_check,
    w0_isometry_residual,
    weighted_shift,
)


@pytest.fixture
def indicator_weight(spec2):
    return build_indicator(spec2).filters[0].abs2()  # [2, 0]


# ---------------------------------------------------------------------------
# symbolic algebra
# ---------------------------------------------------------------------------

def test_coordinate_pull_and_shift(spec2, rng):
    g = random_cylinder(rng, spec2, 1)
    f, one = PathCylinderFn.coordinate(2, g), CylinderFn.ones(spec2)
    shifted = weighted_shift(f, one)  # F o shift, the weighted shift with m = 1
    top, collapsed = shifted.collapse()
    assert top == 1
    # pi_2 o shift = pi_1
    assert path_sup_distance(shifted, PathCylinderFn.coordinate(1, g)) == 0.0
    zero_pull = weighted_shift(PathCylinderFn.coordinate(0, g), one)
    assert path_sup_distance(
        zero_pull, PathCylinderFn.coordinate(0, compose_sigma(g))
    ) == 0.0
    inv = PathCylinderFn.coordinate(1, g).compose_shift_inverse()
    assert path_sup_distance(inv, PathCylinderFn.coordinate(2, g)) == 0.0


def test_collapse_identifies_equivalent_forms(spec2, rng):
    g = random_cylinder(rng, spec2, 1)
    low = PathCylinderFn.coordinate(0, g)
    high = PathCylinderFn.coordinate(1, compose_sigma(g))
    assert path_sup_distance(low, high) == 0.0


def test_path_algebra_is_linear(spec2, rng):
    f = random_cylinder(rng, spec2, 1)
    g = random_cylinder(rng, spec2, 2)
    a = PathCylinderFn.coordinate(0, f)
    b = PathCylinderFn.coordinate(1, g)
    lhs = (a + b) * (a - b)
    rhs = a * a - b * b + b * a - a * b
    assert path_sup_distance(lhs, rhs) < 1e-12


def _assert_same_bits(p: PathCylinderFn, q: PathCylinderFn) -> None:
    assert len(p.terms) == len(q.terms)
    for (c, s), (d, t) in zip(p.terms, q.terms):
        assert np.array_equal(oracle.bits(c), oracle.bits(d)) and len(s) == len(t)
        for a, b in zip(s, t):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.depth == b.depth
                assert np.array_equal(oracle.bits(a.values), oracle.bits(b.values))


def _mixed_path(rng, spec, depths) -> PathCylinderFn:
    """Multi-slot terms, None slots, a lone coordinate 1 and a constant term."""
    a, b, c, d = (random_cylinder(rng, spec, k) for k in depths)
    pull = PathCylinderFn.coordinate
    return (
        pull(0, a) * pull(1, b) + pull(1, b) + pull(0, a) * pull(2, c)
        + PathCylinderFn.constant(spec, 0.5 + 2j) + pull(0, a)
        - pull(0, a) * pull(1, b) * pull(3, d)
    )


# (N, depths of the four factors, depths of m): m shallower and deeper than
# g_0 o sigma, products on both sides of 256 KiB
MIXED_PATHS = [
    (2, (2, 1, 3, 0), (1, 4)),
    (3, (1, 2, 0, 1), (0, 3)),
    (2, (12, 2, 1, 1), (1, 14)),
    (2, (14, 1, 0, 2), (2,)),
    (3, (8, 1, 1, 0), (1,)),
]


@pytest.mark.parametrize("n, depths, m_depths", MIXED_PATHS)
def test_weighted_shift_and_collapse_match_stored_shifts_bit_for_bit(n, depths, m_depths):
    rng = np.random.default_rng(sum(depths) + n)
    spec = IfsSpec(n)
    path = _mixed_path(rng, spec, depths)
    top, total = path.collapse()
    want_top, want = oracle.stored_collapse(path)
    assert top == want_top == 3
    assert np.array_equal(oracle.bits(total.values), oracle.bits(want.values))
    for dm in m_depths:
        m = random_cylinder(rng, spec, dm)
        once = weighted_shift(path, m)
        _assert_same_bits(once, oracle.stored_weighted_shift(path, m))
        twice = oracle.stored_weighted_shift(once, m)
        _assert_same_bits(weighted_shift(once, m), twice)
        top, total = twice.collapse()
        assert np.array_equal(oracle.bits(total.values), oracle.bits(oracle.stored_collapse(twice)[1].values))


def test_weighted_shift_dilates_composition(spec2, rng):
    for bank in (build_indicator(spec2), build_roots_of_unity(spec2)):
        m = bank.filters[0]
        f = random_cylinder(rng, spec2, 1)
        lhs = weighted_shift(PathCylinderFn.coordinate(0, f), m)
        rhs = PathCylinderFn.coordinate(0, weighted_compose(m, f))
        assert path_sup_distance(lhs, rhs) < 1e-15


def test_weighted_shift_inverse_pair(spec2, rng):
    m = build_roots_of_unity(spec2).filters[0]  # |m| = 1 pointwise
    f = random_cylinder(rng, spec2, 1)
    for coord in (0, 1, 2):
        path = PathCylinderFn.coordinate(coord, f)
        roundtrip = oracle.weighted_shift_inverse(weighted_shift(path, m), m)
        assert path_sup_distance(roundtrip, path) < 1e-14
        other = weighted_shift(oracle.weighted_shift_inverse(path, m), m)
        assert path_sup_distance(other, path) < 1e-14


def test_weighted_shift_inverse_formula(spec2, rng):
    m = build_roots_of_unity(spec2).filters[1]
    f = random_cylinder(rng, spec2, 1)
    lhs = oracle.weighted_shift_inverse(PathCylinderFn.coordinate(0, f), m)
    recip = CylinderFn(spec2, 1, 1.0 / m.values)
    rhs = PathCylinderFn.coordinate(1, recip) * PathCylinderFn.coordinate(1, f)
    assert path_sup_distance(lhs, rhs) < 1e-15


def test_weighted_shift_inverse_needs_nonvanishing(spec2, indicator_weight, rng):
    m = build_indicator(spec2).filters[0]
    with pytest.raises(VerificationError, match="nonvanishing weight"):
        oracle.weighted_shift_inverse(PathCylinderFn.coordinate(0, CylinderFn.ones(spec2)), m)


def test_spec_mismatch(spec2, spec3, rng):
    with pytest.raises(InputError, match="different systems"):
        PathCylinderFn.coordinate(0, CylinderFn.ones(spec2)) * PathCylinderFn.coordinate(
            0, CylinderFn.ones(spec3)
        )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_reduces_to_base_integral(spec2, rng):
    f0 = random_cylinder(rng, spec2, 2)
    ones = CylinderFn.ones(spec2)
    ms = MomentSpec(spec2, oracle.lift_cylinder(ones, 1), ones, (f0,))
    assert moment(ms.coords, ms.weight, ms.h) == pytest.approx(integrate(f0))


def test_moment_all_ones_is_probability(spec2, spec3, indicator_weight):
    for spec in (spec2, spec3):
        for j in range(spec.N):
            w = build_indicator(spec).filters[j].abs2()
            assert probability_residual(3, w, harmonic_for(w)) < 1e-13


def test_moment_deterministic_branch_oracle(spec2, indicator_weight, rng):
    # weight [2, 0]: the transfer operator pins the prepended symbol to 1,
    # so the order-1 moment is int f0 (f1 o tau_1) dmu, checked by words
    f0 = random_cylinder(rng, spec2, 1)
    f1 = random_cylinder(rng, spec2, 1)
    h = harmonic_for(indicator_weight)
    val = moment((f0, f1), indicator_weight, h)
    t0, t1 = oracle.table_of(f0), oracle.table_of(f1)
    expected = sum(
        oracle.measure(spec2.weights, w) * t0[w] * t1[(1,) + w[:0]]
        for w in oracle.words(2, 1)
    )
    assert val == pytest.approx(expected, abs=1e-14)


def test_moment_nested_oracle_depth2(spec2, rng):
    # generic admissible weight at depth 1, order-2 moment vs raw word sums:
    # E[f0(x0) f1(x1) f2(x2)] with x_{k+1} = (j x_k), P(j | x_k) = p_j W(j x_k)
    w_vals = np.array([0.8, 1.2])
    weight = CylinderFn(spec2, 1, w_vals)
    h = harmonic_for(weight)
    fs = [random_cylinder(rng, spec2, 1) for _ in range(3)]
    val = moment(fs, weight, h)
    total = 0.0
    for x0 in oracle.words(2, 1):
        mu = oracle.measure(spec2.weights, x0)
        for j1 in (1, 2):
            p1 = 0.5 * w_vals[j1 - 1]
            x1 = (j1,) + x0
            for j2 in (1, 2):
                p2 = 0.5 * w_vals[j2 - 1]
                total += (
                    mu
                    * p1
                    * p2
                    * oracle.table_of(fs[0])[x0]
                    * oracle.table_of(fs[1])[(j1,)]
                    * oracle.table_of(fs[2])[(j2,)]
                )
    assert val == pytest.approx(total, abs=1e-13)


def test_moment_validates_inputs(spec2, rng):
    bad_w = CylinderFn(spec2, 1, [1.0, -0.5])
    ones = CylinderFn.ones(spec2)
    with pytest.raises(InputError):
        moment(MomentSpec(spec2, bad_w, ones, (ones,)))
    not_harmonic = CylinderFn(spec2, 1, [1.5, 0.5])
    w = CylinderFn(spec2, 1, [2.0, 0.0])
    with pytest.raises(InputError):
        moment(MomentSpec(spec2, w, not_harmonic, (ones,)))


def test_marginal_identity(spec2, spec3, rng):
    for spec in (spec2, spec3):
        w = build_indicator(spec).filters[-1].abs2()
        f0 = random_cylinder(rng, spec, 2)
        for order in (1, 2, 3):
            assert oracle.marginal_residual(f0, order, w) < 1e-13


def test_measure_change_identity(spec2, rng):
    for j in (0, 1):
        w = build_indicator(spec2).filters[j].abs2()
        f = random_cylinder(rng, spec2, 1)
        g = random_cylinder(rng, spec2, 1)
        probe = PathCylinderFn.coordinate(0, f) * PathCylinderFn.coordinate(1, g)
        assert measure_change_residual(probe, w, harmonic_for(w)) < 1e-13


def test_w0_isometry(spec2, spec3, rng):
    for spec in (spec2, spec3):
        w = build_indicator(spec).filters[0].abs2()
        f = random_cylinder(rng, spec, 2)
        g = random_cylinder(rng, spec, 1)
        assert w0_isometry_residual(f, g, w, harmonic_for(w)) < 1e-13


def test_resolution_subspace_is_shift_invariant(spec2, rng):
    # U (f o pi_0) stays inside the coordinate-0 copy of the base space:
    # tested against coordinate probes at several indices
    m = build_indicator(spec2).filters[0]
    w = m.abs2()
    h = harmonic_for(w)
    f = random_cylinder(rng, spec2, 1)
    inside = weighted_shift(PathCylinderFn.coordinate(0, f), m)
    image = PathCylinderFn.coordinate(0, weighted_compose(m, f))
    for k in range(3):
        probe = PathCylinderFn.coordinate(k, random_cylinder(rng, spec2, 1))
        assert abs(
            pairing(inside, probe, w, h) - pairing(image, probe, w, h)
        ) < 1e-13


# ---------------------------------------------------------------------------
# dilation identities
# ---------------------------------------------------------------------------

def test_dilation_zero_order_is_plain_pairing(spec2, rng):
    m = build_indicator(spec2).filters[0]
    f = random_cylinder(rng, spec2, 1)
    g = random_cylinder(rng, spec2, 1)
    assert dilation_residuals(m, f, g, [0], harmonic_for(m.abs2()))[0] < 1e-14


def test_dilation_expands_weighted_composition(spec2, rng):
    m = build_indicator(spec2).filters[0]
    f = random_cylinder(rng, spec2, 2)
    g = random_cylinder(rng, spec2, 2)
    h = harmonic_for(m.abs2())
    # hand expansion of the order-1 identity
    lhs = integrate(multiply(weighted_compose(m, f), g.conj()))
    rhs = pairing(
        weighted_shift(PathCylinderFn.coordinate(0, f), m),
        PathCylinderFn.coordinate(0, g),
        m.abs2(),
        h,
    )
    assert abs(lhs - rhs) < 1e-13
    assert dilation_residuals(m, f, g, [1], h)[0] < 1e-13


def test_dilation_negative_order_with_trivial_weight(spec2, rng):
    one = oracle.lift_cylinder(CylinderFn.ones(spec2), 1)
    f = random_cylinder(rng, spec2, 2)
    g = random_cylinder(rng, spec2, 2)
    # m = 1: the adjoint power is the plain transfer average
    lhs = integrate(multiply(adjoint_sigma(f), g.conj()))
    assert abs(lhs - integrate(multiply(f, compose_sigma(g).conj()))) < 1e-13
    assert dilation_residuals(one, f, g, [-1], harmonic_for(one.abs2()))[0] < 1e-13


def test_dilation_orders_both_signs(spec2, spec3, rng):
    for spec in (spec2, spec3):
        bank = build_indicator(spec)
        m = bank.filters[rng.integers(spec.N)]
        h = harmonic_for(m.abs2())
        for n in (-2, -1, 0, 1, 2):
            f = random_cylinder(rng, spec, 2)
            g = random_cylinder(rng, spec, 2)
            assert dilation_residuals(m, f, g, [n], h)[0] < 1e-12


def test_dilation_with_roots_weights(spec3, rng):
    m = build_roots_of_unity(spec3).filters[0]
    h = harmonic_for(m.abs2())
    for n in (-2, 1):
        f = random_cylinder(rng, spec3, 1)
        g = random_cylinder(rng, spec3, 1)
        assert dilation_residuals(m, f, g, [n], h)[0] < 1e-12


def _dilation_multiplier(rng, spec, admissible: bool, depth: int = 2) -> CylinderFn:
    """A multiplier m: admissible (h = 1), or with |m|^2 a positive weight
    divided by the Perron eigenvalue of R_W (non-constant h)."""
    phases = np.exp(2j * np.pi * rng.uniform(size=spec.N**depth))
    # raw[n, v] = |m(n v)|^2 before scaling
    raw = rng.uniform(0.2, 1.8, size=(spec.N, spec.N ** (depth - 1)))
    p = spec.weight_array()
    if admissible:  # sum_n p_n |m(n v)|^2 = 1 at every tail v
        scale = p @ raw
    else:  # the Perron eigenvalue of R_W
        mat = oracle.transfer_matrix(CylinderFn(spec, depth, raw.ravel()))
        scale = np.max(np.linalg.eigvals(mat).real)
    return CylinderFn(spec, depth, np.sqrt(raw / scale).ravel() * phases)


@pytest.mark.parametrize("admissible", [True, False])
def test_dilation_walk_equals_order_by_order_oracle(spec2, spec_weighted, rng, admissible):
    for spec in (spec2, spec_weighted):
        m = _dilation_multiplier(rng, spec, admissible)
        h = harmonic_for(m.abs2())
        assert (h.depth == 0) == admissible
        f, g = random_cylinder(rng, spec, 1), random_cylinder(rng, spec, 2)
        orders = list(range(-5, 6))
        walk = dilation_residuals(m, f, g, orders, h)
        assert walk == [oracle.dilation_check(m, f, g, n, h) for n in orders]


# the former formulations in the oracle judge the loops on value arrays, bit for
# bit: nonuniform weights, coordinates shallower and deeper than W (depth 3)
# and h (depth 2, or 0 for an admissible weight)
ORACLE_SPECS = [IfsSpec(2, (0.25, 0.75)), IfsSpec(3, (0.2, 0.3, 0.5))]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["N=2", "N=3"])
@pytest.mark.parametrize("admissible", [True, False])
def test_moment_loop_matches_the_stepwise_oracle_bit_for_bit(spec, admissible):
    rng = np.random.default_rng(spec.N + 10 * admissible)
    weight = _dilation_multiplier(rng, spec, admissible, depth=3).abs2()
    h = harmonic_for(weight)
    assert h.depth == (0 if admissible else 2)
    fs = [random_cylinder(rng, spec, d) for d in (0, 4, 1, 5, 2, 3)]
    for k in range(1, len(fs) + 1):
        got, want = moment(fs[:k], weight, h), oracle.stepwise_moment(fs[:k], weight, h)
        assert oracle.bits(got).tolist() == oracle.bits(want).tolist()
    a, b = (_mixed_path(rng, spec, depths) for depths in ((4, 0, 2, 5), (1, 3, 0, 2)))
    assert expectation(a, weight, h) == oracle.stepwise_expectation(a, weight, h)
    assert pairing(a, b, weight, h) == oracle.stepwise_expectation(a * b.conj(), weight, h)
    for order in (0, 3):
        ones = [CylinderFn.ones(spec)] * (order + 1)
        want = abs(oracle.stepwise_moment(ones, weight, h) - 1.0)
        assert probability_residual(order, weight, h) == want


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["N=2", "N=3"])
@pytest.mark.parametrize("admissible", [True, False])
@pytest.mark.parametrize(
    "orders", [[0, 2, 1, 3], [-1, -3, -2], [-3, 0, 2, -1, 2, 1]], ids=["up", "down", "mixed"]
)
def test_dilation_walks_match_the_four_walk_oracle_bit_for_bit(spec, admissible, orders):
    rng = np.random.default_rng(spec.N + 10 * admissible + len(orders))
    m = _dilation_multiplier(rng, spec, admissible, depth=3)
    h = harmonic_for(m.abs2())
    for df, dg in ((1, 4), (4, 0)):  # f and g shallower and deeper than m and h
        f, g = random_cylinder(rng, spec, df), random_cylinder(rng, spec, dg)
        want = oracle.four_walk_dilation(m, f, g, orders, h)
        assert dilation_residuals(m, f, g, orders, h) == want


@pytest.mark.parametrize("admissible", [True, False])
def test_dilation_memory_peak_at_the_benchmark_shapes(admissible):
    # N = 2, m of depth 8, f and g of depth 3, orders -10..10: the deepest
    # array is 2**17 cells (2 MiB).  With the pairing products written in
    # place the peak is 5.01 MiB; pairings through pairing(), which holds
    # conj(S_m^k g) and two products at once, peak at 7.52 MiB
    spec = IfsSpec(2, (0.375, 0.625))
    rng = np.random.default_rng(8)
    m = _dilation_multiplier(rng, spec, admissible, depth=8)
    h = harmonic_for(m.abs2())
    f, g = random_cylinder(rng, spec, 3), random_cylinder(rng, spec, 3)
    tracemalloc.start()
    try:
        dilation_residuals(m, f, g, list(range(-10, 11)), h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20


def test_dilation_negative_orders_use_the_h_adjoint(spec_weighted, rng):
    m = _dilation_multiplier(rng, spec_weighted, admissible=False)
    f, g = random_cylinder(rng, spec_weighted, 1), random_cylinder(rng, spec_weighted, 1)
    h = harmonic_for(m.abs2())
    assert h.depth == 1 and abs(h.values[0] - h.values[1]) > 0.01
    assert max(dilation_residuals(m, f, g, [-1, -2, -3], h)) < 1e-15
    # the L2(mu) adjoint S*(conj(m) f) misses the L2(h dmu) pairing at n = -1
    lhs = integrate(multiply(weighted_adjoint(m, f), multiply(g.conj(), h)))
    pf, pg = PathCylinderFn.coordinate(0, f), PathCylinderFn.coordinate(0, g)
    rhs = pairing(pf, weighted_shift(pg, m), m.abs2(), h)
    assert abs(lhs - rhs) > 1e-3


# ---------------------------------------------------------------------------
# covariance axioms
# ---------------------------------------------------------------------------

def test_covariance_trivial_weight(spec2, rng):
    one = oracle.lift_cylinder(CylinderFn.ones(spec2), 1)
    f = CylinderFn.ones(spec2)
    conjugation, scaling = shift_covariance_check(one, f, random_cylinder(rng, spec2, 1))
    assert conjugation == 0.0
    assert scaling == 0.0


def test_covariance_random_inputs(spec2, spec3, rng):
    for spec in (spec2, spec3):
        for builder in (build_indicator, build_roots_of_unity):
            m = builder(spec).filters[0]
            f = random_cylinder(rng, spec, 1)
            g = random_cylinder(rng, spec, 1)
            conjugation, scaling = shift_covariance_check(m, f, g)
            assert conjugation < 1e-13 and scaling < 1e-13


def test_covariance_via_explicit_inverse(spec2, rng):
    # for an invertible weight the literal conjugation identity holds too
    m = build_roots_of_unity(spec2).filters[0]
    f = random_cylinder(rng, spec2, 1)
    g = random_cylinder(rng, spec2, 1)
    probe = PathCylinderFn.coordinate(1, g)
    lhs = weighted_shift(
        PathCylinderFn.coordinate(0, f) * oracle.weighted_shift_inverse(probe, m), m
    )
    rhs = PathCylinderFn.coordinate(0, compose_sigma(f)) * probe
    assert path_sup_distance(lhs, rhs) < 1e-14


# ---------------------------------------------------------------------------
# mixed moments of the shift and multiplication
# ---------------------------------------------------------------------------

def test_state_moment_matches_path_pairing(spec2, rng):
    # int m^(k) f h dmu, with m^(k) the k-step cocycle, is <(f o pi_0) U^k 1, 1>_P
    m = build_roots_of_unity(spec2).filters[1]
    f = random_cylinder(rng, spec2, 1)
    w = m.abs2()
    h = harmonic_for(w)
    cocycle = CylinderFn.ones(spec2)  # m (m o sigma) ... (m o sigma^(k-1))
    for k in (0, 1, 2, 3):
        direct = integrate(multiply(multiply(cocycle, f), h))
        cocycle = multiply(cocycle, oracle.shift_iterate(m, k))
        acc = PathCylinderFn.constant(spec2, 1.0)
        for _ in range(k):
            acc = weighted_shift(acc, m)
        sym = pairing(
            PathCylinderFn.coordinate(0, f) * acc,
            PathCylinderFn.constant(spec2, 1.0),
            w,
            h,
        )
        assert abs(direct - sym) < 1e-13


def test_moment_spec_json_roundtrip(spec2, rng, indicator_weight):
    h = harmonic_for(indicator_weight)
    ms = MomentSpec(
        spec2,
        indicator_weight,
        h,
        (random_cylinder(rng, spec2, 1), random_cylinder(rng, spec2, 1)),
    )
    want = moment(ms.coords, ms.weight, ms.h)
    back = MomentSpec.from_json(oracle.moment_spec_json(ms))
    assert moment(back.coords, back.weight, back.h) == pytest.approx(want)
    auto = dict(oracle.moment_spec_json(ms))
    auto["h"] = "auto"
    solved = MomentSpec.from_json(auto)
    assert solved.h is None
    assert moment(solved.coords, solved.weight, harmonic_for(solved.weight)) == pytest.approx(want)
