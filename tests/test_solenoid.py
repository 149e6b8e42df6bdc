import numpy as np
import pytest

import oracle
from conftest import random_cylinder
from wavelab.code_space import (
    CylinderFn,
    adjoint_sigma,
    compose_sigma,
    integrate,
    lift,
    multiply,
    shift_iterate,
    weighted_adjoint,
    weighted_compose,
)
from wavelab.errors import InputError, VerificationError
from wavelab.ifs_filters import build_indicator, build_roots_of_unity
from wavelab.solenoid import (
    MomentSpec,
    PathCylinderFn,
    dilation_residuals,
    harmonic_for,
    measure_change_residual,
    moment,
    pairing,
    path_sup_distance,
    probability_residual,
    shift_covariance_check,
    w0_isometry_residual,
    weighted_shift,
    weighted_shift_inverse,
)


@pytest.fixture
def indicator_weight(spec2):
    return build_indicator(spec2).filters[0].abs2()  # [2, 0]


# ---------------------------------------------------------------------------
# symbolic algebra
# ---------------------------------------------------------------------------

def test_coordinate_pull_and_shift(spec2, rng):
    g = random_cylinder(rng, spec2, 1)
    f = PathCylinderFn.coordinate(2, g)
    shifted = f.compose_shift()
    top, collapsed = shifted.collapse()
    assert top == 1
    # pi_2 o shift = pi_1
    assert path_sup_distance(shifted, PathCylinderFn.coordinate(1, g)) == 0.0
    zero_pull = PathCylinderFn.coordinate(0, g).compose_shift()
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
        roundtrip = weighted_shift_inverse(weighted_shift(path, m), m)
        assert path_sup_distance(roundtrip, path) < 1e-14
        other = weighted_shift(weighted_shift_inverse(path, m), m)
        assert path_sup_distance(other, path) < 1e-14


def test_weighted_shift_inverse_formula(spec2, rng):
    m = build_roots_of_unity(spec2).filters[1]
    f = random_cylinder(rng, spec2, 1)
    lhs = weighted_shift_inverse(PathCylinderFn.coordinate(0, f), m)
    recip = CylinderFn(spec2, 1, 1.0 / m.values)
    rhs = PathCylinderFn.coordinate(1, recip) * PathCylinderFn.coordinate(1, f)
    assert path_sup_distance(lhs, rhs) < 1e-15


def test_weighted_shift_inverse_needs_nonvanishing(spec2, indicator_weight, rng):
    m = build_indicator(spec2).filters[0]
    with pytest.raises(VerificationError, match="nonvanishing weight"):
        weighted_shift_inverse(PathCylinderFn.coordinate(0, CylinderFn.ones(spec2)), m)


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
    ms = MomentSpec(spec2, lift(ones, 1), ones, (f0,))
    assert moment(ms) == pytest.approx(integrate(f0))


def test_moment_all_ones_is_probability(spec2, spec3, indicator_weight):
    for spec in (spec2, spec3):
        for j in range(spec.N):
            w = build_indicator(spec).filters[j].abs2()
            assert probability_residual(3, w) < 1e-13


def test_moment_deterministic_branch_oracle(spec2, indicator_weight, rng):
    # weight [2, 0]: the transfer operator pins the prepended symbol to 1,
    # so the order-1 moment is int f0 (f1 o tau_1) dmu, checked by words
    f0 = random_cylinder(rng, spec2, 1)
    f1 = random_cylinder(rng, spec2, 1)
    h = harmonic_for(indicator_weight)
    val = moment(MomentSpec(spec2, indicator_weight, h, (f0, f1)))
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
    val = moment(MomentSpec(spec2, weight, h, tuple(fs)))
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
        assert measure_change_residual(probe, w) < 1e-13


def test_w0_isometry(spec2, spec3, rng):
    for spec in (spec2, spec3):
        w = build_indicator(spec).filters[0].abs2()
        f = random_cylinder(rng, spec, 2)
        g = random_cylinder(rng, spec, 1)
        assert w0_isometry_residual(f, g, w) < 1e-13


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
    assert dilation_residuals(m, f, g, [0])[0] < 1e-14


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
    assert dilation_residuals(m, f, g, [1])[0] < 1e-13


def test_dilation_negative_order_with_trivial_weight(spec2, rng):
    one = lift(CylinderFn.ones(spec2), 1)
    f = random_cylinder(rng, spec2, 2)
    g = random_cylinder(rng, spec2, 2)
    # m = 1: the adjoint power is the plain transfer average
    lhs = integrate(multiply(adjoint_sigma(f), g.conj()))
    assert abs(lhs - integrate(multiply(f, compose_sigma(g).conj()))) < 1e-13
    assert dilation_residuals(one, f, g, [-1])[0] < 1e-13


def test_dilation_orders_both_signs(spec2, spec3, rng):
    for spec in (spec2, spec3):
        bank = build_indicator(spec)
        m = bank.filters[rng.integers(spec.N)]
        for n in (-2, -1, 0, 1, 2):
            f = random_cylinder(rng, spec, 2)
            g = random_cylinder(rng, spec, 2)
            assert dilation_residuals(m, f, g, [n])[0] < 1e-12


def test_dilation_with_roots_weights(spec3, rng):
    m = build_roots_of_unity(spec3).filters[0]
    for n in (-2, 1):
        f = random_cylinder(rng, spec3, 1)
        g = random_cylinder(rng, spec3, 1)
        assert dilation_residuals(m, f, g, [n])[0] < 1e-12


def _dilation_multiplier(rng, spec, admissible: bool) -> CylinderFn:
    """A depth-2 multiplier m: admissible (h = 1), or with |m|^2 a positive
    weight divided by the Perron eigenvalue of R_W (non-constant h)."""
    phases = np.exp(2j * np.pi * rng.uniform(size=spec.N**2))
    raw = rng.uniform(0.2, 1.8, size=(spec.N, spec.N))  # raw[n, v] = |m(n v)|^2 before scaling
    p = spec.weight_array()
    if admissible:  # sum_n p_n |m(n v)|^2 = 1 at every tail v
        scale = p @ raw
    else:  # the Perron eigenvalue of R_W
        mat = oracle.transfer_matrix(CylinderFn(spec, 2, raw.ravel()))
        scale = np.max(np.linalg.eigvals(mat).real)
    return CylinderFn(spec, 2, np.sqrt(raw / scale).ravel() * phases)


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


def test_dilation_negative_orders_use_the_h_adjoint(spec_weighted, rng):
    m = _dilation_multiplier(rng, spec_weighted, admissible=False)
    f, g = random_cylinder(rng, spec_weighted, 1), random_cylinder(rng, spec_weighted, 1)
    h = harmonic_for(m.abs2())
    assert h.depth == 1 and abs(h.values[0] - h.values[1]) > 0.01
    assert max(dilation_residuals(m, f, g, [-1, -2, -3])) < 1e-15
    # the L2(mu) adjoint S*(conj(m) f) misses the L2(h dmu) pairing at n = -1
    lhs = integrate(multiply(weighted_adjoint(m, f), multiply(g.conj(), h)))
    pf, pg = PathCylinderFn.coordinate(0, f), PathCylinderFn.coordinate(0, g)
    rhs = pairing(pf, weighted_shift(pg, m), m.abs2(), h)
    assert abs(lhs - rhs) > 1e-3


# ---------------------------------------------------------------------------
# covariance axioms
# ---------------------------------------------------------------------------

def test_covariance_trivial_weight(spec2, rng):
    one = lift(CylinderFn.ones(spec2), 1)
    f = CylinderFn.ones(spec2)
    report = shift_covariance_check(one, f, random_cylinder(rng, spec2, 1))
    assert report.conjugation == 0.0
    assert report.scaling == 0.0


def test_covariance_random_inputs(spec2, spec3, rng):
    for spec in (spec2, spec3):
        for builder in (build_indicator, build_roots_of_unity):
            m = builder(spec).filters[0]
            f = random_cylinder(rng, spec, 1)
            g = random_cylinder(rng, spec, 1)
            report = shift_covariance_check(m, f, g)
            assert report.conjugation < 1e-13 and report.scaling < 1e-13


def test_covariance_via_explicit_inverse(spec2, rng):
    # for an invertible weight the literal conjugation identity holds too
    m = build_roots_of_unity(spec2).filters[0]
    f = random_cylinder(rng, spec2, 1)
    g = random_cylinder(rng, spec2, 1)
    probe = PathCylinderFn.coordinate(1, g)
    lhs = weighted_shift(
        PathCylinderFn.coordinate(0, f) * weighted_shift_inverse(probe, m), m
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
        cocycle = multiply(cocycle, shift_iterate(m, k))
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
    back = MomentSpec.from_json(oracle.moment_spec_json(ms))
    assert moment(back) == pytest.approx(moment(ms))
    auto = dict(oracle.moment_spec_json(ms))
    auto["h"] = "auto"
    assert moment(MomentSpec.from_json(auto)) == pytest.approx(moment(ms))
