import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import random_cylinder
from wavelab import code_space
from wavelab.code_space import (
    CylinderFn,
    IfsSpec,
    Word,
    adjoint_sigma,
    compose_sigma,
    conditional_expectation,
    harmonic_solve,
    integrate,
    lift,
    max_cells,
    multiply,
    ruelle_apply,
    sup_distance,
    weighted_adjoint,
    weighted_compose,
)
from wavelab.errors import InputError, VerificationError


# ---------------------------------------------------------------------------
# IfsSpec / Word
# ---------------------------------------------------------------------------

def test_spec_validation():
    assert IfsSpec(3).weights == (1 / 3, 1 / 3, 1 / 3)
    assert IfsSpec(2, (0.25, 0.75)).uniform is False
    with pytest.raises(InputError):
        IfsSpec(1)
    with pytest.raises(InputError):
        IfsSpec(2, (0.5, 0.6))
    with pytest.raises(InputError):
        IfsSpec(2, (1.5, -0.5))


@given(
    n=st.integers(min_value=2, max_value=5),
    length=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_word_index_bijection(n, length, data):
    index = data.draw(st.integers(min_value=0, max_value=n**length - 1))
    word = Word(oracle.words(n, length)[index])  # canonical order
    assert len(word) == length
    assert all(1 <= s <= n for s in word.symbols)
    assert word.index(n) == index


def test_word_examples():
    assert Word((1, 2, 1)).index(2) == 0b010
    assert Word(()).index(3) == 0
    with pytest.raises(InputError):
        Word((0, 1)).index(2)


# ---------------------------------------------------------------------------
# integrate / multiply / inner product
# ---------------------------------------------------------------------------

def test_integrate_examples(spec2, spec_weighted):
    assert integrate(CylinderFn(spec2, 1, [3, 1])) == pytest.approx(2)
    c = 5.0 - 2.0j
    assert integrate(CylinderFn.constant(spec2, c)) == pytest.approx(c)
    assert integrate(CylinderFn(spec_weighted, 1, [1, 0])) == pytest.approx(0.25)


def test_integrate_matches_oracle(rng, spec3, spec_weighted):
    for spec in (spec3, spec_weighted):
        for depth in range(4):
            f = random_cylinder(rng, spec, depth)
            expected = oracle.integrate(oracle.table_of(f), spec.weights)
            assert integrate(f) == pytest.approx(expected)


def test_multiply_and_inner_examples(spec2):
    f = CylinderFn(spec2, 1, [1, 0])
    g = CylinderFn(spec2, 1, [0, 1])
    assert multiply(f, g).sup_norm() == 0
    assert oracle.inner_product(f, g) == 0
    ones = CylinderFn(spec2, 1, [1, 1])
    assert oracle.inner_product(ones, ones) == pytest.approx(1)
    # lift to the deeper operand: <[2,0], all-ones depth 2> = 1
    f2 = CylinderFn(spec2, 1, [2, 0])
    g2 = CylinderFn(spec2, 2, [1, 1, 1, 1])
    assert oracle.inner_product(f2, g2) == pytest.approx(1)


def test_multiply_matches_oracle(rng, spec2):
    f = random_cylinder(rng, spec2, 1)
    g = random_cylinder(rng, spec2, 3)
    got = multiply(f, g)
    expected = oracle.cylinder_of(
        spec2, oracle.multiply(oracle.table_of(f), oracle.table_of(g), 2)
    )
    assert sup_distance(got, expected) < 1e-14
    assert got.depth == 3


def test_spec_mismatch_rejected(spec2, spec_weighted):
    with pytest.raises(InputError, match="different systems"):
        multiply(CylinderFn.ones(spec2), CylinderFn.ones(spec_weighted))


def test_lift_restrict_consistency(rng, spec2, spec_weighted):
    for spec in (spec2, spec_weighted):
        f = random_cylinder(rng, spec, 2)
        lifted = lift(f, 4)
        assert sup_distance(oracle.restrict(lifted, 2), f) < 1e-14


# ---------------------------------------------------------------------------
# S, S*, E
# ---------------------------------------------------------------------------

def test_compose_sigma_examples(spec2):
    one = CylinderFn.ones(spec2)
    s_one = compose_sigma(one)
    assert s_one.depth == 1
    assert np.allclose(s_one.values, 1)
    ind = CylinderFn.indicator(spec2, [1])
    assert np.allclose(compose_sigma(ind).values, [1, 0, 1, 0])
    f = CylinderFn(spec2, 1, [3, 1])
    assert oracle.l2_norm(compose_sigma(f)) == pytest.approx(np.sqrt(5))
    assert oracle.l2_norm(f) == pytest.approx(np.sqrt(5))


def test_compose_is_multiplicative(rng, spec3):
    f = random_cylinder(rng, spec3, 2)
    g = random_cylinder(rng, spec3, 2)
    lhs = compose_sigma(multiply(f, g))
    rhs = multiply(compose_sigma(f), compose_sigma(g))
    assert sup_distance(lhs, rhs) < 1e-14


def test_adjoint_examples(spec2):
    f = CylinderFn.indicator(spec2, [1, 1])
    assert np.allclose(adjoint_sigma(f).values, [0.5, 0])
    one = CylinderFn.ones(spec2)
    assert sup_distance(adjoint_sigma(compose_sigma(one)), one) == 0
    # duality on indicators
    lhs = oracle.inner_product(compose_sigma(CylinderFn.indicator(spec2, [1])), f)
    rhs = oracle.inner_product(CylinderFn.indicator(spec2, [1]), adjoint_sigma(f))
    assert lhs == pytest.approx(0.25)
    assert rhs == pytest.approx(0.25)


def test_adjoint_duality_random(rng, spec3, spec_weighted):
    for spec in (spec3, spec_weighted):
        f = random_cylinder(rng, spec, 3)
        g = random_cylinder(rng, spec, 2)
        lhs = oracle.inner_product(compose_sigma(g), f)
        rhs = oracle.inner_product(g, adjoint_sigma(f))
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_adjoint_matches_oracle(rng, spec3, spec_weighted):
    for spec in (spec3, spec_weighted):
        f = random_cylinder(rng, spec, 3)
        got = adjoint_sigma(f)
        expected = oracle.cylinder_of(
            spec, oracle.adjoint_shift(oracle.table_of(f), spec.N, spec.weights)
        )
        assert sup_distance(got, expected) < 1e-14


def test_sstar_s_identity_and_invariance(rng, spec2, spec3):
    for spec in (spec2, spec3):
        f = random_cylinder(rng, spec, 3)
        assert sup_distance(adjoint_sigma(compose_sigma(f)), f) < 1e-14
        assert integrate(compose_sigma(f)) == pytest.approx(integrate(f))


def test_conditional_expectation_examples(spec2):
    f = CylinderFn.indicator(spec2, [1, 1])
    e = conditional_expectation(f)
    assert np.allclose(e.values, [0.5, 0, 0.5, 0])
    one = CylinderFn.ones(spec2)
    assert sup_distance(conditional_expectation(lift(one, 1)), lift(one, 1)) == 0


def test_conditional_expectation_is_projection(rng, spec3):
    f = random_cylinder(rng, spec3, 3)
    e = conditional_expectation(f)
    assert sup_distance(conditional_expectation(e), e) < 1e-14
    g = random_cylinder(rng, spec3, 2)
    sg = compose_sigma(g)
    assert sup_distance(conditional_expectation(sg), sg) < 1e-14
    # self-adjointness
    h = random_cylinder(rng, spec3, 3)
    assert oracle.inner_product(conditional_expectation(f), h) == pytest.approx(
        oracle.inner_product(f, conditional_expectation(h)), abs=1e-13
    )


# ---------------------------------------------------------------------------
# pull-out family
# ---------------------------------------------------------------------------

def test_pull_out_identities(rng, spec2, spec3, spec_weighted):
    for spec in (spec2, spec3, spec_weighted):
        for depth in (1, 2, 3):
            f = random_cylinder(rng, spec, depth)
            g = random_cylinder(rng, spec, depth + 1)
            lhs = adjoint_sigma(multiply(compose_sigma(f), g))
            rhs = multiply(f, adjoint_sigma(g))
            assert sup_distance(lhs, rhs) < 1e-13

            lhs = conditional_expectation(multiply(g, compose_sigma(f)))
            rhs = multiply(compose_sigma(f), conditional_expectation(g))
            assert sup_distance(lhs, rhs) < 1e-13

            lhs = adjoint_sigma(multiply(g, conditional_expectation(compose_sigma(f))))
            rhs = multiply(adjoint_sigma(g), adjoint_sigma(compose_sigma(f)))
            assert sup_distance(lhs, rhs) < 1e-13


def test_adjoint_characterization(rng, spec2):
    """The adjoint is pinned down by measure preservation plus pull-out."""
    f = random_cylinder(rng, spec2, 3)
    g = random_cylinder(rng, spec2, 2)
    # genuine adjoint: passes both
    assert integrate(adjoint_sigma(f)) == pytest.approx(integrate(f), abs=1e-13)
    lhs = adjoint_sigma(multiply(f, compose_sigma(g)))
    assert sup_distance(lhs, multiply(g, adjoint_sigma(f))) < 1e-13
    # corrupted variant (single-branch restriction): pull-out holds but the
    # measure condition fails, so it cannot be the adjoint
    corrupted = oracle.precompose_branch(f, 1)
    lhs = oracle.precompose_branch(multiply(f, compose_sigma(g)), 1)
    assert sup_distance(lhs, multiply(g, corrupted)) < 1e-13
    probe = CylinderFn.indicator(spec2, [2])
    assert abs(integrate(oracle.precompose_branch(probe, 1)) - integrate(probe)) > 0.4


# ---------------------------------------------------------------------------
# weighted composition
# ---------------------------------------------------------------------------

def test_weighted_compose_examples(spec2):
    m = CylinderFn(spec2, 1, [np.sqrt(2), 0])
    f = CylinderFn(spec2, 1, [2.0, 3.0])
    out = weighted_compose(m, f)
    assert np.allclose(out.values, [np.sqrt(2) * 2, np.sqrt(2) * 3, 0, 0])
    assert oracle.l2_norm(out) == pytest.approx(oracle.l2_norm(f))
    # m = 1 reduces to plain composition
    one = CylinderFn.ones(spec2)
    assert sup_distance(weighted_compose(one, f), compose_sigma(f)) == 0
    # S_m* S_m f = f S*(|m|^2) = f here
    back = weighted_adjoint(m, weighted_compose(m, f))
    assert sup_distance(back, f) < 1e-14
    assert np.allclose(adjoint_sigma(m.abs2()).values, [1.0])


def test_weighted_isometry_criterion(rng, spec2):
    # E|m|^2 = 1 makes S_m an isometry; a scaled m breaks both
    m = CylinderFn(spec2, 1, [np.sqrt(2), 0])
    f = random_cylinder(rng, spec2, 2)
    assert oracle.l2_norm(weighted_compose(m, f)) == pytest.approx(oracle.l2_norm(f), abs=1e-12)
    m_bad = 2.0 * m
    assert abs(oracle.l2_norm(weighted_compose(m_bad, f)) - oracle.l2_norm(f)) > 0.1


# ---------------------------------------------------------------------------
# transfer operator
# ---------------------------------------------------------------------------

def test_ruelle_examples(spec2):
    w = CylinderFn(spec2, 1, [2.0, 0.0])
    f = CylinderFn(spec2, 1, [3.0, 7.0])
    out = ruelle_apply(w, f)
    assert out.depth == 0 and out.values[0] == pytest.approx(3.0)
    one = CylinderFn.ones(spec2)
    assert sup_distance(ruelle_apply(w, lift(one, 1)), one) < 1e-14
    f2 = CylinderFn(spec2, 2, [1.0, 2.0, 3.0, 4.0])
    assert sup_distance(ruelle_apply(lift(one, 1), f2), adjoint_sigma(f2)) == 0


def test_ruelle_rejects_bad_weight(spec2):
    with pytest.raises(InputError):
        ruelle_apply(CylinderFn(spec2, 1, [1j, 0]), CylinderFn.ones(spec2))
    with pytest.raises(InputError):
        ruelle_apply(CylinderFn(spec2, 1, [-1.0, 2.0]), CylinderFn.ones(spec2))


def test_harmonic_solve_filter_weight(spec2):
    w = CylinderFn(spec2, 1, [2.0, 0.0])
    h = harmonic_solve(w)
    assert h.depth == 0 and h.values[0] == pytest.approx(1.0)


def test_harmonic_solve_depth_two_weight(spec2, rng):
    # a genuinely nonconstant admissible weight: E W = 1 fails, but the
    # transfer operator still has a positive fixed density at depth 1
    w = CylinderFn(spec2, 2, [1.6, 0.4, 0.6, 1.4])
    h = harmonic_solve(w, tol=1e-12)
    assert h.depth == 1
    assert integrate(h) == pytest.approx(1.0, abs=1e-12)
    assert sup_distance(ruelle_apply(w, h), h) < 1e-11


def test_harmonic_solve_failure_reports_residual(spec2):
    w = CylinderFn(spec2, 1, [1.0, 0.0])  # S* W = 1/2: no fixed constant
    with pytest.raises(VerificationError, match="no transfer-harmonic density") as err:
        harmonic_solve(w)
    assert err.value.residual is not None and err.value.residual > 0.1


@pytest.mark.parametrize("n_branches", [2, 3])
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_harmonic_solve_matches_power_loop_and_eig(n_branches, uniform, depth):
    rng = np.random.default_rng(1000 * n_branches + 10 * depth + uniform)
    p = rng.uniform(0.5, 1.5, n_branches)
    spec = IfsSpec(n_branches) if uniform else IfsSpec(n_branches, tuple(p / p.sum()))
    raw = CylinderFn(spec, depth, rng.uniform(0.2, 1.8, spec.N**depth))
    W, h_eig = oracle.perron_normalised(raw)
    h = harmonic_solve(W, tol=1e-13)
    assert h.depth == depth - 1
    assert sup_distance(h, h_eig) < 1e-12
    assert sup_distance(h, oracle.power_harmonic(W, tol=1e-13, max_iter=2000)) < 1e-12
    assert sup_distance(ruelle_apply(W, h), h) < 1e-13


def test_harmonic_solve_on_slowly_mixing_weight(spec2):
    # R_W = [[0.97, 0.07], [0.03, 0.93]] on depth-1 functions: eigenvalues 1
    # and 0.9, h = (1.4, 0.6); 200 power steps leave a residual of 2.8e-11
    W = CylinderFn(spec2, 2, [1.94, 0.06, 0.14, 1.86])
    with pytest.raises(VerificationError, match="no fixed point"):
        oracle.power_harmonic(W, tol=1e-12)
    h = harmonic_solve(W, tol=1e-12)
    assert np.max(np.abs(h.values - [1.4, 0.6])) < 1e-14


def test_harmonic_solve_iterates_only_over_the_cell_cap(monkeypatch, rng):
    raw = CylinderFn(IfsSpec(2, (0.3, 0.7)), 4, rng.uniform(0.2, 1.8, 16))
    W, _ = oracle.perron_normalised(raw)  # an 8 x 8 matrix: 64 cells
    applies = []

    def counting(weight, f):
        applies.append(1)
        return ruelle_apply(weight, f)

    monkeypatch.setattr(code_space, "ruelle_apply", counting)
    direct = harmonic_solve(W, tol=1e-12)
    assert len(applies) == 1  # the certificate only
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "63")
    fallback = harmonic_solve(W, tol=1e-12)
    assert len(applies) > 3
    assert np.array_equal(fallback.values, oracle.power_harmonic(W, tol=1e-12).values)
    assert sup_distance(fallback, direct) < 1e-11


def test_harmonic_solve_iterates_above_the_dense_word_limit(monkeypatch, rng):
    # an LU of an N**D-square matrix costs O(N**(3D)); past DENSE_SOLVE_WORDS
    # words the power loop is cheaper, so it runs instead
    raw = CylinderFn(IfsSpec(2, (0.3, 0.7)), 4, rng.uniform(0.2, 1.8, 16))
    W, h_eig = oracle.perron_normalised(raw)
    monkeypatch.setattr(code_space, "DENSE_SOLVE_WORDS", 7)
    h = harmonic_solve(W, tol=1e-12)
    assert np.array_equal(h.values, oracle.power_harmonic(W, tol=1e-12).values)
    assert sup_distance(h, h_eig) < 1e-11


def test_power_solve_reports_a_vanishing_iterate(monkeypatch, spec2):
    # 8 words need 64 matrix cells, over a cap of 63: the power loop runs,
    # and R_W = 0 sends its first iterate to 0
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "63")
    with pytest.raises(VerificationError, match="transfer iterate vanished"):
        harmonic_solve(CylinderFn(spec2, 4, np.zeros(16)))


def test_power_solve_gives_up_after_its_step_limit(monkeypatch, spec2):
    # the weight of test_harmonic_solve_on_slowly_mixing_weight, |lambda_2/lambda_1| = 0.9
    monkeypatch.setattr(code_space, "DENSE_SOLVE_WORDS", 1)
    W = CylinderFn(spec2, 2, [1.94, 0.06, 0.14, 1.86])
    with pytest.raises(VerificationError, match=f"after {code_space.POWER_STEPS} iterations") as err:
        harmonic_solve(W, tol=1e-12)
    assert 1e-12 < err.value.residual < 1e-10


def test_harmonic_solve_rejects_a_signed_eigenvector(spec2):
    # R_W = [[1.2, 0.04], [0.5, 1.1]] has eigenvalues 1.3 and 1; the
    # eigenvalue-1 vector (-0.5, 2.5) solves the bordered system to 1e-16
    # but is no density
    with pytest.raises(VerificationError) as err:
        harmonic_solve(CylinderFn(spec2, 2, [2.4, 1.0, 0.08, 2.2]), tol=1e-12)
    assert "Perron eigenvalue 1.3," in str(err.value)


def test_harmonic_solve_failure_names_the_spectrum(spec2):
    W = CylinderFn(spec2, 2, [1.94, 0.06, 0.14, 1.86]) * 1.3
    with pytest.raises(VerificationError) as err:
        harmonic_solve(W)
    assert "Perron eigenvalue 1.3," in str(err.value) and "|lambda_2/lambda_1| 0.9" in str(err.value)
    assert err.value.residual > 0.1


def test_harmonic_solve_singular_system_is_a_convergence_error(spec2):
    # R_W = 0, so the bordered matrix is singular: numpy's LinAlgError is a
    # ValueError, which the CLI would report as a malformed file
    with pytest.raises(VerificationError, match="no transfer-harmonic density"):
        harmonic_solve(CylinderFn(spec2, 1, [0.0, 0.0]))


def density_sides(W, word):
    """Both sides of int R_W(1_A) dmu = int_A W dmu for the cylinder A of word."""
    ind = CylinderFn.indicator(W.spec, word)
    return integrate(ruelle_apply(W, ind)), integrate(multiply(W, ind))


def test_density_check_examples(spec2):
    m = CylinderFn(spec2, 1, [np.sqrt(2), 0])
    w = m.abs2()
    lhs, rhs = density_sides(w, [1])
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)
    lhs, rhs = density_sides(w, [2])
    assert lhs == pytest.approx(0.0) and rhs == pytest.approx(0.0)
    one = lift(CylinderFn.ones(spec2), 1)
    lhs, rhs = density_sides(one, [1, 2])
    assert lhs == pytest.approx(0.25) and rhs == pytest.approx(0.25)


def test_density_identity_random(rng, spec3):
    w = random_cylinder(rng, spec3, 2)
    w = w.abs2()  # any nonnegative weight
    for word in ([1], [2, 3], [3, 1]):
        lhs, rhs = density_sides(w, word)
        assert lhs == pytest.approx(rhs, abs=1e-14)


# ---------------------------------------------------------------------------
# capacity, serialization
# ---------------------------------------------------------------------------

def test_depth_cap(monkeypatch, spec2):
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "8")
    assert max_cells() == 8
    f = CylinderFn(spec2, 3, np.zeros(8))
    with pytest.raises(InputError, match="exceed the cap"):
        compose_sigma(f)
    monkeypatch.setenv("WAVELAB_MAX_CELLS", "not-a-number")
    with pytest.raises(InputError):
        max_cells()


def test_cylinder_json_roundtrip(rng, spec_weighted):
    f = random_cylinder(rng, spec_weighted, 2)
    back = CylinderFn.from_json(f.to_json())
    assert back.spec == f.spec
    assert sup_distance(back, f) == 0


def test_values_are_frozen(spec2):
    f = CylinderFn.ones(spec2)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_operation_results_are_frozen_and_inputs_copied(spec2):
    raw = np.array([1.0, 2.0])
    f = CylinderFn(spec2, 1, raw)
    raw[0] = 5.0
    assert f.values[0] == 1.0
    results = (f + f, f * 2.0, f / f, -f, f.conj(), f.abs2(), compose_sigma(f),
               adjoint_sigma(f), lift(f, 2))
    for g in results:
        with pytest.raises(ValueError):
            g.values[0] = 0.0


@given(
    st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    ),
    st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=2,
    ),
)
@settings(max_examples=60, deadline=None)
def test_pullout_property_hypothesis(fv, gv):
    spec = IfsSpec(2)
    f = CylinderFn(spec, 1, gv)
    g = CylinderFn(spec, 2, fv)
    lhs = adjoint_sigma(multiply(compose_sigma(f), g))
    rhs = multiply(f, adjoint_sigma(g))
    assert sup_distance(lhs, rhs) < 1e-9 * (1 + f.sup_norm() * g.sup_norm())
