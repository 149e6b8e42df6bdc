import numpy as np
import pytest

import oracle
from wavelab.errors import InputError
from wavelab.rkhs_kernels import (
    FinitePointSet,
    KernelMatrix,
    contraction_check,
    preimage_orthogonality,
    product_kernel,
    refinement_residual,
)


@pytest.fixture
def disk_chain():
    return oracle.squaring_chain(0.9 * np.exp(0.7j), 12)


@pytest.fixture
def roots_covering():
    # eighth roots of unity under squaring: fourth roots carry 2-point fibers
    pts = np.exp(2j * np.pi * np.arange(8) / 8)
    return FinitePointSet(pts, (2 * np.arange(8)) % 8)


def test_point_set_structure(disk_chain):
    assert disk_chain.size == 12
    assert disk_chain.orbits_reach_fixed_point()
    counts = disk_chain.preimage_counts()
    assert counts[0] == 0  # the chain head has no preimage
    assert counts[-1] == 2  # the fixed point absorbs the chain and itself
    with pytest.raises(InputError):
        FinitePointSet(np.array([1.0]), np.array([3]))
    with pytest.raises(InputError):
        oracle.squaring_chain(1.5, 4)


def test_kernel_matrix_validation():
    with pytest.raises(InputError):
        KernelMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    k = KernelMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert k.min_eigenvalue() == pytest.approx(1.0)


def test_hermitian_check_is_at_the_kernel_scale():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    big = 1e7 * (a + a.conj().T)
    big[0, 1] += 1e-9  # rounding-sized at this scale, over an absolute 1e-13
    assert KernelMatrix(big).matrix.shape == (6, 6)
    with pytest.raises(InputError):
        KernelMatrix(1e7 * a)  # not Hermitian at any scale
    with pytest.raises(InputError):
        KernelMatrix(np.array([[0.0, 1e-9], [0.0, 0.0]]))  # small kernels keep tol absolute


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contraction_zero_weight_reduces_to_kernel(disk_chain):
    k = oracle.szego_kernel(disk_chain.points)
    assert contraction_check(k, np.zeros(12), disk_chain) >= -1e-10


def test_contraction_identity_weight(disk_chain):
    k = oracle.szego_kernel(disk_chain.points)
    assert contraction_check(k, np.ones(12), disk_chain) >= -1e-10


def test_contraction_fails_for_large_weight(disk_chain):
    k = oracle.szego_kernel(disk_chain.points)
    assert contraction_check(k, 10.0 * np.ones(12), disk_chain) < -1.0


def test_contraction_monotone_in_scale(disk_chain):
    k = oracle.szego_kernel(disk_chain.points)
    eigs = [
        contraction_check(k, s * np.ones(12), disk_chain)
        for s in np.linspace(0.0, 1.0, 6)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(eigs, eigs[1:]))


# ---------------------------------------------------------------------------
# refinement identity
# ---------------------------------------------------------------------------

def test_szego_refinement(disk_chain):
    k = oracle.szego_kernel(disk_chain.points)
    filters = [np.ones(12), disk_chain.points]
    assert refinement_residual(k, filters, disk_chain) < 1e-14


def test_constant_kernel_refinement(disk_chain):
    k = KernelMatrix(np.ones((12, 12), dtype=complex))
    filters = [np.ones(12), np.zeros(12)]
    assert refinement_residual(k, filters, disk_chain) == 0.0


def test_perturbed_filters_fail(disk_chain):
    k = oracle.szego_kernel(disk_chain.points)
    filters = [np.ones(12), 2.0 * disk_chain.points]
    assert refinement_residual(k, filters, disk_chain) > 0.1


# ---------------------------------------------------------------------------
# truncated product kernel
# ---------------------------------------------------------------------------

def test_product_kernel_trivial_cases(disk_chain):
    ones = [np.ones(12)]
    res = product_kernel(ones, disk_chain, 5)
    assert np.max(np.abs(res.kernel.matrix - 1.0)) == 0.0
    res0 = product_kernel([np.ones(12), disk_chain.points], disk_chain, 0)
    assert np.max(np.abs(res0.kernel.matrix - 1.0)) == 0.0
    assert res0.tail_bound == 0.0


def test_product_kernel_matches_szego(disk_chain):
    filters = [np.ones(12), disk_chain.points]
    res = product_kernel(filters, disk_chain, 30)
    assert res.orbits_reach_fixed_point
    target = oracle.szego_kernel(disk_chain.points).matrix
    assert np.max(np.abs(res.kernel.matrix - target)) < 1e-10
    # one more factor changes nothing beyond the reported tail
    more = product_kernel(filters, disk_chain, 31)
    assert np.max(np.abs(more.kernel.matrix - res.kernel.matrix)) <= max(
        res.tail_bound, 1e-15
    )


def test_product_kernel_reports_wandering_orbits():
    # a two-cycle never reaches a fixed point: flagged, not hidden
    pts = np.array([0.5, -0.5], dtype=complex)
    pset = FinitePointSet(pts, np.array([1, 0]))
    res = product_kernel([np.ones(2)], pset, 10)
    assert not res.orbits_reach_fixed_point


# ---------------------------------------------------------------------------
# fiber-averaged Gram conditions
# ---------------------------------------------------------------------------

def test_roots_data_on_covering(roots_covering):
    pts = roots_covering.points
    filters = [np.ones(8), pts]
    residual, skipped = preimage_orthogonality(filters, roots_covering)
    assert residual.max() < 1e-15
    assert skipped == (1, 3, 5, 7)
    assert oracle.discrete_cuntz_residual(filters, roots_covering.sigma) < 1e-15


def test_indicator_data_on_covering(roots_covering):
    m1 = np.zeros(8, dtype=complex)
    m2 = np.zeros(8, dtype=complex)
    m1[:4] = np.sqrt(2)  # fibers over index 2l are {l, l+4}
    m2[4:] = np.sqrt(2)
    residual, _ = preimage_orthogonality([m1, m2], roots_covering)
    assert residual.max() < 1e-15
    assert oracle.discrete_cuntz_residual([m1, m2], roots_covering.sigma) < 1e-15


def test_constant_filters_fail_off_diagonal(roots_covering):
    residual, _ = preimage_orthogonality(
        [np.ones(8), np.ones(8)], roots_covering
    )
    assert residual[0, 1] == pytest.approx(1.0)
    assert residual[0, 0] < 1e-15


def test_two_cycle_has_no_skips():
    pset = FinitePointSet(np.array([0.5, -0.5], dtype=complex), np.array([1, 0]))
    residual, skipped = preimage_orthogonality([np.ones(2)], pset)
    assert skipped == ()
    assert residual.max() < 1e-15  # one filter, one-point fibers: exact


def test_refinement_plus_fibers_give_cuntz(roots_covering):
    # the discrete composition pair satisfies the full relations whenever
    # the refinement and fiber identities both hold
    pts = roots_covering.points
    filters = [np.ones(8), pts]
    k = product_kernel(filters, roots_covering, 1).kernel
    assert oracle.discrete_cuntz_residual(filters, roots_covering.sigma) < 1e-15


def test_json_roundtrips(disk_chain):
    back = FinitePointSet.from_json(oracle.point_set_json(disk_chain))
    assert np.allclose(back.points, disk_chain.points)
    assert np.array_equal(back.sigma, disk_chain.sigma)
    k = oracle.szego_kernel(disk_chain.points)
    back_k = KernelMatrix.from_json(k.to_json())
    assert np.allclose(back_k.matrix, k.matrix)


# ---------------------------------------------------------------------------
# fibers as one index against the point-by-point loops
# ---------------------------------------------------------------------------

def fiber_sizes_map(rng) -> np.ndarray:
    """A self-map of 16 points with fibers of 5, 3, 2 and 1 points and
    points without preimages, relabelled at random; every orbit ends on one
    of its two fixed points."""
    sigma = np.array([0] * 5 + [1] * 3 + [2] * 2 + [3, 4, 12, 12, 13, 14])
    perm = rng.permutation(16)  # point i is called perm[i]
    out = np.empty(16, dtype=int)
    out[perm] = perm[sigma]
    return out


def point_sets(rng):
    yield FinitePointSet(np.arange(16.0), fiber_sizes_map(rng))
    yield FinitePointSet(np.arange(9.0), rng.integers(0, 9, size=9))  # cycles, most likely
    yield FinitePointSet(np.arange(2.0), np.array([1, 0]))  # a two-cycle
    yield oracle.squaring_chain(0.9 * np.exp(0.7j), 12)


@pytest.mark.parametrize("n_filters", [1, 2, 3, 4])
def test_fiber_index_matches_loops(n_filters):
    rng = np.random.default_rng(n_filters)
    eps = np.finfo(float).eps
    for pset in point_sets(rng):
        sigma = pset.sigma
        values = rng.normal(size=(n_filters, pset.size)) + 1j * rng.normal(size=(n_filters, pset.size))
        assert pset.orbits_reach_fixed_point() == oracle.orbits_reach_fixed_point(sigma)
        assert np.array_equal(pset.preimage_counts(), [len(f) for f in oracle.fibers(sigma)])
        kernel = oracle.szego_kernel(0.5 * np.exp(1j * np.arange(pset.size)))
        assert refinement_residual(kernel, values, pset) == oracle.refinement_residual(
            kernel.matrix, values, sigma
        )
        for terms in (0, 1, 4):
            got = product_kernel(values, pset, terms).kernel.matrix
            assert np.array_equal(got, oracle.product_kernel(values, sigma, terms))
        got, skipped = preimage_orthogonality(values, pset)
        want, want_skipped = oracle.preimage_orthogonality(values, sigma)
        assert skipped == want_skipped
        # fibers of 3 or more points are summed in another order
        scale = 1.0 + np.max(np.abs(values)) ** 2
        assert np.all(np.abs(got - want) <= 4 * eps * scale)
