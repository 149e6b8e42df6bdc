import tracemalloc

import numpy as np
import pytest

import oracle
from wavelab import jsonio, rkhs_kernels
from wavelab.errors import InputError
from wavelab.rkhs_kernels import (
    HERMITIAN_TOL,
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
    assert np.linalg.eigvalsh(k.matrix).min() == pytest.approx(1.0)


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
    kernel, _ = product_kernel(ones, disk_chain, 5)
    assert np.max(np.abs(kernel.matrix - 1.0)) == 0.0
    kernel0, tail0 = product_kernel([np.ones(12), disk_chain.points], disk_chain, 0)
    assert np.max(np.abs(kernel0.matrix - 1.0)) == 0.0
    assert tail0 == 0.0


def test_product_kernel_matches_szego(disk_chain):
    filters = [np.ones(12), disk_chain.points]
    kernel, tail = product_kernel(filters, disk_chain, 30)
    assert disk_chain.orbits_reach_fixed_point()
    target = oracle.szego_kernel(disk_chain.points).matrix
    assert np.max(np.abs(kernel.matrix - target)) < 1e-10
    # one more factor changes nothing beyond the reported tail
    more, _ = product_kernel(filters, disk_chain, 31)
    assert np.max(np.abs(more.matrix - kernel.matrix)) <= max(tail, 1e-15)


def doubling_roots(size: int, seed: int):
    """The doubling map on the size-th roots of unity with a Haar pair mixed
    by a random unitary, as in the circle-grid benchmark."""
    z = np.exp(2j * np.pi * np.arange(size) / size)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 2)) + 0j)
    return FinitePointSet(z, (2 * np.arange(size)) % size), q.T @ np.array([(1 + z) / 2, (1 - z) / 2])


@pytest.mark.parametrize("size", [128, 256])
def test_product_kernel_past_the_elision_threshold(size):
    pset, values = doubling_roots(size, size)
    assert pset.orbits_reach_fixed_point()  # 30 terms run past every orbit's fixed point
    got = product_kernel(values, pset, 30)[0].matrix
    # From 256 KiB up numpy multiplies `out * <fresh temporary>` in place with
    # the operands swapped, and its FMA complex multiply then rounds the last
    # bit differently from the oracle's `out * gram` (a named matrix): the two
    # agree to rounding here, bit for bit only below 128 points.
    want = oracle.product_kernel(values, pset.sigma, 30)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


# below and at numpy's elision size of 256 KiB, a partial last row block, the benchmark's size
KERNEL_SIZES = [127, 128, 210, 256]


def test_a_kernel_size_ends_in_a_partial_row_block():
    blocks = rkhs_kernels._row_blocks(210)
    assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < blocks[0].stop - blocks[0].start


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_gathered_gram_is_bit_equal_to_one_gram_sum_per_term(size):
    # the former loop, written the same way, is the bit-for-bit judge
    pset, values = doubling_roots(size, 3)
    for terms in (1, 2, 8, 9, 30):
        got = product_kernel(values, pset, terms)[0].matrix
        assert same_bits(got, oracle.product_kernel_per_term(values, pset.sigma, terms)), terms


def general_map(size: int, seed: int):
    """A random self-map with three fixed points, a 2-cycle and a 3-cycle, every
    other point hanging in trees off them (so some orbits never settle), and
    three random filters with a few zero values."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(size)
    sigma = np.empty(size, dtype=int)
    sigma[order[:3]] = order[:3]
    sigma[order[3:5]] = order[[4, 3]]
    sigma[order[5:8]] = order[[6, 7, 5]]
    for j in range(8, size):
        sigma[order[j]] = order[rng.integers(0, j)]
    values = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
    values[:, rng.integers(0, size, 5)] = 0.0
    return FinitePointSet(np.exp(2j * np.pi * rng.uniform(size=size)), sigma), values / 2


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_gathers_on_a_general_map_are_bit_equal_to_the_whole_matrix(size):
    # the former whole-matrix and per-term forms judge product_kernel, its tail
    # bound, refinement_residual and contraction_check away from the doubling map
    pset, values = general_map(size, size)
    assert not pset.orbits_reach_fixed_point()
    assert np.any(pset.sigma == np.arange(size))
    sigma = pset.sigma
    for terms in (0, 1, 2, 9, 30):
        kernel, tail = product_kernel(values, pset, terms)
        want = oracle.product_kernel_per_term(values, sigma, terms)
        assert same_bits(kernel.matrix, want), terms
        if terms:
            before = oracle.product_kernel_per_term(values, sigma, terms - 1)
            assert same_bits(tail, np.max(np.abs(want - before))), terms
        else:
            assert tail == 0.0
        assert same_bits(refinement_residual(kernel, values, pset),
                         oracle.refinement_residual_whole(want, values, sigma)), terms
    for m in values:  # on the 30-term kernel
        assert same_bits(contraction_check(kernel, m, pset),
                         oracle.contraction_check_whole(kernel.matrix, m, sigma))


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_row_blocks_are_bit_equal_to_the_whole_matrix(size):
    pset, values = doubling_roots(size, 5)
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    hermitian, skew = a + a.conj().T, a - a.conj().T
    # K -> gram * K(sigma., sigma.) iterated for the plain Haar pair, gram first: at a
    # power of two the residual is then exactly 0 in that operand order, not in the other
    z = pset.points
    haar = np.array([(1 + z) / 2, (1 - z) / 2])
    gram, fixed = oracle.fresh_gram(haar, np.arange(size)), np.ones((size, size), dtype=complex)
    for _ in range(size.bit_length() + 1):
        pulled = fixed[np.ix_(pset.sigma, pset.sigma)]
        fixed = gram * pulled
    for k, filters in ((product_kernel(values, pset, 30)[0].matrix, values),
                       (fixed, haar), (hermitian, values)):
        want = oracle.refinement_residual_whole(k, filters, pset.sigma)
        assert same_bits(refinement_residual(KernelMatrix(k), filters, pset), want)
    verdicts = []
    for eps in np.geomspace(1e-15, 1e-12, 31):  # across the edge of the tolerance
        k = hermitian + eps * skew
        try:
            KernelMatrix(k)
            verdicts.append(True)
        except InputError:
            verdicts.append(False)
        assert verdicts[-1] == oracle.hermitian_verdict(k, HERMITIAN_TOL), eps
    assert True in verdicts and False in verdicts
    k = hermitian.copy()
    k[-1, 3] = np.nan  # in the last row block; a NaN passes the Hermitian test, as it did
    assert oracle.hermitian_verdict(k, HERMITIAN_TOL)
    assert np.isnan(refinement_residual(KernelMatrix(k), values, pset))
    assert np.isnan(oracle.refinement_residual_whole(k, values, pset.sigma))


@pytest.mark.parametrize("size", KERNEL_SIZES)
def test_contraction_blocks_are_bit_equal_to_the_whole_matrix(size):
    # the former whole-matrix check is the judge, on kernels with zero rows and
    # on filters with zeros (signed zeros) and a NaN value
    pset, values = doubling_roots(size, 7)
    rng = np.random.default_rng(size + 1)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    hermitian = a + a.conj().T
    zero_rows = hermitian.copy()
    zero_rows[[0, size // 2, -1]] = 0.0
    zero_rows[:, [0, size // 2, -1]] = 0.0
    with_zeros, with_nan = -values[1], values[0].copy()
    with_zeros[::5] = 0.0
    with_nan[size // 3] = np.nan
    product = product_kernel(values, pset, 30)[0].matrix
    for k, m in ((product, values[0]), (hermitian, values[1]), (zero_rows, values[0]),
                 (zero_rows, with_zeros), (hermitian, with_zeros)):
        want = oracle.contraction_check_whole(k, m, pset.sigma)
        assert same_bits(contraction_check(KernelMatrix(k), m, pset), want)
    # the eigensolver rejects a NaN matrix, as it did; the package reads NaN instead
    assert np.isnan(contraction_check(KernelMatrix(product), with_nan, pset))
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        oracle.contraction_check_whole(product, with_nan, pset.sigma)


def test_contraction_within_a_memory_budget():
    """At 256 points contraction_check holds its difference matrix and its
    Hermitian part besides small row blocks; the whole-matrix form peaked at
    about 4.1 kernel matrices."""
    pset, values = doubling_roots(256, 3)
    kernel = product_kernel(values, pset, 30)[0]
    tracemalloc.start()
    try:
        contraction_check(kernel, values[0], pset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 256**2 * 16, peak


def test_product_then_refinement_within_a_memory_budget():
    """At 256 points product_kernel holds its Gram matrix and the product,
    and refinement_residual the kernel, each besides small row blocks; the
    whole-matrix forms peaked at about 6.1 kernel matrices."""
    pset, values = doubling_roots(256, 3)
    tracemalloc.start()
    try:
        kernel, _ = product_kernel(values, pset, 30)
        refinement_residual(kernel, values, pset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 256**2 * 16, peak


def test_product_kernel_reports_wandering_orbits():
    # a two-cycle never reaches a fixed point: flagged, not hidden
    pts = np.array([0.5, -0.5], dtype=complex)
    pset = FinitePointSet(pts, np.array([1, 0]))
    product_kernel([np.ones(2)], pset, 10)
    assert not pset.orbits_reach_fixed_point()


# ---------------------------------------------------------------------------
# fiber-averaged Gram conditions
# ---------------------------------------------------------------------------

def test_roots_data_on_covering(roots_covering):
    pts = roots_covering.points
    filters = np.array([np.ones(8), pts])
    residual, skipped = preimage_orthogonality(filters, roots_covering)
    assert residual.max() < 1e-15
    assert skipped == (1, 3, 5, 7)
    assert oracle.discrete_cuntz_residual(filters, roots_covering.sigma) < 1e-15


def test_indicator_data_on_covering(roots_covering):
    m1 = np.zeros(8, dtype=complex)
    m2 = np.zeros(8, dtype=complex)
    m1[:4] = np.sqrt(2)  # fibers over index 2l are {l, l+4}
    m2[4:] = np.sqrt(2)
    residual, _ = preimage_orthogonality(np.array([m1, m2]), roots_covering)
    assert residual.max() < 1e-15
    assert oracle.discrete_cuntz_residual([m1, m2], roots_covering.sigma) < 1e-15


def test_constant_filters_fail_off_diagonal(roots_covering):
    residual, _ = preimage_orthogonality(np.ones((2, 8)), roots_covering)
    assert residual[0, 1] == pytest.approx(1.0)
    assert residual[0, 0] < 1e-15


def test_two_cycle_has_no_skips():
    pset = FinitePointSet(np.array([0.5, -0.5], dtype=complex), np.array([1, 0]))
    residual, skipped = preimage_orthogonality(np.ones((1, 2)), pset)
    assert skipped == ()
    assert residual.max() < 1e-15  # one filter, one-point fibers: exact


def test_refinement_plus_fibers_give_cuntz(roots_covering):
    # the discrete composition pair satisfies the full relations whenever
    # the refinement and fiber identities both hold
    pts = roots_covering.points
    filters = [np.ones(8), pts]
    k, _ = product_kernel(filters, roots_covering, 1)
    assert oracle.discrete_cuntz_residual(filters, roots_covering.sigma) < 1e-15


def test_json_roundtrips(disk_chain):
    back = FinitePointSet.from_json(oracle.point_set_json(disk_chain))
    assert np.allclose(back.points, disk_chain.points)
    assert np.array_equal(back.sigma, disk_chain.sigma)
    k = oracle.szego_kernel(disk_chain.points)
    back_k = KernelMatrix.from_json(k.to_json())
    assert np.allclose(back_k.matrix, k.matrix)


def test_from_json_adopts_only_the_arrays_it_decoded(tmp_path):
    """A caller's array is copied, and a real one made complex; the member
    that load_file streamed, and an array decoded from lists, are adopted."""
    for given in (np.eye(3), np.eye(3, dtype=complex)):
        k = KernelMatrix.from_json({"matrix": given})
        assert k.matrix.dtype == complex and not np.shares_memory(k.matrix, given)
        assert given.flags.writeable
    path = tmp_path / "k.json"
    jsonio.dump_file(str(path), KernelMatrix(np.eye(3)).to_json())
    tree = jsonio.load_file(str(path), matrix=KernelMatrix.MEMBER)
    member = tree[KernelMatrix.MEMBER]
    adopted = KernelMatrix.from_json(tree).matrix
    assert np.shares_memory(adopted, member) and not adopted.flags.writeable
    for k in (adopted, KernelMatrix.from_json(jsonio.load_file(str(path))).matrix):
        assert type(k) is np.ndarray and np.array_equal(k, np.eye(3))


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
            got = product_kernel(values, pset, terms)[0].matrix
            assert np.array_equal(got, oracle.product_kernel(values, sigma, terms))
        got, skipped = preimage_orthogonality(values, pset)
        want, want_skipped = oracle.preimage_orthogonality(values, sigma)
        assert skipped == want_skipped
        # fibers of 3 or more points are summed in another order
        scale = 1.0 + np.max(np.abs(values)) ** 2
        assert np.all(np.abs(got - want) <= 4 * eps * scale)
