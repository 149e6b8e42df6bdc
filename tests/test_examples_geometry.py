import math
import tracemalloc

import numpy as np
import pytest

import oracle
from wavelab import examples_geometry
from wavelab.errors import InputError, below
from wavelab.examples_geometry import (
    CHAOS_BLOCK,
    AffineIfs,
    InvarianceReport,
    MomentCheck,
    _scan_powers,
    arcsine_moment,
    chaos_game,
    chebyshev_nodes,
    logistic_residuals,
    sierpinski_ifs,
    strong_invariance_check,
)


def sample(ifs, samples, seed, **kwargs):
    """The chaos-game blocks joined into one array."""
    return np.concatenate(list(chaos_game(ifs, samples, seed, **kwargs)))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def test_arcsine_moments_closed_form():
    assert arcsine_moment(0) == 1.0
    assert arcsine_moment(1) == 0.5
    assert arcsine_moment(2) == pytest.approx(3 / 8)
    assert arcsine_moment(4) == pytest.approx(35 / 128)


def test_chebyshev_rule_reproduces_moments():
    x = chebyshev_nodes(64)
    gaps = [abs(np.mean(x**k) - arcsine_moment(k)) for k in range(64)]
    assert np.max(gaps) < 1e-14  # NaN fails


def test_rule_validation():
    with pytest.raises(InputError):
        chebyshev_nodes(0)


# ---------------------------------------------------------------------------
# logistic map
# ---------------------------------------------------------------------------

def test_logistic_invariance_small_degrees():
    # k = 1 by hand: int 4x(1-x) dmu = 2 - 4 * 3/8 = 1/2 = int x dmu
    x = chebyshev_nodes(16)
    lhs = np.mean(4 * x * (1 - x))
    assert lhs == pytest.approx(0.5, abs=1e-14)
    assert logistic_residuals(0, 4)[0] < 1e-15
    assert logistic_residuals(4, 64)[0] < 1e-13


def test_logistic_invariance_degree_eight():
    assert logistic_residuals(8, 64)[0] < 1e-12


def test_logistic_invariance_needs_enough_nodes():
    with pytest.raises(InputError):
        logistic_residuals(8, 8)[0]


# ---------------------------------------------------------------------------
# affine fractals
# ---------------------------------------------------------------------------

def test_affine_ifs_validation():
    with pytest.raises(InputError):
        AffineIfs(np.eye(2, dtype=int), np.array([[0, 0], [1, 0]]))  # not expanding
    with pytest.raises(InputError):
        AffineIfs(2 * np.eye(2, dtype=int), np.array([[0, 0], [2, 0]]))  # same coset
    with pytest.raises(InputError):
        AffineIfs(2 * np.eye(2, dtype=int), np.array([[0, 0], [1, 0]]), (0.5, 0.6))


def test_sierpinski_moments():
    ifs = sierpinski_ifs()
    assert np.allclose(ifs.mean_fixed_point(), [1 / 3, 1 / 3])


def test_chaos_game_reproducible_and_seed_required():
    ifs = sierpinski_ifs()
    a = sample(ifs, 100, seed=3)
    b = sample(ifs, 100, seed=3)
    assert np.array_equal(a, b)
    c = sample(ifs, 100, seed=4)
    assert not np.array_equal(a, c)
    with pytest.raises(InputError):
        chaos_game(ifs, 100, seed=None)


SCAN_IFS = {
    "sierpinski": sierpinski_ifs(),
    "binary": AffineIfs(np.array([[2]]), np.array([[0], [1]])),
    "twin dragon": AffineIfs(np.array([[1, -1], [1, 1]]), np.array([[0, 0], [1, 0]])),
    # A^-1 = [[1/2, -5/4], [0, 1/2]]: max-abs row sum 1.75, its first powers grow
    "non-normal": AffineIfs(np.array([[2, 5], [0, 2]]), np.array([[0, 0], [1, 0], [0, 1], [1, 1]])),
    "weighted 3-d": AffineIfs(
        np.array([[2, 1, 0], [0, 2, 0], [0, 0, 3]]),
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 2]]),
        (0.25, 0.125, 0.125, 0.25, 0.25),
    ),
    "single branch": AffineIfs(np.array([[3]]), np.array([[1]])),
}


@pytest.mark.parametrize("samples, burn_in", [(1, 64), (1, 0), (7, 0), (3000, 64), (20_000, 0)])
@pytest.mark.parametrize("name", sorted(SCAN_IFS))
def test_chaos_game_scan_matches_loop(name, samples, burn_in):
    ifs = SCAN_IFS[name]
    got = sample(ifs, samples, seed=samples + burn_in, burn_in=burn_in)
    want = oracle.chaos_game_loop(ifs, samples, seed=samples + burn_in, burn_in=burn_in)
    assert got.shape == want.shape == (samples, ifs.dimension)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * scale


def test_scan_depth_follows_the_contraction():
    # Sierpinski: A^-1 = I / 2, so the powers pass eps / 2 at 2^-64, after
    # six doubling passes, far below the log2(n) passes of a full scan
    n = 100_000 + 64
    passes = len(_scan_powers(sierpinski_ifs().inverse_matrix(), n))
    assert passes < math.ceil(math.log2(n))
    assert passes == 6
    # without contraction the scan runs until every row has all its terms
    assert len(_scan_powers(np.ones((1, 1)), 100)) == 7


# rows of the whole run, burn-in included: below, at and just past one
# block and several blocks
_BLOCK_EDGES = (CHAOS_BLOCK - 1, CHAOS_BLOCK, CHAOS_BLOCK + 1, 3 * CHAOS_BLOCK, 3 * CHAOS_BLOCK + 1)


@pytest.mark.parametrize("burn_in", [0, 64])
@pytest.mark.parametrize("name", sorted(SCAN_IFS))
def test_blocked_chaos_game_equals_the_whole_run_scan(name, burn_in):
    ifs = SCAN_IFS[name]
    for rows in _BLOCK_EDGES + (burn_in + 1,):
        samples = rows - burn_in
        got = sample(ifs, samples, seed=rows, burn_in=burn_in)
        want = oracle.chaos_game_scan(ifs, samples, seed=rows, burn_in=burn_in)
        assert got.shape == want.shape == (samples, ifs.dimension)
        assert np.array_equal(got, want), rows


@pytest.mark.parametrize("burn_in", [64, 150])
@pytest.mark.parametrize("block", [32, 64, 100])
@pytest.mark.parametrize("name", sorted(SCAN_IFS))
def test_small_blocks_and_the_one_block_fallback_equal_the_whole_run_scan(
    name, block, burn_in, monkeypatch
):
    # every system here makes 6 passes, a halo of 63 rows, but the twin
    # dragon makes 7, a halo of 127: 32 rows fall back to one block for
    # all of them, 64 and 100 rows for the twin dragon only, and the others
    # scan blocks just above their halo, with a burn-in over one or more
    monkeypatch.setattr(examples_geometry, "CHAOS_BLOCK", block)
    ifs = SCAN_IFS[name]
    halo = 2 ** len(_scan_powers(ifs.inverse_matrix(), 1000)) - 1
    blocks = list(chaos_game(ifs, 1000 - burn_in, seed=9, burn_in=burn_in))
    if halo >= block:
        assert len(blocks) == 1
    else:
        assert len(blocks) > 1 and max(b.shape[0] for b in blocks) <= block
    want = oracle.chaos_game_scan(ifs, 1000 - burn_in, seed=9, burn_in=burn_in)
    assert np.array_equal(np.concatenate(blocks), want)


def test_block_draws_continue_one_draw():
    # the chaos game draws its branch picks one block at a time
    weights = SCAN_IFS["weighted 3-d"].weights
    one = np.random.default_rng(21).choice(5, size=3 * CHAOS_BLOCK + 5, p=weights)
    rng = np.random.default_rng(21)
    parts = [rng.choice(5, size=n, p=weights) for n in (CHAOS_BLOCK, CHAOS_BLOCK, CHAOS_BLOCK, 5)]
    assert np.array_equal(np.concatenate(parts), one)


def test_single_branch_collapses_to_fixed_point():
    ifs = AffineIfs(np.array([[2]]), np.array([[0]]))
    pts = sample(ifs, 500, seed=2)
    assert np.max(np.abs(pts)) < 1e-15
    assert np.allclose(ifs.mean_fixed_point(), [0.0])


def test_chaos_game_stays_on_attractor():
    ifs = sierpinski_ifs()
    pts = sample(ifs, 2000, seed=5)
    assert np.all(pts >= -1e-9)
    assert np.all(pts.sum(axis=1) <= 1.0 + 1e-9)


def test_strong_invariance_sierpinski():
    report = strong_invariance_check(sierpinski_ifs(), 200_000, seed=7)
    assert below(4.0, report.max_abs_z)
    names = {c.name for c in report.checks}
    assert "mean[0]" in names and "self_similarity[0,1]" in names


def test_strong_invariance_uniform_binary():
    ifs = AffineIfs(np.array([[2]]), np.array([[0], [1]]))
    pts = sample(ifs, 200_000, seed=11)[:, 0]
    n = pts.shape[0]
    z1 = (pts.mean() - 0.5) / (pts.std(ddof=1) / np.sqrt(n))
    sq = pts**2
    z2 = (sq.mean() - 1 / 3) / (sq.std(ddof=1) / np.sqrt(n))
    assert abs(z1) < 4 and abs(z2) < 4
    report = strong_invariance_check(ifs, 100_000, seed=12)
    assert below(4.0, report.max_abs_z)


def test_strong_invariance_report_keeps_its_sample():
    report = strong_invariance_check(sierpinski_ifs(), 10_000, seed=3, keep=10_000)
    assert np.array_equal(report.points, oracle.chaos_game_scan(sierpinski_ifs(), 10_000, seed=3))


@pytest.mark.parametrize("keep", [0, 1, CHAOS_BLOCK - 64, CHAOS_BLOCK, 12_345, 20_000, 50_000])
def test_strong_invariance_report_keeps_only_the_rows_asked_for(keep):
    ifs = SCAN_IFS["twin dragon"]
    report = strong_invariance_check(ifs, 20_000, seed=6, keep=keep)
    want = oracle.chaos_game_scan(ifs, 20_000, seed=6)[:keep]
    assert report.points.shape == want.shape
    assert np.array_equal(report.points, want)


def test_strong_invariance_memory_does_not_grow_with_samples():
    def peak(samples: int) -> int:
        tracemalloc.start()
        try:
            strong_invariance_check(sierpinski_ifs(), samples, seed=7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(200_000)
    assert large <= 1.2 * small, (small, large)


def test_blocked_z_scores_match_whole_sample_statistics():
    # the merged (count, mean, M2) of the blocks against np.mean and np.std
    # of the whole sample, to rounding
    ifs = SCAN_IFS["weighted 3-d"]
    report = strong_invariance_check(ifs, 30_000, seed=4, keep=30_000)
    pts = report.points
    n = pts.shape[0]
    target = ifs.mean_fixed_point()
    for r in range(ifs.dimension):
        check = report.checks[r]
        assert check.name == f"mean[{r}]"
        z = (np.mean(pts[:, r]) - target[r]) / (np.std(pts[:, r], ddof=1) / np.sqrt(n))
        assert check.statistic == pytest.approx(np.mean(pts[:, r]), rel=1e-13)
        assert check.z == pytest.approx(z, rel=1e-9)


def test_invariance_verdict_fails_closed_on_a_nan_z():
    # max(1.0, nan) is 1.0, so a max(|z|) < bound verdict passed here
    checks = (MomentCheck("mean[0]", 0.5, 0.5, 1.0), MomentCheck("mean[1]", 0.5, 0.5, math.nan))
    report = InvarianceReport(checks, np.empty((0, 2)))
    assert not below(4.0, report.max_abs_z)  # examples fractal's verdict
    assert math.isnan(report.max_abs_z)  # the reported residual agrees with the verdict


def test_negative_seed_and_degree_are_input_errors():
    with pytest.raises(InputError):
        chaos_game(sierpinski_ifs(), 10, seed=-1)
    with pytest.raises(InputError):
        logistic_residuals(-1, 4)[0]


def test_strong_invariance_rejects_small_samples():
    with pytest.raises(InputError):
        strong_invariance_check(sierpinski_ifs(), 100, seed=1)


def test_strong_invariance_rejects_a_negative_keep():
    with pytest.raises(InputError):
        strong_invariance_check(sierpinski_ifs(), 10_000, seed=1, keep=-1)


def test_ifs_json_roundtrip():
    ifs = AffineIfs(
        np.array([[2, 1], [0, 2]]), np.array([[0, 0], [1, 0], [0, 1]]), (0.5, 0.25, 0.25)
    )
    back = AffineIfs.from_json(oracle.affine_ifs_json(ifs))
    assert np.array_equal(back.matrix, ifs.matrix)
    assert np.array_equal(back.digits, ifs.digits)
    assert back.weights == ifs.weights
