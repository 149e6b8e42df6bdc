import math

import numpy as np
import pytest

import oracle
from wavelab.errors import InputError
from wavelab.examples_geometry import (
    AffineIfs,
    ChebyshevRule,
    InvarianceReport,
    MomentCheck,
    _affine_scan,
    arcsine_moment,
    chaos_game,
    logistic_invariance,
    sierpinski_ifs,
    strong_invariance_check,
)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def test_arcsine_moments_closed_form():
    assert arcsine_moment(0) == 1.0
    assert arcsine_moment(1) == 0.5
    assert arcsine_moment(2) == pytest.approx(3 / 8)
    assert arcsine_moment(4) == pytest.approx(35 / 128)


def test_chebyshev_rule_reproduces_moments():
    x = ChebyshevRule(64).nodes()
    gaps = [abs(np.mean(x**k) - arcsine_moment(k)) for k in range(64)]
    assert np.max(gaps) < 1e-14  # NaN fails


def test_rule_validation():
    with pytest.raises(InputError):
        ChebyshevRule(0)


# ---------------------------------------------------------------------------
# logistic map
# ---------------------------------------------------------------------------

def test_logistic_invariance_small_degrees():
    # k = 1 by hand: int 4x(1-x) dmu = 2 - 4 * 3/8 = 1/2 = int x dmu
    rule = ChebyshevRule(16)
    x = rule.nodes()
    lhs = np.mean(4 * x * (1 - x))
    assert lhs == pytest.approx(0.5, abs=1e-14)
    assert logistic_invariance(0, 4) < 1e-15
    assert logistic_invariance(4, 64) < 1e-13


def test_logistic_invariance_degree_eight():
    assert logistic_invariance(8, 64) < 1e-12


def test_logistic_invariance_needs_enough_nodes():
    with pytest.raises(InputError):
        logistic_invariance(8, 8)


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
    a = chaos_game(ifs, 100, seed=3)
    b = chaos_game(ifs, 100, seed=3)
    assert np.array_equal(a, b)
    c = chaos_game(ifs, 100, seed=4)
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
    got = chaos_game(ifs, samples, seed=samples + burn_in, burn_in=burn_in)
    want = oracle.chaos_game_loop(ifs, samples, seed=samples + burn_in, burn_in=burn_in)
    assert got.shape == want.shape == (samples, ifs.dimension)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * scale


def test_scan_depth_follows_the_contraction():
    # Sierpinski: A^-1 = I / 2, so the powers pass eps / 2 at 2^-64, after
    # six doubling passes, far below the log2(n) passes of a full scan
    n = 100_000 + 64
    passes = _affine_scan(np.zeros((n, 2)), sierpinski_ifs().inverse_matrix())
    assert passes < math.ceil(math.log2(n))
    assert passes == 6
    # without contraction the scan runs until every row has all its terms
    assert _affine_scan(np.zeros((100, 1)), np.ones((1, 1))) == 7


def test_single_branch_collapses_to_fixed_point():
    ifs = AffineIfs(np.array([[2]]), np.array([[0]]))
    pts = chaos_game(ifs, 500, seed=2)
    assert np.max(np.abs(pts)) < 1e-15
    assert np.allclose(ifs.mean_fixed_point(), [0.0])


def test_chaos_game_stays_on_attractor():
    ifs = sierpinski_ifs()
    pts = chaos_game(ifs, 2000, seed=5)
    assert np.all(pts >= -1e-9)
    assert np.all(pts.sum(axis=1) <= 1.0 + 1e-9)


def test_strong_invariance_sierpinski():
    report = strong_invariance_check(sierpinski_ifs(), 200_000, seed=7)
    assert report.passed(4.0)
    names = {c.name for c in report.checks}
    assert "mean[0]" in names and "self_similarity[0,1]" in names


def test_strong_invariance_uniform_binary():
    ifs = AffineIfs(np.array([[2]]), np.array([[0], [1]]))
    pts = chaos_game(ifs, 200_000, seed=11)[:, 0]
    n = pts.shape[0]
    z1 = (pts.mean() - 0.5) / (pts.std(ddof=1) / np.sqrt(n))
    sq = pts**2
    z2 = (sq.mean() - 1 / 3) / (sq.std(ddof=1) / np.sqrt(n))
    assert abs(z1) < 4 and abs(z2) < 4
    report = strong_invariance_check(ifs, 100_000, seed=12)
    assert report.passed(4.0)


def test_strong_invariance_report_keeps_its_sample():
    report = strong_invariance_check(sierpinski_ifs(), 10_000, seed=3)
    assert np.array_equal(report.points, chaos_game(sierpinski_ifs(), 10_000, seed=3))


def test_invariance_verdict_fails_closed_on_a_nan_z():
    # max(1.0, nan) is 1.0, so a max(|z|) < bound verdict passed here
    checks = (MomentCheck("mean[0]", 0.5, 0.5, 1.0), MomentCheck("mean[1]", 0.5, 0.5, math.nan))
    report = InvarianceReport(checks, 10_000, 1, np.empty((0, 2)))
    assert not report.passed(4.0)
    assert math.isnan(report.max_abs_z)  # the reported residual agrees with the verdict


def test_negative_seed_and_degree_are_input_errors():
    with pytest.raises(InputError):
        chaos_game(sierpinski_ifs(), 10, seed=-1)
    with pytest.raises(InputError):
        logistic_invariance(-1, 4)


def test_strong_invariance_rejects_small_samples():
    with pytest.raises(InputError):
        strong_invariance_check(sierpinski_ifs(), 100, seed=1)


def test_ifs_json_roundtrip():
    ifs = AffineIfs(
        np.array([[2, 1], [0, 2]]), np.array([[0, 0], [1, 0], [0, 1]]), (0.5, 0.25, 0.25)
    )
    back = AffineIfs.from_json(oracle.affine_ifs_json(ifs))
    assert np.array_equal(back.matrix, ifs.matrix)
    assert np.array_equal(back.digits, ifs.digits)
    assert back.weights == ifs.weights
