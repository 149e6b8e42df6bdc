import dataclasses

import numpy as np
import pytest

import oracle
from wavelab.circle_filters import LaurentPoly, cuntz_residuals
from wavelab.classic_mra import (
    _tail_bound,
    cascade,
    d4_taps,
    detail_taps,
    filterbank_roundtrip,
    fourier_product,
    haar_taps,
    shift_orthonormality,
    wavelet_detail,
)
from wavelab.errors import InputError, VerificationError


def taps_as_poly(taps):
    return LaurentPoly(0, taps)


# ---------------------------------------------------------------------------
# cascade
# ---------------------------------------------------------------------------

def test_haar_cascade_is_box_after_one_iteration():
    profile = cascade(haar_taps(), 2, 20, 512)
    assert profile.iterations == 1
    assert profile.sup_diffs == (0.0,)
    assert profile.converged and not profile.diverged
    assert np.allclose(profile.samples[:512], 1.0)
    assert profile.samples[512] == 0.0
    assert profile.integral == pytest.approx(1.0)


def test_d4_cascade_converges_to_exact_values():
    profile = cascade(d4_taps(), 2, 64, 256, tol=1e-9)
    assert profile.converged
    res = profile.resolution
    assert profile.samples[res].real == pytest.approx((1 + np.sqrt(3)) / 2, abs=1e-9)
    assert profile.samples[2 * res].real == pytest.approx((1 - np.sqrt(3)) / 2, abs=1e-9)
    assert abs(profile.integral - 1.0) < 1e-9


def test_d4_taps_are_an_orthogonal_pair():
    # the taps themselves: sum sqrt2, alternating sum 0, shift-2 orthogonality
    c = d4_taps()
    assert c.sum() == pytest.approx(np.sqrt(2))
    assert (c * (-1.0) ** np.arange(4)).sum() == pytest.approx(0.0, abs=1e-15)
    assert np.dot(c[:2], c[2:]) == pytest.approx(0.0, abs=1e-15)
    orthonormality, completeness = cuntz_residuals(
        [taps_as_poly(c), taps_as_poly(detail_taps(c))], 2
    )
    assert orthonormality < 1e-15
    assert completeness < 1e-15


def test_cascade_integral_conserved_each_iteration():
    taps = d4_taps()
    profile = cascade(taps, 2, 1, 256)
    for _ in range(4):
        nxt = cascade(taps, 2, profile.iterations + 1, 256)
        assert abs(nxt.integral - 1.0) < 1e-12
        profile = nxt


def test_cascade_rejects_bad_tap_sum():
    with pytest.raises(VerificationError, match="taps must sum"):
        cascade([1.0, 0.0], 2, 5, 64)


def test_cascade_flags_divergence():
    # valid sum but wildly non-contractive mask: sup-differences blow up
    taps = np.array([4.0, -6.0, 4.0, -0.5857864376269049])
    taps = taps / taps.sum() * np.sqrt(2)
    profile = cascade(taps, 2, 60, 128)
    assert profile.diverged and not profile.converged


def test_converged_needs_the_tail_bound_below_tol():
    # D4 contracts at r ~ 0.683, so the distance left is ~2.15 times the last
    # difference: 37 steps leave 6.9e-7 (bound 1.50e-6), 40 steps 2.2e-7 (4.8e-7)
    exact = oracle.dyadic_values(d4_taps(), 2, 1024)
    short = cascade(d4_taps(), 2, 37, 1024, tol=1e-6)
    assert short.last_sup_diff < 1e-6 and not short.converged
    assert np.max(np.abs(short.samples - exact)) > 1e-6
    full = cascade(d4_taps(), 2, 40, 1024, tol=1e-6)
    assert full.converged
    assert np.max(np.abs(full.samples - exact)) < 1e-6
    # Haar reaches an exact fixed point in one step: d = 0 keeps d < tol
    assert cascade(haar_taps(), 2, 20, 64, tol=1e-6).converged
    # one step has no ratio: d < tol alone decides
    one = cascade(d4_taps(), 2, 1, 64, tol=1.0)
    assert one.converged == (one.sup_diffs[0] < 1.0)


def test_tail_bound_cases():
    assert _tail_bound(()) != _tail_bound(())  # NaN: no step, no verdict
    assert _tail_bound((0.5,)) == 0.5
    assert _tail_bound((0.5, 0.0)) == 0.0
    assert _tail_bound((0.4, 0.1)) == pytest.approx(0.1 * 0.25 / 0.75)
    assert _tail_bound((0.1, 0.1)) == np.inf  # r >= 1 never converges
    assert _tail_bound((0.1, 0.2)) == np.inf
    assert not _tail_bound((0.1, np.nan)) < 1.0


def test_box_seed_floor_on_sup_diffs():
    # only c_0 reaches x = 0, so the box seed leaves (sqrt(2) c_0)^j there
    a = np.sqrt(2) * d4_taps()[0]
    profile = cascade(d4_taps(), 2, 20, 64)
    assert profile.samples[0].real == pytest.approx(a**20, rel=1e-12)
    for j, diff in enumerate(profile.sup_diffs, start=1):
        assert diff >= a ** (j - 1) * (1 - a) * (1 - 1e-12)


# ---------------------------------------------------------------------------
# exact dyadic values (oracle)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_oracle_box_filter_gives_box(n):
    res = n**5
    values = oracle.dyadic_values(np.ones(n) / np.sqrt(n), n, res)
    assert values.shape == (res + 1,)
    assert np.allclose(values[:res], 1.0, rtol=0, atol=1e-15)
    assert values[res] == 0.0


def test_oracle_d4_closed_forms():
    res = 1024
    values = oracle.dyadic_values(d4_taps(), 2, res)
    s3 = np.sqrt(3)
    expected = {
        0: 0.0,
        res // 2: (2 + s3) / 4,
        res: (1 + s3) / 2,
        3 * res // 2: 0.0,
        2 * res: (1 - s3) / 2,
        5 * res // 2: (2 - s3) / 4,
        3 * res: 0.0,
    }
    for index, value in expected.items():
        assert abs(values[index] - value) < 1e-14, index / res


# N = 3 mask of the hat function on [0, 2]
HAT3_TAPS = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / (3 * np.sqrt(3))


@pytest.mark.parametrize("n, taps", [(2, d4_taps()), (3, HAT3_TAPS)])
def test_oracle_satisfies_two_scale_equation(n, taps):
    res = n**6
    values = oracle.dyadic_values(taps, n, res)
    for m in range(values.shape[0]):
        rhs = 0.0
        for k, c in enumerate(taps):
            src = n * m - k * res  # grid index of N x - k
            if 0 <= src < values.shape[0]:
                rhs += np.sqrt(n) * c * values[src]
        assert abs(values[m] - rhs) < 1e-13, m / res
    assert abs(values.sum() / res - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# detail function
# ---------------------------------------------------------------------------

def test_haar_detail_is_step():
    profile = cascade(haar_taps(), 2, 5, 512)
    psi = wavelet_detail(profile, detail_taps(haar_taps()))
    assert np.allclose(psi[:256], 1.0)
    assert np.allclose(psi[256:512], -1.0)
    assert psi[512] == 0.0
    assert abs(psi.sum()) / 512 < 1e-14


def test_detail_with_scaling_taps_reproduces_phi():
    profile = cascade(haar_taps(), 2, 5, 256)
    psi = wavelet_detail(profile, haar_taps())
    assert np.allclose(psi[: profile.samples.shape[0]], profile.samples)


def test_d4_detail_mean_vanishes():
    profile = cascade(d4_taps(), 2, 40, 512, tol=1e-8)
    psi = wavelet_detail(profile, detail_taps(d4_taps()))
    assert abs(psi.sum() / 512) < 1e-8


# ---------------------------------------------------------------------------
# Fourier-domain product
# ---------------------------------------------------------------------------

def test_fourier_product_at_zero():
    m0 = taps_as_poly(haar_taps())
    value, tail = fourier_product(m0, 0.0, 25)
    assert value == pytest.approx(1.0)
    assert tail < 1e-15


def test_fourier_product_haar_closed_form():
    # infinite product equals (e^{it} - 1) / (it)
    m0 = taps_as_poly(haar_taps())
    value, _ = fourier_product(m0, 2 * np.pi, 40)
    assert abs(value) < 1e-9
    value, _ = fourier_product(m0, np.pi, 40)
    assert abs(value) == pytest.approx(2 / np.pi, abs=1e-9)
    for t in (0.3, 1.7, 4.0):
        value, _ = fourier_product(m0, t, 48)
        closed = (np.exp(1j * t) - 1.0) / (1j * t)
        assert value == pytest.approx(closed, abs=1e-9)


def test_fourier_product_precondition():
    with pytest.raises(VerificationError, match="must equal sqrt"):
        fourier_product(LaurentPoly(0, [0.5, 0.5]), 1.0, 10)


# ---------------------------------------------------------------------------
# filter-bank pipeline
# ---------------------------------------------------------------------------

def test_haar_pipeline_hand_example():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    h = haar_taps()
    result = filterbank_roundtrip(x, [h, detail_taps(h)], [h, detail_taps(h)], 2)
    assert np.allclose(result.subbands[0], np.array([3.0, 7.0]) / np.sqrt(2))
    assert np.allclose(result.subbands[1], np.array([-1.0, -1.0]) / np.sqrt(2))
    assert result.pr_error < 1e-14
    assert result.energy_in == pytest.approx(30.0)
    assert result.energy_subbands == pytest.approx(30.0)


def test_delta_signal_reconstructs():
    x = np.zeros(8, dtype=complex)
    x[3] = 1.0
    d = d4_taps()
    result = filterbank_roundtrip(x, [d, detail_taps(d)], [d, detail_taps(d)], 2)
    assert result.pr_error < 1e-14


def test_random_signal_roundtrips():
    rng = np.random.default_rng(7)
    x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    for taps in (haar_taps(), d4_taps()):
        result = filterbank_roundtrip(
            x, [taps, detail_taps(taps)], [taps, detail_taps(taps)], 2
        )
        assert result.pr_error < 1e-12
        assert result.energy_error < 1e-10


def test_pipeline_rejects_bad_length():
    with pytest.raises(InputError):
        filterbank_roundtrip(np.ones(5), [haar_taps()], [haar_taps()], 2)


def test_pr_fails_iff_coefficient_residuals_do():
    rng = np.random.default_rng(8)
    junk = [rng.normal(size=4), rng.normal(size=4)]
    x = rng.normal(size=64)
    result = filterbank_roundtrip(x, junk, junk, 2)
    orthonormality, _ = cuntz_residuals([taps_as_poly(t) for t in junk], 2)
    assert result.pr_error > 1e-3
    assert orthonormality > 1e-3


def test_offset_taps_still_reconstruct():
    # taps declared to start at degree -1: same bank up to delay
    rng = np.random.default_rng(9)
    x = rng.normal(size=32)
    h = haar_taps()
    result = filterbank_roundtrip(
        x,
        [h, detail_taps(h)],
        [h, detail_taps(h)],
        2,
        analysis_offsets=[-2, -2],
        synthesis_offsets=[-2, -2],
    )
    assert result.pr_error < 1e-13


# ---------------------------------------------------------------------------
# shift Gram and the periodized transform
# ---------------------------------------------------------------------------

def test_haar_gram_is_exactly_identity():
    profile = cascade(haar_taps(), 2, 5, 512)
    gram, deviation = shift_orthonormality(profile)
    assert deviation == 0.0
    assert np.allclose(gram, np.eye(gram.shape[0]))


def test_d4_gram_deviation_small():
    profile = cascade(d4_taps(), 2, 15, 1024, tol=1e-4)
    _, deviation = shift_orthonormality(profile)
    assert deviation < 1e-3


def test_d4_gram_deviation_is_quadrature_error():
    # criterion 7's profile (40 steps) and the exact dyadic values of phi give
    # the same deviation to 2.3e-9 at 256 and 3.7e-10 at 1024, four orders
    # below the deviation, which falls 13x with the grid: quadrature error
    deviations = []
    for res in (256, 1024):
        profile = cascade(d4_taps(), 2, 40, res)
        exact = dataclasses.replace(profile, samples=oracle.dyadic_values(d4_taps(), 2, res))
        _, from_cascade = shift_orthonormality(profile)
        _, from_exact = shift_orthonormality(exact)
        assert abs(from_cascade - from_exact) < 1e-8
        deviations.append(from_exact)
    assert deviations[1] < deviations[0] / 10


def test_stretched_box_fails_gram():
    # width-2 box: overlapping shifts, flagged by an O(1) deviation
    profile = cascade(haar_taps(), 2, 3, 128)
    stretched = type(profile)(
        taps=profile.taps,
        dilation=2,
        resolution=128,
        samples=np.concatenate([profile.samples[:-1], profile.samples]),
        iterations=1,
        sup_diffs=(0.0,),
        converged=True,
        diverged=False,
    )
    _, deviation = shift_orthonormality(stretched)
    assert deviation > 0.5


def test_dilation_shift_commutation_on_samples():
    # U T U^{-1} = T^2 for U f = f(./2)/sqrt2 and T f = f(. - 1), checked
    # pointwise on an explicit function
    f = lambda x: np.exp(-((x - 3.1) ** 2)) * np.cos(x)
    u_inv = lambda g: (lambda x: np.sqrt(2) * g(2 * x))
    u = lambda g: (lambda x: g(x / 2) / np.sqrt(2))
    t = lambda g: (lambda x: g(x - 1))
    x = np.linspace(-4, 8, 241)
    lhs = u(t(u_inv(f)))(x)
    rhs = t(t(f))(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-14
