"""Scaling functions on the line and the multirate filter-bank pipeline.

The cascade iteration phi <- sqrt(N) sum_k c_k phi(N x - k) is run on an
integer-resolution grid, where N x - k lands exactly on grid points, so
grid iterates coincide with the function-space iterates pointwise.  The
seed is the unit box.  The iterates live in two grid-length buffers,
phi and nxt: each step refines phi into nxt tap by tap from strided
slices, overwrites phi with the difference for the sup-norm, and swaps
the two, so a step allocates nothing.  Real taps refine in float64: on a
complex grid their imaginary parts stay exactly +0, so the float64
iterates, turned into complex128 once at the end, carry the same bits.
The grid counts against the cell cap (``errors.check_cells``).

The analysis/synthesis pipeline mirrors the circle operators in sequence
space with periodic boundary: analysis correlates with the conjugate taps
and decimates, synthesis zero-stuffs and convolves, both on the phase
lattice of the signal (sample N k + r at [k, r]).  For taps from a bank
that satisfies the averaged filter conditions the round trip reconstructs
the input exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError, VerificationError, band_count, below, check_cells

if TYPE_CHECKING:
    from .circle_filters import LaurentPoly

TAP_SUM_TOL = 1e-12
DIVERGENCE_RUN = 5


@dataclass(frozen=True)
class ScalingProfile:
    """Sampled fixed point of the two-scale equation.

    ``samples[i]`` approximates phi(i / resolution) on the support
    [0, (len(taps) - 1) / (N - 1)] of the refined taps.
    """

    dilation: int
    resolution: int
    samples: np.ndarray
    iterations: int
    sup_diffs: tuple[float, ...]
    converged: bool
    diverged: bool

    def grid(self) -> np.ndarray:
        return np.arange(self.samples.shape[0]) / self.resolution

    @property
    def integral(self) -> complex:
        return complex(self.samples.sum() / self.resolution)

    @property
    def last_sup_diff(self) -> float:
        return self.sup_diffs[-1] if self.sup_diffs else float("nan")


def _refine(
    values: np.ndarray, taps: np.ndarray, n: int, res: int, out: np.ndarray, tmp: np.ndarray
) -> None:
    """Fill out[i] with sqrt(N) sum_k c_k values[N i - k res], one tap at a time.

    Each tap scales a strided slice of values into the front of tmp (as
    long as out) and adds it into out, so a step allocates nothing.
    """
    out[:] = 0
    scale = np.sqrt(n)
    m = values.shape[0]
    for k, c in enumerate(taps):
        if c == 0:
            continue
        shift = k * res
        i_min = -(-shift // n)  # ceil(shift / n)
        i_max = min(out.shape[0] - 1, (m - 1 + shift) // n)
        if i_min > i_max:
            continue
        count, start = i_max - i_min + 1, i_min * n - shift
        step = values[start : start + (count - 1) * n + 1 : n]
        # scalar first: with FMA, a complex product's rounding depends on operand order
        np.multiply(scale * c, step, out=tmp[:count])
        out[i_min : i_max + 1] += tmp[:count]


def _tail_bound(d: Sequence[float]) -> float:
    """d_j r / (1 - r), r = d_j / d_(j-1): the distance left if the ratio holds;
    d_j after one step or at an exact fixed point, inf for r >= 1, NaN for no step."""
    if len(d) < 2 or d[-1] == 0.0:
        return d[-1] if d else float("nan")
    r = d[-1] / d[-2]
    return d[-1] * r / (1.0 - r) if r < 1.0 else float("inf")


def cascade(
    taps: Sequence[complex],
    dilation: int = 2,
    iterations: int = 20,
    resolution: int = 1024,
    tol: float = 1e-6,
) -> ScalingProfile:
    """Iterate the two-scale refinement from the unit box.

    Preconditions: at least two taps summing to sqrt(N) within 1e-12
    (otherwise no integrable fixed point with unit mass exists).  The
    iteration stops early at an exact fixed point, and flags divergence
    when the sup-difference grows for DIVERGENCE_RUN consecutive steps or
    is not finite.
    It has converged when the geometric tail bound d_j r / (1 - r), with
    r = d_j / d_(j-1) the last ratio of sup-differences, is below tol.

    The box seed sets a floor on the rate: only c_0 reaches x = 0, so
    samples[0] after j steps is (sqrt(N) c_0)^j and
    sup_diffs[j - 1] >= |sqrt(N) c_0|^(j - 1) |1 - sqrt(N) c_0|.  For D4,
    sqrt(2) c_0 = (1 + sqrt 3) / 4 ~ 2^-0.55, so the default 20 iterations
    leave a sup-difference of about 4.5e-4, and tol = 1e-6 needs 39 steps
    (tail bound 7.0e-7; 1.5e-6 at 37 steps, where the true error is 1.5e-6).
    """
    taps = np.asarray(taps, dtype=complex)
    n = band_count(int(dilation))
    if taps.ndim != 1 or taps.shape[0] < 2:
        raise InputError("need at least two taps")
    if resolution < 1:
        raise InputError("resolution must be a positive integer")
    tap_sum = complex(taps.sum())
    if not below(TAP_SUM_TOL, abs(tap_sum - np.sqrt(n))):
        raise VerificationError(
            f"taps must sum to sqrt({n}) = {np.sqrt(n):.15g}, got {tap_sum:.15g}"
        )
    out_len = (taps.shape[0] - 1) * resolution // (n - 1) + 1
    check_cells(out_len)
    work = taps if taps.imag.any() else taps.real
    phi = np.zeros(out_len, dtype=work.dtype)
    phi[: min(resolution, out_len)] = 1.0  # unit box on [0, 1)
    nxt, tmp, gap = np.empty_like(phi), np.empty_like(phi), np.empty(out_len)

    sup_diffs: list[float] = []
    growing = 0
    diverged = False
    for _ in range(iterations):
        _refine(phi, work, n, resolution, nxt, tmp)
        diff = float(np.max(np.abs(np.subtract(nxt, phi, out=phi), out=gap)))
        sup_diffs.append(diff)
        phi, nxt = nxt, phi
        if diff == 0.0:
            break
        growing = growing + 1 if len(sup_diffs) > 1 and diff > sup_diffs[-2] else 0
        diverged = growing >= DIVERGENCE_RUN or not math.isfinite(diff)
        if diverged:
            break
    converged = not diverged and below(tol, _tail_bound(sup_diffs))
    phi = phi.astype(complex, copy=False)
    phi.setflags(write=False)
    return ScalingProfile(
        dilation=n,
        resolution=resolution,
        samples=phi,
        iterations=len(sup_diffs),
        sup_diffs=tuple(sup_diffs),
        converged=converged,
        diverged=diverged,
    )


def wavelet_detail(profile: ScalingProfile, detail_taps: Sequence[complex]) -> np.ndarray:
    """Samples of psi(x) = sqrt(N) sum_k d_k phi(N x - k) on the same grid."""
    d = np.asarray(detail_taps, dtype=complex)
    if d.ndim != 1 or d.shape[0] < 1:
        raise InputError("need at least one detail tap")
    n = profile.dilation
    res = profile.resolution
    out_len = ((d.shape[0] - 1) * res + profile.samples.shape[0] - 1) // n + 1
    check_cells(out_len)
    phi = profile.samples
    if not (d.imag.any() or phi.imag.any()):  # as in cascade: float64 gives the same bits
        phi, d = phi.real, d.real
    psi = np.empty(out_len, dtype=d.dtype)
    _refine(phi, d, n, res, psi, np.empty_like(psi))
    return psi.astype(complex, copy=False)


def fourier_product(m0: LaurentPoly, t: float, terms: int) -> tuple[complex, float]:
    """Truncated product prod_{k=1..K} m0(e^{i t / 2^k}) / sqrt(2).

    Requires m0(1) = sqrt(2) (each factor then tends to 1), and reports the
    K-term tail as |value_K - value_{K-1}|.
    """
    if terms < 0:
        raise InputError("term count must be >= 0")
    if not below(1e-12, abs(m0(1.0) - np.sqrt(2.0))):
        raise VerificationError("m0(1) must equal sqrt(2) for the product to converge")
    value = 1.0 + 0.0j
    prev = value
    for k in range(1, terms + 1):
        prev = value
        value = value * m0(np.exp(1j * t / 2.0**k)) / np.sqrt(2.0)
    return complex(value), float(abs(value - prev))


@dataclass(frozen=True)
class FilterbankResult:
    subbands: tuple[np.ndarray, ...]
    reconstruction: np.ndarray
    pr_error: float
    energy_in: float
    energy_subbands: float

    @property
    def energy_error(self) -> float:
        return abs(self.energy_in - self.energy_subbands)


def filterbank_roundtrip(
    signal: Sequence[complex],
    analysis_taps: Sequence[Sequence[complex]],
    synthesis_taps: Sequence[Sequence[complex]],
    n: int,
    analysis_offsets: Sequence[int] | None = None,
    synthesis_offsets: Sequence[int] | None = None,
) -> FilterbankResult:
    """Filter, decimate by N, zero-stuff, dual-filter, and sum (periodic).

    Band b computes sub[k] = sum_u conj(a_b[u]) x[N k + u + off], the
    sequence form of the adjoint weighted composition; synthesis applies
    the weighted composition itself.  Offsets let taps start at a nonzero
    degree.  Both run on the phase lattice, sample N k + r at [k, r]: a tap
    at u + off = N q + r (mod L) reads or writes column r rolled by q, so
    the zero-stuffed samples are never made.  They only added c * 0 = +-0
    to a reconstruction that is never -0, or NaN when c is not finite.
    """
    x = np.asarray(signal, dtype=complex)
    if x.ndim != 1 or x.shape[0] < 1:
        raise InputError("signal must be a nonempty 1-d sequence")
    length = x.shape[0]
    check_cells(length)  # each band's and the reconstruction's cells
    if length % band_count(n) != 0:
        raise InputError(f"signal length {length} not divisible by {n}")
    a_banks = [np.asarray(t, dtype=complex) for t in analysis_taps]
    s_banks = [np.asarray(t, dtype=complex) for t in synthesis_taps]
    if len(a_banks) != len(s_banks):
        raise InputError("analysis and synthesis bank counts differ")
    a_off = list(analysis_offsets or [0] * len(a_banks))
    s_off = list(synthesis_offsets or [0] * len(s_banks))
    if len(a_off) != len(a_banks) or len(s_off) != len(s_banks):
        raise InputError("offset count differs from bank count")

    rows = length // n
    recon = np.zeros(length, dtype=complex)
    lattice, out = x.reshape(rows, n), recon.reshape(rows, n)
    subbands = []
    for a, s, oa, os in zip(a_banks, s_banks, a_off, s_off):
        sub = np.zeros(rows, dtype=complex)
        for u, c in enumerate(a):
            q, r = divmod((u + oa) % length, n)
            sub += np.conj(c) * np.roll(lattice[:, r], -q)
        subbands.append(sub)
        for v, c in enumerate(s):
            q, r = divmod((v + os) % length, n)
            out[:, r] += c * np.roll(sub, q)
            if not np.isfinite(c):  # c * 0 is NaN: the zero-stuffed samples take it
                out[:, np.arange(n) != r] += np.multiply(c, 0j)
    pr_error = float(np.max(np.abs(recon - x)))
    energy_in = float(np.sum(np.abs(x) ** 2))
    energy_sub = float(sum(np.sum(np.abs(s) ** 2) for s in subbands))
    return FilterbankResult(tuple(subbands), recon, pr_error, energy_in, energy_sub)


def shift_autocorrelation(profile: ScalingProfile) -> np.ndarray:
    """Inner products g_m = <phi, phi(. - m)> for m = 0..K by grid quadrature."""
    phi = profile.samples
    res = profile.resolution
    k_max = (phi.shape[0] - 1) // res
    out = np.zeros(k_max + 1, dtype=complex)
    for m in range(k_max + 1):
        shift = m * res
        out[m] = np.vdot(phi[: phi.shape[0] - shift], phi[shift:]) / res
    return out


def shift_orthonormality(profile: ScalingProfile) -> tuple[np.ndarray, float]:
    """Gram matrix of the integer shifts of phi and its deviation from I."""
    g = shift_autocorrelation(profile)
    k = g.shape[0] - 1
    size = 2 * k + 1
    # g at the lags a - b = -2k..2k; shifts further apart than the support do not overlap
    zeros = np.zeros(k, dtype=complex)
    by_lag = np.concatenate((zeros, np.conj(g[:0:-1]), g, zeros))
    gram = by_lag[np.subtract.outer(np.arange(size), np.arange(size)) + 2 * k]
    deviation = float(np.max(np.abs(gram - np.eye(size))))
    return gram, deviation


def haar_taps() -> np.ndarray:
    return np.array([1.0, 1.0]) / np.sqrt(2.0)


def d4_taps() -> np.ndarray:
    """Four-tap orthogonal filter with two vanishing moments (sum sqrt 2)."""
    s3 = np.sqrt(3.0)
    return np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * np.sqrt(2.0))


def detail_taps(taps: Sequence[complex]) -> np.ndarray:
    """Alternating-flip high-pass partner d_k = (-1)^k conj(c_{L-1-k})."""
    c = np.asarray(taps, dtype=complex)
    signs = (-1.0) ** np.arange(c.shape[0])
    return signs * np.conj(c[::-1])
