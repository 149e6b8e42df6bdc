"""Concrete invariant measures: the logistic map and affine integer fractals.

The quadratic map 4x(1-x) preserves the arcsine density on [0, 1]; its
moments are the scaled central binomials C(2k, k) / 4**k, reproduced
exactly (for polynomial degree < 2n) by the n-point Chebyshev rule with
equal weights.

Affine fractals are attractors of tau_n(x) = A^{-1}(x + b_n) for an
expanding integer matrix A and digit vectors b_n.  A seeded chaos game
samples the invariant measure, whose exact mean follows from the affine
self-similarity identity.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InputError, below, branch_weights, check_cells
from . import jsonio

CHAOS_BURN_IN = 64
# rows per chaos-game block: a block of d coordinate rows, one branch
# image and the check values stay in the CPU caches
CHAOS_BLOCK = 2**13


def chebyshev_nodes(n: int) -> np.ndarray:
    """Nodes of the n-point equal-weight quadrature exact for the arcsine measure on [0, 1]."""
    if n < 1:
        raise InputError("node count must be >= 1")
    check_cells(n)
    j = np.arange(1, n + 1)
    return (1.0 - np.cos((2 * j - 1) * np.pi / (2 * n))) / 2.0


def arcsine_moment(k: int) -> float:
    """int x**k darcsine = C(2k, k) / 4**k."""
    if k < 0:
        raise InputError("moment order must be >= 0")
    return math.comb(2 * k, k) / 4.0**k


def logistic_residuals(max_degree: int = 8, nodes: int = 64) -> tuple[float, float]:
    """(invariance, quadrature) over k <= max_degree, on one set of nodes:
    max_k |int (4x(1-x))**k dmu - int x**k dmu| and max_k |int x**k dmu - C(2k, k) / 4**k|."""
    if max_degree < 0:
        raise InputError("degree must be >= 0")
    if nodes <= max_degree:
        raise InputError("need more quadrature nodes than the top degree")
    x = chebyshev_nodes(nodes)
    s = 4.0 * x * (1.0 - x)
    means = [np.mean(x**k) for k in range(max_degree + 1)]
    invariance = max(abs(np.mean(s**k) - m) for k, m in enumerate(means))
    return float(invariance), float(max(abs(m - arcsine_moment(k)) for k, m in enumerate(means)))


@dataclass(frozen=True)
class AffineIfs:
    """Expanding integer matrix A with digit vectors; branches A^{-1}(x + b)."""

    matrix: np.ndarray
    digits: np.ndarray
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        a = jsonio.frozen(self.matrix, dtype=int)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("matrix must be square")
        d = a.shape[0]
        b = jsonio.frozen(self.digits, dtype=int)
        if b.ndim != 2 or b.shape[1] != d or b.shape[0] < 1:
            raise InputError(f"digits must be row vectors of dimension {d}")
        eigs = np.linalg.eigvals(a.astype(float))
        if not below(-1.0 - 1e-12, -np.min(np.abs(eigs))):  # min |eig| > 1 + 1e-12
            raise InputError("matrix spectrum must lie strictly outside the unit circle")
        inv = np.linalg.inv(a.astype(float))
        cols = b.T.copy()
        for i in range(b.shape[0] - 1):
            # digit i against every later digit at once; NaN never coincides
            q = inv @ (cols[:, i:i + 1] - cols[:, i + 1:])
            same = np.flatnonzero(np.max(np.abs(q - np.round(q)), axis=0) < 1e-9)
            if same.size:
                raise InputError(f"digits {i} and {i + 1 + same[0]} coincide modulo the matrix lattice")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "digits", b)
        object.__setattr__(self, "weights", branch_weights(self.weights, b.shape[0]))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def branch_count(self) -> int:
        return self.digits.shape[0]

    def inverse_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix.astype(float))

    def mean_fixed_point(self) -> np.ndarray:
        """E[x] = (A - I)^{-1} (sum_n p_n b_n) from the self-similarity law."""
        b_bar = np.asarray(self.weights) @ self.digits.astype(float)
        return np.linalg.solve(
            self.matrix.astype(float) - np.eye(self.dimension), b_bar
        )

    @classmethod
    def from_json(cls, obj: dict) -> "AffineIfs":
        return cls(
            jsonio.decode_ints(obj["A"], "A"),
            jsonio.decode_ints(obj["digits"], "digits"),
            tuple(jsonio.decode_real(p, "weight") for p in obj.get("weights") or ()),
        )


def sierpinski_ifs() -> AffineIfs:
    return AffineIfs(2 * np.eye(2, dtype=int), np.array([[0, 0], [1, 0], [0, 1]]))


def chaos_game(
    ifs: AffineIfs, samples: int, seed: int, burn_in: int = CHAOS_BURN_IN
) -> Iterator[np.ndarray]:
    """The sample as consecutive blocks of rows; a seed is mandatory for reproducibility.

    Row i is x_i = A^-1 (x_{i-1} + b_i) from x_{-1} = 0, for a random
    branch b_i; the first burn_in rows are dropped.  The branches are drawn
    and scanned CHAOS_BLOCK rows at a time, so memory does not grow with
    the sample count.  Each block is scanned behind a halo of the 2^p - 1
    shift rows before it, for the p passes that a scan of the whole run
    makes: every kept row then goes through exactly the floating-point
    operations of that whole-run scan.  When the halo would reach the block
    size, one block covers the run.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    if seed is None:
        raise InputError("a seed is required; there is no entropy default")
    if seed < 0:
        raise InputError("seed must be >= 0")
    return _chaos_blocks(ifs, samples + burn_in, burn_in, np.random.default_rng(int(seed)))


def _chaos_blocks(
    ifs: AffineIfs, total: int, burn_in: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The kept rows of each block of a run of total rows (see chaos_game), as
    views of a coordinate-major block: the scan reads each coordinate contiguously."""
    inv = ifs.inverse_matrix()
    shifts = (ifs.digits.astype(float) @ inv.T).T.copy()
    powers = _scan_powers(inv, total)
    halo = 2 ** len(powers) - 1
    step = CHAOS_BLOCK if halo < CHAOS_BLOCK else total
    front = shifts[:, :0]  # the shift columns before the block: none, then the halo
    for start in range(0, total, step):
        # consecutive draws from one generator continue a single longer draw
        picks = rng.choice(ifs.branch_count, size=min(step, total - start), p=ifs.weights)
        check_cells(ifs.dimension * (front.shape[1] + picks.size))
        x = np.concatenate([front, shifts[:, picks]], axis=1)
        kept = front.shape[1] + max(burn_in - start, 0)
        if start + step < total:
            front = x[:, x.shape[1] - halo:].copy()
        _affine_scan(x, powers)
        if kept < x.shape[1]:
            yield x[:, kept:].T


def _scan_powers(m: np.ndarray, n: int) -> list[np.ndarray]:
    """M, M^2, M^4, ...: the powers that a prefix scan of n rows applies.

    Pass j adds M^j times the row j back, so every row then holds its last
    2j terms.  The passes stop when every row holds all its terms, or when
    the max-abs row sum of the actual power M^j (not a bound from the
    spectrum: a non-normal M can grow first) is at most eps/2, so that a
    further pass would move no value by more than half an ulp of the
    largest coordinate.
    """
    powers, j = [], 1
    while j < n and np.max(np.sum(np.abs(m), axis=1)) > np.finfo(float).eps / 2:
        powers.append(m)
        m, j = m @ m, 2 * j
    return powers


def _affine_scan(x: np.ndarray, powers: list[np.ndarray]) -> None:
    """Turn columns s_i of x into x_i = M x_{i-1} + s_i = sum_k M^k s_{i-k} in place."""
    for k, power in enumerate(powers):
        j = 2**k
        # einsum sums each coordinate's terms in index order from 0, as the
        # one-step loop does, and so keeps the --points-out goldens' bits,
        # which @ moves at d >= 2
        x[:, j:] += np.einsum("rc,cn->rn", power, x[:, :-j])


@dataclass(frozen=True)
class MomentCheck:
    name: str
    statistic: float
    expected: float
    z: float


@dataclass(frozen=True)
class InvarianceReport:
    checks: tuple[MomentCheck, ...]
    points: np.ndarray = field(repr=False, compare=False)  # the first rows of the sample

    @property
    def max_abs_z(self) -> float:
        """Largest |z|; NaN when any z is NaN (Python's max() would skip it)."""
        return float(np.max(np.abs([c.z for c in self.checks])))

    def to_json(self) -> dict:
        return {"checks": [asdict(c) for c in self.checks], "max_abs_z": self.max_abs_z}


def _block_stats(values: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, sum of squared deviations) of each row of values."""
    mean = np.mean(values, axis=1)
    return values.shape[1], mean, np.sum((values - mean[:, None]) ** 2, axis=1)


def _merge_stats(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """The (count, mean, M2) of two samples joined (Chan, Golub & LeVeque 1979)."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * (nb / n), m2_a + m2_b + delta**2 * (na * nb / n)


def _z_score(n: int, mean: float, m2: float, expected: float) -> tuple[float, float]:
    spread = math.sqrt(m2 / (n - 1))
    if spread == 0.0:
        return mean, 0.0 if mean == expected else float("inf")
    return mean, (mean - expected) / (spread / math.sqrt(n))


def strong_invariance_check(
    ifs: AffineIfs, samples: int, seed: int, moment_order: int = 2, keep: int = 0
) -> InvarianceReport:
    """Monte Carlo z-scores for the self-similarity law of the sampled measure.

    Each monomial g of order <= moment_order is tested two ways: the
    per-sample difference g(x) - sum_n p_n g(tau_n x) should have mean
    zero under the invariance law, and the first moments should match the
    analytic fixed point of the affine recursion.  The sample is scored one
    chaos-game block at a time, so memory does not grow with samples; the
    report holds the checks and the first `keep` rows of the sample, not the
    samples and seed its caller passed.
    """
    if samples < 10_000:
        raise InputError("use at least 1e4 samples for a meaningful z-score")
    if moment_order < 1 or moment_order > 2:
        raise InputError("moment order must be 1 or 2")
    if keep < 0:
        raise InputError("cannot keep a negative number of points")
    check_cells(min(keep, samples) * ifs.dimension)
    inv = ifs.inverse_matrix()
    p = np.asarray(ifs.weights)
    digits = ifs.digits.astype(float)
    monomials: list[tuple[int, ...]] = [(r,) for r in range(ifs.dimension)]
    if moment_order >= 2:
        monomials += [
            (r, s) for r in range(ifs.dimension) for s in range(r, ifs.dimension)
        ]
    points = np.empty((min(keep, samples), ifs.dimension))
    stats = (0, 0.0, 0.0)
    buffer = np.empty((ifs.dimension + len(monomials), 0))
    for block in chaos_game(ifs, samples, seed):
        done = stats[0]
        if done < points.shape[0]:
            points[done:done + block.shape[0]] = block[: points.shape[0] - done]
        pts = block.T  # coordinate-major
        if buffer.shape[1] < pts.shape[1]:
            check_cells(buffer.shape[0] * pts.shape[1])
            buffer = np.empty((buffer.shape[0], pts.shape[1]))
        # the mean rows, then each monomial's branch sum, started from 0 as
        # sum() starts, one branch image at a time
        values = buffer[:, : pts.shape[1]]
        values[: ifs.dimension], values[ifs.dimension:] = pts, 0.0
        sums = list(zip(values[ifs.dimension:], monomials))
        for n in range(ifs.branch_count):
            image = inv @ (pts + digits[n][:, None])
            for row, mono in sums:
                row += p[n] * math.prod(image[a] for a in mono)
        for row, mono in sums:
            np.subtract(math.prod(pts[a] for a in mono), row, out=row)
        stats = _merge_stats(stats, _block_stats(values))
    n, means, m2s = stats

    names = [f"mean[{r}]" for r in range(ifs.dimension)] + [
        "self_similarity[" + ",".join(str(a) for a in mono) + "]" for mono in monomials
    ]
    targets = [float(t) for t in ifs.mean_fixed_point()] + [0.0] * len(monomials)
    checks = []
    for name, mean, m2, target in zip(names, means, m2s, targets):
        stat, z = _z_score(n, float(mean), float(m2), target)
        checks.append(MomentCheck(name, stat, target, z))
    return InvarianceReport(tuple(checks), points)
