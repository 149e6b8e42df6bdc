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
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from . import jsonio

CHAOS_BURN_IN = 64


@dataclass(frozen=True)
class ChebyshevRule:
    """Equal-weight quadrature exact for the arcsine measure on [0, 1]."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("node count must be >= 1")

    def nodes(self) -> np.ndarray:
        j = np.arange(1, self.n + 1)
        return (1.0 - np.cos((2 * j - 1) * np.pi / (2 * self.n))) / 2.0


def arcsine_moment(k: int) -> float:
    """int x**k darcsine = C(2k, k) / 4**k."""
    if k < 0:
        raise InputError("moment order must be >= 0")
    return math.comb(2 * k, k) / 4.0**k


def logistic_invariance(max_degree: int = 8, nodes: int = 64) -> float:
    """max_k |int (4x(1-x))**k dmu - int x**k dmu| over k <= max_degree."""
    if max_degree < 0:
        raise InputError("degree must be >= 0")
    if nodes <= max_degree:
        raise InputError("need more quadrature nodes than the top degree")
    rule = ChebyshevRule(nodes)
    x = rule.nodes()
    s = 4.0 * x * (1.0 - x)
    return float(max(abs(np.mean(s**k) - np.mean(x**k)) for k in range(max_degree + 1)))


@dataclass(frozen=True)
class AffineIfs:
    """Expanding integer matrix A with digit vectors; branches A^{-1}(x + b)."""

    matrix: np.ndarray
    digits: np.ndarray
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        a = np.array(self.matrix, dtype=int)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("matrix must be square")
        d = a.shape[0]
        b = np.array(self.digits, dtype=int)
        if b.ndim != 2 or b.shape[1] != d or b.shape[0] < 1:
            raise InputError(f"digits must be row vectors of dimension {d}")
        eigs = np.linalg.eigvals(a.astype(float))
        if np.min(np.abs(eigs)) <= 1.0 + 1e-12:
            raise InputError("matrix spectrum must lie strictly outside the unit circle")
        inv = np.linalg.inv(a.astype(float))
        for i in range(b.shape[0]):
            for j in range(i + 1, b.shape[0]):
                q = inv @ (b[i] - b[j])
                if np.max(np.abs(q - np.round(q))) < 1e-9:
                    raise InputError(f"digits {i} and {j} coincide modulo the matrix lattice")
        w = self.weights or (1.0 / b.shape[0],) * b.shape[0]
        w = tuple(float(p) for p in w)
        if len(w) != b.shape[0]:
            raise InputError("one weight per digit required")
        if not (all(p > 0 for p in w) and abs(sum(w) - 1.0) <= 1e-12):  # NaN fails
            raise InputError("weights must be positive and sum to 1")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "digits", b)
        object.__setattr__(self, "weights", w)

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
) -> np.ndarray:
    """Iterate random branches; a seed is mandatory for reproducibility."""
    if samples < 1:
        raise InputError("need at least one sample")
    if seed is None:
        raise InputError("a seed is required; there is no entropy default")
    if seed < 0:
        raise InputError("seed must be >= 0")
    rng = np.random.default_rng(int(seed))
    inv = ifs.inverse_matrix()
    shifts = ifs.digits.astype(float) @ inv.T
    x = shifts[rng.choice(ifs.branch_count, size=samples + burn_in, p=ifs.weights)]
    _affine_scan(x, inv)
    return x[burn_in:]


def _affine_scan(x: np.ndarray, m: np.ndarray) -> int:
    """Turn rows s_i of x into x_i = M x_{i-1} + s_i = sum_k M^k s_{i-k} in place.

    Pass j adds M^j times the row j back, so every row then holds its last
    2j terms.  The passes stop when every row holds all its terms, or when
    the max-abs row sum of the actual power M^j (not a bound from the
    spectrum: a non-normal M can grow first) is at most eps/2, so that a
    further pass would move no value by more than half an ulp of the
    largest coordinate.  Returns the number of passes.
    """
    power, j, passes = m, 1, 0
    while j < x.shape[0] and np.max(np.sum(np.abs(power), axis=1)) > np.finfo(float).eps / 2:
        # einsum, not @: matmul on a tall (n, d) block is an order slower here
        x[j:] += np.einsum("nc,rc->nr", x[:-j], power)
        power, j, passes = power @ power, 2 * j, passes + 1
    return passes


@dataclass(frozen=True)
class MomentCheck:
    name: str
    statistic: float
    expected: float
    z: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "expected": self.expected,
            "z": self.z,
        }


@dataclass(frozen=True)
class InvarianceReport:
    checks: tuple[MomentCheck, ...]
    samples: int
    seed: int
    points: np.ndarray = field(repr=False, compare=False)  # the chaos-game sample

    @property
    def max_abs_z(self) -> float:
        """Largest |z|; NaN when any z is NaN (Python's max() would skip it)."""
        return float(np.max(np.abs([c.z for c in self.checks])))

    def passed(self, z_bound: float = 4.0) -> bool:
        return self.max_abs_z < z_bound

    def to_json(self) -> dict:
        return {
            "checks": [c.to_json() for c in self.checks],
            "samples": self.samples,
            "seed": self.seed,
            "max_abs_z": self.max_abs_z,
        }


def _z_score(values: np.ndarray, expected: float) -> tuple[float, float]:
    n = values.shape[0]
    mean = float(np.mean(values))
    spread = float(np.std(values, ddof=1))
    if spread == 0.0:
        return mean, 0.0 if mean == expected else float("inf")
    return mean, (mean - expected) / (spread / np.sqrt(n))


def strong_invariance_check(
    ifs: AffineIfs, samples: int, seed: int, moment_order: int = 2
) -> InvarianceReport:
    """Monte Carlo z-scores for the self-similarity law of the sampled measure.

    Each monomial g of order <= moment_order is tested two ways: the
    per-sample difference g(x) - sum_n p_n g(tau_n x) should have mean
    zero under the invariance law, and the first moments should match the
    analytic fixed point of the affine recursion.
    """
    if samples < 10_000:
        raise InputError("use at least 1e4 samples for a meaningful z-score")
    if moment_order < 1 or moment_order > 2:
        raise InputError("moment order must be 1 or 2")
    pts = chaos_game(ifs, samples, seed)
    inv = ifs.inverse_matrix()
    p = np.asarray(ifs.weights)
    branch_pts = [
        (pts + ifs.digits[n].astype(float)) @ inv.T for n in range(ifs.branch_count)
    ]
    checks: list[MomentCheck] = []

    mean_target = ifs.mean_fixed_point()
    for r in range(ifs.dimension):
        stat, z = _z_score(pts[:, r], float(mean_target[r]))
        checks.append(MomentCheck(f"mean[{r}]", stat, float(mean_target[r]), z))

    monomials: list[tuple[int, ...]] = [(r,) for r in range(ifs.dimension)]
    if moment_order >= 2:
        monomials += [
            (r, s) for r in range(ifs.dimension) for s in range(r, ifs.dimension)
        ]
    for mono in monomials:
        diff = math.prod(pts[:, a] for a in mono) - sum(
            p[n] * math.prod(branch_pts[n][:, a] for a in mono) for n in range(ifs.branch_count)
        )
        stat, z = _z_score(diff, 0.0)
        name = "self_similarity[" + ",".join(str(a) for a in mono) + "]"
        checks.append(MomentCheck(name, stat, 0.0, z))
    return InvarianceReport(tuple(checks), samples, int(seed), pts)
