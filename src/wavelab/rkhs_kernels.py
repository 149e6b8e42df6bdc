"""Positive-definite kernel conditions on finite sigma-closed point sets.

A finite point set with a self-map stands in for the phase space; kernels
become Hermitian matrices and every functional condition a finite matrix
identity:

  contraction_check     smallest eigenvalue of K - m conj(m)' K(s., s.),
                        nonnegative exactly when weighted composition by
                        (m, sigma) contracts the kernel space
  refinement_residual   K = (sum_n m_n(x) conj(m_n(y))) K(sigma x, sigma y)
  product_kernel        truncated product of filter Gram sums along orbits
  preimage_orthogonality  branch-averaged Gram of the filters at each fiber

Filters are one (filter, point) array of their values at the points.
Grids should be closed under the map: for z -> z**2, a geometric chain
z0, z0**2, ... plus the fixed point 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from . import jsonio

HERMITIAN_TOL = 1e-13


@dataclass(frozen=True)
class FinitePointSet:
    """Point labels with coordinates plus the index form of the self-map.

    The fibers sigma^-1(x) are indexed by sigma itself: np.bincount gives
    their sizes and a scatter-add over sigma sums over each of them.
    """

    points: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points)
        if pts.ndim not in (1, 2) or pts.shape[0] == 0:
            raise InputError("points must be a nonempty vector or matrix")
        sig = np.array(self.sigma, dtype=int)
        if sig.shape != (pts.shape[0],):
            raise InputError("sigma must give one target index per point")
        if np.any(sig < 0) or np.any(sig >= pts.shape[0]):
            raise InputError("sigma indices out of range")
        pts.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "sigma", sig)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def preimage_counts(self) -> np.ndarray:
        return np.bincount(self.sigma, minlength=self.size)

    def orbits_reach_fixed_point(self) -> bool:
        """Whether sigma**M x is a fixed point for every x, with M > size."""
        far = self.sigma
        for _ in range(self.size.bit_length()):  # far = sigma**(2**k)
            far = far[far]
        return bool(np.all(self.sigma[far] == far))

    @classmethod
    def from_json(cls, obj: dict) -> "FinitePointSet":
        raw = obj.get("points")
        if not isinstance(raw, list) or not raw:
            raise InputError("point set JSON needs a nonempty 'points' list")
        pts = jsonio.decode_cvector(raw)
        return cls(pts, jsonio.decode_ints(obj.get("sigma", []), "sigma"))


@dataclass(frozen=True)
class KernelMatrix:
    """A Hermitian kernel over the point set, with its comparison tolerance.

    Symmetry is judged at the kernel's scale: max|K - K*| <= tol max(1, max|K|).
    """

    MEMBER = "matrix"  # the member of a kernel file that holds the matrix
    matrix: np.ndarray
    tol: float = HERMITIAN_TOL

    def __post_init__(self):
        k = np.array(self.matrix, dtype=complex)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InputError("kernel must be a square matrix")
        if np.max(np.abs(k - k.conj().T)) > self.tol * max(1.0, float(np.max(np.abs(k)))):
            raise InputError("kernel must be Hermitian")
        k.setflags(write=False)
        object.__setattr__(self, "matrix", k)

    def to_json(self) -> dict:
        return {self.MEMBER: jsonio.encode_cmatrix(self.matrix)}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelMatrix":
        return cls(jsonio.decode_cmatrix(obj[cls.MEMBER]))


def _gram_sum(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_n m_n(x) conj(m_n(y)) over the points idx: one outer product per
    filter, in filter order (a broadcast over the filter axis is slower)."""
    gram = np.zeros((idx.size, idx.size), dtype=complex)
    for v in values:
        pulled = v[idx]
        gram += np.outer(pulled, np.conj(pulled))
    return gram


def contraction_check(kernel: KernelMatrix, m: np.ndarray, pset: FinitePointSet) -> float:
    """Smallest eigenvalue of K(x,y) - m(x) conj(m(y)) K(sigma x, sigma y),
    for the values m of one filter at the points.

    Nonnegative (within eigensolver tolerance) exactly when weighted
    composition by (m, sigma) is a contraction of the kernel space.
    """
    k = kernel.matrix
    pulled = k[np.ix_(pset.sigma, pset.sigma)]
    diff = k - np.outer(m, np.conj(m)) * pulled
    return float(np.min(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)))


def refinement_residual(kernel: KernelMatrix, values: np.ndarray, pset: FinitePointSet) -> float:
    """max |K(x,y) - (sum_n m_n(x) conj(m_n(y))) K(sigma x, sigma y)|."""
    gram = _gram_sum(values, np.arange(pset.size))
    pulled = kernel.matrix[np.ix_(pset.sigma, pset.sigma)]
    return float(np.max(np.abs(kernel.matrix - gram * pulled)))


@dataclass(frozen=True)
class ProductKernelResult:
    kernel: KernelMatrix
    tail_bound: float
    orbits_reach_fixed_point: bool


def product_kernel(values: np.ndarray, pset: FinitePointSet, terms: int) -> ProductKernelResult:
    """Truncated product of filter Gram sums along the orbit of the map.

    Factor k, k = 0 .. terms - 1, is the one Gram matrix gathered at
    sigma**k of each point; zero terms yield the constant kernel 1.  The
    tail bound is the entrywise change contributed by the last factor.
    When some orbit never settles on a fixed point the truncation cannot
    stabilize; that is reported through the flag, never hidden.
    """
    if terms < 0:
        raise InputError("term count must be >= 0")
    idx = np.arange(pset.size)
    gram = _gram_sum(values, idx)
    out = prev = np.ones((pset.size, pset.size), dtype=complex)
    for _ in range(terms):
        prev = out
        # keep a fresh temporary on the right: from 256 KiB numpy multiplies into
        # it with the operands swapped, and the last bits follow that order
        out = out * gram[np.ix_(idx, idx)]
        idx = pset.sigma[idx]
    tail = float(np.max(np.abs(out - prev))) if terms > 0 else 0.0
    return ProductKernelResult(
        KernelMatrix(out, tol=1e-10), tail, pset.orbits_reach_fixed_point()
    )


def preimage_orthogonality(
    values: np.ndarray, pset: FinitePointSet
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Residual matrix of the fiber-averaged Gram identity.

    Entry (i, j) holds the worst |(1/n(x)) sum_{sigma(y)=x} m_i(y)
    conj(m_j(y)) - delta_ij| over points x with nonempty fibers; points
    without preimages are skipped and reported.
    """
    values = values.T  # (point, filter)
    n_filters, counts = values.shape[1], pset.preimage_counts()
    sums = np.zeros((pset.size, n_filters, n_filters), dtype=complex)
    np.add.at(sums, pset.sigma, values[:, :, None] * np.conj(values[:, None, :]))
    rows = counts > 0
    avg = sums[rows] / counts[rows, None, None]
    residual = np.max(np.abs(avg - np.eye(n_filters)), axis=0, initial=0.0)
    return residual, tuple(np.flatnonzero(~rows).tolist())
