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

The Hermitian test, refinement_residual and product_kernel run in row blocks
of _BLOCK_CELLS cells whose maxima meet in np.max, so a NaN reaches the result;
contraction_check writes refinement_residual's blocks for its one filter into
one matrix for the eigensolver.
Blocks are gathered by np.take, rows then columns.  numpy's complex multiply
rounds the last bit by operand order, and the former whole-matrix
``out * <fresh gather>`` ran with its operands swapped from numpy's elision
size of 256 KiB up; product_kernel keeps that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from . import jsonio

HERMITIAN_TOL = 1e-13
_BLOCK_CELLS = 2**13  # cells of one row block


def _row_blocks(size: int) -> list[slice]:
    """Consecutive row slices of a matrix with size columns, _BLOCK_CELLS cells or one row each."""
    step = max(1, _BLOCK_CELLS // max(size, 1))
    return [slice(r, min(r + step, size)) for r in range(0, size, step)]


@dataclass(frozen=True)
class FinitePointSet:
    """Point labels with coordinates plus the index form of the self-map.

    The fibers sigma^-1(x) are indexed by sigma itself: np.bincount gives
    their sizes and a scatter-add over sigma sums over each of them.
    """

    points: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        pts = jsonio.frozen(self.points, dtype=None)
        if pts.ndim not in (1, 2) or pts.shape[0] == 0:
            raise InputError("points must be a nonempty vector or matrix")
        sig = jsonio.frozen(self.sigma, dtype=int)
        if sig.shape != (pts.shape[0],):
            raise InputError("sigma must give one target index per point")
        if np.any(sig < 0) or np.any(sig >= pts.shape[0]):
            raise InputError("sigma indices out of range")
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
    ``jsonio.frozen`` takes the matrix: a Fresh one, loaded or built, is adopted, any other copied.
    """

    MEMBER = "matrix"  # the member of a kernel file that holds the matrix
    matrix: np.ndarray
    tol: float = HERMITIAN_TOL

    def __post_init__(self):
        k = jsonio.frozen(self.matrix)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InputError("kernel must be a square matrix")
        asym, top = np.max([(np.abs(k[r] - k[:, r].conj().T).max(), np.abs(k[r]).max())
                            for r in _row_blocks(len(k))], axis=0)
        # not below(): a NaN kernel is no bad input, and fails the verdict instead
        if asym > self.tol * max(1.0, float(top)):
            raise InputError("kernel must be Hermitian")
        object.__setattr__(self, "matrix", k)

    def to_json(self) -> dict:
        return {self.MEMBER: jsonio.encode_cmatrix(self.matrix)}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelMatrix":
        k = jsonio.decode_cmatrix(raw := obj[cls.MEMBER])  # new from lists, or load_file's
        return cls(k if k is raw else k.view(jsonio.Fresh))  # a caller's array is copied


def _gram_sum(values: np.ndarray, rows: slice, size: int) -> np.ndarray:
    """sum_n m_n(x) conj(m_n(y)) for x in rows and all size points y: one outer
    product per filter, in filter order (a broadcast over the filter axis is slower)."""
    gram = np.zeros((rows.stop - rows.start, size), dtype=complex)
    for v in values:
        gram += np.outer(v[rows], np.conj(v))
    return gram


def _residual_blocks(kernel: KernelMatrix, values: np.ndarray, pset: FinitePointSet):
    """(rows, K - (sum_n m_n conj(m_n)) K(sigma., sigma.) on those rows), block by block,
    each block a new array."""
    k, sigma = kernel.matrix, pset.sigma
    for rows in _row_blocks(pset.size):
        block = _gram_sum(values, rows, pset.size)
        np.multiply(block, k.take(sigma[rows], axis=0).take(sigma, axis=1), out=block)
        yield rows, np.subtract(k[rows], block, out=block)


def contraction_check(kernel: KernelMatrix, m: np.ndarray, pset: FinitePointSet) -> float:
    """Smallest eigenvalue of K(x,y) - m(x) conj(m(y)) K(sigma x, sigma y),
    for the values m of one filter at the points.

    Nonnegative (within eigensolver tolerance) exactly when weighted
    composition by (m, sigma) is a contraction of the kernel space.  NaN when
    the Hermitian part is not finite, which the eigensolver rejects.
    """
    diff = np.empty(kernel.matrix.shape, dtype=complex)
    for rows, block in _residual_blocks(kernel, np.asarray(m)[None], pset):
        diff[rows] = block
    hermitian = diff.conj().T
    np.add(diff, hermitian, out=hermitian)  # diff + diff*, in that order, without a third matrix
    del diff
    hermitian /= 2.0
    if not np.isfinite(hermitian).all():
        return float("nan")
    return float(np.min(np.linalg.eigvalsh(hermitian)))


def refinement_residual(kernel: KernelMatrix, values: np.ndarray, pset: FinitePointSet) -> float:
    """max |K(x,y) - (sum_n m_n(x) conj(m_n(y))) K(sigma x, sigma y)|."""
    blocks = _residual_blocks(kernel, values, pset)
    return float(np.max([np.max(np.abs(block)) for _, block in blocks]))


def product_kernel(
    values: np.ndarray, pset: FinitePointSet, terms: int
) -> tuple[KernelMatrix, float]:
    """(kernel, tail bound): the truncated product of filter Gram sums along
    the orbit of the map.

    Factor k, k = 0 .. terms - 1, is the one Gram matrix gathered at
    sigma**k of each point; zero terms yield the constant kernel 1.  The
    tail bound is the entrywise change contributed by the last factor; it
    means nothing unless every orbit settles on a fixed point
    (``FinitePointSet.orbits_reach_fixed_point``), which the caller checks.
    """
    if terms < 0:
        raise InputError("term count must be >= 0")
    size, idx = pset.size, np.arange(pset.size)
    gram = _gram_sum(values, slice(0, size), size)
    out = np.ones((size, size), dtype=complex)
    gather_first = out.nbytes >= 256 * 1024  # the former product's order (module docstring)
    tails = [0.0]
    for term in range(terms):
        for rows in _row_blocks(size):
            factor, block = gram.take(idx[rows], axis=0).take(idx, axis=1), out[rows]
            last = term == terms - 1  # its change to the old block is the tail bound
            np.multiply(*((factor, block) if gather_first else (block, factor)),
                        out=factor if last else block)
            if last:
                tails.append(np.max(np.abs(np.subtract(block, factor, out=block))))
                block[...] = factor
        idx = pset.sigma[idx]
    del gram  # not held while the kernel is checked
    return KernelMatrix(out.view(jsonio.Fresh), tol=1e-10), float(np.max(tails))


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
