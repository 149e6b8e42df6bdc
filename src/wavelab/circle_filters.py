"""Multirate filter algebra on the unit circle via Laurent polynomials.

The dilation z -> z**N turns composition into coefficient upsampling and
its adjoint into decimation, both exact on finite coefficient maps:

    f.upsample(N)      sum f_n z**(nN)
    f.downsample(N)    sum f_(nN) z**n    (the 1/N root average in
                       function form; pure extraction in coefficients)

Filter conditions are therefore checked without any grid: the bank
(m_1..m_N) satisfies the averaged convention when
(m_j.conj_reflect() * m_k).downsample(N) equals delta_jk.  The unit-sum
convention differs by a factor N and is exposed through a flag.

Grid scans back the coefficient checks up: the banded matrix
M(z) = (1/sqrt N) (m_j(eps**k z)) is unitary on |z| = 1 exactly when the
coefficient residuals vanish, and column rotation under z -> eps z holds
identically.  Matrix Blaschke factors V (I - P + phi_a(z**N) P) supply
unitary-on-the-circle rational functions of the quotient variable z**N.

Every matrix function takes z of any shape and returns a stack of shape
z.shape + (n, n), so a grid check evaluates it once on the grid (and once
more at eps z for a rotation law) and reduces the stacks; a scalar z gives
a single n x n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, band_count, below, check_cells
from . import jsonio

PRUNE_TOL = 1e-15


class LaurentPoly:
    """Finite Laurent polynomial sum c_k z**k with complex coefficients.

    Stored as its lowest degree plus one read-only coefficient array.
    Coefficients with modulus at most PRUNE_TOL become zero on
    construction and are trimmed from both ends, so identities that cancel
    to rounding noise compare equal to the zero polynomial (0, empty).
    Non-finite coefficients are kept, so they reach every residual.
    """

    __slots__ = ("_lo", "_coeffs")

    def __init__(self, min_degree: int = 0, coeffs: Sequence[complex] = ()):
        c = np.array(coeffs, dtype=complex).ravel()
        c[np.abs(c) <= PRUNE_TOL] = 0.0
        kept = np.flatnonzero(c)  # NaN counts as nonzero
        if kept.size:
            min_degree, c = int(min_degree) + int(kept[0]), c[kept[0] : kept[-1] + 1]
        else:
            min_degree, c = 0, c[:0]
        c.setflags(write=False)
        self._lo, self._coeffs = min_degree, c

    # -- constructors ---------------------------------------------------------
    @classmethod
    def monomial(cls, degree: int) -> "LaurentPoly":
        return cls(degree, [1.0])

    # -- inspection -----------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self._coeffs.size)

    def coefficients(self) -> tuple[int, np.ndarray]:
        """Contiguous coefficient block (min_degree, values), read-only."""
        return self._lo, self._coeffs

    def max_abs(self) -> float:
        # Python's abs: np.abs differs from it in the last place
        return float(np.max([abs(c) for c in self._coeffs.tolist()], initial=0.0))

    def __repr__(self) -> str:
        return f"LaurentPoly({self._lo}, {self._coeffs.tolist()})"

    # -- ring operations --------------------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        if not (self and other):
            return self or other
        lo = min(self._lo, other._lo)
        hi = max(self._lo + self._coeffs.size, other._lo + other._coeffs.size)
        out = np.zeros(hi - lo, dtype=complex)
        out[self._lo - lo : self._lo - lo + self._coeffs.size] = self._coeffs
        out[other._lo - lo : other._lo - lo + other._coeffs.size] += other._coeffs
        return LaurentPoly(lo, out)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __neg__(self):
        return LaurentPoly(self._lo, -self._coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            # Python's complex product term by term; numpy's may fuse a multiply-add
            s, c = complex(other), self._coeffs
            out = np.empty_like(c)
            out.real = c.real * s.real - c.imag * s.imag
            out.imag = c.real * s.imag + c.imag * s.real
            return LaurentPoly(self._lo, out)
        if not (self and other):
            return LaurentPoly()
        return LaurentPoly(self._lo + other._lo, np.convolve(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def conj_reflect(self) -> "LaurentPoly":
        """Coefficientwise boundary conjugate: c_k z**k -> conj(c_k) z**-k."""
        return LaurentPoly(1 - self._lo - self._coeffs.size, np.conj(self._coeffs[::-1]))

    def alternate(self) -> "LaurentPoly":
        """f(-z): flip the sign of odd coefficients."""
        signs = (-1) ** (np.arange(self._lo, self._lo + self._coeffs.size) % 2)
        return LaurentPoly(self._lo, self._coeffs * signs)

    def __call__(self, z):
        out = _values([self], z)[0]
        return complex(out) if out.ndim == 0 else out

    # -- multirate -----------------------------------------------------------
    def upsample(self, n: int) -> "LaurentPoly":
        n = band_count(n)
        check_cells(n * self._coeffs.size)
        out = np.zeros(n * self._coeffs.size, dtype=complex)  # trailing zeros are trimmed
        out[::n] = self._coeffs
        return LaurentPoly(n * self._lo, out)

    def downsample(self, n: int) -> "LaurentPoly":
        n = band_count(n)
        skip = -self._lo % n  # index of the first degree divisible by n
        return LaurentPoly((self._lo + skip) // n, self._coeffs[skip::n])

    # -- files ---------------------------------------------------------------
    def to_json(self) -> dict:
        return {"min_degree": self._lo, "coeffs": jsonio.encode_cvector(self._coeffs)}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise InputError("Laurent JSON needs 'min_degree' and 'coeffs'")
        min_degree = jsonio.decode_int(obj.get("min_degree", 0), "min_degree")
        return cls(min_degree, jsonio.decode_cvector(obj["coeffs"]))


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, float, complex)):
        return LaurentPoly(0, [x])
    raise InputError(f"cannot coerce {type(x).__name__} to a Laurent polynomial")


def _values(polys: Sequence[LaurentPoly], z) -> list:
    """Each polynomial's value at z, of z's shape: one loop over degrees, lowest first,
    computes each z**k once for all of them and holds one power at a time; each
    value adds its terms in degree order, so its bits are its polynomial's alone."""
    z = np.asarray(z, dtype=complex)
    terms = sorted((k, i, c) for i, poly in enumerate(polys)  # (k, i) are unique: no c is compared
                   for k, c in enumerate(poly._coeffs.tolist(), poly._lo) if c != 0)  # NaN != 0
    sums, degree = [np.zeros_like(z)] * len(polys), None  # rebound below, never written in place
    for k, i, c in terms:
        if k != degree:
            power, degree = z**k, k
        sums[i] = sums[i] + c * power
    return sums


def unit_circle_grid(n_points: int) -> np.ndarray:
    if n_points < 1:
        raise InputError("grid needs at least one point")
    return np.exp(2j * np.pi * np.arange(n_points) / n_points)


def root_of_unity(n: int) -> complex:
    """eps = exp(2 pi i / N), the rotation z -> eps z of the N bands."""
    return np.exp(2j * np.pi / band_count(n))


def _convention_scale(convention: str, n: int) -> float:
    if convention == "averaged":
        return 1.0
    if convention == "unit-sum":
        return float(n)
    raise InputError(f"unknown convention {convention!r}")


def cuntz_residuals(filters: Sequence[LaurentPoly], n: int, convention: str) -> tuple[float, float]:
    """(orthonormality, completeness), computed exactly in coefficients.

    Orthonormality: scale * (m_j.conj_reflect() m_k).downsample(N) - delta.
    Completeness: reconstruction of the monomial probes z**t, t < N, which
    generate all of L2 under the band structure.  A probe reaches a filter
    only through a coefficient of degree t mod N; one no filter reaches
    reconstructs to 0, with residual 1, counted once.
    """
    scale = _convention_scale(convention, band_count(n))
    orth = []
    for j, mj in enumerate(filters):
        for k, mk in enumerate(filters):
            entry = scale * (mj.conj_reflect() * mk).downsample(n)
            orth.append((entry - 1.0 if j == k else entry).max_abs())
    # NaN counts as nonzero
    phases = sorted({k % n for m in filters for k in (np.flatnonzero(m._coeffs) + m._lo).tolist()})
    comp = [] if len(phases) == n else [1.0]
    for t in phases:
        probe = LaurentPoly.monomial(t)
        lows = [(m.conj_reflect() * probe).downsample(n) for m in filters]
        recon = sum((m * low.upsample(n) for m, low in zip(filters, lows)), LaurentPoly())
        comp.append((scale * recon - probe).max_abs())
    # np.max, unlike max(), keeps a NaN residual
    return float(np.max(orth, initial=0.0)), float(np.max(comp))


def cqf_complete(m0: LaurentPoly) -> list[list[LaurentPoly]]:
    """Complete a low-pass filter to the 2 x 2 conjugate quadrature matrix.

    The high-pass partner has coefficients conj(c_n) (-1)**n z**(-n-1).
    The matrix is the same under both conventions: it is unitary on |z| = 1
    when m0 satisfies the unit-sum power-sum condition, and sqrt(2) times a
    unitary when it satisfies the averaged one.
    """
    lo, c = m0.coefficients()
    partner = np.conj(c) * (-1) ** (np.arange(lo, lo + c.size) % 2)
    m1 = LaurentPoly(-lo - c.size, partner[::-1])
    row2_col2 = LaurentPoly(-lo - c.size, -np.conj(c[::-1]))
    return [[m0, m1], [m0.alternate(), row2_col2]]


def power_sum_residual(m0: LaurentPoly, convention: str) -> float:
    """Exact residual of |m0(z)|**2 + |m0(-z)|**2 = 1 (or 2 when averaged)."""
    target = 2.0 / _convention_scale(convention, 2)
    sq = m0.conj_reflect() * m0
    return (sq + sq.alternate() - target).max_abs()


def evaluate_rows(rows: Sequence[Sequence[LaurentPoly]], z) -> np.ndarray:
    """A matrix of Laurent entries at z, shape z.shape + (rows, cols)."""
    values = _values([e for row in rows for e in row], z)
    values = np.reshape(values, (len(rows), -1) + np.shape(z))
    return np.moveaxis(values, (0, 1), (-2, -1))


def banded_matrix(filters: Sequence[LaurentPoly], n: int, z) -> np.ndarray:
    """The banded matrix (1/sqrt N) (m_j(eps**k z))_j,k at z."""
    eps = root_of_unity(n)
    if len(filters) != n:
        raise InputError(f"expected {n} filters, got {len(filters)}")
    cols = np.asarray(z, dtype=complex)[..., None] * np.array([eps**k for k in range(n)])
    return np.stack(_values(filters, cols), axis=-2) / np.sqrt(n)


def grid_residuals(stack: np.ndarray) -> np.ndarray:
    """Max-abs entry of each matrix in a (..., n, n) stack, one per point.

    np.max propagates NaN, so a non-finite point never looks small.
    """
    return np.max(np.abs(stack), axis=(-2, -1))


def unitarity_residuals(stack: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Per point, the max-abs entry of M M* - scale * I over a (..., n, n) stack."""
    gram = stack @ np.conj(np.swapaxes(stack, -1, -2))
    return grid_residuals(gram - scale * np.eye(stack.shape[-1]))


def rotation_residual(at_z: np.ndarray, at_eps_z: np.ndarray, shift: int = 0) -> float:
    """max over the grid of |F(eps z) - F(z) Pi**shift|, Pi the column rotation.

    shift = 1 is the band law M(eps z) = M(z) Pi of the banded matrix;
    shift = 0 is the periodicity U(eps z) = U(z) of a function of z**N.
    """
    return float(np.max(grid_residuals(at_eps_z - np.roll(at_z, -shift, axis=-1))))


@dataclass(frozen=True)
class BlaschkeFactor:
    """One unitary-on-the-circle factor I - P + phi_a(z**power) P.

    ``a`` is the Moebius parameter with |a| != 1; ``a = None`` encodes the
    point at infinity, phi(w) = 1/w.  ``projection`` must be an orthogonal
    projection matrix.
    """

    projection: np.ndarray
    a: complex | None
    power: int

    def __post_init__(self):
        p = jsonio.frozen(self.projection)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InputError("projection must be a square matrix")
        if not below(1e-13, np.max(np.abs(p - p.conj().T)), np.max(np.abs(p @ p - p))):
            raise InputError("projection must satisfy P = P* = P^2")
        object.__setattr__(self, "projection", p)
        if self.a is not None:
            a = complex(self.a)
            if not np.isfinite(a) or below(1e-12, abs(abs(a) - 1.0)):
                raise InputError("Moebius parameter must be finite with |a| != 1")
            object.__setattr__(self, "a", a)
        if self.power < 2:
            raise InputError("factor power must be >= 2")

    @property
    def size(self) -> int:
        return self.projection.shape[0]

    def eval(self, z) -> np.ndarray:
        w = np.asarray(z, dtype=complex) ** self.power
        phi = 1.0 / w if self.a is None else (w - self.a) / (1.0 - w * np.conj(self.a))
        return np.eye(self.size) - self.projection + phi[..., None, None] * self.projection

    @classmethod
    def from_json(cls, obj: dict) -> "BlaschkeFactor":
        a = obj.get("a", [0.0, 0.0])
        return cls(
            jsonio.decode_cmatrix(obj["P"]),
            None if a == "inf" else jsonio.decode_complex(a),
            jsonio.decode_int(obj.get("power", 2), "power"),
        )


@dataclass(frozen=True)
class BlaschkeProduct:
    """Constant unitary times a product of Blaschke factors in z**N."""

    left_unitary: np.ndarray
    factors: tuple[BlaschkeFactor, ...]

    def __post_init__(self):
        v = jsonio.frozen(self.left_unitary)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError("left unitary must be a square matrix")
        if not below(1e-12, np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0])))):
            raise InputError("left factor must be unitary")
        object.__setattr__(self, "left_unitary", v)
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.size != v.shape[0]:
                raise InputError("factor size differs from the left unitary")

    @property
    def size(self) -> int:
        return self.left_unitary.shape[0]

    def eval(self, z) -> np.ndarray:
        v = self.left_unitary
        out = np.array(np.broadcast_to(v, np.shape(z) + v.shape))
        for f in self.factors:
            out = out @ f.eval(z)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "BlaschkeProduct":
        return cls(
            jsonio.decode_cmatrix(obj["V"]),
            tuple(BlaschkeFactor.from_json(f) for f in obj.get("factors", [])),
        )
