"""Exact shift-operator algebra on finite-depth cylinder functions.

The state space is the set of one-sided symbol sequences over {1..N},
carrying the product measure with branch weights p_1..p_N.  A depth-L
cylinder function depends on the first L symbols only and is stored as a
dense complex vector of length N**L, indexed with the first symbol most
significant:

    index(w) = sum_k (w_k - 1) * N**(L - k)

The shift sigma drops the first symbol and the branches tau_n prepend
symbol n, so both act by pure index bookkeeping and every operator
identity below is exact up to float rounding at any finite depth:

    compose_sigma(f)             (S f)(w1 w2 ...) = f(w2 ...)
    adjoint_sigma(f)             (S* f)(v) = sum_n p_n f(n v)
    conditional_expectation(f)   S S* f, projection onto shift composites
    weighted_compose(m, f)       m * (f o sigma)
    ruelle_apply(W, f)           S*(W f), transfer operator with weight W

Depth bookkeeping: compose_sigma raises depth by one, adjoint_sigma
lowers it by one, and products lift both operands to the larger depth.
Raising depth allocates N**L cells; the cap (default 2**24, overridable
through the WAVELAB_MAX_CELLS environment variable) guards against
accidental blowup.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, VerificationError
from . import jsonio

DEFAULT_MAX_CELLS = 2**24
_CELLS_ENV = "WAVELAB_MAX_CELLS"
POWER_STEPS = 200  # harmonic_solve's step limit where it power-iterates
DENSE_SOLVE_WORDS = 512  # beyond, harmonic_solve's O(size**3) LU outcosts POWER_STEPS steps

WEIGHT_SUM_TOL = 1e-14
TRANSFER_WEIGHT_TOL = 1e-12  # how far a transfer weight may stray from real and >= 0


def max_cells() -> int:
    """Current cap on the number of stored values per cylinder function."""
    raw = os.environ.get(_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{_CELLS_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError(f"{_CELLS_ENV} must be positive, got {cap}")
    return cap


def _check_cells(n_values: int) -> None:
    cap = max_cells()
    if n_values > cap:
        raise InputError(
            f"{n_values} cells exceed the cap of {cap}; "
            f"set {_CELLS_ENV} to raise it"
        )


@dataclass(frozen=True)
class IfsSpec:
    """Branch count and branch weights of the symbol system.

    ``weights`` defaults to the uniform distribution; they must be positive
    and sum to one within 1e-14, so NaN weights fail.
    """

    N: int
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise InputError(f"branch count must be an integer >= 2, got {self.N}")
        w = self.weights
        if not w:
            w = (1.0 / self.N,) * self.N
        w = tuple(float(p) for p in w)
        if len(w) != self.N:
            raise InputError(f"expected {self.N} weights, got {len(w)}")
        if not all(p > 0 for p in w):
            raise InputError(f"branch weights must be positive, got {w}")
        if not abs(sum(w) - 1.0) < WEIGHT_SUM_TOL:
            raise InputError(f"branch weights must sum to 1, got {sum(w)!r}")
        object.__setattr__(self, "weights", w)

    @property
    def uniform(self) -> bool:
        return all(abs(p - 1.0 / self.N) < WEIGHT_SUM_TOL for p in self.weights)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def to_json(self) -> dict:
        return {"N": self.N, "weights": list(self.weights)}

    @classmethod
    def from_json(cls, obj: dict) -> "IfsSpec":
        if "N" not in obj:
            raise InputError("spec JSON needs an 'N' field")
        weights = tuple(jsonio.decode_real(p, "weight") for p in obj.get("weights") or ())
        return cls(jsonio.decode_int(obj["N"], "N"), weights)


@dataclass(frozen=True)
class Word:
    """A finite string of symbols from {1..N}, canonically indexable."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def validate(self, n_branches: int) -> "Word":
        for s in self.symbols:
            if not 1 <= s <= n_branches:
                raise InputError(f"symbol {s} outside 1..{n_branches}")
        return self

    def index(self, n_branches: int) -> int:
        """Canonical index, first symbol most significant."""
        self.validate(n_branches)
        i = 0
        for s in self.symbols:
            i = i * n_branches + (s - 1)
        return i


class _Fresh(tuple):
    """(array,): the new array of a code-space operation, adopted without a copy."""


def _new(spec: IfsSpec, depth: int, values: np.ndarray) -> "CylinderFn":
    return CylinderFn(spec, depth, _Fresh((values,)))


@dataclass(frozen=True, eq=False)
class CylinderFn:
    """A complex function of the first ``depth`` symbols.

    ``values`` holds one entry per word of length ``depth`` in canonical
    order.  An array handed in is copied and frozen; an operation's own is frozen.
    """

    spec: IfsSpec
    depth: int
    values: np.ndarray

    def __post_init__(self):
        size = self.spec.N**self.depth
        if isinstance(self.values, _Fresh):  # its operation checked the cap already
            vals = self.values[0]
        else:
            if self.depth < 0:
                raise InputError(f"depth must be >= 0, got {self.depth}")
            _check_cells(size)
            vals = np.array(self.values, dtype=np.complex128).ravel()
        if vals.shape != (size,):
            raise InputError(
                f"depth {self.depth} over {self.spec.N} branches needs "
                f"{size} values, got {vals.shape[0]}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- constructors --------------------------------------------------------
    @classmethod
    def constant(cls, spec: IfsSpec, value: complex) -> "CylinderFn":
        return cls(spec, 0, np.array([value], dtype=np.complex128))

    @classmethod
    def ones(cls, spec: IfsSpec) -> "CylinderFn":
        return cls.constant(spec, 1.0)

    @classmethod
    def indicator(cls, spec: IfsSpec, word: Word | Sequence[int]) -> "CylinderFn":
        if not isinstance(word, Word):
            word = Word(tuple(word))
        word.validate(spec.N)
        vals = np.zeros(spec.N ** len(word), dtype=np.complex128)
        vals[word.index(spec.N)] = 1.0
        return cls(spec, len(word), vals)

    # -- pointwise arithmetic --------------------------------------------------
    def _binary(self, other, op):
        if isinstance(other, CylinderFn):
            a, b, depth = _align(self, other)
            return _new(self.spec, depth, op(a, b))
        return _new(self.spec, self.depth, op(self.values, complex(other)))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __neg__(self):
        return _new(self.spec, self.depth, -self.values)

    def conj(self) -> "CylinderFn":
        return _new(self.spec, self.depth, np.conj(self.values))

    def abs2(self) -> "CylinderFn":
        return _new(self.spec, self.depth, np.abs(self.values) ** 2 + 0j)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_json(self) -> dict:
        return {
            "N": self.spec.N,
            "weights": list(self.spec.weights),
            "depth": self.depth,
            "values": jsonio.encode_cvector(self.values),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CylinderFn":
        spec = IfsSpec.from_json(obj)
        if "depth" not in obj or "values" not in obj:
            raise InputError("cylinder JSON needs 'depth' and 'values'")
        depth = jsonio.decode_int(obj["depth"], "depth")
        return cls(spec, depth, jsonio.decode_cvector(obj["values"]))


def _require_same_spec(f: CylinderFn, g: CylinderFn) -> None:
    if f.spec != g.spec:
        raise InputError(
            f"operands live over different systems: {f.spec} vs {g.spec}"
        )


def _align(f: CylinderFn, g: CylinderFn) -> tuple[np.ndarray, np.ndarray, int]:
    _require_same_spec(f, g)
    depth = max(f.depth, g.depth)
    return _lift_values(f, depth), _lift_values(g, depth), depth


def _lift_values(f: CylinderFn, depth: int) -> np.ndarray:
    if depth < f.depth:
        raise InputError(f"cannot lift depth {f.depth} down to {depth}")
    if depth == f.depth:
        return f.values
    reps = f.spec.N ** (depth - f.depth)
    _check_cells(f.values.shape[0] * reps)
    return np.repeat(f.values, reps)


def lift(f: CylinderFn, depth: int) -> CylinderFn:
    """View ``f`` as a function of the first ``depth`` >= f.depth symbols."""
    return _new(f.spec, depth, _lift_values(f, depth))


def integrate(f: CylinderFn) -> complex:
    """Integral against the product measure: sum_w p_{w_1}..p_{w_L} f(w)."""
    vals = f.values
    p = f.spec.weight_array()
    for _ in range(f.depth):
        vals = p @ vals.reshape(f.spec.N, -1)
    return complex(vals[0])


def multiply(f: CylinderFn, g: CylinderFn) -> CylinderFn:
    """Pointwise product at the common lifted depth."""
    a, b, depth = _align(f, g)
    return _new(f.spec, depth, a * b)


def sup_distance(f: CylinderFn, g: CylinderFn) -> float:
    a, b, _ = _align(f, g)
    return float(np.max(np.abs(a - b)))


def compose_sigma(f: CylinderFn) -> CylinderFn:
    """The isometry S: precompose with the shift, raising depth by one."""
    _check_cells(f.values.shape[0] * f.spec.N)
    return _new(f.spec, f.depth + 1, np.tile(f.values, f.spec.N))


def adjoint_sigma(f: CylinderFn) -> CylinderFn:
    """S*: weighted average over prepended symbols, lowering depth by one."""
    if f.depth == 0:
        return f
    p = f.spec.weight_array()
    return _new(f.spec, f.depth - 1, p @ f.values.reshape(f.spec.N, -1))


def conditional_expectation(f: CylinderFn) -> CylinderFn:
    """The orthogonal projection S S* onto functions of the shifted tail."""
    if f.depth == 0:
        return f
    return compose_sigma(adjoint_sigma(f))


def shift_iterate(f: CylinderFn, k: int) -> CylinderFn:
    """f o sigma^k, raising depth by k."""
    if k < 0:
        raise InputError("shift power must be >= 0")
    reps = f.spec.N**k
    _check_cells(f.values.shape[0] * reps)
    return _new(f.spec, f.depth + k, np.tile(f.values, reps))


def weighted_compose(m: CylinderFn, f: CylinderFn) -> CylinderFn:
    """S_m f = m * (f o sigma)."""
    return multiply(m, compose_sigma(f))


def weighted_adjoint(m: CylinderFn, f: CylinderFn) -> CylinderFn:
    """S_m* f = S*(conj(m) * f)."""
    return adjoint_sigma(multiply(m.conj(), f))


def _require_weight(W: CylinderFn) -> None:
    if float(np.max(np.abs(W.values.imag))) > TRANSFER_WEIGHT_TOL:
        raise InputError("transfer weight must be real")
    if float(np.min(W.values.real)) < -TRANSFER_WEIGHT_TOL:
        raise InputError("transfer weight must be nonnegative")


def ruelle_apply(W: CylinderFn, f: CylinderFn) -> CylinderFn:
    """Transfer operator R_W f = S*(W f) for a nonnegative weight W."""
    _require_weight(W)
    return adjoint_sigma(multiply(W, f))


def density_defect(W: CylinderFn, h: CylinderFn, tol: float) -> tuple[float, str]:
    """(sup|R_W h - h|, why h is no transfer-harmonic density of W, or "").

    h is one when R_W h = h, int h dmu = 1 and h >= 0 (Im h = 0), each
    within tol; a NaN anywhere fails.
    """
    residual = sup_distance(ruelle_apply(W, h), h)  # at the deeper depth
    deviation = abs(integrate(h) - 1.0)
    low, imag = float(h.values.real.min()), float(np.abs(h.values.imag).max())
    if residual < tol and deviation < tol and low >= -tol and imag <= tol:
        return residual, ""
    return residual, (
        f"sup|R_W h - h| {residual:.3e}, min Re h {low:.3e}, max |Im h| {imag:.3e}, "
        f"|int h - 1| {deviation:.3e} (tolerance {tol:.0e})"
    )


def harmonic_solve(W: CylinderFn, tol: float = 1e-12) -> CylinderFn:
    """The density h with R_W h = h and integrate(h) = 1, at depth W.depth - 1.

    R_W is a nonnegative N**depth-square matrix, mat[v, (n v)[:depth]] +=
    p_n W(n v); h solves (R_W - I + 1 mu^T) h = 1, mu the cylinder masses, or
    is power-iterated above DENSE_SOLVE_WORDS words or the cell cap.  Unless
    density_defect passes h (so 1 is the Perron eigenvalue of an irreducible
    R_W), a VerificationError names its numbers and the spectrum.
    """
    _require_weight(W)
    depth = max(W.depth - 1, 0)
    n, size = W.spec.N, W.spec.N**depth
    if size > DENSE_SOLVE_WORDS or size * size > max_cells():
        return _power_solve(W, depth, tol)
    p, word = W.spec.weight_array(), np.arange(n * size)  # the words n v
    mat = np.zeros((size, size))
    weighted = np.repeat(p, size) * _lift_values(W, depth + 1).real
    np.add.at(mat, (word % size, word // n), weighted)
    masses = functools.reduce(np.kron, [p] * depth, np.ones(1))
    try:
        vals = np.linalg.solve(mat - np.eye(size) + masses, np.ones(size))
    except np.linalg.LinAlgError:  # a ValueError, which the CLI reads as bad input
        vals = np.full(size, np.nan)
    h = _new(W.spec, depth, vals + 0j)
    residual, defect = density_defect(W, h, tol)
    if not defect:
        return h
    spectrum = "the weight is not finite"
    if np.isfinite(mat).all():
        eigs = np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]
        ratio = eigs[1] / eigs[0] if size > 1 and eigs[0] > 0 else 0.0
        spectrum = f"Perron eigenvalue {eigs[0]:.6g}, |lambda_2/lambda_1| {ratio:.3g}"
    msg = f"no transfer-harmonic density ({defect}; {spectrum})"
    raise VerificationError(msg, residual=residual)


def _power_solve(W: CylinderFn, depth: int, tol: float) -> CylinderFn:
    """harmonic_solve by power iteration, for matrices over the cell cap."""
    h, residual = lift(CylinderFn.ones(W.spec), depth), None
    rh = lift(ruelle_apply(W, h), depth)
    for _ in range(POWER_STEPS):
        total = integrate(rh)
        if abs(total) < 1e-300:
            raise VerificationError("transfer iterate vanished", residual=residual)
        h = rh / total
        rh = lift(ruelle_apply(W, h), depth)
        residual = sup_distance(rh, h)
        if residual < tol:
            return h
    raise VerificationError(
        f"no transfer fixed point after {POWER_STEPS} iterations (last residual {residual:.3e})",
        residual=residual,
    )
