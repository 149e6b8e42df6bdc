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

    compose_sigma(f)         (S f)(w1 w2 ...) = f(w2 ...)
    adjoint_sigma(f)         (S* f)(v) = sum_n p_n f(n v)
    weighted_compose(m, f)   m * (f o sigma)
    ruelle_apply(W, f)       S*(W f), transfer operator with weight W

Depth bookkeeping: compose_sigma raises depth by one, adjoint_sigma
lowers it by one, and products lift both operands to the larger depth.
A lift or shift inside a product is a broadcast view, not a copy: the
operand has extent 1 on the trailing symbols it does not read, and f o
sigma**k on the leading k symbols as well.  The cell cap
(``errors.check_cells``) counts the N**L cells of the product, and of
every function that raising depth makes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import WEIGHT_SUM_TOL, InputError, VerificationError, branch_weights, check_cells
from . import jsonio

TRANSFER_WEIGHT_TOL = 1e-12  # how far a transfer weight may stray from real and >= 0
HARMONIC_TOL = 1e-12  # density_defect's bound on each of its four tests
ARNOLDI_STEPS = 40  # harmonic_solve's spectrum estimate past 512 words


@dataclass(frozen=True)
class IfsSpec:
    """Branch count and branch weights of the symbol system.

    ``weights`` defaults to the uniform distribution; they must be positive
    and sum to one within WEIGHT_SUM_TOL (``errors.branch_weights``).
    """

    N: int
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise InputError(f"branch count must be an integer >= 2, got {self.N}")
        object.__setattr__(self, "weights", branch_weights(self.weights, self.N))

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


def _new(spec: IfsSpec, depth: int, values: np.ndarray) -> "CylinderFn":
    return CylinderFn(spec, depth, values.view(jsonio.Fresh))


@dataclass(frozen=True, eq=False)
class CylinderFn:
    """A complex function of the first ``depth`` symbols.

    ``values`` holds one entry per word of length ``depth`` in canonical
    order, taken by ``jsonio.frozen``: an operation's own 1-D ``Fresh`` view
    (cap checked) is adopted; any other is checked, copied and flattened.
    """

    spec: IfsSpec
    depth: int
    values: np.ndarray

    def __post_init__(self):
        size = self.spec.N**self.depth
        if not isinstance(self.values, jsonio.Fresh):
            if self.depth < 0:
                raise InputError(f"depth must be >= 0, got {self.depth}")
            check_cells(size)
        vals = jsonio.frozen(self.values)
        if vals.ndim != 1:  # a caller's nested values, flattened as a view of the copy
            vals = vals.reshape(-1)
        if vals.shape != (size,):
            raise InputError(
                f"depth {self.depth} over {self.spec.N} branches needs "
                f"{size} values, got {vals.shape[0]}"
            )
        object.__setattr__(self, "values", vals)

    # -- constructors --------------------------------------------------------
    @classmethod
    def constant(cls, spec: IfsSpec, value: complex) -> "CylinderFn":
        return cls(spec, 0, np.array([value], dtype=np.complex128))

    @classmethod
    def ones(cls, spec: IfsSpec) -> "CylinderFn":
        return cls.constant(spec, 1.0)

    # -- pointwise arithmetic --------------------------------------------------
    def _binary(self, other, op):
        if isinstance(other, CylinderFn):
            a, b, depth = _align(self, other)
            return _new(self.spec, depth, op(a, b).reshape(-1))
        return _new(self.spec, self.depth, op(self.values, complex(other)))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        if isinstance(other, CylinderFn):
            return multiply(self, other)
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


def _require_same_spec(spec: IfsSpec, *others: IfsSpec) -> None:
    """The one check that operands share an IFS: each of others is spec.  It runs
    on every product, so the same object passes before any comparison."""
    for other in others:
        if other is not spec and other != spec:
            raise InputError(f"operands live over different systems: {spec} vs {other}")


def _align(f: CylinderFn, g: CylinderFn) -> tuple[np.ndarray, np.ndarray, int]:
    """Both operands as (N**shallow, -1) views and the deeper depth, for the
    binary operations other than the product (``_mul``).

    The shallower one is (N**shallow, 1), so it broadcasts as its lift
    would; a result of unequal depths checks its N**depth cells."""
    _require_same_spec(f.spec, g.spec)
    shallow, depth = sorted((f.depth, g.depth))
    if shallow != depth:
        check_cells(f.spec.N**depth)
    rows = f.spec.N**shallow
    return f.values.reshape(rows, -1), g.values.reshape(rows, -1), depth


def _depth(size: int, n: int) -> int:
    """The depth L of n**L stored values, by exact integer powers; -1 when
    size is no power of n."""
    depth, cells = 0, 1
    while cells < size:
        depth, cells = depth + 1, cells * n
    return depth if cells == size else -1


def _average(p: np.ndarray, values: np.ndarray) -> np.ndarray:
    """S* along the last axis: sum_n p_n values[..., n v], one depth lower."""
    return p @ values.reshape(values.shape[:-1] + (len(p), -1))


def _lift(values: np.ndarray, n: int, depth: int) -> np.ndarray:
    """Functions stored along the last axis, as functions of the first depth symbols."""
    size, cells = values.shape[-1], n**depth
    if cells < size:
        raise InputError(f"cannot lift {size} values down to depth {depth}")
    if cells == size:
        return values
    check_cells(cells)
    return np.repeat(values, cells // size, axis=-1)


def _integral(p: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The integrals of functions stored along the last axis: S* until one
    value is left."""
    while values.shape[-1] > 1:
        values = _average(p, values)
    return values[..., 0]


def integrate(f: CylinderFn) -> complex:
    """Integral against the product measure: sum_w p_{w_1}..p_{w_L} f(w)."""
    return complex(_integral(f.spec.weight_array(), f.values))


def _product(
    f: CylinderFn, g: CylinderFn, shifts: tuple[int, int], out: np.ndarray | None = None
) -> CylinderFn:
    """(f o sigma**j) * (g o sigma**k), (j, k) = shifts, into one new array, or
    into out (the caller's, of the product's N**depth cells): an operand is a
    view with extent 1 on the blocks of symbols (cut at both operands' ends)
    it does not read.  Checks the product's N**depth cells."""
    _require_same_spec(f.spec, g.spec)
    n, spans = f.spec.N, [(k, k + x.depth) for x, k in zip((f, g), shifts)]
    cuts = sorted({0}.union(*spans))
    check_cells(n ** cuts[-1])
    shape = [n ** (hi - lo) for lo, hi in zip(cuts, cuts[1:])]
    a, b = ([e if start <= lo < end else 1 for lo, e in zip(cuts, shape)] for start, end in spans)
    out = np.empty(shape, complex) if out is None else out.reshape(shape)
    out = np.multiply(f.values.reshape(a), g.values.reshape(b), out=out)
    return _new(f.spec, cuts[-1], out.reshape(-1))


def _mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a * b, the one pointwise product, on values over one N: the shallower, of
    rows values, is read as (rows, 1), broadcast as its lift would be.  Unequal
    depths check the cells; out (the caller's, maybe an operand) takes the
    product if it has the product's size, else the product is a new array."""
    rows, cells = sorted((a.size, b.size))
    if rows != cells:
        check_cells(cells)
    out = None if out is None or out.size != cells else out.reshape(rows, -1)
    return np.multiply(a.reshape(rows, -1), b.reshape(rows, -1), out=out).reshape(-1)


def multiply(f: CylinderFn, g: CylinderFn) -> CylinderFn:
    """Pointwise product at the common lifted depth."""
    _require_same_spec(f.spec, g.spec)
    return _new(f.spec, max(f.depth, g.depth), _mul(f.values, g.values))


def sup_distance(f: CylinderFn, g: CylinderFn) -> float:
    a, b, _ = _align(f, g)
    return float(np.max(np.abs(a - b)))


def compose_sigma(f: CylinderFn) -> CylinderFn:
    """The isometry S: precompose with the shift, raising depth by one.  The
    result is stored (one np.tile); inside a product, _product reads f o sigma
    as a view instead."""
    check_cells(f.values.shape[0] * f.spec.N)
    return _new(f.spec, f.depth + 1, np.tile(f.values, f.spec.N))


def adjoint_sigma(f: CylinderFn) -> CylinderFn:
    """S*: weighted average over prepended symbols, lowering depth by one."""
    if f.depth == 0:
        return f
    return _new(f.spec, f.depth - 1, _average(f.spec.weight_array(), f.values))


def weighted_compose(m: CylinderFn, f: CylinderFn, out: np.ndarray | None = None) -> CylinderFn:
    """S_m f = m * (f o sigma), into out if given (as _product)."""
    return _product(m, f, (0, 1), out)


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


def density_defect(W: CylinderFn, h: CylinderFn) -> tuple[float, str]:
    """(sup|R_W h - h|, why h is no transfer-harmonic density of W, or "").

    h is one when R_W h = h, int h dmu = 1 and h >= 0 (Im h = 0), each
    within HARMONIC_TOL; a NaN anywhere fails.
    """
    tol = HARMONIC_TOL
    residual = sup_distance(ruelle_apply(W, h), h)  # at the deeper depth
    deviation = abs(integrate(h) - 1.0)
    low, imag = float(h.values.real.min()), float(np.abs(h.values.imag).max())
    if residual < tol and deviation < tol and low >= -tol and imag <= tol:
        return residual, ""
    return residual, (
        f"sup|R_W h - h| {residual:.3e}, min Re h {low:.3e}, max |Im h| {imag:.3e}, "
        f"|int h - 1| {deviation:.3e} (tolerance {tol:.0e})"
    )


def harmonic_solve(W: CylinderFn) -> CylinderFn:
    """The density h with R_W h = h and integrate(h) = 1, at depth W.depth - 1.

    R_W is a nonnegative N**depth-square matrix, mat[v, (n v)[:depth]] +=
    p_n W(n v), whose cells count against the cap; h solves
    (R_W - I + 1 mu^T) h = 1, mu the cylinder masses.  Unless density_defect
    passes h (so 1 is the Perron eigenvalue of an irreducible R_W), a
    VerificationError names its numbers and the spectrum.
    """
    _require_weight(W)
    depth = max(W.depth - 1, 0)
    n, size = W.spec.N, W.spec.N**depth
    check_cells(size * size)
    p, word = W.spec.weight_array(), np.arange(n * size)  # the words n v
    cells = (word % size, word // n)
    weighted = np.repeat(p, size) * _lift(W.values, n, depth + 1).real
    mat = np.zeros((size, size))
    np.add.at(mat, cells, weighted)
    mat.flat[:: size + 1] -= 1  # R_W - I + 1 mu^T, in place
    mat += functools.reduce(np.kron, [p] * depth, np.ones(1))
    try:
        vals = np.linalg.solve(mat, np.ones(size))
    except np.linalg.LinAlgError:  # a ValueError, which the CLI reads as bad input
        vals = np.full(size, np.nan)
    h = _new(W.spec, depth, vals + 0j)
    defect = density_defect(W, h)[1]
    if not defect:
        return h
    mat[:] = 0.0  # R_W again, in the same buffer
    np.add.at(mat, cells, weighted)
    spectrum = "the weight is not finite"
    if np.isfinite(mat).all():
        # by size, as it words the message, never the verdict: eigvals takes seconds past 512
        estimated = size > 512
        eigs = np.sort(np.abs(np.linalg.eigvals(_arnoldi(mat) if estimated else mat)))[::-1]
        ratio = eigs[1] / eigs[0] if len(eigs) > 1 and eigs[0] > 0 else 0.0
        spectrum = f"Perron eigenvalue {eigs[0]:.6g}, |lambda_2/lambda_1| {ratio:.3g}"
        spectrum += " (Arnoldi estimates)" if estimated else ""
    msg = f"no transfer-harmonic density ({defect}; {spectrum})"
    raise VerificationError(msg)


def _arnoldi(mat: np.ndarray) -> np.ndarray:
    """The Hessenberg matrix of up to ARNOLDI_STEPS Arnoldi steps from the constant vector."""
    basis = [np.full(len(mat), len(mat) ** -0.5)]
    hess = np.zeros((ARNOLDI_STEPS + 1, ARNOLDI_STEPS))
    for k in range(ARNOLDI_STEPS):
        v = mat @ basis[k]
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            c = np.array(basis) @ v
            v -= c @ basis
            hess[: k + 1, k] += c
        hess[k + 1, k] = np.linalg.norm(v)
        if hess[k + 1, k] <= 1e-12 * np.linalg.norm(hess[:, k]):  # an invariant subspace
            return hess[: k + 1, : k + 1]
        basis.append(v / hess[k + 1, k])
    return hess[:ARNOLDI_STEPS]
