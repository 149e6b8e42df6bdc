"""Filter banks on the code space and the unitary actions connecting them.

A bank is an N-tuple of cylinder functions (m_1..m_N) whose weighted
composition operators S_{m_j} f = m_j (f o sigma) are meant to be a family
of isometries with orthogonal ranges summing to the identity.  In memory a
bank is one read-only (N, N**L) array at its common depth L and a matrix
field one (N, N, N**D) array; the JSON keeps one cylinder per filter or
entry, lifted to the common depth on loading.  The two defining
conditions are checked exactly on cylinder functions:

  (1) orthonormality   S*(conj(m_j) m_k) = delta_jk
  (2) completeness     f = sum_n m_n E(conj(m_n) f) for every cylinder f

Completeness holds iff R_ab(t) = sum_n m_n(a t) p_b conj(m_n(b t)) equals
delta_ab for all first symbols a, b and tails t of the bank's depth L.
Every indicator probe only picks out entries of this per-tail array, so
one O(N**2 N**L) pass checks every probe depth at once.

Two verified banks are connected by the matrix field U_jk = S*(conj(m_j)
m~_k), pointwise unitary, and the group of pointwise-unitary matrix
fields acts on banks by m~_k = sum_j m_j (U_jk o sigma).  Orthonormality,
the connecting field and analysis are the Gram array S*(conj(a_j) b_k);
sums over the filter axis run in bank order, bit for bit as filter by filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, VerificationError
from .code_space import (
    CylinderFn,
    IfsSpec,
    conditional_expectation,
    integrate,
    multiply,
    _check_cells,
    _lift_values,
)

GRAM_SCHMIDT_SUPPORT_EPS = 1e-12
GRAM_SCHMIDT_RESIDUAL_EPS = 1e-10
UNITARITY_TOL = 1e-13  # connecting_unitary: sup |U*U - I| of its field
RECOMBINATION_TOL = 1e-12  # connecting_unitary: sup |U . bank - target|


def _lift(values: np.ndarray, n: int, depth: int) -> np.ndarray:
    """Functions stored along the last axis, as functions of the first depth symbols."""
    reps = n**depth // values.shape[-1]
    if reps == 1:
        return values
    _check_cells(values.shape[-1] * reps)
    return np.repeat(values, reps, axis=-1)


@dataclass(frozen=True, eq=False)
class _FunctionArray:
    """Cylinder functions of one depth, stored read-only with shape
    (N,) * AXES + (N**depth,)."""

    spec: IfsSpec
    values: np.ndarray
    AXES = 1

    def __post_init__(self):
        n = self.spec.N
        vals = np.array(self.values, dtype=np.complex128)
        size = vals.shape[-1] if vals.ndim else 0
        if size < 1 or vals.shape != (n,) * self.AXES + (n ** round(math.log(size, n)),):
            raise InputError(f"expected shape {(n,) * self.AXES} + (N**depth,), got {vals.shape}")
        _check_cells(size)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def depth(self) -> int:
        return round(math.log(self.values.shape[-1], self.spec.N))

    @classmethod
    def from_cylinders(cls, spec: IfsSpec, fns: Sequence[CylinderFn]):
        """N**AXES cylinder functions in row-major order, lifted to their common depth."""
        if len(fns) != spec.N**cls.AXES:
            raise InputError(f"expected {spec.N**cls.AXES} functions, got {len(fns)}")
        if any(f.spec != spec for f in fns):
            raise InputError("function spec differs from the bank or field spec")
        depth = max(f.depth for f in fns)
        values = np.array([_lift_values(f, depth) for f in fns])
        return cls(spec, values.reshape((spec.N,) * cls.AXES + (-1,)))


class FilterBank(_FunctionArray):
    """An ordered N-tuple of candidate filters: row n of ``values`` is m_n."""

    @property
    def filters(self) -> tuple[CylinderFn, ...]:
        """The rows as cylinder functions, for callers that take single filters."""
        return tuple(CylinderFn(self.spec, self.depth, m) for m in self.values)

    def _by_symbol(self, depth: int) -> np.ndarray:
        """(filter, first symbol, tail) view of the bank lifted to depth >= 1."""
        return _lift(self.values, self.spec.N, depth).reshape(self.spec.N, self.spec.N, -1)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "filters": [m.to_json() for m in self.filters],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FilterBank":
        spec = IfsSpec.from_json(obj["spec"])
        return cls.from_cylinders(spec, [CylinderFn.from_json(f) for f in obj["filters"]])


class MatrixField(_FunctionArray):
    """An N x N matrix of cylinder functions, one matrix per point: values[j, k] is U_jk."""

    AXES = 2

    @classmethod
    def from_matrix(cls, spec: IfsSpec, matrix) -> "MatrixField":
        return cls(spec, np.asarray(matrix, dtype=complex)[..., None])

    def unitarity_residual(self) -> float:
        """max over words of max-abs entries of M(x)* M(x) - I."""
        m = self.values
        gram = np.einsum("jkw,jlw->klw", np.conj(m), m)
        gram[np.arange(self.spec.N), np.arange(self.spec.N), :] -= 1.0
        return float(np.max(np.abs(gram)))

    def to_json(self) -> dict:
        depth = self.depth
        rows = [[CylinderFn(self.spec, depth, e).to_json() for e in row] for row in self.values]
        return {"spec": self.spec.to_json(), "entries": rows}

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixField":
        spec = IfsSpec.from_json(obj["spec"])
        rows = obj["entries"]
        if any(len(row) != spec.N for row in rows):
            raise InputError(f"matrix field must be {spec.N} x {spec.N}")
        return cls.from_cylinders(spec, [CylinderFn.from_json(e) for row in rows for e in row])


@dataclass(frozen=True)
class FilterReport:
    """Verification outcome: residual of each defining condition."""

    orthonormality: np.ndarray  # (N, N) max-abs residual of S*(conj(m_j) m_k) - delta
    completeness: float
    passed: bool
    tol: float
    probe_depth: int

    @property
    def orthonormality_residual(self) -> float:
        return float(np.max(self.orthonormality))

    def to_json(self) -> dict:
        return {
            "orthonormality_matrix": [[float(x) for x in row] for row in self.orthonormality],
            "orthonormality_residual": self.orthonormality_residual,
            "completeness_residual": float(self.completeness),
            "pass": bool(self.passed),
            "tol": float(self.tol),
            "probe_depth": int(self.probe_depth),
        }


def build_roots_of_unity(spec: IfsSpec) -> FilterBank:
    """Depth-1 bank with value eps**(n*l) on cylinder [l], eps = e^(2 pi i/N).

    Orthonormality relies on all branches carrying equal weight, so
    nonuniform specs are rejected.
    """
    if not spec.uniform:
        raise InputError(
            "the roots-of-unity bank is orthonormal only for uniform weights"
        )
    symbols = np.arange(1, spec.N + 1)
    return FilterBank(spec, np.exp(2j * np.pi / spec.N) ** np.outer(symbols, symbols))


def build_indicator(spec: IfsSpec) -> FilterBank:
    """Disjoint-support depth-1 bank m_n = 1_[n] / sqrt(p_n)."""
    return FilterBank(spec, np.diag(1.0 / np.sqrt(spec.weight_array())))


def _gram(spec: IfsSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S*(conj(a_j) b_k), shape (J, K, T), from (function, first symbol, tail) views."""
    _check_cells(len(a) * b.size)
    prod = np.conj(a)[:, None] * b[None]
    gram = spec.weight_array() @ prod.reshape(-1, spec.N, a.shape[-1])
    return gram.reshape(len(a), len(b), -1)


def _act(bank: FilterBank, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Depth and values of sum_j m_j (x_jk o sigma), in bank order, for x of shape (N, K, N**D)."""
    n = bank.spec.N
    depth = max(bank.depth, round(math.log(x.shape[-1], n)) + 1)
    _check_cells(n**depth)
    m = _lift(bank.values, n, depth)[:, None]
    return depth, (m * _lift(np.tile(x, n), n, depth)).sum(axis=0)


def _tail_residual(bank: FilterBank, depth: int, f: CylinderFn | None = None) -> float:
    """max |sum_n m_n(a t) (f(t) p_b conj(m_n(b t))) - f(t) delta_ab| over a, b
    and tails t of length depth - 1, summed in bank order; f defaults to 1."""
    n = bank.spec.N
    _check_cells(n ** (depth + 2))
    p = bank.spec.weight_array()[:, None]
    fv = 1.0 if f is None else _lift_values(f, depth - 1)
    m = bank._by_symbol(depth)
    low = fv * (p * np.conj(m))
    out = (m[:, :, None] * low[:, None]).sum(axis=0)
    out[np.diag_indices(n)] -= fv
    return float(np.max(np.abs(out)))


def verify_filter(bank: FilterBank, probe_depth: int = 3, tol: float = 1e-12) -> FilterReport:
    """Check both filter conditions and report residuals.

    Completeness is max |R - delta| over the bank's per-tail array (module
    docstring), so ``probe_depth`` changes neither the result nor the cost.
    The N**(L+2) cells of the products behind either residual count
    against the cell cap (InputError).
    """
    if probe_depth < 1:
        raise InputError("probe depth must be >= 1")
    n, depth = bank.spec.N, max(bank.depth, 1)
    gram = _gram(bank.spec, bank._by_symbol(depth), bank._by_symbol(depth))
    orth = np.max(np.abs(gram - np.eye(n)[:, :, None]), axis=2)
    comp = _tail_residual(bank, depth)
    passed = bool(orth.max() < tol and comp < tol)
    return FilterReport(orth, comp, passed, tol, probe_depth)


def analysis(bank: FilterBank, f: CylinderFn) -> tuple[CylinderFn, ...]:
    """Subband projections f_n = S*(conj(m_n) f), one depth lower."""
    if f.spec != bank.spec:
        raise InputError("function spec differs from bank spec")
    if f.depth < 1:
        raise InputError("analysis needs depth >= 1")
    depth = max(bank.depth, f.depth)
    fv = _lift_values(f, depth).reshape(1, bank.spec.N, -1)
    parts = _gram(bank.spec, bank._by_symbol(depth), fv)[:, 0]
    return tuple(CylinderFn(bank.spec, depth - 1, part) for part in parts)


def synthesis(bank: FilterBank, parts: Sequence[CylinderFn]) -> CylinderFn:
    """Recombine subbands: sum_n m_n (part_n o sigma)."""
    subbands = FilterBank.from_cylinders(bank.spec, list(parts))
    depth, out = _act(bank, subbands.values[:, None])
    return CylinderFn(bank.spec, depth, out[0])


@dataclass(frozen=True)
class CoefficientTree:
    """A leaf holds coefficients; an inner node holds one subtree per band."""

    leaf: CylinderFn | None = None
    children: tuple["CoefficientTree", ...] = ()

    def __post_init__(self):
        if (self.leaf is None) == (len(self.children) == 0):
            raise InputError("tree node must hold either a leaf or children")

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def leaves(self):
        if self.is_leaf:
            yield self.leaf
        else:
            for child in self.children:
                yield from child.leaves()

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"leaf": self.leaf.to_json()}
        return {"children": [c.to_json() for c in self.children]}


def multires_decompose(
    bank: FilterBank, f: CylinderFn, levels: int, mode: str = "packet"
) -> CoefficientTree:
    """Iterated analysis: full packet tree, or cascade on the first band.

    In packet mode every subband is split again; in single-branch mode only
    band 1 is, and the other subbands stay as detail leaves.
    """
    if mode not in ("packet", "single"):
        raise InputError(f"unknown mode {mode!r}")
    if levels < 0:
        raise InputError("levels must be >= 0")
    if levels > f.depth:
        raise InputError(f"cannot run {levels} levels on a depth-{f.depth} function")
    if levels == 0:
        return CoefficientTree(leaf=f)
    parts = analysis(bank, f)
    if mode == "packet":
        children = tuple(multires_decompose(bank, p, levels - 1, mode) for p in parts)
    else:
        children = (multires_decompose(bank, parts[0], levels - 1, mode),) + tuple(
            CoefficientTree(leaf=p) for p in parts[1:]
        )
    return CoefficientTree(children=children)


def multires_reconstruct(bank: FilterBank, tree: CoefficientTree) -> CylinderFn:
    if tree.is_leaf:
        return tree.leaf
    parts = [multires_reconstruct(bank, child) for child in tree.children]
    return synthesis(bank, parts)


def gram_schmidt_module(generators: Sequence[CylinderFn]) -> FilterBank:
    """Orthonormalize N generators as a module basis over shift composites.

    Step k subtracts the projections m_j E(conj(m_j) g_k) of the already
    accepted filters, then normalizes the residual r pointwise by
    sqrt(E|r|^2) on the set where that expectation exceeds
    GRAM_SCHMIDT_SUPPORT_EPS and pads with 1 elsewhere.  A residual with
    L2 norm below GRAM_SCHMIDT_RESIDUAL_EPS means the generators are
    dependent and raises VerificationError.
    """
    generators = tuple(generators)
    if not generators:
        raise InputError("no generators given")
    spec = generators[0].spec
    if len(generators) != spec.N:
        raise InputError(f"expected {spec.N} generators, got {len(generators)}")
    accepted: list[CylinderFn] = []
    for k, g in enumerate(generators):
        if g.spec != spec:
            raise InputError("generator spec mismatch")
        r = g
        for m in accepted:
            r = r - multiply(m, conditional_expectation(multiply(m.conj(), g)))
        norm = np.sqrt(max(integrate(r.abs2()).real, 0.0))
        if norm < GRAM_SCHMIDT_RESIDUAL_EPS:
            raise VerificationError(
                f"generator {k + 1} lies in the module span of its predecessors"
            )
        dv = conditional_expectation(r.abs2()).values.real  # at the depth of r
        mask = dv > GRAM_SCHMIDT_SUPPORT_EPS
        vals = np.where(mask, r.values / np.sqrt(np.where(mask, dv, 1.0)), 1.0)
        accepted.append(CylinderFn(spec, r.depth, vals))
    return FilterBank.from_cylinders(spec, accepted)


def connecting_unitary(bank: FilterBank, target: FilterBank, tol: float = 1e-10) -> MatrixField:
    """The matrix field U_jk = S*(conj(m_j) m~_k) carrying bank onto target.

    Both banks must verify; the result is checked to be pointwise unitary
    and to recombine the target exactly.
    """
    if bank.spec != target.spec:
        raise InputError("banks over different systems")
    for b in (bank, target):
        report = verify_filter(b, probe_depth=max(1, b.depth), tol=tol)
        if not report.passed:
            raise VerificationError(
                "bank fails filter verification "
                f"(orthonormality {report.orthonormality_residual:.3e}, "
                f"completeness {report.completeness:.3e})"
            )
    depth = max(bank.depth, target.depth, 1)
    gram = _gram(bank.spec, bank._by_symbol(depth), target._by_symbol(depth))
    field = MatrixField(bank.spec, gram)
    resid = field.unitarity_residual()
    if resid > UNITARITY_TOL:
        raise VerificationError(f"connecting field not pointwise unitary: {resid:.3e}")
    recombined = apply_loop_group(bank, field)  # at depth max(L, L~)
    lifted = _lift(target.values, bank.spec.N, recombined.depth)
    recomb = float(np.max(np.abs(recombined.values - lifted)))
    if recomb > RECOMBINATION_TOL:
        raise VerificationError(f"connecting field fails to recombine target: {recomb:.3e}")
    return field


def apply_loop_group(bank: FilterBank, field: MatrixField) -> FilterBank:
    """Act on the bank: m~_k = sum_j m_j (U_jk o sigma).

    For a pointwise-unitary field the image verifies again; the caller is
    expected to check otherwise.
    """
    if bank.spec != field.spec:
        raise InputError("field spec differs from bank spec")
    if not np.all(np.isfinite(field.values)):
        raise InputError("matrix field entries must be finite")
    return FilterBank(bank.spec, _act(bank, field.values)[1])


def endomorphism_check(bank: FilterBank, f: CylinderFn, probe_depth: int = 2) -> float:
    """Residual of sum_n S_n (f . S_n* g) = (f o sigma) g over all g.

    Zero for verified banks: conjugation by the bank's isometries carries
    multiplication by f to multiplication by f o sigma.  The residual is
    max |sum_n m_n(a t) f(t) p_b conj(m_n(b t)) - f(t) delta_ab| over words
    a t of depth max(bank depth, f.depth + 1); ``probe_depth`` changes
    neither the result nor the cost.
    """
    if f.spec != bank.spec:
        raise InputError("function spec differs from bank spec")
    if probe_depth < 1:
        raise InputError("probe depth must be >= 1")
    return _tail_residual(bank, max(bank.depth, f.depth + 1), f)
