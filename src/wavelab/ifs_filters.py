"""Filter banks on the code space and the unitary actions connecting them.

A bank is an N-tuple of cylinder functions (m_1..m_N) whose weighted
composition operators S_{m_j} f = m_j (f o sigma) are meant to be a family
of isometries with orthogonal ranges summing to the identity.  The two
defining conditions are checked exactly on cylinder functions:

  (1) orthonormality   S*(conj(m_j) m_k) = delta_jk
  (2) completeness     f = sum_n m_n E(conj(m_n) f) for every cylinder f

Completeness holds iff R_ab(t) = sum_n m_n(a t) p_b conj(m_n(b t)) equals
delta_ab for all first symbols a, b and tails t of the bank's depth L.
Every indicator probe only picks out entries of this per-tail array, so
one O(N**2 N**L) pass checks every probe depth at once.

Built-in constructions: the roots-of-unity bank (values eps**(n*l) on the
depth-1 cylinders, eps = exp(2 pi i / N), uniform weights only) and the
indicator bank m_n = 1_[n] / sqrt(p_n), which works for any weights.

Two verified banks are connected by the matrix field U_jk = S*(conj(m_j)
m~_k), pointwise unitary, and the group of pointwise-unitary matrix
fields acts on banks by m~_k = sum_j m_j (U_jk o sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InputError,
    ModuleBasisError,
    PreconditionError,
    SpecMismatchError,
    UnsupportedConstructionError,
    VerificationError,
)
from .code_space import (
    CylinderFn,
    IfsSpec,
    adjoint_sigma,
    compose_sigma,
    conditional_expectation,
    integrate,
    lift,
    multiply,
    precompose_branch,
    sup_distance,
    weighted_adjoint,
    weighted_compose,
    _check_cells,
    _lift_values,
)

GRAM_SCHMIDT_SUPPORT_EPS = 1e-12
GRAM_SCHMIDT_RESIDUAL_EPS = 1e-10


@dataclass(frozen=True)
class FilterBank:
    """An ordered N-tuple of candidate filters over a common spec."""

    spec: IfsSpec
    filters: tuple[CylinderFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if len(self.filters) != self.spec.N:
            raise InputError(
                f"bank needs exactly {self.spec.N} filters, got {len(self.filters)}"
            )
        for m in self.filters:
            if m.spec != self.spec:
                raise SpecMismatchError("filter spec differs from bank spec")

    @property
    def max_depth(self) -> int:
        return max(m.depth for m in self.filters)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "filters": [m.to_json() for m in self.filters],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FilterBank":
        spec = IfsSpec.from_json(obj["spec"])
        filters = tuple(CylinderFn.from_json(f) for f in obj["filters"])
        return cls(spec, filters)


@dataclass(frozen=True)
class MatrixField:
    """An N x N matrix of cylinder functions, one matrix per point."""

    spec: IfsSpec
    entries: tuple[tuple[CylinderFn, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        n = self.spec.N
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError(f"matrix field must be {n} x {n}")
        for row in rows:
            for e in row:
                if e.spec != self.spec:
                    raise SpecMismatchError("entry spec differs from field spec")
        object.__setattr__(self, "entries", rows)

    @property
    def max_depth(self) -> int:
        return max(e.depth for row in self.entries for e in row)

    @classmethod
    def from_matrix(cls, spec: IfsSpec, matrix) -> "MatrixField":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (spec.N, spec.N):
            raise InputError(f"expected a {spec.N} x {spec.N} matrix")
        return cls(
            spec,
            tuple(
                tuple(CylinderFn.constant(spec, z) for z in row) for row in matrix
            ),
        )

    @classmethod
    def identity(cls, spec: IfsSpec) -> "MatrixField":
        return cls.from_matrix(spec, np.eye(spec.N))

    def stacked(self) -> np.ndarray:
        """Entries lifted to a common depth, shape (N, N, N**depth)."""
        depth = self.max_depth
        n = self.spec.N
        return np.array(
            [[_lift_values(e, depth) for e in row] for row in self.entries]
        ).reshape(n, n, -1)

    def unitarity_residual(self) -> float:
        """max over words of max-abs entries of M(x)* M(x) - I."""
        m = self.stacked()
        gram = np.einsum("jkw,jlw->klw", np.conj(m), m)
        gram[np.arange(self.spec.N), np.arange(self.spec.N), :] -= 1.0
        return float(np.max(np.abs(gram)))

    def matmul(self, other: "MatrixField") -> "MatrixField":
        if self.spec != other.spec:
            raise SpecMismatchError("matrix fields over different systems")
        n = self.spec.N
        rows = []
        for j in range(n):
            row = []
            for k in range(n):
                acc = multiply(self.entries[j][0], other.entries[0][k])
                for l in range(1, n):
                    acc = acc + multiply(self.entries[j][l], other.entries[l][k])
                row.append(acc)
            rows.append(tuple(row))
        return MatrixField(self.spec, tuple(rows))

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixField":
        spec = IfsSpec.from_json(obj["spec"])
        entries = tuple(
            tuple(CylinderFn.from_json(e) for e in row) for row in obj["entries"]
        )
        return cls(spec, entries)


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
        raise UnsupportedConstructionError(
            "the roots-of-unity bank is orthonormal only for uniform weights"
        )
    n = spec.N
    eps = np.exp(2j * np.pi / n)
    filters = []
    for row in range(1, n + 1):
        vals = eps ** (row * np.arange(1, n + 1))
        filters.append(CylinderFn(spec, 1, vals))
    return FilterBank(spec, tuple(filters))


def build_indicator(spec: IfsSpec) -> FilterBank:
    """Disjoint-support depth-1 bank m_n = 1_[n] / sqrt(p_n)."""
    filters = []
    for branch in range(1, spec.N + 1):
        vals = np.zeros(spec.N, dtype=complex)
        vals[branch - 1] = 1.0 / np.sqrt(spec.weights[branch - 1])
        filters.append(CylinderFn(spec, 1, vals))
    return FilterBank(spec, tuple(filters))


def _tail_residual(bank: FilterBank, depth: int, f: CylinderFn | None = None) -> float:
    """max |sum_n m_n(a t) (f(t) p_b conj(m_n(b t))) - f(t) delta_ab| over a, b
    and tails t of length depth - 1, summed in bank order; f defaults to 1."""
    n = bank.spec.N
    _check_cells(n ** (depth + 1))
    p = bank.spec.weight_array()[:, None]
    fv = 1.0 if f is None else _lift_values(f, depth - 1)
    out = np.zeros((n, n, n ** (depth - 1)), dtype=complex)
    for m in bank.filters:
        mv = _lift_values(m, depth).reshape(n, -1)
        low = fv * (p * np.conj(mv))
        out += mv[:, None, :] * low[None, :, :]
    diag = np.arange(n)
    out[diag, diag] -= fv
    return float(np.max(np.abs(out)))


def verify_filter(bank: FilterBank, probe_depth: int = 3, tol: float = 1e-12) -> FilterReport:
    """Check both filter conditions and report residuals.

    Completeness is max |R - delta| over the bank's per-tail array (module
    docstring), so ``probe_depth`` changes neither the result nor the cost.
    The array's N**(L+1) cells count against the cell cap (CapacityError).
    """
    if probe_depth < 1:
        raise InputError("probe depth must be >= 1")
    n = bank.spec.N
    orth = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            r = adjoint_sigma(multiply(bank.filters[j].conj(), bank.filters[k]))
            delta = 1.0 if j == k else 0.0
            orth[j, k] = float(np.max(np.abs(r.values - delta)))
    comp = _tail_residual(bank, max(bank.max_depth, 1))
    passed = bool(orth.max() < tol and comp < tol)
    return FilterReport(orth, comp, passed, tol, probe_depth)


def analysis(bank: FilterBank, f: CylinderFn) -> tuple[CylinderFn, ...]:
    """Subband projections f_n = S*(conj(m_n) f), one depth lower."""
    if f.spec != bank.spec:
        raise SpecMismatchError("function spec differs from bank spec")
    if f.depth < 1:
        raise InputError("analysis needs depth >= 1")
    return tuple(weighted_adjoint(m, f) for m in bank.filters)


def synthesis(bank: FilterBank, parts: Sequence[CylinderFn]) -> CylinderFn:
    """Recombine subbands: sum_n m_n (part_n o sigma)."""
    parts = tuple(parts)
    if len(parts) != bank.spec.N:
        raise InputError(f"expected {bank.spec.N} subbands, got {len(parts)}")
    acc = weighted_compose(bank.filters[0], parts[0])
    for m, part in zip(bank.filters[1:], parts[1:]):
        acc = acc + weighted_compose(m, part)
    return acc


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

    @classmethod
    def from_json(cls, obj: dict) -> "CoefficientTree":
        if "leaf" in obj:
            return cls(leaf=CylinderFn.from_json(obj["leaf"]))
        return cls(children=tuple(cls.from_json(c) for c in obj["children"]))


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
    dependent and raises ModuleBasisError.
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
            raise SpecMismatchError("generator spec mismatch")
        r = g
        for m in accepted:
            r = r - multiply(m, conditional_expectation(multiply(m.conj(), g)))
        norm = np.sqrt(max(integrate(r.abs2()).real, 0.0))
        if norm < GRAM_SCHMIDT_RESIDUAL_EPS:
            raise ModuleBasisError(
                f"generator {k + 1} lies in the module span of its predecessors"
            )
        d = conditional_expectation(r.abs2())
        rv, dv, depth = _lift_values(r, max(r.depth, d.depth)), _lift_values(d, max(r.depth, d.depth)), max(r.depth, d.depth)
        mask = dv.real > GRAM_SCHMIDT_SUPPORT_EPS
        vals = np.where(mask, rv / np.sqrt(np.where(mask, dv.real, 1.0)), 1.0)
        accepted.append(CylinderFn(spec, depth, vals))
    return FilterBank(spec, tuple(accepted))


def _require_verified(bank: FilterBank, tol: float, probe_depth: int | None = None) -> None:
    if probe_depth is None:
        probe_depth = max(1, bank.max_depth)
    report = verify_filter(bank, probe_depth=probe_depth, tol=tol)
    if not report.passed:
        raise PreconditionError(
            "bank fails filter verification "
            f"(orthonormality {report.orthonormality_residual:.3e}, "
            f"completeness {report.completeness:.3e})"
        )


def connecting_unitary(
    bank: FilterBank,
    target: FilterBank,
    tol: float = 1e-10,
    unitarity_tol: float = 1e-13,
    recombination_tol: float = 1e-12,
) -> MatrixField:
    """The matrix field U_jk = S*(conj(m_j) m~_k) carrying bank onto target.

    Both banks must verify; the result is checked to be pointwise unitary
    and to recombine the target exactly.
    """
    if bank.spec != target.spec:
        raise SpecMismatchError("banks over different systems")
    _require_verified(bank, tol)
    _require_verified(target, tol)
    n = bank.spec.N
    rows = tuple(
        tuple(
            adjoint_sigma(multiply(bank.filters[j].conj(), target.filters[k]))
            for k in range(n)
        )
        for j in range(n)
    )
    field = MatrixField(bank.spec, rows)
    resid = field.unitarity_residual()
    if resid > unitarity_tol:
        raise VerificationError(f"connecting field not pointwise unitary: {resid:.3e}")
    recombined = apply_loop_group(bank, field)
    recomb = max(
        sup_distance(a, b) for a, b in zip(recombined.filters, target.filters)
    )
    if recomb > recombination_tol:
        raise VerificationError(f"connecting field fails to recombine target: {recomb:.3e}")
    return field


def apply_loop_group(bank: FilterBank, field: MatrixField) -> FilterBank:
    """Act on the bank: m~_k = sum_j m_j (U_jk o sigma).

    For a pointwise-unitary field the image verifies again; the caller is
    expected to check otherwise.
    """
    if bank.spec != field.spec:
        raise SpecMismatchError("field spec differs from bank spec")
    for row in field.entries:
        for e in row:
            if not np.all(np.isfinite(e.values.view(float))):
                raise InputError("matrix field entries must be finite")
    n = bank.spec.N
    new_filters = []
    for k in range(n):
        acc = multiply(bank.filters[0], compose_sigma(field.entries[0][k]))
        for j in range(1, n):
            acc = acc + multiply(bank.filters[j], compose_sigma(field.entries[j][k]))
        new_filters.append(acc)
    return FilterBank(bank.spec, tuple(new_filters))


def matrix_field(bank: FilterBank) -> MatrixField:
    """Modulation matrix M_jk = sqrt(p_k) m_j(tau_k .), unitary iff the bank is a filter."""
    scale = np.sqrt(bank.spec.weight_array())
    rows = tuple(
        tuple(precompose_branch(m, k + 1) * s for k, s in enumerate(scale))
        for m in bank.filters
    )
    return MatrixField(bank.spec, rows)


def endomorphism_check(bank: FilterBank, f: CylinderFn, probe_depth: int = 2) -> float:
    """Residual of sum_n S_n (f . S_n* g) = (f o sigma) g over all g.

    Zero for verified banks: conjugation by the bank's isometries carries
    multiplication by f to multiplication by f o sigma.  The residual is
    max |sum_n m_n(a t) f(t) p_b conj(m_n(b t)) - f(t) delta_ab| over words
    a t of depth max(bank depth, f.depth + 1); ``probe_depth`` changes
    neither the result nor the cost.
    """
    if f.spec != bank.spec:
        raise SpecMismatchError("function spec differs from bank spec")
    if probe_depth < 1:
        raise InputError("probe depth must be >= 1")
    return _tail_residual(bank, max(bank.max_depth, f.depth + 1), f)
