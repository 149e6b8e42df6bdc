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
An operand of another depth than the bank's (a function, level or target)
meets it through code_space._rows: the shallower of the two is read as a
broadcast view, never copied up to the deeper depth.

A multiresolution level is one (K, N**d) array of K functions in leaf
order.  Analysis maps it to the (K*N, ...) array of their subbands with
one Gram product, and synthesis maps it back with one bank action, so an
L-level packet tree costs L calls each way, not one per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, VerificationError, below, check_cells
from . import jsonio
from .code_space import (CylinderFn, IfsSpec, _average, _depth, _integral, _lift,
                         _require_same_spec, _rows)
from .code_space import multiply  # noqa: F401, the perfbench tracer test reads it here

UNITARITY_TOL = 1e-13  # connecting_unitary: sup |U*U - I| of its field
RECOMBINATION_TOL = 1e-12  # connecting_unitary: sup |U . bank - target|


@dataclass(frozen=True, eq=False)
class _FunctionArray:
    """Cylinder functions of one depth, stored read-only with shape
    (N,) * AXES + (N**depth,) through ``jsonio.frozen``: an operation's own
    ``jsonio.Fresh`` view is adopted, any other array copied."""

    spec: IfsSpec
    values: np.ndarray
    AXES = 1

    def __post_init__(self):
        n, vals = self.spec.N, jsonio.frozen(self.values)
        size = vals.shape[-1] if vals.ndim else 0
        if vals.shape[:-1] != (n,) * self.AXES or _depth(size, n) < 0:
            raise InputError(f"expected shape {(n,) * self.AXES} + (N**depth,), got {vals.shape}")
        check_cells(size)
        object.__setattr__(self, "values", vals)

    @property
    def depth(self) -> int:
        return _depth(self.values.shape[-1], self.spec.N)

    @classmethod
    def from_cylinders(cls, spec: IfsSpec, fns: Sequence[CylinderFn]):
        """N**AXES cylinder functions in row-major order, lifted to their common depth."""
        if len(fns) != spec.N**cls.AXES:
            raise InputError(f"expected {spec.N**cls.AXES} functions, got {len(fns)}")
        _require_same_spec(spec, *[f.spec for f in fns])
        depth = max(f.depth for f in fns)
        values = np.array([_lift(f.values, spec.N, depth) for f in fns])
        return cls(spec, values.reshape((spec.N,) * cls.AXES + (-1,)))


class FilterBank(_FunctionArray):
    """An ordered N-tuple of candidate filters: row n of ``values`` is m_n."""

    @property
    def filters(self) -> tuple[CylinderFn, ...]:
        """The rows as cylinder functions, for callers that take single filters."""
        return tuple(CylinderFn(self.spec, self.depth, m) for m in self.values)

    def _by_symbol(self) -> np.ndarray:
        """(filter, first symbol, tail) view of the bank; a depth-0 bank is lifted to depth 1."""
        values = self.values if self.depth else _lift(self.values, self.spec.N, 1)
        return values.reshape(self.spec.N, self.spec.N, -1)

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

    @property
    def orthonormality_residual(self) -> float:
        return float(np.max(self.orthonormality))

    def to_json(self) -> dict:
        return {
            "orthonormality_matrix": [[float(x) for x in row] for row in self.orthonormality],
            "orthonormality_residual": self.orthonormality_residual,
            "completeness_residual": float(self.completeness),
            "pass": bool(self.passed),
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
    """S*(conj(a_j) b_k), shape (J, K, T), from (function, first symbol, tail) views,
    the shallower tails read through _rows: T is the deeper's.  Checks the product's cells."""
    check_cells(len(a) * len(b) * spec.N * max(a.shape[-1], b.shape[-1]))
    a, b = _rows(a, b)
    prod = np.conj(a)[:, None] * b[None]
    return _average(spec.weight_array(), prod.reshape(len(a), len(b), -1))


def _act(bank: FilterBank, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Depth and values of sum_j m_j (x_jk o sigma), in bank order, for x of shape (N, K, N**D).

    Each term is made in one reused array: x_jk o sigma is copied in from a
    broadcast view of x_jk, then multiplied in place by m_j, an
    (N, N**(L-1), 1) broadcast view over the symbols past the filter's
    depth.  The K functions made count against the cell cap."""
    n, k, width = bank.spec.N, x.shape[1], x.shape[-1]
    depth = max(bank.depth, _depth(width, n) + 1)
    check_cells(k * n**depth)
    m = bank._by_symbol()[..., None]
    acc = np.empty((k, n**depth), dtype=np.complex128)
    term = np.empty_like(acc)
    for j, (m_j, x_j) in enumerate(zip(m, x)):
        out = term if j else acc
        # a word is (first symbol, tail of depth D, rest); x_jk o sigma reads the tail
        np.copyto(out.reshape(k, n, width, -1), x_j[:, None, :, None])
        by_filter = out.reshape((k,) + m_j.shape[:2] + (-1,))
        np.multiply(m_j, by_filter, out=by_filter)
        if j:
            acc += term
    return depth, acc


def _tail_residual(bank: FilterBank, f: CylinderFn | None = None) -> float:
    """max |sum_n m_n(a t) (f(t) p_b conj(m_n(b t))) - f(t) delta_ab| over a, b
    and tails t, summed in bank order; f defaults to 1.  The shallower of the
    bank's tails and f is read through _rows: t is as long as the deeper."""
    n, m = bank.spec.N, bank._by_symbol()
    check_cells(n**3 * max(m.shape[-1], 1 if f is None else f.values.size))
    m, fv = (m[:, :, None], 1.0) if f is None else _rows(m, f.values)
    low = fv * (bank.spec.weight_array()[:, None, None] * np.conj(m))
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
    m = bank._by_symbol()
    orth = np.max(np.abs(_gram(bank.spec, m, m) - np.eye(bank.spec.N)[:, :, None]), axis=2)
    comp = _tail_residual(bank)
    return FilterReport(orth, comp, below(tol, orth.max(), comp))


def analysis(bank: FilterBank, level: np.ndarray) -> np.ndarray:
    """Subbands of a level of K functions of one depth, one depth lower.

    Row k*N + n of the (K*N, N**(d-1)) result is S*(conj(m_n) f_k), where
    f_k is row k of the (K, N**D) level and d = max(bank depth, D): the
    shallower of bank and level is read lifted to d, as a view; a depth-0
    level is (K, 1, 1).  The Gram product counts against the cell cap.
    """
    tails = level.reshape(len(level), min(bank.spec.N, level.shape[-1]), -1)
    parts = _gram(bank.spec, bank._by_symbol(), tails)  # (N, K, tail)
    return parts.transpose(1, 0, 2).reshape(-1, parts.shape[-1])


def synthesis(bank: FilterBank, level: np.ndarray) -> np.ndarray:
    """Recombine a level of K*N subbands: row k is sum_n m_n (level[k*N + n] o sigma).

    The K functions made, at depth max(bank depth, d + 1), count against
    the cell cap together.
    """
    n = bank.spec.N
    return _act(bank, level.reshape(-1, n, level.shape[-1]).transpose(1, 0, 2))[1]


def multires_decompose(
    bank: FilterBank, f: CylinderFn, levels: int, mode: str = "packet"
) -> list[np.ndarray]:
    """Iterated analysis, one ``analysis`` call per level: the leaves in leaf order.

    Leaf order is the depth-first order of the tree, band 1 first.  In
    packet mode every subband is split again, and the list holds one
    (N**levels, N**d) array.  In single-branch mode only band 1 is: the
    list holds the (1, N**d) core, then the N - 1 detail rows of each level
    from the deepest up.
    """
    if mode not in ("packet", "single"):
        raise InputError(f"unknown mode {mode!r}")
    if levels < 0:
        raise InputError("levels must be >= 0")
    if levels > f.depth:
        raise InputError(f"cannot run {levels} levels on a depth-{f.depth} function")
    _require_same_spec(bank.spec, f.spec)
    level, details = f.values[None], []
    for _ in range(levels):
        level = analysis(bank, level)
        if mode == "single":
            level, details = level[:1], [level[1:]] + details
    return [level] + details


def multires_reconstruct(bank: FilterBank, leaves: Sequence[np.ndarray]) -> CylinderFn:
    """Invert ``multires_decompose``: synthesis up the packet levels of the
    first array, then once per detail level, lifting core and details to
    their common depth."""
    n = bank.spec.N
    level = leaves[0]
    while len(level) > 1:
        level = synthesis(bank, level)
    for detail in leaves[1:]:
        depth = _depth(max(level.shape[-1], detail.shape[-1]), n)
        level = synthesis(bank, np.concatenate([_lift(level, n, depth), _lift(detail, n, depth)]))
    return CylinderFn(bank.spec, _depth(level.shape[-1], n), level[0])


def leaf_energies(spec: IfsSpec, leaves: Sequence[np.ndarray]) -> list[float]:
    """int |leaf|^2 dmu of every leaf in leaf order, each group through the
    stacked integral of ``integrate``: bit for bit ``integrate(leaf.abs2())``."""
    p = spec.weight_array()
    return [e for group in leaves for e in _integral(p, np.abs(group) ** 2 + 0j).real.tolist()]


def tree_json(spec: IfsSpec, leaves: Sequence[np.ndarray]) -> dict:
    """The nested {"children" | "leaf"} JSON of the tree ``multires_decompose`` walks."""

    def leaf(row: np.ndarray) -> dict:
        return {"leaf": CylinderFn(spec, _depth(len(row), spec.N), row).to_json()}

    def packet(rows: np.ndarray) -> dict:
        if len(rows) == 1:
            return leaf(rows[0])
        return {"children": [packet(part) for part in np.split(rows, spec.N)]}

    tree = packet(leaves[0])
    for detail in leaves[1:]:
        tree = {"children": [tree] + [leaf(row) for row in detail]}
    return tree


def connecting_unitary(bank: FilterBank, target: FilterBank, tol: float = 1e-10) -> MatrixField:
    """The matrix field U_jk = S*(conj(m_j) m~_k) carrying bank onto target.

    Both banks must verify; the result is checked to be pointwise unitary
    and to recombine the target exactly, each below its bound (a NaN fails).
    """
    _require_same_spec(bank.spec, target.spec)
    for b in (bank, target):
        report = verify_filter(b, probe_depth=max(1, b.depth), tol=tol)
        if not report.passed:
            raise VerificationError(
                "bank fails filter verification "
                f"(orthonormality {report.orthonormality_residual:.3e}, "
                f"completeness {report.completeness:.3e})"
            )
    field = MatrixField(bank.spec, _gram(bank.spec, bank._by_symbol(), target._by_symbol()))
    resid = field.unitarity_residual()
    if not below(UNITARITY_TOL, resid):
        raise VerificationError(f"connecting field not pointwise unitary: {resid:.3e}")
    recombined = apply_loop_group(bank, field).values  # at depth max(L, L~, 1)
    recomb = float(np.max(np.abs(np.subtract(*_rows(recombined, target.values)))))
    if not below(RECOMBINATION_TOL, recomb):
        raise VerificationError(f"connecting field fails to recombine target: {recomb:.3e}")
    return field


def apply_loop_group(bank: FilterBank, field: MatrixField) -> FilterBank:
    """Act on the bank: m~_k = sum_j m_j (U_jk o sigma).

    For a pointwise-unitary field the image verifies again; the caller is
    expected to check otherwise.
    """
    _require_same_spec(bank.spec, field.spec)
    if not np.all(np.isfinite(field.values)):
        raise InputError("matrix field entries must be finite")
    return FilterBank(bank.spec, _act(bank, field.values)[1].view(jsonio.Fresh))


def endomorphism_check(bank: FilterBank, f: CylinderFn, probe_depth: int = 2) -> float:
    """Residual of sum_n S_n (f . S_n* g) = (f o sigma) g over all g.

    Zero for verified banks: conjugation by the bank's isometries carries
    multiplication by f to multiplication by f o sigma.  The residual is
    max |sum_n m_n(a t) f(t) p_b conj(m_n(b t)) - f(t) delta_ab| over words
    a t of depth max(bank depth, f.depth + 1); ``probe_depth`` changes
    neither the result nor the cost.
    """
    _require_same_spec(bank.spec, f.spec)
    if probe_depth < 1:
        raise InputError("probe depth must be >= 1")
    return _tail_residual(bank, f)
