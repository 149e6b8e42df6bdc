"""Path-space moments over the inverse limit of the shift.

Points of the inverse limit are sequences (x_0, x_1, ...) with
sigma(x_{n+1}) = x_n.  They are never materialized: a path observable is
kept symbolically as a sum of products of coordinate pulls

    F = sum_terms coeff * prod_n (g_n o pi_n),

and every statement about the path measure P attached to a weight W and
an R_W-harmonic density h is evaluated through the nested-transfer moment
formula

    E_P[ prod (f_n o pi_n) ] = int f_0 R_W(f_1 R_W(... R_W(f_K h))) dmu.

The two-sided shift acts by pure index rewriting: pi_n o shift = pi_(n-1)
for n >= 1 while pi_0 o shift = sigma o pi_0, and the inverse raises all
indices by one.  The weighted shift F -> (m o pi_0) (F o shift) dilates
the weighted composition operator S_m; its inverse divides by m o pi_1
and therefore requires m bounded away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import InputError, VerificationError
from .code_space import (
    CylinderFn,
    IfsSpec,
    compose_sigma,
    density_defect,
    harmonic_solve,
    integrate,
    multiply,
    ruelle_apply,
    shift_iterate,
    weighted_adjoint,
    weighted_compose,
)

HARMONIC_TOL = 1e-12
NONVANISHING_TOL = 1e-12


@dataclass(frozen=True)
class PathCylinderFn:
    """Finite sum of coordinate products, the observables of the path space.

    A term is ``(coeff, slots)``: ``slots[n]`` is the factor g_n pulled
    through coordinate n, None stands for the constant 1, and trailing
    Nones are trimmed, so a constant term has ``slots == ()``.
    """

    spec: IfsSpec
    terms: tuple[tuple[complex, tuple[CylinderFn | None, ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for _, slots in self.terms:
            for g in slots:
                if g is not None and g.spec != self.spec:
                    raise InputError("factor spec differs from path spec")

    # -- constructors ------------------------------------------------------
    @classmethod
    def coordinate(cls, n: int, g: CylinderFn) -> "PathCylinderFn":
        """The pull g o pi_n of a base function through coordinate n."""
        if n < 0:
            raise InputError("coordinate index must be >= 0")
        return cls(g.spec, ((1 + 0j, (None,) * n + (g,)),))

    @classmethod
    def constant(cls, spec: IfsSpec, value: complex) -> "PathCylinderFn":
        return cls(spec, ((complex(value), ()),))

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "PathCylinderFn") -> "PathCylinderFn":
        if self.spec != other.spec:
            raise InputError("path functions over different systems")
        return PathCylinderFn(self.spec, self.terms + other.terms)

    def __sub__(self, other: "PathCylinderFn") -> "PathCylinderFn":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            terms = tuple((complex(c * other), s) for c, s in self.terms)
            return PathCylinderFn(self.spec, terms)
        if self.spec != other.spec:
            raise InputError("path functions over different systems")
        terms = tuple(
            (c * d, tuple(map(_times, s, t)) + s[len(t) :] + t[len(s) :])
            for c, s in self.terms
            for d, t in other.terms
        )
        return PathCylinderFn(self.spec, terms)

    __rmul__ = __mul__

    def conj(self) -> "PathCylinderFn":
        terms = tuple(
            (c.conjugate(), tuple(None if g is None else g.conj() for g in s))
            for c, s in self.terms
        )
        return PathCylinderFn(self.spec, terms)

    # -- shift actions -------------------------------------------------------
    def compose_shift(self) -> "PathCylinderFn":
        """F o shift: indices drop by one, coordinate 0 picks up sigma."""
        terms = []
        for c, s in self.terms:
            if s:
                head = None if s[0] is None else compose_sigma(s[0])
                s = (_times(head, s[1]),) + s[2:] if len(s) > 1 else (head,)
            terms.append((c, s))
        return PathCylinderFn(self.spec, tuple(terms))

    def compose_shift_inverse(self) -> "PathCylinderFn":
        """F o shift^{-1}: every coordinate index rises by one."""
        terms = tuple((c, (None,) + s if s else s) for c, s in self.terms)
        return PathCylinderFn(self.spec, terms)

    # -- normal form -----------------------------------------------------------
    def collapse(self) -> tuple[int, CylinderFn]:
        """Rewrite as a single pull (G o pi_M) through the top coordinate.

        Uses g o pi_n = (g o sigma^(M-n)) o pi_M, which is faithful because
        the top coordinate determines all lower ones.
        """
        top = max([len(s) - 1 for _, s in self.terms] + [0])
        total = CylinderFn.constant(self.spec, 0.0)
        for c, s in self.terms:
            acc = CylinderFn.constant(self.spec, c)
            for n, g in enumerate(s):
                if g is not None:
                    acc = multiply(acc, shift_iterate(g, top - n))
            total = total + acc
        return top, total


def _times(a: CylinderFn | None, b: CylinderFn | None) -> CylinderFn | None:
    """The product of two slots, the left factor first; None is 1."""
    if a is None or b is None:
        return b if a is None else a
    return multiply(a, b)


def path_sup_distance(f: PathCylinderFn, g: PathCylinderFn) -> float:
    """Sup distance of the collapsed normal forms (pointwise, not only a.e.)."""
    if f.spec != g.spec:
        raise InputError("path functions over different systems")
    _, a = (f - g).collapse()
    return a.sup_norm()


def weighted_shift(f: PathCylinderFn, m: CylinderFn) -> PathCylinderFn:
    """The dilation F -> (m o pi_0) (F o shift) of S_m."""
    if m.spec != f.spec:
        raise InputError("weight spec differs from path spec")
    return PathCylinderFn.coordinate(0, m) * f.compose_shift()


def weighted_shift_inverse(f: PathCylinderFn, m: CylinderFn) -> PathCylinderFn:
    """Inverse dilation F -> (F o shift^{-1}) / (m o pi_1).

    Requires min |m| > 1e-12: the reciprocal enters as a genuine factor.
    """
    if m.spec != f.spec:
        raise InputError("weight spec differs from path spec")
    low = float(np.min(np.abs(m.values)))
    if low <= NONVANISHING_TOL:
        raise VerificationError(
            f"inverse weighted shift needs a nonvanishing weight (min |m| = {low:.3e})"
        )
    recip = CylinderFn(m.spec, m.depth, 1.0 / m.values)
    return PathCylinderFn.coordinate(1, recip) * f.compose_shift_inverse()


def _chain(fs: Sequence[CylinderFn], weight: CylinderFn, h: CylinderFn) -> complex:
    """int f_0 R_W(f_1 R_W(... R_W(f_K h))) dmu, evaluated innermost first."""
    acc = multiply(fs[-1], h)
    for g in reversed(fs[:-1]):
        acc = multiply(g, ruelle_apply(weight, acc))
    return integrate(acc)


def expectation(f: PathCylinderFn, weight: CylinderFn, h: CylinderFn) -> complex:
    """E_P[F] by the nested transfer formula, term by term."""
    if weight.spec != f.spec or h.spec != f.spec:
        raise InputError("weight or density spec differs from path spec")
    total, one = 0.0 + 0.0j, CylinderFn.ones(f.spec)
    for c, s in f.terms:
        total += c * _chain([one if g is None else g for g in s] or [one], weight, h)
    return complex(total)


def pairing(f: PathCylinderFn, g: PathCylinderFn, weight: CylinderFn, h: CylinderFn) -> complex:
    """<F, G>_P = E_P[F conj(G)]."""
    return expectation(f * g.conj(), weight, h)


def harmonic_for(weight: CylinderFn) -> CylinderFn:
    """The default transfer-harmonic density: 1 when admissible, else solved."""
    ones = CylinderFn.ones(weight.spec)
    if not density_defect(weight, ones, HARMONIC_TOL)[1]:
        return ones
    return harmonic_solve(weight, tol=HARMONIC_TOL)


@dataclass(frozen=True)
class MomentSpec:
    """Everything a path moment needs: weight, harmonic density, coordinates.

    Construction certifies h as a transfer-harmonic density of the weight.
    """

    spec: IfsSpec
    weight: CylinderFn
    h: CylinderFn
    coords: tuple[CylinderFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.coords:
            raise InputError("moment spec needs at least the coordinate-0 function")
        for g in (self.weight, self.h, *self.coords):
            if g.spec != self.spec:
                raise InputError("moment component spec mismatch")
        defect = density_defect(self.weight, self.h, HARMONIC_TOL)[1]
        if defect:
            raise InputError(f"h is not a transfer-harmonic density: {defect}")

    @classmethod
    def from_json(cls, obj: dict) -> "MomentSpec":
        spec = IfsSpec.from_json(obj["spec"])
        weight = CylinderFn.from_json(obj["W"])
        h_raw = obj.get("h", "auto")
        h = harmonic_for(weight) if h_raw == "auto" else CylinderFn.from_json(h_raw)
        coords = tuple(CylinderFn.from_json(g) for g in obj.get("coords", []))
        return cls(spec, weight, h, coords)


def moment(ms: MomentSpec) -> complex:
    """int f_0 R_W(f_1 R_W(... R_W(f_K h))) dmu, evaluated innermost first."""
    return _chain(ms.coords, ms.weight, ms.h)


def _walk(step, x, wanted: set[int]):
    """(k, step^k(x)) for every k in wanted, in order, from one pass of step."""
    for k in range(max(wanted, default=0) + 1):
        if k:
            x = step(x)
        if k in wanted:
            yield k, x


def dilation_residuals(
    m: CylinderFn, f: CylinderFn, g: CylinderFn, orders: Sequence[int], h: CylinderFn | None = None
) -> list[float]:
    """Residuals of the dilation identities between base and path space.

    n >= 0 compares <S_m^n f, g> with <U^n (f o pi_0), g o pi_0>_P; n < 0
    compares the power of the L2(h dmu) adjoint S*(conj(m) h f) / h against
    <f o pi_0, U^{|n|} (g o pi_0)>_P, the unitary pairing, which never
    divides by m.  Each of the four powers is walked once, to its largest order.
    """
    weight = m.abs2()
    h = harmonic_for(weight) if h is None else h
    gh = multiply(g.conj(), h)
    pf, pg = PathCylinderFn.coordinate(0, f), PathCylinderFn.coordinate(0, g)
    up, down = {n for n in orders if n >= 0}, {-n for n in orders if n < 0}
    compose, shift = partial(weighted_compose, m), partial(weighted_shift, m=m)
    lhs = {k: integrate(multiply(x, gh)) for k, x in _walk(compose, f, up)}
    adjoints = _walk(lambda x: weighted_adjoint(m, multiply(h, x)) / h, f, down)
    lhs.update({-k: integrate(multiply(x, gh)) for k, x in adjoints})
    rhs = {k: pairing(F, pg, weight, h) for k, F in _walk(shift, pf, up)}
    rhs.update({-k: pairing(pf, G, weight, h) for k, G in _walk(shift, pg, down)})
    return [abs(lhs[n] - rhs[n]) for n in orders]


@dataclass(frozen=True)
class CovarianceReport:
    conjugation: float
    scaling: float


def shift_covariance_check(m: CylinderFn, f: CylinderFn, g: CylinderFn) -> CovarianceReport:
    """Covariance of the weighted shift with multiplication operators.

    Conjugating multiplication by f o pi_0 through the weighted shift must
    give multiplication by (f o sigma) o pi_0; tested in the multiplied
    form U M_f G = M_{f o sigma} U G on coordinate probes, which stays
    meaningful when m vanishes somewhere.  The scaling residual checks
    U 1 = m o pi_0.
    """
    distances = []
    for k in range(3):
        probe = PathCylinderFn.coordinate(k, g)
        lhs = weighted_shift(PathCylinderFn.coordinate(0, f) * probe, m)
        rhs = PathCylinderFn.coordinate(0, compose_sigma(f)) * weighted_shift(probe, m)
        distances.append(path_sup_distance(lhs, rhs))
    one = PathCylinderFn.constant(m.spec, 1.0)
    scaling = path_sup_distance(weighted_shift(one, m), PathCylinderFn.coordinate(0, m))
    return CovarianceReport(float(np.max(distances)), scaling)  # NaN propagates


def w0_isometry_residual(
    f: CylinderFn, g: CylinderFn, weight: CylinderFn, h: CylinderFn | None = None
) -> float:
    """|<f o pi_0, g o pi_0>_P - int f conj(g) h dmu|; zero by the marginal law."""
    h = harmonic_for(weight) if h is None else h
    lhs = pairing(
        PathCylinderFn.coordinate(0, f), PathCylinderFn.coordinate(0, g), weight, h
    )
    rhs = integrate(multiply(multiply(f, g.conj()), h))
    return abs(lhs - rhs)


def measure_change_residual(
    f: PathCylinderFn, weight: CylinderFn, h: CylinderFn | None = None
) -> float:
    """Residual of E[(W o pi_0) F] = E[F o shift^{-1}], the density of P o shift."""
    h = harmonic_for(weight) if h is None else h
    lhs = expectation(PathCylinderFn.coordinate(0, weight) * f, weight, h)
    rhs = expectation(f.compose_shift_inverse(), weight, h)
    return abs(lhs - rhs)


def probability_residual(
    order: int, weight: CylinderFn, h: CylinderFn | None = None
) -> float:
    """All-ones moment minus 1: P is a probability measure."""
    h = harmonic_for(weight) if h is None else h
    return abs(_chain([CylinderFn.ones(weight.spec)] * (order + 1), weight, h) - 1.0)
