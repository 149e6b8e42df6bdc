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
the weighted composition operator S_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import InputError, check_cells
from .code_space import (
    CylinderFn,
    IfsSpec,
    compose_sigma,
    density_defect,
    harmonic_solve,
    integrate,
    multiply,
    weighted_adjoint,
    weighted_compose,
    _average,
    _integral,
    _mul,
    _product,
    _require_same_spec,
    _require_weight,
)


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
        _require_same_spec(self.spec, *[g.spec for _, s in self.terms for g in s if g is not None])

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
        _require_same_spec(self.spec, other.spec)
        return PathCylinderFn(self.spec, self.terms + other.terms)

    def __sub__(self, other: "PathCylinderFn") -> "PathCylinderFn":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            terms = tuple((complex(c * other), s) for c, s in self.terms)
            return PathCylinderFn(self.spec, terms)
        _require_same_spec(self.spec, other.spec)
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
                    acc = _product(acc, g, (0, top - n))
            total = total + acc
        return top, total


def _times(a: CylinderFn | None, b: CylinderFn | None) -> CylinderFn | None:
    """The product of two slots, the left factor first; None is 1."""
    if a is None or b is None:
        return b if a is None else a
    return multiply(a, b)


def path_sup_distance(f: PathCylinderFn, g: PathCylinderFn) -> float:
    """Sup distance of the collapsed normal forms (pointwise, not only a.e.); f - g checks specs."""
    _, a = (f - g).collapse()
    return a.sup_norm()


def weighted_shift(f: PathCylinderFn, m: CylinderFn) -> PathCylinderFn:
    """The dilation F -> (m o pi_0) (F o shift) of S_m: slots 2, 3, ... move
    down by one, and slot 0 becomes m (g_0 o sigma) g_1, g_0 o sigma a view."""
    _require_same_spec(f.spec, m.spec)
    terms = []
    for c, s in f.terms:
        g0, g1 = (s + (None, None))[:2]
        if g0 is None:
            head = _times(m, g1)
        elif g1 is None:
            head = weighted_compose(m, g0)
        else:
            head = multiply(m, _product(g0, g1, (1, 0)))
        terms.append((c, (head,) + s[2:]))
    return PathCylinderFn(f.spec, tuple(terms))


def moment(fs: Sequence[CylinderFn], weight: CylinderFn, h: CylinderFn) -> complex:
    """int f_0 R_W(f_1 R_W(... R_W(f_K h))) dmu, evaluated innermost first in
    one loop over value arrays: each step is ruelle_apply's products and average."""
    _require_weight(weight)
    _require_same_spec(weight.spec, h.spec, *[g.spec for g in fs])
    p, w = weight.spec.weight_array(), weight.values
    acc = _mul(fs[-1].values, h.values)
    for g in reversed(fs[:-1]):
        acc = _mul(w, acc)
        acc = _mul(g.values, _average(p, acc) if acc.size > 1 else acc)
    return complex(_integral(p, acc))


def expectation(f: PathCylinderFn, weight: CylinderFn, h: CylinderFn) -> complex:
    """E_P[F] by the nested transfer formula, term by term."""
    _require_same_spec(f.spec, weight.spec, h.spec)
    total, one = 0.0 + 0.0j, CylinderFn.ones(f.spec)
    for c, s in f.terms:
        total += c * moment([one if g is None else g for g in s] or [one], weight, h)
    return complex(total)


def pairing(f: PathCylinderFn, g: PathCylinderFn, weight: CylinderFn, h: CylinderFn) -> complex:
    """<F, G>_P = E_P[F conj(G)]."""
    return expectation(f * g.conj(), weight, h)


def harmonic_for(weight: CylinderFn) -> CylinderFn:
    """The default transfer-harmonic density: 1 when admissible, else solved."""
    ones = CylinderFn.ones(weight.spec)
    if not density_defect(weight, ones)[1]:
        return ones
    return harmonic_solve(weight)


@dataclass(frozen=True)
class MomentSpec:
    """Everything a path moment needs: weight, harmonic density, coordinates.

    Construction certifies h as a transfer-harmonic density of the weight;
    None ("auto" in JSON) stands for harmonic_for(weight), which the caller
    solves and passes to moment.
    """

    spec: IfsSpec
    weight: CylinderFn
    h: CylinderFn | None
    coords: tuple[CylinderFn, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.coords:
            raise InputError("moment spec needs at least the coordinate-0 function")
        parts = (self.weight, self.h, *self.coords)
        _require_same_spec(self.spec, *[g.spec for g in parts if g is not None])
        defect = self.h is not None and density_defect(self.weight, self.h)[1]
        if defect:
            raise InputError(f"h is not a transfer-harmonic density: {defect}")

    @classmethod
    def from_json(cls, obj: dict) -> "MomentSpec":
        spec = IfsSpec.from_json(obj["spec"])
        weight = CylinderFn.from_json(obj["W"])
        h_raw = obj.get("h", "auto")
        if h_raw == "auto":
            _require_weight(weight)  # a bad weight is a bad file; the solve waits for the caller
        h = None if h_raw == "auto" else CylinderFn.from_json(h_raw)
        coords = tuple(CylinderFn.from_json(g) for g in obj.get("coords", []))
        return cls(spec, weight, h, coords)


def _integrals(step, x, wanted: set[int], p: np.ndarray, *integrands) -> dict[int, list[complex]]:
    """{k: [int u(v) dmu for each integrand u]}, v the values of step^k(x), k in wanted,
    from one pass of step, in a frame of its own: its arrays go when it returns."""
    out = {}
    for k in range(max(wanted, default=0) + 1):
        x = step(x) if k else x
        if k in wanted:
            out[k] = [complex(_integral(p, u(x.values))) for u in integrands]
    return out


def dilation_residuals(
    m: CylinderFn, f: CylinderFn, g: CylinderFn, orders: Sequence[int], h: CylinderFn
) -> list[float]:
    """Residuals of the dilation identities between base and path space.

    n >= 0 compares <S_m^n f, g> with <U^n (f o pi_0), g o pi_0>_P; n < 0
    compares the power of the L2(h dmu) adjoint S*(conj(m) h f) / h against
    <f o pi_0, U^{|n|} (g o pi_0)>_P, the unitary pairing, which never
    divides by m.  h is the density of the weight |m|**2.  As U^k (x o pi_0) =
    (S_m^k x) o pi_0, a pairing <a o pi_0, b o pi_0>_P is int (a conj(b)) h dmu,
    its products written in place.  Three powers are walked once each, to the
    largest order: S_m^k f for n >= 0, the adjoint power and S_m^k g for n < 0.
    """
    # step k of a walk is at depth max(m.depth + k - 1, x.depth + k): checking each depth,
    # shallowest first as the walks would, fails an order past the cap before walking
    up, down = {n for n in orders if n >= 0}, {-n for n in orders if n < 0}
    k_f, k_g = max(up, default=0), max(down, default=0)
    for depth in range(max(m.depth + max(k_f, k_g) - 1, f.depth + k_f, g.depth + k_g) + 1):
        check_cells(m.spec.N**depth)
    _require_same_spec(g.spec, h.spec, m.spec, f.spec)
    p, gc, hv = m.spec.weight_array(), np.conj(g.values), h.values
    gh = _mul(gc, hv)

    def path(t: np.ndarray) -> np.ndarray:  # t h into t, t = a conj(b) a new product
        return _mul(t, hv, out=t)

    def pulled(y: np.ndarray) -> np.ndarray:  # f conj(y) into conj(y), then h
        return path(_mul(f.values, c := np.conj(y), out=c))

    compose, base = partial(weighted_compose, m), partial(_mul, b=gh)  # base: x conj(g) h
    forward = _integrals(compose, f, up, p, base, lambda x: path(_mul(x, gc)))
    adjoint = _integrals(lambda x: weighted_adjoint(m, multiply(h, x)) / h, f, down, p, base)
    backward = _integrals(compose, g, down, p, pulled)
    sides = forward | {-k: adjoint[k] + backward[k] for k in down}
    return [abs(lhs - rhs) for lhs, rhs in map(sides.get, orders)]


def shift_covariance_check(m: CylinderFn, f: CylinderFn, g: CylinderFn) -> tuple[float, float]:
    """(conjugation, scaling) residuals of the weighted shift's covariance.

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
    return float(np.max(distances)), scaling  # NaN propagates


def w0_isometry_residual(f: CylinderFn, g: CylinderFn, weight: CylinderFn, h: CylinderFn) -> float:
    """|<f o pi_0, g o pi_0>_P - int f conj(g) h dmu|; zero by the marginal law."""
    lhs = pairing(
        PathCylinderFn.coordinate(0, f), PathCylinderFn.coordinate(0, g), weight, h
    )
    rhs = integrate(multiply(multiply(f, g.conj()), h))
    return abs(lhs - rhs)


def measure_change_residual(f: PathCylinderFn, weight: CylinderFn, h: CylinderFn) -> float:
    """Residual of E[(W o pi_0) F] = E[F o shift^{-1}], the density of P o shift."""
    lhs = expectation(PathCylinderFn.coordinate(0, weight) * f, weight, h)
    rhs = expectation(f.compose_shift_inverse(), weight, h)
    return abs(lhs - rhs)


def probability_residual(order: int, weight: CylinderFn, h: CylinderFn) -> float:
    """All-ones moment minus 1: P is a probability measure."""
    return abs(moment([CylinderFn.ones(weight.spec)] * (order + 1), weight, h) - 1.0)
