"""Brute-force reference implementations over explicit word tables.

Everything here works on dictionaries mapping symbol tuples to values,
with plain Python loops: slow, obviously correct, and structurally
independent of the array indexing used by the package.  The two
probe-block checks are the exception: they are the package's former
filter-bank residuals, which test every indicator probe of a given
depth, kept as the judge of the per-tail closed forms.  The circle grid
scans at the end are likewise the package's former per-point loops, kept
as the judge of the stacked evaluators; they reduce with ``np.max`` so
that a NaN point gives a NaN residual.
"""

import itertools
from fractions import Fraction
from math import prod

import numpy as np

from wavelab import code_space as cs
from wavelab.circle_filters import unit_circle_grid
from wavelab.code_space import CylinderFn, Word


def words(n: int, length: int):
    return list(itertools.product(range(1, n + 1), repeat=length))


def table_of(f: CylinderFn) -> dict:
    n, depth = f.spec.N, f.depth
    return {
        tuple(Word.from_index(n, depth, i).symbols): f.values[i]
        for i in range(len(f.values))
    }


def cylinder_of(spec, table: dict) -> CylinderFn:
    depth = len(next(iter(table)))
    values = np.zeros(spec.N**depth, dtype=complex)
    for w, v in table.items():
        values[Word(w).index(spec.N)] = v
    return CylinderFn(spec, depth, values)


def measure(weights, word) -> float:
    return prod(weights[s - 1] for s in word)


def integrate(table: dict, weights) -> complex:
    return sum(measure(weights, w) * v for w, v in table.items())


def lift(table: dict, n: int, depth: int) -> dict:
    base = len(next(iter(table)))
    if base == depth:
        return dict(table)
    out = {}
    for w in words(n, depth):
        out[w] = table[w[:base]]
    return out


def compose_shift(table: dict, n: int) -> dict:
    depth = len(next(iter(table)))
    return {w: table[w[1:]] for w in words(n, depth + 1)}


def adjoint_shift(table: dict, n: int, weights) -> dict:
    depth = len(next(iter(table)))
    if depth == 0:
        return dict(table)
    out = {}
    for v in words(n, depth - 1):
        out[v] = sum(weights[s - 1] * table[(s,) + v] for s in range(1, n + 1))
    return out


def multiply(t1: dict, t2: dict, n: int) -> dict:
    depth = max(len(next(iter(t1))), len(next(iter(t2))))
    a, b = lift(t1, n, depth), lift(t2, n, depth)
    return {w: a[w] * b[w] for w in words(n, depth)}


def inner(t1: dict, t2: dict, n: int, weights) -> complex:
    depth = max(len(next(iter(t1))), len(next(iter(t2))))
    a, b = lift(t1, n, depth), lift(t2, n, depth)
    return sum(measure(weights, w) * a[w] * np.conj(b[w]) for w in words(n, depth))


def random_table(rng, n: int, depth: int, scale: float = 1.0) -> dict:
    return {
        w: complex(rng.normal(0, scale), rng.normal(0, scale))
        for w in words(n, depth)
    }


def dyadic_values(taps, dilation: int, resolution: int) -> np.ndarray:
    """Exact phi(k / resolution) for phi(x) = sum_k sqrt(N) c_k phi(N x - k).

    phi is taken right-continuous, as the box 1_[0,1) that seeds the
    cascade, so it vanishes from the right end E = (L - 1) / (N - 1) of its
    support on.  Its values at the integers 0 <= n < E are the eigenvalue-1
    eigenvector of the two-scale matrix (sqrt(N) c_{N i - j}), normalised to
    sum 1 (Daubechies & Lagarias, "Two-scale difference equations").  Each
    level m / N^l then follows from the two-scale equation, whose arguments
    N x - k lie on level l - 1.  ``resolution`` must be a power of N; the
    result has the length of ``cascade(...).samples``.
    """
    c = [complex(t) for t in taps]
    n = int(dilation)
    levels = 0
    while n**levels < resolution:
        levels += 1
    if n**levels != resolution:
        raise ValueError(f"resolution {resolution} is not a power of {n}")
    end = Fraction(len(c) - 1, n - 1)
    scale = np.sqrt(n)

    def tap(k):
        return c[k] if 0 <= k < len(c) else 0.0

    integers = [i for i in range(len(c)) if i < end]
    matrix = np.array(
        [[scale * tap(n * i - j) for j in integers] for i in integers]
    )
    eigvals, eigvecs = np.linalg.eig(matrix)
    near_one = [i for i, lam in enumerate(eigvals) if abs(lam - 1.0) < 1e-9]
    if len(near_one) != 1:
        raise ValueError(
            f"eigenvalue 1 of the two-scale matrix is not simple: {eigvals}"
        )
    vec = eigvecs[:, near_one[0]]
    phi = {Fraction(i): v / vec.sum() for i, v in zip(integers, vec)}

    for level in range(1, levels + 1):
        step = Fraction(1, n**level)
        points = [m * step for m in range(int(end / step) + 1) if m * step < end]
        phi = {
            x: sum(scale * c[k] * phi.get(n * x - k, 0.0) for k in range(len(c)))
            for x in points
        }

    length = (len(c) - 1) * resolution // (n - 1) + 1
    return np.array([phi.get(Fraction(m, resolution), 0.0) for m in range(length)])


def probe_block_completeness(bank, probe_depth: int) -> float:
    """max |sum_n m_n E(conj(m_n) e_i) - e_i| over the indicator basis e_i.

    Builds the N**p x N**p block of all depth-p indicator probes at once
    (columns of F), so time and memory grow as N**(2p).
    """
    spec = bank.spec
    n = spec.N
    depth = max(probe_depth, bank.max_depth)
    m_probe = n**probe_depth
    reps = n ** (depth - probe_depth)
    f = np.repeat(np.eye(m_probe, dtype=complex), reps, axis=0)
    p = spec.weight_array()
    recon = np.zeros_like(f)
    for m in bank.filters:
        mv = cs._lift_values(m, depth)
        g = np.conj(mv)[:, None] * f
        low = np.tensordot(p, g.reshape(n, -1, m_probe), axes=1)
        recon += mv[:, None] * np.tile(low, (n, 1))
    return float(np.max(np.abs(recon - f)))


def probe_endomorphism(bank, f: CylinderFn, probe_depth: int) -> float:
    """max |sum_n S_n (f . S_n* g) - (f o sigma) g| over depth-p indicators g.

    One probe at a time.  The former package loop reduced the probes with
    Python's ``max``, which drops a NaN probe; here a NaN in any probe
    makes the result NaN.
    """
    spec = bank.spec
    worst = []
    for i in range(spec.N**probe_depth):
        g = CylinderFn(
            spec,
            probe_depth,
            np.eye(spec.N**probe_depth, dtype=complex)[i],
        )
        lhs = None
        for m in bank.filters:
            term = cs.weighted_compose(m, cs.multiply(f, cs.weighted_adjoint(m, g)))
            lhs = term if lhs is None else lhs + term
        rhs = cs.multiply(cs.compose_sigma(f), g)
        worst.append(cs.sup_distance(lhs, rhs))
    return float(np.max(worst))


# ---------------------------------------------------------------------------
# circle grid scans, one point at a time
# ---------------------------------------------------------------------------


def multiband_point(filters, n: int, z: complex) -> np.ndarray:
    """(1/sqrt N) (m_j(eps**k z)) at one point, entry by entry."""
    eps = np.exp(2j * np.pi / n)
    cols = [eps**k * z for k in range(n)]
    return np.array([[m(c) for c in cols] for m in filters], dtype=complex) / np.sqrt(n)


def rows_point(rows, z: complex) -> np.ndarray:
    return np.array([[e(z) for e in row] for row in rows], dtype=complex)


def blaschke_point(product, z: complex) -> np.ndarray:
    """V prod (I - P + phi_a(z**power) P) at one point."""
    out = np.array(product.left_unitary)
    for f in product.factors:
        w = complex(z) ** f.power
        phi = 1.0 / w if f.a is None else (w - f.a) / (1.0 - w * np.conj(f.a))
        out = out @ (np.eye(f.size, dtype=complex) - f.projection + phi * f.projection)
    return out


def unitarity_points(evaluate_point, n_grid: int, scale: float = 1.0) -> np.ndarray:
    """max-abs entry of M(z) M(z)* - scale I at each grid point."""
    out = []
    for z in unit_circle_grid(n_grid):
        m = np.asarray(evaluate_point(z), dtype=complex)
        out.append(np.max(np.abs(m @ m.conj().T - scale * np.eye(m.shape[0]))))
    return np.array(out)


def grid_unitarity(evaluate_point, n_grid: int, scale: float = 1.0) -> float:
    return float(np.max(unitarity_points(evaluate_point, n_grid, scale)))


def shift_relation(filters, n: int, n_grid: int) -> float:
    """max |M(eps z) - M(z) Pi| over the grid, Pi the column rotation."""
    eps = np.exp(2j * np.pi / n)
    order = list(range(1, n)) + [0]
    return float(np.max([
        np.max(np.abs(multiband_point(filters, n, eps * z) - multiband_point(filters, n, z)[:, order]))
        for z in unit_circle_grid(n_grid)
    ]))


def periodicity(product, band: int, n_grid: int) -> float:
    """max |U(eps z) - U(z)| over the grid."""
    eps = np.exp(2j * np.pi / band)
    return float(np.max([
        np.max(np.abs(blaschke_point(product, eps * z) - blaschke_point(product, z)))
        for z in unit_circle_grid(n_grid)
    ]))


def loop_g_unitarity(g_point, band: int, n_grid: int) -> float:
    """Unitarity of G at the band-th powers of the grid."""
    return grid_unitarity(lambda z: g_point(z**band), n_grid)
