"""Independent numpy references that judge the wavelab outputs.

Nothing here imports wavelab: every expected value is recomputed from the
generated input arrays with plain numpy, in a different formulation from
the program's (dense modulation matrices instead of probe blocks,
``np.convolve`` instead of dict-based Laurent products, vectorised grids
instead of per-point loops), so a defect in the program cannot also hide
in its judge.

Conventions match the file formats: a cylinder function of depth L over N
symbols is a length N**L vector indexed with the first symbol most
significant; a Laurent polynomial is ``(min_degree, coeffs)``.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# code space
# ---------------------------------------------------------------------------


def lift(values: np.ndarray, n: int, depth_from: int, depth_to: int) -> np.ndarray:
    """View a depth ``depth_from`` function as one of ``depth_to`` symbols."""
    return np.repeat(values, n ** (depth_to - depth_from))


def measure(weights, depth: int) -> np.ndarray:
    """Product-measure mass of every depth ``depth`` cylinder."""
    mu = np.ones(1)
    for _ in range(depth):
        mu = np.kron(mu, np.asarray(weights, dtype=float))
    return mu


def integrate(values: np.ndarray, weights, depth: int) -> complex:
    return complex(measure(weights, depth) @ values)


def modulation_matrices(filters: np.ndarray, weights) -> np.ndarray:
    """A[v, j, k] = sqrt(p_k) m_j(k v) for a bank given as an (N, N**L) array.

    The bank's filter conditions are exactly A A* = I (orthonormality,
    S*(conj(m_j) m_k) = delta) and A* A = I (completeness) at every tail v.
    """
    filters = np.asarray(filters, dtype=complex)
    n = filters.shape[0]
    vals = filters.reshape(n, n, -1)  # (filter j, first symbol k, tail v)
    return np.sqrt(np.asarray(weights, dtype=float)) * np.moveaxis(vals, 2, 0)


def bank_residuals(filters: np.ndarray, weights) -> tuple[float, float]:
    """(orthonormality, completeness) residuals from the modulation matrices."""
    a = modulation_matrices(filters, weights)
    eye = np.eye(a.shape[1])
    aah = np.einsum("vjk,vlk->vjl", a, a.conj())
    aha = np.einsum("vkj,vkl->vjl", a.conj(), a)
    return float(np.max(np.abs(aah - eye))), float(np.max(np.abs(aha - eye)))


def indicator_bank(weights) -> np.ndarray:
    """Depth-1 bank m_n = 1_[n] / sqrt(p_n) as an (N, N) array."""
    return np.diag(1.0 / np.sqrt(np.asarray(weights, dtype=float))).astype(complex)


def roots_bank(n: int) -> np.ndarray:
    """Depth-1 bank with value eps**(j*l) on cylinder [l], j, l = 1..N."""
    idx = np.arange(1, n + 1)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n)


def connecting_field(bank: np.ndarray, target: np.ndarray, weights) -> np.ndarray:
    """U[j, k] = S*(conj(m_j) m~_k) for two depth-1 banks: constants (N, N)."""
    p = np.asarray(weights, dtype=float)
    return np.einsum("l,jl,kl->jk", p, bank.conj(), target)


def apply_field(bank: np.ndarray, field: np.ndarray) -> np.ndarray:
    """m~_k = sum_j m_j (U_jk o sigma) for a depth-1 bank and an (N, N, N**D) field."""
    n = bank.shape[0]
    out = np.einsum("jw,jkx->kwx", bank, field)  # (k, first symbol w, tail x)
    return out.reshape(n, -1)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def transfer(w: np.ndarray, f: np.ndarray, weights, depth: int) -> np.ndarray:
    """R_W f = S*(W f) for W of depth ``depth`` + 1 and f of depth ``depth``."""
    n = len(weights)
    g = w * lift(f, n, depth, depth + 1)
    return np.asarray(weights, dtype=float) @ g.reshape(n, -1)


def perron(w: np.ndarray, weights) -> tuple[float, np.ndarray]:
    """Perron eigenvalue of R_W and its eigenvector h with integral 1.

    R_W is assembled as a dense matrix on depth (L - 1) functions and
    handed to ``np.linalg.eig``, not power-iterated as the program does.
    """
    n = len(weights)
    depth = round(np.log(w.shape[0]) / np.log(n)) - 1
    size = n**depth
    mat = np.zeros((size, size))
    v = np.arange(size)
    for branch in range(n):
        word = branch * size + v  # the depth (L) word (branch, v)
        mat[v, word // n] += weights[branch] * w[word].real
    vals, vecs = np.linalg.eig(mat)
    top = int(np.argmax(vals.real))
    h = vecs[:, top].real
    h = h / (measure(weights, depth) @ h)
    return float(vals[top].real), h


def nested_moment(w: np.ndarray, h: np.ndarray, coords, weights) -> complex:
    """int f_0 R_W(f_1 R_W(... R_W(f_K h))) dmu, all lifted to h's depth."""
    n = len(weights)
    depth = round(np.log(h.shape[0]) / np.log(n))

    def at_depth(f):
        return lift(f, n, round(np.log(f.shape[0]) / np.log(n)), depth)

    acc = at_depth(coords[-1]) * h
    for g in reversed(coords[:-1]):
        acc = at_depth(g) * transfer(w, acc, weights, depth)
    return integrate(acc, weights, depth)


# ---------------------------------------------------------------------------
# circle
# ---------------------------------------------------------------------------


def paraunitary_bank(rng: np.random.Generator, n: int, degree: int) -> list[np.ndarray]:
    """Filters of E(w) = V prod_k (I - P_k + w P_k), each P_k a rank-1 projection.

    The polyphase matrix E is unitary on |w| = 1 (Vaidyanathan's
    degree-one factorisation), so m_j(z) = sum_r E_jr(z**N) z**r satisfy
    the averaged filter conditions exactly.  Returns N coefficient vectors
    of length N (degree + 1), all starting at degree 0.
    """
    poly = random_unitary(rng, n)[None]  # (power of w, j, r)
    for _ in range(degree):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        u /= np.linalg.norm(u)
        proj = np.outer(u, u.conj())
        nxt = np.zeros((poly.shape[0] + 1, n, n), dtype=complex)
        nxt[:-1] += poly @ (np.eye(n) - proj)
        nxt[1:] += poly @ proj
        poly = nxt
    # coefficient of z**(N d + r) in m_j is E_d[j, r]
    return [poly[:, j, :].reshape(-1) for j in range(n)]


def _conj_reflect(lo: int, c: np.ndarray) -> tuple[int, np.ndarray]:
    return -(lo + len(c) - 1), np.conj(c[::-1])


def _mul(a, b) -> tuple[int, np.ndarray]:
    return a[0] + b[0], np.convolve(a[1], b[1])


def _downsample(a, n: int) -> tuple[int, np.ndarray]:
    lo, c = a
    first = (-lo) % n  # offset of the first degree divisible by n
    return -(-lo // n), c[first::n]


def _upsample(a, n: int) -> tuple[int, np.ndarray]:
    lo, c = a
    out = np.zeros(max((len(c) - 1) * n + 1, 0), dtype=complex)
    out[::n] = c
    return lo * n, out


def _add(a, b) -> tuple[int, np.ndarray]:
    lo = min(a[0], b[0])
    hi = max(a[0] + len(a[1]), b[0] + len(b[1]))
    out = np.zeros(hi - lo, dtype=complex)
    out[a[0] - lo : a[0] - lo + len(a[1])] += a[1]
    out[b[0] - lo : b[0] - lo + len(b[1])] += b[1]
    return lo, out


def _max_abs_minus(a, value: float) -> float:
    """max-abs coefficient of the Laurent polynomial a - value."""
    return float(np.max(np.abs(_add(a, (0, -np.full(1, value, dtype=complex)))[1])))


def cuntz_residuals(filters: list[tuple[int, np.ndarray]], n: int) -> tuple[float, float]:
    """Averaged-convention (orthonormality, completeness) via ``np.convolve``."""
    orth = 0.0
    for j, mj in enumerate(filters):
        for k, mk in enumerate(filters):
            gram = _downsample(_mul(_conj_reflect(*mj), mk), n)
            orth = max(orth, _max_abs_minus(gram, 1.0 if j == k else 0.0))
    comp = 0.0
    for t in range(n):
        probe = (t, np.ones(1, dtype=complex))
        recon = (0, np.zeros(0, dtype=complex))
        for m in filters:
            low = _downsample(_mul(_conj_reflect(*m), probe), n)
            recon = _add(recon, _mul(m, _upsample(low, n)))
        comp = max(comp, _max_abs_minus((recon[0] - t, recon[1]), 1.0))
    return orth, comp


def power_sum_residual(m0: tuple[int, np.ndarray], target: float) -> float:
    """Coefficient residual of |m0(z)|**2 + |m0(-z)|**2 = target."""
    lo, sq = _mul(_conj_reflect(*m0), m0)
    signs = (-1.0) ** (np.arange(lo, lo + len(sq)) % 2)
    return _max_abs_minus((lo, sq + signs * sq), target)


def evaluate(lo: int, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c_k z**(lo + k) on an array of points, by Horner's rule."""
    return np.polyval(c[::-1], z) * z**lo


def circle_grid(points: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(points) / points)


def grid_unitarity(mats: np.ndarray, scale: float = 1.0) -> float:
    """max over a (G, n, n) stack of max-abs entries of M M* - scale I."""
    gram = mats @ np.conj(np.swapaxes(mats, 1, 2))
    return float(np.max(np.abs(gram - scale * np.eye(mats.shape[1]))))


def multiband_stack(filters, n: int, z: np.ndarray) -> np.ndarray:
    """(1/sqrt N) (m_j(eps**k z)) on every grid point, shape (G, N, N)."""
    eps = np.exp(2j * np.pi / n)
    cols = [
        np.stack([evaluate(lo, c, eps**k * z) for k in range(n)], axis=-1)
        for lo, c in filters
    ]
    return np.stack(cols, axis=1) / np.sqrt(n)


def cqf_stack(m0: tuple[int, np.ndarray], z: np.ndarray) -> np.ndarray:
    """The 2 x 2 CQF matrix [[m0, m1], [m0(-z), -z^-1 conj-flip]] on a grid."""
    lo, c = m0
    degrees = np.arange(lo, lo + len(c))
    # m1 = sum conj(c_k) (-1)^k z^(-k-1); the corner is sum -conj(c_k) z^(-k-1)
    hi_lo = -(lo + len(c) - 1) - 1
    m1 = (hi_lo, (np.conj(c) * (-1.0) ** (degrees % 2))[::-1])
    corner = (hi_lo, -np.conj(c)[::-1])
    m0_alt = (lo, c * (-1.0) ** (degrees % 2))
    rows = [[m0, m1], [m0_alt, corner]]
    return np.stack(
        [np.stack([evaluate(p[0], p[1], z) for p in row], axis=-1) for row in rows],
        axis=1,
    )


def random_projection(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    u /= np.linalg.norm(u)
    return np.outer(u, u.conj())


def blaschke_stack(v: np.ndarray, factors, w: np.ndarray) -> np.ndarray:
    """V prod (I - P + phi_a(w) P) at every w = z**power, shape (G, n, n)."""
    out = np.broadcast_to(v, (len(w),) + v.shape).astype(complex)
    eye = np.eye(v.shape[0])
    for proj, a in factors:
        phi = (w - a) / (1.0 - w * np.conj(a))
        out = out @ (eye - proj + phi[:, None, None] * proj)
    return out


def product_kernel(filters: np.ndarray, sigma: np.ndarray, terms: int) -> np.ndarray:
    """prod_{k < terms} sum_n m_n(s^k x) conj(m_n(s^k y)) over the point set."""
    size = filters.shape[1]
    out = np.ones((size, size), dtype=complex)
    idx = np.arange(size)
    for _ in range(terms):
        vals = filters[:, idx]
        out = out * (vals.T @ vals.conj())
        idx = sigma[idx]
    return out


def refinement_residual(kernel: np.ndarray, filters: np.ndarray, sigma: np.ndarray) -> float:
    gram = filters.T @ filters.conj()
    return float(np.max(np.abs(kernel - gram * kernel[np.ix_(sigma, sigma)])))


# ---------------------------------------------------------------------------
# line
# ---------------------------------------------------------------------------


def d4_taps() -> np.ndarray:
    s3 = np.sqrt(3.0)
    return np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * np.sqrt(2.0))


def alternating_flip(taps: np.ndarray) -> np.ndarray:
    return (-1.0) ** np.arange(len(taps)) * np.conj(taps[::-1])


def fourier_product(taps: np.ndarray, t: float, terms: int) -> complex:
    """prod_{k=1..K} m0(e^{i t / 2^k}) / sqrt 2 with m0 given by its taps."""
    z = np.exp(1j * t / 2.0 ** np.arange(1, terms + 1))
    return complex(np.prod(evaluate(0, taps, z) / np.sqrt(2.0)))


def arcsine_residual(degree: int, nodes: int) -> float:
    """Chebyshev-rule error on x**k and (4x(1-x))**k against C(2k, k) / 4**k.

    The logistic map preserves the arcsine law, so both families have the
    same closed-form moments; the rule is exact below degree 2 * nodes.
    """
    j = np.arange(1, nodes + 1)
    x = (1.0 - np.cos((2 * j - 1) * np.pi / (2 * nodes))) / 2.0
    s = 4.0 * x * (1.0 - x)
    worst = 0.0
    for k in range(degree + 1):
        exact = math.comb(2 * k, k) / 4.0**k
        worst = max(worst, abs(np.mean(x**k) - exact), abs(np.mean(s**k) - exact))
    return float(worst)
