"""Independent dense-matrix oracles for the test suite.

Everything here avoids the production code paths on purpose: Hamiltonians are
materialized as dense arrays, eigenproblems go through numpy's dense
symmetric solver instead of the tridiagonal one, time evolution goes through
an explicit matrix exponential instead of spectral summation, and the mirror
traces are literal antidiagonal sums.  The minimal odd unit is found by
trying every odd multiplier in turn.  The chain of a structured spectrum is
built in exact rational arithmetic by the discrete Stieltjes procedure, and
the float Lanczos reference runs all N steps.  The fidelity peak search is one
unchunked scan of the whole grid for sign changes of the slope
h = Re(conj(z) z'), each bracket solved by scipy's brentq, a different root
finder from the package's Newton iteration, given the eigenvalues and
end-amplitude coefficients; the reference coefficients come from
eigenvectors.
Agreement between these routes and the package is evidence, not tautology,
so nothing in this file may import pstlab.
"""
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.optimize


def dense_hamiltonian(diagonal, couplings) -> np.ndarray:
    b = np.asarray(diagonal, dtype=float)
    j = np.asarray(couplings, dtype=float)
    h = np.diag(b)
    h += np.diag(j, 1)
    h += np.diag(j, -1)
    return h


def antidiagonal_sum(matrix: np.ndarray) -> float:
    """Tr(S M) written out directly."""
    return float(np.trace(np.fliplr(matrix)))


def dense_decompose(diagonal, couplings):
    """Descending eigenvalues and sign-fixed eigenvectors via numpy's dense
    symmetric solver (a different LAPACK driver than the production path)."""
    lam, vec = np.linalg.eigh(dense_hamiltonian(diagonal, couplings))
    lam = lam[::-1].copy()
    vec = vec[:, ::-1].copy()
    for k in range(vec.shape[1]):
        col = vec[:, k]
        lead = col[np.flatnonzero(col)[0]]
        if lead < 0:
            vec[:, k] = -col
    return lam, vec


def alternating_sums(lam) -> tuple[float, float]:
    """(sum (-1)^(n+1) lam_n, sum (-1)^(n+1) lam_n^2) written out directly."""
    lam = np.asarray(lam, dtype=float)
    sigma = np.where(np.arange(lam.size) % 2 == 0, 1.0, -1.0)
    return float(np.sum(sigma * lam)), float(np.sum(sigma * lam * lam))


def exact_substitution_gap(multipliers) -> int:
    """N^2 / u^2 times the odd-N substitution gap of a structured spectrum,
    in exact integer arithmetic.

    The gap is sum_n (-1)^(n+1) lambda_n^2 - (lambda_N^2 - u lambda_N) on
    the traceless spectrum with consecutive gaps multipliers * unit, where u
    is the certified unit: the odd multipliers are divided by their gcd, the
    reduction certification makes.  With k the reduced multipliers, tail
    sums T_n = k_n + ... + k_{N-1} and L_n = N T_n - sum_m T_m (so
    lambda_n = L_n u / N), the scaled gap is
    sum_n (-1)^(n+1) L_n^2 - L_N^2 + N L_N, an integer of the gap's sign.
    """
    m = [int(x) for x in multipliers]
    g = math.gcd(*m)
    k = [x // g for x in m]
    n = len(k) + 1
    tails = [sum(k[i:]) for i in range(n)]
    total = sum(tails)
    scaled = [n * t - total for t in tails]
    alternating = sum(
        x * x if i % 2 == 0 else -x * x for i, x in enumerate(scaled)
    )
    return alternating - scaled[-1] ** 2 + n * scaled[-1]


def minimal_odd_unit(gaps, cap: int, rel_tol: float):
    """(u, multipliers, max_residual) for one row of positive gaps, by trying
    u = g_min/m for m = 1, 3, ..., cap in turn: the first u under which every
    gap g is an odd multiple k of u with |g - k u| <= rel_tol * g.  The cap
    bounds m alone, not k.  u and max_residual are NaN and the multipliers
    zero if none is."""
    g = np.asarray(gaps, dtype=float)
    g_min = g.min()
    for m in range(1, cap + 1, 2):
        u = g_min / m
        k = np.rint(g / u)
        resid = np.abs(g - k * u)
        if (k % 2 == 1).all() and (resid <= rel_tol * g).all():
            return u, k.astype(np.int64), float((resid / g).max())
    return math.nan, np.zeros(g.size, dtype=np.int64), math.nan


def lanczos_chain(lam) -> tuple[np.ndarray, np.ndarray]:
    """(B, J) of the mirror-symmetric chain with descending spectrum `lam`,
    one spectrum at a time: end weights a_n^2 proportional to
    1 / prod_{m != n} |lambda_n - lambda_m| (in log space), then Lanczos on
    diag(lambda) from (a_1, ..., a_N) with two passes of full
    reorthogonalization per step."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.log(np.abs(diff)).sum(axis=1)
    w = np.exp(logw - logw.max())
    basis = np.zeros((n, n))
    basis[0] = np.sqrt(w / w.sum())
    alpha = np.zeros(n)
    beta = np.zeros(n - 1)
    for k in range(n):
        r = lam * basis[k]
        alpha[k] = basis[k] @ r
        r -= alpha[k] * basis[k]
        if k:
            r -= beta[k - 1] * basis[k - 1]
        for _ in range(2):
            r -= basis[: k + 1].T @ (basis[: k + 1] @ r)
        if k < n - 1:
            beta[k] = np.linalg.norm(r)
            basis[k + 1] = r / beta[k]
    return alpha, beta


def exact_chain(multipliers) -> tuple[list[Fraction], list[Fraction]]:
    """(B, J^2) of the mirror-symmetric chain whose traceless spectrum has
    consecutive gaps `multipliers` (unit 1), as exact Fractions, by the
    discrete Stieltjes procedure.  With tail sums T_n = m_n + ... + m_{N-1},
    lambda_n = T_n - mean(T) and the end weights are 1 / prod_{m != n}
    |T_n - T_m|, rational and free of the shift.  The monic orthogonal
    polynomials are carried as their values at the nodes:
    B_k = <x p_k, p_k> / <p_k, p_k>, J_k^2 = <p_{k+1}, p_{k+1}> / <p_k, p_k>
    and p_{k+1} = (x - B_k) p_k - J_{k-1}^2 p_{k-1}."""
    m = [int(x) for x in multipliers]
    n = len(m) + 1
    tails = [sum(m[i:]) for i in range(n)]
    lam = [Fraction(n * t - sum(tails), n) for t in tails]
    weights = [Fraction(1, math.prod(abs(t - s) for s in tails if s != t)) for t in tails]
    prev, poly = [Fraction(0)] * n, [Fraction(1)] * n
    norm = sum(weights)
    b, j2 = [], []
    for k in range(n):
        b.append(sum(w * x * p * p for w, x, p in zip(weights, lam, poly)) / norm)
        if k == n - 1:
            break
        last_j2 = j2[-1] if j2 else Fraction(0)
        prev, poly = poly, [(x - b[-1]) * p - last_j2 * q for x, p, q in zip(lam, poly, prev)]
        new_norm = sum(w * p * p for w, p in zip(weights, poly))
        j2.append(new_norm / norm)
        norm = new_norm
    return b, j2


def eigenvector_transfer_terms(eigenvalues, eigenvectors, parity_signs=None):
    """(eigenvalues, <N|n><n|1>) from a full eigendecomposition (columns
    sign-fixed): sigma_n a_n^2 from the mirror parity signs sigma_n and the
    first components a_n when the signs are given, else the product of the
    last and first components."""
    vec = np.asarray(eigenvectors, dtype=float)
    if parity_signs is None:
        return np.asarray(eigenvalues, dtype=float), vec[-1] * vec[0]
    return np.asarray(eigenvalues, dtype=float), parity_signs * vec[0] * vec[0]


def expm_fidelity(diagonal, couplings, times) -> np.ndarray:
    """|<N| exp(-i h t) |1>| from the matrix exponential itself."""
    h = dense_hamiltonian(diagonal, couplings)
    out = np.empty(len(times))
    for k, t in enumerate(times):
        u = scipy.linalg.expm(-1j * h * float(t))
        out[k] = abs(u[-1, 0])
    return out


def spectral_fidelity(lam, coeff):
    """f(t) = |sum_n c_n e^{-i lambda_n t}| for a float t, or for a column
    of times t[:, None].  The terms are formed and summed in the order the
    package's chunked kernel uses, so the two agree to the last bit."""
    phase = -1j * np.asarray(lam, dtype=float)

    def fidelity(t):
        z = np.exp(t * phase)
        z *= coeff
        return np.abs(z.sum(axis=-1))

    return fidelity


def spectral_slope(lam, coeff):
    """h(t) = Re(conj(z) z') = (f^2)'/2, with z = sum_n c_n e^{-i lambda_n t}
    and z' = sum_n (-i lambda_n) c_n e^{-i lambda_n t}, for a float t or a
    column of times t[:, None]."""
    phase = -1j * np.asarray(lam, dtype=float)

    def slope(t):
        terms = np.exp(t * phase) * coeff
        return np.real(np.conj(terms.sum(axis=-1)) * (terms * phase).sum(axis=-1))

    return slope


def slope_brackets(slope, grid: np.ndarray):
    """(a, b) for every fall of the slope from > 0 to <= 0 between
    consecutive samples of a time grid, the slope counted as rising at
    t = 0 (f(0) = 0), so (0, grid[0]) is a bracket if grid[0] is past a
    peak."""
    rising = np.concatenate(([True], slope(grid[:, None]) > 0.0))
    falls = np.flatnonzero(rising[:-1] & ~rising[1:])
    return np.concatenate(([0.0], grid))[falls], grid[falls]


def slope_root(slope, a: float, b: float) -> float:
    """The root of the slope on a bracket from slope_brackets, by Brent's
    method, to 4 eps of b; t = 0 counts as rising."""
    eps = np.finfo(float).eps
    return scipy.optimize.brentq(lambda t: float(slope(t)) if t > 0.0 else 1.0,
                                 a, b, xtol=4.0 * eps * b, rtol=4.0 * eps)


def first_peak_time(lam, coeff, threshold: float, horizon: float):
    """The earliest fidelity peak reaching threshold on (0, horizon], or
    None: one whole-grid scan for the slope's falls, one slope_root per
    bracket, and the horizon itself if f is still rising there.  The grid is
    linspace(horizon / n, horizon, n) at step pi / (8 width)."""
    fidelity = spectral_fidelity(lam, coeff)
    slope = spectral_slope(lam, coeff)
    width = lam[0] - lam[-1]
    n_steps = max(int(math.ceil(horizon / (math.pi / (8.0 * width)))), 2)
    grid = np.linspace(horizon / n_steps, horizon, n_steps)
    for a, b in zip(*slope_brackets(slope, grid)):
        t_peak = slope_root(slope, float(a), float(b))
        if fidelity(t_peak) >= threshold:
            return t_peak
    if slope(horizon) > 0.0 and fidelity(horizon) >= threshold:
        return horizon
    return None


def random_mirror_arrays(rng: np.random.Generator, n: int,
                         lo: float = 0.1, hi: float = 10.0):
    """Palindromic (B, J) with entries uniform in [lo, hi]."""
    half_b = rng.uniform(lo, hi, (n + 1) // 2)
    b = np.concatenate([half_b, half_b[: n // 2][::-1]])
    half_j = rng.uniform(lo, hi, n // 2)
    j = np.concatenate([half_j, half_j[: (n - 1) // 2][::-1]])
    return b, j
