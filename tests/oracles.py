"""Independent dense-matrix oracles for the test suite.

Everything here avoids the production code paths on purpose: Hamiltonians are
materialized as dense arrays, eigenproblems go through numpy's dense
symmetric solver instead of the tridiagonal one, time evolution goes through
an explicit matrix exponential instead of spectral summation, and the mirror
traces are literal antidiagonal sums.  The fidelity peak search is the
whole-grid scan that refines one peak at a time, given the eigenvalues and
end-amplitude coefficients; the reference coefficients come from
eigenvectors.
Agreement between these routes and the package is evidence, not tautology,
so nothing in this file may import pstlab.
"""
import math

import numpy as np
import scipy.linalg


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


def refine_peak(fun, a: float, b: float) -> tuple[float, float]:
    """Locate the maximum of the scalar function fun on [a, b], one bracket
    at a time: golden section down to (b - a) <= 1e-7 b, then one parabolic
    vertex step at stride 1e-6 b, kept only if it does not lower f.  The
    reference for the package's batched peak refinement."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while (b - a) > 1e-7 * b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fun(x1)
    t, ft = (x1, f1) if f1 >= f2 else (x2, f2)
    h = 1e-6 * b
    f_lo, f_hi = fun(t - h), fun(t + h)
    denom = f_lo - 2.0 * ft + f_hi
    if denom < 0.0:
        t_vertex = t + 0.5 * h * (f_lo - f_hi) / denom
        f_vertex = fun(t_vertex)
        if f_vertex >= ft:
            return t_vertex, f_vertex
    return t, ft


def peak_brackets(grid: np.ndarray, index: np.ndarray):
    """The bracket (a, b) around each sample index of a time grid: its two
    neighbours, with grid[0] / 8 left of the first sample and the last
    sample itself right of the last."""
    padded = np.concatenate(([grid[0] / 8.0], grid, [grid[-1]]))
    return padded[index], padded[index + 2]


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


def first_peak_time(lam, coeff, threshold: float, horizon: float):
    """The earliest refined fidelity peak reaching threshold on (0, horizon],
    or None, by one whole-grid scan and one refine_peak per local maximum.
    The grid is linspace(horizon / n, horizon, n) at step pi / (8 width)."""
    fidelity = spectral_fidelity(lam, coeff)
    width = lam[0] - lam[-1]
    n_steps = max(int(math.ceil(horizon / (math.pi / (8.0 * width)))), 2)
    grid = np.linspace(horizon / n_steps, horizon, n_steps)
    fid = fidelity(grid[:, None])
    is_peak = np.empty(grid.size, dtype=bool)
    is_peak[0] = fid[0] >= fid[1]
    is_peak[-1] = fid[-1] >= fid[-2]
    is_peak[1:-1] = (fid[1:-1] >= fid[:-2]) & (fid[1:-1] >= fid[2:])
    lo, hi = peak_brackets(grid, np.flatnonzero(is_peak))
    for a, b in zip(lo, hi):
        t_peak, f_peak = refine_peak(lambda t: float(fidelity(t)), float(a), float(b))
        if f_peak >= threshold:
            return min(t_peak, horizon)
    return None


def random_mirror_arrays(rng: np.random.Generator, n: int,
                         lo: float = 0.1, hi: float = 10.0):
    """Palindromic (B, J) with entries uniform in [lo, hi]."""
    half_b = rng.uniform(lo, hi, (n + 1) // 2)
    b = np.concatenate([half_b, half_b[: n // 2][::-1]])
    half_j = rng.uniform(lo, hi, n // 2)
    j = np.concatenate([half_j, half_j[: (n - 1) // 2][::-1]])
    return b, j
