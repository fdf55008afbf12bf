"""Perfect-state-transfer certification and fidelity dynamics.

A chain transfers site 1 to site N perfectly at time t0 iff it is
mirror-symmetric and its spectrum sits on an odd lattice of unit u = pi/t0.
Certification proposes the lattice of the largest unit dividing all gaps
with odd quotients, u = g_min/m for the least odd m, the lcm of the reduced
denominators of the ratios g/g_min (continued fractions give it in
O(N log cap) operations), and accepts it by the one rule _on_lattice.

Fidelity against time is f(t) = |z(t)|, z(t) = sum_n c_n e^{-i lambda_n t},
c_n = <N|lambda_n><lambda_n|1>.  As (x - h)^{-1} has (1, N) entry
prod_k J_k / det(x - h), c_n = (-1)^{n+1} prod_k J_k / prod_{m != n}
|lambda_n - lambda_m| for any chain (sigma_n a_n^2 for a mirror-symmetric
one; de Boor & Golub 1978).  So one eigenvalue solve serves a chain's
certificate, fidelity and audit; only spectra too near degenerate for these
coefficients are decomposed.  The peak scan takes its time grid as one
complex matrix product per chunk, keeping the slope at every sample and f^2
only at bracket ends, and only where sum |c_n|, a bound on every |z(t)|,
reaches the threshold; evolution and peak refinement sum each time's row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _alternating_signs, _Record, is_mirror_symmetric
from .eigensolve import classify_parity, decompose, eigenvalues_only
from .errors import NumericalBreakdown
from .synthesis import _expand_rows

__all__ = [
    "PstCertificate",
    "FidelityTrace",
    "certify",
    "evolve_fidelity",
    "first_perfect_time",
]

GAP_REL_TOL = 1e-9       # |g_n - m_n u| <= tol * g_n per gap
PHASE_TOL = 1e-8         # spread of the lattice offsets, times t0 (_on_lattice)
MAX_MULTIPLIER = 999
MAX_CAP = 2**31 - 1      # so caps and denominators are exact floats, lcm steps int64
FIDELITY_BYTES = 4 * 2**20  # working-set budget of one chunk of fidelity evaluations
WEIGHT_TOL = 1e-11       # error bound up to which fidelity weights come from the spectrum


@dataclass(frozen=True)
class PstCertificate(_Record):
    """Certification outcome.  When admissible: minimal transfer time t0, the
    transfer phase phi in (-pi, pi], the odd gap multipliers, and the worst
    relative gap residual |g_n - m_n u| / g_n.  When not: the numeric fields
    are None and `failure` is the verdict, "asymmetry" or
    "no-common-odd-unit"."""

    admissible: bool
    t0: float | None = None
    phi: float | None = None
    multipliers: np.ndarray | None = None
    max_residual: float | None = None
    failure: str | None = None

    @property
    def unit(self) -> float | None:
        """The gap unit pi/t0."""
        return None if self.t0 is None else math.pi / self.t0


def _principal_phase(x: np.ndarray) -> np.ndarray:
    """Map x to (-pi, pi], elementwise."""
    y = (x + math.pi) % (2.0 * math.pi) - math.pi
    return np.where(y == -math.pi, math.pi, y)


def _minimal_unit(gaps: np.ndarray, cap: int):
    """For one chain's positive gaps: the largest u = g_min/m, odd m <= cap,
    with all gaps odd multiples of u within GAP_REL_TOL, as (u, multipliers,
    max_residual).  u and max_residual are NaN and the multipliers zero where
    no unit fits.  The cap bounds m alone; the other multipliers are bounded
    only by representability, a sum below 2^53 (exact in float64 and int64).

    Every ratio g/g_min runs at once through its continued-fraction
    convergents p/q to the first within GAP_REL_TOL of it or to q > cap, and
    u = g_min/m for m the lcm of the q, kept only if m is odd, <= cap and a
    multiple of each q (np.lcm wraps silently) and every gap passes the
    per-gap test.  README, "Numerical notes", says when this m is the least
    odd m that passes; a wrong convergent can lose a unit but never certify
    a bad one.
    """
    g_min = gaps.min()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = gaps / g_min
        reach = GAP_REL_TOL * ratio
        p = np.floor(ratio)
        frac = ratio - p
        p_prev, q, q_prev = 1.0, 1.0, 0.0
        den = np.zeros_like(ratio)  # an entry's denominator once found
        open_ = np.isfinite(ratio)
        while True:
            found = open_ & (np.abs(ratio - p / q) <= reach)
            np.copyto(den, q, where=found)
            open_ ^= found
            if not open_.any():
                break
            x = 1.0 / frac  # inf once an expansion ends: q turns inf and closes
            a = np.floor(x)
            frac = x - a
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            open_ &= q <= cap
        den = den.astype(np.int64)
        m = int(np.lcm.reduce(den))  # 0 where an entry found none
        fits = 0 < m <= cap and m % 2 == 1 and (m % np.maximum(den, 1) == 0).all()
        if fits:
            u = g_min / m
            k = np.rint(gaps / u)
            resid = np.abs(gaps - k * u)
            # a float sum of whole k >= 0 reaches 2^53 exactly when the true sum does
            fits = ((k % 2 == 1) & (resid <= GAP_REL_TOL * gaps)).all() and k.sum() < 2.0**53
        if not fits:
            return math.nan, np.zeros(gaps.size, dtype=np.int64), math.nan
        return u, k.astype(np.int64), (resid / gaps).max()


def _check_cap(cap) -> None:
    """The one rule on a multiplier cap: odd and in 1..MAX_CAP."""
    if not (1 <= cap <= MAX_CAP and cap % 2 == 1):
        raise ValueError(f"multiplier cap must be odd and in 1..{MAX_CAP} (got {cap})")


def _on_lattice(spread, t0):
    """The PST acceptance rule, on scalars or rows: the offsets of any two
    eigenvalues from their odd lattice points of unit pi/t0, which differ by
    at most `spread`, differ by at most PHASE_TOL / t0.  Then every
    e^{-i lambda_n t0} is (-1)^{n+1} e^{-i lambda_1 t0} within PHASE_TOL."""
    return spread <= PHASE_TOL / t0


def _certify_chain(chain: ChainSpec, *, max_multiplier: int = MAX_MULTIPLIER):
    """certify on one chain, as (certificate, spectrum, lattice): the solved
    spectrum (None for an asymmetric chain) and the accepted traceless
    lattice (None unless admissible).  A failed solve raises, and so does a
    transfer time pi/u that overflows (NumericalBreakdown).  The steps run in
    order, each returning at once: the cap, mirror symmetry at SYMMETRY_TOL,
    the solve, the unit search at GAP_REL_TOL proposing the lattice, and
    _on_lattice."""
    _check_cap(max_multiplier)
    if not is_mirror_symmetric(chain):
        return PstCertificate(admissible=False, failure="asymmetry"), None, None
    lam = eigenvalues_only(chain)
    unit, multipliers, max_residual = _minimal_unit(-np.diff(lam), max_multiplier)
    refusal = PstCertificate(admissible=False, failure="no-common-odd-unit"), lam, None
    if math.isnan(unit):
        return refusal
    t0 = math.pi / float(unit)  # float division: inf without a warning
    if math.isinf(t0):
        raise NumericalBreakdown(f"transfer time pi/u overflows double precision (u = {unit:.3e})")
    lattice = _expand_rows(unit, multipliers[None])[0]
    if not _on_lattice(np.ptp(lam - lam.mean() - lattice), t0):
        return refusal
    cert = PstCertificate(admissible=True, t0=float(t0), phi=float(_principal_phase(-lam[0] * t0)),
                          multipliers=multipliers, max_residual=float(max_residual))
    return cert, lam, lattice


def certify(chain: ChainSpec, *, max_multiplier: int = MAX_MULTIPLIER) -> PstCertificate:
    """Decide PST admissibility and report the minimal transfer time.

    Keyword: max_multiplier (999), the cap on the odd m of the unit
    u = g_min/m, at most MAX_CAP = 2^31 - 1, else ValueError; the other
    multipliers are not capped.  The tolerances are module constants: mirror
    symmetry at chain.SYMMETRY_TOL (1e-10, relative), gaps at GAP_REL_TOL and
    the lattice offsets at PHASE_TOL (_on_lattice).  A chain that does not
    certify comes back with its verdict in `failure`; a failed solve raises
    EigensolveError, and a transfer time that overflows NumericalBreakdown.
    """
    return _certify_chain(chain, max_multiplier=max_multiplier)[0]


@dataclass(frozen=True)
class FidelityTrace:
    """Transfer fidelity f(t) = |<N| e^{-iht} |1>| sampled on a time grid."""

    times: np.ndarray
    fidelity: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.fidelity, dtype=float)
        if t.shape != f.shape or t.ndim != 1:
            raise ValueError("times and fidelity must be matching 1-d arrays")
        if f.size and not (f.min() >= 0.0 and f.max() <= 1.0 + 1e-12):
            raise ValueError("fidelity outside [0, 1 + 1e-12]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fidelity", f)

    def to_csv(self, footer: str | None = None) -> str:
        """CSV with columns time,fidelity (12 significant digits); `footer`
        is appended as a '# ' comment line."""
        lines = ["time,fidelity"]
        lines += [
            f"{t:.12g},{f:.12g}" for t, f in zip(self.times, self.fidelity)
        ]
        if footer is not None:
            lines.append(f"# {footer}")
        return "\n".join(lines) + "\n"


def _spectral_coefficients(lam: np.ndarray, couplings: np.ndarray) -> np.ndarray | None:
    """c_n = <N|n><n|1> (module docstring) from a descending spectrum and the
    couplings, in logs in units of the spectral width and cut to sum |c_n| <= 1
    (Cauchy-Schwarz), or None unless within WEIGHT_TOL: to first order in
    eigenvalue errors d = eps max|lambda|, no c_n moves by more than
    4 (d / width) sum_n |c_n| S_n, S_n = sum_{m != n} width / |lambda_n - lambda_m|."""
    width = lam[0] - lam[-1]
    distance = np.abs(np.subtract.outer(lam, lam)) / width + np.eye(lam.size)  # 1 on the diagonal
    mag = np.exp(np.log(couplings / width).sum() - np.log(distance).sum(axis=1))
    spread = mag @ ((1.0 / distance).sum(axis=1) - 1.0)
    if not 4.0 * np.finfo(float).eps * (np.abs(lam).max() / width) * spread <= WEIGHT_TOL:
        return None
    return _alternating_signs(lam.size) * mag / max(1.0, mag.sum())


def _transfer_terms(chain: ChainSpec, lam: np.ndarray | None = None):
    """(eigenvalues, <N|n><n|1> coefficients) from the spectrum (`lam` if
    already solved); where WEIGHT_TOL fails, from eigenvectors instead,
    parity-purified (classify_parity) for a mirror-symmetric chain."""
    lam = eigenvalues_only(chain) if lam is None else lam
    coeff = _spectral_coefficients(lam, chain.couplings)
    if coeff is not None:
        return lam, coeff
    spectral = decompose(chain)
    if is_mirror_symmetric(chain):
        spectral = classify_parity(spectral, chain)
    return spectral.eigenvalues, spectral.eigenvectors[-1] * spectral.eigenvectors[0]


def evolve_fidelity(chain: ChainSpec, times) -> FidelityTrace:
    """f(t) on the given grid, by spectral summation (no matrix exponential),
    in chunks whose working set stays under FIDELITY_BYTES.

    |sum c_n e^{-i lambda_n t}| <= sum |c_n| <= 1 by Cauchy-Schwarz, so the
    values land in [0, 1] up to roundoff.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or not np.isfinite(times).all():
        raise ValueError("times must be one-dimensional and finite")
    lam, coeff = _transfer_terms(chain)
    return FidelityTrace(times=times, fidelity=_fidelity(lam, coeff, times))


def _chunk_rows(n: int) -> int:
    """Rows per chunk under FIDELITY_BYTES at 16 (n + 8) bytes a row: in
    _phase_sums a time, one complex row of n plus sixteen floats of sums; in
    the scan a sample, three complex values plus a few floats, and one complex
    row of n per base and per offset (a few sqrt(rows) rows in all)."""
    return max(1, FIDELITY_BYTES // (16 * (n + 8)))


def _phase_sums(lam, coeff, times, order, reduce, out):
    """Fill `out` (last axis over `times`) chunk by chunk with
    reduce(z, z', ..., z^(order)), the time derivatives of the transfer
    amplitude z(t) = sum_n c_n e^{-i lambda_n t}: one exp per time and
    eigenvalue, and the sums of the rows c e^{-i lambda t} (-i lambda)^k.
    Each time's sums run over its own row (no BLAS), so a value does not
    depend on how many times share the call or the chunk."""
    phase = -1j * lam
    rows = _chunk_rows(lam.size)
    buffer = np.empty((min(rows, times.size), lam.size), dtype=complex)
    for start in range(0, times.size, rows):
        t = times[start : start + rows]
        z = np.multiply.outer(t, phase, out=buffer[: t.size])
        np.exp(z, out=z)
        z *= coeff
        sums = [z.sum(axis=1)]
        for _ in range(order):
            z *= phase
            sums.append(z.sum(axis=1))
        out[..., start : start + t.size] = reduce(*sums)
    return out


def _grid_scan(lam, coeff, offsets):
    """The scan's kernel: a function of Q block starts s giving (h, z), each
    (Q, B), at the times s_q + offsets[b]: z and z' by one complex matrix
    product of the base rows c e^{-i lambda s_q} (Q N exps a call) with
    [E | -i lambda E], E[n, b] = e^{-i lambda_n d_b} (B N exps, once), and
    h = Re(conj(z) z') in real arithmetic on the product's float view.  BLAS
    orders the product by shape, so a sample can move in its last bit with Q."""
    phase = -1j * lam
    shift = np.exp(np.multiply.outer(phase, offsets))
    kernel = np.hstack((shift, phase[:, None] * shift))

    def terms(starts):
        z = (np.exp(np.multiply.outer(starts, phase)) * coeff) @ kernel
        parts = z.view(float).reshape(starts.size, 2, offsets.size, 2)
        h = parts[:, 0, :, 0] * parts[:, 1, :, 0]
        h += parts[:, 0, :, 1] * parts[:, 1, :, 1]
        return h, z[:, : offsets.size]

    return terms


def _fidelity(lam: np.ndarray, coeff: np.ndarray, times: np.ndarray) -> np.ndarray:
    """|sum_n c_n e^{-i lambda_n t}| for each t in the 1-d array `times`;
    NumericalBreakdown where a phase lambda t or a coefficient overflows."""
    f = _phase_sums(lam, coeff, times, 0, np.abs, np.empty(times.size))
    if not np.isfinite(f).all():
        raise NumericalBreakdown("fidelity is not finite: the phases or weights overflow")
    return f


def _newton_terms(z, dz, d2z):
    """(h, h', f) with h = Re(conj(z) z') = (f^2)'/2 and h' = |z'|^2 + Re(conj(z) z'')."""
    return (z.conj() * dz).real, np.abs(dz) ** 2 + (z.conj() * d2z).real, np.abs(z)


def _rounding_slack(lam, b):
    """64 N eps (1 + b max|lambda|): the rounding of f^2 (sum |c| <= 1) at times
    up to b, in phases and sums; a length-N dot product errs by at most about
    N eps sum |c| in any order, so the scan's matrix product stays within it."""
    return 64.0 * lam.size * np.finfo(float).eps * (1.0 + b * np.abs(lam).max())


def _peak_ceilings(lam, coeff, a, b, f2_a, f2_b):
    """Bounds on f^2 at a peak t* in each bracket [a, b], from f^2 at its
    ends: h(t*) = 0, so f^2(t*) <= max(f^2(a), f^2(b)) + M (b - a)^2 / 8 for
    M >= |(f^2)''| = 2 |h'|, bounded through |z|, |z'|, |z''| on the centred
    spectrum (a shift moves no f), plus _rounding_slack."""
    mag, centred = np.abs(coeff), np.abs(lam - 0.5 * (lam[0] + lam[-1]))
    curvature = 2.0 * ((mag @ centred) ** 2 + mag.sum() * (mag @ centred**2))
    return np.maximum(f2_a, f2_b) + curvature * (b - a) ** 2 / 8.0 + _rounding_slack(lam, b)


def _refine_peaks(lam: np.ndarray, coeff: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Locate the maximum of f on each bracket [a_k, b_k] across which the
    slope h falls from > 0 to <= 0, as (t, f(t)): the root of h, by Newton's
    method with the analytic h', all brackets together, each from the secant
    root of h across it, or its midpoint.  A row whose end (not t = 0, where
    h and h' are roundoff) has h' < 0 and |h / h'| < 4 eps b ends there
    first: the Newton point would keep leaving that root.  Each evaluation
    narrows its bracket by the sign of h, and a row bisects wherever h' >= 0
    or the Newton point would leave the bracket.  A row stops when its Newton
    correction or its bracket is within 4 eps of the bracket's initial right
    end, so a peak lands within a few ulps of the root.
    """
    tol = 4.0 * np.finfo(float).eps * b
    ends = np.concatenate((b, a))
    h, dh, f = _phase_sums(lam, coeff, ends, 2, _newton_terms, np.empty((3, ends.size)))
    root = ((np.abs(h) < -dh * np.tile(tol, 2)) & (ends > 0.0)).reshape(2, -1)
    t, ft = np.where(root[0], b, a), np.where(root[0], *f.reshape(2, -1))  # b if a root
    active = np.flatnonzero(~root.any(axis=0))
    h_b, h_a = h.reshape(2, -1)
    x = a + np.divide(h_a, h_a - h_b, out=np.full(a.size, np.nan), where=h_a > h_b) * (b - a)
    x = np.where((x > a) & (x < b), x, 0.5 * (a + b))  # x is NaN where h does not fall
    a, b, x, tol = (v[active] for v in (a, b, x, tol))
    while active.size:
        h, dh, f = _phase_sums(lam, coeff, x, 2, _newton_terms, np.empty((3, x.size)))
        rising = h > 0.0
        a, b = np.where(rising, x, a), np.where(rising, b, x)
        step = np.divide(h, dh, out=np.full(x.size, np.inf), where=dh < 0.0)
        done = (np.abs(step) <= tol) | (b - a <= tol)
        t[active[done]], ft[active[done]] = x[done], f[done]
        newton = x - step
        x = np.where((newton > a) & (newton < b), newton, 0.5 * (a + b))
        keep = ~done
        active, a, b, x, tol = (v[keep] for v in (active, a, b, x, tol))
    return t, ft


def first_perfect_time(
    chain: ChainSpec, threshold: float = 1.0 - 1e-8, horizon: float | None = None
) -> float | None:
    """Time of the earliest fidelity peak reaching `threshold`, or None.

    None at once, after the argument checks, if (sum |c_n|)^2 plus the
    rounding slack is below threshold^2.  Else samples the slope
    h = Re(conj(z) z') = (f^2)'/2 of the fidelity on (0, horizon] at step
    pi/(8 * spectral width) -- at least 16 samples per period of the fastest
    phase -- and takes every fall of h from > 0 to <= 0 between consecutive
    samples as a peak's bracket.  f(0) = 0, so h counts as rising at t = 0,
    and a fidelity still rising at the horizon peaks there.  A bracket whose
    ceiling on f^2 (see _peak_ceilings) is below threshold^2 cannot hold a
    hit and is skipped; every other peak is refined to the root of h (see
    _refine_peaks) before it is compared with the threshold, so near-miss
    peaks are never taken for hits and certified chains return t0, not a
    flank crossing.  Default horizon: t0 for a chain that certifies (at
    certify's defaults, on the spectrum the fidelity uses), as f(t0) = 1
    reaches any threshold; else 4 pi / (smallest gap), one revival of the slowest pair.
    A default horizon or a sample count beyond double precision raises
    NumericalBreakdown; a given horizon not finite and > 0, ValueError.

    The grid is scanned in chunks of whole blocks of B samples, a start plus
    B offsets aligned to the sample index, each chunk one matrix product
    (see _grid_scan) under FIDELITY_BYTES; f^2 = |z|^2 is taken only at
    bracket ends, and only the last sample's time, h and z carry over.  A
    sample may move in its last bit with the chunking, but samples only
    choose and bound brackets, and each returned time is refined by per-row
    sums, so the answer does not.  A chunk's peaks are refined together; the
    scan stops at the first chunk with a hit.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")
    cert, lam = (None, None) if horizon is not None else _certify_chain(chain)[:2]
    lam, coeff = _transfer_terms(chain, lam)
    if horizon is None:
        horizon = float(cert.t0 or 4.0 * math.pi / (-np.diff(lam)).min())
        if not (math.isfinite(horizon) and horizon > 0):
            raise NumericalBreakdown(f"default horizon {horizon} is not a finite time > 0")
    elif not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and > 0")
    # |z(t)| <= sum |c_n| at every t (triangle inequality), and no computed f^2
    # exceeds (sum |c_n|)^2 by more than the rounding slack, so no f is a hit
    if np.abs(coeff).sum() ** 2 + _rounding_slack(lam, horizon) < threshold**2:
        return None
    steps = horizon * (8.0 * float(lam[0] - lam[-1]) / math.pi)
    if not math.isfinite(steps):
        raise NumericalBreakdown("the sample count horizon * 8 width / pi overflows")
    n_steps = max(math.ceil(steps), 2)
    # the samples of np.linspace(horizon / n_steps, horizon, n_steps)
    first = horizon / n_steps
    spacing = (horizon - first) / (n_steps - 1)
    # B N exps once, and a chunk of Q blocks Q N exps and a (Q, N) x (N, 2B) product;
    # B N + n_steps N / B is least at B = sqrt(n_steps)
    block = math.isqrt(min(_chunk_rows(lam.size), n_steps))
    span = max(1, (_chunk_rows(lam.size) - block) // (block + 1)) * block
    terms = _grid_scan(lam, coeff, np.arange(block) * spacing)
    scan = np.empty((2, 1 + span))  # t, h; column 0 is the sample before the chunk
    amp = np.empty(1 + span, dtype=complex)  # z, likewise
    scan[:, 0], amp[0] = (0.0, 1.0), 0.0  # f(0) = 0, and h counts as rising there
    for start in range(0, n_steps, span):
        stop = 1 + min(span, n_steps - start)
        (t, h), z = scan[:, :stop], amp[:stop]
        t[1:] = np.arange(start, start + t.size - 1) * spacing + first
        if start + span >= n_steps:
            t[-1] = horizon
        h[1:], z[1:] = (v.ravel()[: t.size - 1] for v in terms(t[1::block]))
        up = h > 0.0
        falls = np.flatnonzero(up[:-1] & ~up[1:])
        a, b = t[falls], t[falls + 1]
        f2_a, f2_b = np.abs(z[falls]) ** 2, np.abs(z[falls + 1]) ** 2
        reach = _peak_ceilings(lam, coeff, a, b, f2_a, f2_b) >= threshold**2
        scan[:, 0], amp[0] = scan[:, t.size - 1], z[-1]
        if reach.any():
            t_peak, f_peak = _refine_peaks(lam, coeff, a[reach], b[reach])
            hits = np.flatnonzero(f_peak >= threshold)
            if hits.size:
                return float(t_peak[hits[0]])
    if h[-1] > 0.0 and np.abs(z[-1]) ** 2 >= threshold**2:
        return horizon
    return None
