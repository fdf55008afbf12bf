"""Perfect-state-transfer certification and fidelity dynamics.

A chain transfers site 1 to site N perfectly at time t0 iff it is
mirror-symmetric and consecutive eigenvalue gaps are odd multiples of a
common unit u = pi/t0.  Certification therefore reduces to finding the
largest unit dividing all gaps with odd quotients, u = g_min/m for the
least odd m, the lcm of the reduced denominators of the ratios g/g_min;
continued fractions give it in O(N log cap) operations.

Fidelity against time is
f(t) = |<N| e^{-i h t} |1>| = |sum_n <N|lambda_n><lambda_n|1> e^{-i lambda_n t}|,
which for mirror-symmetric chains is the parity-weighted end-amplitude sum
sum_n sigma_n a_n^2 e^{-i lambda_n t}, fixed by the spectrum alone:
sigma_n = (-1)^{n+1} and a_n^2 proportional to
1 / prod_{m != n} |lambda_n - lambda_m| (de Boor & Golub 1978).  So one
eigenvalue solve serves a symmetric chain's certificate, fidelity and audit.
Asymmetric chains, and spectra too close to degenerate for those weights,
are decomposed instead.  The peak scan takes its time grid as one complex
matrix product per chunk; evolution and peak refinement sum each time's row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    SYMMETRY_TOL,
    ChainSpec,
    _alternating_signs,
    _mirror_symmetric_rows,
    _Record,
    is_mirror_symmetric,
)
from .eigensolve import _eigenvalues_rows, classify_parity, decompose, eigenvalues_only
from .errors import MultiplierOverflow, NotAdmissible
from .synthesis import _end_weights

__all__ = [
    "PstCertificate",
    "FidelityTrace",
    "certify",
    "evolve_fidelity",
    "first_perfect_time",
]

GAP_REL_TOL = 1e-9       # |g_n - m_n u| <= tol * g_n per gap
PHASE_TOL = 1e-8         # |e^{-i lambda t0} - sigma e^{i phi}| acceptance
MAX_MULTIPLIER = 999
MAX_CAP = 2**31 - 1      # so caps, denominators, multipliers are exact floats, lcm steps int64
FIDELITY_BYTES = 4 * 2**20  # working-set budget of one chunk of fidelity evaluations
WEIGHT_TOL = 1e-11       # error bound up to which fidelity weights come from the spectrum


@dataclass(frozen=True)
class PstCertificate(_Record):
    """Certification outcome.  When admissible: minimal transfer time t0, the
    transfer phase phi in (-pi, pi], the odd gap multipliers, and the worst
    relative gap residual |g_n - m_n u| / g_n.  When not: the numeric fields
    are None and `failure` is the verdict, "asymmetry" or
    "no-common-odd-unit"; a third, "multiplier-overflow", reaches only the
    CLI, since certify raises MultiplierOverflow in its place."""

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


def _minimal_unit_rows(gaps: np.ndarray, cap: int, rel_tol: float):
    """Per row of positive gaps (S, N-1): the largest u with all gaps odd
    multiples of u within rel_tol, as (u, multipliers, max_residual,
    overflow).  u is NaN where no unit fits; overflow marks the rows without
    one where a unit passed except that some multiplier exceeded the cap.

    Each ratio g/g_min runs through its continued-fraction convergents p/q
    to the first within rel_tol of it or to q > cap, and u = g_min/m for m
    the lcm of a row's q, kept only if m is odd, <= cap and a multiple of
    each q (np.lcm wraps silently) and every gap passes the per-gap test.
    README, "Numerical notes", says when this m is the least odd m that
    passes; a wrong convergent can lose a unit but never certify a bad one.
    """
    g_min = gaps.min(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = gaps / g_min
        reach = rel_tol * ratio
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
        m = np.lcm.reduce(den, axis=1)  # 0 where an entry found none
        fits = (m > 0) & (m <= cap) & (m % 2 == 1)
        fits &= (m[:, None] % np.maximum(den, 1) == 0).all(axis=1)
        u = g_min / np.where(fits, m, 1)[:, None]
        k = np.rint(gaps / u)
        resid = np.abs(gaps - k * u)
        fits &= ((k % 2 == 1) & (resid <= rel_tol * gaps)).all(axis=1)
        overflow = fits & (k > cap).any(axis=1)
        fits &= ~overflow
        unit = np.where(fits, u[:, 0], np.nan)
        mult = np.where(fits[:, None], k, 0.0).astype(np.int64)
        max_resid = np.where(fits, (resid / gaps).max(axis=1), np.nan)
    return unit, mult, max_resid, overflow


@dataclass(frozen=True)
class _CertifiedRows:
    """certify per row of stacked chains.  A row is admissible where t0 is
    not NaN.  Otherwise `errors` holds the PstLabError that audit_chain
    raises for it, and `failure` its verdict: "asymmetry",
    "no-common-odd-unit" or "multiplier-overflow", or None where the solve
    failed."""

    eigenvalues: np.ndarray   # (S, N) descending; NaN where not solved
    t0: np.ndarray            # (S,), NaN unless admissible
    phi: np.ndarray           # (S,)
    multipliers: np.ndarray   # (S, N-1) int64, zero unless admissible
    max_residual: np.ndarray  # (S,)
    failure: np.ndarray       # (S,) object: a verdict or None
    errors: np.ndarray        # (S,) object: a PstLabError or None

    def certificate(self, k: int) -> PstCertificate:
        """Row k's certificate."""
        if np.isnan(self.t0[k]):
            return PstCertificate(admissible=False, failure=self.failure[k])
        return PstCertificate(
            admissible=True,
            t0=float(self.t0[k]),
            phi=float(self.phi[k]),
            multipliers=self.multipliers[k],
            max_residual=float(self.max_residual[k]),
        )


def _check_cap(cap) -> None:
    """The one rule on a multiplier cap: odd and in 1..MAX_CAP."""
    if not (1 <= cap <= MAX_CAP and cap % 2 == 1):
        raise ValueError(f"multiplier cap must be odd and in 1..{MAX_CAP} (got {cap})")


def _certify_rows(
    diagonal: np.ndarray,
    couplings: np.ndarray,
    *,
    symmetry_tol: float,
    max_multiplier: int,
) -> _CertifiedRows:
    """certify for stacked fields (S, N) and (S, N-1)."""
    _check_cap(max_multiplier)
    s, n = diagonal.shape
    lam = np.full((s, n), np.nan)
    t0, phi, max_resid = np.full(s, np.nan), np.full(s, np.nan), np.full(s, np.nan)
    mult = np.zeros((s, n - 1), dtype=np.int64)
    failure, errors = np.full(s, None, dtype=object), np.full(s, None, dtype=object)

    symmetric = _mirror_symmetric_rows(diagonal, couplings, symmetry_tol)
    failure[~symmetric] = "asymmetry"
    rows = np.flatnonzero(symmetric)
    lam[rows], errors[rows] = _eigenvalues_rows(diagonal[rows], couplings[rows])
    rows = rows[np.equal(errors[rows], None)]

    unit, found, resid, overflow = _minimal_unit_rows(
        -np.diff(lam[rows], axis=1), max_multiplier, GAP_REL_TOL
    )
    fits = ~np.isnan(unit)
    failure[rows[overflow]] = "multiplier-overflow"
    failure[rows[~fits & ~overflow]] = "no-common-odd-unit"
    rows, found, resid = rows[fits], found[fits], resid[fits]
    times = math.pi / unit[fits]
    spectra = lam[rows]
    phases = _principal_phase(-spectra[:, 0] * times)
    # the unit must also reproduce the phase condition
    # e^{-i lambda_n t0} = (-1)^{n+1} e^{i phi}; residual accumulation across
    # gaps can break it even when each gap passes individually.
    signs = _alternating_signs(n)
    deviation = np.abs(
        np.exp(-1j * spectra * times[:, None]) - signs * np.exp(1j * phases)[:, None]
    ).max(axis=1)
    failure[rows[deviation > PHASE_TOL]] = "no-common-odd-unit"
    ok = deviation <= PHASE_TOL
    rows = rows[ok]
    t0[rows], phi[rows] = times[ok], phases[ok]
    mult[rows], max_resid[rows] = found[ok], resid[ok]
    errors[failure == "multiplier-overflow"] = MultiplierOverflow(
        f"gaps are commensurate only with an odd multiplier beyond "
        f"{max_multiplier}; raise the cap or treat the spectrum as incommensurate"
    )
    for verdict in ("asymmetry", "no-common-odd-unit"):
        errors[failure == verdict] = NotAdmissible(f"chain does not certify: {verdict}")
    return _CertifiedRows(lam, t0, phi, mult, max_resid, failure, errors)


def _certify_chain(
    chain: ChainSpec, *, symmetry_tol: float = SYMMETRY_TOL, max_multiplier: int = MAX_MULTIPLIER
):
    """certify on one chain, as (certificate, spectrum, error): the spectrum
    it solved, or None for an asymmetric chain, which is not solved, and the
    error audit_chain raises for a chain that does not certify, or None.  A
    failed solve raises."""
    rows = _certify_rows(chain.diagonal[None], chain.couplings[None],
                         symmetry_tol=symmetry_tol, max_multiplier=max_multiplier)
    failure, error = rows.failure[0], rows.errors[0]
    if failure is None and error is not None:
        raise error
    lam = None if failure == "asymmetry" else rows.eigenvalues[0]
    return rows.certificate(0), lam, error


def certify(
    chain: ChainSpec, *, symmetry_tol: float = SYMMETRY_TOL, max_multiplier: int = MAX_MULTIPLIER
) -> PstCertificate:
    """Decide PST admissibility and report the minimal transfer time.

    Keywords: symmetry_tol (SYMMETRY_TOL = 1e-10, relative), and
    max_multiplier (999), the odd multiplier cap, at most MAX_CAP = 2^31 - 1,
    else ValueError.  Gaps are tested to GAP_REL_TOL and the phase to
    PHASE_TOL.  A chain that does not certify comes back with its verdict in
    `failure`, except that MultiplierOverflow is raised where an odd m <= cap
    fits but a multiplier exceeds it; a failed solve raises EigensolveError.
    """
    cert, _, error = _certify_chain(chain, symmetry_tol=symmetry_tol,
                                    max_multiplier=max_multiplier)
    if isinstance(error, MultiplierOverflow):
        raise error
    return cert


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


def _spectral_coefficients(lam: np.ndarray) -> np.ndarray | None:
    """sigma_n a_n^2 from a mirror-symmetric chain's descending spectrum, or
    None where they may be off by more than WEIGHT_TOL.  With eigenvalue
    errors d = eps max|lambda|, no coefficient moves by more than
    4 d sum_n a_n^2 S_n, S_n = sum_{m != n} 1/|lambda_n - lambda_m|, to first
    order; a near-degenerate pair makes that large."""
    weights = _end_weights(lam[None])[0]
    distance = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(distance, np.inf)
    spread = (weights * (1.0 / distance).sum(axis=1)).sum()
    if 4.0 * np.finfo(float).eps * np.abs(lam).max() * spread > WEIGHT_TOL:
        return None
    return _alternating_signs(lam.size) * weights


def _transfer_terms(chain: ChainSpec, lam: np.ndarray | None = None):
    """(eigenvalues, <N|n><n|1> coefficients): from the spectrum (`lam` if
    already solved) for a mirror-symmetric chain, else from eigenvectors."""
    if is_mirror_symmetric(chain):
        lam = eigenvalues_only(chain) if lam is None else lam
        coeff = _spectral_coefficients(lam)
        if coeff is not None:
            return lam, coeff
        spectral = classify_parity(decompose(chain), chain)
        return spectral.eigenvalues, spectral.parity_signs * spectral.eigenvectors[0] ** 2
    spectral = decompose(chain)
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
    the scan a sample, two complex values plus a few floats, and one complex
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
    """The scan's kernel: a function of Q block starts s giving (h, f^2),
    each (Q, B), at the times s_q + offsets[b], from z and z' by one complex
    matrix product of the base rows c e^{-i lambda s_q} (Q N exps a call)
    with [E | -i lambda E], E[n, b] = e^{-i lambda_n d_b} (B N exps, once).
    BLAS orders it by shape, so a sample can move in its last bit with Q."""
    phase = -1j * lam
    shift = np.exp(np.multiply.outer(phase, offsets))
    kernel = np.hstack((shift, phase[:, None] * shift))

    def terms(starts):
        z = (np.exp(np.multiply.outer(starts, phase)) * coeff) @ kernel
        z, dz = z[:, : offsets.size], z[:, offsets.size :]
        return _slope(z, dz), np.abs(z) ** 2

    return terms


def _fidelity(lam: np.ndarray, coeff: np.ndarray, times: np.ndarray) -> np.ndarray:
    """|sum_n c_n e^{-i lambda_n t}| for each t in the 1-d array `times`."""
    return _phase_sums(lam, coeff, times, 0, np.abs, np.empty(times.size))


def _slope(z, dz):
    """h = Re(conj(z) z') = (f^2)'/2, which has the sign of f's slope."""
    return (z.conj() * dz).real


def _newton_terms(z, dz, d2z):
    """(h, h', f), with h' = |z'|^2 + Re(conj(z) z'')."""
    return _slope(z, dz), np.abs(dz) ** 2 + _slope(z, d2z), np.abs(z)


def _peak_ceilings(lam, coeff, a, b, f2_a, f2_b):
    """Bounds on f^2 at a peak t* in each bracket [a, b], from f^2 at its
    ends: h(t*) = 0, so f^2(t*) <= max(f^2(a), f^2(b)) + M (b - a)^2 / 8 for
    M >= |(f^2)''| = 2 |h'|, bounded through |z|, |z'|, |z''| on the centred
    spectrum (a shift moves no f).  The slack 64 N eps (1 + b max|lambda|)
    covers the rounding of f^2 (sum |c| <= 1) in the phases and the sums; a
    length-N dot product errs by at most about N eps sum |c| in any
    summation order, so the scan's matrix product stays within it too."""
    mag, centred = np.abs(coeff), np.abs(lam - 0.5 * (lam[0] + lam[-1]))
    curvature = 2.0 * ((mag @ centred) ** 2 + mag.sum() * (mag @ centred**2))
    slack = 64.0 * lam.size * np.finfo(float).eps * (1.0 + b * np.abs(lam).max())
    return np.maximum(f2_a, f2_b) + curvature * (b - a) ** 2 / 8.0 + slack


def _refine_peaks(lam: np.ndarray, coeff: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Locate the maximum of f on each bracket [a_k, b_k] across which the
    slope h falls from > 0 to <= 0, as (t, f(t)): the root of h, by Newton's
    method with the analytic h', all brackets together from their midpoints.
    A row whose end (not t = 0, where h and h' are roundoff) has h' < 0 and
    |h / h'| < 4 eps b ends there first: the Newton point would keep leaving
    that root.  Each evaluation narrows its bracket by the sign of h, and a
    row bisects wherever h' >= 0 or the Newton point would leave the bracket.
    A row stops when its Newton correction or its bracket is within 4 eps of
    the bracket's initial right end, so a peak lands within a few ulps of
    the root.
    """
    tol = 4.0 * np.finfo(float).eps * b
    ends = np.concatenate((b, a))
    h, dh, f = _phase_sums(lam, coeff, ends, 2, _newton_terms, np.empty((3, ends.size)))
    root = ((np.abs(h) < -dh * np.tile(tol, 2)) & (ends > 0.0)).reshape(2, -1)
    t, ft = np.where(root[0], b, a), np.where(root[0], *f.reshape(2, -1))  # b if a root
    active = np.flatnonzero(~root.any(axis=0))
    a, b, x, tol = (v[active] for v in (a, b, 0.5 * (a + b), tol))
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

    Samples the slope h = Re(conj(z) z') = (f^2)'/2 of the fidelity on
    (0, horizon] at step pi/(8 * spectral width) -- at least 16 samples per
    period of the fastest phase -- and takes every fall of h from > 0 to <= 0
    between consecutive samples as a peak's bracket.  f(0) = 0, so h counts
    as rising at t = 0, and a fidelity still rising at the horizon peaks
    there.  A bracket whose ceiling on f^2 (see _peak_ceilings) is below
    threshold^2 cannot hold a hit and is skipped; every other peak is refined
    to the root of h (see _refine_peaks) before it is compared with the
    threshold, so near-miss peaks are never mistaken for hits and certified
    chains return t0 itself rather than a flank crossing.  Default horizon:
    t0 for a chain that certifies (at certify's defaults, on the spectrum
    the fidelity uses), as f(t0) = 1 reaches any threshold; else 4 pi /
    (smallest gap), one full revival period of the slowest phase pair.

    The grid is scanned in chunks of whole blocks of B samples, a start plus
    B offsets aligned to the sample index, each chunk one matrix product
    (see _grid_scan) under FIDELITY_BYTES; only the last sample's time, h
    and f^2 carry over.  A sample may move in its last bit with the
    chunking, but samples only choose and bound brackets, and each returned
    time is refined by per-row sums, so the answer does not.  A chunk's
    peaks are refined together; the scan stops at the first chunk with a hit.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")
    cert, lam, _ = (None, None, None) if horizon is not None else _certify_chain(chain)
    lam, coeff = _transfer_terms(chain, lam)
    if horizon is None:
        horizon = cert.t0 or 4.0 * math.pi / float((-np.diff(lam)).min())
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and > 0")
    step = math.pi / (8.0 * (lam[0] - lam[-1]))
    n_steps = max(int(math.ceil(horizon / step)), 2)
    # the samples of np.linspace(horizon / n_steps, horizon, n_steps)
    first = horizon / n_steps
    spacing = (horizon - first) / (n_steps - 1)
    # a chunk of Q blocks of B samples takes Q N exps and a (Q, N) x (N, 2B) product
    block = math.isqrt(_chunk_rows(lam.size))
    span = max(1, (_chunk_rows(lam.size) - block) // (block + 1)) * block
    terms = _grid_scan(lam, coeff, np.arange(block) * spacing)
    scan = np.empty((3, 1 + span))  # t, h, f^2; column 0 is the sample before the chunk
    scan[:, 0] = 0.0, 1.0, 0.0  # f(0) = 0, and h counts as rising there
    for start in range(0, n_steps, span):
        t, h, f2 = scan[:, : 1 + min(span, n_steps - start)]
        t[1:] = np.arange(start, start + t.size - 1) * spacing + first
        if start + span >= n_steps:
            t[-1] = horizon
        h[1:], f2[1:] = (v.ravel()[: t.size - 1] for v in terms(t[1::block]))
        up = h > 0.0
        falls = np.flatnonzero(up[:-1] & ~up[1:])
        a, b = t[falls], t[falls + 1]
        reach = _peak_ceilings(lam, coeff, a, b, f2[falls], f2[falls + 1]) >= threshold**2
        scan[:, 0] = scan[:, t.size - 1]
        if reach.any():
            t_peak, f_peak = _refine_peaks(lam, coeff, a[reach], b[reach])
            hits = np.flatnonzero(f_peak >= threshold)
            if hits.size:
                return float(t_peak[hits[0]])
    if h[-1] > 0.0 and f2[-1] >= threshold**2:
        return horizon
    return None
