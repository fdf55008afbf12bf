"""Inverse eigenvalue problem: build the unique mirror-symmetric chain with a
prescribed simple spectrum.

The end amplitudes of the target chain are fixed by the spectrum alone:
a_n^2 proportional to 1 / prod_{m != n} |lambda_n - lambda_m|, normalized to
sum 1 (for a persymmetric Jacobi matrix the end-vector weights are the
reciprocals of the characteristic-polynomial derivative magnitudes).  Running
Lanczos on diag(lambda) with start vector (a_1, ..., a_N) then produces the
chain's B as the alpha coefficients and J as the beta coefficients, run only
to the chain's centre: the second half is the first reversed, exactly.
Products of gaps overflow fast, so the weights are accumulated in log space
with a shared shift before exponentiation.  The work runs on stacked spectra,
one row per chain; `synthesize` is the batch of one.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _readonly_float_array
from .errors import NumericalBreakdown

__all__ = [
    "SpectrumSpec",
    "synthesize",
    "canonical_chain",
]

BREAKDOWN_TOL = 1e-13    # Lanczos beta underflow, relative to spectral width
SAFE_SIZE = 64           # round trips hold to ~1e-14 of the spectral width up to here
MULTIPLIER_SUM_LIMIT = 2**53  # multiplier sums stay below it: float64 holds every integer below it


@dataclass(frozen=True)
class SpectrumSpec:
    """A target spectrum, either raw (strictly descending eigenvalues) or
    structured as a gap unit u > 0 plus odd gap multipliers m_n, expanding to
    the traceless spectrum with lambda_n - lambda_{n+1} = m_n * u."""

    eigenvalues: np.ndarray | None = None
    unit: float | None = None
    multipliers: np.ndarray | None = None

    def __post_init__(self):
        raw = self.eigenvalues is not None
        structured = self.unit is not None or self.multipliers is not None
        if raw == structured:
            raise ValueError(
                "give either field 'lambda' or fields 'unit'+'multipliers'"
            )
        if raw:
            lam = _readonly_float_array(self.eigenvalues, "lambda")
            if lam.size < 2:
                raise ValueError("field 'lambda' must have length >= 2")
            if not (lam[1:] < lam[:-1]).all():  # eigensolve._descending's rule
                raise ValueError("field 'lambda' must be strictly descending")
            object.__setattr__(self, "eigenvalues", lam)
        else:
            if self.unit is None or self.multipliers is None:
                raise ValueError("fields 'unit' and 'multipliers' go together")
            u = float(self.unit)
            if not (np.isfinite(u) and u > 0):
                raise ValueError("field 'unit' must be finite and > 0")
            m = np.array(self.multipliers, dtype=object)
            if m.ndim != 1 or m.size < 1:
                raise ValueError("field 'multipliers' must be a 1-d array, length >= 1")
            if not all(map(_is_int64, m)):
                raise ValueError("field 'multipliers' must be integers")
            m = np.array([int(v) for v in m], dtype=np.int64)
            if np.any(m < 1) or np.any(m % 2 == 0):
                raise ValueError("field 'multipliers' must be odd and >= 1")
            # the expansion takes their tail sums to float64, exact only below 2^53
            if sum(int(v) for v in m) >= MULTIPLIER_SUM_LIMIT:
                raise ValueError("field 'multipliers' must sum to less than 2^53")
            m.setflags(write=False)
            object.__setattr__(self, "unit", u)
            object.__setattr__(self, "multipliers", m)

    @property
    def n_sites(self) -> int:
        if self.eigenvalues is not None:
            return self.eigenvalues.size
        return self.multipliers.size + 1

    def expand(self) -> np.ndarray:
        """The concrete descending spectrum (traceless for the structured
        form: cumulative gap sums, shifted to zero mean)."""
        if self.eigenvalues is not None:
            return self.eigenvalues.copy()
        return _expand_rows(self.unit, self.multipliers[None])[0]

    @classmethod
    def from_dict(cls, data: dict) -> "SpectrumSpec":
        """JSON schema: {"lambda": [...]} or
        {"unit": u, "multipliers": [...]}."""
        if not isinstance(data, dict):
            raise ValueError("spectrum JSON must be an object")
        if "lambda" in data:
            return cls(eigenvalues=data["lambda"])
        if "unit" in data or "multipliers" in data:
            return cls(unit=data.get("unit"), multipliers=data.get("multipliers"))
        raise ValueError(
            "spectrum JSON needs field 'lambda' or fields 'unit'+'multipliers'"
        )


def _is_int64(value) -> bool:
    """True for a whole number in int64's range; a bool is not one."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return False
    whole = isinstance(value, numbers.Integral) or float(value).is_integer()
    return whole and -(2**63) <= int(value) < 2**63


def _expand_rows(unit: float, multipliers: np.ndarray) -> np.ndarray:
    """SpectrumSpec.expand for stacked multiplier rows (S, N-1): the
    traceless spectra (S, N) with consecutive gaps multipliers * unit, the
    integer tail sums written into one float array and shifted in place."""
    s, m = multipliers.shape
    lam = np.zeros((s, m + 1))
    np.cumsum(multipliers[:, ::-1], axis=1, out=lam[:, m - 1::-1])  # exact below 2^53
    lam *= unit
    lam -= np.add.reduce(lam, 1, keepdims=True) / (m + 1)
    return lam


def _lattice_rows(unit: float, multipliers: np.ndarray):
    """The known lattices of stacked multiplier rows (S, N-1) at `unit`: the
    traceless spectra (S, N) and their transfer times
    t0 = pi / (unit * gcd(multipliers)) (S,)."""
    t0 = math.pi / (unit * np.gcd.reduce(multipliers, axis=1))
    return _expand_rows(unit, multipliers), t0


def _end_weights(lam: np.ndarray) -> np.ndarray:
    """End weights a_n^2 per row of descending spectra (S, N), from one
    (S, N, N) difference array whose absolute values and logarithms are
    taken in place (its diagonal set to 1 through a strided view)."""
    s, n = lam.shape
    diff = lam[:, :, None] - lam[:, None, :]
    diff.reshape(s, n * n)[:, :: n + 1] = 1.0
    logw = -np.log(np.abs(diff, out=diff), out=diff).sum(axis=2)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw, out=logw)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _synthesize_rows(lam: np.ndarray):
    """synthesize for stacked descending spectra (S, N).

    Returns (diagonal (S, N), couplings (S, N-1), errors): errors maps each
    broken row to its NumericalBreakdown, a non-finite field, an end weight
    that underflows to 0 or a Lanczos breakdown; the fields of a broken row
    are meaningless.  Lanczos takes ceil(N/2) steps on a step-major
    (N//2 + 1, S, N) basis, so each step's vector is a contiguous (S, N)
    slice, and the rest of B and J is mirrored, so a zero weight, which full
    Lanczos would meet as a late breakdown, is refused up front.  Every row
    runs the same arithmetic as a batch of one, so a row's chain does not
    depend on the other rows of its batch; `lam` is not written.
    """
    s, n = lam.shape
    half = n // 2
    floor = BREAKDOWN_TOL * (lam[:, 0] - lam[:, -1])

    # Lanczos on diag(lambda) to the centre, full reorthogonalization (two passes) per step.
    weights = _end_weights(lam)
    basis = np.zeros((half + 1, s, n))
    basis[0] = np.sqrt(weights)
    alpha = np.zeros((s, n))
    beta = np.zeros((s, n - 1))
    for k in range(n - half):
        q = basis[k]
        r = lam * q
        alpha[:, k] = (q * r).sum(axis=1)
        if k == half:
            break  # odd N: the central field needs no further vector
        r -= alpha[:, k, None] * q
        if k:
            r -= beta[:, k - 1, None] * basis[k - 1]
        done = basis[: k + 1].transpose(1, 0, 2)
        row = r[:, None, :]
        for _ in range(2):
            row -= (row @ done.transpose(0, 2, 1)) @ done
        beta[:, k] = np.sqrt((r * r).sum(axis=1))
        # a broken row divides by the floor instead; its fields are dropped
        np.divide(r, np.maximum(beta[:, k], floor)[:, None], out=basis[k + 1])
    alpha[:, n - half:] = alpha[:, :half][:, ::-1]
    beta[:, half:] = beta[:, : (n - 1) // 2][:, ::-1]

    errors = {}
    finite = np.isfinite(alpha).all(axis=1) & np.isfinite(beta).all(axis=1)
    underflow = finite & (weights == 0.0).any(axis=1)
    broken = beta <= floor[:, None]
    lanczos = finite & ~underflow & broken.any(axis=1)
    for row in (~finite).nonzero()[0].tolist():
        errors[row] = NumericalBreakdown("synthesized fields overflow double precision")
    for row in underflow.nonzero()[0].tolist():
        errors[row] = NumericalBreakdown(
            "an end weight underflows double precision; spectrum too close to degenerate")
    for row in lanczos.nonzero()[0].tolist():
        k = int(broken[row].argmax())
        errors[row] = NumericalBreakdown(
            f"Lanczos off-diagonal {beta[row, k]:.3e} at step {k + 1} "
            f"underflowed {BREAKDOWN_TOL:.1e} * width; spectrum too "
            "close to degenerate"
        )
    return alpha, beta, errors


def synthesize(spectrum: SpectrumSpec | np.ndarray) -> ChainSpec:
    """The mirror-symmetric chain whose spectrum is `spectrum`.

    Accepts a SpectrumSpec or a raw strictly-descending array.  The result
    round-trips through :func:`pstlab.eigensolve.decompose` to ~1e-14 of the
    spectral width for well-separated spectra at N <= 64; a warning is issued
    above that size.  Raises NumericalBreakdown when an end weight or a
    Lanczos off-diagonal underflows (spectrum numerically degenerate) or a
    field overflows.
    """
    if not isinstance(spectrum, SpectrumSpec):
        spectrum = SpectrumSpec(eigenvalues=spectrum)
    if spectrum.n_sites > SAFE_SIZE:
        warnings.warn(f"synthesis at N={spectrum.n_sites} > {SAFE_SIZE} may lose accuracy "
                      "in double precision", stacklevel=2)
    # an overflowing spectrum or field comes back as a NumericalBreakdown
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diagonal, couplings, errors = _synthesize_rows(spectrum.expand()[None])
    if errors:
        raise errors[0]
    return ChainSpec(diagonal=diagonal[0], couplings=couplings[0])


def canonical_chain(n_sites: int) -> ChainSpec:
    """The B = 0, J_n = sqrt(n (N-n)) chain: spectrum equally spaced with gap
    2 (so t0 = pi/2), and the speed bounds hold with equality.  The
    saturation scan audits it on that lattice (_lattice_rows at unit 2, all
    multipliers 1), enclosed a priori instead of solved."""
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    k = np.arange(1, n_sites, dtype=float)
    return ChainSpec(
        diagonal=np.zeros(n_sites),
        couplings=np.sqrt(k * (n_sites - k)),
    )


def draw_multipliers(
    rng: np.random.Generator, n_sites: int, max_multiplier: int, count: int
) -> np.ndarray:
    """`count` rows of n_sites - 1 odd multipliers, uniform on
    {1, 3, ..., max_multiplier} for an odd cap (see pst._check_cap)."""
    return rng.integers(0, (max_multiplier + 1) // 2, size=(count, n_sites - 1)) * 2 + 1

