"""Eigendecomposition of chains, descending order, mirror parity.

Decompositions stay in the tridiagonal representation
(`scipy.linalg.eigh_tridiagonal`); eigenvalues alone are solved by LAPACK's
dsterf, one chain per call.  A positive off-diagonal guarantees simple
eigenvalues, so spectra are reported strictly descending and the solver
output is guarded rather than silently reordered.  Eigenvector signs are
fixed so the first nonzero component is positive, which for a Jacobi matrix
makes all first components strictly positive and pins the mirror parity
pattern sigma_n = (-1)^{n+1}.

With the parity signs attached, the alternating sums sum_n sigma_n lambda_n
and sum_n sigma_n lambda_n^2 (`eigen_side_traces`) are the eigen side of the
mirror traces Tr(S h) and Tr(S h^2) of a mirror-symmetric chain, whose matrix
side :mod:`pstlab.chain` reads off the central entries.

Where the spectrum is known in advance, as for the falsification search's
drawn lattices, Sturm counts (the negative pivots of h - sigma = L D L^T)
check it instead of solving it: the number of eigenvalues below each of
many shifts, for stacked chains at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainSpec, _alternating_signs, is_mirror_symmetric
from .errors import EigensolveError, ParityViolation

__all__ = [
    "SpectralData",
    "decompose",
    "eigenvalues_only",
    "classify_parity",
    "eigen_side_traces",
]

RESIDUAL_TOL = 1e-10     # ||h v - lambda v|| per column, relative to ||h||
PARITY_TOL = 1e-8        # ||S v - sigma v|| acceptance for either sign


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (strictly descending), orthonormal eigenvectors (columns,
    sign-fixed), and, once classified, the mirror parity signs sigma_n."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parity_signs: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        if lam.ndim != 1 or vec.shape != (lam.size, lam.size):
            raise ValueError("eigenvalues/eigenvectors shapes are inconsistent")
        if not (lam[1:] < lam[:-1]).all():  # _descending's rule
            raise EigensolveError("eigenvalues are not strictly descending")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)


def eigen_side_traces(spectral: SpectralData) -> tuple[float, float]:
    """(sum_n sigma_n lambda_n, sum_n sigma_n lambda_n^2) from classified
    spectral data.

    For mirror-symmetric chains these equal Tr(S h) and Tr(S h^2): expanding
    the traces in the eigenbasis, S|lambda_n> = sigma_n |lambda_n> leaves the
    alternating sums.
    """
    if spectral.parity_signs is None:
        raise ValueError(
            "spectral data carries no parity signs; run classify_parity first"
        )
    lam, signs = spectral.eigenvalues, spectral.parity_signs
    return float((signs * lam).sum()), float((signs * lam * lam).sum())


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the first nonzero component of each is positive."""
    nonzero = np.abs(vectors) > 0.0
    first = np.argmax(nonzero, axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0.0, -1.0, 1.0)


def _descending(ascending: np.ndarray) -> np.ndarray:
    """A solver's ascending eigenvalues reversed, guarded: a Jacobi matrix
    has a simple spectrum, so equal neighbours, an ascending pair or a NaN
    raise EigensolveError.  SpectralData and synthesis.SpectrumSpec apply
    the same rule, each entry below the one before it."""
    lam = ascending[::-1].copy()
    if not (lam[1:] < lam[:-1]).all():
        raise EigensolveError(
            "degenerate or unordered eigenvalues from the solver; "
            "a Jacobi matrix must have simple spectrum"
        )
    return lam


def _residual(chain: ChainSpec, lam: np.ndarray, vec: np.ndarray) -> float:
    """The largest eigenpair residual ||h v_n - lambda_n v_n|| over the
    columns v_n of `vec`, relative to ||h|| = max(|lambda_1|, |lambda_N|)
    (at least the smallest normal float)."""
    b, j = chain.diagonal, chain.couplings
    hv = b[:, None] * vec
    hv[:-1] += j[:, None] * vec[1:]
    hv[1:] += j[:, None] * vec[:-1]
    scale = max(abs(lam[0]), abs(lam[-1]), np.finfo(float).tiny)
    return float(np.linalg.norm(hv - vec * lam, axis=0).max() / scale)


def decompose(chain: ChainSpec) -> SpectralData:
    """Full eigendecomposition of the chain, strictly descending, sign-fixed.

    Raises EigensolveError if the solver hits its iteration cap or the output
    violates the ordering/residual guarantees.
    """
    import scipy.linalg  # here, so that importing pstlab does not load scipy

    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(chain.diagonal, chain.couplings)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolveError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    lam = _descending(lam)
    vec = _fix_signs(np.ascontiguousarray(vec[:, ::-1]))
    resid = _residual(chain, lam, vec)
    if resid > RESIDUAL_TOL:
        raise EigensolveError(
            f"eigenpair residual {resid:.3e} relative to ||h|| exceeds {RESIDUAL_TOL:.1e}"
        )
    return SpectralData(eigenvalues=lam, eigenvectors=vec)


def _sturm_counts_rows(diagonal: np.ndarray, couplings: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The number of eigenvalues below each shift (S, M), per row of stacked
    fields (S, N) and (S, N-1), as int64 (S, M).

    By Sylvester's law of inertia this is the number of negative pivots of
    h - sigma = L D L^T, d_1 = B_1 - sigma and
    d_k = (B_k - sigma) - J_{k-1}^2 / d_{k-1} (Kahan 1966; Barth, Martin &
    Wilkinson 1967), run for every row and shift at once in N steps on one
    (S, M) array of pivots; each step's signs go into one (N, S, M) bool
    stack, counted once at the end.  The pivot d_k is decreasing
    in sigma, so a pivot of exactly +0 is the limit from below: the next
    pivot is -inf, the one after it (B - sigma) - (-0), which IEEE arithmetic
    gives untrapped (Demmel, Dhillon & Ren 1995), and the count is still
    that of the eigenvalues strictly below sigma.  Adding +0.0 to B makes
    every zero pivot +0.  In floating point the count is the exact count of
    a chain whose couplings are perturbed; bounds._enclosed_rows bounds it.
    """
    fields = diagonal + 0.0
    squares = couplings * couplings
    pivots = fields[:, :1] - shifts
    signs = np.empty((fields.shape[1],) + pivots.shape, bool)
    np.signbit(pivots, out=signs[0])
    quotient = np.empty_like(pivots)
    with np.errstate(divide="ignore"):
        for k in range(1, fields.shape[1]):
            np.divide(squares[:, k - 1, None], pivots, out=quotient)
            np.subtract(fields[:, k, None], shifts, out=pivots)
            pivots -= quotient
            np.signbit(pivots, out=signs[k])
    return signs.sum(axis=0, dtype=np.int64)


def eigenvalues_only(chain: ChainSpec) -> np.ndarray:
    """Descending eigenvalues without vectors, the ones certification uses.

    One call to LAPACK's dsterf, the routine under scipy's
    eigvalsh_tridiagonal (bit-identical, without the wrapper's cost).
    Raises EigensolveError if it does not converge or its output is not
    strictly descending.
    """
    import scipy.linalg

    lam, info = scipy.linalg.lapack.dsterf(chain.diagonal, chain.couplings)
    if info:
        raise EigensolveError(f"eigensolver did not converge: dsterf info={info}")
    return _descending(lam)


def classify_parity(spectral: SpectralData, chain: ChainSpec) -> SpectralData:
    """Attach mirror parity signs: sigma_n with S v_n = sigma_n v_n.

    Each eigenvector of a mirror-symmetric chain is even or odd under S with
    the alternating pattern sigma_n = (-1)^{n+1} once signs are fixed.  The
    solver mixes the two parities of a near-degenerate pair at roughly
    (machine eps) / (relative gap), so each vector is projected onto its
    dominant parity component and the purified basis is re-validated
    (orthonormality and eigenpair residual at PARITY_TOL = 1e-8, a module
    constant); for clean vectors the projection is the identity.  Raises
    ParityViolation for vectors with no dominant parity, for purified bases
    that fail re-validation (asymmetric input, or a solver failure), and for
    breaks in the alternating pattern.

    Transfer fidelity takes its coefficients from the spectrum (pstlab.pst)
    and comes here only for mirror-symmetric spectra too near degenerate.
    """
    vec = _fix_signs(spectral.eigenvectors)
    mirrored = vec[::-1, :]
    d_even = np.linalg.norm(mirrored - vec, axis=0)
    d_odd = np.linalg.norm(mirrored + vec, axis=0)
    if np.minimum(d_even, d_odd).max() > PARITY_TOL and not is_mirror_symmetric(chain):
        i = int(np.argmax(np.minimum(d_even, d_odd)))
        raise ParityViolation(
            f"eigenvector {i} fails ||S v - sigma v|| <= {PARITY_TOL:.1e} for both "
            f"signs (best {min(d_even[i], d_odd[i]):.3e}); chain is not "
            "mirror-symmetric"
        )
    signs = np.where(d_even <= d_odd, 1, -1)
    pure = 0.5 * (vec + signs * mirrored)
    norms = np.linalg.norm(pure, axis=0)
    # a norm at or below 1/sqrt(2) means the other parity dominates
    if norms.min() <= math.sqrt(0.5):
        i = int(np.argmin(norms))
        raise ParityViolation(
            f"eigenvector {i} has no dominant parity component "
            f"(projection norm {norms[i]:.3f})"
        )
    pure = _fix_signs(pure / norms)
    gram_err = np.abs(pure.T @ pure - np.eye(pure.shape[1])).max()
    resid = _residual(chain, spectral.eigenvalues, pure)
    if gram_err > PARITY_TOL or resid > PARITY_TOL:
        raise ParityViolation(
            f"parity-purified basis fails re-validation (orthonormality "
            f"{gram_err:.3e}, eigenpair residual {resid:.3e} at tol {PARITY_TOL:.1e})"
        )
    expected = _alternating_signs(signs.size)
    if np.any(signs != expected):
        i = int(np.argmax(signs != expected))
        raise ParityViolation(
            f"parity sign pattern (-1)^(n+1) broken first at index {i}: "
            f"got {signs[i]:+d}"
        )
    return replace(spectral, eigenvectors=pure, parity_signs=signs)

