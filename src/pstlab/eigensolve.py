"""Eigendecomposition of chains, descending order, mirror parity.

Decompositions stay in the tridiagonal representation
(`scipy.linalg.eigh_tridiagonal`); eigenvalues alone are solved for stacked
chains, by LAPACK's dsterf row by row or on dense stacks for small N.  A
positive off-diagonal guarantees simple eigenvalues, so spectra are reported
strictly descending and the solver output is guarded rather than silently
reordered.  Eigenvector signs are fixed so the first nonzero component is
positive, which for a Jacobi matrix makes all first components strictly
positive and pins the mirror parity pattern sigma_n = (-1)^{n+1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .chain import ChainSpec, _alternating_signs, is_mirror_symmetric
from .errors import EigensolveError, ParityViolation

__all__ = [
    "SpectralData",
    "decompose",
    "eigenvalues_only",
    "classify_parity",
]

RESIDUAL_TOL = 1e-10     # ||h v - lambda v|| per column, relative to ||h||
PARITY_TOL = 1e-8        # ||S v - sigma v|| acceptance for either sign
DENSE_MAX_SITES = 12     # eigenvalues_only solves dense stacks up to this N


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
        if not np.all(np.diff(lam) < 0):
            raise EigensolveError("eigenvalues are not strictly descending")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the first nonzero component of each is positive."""
    nonzero = np.abs(vectors) > 0.0
    first = np.argmax(nonzero, axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0.0, -1.0, 1.0)


def _tridiagonal_matvec(chain: ChainSpec, v: np.ndarray) -> np.ndarray:
    b, j = chain.diagonal, chain.couplings
    out = b[:, None] * v
    out[:-1] += j[:, None] * v[1:]
    out[1:] += j[:, None] * v[:-1]
    return out


def decompose(chain: ChainSpec) -> SpectralData:
    """Full eigendecomposition of the chain, strictly descending, sign-fixed.

    Raises EigensolveError if the solver hits its iteration cap or the output
    violates the ordering/residual guarantees.
    """
    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(chain.diagonal, chain.couplings)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolveError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    lam = lam[::-1].copy()
    vec = np.ascontiguousarray(vec[:, ::-1])
    if not np.all(np.diff(lam) < 0):
        raise EigensolveError(
            "degenerate or unordered eigenvalues from the solver; "
            "a Jacobi matrix must have simple spectrum"
        )
    vec = _fix_signs(vec)
    scale = max(abs(lam[0]), abs(lam[-1]), np.finfo(float).tiny)
    resid = np.linalg.norm(_tridiagonal_matvec(chain, vec) - vec * lam, axis=0)
    if resid.max() > RESIDUAL_TOL * scale:
        raise EigensolveError(
            f"eigenpair residual {resid.max():.3e} exceeds "
            f"{RESIDUAL_TOL:.1e} * ||h||"
        )
    return SpectralData(eigenvalues=lam, eigenvectors=vec)


def _eigvalsh_rows(diagonal: np.ndarray, couplings: np.ndarray, errors: list) -> np.ndarray:
    """Ascending eigenvalues of stacked chains; a row whose solve does not
    converge is NaN and gets its EigensolveError in `errors`.

    Rows go to LAPACK's dsterf, the routine under scipy's eigvalsh_tridiagonal
    (bit-identical; 4 against 24 us for one chain at N = 9, 2-core x86).  One
    dense call on a stack of many small chains is cheaper still (50 chains at
    N = 4: 64 against 96 us); the two meet near N = DENSE_MAX_SITES.
    """
    s, n = diagonal.shape
    if n <= DENSE_MAX_SITES:
        h = np.zeros((s, n, n))
        sites = np.arange(n)
        h[:, sites, sites] = diagonal
        h[:, sites[1:], sites[:-1]] = couplings    # eigvalsh reads the lower triangle
        try:
            return np.linalg.eigvalsh(h)
        except np.linalg.LinAlgError:
            pass    # some row did not converge; the row-by-row solve finds it
    lam = np.empty((s, n))
    for row in range(s):
        lam[row], info = scipy.linalg.lapack.dsterf(diagonal[row], couplings[row])
        if info:
            lam[row] = np.nan
            errors[row] = EigensolveError(f"eigensolver did not converge: dsterf info={info}")
    return lam


def _eigenvalues_rows(diagonal: np.ndarray, couplings: np.ndarray):
    """eigenvalues_only for stacked fields (S, N) and (S, N-1): descending
    eigenvalues (S, N) and per-row errors (an EigensolveError, or None)."""
    errors = [None] * diagonal.shape[0]
    lam = _eigvalsh_rows(diagonal, couplings, errors)[:, ::-1].copy()
    ordered = (np.diff(lam, axis=1) < 0).all(axis=1)
    for row in np.flatnonzero(~ordered):
        if errors[row] is None:
            errors[row] = EigensolveError(
                "degenerate or unordered eigenvalues from the solver; "
                "a Jacobi matrix must have simple spectrum"
            )
    return lam, errors


def eigenvalues_only(chain: ChainSpec) -> np.ndarray:
    """Descending eigenvalues without vectors (the fast certification path)."""
    lam, errors = _eigenvalues_rows(chain.diagonal[None], chain.couplings[None])
    if errors[0] is not None:
        raise errors[0]
    return lam[0]


def classify_parity(
    spectral: SpectralData, chain: ChainSpec, tol: float = PARITY_TOL
) -> SpectralData:
    """Attach mirror parity signs: sigma_n with S v_n = sigma_n v_n.

    Each eigenvector of a mirror-symmetric chain is even or odd under S with
    the alternating pattern sigma_n = (-1)^{n+1} once signs are fixed.  The
    solver mixes the two parities of a near-degenerate pair at roughly
    (machine eps) / (relative gap), so each vector is projected onto its
    dominant parity component and the purified basis is re-validated
    (orthonormality and eigenpair residual at `tol`); for clean vectors the
    projection is the identity.  Raises ParityViolation for vectors with no
    dominant parity, for purified bases that fail re-validation (asymmetric
    input, or a solver failure), and for breaks in the alternating pattern.

    Transfer fidelity takes its coefficients from the spectrum (pstlab.pst)
    and comes here only for mirror-symmetric spectra too near degenerate.
    """
    vec = _fix_signs(spectral.eigenvectors)
    mirrored = vec[::-1, :]
    d_even = np.linalg.norm(mirrored - vec, axis=0)
    d_odd = np.linalg.norm(mirrored + vec, axis=0)
    if np.minimum(d_even, d_odd).max() > tol and not is_mirror_symmetric(chain):
        i = int(np.argmax(np.minimum(d_even, d_odd)))
        raise ParityViolation(
            f"eigenvector {i} fails ||S v - sigma v|| <= {tol:.1e} for both "
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
    lam = spectral.eigenvalues
    scale = max(abs(lam[0]), abs(lam[-1]), np.finfo(float).tiny)
    resid = np.linalg.norm(_tridiagonal_matvec(chain, pure) - pure * lam, axis=0)
    if gram_err > tol or resid.max() > tol * scale:
        raise ParityViolation(
            f"parity-purified basis fails re-validation (orthonormality "
            f"{gram_err:.3e}, eigenpair residual {resid.max() / scale:.3e} "
            f"at tol {tol:.1e})"
        )
    expected = _alternating_signs(signs.size)
    if np.any(signs != expected):
        i = int(np.argmax(signs != expected))
        raise ParityViolation(
            f"parity sign pattern (-1)^(n+1) broken first at index {i}: "
            f"got {signs[i]:+d}"
        )
    return replace(spectral, eigenvectors=pure, parity_signs=signs)
