"""Exception types shared across the package."""

__all__ = [
    "PstLabError",
    "EigensolveError",
    "ParityViolation",
    "NumericalBreakdown",
    "NotAdmissible",
]


class PstLabError(Exception):
    """Base class for all pstlab errors."""


class EigensolveError(PstLabError):
    """Eigendecomposition failed to converge or violated a solver guarantee."""


class ParityViolation(PstLabError):
    """An eigenvector is not a mirror eigenvector within tolerance, or the
    alternating sign pattern is broken."""


class NumericalBreakdown(PstLabError):
    """Double precision cannot hold the result: an end weight or a Lanczos
    off-diagonal underflows (the target spectrum is too close to degenerate),
    or a synthesized field or a certified transfer time overflows."""


class NotAdmissible(PstLabError):
    """The operation requires a chain that certifies as PST-admissible."""
