"""Exception types shared across the package."""


class PstLabError(Exception):
    """Base class for all pstlab errors."""


class EigensolveError(PstLabError):
    """Eigendecomposition failed to converge or violated a solver guarantee."""


class ParityViolation(PstLabError):
    """An eigenvector is not a mirror eigenvector within tolerance, or the
    alternating sign pattern is broken."""


class MultiplierOverflow(PstLabError):
    """Some odd m <= cap makes every gap an odd multiple of g_min / m, but a
    multiplier exceeds the cap.  Gaps that no odd m <= cap fits read
    "no-common-odd-unit" instead, even where a larger cap would fit them."""


class NumericalBreakdown(PstLabError):
    """Double precision cannot hold the result: a Lanczos off-diagonal
    underflows (the target spectrum is too close to degenerate), or a
    synthesized field or a certified transfer time overflows."""


class NotAdmissible(PstLabError):
    """The operation requires a chain that certifies as PST-admissible."""
