"""pstlab: certify, synthesize, simulate, and speed-audit perfect-state-transfer
chains.

A chain is a real symmetric tridiagonal Hamiltonian (fields B, couplings
J > 0).  The package decides whether a chain performs perfect state transfer,
reconstructs the unique mirror-symmetric chain for an admissible spectrum,
evolves transfer fidelity, and audits the speed bounds
J_max * t0 >= pi N / 4 (even N) and pi sqrt(N^2 - 1) / 4 (odd N) step by
step, including a randomized falsification search.
"""
from .bounds import (
    BoundReport,
    ProofAudit,
    ScanResult,
    SearchReport,
    audit_chain,
    bound_value,
    falsify_search,
    saturation_scan,
)
from .chain import (
    ChainSpec,
    TraceReport,
    eigen_side_traces,
    is_mirror_symmetric,
    trace_report,
)
from .eigensolve import (
    SpectralData,
    classify_parity,
    decompose,
    eigenvalues_only,
)
from .errors import (
    EigensolveError,
    NotAdmissible,
    NumericalBreakdown,
    ParityViolation,
    PstLabError,
)
from .pst import (
    FidelityTrace,
    PstCertificate,
    certify,
    evolve_fidelity,
    first_perfect_time,
)
from .synthesis import (
    SpectrumSpec,
    canonical_chain,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ChainSpec",
    "EigensolveError",
    "FidelityTrace",
    "NotAdmissible",
    "NumericalBreakdown",
    "ParityViolation",
    "ProofAudit",
    "PstCertificate",
    "PstLabError",
    "ScanResult",
    "SearchReport",
    "SpectralData",
    "SpectrumSpec",
    "TraceReport",
    "audit_chain",
    "bound_value",
    "canonical_chain",
    "certify",
    "classify_parity",
    "decompose",
    "eigen_side_traces",
    "eigenvalues_only",
    "evolve_fidelity",
    "falsify_search",
    "first_perfect_time",
    "is_mirror_symmetric",
    "saturation_scan",
    "synthesize",
    "trace_report",
]
