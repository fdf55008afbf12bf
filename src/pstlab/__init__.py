"""pstlab: certify, synthesize, simulate, and speed-audit perfect-state-transfer
chains.

A chain is a real symmetric tridiagonal Hamiltonian (fields B, couplings
J > 0).  The package decides whether a chain performs perfect state transfer,
reconstructs the unique mirror-symmetric chain for an admissible spectrum,
evolves transfer fidelity, and audits the speed bounds
J_max * t0 >= pi N / 4 (even N) and pi sqrt(N^2 - 1) / 4 (odd N) step by
step, including a randomized falsification search.
"""
from . import bounds, chain, eigensolve, errors, pst, synthesis
from .bounds import *
from .chain import *
from .eigensolve import *
from .errors import *
from .pst import *
from .synthesis import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted(
    name
    for module in (bounds, chain, eigensolve, errors, pst, synthesis)
    for name in module.__all__
)
