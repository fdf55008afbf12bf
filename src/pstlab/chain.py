"""Chain Hamiltonians, mirror symmetry, and mirror traces.

A chain of N sites is the real symmetric tridiagonal operator h with on-site
fields B_1..B_N on the diagonal and strictly positive couplings J_1..J_{N-1}
on the off-diagonals.  The mirror operator S is the antidiagonal permutation
(site n <-> site N+1-n); a chain is mirror-symmetric when S h S = h, i.e.
B_n = B_{N+1-n} and J_n = J_{N-n}.  Its eigenvectors then alternate in
parity under S, sigma_n = (-1)^{n+1} in descending order.

Tr(S M) is the sum of M's antidiagonal, called the mirror trace here.  For a
tridiagonal h the antidiagonal meets the band only at the center, so Tr(S h)
and Tr(S h^2) collapse to a handful of central entries, the matrix side of
the speed audits in :mod:`pstlab.bounds`.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ChainSpec",
    "TraceReport",
    "is_mirror_symmetric",
    "trace_report",
]

SYMMETRY_TOL = 1e-10  # mirror deviation, relative to max(|B|_inf, |J|_inf, 1)


def _readonly_float_array(values, name: str) -> np.ndarray:
    """`values` as a read-only copy: a finite one-dimensional float array."""
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"field '{name}' must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"field '{name}' contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _alternating_signs(n: int) -> np.ndarray:
    """The mirror parity pattern (-1)^{n+1}, n = 1..N, as integers."""
    signs = np.ones(n, dtype=np.int64)
    signs[1::2] = -1
    return signs


def _json_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


class _Record:
    """to_dict for the report dataclasses: one key per field, named as the
    field unless `_KEYS` renames it; arrays and tuples become lists."""

    _KEYS = {}

    def to_dict(self) -> dict:
        return {
            self._KEYS.get(f.name, f.name): _json_value(getattr(self, f.name))
            for f in fields(self)
        }


@dataclass(frozen=True)
class ChainSpec:
    """An N-site chain: fields ``diagonal`` (B, length N) and ``couplings``
    (J, length N-1, all > 0)."""

    diagonal: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        b = _readonly_float_array(self.diagonal, "B")
        j = _readonly_float_array(self.couplings, "J")
        if b.size < 2:
            raise ValueError(f"field 'N' must be >= 2 (got {b.size})")
        if j.size != b.size - 1:
            raise ValueError(
                f"field 'J' must have length N-1 (got {j.size}, N={b.size})"
            )
        if not (j > 0).all():
            raise ValueError("field 'J' must be strictly positive")
        object.__setattr__(self, "diagonal", b)
        object.__setattr__(self, "couplings", j)

    @property
    def n_sites(self) -> int:
        return self.diagonal.size

    @property
    def j_max(self) -> float:
        return float(self.couplings.max())

    @classmethod
    def from_dict(cls, data: dict) -> "ChainSpec":
        """Build from the JSON schema {"N": int, "B": [...], "J": [...]};
        "B" is optional and defaults to zeros."""
        if not isinstance(data, dict):
            raise ValueError("chain JSON must be an object")
        n = data.get("N")
        if isinstance(n, float) and n.is_integer():
            n = int(n)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError("field 'N' missing or not an integer")
        if "J" not in data:
            raise ValueError("field 'J' is required")
        # the default B is sized from J, never from N, which may be huge
        j = _readonly_float_array(data["J"], "J")
        chain = cls(diagonal=data.get("B", np.zeros(j.size + 1)), couplings=j)
        if chain.n_sites != n:
            raise ValueError(f"field 'N' ({n}) does not match the chain's {chain.n_sites} sites")
        return chain

    def to_dict(self) -> dict:
        return {
            "N": self.n_sites,
            "B": self.diagonal.tolist(),
            "J": self.couplings.tolist(),
        }


def is_mirror_symmetric(chain: ChainSpec) -> bool:
    """True when B and J are palindromes to SYMMETRY_TOL = 1e-10, relative.

    The deviation is measured against max(|B|_inf, |J|_inf, 1), so exact
    zeros on the diagonal are compared absolutely against SYMMETRY_TOL *
    (scale of J).  certify and the transfer fallback apply this one rule;
    the falsification search needs none, as synthesis mirrors its chains
    exactly.
    """
    b, j = chain.diagonal, chain.couplings
    scale = max(np.abs(b).max(), np.abs(j).max(), 1.0)
    asym = max(np.abs(b - b[::-1]).max(), np.abs(j - j[::-1]).max())
    return bool(asym <= SYMMETRY_TOL * scale)


def _mirror_traces_rows(diagonal: np.ndarray, couplings: np.ndarray):
    """(Tr(S h), Tr(S h^2)), the antidiagonal sums of h and h^2, per row of
    stacked fields (S, N) and (S, N-1).  The antidiagonal (i, N-1-i) meets a
    tridiagonal h only where |2i - (N-1)| <= 1: at B_c for odd N, at both
    J_{N/2} for even N.  In the pentadiagonal h^2 it meets, for odd N,
    (h^2)_{cc} = B_c^2 + J_{c-1}^2 + J_c^2 and twice J_{c-1} J_c, for even N
    twice J_{N/2} (B_{N/2} + B_{N/2+1})."""
    n = diagonal.shape[1]
    if n % 2:
        c = (n - 1) // 2
        b = diagonal[:, c]
        return b, b**2 + (couplings[:, c - 1] + couplings[:, c]) ** 2
    k = n // 2
    j = couplings[:, k - 1]
    return j + j, 2.0 * j * (diagonal[:, k - 1] + diagonal[:, k])


@dataclass(frozen=True)
class TraceReport:
    """Both routes to the mirror traces: the antidiagonal sums of h and h^2
    next to the symmetric closed forms (2 J_{N/2} resp. 4 J_{N/2} B_{N/2} for
    even N; B_c resp. B_c^2 + 4 J_{(N-1)/2}^2 for odd N).  The h pair
    coincides structurally; the h^2 pair agrees exactly iff the center of the
    chain is symmetric (B_{N/2} = B_{N/2+1} resp. J_{c-1} = J_c)."""

    trace_sh: float
    trace_sh2: float
    closed_form_sh: float
    closed_form_sh2: float


def trace_report(chain: ChainSpec) -> TraceReport:
    trace_sh, trace_sh2 = _mirror_traces_rows(chain.diagonal[None], chain.couplings[None])
    n = chain.n_sites
    b, j = chain.diagonal, chain.couplings
    if n % 2:
        c = (n - 1) // 2
        closed_sh2 = float(b[c] ** 2 + 4.0 * j[c - 1] ** 2)
    else:
        k = n // 2
        closed_sh2 = float(4.0 * j[k - 1] * b[k - 1])
    return TraceReport(
        trace_sh=float(trace_sh[0]),
        trace_sh2=float(trace_sh2[0]),
        closed_form_sh=float(trace_sh[0]),  # the h pair coincides structurally
        closed_form_sh2=closed_sh2,
    )
