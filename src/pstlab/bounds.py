"""Speed bounds on perfect state transfer: J_max * t0 >= pi N / 4 for even N
and pi sqrt(N^2 - 1) / 4 for odd N, audited step by step and stress-tested.

Both bounds follow from mirror-trace identities on the traceless chain,
with u = pi/t0 and consecutive gaps g_i, each an odd multiple of u.  Even N:
2 J_{N/2} = Tr(S h) = sum of the N/2 odd-indexed gaps, so 2 J_max >= (N/2) u.
Odd N = 2M + 1, centre c, in this repository's reconstruction, in keeping
with the even case: Tr(S h) = B_c and Tr(S h^2) = B_c^2 + (J_{c-1} + J_c)^2,
so (J_{c-1} + J_c)^2 = Tr(S h^2) - Tr(S h)^2 = 2 sum_{i odd < j even} g_i g_j,
M(M+1)/2 products of at least u^2 each.  Hence
2 J_max >= J_{c-1} + J_c >= sqrt(N^2 - 1) u / 2, the second with equality
only where every reduced multiplier is 1.

The classical odd-N route instead bounds the alternating square sum
sum_n (-1)^{n+1} lambda_n^2 through the tail lambda_N <= -(N-1) u / 2, and
one of its steps -- replacing that sum by lambda_N^2 - u lambda_N via
per-pair substitution -- is NOT valid for every admissible spectrum
(multipliers (1,5,5,1) at N=5 give 22 u^2 against 42 u^2).  The audit
asserts the pair-product step, records that substitution gap signed, and the
falsifier counts its negative occurrences as findings.

Every audit runs on a lattice that the one rule pst._on_lattice accepted:
the one certification proposed (audit_chain, analyze), or a known lattice,
never solved: a falsifier draw's (t0 = pi / gcd of the multipliers), where
Sturm counts at x_k +- r put each eigenvalue within r + beta of x_k, or a
canonical chain's (t0 = pi/2), within eps J_max of each eigenvalue a priori.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .chain import (ChainSpec, _alternating_signs, _alternating_sums, _mirror_symmetric_rows,
                    _mirror_traces_rows, _Record)
from .eigensolve import _sturm_counts_rows
from .errors import NotAdmissible
from .pst import MAX_MULTIPLIER, PHASE_TOL, _certify_chain, _check_cap, _on_lattice
from .synthesis import _lattice_rows, _synthesize_rows, canonical_chain, draw_multipliers

__all__ = [
    "BoundReport",
    "ProofAudit",
    "ScanResult",
    "SearchReport",
    "bound_value",
    "audit_chain",
    "saturation_scan",
    "falsify_search",
]

logger = logging.getLogger(__name__)

RATIO_SLACK = 1e-9       # ratio >= 1 - RATIO_SLACK counts as satisfying the bound
LAMBDA_MIN_SLACK = 1e-9  # slack on lambda_N <= -(N-1)pi/(2 t0), in units of width
SUBSTITUTION_GAP_SLACK = 1e-9  # a gap or pair-product slack < -this * (pi/t0)^2 counts as negative
BLOCK_BYTES = 8 * 2**20  # working-set budget of one block of falsify_search samples

SCAN_CSV_HEADER = "N,parity,J_max,t0,product,bound,ratio,lambda_min_ok,central_field"


def bound_value(n_sites: int) -> float:
    """The parity-appropriate floor on the product J_max * t0: pi N / 4 for
    even N, pi sqrt(N^2 - 1) / 4 for odd N."""
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    if n_sites % 2 == 0:
        return math.pi * n_sites / 4.0
    return math.pi * math.sqrt(n_sites * n_sites - 1.0) / 4.0


@dataclass(frozen=True)
class BoundReport(_Record):
    """How a certified chain sits against its speed bound."""

    _KEYS = {"n_sites": "N", "j_max": "J_max"}

    n_sites: int
    parity: str              # "even" | "odd"
    j_max: float
    t0: float
    product: float           # J_max * t0
    bound: float
    ratio: float             # product / bound; 1 means saturation
    lambda_min_ok: bool      # lambda_N <= -(N-1)pi/(2 t0) + 1e-9 * width
    central_field: float | None   # traceless B_c, odd N only

    def csv_row(self) -> str:
        cf = "" if self.central_field is None else f"{self.central_field:.12g}"
        return (
            f"{self.n_sites},{self.parity},{self.j_max:.12g},{self.t0:.12g},"
            f"{self.product:.12g},{self.bound:.12g},{self.ratio:.12g},"
            f"{int(self.lambda_min_ok)},{cf}"
        )


@dataclass(frozen=True)
class ProofAudit(_Record):
    """Per-step record of the bound derivation on one certified chain, on the
    traceless shift of its fields and of its accepted lattice (pst._on_lattice).

    Asserted steps (slack >= -1e-9 at the natural scale on every admissible
    chain): the trace identity match, the gap floor, the lambda_N tail
    constraint, J_max against the central coupling, the even-N half-chain
    sum, the odd-N pair-product sum, and the final ratio.  `substitution_gap`
    (odd N) is the signed margin of the alternating square sum over
    lambda_N^2 - (pi/t0) lambda_N; it is recorded, not asserted, because
    admissible spectra with large inner multipliers drive it negative while
    the final bound still holds.
    """

    parity: str
    identity_matrix_side: float   # Tr(S h) for even N, Tr(S h^2) for odd N
    identity_eigen_side: float    # matching alternating eigenvalue sum
    identity_abs_err: float
    gap_floor_slack: float        # min gap - pi/t0
    lambda_min_slack: float       # -(N-1)pi/(2 t0) - lambda_N
    center_coupling_slack: float  # J_max - central J
    final_slack: float            # J_max t0 - bound
    ratio: float
    half_sum_slack: float | None = None     # even N: 2 J_{N/2} - (N/2)(pi/t0)
    central_field: float | None = None      # odd N: traceless B_c
    substitution_value: float | None = None  # odd N: lambda_N^2 - (pi/t0) lambda_N
    substitution_gap: float | None = None    # odd N: eigen side - substitution value
    pair_product_slack: float | None = None  # odd N: (J_{c-1} + J_c)^2 - (N^2 - 1) u^2 / 4


def _audit_rows(
    diagonal: np.ndarray, couplings: np.ndarray, lattice: np.ndarray, t0: np.ndarray
) -> dict:
    """The audit of stacked certified chains: fields (S, N) and (S, N-1),
    their accepted descending lattices (S, N) and transfer times (S,).

    Returns one (S,) array per ProofAudit field other than `parity` (None
    where the field does not apply to the parity), plus `j_max`, `t0`,
    `product` and `lambda_min_ok`.  The mirror traces of the traceless shift
    come from its central entries (chain._mirror_traces_rows) and its
    lattice (chain._alternating_sums).
    """
    n = lattice.shape[1]
    lam0 = lattice - lattice.mean(axis=1, keepdims=True)
    b0 = diagonal - diagonal.mean(axis=1, keepdims=True)
    trace_sh, trace_sh2 = _mirror_traces_rows(b0, couplings)
    eigen_sh, eigen_sh2 = _alternating_sums(lam0, _alternating_signs(n))
    u = math.pi / t0
    j_max = couplings.max(axis=1)
    product = j_max * t0
    bound = bound_value(n)
    width = lam0[:, 0] - lam0[:, -1]
    tail = -(n - 1) * u / 2.0
    rows = {
        "j_max": j_max,
        "t0": t0,
        "product": product,
        "ratio": product / bound,
        "final_slack": product - bound,
        "gap_floor_slack": (-np.diff(lam0, axis=1)).min(axis=1) - u,
        "lambda_min_slack": tail - lam0[:, -1],
        "lambda_min_ok": lam0[:, -1] <= tail + LAMBDA_MIN_SLACK * width,
        "half_sum_slack": None,
        "central_field": None,
        "substitution_value": None,
        "substitution_gap": None,
        "pair_product_slack": None,
    }
    center = couplings[:, n // 2 - 1]  # J_{N/2} for even N, J_{c-1} for odd N
    if n % 2 == 0:
        matrix_side, eigen_side = trace_sh, eigen_sh
        rows["half_sum_slack"] = matrix_side - (n / 2.0) * u
    else:
        matrix_side, eigen_side = trace_sh2, eigen_sh2
        substitution_value = lam0[:, -1] ** 2 - u * lam0[:, -1]
        rows["central_field"] = trace_sh
        rows["substitution_value"] = substitution_value
        rows["substitution_gap"] = eigen_side - substitution_value
        pair = couplings[:, n // 2 - 1] + couplings[:, n // 2]
        rows["pair_product_slack"] = pair**2 - (n * n - 1) * u**2 / 4.0
    rows["identity_matrix_side"] = matrix_side
    rows["identity_eigen_side"] = eigen_side
    rows["identity_abs_err"] = np.abs(matrix_side - eigen_side)
    rows["center_coupling_slack"] = j_max - center
    return rows


def audit_chain(
    chain: ChainSpec, *, max_multiplier: int = MAX_MULTIPLIER
) -> tuple[BoundReport, ProofAudit]:
    """Certify with the unit search capped at `max_multiplier` (see
    pst.certify), then measure every step of the parity-appropriate bound
    proof.

    Raises NotAdmissible, naming the verdict, for a chain that does not
    certify; a failed solve raises EigensolveError.  The audit works on the
    traceless shift (the derivations assume sum lambda = 0) and the accepted
    lattice (see ProofAudit); gaps, t0 and J_max are shift-invariant.
    """
    cert, _, lattice = _certify_chain(chain, max_multiplier=max_multiplier)
    if not cert.admissible:
        raise NotAdmissible(f"chain does not certify: {cert.failure}")
    rows = _audit_rows(chain.diagonal[None], chain.couplings[None], lattice[None],
                       np.array([cert.t0]))
    return _reports(rows, 0, chain.n_sites)


def _reports(rows: dict, k: int, n: int) -> tuple[BoundReport, ProofAudit]:
    """Row k of the audit rows (see _audit_rows) of N = n chains, as the
    chain's BoundReport and ProofAudit."""
    row = {key: None if value is None else value[k].item() for key, value in rows.items()}
    parity = "even" if n % 2 == 0 else "odd"
    report = BoundReport(
        n_sites=n,
        parity=parity,
        j_max=row["j_max"],
        t0=row["t0"],
        product=row["product"],
        bound=bound_value(n),
        ratio=row["ratio"],
        lambda_min_ok=row["lambda_min_ok"],
        central_field=row["central_field"],
    )
    audit = ProofAudit(
        parity=parity,
        **{f.name: row[f.name] for f in fields(ProofAudit) if f.name != "parity"},
    )
    return report, audit


@dataclass(frozen=True)
class ScanResult:
    """Saturation-scan table plus per-row failures (N, reason)."""

    reports: tuple[BoundReport, ...]
    failures: tuple[tuple[int, str], ...]

    def to_csv(self) -> str:
        lines = [SCAN_CSV_HEADER]
        lines += [r.csv_row() for r in self.reports]
        return "\n".join(lines) + "\n"


def saturation_scan(n_values) -> ScanResult:
    """Audit the canonical chain of each N in 2..MAX_SCAN_SITES on its
    lattice N-1, N-3, ..., -(N-1) (gaps 2, t0 = pi/2), enclosed a priori, not
    solved or counted; failures are logged per row and collected, never
    aborting the scan.  Time and memory are O(N) a row."""
    reports, failures = [], []
    for n in (int(n) for n in n_values):
        try:
            if n > MAX_SCAN_SITES:
                raise ValueError(f"n_sites must be <= {MAX_SCAN_SITES}")
            chain = canonical_chain(n)
            lattice, t0 = _lattice_rows(2.0, np.ones((1, n - 1), np.int64))
            # J = sqrt(n (N - n)) has exactly this spectrum (Christandl et al.
            # 2004); n (N - n) is exact below 2^53 and sqrt rounds correctly, so
            # each float J is within eps/2 J_max of it, and by Weyl every
            # eigenvalue is within eps J_max of its lattice point
            if not _on_lattice(2.0 * np.finfo(float).eps * chain.j_max, t0[0]):
                raise ValueError("the a priori spread 2 eps J_max exceeds the lattice rule")
        except ValueError as exc:
            logger.warning("scan N=%d failed: %s", n, exc)
            failures.append((n, str(exc)))
        else:
            rows = _audit_rows(chain.diagonal[None], chain.couplings[None], lattice, t0)
            reports.append(_reports(rows, 0, n)[0])
    return ScanResult(reports=tuple(reports), failures=tuple(failures))


@dataclass(frozen=True)
class SearchReport(_Record):
    """Falsification-search outcome over random admissible spectra.

    `min_ratio` is the smallest audited ratio.  The witness and
    `min_ratio_index` name the lowest sample index whose ratio is within
    RATIO_SLACK (1e-9) of `min_ratio`, so samples that tie up to roundoff
    resolve to the same witness on every numpy/BLAS build.  `violations`
    holds full records for every sample with ratio < 1 - RATIO_SLACK
    (expected empty).  `substitution_gap_negatives` counts odd-N samples
    where the recorded (not asserted) substitution step fails, meaning a
    substitution gap below -SUBSTITUTION_GAP_SLACK * u^2 (1e-9 at the natural
    scale u = pi/t0); gaps that are zero up to roundoff are not counted.
    That is a reportable finding about the derivation, not about the bound.
    `pair_product_violations` counts odd-N samples whose pair-product slack
    (ProofAudit) is below the same -SUBSTITUTION_GAP_SLACK * u^2; that step
    is asserted, so the count is expected to be 0.
    When no sample is audited, the three minima are None (JSON null),
    `min_ratio_index` is -1 and the witness is empty.
    """

    _KEYS = {"n_sites": "N"}

    n_sites: int
    samples: int
    max_multiplier: int
    unit: float
    seed: int
    evaluated: int
    min_ratio: float | None
    min_ratio_index: int
    witness: dict
    lambda_min_violations: int
    min_final_slack: float | None
    substitution_gap_negatives: int
    min_substitution_gap: float | None
    violations: tuple[dict, ...]
    failures: tuple[tuple[int, str], ...]
    pair_product_violations: int


def _block_rows(n_sites: int) -> int:
    """Samples per block, so that a block's working set stays under
    BLOCK_BYTES: per sample two (N, N) arrays (the end-weight differences
    and their logarithms) and the (N//2 + 1, N) Lanczos basis, and later the
    Sturm counts' two (S, 2N) arrays, pivots and counts, with the shifts and
    a quotient of the same shape.  The formula counts four (N, N) arrays and
    sixteen rows of N, so the budget holds 1.5 arrays of headroom."""
    n = n_sites
    return BLOCK_BYTES // (8 * (4 * n * n + 16 * n))


# the largest N whose one sample fits a block: (N + 2)^2 <= BLOCK_BYTES / 32 + 4
MAX_SEARCH_SITES = math.isqrt(BLOCK_BYTES // 32 + 4) - 2

# the largest N whose canonical row fits a block.  saturation_scan's working
# set for one row is O(N) float64 words: the fields, the lattice and the
# audit's traceless copies and temporaries, about 8N (tracemalloc).  Counting
# 16N leaves headroom, so 128 N <= BLOCK_BYTES.  Accuracy binds far later:
# n (N - n) < 2^53 up to N ~ 1.9e8, and the spread 2 eps J_max ~ eps N stays
# under PHASE_TOL / t0 up to N ~ 2.8e7.
MAX_SCAN_SITES = BLOCK_BYTES // (8 * 16)


def _enclosed_rows(diagonal, couplings, lattice, radius):
    """Per row of stacked fields (S, N) and (S, N-1), descending lattice
    points x (S, N) and radii r (S,): (one, beta), where `one` says the
    Sturm counts at x_k - r and x_k + r put exactly one eigenvalue in each
    window [x_k - r, x_k + r], and beta is the counts' error bound.  Where
    `one` holds, every eigenvalue lies within r + beta of its lattice point.

    beta: with u = eps / 2 and Higham's gamma_k = k u / (1 - k u), which
    bounds |prod of k factors (1 + delta)^(+-1) - 1| for |delta| <= u, the
    count at a float shift sigma is the exact count of the chain with
    couplings J_k sqrt(1 + theta_k), |theta_k| <= gamma_5 (Kahan 1966).
    A step rounds four times, d_k = [(B_k - sigma)(1 + a_k)
    - J^2 (1 + b_k)(1 + c_k) / d_{k-1}] (1 + e_k); dividing each d_k by its
    positive (1 + a_k)(1 + e_k) keeps its sign and leaves the exact pivots
    of the chain with J_{k-1}^2 times five such factors.  As
    sqrt(1 - gamma_5) >= 1 - gamma_5, J moves by at most
    J gamma_5 / (2 - gamma_5).  That perturbation has at most two entries a
    row, so by Weyl's inequality its eigenvalues are within
    2 J_max gamma_5 / (2 - gamma_5) of the chain's, and a count puts
    eigenvalue k (descending) in [sigma_lo - that, sigma_hi + that].  The
    shifts add their rounding: x_k and then x_k +- r are one rounding each
    from the exact lattice point (up to the lattice's common offset) plus or
    minus r, so within gamma_2 (|x_k| + r) of it.
    """
    n = lattice.shape[1]
    r = radius[:, None]
    counts = _sturm_counts_rows(diagonal, couplings, np.hstack((lattice - r, lattice + r)))
    below = np.arange(n - 1, -1, -1)  # eigenvalues below window k of a descending lattice
    one = (counts == np.concatenate((below, below + 1))).all(axis=1)
    u = np.finfo(float).eps / 2
    gamma5, gamma2 = 5 * u / (1 - 5 * u), 2 * u / (1 - 2 * u)
    beta = (2.0 * gamma5 / (2.0 - gamma5) * couplings.max(axis=1)
            + gamma2 * (np.abs(lattice).max(axis=1) + radius))
    return one, beta


def _audit_block(mults: np.ndarray, start: int):
    """Synthesize one block of multiplier rows (at unit 1) and check and audit
    each chain on the lattice it was drawn from, t0 = pi / gcd(multipliers)
    (_audit_lattice); the synthesis breakdowns join the failures."""
    index = np.arange(start, start + len(mults))
    lattice, t0 = _lattice_rows(1.0, mults)
    diagonal, couplings, errors = _synthesize_rows(lattice)
    failed = [(int(i), str(exc)) for i, exc in zip(index, errors) if exc is not None]
    kept = np.array([exc is None for exc in errors], dtype=bool)
    index, diagonal, couplings = index[kept], diagonal[kept], couplings[kept]
    lattice, t0 = lattice[kept], t0[kept]
    *audited, checked = _audit_lattice(index, diagonal, couplings, lattice, t0)
    return *audited, sorted(failed + checked)


def _audit_lattice(index, diagonal, couplings, lattice, t0):
    """Check stacked chains, fields (S, N) and (S, N-1), against their known
    descending lattices x (S, N) with transfer times t0 (S,), and audit each
    chain that passes on its lattice.  A chain passes if it is mirror-symmetric
    (SYMMETRY_TOL), _on_lattice accepts the spread 2 (r + beta) of windows
    r = PHASE_TOL / (4 t0) (_enclosed_rows), and each window holds one
    eigenvalue.  Returns the passing rows' indices, fields B and J and audit
    rows (see _audit_rows), and (index, message) per failed row, in order.
    """
    radius = PHASE_TOL / (4.0 * t0)
    one, beta = _enclosed_rows(diagonal, couplings, lattice, radius)
    verdict = np.select(
        [~_mirror_symmetric_rows(diagonal, couplings), ~_on_lattice(2.0 * (radius + beta), t0), ~one],
        ["chain does not certify: asymmetry",
         "the Sturm counts' error bound reaches the lattice window",
         "spectrum leaves the windows of its drawn lattice"],
        "",
    )
    ok = verdict == ""
    failed = [(int(i), str(v)) for i, v in zip(index[~ok], verdict[~ok])]
    index, diagonal, couplings = index[ok], diagonal[ok], couplings[ok]
    audit = _audit_rows(diagonal, couplings, lattice[ok], t0[ok])
    return index, diagonal, couplings, audit, failed


def _record(block: tuple, k: int, mults: np.ndarray) -> dict:
    """The full record of audited row k of a block (see _audit_block), whose draw was `mults`."""
    index, diagonal, couplings, audit, _ = block
    return {
        "index": int(index[k]),
        "multipliers": mults.tolist(),
        "unit": 1.0,
        "chain": ChainSpec(diagonal=diagonal[k], couplings=couplings[k]).to_dict(),
        "report": _reports(audit, k, diagonal.shape[1])[0].to_dict(),
    }


def falsify_search(n_sites: int, samples: int, cap: int, seed: int) -> SearchReport:
    """Stress the bound on `samples` random admissible spectra, each with
    gaps its odd multipliers times the unit 1 (the report's `unit`).

    Multipliers are drawn from default_rng(seed) a block at a time, odd and
    up to `cap` (odd and at most MAX_CAP, else ValueError), the same rows as
    one batch drawn at once, so the corpus depends only on the seed; the
    report records the cap as `max_multiplier`.  Each sample's chain is
    checked against the lattice it was drawn from by Sturm counts and the
    lattice rule (see _audit_lattice), never solved, and audited on that
    lattice with t0 = pi / gcd(multipliers).  Samples are synthesized,
    checked and audited in blocks whose working set stays under BLOCK_BYTES
    (so N is at most MAX_SEARCH_SITES); a block holds the Lanczos arrays and
    then two (S, 2N) count arrays, and every sample's numbers are those of a
    batch of one.  A sample that fails is recorded as (index, message) and
    the others go on.  Each block is reduced as it goes, and every record is
    built from its block's rows.
    The witness candidates are the strict prefix minima of the ratio within
    RATIO_SLACK of the running minimum; the first one left is the lowest
    index within RATIO_SLACK of the minimum.  A substitution gap counts as
    negative only below -SUBSTITUTION_GAP_SLACK * (pi/t0)^2, so roundoff
    does not decide the count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 2 <= n_sites <= MAX_SEARCH_SITES:
        raise ValueError(f"n_sites must be in 2..{MAX_SEARCH_SITES}")
    _check_cap(cap)
    rng = np.random.default_rng(seed)
    evaluated = lambda_min_violations = negatives = pair_violations = 0
    min_ratio = min_final_slack = min_gap = math.inf
    near, violations, failures = [], [], []  # near: records of the witness candidates
    size = _block_rows(n_sites)
    for start in range(0, samples, size):
        mults = draw_multipliers(rng, n_sites, cap, count=min(size, samples - start))
        block = _audit_block(mults, start)
        index, _, _, audit, failed = block
        failures += failed
        ratio, gap = audit["ratio"], audit["substitution_gap"]
        evaluated += len(index)
        lambda_min_violations += int((~audit["lambda_min_ok"]).sum())
        min_final_slack = float(audit["final_slack"].min(initial=min_final_slack))
        if gap is not None:
            u2 = (math.pi / audit["t0"]) ** 2
            negatives += int((gap < -SUBSTITUTION_GAP_SLACK * u2).sum())
            pair = audit["pair_product_slack"]
            pair_violations += int((pair < -SUBSTITUTION_GAP_SLACK * u2).sum())
            min_gap = float(gap.min(initial=min_gap))
        bad = np.flatnonzero(ratio < 1.0 - RATIO_SLACK)
        violations += [_record(block, k, mults[index[k] - start]) for k in bad]
        before = np.minimum.accumulate(np.concatenate([[min_ratio], ratio[:-1]]))
        min_ratio = float(ratio.min(initial=min_ratio))
        near = [r for r in near if r["report"]["ratio"] <= min_ratio + RATIO_SLACK]
        near += [_record(block, k, mults[index[k] - start]) for k in
                 np.flatnonzero((ratio < before) & (ratio <= min_ratio + RATIO_SLACK))]
    witness = near[0] if near else {}

    return SearchReport(
        n_sites=n_sites,
        samples=samples,
        max_multiplier=cap,
        unit=1.0,
        seed=seed,
        evaluated=evaluated,
        min_ratio=min_ratio if evaluated else None,
        min_ratio_index=witness.get("index", -1),
        witness=witness,
        lambda_min_violations=lambda_min_violations,
        min_final_slack=min_final_slack if evaluated else None,
        substitution_gap_negatives=negatives,
        min_substitution_gap=min_gap if evaluated and n_sites % 2 else None,
        violations=tuple(violations),
        failures=tuple(failures),
        pair_product_violations=pair_violations,
    )
