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
Sturm counts put each eigenvalue within r + beta <= PHASE_TOL / (2 t0) of
x_k, or a canonical chain's (t0 = pi/2), within eps J_max of each a priori.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .chain import ChainSpec, _alternating_signs, _mirror_traces_rows, _Record
from .eigensolve import _sturm_counts_rows
from .errors import NotAdmissible
from .pst import EPS, MAX_MULTIPLIER, PHASE_TOL, _certify_chain, _check_cap, _on_lattice
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

AUDIT_SLACK = 1e-9  # the audit's one slack, at each step's scale: ratio 1, the width, (pi/t0)^2
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
    lambda_min_ok: bool      # lambda_N <= -(N-1)pi/(2 t0) + AUDIT_SLACK * width
    central_field: float | None   # traceless B_c, odd N only


@dataclass(frozen=True)
class ProofAudit(_Record):
    """Per-step record of the bound derivation on one certified chain, on the
    traceless shift of its fields and of its accepted lattice (pst._on_lattice).

    Asserted steps (slack >= -AUDIT_SLACK at the natural scale on every
    admissible chain): the trace identity match, the gap floor, the lambda_N
    tail constraint, J_max against the central coupling, the even-N half-chain
    sum, the odd-N pair-product sum, and the final ratio.  `substitution_gap`
    (odd N) is the signed margin of the alternating square sum over
    lambda_N^2 - (pi/t0) lambda_N; it is recorded, not asserted, because
    admissible spectra with large inner multipliers drive it negative while
    the final bound still holds.  A search or scan row computes only what it
    reads (_audit_rows); the other steps are computed only where a
    ProofAudit is built (_audit_certified, for audit_chain and analyze).
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
    """The audit that a search or scan row reads, of stacked certified
    chains: fields (S, N) and (S, N-1), their accepted descending lattices
    (S, N) and transfer times (S,).

    Returns (S,) arrays: the BoundReport fields that vary by row
    (`lambda_min_ok` is the tail constraint up to AUDIT_SLACK times the
    width), the slacks the search counts and the odd-N substitution gap's
    two terms (`identity_eigen_side`, `substitution_value`), the odd-N ones
    None for even N; and the traceless lattice `lam0`.  The other ProofAudit
    steps are _audit_certified's.
    """
    n = lattice.shape[1]
    lam0 = lattice - np.add.reduce(lattice, 1, keepdims=True) / n
    u = math.pi / t0
    j_max = couplings.max(axis=1)
    product = j_max * t0
    bound = bound_value(n)
    width = lam0[:, 0] - lam0[:, -1]
    rows = dict.fromkeys(("central_field", "identity_eigen_side", "substitution_value",
                          "substitution_gap", "pair_product_slack"))  # odd N only
    rows.update(lam0=lam0, j_max=j_max, t0=t0, product=product, ratio=product / bound,
                final_slack=product - bound,
                lambda_min_ok=lam0[:, -1] <= -(n - 1) * u / 2.0 + AUDIT_SLACK * width)
    if n % 2:
        c = n // 2
        eigen_side = np.add.reduce(_alternating_signs(n) * lam0 * lam0, 1)
        value = lam0[:, -1] ** 2 - u * lam0[:, -1]
        pair = couplings[:, c - 1] + couplings[:, c]
        rows.update(central_field=diagonal[:, c] - np.add.reduce(diagonal, 1) / n,  # traceless B_c
                    identity_eigen_side=eigen_side, substitution_value=value,
                    substitution_gap=eigen_side - value,
                    pair_product_slack=pair**2 - (n * n - 1) * u**2 / 4.0)
    return rows


def _audit_certified(
    chain: ChainSpec, lattice: np.ndarray, t0: float
) -> tuple[BoundReport, ProofAudit]:
    """The BoundReport and ProofAudit of one certified chain on its accepted
    lattice (N,) and transfer time: _audit_rows' batch of one plus the steps
    that no search reads, the identity's sides and their error (the matrix
    side from the traceless shift's central entries,
    chain._mirror_traces_rows), the gap floor, the lambda_N tail, J_max
    against the central coupling and the even-N half-chain sum."""
    n, diagonal, couplings = chain.n_sites, chain.diagonal[None], chain.couplings[None]
    rows = _audit_rows(diagonal, couplings, lattice[None], np.array([t0]))
    lam0, u = rows["lam0"], math.pi / rows["t0"]
    b0 = diagonal - diagonal.mean(axis=1, keepdims=True)
    trace_sh, trace_sh2 = _mirror_traces_rows(b0, couplings)
    matrix_side, eigen_side, half_sum = trace_sh2, rows["identity_eigen_side"], None
    if n % 2 == 0:
        matrix_side, eigen_side = trace_sh, (_alternating_signs(n) * lam0).sum(axis=1)
        half_sum = matrix_side - (n / 2.0) * u
    rows.update(
        half_sum_slack=half_sum,
        identity_matrix_side=matrix_side,
        identity_eigen_side=eigen_side,
        identity_abs_err=np.abs(matrix_side - eigen_side),
        gap_floor_slack=(-np.diff(lam0, axis=1)).min(axis=1) - u,
        lambda_min_slack=-(n - 1) * u / 2.0 - lam0[:, -1],
        center_coupling_slack=rows["j_max"] - couplings[:, n // 2 - 1],
    )
    report = _bound_report(rows, 0, n)
    return report, ProofAudit(parity=report.parity, **{
        f.name: None if (v := rows[f.name]) is None else v[0].item()
        for f in fields(ProofAudit) if f.name != "parity"})


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
    return _audit_certified(chain, lattice, cert.t0)


def _bound_report(rows: dict, k: int, n: int) -> BoundReport:
    """Row k of the audit rows (see _audit_rows) of N = n chains, as the
    chain's BoundReport."""
    central = rows["central_field"]
    return BoundReport(
        n_sites=n, parity="odd" if n % 2 else "even", j_max=rows["j_max"][k].item(),
        t0=rows["t0"][k].item(), product=rows["product"][k].item(), bound=bound_value(n),
        ratio=rows["ratio"][k].item(), lambda_min_ok=rows["lambda_min_ok"][k].item(),
        central_field=None if central is None else central[k].item(),
    )


@dataclass(frozen=True)
class ScanResult:
    """Saturation-scan table plus per-row failures (N, reason)."""

    reports: tuple[BoundReport, ...]
    failures: tuple[tuple[int, str], ...]

    def to_csv(self) -> str:
        lines = [SCAN_CSV_HEADER]
        for r in self.reports:
            cf = "" if r.central_field is None else f"{r.central_field:.12g}"
            lines.append(f"{r.n_sites},{r.parity},{r.j_max:.12g},{r.t0:.12g},"
                         f"{r.product:.12g},{r.bound:.12g},{r.ratio:.12g},"
                         f"{int(r.lambda_min_ok)},{cf}")
        return "\n".join(lines) + "\n"


def saturation_scan(n_values) -> ScanResult:
    """Audit the canonical chain of each N in 2..MAX_SCAN_SITES on its
    lattice N-1, N-3, ..., -(N-1) (gaps 2, t0 = pi/2), enclosed a priori, not
    solved or counted; failures are collected in `failures`, not logged, and
    never abort the scan.  Time and memory are O(N) a row."""
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
            if not _on_lattice(2.0 * EPS * chain.j_max, t0[0]):
                raise ValueError("the a priori spread 2 eps J_max exceeds the lattice rule")
        except ValueError as exc:
            failures.append((n, str(exc)))
        else:
            rows = _audit_rows(chain.diagonal[None], chain.couplings[None], lattice, t0)
            reports.append(_bound_report(rows, 0, n))
    return ScanResult(reports=tuple(reports), failures=tuple(failures))


@dataclass(frozen=True)
class SearchReport(_Record):
    """Falsification-search outcome over random admissible spectra.

    `min_ratio` is the smallest audited ratio.  The witness and
    `min_ratio_index` name the lowest sample index whose ratio is within
    AUDIT_SLACK (1e-9) of `min_ratio`, so samples that tie up to roundoff
    resolve to the same witness on every numpy/BLAS build.  `violations`
    holds full records for every sample with ratio < 1 - AUDIT_SLACK
    (expected empty).  `substitution_gap_negatives` counts odd-N samples
    where the recorded (not asserted) substitution step fails, meaning a
    substitution gap below -AUDIT_SLACK * u^2 (at the natural scale
    u = pi/t0); gaps that are zero up to roundoff are not counted.
    That is a reportable finding about the derivation, not about the bound.
    `pair_product_violations` counts odd-N samples whose pair-product slack
    (ProofAudit) is below the same -AUDIT_SLACK * u^2; that step
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
    BLOCK_BYTES: per sample one (N, N) array (the end-weight differences,
    their absolute values and logarithms, in place) and the (N//2 + 1, N)
    Lanczos basis, and later the Sturm counts' (N, 2N) bool signs with rows
    of 2N for the shifts, pivots, quotient and counts.  The formula counts
    four (N, N) arrays and sixteen rows of N, so the budget holds about 2.5
    arrays of headroom (1.5 when the end weights took two arrays)."""
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


def _enclosed_rows(diagonal, couplings, lattice, half_width):
    """Per row of stacked fields (S, N) and (S, N-1), descending lattice
    points x (S, N) and half-widths h (S,): (one, r), where r is the largest
    radius with r + beta <= h, beta being the Sturm counts' error bound, and
    `one` says the counts at x_k - r and x_k + r put exactly one eigenvalue
    in each window [x_k - r, x_k + r].  Where `one` holds and r > 0, every
    eigenvalue lies within r + beta <= h of its lattice point; r <= 0 means
    beta alone reaches h.

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
    minus r, so within gamma_2 (|x_k| + r) of it.  So beta = beta_0
    + gamma_2 r, beta_0 = 2 J_max gamma_5 / (2 - gamma_5) + gamma_2 max |x|,
    and r = (h - beta_0) / (1 + gamma_2), rounded down one ulp so that
    r + beta <= h holds in floats too.
    """
    n = lattice.shape[1]
    u = EPS / 2
    gamma5, gamma2 = 5 * u / (1 - 5 * u), 2 * u / (1 - 2 * u)
    beta0 = (2.0 * gamma5 / (2.0 - gamma5) * couplings.max(axis=1)
             + gamma2 * np.abs(lattice).max(axis=1))
    radius = np.nextafter((half_width - beta0) / (1.0 + gamma2), -np.inf)
    shifts = np.concatenate((lattice - radius[:, None], lattice + radius[:, None]), axis=1)
    counts = _sturm_counts_rows(diagonal, couplings, shifts)
    below = np.arange(n - 1, -1, -1)  # eigenvalues below window k of a descending lattice
    one = (counts == np.concatenate((below, below + 1))).all(axis=1)
    return one, radius


def _audit_block(mults: np.ndarray, start: int):
    """Synthesize one block of multiplier rows (at unit 1), drawn as samples
    start, start + 1, ..., check each chain against the descending lattice it
    was drawn from, t0 = pi / gcd(multipliers), and audit each chain that
    passes on that lattice.  A row's one verdict is the first that applies:
    its synthesis breakdown; the Sturm counts' error bound reaching the
    half-width PHASE_TOL / (2 t0) that _on_lattice allows, so that no window
    is left (radius r <= 0); or an eigenvalue outside its window
    (_enclosed_rows).  A passing row has every eigenvalue within
    PHASE_TOL / (2 t0) of its lattice point, so a spread within the rule.
    Every synthesized chain is a palindrome (_synthesize_rows mirrors its
    first half), so mirror symmetry is not checked.  Returns the passing
    rows' sample indices, draws, fields B and J and audit rows (see
    _audit_rows), and (index, message) per failed row, in index order.
    """
    lattice, t0 = _lattice_rows(1.0, mults)
    diagonal, couplings, errors = _synthesize_rows(lattice)
    with np.errstate(over="ignore", invalid="ignore"):  # a broken row's fields are NaN or inf
        one, radius = _enclosed_rows(diagonal, couplings, lattice, PHASE_TOL / (2.0 * t0))
    window = radius > 0
    ok = one & window
    ok[list(errors)] = False
    failed = [(start + k, str(errors[k]) if k in errors
               else "the Sturm counts' error bound reaches the lattice window" if not window[k]
               else "spectrum leaves the windows of its drawn lattice")
              for k in (~ok).nonzero()[0].tolist()]
    diagonal, couplings = diagonal[ok], couplings[ok]
    audit = _audit_rows(diagonal, couplings, lattice[ok], t0[ok])
    return start + ok.nonzero()[0], mults[ok], diagonal, couplings, audit, failed


def _record(block: tuple, k: int) -> dict:
    """The full record of audited row k of a block (see _audit_block)."""
    index, mults, diagonal, couplings, audit, _ = block
    return {
        "index": int(index[k]),
        "multipliers": mults[k].tolist(),
        "unit": 1.0,
        "chain": {"N": diagonal.shape[1], "B": diagonal[k].tolist(), "J": couplings[k].tolist()},
        "report": _bound_report(audit, k, diagonal.shape[1]).to_dict(),
    }


def falsify_search(n_sites: int, samples: int, cap: int, seed: int) -> SearchReport:
    """Stress the bound on `samples` random admissible spectra, each with
    gaps its odd multipliers times the unit 1 (the report's `unit`).

    Multipliers are drawn from default_rng(seed) a block at a time, odd and
    up to `cap` (odd and at most MAX_CAP, else ValueError), the same rows as
    one batch drawn at once, so the corpus depends only on the seed; the
    report records the cap as `max_multiplier`.  Each sample's chain is
    mirror-symmetric by construction, checked against the lattice it was
    drawn from by Sturm counts and the lattice rule, never solved, and
    audited on that lattice with t0 = pi / gcd(multipliers) for what the
    report reads only (_audit_rows; no ProofAudit).  Samples pass
    in blocks through one pass that synthesizes, checks and audits them
    (_audit_block), whose working set stays under BLOCK_BYTES (so N is at
    most MAX_SEARCH_SITES); a block holds the Lanczos arrays and then the
    Sturm counts' arrays, and every sample's numbers are those of a batch of
    one.  A sample that fails is recorded as (index, message) and the others
    go on.  Each block is reduced as it goes, and every record is built from
    its block's rows.
    The witness candidates are the strict prefix minima of the ratio within
    AUDIT_SLACK of the running minimum; the first one left is the lowest
    index within AUDIT_SLACK of the minimum.  A substitution gap counts as
    negative only below -AUDIT_SLACK * (pi/t0)^2, so roundoff
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
        index, _, _, _, audit, failed = block
        failures += failed
        ratio, gap = audit["ratio"], audit["substitution_gap"]
        evaluated += len(index)
        lambda_min_violations += int((~audit["lambda_min_ok"]).sum())
        min_final_slack = float(audit["final_slack"].min(initial=min_final_slack))
        if gap is not None:
            u2 = (math.pi / audit["t0"]) ** 2
            negatives += int((gap < -AUDIT_SLACK * u2).sum())
            pair = audit["pair_product_slack"]
            pair_violations += int((pair < -AUDIT_SLACK * u2).sum())
            min_gap = float(gap.min(initial=min_gap))
        bad = (ratio < 1.0 - AUDIT_SLACK).nonzero()[0]
        violations += [_record(block, k) for k in bad]
        before = np.minimum.accumulate(np.concatenate([[min_ratio], ratio[:-1]]))
        min_ratio = float(ratio.min(initial=min_ratio))
        near = [r for r in near if r["report"]["ratio"] <= min_ratio + AUDIT_SLACK]
        near += [_record(block, k) for k in
                 ((ratio < before) & (ratio <= min_ratio + AUDIT_SLACK)).nonzero()[0]]
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
