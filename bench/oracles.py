"""Checks made apart from pstlab.

Nothing here imports pstlab.  Spectra come from numpy's dense symmetric
solvers (a different LAPACK routine than the package's tridiagonal one),
fidelities from the matrix exponential or from a dense eigendecomposition,
and the discrete facts (multiplier reduction, substitution-gap signs, the
absence of an odd unit) from exact integer and rational arithmetic.  Each
check returns a list of messages; an empty list means the output is correct.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

T0_REL_TOL = 1e-9          # a reported t0 must match pi / (gcd(m) unit) this closely
SPECTRUM_REL_TOL = 1e-9    # reported eigenvalues against dense eigvalsh, per max |lambda|
RATIO_FLOOR = 1.0 - 1e-9   # the paper's bound, with the program's stated slack
CLEAN_THRESHOLD = 1.0 - 1e-8
DISORDER_THRESHOLD = 1.0 - 1e-3
GAP_REL_TOL = 1e-9         # the gap tolerance an odd unit must meet
UNIT_CAP = 999             # largest odd multiplier certification tries


def dense_hamiltonian(diagonal, couplings) -> np.ndarray:
    b = np.asarray(diagonal, dtype=float)
    j = np.asarray(couplings, dtype=float)
    return np.diag(b) + np.diag(j, 1) + np.diag(j, -1)


def dense_spectrum(diagonal, couplings) -> np.ndarray:
    """Descending eigenvalues by dense eigvalsh."""
    return np.linalg.eigvalsh(dense_hamiltonian(diagonal, couplings))[::-1]


def structured_spectrum(multipliers, unit: float) -> np.ndarray:
    """Traceless descending spectrum with consecutive gaps multipliers * unit."""
    m = [int(x) for x in multipliers]
    tails = [sum(m[i:]) for i in range(len(m) + 1)]
    lam = np.array(tails, dtype=float) * unit
    return lam - lam.mean()


def bound(n_sites: int) -> float:
    """pi N / 4 for even N, pi sqrt(N^2 - 1) / 4 for odd N."""
    if n_sites % 2 == 0:
        return math.pi * n_sites / 4.0
    return math.pi * math.sqrt(n_sites * n_sites - 1) / 4.0


def transfer_time(multipliers, unit: float) -> float:
    """pi / (gcd(m) unit): the minimal transfer time of a structured spectrum."""
    return math.pi / (math.gcd(*[int(x) for x in multipliers]) * unit)


def draw_multipliers(n_sites: int, samples: int, cap: int, seed: int) -> np.ndarray:
    """The falsifier's corpus drawn again: one batch of odd multipliers,
    uniform on {1, 3, ..., cap}, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, (cap + 1) // 2, size=(samples, n_sites - 1)) * 2 + 1


def exact_substitution_gap(multipliers) -> int:
    """N^2 / u^2 times the odd-N substitution gap, in exact integers.

    On the traceless spectrum with gaps k u (k the multipliers divided by
    their gcd), lambda_n = L_n u / N with L_n = N T_n - sum_m T_m and T_n the
    tail sums of k.  The scaled gap sum (-1)^(n+1) L_n^2 - L_N^2 + N L_N has
    the sign of the gap, and any nonzero value is at least u^2 / N^2 away
    from zero.  This is tests/oracles.py::exact_substitution_gap, repeated
    so that the benchmark needs nothing from the checkout but src/.
    """
    m = [int(x) for x in multipliers]
    g = math.gcd(*m)
    k = [x // g for x in m]
    n = len(k) + 1
    tails = [sum(k[i:]) for i in range(n)]
    total = sum(tails)
    scaled = [n * t - total for t in tails]
    alternating = sum(x * x if i % 2 == 0 else -x * x for i, x in enumerate(scaled))
    return alternating - scaled[-1] ** 2 + n * scaled[-1]


def no_odd_unit_fits(eigenvalues, cap: int = UNIT_CAP, rel_tol: float = GAP_REL_TOL) -> bool:
    """True when no unit g_min / m (m <= cap) makes every gap a multiple
    within rel_tol.

    Some gap ratio r = g / g_min has no fraction M / m with m <= cap within
    rel_tol * r; Fraction.limit_denominator(cap) gives the closest such
    fraction, so one ratio that misses it rules out every candidate unit.
    """
    gaps = -np.diff(np.asarray(eigenvalues, dtype=float))
    g_min = float(gaps.min())
    for g in gaps:
        ratio = Fraction(float(g) / g_min)
        best = ratio.limit_denominator(cap)
        if abs(ratio - best) > rel_tol * ratio:
            return True
    return False


def expm_fidelity(diagonal, couplings, t: float) -> float:
    """|<N| exp(-i h t) |1>| from the matrix exponential."""
    u = scipy.linalg.expm(-1j * dense_hamiltonian(diagonal, couplings) * float(t))
    return float(abs(u[-1, 0]))


def fidelity_stays_below(diagonal, couplings, horizon: float, threshold: float,
                         refinements: int = 6) -> bool | None:
    """Whether |<N| exp(-i h t) |1>| < threshold on all of (0, horizon].

    f(t) = |sum_n c_n e^{-i lambda_n t}| with c_n = <N|n><n|1> from a dense
    eigh.  The scan starts at step pi / (32 width), four times finer than the
    program's grid.  |f'| <= sum |c_n| |lambda_n - mid| = L, so a sample
    below threshold - L h / 2 clears its whole cell of width h; cells that
    do not clear are split 16 ways and sampled again.  Returns False once a
    sample reaches the threshold, True once every cell clears, and None if
    some cell is still open after `refinements` splits.
    """
    lam, vec = np.linalg.eigh(dense_hamiltonian(diagonal, couplings))
    coeff = vec[-1, :] * vec[0, :]
    lam = lam - 0.5 * (lam[0] + lam[-1])
    lipschitz = float(np.sum(np.abs(coeff * lam)))
    step = math.pi / (32.0 * float(lam[-1] - lam[0]))
    cells = int(math.ceil(horizon / step))
    half = 0.5 * horizon / cells
    centers = (np.arange(cells) + 0.5) * (2.0 * half)
    for _ in range(refinements + 1):
        values = np.concatenate([
            np.abs(np.exp(-1j * np.outer(chunk, lam)) @ coeff)
            for chunk in np.array_split(centers, max(1, centers.size // 4096))
        ])
        if values.max() >= threshold:
            return False
        open_cells = centers[values + lipschitz * half >= threshold]
        if open_cells.size == 0:
            return True
        offsets = (np.arange(16) + 0.5) / 16.0 * (2.0 * half) - half
        centers = (open_cells[:, None] + offsets[None, :]).ravel()
        half /= 16.0
    return None


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def check_search(report: dict, n_sites: int, samples: int, cap: int, seed: int,
                 negatives: int) -> list[str]:
    """A falsify_search report (as a dict) against the paper's bound, the
    redrawn corpus and `negatives`, the exact recount of substitution-gap
    negatives over that corpus."""
    errors = []
    if report["violations"]:
        errors.append(f"{len(report['violations'])} bound violation record(s)")
    if not report["min_ratio"] >= RATIO_FLOOR:
        errors.append(f"min_ratio {report['min_ratio']!r} below 1 - 1e-9")
    if report["lambda_min_violations"] != 0:
        errors.append(f"lambda_min_violations {report['lambda_min_violations']}")
    if report["evaluated"] != samples or report["failures"]:
        errors.append(f"evaluated {report['evaluated']} of {samples}, "
                      f"{len(report['failures'])} failure(s)")
    if report["substitution_gap_negatives"] != negatives:
        errors.append(f"substitution_gap_negatives {report['substitution_gap_negatives']}"
                      f", exact recount {negatives}")
    errors += _check_witness(report, n_sites, samples, cap, seed)
    return errors


def _check_witness(report: dict, n_sites: int, samples: int, cap: int, seed: int) -> list[str]:
    witness = report["witness"]
    index = report["min_ratio_index"]
    if not (0 <= index < samples) or witness.get("index") != index:
        return [f"witness index {witness.get('index')!r} / {index!r} out of place"]
    errors = []
    mult = witness["multipliers"]
    if mult != draw_multipliers(n_sites, samples, cap, seed)[index].tolist():
        errors.append(f"witness multipliers {mult} are not sample {index} of the seed")
    chain = witness["chain"]
    lam = dense_spectrum(chain["B"], chain["J"])
    target = structured_spectrum(mult, witness["unit"])
    scale = float(np.abs(target).max())
    if np.abs((lam - lam.mean()) - target).max() > SPECTRUM_REL_TOL * scale:
        errors.append("witness chain spectrum does not match its multipliers")
    ratio = max(chain["J"]) * transfer_time(mult, witness["unit"]) / bound(n_sites)
    if not _close(witness["report"]["ratio"], ratio, T0_REL_TOL):
        errors.append(f"witness ratio {witness['report']['ratio']!r}, expected {ratio!r}")
    if not report["min_ratio"] <= witness["report"]["ratio"] <= report["min_ratio"] + 1e-9:
        errors.append("witness ratio is not within 1e-9 of min_ratio")
    return errors


def check_analysis(result: dict, exit_code: int, kind: str, multipliers, unit: float,
                   spectrum: np.ndarray, irrational: bool | None = None) -> list[str]:
    """An `analyze --output` report against how its chain was built.

    kind is "admissible" (built from odd `multipliers` and `unit`),
    "irrational" (one gap an irrational multiple; `irrational` is the
    precomputed no_odd_unit_fits verdict) or "asymmetry" (one end field
    shifted).  `spectrum` is the dense eigvalsh spectrum of the chain.
    """
    errors = []
    scale = float(np.abs(spectrum).max())
    reported = np.asarray(result["spectrum"], dtype=float)
    if reported.shape != spectrum.shape or \
            np.abs(reported - spectrum).max() > SPECTRUM_REL_TOL * scale:
        errors.append("reported spectrum does not match dense eigvalsh")
    cert = result["certificate"]
    expected_code = 0 if kind == "admissible" else 2
    if exit_code != expected_code:
        errors.append(f"exit code {exit_code}, expected {expected_code}")
    if kind == "admissible":
        if not cert["admissible"]:
            return errors + [f"admissible chain not certified ({cert.get('failure')})"]
        t0 = transfer_time(multipliers, unit)
        if cert["t0"] is None or not _close(cert["t0"], t0, T0_REL_TOL):
            errors.append(f"t0 {cert['t0']!r}, expected {t0!r}")
        g = math.gcd(*[int(x) for x in multipliers])
        if cert["multipliers"] != [int(x) // g for x in multipliers]:
            errors.append("reported multipliers are not m / gcd(m)")
        if not result["fidelity_at_t0"] >= CLEAN_THRESHOLD:
            errors.append(f"fidelity_at_t0 {result['fidelity_at_t0']!r} below 1 - 1e-8")
        if not result["bound_report"]["ratio"] >= RATIO_FLOOR:
            errors.append(f"ratio {result['bound_report']['ratio']!r} below the bound")
    else:
        failure = "no-common-odd-unit" if kind == "irrational" else "asymmetry"
        if cert["admissible"] or cert.get("failure") != failure:
            errors.append(f"certificate {cert}, expected failure {failure}")
        if kind == "irrational" and not irrational:
            errors.append("an odd unit fits the spectrum within 1e-9")
        if result["mirror_symmetric"] != (kind == "irrational"):
            errors.append(f"mirror_symmetric {result['mirror_symmetric']}")
    return errors


def check_transfer(clean_time, disorder_time, t0: float, clean_fidelity,
                   disorder_fidelity, disorder_below: bool | None) -> list[str]:
    """The pair of first_perfect_time results of one transfer op.

    clean_fidelity and disorder_fidelity map a time to the matrix-exponential
    fidelity of the certified chain and of its symmetry-broken copy;
    disorder_below is fidelity_stays_below for the copy over 20 t0.
    """
    errors = []
    if clean_time is None:
        errors.append(f"no perfect time on a chain certified at t0 = {t0!r}")
    else:
        if not _close(clean_time, t0, T0_REL_TOL):
            errors.append(f"first perfect time {clean_time!r}, t0 {t0!r}")
        if not clean_fidelity(clean_time) >= CLEAN_THRESHOLD:
            errors.append(f"expm fidelity at {clean_time!r} below 1 - 1e-8")
    if disorder_time is None:
        if disorder_below is not True:
            errors.append("None on a copy whose fidelity scan is not below 1 - 1e-3")
    elif not (0.0 < disorder_time <= 20.0 * t0
              and disorder_fidelity(disorder_time) >= DISORDER_THRESHOLD):
        errors.append(f"copy time {disorder_time!r} is not a fidelity >= 1 - 1e-3 point")
    return errors
