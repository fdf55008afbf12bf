"""Acceptance gate: nine numbered criteria, one printed line each.

Every test prints `criterion N: PASS ...` (or FAIL with the offending
numbers) before asserting, so the run log doubles as the acceptance report.
Bound violations found by the falsifier are written to tests/artifacts/ as
witness JSON before the test fails.
"""
import json
import math
import time
from pathlib import Path

import numpy as np

from pstlab import (
    audit_chain,
    canonical_chain,
    certify,
    classify_parity,
    decompose,
    eigen_side_traces,
    evolve_fidelity,
    first_perfect_time,
    is_mirror_symmetric,
    synthesize,
    trace_report,
)

ARTIFACTS = Path(__file__).parent / "artifacts"


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_even_bound_saturation():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 41, 2):
        report, _ = audit_chain(canonical_chain(n))
        worst = max(worst, abs(report.ratio - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report_line(1, ok, f"even N=2..40 worst |ratio-1| {worst:.3e}, "
                       f"{elapsed:.2f}s (limit 5s)")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_odd_bound_saturation():
    worst = 0.0
    for n in range(3, 40, 2):
        report, _ = audit_chain(canonical_chain(n))
        worst = max(worst, abs(report.ratio - 1.0))
    ok = worst <= 1e-9
    report_line(2, ok, f"odd N=3..39 worst |ratio-1| {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_3_even_trace_identity(mirror_corpus):
    worst, count = 0.0, 0
    for chain in mirror_corpus:
        if chain.n_sites % 2:
            continue
        count += 1
        spectral = classify_parity(decompose(chain), chain)
        eigen_sum, _ = eigen_side_traces(spectral)
        closed = trace_report(chain).closed_form_sh
        worst = max(worst, abs(closed - eigen_sum) / max(abs(closed),
                                                         abs(eigen_sum)))
    ok = worst <= 1e-10
    report_line(3, ok, f"{count} even chains, worst relative mismatch of "
                       f"2 J_half vs alternating eigenvalue sum {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_4_odd_trace_identity(mirror_corpus):
    worst, count = 0.0, 0
    for chain in mirror_corpus:
        if chain.n_sites % 2 == 0:
            continue
        count += 1
        spectral = classify_parity(decompose(chain), chain)
        _, eigen_sum = eigen_side_traces(spectral)
        closed = trace_report(chain).closed_form_sh2
        worst = max(worst, abs(closed - eigen_sum) / max(abs(closed),
                                                         abs(eigen_sum)))
    ok = worst <= 1e-10
    report_line(4, ok, f"{count} odd chains, worst relative mismatch of "
                       f"B_c^2 + 4 J_c^2 vs alternating square sum {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_5_lowest_eigenvalue_constraint(falsify_reports):
    reports, _ = falsify_reports
    violations = {n: reports[n].lambda_min_violations for n in (3, 5, 7, 9)}
    total = sum(violations.values())
    ok = total == 0
    report_line(5, ok, f"lambda_min tail constraint violations over "
                       f"4x10^4 samples: {violations}")
    assert total == 0


def test_criterion_6_falsification_suite(falsify_reports):
    reports, elapsed = falsify_reports
    min_ratio = min(r.min_ratio for r in reports.values())
    n_violations = sum(len(r.violations) for r in reports.values())
    for n, report in reports.items():
        if report.violations:
            ARTIFACTS.mkdir(exist_ok=True)
            path = ARTIFACTS / f"bound_violation_witnesses_N{n}.json"
            path.write_text(json.dumps(list(report.violations), indent=2),
                            encoding="utf-8")
            print(f"wrote {len(report.violations)} witness record(s) to {path}")
    ok = min_ratio >= 1.0 - 1e-9 and n_violations == 0 and elapsed < 60.0
    report_line(6, ok, f"8x10^4 spectra (N=2..9, cap 9): min ratio "
                       f"{min_ratio:.15f}, {n_violations} violation(s), "
                       f"{elapsed:.2f}s (limit 60s)")
    assert min_ratio >= 1.0 - 1e-9
    assert n_violations == 0
    assert elapsed < 60.0


def test_criterion_7_transfer_iff_certificate(disorder_corpus):
    worst_clean = 1.0
    for chain, cert, _ in disorder_corpus:
        worst_clean = min(worst_clean,
                          float(evolve_fidelity(chain, [cert.t0]).fidelity[0]))
    for n in range(2, 13):
        cert = certify(canonical_chain(n))
        worst_clean = min(
            worst_clean,
            float(evolve_fidelity(canonical_chain(n), [cert.t0]).fidelity[0]),
        )

    breaches = []
    for k, (chain, cert, perturbed) in enumerate(disorder_corpus):
        assert not is_mirror_symmetric(perturbed)
        hit = first_perfect_time(perturbed, threshold=1.0 - 1e-3,
                                 horizon=20.0 * cert.t0)
        if hit is not None:
            breaches.append((k, hit))
    ok = worst_clean >= 1.0 - 1e-8 and not breaches
    report_line(7, ok, f"certified chains reach f(t0) >= {worst_clean:.12f}; "
                       f"{len(disorder_corpus)} symmetry-broken chains over "
                       f"20 t0: {len(breaches)} breach(es) of 1 - 1e-3")
    assert worst_clean >= 1.0 - 1e-8
    assert breaches == []


def test_criterion_8_synthesis_round_trip(spectrum_corpus):
    worst = 0.0
    for lam in spectrum_corpus:
        chain = synthesize(lam)
        achieved = decompose(chain).eigenvalues
        width = lam[0] - lam[-1]
        worst = max(worst, float(np.abs(achieved - lam).max() / width))
    ok = worst <= 1e-8
    report_line(8, ok, f"{len(spectrum_corpus)} spectra (N<=32, gap ratio "
                       f"<=100): worst width-relative error {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_9_eigenvector_parity_pattern(mirror_corpus):
    checked = 0
    for chain in list(mirror_corpus) + [canonical_chain(n) for n in range(2, 17)]:
        spectral = classify_parity(decompose(chain), chain)
        expected = np.where(np.arange(chain.n_sites) % 2 == 0, 1, -1)
        assert np.array_equal(spectral.parity_signs, expected)
        checked += 1
    report_line(9, True, f"alternating parity signs exact on {checked} "
                         f"mirror-symmetric chains")
