"""Speed-bound values, the per-step audit, the scan, and the falsifier."""
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from oracles import exact_substitution_gap, lanczos_chain

import pstlab.bounds
import pstlab.eigensolve
import pstlab.pst
from pstlab import (
    ChainSpec,
    NotAdmissible,
    SpectrumSpec,
    audit_chain,
    bound_value,
    canonical_chain,
    certify,
    falsify_search,
    saturation_scan,
    synthesize,
)
from pstlab.bounds import (
    BLOCK_BYTES,
    MAX_SCAN_SITES,
    MAX_SEARCH_SITES,
    RATIO_SLACK,
    SCAN_CSV_HEADER,
    SUBSTITUTION_GAP_SLACK,
    _audit_block,
    _block_rows,
    _record,
)
from pstlab.eigensolve import eigenvalues_only
from pstlab.pst import MAX_CAP, PHASE_TOL
from pstlab.synthesis import _expand_rows, _lattice_rows, _synthesize_rows, draw_multipliers


class TestBoundValue:
    def test_even_closed_form(self):
        assert bound_value(2) == pytest.approx(math.pi / 2.0)
        assert bound_value(4) == pytest.approx(math.pi)
        assert bound_value(40) == pytest.approx(10.0 * math.pi)

    def test_odd_closed_form(self):
        assert bound_value(3) == pytest.approx(math.pi * math.sqrt(8.0) / 4.0)
        assert bound_value(5) == pytest.approx(math.pi * math.sqrt(24.0) / 4.0)

    def test_scales_inversely_with_time(self):
        # the bound is a floor on J_max t0, which takes no time: scaling a
        # chain by 2 halves t0 and leaves the bound and the ratio alone
        chain = canonical_chain(6)
        fast = ChainSpec(diagonal=chain.diagonal, couplings=2.0 * chain.couplings)
        (slow_report, _), (fast_report, _) = audit_chain(chain), audit_chain(fast)
        assert fast_report.t0 == pytest.approx(slow_report.t0 / 2.0, rel=1e-12)
        assert fast_report.bound == slow_report.bound == bound_value(6)
        assert fast_report.ratio == pytest.approx(slow_report.ratio, rel=1e-12)
        with pytest.raises(TypeError):
            bound_value(6, t0=2.0)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            bound_value(1)


class TestAuditChain:
    def test_canonical_even_chain_saturates(self):
        report, audit = audit_chain(canonical_chain(4))
        assert report.parity == "even"
        assert report.ratio == pytest.approx(1.0, abs=1e-12)
        assert report.lambda_min_ok
        assert report.central_field is None
        assert audit.identity_abs_err < 1e-12
        assert audit.half_sum_slack == pytest.approx(0.0, abs=1e-12)
        assert audit.center_coupling_slack == pytest.approx(0.0, abs=1e-12)
        assert audit.final_slack == pytest.approx(0.0, abs=1e-12)
        assert audit.gap_floor_slack == pytest.approx(0.0, abs=1e-12)
        assert audit.substitution_gap is None

    def test_canonical_odd_chain_saturates(self):
        report, audit = audit_chain(canonical_chain(5))
        assert report.parity == "odd"
        assert report.ratio == pytest.approx(1.0, abs=1e-12)
        assert audit.central_field == pytest.approx(0.0, abs=1e-12)
        assert audit.identity_abs_err < 1e-10
        assert audit.half_sum_slack is None
        # equally spaced gaps make the substitution step exact
        assert audit.substitution_gap == pytest.approx(0.0, abs=1e-10)
        assert audit.lambda_min_slack == pytest.approx(0.0, abs=1e-10)

    def test_mixed_multipliers_exceed_the_bound(self):
        chain = synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 3]))
        report, _ = audit_chain(chain)
        assert report.ratio == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_substitution_step_can_go_negative(self):
        # inner multipliers (1,5,5,1): alternating square sum 22 against the
        # substituted value 42, yet the final bound still holds
        chain = synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 5, 5, 1]))
        report, audit = audit_chain(chain)
        assert audit.substitution_gap == pytest.approx(-20.0, abs=1e-9)
        assert report.ratio >= 1.0 - 1e-9
        assert audit.final_slack >= -1e-9

    def test_exhaustive_three_site_patterns(self):
        # uniform multiplier patterns reduce to the saturating chain; any
        # mixed pattern strictly exceeds the bound
        for m1 in (1, 3, 5):
            for m2 in (1, 3, 5):
                chain = synthesize(SpectrumSpec(unit=1.0, multipliers=[m1, m2]))
                report, audit = audit_chain(chain)
                assert report.ratio >= 1.0 - 1e-9
                assert audit.identity_abs_err < 1e-10 * max(
                    1.0, abs(audit.identity_matrix_side)
                )
                if m1 == m2:
                    assert report.ratio == pytest.approx(1.0, abs=1e-12)
                else:
                    assert report.ratio > 1.7

    def test_rejects_inadmissible_chain(self):
        with pytest.raises(NotAdmissible, match="asymmetry"):
            audit_chain(ChainSpec(diagonal=[0.0, 0.0, 0.0], couplings=[1.0, 2.0]))

    def test_overflow_propagates(self):
        # a multiplier beyond the cap is audited; a unit g_min/m with m beyond
        # it is not found, and that verdict propagates as NotAdmissible
        lam = np.array([102.0, 101.0, 0.0])
        report, _ = audit_chain(synthesize(lam - lam.mean()), max_multiplier=99)
        assert report.t0 == pytest.approx(math.pi, rel=1e-12)
        lam = np.array([204.0, 103.0, 0.0])
        with pytest.raises(NotAdmissible, match="no-common-odd-unit"):
            audit_chain(synthesize(lam - lam.mean()), max_multiplier=99)

    def test_report_dict_and_csv_row(self):
        report, _ = audit_chain(canonical_chain(4))
        d = report.to_dict()
        assert d["N"] == 4
        assert d["parity"] == "even"
        assert d["central_field"] is None
        row = report.csv_row()
        assert row.split(",")[0] == "4"
        assert row.split(",")[-1] == ""  # empty central-field column
        assert len(row.split(",")) == len(SCAN_CSV_HEADER.split(","))


    def test_json_keys_in_order(self):
        # the analyze report and stdout list these keys in this order
        report, audit = audit_chain(canonical_chain(5))
        assert list(report.to_dict()) == [
            "N", "parity", "J_max", "t0", "product", "bound", "ratio",
            "lambda_min_ok", "central_field",
        ]
        assert list(audit.to_dict()) == [
            "parity", "identity_matrix_side", "identity_eigen_side",
            "identity_abs_err", "gap_floor_slack", "lambda_min_slack",
            "center_coupling_slack", "final_slack", "ratio", "half_sum_slack",
            "central_field", "substitution_value", "substitution_gap",
            "pair_product_slack",
        ]
        assert list(certify(canonical_chain(5)).to_dict()) == [
            "admissible", "t0", "phi", "multipliers", "max_residual", "failure",
        ]
        search = falsify_search(3, 4, 5, seed=1).to_dict()
        assert list(search) == [
            "N", "samples", "max_multiplier", "unit", "seed", "evaluated",
            "min_ratio", "min_ratio_index", "witness", "lambda_min_violations",
            "min_final_slack", "substitution_gap_negatives",
            "min_substitution_gap", "violations", "failures",
            "pair_product_violations",
        ]
        assert json.loads(json.dumps(search)) == search


class TestOneLatticeRule:
    """certify (on the solved spectrum) and the Sturm-count check (on the
    windows of a known lattice) accept a spectrum by one rule,
    pst._on_lattice, so they agree on a synthesized odd lattice plus a
    centred drift linear in the site index."""

    MULTIPLIERS = ([1, 3, 1, 3, 3, 1, 3, 1], [1, 3, 5, 3, 1, 1, 3, 5, 3, 1])

    @staticmethod
    def _drifted(mults, factor):
        """The chain of the lattice (unit 1) whose eigenvalues drift by a
        spread of factor * PHASE_TOL / t0, with the lattice and t0."""
        lattice, t0 = _lattice_rows(1.0, np.array([mults]))
        n = lattice.shape[1]
        drift = factor * PHASE_TOL / t0[0] * (np.arange(n) / (n - 1) - 0.5)
        return synthesize(lattice[0] + drift), lattice, t0

    @pytest.mark.parametrize("mults", MULTIPLIERS)
    @pytest.mark.parametrize("factor, admissible", [(0.25, True), (2.0, False)])
    def test_both_enclosures_agree(self, mults, factor, admissible):
        chain, lattice, t0 = self._drifted(mults, factor)
        # every gap passes the unit search, so the verdict is the lattice rule's
        unit, *_ = pstlab.pst._minimal_unit(-np.diff(eigenvalues_only(chain)), 999)
        assert not math.isnan(unit)
        cert = certify(chain)
        *_, failed = pstlab.bounds._audit_lattice(
            np.array([0]), chain.diagonal[None], chain.couplings[None], lattice, t0)
        assert cert.admissible == admissible
        if admissible:
            assert failed == []
        else:
            assert cert.failure == "no-common-odd-unit"
            assert failed == [(0, "spectrum leaves the windows of its drawn lattice")]

    def test_audit_chain_audits_the_certified_lattice(self):
        chain, *_ = self._drifted(self.MULTIPLIERS[0], 0.25)
        cert, lam, lattice = pstlab.pst._certify_chain(chain)
        _, audit = audit_chain(chain)
        tail = -(lattice.size - 1) * (math.pi / cert.t0) / 2.0
        assert audit.lambda_min_slack == pytest.approx(tail - lattice[-1], rel=0, abs=1e-14)
        # the solved spectrum's lowest eigenvalue sits off that lattice point
        assert abs(audit.lambda_min_slack - (tail - (lam[-1] - lam.mean()))) > 1e-11


def _pair_sum(mults) -> int:
    """sum_{i odd < j even} k_i k_j over the 1-indexed multipliers, exactly."""
    k = [int(m) for m in mults]
    return sum(k[i] * k[j] for i in range(0, len(k), 2) for j in range(i + 1, len(k), 2))


class TestPairProductStep:
    """The odd-N step (J_{c-1} + J_c)^2 = 2 sum_{i odd < j even} g_i g_j
    >= (N^2 - 1) u^2 / 4, asserted as ProofAudit.pair_product_slack."""

    def test_central_pair_matches_the_exact_pair_sum(self):
        rng = np.random.default_rng(5)
        for n in range(3, 12, 2):
            for mults in [np.ones(n - 1, np.int64), *draw_multipliers(rng, n, 9, count=20)]:
                chain = synthesize(SpectrumSpec(unit=1.0, multipliers=mults))
                c = n // 2  # J_{c-1} and J_c are couplings[c - 1] and couplings[c]
                pair = (chain.couplings[c - 1] + chain.couplings[c]) ** 2
                exact = 2 * _pair_sum(mults)
                assert abs(pair - exact) <= 1e-13 * exact, (n, mults)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_slack_vanishes_only_at_all_ones(self, n):
        # a reduced multiplier of 3 or more raises some product by at least 2 u^2
        mults = np.array(list(itertools.product((1, 3, 5), repeat=n - 1)))
        _, _, _, audit, failed = _audit_block(mults, 0)
        assert failed == []
        slack = audit["pair_product_slack"] / (math.pi / audit["t0"]) ** 2
        ones = (mults == mults[:, :1]).all(axis=1)  # reduced multipliers all 1
        assert ones.sum() == 3
        assert np.abs(slack[ones]).max() <= 1e-9
        assert slack[~ones].min() >= 4.0 - 1e-9
        gcd = np.gcd.reduce(mults, axis=1)
        exact = [2 * _pair_sum(m // g) - (n * n - 1) // 4 for m, g in zip(mults, gcd)]
        np.testing.assert_allclose(slack, exact, rtol=1e-12, atol=1e-9)

    def test_even_chains_have_no_pair_product_step(self):
        _, audit = audit_chain(canonical_chain(6))
        assert audit.pair_product_slack is None
        assert falsify_search(4, 20, 9, 0).pair_product_violations == 0

    def test_no_violation_on_the_falsification_corpus(self, falsify_reports):
        reports, _ = falsify_reports
        assert [reports[n].pair_product_violations for n in (3, 5, 7, 9)] == [0, 0, 0, 0]


class TestSaturationScan:
    def test_canonical_range(self):
        result = saturation_scan(range(2, 7))
        assert [r.n_sites for r in result.reports] == [2, 3, 4, 5, 6]
        assert result.failures == ()
        for r in result.reports:
            assert r.ratio == pytest.approx(1.0, abs=1e-11)

    def test_csv_shape(self):
        text = saturation_scan([2, 3]).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert len(lines) == 3

    def test_failures_are_collected_not_raised(self, monkeypatch):
        # a lattice rule that refuses N = 3's a priori spread
        refused = 2.0 * np.finfo(float).eps * canonical_chain(3).j_max
        monkeypatch.setattr(pstlab.bounds, "_on_lattice", lambda spread, t0: spread != refused)
        result = saturation_scan([2, 3, 4])
        assert [r.n_sites for r in result.reports] == [2, 4]
        assert result.failures == ((3, "the a priori spread 2 eps J_max exceeds the lattice rule"),)

    def test_sites_out_of_range_are_failure_rows(self):
        assert saturation_scan([1, 2]).failures == ((1, "n_sites must be >= 2"),)
        assert len(saturation_scan([1, 2]).reports) == 1
        result = saturation_scan([MAX_SCAN_SITES + 1, 2])
        assert result.failures == ((MAX_SCAN_SITES + 1, f"n_sites must be <= {MAX_SCAN_SITES}"),)
        assert [r.n_sites for r in result.reports] == [2]

    @pytest.mark.parametrize("n", [753, 780, 1000, 2000, MAX_SCAN_SITES])
    def test_large_canonical_chains_saturate(self, n):
        # certifying the solved spectrum failed here (absolute PHASE_TOL);
        # the lattice is known, so t0 is exactly pi/2
        result = saturation_scan([n])
        assert result.failures == ()
        (report,) = result.reports
        assert report.n_sites == n
        assert report.t0 == math.pi / 2.0
        assert abs(report.ratio - 1.0) <= 1e-12

    def test_scan_solves_no_spectrum(self, monkeypatch):
        # the scan encloses the known lattice a priori; it runs neither the
        # eigensolve nor the unit search of certify, nor a Sturm count
        def forbidden(*args, **kw):
            raise AssertionError("called")

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf", forbidden)
        monkeypatch.setattr(pstlab.pst, "_minimal_unit", forbidden)
        monkeypatch.setattr(pstlab.bounds, "_sturm_counts_rows", forbidden)
        monkeypatch.setattr(pstlab.eigensolve, "_sturm_counts_rows", forbidden)
        result = saturation_scan(range(2, 40))
        assert result.failures == ()
        assert len(result.reports) == 38

    def test_sturm_windows_confirm_the_a_priori_enclosure(self):
        # every eigenvalue within eps J_max of its lattice point: windows of
        # that radius plus the counts' own error bound each hold one
        for n in [*range(2, 65), 128, 512, 1024, 4096]:
            chain = canonical_chain(n)
            lattice, _ = _lattice_rows(2.0, np.ones((1, n - 1), np.int64))
            fields = chain.diagonal[None], chain.couplings[None], lattice
            radius = np.array([np.finfo(float).eps * chain.j_max])
            _, beta = pstlab.bounds._enclosed_rows(*fields, radius)
            one, _ = pstlab.bounds._enclosed_rows(*fields, radius + beta)
            assert one.all(), n

    def test_lattice_rule_accepts_the_spread_at_the_largest_n(self):
        # the enclosure's premises hold at MAX_SCAN_SITES with room to spare
        n = MAX_SCAN_SITES
        assert (n // 2) * (n - n // 2) < 2**53
        spread = 2.0 * np.finfo(float).eps * canonical_chain(n).j_max
        assert pstlab.pst._on_lattice(spread, math.pi / 2.0)
        assert spread < 1e-2 * PHASE_TOL / (math.pi / 2.0)

    def test_working_set_is_linear_in_n(self):
        # the model behind MAX_SCAN_SITES: 16 float64 words per site
        n = 8192
        saturation_scan([n])
        tracemalloc.start()
        try:
            result = saturation_scan([n])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.failures == ()
        assert peak < BLOCK_BYTES * n // MAX_SCAN_SITES


def _nudged(audit_rows):
    """audit_rows with each ratio lowered by 1e-12 t0, far less than RATIO_SLACK."""

    def nudged(diagonal, couplings, lam, t0):
        rows = audit_rows(diagonal, couplings, lam, t0)
        rows["ratio"] = rows["ratio"] - 1e-12 * t0
        return rows

    return nudged


class TestFalsifySearch:
    def test_runs_are_deterministic(self):
        a = falsify_search(4, 300, 9, seed=5)
        b = falsify_search(4, 300, 9, seed=5)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_frozen_small_run(self):
        report = falsify_search(5, 500, 9, seed=3)
        assert report.evaluated == 500
        assert report.failures == ()
        assert report.violations == ()
        assert report.lambda_min_violations == 0
        assert report.min_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.min_ratio_index == 74
        # 29 of the samples have an exact gap of zero; the count is the
        # exact-integer one, not a sign that roundoff decides
        assert report.substitution_gap_negatives == 98
        mults = draw_multipliers(np.random.default_rng(3), 5, 9, count=500)
        assert sum(exact_substitution_gap(m) < 0 for m in mults) == 98
        assert report.min_substitution_gap == pytest.approx(-72.0, abs=1e-9)
        assert report.min_final_slack >= -1e-9

    def test_roundoff_gaps_are_not_negatives(self, monkeypatch):
        # the same floor decides which pair-product slacks are violations
        real = pstlab.bounds._audit_rows
        for scale, expected in ((-0.5e-9, 0), (-2e-9, 20)):
            def pinned(diagonal, couplings, lam, t0, scale=scale):
                rows = real(diagonal, couplings, lam, t0)
                rows["substitution_gap"] = scale * (math.pi / t0) ** 2
                rows["pair_product_slack"] = scale * (math.pi / t0) ** 2
                return rows

            monkeypatch.setattr(pstlab.bounds, "_audit_rows", pinned)
            report = falsify_search(3, 20, 5, seed=9)
            assert report.substitution_gap_negatives == expected
            assert report.pair_product_violations == expected

    def test_near_tied_witness_is_the_lowest_index(self, monkeypatch):
        # every two-site sample saturates; lower each ratio by far less than
        # RATIO_SLACK, most for the narrowest gap; sample 0 has the widest
        monkeypatch.setattr(pstlab.bounds, "_audit_rows", _nudged(pstlab.bounds._audit_rows))
        report = falsify_search(2, 40, 9, seed=2)
        assert report.min_ratio_index == 0
        assert report.witness["index"] == 0
        assert report.min_ratio < report.witness["report"]["ratio"]

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_report_does_not_depend_on_the_block_size(self, block, monkeypatch):
        cases = [(n, samples, cap, seed) for n in (2, 3, 4, 5, 8, 9)
                 for samples, cap, seed in ((30, 9, n), (20, 2001, 2 * n))]
        default = [falsify_search(*case).to_dict() for case in cases]
        real = pstlab.bounds._audit_rows
        monkeypatch.setattr(pstlab.bounds, "_audit_rows", _nudged(real))
        near_tie = falsify_search(2, 40, 9, seed=2).to_dict()
        monkeypatch.setattr(pstlab.bounds, "_block_rows", lambda n: block)
        assert falsify_search(2, 40, 9, seed=2).to_dict() == near_tie
        assert near_tie["min_ratio_index"] == 0
        monkeypatch.setattr(pstlab.bounds, "_audit_rows", real)
        assert [falsify_search(*case).to_dict() for case in cases] == default

    def test_records_equal_the_batch_of_one_rebuild(self, monkeypatch):
        # the witness and every violation are the sample run on its own, as a
        # one-sample block, bit for bit; the chain is synthesize's and the
        # report audit_chain's, whose t0 comes from the unit certify fits to
        # the solved smallest gap rather than from the drawn gcd, so its
        # floats agree to rel 1e-12
        def check(record, cap):
            mults = np.array([record["multipliers"]])
            assert record == _record(_audit_block(mults, record["index"]), 0, mults[0])
            chain = synthesize(SpectrumSpec(unit=record["unit"],
                                            multipliers=record["multipliers"]))
            assert record["chain"] == chain.to_dict()
            report, _ = audit_chain(chain, max_multiplier=cap)
            for key, value in report.to_dict().items():
                if isinstance(value, float):
                    assert record["report"][key] == pytest.approx(value, rel=1e-12, abs=0), key
                else:
                    assert record["report"][key] == value, key

        cases = [(n, 30, 9, seed) for n in range(2, 10) for seed in (0, 1, 7)]
        cases += [(n, 20, 2001, 3) for n in (3, 4, 6)]
        for n, samples, cap, seed in cases:
            report = falsify_search(n, samples, cap, seed)
            assert report.violations == ()
            check(report.witness, cap)
        # each ratio r >= 1 mapped to 0.9 / r puts every sample under the
        # bound; the map is smooth and keeps relative differences, which the
        # comparison with audit_chain needs (a fold at even r would turn a
        # last-bit difference at r = 2 into one of 2)
        real = pstlab.bounds._audit_rows

        def inverted(diagonal, couplings, lam, t0):
            rows = real(diagonal, couplings, lam, t0)
            rows["ratio"] = 0.9 / rows["ratio"]
            return rows

        monkeypatch.setattr(pstlab.bounds, "_audit_rows", inverted)
        for n, samples, cap, seed in cases:
            report = falsify_search(n, samples, cap, seed)
            assert 0 < len(report.violations) <= samples
            for record in report.violations:
                assert record["report"]["ratio"] < 1.0 - RATIO_SLACK
                check(record, cap)
            check(report.witness, cap)

    def test_witness_t0_is_the_lattice_time(self):
        for n, cap, seed in ((2, 9, 0), (5, 9, 1), (7, 2001, 2), (9, 99, 3)):
            witness = falsify_search(n, 40, cap, seed).witness
            assert witness["report"]["t0"] == math.pi / math.gcd(*witness["multipliers"])

    def test_failing_sample_is_isolated(self, monkeypatch):
        # put a second eigenvalue in the clean run's witness sample's top
        # window, in the block's Sturm counts; that sample alone fails, the
        # rest are unchanged
        n, samples, cap, seed = 5, 60, 9, 4
        mults = draw_multipliers(np.random.default_rng(seed), n, cap, count=samples)
        bad = falsify_search(n, samples, cap, seed).min_ratio_index
        real = pstlab.bounds._sturm_counts_rows

        def tied(diagonal, couplings, shifts):
            counts = real(diagonal, couplings, shifts)
            if len(counts) == samples:
                counts[bad, n] += 1
            return counts

        monkeypatch.setattr(pstlab.bounds, "_sturm_counts_rows", tied)
        report = falsify_search(n, samples, cap, seed)
        assert report.failures == ((bad, "spectrum leaves the windows of its drawn lattice"),)
        assert report.evaluated == samples - 1
        assert report.min_ratio_index != bad
        assert report.witness["index"] != bad

        monkeypatch.setattr(pstlab.bounds, "_sturm_counts_rows", real)
        monkeypatch.setattr(pstlab.bounds, "draw_multipliers",
                            lambda *args, **kw: np.delete(mults, bad, axis=0))
        rest = falsify_search(n, samples - 1, cap, seed)
        for key in ("min_ratio", "lambda_min_violations", "min_final_slack",
                    "substitution_gap_negatives", "min_substitution_gap",
                    "violations"):
            assert getattr(report, key) == getattr(rest, key), key
        shifted = rest.min_ratio_index + (rest.min_ratio_index >= bad)
        assert report.min_ratio_index == shifted

    @pytest.mark.parametrize("shift, audited", [(3.0, 0), (0.25, 30)])
    def test_a_spectrum_off_its_lattice_fails(self, shift, audited, monkeypatch):
        # every field moved by shift * r, r = PHASE_TOL / (4 t0), moves every
        # eigenvalue as far from its lattice point, out of its window at 3r
        real = pstlab.bounds._synthesize_rows

        def moved(lam):
            diagonal, couplings, errors = real(lam)
            unit = np.gcd.reduce(np.rint(-np.diff(lam, axis=1)).astype(np.int64), axis=1)
            return diagonal + shift * PHASE_TOL * unit[:, None] / (4.0 * math.pi), couplings, errors

        monkeypatch.setattr(pstlab.bounds, "_synthesize_rows", moved)
        report = falsify_search(6, 30, 9, 0)
        assert report.evaluated == audited
        assert report.failures == tuple(
            (i, "spectrum leaves the windows of its drawn lattice") for i in range(30 - audited))

    def test_search_solves_no_spectrum(self, monkeypatch):
        # the search checks the drawn lattice by counts; it runs neither the
        # eigensolve nor the unit search of certify
        def forbidden(*args, **kw):
            raise AssertionError("called")

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf", forbidden)
        monkeypatch.setattr(pstlab.pst, "_minimal_unit", forbidden)
        for n in (2, 5, 8):
            assert falsify_search(n, 50, 9, n).evaluated == 50

    def test_witness_is_reloadable(self):
        report = falsify_search(3, 50, 5, seed=1)
        witness = report.witness
        assert set(witness) == {"index", "multipliers", "unit", "chain", "report"}
        chain = ChainSpec.from_dict(witness["chain"])
        rebuilt, _ = audit_chain(chain)
        assert rebuilt.ratio == pytest.approx(witness["report"]["ratio"], rel=1e-12)

    def test_two_site_searches_always_saturate(self):
        # a single gap always re-certifies to multiplier 1, so the product
        # sits exactly on the bound
        report = falsify_search(2, 200, 9, seed=2)
        assert report.min_ratio == pytest.approx(1.0, abs=1e-12)

    def test_search_certifies_at_its_draw_cap(self):
        # the search checks each chain against the lattice it drew, so draws
        # up to 2001 are all audited, whatever certify's default cap
        report = falsify_search(4, 200, 2001, 0)
        assert report.max_multiplier == 2001
        assert report.evaluated == 200
        assert report.failures == ()

    @pytest.mark.parametrize("n", [448, 510])
    def test_large_chains_are_audited(self, n):
        # the lattice check reaches the largest N of a search; certification
        # of the solved spectrum at GAP_REL_TOL audited 0 and 1 of 8 here.
        # The check proves each audited spectrum, so synthesis does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = falsify_search(n, 8, 9, 0)
        assert report.evaluated == 8 and report.failures == ()

    @pytest.mark.parametrize("n", [3, 6])
    def test_large_caps_are_audited(self, n):
        # multipliers up to 10^5 + 1: the phase check of a unit fitted to the
        # smallest gap lost 67 and 74 of these 200 samples
        report = falsify_search(n, 200, 100001, 0)
        assert report.evaluated == 200 and report.failures == ()

    def test_a_lattice_beyond_the_counts_precision_fails_with_its_reason(self):
        # at multipliers near 2^31 the counts' error bound, about
        # eps (2.5 J_max + max|x|), exceeds the window PHASE_TOL / (4 t0)
        report = falsify_search(3, 20, MAX_CAP, 0)
        assert report.evaluated == 0
        assert {message for _, message in report.failures} == {
            "the Sturm counts' error bound reaches the lattice window"}

    def test_validates_samples(self):
        with pytest.raises(ValueError, match="samples"):
            falsify_search(4, 0, 9, seed=0)

    def test_validates_n_sites(self):
        # the limit is the largest N whose one sample fits a block
        assert _block_rows(MAX_SEARCH_SITES) >= 1
        assert _block_rows(MAX_SEARCH_SITES + 1) == 0
        for n in (1, MAX_SEARCH_SITES + 1):
            with pytest.raises(ValueError, match=f"2..{MAX_SEARCH_SITES}"):
                falsify_search(n, 1, 9, seed=0)

    def test_validates_cap(self):
        with pytest.raises(ValueError, match=str(MAX_CAP)):
            falsify_search(4, 3, 2**64 + 1, 0)
        with pytest.raises(ValueError, match="odd"):
            falsify_search(4, 3, 10, 0)

    def test_report_dict_shape(self):
        d = falsify_search(3, 20, 5, seed=9).to_dict()
        for key in (
            "N", "samples", "max_multiplier", "unit", "seed", "evaluated",
            "min_ratio", "min_ratio_index", "witness", "lambda_min_violations",
            "min_final_slack", "substitution_gap_negatives",
            "min_substitution_gap", "violations", "failures",
        ):
            assert key in d
        assert d["N"] == 3
        assert d["samples"] == 20


class TestBatchedCore:
    """The block path of falsify_search against one-sample references."""

    def test_rows_match_the_per_sample_reference(self):
        rng = np.random.default_rng(11)
        count = 30
        for n in range(2, 17):
            mults = draw_multipliers(rng, n, 9, count=count)
            tails = np.cumsum(rng.uniform(1.0, 100.0, (count, n - 1))[:, ::-1], axis=1)
            raw = np.concatenate([tails[:, ::-1], np.zeros((count, 1))], axis=1)
            raw *= rng.uniform(0.05, 5.0, (count, 1))
            for lam in (_expand_rows(1.0, mults), raw):
                diagonal, couplings, errors = _synthesize_rows(lam)
                assert errors == [None] * count
                for row in range(count):
                    ref_b, ref_j = lanczos_chain(lam[row])
                    tol = 1e-12 * (lam[row, 0] - lam[row, -1])
                    assert np.abs(diagonal[row] - ref_b).max() <= tol
                    assert np.abs(couplings[row] - ref_j).max() <= tol

            index, diagonal, couplings, audit, failed = _audit_block(mults, 0)
            assert failed == [] and index.tolist() == list(range(count))
            u = math.pi / audit["t0"]
            for row in range(count):
                chain = synthesize(SpectrumSpec(unit=1.0, multipliers=mults[row]))
                assert np.array_equal(diagonal[row], chain.diagonal)
                assert np.array_equal(couplings[row], chain.couplings)
                report, single = audit_chain(chain)
                assert audit["ratio"][row] == pytest.approx(report.ratio, rel=1e-12, abs=0)
                if n % 2 == 0:
                    assert audit["substitution_gap"] is None
                    continue
                gap = audit["substitution_gap"][row]
                assert abs(gap - single.substitution_gap) <= 1e-9 * u[row] ** 2
                if abs(gap) > SUBSTITUTION_GAP_SLACK * u[row] ** 2:
                    assert (gap < 0) == (exact_substitution_gap(mults[row]) < 0)

    def test_block_draws_equal_one_batch(self):
        # falsify_search draws each block from the one generator; the
        # corpus must be the one-batch draw, partial last blocks included
        samples = 230
        for n in (2, 3, 5, 9, 17):
            for cap in (1, 9, 2001, MAX_CAP):
                for seed in range(3):
                    whole = draw_multipliers(np.random.default_rng(seed), n, cap, count=samples)
                    for block in (1, 3, 7, 100):
                        rng = np.random.default_rng(seed)
                        parts = [draw_multipliers(rng, n, cap, count=min(block, samples - start))
                                 for start in range(0, samples, block)]
                        assert np.array_equal(np.concatenate(parts), whole), (n, cap, seed, block)

    def test_block_working_set_stays_under_budget(self):
        samples, n = 4000, 64
        tracemalloc.start()
        try:
            falsify_search(n, samples, 9, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a per-sample (N, N) basis for all samples alone would be 131 MB;
        # the multipliers are drawn a block at a time, so the draw is inside
        assert peak < BLOCK_BYTES
