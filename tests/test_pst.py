"""Certification, fidelity evolution, and peak location."""
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eigenvector_transfer_terms,
    expm_fidelity,
    first_peak_time,
    minimal_odd_unit,
    random_mirror_arrays,
    slope_brackets,
    slope_root,
    spectral_fidelity,
    spectral_slope,
)

from pstlab import (
    ChainSpec,
    FidelityTrace,
    NumericalBreakdown,
    SpectrumSpec,
    canonical_chain,
    certify,
    classify_parity,
    decompose,
    evolve_fidelity,
    first_perfect_time,
    synthesize,
)
from pstlab import pst
from pstlab.chain import SYMMETRY_TOL, _alternating_signs

HALF_PI = math.pi / 2.0


def odd_multiplier_lists():
    return st.lists(st.sampled_from([1, 3, 5, 7, 9]), min_size=1, max_size=7)


class TestCertify:
    def test_canonical_even_chain(self):
        cert = certify(canonical_chain(4))
        assert cert.admissible
        assert cert.failure is None
        assert cert.t0 == pytest.approx(HALF_PI, rel=1e-12)
        assert cert.phi == pytest.approx(HALF_PI, rel=1e-12)
        np.testing.assert_array_equal(cert.multipliers, [1, 1, 1])
        assert cert.max_residual < 1e-12
        assert math.pi / cert.t0 == pytest.approx(2.0, rel=1e-12)

    def test_canonical_odd_chain_phase(self):
        # lambda_1 = 2 at t0 = pi/2 lands the phase on the branch cut
        cert = certify(canonical_chain(3))
        assert cert.t0 == pytest.approx(HALF_PI, rel=1e-12)
        assert cert.phi == pytest.approx(math.pi)

    def test_asymmetric_chain_fails(self):
        cert = certify(ChainSpec(diagonal=[0.0, 0.0, 0.0], couplings=[1.0, 2.0]))
        assert not cert.admissible
        assert cert.failure == "asymmetry"
        assert cert.t0 is None and cert.phi is None
        assert cert.multipliers is None

    def test_incommensurate_gaps_fail(self):
        # symmetric, but the two gaps have an irrational ratio
        cert = certify(ChainSpec(diagonal=[0.5, 0.0, 0.5], couplings=[1.0, 1.0]))
        assert not cert.admissible
        assert cert.failure == "no-common-odd-unit"

    def test_even_gap_ratio_fails(self):
        # gaps (1, 2): the second multiplier is even for every unit
        cert = certify(synthesize(np.array([1.5, 0.5, -1.5])))
        assert not cert.admissible
        assert cert.failure == "no-common-odd-unit"

    def test_multiplier_overflow(self):
        # the cap bounds only the m of the unit g_min/m: gaps (1, 101) fit at
        # m = 1 and certify at cap 99 with a multiplier beyond it, while gaps
        # (101, 103) need m = 101 and certify only once the cap reaches it
        lam = np.array([102.0, 101.0, 0.0])
        cert = certify(synthesize(lam - lam.mean()), max_multiplier=99)
        assert cert.admissible
        np.testing.assert_array_equal(cert.multipliers, [1, 101])
        lam = np.array([204.0, 103.0, 0.0])
        chain = synthesize(lam - lam.mean())
        assert certify(chain, max_multiplier=99).failure == "no-common-odd-unit"
        cert = certify(chain)
        assert cert.admissible
        np.testing.assert_array_equal(cert.multipliers, [101, 103])
        assert cert.t0 == pytest.approx(math.pi, rel=1e-12)
        # the smallest gap 1023 needs m = 1023, beyond the default cap
        chain = synthesize(SpectrumSpec(unit=1.0, multipliers=[1703, 1275, 1023]))
        assert certify(chain).failure == "no-common-odd-unit"
        assert certify(chain, max_multiplier=1023).admissible
        # and a multiplier above the default cap certifies at it
        cert = certify(synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 1001, 1])))
        np.testing.assert_array_equal(cert.multipliers, [1, 1001, 1])
        assert cert.t0 == pytest.approx(math.pi, rel=1e-12)

    def test_rejects_even_cap(self):
        with pytest.raises(ValueError, match="odd"):
            certify(canonical_chain(3), max_multiplier=10)
        with pytest.raises(ValueError, match=str(pst.MAX_CAP)):
            certify(canonical_chain(3), max_multiplier=10**30 + 1)

    def test_accumulated_phase_is_enforced(self):
        # each gap individually passes the 1e-9 relative test, but the
        # accumulated phase error at t0 is ~2.5e-6 and must be rejected
        g2 = 999.0 * (1.0 + 8e-10)
        lam = np.array([1.0 + g2, g2, 0.0])
        chain = synthesize(lam - lam.mean())
        strict = certify(chain)
        assert not strict.admissible
        assert strict.failure == "no-common-odd-unit"
        # the per-gap test passes, so the rejection is the phase check's
        gaps = -np.diff(pst.eigenvalues_only(chain))
        unit, mult, _ = pst._minimal_unit(gaps, 999)
        assert not np.isnan(unit)
        np.testing.assert_array_equal(mult, [1, 999])

    @settings(deadline=None, max_examples=60)
    @given(odd_multiplier_lists(), st.floats(0.5, 2.0))
    def test_multipliers_reduce_by_common_odd_factor(self, mult, unit):
        # drawn multipliers with gcd g certify as mult/g at unit g*u: the
        # minimal transfer time divides out any common odd factor
        chain = synthesize(SpectrumSpec(unit=unit, multipliers=mult))
        cert = certify(chain)
        assert cert.admissible
        g = int(np.gcd.reduce(np.asarray(mult)))
        np.testing.assert_array_equal(cert.multipliers,
                                      np.asarray(mult) // g)
        assert cert.t0 * unit * g == pytest.approx(math.pi, rel=1e-9)

    def test_to_dict(self):
        d = certify(canonical_chain(2)).to_dict()
        assert d["admissible"] is True
        assert d["t0"] == pytest.approx(HALF_PI)
        assert d["multipliers"] == [1]
        assert d["failure"] is None


@st.composite
def unit_search_rows(draw):
    """(gaps (S, N-1), cap).  A row's smallest multiplier is an odd base,
    composite for some rows so that its ratios reduce to several
    denominators; the others are odd, drawn up to 9, 99 or 3 cap + 2 above
    it (past the cap, which bounds only the smallest), all times a common odd
    factor and a unit.  A row may carry relative noise just below or just
    above GAP_REL_TOL on its gaps above the smallest, a gap broken by
    sqrt(2), or an even multiplier (an even numerator, or an even lcm where
    it is the smallest).  Irrational ratios stay below
    1 / (2 GAP_REL_TOL cap^2) and rational numerators below
    1 / (2 GAP_REL_TOL cap), where the scan and the convergents agree."""
    cap = draw(st.sampled_from([1, 3, 9, 999]))
    width = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.sampled_from([9, 99, 3 * cap + 2]))
        base = draw(st.sampled_from([1, 3, 5, 15, 21, 105]))
        k = base + 2 * np.array(draw(st.lists(st.integers(0, top // 2),
                                              min_size=width, max_size=width)))
        k[draw(st.integers(0, width - 1))] = base
        kind = draw(st.sampled_from(["exact", "below", "above", "sqrt2", "even"]))
        if kind == "even":
            k[draw(st.integers(0, width - 1))] = 2 * draw(st.integers(1, top // 2 + 1))
        g = k * draw(st.sampled_from([1, 3, 15])) * draw(st.floats(0.1, 10.0))
        above = np.flatnonzero(k > k.min())
        if above.size and kind in ("below", "above"):
            scale = 0.9 if kind == "below" else 1.1
            signs = draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                  min_size=above.size, max_size=above.size))
            g[above] *= 1.0 + np.array(signs) * scale * pst.GAP_REL_TOL
        if above.size and kind == "sqrt2" and top <= 99:
            g[draw(st.sampled_from(above.tolist()))] *= math.sqrt(2.0)
        rows.append(g)
    return np.array(rows), cap


def _assert_scan_agrees(gaps, cap):
    """Each row of `gaps` through _minimal_unit against the scan; the units,
    one per row."""
    units = []
    for g in gaps:
        unit, mult, resid = pst._minimal_unit(g, cap)
        ref = minimal_odd_unit(g, cap, pst.GAP_REL_TOL)
        np.testing.assert_array_equal(unit, ref[0])
        np.testing.assert_array_equal(mult, ref[1])
        np.testing.assert_array_equal(resid, ref[2])
        units.append(unit)
    return np.array(units)


class TestMinimalUnit:
    """The continued-fraction unit search against a scan of every odd m."""

    @settings(deadline=None, max_examples=200)
    @given(unit_search_rows())
    def test_matches_odd_scan(self, case):
        _assert_scan_agrees(*case)

    def test_lcm_of_distinct_denominators(self):
        # ratios 7/5 and 5/3: the unit is g_min/15, a denominator of neither
        unit = _assert_scan_agrees(np.array([[15.0, 21.0, 25.0]]), 999)
        assert unit[0] == 1.0

    def test_even_lcm(self):
        # ratios 3/2 and 5/2: no odd m makes them integers
        unit = _assert_scan_agrees(np.array([[2.0, 3.0, 5.0]]), 999)
        assert np.isnan(unit[0])

    def test_lcm_beyond_int64(self):
        # ratios (p + 2)/p for eight primes near 999: their lcm wraps in int64
        primes = [997, 991, 983, 977, 971, 967, 953, 947]
        assert math.lcm(*primes) > 2**63
        assert np.lcm.reduce(np.array(primes)) != math.lcm(*primes)
        gaps = np.array([[1.0] + [(p + 2) / p for p in primes]])
        unit = _assert_scan_agrees(gaps, 999)
        assert np.isnan(unit[0])

    @pytest.mark.parametrize("gaps, fits", [
        ([1.0, 2.0**53 - 3], True),
        ([1.0, 2.0**53 - 1], False),
        ([1.0, 2.0**52 + 1, 2.0**52 + 1], False),
    ], ids=["sum-below", "sum-at", "several-gaps"])
    def test_multipliers_sum_below_2_53(self, gaps, fits):
        # every multiplier is odd and exact, but a sum of 2^53 or more would
        # not be exact in the lattice's float tail sums: no unit fits
        unit, mult, _ = pst._minimal_unit(np.array(gaps), 999)
        assert np.isnan(unit) != fits
        assert mult.sum() == (sum(int(g) for g in gaps) if fits else 0)

    def test_memory_does_not_scale_with_cap(self):
        # an array of the 500,001 odd candidates alone would take 4 MB
        chain = canonical_chain(64)
        tracemalloc.start()
        try:
            cert = certify(chain, max_multiplier=10**6 + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.t0 == pytest.approx(HALF_PI, rel=1e-12)
        assert peak < 2**20


class TestFidelityTrace:
    def test_validates_shapes(self):
        with pytest.raises(ValueError, match="matching"):
            FidelityTrace(times=np.zeros(3), fidelity=np.zeros(4))

    def test_validates_range(self):
        with pytest.raises(ValueError, match="fidelity"):
            FidelityTrace(times=np.array([0.0]), fidelity=np.array([1.1]))
        with pytest.raises(ValueError, match="fidelity"):
            FidelityTrace(times=np.array([0.0]), fidelity=np.array([-0.1]))
        with pytest.raises(ValueError, match="fidelity"):
            FidelityTrace(times=np.array([0.0, 1.0]), fidelity=np.array([0.5, np.nan]))

    def test_csv_format(self):
        trace = FidelityTrace(times=np.array([0.0, 0.5]),
                              fidelity=np.array([0.0, 0.25]))
        text = trace.to_csv(footer="note")
        lines = text.splitlines()
        assert lines[0] == "time,fidelity"
        assert lines[1] == "0,0"
        assert lines[2] == "0.5,0.25"
        assert lines[3] == "# note"
        assert text.endswith("\n")


class TestEvolveFidelity:
    def test_canonical_three_site_values(self):
        c = canonical_chain(3)
        trace = evolve_fidelity(c, [HALF_PI / 2.0, HALF_PI])
        assert trace.fidelity[0] == pytest.approx(0.5, abs=1e-12)
        assert trace.fidelity[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_exponential_symmetric(self):
        rng = np.random.default_rng(21)
        times = [0.3, 0.7, 1.9, 4.2]
        for _ in range(8):
            n = int(rng.integers(2, 10))
            b, j = random_mirror_arrays(rng, n)
            c = ChainSpec(diagonal=b, couplings=j)
            trace = evolve_fidelity(c, times)
            np.testing.assert_allclose(trace.fidelity,
                                       expm_fidelity(b, j, times), atol=1e-10)

    def test_matches_matrix_exponential_asymmetric(self):
        rng = np.random.default_rng(22)
        times = [0.5, 1.5, 3.0]
        for _ in range(8):
            n = int(rng.integers(2, 10))
            b = rng.uniform(-3.0, 3.0, n)
            j = rng.uniform(0.2, 5.0, n - 1)
            c = ChainSpec(diagonal=b, couplings=j)
            trace = evolve_fidelity(c, times)
            np.testing.assert_allclose(trace.fidelity,
                                       expm_fidelity(b, j, times), atol=1e-10)

    def test_scalar_time(self):
        trace = evolve_fidelity(canonical_chain(2), HALF_PI)
        assert trace.fidelity.shape == (1,)
        assert trace.fidelity[0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            evolve_fidelity(canonical_chain(2), np.zeros((2, 2)))
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                evolve_fidelity(canonical_chain(2), [0.5, bad])

    def test_matches_the_one_exp_per_time_sum_bit_for_bit(self):
        # the kernel factors e^{-i lambda t} over blocks of the scan grid;
        # at its default offset 0 the factor is exactly 1 + 0j
        rng = np.random.default_rng(25)
        times = np.linspace(0.0, 30.0, 3001)
        chains = [canonical_chain(7), next(_certified_chains())[0],
                  ChainSpec(diagonal=rng.uniform(-1.0, 1.0, 6),
                            couplings=rng.uniform(0.5, 2.0, 5))]
        for chain in chains:
            lam, coeff = pst._transfer_terms(chain)
            want = spectral_fidelity(lam, coeff)(times[:, None])
            assert np.array_equal(evolve_fidelity(chain, times).fidelity, want)

    def test_tiny_chain_needs_no_overflowing_step(self):
        # the spectral width 2e-310 is subnormal: the weight bound and the
        # grid's step count stay finite, so no RuntimeWarning is raised
        chain = ChainSpec.from_dict({"N": 2, "J": [1e-310]})
        assert evolve_fidelity(chain, [1.0]).fidelity[0] == pytest.approx(1e-310, rel=1e-9, abs=0)
        assert first_perfect_time(chain, horizon=1.0) is None

    def test_certified_chains_reach_unity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            mult = rng.integers(0, 5, size=n - 1) * 2 + 1
            chain = synthesize(SpectrumSpec(unit=1.0, multipliers=mult))
            cert = certify(chain)
            assert cert.admissible
            f = evolve_fidelity(chain, [cert.t0]).fidelity[0]
            assert f >= 1.0 - 1e-9


# chains whose magnitudes pass double precision on the way to a fidelity
WIDE = {"N": 2, "B": [1e150, 1e150], "J": [1.7e308]}  # the spectral width overflows
FAR = {"N": 3, "B": [1e-20, 1.7e308, 1e200], "J": [1.0, 1e-200]}  # a finite width; lambda t overflows


class TestOverflowIsTyped:
    """Both chains raise NumericalBreakdown, not an untyped error.  numpy
    warns of the overflow on the way; the tests silence that warning."""

    @pytest.mark.parametrize("data", [WIDE, FAR], ids=["wide", "far"])
    def test_evolve(self, data):
        chain = ChainSpec.from_dict(data)
        with np.errstate(all="ignore"), pytest.raises(NumericalBreakdown, match="not finite"):
            evolve_fidelity(chain, np.linspace(0.0, 3.0, 5))

    def test_default_horizon(self):
        # the overflowed gap leaves a default horizon of 4 pi / inf = 0
        with np.errstate(all="ignore"), pytest.raises(NumericalBreakdown, match="default horizon"):
            first_perfect_time(ChainSpec.from_dict(WIDE))

    @pytest.mark.parametrize("data, horizon", [(WIDE, 1.0), (FAR, None), (FAR, 1.0)],
                             ids=["wide-given", "far-default", "far-given"])
    def test_sample_count(self, data, horizon):
        chain = ChainSpec.from_dict(data)
        with np.errstate(all="ignore"), pytest.raises(NumericalBreakdown, match="sample count"):
            first_perfect_time(chain, horizon=horizon)

    def test_a_finite_grid_beyond_the_limit_is_refused_at_once(self):
        # the default horizon 4 pi / 1e-310 times the width 1e300 asks for
        # about 3e301 samples, which the scan would take practically forever on
        chain = ChainSpec(diagonal=[1e-20, 1e-310, 0, 0], couplings=[1, 1e-310, 1e300])
        start = time.perf_counter()
        with pytest.raises(
                NumericalBreakdown, match=r"sample count .* = 3.2e\+301 exceeds MAX_GRID_SAMPLES"):
            first_perfect_time(chain)
        assert time.perf_counter() - start < 0.5
        # a given horizon whose grid is just above the limit (width 2, step pi / 16)
        horizon = 1.01 * pst.MAX_GRID_SAMPLES * math.pi / 16.0
        with pytest.raises(NumericalBreakdown, match="exceeds MAX_GRID_SAMPLES"):
            first_perfect_time(canonical_chain(2), horizon=horizon)

    def test_an_underflowing_coupling_raises_no_warning(self):
        # 1e-310 / 1e300 underflows to 0, whose log is -inf: the coefficients
        # are exactly 0 and the only error is the sample count, with no
        # RuntimeWarning under the suite's warnings-as-errors filter
        chain = ChainSpec(diagonal=[0.0] * 4, couplings=[1, 1e-310, 1e300])
        lam = pst.eigenvalues_only(chain)
        assert not pst._spectral_coefficients(lam, chain.couplings).any()
        with pytest.raises(NumericalBreakdown, match="sample count"):
            first_perfect_time(chain)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0])
    def test_a_given_horizon_stays_a_value_error(self, horizon):
        chain = ChainSpec.from_dict(FAR)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="horizon must be finite"):
            first_perfect_time(chain, horizon=horizon)


class TestFirstPerfectTime:
    def test_finds_canonical_transfer_time(self):
        for n in (2, 3, 5, 8, 16):
            t = first_perfect_time(canonical_chain(n))
            assert t == pytest.approx(HALF_PI, rel=1e-9)

    def test_returns_earliest_peak(self):
        # revivals repeat at odd multiples of t0; the first one must win
        t = first_perfect_time(canonical_chain(4), horizon=10.0 * HALF_PI)
        assert t == pytest.approx(HALF_PI, rel=1e-9)

    def test_none_when_threshold_unreachable(self):
        c = ChainSpec(diagonal=[0.0, 0.3, 0.0], couplings=[1.0, 1.4])
        assert first_perfect_time(c, horizon=40.0) is None

    def test_none_when_horizon_too_short(self):
        assert first_perfect_time(canonical_chain(3), horizon=1.0) is None

    def test_respects_threshold(self):
        c = ChainSpec(diagonal=[0.0, 0.3, 0.0], couplings=[1.0, 1.4])
        t = first_perfect_time(c, threshold=0.2, horizon=40.0)
        assert t is not None
        assert evolve_fidelity(c, [t]).fidelity[0] >= 0.2

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="threshold"):
            first_perfect_time(canonical_chain(2), threshold=1.5)
        with pytest.raises(ValueError, match="threshold"):
            first_perfect_time(canonical_chain(2), threshold=0.0)
        with pytest.raises(ValueError, match="horizon"):
            first_perfect_time(canonical_chain(2), horizon=-1.0)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                first_perfect_time(canonical_chain(2), horizon=horizon)

    def test_default_horizon_spans_the_smallest_gap(self):
        # gaps (1, 5): a horizon set by the largest gap, 4 pi / 5, ends
        # before t0 = pi
        t = first_perfect_time(synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 5])))
        assert t == pytest.approx(math.pi, rel=1e-10)

    @pytest.mark.parametrize("mult", [(5, 7, 5), (7, 5, 7, 5), (5, 9, 9, 5)])
    def test_default_horizon_of_a_certified_chain_is_t0(self, mult, monkeypatch):
        # every multiplier >= 5: 4 pi / g_min = 4 t0 / m_min ends before
        # t0 = pi, and the smallest-gap horizon returned None.  The default
        # certifies from the spectrum the fidelity uses, with no second solve
        chain = synthesize(SpectrumSpec(unit=1.0, multipliers=mult))
        calls, real = [], scipy.linalg.lapack.dsterf
        monkeypatch.setattr(scipy.linalg.lapack, "dsterf",
                            lambda d, e: calls.append(d.size) or real(d, e))
        monkeypatch.setattr(pst, "decompose", None)
        assert first_perfect_time(chain) == pytest.approx(math.pi, rel=1e-10)
        assert calls == [chain.n_sites]

    def test_working_set_stays_under_budget(self):
        # N = 20, widths 1, 99, ..., 99, 1: the horizon 4 pi has
        # 32 * 1685 = 53,920 samples, whose (T, N) complex phases alone
        # would take 17 MB in one piece
        chain = synthesize(SpectrumSpec(unit=1.0, multipliers=[1] + [99] * 17 + [1]))
        times = np.linspace(0.0, 8.0 * math.pi, 200_000)
        tracemalloc.start()
        try:
            t = first_perfect_time(chain, horizon=4.0 * math.pi)
            _, scan_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            trace = evolve_fidelity(chain, times)
            _, evolve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t == pytest.approx(math.pi, rel=1e-10)
        assert scan_peak < pst.FIDELITY_BYTES
        assert evolve_peak - trace.fidelity.nbytes < pst.FIDELITY_BYTES


def _reference(chain, threshold, horizon):
    """first_perfect_time by the whole-grid, brentq-per-bracket oracle."""
    lam, coeff = pst._transfer_terms(chain)
    return first_peak_time(lam, coeff, threshold, horizon)


def _certified_chains():
    """One synthesized chain per N in 2..16, odd multipliers up to 9, with
    its transfer time."""
    rng = np.random.default_rng(24)
    for n in range(2, 17):
        mult = rng.integers(0, 5, size=n - 1) * 2 + 1
        chain = synthesize(SpectrumSpec(unit=float(rng.uniform(0.5, 2.0)),
                                        multipliers=mult))
        yield chain, certify(chain).t0


def _same_time(a, b):
    return (a is None) == (b is None) and (
        a is None or a == pytest.approx(b, rel=1e-10)
    )


class TestBatchedRefinement:
    """The chunked scan and the batched refinement against the scalar
    reference in oracles.py."""

    def test_disordered_chains_match_the_reference(self, disorder_corpus, monkeypatch):
        scans, real = [], pst._grid_scan
        monkeypatch.setattr(pst, "_grid_scan", lambda *args: scans.append(1) or real(*args))
        scanned = 0
        for k, (_, cert, perturbed) in enumerate(disorder_corpus):
            # criterion 7's threshold: the global ceiling sum |c_n| decides
            # most copies and the scan finds no hit on the rest; 0.9 stops at
            # a peak below 1
            for threshold in (1.0 - 1e-3, 0.9) if k % 5 == 0 else (1.0 - 1e-3,):
                scans.clear()
                got = first_perfect_time(perturbed, threshold=threshold,
                                         horizon=20.0 * cert.t0)
                want = _reference(perturbed, threshold, 20.0 * cert.t0)
                assert _same_time(got, want), (threshold, got, want)
                scanned += threshold == 1.0 - 1e-3 and bool(scans)
        assert scanned >= 1  # the scan itself still meets criterion 7's threshold

    def test_certified_chains_match_the_reference(self):
        for chain, t0 in _certified_chains():
            for threshold, horizon in ((1.0 - 1e-8, 3.0 * t0), (0.5, 0.9 * t0)):
                # the second horizon ends on the rising flank, so the hit
                # is the horizon itself, or an earlier peak above 0.5 (the
                # fourth chain's near 0.829, see TestPeakRegressions)
                got = first_perfect_time(chain, threshold=threshold, horizon=horizon)
                want = _reference(chain, threshold, horizon)
                assert _same_time(got, want), (threshold, got, want)
            assert first_perfect_time(chain, horizon=3.0 * t0) == pytest.approx(
                t0, rel=1e-9)

    def test_edge_brackets_match_the_reference(self):
        # every fall of the slope on a 40-sample grid, plus [0, t1] for a
        # grid whose first sample t1 is the first fall's right end
        for chain, t0 in _certified_chains():
            lam, coeff = pst._transfer_terms(chain)
            slope = spectral_slope(lam, coeff)
            a, b = slope_brackets(slope, np.linspace(t0 / 40.0, 1.3 * t0, 40))
            a, b = np.append(a, 0.0), np.append(b, b[0])
            t, ft = pst._refine_peaks(lam, coeff, a, b)
            fidelity = spectral_fidelity(lam, coeff)
            for k in range(a.size):
                want_t = slope_root(slope, float(a[k]), float(b[k]))
                assert t[k] == pytest.approx(want_t, rel=1e-10)
                assert ft[k] == pytest.approx(float(fidelity(want_t)), rel=1e-10)

    def test_peak_ceilings_bound_every_peak(self, disorder_corpus):
        # every fall of h on the scan's grid, its peak by the oracle root:
        # f^2 there stays under the ceiling made from f^2 at the ends, so a
        # bracket pruned at a threshold holds no peak that reaches it
        cases = [(chain, 3.0 * t0) for chain, t0 in _certified_chains()]
        cases += [(chain, 20.0 * cert.t0) for _, cert, chain in disorder_corpus]
        pruned = dict.fromkeys((0.5, 0.9, 1.0 - 1e-3), 0)
        for chain, horizon in cases:
            lam, coeff = pst._transfer_terms(chain)
            slope, fidelity = spectral_slope(lam, coeff), spectral_fidelity(lam, coeff)
            n_steps = math.ceil(horizon / (math.pi / (8.0 * (lam[0] - lam[-1]))))
            a, b = slope_brackets(slope, np.linspace(horizon / n_steps, horizon, n_steps))
            peak = np.array([slope_root(slope, x, y) for x, y in zip(a, b)])
            f_peak = fidelity(peak[:, None])
            ceiling = pst._peak_ceilings(lam, coeff, a, b, fidelity(a[:, None]) ** 2,
                                         fidelity(b[:, None]) ** 2)
            assert (f_peak**2 <= ceiling).all()
            for threshold in pruned:
                skip = ceiling < threshold**2
                assert (f_peak[skip] < threshold).all()
                pruned[threshold] += skip.sum()
        assert all(pruned.values())

    def test_chunk_boundaries_do_not_move_the_answer(self, disorder_corpus, monkeypatch):
        # a chunk boundary on every sample around the peak at t0 (index 31
        # of 48), then many chunks on longer grids
        chain = canonical_chain(5)
        t0 = certify(chain).t0
        one_chunk = first_perfect_time(chain, horizon=1.5 * t0)
        for rows in range(2, 36):
            monkeypatch.setattr(pst, "_chunk_rows", lambda n: rows)
            assert first_perfect_time(chain, horizon=1.5 * t0) == one_chunk
        cases = [(c, 1.0 - 1e-8, 3.0 * t0) for c, t0 in _certified_chains()]
        cases += [(p, 0.9, 20.0 * cert.t0) for _, cert, p in disorder_corpus[:4]]
        times = np.linspace(0.0, 50.0, 5000)
        monkeypatch.undo()
        whole = [first_perfect_time(c, threshold=f, horizon=h) for c, f, h in cases]
        traces = [evolve_fidelity(c, times).fidelity for c, _, _ in cases]
        monkeypatch.setattr(pst, "FIDELITY_BYTES", 64 * 2**10)
        chunked = [first_perfect_time(c, threshold=f, horizon=h) for c, f, h in cases]
        assert all(_same_time(x, y) for x, y in zip(chunked, whole))
        assert any(x is not None for x in whole[-4:])
        for (c, _, _), trace in zip(cases, traces):
            np.testing.assert_allclose(evolve_fidelity(c, times).fidelity, trace,
                                       rtol=0, atol=1e-15)


class TestGlobalCeiling:
    """|z(t)| <= sum |c_n| at every t: below that ceiling first_perfect_time
    returns None without scanning, and with the answer the scan would give."""

    # sum |c_n| = 0.8, reached at t = pi / sqrt(5), where all three phases align
    ASYMMETRIC = ChainSpec(diagonal=[0.0, 0.0, 0.0], couplings=[1.0, 2.0])

    def test_chains_below_the_ceiling_are_not_scanned(self, disorder_corpus, monkeypatch):
        threshold = 1.0 - 1e-3
        below = [
            (cert, chain) for _, cert, chain in disorder_corpus
            if np.abs(pst._transfer_terms(chain)[1]).sum() < threshold
        ]
        assert len(below) == 46

        def scan(*args):
            raise AssertionError("scanned a chain below the ceiling")

        monkeypatch.setattr(pst, "_grid_scan", scan)
        for cert, chain in below:
            assert first_perfect_time(chain, threshold=threshold, horizon=20.0 * cert.t0) is None

    def test_thresholds_at_the_ceiling_match_the_reference(self, disorder_corpus):
        cases = [(self.ASYMMETRIC, 10.0)]
        cases += [(chain, 20.0 * cert.t0) for _, cert, chain in disorder_corpus[::10]]
        for chain, horizon in cases:
            ceiling = np.abs(pst._transfer_terms(chain)[1]).sum()
            for threshold in (ceiling * (1.0 - 1e-9), ceiling * (1.0 + 1e-9)):
                got = first_perfect_time(chain, threshold=threshold, horizon=horizon)
                want = _reference(chain, threshold, horizon)
                assert _same_time(got, want), (threshold, got, want)
        assert first_perfect_time(self.ASYMMETRIC, threshold=0.8 * (1.0 - 1e-9),
                                  horizon=10.0) == pytest.approx(math.pi / math.sqrt(5.0))

    def test_bad_horizons_still_raise(self):
        for horizon in (-1.0, math.inf):
            with pytest.raises(ValueError, match="horizon"):
                first_perfect_time(self.ASYMMETRIC, horizon=horizon)


class TestGridScan:
    """The scan's matrix-product kernel against the per-row sums."""

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_matches_the_per_row_sums(self, n):
        # at the scan's own step, from sample 1000 on; Q = 1, B = 1, partial
        # last blocks and a chunk as large as the default's at N = 16.
        # h = Re(conj(z) z') and the amplitude z come back, and f^2 = |z|^2
        # is taken from z; f^2 within _peak_ceilings' slack
        # 64 N eps (1 + t max|lambda|), and h, with |z'| <= max|lambda|,
        # within max|lambda| times it
        rng = np.random.default_rng(n)
        chain = synthesize(SpectrumSpec(unit=float(rng.uniform(0.5, 2.0)),
                                        multipliers=rng.integers(0, 5, size=n - 1) * 2 + 1))
        lam, coeff = pst._transfer_terms(chain)
        spacing = math.pi / (8.0 * (lam[0] - lam[-1]))
        scale = np.abs(lam).max()
        for q, block, count in ((1, 9, 9), (7, 1, 7), (1, 1, 1), (5, 8, 37), (103, 104, 10_700)):
            offsets = np.arange(block) * spacing
            starts = (1000 + np.arange(q) * block) * spacing
            h, z = (v.ravel()[:count] for v in pst._grid_scan(lam, coeff, offsets)(starts))
            f2 = np.abs(z) ** 2
            times = np.add.outer(starts, offsets).ravel()[:count]
            want_h, want_f2 = pst._phase_sums(
                lam, coeff, times, 1, lambda z, dz: ((z.conj() * dz).real, np.abs(z) ** 2),
                np.empty((2, count)))
            slack = 64.0 * n * np.finfo(float).eps * (1.0 + times.max() * scale)
            assert np.abs(f2 - want_f2).max() <= slack
            assert np.abs(h - want_h).max() <= slack * scale


class TestPeakRegressions:
    """Peaks the scan by three-sample maxima and the golden-section
    refinement got wrong, and peaks the refinement was slow to end."""

    def test_peak_on_a_grid_sample_ends_at_once(self, monkeypatch):
        # horizon 2 t0 = pi puts t0 on sample 31 of 64, a bracket's end: the
        # Newton point kept leaving the open bracket, and bisection took 45
        # passes of the order-2 kernel to close it to 4 eps
        chain = canonical_chain(5)
        t0 = certify(chain).t0
        orders = []
        kernel = pst._phase_sums

        def counted(lam, coeff, starts, order, *args):
            orders.append(order)
            return kernel(lam, coeff, starts, order, *args)

        monkeypatch.setattr(pst, "_phase_sums", counted)
        assert first_perfect_time(chain, horizon=2.0 * t0) == pytest.approx(t0, rel=1e-15)
        assert orders.count(2) == 1

    def test_a_refined_row_does_not_depend_on_its_batch(self):
        # one batch of a bracket that ends on its root at b (the peak t0), one
        # with an interior root and one [0, t1]: each row has the bits of its
        # bracket refined alone, though alone the first ends after the end pass
        chain = canonical_chain(5)
        lam, coeff = pst._transfer_terms(chain)
        t0 = certify(chain).t0
        a = np.array([t0 - 0.1, 3.0 * t0 - 0.3, 0.0])
        b = np.array([t0, 3.0 * t0 + 0.1, t0 + 0.2])
        t, ft = pst._refine_peaks(lam, coeff, a, b)
        for k in range(a.size):
            t_k, ft_k = pst._refine_peaks(lam, coeff, a[k : k + 1], b[k : k + 1])
            assert (t[k].tobytes(), ft[k].tobytes()) == (t_k.tobytes(), ft_k.tobytes()), k
        assert t[0] == b[0] and a[1] < t[1] < b[1] and 0.0 < t[2] < b[2]

    def test_shoulder_peak_between_samples_is_found(self):
        # N = 5, multipliers (5, 9, 3, 1): f peaks at 0.8290 (f = 0.646338)
        # and dips at 0.8377 (f = 0.646331), both between samples of the
        # 0.0135 grid, whose values rise monotonically there; a
        # three-sample test saw no peak and returned the horizon, 1.01056
        chain, t0 = list(_certified_chains())[3]
        np.testing.assert_array_equal(certify(chain).multipliers, [5, 9, 3, 1])
        t = first_perfect_time(chain, threshold=0.5, horizon=0.9 * t0)
        assert t < 1.0105
        f_lo, f, f_hi = expm_fidelity(chain.diagonal, chain.couplings,
                                      [t - 1e-3, t, t + 1e-3])
        assert f >= 0.5
        assert f > f_lo and f > f_hi

    def test_sub_unit_peaks_land_on_the_root_of_the_slope(self, disorder_corpus):
        # the golden-section refinement missed these by 5.0e-13 and 1.1e-11
        mpmath = pytest.importorskip("mpmath")
        for k in (26, 33):
            _, cert, chain = disorder_corpus[k]
            t = first_perfect_time(chain, threshold=0.9, horizon=20.0 * cert.t0)
            n = chain.diagonal.size
            with mpmath.workdps(40):
                h = mpmath.zeros(n)
                for i in range(n):
                    h[i, i] = chain.diagonal[i]
                for i in range(n - 1):
                    h[i, i + 1] = h[i + 1, i] = chain.couplings[i]
                lam, vec = mpmath.eigsy(h)
                coeff = [vec[n - 1, m] * vec[0, m] for m in range(n)]

                def slope(x):
                    terms = [c * mpmath.expj(-e * x) for c, e in zip(coeff, lam)]
                    dz = sum(-1j * e * term for e, term in zip(lam, terms))
                    return mpmath.re(mpmath.conj(sum(terms)) * dz)

                root = mpmath.findroot(slope, mpmath.mpf(t))
                assert abs(t - root) <= 1e-13 * root, (k, t, root)


def _eigenvector_terms(chain):
    """The transfer terms by the eigenvector route: decompose, then the
    classified parity signs for a mirror-symmetric chain."""
    spectral = decompose(chain)
    if pst.is_mirror_symmetric(chain):
        spectral = classify_parity(spectral, chain)
    return eigenvector_transfer_terms(
        spectral.eigenvalues, spectral.eigenvectors, spectral.parity_signs
    )


def _nearly_symmetric(chain):
    """The chain with its first field moved by half the symmetry tolerance,
    at the scale is_mirror_symmetric measures against."""
    scale = max(np.abs(chain.diagonal).max(), chain.couplings.max(), 1.0)
    b = chain.diagonal.copy()
    b[0] += 0.5 * SYMMETRY_TOL * scale
    nearly = ChainSpec(diagonal=b, couplings=chain.couplings)
    assert nearly.diagonal[0] != nearly.diagonal[-1]
    assert pst.is_mirror_symmetric(nearly)
    return nearly


class TestSpectralRoute:
    """Symmetric chains take their fidelity weights from the spectrum alone;
    the eigenvector route (decompose + classify_parity) is the reference."""

    def test_coefficients_match_the_eigenvector_route(self, mirror_corpus):
        spectral = 0
        for chain in mirror_corpus:
            lam, coeff = pst._transfer_terms(chain)
            spectral += pst._spectral_coefficients(lam, chain.couplings) is not None
            ref_lam, ref_coeff = _eigenvector_terms(chain)
            np.testing.assert_allclose(lam, ref_lam, rtol=0,
                                       atol=1e-12 * np.abs(ref_lam).max())
            np.testing.assert_allclose(coeff, ref_coeff, rtol=0, atol=1e-12)
        # 100 of the 200 at this seed; the others hold near-degenerate pairs
        assert spectral >= 50

    def test_asymmetric_coefficients_match_the_eigenvector_route(self, disorder_corpus):
        # <N|n><n|1> = (-1)^{n+1} prod J / prod_{m != n} |lambda_n - lambda_m|
        # holds for any chain, so the broken copies need no eigenvectors
        for _, _, copy in disorder_corpus:
            assert not pst.is_mirror_symmetric(copy)
            lam = pst.eigenvalues_only(copy)
            coeff = pst._spectral_coefficients(lam, copy.couplings)
            assert coeff is not None
            ref_lam, ref_coeff = _eigenvector_terms(copy)
            np.testing.assert_allclose(lam, ref_lam, rtol=0, atol=1e-12 * np.abs(ref_lam).max())
            np.testing.assert_allclose(coeff, ref_coeff, rtol=0, atol=1e-12)

    def test_coefficients_keep_within_one_at_any_scale(self):
        # sum |c_n| <= 1 (Cauchy-Schwarz).  Summed at the couplings' own
        # scale, the logs at N = 1000 and scale 1e6 gave f(t0) = 1 - 3.7e-12,
        # and at N = 1400 they broke FidelityTrace's 1 + 1e-12
        chain = canonical_chain(1000)
        for scale in (1e-3, 1.0, 1e6):
            big = ChainSpec(diagonal=chain.diagonal * scale, couplings=chain.couplings * scale)
            _, coeff = pst._transfer_terms(big)
            assert np.abs(coeff).sum() <= 1.0 + 1e-14
            f = evolve_fidelity(big, [HALF_PI / scale]).fidelity[0]
            assert f == pytest.approx(1.0, abs=1e-13)

    def test_near_degenerate_pair_is_decomposed(self):
        # a weak central coupling splits mirror pairs by about 1e-9: the
        # spectral weights miss by 6e-8, past WEIGHT_TOL, so the chain
        # takes the eigenvector route
        chain = ChainSpec(diagonal=np.zeros(8), couplings=[1.0, 2.0, 1.0, 1e-9, 1.0, 2.0, 1.0])
        lam = pst.eigenvalues_only(chain)
        ref_lam, ref_coeff = _eigenvector_terms(chain)
        distance = np.abs(np.subtract.outer(lam, lam)) + np.eye(lam.size)
        raw = _alternating_signs(lam.size) * chain.couplings.prod() / distance.prod(axis=1)
        assert np.abs(raw - ref_coeff).max() > 1e-8
        assert pst._spectral_coefficients(lam, chain.couplings) is None
        np.testing.assert_array_equal(pst._transfer_terms(chain)[1], ref_coeff)
        times = [0.5, 3.0, 10.0]
        np.testing.assert_allclose(evolve_fidelity(chain, times).fidelity,
                                   expm_fidelity(chain.diagonal, chain.couplings, times),
                                   rtol=0, atol=1e-12)

    def test_given_spectrum_is_not_solved_again(self, monkeypatch):
        chain = canonical_chain(6)
        lam = pst.eigenvalues_only(chain)
        monkeypatch.setattr(pst, "eigenvalues_only", None)
        monkeypatch.setattr(pst, "decompose", None)
        got_lam, coeff = pst._transfer_terms(chain, lam)
        assert got_lam is lam
        np.testing.assert_allclose(coeff, _eigenvector_terms(chain)[1], atol=1e-14)

    def test_transfer_times_match_the_eigenvector_route(self, disorder_corpus):
        chains = [(chain, cert.t0) for chain, cert, _ in disorder_corpus]
        chains += [(_nearly_symmetric(chain), t0) for chain, t0 in chains]
        for chain, t0 in chains:
            lam = pst.eigenvalues_only(chain)
            assert pst._spectral_coefficients(lam, chain.couplings) is not None
            got = first_perfect_time(chain, horizon=2.0 * t0)
            want = first_peak_time(*_eigenvector_terms(chain), 1.0 - 1e-8, 2.0 * t0)
            assert want is not None
            assert got == pytest.approx(want, rel=1e-10)
