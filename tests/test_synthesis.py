"""Spectrum specifications and the inverse eigenvalue problem."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_decompose

from pstlab import (
    NumericalBreakdown,
    SpectrumSpec,
    canonical_chain,
    decompose,
    is_mirror_symmetric,
    synthesize,
)
from pstlab.synthesis import draw_multipliers


def descending_spectra(max_sites=12):
    """Strategy: spectra built from gaps in [0.5, 50] (ratio at most 100)."""
    gap = st.floats(0.5, 50.0, allow_nan=False, allow_infinity=False)
    return st.integers(2, max_sites).flatmap(
        lambda n: st.lists(gap, min_size=n - 1, max_size=n - 1)
    ).map(
        lambda gaps: np.concatenate(([0.0], np.cumsum(gaps)))[::-1].copy()
    )


class TestSpectrumSpec:
    def test_raw_form(self):
        s = SpectrumSpec(eigenvalues=[2.0, 0.0, -2.0])
        assert s.n_sites == 3
        np.testing.assert_array_equal(s.expand(), [2.0, 0.0, -2.0])

    def test_structured_form_expands_traceless(self):
        s = SpectrumSpec(unit=1.0, multipliers=[1, 3])
        assert s.n_sites == 3
        lam = s.expand()
        np.testing.assert_allclose(lam, [5.0 / 3.0, 2.0 / 3.0, -7.0 / 3.0])
        assert abs(lam.sum()) < 1e-12
        np.testing.assert_allclose(-np.diff(lam), [1.0, 3.0])

    def test_exactly_one_form(self):
        with pytest.raises(ValueError, match="either"):
            SpectrumSpec()
        with pytest.raises(ValueError, match="either"):
            SpectrumSpec(eigenvalues=[1.0, -1.0], unit=1.0, multipliers=[1])
        with pytest.raises(ValueError, match="together"):
            SpectrumSpec(unit=1.0)

    def test_raw_validation(self):
        with pytest.raises(ValueError, match="descending"):
            SpectrumSpec(eigenvalues=[0.0, 1.0])
        with pytest.raises(ValueError, match="descending"):
            SpectrumSpec(eigenvalues=[1.0, 1.0])
        with pytest.raises(ValueError, match="length >= 2"):
            SpectrumSpec(eigenvalues=[1.0])
        with pytest.raises(ValueError, match="finite"):
            SpectrumSpec(eigenvalues=[np.inf, 0.0])

    def test_structured_validation(self):
        with pytest.raises(ValueError, match="odd"):
            SpectrumSpec(unit=1.0, multipliers=[2])
        with pytest.raises(ValueError, match="odd"):
            SpectrumSpec(unit=1.0, multipliers=[-1])
        with pytest.raises(ValueError, match="integer"):
            SpectrumSpec(unit=1.0, multipliers=[1.5])
        # whole floats are integers; strings, bools and values beyond int64 are not
        np.testing.assert_array_equal(SpectrumSpec(unit=1.0, multipliers=[1.0, 3]).multipliers,
                                      [1, 3])
        for bad in (["1", "3"], [True, 3], np.array([True]), [10**29 + 1], [1e30], [math.inf],
                    [math.nan], [None, 3]):
            with pytest.raises(ValueError, match="must be integers"):
                SpectrumSpec(unit=1.0, multipliers=bad)
        # each fits int64, but the expansion's int64 partial sums would wrap
        big = 2**62 + 1
        with pytest.raises(ValueError, match=r"must be at most 2\^63 - 1 in sum"):
            SpectrumSpec(unit=1.0, multipliers=[big, big, big])
        assert SpectrumSpec(unit=1.0, multipliers=[2**63 - 5, 3, 1]).multipliers.sum() == 2**63 - 1
        with pytest.raises(ValueError, match="unit"):
            SpectrumSpec(unit=0.0, multipliers=[1])
        with pytest.raises(ValueError, match="unit"):
            SpectrumSpec(unit=-2.0, multipliers=[1])

    def test_dict_round_trip_raw(self):
        data = {"lambda": [1.0, -1.0]}
        assert SpectrumSpec.from_dict(data).to_dict() == data

    def test_dict_round_trip_structured(self):
        data = {"unit": 0.5, "multipliers": [1, 3, 1]}
        assert SpectrumSpec.from_dict(data).to_dict() == data

    def test_from_dict_errors(self):
        with pytest.raises(ValueError, match="lambda"):
            SpectrumSpec.from_dict({})
        with pytest.raises(ValueError, match="together"):
            SpectrumSpec.from_dict({"unit": 1.0})
        with pytest.raises(ValueError, match="object"):
            SpectrumSpec.from_dict([1.0, -1.0])


class TestSynthesize:
    def test_two_sites(self):
        c = synthesize(np.array([1.0, -1.0]))
        np.testing.assert_allclose(c.diagonal, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(c.couplings, [1.0], atol=1e-14)

    def test_structured_three_site_example(self):
        # gaps (1, 3): asymmetric gap pattern forces a central field
        c = synthesize(SpectrumSpec(unit=1.0, multipliers=[1, 3]))
        np.testing.assert_allclose(
            c.diagonal, [2.0 / 3.0, -4.0 / 3.0, 2.0 / 3.0], atol=1e-12
        )
        np.testing.assert_allclose(
            c.couplings, [math.sqrt(1.5), math.sqrt(1.5)], atol=1e-12
        )

    def test_canonical_family_round_trip(self):
        for n in (2, 3, 5, 8, 13):
            target = np.arange(n - 1, -n, -2, dtype=float)
            c = synthesize(target)
            expected = canonical_chain(n)
            np.testing.assert_allclose(c.diagonal, expected.diagonal, atol=1e-10)
            np.testing.assert_allclose(c.couplings, expected.couplings, atol=1e-10)

    @settings(deadline=None, max_examples=40)
    @given(descending_spectra())
    def test_round_trip_and_symmetry(self, lam):
        c = synthesize(lam)
        assert is_mirror_symmetric(c)
        achieved = decompose(c).eigenvalues
        width = lam[0] - lam[-1]
        np.testing.assert_allclose(achieved, lam, atol=1e-10 * width)

    def test_round_trip_against_dense_oracle(self):
        lam = np.array([7.0, 3.5, 3.0, -1.0, -6.0])
        c = synthesize(lam)
        oracle_lam, _ = dense_decompose(c.diagonal, c.couplings)
        np.testing.assert_allclose(oracle_lam, lam, atol=1e-10)

    def test_breakdown_on_numerically_degenerate_spectrum(self):
        with pytest.raises(NumericalBreakdown, match="step"):
            synthesize(np.array([1.0, 1e-26, 0.0]))

    @pytest.mark.parametrize("spectrum", [
        np.array([1e200, 0.0, -1e200]),
        SpectrumSpec(unit=1e308, multipliers=[1, 3, 5]),
    ], ids=["lanczos-overflow", "spectrum-overflow"])
    def test_overflowing_fields_break_down(self, spectrum):
        with pytest.raises(NumericalBreakdown, match="overflow double precision"):
            synthesize(spectrum)

    def test_warns_above_safe_size(self):
        lam = np.arange(65, 0, -1, dtype=float)
        with pytest.warns(UserWarning, match="N=65") as record:
            synthesize(lam)
        assert record[0].filename == __file__  # the warning points at the caller


class TestCanonicalChain:
    def test_couplings_closed_form(self):
        c = canonical_chain(5)
        np.testing.assert_allclose(
            c.couplings, [2.0, math.sqrt(6.0), math.sqrt(6.0), 2.0]
        )
        np.testing.assert_array_equal(c.diagonal, np.zeros(5))

    def test_equally_spaced_spectrum(self):
        for n in (2, 6, 9):
            lam = decompose(canonical_chain(n)).eigenvalues
            np.testing.assert_allclose(lam, np.arange(n - 1, -n, -2, dtype=float),
                                       atol=1e-12)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            canonical_chain(1)


class TestRandomSpectra:
    def test_draw_multipliers_are_odd_and_capped(self):
        rng = np.random.default_rng(0)
        m = draw_multipliers(rng, 6, 9, count=500)
        assert m.shape == (500, 5)
        assert np.all(m % 2 == 1)
        assert np.all((m >= 1) & (m <= 9))
        # every admissible value appears in a draw this large
        assert set(np.unique(m)) == {1, 3, 5, 7, 9}
