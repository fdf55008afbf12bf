"""Spectrum specifications and the inverse eigenvalue problem."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_decompose, exact_chain

from pstlab import (
    NumericalBreakdown,
    SpectrumSpec,
    canonical_chain,
    decompose,
    eigenvalues_only,
    is_mirror_symmetric,
    synthesize,
)
from pstlab.bounds import _block_rows
from pstlab.synthesis import _expand_rows, _synthesize_rows, draw_multipliers


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
        with pytest.raises(ValueError, match="field 'lambda' must have length >= 2"):
            SpectrumSpec(eigenvalues=[1.0])
        with pytest.raises(ValueError, match="finite"):
            SpectrumSpec(eigenvalues=[np.inf, 0.0])
        # the array check ChainSpec's fields go through
        with pytest.raises(ValueError, match="field 'lambda' must be one-dimensional"):
            SpectrumSpec(eigenvalues=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="field 'lambda' contains non-finite entries"):
            SpectrumSpec(eigenvalues=[1.0, np.nan, -1.0])

    def test_raw_form_is_a_readonly_copy(self):
        lam = np.array([1.0, -1.0])
        spec = SpectrumSpec(eigenvalues=lam)
        lam[0] = 5.0
        assert spec.eigenvalues.tolist() == [1.0, -1.0]
        assert not spec.eigenvalues.flags.writeable

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
        # each fits int64, but the expansion's float64 tail sums are exact only below 2^53
        for bad in ([2**62 + 1] * 3, [2**63 - 5, 3, 1], [2**53 + 1, 1, 1], [2**53 - 3, 3]):
            with pytest.raises(ValueError, match=r"must sum to less than 2\^53"):
                SpectrumSpec(unit=1.0, multipliers=bad)
        edge = SpectrumSpec(unit=1.0, multipliers=[2**53 - 5, 3, 1])
        assert edge.multipliers.sum() == 2**53 - 1
        assert (-np.diff(edge.expand())).tolist() == [2**53 - 5, 3, 1]
        with pytest.raises(ValueError, match="unit"):
            SpectrumSpec(unit=0.0, multipliers=[1])
        with pytest.raises(ValueError, match="unit"):
            SpectrumSpec(unit=-2.0, multipliers=[1])

    def test_dict_round_trip_raw(self):
        data = {"lambda": [1.0, -1.0]}
        spec = SpectrumSpec.from_dict(data)
        assert spec.eigenvalues.tolist() == data["lambda"]
        assert spec.unit is None and spec.multipliers is None

    def test_dict_round_trip_structured(self):
        data = {"unit": 0.5, "multipliers": [1, 3, 1]}
        spec = SpectrumSpec.from_dict(data)
        assert spec.unit == data["unit"]
        assert spec.multipliers.tolist() == data["multipliers"]
        assert spec.eigenvalues is None

    def test_from_dict_errors(self):
        with pytest.raises(ValueError, match="lambda"):
            SpectrumSpec.from_dict({})
        for half in ({"unit": 1.0}, {"multipliers": [1]}):
            with pytest.raises(ValueError, match="fields 'unit' and 'multipliers' go together"):
                SpectrumSpec.from_dict(half)
        with pytest.raises(ValueError, match="object"):
            SpectrumSpec.from_dict([1.0, -1.0])

    def test_from_dict_reads_lambda_first(self):
        spec = SpectrumSpec.from_dict({"lambda": [1.0, -1.0], "unit": 1.0})
        assert spec.eigenvalues.tolist() == [1.0, -1.0] and spec.unit is None


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

    @pytest.mark.parametrize("multipliers", [
        [1] * 1079,
        [1] * 412 + [999] * 199 + [1] * 412,
    ], ids=["all-ones-1080", "central-999-1024"])
    def test_zero_end_weight_breaks_down(self, multipliers):
        # an end weight below the smallest double is 0; Lanczos, which stops
        # at the centre, would never reach the off-diagonal it breaks, and
        # would return a chain off its spectrum by 7.5e-4 and 0.49 of the width
        with pytest.warns(UserWarning, match="may lose accuracy"), \
                pytest.raises(NumericalBreakdown, match="end weight underflows"):
            synthesize(SpectrumSpec(unit=1.0, multipliers=multipliers))

    def test_smallest_end_weights_still_round_trip(self):
        # at N = 1024 the all-ones end weights reach 1.1e-308 and stay nonzero
        spec = SpectrumSpec(unit=1.0, multipliers=[1] * 1023)
        with pytest.warns(UserWarning, match="N=1024"):
            chain = synthesize(spec)
        lam = spec.expand()
        assert np.abs(eigenvalues_only(chain) - lam).max() <= 1e-14 * (lam[0] - lam[-1])

    def test_warns_above_safe_size(self):
        lam = np.arange(65, 0, -1, dtype=float)
        with pytest.warns(UserWarning, match="N=65") as record:
            synthesize(lam)
        assert record[0].filename == __file__  # the warning points at the caller


class TestSynthesizeRows:
    """The stacked core against exact chains, and its mirrored second half."""

    def test_rows_are_bitwise_persymmetric(self):
        # Lanczos runs to the centre and the rest is its mirror image
        rng = np.random.default_rng(31)
        spectra = []
        for n in range(2, 17):
            spectra += [_expand_rows(1.0, draw_multipliers(rng, n, 9, count=20)),
                        np.cumsum(rng.uniform(1.0, 100.0, (20, n)), axis=1)[:, ::-1].copy()]
        # and one search block at N = 448
        spectra.append(_expand_rows(1.0, draw_multipliers(rng, 448, 9, count=_block_rows(448))))
        for lam in spectra:
            given = lam.copy()
            diagonal, couplings, errors = _synthesize_rows(lam)
            assert errors == {}
            assert np.array_equal(lam, given), lam.shape  # the input is not written
            assert np.array_equal(diagonal, diagonal[:, ::-1]), lam.shape
            assert np.array_equal(couplings, couplings[:, ::-1]), lam.shape

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_match_the_exact_chain(self, n):
        rows = [[1] * (n - 1)] + [[3 if i == k else 1 for i in range(n - 1)] for k in range(n - 1)]
        if n == 5:
            rows.append([1, 5, 5, 1])
        mults = np.vstack([rows, draw_multipliers(np.random.default_rng(n), n, 9, count=20)])
        lam = _expand_rows(1.0, mults)
        diagonal, couplings, errors = _synthesize_rows(lam)
        assert errors == {}
        for row, m in enumerate(mults):
            b, j2 = exact_chain(m)
            tol = 1e-13 * (lam[row, 0] - lam[row, -1])
            assert np.abs(diagonal[row] - [float(x) for x in b]).max() <= tol, m
            assert np.abs(couplings[row] - np.sqrt([float(x) for x in j2])).max() <= tol, m

    def test_exact_chain_of_known_spectra(self):
        # gaps (1, 3) and the all-ones lattice, J_k^2 = k (N - k) / 4 at gap 1
        assert exact_chain([1, 3]) == ([Fraction(2, 3), Fraction(-4, 3), Fraction(2, 3)],
                                       [Fraction(3, 2), Fraction(3, 2)])
        b, j2 = exact_chain([1] * 5)
        assert b == [0] * 6 and j2 == [Fraction(k * (6 - k), 4) for k in range(1, 6)]


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
