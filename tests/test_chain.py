"""Chain construction, mirror symmetry, and the mirror-trace identities."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    alternating_sums,
    antidiagonal_sum,
    dense_decompose,
    dense_hamiltonian,
    random_mirror_arrays,
)

from pstlab import (
    ChainSpec,
    SpectralData,
    eigen_side_traces,
    is_mirror_symmetric,
    trace_report,
)


def chain_arrays(max_sites=12):
    """Strategy for (B, J) with J > 0 and everything well scaled."""
    finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    positive = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
    return st.integers(2, max_sites).flatmap(
        lambda n: st.tuples(
            st.lists(finite, min_size=n, max_size=n),
            st.lists(positive, min_size=n - 1, max_size=n - 1),
        )
    )


class TestChainSpec:
    def test_basic_construction(self):
        c = ChainSpec(diagonal=[0.0, 1.0, 0.0], couplings=[2.0, 2.0])
        assert c.n_sites == 3
        assert c.j_max == 2.0
        np.testing.assert_array_equal(c.diagonal, [0.0, 1.0, 0.0])

    def test_arrays_are_copied_and_frozen(self):
        b = np.zeros(3)
        c = ChainSpec(diagonal=b, couplings=[1.0, 1.0])
        b[0] = 99.0
        assert c.diagonal[0] == 0.0
        with pytest.raises(ValueError):
            c.diagonal[0] = 1.0

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError, match="'N'"):
            ChainSpec(diagonal=[0.0], couplings=[])

    def test_rejects_wrong_coupling_count(self):
        with pytest.raises(ValueError, match="'J'"):
            ChainSpec(diagonal=[0.0, 0.0], couplings=[1.0, 1.0])

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ValueError, match="positive"):
            ChainSpec(diagonal=[0.0, 0.0, 0.0], couplings=[1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            ChainSpec(diagonal=[0.0, 0.0, 0.0], couplings=[1.0, -1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(diagonal=[0.0, np.nan], couplings=[1.0])
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(diagonal=[0.0, 0.0], couplings=[np.inf])

    def test_from_dict_round_trip(self):
        data = {"N": 3, "B": [0.5, 0.0, 0.5], "J": [1.0, 2.0]}
        c = ChainSpec.from_dict(data)
        assert c.to_dict() == data

    def test_from_dict_default_fields(self):
        c = ChainSpec.from_dict({"N": 4, "J": [1.0, 1.0, 1.0]})
        np.testing.assert_array_equal(c.diagonal, np.zeros(4))
        assert ChainSpec.from_dict({"N": 4.0, "J": [1.0, 1.0, 1.0]}).n_sites == 4

    def test_from_dict_errors(self):
        with pytest.raises(ValueError, match="'N'"):
            ChainSpec.from_dict({"J": [1.0]})
        with pytest.raises(ValueError, match="'J'"):
            ChainSpec.from_dict({"N": 2})
        with pytest.raises(ValueError, match="'N'"):
            ChainSpec.from_dict({"N": 4, "B": [0.0, 0.0, 0.0], "J": [1.0, 1.0]})
        with pytest.raises(ValueError, match="object"):
            ChainSpec.from_dict([1, 2, 3])
        for n in (2.7, "2", None, True, [2], float("nan"), float("inf")):
            with pytest.raises(ValueError, match="field 'N' missing or not an integer"):
                ChainSpec.from_dict({"N": n, "J": [1.0]})
        # N is checked against the chain, not used to size the default B
        for n in (10**18, 1e19, 3):
            with pytest.raises(ValueError, match="does not match the chain's 2 sites"):
                ChainSpec.from_dict({"N": n, "J": [1.0]})


class TestMirrorSymmetry:
    def test_palindromes_are_symmetric(self):
        c = ChainSpec(diagonal=[1.0, 2.0, 1.0], couplings=[3.0, 3.0])
        assert is_mirror_symmetric(c)

    def test_broken_coupling_is_not(self):
        c = ChainSpec(diagonal=[0.0, 0.0, 0.0], couplings=[1.0, 1.1])
        assert not is_mirror_symmetric(c)

    def test_tolerance_is_relative_to_scale(self):
        # asymmetry 1e-8 against entries of order 1e3 is 1e-11 relative
        c = ChainSpec(diagonal=[1000.0, 0.0, 1000.0 + 1e-8], couplings=[1.0, 1.0])
        assert is_mirror_symmetric(c)
        c = ChainSpec(diagonal=[1000.0, 0.0, 1000.0 + 1e-4], couplings=[1.0, 1.0])
        assert not is_mirror_symmetric(c)


class TestMirrorTraces:
    @settings(deadline=None)
    @given(chain_arrays())
    def test_trace_h_is_antidiagonal_sum(self, arrays):
        b, j = arrays
        c = ChainSpec(diagonal=b, couplings=j)
        expected = antidiagonal_sum(dense_hamiltonian(b, j))
        assert trace_report(c).trace_sh == pytest.approx(expected, abs=1e-12)

    @settings(deadline=None)
    @given(chain_arrays())
    def test_trace_h2_is_antidiagonal_sum_of_square(self, arrays):
        b, j = arrays
        c = ChainSpec(diagonal=b, couplings=j)
        h = dense_hamiltonian(b, j)
        expected = antidiagonal_sum(h @ h)
        assert trace_report(c).trace_sh2 == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_even_chain_central_couplings(self):
        # N = 4: the antidiagonal crosses the band at the two central J's
        rep = trace_report(ChainSpec(diagonal=[1.0, 2.0, 2.0, 1.0], couplings=[3.0, 5.0, 3.0]))
        assert rep.trace_sh == 10.0
        assert rep.trace_sh2 == 2.0 * 5.0 * (2.0 + 2.0)

    def test_odd_chain_central_field(self):
        rep = trace_report(ChainSpec(diagonal=[0.0, 7.0, 0.0], couplings=[2.0, 3.0]))
        assert rep.trace_sh == 7.0
        assert rep.trace_sh2 == 7.0**2 + (2.0 + 3.0) ** 2


class TestEigenSideTraces:
    def test_alternating_sums_frozen_example(self):
        lam = np.array([3.0, 1.0, -1.0, -3.0])
        spectral = SpectralData(
            eigenvalues=lam,
            eigenvectors=np.eye(4),
            parity_signs=np.array([1, -1, 1, -1]),
        )
        s1, s2 = eigen_side_traces(spectral)
        assert s1 == 4.0
        assert s2 == 0.0
        assert (s1, s2) == alternating_sums(lam)

    def test_requires_parity_signs(self):
        spectral = SpectralData(eigenvalues=np.array([1.0, -1.0]),
                                eigenvectors=np.eye(2))
        with pytest.raises(ValueError, match="parity"):
            eigen_side_traces(spectral)


class TestTraceReport:
    def test_closed_forms_match_traces_on_symmetric_chains(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            b, j = random_mirror_arrays(rng, n)
            rep = trace_report(ChainSpec(diagonal=b, couplings=j))
            assert rep.closed_form_sh == pytest.approx(rep.trace_sh, rel=1e-12)
            assert rep.closed_form_sh2 == pytest.approx(rep.trace_sh2, rel=1e-12)

    def test_h2_closed_form_detects_broken_center(self):
        # odd N with unequal central couplings: (J_l + J_r)^2 != 4 J_l J_r form
        c = ChainSpec(diagonal=[0.0, 0.0, 0.0], couplings=[1.0, 2.0])
        rep = trace_report(c)
        assert rep.trace_sh2 == 0.0**2 + (1.0 + 2.0) ** 2
        assert rep.closed_form_sh2 == 0.0**2 + 4.0 * 1.0**2
        assert rep.trace_sh2 != rep.closed_form_sh2

    def test_alternating_eigen_sums_equal_traces_when_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            b, j = random_mirror_arrays(rng, n)
            rep = trace_report(ChainSpec(diagonal=b, couplings=j))
            lam, _ = dense_decompose(b, j)
            s1, s2 = alternating_sums(lam)
            assert rep.trace_sh == pytest.approx(s1, rel=1e-10, abs=1e-10)
            assert rep.trace_sh2 == pytest.approx(s2, rel=1e-10, abs=1e-10)
