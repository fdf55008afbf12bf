"""Eigendecomposition against the dense oracle, Sturm counts, parity classification."""
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_decompose, dense_hamiltonian, random_mirror_arrays

import pstlab.eigensolve
from pstlab import (
    ChainSpec,
    EigensolveError,
    ParityViolation,
    SpectralData,
    SpectrumSpec,
    audit_chain,
    canonical_chain,
    certify,
    classify_parity,
    decompose,
    eigenvalues_only,
)


def random_chain(rng, n):
    return ChainSpec(
        diagonal=rng.uniform(-5.0, 5.0, n),
        couplings=rng.uniform(0.1, 10.0, n - 1),
    )


class TestSpectralData:
    def test_rejects_unordered_eigenvalues(self):
        with pytest.raises(EigensolveError, match="descending"):
            SpectralData(eigenvalues=np.array([1.0, 2.0]),
                         eigenvectors=np.eye(2))

    def test_rejects_degenerate_eigenvalues(self):
        with pytest.raises(EigensolveError, match="descending"):
            SpectralData(eigenvalues=np.array([1.0, 1.0]),
                         eigenvectors=np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            SpectralData(eigenvalues=np.array([1.0, 0.0]),
                         eigenvectors=np.eye(3))


class TestDecompose:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 14))
            c = random_chain(rng, n)
            spectral = decompose(c)
            lam, vec = dense_decompose(c.diagonal, c.couplings)
            width = lam[0] - lam[-1]
            np.testing.assert_allclose(spectral.eigenvalues, lam,
                                       atol=1e-11 * width)
            np.testing.assert_allclose(spectral.eigenvectors, vec, atol=1e-8)

    def test_a_bad_eigenpair_is_refused(self, monkeypatch):
        real = scipy.linalg.eigh_tridiagonal

        def eigh_tridiagonal(d, e):  # vectors off by 1e-6 in every entry
            lam, vec = real(d, e)
            return lam, vec + 1e-6

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", eigh_tridiagonal)
        with pytest.raises(EigensolveError, match="eigenpair residual"):
            decompose(canonical_chain(6))

    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            c = random_chain(rng, int(rng.integers(2, 20)))
            spectral = decompose(c)
            assert np.all(np.diff(spectral.eigenvalues) < 0)
            gram = spectral.eigenvectors.T @ spectral.eigenvectors
            np.testing.assert_allclose(gram, np.eye(c.n_sites), atol=1e-12)

    def test_first_components_positive(self):
        # Jacobi matrices have nonvanishing first components; the sign fix
        # makes them all strictly positive
        rng = np.random.default_rng(13)
        for _ in range(10):
            c = random_chain(rng, int(rng.integers(2, 20)))
            assert np.all(decompose(c).eigenvectors[0, :] > 0)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 10), st.integers(0, 2**31 - 1))
    def test_reconstructs_hamiltonian(self, n, seed):
        # basis-independent check, stable even under near-degeneracy
        rng = np.random.default_rng(seed)
        c = random_chain(rng, n)
        spectral = decompose(c)
        h = spectral.eigenvectors @ np.diag(spectral.eigenvalues) @ spectral.eigenvectors.T
        scale = np.abs(spectral.eigenvalues).max()
        np.testing.assert_allclose(h, dense_hamiltonian(c.diagonal, c.couplings),
                                   atol=1e-12 * max(scale, 1.0))

    def test_eigenvalues_only_agrees(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            c = random_chain(rng, int(rng.integers(2, 24)))
            np.testing.assert_allclose(eigenvalues_only(c),
                                       decompose(c).eigenvalues,
                                       atol=1e-12)


class TestEigenvalueRows:
    """eigenvalues_only solves a chain with one call to LAPACK's dsterf,
    the eigenvalue-only routine under scipy's eigvalsh_tridiagonal, and
    raises for a solve that does not converge."""

    def test_rows_equal_eigvalsh_tridiagonal_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for n in range(2, 65):
            for _ in range(3):
                c = random_chain(rng, n)
                want = scipy.linalg.eigvalsh_tridiagonal(c.diagonal, c.couplings)[::-1]
                np.testing.assert_array_equal(eigenvalues_only(c), want)

    @pytest.mark.parametrize("n", [4, 16])
    def test_a_failed_solve_raises(self, n, monkeypatch):
        rng = np.random.default_rng(16)
        chains = [random_chain(rng, n), canonical_chain(n)]
        real = scipy.linalg.lapack.dsterf

        def dsterf(d, e):  # LAPACK's info = 1: no convergence
            return real(d, e)[0], 1

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf", dsterf)
        for chain in chains:
            with pytest.raises(EigensolveError, match="did not converge: dsterf info=1"):
                eigenvalues_only(chain)
        # the canonical chain is symmetric, so certification solves it
        with pytest.raises(EigensolveError, match="did not converge"):
            certify(chains[1])
        with pytest.raises(EigensolveError, match="did not converge"):
            audit_chain(chains[1])

    @pytest.mark.parametrize("ascending", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                                           [0.0, np.nan, 2.0]])
    def test_one_descending_rule(self, ascending):
        # equal neighbours, an ascending pair and a NaN: the solver guard,
        # SpectralData and SpectrumSpec each refuse them
        lam = np.array(ascending)
        with pytest.raises(EigensolveError, match="degenerate or unordered"):
            pstlab.eigensolve._descending(lam)
        with pytest.raises(EigensolveError, match="descending"):
            SpectralData(eigenvalues=lam[::-1], eigenvectors=np.eye(lam.size))
        with pytest.raises(ValueError, match="strictly descending|non-finite"):
            SpectrumSpec(eigenvalues=lam[::-1])
        np.testing.assert_array_equal(pstlab.eigensolve._descending(np.array([0.0, 1.0, 3.0])),
                                      [3.0, 1.0, 0.0])


class TestSturmCounts:
    """_sturm_counts_rows: eigenvalues below each shift, per row."""

    def test_counts_equal_the_sorted_spectrum(self):
        # shifts at least 1e-6 of the width away from every eigenvalue, where
        # the count's backward error cannot move an eigenvalue across
        rng = np.random.default_rng(17)
        for n in range(2, 65):
            chains = [random_chain(rng, n) for _ in range(4)]
            diagonal = np.array([c.diagonal for c in chains])
            couplings = np.array([c.couplings for c in chains])
            lam = np.array([scipy.linalg.lapack.dsterf(b, j)[0]
                            for b, j in zip(diagonal, couplings)])
            width = lam[:, -1] - lam[:, 0]
            shifts = rng.uniform(lam[:, :1] - 1.0, lam[:, -1:] + 1.0, (4, 3 * n))
            distance = np.abs(shifts[:, :, None] - lam[:, None, :]).min(axis=2)
            far = distance >= 1e-6 * width[:, None]
            assert far.mean() > 0.9
            counts = pstlab.eigensolve._sturm_counts_rows(diagonal, couplings, shifts)
            want = np.array([np.searchsorted(row, s) for row, s in zip(lam, shifts)])
            np.testing.assert_array_equal(counts[far], want[far])

    def test_a_zero_pivot_counts_right_without_a_warning(self):
        # at shift 0: B = (0, 0) has d_1 = 0 (eigenvalues +-1); B = (1, 1, 0),
        # J = (1, 1) has d_2 = 1 - 1/1 = 0 (eigenvalues -0.80, 0.55, 2.25);
        # the three-site canonical chain has d_1 = d_3 = 0 and eigenvalue 0
        # itself, which is not below the shift; -0.0 in B counts as +0.0 (as
        # -0 the pivots would read -0, +inf, -0 there and count 0 as below)
        cases = [([0.0, 0.0], [1.0], 1), ([-0.0, -0.0], [1.0], 1),
                 ([1.0, 1.0, 0.0], [1.0, 1.0], 1), ([0.0, 0.0, 0.0], [1.0, 1.0], 1),
                 ([-0.0, -0.0, -0.0], [1.0, 1.0], 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b, j, want in cases:
                counts = pstlab.eigensolve._sturm_counts_rows(
                    np.array([b]), np.array([j]), np.zeros((1, 1)))
                assert counts.tolist() == [[want]], (b, j)
                lam = np.linalg.eigvalsh(dense_hamiltonian(np.array(b), np.array(j)))
                assert (lam < -1e-12).sum() == want
            # the five as one block, each led by decoupled sites at 10 to one N,
            # whose pivots are 10 - sigma > 0, so every later pivot is the
            # case's own; each count is the count of the case alone
            shifts = np.array([[0.0, -3.0 + i, 0.5 * i, 3.0 - i] for i in range(len(cases))])
            single = [pstlab.eigensolve._sturm_counts_rows(
                np.array([b]), np.array([j]), shifts[i, None])
                for i, (b, j, _) in enumerate(cases)]
            pad = [3 - len(b) for b, _, _ in cases]
            stacked = pstlab.eigensolve._sturm_counts_rows(
                np.array([[10.0] * p + b for (b, _, _), p in zip(cases, pad)]),
                np.array([[0.0] * p + j for (_, j, _), p in zip(cases, pad)]), shifts)
            assert stacked.tolist() == np.vstack(single).tolist()
            assert stacked[:, 0].tolist() == [want for _, _, want in cases]


class TestClassifyParity:
    def test_alternating_pattern_on_canonical_chains(self):
        for n in range(2, 17):
            c = canonical_chain(n)
            spectral = classify_parity(decompose(c), c)
            expected = np.where(np.arange(n) % 2 == 0, 1, -1)
            np.testing.assert_array_equal(spectral.parity_signs, expected)

    def test_vectors_are_exact_mirror_eigenvectors_after_classification(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            n = int(rng.integers(2, 20))
            b, j = random_mirror_arrays(rng, n)
            c = ChainSpec(diagonal=b, couplings=j)
            spectral = classify_parity(decompose(c), c)
            vec = spectral.eigenvectors
            mirrored = vec[::-1, :]
            np.testing.assert_allclose(mirrored, vec * spectral.parity_signs,
                                       atol=1e-12)

    def test_classification_preserves_eigen_accuracy(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            n = int(rng.integers(2, 20))
            b, j = random_mirror_arrays(rng, n)
            c = ChainSpec(diagonal=b, couplings=j)
            spectral = classify_parity(decompose(c), c)
            h = dense_hamiltonian(b, j)
            resid = h @ spectral.eigenvectors - spectral.eigenvectors * spectral.eigenvalues
            scale = np.abs(spectral.eigenvalues).max()
            assert np.abs(resid).max() < 1e-10 * scale
            gram = spectral.eigenvectors.T @ spectral.eigenvectors
            np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_a_mixed_basis_fails_revalidation(self, rotate):
        # v_1 and v_3 have the same parity, so projection keeps a mixture of
        # them; a rotation by 1e-6 keeps the basis orthonormal, so only the
        # eigenpair residual refuses it
        c = canonical_chain(6)
        spectral = decompose(c)
        vec = spectral.eigenvectors.copy()
        vec[:, 0] += 1e-6 * spectral.eigenvectors[:, 2]
        if rotate:
            vec[:, 2] -= 1e-6 * spectral.eigenvectors[:, 0]
        mixed = SpectralData(eigenvalues=spectral.eigenvalues, eigenvectors=vec)
        with pytest.raises(ParityViolation, match="re-validation"):
            classify_parity(mixed, c)

    def test_asymmetric_chain_is_rejected(self):
        c = ChainSpec(diagonal=[0.0, 0.0, 0.0, 0.0], couplings=[1.0, 1.0, 2.0])
        with pytest.raises(ParityViolation, match="not mirror-symmetric"):
            classify_parity(decompose(c), c)


class TestEndAmplitudes:
    def test_positive_and_normalized(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            c = random_chain(rng, int(rng.integers(2, 20)))
            a = decompose(c).eigenvectors[0]
            assert np.all(a > 0)
            assert np.sum(a * a) == pytest.approx(1.0, abs=1e-12)
