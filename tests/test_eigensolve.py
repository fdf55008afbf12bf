"""Eigendecomposition against the dense oracle, parity classification."""
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
    canonical_chain,
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
    """Above DENSE_MAX_SITES the rows are solved one by one by LAPACK's
    dsterf, the eigenvalue-only routine under scipy's eigvalsh_tridiagonal."""

    def test_rows_equal_eigvalsh_tridiagonal_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for n in range(pstlab.eigensolve.DENSE_MAX_SITES + 1, 65):
            chains = [random_chain(rng, n) for _ in range(3)]
            lam, errors = pstlab.eigensolve._eigenvalues_rows(
                np.array([c.diagonal for c in chains]), np.array([c.couplings for c in chains]))
            assert errors == [None] * 3
            for c, row in zip(chains, lam):
                want = scipy.linalg.eigvalsh_tridiagonal(c.diagonal, c.couplings)[::-1]
                np.testing.assert_array_equal(row, want)

    def test_a_failed_row_fails_alone(self, monkeypatch):
        rng = np.random.default_rng(16)
        chains = [random_chain(rng, 16) for _ in range(3)]
        fields = np.array([c.diagonal for c in chains]), np.array([c.couplings for c in chains])
        clean, _ = pstlab.eigensolve._eigenvalues_rows(*fields)
        real = scipy.linalg.lapack.dsterf

        def dsterf(d, e):  # LAPACK's info = 1 (no convergence) on the middle chain only
            vals, info = real(d, e)
            return vals, 1 if np.array_equal(d, chains[1].diagonal) else info

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf", dsterf)
        lam, errors = pstlab.eigensolve._eigenvalues_rows(*fields)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], EigensolveError)
        assert "did not converge" in str(errors[1])
        assert np.isnan(lam[1]).all()
        np.testing.assert_array_equal(lam[[0, 2]], clean[[0, 2]])
        np.testing.assert_array_equal(eigenvalues_only(chains[0]), clean[0])
        with pytest.raises(EigensolveError, match="did not converge"):
            eigenvalues_only(chains[1])


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
