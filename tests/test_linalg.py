import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcsqse.linalg import _sector_eigh, generalized_eigensolve, hermitian_eigensolve


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def residual(a, spec):
    r = a @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    return np.abs(r).max()


class TestHermitianEigensolve:
    def test_diagonal(self):
        spec = hermitian_eigensolve(np.diag([2.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0])
        assert spec.retained_dim == 2

    def test_pauli_x(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(hermitian_eigensolve(x).eigenvalues, [-1.0, 1.0])

    def test_random_16(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 16)
        spec = hermitian_eigensolve(a)
        scale = np.abs(a).max()
        assert residual(a, spec) < 1e-10 * max(scale, 1.0)
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.abs(gram - np.eye(16)).max() < 1e-10

    def test_residuals_over_many_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            a = random_hermitian(rng, n)
            spec = hermitian_eigensolve(a)
            assert residual(a, spec) < 1e-10 * max(np.abs(a).max(), 1.0)
            assert np.all(np.diff(spec.eigenvalues) >= -1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigensolve(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        a = np.eye(3, dtype=complex)
        a[0, 1] = 1e-5
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensolve(a)

    def test_rejects_non_finite(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigensolve(a)

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        a[0, 1] = 1e-12
        spec = hermitian_eigensolve(a)
        assert np.allclose(spec.eigenvalues, [1.0, 2.0], atol=1e-10)


class TestGeneralizedEigensolve:
    def test_identity_metric_matches_plain_solver(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 8)
        spec = generalized_eigensolve(h, np.eye(8))
        plain = hermitian_eigensolve(h)
        assert np.allclose(spec.eigenvalues, plain.eigenvalues, atol=1e-12)
        assert spec.retained_dim == 8

    def test_diagonal_pair(self):
        spec = generalized_eigensolve(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [2.0, 3.0])

    def test_singular_metric_discards_null_direction(self):
        spec = generalized_eigensolve(np.diag([2.0, 5.0]), np.diag([1.0, 0.0]),
                                      metric_cutoff=1e-10)
        assert spec.retained_dim == 1
        assert np.allclose(spec.eigenvalues, [2.0])

    def test_residual_and_metric_orthonormality(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 20))
            h = random_hermitian(rng, n)
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            s = b @ b.conj().T + 0.1 * np.eye(n)
            spec = generalized_eigensolve(h, s)
            r = h @ spec.eigenvectors - (s @ spec.eigenvectors) * spec.eigenvalues
            assert np.abs(r).max() < 1e-9 * max(np.abs(h).max(), 1.0)
            gram = spec.eigenvectors.conj().T @ s @ spec.eigenvectors
            assert np.abs(gram - np.eye(spec.retained_dim)).max() < 1e-10

    def test_congruence_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 6
            h = random_hermitian(rng, n)
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            s = b @ b.conj().T + 0.5 * np.eye(n)
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m += n * np.eye(n)  # keep it well conditioned
            base = generalized_eigensolve(h, s).eigenvalues
            cong = generalized_eigensolve(m.conj().T @ h @ m,
                                          m.conj().T @ s @ m).eigenvalues
            assert np.abs(base - cong).max() < 1e-9 * max(np.abs(h).max(), 1.0)

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            generalized_eigensolve(np.eye(2), np.diag([1.0, -0.1]))

    def test_empty_subspace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generalized_eigensolve(np.eye(2), np.diag([1.0, 1.0]), metric_cutoff=2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            generalized_eigensolve(np.eye(2), np.eye(3))



def number_conserving(rng, m, ties):
    """Random Hermitian H on 2^M states with no entry between N sectors.

    ties="mirror" copies each sector block N onto M - N, so every level of
    the pair is tied exactly; ties="diagonal" draws a diagonal of fewer
    distinct integers than states, tying levels also across sectors of
    different sizes.
    """
    dim = 1 << m
    labels = np.bitwise_count(np.arange(dim))
    if ties == "diagonal":
        return np.diag(rng.integers(0, max(dim // 2, 1), size=dim)).astype(complex), labels
    h = random_hermitian(rng, dim)
    h[labels[:, None] != labels[None, :]] = 0
    if ties == "mirror":
        for n in range(m // 2 + 1):
            src, dst = np.flatnonzero(labels == n), np.flatnonzero(labels == m - n)
            h[np.ix_(dst, dst)] = h[np.ix_(src, src)]
    return h, labels


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), ties=st.sampled_from(["none", "mirror", "diagonal"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(m=1, ties="mirror", seed=0)
def test_sector_eigh_matches_dense_eigh(m, ties, seed):
    h, labels = number_conserving(np.random.default_rng(seed), m, ties)
    w, v, sectors = _sector_eigh(h, labels)
    assert np.abs(w - np.linalg.eigh(h)[0]).max() < 1e-12
    assert np.abs(h @ v - v * w).max() < 1e-12
    assert np.abs(v.conj().T @ v - np.eye(1 << m)).max() < 1e-12
    assert np.all(v[labels[:, None] != sectors[None, :]] == 0)
    for n in range(m + 1):
        block = np.flatnonzero(labels == n)
        want = np.linalg.eigvalsh(h[np.ix_(block, block)])
        assert np.abs(w[sectors == n] - want).max() < 1e-12
    tied = np.flatnonzero(w[1:] == w[:-1])
    assert np.all(sectors[tied] <= sectors[tied + 1])
    if ties != "none":
        assert tied.size


def test_sector_coupling_rejected_before_any_eigh(monkeypatch):
    shapes = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args: shapes.append(a.shape) or real(a, *args))
    h, labels = number_conserving(np.random.default_rng(5), 4, "none")
    coupled = h.copy()
    coupled[1, 3] = coupled[3, 1] = 1e-300  # N = 1 to N = 2
    with pytest.raises(ValueError, match="between sectors"):
        _sector_eigh(coupled, labels)
    assert shapes == []
    _sector_eigh(h, labels)
    assert shapes == [(2, 4, 4), (1, 6, 6)]
