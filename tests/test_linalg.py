import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcsqse import channels, linalg, qse, rdm, vcs
from vcsqse.channels import ChannelSpec, lift_to_register, single_qubit_channel
from vcsqse.linalg import StackError, _sector_eigh, generalized_eigensolve, hermitian_eigensolve
from vcsqse.operators import PauliOperator


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


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 5), p=st.integers(1, 5),
       ties=st.sampled_from(["none", "mirror", "diagonal"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_sector_eigh_equals_one_at_a_time(m, p, ties, seed):
    """A stack sharing the labels gives each member's levels, vectors and
    sectors bit for bit, with one batched eigh per sector size."""
    rng = np.random.default_rng(seed)
    hs, labels = zip(*(number_conserving(rng, m, ties) for _ in range(p)))
    stacked = _sector_eigh(np.stack(hs), labels[0])
    for i, h in enumerate(hs):
        for got, want in zip(stacked, _sector_eigh(h, labels[0])):
            assert got[i].shape == want.shape and np.array_equal(got[i], want)


def test_stacked_sector_coupling_names_its_member():
    rng = np.random.default_rng(8)
    hs, labels = zip(*(number_conserving(rng, 3, "none") for _ in range(4)))
    hs = np.stack(hs)
    hs[2, 0, 1] = hs[2, 1, 0] = 0.5  # N = 0 to N = 1 in member 2 only
    with pytest.raises(StackError, match="stack index 2: matrix has nonzero entries "
                                         "between sectors"):
        _sector_eigh(hs, labels[0])


class TestStateCheck:
    """linalg._checked_state is the one check of every state the package takes."""

    @pytest.fixture
    def state_checks(self, monkeypatch):
        """Every module's reference to _checked_state swapped for a spy that
        records each call's state shape and stack flag."""
        calls, real = [], linalg._checked_state

        def spy(state, stack=False):
            calls.append((np.shape(state), stack))
            return real(state, stack)

        for module in (linalg, channels, qse, rdm, vcs):
            if getattr(module, "_checked_state", None) is real:
                monkeypatch.setattr(module, "_checked_state", spy)
        return calls

    def test_one_check_per_state_argument(self, state_checks, monkeypatch):
        """The RDM routes, the subspace build and the channel check their
        state once each; a baseline checks each chunk's states at once."""
        rng = np.random.default_rng(12)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        h = random_hermitian(rng, 4)
        pair = lift_to_register(single_qubit_channel(ChannelSpec("amplitude_phase")), 2)
        entries = [lambda s: rdm.compute_rdms(s, 2), lambda s: rdm.sample_rdms(s, 2, 10, 0),
                   lambda s: rdm.estimate_pauli(s, PauliOperator(2, {"XY": 1.0}), 10, 0),
                   lambda s: qse.build_subspace_direct(qse.qubit_basis(2, 1), h, s)]
        for entry, state in [(e, s) for e in entries for s in (psi, rho)] + [
                (lambda s: channels.apply_channel(pair, s), rho)]:
            state_checks.clear()
            entry(state)
            assert state_checks == [(state.shape, False)]
        # three matrices per chunk
        monkeypatch.setattr(vcs, "STACK_BYTE_LIMIT", 3 * 16 * h.size)
        state_checks.clear()
        vcs.no_variation_baseline(np.stack([h] * 7), pair, [psi] * 7)
        assert state_checks == [((3, 4), True), ((3, 4), True), ((1, 4), True)]

    def test_vcs_solve_applies_no_channel(self, state_checks, monkeypatch):
        """A solve pushes the input states it builds through the channel's
        kernel itself: no apply_channel call and no state check."""
        applied = []
        for module in (channels, vcs):
            if hasattr(module, "apply_channel"):
                monkeypatch.setattr(module, "apply_channel",
                                    lambda *args: applied.append(args))
        rng = np.random.default_rng(13)
        hs = np.stack([random_hermitian(rng, 16) for _ in range(3)])
        ch = lift_to_register(single_qubit_channel(ChannelSpec("depolarizing")), 4)
        assert len(vcs.solve_vcs(hs, ch)) == 3
        assert applied == [] and state_checks == []

    @pytest.mark.parametrize("shape", [(5, 5), (3, 6, 6), (64, 64), (2, 33, 33)])
    def test_row_blocks_give_the_whole_defect(self, monkeypatch, shape):
        """The Hermiticity defect is the same in one block and in many, and
        NaN for the matrix, and only the matrix, with a NaN entry."""
        rng = np.random.default_rng(shape[-1])
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a[(0,) * (a.ndim - 2) + (1, 2)] = np.nan
        whole = np.abs(a - a.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
        for entries in (linalg._CHECK_ENTRIES, a.size, 7, 1):
            monkeypatch.setattr(linalg, "_CHECK_ENTRIES", entries)
            assert np.array_equal(linalg._defect(a), whole, equal_nan=True)

    @pytest.mark.parametrize("vector", [False, True])
    def test_stack_names_the_first_member_that_fails(self, vector):
        """Checks run in order, finiteness first, and a failed one names the
        first member of the stack that fails it."""
        rng = np.random.default_rng(14)
        psi = rng.normal(size=(5, 8))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        states = psi if vector else psi[:, :, None] * psi[:, None, :]
        linalg._checked_state(states, stack=True)
        states[3] *= 2.0
        states[4] *= 3.0
        reason = "not normalized" if vector else "not trace-one"
        with pytest.raises(StackError, match=f"stack index 3: .*{reason}") as info:
            linalg._checked_state(states, stack=True)
        assert info.value.index == 3
        states[4, -1] = np.inf
        with pytest.raises(StackError, match="stack index 4: state has non-finite"):
            linalg._checked_state(states, stack=True)


def lone_cases():
    """Per public entry point that takes a lone problem: a call on arrays, a
    good and a bad lone input, and the reason the bad one fails."""
    h, n = np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 3.0])
    skew = h.copy()
    skew[0, 1] = 1.0
    rng = np.random.default_rng(30)
    h4 = rng.normal(size=(4, 4))
    h4 = h4 + h4.T
    skew4 = h4.copy()
    skew4[0, 1] += 1.0
    psi = np.linalg.eigh(h4)[1][:, 0]
    ch = lift_to_register(single_qubit_channel(ChannelSpec("dephasing")), 2)
    return {
        "generalized_eigensolve": (generalized_eigensolve, (h, np.eye(3)), (skew, np.eye(3)),
                                   "H is not Hermitian"),
        "solve_subspace": (lambda h, s: qse.solve_subspace(qse.SubspaceProblem(h, s)),
                           (h, np.eye(3)), (h, np.zeros((3, 3))),
                           "metric has no positive eigenvalues"),
        "project_symmetry": (lambda h, s, o: qse.project_symmetry(
            qse.SubspaceProblem(h, s, {"number": o}), "number", 2.0, 0.5),
            (h, np.eye(3), n), (h, np.eye(3), n + 4.0), "no subspace states"),
        "solve_vcs": (lambda h: vcs.solve_vcs(h, ch), (h4,), (skew4,),
                      "input is not Hermitian"),
        "no_variation_baseline": (lambda h, psi: vcs.no_variation_baseline(h, ch, psi),
                                  (h4, psi), (h4, 2.0 * psi), "not normalized to a unit vector"),
    }


@pytest.mark.parametrize("name", sorted(lone_cases()))
def test_lone_calls_fail_one_way(name):
    """A bad lone input raises a plain ValueError giving its reason alone, and
    the same input at index 1 of a stack of three a StackError naming index 1."""
    call, good, bad, reason = lone_cases()[name]
    call(*good)
    with pytest.raises(ValueError, match=reason) as info:
        call(*bad)
    assert type(info.value) is ValueError and "stack index" not in str(info.value)
    with pytest.raises(StackError, match=f"stack index 1: .*{reason}") as info:
        call(*map(np.stack, zip(good, bad, good)))
    assert info.value.index == 1
