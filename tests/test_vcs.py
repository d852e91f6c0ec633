import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kraus_oracle import identity_channel, kron_lift
from vcs_oracle import serial_baseline, serial_solve_vcs
from vcsqse import vcs
from vcsqse.channels import (CHANNEL_KINDS, ChannelSpec, KrausChannel,
                             apply_channel, lift_to_register, single_qubit_channel)
from vcsqse.vcs import (fidelity, no_variation_baseline, solve_vcs,
                        transform_hamiltonian)


def lifted(kind, r1=0.05, r2=0.05, n=4):
    return lift_to_register(single_qubit_channel(ChannelSpec(kind, r1, r2)), n)


def channel_energy(h, ch, psi):
    """Independent oracle: apply the Kraus map to the pure state, then trace."""
    rho = apply_channel(ch, np.outer(psi, psi.conj()), check=False)
    return float(np.real(np.trace(rho @ h)))


def ground_state(h):
    return np.linalg.eigh(h)[1][:, 0]


@pytest.fixture(scope="module")
def h2_dense(sweep_dense):
    return {r: h for r, h, _ in sweep_dense}


class TestTransform:
    def test_identity_channel(self, h2_dense):
        h = h2_dense[1.5]
        assert np.abs(transform_hamiltonian(h, identity_channel(16)) - h).max() < 1e-14

    def test_unitary_kraus_preserves_spectrum(self, h2_dense):
        rng = np.random.default_rng(0)
        h = h2_dense[1.5]
        q, _ = np.linalg.qr(rng.normal(size=(16, 16))
                            + 1j * rng.normal(size=(16, 16)))
        hp = transform_hamiltonian(h, KrausChannel([q]))
        assert np.abs(hp - q.conj().T @ h @ q).max() < 1e-12
        assert np.abs(np.linalg.eigvalsh(hp) - np.linalg.eigvalsh(h)).max() < 1e-10

    def test_hermitian_output(self, h2_dense):
        hp = transform_hamiltonian(h2_dense[1.0], lifted("amplitude_phase"))
        assert np.abs(hp - hp.conj().T).max() < 1e-12

    def test_dim_mismatch(self, h2_dense):
        with pytest.raises(ValueError, match="dim"):
            transform_hamiltonian(h2_dense[1.0], identity_channel(4))

    def test_variational_bound_random_states(self, h2_dense):
        rng = np.random.default_rng(1)
        h = h2_dense[1.2]
        ch = lifted("amplitude_phase")
        sol = solve_vcs(h, ch)
        for _ in range(300):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            assert channel_energy(h, ch, psi) >= sol.hprime_eigenvalue - 1e-10
        # the optimal input achieves the bound
        assert abs(channel_energy(h, ch, sol.input_state)
                   - sol.hprime_eigenvalue) < 1e-10

    def test_kraus_remixing_invariance(self, h2_dense):
        # K_i -> sum_j u_ij K_j leaves the channel, hence H', unchanged; the
        # remixed set is the register's explicit Kronecker products
        rng = np.random.default_rng(2)
        h = h2_dense[1.2]
        ch = lifted("dephasing")
        k = np.stack(kron_lift(single_qubit_channel(
            ChannelSpec("dephasing", 0.05, 0.05)), 4).kraus_ops)
        u, _ = np.linalg.qr(rng.normal(size=(len(k),) * 2)
                            + 1j * rng.normal(size=(len(k),) * 2))
        remixed = KrausChannel(list(np.einsum("ij,jab->iab", u, k)))
        w1 = np.linalg.eigvalsh(transform_hamiltonian(h, ch))
        w2 = np.linalg.eigvalsh(transform_hamiltonian(h, remixed))
        assert np.abs(w1 - w2).max() < 1e-10


class TestSolve:
    def test_identity_channel_recovers_exact_ground(self, h2_dense):
        h = h2_dense[0.7]
        sol = solve_vcs(h, identity_channel(16))
        assert abs(sol.energy - np.linalg.eigvalsh(h)[0]) < 1e-12
        assert abs(sol.fidelity_io - 1.0) < 1e-12

    def test_energy_equals_output_trace(self, h2_dense):
        h = h2_dense[2.0]
        sol = solve_vcs(h, lifted("depolarizing"))
        assert abs(sol.energy - np.real(np.trace(sol.output_rho @ h))) < 1e-12
        assert abs(np.linalg.norm(sol.input_state) - 1.0) < 1e-12

    def test_dephasing_fixed_point_for_basis_ground(self):
        # diagonal Hamiltonian: its ground state is a computational basis
        # state, which dephasing leaves untouched
        h = np.diag([-1.0, 0.3, 0.7, 1.1]).astype(complex)
        ch = lift_to_register(
            single_qubit_channel(ChannelSpec("dephasing", 0.0, 0.4)), 2)
        sol = solve_vcs(h, ch)
        assert abs(sol.fidelity_io - 1.0) < 1e-12
        assert abs(sol.energy + 1.0) < 1e-12

    def test_variational_dominance(self, h2_dense):
        for kind in ("dephasing", "amplitude_phase", "depolarizing"):
            ch = lifted(kind)
            for r in (0.5, 1.1, 2.4):
                h = h2_dense[r]
                assert (solve_vcs(h, ch).energy
                        <= no_variation_baseline(h, ch, ground_state(h)).energy
                        + 1e-12)

    def test_baseline_identity_channel_matches(self, h2_dense):
        h = h2_dense[1.3]
        ch = identity_channel(16)
        assert abs(solve_vcs(h, ch).energy
                   - no_variation_baseline(h, ch, ground_state(h)).energy) < 1e-12

    def test_penalty_expectation_monotone(self, h2_dense, sym_dense):
        h = h2_dense[2.7]
        ch = lifted("amplitude_phase")
        s2 = sym_dense["s_squared"]
        previous = np.inf
        for lam in (0.0, 1.0, 10.0, 100.0):
            sol = solve_vcs(h, ch, penalties=[("s_squared", 0.0, lam)])
            value = float(np.real(sol.input_state.conj() @ s2 @ s2
                                  @ sol.input_state))
            assert value <= previous + 1e-10
            previous = value

    def test_spin_symmetry_kink_and_repair(self, h2_dense):
        ch = lifted("amplitude_phase")
        kink = 0.0
        worst_pen = 0.0
        prev = None
        for r in sorted(h2_dense):
            sol = solve_vcs(h2_dense[r], ch, continuation=prev)
            prev = sol.input_state
            kink = max(kink, sol.symmetry_expectations["s_squared"])
            pen = solve_vcs(h2_dense[r], ch,
                            penalties=[("s_squared", 0.0, 100.0)])
            worst_pen = max(worst_pen, abs(pen.symmetry_expectations["s_squared"]))
        assert kink > 0.1
        assert worst_pen < 1e-3

    def test_continuation_smooths_degenerate_choice(self, h2_dense):
        # at stretched R the dephased problem has a near-degenerate block;
        # continuation keeps the overlap with the previous solution maximal
        ch = lifted("dephasing")
        sol_a = solve_vcs(h2_dense[2.9], ch)
        sol_b = solve_vcs(h2_dense[3.0], ch, continuation=sol_a.input_state)
        assert abs(np.vdot(sol_a.input_state, sol_b.input_state)) > 0.9

    def test_eight_qubit_amplitude_phase_solve(self):
        # the 4^8 lifted Kraus products of 256 x 256 would need 64 GiB; the
        # factor-wise kernel keeps the whole solve to a few MiB
        rng = np.random.default_rng(8)
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        h = a + a.conj().T
        ch = lifted("amplitude_phase", n=8)
        tracemalloc.start()
        try:
            sol = solve_vcs(h, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert abs(sol.energy - np.real(np.trace(sol.output_rho @ h))) < 1e-9
        assert abs(np.trace(sol.output_rho) - 1.0) < 1e-12
        for _ in range(20):
            psi = rng.normal(size=256) + 1j * rng.normal(size=256)
            psi /= np.linalg.norm(psi)
            assert channel_energy(h, ch, psi) >= sol.hprime_eigenvalue - 1e-9

    def test_negative_penalty_rejected(self, h2_dense):
        with pytest.raises(ValueError, match="non-negative"):
            solve_vcs(h2_dense[1.0], lifted("dephasing"),
                      penalties=[("number", 2.0, -1.0)])


class TestBaseline:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(CHANNEL_KINDS), r=st.sampled_from([0.5, 1.5, 3.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_energy_is_the_channel_output_energy(self, h2_dense, kind, r, seed):
        """Any unit input goes through as given; the reference energy traces
        H against the explicit Kronecker-product Kraus sum."""
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        h = h2_dense[r]
        base = no_variation_baseline(h, lifted(kind), psi)
        oracle = kron_lift(single_qubit_channel(ChannelSpec(kind, 0.05, 0.05)), 4)
        assert abs(base.energy - channel_energy(h, oracle, psi)) < 1e-12
        assert np.array_equal(base.input_state, psi)
        assert abs(base.hprime_eigenvalue - np.real(psi.conj() @ h @ psi)) < 1e-12
        assert not base.continuation_used

    def test_rejects_a_state_that_is_not_a_unit_vector(self, h2_dense):
        h, ch = h2_dense[1.0], lifted("dephasing")
        for state in (2 * ground_state(h), ground_state(h)[:8]):
            with pytest.raises(ValueError, match="unit vector"):
                no_variation_baseline(h, ch, state)


class TestFidelity:
    def test_pure_state_self_fidelity(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        assert abs(fidelity(np.outer(v, v.conj()), v) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert abs(fidelity(np.eye(8) / 8, v) - 1 / 8) < 1e-12

    def test_dephased_ground_state_below_one_when_stretched(self, h2_dense):
        h = h2_dense[2.5]
        ch = lifted("dephasing")
        w, v = np.linalg.eigh(h)
        rho = apply_channel(ch, np.outer(v[:, 0], v[:, 0].conj()))
        assert fidelity(rho, v[:, 0]) < 1.0 - 1e-4

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(4) / 4, np.array([1.0, 0.0]))


def random_unit(rng, dim, complex_):
    psi = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_ else 0.0)
    return psi / np.linalg.norm(psi)


def planted_stack(rng, p, m, complex_):
    """p Hermitian matrices of dim 2^m: random ones, ones whose lowest level
    is repeated 2..dim times in a random basis, and multiples of the identity."""
    dim = 2 ** m
    hs = []
    for kind in rng.integers(0, 3, size=p):
        a = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim))
                                           if complex_ else 0.0)
        if kind == 0:
            hs.append(a + a.conj().T)
        elif kind == 1:
            w = np.sort(rng.normal(size=dim))
            w[:rng.integers(2, dim + 1)] = w[0]
            q = np.linalg.qr(a)[0]
            hs.append((q * w) @ q.conj().T)
        else:
            hs.append(rng.normal() * np.eye(dim))
    return np.stack(hs)


def assert_same_solutions(got, want, tol=0.0):
    """Equal solutions: bit for bit, or within tol relative to each entry or
    number's scale (at least 1)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in ((g.input_state, w.input_state), (g.output_rho, w.output_rho),
                     (g.energy, w.energy), (g.fidelity_io, w.fidelity_io),
                     (g.hprime_eigenvalue, w.hprime_eigenvalue),
                     (list(g.symmetry_expectations.values()),
                      list(w.symmetry_expectations.values()))):
            assert np.shape(a) == np.shape(b)
            scale = max(1.0, np.abs(b).max(initial=0.0))
            assert np.abs(np.subtract(a, b)).max(initial=0.0) <= tol * scale
        assert g.symmetry_expectations.keys() == w.symmetry_expectations.keys()
        assert g.continuation_used == w.continuation_used


class TestStackedSolve:
    """A stack solves as the per-matrix loop of vcs_oracle does, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 6), m=st.sampled_from([2, 4]), complex_=st.booleans(),
           kind=st.sampled_from(CHANNEL_KINDS), ratio=st.sampled_from([0.0, 0.05, 0.4]),
           penalized=st.booleans(), continued=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_serial_oracle(self, p, m, complex_, kind, ratio, penalized,
                                   continued, seed):
        # at ratio 0 every channel is the identity, so H' keeps the planted
        # degenerate blocks and continuation decides the ground vector; M is
        # even, as the <S^2> diagnostic needs spin orbitals in pairs
        rng = np.random.default_rng(seed)
        hs = planted_stack(rng, p, m, complex_)
        ch = lifted(kind, ratio, ratio, n=m)
        penalties = []
        if penalized:
            penalties = [("number", float(rng.integers(0, m + 1)), 2.0),
                         ("s_squared", 0.0, 3.0)]
        start = random_unit(rng, 2 ** m, complex_) if continued else None
        # a complex phase pivot / |pivot| rounds differently as numpy scalars
        # (per matrix) and as an array (per stack)
        tol = 1e-14 if complex_ else 0.0
        stacked = solve_vcs(hs, ch, penalties=penalties, continuation=start)
        assert_same_solutions(stacked, serial_solve_vcs(hs, ch, penalties, start), tol)
        states = [random_unit(rng, 2 ** m, complex_) for _ in range(p)]
        assert_same_solutions(no_variation_baseline(hs, ch, states),
                              serial_baseline(hs, ch, states))

    def test_sweep_curve_uses_continuation(self, h2_dense):
        """The dephased H2 sweep has degenerate blocks that the chain resolves."""
        hs = [h2_dense[r] for r in sorted(h2_dense)]
        ch = lifted("dephasing")
        stacked = solve_vcs(hs, ch)
        assert_same_solutions(stacked, serial_solve_vcs(hs, ch))
        assert sum(sol.continuation_used for sol in stacked) > 0

    def test_chunks_chain_like_one_stack(self, h2_dense, monkeypatch):
        hs = np.stack([h2_dense[r] for r in sorted(h2_dense)])
        ch = lifted("amplitude_phase")
        whole = solve_vcs(hs, ch)
        monkeypatch.setattr(vcs, "STACK_BYTE_LIMIT", 3 * 16 * hs[0].size)
        assert_same_solutions(solve_vcs(hs, ch), whole)
        assert_same_solutions(solve_vcs(list(hs), ch), whole)

    def test_single_matrix_is_a_stack_of_one(self, h2_dense):
        h, ch = h2_dense[2.1], lifted("depolarizing")
        assert_same_solutions([solve_vcs(h, ch)], solve_vcs(h[None], ch))
        assert_same_solutions([solve_vcs(h, ch)], serial_solve_vcs([h], ch))

    @pytest.mark.parametrize("defect", ["asymmetric", "non-finite"])
    def test_failure_names_its_stack_index(self, h2_dense, monkeypatch, defect):
        hs = np.stack([h2_dense[r] for r in sorted(h2_dense)[:10]])
        ch = lifted("dephasing")
        # three matrices per chunk, so index 4 and 9 sit in later chunks
        monkeypatch.setattr(vcs, "STACK_BYTE_LIMIT", 3 * 16 * hs[0].size)
        for i in (0, 4, 9):
            bad = hs.copy()
            if defect == "asymmetric":
                bad[i, 0, 1] += 1.0
            else:
                bad[i, 3, 3] = np.nan
            reason = "not Hermitian" if defect == "asymmetric" else "non-finite"
            with pytest.raises(ValueError, match=f"stack index {i}: .*{reason}"):
                solve_vcs(bad, ch)

    def test_baseline_names_a_bad_state(self, h2_dense):
        hs = np.stack([h2_dense[r] for r in (0.5, 1.0, 1.5)])
        states = [ground_state(h) for h in hs]
        states[2] = 2 * states[2]
        with pytest.raises(ValueError, match="stack index 2: .*unit vector"):
            no_variation_baseline(hs, lifted("dephasing"), states)

    def test_chunked_memory_is_bounded(self):
        """The extra peak of a stacked solve is set by the chunk, not by the
        stack: one chunk plus one matrix and three chunks plus one peak alike."""
        rng = np.random.default_rng(6)
        m, dim = 6, 64
        per_chunk = vcs.STACK_BYTE_LIMIT // (16 * dim * dim)
        ch = lifted("amplitude_phase", n=m)
        extra = []
        for chunks in (1, 3):
            a = rng.normal(size=(chunks * per_chunk + 1, dim, dim))
            hs = a + a.transpose(0, 2, 1)
            tracemalloc.start()
            try:
                sols = solve_vcs(hs, ch)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # kept: the solutions, one dim x dim output state per matrix
            assert len(sols) == len(hs) and kept >= len(hs) * dim * dim * 8
            extra.append(peak - kept)
        assert extra[1] < 1.1 * extra[0]
        assert max(extra) < 4 * vcs.STACK_BYTE_LIMIT
