import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kraus_oracle import identity_channel, kron_lift
from vcsqse.channels import (CHANNEL_KINDS, TRANSFER_BYTE_LIMIT, ChannelSpec,
                             KrausChannel, apply_channel, channel_kind_from_token,
                             lift_to_register, single_qubit_channel)
from vcsqse.vcs import transform_hamiltonian

RATIO_GRID = (0.0, 0.01, 0.05, 0.2, 1.0)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def dephasing_closed_form(rho, r2):
    out = np.array(rho, dtype=complex)
    out[0, 1] *= np.exp(-r2)
    out[1, 0] *= np.exp(-r2)
    return out


def amplitude_phase_closed_form(rho, r1, r2):
    p = 1.0 - np.exp(-r1)
    return np.array([[rho[0, 0] + p * rho[1, 1], np.exp(-r2) * rho[0, 1]],
                     [np.exp(-r2) * rho[1, 0], np.exp(-r1) * rho[1, 1]]])


def depolarizing_closed_form(rho, r2):
    p = 1.0 - np.exp(-r2)
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    out = (1 - p) * np.array(rho, dtype=complex)
    for sigma in paulis:
        out += (p / 3.0) * sigma @ rho @ sigma.conj().T
    return out


class TestSingleQubitChannels:
    def test_dephasing_scales_coherence(self):
        rng = np.random.default_rng(0)
        for r2 in RATIO_GRID:
            ch = single_qubit_channel(ChannelSpec("dephasing", 0.0, r2))
            rho = random_density(rng, 2)
            out = apply_channel(ch, rho)
            assert np.abs(out - dephasing_closed_form(rho, r2)).max() < 1e-12

    def test_amplitude_damping_populations(self):
        spec = ChannelSpec("amplitude_phase", 0.3, 0.15)
        ch = single_qubit_channel(spec)
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = apply_channel(ch, rho)
        p = 1.0 - np.exp(-0.3)
        assert np.abs(out - np.diag([p, 1 - p])).max() < 1e-12

    def test_amplitude_phase_closed_form_grid(self):
        rng = np.random.default_rng(1)
        for r1 in RATIO_GRID:
            for r2 in RATIO_GRID:
                if r2 < 0.5 * r1:
                    continue  # unphysical: T2 > 2 T1
                ch = single_qubit_channel(ChannelSpec("amplitude_phase", r1, r2))
                rho = random_density(rng, 2)
                out = apply_channel(ch, rho)
                assert np.abs(out - amplitude_phase_closed_form(rho, r1, r2)).max() < 1e-12

    def test_amplitude_phase_rejects_unphysical_ratios(self):
        with pytest.raises(ValueError, match="T2 <= 2 T1"):
            single_qubit_channel(ChannelSpec("amplitude_phase", 1.0, 0.0))

    def test_depolarizing_closed_form_grid(self):
        rng = np.random.default_rng(2)
        for r2 in RATIO_GRID:
            ch = single_qubit_channel(ChannelSpec("depolarizing", 0.0, r2))
            rho = random_density(rng, 2)
            out = apply_channel(ch, rho)
            assert np.abs(out - depolarizing_closed_form(rho, r2)).max() < 1e-12

    def test_depolarizing_zero_time_is_identity(self):
        ch = single_qubit_channel(ChannelSpec("depolarizing", 0.0, 0.0))
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        assert np.abs(apply_channel(ch, rho) - rho).max() < 1e-14

    def test_cptp_over_random_states(self):
        rng = np.random.default_rng(4)
        chans = [single_qubit_channel(ChannelSpec(kind, 0.05, 0.05))
                 for kind in ("dephasing", "amplitude_phase", "depolarizing")]
        for _ in range(1000):
            rho = random_density(rng, 2)
            for ch in chans:
                out = apply_channel(ch, rho)
                assert abs(np.trace(out) - 1.0) < 1e-12
                assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_linearity(self):
        rng = np.random.default_rng(5)
        ch = single_qubit_channel(ChannelSpec("amplitude_phase", 0.1, 0.2))
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        mix = 0.3 * r1 + 0.7 * r2
        out = apply_channel(ch, mix)
        parts = 0.3 * apply_channel(ch, r1) + 0.7 * apply_channel(ch, r2)
        assert np.abs(out - parts).max() < 1e-12


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel([0.5 * np.eye(2)])

    def test_needs_at_least_one_operator(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel([])

    def test_dims_must_agree(self):
        with pytest.raises(ValueError, match="equal dims"):
            KrausChannel([np.eye(2), np.eye(4)])

    def test_transfer_guard_rejects_before_allocating(self):
        """A one-factor 8-qubit set would need a 64 GiB transfer matrix."""
        ops = [np.eye(256, dtype=complex)]
        need = 256 ** 4 * 16
        assert need > TRANSFER_BYTE_LIMIT
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"needs {need} bytes"):
                KrausChannel(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the 4-qubit Kronecker oracle's size stays accepted
        assert KrausChannel([np.eye(16)]).transfer.shape == (256, 256)

    def test_arrays_are_read_only_copies(self):
        """A caller's later write reaches neither kraus_ops nor transfer, and
        neither can be written through the channel."""
        ops = [np.sqrt(0.5) * np.eye(2, dtype=complex),
               np.sqrt(0.5) * np.diag([1.0, -1.0]).astype(complex)]
        ch = KrausChannel(ops)
        ops[0][0, 0] = 7.0
        assert isinstance(ch.kraus_ops, tuple)
        assert ch.kraus_ops[0][0, 0] == np.sqrt(0.5)
        for arr in (*ch.kraus_ops, ch.transfer):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            ChannelSpec("thermal", 0.1, 0.1)
        with pytest.raises(ValueError, match="non-negative"):
            ChannelSpec("dephasing", -0.1, 0.1)

    def test_kind_tokens(self):
        assert channel_kind_from_token("ap") == "amplitude_phase"
        assert channel_kind_from_token("depol") == "depolarizing"
        with pytest.raises(ValueError):
            channel_kind_from_token("white-noise")


class TestLift:
    def test_identity_lift(self):
        ch = lift_to_register(identity_channel(), 3)
        assert (ch.dim, ch.factors, len(ch.kraus_ops)) == (8, 3, 1)
        rho = random_density(np.random.default_rng(10), 8)
        assert np.abs(apply_channel(ch, rho) - rho).max() == 0

    def test_bell_state_coherence(self):
        r2 = 0.3
        ch = lift_to_register(
            single_qubit_channel(ChannelSpec("dephasing", 0.0, r2)), 2)
        bell = np.zeros(4, dtype=complex)
        bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = apply_channel(ch, rho)
        # both qubits dephase independently: coherence picks up e^{-2 r2}
        assert abs(out[0, 3] - 0.5 * np.exp(-2 * r2)) < 1e-12
        assert abs(out[0, 0] - 0.5) < 1e-12

    def test_completeness_after_lift(self):
        # sum over all register Kraus products of K^dag K is the identity
        for kind in CHANNEL_KINDS:
            ch = lift_to_register(
                single_qubit_channel(ChannelSpec(kind, 0.05, 0.05)), 3)
            total = transform_hamiltonian(np.eye(8), ch)
            assert np.abs(total - np.eye(8)).max() < 1e-12

    def test_guards(self):
        with pytest.raises(ValueError, match="single-qubit"):
            lift_to_register(identity_channel(4), 2)
        depol = single_qubit_channel(ChannelSpec("depolarizing", 0.0, 0.1))
        with pytest.raises(ValueError, match="at least 1"):
            lift_to_register(depol, 0)

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_one_checked_set_per_lifted_channel(self, monkeypatch, kind):
        """Building and lifting a channel constructs one KrausChannel, and the
        lifted channel shares the per-qubit channel's arrays."""
        calls = []
        init = KrausChannel.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(kwargs.get("label"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(KrausChannel, "__init__", counting_init)
        single = single_qubit_channel(ChannelSpec(kind, 0.05, 0.05))
        lifted = lift_to_register(single, 4)
        assert calls == [kind]
        assert lifted.transfer is single.transfer
        assert lifted.kraus_ops is single.kraus_ops
        assert (lifted.dim, lifted.factors, single.dim, single.factors) == (16, 4, 2, 1)

    def test_lift_holds_only_the_per_qubit_set(self):
        # the 4^8 products of 256 x 256 would take 64 GiB
        depol = single_qubit_channel(ChannelSpec("depolarizing", 0.0, 0.1))
        ch = lift_to_register(depol, 8)
        assert (ch.dim, ch.factors) == (256, 8)
        assert [k.shape for k in ch.kraus_ops] == [(2, 2)] * 4
        assert sum(k.nbytes for k in ch.kraus_ops) == 4 * 4 * 16

    def test_factorwise_matches_lifted_application(self):
        rng = np.random.default_rng(9)
        for kind in CHANNEL_KINDS:
            single = single_qubit_channel(ChannelSpec(kind, 0.05, 0.08))
            lazy, oracle = lift_to_register(single, 3), kron_lift(single, 3)
            rho = random_density(rng, 8)
            assert np.abs(apply_channel(lazy, rho)
                          - apply_channel(oracle, rho)).max() < 1e-12
            h = random_hermitian(rng, 8)
            assert np.abs(transform_hamiltonian(h, lazy)
                          - transform_hamiltonian(h, oracle)).max() < 1e-12

    def test_factorwise_beyond_lift_guard(self):
        # 4^9 product Kraus operators are never formed; the maximally mixed
        # state is a fixed point of the unital depolarizing channel
        depol = single_qubit_channel(ChannelSpec("depolarizing", 0.0, 0.1))
        dim = 1 << 9
        rho = np.eye(dim, dtype=complex) / dim
        out = apply_channel(lift_to_register(depol, 9), rho)
        assert np.abs(out - rho).max() < 1e-15

    def test_factorwise_needs_single_qubit(self):
        # a lifted channel is not a single-qubit channel and cannot be lifted again
        pair = lift_to_register(identity_channel(), 2)
        with pytest.raises(ValueError, match="single-qubit"):
            lift_to_register(pair, 2)

    def test_apply_channel_validation(self):
        ch = identity_channel(2)
        with pytest.raises(ValueError, match="dim"):
            apply_channel(ch, np.eye(4) / 4)
        with pytest.raises(ValueError, match="Hermitian"):
            apply_channel(ch, np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="trace"):
            apply_channel(ch, np.eye(2))
        with pytest.raises(ValueError, match="positive"):
            apply_channel(ch, np.diag([1.5, -0.5]))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CHANNEL_KINDS), n=st.integers(1, 4),
       r1=st.floats(0.0, 2.0), dephasing_excess=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lazy_lift_matches_kronecker_oracle(kind, n, r1, dephasing_excess, seed):
    """Both channel directions agree with the 4^n Kronecker products.

    tp/T2 = tp/(2 T1) + excess keeps T2 <= 2 T1, the amplitude-phase domain.
    """
    single = single_qubit_channel(ChannelSpec(kind, r1, r1 / 2 + dephasing_excess))
    lazy, oracle = lift_to_register(single, n), kron_lift(single, n)
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 1 << n)
    h = random_hermitian(rng, 1 << n)
    assert np.abs(apply_channel(lazy, rho) - apply_channel(oracle, rho)).max() <= 1e-12
    assert np.abs(transform_hamiltonian(h, lazy)
                  - transform_hamiltonian(h, oracle)).max() <= 1e-12


def random_kraus_set(rng, dim, count):
    """count Kraus operators cut from a random (count * dim) x dim isometry."""
    a = (rng.normal(size=(count * dim, dim))
         + 1j * rng.normal(size=(count * dim, dim)))
    iso, _ = np.linalg.qr(a)
    return [iso[i * dim:(i + 1) * dim] for i in range(count)]


def dense_kraus_sums(ops, rho, h):
    """sum K rho K^dag and sum K^dag H K, one Kraus operator at a time."""
    return (sum(k @ rho @ k.conj().T for k in ops),
            sum(k.conj().T @ h @ k for k in ops))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 4, 8]), count=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_transfer_kernel_matches_dense_kraus_sum(dim, count, seed):
    """Both directions of a random explicit channel agree with the Kraus sums."""
    rng = np.random.default_rng(seed)
    ch = KrausChannel(random_kraus_set(rng, dim, count))
    rho, h = random_density(rng, dim), random_hermitian(rng, dim)
    want_rho, want_h = dense_kraus_sums(ch.kraus_ops, rho, h)
    assert np.abs(apply_channel(ch, rho) - want_rho).max() <= 1e-12
    assert np.abs(transform_hamiltonian(h, ch) - want_h).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 3), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lifted_transfer_kernel_matches_dense_kraus_sum(count, n, seed):
    """A random single-qubit set on n factors agrees with the Kraus sums over
    all count^n Kronecker products."""
    rng = np.random.default_rng(seed)
    single = KrausChannel(random_kraus_set(rng, 2, count))
    rho, h = random_density(rng, 1 << n), random_hermitian(rng, 1 << n)
    want_rho, want_h = dense_kraus_sums(kron_lift(single, n).kraus_ops, rho, h)
    lazy = lift_to_register(single, n)
    assert np.abs(apply_channel(lazy, rho) - want_rho).max() <= 1e-12
    assert np.abs(transform_hamiltonian(h, lazy) - want_h).max() <= 1e-12
