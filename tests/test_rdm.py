import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdm_oracle
from pauli_oracle import apply_estimate_pauli, kron_dense, letter_pauli_action
from vcsqse import experiments, rdm
from vcsqse.molecule import assemble_hamiltonian, spin_orbital_tensors
from vcsqse.operators import (FermionOperator, PauliOperator, _signed_permutation,
                              _word_masks, fermion_to_dense, jordan_wigner,
                              pauli_action)
from vcsqse.rdm import (compute_rdms, contract_energy, cumulants_from_rdms,
                        estimate_pauli, reconstruct_rdms, sample_rdms, wedge)


def random_state(rng, m):
    v = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    return v / np.linalg.norm(v)


def random_sector_state(rng, m, n_e):
    v = np.zeros(1 << m, dtype=complex)
    idx = [b for b in range(1 << m) if bin(b).count("1") == n_e]
    v[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    return v / np.linalg.norm(v)


def rotated_slater(rng, m, n_e):
    """Random one-body rotation of the lowest-modes determinant."""
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    herm = 0.5 * (a + a.conj().T)
    gen = FermionOperator(m)
    for p in range(m):
        for q in range(m):
            gen.terms[((p, True), (q, False))] = 1j * herm[p, q]
    gd = fermion_to_dense(gen)
    w, v = np.linalg.eigh(-1j * gd)  # gd = i * (dense hermitian)
    expo = v @ np.diag(np.exp(1j * w)) @ v.conj().T
    det = np.zeros(1 << m, dtype=complex)
    det[(1 << n_e) - 1] = 1.0
    out = expo @ det
    return out / np.linalg.norm(out)


class TestComputeRdms:
    def test_occupation_state(self):
        state = np.zeros(16)
        state[0b0011] = 1.0  # modes 0 and 1 occupied
        rdms = compute_rdms(state, 1)
        assert np.abs(rdms.d1 - np.diag([1.0, 1.0, 0.0, 0.0])).max() < 1e-14

    def test_elements_match_dense_trace_formula(self):
        from math import factorial
        rng = np.random.default_rng(0)
        m = 4
        state = random_state(rng, m)
        rdms = compute_rdms(state, 3)
        for k, tuples in ((1, [((0,), (2,))]),
                          (2, [((0, 1), (2, 3)), ((1, 3), (1, 3))]),
                          (3, [((0, 1, 2), (0, 1, 3))])):
            for upper, lower in tuples:
                text = (" ".join(f"{i}^" for i in upper) + " "
                        + " ".join(str(j) for j in reversed(lower)))
                opd = fermion_to_dense(FermionOperator.from_term(text, 1.0, m))
                oracle = (state.conj() @ opd @ state) / factorial(k)
                assert abs(rdms.d(k)[upper + lower] - oracle) < 1e-12

    def test_trace_gives_particle_number(self):
        rng = np.random.default_rng(1)
        state = random_sector_state(rng, 4, 2)
        rdms = compute_rdms(state, 1)
        assert abs(np.trace(rdms.d1) - 2.0) < 1e-10

    def test_d2_contraction_identity(self):
        rng = np.random.default_rng(2)
        for n_e in (1, 2, 3):
            state = random_sector_state(rng, 4, n_e)
            rdms = compute_rdms(state, 2)
            total = np.einsum("ijij->", rdms.d2)
            assert abs(total - n_e * (n_e - 1) / 2) < 1e-10

    def test_d2_partial_trace(self):
        rng = np.random.default_rng(3)
        state = random_sector_state(rng, 4, 3)
        rdms = compute_rdms(state, 2)
        lhs = np.einsum("ijkj->ik", rdms.d2)
        assert np.abs(lhs - 1.0 * rdms.d1).max() < 1e-10  # (N-1)/2 = 1 for N=3

    def test_pure_equals_rank_one_density(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 3)
        a = compute_rdms(state, 2)
        b = compute_rdms(np.outer(state, state.conj()), 2)
        assert np.abs(a.d1 - b.d1).max() < 1e-12
        assert np.abs(a.d2 - b.d2).max() < 1e-12

    def test_mixed_state_is_weighted_sum(self):
        rng = np.random.default_rng(5)
        s1, s2 = random_state(rng, 3), random_state(rng, 3)
        rho = 0.25 * np.outer(s1, s1.conj()) + 0.75 * np.outer(s2, s2.conj())
        mixed = compute_rdms(rho, 2)
        blend = 0.25 * compute_rdms(s1, 2).d2 + 0.75 * compute_rdms(s2, 2).d2
        assert np.abs(mixed.d2 - blend).max() < 1e-12

    def test_antisymmetry_and_hermiticity(self):
        rng = np.random.default_rng(6)
        rdms = compute_rdms(random_state(rng, 4), 2)
        d2 = rdms.d2
        assert np.abs(d2 + d2.transpose(1, 0, 2, 3)).max() < 1e-12
        assert np.abs(d2 + d2.transpose(0, 1, 3, 2)).max() < 1e-12
        assert np.abs(d2 - d2.transpose(2, 3, 0, 1).conj()).max() < 1e-12

    def test_guards(self):
        with pytest.raises(ValueError, match="normalized"):
            compute_rdms(np.ones(4), 1)
        with pytest.raises(ValueError, match="max_k"):
            compute_rdms(np.array([1.0, 0.0]), 5)
        with pytest.raises(ValueError, match="limited"):
            compute_rdms(np.eye(1 << 9)[0].astype(complex), 4)


class TestWedge:
    def test_printed_two_index_formula(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w = wedge(a, a)
        for i1, i2, j1, j2 in [(0, 1, 2, 3), (1, 3, 0, 2), (2, 2, 1, 0)]:
            expected = 0.5 * (a[i1, j1] * a[i2, j2] - a[i1, j2] * a[i2, j1])
            assert abs(w[i1, i2, j1, j2] - expected) < 1e-12

    def test_zero_factor(self):
        a = np.ones((3, 3))
        assert np.abs(wedge(a, np.zeros((3, 3)))).max() == 0

    def test_output_antisymmetry(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3, 3, 3))
        b = rng.normal(size=(3, 3))
        w = wedge(a, b)  # rank (3,3)
        assert np.abs(w + w.transpose(1, 0, 2, 3, 4, 5)).max() < 1e-12
        assert np.abs(w + w.transpose(0, 2, 1, 3, 4, 5)).max() < 1e-12
        assert np.abs(w + w.transpose(0, 1, 2, 4, 3, 5)).max() < 1e-12

    def test_bilinear(self):
        rng = np.random.default_rng(9)
        a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
        lhs = wedge(a, 2.0 * b + c)
        rhs = 2.0 * wedge(a, b) + wedge(a, c)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_associative(self):
        rng = np.random.default_rng(10)
        a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert np.abs(lhs - rhs).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 5), ka=st.integers(1, 3), kb=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_packed_wedge_matches_full_tensor_oracle(m, ka, kb, seed):
    """Random factors that are not antisymmetric, m + n <= 4, M <= 5."""
    kb = min(kb, 4 - ka)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m,) * (2 * ka)) + 1j * rng.normal(size=(m,) * (2 * ka))
    b = rng.normal(size=(m,) * (2 * kb)) + 1j * rng.normal(size=(m,) * (2 * kb))
    assert np.abs(wedge(a, b) - rdm_oracle.wedge(a, b)).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 5), k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_pack_then_expand_returns_antisymmetric_input(m, k, seed):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(m,) * (2 * k)) + 1j * rng.normal(size=(m,) * (2 * k))
    anti = rdm_oracle.antisymmetrize(t, k)
    back = rdm._expand(rdm._pack(anti, k), m, k)
    assert np.abs(back - anti).max() < 1e-12


def test_packed_block_holds_the_sorted_tuple_elements():
    """packed[I, J] = D[I, J] at sorted tuples, with no extra factor."""
    rdms = compute_rdms(random_state(np.random.default_rng(30), 5), 3)
    combos = list(combinations(range(5), 3))
    d3 = rdms.d(3)
    for a, upper in enumerate(combos):
        for b, lower in enumerate(combos):
            assert rdms.blocks[2][a, b] == d3[upper + lower]


class TestCumulants:
    def test_slater_determinant_cumulants_vanish(self):
        rng = np.random.default_rng(11)
        state = rotated_slater(rng, 4, 2)
        cums = cumulants_from_rdms(compute_rdms(state, 4))
        assert np.abs(cums.c2).max() < 1e-10
        assert np.abs(cums.c3).max() < 1e-10
        assert np.abs(cums.c4).max() < 1e-10

    def test_slater_d2_is_wedge_square(self):
        rng = np.random.default_rng(12)
        state = rotated_slater(rng, 4, 2)
        rdms = compute_rdms(state, 2)
        assert np.abs(rdms.d2 - wedge(rdms.d1, rdms.d1)).max() < 1e-10

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(13)
        rdms = compute_rdms(random_state(rng, 4), 4)
        back = reconstruct_rdms(cumulants_from_rdms(rdms), 4)
        for k in (1, 2, 3, 4):
            assert np.abs(back.d(k) - rdms.d(k)).max() < 1e-12

    def test_vacuum_cumulants_zero(self):
        vac = np.zeros(16)
        vac[0] = 1.0
        cums = cumulants_from_rdms(compute_rdms(vac, 4))
        for k in (1, 2, 3, 4):
            assert np.abs(cums.c(k)).max() < 1e-14

    def test_slater_truncated_reconstruction_exact(self):
        rng = np.random.default_rng(14)
        state = rotated_slater(rng, 4, 2)
        rdms = compute_rdms(state, 4)
        rec = reconstruct_rdms(cumulants_from_rdms(
            compute_rdms(state, 2)), 2)
        assert np.abs(rec.d3 - rdms.d3).max() < 1e-10
        assert np.abs(rec.d4 - rdms.d4).max() < 1e-10

    def test_correlated_truncation_is_approximate(self, sweep_dense):
        # stretched H2 ground state: zeroed 3-cumulant changes the 3-RDM
        h = dict((r, m) for r, m, _ in sweep_dense)[2.5]
        w, v = np.linalg.eigh(h)
        rdms = compute_rdms(v[:, 0], 4)
        rec = reconstruct_rdms(cumulants_from_rdms(rdms), 2)
        assert np.abs(rec.d3 - rdms.d3).max() > 1e-4

    def test_m8_cumulants_and_reconstruction_stay_packed(self, monkeypatch):
        """M = 8 through the 4-RDM: no block is expanded to a full tensor."""
        expanded = []
        real = rdm._expand
        monkeypatch.setattr(rdm, "_expand",
                            lambda block, m, k: expanded.append(k) or real(block, m, k))
        state = random_sector_state(np.random.default_rng(31), 8, 4)
        tracemalloc.start()
        try:
            rec = reconstruct_rdms(cumulants_from_rdms(compute_rdms(state, 4)), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert expanded == []
        assert [b.shape for b in rec.blocks] == [(8, 8), (28, 28), (56, 56), (70, 70)]
        assert peak < 200 << 20

    def test_zero_above_validation(self):
        rng = np.random.default_rng(15)
        cums = cumulants_from_rdms(compute_rdms(random_state(rng, 3), 2))
        with pytest.raises(ValueError, match="zero_above"):
            reconstruct_rdms(cums, 1)
        with pytest.raises(ValueError, match="order"):
            reconstruct_rdms(cums, 3)


class TestContraction:
    def test_vacuum_energy_is_core(self):
        vac = np.zeros(16)
        vac[0] = 1.0
        rdms = compute_rdms(vac, 2)
        h1 = np.zeros((4, 4))
        h2 = np.zeros((4, 4, 4, 4))
        assert contract_energy(h1, h2, rdms, core_energy=0.42) == pytest.approx(0.42)

    def test_random_state_matches_dense_expectation(self, sweep_points):
        rng = np.random.default_rng(16)
        ints = sweep_points[8].integrals
        h1, h2, core = spin_orbital_tensors(ints)
        dense = fermion_to_dense(assemble_hamiltonian(ints))
        for _ in range(5):
            state = random_state(rng, 4)
            rdms = compute_rdms(state, 2)
            assert abs(contract_energy(h1, h2, rdms, core)
                       - np.real(state.conj() @ dense @ state)) < 1e-10

    def test_hubbard_atom_double_occupation(self):
        eps, u = -0.6, 2.3
        h1 = np.diag([eps, eps])
        h2 = np.zeros((2, 2, 2, 2))
        # 1/2 sum h2 a^ a^ a a with n_a n_b coefficient pattern
        h2[0, 1, 1, 0] = h2[1, 0, 0, 1] = u
        state = np.zeros(4)
        state[0b11] = 1.0
        rdms = compute_rdms(state, 2)
        assert abs(contract_energy(h1, h2, rdms) - (2 * eps + u)) < 1e-12


class TestEstimatePauli:
    def test_eigenstate_is_exact_with_zero_stderr(self):
        state = np.zeros(4)
        state[0] = 1.0  # Z0 eigenstate, eigenvalue +1
        est, err = estimate_pauli(state, PauliOperator(2, {"ZI": 1.0}), 500, 3)
        assert est == 1.0 and err == 0.0

    def test_counting_matches_the_plus_minus_one_samples(self):
        """Same mean bit for bit; stderr to a few ulps of the ddof=1 form."""
        rng = np.random.default_rng(26)
        for case in range(20):
            state = random_state(rng, 2)
            p = PauliOperator(2, {"XZ": 1.0})
            exact = float(np.real(state.conj() @ kron_dense(p) @ state))
            shots = int(rng.integers(2, 5000))
            draws = np.random.default_rng(case).random(shots)
            samples = np.where(draws < (1.0 + exact) / 2.0, 1.0, -1.0)
            est, err = estimate_pauli(state, p, shots, case)
            assert est == float(samples.mean())
            ref = float(samples.std(ddof=1) / np.sqrt(shots))
            assert abs(err - ref) <= 1e-14 * ref

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(19)
        state = random_state(rng, 2)
        p = PauliOperator(2, {"XY": 1.0})
        a = estimate_pauli(state, p, 2000, 42)
        b = estimate_pauli(state, p, 2000, 42)
        assert a == b

    def test_statistical_bound(self):
        rng = np.random.default_rng(20)
        shots = 10_000
        letters = "IXYZ"
        for case in range(100):
            state = random_state(rng, 3)
            word = "".join(rng.choice(list(letters)) for _ in range(3))
            if word == "III":
                word = "ZII"
            p = PauliOperator(3, {word: 1.0})
            exact = float(np.real(state.conj() @ kron_dense(p) @ state))
            est, _ = estimate_pauli(state, p, shots, seed=case)
            assert abs(est - exact) <= 5.0 / np.sqrt(shots)

    def test_rejects_sums_and_bad_shots(self):
        state = np.array([1.0, 0.0])
        p = PauliOperator(1, {"X": 1.0, "Z": 1.0})
        with pytest.raises(ValueError, match="single"):
            estimate_pauli(state, p, 10, 0)
        with pytest.raises(ValueError, match="shots"):
            estimate_pauli(state, PauliOperator(1, {"Z": 1.0}), 0, 0)
        with pytest.raises(ValueError, match="dimension"):
            estimate_pauli(np.full(8, 8 ** -0.5), PauliOperator(2, {"ZZ": 1.0}), 10, 0)

    def test_density_matrix_input(self):
        rng = np.random.default_rng(21)
        state = random_state(rng, 2)
        rho = np.outer(state, state.conj())
        a, _ = estimate_pauli(state, PauliOperator(2, {"ZZ": 1.0}), 4000, 9)
        b, _ = estimate_pauli(rho, PauliOperator(2, {"ZZ": 1.0}), 4000, 9)
        assert a == b

    def test_chunked_draws_are_one_stream(self):
        """Draws split at SHOT_CHUNK count the same +1 outcomes as one
        rng.random(shots) call."""
        shots = 3 * rdm.SHOT_CHUNK + 17
        state = random_state(np.random.default_rng(28), 3)
        p = PauliOperator(3, {"XYZ": 1.0})
        got = estimate_pauli(state, p, shots, (6, 2))
        assert got == apply_estimate_pauli(state, p, shots, (6, 2))
        assert abs(got[0]) < 1.0

    def test_draw_memory_is_bounded_by_a_chunk(self):
        state = random_state(np.random.default_rng(29), 2)
        p = PauliOperator(2, {"XZ": 1.0})
        tracemalloc.start()
        try:
            estimate_pauli(state, p, 10**7, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_m8_density_matrix_reads_only_the_diagonal(self):
        """<P> of a 256 x 256 rho gathers one entry per row, not P rho."""
        rng = np.random.default_rng(30)
        vecs = [random_state(rng, 8) for _ in range(2)]
        rho = 0.5 * sum(np.outer(v, v.conj()) for v in vecs)
        p = PauliOperator(8, {"XYZIZYXI": 1.0})
        estimate_pauli(rho, p, 1000, 0)
        tracemalloc.start()
        try:
            got = estimate_pauli(rho, p, 1000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10
        assert got == apply_estimate_pauli(rho, p, 1000, 0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), mixed=st.booleans(), seed=st.integers(0, 2**32 - 1),
       shots=st.integers(1, 3000),
       coeff=st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3))
def test_estimate_pauli_matches_apply_oracle_bit_for_bit(n, mixed, seed, shots, coeff):
    """Every word at n <= 3, random words above: the cached masks give the
    letter-array src and phase, and the one-word gather and chunked draws
    give the apply_pauli estimate, all exactly."""
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    if mixed:
        weights = rng.dirichlet(np.ones(3))
        state = sum(w * np.outer(v, v.conj())
                    for w, v in zip(weights, [state] + [random_state(rng, n)
                                                        for _ in range(2)]))
    words = (["".join(w) for w in product("IXYZ", repeat=n)] if n <= 3
             else ["".join(rng.choice(list("IXYZ"), n)) for _ in range(8)])
    for i, word in enumerate(words):
        src, phase = letter_pauli_action(PauliOperator(n, {word: 1.0}))
        got_src, got_phase = _signed_permutation(*_word_masks(word), 1.0, n)
        assert np.array_equal(got_src, src[0]) and np.array_equal(got_phase, phase[0])
        p = PauliOperator(n, {word: coeff})
        assert (estimate_pauli(state, p, shots, (seed, i))
                == apply_estimate_pauli(state, p, shots, (seed, i)))
    op = PauliOperator(n, {word: coeff * (i + 1) for i, word in enumerate(words)})
    for got, want in zip(pauli_action(op), letter_pauli_action(op)):
        assert np.array_equal(got, want)


class TestSampledRdms:
    def test_converges_to_exact_tensors(self):
        rng = np.random.default_rng(22)
        state = random_sector_state(rng, 4, 2)
        exact = compute_rdms(state, 2)
        sampled = sample_rdms(state, 2, shots=400_000, seed=1)
        assert np.abs(sampled.d1 - exact.d1).max() < 0.02
        assert np.abs(sampled.d2 - exact.d2).max() < 0.02

    def test_deterministic_and_hermitian(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 4)
        a = sample_rdms(state, 2, shots=1000, seed=5)
        b = sample_rdms(state, 2, shots=1000, seed=5)
        assert np.abs(a.d2 - b.d2).max() == 0
        d2 = a.d2
        assert np.abs(d2 - d2.transpose(2, 3, 0, 1).conj()).max() < 1e-12
        assert np.abs(d2 + d2.transpose(1, 0, 2, 3)).max() < 1e-12

    def test_guards(self):
        with pytest.raises(ValueError, match="max_k"):
            sample_rdms(np.array([1.0, 0.0]), 5, 10, 0)

    def test_cached_pauli_forms_match_per_pair_loop(self):
        """The cached ladder-product forms draw every word from the same
        stream and add the same terms in the same order, bit for bit."""
        rng = np.random.default_rng(26)
        for m, max_k in ((3, 3), (4, 4)):
            state = random_state(rng, m)
            got = sample_rdms(state, max_k, shots=200, seed=9)
            want = rdm_oracle.loop_sample_rdms(state, max_k, 200, 9)
            assert len(got.blocks) == len(want)
            for a, b in zip(got.blocks, want):
                assert np.array_equal(a, b)


class TestSeedStreams:
    """Each Pauli word of a seeded run draws from its own generator, and no
    word at seed s shares its uniforms with any word at seed s + 1."""

    @staticmethod
    def word_draws(monkeypatch, module, call):
        seeds = []
        real = rdm.estimate_pauli

        def spy(state, pauli, shots, seed):
            seeds.append(seed)
            return real(state, pauli, shots, seed)

        monkeypatch.setattr(module, "estimate_pauli", spy)
        call()
        monkeypatch.undo()
        draws = {tuple(np.random.default_rng(s).random(4)) for s in seeds}
        assert len(draws) == len(seeds) > 1
        return draws

    def test_sample_rdms_adjacent_seeds_are_disjoint(self, monkeypatch):
        state = random_state(np.random.default_rng(24), 3)
        runs = [self.word_draws(monkeypatch, rdm,
                                lambda s=seed: sample_rdms(state, 1, 10, s))
                for seed in (5, 6)]
        assert not runs[0] & runs[1]

    def test_sampled_energy_adjacent_seeds_are_disjoint(self, monkeypatch,
                                                        sto3g_ints):
        h_pauli = jordan_wigner(assemble_hamiltonian(sto3g_ints))
        psi = random_state(np.random.default_rng(25), 4)
        runs = [self.word_draws(
                    monkeypatch, experiments,
                    lambda s=seed: experiments._sampled_energy(h_pauli, psi, 10, s))
                for seed in (5, 6)]
        assert not runs[0] & runs[1]
