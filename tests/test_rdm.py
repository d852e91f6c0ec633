import subprocess
import sys
import tracemalloc
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdm_oracle
from pauli_oracle import (apply_estimate_pauli, apply_paulis, kron_dense, letter_masks,
                          letter_pauli_action, mask_word, pauli_action,
                          uniform_estimate_pauli)
from vcsqse import rdm
from vcsqse.channels import ChannelSpec, apply_channel, lift_to_register, single_qubit_channel
from vcsqse.config import ExperimentConfig
from vcsqse.experiments import single_point
from vcsqse.molecule import assemble_hamiltonian, spin_orbital_tensors
from vcsqse.operators import (FermionOperator, PauliOperator, _signed_permutation,
                              fermion_to_dense, jordan_wigner)
from vcsqse.qse import build_subspace_direct, qubit_basis
from vcsqse.rdm import (RDM_MODE_LIMIT, compute_rdms, contract_energy, cumulants_from_rdms,
                        estimate_pauli, reconstruct_rdms, sample_rdms, wedge)
from vcsqse.vcs import no_variation_baseline


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

    def test_rejects_complex_coefficients_and_bad_shots(self):
        state = np.array([1.0, 0.0])
        p = PauliOperator(1, {"X": 1.0, "Z": 1j})
        with pytest.raises(ValueError, match="real"):
            estimate_pauli(state, p, 10, 0)
        with pytest.raises(ValueError, match="shots"):
            estimate_pauli(state, PauliOperator(1, {"Z": 1.0}), 0, 0)
        with pytest.raises(ValueError, match="dimension"):
            estimate_pauli(np.full(8, 8 ** -0.5), PauliOperator(2, {"ZZ": 1.0}), 10, 0)

    def test_sum_is_one_batch_of_its_words(self, monkeypatch):
        """A sum's non-identity words draw in one batch, in term order; the
        identity adds its coefficient exactly; the result is sum c_w mean_w
        with stderr sqrt(sum (c_w err_w)^2), within 5 of them of <H>."""
        state = random_state(np.random.default_rng(32), 3)
        terms = {"XYZ": 0.5, "III": -1.25, "ZIZ": -2.0, "IXI": 0.75}
        op = PauliOperator(3, terms)
        batches = []
        real = rdm._sampled_means

        def spy(state, masks, shots, seed):
            batches.append((masks.tolist(), seed))
            return real(state, masks, shots, seed)

        monkeypatch.setattr(rdm, "_sampled_means", spy)
        est, err = estimate_pauli(state, op, 500, 8)
        monkeypatch.undo()
        assert batches == [(letter_masks(["XYZ", "ZIZ", "IXI"], 3).tolist(), 8)]
        means = rdm._sampled_means(state, np.array(batches[0][0]), 500, 8)
        errs = np.sqrt((1.0 - means ** 2) / 499)
        c = np.array([0.5, -2.0, 0.75])
        assert est == np.sum([c[0] * means[0], -1.25, c[1] * means[1], c[2] * means[2]])
        assert err == np.sqrt(np.sum(np.insert(c * errs, 1, 0.0) ** 2))
        assert estimate_pauli(state, PauliOperator(3, {"III": -1.25}), 500, 8) == (-1.25, 0.0)
        exact = float(np.real(state.conj() @ kron_dense(op) @ state))
        est, err = estimate_pauli(state, op, 200_000, 3)
        assert abs(est - exact) <= 5.0 * err

    def test_sum_transforms_stay_under_the_byte_cap(self):
        """512 distinct X masks at M = 10 go through chunks of transforms
        whose working set stays under GATHER_BYTES."""
        rng = np.random.default_rng(33)
        state = random_state(rng, 10)
        xs = rng.permutation(1024)[:512]
        op = PauliOperator(10, {mask_word(int(x), int(z), 10): 1.0
                                for x, z in zip(xs, rng.integers(0, 1024, 512))})
        estimate_pauli(state, op, 100, 0)
        tracemalloc.start()
        try:
            estimate_pauli(state, op, 100, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rdm.GATHER_BYTES + state.nbytes

    def test_density_matrix_input(self):
        rng = np.random.default_rng(21)
        state = random_state(rng, 2)
        rho = np.outer(state, state.conj())
        a, _ = estimate_pauli(state, PauliOperator(2, {"ZZ": 1.0}), 4000, 9)
        b, _ = estimate_pauli(rho, PauliOperator(2, {"ZZ": 1.0}), 4000, 9)
        assert a == b

    def test_draw_memory_is_bounded_by_a_chunk(self):
        """One binomial draw per word: 10^7 shots hold no per-shot array."""
        state = random_state(np.random.default_rng(29), 2)
        p = PauliOperator(2, {"XZ": 1.0})
        tracemalloc.start()
        try:
            estimate_pauli(state, p, 10**7, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    @pytest.mark.parametrize("p_up", [0.3, 0.85])
    @pytest.mark.parametrize("shots", [1, 5, 20])
    def test_binomial_and_uniform_counts_follow_the_binomial_law(self, shots, p_up):
        """Over 2000 seeds the +1 counts of the binomial draw and of the
        uniform-count oracle both pass a chi-square test against the exact
        Binomial(shots, p) pmf, tail bins pooled to >= 5 expected. Each
        stderr is the ddof=1 one of the +-1 outcomes to a few ulps."""
        seeds = 2000
        theta = np.arccos(np.sqrt(p_up))  # <Z> = cos 2 theta, so p = cos^2 theta
        state = np.array([np.cos(theta), np.sin(theta)])
        z = PauliOperator(1, {"Z": 1.0})
        pmf = np.array([comb(shots, k) * p_up ** k * (1 - p_up) ** (shots - k)
                        for k in range(shots + 1)])
        for route in (estimate_pauli, uniform_estimate_pauli):
            counts = np.zeros(shots + 1)
            for seed in range(seeds):
                mean, err = route(state, z, shots, (seed, 3))
                ups = round((1 + mean) * shots / 2)
                counts[ups] += 1
                if shots > 1 and seed < 50:
                    outcomes = np.repeat([1.0, -1.0], [ups, shots - ups])
                    assert outcomes.mean() == mean
                    ref = outcomes.std(ddof=1) / np.sqrt(shots)
                    assert abs(err - ref) <= 1e-14 * ref
            observed, expected = self.pooled(counts, seeds * pmf)
            chi2 = float(np.sum((observed - expected) ** 2 / expected))
            df = len(expected) - 1
            # Wilson-Hilferty chi-square quantile at z = 4.75, p ~ 1e-6
            bound = df * (1 - 2 / (9 * df) + 4.75 * np.sqrt(2 / (9 * df))) ** 3
            assert chi2 < bound, (route.__name__, chi2, bound)

    @staticmethod
    def pooled(observed, expected):
        """Adjacent bins merged until each expects at least 5."""
        obs, exp, acc_o, acc_e = [], [], 0.0, 0.0
        for o, e in zip(observed, expected):
            acc_o, acc_e = acc_o + o, acc_e + e
            if acc_e >= 5:
                obs.append(acc_o)
                exp.append(acc_e)
                acc_o = acc_e = 0.0
        obs[-1] += acc_o
        exp[-1] += acc_e
        return np.array(obs), np.array(exp)

    @pytest.mark.parametrize("route", [estimate_pauli, uniform_estimate_pauli])
    def test_certain_outcomes_and_single_shots(self, route):
        """p = 0 gives -1 and p = 1 gives +1, both with stderr 0; a single
        shot gives +-1 with stderr 0."""
        z = PauliOperator(1, {"Z": 1.0})
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        for seed in range(20):
            assert route(np.array([0.0, 1.0]), z, 1000, seed) == (-1.0, 0.0)
            assert route(np.array([1.0, 0.0]), z, 1000, seed) == (1.0, 0.0)
            mean, err = route(plus, z, 1, seed)
            assert mean in (-1.0, 1.0) and err == 0.0

    def test_m8_density_matrix_reads_only_the_diagonal(self, monkeypatch):
        """<P> of a 256 x 256 rho transforms one entry per row, not P rho."""
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
        monkeypatch.setattr(rdm, "_exact_paulis", apply_paulis)
        assert got == estimate_pauli(rho, p, 1000, 0) == apply_estimate_pauli(rho, p, 1000, 0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), mixed=st.booleans(), seed=st.integers(0, 2**32 - 1),
       shots=st.integers(1, 3000),
       coeff=st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3))
def test_estimate_pauli_matches_apply_oracle_bit_for_bit(n, mixed, seed, shots, coeff):
    """Every word at n <= 3, random words above: the operator's stored masks
    give the letter-array src and phase, and, given the apply_pauli <P>, the draw
    gives the apply_pauli estimate, all exactly."""
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
        unit = PauliOperator(n, {word: 1.0})
        src, phase = letter_pauli_action(unit)
        got_src, got_phase = _signed_permutation(unit.x[0], unit.z[0], 1.0, n)
        assert np.array_equal(got_src, src[0]) and np.array_equal(got_phase, phase[0])
        p = PauliOperator(n, {word: coeff})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rdm, "_exact_paulis", apply_paulis)
            got = estimate_pauli(state, p, shots, (seed, i))
        assert got == apply_estimate_pauli(state, p, shots, (seed, i))
    op = PauliOperator(n, {word: coeff * (i + 1) for i, word in enumerate(words)})
    for got, want in zip(pauli_action(op), letter_pauli_action(op)):
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 8), mixed=st.booleans(), seed=st.integers(0, 2**32 - 1),
       pool=st.lists(st.integers(0, 255), min_size=1, max_size=4),
       picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255)), max_size=12))
def test_exact_paulis_match_apply_oracle(n, mixed, seed, pool, picks):
    """One Walsh-Hadamard transform per X mask gives every <P> of a batch
    within 1e-14 of the full P @ state, on batches with repeated X masks and
    z = 0 words; a byte cap of one row per chunk gives the same bits."""
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    if mixed:
        other = random_state(rng, n)
        state = 0.7 * np.outer(state, state.conj()) + 0.3 * np.outer(other, other.conj())
    low = (1 << n) - 1
    pairs = [(pool[0], 0), (pool[0], 1)] + [(pool[i % len(pool)], z) for i, z in picks]
    x, z = (np.array(col, dtype=np.int64) & low for col in zip(*pairs))
    masks = np.stack([x, z], axis=1)
    got = rdm._exact_paulis(state, masks)
    assert np.abs(got - apply_paulis(state, masks)).max() <= 1e-14
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rdm, "GATHER_BYTES", 1)
        assert np.array_equal(rdm._exact_paulis(state, masks), got)


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
        with pytest.raises(ValueError, match="shots"):
            sample_rdms(np.array([1.0, 0.0]), 1, 0, 0)

    def test_word_chunks_do_not_change_the_estimates(self, monkeypatch):
        """Exact <P> transformed a few X masks at a time gives the same
        blocks as one chunk of all of them, for a vector and a density
        matrix."""
        rng = np.random.default_rng(27)
        vec = random_state(rng, 4)
        rho = 0.5 * (np.outer(vec, vec.conj()) + np.eye(16) / 16)
        for state in (vec, rho):
            whole = sample_rdms(state, 3, shots=300, seed=4)
            monkeypatch.setattr(rdm, "GATHER_BYTES", 3 * 16 * 16)
            chunked = sample_rdms(state, 3, shots=300, seed=4)
            monkeypatch.undo()
            for a, b in zip(whole.blocks, chunked.blocks):
                assert np.array_equal(a, b)

    def test_cached_pauli_forms_match_per_pair_loop(self, monkeypatch):
        """Given the oracle's <P>, the cached ladder-product forms draw every
        word at the same place of the (seed, 1) stream and add the same
        terms in the same order, bit for bit."""
        monkeypatch.setattr(rdm, "_exact_paulis", apply_paulis)
        rng = np.random.default_rng(26)
        for m, max_k in ((3, 3), (4, 4)):
            state = random_state(rng, m)
            got = sample_rdms(state, max_k, shots=200, seed=9)
            want = rdm_oracle.loop_sample_rdms(state, max_k, 200, 9)
            assert len(got.blocks) == len(want)
            for a, b in zip(got.blocks, want):
                assert np.array_equal(a, b)


class TestSeedStreams:
    """A sampled report draws from two generators, one batch each: its
    energy terms from default_rng((seed, 0)) and its RDM words from
    default_rng((seed, 1)). The streams of seeds s and s + 1 start with
    pairwise distinct draws."""

    @staticmethod
    def keys(monkeypatch, call):
        """The seed of every generator call() builds, in order."""
        keys = []
        real = np.random.default_rng

        def spy(seed):
            keys.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        call()
        monkeypatch.undo()
        return keys

    @staticmethod
    def assert_disjoint(keys):
        first = {tuple(np.random.default_rng(key).random(4)) for key in keys}
        assert len(first) == len(keys) == len(set(keys))

    @pytest.fixture
    def runs(self, monkeypatch, sto3g_path):
        psi = random_state(np.random.default_rng(25), 4)

        def run(kind, seed):
            if kind == "report":
                cfg = ExperimentConfig(experiment="single-point", fcidump=str(sto3g_path),
                                       metric_cutoff=0.05, shots=(10, seed),
                                       sampled_rdms=True)
                return self.keys(monkeypatch, lambda: single_point(cfg))
            return self.keys(monkeypatch, lambda: sample_rdms(psi, 4, 10, seed))
        return run

    def test_sample_rdms_adjacent_seeds_are_disjoint(self, runs):
        assert runs("rdm", 5) == [(5, 1)] and runs("rdm", 6) == [(6, 1)]
        self.assert_disjoint([(5, 1), (6, 1)])

    def test_sampled_energy_adjacent_seeds_are_disjoint(self, runs):
        assert runs("report", 5)[0] == (5, 0) and runs("report", 6)[0] == (6, 0)
        self.assert_disjoint([(5, 0), (6, 0)])

    def test_energy_and_rdm_words_never_share_a_stream(self, runs):
        keys = runs("report", 5) + runs("report", 6)
        assert keys == [(5, 0), (5, 1), (6, 0), (6, 1)]
        self.assert_disjoint(keys)

    def test_energy_skips_the_identity_key(self, monkeypatch, sto3g_path, sto3g_ints):
        """The identity term takes no place in the energy batch: the report
        draws once per other Jordan-Wigner term, in term order."""
        batches = []
        real = rdm._sampled_means

        def spy(state, masks, shots, seed):
            batches.append((masks.tolist(), seed))
            return real(state, masks, shots, seed)

        monkeypatch.setattr(rdm, "_sampled_means", spy)
        single_point(ExperimentConfig(experiment="single-point", fcidump=str(sto3g_path),
                                      shots=(10, 5)))
        h_pauli = jordan_wigner(assemble_hamiltonian(sto3g_ints))
        words = [w for w in h_pauli.terms if set(w) != {"I"}]
        assert len(words) == len(h_pauli.terms) - 1
        assert batches == [(letter_masks(words, 4).tolist(), (5, 0))]


BAD_STATES = {
    "vector_norm_2": (np.array([2.0, 0.0, 0.0, 0.0]), "not normalized"),
    "matrix_trace_2": (np.diag([2.0, 0.0, 0.0, 0.0]), "not trace-one"),
    "non_square": (np.full((4, 2), 0.5), "square matrix"),
    "dimension_3": (np.full(3, 3 ** -0.5), "not a power of two"),
    "not_hermitian": (np.diag([0.5, 0.5, 0.0, 0.0]) + np.eye(4, k=1) * 0.1, "not Hermitian"),
    "negative_diagonal": (np.diag([1.5, -0.5, 0.0, 0.0]), "negative diagonal"),
    "scalar": (np.array(1.0), r"shape \(\)"),
    "empty_vector": (np.array([]), r"shape \(0,\)"),
    "vector_nan": (np.array([np.nan, 0.0, 0.0, 0.0]), "non-finite"),
    "vector_inf": (np.array([np.inf, 0.0, 0.0, 0.0]), "non-finite"),
    "matrix_nan": (np.diag([np.nan, 0.0, 0.0, 1.0]), "non-finite"),
    "matrix_inf": (np.diag([np.inf, -np.inf, 0.0, 1.0]), "non-finite"),
}
_PAIR = lift_to_register(single_qubit_channel(ChannelSpec("dephasing")), 2)
_H4 = np.diag([0.0, 1.0, 1.0, 2.0]) + np.eye(4, k=3) + np.eye(4, k=-3)
# entry point, and the state shapes it takes past its own shape checks
# (None: every row, as the RDM routes check shapes in the shared check)
ENTRY_POINTS = {
    "compute_rdms": (lambda state: compute_rdms(state, 2), None),
    "sample_rdms": (lambda state: sample_rdms(state, 2, 10, 0), None),
    "estimate_pauli": (lambda state: estimate_pauli(state, PauliOperator(2, {"ZZ": 1.0}), 10, 0),
                       None),
    "apply_channel": (lambda state: apply_channel(_PAIR, state), [(4, 4)]),
    "build_subspace_direct": (lambda state: build_subspace_direct(qubit_basis(2, 1), _H4, state),
                              [(4,), (4, 4)]),
    "no_variation_baseline": (lambda state: no_variation_baseline(_H4, _PAIR, state), [(4,)]),
}


@pytest.mark.parametrize("entry, state, message", [
    pytest.param(entry, state, message, id=f"{row}-{name}")
    for row, (state, message) in BAD_STATES.items()
    for name, (entry, shapes) in ENTRY_POINTS.items()
    if shapes is None or state.shape in shapes])
def test_entry_points_reject_invalid_states(entry, state, message):
    """Every route that takes a state shares one check of it: the exact and
    sampled RDM routes, the channel, the subspace build and the baseline."""
    with pytest.raises(ValueError, match=message):
        entry(state)


@pytest.mark.parametrize("state", [np.diag([1.5, -0.5]), np.diag([1.5, -0.5, 0.0, 0.0])],
                         ids=["one_mode", "two_modes"])
def test_sampled_routes_reject_negative_populations(state):
    """A trace-one diagonal with a negative entry is refused, where the
    sampled routes used to clip <Z> = 2 to 1 and report a certain outcome."""
    m = state.shape[0].bit_length() - 1
    with pytest.raises(ValueError, match="negative diagonal"):
        estimate_pauli(state, PauliOperator(m, {"Z" * m: 1.0}), 100, 0)
    with pytest.raises(ValueError, match="negative diagonal"):
        sample_rdms(state, 1, 100, 0)


def test_sampled_routes_reject_expectations_beyond_one():
    """Hermitian, trace one, no negative diagonal, but eigenvalues 1.3 and
    -0.3: <X0 X1> = 1.6 is out of range in both sampled routes, while a
    valid state at <Z> = 1 still samples."""
    rho = np.zeros((4, 4))
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = 0.8
    with pytest.raises(ValueError, match="exceeds 1"):
        estimate_pauli(rho, PauliOperator(2, {"XX": 1.0}), 100, 0)
    with pytest.raises(ValueError, match="exceeds 1"):
        sample_rdms(rho, 1, 100, 0)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        compute_rdms(rho, 1)
    assert estimate_pauli(np.diag([1.0, 0.0]), PauliOperator(1, {"Z": 1.0}), 100, 0) == (1.0, 0.0)


def test_stream_seeds_reject_negative_seeds():
    state = random_state(np.random.default_rng(31), 2)
    with pytest.raises(ValueError, match="non-negative"):
        sample_rdms(state, 1, 10, -1)
    with pytest.raises(ValueError, match="non-negative"):
        estimate_pauli(state, PauliOperator(2, {"XZ": 1.0}), 10, (-1, 0))


def test_import_leaves_numpy_random_unloaded():
    """Seeding is built on first draw, so set-up does not pay for numpy.random."""
    code = ("import sys, vcsqse, vcsqse.experiments, vcsqse.cli; "
            "assert 'numpy' in sys.modules and 'numpy.random' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@pytest.mark.parametrize("m", range(RDM_MODE_LIMIT + 1))
def test_batched_word_table_matches_per_pair_oracle(m):
    """Every (pair, word, coefficient) array and every mask row of the
    batched table equal one letter_jordan_wigner call per ladder product's."""
    want_orders, want_masks = rdm_oracle.loop_rdm_words(m, 4)
    for max_k in range(1, 5):
        orders, masks = rdm._rdm_words(m, max_k)
        assert len(orders) == max_k
        for got, want in zip(orders, want_orders):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        words = 1 + max(word.max(initial=-1) for _, word, _ in want_orders[:max_k])
        assert masks.dtype == want_masks.dtype
        assert np.array_equal(masks, want_masks[:words])
