import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rdm_oracle
from pauli_oracle import (apply_pauli, dense_subspace, kron_dense, loop_subspace, pauli_action,
                          pauli_basis)
from rdm_oracle import zc_h_sub
from vcsqse import qse, rdm
from vcsqse.channels import ChannelSpec, lift_to_register, single_qubit_channel
from vcsqse.molecule import hamiltonian_from_tensors, spin_orbital_tensors
from vcsqse.operators import (FermionOperator, PauliOperator, fermion_to_dense, parse_ladder,
                              symmetry_operator)
from vcsqse.qse import (SUBSPACE_BYTE_LIMIT, ExpansionBasis, approximate_lr,
                        build_lr_from_rdms, build_subspace_direct, fermionic_basis,
                        operator_to_tensors, project_symmetry, qubit_basis,
                        solve_subspace, subspace_expectation)
from vcsqse.rdm import compute_rdms
from vcsqse.vcs import solve_vcs


def sector_indices(dim, n_e):
    return [b for b in range(dim) if bin(b).count("1") == n_e]


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.fixture(scope="module")
def stretched(sweep_dense, sym_dense):
    r, h, ints = [row for row in sweep_dense if row[0] == 2.5][0]
    w, v = np.linalg.eigh(h)
    return {"h": h, "ints": ints, "w": w, "v": v, "sym": sym_dense}


class TestBases:
    def test_fermionic_m2_enumeration(self):
        basis = fermionic_basis(2, 1)
        assert basis.labels == ("g", "0^ 0", "0^ 1", "1^ 0", "1^ 1")
        # identity first
        assert np.array_equal(basis.src[0], np.arange(4))
        assert np.array_equal(basis.weight[0], np.ones(4))

    def test_fermionic_m4_k1_count(self):
        assert len(fermionic_basis(4, 1)) == 17

    def test_fermionic_without_reference(self):
        assert len(fermionic_basis(4, 1, includes_reference=False)) == 16

    def test_fermionic_k2_contains_no_duplicates(self):
        basis = fermionic_basis(4, 2)
        keys = {(x, w.tobytes()) for x, w in zip(basis.src[:, 0], basis.weight)}
        assert len(keys) == len(basis)
        assert basis.weight.any(axis=1).all()
        assert basis.labels[0] == "g"

    def test_qubit_counts(self):
        assert len(qubit_basis(4, 1)) == 13
        assert len(qubit_basis(2, 2)) == 16
        assert qubit_basis(3, 1).labels[0] == "g"

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["fermionic", "qubit"]), m=st.integers(2, 6),
           order=st.sampled_from([1, 2]), includes_reference=st.booleans())
    @example(kind="fermionic", m=6, order=2, includes_reference=True)
    def test_matches_symbolic_pauli_basis(self, kind, m, order, includes_reference):
        """The same labels in the same order as the symbolic Jordan-Wigner
        build, each element that Pauli operator; qubit words exactly."""
        assume(kind == "fermionic" or (m <= 5 and includes_reference))
        ops, labels = pauli_basis(kind, m, order, includes_reference)
        if kind == "fermionic":
            basis = fermionic_basis(m, order, includes_reference)
        else:
            basis = qubit_basis(m, order)
        assert basis.labels == tuple(labels)
        assert not basis.src.flags.writeable and not basis.weight.flags.writeable
        eye = np.eye(1 << m)
        for src, weight, op in zip(basis.src, basis.weight, ops):
            dense = weight[:, None] * eye[src]
            assert np.abs(dense - kron_dense(op)).max() <= 1e-12
            if kind == "qubit":
                [word_src], [word_phase] = pauli_action(op)
                assert np.array_equal(word_src, src)
                assert np.array_equal(word_phase, weight)

    def test_guards(self):
        with pytest.raises(ValueError):
            fermionic_basis(4, 3)
        with pytest.raises(ValueError):
            fermionic_basis(9, 1)
        with pytest.raises(ValueError):
            qubit_basis(13, 1)


class TestDirectBuild:
    def test_reference_only_basis(self, stretched):
        basis = ExpansionBasis(src=np.arange(16)[None], weight=np.ones((1, 16)), labels=("g",))
        psi = stretched["v"][:, 0]
        prob = build_subspace_direct(basis, stretched["h"], psi)
        assert abs(prob.s_sub[0, 0] - 1.0) < 1e-12
        assert abs(prob.h_sub[0, 0] - stretched["w"][0]) < 1e-12

    def test_exact_reference_ground_in_span(self, stretched):
        basis = fermionic_basis(4, 1)
        prob = build_subspace_direct(basis, stretched["h"], stretched["v"][:, 0])
        spec = solve_subspace(prob)
        assert abs(spec.eigenvalues[0] - stretched["w"][0]) < 1e-10

    def test_metric_psd_for_random_densities(self, stretched):
        rng = np.random.default_rng(0)
        basis = fermionic_basis(4, 1)
        for _ in range(200):
            prob = build_subspace_direct(basis, stretched["h"],
                                         random_density(rng, 16))
            w = np.linalg.eigvalsh(prob.s_sub)
            assert w[0] >= -1e-10

    def test_vacuum_reference_rank_one(self, stretched):
        basis = fermionic_basis(4, 1)
        vac = np.zeros(16)
        vac[0] = 1.0
        prob = build_subspace_direct(basis, stretched["h"], vac)
        w = np.linalg.eigvalsh(prob.s_sub)
        assert (w > 1e-10).sum() == 1

    def test_reference_bound(self, stretched):
        rng = np.random.default_rng(1)
        basis = fermionic_basis(4, 1)
        rho = random_density(rng, 16)
        prob = build_subspace_direct(basis, stretched["h"], rho)
        spec = solve_subspace(prob)
        assert spec.eigenvalues[0] <= np.real(np.trace(rho @ stretched["h"])) + 1e-10

    @pytest.mark.parametrize("kind, order", [("fermionic", 1), ("fermionic", 2),
                                             ("qubit", 1), ("qubit", 2)])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_dense_trace_oracle(self, stretched, kind, order, mixed):
        rng = np.random.default_rng(11)
        basis = (fermionic_basis if kind == "fermionic" else qubit_basis)(4, order)
        if mixed:
            ref = random_density(rng, 16)
        else:
            ref = rng.normal(size=16) + 1j * rng.normal(size=16)
            ref /= np.linalg.norm(ref)
        prob = build_subspace_direct(basis, stretched["h"], ref, stretched["sym"])
        ops, _ = pauli_basis(kind, 4, order)
        h_sub, s_sub, sym = dense_subspace(ops, stretched["h"], ref, stretched["sym"])
        assert np.abs(prob.h_sub - h_sub).max() <= 1e-12
        assert np.abs(prob.s_sub - s_sub).max() <= 1e-12
        for name, mat in sym.items():
            assert np.abs(prob.symmetry_subs[name] - mat).max() <= 1e-12

    def test_byte_guard_rejects_before_allocating(self):
        basis = fermionic_basis(8, 2)
        rho = np.eye(256) / 256
        # the two real action stacks, the basis's src and weight, and the
        # weights the right action reads
        n_b = len(basis)
        need = 2 * n_b * 256 * 256 * 8 + n_b * 256 * (8 + 2 * 8)
        assert need > SUBSPACE_BYTE_LIMIT
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"needs {need} bytes"):
                build_subspace_direct(basis, np.eye(256), rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        # the same basis around a state vector needs n_b * 2^M per stack
        psi = np.zeros(256)
        psi[0b1111] = 1.0
        prob = build_subspace_direct(basis, np.eye(256), psi)
        assert prob.dim == len(basis)

    def test_byte_guard_charges_the_build_dtype(self, monkeypatch):
        """A real build is charged 8 bytes a stack entry and a complex one 16:
        with the limit between the two, the real inputs build and the same
        inputs cast to complex are refused before anything is allocated."""
        rng = np.random.default_rng(15)
        a = rng.normal(size=(64, 64))
        h = a + a.T
        b = rng.normal(size=(64, 64))
        rho = b @ b.T / np.trace(b @ b.T)
        basis = fermionic_basis(6, 1)
        stack = len(basis) * rho.size
        fixed = basis.src.nbytes + 2 * basis.weight.nbytes
        real_need, complex_need = 2 * stack * 8 + fixed, 2 * stack * 16 + fixed
        monkeypatch.setattr(qse, "SUBSPACE_BYTE_LIMIT", (real_need + complex_need) // 2)
        prob = build_subspace_direct(basis, h, rho)
        assert prob.h_sub.dtype == np.float64
        h_c, rho_c = h.astype(complex), rho.astype(complex)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"needs {complex_need} bytes"):
                build_subspace_direct(basis, h_c, rho_c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack

    def test_mismatched_shapes_rejected_before_allocating(self):
        basis = fermionic_basis(8, 2)
        h4, h8 = np.eye(16, dtype=complex), np.eye(256, dtype=complex)
        psi = np.zeros(16, dtype=complex)
        psi[0b11] = 1.0
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="basis operator dimension"):
                build_subspace_direct(basis, h4, psi)
            with pytest.raises(ValueError, match="H and rho dimensions"):
                build_subspace_direct(basis, h8, h4 / 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_reference_is_checked_before_the_byte_guard(self, stretched, monkeypatch):
        """With every build over the byte limit, a reference that is no state
        (a non-Hermitian trace-2 matrix, 3 e_3) still fails its state check,
        and only a valid one (e_3) reaches the guard."""
        rho = np.zeros((16, 16))
        rho[0, 1], rho[3, 3] = 1.0, 2.0
        psi = np.zeros(16)
        psi[3] = 3.0
        basis = fermionic_basis(4, 1)
        monkeypatch.setattr(qse, "SUBSPACE_BYTE_LIMIT", 0)
        for ref, message in ((rho, "not trace-one"), (rho / 2, "not Hermitian"),
                             (psi, "not normalized"), (psi / 3, "build needs")):
            with pytest.raises(ValueError, match=message):
                build_subspace_direct(basis, stretched["h"], ref)

    @pytest.mark.parametrize("kind,order", [("fermionic", 1), ("fermionic", 2),
                                            ("qubit", 1), ("qubit", 2)])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_stacked_build_equals_per_element_loop(self, stretched, kind, order,
                                                   mixed):
        """One gather per element equals summing each element's Pauli words
        one at a time: bit for bit where every word sum is exact (qubit
        words, a_i^ a_j), to rounding for the up to 16 words, weighted 1/2
        to 1/16, of a fermionic pair product."""
        rng = np.random.default_rng(order + 2 * mixed)
        basis = (fermionic_basis if kind == "fermionic" else qubit_basis)(4, order)
        if mixed:
            ref = random_density(rng, 16)
        else:
            ref = rng.normal(size=16) + 1j * rng.normal(size=16)
            ref /= np.linalg.norm(ref)
        prob = build_subspace_direct(basis, stretched["h"], ref, stretched["sym"])
        ops, _ = pauli_basis(kind, 4, order)
        h_sub, s_sub, sym = loop_subspace(ops, stretched["h"], ref, stretched["sym"])
        tol = 1e-12 if (kind, order) == ("fermionic", 2) else 0.0
        assert np.abs(prob.h_sub - h_sub).max() <= tol
        assert np.abs(prob.s_sub - s_sub).max() <= tol
        assert prob.symmetry_subs.keys() == sym.keys()
        for name, mat in sym.items():
            assert np.abs(prob.symmetry_subs[name] - mat).max() <= tol

    def test_m8_mixed_build_memory(self):
        """A mixed M = 8 build holds its two n_b x 4^M stacks (130 MiB for
        fermionic k = 1) and gathers into one reused chunk buffer beside them."""
        rng = np.random.default_rng(13)
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        h = a + a.conj().T
        rho = random_density(rng, 256)
        sym = {name: fermion_to_dense(symmetry_operator(name, 8))
               for name in ("number", "s_squared")}
        basis = fermionic_basis(8, 1)
        stacks = 2 * len(basis) * rho.nbytes
        tracemalloc.start()
        try:
            prob = build_subspace_direct(basis, h, rho, sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prob.dim == 65 and set(prob.symmetry_subs) == set(sym)
        assert peak < stacks + (16 << 20)

    def test_m8_pure_build_memory(self):
        """The spectrum_m8-sized build holds n_b * 2^M stacks, not dense E_b."""
        rng = np.random.default_rng(12)
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        h = a + a.conj().T
        psi = rng.normal(size=256) + 1j * rng.normal(size=256)
        psi /= np.linalg.norm(psi)
        sym = {name: fermion_to_dense(symmetry_operator(name, 8))
               for name in ("number", "s_squared")}
        basis = fermionic_basis(8, 1)
        tracemalloc.start()
        try:
            prob = build_subspace_direct(basis, h, psi, sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prob.dim == 65 and set(prob.symmetry_subs) == set(sym)
        assert peak < 32 << 20


    def test_m8_k2_basis_holds_only_its_permutations(self):
        """fermionic_basis(8, 2) holds its src and weight, 7.8 MiB, also after
        a pure build has read them. Basis and build together stay within
        40 MiB beyond the n_b x n_b matrices the build returns and
        symmetrizes (four of 61 MiB each at n_b = 1997)."""
        rng = np.random.default_rng(14)
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        h = a + a.conj().T
        psi = rng.normal(size=256) + 1j * rng.normal(size=256)
        psi /= np.linalg.norm(psi)
        tracemalloc.start()
        try:
            basis = fermionic_basis.__wrapped__(8, 2)
            prob = build_subspace_direct(basis, h, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(arr.nbytes for value in vars(basis).values()
                   for arr in (value if isinstance(value, tuple) else (value,))
                   if isinstance(arr, np.ndarray))
        assert held < 16 << 20
        assert peak < 4 * prob.h_sub.nbytes + (40 << 20)


@st.composite
def normal_ordered_operators(draw, m=4):
    """Number-conserving rank <= 2 operators on m modes, every term in normal
    order: k ascending creations, then k descending annihilations."""
    modes = st.integers(0, 2).flatmap(lambda k: st.tuples(
        *[st.sets(st.integers(0, m - 1), min_size=k, max_size=k)] * 2))
    seqs = modes.map(lambda ul: tuple((i, True) for i in sorted(ul[0]))
                     + tuple((j, False) for j in sorted(ul[1], reverse=True)))
    coeffs = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    return FermionOperator(m, draw(st.dictionaries(seqs, coeffs, max_size=8)))


@st.composite
def tensor_pattern_operators(draw, m=4):
    """Operators whose every term is k <= 2 creations then k annihilations,
    modes in any order and repeatable, with all-real or mixed coefficients
    whose parts include signed zeros."""
    modes = st.integers(0, 2).flatmap(
        lambda k: st.lists(st.integers(0, m - 1), min_size=2 * k, max_size=2 * k))
    seqs = modes.map(lambda ms: tuple((p, i < len(ms) // 2) for i, p in enumerate(ms)))
    parts = st.sampled_from([0.0, -0.0, 1.0, -0.75, 1e-3, 3.0])
    coeffs = parts if draw(st.booleans()) else st.one_of(
        st.builds(complex, parts, parts),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
    return FermionOperator(m, draw(st.dictionaries(seqs, coeffs, max_size=10)))


def loop_tensors(op):
    """operator_to_tensors as a loop over op.terms, each term's entries
    added in place, in term order."""
    m = op.mode_count
    coeffs = np.array(list(op.terms.values()), dtype=complex)
    coeffs = coeffs if coeffs.imag.any() else coeffs.real
    core, t1, t2 = 0.0, np.zeros((m, m), coeffs.dtype), np.zeros((m,) * 4, coeffs.dtype)
    for seq, coeff in zip(op.terms, coeffs.tolist()):
        modes = tuple(mode for mode, _ in seq)
        if not seq:
            core += coeff
        elif len(seq) == 2:
            t1[modes] += coeff
        else:
            p, q, r, s = modes
            half = 0.5 * coeff
            t2[p, q, r, s] += half
            t2[q, p, r, s] -= half
            t2[p, q, s, r] -= half
            t2[q, p, s, r] += half
    return core, t1, t2


def tensors_dense(c0, t1, t2, m):
    """core + sum t1 a^ a + 1/2 sum t2 a^ a^ a a from dense single-ladder matrices."""
    low = np.array([fermion_to_dense(FermionOperator.from_term(f"{p}", 1.0, m))
                    for p in range(m)])
    up = low.conj().transpose(0, 2, 1)
    dim = 1 << m
    # a_p^ a_q^ and a_r a_s, flattened over (p, q) and (r, s)
    creations = (up[:, None] @ up[None]).reshape(m * m, dim, dim)
    annihilations = (low[:, None] @ low[None]).reshape(m * m, dim, dim)
    two_body = np.einsum("xy,yjk->xjk", t2.reshape(m * m, m * m), annihilations)
    return (c0 * np.eye(dim) + np.einsum("pq,pij,qjk->ik", t1, up, low)
            + 0.5 * (creations @ two_body).sum(axis=0))


class TestRdmRoute:
    def test_overlap_g_column_is_d1(self, stretched):
        rng = np.random.default_rng(2)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        rdms = compute_rdms(v, 4)
        h1, h2, core = spin_orbital_tensors(stretched["ints"])
        prob = build_lr_from_rdms(h1, h2, rdms, core_energy=core)
        for i in range(4):
            for j in range(4):
                assert abs(prob.s_sub[1 + 4 * i + j, 0] - rdms.d1[j, i]) < 1e-12

    def test_route_equivalence_sample(self, stretched, sym_dense):
        rng = np.random.default_rng(3)
        h1, h2, core = spin_orbital_tensors(stretched["ints"])
        basis = fermionic_basis(4, 1)
        sym_ops = {"number": symmetry_operator("number", 4),
                   "s_squared": symmetry_operator("s_squared", 4)}
        for case in range(10):
            if case % 3 == 2:
                state = random_density(rng, 16)
            else:
                state = rng.normal(size=16) + 1j * rng.normal(size=16)
                state /= np.linalg.norm(state)
            rho = state if state.ndim == 2 else np.outer(state, state.conj())
            direct = build_subspace_direct(basis, stretched["h"], rho,
                                           {"number": sym_dense["number"],
                                            "s_squared": sym_dense["s_squared"]})
            viardm = build_lr_from_rdms(h1, h2, compute_rdms(state, 4),
                                        core_energy=core, symmetry_ops=sym_ops)
            assert np.abs(direct.h_sub - viardm.h_sub).max() < 1e-10
            assert np.abs(direct.s_sub - viardm.s_sub).max() < 1e-10
            for name in ("number", "s_squared"):
                assert np.abs(direct.symmetry_subs[name]
                              - viardm.symmetry_subs[name]).max() < 1e-10

    def test_requires_full_rdms(self, stretched):
        rng = np.random.default_rng(4)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        h1, h2, _ = spin_orbital_tensors(stretched["ints"])
        with pytest.raises(ValueError, match="4-RDM"):
            build_lr_from_rdms(h1, h2, compute_rdms(v, 3))

    @settings(max_examples=60, deadline=None)
    @given(op=normal_ordered_operators())
    @example(op=symmetry_operator("s_squared", 4))
    def test_operator_to_tensors_round_trip(self, op):
        c0, t1, t2 = operator_to_tensors(op)
        assert np.abs(tensors_dense(c0, t1, t2, 4) - fermion_to_dense(op)).max() < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(op=tensor_pattern_operators())
    @example(op=FermionOperator(2, {parse_ladder("0^ 1^ 1 0"): 1.0, parse_ladder("1^ 0^ 1 0"): 0.3,
                                    parse_ladder("0^ 0^ 1 1"): -0.5j, parse_ladder("1^ 1"): 2.0,
                                    (): complex(0.25, -0.0)}))
    def test_operator_to_tensors_equals_the_term_loop(self, op):
        """The tensors, and the core's type and sign of zero, are the per-term
        loop's bit for bit, each entry summed in term order."""
        got, want = operator_to_tensors(op), loop_tensors(op)
        assert repr(got[0]) == repr(want[0])
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("text", ["0^", "1", "0^ 1^", "0 1", "1 0^", "0^ 1 2^ 3",
                                      "0^ 1^ 2^ 3", "0^ 1^ 2^ 3 2 1"])
    def test_operator_to_tensors_rejects_other_terms(self, text):
        """Reading the first modes of such a term would file it as another
        operator (a_0^ a_1^ as a_0^ a_1), so each one raises."""
        with pytest.raises(ValueError, match="creations followed by"):
            operator_to_tensors(FermionOperator.from_term(text, 1.0, 4))


class TestSolveAndProject:
    def test_exact_reference_reproduces_sector(self, stretched):
        basis = fermionic_basis(4, 1)
        prob = build_subspace_direct(basis, stretched["h"], stretched["v"][:, 0],
                                     {"number": stretched["sym"]["number"]})
        spec = solve_subspace(prob)
        idx = sector_indices(16, 2)
        sector = np.linalg.eigvalsh(stretched["h"][np.ix_(idx, idx)])
        assert spec.retained_dim == len(sector)
        assert np.abs(np.sort(spec.eigenvalues) - sector).max() < 1e-8

    def test_full_window_projection_keeps_spectrum(self, stretched):
        basis = fermionic_basis(4, 1)
        prob = build_subspace_direct(basis, stretched["h"], stretched["v"][:, 0],
                                     {"number": stretched["sym"]["number"]})
        projected = project_symmetry(prob, "number", 2.0, np.inf)
        a = solve_subspace(prob).eigenvalues
        b = solve_subspace(projected).eigenvalues
        assert np.abs(np.sort(a) - np.sort(b)).max() < 1e-9

    def test_number_projection_removes_foreign_sectors(self, stretched):
        # contaminate the reference across number sectors
        idx1 = sector_indices(16, 1)
        mix = np.array(stretched["v"][:, 0])
        mix[idx1[0]] += 0.5
        mix /= np.linalg.norm(mix)
        basis = fermionic_basis(4, 1)
        prob = build_subspace_direct(basis, stretched["h"], mix,
                                     {"number": stretched["sym"]["number"]})
        unprojected = solve_subspace(prob)
        n_values = [subspace_expectation(prob, "number", unprojected.eigenvectors[:, t])
                    for t in range(unprojected.retained_dim)]
        assert any(abs(nv - 2.0) > 0.1 for nv in n_values)
        projected = project_symmetry(prob, "number", 2.0, 0.5)
        spec = solve_subspace(projected)
        idx2 = sector_indices(16, 2)
        sector = np.linalg.eigvalsh(stretched["h"][np.ix_(idx2, idx2)])
        for t in range(spec.retained_dim):
            nv = subspace_expectation(projected, "number", spec.eigenvectors[:, t])
            assert abs(nv - 2.0) < 1e-8
            gaps = np.abs(sector - spec.eigenvalues[t])
            assert gaps.min() < 1e-6
        assert abs(spec.eigenvalues[0] - sector[0]) < 1e-8

    def test_empty_sector_rejected(self, stretched):
        basis = fermionic_basis(4, 1)
        prob = build_subspace_direct(basis, stretched["h"], stretched["v"][:, 0],
                                     {"number": stretched["sym"]["number"]})
        with pytest.raises(ValueError, match="no subspace states"):
            project_symmetry(prob, "number", -5.0, 0.1)

    def test_missing_symmetry_matrix(self, stretched):
        basis = fermionic_basis(4, 1)
        prob = build_subspace_direct(basis, stretched["h"], stretched["v"][:, 0])
        with pytest.raises(KeyError):
            project_symmetry(prob, "number", 2.0, 0.5)

    def test_qubit_error_correction_single_case(self, stretched):
        psi0 = stretched["v"][:, 0]
        err = apply_pauli(pauli_action(PauliOperator(4, {"IXII": 1.0})), psi0)
        prob = build_subspace_direct(qubit_basis(4, 1), stretched["h"], err)
        spec = solve_subspace(prob)
        assert abs(spec.eigenvalues[0] - stretched["w"][0]) < 1e-10

    def test_hierarchy_monotone_for_in_sector_reference(self, stretched):
        rng = np.random.default_rng(5)
        idx = sector_indices(16, 2)
        block = random_density(rng, len(idx))
        rho = np.zeros((16, 16), dtype=complex)
        rho[np.ix_(idx, idx)] = block
        e_ref = float(np.real(np.trace(rho @ stretched["h"])))
        e1 = solve_subspace(build_subspace_direct(
            fermionic_basis(4, 1), stretched["h"], rho)).eigenvalues[0]
        e2 = solve_subspace(build_subspace_direct(
            fermionic_basis(4, 2), stretched["h"], rho)).eigenvalues[0]
        assert e2 <= e1 + 1e-10 <= e_ref + 1e-10

    def test_number_conserved_by_expansion(self, stretched):
        rng = np.random.default_rng(6)
        idx = sector_indices(16, 2)
        block = random_density(rng, len(idx))
        rho = np.zeros((16, 16), dtype=complex)
        rho[np.ix_(idx, idx)] = block
        prob = build_subspace_direct(fermionic_basis(4, 1), stretched["h"], rho,
                                     {"number": stretched["sym"]["number"]})
        spec = solve_subspace(prob)
        for t in range(spec.retained_dim):
            nv = subspace_expectation(prob, "number", spec.eigenvectors[:, t])
            assert abs(nv - 2.0) < 1e-10


class TestApproximations:
    def test_zc_exact_for_exact_reference(self, stretched):
        psi0 = stretched["v"][:, 0]
        h1, h2, core = spin_orbital_tensors(stretched["ints"])
        rdms = compute_rdms(psi0, 4)
        e_g = float(np.real(psi0.conj() @ stretched["h"] @ psi0))
        direct = build_subspace_direct(fermionic_basis(4, 1), stretched["h"], psi0)
        zc = approximate_lr("ZC", h1, h2, rdms, e_g, core_energy=core)
        assert np.abs(zc.h_sub - direct.h_sub).max() < 1e-8
        assert np.abs(zc.s_sub - direct.s_sub).max() < 1e-10

    def test_za_exact_for_slater_reference(self, stretched):
        det = np.zeros(16)
        det[0b0011] = 1.0
        h1, h2, core = spin_orbital_tensors(stretched["ints"])
        rdms = compute_rdms(det, 4)
        e_g = float(np.real(det @ stretched["h"] @ det))
        direct = build_subspace_direct(fermionic_basis(4, 1), stretched["h"], det)
        za = approximate_lr("ZA", h1, h2, rdms, e_g, core_energy=core)
        assert np.abs(za.h_sub - direct.h_sub).max() < 1e-8

    def test_za_exact_d3_variant(self, stretched):
        psi0 = stretched["v"][:, 0]
        h1, h2, core = spin_orbital_tensors(stretched["ints"])
        rdms = compute_rdms(psi0, 4)
        full = approximate_lr("ZA", h1, h2, rdms, 0.0, core_energy=core)
        exact3 = approximate_lr("ZA", h1, h2, rdms, 0.0, core_energy=core,
                                reconstruct_d3=False)
        # keeping the exact 3-RDM changes the approximation on a correlated state
        assert np.abs(full.h_sub - exact3.h_sub).max() > 1e-6

    def test_zc_truncated_three_rdm(self, stretched):
        psi0 = stretched["v"][:, 0]
        h1, h2, core = spin_orbital_tensors(stretched["ints"])
        rdms = compute_rdms(psi0, 2)
        e_g = float(np.real(psi0.conj() @ stretched["h"] @ psi0))
        zc = approximate_lr("ZC", h1, h2, rdms, e_g, truncate=True,
                            core_energy=core)
        spec = solve_subspace(zc)
        # still a sensible approximation of the sector ground state
        assert abs(spec.eigenvalues[0] - stretched["w"][0]) < 0.05

    def test_zc_truncated_builds_no_four_rdm(self, stretched, monkeypatch):
        """Truncated ZC builds C2, then D2 and D3 from C1 and C2: no order-4
        disconnected part, which the commutator form never reads."""
        orders = []
        real = rdm._disconnected

        def spy(c, n, m):
            orders.append(n)
            return real(c, n, m)

        monkeypatch.setattr(rdm, "_disconnected", spy)
        monkeypatch.setattr(qse, "_disconnected", spy)
        psi0 = stretched["v"][:, 0]
        h1, h2, _ = spin_orbital_tensors(stretched["ints"])
        approximate_lr("ZC", h1, h2, compute_rdms(psi0, 3), 0.0, truncate=True)
        assert sorted(orders) == [2, 2, 3]

    def test_zc_needs_d3_without_truncate(self, stretched):
        psi0 = stretched["v"][:, 0]
        h1, h2, _ = spin_orbital_tensors(stretched["ints"])
        with pytest.raises(ValueError, match="3-RDM"):
            approximate_lr("ZC", h1, h2, compute_rdms(psi0, 2), 0.0)

    def test_unknown_method(self, stretched):
        h1, h2, _ = spin_orbital_tensors(stretched["ints"])
        rdms = compute_rdms(stretched["v"][:, 0], 4)
        with pytest.raises(ValueError, match="method"):
            approximate_lr("XY", h1, h2, rdms, 0.0)

    @pytest.mark.parametrize("truncate", [False, True])
    @pytest.mark.parametrize("source", ["fixture", "random"])
    def test_zc_matches_symbolic_oracle(self, stretched, source, truncate):
        """Closed-form ZC equals the normal-ordered symbolic products."""
        rng = np.random.default_rng(40 + truncate)
        h1, h2, _ = spin_orbital_tensors(stretched["ints"])
        if source == "random":
            h1 = rng.normal(size=(4, 4))
            h2 = rng.normal(size=(4, 4, 4, 4))
        for _ in range(2):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            rdms = compute_rdms(psi / np.linalg.norm(psi), 3)
            e_g = float(rng.normal())
            zc = approximate_lr("ZC", h1, h2, rdms, e_g, truncate=truncate)
            oracle = zc_h_sub(h1, h2, rdms, e_g, truncate=truncate)
            assert np.abs(zc.h_sub - oracle).max() < 1e-12

    def test_zc_beats_za_on_correlated_sweep_point(self, stretched):
        psi0 = stretched["v"][:, 0]
        h1, h2, core = spin_orbital_tensors(stretched["ints"])
        rdms = compute_rdms(psi0, 4)
        e_g = float(np.real(psi0.conj() @ stretched["h"] @ psi0))
        idx = sector_indices(16, 2)
        sector = np.linalg.eigvalsh(stretched["h"][np.ix_(idx, idx)])
        zc = solve_subspace(approximate_lr("ZC", h1, h2, rdms, e_g,
                                           core_energy=core)).eigenvalues
        za = solve_subspace(approximate_lr("ZA", h1, h2, rdms, e_g,
                                           core_energy=core)).eigenvalues
        err_zc = np.abs(zc[:3] - sector[:3]).max()
        err_za = np.abs(za[:3] - sector[:3]).max()
        assert err_zc < err_za


def random_lr_tensors(rng, m):
    """Random Hermitian t1 and a random v with the symmetries of h2 / 2:
    v[p,q,r,s] = v[q,p,s,r] = conj(v[s,r,q,p])."""
    t1 = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    g = rng.normal(size=(m,) * 4) + 1j * rng.normal(size=(m,) * 4)
    v = g + g.transpose(1, 0, 3, 2)
    return t1 + t1.conj().T, v + v.transpose(3, 2, 1, 0).conj()


def random_reference(rng, m, n_e, mixed):
    """A pure state or a rank-3 density matrix, in the n_e sector or generic."""
    dim = 1 << m
    idx = list(range(dim)) if n_e is None else sector_indices(dim, n_e)
    cols = np.zeros((dim, 3 if mixed else 1), dtype=complex)
    cols[idx] = rng.normal(size=(len(idx), cols.shape[1])) + 1j * rng.normal(
        size=(len(idx), cols.shape[1]))
    if not mixed:
        return cols[:, 0] / np.linalg.norm(cols[:, 0])
    rho = (cols * rng.uniform(0.1, 1.0, size=3)) @ cols.conj().T
    return rho / np.trace(rho)


@settings(max_examples=12, deadline=None)
@given(m=st.integers(2, 6), n_e=st.one_of(st.none(), st.integers(0, 6)),
       mixed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(m=6, n_e=4, mixed=False, seed=1)
@example(m=6, n_e=4, mixed=True, seed=2)
@example(m=6, n_e=5, mixed=False, seed=3)
@example(m=5, n_e=None, mixed=True, seed=4)
def test_packed_lr_matches_full_tensor_oracle(m, n_e, mixed, seed):
    """The split contractions against the full-tensor einsums of rdm_oracle.

    An N-conserving state has a nonzero 4-RDM only for N >= 4, so the pinned
    examples run the D4 term on such states at M = 6.
    """
    rng = np.random.default_rng(seed)
    state = random_reference(rng, m, None if n_e is None else min(n_e, m), mixed)
    rdms = compute_rdms(state, 4)
    h1, h2 = random_lr_tensors(rng, m)
    t1, v = random_lr_tensors(rng, m)
    sym_ops = {"number": symmetry_operator("number", m),
               "random": hamiltonian_from_tensors(t1, 2.0 * v, 0.3)}
    core, e_g = rng.normal(size=2)

    for ops in (None, sym_ops):
        prob = build_lr_from_rdms(h1, h2, rdms, core_energy=core, symmetry_ops=ops)
        h_sub, s_sub, sym = rdm_oracle.lr_matrices(h1, h2, rdms, core, ops)
        assert np.abs(prob.h_sub - h_sub).max() < 1e-12
        assert np.abs(prob.s_sub - s_sub).max() < 1e-12
        assert set(prob.symmetry_subs) == set(sym)
        for name, mat in sym.items():
            assert np.abs(prob.symmetry_subs[name] - mat).max() < 1e-12
    for truncate in (False, True):
        zc = approximate_lr("ZC", h1, h2, rdms, e_g, truncate=truncate)
        want = rdm_oracle.zc_columns_h_sub(h1, h2, rdms, e_g, truncate)
        assert np.abs(zc.h_sub - want).max() < 1e-12
    for reconstruct_d3 in (True, False):
        za = approximate_lr("ZA", h1, h2, rdms, e_g, core_energy=core,
                            reconstruct_d3=reconstruct_d3)
        want = rdm_oracle.za_h_sub(h1, h2, rdms, core, reconstruct_d3)
        assert np.abs(za.h_sub - want).max() < 1e-12
        assert np.abs(za.s_sub - s_sub).max() < 1e-12


def test_za_builds_only_the_cumulants_it_keeps(monkeypatch):
    """ZA passes cumulants_from_rdms only the orders the reconstruction keeps."""
    orders = []
    real = qse.cumulants_from_rdms
    monkeypatch.setattr(qse, "cumulants_from_rdms",
                        lambda rdms: orders.append(rdms.max_k) or real(rdms))
    rng = np.random.default_rng(9)
    rdms = compute_rdms(random_reference(rng, 4, 2, False), 3)
    h1, h2 = random_lr_tensors(rng, 4)
    for reconstruct_d3 in (True, False):
        approximate_lr("ZA", h1, h2, rdms, 0.0, reconstruct_d3=reconstruct_d3)
    assert orders == [2, 3]


def test_m8_lr_stays_packed(monkeypatch):
    """ZA and the RDM route at M = 8 never expand the 4-RDM to a full tensor."""
    expanded = []
    real = rdm._expand
    monkeypatch.setattr(rdm, "_expand",
                        lambda block, m, k: expanded.append(k) or real(block, m, k))
    rng = np.random.default_rng(8)
    rdms = compute_rdms(random_reference(rng, 8, 4, False), 4)
    h1, h2 = (x.real for x in random_lr_tensors(rng, 8))
    for build in (lambda: approximate_lr("ZA", h1, h2, rdms, 0.0, core_energy=0.5),
                  lambda: build_lr_from_rdms(h1, h2, rdms, core_energy=0.5)):
        tracemalloc.start()
        try:
            prob = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prob.h_sub.shape == (65, 65)
        assert peak < 20 << 20
    assert expanded and 4 not in expanded


class TestQseOverChannelOutput:
    def test_repair_improves_vcs_energy(self, stretched):
        ch = lift_to_register(
            single_qubit_channel(ChannelSpec("amplitude_phase", 0.05, 0.05)), 4)
        sol = solve_vcs(stretched["h"], ch)
        prob = build_subspace_direct(fermionic_basis(4, 1), stretched["h"],
                                     sol.output_rho)
        spec = solve_subspace(prob)
        assert spec.eigenvalues[0] < sol.energy
