import struct
import tracemalloc
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermion_oracle import add, adjoint, commutator, mul, normal_order, rank, s_squared
from pauli_oracle import (apply_pauli, kron_dense, letter_jordan_wigner, letter_masks,
                          letter_product, loop_apply_right, pauli_action)
from vcsqse import operators
from vcsqse.molecule import assemble_hamiltonian
from vcsqse.operators import (PRUNE_TOL, FermionOperator, PauliOperator, dense_symmetry,
                              fermion_to_dense, jordan_wigner, parse_ladder,
                              symmetry_operator)
from vcsqse.vcs import _penalty_terms


def random_fermion(rng, m, n_terms=6, max_len=4):
    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, max_len + 1))
        seq = tuple((int(rng.integers(0, m)), bool(rng.integers(0, 2)))
                    for _ in range(length))
        terms[seq] = terms.get(seq, 0.0) + complex(rng.normal(), rng.normal())
    return FermionOperator(m, terms)


def pauli_dense(op):
    """Dense matrix of a PauliOperator: its action on the identity."""
    return apply_pauli(pauli_action(op), np.eye(1 << op.qubit_count))


def jw_dense(op):
    return pauli_dense(jordan_wigner(op))


def ladder_loop_dense(op):
    """fermion_to_dense as one Python loop over terms and basis states."""
    dim = 1 << op.mode_count
    out = np.zeros((dim, dim), dtype=complex)
    for seq, coeff in op.terms.items():
        for b in range(dim):
            state, phase, alive = b, 1.0, True
            for mode, dagger in reversed(seq):
                if dagger == bool((state >> mode) & 1):
                    alive = False
                    break
                if (state & ((1 << mode) - 1)).bit_count() & 1:
                    phase = -phase
                state ^= 1 << mode
            if alive:
                out[state, b] += coeff * phase
    return out


class TestFermionAlgebra:
    def test_adjoint_of_ladder(self):
        a0d = FermionOperator.from_term("0^", 1.0, 2)
        assert adjoint(a0d).render() == "(1+0i) [0]"

    def test_adjoint_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            op = random_fermion(rng, 3)
            assert np.abs(fermion_to_dense(adjoint(adjoint(op)))
                          - fermion_to_dense(op)).max() < 1e-12

    def test_adjoint_reverses_and_conjugates(self):
        op = FermionOperator.from_term("0^ 1", 2.0 + 1.0j, 2)
        assert adjoint(op).render() == "(2-1i) [1^ 0]"

    def test_commutator_with_self_is_zero(self):
        rng = np.random.default_rng(1)
        op = random_fermion(rng, 3)
        assert normal_order(commutator(op, op)).is_zero()

    def test_commutator_example_symbolic_and_dense(self):
        a = FermionOperator.from_term("0^ 1", 1.0, 2)
        b = FermionOperator.from_term("1^ 0", 1.0, 2)
        comm = normal_order(commutator(a, b))
        expected = add(FermionOperator.from_term("0^ 0", 1.0, 2),
                       FermionOperator.from_term("1^ 1", -1.0, 2))
        assert comm.render() == normal_order(expected).render()
        # independent dense oracle through the JW route
        assert np.abs(jw_dense(comm)
                      - (jw_dense(a) @ jw_dense(b) - jw_dense(b) @ jw_dense(a))
                      ).max() < 1e-12

    def test_mode_count_mismatch(self):
        a = FermionOperator.from_term("0^", 1.0, 2)
        b = FermionOperator.from_term("0^", 1.0, 3)
        with pytest.raises(ValueError, match="mode_count"):
            mul(a, b)
        with pytest.raises(ValueError, match="mode_count"):
            add(a, b)

    def test_rank(self):
        op = FermionOperator.from_term("0^ 1^ 2 3", 1.0, 4)
        assert rank(op) == 2
        assert rank(FermionOperator.identity(4)) == 0


class TestNormalOrder:
    def test_anticommutation_rule(self):
        op = FermionOperator.from_term("0 0^", 1.0, 1)
        assert normal_order(op).render() == "(1+0i) []\n(-1+0i) [0^ 0]"

    def test_disjoint_modes_anticommute(self):
        op = FermionOperator.from_term("1 0^", 1.0, 2)
        assert normal_order(op).render() == "(-1+0i) [0^ 1]"

    def test_repeated_ladder_operators_vanish(self):
        assert normal_order(FermionOperator.from_term("0^ 0^", 1.0, 2)).is_zero()
        assert normal_order(FermionOperator.from_term("1 1", 1.0, 2)).is_zero()

    def test_preserves_dense_representation(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            op = random_fermion(rng, 4)
            assert np.abs(fermion_to_dense(normal_order(op))
                          - fermion_to_dense(op)).max() < 1e-12

    def test_term_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            op = normal_order(random_fermion(rng, 4))
            for seq in op.terms:
                daggers = [d for _, d in seq]
                # all creations before all annihilations
                assert daggers == sorted(daggers, reverse=True)
                creations = [m for m, d in seq if d]
                annihilations = [m for m, d in seq if not d]
                assert creations == sorted(creations)
                assert annihilations == sorted(annihilations, reverse=True)

    def test_commutator_with_two_body_h_has_rank_three(self):
        # (a_i^ a_j)^dag [H, a_k^ a_l] contracts to at most three-body terms
        rng = np.random.default_rng(4)
        m = 4
        terms = {}
        for _ in range(10):
            p, q, r, s = (int(rng.integers(0, m)) for _ in range(4))
            seq = ((p, True), (q, True), (r, False), (s, False))
            terms[seq] = terms.get(seq, 0.0) + rng.normal()
        h = FermionOperator(m, terms)
        h = add(h, adjoint(h))
        for (i, j, k, l) in [(0, 1, 2, 3), (1, 1, 0, 2), (3, 0, 0, 0)]:
            exc = FermionOperator(m, {((k, True), (l, False)): 1.0})
            row = FermionOperator(m, {((i, True), (j, False)): 1.0})
            comm = normal_order(commutator(h, exc))
            assert rank(comm) <= 2
            assert rank(normal_order(mul(adjoint(row), comm))) <= 3


class TestJordanWigner:
    def test_single_mode_creation(self):
        op = jordan_wigner(FermionOperator.from_term("0^", 1.0, 1))
        assert op.render() == "(0.5+0i) [X0]\n(0-0.5i) [Y0]"

    def test_parity_string(self):
        op = jordan_wigner(FermionOperator.from_term("1^", 1.0, 2))
        assert op.render() == "(0.5+0i) [Z0 X1]\n(0-0.5i) [Z0 Y1]"

    def test_number_operator_single_mode(self):
        op = jordan_wigner(FermionOperator.from_term("0^ 0", 1.0, 1))
        # (I - Z)/2, checked against a 2x2 multiplication oracle
        dense = pauli_dense(op)
        assert np.abs(dense - np.diag([0.0, 1.0])).max() < 1e-14

    def test_homomorphism_on_random_operators(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_fermion(rng, 4, n_terms=4, max_len=3)
            b = random_fermion(rng, 4, n_terms=4, max_len=3)
            lhs = jw_dense(mul(a, b))
            rhs = jw_dense(a) @ jw_dense(b)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_ladder_adjoint_pairs_and_anticommutators(self):
        m = 3
        eye = np.eye(1 << m)
        for p in range(m):
            cp = jw_dense(FermionOperator.from_term(f"{p}^", 1.0, m))
            ap = jw_dense(FermionOperator.from_term(f"{p}", 1.0, m))
            assert np.abs(cp - ap.conj().T).max() < 1e-14
            for q in range(m):
                aq = jw_dense(FermionOperator.from_term(f"{q}", 1.0, m))
                anti = aq @ cp + cp @ aq
                expected = eye if p == q else 0.0 * eye
                assert np.abs(anti - expected).max() < 1e-13

    def test_jw_route_matches_direct_dense(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            op = random_fermion(rng, 4)
            assert np.abs(jw_dense(op) - fermion_to_dense(op)).max() < 1e-12

    def test_direct_dense_equals_loop_bit_for_bit(self, sweep_points):
        """Same arithmetic in the same order as the per-state loop."""
        rng = np.random.default_rng(8)
        ops = [random_fermion(rng, 3) for _ in range(20)]
        ops += [assemble_hamiltonian(sweep_points[5].integrals),
                symmetry_operator("s_squared", 4)]
        for op in ops:
            assert np.array_equal(fermion_to_dense(op), ladder_loop_dense(op))

    def test_chunked_dense_build_is_bit_identical_and_small(self, monkeypatch):
        """At M = 10 the terms go in several chunks: the peak stays within
        1.5x the 16 MiB output, and the matrix equals the one-chunk build."""
        op = random_fermion(np.random.default_rng(40), 10, n_terms=1500)
        assert len(op.terms) > 2 * (operators.DENSE_CHUNK_ENTRIES >> 10)
        tracemalloc.start()
        try:
            got = fermion_to_dense(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * got.nbytes
        monkeypatch.setattr(operators, "DENSE_CHUNK_ENTRIES", len(op.terms) << 10)
        assert np.array_equal(got, fermion_to_dense(op))


class TestPauliOperator:
    def test_identity_dense(self):
        assert np.abs(pauli_dense(PauliOperator.identity(2)) - np.eye(4)).max() == 0

    def test_z_on_single_qubit(self):
        op = PauliOperator.from_letter("Z", 0, 1)
        assert np.abs(pauli_dense(op) - np.diag([1.0, -1.0])).max() == 0

    def test_number_operator_occupation_ordering(self):
        n_op = jordan_wigner(symmetry_operator("number", 2))
        dense = pauli_dense(n_op)
        occupations = np.array([bin(b).count("1") for b in range(4)], dtype=float)
        assert np.abs(dense - np.diag(occupations)).max() < 1e-14

    def test_products_match_dense(self):
        """The letter table's product of two words, phase and word, is the
        product of their Kronecker matrices."""
        rng = np.random.default_rng(7)
        letters = "IXYZ"
        for _ in range(30):
            w1 = "".join(rng.choice(list(letters)) for _ in range(3))
            w2 = "".join(rng.choice(list(letters)) for _ in range(3))
            c, word = letter_product(w1, w2)
            product = pauli_dense(PauliOperator(3, {word: c}))
            assert np.abs(product - kron_dense(PauliOperator(3, {w1: 1.0}))
                          @ kron_dense(PauliOperator(3, {w2: 1.0}))).max() < 1e-13

    def test_dense_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            pauli_action(PauliOperator.identity(13))

    @pytest.mark.parametrize("n", [-1, 63])
    def test_qubit_count_outside_a_word_mask_raises(self, n):
        with pytest.raises(ValueError, match="outside the 0..62 qubits"):
            PauliOperator(n)

    def test_word_mask_limits(self):
        assert PauliOperator.identity(0).terms == {"": 1.0}
        op = PauliOperator.from_letter("Y", 61, 62)
        assert (op.x.tolist(), op.z.tolist()) == ([1 << 61], [1 << 61])

    def test_action_masks_and_phases(self):
        # Y0 Z1 on |j>: x = 0b01, z = 0b11, one Y
        src, phase = pauli_action(PauliOperator(2, {"YZ": 2.0}))
        assert src.tolist() == [[1, 0, 3, 2]]
        assert phase.tolist() == [[-2j, 2j, 2j, -2j]]

    def test_render_golden(self):
        op = PauliOperator(2, {"ZX": 0.25})
        assert op.render() == "(0.25+0i) [Z0 X1]"
        fop = FermionOperator.from_term("0^ 1", -0.5, 2)
        assert fop.render() == "(-0.5+0i) [0^ 1]"

    def test_render_sorted_and_sigfigs(self):
        op = FermionOperator(2, {parse_ladder("1^ 0"): 1 / 3, parse_ladder("0^ 1"): -1.0})
        assert op.render() == "(-1+0i) [0^ 1]\n(0.333333333333+0i) [1^ 0]"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(1.0, float("nan"))],
                             ids=["nan", "inf", "nan_imaginary"])
    def test_non_finite_coefficients_raise(self, value):
        """A non-finite coefficient fails instead of being pruned as small."""
        with pytest.raises(ValueError, match="non-finite"):
            FermionOperator(2, {((0, True), (0, False)): value})
        with pytest.raises(ValueError, match="non-finite"):
            PauliOperator(1, {"Z": value})


class TestSymmetryOperators:
    def test_number_m2(self):
        op = symmetry_operator("number", 2)
        assert op.render() == "(1+0i) [0^ 0]\n(1+0i) [1^ 1]"

    def test_s_squared_on_vacuum(self):
        s2 = fermion_to_dense(symmetry_operator("s_squared", 4))
        vac = np.zeros(16)
        vac[0] = 1.0
        assert abs(vac @ s2 @ vac) < 1e-14

    def test_s_squared_triplet_eigenvalue(self):
        # a_{0a}^ a_{1a}^ |vac> occupies modes 0 and 2 -> S=1, eigenvalue 2
        s2 = fermion_to_dense(symmetry_operator("s_squared", 4))
        state = np.zeros(16)
        state[0b0101] = 1.0
        assert np.abs(s2 @ state - 2.0 * state).max() < 1e-12

    def test_s_squared_sector_diagonalization(self):
        # dense diagonalization of S^2 in the 2-electron sector: {0, 2} only
        s2 = fermion_to_dense(symmetry_operator("s_squared", 4))
        idx = [b for b in range(16) if bin(b).count("1") == 2]
        w = np.linalg.eigvalsh(s2[np.ix_(idx, idx)])
        assert np.allclose(sorted(w), [0, 0, 0, 2, 2, 2], atol=1e-12)

    def test_s_squared_commutes_with_number_and_sz(self):
        s2 = fermion_to_dense(symmetry_operator("s_squared", 4))
        for name in ("number", "sz"):
            od = fermion_to_dense(symmetry_operator(name, 4))
            assert np.abs(s2 @ od - od @ s2).max() < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_s_squared_closed_form_matches_oracle(self, m):
        """The closed-form terms are S_- S_+ + S_z^2 + S_z normal-ordered."""
        oracle = s_squared(m)
        assert symmetry_operator("s_squared", m).render() == oracle.render()
        assert np.array_equal(dense_symmetry("s_squared", m), fermion_to_dense(oracle))

    def test_spinful_operators_need_even_modes(self):
        with pytest.raises(ValueError, match="even"):
            symmetry_operator("sz", 3)
        with pytest.raises(ValueError, match="unknown"):
            symmetry_operator("parity", 4)


def _penalized(h, penalties, mode_count):
    """H plus each penalty term in turn, as solve_vcs adds them."""
    return sum(_penalty_terms(penalties, mode_count), h)


class TestPenalty:
    """H + weight (O - target)^2 with O named, as configs give penalties."""

    def test_zero_weight_is_identity(self):
        h = FermionOperator.from_term("0^ 1", 1.0, 2)
        hd = fermion_to_dense(add(h, adjoint(h)))
        assert np.abs(_penalized(hd, [("number", 1.0, 0.0)], 2) - hd).max() < 1e-14

    def test_eigenstate_energy_unchanged(self):
        hd = fermion_to_dense(FermionOperator.from_term("0^ 0", -1.0, 2))
        pd = _penalized(hd, [("number", 1.0, 50.0)], 2)
        state = np.zeros(4)
        state[0b01] = 1.0  # one electron: N eigenvalue 1 = target
        assert abs(state @ hd @ state - state @ pd @ state) < 1e-12

    def test_number_penalty_shift(self):
        # (N - 2)^2 = 1 on a one-electron state -> energy shift +10
        dense = _penalized(np.zeros((16, 16)), [("number", 2.0, 10.0)], 4)
        state = np.zeros(16)
        state[0b0001] = 1.0
        assert abs(np.real(state @ dense @ state) - 10.0) < 1e-12
        # independent dense oracle for (N-2)^2
        nd = np.diag([float(bin(b).count("1")) for b in range(16)])
        oracle = 10.0 * (nd - 2 * np.eye(16)) @ (nd - 2 * np.eye(16))
        assert np.abs(dense - oracle).max() < 1e-12

    def test_penalized_operator_stays_hermitian(self):
        h = FermionOperator.from_term("0^ 1", 0.3 + 0.1j, 4)
        dense = _penalized(fermion_to_dense(add(h, adjoint(h))),
                           [("s_squared", 0.0, 3.0)], 4)
        assert np.abs(dense - dense.conj().T).max() < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _penalized(np.zeros((4, 4)), [("number", 0.0, -1.0)], 2)


pauli_words = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=4))
complex_coeffs = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                    allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(words=pauli_words, coeffs=st.lists(complex_coeffs, min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pauli_action_matches_kron_oracle(words, coeffs, seed):
    """The signed permutations of operators._signed_permutation, applied from
    the left and the right and as a dense form, agree with Kronecker chains."""
    n = len(words[0])
    terms = {}
    for word, coeff in zip(words, coeffs):
        terms[word] = terms.get(word, 0.0) + coeff
    op = PauliOperator(n, terms)
    dense = kron_dense(op)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    mat = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(pauli_dense(op) - dense).max() <= 1e-14 * scale
    act = pauli_action(op)
    assert np.abs(apply_pauli(act, vec) - dense @ vec).max() <= 1e-12 * scale
    assert np.abs(apply_pauli(act, mat) - dense @ mat).max() <= 1e-12 * scale
    assert np.abs(loop_apply_right(mat, act) - mat @ dense).max() <= 1e-12 * scale



@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
    st.text("IXYZ", min_size=n, max_size=n), complex_coeffs, max_size=8))))
def test_letters_round_trip_through_masks(case):
    """Words keep their order and their coefficients' bits through the
    stored masks, and the masks are the letter parse of the oracle."""
    n, terms = case
    op = PauliOperator(n, terms)
    kept = {word: complex(c) for word, c in terms.items() if abs(c) >= PRUNE_TOL}
    assert coefficient_bits(op) == [(word, struct.pack("dd", c.real, c.imag))
                                    for word, c in kept.items()]
    assert np.array_equal(np.stack([op.x, op.z], axis=1), letter_masks(list(kept), n))


def coefficient_bits(op):
    """Words in order, each with the bytes of its coefficient's two parts."""
    return [(word, struct.pack("dd", c.real, c.imag)) for word, c in op.terms.items()]


@st.composite
def fermion_operators(draw, max_modes=6):
    """Random operators on M <= max_modes modes: any ladder order, modes repeated."""
    m = draw(st.integers(1, max_modes))
    ladders = st.tuples(st.integers(0, m - 1), st.booleans())
    seqs = st.lists(ladders, max_size=6).map(tuple)
    return FermionOperator(m, draw(st.dictionaries(seqs, complex_coeffs, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(op=fermion_operators())
@example(op=FermionOperator(8, {parse_ladder("4^ 0 4 6^"): 1.0 - 0.5j}))
def test_jordan_wigner_matches_letter_oracle(op):
    """The closed-form words give the letter table's words, order and coefficient bits."""
    assert coefficient_bits(jordan_wigner(op)) == coefficient_bits(letter_jordan_wigner(op))


@settings(max_examples=100, deadline=None)
@given(op=fermion_operators(max_modes=5))
def test_letter_jordan_wigner_matches_ladder_loop(op):
    """Jordan-Wigner against direct ladder action through two test-only
    routes, as jordan_wigner and fermion_to_dense share _ladder_masks: the
    letter-table words as Kronecker chains, and the per-state ladder loop."""
    assert np.abs(kron_dense(letter_jordan_wigner(op)) - ladder_loop_dense(op)).max() <= 1e-12


@st.composite
def chunked_operators(draw):
    """Random operators on M <= 8 modes, with a chunk of fewer terms than
    the operator has whenever it has more than one."""
    m = draw(st.integers(1, 8))
    ladders = st.tuples(st.integers(0, m - 1), st.booleans())
    seqs = st.lists(ladders, max_size=6).map(tuple)
    op = FermionOperator(m, draw(st.dictionaries(seqs, complex_coeffs, min_size=1,
                                                 max_size=6)))
    return op, draw(st.integers(1, max(1, len(op.terms) - 1)))


@settings(max_examples=150, deadline=None)
@given(case=chunked_operators())
@example(case=(FermionOperator(4, {(): 1.5, parse_ladder("3^ 3^"): 1.0,
                                   parse_ladder("1 1^ 1"): 2.0 - 1.0j,
                                   parse_ladder("2^ 2 2^"): -0.5j,
                                   parse_ladder("0^ 3 1^ 2 3^ 0"): 0.25}), 2))
@example(case=(FermionOperator(8, {parse_ladder("7^ 0 4 4^ 0^ 6"): 1.0 + 1.0j,
                                   parse_ladder("5 2^"): -3.0}), 1))
@example(case=(FermionOperator(6, {(): -0.75, parse_ladder("0^ 5 3 3^"): 2.0,
                                   parse_ladder("4 1^ 1"): -1e-3}), 2))
def test_closed_form_ladder_action_matches_loop_oracle(case):
    """_ladder_action's (src, weight) per sequence, and fermion_to_dense in one
    chunk and with a chunk edge inside the terms, equal the per-state loop.
    With real coefficients the matrix is float64, its bits those of the
    complex oracle's real part, whose imaginary part is zero."""
    op, chunk = case
    m = op.mode_count
    states = np.arange(1 << m)
    src, weight = operators._ladder_action(tuple(op.terms), m)
    for t, seq in enumerate(op.terms):
        loop = ladder_loop_dense(FermionOperator(m, {seq: 1.0}))
        x = 0
        for mode, _ in seq:
            x ^= 1 << mode
        assert np.array_equal(src[t], states ^ x)
        assert np.array_equal(loop[states, src[t]], weight[t])
        assert np.count_nonzero(loop) == np.count_nonzero(weight[t])
    want = ladder_loop_dense(op)
    if not any(c.imag for c in op.terms.values()):
        assert not want.imag.any()
        want = want.real
    got = [fermion_to_dense(op)]
    with mock.patch.object(operators, "DENSE_CHUNK_ENTRIES", chunk << m):
        got.append(fermion_to_dense(op))
    for dense in got:
        assert dense.dtype == want.dtype and dense.tobytes() == want.tobytes()


@st.composite
def term_dicts(draw):
    """(M, {seq: coeff}) on 0 <= M <= 8 modes, sequences of 0 to 4 slots.
    Daggers come as True or 2 and False or None, so two keys can name one
    sequence and be summed, and coefficients near -1 cancel a 1.0 to below
    PRUNE_TOL."""
    m = draw(st.integers(0, 8))
    ladders = st.tuples(st.integers(0, max(m - 1, 0)), st.sampled_from([True, 2, False, None]))
    seqs = st.lists(ladders, max_size=4 if m else 0).map(tuple)
    coeffs = st.one_of(complex_coeffs, st.sampled_from([1.0, -1.0, -1.0 + 5e-15, 5e-15, 0.5j]))
    return m, draw(st.dictionaries(seqs, coeffs, max_size=8))


@settings(max_examples=150, deadline=None)
@given(case=term_dicts())
@example(case=(3, {((1, True), (2, False)): 1.0, ((1, 2), (2, None)): -1.0 + 5e-15,
                   (): 5e-15, ((0, False),): 0.5j, ((0, None),): -1.0}))
def test_terms_round_trip_through_ladder_arrays(case):
    """An operator rebuilt from its terms has the same ladder and coeffs
    bits in the same order, and its dense matrix is the per-state loop's."""
    m, terms = case
    op = FermionOperator(m, terms)
    again = FermionOperator(m, op.terms)
    assert again.ladder.shape == op.ladder.shape and again.ladder.dtype == np.int64
    assert again.ladder.tobytes() == op.ladder.tobytes()
    assert again.coeffs.tobytes() == op.coeffs.tobytes()
    want = ladder_loop_dense(op)
    if not op.coeffs.imag.any():
        want = want.real
    assert fermion_to_dense(op).tobytes() == want.tobytes()


class TestFermionStorage:
    def test_duplicates_sum_at_their_first_place_and_small_sums_go(self):
        op = FermionOperator(3, {((2, False),): 1.0, ((0, True),): 1.0, ((2, None),): 0.5,
                                 ((0, 2),): -1.0 + 5e-15, (): 5e-15})
        assert op.terms == {((2, False),): 1.5}
        assert op.ladder.tolist() == [[[2, 0, 1]]]

    def test_arrays_are_read_only_and_terms_is_a_copy(self, sto3g_ints):
        for op in (FermionOperator.from_term("0^ 1", 0.5, 2), assemble_hamiltonian(sto3g_ints)):
            ladder, coeffs = op.ladder.tobytes(), op.coeffs.tobytes()
            for arr in (op.ladder, op.coeffs):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0
            terms = op.terms
            terms.clear()
            terms[()] = 7.0
            assert op.terms != terms and len(op.terms) == len(op.coeffs)
            assert (op.ladder.tobytes(), op.coeffs.tobytes()) == (ladder, coeffs)

    def test_kernels_convert_no_sequence(self, sto3g_ints, monkeypatch):
        """fermion_to_dense and jordan_wigner read op.ladder and op.coeffs;
        neither turns a term tuple into slots again."""
        h = assemble_hamiltonian(sto3g_ints)
        calls = []
        slots = operators._ladder_slots
        monkeypatch.setattr(operators, "_ladder_slots",
                            lambda seqs: calls.append(seqs) or slots(seqs))
        fermion_to_dense(h)
        jordan_wigner(h)
        assert calls == []


class TestJordanWignerOracle:
    def test_every_excitation_up_to_m6(self):
        for m in range(1, 7):
            for k in range(1, min(m, 4) + 1):
                combos = list(combinations(range(m), k))
                for upper, lower in product(combos, repeat=2):
                    seq = (tuple((i, True) for i in upper)
                           + tuple((j, False) for j in reversed(lower)))
                    op = FermionOperator(m, {seq: 1.0})
                    assert (coefficient_bits(jordan_wigner(op))
                            == coefficient_bits(letter_jordan_wigner(op)))

    def test_fixture_hamiltonians(self, sweep_points, sto3g_ints):
        for ints in [pt.integrals for pt in sweep_points] + [sto3g_ints]:
            h = assemble_hamiltonian(ints)
            assert (coefficient_bits(jordan_wigner(h))
                    == coefficient_bits(letter_jordan_wigner(h)))

    def test_cancelled_word_returns_at_the_end(self):
        # Z0 cancels after the second term and comes back with the fourth
        op = FermionOperator(2, {parse_ladder("0^ 0"): 1.0, parse_ladder("0 0^"): 1.0,
                                 parse_ladder("1^ 1"): 1.0,
                                 parse_ladder("0^ 0 0^ 0"): 1.0})
        assert list(jordan_wigner(op).terms) == ["II", "IZ", "ZI"]
        assert (coefficient_bits(jordan_wigner(op))
                == coefficient_bits(letter_jordan_wigner(op)))

    def test_products_below_tolerance_drop_inside_a_term(self):
        # the words of 3e-14 a_0^ a_1 fall to 7.5e-15 < PRUNE_TOL at its second
        # ladder, so they never reach the same words of a_1 a_0^
        big = FermionOperator(2, {parse_ladder("1 0^"): 1.0})
        op = FermionOperator(2, {parse_ladder("1 0^"): 1.0, parse_ladder("0^ 1"): 3e-14})
        assert coefficient_bits(jordan_wigner(op)) == coefficient_bits(jordan_wigner(big))
        assert (coefficient_bits(jordan_wigner(op))
                == coefficient_bits(letter_jordan_wigner(op)))

    def test_more_modes_than_a_word_mask_holds(self):
        assert list(jordan_wigner(FermionOperator.from_term("61^", 1.0, 62)).terms) == [
            "Z" * 61 + "X", "Z" * 61 + "Y"]
        with pytest.raises(ValueError, match="62 modes"):
            jordan_wigner(FermionOperator.identity(63))
