"""Reference constructions of Pauli operators and subspace matrices.

letter_jordan_wigner maps a fermionic operator to Pauli words by
multiplying letter strings through the 16-entry single-qubit product table,
ladder operator by ladder operator: the package reads the words off each
sequence's closed-form ladder masks instead, and must match it word for
word and bit for bit.

kron_dense builds a Pauli sum as a Kronecker chain of 2x2 matrices per
word, and dense_subspace assembles Tr[E_a^ W E_b rho] from those dense basis
operators by plain matrix products. Both are the textbook definitions the
package's signed-permutation kernels must reproduce, for the tests only.
Each basis element costs a 4^M matrix and two 8^M products, so keep M small.
single_pauli writes a one-letter word as a PauliOperator.

pauli_basis is the symbolic expansion basis the one-permutation form
replaced: each fermionic product normal-ordered and mapped by
letter_jordan_wigner to 4 or 16 Pauli words, each qubit element one word,
duplicates found by their rendered text. loop_apply_right and
loop_subspace act with those Pauli forms through apply_pauli, one word and
one element at a time. Where every word sum is exact (qubit elements, fermionic order 1)
the package's single gather per element must match them bit for bit, and
to rounding elsewhere.

pauli_action gives every word of an operator as the signed permutation
(src, phase) of operators._signed_permutation, and apply_pauli adds the
words of one operator to a vector or matrix one at a time: the package's
per-word route before its expectations became Walsh-Hadamard transforms.
letter_masks reads the (x, z) bit masks off a (words, n) array of letters,
and letter_pauli_action builds on them instead of the operator's stored
masks, and must agree with pauli_action exactly. apply_paulis takes each
<P> of a batch of (x, z) mask rows as the full P @ state by apply_pauli,
and apply_estimate_pauli draws from it: the per-word route
rdm._exact_paulis must match to rounding, and whose draws the package's
must match bit for bit given the same <P>.
uniform_estimate_pauli counts the +1 outcomes of shots uniform draws, the
estimator the one binomial draw per word replaced; the two follow the same
law but draw different numbers.
"""

from itertools import combinations, product

import numpy as np

from fermion_oracle import normal_order
from vcsqse.operators import (DENSE_QUBIT_LIMIT, PRUNE_TOL, FermionOperator,
                              PauliOperator, _signed_permutation)

# (a, b) -> (phase, a*b) for single-qubit Pauli letters.
_PAULI_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def letter_product(w1, w2):
    """(phase, word) of the product of two Pauli words, letter by letter."""
    phase = 1.0 + 0.0j
    letters = []
    for a, b in zip(w1, w2):
        ph, c = _PAULI_MUL[(a, b)]
        phase *= ph
        letters.append(c)
    return phase, "".join(letters)


def _pruned(terms):
    return {w: c for w, c in terms.items() if abs(c) >= PRUNE_TOL}


def letter_jordan_wigner(op: FermionOperator) -> PauliOperator:
    """jordan_wigner(op) by letter-string products, pruned after every step."""
    n = op.mode_count
    out = {}
    for seq, coeff in op.terms.items():
        acc = PauliOperator(n, {"I" * n: coeff}).terms
        for mode, dagger in seq:
            zs, tail = "Z" * mode, "I" * (n - mode - 1)
            # .terms rebuilds its dict on every read, so read it once per factor
            factor = PauliOperator(n, {zs + "X" + tail: 0.5,
                                       zs + "Y" + tail: -0.5j if dagger else 0.5j}).terms
            product_terms = {}
            for w1, c1 in acc.items():
                for w2, c2 in factor.items():
                    phase, word = letter_product(w1, w2)
                    product_terms[word] = product_terms.get(word, 0.0) + c1 * c2 * phase
            acc = _pruned(product_terms)
        for word, c in acc.items():
            out[word] = out.get(word, 0.0) + c
        out = _pruned(out)
    return PauliOperator(n, out)


def single_pauli(letter, qubit, n, coeff=1.0) -> PauliOperator:
    """coeff times the n-qubit word with letter on qubit and I elsewhere."""
    return PauliOperator(n, {"".join(letter if q == qubit else "I" for q in range(n)): coeff})


def kron_dense(op) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a PauliOperator; qubit 0 is the lowest bit."""
    dim = 1 << op.qubit_count
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in op.terms.items():
        mat = np.array([[coeff]], dtype=complex)
        # Highest qubit first so bit i of the index is qubit i.
        for ch in reversed(word):
            mat = np.kron(mat, _PAULI_MATS[ch])
        out += mat
    return out


def pauli_basis(kind, m, order, includes_reference=True):
    """(operators, labels) of the expansion basis built symbolically.

    Fermionic: identity (label "g") when the reference is included, then
    each (a_i^ a_j)^order normal-ordered and Jordan-Wigner mapped. Qubit:
    identity, then single Pauli words and for order 2 pairs. Zero elements
    and repeats of an earlier rendered form are dropped.
    """
    ops, labels = [], []
    if kind == "fermionic":
        if includes_reference:
            ops.append(PauliOperator(m, {"I" * m: 1.0}))
            labels.append("g")
        for indices in product(range(m), repeat=2 * order):
            pairs = list(zip(indices[0::2], indices[1::2]))
            seq = tuple(op for i, j in pairs for op in ((i, True), (j, False)))
            ops.append(letter_jordan_wigner(normal_order(FermionOperator(m, {seq: 1.0}))))
            labels.append(" ".join(f"{i}^ {j}" for i, j in pairs))
    else:
        ops.append(PauliOperator(m, {"I" * m: 1.0}))
        labels.append("g")
        for q in range(m):
            for letter in "XYZ":
                ops.append(single_pauli(letter, q, m))
                labels.append(f"{letter}{q}")
        if order == 2:
            for q1, q2 in combinations(range(m), 2):
                for l1, l2 in product("XYZ", repeat=2):
                    word = ["I"] * m
                    word[q1], word[q2] = l1, l2
                    ops.append(PauliOperator(m, {"".join(word): 1.0}))
                    labels.append(f"{l1}{q1} {l2}{q2}")
    seen, out_ops, out_labels = set(), [], []
    for op, label in zip(ops, labels):
        key = op.render()
        if op.terms and key not in seen:
            seen.add(key)
            out_ops.append(op)
            out_labels.append(label)
    return out_ops, out_labels


def dense_subspace(ops, h, rho, symmetry_ops=None):
    """(h_sub, s_sub, {name: sym_sub}) by dense traces Tr[E_a^ W E_b rho],
    E_b the Pauli operators ops."""
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    dense_ops = [kron_dense(op) for op in ops]
    evec = np.stack([e.ravel() for e in dense_ops], axis=1)

    def block(weight):
        cols = np.stack([(weight @ e @ rho).ravel() for e in dense_ops], axis=1)
        mat = evec.conj().T @ cols
        return 0.5 * (mat + mat.conj().T)

    sym = {name: block(np.asarray(op, dtype=complex))
           for name, op in (symmetry_ops or {}).items()}
    return block(h), block(np.eye(h.shape[0])), sym


def pauli_action(op: PauliOperator) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation form of every word of op: arrays src and phase.

    Both have shape (words, 2^n), in op.terms order. Word w with
    coefficient c sends v to phase[w] * v[src[w]], where src[w, j] = j ^ x
    and phase[w, j] = c * i^#Y * (-1)^popcount(src[w, j] & z).
    """
    n = op.qubit_count
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"qubit_count {n} exceeds dense limit {DENSE_QUBIT_LIMIT}")
    return _signed_permutation(op.x[:, None], op.z[:, None], op.coeffs[:, None], n)


def apply_pauli(action, arr):
    """P @ arr for P given as pauli_action(P), along axis 0 of a vector or
    matrix, one word at a time."""
    src, phase = action
    arr = np.asarray(arr, dtype=complex)
    tail = (1,) * (arr.ndim - 1)
    out = np.zeros(arr.shape, dtype=complex)
    for s, ph in zip(src, phase):
        # phase first, as in phase * v[src]: complex products rounded with
        # fused multiply-adds depend on the operand order
        out += ph.reshape(ph.shape + tail) * arr[s]
    return out


def loop_apply_right(arr, action):
    """arr @ P as the transposed action on arr^T, one word at a time."""
    src, phase = action
    moved = np.take_along_axis(phase, src, axis=1)
    return apply_pauli((src, moved), np.asarray(arr).T).T


def loop_subspace(ops, h, rho, symmetry_ops=None):
    """(h_sub, s_sub, {name: sym_sub}) gathered one Pauli operator of ops and
    one of its words at a time.

    A state vector gives Phi = [E_b psi] and each block Phi^ (W Phi); a
    density matrix gives sum_ij conj(E_a rho)_ij (W E_b)_ij.
    """
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    dim = h.shape[0]
    actions = [pauli_action(op) for op in ops]
    if rho.ndim == 1:
        phi = np.stack([apply_pauli(act, rho) for act in actions], axis=1)

        def block(weight):
            mat = phi.conj().T @ (weight @ phi)
            return 0.5 * (mat + mat.conj().T)
    else:
        n_b = len(actions)
        rows = np.empty((n_b, dim, dim), dtype=complex)
        cols = np.empty_like(rows)
        for b, act in enumerate(actions):
            rows[b] = apply_pauli(act, rho)
        np.conj(rows, out=rows)

        def block(weight):
            for b, act in enumerate(actions):
                cols[b] = loop_apply_right(weight, act)
            mat = rows.reshape(n_b, -1) @ cols.reshape(n_b, -1).T
            return 0.5 * (mat + mat.conj().T)

    sym = {name: block(np.asarray(op, dtype=complex))
           for name, op in (symmetry_ops or {}).items()}
    return block(h), block(np.eye(dim)), sym


def letter_masks(words, n):
    """(words, 2) int64 rows (x, z) of n-qubit letter words: bit q of x is
    set where letter q is X or Y, of z where it is Z or Y."""
    letters = np.array([list(word) for word in words], dtype="U1").reshape(len(words), n)
    bits = 1 << np.arange(n, dtype=np.int64)
    is_y = letters == "Y"
    return np.stack([((letters == "X") | is_y) @ bits, ((letters == "Z") | is_y) @ bits],
                    axis=1).reshape(-1, 2)


def letter_pauli_action(op):
    """pauli_action(op) with the masks read from its words' letters."""
    n = op.qubit_count
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"qubit_count {n} exceeds dense limit {DENSE_QUBIT_LIMIT}")
    terms = op.terms
    words = list(terms)
    x, z = letter_masks(words, n).T
    i_pow = np.array([1, 1j, -1, -1j])[np.array([w.count("Y") for w in words], dtype=int) % 4]
    c = np.array(list(terms.values()), dtype=complex) * i_pow
    src = np.arange(1 << n) ^ x[:, None]
    odd = np.bitwise_count(src & z[:, None]) & 1
    return src, np.where(odd, -c[:, None], c[:, None])


def mask_word(x, z, n):
    """The letters of the n-qubit word with X/Y mask x and Z/Y mask z."""
    return "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n))


def apply_paulis(state, masks):
    """Exact <P> of every (words, 2) (x, z) mask row, each as the full
    P @ state of its letter_pauli_action by apply_pauli."""
    state = np.asarray(state, dtype=complex)
    n = state.shape[0].bit_length() - 1
    out = []
    for x, z in np.asarray(masks).reshape(-1, 2).tolist():
        acted = apply_pauli(letter_pauli_action(PauliOperator(n, {mask_word(x, z, n): 1.0})),
                            state)
        out.append(np.real(state.conj() @ acted if state.ndim == 1 else np.trace(acted)))
    return np.array(out, dtype=float)


def apply_estimate_pauli(state, pauli, shots, seed):
    """estimate_pauli through apply_pauli and one rng.binomial call."""
    return _estimate(state, pauli, shots,
                     lambda p: int(np.random.default_rng(seed).binomial(shots, p)))


def uniform_estimate_pauli(state, pauli, shots, seed):
    """estimate_pauli's law by counting rng.random(shots) draws below p."""
    return _estimate(state, pauli, shots, lambda p: int(np.count_nonzero(
        np.random.default_rng(seed).random(shots) < p)))


def _estimate(state, pauli, shots, count_ups):
    """Mean and stderr of shots +-1 outcomes whose +1 count count_ups(p)
    draws at p = (1 + <P>)/2, <P> taken by apply_paulis."""
    [(word, coeff)] = pauli.terms.items()
    exact = float(apply_paulis(state, letter_masks([word], pauli.qubit_count))[0])
    ups = count_ups(min(max((1.0 + exact) / 2.0, 0.0), 1.0))
    mean = (2 * ups - shots) / shots
    stderr = float(np.sqrt((1.0 - mean * mean) / (shots - 1))) if shots > 1 else 0.0
    scale = float(np.real(coeff))
    return scale * mean, abs(scale) * stderr
