"""Reference constructions of Pauli operators and subspace matrices.

kron_dense builds a Pauli sum as a Kronecker chain of 2x2 matrices per
word, and dense_subspace assembles Tr[E_a^ W E_b rho] from those dense basis
operators by plain matrix products. Both are the textbook definitions the
package's signed-permutation kernel must reproduce, for the tests only.
Each basis element costs a 4^M matrix and two 8^M products, so keep M small.

loop_apply, loop_apply_right and loop_subspace are the per-word,
per-element loops the slot-stacked kernel replaced. They do the same
arithmetic in the same order, so the package must match them bit for bit.
"""

import numpy as np

from vcsqse.operators import pauli_action

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


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


def dense_subspace(basis, h, rho, symmetry_ops=None):
    """(h_sub, s_sub, {name: sym_sub}) by dense traces Tr[E_a^ W E_b rho]."""
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    dense_ops = [kron_dense(op) for op in basis.operators]
    evec = np.stack([e.ravel() for e in dense_ops], axis=1)

    def block(weight):
        cols = np.stack([(weight @ e @ rho).ravel() for e in dense_ops], axis=1)
        mat = evec.conj().T @ cols
        return 0.5 * (mat + mat.conj().T)

    sym = {name: block(np.asarray(op, dtype=complex))
           for name, op in (symmetry_ops or {}).items()}
    return block(h), block(np.eye(h.shape[0])), sym


def loop_apply(action, arr):
    """P @ arr along axis 0, adding one word of pauli_action(P) at a time."""
    src, phase = action
    arr = np.asarray(arr)
    if arr.ndim == 2:
        phase = phase[:, :, None]
    out = np.zeros(arr.shape, dtype=complex)
    for s, ph in zip(src, phase):
        out += ph * arr[s]
    return out


def loop_apply_right(arr, action):
    """arr @ P as the transposed action on arr^T, one word at a time."""
    src, phase = action
    moved = np.take_along_axis(phase, src, axis=1)
    return loop_apply((src, moved), np.asarray(arr).T).T


def loop_subspace(basis, h, rho, symmetry_ops=None):
    """(h_sub, s_sub, {name: sym_sub}) gathered one basis element at a time.

    A state vector gives Phi = [E_b psi] and each block Phi^ (W Phi); a
    density matrix gives sum_ij conj(E_a rho)_ij (W E_b)_ij.
    """
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    dim = h.shape[0]
    actions = [pauli_action(op) for op in basis.operators]
    if rho.ndim == 1:
        phi = np.stack([loop_apply(act, rho) for act in actions], axis=1)

        def block(weight):
            mat = phi.conj().T @ (weight @ phi)
            return 0.5 * (mat + mat.conj().T)
    else:
        n_b = len(actions)
        rows = np.empty((n_b, dim, dim), dtype=complex)
        cols = np.empty_like(rows)
        for b, act in enumerate(actions):
            rows[b] = loop_apply(act, rho)
        np.conj(rows, out=rows)

        def block(weight):
            for b, act in enumerate(actions):
                cols[b] = loop_apply_right(weight, act)
            mat = rows.reshape(n_b, -1) @ cols.reshape(n_b, -1).T
            return 0.5 * (mat + mat.conj().T)

    sym = {name: block(np.asarray(op, dtype=complex))
           for name, op in (symmetry_ops or {}).items()}
    return block(h), block(np.eye(dim)), sym
