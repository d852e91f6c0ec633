"""Reference dense constructions of Pauli operators and subspace matrices.

kron_dense builds a Pauli sum as a Kronecker chain of 2x2 matrices per
word, and dense_subspace assembles Tr[E_a^ W E_b rho] from those dense basis
operators by plain matrix products. Both are the textbook definitions the
package's signed-permutation kernel must reproduce, for the tests only.
Each basis element costs a 4^M matrix and two 8^M products, so keep M small.
"""

import numpy as np

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
