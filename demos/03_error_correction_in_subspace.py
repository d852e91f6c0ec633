#!/usr/bin/env python3
"""Correcting single Pauli errors with measurements and classical solves.

If a stray X/Y/Z hits one qubit of the prepared state, the original state
still lies inside the span {sigma_i^a |psi_err>} of single-Pauli deformations
of the corrupted state. Solving the generalized eigenproblem in that span
recovers the exact ground energy: error correction by post-processing,
without any extra coherence time.
"""

from pathlib import Path

import numpy as np

from vcsqse import (assemble_hamiltonian, build_subspace_direct, fermion_to_dense,
                    load_sweep, qubit_basis, solve_subspace)

ROOT = Path(__file__).resolve().parents[1]
points = load_sweep(ROOT / "fixtures/h2_sto6g/sweep.manifest")
pt = points[12]
h = fermion_to_dense(assemble_hamiltonian(pt.integrals))
w, v = np.linalg.eigh(h)
psi0 = v[:, 0]
basis = qubit_basis(4, 1)

print(f"H2 at R = {pt.bond_length} A, exact ground energy {w[0]:.10f}")
print(f"qubit expansion basis: {len(basis)} operators "
      "(identity + 3 Paulis per qubit)\n")
print(f"{'error':>6} {'E(corrupted)':>14} {'E(recovered)':>14} {'residual':>10}")
for q in range(4):
    for letter in "XYZ":
        # the basis element letter_q is a signed permutation: err[j] = weight[j] psi0[src[j]]
        b = basis.labels.index(f"{letter}{q}")
        err = basis.weight[b] * psi0[basis.src[b]]
        corrupted = float(np.real(err.conj() @ h @ err))
        prob = build_subspace_direct(basis, h, err)
        spec = solve_subspace(prob)
        print(f"{letter}{q:>2}   {corrupted:14.8f} {spec.eigenvalues[0]:14.8f} "
              f"{abs(spec.eigenvalues[0] - w[0]):10.2e}")

print("\nEvery single-qubit error is corrected to machine precision; k-qubit")
print("errors would need the order-k expansion of the same hierarchy.")
