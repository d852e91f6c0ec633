#!/usr/bin/env python3
"""From projective measurements to energies and subspace solves.

Everything upstream assumed exact expectation values. Here each Pauli
string is instead estimated from a finite number of seeded Bernoulli
samples, the way hardware would produce it: first term-by-term for the
energy, then assembling whole RDM tensors from shared string estimates and
feeding those into the subspace eigenproblem.
"""

from pathlib import Path

import numpy as np

from vcsqse import (assemble_hamiltonian, build_lr_from_rdms, contract_energy,
                    estimate_pauli, load_sweep, sample_rdms, solve_subspace,
                    spin_orbital_tensors)
from vcsqse.operators import fermion_to_dense, jordan_wigner

ROOT = Path(__file__).resolve().parents[1]
pt = load_sweep(ROOT / "fixtures/h2_sto6g/sweep.manifest")[12]
h_op = assemble_hamiltonian(pt.integrals)
h = fermion_to_dense(h_op)
w, v = np.linalg.eigh(h)
psi0 = v[:, 0]
print(f"H2 at R = {pt.bond_length} A, exact ground energy {w[0]:.8f}\n")

print("=== term-by-term energy estimate ===")
pauli_h = jordan_wigner(h_op)
for shots in (100, 10_000, 1_000_000):
    total, err = estimate_pauli(psi0, pauli_h, shots, seed=1000)
    print(f"  {shots:>9} shots/term: {total:.6f} +- {err:.6f}")

print("\n=== sampled RDMs into the subspace eigenproblem ===")
h1, h2, core = spin_orbital_tensors(pt.integrals)
for shots in (20_000, 500_000):
    rdms = sample_rdms(psi0, 4, shots=shots, seed=7)
    e_meas = contract_energy(h1, h2, rdms, core_energy=core)
    prob = build_lr_from_rdms(h1, h2, rdms, core_energy=core)
    # the sampled overlap matrix is noisy: discard directions below the
    # noise floor instead of the exact-arithmetic default cutoff
    cutoff = max(3e-2, 30.0 / np.sqrt(shots))
    spec = solve_subspace(prob, metric_cutoff=cutoff)
    print(f"  {shots:>7} shots/word: contracted energy {e_meas:.6f}; "
          f"subspace ground {spec.eigenvalues[0]:.6f} "
          f"(retained {spec.retained_dim}, cutoff {cutoff:.1e})")

print("\nThe same classical machinery runs unchanged on sampled data; only")
print("the metric cutoff must sit above the sampling noise.")
