#!/usr/bin/env python3
"""Optimal state preparation through a noisy channel, solved exactly.

Prepare a pure 4-qubit state, push it through a Kraus channel, and ask:
which input minimizes the output energy? That minimization is exactly the
ground eigenproblem of the transformed Hamiltonian H' = sum_i K_i^ H K_i,
so no ansatz or optimizer is needed. This script compares the optimal
input against naively feeding in the noiseless ground state.
"""

from pathlib import Path

import numpy as np

from vcsqse import (ChannelSpec, assemble_hamiltonian, lift_to_register,
                    load_sweep, no_variation_baseline, single_qubit_channel,
                    solve_vcs)
from vcsqse.operators import fermion_to_dense

ROOT = Path(__file__).resolve().parents[1]
points = load_sweep(ROOT / "fixtures/h2_sto6g/sweep.manifest")

print("H2 in a minimal basis, 4 spin-orbitals = 4 qubits.")
print("Channels at Tp/T1 = Tp/T2 = 0.05 (5% of a coherence time).\n")

for kind, token in (("dephasing", "Ph"), ("amplitude_phase", "AP"),
                    ("depolarizing", "Depol")):
    channel = lift_to_register(
        single_qubit_channel(ChannelSpec(kind, 0.05, 0.05)), 4)
    print(f"--- {token} channel ---")
    print(f"{'R':>5} {'E_exact':>12} {'E_novar':>12} {'E_optimal':>12} "
          f"{'fid_novar':>10} {'fid_opt':>10}")
    prev = None
    for pt in points[::6]:
        h = fermion_to_dense(assemble_hamiltonian(pt.integrals))
        w, v = np.linalg.eigh(h)
        exact = w[0]
        sol = solve_vcs(h, channel, continuation=prev)
        base = no_variation_baseline(h, channel, v[:, 0])
        prev = sol.input_state
        print(f"{pt.bond_length:5.2f} {exact:12.6f} {base.energy:12.6f} "
              f"{sol.energy:12.6f} {base.fidelity_io:10.6f} "
              f"{sol.fidelity_io:10.6f}")
    print()

print("Optimizing in the presence of the channel always helps, and under")
print("pure dephasing the optimum at stretched geometries is a computational")
print("basis state: a decoherence-free input with fidelity exactly 1 (found")
print("by breaking spin symmetry; see demo 02 for the repair).")
