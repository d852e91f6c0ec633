"""Variational channel states and quantum subspace expansion.

A small numerical laboratory: ingest molecular integrals, assemble
second-quantized Hamiltonians, model noisy state preparation as an exactly
solvable Kraus-channel eigenproblem, and recover ground/excited states from
subspace expansions built out of reduced density matrices.
"""

from .channels import (ChannelSpec, KrausChannel, apply_channel,
                       lift_to_register, single_qubit_channel)
from .linalg import Spectrum, generalized_eigensolve, hermitian_eigensolve
from .molecule import (MolecularIntegrals, SweepPoint, assemble_hamiltonian,
                       load_sweep, parse_fcidump, spin_orbital_tensors)
from .operators import (FermionOperator, PauliOperator, fermion_to_dense,
                        jordan_wigner, symmetry_operator)
from .qse import (ExpansionBasis, SubspaceProblem, approximate_lr,
                  build_lr_from_rdms, build_subspace_direct, fermionic_basis,
                  project_symmetry, qubit_basis, solve_subspace,
                  subspace_expectation)
from .rdm import (CumulantSet, RdmSet, compute_rdms, contract_energy,
                  cumulants_from_rdms, estimate_pauli, reconstruct_rdms,
                  sample_rdms, wedge)
from .vcs import (VcsSolution, fidelity, no_variation_baseline, solve_vcs,
                  transform_hamiltonian)

__version__ = "0.1.0"
