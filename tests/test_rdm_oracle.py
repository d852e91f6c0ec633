"""Checks of the test-only oracles against dense matrices."""

import numpy as np
import pytest

from rdm_oracle import expectation_from_rdms
from vcsqse.molecule import assemble_hamiltonian
from vcsqse.operators import FermionOperator, fermion_to_dense
from vcsqse.rdm import compute_rdms


def random_state(rng, m):
    v = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    return v / np.linalg.norm(v)


def test_expectation_from_rdms_matches_dense(sweep_points):
    rng = np.random.default_rng(17)
    ints = sweep_points[8].integrals
    op = assemble_hamiltonian(ints)
    dense = fermion_to_dense(op)
    state = random_state(rng, 4)
    rdms = compute_rdms(state, 4)
    value = expectation_from_rdms(op, rdms)
    assert abs(value - state.conj() @ dense @ state) < 1e-10


def test_expectation_rejects_unbalanced():
    rng = np.random.default_rng(18)
    rdms = compute_rdms(random_state(rng, 3), 2)
    with pytest.raises(ValueError, match="conserve"):
        expectation_from_rdms(FermionOperator.from_term("0^", 1.0, 3), rdms)
