"""Dtype follows the data: a real Hamiltonian, the three shipped channels and
a fermionic basis stay float64 through the pipeline, and complex data (a
qubit basis, a complex coefficient, a complex Kraus set) stays complex128."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcsqse.channels import (CHANNEL_KINDS, ChannelSpec, KrausChannel, apply_channel,
                             lift_to_register, single_qubit_channel)
from vcsqse.experiments import _point
from vcsqse.linalg import DEFAULT_METRIC_CUTOFF, generalized_eigensolve
from vcsqse.operators import FermionOperator, dense_symmetry, fermion_to_dense, parse_ladder
from vcsqse.qse import build_subspace_direct, fermionic_basis, qubit_basis, solve_subspace
from vcsqse.vcs import solve_vcs, transform_hamiltonian


def lifted(kind, m, r1=0.05, r2=0.05):
    return lift_to_register(single_qubit_channel(ChannelSpec(kind, r1, r2)), m)


def blocks(prob):
    return [prob.h_sub, prob.s_sub, *prob.symmetry_subs.values()]


@pytest.fixture(scope="module")
def point(sweep_points):
    """The STO-6G H2 fixture at R = 1.5 A, prepared as the experiments do."""
    pt = next(p for p in sweep_points if p.bond_length == 1.5)
    return _point(pt.integrals, pt.bond_length)


def test_molecular_pipeline_stays_real(point):
    m = point.mode_count
    assert point.h_dense.dtype == np.float64
    for mat in point.symmetry_dense.values():
        assert mat.dtype == np.float64
    w, v, _ = point.exact()
    assert w.dtype == v.dtype == np.float64
    psi0 = v[:, 0]
    outputs = []
    for kind in CHANNEL_KINDS:
        ch = lifted(kind, m)
        assert ch.transfer.dtype == np.float64
        sol = solve_vcs(point.h_dense, ch, penalties=[("number", 2.0, 1.0)])
        assert sol.input_state.dtype == sol.output_rho.dtype == np.float64
        outputs.append(sol.output_rho)
    basis = fermionic_basis(m, 1)
    for ref in (psi0, *outputs):
        prob = build_subspace_direct(basis, point.h_dense, ref, point.symmetry_dense)
        assert all(block.dtype == np.float64 for block in blocks(prob))
        spec = solve_subspace(prob)
        assert spec.eigenvalues.dtype == spec.eigenvectors.dtype == np.float64
        spec = generalized_eigensolve(prob.h_sub, prob.s_sub)
        assert spec.eigenvectors.dtype == np.float64


def test_complex_data_stays_complex(point):
    m = point.mode_count
    psi0 = point.exact()[1][:, 0]
    prob = build_subspace_direct(qubit_basis(m, 1), point.h_dense, psi0, point.symmetry_dense)
    assert all(block.dtype == np.complex128 for block in blocks(prob))
    assert solve_subspace(prob).eigenvectors.dtype == np.complex128
    hop = FermionOperator(m, {parse_ladder("0^ 2"): 0.25j, parse_ladder("2^ 0"): -0.25j})
    twist = fermion_to_dense(hop)
    assert twist.dtype == np.complex128
    sol = solve_vcs(point.h_dense + twist, lifted("dephasing", m))
    assert sol.input_state.dtype == sol.output_rho.dtype == np.complex128
    phase = np.diag([1.0, 1j])  # kron(S, conj S) = diag(1, -i, i, 1)
    ch = lift_to_register(KrausChannel([phase], label="phase"), m)
    assert ch.transfer.dtype == np.complex128
    assert transform_hamiltonian(point.h_dense, ch).dtype == np.complex128


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(CHANNEL_KINDS), ratio=st.floats(0.0, 2.0),
       mixed=st.booleans(), order=st.sampled_from([1, 2]))
def test_real_route_matches_complex_cast_route(m, seed, kind, ratio, mixed, order):
    """Every call on a random real symmetric H and a real psi or rho agrees,
    within 1e-12, with the same call on the complex-cast inputs. The
    generalized eigenvalues are as accurate as the retained metric is well
    conditioned, so their bound is 1e-12 times its condition number: a
    random psi can leave kept metric eigenvalues below 1e-7 of the largest,
    where the two routes differ by up to 2e-8."""
    rng = np.random.default_rng(seed)
    dim = 1 << m
    a = rng.normal(size=(dim, dim))
    h = a + a.T
    if mixed:
        b = rng.normal(size=(dim, dim))
        ref = b @ b.T / np.trace(b @ b.T)
        rho = ref
    else:
        ref = rng.normal(size=dim)
        ref /= np.linalg.norm(ref)
        rho = np.outer(ref, ref)
    ch = lifted(kind, m, r1=ratio, r2=ratio)
    pairs = [(transform_hamiltonian(h, ch), transform_hamiltonian(h.astype(complex), ch)),
             (apply_channel(ch, rho), apply_channel(ch, rho.astype(complex)))]
    sym = {name: dense_symmetry(name, m)
           for name in ("number", "s_squared")[:1 + (m % 2 == 0)]}
    basis = fermionic_basis(m, order)
    real = build_subspace_direct(basis, h, ref, sym)
    cast = build_subspace_direct(basis, h.astype(complex), ref.astype(complex), sym)
    pairs += list(zip(blocks(real), blocks(cast)))
    for got, want in pairs:
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert np.abs(got - want).max() <= 1e-12
    spec_real = generalized_eigensolve(real.h_sub, real.s_sub)
    spec_cast = generalized_eigensolve(cast.h_sub, cast.s_sub)
    assert spec_real.retained_dim == spec_cast.retained_dim
    metric = np.linalg.eigvalsh(real.s_sub)
    kept = metric[metric > DEFAULT_METRIC_CUTOFF * metric[-1]]
    bound = 1e-12 * metric[-1] / kept[0]
    assert np.abs(spec_real.eigenvalues - spec_cast.eigenvalues).max() <= bound
