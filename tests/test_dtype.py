"""Dtype follows the data: a real Hamiltonian, the three shipped channels, a
fermionic basis and the RDM, cumulant and linear-response routes stay
float64 through the pipeline, and complex data (a qubit basis, a complex
coefficient, a complex Kraus set, sampled RDM blocks) stays complex128."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcsqse.channels import (CHANNEL_KINDS, ChannelSpec, KrausChannel, apply_channel,
                             lift_to_register, single_qubit_channel)
from vcsqse.experiments import _Run, _solve_exact
from vcsqse.linalg import DEFAULT_METRIC_CUTOFF, generalized_eigensolve
from vcsqse.molecule import spin_orbital_tensors
from vcsqse.operators import (FermionOperator, PauliOperator, dense_symmetry, fermion_to_dense,
                              parse_ladder)
from vcsqse.qse import (approximate_lr, build_lr_from_rdms, build_subspace_direct,
                        fermionic_basis, qubit_basis, solve_subspace)
from vcsqse.rdm import (_wedge_packed, compute_rdms, cumulants_from_rdms, estimate_pauli,
                        sample_rdms)
from vcsqse.vcs import solve_vcs, transform_hamiltonian


def lifted(kind, m, r1=0.05, r2=0.05):
    return lift_to_register(single_qubit_channel(ChannelSpec(kind, r1, r2)), m)


def blocks(prob):
    return [prob.h_sub, prob.s_sub, *prob.symmetry_subs.values()]


def rdm_route(h1, h2, state):
    """Every RDM, cumulant and LR-route matrix of state, in one flat list."""
    rdms = compute_rdms(state, 4)
    d1, m = rdms.blocks[0], rdms.mode_count
    out = [*rdms.blocks, *cumulants_from_rdms(rdms).blocks, _wedge_packed(d1, d1, m, 1, 1)]
    for prob in lr_problems(h1, h2, rdms):
        out += blocks(prob)
    return out


def lr_problems(h1, h2, rdms, e_g=-1.0):
    """build_lr_from_rdms, ZC plain and truncated, ZA plain and with the exact D3."""
    return [build_lr_from_rdms(h1, h2, rdms, core_energy=0.5),
            approximate_lr("ZC", h1, h2, rdms, e_g),
            approximate_lr("ZC", h1, h2, rdms, e_g, truncate=True),
            approximate_lr("ZA", h1, h2, rdms, e_g, core_energy=0.5),
            approximate_lr("ZA", h1, h2, rdms, e_g, core_energy=0.5, reconstruct_d3=False)]


@pytest.fixture(scope="module")
def point(sweep_points):
    """The STO-6G H2 fixture at R = 1.5 A, prepared as the experiments do."""
    pt = next(p for p in sweep_points if p.bond_length == 1.5)
    return _solve_exact(_Run([(pt.bond_length, pt.integrals)]))[0]


def test_molecular_pipeline_stays_real(point):
    m = point.mode_count
    assert point.h_dense.dtype == np.float64
    for mat in point.symmetry_dense.values():
        assert mat.dtype == np.float64
    w, v, _ = point.exact
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
    h1, h2, core = spin_orbital_tensors(point.integrals)
    rdms = compute_rdms(psi0, 4)
    assert all(block.dtype == np.float64 for block in rdms.blocks)
    assert all(block.dtype == np.float64 for block in cumulants_from_rdms(rdms).blocks)
    for prob in lr_problems(h1, h2, rdms, e_g=float(w[0])):
        assert all(block.dtype == np.float64 for block in blocks(prob))
        spec = solve_subspace(prob)
        assert spec.eigenvalues.dtype == spec.eigenvectors.dtype == np.float64


def test_complex_data_stays_complex(point):
    m = point.mode_count
    psi0 = point.exact[1][:, 0]
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


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), mixed=st.booleans())
def test_rdm_route_matches_complex_cast_route(m, seed, mixed):
    """RDMs, cumulants, a wedge product and the LR, ZC and ZA matrices of a
    real psi or rank-deficient real rho, with random real h1 and h2, agree
    with the same calls on the complex-cast inputs within 1e-12 of the
    largest entry or of 1, and only the cast route is complex. A cumulant
    can cancel far below the unit scale of the RDMs it is taken from, so
    its error is measured against that scale."""
    rng = np.random.default_rng(seed)
    dim = 1 << m
    if mixed:
        b = rng.normal(size=(dim, int(rng.integers(1, dim))))
        state = b @ b.T / np.trace(b @ b.T)
    else:
        state = rng.normal(size=dim)
        state /= np.linalg.norm(state)
    h1 = rng.normal(size=(m, m))
    h1 += h1.T
    h2 = rng.normal(size=(m,) * 4)
    h2 += h2.transpose(3, 2, 1, 0)
    real = rdm_route(h1, h2, state)
    cast = rdm_route(h1.astype(complex), h2.astype(complex), state.astype(complex))
    for got, want in zip(real, cast, strict=True):
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=1.0)


def test_sampled_routes_ignore_a_complex_cast(point):
    """A real psi or rho samples bit for bit what its complex cast samples,
    and sampled RDM blocks are complex128 either way: their Jordan-Wigner
    coefficients carry i."""
    m = point.mode_count
    psi0 = point.exact[1][:, 0]
    rho = solve_vcs(point.h_dense, lifted("amplitude_phase", m)).output_rho
    pauli = PauliOperator(m, {"ZZII": 0.5, "XYYX": -0.25, "YIZY": 0.75, "XZXI": 1.0,
                              "IIII": 0.1})
    for state in (psi0, rho):
        assert state.dtype == np.float64
        real = sample_rdms(state, 4, 500, 7)
        cast = sample_rdms(state.astype(complex), 4, 500, 7)
        for got, want in zip(real.blocks, cast.blocks, strict=True):
            assert got.dtype == want.dtype == np.complex128
            assert np.array_equal(got, want)
        assert np.array_equal(estimate_pauli(state, pauli, 500, 7),
                              estimate_pauli(state.astype(complex), pauli, 500, 7))
