"""Exact solution of the variational channel state model.

Preparing a pure state and passing it through a fixed Kraus channel, then
minimizing the channel-output energy over all pure inputs, is equivalent to
the ground eigenproblem of the transformed Hamiltonian

    H' = sum_i K_i^dag H K_i.

The solver returns the optimal input, the channel output, and fidelity and
symmetry diagnostics. Reported energies are always against the bare
Hamiltonian; penalty terms only shape which input state is selected.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, _transfer_sweep, apply_channel
from .linalg import hermitian_eigensolve
from .operators import FermionOperator, dense_symmetry, fermion_to_dense

# Eigenvalues within this distance of the bottom count as one degenerate block.
DEGENERACY_TOL = 1e-9


@dataclass
class VcsSolution:
    energy: float
    input_state: np.ndarray
    output_rho: np.ndarray
    fidelity_io: float
    symmetry_expectations: dict = field(default_factory=dict)
    hprime_eigenvalue: float = 0.0
    continuation_used: bool = False


def transform_hamiltonian(h: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """H' = sum_i K_i^dag H K_i (Hermitian for Hermitian H), factor by factor.

    The adjoint set's transfer matrix is S^dag, S that of the channel.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (ch.dim, ch.dim):
        raise ValueError(f"H dim {h.shape} does not match channel dim {ch.dim}")
    return _transfer_sweep(ch.transfer.conj().T, h, ch.factors)


def fidelity(rho: np.ndarray, phi: np.ndarray) -> float:
    """<phi| rho |phi> for a density matrix and a unit vector."""
    rho = np.asarray(rho, dtype=complex)
    phi = np.asarray(phi, dtype=complex).ravel()
    if rho.shape != (phi.size, phi.size):
        raise ValueError("dimension mismatch between rho and phi")
    value = float(np.real(phi.conj() @ rho @ phi))
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"fidelity {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    return vec / phase


def _dense_hamiltonian(h):
    if isinstance(h, FermionOperator):
        return fermion_to_dense(h), h.mode_count
    h = np.asarray(h, dtype=complex)
    m = None
    if h.shape[0] and (h.shape[0] & (h.shape[0] - 1)) == 0:
        m = h.shape[0].bit_length() - 1
    return h, m


def _penalized(h_dense, penalties, mode_count):
    """Apply H -> H + sum lambda (O - o)^2 with dense symmetry operators."""
    out = np.array(h_dense, dtype=complex)
    for op, target, weight in penalties:
        if weight < 0:
            raise ValueError("penalty weight must be non-negative")
        if isinstance(op, FermionOperator):
            od = fermion_to_dense(op)
        elif isinstance(op, str):
            if mode_count is None:
                raise ValueError("named penalty operators need a fermionic H")
            od = dense_symmetry(op, mode_count)
        else:
            od = np.asarray(op, dtype=complex)
        shifted = od - target * np.eye(out.shape[0])
        out += weight * (shifted @ shifted)
    return out


def _ground_vector(h_dense, continuation=None):
    spec = hermitian_eigensolve(h_dense)
    w, v = spec.eigenvalues, spec.eigenvectors
    block = np.flatnonzero(w <= w[0] + DEGENERACY_TOL * max(1.0, abs(w[0])))
    used = False
    vec = v[:, block[0]]
    if continuation is not None and len(block) > 1:
        proj = v[:, block] @ (v[:, block].conj().T @ np.asarray(continuation, dtype=complex))
        norm = np.linalg.norm(proj)
        if norm > 1e-8:
            vec = proj / norm
            used = True
    return _fix_phase(vec), float(w[0]), used


def _diagnostics(h_dense, ch, psi, mode_count):
    rho_out = apply_channel(ch, np.outer(psi, psi.conj()), check=False)
    rho_out = 0.5 * (rho_out + rho_out.conj().T)
    energy = float(np.real(np.trace(rho_out @ h_dense)))
    fid = fidelity(rho_out, psi)
    sym = {}
    if mode_count is not None:
        for name in ("number", "s_squared"):
            od = dense_symmetry(name, mode_count)
            sym[name] = float(np.real(psi.conj() @ od @ psi))
    return rho_out, energy, fid, sym


def solve_vcs(h, ch: KrausChannel, penalties=(), continuation=None) -> VcsSolution:
    """Minimize the channel-output energy over pure inputs.

    h may be a FermionOperator or a dense Hermitian matrix whose dimension
    matches the channel. Penalties are (operator, target, weight) triples
    applied to H before the channel transformation; `operator` may be a
    FermionOperator, a dense matrix, or a symmetry-operator name.

    With `continuation` (the previous sweep point's input state), a
    degenerate ground block resolves to the vector of maximal overlap, which
    keeps sweep curves smooth across symmetry-breaking crossings.
    """
    h_dense, m = _dense_hamiltonian(h)
    h_pen = _penalized(h_dense, penalties, m)
    psi, eig, used = _ground_vector(transform_hamiltonian(h_pen, ch), continuation)
    rho_out, energy, fid, sym = _diagnostics(h_dense, ch, psi, m)
    return VcsSolution(energy=energy, input_state=psi, output_rho=rho_out,
                       fidelity_io=fid, symmetry_expectations=sym,
                       hprime_eigenvalue=eig, continuation_used=used)


def no_variation_baseline(h, ch: KrausChannel, penalties=(),
                          continuation=None) -> VcsSolution:
    """Feed the ground state of the untransformed H through the channel."""
    h_dense, m = _dense_hamiltonian(h)
    h_pen = _penalized(h_dense, penalties, m)
    psi, eig, used = _ground_vector(h_pen, continuation)
    rho_out, energy, fid, sym = _diagnostics(h_dense, ch, psi, m)
    return VcsSolution(energy=energy, input_state=psi, output_rho=rho_out,
                       fidelity_io=fid, symmetry_expectations=sym,
                       hprime_eigenvalue=eig, continuation_used=used)
