"""Exact solution of the variational channel state model.

Preparing a pure state and passing it through a fixed Kraus channel, then
minimizing the channel-output energy over all pure inputs, is equivalent to
the ground eigenproblem of the transformed Hamiltonian

    H' = sum_i K_i^dag H K_i.

The solver returns the optimal input, the channel output, and fidelity and
symmetry diagnostics. Reported energies are always against the bare
Hamiltonian; penalty terms only shape which input state is selected. The
no-variation baseline reports a given input, normally the noiseless ground
state, in the same way.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, _transfer_sweep, apply_channel
from .linalg import _promoted, hermitian_eigensolve
from .operators import dense_symmetry

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
    h = _promoted(h)
    if h.shape != (ch.dim, ch.dim):
        raise ValueError(f"H dim {h.shape} does not match channel dim {ch.dim}")
    return _transfer_sweep(ch.transfer.conj().T, h, ch.factors)


def fidelity(rho: np.ndarray, phi: np.ndarray) -> float:
    """<phi| rho |phi> for a density matrix and a unit vector."""
    rho = _promoted(rho)
    phi = _promoted(phi).ravel()
    if rho.shape != (phi.size, phi.size):
        raise ValueError("dimension mismatch between rho and phi")
    value = float(np.real(phi.conj() @ rho @ phi))
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"fidelity {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def _dense_hamiltonian(h):
    """h promoted to float64 or complex128 and its mode count M, None unless dim = 2^M."""
    h = _promoted(h)
    dim = h.shape[0]
    return h, (dim.bit_length() - 1 if dim and not dim & (dim - 1) else None)


def _penalized(h_dense, penalties, mode_count):
    """Apply H -> H + sum lambda (O - o)^2 with named dense symmetry operators."""
    out = h_dense
    for name, target, weight in penalties:
        if weight < 0:
            raise ValueError("penalty weight must be non-negative")
        if mode_count is None:
            raise ValueError("penalty operators need a 2^M-dimensional H")
        shifted = dense_symmetry(name, mode_count) - target * np.eye(out.shape[0])
        out = out + weight * (shifted @ shifted)
    return out


def _ground_vector(h_dense, continuation=None):
    spec = hermitian_eigensolve(h_dense)
    w, v = spec.eigenvalues, spec.eigenvectors
    block = np.flatnonzero(w <= w[0] + DEGENERACY_TOL * max(1.0, abs(w[0])))
    vec, used = v[:, block[0]], False
    if continuation is not None and len(block) > 1:
        proj = v[:, block] @ (v[:, block].conj().T @ _promoted(continuation))
        norm = np.linalg.norm(proj)
        if norm > 1e-8:
            vec = proj / norm
            used = True
    pivot = vec[np.argmax(np.abs(vec))]
    return vec / (pivot / abs(pivot)), float(w[0]), used


def _solution(h_dense, ch, psi, mode_count, eig, used) -> VcsSolution:
    """psi pushed through ch, with the output's bare energy and psi's diagnostics."""
    rho_out = apply_channel(ch, np.outer(psi, psi.conj()), check=False)
    rho_out = 0.5 * (rho_out + rho_out.conj().T)
    sym = {} if mode_count is None else {
        name: float(np.real(psi.conj() @ dense_symmetry(name, mode_count) @ psi))
        for name in ("number", "s_squared")}
    return VcsSolution(energy=float(np.real(np.trace(rho_out @ h_dense))),
                       input_state=psi, output_rho=rho_out,
                       fidelity_io=fidelity(rho_out, psi), symmetry_expectations=sym,
                       hprime_eigenvalue=eig, continuation_used=used)


def solve_vcs(h, ch: KrausChannel, penalties=(), continuation=None) -> VcsSolution:
    """Minimize the channel-output energy over pure inputs.

    h is a dense Hermitian matrix whose dimension matches the channel.
    Penalties are (name, target, weight) triples, name one of the symmetry
    operators "number", "sz" or "s_squared", applied to H before the channel
    transformation; they need a 2^M-dimensional H.

    With `continuation` (the previous sweep point's input state), a
    degenerate ground block resolves to the vector of maximal overlap, which
    keeps sweep curves smooth across symmetry-breaking crossings.
    """
    h_dense, m = _dense_hamiltonian(h)
    h_pen = _penalized(h_dense, penalties, m)
    psi, eig, used = _ground_vector(transform_hamiltonian(h_pen, ch), continuation)
    return _solution(h_dense, ch, psi, m, eig, used)


def no_variation_baseline(h, ch: KrausChannel, state) -> VcsSolution:
    """Feed a given pure state, normally the exact ground state of h, through ch.

    Nothing is solved: the input is `state` itself, hprime_eigenvalue is
    <state|H|state> and continuation_used is False.
    """
    h_dense, m = _dense_hamiltonian(h)
    psi = _promoted(state).ravel()
    if psi.size != h_dense.shape[0] or abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state must be a unit vector of H's dimension")
    return _solution(h_dense, ch, psi, m,
                     float(np.real(psi.conj() @ h_dense @ psi)), False)
