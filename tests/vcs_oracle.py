"""Per-matrix VCS solve for the tests: one Hamiltonian at a time.

serial_solve_vcs and serial_baseline solve a sequence of Hamiltonians one
matrix after another, the way the package did before a sweep curve became
one stacked solve: a 2-D transfer kernel per matrix, one eigh per matrix,
one channel output, energy, fidelity and symmetry pass per matrix, and the
continuation handed from each solution to the next. The symmetry pass
reports <N> for a 2^M-dimensional H, and <S^2> only at even M, since spin
orbitals come in pairs. The stacked solve must reproduce them.
"""

from math import isqrt

import numpy as np

from vcsqse.operators import dense_symmetry
from vcsqse.vcs import DEGENERACY_TOL, VcsSolution


def _promoted(a):
    a = np.asarray(a)
    return a.astype(np.result_type(a, float), copy=False)


def _transfer_sweep(transfer, mat, factors):
    """vec(X) -> S vec(X) on each tensor factor of one matrix X."""
    d = isqrt(transfer.shape[0])
    dim = mat.shape[0]
    for q in range(factors):
        outer, inner = d ** (factors - q - 1), d ** q
        split = mat.reshape(outer, d, inner * outer, d, inner)
        pairs = split.transpose(1, 3, 0, 2, 4).reshape(d * d, -1)
        mixed = (transfer @ pairs).reshape(d, d, outer, inner * outer, inner)
        mat = mixed.transpose(2, 0, 3, 1, 4).reshape(dim, dim)
    return mat


def _mode_count(dim):
    return dim.bit_length() - 1 if dim and not dim & (dim - 1) else None


def _ground_vector(hp, continuation):
    hp = 0.5 * (hp + hp.conj().T)
    w, v = np.linalg.eigh(hp)
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


def _solution(h, ch, psi, eig, used):
    rho = _transfer_sweep(ch.transfer, np.outer(psi, psi.conj()), ch.factors)
    rho = 0.5 * (rho + rho.conj().T)
    m = _mode_count(h.shape[0])
    names = [] if m is None else ["number"] + (["s_squared"] if m % 2 == 0 else [])
    sym = {name: float(np.real(psi.conj() @ dense_symmetry(name, m) @ psi))
           for name in names}
    fid = float(np.real(psi.conj() @ rho @ psi))
    return VcsSolution(energy=float(np.real(np.trace(rho @ h))), input_state=psi,
                       output_rho=rho, fidelity_io=min(max(fid, 0.0), 1.0),
                       symmetry_expectations=sym, hprime_eigenvalue=eig,
                       continuation_used=used)


def serial_solve_vcs(hs, ch, penalties=(), continuation=None):
    """One solve per matrix of hs, each continuing from the one before."""
    sols = []
    for h in hs:
        h = _promoted(h)
        h_pen = h
        for name, target, weight in penalties:
            shifted = (dense_symmetry(name, _mode_count(h.shape[0]))
                       - target * np.eye(h.shape[0]))
            h_pen = h_pen + weight * (shifted @ shifted)
        hp = _transfer_sweep(ch.transfer.conj().T, h_pen, ch.factors)
        sols.append(_solution(h, ch, *_ground_vector(hp, continuation)))
        continuation = sols[-1].input_state
    return sols


def serial_baseline(hs, ch, states):
    """Each state of `states` through ch, reported against its matrix of hs."""
    sols = []
    for h, state in zip(hs, states):
        h, psi = _promoted(h), _promoted(state).ravel()
        sols.append(_solution(h, ch, psi, float(np.real(psi.conj() @ h @ psi)), False))
    return sols
