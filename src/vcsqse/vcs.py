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

A channel curve of a sweep is one stacked solve: both take a stack of
Hamiltonians (a single matrix is a stack of one) and make one channel
transform, one batched eigh and one diagnostics pass for it, in chunks of
at most STACK_BYTE_LIMIT bytes of H, so the working set does not grow with
the stack. Continuation chains along the stack, ascending R in a sweep. A
check that fails on one matrix raises a StackError naming its index, which
the experiments report as that point's R.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, _transfer_sweep, apply_channel
from .linalg import StackError, _promoted, _reject, hermitian_eigensolve
from .operators import dense_symmetry

# Eigenvalues within this distance of the bottom count as one degenerate block.
DEGENERACY_TOL = 1e-9
# Bytes of H per chunk of a stack, charged as complex: 2048 matrices at M = 4.
STACK_BYTE_LIMIT = 1 << 21


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
    """H' = sum_i K_i^dag H K_i (Hermitian for Hermitian H), factor by factor,
    for one H or each H of a (P, dim, dim) stack.

    The adjoint set's transfer matrix is S^dag, S that of the channel.
    """
    h = _promoted(h)
    if h.shape[-2:] != (ch.dim, ch.dim):
        raise ValueError(f"H dim {h.shape} does not match channel dim {ch.dim}")
    return _transfer_sweep(ch.transfer.conj().T, h, ch.factors)


def _expectation(psi, op):
    """Re <psi|op|psi> for each row of the (P, dim) psi; op is one matrix or P."""
    return np.real(psi.conj()[..., None, :] @ op @ psi[..., None])[..., 0, 0]


def fidelity(rho: np.ndarray, phi: np.ndarray):
    """<phi| rho |phi> for a density matrix and a unit vector, or an array
    of them for P stacked pairs."""
    rho, phi = _promoted(rho), _promoted(phi)
    phi = phi.ravel() if rho.ndim == 2 else phi
    if rho.shape != phi.shape + phi.shape[-1:]:
        raise ValueError("dimension mismatch between rho and phi")
    value = _expectation(phi, rho)
    _reject(~((-1e-12 <= value) & (value <= 1.0 + 1e-12)), "fidelity outside [0, 1]")
    value = np.clip(value, 0.0, 1.0)
    return float(value) if rho.ndim == 2 else value


def _stacked(h, solve_chunk):
    """solve_chunk(start, chunk, solutions so far) over byte-bounded chunks
    of h: one matrix, whose solution is returned, or a 3-D array or sequence
    of matrices, whose list of solutions is returned."""
    single = np.ndim(h[0]) < 2
    mats = [h] if single else h
    step = max(1, STACK_BYTE_LIMIT // (16 * np.shape(mats[0])[-1] ** 2))
    sols = []
    for start in range(0, len(mats), step):
        try:
            sols += solve_chunk(start, _promoted(np.stack(mats[start:start + step])), sols)
        except StackError as exc:
            raise StackError(start + exc.index, exc.reason) from exc
    return sols[0] if single else sols


def _mode_count(dim):
    """M if dim = 2^M, else None."""
    return dim.bit_length() - 1 if dim and not dim & (dim - 1) else None


def _penalty_terms(penalties, mode_count):
    """lambda (O - o)^2 of each (name, o, lambda) penalty as a dense matrix."""
    terms = []
    for name, target, weight in penalties:
        if weight < 0:
            raise ValueError("penalty weight must be non-negative")
        if mode_count is None:
            raise ValueError("penalty operators need a 2^M-dimensional H")
        shifted = dense_symmetry(name, mode_count) - target * np.eye(2 ** mode_count)
        terms.append(weight * (shifted @ shifted))
    return terms


def _ground_vectors(hp, continuation=None):
    """Ground vectors of a stack of H', phase-fixed so each one's largest
    entry is real positive, their eigenvalues and continuation flags. A
    degenerate ground block takes the projection of the vector before."""
    spec = hermitian_eigensolve(hp)
    w, v = spec.eigenvalues, spec.eigenvectors
    bottom = w[:, :1]
    sizes = (w <= bottom + DEGENERACY_TOL * np.maximum(1.0, np.abs(bottom))).sum(axis=1)
    psi, used = v[:, :, 0].copy(), np.zeros(len(w), dtype=bool)
    for i in np.flatnonzero(sizes > 1):
        prev = psi[i - 1] if i else continuation
        if prev is None:
            continue
        # Fortran order, so BLAS rounds as in the per-matrix tests/vcs_oracle.py
        block = np.asfortranarray(v[i, :, :sizes[i]])
        proj = block @ (block.conj().T @ _promoted(prev))
        norm = np.linalg.norm(proj)
        if norm > 1e-8:
            psi = psi.astype(np.result_type(psi, proj), copy=False)
            psi[i], used[i] = proj / norm, True
    pivot = psi[np.arange(len(psi)), np.abs(psi).argmax(axis=1)]
    return psi / (pivot / np.abs(pivot))[:, None], w[:, 0], used


def _solutions(h, ch, psi, eig, used) -> list:
    """Each row of psi pushed through ch, with the output's bare energy under
    the matching H of the stack h and psi's diagnostics."""
    rho = apply_channel(ch, psi[:, :, None] * psi.conj()[:, None, :], check=False)
    rho = 0.5 * (rho + rho.swapaxes(-1, -2).conj())
    energy = np.real(np.trace(rho @ h, axis1=-2, axis2=-1))
    fid = fidelity(rho, psi)
    m = _mode_count(h.shape[-1])
    sym = {} if m is None else {name: _expectation(psi, dense_symmetry(name, m))
                                for name in ("number", "s_squared")}
    return [VcsSolution(energy=float(energy[i]), input_state=psi[i], output_rho=rho[i],
                        fidelity_io=float(fid[i]),
                        symmetry_expectations={k: float(x[i]) for k, x in sym.items()},
                        hprime_eigenvalue=float(eig[i]), continuation_used=bool(used[i]))
            for i in range(len(psi))]


def solve_vcs(h, ch: KrausChannel, penalties=(), continuation=None):
    """Minimize the channel-output energy over pure inputs.

    h is a dense Hermitian matrix whose dimension matches the channel, or a
    stack of them (a 3-D array or a sequence of matrices) for a list of
    solutions. Penalties are (name, target, weight) triples, name one of the
    symmetry operators "number", "sz" or "s_squared", applied to H before
    the channel transformation; they need a 2^M-dimensional H.

    With `continuation` (the previous sweep point's input state), a
    degenerate ground block resolves to the vector of maximal overlap, which
    keeps sweep curves smooth across symmetry-breaking crossings. In a stack
    each matrix continues from the one before, the first from `continuation`.
    """
    terms = []  # the penalty matrices, formed once per call at the first chunk

    def solve_chunk(start, hs, sols):
        if start == 0:
            terms.extend(_penalty_terms(penalties, _mode_count(hs.shape[-1])))
        h_pen = sum(terms, hs)  # H + term 1 + term 2 ..., added in order
        prev = sols[-1].input_state if sols else continuation
        return _solutions(hs, ch, *_ground_vectors(transform_hamiltonian(h_pen, ch), prev))

    return _stacked(h, solve_chunk)


def no_variation_baseline(h, ch: KrausChannel, state):
    """Feed a given pure state, normally the exact ground state of h, through ch.

    Nothing is solved: the input is `state` itself, hprime_eigenvalue is
    <state|H|state> and continuation_used is False. A stack of H (as in
    solve_vcs) takes one state per matrix.
    """
    states = [state] if np.ndim(h[0]) < 2 else state

    def solve_chunk(start, hs, _):
        psi = _promoted(np.stack([np.ravel(x) for x in states[start:start + len(hs)]]))
        if psi.shape != hs.shape[:2]:
            raise ValueError("state must be a unit vector of H's dimension")
        _reject(np.abs(np.linalg.norm(psi, axis=1) - 1.0) > 1e-10,
                "state must be a unit vector of H's dimension")
        return _solutions(hs, ch, psi, _expectation(psi, hs), np.zeros(len(hs), dtype=bool))

    return _stacked(h, solve_chunk)
