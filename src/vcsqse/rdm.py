"""k-fermion reduced density matrices, Grassmann wedge products, cumulants.

Index convention: D(k)[i1..ik, j1..jk] = (1/k!) <a_i1^ ... a_ik^ a_jk ... a_j1>,
so the 2-RDM element D2[i,j,k,l] equals (1/2) <a_i^ a_j^ a_l a_k>. Tensors are
Hermitian under conjugate exchange of the upper and lower index groups and
antisymmetric within each group.
"""

from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial

import numpy as np

from .operators import (FermionOperator, PauliOperator, apply_pauli, jordan_wigner,
                        normal_order, pauli_action)

RDM_MODE_LIMIT = 8
_WEIGHT_TOL = 1e-14


@dataclass
class RdmSet:
    mode_count: int
    d1: np.ndarray
    d2: np.ndarray | None = None
    d3: np.ndarray | None = None
    d4: np.ndarray | None = None

    def d(self, k: int) -> np.ndarray:
        t = (self.d1, self.d2, self.d3, self.d4)[k - 1]
        if t is None:
            raise ValueError(f"{k}-RDM not populated")
        return t

    @property
    def max_k(self) -> int:
        return sum(t is not None for t in (self.d1, self.d2, self.d3, self.d4))


@dataclass
class CumulantSet:
    mode_count: int
    c1: np.ndarray
    c2: np.ndarray | None = None
    c3: np.ndarray | None = None
    c4: np.ndarray | None = None

    def c(self, k: int) -> np.ndarray:
        t = (self.c1, self.c2, self.c3, self.c4)[k - 1]
        if t is None:
            raise ValueError(f"order-{k} cumulant not populated")
        return t

    @property
    def max_k(self) -> int:
        return sum(t is not None for t in (self.c1, self.c2, self.c3, self.c4))


def _annihilate(vec: np.ndarray, mode: int, m: int) -> np.ndarray:
    """Apply a_mode to a state vector with Jordan-Wigner parity phases."""
    dim = vec.shape[0]
    idx = np.arange(dim)
    occupied = (idx >> mode) & 1 == 1
    src = idx[occupied]
    par = np.bitwise_count(src & ((1 << mode) - 1)).astype(np.int64)
    out = np.zeros_like(vec)
    out[src ^ (1 << mode)] = np.where(par & 1, -1.0, 1.0) * vec[src]
    return out


def _perms_with_parity(k: int):
    out = []
    for perm in permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        out.append((perm, -1.0 if inv & 1 else 1.0))
    return out


def _pure_rdms(psi: np.ndarray, m: int, max_k: int) -> list:
    """RDM tensors of a normalized pure state, orders 1..max_k."""
    tensors = []
    level = {(): psi}
    for k in range(1, max_k + 1):
        nxt = {}
        for combo, vec in level.items():
            start = combo[-1] + 1 if combo else 0
            for j in range(start, m):
                nxt[combo + (j,)] = _annihilate(vec, j, m)
        level = nxt
        combos = sorted(level)
        mat = np.stack([level[c] for c in combos], axis=1)
        gram = (mat.conj().T @ mat) / factorial(k)
        d = np.zeros((m,) * (2 * k), dtype=complex)
        carr = np.array(combos)
        for pu, su in _perms_with_parity(k):
            upper = [carr[:, pu[a]].reshape(-1, 1) for a in range(k)]
            for pl, sl in _perms_with_parity(k):
                lower = [carr[:, pl[a]].reshape(1, -1) for a in range(k)]
                d[tuple(upper + lower)] = (su * sl) * gram
        tensors.append(d)
    return tensors


def compute_rdms(state: np.ndarray, max_k: int) -> RdmSet:
    """Extract 1..max_k RDMs from a pure state vector or a density matrix.

    Mixed states are eigendecomposed and handled as weighted pure states.
    """
    state = np.asarray(state, dtype=complex)
    if not 1 <= max_k <= 4:
        raise ValueError("max_k must be in 1..4")
    dim = state.shape[0]
    m = dim.bit_length() - 1
    if dim != 1 << m:
        raise ValueError(f"state dimension {dim} is not a power of two")
    if max_k == 4 and m > RDM_MODE_LIMIT:
        raise ValueError(f"max_k=4 limited to {RDM_MODE_LIMIT} modes, got {m}")
    if state.ndim == 1:
        if abs(np.linalg.norm(state) - 1.0) > 1e-10:
            raise ValueError("state vector is not normalized")
        tensors = _pure_rdms(state, m, max_k)
    elif state.ndim == 2 and state.shape == (dim, dim):
        if abs(np.trace(state) - 1.0) > 1e-10:
            raise ValueError("density matrix is not trace-one")
        w, v = np.linalg.eigh(0.5 * (state + state.conj().T))
        if w[0] < -1e-10:
            raise ValueError("density matrix is not positive semidefinite")
        tensors = None
        for weight, col in zip(w, v.T):
            if weight <= _WEIGHT_TOL:
                continue
            part = _pure_rdms(col, m, max_k)
            if tensors is None:
                tensors = [weight * t for t in part]
            else:
                tensors = [acc + weight * t for acc, t in zip(tensors, part)]
        if tensors is None:
            raise ValueError("density matrix has no significant eigenvalues")
    else:
        raise ValueError("state must be a vector or a square matrix")
    padded = tensors + [None] * (4 - len(tensors))
    return RdmSet(mode_count=m, d1=padded[0], d2=padded[1], d3=padded[2], d4=padded[3])


def _antisymmetrize(t: np.ndarray, k: int) -> np.ndarray:
    """Project onto the antisymmetric part of upper and lower index groups."""
    if k == 1:
        return t
    out = np.zeros_like(t)
    perms = _perms_with_parity(k)
    for pu, su in perms:
        axes_u = list(pu)
        for pl, sl in perms:
            axes = axes_u + [k + a for a in pl]
            out += (su * sl) * np.transpose(t, axes)
    return out / factorial(k) ** 2


def _shuffles(m: int, n: int):
    """(m,n)-riffle positions with parity and new-to-old axis maps."""
    total = m + n
    out = []
    for pos in combinations(range(total), m):
        comp = [x for x in range(total) if x not in pos]
        src = [0] * total
        for r, p in enumerate(pos):
            src[p] = r
        for l, p in enumerate(comp):
            src[p] = m + l
        sign = -1.0 if sum(p - r for r, p in enumerate(pos)) & 1 else 1.0
        out.append((src, sign))
    return out


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Grassmann wedge product of (m,m)- and (n,n)-index tensors.

    Antisymmetrizes the tensor product over upper and lower index groups with
    the (1/N!)^2 normalization; bilinear and associative.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim % 2 or b.ndim % 2:
        raise ValueError("wedge factors must have even rank")
    m, n = a.ndim // 2, b.ndim // 2
    dims = set(a.shape) | set(b.shape)
    if len(dims) != 1:
        raise ValueError("wedge factors must share one mode dimension")
    at = _antisymmetrize(a, m)
    bt = _antisymmetrize(b, n)
    total = m + n
    t = np.multiply.outer(at, bt)
    # outer axes [a-up, a-low, b-up, b-low] -> [upper group, lower group]
    t = np.transpose(t, list(range(m)) + list(range(2 * m, 2 * m + n))
                     + list(range(m, 2 * m)) + list(range(2 * m + n, 2 * (m + n))))
    out = np.zeros_like(t)
    shuf = _shuffles(m, n)
    for src_u, sign_u in shuf:
        for src_l, sign_l in shuf:
            axes = src_u + [total + s for s in src_l]
            out += (sign_u * sign_l) * np.transpose(t, axes)
    scale = (factorial(m) * factorial(n) / factorial(total)) ** 2
    return scale * out


def cumulants_from_rdms(rdms: RdmSet) -> CumulantSet:
    """Invert the cumulant expansion order by order (through the 4-RDM)."""
    c1 = np.array(rdms.d1)
    c2 = c3 = c4 = None
    if rdms.d2 is not None:
        c2 = rdms.d2 - wedge(c1, c1)
    if rdms.d3 is not None:
        if c2 is None:
            raise ValueError("3-RDM present but 2-RDM missing")
        c3 = rdms.d3 - 3.0 * wedge(c2, c1) - wedge(wedge(c1, c1), c1)
    if rdms.d4 is not None:
        if c3 is None:
            raise ValueError("4-RDM present but 3-RDM missing")
        c4 = (rdms.d4 - 4.0 * wedge(c3, c1) - 3.0 * wedge(c2, c2)
              - 6.0 * wedge(wedge(c2, c1), c1)
              - wedge(wedge(wedge(c1, c1), c1), c1))
    return CumulantSet(mode_count=rdms.mode_count, c1=c1, c2=c2, c3=c3, c4=c4)


def reconstruct_rdms(cumulants: CumulantSet, zero_above: int) -> RdmSet:
    """Re-expand RDMs with every cumulant above `zero_above` set to zero."""
    if zero_above not in (2, 3, 4):
        raise ValueError("zero_above must be 2, 3 or 4")
    if cumulants.max_k < zero_above:
        raise ValueError(f"cumulants populated to order {cumulants.max_k}, "
                         f"need {zero_above}")
    m = cumulants.mode_count
    zero = {k: np.zeros((m,) * (2 * k), dtype=complex) for k in (3, 4)}
    c1 = cumulants.c1
    c2 = cumulants.c2
    c3 = cumulants.c3 if zero_above >= 3 else zero[3]
    c4 = cumulants.c4 if zero_above >= 4 else zero[4]
    d1 = np.array(c1)
    w11 = wedge(c1, c1)
    d2 = c2 + w11
    d3 = c3 + 3.0 * wedge(c2, c1) + wedge(w11, c1)
    d4 = (c4 + 4.0 * wedge(c3, c1) + 3.0 * wedge(c2, c2)
          + 6.0 * wedge(wedge(c2, c1), c1) + wedge(wedge(w11, c1), c1))
    return RdmSet(mode_count=m, d1=d1, d2=d2, d3=d3, d4=d4)


def contract_energy(h1: np.ndarray, h2: np.ndarray, rdms: RdmSet,
                    core_energy: float = 0.0) -> float:
    """<H> = sum h1[i,k] D1[i,k] + sum h2[i,j,k,l] D2[i,j,l,k] + core."""
    if h1.shape != rdms.d1.shape:
        raise ValueError("one-body tensor shape does not match the 1-RDM")
    value = np.einsum("ik,ik->", h1, rdms.d1)
    if rdms.d2 is None:
        raise ValueError("2-RDM required for the energy contraction")
    if h2.shape != rdms.d2.shape:
        raise ValueError("two-body tensor shape does not match the 2-RDM")
    value += np.einsum("ijkl,ijlk->", h2, rdms.d2)
    return float(np.real(value)) + core_energy


def expectation_from_rdms(op, rdms: RdmSet) -> complex:
    """Contract a (normal-orderable) fermionic operator with stored RDMs."""
    value = 0.0 + 0.0j
    for seq, coeff in normal_order(op).terms.items():
        k = sum(1 for _, dag in seq if dag)
        if 2 * k != len(seq):
            raise ValueError("operator does not conserve particle number; "
                             "its expectation is not an RDM contraction")
        if k == 0:
            value += coeff
            continue
        upper = tuple(mode for mode, dag in seq if dag)
        lower = tuple(mode for mode, dag in reversed(seq) if not dag)
        value += coeff * factorial(k) * rdms.d(k)[upper + lower]
    return complex(value)


def sample_rdms(state: np.ndarray, max_k: int, shots: int, seed: int) -> RdmSet:
    """RDMs through the measurement pathway instead of exact traces.

    Every distinct Pauli string appearing in the Jordan-Wigner form of the
    required ladder products is estimated once with `shots` samples; RDM
    elements are then assembled classically from the shared estimates, which
    keeps upper/lower Hermiticity exact by construction. The i-th distinct
    word draws from default_rng((seed, i)), so the streams of different
    seeds never coincide. Expect per-element noise of a few coefficient sums
    times 1/sqrt(shots).
    """
    state = np.asarray(state, dtype=complex)
    dim = state.shape[0]
    m = dim.bit_length() - 1
    if dim != 1 << m:
        raise ValueError(f"state dimension {dim} is not a power of two")
    if not 1 <= max_k <= 4:
        raise ValueError("max_k must be in 1..4")
    if m > RDM_MODE_LIMIT:
        raise ValueError(f"sampling limited to {RDM_MODE_LIMIT} modes, got {m}")
    identity = "I" * m
    estimates = {}

    def word_value(word):
        if word not in estimates:
            est, _ = estimate_pauli(state, PauliOperator(m, {word: 1.0}),
                                    shots, (seed, len(estimates)))
            estimates[word] = est
        return estimates[word]

    tensors = []
    for k in range(1, max_k + 1):
        combos = list(combinations(range(m), k))
        if not combos:
            tensors.append(np.zeros((m,) * (2 * k), dtype=complex))
            continue
        vals = np.zeros((len(combos), len(combos)), dtype=complex)
        for a, upper in enumerate(combos):
            for b, lower in enumerate(combos):
                seq = (tuple((i, True) for i in upper)
                       + tuple((j, False) for j in reversed(lower)))
                pauli_form = jordan_wigner(FermionOperator(m, {seq: 1.0}))
                total = 0.0 + 0.0j
                for word, coeff in pauli_form.terms.items():
                    total += coeff if word == identity else coeff * word_value(word)
                vals[a, b] = total / factorial(k)
        d = np.zeros((m,) * (2 * k), dtype=complex)
        carr = np.array(combos)
        for pu, su in _perms_with_parity(k):
            upper_ix = [carr[:, pu[a]].reshape(-1, 1) for a in range(k)]
            for pl, sl in _perms_with_parity(k):
                lower_ix = [carr[:, pl[a]].reshape(1, -1) for a in range(k)]
                d[tuple(upper_ix + lower_ix)] = (su * sl) * vals
        tensors.append(d)
    padded = tensors + [None] * (4 - len(tensors))
    return RdmSet(mode_count=m, d1=padded[0], d2=padded[1], d3=padded[2],
                  d4=padded[3])


def estimate_pauli(state: np.ndarray, pauli: PauliOperator, shots: int,
                   seed) -> tuple[float, float]:
    """Simulated projective estimate of a single Pauli string.

    Draws `shots` Bernoulli samples at probability (1 + <P>)/2 from the
    seeded generator; returns the sample mean (scaled by the term's real
    coefficient) and its standard error. `seed` is anything
    np.random.default_rng accepts, e.g. an int or an (int, word index) pair;
    the result is deterministic for a fixed seed.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if len(pauli.terms) != 1:
        raise ValueError("estimate_pauli needs a single Pauli string, not a sum")
    [(word, coeff)] = pauli.terms.items()
    if abs(np.imag(coeff)) > 1e-12:
        raise ValueError("Pauli string coefficient must be real")
    state = np.asarray(state, dtype=complex)
    acted = apply_pauli(pauli_action(PauliOperator(pauli.qubit_count, {word: 1.0})),
                        state)
    if state.ndim == 1:
        exact = float(np.real(state.conj() @ acted))
    else:
        exact = float(np.real(np.trace(acted)))
    p = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
    rng = np.random.default_rng(seed)
    samples = np.where(rng.random(shots) < p, 1.0, -1.0)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    scale = float(np.real(coeff))
    return scale * mean, abs(scale) * stderr
