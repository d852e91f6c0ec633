"""k-fermion reduced density matrices, cumulants and their reconstruction.

Index convention: D(k)[i1..ik, j1..jk] = (1/k!) <a_i1^ ... a_ik^ a_jk ... a_j1>,
so the 2-RDM element D2[i,j,k,l] equals (1/2) <a_i^ a_j^ a_l a_k>. Tensors are
Hermitian under conjugate exchange of the upper and lower index groups and
antisymmetric within each group.

Storage: an order-k RDM or cumulant is kept only as its packed block, the
C(M,k) x C(M,k) Hermitian matrix over increasing index tuples in
itertools.combinations order, with packed[I, J] = D[I, J] at sorted I, J.
All other elements follow by antisymmetry. compute_rdms, sample_rdms,
cumulants_from_rdms and reconstruct_rdms never build a full tensor, and
the cumulant expansion takes its Grassmann wedge products on packed blocks
(_wedge_packed); d(k), c(k) and d1..d4, c1..c4 build a new M^(2k) one on
each read, by one gather through a cached position-and-sign table per (M, k).
Blocks may carry leading stack axes, one set per state of a stack
(_pure_blocks); the expansion and the contractions broadcast over them.

The linear-response route in qse reads every 3- and 4-RDM term through one
split contraction (_split_contract) of the packed block. Like _wedge_packed
it walks the cached split tables, which split each sorted tuple every way
into two sorted parts with the sign of the merging shuffle.

Every state is checked by linalg._checked_state and must have dimension
2^M; compute_rdms adds the semidefinite test of its eigh, and the sampled
routes refuse any |<P>| above 1 + STATE_TOL.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

from .linalg import STATE_TOL, _checked_state, _reject, _symmetrized
from .operators import _I_POW, PauliOperator, _ladder_action, _ladder_words, _mode_count

RDM_MODE_LIMIT = 8
GATHER_BYTES = 2 << 20  # working set of one chunk of _exact_paulis transforms
_WEIGHT_TOL = 1e-14

# D_n - C_n as wedge products of lower-order cumulants: (coefficient, orders)
# per shape of partition of the n index pairs into two or more blocks; the
# coefficient is the number of set partitions of that shape.
_DISCONNECTED = {
    2: ((1.0, (1, 1)),),
    3: ((3.0, (2, 1)), (1.0, (1, 1, 1))),
    4: ((4.0, (3, 1)), (3.0, (2, 2)), (6.0, (2, 1, 1)), (1.0, (1, 1, 1, 1))),
}


def _parity(seq) -> float:
    """(-1) to the number of inversions of seq."""
    inv = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1.0 if inv & 1 else 1.0


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _combos(m: int, k: int) -> np.ndarray:
    """Increasing k-tuples of range(m), one per row, in combinations order."""
    return np.array(list(combinations(range(m), k)), dtype=np.intp).reshape(-1, k)


def _flat(idx: np.ndarray, m: int) -> np.ndarray:
    """Row-major flat index in range(m)^k of index tuples along the last axis."""
    return idx @ m ** np.arange(idx.shape[-1] - 1, -1, -1)


@lru_cache(maxsize=None)
def _gather_table(m: int, k: int):
    """Packed position and sign of every index tuple in range(m)^k, flattened.

    A tuple with a repeated index gets position 0 and sign 0.
    """
    perms = list(permutations(range(k)))
    flat = _flat(_combos(m, k)[:, perms], m)
    pos = np.zeros(m ** k, dtype=np.intp)
    sign = np.zeros(m ** k)
    pos[flat] = np.arange(len(flat))[:, None]
    sign[flat] = [_parity(p) for p in perms]
    return _frozen(pos, sign)


@lru_cache(maxsize=None)
def _split_table(m: int, k: int, j: int):
    """Packed positions, each (C(m,k), C(k,j)), of the two parts of every split
    of each sorted k-tuple into sorted j- and (k-j)-tuples, and per split the
    sign of the shuffle that merges the parts back into increasing order."""
    combos = _combos(m, k)
    picks = list(combinations(range(k), j))
    rests = [tuple(p for p in range(k) if p not in pick) for pick in picks]
    ia = _gather_table(m, j)[0][_flat(combos[:, picks], m)]
    ib = _gather_table(m, k - j)[0][_flat(combos[:, rests], m)]
    return _frozen(ia, ib, np.array([_parity(p + r) for p, r in zip(picks, rests)]))


@lru_cache(maxsize=None)
def _split_rows(m: int, k: int, j: int):
    """Per split of each sorted k-tuple I into sorted free A and summed B,
    |B| = j: the packed position of I, the flat index of B in range(m)^j, and
    a (m^(k-j), splits) map to every ordering f of A, signed by f and by the
    shuffle A + B -> I."""
    free, summed, shuffle = _split_table(m, k, k - j)
    rows = np.repeat(np.arange(free.shape[0]), free.shape[1])
    pos, sign = _gather_table(m, k - j)
    scatter = (pos[:, None] == free.ravel()) * sign[:, None] * np.tile(shuffle, len(free))
    return _frozen(rows, _flat(_combos(m, j), m)[summed.ravel()], scatter)


def _split_contract(block: np.ndarray, x: np.ndarray, m: int, k: int,
                    ju: int, jl: int) -> np.ndarray:
    """sum over increasing B, E of D[A + B, C + E] x[..., B, E], D the order-k
    tensor of the packed block, |B| = ju, |E| = jl. x holds the block's stack
    axes, then any batch axes, then the ju and jl summed axes; the result
    holds all free A and C, each flattened row-major, and costs
    C(k,ju) C(k,jl) C(m,k)^2 products."""
    rows_u, flat_u, scatter_u = _split_rows(m, k, ju)
    rows_l, flat_l, scatter_l = _split_rows(m, k, jl)
    x = x.reshape(x.shape[:x.ndim - ju - jl] + (m ** ju, m ** jl))
    batch = tuple(range(block.ndim - 2, x.ndim - 2))  # x's axes after the stack axes
    terms = x[..., flat_u[:, None], flat_l] * np.expand_dims(
        block[..., rows_u[:, None], rows_l], batch)
    return scatter_u @ terms @ scatter_l.T


def _expand(block: np.ndarray, m: int, k: int) -> np.ndarray:
    """Full (m,)*2k tensor of a packed order-k block, or of each of a stack."""
    shape = block.shape[:-2] + (m,) * (2 * k)
    if not block.size:
        return np.zeros(shape, dtype=block.dtype)
    pos, sign = _gather_table(m, k)
    full = block[..., pos[:, None], pos]
    full *= sign[:, None]
    full *= sign
    return full.reshape(shape)


def _wedge_packed(a: np.ndarray, b: np.ndarray, m: int, ka: int, kb: int) -> np.ndarray:
    """Packed a ^ b of packed blocks of orders ka and kb over m modes, or of stacks of them.

    (a ^ b)[I, J] = (ka! kb! / k!)^2 sum over splits I = Ia + Ib, J = Ja + Jb
    of sign(I split) sign(J split) a[Ia, Ja] b[Ib, Jb].
    """
    ia, ib, sign = _split_table(m, ka + kb, ka)
    ga = a[..., ia[:, :, None, None], ia[None, None]]
    gb = b[..., ib[:, :, None, None], ib[None, None]]
    scale = (factorial(ka) * factorial(kb) / factorial(ka + kb)) ** 2
    return scale * np.einsum("...isjt,...isjt,st->...ij", ga, gb, np.outer(sign, sign))


def _disconnected(c, n: int, m: int) -> np.ndarray:
    """D_n - C_n from the packed cumulant blocks c[0..n-2]."""
    total = 0.0
    for coeff, orders in _DISCONNECTED[n]:
        prod, k = c[orders[0] - 1], orders[0]
        for j in orders[1:]:
            prod = _wedge_packed(prod, c[j - 1], m, k, j)
            k += j
        total = total + coeff * prod
    return total


@dataclass(frozen=True, eq=False)
class _PackedSet:
    mode_count: int
    blocks: tuple  # packed block of order k at index k - 1
    max_k = property(lambda self: len(self.blocks), doc="Highest stored order.")

    def _full(self, k: int) -> np.ndarray:
        """Full order-k tensor, built on each call."""
        if not 1 <= k <= self.max_k:
            raise ValueError(f"order {k} not populated (max_k = {self.max_k})")
        return _expand(self.blocks[k - 1], self.mode_count, k)


_ORDERS = tuple(property(lambda self, k=k: self._full(k)) for k in range(1, 5))


class RdmSet(_PackedSet):
    """k-RDMs of orders 1..max_k, stored as packed blocks."""
    d = _PackedSet._full
    d1, d2, d3, d4 = _ORDERS


class CumulantSet(_PackedSet):
    """Cumulants of orders 1..max_k, stored as packed blocks."""
    c = _PackedSet._full
    c1, c2, c3, c4 = _ORDERS


@lru_cache(maxsize=None)
def _annihilators(m: int, k: int):
    """_ladder_action of a_jk ... a_j1 for every increasing (j1..jk), in
    combinations order."""
    seqs = [tuple((j, False) for j in reversed(c)) for c in combinations(range(m), k)]
    return _frozen(*_ladder_action(seqs, m))


def _pure_blocks(psi: np.ndarray, m: int, max_k: int) -> list:
    """Packed RDM blocks, orders 1..max_k, of a normalized pure state or each of a stack."""
    blocks = []
    for k in range(1, max_k + 1):
        src, weight = _annihilators(m, k)
        mat = np.ascontiguousarray((weight * psi[..., src]).swapaxes(-1, -2))
        blocks.append((mat.conj().swapaxes(-1, -2) @ mat) / factorial(k))
    return blocks


def _state_modes(state) -> tuple[np.ndarray, int]:
    """linalg._checked_state of state and its mode count M, for dimension 2^M."""
    state = _checked_state(state)
    if (m := _mode_count(state.shape[0])) is None:
        raise ValueError(f"state dimension {state.shape[0]} is not a power of two")
    return state, m


def compute_rdms(state: np.ndarray, max_k: int) -> RdmSet:
    """Extract 1..max_k RDMs from a pure state vector or a density matrix.

    Mixed states are eigendecomposed and handled as weighted pure states.
    """
    if not 1 <= max_k <= 4:
        raise ValueError("max_k must be in 1..4")
    state, m = _state_modes(state)
    if max_k == 4 and m > RDM_MODE_LIMIT:
        raise ValueError(f"max_k=4 limited to {RDM_MODE_LIMIT} modes, got {m}")
    if state.ndim == 1:
        blocks = _pure_blocks(state, m, max_k)
    else:
        w, v = np.linalg.eigh(_symmetrized(state))
        _reject(w[0] < -STATE_TOL, "density matrix is not positive semidefinite")
        blocks = [0.0] * max_k  # trace one leaves some weight >= ~1/dim
        for weight, col in zip(w, v.T):
            if weight > _WEIGHT_TOL:
                part = _pure_blocks(col, m, max_k)
                blocks = [acc + weight * t for acc, t in zip(blocks, part)]
    return RdmSet(mode_count=m, blocks=tuple(blocks))


def cumulants_from_rdms(rdms: RdmSet) -> CumulantSet:
    """Invert the cumulant expansion order by order (through the 4-RDM)."""
    c = [rdms.blocks[0]]
    for n in range(2, rdms.max_k + 1):
        c.append(rdms.blocks[n - 1] - _disconnected(c, n, rdms.mode_count))
    return CumulantSet(mode_count=rdms.mode_count, blocks=tuple(c))


def reconstruct_rdms(cumulants: CumulantSet, zero_above: int) -> RdmSet:
    """Re-expand RDMs 1..4 with every cumulant above `zero_above` set to zero."""
    if zero_above not in (2, 3, 4):
        raise ValueError("zero_above must be 2, 3 or 4")
    if cumulants.max_k < zero_above:
        raise ValueError(f"cumulants populated to order {cumulants.max_k}, "
                         f"need {zero_above}")
    m = cumulants.mode_count
    c = list(cumulants.blocks[:zero_above])
    c += [np.zeros(c[0].shape[:-2] + (comb(m, k),) * 2, dtype=np.result_type(*c))
          for k in range(zero_above + 1, 5)]
    d = [c[0]] + [c[n - 1] + _disconnected(c, n, m) for n in range(2, 5)]
    return RdmSet(mode_count=m, blocks=tuple(d))


def contract_energy(h1: np.ndarray, h2: np.ndarray, rdms: RdmSet,
                    core_energy: float = 0.0) -> float:
    """<H> = sum h1[i,k] D1[i,k] + sum h2[i,j,k,l] D2[i,j,l,k] + core."""
    d1 = rdms.d(1)
    if h1.shape != d1.shape:
        raise ValueError("one-body tensor shape does not match the 1-RDM")
    value = np.einsum("ik,ik->", h1, d1)
    if rdms.max_k < 2:
        raise ValueError("2-RDM required for the energy contraction")
    d2 = rdms.d(2)
    if h2.shape != d2.shape:
        raise ValueError("two-body tensor shape does not match the 2-RDM")
    value += np.einsum("ijkl,ijlk->", h2, d2)
    return float(np.real(value)) + core_energy


def sample_rdms(state: np.ndarray, max_k: int, shots: int, seed: int) -> RdmSet:
    """RDMs through the measurement pathway instead of exact traces.

    Every distinct Pauli word of the Jordan-Wigner table of _rdm_words (the
    ladder products a_I^ a_J, |I| = |J| <= max_k) is estimated once with
    `shots` samples, all words through one batched _sampled_means call that
    draws from np.random.default_rng((seed, 1)) in the table's order of
    first appearance. Each packed block is then assembled from the shared
    estimates by one np.bincount each for its real and imaginary parts,
    which adds every element's terms in their Jordan-Wigner order and keeps
    upper/lower Hermiticity exact by construction. Expect per-element noise
    of a few coefficient sums times 1/sqrt(shots). The state must pass the
    checks of compute_rdms: a normalized vector or a trace-one matrix.
    """
    state, m = _state_modes(state)
    if not 1 <= max_k <= 4:
        raise ValueError("max_k must be in 1..4")
    if m > RDM_MODE_LIMIT:
        raise ValueError(f"sampling limited to {RDM_MODE_LIMIT} modes, got {m}")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    orders, masks = _rdm_words(m, max_k)
    # the identity, word -1, is exact
    est = np.append(_sampled_means(state, masks, shots, (seed, 1)), 1.0)
    blocks = []
    for k, (pair, word, coeff) in enumerate(orders, start=1):
        n = comb(m, k)
        w = est[word]
        re = np.bincount(pair, coeff.real * w, n * n) / factorial(k)
        im = np.bincount(pair, coeff.imag * w, n * n) / factorial(k)
        blocks.append((re + 1j * im).reshape(n, n))
    return RdmSet(mode_count=m, blocks=tuple(blocks))


@lru_cache(maxsize=None)
def _rdm_words(m: int, max_k: int):
    """Jordan-Wigner terms of every a_I^ a_J, |I| = |J| <= max_k, as flat arrays.

    The ladder products of one order go through one _ladder_words call,
    which reads their words off the _ladder_masks closed form.
    Returns, per order k, the arrays (pair, word, coefficient) of every
    term, each pair's terms in jordan_wigner's order: pair the row-major
    index of (I, J) in the packed block, word the index of the term's Pauli
    word (-1 for the identity); then the (words, 2) (x, z) mask rows of the
    distinct non-identity words in order of first appearance, which fixes
    each word's place in the sampled batch.
    """
    terms = []
    for k in range(1, max_k + 1):
        combos = _combos(m, k)
        n = len(combos)
        # a_i1^ .. a_ik^ a_jk .. a_j1 for every pair (I, J), row-major
        ladder = np.ones((n * n, 2 * k, 3), dtype=np.int64)
        ladder[:, :, 0] = np.hstack([np.repeat(combos, n, axis=0),
                                     np.tile(combos[:, ::-1], (n, 1))])
        ladder[:, k:, 1] = 0
        terms.append(_ladder_words(ladder, np.ones(n * n, dtype=complex)))
    keys = np.concatenate([x | z << m for _, x, z, _ in terms])
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    ranked = np.argsort(first)
    ranked = ranked[distinct[ranked] != 0]
    ids = np.full(distinct.size, -1)
    ids[ranked] = np.arange(ranked.size)
    words = np.split(ids[inverse], np.cumsum([len(pair) for pair, *_ in terms])[:-1])
    orders = tuple(_frozen(pair, word, coeff) for (pair, _, _, coeff), word in zip(terms, words))
    x, z = distinct[ranked] & (1 << m) - 1, distinct[ranked] >> m
    return orders, _frozen(np.stack([x, z], axis=1))[0]


def _pauli_transforms(state: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row r holds F(z) = sum_k f(k) (-1)^popcount(k & z) for every z, with
    f(k) = conj(psi[k ^ x]) psi[k] on a state vector or f(k) = rho[k, k ^ x]
    on a density matrix, x = xs[r]. The butterflies run in place."""
    rows, dim = len(xs), state.shape[0]
    cols = np.arange(dim)
    src = cols ^ xs[:, None]
    if state.ndim == 1:
        f = state[src]
        np.conj(f, out=f)
        f *= state
    else:
        f = state[cols, src]
    del src  # the index array and the butterfly buffer are never held together
    diff = np.empty((rows, dim // 2), dtype=f.dtype)
    h = 1
    while h < dim:
        pairs = f.reshape(rows, -1, 2, h)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        np.subtract(low, high, out=diff.reshape(low.shape))
        low += high
        high[...] = diff.reshape(low.shape)
        h *= 2
    return f


def _exact_paulis(state: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Exact <P> of every word given by its (words, 2) (x, z) mask rows, in
    word order, on a state vector or density matrix.

    <W(x, z)> = i^#Y F_x(z), #Y = popcount(x & z), F_x the Walsh-Hadamard
    transform of f_x(k) = conj(psi[k ^ x]) psi[k], or of f_x(k) =
    rho[k, k ^ x]: one transform per distinct X mask x, read at every z of
    the batch. The transforms go a chunk of x rows at a time, and a chunk's
    index, transform and butterfly arrays, 32 bytes per entry, take at most
    GATHER_BYTES. A row's butterflies read only that row, so its values do
    not depend on the chunk.
    """
    xs, row = np.unique(masks[:, 0], return_inverse=True)
    step = max(1, GATHER_BYTES // (32 * state.shape[0]))
    exact = np.empty(len(masks))
    for lo in range(0, len(xs), step):
        pick = np.flatnonzero((row >= lo) & (row < lo + step))
        x, z = masks[pick].T
        # one statement, so a chunk's transforms are freed before the next
        exact[pick] = np.real(_pauli_transforms(state, xs[lo:lo + step])[
            row[pick] - lo, z] * _I_POW[np.bitwise_count(x & z) % 4])
    return exact


def _sampled_means(state: np.ndarray, masks: np.ndarray, shots: int, seed) -> np.ndarray:
    """Mean of `shots` simulated +-1 outcomes of every word of masks.

    Word w's +1 count is a Binomial(shots, (1 + <P_w>)/2) draw, the law of
    counting shots Bernoulli samples, at constant cost and memory in shots.
    All words draw in one call, in row order, from the generator
    np.random.default_rng(seed) builds, so a word's draw depends on its
    place in the batch. An exact <P> outside [-1, 1] by more than STATE_TOL
    means the state is not positive semidefinite and raises ValueError;
    within it, the clip absorbs rounding.
    """
    exact = _exact_paulis(state, masks)
    worst = np.abs(exact).max(initial=0.0)
    if worst > 1.0 + STATE_TOL:
        raise ValueError(f"|<P>| = {worst:.6g} exceeds 1, so the density matrix "
                         "is not positive semidefinite")
    p = np.clip((1.0 + exact) / 2.0, 0.0, 1.0)
    ups = np.random.default_rng(seed).binomial(shots, p)
    return (2 * ups - shots) / shots


def estimate_pauli(state: np.ndarray, pauli: PauliOperator, shots: int,
                   seed) -> tuple[float, float]:
    """Simulated projective estimate of a weighted sum of Pauli strings.

    The identity term is added exactly. Every other word is estimated with
    `shots` samples in one _sampled_means batch, in word order, from
    the generator np.random.default_rng(seed) builds. Returns sum c_w mean_w
    and its standard error sqrt(sum (c_w err_w)^2), where err_w =
    sqrt((1 - mean_w^2) / (shots - 1)) is the ddof=1 standard deviation of
    word w's +-1 outcomes over sqrt(shots), so a single word gives its
    scaled mean and standard error. Coefficients must be real. `seed` is
    anything default_rng accepts; the result is deterministic for a fixed
    seed, and its cost and memory do not grow with shots. The state is a
    normalized vector or a trace-one matrix, checked as compute_rdms does.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    state, m = _state_modes(state)
    n = pauli.qubit_count
    if m != n:
        raise ValueError(f"{n}-qubit operator on a dimension-{state.shape[0]} state")
    coeffs = pauli.coeffs
    if np.abs(coeffs.imag).max(initial=0.0) > 1e-12:
        raise ValueError("Pauli string coefficients must be real")
    masks = np.stack([pauli.x, pauli.z], axis=1)
    measured = masks.any(axis=1)
    means = np.ones(len(masks))
    means[measured] = _sampled_means(state, masks[measured], shots, seed)
    errs = np.sqrt((1.0 - means * means) / (shots - 1)) if shots > 1 else np.zeros(len(means))
    return float(np.sum(coeffs.real * means)), float(np.sqrt(np.sum((coeffs.real * errs) ** 2)))
