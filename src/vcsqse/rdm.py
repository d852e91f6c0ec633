"""k-fermion reduced density matrices, Grassmann wedge products, cumulants.

Index convention: D(k)[i1..ik, j1..jk] = (1/k!) <a_i1^ ... a_ik^ a_jk ... a_j1>,
so the 2-RDM element D2[i,j,k,l] equals (1/2) <a_i^ a_j^ a_l a_k>. Tensors are
Hermitian under conjugate exchange of the upper and lower index groups and
antisymmetric within each group.

Storage: an order-k RDM or cumulant is kept only as its packed block, the
C(M,k) x C(M,k) Hermitian matrix over increasing index tuples in
itertools.combinations order, with packed[I, J] = D[I, J] at sorted I, J.
All other elements follow by antisymmetry. compute_rdms, sample_rdms,
cumulants_from_rdms, reconstruct_rdms and the wedge kernel never build a
full tensor; d(k), c(k) and d1..d4, c1..c4 build a new M^(2k) one on each
read, by one gather through a cached position-and-sign table per (M, k).

The linear-response route in qse reads every 3- and 4-RDM term through one
split contraction (_split_contract) of the packed block. Like the wedge
kernel it walks the cached split tables, which split each sorted tuple
every way into two sorted parts with the sign of the merging shuffle.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

from .operators import (PauliOperator, _ladder_action, _ladder_words, _signed_permutation,
                        _word_masks)

RDM_MODE_LIMIT = 8
GATHER_BYTES = 2 << 20  # per (words, 2^M) complex array in _exact_paulis
_WEIGHT_TOL = 1e-14

# numpy's SeedSequence: entropy pool size, hash constants (initial value,
# multiplier) while mixing (A) and while drawing state (B), and mix multipliers
_POOL = 4
_MASK32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

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
    return _frozen(rows, _flat(_combos(m, j), m)[summed.ravel()], scatter.astype(complex))


def _split_contract(block: np.ndarray, x: np.ndarray, m: int, k: int,
                    ju: int, jl: int) -> np.ndarray:
    """sum over increasing B, E of D[A + B, C + E] x[..., B, E], D the order-k
    tensor of the packed block, |B| = ju, |E| = jl. x holds the ju then jl
    summed axes after any batch axes; the result holds all free A and C,
    each flattened row-major, and costs C(k,ju) C(k,jl) C(m,k)^2 products."""
    rows_u, flat_u, scatter_u = _split_rows(m, k, ju)
    rows_l, flat_l, scatter_l = _split_rows(m, k, jl)
    x = x.reshape(x.shape[:x.ndim - ju - jl] + (m ** ju, m ** jl))
    terms = x[..., flat_u[:, None], flat_l] * block[rows_u[:, None], rows_l]
    return scatter_u @ terms @ scatter_l.T


def _expand(block: np.ndarray, m: int, k: int) -> np.ndarray:
    """Full (m,)*2k tensor of a packed order-k block."""
    if not block.size:
        return np.zeros((m,) * (2 * k), dtype=complex)
    pos, sign = _gather_table(m, k)
    full = block[np.ix_(pos, pos)]
    full *= sign[:, None]
    full *= sign
    return full.reshape((m,) * (2 * k))


def _pack(t: np.ndarray, k: int) -> np.ndarray:
    """Packed block of the antisymmetric part of a (k, k)-index tensor."""
    m = t.shape[0]
    pos, sign = _gather_table(m, k)
    rows = np.flatnonzero(sign)
    basis = np.zeros((m ** k, comb(m, k)))
    basis[rows, pos[rows]] = sign[rows]
    return basis.T @ t.reshape(m ** k, m ** k) @ basis / factorial(k) ** 2


def _wedge_packed(a: np.ndarray, b: np.ndarray, m: int, ka: int, kb: int) -> np.ndarray:
    """Packed a ^ b of packed blocks of orders ka and kb over m modes.

    (a ^ b)[I, J] = (ka! kb! / k!)^2 sum over splits I = Ia + Ib, J = Ja + Jb
    of sign(I split) sign(J split) a[Ia, Ja] b[Ib, Jb].
    """
    ia, ib, sign = _split_table(m, ka + kb, ka)
    ga = a[ia[:, :, None, None], ia[None, None]]
    gb = b[ib[:, :, None, None], ib[None, None]]
    scale = (factorial(ka) * factorial(kb) / factorial(ka + kb)) ** 2
    return scale * np.einsum("isjt,isjt,st->ij", ga, gb, np.outer(sign, sign))


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
    """Packed RDM blocks of a normalized pure state, orders 1..max_k."""
    blocks = []
    for k in range(1, max_k + 1):
        src, weight = _annihilators(m, k)
        mat = np.ascontiguousarray((weight * psi[src]).T)
        blocks.append((mat.conj().T @ mat) / factorial(k))
    return blocks


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
        blocks = _pure_blocks(state, m, max_k)
    elif state.ndim == 2 and state.shape == (dim, dim):
        if abs(np.trace(state) - 1.0) > 1e-10:
            raise ValueError("density matrix is not trace-one")
        w, v = np.linalg.eigh(0.5 * (state + state.conj().T))
        if w[0] < -1e-10:
            raise ValueError("density matrix is not positive semidefinite")
        if w[-1] <= _WEIGHT_TOL:
            raise ValueError("density matrix has no significant eigenvalues")
        blocks = [0.0] * max_k
        for weight, col in zip(w, v.T):
            if weight > _WEIGHT_TOL:
                part = _pure_blocks(col, m, max_k)
                blocks = [acc + weight * t for acc, t in zip(blocks, part)]
    else:
        raise ValueError("state must be a vector or a square matrix")
    return RdmSet(mode_count=m, blocks=tuple(blocks))


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Grassmann wedge product of (m,m)- and (n,n)-index tensors.

    Antisymmetrizes the tensor product over upper and lower index groups with
    the (1/N!)^2 normalization; bilinear and associative. Both factors are
    packed first, which keeps only their antisymmetric parts, so inputs that
    are not antisymmetric give the same result as their antisymmetrizations.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim % 2 or b.ndim % 2:
        raise ValueError("wedge factors must have even rank")
    dims = set(a.shape) | set(b.shape)
    if len(dims) != 1:
        raise ValueError("wedge factors must share one mode dimension")
    (m,) = dims
    ka, kb = a.ndim // 2, b.ndim // 2
    return _expand(_wedge_packed(_pack(a, ka), _pack(b, kb), m, ka, kb), m, ka + kb)


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
    c += [np.zeros((comb(m, k),) * 2, dtype=complex) for k in range(zero_above + 1, 5)]
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
    `shots` samples, all words through one batched _sampled_means call; the
    i-th distinct word in order of first appearance draws its count from the
    stream of SeedSequence((seed, 1, i)), the generator default_rng((seed,
    1, i)) builds, with every word's seed computed in one _stream_seeds pass.
    Each packed block is then assembled from the shared estimates by one
    np.bincount each for its real and imaginary parts, which adds every
    element's terms in their Jordan-Wigner order and keeps upper/lower
    Hermiticity exact by construction. Expect per-element noise of a few
    coefficient sums times 1/sqrt(shots).
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
    if shots < 1:
        raise ValueError("shots must be at least 1")
    orders, masks = _rdm_words(m, max_k)
    seeds = _streams(seed, 1, np.arange(len(masks)))
    # the identity, word -1, is exact
    est = np.append(_sampled_means(state, masks, shots, seeds), 1.0)
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

    The ladder products of one order go through one _ladder_words call.
    Returns, per order k, the arrays (pair, word, coefficient) of every
    term, each pair's terms in jordan_wigner's order: pair the row-major
    index of (I, J) in the packed block, word the index of the term's Pauli
    word (-1 for the identity); then the (words, 3) _word_masks rows of the
    distinct non-identity words in order of first appearance, which fixes
    their stream keys.
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
    masks = np.stack([x, z, np.bitwise_count(x & z) % 4], axis=1).astype(np.int64)
    return orders, _frozen(masks)[0]


def _exact_paulis(state: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Exact <P> of every word given by its (words, 3) _word_masks rows, on
    a state vector or density matrix.

    Each word is one gather of 2^M entries through _signed_permutation.
    Words go a chunk at a time, each (words, 2^M) complex array of a chunk
    at most GATHER_BYTES, and each word's entries are summed on their own,
    so its value does not depend on the chunk.
    """
    dim = state.shape[0]
    n = dim.bit_length() - 1
    step = max(1, GATHER_BYTES // (16 * dim))
    cols = np.arange(dim)
    exact = np.empty(len(masks))
    for lo in range(0, len(masks), step):
        src, phase = _signed_permutation(*masks[lo:lo + step].T[:, :, None], 1.0, n)
        if state.ndim == 1:
            terms = state.conj() * (phase * state[src])
        else:
            terms = phase * state[src, cols]
        exact[lo:lo + step] = np.real(terms.sum(axis=1))
    return exact


def _hash_steps(init: int, mult: int, count: int) -> np.ndarray:
    """The first count + 1 values of a SeedSequence hash constant, as a column."""
    steps = [init]
    for _ in range(count):
        steps.append(steps[-1] * mult & _MASK32)
    return np.array(steps, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value row by row, row r stepping the hash
    constant from steps[r] to steps[r + 1]."""
    value = (value ^ steps[:-1]) * steps[1:]
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> np.uint32(16)


def _stream_seeds(seed: int, stream: int, index) -> np.ndarray:
    """SeedSequence((seed, stream, i)).generate_state(4, np.uint64) for every
    i of index at once, shape (len(index), 4).

    numpy's pool-4 entropy mixing and state draw in vectorized uint32
    arithmetic. seed and stream are non-negative ints of any size, split
    into 32-bit words as SeedSequence splits them; each i is below 2**32.
    """
    words = []
    for value in (seed, stream):
        if value < 0:
            raise ValueError("seed must be non-negative")
        words += [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]
    index = np.asarray(index, dtype=np.uint32).reshape(-1)
    entropy = np.zeros((max(len(words) + 1, _POOL), index.size), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = index
    steps = _hash_steps(*_HASH_A, _POOL * _POOL + _POOL * (len(entropy) - _POOL))
    pool = _hashmix(entropy[:_POOL], steps[:_POOL + 1])
    at = _POOL
    for src in range(_POOL):  # every pool word into every other
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps[at:at + _POOL]))
        at += _POOL - 1
    for word in entropy[_POOL:]:  # entropy beyond the pool into every pool word
        pool = _mix(pool, _hashmix(word, steps[at:at + _POOL + 1]))
        at += _POOL
    state = _hashmix(np.tile(pool, (2, 1)), _hash_steps(*_HASH_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _seed_type():
    """A numpy ISeedSequence that hands PCG64 a precomputed state.

    Built on first use, so that importing the package leaves numpy.random
    unimported; numpy imports it on first access to np.random.
    """
    class StreamSeed(np.random.bit_generator.ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("a stream seed holds only PCG64's four 64-bit words")
            return self.state

    return StreamSeed


def _streams(seed: int, stream: int, index) -> list:
    """Seed objects of the streams SeedSequence((seed, stream, i)), i in index."""
    return list(map(_seed_type(), _stream_seeds(seed, stream, index)))


def _sampled_means(state: np.ndarray, masks: np.ndarray, shots: int, seeds) -> np.ndarray:
    """Mean of `shots` simulated +-1 outcomes of every word of masks.

    Word w's +1 count is one Binomial(shots, (1 + <P_w>)/2) draw from
    Generator(PCG64(seeds[w])), seeds[w] a SeedSequence or a _streams seed,
    the law of counting shots Bernoulli samples, at constant cost and
    memory in shots.
    """
    generator, pcg64 = np.random.Generator, np.random.PCG64
    p = np.clip((1.0 + _exact_paulis(state, masks)) / 2.0, 0.0, 1.0)
    ups = np.array([generator(pcg64(s)).binomial(shots, q) for s, q in zip(seeds, p)],
                   dtype=np.int64)
    return (2 * ups - shots) / shots


def estimate_pauli(state: np.ndarray, pauli: PauliOperator, shots: int,
                   seed) -> tuple[float, float]:
    """Simulated projective estimate of a single Pauli string.

    The one-word case of the estimator sample_rdms runs in batch: the +1
    count of `shots` outcomes at probability (1 + <P>)/2 is one binomial
    draw from the generator np.random.default_rng(seed) builds. Returns the
    sample mean (scaled by the term's real coefficient) and its standard
    error sqrt((1 - mean^2) / (shots - 1)), the ddof=1 standard deviation of
    the +-1 outcomes over sqrt(shots). `seed` is an int, a sequence of ints
    or a numpy ISeedSequence, such as one seed of _streams; the result is
    deterministic for a fixed seed, and its cost and memory do not grow with
    shots.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if len(pauli.terms) != 1:
        raise ValueError("estimate_pauli needs a single Pauli string, not a sum")
    [(word, coeff)] = pauli.terms.items()
    if abs(np.imag(coeff)) > 1e-12:
        raise ValueError("Pauli string coefficient must be real")
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != 1 << len(word):
        raise ValueError(f"{len(word)}-qubit word on a dimension-{state.shape[0]} state")
    if not isinstance(seed, np.random.bit_generator.ISeedSequence):
        seed = np.random.SeedSequence(seed)
    masks = np.array([_word_masks(word)], dtype=np.int64)
    mean = float(_sampled_means(state, masks, shots, [seed])[0])
    stderr = float(np.sqrt((1.0 - mean * mean) / (shots - 1))) if shots > 1 else 0.0
    scale = float(np.real(coeff))
    return scale * mean, abs(scale) * stderr
