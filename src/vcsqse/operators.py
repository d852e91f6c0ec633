"""Fermionic ladder-slot arrays and Pauli word bit masks, with a
Jordan-Wigner bridge. Nothing here multiplies operators symbolically: the
package writes its fermionic operators in normal order, and one kernel,
_ladder_masks on _ladder_slots arrays, evaluates ladder products.
FermionOperator holds such an array and a coefficient array, tuples only at
its edge; fermion_to_dense and jordan_wigner read both.

Conventions used throughout the package:

* Spin-orbital ordering: mode 2p is spatial orbital p with spin alpha,
  mode 2p+1 the same orbital with spin beta.
* Occupation encoding: basis index b has mode i occupied iff bit i of b is
  set, so qubit 0 is the least significant bit and qubit |1> means occupied.
* Jordan-Wigner: a_p^dag -> (prod_{m<p} Z_m) (X_p - i Y_p)/2, which sends
  the creation operator to |1><0| on qubit p. _ladder_words reads the words
  of a batch of ladder sequences off their _ladder_masks closed form, for
  jordan_wigner and rdm._rdm_words.
* Pauli action: every Pauli word is a signed permutation. With x the bit
  mask of its X/Y letters and z that of its Z/Y letters, the word is
  W(x, z) = i^|x&z| X^x Z^z and
  (c P v)[j] = c * i^#Y * (-1)^popcount((j ^ x) & z) * v[j ^ x].
  PauliOperator stores every word as these two masks, and letters exist
  only at its edge. _signed_permutation turns (x, z) into that form for the
  qubit expansion basis of qse. rdm._exact_paulis reads the same masks but
  takes every <W(x, z)> of one x at once, as a Walsh-Hadamard transform
  over z.
* Ladder action: a product of ladder operators sends each occupation state
  to at most one state, with sign +-1, so it is one masked signed
  permutation, (E v)[j] = weight[j] * v[j ^ x] with weight in {0, +-1}.
  _ladder_masks writes it in closed form, by the occupation-bit rules
  alone, as a few bit masks per sequence. _ladder_action evaluates them on
  all 2^M states for the expansion bases of qse and the pure-state RDMs of
  rdm. _ladder_dense visits only the entries each term reaches, for a stack
  of coefficient rows over one table; fermion_to_dense is a stack of one.
* Dense dtype: fermion_to_dense, and with it dense_symmetry, returns float64
  when every coefficient's imaginary part is exactly zero (a molecular
  Hamiltonian in real orbitals, every symmetry operator) and complex128
  otherwise. The ladder action itself is real, so nothing is lost.
"""

import math
from functools import lru_cache

import numpy as np

# Terms, words and integrals below this magnitude are dropped where they are summed or read.
PRUNE_TOL = 1e-14

DENSE_QUBIT_LIMIT = 12
# Ladder-action entries per chunk of _ladder_dense: terms x 2^M per alive
# test (a 2 MiB int64 table and a 256 KiB mask), and members x alive entries
# per scatter, at most ~64 bytes of index and value arrays each. 1024 terms
# at M = 8, so every molecular Hamiltonian up to M = 8 (at most 833 terms,
# 12% of their entries alive) is one term chunk, scattered 10 members a call.
DENSE_CHUNK_ENTRIES = 1 << 18

# i^k for k mod 4
_I_POW = np.array([1, 1j, -1, -1j])


def _format_coeff(c: complex) -> str:
    re = format(float(np.real(c)), ".12g")
    im = float(np.imag(c))
    sign = "+" if im >= 0 or np.isnan(im) else "-"
    return f"({re}{sign}{format(abs(im), '.12g')}i)"


def _require_finite(coeff, term):
    if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
        raise ValueError(f"non-finite coefficient {coeff} for term {term!r}")


def parse_ladder(text: str) -> tuple:
    """Parse a ladder sequence like ``"0^ 1"`` into ((0, True), (1, False))."""
    return tuple((int(tok.removesuffix("^")), tok.endswith("^")) for tok in text.split())


def ladder_text(seq) -> str:
    """A ladder sequence in the form parse_ladder reads, like ``"0^ 1"``."""
    return " ".join(f"{m}^" if d else f"{m}" for m, d in seq)


class FermionOperator:
    """Weighted sum of products of fermionic ladder operators on M modes: a
    read-only _ladder_slots array ladder, shape (terms, longest, 3), and
    complex coeffs, in term order. Only the constructor (a {seq: coeff}
    mapping, seq a tuple of (mode, is_dagger) pairs and () the identity),
    terms and render know tuples.
    """

    def __init__(self, mode_count: int, terms=None):
        if mode_count < 0:
            raise ValueError("mode_count must be non-negative")
        m = int(mode_count)
        summed = {}
        for seq, coeff in (terms or {}).items():
            seq = tuple((int(mode), bool(d)) for mode, d in seq)
            for mode, _ in seq:
                if not 0 <= mode < m:
                    raise ValueError(f"mode {mode} outside [0, {m})")
            _require_finite(coeff, seq)
            if abs(coeff) >= PRUNE_TOL:
                summed[seq] = c = summed.get(seq, 0.0) + complex(coeff)
                _require_finite(c, seq)
        kept = {seq: c for seq, c in summed.items() if abs(c) >= PRUNE_TOL}
        self._set(m, _ladder_slots(tuple(kept)), np.array(list(kept.values()), dtype=complex))

    def _set(self, mode_count, ladder, coeffs):
        """Store distinct in-range sequences, finite coefficients >= PRUNE_TOL, read-only."""
        self.mode_count, self.ladder, self.coeffs = mode_count, ladder, coeffs
        for arr in (ladder, coeffs):
            arr.setflags(write=False)
        return self

    @property
    def terms(self) -> dict:
        """A new {seq: coefficient} dict of the terms, in term order."""
        return {tuple((mode, bool(d)) for mode, d, used in row if used): c
                for row, c in zip(self.ladder.tolist(), self.coeffs.tolist())}

    def render(self) -> str:
        """Canonical text form: sorted terms, 12-significant-digit coefficients."""
        terms = self.terms  # by mode, a creation before an annihilation
        order = sorted(terms, key=lambda seq: [(mode, not dagger) for mode, dagger in seq])
        return "\n".join(f"{_format_coeff(terms[seq])} [{ladder_text(seq)}]"
                         for seq in order) or "(0+0i) []"

    __str__ = render

    def __repr__(self):
        return f"FermionOperator(M={self.mode_count}, {len(self.coeffs)} terms)"


class PauliOperator:
    """Weighted sum of n-qubit Pauli words W(x, z), 0 <= n <= 62: int64
    arrays x and z, bit q for qubit q, and complex coeffs, in word order.
    Only the constructor (a {word: coeff} mapping, letter k of a word over
    IXYZ acting on qubit k), terms and render know letters.
    """

    def __init__(self, qubit_count: int, terms=None):
        n = int(qubit_count)
        if not 0 <= n <= 62:
            raise ValueError(f"qubit_count {n} outside the 0..62 qubits of a 64-bit word mask")
        words = {}
        for word, coeff in (terms or {}).items():
            if len(word) != n or any(ch not in "IXYZ" for ch in word):
                raise ValueError(f"bad Pauli word {word!r} for n={n}")
            _require_finite(coeff, word)
            if abs(coeff) >= PRUNE_TOL:
                words[word] = complex(coeff)
        masks = [[sum(1 << q for q, ch in enumerate(word) if ch in letters) for word in words]
                 for letters in ("XY", "ZY")]
        self._set(n, *np.array(masks, dtype=np.int64),
                  np.array(list(words.values()), dtype=complex))

    def _set(self, qubit_count, x, z, coeffs):
        """Store distinct words, coefficients at least PRUNE_TOL, read-only."""
        self.qubit_count, self.x, self.z, self.coeffs = qubit_count, x, z, coeffs
        for arr in (x, z, coeffs):
            arr.setflags(write=False)
        return self

    @property
    def terms(self) -> dict:
        """A new {letters: coefficient} dict of the words, in word order."""
        n = self.qubit_count
        return {"".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n)): c
                for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeffs.tolist())}

    def render(self) -> str:
        terms = self.terms
        parts = []
        for word in sorted(terms, key=_pauli_sort_key):
            body = " ".join(f"{ch}{q}" for q, ch in enumerate(word) if ch != "I")
            parts.append(f"{_format_coeff(terms[word])} [{body}]")
        return "\n".join(parts) or "(0+0i) []"

    __str__ = render

    def __repr__(self):
        return f"PauliOperator(n={self.qubit_count}, {len(self.coeffs)} terms)"


def _pauli_sort_key(word):
    return tuple((q, ch) for q, ch in enumerate(word) if ch != "I")


def _ladder_words(ladder: np.ndarray, coeffs: np.ndarray):
    """Jordan-Wigner words of coeffs[t] times ladder sequence t, for every t at once.

    ladder is a _ladder_slots array and coeffs a complex array. By its
    _ladder_masks, sequence t is X^x (-1)^sign Z^parity times the projector
    prod_{q in fixed} (I + (-1)^value_q Z_q) / 2, so c times it is the sum,
    over every subset s of fixed, of W(x, z = parity ^ s) with coefficient
    c 2^-|fixed| i^(2 sign + 2|value & s| - |x & z|). Returns flat arrays
    (term, x, z, coefficient), each term's words in the order of the product
    of its Jordan-Wigner ladders taken one at a time: s counting up, each
    mode's bit at the last slot that holds it, slot 0 most significant. A
    zero sequence (value -1), or one whose words fall below PRUNE_TOL, gives
    no words.
    """
    x, fixed, value, parity, sign = _ladder_masks(ladder)
    mode, _, used = np.moveaxis(ladder, 2, 0)
    earlier = np.tri(ladder.shape[1], k=-1, dtype=bool)
    same = (mode[:, :, None] == mode[:, None, :]) & (used[:, :, None] * used[:, None, :] == 1)
    repeat, last = (same & earlier).any(axis=2), used * ~(same & earlier.T).any(axis=2)
    # 2^-|fixed| as that product reaches it, so subnormal parts round alike:
    # halved at each ladder, doubled where two words merge at a repeated mode
    scaled = coeffs
    for pos in range(ladder.shape[1]):
        scaled = np.where(used[:, pos] == 1, scaled * 0.5, scaled)
        scaled = np.where(repeat[:, pos], scaled * 2, scaled)
    term = np.flatnonzero((value >= 0) & (np.abs(scaled) >= PRUNE_TOL))
    s = np.zeros(len(term), dtype=np.int64)
    for pos in range(ladder.shape[1]):  # at a mode's last slot, bit 0 then bit 1
        parent = np.repeat(np.arange(len(term)), 1 + last[term, pos])
        second = np.diff(parent, prepend=-1) == 0
        term, s = term[parent], s[parent] | second << mode[term[parent], pos]
    x, z = x[term], parity[term] ^ s
    k = 2 * sign[term] + 2 * np.bitwise_count(value[term] & s) - np.bitwise_count(x & z)
    return term, x, z, scaled[term] * _I_POW[k % 4]


def jordan_wigner(op: FermionOperator) -> PauliOperator:
    """Map a fermionic operator to Pauli words (algebra homomorphism): the
    _ladder_words of every term, summed in term order, an entry that cancels
    to below PRUNE_TOL leaving the sum."""
    n = op.mode_count
    if n > 62:
        raise ValueError(f"mode_count {n} exceeds the 62 modes of a 64-bit word mask")
    _, xs, zs, coeffs = _ladder_words(op.ladder, op.coeffs)
    out = {}
    for key, c in zip(zip(xs.tolist(), zs.tolist()), coeffs.tolist()):
        out[key] = out.get(key, 0.0) + c
        if abs(out[key]) < PRUNE_TOL:
            del out[key]
    return PauliOperator.__new__(PauliOperator)._set(
        n, *np.array(list(out), dtype=np.int64).reshape(-1, 2).T,
        np.array(list(out.values()), dtype=complex))


def _signed_permutation(x, z, c, n: int):
    """Word W(x, z) = i^|x&z| X^x Z^z times c as the signed permutation
    v -> phase * v[src]: src[j] = j ^ x and phase[j] = c * i^#Y *
    (-1)^popcount(src[j] & z), #Y = popcount(x & z), for scalars or
    (words, 1) columns."""
    src = np.arange(1 << n) ^ x
    c = c * _I_POW[np.bitwise_count(x & z) % 4]
    return src, np.where(np.bitwise_count(src & z) & 1, -c, c)


def _ladder_slots(seqs) -> np.ndarray:
    """(sequences, longest, 3) int64 array of (mode, dagger, used) per slot,
    used 1 where the slot holds a ladder operator and 0 in the padding."""
    longest = max(map(len, seqs), default=0)
    rows = [[(mode, dagger, 1) for mode, dagger in seq] + [(0, 0, 0)] * (longest - len(seq))
            for seq in seqs]
    return np.array(rows, dtype=np.int64).reshape(len(seqs), longest, 3)


def _ladder_masks(ladder: np.ndarray):
    """Closed form of each ladder sequence of a _ladder_slots array: int64
    arrays (x, fixed, value, parity, sign), one entry per sequence. The
    sequence sends input state j_in to j_in ^ x iff (j_in & fixed) == value,
    times (-1)^(popcount(j_in & parity) + sign); value is -1 if two slots ask
    one mode for different bits. Acting right to left, slot k sees j_in with the
    modes F_k of the slots to its right flipped: a_p^dag needs mode p empty,
    a_p occupied, each picking up (-1)^(number of occupied modes below p).
    """
    mode, dagger, used = np.moveaxis(ladder, 2, 0)
    bit = used << mode
    below = bit - used  # modes below each slot's mode, 0 in the padding
    right = np.bitwise_xor.accumulate(bit[:, ::-1], axis=1)[:, ::-1] ^ bit  # F_k
    need = (dagger ^ 1 ^ (right >> mode)) & used  # the bit of j_in the slot needs
    ones, zeros = (np.bitwise_or.reduce(b << mode, axis=1, initial=0) for b in (need, used - need))
    return (np.bitwise_xor.reduce(bit, axis=1, initial=0), ones | zeros,
            np.where(ones & zeros, -1, ones), np.bitwise_xor.reduce(below, axis=1, initial=0),
            np.bitwise_count(right & below).sum(axis=1, dtype=np.int64))


def _ladder_action(seqs, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Masked signed permutation of every ladder sequence in seqs, on m modes,
    as (len(seqs), 2^m) arrays: sequence t sends v to weight[t] * v[src[t]],
    src[t, j] = j ^ x_t, and weight[t, j] in {0, +-1} is the _ladder_masks
    closed form at the input state src[t, j]."""
    x, fixed, value, parity, sign = (a[:, None] for a in _ladder_masks(_ladder_slots(seqs)))
    src = np.arange(1 << m) ^ x
    weight = np.where((np.bitwise_count(src & parity) + sign) & 1, -1.0, 1.0)
    weight[(src & fixed) != value] = 0.0
    return src, weight


def _ladder_dense(m: int, ladder: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(members, 2^m, 2^m) dense matrices of one _ladder_slots table, member p
    weighting term t by coeffs[p, t]. Each chunk of DENSE_CHUNK_ENTRIES / 2^m
    terms finds its alive (term, input state) entries once, and np.add.at adds
    their signed coefficients, DENSE_CHUNK_ENTRIES (member, entry) pairs at
    most a call, in term order: a coefficient of 0 changes no bit."""
    if m > DENSE_QUBIT_LIMIT:
        raise ValueError(f"mode_count {m} exceeds dense limit {DENSE_QUBIT_LIMIT}")
    out = np.zeros((len(coeffs), 1 << m, 1 << m), dtype=coeffs.dtype)
    x, fixed, value, parity, sign = _ladder_masks(ladder)
    step = max(1, DENSE_CHUNK_ENTRIES >> m)
    for lo in range(0, len(ladder), step):
        alive = np.flatnonzero((np.arange(1 << m) & fixed[lo:lo + step, None])
                               == value[lo:lo + step, None])
        term, col = lo + (alive >> m), alive & ((1 << m) - 1)
        odd = (np.bitwise_count(col & parity[term]) + sign[term]) & 1
        entry, signs = (col ^ x[term]) << m | col, np.where(odd, -1.0, 1.0)
        block = max(1, DENSE_CHUNK_ENTRIES // max(1, len(alive)))
        for p in range(0, len(coeffs), block):
            members = np.arange(p, min(p + block, len(coeffs)))[:, None]
            np.add.at(out.reshape(-1), (members << 2 * m | entry).ravel(),
                      (coeffs[p:p + block].take(term, axis=1) * signs).ravel())
    return out


def fermion_to_dense(op: FermionOperator) -> np.ndarray:
    """Dense matrix by direct ladder-operator action on occupation states, in
    the Jordan-Wigner phase convention (the _ladder_dense stack of one):
    float64 if no coefficient has an imaginary part, else complex128."""
    coeffs = op.coeffs if op.coeffs.imag.any() else op.coeffs.real
    return _ladder_dense(op.mode_count, op.ladder, coeffs[None])[0]


def _mode_count(dim: int):
    """M if dim = 2^M, the dimension of M modes or qubits, else None."""
    return dim.bit_length() - 1 if dim and not dim & (dim - 1) else None


def symmetry_operator(kind: str, mode_count: int) -> FermionOperator:
    """Total number, S_z, or S^2 in second quantization.

    Spinful operators assume the interleaved (alpha, beta) mode ordering and
    therefore need an even mode count. S^2 = S_- S_+ + S_z (S_z + 1) is
    written out in normal order; its coefficients are multiples of 1/4, so
    its dense form is exact.
    """
    m = mode_count
    if kind == "number":
        return FermionOperator(m, {((i, True), (i, False)): 1.0 for i in range(m)})
    if kind in ("sz", "s_squared") and m % 2:
        raise ValueError("spinful symmetry operators need an even mode count")
    if kind == "sz":
        return FermionOperator(m, {((i, True), (i, False)): 0.5 - i % 2 for i in range(m)})
    if kind == "s_squared":
        terms = {((i, True), (i, False)): 0.75 for i in range(m)}
        for p in range(m // 2):
            a, b = 2 * p, 2 * p + 1  # orbital p's alpha and beta modes
            terms[parse_ladder(f"{a}^ {b}^ {b} {a}")] = -1.5
            # density pairs and spin exchange with each later orbital q
            for c, d in ((2 * q, 2 * q + 1) for q in range(p + 1, m // 2)):
                for text, coeff in ((f"{a}^ {c}^ {c} {a}", 0.5), (f"{b}^ {d}^ {d} {b}", 0.5),
                                    (f"{a}^ {d}^ {d} {a}", -0.5), (f"{b}^ {c}^ {c} {b}", -0.5),
                                    (f"{a}^ {d}^ {c} {b}", 1.0), (f"{b}^ {c}^ {d} {a}", 1.0)):
                    terms[parse_ladder(text)] = coeff
        return FermionOperator(m, terms)
    raise ValueError(f"unknown symmetry operator kind {kind!r}")


@lru_cache(maxsize=None)
def dense_symmetry(kind: str, mode_count: int) -> np.ndarray:
    """Read-only dense matrix of symmetry_operator(kind, mode_count), float64
    since every coefficient is real.

    Built once per (kind, mode_count) and shared by every caller.
    """
    mat = fermion_to_dense(symmetry_operator(kind, mode_count))
    mat.setflags(write=False)
    return mat

