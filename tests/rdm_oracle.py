"""Reference full-tensor RDM constructions, for the tests only.

wedge antisymmetrizes the tensor product of two full (k, k)-index tensors
by summing transposed copies over every riffle shuffle of the index groups,
and zc_h_sub builds the ZC matrix by normal-ordering every product
(a_i^ a_j)^ [H0, a_k^ a_l] with fermion_oracle and contracting it term by
term.
These are the textbook definitions the package's packed wedge kernel and
closed-form ZC contraction must reproduce. expectation_from_rdms
contracts a normal-ordered operator term by term with full RDM tensors.
_lr_matrix, _g_column and _zc_columns are the linear-response and ZC
formulas as einsums over full D1..D4 tensors, which the package's packed
split contractions must reproduce. Each wedge holds (k!)^2 transposed
M^(2k) tensors, ZC needs (M^2 + 1)^2 symbolic products and _lr_matrix
holds the full M^8 4-RDM, so keep M small.

loop_rdm_words builds sample_rdms' flat word table by one
letter_jordan_wigner call per ladder product a_I^ a_J, interning each new
word as it meets it; the package's batched table must equal it array for
array.

loop_sample_rdms maps every ladder product a_I^ a_J afresh with
letter_jordan_wigner, collects the distinct words in order of first
appearance, takes their <P> by pauli_oracle.apply_paulis, draws all their
+1 counts with one default_rng((seed, 1)) binomial call and adds each
element's terms in a Python loop. Given the same <P> array, the package's
sample_rdms must match it bit for bit with its cached flat forms and one
bincount per block part.
"""

from itertools import combinations, permutations
from math import comb, factorial

import numpy as np

from fermion_oracle import adjoint, commutator, mul, normal_order
from pauli_oracle import apply_paulis, letter_jordan_wigner, letter_masks
from vcsqse.molecule import hamiltonian_from_tensors
from vcsqse.operators import FermionOperator
from vcsqse.qse import _overlap_lr, _symmetrized, operator_to_tensors
from vcsqse.rdm import RdmSet, cumulants_from_rdms, reconstruct_rdms


def _perms_with_parity(k: int):
    out = []
    for perm in permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        out.append((perm, -1.0 if inv & 1 else 1.0))
    return out


def antisymmetrize(t: np.ndarray, k: int) -> np.ndarray:
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
    """Grassmann wedge product of full (m,m)- and (n,n)-index tensors."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m, n = a.ndim // 2, b.ndim // 2
    at = antisymmetrize(a, m)
    bt = antisymmetrize(b, n)
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


def _excitation_terms(m: int):
    """Identity, then a_i^ a_j in row-major (i, j) order: the LR rows."""
    ops = [FermionOperator.identity(m)]
    for i in range(m):
        for j in range(m):
            ops.append(FermionOperator(m, {((i, True), (j, False)): 1.0}))
    return ops


def zc_h_sub(h1, h2, rdms: RdmSet, e_g: float, truncate: bool = False) -> np.ndarray:
    """ZC Hamiltonian matrix <E_a^ [H0, E_b]> + e_g S by symbolic products.

    The overlap S comes from the exact 1- and 2-RDMs of `rdms`; with
    truncate=True the products are contracted with RDMs reconstructed from
    the 1- and 2-cumulants.
    """
    m = rdms.mode_count
    work = reconstruct_rdms(cumulants_from_rdms(rdms), 2) if truncate else rdms
    h_op = hamiltonian_from_tensors(np.asarray(h1, dtype=float),
                                    np.asarray(h2, dtype=float), 0.0)
    rows = _excitation_terms(m)
    s_sub = _overlap_lr(rdms)
    h_sub = np.zeros((len(rows), len(rows)), dtype=complex)
    for b, op in enumerate(rows):
        comm = normal_order(commutator(h_op, op))
        for a, row in enumerate(rows):
            h_sub[a, b] = expectation_from_rdms(normal_order(mul(adjoint(row), comm)), work)
    h_sub += e_g * s_sub
    return 0.5 * (h_sub + h_sub.conj().T)


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


def _g_column(t1: np.ndarray, v: np.ndarray, d1: np.ndarray, d2: np.ndarray,
              d3: np.ndarray) -> np.ndarray:
    """<O>, then <a_j^ a_i O> flattened over (i, j), from D1..D3.

    O = sum t1[p,r] a_p^ a_r + sum v[p,q,r,s] a_p^ a_q^ a_r a_s; leading axes
    of t1 and v index a batch of operators.
    """
    value = (np.einsum("...pr,pr->...", t1, d1)
             + 2.0 * np.einsum("...pqrs,pqsr->...", v, d2))
    rows = (np.einsum("...ir,jr->...ij", t1, d1)
            - 2.0 * np.einsum("...pr,jpri->...ij", t1, d2)
            + 2.0 * np.einsum("...iqrs,jqsr->...ij", v, d2)
            - 2.0 * np.einsum("...pirs,jpsr->...ij", v, d2)
            + 6.0 * np.einsum("...pqrs,jpqsri->...ij", v, d3))
    flat = rows.reshape(rows.shape[:-2] + (-1,))
    return np.concatenate([value[..., None], flat], axis=-1)


def _lr_matrix(t1: np.ndarray, v: np.ndarray, rdms: RdmSet) -> np.ndarray:
    """LR matrix of the Hermitian O = sum t1 a^ a + sum v a^ a^ a a from D1..D4."""
    m = rdms.mode_count
    d1, d2, d3, d4 = (rdms.d(k) for k in range(1, 5))
    eye = np.eye(m)
    four = (-2.0 * np.einsum("ik,pr,jprl->ijkl", eye, t1, d2)
            + np.einsum("ik,jl->ijkl", t1, d1)
            + 2.0 * np.einsum("ir,jkrl->ijkl", t1, d2)
            - 2.0 * np.einsum("pk,jpli->ijkl", t1, d2)
            - 6.0 * np.einsum("pr,jkprli->ijkl", t1, d3)
            + 6.0 * np.einsum("ik,pqrs,jpqsrl->ijkl", eye, v, d3)
            + 2.0 * np.einsum("iqks,jqsl->ijkl", v, d2)
            - 2.0 * np.einsum("iqrk,jqrl->ijkl", v, d2)
            - 6.0 * np.einsum("iqrs,jkqsrl->ijkl", v, d3)
            - 2.0 * np.einsum("piks,jpsl->ijkl", v, d2)
            + 2.0 * np.einsum("pirk,jprl->ijkl", v, d2)
            + 6.0 * np.einsum("pirs,jkpsrl->ijkl", v, d3)
            + 6.0 * np.einsum("pqks,jpqsli->ijkl", v, d3)
            - 6.0 * np.einsum("pqrk,jpqrli->ijkl", v, d3)
            - 24.0 * np.einsum("pqrs,jkpqsrli->ijkl", v, d4))
    out = np.empty((m * m + 1,) * 2, dtype=complex)
    out[:, 0] = _g_column(t1, v, d1, d2, d3)
    # g-row from Hermiticity of O
    out[0, 1:] = np.conj(out[1:, 0])
    out[1:, 1:] = four.reshape(m * m, m * m)
    return out


def _zc_columns(h1: np.ndarray, v: np.ndarray, rdms: RdmSet) -> np.ndarray:
    """<E_a^ [H0, a_k^ a_l]> for every LR row a, one column per (k, l).

    For H0 = sum h1 a^ a + sum v a^ a^ a a each commutator is a one- plus
    two-body operator with index-shifted copies of h1 and v as its tensors.
    """
    m = h1.shape[0]
    eye = np.eye(m)
    t1 = np.einsum("pk,rl->klpr", h1, eye) - np.einsum("pk,lr->klpr", eye, h1)
    w = (np.einsum("rl,pqks->klpqrs", eye, v) + np.einsum("sl,pqrk->klpqrs", eye, v)
         - np.einsum("pk,lqrs->klpqrs", eye, v) - np.einsum("qk,plrs->klpqrs", eye, v))
    cols = _g_column(t1, w, rdms.d(1), rdms.d(2), rdms.d(3))
    return cols.reshape(m * m, m * m + 1).T


def lr_matrices(h1, h2, rdms: RdmSet, core_energy=0.0, symmetry_ops=None):
    """(h_sub, s_sub, symmetry matrices) of build_lr_from_rdms by _lr_matrix."""
    s_sub = _overlap_lr(rdms)
    h_sub = _symmetrized(core_energy * s_sub + _lr_matrix(
        np.asarray(h1, dtype=complex), 0.5 * np.asarray(h2, dtype=complex), rdms))
    sym = {}
    for name, op in (symmetry_ops or {}).items():
        c0, t1, t2 = operator_to_tensors(op)
        sym[name] = _symmetrized(c0 * s_sub + _lr_matrix(t1, 0.5 * t2, rdms))
    return h_sub, s_sub, sym


def za_h_sub(h1, h2, rdms: RdmSet, core_energy=0.0, reconstruct_d3=True):
    """ZA Hamiltonian matrix: _lr_matrix on RDMs rebuilt from low cumulants."""
    rec = reconstruct_rdms(cumulants_from_rdms(rdms), 2 if reconstruct_d3 else 3)
    return lr_matrices(h1, h2, rec, core_energy)[0]


def zc_columns_h_sub(h1, h2, rdms: RdmSet, e_g: float, truncate=False):
    """ZC Hamiltonian matrix from the batched full-tensor _zc_columns."""
    work = reconstruct_rdms(cumulants_from_rdms(rdms), 2) if truncate else rdms
    s_sub = _overlap_lr(rdms)
    h_sub = np.zeros_like(s_sub)
    h_sub[:, 1:] = _zc_columns(np.asarray(h1), 0.5 * np.asarray(h2), work)
    return _symmetrized(h_sub + e_g * s_sub)


def loop_sample_rdms(state, max_k, shots, seed):
    """Packed sampled RDM blocks, one Jordan-Wigner map per (I, J) pair."""
    state = np.asarray(state, dtype=complex)
    m = state.shape[0].bit_length() - 1
    identity = "I" * m
    forms = [[dict(terms) for terms in _ladder_pauli_forms(m, k)] for k in range(1, max_k + 1)]
    words = list(dict.fromkeys(word for order in forms for terms in order for word in terms
                               if word != identity))
    p = np.clip((1.0 + apply_paulis(state, letter_masks(words, m))) / 2.0, 0.0, 1.0)
    ups = np.random.default_rng((seed, 1)).binomial(shots, p)
    estimates = {identity: 1.0, **dict(zip(words, (2 * ups - shots) / shots))}
    blocks = []
    for k, order in enumerate(forms, start=1):
        vals = np.zeros(comb(m, k) ** 2, dtype=complex)
        for pair, terms in enumerate(order):
            total = 0.0 + 0.0j
            for word, coeff in terms.items():
                total += coeff * estimates[word]
            vals[pair] = total / factorial(k)
        blocks.append(vals.reshape(comb(m, k), comb(m, k)))
    return blocks


def _ladder_pauli_forms(m, k):
    """Jordan-Wigner (word, coefficient) pairs of every a_I^ a_J, |I| = |J| = k,
    one iterable per (I, J) over sorted index tuples, row-major."""
    combos = list(combinations(range(m), k))
    for upper in combos:
        for lower in combos:
            seq = (tuple((i, True) for i in upper)
                   + tuple((j, False) for j in reversed(lower)))
            yield letter_jordan_wigner(FermionOperator(m, {seq: 1.0})).terms.items()


def loop_rdm_words(m, max_k):
    """(orders, masks) of rdm._rdm_words, one letter_jordan_wigner call per pair."""
    known = {"I" * m: -1}
    words, orders = [], []
    for k in range(1, max_k + 1):
        pairs, ids, coeffs = [], [], []
        for pair, terms in enumerate(_ladder_pauli_forms(m, k)):
            for word, coeff in terms:
                if word not in known:
                    known[word] = len(words)
                    words.append(word)
                pairs.append(pair)
                ids.append(known[word])
                coeffs.append(coeff)
        orders.append((np.array(pairs, dtype=np.intp), np.array(ids, dtype=np.intp),
                       np.array(coeffs, dtype=complex)))
    return orders, letter_masks(words, m)
