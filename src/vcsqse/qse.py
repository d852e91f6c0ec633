"""Quantum subspace expansion around a (possibly mixed) reference state.

Subspace matrices can be assembled two ways: directly as operator traces
against a dense reference state, or purely from stored reduced density
matrices via the linear-response matrix-element formulas. Both routes agree
for consistent inputs and are kept independent so one can check the other.

The linear-response (LR) route (build_lr_from_rdms; ZC and ZA in
approximate_lr) reads D1 and D2 as full tensors, at most M^4 entries, and
each D3 and D4 term as one split contraction of the packed block
(rdm._split_contract), O(C(M,k)^2) products instead of an M^(2k) einsum.

The direct route never forms a basis operator as a dense matrix. Every
element E_b of an ExpansionBasis is one masked signed permutation,
(E_b v)[j] = weight[b, j] * v[src[b, j]] with src[b, j] = j ^ x_b: a
fermionic product of ladder operators by operators._ladder_action, a qubit
Pauli word by operators._signed_permutation. A build is then one gather
per block for all elements at once: E_b psi, E_b rho as a row gather of
rho, and W E_b as a column gather of W, each column j reading column
src[b, j], since src is an involution.

Both routes follow the dtype rule of linalg: the direct build takes
np.result_type of H, the reference, the basis weights (float64 for a
fermionic basis, complex for a qubit one) and the symmetry operators, and
the linear-response route that of its RDMs and integrals.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .linalg import Spectrum, _checked_state, _promoted, _symmetrized, generalized_eigensolve
from .operators import (DENSE_QUBIT_LIMIT, FermionOperator, _ladder_action,
                        _signed_permutation, ladder_text)
from .rdm import (RdmSet, _disconnected, _split_contract, cumulants_from_rdms,
                  reconstruct_rdms)

# Looser than the linalg default: RDM-contracted matrices carry accumulated
# contraction noise in their null directions.
QSE_METRIC_CUTOFF = 1e-8
FERMIONIC_MODE_LIMIT = 8
# Bound on every array build_subspace_direct holds: the basis's src and
# weight, for a density matrix the weights moved to the entries the right
# action reads, and the two action stacks, E_b rho and W E_b (n_b * 2^M * 2^M
# entries each for a density matrix, E_b psi and W E_b psi, n_b * 2^M each,
# for a state vector), charged at the itemsize of the build's dtype: 8 bytes
# for a real build, 16 for a complex one.
SUBSPACE_BYTE_LIMIT = 1 << 30


@dataclass(frozen=True, eq=False)
class ExpansionBasis:
    """Expansion operators E_b as read-only masked signed permutations.

    src and weight have shape (n_b, 2^n): element b sends v to
    weight[b] * v[src[b]], with src[b, j] = j ^ x_b. Element 0 is the
    identity when the reference is included.
    """
    src: np.ndarray
    weight: np.ndarray
    labels: tuple = ()

    def __len__(self):
        return len(self.src)


@dataclass
class SubspaceProblem:
    h_sub: np.ndarray
    s_sub: np.ndarray
    symmetry_subs: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.h_sub.shape[0]


def _distinct(src: np.ndarray, weight: np.ndarray, labels) -> ExpansionBasis:
    """ExpansionBasis of the nonzero elements, each distinct one where it first appears."""
    seen, keep = set(), []
    for b, (x, w) in enumerate(zip(src[:, 0], weight)):
        key = (int(x), w.tobytes())
        if w.any() and key not in seen:
            seen.add(key)
            keep.append(b)
    src, weight = src[keep], weight[keep]
    src.setflags(write=False)
    weight.setflags(write=False)
    return ExpansionBasis(src=src, weight=weight, labels=tuple(labels[b] for b in keep))


@lru_cache(maxsize=None)
def fermionic_basis(mode_count: int, order: int,
                    includes_reference: bool = True) -> ExpansionBasis:
    """Excitation products (a_i^ a_j)^order as ladder-operator permutations.

    Order 1 is the linear-response set {a_i^ a_j} over all index pairs; the
    identity is prepended (index 0) when the reference is included. Products
    that vanish or repeat an earlier element are dropped. Built once per
    argument set and shared, so the basis is immutable.
    """
    if not 1 <= order <= 2:
        raise ValueError("fermionic expansion order must be 1 or 2")
    if mode_count > FERMIONIC_MODE_LIMIT:
        raise ValueError(f"mode_count {mode_count} exceeds {FERMIONIC_MODE_LIMIT}")
    m = mode_count
    seqs, labels = [], []
    if includes_reference:
        seqs.append(())
        labels.append("g")
    for indices in product(range(m), repeat=2 * order):
        pairs = list(zip(indices[0::2], indices[1::2]))
        seqs.append(tuple(op for i, j in pairs for op in ((i, True), (j, False))))
        labels.append(" ".join(f"{i}^ {j}" for i, j in pairs))
    return _distinct(*_ladder_action(seqs, m), labels)


@lru_cache(maxsize=None)
def qubit_basis(qubit_count: int, order: int) -> ExpansionBasis:
    """Identity, single Paulis and pairs; built once and shared, immutable."""
    if not 1 <= order <= 2:
        raise ValueError("qubit expansion order must be 1 or 2")
    n = qubit_count
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"qubit_count {n} exceeds {DENSE_QUBIT_LIMIT}")
    # (x bit, z bit, label) of X, Y and Z on one qubit
    single = ((1, 0, "X"), (1, 1, "Y"), (0, 1, "Z"))
    masks, labels = [(0, 0)], ["g"]
    for q in range(n):
        for x, z, letter in single:
            masks.append((x << q, z << q))
            labels.append(f"{letter}{q}")
    if order == 2:
        for q1, q2 in combinations(range(n), 2):
            for (x1, z1, l1), (x2, z2, l2) in product(single, repeat=2):
                masks.append((x1 << q1 | x2 << q2, z1 << q1 | z2 << q2))
                labels.append(f"{l1}{q1} {l2}{q2}")
    x, z = np.array(masks, dtype=np.int64).T[:, :, None]
    return _distinct(*_signed_permutation(x, z, 1.0, n), labels)


def build_subspace_direct(basis: ExpansionBasis, h: np.ndarray, rho: np.ndarray,
                          symmetry_ops: dict | None = None) -> SubspaceProblem:
    """Assemble h_sub[a,b] = Tr[E_a^ H E_b rho] and overlaps by operator actions.

    A state vector psi gives Phi = [E_b psi] and each block Phi^ (W Phi). A
    density matrix gives h[a,b] = sum_ij conj(E_a rho)_ij (W E_b)_ij, with
    E_a rho = weight[a] * rho[src[a]] a row gather of rho and W E_b a column
    gather of W, column j being weight[b, src[b, j]] * W[:, src[b, j]].
    Every block has dtype np.result_type(h, rho, weight, symmetry ops, float).
    The reference is checked by linalg._checked_state once its shape fits.
    """
    ops = {name: np.asarray(op) for name, op in (symmetry_ops or {}).items()}
    h, rho = np.asarray(h), np.asarray(rho)
    dtype = np.result_type(h, rho, basis.weight, *ops.values(), float)
    dim = h.shape[0]
    if rho.shape not in ((dim,), (dim, dim)):
        raise ValueError("H and rho dimensions differ")
    src, weight = basis.src, basis.weight
    if src.shape[1] != dim:
        raise ValueError("basis operator dimension does not match H")
    _checked_state(rho)
    n_b = len(basis)
    weights = 1 if rho.ndim == 1 else 2
    need = (2 * n_b * rho.size * dtype.itemsize + src.nbytes
            + weights * weight.nbytes)
    if need > SUBSPACE_BYTE_LIMIT:
        raise ValueError(f"subspace build needs {need} bytes for {n_b} basis "
                         f"elements, above the limit of {SUBSPACE_BYTE_LIMIT}")
    # inputs take the build's dtype before any gather, so each stack is
    # gathered in that dtype and never copied to it
    h, rho = h.astype(dtype, copy=False), rho.astype(dtype, copy=False)
    if rho.ndim == 1:
        phi = np.ascontiguousarray((weight * rho[src]).T)

        def block(op):
            return _symmetrized(phi.conj().T @ (op @ phi))
        s_sub = _symmetrized(phi.conj().T @ phi)
    else:
        rows = rho[src]
        np.multiply(weight[:, :, None], rows, out=rows)
        np.conj(rows, out=rows)
        moved = np.take_along_axis(weight, src, axis=1)[:, None, :]
        columns = (np.arange(dim)[:, None], src[:, None, :])

        def block(op):
            cols = op[columns]
            np.multiply(moved, cols, out=cols)
            return _symmetrized(rows.reshape(n_b, -1) @ cols.reshape(n_b, -1).T)
        s_sub = block(np.eye(dim, dtype=dtype))
    h_sub = block(h)
    sym = {name: block(op.astype(dtype, copy=False)) for name, op in ops.items()}
    return SubspaceProblem(h_sub=h_sub, s_sub=s_sub, symmetry_subs=sym)


def _overlap_lr(rdms: RdmSet) -> np.ndarray:
    """S[a, b] = <E_a^ E_b> over rows [g] + [(i, j)] from the packed D1, D2."""
    m = rdms.mode_count
    d1, d2 = rdms.blocks[0], rdms.d(2)
    s = np.empty((m * m + 1,) * 2, dtype=np.result_type(d1, d2))
    s[0, 0] = 1.0
    # S^{ij}_g = D1[j, i], rows flattened over (i, j)
    s[1:, 0] = d1.T.reshape(m * m)
    s[0, 1:] = s[1:, 0].conj()
    # S^{ij}_{kl} = delta_ik D1[j,l] - 2 D2[j,k,l,i]
    s4 = np.einsum("ik,jl->ijkl", np.eye(m), d1) - 2.0 * d2.transpose(3, 0, 1, 2)
    s[1:, 1:] = s4.reshape(m * m, m * m)
    return _symmetrized(s)


def _lr_matrix(t1: np.ndarray, v: np.ndarray, rdms: RdmSet,
               commutator: bool = False) -> np.ndarray:
    """<E_a^ O E_b>, or <E_a^ [O, E_b]> with commutator=True, over the LR rows
    of O = sum t1[p,r] a_p^ a_r + sum v[p,q,r,s] a_p^ a_q^ a_r a_s.

    D1 and D2 enter as full tensors, D3 and D4 only through split
    contractions of their packed blocks. The commutator form needs no D4 and
    leaves the g-column zero.
    """
    m = rdms.mode_count
    d1, d2, p3 = rdms.blocks[0], rdms.d(2), rdms.blocks[2]
    # only the part of v antisymmetric in each index pair enters O
    v = v - v.transpose(1, 0, 2, 3)
    v = 0.25 * (v - v.transpose(0, 1, 3, 2))
    vx = v.transpose(0, 1, 3, 2)
    four_d = (m,) * 4
    # u1[k,j,l,i] = sum v[p,q,k,s] D3[j,p,q,s,l,i] and u2[a,j,k,b] =
    # sum v[a,q,r,s] D3[j,k,q,s,r,b]; each summed pair counts both its orders
    u1 = 2.0 * _split_contract(p3, v.transpose(2, 0, 1, 3), m, 3, 2, 1).reshape(four_d)
    u2 = 2.0 * _split_contract(p3, vx, m, 3, 1, 2).reshape(four_d)
    # gl[i,j] = <a_j^ a_i O> without its D3 term
    gl = t1 @ d1.T + 4.0 * vx.reshape(m, -1) @ d2.reshape(m, -1).T
    y = 2.0 * np.einsum("ar,jkrb->ajkb", t1, d2) - 12.0 * u2
    # sum v[i,q,k,s] D2[j,q,s,l] at [i,k,j,l]
    vd2 = (v.transpose(0, 2, 1, 3).reshape(m * m, -1)
           @ d2.transpose(1, 2, 0, 3).reshape(m * m, -1)).reshape(four_d)
    four = (np.einsum("ik,jl->ijkl", t1, d1) - 2.0 * np.einsum("pk,jpli->ijkl", t1, d2)
            + 8.0 * vd2.transpose(0, 2, 1, 3) + 12.0 * u1.transpose(3, 1, 0, 2))
    out = np.zeros((m * m + 1,) * 2, dtype=np.result_type(t1, v, *rdms.blocks))
    if commutator:
        # sum v[i,l,r,s] D2[j,k,s,r] at [i,l,j,k]
        vrs = (vx.reshape(m * m, -1) @ d2.reshape(m * m, -1).T).reshape(four_d)
        four += (y.transpose(3, 1, 2, 0) - np.einsum("ik,jl->ijkl", np.eye(m), gl.T)
                 - 4.0 * vrs.transpose(0, 2, 3, 1))
        # <[O, a_k^ a_l]> at g-row column (k, l)
        value = t1.T @ d1 - gl.T + 4.0 * vx.reshape(-1, m).T @ d2.reshape(-1, m)
        out[0, 1:] = value.reshape(m * m)
    else:
        # c[j,l] = -2 sum t1[p,r] D2[j,p,r,l] + 6 sum v[p,q,r,s] D3[j,p,q,s,r,l]
        c = (-2.0 * np.einsum("pr,jprl->jl", t1, d2)
             + 24.0 * _split_contract(p3, vx, m, 3, 2, 2))
        # far[j,k,l,i] = -6 sum t1[p,r] D3[j,k,p,r,l,i]
        #                - 24 sum v[p,q,r,s] D4[j,k,p,q,s,r,l,i]
        far = (-6.0 * _split_contract(p3, t1, m, 3, 1, 1)
               - 96.0 * _split_contract(rdms.blocks[3], vx, m, 4, 2, 2)).reshape(four_d)
        four += np.einsum("ik,jl->ijkl", np.eye(m), c) + y + far.transpose(3, 0, 1, 2)
        out[0, 0] = np.einsum("pr,pr->", t1, d1) + 2.0 * np.einsum("pqsr,pqsr->", vx, d2)
        # g-column <a_j^ a_i O> flattened over (i, j); g-row from Hermiticity
        out[1:, 0] = (gl + c.T).reshape(m * m)
        out[0, 1:] = np.conj(out[1:, 0])
    out[1:, 1:] = four.reshape(m * m, m * m)
    return out


def operator_to_tensors(op: FermionOperator):
    """Split a normal-ordered rank<=2 operator into (core, t1, t2) tensors.

    Every term must be k <= 2 creations followed by k annihilations; any
    other term raises ValueError. The tensors satisfy op = core
    + sum t1[p,q] a_p^ a_q + 1/2 sum t2[p,q,r,s] a_p^ a_q^ a_r a_s exactly,
    and are real if no coefficient has an imaginary part, else complex. One
    np.add.at per tensor reads op.ladder and op.coeffs, so each entry sums its
    terms in term order, a two-body term's four antisymmetric entries in turn.
    """
    m = op.mode_count
    coeffs = op.coeffs if op.coeffs.imag.any() else op.coeffs.real
    mode, dagger, used = op.ladder.transpose(2, 0, 1)
    length = used.sum(axis=1)
    ok = (length % 2 == 0) & (length <= 4) & (
        dagger == (np.arange(dagger.shape[1]) < length[:, None] // 2)).all(axis=1)
    if not ok.all():
        bad = op.ladder[np.argmin(ok)].tolist()
        raise ValueError(f"term [{ladder_text((p, d) for p, d, u in bad if u)}] is not k <= 2 "
                         "creations followed by k annihilations")
    t1, t2 = np.zeros((m,) * 2, dtype=coeffs.dtype), np.zeros((m,) * 4, dtype=coeffs.dtype)
    # (2 or 4, terms) index rows, also from a narrower ladder that has no such term
    np.add.at(t1, tuple(mode[length == 2, :2].T.reshape(2, -1)), coeffs[length == 2])
    p, q, r, s = mode[length == 4].T.reshape(4, -1)
    half = 0.5 * coeffs[length == 4]
    entries = np.array([(p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r)])
    np.add.at(t2, tuple(entries.transpose(1, 2, 0).reshape(4, -1)),
              np.stack([half, -half, -half, half], axis=1).ravel())
    return sum(coeffs[length == 0].tolist(), 0.0), t1, t2


def build_lr_from_rdms(h1: np.ndarray, h2: np.ndarray, rdms: RdmSet,
                       core_energy: float = 0.0,
                       symmetry_ops: dict | None = None) -> SubspaceProblem:
    """Linear-response matrices contracted from stored 1..4-RDMs.

    h1/h2 follow the Hamiltonian assembly convention (the two-body part
    enters as 1/2 sum h2 a^ a^ a a). Rows are ordered [g] + [(i, j) pairs],
    matching fermionic_basis(order=1).
    """
    if rdms.max_k < 4:
        raise ValueError("the RDM route requires tensors through the 4-RDM")
    return _lr_problem(h1, h2, rdms, _overlap_lr(rdms), core_energy, symmetry_ops)


def _lr_problem(h1, h2, rdms: RdmSet, s_sub: np.ndarray, shift: float,
                symmetry_ops: dict | None, commutator: bool = False) -> SubspaceProblem:
    """LR (or commutator-form) matrices from rdms, shifted by shift * s_sub."""
    h_sub = _symmetrized(shift * s_sub + _lr_matrix(
        _promoted(h1), 0.5 * _promoted(h2), rdms, commutator))
    sym = {}
    for name, op in (symmetry_ops or {}).items():
        c0, t1, t2 = operator_to_tensors(op)
        sym[name] = _symmetrized(c0 * s_sub + _lr_matrix(t1, 0.5 * t2, rdms))
    return SubspaceProblem(h_sub=h_sub, s_sub=s_sub, symmetry_subs=sym)


def solve_subspace(prob: SubspaceProblem,
                   metric_cutoff: float = QSE_METRIC_CUTOFF) -> Spectrum:
    """Generalized eigensolve of (h_sub, s_sub) with canonical orthogonalization."""
    return generalized_eigensolve(prob.h_sub, prob.s_sub, metric_cutoff)


def subspace_expectation(prob: SubspaceProblem, name: str, vec: np.ndarray) -> float:
    """<O> of a subspace vector, normalized by its metric norm."""
    o = prob.symmetry_subs[name]
    vec = _promoted(vec)
    norm = np.real(vec.conj() @ prob.s_sub @ vec)
    return float(np.real(vec.conj() @ o @ vec) / norm)


def project_symmetry(prob: SubspaceProblem, name: str, target: float,
                     window: float,
                     metric_cutoff: float = QSE_METRIC_CUTOFF) -> SubspaceProblem:
    """Restrict the problem to the span where <O> lies within window of target.

    Solves the generalized eigenproblem of (O_sub, s_sub), keeps eigenvectors
    with eigenvalue in [target - window, target + window], and congruence-
    transforms every stored matrix into that span.
    """
    if name not in prob.symmetry_subs:
        raise KeyError(f"no symmetry matrix named {name!r} in this problem")
    spec = generalized_eigensolve(prob.symmetry_subs[name], prob.s_sub, metric_cutoff)
    keep = np.abs(spec.eigenvalues - target) <= window
    if not np.any(keep):
        raise ValueError(f"no subspace states with <{name}> within {window} of {target}")
    c = spec.eigenvectors[:, keep]
    sym = {k: _symmetrized(c.conj().T @ mat @ c) for k, mat in prob.symmetry_subs.items()}
    return SubspaceProblem(h_sub=_symmetrized(c.conj().T @ prob.h_sub @ c),
                           s_sub=_symmetrized(c.conj().T @ prob.s_sub @ c),
                           symmetry_subs=sym)


def approximate_lr(method: str, h1: np.ndarray, h2: np.ndarray, rdms: RdmSet,
                   e_g: float, truncate: bool = False, core_energy: float = 0.0,
                   reconstruct_d3: bool = True) -> SubspaceProblem:
    """ZC / ZA approximations to the linear-response Hamiltonian matrix.

    ZC uses <(a_i^ a_j)^ [H, a_k^ a_l]> + e_g * S in closed form, which needs
    at most the 3-RDM; truncate=True rebuilds that from the 1- and 2-cumulants.
    ZA evaluates the plain LR expression with the 3- and 4-RDMs rebuilt from
    lower cumulants (reconstruct_d3=False keeps the exact 3-RDM). The overlap,
    and with it ZA's core shift, always comes from the exact 1- and 2-RDMs.
    """
    method = method.upper()
    if method not in ("ZC", "ZA"):
        raise ValueError("method must be 'ZC' or 'ZA'")
    if method == "ZA":
        zero_above = 2 if reconstruct_d3 else 3
        if rdms.max_k < zero_above:
            raise ValueError(f"ZA needs RDMs through order {zero_above}")
        # overlap and core shift from the exact D1, D2; cumulants only as far as kept
        kept = RdmSet(mode_count=rdms.mode_count, blocks=rdms.blocks[:zero_above])
        work, shift = reconstruct_rdms(cumulants_from_rdms(kept), zero_above), core_energy
    else:
        if rdms.max_k < (2 if truncate else 3):
            raise ValueError("ZC with truncation needs RDMs through order 2" if truncate
                             else "ZC needs RDMs through the 3-RDM (or truncate=True)")
        work, m = rdms, rdms.mode_count
        if truncate:  # D1..D3 with C3 = 0; the commutator form reads no D4
            c = cumulants_from_rdms(RdmSet(mode_count=m, blocks=rdms.blocks[:2])).blocks
            work = RdmSet(mode_count=m, blocks=(c[0], c[1] + _disconnected(c, 2, m),
                                                _disconnected(c, 3, m)))
        # e_g is the full <H> including any constant, so no separate core term:
        # <E_a^ H E_b> = <E_a^ [H0, E_b]> + e_g S for an eigenstate reference.
        shift = e_g
    return _lr_problem(h1, h2, work, _overlap_lr(rdms), shift, None,
                       commutator=method == "ZC")
