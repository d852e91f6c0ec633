"""Quantum subspace expansion around a (possibly mixed) reference state.

Subspace matrices can be assembled two ways: directly as operator traces
against a dense reference state, or purely from stored reduced density
matrices via the linear-response matrix-element formulas. Both routes agree
for consistent inputs and are kept independent so one can check the other.

The direct route never forms a basis operator as a dense matrix. Every
Pauli word of a basis element acts as a signed permutation,
(c P v)[j] = c * i^#Y * (-1)^popcount((j ^ x) & z) * v[j ^ x], with x the
mask of its X/Y letters and z that of its Z/Y letters
(operators.pauli_action). An ExpansionBasis pads those forms once to a slot
stack, src and phase of shape (slots, n_b, 2^M) with slots its largest word
count (operators.stack_actions). A build then applies all elements at once,
one gather per word slot, to the state vector, to rho from the left and to
each weight from the right. A padded slot adds zero, so each element still
sums its words in order and the result equals the per-element loop bit for
bit.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

from .linalg import Spectrum, generalized_eigensolve
from .operators import (FermionOperator, PauliOperator, apply_stacked,
                        jordan_wigner, normal_order, stack_actions)
from .rdm import RdmSet, cumulants_from_rdms, reconstruct_rdms

# Looser than the linalg default: RDM-contracted matrices carry accumulated
# contraction noise in their null directions.
QSE_METRIC_CUTOFF = 1e-8
FERMIONIC_MODE_LIMIT = 8
QUBIT_LIMIT = 12
# Bound on every stack build_subspace_direct holds: the basis's slot stack
# (an index and a complex phase per slot, element and basis state), for a
# density matrix the phases of the right action, and the two action stacks, E_b rho
# and W E_b (n_b * 2^M * 2^M complex each for a density matrix, E_b psi and
# W E_b psi, n_b * 2^M each, for a state vector).
SUBSPACE_BYTE_LIMIT = 1 << 30


@dataclass(frozen=True)
class ExpansionBasis:
    kind: str                       # "fermionic" or "qubit"
    order: int
    operators: tuple                # PauliOperator per element; index 0 = identity
    includes_reference: bool
    labels: tuple = ()

    def __len__(self):
        return len(self.operators)

    @cached_property
    def action_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """operators.stack_actions of the elements, built on first use."""
        return stack_actions(self.operators)


@dataclass
class SubspaceProblem:
    basis: ExpansionBasis | None
    h_sub: np.ndarray
    s_sub: np.ndarray
    symmetry_subs: dict = field(default_factory=dict)
    combo: np.ndarray | None = None  # projected coordinates -> basis coordinates

    @property
    def dim(self) -> int:
        return self.h_sub.shape[0]


def _dedup(ops, labels):
    seen = set()
    out_ops, out_labels = [], []
    for op, label in zip(ops, labels):
        if op.is_zero():
            continue
        key = op.render()
        if key in seen:
            continue
        seen.add(key)
        out_ops.append(op)
        out_labels.append(label)
    return tuple(out_ops), tuple(out_labels)


@lru_cache(maxsize=None)
def fermionic_basis(mode_count: int, order: int,
                    includes_reference: bool = True) -> ExpansionBasis:
    """Excitation products (a_i^ a_j)^order, Jordan-Wigner mapped.

    Order 1 is the linear-response set {a_i^ a_j} over all index pairs; the
    identity is prepended (index 0) when the reference is included. Built
    once per argument set and shared, so the basis is immutable.
    """
    if not 1 <= order <= 2:
        raise ValueError("fermionic expansion order must be 1 or 2")
    if mode_count > FERMIONIC_MODE_LIMIT:
        raise ValueError(f"mode_count {mode_count} exceeds {FERMIONIC_MODE_LIMIT}")
    m = mode_count
    ops, labels = [], []
    if includes_reference:
        ops.append(PauliOperator.identity(m))
        labels.append("g")
    for indices in product(range(m), repeat=2 * order):
        terms = {}
        seq = []
        for f in range(order):
            seq.extend([(indices[2 * f], True), (indices[2 * f + 1], False)])
        terms[tuple(seq)] = 1.0
        fop = FermionOperator(m, terms)
        ops.append(jordan_wigner(normal_order(fop)))
        labels.append(" ".join(f"{i}^ {j}" for i, j in zip(indices[0::2], indices[1::2])))
    ops, labels = _dedup(ops, labels)
    return ExpansionBasis(kind="fermionic", order=order, operators=ops,
                          includes_reference=includes_reference, labels=labels)


@lru_cache(maxsize=None)
def qubit_basis(qubit_count: int, order: int) -> ExpansionBasis:
    """Identity, single Paulis and pairs; built once and shared, immutable."""
    if not 1 <= order <= 2:
        raise ValueError("qubit expansion order must be 1 or 2")
    n = qubit_count
    if n > QUBIT_LIMIT:
        raise ValueError(f"qubit_count {n} exceeds {QUBIT_LIMIT}")
    ops = [PauliOperator.identity(n)]
    labels = ["g"]
    for q in range(n):
        for letter in "XYZ":
            ops.append(PauliOperator.from_letter(letter, q, n))
            labels.append(f"{letter}{q}")
    if order == 2:
        for q1, q2 in combinations(range(n), 2):
            for l1, l2 in product("XYZ", repeat=2):
                word = ["I"] * n
                word[q1], word[q2] = l1, l2
                ops.append(PauliOperator(n, {"".join(word): 1.0}))
                labels.append(f"{l1}{q1} {l2}{q2}")
    ops, labels = _dedup(ops, labels)
    return ExpansionBasis(kind="qubit", order=order, operators=ops,
                          includes_reference=True, labels=labels)


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def build_subspace_direct(basis: ExpansionBasis, h: np.ndarray, rho: np.ndarray,
                          symmetry_ops: dict | None = None) -> SubspaceProblem:
    """Assemble h_sub[a,b] = Tr[E_a^ H E_b rho] and overlaps by operator actions.

    A state vector psi gives Phi = [E_b psi] and each block Phi^ (W Phi). A
    density matrix gives h[a,b] = sum_ij conj(E_a rho)_ij (W E_b)_ij, with
    E_a rho a row action on rho and W E_b a column action on W. Every stack
    is gathered for all elements at once, one word slot at a time
    (operators.apply_stacked on basis.action_stack).
    """
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    dim = h.shape[0]
    if rho.shape not in ((dim,), (dim, dim)):
        raise ValueError("H and rho dimensions differ")
    if basis.operators and 1 << basis.operators[0].qubit_count != dim:
        raise ValueError("basis operator dimension does not match H")
    n_b = len(basis)
    complex_size = np.dtype(complex).itemsize
    slots = max((len(op.terms) for op in basis.operators), default=0)
    phase_stacks = 1 if rho.ndim == 1 else 2
    need = (2 * n_b * rho.size * complex_size + slots * n_b * dim
            * (np.dtype(np.intp).itemsize + phase_stacks * complex_size))
    if need > SUBSPACE_BYTE_LIMIT:
        raise ValueError(f"subspace build needs {need} bytes for {n_b} basis "
                         f"elements, above the limit of {SUBSPACE_BYTE_LIMIT}")
    stack = basis.action_stack
    if rho.ndim == 1:
        phi = np.ascontiguousarray(apply_stacked(stack, rho).T)

        def block(weight):
            return _symmetrized(phi.conj().T @ (weight @ phi))
    else:
        rows = apply_stacked(stack, rho)
        np.conj(rows, out=rows)
        cols = np.empty_like(rows)

        def block(weight):
            apply_stacked(stack, weight, out=cols, right=True)
            return _symmetrized(rows.reshape(n_b, -1) @ cols.reshape(n_b, -1).T)

    s_sub = block(np.eye(dim))
    h_sub = block(h)
    sym = {}
    for name, op in (symmetry_ops or {}).items():
        sym[name] = block(np.asarray(op, dtype=complex))
    return SubspaceProblem(basis=basis, h_sub=h_sub, s_sub=s_sub, symmetry_subs=sym)


def _overlap_lr(rdms: RdmSet) -> np.ndarray:
    m = rdms.mode_count
    d1, d2 = rdms.d(1), rdms.d(2)
    dim = m * m + 1
    s = np.zeros((dim, dim), dtype=complex)
    s[0, 0] = 1.0
    # S^{ij}_g = D1[j, i], rows flattened over (i, j)
    s[1:, 0] = d1.T.reshape(m * m)
    # S^{ij}_{kl} = delta_ik D1[j,l] - 2 D2[j,k,l,i]
    s4 = (np.einsum("ik,jl->ijkl", np.eye(m), d1)
          - 2.0 * np.einsum("jkli->ijkl", d2))
    s[1:, 1:] = s4.reshape(m * m, m * m)
    s[0, 1:] = s[1:, 0].conj()
    return _symmetrized(s)


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


def operator_to_tensors(op: FermionOperator):
    """Split a rank<=2 operator into (core, t1, t2) coefficient tensors.

    The tensors satisfy op = core + sum t1[p,q] a_p^ a_q
    + 1/2 sum t2[p,q,r,s] a_p^ a_q^ a_r a_s after normal ordering.
    """
    m = op.mode_count
    core = 0.0 + 0.0j
    t1 = np.zeros((m, m), dtype=complex)
    t2 = np.zeros((m, m, m, m), dtype=complex)
    for seq, coeff in normal_order(op).terms.items():
        if len(seq) == 0:
            core += coeff
        elif len(seq) == 2:
            t1[seq[0][0], seq[1][0]] += coeff
        elif len(seq) == 4:
            p, q, r, s = (mode for mode, _ in seq)
            half = 0.5 * coeff
            t2[p, q, r, s] += half
            t2[q, p, r, s] -= half
            t2[p, q, s, r] -= half
            t2[q, p, s, r] += half
        else:
            raise ValueError("operator has rank above 2")
    return core, t1, t2


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
    m = rdms.mode_count
    s_sub = _overlap_lr(rdms)
    h_sub = _symmetrized(core_energy * s_sub + _lr_matrix(
        np.asarray(h1, dtype=complex), 0.5 * np.asarray(h2, dtype=complex), rdms))
    sym = {}
    for name, op in (symmetry_ops or {}).items():
        c0, t1, t2 = operator_to_tensors(op)
        sym[name] = _symmetrized(c0 * s_sub + _lr_matrix(t1, 0.5 * t2, rdms))
    basis = fermionic_basis(m, 1)
    return SubspaceProblem(basis=basis, h_sub=h_sub, s_sub=s_sub, symmetry_subs=sym)


def solve_subspace(prob: SubspaceProblem,
                   metric_cutoff: float = QSE_METRIC_CUTOFF) -> Spectrum:
    """Generalized eigensolve of (h_sub, s_sub) with canonical orthogonalization."""
    return generalized_eigensolve(prob.h_sub, prob.s_sub, metric_cutoff)


def subspace_expectation(prob: SubspaceProblem, name: str, vec: np.ndarray) -> float:
    """<O> of a subspace vector, normalized by its metric norm."""
    o = prob.symmetry_subs[name]
    vec = np.asarray(vec, dtype=complex)
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
    combo = c if prob.combo is None else prob.combo @ c
    sym = {k: _symmetrized(c.conj().T @ mat @ c) for k, mat in prob.symmetry_subs.items()}
    return SubspaceProblem(basis=prob.basis,
                           h_sub=_symmetrized(c.conj().T @ prob.h_sub @ c),
                           s_sub=_symmetrized(c.conj().T @ prob.s_sub @ c),
                           symmetry_subs=sym, combo=combo)


def approximate_lr(method: str, h1: np.ndarray, h2: np.ndarray, rdms: RdmSet,
                   e_g: float, truncate: bool = False, core_energy: float = 0.0,
                   reconstruct_d3: bool = True) -> SubspaceProblem:
    """ZC / ZA approximations to the linear-response Hamiltonian matrix.

    ZC uses <(a_i^ a_j)^ [H, a_k^ a_l]> + e_g * S, contracted in closed form
    from the commutators' one- and two-body tensors, which needs at most the
    3-RDM; with truncate=True the 3-RDM is itself
    reconstructed from cumulant truncation (order-3 cumulant zeroed). ZA
    evaluates the plain product expression with the 3- and 4-RDMs
    reconstructed from lower orders (reconstruct_d3=False keeps an exact
    3-RDM and reconstructs only the 4-RDM). The overlap matrix always comes
    from the exact 1- and 2-RDMs.
    """
    method = method.upper()
    if method not in ("ZC", "ZA"):
        raise ValueError("method must be 'ZC' or 'ZA'")
    m = rdms.mode_count
    if method == "ZA":
        zero_above = 2 if reconstruct_d3 else 3
        if rdms.max_k < zero_above:
            raise ValueError(f"ZA needs RDMs through order {zero_above}")
        rec = reconstruct_rdms(cumulants_from_rdms(rdms), zero_above)
        prob = build_lr_from_rdms(h1, h2, rec, core_energy=core_energy)
        # overlap from the exact tensors, not the reconstruction
        prob.s_sub = _overlap_lr(rdms)
        return prob

    # ZC
    if truncate:
        if rdms.max_k < 2:
            raise ValueError("ZC with truncation needs RDMs through order 2")
        work = reconstruct_rdms(cumulants_from_rdms(rdms), 2)
    else:
        if rdms.max_k < 3:
            raise ValueError("ZC needs RDMs through the 3-RDM (or truncate=True)")
        work = rdms
    s_sub = _overlap_lr(rdms)
    h_sub = np.zeros_like(s_sub)
    h_sub[:, 1:] = _zc_columns(np.asarray(h1), 0.5 * np.asarray(h2), work)
    # e_g is the full <H> including any constant, so no separate core term:
    # <E_a^ H E_b> = <E_a^ [H0, E_b]> + e_g S for an eigenstate reference.
    h_sub += e_g * s_sub
    basis = fermionic_basis(m, 1)
    return SubspaceProblem(basis=basis, h_sub=_symmetrized(h_sub), s_sub=s_sub,
                           symmetry_subs={})
