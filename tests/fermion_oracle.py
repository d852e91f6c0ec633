"""Symbolic fermion algebra on FermionOperator terms, for the tests only.

normal_order rewrites every ladder sequence by the anticommutation rules
until creations precede annihilations, creations ascending and
annihilations descending in mode index; add, mul, adjoint and commutator
combine operators term by term without ordering them. These are the
textbook forms the package's closed-form S^2 and the ZC/LR contractions
must reproduce, and they build the symbolic expansion basis of
pauli_oracle. The package itself only stores and evaluates terms.
loop_hamiltonian is molecule.hamiltonian_from_tensors as a loop over every
index, which fixes the Hamiltonian's term order.
"""

from functools import lru_cache

import numpy as np

from vcsqse.operators import PRUNE_TOL, FermionOperator


def _check_compatible(a: FermionOperator, b: FermionOperator):
    if not isinstance(b, FermionOperator):
        raise TypeError("expected a FermionOperator")
    if b.mode_count != a.mode_count:
        raise ValueError(f"mode_count mismatch: {a.mode_count} vs {b.mode_count}")


def add(a: FermionOperator, b) -> FermionOperator:
    """a + b for an operator or scalar b."""
    if np.isscalar(b):
        b = FermionOperator.identity(a.mode_count, b)
    _check_compatible(a, b)
    terms = dict(a.terms)
    for seq, c in b.terms.items():
        terms[seq] = terms.get(seq, 0.0) + c
    return FermionOperator(a.mode_count, terms)


def mul(a: FermionOperator, b) -> FermionOperator:
    """a b for an operator or scalar b: ladder sequences concatenated."""
    if np.isscalar(b):
        return FermionOperator(a.mode_count, {s: c * b for s, c in a.terms.items()})
    _check_compatible(a, b)
    terms = {}
    for s1, c1 in a.terms.items():
        for s2, c2 in b.terms.items():
            terms[s1 + s2] = terms.get(s1 + s2, 0.0) + c1 * c2
    return FermionOperator(a.mode_count, terms)


def commutator(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    """[a, b] = ab - ba."""
    return add(mul(a, b), mul(mul(b, a), -1.0))


def adjoint(op: FermionOperator) -> FermionOperator:
    """Reverse every ladder sequence, flip daggers, conjugate coefficients."""
    terms = {}
    for seq, c in op.terms.items():
        rev = tuple((m, not d) for m, d in reversed(seq))
        terms[rev] = terms.get(rev, 0.0) + np.conj(c)
    return FermionOperator(op.mode_count, terms)


def rank(op: FermionOperator) -> int:
    """max over terms of max(#creations, #annihilations)."""
    best = 0
    for seq in op.terms:
        ncr = sum(1 for _, d in seq if d)
        best = max(best, ncr, len(seq) - ncr)
    return best


@lru_cache(maxsize=1 << 16)
def _normal_order_seq(seq):
    """(coeff, sequence) pairs equal to one ladder sequence, each normal-ordered."""
    out = {}
    stack = [(1.0, list(seq))]
    while stack:
        coeff, ops = stack.pop()
        pos = 0
        dead = False
        while pos < len(ops) - 1:
            (m1, d1), (m2, d2) = ops[pos], ops[pos + 1]
            if not d1 and d2:
                # a_m a_n^dag = delta_mn - a_n^dag a_m
                swapped = ops[:pos] + [(m2, d2), (m1, d1)] + ops[pos + 2:]
                if m1 == m2:
                    stack.append((coeff, ops[:pos] + ops[pos + 2:]))
                stack.append((-coeff, swapped))
                dead = True
                break
            if d1 == d2 and m1 == m2:
                dead = True  # repeated ladder operator annihilates the term
                break
            if (d1 and d2 and m1 > m2) or (not d1 and not d2 and m1 < m2):
                ops[pos], ops[pos + 1] = ops[pos + 1], ops[pos]
                coeff = -coeff
                pos = max(pos - 1, 0)
                continue
            pos += 1
        if not dead:
            key = tuple(ops)
            out[key] = out.get(key, 0.0) + coeff
    return tuple((c, s) for s, c in out.items() if c != 0.0)


def normal_order(op: FermionOperator) -> FermionOperator:
    """Rewrite using anticommutation so creations precede annihilations."""
    terms = {}
    for seq, coeff in op.terms.items():
        for factor, nseq in _normal_order_seq(seq):
            terms[nseq] = terms.get(nseq, 0.0) + coeff * factor
    return FermionOperator(op.mode_count, terms)


def s_squared(mode_count: int) -> FermionOperator:
    """S^2 = S_- S_+ + S_z^2 + S_z, multiplied out and normal-ordered."""
    s_plus = FermionOperator(mode_count, {
        ((2 * p, True), (2 * p + 1, False)): 1.0 for p in range(mode_count // 2)})
    sz = FermionOperator(mode_count, {
        ((p, True), (p, False)): 0.5 if p % 2 == 0 else -0.5 for p in range(mode_count)})
    return normal_order(add(add(mul(adjoint(s_plus), s_plus), mul(sz, sz)), sz))


def loop_hamiltonian(h1, h2, core: float = 0.0) -> FermionOperator:
    """core, then a_p^ a_q for every (p, q) and a_p^ a_q^ a_r a_s for every
    (p, q, r, s) with p != q and r != s in row-major order, each whose
    integral reaches PRUNE_TOL; the two-body coefficients are halved and
    pruned again."""
    m = h1.shape[0]
    terms = {}
    if abs(core) >= PRUNE_TOL:
        terms[()] = complex(core)
    for p in range(m):
        for q in range(m):
            if abs(h1[p, q]) >= PRUNE_TOL:
                terms[((p, True), (q, False))] = complex(h1[p, q])
    for p in range(m):
        for q in range(m):
            if p == q:
                continue
            for r in range(m):
                for s in range(m):
                    if r == s:
                        continue
                    v = h2[p, q, r, s]
                    if abs(v) >= PRUNE_TOL:
                        seq = ((p, True), (q, True), (r, False), (s, False))
                        terms[seq] = terms.get(seq, 0.0) + 0.5 * v
    return FermionOperator(m, terms)
