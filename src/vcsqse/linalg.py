"""Dense Hermitian eigensolvers and generalized eigenproblems.

The generalized solver uses canonical orthogonalization so that singular
overlap matrices (linearly dependent expansion vectors) are handled by
discarding null directions of the metric rather than failing.

Dtype follows the data, and this is the one dtype rule of the package:
arrays are promoted by _promoted to np.result_type(a, float), and no route
forces complex128. Real data computes in float64 (a real symmetric matrix is
solved by real LAPACK), and only data with an imaginary part is complex128.
Dense operators and transfer matrices are real wherever their coefficients
are (see operators and channels), so the molecular pipeline is real end to
end: states, subspace builds, RDMs, cumulants and linear-response matrices.
A qubit basis (i^#Y phases) and sampled RDM blocks are complex because
their coefficients are.

One check each for operators and states, sharing one finiteness rule (no
NaN or inf entry), one Hermiticity defect and one symmetrizer:
_checked_hermitian (H, S, stacks of H') rejects an asymmetry above the
relative HERMITICITY_REJECT (of the largest entry, at least 1);
_checked_state, at every entry point that takes a state, requires a unit
norm for a vector, or trace one, Hermiticity and no negative diagonal entry
for a matrix, each within the absolute STATE_TOL. Only compute_rdms (eigh)
and apply_channel (eigvalsh) decompose a state and test it for
semidefiniteness, within STATE_TOL; the sampled routes refuse any |<P>|
above 1 + STATE_TOL.

Solvers whose result is one object per problem (a Spectrum, a VcsSolution,
a projected problem) take stacks: a lone input is a stack of one (_lone).
"""

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

# Relative asymmetry beyond which an operator is rejected instead of symmetrized.
HERMITICITY_REJECT = 1e-8
# Absolute tolerance of every state check and of the callers' semidefinite
# and |<P>| <= 1 tests.
STATE_TOL = 1e-10
DEFAULT_METRIC_CUTOFF = 1e-10
# Entries per row block of a Hermiticity defect, whose temporaries take 40
# bytes an entry: 80 KiB for an array of any size, and one block for a
# matrix up to M = 5 or a stack of up to 8 matrices at M = 4.
_CHECK_ENTRIES = 1 << 11


@dataclass
class Spectrum:
    """Eigenvalues (ascending) and eigenvectors (columns) of a solved problem.

    For generalized problems the eigenvectors are expressed in the original
    basis and are orthonormal under the metric; retained_dim is the number of
    metric directions that survived the cutoff.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    retained_dim: int


def _promoted(a) -> np.ndarray:
    """a as float64 if its data is real (or integer) and complex128 if complex."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, float), copy=False)


class StackError(ValueError):
    """A check failed on the member at `index` of a stack; `reason` says which."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"stack index {index}: {reason}")
        self.index, self.reason = index, reason


def _reject(bad: np.ndarray, reason: str):
    """Raise ValueError if bad, one flag, or a StackError at the first flag
    of one per member of a stack."""
    if bad.any() if bad.ndim else bad:  # a scalar's .any() costs a microsecond
        raise StackError(int(bad.argmax()), reason) if bad.ndim else ValueError(reason)


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    """(mat + mat^dag)/2 of a matrix or each of a stack."""
    return 0.5 * (mat + mat.swapaxes(-1, -2).conj())


def _defect(a: np.ndarray) -> np.ndarray:
    """max |a - a^dag| of a matrix or each of a stack, in row blocks of about
    _CHECK_ENTRIES entries, so a small array is one block and no loop."""
    dim = a.shape[-1]
    step = max(1, _CHECK_ENTRIES * dim // max(a.size, 1))
    if step >= dim:
        return np.abs(a - a.swapaxes(-1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    return reduce(np.maximum, [
        np.abs(a[..., lo:lo + step, :] - a[..., lo:lo + step].swapaxes(-1, -2).conj())
        .max(axis=(-2, -1)) for lo in range(0, dim, step)])


def _finite(measure: np.ndarray, what: str) -> np.ndarray:
    """measure, NaN or inf wherever its array (or stack member) has such an entry, once none is."""
    _reject(~np.isfinite(measure), f"{what} has non-finite entries")
    return measure


def _checked_hermitian(a, name: str) -> np.ndarray:
    """a symmetrized, once square, finite and Hermitian on its own scale; a
    (P, dim, dim) stack is checked one matrix at a time."""
    a = _promoted(a)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    largest = _finite(np.abs(a).max(axis=(-2, -1), initial=0.0), "matrix")
    _reject(_defect(a) / np.maximum(1.0, largest) > HERMITICITY_REJECT,
            f"{name} is not Hermitian within {HERMITICITY_REJECT:g}")
    return _symmetrized(a)


def _checked_state(state, stack: bool = False) -> np.ndarray:
    """state, promoted, once it is a finite unit vector, or a finite trace-one
    Hermitian matrix with no negative diagonal entry, each within STATE_TOL;
    with `stack`, each vector of a (P, dim) array or each matrix of a
    (P, dim, dim) one, a failed check naming the first member that fails it."""
    state = _promoted(state)  # a stack adds one leading axis
    if state.ndim - stack not in (1, 2) or not state.size or state.shape[-1] != state.shape[stack]:
        raise ValueError(f"state of shape {state.shape} is not a nonempty vector or square matrix")
    if state.ndim == stack + 1:
        _finite(np.abs(state).max(axis=-1), "state")
        _reject(np.abs(np.linalg.norm(state, axis=-1) - 1.0) > STATE_TOL,
                "state vector is not normalized to a unit vector")
        return state
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which _finite rejects
        defect = _finite(_defect(state), "state")
    diagonal = np.diagonal(state, axis1=-2, axis2=-1)
    _reject(np.abs(diagonal.sum(axis=-1) - 1.0) > STATE_TOL, "density matrix is not trace-one")
    _reject(defect > STATE_TOL, f"density matrix is not Hermitian within {STATE_TOL:g}")
    _reject(diagonal.real.min(axis=-1) < -STATE_TOL,
            "density matrix has a negative diagonal entry, so it is not positive semidefinite")
    return state


def hermitian_eigensolve(a) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues, or of
    each matrix of a (P, dim, dim) stack by one batched eigh; a failed check
    is then a StackError naming the first failing index."""
    a = _checked_hermitian(a, "input")
    w, v = np.linalg.eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v, retained_dim=a.shape[-1])


# Sorted in Python: numpy's sort kernels page 0.3 MiB more code into each process.
@lru_cache(maxsize=16)
def _sector_layout(key: bytes):
    """Ascending labels and, per sector size, its sectors' positions and states."""
    labels = np.frombuffer(key, dtype=np.int64)
    values = sorted(set(labels.tolist()))
    perm = np.concatenate([np.flatnonzero(labels == n) for n in values])
    groups = {}
    for pos in (np.flatnonzero(labels[perm] == n) for n in values):
        groups.setdefault(pos.size, []).append(pos)
    return labels[perm], [(pos, perm[pos]) for pos in map(np.stack, groups.values())]


def _sector_eigh(a: np.ndarray, labels) -> tuple:
    """Eigendecomposition of a Hermitian matrix that conserves a sector label,
    or of each of a (P, dim, dim) stack sharing the labels.

    Returns the ascending eigenvalues, their eigenvectors as full-length
    columns and the sector of each level (with the stack axis); tied levels
    keep ascending-label order. Sectors of equal size share one batched eigh,
    whole stack included, and 1x1 sectors are read off the diagonal. An entry
    coupling two sectors raises ValueError (a StackError naming its member).
    """
    labels = np.asarray(labels, dtype=np.int64)
    sorted_labels, groups = _sector_layout(labels.tobytes())
    _reject(((a != 0) & (labels[:, None] != labels)).any(axis=(-2, -1)),
            "matrix has nonzero entries between sectors")
    blocks = [a[..., idx[:, :, None], idx[:, None, :]] for _, idx in groups]
    solved = [(b.real[..., 0], np.ones_like(b)) if b.shape[-1] == 1
              else np.linalg.eigh(b) for b in blocks]
    w = np.empty(a.shape[:-1])
    for (pos, _), (bw, _) in zip(groups, solved):
        w[..., pos] = bw
    order = np.array([sorted(range(len(row)), key=row.__getitem__)
                      for row in w.reshape(-1, w.shape[-1]).tolist()]).reshape(w.shape)
    column = np.empty_like(order)  # not argsort: its first call maps 256 KiB of sort code
    np.put_along_axis(column, order, np.arange(order.shape[-1]), axis=-1)
    v = np.zeros(a.shape, dtype=np.result_type(a, float))
    lead = tuple(i[..., None, None, None] for i in np.indices(a.shape[:-2], sparse=True))
    for (pos, idx), (_, bv) in zip(groups, solved):
        v[(*lead, idx[:, :, None], column[..., pos][..., None, :])] = bv
    return np.take_along_axis(w, order, -1), v, sorted_labels[order]


def _by_group(keys, solve_group) -> list:
    """solve_group(idx), a list, for the members idx of each distinct key,
    in member order; a group's StackError names its member. Grouped in
    Python: np.unique imports numpy.ma (11 ms, 1.7 MiB)."""
    out = [None] * len(keys)
    for key in sorted(set(keys)):
        idx = [i for i, k in enumerate(keys) if k == key]
        try:
            for i, result in zip(idx, solve_group(idx)):
                out[i] = result
        except StackError as exc:
            raise StackError(idx[exc.index], exc.reason) from exc
    return out


def _take(stack, idx) -> np.ndarray:
    """Members idx of an array (all of it as a view) or a sequence, as one array."""
    if isinstance(stack, np.ndarray):
        return stack if len(idx) == len(stack) else stack[idx]
    return np.stack([stack[i] for i in idx])


def _expectation(psi, op):
    """Re <psi|op|psi> for each row of the (P, dim) psi; op is one matrix or P."""
    return np.real(psi.conj()[..., None, :] @ op @ psi[..., None])[..., 0, 0]


def _lone(stacked, *arrays, **options):
    """stacked(*arrays, **options) if arrays[0] is a stack of matrices; a lone
    problem runs as a stack of one, each array given a leading axis, for its
    member 0 (a float for an array result), a StackError raised as ValueError(reason)."""
    if np.ndim(arrays[0][0]) > 1:
        return stacked(*arrays, **options)
    try:
        result = stacked(*(np.asarray(a)[None] for a in arrays), **options)
    except StackError as exc:
        raise ValueError(exc.reason) from None
    return result.item(0) if isinstance(result, np.ndarray) else result[0]


def _stacked(h, *members, solve_chunk, limit: int, charge: int = 0) -> list:
    """solve_chunk(start, chunk, solutions so far, *the chunk's items of the
    sequences members) over stacked, promoted chunks of h, a 3-D array or a
    sequence of matrices, each charged `charge` bytes (by default 16 bytes an
    entry, a complex H), of at most limit bytes or one matrix; a chunk's
    StackError names its index in h."""
    step = max(1, limit // (charge or 16 * np.shape(h[0])[-1] ** 2))
    sols = []
    for start in range(0, len(h), step):
        try:  # a chunk of an array is a view; a sequence's chunk is stacked
            sols += solve_chunk(start, _promoted(np.asarray(h[start:start + step])), sols,
                                *(m[start:start + step] for m in members))
        except StackError as exc:
            raise StackError(start + exc.index, exc.reason) from exc
    return sols


def _generalized(h, s, metric_cutoff: float) -> list:
    """generalized_eigensolve of a stack: a batched eigh per size and per retained dimension."""
    if not isinstance(h, np.ndarray) and np.ndim(h[0]) == 2:
        return _by_group([len(m) for m in h], lambda idx: _generalized(
            _take(h, idx), _take(s, idx), metric_cutoff))
    h = _checked_hermitian(h, "H")
    s = _checked_hermitian(s, "S")
    if h.shape != s.shape:
        raise ValueError(f"H and S shapes differ: {h.shape} vs {s.shape}")
    sw, su = np.linalg.eigh(s)
    smax = sw[..., -1]
    _reject(smax <= 0, "metric has no positive eigenvalues (empty subspace)")
    # Directions the cutoff would discard anyway may dip equally far negative
    # (e.g. sampled overlaps); anything below that signals a broken overlap.
    low = sw[..., 0] < -max(HERMITICITY_REJECT, metric_cutoff) * smax
    if low.any():
        _reject(low, f"metric eigenvalue {sw[low.argmax(), 0]:.3e} is "
                "negative beyond tolerance; the overlap computation is broken")
    counts = (sw > metric_cutoff * smax[..., None]).sum(axis=-1)
    _reject(counts == 0, "all metric eigenvalues below cutoff (empty subspace)")
    dim = sw.shape[-1]

    def group(idx):
        """Spectra of the members idx, which all keep their last k directions
        (sw ascends); x is column-major, the layout BLAS rounded one solve in."""
        su_k, k = _take(su, idx), int(counts[idx[0]])
        x = np.ascontiguousarray(su_k.swapaxes(-1, -2)[..., dim - k:, :]).swapaxes(-1, -2)
        x = x / np.sqrt(_take(sw, idx)[..., None, dim - k:])
        w, v = np.linalg.eigh(_symmetrized(x.conj().swapaxes(-1, -2) @ _take(h, idx) @ x))
        return [Spectrum(eigenvalues=wi, eigenvectors=vi, retained_dim=k)
                for wi, vi in zip(w, x @ v)]

    return _by_group(counts.tolist(), group)


def generalized_eigensolve(h, s, metric_cutoff: float = DEFAULT_METRIC_CUTOFF):
    """Solve H c = lambda S c by canonical orthogonalization.

    Eigendecomposes the metric S, drops directions with eigenvalue at or
    below metric_cutoff * max_eig(S), solves the projected Hermitian problem
    and back-transforms. Raises if S has a significantly negative eigenvalue
    (a broken overlap computation) or if every direction is discarded.

    h and s are one pair, for one Spectrum, or equal-length stacks (3-D
    arrays, or sequences of matrices of any sizes) for a list of them, a
    failed check then raising a StackError naming the first member to fail.
    """
    return _lone(_generalized, h, s, metric_cutoff=metric_cutoff)
