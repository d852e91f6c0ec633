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
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Relative asymmetry beyond which an input is rejected instead of symmetrized.
HERMITICITY_REJECT = 1e-8
DEFAULT_METRIC_CUTOFF = 1e-10


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


def _as_square(a) -> np.ndarray:
    a = _promoted(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def hermiticity_defect(a) -> float:
    a = np.asarray(a)
    scale = max(1.0, np.abs(a).max()) if a.size else 1.0
    return float(np.abs(a - a.conj().T).max() / scale)


def _checked_hermitian(a, name: str) -> np.ndarray:
    a = _as_square(a)
    if hermiticity_defect(a) > HERMITICITY_REJECT:
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_REJECT:g}")
    return 0.5 * (a + a.conj().T)


def hermitian_eigensolve(a) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues."""
    a = _checked_hermitian(a, "input")
    w, v = np.linalg.eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v, retained_dim=a.shape[0])


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
    """Eigendecomposition of a Hermitian matrix that conserves a sector label.

    Returns the ascending eigenvalues, their eigenvectors as full-length
    columns and the sector of each level; tied levels keep ascending-label
    order. Sectors of equal size share one batched eigh and 1x1 sectors are
    read off the diagonal. Raises ValueError if an entry couples two sectors.
    """
    sorted_labels, groups = _sector_layout(np.asarray(labels, dtype=np.int64).tobytes())
    blocks = [a[idx[:, :, None], idx[:, None, :]] for _, idx in groups]
    if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(a):
        raise ValueError("matrix has nonzero entries between sectors")
    solved = [(b.real[..., 0], np.ones_like(b)) if b.shape[1] == 1
              else np.linalg.eigh(b) for b in blocks]
    w = np.empty(a.shape[0])
    for (pos, _), (bw, _) in zip(groups, solved):
        w[pos] = bw
    levels = w.tolist()
    order = np.array(sorted(range(len(levels)), key=levels.__getitem__))
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    v = np.zeros(a.shape, dtype=np.result_type(a, float))
    for (pos, idx), (_, bv) in zip(groups, solved):
        v[idx[:, :, None], column[pos][:, None, :]] = bv
    return w[order], v, sorted_labels[order]


def generalized_eigensolve(h, s, metric_cutoff: float = DEFAULT_METRIC_CUTOFF) -> Spectrum:
    """Solve H c = lambda S c by canonical orthogonalization.

    Eigendecomposes the metric S, drops directions with eigenvalue at or
    below metric_cutoff * max_eig(S), solves the projected Hermitian problem
    and back-transforms. Raises if S has a significantly negative eigenvalue
    (a broken overlap computation) or if every direction is discarded.
    """
    h = _checked_hermitian(h, "H")
    s = _checked_hermitian(s, "S")
    if h.shape != s.shape:
        raise ValueError(f"H and S shapes differ: {h.shape} vs {s.shape}")
    sw, su = np.linalg.eigh(s)
    smax = sw[-1]
    if smax <= 0:
        raise ValueError("metric has no positive eigenvalues (empty subspace)")
    # Directions the cutoff would discard anyway may dip equally far negative
    # (e.g. sampled overlaps); anything below that signals a broken overlap.
    if sw[0] < -max(HERMITICITY_REJECT, metric_cutoff) * smax:
        raise ValueError(
            f"metric eigenvalue {sw[0]:.3e} is negative beyond tolerance; "
            "the overlap computation is broken")
    keep = sw > metric_cutoff * smax
    if not np.any(keep):
        raise ValueError("all metric eigenvalues below cutoff (empty subspace)")
    x = su[:, keep] / np.sqrt(sw[keep])
    hp = x.conj().T @ h @ x
    hp = 0.5 * (hp + hp.conj().T)
    w, v = np.linalg.eigh(hp)
    return Spectrum(eigenvalues=w, eigenvectors=x @ v, retained_dim=int(keep.sum()))
