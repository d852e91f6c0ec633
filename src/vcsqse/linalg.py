"""Dense Hermitian eigensolvers and generalized eigenproblems.

The generalized solver uses canonical orthogonalization so that singular
overlap matrices (linearly dependent expansion vectors) are handled by
discarding null directions of the metric rather than failing.
"""

from dataclasses import dataclass

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


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
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
