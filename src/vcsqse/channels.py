"""Kraus-operator noise channels on registers of identical factors.

A KrausChannel holds one Kraus set {K} on a d-level factor and the number n
of identical tensor factors it acts on, so its dimension is d^n. Only the
constructor checks a set (on one factor), once, where the set is written;
lift_to_register shares that channel's read-only arrays on n qubits, and a
composite channel writes out its product set instead of composing. The
|K|^n product operators of the register are never formed. The channel
instead holds the set's d^2 x d^2 transfer matrix S = sum_K K (x) conj(K),
which maps the row-major pair (i, j) of a factor's row and column index as
vec(K X K^dag) = S vec(X). The private kernel reshapes a d^n x d^n matrix
so that each factor's row and column index pair is one axis of length d^2
and multiplies it by S, one factor after another: one matrix product per
factor, whatever |K|. apply_channel uses S for rho -> sum K rho K^dag, and
vcs.transform_hamiltonian uses S^dag, the transfer matrix of the adjoint
set, for H -> sum K^dag H K.

S holds d^4 entries, 64 GiB as complex128 for a one-factor 8-qubit set
(d = 256). The constructor refuses a set whose transfer matrix would exceed
TRANSFER_BYTE_LIMIT before it allocates anything.

S is stored as float64 when the summed K (x) conj(K) has exactly zero
imaginary part, as for all three shipped channels (Y (x) conj(Y) is real),
and as complex128 otherwise. apply_channel and vcs.transform_hamiltonian
promote their input to np.result_type(x, float), so a real state or
Hamiltonian under a real S stays float64 and complex data stays complex.

Single-qubit channels are parameterized by the dimensionless ratios
tp_over_t1 and tp_over_t2 (state-preparation time over decay and coherence
times). The composite amplitude+phase channel is built so its action on a
qubit is exactly

    [[rho00 + (1 - e^{-Tp/T1}) rho11,  e^{-Tp/T2} rho01],
     [e^{-Tp/T2} rho10,                e^{-Tp/T1} rho11]]

which requires the pure-dephasing rate 1/T2 - 1/(2 T1) to be non-negative
(T2 <= 2 T1); unphysical ratio pairs are rejected. The depolarizing time
constant is tied to tp_over_t2 so a single ratio controls each channel.
"""

from copy import copy
from dataclasses import dataclass
from math import exp, isqrt, sqrt

import numpy as np

from .linalg import _promoted

COMPLETENESS_TOL = 1e-12
# Bound on a channel's transfer matrix, d^4 entries charged at the complex
# itemsize, since S is summed as complex before a real one is narrowed to
# float64: 64 MiB admits every explicit set on up to 5 qubits (d <= 32);
# d = 256 would need 64 GiB.
TRANSFER_BYTE_LIMIT = 1 << 26

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

CHANNEL_KINDS = ("dephasing", "amplitude_phase", "depolarizing")
# (tp_over_t1, tp_over_t2) wherever a channel is named without its ratios.
DEFAULT_RATIOS = (0.05, 0.05)


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    tp_over_t1: float = DEFAULT_RATIOS[0]
    tp_over_t2: float = DEFAULT_RATIOS[1]

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        for name in ("tp_over_t1", "tp_over_t2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative")


class KrausChannel:
    """CPTP map: one completeness-checked Kraus set on each of `factors`
    identical tensor factors, with the set's transfer matrix. The constructor
    checks and copies a set on one factor; lift_to_register shares it."""

    def __init__(self, kraus_ops, label: str = ""):
        ops = [np.asarray(k) for k in kraus_ops]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError("all Kraus operators must be square with equal dims")
        need = dim ** 4 * np.dtype(complex).itemsize
        if need > TRANSFER_BYTE_LIMIT:
            raise ValueError(f"the transfer matrix of a {dim}-level Kraus set needs "
                             f"{need} bytes, above the limit of {TRANSFER_BYTE_LIMIT}")
        # complex copies only once the set's size is accepted
        ops = tuple(np.array(k, dtype=complex) for k in ops)
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - np.eye(dim)).max() > COMPLETENESS_TOL:
            raise ValueError("Kraus completeness sum K^dag K = I violated")
        # row (i, j) and column (k, l) of the factor's index pairs
        transfer = sum(np.kron(k, k.conj()) for k in ops)
        if not transfer.imag.any():
            transfer = transfer.real.copy()
        for arr in (*ops, transfer):
            arr.setflags(write=False)
        self.kraus_ops = ops
        self.label = label
        self.factors = 1
        self.dim = dim
        self.transfer = transfer

    def __repr__(self):
        return (f"KrausChannel({self.label or 'unnamed'}, dim={self.dim}, "
                f"{len(self.kraus_ops)} ops x {self.factors} factors)")


def _dephasing(p_tilde: float) -> list:
    return [sqrt(1.0 - p_tilde / 2.0) * _I2, sqrt(p_tilde / 2.0) * _Z]


def single_qubit_channel(spec: ChannelSpec) -> KrausChannel:
    """Kraus operators for one qubit per the channel's closed form."""
    r1, r2 = spec.tp_over_t1, spec.tp_over_t2
    if spec.kind == "dephasing":
        return KrausChannel(_dephasing(1.0 - exp(-r2)), label="dephasing")
    if spec.kind == "depolarizing":
        p = 1.0 - exp(-r2)
        return KrausChannel(
            [sqrt(1.0 - p) * _I2, sqrt(p / 3.0) * _X, sqrt(p / 3.0) * _Y,
             sqrt(p / 3.0) * _Z], label="depolarizing")
    # amplitude_phase: amplitude damping, then dephasing at the pure-dephasing
    # rate 1/T2 - 1/(2 T1) so the composite coherence decay is exactly e^{-Tp/T2}.
    phi = r2 - 0.5 * r1
    if phi < -1e-12:
        raise ValueError(
            "amplitude_phase needs tp_over_t2 >= tp_over_t1 / 2 (i.e. T2 <= 2 T1); "
            f"got tp_over_t1={r1}, tp_over_t2={r2}")
    p = 1.0 - exp(-r1)
    damping = [np.array([[1.0, 0.0], [0.0, sqrt(1.0 - p)]], dtype=complex),
               np.array([[0.0, sqrt(p)], [0.0, 0.0]], dtype=complex)]
    dephasing = _dephasing(1.0 - exp(-max(phi, 0.0)))
    return KrausChannel([kb @ ka for ka in damping for kb in dephasing],
                        label="amplitude_phase")


def lift_to_register(per_qubit: KrausChannel, n: int) -> KrausChannel:
    """The single-qubit channel on each of n qubits independently.

    A shallow copy that records the factor count and shares the checked
    Kraus set and transfer matrix; no register-sized operator is built.
    """
    if per_qubit.dim != 2:
        raise ValueError("lift_to_register expects a single-qubit channel")
    if n < 1:
        raise ValueError(f"register size {n} must be at least 1")
    lifted = copy(per_qubit)
    lifted.factors, lifted.dim, lifted.label = n, 2 ** n, f"{per_qubit.label}^x{n}"
    return lifted


def _transfer_sweep(transfer: np.ndarray, mat: np.ndarray, factors: int) -> np.ndarray:
    """vec(X) -> S vec(X) on each of `factors` tensor factors in turn, for a
    matrix X or each X of a (P, dim, dim) stack.

    Factor q is digit q of the index in base d: the row index splits as
    (outer, d, inner) with inner = d^q, and so does the column index. The
    factor's row and column digits move next to each other as one axis of
    length d^2, which S multiplies, and move back. A stack axis rides in the
    columns S multiplies: one matrix product per factor for the whole stack.
    """
    d = isqrt(transfer.shape[0])
    dim = mat.shape[-1]
    p = mat.size // (dim * dim)
    out = mat
    for q in range(factors):
        outer, inner = d ** (factors - q - 1), d ** q
        split = out.reshape(p, outer, d, inner * outer, d, inner)
        pairs = split.transpose(2, 4, 0, 1, 3, 5).reshape(d * d, -1)
        mixed = (transfer @ pairs).reshape(d, d, p, outer, inner * outer, inner)
        out = mixed.transpose(2, 3, 0, 4, 1, 5).reshape(p, dim, dim)
    return out.reshape(mat.shape)


def _check_density(rho):
    adjoint = rho.swapaxes(-1, -2).conj()
    if np.abs(rho - adjoint).max() > 1e-10:
        raise ValueError("state is not Hermitian")
    if np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max() > 1e-10:
        raise ValueError("state is not trace-one")
    if np.linalg.eigvalsh(0.5 * (rho + adjoint))[..., 0].min() < -1e-10:
        raise ValueError("state is not positive semidefinite")


def apply_channel(ch: KrausChannel, rho: np.ndarray, check: bool = True) -> np.ndarray:
    """rho -> sum_i K_i rho K_i^dag, for one state or each of a (P, dim, dim) stack."""
    rho = _promoted(rho)
    if rho.shape[-2:] != (ch.dim, ch.dim):
        raise ValueError(f"state dim {rho.shape} does not match channel dim {ch.dim}")
    if check:
        _check_density(rho)
    return _transfer_sweep(ch.transfer, rho, ch.factors)


def channel_spec_tokens(spec: ChannelSpec) -> dict:
    """Flat key/value form used by the experiment config files."""
    short = {"dephasing": "dephasing", "amplitude_phase": "ap", "depolarizing": "depol"}
    return {"channel": short[spec.kind], "tp_over_t1": spec.tp_over_t1,
            "tp_over_t2": spec.tp_over_t2}


def channel_kind_from_token(token: str) -> str:
    aliases = {"dephasing": "dephasing", "ph": "dephasing",
               "ap": "amplitude_phase", "amplitude_phase": "amplitude_phase",
               "depol": "depolarizing", "depolarizing": "depolarizing"}
    if token not in aliases:
        raise ValueError(f"unknown channel token {token!r}")
    return aliases[token]
