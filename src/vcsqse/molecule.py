"""FCIDUMP ingestion and second-quantized Hamiltonian assembly.

Integrals are restricted (both spins share the spatial orbitals) and stored
in chemist notation: two_body[p, q, r, s] = (pq|rs) with the full 8-fold
permutation symmetry. The assembled Hamiltonian uses the convention

    H = core + sum_pq h_pq a_p^ a_q + 1/2 sum_pqrs h_pqrs a_p^ a_q^ a_r a_s

over spin orbitals, where the two-body coefficient couples electron 1 on the
(p, s) pair and electron 2 on the (q, r) pair, i.e. h_pqrs = (PS|QR) times
spin deltas on (p,s) and (q,r).
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .operators import DENSE_QUBIT_LIMIT, FermionOperator, PRUNE_TOL

_SYM_TOL = 1e-12


class FcidumpError(ValueError):
    """Malformed FCIDUMP content, with a line number where sensible."""


@dataclass
class MolecularIntegrals:
    norb: int
    nelec: int
    ms2: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        self.one_body = np.asarray(self.one_body, dtype=float)
        self.two_body = np.asarray(self.two_body, dtype=float)
        n = self.norb
        if self.one_body.shape != (n, n):
            raise ValueError(f"one_body must be {n}x{n}")
        if self.two_body.shape != (n, n, n, n):
            raise ValueError(f"two_body must be rank-4 with dim {n}")
        if np.abs(self.one_body - self.one_body.T).max() > _SYM_TOL:
            raise ValueError("one_body integrals are not symmetric")
        v = self.two_body
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            if np.abs(v - v.transpose(perm)).max() > _SYM_TOL:
                raise ValueError("two_body integrals break 8-fold symmetry")


@dataclass
class SweepPoint:
    bond_length: float
    integrals: MolecularIntegrals
    label: str = ""

    def __post_init__(self):
        if self.bond_length <= 0:
            raise ValueError("bond_length must be positive")


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP text: &FCI namelist header plus `value i j k l` records."""
    lines = text.splitlines()
    header_lines = []
    body_start = None
    for ln, line in enumerate(lines):
        stripped = line.strip()
        header_lines.append(stripped)
        if stripped.upper().endswith("&END") or stripped.endswith("/"):
            body_start = ln + 1
            break
    if body_start is None:
        raise FcidumpError("no &END (or /) terminating the namelist header")

    header = " ".join(header_lines)
    if not header.upper().lstrip().startswith("&FCI"):
        raise FcidumpError("header does not start with &FCI")
    header = re.sub(r"&END\s*$|/\s*$", "", header[header.index("&") + 4:], flags=re.I)
    keys = {}
    current = None
    for token in header.replace(",", " , ").split():
        if token == ",":
            continue
        if "=" in token:
            name, _, val = token.partition("=")
            current = name.strip().upper()
            keys[current] = [val.strip()] if val.strip() else []
        elif current is not None:
            keys[current].append(token)
    for required in ("NORB", "NELEC", "MS2"):
        if required not in keys or not keys[required]:
            raise FcidumpError(f"missing header key {required}")
    try:
        norb = int(keys["NORB"][0])
        nelec = int(keys["NELEC"][0])
        ms2 = int(keys["MS2"][0])
    except ValueError as exc:
        raise FcidumpError(f"non-integer header value: {exc}") from None
    if norb < 1:
        raise FcidumpError(f"NORB={norb}: a system needs at least one orbital")
    if not 0 <= nelec <= 2 * norb:
        raise FcidumpError(f"NELEC={nelec} outside 0..{2 * norb} for NORB={norb}")
    n_alpha, odd = divmod(nelec + ms2, 2)
    if odd or not 0 <= n_alpha <= norb or not 0 <= nelec - n_alpha <= norb:
        raise FcidumpError(f"NELEC={nelec} and MS2={ms2} give no alpha and beta "
                           f"occupations within NORB={norb}")
    if 2 * norb > DENSE_QUBIT_LIMIT:  # reject before allocating the integrals
        raise FcidumpError(f"NORB={norb} gives {2 * norb} spin orbitals, above the "
                           f"dense limit of {DENSE_QUBIT_LIMIT}")

    core = 0.0
    h1 = np.zeros((norb, norb))
    h2 = np.zeros((norb, norb, norb, norb))
    for ln in range(body_start, len(lines)):
        stripped = lines[ln].strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 5:
            raise FcidumpError(f"line {ln + 1}: expected `value i j k l`")
        try:
            value = float(fields[0])
            i, j, k, l = (int(f) for f in fields[1:])
        except ValueError:
            raise FcidumpError(f"line {ln + 1}: malformed numeric field") from None
        if not np.isfinite(value):
            raise FcidumpError(f"line {ln + 1}: value {fields[0]} is not finite")
        for idx in (i, j, k, l):
            if not 0 <= idx <= norb:
                raise FcidumpError(f"line {ln + 1}: index {idx} outside [0, {norb}]")
        if i == j == k == l == 0:
            core = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"line {ln + 1}: one-body record with a zero index")
            h1[i - 1, j - 1] = value
            h1[j - 1, i - 1] = value
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"line {ln + 1}: mixed zero/nonzero index pattern")
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                               (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
                h2[a, b, c, d] = value
    return MolecularIntegrals(norb=norb, nelec=nelec, ms2=ms2, core_energy=core,
                              one_body=h1, two_body=h2)


def spin_orbital_tensors(ints: MolecularIntegrals):
    """Expand spatial integrals to spin-orbital tensors (h1, h2, core).

    Mode 2p is orbital p alpha, mode 2p+1 beta. The returned h2 satisfies
    H = core + sum h1[p,q] a_p^ a_q + 1/2 sum h2[p,q,r,s] a_p^ a_q^ a_r a_s.
    """
    n = ints.norb
    m = 2 * n
    h1 = np.zeros((m, m))
    h1[0::2, 0::2] = ints.one_body
    h1[1::2, 1::2] = ints.one_body
    h2 = np.zeros((m, m, m, m))
    # h2[p,q,r,s] = (PS|QR) delta(sp,ss) delta(sq,sr)
    block = np.einsum("PSQR->PQRS", ints.two_body)
    for sp in (0, 1):
        for sq in (0, 1):
            h2[sp::2, sq::2, sq::2, sp::2] = block
    return h1, h2, ints.core_energy


def hamiltonian_from_tensors(h1, h2, core: float = 0.0) -> FermionOperator:
    """Second-quantized operator for spin-orbital tensors h1 (m, m), h2
    (m, m, m, m) and core, written straight into its ladder and coeffs
    arrays: core, then a_p^ a_q and a_p^ a_q^ a_r a_s (p != q, r != s, h2
    halved) in row-major order, each kept if its coefficient reaches PRUNE_TOL."""
    m = np.shape(h1)[0] if np.ndim(h1) else 0
    if np.shape(h1) != (m, m) or np.shape(h2) != (m,) * 4:
        raise ValueError(f"h1 of shape {np.shape(h1)} and h2 of shape {np.shape(h2)} "
                         "are not (m, m) and (m, m, m, m)")
    if not (np.isfinite(core) and np.isfinite(h1).all() and np.isfinite(h2).all()):
        raise ValueError("non-finite integral in (h1, h2, core)")
    half = 0.5 * h2
    distinct = np.arange(m)[:, None] != np.arange(m)
    keep1 = np.abs(h1) >= PRUNE_TOL
    keep2 = (np.abs(half) >= PRUNE_TOL) & distinct[:, :, None, None] & distinct
    n0, n1, n2 = int(abs(core) >= PRUNE_TOL), np.count_nonzero(keep1), np.count_nonzero(keep2)
    ladder = np.zeros((n0 + n1 + n2, 4, 3), dtype=np.int64)
    # (dagger, used) per slot of a_p^ a_q, then of a_p^ a_q^ a_r a_s
    ladder[n0:n0 + n1, :, 1:] = [[1, 1], [0, 1], [0, 0], [0, 0]]
    ladder[n0 + n1:, :, 1:] = [[1, 1], [1, 1], [0, 1], [0, 1]]
    ladder[n0:n0 + n1, :2, 0], ladder[n0 + n1:, :, 0] = np.argwhere(keep1), np.argwhere(keep2)
    coeffs = np.concatenate([[core] * n0, h1[keep1], half[keep2]]).astype(complex)
    return FermionOperator.__new__(FermionOperator)._set(  # as many slots as the longest term
        m, ladder[:, :4 if n2 else 2 if n1 else 0], coeffs)


def assemble_hamiltonian(ints: MolecularIntegrals) -> FermionOperator:
    """Spin-orbital Hamiltonian over 2*norb modes, core energy included."""
    h1, h2, core = spin_orbital_tensors(ints)
    return hamiltonian_from_tensors(h1, h2, core)


def load_sweep(manifest_path) -> list[SweepPoint]:
    """Read a `bond_length fcidump-path` manifest, sorted by bond length.

    A malformed line or fixture raises FcidumpError naming `manifest:line`.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    points = []
    seen = {}
    for ln, line in enumerate(manifest_path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        where = f"{manifest_path}:{ln}"
        fields = stripped.split()
        if len(fields) != 2:
            raise FcidumpError(f"{where}: expected `bond_length path`")
        try:
            r = float(fields[0])
        except ValueError:
            raise FcidumpError(f"{where}: bond_length {fields[0]!r} is not a number") from None
        if not 0 < r < np.inf:
            raise FcidumpError(f"{where}: bond_length {r} is not positive and finite")
        if r in seen:
            raise FcidumpError(f"{where}: duplicate bond_length {r}")
        seen[r] = ln
        path = (base / fields[1]).resolve()
        if not path.is_file():
            raise FileNotFoundError(f"{where}: no such fixture {path}")
        try:
            ints = parse_fcidump(path.read_text())
        except ValueError as exc:
            raise FcidumpError(f"{where}: fixture {path}: {exc}") from None
        points.append(SweepPoint(bond_length=r, integrals=ints, label=path.stem))
    points.sort(key=lambda p: p.bond_length)
    return points
