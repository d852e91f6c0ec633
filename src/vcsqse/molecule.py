"""FCIDUMP ingestion and second-quantized Hamiltonian assembly.

A sweep's fixtures are parsed as one stack, one pass over all their records;
a lone FCIDUMP is a stack of one. Integrals are restricted (both spins share
the spatial orbitals) and stored in chemist notation: two_body[p, q, r, s] =
(pq|rs) with the full 8-fold permutation symmetry. The assembled Hamiltonian is

    H = core + sum_pq h_pq a_p^ a_q + 1/2 sum_pqrs h_pqrs a_p^ a_q^ a_r a_s

over spin orbitals, where the two-body coefficient couples electron 1 on the
(p, s) pair and electron 2 on the (q, r) pair, i.e. h_pqrs = (PS|QR) times
spin deltas on (p,s) and (q,r).
"""

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .operators import DENSE_QUBIT_LIMIT, FermionOperator, PRUNE_TOL, _ladder_dense

_SYM_TOL = 1e-12
# the 8 images of (i, j, k, l) that a record sets, by (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq)
_IMAGES = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
           (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
_STACK_IMAGES = [(0, *np.add(_IMAGES[g], 1)) for g in (1, 2, 4)]  # of a stack, by generator
_PLACES = np.array([[3 - g.index(q) for g in _IMAGES] for q in range(4)])  # q's digit place in g
# the nonzero indices' sum of 2^place -> 0 (two-body 15, one-body 12, core 0), or error 4 or 5
_ZEROS = np.array([0, 5, 5, 5, 4, 5, 5, 5, 4, 5, 5, 5, 0, 5, 5, 0])
_RECORD_ERRORS = ("expected `value i j k l`", "malformed numeric field", "value {0} is not finite",
                  "index {1} outside [0, {2}]", "one-body record with a zero index",
                  "mixed zero/nonzero index pattern",
                  "value {0} conflicts with {3!r} at line {4} for the same integral")


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
        h = self.one_body = np.asarray(self.one_body, dtype=float)
        v = self.two_body = np.asarray(self.two_body, dtype=float)
        if h.shape != (self.norb,) * 2:
            raise ValueError(f"one_body must be {self.norb}x{self.norb}")
        if v.shape != (self.norb,) * 4:
            raise ValueError(f"two_body must be rank-4 with dim {self.norb}")
        _check_integrals(np.asarray(self.core_energy, float)[None], h[None], v[None])


def _check_integrals(core, h, v):
    """Raise ValueError if the stacked core energies (P,), one-body (P, n, n) and two-body
    (P, n, n, n, n) integrals hold a non-finite entry (naming the first such field), else an
    asymmetric one-body or else a two-body member breaking the 8-fold symmetry."""
    # an inf or NaN anywhere makes its defect non-finite, so one test covers both
    with np.errstate(invalid="ignore", over="ignore"):
        one = np.abs(h - h.swapaxes(-1, -2)).max(initial=np.sum(core - core))
        defect = np.abs(np.subtract(v, [v.transpose(g) for g in _STACK_IMAGES])).max(initial=one)
    if not defect <= _SYM_TOL:
        for name, field in (("core_energy", core), ("one_body", h), ("two_body", v)):
            if not np.isfinite(field).all():
                raise ValueError(f"{name} has non-finite entries")
        raise ValueError("one_body integrals are not symmetric" if one > _SYM_TOL
                         else "two_body integrals break 8-fold symmetry")


@dataclass
class SweepPoint:
    bond_length: float
    integrals: MolecularIntegrals
    label: str = ""

    def __post_init__(self):
        if self.bond_length <= 0:
            raise ValueError("bond_length must be positive")


def parse_fcidump(text: str) -> MolecularIntegrals:
    """Parse FCIDUMP text: &FCI namelist header plus `value i j k l` records, as a stack of one."""
    return _parse_stack([_header(text)])[0]


def _header(text: str):
    """(norb, nelec, ms2, lines, body_start) of FCIDUMP text whose header passes every check."""
    lines = text.splitlines()
    body_start = 1 + next((ln for ln, line in enumerate(lines) if line.strip().upper().endswith(
        "&END") or line.strip().endswith("/")), -1)
    if not body_start:
        raise FcidumpError("no &END (or /) terminating the namelist header")
    header = " ".join(line.strip() for line in lines[:body_start])  # ends in its terminator
    if not header.upper().lstrip().startswith("&FCI"):
        raise FcidumpError("header does not start with &FCI")
    header = header[header.index("&") + 4:-4 if header.upper().endswith("&END") else -1]
    tokens = header.replace(",", " ").split()  # KEY=value, or KEY= then a value token
    keys = {name.upper(): [val] if val else [t for t in tokens[i + 1:i + 2] if "=" not in t]
            for i, (name, eq, val) in enumerate(t.partition("=") for t in tokens) if eq}
    for required in ("NORB", "NELEC", "MS2"):
        if not keys.get(required):
            raise FcidumpError(f"missing header key {required}")
    try:
        norb, nelec, ms2 = (int(keys[key][0]) for key in ("NORB", "NELEC", "MS2"))
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
    return norb, nelec, ms2, lines, body_start


def _numbers(cells):  # (value, i, j, k, l) with indices clipped to [-1, 64], or None
    try:
        return float(cells[0]), *(min(max(int(c), -1), 64) for c in cells[1:])
    except ValueError:
        return None


def _parse_stack(headers, prefixes=("",)) -> list[MolecularIntegrals]:
    """MolecularIntegrals of each _header, from one pass over the records of all of them. The
    first bad record raises FcidumpError: its fixture's prefix, `line N: ` and its first failing
    check, in _RECORD_ERRORS' order. A record sets its whole symmetry orbit; a later one may only
    repeat it, and the last is written (which matters only for the sign of a zero). The integrals
    are checked once, as a stack, so no member runs MolecularIntegrals' own check again."""
    base = max((h[0] for h in headers), default=0) + 1  # index i is digit i, 0 for none
    recs = [(f, n, ln, cells) for f, (n, _, _, lines, start) in enumerate(headers)
            for ln, cells in enumerate(map(str.split, lines[start:]), start + 1) if cells]
    fixture, norb, line, cells = zip(*recs) if recs else ((),) * 4
    cells5 = [c if len(c) == 5 else ("0",) * 5 for c in cells]
    tokens, numeric = list(chain.from_iterable(cells5)), np.zeros(len(cells), bool)
    try:
        value = np.fromiter(map(float, tokens[::5]), float, len(cells))
        del tokens[::5]
        index = np.fromiter(map(int, tokens), np.int64, 4 * len(cells)).reshape(-1, 4)
    except (ValueError, OverflowError):  # find the failing records one by one
        nums = list(map(_numbers, cells5))
        table, numeric = np.array([n or (0,) * 5 for n in nums]), np.array([not n for n in nums])
        value, index = table.reshape(-1, 5)[:, 0], table.reshape(-1, 5)[:, 1:].astype(np.int64)
    digits = np.minimum(np.maximum(index, 0), np.array(norb, int)[:, None])
    codes = digits @ base ** _PLACES + np.array(fixture, int)[:, None] * base ** 4  # [r, g]
    keys = codes.min(1).tolist()  # the least image of each record's orbit, per fixture
    first = np.fromiter(map({}.setdefault, keys, range(len(keys))), int, len(keys))  # in orbit
    pattern = _ZEROS[np.minimum(digits, 1) @ 2 ** _PLACES[:, 0]]
    flags = np.array([np.fromiter(map(len, cells), int, len(cells)) != 5, numeric,
                      ~np.isfinite(value), (digits != index).any(1), pattern == 4, pattern == 5,
                      value[first] != value])
    if flags.any():
        r = int(flags.any(0).argmax())
        check, fields, n = int(flags[:, r].argmax()), cells[r], norb[r]
        bad = check == 3 and next(i for i in map(int, fields[1:]) if not 0 <= i <= n)
        raise FcidumpError(f"{prefixes[fixture[r]]}line {line[r]}: " + _RECORD_ERRORS[
            check].format(fields[0], bad, n, float(value[first[r]]), line[first[r]])) from None
    last = np.fromiter(dict(zip(keys, range(len(keys)))).values(), int)  # record of each orbit
    tensors = np.zeros((len(headers),) + (base,) * 4)
    tensors.reshape(-1)[codes[last]] = value[last, None]
    core, h1, h2 = tensors[:, 0, 0, 0, 0], tensors[:, 1:, 1:, 0, 0].copy(), \
        tensors[:, 1:, 1:, 1:, 1:].copy()  # a member of the largest NORB takes views of them
    _check_integrals(core, h1, h2)
    members = []
    for (n, nelec, ms2, *_), c, a, b in zip(headers, core.tolist(), h1, h2):
        ints = MolecularIntegrals.__new__(MolecularIntegrals)  # checked with the stack above
        vars(ints).update(norb=n, nelec=nelec, ms2=ms2, core_energy=c,
                          one_body=np.ascontiguousarray(a[:n, :n]),
                          two_body=np.ascontiguousarray(b[:n, :n, :n, :n]))
        members.append(ints)
    return members


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


def _term_table(h1, h2, core):
    """Ladder table of P Hamiltonians h1 (P, m, m), h2 (P, m, m, m, m), core (P,): core,
    a_p^ a_q, a_p^ a_q^ a_r a_s (p != q, r != s, h2 halved) row-major, each kept if some
    member's coefficient reaches PRUNE_TOL; and (P, terms) coefficients, 0 where one's does not."""
    half = 0.5 * h2
    distinct = np.arange(h1.shape[-1])[:, None] != np.arange(h1.shape[-1])
    keep1 = (np.abs(h1) >= PRUNE_TOL).any(axis=0)
    keep2 = (np.abs(half) >= PRUNE_TOL).any(axis=0) & distinct[:, :, None, None] & distinct
    n0, n1, n2 = map(np.count_nonzero, ((np.abs(core) >= PRUNE_TOL).any(), keep1, keep2))
    ladder = np.zeros((n0 + n1 + n2, 4, 3), dtype=np.int64)  # cut to the longest term
    # (dagger, used) per slot of a_p^ a_q, then of a_p^ a_q^ a_r a_s
    ladder[n0:n0 + n1, :, 1:] = [[1, 1], [0, 1], [0, 0], [0, 0]]
    ladder[n0 + n1:, :, 1:] = [[1, 1], [1, 1], [0, 1], [0, 1]]
    ladder[n0:n0 + n1, :2, 0], ladder[n0 + n1:, :, 0] = np.argwhere(keep1), np.argwhere(keep2)
    coeffs = np.concatenate([np.reshape(core, (-1, 1))[:, :n0], h1[:, keep1], half[:, keep2]], 1)
    return ladder[:, :4 if n2 else 2 if n1 else 0], np.where(abs(coeffs) >= PRUNE_TOL, coeffs, 0)


def hamiltonian_from_tensors(h1, h2, core: float = 0.0) -> FermionOperator:
    """Second-quantized operator for spin-orbital tensors h1 (m, m), h2
    (m, m, m, m) and core: the _term_table of a stack of one."""
    m = np.shape(h1)[0] if np.ndim(h1) else 0
    if np.shape(h1) != (m, m) or np.shape(h2) != (m,) * 4:
        raise ValueError(f"h1 of shape {np.shape(h1)} and h2 of shape {np.shape(h2)} "
                         "are not (m, m) and (m, m, m, m)")
    if not (np.isfinite(core) and np.isfinite(h1).all() and np.isfinite(h2).all()):
        raise ValueError("non-finite integral in (h1, h2, core)")
    ladder, coeffs = _term_table(np.asarray(h1)[None], np.asarray(h2)[None], core)
    return FermionOperator.__new__(FermionOperator)._set(m, ladder, coeffs[0].astype(complex))


def assemble_hamiltonian(ints: MolecularIntegrals) -> FermionOperator:
    """Spin-orbital Hamiltonian over 2*norb modes, core energy included."""
    h1, h2, core = spin_orbital_tensors(ints)
    return hamiltonian_from_tensors(h1, h2, core)


def dense_hamiltonians(integrals) -> np.ndarray:
    """(P, 2^M, 2^M) stack of the Hamiltonians of P MolecularIntegrals sharing
    norb, each bit for bit fermion_to_dense(assemble_hamiltonian(ints))."""
    h1, h2, core = map(np.stack, zip(*map(spin_orbital_tensors, integrals)))
    return _ladder_dense(h1.shape[-1], *_term_table(h1, h2, core))


def load_sweep(manifest_path) -> list[SweepPoint]:
    """Read a `bond_length fcidump-path` manifest, sorted by bond length, its fixtures parsed
    as one stack. A malformed line or fixture raises FcidumpError naming `manifest:line` of
    the first line that fails. Paths are joined to the manifest's resolved directory, so a
    label is the stem of the name the manifest gives, not of a symlink's target."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent.resolve()
    entries, headers, seen = [], [], set()
    try:
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
            seen.add(r)
            path = base / fields[1]
            if not path.is_file():
                raise FileNotFoundError(f"{where}: no such fixture {path}")
            try:
                headers.append(_header(path.read_text()))
            except ValueError as exc:
                raise FcidumpError(f"{where}: fixture {path}: {exc}") from None
            entries.append((r, path, f"{where}: fixture {path}: "))
    except (ValueError, OSError):
        _parse_stack(headers, [e[2] for e in entries])  # a bad record on an earlier line is first
        raise
    points = [SweepPoint(bond_length=r, integrals=ints, label=path.stem) for (r, path, _), ints
              in zip(entries, _parse_stack(headers, [e[2] for e in entries]))]
    points.sort(key=lambda p: p.bond_length)
    return points
