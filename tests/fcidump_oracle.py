"""Record-by-record FCIDUMP reader, for the tests only.

parse_fcidump reads one FCIDUMP text a record at a time: it checks each
record's field count, numbers, finiteness, index range and zero pattern in
that order, writes the record's whole symmetry orbit, and refuses a later
record of the same orbit with another value. load_sweep reads a manifest a
line at a time, resolving each fixture path on its own, and stops at the
first line that fails, with that line's first failing check. check_integrals
is MolecularIntegrals' validation as one test per field and permutation:
the message of the first failing one, or None.

These are the definitions the package's stacked reader must reproduce: the
same tensors bit for bit, or the same exception type and message. (Labels
differ only for a symlinked fixture: here it is the stem of the target.)
"""

import re
from pathlib import Path

import numpy as np

from vcsqse.molecule import _SYM_TOL, FcidumpError, MolecularIntegrals, SweepPoint
from vcsqse.operators import DENSE_QUBIT_LIMIT


def check_integrals(core_energy, one_body, two_body):
    for name, value in (("core_energy", core_energy), ("one_body", one_body),
                        ("two_body", two_body)):
        if not np.isfinite(value).all():
            return f"{name} has non-finite entries"
    if np.abs(one_body - one_body.T).max() > _SYM_TOL:
        return "one_body integrals are not symmetric"
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
        if np.abs(two_body - two_body.transpose(perm)).max() > _SYM_TOL:
            return "two_body integrals break 8-fold symmetry"
    return None


def parse_fcidump(text: str) -> MolecularIntegrals:
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
    if 2 * norb > DENSE_QUBIT_LIMIT:
        raise FcidumpError(f"NORB={norb} gives {2 * norb} spin orbitals, above the "
                           f"dense limit of {DENSE_QUBIT_LIMIT}")

    core, h1, h2 = np.zeros(()), np.zeros((norb, norb)), np.zeros((norb,) * 4)
    seen = {}  # (value, line) of each written orbit, keyed by its least index tuple
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
            target, orbit = core, ((),)
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"line {ln + 1}: one-body record with a zero index")
            target, orbit = h1, ((i - 1, j - 1), (j - 1, i - 1))
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"line {ln + 1}: mixed zero/nonzero index pattern")
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            target, orbit = h2, ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                                 (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p))
        earlier, at = seen.setdefault(min(orbit), (value, ln + 1))
        if earlier != value:
            raise FcidumpError(f"line {ln + 1}: value {fields[0]} conflicts with {earlier!r} "
                               f"at line {at} for the same integral")
        for idx in orbit:
            target[idx] = value
    return MolecularIntegrals(norb=norb, nelec=nelec, ms2=ms2, core_energy=float(core),
                              one_body=h1, two_body=h2)


def load_sweep(manifest_path) -> list[SweepPoint]:
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
