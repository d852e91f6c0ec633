"""Reference checks: each returns how many points of one output failed.

A sweep point is one bond length (or chain) of one config; a point of
point_mix_m4 is one single_point report.
"""

import math
import re
from pathlib import Path

CSV_TOL = 1e-10
SPECTRUM_TOL = 1e-8
FCI_TOL = 1e-9
VCS_TOL = 1e-10
SAMPLED_SIGMAS = 5.0
# The sampled-RDM energy is a linear combination of independent Pauli-word
# estimates, each with a variance of at most 1/shots, whose coefficients are
# those of the Jordan-Wigner Hamiltonian. Its standard error is therefore at
# most pauli_norm / sqrt(shots), pauli_norm being the root sum of squares of
# the non-identity coefficients.
SAMPLED_RDM_SIGMAS = 5.0


def _rows_by_point(text):
    """Header and the rows grouped by their first field, in order."""
    lines = text.splitlines()
    header, groups = (lines[0] if lines else ""), {}
    for line in lines[1:]:
        fields = line.split(",")
        groups.setdefault(fields[0], []).append(fields)
    return header, groups


def _field_matches(got, want):
    try:
        return abs(float(got) - float(want)) <= CSV_TOL
    except ValueError:
        return got == want


def _rows_match(got, want):
    return len(got) == len(want) and all(
        len(g) == len(w) and all(_field_matches(a, b) for a, b in zip(g, w))
        for g, w in zip(got, want))


def sweep_failures(text, reference_text):
    """Reference points whose rows differ from the reference CSV.

    Text fields must be equal and numbers within CSV_TOL; a point whose rows are
    missing, or a header that differs, fails.
    """
    header, got = _rows_by_point(text)
    ref_header, want = _rows_by_point(reference_text)
    if header != ref_header:
        return len(want)
    failed = sum(not _rows_match(got.get(r, []), rows) for r, rows in want.items())
    return failed + len(set(got) - set(want))


def spectrum_failures(text, expected_points):
    """spectrum_m8 points failing the QSE-versus-FCI check.

    Per point, qse, fci_sector and fci_full level 0 must agree within
    SPECTRUM_TOL and every qse level must lie at or above fci_sector level 0
    - SPECTRUM_TOL.
    """
    header, got = _rows_by_point(text)
    if header != "R,method,level,energy":
        return expected_points
    failed = max(expected_points - len(got), 0)
    for rows in got.values():
        levels = {}
        try:
            for _, method, level, energy in rows:
                levels.setdefault(method, {})[int(level)] = float(energy)
            ground = [levels[m][0] for m in ("qse", "fci_sector", "fci_full")]
        except (ValueError, KeyError):   # a malformed row or a missing method
            failed += 1
            continue
        ok = (max(ground) - min(ground) <= SPECTRUM_TOL
              and min(levels["qse"].values()) >= levels["fci_sector"][0] - SPECTRUM_TOL)
        failed += not ok
    return failed


_NUM = r"(\S+)"
_LINES = {
    "fixture": r"^fixture: (\S+)$",
    "sector_ground": rf"^fci ground \(N=\d+ sector\): {_NUM}$",
    "sector_levels": r"^fci levels \(N=\d+ sector\): (.+)$",
    "full_ground": rf"^fci ground \(full space\):\s+{_NUM}$",
    "vcs": rf"^  vcs energy={_NUM} fidelity_io={_NUM} ",
    "novar": rf"^  no-variation energy={_NUM} fidelity_io={_NUM}$",
    "fid_exact": rf"^  fidelity_vs_exact={_NUM}$",
    "subspace": r"^subspace levels: (.+)$",
    "sampled": rf"^sampled ground energy .*: {_NUM} \+- {_NUM} \(exact {_NUM}\)$",
    "sampled_rdm": (rf"^sampled-rdm energy \((\d+) shots/word, seed \d+\): "
                    rf"{_NUM} \(exact {_NUM}\)$"),
    # a number, or None for the legal "not solvable" outcome
    "sampled_rdm_qse": (rf"^sampled-rdm qse ground: "
                        rf"(?:not solvable at |{_NUM} \(retained_dim \d+\)$)"),
}


def point_report_ok(report, references):
    """Check one single_point report against the fixture references.

    The FCI lines must match references.json within FCI_TOL; the VCS energy
    may not exceed the no-variation energy by more than VCS_TOL; fidelities
    lie in [0, 1]; the subspace ground energy is at least the full-space FCI
    ground energy - FCI_TOL; the sampled energy lies within SAMPLED_SIGMAS
    reported standard errors of the exact one; the sampled-RDM energy lies
    within sampled_rdm_tolerance of the FCI ground energy; the sampled-RDM
    QSE ground energy is a finite number or "not solvable", a legal outcome.
    """
    found = {}
    for line in report.splitlines():
        for key, pattern in _LINES.items():
            match = re.match(pattern, line)
            if match:
                found[key] = match.groups()
    if set(found) != set(_LINES):
        return False
    ref = references.get(Path(found["fixture"][0]).name)
    if ref is None:
        return False
    try:
        return _report_matches(found, ref)
    except ValueError:               # a field that is not a number
        return False


def _report_matches(found, ref):
    e_fci = ref["fci_ground"]
    levels = [float(x) for x in found["sector_levels"][0].split()]
    e_vcs, f_vcs = map(float, found["vcs"])
    e_novar, f_novar = map(float, found["novar"])
    f_exact = float(found["fid_exact"][0])
    sub_ground = float(found["subspace"][0].split()[0])
    est, err, exact = map(float, found["sampled"])
    shots, e_rdm, e_rdm_exact = found["sampled_rdm"]
    qse = found["sampled_rdm_qse"][0]
    return (abs(float(found["sector_ground"][0]) - e_fci) <= FCI_TOL
            and len(levels) == len(ref["fci_levels_n2_sector"])
            and all(abs(a - b) <= FCI_TOL
                    for a, b in zip(levels, ref["fci_levels_n2_sector"]))
            and abs(float(found["full_ground"][0]) - e_fci) <= FCI_TOL
            and e_vcs <= e_novar + VCS_TOL
            and all(0.0 <= f <= 1.0 for f in (f_vcs, f_novar, f_exact))
            and sub_ground >= e_fci - FCI_TOL
            and abs(est - exact) <= SAMPLED_SIGMAS * err
            and abs(float(e_rdm_exact) - e_fci) <= FCI_TOL
            and abs(float(e_rdm) - e_fci)
            <= sampled_rdm_tolerance(ref["pauli_norm"], int(shots))
            and (qse is None or math.isfinite(float(qse))))


def sampled_rdm_tolerance(pauli_norm, shots):
    """Largest deviation of the sampled-RDM energy from the exact energy."""
    return SAMPLED_RDM_SIGMAS * pauli_norm / math.sqrt(shots)
