"""FCIDUMP writer for the tests.

render_fcidump turns MolecularIntegrals back into FCIDUMP text, one record
per 8-fold symmetry class of the two-body integrals, for the parser's
round-trip test and for tests that write a fixture of their own.
"""

from vcsqse.molecule import MolecularIntegrals
from vcsqse.operators import PRUNE_TOL


def render_fcidump(ints: MolecularIntegrals) -> str:
    """Write integrals back to FCIDUMP text (unique records only)."""
    out = [f"&FCI NORB={ints.norb},NELEC={ints.nelec},MS2={ints.ms2},", "&END"]
    n = ints.norb
    seen = set()
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    key = frozenset({(p, q, r, s), (q, p, r, s), (p, q, s, r),
                                     (q, p, s, r), (r, s, p, q), (s, r, p, q),
                                     (r, s, q, p), (s, r, q, p)})
                    v = ints.two_body[p, q, r, s]
                    if key in seen or abs(v) < PRUNE_TOL:
                        continue
                    seen.add(key)
                    out.append(f"{v:23.16e} {p + 1:3d} {q + 1:3d} {r + 1:3d} {s + 1:3d}")
    for p in range(n):
        for q in range(p + 1):
            v = ints.one_body[p, q]
            if abs(v) >= PRUNE_TOL:
                out.append(f"{v:23.16e} {p + 1:3d} {q + 1:3d}   0   0")
    out.append(f"{ints.core_energy:23.16e}   0   0   0   0")
    return "\n".join(out) + "\n"
