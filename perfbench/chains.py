"""Seeded linear hydrogen chains written as FCIDUMP inputs.

The integrals come from the closed-form s-Gaussian routines of
fixtures/generate_fixtures.py, which is imported read-only and stays
independent of the vcsqse package. The atomic basis is orthogonalized with
Loewdin's S^{-1/2}; full CI does not depend on the orbital choice, so no SCF
is needed.
"""

import importlib.util
import itertools
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "fixtures" / "generate_fixtures.py"

# H4 chain draws: bond spacings (angstrom) and per-axis displacement bound.
SPACING_RANGE = (0.8, 1.5)
DISPLACEMENT = 0.05


def load_generator():
    """Import fixtures/generate_fixtures.py without running its main()."""
    spec = importlib.util.spec_from_file_location("generate_fixtures", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chain_integrals(positions_angstrom, primitives, gen):
    """Loewdin-orbital integrals (h_mo, eri_mo, e_nuc) for H atoms at positions."""
    centers = [np.asarray(p, dtype=float) * gen.BOHR_PER_ANGSTROM
               for p in positions_angstrom]
    aos = [gen.ContractedS(primitives, c) for c in centers]
    charges = [(c, 1.0) for c in centers]
    n = len(aos)
    s = np.array([[gen.overlap(a, b) for b in aos] for a in aos])
    hcore = np.array([[gen.kinetic(a, b) + gen.nuclear(a, b, charges) for b in aos]
                      for a in aos])
    ao_eri = np.zeros((n, n, n, n))
    for p, q, r, t in itertools.product(range(n), repeat=4):
        if q > p or t > r or (r, t) > (p, q):
            continue
        val = gen.eri(aos[p], aos[q], aos[r], aos[t])
        for a, b, c, d in ((p, q, r, t), (q, p, r, t), (p, q, t, r), (q, p, t, r),
                           (r, t, p, q), (t, r, p, q), (r, t, q, p), (t, r, q, p)):
            ao_eri[a, b, c, d] = val
    w, u = np.linalg.eigh(s)
    c = u @ np.diag(w ** -0.5) @ u.T
    h_mo = c.T @ hcore @ c
    eri_mo = np.einsum("ap,bq,cr,ds,abcd->pqrs", c, c, c, c, ao_eri, optimize=True)
    e_nuc = sum(1.0 / float(np.linalg.norm(a - b))
                for a, b in itertools.combinations(centers, 2))
    return h_mo, eri_mo, e_nuc


def fcidump_text(h_mo, eri_mo, e_nuc, nelec):
    """FCIDUMP with one record per 8-fold-unique two-electron integral."""
    n = h_mo.shape[0]
    lines = [f"&FCI NORB={n},NELEC={nelec},MS2=0,",
             " ORBSYM=" + "1," * n, " ISYM=1,", "&END"]
    for p, q, r, s in itertools.product(range(n), repeat=4):
        if q > p or s > r or (r, s) > (p, q):
            continue
        val = eri_mo[p, q, r, s]
        if abs(val) > 1e-14:
            lines.append(f"{val:23.16e} {p+1:3d} {q+1:3d} {r+1:3d} {s+1:3d}")
    for p in range(n):
        for q in range(p + 1):
            val = h_mo[p, q]
            if abs(val) > 1e-14:
                lines.append(f"{val:23.16e} {p+1:3d} {q+1:3d}   0   0")
    lines.append(f"{e_nuc:23.16e}   0   0   0   0")
    return "\n".join(lines) + "\n"


def draw_chain(rng, atoms):
    """Linear chain along z with seeded spacings and small displacements."""
    z = np.concatenate([[0.0], np.cumsum(rng.uniform(*SPACING_RANGE, atoms - 1))])
    base = np.stack([np.zeros(atoms), np.zeros(atoms), z], axis=1)
    return base + rng.uniform(-DISPLACEMENT, DISPLACEMENT, base.shape)


def ground_sector(fcidump):
    """Particle number of the full-space ground state, or None if mixed."""
    from vcsqse import assemble_hamiltonian, parse_fcidump
    from vcsqse.operators import fermion_to_dense
    h = fermion_to_dense(assemble_hamiltonian(parse_fcidump(fcidump)))
    _, v = np.linalg.eigh(h)
    weight = np.abs(v[:, 0]) ** 2
    counts = np.array([bin(b).count("1") for b in range(h.shape[0])])
    n = float(weight @ counts)
    return round(n) if abs(n - round(n)) < 1e-8 else None


def write_h4_chains(seed, count, out_dir):
    """Write `count` seeded STO-6G H4 chains, each with a one-point manifest.

    Each chain's full-space ground state must lie in the N = 4 sector, or the
    number projection of the spectrum experiment has nothing to find.
    Returns the manifest paths.
    """
    gen = load_generator()
    rng = np.random.default_rng([seed, 4])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifests = []
    for i in range(count):
        positions = draw_chain(rng, 4)
        text = fcidump_text(*chain_integrals(positions, gen.STO6G_H, gen), nelec=4)
        sector = ground_sector(text)
        if sector != 4:
            raise ValueError(f"H4 chain {i} (seed {seed}): full-space ground state "
                             f"has N={sector}, not 4")
        name = f"h4_sto6g_{i}"
        (out_dir / f"{name}.fcidump").write_text(text)
        length = float(np.linalg.norm(positions[-1] - positions[0]))
        manifest = out_dir / f"{name}.manifest"
        manifest.write_text(f"# chain length (angstrom) fcidump\n"
                            f"{length:.6f} {name}.fcidump\n")
        manifests.append(manifest)
    return manifests
