import json

import numpy as np

from perfbench import chains, workloads
from vcsqse import assemble_hamiltonian, parse_fcidump
from vcsqse.operators import fermion_to_dense


def test_h2_reproduces_fixture_references():
    gen = chains.load_generator()
    text = chains.fcidump_text(
        *chains.chain_integrals([(0, 0, 0), (0, 0, 0.7414)], gen.STO3G_H, gen), nelec=2)
    h = fermion_to_dense(assemble_hamiltonian(parse_fcidump(text)))
    sector = [b for b in range(16) if bin(b).count("1") == 2]
    levels = np.linalg.eigvalsh(h[np.ix_(sector, sector)])
    ref = json.loads((workloads.FIXTURES / "h2_sto3g" / "references.json").read_text())
    want = ref["h2_sto3g_r0.7414.fcidump"]["fci_levels_n2_sector"]
    assert np.abs(levels - want).max() < 1e-9


def test_h4_sweep_is_seeded_and_half_filled(tmp_path):
    [manifest] = chains.write_h4_chains(5, 1, tmp_path / "a")
    [again] = chains.write_h4_chains(5, 1, tmp_path / "b")
    [other] = chains.write_h4_chains(6, 1, tmp_path / "c")
    [path] = workloads.manifest_fixtures(manifest)
    text = path.read_text()
    assert text == workloads.manifest_fixtures(again)[0].read_text()
    assert text != workloads.manifest_fixtures(other)[0].read_text()
    assert workloads.fcidump_modes(path) == 8
    assert chains.ground_sector(text) == 4
